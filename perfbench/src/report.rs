//! Metric names, the machine profile, small statistics helpers and the
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Span;
use crate::Args;

/// End-to-end metrics, measured untraced and printed with `--trace 0`,
/// in this order. `peak_rss_mb` is read by [`finish`] itself.
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tx_per_campaign", "transmissions"),
    ("airtime_per_campaign_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`, in this order. A layer a
/// workload never runs reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("traffic.generate_ms", "ms"),
    ("input.build_ms", "ms"),
    ("plan.dr_sc_ms", "ms"),
    ("plan.dr_sc_tabu_ms", "ms"),
    ("plan.dr_sc_weighted_ms", "ms"),
    ("plan.da_sc_ms", "ms"),
    ("plan.dr_si_ms", "ms"),
    ("plan.unicast_ms", "ms"),
    ("plan.sc_ptm_ms", "ms"),
    ("validate.dr_sc_ms", "ms"),
    ("validate.dr_sc_tabu_ms", "ms"),
    ("validate.dr_sc_weighted_ms", "ms"),
    ("validate.da_sc_ms", "ms"),
    ("validate.dr_si_ms", "ms"),
    ("validate.unicast_ms", "ms"),
    ("validate.sc_ptm_ms", "ms"),
    ("des.campaign_ms", "ms"),
    ("grid.item_ms", "ms"),
    ("grid.residual_ms", "ms"),
    ("grid.residual_share", "ratio"),
    ("fold.merge_ms", "ms"),
    ("grid.parallel_efficiency", "ratio"),
    ("service.fleet_apply_us", "us"),
    ("service.serve_repair_ms", "ms"),
    ("service.serve_full_ms", "ms"),
    ("service.serve_cached_ms", "ms"),
    ("service.input_build_ms", "ms"),
    ("service.repair_plan_ms", "ms"),
    ("service.plan_validate_ms", "ms"),
    ("service.serve_residual_ms", "ms"),
    ("service.serve_residual_share", "ratio"),
    ("service.snapshot_ms", "ms"),
    ("service.snapshot_bytes", "bytes"),
    ("service.serve_p50_ms", "ms"),
    ("service.serve_p99_ms", "ms"),
    ("service.serve_samples", "count"),
    ("des.device_campaigns", "count"),
    ("plan.transmissions", "count"),
    ("validate.recipients", "count"),
    ("improve.moves", "count"),
    ("improve.budget_spent", "count"),
    ("service.fleet_events", "count"),
    ("service.serves", "count"),
    ("service.repair_share", "ratio"),
    ("service.full_share", "ratio"),
    ("service.repair_fallbacks", "count"),
    ("service.stale_fraction_mean", "ratio"),
    ("trace.items_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_share", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (grid items, log records, output checks).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// End-to-end values by name (all of [`END_TO_END`] but `peak_rss_mb`).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (a subset of [`PER_LAYER`]).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one failed check with a note saying what failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }
}

/// The machine profile every result carries, so numbers taken on
/// different hardware, compilers or feature sets are never silently
/// compared.
pub struct Machine {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours cgroup quotas).
    pub available_parallelism: usize,
}

/// Cargo features enabled on the measured crates (mirrors `Cargo.toml`).
const FEATURES: &str = "nbiot-grouping/serde,nbiot-sim/serde";

impl Machine {
    pub fn detect() -> Machine {
        let available_parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let nproc = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(count_cpu_list)
            })
            .unwrap_or(available_parallelism);
        Machine {
            nproc,
            available_parallelism,
        }
    }

    /// Worker threads for the grid workloads: every core the process may
    /// use.
    pub fn threads(&self) -> usize {
        self.available_parallelism.min(self.nproc).max(1)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"profile\": \"{}\", \
             \"features\": \"{FEATURES}\", \"rustc\": \"{}\"}}",
            self.nproc,
            self.available_parallelism,
            env!("PERFBENCH_PROFILE"),
            env!("PERFBENCH_RUSTC_VERSION").replace('"', "'"),
        )
    }
}

/// Counts the CPUs of a kernel CPU list such as `0-3,6`.
fn count_cpu_list(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Prints the notes and machine profile, writes the trace file of a
/// traced run, and renders the result line.
///
/// # Errors
///
/// A metric that is missing or not finite (a benchmark bug), or a trace
/// file that cannot be written.
pub fn finish(args: &Args, machine: &Machine, mut outcome: Outcome) -> Result<String, String> {
    println!("# machine {}", machine.to_json());
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        outcome.per_layer.insert(
            "failed_share",
            ratio(outcome.failed as f64, outcome.attempted as f64),
        );
        if let Some(unknown) = outcome
            .per_layer
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(name, _)| name == *k))
        {
            return Err(format!("per-layer metric `{unknown}` is not declared"));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    outcome.per_layer.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        outcome.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                outcome
                    .end_to_end
                    .get(name)
                    .map(|&v| (name, unit, v))
                    .ok_or_else(|| format!("end-to-end metric `{name}` was not measured"))
            })
            .collect::<Result<_, _>>()?
    };
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not finite ({value})"));
    }
    let mut rendered = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            rendered,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if args.trace {
        write_trace(args, machine, &rendered, &outcome)?;
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{rendered}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
    ))
}

/// Writes the traced run's spans, per-layer metrics and machine profile.
fn write_trace(
    args: &Args,
    machine: &Machine,
    metrics: &str,
    outcome: &Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.trace_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", args.trace_dir))?;
    let path = format!(
        "{}/{}.seed{}.trace.json",
        args.trace_dir, args.workload, args.seed
    );
    let mut text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"machine\": {}, \"metrics\": {{{metrics}}}, \
         \"spans\": [",
        args.workload,
        args.seed,
        machine.to_json()
    );
    for (i, span) in outcome.spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            text,
            "{sep}{{\"name\": \"{}\", \"owner\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            span.name, span.owner, span.start_us, span.end_us
        );
    }
    text.push_str("\n]}\n");
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("# trace written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(count_cpu_list("0-1\n"), 2);
        assert_eq!(count_cpu_list("0,2-3"), 3);
        assert_eq!(count_cpu_list("5"), 1);
    }
}
