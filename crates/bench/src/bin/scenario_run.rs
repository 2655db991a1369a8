//! Fault-tolerant campaign coordinator: executes a whole scenario as
//! supervised shards with timeouts, seeded-backoff retries, checkpointing
//! into a run directory (re-running resumes from valid checkpoints), and
//! optional degradation to a coverage-annotated partial merge.
//!
//! ```text
//! scenario_run --scenario fig6b --shards 4 --run-dir runs/fig6b
//! scenario_run --scenario fig6b --shards 4 --run-dir runs/fig6b   # resume
//! scenario_run --scenario fig7 --shards 8 --run-dir runs/fig7 \
//!              --workers process --max-attempts 5 --timeout-ms 600000
//! scenario_run --scenario fig6b --shards 3 --run-dir runs/ft \
//!              --fault-plan faults.json --allow-partial --out merged.json
//! ```
//!
//! Exit status is the campaign verdict, distinctly:
//! `0` all shards merged (archive at `<run-dir>/merged.json`);
//! `3` retries exhausted on some shard — degraded: with `--allow-partial`
//! a coverage-annotated partial archive lands at `<run-dir>/partial.json`;
//! `4` halted early via `--halt-after` (checkpoints written, no merge);
//! `2` usage errors; `1` campaign-level failures (bad scenario/run dir).
//!
//! See `docs/RESILIENCE.md` for the coordinator lifecycle, the `FaultPlan`
//! schema and the checkpoint directory layout.

use std::path::PathBuf;
use std::time::Duration;

use nbiot_bench::coordinator::{
    self, AttemptOutcome, FaultPlan, RunConfig, RunOutcome, WorkerMode,
};
use nbiot_bench::{
    fail, fail_usage, out, outln, render_table, scenarios, FigureOpts, OrFail, EXIT_DEGRADED,
    EXIT_HALTED,
};

fn usage() -> ! {
    eprintln!(
        "usage: scenario_run --scenario <name|path.json|path.toml> --shards N --run-dir DIR\n\
         \x20      [--runs N] [--devices N] [--seed N] [--threads N] [--mix NAME]\n\
         \x20      [--max-attempts N] [--timeout-ms N] [--backoff-ms N]\n\
         \x20      [--workers in-process|process] [--figures-bin PATH]\n\
         \x20      [--fault-plan PATH] [--allow-partial] [--halt-after N]\n\
         \x20      [--out PATH] [--report PATH] [--json]\n\
         supervised sharded campaign: per-shard timeout (--timeout-ms, default 600000),\n\
         bounded retries (--max-attempts, default 3) with seeded exponential backoff\n\
         (--backoff-ms base, default 200), checkpoint/resume in --run-dir, and -- with\n\
         --allow-partial -- degradation to a coverage-annotated partial archive when a\n\
         shard exhausts its budget. --workers process re-invokes figures per shard\n\
         (--figures-bin overrides the sibling default); --fault-plan injects a JSON\n\
         failure schedule (in-process workers only); --halt-after K stops after K newly\n\
         completed shards (simulated kill, for resume testing); --out copies the merged\n\
         or partial archive; --report writes the campaign report JSON; --json prints it.\n\
         exit codes: 0 merged, 1 error, 2 usage, 3 degraded/failed shards, 4 halted"
    );
    std::process::exit(0);
}

fn main() {
    let mut scenario_spec: Option<String> = None;
    let mut shards: Option<u32> = None;
    let mut run_dir: Option<PathBuf> = None;
    let mut max_attempts = 3u32;
    let mut timeout_ms = 600_000u64;
    let mut backoff_ms = 200u64;
    let mut workers = String::from("in-process");
    let mut figures_bin: Option<PathBuf> = None;
    let mut fault_plan_path: Option<String> = None;
    let mut allow_partial = false;
    let mut halt_after: Option<u32> = None;
    let mut out: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut shared_args = Vec::new();
    let mut args = std::env::args().skip(1);

    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| fail_usage(format!("{flag} needs a value; try --help")))
    }
    fn parsed<T: core::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        value(args, flag)
            .parse()
            .unwrap_or_else(|_| fail_usage(format!("{flag} needs a valid number; try --help")))
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => scenario_spec = Some(value(&mut args, "--scenario")),
            "--shards" => shards = Some(parsed(&mut args, "--shards")),
            "--run-dir" => run_dir = Some(PathBuf::from(value(&mut args, "--run-dir"))),
            "--max-attempts" => max_attempts = parsed(&mut args, "--max-attempts"),
            "--timeout-ms" => timeout_ms = parsed(&mut args, "--timeout-ms"),
            "--backoff-ms" => backoff_ms = parsed(&mut args, "--backoff-ms"),
            "--workers" => workers = value(&mut args, "--workers"),
            "--figures-bin" => figures_bin = Some(PathBuf::from(value(&mut args, "--figures-bin"))),
            "--fault-plan" => fault_plan_path = Some(value(&mut args, "--fault-plan")),
            "--allow-partial" => allow_partial = true,
            "--halt-after" => halt_after = Some(parsed(&mut args, "--halt-after")),
            "--out" => out = Some(value(&mut args, "--out")),
            "--report" => report_path = Some(value(&mut args, "--report")),
            "--help" | "-h" => usage(),
            other => shared_args.push(other.to_string()),
        }
    }
    let opts = FigureOpts::parse(shared_args.into_iter());
    let spec = scenario_spec.unwrap_or_else(|| fail_usage("--scenario is required; try --help"));
    let shards =
        shards.unwrap_or_else(|| fail_usage("--shards is required (how many partitions?)"));
    let run_dir =
        run_dir.unwrap_or_else(|| fail_usage("--run-dir is required (where do checkpoints live?)"));

    let mut scenario = scenarios::load_scenario(&spec).or_fail();
    opts.apply_to_scenario(&mut scenario);

    let workers = match workers.as_str() {
        "in-process" => WorkerMode::InProcess,
        "process" => WorkerMode::Process {
            figures_bin: figures_bin.unwrap_or_else(default_figures_bin),
        },
        other => fail_usage(format!(
            "--workers must be `in-process` or `process`, got `{other}`"
        )),
    };
    let fault_plan = match &fault_plan_path {
        None => FaultPlan::none(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read fault plan `{path}`: {e}")));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(format!("bad fault plan JSON in `{path}`: {e}")))
        }
    };

    let config = RunConfig {
        scenario,
        shards,
        run_dir,
        max_attempts,
        timeout: Duration::from_millis(timeout_ms),
        backoff_base_ms: backoff_ms,
        workers,
        fault_plan,
        allow_partial,
        halt_after,
    };
    let outcome = coordinator::run(&config).unwrap_or_else(|e| fail(e));

    if let Some(path) = &report_path {
        let text = serde_json::to_string_pretty(&outcome.report).expect("serializable");
        std::fs::write(path, text)
            .unwrap_or_else(|e| fail(format!("cannot write report `{path}`: {e}")));
    }
    if opts.json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&outcome.report).expect("serializable")
        );
    } else {
        print_summary(&outcome);
    }
    if let (Some(dest), Some(src)) = (&out, &outcome.merged_path) {
        std::fs::copy(src, dest).unwrap_or_else(|e| {
            fail(format!(
                "cannot copy archive `{}` to `{dest}`: {e}",
                src.display()
            ))
        });
        eprintln!("scenario_run: archive -> {dest}");
    } else if out.is_some() {
        eprintln!("scenario_run: no archive produced; --out not written");
    }

    if outcome.report.halted {
        std::process::exit(EXIT_HALTED);
    }
    if !outcome.report.failed.is_empty() {
        std::process::exit(EXIT_DEGRADED);
    }
}

/// The `figures` binary next to the running `scenario_run` executable —
/// cargo places sibling binaries of one package in the same directory.
fn default_figures_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("figures")))
        .unwrap_or_else(|| PathBuf::from("figures"))
}

/// Human-readable campaign summary: one row per shard plus the verdict.
fn print_summary(outcome: &RunOutcome) {
    let report = &outcome.report;
    let rows: Vec<Vec<String>> = report
        .shard_reports
        .iter()
        .map(|shard| {
            let status = if shard.from_checkpoint {
                "resumed"
            } else if shard.completed {
                "completed"
            } else if report.skipped.contains(&shard.shard) {
                "skipped"
            } else {
                "FAILED"
            };
            let trail = shard
                .attempts
                .iter()
                .map(|a| {
                    match a.outcome {
                        AttemptOutcome::Completed => "ok",
                        AttemptOutcome::SpawnFailed => "spawn-failed",
                        AttemptOutcome::Stalled => "stalled",
                        AttemptOutcome::Crashed => "crashed",
                        AttemptOutcome::CorruptArchive => "corrupt",
                    }
                    .to_string()
                })
                .collect::<Vec<_>>()
                .join(" > ");
            vec![
                shard.shard.to_string(),
                status.to_string(),
                shard.attempts.len().to_string(),
                if trail.is_empty() { "-".into() } else { trail },
            ]
        })
        .collect();
    outln!(
        "==== campaign {} ({} shards, fingerprint {:#018x}) ====",
        report.scenario,
        report.shards,
        report.fingerprint
    );
    out!(
        "{}",
        render_table(&["shard", "status", "attempts", "trail"], &rows)
    );
    match (&outcome.merged, report.halted) {
        (_, true) => outln!(
            "verdict: HALTED after {} completed shard(s); resume with the same --run-dir",
            report.completed.len()
        ),
        (Some(merged), _) => match &merged.coverage {
            None => outln!(
                "verdict: complete — {} items merged -> {}",
                merged.items.len(),
                outcome
                    .merged_path
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            ),
            Some(coverage) => outln!(
                "verdict: DEGRADED — shards {:?} missing, item coverage {:.1}% -> {}",
                coverage.missing,
                coverage.item_coverage * 100.0,
                outcome
                    .merged_path
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            ),
        },
        (None, false) if !report.failed.is_empty() => outln!(
            "verdict: FAILED — shards {:?} exhausted {} attempt(s); re-run to retry, or pass \
             --allow-partial to degrade",
            report.failed,
            report
                .shard_reports
                .iter()
                .map(|s| s.attempts.len())
                .max()
                .unwrap_or(0)
        ),
        (None, false) => outln!("verdict: nothing to merge"),
    }
}
