//! Machine-trackable macro-benchmark: runs a fixed workload through every
//! pipeline stage (population generation, planning, set-cover kernels,
//! campaign execution, full comparison serial vs parallel) and writes
//! `BENCH_results.json` with wall-clock per stage, so the perf trajectory
//! of the repository is comparable PR over PR.
//!
//! Default workload: 5 mechanisms × 500 devices × 20 runs (override with
//! `--devices`/`--runs`; `--threads` sets the *parallel* comparison's
//! worker count, 0 = all cores). Every `plan` and `campaign` repetition
//! runs on a freshly built `GroupingInput`, so no repetition reads a DR-SC
//! memo an earlier one filled; `plan_dr_sc_family` plans DR-SC,
//! DR-SC-tabu and DR-SC-weighted on one fresh input, the shared case a
//! scenario item runs. The massive-n scale-tier stages solve a
//! `--massive-devices` (default 10^6) frame-cover point, validate the
//! DA-SC and DR-SI plans of a massive-metering fleet of that size
//! (`plan_validate`), run the DR-SC, DA-SC and DR-SI campaigns of that
//! fleet on prebuilt plans (`campaign_massive`) and build its PO timeline
//! and solve its DR-SC window cover on a fresh input per repetition
//! (`window_cover_massive`). `--out <path>` redirects the
//! report. Building with `--features bench-alloc` adds a `mem` block to
//! every stage (peak allocated bytes in the stage's window, plus
//! bytes-per-device where the stage has a device count).
//! The default `BENCH_results.json` is gitignored scratch; the committed
//! full-workload snapshot is `BENCH_baseline.json` (regenerate it with
//! `--out BENCH_baseline.json` when a change moves performance).
//!
//! `--compare <baseline.json>` turns the run into a **regression gate**:
//! every stage's wall clock is compared against the same-keyed stage of
//! the baseline report, and the process exits nonzero when any stage is
//! slower by more than `--tolerance-pct <p>` percent (default 25).
//! `--warn-only` downgrades the gate to a report — the right setting on
//! noisy shared hardware like the 1-core CI container, where wall-clock
//! ratios are not trustworthy (see ROADMAP).
//!
//! ```text
//! cargo run --release -p nbiot-bench --bin bench_report
//! cargo run --release -p nbiot-bench --bin bench_report -- --runs 2 --devices 40 --out /tmp/bench.json
//! cargo run --release -p nbiot-bench --bin bench_report -- \
//!     --compare BENCH_baseline.json --tolerance-pct 25 --warn-only
//! ```
//!
//! # `BENCH_results.json` schema
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "workload": { "devices": 500, "runs": 20, "mechanisms": 5,
//!                  "seed": 86085268470817, "parallel_threads": 0 },
//!   "stages": [
//!     { "name": "population_generation", "wall_clock_ms": 1.2,
//!       "detail": { ... stage-specific numbers ... },
//!       "mem": { "peak_alloc_bytes": 123456, "bytes_per_device": 246.9 } },
//!     ...                              // "mem" only with --features bench-alloc
//!   ],
//!   "derived": {
//!     "set_cover_speedup": 14.0,       // reference / incremental greedy, 1000 devices
//!     "set_cover_stress_speedup": 28.0,      // reference / incremental, 10k devices
//!     "dr_sc_family_sharing_ratio": 0.6,     // plan_dr_sc_family / summed cold family plans
//!     "weighted_airtime_gain": 3.4,    // count-greedy airtime / weighted airtime, 10k devices
//!     "window_cover_speedup": 1.2,     // reference / incremental timeline solver
//!     "window_cover_incremental_speedup": 5.0, // per-round sweep / incremental
//!     "comparison_parallel_speedup": 5.9,
//!     "sweep_parallel_speedup": 5.5,         // serial full device sweep / one (point × run) pool
//!     "coordinator_overhead": 1.05           // supervised 2-shard run / direct run_scenario
//!   }
//! }
//! ```
//!
//! Stage wall-clocks are milliseconds (f64). `detail` keys are stable per
//! stage name; new stages may be appended over time.

use std::time::Instant;

use nbiot_bench::coordinator::{self, RunConfig};
use nbiot_bench::{fail, fail_usage, workload, FigureOpts};
use nbiot_des::SeedSequence;
use nbiot_grouping::set_cover::{self, reference, WindowCover};
use nbiot_grouping::{
    improve, repair_plan, GroupingError, GroupingInput, GroupingMechanism, GroupingParams,
    MechanismKind, MulticastPlan, DEFAULT_TABU_BUDGET,
};
use nbiot_service::{EventLog, GroupingService, ServeAction, ServiceConfig};
use nbiot_sim::{run_campaign, run_scenario, RegroupPolicy, Scenario, SimConfig};
use nbiot_time::SimDuration;
use serde_json::{json, Value};

/// A mechanism that hands back a prebuilt plan without touching the RNG,
/// so a campaign stage times `run_campaign` without planning.
struct Replay<'a>(&'a MulticastPlan);

impl GroupingMechanism for Replay<'_> {
    fn name(&self) -> String {
        self.0.mechanism.clone()
    }

    fn is_standards_compliant(&self) -> bool {
        self.0.standards_compliant
    }

    fn plan(
        &self,
        _input: &GroupingInput,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        Ok(self.0.clone())
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// Best-of-`reps` wall clock after one warmup — used for the kernel
/// stages, where a single cold measurement is dominated by cache and
/// page-fault noise.
fn timed_min<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    timed_min_with(reps, || (), |()| f())
}

/// [`timed_min`] with an untimed `setup` before every call, warmup
/// included. The planning, campaign and re-planning stages set up a fresh
/// `GroupingInput` each time: an input memoizes the DR-SC family's cover
/// and anchor instance, so a reused one would time a memo read.
fn timed_min_with<S, T>(
    reps: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&S) -> T,
) -> (T, f64) {
    let mut out = f(&setup()); // warmup (and the returned value)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let state = setup();
        let start = Instant::now();
        let fresh = std::hint::black_box(f(&state));
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        out = fresh;
    }
    (out, best)
}

/// Events per second from a count and an elapsed wall-clock in
/// milliseconds. A zero (or pathological negative) elapsed reports 0.0
/// instead of the bare division's inf/NaN — sub-millisecond stages on a
/// coarse clock must not poison the JSON report (`inf` is not even valid
/// JSON).
fn per_sec(count: usize, elapsed_ms: f64) -> f64 {
    if elapsed_ms <= 0.0 {
        0.0
    } else {
        count as f64 / (elapsed_ms / 1000.0)
    }
}

/// Builds one stage record and closes its memory-measurement window.
///
/// Built with `--features bench-alloc`, each stage carries a `mem` block:
/// the peak allocated bytes since the previous stage record (the window
/// covers that stage's measurement) and, when the stage's detail names a
/// device count, the derived bytes-per-device. Without the feature the
/// block is omitted and the schema is unchanged.
fn stage(name: &str, wall_clock_ms: f64, detail: Value) -> Value {
    let mut entries = vec![
        ("name".to_string(), json!(name)),
        ("wall_clock_ms".to_string(), json!(wall_clock_ms)),
        ("detail".to_string(), detail),
    ];
    if let Some(peak) = nbiot_bench::alloc_meter::peak_bytes() {
        let devices = entries
            .iter()
            .find(|(k, _)| k == "detail")
            .and_then(|(_, d)| lookup(d, "devices").or_else(|| lookup(d, "devices_each")))
            .and_then(as_f64);
        let mem = match devices {
            Some(n) if n > 0.0 => json!({
                "peak_alloc_bytes": peak,
                "bytes_per_device": peak as f64 / n,
            }),
            _ => json!({ "peak_alloc_bytes": peak }),
        };
        entries.push(("mem".to_string(), mem));
    }
    nbiot_bench::alloc_meter::reset_peak();
    Value::Object(entries)
}

// ---- the --compare regression gate ----

fn lookup<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn as_f64(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// The identity of a stage across reports: its name, qualified by the
/// mechanism when the stage repeats per mechanism (`plan`, `campaign`).
fn stage_key(stage: &Value) -> Option<String> {
    let name = lookup(stage, "name")?.as_str()?.to_string();
    match lookup(stage, "detail").and_then(|d| lookup(d, "mechanism")) {
        Some(mech) => Some(format!("{name}[{}]", mech.as_str()?)),
        None => Some(name),
    }
}

///`(key, wall_clock_ms)` of every well-formed stage in a report.
fn stage_times(report: &Value) -> Vec<(String, f64)> {
    lookup(report, "stages")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| Some((stage_key(s)?, as_f64(lookup(s, "wall_clock_ms")?)?)))
        .collect()
}

/// One row of the comparison table.
struct StageDelta {
    key: String,
    baseline_ms: f64,
    current_ms: f64,
}

impl StageDelta {
    fn change_pct(&self) -> f64 {
        (self.current_ms / self.baseline_ms - 1.0) * 100.0
    }
}

/// Pairs the current report's stages with the baseline's by key and
/// splits them into (compared rows, keys with no baseline counterpart).
/// Stages only in the baseline are ignored — a renamed or retired stage
/// must not fail the gate forever.
fn compare_stages(current: &Value, baseline: &Value) -> (Vec<StageDelta>, Vec<String>) {
    let baseline_times = stage_times(baseline);
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (key, current_ms) in stage_times(current) {
        match baseline_times.iter().find(|(k, _)| *k == key) {
            Some(&(_, baseline_ms)) if baseline_ms > 0.0 => rows.push(StageDelta {
                key,
                baseline_ms,
                current_ms,
            }),
            _ => unmatched.push(key),
        }
    }
    (rows, unmatched)
}

/// Runs the gate: prints the per-stage comparison and returns the keys of
/// stages regressing beyond `tolerance_pct`.
fn run_gate(current: &Value, baseline: &Value, tolerance_pct: f64) -> Vec<String> {
    let (rows, unmatched) = compare_stages(current, baseline);
    let mut violations = Vec::new();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let regressed = row.change_pct() > tolerance_pct;
            if regressed {
                violations.push(row.key.clone());
            }
            vec![
                row.key.clone(),
                format!("{:.3}", row.baseline_ms),
                format!("{:.3}", row.current_ms),
                format!("{:+.1}%", row.change_pct()),
                if regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    eprintln!(
        "\nbench gate vs baseline (tolerance {tolerance_pct}%):\n{}",
        nbiot_bench::render_table(
            &["stage", "baseline ms", "current ms", "change", "verdict"],
            &table,
        )
    );
    if !unmatched.is_empty() {
        eprintln!(
            "stages without a baseline entry (skipped): {}",
            unmatched.join(", ")
        );
    }
    violations
}

fn main() {
    // Split off the binary-specific flags before the shared figure-flag
    // parser (which rejects unknown flags) sees the args.
    let mut out_path = String::from("BENCH_results.json");
    let mut compare: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let mut warn_only = false;
    let mut massive_devices = 1_000_000usize;
    let mut figure_args = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_report [--runs N] [--devices N] [--seed N] [--threads N] \
                     [--mix NAME]\n\
                     \x20      [--massive-devices N] [--out PATH] [--compare BASELINE.json] \
                     [--tolerance-pct P]\n\
                     \x20      [--warn-only]\n\
                     runs the fixed macro workload through every pipeline stage and writes\n\
                     a BENCH_results.json report (default workload: 5 mechanisms x 500\n\
                     devices x 20 runs). --massive-devices sizes the scale-tier kernel,\n\
                     plan_validate, campaign_massive and window_cover_massive stages\n\
                     (default 1000000).\n\
                     --compare turns the run into a regression gate against a baseline\n\
                     report; --warn-only downgrades it to a report.\n\
                     build with --features bench-alloc to add per-stage memory accounting."
                );
                return;
            }
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| fail_usage("--out needs a path"));
            }
            "--massive-devices" => {
                massive_devices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail_usage("--massive-devices needs a positive integer"));
            }
            "--compare" => {
                compare = Some(
                    args.next()
                        .unwrap_or_else(|| fail_usage("--compare needs a baseline path")),
                );
            }
            // A `nan` tolerance would flag no stage (`change > NaN` is
            // false), `inf` none either.
            "--tolerance-pct" => {
                tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| {
                        fail_usage("--tolerance-pct needs a finite, non-negative number (percent)")
                    });
            }
            "--warn-only" => warn_only = true,
            _ => figure_args.push(arg),
        }
    }
    let mut opts = FigureOpts::parse(figure_args.into_iter());
    // This binary's workload default is the macro shape (5 mechanisms ×
    // 500 devices × 20 runs), not the figures' 100 runs; marked as given
    // so every scenario below runs it.
    if !opts.given.runs {
        opts.runs = 20;
        opts.given.runs = true;
    }
    let seq = SeedSequence::new(opts.seed);
    let params = GroupingParams::default();
    let sim = SimConfig::default();
    let mix = opts
        .mix
        .as_deref()
        .map(nbiot_bench::resolve_mix)
        .unwrap_or_else(nbiot_traffic::TrafficMix::ericsson_city);
    let mut stages: Vec<Value> = Vec::new();
    // Open the first stage's memory window after setup, not at startup.
    nbiot_bench::alloc_meter::reset_peak();

    // ---- Stage 1: population generation ----
    let (populations, pop_ms) = timed(|| {
        (0..opts.runs as u64)
            .map(|run| {
                mix.generate(opts.devices, &mut seq.child(run).rng(0))
                    .expect("population")
            })
            .collect::<Vec<_>>()
    });
    stages.push(stage(
        "population_generation",
        pop_ms,
        json!({ "populations": opts.runs, "devices_each": opts.devices }),
    ));

    // ---- Stage 1b: population plus grouping input, generated once per
    // run — what a scenario item shares across its mechanisms and
    // payload variants.
    let ((), shared_ms) = timed(|| {
        for run in 0..opts.runs as u64 {
            let pop = mix
                .generate(opts.devices, &mut seq.child(run).rng(0))
                .expect("population");
            let input = GroupingInput::from_population(&pop, params).expect("input");
            std::hint::black_box(&input);
        }
    });
    stages.push(stage(
        "population_shared_per_run",
        shared_ms,
        json!({ "generations": opts.runs, "devices_each": opts.devices }),
    ));

    let fresh_input = || GroupingInput::from_population(&populations[0], params).expect("input");
    let input = fresh_input();

    // ---- Stage 2: planners, each on a fresh input (cold memos) ----
    let mut plan_ms = Vec::with_capacity(MechanismKind::ALL.len());
    for kind in MechanismKind::ALL {
        let mechanism = kind.instantiate();
        let (_, ms) = timed_min_with(3, fresh_input, |input| {
            let mut rng = seq.child(1_000).rng(2);
            mechanism.as_ref().plan(input, &mut rng).expect("plan")
        });
        plan_ms.push((kind, ms));
        stages.push(stage(
            "plan",
            ms,
            json!({ "mechanism": kind.to_string(), "devices": opts.devices }),
        ));
    }

    // ---- Stage 2a: the DR-SC family on one shared input, the way a
    // scenario item plans it: DR-SC fills the input's count-cover memo,
    // DR-SC-tabu adds the anchor instance, DR-SC-weighted reads both.
    // Compared with the three cold `plan` stages above, the derived
    // `dr_sc_family_sharing_ratio` is what the sharing saves.
    let family = [
        MechanismKind::DrSc,
        MechanismKind::DrScTabu(DEFAULT_TABU_BUDGET),
        MechanismKind::DrScWeighted,
    ];
    let (family_tx, family_ms) = timed_min_with(3, fresh_input, |input| {
        family
            .iter()
            .map(|kind| {
                let mut rng = seq.child(1_000).rng(2);
                let plan = kind.instantiate().plan(input, &mut rng).expect("plan");
                (kind.to_string(), json!(plan.transmission_count()))
            })
            .collect::<Vec<_>>()
    });
    let family_cold_ms: f64 = plan_ms
        .iter()
        .filter(|(kind, _)| family.contains(kind))
        .map(|&(_, ms)| ms)
        .sum();
    let dr_sc_family_sharing_ratio = family_ms / family_cold_ms;
    stages.push(stage(
        "plan_dr_sc_family",
        family_ms,
        json!({ "devices": opts.devices, "transmissions": Value::Object(family_tx) }),
    ));

    // ---- Stage 2b: the deduplicated anchor-window instance DR-SC-tabu
    // and DR-SC-weighted solve, built from the input's PO timeline with
    // its device → window transpose, with its size before and after
    // deduplication and the transpose's size (deterministic counters
    // beside the wall clock).
    let timeline = input.po_timeline();
    let (instance, instance_ms) = timed_min(3, || {
        set_cover::AnchorInstance::new(params.ti.duration(), timeline)
    });
    // The device → window transpose holds every (window, device) pair
    // once, like the window rows.
    let index_entries: usize = (0..instance.sparse_devices().len())
        .map(|s| instance.windows_of(s).len())
        .sum();
    assert_eq!(
        index_entries,
        instance.entries(),
        "the device → window index must transpose the windows"
    );
    stages.push(stage(
        "anchor_instance",
        instance_ms,
        json!({
            "devices": opts.devices,
            "anchors": instance.anchors().len(),
            "windows": instance.window_count(),
            "entries_before_dedup": instance.anchor_entries(),
            "entries_after_dedup": instance.entries(),
            "index_entries": index_entries,
        }),
    ));

    // ---- Stage 3: set-cover kernels — incremental vs reference on the
    // 1000-device frame-cover instance, then on a 10k-device
    // large-n-stress point (the regime the inverted-index update model
    // targets).
    let (universe, sets) = workload::frame_cover_instance(1_000, opts.seed);
    let (picked_inc, incremental_ms) = timed_min(5, || {
        set_cover::greedy_set_cover(universe, &sets).expect("coverable")
    });
    let (picked_ref, reference_ms) = timed_min(5, || {
        reference::greedy_set_cover(universe, &sets).expect("coverable")
    });
    assert_eq!(picked_inc, picked_ref, "solvers must agree pick-for-pick");
    let set_cover_speedup = reference_ms / incremental_ms;
    stages.push(stage(
        "set_cover_incremental",
        incremental_ms,
        json!({ "devices": universe, "sets": sets.len(), "picks": picked_inc.len() }),
    ));
    stages.push(stage(
        "set_cover_reference",
        reference_ms,
        json!({ "devices": universe, "sets": sets.len(), "picks": picked_ref.len() }),
    ));

    // The stress point uses the post-dense-filtering shape (dense share
    // 0): at scale the DR-SC pipeline hands the cover kernel only the
    // long-cycle tail — see `workload::frame_cover_instance_with`.
    let (universe10k, sets10k) = workload::frame_cover_instance_with(10_000, 0.0, opts.seed);
    let (stress_inc, stress_incremental_ms) = timed_min(3, || {
        set_cover::greedy_set_cover(universe10k, &sets10k).expect("coverable")
    });
    let (stress_ref, stress_reference_ms) = timed_min(3, || {
        reference::greedy_set_cover(universe10k, &sets10k).expect("coverable")
    });
    assert_eq!(stress_inc, stress_ref, "solvers must agree pick-for-pick");
    let set_cover_stress_speedup = stress_reference_ms / stress_incremental_ms;
    stages.push(stage(
        "set_cover_stress_incremental",
        stress_incremental_ms,
        json!({ "devices": universe10k, "sets": sets10k.len(), "picks": stress_inc.len() }),
    ));
    stages.push(stage(
        "set_cover_stress_reference",
        stress_reference_ms,
        json!({ "devices": universe10k, "sets": sets10k.len(), "picks": stress_ref.len() }),
    ));

    // ---- Stage 3a1: the airtime-weighted cover kernel — cost-aware
    // Chvátal greedy on the umbrella-vs-pieces instance whose costs are
    // the CE0/CE1/CE2 block airtimes (see `workload::weighted_cover_instance`).
    // The derived `weighted_airtime_gain` (count-greedy plan airtime /
    // weighted plan airtime, measured at the 10k-device stress point) is
    // an acceptance invariant: the weighted kernel must never pay more
    // airtime than the count-greedy on the instance built to separate
    // them, so the report hard-fails if the gain ever drops below 1.
    let plan_airtime =
        |picks: &[usize], costs: &[u32]| picks.iter().map(|&s| u64::from(costs[s])).sum::<u64>();
    let (wn, wsets, wcosts) = workload::weighted_cover_instance(1_000, opts.seed);
    let (weighted_picks, weighted_ms) = timed_min(5, || {
        set_cover::greedy_set_cover_weighted(wn, &wsets, &wcosts).expect("coverable")
    });
    assert_eq!(
        Some(weighted_picks.clone()),
        reference::greedy_set_cover_weighted(wn, &wsets, &wcosts),
        "weighted kernel must agree with the oracle pick-for-pick"
    );
    let count_picks = set_cover::greedy_set_cover(wn, &wsets).expect("coverable");
    stages.push(stage(
        "set_cover_weighted",
        weighted_ms,
        json!({
            "devices": wn,
            "sets": wsets.len(),
            "picks": weighted_picks.len(),
            "plan_airtime": plan_airtime(&weighted_picks, &wcosts),
            "count_greedy_airtime": plan_airtime(&count_picks, &wcosts),
        }),
    ));

    let (wn10k, wsets10k, wcosts10k) = workload::weighted_cover_instance(10_000, opts.seed);
    let (stress_weighted, weighted_stress_ms) = timed_min(3, || {
        set_cover::greedy_set_cover_weighted(wn10k, &wsets10k, &wcosts10k).expect("coverable")
    });
    let stress_count = set_cover::greedy_set_cover(wn10k, &wsets10k).expect("coverable");
    let stress_weighted_airtime = plan_airtime(&stress_weighted, &wcosts10k);
    let stress_count_airtime = plan_airtime(&stress_count, &wcosts10k);
    let weighted_airtime_gain = stress_count_airtime as f64 / stress_weighted_airtime as f64;
    assert!(
        weighted_airtime_gain >= 1.0,
        "the weighted kernel must never pay more airtime than count-greedy \
         on the stress instance ({stress_weighted_airtime} vs {stress_count_airtime} subframes)"
    );
    stages.push(stage(
        "set_cover_weighted_stress",
        weighted_stress_ms,
        json!({
            "devices": wn10k,
            "sets": wsets10k.len(),
            "picks": stress_weighted.len(),
            "plan_airtime": stress_weighted_airtime,
            "count_greedy_airtime": stress_count_airtime,
        }),
    ));

    // ---- Stage 3a2: the anytime tabu pass over the greedy stress cover
    // — the plan-improvement kernel spending a deterministic iteration
    // budget on the 10k-device instance. Strict improvement here is an
    // acceptance invariant: the committed baseline must show the anytime
    // pass beating plain greedy, so the assert fails the whole report if
    // the kernel ever stops finding the known slack in this instance.
    let tabu_budget = 256u32;
    let ((tabu_picks, tabu_stats), tabu_improve_ms) = timed_min(3, || {
        improve::improve_cover(universe10k, &sets10k, &stress_inc, tabu_budget, opts.seed)
    });
    assert!(
        tabu_stats.final_cost < tabu_stats.initial_cost,
        "tabu pass must strictly improve the greedy stress cover ({} -> {})",
        tabu_stats.initial_cost,
        tabu_stats.final_cost
    );
    assert_eq!(tabu_picks.len() as u32, tabu_stats.final_cost);
    let tabu_cover_gain = f64::from(tabu_stats.initial_cost) / f64::from(tabu_stats.final_cost);
    stages.push(stage(
        "tabu_improve_stress",
        tabu_improve_ms,
        json!({
            "devices": universe10k,
            "budget": tabu_budget,
            "initial_cost": tabu_stats.initial_cost,
            "final_cost": tabu_stats.final_cost,
            "moves_accepted": tabu_stats.moves_accepted,
            "budget_spent": tabu_stats.budget_spent,
        }),
    ));

    // ---- Stage 3b2: LNS plan repair vs full re-planning — the
    // `RegroupPolicy::Repair` economics end to end. One DR-SC plan is
    // built for the initial fleet, the churn model evolves that fleet
    // for several epochs, and the two re-planning strategies race over
    // the identical epoch inputs: a fresh DR-SC solve per epoch vs
    // `repair_plan` chained from the epoch-0 plan. The repaired chain
    // must still validate against the final fleet — the speedup only
    // counts because both sides end with a feasible plan.
    let repair_devices = 2_000usize;
    let repair_epochs = 6u32;
    let repair_model = nbiot_traffic::ChurnModel {
        epochs: repair_epochs,
        departure_rate: 0.05,
        arrival_rate: 0.05,
        handover_rate: 0.08,
    };
    let repair_mix = nbiot_traffic::TrafficMix::mobility_churn();
    let repair_seq = seq.child(4_000);
    let repair_pop0 = repair_mix
        .generate(repair_devices, &mut repair_seq.rng(0))
        .expect("population");
    let mut repair_fleets = Vec::with_capacity(repair_epochs as usize);
    {
        let mut prev = repair_pop0.clone();
        let mut next_id = repair_devices as u32;
        for epoch in 0..repair_epochs {
            let (pop, _) = repair_model
                .step(
                    &repair_mix,
                    &prev,
                    repair_devices,
                    &mut next_id,
                    &mut repair_seq.rng(1 + epoch as u64),
                )
                .expect("churn step");
            repair_fleets.push(pop.clone());
            prev = pop;
        }
    }
    let repair_input0 = GroupingInput::from_population(&repair_pop0, params).expect("input");
    let dr_sc = MechanismKind::DrSc.instantiate();
    let repair_plan0 = dr_sc
        .plan(&repair_input0, &mut repair_seq.rng(100))
        .expect("plan");
    let fresh_epoch_inputs = || {
        repair_fleets
            .iter()
            .map(|pop| GroupingInput::from_population(pop, params).expect("input"))
            .collect::<Vec<_>>()
    };
    let epoch_inputs = fresh_epoch_inputs();
    let (full_plans, replan_full_ms) = timed_min_with(3, fresh_epoch_inputs, |inputs| {
        inputs
            .iter()
            .enumerate()
            .map(|(epoch, input)| {
                dr_sc
                    .plan(input, &mut repair_seq.rng(200 + epoch as u64))
                    .expect("plan")
            })
            .collect::<Vec<_>>()
    });
    let (repaired_final, replan_repair_ms) = timed_min(3, || {
        let mut current = repair_plan0.clone();
        for input in &epoch_inputs {
            current = repair_plan(&current, input)
                .expect("DR-SC plans are repairable")
                .expect("repair");
        }
        current
    });
    repaired_final
        .validate(epoch_inputs.last().expect("epochs"))
        .expect("repaired chain must validate against the final fleet");
    let repair_vs_full_replan_speedup = replan_full_ms / replan_repair_ms;
    let full_tx_total: usize = full_plans
        .iter()
        .map(MulticastPlan::transmission_count)
        .sum();
    stages.push(stage(
        "replan_churn_full",
        replan_full_ms,
        json!({
            "devices": repair_devices,
            "epochs": repair_epochs,
            "transmissions_total": full_tx_total,
        }),
    ));
    stages.push(stage(
        "replan_churn_repair",
        replan_repair_ms,
        json!({
            "devices": repair_devices,
            "epochs": repair_epochs,
            "transmissions_final": repaired_final.transmission_count(),
        }),
    ));

    // ---- Stage 3b3: sustained-load service replay — the `groupingd`
    // engine end to end. One churned event log (fleet events + a
    // campaign request per epoch) is replayed through `GroupingService`
    // twice: under the `repair` policy (LNS patches of the cached plan)
    // and under `every-epoch` full re-planning. The
    // ratio is the online price of `RegroupPolicy::Repair` including
    // all engine bookkeeping, not just the kernel race of Stage 3b2.
    let service_devices = 1_000usize;
    let service_model = nbiot_traffic::ChurnModel {
        epochs: 8,
        departure_rate: 0.05,
        arrival_rate: 0.05,
        handover_rate: 0.10,
    };
    let service_log = EventLog::synthesize(
        &nbiot_traffic::TrafficMix::mobility_churn(),
        service_devices,
        &service_model,
        "dr-sc",
        opts.seed,
    )
    .expect("event log");
    let service_cfg = |policy| ServiceConfig {
        policy,
        seed: opts.seed,
        threads: 1,
        ..ServiceConfig::default()
    };
    let (repair_serves, service_repair_ms) = timed_min(3, || {
        let mut svc = GroupingService::new(service_cfg(RegroupPolicy::Repair), &service_log)
            .expect("service");
        svc.replay(&service_log).expect("replay")
    });
    let (full_serves, service_full_ms) = timed_min(3, || {
        let mut svc = GroupingService::new(service_cfg(RegroupPolicy::EveryEpoch), &service_log)
            .expect("service");
        svc.replay(&service_log).expect("replay")
    });
    assert_eq!(
        repair_serves.len(),
        full_serves.len(),
        "both policies must serve every campaign request"
    );
    let repair_share = repair_serves
        .iter()
        .filter(|s| s.action == ServeAction::Repair)
        .count() as f64
        / repair_serves.len().max(1) as f64;
    let max_stale_fraction = repair_serves
        .iter()
        .map(|s| s.stale_fraction)
        .fold(0.0f64, f64::max);
    let service_replay_repair_speedup = service_full_ms / service_repair_ms;
    stages.push(stage(
        "service_replay_repair",
        service_repair_ms,
        json!({
            "devices": service_devices,
            "records": service_log.records.len(),
            "serves": repair_serves.len(),
            "repair_share": repair_share,
            "max_stale_fraction": max_stale_fraction,
            "serves_per_sec": per_sec(repair_serves.len(), service_repair_ms),
        }),
    ));
    stages.push(stage(
        "service_replay_full",
        service_full_ms,
        json!({
            "devices": service_devices,
            "records": service_log.records.len(),
            "serves": full_serves.len(),
            "serves_per_sec": per_sec(full_serves.len(), service_full_ms),
        }),
    ));

    // ---- Stage 3c: the massive-n scale tier — the 10^5-10^6-device
    // frame-cover point (post-dense-filter shape, so entries scale with
    // the event count). Single measurement per stage: at this scale a run
    // is milliseconds-to-seconds and cache noise is irrelevant. The
    // kernel stage times one solve after a warmup solve; like every
    // explicit-set stage it includes the kernel's own scratch
    // allocation, the index build and the greedy rounds.
    let ((massive_universe, massive_sets), massive_instance_ms) =
        timed(|| workload::frame_cover_instance_with(massive_devices, 0.0, opts.seed));
    stages.push(stage(
        "massive_instance_generation",
        massive_instance_ms,
        json!({ "devices": massive_universe, "sets": massive_sets.len() }),
    ));
    let unit = vec![1; massive_sets.len()];
    let (massive_inc, massive_incremental_ms) = timed_min(1, || {
        set_cover::greedy_set_cover_weighted(massive_universe, &massive_sets, &unit)
            .expect("coverable")
    });
    stages.push(stage(
        "set_cover_massive_incremental",
        massive_incremental_ms,
        json!({
            "devices": massive_universe,
            "sets": massive_sets.len(),
            "entries": massive_sets.iter().map(Vec::len).sum::<usize>(),
            "picks": massive_inc.len(),
        }),
    ));
    // The scale tier holds the largest allocations of the whole report
    // (~hundreds of MB at 10^6 devices); release them before the
    // campaign stages.
    drop(massive_sets);

    // ---- Stage 3d: plan validation and campaigns at massive n. DA-SC
    // and DR-SI serve the whole massive-metering fleet with one
    // transmission, so their plans hold the longest recipient list a plan
    // can have. `campaign_massive` runs `run_campaign` (validate plus the
    // campaign engine, plus one plan clone) on each prebuilt plan, so it
    // times the engine without planning. One plan is alive at a time.
    let massive_pop = nbiot_traffic::TrafficMix::massive_metering()
        .generate(massive_devices, &mut seq.child(2_000).rng(0))
        .expect("population");
    let fresh_massive_input =
        || GroupingInput::from_population(&massive_pop, params).expect("input");
    let massive_input = fresh_massive_input();
    for kind in [
        MechanismKind::DrSc,
        MechanismKind::DaSc,
        MechanismKind::DrSi,
    ] {
        let plan = kind
            .instantiate()
            .plan(&massive_input, &mut seq.child(2_000).rng(1))
            .expect("plan");
        if kind != MechanismKind::DrSc {
            let (valid, ms) = timed_min(3, || plan.validate(&massive_input));
            valid.expect("massive plans are valid");
            stages.push(stage(
                "plan_validate",
                ms,
                json!({
                    "mechanism": kind.to_string(),
                    "devices": massive_input.len(),
                    "transmissions": plan.transmissions.len(),
                    "recipients": plan
                        .transmissions
                        .iter()
                        .map(|tx| tx.recipients.len())
                        .sum::<usize>(),
                }),
            ));
        }
        let (result, ms) = timed_min(3, || {
            let mut rng = seq.child(2_000).rng(3);
            run_campaign(&Replay(&plan), &massive_input, &sim, &mut rng).expect("campaign")
        });
        stages.push(stage(
            "campaign_massive",
            ms,
            json!({
                "mechanism": kind.to_string(),
                "devices": massive_input.len(),
                "transmissions": plan.transmissions.len(),
                "ra_draws": result.ledgers.iter().map(|l| l.random_accesses).sum::<u64>(),
            }),
        ));
    }
    drop(massive_input);
    // The same fleet's DR-SC window cover as the planner pays for it: the
    // input's PO timeline over schedule classes, then the solve, on a
    // fresh input per repetition. eDRX paging time windows put its sparse
    // POs on few distinct instants, unlike the uniform phases of the
    // `window_cover_*` stages below. The closure also reads the
    // timeline's counters, O(class events).
    let (detail, ms) = timed_min_with(3, fresh_massive_input, |input| {
        let timeline = input.po_timeline();
        let slots = WindowCover::new(params.ti.duration())
            .solve(input.search_horizon().start(), timeline)
            .expect("coverable");
        let events = timeline.events();
        json!({
            "devices": input.len(),
            "events": timeline.device_events(),
            "instants": events.chunk_by(|a, b| a.0 == b.0).count(),
            "classes": timeline.classes(),
            "class_events": events.len(),
            "slots": slots.len(),
        })
    });
    stages.push(stage("window_cover_massive", ms, detail));
    drop(massive_pop);

    // Each engine stage builds its timeline from the jagged lists inside
    // the timed region, so all three stages do the reference's work:
    // flatten, sort, cover.
    let (events, dense) = workload::window_cover_instance(1_000, 2_600, opts.seed);
    let ti = SimDuration::from_secs(10);
    let start = nbiot_time::SimInstant::ZERO;
    let (slots_fast, window_incremental_ms) = timed_min(5, || {
        let timeline = set_cover::PoTimeline::from_events(&events, &dense);
        WindowCover::new(ti)
            .solve_incremental(start, &timeline)
            .expect("coverable")
    });
    let (slots_sweep, window_sweep_ms) = timed_min(5, || {
        let timeline = set_cover::PoTimeline::from_events(&events, &dense);
        WindowCover::new(ti)
            .solve_sweep(start, &timeline)
            .expect("coverable")
    });
    let (slots_ref, window_ref_ms) = timed_min(5, || {
        reference::window_cover_solve(ti, start, &events, &dense).expect("coverable")
    });
    assert_eq!(slots_fast, slots_ref, "timeline solvers must agree");
    assert_eq!(slots_sweep, slots_ref, "timeline solvers must agree");
    let window_cover_speedup = window_ref_ms / window_incremental_ms;
    let window_cover_incremental_speedup = window_sweep_ms / window_incremental_ms;
    stages.push(stage(
        "window_cover_incremental",
        window_incremental_ms,
        json!({ "devices": events.len(), "slots": slots_fast.len() }),
    ));
    stages.push(stage(
        "window_cover_sweep",
        window_sweep_ms,
        json!({ "devices": events.len(), "slots": slots_sweep.len() }),
    ));
    stages.push(stage(
        "window_cover_reference",
        window_ref_ms,
        json!({ "devices": events.len(), "slots": slots_ref.len() }),
    ));

    // ---- Stage 4: single campaign execution per mechanism, planning
    // included, each on a fresh input ----
    for kind in MechanismKind::ALL {
        let mechanism = kind.instantiate();
        let (_, ms) = timed_min_with(3, fresh_input, |input| {
            let mut rng = seq.child(2_000).rng(3);
            run_campaign(mechanism.as_ref(), input, &sim, &mut rng).expect("campaign")
        });
        stages.push(stage(
            "campaign",
            ms,
            json!({ "mechanism": kind.to_string(), "devices": opts.devices }),
        ));
    }

    // ---- Stage 5: the full comparison (one point, every mechanism),
    // serial then parallel ----
    let mut comparison = Scenario {
        mechanisms: MechanismKind::ALL.to_vec(),
        ..Scenario::default()
    };
    opts.apply_to_scenario(&mut comparison);
    comparison.threads = 1;
    let (serial_result, serial_ms) = timed(|| run_scenario(&comparison).expect("comparison"));
    stages.push(stage(
        "comparison_serial",
        serial_ms,
        json!({
            "mechanisms": MechanismKind::ALL.len(),
            "devices": opts.devices,
            "runs": opts.runs,
        }),
    ));
    comparison.threads = opts.threads;
    let (parallel_result, parallel_ms) = timed(|| run_scenario(&comparison).expect("comparison"));
    assert_eq!(
        serial_result, parallel_result,
        "parallel comparison must be bit-identical to serial"
    );
    stages.push(stage(
        "comparison_parallel",
        parallel_ms,
        json!({
            "mechanisms": MechanismKind::ALL.len(),
            "devices": opts.devices,
            "runs": opts.runs,
            "threads": opts.threads,
        }),
    ));

    // ---- Stage 6: the full device sweep (Fig. 7 workload) through the
    // (point × run) scheduler, serial and as one parallel item pool. The
    // sweep keeps fig7's group sizes whatever `--devices` says.
    let mut sweep = Scenario::builtin("fig7").expect("registered scenario");
    let sizes = std::mem::take(&mut sweep.devices);
    opts.apply_to_scenario(&mut sweep);
    sweep.devices = sizes;
    sweep.threads = 1;
    let (sweep_serial_result, sweep_serial_ms) = timed(|| run_scenario(&sweep).expect("sweep"));
    stages.push(stage(
        "sweep_serial",
        sweep_serial_ms,
        json!({ "points": sweep.devices.len(), "runs": opts.runs, "threads": 1u64 }),
    ));
    sweep.threads = opts.threads;
    let (sweep_parallel_result, sweep_parallel_ms) = timed(|| run_scenario(&sweep).expect("sweep"));
    stages.push(stage(
        "sweep_point_parallel",
        sweep_parallel_ms,
        json!({ "points": sweep.devices.len(), "runs": opts.runs, "threads": opts.threads }),
    ));
    assert_eq!(
        sweep_serial_result, sweep_parallel_result,
        "point-parallel sweep must be bit-identical to serial"
    );

    // ---- Stage 7: the Fig. 6 suite — three payload columns in one
    // serial scenario grid sharing each run's population and plans.
    let mut suite = Scenario::builtin("paper-suite").expect("registered scenario");
    opts.apply_to_scenario(&mut suite);
    suite.threads = 1;
    let (suite_result, suite_shared_ms) = timed(|| run_scenario(&suite).expect("suite"));
    stages.push(stage(
        "figure_suite_shared",
        suite_shared_ms,
        json!({ "payloads": suite.payloads.len(), "devices": opts.devices, "runs": opts.runs }),
    ));

    // ---- Stage 8: coordinator overhead — the same suite grid executed
    // through the fault-tolerant shard coordinator (2 supervised
    // in-process shards, checkpointing to a scratch run dir) vs the
    // direct `run_scenario` call of Stage 7. The merged archive must fold
    // to the exact Stage-7 result; the derived ratio tracks what the
    // supervision machinery (spawn, checkpoint write + re-validate,
    // merge) costs on a fault-free run.
    let coord_dir = std::env::temp_dir().join(format!("bench_report_coord_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&coord_dir);
    let coord_shards = 2u32;
    let (coord_outcome, coordinator_ms) = timed(|| {
        let mut config = RunConfig::new(suite.clone(), coord_shards, &coord_dir);
        config.backoff_base_ms = 0;
        coordinator::run(&config).unwrap_or_else(|e| fail(format!("supervised suite run: {e}")))
    });
    let merged = coord_outcome
        .merged
        .unwrap_or_else(|| fail("supervised suite run produced no merged archive"));
    assert_eq!(
        merged.result().expect("complete archive"),
        suite_result,
        "supervised sharded run must fold to the direct run's exact result"
    );
    let _ = std::fs::remove_dir_all(&coord_dir);
    let coordinator_overhead = coordinator_ms / suite_shared_ms;
    stages.push(stage(
        "coordinator_supervised_suite",
        coordinator_ms,
        json!({
            "shards": coord_shards,
            "payloads": suite.payloads.len(),
            "devices": opts.devices,
            "runs": opts.runs,
        }),
    ));

    let report = json!({
        "schema_version": 1u64,
        "workload": json!({
            "devices": opts.devices,
            "runs": opts.runs,
            "mechanisms": MechanismKind::ALL.len(),
            "seed": opts.seed,
            "parallel_threads": opts.threads,
            "massive_devices": massive_devices,
        }),
        // Runner facts a reader needs to interpret the parallel-speedup
        // numbers: a detected_parallelism of 1 explains a ≤ 1 parallel
        // "speedup" without consulting the runner itself.
        "notes": json!({
            "detected_parallelism": std::thread::available_parallelism()
                .map_or(0u64, |n| n.get() as u64),
        }),
        "stages": Value::Array(stages),
        "derived": json!({
            "set_cover_speedup": set_cover_speedup,
            "set_cover_stress_speedup": set_cover_stress_speedup,
            "dr_sc_family_sharing_ratio": dr_sc_family_sharing_ratio,
            "weighted_airtime_gain": weighted_airtime_gain,
            "tabu_cover_gain": tabu_cover_gain,
            "repair_vs_full_replan_speedup": repair_vs_full_replan_speedup,
            "service_replay_repair_speedup": service_replay_repair_speedup,
            "window_cover_speedup": window_cover_speedup,
            "window_cover_incremental_speedup": window_cover_incremental_speedup,
            "comparison_parallel_speedup": serial_ms / parallel_ms,
            "sweep_parallel_speedup": sweep_serial_ms / sweep_parallel_ms,
            "coordinator_overhead": coordinator_overhead,
        }),
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, &text)
        .unwrap_or_else(|e| fail(format!("cannot write benchmark report `{out_path}`: {e}")));
    println!("{text}");
    eprintln!(
        "\nbench_report: set-cover speedup over the reference {set_cover_speedup:.2}x \
         ({set_cover_stress_speedup:.2}x at 10k devices), \
         tabu cover gain {tabu_cover_gain:.3}x at budget {tabu_budget}, \
         churn repair {repair_vs_full_replan_speedup:.2}x over full re-planning \
         (service replay {service_replay_repair_speedup:.2}x), \
         window-cover speedup {window_cover_speedup:.2}x \
         (incremental {window_cover_incremental_speedup:.2}x over sweep), \
         parallel comparison speedup {:.2}x, \
         sweep point-parallel speedup {:.2}x, \
         coordinator overhead {coordinator_overhead:.2}x -> {out_path}",
        serial_ms / parallel_ms,
        sweep_serial_ms / sweep_parallel_ms,
    );

    if let Some(baseline_path) = compare {
        let baseline: Value = serde_json::from_str(
            &std::fs::read_to_string(&baseline_path)
                .unwrap_or_else(|e| fail(format!("cannot read baseline `{baseline_path}`: {e}"))),
        )
        .unwrap_or_else(|e| fail(format!("bad baseline JSON in `{baseline_path}`: {e}")));
        let violations = run_gate(&report, &baseline, tolerance_pct);
        if !violations.is_empty() {
            eprintln!(
                "bench gate: {} stage(s) regressed beyond {tolerance_pct}%: {}",
                violations.len(),
                violations.join(", ")
            );
            if warn_only {
                eprintln!("bench gate: --warn-only set, not failing the build");
            } else {
                std::process::exit(1);
            }
        } else {
            eprintln!("bench gate: no stage regressed beyond {tolerance_pct}%");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(stages: &[(&str, Option<&str>, f64)]) -> Value {
        let stages: Vec<Value> = stages
            .iter()
            .map(|&(name, mechanism, ms)| {
                let detail = match mechanism {
                    Some(m) => json!({ "mechanism": m }),
                    None => json!({}),
                };
                stage(name, ms, detail)
            })
            .collect();
        json!({ "schema_version": 1u64, "stages": Value::Array(stages) })
    }

    #[test]
    fn stage_keys_qualify_repeated_stages_by_mechanism() {
        let r = report(&[
            ("plan", Some("DR-SC"), 1.0),
            ("plan", Some("DA-SC"), 2.0),
            ("comparison_serial", None, 3.0),
        ]);
        let times = stage_times(&r);
        assert_eq!(
            times,
            vec![
                ("plan[DR-SC]".to_string(), 1.0),
                ("plan[DA-SC]".to_string(), 2.0),
                ("comparison_serial".to_string(), 3.0),
            ]
        );
    }

    #[test]
    fn gate_flags_only_regressions_beyond_tolerance() {
        let baseline = report(&[("a", None, 100.0), ("b", None, 100.0), ("c", None, 100.0)]);
        let current = report(&[
            ("a", None, 109.0),  // +9% — within a 10% gate
            ("b", None, 150.0),  // +50% — regression
            ("c", None, 50.0),   // improvement
            ("new", None, 10.0), // no baseline: skipped, never a failure
        ]);
        let (rows, unmatched) = compare_stages(&current, &baseline);
        assert_eq!(rows.len(), 3);
        assert_eq!(unmatched, vec!["new".to_string()]);
        let violations = run_gate(&current, &baseline, 10.0);
        assert_eq!(violations, vec!["b".to_string()]);
        assert!(run_gate(&current, &baseline, 60.0).is_empty());
    }
}
