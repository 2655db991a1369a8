//! Machine-trackable macro-benchmark: runs a fixed workload through every
//! pipeline stage (population generation, planning, set-cover kernels,
//! paging-occasion queries, campaign execution, full comparison serial vs
//! parallel) and writes `BENCH_results.json` with the wall clock of each
//! stage, so the perf trajectory of the repository is comparable PR over
//! PR.
//!
//! Default workload: all 7 mechanisms (`MechanismKind::ALL`) × 500 devices
//! × 20 runs (override with `--devices`/`--runs`; `--threads` sets the
//! *parallel* comparison's worker count, 0 = all cores), plus a
//! `--massive-devices` (default 10^6) scale tier. Each stage is declared
//! once through [`Report::stage`]: a name, repetitions and the body of one
//! call (untimed setup, one timed closure, detail). The derived wall-clock
//! ratios come from [`TIME_RATIOS`]. README.md ("Performance tracking")
//! describes every stage and the report schema. `--out <path>` redirects
//! the report; the default `BENCH_results.json` is gitignored scratch, and
//! the committed full-workload snapshot is `BENCH_baseline.json`
//! (regenerate it with `--out BENCH_baseline.json` when a change moves
//! performance).
//!
//! `--compare <baseline.json>` turns the run into a **regression gate**:
//! every stage's wall clock is compared against the same-keyed stage of
//! the baseline report, and the process exits nonzero when any stage is
//! slower by more than `--tolerance-pct <p>` percent (default 25).
//! `--warn-only` downgrades the gate to a report — the right setting on
//! noisy shared hardware like the 1-core CI container, where wall-clock
//! ratios are not trustworthy (see ROADMAP). A baseline stage or `derived`
//! key the report lacks is a structural mismatch: it exits 1 even under
//! `--warn-only`, so a retired stage drops its baseline entry. The
//! baseline is read and the report file created before the first stage.
//!
//! ```text
//! cargo run --release -p nbiot-bench --bin bench_report
//! cargo run --release -p nbiot-bench --bin bench_report -- --runs 2 --devices 40 --out /tmp/bench.json
//! cargo run --release -p nbiot-bench --bin bench_report -- \
//!     --compare BENCH_baseline.json --tolerance-pct 25 --warn-only
//! ```

use std::io::Write as _;
use std::time::Instant;

use nbiot_bench::coordinator::{self, RunConfig};
use nbiot_bench::{fail, fail_usage, outln, workload, FigureOpts};
use nbiot_des::SeedSequence;
use nbiot_grouping::set_cover::{self, reference, WindowCover};
use nbiot_grouping::{
    improve, repair_plan, GroupingError, GroupingInput, GroupingMechanism, GroupingParams,
    MechanismKind, MulticastPlan, DEFAULT_TABU_BUDGET,
};
use nbiot_service::{EventLog, GroupingService, ServeAction, ServiceConfig};
use nbiot_sim::{run_campaign, run_scenario, RegroupPolicy, Scenario, SimConfig};
use nbiot_time::{SimDuration, SimInstant, TimeWindow};
use serde_json::{json, Value};

/// The DR-SC family a scenario item plans on one shared input.
const FAMILY: [MechanismKind; 3] = [
    MechanismKind::DrSc,
    MechanismKind::DrScTabu(DEFAULT_TABU_BUDGET),
    MechanismKind::DrScWeighted,
];

/// The wall-clock ratios of `derived`: (key, numerator stage keys,
/// denominator stage keys), each side the summed wall clock of its stages.
/// The stderr summary line prints the same ratios.
#[rustfmt::skip]
const TIME_RATIOS: [(&str, &[&str], &[&str]); 10] = [
    ("set_cover_speedup", &["set_cover_reference"], &["set_cover_incremental"]),
    ("set_cover_stress_speedup", &["set_cover_stress_reference"],
        &["set_cover_stress_incremental"]),
    // What sharing one input saves over the three cold family plans.
    ("dr_sc_family_sharing_ratio", &["plan_dr_sc_family"],
        &["plan[DR-SC]", "plan[DR-SC-tabu(64)]", "plan[DR-SC-weighted]"]),
    ("repair_vs_full_replan_speedup", &["replan_churn_full"], &["replan_churn_repair"]),
    ("service_replay_repair_speedup", &["service_replay_full"], &["service_replay_repair"]),
    ("window_cover_speedup", &["window_cover_reference"], &["window_cover_incremental"]),
    ("window_cover_incremental_speedup", &["window_cover_sweep"], &["window_cover_incremental"]),
    ("comparison_parallel_speedup", &["comparison_serial"], &["comparison_parallel"]),
    ("sweep_parallel_speedup", &["sweep_serial"], &["sweep_point_parallel"]),
    // What the supervision machinery costs on a fault-free run.
    ("coordinator_overhead", &["coordinator_supervised_suite"], &["figure_suite_shared"]),
];

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

/// The stage records of one run, in run order.
#[derive(Default)]
struct Report {
    stages: Vec<Value>,
}

impl Report {
    /// Runs one stage and appends its record; returns the last call's
    /// output.
    ///
    /// `call` is one call of the stage: its untimed setup, then its timed
    /// closure through [`Clock::time`], then its output and detail.
    /// `reps == 0` makes one cold call. `reps = k` makes one warm-up call
    /// and then `k` calls, and records the fastest of those: a single cold
    /// measurement of a kernel is dominated by cache and page-fault noise.
    /// Every call runs its own setup; the planning, campaign and
    /// re-planning stages build a fresh `GroupingInput` there, since an
    /// input memoizes the DR-SC family's cover and anchor instance and a
    /// reused one would time a memo read. The record keeps the detail of
    /// the call it times, so a rate in it matches the wall clock.
    fn stage<T>(
        &mut self,
        name: &str,
        reps: u32,
        mut call: impl FnMut(&mut Clock) -> (T, Value),
    ) -> T {
        let mut best = (f64::INFINITY, Value::Null);
        let mut last = None;
        for i in 0..=reps {
            let mut clock = Clock(None);
            let (out, detail) = call(&mut clock);
            // With repetitions, call 0 only warms up.
            if (i > 0 || reps == 0) && clock.ms() < best.0 {
                best = (clock.ms(), detail);
            }
            last = Some(out);
        }
        self.stages
            .push(json!({ "name": name, "wall_clock_ms": best.0, "detail": best.1 }));
        last.expect("`0..=reps` makes a call")
    }
}

/// The wall clock of one stage call's timed closure.
struct Clock(Option<f64>);

impl Clock {
    /// Runs and times `run`, the call's one timed closure.
    fn time<T>(&mut self, run: impl FnOnce() -> T) -> T {
        assert!(self.0.is_none(), "a stage call times one closure");
        let start = Instant::now();
        let out = std::hint::black_box(run());
        self.0 = Some(start.elapsed().as_secs_f64() * 1000.0);
        out
    }

    /// The timed closure's wall clock in milliseconds.
    fn ms(&self) -> f64 {
        self.0
            .expect("a stage call times its closure with `Clock::time`")
    }
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

/// The stage records of a report (none when it has no `stages` array).
fn stages_of(report: &Value) -> &[Value] {
    lookup(report, "stages")
        .and_then(Value::as_array)
        .unwrap_or(&[])
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

///`(key, wall_clock_ms)` of every well-formed stage record.
fn stage_times(stages: &[Value]) -> Vec<(String, f64)> {
    stages
        .iter()
        .filter_map(|s| Some((stage_key(s)?, as_f64(lookup(s, "wall_clock_ms")?)?)))
        .collect()
}

/// Every [`TIME_RATIOS`] row evaluated on `stages`, in table order.
fn time_ratios(stages: &[Value]) -> Vec<(&'static str, f64)> {
    let times = stage_times(stages);
    let sum = |keys: &[&str]| -> f64 {
        keys.iter()
            .map(|key| match times.iter().find(|(k, _)| k == key) {
                Some(&(_, ms)) => ms,
                None => panic!("TIME_RATIOS names stage `{key}`, which the report lacks"),
            })
            .sum()
    };
    TIME_RATIOS
        .iter()
        .map(|&(key, numerator, denominator)| (key, sum(numerator) / sum(denominator)))
        .collect()
}

// ---- the --compare regression gate ----

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
/// Baseline keys the report lacks are [`missing_keys`]' business.
fn compare_stages(current: &Value, baseline: &Value) -> (Vec<StageDelta>, Vec<String>) {
    let baseline_times = stage_times(stages_of(baseline));
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (key, current_ms) in stage_times(stages_of(current)) {
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

/// Baseline stage keys and `derived` keys (as `derived.<key>`) that the
/// current report lacks: a dropped or renamed stage, which fails the gate
/// even under `--warn-only`.
fn missing_keys(current: &Value, baseline: &Value) -> Vec<String> {
    let keys = |report: &Value| -> Vec<String> {
        let derived = lookup(report, "derived")
            .and_then(Value::as_object)
            .unwrap_or(&[])
            .iter()
            .map(|(key, _)| format!("derived.{key}"));
        stage_times(stages_of(report))
            .into_iter()
            .map(|(key, _)| key)
            .chain(derived)
            .collect()
    };
    let present = keys(current);
    keys(baseline)
        .into_iter()
        .filter(|key| !present.contains(key))
        .collect()
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
                     a BENCH_results.json report (default workload: 7 mechanisms x 500\n\
                     devices x 20 runs). --massive-devices sizes the scale-tier kernel,\n\
                     plan_validate, campaign_massive, window_cover_massive and po_queries\n\
                     stages (default 1000000).\n\
                     --compare turns the run into a regression gate against a baseline\n\
                     report; --warn-only downgrades it to a report. A baseline stage or\n\
                     derived key missing from the report fails the gate even so."
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
    // This binary's workload default is the macro shape (every mechanism
    // × 500 devices × 20 runs), not the figures' 100 runs; marked as given
    // so every scenario below runs it.
    if !opts.given.runs {
        opts.runs = 20;
        opts.given.runs = true;
    }
    // A bad baseline or report path fails here, not after the run.
    let baseline: Option<Value> = compare.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("cannot read baseline `{path}`: {e}")));
        let baseline: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(format!("bad baseline JSON in `{path}`: {e}")));
        if stage_times(stages_of(&baseline)).is_empty() {
            fail(format!("baseline `{path}` holds no bench_report stages"));
        }
        baseline
    });
    let mut out_file = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| fail(format!("cannot write benchmark report `{out_path}`: {e}")));

    let seq = SeedSequence::new(opts.seed);
    let params = GroupingParams::default();
    let sim = SimConfig::default();
    let mix = opts
        .mix
        .as_deref()
        .map(nbiot_bench::resolve_mix)
        .unwrap_or_else(nbiot_traffic::TrafficMix::ericsson_city);
    let mut report = Report::default();

    // ---- Stage 1: population generation ----
    let populations = report.stage("population_generation", 0, |clock| {
        let populations = clock.time(|| {
            (0..opts.runs as u64)
                .map(|run| {
                    mix.generate(opts.devices, &mut seq.child(run).rng(0))
                        .expect("population")
                })
                .collect::<Vec<_>>()
        });
        let detail = json!({ "populations": opts.runs, "devices_each": opts.devices });
        (populations, detail)
    });

    // ---- Stage 1b: population plus grouping input, generated once per
    // run — what a scenario item shares across its mechanisms and
    // payload variants.
    report.stage("population_shared_per_run", 0, |clock| {
        clock.time(|| {
            for run in 0..opts.runs as u64 {
                let pop = mix
                    .generate(opts.devices, &mut seq.child(run).rng(0))
                    .expect("population");
                let input = GroupingInput::from_population(&pop, params).expect("input");
                std::hint::black_box(&input);
            }
        });
        let detail = json!({ "generations": opts.runs, "devices_each": opts.devices });
        ((), detail)
    });

    let fresh_input = || GroupingInput::from_population(&populations[0], params).expect("input");
    let input = fresh_input();

    // ---- Stage 2: planners, each on a fresh input (cold memos) ----
    for kind in MechanismKind::ALL {
        let mechanism = kind.instantiate();
        report.stage("plan", 3, |clock| {
            let input = fresh_input();
            clock.time(|| {
                let mut rng = seq.child(1_000).rng(2);
                mechanism.plan(&input, &mut rng).expect("plan")
            });
            let detail = json!({ "mechanism": kind.to_string(), "devices": opts.devices });
            ((), detail)
        });
    }

    // ---- Stage 2a: the DR-SC family on one shared input, the way a
    // scenario item plans it: DR-SC fills the input's count-cover memo,
    // DR-SC-tabu adds the anchor instance, DR-SC-weighted reads both.
    report.stage("plan_dr_sc_family", 3, |clock| {
        let input = fresh_input();
        let transmissions = clock.time(|| {
            FAMILY
                .iter()
                .map(|kind| {
                    let mut rng = seq.child(1_000).rng(2);
                    let plan = kind.instantiate().plan(&input, &mut rng).expect("plan");
                    (kind.to_string(), json!(plan.transmission_count()))
                })
                .collect::<Vec<_>>()
        });
        let detail =
            json!({ "devices": opts.devices, "transmissions": Value::Object(transmissions) });
        ((), detail)
    });

    // ---- Stage 2b: the deduplicated anchor-window instance DR-SC-tabu
    // and DR-SC-weighted solve, built from the input's PO timeline with
    // its device → window transpose, with its size before and after
    // deduplication and the transpose's size (deterministic counters
    // beside the wall clock).
    let timeline = input.po_timeline();
    report.stage("anchor_instance", 3, |clock| {
        let instance =
            clock.time(|| set_cover::AnchorInstance::new(params.ti.duration(), timeline));
        // The device → window transpose holds every (window, device)
        // pair once, like the window rows.
        let index_entries: usize = (0..instance.sparse_devices().len())
            .map(|s| instance.windows_of(s).len())
            .sum();
        assert_eq!(
            index_entries,
            instance.entries(),
            "the device → window index must transpose the windows"
        );
        let detail = json!({
            "devices": opts.devices,
            "anchors": instance.anchors().len(),
            "windows": instance.window_count(),
            "entries_before_dedup": instance.anchor_entries(),
            "entries_after_dedup": instance.entries(),
            "index_entries": index_entries,
        });
        ((), detail)
    });

    // ---- Stage 3: set-cover kernels — incremental vs reference on the
    // 1000-device frame-cover instance, then on a 10k-device
    // large-n-stress point (the regime the inverted-index update model
    // targets). The stress point uses the post-dense-filtering shape
    // (dense share 0): at scale the DR-SC pipeline hands the cover kernel
    // only the long-cycle tail — see `workload::frame_cover_instance_with`.
    type Solver = fn(usize, &[Vec<usize>]) -> Option<Vec<usize>>;
    let solvers: [(&str, Solver); 2] = [
        ("incremental", set_cover::greedy_set_cover),
        ("reference", reference::greedy_set_cover),
    ];
    let points = [
        ("set_cover", 1_000, 0.3, 5),
        ("set_cover_stress", 10_000, 0.0, 3),
    ];
    let [_, (universe10k, sets10k, stress_inc)] = points.map(|(prefix, devices, dense, reps)| {
        let (universe, sets) = workload::frame_cover_instance_with(devices, dense, opts.seed);
        let [incremental, reference_picks] = solvers.map(|(tier, solve)| {
            report.stage(&format!("{prefix}_{tier}"), reps, |clock| {
                let picks = clock.time(|| solve(universe, &sets).expect("coverable"));
                let detail =
                    json!({ "devices": universe, "sets": sets.len(), "picks": picks.len() });
                (picks, detail)
            })
        });
        assert_eq!(
            incremental, reference_picks,
            "solvers must agree pick-for-pick"
        );
        (universe, sets, incremental)
    });

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
    let count_airtime = plan_airtime(
        &set_cover::greedy_set_cover(wn, &wsets).expect("coverable"),
        &wcosts,
    );
    let weighted_picks = report.stage("set_cover_weighted", 5, |clock| {
        let picks = clock
            .time(|| set_cover::greedy_set_cover_weighted(wn, &wsets, &wcosts).expect("coverable"));
        let detail = json!({
            "devices": wn,
            "sets": wsets.len(),
            "picks": picks.len(),
            "plan_airtime": plan_airtime(&picks, &wcosts),
            "count_greedy_airtime": count_airtime,
        });
        (picks, detail)
    });
    assert_eq!(
        Some(weighted_picks),
        reference::greedy_set_cover_weighted(wn, &wsets, &wcosts),
        "weighted kernel must agree with the oracle pick-for-pick"
    );

    let (wn10k, wsets10k, wcosts10k) = workload::weighted_cover_instance(10_000, opts.seed);
    let stress_count_airtime = plan_airtime(
        &set_cover::greedy_set_cover(wn10k, &wsets10k).expect("coverable"),
        &wcosts10k,
    );
    let stress_weighted_airtime = report.stage("set_cover_weighted_stress", 3, |clock| {
        let picks = clock.time(|| {
            set_cover::greedy_set_cover_weighted(wn10k, &wsets10k, &wcosts10k).expect("coverable")
        });
        let airtime = plan_airtime(&picks, &wcosts10k);
        let detail = json!({
            "devices": wn10k,
            "sets": wsets10k.len(),
            "picks": picks.len(),
            "plan_airtime": airtime,
            "count_greedy_airtime": stress_count_airtime,
        });
        (airtime, detail)
    });
    let weighted_airtime_gain = stress_count_airtime as f64 / stress_weighted_airtime as f64;
    assert!(
        weighted_airtime_gain >= 1.0,
        "the weighted kernel must never pay more airtime than count-greedy \
         on the stress instance ({stress_weighted_airtime} vs {stress_count_airtime} subframes)"
    );

    // ---- Stage 3a2: the anytime tabu pass over the greedy stress cover
    // — the plan-improvement kernel spending a deterministic iteration
    // budget on the 10k-device instance. Strict improvement here is an
    // acceptance invariant: the committed baseline must show the anytime
    // pass beating plain greedy, so the assert fails the whole report if
    // the kernel ever stops finding the known slack in this instance.
    let tabu_budget = 256u32;
    let (tabu_picks, tabu_stats) = report.stage("tabu_improve_stress", 3, |clock| {
        let (picks, stats) = clock.time(|| {
            improve::improve_cover(universe10k, &sets10k, &stress_inc, tabu_budget, opts.seed)
        });
        let detail = json!({
            "devices": universe10k,
            "budget": tabu_budget,
            "initial_cost": stats.initial_cost,
            "final_cost": stats.final_cost,
            "moves_accepted": stats.moves_accepted,
            "budget_spent": stats.budget_spent,
        });
        ((picks, stats), detail)
    });
    assert!(
        tabu_stats.final_cost < tabu_stats.initial_cost,
        "tabu pass must strictly improve the greedy stress cover ({} -> {})",
        tabu_stats.initial_cost,
        tabu_stats.final_cost
    );
    assert_eq!(tabu_picks.len() as u32, tabu_stats.final_cost);
    let tabu_cover_gain = f64::from(tabu_stats.initial_cost) / f64::from(tabu_stats.final_cost);

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
    report.stage("replan_churn_full", 3, |clock| {
        let inputs = fresh_epoch_inputs();
        let plans = clock.time(|| {
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
        let total: usize = plans.iter().map(MulticastPlan::transmission_count).sum();
        let detail = json!({
            "devices": repair_devices,
            "epochs": repair_epochs,
            "transmissions_total": total,
        });
        ((), detail)
    });
    let repaired_final = report.stage("replan_churn_repair", 3, |clock| {
        let repaired = clock.time(|| {
            let mut current = repair_plan0.clone();
            for input in &epoch_inputs {
                current = repair_plan(&current, input)
                    .expect("DR-SC plans are repairable")
                    .expect("repair");
            }
            current
        });
        let detail = json!({
            "devices": repair_devices,
            "epochs": repair_epochs,
            "transmissions_final": repaired.transmission_count(),
        });
        (repaired, detail)
    });
    repaired_final
        .validate(epoch_inputs.last().expect("epochs"))
        .expect("repaired chain must validate against the final fleet");

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
    let replay = |policy| {
        let cfg = ServiceConfig {
            policy,
            seed: opts.seed,
            ..ServiceConfig::default()
        };
        let mut svc = GroupingService::new(cfg, &service_log).expect("service");
        svc.replay(&service_log).expect("replay")
    };
    let repair_serves = report.stage("service_replay_repair", 3, |clock| {
        let serves = clock.time(|| replay(RegroupPolicy::Repair));
        let repairs = serves
            .iter()
            .filter(|s| s.action == ServeAction::Repair)
            .count();
        let detail = json!({
            "devices": service_devices,
            "records": service_log.records.len(),
            "serves": serves.len(),
            "repair_share": repairs as f64 / serves.len().max(1) as f64,
            "max_stale_fraction": serves.iter().map(|s| s.stale_fraction).fold(0.0f64, f64::max),
            "serves_per_sec": per_sec(serves.len(), clock.ms()),
        });
        (serves.len(), detail)
    });
    let full_serves = report.stage("service_replay_full", 3, |clock| {
        let serves = clock.time(|| replay(RegroupPolicy::EveryEpoch));
        let detail = json!({
            "devices": service_devices,
            "records": service_log.records.len(),
            "serves": serves.len(),
            "serves_per_sec": per_sec(serves.len(), clock.ms()),
        });
        (serves.len(), detail)
    });
    assert_eq!(
        repair_serves, full_serves,
        "both policies must serve every campaign request"
    );

    // ---- Stage 3c: the massive-n scale tier — the 10^5-10^6-device
    // frame-cover point (post-dense-filter shape, so entries scale with
    // the event count). Single measurement per stage: at this scale a run
    // is milliseconds-to-seconds and cache noise is irrelevant. The
    // kernel stage times one solve after a warmup solve; like every
    // explicit-set stage it includes the kernel's own scratch
    // allocation, the index build and the greedy rounds.
    let (massive_universe, massive_sets) =
        report.stage("massive_instance_generation", 0, |clock| {
            let (universe, sets) =
                clock.time(|| workload::frame_cover_instance_with(massive_devices, 0.0, opts.seed));
            let detail = json!({ "devices": universe, "sets": sets.len() });
            ((universe, sets), detail)
        });
    let unit = vec![1; massive_sets.len()];
    report.stage("set_cover_massive_incremental", 1, |clock| {
        let picks = clock.time(|| {
            set_cover::greedy_set_cover_weighted(massive_universe, &massive_sets, &unit)
                .expect("coverable")
        });
        let detail = json!({
            "devices": massive_universe,
            "sets": massive_sets.len(),
            "entries": massive_sets.iter().map(Vec::len).sum::<usize>(),
            "picks": picks.len(),
        });
        ((), detail)
    });
    // The scale tier holds the largest allocations of the whole report
    // (~hundreds of MB at 10^6 devices); release them before the
    // campaign stages.
    drop(massive_sets);

    // ---- Stage 3d: plan validation and campaigns at massive n. DA-SC
    // and DR-SI serve the whole massive-metering fleet with one
    // transmission, so their plans hold the longest recipient list a plan
    // can have; DR-SC spreads the fleet over about 1,200. `plan_validate`
    // resolves every recipient to its device position once.
    // `campaign_massive` runs `run_campaign` (validate plus the campaign
    // engine, plus one plan clone) on each prebuilt plan, so it times the
    // engine without planning. One plan is alive at a time.
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
        report.stage("plan_validate", 3, |clock| {
            let valid = clock.time(|| plan.validate(&massive_input));
            valid.expect("massive plans are valid");
            let recipients: usize = plan
                .transmissions
                .iter()
                .map(|tx| tx.recipients.len())
                .sum();
            let detail = json!({
                "mechanism": kind.to_string(),
                "devices": massive_input.len(),
                "transmissions": plan.transmissions.len(),
                "recipients": recipients,
            });
            ((), detail)
        });
        report.stage("campaign_massive", 3, |clock| {
            let result = clock.time(|| {
                let mut rng = seq.child(2_000).rng(3);
                run_campaign(&Replay(&plan), &massive_input, &sim, &mut rng).expect("campaign")
            });
            let detail = json!({
                "mechanism": kind.to_string(),
                "devices": massive_input.len(),
                "transmissions": plan.transmissions.len(),
                "ra_draws": result.ledgers.iter().map(|l| l.random_accesses).sum::<u64>(),
            });
            ((), detail)
        });
    }
    drop(massive_input);
    // The same fleet's DR-SC window cover as the planner pays for it: the
    // input's PO timeline over schedule classes, then the solve, on a
    // fresh input per repetition. eDRX paging time windows put its sparse
    // POs on few distinct instants, unlike the uniform phases of the
    // `window_cover_*` stages below. The timed closure also reads the
    // timeline's counters, O(class events).
    report.stage("window_cover_massive", 3, |clock| {
        let input = fresh_massive_input();
        let detail = clock.time(|| {
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
        ((), detail)
    });
    // The same fleet's per-device paging arithmetic: DR-SI's test for a PO
    // in its `[t − TI, t)` window, then the page PO in the window or the
    // notification PO before it, then the campaign engine's PO count over
    // its accounting horizon `[start, t + TI + transfer)`.
    let transfer = sim.npdsch.plan_transfer(sim.payload).duration;
    report.stage("po_queries", 3, |clock| {
        let input = fresh_massive_input();
        let t = input
            .transmission_time()
            .expect("default transmission time");
        let ti = params.ti.duration();
        let window = TimeWindow::new(t.saturating_sub(ti).max(params.start), t);
        let h_end = t + ti + transfer;
        let (in_window, pos) = clock.time(|| {
            let (mut in_window, mut pos) = (0usize, 0u64);
            for sched in input.schedules() {
                let hit = sched.has_po_in(window);
                std::hint::black_box(if hit {
                    Some(sched.first_po_at_or_after(window.start()))
                } else {
                    sched.last_po_before(window.start())
                });
                in_window += usize::from(hit);
                pos += sched.count_pos_between(params.start, h_end);
            }
            (in_window, pos)
        });
        let detail =
            json!({ "devices": input.len(), "po_in_window": in_window, "pos_monitored": pos });
        ((), detail)
    });
    drop(massive_pop);

    // Each engine stage builds its timeline from the jagged lists inside
    // the timed region, so all three stages do the reference's work:
    // flatten, sort, cover.
    let (events, dense) = workload::window_cover_instance(1_000, 2_600, opts.seed);
    let ti = SimDuration::from_secs(10);
    let start = SimInstant::ZERO;
    let timeline = || set_cover::PoTimeline::from_events(&events, &dense);
    type TimelineSolver<'a> = &'a dyn Fn() -> Option<Vec<set_cover::CoverSlot>>;
    let solvers: [(&str, TimelineSolver); 3] = [
        ("window_cover_incremental", &|| {
            WindowCover::new(ti).solve_incremental(start, &timeline())
        }),
        ("window_cover_sweep", &|| {
            WindowCover::new(ti).solve_sweep(start, &timeline())
        }),
        ("window_cover_reference", &|| {
            reference::window_cover_solve(ti, start, &events, &dense)
        }),
    ];
    let slots = solvers.map(|(name, solve)| {
        report.stage(name, 5, |clock| {
            let slots = clock.time(|| solve().expect("coverable"));
            let detail = json!({ "devices": events.len(), "slots": slots.len() });
            (slots, detail)
        })
    });
    assert!(
        slots.iter().all(|s| *s == slots[2]),
        "timeline solvers must agree"
    );

    // ---- Stage 4: single campaign execution per mechanism, planning
    // included, each on a fresh input ----
    for kind in MechanismKind::ALL {
        let mechanism = kind.instantiate();
        report.stage("campaign", 3, |clock| {
            let input = fresh_input();
            clock.time(|| {
                let mut rng = seq.child(2_000).rng(3);
                run_campaign(mechanism.as_ref(), &input, &sim, &mut rng).expect("campaign")
            });
            let detail = json!({ "mechanism": kind.to_string(), "devices": opts.devices });
            ((), detail)
        });
    }

    // ---- Stage 5: the full comparison (one point, every mechanism),
    // serial then parallel ----
    let mut comparison = Scenario {
        mechanisms: MechanismKind::ALL.to_vec(),
        ..Scenario::default()
    };
    opts.apply_to_scenario(&mut comparison);
    comparison.threads = 1;
    let serial_result = report.stage("comparison_serial", 0, |clock| {
        let result = clock.time(|| run_scenario(&comparison).expect("comparison"));
        let detail = json!({
            "mechanisms": MechanismKind::ALL.len(),
            "devices": opts.devices,
            "runs": opts.runs,
        });
        (result, detail)
    });
    comparison.threads = opts.threads;
    let parallel_result = report.stage("comparison_parallel", 0, |clock| {
        let result = clock.time(|| run_scenario(&comparison).expect("comparison"));
        let detail = json!({
            "mechanisms": MechanismKind::ALL.len(),
            "devices": opts.devices,
            "runs": opts.runs,
            "threads": opts.threads,
        });
        (result, detail)
    });
    assert_eq!(
        serial_result, parallel_result,
        "parallel comparison must be bit-identical to serial"
    );

    // ---- Stage 6: the full device sweep (Fig. 7 workload) through the
    // (point × run) scheduler, serial and as one parallel item pool. The
    // sweep keeps fig7's group sizes whatever `--devices` says.
    let mut sweep = Scenario::builtin("fig7").expect("registered scenario");
    let sizes = std::mem::take(&mut sweep.devices);
    opts.apply_to_scenario(&mut sweep);
    sweep.devices = sizes;
    let [sweep_serial, sweep_parallel] =
        [("sweep_serial", 1), ("sweep_point_parallel", opts.threads)].map(|(name, threads)| {
            sweep.threads = threads;
            report.stage(name, 0, |clock| {
                let result = clock.time(|| run_scenario(&sweep).expect("sweep"));
                let detail =
                    json!({ "points": sweep.devices.len(), "runs": opts.runs, "threads": threads });
                (result, detail)
            })
        });
    assert_eq!(
        sweep_serial, sweep_parallel,
        "point-parallel sweep must be bit-identical to serial"
    );

    // ---- Stage 7: the Fig. 6 suite — three payload columns in one
    // serial scenario grid sharing each run's population and plans.
    let mut suite = Scenario::builtin("paper-suite").expect("registered scenario");
    opts.apply_to_scenario(&mut suite);
    suite.threads = 1;
    let suite_result = report.stage("figure_suite_shared", 0, |clock| {
        let result = clock.time(|| run_scenario(&suite).expect("suite"));
        let detail =
            json!({ "payloads": suite.payloads.len(), "devices": opts.devices, "runs": opts.runs });
        (result, detail)
    });

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
    let coord_outcome = report.stage("coordinator_supervised_suite", 0, |clock| {
        let outcome = clock.time(|| {
            let mut config = RunConfig::new(suite.clone(), coord_shards, &coord_dir);
            config.backoff_base_ms = 0;
            coordinator::run(&config).unwrap_or_else(|e| fail(format!("supervised suite run: {e}")))
        });
        let detail = json!({
            "shards": coord_shards,
            "payloads": suite.payloads.len(),
            "devices": opts.devices,
            "runs": opts.runs,
        });
        (outcome, detail)
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

    let ratios = time_ratios(&report.stages);
    let mut derived: Vec<(String, Value)> = ratios
        .iter()
        .map(|&(key, ratio)| (key.to_string(), json!(ratio)))
        .collect();
    derived.push(("weighted_airtime_gain".into(), json!(weighted_airtime_gain)));
    derived.push(("tabu_cover_gain".into(), json!(tabu_cover_gain)));
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
        "stages": Value::Array(report.stages),
        "derived": Value::Object(derived),
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable");
    out_file
        .write_all(text.as_bytes())
        .unwrap_or_else(|e| fail(format!("cannot write benchmark report `{out_path}`: {e}")));
    outln!("{text}");
    let summary: Vec<String> = ratios
        .iter()
        .map(|(key, ratio)| format!("{key} {ratio:.2}x"))
        .collect();
    eprintln!("\nbench_report: {} -> {out_path}", summary.join(", "));

    if let Some(baseline) = baseline {
        let violations = run_gate(&report, &baseline, tolerance_pct);
        let missing = missing_keys(&report, &baseline);
        if !missing.is_empty() {
            fail(format!(
                "structural mismatch: the report lacks baseline key(s) {} \
                 (a retired stage drops its baseline entry)",
                missing.join(", ")
            ));
        }
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
    use std::cell::Cell;

    use super::*;

    fn report(stages: &[(&str, Option<&str>, f64)]) -> Value {
        let stages: Vec<Value> = stages
            .iter()
            .map(|&(name, mechanism, ms)| {
                let detail = match mechanism {
                    Some(m) => json!({ "mechanism": m }),
                    None => json!({}),
                };
                json!({ "name": name, "wall_clock_ms": ms, "detail": detail })
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
        let times = stage_times(stages_of(&r));
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
        assert!(missing_keys(&current, &baseline).is_empty());
    }

    #[test]
    fn gate_reports_baseline_keys_the_report_lacks() {
        let baseline_stages = report(&[
            ("a", None, 1.0),
            ("plan", Some("DR-SC"), 1.0),
            ("plan", Some("DA-SC"), 1.0),
        ]);
        // `new` has no baseline entry: a new stage, never a mismatch.
        let current_stages = report(&[
            ("a", None, 1.0),
            ("plan", Some("DR-SC"), 1.0),
            ("new", None, 1.0),
        ]);
        let baseline = json!({
            "stages": stages_of(&baseline_stages),
            "derived": json!({ "a_speedup": 2.0, "retired_ratio": 1.0 }),
        });
        let current = json!({
            "stages": stages_of(&current_stages),
            "derived": json!({ "a_speedup": 2.0 }),
        });
        assert_eq!(
            missing_keys(&current, &baseline),
            ["plan[DA-SC]", "derived.retired_ratio"]
        );
    }

    #[test]
    fn stages_run_setup_and_timed_closure_once_per_call_and_return_the_last_output() {
        // `reps == 0` is one cold call, `reps = k` a warm-up plus k calls.
        for reps in [0u32, 1, 3] {
            let (setups, runs) = (Cell::new(0), Cell::new(0));
            let mut report = Report::default();
            let out = report.stage("s", reps, |clock| {
                setups.set(setups.get() + 1);
                let run = clock.time(|| {
                    runs.set(runs.get() + 1);
                    runs.get()
                });
                ((setups.get(), run), json!({ "run": run }))
            });
            assert_eq!((setups.get(), runs.get()), (reps + 1, reps + 1));
            assert_eq!(out, (reps + 1, reps + 1), "the last call, on its own setup");
            assert_eq!(report.stages.len(), 1);
        }
    }

    #[test]
    fn time_ratios_divide_the_numerator_by_the_summed_denominators() {
        let mut keys: Vec<&str> = TIME_RATIOS
            .iter()
            .flat_map(|(_, numerator, denominator)| numerator.iter().chain(*denominator))
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        // Stage i of `keys` takes i + 1 ms; `plan[DR-SC]` is `plan` on DR-SC.
        let ms = |key: &&str| (keys.iter().position(|k| k == key).expect("stage") + 1) as f64;
        let stages: Vec<_> = keys
            .iter()
            .map(|key| match key.split_once('[') {
                Some((name, mechanism)) => (name, mechanism.strip_suffix(']'), ms(key)),
                None => (*key, None, ms(key)),
            })
            .collect();
        let ratios = time_ratios(stages_of(&report(&stages)));
        for (&(key, ratio), (row, numerator, denominator)) in ratios.iter().zip(TIME_RATIOS) {
            assert_eq!(key, row);
            let expected =
                numerator.iter().map(ms).sum::<f64>() / denominator.iter().map(ms).sum::<f64>();
            assert_eq!(ratio, expected, "{key}");
        }
        let family: Vec<String> = FAMILY.iter().map(|kind| format!("plan[{kind}]")).collect();
        assert_eq!(
            TIME_RATIOS[2].2, family,
            "the sharing ratio divides by the family's cold plans"
        );
    }
}
