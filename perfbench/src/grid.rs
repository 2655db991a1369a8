//! The batch workloads: `paper-grid` and `metering-100k`.
//!
//! Untraced, a workload calls `run_scenario` again and again for the
//! measured time, with as many worker threads as the process may use. One
//! call is one request for a grid. Call 0 runs the grid of `--seed`
//! itself; call `k` runs the same scenario under a master seed derived
//! from (`--seed`, `k`), so a run averages over many populations instead
//! of timing one population repeatedly.
//!
//! Traced, every item of the grid runs once more, serially: first through
//! `run_scenario_shard` with a single-item shard (the item total), then
//! replayed layer by layer on the item's own seed streams
//! (`SeedSequence::new(seed).child(run)`: `.rng(0)` population, `.rng(1)`
//! unicast baseline, `.rng(2 + i)` mechanism `i`), mirroring what the
//! grid does inside an item. The replay must reproduce the archived
//! records bit for bit, and the merged archives must fold into the
//! untraced result. Layer spans never nest, so a span's self time is its
//! duration; the DES layer is the one exception (see `Campaign::run`).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use nbiot_bench::scenarios::load_scenario;
use nbiot_des::{splitmix64, SeedSequence, Summary};
use nbiot_grouping::{
    GroupingError, GroupingInput, GroupingMechanism, MechanismKind, MulticastPlan, Unicast,
};
use nbiot_phy::{CoverageClass, NpdschConfig};
use nbiot_sim::{
    merge_archives, run_campaign, run_scenario, run_scenario_shard, CampaignResult, ItemRows,
    MechRun, MechanismSummary, Scenario, ScenarioResult, ShardSpec, SimConfig,
};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::report::{median, ratio, Machine, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Runs per `paper-grid` call: four items per worker on two cores, so a
/// call lasts about a second.
const PAPER_RUNS: u32 = 8;
/// Runs per `metering-100k` call: one 100 000-device item per worker.
const METERING_RUNS: u32 = 2;
/// Scenario loads per `setup_s` sample: one load takes well under a
/// microsecond, so each sample times a batch.
const SETUP_BATCH: usize = 1000;

/// Loads the workload's scenario the way a user does (registry name, then
/// overrides) and validates it: the set-up `setup_s` times.
fn load(workload: &str, seed: u64, threads: usize) -> Result<Scenario, String> {
    let mut scenario = if workload == "paper-grid" {
        let mut s = load_scenario("paper-suite")?;
        s.mechanisms = MechanismKind::ALL.to_vec();
        s.runs = PAPER_RUNS;
        s
    } else {
        let mut s = load_scenario("massive-n")?;
        s.devices = vec![100_000];
        s.runs = METERING_RUNS;
        s
    };
    scenario.master_seed = seed;
    scenario.threads = threads;
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

pub fn run(args: &Args, machine: &Machine) -> Outcome {
    let mut out = Outcome::default();
    let threads = machine.threads();
    let mut setup_s = vec![time_setup(args, threads)];
    let scenario = match load(&args.workload, args.seed, threads) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("scenario load: {e}"));
            return out;
        }
    };
    let untraced = measure(&scenario, args, &mut setup_s, &mut out);
    out.end_to_end.insert("setup_s", median(&setup_s));
    let items_per_s = median(&untraced.items_per_s);
    out.end_to_end.insert("items_per_s", items_per_s);
    if let Some(first) = &untraced.first {
        let (tx, airtime) = plan_quality(first);
        out.end_to_end.insert("tx_per_campaign", tx);
        out.end_to_end.insert("airtime_per_campaign_ms", airtime);
    }
    out.notes.push(format!(
        "untraced: {} calls of {} items on {threads} threads, median {items_per_s:.4} items/s; \
         per call {:.3?}",
        untraced.items_per_s.len(),
        items_in(&scenario),
        untraced.items_per_s,
    ));
    if args.trace {
        traced(&scenario, &untraced, threads, &mut out);
    }
    out
}

fn items_in(scenario: &Scenario) -> usize {
    scenario.devices.len() * scenario.runs as usize
}

/// What the untraced calls measured.
struct Untraced {
    /// The result of call 0 (the grid of `--seed` itself).
    first: Option<ScenarioResult>,
    /// Items per second of each successful call.
    items_per_s: Vec<f64>,
    /// Wall time of each successful call, in ms.
    call_ms: Vec<f64>,
}

/// Seconds per scenario load, timed over one batch of loads.
fn time_setup(args: &Args, threads: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        let _ = std::hint::black_box(load(&args.workload, args.seed, threads));
    }
    t.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

/// Calls `run_scenario` until `--seconds` have passed (at least once).
/// After every call it also takes one `setup_s` sample, so the set-up
/// median spans the whole run rather than process start-up alone.
fn measure(
    scenario: &Scenario,
    args: &Args,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
) -> Untraced {
    let items = items_in(scenario);
    let mut m = Untraced {
        first: None,
        items_per_s: Vec::new(),
        call_ms: Vec::new(),
    };
    let start = Instant::now();
    let mut call = 0u64;
    while m.call_ms.is_empty() || start.elapsed() < args.seconds {
        let grid = Scenario {
            master_seed: call_seed(scenario.master_seed, call),
            ..scenario.clone()
        };
        let t = Instant::now();
        let result = std::hint::black_box(run_scenario(&grid));
        let secs = t.elapsed().as_secs_f64();
        let problem = match result {
            Err(e) => Some(format!("call {call}: run_scenario: {e}")),
            Ok(result) => match check_result(&grid, &result) {
                Some(problem) => Some(format!("call {call}: {problem}")),
                None => {
                    if call == 0 {
                        m.first = Some(result);
                    }
                    m.items_per_s.push(items as f64 / secs);
                    m.call_ms.push(secs * 1000.0);
                    None
                }
            },
        };
        call += 1;
        setup_s.push(time_setup(args, scenario.threads));
        let failed = if problem.is_some() { items as u64 } else { 0 };
        out.count(items as u64, failed);
        if let Some(problem) = problem {
            out.notes.push(format!("FAILED: {problem}"));
            if start.elapsed() >= args.seconds {
                break;
            }
        }
    }
    m
}

/// The master seed of untraced call `call`: the run's own seed first.
fn call_seed(seed: u64, call: u64) -> u64 {
    if call == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(call))
    }
}

/// Checks the shape of a grid result and that every summary is finite
/// with the expected run count; returns the first problem found.
fn check_result(scenario: &Scenario, result: &ScenarioResult) -> Option<String> {
    let points = scenario.devices.len() * scenario.payloads.len();
    if result.points.len() != points {
        return Some(format!("{} points, expected {points}", result.points.len()));
    }
    for point in &result.points {
        let cmp = &point.comparison;
        if cmp.runs != scenario.runs || cmp.mechanisms.len() != scenario.mechanisms.len() {
            return Some(format!("point {} has the wrong shape", point.n_devices));
        }
        for m in &cmp.mechanisms {
            if let Some(bad) = summaries(m)
                .iter()
                .position(|s| s.n != u64::from(scenario.runs) || !finite(s))
            {
                return Some(format!(
                    "{} summary #{bad} at {} devices is not finite or has the wrong run count",
                    m.mechanism, point.n_devices
                ));
            }
        }
    }
    None
}

fn summaries(m: &MechanismSummary) -> [&Summary; 17] {
    [
        &m.rel_light_sleep,
        &m.rel_connected,
        &m.transmissions,
        &m.transmissions_ratio,
        &m.plan_airtime_ms,
        &m.airtime_vs_count_ratio,
        &m.mean_wait_s,
        &m.mean_connected_s,
        &m.mean_energy_mj,
        &m.ra_failures,
        &m.late_joins,
        &m.regroup_count,
        &m.stale_miss_ratio,
        &m.cover_cost_initial,
        &m.cover_cost_final,
        &m.improve_moves,
        &m.improve_budget,
    ]
}

fn finite(s: &Summary) -> bool {
    [s.mean, s.std_dev, s.ci95, s.min, s.max]
        .iter()
        .all(|v| v.is_finite())
}

/// `(tx_per_campaign, airtime_per_campaign_ms)`: the mean over the DR-SC
/// family (DR-SC, DR-SC-tabu, DR-SC-weighted, where present) of the mean
/// transmissions and the mean plan airtime at the first (100 kB) payload.
fn plan_quality(result: &ScenarioResult) -> (f64, f64) {
    let family: Vec<&MechanismSummary> = result.points[0]
        .comparison
        .mechanisms
        .iter()
        .filter(|m| m.mechanism.starts_with("DR-SC"))
        .collect();
    let n = family.len() as f64;
    (
        ratio(family.iter().map(|m| m.transmissions.mean).sum(), n),
        ratio(family.iter().map(|m| m.plan_airtime_ms.mean).sum(), n),
    )
}

/// Per-layer metric names of one mechanism: `(plan, validate)`.
fn layer_names(kind: MechanismKind) -> (&'static str, &'static str) {
    match kind {
        MechanismKind::DrSc => ("plan.dr_sc_ms", "validate.dr_sc_ms"),
        MechanismKind::DrScTabu(_) => ("plan.dr_sc_tabu_ms", "validate.dr_sc_tabu_ms"),
        MechanismKind::DrScWeighted => ("plan.dr_sc_weighted_ms", "validate.dr_sc_weighted_ms"),
        MechanismKind::DaSc => ("plan.da_sc_ms", "validate.da_sc_ms"),
        MechanismKind::DrSi => ("plan.dr_si_ms", "validate.dr_si_ms"),
        MechanismKind::Unicast => ("plan.unicast_ms", "validate.unicast_ms"),
        MechanismKind::ScPtm => ("plan.sc_ptm_ms", "validate.sc_ptm_ms"),
    }
}

/// The span name of a per-layer metric: the name without its unit.
fn span_name(metric: &str) -> &str {
    metric.strip_suffix("_ms").unwrap_or(metric)
}

/// Deterministic work counters of the traced pass.
#[derive(Default)]
struct Counters {
    device_campaigns: u64,
    transmissions: u64,
    recipients: u64,
    moves: u64,
    budget_spent: u64,
}

/// The traced pass: every item of one grid, serially (see module docs).
fn traced(scenario: &Scenario, untraced: &Untraced, threads: usize, out: &mut Outcome) {
    let serial = Scenario {
        threads: 1,
        ..scenario.clone()
    };
    let items = items_in(&serial);
    let mut tracer = Tracer::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counters = Counters::default();
    let (mut total_ms, mut residual_ms, mut measured) = (0.0, 0.0, 0usize);
    let mut archives = Vec::with_capacity(items);
    let phase = Instant::now();
    for item in 0..items {
        let owner = item as u64;
        let shard = ShardSpec {
            index: item as u32,
            count: items as u32,
        };
        out.count(1, 0);
        let (archive, item_ms) =
            tracer.span("grid.item", owner, || run_scenario_shard(&serial, shard));
        let archive = match archive {
            Ok(archive) => archive,
            Err(e) => {
                out.fail(format!("item {item}: run_scenario_shard: {e}"));
                continue;
            }
        };
        let mut item_layers = BTreeMap::new();
        match replay_item(&serial, item, &mut tracer, &mut item_layers, &mut counters) {
            Ok(rows) if format!("{rows:?}") == format!("{:?}", archive.items[0].rows) => {}
            Ok(_) => out.fail(format!(
                "item {item}: replay differs from the archived records"
            )),
            Err(e) => out.fail(format!("item {item}: replay: {e}")),
        }
        let layer_ms: f64 = item_layers.values().sum();
        total_ms += item_ms;
        residual_ms += item_ms - layer_ms;
        measured += 1;
        for (name, ms) in item_layers {
            *layers.entry(name).or_insert(0.0) += ms;
        }
        archives.push(archive);
    }
    let (folded, fold_ms) = tracer.span("fold.merge", items as u64, || {
        merge_archives(&archives).and_then(|merged| merged.result())
    });
    let phase_s = phase.elapsed().as_secs_f64();
    out.count(1, 0);
    match folded {
        Ok(result) if untraced.first.as_ref() == Some(&result) => {}
        Ok(_) => out.fail("merged item archives differ from the untraced result".into()),
        Err(e) => out.fail(format!("merge: {e}")),
    }

    let per_item = measured.max(1) as f64;
    let m = &mut out.per_layer;
    for (name, ms) in &layers {
        m.insert(name, ms / per_item);
    }
    m.insert("grid.item_ms", total_ms / per_item);
    m.insert("grid.residual_ms", residual_ms / per_item);
    m.insert("grid.residual_share", ratio(residual_ms, total_ms));
    m.insert("fold.merge_ms", fold_ms);
    m.insert(
        "grid.parallel_efficiency",
        ratio(total_ms, median(&untraced.call_ms) * threads as f64),
    );
    let traced_items_per_s = items as f64 / phase_s;
    m.insert("trace.items_per_s", traced_items_per_s);
    m.insert(
        "trace.overhead_ratio",
        ratio(median(&untraced.items_per_s), traced_items_per_s),
    );
    m.insert("des.device_campaigns", counters.device_campaigns as f64);
    m.insert("plan.transmissions", counters.transmissions as f64);
    m.insert("validate.recipients", counters.recipients as f64);
    m.insert("improve.moves", counters.moves as f64);
    m.insert("improve.budget_spent", counters.budget_spent as f64);
    if let Some((name, ms)) = layers.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        out.notes.push(format!(
            "dominant layer: {name} = {:.3} ms/item, {:.1}% of the {:.3} ms item total; \
             residual {:.1}%",
            ms / per_item,
            100.0 * ratio(*ms, total_ms),
            total_ms / per_item,
            100.0 * ratio(residual_ms, total_ms),
        ));
    }
    out.spans = tracer.spans;
}

/// Replays one grid item layer by layer and returns its records, shaped
/// `[payload][mechanism]` exactly as the grid archives them.
fn replay_item(
    scenario: &Scenario,
    item: usize,
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
    counters: &mut Counters,
) -> Result<ItemRows, String> {
    let runs = scenario.runs as usize;
    let (n_devices, run) = (scenario.devices[item / runs], item % runs);
    let seq = SeedSequence::new(scenario.master_seed).child(run as u64);
    let owner = item as u64;
    let (population, ms) = tracer.span("traffic.generate", owner, || {
        scenario.mix.generate(n_devices, &mut seq.rng(0))
    });
    *layers.entry("traffic.generate_ms").or_insert(0.0) += ms;
    let population = population.map_err(|e| e.to_string())?;
    let (input, ms) = tracer.span("input.build", owner, || {
        GroupingInput::from_population(&population, scenario.grouping)
    });
    *layers.entry("input.build_ms").or_insert(0.0) += ms;
    let input = input.map_err(|e| e.to_string())?;
    let sims: Vec<SimConfig> = scenario
        .payloads
        .iter()
        .map(|&payload| scenario.sim.with_payload(payload))
        .collect();
    let mut call = Campaign {
        input: &input,
        sims: &sims,
        owner,
        tracer,
        layers,
        counters,
    };
    let baseline = if scenario.baseline {
        Some(call.run(&Unicast::new(), MechanismKind::Unicast, &mut seq.rng(1))?)
    } else {
        None
    };
    let mut rows: ItemRows = vec![Vec::with_capacity(scenario.mechanisms.len()); sims.len()];
    for (i, &kind) in scenario.mechanisms.iter().enumerate() {
        let (plan, results) = match &baseline {
            // The grid reuses the baseline for the unicast row.
            Some((plan, results)) if kind == MechanismKind::Unicast => {
                (plan.clone(), results.clone())
            }
            _ => call.run(
                kind.instantiate().as_ref(),
                kind,
                &mut seq.rng(2 + i as u64),
            )?,
        };
        let hist = coverage_histogram(&plan, &input);
        let improvement = |f: fn(&nbiot_grouping::ImprovementStats) -> u32| {
            plan.improvement.as_ref().map_or(0.0, |s| f64::from(f(s)))
        };
        for (p, result) in results.iter().enumerate() {
            let base = baseline.as_ref().map_or(result, |(_, b)| &b[p]);
            let rel = result.mean_relative_vs(base);
            let (plan_airtime_ms, airtime_vs_count_ratio) = airtime_metrics(&hist, &sims[p]);
            rows[p].push(MechRun {
                rel_light_sleep: rel.light_sleep,
                rel_connected: rel.connected,
                transmissions: result.transmission_count as f64,
                plan_airtime_ms,
                airtime_vs_count_ratio,
                mean_wait_s: result.mean_wait.as_secs_f64(),
                mean_connected_s: result.mean_connected_ms() / 1000.0,
                mean_energy_mj: result.mean_energy_mj(&scenario.power),
                ra_failures: result.ra_failures as f64,
                late_joins: result.late_joins as f64,
                regroups: 0.0,
                stale_miss_ratio: 0.0,
                cover_cost_initial: improvement(|s| s.initial_cost),
                cover_cost_final: improvement(|s| s.final_cost),
                improve_moves: improvement(|s| s.moves_accepted),
                improve_budget: improvement(|s| s.budget_spent),
                compliant: result.standards_compliant,
            });
        }
    }
    Ok(rows)
}

/// The per-item context of one mechanism's plan → validate → DES chain.
struct Campaign<'a> {
    input: &'a GroupingInput,
    sims: &'a [SimConfig],
    owner: u64,
    tracer: &'a mut Tracer,
    layers: &'a mut BTreeMap<&'static str, f64>,
    counters: &'a mut Counters,
}

impl Campaign<'_> {
    /// Plans, validates, then executes the plan once per payload on a
    /// clone of the post-plan RNG, as the grid does.
    ///
    /// `run_campaign` is fed the finished plan through [`Replay`], so it
    /// never re-plans; it does validate again, so the DES layer's self
    /// time is the `run_campaign` span minus this plan's validate span.
    /// It also includes one plan clone.
    fn run(
        &mut self,
        mechanism: &dyn GroupingMechanism,
        kind: MechanismKind,
        rng: &mut StdRng,
    ) -> Result<(MulticastPlan, Vec<CampaignResult>), String> {
        let (plan_layer, validate_layer) = layer_names(kind);
        let (plan, ms) = self.tracer.span(span_name(plan_layer), self.owner, || {
            mechanism.plan(self.input, rng)
        });
        *self.layers.entry(plan_layer).or_insert(0.0) += ms;
        let plan = plan.map_err(|e| format!("{kind}: {e}"))?;
        let (valid, validate_ms) = self.tracer.span(span_name(validate_layer), self.owner, || {
            plan.validate(self.input)
        });
        *self.layers.entry(validate_layer).or_insert(0.0) += validate_ms;
        valid.map_err(|e| format!("{kind}: invalid plan: {e}"))?;
        let c = &mut *self.counters;
        c.transmissions += plan.transmissions.len() as u64;
        c.recipients += plan
            .transmissions
            .iter()
            .map(|tx| tx.recipients.len() as u64)
            .sum::<u64>();
        if let Some(stats) = &plan.improvement {
            c.moves += u64::from(stats.moves_accepted);
            c.budget_spent += u64::from(stats.budget_spent);
        }
        let mut results = Vec::with_capacity(self.sims.len());
        for sim in self.sims {
            let (result, ms) = self.tracer.span("des.campaign", self.owner, || {
                run_campaign(&Replay(&plan), self.input, sim, &mut rng.clone())
            });
            *self.layers.entry("des.campaign_ms").or_insert(0.0) += ms - validate_ms;
            let result = result.map_err(|e| format!("{kind}: run_campaign: {e}"))?;
            self.counters.device_campaigns += result.device_count() as u64;
            results.push(result);
        }
        Ok((plan, results))
    }
}

/// A mechanism that hands back an already-built plan without touching
/// the RNG, so `run_campaign` executes exactly the plan the grid executes.
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
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        Ok(self.0.clone())
    }
}

/// Per-transmission deepest-recipient coverage histogram, indexed by
/// `CoverageClass as usize` (the grid's airtime pricing input).
pub fn coverage_histogram(plan: &MulticastPlan, input: &GroupingInput) -> [u64; 3] {
    let coverage_of: HashMap<_, _> = input
        .ids()
        .iter()
        .copied()
        .zip(input.coverages().iter().copied())
        .collect();
    let mut hist = [0u64; 3];
    for tx in &plan.transmissions {
        let deepest = tx
            .recipients
            .iter()
            .filter_map(|id| coverage_of.get(id))
            .max()
            .copied()
            .unwrap_or_default();
        hist[deepest as usize] += 1;
    }
    hist
}

/// `(plan_airtime_ms, airtime_vs_count_ratio)` of one payload variant:
/// every transmission pays the transfer at its deepest recipient's class.
pub fn airtime_metrics(hist: &[u64; 3], sim: &SimConfig) -> (f64, f64) {
    let mut per_class_ms = [0u64; 3];
    for c in CoverageClass::ALL {
        let cfg = NpdschConfig {
            coverage: c,
            ..sim.npdsch
        };
        per_class_ms[c as usize] = cfg.plan_transfer(sim.payload).duration.as_ms();
    }
    let airtime_ms: u64 = hist.iter().zip(per_class_ms).map(|(&n, ms)| n * ms).sum();
    let transmissions: u64 = hist.iter().sum();
    let count_estimate_ms = transmissions * per_class_ms[CoverageClass::Normal as usize];
    (
        airtime_ms as f64,
        ratio(airtime_ms as f64, count_estimate_ms as f64),
    )
}
