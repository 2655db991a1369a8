//! The paper's experimental methodology: same populations, mechanisms
//! compared against the per-run unicast baseline, averaged over runs.
//!
//! # One scheduler for every sweep
//!
//! All experiment execution — single comparisons ([`run_comparison`]),
//! device sweeps ([`sweep_devices`]) and whole scenario grids
//! ([`run_scenario`](crate::run_scenario)) — flows through one generic
//! work-item scheduler ([`fan_out_items`]) whose unit of parallelism is a
//! **(sweep point × run)** pair. The thread pool therefore spans entire
//! sweeps and figure suites instead of draining one point at a time.
//!
//! Every item is a pure function of its [`SeedSequence`] child (seeds
//! derive per-run via `seq.child(run)`), items are distributed cyclically
//! across workers for load balance, and the per-item records are folded
//! back **in item order** on the coordinating thread — the same push
//! sequence serial execution performs. That makes every [`Summary`] field
//! bit-identical regardless of the thread count, verified by
//! `comparison_is_thread_count_invariant` below and
//! `tests/parallel_determinism.rs`.
//!
//! # Shared populations and plans
//!
//! Within one item, the run's [`Population`](nbiot_traffic::Population)
//! and [`GroupingInput`] are generated **once** and shared by the unicast
//! baseline and every mechanism (they never depend on the payload), and
//! each mechanism's [`MulticastPlan`](nbiot_grouping::MulticastPlan) is
//! computed **once** and executed per payload with a cloned post-plan RNG
//! — bit-identical to re-planning from scratch, because planning is a
//! deterministic function of the same input and RNG stream.

use core::fmt;

use nbiot_des::{RunningStats, SeedSequence, Summary};
use nbiot_energy::PowerProfile;
use nbiot_grouping::{
    GroupingInput, GroupingMechanism, GroupingParams, MechanismKind, MulticastPlan, Unicast,
};
use nbiot_phy::{CoverageClass, NpdschConfig};
use nbiot_traffic::{ChurnModel, TrafficMix};
use rand::rngs::StdRng;

use crate::churn::{self, ChurnTimeline, RegroupPolicy, RegroupWork};
use crate::{engine, CampaignResult, SimConfig, SimError};

/// Configuration of one experiment (one point of a figure).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Device population mix.
    pub mix: TrafficMix,
    /// Group size (the paper varies 100–1000).
    pub n_devices: usize,
    /// Number of repetitions (the paper uses 100).
    pub runs: u32,
    /// Master seed; every run derives its own independent streams.
    pub master_seed: u64,
    /// Grouping parameters (start, TI, optional transmission override).
    pub grouping: GroupingParams,
    /// PHY/protocol configuration.
    pub sim: SimConfig,
    /// Power profile used for the supplementary energy-in-Joules metric.
    pub power: PowerProfile,
    /// Worker threads for the work-item fan-out: `1` executes serially on
    /// the calling thread, `0` uses all available cores, any other value
    /// that many threads. Results are bit-identical for every setting.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            mix: TrafficMix::ericsson_city(),
            n_devices: 100,
            runs: 10,
            master_seed: 0x4E42_494F_5421, // "NBIOT!"
            grouping: GroupingParams::default(),
            sim: SimConfig::default(),
            power: PowerProfile::default(),
            threads: 1,
        }
    }
}

/// Aggregated metrics of one mechanism across all runs of an experiment.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MechanismSummary {
    /// Mechanism name.
    pub mechanism: String,
    /// Whether every executed plan was standards-compliant.
    pub standards_compliant: bool,
    /// Relative light-sleep uptime increase vs unicast (Fig. 6(a)).
    pub rel_light_sleep: Summary,
    /// Relative connected-mode uptime increase vs unicast (Fig. 6(b)).
    pub rel_connected: Summary,
    /// Number of payload transmissions (Fig. 7).
    pub transmissions: Summary,
    /// Transmissions as a fraction of the group size (the Fig. 7 ratio).
    pub transmissions_ratio: Summary,
    /// Total on-air payload time of the epoch-0 plan in milliseconds:
    /// every transmission pays the full transfer at its deepest
    /// recipient's coverage class (the repetition level the whole group
    /// must be served at).
    pub plan_airtime_ms: Summary,
    /// Plan airtime over the count-based estimate (transmissions × the
    /// normal-coverage transfer time): 1.0 on homogeneous CE0 fleets,
    /// grows as deep-coverage recipients inflate transmissions, and 0.0
    /// for degenerate plans with no transmissions.
    pub airtime_vs_count_ratio: Summary,
    /// Mean device wait before its transmission, in seconds.
    pub mean_wait_s: Summary,
    /// Mean absolute per-device connected-mode uptime, in seconds.
    pub mean_connected_s: Summary,
    /// Mean per-device energy in millijoules (supplementary).
    pub mean_energy_mj: Summary,
    /// Random-access failures per run (RACH contention ablations).
    pub ra_failures: Summary,
    /// Devices finishing random access after their transmission started.
    pub late_joins: Summary,
    /// Plan recomputations per run under churn (zero for static
    /// scenarios; see [`RegroupPolicy`]).
    pub regroup_count: Summary,
    /// Stale-missed device-epochs over all post-epoch-0 device-epochs
    /// (re-planned epochs contribute zero misses to the numerator but
    /// still count in the denominator; zero for static scenarios).
    pub stale_miss_ratio: Summary,
    /// Summed pre-improvement plan cost (transmissions before the tabu
    /// pass, or before a churn repair) across the run's planning work:
    /// the epoch-0 plan plus every regroup-epoch plan. Zero for plans
    /// without an improvement record (plain greedy, baselines).
    pub cover_cost_initial: Summary,
    /// Summed post-improvement plan cost over the same planning work —
    /// `cover_cost_initial − cover_cost_final` is the run's improvement.
    pub cover_cost_final: Summary,
    /// Summed accepted tabu moves / repair-attached arrivals per run.
    pub improve_moves: Summary,
    /// Summed spent tabu iteration budget / repair-replanned leftovers
    /// per run (the anytime knob actually consumed, not the cap).
    pub improve_budget: Summary,
}

/// The result of comparing several mechanisms under one configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ComparisonResult {
    /// Group size.
    pub n_devices: usize,
    /// Number of runs aggregated.
    pub runs: u32,
    /// Per-mechanism summaries, in the order requested.
    pub mechanisms: Vec<MechanismSummary>,
}

impl ComparisonResult {
    /// Looks up a mechanism summary by name (e.g. `"DR-SC"`).
    pub fn mechanism(&self, name: &str) -> Option<&MechanismSummary> {
        self.mechanisms.iter().find(|m| m.mechanism == name)
    }
}

impl fmt::Display for ComparisonResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} devices, {} runs:", self.n_devices, self.runs)?;
        for m in &self.mechanisms {
            writeln!(
                f,
                "  {:<8} light-sleep {:+.3}% connected {:+.3}% tx {:.1}",
                m.mechanism,
                m.rel_light_sleep.mean * 100.0,
                m.rel_connected.mean * 100.0,
                m.transmissions.mean
            )?;
        }
        Ok(())
    }
}

/// The per-run observations for one mechanism (one row of a run record).
///
/// These are the raw, pre-aggregation numbers a single (device point × run)
/// work item produces for one mechanism under one payload variant — the
/// unit that shard archives ([`ScenarioArchive`](crate::ScenarioArchive))
/// persist so that merging partial runs can replay the exact aggregation
/// fold of an unsharded run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MechRun {
    /// Relative light-sleep uptime increase vs unicast in this run.
    pub rel_light_sleep: f64,
    /// Relative connected-mode uptime increase vs unicast in this run.
    pub rel_connected: f64,
    /// Payload transmissions in this run.
    pub transmissions: f64,
    /// Total on-air payload time of the epoch-0 plan, in milliseconds
    /// (deepest-recipient coverage pricing; see
    /// [`MechanismSummary::plan_airtime_ms`]).
    pub plan_airtime_ms: f64,
    /// Plan airtime over the count-based estimate; 0.0 when the plan has
    /// no transmissions.
    pub airtime_vs_count_ratio: f64,
    /// Mean device wait before its transmission, in seconds.
    pub mean_wait_s: f64,
    /// Mean absolute per-device connected-mode uptime, in seconds.
    pub mean_connected_s: f64,
    /// Mean per-device energy in millijoules.
    pub mean_energy_mj: f64,
    /// Random-access failures in this run.
    pub ra_failures: f64,
    /// Devices finishing random access after their transmission started.
    pub late_joins: f64,
    /// Plan recomputations across the run's churn epochs (zero when the
    /// scenario declares no churn).
    pub regroups: f64,
    /// Stale-missed device-epochs over all post-epoch-0 device-epochs of
    /// the run (zero when the scenario declares no churn).
    pub stale_miss_ratio: f64,
    /// Summed pre-improvement plan cost across the run's planning work
    /// (epoch-0 plan + regroup-epoch plans; zero without improvement).
    pub cover_cost_initial: f64,
    /// Summed post-improvement plan cost over the same planning work.
    pub cover_cost_final: f64,
    /// Summed accepted tabu moves / repair-attached arrivals.
    pub improve_moves: f64,
    /// Summed spent tabu iteration budget / repair-replanned leftovers.
    pub improve_budget: f64,
    /// Whether the executed plan was standards-compliant.
    pub compliant: bool,
}

/// The raw records of one (device point × run) work item, indexed
/// `[payload variant][mechanism]` — a pure function of
/// (scenario, item index).
pub type ItemRows = Vec<Vec<MechRun>>;

/// Resolves a thread-count setting: `0` means all available cores, and no
/// point spawning more workers than there are work items.
fn effective_threads(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, items.max(1))
}

/// The generic work-item scheduler: executes `items` independent jobs
/// across `threads` workers and returns their results **indexed by item**,
/// or the error of the lowest-numbered failing item — exactly what serial
/// execution would surface.
///
/// Items are assigned cyclically (worker `w` takes items `w`, `w + T`,
/// `w + 2T`, …), so a sweep whose later points are more expensive — e.g.
/// group sizes 100…1000 laid out point-major — still spreads evenly over
/// the pool. `init` builds one worker-local state (e.g. the instantiated
/// mechanism set), shared by all items that worker executes. Each worker
/// stops at its own first error; the items it skips come *after* that
/// error in item order, so the item-order scan below still finds the
/// globally first failure deterministically while avoiding wasted work on
/// the error path.
fn fan_out_items<T, S, I, J>(
    items: usize,
    threads: usize,
    init: I,
    job: J,
) -> Result<Vec<T>, SimError>
where
    T: Send,
    I: Fn() -> S + Sync,
    J: Fn(&mut S, usize) -> Result<T, SimError> + Sync,
{
    let threads = effective_threads(threads, items);
    let run_stride = |worker: usize| -> Vec<Option<Result<T, SimError>>> {
        let mut state = init();
        let mut out = Vec::with_capacity(items.div_ceil(threads));
        let mut failed = false;
        let mut item = worker;
        while item < items {
            if failed {
                out.push(None);
            } else {
                let record = job(&mut state, item);
                failed = record.is_err();
                out.push(Some(record));
            }
            item += threads;
        }
        out
    };
    let mut per_worker: Vec<Vec<Option<Result<T, SimError>>>> = if threads <= 1 {
        vec![run_stride(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let run_stride = &run_stride;
                    scope.spawn(move || run_stride(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scheduler worker panicked"))
                .collect()
        })
    };
    // Reassemble in item order. A `None` slot can only sit *behind* its
    // worker's first error in item order, so the first non-`Ok` slot this
    // scan meets is always the globally lowest-numbered error.
    let mut out = Vec::with_capacity(items);
    for item in 0..items {
        match per_worker[item % threads][item / threads].take() {
            Some(Ok(value)) => out.push(value),
            Some(Err(e)) => return Err(e),
            None => unreachable!("items are only skipped after an earlier error in their stride"),
        }
    }
    Ok(out)
}

/// The full experiment grid one scheduler invocation executes: device
/// sweep points × payload variants × mechanisms × runs.
///
/// Work items are **(device point × run)** pairs; payload variants and
/// mechanisms ride inside an item so they can share the run's population,
/// grouping input and per-mechanism plan.
pub(crate) struct GridSpec<'a> {
    /// Device population mix.
    pub mix: &'a TrafficMix,
    /// Device sweep points (group sizes), one outer grid row each.
    pub devices: &'a [usize],
    /// Payload/protocol variants, one inner grid column each. The
    /// mechanisms' plans are payload-independent and shared across these.
    pub sims: &'a [SimConfig],
    /// Mechanism set, in presentation order.
    pub kinds: &'a [MechanismKind],
    /// Repetitions per point.
    pub runs: u32,
    /// Master seed; run `r` of every point derives from `child(r)`.
    pub master_seed: u64,
    /// Grouping parameters.
    pub grouping: GroupingParams,
    /// Power profile for the energy metric.
    pub power: &'a PowerProfile,
    /// Compare against a per-run unicast baseline. When `false` the
    /// relative metrics are zero (sweeps that only need absolute counts
    /// skip the baseline's cost).
    pub baseline: bool,
    /// Population churn applied across campaign epochs after the
    /// epoch-0 delivery (`None` = static population, the classic path).
    pub churn: Option<&'a ChurnModel>,
    /// When to re-plan on the evolved population (ignored without churn).
    pub regroup: RegroupPolicy,
    /// Worker threads (`0` = all cores, `1` = serial).
    pub threads: usize,
}

/// Plans once, then executes the plan under every payload variant with a
/// cloned post-plan RNG — bit-identical to planning from scratch per
/// variant, since planning is deterministic in (input, RNG stream).
/// Returns the plan too: churn repair patches it, and its improvement
/// record feeds the `cover_cost_*`/`improve_*` metrics.
fn execute_per_payload(
    mechanism: &dyn GroupingMechanism,
    input: &GroupingInput,
    sims: &[SimConfig],
    rng: &mut StdRng,
) -> Result<(MulticastPlan, Vec<CampaignResult>), SimError> {
    let plan = mechanism.plan(input, rng)?;
    plan.validate(input)?;
    let results = sims
        .iter()
        .map(|sim| engine::execute(input, &plan, sim, &mut rng.clone()))
        .collect();
    Ok((plan, results))
}

/// Per-transmission deepest-recipient coverage histogram of a plan,
/// indexed by `CoverageClass as usize`. A transmission is served at the
/// repetition level of its worst-coverage recipient, so this histogram is
/// the only plan-dependent input the airtime metrics need — the payload
/// then scales each class's transfer time independently. The plan has
/// been validated, so every recipient resolves to a device position.
fn coverage_histogram(plan: &MulticastPlan, input: &GroupingInput) -> [u64; 3] {
    let coverages = input.coverages();
    let mut hist = [0u64; 3];
    for tx in &plan.transmissions {
        let deepest = tx
            .recipients
            .iter()
            .map(|&id| {
                let i = input
                    .position_of(id)
                    .expect("validate: every recipient is a group member");
                coverages[i]
            })
            .max()
            .unwrap_or_default();
        hist[deepest as usize] += 1;
    }
    hist
}

/// Computes `(plan_airtime_ms, airtime_vs_count_ratio)` for one payload
/// variant from a plan's coverage histogram. The ratio guards its
/// denominator: a plan with no transmissions (or a zero-duration
/// transfer) reports 0.0 instead of NaN/inf.
fn airtime_metrics(hist: &[u64; 3], sim: &SimConfig) -> (f64, f64) {
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
    let ratio = if count_estimate_ms == 0 {
        0.0
    } else {
        airtime_ms as f64 / count_estimate_ms as f64
    };
    (airtime_ms as f64, ratio)
}

/// One (device point × run) work item: fresh population and grouping
/// input, shared by the unicast baseline and every mechanism across every
/// payload variant. Returns rows indexed `[payload][mechanism]`.
///
/// When the spec declares churn, the fleet then evolves across the
/// model's epochs (one shared [`ChurnTimeline`] per item) and each
/// mechanism's staleness/re-grouping trajectory is evaluated on top —
/// the classic epoch-0 metrics above are never touched, which is what
/// keeps zero-churn runs bit-identical to the static engine.
fn grid_item(
    spec: &GridSpec<'_>,
    mechanisms: &[Box<dyn GroupingMechanism>],
    n_devices: usize,
    run: usize,
) -> Result<Vec<Vec<MechRun>>, SimError> {
    let run_seq = SeedSequence::new(spec.master_seed).child(run as u64);
    let population = spec.mix.generate(n_devices, &mut run_seq.rng(0))?;
    let input = GroupingInput::from_population(&population, spec.grouping)?;
    let baselines = if spec.baseline {
        Some(execute_per_payload(
            &Unicast::new(),
            &input,
            spec.sims,
            &mut run_seq.rng(1),
        )?)
    } else {
        None
    };
    let mut rows: Vec<Vec<MechRun>> = (0..spec.sims.len())
        .map(|_| Vec::with_capacity(spec.kinds.len()))
        .collect();
    let mut plans: Vec<MulticastPlan> = Vec::with_capacity(spec.kinds.len());
    for (i, (kind, mechanism)) in spec.kinds.iter().zip(mechanisms).enumerate() {
        let (plan, results) = match &baselines {
            // The baseline already executed unicast on this population;
            // reuse it (and leave the mechanism's RNG stream untouched,
            // matching what a dedicated unicast row would observe).
            Some((bplan, base)) if *kind == MechanismKind::Unicast => (bplan.clone(), base.clone()),
            _ => execute_per_payload(
                mechanism.as_ref(),
                &input,
                spec.sims,
                &mut run_seq.rng(2 + i as u64),
            )?,
        };
        // The plan (and hence its improvement record) is shared by every
        // payload variant.
        let mut work = RegroupWork::default();
        work.absorb(&plan);
        let hist = coverage_histogram(&plan, &input);
        for (p, result) in results.iter().enumerate() {
            let baseline = baselines.as_ref().map_or(result, |(_, b)| &b[p]);
            let rel = result.mean_relative_vs(baseline);
            let (plan_airtime_ms, airtime_vs_count_ratio) = airtime_metrics(&hist, &spec.sims[p]);
            rows[p].push(MechRun {
                rel_light_sleep: rel.light_sleep,
                rel_connected: rel.connected,
                transmissions: result.transmission_count as f64,
                plan_airtime_ms,
                airtime_vs_count_ratio,
                mean_wait_s: result.mean_wait.as_secs_f64(),
                mean_connected_s: result.mean_connected_ms() / 1000.0,
                mean_energy_mj: result.mean_energy_mj(spec.power),
                ra_failures: result.ra_failures as f64,
                late_joins: result.late_joins as f64,
                regroups: 0.0,
                stale_miss_ratio: 0.0,
                cover_cost_initial: work.cover_cost_initial,
                cover_cost_final: work.cover_cost_final,
                improve_moves: work.improve_moves,
                improve_budget: work.improve_budget,
                compliant: result.standards_compliant,
            });
        }
        plans.push(plan);
    }
    if let Some(model) = spec.churn.filter(|m| !m.is_static()) {
        let timeline = ChurnTimeline::evolve(model, spec.mix, &population, &run_seq)?;
        // Staleness is identity-based, so the policy trajectory is shared
        // by every mechanism; only the re-planning work is per-mechanism.
        let trajectory = churn::plan_trajectory(&timeline, spec.regroup, &population);
        for (i, mechanism) in mechanisms.iter().enumerate() {
            let work = churn::replan_mechanism(
                &timeline,
                &trajectory,
                spec.grouping,
                &churn::ReplanTarget {
                    index: i,
                    mechanism: mechanism.as_ref(),
                    epoch0_plan: &plans[i],
                },
                &run_seq,
                spec.regroup,
            )?;
            // The outcome is payload-independent, like the plan itself.
            for payload_rows in &mut rows {
                payload_rows[i].regroups = trajectory.outcome.regroups;
                payload_rows[i].stale_miss_ratio = trajectory.outcome.stale_miss_ratio;
                payload_rows[i].cover_cost_initial += work.cover_cost_initial;
                payload_rows[i].cover_cost_final += work.cover_cost_final;
                payload_rows[i].improve_moves += work.improve_moves;
                payload_rows[i].improve_budget += work.improve_budget;
            }
        }
    }
    Ok(rows)
}

/// Executes an arbitrary subset of the grid's work items (identified by
/// their global indices, `item = point * runs + run`) through the
/// scheduler and returns their raw records **in the given order**.
///
/// This is the sharding primitive: every item is a pure function of
/// (spec, item index), so any partition of the item pool — including a
/// single-host "all items" run — produces records that can later be
/// reassembled and folded bit-identically to serial execution.
pub(crate) fn execute_grid_subset(
    spec: &GridSpec<'_>,
    items: &[usize],
) -> Result<Vec<ItemRows>, SimError> {
    let runs = spec.runs as usize;
    fan_out_items(
        items.len(),
        spec.threads,
        || {
            spec.kinds
                .iter()
                .map(|k| k.instantiate())
                .collect::<Vec<Box<dyn GroupingMechanism>>>()
        },
        |mechanisms, i| {
            let item = items[i];
            grid_item(spec, mechanisms, spec.devices[item / runs], item % runs)
        },
    )
}

/// Folds the complete, item-ordered record set into one
/// [`ComparisonResult`] per (device point × payload variant) — the exact
/// push sequence serial execution performs, which is what keeps every
/// thread count *and* every sharding bit-identical. The fold consumes
/// records strictly in item order (device-major, run-minor), so callers
/// hand over borrowed records without materializing a copy. Output is
/// indexed `[device point][payload variant]`.
pub(crate) fn fold_grid<'a>(
    spec: &GridSpec<'_>,
    records: impl Iterator<Item = &'a ItemRows>,
) -> Vec<Vec<ComparisonResult>> {
    let runs = spec.runs as usize;
    let mut records = records;
    let mut grid = Vec::with_capacity(spec.devices.len());
    for &n_devices in spec.devices {
        let mut per_payload: Vec<Vec<(MechanismKind, MechStats)>> = (0..spec.sims.len())
            .map(|_| {
                spec.kinds
                    .iter()
                    .map(|&k| (k, MechStats::default()))
                    .collect()
            })
            .collect();
        for _ in 0..runs {
            let item = records.next().expect("one record per (point, run) item");
            for (payload_rows, acc) in item.iter().zip(per_payload.iter_mut()) {
                for (row, (_, stats)) in payload_rows.iter().zip(acc.iter_mut()) {
                    stats.push(row, n_devices);
                }
            }
        }
        grid.push(
            per_payload
                .into_iter()
                .map(|acc| ComparisonResult {
                    n_devices,
                    runs: spec.runs,
                    mechanisms: acc
                        .into_iter()
                        .map(|(kind, s)| s.into_summary(kind))
                        .collect(),
                })
                .collect(),
        );
    }
    grid
}

/// Executes the whole grid through the scheduler and folds the per-item
/// records in run order. Output is indexed `[device point][payload
/// variant]`.
pub(crate) fn execute_grid(spec: &GridSpec<'_>) -> Result<Vec<Vec<ComparisonResult>>, SimError> {
    let items: Vec<usize> = (0..spec.devices.len() * spec.runs as usize).collect();
    let records = execute_grid_subset(spec, &items)?;
    Ok(fold_grid(spec, records.iter()))
}

/// Runs the paper's comparison methodology.
///
/// For every run: generate a fresh population, execute the unicast
/// baseline, then every requested mechanism on the *same* population, and
/// accumulate per-run means of the relative metrics. Work items execute
/// across [`ExperimentConfig::threads`] workers; the aggregation folds the
/// per-run records in run order, so the result is bit-identical for every
/// thread count.
///
/// # Errors
///
/// Propagates population, grouping and plan-validation failures (the
/// lowest-numbered failing run wins, matching serial execution), and
/// rejects degenerate configurations.
pub fn run_comparison(
    config: &ExperimentConfig,
    kinds: &[MechanismKind],
) -> Result<ComparisonResult, SimError> {
    if config.n_devices == 0 || config.runs == 0 {
        return Err(SimError::DegenerateExperiment {
            n_devices: config.n_devices,
            runs: config.runs,
        });
    }
    let grid = execute_grid(&GridSpec {
        mix: &config.mix,
        devices: &[config.n_devices],
        sims: std::slice::from_ref(&config.sim),
        kinds,
        runs: config.runs,
        master_seed: config.master_seed,
        grouping: config.grouping,
        power: &config.power,
        baseline: true,
        churn: None,
        regroup: RegroupPolicy::default(),
        threads: config.threads,
    })?;
    Ok(grid
        .into_iter()
        .flatten()
        .next()
        .expect("grid has exactly one point"))
}

#[derive(Debug, Clone)]
struct MechStats {
    rel_light_sleep: RunningStats,
    rel_connected: RunningStats,
    transmissions: RunningStats,
    transmissions_ratio: RunningStats,
    plan_airtime_ms: RunningStats,
    airtime_vs_count_ratio: RunningStats,
    mean_wait_s: RunningStats,
    mean_connected_s: RunningStats,
    mean_energy_mj: RunningStats,
    ra_failures: RunningStats,
    late_joins: RunningStats,
    regroup_count: RunningStats,
    stale_miss_ratio: RunningStats,
    cover_cost_initial: RunningStats,
    cover_cost_final: RunningStats,
    improve_moves: RunningStats,
    improve_budget: RunningStats,
    compliant: bool,
}

impl MechStats {
    fn push(&mut self, row: &MechRun, n_devices: usize) {
        self.rel_light_sleep.push(row.rel_light_sleep);
        self.rel_connected.push(row.rel_connected);
        self.transmissions.push(row.transmissions);
        self.transmissions_ratio
            .push(row.transmissions / n_devices as f64);
        self.plan_airtime_ms.push(row.plan_airtime_ms);
        self.airtime_vs_count_ratio.push(row.airtime_vs_count_ratio);
        self.mean_wait_s.push(row.mean_wait_s);
        self.mean_connected_s.push(row.mean_connected_s);
        self.mean_energy_mj.push(row.mean_energy_mj);
        self.ra_failures.push(row.ra_failures);
        self.late_joins.push(row.late_joins);
        self.regroup_count.push(row.regroups);
        self.stale_miss_ratio.push(row.stale_miss_ratio);
        self.cover_cost_initial.push(row.cover_cost_initial);
        self.cover_cost_final.push(row.cover_cost_final);
        self.improve_moves.push(row.improve_moves);
        self.improve_budget.push(row.improve_budget);
        self.compliant &= row.compliant;
    }

    fn into_summary(self, kind: MechanismKind) -> MechanismSummary {
        MechanismSummary {
            mechanism: kind.to_string(),
            standards_compliant: self.compliant,
            rel_light_sleep: self.rel_light_sleep.summary(),
            rel_connected: self.rel_connected.summary(),
            transmissions: self.transmissions.summary(),
            transmissions_ratio: self.transmissions_ratio.summary(),
            plan_airtime_ms: self.plan_airtime_ms.summary(),
            airtime_vs_count_ratio: self.airtime_vs_count_ratio.summary(),
            mean_wait_s: self.mean_wait_s.summary(),
            mean_connected_s: self.mean_connected_s.summary(),
            mean_energy_mj: self.mean_energy_mj.summary(),
            ra_failures: self.ra_failures.summary(),
            late_joins: self.late_joins.summary(),
            regroup_count: self.regroup_count.summary(),
            stale_miss_ratio: self.stale_miss_ratio.summary(),
            cover_cost_initial: self.cover_cost_initial.summary(),
            cover_cost_final: self.cover_cost_final.summary(),
            improve_moves: self.improve_moves.summary(),
            improve_budget: self.improve_budget.summary(),
        }
    }
}

impl Default for MechStats {
    fn default() -> Self {
        MechStats {
            rel_light_sleep: RunningStats::new(),
            rel_connected: RunningStats::new(),
            transmissions: RunningStats::new(),
            transmissions_ratio: RunningStats::new(),
            plan_airtime_ms: RunningStats::new(),
            airtime_vs_count_ratio: RunningStats::new(),
            mean_wait_s: RunningStats::new(),
            mean_connected_s: RunningStats::new(),
            mean_energy_mj: RunningStats::new(),
            ra_failures: RunningStats::new(),
            late_joins: RunningStats::new(),
            regroup_count: RunningStats::new(),
            stale_miss_ratio: RunningStats::new(),
            cover_cost_initial: RunningStats::new(),
            cover_cost_final: RunningStats::new(),
            improve_moves: RunningStats::new(),
            improve_budget: RunningStats::new(),
            compliant: true,
        }
    }
}

/// One point of a group-size sweep (Fig. 7).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepPoint {
    /// Group size.
    pub n_devices: usize,
    /// Transmission-count statistics for the swept mechanism.
    pub transmissions: Summary,
    /// Transmissions as a fraction of the group size.
    pub ratio_to_devices: Summary,
}

/// Sweeps group sizes for one mechanism — the Fig. 7 x-axis.
///
/// The whole sweep executes as one scheduler invocation whose work items
/// are (point × run) pairs, so [`ExperimentConfig::threads`] workers span
/// *all* points at once instead of draining them one by one; the run-order
/// fold keeps every point bit-identical for every thread count. The
/// unicast baseline is skipped (transmission counts need no reference).
///
/// # Errors
///
/// Rejects an empty size list with [`SimError::EmptySweep`] (an empty
/// sweep used to return an empty result set, which downstream figure
/// code silently rendered as a zero-point plot), and propagates
/// population, grouping and plan-validation failures.
pub fn sweep_devices(
    base: &ExperimentConfig,
    kind: MechanismKind,
    sizes: &[usize],
) -> Result<Vec<SweepPoint>, SimError> {
    if sizes.is_empty() {
        return Err(SimError::EmptySweep);
    }
    let grid = execute_grid(&GridSpec {
        mix: &base.mix,
        devices: sizes,
        sims: std::slice::from_ref(&base.sim),
        kinds: &[kind],
        runs: base.runs,
        master_seed: base.master_seed,
        grouping: base.grouping,
        power: &base.power,
        baseline: false,
        churn: None,
        regroup: RegroupPolicy::default(),
        threads: base.threads,
    })?;
    Ok(grid
        .into_iter()
        .flatten()
        .map(|cmp| {
            let m = &cmp.mechanisms[0];
            SweepPoint {
                n_devices: cmp.n_devices,
                transmissions: m.transmissions,
                ratio_to_devices: m.transmissions_ratio,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            n_devices: 30,
            runs: 3,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn degenerate_configs_rejected() {
        let mut cfg = small_config();
        cfg.runs = 0;
        assert!(matches!(
            run_comparison(&cfg, &[MechanismKind::DrSc]),
            Err(SimError::DegenerateExperiment { .. })
        ));
        let mut cfg2 = small_config();
        cfg2.n_devices = 0;
        assert!(matches!(
            run_comparison(&cfg2, &[MechanismKind::DrSc]),
            Err(SimError::DegenerateExperiment { .. })
        ));
    }

    #[test]
    fn unicast_vs_itself_is_zero() {
        let cmp = run_comparison(&small_config(), &[MechanismKind::Unicast]).unwrap();
        let u = cmp.mechanism("Unicast").unwrap();
        assert!(u.rel_light_sleep.mean.abs() < 1e-12);
        assert!(u.rel_connected.mean.abs() < 1e-12);
    }

    #[test]
    fn paper_mechanism_ordering_holds() {
        // Fig. 6(a): DR-SC adds nothing; DR-SI adds a sliver; DA-SC more.
        let cmp = run_comparison(&small_config(), &MechanismKind::PAPER_MECHANISMS).unwrap();
        let dr_sc = cmp.mechanism("DR-SC").unwrap().rel_light_sleep.mean;
        let da_sc = cmp.mechanism("DA-SC").unwrap().rel_light_sleep.mean;
        let dr_si = cmp.mechanism("DR-SI").unwrap().rel_light_sleep.mean;
        assert!(dr_sc.abs() < 1e-9, "DR-SC {dr_sc}");
        assert!(dr_si > 0.0, "DR-SI {dr_si}");
        assert!(da_sc > dr_si, "DA-SC {da_sc} vs DR-SI {dr_si}");
    }

    #[test]
    fn single_transmission_mechanisms() {
        let cmp = run_comparison(
            &small_config(),
            &[
                MechanismKind::DaSc,
                MechanismKind::DrSi,
                MechanismKind::Unicast,
            ],
        )
        .unwrap();
        assert_eq!(cmp.mechanism("DA-SC").unwrap().transmissions.mean, 1.0);
        assert_eq!(cmp.mechanism("DR-SI").unwrap().transmissions.mean, 1.0);
        assert_eq!(cmp.mechanism("Unicast").unwrap().transmissions.mean, 30.0);
    }

    #[test]
    fn sweep_produces_requested_points() {
        let cfg = ExperimentConfig {
            runs: 2,
            ..small_config()
        };
        let points = sweep_devices(&cfg, MechanismKind::DrSc, &[10, 20]).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].n_devices, 10);
        assert!(points[1].transmissions.mean >= points[0].transmissions.mean);
    }

    #[test]
    fn empty_device_sweep_is_rejected() {
        // An empty size list used to come back as Ok(vec![]) — a
        // zero-point "sweep" that figure code happily rendered as an
        // empty plot.
        let err = sweep_devices(&small_config(), MechanismKind::DrSc, &[]).unwrap_err();
        assert!(matches!(err, SimError::EmptySweep), "{err}");
    }

    #[test]
    fn comparison_is_reproducible() {
        let a = run_comparison(&small_config(), &[MechanismKind::DrSi]).unwrap();
        let b = run_comparison(&small_config(), &[MechanismKind::DrSi]).unwrap();
        assert_eq!(
            a.mechanism("DR-SI").unwrap().rel_connected.mean,
            b.mechanism("DR-SI").unwrap().rel_connected.mean
        );
    }

    #[test]
    fn comparison_is_thread_count_invariant() {
        // The acceptance bar: every Summary field of every mechanism must
        // be bit-identical between serial and parallel execution.
        let base = ExperimentConfig {
            n_devices: 25,
            runs: 6,
            ..ExperimentConfig::default()
        };
        let serial = run_comparison(&base, &MechanismKind::ALL).unwrap();
        for threads in [2, 3, 8, 0] {
            let parallel = run_comparison(
                &ExperimentConfig {
                    threads,
                    ..base.clone()
                },
                &MechanismKind::ALL,
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let base = ExperimentConfig {
            runs: 4,
            ..small_config()
        };
        let serial = sweep_devices(&base, MechanismKind::DrSc, &[10, 25]).unwrap();
        let parallel = sweep_devices(
            &ExperimentConfig { threads: 8, ..base },
            MechanismKind::DrSc,
            &[10, 25],
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn multi_payload_grid_shares_plans_bit_identically() {
        // The shared-population/shared-plan fast path must be invisible:
        // every payload column of a grid equals a dedicated
        // run_comparison at that payload (which regenerates everything).
        let base = small_config();
        let payloads = [
            SimConfig::default(),
            SimConfig::default().with_payload(nbiot_phy::DataSize::from_mb(1)),
        ];
        let grid = execute_grid(&GridSpec {
            mix: &base.mix,
            devices: &[base.n_devices],
            sims: &payloads,
            kinds: &MechanismKind::ALL,
            runs: base.runs,
            master_seed: base.master_seed,
            grouping: base.grouping,
            power: &base.power,
            baseline: true,
            churn: None,
            regroup: RegroupPolicy::default(),
            threads: 1,
        })
        .unwrap();
        for (p, sim) in payloads.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.sim = *sim;
            let dedicated = run_comparison(&cfg, &MechanismKind::ALL).unwrap();
            assert_eq!(grid[0][p], dedicated, "payload column {p}");
        }
    }

    #[test]
    fn parallel_errors_match_serial_errors() {
        // A TI shorter than the shortest cycle fails in every run; the
        // parallel path must surface the same (first-run) error.
        let mut cfg = small_config();
        cfg.runs = 5;
        cfg.grouping.ti = nbiot_rrc::InactivityTimer::new(nbiot_time::SimDuration::from_ms(1));
        let serial = run_comparison(&cfg, &[MechanismKind::DrSc]).unwrap_err();
        cfg.threads = 4;
        let parallel = run_comparison(&cfg, &[MechanismKind::DrSc]).unwrap_err();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(16, 4), 4);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn scheduler_folds_in_item_order_and_surfaces_first_error() {
        // Pure-function scheduler check independent of the simulator.
        let squares = fan_out_items(10, 3, || (), |(), i| Ok::<usize, SimError>(i * i)).unwrap();
        assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
        // Two failing items: the lowest-numbered one wins for every
        // thread count, exactly as serial execution would surface it.
        for threads in [1, 2, 3, 8] {
            let err = fan_out_items(
                10,
                threads,
                || (),
                |(), i| {
                    if i == 7 || i == 4 {
                        Err(SimError::DegenerateExperiment {
                            n_devices: i,
                            runs: 0,
                        })
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::DegenerateExperiment { n_devices: 4, .. }),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn display_lists_mechanisms() {
        let cmp = run_comparison(&small_config(), &[MechanismKind::DrSc]).unwrap();
        assert!(cmp.to_string().contains("DR-SC"));
    }
}
