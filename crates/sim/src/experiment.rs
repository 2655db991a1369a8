//! The paper's experimental methodology: same populations, mechanisms
//! compared against the per-run unicast baseline, averaged over runs.
//!
//! # One scheduler for every grid
//!
//! Every experiment — a single comparison, a device sweep or a whole
//! figure suite — is a [`Scenario`] grid, executed whole by
//! [`run_scenario`](crate::run_scenario) or one shard at a time by
//! `run_scenario_shard`. Both run one generic work-item scheduler
//! ([`fan_out_items`]) whose unit of parallelism is a **(sweep point ×
//! run)** pair. The thread pool therefore spans entire sweeps and figure
//! suites instead of draining one point at a time.
//!
//! Every item is a pure function of its [`SeedSequence`] child (seeds
//! derive per-run via `seq.child(run)`), items are distributed cyclically
//! across workers for load balance, and the per-item records are folded
//! back **in item order** on the coordinating thread — the same push
//! sequence serial execution performs. That makes every [`Summary`] field
//! bit-identical regardless of the thread count, verified by
//! `scenario_threads_are_bit_identical` and
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
//!
//! # One plan in memory at a time
//!
//! A row needs only population sums of a campaign's ledgers, so the
//! engine's device pass adds each ledger into [`PopulationSums`] and no
//! ledger is stored. A static item drops the population once the input is
//! built and each plan once its rows are written; a churned item keeps
//! both for the epochs.
//!
//! # Churned epochs
//!
//! When the scenario declares churn, the item then runs one epoch-major
//! loop: the fleet takes one [`ChurnModel::step`], and every mechanism
//! serves its plan to it through [`ServedPlan::serve`] — the serve step
//! the grouping service (`nbiot-service`) runs per campaign request.

use core::fmt;

use nbiot_des::{RunningStats, SeedSequence, Summary};
use nbiot_energy::PowerProfile;
use nbiot_grouping::{GroupingInput, GroupingMechanism, MechanismKind, MulticastPlan, Unicast};
use nbiot_phy::{CoverageClass, NpdschConfig};
use nbiot_traffic::{ChurnModel, Population};
use rand::rngs::StdRng;

use crate::churn::{PlannedFleet, ServeAction, ServedPlan};
use crate::engine::{self, CellOutcome};
use crate::result::PopulationSums;
use crate::{PointResult, Scenario, ScenarioResult, SimConfig, SimError};

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
    /// scenarios; see [`RegroupPolicy`](crate::RegroupPolicy)).
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

/// One payload's campaign of a plan, as a grid row reads it: the
/// population sums of its ledgers and what it measured at the cell.
type FoldedCampaign = (PopulationSums, CellOutcome);

/// Plans once, then executes the plan under every payload variant with a
/// cloned post-plan RNG — bit-identical to planning from scratch per
/// variant, since planning is deterministic in (input, RNG stream). Each
/// campaign's ledgers are folded into population sums (energy priced by
/// `power`) as the engine produces them. Returns the plan too: churn
/// repair patches it, and its improvement record feeds the
/// `cover_cost_*`/`improve_*` metrics.
fn execute_per_payload(
    mechanism: &dyn GroupingMechanism,
    input: &GroupingInput,
    sims: &[SimConfig],
    power: &PowerProfile,
    rng: &mut StdRng,
) -> Result<(MulticastPlan, Vec<FoldedCampaign>), SimError> {
    let plan = mechanism.plan(input, rng)?;
    plan.validate(input)?;
    let campaigns = sims
        .iter()
        .map(|sim| {
            let mut sums = PopulationSums::new(power);
            let cell = engine::execute(input, &plan, sim, &mut rng.clone(), |ledger| {
                sums.add(ledger)
            });
            (sums, cell)
        })
        .collect();
    Ok((plan, campaigns))
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

/// Adds a plan's improvement record (none for greedy plans and
/// baselines) to the run's `cover_cost_*` / `improve_*` sums: the epoch-0
/// plan and every regroup plan of the run contribute.
fn absorb_improvement(row: &mut MechRun, plan: &MulticastPlan) {
    if let Some(stats) = plan.improvement {
        row.cover_cost_initial += f64::from(stats.initial_cost);
        row.cover_cost_final += f64::from(stats.final_cost);
        row.improve_moves += f64::from(stats.moves_accepted);
        row.improve_budget += f64::from(stats.budget_spent);
    }
}

/// RNG stream ids of the churn machinery inside one (point × run) item.
/// The static path uses streams 0 (population), 1 (baseline) and `2 + i`
/// (mechanism `i`); churn streams branch through [`SeedSequence::child`]
/// at ids far above any plausible mechanism count so the stream spaces
/// can never collide: the fleet evolves on `child(CHURN_EVOLVE_CHILD)`
/// and mechanism `i` re-plans on `child(REGROUP_CHILD_BASE + i)`, one
/// `rng(epoch)` per epoch.
const CHURN_EVOLVE_CHILD: u64 = 1 << 40;
const REGROUP_CHILD_BASE: u64 = (1 << 40) + 1;

/// One (device point × run) work item: fresh population and grouping
/// input, shared by the unicast baseline and every mechanism across every
/// payload variant (`sims`, one per scenario payload). Returns rows
/// indexed `[payload][mechanism]`.
///
/// When the scenario declares churn, [`serve_epochs`] then serves each
/// mechanism's plan to the evolving fleet; the classic epoch-0 metrics
/// are never touched, which is what keeps zero-churn runs bit-identical
/// to the static engine. The epochs are the only reader of the
/// population and of the plans once the rows are written, so a static
/// item drops each as soon as it has used it.
fn grid_item(
    scenario: &Scenario,
    sims: &[SimConfig],
    mechanisms: &[Box<dyn GroupingMechanism>],
    n_devices: usize,
    run: usize,
) -> Result<ItemRows, SimError> {
    let run_seq = SeedSequence::new(scenario.master_seed).child(run as u64);
    let population = scenario.mix.generate(n_devices, &mut run_seq.rng(0))?;
    let input = GroupingInput::from_population(&population, scenario.grouping)?;
    // A static item drops the population here.
    let churn = scenario
        .churn
        .as_ref()
        .filter(|m| !m.is_static())
        .map(|model| (model, population));
    let kinds = &scenario.mechanisms;
    let baseline = if scenario.baseline {
        let (plan, campaigns) = execute_per_payload(
            &Unicast::new(),
            &input,
            sims,
            &scenario.power,
            &mut run_seq.rng(1),
        )?;
        // Only a unicast row reads the baseline's plan.
        let plan = kinds.contains(&MechanismKind::Unicast).then_some(plan);
        Some((plan, campaigns))
    } else {
        None
    };
    let mut rows: ItemRows = (0..sims.len())
        .map(|_| Vec::with_capacity(kinds.len()))
        .collect();
    let mut plans: Vec<MulticastPlan> = Vec::new();
    for (i, (kind, mechanism)) in kinds.iter().zip(mechanisms).enumerate() {
        let (plan, campaigns) = match &baseline {
            // The baseline already executed unicast on this population;
            // reuse it (and leave the mechanism's RNG stream untouched,
            // matching what a dedicated unicast row would observe).
            Some((Some(bplan), base)) if *kind == MechanismKind::Unicast => {
                (bplan.clone(), base.clone())
            }
            _ => execute_per_payload(
                mechanism.as_ref(),
                &input,
                sims,
                &scenario.power,
                &mut run_seq.rng(2 + i as u64),
            )?,
        };
        let hist = coverage_histogram(&plan, &input);
        let mean_wait_s = plan.mean_wait().as_secs_f64();
        for (p, (sums, cell)) in campaigns.iter().enumerate() {
            let base = baseline.as_ref().map_or(sums, |(_, b)| &b[p].0);
            let rel = sums.relative_vs(base);
            let (plan_airtime_ms, airtime_vs_count_ratio) = airtime_metrics(&hist, &sims[p]);
            let mut row = MechRun {
                rel_light_sleep: rel.light_sleep,
                rel_connected: rel.connected,
                transmissions: plan.transmissions.len() as f64,
                plan_airtime_ms,
                airtime_vs_count_ratio,
                mean_wait_s,
                mean_connected_s: sums.mean_connected_ms() / 1000.0,
                mean_energy_mj: sums.mean_energy_mj(),
                ra_failures: cell.ra_failures as f64,
                late_joins: cell.late_joins as f64,
                regroups: 0.0,
                stale_miss_ratio: 0.0,
                cover_cost_initial: 0.0,
                cover_cost_final: 0.0,
                improve_moves: 0.0,
                improve_budget: 0.0,
                compliant: plan.standards_compliant,
            };
            // The plan (and hence its improvement record) is shared by
            // every payload variant.
            absorb_improvement(&mut row, &plan);
            rows[p].push(row);
        }
        if churn.is_some() {
            plans.push(plan);
        }
    }
    if let Some((model, fleet)) = churn {
        serve_epochs(
            scenario, model, mechanisms, fleet, plans, &run_seq, &mut rows,
        )?;
    }
    Ok(rows)
}

/// Evolves `fleet` across the churn model's epochs and serves every
/// mechanism's plan to it once per epoch through [`ServedPlan::serve`],
/// starting from the epoch-0 `plans`. Each mechanism's regroups, stale
/// misses and regroup-plan improvement work land in its rows; they are
/// payload-independent, like the plans.
///
/// # Errors
///
/// Churn-step, grouping-input and plan failures on an evolved fleet, in
/// (epoch, mechanism) order.
fn serve_epochs(
    scenario: &Scenario,
    model: &ChurnModel,
    mechanisms: &[Box<dyn GroupingMechanism>],
    mut fleet: Population,
    plans: Vec<MulticastPlan>,
    run_seq: &SeedSequence,
    rows: &mut ItemRows,
) -> Result<(), SimError> {
    let planned = PlannedFleet::snapshot(&fleet);
    // Per mechanism: the served plan, fleet events since it was planned,
    // and the device-epochs it missed.
    let mut state: Vec<(ServedPlan, u64, usize)> = plans
        .into_iter()
        .map(|plan| {
            let planned = planned.clone();
            (ServedPlan { plan, planned }, 0, 0)
        })
        .collect();
    let base_size = fleet.len();
    let mut next_id = base_size as u32;
    let mut device_epochs = 0usize;
    for epoch in 1..=u64::from(model.epochs) {
        let mut rng = run_seq.child(CHURN_EVOLVE_CHILD).rng(epoch);
        let (evolved, events) =
            model.step(&scenario.mix, &fleet, base_size, &mut next_id, &mut rng)?;
        fleet = evolved;
        device_epochs += fleet.len();
        for (i, (mechanism, (served, events_since_plan, misses))) in
            mechanisms.iter().zip(&mut state).enumerate()
        {
            *events_since_plan += events.total() as u64;
            let replan = |input: &GroupingInput| {
                let stream = run_seq.child(REGROUP_CHILD_BASE + i as u64);
                mechanism.plan(input, &mut stream.rng(epoch))
            };
            let (action, missed, _) = served.serve(
                scenario.regroup,
                &fleet,
                *events_since_plan,
                scenario.grouping,
                replan,
            )?;
            if action == ServeAction::Cached {
                *misses += missed;
                continue;
            }
            *events_since_plan = 0;
            for payload_rows in rows.iter_mut() {
                payload_rows[i].regroups += 1.0;
                absorb_improvement(&mut payload_rows[i], &served.plan);
            }
        }
    }
    for payload_rows in rows.iter_mut() {
        for (row, &(_, _, misses)) in payload_rows.iter_mut().zip(&state) {
            row.stale_miss_ratio = if device_epochs == 0 {
                0.0
            } else {
                misses as f64 / device_epochs as f64
            };
        }
    }
    Ok(())
}

/// Executes an arbitrary subset of a scenario's work items (identified by
/// their global indices, `item = point * runs + run`) through the
/// scheduler and returns their raw records **in the given order**. The
/// per-payload simulator configurations are derived once per call.
///
/// This is the sharding primitive: every item is a pure function of
/// (scenario, item index), so any partition of the item pool — including
/// a single-host "all items" run — produces records that can later be
/// reassembled and folded bit-identically to serial execution.
pub(crate) fn execute_grid_subset(
    scenario: &Scenario,
    items: &[usize],
) -> Result<Vec<ItemRows>, SimError> {
    let sims: Vec<SimConfig> = scenario
        .payloads
        .iter()
        .map(|&payload| scenario.sim.with_payload(payload))
        .collect();
    let runs = scenario.runs as usize;
    fan_out_items(
        items.len(),
        scenario.threads,
        || {
            scenario
                .mechanisms
                .iter()
                .map(|k| k.instantiate())
                .collect::<Vec<Box<dyn GroupingMechanism>>>()
        },
        |mechanisms, i| {
            let item = items[i];
            grid_item(
                scenario,
                &sims,
                mechanisms,
                scenario.devices[item / runs],
                item % runs,
            )
        },
    )
}

/// Folds the complete, item-ordered record set of a scenario into its
/// [`ScenarioResult`]: one [`ComparisonResult`] per (device point ×
/// payload variant), device-major. Each summary statistic collects its
/// metric over the point's runs in item order — the exact push sequence
/// serial execution performs, which is what keeps every thread count
/// *and* every sharding bit-identical. The fold consumes records strictly
/// in item order (device-major, run-minor), so callers hand over borrowed
/// records without materializing a copy.
pub(crate) fn fold_grid<'a>(
    scenario: &Scenario,
    records: impl Iterator<Item = &'a ItemRows>,
) -> ScenarioResult {
    let mut records = records;
    let mut points = Vec::with_capacity(scenario.devices.len() * scenario.payloads.len());
    for &n_devices in &scenario.devices {
        let runs: Vec<&ItemRows> = (0..scenario.runs)
            .map(|_| records.next().expect("one record per (point, run) item"))
            .collect();
        for (p, &payload) in scenario.payloads.iter().enumerate() {
            let mechanisms = scenario
                .mechanisms
                .iter()
                .enumerate()
                .map(|(m, &kind)| summarize(kind, n_devices, runs.iter().map(|item| &item[p][m])))
                .collect();
            points.push(PointResult {
                n_devices,
                payload,
                comparison: ComparisonResult {
                    n_devices,
                    runs: scenario.runs,
                    mechanisms,
                },
            });
        }
    }
    ScenarioResult {
        scenario: scenario.name.clone(),
        mix: scenario.mix.name.clone(),
        ti_s: scenario.ti_seconds(),
        runs: scenario.runs,
        points,
    }
}

/// One mechanism's summary over its per-run rows at a point of
/// `n_devices` devices.
fn summarize<'a>(
    kind: MechanismKind,
    n_devices: usize,
    rows: impl Iterator<Item = &'a MechRun> + Clone,
) -> MechanismSummary {
    let stat =
        |metric: fn(&MechRun) -> f64| rows.clone().map(metric).collect::<RunningStats>().summary();
    MechanismSummary {
        mechanism: kind.to_string(),
        standards_compliant: rows.clone().all(|r| r.compliant),
        rel_light_sleep: stat(|r| r.rel_light_sleep),
        rel_connected: stat(|r| r.rel_connected),
        transmissions: stat(|r| r.transmissions),
        transmissions_ratio: rows
            .clone()
            .map(|r| r.transmissions / n_devices as f64)
            .collect::<RunningStats>()
            .summary(),
        plan_airtime_ms: stat(|r| r.plan_airtime_ms),
        airtime_vs_count_ratio: stat(|r| r.airtime_vs_count_ratio),
        mean_wait_s: stat(|r| r.mean_wait_s),
        mean_connected_s: stat(|r| r.mean_connected_s),
        mean_energy_mj: stat(|r| r.mean_energy_mj),
        ra_failures: stat(|r| r.ra_failures),
        late_joins: stat(|r| r.late_joins),
        regroup_count: stat(|r| r.regroups),
        stale_miss_ratio: stat(|r| r.stale_miss_ratio),
        cover_cost_initial: stat(|r| r.cover_cost_initial),
        cover_cost_final: stat(|r| r.cover_cost_final),
        improve_moves: stat(|r| r.improve_moves),
        improve_budget: stat(|r| r.improve_budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_scenario;
    use nbiot_phy::DataSize;

    /// One serial 30-device point, three runs, of the given mechanisms.
    fn small(mechanisms: &[MechanismKind]) -> Scenario {
        Scenario {
            devices: vec![30],
            runs: 3,
            mechanisms: mechanisms.to_vec(),
            threads: 1,
            ..Scenario::default()
        }
    }

    /// The comparison at the single point of [`small`].
    fn compare(mechanisms: &[MechanismKind]) -> ComparisonResult {
        let mut result = run_scenario(&small(mechanisms)).unwrap();
        result.points.remove(0).comparison
    }

    #[test]
    fn unicast_vs_itself_is_zero() {
        let cmp = compare(&[MechanismKind::Unicast]);
        let u = cmp.mechanism("Unicast").unwrap();
        assert!(u.rel_light_sleep.mean.abs() < 1e-12);
        assert!(u.rel_connected.mean.abs() < 1e-12);
    }

    #[test]
    fn paper_mechanism_ordering_holds() {
        // Fig. 6(a): DR-SC adds nothing; DR-SI adds a sliver; DA-SC more.
        let cmp = compare(&MechanismKind::PAPER_MECHANISMS);
        let dr_sc = cmp.mechanism("DR-SC").unwrap().rel_light_sleep.mean;
        let da_sc = cmp.mechanism("DA-SC").unwrap().rel_light_sleep.mean;
        let dr_si = cmp.mechanism("DR-SI").unwrap().rel_light_sleep.mean;
        assert!(dr_sc.abs() < 1e-9, "DR-SC {dr_sc}");
        assert!(dr_si > 0.0, "DR-SI {dr_si}");
        assert!(da_sc > dr_si, "DA-SC {da_sc} vs DR-SI {dr_si}");
    }

    #[test]
    fn single_transmission_mechanisms() {
        let cmp = compare(&[
            MechanismKind::DaSc,
            MechanismKind::DrSi,
            MechanismKind::Unicast,
        ]);
        assert_eq!(cmp.mechanism("DA-SC").unwrap().transmissions.mean, 1.0);
        assert_eq!(cmp.mechanism("DR-SI").unwrap().transmissions.mean, 1.0);
        assert_eq!(cmp.mechanism("Unicast").unwrap().transmissions.mean, 30.0);
    }

    #[test]
    fn multi_payload_grid_shares_plans_bit_identically() {
        // The shared-population/shared-plan fast path must be invisible:
        // every payload column of a grid equals a dedicated one-payload
        // scenario at that payload (which regenerates everything).
        let mut grid = small(&MechanismKind::ALL);
        grid.payloads = vec![DataSize::from_kb(100), DataSize::from_mb(1)];
        let result = run_scenario(&grid).unwrap();
        for (point, &payload) in result.points.iter().zip(&grid.payloads) {
            let dedicated = Scenario {
                payloads: vec![payload],
                ..grid.clone()
            };
            let dedicated = run_scenario(&dedicated).unwrap();
            assert_eq!(
                point.comparison, dedicated.points[0].comparison,
                "payload {payload}"
            );
        }
    }

    #[test]
    fn parallel_errors_match_serial_errors() {
        // A TI shorter than the shortest cycle fails in every run; the
        // parallel path must surface the same (first-run) error.
        let mut scenario = small(&[MechanismKind::DrSc]);
        scenario.runs = 5;
        scenario.grouping.ti = nbiot_rrc::InactivityTimer::new(nbiot_time::SimDuration::from_ms(1));
        let serial = run_scenario(&scenario).unwrap_err();
        scenario.threads = 4;
        let parallel = run_scenario(&scenario).unwrap_err();
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
    fn an_empty_campaign_folds_to_the_means_of_its_result() {
        // A scenario point has at least one device, but the engine and
        // the fold take an empty fleet through the ordinary path.
        use rand::SeedableRng;
        let population = nbiot_traffic::TrafficMix::ericsson_city()
            .generate(0, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let input =
            GroupingInput::from_population(&population, nbiot_grouping::GroupingParams::default())
                .unwrap();
        let sims = [SimConfig::default()];
        let power = PowerProfile::default();
        for kind in MechanismKind::ALL {
            let mechanism = kind.instantiate();
            let rng = StdRng::seed_from_u64(3);
            let (_, folded) =
                execute_per_payload(mechanism.as_ref(), &input, &sims, &power, &mut rng.clone())
                    .unwrap();
            let (sums, cell) = &folded[0];
            let result =
                crate::run_campaign(mechanism.as_ref(), &input, &sims[0], &mut rng.clone())
                    .unwrap();
            assert_eq!(result.device_count(), 0, "{kind}");
            for (folded, collected) in [
                (sums.mean_connected_ms(), result.mean_connected_ms()),
                (sums.mean_energy_mj(), result.mean_energy_mj(&power)),
            ] {
                assert_eq!(folded.to_bits(), 0.0f64.to_bits(), "{kind}");
                assert_eq!(collected.to_bits(), 0.0f64.to_bits(), "{kind}");
            }
            assert_eq!(
                sums.relative_vs(sums),
                result.mean_relative_vs(&result),
                "{kind}"
            );
            assert_eq!(
                (cell.ra_failures, cell.late_joins),
                (result.ra_failures, result.late_joins),
                "{kind}"
            );
        }
    }

    #[test]
    fn display_lists_mechanisms() {
        assert!(compare(&[MechanismKind::DrSc])
            .to_string()
            .contains("DR-SC"));
    }

    #[test]
    fn churned_items_are_reproducible_and_stream_isolated() {
        let mut scenario = small(&[
            MechanismKind::DrSc,
            MechanismKind::DrScTabu(16),
            MechanismKind::DaSc,
        ]);
        scenario.mix = nbiot_traffic::TrafficMix::mobility_churn();
        scenario.churn = Some(ChurnModel {
            epochs: 3,
            departure_rate: 0.1,
            arrival_rate: 0.1,
            handover_rate: 0.2,
        });
        scenario.regroup = crate::RegroupPolicy::StalenessThreshold(0.15);
        let item = |s: &Scenario, run: usize| execute_grid_subset(s, &[run]).unwrap().remove(0);
        let a = item(&scenario, 0);
        assert_eq!(
            a,
            item(&scenario, 0),
            "an item is a pure function of its run"
        );
        let churn = |rows: &ItemRows| (rows[0][1].regroups, rows[0][1].improve_moves);
        assert!(churn(&a).0 > 0.0, "the fleet drifts past the threshold");
        assert_ne!(
            churn(&a),
            churn(&item(&scenario, 1)),
            "runs evolve own fleets"
        );
        // The fleet evolves on its own stream and each mechanism re-plans
        // on its own: dropping the last mechanism moves no other row.
        let mut fewer = scenario.clone();
        fewer.mechanisms.pop();
        for (all, kept) in a.iter().zip(&item(&fewer, 0)) {
            assert_eq!(&all[..2], &kept[..]);
        }
    }
}
