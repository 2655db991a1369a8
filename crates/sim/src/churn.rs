//! Re-grouping under device churn: plan staleness and recomputation.
//!
//! A [`Scenario`](crate::Scenario) may declare a
//! [`ChurnModel`](nbiot_traffic::ChurnModel): the population then evolves
//! across campaign epochs *after* the epoch-0 delivery that the classic
//! metrics measure, and every subsequent epoch re-delivers the content to
//! whatever fleet is present. A multicast plan pages devices at paging
//! occasions derived from their planning-time UE identities, so each
//! epoch a device is either **served** (it existed with the same identity
//! when the current plan was computed) or **stale-missed** (it arrived or
//! handed over since — its planned POs are wrong or absent).
//!
//! The [`RegroupPolicy`] decides when the mechanism re-plans on the
//! evolved [`GroupingInput`] — real planning work, including DR-SC's
//! set-cover solve (`docs/KERNELS.md`), so re-grouping cost is measurable
//! (`bench_report`'s `replan_churn_*` stages). A re-plan at an epoch
//! boundary serves that epoch exactly; skipping it trades signalling for
//! misses. The outcome feeds two per-mechanism summary metrics:
//! `regroup_count` (plan recomputations per run) and `stale_miss_ratio`
//! (missed device-epochs over **all** post-epoch-0 device-epochs —
//! re-planned epochs miss nothing but still widen the denominator, which
//! keeps the ratio comparable across policies).
//!
//! Zero-churn behaviour is pinned by `tests/churn_invariants.rs`: with
//! all rates zero the population never changes, no policy ever fires, and
//! every summary is bit-identical to the static engine.

use nbiot_des::SeedSequence;
use nbiot_grouping::{GroupingInput, GroupingMechanism, GroupingParams, MulticastPlan};
use nbiot_time::UeId;
use nbiot_traffic::{ChurnEvents, ChurnModel, DeviceId, Population, TrafficMix};

use crate::SimError;

/// When to recompute the grouping plan on the evolved population.
///
/// Every policy is a no-op on a quiet epoch (no arrivals, departures or
/// handovers since the last plan): re-planning an unchanged population
/// would reproduce the same plan, so the simulator skips it — which is
/// also what keeps zero-churn runs bit-identical to the static engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RegroupPolicy {
    /// Keep the epoch-0 plan for the whole campaign; churned devices ride
    /// the stale plan and miss.
    #[default]
    Never,
    /// Re-plan at every epoch boundary where the population changed.
    EveryEpoch,
    /// Re-plan when the stale fraction of the current population (devices
    /// the current plan cannot serve) exceeds this threshold.
    StalenessThreshold(f64),
    /// Patch the stale plan at every changed epoch boundary with the LNS
    /// repair pass ([`nbiot_grouping::repair_plan`]) instead of
    /// re-planning from scratch: kept windows stay, arrivals are attached
    /// or get freshly solved windows. Mechanisms whose plan shape is not
    /// repairable (adaptation, `mltc`, connectionless) fall back to a
    /// full re-plan. Serves every epoch, like [`RegroupPolicy::EveryEpoch`],
    /// at a fraction of the planning cost (`bench_report`'s
    /// `replan_churn_repair` stage).
    Repair,
}

impl RegroupPolicy {
    /// Parses a policy from its CLI spelling: `never`, `every-epoch`,
    /// `repair`, or `staleness:T` with a decimal threshold (e.g.
    /// `staleness:0.25`). Returns `None` for anything else. The threshold
    /// is parsed but not range-checked — call [`RegroupPolicy::validate`]
    /// afterwards.
    pub fn by_name(name: &str) -> Option<RegroupPolicy> {
        match name {
            "never" => Some(RegroupPolicy::Never),
            "every-epoch" => Some(RegroupPolicy::EveryEpoch),
            "repair" => Some(RegroupPolicy::Repair),
            _ => name
                .strip_prefix("staleness:")
                .and_then(|t| t.parse().ok())
                .map(RegroupPolicy::StalenessThreshold),
        }
    }

    /// The CLI spelling [`RegroupPolicy::by_name`] parses, round-trippable
    /// for valid policies.
    pub fn name(&self) -> String {
        match *self {
            RegroupPolicy::Never => "never".into(),
            RegroupPolicy::EveryEpoch => "every-epoch".into(),
            RegroupPolicy::StalenessThreshold(t) => format!("staleness:{t}"),
            RegroupPolicy::Repair => "repair".into(),
        }
    }

    /// Whether a campaign with `events_since_plan` fleet events since the
    /// current plan re-plans (or, under [`RegroupPolicy::Repair`],
    /// repairs). An unchanged fleet never does: re-planning it would
    /// reproduce the same plan. `stale_fraction` is the current plan's
    /// [`PlannedFleet::stale_fraction`] of the fleet, which only
    /// [`RegroupPolicy::StalenessThreshold`] reads.
    pub fn regroups(&self, events_since_plan: u64, stale_fraction: f64) -> bool {
        events_since_plan > 0
            && match *self {
                RegroupPolicy::Never => false,
                RegroupPolicy::EveryEpoch | RegroupPolicy::Repair => true,
                RegroupPolicy::StalenessThreshold(t) => stale_fraction > t,
            }
    }

    /// Checks a threshold is a finite fraction in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRegroupThreshold`] otherwise.
    pub fn validate(&self) -> Result<(), SimError> {
        if let RegroupPolicy::StalenessThreshold(t) = *self {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(SimError::InvalidRegroupThreshold { threshold: t });
            }
        }
        Ok(())
    }
}

/// Per-mechanism churn outcome of one run, folded into
/// [`MechanismSummary`](crate::MechanismSummary).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ChurnOutcome {
    /// Plan recomputations across the run's epochs.
    pub regroups: f64,
    /// Stale-missed device-epochs over **all** post-epoch-0
    /// device-epochs — quiet and freshly re-planned epochs count in the
    /// denominator with zero misses, so the ratio is comparable across
    /// policies (an `EveryEpoch` run reports 0, a `Never` run the full
    /// accumulated staleness, over the same base).
    pub stale_miss_ratio: f64,
}

/// Summed plan-improvement economics of one run's planning work (epoch-0
/// plan plus every regroup-epoch plan), folded into the four
/// `cover_cost_*`/`improve_*` fields of
/// [`MechanismSummary`](crate::MechanismSummary). Plans without an
/// improvement record (greedy, baselines) contribute zeros, so the sums
/// are exactly the tabu/repair work the run performed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RegroupWork {
    /// Summed `initial_cost` (plan cost before improvement/repair).
    pub cover_cost_initial: f64,
    /// Summed `final_cost` (plan cost after improvement/repair).
    pub cover_cost_final: f64,
    /// Summed accepted improvement moves / attached arrivals.
    pub improve_moves: f64,
    /// Summed spent iteration budget / freshly re-planned leftovers.
    pub improve_budget: f64,
}

impl RegroupWork {
    /// Accumulates one plan's improvement record (no-op when absent).
    pub fn absorb(&mut self, plan: &MulticastPlan) {
        if let Some(stats) = plan.improvement {
            self.cover_cost_initial += f64::from(stats.initial_cost);
            self.cover_cost_final += f64::from(stats.final_cost);
            self.improve_moves += f64::from(stats.moves_accepted);
            self.improve_budget += f64::from(stats.budget_spent);
        }
    }
}

/// RNG stream ids of the churn machinery inside one (point × run) item.
/// The static path uses streams 0 (population), 1 (baseline) and `2 + i`
/// (mechanism `i`); churn streams branch through [`SeedSequence::child`]
/// at ids far above any plausible mechanism count so the stream spaces
/// can never collide.
const CHURN_EVOLVE_CHILD: u64 = 1 << 40;
const REGROUP_CHILD_BASE: u64 = (1 << 40) + 1;

/// The evolved population at each epoch boundary, shared by every
/// mechanism of the run (the fleet does not depend on who is planning).
pub(crate) struct ChurnTimeline {
    epochs: Vec<(Population, ChurnEvents)>,
}

impl ChurnTimeline {
    /// Evolves `initial` across the model's epochs, drawing from the
    /// run's dedicated churn streams (`run_seq.child(CHURN).rng(epoch)`).
    ///
    /// # Errors
    ///
    /// Churn-model validation failures ([`SimError::Traffic`]).
    pub fn evolve(
        model: &ChurnModel,
        mix: &TrafficMix,
        initial: &Population,
        run_seq: &SeedSequence,
    ) -> Result<ChurnTimeline, SimError> {
        let base_size = initial.len();
        let mut next_id = base_size as u32;
        let mut epochs: Vec<(Population, ChurnEvents)> = Vec::with_capacity(model.epochs as usize);
        for epoch in 1..=u64::from(model.epochs) {
            let mut rng = run_seq.child(CHURN_EVOLVE_CHILD).rng(epoch);
            let previous = epochs.last().map_or(initial, |(pop, _)| pop);
            let step = model.step(mix, previous, base_size, &mut next_id, &mut rng)?;
            epochs.push(step);
        }
        Ok(ChurnTimeline { epochs })
    }
}

/// The identity snapshot a plan was computed against: `(id, ue)` pairs
/// sorted by id, so staleness lookups are binary searches. A fleet's
/// device order need not be id-ascending: the grouping service appends
/// registrations in event-log order.
///
/// This is the staleness primitive shared by the batch simulator (the
/// [`RegroupPolicy`] trajectory walk) and the long-lived grouping service
/// (`nbiot-service`), which snapshots the fleet at plan time and asks
/// [`PlannedFleet::serves`] per device on later requests.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFleet {
    members: Vec<(DeviceId, UeId)>,
}

impl PlannedFleet {
    /// Captures the identity snapshot of `pop`.
    pub fn snapshot(pop: &Population) -> PlannedFleet {
        let mut members: Vec<(DeviceId, UeId)> =
            (0..pop.len()).map(|i| (pop.id(i), pop.ues()[i])).collect();
        members.sort_unstable_by_key(|&(id, _)| id);
        PlannedFleet { members }
    }

    /// Rebuilds a snapshot from stored `(id, ue)` pairs (a service
    /// snapshot restoring its plan state), or `None` when the ids are not
    /// strictly ascending: the order [`PlannedFleet::snapshot`] records,
    /// without which staleness lookups would miss.
    pub fn from_members(members: Vec<(DeviceId, UeId)>) -> Option<PlannedFleet> {
        members
            .windows(2)
            .all(|w| w[0].0 < w[1].0)
            .then_some(PlannedFleet { members })
    }

    /// The `(id, ue)` pairs, id-ascending.
    pub fn members(&self) -> &[(DeviceId, UeId)] {
        &self.members
    }

    /// Whether the plan serves this device: same id, same paging identity.
    pub fn serves(&self, id: DeviceId, ue: UeId) -> bool {
        self.members
            .binary_search_by_key(&id, |&(k, _)| k)
            .is_ok_and(|i| self.members[i].1 == ue)
    }

    /// The fraction of `pop`'s devices this snapshot cannot serve
    /// (departed-then-readmitted ids, handovers, and arrivals all count) —
    /// the staleness measure [`RegroupPolicy::StalenessThreshold`]
    /// compares against. Returns `0.0` for an empty population.
    pub fn stale_fraction(&self, pop: &Population) -> f64 {
        self.staleness(pop).1
    }

    /// The number of `pop`'s devices this snapshot cannot serve, and
    /// [`PlannedFleet::stale_fraction`].
    fn staleness(&self, pop: &Population) -> (usize, f64) {
        let missed = (0..pop.len())
            .filter(|&i| !self.serves(pop.id(i), pop.ues()[i]))
            .count();
        let fraction = if pop.is_empty() {
            0.0
        } else {
            missed as f64 / pop.len() as f64
        };
        (missed, fraction)
    }
}

/// The policy's decision trajectory across a run's epochs: which epoch
/// boundaries re-plan, and the resulting outcome.
///
/// Staleness is *identity-based* (a device is served iff it existed with
/// the same paging identity at the last plan), deliberately independent
/// of which mechanism planned — so the trajectory is computed **once per
/// work item** and shared by every mechanism; only the re-planning work
/// itself ([`replan_mechanism`]) is per-mechanism.
pub(crate) struct RegroupTrajectory {
    /// Timeline epoch indices (0-based) whose boundary re-plans.
    pub regroup_epochs: Vec<usize>,
    /// The folded churn metrics of the run.
    pub outcome: ChurnOutcome,
}

/// Walks the timeline under `policy`: per epoch, count the devices the
/// current plan cannot serve, decide whether to re-plan, and account the
/// misses of the epochs that ride a stale plan.
pub(crate) fn plan_trajectory(
    timeline: &ChurnTimeline,
    policy: RegroupPolicy,
    initial: &Population,
) -> RegroupTrajectory {
    let mut planned = PlannedFleet::snapshot(initial);
    let mut events_since_plan = 0u64;
    let mut regroup_epochs = Vec::new();
    let mut stale_misses = 0usize;
    let mut device_epochs = 0usize;
    for (epoch, (pop, events)) in timeline.epochs.iter().enumerate() {
        events_since_plan += events.total() as u64;
        device_epochs += pop.len();
        let (stale, stale_fraction) = planned.staleness(pop);
        if policy.regroups(events_since_plan, stale_fraction) {
            regroup_epochs.push(epoch);
            planned = PlannedFleet::snapshot(pop);
            events_since_plan = 0;
        } else {
            stale_misses += stale;
        }
    }
    RegroupTrajectory {
        outcome: ChurnOutcome {
            regroups: regroup_epochs.len() as f64,
            stale_miss_ratio: if device_epochs == 0 {
                0.0
            } else {
                stale_misses as f64 / device_epochs as f64
            },
        },
        regroup_epochs,
    }
}

/// One mechanism's identity within a run's re-planning pass: which
/// planner, its index (selecting the dedicated RNG stream), and the
/// epoch-0 plan the first [`RegroupPolicy::Repair`] patch starts from.
pub(crate) struct ReplanTarget<'a> {
    pub index: usize,
    pub mechanism: &'a dyn GroupingMechanism,
    pub epoch0_plan: &'a MulticastPlan,
}

/// Executes one mechanism's re-planning work at every epoch the
/// trajectory regroups: under [`RegroupPolicy::Repair`] the stale plan is
/// patched via [`nbiot_grouping::repair_plan`] (falling back to a full
/// re-plan for non-repairable shapes); every other policy runs the real
/// planner on the evolved [`GroupingInput`], drawing from the mechanism's
/// dedicated stream (`run_seq.child(REGROUP_BASE + mechanism).rng(epoch +
/// 1)`) — this is the set-cover cost the `regroup_count` summary
/// attributes. Returns the summed improvement/repair economics of the
/// regroup-epoch plans (the epoch-0 plan is absorbed by the caller).
///
/// # Errors
///
/// Grouping-input or plan failures on an evolved population — surfaced
/// exactly like their static-path counterparts.
pub(crate) fn replan_mechanism(
    timeline: &ChurnTimeline,
    trajectory: &RegroupTrajectory,
    grouping: GroupingParams,
    target: &ReplanTarget<'_>,
    run_seq: &SeedSequence,
    policy: RegroupPolicy,
) -> Result<RegroupWork, SimError> {
    let mut work = RegroupWork::default();
    // The plan the next repair patches: epoch-0's until the first regroup.
    let mut current: Option<MulticastPlan> = None;
    for &epoch in &trajectory.regroup_epochs {
        let input = GroupingInput::from_population(&timeline.epochs[epoch].0, grouping)?;
        let repaired = if policy == RegroupPolicy::Repair {
            let stale = current.as_ref().unwrap_or(target.epoch0_plan);
            nbiot_grouping::repair_plan(stale, &input).transpose()?
        } else {
            None
        };
        let plan = match repaired {
            Some(plan) => plan,
            None => {
                let mut rng = run_seq
                    .child(REGROUP_CHILD_BASE + target.index as u64)
                    .rng(epoch as u64 + 1);
                target.mechanism.plan(&input, &mut rng)?
            }
        };
        plan.validate(&input)?;
        work.absorb(&plan);
        if policy == RegroupPolicy::Repair {
            current = Some(plan);
        }
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_grouping::MechanismKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn initial(n: usize) -> Population {
        TrafficMix::mobility_churn()
            .generate(n, &mut StdRng::seed_from_u64(3))
            .unwrap()
    }

    fn churny(epochs: u32) -> ChurnModel {
        ChurnModel {
            epochs,
            departure_rate: 0.1,
            arrival_rate: 0.1,
            handover_rate: 0.2,
        }
    }

    fn run_under(policy: RegroupPolicy, model: &ChurnModel) -> (ChurnOutcome, RegroupWork) {
        let mix = TrafficMix::mobility_churn();
        let pop = initial(60);
        let seq = SeedSequence::new(42).child(0);
        let timeline = ChurnTimeline::evolve(model, &mix, &pop, &seq).unwrap();
        let trajectory = plan_trajectory(&timeline, policy, &pop);
        assert_eq!(
            trajectory.regroup_epochs.len() as f64,
            trajectory.outcome.regroups,
            "regroup epoch list and count must agree"
        );
        let mechanism = MechanismKind::DrSc.instantiate();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let epoch0 = mechanism
            .plan(&input, &mut seq.rng(0))
            .expect("epoch-0 plan");
        let work = replan_mechanism(
            &timeline,
            &trajectory,
            GroupingParams::default(),
            &ReplanTarget {
                index: 0,
                mechanism: mechanism.as_ref(),
                epoch0_plan: &epoch0,
            },
            &seq,
            policy,
        )
        .unwrap();
        (trajectory.outcome, work)
    }

    fn outcome_under(policy: RegroupPolicy, model: &ChurnModel) -> ChurnOutcome {
        run_under(policy, model).0
    }

    #[test]
    fn never_policy_accumulates_misses_without_regrouping() {
        let outcome = outcome_under(RegroupPolicy::Never, &churny(5));
        assert_eq!(outcome.regroups, 0.0);
        assert!(
            outcome.stale_miss_ratio > 0.1,
            "5 churned epochs must leave stale devices: {outcome:?}"
        );
    }

    #[test]
    fn every_epoch_policy_serves_every_epoch() {
        let outcome = outcome_under(RegroupPolicy::EveryEpoch, &churny(5));
        assert_eq!(outcome.regroups, 5.0, "every churned epoch re-plans");
        assert_eq!(outcome.stale_miss_ratio, 0.0, "re-planning serves all");
    }

    #[test]
    fn threshold_policy_sits_between_the_extremes() {
        let never = outcome_under(RegroupPolicy::Never, &churny(6));
        let always = outcome_under(RegroupPolicy::EveryEpoch, &churny(6));
        // Per-epoch staleness is ~25-30 % under churny(), so a 50 %
        // threshold needs ~2 epochs of drift to fire: the policy must
        // regroup sometimes, but not every epoch.
        let some = outcome_under(RegroupPolicy::StalenessThreshold(0.5), &churny(6));
        assert!(
            some.regroups >= 1.0 && some.regroups < 6.0,
            "threshold should regroup sometimes but not always: {some:?}"
        );
        assert!(
            some.stale_miss_ratio < never.stale_miss_ratio,
            "regrouping must reduce misses: {some:?} vs {never:?}"
        );
        assert!(some.stale_miss_ratio >= always.stale_miss_ratio);
    }

    #[test]
    fn quiet_epochs_never_trigger_any_policy() {
        let zero = ChurnModel {
            epochs: 4,
            departure_rate: 0.0,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        };
        for policy in [
            RegroupPolicy::Never,
            RegroupPolicy::EveryEpoch,
            RegroupPolicy::StalenessThreshold(0.0),
            RegroupPolicy::Repair,
        ] {
            let (outcome, work) = run_under(policy, &zero);
            assert_eq!(outcome, ChurnOutcome::default(), "{policy:?}");
            assert_eq!(work, RegroupWork::default(), "{policy:?}");
        }
    }

    #[test]
    fn fully_departed_fleet_defines_staleness_as_zero() {
        // ChurnModel::step keeps one survivor by construction, so the
        // empty-fleet epoch is synthesized directly: every device left
        // and nobody arrived. The threshold policy's staleness ratio on
        // an empty population used to be the 0/0 NaN (which compared
        // false only by IEEE accident); it is defined as 0.0 now, so the
        // empty epochs must neither fire a regroup nor poison the
        // outcome.
        let pop = initial(30);
        let gone = ChurnEvents {
            arrivals: 0,
            departures: pop.len(),
            handovers: 0,
        };
        let timeline = ChurnTimeline {
            epochs: vec![(pop.empty_like(0), gone); 3],
        };
        for threshold in [0.0, 0.5, 1.0] {
            let t = plan_trajectory(
                &timeline,
                RegroupPolicy::StalenessThreshold(threshold),
                &pop,
            );
            assert_eq!(t.outcome.regroups, 0.0, "threshold {threshold}");
            assert!(
                t.outcome.stale_miss_ratio.is_finite(),
                "threshold {threshold}"
            );
            assert_eq!(t.outcome.stale_miss_ratio, 0.0, "threshold {threshold}");
        }
    }

    #[test]
    fn repair_policy_serves_every_epoch_and_accounts_its_work() {
        let (outcome, work) = run_under(RegroupPolicy::Repair, &churny(5));
        let (every, _) = run_under(RegroupPolicy::EveryEpoch, &churny(5));
        assert_eq!(outcome, every, "repair decides exactly like EveryEpoch");
        // DR-SC plans are repairable, and 5 churned epochs patch real
        // arrivals: the repair economics must show up in the totals.
        assert!(work.cover_cost_initial > 0.0, "{work:?}");
        assert!(work.cover_cost_final > 0.0, "{work:?}");
        assert!(
            work.improve_moves + work.improve_budget > 0.0,
            "churned epochs must attach or re-plan arrivals: {work:?}"
        );
    }

    #[test]
    fn timeline_is_reproducible_and_stream_isolated() {
        let mix = TrafficMix::mobility_churn();
        let pop = initial(40);
        let seq = SeedSequence::new(7).child(3);
        let a = ChurnTimeline::evolve(&churny(3), &mix, &pop, &seq).unwrap();
        let b = ChurnTimeline::evolve(&churny(3), &mix, &pop, &seq).unwrap();
        for ((pa, ea), (pb, eb)) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(pa, pb);
            assert_eq!(ea, eb);
        }
        // A different run derives a different fleet trajectory.
        let c = ChurnTimeline::evolve(&churny(3), &mix, &pop, &seq.child(1)).unwrap();
        assert_ne!(a.epochs[0].0, c.epochs[0].0);
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            RegroupPolicy::Never,
            RegroupPolicy::EveryEpoch,
            RegroupPolicy::Repair,
            RegroupPolicy::StalenessThreshold(0.25),
        ] {
            assert_eq!(RegroupPolicy::by_name(&policy.name()), Some(policy));
        }
        assert_eq!(RegroupPolicy::by_name("staleness:"), None);
        assert_eq!(RegroupPolicy::by_name("sometimes"), None);
        // Out-of-range thresholds parse but fail validation.
        let wild = RegroupPolicy::by_name("staleness:7.5").unwrap();
        assert!(wild.validate().is_err());
    }

    #[test]
    fn planned_fleet_staleness_tracks_identity_changes() {
        let pop = initial(30);
        let planned = PlannedFleet::snapshot(&pop);
        assert_eq!(planned.members().len(), 30);
        assert_eq!(planned.stale_fraction(&pop), 0.0);
        let rebuilt = PlannedFleet::from_members(planned.members().to_vec());
        assert_eq!(rebuilt.as_ref(), Some(&planned));
        // A fleet in descending id order snapshots id-ascending and
        // serves itself; stored pairs out of id order are refused.
        let reversed = Population::new(
            pop.mix_name().to_string(),
            pop.class_names().to_vec(),
            pop.profiles().into_iter().rev().collect(),
        );
        assert_eq!(PlannedFleet::snapshot(&reversed), planned);
        assert_eq!(planned.stale_fraction(&reversed), 0.0);
        let mut descending = planned.members().to_vec();
        descending.reverse();
        assert_eq!(PlannedFleet::from_members(descending), None);
        // A handover makes exactly one device stale.
        let mut moved = pop.clone();
        moved.set_ue(4, nbiot_time::UeId(0x5EED));
        assert!(!planned.serves(moved.id(4), moved.ues()[4]));
        assert!((planned.stale_fraction(&moved) - 1.0 / 30.0).abs() < 1e-12);
        // A departure shrinks the fleet without going stale; an arrival
        // the plan never saw is stale.
        let mut shrunk = pop.clone();
        shrunk.remove_row(7);
        assert_eq!(planned.stale_fraction(&shrunk), 0.0);
        let mut grown = pop.clone();
        grown.push(nbiot_traffic::DeviceProfile {
            id: nbiot_traffic::DeviceId(99),
            ..pop.device(0)
        });
        assert!((planned.stale_fraction(&grown) - 1.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn regroup_threshold_validation() {
        assert!(RegroupPolicy::Never.validate().is_ok());
        assert!(RegroupPolicy::EveryEpoch.validate().is_ok());
        assert!(RegroupPolicy::Repair.validate().is_ok());
        assert!(RegroupPolicy::StalenessThreshold(0.5).validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(
                matches!(
                    RegroupPolicy::StalenessThreshold(bad).validate(),
                    Err(SimError::InvalidRegroupThreshold { .. })
                ),
                "{bad}"
            );
        }
    }
}
