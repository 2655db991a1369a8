//! Re-grouping under device churn: plan staleness and the serve step.
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
//! [`ServedPlan::serve`] is the one serve step for a churned fleet: it
//! measures the plan's staleness once, lets the [`RegroupPolicy`] decide,
//! and then serves the cached plan, patches it with the LNS repair pass,
//! or re-plans on the evolved [`GroupingInput`] — real planning work,
//! including DR-SC's set-cover solve (`docs/KERNELS.md`), so re-grouping
//! cost is measurable (`bench_report`'s `replan_churn_*` stages). The
//! batch simulator serves every mechanism of a churned run through it
//! once per epoch, and the grouping service (`nbiot-service`) serves
//! every campaign request through it. A regroup at an epoch boundary
//! serves that epoch exactly; skipping it trades signalling for misses.
//! The simulator folds the outcome into two per-mechanism summary
//! metrics: `regroup_count` (plan recomputations per run) and
//! `stale_miss_ratio` (missed device-epochs over **all** post-epoch-0
//! device-epochs — regrouped epochs miss nothing but still widen the
//! denominator, which keeps the ratio comparable across policies).
//!
//! Zero-churn behaviour is pinned by `tests/churn_invariants.rs`: with
//! all rates zero the population never changes, no policy ever fires, and
//! every summary is bit-identical to the static engine.

use nbiot_grouping::{repair_plan, GroupingError, GroupingInput, GroupingParams, MulticastPlan};
use nbiot_time::UeId;
use nbiot_traffic::{DeviceId, Population};

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
    /// the current plan cannot serve; 1.0 once every planned device has
    /// left) exceeds this threshold, so a threshold of 1.0 never re-plans.
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
    /// [`PlannedFleet::staleness`] fraction of the fleet, which only
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

/// How a campaign request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ServeAction {
    /// The mechanism planned from scratch on the current fleet.
    Full,
    /// The cached plan was patched by the LNS repair pass.
    Repair,
    /// The cached plan was served as-is.
    Cached,
}

impl ServeAction {
    /// Lower-case wire spelling (transcripts, reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServeAction::Full => "full",
            ServeAction::Repair => "repair",
            ServeAction::Cached => "cached",
        }
    }
}

/// The identity snapshot a plan was computed against: `(id, ue)` pairs
/// sorted by id, so staleness lookups are binary searches. A fleet's
/// device order need not be id-ascending: the grouping service appends
/// registrations in event-log order.
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

    /// The number of `pop`'s devices this snapshot cannot serve
    /// (departed-then-readmitted ids, handovers, and arrivals all count),
    /// and their fraction of `pop`: the staleness measure
    /// [`RegroupPolicy::StalenessThreshold`] compares against. A fleet
    /// that every planned device has left is wholly stale (1.0); an empty
    /// fleet under a plan for nobody is not stale at all (0.0).
    pub fn staleness(&self, pop: &Population) -> (usize, f64) {
        let missed = (0..pop.len())
            .filter(|&i| !self.serves(pop.id(i), pop.ues()[i]))
            .count();
        let fraction = match (pop.is_empty(), self.members.is_empty()) {
            (true, true) => 0.0,
            (true, false) => 1.0,
            (false, _) => missed as f64 / pop.len() as f64,
        };
        (missed, fraction)
    }
}

/// A validated plan on offer, with the fleet identities it was computed
/// against: the state [`ServedPlan::serve`] advances from one campaign
/// to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedPlan {
    /// The plan the next campaign rides unless the policy regroups.
    pub plan: MulticastPlan,
    /// The fleet identities the plan was computed against.
    pub planned: PlannedFleet,
}

impl ServedPlan {
    /// Plans from scratch on `fleet` through `plan`, validates the plan
    /// and snapshots the fleet's identities.
    ///
    /// # Errors
    ///
    /// Grouping-input and planning failures ([`SimError::Grouping`]) and
    /// plan violations ([`SimError::InvalidPlan`]).
    pub fn plan(
        fleet: &Population,
        params: GroupingParams,
        plan: impl FnOnce(&GroupingInput) -> Result<MulticastPlan, GroupingError>,
    ) -> Result<ServedPlan, SimError> {
        let input = GroupingInput::from_population(fleet, params)?;
        ServedPlan::validated(plan(&input)?, &input, fleet)
    }

    /// Serves one campaign to `fleet`, `events_since_plan` fleet events
    /// after this plan was computed. The policy reads the staleness of
    /// the plan on `fleet` and keeps the plan, or regroups: under
    /// [`RegroupPolicy::Repair`] the LNS repair pass
    /// ([`nbiot_grouping::repair_plan`]) patches it, and shapes it cannot
    /// patch (adaptation, `mltc`, connectionless) fall back to `replan`;
    /// every other policy re-plans through `replan`, the caller's planner
    /// with its own RNG stream. A new plan is validated and the fleet
    /// re-snapshotted. Returns the action with the *pre-serve* staleness:
    /// the devices the previous plan could not serve, and their fraction.
    ///
    /// # Errors
    ///
    /// As [`ServedPlan::plan`], repair failures included. A failed serve
    /// leaves the served plan untouched.
    pub fn serve(
        &mut self,
        policy: RegroupPolicy,
        fleet: &Population,
        events_since_plan: u64,
        params: GroupingParams,
        replan: impl FnOnce(&GroupingInput) -> Result<MulticastPlan, GroupingError>,
    ) -> Result<(ServeAction, usize, f64), SimError> {
        let (missed, stale_fraction) = self.planned.staleness(fleet);
        if !policy.regroups(events_since_plan, stale_fraction) {
            return Ok((ServeAction::Cached, missed, stale_fraction));
        }
        let input = GroupingInput::from_population(fleet, params)?;
        let repaired = if policy == RegroupPolicy::Repair {
            repair_plan(&self.plan, &input).transpose()?
        } else {
            None
        };
        let (action, plan) = match repaired {
            Some(plan) => (ServeAction::Repair, plan),
            None => (ServeAction::Full, replan(&input)?),
        };
        *self = ServedPlan::validated(plan, &input, fleet)?;
        Ok((action, missed, stale_fraction))
    }

    fn validated(
        plan: MulticastPlan,
        input: &GroupingInput,
        fleet: &Population,
    ) -> Result<ServedPlan, SimError> {
        plan.validate(input)?;
        Ok(ServedPlan {
            plan,
            planned: PlannedFleet::snapshot(fleet),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_grouping::MechanismKind;
    use nbiot_traffic::{ChurnModel, TrafficMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn initial(n: usize) -> Population {
        TrafficMix::mobility_churn()
            .generate(n, &mut StdRng::seed_from_u64(3))
            .unwrap()
    }

    /// One churned epoch of `pop`, with its fleet-event count.
    fn churned(pop: &Population) -> (Population, u64) {
        let model = ChurnModel {
            epochs: 1,
            departure_rate: 0.1,
            arrival_rate: 0.1,
            handover_rate: 0.2,
        };
        let mut next_id = pop.len() as u32;
        let mix = TrafficMix::mobility_churn();
        let mut rng = StdRng::seed_from_u64(5);
        let (fleet, events) = model
            .step(&mix, pop, pop.len(), &mut next_id, &mut rng)
            .unwrap();
        (fleet, events.total() as u64)
    }

    fn planner(
        kind: MechanismKind,
    ) -> impl FnOnce(&GroupingInput) -> Result<MulticastPlan, GroupingError> {
        move |input| {
            kind.instantiate()
                .plan(input, &mut StdRng::seed_from_u64(1))
        }
    }

    fn served(pop: &Population, kind: MechanismKind) -> ServedPlan {
        ServedPlan::plan(pop, GroupingParams::default(), planner(kind)).unwrap()
    }

    #[test]
    fn quiet_fleets_are_served_cached_under_every_policy() {
        let pop = initial(60);
        for policy in [
            RegroupPolicy::Never,
            RegroupPolicy::EveryEpoch,
            RegroupPolicy::StalenessThreshold(0.0),
            RegroupPolicy::Repair,
        ] {
            let mut served = served(&pop, MechanismKind::DrSc);
            let before = served.clone();
            let params = GroupingParams::default();
            let outcome = served
                .serve(policy, &pop, 0, params, planner(MechanismKind::DrSc))
                .unwrap();
            assert_eq!(outcome, (ServeAction::Cached, 0, 0.0), "{policy:?}");
            assert_eq!(served, before, "{policy:?}");
        }
    }

    #[test]
    fn churned_fleets_are_served_as_the_policy_says() {
        let pop = initial(60);
        let (fleet, events) = churned(&pop);
        let params = GroupingParams::default();
        for (policy, kind, expected) in [
            (
                RegroupPolicy::Never,
                MechanismKind::DrSc,
                ServeAction::Cached,
            ),
            (
                RegroupPolicy::EveryEpoch,
                MechanismKind::DrSc,
                ServeAction::Full,
            ),
            (
                RegroupPolicy::Repair,
                MechanismKind::DrSc,
                ServeAction::Repair,
            ),
            // Adaptation plans cannot be repaired: the full re-plan
            // fallback.
            (
                RegroupPolicy::Repair,
                MechanismKind::DaSc,
                ServeAction::Full,
            ),
        ] {
            let mut served = served(&pop, kind);
            let before = served.clone();
            let staleness = before.planned.staleness(&fleet);
            assert!(staleness.0 > 0, "one churned epoch leaves stale devices");
            let (action, missed, fraction) = served
                .serve(policy, &fleet, events, params, planner(kind))
                .unwrap();
            assert_eq!(action, expected, "{policy:?}, {kind}");
            assert_eq!((missed, fraction), staleness, "{policy:?}, {kind}");
            if action == ServeAction::Cached {
                assert_eq!(served, before, "{policy:?}, {kind}");
            } else {
                assert_eq!(served.planned, PlannedFleet::snapshot(&fleet));
                let input = GroupingInput::from_population(&fleet, params).unwrap();
                served.plan.validate(&input).unwrap();
            }
        }
    }

    #[test]
    fn a_failed_replan_leaves_the_served_plan_untouched() {
        let pop = initial(40);
        let (fleet, events) = churned(&pop);
        // DA-SC under repair reaches the re-plan through the fallback.
        for policy in [RegroupPolicy::EveryEpoch, RegroupPolicy::Repair] {
            let mut served = served(&pop, MechanismKind::DaSc);
            let before = served.clone();
            let failing = GroupingError::TiTooShort {
                ti_ms: 1,
                shortest_cycle_ms: 2,
            };
            let err = served
                .serve(policy, &fleet, events, GroupingParams::default(), |_| {
                    Err(failing.clone())
                })
                .unwrap_err();
            assert_eq!(err, SimError::Grouping(failing), "{policy:?}");
            assert_eq!(served, before, "{policy:?}");
        }
    }

    #[test]
    fn emptied_fleet_is_wholly_stale() {
        let pop = initial(30);
        let empty = pop.empty_like(0);
        assert_eq!(PlannedFleet::snapshot(&pop).staleness(&empty), (0, 1.0));
        assert_eq!(PlannedFleet::snapshot(&empty).staleness(&empty), (0, 0.0));
        // Every threshold below 1.0 re-plans the emptied fleet once; the
        // empty plan then serves it with nothing stale.
        let params = GroupingParams::default();
        for (threshold, expected) in [
            (0.0, ServeAction::Full),
            (0.5, ServeAction::Full),
            (1.0, ServeAction::Cached),
        ] {
            let policy = RegroupPolicy::StalenessThreshold(threshold);
            let mut served = served(&pop, MechanismKind::DrSc);
            let departures = pop.len() as u64;
            let outcome = served
                .serve(
                    policy,
                    &empty,
                    departures,
                    params,
                    planner(MechanismKind::DrSc),
                )
                .unwrap();
            assert_eq!(outcome, (expected, 0, 1.0), "threshold {threshold}");
            if expected == ServeAction::Full {
                assert!(served.plan.transmissions.is_empty());
                let again = served
                    .serve(policy, &empty, 1, params, planner(MechanismKind::DrSc))
                    .unwrap();
                assert_eq!(again, (ServeAction::Cached, 0, 0.0));
            }
        }
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
        assert_eq!(planned.staleness(&pop), (0, 0.0));
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
        assert_eq!(planned.staleness(&reversed), (0, 0.0));
        let mut descending = planned.members().to_vec();
        descending.reverse();
        assert_eq!(PlannedFleet::from_members(descending), None);
        // A handover makes exactly one device stale.
        let mut moved = pop.clone();
        moved.set_ue(4, nbiot_time::UeId(0x5EED));
        assert!(!planned.serves(moved.id(4), moved.ues()[4]));
        assert_eq!(planned.staleness(&moved), (1, 1.0 / 30.0));
        // A departure shrinks the fleet without going stale; an arrival
        // the plan never saw is stale.
        let mut shrunk = pop.clone();
        shrunk.remove_row(7);
        assert_eq!(planned.staleness(&shrunk), (0, 0.0));
        let mut grown = pop.clone();
        grown.push(nbiot_traffic::DeviceProfile {
            id: nbiot_traffic::DeviceId(99),
            ..pop.device(0)
        });
        assert_eq!(planned.staleness(&grown), (1, 1.0 / 31.0));
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
