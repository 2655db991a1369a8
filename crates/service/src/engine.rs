//! The long-lived group-state engine.

use nbiot_des::SeedSequence;
use nbiot_grouping::{GroupingInput, MechanismKind, MulticastPlan};
use nbiot_sim::{RegroupPolicy, ServeAction, ServedPlan};
use nbiot_traffic::Population;

use crate::event::{EventLog, EventRecord, ServiceEvent};
use crate::ServiceError;

/// Static configuration of a service instance. Part of the snapshot
/// fingerprint: a snapshot taken under one configuration cannot be
/// restored under another.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceConfig {
    /// Grouping parameters every served plan is computed under.
    pub params: nbiot_grouping::GroupingParams,
    /// When a campaign request re-plans, repairs, or rides the cached
    /// plan.
    pub policy: RegroupPolicy,
    /// Master seed; each full re-plan draws from its own
    /// [`SeedSequence`] child stream, so served plans are a pure
    /// function of (config, event log).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            params: nbiot_grouping::GroupingParams::default(),
            policy: RegroupPolicy::Repair,
            seed: 0,
        }
    }
}

impl ServiceConfig {
    /// Checks the configuration (currently: the regroup policy's
    /// threshold range).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Sim`] for an invalid policy.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.policy.validate()?;
        Ok(())
    }
}

/// What one served campaign request looked like.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeSummary {
    /// 0-based serve index (also the RNG stream of a full re-plan).
    pub serve: u64,
    /// Epoch stamp of the serving record.
    pub epoch: u32,
    /// Canonical mechanism name ([`MechanismKind`] display form).
    pub mechanism: String,
    /// Fleet size at serve time.
    pub devices: usize,
    /// Transmissions in the served plan.
    pub transmissions: usize,
    /// How the request was satisfied.
    pub action: ServeAction,
    /// Fraction of the fleet the *pre-serve* plan could not reach
    /// (1.0 when no usable plan was cached, or when every device it was
    /// planned for has left).
    pub stale_fraction: f64,
}

/// Outcome of applying one event record.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// A fleet change was folded into the population.
    Fleet,
    /// A campaign request was served.
    Served(ServeSummary),
    /// The log marked a snapshot point; the driver should persist
    /// [`GroupingService::snapshot`] now.
    SnapshotRequested,
}

/// The plan currently on offer and the mechanism that planned it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanState {
    pub(crate) mechanism: String,
    pub(crate) served: ServedPlan,
}

/// The event-driven group-state engine: an incrementally maintained
/// fleet plus the currently cached plan, advanced one
/// [`EventRecord`] at a time.
///
/// Replay equivalence (locked by `tests/service_equivalence.rs`): after
/// any event prefix the fleet is bit-identical to a fresh
/// [`Population`] built from the surviving devices, and every full
/// re-plan equals a from-scratch plan over that population drawn from
/// the serve's dedicated seed stream.
#[derive(Debug)]
pub struct GroupingService {
    pub(crate) config: ServiceConfig,
    pub(crate) fleet: Population,
    pub(crate) epoch: u32,
    pub(crate) next_record: u64,
    pub(crate) serves: u64,
    pub(crate) events_since_plan: u64,
    pub(crate) plan: Option<PlanState>,
}

impl GroupingService {
    /// Creates an empty service for the fleet described by `log`'s
    /// header (mix name and class table). The event stream itself is
    /// not consumed — feed it through [`GroupingService::apply`] or
    /// [`GroupingService::replay`].
    ///
    /// # Errors
    ///
    /// [`ServiceConfig::validate`] failures.
    pub fn new(config: ServiceConfig, log: &EventLog) -> Result<GroupingService, ServiceError> {
        config.validate()?;
        Ok(GroupingService {
            config,
            fleet: Population::with_capacity(log.mix_name.clone(), log.class_names.clone(), 0),
            epoch: 0,
            next_record: 0,
            serves: 0,
            events_since_plan: 0,
            plan: None,
        })
    }

    /// Applies one event record.
    ///
    /// # Errors
    ///
    /// [`ServiceError::EpochRegression`] for an epoch going backwards,
    /// fleet-event failures ([`ServiceError::Traffic`]), unknown
    /// mechanisms, and planning failures. A failed record leaves the
    /// record cursor untouched.
    pub fn apply(&mut self, record: &EventRecord) -> Result<Applied, ServiceError> {
        if record.epoch < self.epoch {
            return Err(ServiceError::EpochRegression {
                record: record.epoch,
                current: self.epoch,
            });
        }
        let applied = match &record.event {
            ServiceEvent::Fleet(event) => {
                event.apply(&mut self.fleet)?;
                self.events_since_plan += 1;
                Applied::Fleet
            }
            ServiceEvent::CampaignRequest { mechanism } => {
                let summary = self.serve(record.epoch, mechanism)?;
                Applied::Served(summary)
            }
            ServiceEvent::Snapshot => Applied::SnapshotRequested,
        };
        self.epoch = record.epoch;
        self.next_record += 1;
        Ok(applied)
    }

    /// Replays every not-yet-consumed record of `log` (from the record
    /// cursor onwards — a freshly restored service continues exactly
    /// where its snapshot left off), returning the serve summaries in
    /// order. Snapshot marks are skipped: persistence is the driver's
    /// job.
    ///
    /// # Errors
    ///
    /// [`ServiceError::MixMismatch`] when the log's header is not the
    /// fleet this service tracks, plus any [`GroupingService::apply`]
    /// failure.
    pub fn replay(&mut self, log: &EventLog) -> Result<Vec<ServeSummary>, ServiceError> {
        if log.mix_name != self.fleet.mix_name() || log.class_names != self.fleet.class_names() {
            return Err(ServiceError::MixMismatch {
                expected: self.fleet.mix_name().to_string(),
                found: log.mix_name.clone(),
            });
        }
        let start = usize::try_from(self.next_record).unwrap_or(usize::MAX);
        let mut summaries = Vec::new();
        for record in log.records.iter().skip(start) {
            if let Applied::Served(summary) = self.apply(record)? {
                summaries.push(summary);
            }
        }
        Ok(summaries)
    }

    /// Serves one campaign request. A request for another mechanism than
    /// the cached plan's plans from scratch; otherwise
    /// [`ServedPlan::serve`] keeps, repairs or re-plans the cached plan
    /// under the configured [`RegroupPolicy`]. A full plan draws from the
    /// serve's dedicated stream (`SeedSequence::new(seed).child(serve)
    /// .rng(0)`) — the stream a from-scratch batch plan of the same serve
    /// index would use, which is what makes served plans
    /// replay-equivalent.
    fn serve(&mut self, epoch: u32, mechanism: &str) -> Result<ServeSummary, ServiceError> {
        let kind =
            MechanismKind::by_name(mechanism).ok_or_else(|| ServiceError::UnknownMechanism {
                name: mechanism.to_string(),
            })?;
        let canonical = kind.to_string();
        let serve = self.serves;
        self.serves += 1;
        let replan = |input: &GroupingInput| {
            let mut rng = SeedSequence::new(self.config.seed).child(serve).rng(0);
            kind.instantiate().plan(input, &mut rng)
        };
        let (action, stale_fraction) = match &mut self.plan {
            // A cached plan is reusable only for the same mechanism.
            Some(state) if state.mechanism == canonical => {
                let (action, _, stale_fraction) = state.served.serve(
                    self.config.policy,
                    &self.fleet,
                    self.events_since_plan,
                    self.config.params,
                    replan,
                )?;
                (action, stale_fraction)
            }
            _ => {
                let served = ServedPlan::plan(&self.fleet, self.config.params, replan)?;
                self.plan = Some(PlanState {
                    mechanism: canonical.clone(),
                    served,
                });
                (ServeAction::Full, 1.0)
            }
        };
        if action != ServeAction::Cached {
            self.events_since_plan = 0;
        }
        let state = self.plan.as_ref().expect("serve installs or keeps a plan");
        Ok(ServeSummary {
            serve,
            epoch,
            mechanism: canonical,
            devices: self.fleet.len(),
            transmissions: state.served.plan.transmissions.len(),
            action,
            stale_fraction,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current fleet.
    pub fn fleet(&self) -> &Population {
        &self.fleet
    }

    /// The current epoch stamp.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of event records consumed so far (the replay cursor).
    pub fn next_record(&self) -> u64 {
        self.next_record
    }

    /// Number of campaign requests served so far.
    pub fn serves(&self) -> u64 {
        self.serves
    }

    /// Fleet events folded since the cached plan was computed.
    pub fn events_since_plan(&self) -> u64 {
        self.events_since_plan
    }

    /// The currently cached plan, when one has been served.
    pub fn plan(&self) -> Option<&MulticastPlan> {
        self.plan.as_ref().map(|state| &state.served.plan)
    }

    /// Canonical mechanism name of the cached plan.
    pub fn plan_mechanism(&self) -> Option<&str> {
        self.plan.as_ref().map(|state| state.mechanism.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLog;
    use nbiot_traffic::{ChurnModel, DeviceId, FleetEvent, TrafficMix};

    fn model(epochs: u32) -> ChurnModel {
        ChurnModel {
            epochs,
            departure_rate: 0.15,
            arrival_rate: 0.15,
            handover_rate: 0.25,
        }
    }

    fn log(devices: usize, epochs: u32, mechanism: &str, seed: u64) -> EventLog {
        EventLog::synthesize(
            &TrafficMix::mobility_churn(),
            devices,
            &model(epochs),
            mechanism,
            seed,
        )
        .unwrap()
    }

    fn config(policy: RegroupPolicy) -> ServiceConfig {
        ServiceConfig {
            policy,
            seed: 11,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn replayed_fleet_is_bit_identical_to_a_batch_rebuild() {
        let log = log(40, 4, "dr-sc", 2);
        let mut service = GroupingService::new(config(RegroupPolicy::Repair), &log).unwrap();
        let summaries = service.replay(&log).unwrap();
        assert_eq!(summaries.len(), 5);
        // Rebuild the surviving fleet from scratch: identical structure.
        let fresh = Population::new(
            log.mix_name.clone(),
            log.class_names.clone(),
            service.fleet().profiles(),
        );
        assert_eq!(service.fleet(), &fresh);
        assert_eq!(service.next_record(), log.records.len() as u64);
        assert_eq!(service.epoch(), 4);
    }

    #[test]
    fn full_replans_match_from_scratch_plans() {
        let log = log(35, 3, "dr-sc", 7);
        let cfg = config(RegroupPolicy::EveryEpoch);
        let mut service = GroupingService::new(cfg, &log).unwrap();
        let summaries = service.replay(&log).unwrap();
        let last = summaries.last().unwrap();
        assert_eq!(last.action, ServeAction::Full);
        // The final served plan equals a from-scratch plan on the final
        // fleet, drawn from the serve's dedicated stream.
        let input = GroupingInput::from_population(service.fleet(), cfg.params).unwrap();
        let mut rng = SeedSequence::new(cfg.seed).child(last.serve).rng(0);
        let scratch = MechanismKind::DrSc
            .instantiate()
            .plan(&input, &mut rng)
            .unwrap();
        assert_eq!(service.plan().unwrap(), &scratch);
    }

    #[test]
    fn policies_pick_the_expected_actions() {
        for (policy, expected) in [
            (RegroupPolicy::Never, ServeAction::Cached),
            (RegroupPolicy::EveryEpoch, ServeAction::Full),
            (RegroupPolicy::Repair, ServeAction::Repair),
        ] {
            let log = log(40, 3, "dr-sc", 3);
            let mut service = GroupingService::new(config(policy), &log).unwrap();
            let summaries = service.replay(&log).unwrap();
            assert_eq!(
                summaries[0].action,
                ServeAction::Full,
                "first serve always plans: {policy:?}"
            );
            assert!(
                summaries[1..].iter().all(|s| s.action == expected),
                "{policy:?}: {summaries:?}"
            );
            if policy == RegroupPolicy::Never {
                assert!(summaries.last().unwrap().stale_fraction > 0.0);
            }
        }
    }

    #[test]
    fn staleness_threshold_caches_until_drift_crosses_it() {
        let log = log(60, 6, "dr-sc", 13);
        let mut service =
            GroupingService::new(config(RegroupPolicy::StalenessThreshold(0.5)), &log).unwrap();
        let summaries = service.replay(&log).unwrap();
        let fulls = summaries
            .iter()
            .filter(|s| s.action == ServeAction::Full)
            .count();
        assert!(
            fulls > 1 && fulls < summaries.len(),
            "a mid threshold must re-plan sometimes but not always: {summaries:?}"
        );
        // Cached serves stayed within the policy's staleness bound.
        for s in &summaries {
            if s.action == ServeAction::Cached {
                assert!(s.stale_fraction <= 0.5, "{s:?}");
            }
        }
    }

    #[test]
    fn repair_falls_back_to_full_for_non_repairable_shapes() {
        // DA-SC plans are single-transmission adaptation plans: not
        // repairable, so the repair policy must re-plan fully.
        let log = log(30, 2, "da-sc", 5);
        let mut service = GroupingService::new(config(RegroupPolicy::Repair), &log).unwrap();
        let summaries = service.replay(&log).unwrap();
        assert!(summaries.iter().all(|s| s.action == ServeAction::Full));
        assert_eq!(service.plan_mechanism(), Some("DA-SC"));
    }

    #[test]
    fn mechanism_switch_forces_a_full_replan() {
        let log = log(30, 1, "dr-sc", 6);
        let mut service = GroupingService::new(config(RegroupPolicy::Never), &log).unwrap();
        service.replay(&log).unwrap();
        assert_eq!(service.plan_mechanism(), Some("DR-SC"));
        let summary = match service
            .apply(&EventRecord {
                epoch: 1,
                event: ServiceEvent::CampaignRequest {
                    mechanism: "sc-ptm".into(),
                },
            })
            .unwrap()
        {
            Applied::Served(summary) => summary,
            other => panic!("expected a served campaign, got {other:?}"),
        };
        assert_eq!(summary.action, ServeAction::Full);
        assert_eq!(summary.mechanism, "SC-PTM");
        assert!((summary.stale_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_regression_and_mix_mismatch_are_rejected() {
        let log = log(20, 1, "dr-sc", 8);
        let mut service = GroupingService::new(config(RegroupPolicy::Never), &log).unwrap();
        service.replay(&log).unwrap();
        let err = service
            .apply(&EventRecord {
                epoch: 0,
                event: ServiceEvent::Snapshot,
            })
            .unwrap_err();
        assert!(matches!(err, ServiceError::EpochRegression { .. }));
        let foreign = EventLog {
            mix_name: "somewhere-else".into(),
            class_names: vec![],
            records: vec![],
        };
        let err = service.replay(&foreign).unwrap_err();
        assert!(matches!(err, ServiceError::MixMismatch { .. }));
    }

    #[test]
    fn failed_fleet_events_do_not_advance_the_cursor() {
        let log = log(20, 0, "dr-sc", 4);
        let mut service = GroupingService::new(config(RegroupPolicy::Never), &log).unwrap();
        service.replay(&log).unwrap();
        let cursor = service.next_record();
        let err = service
            .apply(&EventRecord {
                epoch: 0,
                event: ServiceEvent::Fleet(FleetEvent::Depart(DeviceId(999))),
            })
            .unwrap_err();
        assert!(matches!(err, ServiceError::Traffic(_)));
        assert_eq!(service.next_record(), cursor);
    }

    #[test]
    fn invalid_policy_is_rejected_at_construction() {
        let log = log(10, 0, "dr-sc", 1);
        let err =
            GroupingService::new(config(RegroupPolicy::StalenessThreshold(7.0)), &log).unwrap_err();
        assert!(matches!(err, ServiceError::Sim(_)));
    }

    #[test]
    fn snapshot_marks_are_engine_noops() {
        let base = log(25, 2, "dr-sc", 10);
        let mut marked = base.clone();
        marked.records.insert(
            10,
            EventRecord {
                epoch: 0,
                event: ServiceEvent::Snapshot,
            },
        );
        let mut a = GroupingService::new(config(RegroupPolicy::Repair), &base).unwrap();
        let mut b = GroupingService::new(config(RegroupPolicy::Repair), &marked).unwrap();
        let sa = a.replay(&base).unwrap();
        let sb = b.replay(&marked).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.fleet(), b.fleet());
        assert_eq!(a.plan(), b.plan());
    }
}
