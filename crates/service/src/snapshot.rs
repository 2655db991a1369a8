//! Versioned, checksummed service persistence.
//!
//! A [`ServiceSnapshot`] captures everything a [`GroupingService`] needs
//! to continue a log bit-identically: configuration, fleet, counters and
//! the cached plan. Integrity follows the `ScenarioArchive` playbook:
//!
//! * a **schema version** gating which builds can read the file,
//! * a **fingerprint** over (configuration, mix name, class table) —
//!   computable from a config and an event log *without* the snapshot,
//!   so a caller can detect a snapshot taken under a different setup
//!   before trusting any of its state,
//! * a **checksum** (the shard FNV-1a digest,
//!   [`nbiot_sim::value_digest`]) over the serialized state.

use nbiot_sim::{peek_schema_version, value_digest, PlannedFleet, ServedPlan};
use nbiot_time::UeId;
use nbiot_traffic::{DeviceId, DeviceProfile, Population};
use serde::Serialize;

use crate::engine::{GroupingService, PlanState, ServiceConfig};
use crate::ServiceError;

/// Snapshot format version this build writes and reads.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// The cached plan as persisted: the plan, its mechanism, and the
/// `(id, ue)` identity pairs it was computed against.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanRecord {
    /// Canonical mechanism name.
    pub mechanism: String,
    /// The plan itself.
    pub plan: nbiot_grouping::MulticastPlan,
    /// Identity snapshot at plan time, id-ascending.
    pub planned: Vec<(DeviceId, UeId)>,
}

/// The complete persisted state of a service instance.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceState {
    /// Service configuration.
    pub config: ServiceConfig,
    /// Traffic-mix name of the fleet.
    pub mix_name: String,
    /// Class-name table of the fleet.
    pub class_names: Vec<String>,
    /// The fleet, row by row (rebuilt via [`Population::new`], which is
    /// bit-identical to the incrementally edited original by the
    /// identity-column canonicalization invariant).
    pub devices: Vec<DeviceProfile>,
    /// Current epoch stamp.
    pub epoch: u32,
    /// Replay cursor: event records consumed so far.
    pub next_record: u64,
    /// Campaign requests served so far.
    pub serves: u64,
    /// Fleet events folded since the cached plan was computed.
    pub events_since_plan: u64,
    /// The cached plan, when one was serving.
    pub plan: Option<PlanRecord>,
}

/// A [`ServiceState`] wrapped with its schema version, setup fingerprint
/// and integrity checksum.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceSnapshot {
    /// Format version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// [`service_fingerprint`] of the setup that wrote this snapshot.
    pub fingerprint: u64,
    /// FNV-1a digest of the serialized state.
    pub checksum: u64,
    /// The state itself.
    pub state: ServiceState,
}

/// Fingerprint of a service setup: configuration plus the fleet's mix
/// header. Computable from a [`ServiceConfig`] and an
/// [`EventLog`](crate::EventLog) header alone, so a driver can reject a
/// foreign snapshot before restoring anything from it.
pub fn service_fingerprint(config: &ServiceConfig, mix_name: &str, class_names: &[String]) -> u64 {
    let value = serde::Value::Object(vec![
        ("config".to_string(), config.to_value()),
        ("mix_name".to_string(), mix_name.to_value()),
        ("class_names".to_string(), class_names.to_value()),
    ]);
    value_digest(&value)
}

impl ServiceSnapshot {
    /// Wraps a state with its schema version, fingerprint and checksum.
    pub fn seal(state: ServiceState) -> ServiceSnapshot {
        let fingerprint = service_fingerprint(&state.config, &state.mix_name, &state.class_names);
        let checksum = value_digest(&state.to_value());
        ServiceSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            fingerprint,
            checksum,
            state,
        }
    }

    /// Checks schema version, checksum and internal fingerprint
    /// consistency.
    ///
    /// # Errors
    ///
    /// [`ServiceError::CorruptSnapshot`] naming the first failed check.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(ServiceError::CorruptSnapshot {
                detail: format!(
                    "unsupported snapshot schema version {} (this build reads version {})",
                    self.schema_version, SNAPSHOT_SCHEMA_VERSION
                ),
            });
        }
        let computed = value_digest(&self.state.to_value());
        if computed != self.checksum {
            return Err(ServiceError::CorruptSnapshot {
                detail: format!(
                    "checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                    self.checksum
                ),
            });
        }
        let fingerprint = service_fingerprint(
            &self.state.config,
            &self.state.mix_name,
            &self.state.class_names,
        );
        if fingerprint != self.fingerprint {
            return Err(ServiceError::CorruptSnapshot {
                detail: format!(
                    "fingerprint mismatch: stored {:#018x}, computed {fingerprint:#018x}",
                    self.fingerprint
                ),
            });
        }
        Ok(())
    }

    /// Checks this snapshot belongs to the given setup fingerprint.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ForeignSnapshot`] when it does not.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<(), ServiceError> {
        if self.fingerprint != expected {
            return Err(ServiceError::ForeignSnapshot {
                expected,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshots always serialize")
    }

    /// Parses and validates a snapshot from JSON.
    ///
    /// On a shape mismatch the text is re-examined for a
    /// `schema_version` key, so a snapshot written by a future format
    /// fails with the version message rather than a generic parse error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::CorruptSnapshot`].
    pub fn from_json(text: &str) -> Result<ServiceSnapshot, ServiceError> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| ServiceError::CorruptSnapshot {
                detail: e.to_string(),
            })?;
        match serde::Deserialize::from_value(&value) {
            Ok(snapshot) => {
                let snapshot: ServiceSnapshot = snapshot;
                snapshot.validate()?;
                Ok(snapshot)
            }
            Err(e) => {
                if let Some(found) = peek_schema_version(&value) {
                    if found != SNAPSHOT_SCHEMA_VERSION {
                        return Err(ServiceError::CorruptSnapshot {
                            detail: format!(
                                "snapshot has schema version {found}; this build reads version {SNAPSHOT_SCHEMA_VERSION}"
                            ),
                        });
                    }
                }
                Err(ServiceError::CorruptSnapshot {
                    detail: e.to_string(),
                })
            }
        }
    }
}

impl GroupingService {
    /// Captures the service as a sealed, restorable snapshot.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot::seal(ServiceState {
            config: self.config,
            mix_name: self.fleet.mix_name().to_string(),
            class_names: self.fleet.class_names().to_vec(),
            devices: self.fleet.profiles(),
            epoch: self.epoch,
            next_record: self.next_record,
            serves: self.serves,
            events_since_plan: self.events_since_plan,
            plan: self.plan.as_ref().map(|state| PlanRecord {
                mechanism: state.mechanism.clone(),
                plan: state.served.plan.clone(),
                planned: state.served.planned.members().to_vec(),
            }),
        })
    }

    /// This service's setup fingerprint (what its snapshots carry).
    pub fn fingerprint(&self) -> u64 {
        service_fingerprint(
            &self.config,
            self.fleet.mix_name(),
            self.fleet.class_names(),
        )
    }

    /// Rebuilds a service from a validated snapshot. The restored fleet
    /// is bit-identical to the one the snapshot captured, and replaying
    /// the remainder of the original event log continues exactly as an
    /// uninterrupted run would.
    ///
    /// # Errors
    ///
    /// [`ServiceSnapshot::validate`] failures, configuration validation
    /// failures, and [`ServiceError::CorruptSnapshot`] for a cached plan
    /// whose identity pairs are not strictly id-ascending.
    pub fn restore(snapshot: &ServiceSnapshot) -> Result<GroupingService, ServiceError> {
        snapshot.validate()?;
        let state = &snapshot.state;
        state.config.validate()?;
        let fleet = Population::new(
            state.mix_name.clone(),
            state.class_names.clone(),
            state.devices.clone(),
        );
        let plan = match &state.plan {
            Some(record) => Some(PlanState {
                mechanism: record.mechanism.clone(),
                served: ServedPlan {
                    plan: record.plan.clone(),
                    planned: PlannedFleet::from_members(record.planned.clone()).ok_or_else(
                        || ServiceError::CorruptSnapshot {
                            detail: "planned-fleet ids are not strictly ascending".to_string(),
                        },
                    )?,
                },
            }),
            None => None,
        };
        Ok(GroupingService {
            config: state.config,
            fleet,
            epoch: state.epoch,
            next_record: state.next_record,
            serves: state.serves,
            events_since_plan: state.events_since_plan,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventLog, ServeSummary};
    use nbiot_sim::RegroupPolicy;
    use nbiot_traffic::{ChurnModel, TrafficMix};

    fn log(devices: usize, epochs: u32, seed: u64) -> EventLog {
        EventLog::synthesize(
            &TrafficMix::mobility_churn(),
            devices,
            &ChurnModel {
                epochs,
                departure_rate: 0.15,
                arrival_rate: 0.15,
                handover_rate: 0.25,
            },
            "dr-sc",
            seed,
        )
        .unwrap()
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            policy: RegroupPolicy::Repair,
            seed: 21,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let log = log(30, 2, 1);
        let mut service = GroupingService::new(config(), &log).unwrap();
        service.replay(&log).unwrap();
        let snapshot = service.snapshot();
        snapshot.validate().unwrap();
        let back = ServiceSnapshot::from_json(&snapshot.to_json_pretty()).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn restore_midway_continues_bit_identically() {
        let log = log(40, 4, 2);
        // Uninterrupted run.
        let mut straight = GroupingService::new(config(), &log).unwrap();
        let all: Vec<ServeSummary> = straight.replay(&log).unwrap();
        // Interrupted run: replay half, snapshot, restore, continue.
        let mut first = GroupingService::new(config(), &log).unwrap();
        let cut = log.records.len() / 2;
        let mut summaries = Vec::new();
        for record in &log.records[..cut] {
            if let crate::Applied::Served(s) = first.apply(record).unwrap() {
                summaries.push(s);
            }
        }
        let snapshot = ServiceSnapshot::from_json(&first.snapshot().to_json_pretty()).unwrap();
        let mut resumed = GroupingService::restore(&snapshot).unwrap();
        assert_eq!(resumed.next_record(), cut as u64);
        summaries.extend(resumed.replay(&log).unwrap());
        assert_eq!(summaries, all);
        assert_eq!(resumed.fleet(), straight.fleet());
        assert_eq!(resumed.plan(), straight.plan());
        // The final snapshots are byte-for-byte identical.
        assert_eq!(
            resumed.snapshot().to_json_pretty(),
            straight.snapshot().to_json_pretty()
        );
    }

    #[test]
    fn tampered_state_fails_the_checksum() {
        let log = log(20, 1, 3);
        let mut service = GroupingService::new(config(), &log).unwrap();
        service.replay(&log).unwrap();
        let mut snapshot = service.snapshot();
        snapshot.state.serves += 1;
        let err = snapshot.validate().unwrap_err();
        assert!(
            matches!(&err, ServiceError::CorruptSnapshot { detail } if detail.contains("checksum")),
            "{err}"
        );
        let err = ServiceSnapshot::from_json(&snapshot.to_json_pretty()).unwrap_err();
        assert!(matches!(err, ServiceError::CorruptSnapshot { .. }));
        // A resealed cached plan whose identity pairs are out of id order
        // is refused on restore, in every build.
        let mut state = service.snapshot().state;
        state
            .plan
            .as_mut()
            .expect("a served log caches a plan")
            .planned
            .reverse();
        let err = GroupingService::restore(&ServiceSnapshot::seal(state)).unwrap_err();
        assert!(
            matches!(&err, ServiceError::CorruptSnapshot { detail } if detail.contains("ascending")),
            "{err}"
        );
    }

    #[test]
    fn future_schema_versions_are_named_in_the_error() {
        let text = r#"{ "schema_version": 99, "something": "else" }"#;
        let err = ServiceSnapshot::from_json(text).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("schema version 99"), "{message}");
        let supported = format!("reads version {SNAPSHOT_SCHEMA_VERSION}");
        assert!(message.contains(&supported), "{message}");
        // A sealed snapshot with a bumped version also fails validate.
        let log = log(10, 0, 4);
        let mut service = GroupingService::new(config(), &log).unwrap();
        service.replay(&log).unwrap();
        let mut snapshot = service.snapshot();
        snapshot.schema_version = 99;
        let message = snapshot.validate().unwrap_err().to_string();
        assert!(message.contains(&supported), "{message}");
    }

    #[test]
    fn fingerprint_detects_foreign_setups() {
        let log = log(15, 1, 5);
        let mut service = GroupingService::new(config(), &log).unwrap();
        service.replay(&log).unwrap();
        let snapshot = service.snapshot();
        assert_eq!(snapshot.fingerprint, service.fingerprint());
        snapshot.expect_fingerprint(service.fingerprint()).unwrap();
        // A different seed is a different setup.
        let other = ServiceConfig {
            seed: 999,
            ..config()
        };
        let foreign = service_fingerprint(&other, &log.mix_name, &log.class_names);
        assert_ne!(foreign, snapshot.fingerprint);
        let err = snapshot.expect_fingerprint(foreign).unwrap_err();
        assert!(matches!(err, ServiceError::ForeignSnapshot { .. }));
    }
}
