//! Service-layer errors.

use core::fmt;

use nbiot_grouping::{GroupingError, PlanViolation};
use nbiot_sim::SimError;
use nbiot_traffic::TrafficError;

/// Errors produced while driving a [`GroupingService`](crate::GroupingService).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A fleet event could not be applied (unknown or duplicate device).
    Traffic(TrafficError),
    /// Planning or repairing a multicast plan failed.
    Grouping(GroupingError),
    /// A freshly computed plan violated a plan invariant (a mechanism
    /// bug, surfaced rather than served).
    Plan(PlanViolation),
    /// Configuration validation failed (e.g. an out-of-range staleness
    /// threshold).
    Sim(SimError),
    /// A campaign request named a mechanism the registry does not know.
    UnknownMechanism {
        /// The unrecognized mechanism spelling.
        name: String,
    },
    /// An event record is stamped with an epoch earlier than the
    /// service's current epoch — logs must be epoch-monotone.
    EpochRegression {
        /// The regressive record's epoch.
        record: u32,
        /// The service's current epoch.
        current: u32,
    },
    /// A replayed log's traffic-mix header does not match the fleet this
    /// service was built for.
    MixMismatch {
        /// The mix the service tracks.
        expected: String,
        /// The mix the log declares.
        found: String,
    },
    /// An event log failed to parse.
    CorruptLog {
        /// What went wrong.
        detail: String,
    },
    /// A snapshot failed to parse or failed its integrity checks.
    CorruptSnapshot {
        /// What went wrong.
        detail: String,
    },
    /// A snapshot belongs to a different service configuration or fleet
    /// (its fingerprint does not match the expected one).
    ForeignSnapshot {
        /// The fingerprint this service expects.
        expected: u64,
        /// The fingerprint the snapshot carries.
        found: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Traffic(e) => write!(f, "fleet event failed: {e}"),
            ServiceError::Grouping(e) => write!(f, "planning failed: {e}"),
            ServiceError::Plan(v) => write!(f, "served plan violates an invariant: {v}"),
            ServiceError::Sim(e) => write!(f, "service configuration invalid: {e}"),
            ServiceError::UnknownMechanism { name } => {
                write!(f, "unknown mechanism {name:?} in campaign request")
            }
            ServiceError::EpochRegression { record, current } => write!(
                f,
                "event record at epoch {record} behind service epoch {current}: logs must be epoch-monotone"
            ),
            ServiceError::MixMismatch { expected, found } => write!(
                f,
                "event log is for mix {found:?} but the service tracks mix {expected:?}"
            ),
            ServiceError::CorruptLog { detail } => write!(f, "corrupt event log: {detail}"),
            ServiceError::CorruptSnapshot { detail } => write!(f, "corrupt snapshot: {detail}"),
            ServiceError::ForeignSnapshot { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match expected {expected:#018x}: \
                 it was taken under a different configuration or event log"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Traffic(e) => Some(e),
            ServiceError::Grouping(e) => Some(e),
            ServiceError::Plan(v) => Some(v),
            ServiceError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrafficError> for ServiceError {
    fn from(e: TrafficError) -> Self {
        ServiceError::Traffic(e)
    }
}

impl From<GroupingError> for ServiceError {
    fn from(e: GroupingError) -> Self {
        ServiceError::Grouping(e)
    }
}

impl From<PlanViolation> for ServiceError {
    fn from(v: PlanViolation) -> Self {
        ServiceError::Plan(v)
    }
}

impl From<SimError> for ServiceError {
    /// A planning failure of the serve step stays a
    /// [`ServiceError::Grouping`] and a plan violation a
    /// [`ServiceError::Plan`]; anything else is [`ServiceError::Sim`].
    fn from(e: SimError) -> Self {
        match e {
            SimError::Grouping(e) => ServiceError::Grouping(e),
            SimError::InvalidPlan(v) => ServiceError::Plan(v),
            e => ServiceError::Sim(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ServiceError::UnknownMechanism {
            name: "mr-tc".into(),
        };
        assert!(e.to_string().contains("mr-tc"));
        let e = ServiceError::ForeignSnapshot {
            expected: 0xAB,
            found: 0xCD,
        };
        let text = e.to_string();
        assert!(text.contains("0x00000000000000cd"), "{text}");
        assert!(text.contains("0x00000000000000ab"), "{text}");
        let e = ServiceError::EpochRegression {
            record: 1,
            current: 4,
        };
        assert!(e.to_string().contains("epoch 1"));
        assert!(e.to_string().contains("epoch 4"));
    }

    #[test]
    fn sources_chain_to_the_layer_that_failed() {
        use std::error::Error as _;
        let e = ServiceError::from(TrafficError::UnknownDevice {
            device: nbiot_traffic::DeviceId(3),
        });
        assert!(e.source().is_some());
        let e = ServiceError::CorruptSnapshot { detail: "x".into() };
        assert!(e.source().is_none());
    }
}
