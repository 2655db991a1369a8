//! Grouping errors and plan-invariant violations.

use core::fmt;

use nbiot_time::SimInstant;
use nbiot_traffic::DeviceId;

/// Errors produced while computing a grouping plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GroupingError {
    /// The inactivity timer is shorter than the shortest standard DRX
    /// cycle, so DA-SC cannot guarantee a PO inside the pre-transmission
    /// window (the paper's guarantee "since the shortest DRX cycle is
    /// typically much shorter than TI" is violated).
    TiTooShort {
        /// Configured TI in ms.
        ti_ms: u64,
        /// Shortest standard cycle in ms.
        shortest_cycle_ms: u64,
    },
    /// The chosen transmission time leaves a device without any paging
    /// occasion to be notified or adapted at.
    NoUsablePo {
        /// The stranded device.
        device: DeviceId,
        /// The transmission instant that was attempted.
        t: SimInstant,
    },
    /// A paging-schedule resolution failed.
    Schedule(nbiot_time::TimeError),
    /// The transmission time override precedes the feasible minimum.
    TransmissionTooEarly {
        /// Requested instant.
        requested: SimInstant,
        /// Minimum feasible instant (`start + 2·maxDRX`).
        minimum: SimInstant,
    },
    /// A grouping parameter lies past the latest instant planning accepts
    /// ([`crate::GroupingParams::LATEST_INSTANT`]).
    InstantOutOfRange {
        /// The parameter: `start` or `transmission_time`.
        field: &'static str,
        /// Requested instant.
        requested: SimInstant,
        /// The latest accepted instant.
        latest: SimInstant,
    },
}

impl fmt::Display for GroupingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupingError::TiTooShort {
                ti_ms,
                shortest_cycle_ms,
            } => write!(
                f,
                "inactivity timer {ti_ms} ms is shorter than the shortest DRX cycle {shortest_cycle_ms} ms"
            ),
            GroupingError::NoUsablePo { device, t } => {
                write!(f, "{device} has no usable paging occasion before {t}")
            }
            GroupingError::Schedule(e) => write!(f, "paging schedule resolution failed: {e}"),
            GroupingError::TransmissionTooEarly { requested, minimum } => write!(
                f,
                "transmission time {requested} precedes feasible minimum {minimum}"
            ),
            GroupingError::InstantOutOfRange {
                field,
                requested,
                latest,
            } => write!(
                f,
                "grouping {field} {} ms is past the latest plannable instant {} ms",
                requested.as_ms(),
                latest.as_ms()
            ),
        }
    }
}

impl std::error::Error for GroupingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GroupingError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nbiot_time::TimeError> for GroupingError {
    fn from(e: nbiot_time::TimeError) -> Self {
        GroupingError::Schedule(e)
    }
}

/// A violated invariant of a [`crate::MulticastPlan`], reported by
/// [`crate::MulticastPlan::validate`].
///
/// Any violation is a bug in a mechanism implementation; the test suite
/// asserts that none is ever produced.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// A device is served by zero or multiple transmissions.
    NotExactlyOnce {
        /// The mis-served device.
        device: DeviceId,
        /// Number of transmissions listing the device as recipient.
        times: usize,
    },
    /// A device connects outside `[receives_at − TI, receives_at]`, so its
    /// inactivity timer would have expired (or it would miss the data).
    InactivityViolated {
        /// The affected device.
        device: DeviceId,
        /// When the device connects.
        connect_at: SimInstant,
        /// When its transmission happens.
        receives_at: SimInstant,
    },
    /// Transmissions are not sorted in time.
    UnsortedTransmissions,
    /// A device plan references a transmission instant that does not exist.
    UnknownTransmission {
        /// The affected device.
        device: DeviceId,
        /// The dangling instant.
        receives_at: SimInstant,
    },
    /// The plan claims standards compliance but uses non-standard
    /// signalling (or vice versa).
    ComplianceMismatch,
    /// An action is scheduled before the campaign start.
    BeforeStart {
        /// The affected device.
        device: DeviceId,
    },
    /// The device plans are not one per group member in the group's
    /// device order.
    DeviceOrder {
        /// The first position where the device plans and the group's
        /// device order disagree (the shorter length when one list is a
        /// prefix of the other).
        index: usize,
    },
    /// A transmission lists a device that is not a member of the group.
    UnknownRecipient {
        /// The foreign recipient.
        device: DeviceId,
    },
    /// A connection-requiring plan does not connect the device at exactly
    /// one trigger (its page PO or its T322 wake) equal to its
    /// `connect_at`.
    ConnectionTrigger {
        /// The affected device.
        device: DeviceId,
    },
    /// The plan's periodic control monitoring has a zero period.
    ControlMonitoringPeriod,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::NotExactlyOnce { device, times } => {
                write!(f, "{device} is served by {times} transmissions instead of 1")
            }
            PlanViolation::InactivityViolated {
                device,
                connect_at,
                receives_at,
            } => write!(
                f,
                "{device} connects at {connect_at} but receives at {receives_at}: outside the inactivity window"
            ),
            PlanViolation::UnsortedTransmissions => {
                f.write_str("transmissions are not sorted by time")
            }
            PlanViolation::UnknownTransmission { device, receives_at } => {
                write!(f, "{device} references unknown transmission at {receives_at}")
            }
            PlanViolation::ComplianceMismatch => {
                f.write_str("plan compliance flag contradicts its signalling")
            }
            PlanViolation::BeforeStart { device } => {
                write!(f, "{device} has an action scheduled before campaign start")
            }
            PlanViolation::DeviceOrder { index } => write!(
                f,
                "device plan {index} does not match the group's device order"
            ),
            PlanViolation::UnknownRecipient { device } => {
                write!(f, "{device} is a recipient but not a group member")
            }
            PlanViolation::ConnectionTrigger { device } => write!(
                f,
                "{device} is not connected at exactly one page or wake trigger equal to its connect_at"
            ),
            PlanViolation::ControlMonitoringPeriod => {
                f.write_str("control monitoring has a zero period")
            }
        }
    }
}

impl std::error::Error for PlanViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_error_display() {
        let e = GroupingError::TiTooShort {
            ti_ms: 100,
            shortest_cycle_ms: 320,
        };
        assert!(e.to_string().contains("100 ms"));
        assert!(e.to_string().contains("320 ms"));
    }

    #[test]
    fn plan_violation_display() {
        let v = PlanViolation::NotExactlyOnce {
            device: DeviceId(3),
            times: 2,
        };
        assert!(v.to_string().contains("dev3"));
        assert!(v.to_string().contains("2 transmissions"));
    }
}
