//! Long-lived, event-driven grouping service for NB-IoT multicast.
//!
//! The batch pipeline (`nbiot-sim`) plans against a population it owns
//! for the length of one experiment. A deployment looks different: the
//! fleet is a *stream* of registrations, departures and handovers, and
//! multicast plans are requested on demand while the fleet keeps
//! drifting. This crate is that deployment shape, kept exactly as
//! deterministic as the batch path:
//!
//! * [`EventLog`] — the replayable input: epoch-stamped [`EventRecord`]s
//!   carrying fleet changes ([`nbiot_traffic::FleetEvent`]), campaign
//!   requests and snapshot marks. Logs round-trip through JSON and can
//!   be synthesized from a [`ChurnModel`](nbiot_traffic::ChurnModel)
//!   ([`EventLog::synthesize`]), so a service run is a pure function of
//!   a file.
//! * [`GroupingService`] — the engine: maintains the fleet incrementally
//!   (bit-identical to a fresh batch
//!   [`Population`](nbiot_traffic::Population) built from the surviving
//!   devices — the replay-equivalence contract locked by
//!   `tests/service_equivalence.rs`), serves
//!   [`MulticastPlan`](nbiot_grouping::MulticastPlan)s on request, and
//!   decides per request whether the cached plan still holds, the LNS
//!   repair pass patches it, or the mechanism re-plans from scratch —
//!   governed by a [`RegroupPolicy`](nbiot_sim::RegroupPolicy) and
//!   decided by [`ServedPlan::serve`](nbiot_sim::ServedPlan::serve), the
//!   serve step the batch simulator runs once per churn epoch.
//! * [`ServiceSnapshot`] — versioned, checksummed persistence
//!   ([`SNAPSHOT_SCHEMA_VERSION`]): a restored service continues the
//!   log bit-identically to one that never stopped.
//!
//! The `groupingd` binary (in `nbiot-bench`) drives a service from an
//! event-log file; `docs/SERVICE.md` walks through the architecture.
//!
//! # Example
//!
//! ```
//! use nbiot_service::{EventLog, GroupingService, ServiceConfig};
//! use nbiot_traffic::{ChurnModel, TrafficMix};
//!
//! let model = ChurnModel {
//!     epochs: 3,
//!     departure_rate: 0.1,
//!     arrival_rate: 0.1,
//!     handover_rate: 0.2,
//! };
//! let log = EventLog::synthesize(&TrafficMix::mobility_churn(), 40, &model, "dr-sc", 7)?;
//! let mut service = GroupingService::new(ServiceConfig::default(), &log)?;
//! let summaries = service.replay(&log)?;
//! // One served campaign per epoch: the initial fleet plus three churned ones.
//! assert_eq!(summaries.len(), 4);
//! # Ok::<(), nbiot_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod error;
mod event;
mod snapshot;

pub use engine::{Applied, GroupingService, ServeSummary, ServiceConfig};
pub use error::ServiceError;
pub use event::{EventLog, EventRecord, ServiceEvent};
pub use nbiot_sim::ServeAction;
pub use snapshot::{
    service_fingerprint, PlanRecord, ServiceSnapshot, ServiceState, SNAPSHOT_SCHEMA_VERSION,
};
