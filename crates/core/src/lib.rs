//! Device grouping mechanisms for NB-IoT multicast — the primary
//! contribution of Tsoukaneri & Marina, *On Device Grouping for Efficient
//! Multicast Communications in Narrowband-IoT* (ICDCS 2018).
//!
//! A group of NB-IoT devices must receive the same payload (e.g. a firmware
//! image). Devices sleep on heterogeneous (e)DRX cycles and are reachable
//! only at their paging occasions (POs); a device paged at a PO stays awake
//! for the inactivity timer `TI`, so a multicast transmission at time `t`
//! reaches exactly the devices with a PO in `[t − TI, t)`.
//!
//! Three mechanisms (paper Sec. III), all implementing
//! [`GroupingMechanism`]:
//!
//! * [`DrSc`] — *DRX Respecting, Standards Compliant*: leaves every DRX
//!   cycle untouched and covers the group with multiple transmissions,
//!   chosen by a greedy set cover ([`set_cover`]) over the PO timeline.
//!   Lowest energy, highest bandwidth.
//! * [`DaSc`] — *DRX Adjusting, Standards Compliant*: picks a single
//!   transmission instant `t ≥ start + 2·maxDRX` and temporarily shortens
//!   the DRX cycle of every device without a PO in `[t − TI, t)` (via
//!   standard RRC reconfiguration at the last PO before `t − TI`) so that
//!   one transmission covers everyone. One transmission, slightly more
//!   energy.
//! * [`DrSi`] — *DRX Respecting, Standards Incompliant*: notifies devices
//!   in advance through a non-critical paging extension
//!   (`mltc-transmission`); each device arms the T322 timer at a random
//!   instant in `[t − TI, t)` and connects just in time. One transmission,
//!   near-baseline energy, but not standards-compliant.
//!
//! Baselines: [`Unicast`] (per-device delivery — the paper's energy
//! reference) and [`ScPtm`] (the standardized SC-PTM multicast, as
//! discussed in Sec. II-A).
//!
//! Every mechanism produces a [`MulticastPlan`] — a declarative schedule of
//! transmissions, pagings, adaptations and wake-ups that the `nbiot-sim`
//! crate executes, and whose invariants
//! ([`MulticastPlan::validate`]) are enforced in tests.
//!
//! # Example
//!
//! ```
//! use nbiot_grouping::{DrSc, GroupingInput, GroupingMechanism, GroupingParams};
//! use nbiot_traffic::TrafficMix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let pop = TrafficMix::ericsson_city().generate(50, &mut rng)?;
//! let input = GroupingInput::from_population(&pop, GroupingParams::default())?;
//! let plan = DrSc::default().plan(&input, &mut rng)?;
//! plan.validate(&input)?;
//! // Every device is served by exactly one of the (usually many) DR-SC
//! // transmissions.
//! assert_eq!(plan.device_plans.len(), 50);
//! assert!(plan.transmissions.len() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
mod da_sc;
mod dr_sc;
mod dr_si;
mod error;
pub mod improve;
mod input;
mod mechanism;
mod plan;
mod recommend;
pub mod repair;
mod scptm;
pub mod set_cover;
mod unicast;

pub use da_sc::{AdaptationGrid, DaSc};
pub use dr_sc::{DrSc, DrScTabu, DrScWeighted, DEFAULT_TABU_BUDGET};
pub use dr_si::{DrSi, NotifyPolicy};
pub use error::{GroupingError, PlanViolation};
pub use improve::ImprovementStats;
pub use input::{GroupingInput, GroupingParams};
pub use mechanism::{GroupingMechanism, MechanismKind};
pub use plan::{
    AdaptationDirective, ControlMonitoring, DevicePlan, MltcDirective, MulticastPlan,
    PageDirective, Transmission,
};
pub use recommend::{recommend, Recommendation, SelectionPolicy};
pub use repair::repair_plan;
pub use scptm::ScPtm;
pub use unicast::Unicast;
