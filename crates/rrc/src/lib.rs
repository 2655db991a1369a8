//! NB-IoT RRC/MAC procedure models.
//!
//! The three grouping mechanisms of the paper differ in *which* control
//! procedures they run and *when*:
//!
//! * every mechanism pages devices ([`PagingMessage`]) and connects them via
//!   the random-access procedure ([`RandomAccess`], TS 36.321),
//! * **DA-SC** additionally reconfigures the DRX cycle over a dedicated
//!   connection ([`DlMessage::RrcConnectionReconfiguration`]) and releases
//!   the device immediately ([`DlMessage::RrcConnectionRelease`]),
//! * **DR-SI** extends the paging message with the non-critical
//!   `mltc-transmission` extension ([`MltcNotification`]: device identity +
//!   time remaining until the multicast transmission) and introduces the
//!   T322 timer and the non-standard
//!   [`EstablishmentCause::MulticastReception`] — which is exactly why that
//!   mechanism is *not* standards-compliant
//!   ([`PagingMessage::is_standards_compliant`]).
//!
//! Procedure airtime/latency costs are centralized in [`SignallingCosts`]
//! so that the energy and bandwidth accounting of the simulator stays
//! consistent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod messages;
mod ra;
mod signalling;
mod timer;

pub use messages::{
    DlMessage, EstablishmentCause, MltcNotification, PagingMessage, PagingRecord,
    RrcConnectionRequest, MAX_PAGING_RECORDS,
};
pub use ra::{RaOutcome, RandomAccess, RandomAccessConfig};
pub use signalling::SignallingCosts;
pub use timer::InactivityTimer;
