//! Massive-IoT device population and traffic model.
//!
//! The paper evaluates "a single cell with realistic NB-IoT traffic
//! patterns based on [Ericsson, *Massive IoT in the City*]". What the
//! grouping mechanisms actually consume from that substrate is:
//!
//! 1. the **distribution of (e)DRX cycles** across the device population —
//!    which controls how often paging occasions of different devices fall
//!    close together (the whole game for DR-SC), and
//! 2. the **paging-occasion phases**, set by per-device UE identities.
//!
//! Each class also carries a mean uplink report interval, kept with every
//! device profile; the random-access contention ablation sets its
//! contender count directly instead of sampling reports.
//!
//! [`TrafficMix`] describes a population as weighted [`ClassSpec`]s;
//! [`TrafficMix::ericsson_city`] is the default city-scale mix of smart
//! meters, sensors, trackers and alarms, dominated by long eDRX cycles as
//! appropriate for 10-year-battery devices. [`Population`] is the generated
//! result, reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use nbiot_traffic::TrafficMix;
//! use rand::SeedableRng;
//!
//! let mix = TrafficMix::ericsson_city();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pop = mix.generate(500, &mut rng)?;
//! assert_eq!(pop.len(), 500);
//! // The city mix is eDRX-heavy: most devices sleep for minutes or hours.
//! let edrx = pop.iter().filter(|d| d.paging.cycle.is_edrx()).count();
//! assert!(edrx > 400);
//! # Ok::<(), nbiot_traffic::TrafficError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod error;
mod mix;
mod population;

pub use churn::{ChurnEvents, ChurnModel, FleetEvent};
pub use error::TrafficError;
pub use mix::{ClassSpec, TrafficMix};
pub use population::{ClassId, DeviceId, DeviceProfile, Population};
