//! # nbiot-multicast
//!
//! A Rust reproduction of **"On Device Grouping for Efficient Multicast
//! Communications in Narrowband-IoT"** (Tsoukaneri & Marina, IEEE ICDCS
//! 2018): three mechanisms for grouping and synchronizing NB-IoT devices so
//! that a firmware-sized payload can be multicast to thousands of sleeping
//! devices, together with the full substrate needed to evaluate them — 3GPP
//! paging timing, an NB-IoT downlink model, RRC procedures, an energy
//! ledger, a massive-IoT traffic model and a deterministic campaign
//! simulator.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so that applications can depend on one crate.
//!
//! | Concern | Crate |
//! |---------|-------|
//! | subframe clock, (e)DRX cycles, TS 36.304 paging occasions | [`time`] (`nbiot-time`) |
//! | seeded RNG streams, statistics | [`des`] (`nbiot-des`) |
//! | TBS tables, transfer durations, bandwidth ledger | [`phy`] (`nbiot-phy`) |
//! | paging messages, random access, signalling costs | [`rrc`] (`nbiot-rrc`) |
//! | power states, uptime ledgers, relative metrics | [`energy`] (`nbiot-energy`) |
//! | device classes, population generation | [`traffic`] (`nbiot-traffic`) |
//! | **the paper's mechanisms: DR-SC, DA-SC, DR-SI (+ baselines)** | [`grouping`] (`nbiot-grouping`) |
//! | campaign/experiment execution | [`sim`] (`nbiot-sim`) |
//! | event-driven grouping service: replayable logs, snapshots | [`service`] (`nbiot-service`, with the `serde` feature) |
//!
//! # Quickstart
//!
//! ```
//! use nbiot_multicast::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. A city-scale NB-IoT population.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let population = TrafficMix::ericsson_city().generate(100, &mut rng)?;
//!
//! // 2. The grouping problem: deliver one payload to all of them.
//! let input = GroupingInput::from_population(&population, GroupingParams::default())?;
//!
//! // 3. Plan with the paper's recommended mechanism (DA-SC) and simulate.
//! let result = run_campaign(&DaSc::new(), &input, &SimConfig::default(), &mut rng)?;
//! assert_eq!(result.transmission_count, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nbiot_des as des;
pub use nbiot_energy as energy;
pub use nbiot_grouping as grouping;
pub use nbiot_phy as phy;
pub use nbiot_rrc as rrc;
#[cfg(feature = "serde")]
pub use nbiot_service as service;
pub use nbiot_sim as sim;
pub use nbiot_time as time;
pub use nbiot_traffic as traffic;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use nbiot_des::{RunningStats, SeedSequence, Summary};
    pub use nbiot_energy::{PowerProfile, PowerState, RelativeUptime, UptimeLedger};
    pub use nbiot_grouping::{
        recommend, AdaptationGrid, DaSc, DrSc, DrSi, GroupingError, GroupingInput,
        GroupingMechanism, GroupingParams, MechanismKind, MulticastPlan, NotifyPolicy,
        Recommendation, ScPtm, SelectionPolicy, Unicast,
    };
    pub use nbiot_phy::{BandwidthLedger, CoverageClass, DataSize, NpdschConfig, TrafficCategory};
    pub use nbiot_rrc::{
        EstablishmentCause, InactivityTimer, PagingMessage, RandomAccess, RandomAccessConfig,
        SignallingCosts,
    };
    #[cfg(feature = "serde")]
    pub use nbiot_service::{
        EventLog, EventRecord, GroupingService, ServeSummary, ServiceConfig, ServiceError,
        ServiceEvent, ServiceSnapshot,
    };
    pub use nbiot_sim::{
        run_campaign, run_scenario, CampaignResult, ComparisonResult, PointResult, RegroupPolicy,
        Scenario, ScenarioResult, SimConfig, SimError,
    };
    pub use nbiot_time::{
        CycleLadder, DrxCycle, EdrxCycle, PagingConfig, PagingCycle, PagingSchedule, SimDuration,
        SimInstant, TimeWindow, UeId,
    };
    pub use nbiot_traffic::{
        ChurnEvents, ChurnModel, ClassSpec, DeviceId, DeviceProfile, Population, TrafficMix,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let _ = SimInstant::ZERO;
        let _ = MechanismKind::ALL;
        let _ = SimConfig::default();
    }
}
