//! Single-cell NB-IoT multicast campaign simulator.
//!
//! This crate is the executable counterpart of `nbiot-grouping`: it takes a
//! declarative [`MulticastPlan`](nbiot_grouping::MulticastPlan) and accounts
//! it in a few sorted passes over flat arrays, producing a cell
//! [`BandwidthLedger`](nbiot_phy::BandwidthLedger) and one
//! [`UptimeLedger`](nbiot_energy::UptimeLedger) per device — the raw
//! material of the paper's Fig. 6 and Fig. 7. The engine hands each ledger
//! to a fold as its device pass completes it: [`run_campaign`] collects
//! them into a [`CampaignResult`], while a scenario grid keeps only their
//! population sums, so an item's memory does not grow with ledgers.
//!
//! Layers:
//!
//! * [`SimConfig`] — payload size, NPDSCH configuration, random-access
//!   model and signalling costs,
//! * [`run_campaign`] — one mechanism on one population,
//! * [`Scenario`] / [`run_scenario`] — the paper's methodology as one
//!   declarative experiment suite (mix × device sweep × payloads ×
//!   mechanisms × runs) executed as one grid: every run's population is
//!   shared by the unicast baseline and every mechanism, and the
//!   mechanisms' metrics relative to that baseline are averaged over
//!   `runs` repetitions. A registry of built-in scenarios covers the
//!   paper's figures; a scenario may declare
//!   a [`ChurnModel`](nbiot_traffic::ChurnModel) plus a [`RegroupPolicy`]
//!   to evolve the population across campaign epochs and re-plan when the
//!   grouping goes stale (`docs/SCENARIOS.md`),
//! * [`ShardSpec`] / [`run_scenario_shard`] / [`merge_archives`] (with the
//!   `serde` feature) — multi-host sharding of the (point × run) item pool
//!   into mergeable [`ScenarioArchive`]s, bit-identical to the unsharded
//!   run.
//!
//! All experiment execution flows through one generic scheduler whose work
//! items are **(sweep point × run)** pairs, fanned out across
//! [`Scenario::threads`] OS threads (`0` = all cores, `1` =
//! serial) — the pool spans entire sweeps and figure suites at once. Each
//! item is a pure function of its per-run seed; within an item the run's
//! population and each mechanism's plan are generated **once** and shared
//! across payload variants; a static item holds one plan at a time and
//! drops each once its rows are written. The per-item records are folded
//! in item order, so the results are **bit-identical for every thread
//! count** — parallelism only buys wall-clock.
//!
//! Accounting model (`docs/ARCHITECTURE.md`, "Campaign accounting"):
//! protocol actions (pagings, random access, reconfigurations, T322
//! wake-ups, transmissions) are replayed in protocol order only where
//! order matters — the random-access draws and the shared carrier — and
//! folded into the ledgers device by device; strictly periodic background
//! PO monitoring is accounted analytically over a horizon common to all
//! compared mechanisms, which is both exact and fast.
//!
//! # Example
//!
//! ```
//! use nbiot_sim::{run_scenario, Scenario};
//!
//! // The paper's default point (DR-SC, DA-SC, DR-SI), scaled down.
//! let scenario = Scenario {
//!     devices: vec![40],
//!     runs: 3,
//!     ..Scenario::default()
//! };
//! let result = run_scenario(&scenario)?;
//! let dr_sc = result.points[0].comparison.mechanism("DR-SC").unwrap();
//! // DR-SC spends no extra light-sleep energy over unicast (Fig. 6(a)).
//! assert!(dr_sc.rel_light_sleep.mean.abs() < 1e-9);
//! # Ok::<(), nbiot_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod campaign;
mod churn;
mod config;
mod engine;
mod error;
mod experiment;
mod result;
mod scenario;
#[cfg(feature = "serde")]
mod shard;

pub use campaign::run_campaign;
pub use churn::{PlannedFleet, RegroupPolicy, ServeAction, ServedPlan};
pub use config::SimConfig;
pub use error::{SimError, SimField};
pub use experiment::{ComparisonResult, ItemRows, MechRun, MechanismSummary};
pub use result::CampaignResult;
pub use scenario::{run_scenario, with_ti, PointResult, Scenario, ScenarioResult};
#[cfg(feature = "serde")]
pub use shard::{
    merge_archives, merge_archives_with, peek_schema_version, record_checksum, run_scenario_shard,
    scenario_fingerprint, value_digest, ArchiveItem, MergePolicy, ScenarioArchive, ShardCoverage,
    ShardSpec, ARCHIVE_SCHEMA_VERSION,
};
