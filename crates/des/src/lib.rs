//! Deterministic simulation support.
//!
//! This crate provides the reproducibility and aggregation substrate that
//! replaces the paper's custom Matlab simulator:
//!
//! * [`SeedSequence`] — reproducible per-(run, component) RNG streams
//!   derived from one master seed via SplitMix64,
//! * [`RunningStats`] / [`Summary`] — numerically stable (Welford)
//!   aggregation used to average experiment metrics over the paper's
//!   100 runs.
//!
//! Campaigns need no event queue: `nbiot-sim` accounts a plan in sorted
//! passes (`docs/ARCHITECTURE.md`, "Campaign accounting").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod stats;

pub use rng::{splitmix64, SeedSequence};
pub use stats::{RunningStats, Summary};
