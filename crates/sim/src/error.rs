//! Simulator errors.

use core::fmt;

use nbiot_grouping::{GroupingError, PlanViolation};
use nbiot_traffic::TrafficError;

/// Errors surfaced by campaign and experiment execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Plan computation failed.
    Grouping(GroupingError),
    /// A mechanism produced a structurally invalid plan (always a bug).
    InvalidPlan(PlanViolation),
    /// Population generation failed.
    Traffic(TrafficError),
    /// An experiment was configured with zero runs or zero devices.
    DegenerateExperiment {
        /// Number of devices requested.
        n_devices: usize,
        /// Number of runs requested.
        runs: u32,
    },
    /// A scenario listed no sweep points or no mechanisms.
    EmptyScenario {
        /// Which list was empty (`"devices"`, `"payloads"`, `"mechanisms"`).
        what: &'static str,
    },
    /// A scenario number lies outside the values the campaign model is
    /// defined for (the bounds are listed on
    /// [`Scenario::validate`](crate::Scenario::validate)).
    OutOfRange {
        /// The field, which names its path and allowed values.
        field: SimField,
        /// The offending value, in milliseconds for a duration.
        value: u64,
    },
    /// A re-grouping staleness threshold is not a fraction in `[0, 1]`.
    InvalidRegroupThreshold {
        /// The offending threshold.
        threshold: f64,
    },
    /// A shard spec addressed a shard outside its own count, or zero shards.
    InvalidShard {
        /// Zero-based shard index.
        index: u32,
        /// Total number of shards.
        count: u32,
    },
    /// An archive merge was given no archives at all.
    NoArchives,
    /// Two archives in one merge came from different scenario configs.
    FingerprintMismatch {
        /// Fingerprint of the first archive.
        expected: u64,
        /// The disagreeing fingerprint.
        found: u64,
    },
    /// Two archives in one merge disagreed on the total shard count.
    ShardCountMismatch {
        /// Shard count of the first archive.
        expected: u32,
        /// The disagreeing count.
        found: u32,
    },
    /// The same shard index appeared more than once in a merge set with
    /// *diverging* records. Byte-identical duplicates (idempotent
    /// re-submission after a retry) merge cleanly; divergence means one
    /// copy is corrupt or came from a non-deterministic worker.
    ConflictingShard {
        /// The conflicting zero-based shard index.
        index: u32,
    },
    /// A shard index was absent from a merge set.
    MissingShard {
        /// The absent zero-based shard index.
        index: u32,
    },
    /// An archived record's stored checksum does not match its contents:
    /// the record was corrupted between write and load.
    RecordChecksum {
        /// Global item index of the corrupt record.
        item: usize,
        /// Checksum recomputed from the record contents.
        expected: u64,
        /// Checksum stored in the archive.
        found: u64,
    },
    /// Results were requested from a degraded (partial-merge) archive
    /// whose coverage annotation names the shards that never completed.
    DegradedArchive {
        /// Zero-based indices of the missing shards.
        missing: Vec<u32>,
    },
    /// Results were requested from a partial archive; merge all shards
    /// first.
    IncompleteArchive {
        /// Zero-based shard index of the partial archive.
        index: u32,
        /// Total number of shards the run was split into.
        count: u32,
    },
    /// An archive's contents contradict its own metadata (wrong item set,
    /// malformed record shapes, stale fingerprint, unknown schema).
    CorruptArchive {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Grouping(e) => write!(f, "grouping failed: {e}"),
            SimError::InvalidPlan(v) => write!(f, "mechanism produced an invalid plan: {v}"),
            SimError::Traffic(e) => write!(f, "population generation failed: {e}"),
            SimError::DegenerateExperiment { n_devices, runs } => write!(
                f,
                "experiment needs at least one device and one run (got {n_devices} devices, {runs} runs)"
            ),
            SimError::EmptyScenario { what } => {
                write!(f, "scenario lists no {what}; every sweep axis needs at least one entry")
            }
            SimError::OutOfRange { field, value } => {
                let (path, allowed) = field.path_and_allowed();
                write!(f, "scenario field {path} is {value}; it allows {allowed}")
            }
            SimError::InvalidRegroupThreshold { threshold } => write!(
                f,
                "re-grouping staleness threshold must be a fraction in [0, 1], got {threshold}"
            ),
            SimError::InvalidShard { index, count } => write!(
                f,
                "invalid shard {index}/{count}: the index must be below the count \
                 and the count at least 1 (shards are zero-based: 0/{count}..{}/{count})",
                count.saturating_sub(1)
            ),
            SimError::NoArchives => write!(f, "cannot merge an empty set of archives"),
            SimError::FingerprintMismatch { expected, found } => write!(
                f,
                "archive fingerprint mismatch: {found:#018x} vs {expected:#018x} — \
                 the shards were produced from different scenario configurations"
            ),
            SimError::ShardCountMismatch { expected, found } => write!(
                f,
                "archive shard-count mismatch: one archive says {found} shards, another {expected}"
            ),
            SimError::ConflictingShard { index } => write!(
                f,
                "shard {index} appears more than once in the merge set with diverging \
                 records; one copy is corrupt or came from a non-deterministic worker"
            ),
            SimError::MissingShard { index } => {
                write!(f, "shard {index} is missing from the merge set")
            }
            SimError::RecordChecksum {
                item,
                expected,
                found,
            } => write!(
                f,
                "record for item {item} fails its integrity check: stored checksum \
                 {found:#018x}, contents hash to {expected:#018x} — the archive was \
                 corrupted after creation"
            ),
            SimError::DegradedArchive { missing } => write!(
                f,
                "archive is a degraded partial merge missing shard(s) {missing:?}; \
                 re-run the missing shards and merge again before computing results"
            ),
            SimError::IncompleteArchive { index, count } => write!(
                f,
                "archive holds only shard {index}/{count}; merge all {count} shards before \
                 computing results"
            ),
            SimError::CorruptArchive { detail } => write!(f, "corrupt archive: {detail}"),
        }
    }
}

/// A simulator number that [`Scenario::validate`](crate::Scenario::validate)
/// bounds; its doc lists the bounds and their sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimField {
    /// `sim.npdsch.itbs`.
    Itbs,
    /// `sim.npdsch.nsf`.
    Nsf,
    /// `sim.ra.nprach_period`.
    NprachPeriod,
    /// `sim.ra.preambles`.
    Preambles,
    /// `sim.ra.msg1_duration`.
    Msg1Duration,
    /// `sim.ra.msg2_delay`.
    Msg2Delay,
    /// `sim.ra.msg3_delay`.
    Msg3Delay,
    /// `sim.ra.msg4_delay`.
    Msg4Delay,
    /// `sim.ra.max_backoff`.
    MaxBackoff,
    /// `sim.ra.max_attempts`.
    MaxAttempts,
    /// `sim.ra_contenders`.
    RaContenders,
    /// `sim.npdsch.npdcch_subframes`.
    NpdcchSubframes,
    /// `sim.npdsch.dci_to_data_gap`.
    DciToDataGap,
    /// `sim.npdsch.inter_block_gap`.
    InterBlockGap,
    /// `sim.costs.paging_base`.
    PagingBase,
    /// `sim.costs.paging_per_256_bits`.
    PagingPer256Bits,
    /// `sim.costs.ra_downlink`.
    RaDownlink,
    /// `sim.costs.rrc_setup`.
    RrcSetup,
    /// `sim.costs.rrc_reconfiguration`.
    RrcReconfiguration,
    /// `sim.costs.rrc_release`.
    RrcRelease,
    /// `sim.costs.paging_decode_time`.
    PagingDecodeTime,
    /// `sim.costs.mltc_decode_time`.
    MltcDecodeTime,
    /// `sim.costs.po_monitor_time`.
    PoMonitorTime,
    /// An entry of `payloads`.
    Payload,
}

impl SimField {
    /// The field's path in a scenario file and the values it allows.
    fn path_and_allowed(self) -> (&'static str, &'static str) {
        const RA_STEP: &str = "0..=8388608 ms";
        const DL_EXCHANGE: &str = "0..=23556 ms";
        match self {
            SimField::Itbs => ("sim.npdsch.itbs", "0..=13"),
            SimField::Nsf => ("sim.npdsch.nsf", "1, 2, 3, 4, 5, 6, 8 or 10"),
            SimField::NprachPeriod => ("sim.ra.nprach_period", "40..=2560 ms"),
            SimField::Preambles => ("sim.ra.preambles", "1 or more"),
            SimField::Msg1Duration => ("sim.ra.msg1_duration", RA_STEP),
            SimField::Msg2Delay => ("sim.ra.msg2_delay", RA_STEP),
            SimField::Msg3Delay => ("sim.ra.msg3_delay", RA_STEP),
            SimField::Msg4Delay => ("sim.ra.msg4_delay", RA_STEP),
            SimField::MaxBackoff => ("sim.ra.max_backoff", "0..=524288 ms"),
            SimField::MaxAttempts => ("sim.ra.max_attempts", "3..=200"),
            SimField::RaContenders => ("sim.ra_contenders", "0..=2147483647"),
            SimField::NpdcchSubframes => ("sim.npdsch.npdcch_subframes", "1..=2048"),
            SimField::DciToDataGap => ("sim.npdsch.dci_to_data_gap", "4..=1028"),
            SimField::InterBlockGap => ("sim.npdsch.inter_block_gap", "0..=131072"),
            SimField::PagingBase => ("sim.costs.paging_base", DL_EXCHANGE),
            SimField::PagingPer256Bits => ("sim.costs.paging_per_256_bits", DL_EXCHANGE),
            SimField::RaDownlink => ("sim.costs.ra_downlink", "0..=47112 ms"),
            SimField::RrcSetup => ("sim.costs.rrc_setup", DL_EXCHANGE),
            SimField::RrcReconfiguration => ("sim.costs.rrc_reconfiguration", DL_EXCHANGE),
            SimField::RrcRelease => ("sim.costs.rrc_release", DL_EXCHANGE),
            SimField::PagingDecodeTime => ("sim.costs.paging_decode_time", DL_EXCHANGE),
            SimField::MltcDecodeTime => ("sim.costs.mltc_decode_time", DL_EXCHANGE),
            SimField::PoMonitorTime => ("sim.costs.po_monitor_time", DL_EXCHANGE),
            SimField::Payload => ("payloads", "0..=35184372088832 bytes"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Grouping(e) => Some(e),
            SimError::InvalidPlan(v) => Some(v),
            SimError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GroupingError> for SimError {
    fn from(e: GroupingError) -> Self {
        SimError::Grouping(e)
    }
}

impl From<PlanViolation> for SimError {
    fn from(v: PlanViolation) -> Self {
        SimError::InvalidPlan(v)
    }
}

impl From<TrafficError> for SimError {
    fn from(e: TrafficError) -> Self {
        SimError::Traffic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_causes() {
        let e = SimError::Grouping(GroupingError::TiTooShort {
            ti_ms: 100,
            shortest_cycle_ms: 320,
        });
        assert!(e.to_string().contains("grouping failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
