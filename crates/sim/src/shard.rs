//! Sharded scenario execution and mergeable result archives.
//!
//! A scenario grid is a pool of (sweep point × run) work items, and every
//! item is a pure function of (scenario, item index). That makes the pool
//! trivially partitionable across hosts: a [`ShardSpec`] deterministically
//! assigns each item to exactly one of `count` shards,
//! [`run_scenario_shard`] executes one shard's items and persists their
//! **raw per-item records** in a [`ScenarioArchive`], and
//! [`merge_archives`] reassembles any complete set of partial archives
//! into a full archive whose [`ScenarioArchive::result`] is
//! **bit-identical** to the unsharded [`run_scenario`](crate::run_scenario)
//! — because merging replays the exact same item-ordered aggregation fold
//! over the exact same records.
//!
//! Archives are serde round-trippable (the `figures`, `scenario_merge` and
//! `scenario_diff` binaries write and read them as JSON; the JSON codec
//! prints floats with shortest-roundtrip formatting, so records survive a
//! text roundtrip exactly). Every archive carries a [fingerprint]
//! (`scenario_fingerprint`) of its scenario so that shards of *different*
//! configurations can never be merged into a frankenresult.

use crate::experiment::{execute_grid_subset, fold_grid, ItemRows};
use crate::{Scenario, ScenarioResult, SimError};

/// Archive format version; bumped whenever [`ScenarioArchive`]'s JSON
/// shape or the record semantics change incompatibly. Version 2 added the
/// churn fields: `MechRun::{regroups, stale_miss_ratio}` and the
/// scenario's `churn`/`regroup` configuration. Version 3 added per-record
/// integrity checksums ([`ArchiveItem::checksum`]) and the optional
/// partial-merge [`ScenarioArchive::coverage`] annotation. Version 4
/// added the plan-improvement economics:
/// `MechRun::{cover_cost_initial, cover_cost_final, improve_moves,
/// improve_budget}` and the `DR-SC-tabu(N)` mechanism / `Repair` regroup
/// policy they measure.
pub const ARCHIVE_SCHEMA_VERSION: u32 = 4;

/// A deterministic partition of the (sweep point × run) item pool:
/// shard `index` of `count` owns every item with `item % count == index`
/// (cyclic striding, matching the scheduler's own load-balancing layout,
/// so expensive late sweep points spread evenly across shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards the item pool is split into.
    pub count: u32,
}

impl ShardSpec {
    /// The trivial partition: one shard owning every item.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Checks `index < count` and `count >= 1`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidShard`] otherwise.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.count == 0 || self.index >= self.count {
            return Err(SimError::InvalidShard {
                index: self.index,
                count: self.count,
            });
        }
        Ok(())
    }

    /// Whether this shard owns the given global item index.
    pub fn owns(&self, item: usize) -> bool {
        item % self.count as usize == self.index as usize
    }

    /// The global item indices this shard owns, in increasing order, out
    /// of a pool of `total` items. Uneven splits are fine: trailing shards
    /// simply own one item fewer (or none at all when `count > total`).
    pub fn items(&self, total: usize) -> Vec<usize> {
        (self.index as usize..total)
            .step_by(self.count as usize)
            .collect()
    }
}

impl core::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl core::str::FromStr for ShardSpec {
    type Err = String;

    /// Parses the CLI form `i/N` (zero-based: `0/3`, `1/3`, `2/3`).
    fn from_str(s: &str) -> Result<ShardSpec, String> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("expected `index/count` (e.g. `0/3`), got `{s}`"))?;
        let spec = ShardSpec {
            index: index
                .trim()
                .parse()
                .map_err(|_| format!("bad shard index `{index}` in `{s}`"))?,
            count: count
                .trim()
                .parse()
                .map_err(|_| format!("bad shard count `{count}` in `{s}`"))?,
        };
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }
}

/// One work item's archived records: the global item index
/// (`point * runs + run`), its raw per-`[payload][mechanism]`
/// observations, and an FNV integrity checksum binding the records to
/// the item index.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArchiveItem {
    /// Global item index in the scenario's (point × run) pool.
    pub item: usize,
    /// Raw records, indexed `[payload variant][mechanism]`.
    pub rows: ItemRows,
    /// [`record_checksum`] of (`item`, `rows`), verified at every
    /// [`ScenarioArchive::validate`] so corruption between write and load
    /// is caught before it can poison a merge.
    pub checksum: u64,
}

impl ArchiveItem {
    /// Builds a record entry with its checksum computed from the contents.
    pub fn new(item: usize, rows: ItemRows) -> ArchiveItem {
        let checksum = record_checksum(item, &rows);
        ArchiveItem {
            item,
            rows,
            checksum,
        }
    }
}

/// Per-shard completeness annotation carried by a **degraded** archive: a
/// partial merge ([`MergePolicy::Partial`]) that went ahead with some
/// shards missing records exactly which shards landed and which did not.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardCoverage {
    /// Total number of shards the item pool was split into.
    pub shard_count: u32,
    /// Sorted zero-based indices of the shards that merged successfully.
    pub present: Vec<u32>,
    /// Sorted zero-based indices of the shards that never completed.
    pub missing: Vec<u32>,
    /// Fraction of the (point × run) item pool covered by `present`.
    pub item_coverage: f64,
}

/// The serde-stable result archive of one (possibly partial) scenario
/// execution: the scenario itself, its fingerprint, which shard of the
/// item pool this archive holds, and the raw records of every owned item.
///
/// Archives, not folded summaries, are what shards exchange — so a merge
/// can replay the unsharded aggregation fold bit-for-bit instead of trying
/// to combine pre-aggregated statistics.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioArchive {
    /// Archive format version ([`ARCHIVE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// [`scenario_fingerprint`] of `scenario` — merge compatibility key.
    pub fingerprint: u64,
    /// Which shard of the item pool this archive holds.
    pub shard: ShardSpec,
    /// `Some` only on a degraded partial merge: which shards are present
    /// and which are missing. `None` on worker shards and full merges.
    pub coverage: Option<ShardCoverage>,
    /// The full scenario configuration that produced the records.
    pub scenario: Scenario,
    /// Records of every item this shard owns, in increasing item order.
    pub items: Vec<ArchiveItem>,
}

impl ScenarioArchive {
    /// Total number of work items in the scenario's (point × run) pool.
    pub fn total_items(&self) -> usize {
        self.scenario.devices.len() * self.scenario.runs as usize
    }

    /// Whether this archive holds the whole item pool (shard count 1 and
    /// no degraded-coverage annotation).
    pub fn is_complete(&self) -> bool {
        self.shard.count == 1 && self.coverage.is_none()
    }

    /// Checks internal consistency: supported schema version, a valid
    /// shard spec and scenario, a fingerprint matching the embedded
    /// scenario, exactly the owned item set in order (or, for a degraded
    /// archive, the union of its present shards' items), per-record
    /// integrity checksums, and records shaped `payloads × mechanisms`.
    ///
    /// # Errors
    ///
    /// [`SimError::CorruptArchive`] describing the first inconsistency,
    /// [`SimError::RecordChecksum`] for a record that fails its integrity
    /// check, or the underlying shard/scenario validation error.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.schema_version != ARCHIVE_SCHEMA_VERSION {
            return Err(SimError::CorruptArchive {
                detail: format!(
                    "unsupported schema version {} (this build reads version {})",
                    self.schema_version, ARCHIVE_SCHEMA_VERSION
                ),
            });
        }
        self.shard.validate()?;
        self.scenario.validate()?;
        let expected_fp = scenario_fingerprint(&self.scenario);
        if self.fingerprint != expected_fp {
            return Err(SimError::CorruptArchive {
                detail: format!(
                    "recorded fingerprint {:#018x} does not match the embedded scenario \
                     ({expected_fp:#018x}); the archive was edited after creation",
                    self.fingerprint
                ),
            });
        }
        let expected_items = match &self.coverage {
            None => self.shard.items(self.total_items()),
            Some(coverage) => self.coverage_items(coverage)?,
        };
        if self.items.len() != expected_items.len()
            || self
                .items
                .iter()
                .zip(&expected_items)
                .any(|(have, &want)| have.item != want)
        {
            return Err(SimError::CorruptArchive {
                detail: format!(
                    "shard {} of a {}-item pool must hold exactly items {:?} in order",
                    self.shard,
                    self.total_items(),
                    expected_items
                ),
            });
        }
        for entry in &self.items {
            let expected = record_checksum(entry.item, &entry.rows);
            if entry.checksum != expected {
                return Err(SimError::RecordChecksum {
                    item: entry.item,
                    expected,
                    found: entry.checksum,
                });
            }
        }
        let (payloads, mechanisms) = (self.scenario.payloads.len(), self.scenario.mechanisms.len());
        for entry in &self.items {
            if entry.rows.len() != payloads || entry.rows.iter().any(|row| row.len() != mechanisms)
            {
                return Err(SimError::CorruptArchive {
                    detail: format!(
                        "item {} records must be shaped {payloads} payloads x {mechanisms} \
                         mechanisms",
                        entry.item
                    ),
                });
            }
        }
        Ok(())
    }

    /// Checks a degraded archive's coverage annotation for internal
    /// consistency and returns the item set it implies: the sorted union
    /// of the present shards' owned items.
    fn coverage_items(&self, coverage: &ShardCoverage) -> Result<Vec<usize>, SimError> {
        let corrupt = |detail: String| SimError::CorruptArchive { detail };
        if self.shard != ShardSpec::FULL {
            return Err(corrupt(format!(
                "a degraded archive must carry the FULL shard spec, not {}",
                self.shard
            )));
        }
        let count = coverage.shard_count;
        let mut claimed = vec![None; count as usize];
        for (&index, present) in coverage
            .present
            .iter()
            .map(|i| (i, true))
            .chain(coverage.missing.iter().map(|i| (i, false)))
        {
            let slot = claimed
                .get_mut(index as usize)
                .ok_or_else(|| corrupt(format!("coverage names shard {index} of {count}")))?;
            if slot.is_some() {
                return Err(corrupt(format!("coverage names shard {index} twice")));
            }
            *slot = Some(present);
        }
        if claimed.iter().any(Option::is_none) {
            return Err(corrupt(format!(
                "coverage must account for every one of the {count} shards"
            )));
        }
        if coverage.missing.is_empty() {
            return Err(corrupt(
                "an archive with no missing shards must not carry a coverage annotation".into(),
            ));
        }
        if !coverage.present.windows(2).all(|w| w[0] < w[1])
            || !coverage.missing.windows(2).all(|w| w[0] < w[1])
        {
            return Err(corrupt(
                "coverage shard lists must be sorted and duplicate-free".into(),
            ));
        }
        let total = self.total_items();
        let mut items: Vec<usize> = coverage
            .present
            .iter()
            .flat_map(|&index| ShardSpec { index, count }.items(total))
            .collect();
        items.sort_unstable();
        let expected_ratio = if total == 0 {
            1.0
        } else {
            items.len() as f64 / total as f64
        };
        if coverage.item_coverage.to_bits() != expected_ratio.to_bits() {
            return Err(corrupt(format!(
                "coverage ratio {} does not match the present shards' {}/{total} items",
                coverage.item_coverage,
                items.len()
            )));
        }
        Ok(items)
    }

    /// Folds a **complete** archive into the scenario result — the same
    /// item-ordered fold [`run_scenario`](crate::run_scenario) performs,
    /// so the output is bit-identical to the unsharded run.
    ///
    /// # Errors
    ///
    /// [`SimError::DegradedArchive`] naming exactly the missing shards of
    /// a coverage-annotated partial merge, [`SimError::IncompleteArchive`]
    /// for a single-shard partial archive (merge all shards first), or any
    /// [`ScenarioArchive::validate`] failure.
    pub fn result(&self) -> Result<ScenarioResult, SimError> {
        self.validate()?;
        if let Some(coverage) = &self.coverage {
            return Err(SimError::DegradedArchive {
                missing: coverage.missing.clone(),
            });
        }
        if !self.is_complete() {
            return Err(SimError::IncompleteArchive {
                index: self.shard.index,
                count: self.shard.count,
            });
        }
        Ok(fold_grid(
            &self.scenario,
            self.items.iter().map(|entry| &entry.rows),
        ))
    }
}

/// A stable 64-bit fingerprint of everything in a scenario that determines
/// its results. `threads` is normalized out (results are bit-identical for
/// every thread count), so archives produced with different worker counts
/// — the whole point of sharding across heterogeneous hosts — still merge.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    let mut canonical = scenario.clone();
    canonical.threads = 0;
    let mut hash = FNV_OFFSET;
    hash_value(&serde::Serialize::to_value(&canonical), &mut hash);
    hash
}

/// A stable 64-bit integrity checksum of one archived record: FNV-1a over
/// the item index and the canonical serde rendering of its rows. Binding
/// the item index in means a record can't silently masquerade as another
/// item's even if its contents hash alike.
pub fn record_checksum(item: usize, rows: &ItemRows) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_bytes(&(item as u64).to_le_bytes(), &mut hash);
    hash_value(&serde::Serialize::to_value(rows), &mut hash);
    hash
}

/// A stable 64-bit FNV-1a digest over the canonical byte rendering of a
/// serde value tree — the integrity primitive behind
/// [`scenario_fingerprint`] and [`record_checksum`], exported so other
/// persisted formats (the grouping service's snapshots) checksum their
/// state with the exact same walk and stay comparable across schema
/// layers.
pub fn value_digest(value: &serde::Value) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_value(value, &mut hash);
    hash
}

/// The `schema_version` key of a persisted JSON tree, read without
/// assuming any other part of its shape: how a loader names the format
/// version of an archive or snapshot it cannot parse.
pub fn peek_schema_version(value: &serde::Value) -> Option<u32> {
    let (_, version) = value
        .as_object()?
        .iter()
        .find(|(key, _)| key == "schema_version")?;
    match version {
        serde::Value::U64(raw) => u32::try_from(*raw).ok(),
        _ => None,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn hash_bytes(bytes: &[u8], hash: &mut u64) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over a canonical byte rendering of the serde value tree: every
/// node contributes a type tag plus its contents, lengths delimit
/// variable-size nodes, and floats hash their exact bit pattern.
fn hash_value(value: &serde::Value, hash: &mut u64) {
    use serde::Value;
    match value {
        Value::Null => hash_bytes(b"n", hash),
        Value::Bool(b) => hash_bytes(if *b { b"t" } else { b"f" }, hash),
        Value::U64(x) => {
            hash_bytes(b"u", hash);
            hash_bytes(&x.to_le_bytes(), hash);
        }
        Value::I64(x) => {
            hash_bytes(b"i", hash);
            hash_bytes(&x.to_le_bytes(), hash);
        }
        Value::F64(x) => {
            hash_bytes(b"d", hash);
            hash_bytes(&x.to_bits().to_le_bytes(), hash);
        }
        Value::Str(s) => {
            hash_bytes(b"s", hash);
            hash_bytes(&(s.len() as u64).to_le_bytes(), hash);
            hash_bytes(s.as_bytes(), hash);
        }
        Value::Array(items) => {
            hash_bytes(b"a", hash);
            hash_bytes(&(items.len() as u64).to_le_bytes(), hash);
            for item in items {
                hash_value(item, hash);
            }
        }
        Value::Object(entries) => {
            hash_bytes(b"o", hash);
            hash_bytes(&(entries.len() as u64).to_le_bytes(), hash);
            for (key, item) in entries {
                hash_bytes(&(key.len() as u64).to_le_bytes(), hash);
                hash_bytes(key.as_bytes(), hash);
                hash_value(item, hash);
            }
        }
    }
}

/// Executes one shard of a scenario's (point × run) item pool and archives
/// the raw records. `ShardSpec::FULL` archives the whole pool (the archive
/// is then immediately [`ScenarioArchive::result`]-able).
///
/// Worker threads still fan out *within* the shard per
/// [`Scenario::threads`]; sharding adds the *across-host* axis on top.
///
/// # Errors
///
/// Shard/scenario validation failures, plus any execution failure of the
/// lowest-numbered failing owned item.
pub fn run_scenario_shard(
    scenario: &Scenario,
    shard: ShardSpec,
) -> Result<ScenarioArchive, SimError> {
    shard.validate()?;
    scenario.validate()?;
    let owned = shard.items(scenario.devices.len() * scenario.runs as usize);
    let rows = execute_grid_subset(scenario, &owned)?;
    Ok(ScenarioArchive {
        schema_version: ARCHIVE_SCHEMA_VERSION,
        fingerprint: scenario_fingerprint(scenario),
        shard,
        coverage: None,
        scenario: scenario.clone(),
        items: owned
            .into_iter()
            .zip(rows)
            .map(|(item, rows)| ArchiveItem::new(item, rows))
            .collect(),
    })
}

/// How [`merge_archives_with`] treats missing shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Every shard must be present; anything less is an error. This is
    /// what [`merge_archives`] uses.
    #[default]
    Strict,
    /// Missing shards degrade the merge instead of aborting it: the
    /// output archive carries a [`ShardCoverage`] annotation naming
    /// exactly the missing shards and the item coverage ratio. Degraded
    /// archives refuse [`ScenarioArchive::result`] but survive the same
    /// serde roundtrip, so a coordinator can publish *something* when a
    /// shard exhausts its retry budget.
    Partial,
}

/// Reassembles a complete set of partial archives (any `K = count` shards,
/// in any order) into one full archive, whose [`ScenarioArchive::result`]
/// is bit-identical to the unsharded run. Equivalent to
/// [`merge_archives_with`] under [`MergePolicy::Strict`].
///
/// # Errors
///
/// See [`merge_archives_with`].
pub fn merge_archives(archives: &[ScenarioArchive]) -> Result<ScenarioArchive, SimError> {
    merge_archives_with(archives, MergePolicy::Strict)
}

/// Reassembles partial archives under an explicit [`MergePolicy`].
///
/// Duplicate submissions of the *same* shard are idempotent: copies whose
/// records are identical collapse into one (a retried worker re-submitting
/// the archive it already delivered is not an error). Copies that
/// *diverge* are rejected — one of them is wrong, and the merge cannot
/// know which.
///
/// Under [`MergePolicy::Strict`] a missing shard aborts the merge; under
/// [`MergePolicy::Partial`] the merge proceeds and annotates the output
/// with a [`ShardCoverage`] naming the missing shards. An input that is
/// itself a degraded coverage archive is refused — resume from the
/// original per-shard archives instead.
///
/// # Errors
///
/// [`SimError::NoArchives`] for an empty set,
/// [`SimError::FingerprintMismatch`] when shards come from different
/// scenario configurations, [`SimError::ShardCountMismatch`] /
/// [`SimError::ConflictingShard`] / [`SimError::MissingShard`] for an
/// inconsistent shard set, and [`SimError::CorruptArchive`] /
/// [`SimError::RecordChecksum`] when an archive contradicts its own
/// metadata or records.
pub fn merge_archives_with(
    archives: &[ScenarioArchive],
    policy: MergePolicy,
) -> Result<ScenarioArchive, SimError> {
    let first = archives.first().ok_or(SimError::NoArchives)?;
    for archive in archives {
        archive.validate()?;
        if archive.coverage.is_some() {
            return Err(SimError::CorruptArchive {
                detail: "merge input is already a degraded partial-merge archive; merge the \
                         original per-shard archives instead"
                    .into(),
            });
        }
        if archive.fingerprint != first.fingerprint {
            return Err(SimError::FingerprintMismatch {
                expected: first.fingerprint,
                found: archive.fingerprint,
            });
        }
        if archive.shard.count != first.shard.count {
            return Err(SimError::ShardCountMismatch {
                expected: first.shard.count,
                found: archive.shard.count,
            });
        }
    }
    let count = first.shard.count;
    let mut slots: Vec<Option<&ScenarioArchive>> = vec![None; count as usize];
    for archive in archives {
        let slot = &mut slots[archive.shard.index as usize];
        match slot {
            None => *slot = Some(archive),
            Some(existing) if existing.items == archive.items => {} // idempotent duplicate
            Some(_) => {
                return Err(SimError::ConflictingShard {
                    index: archive.shard.index,
                });
            }
        }
    }
    let missing: Vec<u32> = (0..count)
        .filter(|&index| slots[index as usize].is_none())
        .collect();
    if let (MergePolicy::Strict, Some(&index)) = (policy, missing.first()) {
        return Err(SimError::MissingShard { index });
    }
    let mut items: Vec<ArchiveItem> = slots
        .iter()
        .flatten()
        .flat_map(|archive| archive.items.iter().cloned())
        .collect();
    items.sort_by_key(|entry| entry.item);
    let coverage = if missing.is_empty() {
        None
    } else {
        let total = first.total_items();
        Some(ShardCoverage {
            shard_count: count,
            present: (0..count)
                .filter(|&index| slots[index as usize].is_some())
                .collect(),
            missing,
            item_coverage: if total == 0 {
                1.0
            } else {
                items.len() as f64 / total as f64
            },
        })
    };
    Ok(ScenarioArchive {
        schema_version: ARCHIVE_SCHEMA_VERSION,
        fingerprint: first.fingerprint,
        shard: ShardSpec::FULL,
        coverage,
        scenario: first.scenario.clone(),
        items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_scenario;

    fn tiny() -> Scenario {
        let mut s = Scenario::builtin("fig6a").expect("builtin");
        s.devices = vec![12, 20];
        s.runs = 3;
        s.threads = 1;
        s
    }

    fn shards_of(scenario: &Scenario, count: u32) -> Vec<ScenarioArchive> {
        (0..count)
            .map(|index| {
                run_scenario_shard(scenario, ShardSpec { index, count }).expect("shard run")
            })
            .collect()
    }

    #[test]
    fn shard_spec_parses_and_validates() {
        let spec: ShardSpec = "1/3".parse().unwrap();
        assert_eq!(spec, ShardSpec { index: 1, count: 3 });
        assert_eq!(spec.to_string(), "1/3");
        assert!("3/3".parse::<ShardSpec>().is_err(), "zero-based index");
        assert!("0/0".parse::<ShardSpec>().is_err());
        assert!("x/3".parse::<ShardSpec>().is_err());
        assert!("2".parse::<ShardSpec>().is_err());
        assert!(matches!(
            (ShardSpec { index: 5, count: 2 }).validate(),
            Err(SimError::InvalidShard { index: 5, count: 2 })
        ));
    }

    #[test]
    fn shard_items_partition_the_pool() {
        // Every item owned by exactly one shard, for even and uneven splits.
        for (total, count) in [(12usize, 3u32), (10, 3), (5, 7), (0, 2)] {
            let mut owned = vec![0u32; total];
            for index in 0..count {
                let shard = ShardSpec { index, count };
                for item in shard.items(total) {
                    assert!(shard.owns(item));
                    owned[item] += 1;
                }
            }
            assert!(owned.iter().all(|&n| n == 1), "total={total} count={count}");
        }
    }

    #[test]
    fn full_shard_result_matches_run_scenario() {
        let scenario = tiny();
        let unsharded = run_scenario(&scenario).unwrap();
        let archive = run_scenario_shard(&scenario, ShardSpec::FULL).unwrap();
        assert!(archive.is_complete());
        assert_eq!(archive.result().unwrap(), unsharded);
    }

    #[test]
    fn three_way_merge_is_bit_identical_to_unsharded() {
        let scenario = tiny();
        let unsharded = run_scenario(&scenario).unwrap();
        let mut parts = shards_of(&scenario, 3);
        parts.reverse(); // merge order must not matter
        let merged = merge_archives(&parts).unwrap();
        assert_eq!(merged.result().unwrap(), unsharded);
    }

    #[test]
    fn oversubscribed_sharding_leaves_empty_shards_mergeable() {
        // 6 items split 7 ways: the last shard owns nothing, and the merge
        // still reproduces the unsharded result exactly.
        let mut scenario = tiny();
        scenario.devices = vec![15];
        scenario.runs = 6;
        let parts = shards_of(&scenario, 7);
        assert!(parts[6].items.is_empty());
        let merged = merge_archives(&parts).unwrap();
        assert_eq!(merged.result().unwrap(), run_scenario(&scenario).unwrap());
    }

    #[test]
    fn fingerprint_ignores_threads_but_nothing_else() {
        let a = tiny();
        let mut b = tiny();
        b.threads = 8;
        assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&b));
        let mut c = tiny();
        c.master_seed += 1;
        assert_ne!(scenario_fingerprint(&a), scenario_fingerprint(&c));
        let mut d = tiny();
        d.runs += 1;
        assert_ne!(scenario_fingerprint(&a), scenario_fingerprint(&d));
    }

    #[test]
    fn merge_rejects_mismatched_fingerprints() {
        let scenario = tiny();
        let mut other = tiny();
        other.master_seed ^= 0xDEAD_BEEF;
        let a = run_scenario_shard(&scenario, ShardSpec { index: 0, count: 2 }).unwrap();
        let b = run_scenario_shard(&other, ShardSpec { index: 1, count: 2 }).unwrap();
        assert!(matches!(
            merge_archives(&[a, b]),
            Err(SimError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn merge_rejects_missing_shards_and_empty_sets() {
        let scenario = tiny();
        let parts = shards_of(&scenario, 3);
        assert!(matches!(
            merge_archives(&parts[..2]),
            Err(SimError::MissingShard { index: 2 })
        ));
        assert!(matches!(merge_archives(&[]), Err(SimError::NoArchives)));
    }

    #[test]
    fn identical_duplicate_shards_merge_idempotently() {
        // A retried worker re-submitting the archive it already delivered
        // must not poison the merge: byte-identical duplicates collapse.
        let scenario = tiny();
        let parts = shards_of(&scenario, 3);
        let doubled = vec![
            parts[0].clone(),
            parts[1].clone(),
            parts[1].clone(),
            parts[2].clone(),
        ];
        let merged = merge_archives(&doubled).unwrap();
        assert_eq!(merged.result().unwrap(), run_scenario(&scenario).unwrap());
        // Even a duplicate produced with a different worker thread count
        // is the "same" shard: the records are what identity means here.
        let mut threaded = tiny();
        threaded.threads = 8;
        let dup = run_scenario_shard(&threaded, ShardSpec { index: 1, count: 3 }).unwrap();
        let merged =
            merge_archives(&[parts[0].clone(), parts[1].clone(), dup, parts[2].clone()]).unwrap();
        assert_eq!(merged.result().unwrap(), run_scenario(&scenario).unwrap());
    }

    #[test]
    fn conflicting_duplicate_shards_are_rejected() {
        // Two *valid* copies of shard 1 with diverging records: a buggy or
        // malicious worker mutated a record and recomputed its checksum.
        // The merge can't tell which copy is right, so it refuses.
        let scenario = tiny();
        let parts = shards_of(&scenario, 3);
        let mut forged = parts[1].clone();
        forged.items[0].rows[0][0].transmissions += 1.0;
        forged.items[0] = ArchiveItem::new(forged.items[0].item, forged.items[0].rows.clone());
        forged.validate().expect("forged copy is internally valid");
        let set = vec![parts[0].clone(), parts[1].clone(), forged, parts[2].clone()];
        assert!(matches!(
            merge_archives(&set),
            Err(SimError::ConflictingShard { index: 1 })
        ));
    }

    #[test]
    fn corrupted_records_fail_their_checksum_at_load() {
        let scenario = tiny();
        let mut archive = run_scenario_shard(&scenario, ShardSpec::FULL).unwrap();
        archive.items[2].rows[0][0].ra_failures += 1.0;
        match archive.validate() {
            Err(SimError::RecordChecksum { item, .. }) => {
                assert_eq!(item, archive.items[2].item);
            }
            other => panic!("expected RecordChecksum, got {other:?}"),
        }
    }

    #[test]
    fn partial_merge_annotates_coverage_and_refuses_results() {
        let scenario = tiny(); // 2 points x 3 runs = 6 items
        let parts = shards_of(&scenario, 3);
        let degraded =
            merge_archives_with(&[parts[0].clone(), parts[2].clone()], MergePolicy::Partial)
                .unwrap();
        degraded.validate().unwrap();
        assert!(!degraded.is_complete());
        let coverage = degraded.coverage.as_ref().expect("coverage annotation");
        assert_eq!(coverage.shard_count, 3);
        assert_eq!(coverage.present, vec![0, 2]);
        assert_eq!(coverage.missing, vec![1]);
        assert_eq!(coverage.item_coverage, 4.0 / 6.0);
        assert_eq!(
            degraded.items.iter().map(|e| e.item).collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
        // The degraded archive names exactly the missing shards when asked
        // for results, and survives a serde roundtrip.
        assert!(matches!(
            degraded.result(),
            Err(SimError::DegradedArchive { ref missing }) if missing == &vec![1]
        ));
        let value = serde::Serialize::to_value(&degraded);
        let reloaded = <ScenarioArchive as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(reloaded, degraded);
        // A degraded archive cannot be fed back into a merge.
        assert!(matches!(
            merge_archives(&[degraded]),
            Err(SimError::CorruptArchive { .. })
        ));
        // With every shard present, Partial degrades to a clean full merge.
        let full = merge_archives_with(&parts, MergePolicy::Partial).unwrap();
        assert!(full.coverage.is_none());
        assert_eq!(full.result().unwrap(), run_scenario(&scenario).unwrap());
    }

    #[test]
    fn tampered_coverage_annotations_are_rejected() {
        let scenario = tiny();
        let parts = shards_of(&scenario, 3);
        let degraded = merge_archives_with(&parts[..2], MergePolicy::Partial).unwrap();
        // Claiming a missing shard as present contradicts the item set.
        let mut forged = degraded.clone();
        let cov = forged.coverage.as_mut().unwrap();
        cov.present = vec![0, 1, 2];
        cov.missing.clear();
        assert!(matches!(
            forged.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
        // An inflated coverage ratio is caught.
        let mut forged = degraded.clone();
        forged.coverage.as_mut().unwrap().item_coverage = 1.0;
        assert!(matches!(
            forged.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
        // A shard listed both present and missing is caught.
        let mut forged = degraded;
        forged.coverage.as_mut().unwrap().missing = vec![0, 2];
        assert!(matches!(
            forged.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
    }

    #[test]
    fn merge_rejects_mismatched_shard_counts() {
        let scenario = tiny();
        let a = run_scenario_shard(&scenario, ShardSpec { index: 0, count: 2 }).unwrap();
        let b = run_scenario_shard(&scenario, ShardSpec { index: 1, count: 3 }).unwrap();
        assert!(matches!(
            merge_archives(&[a, b]),
            Err(SimError::ShardCountMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn tampered_archives_are_rejected() {
        let scenario = tiny();
        let mut archive = run_scenario_shard(&scenario, ShardSpec::FULL).unwrap();
        // Editing the embedded scenario invalidates the fingerprint.
        archive.scenario.master_seed += 1;
        assert!(matches!(
            archive.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
        // Dropping an item breaks the owned-item-set check.
        let mut archive = run_scenario_shard(&scenario, ShardSpec::FULL).unwrap();
        archive.items.pop();
        assert!(matches!(
            archive.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
        // A future schema version is refused outright.
        let mut archive = run_scenario_shard(&scenario, ShardSpec::FULL).unwrap();
        archive.schema_version += 1;
        assert!(matches!(
            archive.validate(),
            Err(SimError::CorruptArchive { .. })
        ));
    }

    #[test]
    fn partial_archives_refuse_to_fold() {
        let scenario = tiny();
        let part = run_scenario_shard(&scenario, ShardSpec { index: 1, count: 3 }).unwrap();
        assert!(matches!(
            part.result(),
            Err(SimError::IncompleteArchive { index: 1, count: 3 })
        ));
    }

    #[test]
    fn sharded_execution_is_thread_count_invariant() {
        let scenario = tiny();
        let serial = run_scenario_shard(&scenario, ShardSpec { index: 0, count: 2 }).unwrap();
        let mut threaded_scenario = tiny();
        threaded_scenario.threads = 8;
        let threaded =
            run_scenario_shard(&threaded_scenario, ShardSpec { index: 0, count: 2 }).unwrap();
        // Records identical; only the embedded thread setting differs.
        assert_eq!(serial.items, threaded.items);
        assert_eq!(serial.fingerprint, threaded.fingerprint);
    }
}
