//! Reassembles partial [`ScenarioArchive`]s (written by
//! `figures --shard i/N --emit-archive`) into one full archive and renders
//! the figure tables from the merged result — which is **bit-identical**
//! to the unsharded single-host run.
//!
//! ```text
//! scenario_merge s0.json s1.json s2.json                 # tables to stdout
//! scenario_merge --out merged.json s0.json s1.json s2.json
//! scenario_merge --json --out merged.json shards/*.json  # result as JSON
//! scenario_merge --partial --out part.json s0.json s2.json  # degrade
//! ```
//!
//! Exits nonzero (with a clear message) on mismatched scenario
//! fingerprints, conflicting duplicate shards or missing shards — except
//! that **byte-identical** duplicates (a retried worker re-submitting the
//! archive it already delivered) merge idempotently, and `--partial`
//! accepts missing shards by emitting a coverage-annotated degraded
//! archive (exit status 3) instead of a result.

use nbiot_bench::{fail, fail_usage, outln, scenarios, OrFail, EXIT_DEGRADED};
use nbiot_sim::{merge_archives_with, MergePolicy, ScenarioArchive};

fn main() {
    let mut out: Option<String> = None;
    let mut json = false;
    let mut partial = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| fail_usage("--out needs a path")),
                )
            }
            "--json" => json = true,
            "--partial" => partial = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: scenario_merge [--out merged.json] [--json] [--partial] \
                     <shard.json>...\n\
                     merges the complete shard set of one scenario run into a full archive\n\
                     and renders the figure tables (bit-identical to the unsharded run);\n\
                     byte-identical duplicate shards merge idempotently; --partial tolerates\n\
                     missing shards and writes a coverage-annotated degraded archive\n\
                     (exit status 3 when degraded)"
                );
                return;
            }
            flag if flag.starts_with("--") => {
                fail_usage(format!("unknown flag {flag}; try --help"))
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        fail_usage("scenario_merge needs at least one shard archive; try --help");
    }

    let archives: Vec<ScenarioArchive> = paths
        .iter()
        .map(|path| scenarios::load_archive(path).or_fail())
        .collect();
    let policy = if partial {
        MergePolicy::Partial
    } else {
        MergePolicy::Strict
    };
    let merged = merge_archives_with(&archives, policy)
        .unwrap_or_else(|e| fail(format!("merge failed: {e}")));

    if let Some(path) = &out {
        scenarios::write_archive(path, &merged).or_fail();
        eprintln!(
            "scenario_merge: {} shards, {} items -> {path}",
            archives.len(),
            merged.items.len()
        );
    }
    if let Some(coverage) = &merged.coverage {
        // A degraded merge has no foldable result: report the coverage
        // instead of tables, and exit distinctly so automation notices.
        outln!(
            "scenario_merge: DEGRADED merge of {}: shards {:?} missing, \
             item coverage {:.1}% ({} of {} shards present)",
            merged.scenario.name,
            coverage.missing,
            coverage.item_coverage * 100.0,
            coverage.present.len(),
            coverage.shard_count
        );
        std::process::exit(EXIT_DEGRADED);
    }
    let result = merged
        .result()
        .unwrap_or_else(|e| fail(format!("merged archive does not fold: {e}")));
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serializable")
        );
    } else {
        outln!("{}", scenarios::render_report(&merged.scenario, &result));
    }
}
