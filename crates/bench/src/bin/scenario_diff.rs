//! Compares two full [`ScenarioArchive`](nbiot_sim::ScenarioArchive)s
//! mechanism-by-mechanism and point-by-point, exiting nonzero when any
//! metric moves beyond tolerance — the CI regression gate of the
//! shard/merge/diff workflow.
//!
//! ```text
//! scenario_diff baseline.json candidate.json             # exact equality
//! scenario_diff --rel-tol 0.02 baseline.json candidate.json
//! scenario_diff --abs-tol 1e-9 --json a.json b.json      # machine report
//! ```
//!
//! Both tolerances default to **zero** (bit-exact equality), which is how
//! `ci.sh --stage shard-smoke` proves that a 3-way sharded run merges back
//! to the single-host result. Partial archives are refused: merge shards
//! with `scenario_merge` first.
//!
//! Exit status: 0 when the archives agree within tolerance, 1 otherwise
//! (including structural mismatches: missing points/mechanisms, differing
//! run counts, compliance flips).

use nbiot_bench::diff::{diff_results, diff_to_json, render_diff, DiffTolerance};
use nbiot_bench::{fail, fail_usage, scenarios, OrFail};
use nbiot_sim::ScenarioResult;

fn load_result(path: &str) -> ScenarioResult {
    let archive = scenarios::load_archive(path).or_fail();
    archive.result().unwrap_or_else(|e| {
        fail(format!(
            "`{path}`: {e} (merge partial shards with scenario_merge first)"
        ))
    })
}

fn main() {
    let mut tolerance = DiffTolerance::default();
    let mut json = false;
    let mut structural_only = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--abs-tol" => {
                tolerance.abs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail_usage("--abs-tol needs a number"));
            }
            "--rel-tol" => {
                tolerance.rel = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    fail_usage("--rel-tol needs a number (fraction of the baseline)")
                });
            }
            "--json" => json = true,
            "--structural-only" => structural_only = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: scenario_diff [--abs-tol X] [--rel-tol X] [--json] \
                     [--structural-only] <baseline.json> <candidate.json>\n\
                     compares two full scenario archives; default tolerances are zero\n\
                     (bit-exact); exits 1 on any delta beyond tolerance\n\
                     --structural-only: metric deltas are report-only — exit 1 only on\n\
                     shape mismatches (missing points/mechanisms, run counts, compliance)"
                );
                return;
            }
            flag if flag.starts_with("--") => {
                fail_usage(format!("unknown flag {flag}; try --help"))
            }
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        fail_usage(format!(
            "scenario_diff needs exactly a baseline and a candidate archive (got {}); try --help",
            paths.len()
        ));
    };

    let baseline = load_result(baseline_path);
    let candidate = load_result(candidate_path);
    let report = diff_results(&baseline, &candidate, tolerance);

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&diff_to_json(&report)).expect("serializable")
        );
    } else {
        print!("{}", render_diff(&report));
    }
    // Base-vs-PR artifact diffs run with --structural-only: two archives
    // built from different code revisions are *expected* to drift on
    // metrics (that drift is the report's payload), but a shape mismatch
    // means the candidate no longer measures what the base measured.
    let failed = if structural_only {
        if !report.structural.is_empty() {
            true
        } else {
            if !report.violations.is_empty() {
                eprintln!(
                    "scenario_diff: {} metric delta(s) beyond tolerance (report-only \
                     under --structural-only)",
                    report.violations.len()
                );
            }
            false
        }
    } else {
        !report.ok()
    };
    if failed {
        std::process::exit(1);
    }
}
