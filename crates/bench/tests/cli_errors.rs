//! End-to-end contract of the CLI binaries on *bad input*: every
//! operator-triggerable failure must produce one actionable
//! `<bin>: error: ...` line on stderr and a distinct exit status
//! (`1` bad data, `2` usage, `3` degraded merge) — never a panic
//! backtrace. Rides on `CARGO_BIN_EXE_*`, so `cargo test` builds the
//! binaries it drives.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use nbiot_bench::scenarios;
use nbiot_sim::ArchiveItem;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Asserts the one-line error contract: exit `code`, a single stderr line
/// of the form `<bin>: error: ...` mentioning `needle`.
fn assert_error_line(output: &Output, bin_name: &str, code: i32, needle: &str) {
    let err = stderr(output);
    assert_eq!(
        output.status.code(),
        Some(code),
        "expected exit {code}; stderr: {err}"
    );
    assert_eq!(err.trim_end().lines().count(), 1, "one line, got: {err}");
    let prefix = format!("{bin_name}: error: ");
    assert!(err.starts_with(&prefix), "missing `{prefix}` in: {err}");
    assert!(err.contains(needle), "missing `{needle}` in: {err}");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nbiot_cli_errors_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---- figures ----

#[test]
fn figures_rejects_unknown_flags_with_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &["--no-such-flag"]);
    assert_error_line(&out, "figures", 2, "--no-such-flag");
}

#[test]
fn figures_rejects_malformed_shard_specs_with_a_usage_error() {
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--scenario", "fig6a", "--shard", "banana"],
    );
    assert_error_line(&out, "figures", 2, "--shard");
}

#[test]
fn figures_refuses_archives_above_the_massive_device_limit() {
    let dir = scratch("massive_archive");
    let path = dir.join("massive.json");
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &[
            "--scenario",
            "massive-n",
            "--emit-archive",
            path.to_str().unwrap(),
        ],
    );
    assert_error_line(&out, "figures", 2, "--emit-archive refused");
    assert!(
        stderr(&out).contains(&scenarios::ARCHIVE_DEVICE_LIMIT.to_string()),
        "message names the limit: {}",
        stderr(&out)
    );
    assert!(!path.exists(), "no archive may be written");
    // Capping the grid back under the limit is the advertised way out.
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &[
            "--scenario",
            "massive-n",
            "--devices",
            "20",
            "--runs",
            "1",
            "--emit-archive",
            path.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "capped grid runs: {}", stderr(&out));
    assert!(path.exists(), "capped archive written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figures_rejects_scenario_files_with_an_empty_device_sweep() {
    // Start from the real template so the fixture tracks the scenario
    // schema, then empty the devices axis.
    let dump = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--scenario", "fig7", "--dump", "toml"],
    );
    assert!(dump.status.success(), "dump: {}", stderr(&dump));
    let template = stdout(&dump);
    assert!(template.contains("devices"), "template: {template}");
    let emptied: String = template
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("devices") {
                "devices = []\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let dir = scratch("empty_sweep");
    let path = dir.join("empty_sweep.toml");
    std::fs::write(&path, emptied).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--scenario", path.to_str().unwrap()],
    );
    assert_error_line(&out, "figures", 1, "no devices");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figures_reports_unknown_scenarios_as_data_errors() {
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--scenario", "no-such-scenario"],
    );
    assert_error_line(&out, "figures", 1, "no-such-scenario");
}

// ---- scenario_merge ----

#[test]
fn merge_without_inputs_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_scenario_merge"), &[]);
    assert_error_line(&out, "scenario_merge", 2, "at least one shard");
}

#[test]
fn merge_reports_unreadable_archives_with_their_path() {
    let out = run(
        env!("CARGO_BIN_EXE_scenario_merge"),
        &["/no/such/dir/shard.json"],
    );
    assert_error_line(&out, "scenario_merge", 1, "/no/such/dir/shard.json");
}

#[test]
fn foreign_schema_versions_get_a_regenerate_message() {
    let dir = scratch("schema");
    let path = dir.join("old.json");
    std::fs::write(&path, r#"{ "schema_version": 2, "items": [] }"#).unwrap();
    let path = path.to_str().unwrap();
    let out = run(env!("CARGO_BIN_EXE_scenario_merge"), &[path]);
    assert_error_line(&out, "scenario_merge", 1, "schema version 2");
    assert!(
        stderr(&out).contains(&format!(
            "reads version {}",
            nbiot_sim::ARCHIVE_SCHEMA_VERSION
        )),
        "message names the supported version: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- scenario_diff ----

#[test]
fn diff_requires_exactly_two_archives() {
    let out = run(env!("CARGO_BIN_EXE_scenario_diff"), &["only-one.json"]);
    assert_error_line(&out, "scenario_diff", 2, "baseline and a candidate");
}

#[test]
fn diff_reports_unreadable_archives_with_their_path() {
    let out = run(
        env!("CARGO_BIN_EXE_scenario_diff"),
        &["/no/such/a.json", "/no/such/b.json"],
    );
    assert_error_line(&out, "scenario_diff", 1, "/no/such/a.json");
}

/// Writes a 200k-deep `[[[…]]]` JSON document — deep enough to overflow
/// the stack of a parser that recurses without a bound.
fn deeply_nested_json(dir: &Path) -> PathBuf {
    let path = dir.join("deep.json");
    let depth = 200_000;
    std::fs::write(&path, format!("{}{}", "[".repeat(depth), "]".repeat(depth))).unwrap();
    path
}

#[test]
fn diff_reports_deeply_nested_json_as_a_data_error() {
    let dir = scratch("deep_diff");
    let deep = deeply_nested_json(&dir);
    let deep = deep.to_str().unwrap();
    let out = run(env!("CARGO_BIN_EXE_scenario_diff"), &[deep, deep]);
    assert_error_line(&out, "scenario_diff", 1, "nesting deeper than");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the merge semantics reachable only through real shard archives ----

/// Two tiny fig6a shard archives (0/2 and 1/2), generated once through the
/// real `figures --shard --emit-archive` path and reused by every test
/// below (each test copies/tampers into its own scratch dir).
fn shard_fixtures() -> &'static (PathBuf, PathBuf) {
    static FIXTURES: OnceLock<(PathBuf, PathBuf)> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let dir = scratch("fixtures");
        let emit = |spec: &str, path: &Path| {
            let out = run(
                env!("CARGO_BIN_EXE_figures"),
                &[
                    "--scenario",
                    "fig6a",
                    "--runs",
                    "2",
                    "--devices",
                    "10",
                    "--shard",
                    spec,
                    "--emit-archive",
                    path.to_str().unwrap(),
                ],
            );
            assert!(out.status.success(), "fixture emit: {}", stderr(&out));
        };
        let s0 = dir.join("s0.json");
        let s1 = dir.join("s1.json");
        emit("0/2", &s0);
        emit("1/2", &s1);
        (s0, s1)
    })
}

#[test]
fn merge_accepts_byte_identical_duplicate_shards() {
    let (s0, s1) = shard_fixtures();
    let (s0, s1) = (s0.to_str().unwrap(), s1.to_str().unwrap());
    let out = run(env!("CARGO_BIN_EXE_scenario_merge"), &[s0, s0, s1]);
    assert!(
        out.status.success(),
        "idempotent duplicate rejected: {}",
        stderr(&out)
    );
}

#[test]
fn merge_rejects_conflicting_duplicate_shards() {
    let (s0, s1) = shard_fixtures();
    let dir = scratch("conflict");
    let twisted = dir.join("s0_conflict.json");
    let mut archive = scenarios::load_archive(s0.to_str().unwrap()).unwrap();
    let mut rows = archive.items[0].rows.clone();
    rows[0][0].transmissions += 1.0;
    archive.items[0] = ArchiveItem::new(archive.items[0].item, rows);
    scenarios::write_archive(twisted.to_str().unwrap(), &archive).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_scenario_merge"),
        &[
            s0.to_str().unwrap(),
            twisted.to_str().unwrap(),
            s1.to_str().unwrap(),
        ],
    );
    assert_error_line(&out, "scenario_merge", 1, "diverging");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_records_failing_their_checksum() {
    let (s0, _) = shard_fixtures();
    let dir = scratch("checksum");
    let corrupt = dir.join("s0_corrupt.json");
    let mut archive = scenarios::load_archive(s0.to_str().unwrap()).unwrap();
    archive.items[0].checksum ^= 1;
    scenarios::write_archive(corrupt.to_str().unwrap(), &archive).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_scenario_merge"),
        &[corrupt.to_str().unwrap()],
    );
    assert_error_line(&out, "scenario_merge", 1, "checksum");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_merge_names_missing_shards_and_partial_degrades() {
    let (s0, _) = shard_fixtures();
    let s0 = s0.to_str().unwrap();
    let strict = run(env!("CARGO_BIN_EXE_scenario_merge"), &[s0]);
    assert_error_line(&strict, "scenario_merge", 1, "shard 1");

    let dir = scratch("partial");
    let part = dir.join("partial.json");
    let degraded = run(
        env!("CARGO_BIN_EXE_scenario_merge"),
        &["--partial", "--out", part.to_str().unwrap(), s0],
    );
    assert_eq!(
        degraded.status.code(),
        Some(3),
        "degraded merge exits 3: {}",
        stderr(&degraded)
    );
    assert!(
        stdout(&degraded).contains("DEGRADED"),
        "verdict names the degradation: {}",
        stdout(&degraded)
    );
    let written = scenarios::load_archive(part.to_str().unwrap()).unwrap();
    let coverage = written.coverage.expect("coverage annotation");
    assert_eq!(coverage.missing, vec![1]);

    // The degraded archive must refuse to fold into figure tables: a diff
    // against it is a data error, not a silent half-result.
    let refold = run(
        env!("CARGO_BIN_EXE_scenario_diff"),
        &[part.to_str().unwrap(), part.to_str().unwrap()],
    );
    assert_error_line(&refold, "scenario_diff", 1, "degraded");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- groupingd ----

/// A small synthesized event log shared by the groupingd legs.
fn groupingd_fixture() -> &'static (PathBuf, PathBuf) {
    static FIXTURE: OnceLock<(PathBuf, PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("groupingd_fixture");
        let events = dir.join("events.json");
        let snapshot = dir.join("snapshot.json");
        let synth = run(
            env!("CARGO_BIN_EXE_groupingd"),
            &[
                "--synth",
                "--devices",
                "30",
                "--epochs",
                "2",
                "--seed",
                "5",
                "--emit-events",
                events.to_str().unwrap(),
            ],
        );
        assert!(synth.status.success(), "synth: {}", stderr(&synth));
        let replay = run(
            env!("CARGO_BIN_EXE_groupingd"),
            &[
                "--events",
                events.to_str().unwrap(),
                "--seed",
                "5",
                "--snapshot-every",
                "20",
                "--snapshot-out",
                snapshot.to_str().unwrap(),
            ],
        );
        assert!(replay.status.success(), "replay: {}", stderr(&replay));
        (events, snapshot)
    })
}

#[test]
fn groupingd_requires_an_event_log() {
    let out = run(env!("CARGO_BIN_EXE_groupingd"), &[]);
    assert_error_line(&out, "groupingd", 2, "--events");
}

#[test]
fn groupingd_rejects_unknown_policies_with_a_usage_error() {
    let (events, _) = groupingd_fixture();
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &[
            "--events",
            events.to_str().unwrap(),
            "--policy",
            "sometimes",
        ],
    );
    assert_error_line(&out, "groupingd", 2, "sometimes");
}

#[test]
fn groupingd_reports_truncated_event_logs_as_data_errors() {
    let (events, _) = groupingd_fixture();
    let dir = scratch("truncated_log");
    let truncated = dir.join("truncated.json");
    let text = std::fs::read_to_string(events).unwrap();
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &["--events", truncated.to_str().unwrap()],
    );
    assert_error_line(&out, "groupingd", 1, "corrupt event log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn groupingd_reports_deeply_nested_event_logs_as_data_errors() {
    let dir = scratch("deep_log");
    let deep = deeply_nested_json(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &["--events", deep.to_str().unwrap()],
    );
    assert_error_line(&out, "groupingd", 1, "nesting deeper than");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn groupingd_rejects_foreign_fingerprint_snapshots() {
    let (events, snapshot) = groupingd_fixture();
    // The snapshot was taken under --seed 5; restoring under a different
    // seed is a different service identity.
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &[
            "--events",
            events.to_str().unwrap(),
            "--seed",
            "6",
            "--restore",
            snapshot.to_str().unwrap(),
        ],
    );
    assert_error_line(&out, "groupingd", 1, "fingerprint");
}

#[test]
fn groupingd_names_foreign_snapshot_schema_versions() {
    let (events, _) = groupingd_fixture();
    let dir = scratch("snapshot_schema");
    let future = dir.join("future.json");
    std::fs::write(&future, r#"{ "schema_version": 99 }"#).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &[
            "--events",
            events.to_str().unwrap(),
            "--seed",
            "5",
            "--restore",
            future.to_str().unwrap(),
        ],
    );
    assert_error_line(&out, "groupingd", 1, "reads version 1");
    let _ = std::fs::remove_dir_all(&dir);
}
