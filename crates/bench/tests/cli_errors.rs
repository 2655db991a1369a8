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
use nbiot_grouping::GroupingParams;
use nbiot_rrc::InactivityTimer;
use nbiot_sim::{ArchiveItem, Scenario, SimConfig};
use nbiot_time::{SimDuration, SimInstant};

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

// ---- the shared figure flags ----

#[test]
fn bench_report_rejects_zero_devices_with_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_bench_report"), &["--devices", "0"]);
    assert_error_line(
        &out,
        "bench_report",
        2,
        "--devices needs a positive integer",
    );
}

#[test]
fn bench_report_rejects_non_finite_or_negative_tolerances_before_any_stage() {
    let dir = scratch("tolerance_pct");
    let report = dir.join("report.json");
    for value in ["inf", "nan", "-1"] {
        let out = run(
            env!("CARGO_BIN_EXE_bench_report"),
            &["--tolerance-pct", value, "--out", report.to_str().unwrap()],
        );
        assert_error_line(&out, "bench_report", 2, "--tolerance-pct needs a finite");
        assert!(stdout(&out).is_empty(), "{value}: no stage may run");
        assert!(!report.exists(), "{value}: no report may be written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `bench_report` on a small workload with `args` appended and
/// asserts a data error naming `needle` before any stage: nothing on
/// stdout and no report at `report`.
fn assert_bench_report_fails_early(args: &[&str], report: &Path, needle: &str) {
    let mut all = vec![
        "--runs",
        "1",
        "--devices",
        "20",
        "--massive-devices",
        "2000",
    ];
    all.extend_from_slice(args);
    let out = run(env!("CARGO_BIN_EXE_bench_report"), &all);
    assert_error_line(&out, "bench_report", 1, needle);
    assert!(
        stdout(&out).is_empty(),
        "no stage may run: {}",
        stdout(&out)
    );
    assert!(!report.exists(), "no report may be written");
}

#[test]
fn bench_report_rejects_a_missing_baseline_before_any_stage() {
    let dir = scratch("missing_baseline");
    let report = dir.join("report.json");
    let baseline = dir.join("absent.json");
    assert_bench_report_fails_early(
        &[
            "--compare",
            baseline.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
        ],
        &report,
        "cannot read baseline",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_report_rejects_malformed_baseline_json_before_any_stage() {
    let dir = scratch("malformed_baseline");
    let report = dir.join("report.json");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, r#"{"stages": [{"name": "plan""#).expect("fixture");
    assert_bench_report_fails_early(
        &[
            "--compare",
            baseline.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
        ],
        &report,
        "bad baseline JSON",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_report_rejects_an_out_path_in_a_missing_directory_before_any_stage() {
    let dir = scratch("missing_out_dir");
    let report = dir.join("no_such_dir").join("report.json");
    assert_bench_report_fails_early(
        &["--out", report.to_str().unwrap()],
        &report,
        "cannot write benchmark report",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablations_rejects_zero_runs_with_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_ablations"), &["--runs", "0"]);
    assert_error_line(&out, "ablations", 2, "--runs needs a positive integer");
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
fn diff_rejects_non_finite_or_negative_abs_tol() {
    for value in ["inf", "infinity", "nan", "-1e-9"] {
        let out = run(
            env!("CARGO_BIN_EXE_scenario_diff"),
            &["--abs-tol", value, "a.json", "b.json"],
        );
        assert_error_line(&out, "scenario_diff", 2, "--abs-tol needs a finite");
    }
}

#[test]
fn diff_rejects_non_finite_or_negative_rel_tol() {
    for value in ["inf", "infinity", "nan", "-0.02"] {
        let out = run(
            env!("CARGO_BIN_EXE_scenario_diff"),
            &["--rel-tol", value, "a.json", "b.json"],
        );
        assert_error_line(&out, "scenario_diff", 2, "--rel-tol needs a finite");
    }
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
    let supported = format!("reads version {}", nbiot_service::SNAPSHOT_SCHEMA_VERSION);
    assert_error_line(&out, "groupingd", 1, &supported);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn groupingd_serves_an_empty_fleet_with_no_transmission() {
    let dir = scratch("empty_fleet");
    let events = dir.join("events.json");
    let synth = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &[
            "--synth",
            "--devices",
            "0",
            "--epochs",
            "2",
            "--emit-events",
            events.to_str().unwrap(),
        ],
    );
    assert!(synth.status.success(), "synth: {}", stderr(&synth));
    let out = run(
        env!("CARGO_BIN_EXE_groupingd"),
        &["--events", events.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let transcript = stdout(&out);
    let serves: Vec<&str> = transcript
        .lines()
        .filter(|l| l.contains("\"serve\""))
        .collect();
    assert_eq!(serves.len(), 3, "{transcript}");
    for line in serves {
        assert!(line.contains(r#""devices":0,"transmissions":0"#), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- result output that cannot be written ----

/// Runs `bin` with its stdout on `/dev/full`, where every write fails.
#[cfg(target_os = "linux")]
fn run_into_full_disk(bin: &str, args: &[&str]) -> Output {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    Command::new(bin)
        .args(args)
        .stdout(full)
        .output()
        .expect("binary spawns")
}

#[cfg(target_os = "linux")]
#[test]
fn figures_reports_a_full_stdout_as_a_data_error() {
    let out = run_into_full_disk(
        env!("CARGO_BIN_EXE_figures"),
        &[
            "--scenario",
            "fig6b",
            "--runs",
            "2",
            "--devices",
            "20",
            "--json",
        ],
    );
    assert_error_line(&out, "figures", 1, "stdout");
}

#[cfg(target_os = "linux")]
#[test]
fn fig7_reports_a_full_stdout_as_a_data_error() {
    let out = run_into_full_disk(
        env!("CARGO_BIN_EXE_fig7"),
        &["--runs", "1", "--devices", "20"],
    );
    assert_error_line(&out, "fig7", 1, "stdout");
}

#[cfg(target_os = "linux")]
#[test]
fn diff_reports_a_full_stdout_as_a_data_error() {
    let dir = scratch("diff_full_stdout");
    let archive = dir.join("a.json");
    let archive = archive.to_str().unwrap();
    let emit = run(
        env!("CARGO_BIN_EXE_figures"),
        &[
            "--scenario",
            "fig6b",
            "--runs",
            "2",
            "--devices",
            "10",
            "--emit-archive",
            archive,
        ],
    );
    assert!(emit.status.success(), "emit: {}", stderr(&emit));
    let out = run_into_full_disk(env!("CARGO_BIN_EXE_scenario_diff"), &[archive, archive]);
    assert_error_line(&out, "scenario_diff", 1, "stdout");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn merge_reports_a_full_stdout_as_a_data_error() {
    let (s0, s1) = shard_fixtures();
    let out = run_into_full_disk(
        env!("CARGO_BIN_EXE_scenario_merge"),
        &[s0.to_str().unwrap(), s1.to_str().unwrap()],
    );
    assert_error_line(&out, "scenario_merge", 1, "stdout");
}

#[cfg(target_os = "linux")]
#[test]
fn groupingd_reports_a_full_stdout_as_a_data_error() {
    let (events, _) = groupingd_fixture();
    let out = run_into_full_disk(
        env!("CARGO_BIN_EXE_groupingd"),
        &["--events", events.to_str().unwrap()],
    );
    assert_error_line(&out, "groupingd", 1, "stdout");
}

#[cfg(target_os = "linux")]
#[test]
fn figures_reports_a_closed_stdout_pipe_as_a_data_error() {
    // The read end is closed before the child starts, so its first write
    // fails however the two processes are scheduled.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scenario", "fig6b", "--runs", "2", "--devices", "20"])
        .stdout(writer)
        .output()
        .expect("binary spawns");
    assert_error_line(&out, "figures", 1, "stdout");
}

// ---- grouping parameters past their plannable bounds ----

/// Runs a one-device-point fig6b scenario that `set` edits.
fn figures_with(tag: &str, set: impl FnOnce(&mut Scenario)) -> Output {
    let mut scenario = Scenario::builtin("fig6b").expect("registered scenario");
    scenario.runs = 1;
    scenario.devices = vec![5];
    set(&mut scenario);
    let dir = scratch(tag);
    let path = dir.join("scenario.json");
    std::fs::write(&path, serde_json::to_string_pretty(&scenario).unwrap()).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_figures"),
        &["--scenario", path.to_str().unwrap()],
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// [`figures_with`] a scenario whose grouping parameters `set` edits.
fn figures_with_grouping(tag: &str, set: impl FnOnce(&mut GroupingParams)) -> Output {
    figures_with(tag, |scenario| set(&mut scenario.grouping))
}

/// [`figures_with`] a scenario whose simulator configuration `set` edits.
fn figures_with_sim(tag: &str, set: impl FnOnce(&mut SimConfig)) -> Output {
    figures_with(tag, |scenario| set(&mut scenario.sim))
}

/// An instant whose search horizon still ends inside `u64`, but whose
/// paging-occasion lookups would not.
const NEAR_MAX: SimInstant = SimInstant::from_ms(18_446_744_073_688_000_000);

#[test]
fn figures_rejects_a_start_past_the_latest_plannable_instant() {
    let out = figures_with_grouping("late_start", |g| g.start = NEAR_MAX);
    assert_error_line(&out, "figures", 1, "grouping start");
}

#[test]
fn figures_rejects_a_transmission_time_past_the_latest_plannable_instant() {
    let out = figures_with_grouping("late_transmission", |g| {
        g.transmission_time = Some(NEAR_MAX)
    });
    assert_error_line(&out, "figures", 1, "grouping transmission_time");
}

#[test]
fn figures_rejects_a_ti_past_the_longest_plannable_timer() {
    let out = figures_with_grouping("long_ti", |g| {
        g.ti = InactivityTimer::new(SimDuration::from_ms(NEAR_MAX.as_ms()))
    });
    assert_error_line(&out, "figures", 1, "grouping ti");
}

// ---- simulator numbers outside their standard ranges ----

#[test]
fn figures_rejects_an_itbs_outside_the_tbs_table() {
    // Decoding bypasses `Itbs::new`, which refuses 99.
    let out = figures_with_sim("itbs", |sim| {
        sim.npdsch.itbs = serde_json::from_str("99").unwrap()
    });
    assert_error_line(&out, "figures", 1, "sim.npdsch.itbs");
}

#[test]
fn figures_rejects_an_nsf_outside_the_tbs_table() {
    let out = figures_with_sim("nsf", |sim| {
        sim.npdsch.nsf = serde_json::from_str("0").unwrap()
    });
    assert_error_line(&out, "figures", 1, "sim.npdsch.nsf");
}

#[test]
fn figures_rejects_random_access_without_preambles() {
    let out = figures_with_sim("preambles", |sim| {
        sim.ra.preambles = 0;
        sim.ra_contenders = 5;
    });
    assert_error_line(&out, "figures", 1, "sim.ra.preambles");
}

#[test]
fn figures_rejects_more_contenders_than_the_collision_model_takes() {
    let out = figures_with_sim("contenders", |sim| sim.ra_contenders = u32::MAX);
    assert_error_line(&out, "figures", 1, "sim.ra_contenders");
}

#[test]
fn figures_rejects_a_backoff_past_the_standard_range() {
    // Summed RA latencies used to wrap and turn DR-SC's relative
    // connected uptime negative.
    let out = figures_with_sim("backoff", |sim| {
        sim.ra.max_backoff = SimDuration::from_ms(u64::MAX);
        sim.ra_contenders = 50;
    });
    assert_error_line(&out, "figures", 1, "sim.ra.max_backoff");
}
