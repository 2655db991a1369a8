//! Scenario loading and figure rendering shared by the `figures` driver,
//! the `fig7` binary and the archive tools (`scenario_merge`,
//! `scenario_run`).
//!
//! A scenario is addressed either by registry name
//! ([`nbiot_sim::Scenario::REGISTRY`]) or by a `.json`/`.toml` file path;
//! captions are **derived from the executed configuration** (mix name,
//! device counts, TI, runs), so they cannot drift from what actually ran.

use nbiot_des::SeedSequence;
use nbiot_grouping::{analysis, GroupingInput, MechanismKind};
use nbiot_sim::{run_scenario, Scenario, ScenarioArchive, ScenarioResult};

use crate::{outln, pct, render_table};

/// Loads a scenario from a registry name or a `.json`/`.toml` file path.
///
/// # Errors
///
/// Returns a user-facing message listing the registry for unknown names,
/// or the underlying I/O/parse error for files.
pub fn load_scenario(spec: &str) -> Result<Scenario, String> {
    if spec.ends_with(".json") || spec.ends_with(".toml") {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| format!("cannot read scenario file `{spec}`: {e}"))?;
        if spec.ends_with(".json") {
            serde_json::from_str(&text).map_err(|e| format!("bad scenario JSON in `{spec}`: {e}"))
        } else {
            let value = crate::toml_lite::parse(&text)
                .map_err(|e| format!("bad scenario TOML in `{spec}`: {e}"))?;
            <Scenario as serde::Deserialize>::from_value(&value)
                .map_err(|e| format!("scenario shape error in `{spec}`: {e}"))
        }
    } else {
        Scenario::builtin(spec).ok_or_else(|| {
            format!(
                "unknown scenario `{spec}`; built-ins: {} (or pass a .json/.toml path)",
                Scenario::REGISTRY.join(", ")
            )
        })
    }
}

/// Reads a [`ScenarioArchive`] from a JSON file.
///
/// # Errors
///
/// Returns a user-facing message on I/O, parse or archive-consistency
/// failure (every loaded archive is [`ScenarioArchive::validate`]d, so a
/// truncated or hand-edited file is caught at the door).
pub fn load_archive(path: &str) -> Result<ScenarioArchive, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read archive `{path}`: {e}"))?;
    let archive: ScenarioArchive = serde_json::from_str(&text).map_err(|e| {
        // A clean parse failure on an archive of another era deserves a
        // better message than "missing field": peek at the generic JSON
        // for a schema_version that this build simply doesn't speak.
        let value = serde_json::from_str::<serde::Value>(&text).ok();
        match value.as_ref().and_then(nbiot_sim::peek_schema_version) {
            Some(version) if version != nbiot_sim::ARCHIVE_SCHEMA_VERSION => format!(
                "archive `{path}` has schema version {version}; this build reads version {} — \
                 regenerate the archive with the current `figures --emit-archive`",
                nbiot_sim::ARCHIVE_SCHEMA_VERSION
            ),
            _ => format!("bad archive JSON in `{path}`: {e}"),
        }
    })?;
    archive
        .validate()
        .map_err(|e| format!("invalid archive `{path}`: {e}"))?;
    Ok(archive)
}

/// Largest per-point device count for which `figures --emit-archive` will
/// write a full per-run archive.
///
/// Archives store every (point × run × mechanism) record, so their size
/// grows with the device grid; at the massive-n scale tier (10^5–10^6
/// devices) an archive would be gigabytes of redundant per-run state. The
/// summary path (`figures` without `--emit-archive`, or `bench_report`'s
/// massive stages) is the supported output above this limit.
pub const ARCHIVE_DEVICE_LIMIT: usize = 50_000;

/// Writes a [`ScenarioArchive`] to a JSON file (pretty-printed; floats use
/// shortest-roundtrip formatting, so records survive the text roundtrip
/// bit-exactly).
///
/// # Errors
///
/// Returns a user-facing message on I/O failure.
pub fn write_archive(path: &str, archive: &ScenarioArchive) -> Result<(), String> {
    let text = serde_json::to_string_pretty(archive).expect("archive is serializable");
    std::fs::write(path, text).map_err(|e| format!("cannot write archive `{path}`: {e}"))
}

/// The caption line of a figure, derived from the actual configuration —
/// never hardcoded, so it cannot lie when flags or files change the
/// workload.
pub fn caption(scenario: &Scenario) -> String {
    let devices = match scenario.devices.as_slice() {
        [one] => format!("{one} devices"),
        [first, .., last] => format!("{first}-{last} devices ({} points)", scenario.devices.len()),
        [] => "no devices".to_string(),
    };
    format!(
        "(mix: {}, {devices}, {} runs, TI = {} s, seed {:#x})",
        scenario.mix.name,
        scenario.runs,
        scenario.ti_seconds(),
        scenario.master_seed
    )
}

/// Fig. 6(a)-style table: relative light-sleep uptime increase vs unicast.
/// Devices/payload columns appear only when the scenario sweeps them.
fn render_light_sleep(scenario: &Scenario, result: &ScenarioResult) -> String {
    let multi_n = scenario.devices.len() > 1;
    let multi_p = scenario.payloads.len() > 1;
    let mut headers: Vec<&str> = Vec::new();
    if multi_n {
        headers.push("devices");
    }
    if multi_p {
        headers.push("payload");
    }
    headers.extend(["mechanism", "light-sleep increase", "±95%CI", "compliant"]);
    let mut rows = Vec::new();
    for point in &result.points {
        for m in &point.comparison.mechanisms {
            let mut row = Vec::new();
            if multi_n {
                row.push(point.n_devices.to_string());
            }
            if multi_p {
                row.push(point.payload.to_string());
            }
            row.extend([
                m.mechanism.clone(),
                pct(m.rel_light_sleep.mean),
                pct(m.rel_light_sleep.ci95),
                if m.standards_compliant { "yes" } else { "no" }.into(),
            ]);
            rows.push(row);
        }
    }
    render_table(&headers, &rows)
}

/// Fig. 6(b)-style table: relative connected-mode uptime increase vs
/// unicast, with the mean pre-transmission wait.
fn render_connected(scenario: &Scenario, result: &ScenarioResult) -> String {
    let multi_n = scenario.devices.len() > 1;
    let mut headers: Vec<&str> = Vec::new();
    if multi_n {
        headers.push("devices");
    }
    headers.extend([
        "payload",
        "mechanism",
        "connected increase",
        "±95%CI",
        "mean wait (s)",
    ]);
    let mut rows = Vec::new();
    for point in &result.points {
        for m in &point.comparison.mechanisms {
            let mut row = Vec::new();
            if multi_n {
                row.push(point.n_devices.to_string());
            }
            row.extend([
                point.payload.to_string(),
                m.mechanism.clone(),
                pct(m.rel_connected.mean),
                pct(m.rel_connected.ci95),
                format!("{:.1}", m.mean_wait_s.mean),
            ]);
            rows.push(row);
        }
    }
    render_table(&headers, &rows)
}

/// Fig. 7-style table: transmission counts and their ratio to the group
/// size, one row per (device point × mechanism), first payload only (the
/// plan — and therefore the count — is payload-independent). When DR-SC
/// is in the set, a fluid-model column shows the analytical estimate.
pub fn render_transmissions(scenario: &Scenario, result: &ScenarioResult) -> String {
    let with_fluid = scenario.mechanisms.contains(&MechanismKind::DrSc);
    let estimates = if with_fluid {
        fluid_estimates(scenario)
    } else {
        Vec::new()
    };
    let mut headers = vec!["devices", "mechanism", "transmissions", "±95%CI", "ratio"];
    if with_fluid {
        headers.push("fluid model (DR-SC)");
    }
    // Estimates looked up by group size, not column position: a scenario
    // listing duplicate payloads yields several columns per device point.
    let est_by_n: Vec<(usize, f64)> = scenario.devices.iter().copied().zip(estimates).collect();
    let first_payload = scenario.payloads[0];
    let mut rows = Vec::new();
    for point in result.payload_column(first_payload) {
        for m in &point.comparison.mechanisms {
            let mut row = vec![
                point.n_devices.to_string(),
                m.mechanism.clone(),
                format!("{:.1}", m.transmissions.mean),
                format!("{:.1}", m.transmissions.ci95),
                format!("{:.1}%", m.transmissions_ratio.mean * 100.0),
            ];
            if with_fluid {
                row.push(match est_by_n.iter().find(|(n, _)| *n == point.n_devices) {
                    Some((_, est)) if m.mechanism == "DR-SC" => format!("{est:.1}"),
                    _ => String::new(),
                });
            }
            rows.push(row);
        }
    }
    render_table(&headers, &rows)
}

/// Fluid-model DR-SC transmission estimates on a representative population
/// per device point — the "analytical" half of the paper's evaluation.
pub fn fluid_estimates(scenario: &Scenario) -> Vec<f64> {
    let seq = SeedSequence::new(scenario.master_seed);
    scenario
        .devices
        .iter()
        .map(|&n| {
            let pop = scenario
                .mix
                .generate(n, &mut seq.child(0).rng(0))
                .expect("population");
            let input = GroupingInput::from_population(&pop, scenario.grouping).expect("input");
            analysis::estimate_dr_sc_transmissions(&input).transmissions
        })
        .collect()
}

/// Churn table: plan recomputations and stale-miss ratio per mechanism,
/// first payload column only (like the plan, the churn outcome is
/// payload-independent). Only rendered for scenarios declaring churn.
pub fn render_churn(scenario: &Scenario, result: &ScenarioResult) -> String {
    let headers = [
        "devices",
        "mechanism",
        "regroups",
        "±95%CI",
        "stale-miss ratio",
    ];
    let first_payload = scenario.payloads[0];
    let mut rows = Vec::new();
    for point in result.payload_column(first_payload) {
        for m in &point.comparison.mechanisms {
            rows.push(vec![
                point.n_devices.to_string(),
                m.mechanism.clone(),
                format!("{:.2}", m.regroup_count.mean),
                format!("{:.2}", m.regroup_count.ci95),
                pct(m.stale_miss_ratio.mean),
            ]);
        }
    }
    render_table(&headers, &rows)
}

/// Whether a scenario exercises the plan-improvement layer: an anytime
/// `DR-SC-tabu(N)` mechanism in the set, or the LNS `Repair` re-grouping
/// policy. Only such scenarios carry non-zero improvement metrics.
pub fn has_improvement(scenario: &Scenario) -> bool {
    scenario
        .mechanisms
        .iter()
        .any(|m| matches!(m, MechanismKind::DrScTabu(_)))
        || scenario.regroup == nbiot_sim::RegroupPolicy::Repair
}

/// Anytime-planning Pareto table: the budget each mechanism spent vs the
/// cover cost it bought, one row per (device point × mechanism), first
/// payload only (the plan is payload-independent). Zero-budget rows are
/// the greedy anchors of the front; reading down a device point shows
/// cover cost against planning budget.
pub fn render_pareto(scenario: &Scenario, result: &ScenarioResult) -> String {
    let headers = [
        "devices",
        "mechanism",
        "budget spent",
        "moves",
        "cover initial",
        "cover final",
        "transmissions",
        "±95%CI",
    ];
    let first_payload = scenario.payloads[0];
    let mut rows = Vec::new();
    for point in result.payload_column(first_payload) {
        for m in &point.comparison.mechanisms {
            rows.push(vec![
                point.n_devices.to_string(),
                m.mechanism.clone(),
                format!("{:.1}", m.improve_budget.mean),
                format!("{:.1}", m.improve_moves.mean),
                format!("{:.1}", m.cover_cost_initial.mean),
                format!("{:.1}", m.cover_cost_final.mean),
                format!("{:.1}", m.transmissions.mean),
                format!("{:.1}", m.transmissions.ci95),
            ]);
        }
    }
    render_table(&headers, &rows)
}

/// Renders the full report for a scenario result: derived caption, the
/// relative-uptime tables (only meaningful against a baseline), the
/// transmission table, the anytime-planning Pareto table (when the
/// scenario [`has_improvement`]), and — for churned scenarios — the
/// re-grouping table.
pub fn render_report(scenario: &Scenario, result: &ScenarioResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "==== scenario {}: {} ====\n{}\n\n",
        scenario.name,
        scenario.description,
        caption(scenario)
    ));
    if scenario.baseline {
        out.push_str("-- relative light-sleep uptime increase vs unicast --\n");
        out.push_str(&render_light_sleep(scenario, result));
        out.push('\n');
        out.push_str("-- relative connected-mode uptime increase vs unicast --\n");
        out.push_str(&render_connected(scenario, result));
        out.push('\n');
    }
    out.push_str("-- multicast transmissions --\n");
    out.push_str(&render_transmissions(scenario, result));
    if has_improvement(scenario) {
        out.push('\n');
        out.push_str("-- anytime planning Pareto front (budget spent vs cover cost) --\n");
        out.push_str(&render_pareto(scenario, result));
    }
    if let Some(churn) = &scenario.churn {
        out.push('\n');
        out.push_str(&format!(
            "-- re-grouping under churn ({} epochs, dep {:.0}% / arr {:.0}% / ho {:.0}% per \
             epoch, policy {:?}) --\n",
            churn.epochs,
            churn.departure_rate * 100.0,
            churn.arrival_rate * 100.0,
            churn.handover_rate * 100.0,
            scenario.regroup,
        ));
        out.push_str(&render_churn(scenario, result));
    }
    out
}

/// Executes a scenario and prints the report (or JSON): the body of the
/// `figures` driver.
///
/// Exits with a one-line error on execution failure — appropriate for the
/// CLI entry points this backs.
pub fn run_and_print(scenario: &Scenario, json: bool) -> ScenarioResult {
    let result = run_scenario(scenario)
        .unwrap_or_else(|e| crate::fail(format!("scenario execution failed: {e}")));
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serializable")
        );
    } else {
        outln!("{}", render_report(scenario, &result));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::builtin("fig6a").unwrap();
        s.devices = vec![20];
        s.runs = 2;
        s.threads = 1;
        s
    }

    #[test]
    fn caption_is_derived_from_config() {
        let mut s = tiny_scenario();
        s.mix = nbiot_traffic::TrafficMix::bursty_alarm();
        s.runs = 7;
        s = nbiot_sim::with_ti(s, nbiot_time::SimDuration::from_secs(20));
        let c = caption(&s);
        assert!(c.contains("bursty-alarm"), "{c}");
        assert!(c.contains("TI = 20 s"), "{c}");
        assert!(c.contains("7 runs"), "{c}");
        assert!(c.contains("20 devices"), "{c}");
        // A sweep scenario reports its range instead.
        let fig7 = Scenario::builtin("fig7").unwrap();
        assert!(caption(&fig7).contains("100-1000 devices (10 points)"));
    }

    #[test]
    fn report_contains_all_tables_and_true_caption() {
        let s = tiny_scenario();
        let result = run_scenario(&s).unwrap();
        let report = render_report(&s, &result);
        assert!(report.contains("light-sleep increase"), "{report}");
        assert!(report.contains("connected increase"), "{report}");
        assert!(report.contains("transmissions"), "{report}");
        assert!(report.contains("mix: ericsson-city"), "{report}");
        assert!(report.contains("2 runs"), "{report}");
        assert!(report.contains("fluid model"), "{report}");
    }

    #[test]
    fn churn_report_includes_regroup_table() {
        let mut s = Scenario::builtin("mobility-churn").unwrap();
        s.devices = vec![25];
        s.runs = 2;
        s.threads = 1;
        let result = run_scenario(&s).unwrap();
        let report = render_report(&s, &result);
        assert!(report.contains("re-grouping under churn"), "{report}");
        assert!(report.contains("stale-miss ratio"), "{report}");
        assert!(report.contains("6 epochs"), "{report}");
        // Static scenarios stay churn-table-free.
        let s2 = tiny_scenario();
        let r2 = run_scenario(&s2).unwrap();
        assert!(!render_report(&s2, &r2).contains("re-grouping"));
    }

    #[test]
    fn pareto_table_renders_for_improvement_scenarios_only() {
        let mut s = Scenario::builtin("planning-pareto").unwrap();
        s.devices = vec![30];
        s.runs = 2;
        s.threads = 1;
        assert!(has_improvement(&s));
        let result = run_scenario(&s).unwrap();
        let report = render_report(&s, &result);
        assert!(report.contains("anytime planning Pareto front"), "{report}");
        let table = render_pareto(&s, &result);
        assert!(table.contains("budget spent"), "{table}");
        // The budget-0 row is the greedy anchor: zero budget spent, and
        // a cover no better than its own initial cost.
        assert!(table.contains("DR-SC-tabu(0)"), "{table}");
        // Plain greedy scenarios carry no Pareto table at all.
        let s2 = tiny_scenario();
        assert!(!has_improvement(&s2));
        let r2 = run_scenario(&s2).unwrap();
        assert!(!render_report(&s2, &r2).contains("Pareto"));
    }

    #[test]
    fn load_scenario_resolves_names_and_rejects_unknowns() {
        assert_eq!(load_scenario("fig7").unwrap().name, "fig7");
        let err = load_scenario("nope").unwrap_err();
        assert!(err.contains("built-ins"), "{err}");
    }

    #[test]
    fn scenario_files_roundtrip_through_json() {
        let s = tiny_scenario();
        let dir = std::env::temp_dir().join("nbiot_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string_pretty(&s).unwrap()).unwrap();
        let loaded = load_scenario(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, s);
    }

    #[test]
    fn archives_roundtrip_through_json_files() {
        let s = tiny_scenario();
        let shard = nbiot_sim::ShardSpec { index: 0, count: 2 };
        let archive = nbiot_sim::run_scenario_shard(&s, shard).unwrap();
        let dir = std::env::temp_dir().join("nbiot_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.json");
        let path = path.to_str().unwrap();
        write_archive(path, &archive).unwrap();
        let loaded = load_archive(path).unwrap();
        assert_eq!(
            loaded, archive,
            "archive must survive the JSON roundtrip bit-exactly"
        );
        // A hand-edited archive fails validation at load time.
        let mut tampered = archive.clone();
        tampered.scenario.master_seed += 1;
        let bad_path = dir.join("tampered.json");
        let bad_path = bad_path.to_str().unwrap();
        std::fs::write(bad_path, serde_json::to_string_pretty(&tampered).unwrap()).unwrap();
        let err = load_archive(bad_path).unwrap_err();
        assert!(err.contains("invalid archive"), "{err}");
    }

    #[test]
    fn scenario_files_roundtrip_through_toml() {
        // Every built-in scenario survives Scenario -> TOML -> Scenario,
        // exercising tables, arrays of tables, nested enums and options.
        let dir = std::env::temp_dir().join("nbiot_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in Scenario::REGISTRY {
            let s = Scenario::builtin(name).unwrap();
            let text = crate::toml_lite::to_toml(&serde_json::to_value(&s)).expect("TOML-writable");
            let path = dir.join(format!("{name}.toml"));
            std::fs::write(&path, &text).unwrap();
            let loaded = load_scenario(path.to_str().unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            assert_eq!(loaded, s, "{name}");
        }
    }
}
