//! The one figure driver: executes any named or file-loaded [`Scenario`]
//! through the shared (point × run) scheduler and renders the figure
//! tables with captions derived from the actual configuration.
//!
//! ```text
//! figures --scenario fig6b                     # built-in, paper settings
//! figures --scenario fig7 --runs 20 --threads 4
//! figures --scenario clustered --mix bursty-alarm
//! figures --scenario my_study.toml --json      # file-loaded (.toml/.json)
//! figures --scenario fig6a --dump toml         # print an editable template
//! figures --scenario fig6a --emit-archive full.json        # result archive
//! figures --scenario fig6a --shard 0/3 --emit-archive s0.json  # one shard
//! figures --list                               # registry + mixes
//! ```
//!
//! Shared flags (`--runs --devices --seed --threads --mix --json`)
//! override the scenario's own values only when explicitly passed;
//! `--mechanisms DR-SC,DA-SC` replaces the mechanism set. Results are
//! bit-identical for every `--threads` setting.
//!
//! `--shard i/N` executes only the i-th (zero-based) of N deterministic
//! partitions of the (point × run) item pool and requires
//! `--emit-archive`; `scenario_merge` reassembles the N partial archives
//! into a result bit-identical to the unsharded run, and `scenario_diff`
//! compares two archives.

use nbiot_bench::{fail, fail_usage, outln, scenarios, FigureOpts, OrFail};
use nbiot_grouping::MechanismKind;
use nbiot_sim::{run_scenario_shard, Scenario, ShardSpec};
use nbiot_traffic::TrafficMix;

fn main() {
    // Split driver-private flags off before the shared parser (which
    // rejects unknown flags) sees the argument list.
    let mut scenario_spec: Option<String> = None;
    let mut mechanisms: Option<Vec<MechanismKind>> = None;
    let mut dump: Option<String> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut emit_archive: Option<String> = None;
    let mut shared_args = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                scenario_spec =
                    Some(args.next().unwrap_or_else(|| {
                        fail_usage("--scenario needs a name or .json/.toml path")
                    }))
            }
            "--shard" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| fail_usage("--shard needs index/count, e.g. 0/3"));
                shard = Some(
                    spec.parse()
                        .unwrap_or_else(|e| fail_usage(format!("bad --shard: {e}"))),
                );
            }
            "--emit-archive" => {
                emit_archive = Some(
                    args.next()
                        .unwrap_or_else(|| fail_usage("--emit-archive needs a path")),
                );
            }
            "--mechanisms" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| fail_usage("--mechanisms needs a comma-separated set"));
                mechanisms = Some(MechanismKind::parse_set(&list).unwrap_or_else(|bad| {
                    fail_usage(format!(
                        "unknown mechanism `{bad}`; known: {}",
                        MechanismKind::ALL.map(|k| k.to_string()).join(", ")
                    ))
                }));
            }
            "--dump" => {
                dump = Some(
                    args.next()
                        .unwrap_or_else(|| fail_usage("--dump needs a format: json or toml")),
                )
            }
            "--list" => {
                outln!("built-in scenarios:");
                for name in Scenario::REGISTRY {
                    let s = Scenario::builtin(name).expect("registered");
                    outln!("  {name:<16} {}", s.description);
                }
                outln!(
                    "\nregistered traffic mixes (for --mix): {}",
                    TrafficMix::REGISTRY.join(", ")
                );
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures --scenario <name|path.json|path.toml> \
                     [--runs N] [--devices N] [--seed N] [--threads N] [--mix NAME]\n\
                     \x20      [--mechanisms A,B,...] [--json] [--dump json|toml]\n\
                     \x20      [--shard i/N --emit-archive PATH] [--emit-archive PATH] | --list\n\
                     built-in scenarios: {}",
                    Scenario::REGISTRY.join(", ")
                );
                return;
            }
            other => shared_args.push(other.to_string()),
        }
    }
    let opts = FigureOpts::parse(shared_args.into_iter());
    let spec = scenario_spec
        .unwrap_or_else(|| fail_usage("--scenario is required (try --list or --help)"));
    let mut scenario = scenarios::load_scenario(&spec).or_fail();
    opts.apply_to_scenario(&mut scenario);
    if let Some(kinds) = mechanisms {
        scenario.mechanisms = kinds;
    }

    if let Some(format) = dump {
        let value = serde_json::to_value(&scenario);
        match format.as_str() {
            "json" => outln!(
                "{}",
                serde_json::to_string_pretty(&scenario).expect("serializable")
            ),
            "toml" => outln!(
                "{}",
                nbiot_bench::toml_lite::to_toml(&value).expect("TOML-writable")
            ),
            other => fail_usage(format!("unknown dump format `{other}`; use json or toml")),
        }
        return;
    }

    if shard.is_some() || emit_archive.is_some() {
        // Archives record every (point × run × mechanism) outcome; at the
        // massive-n scale tier that is gigabytes of per-run state nobody
        // can diff or merge. Refuse early, before any simulation runs.
        if let Some(&largest) = scenario.devices.iter().max() {
            if largest > scenarios::ARCHIVE_DEVICE_LIMIT {
                fail_usage(format!(
                    "--emit-archive refused: scenario `{}` has a {largest}-device point, above \
                     the {}-device archive limit; run without --emit-archive for summary output \
                     or cap the grid with --devices <= {}",
                    scenario.name,
                    scenarios::ARCHIVE_DEVICE_LIMIT,
                    scenarios::ARCHIVE_DEVICE_LIMIT
                ));
            }
        }
        let shard = shard.unwrap_or(ShardSpec::FULL);
        let path = emit_archive.unwrap_or_else(|| {
            fail_usage("--shard needs --emit-archive <path>: a partial grid cannot be rendered")
        });
        let archive = run_scenario_shard(&scenario, shard)
            .unwrap_or_else(|e| fail(format!("scenario execution failed: {e}")));
        scenarios::write_archive(&path, &archive).or_fail();
        if archive.is_complete() {
            // A 1/1 archive is a whole run: render it like a normal run.
            let result = archive.result().expect("complete archive folds");
            if opts.json {
                outln!(
                    "{}",
                    serde_json::to_string_pretty(&result).expect("serializable")
                );
            } else {
                outln!("{}", scenarios::render_report(&scenario, &result));
            }
        }
        eprintln!(
            "figures: shard {} of scenario {} ({} of {} items) -> {path}",
            archive.shard,
            scenario.name,
            archive.items.len(),
            archive.total_items(),
        );
        return;
    }

    scenarios::run_and_print(&scenario, opts.json);
}
