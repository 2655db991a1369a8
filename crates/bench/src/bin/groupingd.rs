//! Long-lived grouping service driver: replays an event log through
//! `nbiot-service`, serving multicast plans and writing restorable
//! snapshots.
//!
//! ```text
//! groupingd --synth --mix mobility-churn --devices 100 --epochs 5 \
//!           --mechanism dr-sc --seed 7 --emit-events events.json
//! groupingd --events events.json --policy repair --seed 7
//! groupingd --events events.json --snapshot-every 40 --snapshot-out snap.json
//! groupingd --events events.json --restore snap.json
//! ```
//!
//! Stdout is a deterministic JSONL transcript: one line per served
//! campaign plus a final summary line — bit-identical for a given
//! (config, event log) and across restarts from any snapshot, which is
//! what the `service-smoke` CI stage diffs. Exit codes: `0` success, `1`
//! runtime failures (corrupt logs/snapshots, foreign fingerprints,
//! planning errors), `2` usage.

use nbiot_bench::{fail, fail_usage, outln, OrFail};
use nbiot_service::{Applied, EventLog, GroupingService, ServiceConfig, ServiceSnapshot};
use nbiot_sim::RegroupPolicy;
use nbiot_traffic::{ChurnModel, TrafficMix};
use serde_json::json;

fn usage() -> ! {
    eprintln!(
        "usage: groupingd --events <log.json> [--policy <never|every-epoch|staleness:T|repair>]\n\
         \x20      [--seed N] [--snapshot-every N] [--snapshot-out PATH]\n\
         \x20      [--restore PATH]\n\
         \x20  or: groupingd --synth --emit-events PATH [--mix NAME] [--devices N] [--epochs N]\n\
         \x20      [--mechanism NAME] [--seed N] [--departure-rate F] [--arrival-rate F]\n\
         \x20      [--handover-rate F]\n\
         replays an epoch-stamped event log through the nbiot-service engine: fleet\n\
         changes fold incrementally, campaign requests serve plans under --policy\n\
         (default repair), and every served plan prints as one JSONL line followed by\n\
         a final summary line. --snapshot-every N writes a restorable checkpoint to\n\
         --snapshot-out after every N records (and at the log's snapshot marks);\n\
         --restore resumes from a checkpoint and continues bit-identically to an\n\
         uninterrupted run. --synth deterministically generates a churned event log\n\
         (--devices fleet over --epochs epochs of the churn model) to --emit-events.\n\
         exit codes: 0 success, 1 runtime failure, 2 usage"
    );
    std::process::exit(0);
}

fn main() {
    let mut events_path: Option<String> = None;
    let mut policy = String::from("repair");
    let mut seed = 0u64;
    let mut snapshot_every: Option<u64> = None;
    let mut snapshot_out: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut synth = false;
    let mut emit_events: Option<String> = None;
    let mut mix_name = String::from("mobility-churn");
    let mut devices = 100usize;
    let mut epochs = 5u32;
    let mut mechanism = String::from("dr-sc");
    let mut departure_rate = 0.1f64;
    let mut arrival_rate = 0.1f64;
    let mut handover_rate = 0.2f64;

    let mut args = std::env::args().skip(1);
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| fail_usage(format!("{flag} needs a value; try --help")))
    }
    fn parsed<T: core::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        value(args, flag)
            .parse()
            .unwrap_or_else(|_| fail_usage(format!("{flag} needs a valid number; try --help")))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => events_path = Some(value(&mut args, "--events")),
            "--policy" => policy = value(&mut args, "--policy"),
            "--seed" => seed = parsed(&mut args, "--seed"),
            "--snapshot-every" => snapshot_every = Some(parsed(&mut args, "--snapshot-every")),
            "--snapshot-out" => snapshot_out = Some(value(&mut args, "--snapshot-out")),
            "--restore" => restore = Some(value(&mut args, "--restore")),
            "--synth" => synth = true,
            "--emit-events" => emit_events = Some(value(&mut args, "--emit-events")),
            "--mix" => mix_name = value(&mut args, "--mix"),
            "--devices" => devices = parsed(&mut args, "--devices"),
            "--epochs" => epochs = parsed(&mut args, "--epochs"),
            "--mechanism" => mechanism = value(&mut args, "--mechanism"),
            "--departure-rate" => departure_rate = parsed(&mut args, "--departure-rate"),
            "--arrival-rate" => arrival_rate = parsed(&mut args, "--arrival-rate"),
            "--handover-rate" => handover_rate = parsed(&mut args, "--handover-rate"),
            "--help" | "-h" => usage(),
            other => fail_usage(format!("unknown flag `{other}`; try --help")),
        }
    }

    if synth {
        let out = emit_events
            .unwrap_or_else(|| fail_usage("--synth needs --emit-events (where does the log go?)"));
        let mix = TrafficMix::by_name(&mix_name)
            .unwrap_or_else(|| fail_usage(format!("unknown mix `{mix_name}`")));
        let model = ChurnModel {
            epochs,
            departure_rate,
            arrival_rate,
            handover_rate,
        };
        let log = EventLog::synthesize(&mix, devices, &model, &mechanism, seed).or_fail();
        std::fs::write(&out, log.to_json_pretty())
            .unwrap_or_else(|e| fail(format!("cannot write event log `{out}`: {e}")));
        eprintln!(
            "groupingd: synthesized {} records ({} campaigns) -> {out}",
            log.records.len(),
            log.campaign_count()
        );
        return;
    }

    let events_path = events_path.unwrap_or_else(|| fail_usage("--events is required; try --help"));
    if snapshot_every.is_some() && snapshot_out.is_none() {
        fail_usage("--snapshot-every needs --snapshot-out (where do snapshots go?)");
    }
    let policy = RegroupPolicy::by_name(&policy).unwrap_or_else(|| {
        fail_usage(format!(
            "unknown policy `{policy}` (expected never, every-epoch, staleness:T or repair)"
        ))
    });
    let config = ServiceConfig {
        policy,
        seed,
        ..ServiceConfig::default()
    };

    let text = std::fs::read_to_string(&events_path)
        .unwrap_or_else(|e| fail(format!("cannot read event log `{events_path}`: {e}")));
    let log = EventLog::from_json(&text).or_fail();

    let mut service = match &restore {
        None => GroupingService::new(config, &log).or_fail(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read snapshot `{path}`: {e}")));
            let snapshot = ServiceSnapshot::from_json(&text).or_fail();
            let expected =
                nbiot_service::service_fingerprint(&config, &log.mix_name, &log.class_names);
            snapshot.expect_fingerprint(expected).or_fail();
            GroupingService::restore(&snapshot).or_fail()
        }
    };

    let start = usize::try_from(service.next_record()).unwrap_or(usize::MAX);
    if start > log.records.len() {
        fail(format!(
            "snapshot is ahead of the event log ({} records consumed, log has {})",
            start,
            log.records.len()
        ));
    }
    let mut since_snapshot = 0u64;
    for record in log.records.iter().skip(start) {
        let applied = service.apply(record).or_fail();
        let mut write_snapshot = false;
        match applied {
            Applied::Fleet => {}
            Applied::Served(summary) => {
                outln!(
                    "{}",
                    serde_json::to_string(&summary).expect("summaries always serialize")
                );
            }
            Applied::SnapshotRequested => write_snapshot = snapshot_out.is_some(),
        }
        since_snapshot += 1;
        if let Some(every) = snapshot_every {
            if every > 0 && since_snapshot >= every {
                write_snapshot = snapshot_out.is_some();
            }
        }
        if write_snapshot {
            let out = snapshot_out.as_deref().expect("checked above");
            std::fs::write(out, service.snapshot().to_json_pretty())
                .unwrap_or_else(|e| fail(format!("cannot write snapshot `{out}`: {e}")));
            since_snapshot = 0;
        }
    }
    outln!(
        "{}",
        serde_json::to_string(&json!({
            "records": service.next_record(),
            "serves": service.serves(),
            "epoch": service.epoch(),
            "fleet": service.fleet().len(),
            "policy": policy.name(),
            "mechanism": service.plan_mechanism().unwrap_or("none"),
            "fingerprint": format!("{:#018x}", service.fingerprint()),
        }))
        .expect("summary always serializes")
    );
}
