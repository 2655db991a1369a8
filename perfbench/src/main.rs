//! The repository's benchmark of record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir DIR]
//! ```
//!
//! Each workload generates its inputs from `--seed`, hands only those
//! inputs to the program through its public API, measures for `--seconds`
//! and checks every output. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set (measured untraced); with `--trace 1`
//! they are the per-layer set, taken from a separate traced pass that
//! wraps the calls into each layer from this crate's own code. Traced runs
//! also write every span to `<trace-dir>/<workload>.seed<n>.trace.json`.
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `paper-grid` — `run_scenario` on the paper's default point with every
//!   mechanism and the three paper payloads ([`grid`]).
//! * `metering-100k` — `run_scenario` on one 100 000-device point of the
//!   `massive-n` shape ([`grid`]).
//! * `service-churn` — the grouping service replaying a 1000-epoch churn
//!   log under the repair policy, closed loop, one caller ([`service`]).

mod grid;
mod report;
mod service;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::{Machine, Outcome};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub trace_dir: String,
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|metering-100k|service-churn> \
--seed <n> --seconds <s> --trace <0|1> [--trace-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = String::from(".bench_build/perfbench-traces");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            "--trace-dir" => trace_dir = value,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    let outcome: Outcome = match args.workload.as_str() {
        "paper-grid" | "metering-100k" => grid::run(&args, &machine),
        "service-churn" => service::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report::finish(&args, &machine, outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
