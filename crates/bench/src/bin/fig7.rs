//! **Fig. 7** of the paper: the average number of multicast transmissions
//! DR-SC needs to update all devices, as the group size grows from 100 to
//! 1000 (averaged over `--runs` repetitions). The table is the one
//! `figures --scenario fig7` prints; the `--json` output is the only one
//! that carries the fluid-model estimate next to each point. The whole
//! sweep executes as one scheduler grid, so `--threads` workers span every
//! (size × run) pair at once.
//!
//! Expected shape (paper): around 50 % of the number of devices for small
//! groups, falling to around 40 % at 1000 devices — i.e. DR-SC is only
//! modestly more bandwidth-efficient than plain unicast.
//!
//! An extra column shows the fluid-model prediction
//! ([`nbiot_grouping::analysis`]) next to the simulated mean — the
//! "analytical" half of the evaluation.
//!
//! ```text
//! cargo run --release -p nbiot-bench --bin fig7 -- --runs 100
//! ```

use nbiot_bench::{outln, scenarios, FigureOpts};
use nbiot_sim::{run_scenario, Scenario};

fn main() {
    let opts = FigureOpts::from_args();
    let mut scenario = Scenario::builtin("fig7").expect("registered scenario");
    opts.apply_to_scenario(&mut scenario);
    let result = run_scenario(&scenario).expect("fig7 sweep failed");

    if opts.json {
        // The historical shape: one {point, fluid_estimate} entry per size.
        let estimates = scenarios::fluid_estimates(&scenario);
        let value: Vec<_> = result
            .points
            .iter()
            .zip(&estimates)
            .map(|(p, est)| {
                let point = serde_json::json!({
                    "n_devices": p.n_devices,
                    "transmissions": p.comparison.mechanisms[0].transmissions,
                    "ratio_to_devices": p.comparison.mechanisms[0].transmissions_ratio,
                });
                serde_json::json!({ "point": point, "fluid_estimate": est })
            })
            .collect();
        outln!(
            "{}",
            serde_json::to_string_pretty(&value).expect("serializable")
        );
        return;
    }

    outln!("Fig. 7 — DR-SC multicast transmissions vs group size");
    outln!("{}\n", scenarios::caption(&scenario));
    outln!("{}", scenarios::render_transmissions(&scenario, &result));
    outln!("paper: ratio ≈ 50% at small N, falling to ≈ 40% at N = 1000");
}
