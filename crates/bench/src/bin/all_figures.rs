//! Compat shim regenerating every figure of the paper's evaluation section
//! in one go (Fig. 6(a), Fig. 6(b), Fig. 7), printing the same tables as
//! the individual binaries. Equivalent to running
//! `figures --scenario paper-suite` plus `figures --scenario fig7`
//! — Fig. 6(a) and 6(b) come out of *one* scenario grid, sharing each
//! run's population and plans across the payload columns.
//!
//! ```text
//! cargo run --release -p nbiot-bench --bin all_figures -- --runs 100
//! ```

use nbiot_bench::{scenarios, FigureOpts};
use nbiot_sim::{run_scenario, Scenario};

fn main() {
    let opts = FigureOpts::from_args();

    // Fig. 6(a) + 6(b): one grid over the three payload sizes; the 100 kB
    // column doubles as Fig. 6(a).
    let mut suite = Scenario::builtin("paper-suite").expect("registered scenario");
    opts.apply_to_scenario(&mut suite);
    let result = run_scenario(&suite).expect("paper-suite comparison failed");

    println!("==== Fig. 6(a): relative light-sleep uptime increase vs unicast ====");
    println!("{}\n", scenarios::caption(&suite));
    let fig6a_view = Scenario {
        payloads: vec![suite.payloads[0]],
        ..suite.clone()
    };
    let fig6a_points = nbiot_sim::ScenarioResult {
        points: result
            .payload_column(suite.payloads[0])
            .into_iter()
            .cloned()
            .collect(),
        ..result.clone()
    };
    println!(
        "{}",
        scenarios::render_light_sleep(&fig6a_view, &fig6a_points)
    );

    println!("==== Fig. 6(b): relative connected-mode uptime increase vs unicast ====");
    println!("{}\n", scenarios::caption(&suite));
    println!("{}", scenarios::render_connected(&suite, &result));

    // Fig. 7: the device sweep.
    let mut fig7 = Scenario::builtin("fig7").expect("registered scenario");
    opts.apply_to_scenario(&mut fig7);
    let sweep = run_scenario(&fig7).expect("fig7 sweep failed");
    println!("==== Fig. 7: DR-SC multicast transmissions vs group size ====");
    println!("{}\n", scenarios::caption(&fig7));
    println!("{}", scenarios::render_transmissions(&fig7, &sweep));
}
