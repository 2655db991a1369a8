//! Full mechanism comparison using the paper's methodology: identical
//! populations per run, unicast as the energy baseline, averaged over
//! repeated runs — a miniature of the evaluation section, including the
//! SC-PTM baseline the paper argues against.
//!
//! ```text
//! cargo run --release --example mechanism_comparison
//! ```

use nbiot_multicast::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario {
        devices: vec![300],
        runs: 20,
        mechanisms: MechanismKind::ALL.to_vec(),
        ..Scenario::default()
    };

    println!(
        "comparing mechanisms on {} devices over {} runs (mix: {})\n",
        scenario.devices[0], scenario.runs, scenario.mix.name
    );
    let result = run_scenario(&scenario)?;
    let comparison = &result.points[0].comparison;

    println!(
        "{:<8} {:>16} {:>16} {:>14} {:>12} {:>10}",
        "mech", "light-sleep incr", "connected incr", "transmissions", "wait (s)", "compliant"
    );
    for m in &comparison.mechanisms {
        println!(
            "{:<8} {:>15.3}% {:>15.2}% {:>14.1} {:>12.1} {:>10}",
            m.mechanism,
            m.rel_light_sleep.mean * 100.0,
            m.rel_connected.mean * 100.0,
            m.transmissions.mean,
            m.mean_wait_s.mean,
            if m.standards_compliant { "yes" } else { "no" },
        );
    }

    println!("\nReadout (matches the paper's conclusions):");
    println!(" * DR-SC: zero extra sleep energy, but transmission count near the group size");
    println!(" * DA-SC: single transmission, small uptime overhead, fully standards-compliant");
    println!("   -> the paper's recommended trade-off");
    println!(" * DR-SI: best of both, but needs a protocol change (non-compliant)");
    println!(" * SC-PTM: pays continuous SC-MCCH monitoring whether or not anything is sent");
    Ok(())
}
