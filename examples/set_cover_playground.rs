//! The DR-SC set-cover formulation, hands-on: reconstructs the paper's
//! Fig. 3 bipartite instance, solves it with the greedy heuristic, then
//! runs the windowed solver on a realistic PO timeline, built over
//! schedule classes, so you can watch the greedy pick transmission
//! windows (the Fig. 4 walkthrough).
//!
//! Both calls go through the production incremental-gain kernels; the
//! solver tiers and their equivalence guarantees are documented in
//! `docs/KERNELS.md`.
//!
//! ```text
//! cargo run --release --example set_cover_playground
//! ```

use nbiot_multicast::grouping::set_cover::{greedy_set_cover, PoTimeline, WindowCover};
use nbiot_multicast::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: the paper's Fig. 3 instance ----
    // Five devices with POs on six frames; TI = one frame. The minimum set
    // of frames covering every device is {frame 4, frame 5}.
    println!("Fig. 3 bipartite instance:");
    let frames: Vec<(u32, Vec<usize>)> = vec![
        (1, vec![0]),
        (2, vec![1]),
        (3, vec![3]),
        (4, vec![0, 1, 2]),
        (5, vec![3, 4]),
        (6, vec![2]),
    ];
    for (frame, devices) in &frames {
        println!(
            "  frame {frame}: devices {:?}",
            devices.iter().map(|d| d + 1).collect::<Vec<_>>()
        );
    }
    let sets: Vec<Vec<usize>> = frames.iter().map(|(_, d)| d.clone()).collect();
    let picked = greedy_set_cover(5, &sets).expect("coverable");
    println!(
        "  greedy picks frames {:?} (paper: optimal is frames 4 and 5)\n",
        picked.iter().map(|i| frames[*i].0).collect::<Vec<_>>()
    );

    // ---- Part 2: the windowed solver on a live PO timeline (Fig. 4) ----
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let population = TrafficMix::ericsson_city().generate(12, &mut rng)?;
    let ti = SimDuration::from_secs(10);
    let horizon = TimeWindow::starting_at(SimInstant::ZERO, SimDuration::from_secs(2 * 21_000));

    // Devices with equal paging schedules share one PO timeline: the
    // solver covers these schedule classes, weighted by their size.
    let timeline = PoTimeline::new(&population.schedules()?, ti, horizon);
    println!(
        "12-device timeline (TI = {ti}), {} schedule classes:",
        timeline.classes()
    );
    for (d, device) in population.iter().enumerate() {
        let class = timeline.class_of(d);
        let pos = timeline.events().iter().filter(|&&(_, c)| c == class);
        println!(
            "  {}: cycle {}, class {class}, {} POs in horizon{}",
            device.id,
            device.paging.cycle,
            pos.count(),
            if class >= timeline.sparse_classes() {
                " (dense: every window covers it)"
            } else {
                ""
            },
        );
    }

    let slots = WindowCover::new(ti)
        .solve(horizon.start(), &timeline)
        .expect("coverable");
    println!("\ngreedy cover -> {} transmissions:", slots.len());
    for (i, slot) in slots.iter().enumerate() {
        println!(
            "  #{:<2} window [{} .. {}) covers {:?}",
            i + 1,
            slot.window_start,
            slot.transmit_at,
            slot.covered
                .iter()
                .map(|d| format!("dev{d}"))
                .collect::<Vec<_>>()
        );
    }
    println!("\n(each transmission reaches the devices paged inside its window,");
    println!(" exactly the iterative procedure of the paper's Fig. 4)");
    Ok(())
}
