//! Regression pins for the set-cover kernels on the benchmark workloads.
//!
//! The bench stages (`bench_report`, the criterion benches) assume all
//! solver tiers agree pick-for-pick on these instances; this test
//! additionally pins the *absolute* round-by-round pick sequence of the
//! 1000-device frame-cover instance at the default benchmark seed, so any
//! change to greedy semantics — tie-breaking, gain accounting, instance
//! generation — shows up as a failure here rather than as a silently
//! shifted baseline.

use nbiot_bench::workload;
use nbiot_des::SeedSequence;
use nbiot_grouping::set_cover::{
    greedy_set_cover, greedy_set_cover_weighted, reference, WindowCover,
};
use nbiot_grouping::{repair_plan, GroupingInput, GroupingParams, MechanismKind};

/// The default `FigureOpts::seed` used by `bench_report` and the figure
/// binaries.
const BENCH_SEED: u64 = 0x4E42_494F_5421;

fn fnv1a_picks(picks: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in picks {
        h ^= p as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn frame_cover_1000_pick_sequence_is_pinned() {
    let (n, sets) = workload::frame_cover_instance(1_000, BENCH_SEED);
    let picks = greedy_set_cover(n, &sets).expect("tiled windows cover the horizon");
    // Round-by-round prefix of the greedy selection (window indices), the
    // total round count, and a FNV-1a fold of the full sequence.
    assert_eq!(
        &picks[..12],
        &[186, 181, 29, 158, 90, 315, 215, 262, 269, 452, 112, 9],
        "first greedy rounds moved"
    );
    assert_eq!(picks.len(), 139, "round count moved");
    assert_eq!(
        fnv1a_picks(&picks),
        0xb4e7_b6f5_4665_d2cb,
        "full pick sequence moved"
    );
}

#[test]
fn weighted_cover_1000_pick_sequence_is_pinned() {
    // The airtime-weighted kernel on `bench_report`'s `set_cover_weighted`
    // instance: the truncated fixed-point gain/cost key IS the tie law, so
    // any change to the ratio arithmetic, heap laziness, or the instance
    // generator moves this sequence.
    let (n, sets, costs) = workload::weighted_cover_instance(1_000, BENCH_SEED);
    let picks = greedy_set_cover_weighted(n, &sets, &costs)
        .expect("umbrella-vs-pieces instances always cover");
    assert_eq!(
        &picks[..12],
        &[2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16],
        "first weighted rounds moved"
    );
    assert_eq!(picks.len(), 250, "weighted round count moved");
    assert_eq!(
        fnv1a_picks(&picks),
        0x801a_b659_463e_0a13,
        "full weighted pick sequence moved"
    );

    // Unit costs degenerate the ratio key to the raw gain: the weighted
    // kernel must reproduce the count greedy's pick sequence
    // bit-identically on the very same instance.
    let unit = vec![1u32; sets.len()];
    assert_eq!(
        greedy_set_cover_weighted(n, &sets, &unit),
        reference::greedy_set_cover(n, &sets),
        "unit-cost weighted picks must be bit-identical to unweighted"
    );
}

#[test]
fn bench_repair_chain_is_pinned() {
    // The exact geometry of bench_report's Stage 3b2 (`replan_churn_*`):
    // a 2000-device mobility-churn fleet evolved for 6 epochs at
    // departure/arrival/handover rates 0.05/0.05/0.08, with the repair
    // chain patching the epoch-0 DR-SC plan epoch by epoch. Pinning the
    // per-epoch transmission counts and plan digests means any change to
    // the LNS repair semantics — removal selection, re-insertion order,
    // slot reuse — fails here instead of silently re-baselining the
    // `repair_vs_full_replan_speedup` number.
    let params = GroupingParams::default();
    let model = nbiot_traffic::ChurnModel {
        epochs: 6,
        departure_rate: 0.05,
        arrival_rate: 0.05,
        handover_rate: 0.08,
    };
    let mix = nbiot_traffic::TrafficMix::mobility_churn();
    let seq = SeedSequence::new(BENCH_SEED).child(4_000);
    let pop0 = mix.generate(2_000, &mut seq.rng(0)).expect("population");
    let input0 = GroupingInput::from_population(&pop0, params).expect("input");
    let plan0 = MechanismKind::DrSc
        .instantiate()
        .plan(&input0, &mut seq.rng(100))
        .expect("plan");

    let mut prev = pop0;
    let mut next_id = 2_000u32;
    let mut current = plan0;
    let mut transmissions = Vec::new();
    let mut digests = Vec::new();
    for epoch in 0..model.epochs {
        let (pop, _) = model
            .step(
                &mix,
                &prev,
                2_000,
                &mut next_id,
                &mut seq.rng(1 + epoch as u64),
            )
            .expect("churn step");
        let input = GroupingInput::from_population(&pop, params).expect("input");
        current = repair_plan(&current, &input)
            .expect("DR-SC plans are repairable")
            .expect("repair");
        current.validate(&input).expect("repaired plan is feasible");
        transmissions.push(current.transmission_count());
        digests.push(nbiot_sim::value_digest(&serde::Serialize::to_value(
            &current,
        )));
        prev = pop;
    }
    assert_eq!(
        transmissions,
        vec![249, 250, 263, 273, 278, 287],
        "repair-chain transmission counts moved"
    );
    assert_eq!(
        digests,
        vec![
            0x92e3_c078_0401_8109,
            0xcf76_ecc4_7df7_393b,
            0x6fb7_f942_7638_d6f8,
            0x4a4d_c4a1_cd3d_f0d9,
            0x6016_96c1_894f_8f94,
            0xf78e_cf75_effc_23cf,
        ],
        "repair-chain plan digests moved"
    );
}

#[test]
fn tabu_plan_without_improvement_is_pinned() {
    // A 500-device ericsson-city DR-SC-tabu(64) plan on which the tabu
    // pass finds no strictly smaller cover. Such a plan keeps the greedy
    // windows at their own anchors, so its content (everything but the
    // search statistics) must stay byte-identical whatever the improvement
    // kernel's trajectory or instance representation.
    let seq = SeedSequence::new(BENCH_SEED).child(0);
    let pop = nbiot_traffic::TrafficMix::ericsson_city()
        .generate(500, &mut seq.rng(0))
        .expect("population");
    let input = GroupingInput::from_population(&pop, GroupingParams::default()).expect("input");
    let mut plan = MechanismKind::DrScTabu(64)
        .instantiate()
        .plan(&input, &mut seq.rng(2))
        .expect("plan");
    plan.validate(&input).expect("tabu plan is feasible");
    let stats = plan.improvement.take().expect("tabu plans carry stats");
    assert_eq!(stats.initial_cost, 221, "greedy cover size moved");
    assert_eq!(stats.final_cost, 221, "tabu now improves this input");
    assert_eq!(
        nbiot_sim::value_digest(&serde::Serialize::to_value(&plan)),
        0x1297_50d9_3f61_e9ca,
        "unimproved tabu plan content moved"
    );
}

#[test]
fn massive_metering_window_cover_is_pinned() {
    // `WindowCover::solve` on a 20,000-device massive-metering fleet, the
    // fleet `bench_report --massive-devices 20000` builds. eDRX paging
    // time windows put its sparse POs on few distinct instants (about 7
    // per instant), the shape where candidates per PO event and per PO
    // instant differ most. The slot count and an FNV-1a fold over every
    // slot's window start and newly covered devices pin the cover, and
    // both engines must agree on it. The solver runs on the input's
    // timeline over schedule classes; the PO count is the per-device one,
    // each class event counted once per member.
    let pop = nbiot_traffic::TrafficMix::massive_metering()
        .generate(
            20_000,
            &mut SeedSequence::new(BENCH_SEED).child(2_000).rng(0),
        )
        .expect("population");
    let input = GroupingInput::from_population(&pop, GroupingParams::default()).expect("input");
    let timeline = input.po_timeline();
    let mut instants: Vec<_> = timeline.events().iter().map(|&(t, _)| t).collect();
    instants.dedup();
    assert_eq!(
        (timeline.device_events(), instants.len()),
        (86_472, 12_050),
        "fleet shape moved"
    );

    let start = input.search_horizon().start();
    let cover = WindowCover::new(input.params().ti.duration());
    let slots = cover.solve(start, timeline).expect("coverable");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for slot in &slots {
        for v in std::iter::once(slot.window_start.as_ms())
            .chain(std::iter::once(slot.covered.len() as u64))
            .chain(slot.covered.iter().map(|&d| d as u64))
        {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        (slots.len(), h),
        (1_218, 0x0004_a64c_5cf3_0cdf),
        "massive-metering cover moved"
    );
    assert_eq!(
        cover.solve_incremental(start, timeline),
        cover.solve_sweep(start, timeline),
        "window-cover engines disagree"
    );
}

#[test]
fn all_solver_tiers_agree_on_both_bench_shapes() {
    // The dense-heavy 1000-device instance (the `set_cover_*` stages) and
    // the sparse post-filter 10k point (`set_cover_stress_*`), each
    // compared against the reference oracle.
    let (n, sets) = workload::frame_cover_instance(1_000, BENCH_SEED);
    assert_eq!(
        greedy_set_cover(n, &sets),
        reference::greedy_set_cover(n, &sets)
    );

    let (n, sets) = workload::frame_cover_instance_with(10_000, 0.0, BENCH_SEED);
    assert_eq!(
        greedy_set_cover(n, &sets),
        reference::greedy_set_cover(n, &sets)
    );
}

#[test]
fn paper_grid_tabu_and_weighted_plans_are_pinned() {
    // paper-grid's sixth item at its calibration seed: 500 ericsson-city
    // devices from `SeedSequence::new(1).child(5).rng(0)`, each mechanism
    // on its grid stream (`rng(2 + i)` in `MechanismKind::ALL` order).
    // Every device is CE0, so every anchor window costs the same and
    // DR-SC-weighted's ratio key reduces to the count gain over the static
    // instance. On this input DR-SC-tabu(64) strictly shrinks the greedy
    // cover, so its search statistics and both rebuilt plans are pinned:
    // a change to the instance's representation, the search or the
    // weighted rounds moves one of them.
    let seq = SeedSequence::new(1).child(5);
    let pop = nbiot_traffic::TrafficMix::ericsson_city()
        .generate(500, &mut seq.rng(0))
        .expect("population");
    let input = GroupingInput::from_population(&pop, GroupingParams::default()).expect("input");
    let mut tabu = MechanismKind::DrScTabu(64)
        .instantiate()
        .plan(&input, &mut seq.rng(3))
        .expect("tabu plan");
    tabu.validate(&input).expect("tabu plan is feasible");
    let stats = tabu.improvement.take().expect("tabu plans carry stats");
    assert_eq!(
        (
            stats.initial_cost,
            stats.final_cost,
            stats.moves_accepted,
            stats.budget_spent
        ),
        (222, 221, 64, 64),
        "tabu search statistics moved"
    );
    assert_eq!(
        nbiot_sim::value_digest(&serde::Serialize::to_value(&tabu)),
        0x1f8d_6599_eb6e_cdeb,
        "improved tabu plan content moved"
    );
    let weighted = MechanismKind::DrScWeighted
        .instantiate()
        .plan(&input, &mut seq.rng(4))
        .expect("weighted plan");
    weighted
        .validate(&input)
        .expect("weighted plan is feasible");
    assert_eq!(
        weighted.transmission_count(),
        222,
        "weighted cover size moved"
    );
    assert_eq!(
        nbiot_sim::value_digest(&serde::Serialize::to_value(&weighted)),
        0x310c_c9cb_a8d0_a57f,
        "weighted plan content moved"
    );
}
