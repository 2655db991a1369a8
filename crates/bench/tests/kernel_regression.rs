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
    greedy_set_cover, greedy_set_cover_bitset, greedy_set_cover_weighted, reference, KernelArena,
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
    let mut arena = KernelArena::new();
    let picks = greedy_set_cover_weighted(n, &sets, &costs, 1, &mut arena)
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
    // kernel must reproduce the unweighted pick sequence bit-identically
    // on the very same instance.
    let unit = vec![1u32; sets.len()];
    assert_eq!(
        greedy_set_cover_weighted(n, &sets, &unit, 1, &mut arena),
        greedy_set_cover(n, &sets),
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
fn all_solver_tiers_agree_on_both_bench_shapes() {
    // The dense-heavy 1000-device instance (the `set_cover_*` stages) and
    // the sparse post-filter 10k point (`set_cover_stress_*`), each
    // compared across all three tiers / both fast tiers respectively.
    let (n, sets) = workload::frame_cover_instance(1_000, BENCH_SEED);
    let oracle = reference::greedy_set_cover(n, &sets);
    assert_eq!(greedy_set_cover(n, &sets), oracle);
    assert_eq!(greedy_set_cover_bitset(n, &sets), oracle);

    let (n, sets) = workload::frame_cover_instance_with(10_000, 0.0, BENCH_SEED);
    assert_eq!(
        greedy_set_cover(n, &sets),
        greedy_set_cover_bitset(n, &sets)
    );
}
