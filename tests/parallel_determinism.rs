//! The parallel experiment harness must be a pure wall-clock optimization:
//! every `ScenarioResult` field bit-identical for every thread count, and
//! errors surfaced identically. The same contract holds
//! one layer down: the SoA `Population` columns must reproduce the
//! historical AoS device stream bit-for-bit.

use nbiot_multicast::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One serial 30-device point, eight runs, of the given mechanisms.
fn comparison(mechanisms: &[MechanismKind]) -> Scenario {
    Scenario {
        devices: vec![30],
        runs: 8,
        mechanisms: mechanisms.to_vec(),
        threads: 1,
        ..Scenario::default()
    }
}

#[test]
fn comparison_threads_1_vs_8_bit_identical() {
    let serial = run_scenario(&comparison(&MechanismKind::ALL)).unwrap();
    let parallel = run_scenario(&Scenario {
        threads: 8,
        ..comparison(&MechanismKind::ALL)
    })
    .unwrap();
    // PartialEq over ScenarioResult covers every Summary field (n, mean,
    // std_dev, ci95, min, max) of every metric of every mechanism.
    assert_eq!(serial, parallel);
}

#[test]
fn comparison_auto_threads_bit_identical() {
    let serial = run_scenario(&comparison(&MechanismKind::PAPER_MECHANISMS)).unwrap();
    let auto = run_scenario(&Scenario {
        threads: 0,
        ..comparison(&MechanismKind::PAPER_MECHANISMS)
    })
    .unwrap();
    assert_eq!(serial, auto);
}

#[test]
fn sweep_threads_1_vs_8_bit_identical() {
    // A DR-SC device sweep without the unicast baseline (the Fig. 7
    // shape).
    let sweep = Scenario {
        devices: vec![10, 20, 35],
        baseline: false,
        ..comparison(&[MechanismKind::DrSc])
    };
    let serial = run_scenario(&sweep).unwrap();
    let parallel = run_scenario(&Scenario {
        threads: 8,
        ..sweep
    })
    .unwrap();
    assert_eq!(serial, parallel);
}

fn small_scenario() -> Scenario {
    let mut s = Scenario::builtin("fig6b").expect("registered");
    s.devices = vec![15, 30];
    s.runs = 4;
    s.threads = 1;
    s
}

#[test]
fn scenario_grid_threads_1_vs_8_bit_identical() {
    // The tentpole acceptance bar: a full multi-point, multi-payload
    // scenario grid — the thread pool spans every (point × run) pair —
    // must be bit-identical between serial and parallel execution.
    // PartialEq over ScenarioResult covers every Summary field of every
    // mechanism of every grid point.
    let serial = run_scenario(&small_scenario()).unwrap();
    let mut parallel_scenario = small_scenario();
    parallel_scenario.threads = 8;
    let parallel = run_scenario(&parallel_scenario).unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn full_device_sweep_scenario_threads_bit_identical() {
    let mut sweep = Scenario::builtin("fig7").expect("registered");
    sweep.devices = vec![10, 20, 35];
    sweep.runs = 5;
    sweep.threads = 1;
    let serial = run_scenario(&sweep).unwrap();
    for threads in [8, 0] {
        sweep.threads = threads;
        assert_eq!(run_scenario(&sweep).unwrap(), serial, "threads={threads}");
    }
}

#[test]
fn shared_populations_match_per_payload_regeneration() {
    // Within a scenario, each run's population and every mechanism's plan
    // are generated once and shared across the payload columns; a
    // dedicated one-point, one-payload scenario regenerates everything.
    // Both paths must agree bit-for-bit.
    let scenario = small_scenario();
    let result = run_scenario(&scenario).unwrap();
    for &n_devices in &scenario.devices {
        for &payload in &scenario.payloads {
            let dedicated = run_scenario(&Scenario {
                devices: vec![n_devices],
                payloads: vec![payload],
                ..scenario.clone()
            })
            .unwrap();
            let point = result
                .points
                .iter()
                .find(|p| p.n_devices == n_devices && p.payload == payload)
                .expect("grid point");
            assert_eq!(
                point.comparison, dedicated.points[0].comparison,
                "{n_devices} devices, {payload}"
            );
        }
    }
}

fn churned_scenario() -> Scenario {
    let mut s = Scenario::builtin("mobility-churn").expect("registered");
    s.devices = vec![20, 35];
    s.runs = 4;
    s.threads = 1;
    s
}

#[test]
fn churned_scenario_threads_1_vs_8_bit_identical() {
    // The churn acceptance bar: population evolution, staleness counting
    // and re-planning all live inside the (point × run) item, so a
    // churned grid must stay bit-identical for every thread count —
    // including the new regroup_count / stale_miss_ratio summaries.
    let serial = run_scenario(&churned_scenario()).unwrap();
    let churned = serial
        .points
        .iter()
        .flat_map(|p| &p.comparison.mechanisms)
        .any(|m| m.regroup_count.mean > 0.0 || m.stale_miss_ratio.mean > 0.0);
    assert!(churned, "the churned workload must actually churn");
    for threads in [8, 0] {
        let mut parallel = churned_scenario();
        parallel.threads = threads;
        assert_eq!(
            run_scenario(&parallel).unwrap(),
            serial,
            "threads={threads}"
        );
    }
}

#[test]
fn handover_storm_threads_bit_identical() {
    let mut s = Scenario::builtin("handover-storm").expect("registered");
    s.devices = vec![25];
    s.runs = 4;
    s.threads = 1;
    let serial = run_scenario(&s).unwrap();
    s.threads = 8;
    assert_eq!(run_scenario(&s).unwrap(), serial);
    // Every-epoch policy under a 30% handover storm: every mechanism
    // re-plans every epoch and nothing is ever missed.
    for m in serial.points.iter().flat_map(|p| &p.comparison.mechanisms) {
        assert_eq!(m.regroup_count.mean, 4.0, "{}", m.mechanism);
        assert_eq!(m.stale_miss_ratio.mean, 0.0, "{}", m.mechanism);
    }
}

// ---- SoA Population vs the historical AoS device stream ----

/// The historical array-of-structs generation path: one `DeviceProfile`
/// per draw, in draw order. The SoA columns must reproduce this stream
/// bit-for-bit through every row accessor.
fn aos_generate(mix: &TrafficMix, n: usize, rng: &mut StdRng) -> Vec<DeviceProfile> {
    (0..n)
        .map(|i| mix.sample_device(DeviceId(i as u32), rng).unwrap())
        .collect()
}

/// The historical AoS churn epoch, reproducing `ChurnModel::step`'s
/// documented draw order: per survivor a departure draw then a handover
/// draw (+ fresh identity), then one arrival draw per `base_size` slot.
fn aos_churn_step(
    model: &ChurnModel,
    mix: &TrafficMix,
    devices: &[DeviceProfile],
    base_size: usize,
    next_id: &mut u32,
    rng: &mut StdRng,
) -> Vec<DeviceProfile> {
    let mut evolved = Vec::new();
    for &device in devices {
        if model.departure_rate > 0.0 && rng.gen_bool(model.departure_rate) {
            continue;
        }
        let mut device = device;
        if model.handover_rate > 0.0 && rng.gen_bool(model.handover_rate) {
            device.ue = UeId(rng.gen());
        }
        evolved.push(device);
    }
    if model.arrival_rate > 0.0 {
        for _ in 0..base_size {
            if rng.gen_bool(model.arrival_rate) {
                evolved.push(mix.sample_device(DeviceId(*next_id), rng).unwrap());
                *next_id += 1;
            }
        }
    }
    evolved
}

/// Asserts the SoA population equals the AoS device list row by row,
/// through both the row view and every column accessor.
fn assert_population_matches_aos(pop: &Population, aos: &[DeviceProfile]) {
    assert_eq!(pop.len(), aos.len());
    for (i, want) in aos.iter().enumerate() {
        assert_eq!(pop.device(i), *want, "row {i}");
        assert_eq!(pop.id(i), want.id, "id column, row {i}");
        assert_eq!(pop.ues()[i], want.ue, "ue column, row {i}");
        assert_eq!(pop.classes()[i], want.class, "class column, row {i}");
        assert_eq!(
            pop.paging_configs()[i],
            want.paging,
            "paging column, row {i}"
        );
        assert_eq!(
            pop.report_intervals()[i],
            want.report_interval,
            "interval column, row {i}"
        );
    }
    let via_iter: Vec<DeviceProfile> = pop.iter().collect();
    assert_eq!(via_iter, aos, "iter() view");
    assert_eq!(pop.profiles(), aos, "profiles() view");
}

fn any_mix() -> impl Strategy<Value = TrafficMix> {
    (0..TrafficMix::REGISTRY.len())
        .prop_map(|i| TrafficMix::by_name(TrafficMix::REGISTRY[i]).expect("registered"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn soa_generation_matches_aos_stream(
        mix in any_mix(),
        n in 0usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let aos = aos_generate(&mix, n, &mut StdRng::seed_from_u64(seed));
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert_population_matches_aos(&pop, &aos);
    }

    #[test]
    fn soa_churn_step_matches_aos_stream(
        mix in any_mix(),
        n in 1usize..80,
        seed in 0u64..u64::MAX,
        departure_pct in 0u32..90,
        arrival_pct in 0u32..90,
        handover_pct in 0u32..90,
        epochs in 1usize..4,
    ) {
        let model = ChurnModel {
            epochs: epochs as u32,
            departure_rate: f64::from(departure_pct) / 100.0,
            arrival_rate: f64::from(arrival_pct) / 100.0,
            handover_rate: f64::from(handover_pct) / 100.0,
        };
        let mut soa_rng = StdRng::seed_from_u64(seed);
        let mut aos_rng = StdRng::seed_from_u64(seed);
        let mut pop = mix.generate(n, &mut soa_rng).unwrap();
        let mut aos = aos_generate(&mix, n, &mut aos_rng);
        let (mut soa_next, mut aos_next) = (n as u32, n as u32);
        for epoch in 0..epochs {
            let (evolved, _) = model.step(&mix, &pop, n, &mut soa_next, &mut soa_rng).unwrap();
            pop = evolved;
            aos = aos_churn_step(&model, &mix, &aos, n, &mut aos_next, &mut aos_rng);
            prop_assert_eq!(soa_next, aos_next, "id allocator, epoch {}", epoch);
            assert_population_matches_aos(&pop, &aos);
        }
    }

}

#[cfg(feature = "serde")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn soa_population_roundtrips_through_serde(
        mix in any_mix(),
        n in 0usize..60,
        seed in 0u64..u64::MAX,
        churned in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pop = mix.generate(n, &mut rng).unwrap();
        if churned == 1 && n > 0 {
            // A churned population exercises the lazily-allocated id
            // column (arrivals diverge ids from row indices).
            let model = ChurnModel { epochs: 1, departure_rate: 0.3, arrival_rate: 0.3, handover_rate: 0.2 };
            let mut next_id = n as u32;
            pop = model.step(&mix, &pop, n, &mut next_id, &mut rng).unwrap().0;
        }
        let text = serde_json::to_string(&pop).expect("serializable");
        let back: Population = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(&back, &pop);
        // The roundtrip must also preserve the row view exactly.
        assert_population_matches_aos(&back, &pop.profiles());
    }
}

#[test]
fn thread_counts_beyond_runs_still_identical() {
    // More workers than runs: the fan-out clamps and stays correct.
    let narrow = Scenario {
        runs: 3,
        ..comparison(&[MechanismKind::DaSc])
    };
    let wide = run_scenario(&Scenario {
        threads: 64,
        ..narrow.clone()
    })
    .unwrap();
    assert_eq!(wide, run_scenario(&narrow).unwrap());
}
