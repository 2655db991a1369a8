//! Property-based tests on the structural invariants of multicast plans,
//! across random populations, group sizes, inactivity timers and seeds.

use nbiot_multicast::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random mix choice: the calibrated city mix, short-DRX only, or a uniform
/// single-cycle population.
fn arb_mix() -> impl Strategy<Value = TrafficMix> {
    prop_oneof![
        Just(TrafficMix::ericsson_city()),
        Just(TrafficMix::short_drx()),
        prop_oneof![
            Just(EdrxCycle::Hf2),
            Just(EdrxCycle::Hf16),
            Just(EdrxCycle::Hf256),
            Just(EdrxCycle::Hf1024),
        ]
        .prop_map(|c| TrafficMix::uniform(PagingCycle::edrx(c))),
    ]
}

fn arb_params() -> impl Strategy<Value = GroupingParams> {
    (10u64..=30, 0u64..100_000).prop_map(|(ti_s, start_ms)| GroupingParams {
        start: SimInstant::from_ms(start_ms),
        ti: InactivityTimer::new(SimDuration::from_secs(ti_s)),
        transmission_time: None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_mechanisms_produce_valid_plans(
        mix in arb_mix(),
        params in arb_params(),
        n in 2usize..60,
        seed in 0u64..1_000,
    ) {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, params).unwrap();
        for kind in MechanismKind::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let plan = kind.instantiate().plan(&input, &mut rng).unwrap();
            prop_assert!(plan.validate(&input).is_ok(), "{kind}: {:?}", plan.validate(&input));
        }
    }

    #[test]
    fn dr_si_wakes_inside_pre_transmission_window(
        params in arb_params(),
        n in 2usize..40,
        seed in 0u64..500,
    ) {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let plan = DrSi::new().plan(&input, &mut rng).unwrap();
        let t = plan.single_transmission_time().unwrap();
        let w = TimeWindow::ending_at(t, params.ti.duration());
        for dp in &plan.device_plans {
            if let Some(m) = dp.mltc {
                prop_assert!(w.contains(m.wake_at));
                prop_assert!(m.po < w.start());
                prop_assert_eq!(m.time_remaining, t - m.po);
            }
        }
    }

    #[test]
    fn da_sc_adaptations_shorten_cycles_and_land_in_window(
        params in arb_params(),
        n in 2usize..40,
        seed in 0u64..500,
    ) {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let plan = DaSc::new().plan(&input, &mut rng).unwrap();
        let t = plan.single_transmission_time().unwrap();
        let w = TimeWindow::ending_at(t, params.ti.duration());
        for (dp, dev) in plan.device_plans.iter().zip(input.iter()) {
            if let Some(a) = dp.adaptation {
                prop_assert!(a.new_cycle.period_frames() < dev.paging.cycle.period_frames());
                prop_assert!(w.contains(a.landing_po));
                prop_assert!(a.page_po < w.start());
                prop_assert!(a.monitored_adapted_pos >= 1);
                // The landing PO is consistent with the anchored grid.
                let gap = a.landing_po - a.page_po;
                prop_assert_eq!(gap.as_ms() % a.new_cycle.period().as_ms(), 0);
            }
        }
    }

    #[test]
    fn unicast_transmission_count_equals_group_size(
        mix in arb_mix(),
        n in 1usize..50,
        seed in 0u64..500,
    ) {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = Unicast::new().plan(&input, &mut rng).unwrap();
        prop_assert_eq!(plan.transmission_count(), n);
    }

    #[test]
    fn dr_sc_transmission_count_is_monotone_reasonable(
        params in arb_params(),
        n in 2usize..50,
        seed in 0u64..500,
    ) {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        prop_assert!(plan.transmission_count() >= 1);
        prop_assert!(plan.transmission_count() <= n);
    }

    #[test]
    fn pages_happen_at_devices_own_pos(
        n in 2usize..30,
        seed in 0u64..500,
    ) {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        for kind in [MechanismKind::DrSc, MechanismKind::Unicast] {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = kind.instantiate().plan(&input, &mut rng).unwrap();
            for (dp, sched) in plan.device_plans.iter().zip(input.schedules()) {
                if let Some(p) = dp.page {
                    prop_assert_eq!(
                        sched.first_po_at_or_after(p.po), p.po,
                        "{} paged off-PO", dp.device
                    );
                }
            }
        }
    }
}

/// The planners that solve the deduplicated anchor-window instance.
const INSTANCE_PLANNERS: [MechanismKind; 2] =
    [MechanismKind::DrScTabu(64), MechanismKind::DrScWeighted];

/// Fails on a `NaN` or `inf` token anywhere in `value`'s debug rendering,
/// so every float of every nested summary must be finite.
fn assert_finite(what: &str, value: &impl std::fmt::Debug) {
    let text = format!("{value:?}");
    let bad = text
        .split(|c: char| !c.is_ascii_alphanumeric())
        .find(|token| *token == "NaN" || *token == "inf");
    assert!(bad.is_none(), "{what}: non-finite number in {text}");
}

#[test]
fn instance_planners_are_valid_and_finite_on_edge_fleets() {
    // One and two devices of the city mix, and an all-dense fleet (every
    // cycle within TI: the instance is empty). `run_comparison` validates
    // every plan before executing it.
    for (label, mix, n, max_transmissions) in [
        ("1 device", TrafficMix::ericsson_city(), 1, 1.0),
        ("2 devices", TrafficMix::ericsson_city(), 2, 2.0),
        ("all-dense", TrafficMix::short_drx(), 20, 1.0),
    ] {
        let config = ExperimentConfig {
            mix,
            n_devices: n,
            runs: 3,
            ..ExperimentConfig::default()
        };
        let cmp = run_comparison(&config, &INSTANCE_PLANNERS).unwrap();
        assert_finite(label, &cmp);
        for m in &cmp.mechanisms {
            assert!(
                m.transmissions.max <= max_transmissions,
                "{label}: {} used {} transmissions",
                m.mechanism,
                m.transmissions.max
            );
        }
    }
}

#[test]
fn instance_planners_serve_identical_timelines_with_one_window() {
    // Five sparse devices share one paging identity and eDRX cycle, so
    // every anchor holds all of them (two anchors over the 2·maxDRX
    // horizon, one distinct window); a dense device rides along.
    let pop = TrafficMix::ericsson_city()
        .generate(6, &mut StdRng::seed_from_u64(21))
        .unwrap();
    let mut devices = pop.profiles();
    let ue = devices[0].ue;
    for d in &mut devices[..5] {
        d.ue = ue;
        d.paging = PagingConfig::edrx(EdrxCycle::Hf16);
    }
    devices[5].paging = PagingConfig::drx(DrxCycle::Rf128);
    let params = GroupingParams::default();
    let input = GroupingInput::from_devices(devices, params).unwrap();
    let (events, dense) = input.po_events();
    let instance = nbiot_multicast::grouping::set_cover::AnchorInstance::new(
        params.ti.duration(),
        &events,
        &dense,
    );
    assert_eq!(instance.anchors().len(), 2);
    assert_eq!(instance.windows(), &[vec![0, 1, 2, 3, 4]]);
    for kind in INSTANCE_PLANNERS {
        let mechanism = kind.instantiate();
        let plan = mechanism
            .plan(&input, &mut StdRng::seed_from_u64(1))
            .unwrap();
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1, "{kind}");
        assert_eq!(plan.transmissions[0].recipients.len(), 6, "{kind}");
        let result = run_campaign(
            mechanism.as_ref(),
            &input,
            &SimConfig::default(),
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        assert_finite(&kind.to_string(), &result);
        assert!(result.mean_light_sleep_ms().is_finite());
        assert!(result.mean_connected_ms().is_finite());
    }
}
