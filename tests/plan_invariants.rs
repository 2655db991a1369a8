//! Property-based tests on the structural invariants of multicast plans,
//! across random populations, group sizes, inactivity timers and seeds.

use std::collections::HashMap;

use nbiot_multicast::grouping::set_cover::{reference, AnchorInstance, WindowCover};
use nbiot_multicast::grouping::{PlanViolation, Transmission};
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

/// Reference validator for the differential test: the delivery
/// invariants of `MulticastPlan::validate`, checked through hash maps
/// keyed by device identity, without the device-order, membership and
/// connection-trigger checks the campaign engine also relies on.
fn reference_validate(plan: &MulticastPlan, input: &GroupingInput) -> Result<(), PlanViolation> {
    // 1. Transmissions sorted.
    if plan.transmissions.windows(2).any(|w| w[0].at > w[1].at) {
        return Err(PlanViolation::UnsortedTransmissions);
    }
    // 2. Every device served exactly once across all recipient lists.
    let mut served: HashMap<DeviceId, usize> = HashMap::new();
    for tx in &plan.transmissions {
        for &d in &tx.recipients {
            *served.entry(d).or_insert(0) += 1;
        }
    }
    for dp in &plan.device_plans {
        let times = served.get(&dp.device).copied().unwrap_or(0);
        if times != 1 {
            return Err(PlanViolation::NotExactlyOnce {
                device: dp.device,
                times,
            });
        }
    }
    // 3. Each device plan references an existing transmission that
    //    lists it as recipient. Several transmissions may share an
    //    instant (unicast deliveries paged in the same PO), so index
    //    them as a multimap.
    let mut by_time: HashMap<SimInstant, Vec<&Transmission>> = HashMap::new();
    for t in &plan.transmissions {
        by_time.entry(t.at).or_default().push(t);
    }
    let ti = input.params().ti.duration();
    let start = input.params().start;
    for dp in &plan.device_plans {
        let Some(txs) = by_time.get(&dp.receives_at) else {
            return Err(PlanViolation::UnknownTransmission {
                device: dp.device,
                receives_at: dp.receives_at,
            });
        };
        if !txs.iter().any(|tx| tx.recipients.contains(&dp.device)) {
            return Err(PlanViolation::NotExactlyOnce {
                device: dp.device,
                times: 0,
            });
        }
        // 4. Inactivity-timer discipline: the device must connect within
        //    TI before (or exactly at) the transmission.
        if let Some(connect_at) = dp.connect_at {
            let lower = dp.receives_at.saturating_sub(ti);
            if connect_at < lower || connect_at > dp.receives_at {
                return Err(PlanViolation::InactivityViolated {
                    device: dp.device,
                    connect_at,
                    receives_at: dp.receives_at,
                });
            }
        }
        // 5. Nothing happens before the campaign start.
        let earliest = [
            dp.page.map(|p| p.po),
            dp.mltc.map(|m| m.po),
            dp.adaptation.map(|a| a.page_po),
            dp.connect_at,
        ]
        .into_iter()
        .flatten()
        .min();
        if let Some(e) = earliest {
            if e < start {
                return Err(PlanViolation::BeforeStart { device: dp.device });
            }
        }
    }
    // 6. Compliance flag consistency: only a plan that carries mltc
    //    directives may be non-compliant and vice versa.
    let uses_mltc = plan.device_plans.iter().any(|p| p.mltc.is_some());
    if uses_mltc == plan.standards_compliant {
        return Err(PlanViolation::ComplianceMismatch);
    }
    Ok(())
}

/// One edit of a valid plan, as a buggy mechanism might make it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    DropRecipient,
    DuplicateRecipient,
    MoveRecipient,
    ReceivesAtMissing,
    ReceivesAtOther,
    ConnectPastTi,
    PoBeforeStart,
    FlipCompliance,
    SwapTransmissions,
    ReverseDevicePlans,
    TruncateDevicePlans,
    ForeignRecipient,
}

impl Mutation {
    const ALL: [Mutation; 12] = [
        Mutation::DropRecipient,
        Mutation::DuplicateRecipient,
        Mutation::MoveRecipient,
        Mutation::ReceivesAtMissing,
        Mutation::ReceivesAtOther,
        Mutation::ConnectPastTi,
        Mutation::PoBeforeStart,
        Mutation::FlipCompliance,
        Mutation::SwapTransmissions,
        Mutation::ReverseDevicePlans,
        Mutation::TruncateDevicePlans,
        Mutation::ForeignRecipient,
    ];
}

/// Applies `mutation` to a valid `plan`, with `pick` choosing the device,
/// transmissions and positions it edits. Returns whether the edit kept
/// the device order, the group membership and every connection trigger
/// intact — the three properties the previous `validate` did not check.
fn mutate(plan: &mut MulticastPlan, input: &GroupingInput, mutation: Mutation, pick: u64) -> bool {
    let pick = pick as usize;
    let n = plan.device_plans.len();
    let d = pick % n;
    let k = (pick / 61) % plan.transmissions.len();
    let j = (pick / 3_721) % plan.transmissions.len();
    let device = plan.device_plans[d].device;
    match mutation {
        Mutation::DropRecipient => {
            let recipients = &mut plan.transmissions[k].recipients;
            if !recipients.is_empty() {
                recipients.remove(pick % recipients.len());
            }
        }
        Mutation::DuplicateRecipient => plan.transmissions[k].recipients.push(device),
        Mutation::MoveRecipient => {
            for tx in &mut plan.transmissions {
                tx.recipients.retain(|&r| r != device);
            }
            plan.transmissions[k].recipients.push(device);
        }
        Mutation::ReceivesAtMissing => {
            let last = plan.transmissions.last().expect("non-empty").at;
            plan.device_plans[d].receives_at = last + SimDuration::from_ms(1);
        }
        Mutation::ReceivesAtOther => plan.device_plans[d].receives_at = plan.transmissions[k].at,
        Mutation::ConnectPastTi => {
            let dp = &mut plan.device_plans[d];
            if dp.connect_at.is_some() {
                let past = input.params().ti.duration() + SimDuration::from_secs(1);
                let moved = dp.receives_at.saturating_sub(past);
                dp.connect_at = Some(moved);
                if let Some(page) = &mut dp.page {
                    page.po = moved;
                }
                if let Some(mltc) = &mut dp.mltc {
                    mltc.wake_at = moved;
                }
            }
        }
        Mutation::PoBeforeStart => {
            let before = input.params().start.saturating_sub(SimDuration::from_ms(1));
            let dp = &mut plan.device_plans[d];
            let mut pos: Vec<&mut SimInstant> = Vec::new();
            pos.extend(dp.adaptation.as_mut().map(|a| &mut a.page_po));
            pos.extend(dp.mltc.as_mut().map(|m| &mut m.po));
            let non_triggers = pos.len();
            pos.extend(dp.page.as_mut().map(|p| &mut p.po));
            if !pos.is_empty() {
                let which = pick % pos.len();
                *pos[which] = before;
                // The page PO is the connection trigger.
                return which < non_triggers || !plan.requires_connection;
            }
        }
        Mutation::FlipCompliance => plan.standards_compliant = !plan.standards_compliant,
        Mutation::SwapTransmissions => plan.transmissions.swap(k, j),
        Mutation::ReverseDevicePlans => {
            plan.device_plans.reverse();
            return n < 2;
        }
        Mutation::TruncateDevicePlans => {
            plan.device_plans.truncate(d);
            return false;
        }
        Mutation::ForeignRecipient => {
            let foreign = DeviceId(u32::MAX);
            assert_eq!(input.position_of(foreign), None);
            let recipients = &mut plan.transmissions[k].recipients;
            recipients.insert(pick % (recipients.len() + 1), foreign);
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn validate_is_the_reference_plus_engine_assumptions(
        mix in arb_mix(),
        params in arb_params(),
        n in 2usize..40,
        seed in 0u64..1_000,
        mutation in proptest::sample::select(Mutation::ALL.to_vec()),
        pick in 0u64..u64::MAX,
    ) {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, params).unwrap();
        for kind in MechanismKind::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut plan = kind.instantiate().plan(&input, &mut rng).unwrap();
            prop_assert_eq!(plan.validate(&input), Ok(()), "{kind}");
            let intact = mutate(&mut plan, &input, mutation, pick);
            let (new, old) = (plan.validate(&input), reference_validate(&plan, &input));
            let context = format!("{kind}, {mutation:?}: new {new:?}, reference {old:?}");
            if old.is_err() {
                prop_assert!(new.is_err(), "{context}");
            } else {
                prop_assert!(
                    matches!(
                        new,
                        Ok(())
                            | Err(PlanViolation::DeviceOrder { .. }
                                | PlanViolation::UnknownRecipient { .. }
                                | PlanViolation::ConnectionTrigger { .. })
                    ),
                    "{context}"
                );
            }
            if intact {
                prop_assert_eq!(&new, &old, "{context}");
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

/// Five sparse devices sharing one paging identity and eDRX cycle — one
/// PO timeline, so every DR-SC anchor holds all of them (two anchors over
/// the 2·maxDRX horizon, one distinct window) — plus a dense device.
fn shared_timeline_input() -> GroupingInput {
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
    let pop = Population::new(pop.mix_name().into(), pop.class_names().to_vec(), devices);
    GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
}

#[test]
fn campaigns_at_the_latest_plannable_instant_stay_in_range() {
    // Planning and campaign execution add bounded offsets past `start`
    // and `transmission_time`; at the latest accepted instant and the
    // longest accepted TI they still fit in `u64` (a debug build panics
    // on any overflow).
    let latest = GroupingParams::LATEST_INSTANT;
    for grouping in [
        GroupingParams {
            start: latest,
            ..GroupingParams::default()
        },
        GroupingParams {
            start: latest,
            ti: InactivityTimer::new(GroupingParams::LONGEST_TI),
            ..GroupingParams::default()
        },
        GroupingParams {
            start: latest - SimDuration::from_secs(30_000),
            transmission_time: Some(latest),
            ..GroupingParams::default()
        },
    ] {
        let scenario = Scenario {
            devices: vec![20],
            runs: 1,
            mechanisms: MechanismKind::ALL.to_vec(),
            grouping,
            threads: 1,
            ..Scenario::default()
        };
        let cmp = &run_scenario(&scenario).unwrap().points[0].comparison;
        assert_finite("latest instant", cmp);
    }
}

#[test]
fn every_mechanism_is_valid_and_finite_on_edge_fleets() {
    // One and two devices of the city mix, an all-dense fleet (every
    // cycle within TI: the DR-SC instance is empty) and an all-CE2 fleet
    // (every transmission at the deepest repetition level).
    // `run_scenario` validates every plan before executing it.
    let all_ce2 = TrafficMix::new(
        "all-ce2",
        vec![ClassSpec::new(
            "manhole-sensor",
            1.0,
            PagingCycle::edrx(EdrxCycle::Hf256),
            SimDuration::from_secs(86_400),
        )
        .with_coverage(CoverageClass::Extreme)],
    )
    .unwrap();
    for (label, mix, n, max_transmissions) in [
        ("1 device", TrafficMix::ericsson_city(), 1, 1.0),
        ("2 devices", TrafficMix::ericsson_city(), 2, 2.0),
        ("all-dense", TrafficMix::short_drx(), 20, 1.0),
        ("all-CE2", all_ce2, 20, 20.0),
    ] {
        let scenario = Scenario {
            mix,
            devices: vec![n],
            runs: 3,
            mechanisms: MechanismKind::ALL.to_vec(),
            threads: 1,
            ..Scenario::default()
        };
        let cmp = &run_scenario(&scenario).unwrap().points[0].comparison;
        assert_finite(label, cmp);
        assert_eq!(cmp.mechanisms.len(), MechanismKind::ALL.len(), "{label}");
        for m in &cmp.mechanisms {
            // Unicast sends one transmission per device.
            let bound = if m.mechanism == MechanismKind::Unicast.to_string() {
                n as f64
            } else {
                max_transmissions
            };
            assert!(
                m.transmissions.max <= bound,
                "{label}: {} used {} transmissions",
                m.mechanism,
                m.transmissions.max
            );
        }
        if label == "all-CE2" {
            // Every transmission is priced at CE2, whatever the plan.
            let ratio = cmp.mechanisms[0].airtime_vs_count_ratio.mean;
            assert!(ratio > 1.0, "CE2 airtime ratio {ratio}");
            for m in &cmp.mechanisms {
                assert_eq!(m.airtime_vs_count_ratio.mean, ratio, "{}", m.mechanism);
            }
        }
    }
    // Sparse devices on one PO timeline, and the empty fleet, through
    // `run_campaign` (a scenario point has at least one device).
    let empty = TrafficMix::ericsson_city()
        .generate(0, &mut StdRng::seed_from_u64(2))
        .unwrap();
    let empty = GroupingInput::from_population(&empty, GroupingParams::default()).unwrap();
    for input in [shared_timeline_input(), empty] {
        let label = format!("{} devices", input.len());
        for kind in MechanismKind::ALL {
            let result = run_campaign(
                kind.instantiate().as_ref(),
                &input,
                &SimConfig::default(),
                &mut StdRng::seed_from_u64(2),
            )
            .unwrap();
            assert_finite(&format!("{label}, {kind}"), &result);
            assert_eq!(result.device_count(), input.len(), "{label}, {kind}");
            if input.is_empty() {
                assert_eq!(result.transmission_count, 0, "{kind}");
                for category in TrafficCategory::ALL {
                    let airtime = result.bandwidth.airtime(category);
                    assert_eq!(airtime, SimDuration::ZERO, "{kind}: {category:?}");
                }
                assert_eq!(result.mean_wait, SimDuration::ZERO, "{kind}");
                assert_eq!(result.mean_light_sleep_ms(), 0.0, "{kind}");
                assert_eq!(result.mean_connected_ms(), 0.0, "{kind}");
                assert_eq!(
                    result.mean_energy_mj(&PowerProfile::default()),
                    0.0,
                    "{kind}"
                );
                assert_eq!((result.late_joins, result.ra_failures), (0, 0), "{kind}");
            }
        }
    }
}

#[test]
fn instance_planners_serve_identical_timelines_with_one_window() {
    let input = shared_timeline_input();
    let timeline = input.po_timeline();
    assert_eq!(timeline.sparse_classes(), 1);
    assert_eq!(timeline.members(0), &[0, 1, 2, 3, 4]);
    assert_eq!(timeline.dense_devices(), &[5]);
    let instance = AnchorInstance::new(input.params().ti.duration(), timeline);
    assert_eq!(instance.anchors().len(), 2);
    assert_eq!(instance.window_count(), 1);
    assert_eq!(instance.window(0), &[0, 1, 2, 3, 4]);
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

/// The planners that read an input's shared DR-SC planning state (the
/// count cover and the anchor instance), tabu at three budgets: budget 0
/// delegates to DR-SC.
const DR_SC_FAMILY: [MechanismKind; 5] = [
    MechanismKind::DrSc,
    MechanismKind::DrScTabu(0),
    MechanismKind::DrScTabu(8),
    MechanismKind::DrScTabu(64),
    MechanismKind::DrScWeighted,
];

// The memos live in `OnceLock`s, so an input stays shareable across
// threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroupingInput>();
};

/// Plans family member `i` with an RNG fixed per member, so its plan
/// cannot depend on which members ran before it.
fn plan_member(i: usize, input: &GroupingInput, seed: u64) -> MulticastPlan {
    DR_SC_FAMILY[i]
        .instantiate()
        .plan(input, &mut StdRng::seed_from_u64(seed ^ i as u64))
        .unwrap()
}

/// The `k`-th permutation of `0..n` in lexicographic order (`k < n!`).
fn nth_permutation(mut k: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    for left in (1..=n).rev() {
        let block: usize = (1..left).product();
        order.push(pool.remove(k / block));
        k %= block;
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn planning_order_never_changes_a_dr_sc_family_plan(
        mix in prop_oneof![
            Just(TrafficMix::ericsson_city()),
            Just(TrafficMix::heterogeneous_coverage()),
            Just(TrafficMix::short_drx()),
            Just(TrafficMix::massive_metering()),
            Just(TrafficMix::bursty_alarm()),
        ],
        n in 1usize..=120,
        seed in 0u64..1_000,
        order in 0usize..120,
    ) {
        // One shared input planned in the drawn order (one of the 5!
        // orders) against a fresh input per plan: a memo that one member
        // fills or edits must never show in another member's plan.
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let fresh = || GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let shared = fresh();
        let mut on_shared: Vec<Option<MulticastPlan>> = vec![None; DR_SC_FAMILY.len()];
        for i in nth_permutation(order, DR_SC_FAMILY.len()) {
            on_shared[i] = Some(plan_member(i, &shared, seed));
        }
        for (i, plan) in on_shared.iter().enumerate() {
            let alone = plan_member(i, &fresh(), seed);
            prop_assert_eq!(
                plan.as_ref(),
                Some(&alone),
                "{} in order {order} on {} devices of {}",
                DR_SC_FAMILY[i],
                n,
                mix.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn class_count_cover_is_the_per_device_cover_on_real_fleets(
        mix in prop_oneof![
            Just(TrafficMix::ericsson_city()),
            Just(TrafficMix::heterogeneous_coverage()),
            Just(TrafficMix::short_drx()),
            Just(TrafficMix::massive_metering()),
            Just(TrafficMix::bursty_alarm()),
        ],
        n in 1usize..=120,
        seed in 0u64..1_000,
    ) {
        // The input's count cover runs on its schedule classes; the
        // oracle covers every device on its own `pos_in` list.
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let ti = input.params().ti.duration();
        let horizon = input.search_horizon();
        let dense: Vec<bool> = input.schedules().iter().map(|s| s.period() <= ti).collect();
        let events: Vec<Vec<SimInstant>> = input
            .schedules()
            .iter()
            .zip(&dense)
            .map(|(s, &d)| if d { Vec::new() } else { s.pos_in(horizon) })
            .collect();
        let oracle = reference::window_cover_solve(ti, horizon.start(), &events, &dense);
        let solver = WindowCover::new(ti);
        let timeline = input.po_timeline();
        prop_assert_eq!(solver.solve(horizon.start(), timeline), oracle.clone());
        prop_assert_eq!(solver.solve_incremental(horizon.start(), timeline), oracle.clone());
        prop_assert_eq!(solver.solve_sweep(horizon.start(), timeline), oracle.clone());
        // DR-SC plans from the memoized count cover: one transmission per
        // oracle slot.
        let plan = DrSc::new().plan(&input, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(plan.transmission_count(), oracle.unwrap().len());
    }
}

#[test]
fn concurrent_planners_on_one_input_match_serial_plans() {
    // Two threads plan the family on one shared input in opposite orders,
    // released together by a barrier, so both race to fill the
    // count-cover and anchor-instance memos.
    let pop = TrafficMix::heterogeneous_coverage()
        .generate(150, &mut StdRng::seed_from_u64(17))
        .unwrap();
    let input = || GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
    let serial: Vec<MulticastPlan> = {
        let own = input();
        (0..DR_SC_FAMILY.len())
            .map(|i| plan_member(i, &own, 17))
            .collect()
    };
    let shared = input();
    let start = std::sync::Barrier::new(2);
    let (forward, backward) = std::thread::scope(|s| {
        let forward = s.spawn(|| {
            start.wait();
            (0..DR_SC_FAMILY.len())
                .map(|i| plan_member(i, &shared, 17))
                .collect::<Vec<_>>()
        });
        let backward = s.spawn(|| {
            start.wait();
            let mut plans: Vec<MulticastPlan> = (0..DR_SC_FAMILY.len())
                .rev()
                .map(|i| plan_member(i, &shared, 17))
                .collect();
            plans.reverse();
            plans
        });
        (forward.join().unwrap(), backward.join().unwrap())
    });
    assert_eq!(forward, serial);
    assert_eq!(backward, serial);
}
