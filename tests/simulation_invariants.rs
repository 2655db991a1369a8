//! Property-based tests on the *executed* campaigns: invariants that must
//! hold for the measured ledgers of every mechanism, across random
//! populations and seeds.

use nbiot_multicast::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_mix() -> impl Strategy<Value = TrafficMix> {
    prop_oneof![
        Just(TrafficMix::ericsson_city()),
        Just(TrafficMix::short_drx()),
        prop_oneof![Just(EdrxCycle::Hf8), Just(EdrxCycle::Hf256)]
            .prop_map(|c| TrafficMix::uniform(PagingCycle::edrx(c))),
    ]
}

fn campaign(
    mix: &TrafficMix,
    kind: MechanismKind,
    n: usize,
    seed: u64,
) -> (GroupingInput, CampaignResult) {
    let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
    let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let result = run_campaign(
        kind.instantiate().as_ref(),
        &input,
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    (input, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_device_receives_for_at_least_the_transfer_duration(
        mix in arb_mix(),
        kind in proptest::sample::select(MechanismKind::ALL.to_vec()),
        n in 2usize..40,
        seed in 0u64..300,
    ) {
        let (_, result) = campaign(&mix, kind, n, seed);
        let transfer = result.transfer.duration;
        for ledger in &result.ledgers {
            prop_assert!(
                ledger.time_in(PowerState::ConnectedReceiving) >= transfer,
                "{kind}: device received for less than the payload airtime"
            );
        }
    }

    #[test]
    fn dr_sc_light_sleep_is_bit_identical_to_unicast(
        mix in arb_mix(),
        n in 2usize..40,
        seed in 0u64..300,
    ) {
        let (_, unicast) = campaign(&mix, MechanismKind::Unicast, n, seed);
        let (_, dr_sc) = campaign(&mix, MechanismKind::DrSc, n, seed);
        for (a, b) in dr_sc.ledgers.iter().zip(&unicast.ledgers) {
            prop_assert_eq!(a.light_sleep(), b.light_sleep());
            prop_assert_eq!(a.pos_monitored, b.pos_monitored);
            prop_assert_eq!(a.pagings_received, b.pagings_received);
        }
    }

    #[test]
    fn paging_and_ra_counts_per_mechanism(
        mix in arb_mix(),
        n in 2usize..40,
        seed in 0u64..300,
    ) {
        // Unicast and DR-SC: exactly one page, one RA per device.
        for kind in [MechanismKind::Unicast, MechanismKind::DrSc] {
            let (_, res) = campaign(&mix, kind, n, seed);
            for l in &res.ledgers {
                prop_assert_eq!(l.pagings_received, 1, "{}", kind);
                prop_assert_eq!(l.random_accesses, 1, "{}", kind);
            }
        }
        // DR-SI: one page (ordinary or extended), one RA.
        let (_, dr_si) = campaign(&mix, MechanismKind::DrSi, n, seed);
        for l in &dr_si.ledgers {
            prop_assert_eq!(l.pagings_received, 1);
            prop_assert_eq!(l.random_accesses, 1);
        }
        // DA-SC: adapted devices get two pages and two RAs, others one.
        let (_, da_sc) = campaign(&mix, MechanismKind::DaSc, n, seed);
        for l in &da_sc.ledgers {
            prop_assert!(l.pagings_received == 1 || l.pagings_received == 2);
            prop_assert_eq!(l.random_accesses, l.pagings_received);
        }
        // SC-PTM: no paging, no RA at all.
        let (_, scptm) = campaign(&mix, MechanismKind::ScPtm, n, seed);
        for l in &scptm.ledgers {
            prop_assert_eq!(l.pagings_received, 0);
            prop_assert_eq!(l.random_accesses, 0);
        }
    }

    #[test]
    fn multicast_airtime_is_transmissions_times_transfer(
        mix in arb_mix(),
        kind in proptest::sample::select(vec![
            MechanismKind::DrSc,
            MechanismKind::DaSc,
            MechanismKind::DrSi,
        ]),
        n in 2usize..40,
        seed in 0u64..300,
    ) {
        let (_, res) = campaign(&mix, kind, n, seed);
        let recorded = res.bandwidth.airtime(TrafficCategory::MulticastData)
            + res.bandwidth.airtime(TrafficCategory::UnicastData);
        prop_assert_eq!(
            recorded.as_ms(),
            res.transfer.duration.as_ms() * res.transmission_count as u64
        );
    }

    #[test]
    fn horizon_is_common_across_mechanisms(
        mix in arb_mix(),
        n in 2usize..30,
        seed in 0u64..300,
    ) {
        // The accounting horizon must not depend on the mechanism, or the
        // light-sleep comparison would be meaningless.
        let horizons: Vec<_> = MechanismKind::ALL
            .iter()
            .map(|&k| campaign(&mix, k, n, seed).1.horizon)
            .collect();
        for h in &horizons[1..] {
            prop_assert_eq!(*h, horizons[0]);
        }
    }

    #[test]
    fn analysis_estimate_is_finite_and_bounded(
        mix in arb_mix(),
        n in 2usize..80,
        seed in 0u64..300,
    ) {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let est = nbiot_multicast::grouping::analysis::estimate_dr_sc_transmissions(&input);
        prop_assert!(est.transmissions.is_finite());
        prop_assert!(est.transmissions >= 1.0);
        prop_assert!(est.transmissions <= n as f64 + 1.0);
        prop_assert_eq!(est.dense_devices + est.sparse_devices, n);
    }
}

/// Folds everything a campaign measures into one `u64`: every ledger,
/// every bandwidth category, the late-join and RA-failure counters, the
/// horizon, the transfer footprint, the mean wait and the next draw of
/// the campaign RNG (so the number of random-access draws is pinned too).
fn fingerprint(result: &CampaignResult, rng: &mut StdRng) -> u64 {
    let mut words = Vec::new();
    for ledger in &result.ledgers {
        words.extend(PowerState::ALL.map(|state| ledger.time_in(state).as_ms()));
        words.extend([
            ledger.pos_monitored,
            ledger.pagings_received,
            ledger.random_accesses,
        ]);
    }
    words.extend(TrafficCategory::ALL.map(|c| result.bandwidth.airtime(c).as_ms()));
    words.extend([
        result.late_joins,
        result.ra_failures,
        result.horizon.start().as_ms(),
        result.horizon.end().as_ms(),
        result.transfer.size.bits(),
        result.transfer.blocks,
        result.transfer.block_airtime.as_ms(),
        result.transfer.duration.as_ms(),
        result.mean_wait.as_ms(),
        rand::RngCore::next_u64(rng),
    ]);
    words
        .into_iter()
        .fold(0, |h, w| nbiot_multicast::des::splitmix64(h ^ w))
}

/// Whole campaigns of every mechanism, pinned bit for bit: a 200-device
/// ericsson-city fleet and a short-DRX fleet whose unicast plan puts
/// several transmissions on one instant (where the carrier's
/// serialization order matters), each under the default config and under
/// RACH contention plus channel serialization with a 1 MB payload.
#[test]
fn campaign_results_are_pinned() {
    let stressed = SimConfig {
        payload: DataSize::from_mb(1),
        ra_contenders: 50,
        serialize_channel: true,
        ..SimConfig::default()
    };
    let fleets = [
        ("ericsson-city", TrafficMix::ericsson_city(), 200, 2018),
        ("short-drx", TrafficMix::short_drx(), 120, 36),
    ];
    let mut actual = Vec::new();
    for (label, mix, n, seed) in fleets {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        if label == "short-drx" {
            let plan = Unicast::new()
                .plan(&input, &mut StdRng::seed_from_u64(0))
                .unwrap();
            assert!(
                plan.transmissions.windows(2).any(|w| w[0].at == w[1].at),
                "the short-drx unicast plan must share a transmission instant"
            );
        }
        for (config_label, config) in [("default", SimConfig::default()), ("stressed", stressed)] {
            for kind in MechanismKind::ALL {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11);
                let result =
                    run_campaign(kind.instantiate().as_ref(), &input, &config, &mut rng).unwrap();
                actual.push((
                    format!("{label}/{config_label}/{kind}"),
                    fingerprint(&result, &mut rng),
                ));
            }
        }
    }
    // One row per (fleet, config), in `MechanismKind::ALL` order; recorded
    // on the event-queue engine, which ran these campaigns before the
    // sorted-pass engine replaced it.
    let expected: [[u64; 7]; 4] = [
        [
            0x237a0a1a34e27499,
            0x74a9c4dda5852492,
            0x9001daa9a6f8c055,
            0xa29a69d5939ad0a4,
            0xb3f7c6b0ceb6dbd9,
            0x375024b61d4fd7d1,
            0x689d9da0f366bf74,
        ],
        [
            0x57ed010c46a6c809,
            0xb47178779d756935,
            0xce60b7da5eb1781f,
            0x4a5ef0c7e1c0f2d4,
            0x53477d1be67817c2,
            0x090315b7a41b8637,
            0xe0e712ef06e64a8a,
        ],
        [
            0x968d837341f75a12,
            0x968d837341f75a12,
            0x968d837341f75a12,
            0xd65cf221e4420aa8,
            0xd65cf221e4420aa8,
            0xdb217a461051c30c,
            0x71b2a3ee7442dcb2,
        ],
        [
            0xfe859bf554a35ea8,
            0xfe859bf554a35ea8,
            0xfe859bf554a35ea8,
            0xb1c5daf351ba48b1,
            0xb1c5daf351ba48b1,
            0x0289fcff9e32d96a,
            0x90092c6ac44e6eb6,
        ],
    ];
    let actual_pins: Vec<u64> = actual.iter().map(|&(_, pin)| pin).collect();
    assert_eq!(actual_pins, expected.concat(), "{actual:#x?}");
}
