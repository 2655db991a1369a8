//! Cross-crate end-to-end tests: population → grouping plan → event-driven
//! simulation → metrics, for every mechanism.

use nbiot_multicast::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn city_input(n: usize, seed: u64) -> GroupingInput {
    let pop = TrafficMix::ericsson_city()
        .generate(n, &mut StdRng::seed_from_u64(seed))
        .expect("population");
    GroupingInput::from_population(&pop, GroupingParams::default()).expect("input")
}

#[test]
fn class_filtered_campaign_runs_end_to_end() {
    // The realistic firmware-update group: one device model only. Device
    // ids inside the sub-population are non-contiguous, exercising the
    // id-to-position mapping through planning and simulation.
    let pop = TrafficMix::ericsson_city()
        .generate(300, &mut StdRng::seed_from_u64(99))
        .unwrap();
    let meters = pop.filter_by_class("electricity-meter");
    assert!(!meters.is_empty());
    assert!(meters.iter().any(|d| d.id.index() >= meters.len()));
    let input = GroupingInput::from_population(&meters, GroupingParams::default()).unwrap();
    for kind in MechanismKind::ALL {
        let mut rng = StdRng::seed_from_u64(7);
        let result = run_campaign(
            kind.instantiate().as_ref(),
            &input,
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(result.device_count(), meters.len(), "{kind}");
        let transfer = result.transfer.duration;
        assert!(
            result
                .ledgers
                .iter()
                .all(|l| l.time_in(PowerState::ConnectedReceiving) >= transfer
                    || kind == MechanismKind::ScPtm),
            "{kind}"
        );
    }
}

#[test]
fn every_mechanism_serves_every_device_exactly_once() {
    let input = city_input(150, 1);
    for kind in MechanismKind::ALL {
        let mut rng = StdRng::seed_from_u64(10);
        let plan = kind
            .instantiate()
            .plan(&input, &mut rng)
            .expect("plan computes");
        plan.validate(&input).expect("plan validates");
        let served: usize = plan.transmissions.iter().map(|t| t.recipients.len()).sum();
        assert_eq!(served, 150, "{kind}");
    }
}

#[test]
fn single_transmission_mechanisms_are_single() {
    let input = city_input(100, 2);
    let mut rng = StdRng::seed_from_u64(11);
    for kind in [
        MechanismKind::DaSc,
        MechanismKind::DrSi,
        MechanismKind::ScPtm,
    ] {
        let plan = kind.instantiate().plan(&input, &mut rng).unwrap();
        assert_eq!(plan.transmission_count(), 1, "{kind}");
    }
}

#[test]
fn campaigns_are_deterministic_per_seed() {
    let input = city_input(60, 3);
    let config = SimConfig::default();
    for kind in MechanismKind::ALL {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            run_campaign(kind.instantiate().as_ref(), &input, &config, &mut rng).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.ledgers, b.ledgers, "{kind} not reproducible");
        let c = run(8);
        // Different seeds change RA draws (and DR-SI wakes) but never the
        // transmission count of deterministic planners.
        if kind != MechanismKind::DrSi {
            assert_eq!(a.transmission_count, c.transmission_count, "{kind}");
        }
    }
}

#[test]
fn dr_sc_needs_more_transmissions_as_group_grows() {
    let config = SimConfig::default();
    let mut counts = Vec::new();
    for n in [50usize, 200, 400] {
        let input = city_input(n, 4);
        let mut rng = StdRng::seed_from_u64(12);
        let res = run_campaign(&DrSc::new(), &input, &config, &mut rng).unwrap();
        counts.push(res.transmission_count);
    }
    assert!(counts[0] < counts[1] && counts[1] < counts[2], "{counts:?}");
}

#[test]
fn unicast_is_the_energy_floor_for_connected_uptime() {
    let input = city_input(120, 5);
    let config = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(13);
    let unicast = run_campaign(&Unicast::new(), &input, &config, &mut rng).unwrap();
    for kind in [
        MechanismKind::DrSc,
        MechanismKind::DaSc,
        MechanismKind::DrSi,
    ] {
        let res = run_campaign(kind.instantiate().as_ref(), &input, &config, &mut rng).unwrap();
        assert!(
            res.mean_connected_ms() >= unicast.mean_connected_ms(),
            "{kind} beat the unicast floor"
        );
    }
}

#[test]
fn late_joins_stay_rare_with_default_guard() {
    let input = city_input(300, 6);
    let config = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(14);
    for kind in [
        MechanismKind::DrSc,
        MechanismKind::DaSc,
        MechanismKind::DrSi,
    ] {
        let res = run_campaign(kind.instantiate().as_ref(), &input, &config, &mut rng).unwrap();
        let frac = res.late_joins as f64 / 300.0;
        assert!(frac < 0.05, "{kind}: {} late joins", res.late_joins);
    }
}

#[test]
fn bandwidth_ledger_accounts_all_traffic_kinds() {
    let input = city_input(80, 7);
    let config = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(15);

    let dr_sc = run_campaign(&DrSc::new(), &input, &config, &mut rng).unwrap();
    assert!(!dr_sc.bandwidth.airtime(TrafficCategory::Paging).is_zero());
    assert!(!dr_sc
        .bandwidth
        .airtime(TrafficCategory::MulticastData)
        .is_zero());

    let da_sc = run_campaign(&DaSc::new(), &input, &config, &mut rng).unwrap();
    assert!(!da_sc
        .bandwidth
        .airtime(TrafficCategory::RrcSignalling)
        .is_zero());

    let unicast = run_campaign(&Unicast::new(), &input, &config, &mut rng).unwrap();
    assert!(!unicast
        .bandwidth
        .airtime(TrafficCategory::UnicastData)
        .is_zero());
    assert!(unicast
        .bandwidth
        .airtime(TrafficCategory::MulticastData)
        .is_zero());

    let scptm = run_campaign(&ScPtm::new(), &input, &config, &mut rng).unwrap();
    assert!(!scptm
        .bandwidth
        .airtime(TrafficCategory::ScPtmControl)
        .is_zero());
}

#[test]
fn multicast_data_airtime_beats_unicast_for_single_tx_mechanisms() {
    let input = city_input(100, 8);
    let config = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(16);
    let unicast = run_campaign(&Unicast::new(), &input, &config, &mut rng).unwrap();
    let da_sc = run_campaign(&DaSc::new(), &input, &config, &mut rng).unwrap();
    assert_eq!(
        unicast.data_airtime().as_ms(),
        da_sc.data_airtime().as_ms() * 100,
        "unicast sends the payload once per device"
    );
}

#[test]
fn experiment_smoke_matches_figure_shapes() {
    // A miniature of all three figures in one cheap experiment.
    let scenario = Scenario {
        devices: vec![60],
        runs: 4,
        mechanisms: MechanismKind::PAPER_MECHANISMS.to_vec(),
        threads: 1,
        ..Scenario::default()
    };
    let cmp = &run_scenario(&scenario).unwrap().points[0].comparison;

    // Fig. 6(a): DR-SC zero, DR-SI negligible, DA-SC larger.
    let ls = |name: &str| cmp.mechanism(name).unwrap().rel_light_sleep.mean;
    assert!(ls("DR-SC").abs() < 1e-12);
    assert!(ls("DR-SI") > 0.0 && ls("DR-SI") < 0.01);
    assert!(ls("DA-SC") > ls("DR-SI"));

    // Fig. 6(b): all above unicast; DA-SC above DR-SI.
    let conn = |name: &str| cmp.mechanism(name).unwrap().rel_connected.mean;
    assert!(conn("DR-SC") > 0.0);
    assert!(conn("DA-SC") > conn("DR-SI"));

    // Fig. 7 proxy: DR-SC transmissions land between 1 and N.
    let tx = cmp.mechanism("DR-SC").unwrap().transmissions.mean;
    assert!(tx > 1.0 && tx < 60.0, "tx {tx}");
}

#[test]
fn payload_growth_shrinks_relative_connected_overhead() {
    // The Fig. 6(b) trend across payload sizes.
    let scenario = Scenario {
        devices: vec![50],
        payloads: vec![DataSize::from_kb(100), DataSize::from_mb(1)],
        runs: 3,
        mechanisms: vec![MechanismKind::DaSc],
        threads: 1,
        ..Scenario::default()
    };
    let means: Vec<f64> = run_scenario(&scenario)
        .unwrap()
        .points
        .iter()
        .map(|p| p.comparison.mechanism("DA-SC").unwrap().rel_connected.mean)
        .collect();
    assert!(
        means[1] < means[0] / 5.0,
        "overhead should shrink ~10x from 100kB to 1MB: {means:?}"
    );
}
