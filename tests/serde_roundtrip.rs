//! Serialization round-trips for the public data types (the `serde`
//! feature is on by default): configs and results must survive
//! JSON encoding, so experiments can be archived and replayed.

use nbiot_multicast::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn timing_types_roundtrip() {
    let t = SimInstant::from_ms(123_456);
    assert_eq!(roundtrip(&t), t);
    let d = SimDuration::from_secs(20);
    assert_eq!(roundtrip(&d), d);
    let w = TimeWindow::new(SimInstant::from_ms(10), SimInstant::from_ms(99));
    assert_eq!(roundtrip(&w), w);
    for cycle in [
        PagingCycle::Drx(DrxCycle::Rf64),
        PagingCycle::edrx(EdrxCycle::Hf256),
    ] {
        assert_eq!(roundtrip(&cycle), cycle);
    }
}

#[test]
fn paging_config_roundtrips() {
    let cfg = PagingConfig::edrx(EdrxCycle::Hf128);
    assert_eq!(roundtrip(&cfg), cfg);
    let ue = UeId(987);
    assert_eq!(roundtrip(&ue), ue);
}

#[test]
fn population_roundtrips() {
    let pop = TrafficMix::ericsson_city()
        .generate(25, &mut StdRng::seed_from_u64(1))
        .unwrap();
    let back: Population = roundtrip(&pop);
    assert_eq!(back, pop);
}

#[test]
fn traffic_mix_roundtrips() {
    let mix = TrafficMix::ericsson_city();
    let back: TrafficMix = roundtrip(&mix);
    assert_eq!(back, mix);
}

#[test]
fn multicast_plan_roundtrips() {
    let pop = TrafficMix::ericsson_city()
        .generate(20, &mut StdRng::seed_from_u64(2))
        .unwrap();
    let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for kind in MechanismKind::ALL {
        let plan = kind.instantiate().plan(&input, &mut rng).unwrap();
        let back: MulticastPlan = roundtrip(&plan);
        assert_eq!(back, plan, "{kind}");
        // The deserialized plan still validates.
        back.validate(&input).unwrap();
    }
}

#[test]
fn sim_and_grouping_configs_roundtrip() {
    let sim = SimConfig::default();
    let back: SimConfig = roundtrip(&sim);
    assert_eq!(back, sim);
    let params = GroupingParams::default();
    assert_eq!(roundtrip(&params), params);
}

#[test]
fn ledgers_and_metrics_roundtrip() {
    let mut ledger = UptimeLedger::new();
    ledger.accumulate(PowerState::LightSleep, SimDuration::from_ms(42));
    ledger.pos_monitored = 7;
    assert_eq!(roundtrip(&ledger), ledger);
    let rel = RelativeUptime {
        light_sleep: 0.1,
        connected: 0.2,
    };
    let back = roundtrip(&rel);
    assert_eq!(back.light_sleep, rel.light_sleep);
    assert_eq!(back.connected, rel.connected);
}

#[test]
fn scenarios_roundtrip() {
    // Every built-in scenario — including the new clustered, bursty-alarm
    // and large-N families — must survive JSON archival exactly, so
    // experiments can be replayed from their scenario files alone.
    for name in Scenario::REGISTRY {
        let scenario = Scenario::builtin(name).expect("registered scenario");
        let back: Scenario = roundtrip(&scenario);
        assert_eq!(back, scenario, "{name}");
    }
}

#[test]
fn scenario_results_roundtrip() {
    let mut scenario = Scenario::builtin("fig6b").expect("registered scenario");
    scenario.devices = vec![12];
    scenario.runs = 2;
    scenario.threads = 1;
    let result = run_scenario(&scenario).unwrap();
    let back: ScenarioResult = roundtrip(&result);
    assert_eq!(back, result);
    assert_eq!(back.mix, "ericsson-city");
    assert_eq!(back.points.len(), 3);
}

#[test]
fn comparison_results_serialize_for_archival() {
    let scenario = Scenario {
        devices: vec![15],
        runs: 2,
        mechanisms: vec![MechanismKind::DrSi],
        threads: 1,
        ..Scenario::default()
    };
    let cmp = &run_scenario(&scenario).unwrap().points[0].comparison;
    // One-way: results only need to be archivable (Summary is plain data).
    let json = serde_json::to_string_pretty(&cmp).expect("serialize");
    assert!(json.contains("DR-SI"));
    let back: ComparisonResult = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.n_devices, 15);
    assert_eq!(
        back.mechanism("DR-SI").unwrap().transmissions.mean,
        cmp.mechanism("DR-SI").unwrap().transmissions.mean
    );
}
