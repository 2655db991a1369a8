//! The churn subsystem must be strictly additive: declaring churn with
//! all rates zero — under *any* re-grouping policy — produces summaries
//! bit-identical to the static engine, and a static scenario's classic
//! metrics are untouched by churned execution (only the new
//! `regroup_count` / `stale_miss_ratio` summaries ever move). The churn
//! fields of one churned item are pinned per policy.

use nbiot_multicast::prelude::*;

fn static_scenario() -> Scenario {
    let mut s = Scenario::builtin("fig6b").expect("registered");
    s.devices = vec![15, 30];
    s.runs = 3;
    s.threads = 1;
    s
}

fn zero_churn() -> ChurnModel {
    ChurnModel {
        epochs: 5,
        departure_rate: 0.0,
        arrival_rate: 0.0,
        handover_rate: 0.0,
    }
}

#[test]
fn zero_churn_is_bit_identical_to_static_for_every_policy() {
    // The regression guard the new code path must never break: churn
    // with zero rates takes the churned code path (epochs are declared)
    // but can never observe an event, so every summary — classic and
    // churn-specific — must equal the static engine's bit for bit.
    let baseline = run_scenario(&static_scenario()).unwrap();
    for policy in [
        RegroupPolicy::Never,
        RegroupPolicy::EveryEpoch,
        RegroupPolicy::StalenessThreshold(0.0),
        RegroupPolicy::StalenessThreshold(0.5),
    ] {
        let mut churned = static_scenario();
        churned.churn = Some(zero_churn());
        churned.regroup = policy;
        assert_eq!(run_scenario(&churned).unwrap(), baseline, "{policy:?}");
    }
}

#[test]
fn zero_epochs_are_equivalent_to_no_churn() {
    let baseline = run_scenario(&static_scenario()).unwrap();
    let mut churned = static_scenario();
    churned.churn = Some(ChurnModel {
        epochs: 0,
        departure_rate: 0.5,
        arrival_rate: 0.5,
        handover_rate: 0.5,
    });
    churned.regroup = RegroupPolicy::EveryEpoch;
    assert_eq!(run_scenario(&churned).unwrap(), baseline);
}

#[test]
fn static_summaries_report_zero_churn_metrics() {
    let result = run_scenario(&static_scenario()).unwrap();
    for m in result.points.iter().flat_map(|p| &p.comparison.mechanisms) {
        assert_eq!(m.regroup_count.mean, 0.0, "{}", m.mechanism);
        assert_eq!(m.stale_miss_ratio.mean, 0.0, "{}", m.mechanism);
    }
}

#[test]
fn churn_leaves_classic_metrics_untouched() {
    // Churn epochs happen *after* the epoch-0 delivery the classic
    // metrics measure, so switching churn on moves only the two new
    // summaries; light-sleep, connected, transmissions etc. stay
    // bit-identical to the static run of the same seed. The second model
    // empties the fleet at the first boundary, so its repairs and
    // re-plans run on an empty group.
    let baseline = run_scenario(&static_scenario()).unwrap();
    for (model, policy) in [
        (
            ChurnModel {
                epochs: 4,
                departure_rate: 0.1,
                arrival_rate: 0.1,
                handover_rate: 0.2,
            },
            RegroupPolicy::StalenessThreshold(0.3),
        ),
        (
            ChurnModel {
                epochs: 4,
                departure_rate: 1.0,
                arrival_rate: 0.0,
                handover_rate: 0.0,
            },
            RegroupPolicy::Repair,
        ),
    ] {
        let mut churned = static_scenario();
        churned.churn = Some(model);
        churned.regroup = policy;
        let with_churn = run_scenario(&churned).unwrap();
        let mut saw_churn_motion = false;
        for (a, b) in baseline.points.iter().zip(&with_churn.points) {
            for (ma, mb) in a.comparison.mechanisms.iter().zip(&b.comparison.mechanisms) {
                assert_eq!(ma.rel_light_sleep, mb.rel_light_sleep, "{}", ma.mechanism);
                assert_eq!(ma.rel_connected, mb.rel_connected, "{}", ma.mechanism);
                assert_eq!(ma.transmissions, mb.transmissions, "{}", ma.mechanism);
                assert_eq!(ma.mean_wait_s, mb.mean_wait_s, "{}", ma.mechanism);
                assert_eq!(ma.mean_energy_mj, mb.mean_energy_mj, "{}", ma.mechanism);
                assert_eq!(ma.ra_failures, mb.ra_failures, "{}", ma.mechanism);
                saw_churn_motion |= mb.regroup_count.mean > 0.0 || mb.stale_miss_ratio.mean > 0.0;
            }
        }
        assert!(
            saw_churn_motion,
            "{model:?}: the churned run must register churn"
        );
    }
}

#[test]
fn never_policy_misses_more_as_churn_grows() {
    // Sanity on the metric's direction: a stale plan misses more of a
    // faster-churning fleet.
    let miss_ratio_at = |handover_rate: f64| {
        let mut s = static_scenario();
        s.devices = vec![40];
        s.churn = Some(ChurnModel {
            epochs: 4,
            departure_rate: 0.0,
            arrival_rate: 0.0,
            handover_rate,
        });
        s.regroup = RegroupPolicy::Never;
        let result = run_scenario(&s).unwrap();
        result.points[0].comparison.mechanisms[0]
            .stale_miss_ratio
            .mean
    };
    let slow = miss_ratio_at(0.05);
    let fast = miss_ratio_at(0.4);
    assert!(slow > 0.0, "even slow churn leaves stale devices: {slow}");
    assert!(fast > slow, "faster churn must miss more: {fast} vs {slow}");
}

#[test]
fn invalid_churn_configs_are_rejected_at_validation() {
    let mut s = static_scenario();
    s.churn = Some(ChurnModel {
        epochs: 3,
        departure_rate: 1.5,
        arrival_rate: 0.0,
        handover_rate: 0.0,
    });
    assert!(matches!(
        run_scenario(&s),
        Err(SimError::Traffic(
            nbiot_multicast::traffic::TrafficError::InvalidChurnRate { .. }
        ))
    ));
    let mut s2 = static_scenario();
    s2.churn = Some(zero_churn());
    s2.regroup = RegroupPolicy::StalenessThreshold(-0.5);
    assert!(matches!(
        run_scenario(&s2),
        Err(SimError::InvalidRegroupThreshold { .. })
    ));
    // A bad threshold is rejected even while churn is absent — it must
    // not ride dormant into serialized scenarios and archives.
    let mut s3 = static_scenario();
    s3.churn = None;
    s3.regroup = RegroupPolicy::StalenessThreshold(f64::NAN);
    assert!(matches!(
        run_scenario(&s3),
        Err(SimError::InvalidRegroupThreshold { .. })
    ));
}

#[test]
fn churn_scenarios_roundtrip_through_serde() {
    // The churn configuration is part of the scenario contract: both new
    // registry families survive JSON exactly, churn model and policy
    // included.
    for name in ["mobility-churn", "handover-storm"] {
        let s = Scenario::builtin(name).expect("registered");
        assert!(s.churn.is_some(), "{name} declares churn");
        let text = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&text).expect("deserializable");
        assert_eq!(back, s, "{name}");
    }
}

/// The churn fields of one reduced churn-repair item (DR-SC,
/// DR-SC-tabu(64), DA-SC; 60 devices; run 1 of 2) under `policy`, per
/// mechanism: `[regroups, stale_miss_ratio, cover_cost_initial,
/// cover_cost_final, improve_moves, improve_budget]`.
fn churned_item(policy: RegroupPolicy) -> Vec<[f64; 6]> {
    let mut s = Scenario::builtin("churn-repair").expect("registered");
    s.devices = vec![60];
    s.runs = 2;
    s.threads = 1;
    s.regroup = policy;
    let archive = nbiot_multicast::sim::run_scenario_shard(
        &s,
        nbiot_multicast::sim::ShardSpec { index: 1, count: 2 },
    )
    .expect("churned shard");
    assert_eq!(archive.items.len(), 1, "one item per shard");
    let rows = &archive.items[0].rows;
    // Churn fields are payload-independent, like the plans they count.
    assert!(rows.iter().all(|payload| payload == &rows[0]));
    rows[0]
        .iter()
        .map(|r| {
            [
                r.regroups,
                r.stale_miss_ratio,
                r.cover_cost_initial,
                r.cover_cost_final,
                r.improve_moves,
                r.improve_budget,
            ]
        })
        .collect()
}

#[test]
fn churned_item_records_are_pinned() {
    // How often each policy regroups, how many device-epochs it misses
    // (353 post-epoch-0 device-epochs in this item) and what the regroup
    // plans cost: a serve step that moves any decision, miss or plan
    // fails here. DR-SC carries no improvement record except under
    // repair; DA-SC never repairs (the full re-plan fallback).
    let never = 127.0 / 353.0;
    let threshold = 24.0 / 353.0;
    let pins: [(RegroupPolicy, [[f64; 6]; 3]); 4] = [
        (
            RegroupPolicy::Never,
            [
                [0.0, never, 0.0, 0.0, 0.0, 0.0],
                [0.0, never, 15.0, 15.0, 64.0, 64.0],
                [0.0, never, 0.0, 0.0, 0.0, 0.0],
            ],
        ),
        (
            RegroupPolicy::EveryEpoch,
            [
                [6.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [6.0, 0.0, 99.0, 96.0, 395.0, 448.0],
                [6.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
        ),
        (
            RegroupPolicy::StalenessThreshold(0.15),
            [
                [3.0, threshold, 0.0, 0.0, 0.0, 0.0],
                [3.0, threshold, 56.0, 54.0, 240.0, 256.0],
                [3.0, threshold, 0.0, 0.0, 0.0, 0.0],
            ],
        ),
        (
            RegroupPolicy::Repair,
            [
                [6.0, 0.0, 108.0, 113.0, 34.0, 13.0],
                [6.0, 0.0, 128.0, 134.0, 98.0, 77.0],
                [6.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
        ),
    ];
    for (policy, expected) in pins {
        assert_eq!(churned_item(policy), expected, "{policy:?}");
    }
}
