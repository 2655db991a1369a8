//! Replay-equivalence contract of the event-driven grouping service:
//!
//! * after **any** event prefix, the service's incrementally maintained
//!   fleet is bit-identical to a fresh batch `Population` built from the
//!   surviving devices;
//! * snapshot → restore → continue reproduces an uninterrupted run byte
//!   for byte, from **every** cut point;
//! * an empty fleet is an ordinary state: it serves plans with no
//!   transmission and snapshots like any other.
//!
//! Event logs are both synthesized from the churn process and generated
//! arbitrarily (random interleavings of registers, departures, handovers
//! and campaign requests, registering fresh ids in shuffled order), so
//! the equivalence is not an artifact of `ChurnModel`'s event ordering
//! or of an id-sorted fleet.

use nbiot_multicast::prelude::*;
use nbiot_multicast::service::{Applied, ServiceSnapshot};
use nbiot_multicast::traffic::FleetEvent;
use proptest::prelude::*;
use rand::{Rng as _, SeedableRng as _};

fn config(policy: RegroupPolicy, seed: u64) -> ServiceConfig {
    ServiceConfig {
        policy,
        seed,
        ..ServiceConfig::default()
    }
}

fn policy_from(index: u8) -> RegroupPolicy {
    match index % 4 {
        0 => RegroupPolicy::Never,
        1 => RegroupPolicy::EveryEpoch,
        2 => RegroupPolicy::StalenessThreshold(0.3),
        _ => RegroupPolicy::Repair,
    }
}

fn synthesized(devices: usize, epochs: u32, seed: u64) -> EventLog {
    EventLog::synthesize(
        &TrafficMix::mobility_churn(),
        devices,
        &ChurnModel {
            epochs,
            departure_rate: 0.15,
            arrival_rate: 0.15,
            handover_rate: 0.25,
        },
        "dr-sc",
        seed,
    )
    .expect("synthesis succeeds")
}

/// An arbitrary (but always-valid) event log: devices register with
/// fresh ids in shuffled order, so the fleet is not id-sorted; departures
/// and handovers target live devices, and may empty the fleet; campaign
/// requests come whatever the fleet size, an empty fleet included. The
/// mix is only used to sample profiles.
fn arbitrary_log(steps: &[u8], seed: u64) -> EventLog {
    let mix = TrafficMix::mobility_churn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let template = mix.generate(1, &mut rng).expect("template population");
    let mut fresh_ids: Vec<u32> = (0..steps.len() as u32).collect();
    for i in (1..fresh_ids.len()).rev() {
        fresh_ids.swap(i, rng.gen_range(0..=i));
    }
    let mut fresh_ids = fresh_ids.into_iter();
    let mut live: Vec<DeviceProfile> = Vec::new();
    let mut epoch = 0u32;
    let mut records = Vec::new();
    for &step in steps {
        let event = match step % 8 {
            // Half the steps register, so fleets actually grow.
            0..=3 => {
                let id = fresh_ids.next().expect("one fresh id per step");
                let device = mix.sample_device(DeviceId(id), &mut rng).unwrap();
                live.push(device);
                ServiceEvent::Fleet(FleetEvent::Register(device))
            }
            4 => match live.len() {
                0 => continue,
                n => {
                    let victim = live.remove(rng.gen_range(0..n));
                    ServiceEvent::Fleet(FleetEvent::Depart(victim.id))
                }
            },
            5 => match live.len() {
                0 => continue,
                n => {
                    let target = &mut live[rng.gen_range(0..n)];
                    target.ue = UeId(rng.gen());
                    ServiceEvent::Fleet(FleetEvent::Handover {
                        device: target.id,
                        ue: target.ue,
                    })
                }
            },
            6 => {
                epoch += 1;
                ServiceEvent::CampaignRequest {
                    mechanism: "dr-sc".into(),
                }
            }
            _ => ServiceEvent::Snapshot,
        };
        records.push(EventRecord { epoch, event });
    }
    EventLog {
        mix_name: template.mix_name().to_string(),
        class_names: template.class_names().to_vec(),
        records,
    }
}

/// Applies a fleet event to a plain survivor vector, mirroring the
/// service's incremental state with the dumbest possible model.
fn mirror(survivors: &mut Vec<DeviceProfile>, event: &FleetEvent) {
    match *event {
        FleetEvent::Register(device) => survivors.push(device),
        FleetEvent::Depart(id) => survivors.retain(|d| d.id != id),
        FleetEvent::Handover { device, ue } => {
            survivors.iter_mut().find(|d| d.id == device).unwrap().ue = ue;
        }
    }
}

/// Replays `log` keeping a mirror of the surviving devices; at every
/// prefix, asserts the service fleet equals a batch rebuild from them,
/// and that a request on the fleet its cached plan was computed for finds
/// nothing stale.
fn assert_prefix_equivalence(log: &EventLog, cfg: ServiceConfig) {
    let mut service = GroupingService::new(cfg, log).expect("service");
    let mut survivors: Vec<DeviceProfile> = Vec::new();
    for record in &log.records {
        let unchanged = service.plan().is_some() && service.events_since_plan() == 0;
        if let Applied::Served(summary) = service.apply(record).expect("apply") {
            if unchanged {
                assert_eq!(summary.stale_fraction, 0.0, "unchanged fleet: {summary:?}");
            }
        }
        if let ServiceEvent::Fleet(event) = &record.event {
            mirror(&mut survivors, event);
        }
        let batch = Population::new(
            log.mix_name.clone(),
            log.class_names.clone(),
            survivors.clone(),
        );
        assert_eq!(
            service.fleet(),
            &batch,
            "incremental fleet diverged from batch rebuild at record {}",
            service.next_record()
        );
    }
}

/// Runs `log` straight through and interrupted at `cut`, comparing the
/// serve transcripts, the final state, and the final snapshot bytes.
fn assert_cut_equivalence(log: &EventLog, cfg: ServiceConfig, cut: usize) {
    let mut straight = GroupingService::new(cfg, log).expect("service");
    let all = straight.replay(log).expect("straight replay");

    let mut first = GroupingService::new(cfg, log).expect("service");
    let mut summaries = Vec::new();
    for record in &log.records[..cut] {
        if let Applied::Served(s) = first.apply(record).expect("apply") {
            summaries.push(s);
        }
    }
    let json = first.snapshot().to_json_pretty();
    let snapshot = ServiceSnapshot::from_json(&json).expect("snapshot parses");
    let mut resumed = GroupingService::restore(&snapshot).expect("restore");
    summaries.extend(resumed.replay(log).expect("resumed replay"));

    assert_eq!(summaries, all, "serve transcript diverged at cut {cut}");
    assert_eq!(resumed.fleet(), straight.fleet());
    assert_eq!(resumed.plan(), straight.plan());
    assert_eq!(
        resumed.snapshot().to_json_pretty(),
        straight.snapshot().to_json_pretty(),
        "final snapshots must be byte-identical (cut {cut})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesized_prefixes_match_batch_rebuilds(
        devices in 5usize..40,
        epochs in 1u32..5,
        seed in 0u64..500,
        policy_index in 0u8..4,
    ) {
        let log = synthesized(devices, epochs, seed);
        assert_prefix_equivalence(&log, config(policy_from(policy_index), seed));
    }

    #[test]
    fn arbitrary_logs_match_batch_rebuilds(
        steps in proptest::collection::vec(0u8..8, 4..80),
        seed in 0u64..500,
        policy_index in 0u8..4,
    ) {
        let log = arbitrary_log(&steps, seed);
        assert_prefix_equivalence(&log, config(policy_from(policy_index), seed));
    }

    #[test]
    fn served_plans_match_from_scratch_plans(
        devices in 5usize..30,
        epochs in 1u32..4,
        seed in 0u64..300,
    ) {
        // Under EveryEpoch every churned serve re-plans, so each served
        // plan must equal a from-scratch plan over a fresh batch rebuild
        // of the surviving fleet, drawn from that serve's seed stream.
        let log = synthesized(devices, epochs, seed);
        let cfg = config(RegroupPolicy::EveryEpoch, seed);
        let mut service = GroupingService::new(cfg, &log).expect("service");
        let mut survivors: Vec<DeviceProfile> = Vec::new();
        for record in &log.records {
            if let ServiceEvent::Fleet(event) = &record.event {
                mirror(&mut survivors, event);
            }
            if let Applied::Served(summary) = service.apply(record).expect("apply") {
                let batch = Population::new(
                    log.mix_name.clone(),
                    log.class_names.clone(),
                    survivors.clone(),
                );
                let input =
                    GroupingInput::from_population(&batch, cfg.params).expect("input");
                let mut rng = SeedSequence::new(cfg.seed).child(summary.serve).rng(0);
                let scratch = MechanismKind::DrSc
                    .instantiate()
                    .plan(&input, &mut rng)
                    .expect("scratch plan");
                prop_assert_eq!(service.plan().expect("cached plan"), &scratch);
            }
        }
    }

    #[test]
    fn snapshot_restore_continue_is_byte_identical(
        devices in 5usize..30,
        epochs in 1u32..4,
        seed in 0u64..300,
        policy_index in 0u8..4,
        cut_permille in 0u32..1000,
    ) {
        let log = synthesized(devices, epochs, seed);
        let cut = log.records.len() * cut_permille as usize / 1000;
        assert_cut_equivalence(&log, config(policy_from(policy_index), seed), cut);
    }

    #[test]
    fn arbitrary_log_snapshots_are_cut_invariant(
        steps in proptest::collection::vec(0u8..8, 8..60),
        seed in 0u64..300,
        cut_permille in 0u32..1000,
    ) {
        let log = arbitrary_log(&steps, seed);
        let cut = log.records.len() * cut_permille as usize / 1000;
        assert_cut_equivalence(&log, config(RegroupPolicy::Repair, seed), cut);
    }
}

#[test]
fn emptied_fleets_serve_no_transmission_and_snapshot_like_any_other() {
    // Every device departs at epoch 1 and none arrives: epochs 1..=3
    // request campaigns for an empty fleet.
    let log = EventLog::synthesize(
        &TrafficMix::mobility_churn(),
        5,
        &ChurnModel {
            epochs: 3,
            departure_rate: 1.0,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        },
        "dr-sc",
        7,
    )
    .expect("synthesis succeeds");
    let departures = log
        .records
        .iter()
        .filter(|r| matches!(r.event, ServiceEvent::Fleet(FleetEvent::Depart(_))))
        .count();
    assert_eq!(departures, 5, "a departure rate of 1 empties the fleet");
    // The epoch-1 campaign request comes after all five departures.
    let request = log
        .records
        .iter()
        .position(|r| r.epoch == 1 && matches!(r.event, ServiceEvent::CampaignRequest { .. }))
        .expect("an epoch-1 campaign request");
    for policy_index in 0..4 {
        let cfg = config(policy_from(policy_index), 7);
        let mut service = GroupingService::new(cfg, &log).expect("service");
        let serves = service.replay(&log).expect("replay");
        assert_eq!(serves.len(), 4, "{cfg:?}");
        assert!(serves[0].transmissions > 0, "{cfg:?}");
        // The epoch-0 plan reaches nobody in the emptied fleet: it is
        // wholly stale. Every policy but `never` re-plans it once and then
        // serves the empty plan, which nothing has outdated since; `never`
        // keeps serving the epoch-0 plan unchanged.
        let regroups = cfg.policy.regroups(1, 1.0);
        assert_eq!(regroups, cfg.policy != RegroupPolicy::Never, "{cfg:?}");
        for (k, serve) in serves[1..].iter().enumerate() {
            assert_eq!(serve.devices, 0, "{cfg:?}: {serve:?}");
            let (transmissions, stale_fraction) = match (regroups, k) {
                (false, _) => (serves[0].transmissions, 1.0),
                (true, 0) => (0, 1.0),
                (true, _) => (0, 0.0),
            };
            assert_eq!(serve.transmissions, transmissions, "{cfg:?}: {serve:?}");
            assert_eq!(serve.stale_fraction, stale_fraction, "{cfg:?}: {serve:?}");
        }
        assert!(service.fleet().is_empty());
        // Snapshots cut at the empty fleet, before and after its first
        // request, restore into the uninterrupted tail.
        for cut in [request, request + 1] {
            assert_cut_equivalence(&log, cfg, cut);
        }
    }
}
