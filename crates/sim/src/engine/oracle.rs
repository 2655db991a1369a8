//! The event-queue campaign engine that the sorted-pass engine replaced,
//! kept verbatim as a test oracle. Its only change is the queue: a
//! private binary heap of `(instant, sequence)` keys over a vector of the
//! scheduled events stands in for the deleted `nbiot-des` queue, with the
//! same FIFO tie-break for simultaneous events. The differential proptest
//! below runs both engines on the same plans and requires bit-identical
//! results and RNG streams.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::RngCore;

use nbiot_energy::{PowerState, UptimeLedger};
use nbiot_grouping::{GroupingInput, MulticastPlan};
use nbiot_phy::{BandwidthLedger, TrafficCategory};
use nbiot_rrc::{DlMessage, MltcNotification, PagingMessage, RandomAccess};
use nbiot_time::{SimDuration, SimInstant, TimeWindow};

use crate::{CampaignResult, SimConfig};

/// Campaign events. Indices refer to the plan's device order /
/// transmission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Ordinary page at a shared PO: every device of the indexed batch
    /// decodes the same paging message, then performs random access.
    PageBatch { batch: usize },
    /// DA-SC adaptation page: decode, random access, reconfigure, release.
    AdaptationPage { device: usize },
    /// DR-SI extended page: decode only (no connection).
    ExtendedPage { device: usize },
    /// DR-SI T322 expiry: random access.
    Wake { device: usize },
    /// A multicast (or unicast) transmission starts.
    Transmit { index: usize },
}

/// Per-device in-flight reception state.
#[derive(Debug, Clone, Copy)]
struct Pending {
    connect_at: SimInstant,
    ra_latency: SimDuration,
}

/// Executes `plan` and returns the measured campaign result.
///
/// Protocol actions are replayed as discrete events; strictly periodic
/// PO monitoring is accounted analytically over a horizon common to every
/// mechanism run against the same input and config (see crate docs).
pub(crate) fn execute(
    input: &GroupingInput,
    plan: &MulticastPlan,
    config: &SimConfig,
    rng: &mut dyn RngCore,
) -> CampaignResult {
    let n = input.len();
    let params = input.params();
    let start = params.start;
    let ti = params.ti.duration();
    let transfer = config.npdsch.plan_transfer(config.payload);

    // Common accounting horizon: latest single-transmission instant plus
    // the inactivity window and the payload airtime. Identical for every
    // mechanism on the same (input, config), which is what makes relative
    // light-sleep comparisons exact.
    let t_single = input
        .transmission_time()
        .unwrap_or_else(|_| input.default_transmission_time());
    let h_end = t_single.max(input.search_horizon().end()) + ti + transfer.duration;
    let horizon = TimeWindow::new(start, h_end);

    let mut ledgers = vec![UptimeLedger::new(); n];
    let mut bandwidth = BandwidthLedger::new();
    let mut late_joins = 0u64;
    let mut ra_failures = 0u64;

    // ---- Analytic part: periodic monitoring ----
    for (i, (dp, sched)) in plan.device_plans.iter().zip(input.schedules()).enumerate() {
        let pos = match dp.adaptation {
            Some(a) => {
                // Natural POs up to and including the adaptation point,
                // the adapted-cycle POs, then natural POs again after the
                // post-multicast restoration.
                let before = sched.count_pos_between(start, a.page_po + SimDuration::from_ms(1));
                let after = sched.count_pos_between(dp.receives_at + transfer.duration, h_end);
                before + a.monitored_adapted_pos + after
            }
            None => sched.count_pos_between(start, h_end),
        };
        ledgers[i].pos_monitored = pos;
        ledgers[i].accumulate(PowerState::LightSleep, config.costs.po_monitor_time * pos);
    }
    if let Some(cm) = plan.control_monitoring {
        let occasions = horizon.len().as_ms() / cm.period.as_ms();
        for ledger in &mut ledgers {
            ledger.accumulate(PowerState::LightSleep, cm.per_occasion * occasions);
        }
        bandwidth.record(
            TrafficCategory::ScPtmControl,
            config.costs.paging_base * occasions,
        );
    }

    // ---- Event-driven part: protocol actions ----
    // Min-heap of (instant, sequence) keys: pops by instant, then in
    // scheduling order.
    let mut heap: BinaryHeap<Reverse<(SimInstant, u64)>> = BinaryHeap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut schedule = |at: SimInstant, event: Event| {
        heap.push(Reverse((at, events.len() as u64)));
        events.push(event);
    };
    // Ordinary pages sharing a paging occasion ride one paging message
    // (PagingRecordList holds up to MAX_PAGING_RECORDS entries), exactly as
    // a real eNB batches them. Batches are built by one stable sort over
    // the paged devices instead of a per-device ordered-map insertion, and
    // each batch is addressed by index, so the event loop never searches.
    let mut paged: Vec<(SimInstant, usize)> = Vec::new();
    for (i, dp) in plan.device_plans.iter().enumerate() {
        if let Some(a) = dp.adaptation {
            schedule(a.page_po, Event::AdaptationPage { device: i });
        }
        if let Some(p) = dp.page {
            paged.push((p.po, i));
        }
        if let Some(m) = dp.mltc {
            schedule(m.po, Event::ExtendedPage { device: i });
            schedule(m.wake_at, Event::Wake { device: i });
        }
    }
    // Stable by PO: devices sharing a PO keep their device-order position.
    paged.sort_by_key(|&(po, _)| po);
    // Batches are contiguous runs of the sorted list, so one CSR offset
    // array over `paged` addresses them — no per-batch recipient vector.
    // At massive n (10^5-10^6 paged devices) this keeps the campaign
    // state at two flat allocations regardless of the batch count.
    let mut batch_off: Vec<usize> = Vec::with_capacity(paged.len() + 1);
    for (idx, &(po, _)) in paged.iter().enumerate() {
        if idx == 0 || paged[idx - 1].0 != po {
            schedule(
                po,
                Event::PageBatch {
                    batch: batch_off.len(),
                },
            );
            batch_off.push(idx);
        }
    }
    batch_off.push(paged.len());
    for (k, tx) in plan.transmissions.iter().enumerate() {
        schedule(tx.at, Event::Transmit { index: k });
    }

    let ra = RandomAccess::new(config.ra);
    let mut pending: Vec<Option<Pending>> = vec![None; n];
    let mut channel_free_at = start;
    let is_unicast =
        plan.transmissions.len() == n && plan.transmissions.iter().all(|t| t.recipients.len() == 1);
    let data_category = if is_unicast {
        TrafficCategory::UnicastData
    } else {
        TrafficCategory::MulticastData
    };

    while let Some(Reverse((now, seq))) = heap.pop() {
        match events[seq as usize] {
            Event::PageBatch { batch } => {
                let devices = &paged[batch_off[batch]..batch_off[batch + 1]];
                debug_assert_eq!(devices[0].0, now);
                // Cell airtime: as many messages as the record capacity
                // requires.
                for chunk in devices.chunks(nbiot_rrc::MAX_PAGING_RECORDS) {
                    let mut msg = PagingMessage::new();
                    for &(_, d) in chunk {
                        msg.push_record(input.ues()[d]);
                    }
                    bandwidth.record(TrafficCategory::Paging, config.costs.paging_airtime(&msg));
                    for &(_, d) in chunk {
                        ledgers[d].accumulate(
                            PowerState::LightSleep,
                            config.costs.paging_reception_uptime(&msg),
                        );
                        ledgers[d].pagings_received += 1;
                        let outcome = ra.perform(rng, config.ra_contenders);
                        if !outcome.success {
                            ra_failures += 1;
                        }
                        ledgers[d].random_accesses += 1;
                        bandwidth.record(TrafficCategory::RandomAccess, config.costs.ra_downlink);
                        pending[d] = Some(Pending {
                            connect_at: now,
                            ra_latency: outcome.latency,
                        });
                    }
                }
            }
            Event::AdaptationPage { device } => {
                let msg = PagingMessage::new().with_record(input.ues()[device]);
                ledgers[device].accumulate(
                    PowerState::LightSleep,
                    config.costs.paging_reception_uptime(&msg),
                );
                ledgers[device].pagings_received += 1;
                bandwidth.record(TrafficCategory::Paging, config.costs.paging_airtime(&msg));
                // Connect, receive the new DRX in an RRCConnectionReconfiguration,
                // get released immediately (paper Sec. III-B).
                let outcome = ra.perform(rng, config.ra_contenders);
                if !outcome.success {
                    ra_failures += 1;
                }
                ledgers[device].random_accesses += 1;
                let new_cycle = plan.device_plans[device]
                    .adaptation
                    .expect("event only scheduled with adaptation")
                    .new_cycle;
                let reconfig = DlMessage::RrcConnectionReconfiguration {
                    new_cycle: Some(new_cycle),
                };
                let session = outcome.latency
                    + config.costs.dl_message_airtime(reconfig)
                    + config
                        .costs
                        .dl_message_airtime(DlMessage::RrcConnectionRelease);
                ledgers[device].accumulate(PowerState::ConnectedWaiting, session);
                bandwidth.record(TrafficCategory::RandomAccess, config.costs.ra_downlink);
                bandwidth.record(
                    TrafficCategory::RrcSignalling,
                    config.costs.dl_message_airtime(reconfig)
                        + config
                            .costs
                            .dl_message_airtime(DlMessage::RrcConnectionRelease),
                );
            }
            Event::ExtendedPage { device } => {
                let dp = &plan.device_plans[device];
                let m = dp.mltc.expect("event only scheduled with mltc");
                let msg = PagingMessage::new().with_mltc(MltcNotification {
                    ue: input.ues()[device],
                    time_remaining: m.time_remaining,
                });
                ledgers[device].accumulate(
                    PowerState::LightSleep,
                    config.costs.paging_reception_uptime(&msg),
                );
                ledgers[device].pagings_received += 1;
                bandwidth.record(TrafficCategory::Paging, config.costs.paging_airtime(&msg));
            }
            Event::Wake { device } => {
                // T322 expired: connect with cause multicastReception.
                let outcome = ra.perform(rng, config.ra_contenders);
                if !outcome.success {
                    ra_failures += 1;
                }
                ledgers[device].random_accesses += 1;
                bandwidth.record(TrafficCategory::RandomAccess, config.costs.ra_downlink);
                pending[device] = Some(Pending {
                    connect_at: now,
                    ra_latency: outcome.latency,
                });
            }
            Event::Transmit { index } => {
                let tx = &plan.transmissions[index];
                // With channel serialization, a payload transfer cannot
                // start while the single NB-IoT carrier is still busy with
                // the previous one; the recipients wait out the queue.
                let data_start = if config.serialize_channel {
                    let start = now.max(channel_free_at);
                    channel_free_at = start + transfer.duration;
                    start
                } else {
                    now
                };
                bandwidth.record(data_category, transfer.duration);
                for &rid in &tx.recipients {
                    let device = input
                        .position_of(rid)
                        .expect("validate: every recipient is a group member");
                    if plan.requires_connection {
                        let p = pending[device].take().expect(
                            "validate: each recipient connects at exactly one trigger, \
                             no later than its transmission",
                        );
                        // Active from the connection trigger until the data
                        // starts: at least the RA exchange, plus any wait
                        // for the transmission instant (and any channel
                        // queueing).
                        let span = data_start
                            .saturating_duration_since(p.connect_at)
                            .max(p.ra_latency);
                        if p.connect_at + p.ra_latency > data_start {
                            late_joins += 1;
                        }
                        ledgers[device].accumulate(PowerState::ConnectedWaiting, span);
                    }
                    ledgers[device].accumulate(PowerState::ConnectedReceiving, transfer.duration);
                    if plan.device_plans[device].adaptation.is_some() {
                        // Post-multicast restoration of the original cycle.
                        let restore = DlMessage::RrcConnectionReconfiguration {
                            new_cycle: Some(input.paging_configs()[device].cycle),
                        };
                        let airtime = config.costs.dl_message_airtime(restore);
                        ledgers[device].accumulate(PowerState::ConnectedWaiting, airtime);
                        bandwidth.record(TrafficCategory::RrcSignalling, airtime);
                    }
                }
            }
        }
    }

    CampaignResult {
        mechanism: plan.mechanism.clone(),
        standards_compliant: plan.standards_compliant,
        transmission_count: plan.transmissions.len(),
        mean_wait: plan.mean_wait(),
        ledgers,
        bandwidth,
        late_joins,
        ra_failures,
        horizon,
        transfer,
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use nbiot_grouping::{GroupingParams, MechanismKind};
    use nbiot_phy::DataSize;
    use nbiot_traffic::TrafficMix;

    use super::*;

    fn arb_mix() -> impl Strategy<Value = TrafficMix> {
        prop_oneof![
            Just(TrafficMix::ericsson_city()),
            Just(TrafficMix::short_drx()),
            Just(TrafficMix::massive_metering()),
            Just(TrafficMix::bursty_alarm()),
            Just(TrafficMix::heterogeneous_coverage()),
        ]
    }

    fn arb_config() -> impl Strategy<Value = SimConfig> {
        (
            prop_oneof![Just(0u32), 1u32..=60],
            proptest::sample::select(vec![false, true]),
            proptest::sample::select(vec![
                DataSize::from_kb(100),
                DataSize::from_mb(1),
                DataSize::from_mb(10),
            ]),
        )
            .prop_map(|(ra_contenders, serialize_channel, payload)| SimConfig {
                payload,
                ra_contenders,
                serialize_channel,
                ..SimConfig::default()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sorted_passes_match_the_event_queue_engine(
            mix in arb_mix(),
            n in 1usize..=80,
            seed in 0u64..10_000,
            config in arb_config(),
        ) {
            let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
            let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
            let mut kinds = MechanismKind::ALL;
            kinds[1] = MechanismKind::DrScTabu(8);
            for kind in kinds {
                let plan = kind
                    .instantiate()
                    .plan(&input, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                plan.validate(&input).unwrap();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
                let mut oracle_rng = rng.clone();
                let got = super::super::execute(&input, &plan, &config, &mut rng);
                let want = execute(&input, &plan, &config, &mut oracle_rng);
                prop_assert_eq!(&got.mechanism, &want.mechanism, "{}", kind);
                prop_assert_eq!(got.standards_compliant, want.standards_compliant, "{}", kind);
                prop_assert_eq!(got.transmission_count, want.transmission_count, "{}", kind);
                prop_assert_eq!(got.mean_wait, want.mean_wait, "{}", kind);
                prop_assert_eq!(&got.ledgers, &want.ledgers, "{}", kind);
                prop_assert_eq!(got.bandwidth, want.bandwidth, "{}", kind);
                prop_assert_eq!(got.late_joins, want.late_joins, "{}", kind);
                prop_assert_eq!(got.ra_failures, want.ra_failures, "{}", kind);
                prop_assert_eq!(got.horizon, want.horizon, "{}", kind);
                prop_assert_eq!(got.transfer, want.transfer, "{}", kind);
                prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{}: RNG stream", kind);
            }
        }
    }
}
