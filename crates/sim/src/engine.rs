//! Campaign execution of a multicast plan: three passes over flat arrays.
//!
//! A plan lists every protocol action of its campaign and no action
//! triggers another, so the whole campaign is known before it starts.
//! Devices interact in only two ways: the order in which they draw random
//! accesses from the shared RNG, and the single carrier that serialized
//! transfers queue on. Every other effect adds an integer into a ledger
//! and commutes. The engine therefore fixes those two orders and folds the
//! rest device by device:
//!
//! 1. **Draws.** One `RandomAccess::perform` per adaptation page, T322
//!    wake and ordinary page, in instant order — adaptation pages and
//!    wakes before pages on an equal instant, device order otherwise —
//!    with each latency stored by device position.
//! 2. **Transmissions**, in plan order (sorted by time): each one's data
//!    start, after any wait for the carrier, stored by recipient position.
//! 3. **Devices**, in device order: the analytic PO count, paging
//!    receptions, the adaptation session and restore, connected waiting
//!    and receiving.
//!
//! `docs/ARCHITECTURE.md` ("Campaign accounting") shows why this is the
//! order a time-ordered event queue with a FIFO tie-break would replay.

use rand::RngCore;

use nbiot_energy::{PowerState, UptimeLedger};
use nbiot_grouping::{GroupingInput, MulticastPlan};
use nbiot_phy::{BandwidthLedger, TrafficCategory};
use nbiot_rrc::{DlMessage, MltcNotification, PagingMessage, RandomAccess, MAX_PAGING_RECORDS};
use nbiot_time::{SimDuration, SimInstant, TimeWindow, UeId};

use crate::{CampaignResult, SimConfig};

/// Executes `plan` and returns the measured campaign result.
///
/// Protocol actions are accounted in the three passes of the module
/// docs; strictly periodic PO monitoring is accounted analytically over a
/// horizon common to every mechanism run against the same input and
/// config (see crate docs).
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
    let costs = &config.costs;
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

    // ---- Shape-only costs ----
    // A paging message's airtime depends only on its record count, its
    // reception uptime only on whether it carries the mltc extension, and
    // a reconfiguration's airtime not on the cycle it carries.
    let mut chunk_airtime = [SimDuration::ZERO; MAX_PAGING_RECORDS + 1];
    let mut msg = PagingMessage::new();
    for airtime in &mut chunk_airtime[1..] {
        msg.push_record(UeId(0));
        *airtime = costs.paging_airtime(&msg);
    }
    let page_uptime = costs.paging_reception_uptime(&msg);
    let mltc_msg = PagingMessage::new().with_mltc(MltcNotification {
        ue: UeId(0),
        time_remaining: SimDuration::ZERO,
    });
    let mltc_airtime = costs.paging_airtime(&mltc_msg);
    let mltc_uptime = costs.paging_reception_uptime(&mltc_msg);
    let reconfig =
        costs.dl_message_airtime(DlMessage::RrcConnectionReconfiguration { new_cycle: None });
    let release = costs.dl_message_airtime(DlMessage::RrcConnectionRelease);

    // ---- Pass 1: random-access draws ----
    // A draw lands in slot 2·i (device i's adaptation session) or 2·i + 1
    // (the connection its page or T322 wake opens). `early` holds the
    // adaptation pages and wakes, which draw before the ordinary pages of
    // an equal instant.
    let mut early: Vec<(SimInstant, usize)> = Vec::new();
    let mut pages: Vec<(SimInstant, usize)> = Vec::new();
    for (i, dp) in plan.device_plans.iter().enumerate() {
        if let Some(a) = dp.adaptation {
            early.push((a.page_po, 2 * i));
        }
        if let Some(m) = dp.mltc {
            early.push((m.wake_at, 2 * i + 1));
        }
        if let Some(p) = dp.page {
            pages.push((p.po, 2 * i + 1));
        }
    }
    // Stable by instant: simultaneous draws keep device order.
    early.sort_by_key(|&(at, _)| at);
    pages.sort_by_key(|&(po, _)| po);
    let ra = RandomAccess::new(config.ra);
    let mut ra_latency = vec![SimDuration::ZERO; 2 * n];
    let mut ra_failures = 0u64;
    let (mut e, mut p) = (0, 0);
    while e < early.len() || p < pages.len() {
        // On an equal instant adaptation pages and wakes draw first.
        let slot = if p == pages.len() || (e < early.len() && early[e].0 <= pages[p].0) {
            e += 1;
            early[e - 1].1
        } else {
            p += 1;
            pages[p - 1].1
        };
        let outcome = ra.perform(rng, config.ra_contenders);
        ra_failures += u64::from(!outcome.success);
        ra_latency[slot] = outcome.latency;
    }
    // Ordinary pages sharing a paging occasion ride one paging message
    // per MAX_PAGING_RECORDS pages, exactly as a real eNB batches them.
    let page_airtime: SimDuration = pages
        .chunk_by(|a, b| a.0 == b.0)
        .flat_map(|batch| batch.chunks(MAX_PAGING_RECORDS))
        .map(|chunk| chunk_airtime[chunk.len()])
        .sum();
    // Free the draw lists before the per-device arrays below.
    drop((early, pages));

    // ---- Pass 2: transmissions ----
    // With channel serialization, a payload transfer cannot start while
    // the single NB-IoT carrier is still busy with the previous one; the
    // recipients wait out the queue.
    let mut data_start = vec![SimInstant::ZERO; n];
    let mut channel_free_at = start;
    for tx in &plan.transmissions {
        let begins = if config.serialize_channel {
            let begins = tx.at.max(channel_free_at);
            channel_free_at = begins + transfer.duration;
            begins
        } else {
            tx.at
        };
        for &rid in &tx.recipients {
            let i = input
                .position_of(rid)
                .expect("validate: every recipient is a group member");
            data_start[i] = begins;
        }
    }

    // ---- Pass 3: devices ----
    let monitoring = plan
        .control_monitoring
        .map(|cm| (cm.per_occasion, horizon.len().as_ms() / cm.period.as_ms()));
    let mut ledgers = vec![UptimeLedger::new(); n];
    let (mut ordinary_pages, mut adaptations, mut mltc_pages) = (0u64, 0u64, 0u64);
    let mut late_joins = 0u64;
    let devices = plan.device_plans.iter().zip(input.schedules());
    for (i, ((dp, sched), ledger)) in devices.zip(&mut ledgers).enumerate() {
        // Periodic monitoring: natural POs, except that an adapted device
        // monitors its natural POs up to and including the adaptation
        // point, the adapted-cycle POs, then natural POs again after the
        // post-multicast restoration.
        let pos = match dp.adaptation {
            Some(a) => {
                let before = sched.count_pos_between(start, a.page_po + SimDuration::from_ms(1));
                let after = sched.count_pos_between(dp.receives_at + transfer.duration, h_end);
                before + a.monitored_adapted_pos + after
            }
            None => sched.count_pos_between(start, h_end),
        };
        ledger.pos_monitored = pos;
        ledger.accumulate(PowerState::LightSleep, costs.po_monitor_time * pos);
        if let Some((per_occasion, occasions)) = monitoring {
            ledger.accumulate(PowerState::LightSleep, per_occasion * occasions);
        }

        // Paging receptions. Every ordinary or adaptation page opens a
        // random access, and every extended page a T322 wake that does.
        let page = u64::from(dp.page.is_some());
        let adaptation = u64::from(dp.adaptation.is_some());
        let mltc = u64::from(dp.mltc.is_some());
        ledger.pagings_received = page + adaptation + mltc;
        ledger.random_accesses = ledger.pagings_received;
        ledger.accumulate(
            PowerState::LightSleep,
            page_uptime * (page + adaptation) + mltc_uptime * mltc,
        );
        ordinary_pages += page;
        adaptations += adaptation;
        mltc_pages += mltc;

        if dp.adaptation.is_some() {
            // Connect, receive the new DRX in an RRCConnectionReconfiguration,
            // get released immediately (paper Sec. III-B); after the
            // multicast, a second reconfiguration restores the cycle.
            let session = ra_latency[2 * i] + reconfig + release;
            ledger.accumulate(PowerState::ConnectedWaiting, session + reconfig);
        }
        if plan.requires_connection {
            // Active from the connection trigger until the data starts: at
            // least the RA exchange, plus any wait for the transmission
            // instant (and any channel queueing).
            let connect_at = dp
                .connect_at
                .expect("validate: a connecting device connects at its trigger");
            let latency = ra_latency[2 * i + 1];
            let begins = data_start[i];
            if connect_at + latency > begins {
                late_joins += 1;
            }
            let span = begins.saturating_duration_since(connect_at).max(latency);
            ledger.accumulate(PowerState::ConnectedWaiting, span);
        }
        ledger.accumulate(PowerState::ConnectedReceiving, transfer.duration);
    }

    let mut bandwidth = BandwidthLedger::new();
    bandwidth.record(
        TrafficCategory::Paging,
        page_airtime + chunk_airtime[1] * adaptations + mltc_airtime * mltc_pages,
    );
    bandwidth.record(
        TrafficCategory::RandomAccess,
        costs.ra_downlink * (ordinary_pages + adaptations + mltc_pages),
    );
    bandwidth.record(
        TrafficCategory::RrcSignalling,
        (reconfig + release + reconfig) * adaptations,
    );
    let is_unicast =
        plan.transmissions.len() == n && plan.transmissions.iter().all(|t| t.recipients.len() == 1);
    let data_category = if is_unicast {
        TrafficCategory::UnicastData
    } else {
        TrafficCategory::MulticastData
    };
    bandwidth.record(
        data_category,
        transfer.duration * plan.transmissions.len() as u64,
    );
    if let Some((_, occasions)) = monitoring {
        bandwidth.record(TrafficCategory::ScPtmControl, costs.paging_base * occasions);
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
