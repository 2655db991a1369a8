//! LNS-style plan repair after churn: patch a stale [`MulticastPlan`]
//! instead of re-planning from scratch.
//!
//! After a churn epoch the fleet differs from the one the plan was
//! computed for: some devices departed, some arrived. A full re-plan
//! re-solves the whole cover; this module performs the classic
//! large-neighborhood *repair* half only — the departed devices are the
//! destroyed part, and the arrivals are ejected devices to re-insert:
//!
//! 1. **Keep** every transmission that still serves at least one
//!    surviving device, at its original instant, and keep the surviving
//!    devices' page/connect/receive actions untouched.
//! 2. **Attach** each new device to the earliest kept transmission whose
//!    coverage window `[t − TI, t)` contains one of its paging occasions
//!    (an ejection-chain step of length one — the common case after
//!    moderate churn, because kept windows are already spread across the
//!    joint PO pattern).
//! 3. **Re-plan the leftovers** — new devices no kept window can reach —
//!    with a fresh greedy [`WindowCover`] solve over a [`PoTimeline`] of
//!    just those devices, appending the new windows.
//!
//! The procedure is fully deterministic (no RNG anywhere) and a repair
//! against an unchanged fleet reproduces the plan's transmissions and
//! device actions exactly (locked by proptest). It applies to
//! page-and-connect plans (DR-SC and DR-SC-tabu shapes); plans using
//! DRX adaptation, `mltc` notifications or connectionless reception
//! return `None` so the caller falls back to a full re-plan.

use std::collections::HashMap;

use nbiot_time::{SimInstant, TimeWindow};

use crate::dr_sc::slot_transmission;
use crate::improve::ImprovementStats;
use crate::set_cover::{PoTimeline, WindowCover};
use crate::{
    DevicePlan, DrSc, GroupingError, GroupingInput, MulticastPlan, PageDirective, Transmission,
};

/// Repairs `old` — a plan for an earlier fleet — into a valid plan for
/// `input`, the fleet after churn.
///
/// Returns `None` when the plan shape is not repairable (adaptation,
/// `mltc` or connectionless plans — those mechanisms re-plan fully).
///
/// On success the returned plan validates against `input`; its
/// [`MulticastPlan::improvement`] records the repair economics with the
/// same field layout as the tabu pass: `initial_cost` = old transmission
/// count, `final_cost` = repaired transmission count, `moves_accepted` =
/// arrivals attached to kept windows, `budget_spent` = leftover arrivals
/// that needed freshly solved windows.
///
/// # Errors
///
/// Returns [`GroupingError::NoUsablePo`] when a leftover device has no
/// paging occasion inside the search horizon (same feasibility condition
/// as a full DR-SC plan).
pub fn repair_plan(
    old: &MulticastPlan,
    input: &GroupingInput,
) -> Option<Result<MulticastPlan, GroupingError>> {
    if old.control_monitoring.is_some() || !old.requires_connection || !old.standards_compliant {
        return None;
    }
    if old
        .device_plans
        .iter()
        .any(|dp| dp.page.is_none() || dp.mltc.is_some() || dp.adaptation.is_some())
    {
        return None;
    }
    Some(repair_page_connect(old, input))
}

fn repair_page_connect(
    old: &MulticastPlan,
    input: &GroupingInput,
) -> Result<MulticastPlan, GroupingError> {
    let params = input.params();
    let ti = params.ti.duration();
    let horizon = input.search_horizon();
    let by_device: HashMap<_, &DevicePlan> =
        old.device_plans.iter().map(|dp| (dp.device, dp)).collect();

    // Survivors keep their actions when still valid for their (possibly
    // re-drawn) schedule: the remembered PO must still be a real paging
    // occasion, inside the campaign, and before the serving transmission.
    let mut device_plans: Vec<Option<DevicePlan>> = vec![None; input.len()];
    let mut ejected: Vec<usize> = Vec::new();
    for (idx, (&id, sched)) in input.ids().iter().zip(input.schedules()).enumerate() {
        match by_device.get(&id) {
            Some(dp) => {
                let po = dp.page.expect("shape-checked above").po;
                if po >= params.start && po < dp.receives_at && sched.first_po_at_or_after(po) == po
                {
                    device_plans[idx] = Some(**dp);
                } else {
                    ejected.push(idx);
                }
            }
            None => ejected.push(idx),
        }
    }

    // Kept transmissions: original instants, surviving recipients only.
    let survivor_rx: HashMap<_, SimInstant> = device_plans
        .iter()
        .flatten()
        .map(|dp| (dp.device, dp.receives_at))
        .collect();
    let mut kept: Vec<Transmission> = old
        .transmissions
        .iter()
        .map(|tx| Transmission {
            at: tx.at,
            recipients: tx
                .recipients
                .iter()
                .copied()
                .filter(|d| survivor_rx.get(d) == Some(&tx.at))
                .collect(),
        })
        .filter(|tx| !tx.recipients.is_empty())
        .collect();

    // Attach ejected devices to the earliest kept window containing one
    // of their POs.
    let mut attached = 0u32;
    let mut leftover: Vec<usize> = Vec::new();
    for &idx in &ejected {
        let sched = &input.schedules()[idx];
        let mut placed = false;
        for tx in kept.iter_mut() {
            let window_start = tx.at.saturating_sub(ti).max(params.start);
            let po = sched.first_po_at_or_after(window_start);
            if po < tx.at {
                tx.recipients.push(input.ids()[idx]);
                device_plans[idx] = Some(DevicePlan {
                    device: input.ids()[idx],
                    page: Some(PageDirective { po }),
                    mltc: None,
                    adaptation: None,
                    connect_at: Some(po),
                    receives_at: tx.at,
                });
                attached += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            leftover.push(idx);
        }
    }

    // Leftovers get freshly solved windows (greedy, DR-SC construction).
    let replanned = leftover.len() as u32;
    if !leftover.is_empty() {
        let schedules: Vec<_> = leftover.iter().map(|&idx| input.schedules()[idx]).collect();
        let timeline = PoTimeline::new(&schedules, ti, horizon);
        let slots = WindowCover::new(ti)
            .solve(horizon.start(), &timeline)
            .ok_or_else(|| GroupingError::NoUsablePo {
                device: input.ids()[leftover[timeline
                    .first_unreachable()
                    .expect("solver fails only on sparse device without POs")]],
                t: horizon.end(),
            })?;
        // The leftover timeline numbers devices by leftover position;
        // the slots are scheduled by input position, under DR-SC's
        // default guard.
        let guard = DrSc::default().guard;
        for mut slot in slots {
            for d in &mut slot.covered {
                *d = leftover[*d];
            }
            kept.push(slot_transmission(input, &slot, guard, &mut device_plans));
        }
    }

    kept.sort_by_key(|t| t.at);
    let device_plans: Vec<DevicePlan> = device_plans
        .into_iter()
        .map(|p| p.expect("every device kept, attached or re-planned"))
        .collect();
    let end = kept.last().map(|t| t.at).unwrap_or(horizon.end());
    let stats = ImprovementStats {
        initial_cost: old.transmission_count() as u32,
        final_cost: kept.len() as u32,
        moves_accepted: attached,
        budget_spent: replanned,
    };
    Ok(MulticastPlan {
        mechanism: old.mechanism.clone(),
        standards_compliant: true,
        requires_connection: true,
        transmissions: kept,
        device_plans,
        horizon: TimeWindow::new(params.start, end.max(horizon.end())),
        control_monitoring: None,
        improvement: Some(stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DaSc, DrSc, GroupingMechanism, GroupingParams, ScPtm};
    use nbiot_traffic::{ChurnModel, Population, TrafficMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input_for(n: usize, seed: u64) -> GroupingInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = TrafficMix::ericsson_city().generate(n, &mut rng).unwrap();
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    /// A (stale plan, churned input) pair: plan on the initial fleet,
    /// evolve it one churn epoch, return the plan plus the input for the
    /// evolved fleet and the churned population's size.
    fn churned_pair(n: usize, seed: u64, model: ChurnModel) -> (MulticastPlan, GroupingInput) {
        let mix = TrafficMix::mobility_churn();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        let mut next_id = n as u32;
        let (evolved, events): (Population, _) =
            model.step(&mix, &pop, n, &mut next_id, &mut rng).unwrap();
        assert!(!events.is_quiet(), "fixture must actually churn");
        let churned = GroupingInput::from_population(&evolved, GroupingParams::default()).unwrap();
        (plan, churned)
    }

    #[test]
    fn unchanged_fleet_repairs_to_identical_actions() {
        let input = input_for(120, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        let repaired = repair_plan(&plan, &input).expect("repairable").unwrap();
        repaired.validate(&input).unwrap();
        assert_eq!(repaired.transmissions, plan.transmissions);
        assert_eq!(repaired.device_plans, plan.device_plans);
        assert_eq!(repaired.horizon, plan.horizon);
        let stats = repaired.improvement.unwrap();
        assert_eq!(stats.initial_cost, stats.final_cost);
        assert_eq!(stats.moves_accepted, 0);
        assert_eq!(stats.budget_spent, 0);
    }

    #[test]
    fn scptm_plans_are_not_repairable() {
        let input = input_for(30, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let plan = ScPtm::default().plan(&input, &mut rng).unwrap();
        assert!(repair_plan(&plan, &input).is_none());
    }

    #[test]
    fn adaptation_plans_are_not_repairable() {
        // DA-SC device plans carry DRX adaptations; the repair only knows
        // page-and-connect shapes, so it must decline and let the caller
        // re-plan fully.
        let input = input_for(30, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let plan = DaSc::new().plan(&input, &mut rng).unwrap();
        assert!(plan.device_plans.iter().any(|dp| dp.adaptation.is_some()));
        assert!(repair_plan(&plan, &input).is_none());
    }

    #[test]
    fn non_compliant_and_connectionless_shapes_are_not_repairable() {
        let input = input_for(40, 6);
        let mut rng = StdRng::seed_from_u64(6);
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        let mut non_compliant = plan.clone();
        non_compliant.standards_compliant = false;
        assert!(repair_plan(&non_compliant, &input).is_none());
        let mut connectionless = plan.clone();
        connectionless.requires_connection = false;
        assert!(repair_plan(&connectionless, &input).is_none());
        let mut monitored = plan;
        monitored.control_monitoring = Some(crate::ControlMonitoring {
            period: nbiot_time::SimDuration::ZERO,
            per_occasion: nbiot_time::SimDuration::ZERO,
        });
        assert!(repair_plan(&monitored, &input).is_none());
    }

    #[test]
    fn churned_fleet_reattaches_arrivals_to_kept_windows() {
        let moderate = ChurnModel {
            epochs: 1,
            departure_rate: 0.15,
            arrival_rate: 0.2,
            handover_rate: 0.1,
        };
        let heavier = ChurnModel {
            departure_rate: 0.3,
            arrival_rate: 0.4,
            ..moderate
        };
        for (n, seed, model) in [
            (300, 8, moderate),
            (150, 8, heavier),
            (150, 9, heavier),
            (150, 21, heavier),
        ] {
            let (plan, churned) = churned_pair(n, seed, model);
            let repaired = repair_plan(&plan, &churned).expect("repairable").unwrap();
            repaired.validate(&churned).unwrap();
            let stats = repaired.improvement.unwrap();
            assert!(
                stats.moves_accepted > 0,
                "expected some arrivals to attach to kept windows: {stats:?}"
            );
            // Every kept transmission sits at one of the old plan's instants.
            let old_instants: Vec<_> = plan.transmissions.iter().map(|tx| tx.at).collect();
            let kept = repaired
                .transmissions
                .iter()
                .filter(|tx| old_instants.contains(&tx.at))
                .count();
            assert!(kept > 0, "churn at these rates must keep some windows");
            // Attached devices page inside the window of the serving
            // transmission — the reattach invariant.
            for dp in &repaired.device_plans {
                let po = dp.page.expect("page-and-connect shape").po;
                assert!(po < dp.receives_at);
            }
        }
    }

    #[test]
    fn unreachable_arrivals_fall_through_to_fresh_windows() {
        // Heavy departures destroy most windows, heavy arrivals then
        // overflow what's left: some arrivals must take the leftover
        // (fresh greedy solve) path rather than attach.
        let model = ChurnModel {
            epochs: 1,
            departure_rate: 0.9,
            arrival_rate: 0.8,
            handover_rate: 0.0,
        };
        let (plan, churned) = churned_pair(200, 9, model);
        let repaired = repair_plan(&plan, &churned).expect("repairable").unwrap();
        repaired.validate(&churned).unwrap();
        let stats = repaired.improvement.unwrap();
        assert!(
            stats.budget_spent > 0,
            "expected leftover re-planned arrivals: {stats:?}"
        );
    }
}
