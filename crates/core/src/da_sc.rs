//! DA-SC: DRX Adjusting, Standards Compliant (paper Sec. III-B).
//!
//! Unlike DR-SC, DA-SC needs no set cover: it fixes a single transmission
//! instant and walks the standard cycle ladder per device instead (the
//! per-mechanism cost comparison lives in `docs/ARCHITECTURE.md`).

use rand::RngCore;

use nbiot_time::{CycleLadder, PagingConfig, PagingSchedule, SimDuration, SimInstant, TimeWindow};

use crate::plan::transmission_to_all;
use crate::{
    AdaptationDirective, DevicePlan, GroupingError, GroupingInput, GroupingMechanism,
    MulticastPlan, PageDirective,
};

/// How the adapted DRX grid is phased after the reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AdaptationGrid {
    /// The new cycle is anchored at the adaptation PO: subsequent POs fall
    /// at `page_po + k·newCycle`. This matches the paper's Fig. 5
    /// illustration and is the default.
    #[default]
    AnchoredAtAdaptation,
    /// The new cycle follows the standard TS 36.304 PF/PO formula with the
    /// new `T` (phase derived from the UE identity) — the behaviour of an
    /// unmodified stack. Exposed as an ablation.
    StandardFormula,
}

/// The DA-SC mechanism: pick a single transmission instant
/// `t = start + 2·maxDRX` (so every device has at least one PO before `t`)
/// and, for every device without a natural PO in `[t − TI, t)`, shrink its
/// DRX cycle at its *last natural PO before `t − TI`* to the **largest**
/// standard cycle that lands a PO inside the window. After the multicast
/// the original cycle is restored with a second reconfiguration.
///
/// One transmission, standards-compliant, at the cost of extra paging
/// occasions and one extra connection (page → random access →
/// reconfiguration → immediate release) per adapted device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaSc {
    /// Adapted-grid phasing (paper illustration vs standard formula).
    pub grid: AdaptationGrid,
}

impl DaSc {
    /// Creates the mechanism with the paper's anchored grid.
    pub fn new() -> DaSc {
        DaSc::default()
    }

    /// Creates the mechanism with an explicit grid mode.
    pub fn with_grid(grid: AdaptationGrid) -> DaSc {
        DaSc { grid }
    }

    /// Finds the adaptation for one device: the largest standard cycle
    /// shorter than the device's own that creates a PO inside `window`
    /// when applied at `page_po`.
    fn adapt(
        &self,
        device_cycle_frames: u64,
        schedule: &PagingSchedule,
        ue: nbiot_time::UeId,
        nb: nbiot_time::NbParam,
        page_po: SimInstant,
        window: TimeWindow,
    ) -> Option<(nbiot_time::PagingCycle, SimInstant, u64)> {
        let _ = schedule;
        for cycle in CycleLadder::cycles().rev() {
            if cycle.period_frames() >= device_cycle_frames {
                continue;
            }
            match self.grid {
                AdaptationGrid::AnchoredAtAdaptation => {
                    let c = cycle.period().as_ms();
                    let gap = window.start().as_ms().saturating_sub(page_po.as_ms());
                    let k = gap.div_ceil(c).max(1);
                    let landing = SimInstant::from_ms(page_po.as_ms() + k * c);
                    if window.contains(landing) {
                        return Some((cycle, landing, k));
                    }
                }
                AdaptationGrid::StandardFormula => {
                    let cfg = PagingConfig { cycle, nb };
                    let Ok(adapted) = PagingSchedule::new(&cfg, ue) else {
                        continue;
                    };
                    let landing = adapted.first_po_at_or_after(window.start());
                    if window.contains(landing) {
                        let monitored = adapted.count_pos_between(
                            page_po + SimDuration::from_ms(1),
                            landing + SimDuration::from_ms(1),
                        );
                        return Some((cycle, landing, monitored));
                    }
                }
            }
        }
        None
    }
}

impl GroupingMechanism for DaSc {
    fn name(&self) -> String {
        "DA-SC".to_string()
    }

    fn is_standards_compliant(&self) -> bool {
        true
    }

    fn plan(
        &self,
        input: &GroupingInput,
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        let params = input.params();
        let t = input.transmission_time()?;
        let ti = params.ti.duration();
        // The coverage window never extends before the campaign start:
        // with short-cycle groups TI can exceed 2 * maxDRX, in which case
        // [t - TI, t) would reach back before the content even arrived.
        let window = TimeWindow::new(t.saturating_sub(ti).max(params.start), t);

        let mut device_plans = Vec::with_capacity(input.len());
        for (dev, sched) in input.iter().zip(input.schedules()) {
            if sched.has_po_in(window) {
                // Fig. 5, device (c): no adaptation needed.
                let po = sched.first_po_at_or_after(window.start());
                device_plans.push(DevicePlan {
                    device: dev.id,
                    page: Some(PageDirective { po }),
                    mltc: None,
                    adaptation: None,
                    connect_at: Some(po),
                    receives_at: t,
                });
                continue;
            }
            let page_po = sched
                .last_po_before(window.start())
                .filter(|&po| po >= params.start)
                .ok_or(GroupingError::NoUsablePo { device: dev.id, t })?;
            let (new_cycle, landing_po, monitored) = self
                .adapt(
                    dev.paging.cycle.period_frames(),
                    sched,
                    dev.ue,
                    dev.paging.nb,
                    page_po,
                    window,
                )
                .ok_or(GroupingError::NoUsablePo { device: dev.id, t })?;
            device_plans.push(DevicePlan {
                device: dev.id,
                page: Some(PageDirective { po: landing_po }),
                mltc: None,
                adaptation: Some(AdaptationDirective {
                    page_po,
                    new_cycle,
                    landing_po,
                    monitored_adapted_pos: monitored,
                }),
                connect_at: Some(landing_po),
                receives_at: t,
            });
        }

        Ok(MulticastPlan {
            mechanism: self.name(),
            standards_compliant: true,
            requires_connection: true,
            transmissions: transmission_to_all(t, &device_plans),
            device_plans,
            horizon: TimeWindow::new(params.start, t),
            control_monitoring: None,
            improvement: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingParams;
    use nbiot_time::{EdrxCycle, PagingCycle};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(
        mix: TrafficMix,
        n: usize,
        seed: u64,
        grid: AdaptationGrid,
    ) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DaSc::with_grid(grid).plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    #[test]
    fn single_transmission_by_design() {
        for grid in [
            AdaptationGrid::AnchoredAtAdaptation,
            AdaptationGrid::StandardFormula,
        ] {
            let (input, plan) = plan_for(TrafficMix::ericsson_city(), 100, 1, grid);
            plan.validate(&input).unwrap();
            assert_eq!(plan.transmission_count(), 1);
            assert_eq!(
                plan.single_transmission_time(),
                Some(input.transmission_time().unwrap())
            );
        }
    }

    #[test]
    fn adapted_devices_land_inside_window() {
        let (input, plan) = plan_for(
            TrafficMix::ericsson_city(),
            150,
            2,
            AdaptationGrid::default(),
        );
        let t = input.transmission_time().unwrap();
        let w = TimeWindow::new(t - input.params().ti.duration(), t);
        let mut adapted = 0;
        for dp in &plan.device_plans {
            if let Some(a) = dp.adaptation {
                adapted += 1;
                assert!(w.contains(a.landing_po));
                assert!(a.page_po < w.start());
                assert!(a.monitored_adapted_pos >= 1);
            }
        }
        // With multi-hour cycles and a 20 s window, most devices need
        // adaptation.
        assert!(adapted > 100, "only {adapted} adapted");
    }

    #[test]
    fn adaptation_decreases_cycle() {
        let (input, plan) = plan_for(
            TrafficMix::ericsson_city(),
            150,
            3,
            AdaptationGrid::default(),
        );
        for (dp, dev) in plan.device_plans.iter().zip(input.iter()) {
            if let Some(a) = dp.adaptation {
                assert!(
                    a.new_cycle.period_frames() < dev.paging.cycle.period_frames(),
                    "{}: {} not shorter than {}",
                    dev.id,
                    a.new_cycle,
                    dev.paging.cycle
                );
            }
        }
    }

    #[test]
    fn adaptation_uses_largest_feasible_cycle_anchored() {
        // Anchored grid: the landing is page_po + k * c; verify no longer
        // ladder cycle (still shorter than the device's) would also land.
        let (input, plan) = plan_for(
            TrafficMix::ericsson_city(),
            80,
            4,
            AdaptationGrid::default(),
        );
        let t = input.transmission_time().unwrap();
        let w = TimeWindow::new(t - input.params().ti.duration(), t);
        for (dp, dev) in plan.device_plans.iter().zip(input.iter()) {
            let Some(a) = dp.adaptation else { continue };
            for longer in CycleLadder::cycles().rev() {
                if longer.period_frames() >= dev.paging.cycle.period_frames() {
                    continue;
                }
                if longer.period_frames() <= a.new_cycle.period_frames() {
                    break;
                }
                let c = longer.period().as_ms();
                let gap = w.start().as_ms().saturating_sub(a.page_po.as_ms());
                let k = gap.div_ceil(c).max(1);
                let landing = SimInstant::from_ms(a.page_po.as_ms() + k * c);
                assert!(
                    !w.contains(landing),
                    "{}: cycle {} would land too",
                    dev.id,
                    longer
                );
            }
        }
    }

    #[test]
    fn standard_formula_grid_is_also_valid() {
        let (input, plan) = plan_for(
            TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf64)),
            60,
            5,
            AdaptationGrid::StandardFormula,
        );
        plan.validate(&input).unwrap();
    }

    #[test]
    fn short_drx_devices_need_no_adaptation() {
        let (input, plan) = plan_for(TrafficMix::short_drx(), 40, 6, AdaptationGrid::default());
        plan.validate(&input).unwrap();
        assert!(plan.device_plans.iter().all(|p| p.adaptation.is_none()));
    }

    #[test]
    fn deterministic_plan() {
        let (_, a) = plan_for(
            TrafficMix::ericsson_city(),
            90,
            7,
            AdaptationGrid::default(),
        );
        let (_, b) = plan_for(
            TrafficMix::ericsson_city(),
            90,
            7,
            AdaptationGrid::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn respects_transmission_time_override() {
        let mut rng = StdRng::seed_from_u64(8);
        let pop = TrafficMix::ericsson_city().generate(50, &mut rng).unwrap();
        let base = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let later = base.default_transmission_time() + SimDuration::from_secs(120);
        let params = GroupingParams {
            transmission_time: Some(later),
            ..GroupingParams::default()
        };
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let plan = DaSc::new().plan(&input, &mut rng).unwrap();
        plan.validate(&input).unwrap();
        assert_eq!(plan.single_transmission_time(), Some(later));
    }
}
