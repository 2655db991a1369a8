//! DR-SI: DRX Respecting, Standards Incompliant (paper Sec. III-C).

use rand::{Rng, RngCore};

use nbiot_time::{SimInstant, TimeWindow};

use crate::plan::transmission_to_all;
use crate::{
    DevicePlan, GroupingError, GroupingInput, GroupingMechanism, MltcDirective, MulticastPlan,
    PageDirective,
};

/// At which of its paging occasions a device is notified in advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NotifyPolicy {
    /// Notify at the device's last natural PO before `t − TI` — the timer
    /// is held armed for the shortest possible time. Default.
    #[default]
    LastBeforeWindow,
    /// Notify at the device's first natural PO after the content arrives —
    /// the earliest opportunity (ablation).
    FirstAfterStart,
}

/// The DR-SI mechanism: devices keep their DRX cycles (like DR-SC) and one
/// transmission suffices (like DA-SC), at the price of a protocol change.
///
/// The eNB sends an *extended* paging message carrying the non-critical
/// `mltc-transmission` extension — the device identity plus the time
/// remaining until the multicast instant `t`. The identity appears only in
/// the extension, not in the `PagingRecordList`, so the device knows it
/// does **not** need to connect now. It draws a uniformly random instant in
/// `[t − TI, t)`, arms timer T322, and at expiry connects with the
/// (non-standard) establishment cause `multicastReception` to receive the
/// data. Devices that happen to have a natural PO inside `[t − TI, t)` are
/// simply paged there with an ordinary record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrSi {
    /// When the advance notification is delivered.
    pub notify: NotifyPolicy,
}

impl DrSi {
    /// Creates the mechanism with the default notification policy.
    pub fn new() -> DrSi {
        DrSi::default()
    }

    /// Creates the mechanism with an explicit notification policy.
    pub fn with_policy(notify: NotifyPolicy) -> DrSi {
        DrSi { notify }
    }
}

impl GroupingMechanism for DrSi {
    fn name(&self) -> String {
        "DR-SI".to_string()
    }

    fn is_standards_compliant(&self) -> bool {
        false
    }

    fn plan(
        &self,
        input: &GroupingInput,
        rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        let params = input.params();
        let t = input.transmission_time()?;
        let ti = params.ti.duration();
        // Clamp at the campaign start (see DaSc): TI can exceed 2 * maxDRX
        // for short-cycle groups.
        let window = TimeWindow::new(t.saturating_sub(ti).max(params.start), t);

        let mut device_plans = Vec::with_capacity(input.len());
        let mut any_mltc = false;
        for (&id, sched) in input.ids().iter().zip(input.schedules()) {
            if sched.has_po_in(window) {
                // Natural PO inside the window: ordinary page, no extension.
                let po = sched.first_po_at_or_after(window.start());
                device_plans.push(DevicePlan {
                    device: id,
                    page: Some(PageDirective { po }),
                    mltc: None,
                    adaptation: None,
                    connect_at: Some(po),
                    receives_at: t,
                });
                continue;
            }
            let po = match self.notify {
                NotifyPolicy::LastBeforeWindow => sched
                    .last_po_before(window.start())
                    .filter(|&po| po >= params.start),
                NotifyPolicy::FirstAfterStart => {
                    let po = sched.first_po_at_or_after(params.start);
                    (po < window.start()).then_some(po)
                }
            }
            .ok_or(GroupingError::NoUsablePo { device: id, t })?;
            let wake_at =
                SimInstant::from_ms(rng.gen_range(window.start().as_ms()..window.end().as_ms()));
            any_mltc = true;
            device_plans.push(DevicePlan {
                device: id,
                page: None,
                mltc: Some(MltcDirective {
                    po,
                    wake_at,
                    time_remaining: t - po,
                }),
                adaptation: None,
                connect_at: Some(wake_at),
                receives_at: t,
            });
        }

        Ok(MulticastPlan {
            mechanism: self.name(),
            // The flag reflects the signalling actually used: a group whose
            // POs all fall inside the window needs no extension.
            standards_compliant: !any_mltc,
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
    use nbiot_time::{EdrxCycle, PagingCycle, SimDuration};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(mix: TrafficMix, n: usize, seed: u64) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrSi::new().plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    #[test]
    fn single_transmission_and_valid() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 120, 1);
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1);
        assert!(!plan.standards_compliant);
    }

    #[test]
    fn wake_times_are_inside_window() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 200, 2);
        let t = input.transmission_time().unwrap();
        let w = TimeWindow::new(t - input.params().ti.duration(), t);
        for dp in &plan.device_plans {
            if let Some(m) = dp.mltc {
                assert!(w.contains(m.wake_at), "{} outside {w}", m.wake_at);
                assert!(m.po < w.start());
                assert_eq!(m.time_remaining, t - m.po);
            }
        }
    }

    #[test]
    fn wake_times_are_spread() {
        // The uniform draw should not collapse to a single instant
        // (that is the whole point: avoiding a RACH stampede at t - TI).
        let (_, plan) = plan_for(TrafficMix::ericsson_city(), 200, 3);
        let wakes: std::collections::HashSet<u64> = plan
            .device_plans
            .iter()
            .filter_map(|p| p.mltc.map(|m| m.wake_at.as_ms()))
            .collect();
        assert!(
            wakes.len() > 100,
            "only {} distinct wake times",
            wakes.len()
        );
    }

    #[test]
    fn devices_with_po_in_window_get_ordinary_page() {
        let (input, plan) = plan_for(TrafficMix::short_drx(), 40, 4);
        // Short cycles: every device has a PO in [t - TI, t).
        plan.validate(&input).unwrap();
        assert!(plan.device_plans.iter().all(|p| p.mltc.is_none()));
        // No extension used -> the emitted plan is de facto compliant.
        assert!(plan.standards_compliant);
    }

    #[test]
    fn first_after_start_policy_notifies_early() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf256))
            .generate(50, &mut rng)
            .unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let early = DrSi::with_policy(NotifyPolicy::FirstAfterStart)
            .plan(&input, &mut rng)
            .unwrap();
        let late = DrSi::with_policy(NotifyPolicy::LastBeforeWindow)
            .plan(&input, &mut rng)
            .unwrap();
        early.validate(&input).unwrap();
        late.validate(&input).unwrap();
        for (e, l) in early.device_plans.iter().zip(&late.device_plans) {
            if let (Some(me), Some(ml)) = (e.mltc, l.mltc) {
                assert!(me.po <= ml.po);
            }
        }
    }

    #[test]
    fn rng_changes_wakes_but_not_structure() {
        let mut rng_a = StdRng::seed_from_u64(100);
        let mut rng_b = StdRng::seed_from_u64(200);
        let pop = TrafficMix::ericsson_city()
            .generate(80, &mut StdRng::seed_from_u64(6))
            .unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let a = DrSi::new().plan(&input, &mut rng_a).unwrap();
        let b = DrSi::new().plan(&input, &mut rng_b).unwrap();
        assert_eq!(a.transmissions, b.transmissions);
        let structural = |p: &MulticastPlan| -> Vec<Option<SimInstant>> {
            p.device_plans
                .iter()
                .map(|d| d.mltc.map(|m| m.po))
                .collect()
        };
        assert_eq!(structural(&a), structural(&b));
        assert_ne!(a.device_plans, b.device_plans); // wake draws differ
    }

    #[test]
    fn mean_wait_is_about_half_ti() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 400, 7);
        let ti = input.params().ti.duration();
        let wait = plan.mean_wait();
        // Paper: devices wait TI/2 on average for the multicast to start.
        assert!(
            wait > ti / 3 && wait < ti * 2 / 3,
            "mean wait {wait} vs TI {ti}"
        );
    }

    #[test]
    fn respects_ti_override() {
        let mut rng = StdRng::seed_from_u64(8);
        let pop = TrafficMix::ericsson_city().generate(60, &mut rng).unwrap();
        let params = GroupingParams {
            ti: nbiot_rrc::InactivityTimer::new(SimDuration::from_secs(30)),
            ..GroupingParams::default()
        };
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let plan = DrSi::new().plan(&input, &mut rng).unwrap();
        plan.validate(&input).unwrap();
    }
}
