//! SC-PTM baseline: the standardized single-cell multicast (paper
//! Sec. II-A). Planning is trivial (one announced transmission, no
//! cover); its cost is the continuous SC-MCCH monitoring the simulator
//! charges every device (see `docs/ARCHITECTURE.md` for where baselines
//! sit in the comparison pipeline).

use rand::RngCore;

use nbiot_time::{SimDuration, SimInstant, TimeWindow};

use crate::plan::transmission_to_all;
use crate::{
    ControlMonitoring, DevicePlan, GroupingError, GroupingInput, GroupingMechanism, MulticastPlan,
};

/// The Single Cell – Point To Multipoint baseline.
///
/// SC-PTM is subscription-based: the eNB announces sessions on the SC-MCCH
/// control channel, which *every subscribed device must monitor
/// periodically* — on top of its normal paging — to learn about upcoming
/// transmissions. This periodic monitoring is exactly why the paper (and
/// its reference \[3\]) judge SC-PTM inefficient for NB-IoT: the light-sleep
/// cost accrues continuously, even when no multicast ever happens.
///
/// Reception itself is connectionless (SC-MTCH), so no random access is
/// needed: the session-start announcement carries the transmission time and
/// every device wakes for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScPtm {
    /// SC-MCCH monitoring/modification period.
    pub mcch_period: SimDuration,
    /// Light-sleep time spent per SC-MCCH monitoring occasion.
    pub mcch_occasion: SimDuration,
}

impl Default for ScPtm {
    fn default() -> Self {
        ScPtm {
            // One SC-MCCH modification period of 10.24 s — the longest
            // standard value, i.e. the most favourable for SC-PTM.
            mcch_period: SimDuration::from_ms(10_240),
            mcch_occasion: SimDuration::from_ms(4),
        }
    }
}

impl ScPtm {
    /// Creates the baseline with default SC-MCCH settings.
    pub fn new() -> ScPtm {
        ScPtm::default()
    }
}

impl GroupingMechanism for ScPtm {
    fn name(&self) -> String {
        "SC-PTM".to_string()
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
        // Announcement lands on the next SC-MCCH occasion after the content
        // arrives; the session starts one modification period later.
        let period = self.mcch_period.as_ms();
        let announce_ms = params.start.as_ms().div_ceil(period).max(1) * period;
        let t = SimInstant::from_ms(announce_ms) + self.mcch_period;

        let device_plans: Vec<DevicePlan> = input
            .ids()
            .iter()
            .map(|&id| DevicePlan {
                device: id,
                page: None,
                mltc: None,
                adaptation: None,
                connect_at: None, // connectionless SC-MTCH reception
                receives_at: t,
            })
            .collect();
        let transmissions = transmission_to_all(t, &device_plans);
        // No session, nothing to announce on SC-MCCH.
        let control_monitoring = (!transmissions.is_empty()).then_some(ControlMonitoring {
            period: self.mcch_period,
            per_occasion: self.mcch_occasion,
        });
        Ok(MulticastPlan {
            mechanism: self.name(),
            standards_compliant: true,
            requires_connection: false,
            transmissions,
            device_plans,
            horizon: TimeWindow::new(params.start, t),
            control_monitoring,
            improvement: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingParams;
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(n: usize, seed: u64) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = TrafficMix::ericsson_city().generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = ScPtm::new().plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    #[test]
    fn single_connectionless_transmission() {
        let (input, plan) = plan_for(50, 1);
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1);
        assert!(!plan.requires_connection);
        assert!(plan.device_plans.iter().all(|p| p.connect_at.is_none()));
    }

    #[test]
    fn transmission_is_fast_not_waiting_for_drx() {
        // SC-PTM does not wait 2 * maxDRX: the announcement mechanism is
        // the periodic SC-MCCH, so delivery happens within two periods.
        let (_, plan) = plan_for(50, 2);
        let t = plan.single_transmission_time().unwrap();
        assert!(t <= SimInstant::from_ms(2 * 10_240 + 10_240));
    }

    #[test]
    fn control_monitoring_is_advertised() {
        let (_, plan) = plan_for(10, 3);
        let cm = plan.control_monitoring.expect("SC-PTM monitors SC-MCCH");
        assert_eq!(cm.period, SimDuration::from_ms(10_240));
        assert!(!cm.per_occasion.is_zero());
    }
}
