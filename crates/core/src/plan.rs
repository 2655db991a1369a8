//! Multicast plans: the declarative output of every grouping mechanism.
//!
//! A plan is the hand-off point between the planning layer (this crate —
//! for DR-SC that means the [`crate::set_cover`] kernels) and the
//! execution layer (`nbiot-sim`), which replays it event by event; the
//! full pipeline is drawn in `docs/ARCHITECTURE.md`.

use core::fmt;

use nbiot_time::{PagingCycle, SimDuration, SimInstant, TimeWindow};
use nbiot_traffic::DeviceId;

use crate::{GroupingInput, PlanViolation};

/// One multicast transmission: an instant and the devices it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Transmission {
    /// Transmission instant (`t` — the end of a `TI` coverage window).
    pub at: SimInstant,
    /// Devices that receive the payload in this transmission.
    pub recipients: Vec<DeviceId>,
}

/// An ordinary page (a `PagingRecordList` entry) delivered at a device's
/// paging occasion, instructing it to connect for downlink data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PageDirective {
    /// The paging occasion at which the page is delivered.
    pub po: SimInstant,
}

/// A DR-SI `mltc-transmission` notification and the resulting T322 wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MltcDirective {
    /// The paging occasion at which the extended page is delivered.
    pub po: SimInstant,
    /// The uniformly drawn T322 expiry in `[t − TI, t)`.
    pub wake_at: SimInstant,
    /// `time remaining` field carried in the extension.
    pub time_remaining: SimDuration,
}

/// A DA-SC DRX adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdaptationDirective {
    /// The device's last natural PO before `t − TI`, where it is paged and
    /// reconfigured (paper Fig. 5: the adaptation point).
    pub page_po: SimInstant,
    /// The temporarily applied shorter cycle.
    pub new_cycle: PagingCycle,
    /// The adapted PO inside `[t − TI, t)` where the device is paged for
    /// the data.
    pub landing_po: SimInstant,
    /// Number of adapted-cycle POs the device monitors (from the first
    /// adapted PO up to and including the landing PO) — the extra
    /// light-sleep cost of Fig. 6(a).
    pub monitored_adapted_pos: u64,
}

/// Periodic control-channel monitoring imposed on every device (SC-PTM's
/// SC-MCCH), on top of normal paging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ControlMonitoring {
    /// Monitoring period.
    pub period: SimDuration,
    /// Time spent per monitoring occasion.
    pub per_occasion: SimDuration,
}

/// Everything one device does during the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DevicePlan {
    /// The device.
    pub device: DeviceId,
    /// Ordinary page for data reception, if any.
    pub page: Option<PageDirective>,
    /// DR-SI notification, if any.
    pub mltc: Option<MltcDirective>,
    /// DA-SC adaptation, if any.
    pub adaptation: Option<AdaptationDirective>,
    /// When the device starts random access to receive the data: the
    /// instant of its page PO or its T322 wake (`None` for connectionless
    /// reception, e.g. SC-PTM).
    pub connect_at: Option<SimInstant>,
    /// The transmission instant that serves this device.
    pub receives_at: SimInstant,
}

/// A complete multicast delivery plan.
///
/// Plans are *declarative*: they state when each transmission happens and
/// what every device does; `nbiot-sim` turns them into events and energy
/// ledgers. [`MulticastPlan::validate`] checks the structural invariants
/// every correct mechanism must uphold.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MulticastPlan {
    /// Mechanism name (e.g. `"DR-SC"`).
    pub mechanism: String,
    /// Whether the plan uses only TS 36.331-compliant signalling.
    pub standards_compliant: bool,
    /// Whether devices must RRC-connect to receive the payload
    /// (`false` for SC-PTM's connectionless SC-MTCH reception).
    pub requires_connection: bool,
    /// All multicast transmissions, sorted by time.
    pub transmissions: Vec<Transmission>,
    /// Per-device actions: one per group member, in device order.
    pub device_plans: Vec<DevicePlan>,
    /// The campaign span `[start, last transmission]` (payload airtime is
    /// appended by the simulator).
    pub horizon: TimeWindow,
    /// Extra periodic control monitoring (SC-PTM only).
    pub control_monitoring: Option<ControlMonitoring>,
    /// Anytime-improvement metrics when the plan went through a
    /// [`crate::improve`] pass (`DR-SC-tabu` and LNS repair); `None` for
    /// one-shot constructive plans.
    pub improvement: Option<crate::ImprovementStats>,
}

impl MulticastPlan {
    /// Number of multicast transmissions — the paper's bandwidth proxy
    /// (Fig. 7).
    pub fn transmission_count(&self) -> usize {
        self.transmissions.len()
    }

    /// The single transmission instant, when the plan has exactly one
    /// transmission.
    pub fn single_transmission_time(&self) -> Option<SimInstant> {
        match self.transmissions.as_slice() {
            [only] => Some(only.at),
            _ => None,
        }
    }

    /// Mean over devices of the waiting time between connecting and the
    /// serving transmission (the `TI/2`-on-average overhead of Fig. 6(b)).
    pub fn mean_wait(&self) -> SimDuration {
        let waits: Vec<u64> = self
            .device_plans
            .iter()
            .filter_map(|p| {
                p.connect_at
                    .map(|c| p.receives_at.saturating_duration_since(c).as_ms())
            })
            .collect();
        if waits.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_ms(waits.iter().sum::<u64>() / waits.len() as u64)
        }
    }

    /// Checks every structural invariant the campaign engine relies on,
    /// against the input the plan was computed from.
    ///
    /// The checks, in the order they run, and the engine assumption each
    /// one protects:
    ///
    /// 1. **Transmissions are sorted by time**
    ///    ([`PlanViolation::UnsortedTransmissions`]): plans are replayed
    ///    in time order, and check 5 binary-searches the transmissions.
    /// 2. **Every recipient is a group member**
    ///    ([`PlanViolation::UnknownRecipient`]): the engine resolves each
    ///    recipient to its device position before charging its ledger.
    /// 3. **One device plan per group member, in device order**
    ///    ([`PlanViolation::DeviceOrder`]): the engine pairs device plans
    ///    with the input's columns (schedules, paging identities, ledgers)
    ///    by position.
    /// 4. **Every device is served exactly once**
    ///    ([`PlanViolation::NotExactlyOnce`]): one delivery, one ledger
    ///    charge per device.
    /// 5. **`receives_at` is the instant of the transmission listing the
    ///    device** ([`PlanViolation::UnknownTransmission`] when no
    ///    transmission happens then, [`PlanViolation::NotExactlyOnce`]
    ///    with `times: 0` when the transmissions then do not list it): the
    ///    engine restores adapted cycles and accounts natural POs from the
    ///    serving instant.
    /// 6. **Connection within `TI` before the transmission**
    ///    ([`PlanViolation::InactivityViolated`]): a device that connects
    ///    earlier is released before the data arrives.
    /// 7. **Nothing happens before the campaign start**
    ///    ([`PlanViolation::BeforeStart`]): the analytic PO accounting
    ///    starts there.
    /// 8. **A connection-requiring plan connects each device at exactly
    ///    one trigger, equal to `connect_at`**
    ///    ([`PlanViolation::ConnectionTrigger`]): the trigger is the page PO
    ///    or the T322 wake; the engine takes the connection that trigger
    ///    opened when the serving transmission starts, and checks 6 and 8
    ///    together place the trigger before (or at) that transmission.
    /// 9. **The compliance flag matches the signalling**
    ///    ([`PlanViolation::ComplianceMismatch`]): only `mltc` directives
    ///    are non-standard.
    ///
    /// Check 4 covers every device before checks 5–8 run; each reports
    /// the first failing device in device order.
    ///
    /// Cost: O(n + R log n) time and O(n) space, where n is the group
    /// size and R the total number of recipients — one pass over the
    /// recipient lists (each resolved with [`GroupingInput::position_of`])
    /// and one over the device plans, both indexed by device position,
    /// with no hash map.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanViolation`] found.
    pub fn validate(&self, input: &GroupingInput) -> Result<(), PlanViolation> {
        // 1. Transmissions sorted.
        if self.transmissions.windows(2).any(|w| w[0].at > w[1].at) {
            return Err(PlanViolation::UnsortedTransmissions);
        }
        // 2. Recipient pass: resolve each recipient to its device position,
        //    count it and record the instant that serves it.
        let n = input.len();
        let mut served = vec![0usize; n];
        let mut served_at = vec![SimInstant::ZERO; n];
        for tx in &self.transmissions {
            for &device in &tx.recipients {
                let i = input
                    .position_of(device)
                    .ok_or(PlanViolation::UnknownRecipient { device })?;
                served[i] += 1;
                served_at[i] = tx.at;
            }
        }
        // 3. One device plan per member, in device order.
        let ids = input.ids();
        let plans = self.device_plans.len();
        let mismatch = self
            .device_plans
            .iter()
            .zip(ids)
            .position(|(dp, &id)| dp.device != id)
            .or((plans != n).then(|| plans.min(n)));
        if let Some(index) = mismatch {
            return Err(PlanViolation::DeviceOrder { index });
        }
        // 4. Every device served exactly once.
        if let Some(i) = served.iter().position(|&times| times != 1) {
            return Err(PlanViolation::NotExactlyOnce {
                device: ids[i],
                times: served[i],
            });
        }
        // 5.–8. Device pass.
        let ti = input.params().ti.duration();
        let start = input.params().start;
        for (dp, &at) in self.device_plans.iter().zip(&served_at) {
            // 5. `receives_at` names the serving transmission. The
            //    transmissions are only searched to tell a dangling
            //    instant from one whose transmissions omit the device.
            if dp.receives_at != at {
                let exists = self
                    .transmissions
                    .binary_search_by_key(&dp.receives_at, |tx| tx.at)
                    .is_ok();
                return Err(if exists {
                    PlanViolation::NotExactlyOnce {
                        device: dp.device,
                        times: 0,
                    }
                } else {
                    PlanViolation::UnknownTransmission {
                        device: dp.device,
                        receives_at: dp.receives_at,
                    }
                });
            }
            // 6. Inactivity-timer discipline: the device must connect within
            //    TI before (or exactly at) the transmission.
            if let Some(connect_at) = dp.connect_at {
                let lower = dp.receives_at.saturating_sub(ti);
                if connect_at < lower || connect_at > dp.receives_at {
                    return Err(PlanViolation::InactivityViolated {
                        device: dp.device,
                        connect_at,
                        receives_at: dp.receives_at,
                    });
                }
            }
            // 7. Nothing happens before the campaign start.
            let earliest = [
                dp.page.map(|p| p.po),
                dp.mltc.map(|m| m.po),
                dp.adaptation.map(|a| a.page_po),
                dp.connect_at,
            ]
            .into_iter()
            .flatten()
            .min();
            if let Some(e) = earliest {
                if e < start {
                    return Err(PlanViolation::BeforeStart { device: dp.device });
                }
            }
            // 8. Exactly one connection trigger, at `connect_at`.
            if self.requires_connection {
                let trigger = match (dp.page, dp.mltc) {
                    (Some(page), None) => Some(page.po),
                    (None, Some(mltc)) => Some(mltc.wake_at),
                    _ => None,
                };
                if trigger.is_none() || trigger != dp.connect_at {
                    return Err(PlanViolation::ConnectionTrigger { device: dp.device });
                }
            }
        }
        // 9. Compliance flag consistency: only a plan that carries mltc
        //    directives may be non-compliant and vice versa.
        let uses_mltc = self.device_plans.iter().any(|p| p.mltc.is_some());
        if uses_mltc == self.standards_compliant {
            return Err(PlanViolation::ComplianceMismatch);
        }
        Ok(())
    }
}

impl fmt::Display for MulticastPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} transmission(s) for {} device(s), horizon {}",
            self.mechanism,
            self.transmissions.len(),
            self.device_plans.len(),
            self.horizon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingParams;
    use nbiot_time::{DrxCycle, PagingCycle};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_input() -> GroupingInput {
        let pop = TrafficMix::uniform(PagingCycle::Drx(DrxCycle::Rf256))
            .generate(2, &mut StdRng::seed_from_u64(0))
            .unwrap();
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    fn valid_plan(input: &GroupingInput) -> MulticastPlan {
        let t = SimInstant::from_secs(30);
        let devices: Vec<DeviceId> = input.ids().to_vec();
        MulticastPlan {
            mechanism: "TEST".to_string(),
            standards_compliant: true,
            requires_connection: true,
            transmissions: vec![Transmission {
                at: t,
                recipients: devices.clone(),
            }],
            device_plans: devices
                .iter()
                .map(|&d| DevicePlan {
                    device: d,
                    page: Some(PageDirective {
                        po: t - SimDuration::from_secs(5),
                    }),
                    mltc: None,
                    adaptation: None,
                    connect_at: Some(t - SimDuration::from_secs(5)),
                    receives_at: t,
                })
                .collect(),
            horizon: TimeWindow::new(SimInstant::ZERO, t),
            control_monitoring: None,
            improvement: None,
        }
    }

    #[test]
    fn valid_plan_passes() {
        let input = tiny_input();
        assert_eq!(valid_plan(&input).validate(&input), Ok(()));
    }

    #[test]
    fn duplicate_recipient_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        let dup = plan.transmissions[0].recipients[0];
        plan.transmissions[0].recipients.push(dup);
        assert!(matches!(
            plan.validate(&input),
            Err(PlanViolation::NotExactlyOnce { times: 2, .. })
        ));
    }

    #[test]
    fn missing_recipient_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        plan.transmissions[0].recipients.pop();
        assert!(matches!(
            plan.validate(&input),
            Err(PlanViolation::NotExactlyOnce { times: 0, .. })
        ));
    }

    #[test]
    fn late_connection_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        // Connecting a full TI + 1 s before the transmission: timer expires.
        let t = plan.device_plans[0].receives_at;
        plan.device_plans[0].connect_at =
            Some(t - input.params().ti.duration() - SimDuration::from_secs(1));
        assert!(matches!(
            plan.validate(&input),
            Err(PlanViolation::InactivityViolated { .. })
        ));
    }

    #[test]
    fn unsorted_transmissions_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        let mut early = plan.transmissions[0].clone();
        early.at = SimInstant::from_secs(1);
        early.recipients.clear();
        plan.transmissions.push(early); // later element with earlier time
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::UnsortedTransmissions)
        );
    }

    #[test]
    fn dangling_reference_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        plan.device_plans[0].receives_at = SimInstant::from_secs(999);
        assert!(matches!(
            plan.validate(&input),
            Err(PlanViolation::UnknownTransmission { .. })
        ));
    }

    #[test]
    fn compliance_mismatch_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        plan.standards_compliant = false; // claims non-compliant, no mltc used
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::ComplianceMismatch)
        );
    }

    #[test]
    fn action_before_start_detected() {
        let pop = TrafficMix::uniform(PagingCycle::Drx(DrxCycle::Rf256))
            .generate(2, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let params = GroupingParams {
            start: SimInstant::from_secs(10),
            ..GroupingParams::default()
        };
        let input = GroupingInput::from_population(&pop, params).unwrap();
        let mut plan = valid_plan(&input);
        plan.device_plans[0].page = Some(PageDirective {
            po: SimInstant::from_secs(1),
        });
        assert!(matches!(
            plan.validate(&input),
            Err(PlanViolation::BeforeStart { .. })
        ));
    }

    #[test]
    fn device_order_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        plan.device_plans.reverse();
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::DeviceOrder { index: 0 })
        );
        // A missing trailing plan is a mismatch at the end of the prefix.
        let mut plan = valid_plan(&input);
        plan.device_plans.pop();
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::DeviceOrder { index: 1 })
        );
    }

    #[test]
    fn unknown_recipient_detected() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        let foreign = DeviceId(9999);
        assert_eq!(input.position_of(foreign), None);
        plan.transmissions[0].recipients.push(foreign);
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::UnknownRecipient { device: foreign })
        );
    }

    #[test]
    fn connection_trigger_detected() {
        let input = tiny_input();
        let device = input.ids()[0];
        // No trigger at all.
        let mut plan = valid_plan(&input);
        plan.device_plans[0].page = None;
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::ConnectionTrigger { device })
        );
        // A page that disagrees with connect_at (still inside TI).
        let mut plan = valid_plan(&input);
        let connect_at = plan.device_plans[0].connect_at.unwrap();
        plan.device_plans[0].page = Some(PageDirective {
            po: connect_at - SimDuration::from_secs(1),
        });
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::ConnectionTrigger { device })
        );
        // Two triggers: a page and a T322 wake.
        let mut plan = valid_plan(&input);
        plan.standards_compliant = false;
        plan.device_plans[0].mltc = Some(MltcDirective {
            po: connect_at,
            wake_at: connect_at,
            time_remaining: SimDuration::from_secs(5),
        });
        assert_eq!(
            plan.validate(&input),
            Err(PlanViolation::ConnectionTrigger { device })
        );
        // Connectionless plans carry no trigger.
        let mut plan = valid_plan(&input);
        plan.requires_connection = false;
        for dp in &mut plan.device_plans {
            dp.page = None;
            dp.connect_at = None;
        }
        assert_eq!(plan.validate(&input), Ok(()));
    }

    #[test]
    fn mean_wait_average() {
        let input = tiny_input();
        let mut plan = valid_plan(&input);
        plan.device_plans[0].connect_at = Some(plan.device_plans[0].receives_at);
        // one waits 0 s, the other 5 s -> mean 2.5 s
        assert_eq!(plan.mean_wait(), SimDuration::from_ms(2500));
    }

    #[test]
    fn single_transmission_time() {
        let input = tiny_input();
        let plan = valid_plan(&input);
        assert_eq!(
            plan.single_transmission_time(),
            Some(SimInstant::from_secs(30))
        );
    }
}
