//! One mechanism, one population, one campaign.
//!
//! This is the planning→execution seam drawn in `docs/ARCHITECTURE.md`:
//! the mechanism's `plan` call (for DR-SC, the set-cover kernels of
//! `docs/KERNELS.md`) runs here, inside every (point × run) work item of
//! the scenario scheduler — so a faster cover solver speeds up every
//! sweep, suite and shard transparently.

use rand::RngCore;

use nbiot_grouping::{GroupingInput, GroupingMechanism};

use crate::{engine, CampaignResult, SimConfig, SimError};

/// Plans and executes one multicast campaign.
///
/// The mechanism's plan is validated against the input before execution,
/// so a buggy mechanism implementation fails loudly instead of producing
/// nonsense metrics — or panicking the engine: every assumption the engine
/// makes about a plan is one of
/// [`MulticastPlan::validate`](nbiot_grouping::MulticastPlan::validate)'s
/// checks.
///
/// # Errors
///
/// * [`SimError::Grouping`] when the mechanism cannot serve the group,
/// * [`SimError::InvalidPlan`] when the produced plan violates a structural
///   invariant (a mechanism bug). Besides the delivery invariants this
///   covers the engine's indexing assumptions:
///   [`DeviceOrder`](nbiot_grouping::PlanViolation::DeviceOrder) (device
///   plans not one per member in device order),
///   [`UnknownRecipient`](nbiot_grouping::PlanViolation::UnknownRecipient)
///   (a recipient outside the group) and
///   [`ConnectionTrigger`](nbiot_grouping::PlanViolation::ConnectionTrigger)
///   (a device not connected at exactly one page or wake trigger equal to
///   its `connect_at`).
///
/// # Example
///
/// ```
/// use nbiot_grouping::{DaSc, GroupingInput, GroupingParams};
/// use nbiot_sim::{run_campaign, SimConfig};
/// use nbiot_traffic::TrafficMix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pop = TrafficMix::ericsson_city().generate(30, &mut rng)?;
/// let input = GroupingInput::from_population(&pop, GroupingParams::default())?;
/// let result = run_campaign(&DaSc::new(), &input, &SimConfig::default(), &mut rng)?;
/// assert_eq!(result.transmission_count, 1); // DA-SC: single transmission
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_campaign(
    mechanism: &dyn GroupingMechanism,
    input: &GroupingInput,
    config: &SimConfig,
    rng: &mut dyn RngCore,
) -> Result<CampaignResult, SimError> {
    let plan = mechanism.plan(input, rng)?;
    plan.validate(input)?;
    Ok(engine::execute(input, &plan, config, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_grouping::{
        DaSc, DrSc, DrSi, GroupingError, GroupingParams, MechanismKind, MulticastPlan,
        PageDirective, PlanViolation, ScPtm, Unicast,
    };
    use nbiot_time::SimDuration;
    use nbiot_traffic::{DeviceId, TrafficMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(n: usize, seed: u64) -> GroupingInput {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    #[test]
    fn all_mechanisms_execute() {
        let input = input(60, 1);
        let cfg = SimConfig::default();
        for kind in MechanismKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let res = run_campaign(kind.instantiate().as_ref(), &input, &cfg, &mut rng).unwrap();
            assert_eq!(res.device_count(), 60, "{kind}");
            assert!(res.transmission_count >= 1, "{kind}");
        }
    }

    #[test]
    fn dr_sc_light_sleep_equals_unicast_exactly() {
        // The paper's headline Fig. 6(a) claim.
        let input = input(80, 2);
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(10);
        let unicast = run_campaign(&Unicast::new(), &input, &cfg, &mut rng).unwrap();
        let dr_sc = run_campaign(&DrSc::new(), &input, &cfg, &mut rng).unwrap();
        for (a, b) in dr_sc.ledgers.iter().zip(&unicast.ledgers) {
            assert_eq!(a.light_sleep(), b.light_sleep());
        }
    }

    #[test]
    fn dr_si_connects_each_device_once() {
        let input = input(50, 3);
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        let res = run_campaign(&DrSi::new(), &input, &cfg, &mut rng).unwrap();
        for ledger in &res.ledgers {
            assert_eq!(ledger.random_accesses, 1);
            assert_eq!(ledger.pagings_received, 1);
        }
    }

    #[test]
    fn scptm_needs_no_random_access() {
        let input = input(40, 4);
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(12);
        let res = run_campaign(&ScPtm::new(), &input, &cfg, &mut rng).unwrap();
        assert!(res.ledgers.iter().all(|l| l.random_accesses == 0));
        // ... but pays for SC-MCCH monitoring in light sleep, making it far
        // costlier than paging-based mechanisms on that axis.
        let mut rng2 = StdRng::seed_from_u64(12);
        let unicast = run_campaign(&Unicast::new(), &input, &cfg, &mut rng2).unwrap();
        assert!(res.mean_light_sleep_ms() > unicast.mean_light_sleep_ms());
    }

    #[test]
    fn campaign_is_reproducible() {
        let input = input(30, 5);
        let cfg = SimConfig::default();
        let run = || {
            let mut rng = StdRng::seed_from_u64(77);
            run_campaign(&DrSi::new(), &input, &cfg, &mut rng).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.ledgers, b.ledgers);
        assert_eq!(a.transmission_count, b.transmission_count);
    }

    #[test]
    fn channel_serialization_penalizes_unicast_not_single_tx() {
        let input = input(80, 6);
        let ideal = SimConfig::default();
        let serialized = SimConfig {
            serialize_channel: true,
            ..SimConfig::default()
        };
        // Unicast: 80 back-to-back transfers congest the single carrier,
        // so devices queue and connected uptime grows substantially.
        let mut rng = StdRng::seed_from_u64(20);
        let uni_ideal = run_campaign(&Unicast::new(), &input, &ideal, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        let uni_serial = run_campaign(&Unicast::new(), &input, &serialized, &mut rng).unwrap();
        assert!(
            uni_serial.mean_connected_ms() > 1.5 * uni_ideal.mean_connected_ms(),
            "serialized {} vs ideal {}",
            uni_serial.mean_connected_ms(),
            uni_ideal.mean_connected_ms()
        );
        // A single multicast transmission never queues: identical results.
        let mut rng = StdRng::seed_from_u64(21);
        let dasc_ideal = run_campaign(&DaSc::new(), &input, &ideal, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let dasc_serial = run_campaign(&DaSc::new(), &input, &serialized, &mut rng).unwrap();
        assert_eq!(dasc_ideal.ledgers, dasc_serial.ledgers);
    }

    /// DA-SC with its plan edited after planning: a stand-in for a buggy
    /// mechanism.
    struct Tampered(fn(&mut MulticastPlan));

    impl GroupingMechanism for Tampered {
        fn name(&self) -> String {
            "tampered DA-SC".to_string()
        }

        fn is_standards_compliant(&self) -> bool {
            true
        }

        fn plan(
            &self,
            input: &GroupingInput,
            rng: &mut dyn RngCore,
        ) -> Result<MulticastPlan, GroupingError> {
            let mut plan = DaSc::new().plan(input, rng)?;
            (self.0)(&mut plan);
            Ok(plan)
        }
    }

    #[test]
    fn tampered_plans_are_rejected_before_execution() {
        // Each tamper breaks an assumption of the engine: executed, the
        // plan would panic it or charge the wrong ledgers.
        let input = input(4, 8);
        let first = input.ids()[0];
        let cases: [(&str, Tampered, PlanViolation); 5] = [
            (
                "reversed device plans",
                Tampered(|plan| plan.device_plans.reverse()),
                PlanViolation::DeviceOrder { index: 0 },
            ),
            (
                "last member dropped",
                Tampered(|plan| {
                    let last = plan.device_plans.pop().unwrap().device;
                    plan.transmissions[0].recipients.retain(|&r| r != last);
                }),
                PlanViolation::DeviceOrder { index: 3 },
            ),
            (
                "foreign device",
                Tampered(|plan| {
                    let member =
                        std::mem::replace(&mut plan.device_plans[3].device, DeviceId(9999));
                    for r in &mut plan.transmissions[0].recipients {
                        if *r == member {
                            *r = DeviceId(9999);
                        }
                    }
                }),
                PlanViolation::UnknownRecipient {
                    device: DeviceId(9999),
                },
            ),
            (
                "page removed",
                Tampered(|plan| plan.device_plans[0].page = None),
                PlanViolation::ConnectionTrigger { device: first },
            ),
            (
                "page 40 s before connect_at",
                Tampered(|plan| {
                    let dp = &mut plan.device_plans[0];
                    let po = dp.connect_at.unwrap() - SimDuration::from_secs(40);
                    dp.page = Some(PageDirective { po });
                }),
                PlanViolation::ConnectionTrigger { device: first },
            ),
        ];
        for (label, mechanism, violation) in cases {
            let mut rng = StdRng::seed_from_u64(13);
            let outcome = run_campaign(&mechanism, &input, &SimConfig::default(), &mut rng);
            assert_eq!(
                outcome.map(|r| r.ledgers),
                Err(SimError::InvalidPlan(violation)),
                "{label}"
            );
        }
    }

    #[test]
    fn serialized_channel_never_overlaps_transfers() {
        // With serialization on, total data airtime fits the horizon
        // extension and late_joins accounting stays sane.
        let input = input(50, 7);
        let cfg = SimConfig {
            serialize_channel: true,
            ..SimConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(30);
        let res = run_campaign(&DrSc::new(), &input, &cfg, &mut rng).unwrap();
        assert!(res.transmission_count >= 1);
        // Every device still received the full payload.
        let transfer = res.transfer.duration;
        assert!(res
            .ledgers
            .iter()
            .all(|l| l.time_in(nbiot_energy::PowerState::ConnectedReceiving) >= transfer));
    }
}
