//! Device churn: population evolution across campaign epochs.
//!
//! The paper evaluates its grouping mechanisms over *static* populations:
//! the group that is planned for is exactly the group that receives the
//! payload. Real cells churn — devices power down or leave the cell
//! (departures), fresh devices register (arrivals), and mobile devices
//! hand over and re-register with a new paging identity (handovers, the
//! regime of sidelink-aided mobile multicast and grouping-based access
//! control). A [`ChurnModel`] captures that churn as per-epoch rates and
//! evolves a [`Population`] deterministically from an RNG stream, so a
//! churned campaign is exactly as reproducible as a static one.
//!
//! What churn breaks is the *plan*: a multicast plan pages devices at
//! paging occasions derived from their planning-time UE identities, so
//! an arrival (never planned for) or a handover (planned POs now wrong)
//! is missed by a stale plan until the mechanism re-plans. The simulator
//! layer (`nbiot-sim`) owns that staleness accounting and the re-grouping
//! policies; this module owns only the population process.

use nbiot_time::UeId;
use rand::Rng;

use crate::{DeviceId, DeviceProfile, Population, TrafficError, TrafficMix};

/// One observable fleet-membership change — the churn vocabulary as a
/// replayable event.
///
/// [`ChurnModel::step_recorded`] emits these alongside the evolved
/// population, and [`FleetEvent::apply`] replays them onto a population
/// one at a time. The two views are equivalent by construction: applying
/// a step's events to the pre-step population yields a fleet
/// *bit-identical* to the evolved population the step returned (locked by
/// tests here and by the service-level replay-equivalence proptests).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FleetEvent {
    /// A new device registered with the cell (a churn arrival).
    Register(DeviceProfile),
    /// The device departed the cell (powered down or left coverage).
    Depart(DeviceId),
    /// The device handed over and re-registered under a fresh paging
    /// identity, moving its paging occasions.
    Handover {
        /// Which device re-registered.
        device: DeviceId,
        /// Its new paging identity.
        ue: UeId,
    },
}

impl FleetEvent {
    /// Replays this event onto `pop`.
    ///
    /// Ordering follows the churn process: departures and handovers
    /// address devices already present, registrations append. Arrivals
    /// recorded by [`ChurnModel::step_recorded`] always carry fresh ids,
    /// so replaying a recorded stream never collides.
    ///
    /// # Errors
    ///
    /// [`TrafficError::UnknownDevice`] when a departure or handover names
    /// a device not in `pop`; [`TrafficError::DuplicateDevice`] when a
    /// registration re-uses an id already present.
    pub fn apply(&self, pop: &mut Population) -> Result<(), TrafficError> {
        match *self {
            FleetEvent::Register(device) => {
                if pop.position_of(device.id).is_some() {
                    return Err(TrafficError::DuplicateDevice { device: device.id });
                }
                pop.push(device);
                Ok(())
            }
            FleetEvent::Depart(device) => match pop.position_of(device) {
                Some(row) => {
                    pop.remove_row(row);
                    Ok(())
                }
                None => Err(TrafficError::UnknownDevice { device }),
            },
            FleetEvent::Handover { device, ue } => match pop.position_of(device) {
                Some(row) => {
                    pop.set_ue(row, ue);
                    Ok(())
                }
                None => Err(TrafficError::UnknownDevice { device }),
            },
        }
    }
}

/// Per-epoch population churn rates, applied at every epoch boundary of a
/// campaign.
///
/// Epoch 0 is the initial population; the model then applies `epochs`
/// boundary steps. Each step, in order:
///
/// 1. **departures** — every device independently leaves with probability
///    [`departure_rate`](ChurnModel::departure_rate) (a rate of 1 empties
///    the cell);
/// 2. **handovers** — every surviving device independently re-registers
///    with a fresh UE identity with probability
///    [`handover_rate`](ChurnModel::handover_rate), moving its paging
///    occasions while keeping its group membership;
/// 3. **arrivals** — one Bernoulli trial per *initial* device slot with
///    probability [`arrival_rate`](ChurnModel::arrival_rate) admits a new
///    device freshly sampled from the mix (so the expected arrival count
///    is `arrival_rate × initial size`, independent of how the population
///    has drifted).
///
/// All randomness comes from the RNG passed to [`ChurnModel::step`];
/// evolving the same population with the same stream reproduces the same
/// fleet, which is what keeps churned campaigns bit-identical across
/// thread and shard counts.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChurnModel {
    /// Number of epoch boundaries the population evolves across.
    pub epochs: u32,
    /// Per-epoch probability that a device departs (leaves the cell or
    /// powers down). In `[0, 1]`.
    pub departure_rate: f64,
    /// Expected per-epoch arrivals as a fraction of the initial
    /// population size. In `[0, 1]`.
    pub arrival_rate: f64,
    /// Per-epoch probability that a surviving device hands over and
    /// re-registers under a fresh paging identity. In `[0, 1]`.
    pub handover_rate: f64,
}

impl ChurnModel {
    /// The degenerate model: no epochs, no churn — behaviourally identical
    /// to a static population.
    pub const STATIC: ChurnModel = ChurnModel {
        epochs: 0,
        departure_rate: 0.0,
        arrival_rate: 0.0,
        handover_rate: 0.0,
    };

    /// Whether this model can never change a population (no epochs, or
    /// all rates zero).
    pub fn is_static(&self) -> bool {
        self.epochs == 0
            || (self.departure_rate == 0.0 && self.arrival_rate == 0.0 && self.handover_rate == 0.0)
    }

    /// Checks every rate is a probability (finite, in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidChurnRate`] naming the first offending rate.
    pub fn validate(&self) -> Result<(), TrafficError> {
        for (what, value) in [
            ("departure_rate", self.departure_rate),
            ("arrival_rate", self.arrival_rate),
            ("handover_rate", self.handover_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(TrafficError::InvalidChurnRate { what, value });
            }
        }
        Ok(())
    }

    /// Applies one epoch boundary to `pop`: departures, then handovers,
    /// then arrivals (see the type docs for the exact order). `base_size`
    /// anchors the arrival count (the initial population size);
    /// `next_id` is the allocator for fresh [`DeviceId`]s and is advanced
    /// by the number of arrivals, keeping identities unique across the
    /// whole campaign.
    ///
    /// Device order is preserved: survivors keep their relative order and
    /// arrivals are appended, so an initially id-sorted population stays
    /// id-sorted.
    ///
    /// # Errors
    ///
    /// [`ChurnModel::validate`] failures, or [`TrafficError::EmptyMix`]
    /// when arrivals are requested from a structurally empty mix.
    pub fn step<R: Rng + ?Sized>(
        &self,
        mix: &TrafficMix,
        pop: &Population,
        base_size: usize,
        next_id: &mut u32,
        rng: &mut R,
    ) -> Result<(Population, ChurnEvents), TrafficError> {
        let (evolved, events, _) = self.step_recorded(mix, pop, base_size, next_id, rng)?;
        Ok((evolved, events))
    }

    /// Like [`ChurnModel::step`], additionally recording each change as a
    /// [`FleetEvent`] in the order it happened (departures/handovers in
    /// device order, then arrivals).
    ///
    /// The RNG draw order is exactly [`ChurnModel::step`]'s — per
    /// surviving device: departure, then handover + fresh identity; then
    /// one arrival trial per initial slot — so the evolved population is
    /// bit-identical to the unrecorded path, and replaying the returned
    /// events onto a clone of `pop` with [`FleetEvent::apply`] reproduces
    /// it bit-identically too.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChurnModel::step`].
    pub fn step_recorded<R: Rng + ?Sized>(
        &self,
        mix: &TrafficMix,
        pop: &Population,
        base_size: usize,
        next_id: &mut u32,
        rng: &mut R,
    ) -> Result<(Population, ChurnEvents, Vec<FleetEvent>), TrafficError> {
        self.validate()?;
        let mut events = ChurnEvents::default();
        let mut log = Vec::new();
        // Survivors stream straight into the evolved population's columns
        // (no intermediate device Vec); the RNG draw order per device —
        // departure, then handover + fresh identity — is unchanged, so
        // evolved fleets stay bit-identical to the historical AoS path.
        let mut evolved = pop.empty_like(pop.len());
        for i in 0..pop.len() {
            if self.departure_rate > 0.0 && rng.gen_bool(self.departure_rate) {
                events.departures += 1;
                log.push(FleetEvent::Depart(pop.id(i)));
                continue;
            }
            let mut device = pop.device(i);
            if self.handover_rate > 0.0 && rng.gen_bool(self.handover_rate) {
                device.ue = UeId(rng.gen());
                events.handovers += 1;
                log.push(FleetEvent::Handover {
                    device: device.id,
                    ue: device.ue,
                });
            }
            evolved.push(device);
        }
        if self.arrival_rate > 0.0 {
            for _ in 0..base_size {
                if rng.gen_bool(self.arrival_rate) {
                    let device = mix.sample_device(DeviceId(*next_id), rng)?;
                    evolved.push(device);
                    log.push(FleetEvent::Register(device));
                    *next_id += 1;
                    events.arrivals += 1;
                }
            }
        }
        Ok((evolved, events, log))
    }
}

/// What one [`ChurnModel::step`] did to the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChurnEvents {
    /// Devices that joined the cell this epoch.
    pub arrivals: usize,
    /// Devices that left the cell this epoch.
    pub departures: usize,
    /// Devices that re-registered under a fresh paging identity.
    pub handovers: usize,
}

impl ChurnEvents {
    /// Whether nothing happened this epoch (the plan stayed exact).
    pub fn is_quiet(&self) -> bool {
        self.arrivals == 0 && self.departures == 0 && self.handovers == 0
    }

    /// Total membership/identity changes this epoch.
    pub fn total(&self) -> usize {
        self.arrivals + self.departures + self.handovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize, seed: u64) -> Population {
        TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    fn churny() -> ChurnModel {
        ChurnModel {
            epochs: 4,
            departure_rate: 0.2,
            arrival_rate: 0.2,
            handover_rate: 0.3,
        }
    }

    #[test]
    fn static_model_changes_nothing() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(50, 1);
        let mut next_id = 50;
        let (evolved, events) = ChurnModel::STATIC
            .step(&mix, &p, 50, &mut next_id, &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert!(events.is_quiet());
        assert_eq!(events.total(), 0);
        assert_eq!(evolved, p);
        assert_eq!(next_id, 50);
        assert!(ChurnModel::STATIC.is_static());
        assert!(!churny().is_static());
        // Rates of zero are static even with epochs configured.
        let zero_rates = ChurnModel {
            epochs: 5,
            ..ChurnModel::STATIC
        };
        assert!(zero_rates.is_static());
    }

    #[test]
    fn step_is_reproducible_from_the_stream() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(80, 3);
        let run = || {
            let mut next_id = 80;
            churny()
                .step(&mix, &p, 80, &mut next_id, &mut StdRng::seed_from_u64(7))
                .unwrap()
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(a, b);
        assert_eq!(ea, eb);
        assert!(ea.total() > 0, "churny rates on 80 devices must churn");
    }

    #[test]
    fn departures_shrink_and_arrivals_grow_the_population() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(200, 4);
        let mut next_id = 200;
        let depart_only = ChurnModel {
            epochs: 1,
            departure_rate: 0.5,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        };
        let (shrunk, ev) = depart_only
            .step(&mix, &p, 200, &mut next_id, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(shrunk.len(), 200 - ev.departures);
        assert!(ev.departures > 50, "{ev:?}");
        let arrive_only = ChurnModel {
            epochs: 1,
            departure_rate: 0.0,
            arrival_rate: 0.5,
            handover_rate: 0.0,
        };
        let (grown, ev2) = arrive_only
            .step(
                &mix,
                &shrunk,
                200,
                &mut next_id,
                &mut StdRng::seed_from_u64(10),
            )
            .unwrap();
        assert_eq!(grown.len(), shrunk.len() + ev2.arrivals);
        assert!(ev2.arrivals > 50, "{ev2:?}");
        assert_eq!(next_id, 200 + ev2.arrivals as u32);
    }

    #[test]
    fn handover_changes_identity_but_not_membership() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(120, 5);
        let mut next_id = 120;
        let handover_only = ChurnModel {
            epochs: 1,
            departure_rate: 0.0,
            arrival_rate: 0.0,
            handover_rate: 0.5,
        };
        let (evolved, ev) = handover_only
            .step(&mix, &p, 120, &mut next_id, &mut StdRng::seed_from_u64(11))
            .unwrap();
        assert_eq!(evolved.len(), 120);
        assert!(ev.handovers > 30, "{ev:?}");
        let changed = evolved
            .iter()
            .zip(p.iter())
            .filter(|(after, before)| after.ue != before.ue)
            .count();
        assert_eq!(changed, ev.handovers);
        // Everything but the paging identity is preserved.
        for (after, before) in evolved.iter().zip(p.iter()) {
            assert_eq!(after.id, before.id);
            assert_eq!(after.class, before.class);
            assert_eq!(after.paging.cycle, before.paging.cycle);
        }
    }

    #[test]
    fn ids_stay_unique_and_sorted_across_epochs() {
        let mix = TrafficMix::ericsson_city();
        let mut current = pop(60, 6);
        let mut next_id = 60;
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..6 {
            let (evolved, _) = churny()
                .step(&mix, &current, 60, &mut next_id, &mut rng)
                .unwrap();
            current = evolved;
            let ids: Vec<u32> = current.iter().map(|d| d.id.0).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ids, sorted, "ids must stay unique and ascending");
            assert!(!current.is_empty());
        }
    }

    #[test]
    fn total_departure_empties_the_fleet() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(10, 7);
        let mut next_id = 10;
        let apocalypse = ChurnModel {
            epochs: 1,
            departure_rate: 1.0,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        };
        let (evolved, ev) = apocalypse
            .step(&mix, &p, 10, &mut next_id, &mut StdRng::seed_from_u64(15))
            .unwrap();
        assert!(evolved.is_empty());
        assert_eq!(ev.departures, 10);
    }

    #[test]
    fn recorded_step_matches_step_bit_for_bit() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(150, 21);
        let mut id_a = 150;
        let (plain, ev_plain) = churny()
            .step(&mix, &p, 150, &mut id_a, &mut StdRng::seed_from_u64(22))
            .unwrap();
        let mut id_b = 150;
        let (recorded, ev_rec, log) = churny()
            .step_recorded(&mix, &p, 150, &mut id_b, &mut StdRng::seed_from_u64(22))
            .unwrap();
        assert_eq!(plain, recorded);
        assert_eq!(ev_plain, ev_rec);
        assert_eq!(id_a, id_b);
        assert_eq!(log.len(), ev_rec.total());
    }

    #[test]
    fn replaying_recorded_events_reproduces_the_evolved_fleet() {
        let mix = TrafficMix::ericsson_city();
        let mut current = pop(90, 23);
        let mut next_id = 90;
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..5 {
            let (evolved, _, log) = churny()
                .step_recorded(&mix, &current, 90, &mut next_id, &mut rng)
                .unwrap();
            let mut replayed = current.clone();
            for event in &log {
                event.apply(&mut replayed).unwrap();
            }
            assert_eq!(replayed, evolved, "replay must be bit-identical");
            current = evolved;
        }
    }

    #[test]
    fn apocalypse_recording_records_every_departure() {
        let mix = TrafficMix::ericsson_city();
        let p = pop(10, 25);
        let mut next_id = 10;
        let apocalypse = ChurnModel {
            epochs: 1,
            departure_rate: 1.0,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        };
        let (evolved, ev, log) = apocalypse
            .step_recorded(&mix, &p, 10, &mut next_id, &mut StdRng::seed_from_u64(26))
            .unwrap();
        assert!(evolved.is_empty());
        assert_eq!(ev.departures, 10);
        let departed: Vec<_> = (0..10).map(|i| FleetEvent::Depart(DeviceId(i))).collect();
        assert_eq!(log, departed);
        let mut replayed = p.clone();
        for event in &log {
            event.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed, evolved);
    }

    #[test]
    fn apply_rejects_unknown_and_duplicate_devices() {
        let mut p = pop(5, 27);
        let err = FleetEvent::Depart(DeviceId(42)).apply(&mut p).unwrap_err();
        assert!(matches!(
            err,
            TrafficError::UnknownDevice {
                device: DeviceId(42)
            }
        ));
        let err = FleetEvent::Handover {
            device: DeviceId(42),
            ue: nbiot_time::UeId(1),
        }
        .apply(&mut p)
        .unwrap_err();
        assert!(matches!(err, TrafficError::UnknownDevice { .. }));
        let dup = p.device(0);
        let err = FleetEvent::Register(dup).apply(&mut p).unwrap_err();
        assert!(matches!(
            err,
            TrafficError::DuplicateDevice {
                device: DeviceId(0)
            }
        ));
        assert_eq!(p.len(), 5, "failed events must not mutate the fleet");
    }

    #[test]
    fn invalid_rates_are_rejected() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let model = ChurnModel {
                epochs: 1,
                departure_rate: bad,
                arrival_rate: 0.0,
                handover_rate: 0.0,
            };
            assert!(
                matches!(
                    model.validate(),
                    Err(TrafficError::InvalidChurnRate {
                        what: "departure_rate",
                        ..
                    })
                ),
                "{bad}"
            );
        }
        assert!(churny().validate().is_ok());
    }

    #[test]
    fn arrivals_are_sampled_from_the_mix_classes() {
        let mix = TrafficMix::bursty_alarm();
        let p = mix.generate(100, &mut StdRng::seed_from_u64(8)).unwrap();
        let mut next_id = 100;
        let arrive = ChurnModel {
            epochs: 1,
            departure_rate: 0.0,
            arrival_rate: 0.4,
            handover_rate: 0.0,
        };
        let (evolved, ev) = arrive
            .step(&mix, &p, 100, &mut next_id, &mut StdRng::seed_from_u64(16))
            .unwrap();
        assert!(ev.arrivals > 10);
        for d in evolved.iter().skip(100) {
            assert!(d.id.0 >= 100, "arrival ids come from the allocator");
            // Arrivals belong to one of the mix's classes.
            assert!(d.class.0 < mix.classes().len());
        }
    }
}
