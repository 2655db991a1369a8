//! Device-class mixes.

use core::fmt;

use rand::Rng;

use nbiot_phy::CoverageClass;
use nbiot_time::{DrxCycle, EdrxCycle, PagingConfig, PagingCycle, SimDuration, UeId};

use crate::{ClassId, DeviceId, DeviceProfile, Population, TrafficError};

/// One device class of a traffic mix: a population share, a distribution of
/// paging cycles, and a background uplink reporting interval.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClassSpec {
    /// Human-readable class name (e.g. `electricity-meter`).
    pub name: String,
    /// Relative share of the population (normalized across the mix).
    pub share: f64,
    /// Weighted paging-cycle options for devices of this class.
    pub cycles: Vec<(PagingCycle, f64)>,
    /// Mean interval between background uplink reports.
    pub report_interval: SimDuration,
    /// Coverage-enhancement class of this device class — a property of
    /// where the model gets installed (basement meters sit in CE1/CE2,
    /// street-level infrastructure in CE0), not a per-device draw, so
    /// adding it leaves generated populations numerically unchanged.
    pub coverage: CoverageClass,
}

impl ClassSpec {
    /// Creates a class with a single paging cycle in normal (CE0)
    /// coverage.
    pub fn new(
        name: impl Into<String>,
        share: f64,
        cycle: PagingCycle,
        report_interval: SimDuration,
    ) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            share,
            cycles: vec![(cycle, 1.0)],
            report_interval,
            coverage: CoverageClass::default(),
        }
    }

    /// Returns the class with its coverage-enhancement class replaced.
    #[must_use]
    pub fn with_coverage(mut self, coverage: CoverageClass) -> ClassSpec {
        self.coverage = coverage;
        self
    }

    fn validate(&self) -> Result<(), TrafficError> {
        if self.share <= 0.0 {
            return Err(TrafficError::NonPositiveWeight {
                class: self.name.clone(),
            });
        }
        if self.cycles.is_empty() {
            return Err(TrafficError::NoCycles {
                class: self.name.clone(),
            });
        }
        for (cycle, w) in &self.cycles {
            if *w <= 0.0 {
                return Err(TrafficError::NonPositiveWeight {
                    class: self.name.clone(),
                });
            }
            PagingConfig {
                cycle: *cycle,
                nb: Default::default(),
            }
            .validate()?;
        }
        Ok(())
    }

    fn sample_cycle<R: Rng + ?Sized>(&self, rng: &mut R) -> PagingCycle {
        let total: f64 = self.cycles.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for (cycle, w) in &self.cycles {
            if x < *w {
                return *cycle;
            }
            x -= w;
        }
        self.cycles.last().expect("validated non-empty").0
    }
}

/// A weighted collection of device classes describing a cell's population.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrafficMix {
    /// Mix name, for reporting.
    pub name: String,
    classes: Vec<ClassSpec>,
}

impl TrafficMix {
    /// Creates a mix from explicit classes.
    ///
    /// # Errors
    ///
    /// Returns a [`TrafficError`] when the class list is empty or any class
    /// is invalid.
    pub fn new(
        name: impl Into<String>,
        classes: Vec<ClassSpec>,
    ) -> Result<TrafficMix, TrafficError> {
        if classes.is_empty() {
            return Err(TrafficError::EmptyMix);
        }
        for c in &classes {
            c.validate()?;
        }
        Ok(TrafficMix {
            name: name.into(),
            classes,
        })
    }

    /// The classes of this mix.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// The city-scale massive-IoT mix used as the default experiment
    /// population, modelled after the device categories of the Ericsson
    /// *Massive IoT in the City* white paper the evaluation section cites.
    ///
    /// The mix is bimodal, as a city deployment is: commandable
    /// infrastructure (street lights, alarm panels, asset trackers) sits on
    /// short reachability-oriented cycles (2.56 s DRX to 40.96 s eDRX),
    /// while battery-for-a-decade metering — the bulk of the population —
    /// sleeps on the longest eDRX cycles (87 min to 175 min). The exact
    /// shares were calibrated so that the DR-SC transmission curve
    /// reproduces the shape of the paper's Fig. 7 (≈50 % of N at N = 100
    /// declining to ≈40 % at N = 1000); `docs/SCENARIOS.md` records the
    /// choice.
    pub fn ericsson_city() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "ericsson-city",
            vec![
                ClassSpec::new(
                    "street-light",
                    0.22,
                    PagingCycle::edrx(EdrxCycle::Hf2), // 20.48 s
                    h * 24,
                ),
                ClassSpec::new(
                    "alarm-actuator",
                    0.09,
                    PagingCycle::Drx(DrxCycle::Rf256), // 2.56 s
                    h * 24,
                ),
                ClassSpec::new(
                    "asset-tracker",
                    0.11,
                    PagingCycle::edrx(EdrxCycle::Hf4), // 40.96 s
                    SimDuration::from_secs(900),
                ),
                ClassSpec::new(
                    "environment-sensor",
                    0.05,
                    PagingCycle::edrx(EdrxCycle::Hf512), // 5242.88 s
                    h,
                ),
                ClassSpec::new(
                    "electricity-meter",
                    0.27,
                    PagingCycle::edrx(EdrxCycle::Hf1024), // 10485.76 s
                    h * 24,
                ),
                ClassSpec::new(
                    "water-meter",
                    0.17,
                    PagingCycle::edrx(EdrxCycle::Hf1024),
                    h * 24,
                ),
                ClassSpec::new(
                    "gas-meter",
                    0.09,
                    PagingCycle::edrx(EdrxCycle::Hf1024),
                    h * 24,
                ),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A clustered, heterogeneous mix: the population is dominated by a
    /// few tight device clusters, each with its *own* internal cycle
    /// spread, modelling NOMA-style user clustering (Shahini & Ansari,
    /// *NOMA Aided Narrowband IoT for MTC with User Clustering*). Unlike
    /// `ericsson-city`'s smooth bimodal shape, the clusters put large
    /// same-cycle cohorts on the grouping mechanisms — the regime where
    /// frame-level set cover either collapses to a handful of
    /// transmissions or fragments badly.
    pub fn clustered_heterogeneous() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "clustered-heterogeneous",
            vec![
                // Cluster A: dense metering block on one long cycle with a
                // thin spill-over into the neighbouring cycle.
                ClassSpec {
                    name: "meter-cluster".into(),
                    share: 0.45,
                    cycles: vec![
                        (PagingCycle::edrx(EdrxCycle::Hf512), 0.85),
                        (PagingCycle::edrx(EdrxCycle::Hf1024), 0.15),
                    ],
                    report_interval: h * 24,
                    coverage: CoverageClass::Normal,
                },
                // Cluster B: mid-cycle tracker fleet, internally split
                // between two adjacent eDRX settings.
                ClassSpec {
                    name: "tracker-cluster".into(),
                    share: 0.3,
                    cycles: vec![
                        (PagingCycle::edrx(EdrxCycle::Hf16), 0.6),
                        (PagingCycle::edrx(EdrxCycle::Hf32), 0.4),
                    ],
                    report_interval: SimDuration::from_secs(900),
                    coverage: CoverageClass::Normal,
                },
                // Cluster C: reachability cohort on short regular DRX.
                ClassSpec {
                    name: "actuator-cluster".into(),
                    share: 0.2,
                    cycles: vec![
                        (PagingCycle::Drx(DrxCycle::Rf128), 0.5),
                        (PagingCycle::Drx(DrxCycle::Rf256), 0.5),
                    ],
                    report_interval: h * 24,
                    coverage: CoverageClass::Normal,
                },
                // A thin unclustered tail keeps the instance from being
                // perfectly coverable by three windows.
                ClassSpec {
                    name: "stragglers".into(),
                    share: 0.05,
                    cycles: vec![
                        (PagingCycle::edrx(EdrxCycle::Hf128), 0.5),
                        (PagingCycle::edrx(EdrxCycle::Hf256), 0.5),
                    ],
                    report_interval: h,
                    coverage: CoverageClass::Normal,
                },
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A bursty alarm-dominated mix: most of the population are alarm
    /// panels and sirens on short reachability cycles that all become
    /// pageable nearly simultaneously — the synchronized-access regime of
    /// grouping-based RACH collision control (Han & Schotten,
    /// *Grouping-Based Random Access Collision Control for Massive MTC*).
    /// Combine with a raised `ra_contenders` simulation setting to stress
    /// random access under a correlated burst.
    pub fn bursty_alarm() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "bursty-alarm",
            vec![
                ClassSpec::new(
                    "alarm-panel",
                    0.40,
                    PagingCycle::Drx(DrxCycle::Rf256), // 2.56 s
                    h * 24,
                ),
                ClassSpec::new(
                    "siren",
                    0.20,
                    PagingCycle::Drx(DrxCycle::Rf128), // 1.28 s
                    h * 24,
                ),
                ClassSpec::new(
                    "door-sensor",
                    0.25,
                    PagingCycle::edrx(EdrxCycle::Hf2), // 20.48 s
                    h * 12,
                ),
                // A small metering tail so the sweep still exercises the
                // long-cycle search horizon.
                ClassSpec::new(
                    "backup-meter",
                    0.15,
                    PagingCycle::edrx(EdrxCycle::Hf512),
                    h * 24,
                ),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A mobility-heavy mix for the churn scenario family: the population
    /// is dominated by devices that physically move — vehicle trackers,
    /// wearables and shared micromobility on short-to-mid reachability
    /// cycles — over a thin static metering tail. Under a
    /// [`ChurnModel`](crate::ChurnModel) the mobile majority is exactly
    /// the cohort that departs, arrives and hands over, so grouping plans
    /// computed at campaign start go stale mid-campaign (the regime of
    /// Pizzi et al.'s sidelink-aided mobile multicast).
    pub fn mobility_churn() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "mobility-churn",
            vec![
                ClassSpec::new(
                    "vehicle-tracker",
                    0.35,
                    PagingCycle::edrx(EdrxCycle::Hf4), // 40.96 s
                    SimDuration::from_secs(900),
                ),
                ClassSpec::new(
                    "wearable",
                    0.25,
                    PagingCycle::edrx(EdrxCycle::Hf16), // 163.84 s
                    SimDuration::from_secs(1800),
                ),
                ClassSpec::new(
                    "shared-scooter",
                    0.20,
                    PagingCycle::Drx(DrxCycle::Rf256), // 2.56 s
                    SimDuration::from_secs(600),
                ),
                // The static anchor: long-cycle meters that never move,
                // keeping the long-horizon search path exercised.
                ClassSpec::new(
                    "parking-sensor",
                    0.20,
                    PagingCycle::edrx(EdrxCycle::Hf512), // 5242.88 s
                    h * 24,
                ),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A handover-storm mix: almost the whole population is vehicular or
    /// transit-mounted on short reachability cycles, the cohort that
    /// re-registers en masse when a train passes a cell edge or a road
    /// closes — the synchronized re-registration burst of grouping-based
    /// access-control studies (Han & Schotten). Pair with a
    /// [`ChurnModel`](crate::ChurnModel) carrying a high handover rate.
    pub fn handover_storm() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "handover-storm",
            vec![
                ClassSpec::new(
                    "commuter-vehicle",
                    0.50,
                    PagingCycle::Drx(DrxCycle::Rf256), // 2.56 s
                    SimDuration::from_secs(300),
                ),
                ClassSpec::new(
                    "transit-tracker",
                    0.30,
                    PagingCycle::edrx(EdrxCycle::Hf2), // 20.48 s
                    SimDuration::from_secs(600),
                ),
                // Fixed roadside infrastructure: present through every
                // storm, on a mid eDRX cycle.
                ClassSpec::new(
                    "roadside-unit",
                    0.20,
                    PagingCycle::edrx(EdrxCycle::Hf128), // 1310.72 s
                    h * 12,
                ),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A metering-only mix for the massive-n scale tier: every class sits
    /// on a long eDRX cycle (87 min down to 22 min), so the number of
    /// paging occasions per device over a campaign horizon stays small
    /// (2–16) and engine event counts scale as ~4·n rather than the
    /// ~280·n a street-light class on Hf2 would impose at n = 10^6. This
    /// is also the regime the paper's premise names: massive MTC is
    /// battery-constrained metering, not commandable infrastructure.
    pub fn massive_metering() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "massive-metering",
            vec![
                ClassSpec::new(
                    "electricity-meter",
                    0.55,
                    PagingCycle::edrx(EdrxCycle::Hf1024), // 10485.76 s
                    h * 24,
                ),
                ClassSpec::new(
                    "water-meter",
                    0.25,
                    PagingCycle::edrx(EdrxCycle::Hf512), // 5242.88 s
                    h * 24,
                ),
                ClassSpec::new(
                    "gas-meter",
                    0.12,
                    PagingCycle::edrx(EdrxCycle::Hf256), // 2621.44 s
                    h * 24,
                ),
                ClassSpec::new(
                    "heat-allocator",
                    0.08,
                    PagingCycle::edrx(EdrxCycle::Hf128), // 1310.72 s
                    h * 12,
                ),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// A metering estate spread across coverage-enhancement classes —
    /// the regime where cover *quality* is airtime, not transmission
    /// count (Andres-Maldonado et al. quantify the per-class repetition
    /// cost). Street-level infrastructure sits in CE0, basement meters in
    /// CE1 and pit/manhole sensors in CE2 (~70/20/10), all on long eDRX
    /// cycles so the weighted and unweighted covers genuinely diverge:
    /// windows exist that cover only cheap CE0 cohorts, and the
    /// ratio-greedy kernel routes around the repetition-heavy ones.
    pub fn heterogeneous_coverage() -> TrafficMix {
        let h = SimDuration::from_secs(3600);
        TrafficMix::new(
            "heterogeneous-coverage",
            vec![
                ClassSpec {
                    name: "street-meter".into(),
                    share: 0.50,
                    cycles: vec![
                        (PagingCycle::edrx(EdrxCycle::Hf512), 0.7),
                        (PagingCycle::edrx(EdrxCycle::Hf1024), 0.3),
                    ],
                    report_interval: h * 24,
                    coverage: CoverageClass::Normal,
                },
                ClassSpec::new(
                    "courtyard-sensor",
                    0.20,
                    PagingCycle::edrx(EdrxCycle::Hf128), // 1310.72 s
                    h * 12,
                ),
                ClassSpec {
                    name: "basement-meter".into(),
                    share: 0.20,
                    cycles: vec![
                        (PagingCycle::edrx(EdrxCycle::Hf512), 0.5),
                        (PagingCycle::edrx(EdrxCycle::Hf1024), 0.5),
                    ],
                    report_interval: h * 24,
                    coverage: CoverageClass::Robust,
                },
                ClassSpec::new(
                    "manhole-sensor",
                    0.10,
                    PagingCycle::edrx(EdrxCycle::Hf1024), // 10485.76 s
                    h * 24,
                )
                .with_coverage(CoverageClass::Extreme),
            ],
        )
        .expect("built-in mix is valid")
    }

    /// Names of the registered built-in mixes, selectable by
    /// [`TrafficMix::by_name`] (and the figure binaries' `--mix` flag).
    pub const REGISTRY: [&'static str; 9] = [
        "ericsson-city",
        "clustered-heterogeneous",
        "bursty-alarm",
        "mobility-churn",
        "handover-storm",
        "massive-metering",
        "heterogeneous-coverage",
        "short-drx",
        "uniform-edrx",
    ];

    /// Looks up a registered built-in mix by name.
    ///
    /// Returns `None` for unknown names; callers that surface errors to
    /// users should list [`TrafficMix::REGISTRY`].
    pub fn by_name(name: &str) -> Option<TrafficMix> {
        match name {
            "ericsson-city" => Some(TrafficMix::ericsson_city()),
            "clustered-heterogeneous" => Some(TrafficMix::clustered_heterogeneous()),
            "bursty-alarm" => Some(TrafficMix::bursty_alarm()),
            "mobility-churn" => Some(TrafficMix::mobility_churn()),
            "handover-storm" => Some(TrafficMix::handover_storm()),
            "massive-metering" => Some(TrafficMix::massive_metering()),
            "heterogeneous-coverage" => Some(TrafficMix::heterogeneous_coverage()),
            "short-drx" => Some(TrafficMix::short_drx()),
            "uniform-edrx" => {
                let mut mix = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf1024));
                mix.name = "uniform-edrx".into();
                Some(mix)
            }
            _ => None,
        }
    }

    /// A degenerate mix where every device uses the same cycle — useful for
    /// analytical cross-checks and ablations.
    pub fn uniform(cycle: PagingCycle) -> TrafficMix {
        TrafficMix::new(
            "uniform",
            vec![ClassSpec::new(
                "uniform",
                1.0,
                cycle,
                SimDuration::from_secs(3600),
            )],
        )
        .expect("uniform mix is valid")
    }

    /// A mix of regular-DRX devices only (no eDRX) — the LTE-like corner.
    pub fn short_drx() -> TrafficMix {
        TrafficMix::new(
            "short-drx",
            DrxCycle::ALL
                .iter()
                .map(|&d| {
                    ClassSpec::new(
                        format!("drx-{}", d.frames()),
                        1.0,
                        PagingCycle::Drx(d),
                        SimDuration::from_secs(600),
                    )
                })
                .collect(),
        )
        .expect("short-drx mix is valid")
    }

    /// Samples one device from the mix under the given identity — the
    /// per-device half of [`TrafficMix::generate`], also used by
    /// [`ChurnModel`](crate::ChurnModel) to admit arrivals mid-campaign.
    ///
    /// Draw order (class, cycle, UE identity) is the generation order, so
    /// `generate` remains bit-identical to its historical behaviour.
    ///
    /// # Errors
    ///
    /// [`TrafficError::EmptyMix`] when the mix has no classes.
    pub fn sample_device<R: Rng + ?Sized>(
        &self,
        id: DeviceId,
        rng: &mut R,
    ) -> Result<DeviceProfile, TrafficError> {
        if self.classes.is_empty() {
            return Err(TrafficError::EmptyMix);
        }
        let total_share: f64 = self.classes.iter().map(|c| c.share).sum();
        let mut x = rng.gen_range(0.0..total_share);
        let mut class_idx = self.classes.len() - 1;
        for (ci, c) in self.classes.iter().enumerate() {
            if x < c.share {
                class_idx = ci;
                break;
            }
            x -= c.share;
        }
        let class = &self.classes[class_idx];
        let cycle = class.sample_cycle(rng);
        Ok(DeviceProfile {
            id,
            ue: UeId(rng.gen()),
            class: ClassId(class_idx),
            paging: PagingConfig {
                cycle,
                nb: Default::default(),
            },
            report_interval: class.report_interval,
        })
    }

    /// Generates a population of `n` devices.
    ///
    /// Device class, paging cycle and UE identity are all drawn from `rng`,
    /// so populations are reproducible from the seed.
    ///
    /// # Errors
    ///
    /// Returns a [`TrafficError`] when the mix is structurally invalid
    /// (cannot happen for the built-in mixes).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Population, TrafficError> {
        if self.classes.is_empty() {
            return Err(TrafficError::EmptyMix);
        }
        // Devices land straight in the population's columns: no
        // intermediate AoS Vec, so generation allocates the five column
        // buffers once regardless of n. Draw order per device is
        // unchanged (class, cycle, UE identity), keeping populations
        // bit-identical to the historical AoS path.
        let mut pop = Population::with_capacity(
            self.name.clone(),
            self.classes.iter().map(|c| c.name.clone()).collect(),
            n,
        );
        pop.set_class_coverages(self.classes.iter().map(|c| c.coverage).collect());
        for i in 0..n {
            pop.push(self.sample_device(DeviceId(i as u32), rng)?);
        }
        Ok(pop)
    }
}

impl fmt::Display for TrafficMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} classes)", self.name, self.classes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_mix_rejected() {
        assert_eq!(TrafficMix::new("x", vec![]), Err(TrafficError::EmptyMix));
    }

    #[test]
    fn bad_share_rejected() {
        let err = TrafficMix::new(
            "x",
            vec![ClassSpec::new(
                "c",
                0.0,
                PagingCycle::Drx(DrxCycle::Rf32),
                SimDuration::from_secs(1),
            )],
        )
        .unwrap_err();
        assert!(matches!(err, TrafficError::NonPositiveWeight { .. }));
    }

    #[test]
    fn class_without_cycles_rejected() {
        let err = TrafficMix::new(
            "x",
            vec![ClassSpec {
                name: "c".into(),
                share: 1.0,
                cycles: vec![],
                report_interval: SimDuration::from_secs(1),
                coverage: CoverageClass::Normal,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, TrafficError::NoCycles { .. }));
    }

    #[test]
    fn city_mix_shares_roughly_hold() {
        let mix = TrafficMix::ericsson_city();
        let mut rng = StdRng::seed_from_u64(42);
        let pop = mix.generate(10_000, &mut rng).unwrap();
        let alarms = pop
            .iter()
            .filter(|d| pop.class_name(d.class) == "alarm-actuator")
            .count();
        // 9 % +- 1 % of 10k.
        assert!((800..=1000).contains(&alarms), "alarms {alarms}");
    }

    #[test]
    fn generation_is_reproducible() {
        let mix = TrafficMix::ericsson_city();
        let a = mix.generate(100, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = mix.generate(100, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(a, b);
        let c = mix.generate(100, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_mix_is_single_cycle() {
        let mix = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf16));
        let pop = mix.generate(50, &mut StdRng::seed_from_u64(3)).unwrap();
        assert!(pop
            .iter()
            .all(|d| d.paging.cycle.period_frames() == EdrxCycle::Hf16.frames()));
    }

    #[test]
    fn short_drx_mix_has_no_edrx() {
        let mix = TrafficMix::short_drx();
        let pop = mix.generate(200, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(pop.iter().all(|d| !d.paging.cycle.is_edrx()));
    }

    #[test]
    fn weighted_cycles_within_class_are_sampled() {
        // Build a custom class with a 60/40 cycle split and check the
        // sampler honours the weights.
        let mix = TrafficMix::new(
            "split",
            vec![ClassSpec {
                name: "meters".into(),
                share: 1.0,
                cycles: vec![
                    (PagingCycle::edrx(EdrxCycle::Hf512), 0.6),
                    (PagingCycle::edrx(EdrxCycle::Hf1024), 0.4),
                ],
                report_interval: SimDuration::from_secs(3600),
                coverage: CoverageClass::Normal,
            }],
        )
        .unwrap();
        let pop = mix.generate(5000, &mut StdRng::seed_from_u64(5)).unwrap();
        let (hf512, hf1024): (usize, usize) =
            pop.iter()
                .fold((0, 0), |(a, b), d| match d.paging.cycle.period_frames() {
                    524288 => (a + 1, b),
                    1048576 => (a, b + 1),
                    other => panic!("unexpected cycle {other}"),
                });
        assert!(hf512 > hf1024, "60/40 split expected: {hf512} vs {hf1024}");
        assert!((2700..=3300).contains(&hf512), "hf512 {hf512}");
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in TrafficMix::REGISTRY {
            let mix = TrafficMix::by_name(name)
                .unwrap_or_else(|| panic!("registered mix {name} must resolve"));
            assert_eq!(mix.name, name, "registry name must match the mix name");
            // Every registered mix generates a valid population.
            let pop = mix.generate(50, &mut StdRng::seed_from_u64(7)).unwrap();
            assert_eq!(pop.len(), 50);
        }
        assert!(TrafficMix::by_name("no-such-mix").is_none());
    }

    #[test]
    fn clustered_mix_has_dominant_same_cycle_cohorts() {
        let mix = TrafficMix::clustered_heterogeneous();
        let pop = mix.generate(4000, &mut StdRng::seed_from_u64(11)).unwrap();
        // The meter cluster's dominant cycle (Hf512) should be the single
        // largest cohort: 0.45 share * 0.85 weight ≈ 38 % of devices.
        let hf512 = pop
            .iter()
            .filter(|d| d.paging.cycle.period_frames() == EdrxCycle::Hf512.frames())
            .count();
        assert!(
            (1200..=1900).contains(&hf512),
            "dominant cohort should be ~38%: {hf512}/4000"
        );
    }

    #[test]
    fn bursty_alarm_mix_is_short_cycle_dominated() {
        let mix = TrafficMix::bursty_alarm();
        let pop = mix.generate(2000, &mut StdRng::seed_from_u64(13)).unwrap();
        let short = pop
            .iter()
            .filter(|d| d.paging.cycle.period().as_secs_f64() <= 21.0)
            .count();
        assert!(
            short >= 1600,
            "alarm mix should be ≥80% short-cycle devices: {short}/2000"
        );
    }

    #[test]
    fn mobility_mix_is_mobile_majority() {
        // ≈80 % of the mobility-churn population should sit on mobile
        // classes (tracker/wearable/scooter), the cohort churn targets.
        let mix = TrafficMix::mobility_churn();
        let pop = mix.generate(2000, &mut StdRng::seed_from_u64(17)).unwrap();
        let mobile = pop
            .iter()
            .filter(|d| pop.class_name(d.class) != "parking-sensor")
            .count();
        assert!((1450..=1750).contains(&mobile), "mobile {mobile}/2000");
    }

    #[test]
    fn handover_storm_mix_is_short_cycle_vehicular() {
        let mix = TrafficMix::handover_storm();
        let pop = mix.generate(2000, &mut StdRng::seed_from_u64(19)).unwrap();
        let short = pop
            .iter()
            .filter(|d| d.paging.cycle.period().as_secs_f64() <= 21.0)
            .count();
        assert!(
            short >= 1400,
            "storm mix should be ≥70% short-cycle devices: {short}/2000"
        );
    }

    #[test]
    fn massive_metering_mix_is_long_cycle_only() {
        // The scale-tier mix must keep paging occasions per device small:
        // every class sits on an eDRX cycle of at least Hf128 (~22 min).
        let mix = TrafficMix::massive_metering();
        let pop = mix.generate(2000, &mut StdRng::seed_from_u64(23)).unwrap();
        assert!(pop
            .iter()
            .all(|d| d.paging.cycle.period_frames() >= EdrxCycle::Hf128.frames()));
        // Dominated by the longest cycle, like a real metering estate.
        let hf1024 = pop
            .iter()
            .filter(|d| d.paging.cycle.period_frames() == EdrxCycle::Hf1024.frames())
            .count();
        assert!((900..=1300).contains(&hf1024), "hf1024 {hf1024}/2000");
    }

    #[test]
    fn heterogeneous_coverage_mix_spreads_classes() {
        let mix = TrafficMix::heterogeneous_coverage();
        let pop = mix.generate(4000, &mut StdRng::seed_from_u64(29)).unwrap();
        // The coverage table follows the class specs, in class order.
        assert_eq!(
            pop.class_coverages(),
            &[
                CoverageClass::Normal,
                CoverageClass::Normal,
                CoverageClass::Robust,
                CoverageClass::Extreme,
            ]
        );
        // ~70/20/10 split over devices.
        let mut by_cov = [0usize; 3];
        for d in pop.iter() {
            by_cov[pop.coverage_of(d.class) as usize] += 1;
        }
        assert!((2500..=3100).contains(&by_cov[0]), "CE0 {by_cov:?}");
        assert!((600..=1000).contains(&by_cov[1]), "CE1 {by_cov:?}");
        assert!((250..=550).contains(&by_cov[2]), "CE2 {by_cov:?}");
        // Coverage is class-level, not drawn from the RNG: the device
        // stream must be identical to a coverage-less twin of the mix.
        let mut twin = mix.clone();
        for c in &mut twin.classes {
            c.coverage = CoverageClass::Normal;
        }
        let twin_pop = twin.generate(100, &mut StdRng::seed_from_u64(31)).unwrap();
        let pop100 = mix.generate(100, &mut StdRng::seed_from_u64(31)).unwrap();
        assert_eq!(twin_pop.profiles(), pop100.profiles());
    }

    #[test]
    fn coverage_defaults_to_normal_for_plain_classes() {
        let mix = TrafficMix::ericsson_city();
        assert!(mix
            .classes()
            .iter()
            .all(|c| c.coverage == CoverageClass::Normal));
        let pop = mix.generate(10, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(pop
            .class_coverages()
            .iter()
            .all(|&c| c == CoverageClass::Normal));
    }

    #[test]
    fn sample_device_matches_generate_stream() {
        // generate() is defined as repeated sample_device() calls; the
        // refactor must keep historical populations bit-identical.
        let mix = TrafficMix::ericsson_city();
        let pop = mix.generate(40, &mut StdRng::seed_from_u64(21)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for (i, expected) in pop.iter().enumerate() {
            let sampled = mix.sample_device(DeviceId(i as u32), &mut rng).unwrap();
            assert_eq!(sampled, expected, "device {i}");
        }
    }

    #[test]
    fn city_mix_is_bimodal() {
        // The calibrated city mix: a short-cycle reachability mode
        // (<= 41 s) and a long-cycle metering mode (>= 87 min), nothing in
        // between except a thin environmental class.
        let mix = TrafficMix::ericsson_city();
        let pop = mix.generate(2000, &mut StdRng::seed_from_u64(9)).unwrap();
        let (short, long): (usize, usize) = pop.iter().fold((0, 0), |(s, l), d| {
            let secs = d.paging.cycle.period().as_secs_f64();
            if secs <= 41.0 {
                (s + 1, l)
            } else if secs >= 5000.0 {
                (s, l + 1)
            } else {
                (s, l)
            }
        });
        assert!(short > 700, "short {short}");
        assert!(long > 1000, "long {long}");
    }
}
