//! Declarative experiment scenarios.
//!
//! A [`Scenario`] is the whole description of an experiment suite — the
//! traffic mix, the device sweep, the payload variants, the mechanism set,
//! the grouping/protocol parameters and the repetition count — as one
//! serializable value. [`run_scenario`] executes it through the generic
//! (point × run) scheduler, so one thread pool spans the entire grid, each
//! run's population is generated exactly once, and every result is
//! bit-identical for any thread count.
//!
//! Built-in scenarios live in the registry ([`Scenario::builtin`]); custom
//! ones round-trip through serde (the `figures` binary loads them from
//! JSON or TOML files).

use nbiot_energy::PowerProfile;
use nbiot_grouping::{GroupingParams, MechanismKind};
use nbiot_phy::{DataSize, Itbs, Nsf};
use nbiot_rrc::InactivityTimer;
use nbiot_time::SimDuration;
use nbiot_traffic::{ChurnModel, TrafficMix};

use crate::experiment::{execute_grid_subset, fold_grid};
use crate::{ComparisonResult, RegroupPolicy, SimConfig, SimError, SimField};

/// A declarative experiment workload: everything needed to reproduce a
/// figure or a sensitivity study, as one serializable value.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Scenario {
    /// Scenario name, used for reporting and file naming.
    pub name: String,
    /// One-line description shown by the `figures` driver.
    pub description: String,
    /// Device population mix.
    pub mix: TrafficMix,
    /// Device sweep points (group sizes), one grid row each.
    pub devices: Vec<usize>,
    /// Payload variants, one grid column each; populations and plans are
    /// shared across them within a run.
    pub payloads: Vec<DataSize>,
    /// Mechanism set, in presentation order.
    pub mechanisms: Vec<MechanismKind>,
    /// Repetitions per grid point (the paper uses 100).
    pub runs: u32,
    /// Master seed; every run derives its own independent streams.
    pub master_seed: u64,
    /// Grouping parameters (start, TI, optional transmission override).
    pub grouping: GroupingParams,
    /// PHY/protocol configuration; each payload variant overrides only the
    /// payload size of this base config.
    pub sim: SimConfig,
    /// Power profile for the supplementary energy metric.
    pub power: PowerProfile,
    /// Compare mechanisms against a per-run unicast baseline. Disable for
    /// sweeps that only need absolute counts (saves the baseline's cost;
    /// the relative metrics are then zero).
    pub baseline: bool,
    /// Population churn across campaign epochs (`None` = static
    /// population, the paper's evaluation regime). See
    /// `docs/SCENARIOS.md` for the model.
    pub churn: Option<ChurnModel>,
    /// When to re-plan on the churned population (ignored without churn).
    pub regroup: RegroupPolicy,
    /// Worker threads (`0` = all cores, `1` = serial); results are
    /// bit-identical for every setting.
    pub threads: usize,
}

impl Default for Scenario {
    /// The paper's default point: ericsson-city, 500 devices, 100 kB.
    fn default() -> Self {
        Scenario {
            name: "default".into(),
            description: "paper default point (ericsson-city, 500 devices, 100 kB)".into(),
            mix: TrafficMix::ericsson_city(),
            devices: vec![500],
            payloads: vec![DataSize::from_kb(100)],
            mechanisms: MechanismKind::PAPER_MECHANISMS.to_vec(),
            runs: 100,
            master_seed: 0x4E42_494F_5421, // "NBIOT!"
            grouping: GroupingParams::default(),
            sim: SimConfig::default(),
            power: PowerProfile::default(),
            baseline: true,
            churn: None,
            regroup: RegroupPolicy::Never,
            threads: 0,
        }
    }
}

impl Scenario {
    /// Names of the registered built-in scenarios, resolvable by
    /// [`Scenario::builtin`] (and the `figures` binary's `--scenario`).
    pub const REGISTRY: [&'static str; 14] = [
        "fig6a",
        "fig6b",
        "fig7",
        "paper-suite",
        "clustered",
        "bursty-alarm",
        "large-n-stress",
        "massive-n",
        "weighted-airtime",
        "short-drx",
        "mobility-churn",
        "handover-storm",
        "planning-pareto",
        "churn-repair",
    ];

    /// Resolves a registered built-in scenario by name.
    ///
    /// Returns `None` for unknown names; callers that surface errors to
    /// users should list [`Scenario::REGISTRY`].
    pub fn builtin(name: &str) -> Option<Scenario> {
        let fig7_sizes: Vec<usize> = (1..=10).map(|k| k * 100).collect();
        let s = match name {
            "fig6a" => Scenario {
                name: "fig6a".into(),
                description: "Fig. 6(a): relative light-sleep uptime increase vs unicast".into(),
                ..Scenario::default()
            },
            "fig6b" => Scenario {
                name: "fig6b".into(),
                description:
                    "Fig. 6(b): relative connected-mode uptime increase vs unicast, per payload"
                        .into(),
                payloads: vec![
                    DataSize::from_kb(100),
                    DataSize::from_mb(1),
                    DataSize::from_mb(10),
                ],
                ..Scenario::default()
            },
            "fig7" => Scenario {
                name: "fig7".into(),
                description: "Fig. 7: DR-SC multicast transmissions vs group size".into(),
                devices: fig7_sizes,
                mechanisms: vec![MechanismKind::DrSc],
                baseline: false,
                ..Scenario::default()
            },
            // The whole evaluation section as one grid: Fig. 6(a) is the
            // 100 kB payload column, Fig. 6(b) the payload axis, Fig. 7
            // the 500-device transmission counts.
            "paper-suite" => Scenario {
                name: "paper-suite".into(),
                description: "Fig. 6(a)+6(b) in one grid (shared populations and plans)".into(),
                payloads: vec![
                    DataSize::from_kb(100),
                    DataSize::from_mb(1),
                    DataSize::from_mb(10),
                ],
                ..Scenario::default()
            },
            "clustered" => Scenario {
                name: "clustered".into(),
                description: "clustered heterogeneous device classes (NOMA-style user clustering)"
                    .into(),
                mix: TrafficMix::clustered_heterogeneous(),
                devices: vec![200, 500, 1000],
                runs: 50,
                ..Scenario::default()
            },
            // Correlated alarm burst: short-cycle-dominated population
            // plus synchronized random access (50 contenders per attempt)
            // — the regime grouping-based RACH collision control targets.
            "bursty-alarm" => Scenario {
                name: "bursty-alarm".into(),
                description: "correlated alarm burst with contended random access".into(),
                mix: TrafficMix::bursty_alarm(),
                devices: vec![200, 500, 1000],
                runs: 50,
                sim: SimConfig {
                    ra_contenders: 50,
                    ..SimConfig::default()
                },
                ..Scenario::default()
            },
            // Beyond the paper's 1000-device ceiling: does the grouping
            // advantage survive an order of magnitude more devices?
            "large-n-stress" => Scenario {
                name: "large-n-stress".into(),
                description: "large-N stress: 2k-10k devices, ericsson-city".into(),
                devices: vec![2_000, 5_000, 10_000],
                runs: 5,
                ..Scenario::default()
            },
            // The million-device scale tier: a city's full metering
            // deployment on the eDRX-only massive-metering mix. Two runs,
            // no unicast baseline, summary-level records only — the point
            // is wall-clock and memory behaviour of the SoA population and
            // the parallel set-cover index at 10^5-10^6 devices, not tight
            // confidence intervals.
            "massive-n" => Scenario {
                name: "massive-n".into(),
                description: "massive-N scale tier: 100k-1M devices, eDRX-only metering mix".into(),
                mix: TrafficMix::massive_metering(),
                devices: vec![100_000, 1_000_000],
                mechanisms: vec![
                    MechanismKind::DrSc,
                    MechanismKind::DaSc,
                    MechanismKind::DrSi,
                ],
                runs: 2,
                baseline: false,
                ..Scenario::default()
            },
            // Weighted airtime: a heterogeneous CE0/CE1/CE2 fleet where
            // transmissions are not all equally expensive — a CE2 window
            // costs ~13.6x the subframes of a CE0 window.  Pits the
            // count-greedy DR-SC against the airtime-weighted cover so the
            // `plan_airtime_ms` / `airtime_vs_count_ratio` summaries have a
            // scenario that actually separates the two.
            "weighted-airtime" => Scenario {
                name: "weighted-airtime".into(),
                description: "airtime-weighted cover on a heterogeneous CE0/CE1/CE2 coverage mix"
                    .into(),
                mix: TrafficMix::heterogeneous_coverage(),
                devices: vec![200, 500, 1000],
                mechanisms: vec![MechanismKind::DrSc, MechanismKind::DrScWeighted],
                runs: 50,
                ..Scenario::default()
            },
            "short-drx" => Scenario {
                name: "short-drx".into(),
                description: "LTE-like corner: regular-DRX-only population".into(),
                mix: TrafficMix::short_drx(),
                runs: 50,
                mechanisms: MechanismKind::ALL.to_vec(),
                ..Scenario::default()
            },
            // Mobility churn: a mobile-majority fleet drifts over six
            // epochs (moderate arrival/departure/handover rates) and the
            // mechanisms re-plan only once staleness crosses 15 % — the
            // plans-go-stale-mid-campaign regime no static scenario
            // exercises.
            "mobility-churn" => Scenario {
                name: "mobility-churn".into(),
                description: "evolving mobile fleet with staleness-threshold re-grouping".into(),
                mix: TrafficMix::mobility_churn(),
                devices: vec![200, 500, 1000],
                runs: 50,
                churn: Some(ChurnModel {
                    epochs: 6,
                    departure_rate: 0.05,
                    arrival_rate: 0.05,
                    handover_rate: 0.08,
                }),
                regroup: RegroupPolicy::StalenessThreshold(0.15),
                ..Scenario::default()
            },
            // Handover storm: a vehicular fleet re-registers en masse
            // every epoch (30 % handover rate) and the mechanisms re-plan
            // at every boundary under contended random access — maximum
            // re-grouping pressure.
            "handover-storm" => Scenario {
                name: "handover-storm".into(),
                description: "vehicular fleet re-registering en masse, re-planned every epoch"
                    .into(),
                mix: TrafficMix::handover_storm(),
                devices: vec![200, 500],
                runs: 50,
                churn: Some(ChurnModel {
                    epochs: 4,
                    departure_rate: 0.02,
                    arrival_rate: 0.02,
                    handover_rate: 0.30,
                }),
                regroup: RegroupPolicy::EveryEpoch,
                sim: SimConfig {
                    ra_contenders: 30,
                    ..SimConfig::default()
                },
                ..Scenario::default()
            },
            // Plan quality vs. planning budget: plain greedy against the
            // anytime tabu pass at a budget sweep, no baseline (the Pareto
            // axes are transmissions and improve_budget). Budget 0 is the
            // bit-identity anchor — it must reproduce greedy exactly.
            "planning-pareto" => Scenario {
                name: "planning-pareto".into(),
                description: "cover cost vs anytime tabu budget (Pareto front over budgets)".into(),
                mechanisms: vec![
                    MechanismKind::DrSc,
                    MechanismKind::DrScTabu(0),
                    MechanismKind::DrScTabu(16),
                    MechanismKind::DrScTabu(64),
                    MechanismKind::DrScTabu(256),
                ],
                runs: 25,
                baseline: false,
                ..Scenario::default()
            },
            // LNS repair under churn: same drifting fleet as
            // mobility-churn, but stale plans are patched instead of
            // re-planned. DA-SC exercises the non-repairable fallback
            // (adaptation plans always re-plan fully).
            "churn-repair" => Scenario {
                name: "churn-repair".into(),
                description: "evolving fleet with LNS plan repair instead of full re-planning"
                    .into(),
                mix: TrafficMix::mobility_churn(),
                devices: vec![200, 500],
                mechanisms: vec![
                    MechanismKind::DrSc,
                    MechanismKind::DrScTabu(64),
                    MechanismKind::DaSc,
                ],
                runs: 50,
                churn: Some(ChurnModel {
                    epochs: 6,
                    departure_rate: 0.05,
                    arrival_rate: 0.05,
                    handover_rate: 0.08,
                }),
                regroup: RegroupPolicy::Repair,
                ..Scenario::default()
            },
            _ => return None,
        };
        Some(s)
    }

    /// The inactivity timer in seconds — the caption-derivation helper the
    /// figure driver uses (captions must reflect the actual config).
    pub fn ti_seconds(&self) -> f64 {
        self.grouping.ti.duration().as_secs_f64()
    }

    /// Validates list shapes and the simulator's numbers before execution.
    ///
    /// A scenario file decodes the `I_TBS` and `N_SF` newtypes without
    /// their checked constructors, and the random-access fields as plain
    /// integers, so these bounds are checked here. The random-access
    /// fields are held to their standard NB-IoT ranges (Andres-Maldonado
    /// et al., "NarrowBand IoT data transmission procedures for massive
    /// machine type communications"):
    ///
    /// | Field | Allowed | Source |
    /// |---|---|---|
    /// | `sim.npdsch.itbs` | 0..=13 | rows of TS 36.213 Table 16.4.1.5.1-1 ([`Itbs::new`]) |
    /// | `sim.npdsch.nsf` | 1, 2, 3, 4, 5, 6, 8, 10 | its columns ([`Nsf::new`]) |
    /// | `sim.ra.nprach_period` | 40..=2560 ms | TS 36.331 `nprach-Periodicity-r13` |
    /// | `sim.ra.preambles` | at least 1 | the collision model `1 − (1 − 1/M)^k` |
    /// | `sim.ra.msg1_duration` … `msg4_delay` | 0..=8388608 ms | TS 36.331 `mac-ContentionResolutionTimer-r13` pp64 at the longest NPDCCH period (`G` 64 × `Rmax` 2048 subframes), the longest wait of any step |
    /// | `sim.ra.max_backoff` | 0..=524288 ms | TS 36.321 Table 7.2-2 |
    /// | `sim.ra.max_attempts` | 3..=200 | TS 36.331 `preambleTransMax-CE-r13` |
    /// | `sim.ra_contenders` | 0..=2147483647 | the model's exponent `k` is an `i32` |
    ///
    /// Under these bounds one random access lasts at most
    /// 199 × (2560 + 2 × 2^23 + 524288) + 2560 + 4 × 2^23 ms, about
    /// 3.5·10^9 ms, so the latencies of 10^7 devices sum to about
    /// 3.5·10^16 ms, far inside `u64` milliseconds.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyScenario`] when a sweep axis or the mechanism set
    /// is empty, [`SimError::DegenerateExperiment`] for zero runs or a
    /// zero-device point, [`SimError::OutOfRange`] for a number outside
    /// the table above.
    pub fn validate(&self) -> Result<(), SimError> {
        for (what, empty) in [
            ("devices", self.devices.is_empty()),
            ("payloads", self.payloads.is_empty()),
            ("mechanisms", self.mechanisms.is_empty()),
        ] {
            if empty {
                return Err(SimError::EmptyScenario { what });
            }
        }
        if self.runs == 0 || self.devices.contains(&0) {
            return Err(SimError::DegenerateExperiment {
                n_devices: self.devices.iter().copied().min().unwrap_or(0),
                runs: self.runs,
            });
        }
        validate_sim(&self.sim)?;
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        // Validated even without churn: an out-of-range threshold must
        // not survive into serialized scenarios/archives just because the
        // policy is currently dormant.
        self.regroup.validate()?;
        Ok(())
    }
}

/// The longest wait of one random-access step, in ms: 64 NPDCCH periods
/// of 64 × 2048 subframes (see [`Scenario::validate`]).
const LONGEST_RA_STEP_MS: u64 = 64 * 64 * 2048;

/// Checks the simulator's numbers against the bounds that
/// [`Scenario::validate`] lists, in the table's order. Branches only, no
/// allocation: `Scenario::validate` runs on every scenario load.
fn validate_sim(sim: &SimConfig) -> Result<(), SimError> {
    let check = |field, value, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(SimError::OutOfRange { field, value })
        }
    };
    let (npdsch, ra) = (&sim.npdsch, &sim.ra);
    let (itbs, nsf) = (npdsch.itbs.index(), npdsch.nsf.subframes());
    check(SimField::Itbs, itbs.into(), Itbs::new(itbs).is_some())?;
    check(SimField::Nsf, nsf.into(), Nsf::new(nsf).is_some())?;
    let period = ra.nprach_period.as_ms();
    check(
        SimField::NprachPeriod,
        period,
        (40..=2560).contains(&period),
    )?;
    check(SimField::Preambles, ra.preambles.into(), ra.preambles >= 1)?;
    for (field, step) in [
        (SimField::Msg1Duration, ra.msg1_duration),
        (SimField::Msg2Delay, ra.msg2_delay),
        (SimField::Msg3Delay, ra.msg3_delay),
        (SimField::Msg4Delay, ra.msg4_delay),
    ] {
        check(field, step.as_ms(), step.as_ms() <= LONGEST_RA_STEP_MS)?;
    }
    let backoff = ra.max_backoff.as_ms();
    check(SimField::MaxBackoff, backoff, backoff <= 524_288)?;
    let attempts = ra.max_attempts;
    check(
        SimField::MaxAttempts,
        attempts.into(),
        (3..=200).contains(&attempts),
    )?;
    let contenders = sim.ra_contenders;
    check(
        SimField::RaContenders,
        contenders.into(),
        i32::try_from(contenders).is_ok(),
    )
}

/// One grid point of a scenario result.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PointResult {
    /// Group size of this point.
    pub n_devices: usize,
    /// Payload size of this point.
    pub payload: DataSize,
    /// The mechanism comparison at this point.
    pub comparison: ComparisonResult,
}

/// The result of executing a whole scenario grid.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// Traffic-mix name (derived from the actual mix, not a caption).
    pub mix: String,
    /// Inactivity timer in seconds (derived from the actual config).
    pub ti_s: f64,
    /// Runs per point.
    pub runs: u32,
    /// Results, device-point-major then payload order.
    pub points: Vec<PointResult>,
}

impl ScenarioResult {
    /// Points at a given payload size, in device order (one "figure line").
    pub fn payload_column(&self, payload: DataSize) -> Vec<&PointResult> {
        self.points
            .iter()
            .filter(|p| p.payload == payload)
            .collect()
    }
}

/// Executes a scenario grid through the shared (point × run) scheduler.
///
/// Within each run the population and grouping input are generated once
/// and shared by every mechanism and payload variant, and each
/// mechanism's plan is computed once and executed per payload — results
/// are bit-identical to regenerating everything per point, verified by
/// `multi_payload_grid_shares_plans_bit_identically`.
///
/// # Errors
///
/// Scenario-shape errors from [`Scenario::validate`], plus population,
/// grouping and plan-validation failures of the lowest-numbered failing
/// work item (matching serial execution).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, SimError> {
    scenario.validate()?;
    let items: Vec<usize> = (0..scenario.devices.len() * scenario.runs as usize).collect();
    let records = execute_grid_subset(scenario, &items)?;
    Ok(fold_grid(scenario, records.iter()))
}

/// Convenience: a scenario whose `grouping.ti` is replaced — ablation
/// suites sweep the inactivity timer this way.
pub fn with_ti(mut scenario: Scenario, ti: SimDuration) -> Scenario {
    scenario.grouping = GroupingParams {
        ti: InactivityTimer::new(ti),
        ..scenario.grouping
    };
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Scenario {
        let mut s = Scenario::builtin(name).expect("builtin");
        s.devices = vec![15, 25];
        s.runs = 2;
        s.threads = 1;
        s
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in Scenario::REGISTRY {
            let s = Scenario::builtin(name)
                .unwrap_or_else(|| panic!("registered scenario {name} must resolve"));
            assert_eq!(s.name, name, "registry name must match the scenario name");
            s.validate().unwrap();
        }
        assert!(Scenario::builtin("no-such-scenario").is_none());
    }

    #[test]
    fn grid_produces_point_per_device_payload_pair() {
        let mut s = tiny("fig6b");
        s.mechanisms = vec![MechanismKind::DrSc];
        let result = run_scenario(&s).unwrap();
        assert_eq!(result.points.len(), 2 * 3);
        assert_eq!(result.mix, "ericsson-city");
        assert_eq!(result.ti_s, 10.0);
        // Point order is device-major, payload-minor.
        assert_eq!(result.points[0].n_devices, 15);
        assert_eq!(result.points[2].n_devices, 15);
        assert_eq!(result.points[3].n_devices, 25);
        let col = result.payload_column(DataSize::from_mb(1));
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn scenario_threads_are_bit_identical() {
        let serial = run_scenario(&tiny("fig6b")).unwrap();
        for threads in [3, 8] {
            let mut s = tiny("fig6b");
            s.threads = threads;
            assert_eq!(run_scenario(&s).unwrap(), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut s = tiny("fig6a");
        s.devices.clear();
        assert!(matches!(
            run_scenario(&s),
            Err(SimError::EmptyScenario { what: "devices" })
        ));
        let mut s = tiny("fig6a");
        s.mechanisms.clear();
        assert!(matches!(
            run_scenario(&s),
            Err(SimError::EmptyScenario { what: "mechanisms" })
        ));
        let mut s = tiny("fig6a");
        s.runs = 0;
        assert!(matches!(
            run_scenario(&s),
            Err(SimError::DegenerateExperiment { .. })
        ));
        let mut s = tiny("fig6a");
        s.devices = vec![15, 0];
        assert!(matches!(
            run_scenario(&s),
            Err(SimError::DegenerateExperiment { n_devices: 0, .. })
        ));
    }

    #[test]
    fn sim_bounds_are_inclusive_and_name_the_field() {
        // Each edit puts one field on its bound, then one step past it.
        // `I_TBS` and `N_SF` values off the table only decode from a file
        // (`cli_errors.rs` covers them).
        type Edit = fn(&mut SimConfig, bool);
        fn ms(past: bool, bound: u64) -> SimDuration {
            SimDuration::from_ms(bound + u64::from(past))
        }
        let edits: [(SimField, Edit); 9] = [
            (SimField::NprachPeriod, |s, past| {
                s.ra.nprach_period = SimDuration::from_ms(if past { 39 } else { 40 })
            }),
            (SimField::Preambles, |s, past| {
                s.ra.preambles = u32::from(!past)
            }),
            (SimField::Msg1Duration, |s, past| {
                s.ra.msg1_duration = ms(past, LONGEST_RA_STEP_MS)
            }),
            (SimField::Msg2Delay, |s, past| {
                s.ra.msg2_delay = ms(past, LONGEST_RA_STEP_MS)
            }),
            (SimField::Msg3Delay, |s, past| {
                s.ra.msg3_delay = ms(past, LONGEST_RA_STEP_MS)
            }),
            (SimField::Msg4Delay, |s, past| {
                s.ra.msg4_delay = ms(past, LONGEST_RA_STEP_MS)
            }),
            (SimField::MaxBackoff, |s, past| {
                s.ra.max_backoff = ms(past, 524_288)
            }),
            (SimField::MaxAttempts, |s, past| {
                s.ra.max_attempts = if past { 201 } else { 200 }
            }),
            (SimField::RaContenders, |s, past| {
                s.ra_contenders = i32::MAX as u32 + u32::from(past)
            }),
        ];
        for (field, edit) in edits {
            let mut s = tiny("fig6b");
            edit(&mut s.sim, false);
            assert_eq!(s.validate(), Ok(()), "{field:?} on its bound");
            edit(&mut s.sim, true);
            match s.validate() {
                Err(SimError::OutOfRange { field: named, .. }) => assert_eq!(named, field),
                other => panic!("{field:?} past its bound: {other:?}"),
            }
        }
        // The other ends of the ranges.
        let mut s = tiny("fig6b");
        s.sim.ra.nprach_period = SimDuration::from_ms(2561);
        assert!(s.validate().is_err());
        s.sim.ra.nprach_period = SimDuration::from_ms(2560);
        s.sim.ra.max_attempts = 2;
        assert!(s.validate().is_err());
        s.sim.ra.max_attempts = 3;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn the_longest_random_access_of_ten_million_devices_fits_in_u64() {
        // Every attempt but the last collides and backs off for longest;
        // the last completes the whole exchange.
        let collided = 2560 + 2 * LONGEST_RA_STEP_MS + 524_288;
        let longest = (199 * collided + 2560 + 4 * LONGEST_RA_STEP_MS).max(200 * collided);
        assert_eq!(longest, 3_477_065_728);
        // Two procedures a device at most: the adaptation and the
        // connection.
        assert!(longest.checked_mul(2 * 10_000_000).is_some());
    }

    #[test]
    fn with_ti_overrides_only_the_timer() {
        let s = with_ti(tiny("fig6a"), SimDuration::from_secs(30));
        assert_eq!(s.ti_seconds(), 30.0);
        assert_eq!(s.grouping.start, GroupingParams::default().start);
    }
}
