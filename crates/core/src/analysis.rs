//! Closed-form / fluid approximations of the grouping mechanisms.
//!
//! The simulator measures; this module *predicts*. Having an analytic
//! counterpart serves two purposes: it cross-checks the simulation (the
//! tests require agreement within tolerance), and it explains the Fig. 7
//! curve structurally — why the DR-SC transmission count scales the way it
//! does with the cycle mix.
//!
//! # The DR-SC fluid model
//!
//! A device with paging cycle `C > TI` has a paging occasion inside a
//! randomly placed `TI`-window with probability `p = TI / C`; a device with
//! `C <= TI` ("dense") is inside *every* window. Model the greedy cover as
//! a deterministic process over expected values: each transmission covers
//! its anchor device (probability 1) plus, independently, every other
//! remaining device `j` with probability `p_j`:
//!
//! ```text
//! cov_c = p_c * n_c + anchor share        expected coverage per class
//! n_c  -= cov_c                           one Euler step per transmission
//! ```
//!
//! For a single class this integrates to the familiar
//! `T(n, p) = ln(1 + p n) / p`; the mixture couples classes through the
//! anchor allocation. The model ignores the greedy's max-selection (which
//! beats the random-window average early on) and phase correlations, so it
//! overestimates slightly at large `n`; the tests accept a ±35 % band, and
//! `figures --scenario fig7` prints the estimate beside the measured
//! counts.

use nbiot_time::SimDuration;

use crate::GroupingInput;

/// The analytic DR-SC prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DrScEstimate {
    /// Predicted number of multicast transmissions.
    pub transmissions: f64,
    /// Devices whose cycle fits inside `TI` (covered by any window).
    pub dense_devices: usize,
    /// Devices with cycles longer than `TI`.
    pub sparse_devices: usize,
    /// Mean single-window coverage probability across sparse devices.
    pub mean_coverage: f64,
}

/// Predicts the expected DR-SC transmission count for `input` without
/// running the set cover.
///
/// # Example
///
/// ```
/// use nbiot_grouping::{analysis, GroupingInput, GroupingParams};
/// use nbiot_traffic::TrafficMix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let pop = TrafficMix::ericsson_city().generate(300, &mut rng)?;
/// let input = GroupingInput::from_population(&pop, GroupingParams::default())?;
/// let est = analysis::estimate_dr_sc_transmissions(&input);
/// // The city mix needs transmissions of the same order as the group size.
/// assert!(est.transmissions > 60.0 && est.transmissions < 300.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_dr_sc_transmissions(input: &GroupingInput) -> DrScEstimate {
    let ti = input.params().ti.duration();
    let mut sparse: Vec<f64> = Vec::new(); // per-device coverage probability
    let mut dense = 0usize;
    for paging in input.paging_configs() {
        let cycle = paging.cycle.period();
        if cycle <= ti {
            dense += 1;
        } else {
            sparse.push(ti.as_ms() as f64 / cycle.as_ms() as f64);
        }
    }
    let sparse_count = sparse.len();
    let mean_coverage = if sparse.is_empty() {
        0.0
    } else {
        sparse.iter().sum::<f64>() / sparse.len() as f64
    };

    // Group sparse devices into probability classes to integrate cheaply.
    let mut classes: std::collections::BTreeMap<u64, (f64, f64)> =
        std::collections::BTreeMap::new();
    for p in sparse {
        let key = (p * 1e9) as u64;
        let entry = classes.entry(key).or_insert((p, 0.0));
        entry.1 += 1.0;
    }
    let mut n: Vec<(f64, f64)> = classes.into_values().collect(); // (p, count)

    let mut transmissions = 0.0f64;
    let cap = 4 * (sparse_count + 1);
    while n.iter().map(|&(_, c)| c).sum::<f64>() > 0.5 && (transmissions as usize) < cap {
        let total: f64 = n.iter().map(|&(_, c)| c).sum();
        let mut cov: Vec<f64> = n.iter().map(|&(p, c)| p * c).collect();
        // The anchor device is covered with certainty *in addition to* the
        // probabilistic coverage (dn/dT = -(1 + p n)); allocate it
        // proportionally to the remaining class mass.
        for ((_, c), cv) in n.iter().zip(cov.iter_mut()) {
            *cv += c / total;
        }
        for ((_, c), cv) in n.iter_mut().zip(&cov) {
            *c = (*c - cv).max(0.0);
        }
        transmissions += 1.0;
    }
    // Dense devices ride the first transmission: at least one exists.
    if dense > 0 && transmissions < 1.0 {
        transmissions = 1.0;
    }
    DrScEstimate {
        transmissions,
        dense_devices: dense,
        sparse_devices: sparse_count,
        mean_coverage,
    }
}

/// Expected waiting time between a device's connection and the multicast
/// instant for the single-transmission mechanisms (DA-SC landings and
/// DR-SI T322 draws are uniform over the window): `TI / 2`.
pub fn expected_single_transmission_wait(ti: SimDuration) -> SimDuration {
    ti / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrSc, GroupingMechanism, GroupingParams};
    use nbiot_time::{DrxCycle, EdrxCycle, PagingCycle};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input_for(mix: &TrafficMix, n: usize, seed: u64) -> GroupingInput {
        let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    fn simulated_transmissions(input: &GroupingInput, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        DrSc::new()
            .plan(input, &mut rng)
            .unwrap()
            .transmission_count() as f64
    }

    #[test]
    fn all_dense_is_one_transmission() {
        let mix = TrafficMix::uniform(PagingCycle::Drx(DrxCycle::Rf256));
        let input = input_for(&mix, 40, 1);
        let est = estimate_dr_sc_transmissions(&input);
        assert_eq!(est.dense_devices, 40);
        assert_eq!(est.transmissions, 1.0);
        assert_eq!(simulated_transmissions(&input, 2), 1.0);
    }

    #[test]
    fn single_class_matches_integral_form() {
        // For one class, the fluid recursion should track ln(1 + p n) / p.
        let mix = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf256));
        let input = input_for(&mix, 120, 3);
        let est = estimate_dr_sc_transmissions(&input);
        let p = est.mean_coverage;
        let closed_form = (1.0 + p * 120.0).ln() / p;
        assert!(
            (est.transmissions - closed_form).abs() / closed_form < 0.1,
            "fluid {} vs closed form {}",
            est.transmissions,
            closed_form
        );
    }

    #[test]
    fn estimate_tracks_simulation_for_uniform_meters() {
        let mix = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf256));
        let input = input_for(&mix, 150, 4);
        let est = estimate_dr_sc_transmissions(&input).transmissions;
        let mut sim_mean = 0.0;
        for seed in 0..5 {
            sim_mean += simulated_transmissions(&input, seed) / 5.0;
        }
        let err = (est - sim_mean).abs() / sim_mean;
        assert!(err < 0.35, "estimate {est} vs simulated {sim_mean}");
    }

    #[test]
    fn estimate_tracks_simulation_for_city_mix() {
        let mix = TrafficMix::ericsson_city();
        let input = input_for(&mix, 300, 5);
        let est = estimate_dr_sc_transmissions(&input).transmissions;
        let mut sim_mean = 0.0;
        for seed in 0..5 {
            sim_mean += simulated_transmissions(&input, seed) / 5.0;
        }
        let err = (est - sim_mean).abs() / sim_mean;
        assert!(err < 0.35, "estimate {est} vs simulated {sim_mean}");
    }

    #[test]
    fn estimate_grows_sublinearly() {
        let mix = TrafficMix::ericsson_city();
        let small = estimate_dr_sc_transmissions(&input_for(&mix, 100, 6));
        let large = estimate_dr_sc_transmissions(&input_for(&mix, 1000, 6));
        assert!(large.transmissions > small.transmissions);
        // Ratio-to-devices declines with N (the Fig. 7 slope).
        assert!(large.transmissions / 1000.0 < small.transmissions / 100.0);
    }

    #[test]
    fn expected_wait_is_half_ti() {
        assert_eq!(
            expected_single_transmission_wait(SimDuration::from_secs(10)),
            SimDuration::from_secs(5)
        );
    }
}
