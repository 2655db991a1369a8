//! Property-based tests of the plan-improvement layer: the anytime tabu
//! pass over set covers, the budget-0 identity with plain greedy plans,
//! and the LNS churn-repair path's equivalence to never re-planning when
//! nothing churns.

use nbiot_multicast::grouping::improve::{improve_cover, ImprovementStats, TABU_TENURE};
use nbiot_multicast::grouping::{repair_plan, DrSc, DrScTabu};
use nbiot_multicast::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn covers(universe: usize, sets: &[Vec<usize>], picks: &[usize]) -> bool {
    let mut covered = vec![false; universe];
    for &s in picks {
        for &e in &sets[s] {
            covered[e] = true;
        }
    }
    covered.iter().all(|&c| c)
}

/// The tabu search of `improve_cover` without an inverted index: the same
/// seeded victim draw, `TABU_TENURE`, aspiration, strip pass and rollback,
/// but each repair pass recomputes every set's gain by scanning the set
/// (deduplicated) against the uncovered elements. It reads no
/// element → sets runs, so it sees every set of an element however those
/// sets are spread over the indices.
fn naive_tabu(
    universe: usize,
    sets: &[Vec<usize>],
    initial: &[usize],
    budget: u32,
    seed: u64,
) -> (Vec<usize>, ImprovementStats) {
    let sets: Vec<Vec<usize>> = sets
        .iter()
        .map(|set| {
            let mut set = set.clone();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect();
    let initial_cost = initial.len() as u32;
    let mut stats = ImprovementStats {
        initial_cost,
        final_cost: initial_cost,
        moves_accepted: 0,
        budget_spent: 0,
    };
    if budget == 0 || initial.len() <= 1 || universe == 0 {
        return (initial.to_vec(), stats);
    }
    let mut picks = initial.to_vec();
    let mut cover = vec![0u32; universe];
    for &s in &picks {
        for &e in &sets[s] {
            cover[e] += 1;
        }
    }
    let mut best = picks.clone();
    let mut tabu_until = vec![0u32; sets.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    for iter in 0..budget {
        stats.budget_spent = iter + 1;
        let before = (picks.clone(), cover.clone());
        let victim = picks.remove((rng.next_u64() % picks.len() as u64) as usize);
        tabu_until[victim] = iter + 1 + TABU_TENURE;
        for &e in &sets[victim] {
            cover[e] -= 1;
        }
        loop {
            let uncovered: Vec<usize> = (0..universe).filter(|&e| cover[e] == 0).collect();
            if uncovered.is_empty() {
                break;
            }
            // (gain, set) of the best non-tabu and the best tabu set; the
            // ascending scan keeps the lowest index on ties.
            let mut free: Option<(usize, usize)> = None;
            let mut tabu: Option<(usize, usize)> = None;
            for (s, set) in sets.iter().enumerate() {
                let gain = set.iter().filter(|e| uncovered.contains(e)).count();
                if picks.contains(&s) || gain == 0 {
                    continue;
                }
                let slot = if tabu_until[s] <= iter {
                    &mut free
                } else {
                    &mut tabu
                };
                if slot.is_none_or(|(g, _)| gain > g) {
                    *slot = Some((gain, s));
                }
            }
            let chosen = match (free, tabu) {
                (Some((g, s)), Some((tg, ts))) => {
                    if tg > g && picks.len() + 1 < best.len() {
                        ts
                    } else {
                        s
                    }
                }
                (Some((_, s)), None) | (None, Some((_, s))) => s,
                (None, None) => unreachable!("the victim restores coverage"),
            };
            picks.push(chosen);
            for &e in &sets[chosen] {
                cover[e] += 1;
            }
        }
        let mut p = 0;
        while p < picks.len() {
            let s = picks[p];
            if sets[s].iter().all(|&e| cover[e] >= 2) {
                for &e in &sets[s] {
                    cover[e] -= 1;
                }
                picks.remove(p);
            } else {
                p += 1;
            }
        }
        if picks.len() <= before.0.len() {
            stats.moves_accepted += 1;
            if picks.len() < best.len() {
                best = picks.clone();
            }
        } else {
            (picks, cover) = before;
        }
        if picks.len() <= 1 {
            break;
        }
    }
    stats.final_cost = best.len() as u32;
    (best, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accepted_moves_preserve_full_coverage(
        sets in proptest::collection::vec(
            proptest::collection::vec(0usize..20, 1..8),
            1..24
        ),
        budget in 0u32..80,
        seed in 0u64..1_000,
    ) {
        // Only coverable instances: greedy either solves or the instance
        // is discarded (improve_cover requires a feasible start).
        let universe = 20usize;
        let Some(initial) =
            nbiot_multicast::grouping::set_cover::greedy_set_cover(universe, &sets)
        else {
            return Ok(());
        };
        let (improved, stats) = improve_cover(universe, &sets, &initial, budget, seed);
        // The headline invariant: every accepted move keeps the solution
        // a full cover — the search never trades feasibility for cost.
        prop_assert!(covers(universe, &sets, &improved), "improved set must cover");
        prop_assert!(stats.final_cost <= stats.initial_cost);
        prop_assert_eq!(stats.initial_cost as usize, initial.len());
        prop_assert_eq!(stats.final_cost as usize, improved.len());
        prop_assert!(stats.budget_spent <= budget);
        // No duplicate picks survive.
        let mut dedup = improved.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), improved.len());
    }

    #[test]
    fn tabu_search_matches_a_naive_oracle_when_elements_span_several_runs(
        drawn in proptest::collection::vec(
            proptest::collection::vec(0usize..20, 1..12),
            1..24
        ),
        every_set in 0u8..2,
        budget in 0u32..80,
        seed in 0u64..1_000,
    ) {
        // Dense random sets put most elements in several sets that are
        // not consecutive, so an element's sets form several runs of the
        // index. The drawn elements are renumbered densely, so every
        // instance is coverable. The search starts from the greedy cover,
        // or from every set (redundant, so the strip pass and sideways
        // moves are frequent).
        let mut label = [usize::MAX; 20];
        let mut universe = 0usize;
        for &e in drawn.iter().flatten() {
            if label[e] == usize::MAX {
                label[e] = universe;
                universe += 1;
            }
        }
        let sets: Vec<Vec<usize>> = drawn
            .iter()
            .map(|set| set.iter().map(|&e| label[e]).collect())
            .collect();
        let initial = if every_set == 1 {
            (0..sets.len()).collect()
        } else {
            nbiot_multicast::grouping::set_cover::greedy_set_cover(universe, &sets)
                .expect("every element lies in a set")
        };
        prop_assert_eq!(
            improve_cover(universe, &sets, &initial, budget, seed),
            naive_tabu(universe, &sets, &initial, budget, seed)
        );
    }

    #[test]
    fn zero_budget_returns_the_initial_cover_byte_for_byte(
        sets in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 1..6),
            1..16
        ),
        seed in 0u64..1_000,
    ) {
        let universe = 16usize;
        let Some(initial) =
            nbiot_multicast::grouping::set_cover::greedy_set_cover(universe, &sets)
        else {
            return Ok(());
        };
        let (improved, stats) = improve_cover(universe, &sets, &initial, 0, seed);
        prop_assert_eq!(improved, initial);
        prop_assert_eq!(stats.moves_accepted, 0);
        prop_assert_eq!(stats.budget_spent, 0);
        prop_assert_eq!(stats.initial_cost, stats.final_cost);
    }

    #[test]
    fn budget_zero_tabu_plan_is_the_greedy_plan_relabelled(
        n_devices in 2usize..40,
        pop_seed in 0u64..500,
    ) {
        // DR-SC-tabu(0) must be DR-SC bit for bit: same transmissions,
        // same device plans, same horizon — only the label and the
        // zero-work improvement record differ, and no RNG is consumed.
        let mut rng = rand::rngs::StdRng::seed_from_u64(pop_seed);
        let pop = TrafficMix::ericsson_city()
            .generate(n_devices, &mut rng)
            .expect("population");
        let input =
            GroupingInput::from_population(&pop, GroupingParams::default()).expect("input");
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(42);
        let greedy = DrSc::default().plan(&input, &mut rng_a).expect("plan");
        let tabu0 = DrScTabu::new(0).plan(&input, &mut rng_b).expect("plan");
        prop_assert_eq!(&tabu0.transmissions, &greedy.transmissions);
        prop_assert_eq!(&tabu0.device_plans, &greedy.device_plans);
        prop_assert_eq!(tabu0.horizon, greedy.horizon);
        prop_assert_eq!(tabu0.mechanism.as_str(), "DR-SC-tabu(0)");
        let stats = tabu0.improvement.expect("tabu plans carry stats");
        prop_assert_eq!(stats.moves_accepted, 0);
        prop_assert_eq!(stats.budget_spent, 0);
        prop_assert_eq!(stats.initial_cost, stats.final_cost);
        // Neither path may have consumed RNG differently: both streams
        // must now produce the same next draw.
        prop_assert_eq!(
            rand::Rng::gen::<u64>(&mut rng_a),
            rand::Rng::gen::<u64>(&mut rng_b)
        );
    }

    #[test]
    fn repairing_an_unchurned_fleet_is_the_identity(
        n_devices in 2usize..40,
        pop_seed in 0u64..500,
    ) {
        // The LNS repair of a plan against the very fleet it was built
        // for keeps every survivor transmission and attaches nobody:
        // the repaired plan equals the stale plan (modulo the repair's
        // improvement record).
        let mut rng = rand::rngs::StdRng::seed_from_u64(pop_seed);
        let pop = TrafficMix::ericsson_city()
            .generate(n_devices, &mut rng)
            .expect("population");
        let input =
            GroupingInput::from_population(&pop, GroupingParams::default()).expect("input");
        let plan = DrSc::default().plan(&input, &mut rng).expect("plan");
        let repaired = repair_plan(&plan, &input)
            .expect("DR-SC plans are repairable")
            .expect("repair succeeds");
        prop_assert_eq!(&repaired.transmissions, &plan.transmissions);
        prop_assert_eq!(&repaired.device_plans, &plan.device_plans);
        let stats = repaired.improvement.expect("repairs carry stats");
        prop_assert_eq!(stats.initial_cost, stats.final_cost);
        repaired.validate(&input).expect("repaired plan validates");
    }

}

proptest! {
    // Scenario executions are orders of magnitude heavier than kernel
    // calls; a handful of cases still sweeps seeds and sizes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn repair_under_zero_churn_equals_never_replanning(
        devices in 5usize..25,
        seed_lo in 0u64..200,
    ) {
        // `RegroupPolicy::Repair` over churn epochs that can never move a
        // device must land on the exact summaries of never re-planning at
        // all (which in turn equal the static engine's — the existing
        // zero-churn invariant).
        let mut base = Scenario::builtin("fig6b").expect("registered");
        base.devices = vec![devices];
        base.runs = 2;
        base.threads = 1;
        base.master_seed = 0x5EED_0000 + seed_lo;
        base.churn = Some(ChurnModel {
            epochs: 4,
            departure_rate: 0.0,
            arrival_rate: 0.0,
            handover_rate: 0.0,
        });
        let mut never = base.clone();
        never.regroup = RegroupPolicy::Never;
        let mut repair = base;
        repair.regroup = RegroupPolicy::Repair;
        let a = run_scenario(&never).expect("never");
        let b = run_scenario(&repair).expect("repair");
        prop_assert_eq!(a, b);
    }
}
