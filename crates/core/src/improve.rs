//! Anytime plan improvement: tabu local search over set-cover solutions.
//!
//! The greedy cover ([`crate::set_cover`]) is a one-shot constructive
//! heuristic; this module treats the result as a *starting point* and
//! spends a caller-chosen **budget** of destroy-and-repair iterations
//! trying to shrink it. The discipline is classic tabu search:
//!
//! * **Move** — one iteration removes a seeded-random picked set (the
//!   *victim*), then greedily re-covers the elements it alone covered
//!   using non-tabu sets (max gain, lowest set index on ties), and
//!   finally strips sets made fully redundant by the repair.
//! * **Tabu tenure** — the victim may not re-enter the solution for a
//!   fixed number of iterations, forcing the search off local plateaus.
//! * **Aspiration** — a tabu set is admitted anyway when re-adding it
//!   would still leave the candidate strictly smaller than the best
//!   solution seen so far (and as a failsafe whenever no non-tabu set
//!   can cover an uncovered element, so coverage is never lost).
//! * **Anytime** — the budget is a deterministic iteration count (no
//!   wall-clock anywhere), the RNG is seeded, and the iteration sequence
//!   never looks at the total budget. A run with budget `B₂ > B₁`
//!   therefore replays the first `B₁` iterations bit-identically and the
//!   returned **best-found** solution is monotone non-increasing in the
//!   budget — the property `ci.sh --stage anytime-smoke` locks.
//!
//! Sideways moves (equal cost) are accepted to let the search drift
//! across plateaus; worsening candidates are rolled back. `budget == 0`
//! returns the input picks byte-for-byte (locked by proptest), which is
//! what makes `DR-SC-tabu(0)` bit-identical to plain DR-SC.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::set_cover::SetIndex;

/// How many iterations a removed set stays tabu.
///
/// Fixed and deterministic: tenure participates in the bit-identity
/// contract, so it must not depend on thread count, wall-clock or budget.
pub const TABU_TENURE: u32 = 8;

/// Outcome metrics of one [`improve_cover`] run, surfaced through
/// `MulticastPlan::improvement` into `MechanismSummary`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ImprovementStats {
    /// Sets in the initial (greedy) solution.
    pub initial_cost: u32,
    /// Sets in the best solution found (never above `initial_cost`).
    pub final_cost: u32,
    /// Accepted moves (improving or sideways).
    pub moves_accepted: u32,
    /// Iterations actually executed (≤ budget; the search stops early
    /// when the solution reaches a single set).
    pub budget_spent: u32,
}

/// Improves a feasible set-cover solution by tabu local search.
///
/// * `universe_size`, `sets` — the same instance the initial solution was
///   computed on (every element `< universe_size`; an element listed
///   twice in one set counts once).
/// * `initial` — indices into `sets` that jointly cover the universe.
/// * `budget` — maximum destroy-and-repair iterations; `0` returns
///   `initial` unchanged.
/// * `seed` — seeds the victim-selection RNG; identical seeds replay the
///   identical search at every thread count.
///
/// Returns the best cover found (in first-added order) plus the run's
/// [`ImprovementStats`]. Every returned solution covers the full
/// universe — accepted moves preserve feasibility by construction (the
/// repair loop only terminates once nothing is uncovered). The search
/// never depends on the element order within a set.
///
/// # Panics
///
/// Panics when a set contains an element `>= universe_size`, and (debug
/// builds) when `initial` does not cover the universe.
pub fn improve_cover(
    universe_size: usize,
    sets: &[Vec<usize>],
    initial: &[usize],
    budget: u32,
    seed: u64,
) -> (Vec<usize>, ImprovementStats) {
    search(&SetIndex::new(universe_size, sets), initial, budget, seed)
}

/// The tabu search of [`improve_cover`] over a built `index`: the
/// explicit-set entry point and
/// [`AnchorInstance::improve_cover`](crate::set_cover::AnchorInstance::improve_cover)
/// both run it.
pub(crate) fn search(
    index: &SetIndex,
    initial: &[usize],
    budget: u32,
    seed: u64,
) -> (Vec<usize>, ImprovementStats) {
    let initial_cost = initial.len() as u32;
    let mut stats = ImprovementStats {
        initial_cost,
        final_cost: initial_cost,
        moves_accepted: 0,
        budget_spent: 0,
    };
    let universe_size = index.elements();
    if budget == 0 || initial.len() <= 1 || universe_size == 0 {
        return (initial.to_vec(), stats);
    }

    // Current solution state: picks (stable order), membership flag and
    // per-element cover multiplicity (the index holds each element once
    // per set, so a multiplicity counts distinct covering sets).
    let mut picks: Vec<usize> = initial.to_vec();
    let mut in_solution = vec![false; index.sets()];
    let mut cover = vec![0u32; universe_size];
    for &s in &picks {
        debug_assert!(!in_solution[s], "duplicate pick {s}");
        in_solution[s] = true;
        for &e in index.set(s) {
            cover[e as usize] += 1;
        }
    }
    debug_assert!(
        cover.iter().all(|&c| c > 0),
        "initial solution does not cover the universe"
    );

    let mut best = picks.clone();
    // Iteration number each set stays tabu through (exclusive).
    let mut tabu_until = vec![0u32; index.sets()];
    // Per-repair scratch: candidate gain per set, stamped by repair pass
    // (each pass of the repair loop recomputes gains from scratch).
    let mut gain = vec![0u32; index.sets()];
    let mut gain_stamp = vec![0u32; index.sets()];
    let mut pass = 0u32;
    let mut rng = StdRng::seed_from_u64(seed);

    for iter in 0..budget {
        stats.budget_spent = iter + 1;
        // Destroy: seeded victim choice among current picks.
        let victim_pos = (rng.next_u64() % picks.len() as u64) as usize;
        let snapshot_picks = picks.clone();
        let snapshot_cover = cover.clone();
        let victim = picks.remove(victim_pos);
        in_solution[victim] = false;
        tabu_until[victim] = iter + 1 + TABU_TENURE;
        let mut uncovered: Vec<u32> = Vec::new();
        for &e in index.set(victim) {
            cover[e as usize] -= 1;
            if cover[e as usize] == 0 {
                uncovered.push(e);
            }
        }

        // Repair: greedy max-gain over the uncovered elements, non-tabu
        // sets first, lowest index on ties.
        while !uncovered.is_empty() {
            pass += 1;
            let mut best_set = usize::MAX;
            let mut best_gain = 0u32;
            let mut fallback_set = usize::MAX; // best among tabu sets
            let mut fallback_gain = 0u32;
            for &e in &uncovered {
                for &(start, end) in index.runs_of(e as usize) {
                    for s in start as usize..end as usize {
                        if in_solution[s] {
                            continue;
                        }
                        if gain_stamp[s] != pass {
                            gain_stamp[s] = pass;
                            gain[s] = 0;
                        }
                        gain[s] += 1;
                        let g = gain[s];
                        if tabu_until[s] <= iter {
                            if g > best_gain || (g == best_gain && s < best_set) {
                                best_gain = g;
                                best_set = s;
                            }
                        } else if g > fallback_gain || (g == fallback_gain && s < fallback_set) {
                            fallback_gain = g;
                            fallback_set = s;
                        }
                    }
                }
            }
            // Aspiration: admit the tabu candidate when the finished
            // candidate would still beat the best solution found, or
            // (failsafe) when only tabu sets can restore coverage.
            let chosen = if best_set != usize::MAX
                && !(fallback_set != usize::MAX
                    && fallback_gain > best_gain
                    && picks.len() + 1 < best.len())
            {
                best_set
            } else if fallback_set != usize::MAX {
                fallback_set
            } else {
                best_set
            };
            debug_assert_ne!(chosen, usize::MAX, "victim itself restores coverage");
            picks.push(chosen);
            in_solution[chosen] = true;
            for &e in index.set(chosen) {
                cover[e as usize] += 1;
            }
            uncovered.retain(|&e| cover[e as usize] == 0);
        }

        // Strip sets the repair made fully redundant (every element
        // covered at least twice), scanning in stable pick order.
        let mut p = 0usize;
        while p < picks.len() {
            let s = picks[p];
            let members = index.set(s);
            if members.iter().all(|&e| cover[e as usize] >= 2) {
                for &e in members {
                    cover[e as usize] -= 1;
                }
                in_solution[s] = false;
                picks.remove(p);
            } else {
                p += 1;
            }
        }

        // Accept improving and sideways candidates; roll back the rest.
        if picks.len() <= snapshot_picks.len() {
            stats.moves_accepted += 1;
            if picks.len() < best.len() {
                best = picks.clone();
            }
        } else {
            for &s in &picks {
                in_solution[s] = false;
            }
            picks = snapshot_picks;
            cover = snapshot_cover;
            for &s in &picks {
                in_solution[s] = true;
            }
        }
        if picks.len() <= 1 {
            break;
        }
    }

    stats.final_cost = best.len() as u32;
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(universe_size: usize, sets: &[Vec<usize>], picks: &[usize]) -> bool {
        let mut covered = vec![false; universe_size];
        for &s in picks {
            for &e in &sets[s] {
                covered[e] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    /// A redundancy-laden instance where greedy overshoots: singleton
    /// sets picked first trap greedy into 4 sets while 2 suffice.
    fn trap_instance() -> (usize, Vec<Vec<usize>>, Vec<usize>) {
        let sets = vec![
            vec![0, 1, 2],    // 0
            vec![3, 4, 5],    // 1
            vec![0, 3],       // 2
            vec![1, 4],       // 3
            vec![2, 5],       // 4
            vec![0, 1, 2, 6], // 5
            vec![3, 4, 5, 7], // 6
            vec![6, 7],       // 7
        ];
        // A feasible but wasteful start: pairwise sets + the tail.
        let initial = vec![2, 3, 4, 7];
        (8, sets, initial)
    }

    #[test]
    fn budget_zero_is_identity() {
        let (n, sets, initial) = trap_instance();
        let (picks, stats) = improve_cover(n, &sets, &initial, 0, 42);
        assert_eq!(picks, initial);
        assert_eq!(stats.initial_cost, 4);
        assert_eq!(stats.final_cost, 4);
        assert_eq!(stats.moves_accepted, 0);
        assert_eq!(stats.budget_spent, 0);
    }

    #[test]
    fn finds_the_two_set_optimum() {
        let (n, sets, initial) = trap_instance();
        let (picks, stats) = improve_cover(n, &sets, &initial, 64, 42);
        assert!(covers(n, &sets, &picks));
        assert_eq!(picks.len(), 2, "{picks:?}");
        assert_eq!(stats.final_cost, 2);
        assert!(stats.final_cost < stats.initial_cost);
    }

    #[test]
    fn monotone_in_budget() {
        let (n, sets, initial) = trap_instance();
        let mut last = u32::MAX;
        for budget in [0u32, 1, 2, 4, 8, 16, 32, 64] {
            let (picks, stats) = improve_cover(n, &sets, &initial, budget, 7);
            assert!(covers(n, &sets, &picks));
            assert!(
                stats.final_cost <= last,
                "budget {budget}: {} > {last}",
                stats.final_cost
            );
            last = stats.final_cost;
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (n, sets, initial) = trap_instance();
        let a = improve_cover(n, &sets, &initial, 32, 9);
        let b = improve_cover(n, &sets, &initial, 32, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_elements_within_a_set_cannot_lose_coverage() {
        // A set listing an element twice must not read as "covered
        // twice" to the redundancy pass: set 0 is element 0's only
        // cover, and every budget must keep it.
        let sets = vec![vec![0, 0], vec![1, 2], vec![2]];
        let initial = vec![0, 1, 2];
        for budget in [1u32, 4, 16, 64] {
            let (picks, _) = improve_cover(3, &sets, &initial, budget, 11);
            assert!(covers(3, &sets, &picks), "budget {budget}: {picks:?}");
        }
    }

    #[test]
    fn element_order_within_sets_never_changes_the_search() {
        // The index keeps each set's elements in the order given: that
        // order must not matter to the search.
        let (n, sets, initial) = trap_instance();
        let reversed: Vec<Vec<usize>> = sets
            .iter()
            .map(|s| s.iter().rev().copied().collect())
            .collect();
        for budget in [1u32, 8, 64] {
            assert_eq!(
                improve_cover(n, &sets, &initial, budget, 42),
                improve_cover(n, &reversed, &initial, budget, 42),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn single_set_start_short_circuits() {
        let sets = vec![vec![0, 1]];
        let (picks, stats) = improve_cover(2, &sets, &[0], 16, 1);
        assert_eq!(picks, vec![0]);
        assert_eq!(stats.budget_spent, 0);
    }
}
