//! Property-based tests of the set-cover solvers, including a brute-force
//! optimality reference on small instances.

use nbiot_multicast::grouping::improve::improve_cover;
use nbiot_multicast::grouping::set_cover::{
    greedy_set_cover, greedy_set_cover_weighted, reference, AnchorInstance, PoTimeline, WindowCover,
};
use nbiot_multicast::prelude::*;
use proptest::prelude::*;

/// Brute-force minimum window-cover size on a tiny instance: every subset
/// of candidate windows (anchored at POs) is checked.
fn brute_force_min_windows(events: &[Vec<SimInstant>], ti: SimDuration) -> Option<usize> {
    let anchors: Vec<SimInstant> = {
        let mut a: Vec<SimInstant> = events.iter().flatten().copied().collect();
        a.sort_unstable();
        a.dedup();
        a
    };
    let n = events.len();
    if anchors.is_empty() {
        return if n == 0 { Some(0) } else { None };
    }
    let covers: Vec<u32> = anchors
        .iter()
        .map(|&start| {
            let w = TimeWindow::starting_at(start, ti);
            let mut mask = 0u32;
            for (d, evs) in events.iter().enumerate() {
                if evs.iter().any(|&t| w.contains(t)) {
                    mask |= 1 << d;
                }
            }
            mask
        })
        .collect();
    let full = (1u32 << n) - 1;
    for k in 0..=anchors.len() {
        // All k-subsets via bit tricks would be heavy; recursive search.
        fn search(covers: &[u32], k: usize, acc: u32, full: u32, from: usize) -> bool {
            if acc == full {
                return true;
            }
            if k == 0 {
                return false;
            }
            (from..covers.len()).any(|i| search(covers, k - 1, acc | covers[i], full, i + 1))
        }
        if search(&covers, k, 0, full, 0) {
            return Some(k);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_greedy_is_within_ln_n_of_optimal(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000, 1..4),
            1..6
        ),
        ti_ms in 50u64..400,
    ) {
        let ti = SimDuration::from_ms(ti_ms);
        let events: Vec<Vec<SimInstant>> = raw
            .iter()
            .map(|d| {
                let mut v: Vec<SimInstant> = d.iter().map(|&m| SimInstant::from_ms(m)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let dense = vec![false; events.len()];
        let slots = WindowCover::new(ti)
            .solve(SimInstant::ZERO, &PoTimeline::from_events(&events, &dense))
            .expect("every device has events");
        let optimal = brute_force_min_windows(&events, ti).expect("coverable");
        // Chvatal bound: greedy <= H(n) * optimal; for n < 6, H(n) < 2.29.
        prop_assert!(slots.len() >= optimal);
        prop_assert!(
            (slots.len() as f64) <= 2.29 * optimal as f64 + 1e-9,
            "greedy {} vs optimal {}",
            slots.len(),
            optimal
        );
    }

    #[test]
    fn windowed_cover_partitions_devices(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..50_000, 1..6),
            1..25
        ),
        ti_ms in 100u64..2_000,
    ) {
        let events: Vec<Vec<SimInstant>> = raw
            .iter()
            .map(|d| {
                let mut v: Vec<SimInstant> = d.iter().map(|&m| SimInstant::from_ms(m)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let dense = vec![false; events.len()];
        let slots = WindowCover::new(SimDuration::from_ms(ti_ms))
            .solve(SimInstant::ZERO, &PoTimeline::from_events(&events, &dense))
            .unwrap();
        let mut seen = vec![0usize; events.len()];
        for s in &slots {
            for &d in &s.covered {
                seen[d] += 1;
                // Each covered device truly has a PO inside the window.
                prop_assert!(events[d]
                    .iter()
                    .any(|&t| t >= s.window_start && t < s.transmit_at));
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn generic_greedy_covers_or_reports_impossible(
        sets in proptest::collection::vec(
            proptest::collection::vec(0usize..12, 0..5),
            1..12
        ),
    ) {
        let n = 12usize;
        let result = greedy_set_cover(n, &sets);
        let coverable = {
            let mut covered = vec![false; n];
            for s in &sets {
                for &e in s {
                    covered[e] = true;
                }
            }
            covered.iter().all(|&c| c)
        };
        match result {
            Some(picked) => {
                prop_assert!(coverable);
                let mut covered = vec![false; n];
                for i in &picked {
                    for &e in &sets[*i] {
                        covered[e] = true;
                    }
                }
                prop_assert!(covered.iter().all(|&c| c));
                // Greedy never picks a set adding nothing.
                prop_assert!(picked.len() <= n);
            }
            None => prop_assert!(!coverable),
        }
    }

    #[test]
    fn all_greedy_solvers_are_pick_identical_to_reference(
        sets in proptest::collection::vec(
            proptest::collection::vec(0usize..40, 0..12),
            1..30
        ),
        costs in proptest::collection::vec(1u32..=400, 29..30),
    ) {
        // The incremental-gain kernel must reproduce the reference
        // oracles' picks exactly (same sets, same order), including the
        // None cases: at unit cost through `greedy_set_cover`, and at a
        // drawn cost per set (29 costs, the most sets a case draws,
        // trimmed to the set count).
        let oracle = reference::greedy_set_cover(40, &sets);
        prop_assert_eq!(greedy_set_cover(40, &sets), oracle);
        let costs = &costs[..sets.len()];
        prop_assert_eq!(
            greedy_set_cover_weighted(40, &sets, costs),
            reference::greedy_set_cover_weighted(40, &sets, costs)
        );
    }

    #[test]
    fn incremental_greedy_survives_adversarial_tie_storms(
        n in 1usize..24,
        width in 1usize..6,
        copies in 1usize..5,
    ) {
        // Adversarial shape for lazy snapshot queues: every set duplicated
        // `copies` times (maximal ties, lowest index must win every round)
        // over a sliding overlap structure that leaves most snapshots
        // stale after each pick.
        let mut sets = Vec::new();
        for start in 0..n {
            let set: Vec<usize> = (start..(start + width).min(n)).collect();
            for _ in 0..copies {
                sets.push(set.clone());
            }
        }
        let oracle = reference::greedy_set_cover(n, &sets);
        prop_assert!(oracle.is_some());
        prop_assert_eq!(greedy_set_cover(n, &sets), oracle);
    }

    #[test]
    fn greedy_matches_windowed_solver_on_frame_instances(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..30, 1..4),
            1..8
        ),
    ) {
        // When TI = 1 frame-slot, each candidate window covers exactly the
        // devices of one slot: both solvers face the same instance and must
        // produce equally sized covers (both are the same greedy).
        let events: Vec<Vec<SimInstant>> = raw
            .iter()
            .map(|d| {
                let mut v: Vec<SimInstant> =
                    d.iter().map(|&m| SimInstant::from_ms(m * 10)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let dense = vec![false; events.len()];
        let slots = WindowCover::new(SimDuration::from_ms(10))
            .solve(SimInstant::ZERO, &PoTimeline::from_events(&events, &dense))
            .unwrap();

        let mut sets = vec![Vec::new(); 30];
        for (d, evs) in events.iter().enumerate() {
            for t in evs {
                sets[(t.as_ms() / 10) as usize].push(d);
            }
        }
        let picked = greedy_set_cover(events.len(), &sets).unwrap();
        prop_assert_eq!(slots.len(), picked.len());
    }

    #[test]
    fn anchor_instance_is_the_deduplicated_per_anchor_instance(
        periods in proptest::collection::vec((1u64..5, 0u64..800), 1..20),
        dense_bits in proptest::collection::vec(0u8..5, 1..20),
        weights in proptest::collection::vec(1u32..40, 1..20),
        ti_ms in 50u64..600,
        budget in 0u32..48,
        seed in 0u64..1_000,
    ) {
        // Periodic PO timelines (period a multiple of 200 ms) make member
        // sets recur across anchors, as real paging cycles do.
        let events: Vec<Vec<SimInstant>> = periods
            .iter()
            .map(|&(k, offset)| {
                let period = 200 * k;
                (0..8).map(|i| SimInstant::from_ms(offset % period + i * period)).collect()
            })
            .collect();
        let dense: Vec<bool> = (0..events.len())
            .map(|i| dense_bits.get(i).is_some_and(|&b| b == 0))
            .collect();
        let ti = SimDuration::from_ms(ti_ms);
        let instance = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &dense));
        let naive = reference::anchor_windows(ti, &events, &dense);
        let n_sparse = instance.sparse_devices().len();
        let windows: Vec<Vec<usize>> = (0..instance.window_count())
            .map(|w| instance.window(w).iter().map(|&s| s as usize).collect())
            .collect();

        // Every anchor's window is exactly its member set, and each
        // distinct window sits at the lowest anchor holding that set.
        prop_assert_eq!(instance.anchors().len(), naive.len());
        for (a, (t, members)) in naive.iter().enumerate() {
            prop_assert_eq!(instance.anchors()[a], *t);
            let w = instance.window_of(a);
            let mut window: Vec<usize> = windows[w]
                .iter()
                .map(|&s| instance.sparse_devices()[s])
                .collect();
            window.sort_unstable();
            prop_assert_eq!(&window, members);
            let lowest = instance.lowest_anchors()[w] as usize;
            prop_assert_eq!(&naive[lowest].1, members);
            prop_assert!(naive[..lowest].iter().all(|(_, m)| m != members));
        }
        // Distinct windows differ pairwise.
        let mut sets: Vec<Vec<usize>> = windows
            .iter()
            .map(|w| {
                let mut w = w.clone();
                w.sort_unstable();
                w
            })
            .collect();
        let distinct = sets.len();
        sets.sort();
        sets.dedup();
        prop_assert_eq!(sets.len(), distinct);
        prop_assert_eq!(instance.entries(), sets.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(
            instance.anchor_entries(),
            naive.iter().map(|(_, m)| m.len()).sum::<usize>()
        );

        // The device → window runs expand to the exact transpose of the
        // windows: each (window, device) pair once in each direction, and
        // each device's runs non-empty, ascending and maximal.
        let mut forward: Vec<(usize, usize)> = windows
            .iter()
            .enumerate()
            .flat_map(|(w, members)| members.iter().map(move |&s| (w, s)))
            .collect();
        let mut backward: Vec<(usize, usize)> = Vec::new();
        for s in 0..n_sparse {
            let runs = instance.window_runs(s);
            prop_assert!(runs.iter().all(|r| r.0 < r.1), "device {} runs {:?}", s, runs);
            prop_assert!(runs.windows(2).all(|p| p[0].1 < p[1].0), "device {} runs {:?}", s, runs);
            backward.extend(runs.iter().flat_map(|&(start, end)| (start..end).map(|w| (w as usize, s))));
        }
        forward.sort_unstable();
        backward.sort_unstable();
        prop_assert!(forward.windows(2).all(|p| p[0] != p[1]), "a window lists a device twice");
        prop_assert_eq!(forward, backward);

        // The in-place tabu search on the instance equals `improve_cover`
        // over the window lists copied out, cover and stats alike.
        if let Some(initial) = greedy_set_cover(n_sparse, &windows) {
            prop_assert_eq!(
                instance.improve_cover(&initial, budget, seed),
                improve_cover(n_sparse, &windows, &initial, budget, seed)
            );
        }

        // The weighted cover over the deduplicated instance returns the
        // same slots as the weighted greedy over the full naive instance.
        let cost = |members: &[usize]| {
            members.iter().map(|&d| weights.get(d).copied().unwrap_or(1)).max().unwrap_or(1)
        };
        prop_assert_eq!(
            WindowCover::new(ti).solve_weighted(SimInstant::ZERO, &instance, cost),
            reference::window_cover_weighted(ti, SimInstant::ZERO, &events, &dense, cost)
        );
    }
}

proptest! {
    // More cases than the block above: a shared-instant slip moves a slot
    // only when an instant keeps an uncovered device after another of its
    // devices is covered elsewhere, which few small random draws reach.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_window_engines_are_slot_identical_to_reference(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..50_000, 0..6),
            1..25
        ),
        dense_bits in proptest::collection::vec(0u8..4, 1..25),
        ti_ms in 100u64..2_000,
        step_ms in 1u64..=2_000,
    ) {
        // POs are quantized to multiples of `step_ms`, so most cases put
        // several devices on one instant, as eDRX paging time windows do;
        // that is where per-event and per-instant candidates differ.
        let events: Vec<Vec<SimInstant>> = raw
            .iter()
            .map(|d| {
                let mut v: Vec<SimInstant> = d
                    .iter()
                    .map(|&m| SimInstant::from_ms(m / step_ms * step_ms))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        // Random dense flags (aligned with events, padded with false).
        let dense: Vec<bool> = (0..events.len())
            .map(|i| dense_bits.get(i).is_some_and(|&b| b == 0))
            .collect();
        let ti = SimDuration::from_ms(ti_ms);
        let solver = WindowCover::new(ti);
        let timeline = PoTimeline::from_events(&events, &dense);
        let oracle = reference::window_cover_solve(ti, SimInstant::ZERO, &events, &dense);
        // The crossover-dispatched default plus both engines pinned.
        prop_assert_eq!(solver.solve(SimInstant::ZERO, &timeline), oracle.clone());
        prop_assert_eq!(solver.solve_incremental(SimInstant::ZERO, &timeline), oracle.clone());
        prop_assert_eq!(solver.solve_sweep(SimInstant::ZERO, &timeline), oracle);
    }

    #[test]
    fn class_cover_on_shared_timelines_is_the_per_device_cover(
        pool in proptest::collection::vec(
            proptest::collection::vec(0u64..20_000, 0..6),
            1..6
        ),
        picks in proptest::collection::vec(0usize..64, 1..60),
        dense_bits in proptest::collection::vec(0u8..5, 1..60),
        ti_ms in 100u64..2_000,
        step_ms in 1u64..=1_000,
    ) {
        // n devices share k pooled timelines, as paging schedules repeat
        // across a fleet, plus some dense devices: every class carries a
        // multiplicity, and both engines on the class timeline must
        // return the per-device oracle's slots.
        let pool: Vec<Vec<SimInstant>> = pool
            .iter()
            .map(|d| {
                let mut v: Vec<SimInstant> = d
                    .iter()
                    .map(|&m| SimInstant::from_ms(m / step_ms * step_ms))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let events: Vec<Vec<SimInstant>> =
            picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();
        let dense: Vec<bool> = (0..events.len())
            .map(|i| dense_bits.get(i).is_some_and(|&b| b == 0))
            .collect();
        let ti = SimDuration::from_ms(ti_ms);
        let solver = WindowCover::new(ti);
        let timeline = PoTimeline::from_events(&events, &dense);
        prop_assert!(timeline.sparse_classes() <= pool.len());
        let oracle = reference::window_cover_solve(ti, SimInstant::ZERO, &events, &dense);
        prop_assert_eq!(solver.solve(SimInstant::ZERO, &timeline), oracle.clone());
        prop_assert_eq!(solver.solve_incremental(SimInstant::ZERO, &timeline), oracle.clone());
        prop_assert_eq!(solver.solve_sweep(SimInstant::ZERO, &timeline), oracle);
    }
}
