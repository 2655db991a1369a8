//! Set-cover solvers for the DR-SC mechanism.
//!
//! The paper (Sec. III-A, Fig. 3) formulates DR-SC as a set cover: the
//! universe is the device group, and each candidate transmission window of
//! inactivity-timer length `TI` covers the devices with a paging occasion
//! inside it. Exact minimum set cover is NP-hard; following the paper we
//! use Chvátal's greedy heuristic (pick the window covering the most
//! still-uncovered devices, repeat), which guarantees an `H(n)`
//! approximation factor.
//!
//! Two solvers are provided:
//!
//! * [`greedy_set_cover`] — the greedy over explicit sets (used for the
//!   Fig. 3 bipartite instance and for cross-checking),
//! * [`WindowCover`] — the specialized timeline solver: it slides a
//!   `TI`-length window over the merged PO event list, exploiting two
//!   structural facts: (a) an optimal window can always be anchored to
//!   start at some PO, and (b) a device whose cycle is at most `TI` has a
//!   PO in *every* window, so it never influences the argmax and can be
//!   attached to the first selected transmission.
//!
//! The cost-aware and tabu variants instead solve the *static* instance
//! [`AnchorInstance`]: every distinct member set of a window anchored at a
//! PO, stored once.
//!
//! # Performance
//!
//! Three implementation tiers exist, all **pick- and slot-identical** (not
//! merely equally sized covers) — the full story, with complexity notes
//! and the staleness argument behind the identity guarantee, is in
//! `docs/KERNELS.md` at the repository root:
//!
//! 1. **Incremental gain maintenance** (the production path): instead of
//!    re-scanning every candidate each round, exact marginal gains are
//!    kept current through an element→sets inverted index — covering a
//!    round's winner decrements only the sets that intersect the newly
//!    covered elements — and the next winner is popped from a lazy
//!    max-gain snapshot heap (`GainQueue` internally). Total work is
//!    `O(L log L)` over the whole solve, where `L` is the summed set
//!    size, independent of the round count. [`greedy_set_cover`] is this
//!    solver; [`WindowCover::solve`] dispatches to it when the window
//!    occupancy is low (see [`WindowCover::solve_incremental`]).
//! 2. **Eager re-sweep fast paths** (the PR-1 kernels):
//!    [`greedy_set_cover_bitset`] packs each set into `u64` bitset rows so
//!    a round's gain is a `popcount(set & !covered)` sweep;
//!    [`WindowCover::solve_sweep`] re-runs a self-cleaning two-pointer
//!    sweep per round over hoisted scratch buffers. `O(rounds × L/w)`
//!    shapes that win when rounds are few and windows are crowded.
//! 3. **Reference oracles**: straightforward implementations, kept in
//!    [`reference`] for the equivalence tests
//!    (`tests/setcover_properties.rs`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use nbiot_time::{SimDuration, SimInstant};

/// Lazy max-gain priority queue over `(gain, Reverse(candidate))`
/// snapshots — the priority structure of the incremental solvers.
///
/// Gains of a greedy cover only ever *decrease* as coverage grows
/// (coverage gain is submodular), so a snapshot taken earlier is an upper
/// bound on the candidate's current gain. Every gain change pushes a fresh
/// snapshot; [`GainQueue::pop_current`] discards stale entries until the
/// top snapshot matches the candidate's live gain. The first current entry
/// popped is exactly the eager greedy's argmax with ties broken towards
/// the lowest index: any entry ordered above `(gain[s*], s*)` either
/// carries a stale (higher) gain or would itself be a lower-index argmax.
struct GainQueue {
    // u32 keys keep the snapshots at 8 bytes: gains are device counts and
    // candidates are set/anchor indices, both far below 2^32 for any
    // instance that fits in memory.
    heap: BinaryHeap<(u32, Reverse<u32>)>,
}

impl GainQueue {
    /// Seeds the queue with a snapshot of every candidate with a positive
    /// gain.
    fn new(gains: &[u32]) -> GainQueue {
        let mut queue = GainQueue {
            heap: BinaryHeap::new(),
        };
        Self::seed(&mut queue.heap, gains);
        queue
    }

    /// Re-seeds `heap` (retaining its capacity) with a snapshot of every
    /// candidate with a positive gain — the arena-backed entry point.
    fn seed(heap: &mut BinaryHeap<(u32, Reverse<u32>)>, gains: &[u32]) {
        heap.clear();
        heap.extend(
            gains
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g > 0)
                .map(|(i, &g)| (g, Reverse(i as u32))),
        );
    }

    /// Pushes a fresh snapshot (no-op for exhausted candidates).
    fn push(&mut self, gain: u32, candidate: usize) {
        Self::push_to(&mut self.heap, gain, candidate);
    }

    fn push_to(heap: &mut BinaryHeap<(u32, Reverse<u32>)>, gain: u32, candidate: usize) {
        if gain > 0 {
            heap.push((gain, Reverse(candidate as u32)));
        }
    }

    /// Pops snapshots until one is current (`gains[c]` unchanged and `c`
    /// not dead) and returns that candidate, or `None` when every
    /// remaining candidate has gain zero.
    fn pop_current(&mut self, gains: &[u32], dead: impl Fn(usize) -> bool) -> Option<usize> {
        Self::pop_current_from(&mut self.heap, gains, dead)
    }

    fn pop_current_from(
        heap: &mut BinaryHeap<(u32, Reverse<u32>)>,
        gains: &[u32],
        dead: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        while let Some((gain, Reverse(candidate))) = heap.pop() {
            let candidate = candidate as usize;
            if !dead(candidate) && gains[candidate] == gain {
                return Some(candidate);
            }
        }
        None
    }
}

/// Lazy max-*ratio* priority queue — [`GainQueue`]'s weighted sibling,
/// keyed on the deterministic fixed-point ratio `(gain << 32) / cost`.
///
/// Costs are static over a solve and gains only decrease, so the ratio is
/// monotone non-increasing and the same lazy-snapshot argument applies.
/// One gain decrement moves the key by `2^32 / cost >= 1` (costs are
/// `u32`, so the quotient never truncates to zero), hence a snapshot key
/// equals the live key **iff** the gain is unchanged — the staleness test
/// needs no separate gain comparison. The fixed-point key *is* the ratio
/// law: two candidates tie exactly when their truncated keys agree, and
/// ties break towards the lowest index via `Reverse(candidate)`. With unit
/// costs the key degenerates to `gain << 32`, strictly monotone in the
/// gain, so the pick sequence is bit-identical to [`GainQueue`]'s
/// (proptest-locked in `tests/setcover_properties.rs`).
struct RatioQueue;

impl RatioQueue {
    /// The deterministic fixed-point ratio key. `cost` must be nonzero
    /// (asserted by the solver entry points).
    #[inline]
    fn key(gain: u32, cost: u32) -> u64 {
        ((gain as u64) << 32) / cost as u64
    }

    /// Re-seeds `heap` (retaining its capacity) with a snapshot of every
    /// candidate with a positive gain.
    fn seed(heap: &mut BinaryHeap<(u64, Reverse<u32>)>, gains: &[u32], costs: &[u32]) {
        heap.clear();
        heap.extend(
            gains
                .iter()
                .zip(costs)
                .enumerate()
                .filter(|&(_, (&g, _))| g > 0)
                .map(|(i, (&g, &c))| (Self::key(g, c), Reverse(i as u32))),
        );
    }

    /// Pushes a fresh snapshot (no-op for exhausted candidates).
    fn push_to(heap: &mut BinaryHeap<(u64, Reverse<u32>)>, gain: u32, cost: u32, candidate: usize) {
        if gain > 0 {
            heap.push((Self::key(gain, cost), Reverse(candidate as u32)));
        }
    }

    /// Pops snapshots until one carries the candidate's live key and
    /// returns that candidate, or `None` when every remaining candidate
    /// has gain zero.
    fn pop_current_from(
        heap: &mut BinaryHeap<(u64, Reverse<u32>)>,
        gains: &[u32],
        costs: &[u32],
    ) -> Option<usize> {
        while let Some((key, Reverse(candidate))) = heap.pop() {
            let candidate = candidate as usize;
            if gains[candidate] > 0 && Self::key(gains[candidate], costs[candidate]) == key {
                return Some(candidate);
            }
        }
        None
    }
}

/// Reusable scratch for the incremental set-cover kernel: the dedup CSR,
/// the element→sets inverted index, the per-worker build buffers, and the
/// solve-phase scratch (gains, coverage tombstones, queue storage).
///
/// Every buffer keeps its capacity across calls, so repeated plans within
/// a run — the per-round re-planning of a churned campaign, or a figure
/// sweep's device-count ladder — stop allocating once the largest
/// instance has been seen. Construct one with [`KernelArena::new`] and
/// thread it through [`greedy_set_cover_with`] / [`build_cover_index`];
/// [`greedy_set_cover`] uses a thread-local arena internally.
#[derive(Debug, Default)]
pub struct KernelArena {
    // Dedup CSR over the input sets.
    set_off: Vec<usize>,
    set_elems: Vec<u32>,
    // Element → sets inverted index (CSR).
    elem_off: Vec<u32>,
    elem_sets: Vec<u32>,
    // Build scratch: dedup stamps, scatter cursors, per-worker buffers.
    seen: Vec<u32>,
    cursor: Vec<u32>,
    worker_seen: Vec<Vec<u32>>,
    worker_elems: Vec<Vec<u32>>,
    worker_lens: Vec<Vec<u32>>,
    worker_counts: Vec<Vec<u32>>,
    // Solve scratch.
    gains: Vec<u32>,
    covered: Vec<bool>,
    last_touch: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<(u32, Reverse<u32>)>,
    // Weighted-solve scratch: the u64 ratio-keyed heap (the unweighted
    // heap stays u32-keyed — see `GainQueue`'s size note) and the
    // per-anchor cost column of the window front-end.
    wheap: BinaryHeap<(u64, Reverse<u32>)>,
    wcosts: Vec<u32>,
    // Window-cover front-end scratch: the flat time-sorted event list and
    // the per-device coverage flags behind [`WindowCover::solve_in`], so a
    // long-lived caller (the grouping service's repair path) stops
    // allocating them once the largest instance has been seen.
    wc_flat: Vec<(SimInstant, usize)>,
    wc_covered: Vec<bool>,
    wc_count: Vec<u32>,
}

impl KernelArena {
    /// An empty arena; buffers grow on first use and are retained after.
    pub fn new() -> KernelArena {
        KernelArena::default()
    }
}

/// Clears and refills `buf` to `len` copies of `value`, retaining
/// capacity.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// `bounds[k]..bounds[k+1]` item ranges for `workers` contiguous chunks,
/// balanced by per-item `mass` (empty trailing ranges when there are more
/// workers than mass). Deterministic in its inputs only.
fn balanced_bounds(
    n: usize,
    workers: usize,
    total: usize,
    mass: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0);
    let mut acc = 0usize;
    for i in 0..n {
        if bounds.len() > workers {
            break;
        }
        acc += mass(i);
        while bounds.len() <= workers && acc * workers >= total * bounds.len() {
            bounds.push(i + 1);
        }
    }
    while bounds.len() <= workers {
        bounds.push(n);
    }
    bounds[workers] = n;
    bounds
}

/// Resolves the worker count for an index build: `0` = the machine's
/// available parallelism (capped at 8 — the counting buffers are
/// universe-sized per worker), any other value is taken as-is; small
/// instances always build serially (spawn overhead would dominate).
fn effective_workers(threads: usize, input_entries: usize) -> usize {
    const SERIAL_CUTOFF: usize = 1 << 14;
    if input_entries < SERIAL_CUTOFF {
        return 1;
    }
    match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        t => t.min(8),
    }
    .max(1)
}

/// Statistics of one [`build_cover_index`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBuildStats {
    /// Number of input sets.
    pub sets: usize,
    /// Deduped CSR entries (= inverted-index entries).
    pub entries: usize,
    /// Workers the build actually ran on (small instances build
    /// serially regardless of the requested thread count).
    pub workers: usize,
    /// FNV-1a digest over `set_off`/`set_elems`/`elem_off`/`elem_sets` —
    /// the bit-identity witness for parallel-vs-serial build tests.
    pub checksum: u64,
}

/// Builds the dedup CSR and the element→sets inverted index into `arena`
/// and returns build statistics, including a checksum over all four index
/// arrays. The build is **bit-identical at every thread count** (see
/// [`greedy_set_cover_with`] for why); `threads` follows
/// [`greedy_set_cover_with`]'s convention (`0` = auto).
///
/// This is the benchmarking/testing entry point for the index build in
/// isolation; [`greedy_set_cover_with`] runs the same build and then the
/// greedy rounds.
///
/// # Panics
///
/// Panics when a set contains an element `>= universe_size`.
pub fn build_cover_index(
    universe_size: usize,
    sets: &[Vec<usize>],
    threads: usize,
    arena: &mut KernelArena,
) -> IndexBuildStats {
    let workers = build_index_into(universe_size, sets, threads, arena);
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(FNV_PRIME);
    for &o in &arena.set_off {
        mix(o as u64);
    }
    for &e in &arena.set_elems {
        mix(e as u64);
    }
    for &o in &arena.elem_off {
        mix(o as u64);
    }
    for &s in &arena.elem_sets {
        mix(s as u64);
    }
    IndexBuildStats {
        sets: sets.len(),
        entries: arena.set_elems.len(),
        workers,
        checksum: h,
    }
}

/// The index-build core: dedup CSR, then the counting pass, then the
/// exclusive-prefix-sum scatter. Returns the worker count used.
///
/// Parallelization is by **contiguous partitioning** in both directions —
/// set ranges for dedup/counting, element ranges for the scatter — so the
/// output arrays are byte-for-byte what the serial build writes: the
/// partition only changes *which worker* writes an entry, never its
/// position or value.
fn build_index_into(
    universe_size: usize,
    sets: &[Vec<usize>],
    threads: usize,
    arena: &mut KernelArena,
) -> usize {
    assert!(
        universe_size < u32::MAX as usize && sets.len() < u32::MAX as usize,
        "index build uses u32 entries"
    );
    let input_entries: usize = sets.iter().map(|s| s.len()).sum();
    let workers = effective_workers(threads, input_entries);

    // --- Phase A: dedup each set into a CSR row (repeated elements count
    // once — the unique-gain semantics of the reference solver). The
    // index arrays are u32: the CSR is the memory-bandwidth hot spot of
    // the whole solver, and halving the entry width measurably moves the
    // build. ---
    arena.set_off.clear();
    arena.set_off.reserve(sets.len() + 1);
    arena.set_off.push(0);
    arena.set_elems.clear();
    if workers == 1 {
        reset(&mut arena.seen, universe_size, u32::MAX);
        for (i, set) in sets.iter().enumerate() {
            for &e in set {
                assert!(
                    e < universe_size,
                    "set {i} contains element {e} outside universe 0..{universe_size}"
                );
                if arena.seen[e] != i as u32 {
                    arena.seen[e] = i as u32;
                    arena.set_elems.push(e as u32);
                }
            }
            arena.set_off.push(arena.set_elems.len());
        }
    } else {
        // Per-worker dedup over contiguous set ranges (balanced by input
        // mass), each with its own stamp array, then an order-preserving
        // concatenation: identical CSR to the serial pass.
        let set_bounds =
            balanced_bounds(sets.len(), workers, input_entries, |i| sets[i].len().max(1));
        arena.worker_seen.resize_with(workers, Vec::new);
        arena.worker_elems.resize_with(workers, Vec::new);
        arena.worker_lens.resize_with(workers, Vec::new);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (w, ((seen, elems), lens)) in arena
                .worker_seen
                .iter_mut()
                .zip(arena.worker_elems.iter_mut())
                .zip(arena.worker_lens.iter_mut())
                .enumerate()
            {
                let range = set_bounds[w]..set_bounds[w + 1];
                handles.push(scope.spawn(move || {
                    reset(seen, universe_size, u32::MAX);
                    elems.clear();
                    lens.clear();
                    for i in range {
                        let before = elems.len();
                        for &e in &sets[i] {
                            assert!(
                                e < universe_size,
                                "set {i} contains element {e} outside universe 0..{universe_size}"
                            );
                            if seen[e] != i as u32 {
                                seen[e] = i as u32;
                                elems.push(e as u32);
                            }
                        }
                        lens.push((elems.len() - before) as u32);
                    }
                }));
            }
            for h in handles {
                h.join().expect("index-build worker");
            }
        });
        for w in 0..workers {
            for &len in &arena.worker_lens[w] {
                arena
                    .set_off
                    .push(arena.set_off.last().unwrap() + len as usize);
            }
        }
        let total: usize = arena.worker_elems.iter().map(|v| v.len()).sum();
        arena.set_elems.reserve(total);
        for w in 0..workers {
            let part = &arena.worker_elems[w];
            arena.set_elems.extend_from_slice(part);
        }
    }
    let entries = arena.set_elems.len();

    // --- Phase B: per-worker counting pass over the deduped entries,
    // folded into the element-offset array. ---
    reset(&mut arena.elem_off, universe_size + 1, 0u32);
    if workers == 1 {
        for &e in &arena.set_elems {
            arena.elem_off[e as usize + 1] += 1;
        }
    } else {
        arena.worker_counts.resize_with(workers, Vec::new);
        let chunk = entries.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (w, counts) in arena.worker_counts.iter_mut().enumerate() {
                let slice =
                    &arena.set_elems[(w * chunk).min(entries)..((w + 1) * chunk).min(entries)];
                handles.push(scope.spawn(move || {
                    reset(counts, universe_size, 0u32);
                    for &e in slice {
                        counts[e as usize] += 1;
                    }
                }));
            }
            for h in handles {
                h.join().expect("index-build worker");
            }
        });
        for counts in &arena.worker_counts {
            for (e, &c) in counts.iter().enumerate() {
                arena.elem_off[e + 1] += c;
            }
        }
    }
    // Exclusive prefix sum: elem_off[e] is where element e's set list
    // starts in elem_sets.
    for i in 0..universe_size {
        arena.elem_off[i + 1] += arena.elem_off[i];
    }

    // --- Phase C: scatter set indices to their prefix-sum positions. ---
    arena.cursor.clear();
    arena
        .cursor
        .extend_from_slice(&arena.elem_off[..universe_size]);
    reset(&mut arena.elem_sets, entries, 0u32);
    if workers == 1 {
        for (i, w) in arena.set_off.windows(2).enumerate() {
            for &e in &arena.set_elems[w[0]..w[1]] {
                let c = &mut arena.cursor[e as usize];
                arena.elem_sets[*c as usize] = i as u32;
                *c += 1;
            }
        }
    } else {
        // Contiguous element ranges (balanced by entry mass): each worker
        // owns a disjoint slice of `elem_sets`/`cursor` and scans the CSR
        // in set order, scattering only its own elements — exactly the
        // positions and values the serial scatter writes.
        let elem_bounds = balanced_bounds(universe_size, workers, entries, |e| {
            (arena.elem_off[e + 1] - arena.elem_off[e]) as usize
        });
        let set_off = &arena.set_off;
        let set_elems = &arena.set_elems;
        let elem_off = &arena.elem_off;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut elems_rest: &mut [u32] = &mut arena.elem_sets;
            let mut cursor_rest: &mut [u32] = &mut arena.cursor;
            let mut entry_base = 0usize;
            let mut elem_base = 0usize;
            for w in 0..workers {
                let e_lo = elem_bounds[w];
                let e_hi = elem_bounds[w + 1];
                let entry_hi = elem_off[e_hi] as usize;
                let (out, rest) = elems_rest.split_at_mut(entry_hi - entry_base);
                elems_rest = rest;
                let (cur, rest) = cursor_rest.split_at_mut(e_hi - elem_base);
                cursor_rest = rest;
                let base = entry_base as u32;
                entry_base = entry_hi;
                elem_base = e_hi;
                handles.push(scope.spawn(move || {
                    let lo = e_lo as u32;
                    let hi = e_hi as u32;
                    for (i, win) in set_off.windows(2).enumerate() {
                        for &e in &set_elems[win[0]..win[1]] {
                            if e >= lo && e < hi {
                                let c = &mut cur[(e - lo) as usize];
                                out[(*c - base) as usize] = i as u32;
                                *c += 1;
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("index-build worker");
            }
        });
    }
    workers
}

thread_local! {
    /// The default arena behind [`greedy_set_cover`] (and
    /// [`crate::repair_plan`]): repeated solves on one thread (a figure
    /// sweep, a churn campaign's re-plans) reuse capacity without the
    /// caller holding an arena.
    pub(crate) static DEFAULT_ARENA: RefCell<KernelArena> = RefCell::new(KernelArena::new());
}

/// Greedy (Chvátal) set cover over explicit sets — the incremental-gain
/// production solver.
///
/// `universe_size` elements are labelled `0..universe_size`; `sets[i]`
/// lists the elements covered by set `i`. Returns the indices of the
/// selected sets in selection order, or `None` when the union of all sets
/// does not cover the universe. Ties are broken towards the lowest set
/// index, making the result deterministic — and **bit-identical** to both
/// [`greedy_set_cover_bitset`] and [`reference::greedy_set_cover`]
/// (enforced by `tests/setcover_properties.rs`).
///
/// Instead of re-scanning every set each round, exact marginal gains are
/// maintained through an element→sets inverted index: covering a round's
/// winner decrements only the sets intersecting the newly covered
/// elements, and winners are popped from a lazy max-gain snapshot heap.
/// Total work is `O(L log L)` for summed set size `L`, independent of the
/// number of rounds (see `docs/KERNELS.md`).
///
/// # Panics
///
/// Panics when a set contains an element `>= universe_size`.
///
/// # Example
///
/// The paper's Fig. 3 instance: the optimal solution is frames 4 and 5.
///
/// ```
/// use nbiot_grouping::set_cover::greedy_set_cover;
///
/// // frames 1..=6 as sets of devices 0..5
/// let frames = vec![
///     vec![0],       // frame 1: device 1
///     vec![1],       // frame 2: device 2
///     vec![3],       // frame 3: device 4
///     vec![0, 1, 2], // frame 4: devices 1,2,3
///     vec![3, 4],    // frame 5: devices 4,5
///     vec![2],       // frame 6: device 3
/// ];
/// let picked = greedy_set_cover(5, &frames).expect("coverable");
/// assert_eq!(picked, vec![3, 4]); // frames 4 and 5
/// ```
pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<usize>]) -> Option<Vec<usize>> {
    DEFAULT_ARENA
        .with(|arena| greedy_set_cover_with(universe_size, sets, 1, &mut arena.borrow_mut()))
}

/// [`greedy_set_cover`] with explicit scratch and an index-build thread
/// count — the scale-tier entry point.
///
/// `threads` controls only the CSR/inverted-index **build**: `0` picks the
/// machine's available parallelism (capped at 8), `n >= 1` requests
/// exactly `n` workers, and small instances always build serially. The
/// greedy rounds themselves are inherently sequential (each pick depends
/// on the previous round's gain updates) and always run on one thread.
/// The picks are **bit-identical at every thread count**: the parallel
/// build partitions work contiguously (set ranges for dedup/counting,
/// element ranges for the scatter), so the four index arrays — and hence
/// every downstream gain and tie-break — are byte-for-byte the serial
/// build's output (locked by `tests/parallel_determinism.rs`).
///
/// All allocations live in `arena` and are reused across calls; see
/// [`KernelArena`].
///
/// # Panics
///
/// Panics when a set contains an element `>= universe_size`.
pub fn greedy_set_cover_with(
    universe_size: usize,
    sets: &[Vec<usize>],
    threads: usize,
    arena: &mut KernelArena,
) -> Option<Vec<usize>> {
    if universe_size == 0 {
        return Some(Vec::new());
    }
    build_index_into(universe_size, sets, threads, arena);

    let KernelArena {
        set_off,
        set_elems,
        elem_off,
        elem_sets,
        gains,
        covered,
        last_touch,
        touched,
        heap,
        ..
    } = arena;
    gains.clear();
    gains.extend(set_off.windows(2).map(|w| (w[1] - w[0]) as u32));
    GainQueue::seed(heap, gains);
    reset(covered, universe_size, false);
    let mut remaining = universe_size;
    let mut picked = Vec::new();
    // Per-round dedup of gain-changed sets, stamped by round number
    // (rounds never reach the u32::MAX sentinel: there are at most
    // `universe_size < u32::MAX` of them).
    reset(last_touch, sets.len(), u32::MAX);
    touched.clear();
    let mut round = 0u32;
    while remaining > 0 {
        let best = GainQueue::pop_current_from(heap, gains, |_| false)?;
        picked.push(best);
        touched.clear();
        for &e in &set_elems[set_off[best]..set_off[best + 1]] {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                remaining -= 1;
                for &s in &elem_sets[elem_off[e] as usize..elem_off[e + 1] as usize] {
                    let s = s as usize;
                    gains[s] -= 1;
                    if last_touch[s] != round {
                        last_touch[s] = round;
                        touched.push(s as u32);
                    }
                }
            }
        }
        // One fresh snapshot per changed set, after all of the round's
        // decrements (the winner itself drops to gain zero and is never
        // re-enqueued).
        for &s in touched.iter() {
            GainQueue::push_to(heap, gains[s as usize], s as usize);
        }
        round += 1;
    }
    Some(picked)
}

/// Weighted-gain greedy set cover: each round picks the set maximizing
/// `gain / cost` — Chvátal's cost-aware rule, the `H(n)`-approximate
/// greedy for *minimum-cost* set cover — instead of the raw gain.
///
/// `costs[i]` is the static, positive cost of picking set `i` (for DR-SC
/// anchor windows: the coverage-class block airtime of the window's
/// deepest device). Ratios are compared through the deterministic
/// fixed-point key `(gain << 32) / cost`; candidates whose truncated keys
/// agree tie, and ties break towards the lowest set index. Gains are
/// maintained exactly through the same inverted-index machinery as
/// [`greedy_set_cover_with`], and winners pop from a lazy max-ratio
/// snapshot heap (costs are static and gains only decrease, so stale
/// snapshots are upper bounds — the same argument as the unweighted
/// queue). Total work is `O(L log L)` for summed set size `L`.
///
/// **Unit costs reproduce [`greedy_set_cover`]'s pick sequence
/// bit-identically**: with `cost == 1` the key is `gain << 32`, strictly
/// monotone in the gain, so every argmax and tie-break coincides
/// (proptest-locked in `tests/setcover_properties.rs` and pinned in the
/// bench crate's `kernel_regression.rs`).
///
/// Returns the picked set indices in selection order, or `None` when the
/// union of all sets does not cover the universe.
///
/// # Panics
///
/// Panics when `costs.len() != sets.len()`, when any cost is zero, or
/// when a set contains an element `>= universe_size`.
pub fn greedy_set_cover_weighted(
    universe_size: usize,
    sets: &[Vec<usize>],
    costs: &[u32],
    threads: usize,
    arena: &mut KernelArena,
) -> Option<Vec<usize>> {
    assert_eq!(
        costs.len(),
        sets.len(),
        "one cost per candidate set required"
    );
    assert!(
        costs.iter().all(|&c| c > 0),
        "set costs must be positive (a zero cost breaks the ratio key)"
    );
    if universe_size == 0 {
        return Some(Vec::new());
    }
    build_index_into(universe_size, sets, threads, arena);

    let KernelArena {
        set_off,
        set_elems,
        elem_off,
        elem_sets,
        gains,
        covered,
        last_touch,
        touched,
        wheap,
        ..
    } = arena;
    gains.clear();
    gains.extend(set_off.windows(2).map(|w| (w[1] - w[0]) as u32));
    RatioQueue::seed(wheap, gains, costs);
    reset(covered, universe_size, false);
    let mut remaining = universe_size;
    let mut picked = Vec::new();
    reset(last_touch, sets.len(), u32::MAX);
    touched.clear();
    let mut round = 0u32;
    while remaining > 0 {
        let best = RatioQueue::pop_current_from(wheap, gains, costs)?;
        picked.push(best);
        touched.clear();
        for &e in &set_elems[set_off[best]..set_off[best + 1]] {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                remaining -= 1;
                for &s in &elem_sets[elem_off[e] as usize..elem_off[e + 1] as usize] {
                    let s = s as usize;
                    gains[s] -= 1;
                    if last_touch[s] != round {
                        last_touch[s] = round;
                        touched.push(s as u32);
                    }
                }
            }
        }
        for &s in touched.iter() {
            let s = s as usize;
            RatioQueue::push_to(wheap, gains[s], costs[s], s);
        }
        round += 1;
    }
    Some(picked)
}

/// Greedy (Chvátal) set cover over packed-`u64` bitset rows — the eager
/// per-round re-sweep kernel (the PR-1 fast path), retained for
/// benchmarking against [`greedy_set_cover`] and as a second independent
/// implementation in the equivalence tests.
///
/// Same contract, same deterministic lowest-index tie-breaking, and
/// bit-identical picks as [`greedy_set_cover`]; each round costs one
/// `popcount(set & !covered)` sweep over every set.
///
/// # Panics
///
/// Panics when a set contains an element `>= universe_size`.
pub fn greedy_set_cover_bitset(universe_size: usize, sets: &[Vec<usize>]) -> Option<Vec<usize>> {
    if universe_size == 0 {
        return Some(Vec::new());
    }
    let words = universe_size.div_ceil(64);
    // Pack each set into a bitset row once; duplicates collapse for free,
    // which is exactly the unique-gain semantics of the reference solver.
    let mut rows = vec![0u64; sets.len() * words];
    for (i, set) in sets.iter().enumerate() {
        let row = &mut rows[i * words..(i + 1) * words];
        for &e in set {
            assert!(
                e < universe_size,
                "set {i} contains element {e} outside universe 0..{universe_size}"
            );
            row[e / 64] |= 1 << (e % 64);
        }
    }
    let mut covered = vec![0u64; words];
    let mut remaining = universe_size;
    let mut picked = Vec::new();
    while remaining > 0 {
        let mut best_gain = 0usize;
        let mut best_idx = usize::MAX;
        for (i, row) in rows.chunks_exact(words).enumerate() {
            let gain = row
                .iter()
                .zip(&covered)
                .map(|(r, c)| (r & !c).count_ones() as usize)
                .sum::<usize>();
            if gain > best_gain {
                best_gain = gain;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            return None; // no set adds anything, yet elements remain
        }
        picked.push(best_idx);
        for (c, r) in covered
            .iter_mut()
            .zip(&rows[best_idx * words..(best_idx + 1) * words])
        {
            *c |= r;
        }
        remaining -= best_gain;
    }
    Some(picked)
}

/// One selected transmission window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverSlot {
    /// Window start (anchored at a PO).
    pub window_start: SimInstant,
    /// Transmission instant: the end of the window (`start + TI`), the
    /// "last frame of t_o" in the paper.
    pub transmit_at: SimInstant,
    /// Indices (into the solver's device list) newly covered by this
    /// transmission.
    pub covered: Vec<usize>,
}

/// The deduplicated anchor-window set-cover instance over sparse devices —
/// the static instance [`WindowCover::solve_weighted`] and
/// [`crate::DrScTabu`] solve.
///
/// Every distinct sparse PO instant `a` anchors a candidate window holding
/// the sparse devices with a PO in `[a, a + TI)`. Most cycles are far
/// shorter than the `2·maxDRX` horizon, so the same member set recurs at
/// many anchors; the instance stores each distinct set **once**, at its
/// lowest anchor, plus an anchor → window map. Windows are numbered in
/// order of their lowest anchor, so a lowest-index tie law over windows is
/// the lowest-anchor tie law over the full per-anchor instance.
///
/// One sweep over the time-sorted PO events builds it: per-device
/// in-window counts track the current member set, and an order-independent
/// hash of that set (a wrapping sum of per-device keys) proposes earlier
/// windows with the same hash. Every proposal is checked exactly — equal
/// size and every member of the candidate inside the current window — so
/// two anchors share a window iff their member sets are equal; the hash
/// only saves work and never decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorInstance {
    /// Event index of each sparse device; window members index this list.
    sparse: Vec<usize>,
    /// Distinct sparse PO instants, ascending.
    anchors: Vec<SimInstant>,
    /// The window each anchor opens.
    window_of: Vec<usize>,
    /// Each window's lowest anchor (an index into `anchors`).
    lowest: Vec<usize>,
    /// Distinct member sets (sparse indices in PO order at the lowest
    /// anchor), in lowest-anchor order.
    windows: Vec<Vec<usize>>,
}

/// Per-device key of the order-independent member-set hash (the
/// SplitMix64 finalizer, so sums of keys rarely collide).
fn member_key(s: usize) -> u64 {
    let mut z = (s as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AnchorInstance {
    /// Builds the instance for windows of length `ti` over per-device PO
    /// `events`; `dense` devices (a PO in every window) are left out, as
    /// in [`WindowCover::solve`].
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths or `ti` is
    /// zero.
    pub fn new(ti: SimDuration, events: &[Vec<SimInstant>], dense: &[bool]) -> AnchorInstance {
        assert_eq!(events.len(), dense.len(), "events/dense length mismatch");
        assert!(ti > SimDuration::ZERO, "anchor windows need a positive TI");
        let sparse: Vec<usize> = (0..events.len()).filter(|&d| !dense[d]).collect();
        let mut flat: Vec<(SimInstant, usize)> = sparse
            .iter()
            .enumerate()
            .flat_map(|(s, &d)| events[d].iter().map(move |&t| (t, s)))
            .collect();
        flat.sort_unstable();

        let mut instance = AnchorInstance {
            sparse,
            anchors: Vec::new(),
            window_of: Vec::new(),
            lowest: Vec::new(),
            windows: Vec::new(),
        };
        let mut count = vec![0u32; instance.sparse.len()];
        let mut stamp = vec![usize::MAX; instance.sparse.len()];
        let (mut size, mut hash) = (0usize, 0u64);
        // Latest window per hash, chained to the previous window with the
        // same hash.
        let mut by_hash: HashMap<u64, usize> = HashMap::new();
        let mut same_hash: Vec<Option<usize>> = Vec::new();
        let (mut lo, mut hi) = (0usize, 0usize);
        while lo < flat.len() {
            let a = flat[lo].0;
            let end = a + ti;
            while hi < flat.len() && flat[hi].0 < end {
                let s = flat[hi].1;
                if count[s] == 0 {
                    size += 1;
                    hash = hash.wrapping_add(member_key(s));
                }
                count[s] += 1;
                hi += 1;
            }
            let mut candidate = by_hash.get(&hash).copied();
            while let Some(w) = candidate {
                let members = &instance.windows[w];
                if members.len() == size && members.iter().all(|&s| count[s] > 0) {
                    break;
                }
                candidate = same_hash[w];
            }
            let window = candidate.unwrap_or_else(|| {
                let w = instance.windows.len();
                let mut members = Vec::with_capacity(size);
                for &(_, s) in &flat[lo..hi] {
                    if stamp[s] != w {
                        stamp[s] = w;
                        members.push(s);
                    }
                }
                instance.windows.push(members);
                instance.lowest.push(instance.anchors.len());
                same_hash.push(by_hash.insert(hash, w));
                w
            });
            instance.anchors.push(a);
            instance.window_of.push(window);
            // Slide past the anchor instant: its events leave the window.
            while lo < flat.len() && flat[lo].0 == a {
                let s = flat[lo].1;
                count[s] -= 1;
                if count[s] == 0 {
                    size -= 1;
                    hash = hash.wrapping_sub(member_key(s));
                }
                lo += 1;
            }
        }
        instance
    }

    /// The event index of each sparse device, ascending: window members
    /// are positions in this list (the set-cover universe).
    pub fn sparse_devices(&self) -> &[usize] {
        &self.sparse
    }

    /// The candidate anchors: every distinct sparse PO instant, ascending.
    pub fn anchors(&self) -> &[SimInstant] {
        &self.anchors
    }

    /// The index of anchor instant `t`, or `None` when no sparse device
    /// has a PO at `t`.
    pub fn anchor_index(&self, t: SimInstant) -> Option<usize> {
        self.anchors.binary_search(&t).ok()
    }

    /// The window anchor `anchor` opens.
    ///
    /// # Panics
    ///
    /// Panics when `anchor >= anchors().len()`.
    pub fn window_of(&self, anchor: usize) -> usize {
        self.window_of[anchor]
    }

    /// Each window's lowest anchor, as an index into
    /// [`AnchorInstance::anchors`] (ascending: windows are numbered in
    /// lowest-anchor order).
    pub fn lowest_anchors(&self) -> &[usize] {
        &self.lowest
    }

    /// The distinct member sets, in lowest-anchor order — the candidate
    /// sets of the set cover. Each lists its sparse indices in PO order at
    /// its lowest anchor.
    pub fn windows(&self) -> &[Vec<usize>] {
        &self.windows
    }

    /// Summed size of the distinct windows.
    pub fn entries(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Summed window size over every anchor: the size of the instance
    /// before deduplication.
    pub fn anchor_entries(&self) -> usize {
        self.window_of.iter().map(|&w| self.windows[w].len()).sum()
    }
}

/// The greedy timeline solver for DR-SC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCover {
    ti: SimDuration,
}

/// Which greedy engine [`WindowCover::solve`] runs the rounds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Pick by measured window occupancy (the production default).
    Auto,
    /// Force the per-round two-pointer re-sweep (the PR-1 kernel).
    Sweep,
    /// Force incremental gain maintenance.
    Incremental,
}

impl WindowCover {
    /// Creates a solver for windows of inactivity-timer length `ti`.
    pub fn new(ti: SimDuration) -> WindowCover {
        WindowCover { ti }
    }

    /// Solves the cover.
    ///
    /// * `horizon_start` — the beginning of the search horizon (used to
    ///   anchor the single window when *every* device is dense),
    /// * `events` — per-device sorted PO instants within the search
    ///   horizon; devices with an empty list are only coverable when
    ///   `dense` (see below),
    /// * `dense` — per-device flag: `true` when the device's paging cycle
    ///   is at most `TI`, meaning every window contains one of its POs.
    ///
    /// Returns the selected transmissions in selection order, or `None`
    /// when some non-dense device has no PO events (it could never be
    /// covered).
    ///
    /// The greedy rounds run on one of two engines — incremental gain
    /// maintenance ([`WindowCover::solve_incremental`]) or the per-round
    /// re-sweep ([`WindowCover::solve_sweep`]) — chosen by measured window
    /// occupancy; both produce **identical slots** (see `docs/KERNELS.md`
    /// for the crossover analysis), so the choice only trades wall-clock.
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths.
    pub fn solve(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, events, dense, Strategy::Auto, None)
    }

    /// [`WindowCover::solve`] with caller-owned scratch: the flat event
    /// list, coverage flags and sweep counters live in `arena` and keep
    /// their capacity across calls, so a long-lived caller (the grouping
    /// service patching plans request after request) stops allocating the
    /// front-end buffers once the largest fleet has been seen. Output is
    /// **bit-identical** to [`WindowCover::solve`] (locked by unit test).
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths.
    pub fn solve_in(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
        arena: &mut KernelArena,
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, events, dense, Strategy::Auto, Some(arena))
    }

    /// [`WindowCover::solve`] forced onto the per-round two-pointer
    /// re-sweep engine (the PR-1 kernel) — exposed so equivalence tests
    /// and benchmarks can pin the engine regardless of the occupancy
    /// heuristic. Identical output to [`WindowCover::solve`].
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths.
    pub fn solve_sweep(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, events, dense, Strategy::Sweep, None)
    }

    /// [`WindowCover::solve`] forced onto the incremental-gain engine —
    /// exposed so equivalence tests and benchmarks can pin the engine
    /// regardless of the occupancy heuristic. Identical output to
    /// [`WindowCover::solve`].
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths.
    pub fn solve_incremental(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, events, dense, Strategy::Incremental, None)
    }

    /// Cost-aware cover over the [`AnchorInstance`] (the same deduplicated
    /// anchor-window instance [`crate::DrScTabu`] searches): prices each
    /// distinct window through `window_cost` and solves with
    /// [`greedy_set_cover_weighted`] — each round picks the window
    /// maximizing newly-covered devices *per unit cost* instead of the
    /// raw count. A picked window opens at its lowest anchor.
    ///
    /// `window_cost` receives the window's member devices as indices into
    /// `events` (sparse members only, in PO order at the window's lowest
    /// anchor) and must return a positive cost that depends on the member
    /// *set* alone; for DR-SC it returns the coverage-class block airtime
    /// of the deepest member. Dense devices ride the first selected
    /// transmission exactly as in [`WindowCover::solve`] — their cost
    /// contribution is constant across any cover, so they never influence
    /// the argmax and are excluded from the priced instance.
    ///
    /// Returns the selected transmissions in selection (greedy) order, or
    /// `None` when some non-dense device has no PO events. The slots are
    /// **identical** to the weighted greedy over the full per-anchor
    /// instance ([`reference::window_cover_weighted`], proptest-locked):
    /// anchors with equal member sets have equal gains and costs in every
    /// round, so that greedy always picks the lowest of them — the one
    /// anchor the deduplicated instance keeps. With a constant
    /// `window_cost` the ratio key degenerates to `gain << 32`, so the
    /// picks equal the unweighted kernel's on the same instance. They are
    /// *not* slot-for-slot identical to [`WindowCover::solve`]: the
    /// unweighted engines drop covered devices' events between rounds and
    /// therefore re-anchor gain-tied windows at a surviving (uncovered)
    /// PO, while the static instance keeps every anchor alive. The covered
    /// POs are the same; only tie-round `window_start`s can differ.
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths, or when
    /// `window_cost` returns zero.
    pub fn solve_weighted(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
        mut window_cost: impl FnMut(&[usize]) -> u32,
        arena: &mut KernelArena,
    ) -> Option<Vec<CoverSlot>> {
        assert_eq!(events.len(), dense.len(), "events/dense length mismatch");
        if events
            .iter()
            .zip(dense)
            .any(|(evs, &d)| evs.is_empty() && !d)
        {
            return None;
        }
        let instance = AnchorInstance::new(self.ti, events, dense);
        let sparse = instance.sparse_devices();
        let mut costs = std::mem::take(&mut arena.wcosts);
        costs.clear();
        let mut members: Vec<usize> = Vec::new();
        for window in instance.windows() {
            members.clear();
            members.extend(window.iter().map(|&s| sparse[s]));
            let cost = window_cost(&members);
            assert!(cost > 0, "window cost must be positive");
            costs.push(cost);
        }
        let picks = greedy_set_cover_weighted(sparse.len(), instance.windows(), &costs, 1, arena);
        arena.wcosts = costs;

        let mut covered = vec![false; events.len()];
        let mut slots: Vec<CoverSlot> = Vec::new();
        for w in picks? {
            let window_start = instance.anchors()[instance.lowest_anchors()[w]];
            let mut newly: Vec<usize> = instance.windows()[w]
                .iter()
                .map(|&s| sparse[s])
                .filter(|&d| !covered[d])
                .collect();
            newly.sort_unstable();
            debug_assert!(!newly.is_empty(), "weighted pick covers nothing");
            for &d in &newly {
                covered[d] = true;
            }
            slots.push(CoverSlot {
                window_start,
                transmit_at: window_start + self.ti,
                covered: newly,
            });
        }
        self.attach_dense(horizon_start, dense, &mut covered, &mut slots);
        Some(slots)
    }

    /// Dense devices ride the first transmission; if there is none
    /// (everyone is dense), one window opens at the horizon start.
    fn attach_dense(
        &self,
        horizon_start: SimInstant,
        dense: &[bool],
        covered: &mut [bool],
        slots: &mut Vec<CoverSlot>,
    ) {
        let dense_devices: Vec<usize> = (0..dense.len())
            .filter(|&d| dense[d] && !covered[d])
            .collect();
        for &d in &dense_devices {
            covered[d] = true;
        }
        debug_assert!(covered.iter().all(|&c| c));
        if dense_devices.is_empty() {
            return;
        }
        if let Some(first) = slots.first_mut() {
            first.covered.extend(dense_devices);
            first.covered.sort_unstable();
        } else {
            slots.push(CoverSlot {
                window_start: horizon_start,
                transmit_at: horizon_start + self.ti,
                covered: dense_devices,
            });
        }
    }

    fn solve_with(
        &self,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
        strategy: Strategy,
        arena: Option<&mut KernelArena>,
    ) -> Option<Vec<CoverSlot>> {
        assert_eq!(events.len(), dense.len(), "events/dense length mismatch");
        let n = events.len();
        if n == 0 {
            return Some(Vec::new());
        }
        for (evs, &is_dense) in events.iter().zip(dense) {
            if evs.is_empty() && !is_dense {
                return None;
            }
        }

        // Front-end buffers: borrowed from the arena when the caller holds
        // one, call-local otherwise. Both paths clear and refill, so the
        // solve is bit-identical either way.
        let mut local_flat: Vec<(SimInstant, usize)> = Vec::new();
        let mut local_covered: Vec<bool> = Vec::new();
        let mut local_count: Vec<u32> = Vec::new();
        let (flat, covered, count) = match arena {
            Some(a) => (&mut a.wc_flat, &mut a.wc_covered, &mut a.wc_count),
            None => (&mut local_flat, &mut local_covered, &mut local_count),
        };

        // Flat, time-sorted (po, device) list over sparse devices only.
        flat.clear();
        flat.reserve(
            events
                .iter()
                .zip(dense)
                .filter(|(_, &d)| !d)
                .map(|(e, _)| e.len())
                .sum(),
        );
        for (d, evs) in events.iter().enumerate() {
            if !dense[d] {
                flat.extend(evs.iter().map(|&t| (t, d)));
            }
        }
        flat.sort_unstable();

        let uncovered_sparse = dense.iter().filter(|&&d| !d).count();
        reset(covered, n, false);
        let mut slots: Vec<CoverSlot> = if uncovered_sparse == 0 {
            Vec::new()
        } else {
            // The incremental engine needs the per-anchor window ends;
            // the Auto crossover test is a cheap fold over the same
            // array, so compute it once and hand it down.
            let ends = match strategy {
                Strategy::Sweep => None,
                Strategy::Incremental => Some(self.window_ends(flat)),
                Strategy::Auto => {
                    let ends = self.window_ends(flat);
                    self.incremental_pays_off(&ends, uncovered_sparse)
                        .then_some(ends)
                }
            };
            match ends {
                Some(ends) => self.rounds_incremental(flat, ends, covered, uncovered_sparse),
                None => self.rounds_sweep(flat, count, covered, uncovered_sparse),
            }
        };
        self.attach_dense(horizon_start, dense, covered, &mut slots);
        Some(slots)
    }

    /// One two-pointer pass over the flat event list: `ends[i]` is the
    /// exclusive end of the index range `[i, ends[i])` of events inside
    /// the window anchored at event `i` (`ends` is non-decreasing because
    /// the anchors are time-sorted).
    fn window_ends(&self, flat: &[(SimInstant, usize)]) -> Vec<usize> {
        let e = flat.len();
        let mut ends = vec![0usize; e];
        let mut k = 0usize;
        for (i, &(start, _)) in flat.iter().enumerate() {
            let end = start + self.ti;
            if k < i {
                k = i;
            }
            while k < e && flat[k].0 < end {
                k += 1;
            }
            ends[i] = k;
        }
        ends
    }

    /// The engine crossover: the incremental path's total decrement work
    /// is bounded by the summed window occupancy `mass = Σᵢ (jᵢ − i)`
    /// (every (anchor, covered-device-in-window) pair is decremented at
    /// most once over the whole solve), while the re-sweep pays
    /// `rounds × events` with `rounds ≳ n/w̄` for mean occupancy
    /// `w̄ = mass/events`. The curves cross near `w̄ ≈ √n`; below it the
    /// incremental engine wins (few devices per window ⇒ many cheap
    /// rounds), above it the sweep does (crowded windows ⇒ few expensive
    /// rounds). See `docs/KERNELS.md`.
    fn incremental_pays_off(&self, ends: &[usize], n_sparse: usize) -> bool {
        let e = ends.len();
        let mass: u64 = ends.iter().enumerate().map(|(i, &k)| (k - i) as u64).sum();
        (mass as f64) <= (e as f64) * (n_sparse as f64).sqrt()
    }

    /// Greedy rounds on incremental gain maintenance: per-anchor gains are
    /// seeded with one self-cleaning sweep, then kept exact through the
    /// device→positions index — covering a device decrements precisely the
    /// alive anchors whose window sees one of its POs (merged position
    /// ranges count a device once per window) and tombstones the device's
    /// own events as anchors (the sweep engine compacts them away
    /// instead). Winners pop from the same lazy snapshot queue as
    /// [`greedy_set_cover`].
    ///
    /// The anchor index set of a window is the *lexicographic* range
    /// `[i, j_i)` of the original flat array, which is invariant under the
    /// reference solver's compaction — the root fact behind slot-identity.
    fn rounds_incremental(
        &self,
        flat: &[(SimInstant, usize)],
        j: Vec<usize>,
        covered: &mut [bool],
        mut uncovered_sparse: usize,
    ) -> Vec<CoverSlot> {
        let e = flat.len();
        let n = covered.len();
        // j[i]: exclusive end of the index range [i, j[i]) of events
        // inside the window anchored at event i (see `window_ends`).
        debug_assert_eq!(j.len(), e);
        // lo[p]: first anchor whose window still contains position p
        // (j is non-decreasing, so {a : j[a] > p} is a suffix).
        let mut lo = vec![0usize; e];
        {
            let mut a = 0usize;
            for (p, slot) in lo.iter_mut().enumerate() {
                while a < e && j[a] <= p {
                    a += 1;
                }
                *slot = a;
            }
        }
        // Device → its event positions in flat (CSR, ascending).
        let mut pos_off = vec![0usize; n + 1];
        for &(_, d) in flat {
            pos_off[d + 1] += 1;
        }
        for d in 0..n {
            pos_off[d + 1] += pos_off[d];
        }
        let mut cursor = pos_off[..n].to_vec();
        let mut positions = vec![0usize; e];
        for (p, &(_, d)) in flat.iter().enumerate() {
            positions[cursor[d]] = p;
            cursor[d] += 1;
        }
        // Initial gains: one self-cleaning two-pointer sweep (each event
        // is counted once as a window member, discounted once as the
        // anchor).
        let mut count = vec![0u32; n];
        let mut gains = vec![0u32; e];
        {
            let mut distinct = 0u32;
            let mut k = 0usize;
            for i in 0..e {
                while k < j[i] {
                    let d = flat[k].1;
                    if count[d] == 0 {
                        distinct += 1;
                    }
                    count[d] += 1;
                    k += 1;
                }
                gains[i] = distinct;
                let d = flat[i].1;
                count[d] -= 1;
                if count[d] == 0 {
                    distinct -= 1;
                }
            }
        }

        let mut dead = vec![false; e];
        let mut queue = GainQueue::new(&gains);
        let mut last_touch = vec![usize::MAX; e];
        let mut touched: Vec<usize> = Vec::new();
        let mut slots = Vec::new();
        let mut round = 0usize;
        while uncovered_sparse > 0 {
            let a = queue
                .pop_current(&gains, |i| dead[i])
                .expect("uncovered sparse device without events");
            let window_start = flat[a].0;
            let transmit_at = window_start + self.ti;
            let mut newly: Vec<usize> = flat[a..j[a]]
                .iter()
                .filter(|&&(_, d)| !covered[d])
                .map(|&(_, d)| d)
                .collect();
            newly.sort_unstable();
            newly.dedup();
            debug_assert!(!newly.is_empty(), "selected window covers nothing");
            touched.clear();
            for &d in &newly {
                covered[d] = true;
                // Anchors seeing >= 1 PO of d: the union of [lo[p], p]
                // over d's positions; the ranges are sorted on both ends,
                // so a running start merges overlaps and each anchor is
                // decremented once for d.
                let mut next_start = 0usize;
                for &p in &positions[pos_off[d]..pos_off[d + 1]] {
                    dead[p] = true;
                    for anchor in lo[p].max(next_start)..=p {
                        if !dead[anchor] {
                            gains[anchor] -= 1;
                            if last_touch[anchor] != round {
                                last_touch[anchor] = round;
                                touched.push(anchor);
                            }
                        }
                    }
                    next_start = p + 1;
                }
            }
            uncovered_sparse -= newly.len();
            for &anchor in &touched {
                if !dead[anchor] {
                    queue.push(gains[anchor], anchor);
                }
            }
            round += 1;
            slots.push(CoverSlot {
                window_start,
                transmit_at,
                covered: newly,
            });
        }
        slots
    }

    /// Greedy rounds on the per-round re-sweep engine (the PR-1 kernel):
    /// hoisted scratch buffers, one self-cleaning two-pointer sweep per
    /// round, spent events compacted away.
    fn rounds_sweep(
        &self,
        flat: &mut Vec<(SimInstant, usize)>,
        count: &mut Vec<u32>,
        covered: &mut [bool],
        mut uncovered_sparse: usize,
    ) -> Vec<CoverSlot> {
        reset(count, covered.len(), 0);
        let mut slots = Vec::new();
        while uncovered_sparse > 0 {
            let slot = self.greedy_round(flat, count, covered);
            uncovered_sparse -= slot.covered.len();
            slots.push(slot);
        }
        slots
    }

    /// One greedy round: a single two-pointer sweep over the remaining
    /// events picks the best window anchor, then the newly covered devices
    /// are extracted and their events compacted away. Allocates only the
    /// returned slot's `covered` list.
    fn greedy_round(
        &self,
        flat: &mut Vec<(SimInstant, usize)>,
        count: &mut [u32],
        covered: &mut [bool],
    ) -> CoverSlot {
        // The sweep below is self-cleaning: every event is counted once
        // when the right pointer passes it and discounted once when it
        // becomes the anchor, so `count` is all-zero between rounds.
        debug_assert!(count.iter().all(|&c| c == 0));

        // For each window anchored at event i, count distinct uncovered
        // devices with a PO in [flat[i].0, flat[i].0 + TI).
        let mut distinct = 0usize;
        let mut best_gain = 0usize;
        let mut best_anchor = 0usize;
        let mut j = 0usize;
        for i in 0..flat.len() {
            let (start, _) = flat[i];
            let end = start + self.ti;
            while j < flat.len() && flat[j].0 < end {
                let d = flat[j].1;
                if !covered[d] {
                    if count[d] == 0 {
                        distinct += 1;
                    }
                    count[d] += 1;
                }
                j += 1;
            }
            if distinct > best_gain {
                best_gain = distinct;
                best_anchor = i;
            }
            // Remove the anchor event before moving on.
            let d = flat[i].1;
            if !covered[d] {
                count[d] -= 1;
                if count[d] == 0 {
                    distinct -= 1;
                }
            }
        }
        debug_assert!(best_gain > 0, "uncovered sparse device without events");
        let window_start = flat[best_anchor].0;
        let transmit_at = window_start + self.ti;
        let mut newly: Vec<usize> = flat
            .iter()
            .skip(best_anchor)
            .take_while(|(t, _)| *t < transmit_at)
            .filter(|(_, d)| !covered[*d])
            .map(|&(_, d)| d)
            .collect();
        newly.sort_unstable();
        newly.dedup();
        for &d in &newly {
            covered[d] = true;
        }
        // Compact spent events in place so later sweeps stay cheap.
        flat.retain(|&(_, d)| !covered[d]);
        CoverSlot {
            window_start,
            transmit_at,
            covered: newly,
        }
    }
}

/// The original straightforward solvers, retained verbatim as the oracle
/// for equivalence testing of the bitset/scratch fast paths, plus the
/// naive per-anchor instance behind [`super::AnchorInstance`] and the
/// weighted window cover over it.
pub mod reference {
    use super::{CoverSlot, SimDuration, SimInstant};

    /// Reference greedy set cover: boolean coverage vector plus a tag
    /// array for unique-gain counting (the pre-bitset implementation).
    pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<usize>]) -> Option<Vec<usize>> {
        let mut covered = vec![false; universe_size];
        let mut remaining = universe_size;
        let mut picked = Vec::new();
        // Gains must count *unique* uncovered elements, or sets with
        // repeated entries would corrupt the bookkeeping.
        let mut seen = vec![usize::MAX; universe_size];
        let mut unique_gain = |set: &[usize], covered: &[bool], tag: usize| {
            let mut gain = 0;
            for &e in set {
                if !covered[e] && seen[e] != tag {
                    seen[e] = tag;
                    gain += 1;
                }
            }
            gain
        };
        let mut round = 0usize;
        while remaining > 0 {
            let mut best: Option<(usize, usize)> = None; // (gain, set index)
            for (i, set) in sets.iter().enumerate() {
                let gain = unique_gain(set, &covered, round * sets.len() + i);
                if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, i));
                }
            }
            let (gain, idx) = best?;
            picked.push(idx);
            for &e in &sets[idx] {
                covered[e] = true;
            }
            remaining -= gain;
            round += 1;
        }
        Some(picked)
    }

    /// Reference weighted-gain greedy set cover: a full re-scan of every
    /// set per round, picking the maximum fixed-point ratio key
    /// `(gain << 32) / cost` with ties towards the lowest index — the
    /// oracle for [`super::greedy_set_cover_weighted`]'s incremental
    /// maintenance. The truncated key *is* the tie law; a rational
    /// comparison would order some pairs differently and is deliberately
    /// not used.
    ///
    /// # Panics
    ///
    /// Panics when `costs.len() != sets.len()` or any cost is zero.
    pub fn greedy_set_cover_weighted(
        universe_size: usize,
        sets: &[Vec<usize>],
        costs: &[u32],
    ) -> Option<Vec<usize>> {
        assert_eq!(costs.len(), sets.len());
        assert!(costs.iter().all(|&c| c > 0));
        let mut covered = vec![false; universe_size];
        let mut remaining = universe_size;
        let mut picked = Vec::new();
        let mut seen = vec![usize::MAX; universe_size];
        let mut unique_gain = |set: &[usize], covered: &[bool], tag: usize| {
            let mut gain: u32 = 0;
            for &e in set {
                if !covered[e] && seen[e] != tag {
                    seen[e] = tag;
                    gain += 1;
                }
            }
            gain
        };
        let mut round = 0usize;
        while remaining > 0 {
            let mut best: Option<(u64, u32, usize)> = None; // (key, gain, set)
            for (i, set) in sets.iter().enumerate() {
                let gain = unique_gain(set, &covered, round * sets.len() + i);
                if gain == 0 {
                    continue;
                }
                let key = ((gain as u64) << 32) / costs[i] as u64;
                if best.is_none_or(|(bk, _, _)| key > bk) {
                    best = Some((key, gain, i));
                }
            }
            let (_, gain, idx) = best?;
            picked.push(idx);
            for &e in &sets[idx] {
                covered[e] = true;
            }
            remaining -= gain as usize;
            round += 1;
        }
        Some(picked)
    }

    /// Naive per-anchor materialization of the anchor-window instance —
    /// the oracle for [`super::AnchorInstance`]: every distinct sparse PO
    /// instant `a`, ascending, with the sparse devices (ascending indices
    /// into `events`) that have a PO in `[a, a + TI)`. One full scan of
    /// every sparse device per anchor; duplicate member sets are kept.
    pub fn anchor_windows(
        ti: SimDuration,
        events: &[Vec<SimInstant>],
        dense: &[bool],
    ) -> Vec<(SimInstant, Vec<usize>)> {
        let mut anchors: Vec<SimInstant> = events
            .iter()
            .zip(dense)
            .filter(|(_, &d)| !d)
            .flat_map(|(evs, _)| evs.iter().copied())
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        anchors
            .into_iter()
            .map(|a| {
                let members = (0..events.len())
                    .filter(|&d| !dense[d] && events[d].iter().any(|&t| t >= a && t < a + ti))
                    .collect();
                (a, members)
            })
            .collect()
    }

    /// Reference cost-aware window cover: [`greedy_set_cover_weighted`]
    /// over the full per-anchor instance ([`anchor_windows`], duplicate
    /// member sets included), each window priced by `cost` on its
    /// members, dense devices riding the first slot — the oracle for
    /// [`super::WindowCover::solve_weighted`].
    pub fn window_cover_weighted(
        ti: SimDuration,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
        cost: impl Fn(&[usize]) -> u32,
    ) -> Option<Vec<CoverSlot>> {
        if events
            .iter()
            .zip(dense)
            .any(|(evs, &d)| evs.is_empty() && !d)
        {
            return None;
        }
        // The set-cover universe is the sparse devices, renumbered.
        let sparse: Vec<usize> = (0..events.len()).filter(|&d| !dense[d]).collect();
        let windows = anchor_windows(ti, events, dense);
        let sets: Vec<Vec<usize>> = windows
            .iter()
            .map(|(_, members)| {
                members
                    .iter()
                    .map(|d| sparse.binary_search(d).expect("member is sparse"))
                    .collect()
            })
            .collect();
        let costs: Vec<u32> = windows.iter().map(|(_, members)| cost(members)).collect();
        let mut covered = vec![false; events.len()];
        let mut slots: Vec<CoverSlot> = Vec::new();
        for pick in greedy_set_cover_weighted(sparse.len(), &sets, &costs)? {
            let (window_start, members) = &windows[pick];
            let newly: Vec<usize> = members.iter().copied().filter(|&d| !covered[d]).collect();
            for &d in &newly {
                covered[d] = true;
            }
            slots.push(CoverSlot {
                window_start: *window_start,
                transmit_at: *window_start + ti,
                covered: newly,
            });
        }
        let dense_devices: Vec<usize> = (0..events.len()).filter(|&d| dense[d]).collect();
        if !dense_devices.is_empty() {
            if let Some(first) = slots.first_mut() {
                first.covered.extend(dense_devices);
                first.covered.sort_unstable();
            } else {
                slots.push(CoverSlot {
                    window_start: horizon_start,
                    transmit_at: horizon_start + ti,
                    covered: dense_devices,
                });
            }
        }
        Some(slots)
    }

    /// Reference timeline solver: allocates its counting buffer afresh
    /// every round (the pre-scratch implementation). Same greedy, same
    /// tie-breaking, same output.
    pub fn window_cover_solve(
        ti: SimDuration,
        horizon_start: SimInstant,
        events: &[Vec<SimInstant>],
        dense: &[bool],
    ) -> Option<Vec<CoverSlot>> {
        assert_eq!(events.len(), dense.len(), "events/dense length mismatch");
        let n = events.len();
        if n == 0 {
            return Some(Vec::new());
        }
        for (evs, &is_dense) in events.iter().zip(dense) {
            if evs.is_empty() && !is_dense {
                return None;
            }
        }

        // Flat, time-sorted (po, device) list over sparse devices only.
        let mut flat: Vec<(SimInstant, usize)> = events
            .iter()
            .enumerate()
            .filter(|(d, _)| !dense[*d])
            .flat_map(|(d, evs)| evs.iter().map(move |&t| (t, d)))
            .collect();
        flat.sort_unstable();

        let mut covered = vec![false; n];
        let mut uncovered_sparse = dense.iter().filter(|&&d| !d).count();
        let mut slots: Vec<CoverSlot> = Vec::new();

        while uncovered_sparse > 0 {
            // One two-pointer sweep: for each window anchored at event i,
            // count distinct uncovered devices with a PO in
            // [flat[i].0, flat[i].0 + TI).
            let mut count = vec![0u32; n];
            let mut distinct = 0usize;
            let mut best_gain = 0usize;
            let mut best_anchor = 0usize;
            let mut j = 0usize;
            for i in 0..flat.len() {
                let (start, _) = flat[i];
                let end = start + ti;
                while j < flat.len() && flat[j].0 < end {
                    let d = flat[j].1;
                    if !covered[d] {
                        if count[d] == 0 {
                            distinct += 1;
                        }
                        count[d] += 1;
                    }
                    j += 1;
                }
                if distinct > best_gain {
                    best_gain = distinct;
                    best_anchor = i;
                }
                // Remove the anchor event before moving on.
                let d = flat[i].1;
                if !covered[d] {
                    count[d] -= 1;
                    if count[d] == 0 {
                        distinct -= 1;
                    }
                }
            }
            debug_assert!(best_gain > 0, "uncovered sparse device without events");
            let window_start = flat[best_anchor].0;
            let transmit_at = window_start + ti;
            let mut newly: Vec<usize> = flat
                .iter()
                .skip(best_anchor)
                .take_while(|(t, _)| *t < transmit_at)
                .filter(|(_, d)| !covered[*d])
                .map(|&(_, d)| d)
                .collect();
            newly.sort_unstable();
            newly.dedup();
            for &d in &newly {
                covered[d] = true;
            }
            uncovered_sparse -= newly.len();
            flat.retain(|&(_, d)| !covered[d]);
            slots.push(CoverSlot {
                window_start,
                transmit_at,
                covered: newly,
            });
        }

        // Dense devices ride the first transmission; if there is none
        // (everyone is dense), create one window at the earliest possible
        // position.
        let dense_devices: Vec<usize> = (0..n).filter(|&d| dense[d] && !covered[d]).collect();
        if !dense_devices.is_empty() {
            if let Some(first) = slots.first_mut() {
                first.covered.extend(dense_devices.iter().copied());
                first.covered.sort_unstable();
            } else {
                let window_start = horizon_start;
                slots.push(CoverSlot {
                    window_start,
                    transmit_at: window_start + ti,
                    covered: dense_devices.clone(),
                });
            }
            for d in dense_devices {
                covered[d] = true;
            }
        }
        debug_assert!(covered.iter().all(|&c| c));
        Some(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimInstant {
        SimInstant::from_ms(v)
    }

    #[test]
    fn fig3_instance_optimal() {
        // Paper Fig. 3: greedy finds the optimal cover {frame 4, frame 5}.
        let frames = vec![
            vec![0],
            vec![1],
            vec![3],
            vec![0, 1, 2],
            vec![3, 4],
            vec![2],
        ];
        assert_eq!(greedy_set_cover(5, &frames), Some(vec![3, 4]));
    }

    #[test]
    fn generic_greedy_reports_uncoverable() {
        assert_eq!(greedy_set_cover(2, &[vec![0]]), None);
        assert_eq!(greedy_set_cover(0, &[]), Some(vec![]));
        assert_eq!(greedy_set_cover_bitset(2, &[vec![0]]), None);
        assert_eq!(greedy_set_cover_bitset(0, &[]), Some(vec![]));
    }

    #[test]
    fn incremental_single_set_covers_in_one_pick() {
        let sets = vec![vec![2, 0, 1]];
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0]));
        assert_eq!(
            greedy_set_cover(3, &sets),
            greedy_set_cover_bitset(3, &sets)
        );
    }

    #[test]
    fn incremental_breaks_ties_towards_lowest_index() {
        // Identical sets: the greedy oracle picks the lowest index.
        let sets = vec![vec![0, 1], vec![0, 1], vec![2]];
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0, 2]));
        // Later rounds tie too: after set 0 wins, sets 2 and 3 tie at
        // gain 1 and the lower index must win again.
        let sets = vec![vec![0, 1], vec![1], vec![2], vec![2]];
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0, 2]));
        for sets in [
            vec![vec![0, 1], vec![0, 1], vec![2]],
            vec![vec![0, 1], vec![1], vec![2], vec![2]],
        ] {
            assert_eq!(
                greedy_set_cover(3, &sets),
                reference::greedy_set_cover(3, &sets)
            );
        }
    }

    #[test]
    fn incremental_handles_empty_sets_and_stale_snapshots() {
        // Set 0 looks best but overlaps set 1 entirely; after set 1 wins
        // round one, set 0's cached snapshot is stale and must be
        // discarded, not trusted.
        let sets = vec![vec![0, 1, 2], vec![0, 1, 2, 3], vec![], vec![4]];
        let picked = greedy_set_cover(5, &sets).unwrap();
        assert_eq!(picked, reference::greedy_set_cover(5, &sets).unwrap());
        assert_eq!(picked, vec![1, 3]);
    }

    #[test]
    fn greedy_can_be_suboptimal_but_valid() {
        // Classic greedy trap: optimal is 2 sets, greedy takes 3.
        let sets = vec![
            vec![0, 1, 2, 3],          // greedy grabs this (size 4)
            vec![0, 1, 2, 3, 4, 5, 6], // hmm — make a real trap below
        ];
        let picked = greedy_set_cover(7, &sets).unwrap();
        // Whatever greedy does, the result must cover everything.
        let mut covered = [false; 7];
        for i in &picked {
            for &e in &sets[*i] {
                covered[e] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn duplicate_elements_count_once() {
        // A set listing one element many times must not beat a genuine
        // two-element set.
        let sets = vec![vec![0, 0, 0, 0], vec![1, 2]];
        let picked = greedy_set_cover(3, &sets).unwrap();
        assert_eq!(picked, vec![1, 0]);
    }

    #[test]
    fn wide_universe_crosses_word_boundaries() {
        // 200 elements span four u64 words; cover with overlapping strides.
        let sets: Vec<Vec<usize>> = (0..20)
            .map(|k| (k * 10..k * 10 + 15).filter(|&e| e < 200).collect())
            .collect();
        let picked = greedy_set_cover(200, &sets).unwrap();
        let mut covered = [false; 200];
        for i in &picked {
            for &e in &sets[*i] {
                covered[e] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(picked, reference::greedy_set_cover(200, &sets).unwrap());
    }

    #[test]
    fn all_three_greedy_solvers_match_exactly() {
        // Deterministic pseudo-random instances, compared pick-for-pick
        // across the incremental, bitset and reference implementations.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..50 {
            let n = 1 + next() % 80;
            let n_sets = 1 + next() % 40;
            let mut sets: Vec<Vec<usize>> = (0..n_sets)
                .map(|_| (0..1 + next() % 10).map(|_| next() % n).collect())
                .collect();
            if trial % 2 == 0 {
                sets.push((0..n).collect()); // force coverability half the time
            }
            let oracle = reference::greedy_set_cover(n, &sets);
            assert_eq!(
                greedy_set_cover(n, &sets),
                oracle,
                "incremental, trial {trial}: n={n} sets={sets:?}"
            );
            assert_eq!(
                greedy_set_cover_bitset(n, &sets),
                oracle,
                "bitset, trial {trial}: n={n} sets={sets:?}"
            );
        }
    }

    /// A deterministic instance big enough to clear the serial cutoff and
    /// genuinely exercise the parallel build phases.
    fn large_instance(seed: u64) -> (usize, Vec<Vec<usize>>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let n = 2_000;
        let mut sets: Vec<Vec<usize>> = (0..250)
            .map(|_| (0..80 + next() % 40).map(|_| next() % n).collect())
            .collect();
        sets.push((0..n).collect()); // guarantee coverability
        (n, sets)
    }

    #[test]
    fn parallel_index_build_is_bit_identical() {
        let (n, sets) = large_instance(0x9E37_79B9);
        let mut serial = KernelArena::new();
        let base = build_cover_index(n, &sets, 1, &mut serial);
        assert_eq!(base.workers, 1);
        assert_eq!(base.sets, sets.len());
        assert!(
            base.entries > 1 << 14,
            "instance too small: {}",
            base.entries
        );
        for threads in [2, 3, 4, 8] {
            let mut arena = KernelArena::new();
            let stats = build_cover_index(n, &sets, threads, &mut arena);
            assert_eq!(stats.workers, threads, "requested workers honoured");
            assert_eq!(stats.checksum, base.checksum, "{threads} workers");
            assert_eq!(arena.set_off, serial.set_off, "{threads} workers");
            assert_eq!(arena.set_elems, serial.set_elems, "{threads} workers");
            assert_eq!(arena.elem_off, serial.elem_off, "{threads} workers");
            assert_eq!(arena.elem_sets, serial.elem_sets, "{threads} workers");
        }
    }

    #[test]
    fn small_instances_build_serially_regardless_of_threads() {
        let sets = vec![vec![0, 1], vec![2]];
        let mut arena = KernelArena::new();
        let stats = build_cover_index(3, &sets, 8, &mut arena);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn greedy_with_matches_default_at_every_thread_count() {
        let (n, sets) = large_instance(0xDEAD_BEEF);
        let expect = greedy_set_cover(n, &sets);
        assert!(expect.is_some());
        for threads in [0, 1, 2, 4, 8] {
            let mut arena = KernelArena::new();
            assert_eq!(
                greedy_set_cover_with(n, &sets, threads, &mut arena),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn arena_reuse_across_different_instances_is_clean() {
        let mut arena = KernelArena::new();
        let (n, sets) = large_instance(0x5EED);
        assert_eq!(
            greedy_set_cover_with(n, &sets, 4, &mut arena),
            greedy_set_cover(n, &sets)
        );
        // A much smaller, differently-shaped instance on the same (dirty)
        // arena must match a fresh solve, including the uncoverable and
        // empty-universe edges.
        let small = vec![vec![0, 1, 2], vec![0, 1, 2, 3], vec![], vec![4]];
        assert_eq!(
            greedy_set_cover_with(5, &small, 4, &mut arena),
            Some(vec![1, 3])
        );
        assert_eq!(greedy_set_cover_with(2, &[vec![0]], 4, &mut arena), None);
        assert_eq!(greedy_set_cover_with(0, &[], 4, &mut arena), Some(vec![]));
        // And the big instance again: warm buffers, same picks.
        assert_eq!(
            greedy_set_cover_with(n, &sets, 2, &mut arena),
            greedy_set_cover(n, &sets)
        );
    }

    #[test]
    fn fig2a_single_shared_window() {
        // Fig. 2(a): POs of devices 2 and 3 fall within TI of device 1's PO
        // -> one transmission covers all three.
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(10)], vec![ms(50)], vec![ms(90)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[false, false, false])
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].covered, vec![0, 1, 2]);
        assert_eq!(slots[0].window_start, ms(10));
        assert_eq!(slots[0].transmit_at, ms(110));
    }

    #[test]
    fn fig2b_second_transmission_needed() {
        // Fig. 2(b): device 3's PO is too far -> a second transmission.
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(10)], vec![ms(50)], vec![ms(200)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[false, false, false])
            .unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].covered, vec![0, 1]);
        assert_eq!(slots[1].covered, vec![2]);
    }

    #[test]
    fn transmission_at_window_end_half_open() {
        // A PO exactly at window_start + TI is NOT covered (half-open).
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(0)], vec![ms(100)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[false, false])
            .unwrap();
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn dense_devices_ride_first_transmission() {
        let ti = SimDuration::from_ms(100);
        // Device 0 sparse at t=500; device 1 dense (cycle <= TI).
        let events = vec![vec![ms(500)], vec![ms(5), ms(55), ms(105)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[false, true])
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    #[test]
    fn all_dense_single_transmission() {
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(5), ms(55)], vec![ms(20), ms(80)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[true, true])
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    #[test]
    fn sparse_device_without_events_is_uncoverable() {
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(5)], vec![]];
        assert_eq!(
            WindowCover::new(ti).solve(ms(0), &events, &[false, false]),
            None
        );
    }

    #[test]
    fn empty_problem_is_trivially_covered() {
        let slots = WindowCover::new(SimDuration::from_ms(10))
            .solve(ms(0), &[], &[])
            .unwrap();
        assert!(slots.is_empty());
    }

    #[test]
    fn greedy_prefers_bigger_window_then_earlier() {
        let ti = SimDuration::from_ms(100);
        // Window at 1000 covers 3 devices; window at 0 covers 2.
        let events = vec![
            vec![ms(0), ms(1000)],
            vec![ms(50), ms(1050)],
            vec![ms(1090)],
        ];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &events, &[false, false, false])
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].window_start, ms(1000));
        // Tie case: two windows covering 1 device each, earliest wins.
        let events2 = vec![vec![ms(100), ms(900)]];
        let slots2 = WindowCover::new(ti)
            .solve(ms(0), &events2, &[false])
            .unwrap();
        assert_eq!(slots2[0].window_start, ms(100));
    }

    #[test]
    fn every_device_covered_exactly_once_across_slots() {
        let ti = SimDuration::from_ms(50);
        let events: Vec<Vec<SimInstant>> = (0..40u64)
            .map(|d| (0..4).map(|k| ms(d * 37 + k * 400)).collect())
            .collect();
        let dense = vec![false; 40];
        let slots = WindowCover::new(ti).solve(ms(0), &events, &dense).unwrap();
        let mut seen = vec![0; 40];
        for s in &slots {
            for &d in &s.covered {
                seen[d] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        // And each covered device really has a PO in its slot's window.
        for s in &slots {
            for &d in &s.covered {
                assert!(events[d]
                    .iter()
                    .any(|&t| t >= s.window_start && t < s.transmit_at));
            }
        }
    }

    #[test]
    fn both_window_engines_match_reference_exactly() {
        // Dense/sparse mixtures, compared slot-for-slot, with the engine
        // pinned both ways (and the occupancy-dispatched default).
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..40 {
            let n = 1 + (next() % 30) as usize;
            let ti = SimDuration::from_ms(50 + next() % 500);
            let events: Vec<Vec<SimInstant>> = (0..n)
                .map(|_| {
                    let mut v: Vec<SimInstant> =
                        (0..1 + next() % 5).map(|_| ms(next() % 5_000)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let dense: Vec<bool> = (0..n).map(|_| next() % 4 == 0).collect();
            let solver = WindowCover::new(ti);
            let oracle = reference::window_cover_solve(ti, ms(0), &events, &dense);
            assert_eq!(
                solver.solve_incremental(ms(0), &events, &dense),
                oracle,
                "incremental, trial {trial}"
            );
            assert_eq!(
                solver.solve_sweep(ms(0), &events, &dense),
                oracle,
                "sweep, trial {trial}"
            );
            assert_eq!(
                solver.solve(ms(0), &events, &dense),
                oracle,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn arena_backed_solve_is_bit_identical_across_reuse() {
        // One arena serving solve after solve (the grouping service's
        // repair path) must reproduce the allocating entry point exactly,
        // including across instances of different sizes so stale capacity
        // can never leak into a later solve.
        let mut arena = KernelArena::new();
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..30 {
            let n = 1 + (next() % 40) as usize;
            let ti = SimDuration::from_ms(50 + next() % 400);
            let events: Vec<Vec<SimInstant>> = (0..n)
                .map(|_| {
                    let mut v: Vec<SimInstant> =
                        (0..1 + next() % 4).map(|_| ms(next() % 4_000)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let dense: Vec<bool> = (0..n).map(|_| next() % 5 == 0).collect();
            let solver = WindowCover::new(ti);
            assert_eq!(
                solver.solve_in(ms(0), &events, &dense, &mut arena),
                solver.solve(ms(0), &events, &dense),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn incremental_engine_handles_repeated_pos_within_one_window() {
        // Device 0 has two POs inside the same window; the distinct-gain
        // bookkeeping must count it once (merged position ranges) and the
        // tombstoned anchors must not resurface in later rounds.
        let ti = SimDuration::from_ms(100);
        let events = vec![
            vec![ms(10), ms(60)],            // twice in the first window
            vec![ms(40)],                    // shares that window
            vec![ms(500), ms(520), ms(540)], // its own later window
        ];
        let dense = [false, false, false];
        let solver = WindowCover::new(ti);
        let oracle = reference::window_cover_solve(ti, ms(0), &events, &dense);
        assert_eq!(solver.solve_incremental(ms(0), &events, &dense), oracle);
        let slots = oracle.unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    #[test]
    fn incremental_engine_all_dense_and_empty_inputs() {
        let ti = SimDuration::from_ms(100);
        // Empty instance.
        assert_eq!(
            WindowCover::new(ti).solve_incremental(ms(0), &[], &[]),
            Some(vec![])
        );
        // All devices dense: one synthetic window at the horizon start.
        let events = vec![vec![ms(5)], vec![ms(20)]];
        let slots = WindowCover::new(ti)
            .solve_incremental(ms(0), &events, &[true, true])
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].window_start, ms(0));
        // Sparse device without events stays uncoverable.
        assert_eq!(
            WindowCover::new(ti).solve_incremental(ms(0), &[vec![]], &[false]),
            None
        );
    }

    /// Deterministic LCG over random instances plus random positive costs.
    fn random_weighted_instance(
        next: &mut impl FnMut() -> usize,
        trial: usize,
    ) -> (usize, Vec<Vec<usize>>, Vec<u32>) {
        let n = 1 + next() % 80;
        let n_sets = 1 + next() % 40;
        let mut sets: Vec<Vec<usize>> = (0..n_sets)
            .map(|_| (0..1 + next() % 10).map(|_| next() % n).collect())
            .collect();
        if trial.is_multiple_of(2) {
            sets.push((0..n).collect()); // force coverability half the time
        }
        let costs: Vec<u32> = sets.iter().map(|_| 1 + (next() % 64) as u32).collect();
        (n, sets, costs)
    }

    #[test]
    fn weighted_with_unit_costs_is_bit_identical_to_unweighted() {
        // The core invariant: `gain/1` keys sort exactly like `gain` keys
        // (the fixed-point key degenerates to `gain << 32`), so every
        // round's pick — including tie rounds — must coincide.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut arena = KernelArena::new();
        for trial in 0..50 {
            let (n, sets, _) = random_weighted_instance(&mut next, trial);
            let unit = vec![1u32; sets.len()];
            assert_eq!(
                greedy_set_cover_weighted(n, &sets, &unit, 1, &mut arena),
                greedy_set_cover(n, &sets),
                "trial {trial}: n={n} sets={sets:?}"
            );
        }
    }

    #[test]
    fn weighted_solver_matches_reference_oracle() {
        let mut state = 0xABCD_EF01_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut arena = KernelArena::new();
        for trial in 0..50 {
            let (n, sets, costs) = random_weighted_instance(&mut next, trial);
            assert_eq!(
                greedy_set_cover_weighted(n, &sets, &costs, 1, &mut arena),
                reference::greedy_set_cover_weighted(n, &sets, &costs),
                "trial {trial}: n={n} sets={sets:?} costs={costs:?}"
            );
        }
    }

    #[test]
    fn weighted_equal_ratio_tie_storm_breaks_to_lowest_index() {
        // Every candidate has the identical ratio key in every round:
        // 64 singleton sets at equal cost, plus scaled duplicates
        // (gain 2 / cost 14 truncates to the same key as 1 / 7). The
        // selection must walk indices in ascending order regardless.
        let n = 64;
        let mut sets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut costs = vec![7u32; n];
        let mut arena = KernelArena::new();
        let picks = greedy_set_cover_weighted(n, &sets, &costs, 1, &mut arena).unwrap();
        assert_eq!(picks, (0..n).collect::<Vec<_>>());
        // Scaled pairs: {2k, 2k+1} at cost 14 ties the singletons exactly
        // ((2<<32)/14 == (1<<32)/7) but sits at a higher index, so the
        // pair never wins a round and the pick order is unchanged.
        for k in 0..n / 2 {
            sets.push(vec![2 * k, 2 * k + 1]);
            costs.push(14);
        }
        let stormed = greedy_set_cover_weighted(n, &sets, &costs, 1, &mut arena).unwrap();
        assert_eq!(stormed, (0..n).collect::<Vec<_>>());
        assert_eq!(
            stormed,
            reference::greedy_set_cover_weighted(n, &sets, &costs).unwrap()
        );
    }

    #[test]
    fn weighted_prefers_cheap_cover_over_raw_gain() {
        // Count-greedy grabs the 3-element set; ratio-greedy covers the
        // same universe with the two cheap sets (total cost 2 vs 100).
        let sets = vec![vec![0, 1, 2], vec![0, 1], vec![2]];
        let costs = vec![100, 1, 1];
        let mut arena = KernelArena::new();
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0]));
        assert_eq!(
            greedy_set_cover_weighted(3, &sets, &costs, 1, &mut arena),
            Some(vec![1, 2])
        );
    }

    #[test]
    fn weighted_uncoverable_and_empty_edges() {
        let mut arena = KernelArena::new();
        assert_eq!(
            greedy_set_cover_weighted(2, &[vec![0]], &[3], 1, &mut arena),
            None
        );
        assert_eq!(
            greedy_set_cover_weighted(0, &[], &[], 1, &mut arena),
            Some(vec![])
        );
        // Empty sets never enter the heap whatever their cost.
        assert_eq!(
            greedy_set_cover_weighted(1, &[vec![], vec![0]], &[1, 9], 1, &mut arena),
            Some(vec![1])
        );
    }

    #[test]
    fn weighted_threads_are_bit_identical() {
        let (n, sets) = large_instance(0x00C0_FFEE);
        let costs: Vec<u32> = (0..sets.len()).map(|i| 1 + (i % 32) as u32).collect();
        let mut arena = KernelArena::new();
        let base = greedy_set_cover_weighted(n, &sets, &costs, 1, &mut arena);
        assert!(base.is_some());
        for threads in [2, 4, 8] {
            let mut fresh = KernelArena::new();
            assert_eq!(
                greedy_set_cover_weighted(n, &sets, &costs, threads, &mut fresh),
                base,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn solve_weighted_matches_reference_oracle() {
        // Random dense/sparse mixtures with per-device weights (window
        // cost = heaviest member, the DR-SC airtime shape) AND with unit
        // costs, both compared slot-for-slot against the rescan oracle.
        let mut arena = KernelArena::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..40 {
            let n = 1 + (next() % 30) as usize;
            let ti = SimDuration::from_ms(50 + next() % 500);
            let events: Vec<Vec<SimInstant>> = (0..n)
                .map(|_| {
                    let mut v: Vec<SimInstant> =
                        (0..1 + next() % 5).map(|_| ms(next() % 5_000)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let dense: Vec<bool> = (0..n).map(|_| next() % 4 == 0).collect();
            let weights: Vec<u32> = (0..n).map(|_| 1 + (next() % 32) as u32).collect();
            let solver = WindowCover::new(ti);
            let airtime =
                |members: &[usize]| members.iter().map(|&d| weights[d]).max().unwrap_or(1);
            assert_eq!(
                solver.solve_weighted(ms(0), &events, &dense, airtime, &mut arena),
                reference::window_cover_weighted(ti, ms(0), &events, &dense, airtime),
                "weighted, trial {trial}"
            );
            assert_eq!(
                solver.solve_weighted(ms(0), &events, &dense, |_| 1, &mut arena),
                reference::window_cover_weighted(ti, ms(0), &events, &dense, |_| 1),
                "unit-cost, trial {trial}"
            );
        }
        // Edge parity with `solve`: empty instance, all-dense synthesis,
        // uncoverable sparse device (none of these involve anchor ties).
        let ti = SimDuration::from_ms(100);
        let solver = WindowCover::new(ti);
        assert_eq!(
            solver.solve_weighted(ms(0), &[], &[], |_| 1, &mut arena),
            Some(vec![])
        );
        let events = vec![vec![ms(5)], vec![ms(20)]];
        assert_eq!(
            solver.solve_weighted(ms(0), &events, &[true, true], |_| 1, &mut arena),
            solver.solve(ms(0), &events, &[true, true])
        );
        assert_eq!(
            solver.solve_weighted(ms(0), &[vec![]], &[false], |_| 1, &mut arena),
            None
        );
    }

    #[test]
    fn solve_weighted_routes_shallow_devices_around_deep_windows() {
        // Devices 2 and 3 are "deep" (any window containing one costs 32);
        // 0 and 1 are cheap. Count-greedy's gain ties resolve to the two
        // early mixed windows ({0,2} then {1,3}): two deep transmissions,
        // static cost 64. Ratio-greedy takes the late cheap window {0,1}
        // first, then folds both deep devices into ONE deep window at
        // t=1000: static cost 33.
        let ti = SimDuration::from_ms(100);
        let events = vec![
            vec![ms(10), ms(400)],   // 0: shallow
            vec![ms(200), ms(410)],  // 1: shallow
            vec![ms(60), ms(1000)],  // 2: deep
            vec![ms(260), ms(1010)], // 3: deep
        ];
        let dense = [false; 4];
        let cost = |members: &[usize]| {
            if members.iter().any(|&d| d >= 2) {
                32
            } else {
                1
            }
        };
        let solver = WindowCover::new(ti);
        let mut arena = KernelArena::new();
        let unweighted = solver.solve(ms(0), &events, &dense).unwrap();
        let weighted = solver
            .solve_weighted(ms(0), &events, &dense, cost, &mut arena)
            .unwrap();
        assert_eq!(
            unweighted
                .iter()
                .map(|s| s.covered.clone())
                .collect::<Vec<_>>(),
            vec![vec![0, 2], vec![1, 3]]
        );
        assert_eq!(
            weighted
                .iter()
                .map(|s| s.covered.clone())
                .collect::<Vec<_>>(),
            vec![vec![0, 1], vec![2, 3]]
        );
        // Price each plan by window membership (every device with a PO in
        // the slot's window, covered or not — the static window cost).
        let static_cost = |slots: &[CoverSlot]| -> u32 {
            slots
                .iter()
                .map(|s| {
                    let members: Vec<usize> = (0..events.len())
                        .filter(|&d| {
                            events[d]
                                .iter()
                                .any(|&t| t >= s.window_start && t < s.transmit_at)
                        })
                        .collect();
                    cost(&members)
                })
                .sum()
        };
        assert_eq!(static_cost(&unweighted), 64);
        assert_eq!(static_cost(&weighted), 33);
        // And the weighted slots still cover everyone exactly once.
        let mut seen = vec![0u32; events.len()];
        for s in &weighted {
            for &d in &s.covered {
                seen[d] += 1;
            }
        }
        assert_eq!(seen, vec![1, 1, 1, 1]);
    }

    #[test]
    fn anchor_instance_keeps_each_member_set_once_at_its_lowest_anchor() {
        // Devices 0 and 1 share POs at 0 and 1000 (windows {0, 1} twice);
        // device 2 (dense) is left out; device 3 alone at 500 and 1500.
        let ti = SimDuration::from_ms(100);
        let events = vec![
            vec![ms(0), ms(1000)],
            vec![ms(50), ms(1050)],
            vec![ms(5)],
            vec![ms(500), ms(1500)],
        ];
        let dense = [false, false, true, false];
        let instance = AnchorInstance::new(ti, &events, &dense);
        assert_eq!(instance.sparse_devices(), &[0, 1, 3]);
        assert_eq!(
            instance.anchors(),
            &[ms(0), ms(50), ms(500), ms(1000), ms(1050), ms(1500)]
        );
        assert_eq!(instance.windows(), &[vec![0, 1], vec![1], vec![2]]);
        assert_eq!(instance.lowest_anchors(), &[0, 1, 2]);
        let window_of: Vec<usize> = (0..6).map(|a| instance.window_of(a)).collect();
        assert_eq!(window_of, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(instance.anchor_index(ms(1050)), Some(4));
        assert_eq!(
            instance.anchor_index(ms(5)),
            None,
            "dense POs anchor nothing"
        );
        assert_eq!(instance.entries(), 4);
        assert_eq!(instance.anchor_entries(), 8);
    }

    #[test]
    fn anchor_instance_single_shared_instant_is_one_window() {
        // Every sparse device pages at the same instant: one anchor, one
        // window holding everyone.
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(700)]; 4];
        let instance = AnchorInstance::new(ti, &events, &[false; 4]);
        assert_eq!(instance.anchors(), &[ms(700)]);
        assert_eq!(instance.windows(), &[vec![0, 1, 2, 3]]);
        assert_eq!(instance.anchor_entries(), instance.entries());
        // Empty and all-dense inputs build an empty instance.
        for (events, dense) in [(vec![], vec![]), (vec![vec![ms(5)]], vec![true])] {
            let empty = AnchorInstance::new(ti, &events, &dense);
            assert!(empty.anchors().is_empty() && empty.windows().is_empty());
        }
    }
}
