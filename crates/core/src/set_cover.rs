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
//! * [`greedy_set_cover_weighted`] — the greedy over explicit sets, picking
//!   by newly covered elements per unit cost; [`greedy_set_cover`] is its
//!   unit-cost call (used for the Fig. 3 bipartite instance and for
//!   cross-checking),
//! * [`WindowCover`] — the specialized timeline solver: it slides a
//!   `TI`-length window over the merged PO event list, exploiting three
//!   structural facts: (a) an optimal window can always be anchored to
//!   start at some PO, (b) a device whose cycle is at most `TI` has a PO
//!   in *every* window, so it never influences the argmax and can be
//!   attached to the first selected transmission, and (c) devices with
//!   equal paging schedules lie in exactly the same windows, so the
//!   solver covers *schedule classes* weighted by their device counts
//!   ([`PoTimeline`]).
//!
//! The cost-aware and tabu variants instead solve the *static* instance
//! [`AnchorInstance`]: every distinct member set of a window anchored at a
//! PO, stored once, over individual devices.
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
//!    kept current through an element→sets inverted index (runs of
//!    consecutive sets per element) — covering a round's winner
//!    decrements only the sets that intersect the newly covered
//!    elements — and the next winner is popped from one lazy heap
//!    (`LazyQueue`: one entry per candidate, re-keyed when it reaches the
//!    top). Total work is `O(L log L)` over the whole solve, where `L` is
//!    the summed set size, independent of the round count.
//!    [`greedy_set_cover_weighted`] is this solver over explicit sets;
//!    [`WindowCover::solve_incremental`] runs the same scheme with one
//!    candidate per distinct PO instant, and [`WindowCover::solve`]
//!    dispatches to it when its work estimate beats the re-sweep's.
//! 2. **Eager re-sweep** (timeline only): [`WindowCover::solve_sweep`]
//!    re-runs a self-cleaning two-pointer sweep per round over hoisted
//!    scratch buffers, `O(rounds × E)` for `E` PO events — the shape that
//!    wins when rounds are few and windows are crowded.
//! 3. **Reference oracles**: straightforward implementations, kept in
//!    [`reference`](mod@reference) for the equivalence tests
//!    (`tests/setcover_properties.rs`).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use nbiot_time::{PagingSchedule, SimDuration, SimInstant, TimeWindow};

use crate::improve::ImprovementStats;

/// Lazy max-key priority queue over `(key, Reverse(candidate))`, one
/// entry per candidate: the priority structure of both greedy engines.
///
/// The engine supplies each candidate's live key: the fixed-point
/// gain/cost ratio ([`ratio_key`]) in the explicit-set rounds, and the
/// gain of a live instant (zero once the instant is dead) on the
/// timeline. Keys only fall over a solve (gains only decrease, costs are
/// static and a dead instant stays dead), so an entry's key is an upper
/// bound on its candidate's live key, and a gain change pushes nothing.
/// [`LazyQueue::pop_current`] drops a top whose live key is zero, re-keys
/// a stale top in place, and returns the first top whose key equals its
/// live key. That top is the eager argmax with ties broken towards the
/// lowest index: every other candidate's live key is at most its entry's
/// key, which is at most the top's, and an equal live key implies an
/// equal entry key, where the heap puts the lower index first.
///
/// Candidates are set/instant indices, far below 2^32 for any instance
/// that fits in memory, so an entry is 16 bytes.
struct LazyQueue {
    heap: BinaryHeap<(u64, Reverse<u32>)>,
}

impl LazyQueue {
    /// A queue holding one entry for every candidate with a positive key.
    fn new(keys: impl Iterator<Item = u64>) -> LazyQueue {
        LazyQueue {
            heap: keys
                .enumerate()
                .filter(|&(_, k)| k > 0)
                .map(|(i, k)| (k, Reverse(i as u32)))
                .collect(),
        }
    }

    /// Re-keys stale tops to `live_key(candidate)` until one carries its
    /// candidate's live key and removes and returns that candidate, or
    /// `None` when every remaining candidate's live key is zero.
    fn pop_current(&mut self, live_key: impl Fn(usize) -> u64) -> Option<usize> {
        while let Some(mut top) = self.heap.peek_mut() {
            let (key, Reverse(candidate)) = *top;
            let candidate = candidate as usize;
            let live = live_key(candidate);
            if live == 0 {
                PeekMut::pop(top);
            } else if live == key {
                PeekMut::pop(top);
                return Some(candidate);
            } else {
                // The key only falls, so the entry sifts down when `top` drops.
                top.0 = live;
            }
        }
        None
    }
}

/// The deterministic fixed-point ratio key `(gain << 32) / cost`, the
/// explicit-set rounds' ratio law: two candidates tie exactly when their
/// truncated keys agree. `cost` must be nonzero (asserted by the solver
/// entry points); as a `u32` it is below 2^32, so the key is zero exactly
/// when the gain is. With unit costs the key is `gain << 32`, strictly
/// monotone in the gain, so the pick sequence is the count greedy's
/// (proptest-locked against [`reference::greedy_set_cover`] in
/// `tests/setcover_properties.rs`).
#[inline]
fn ratio_key(gain: u32, cost: u32) -> u64 {
    ((gain as u64) << 32) / cost as u64
}

/// An explicit set system as the kernels read it: each set's distinct
/// elements as a `u32` CSR row plus, per element, the maximal runs
/// `[start, end)` of consecutive set indices that hold it, ascending. The
/// explicit-set entry points build one per call; an [`AnchorInstance`]
/// holds one, which the weighted rounds and the tabu search read in
/// place. Consecutive anchor windows share nearly all their members, so
/// a device's windows are a few dozen runs where a transpose would list
/// about two thousand ids (500 ericsson-city devices).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SetIndex {
    /// Set `i`'s elements are `set_elems[set_off[i]..set_off[i + 1]]`.
    set_off: Vec<u32>,
    set_elems: Vec<u32>,
    /// Element `e`'s runs are `runs[run_off[e]..run_off[e + 1]]`.
    run_off: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl SetIndex {
    /// The index of `sets` over elements `0..universe_size`; an element
    /// listed twice in one set counts once (the unique-gain semantics of
    /// the reference solvers).
    ///
    /// # Panics
    ///
    /// Panics when a set contains an element `>= universe_size`.
    pub(crate) fn new(universe_size: usize, sets: &[Vec<usize>]) -> SetIndex {
        assert!(
            universe_size < u32::MAX as usize && sets.len() < u32::MAX as usize,
            "index build uses u32 entries"
        );
        let mut index = SetIndex {
            set_off: Vec::with_capacity(sets.len() + 1),
            set_elems: Vec::with_capacity(sets.iter().map(Vec::len).sum()),
            ..SetIndex::default()
        };
        index.set_off.push(0);
        // Dedup stamps: the last set each element was pushed for.
        let mut seen = vec![u32::MAX; universe_size];
        for (i, set) in sets.iter().enumerate() {
            for &e in set {
                assert!(
                    e < universe_size,
                    "set {i} contains element {e} outside universe 0..{universe_size}"
                );
                if seen[e] != i as u32 {
                    seen[e] = i as u32;
                    index.set_elems.push(e as u32);
                }
            }
            index.close_set();
        }
        index.index_runs(universe_size);
        index
    }

    /// Ends the set whose elements were pushed since the last call.
    fn close_set(&mut self) {
        let end = u32::try_from(self.set_elems.len()).expect("index uses u32 offsets");
        self.set_off.push(end);
    }

    /// Builds each element's runs from the set rows: a counting pass, an
    /// exclusive prefix sum, then a fill pass that writes a run's start
    /// when it opens and its end when it closes. Both passes walk the rows
    /// in set order and open a run where an element's previous set is not
    /// the one before, extending the open run otherwise.
    fn index_runs(&mut self, universe_size: usize) {
        // Per element: the end of its open run, `NONE` before its first
        // set (no set index reaches it, so an element of set 0 opens a
        // run), then its run count and, after the prefix sum, the slot
        // after its open run.
        const NONE: u32 = u32::MAX;
        let mut open = vec![(NONE, 0u32); universe_size];
        self.for_each_entry(|i, e| {
            let (end, count) = &mut open[e];
            if *end != i {
                *count += 1;
            }
            *end = i + 1;
        });
        let mut run_off = Vec::with_capacity(universe_size + 1);
        run_off.push(0u32);
        for (end, slot) in &mut open {
            let first = run_off[run_off.len() - 1];
            run_off.push(first + *slot);
            (*end, *slot) = (NONE, first);
        }
        let mut runs = vec![(0u32, 0u32); run_off[universe_size] as usize];
        self.for_each_entry(|i, e| {
            let (end, slot) = &mut open[e];
            if *end != i {
                if *end != NONE {
                    runs[*slot as usize - 1].1 = *end;
                }
                runs[*slot as usize].0 = i;
                *slot += 1;
            }
            *end = i + 1;
        });
        // Close each element's last run.
        for (end, slot) in open {
            if end != NONE {
                runs[slot as usize - 1].1 = end;
            }
        }
        self.run_off = run_off;
        self.runs = runs;
    }

    /// Calls `f(i, e)` for every element `e` of every set `i`, in set order.
    fn for_each_entry(&self, mut f: impl FnMut(u32, usize)) {
        for (i, row) in self.set_off.windows(2).enumerate() {
            for &e in &self.set_elems[row[0] as usize..row[1] as usize] {
                f(i as u32, e as usize);
            }
        }
    }

    /// Number of sets.
    #[inline]
    pub(crate) fn sets(&self) -> usize {
        self.set_off.len() - 1
    }

    /// Number of elements (the universe size).
    #[inline]
    pub(crate) fn elements(&self) -> usize {
        self.run_off.len() - 1
    }

    /// The distinct elements of set `i`.
    #[inline]
    pub(crate) fn set(&self, i: usize) -> &[u32] {
        &self.set_elems[self.set_off[i] as usize..self.set_off[i + 1] as usize]
    }

    /// The sets holding element `e` as maximal runs `[start, end)` of
    /// consecutive set indices, ascending: each run ends before the next
    /// one starts, never at its start.
    #[inline]
    pub(crate) fn runs_of(&self, e: usize) -> &[(u32, u32)] {
        &self.runs[self.run_off[e] as usize..self.run_off[e + 1] as usize]
    }
}

/// Greedy (Chvátal) set cover over explicit sets — the paper's Fig. 3
/// rule: each round picks the set covering the most still-uncovered
/// elements.
///
/// `universe_size` elements are labelled `0..universe_size`; `sets[i]`
/// lists the elements covered by set `i`. Returns the indices of the
/// selected sets in selection order, or `None` when the union of all sets
/// does not cover the universe. Ties are broken towards the lowest set
/// index, making the result deterministic — and **bit-identical** to
/// [`reference::greedy_set_cover`] (enforced by
/// `tests/setcover_properties.rs`).
///
/// This is [`greedy_set_cover_weighted`] with every cost 1 (a unit-cost
/// ratio key orders candidates exactly by gain). Total work is
/// `O(L log L)` for summed set size `L`, independent of the number of
/// rounds (see `docs/KERNELS.md`).
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
    greedy_set_cover_weighted(universe_size, sets, &vec![1; sets.len()])
}

/// Weighted-gain greedy set cover: each round picks the set maximizing
/// `gain / cost` — Chvátal's cost-aware rule, the `H(n)`-approximate
/// greedy for *minimum-cost* set cover — instead of the raw gain. This is
/// the one explicit-set kernel; [`greedy_set_cover`] is its unit-cost
/// call.
///
/// `costs[i]` is the static, positive cost of picking set `i` (for DR-SC
/// anchor windows: the coverage-class block airtime of the window's
/// deepest device). Ratios are compared through the deterministic
/// fixed-point key `(gain << 32) / cost`; candidates whose truncated keys
/// agree tie, and ties break towards the lowest set index.
///
/// Instead of re-scanning every set each round, exact marginal gains are
/// maintained through an element→sets inverted index: covering a round's
/// winner decrements only the sets intersecting the newly covered
/// elements, and winners pop from a lazy max-ratio heap with one entry
/// per set (costs are static and gains only decrease, so a stale key is
/// an upper bound, re-keyed when it reaches the top). Total work is
/// `O(L log L)` for summed set size `L`.
///
/// **Unit costs reproduce the count greedy pick for pick**: with
/// `cost == 1` the key is `gain << 32`, strictly monotone in the gain, so
/// every argmax and tie-break coincides with
/// [`reference::greedy_set_cover`]'s (proptest-locked in
/// `tests/setcover_properties.rs` and pinned in the bench crate's
/// `kernel_regression.rs`).
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
    weighted_rounds(&SetIndex::new(universe_size, sets), costs)
}

/// The greedy rounds of [`greedy_set_cover_weighted`] over a built
/// `index` (an explicit-set call's own, or an [`AnchorInstance`]'s) with
/// one positive cost per set.
fn weighted_rounds(index: &SetIndex, costs: &[u32]) -> Option<Vec<usize>> {
    let mut gains: Vec<u32> = (0..index.sets())
        .map(|i| index.set(i).len() as u32)
        .collect();
    let mut queue = LazyQueue::new(gains.iter().zip(costs).map(|(&g, &c)| ratio_key(g, c)));
    let mut remaining = index.elements();
    let mut covered = vec![false; remaining];
    let mut picked = Vec::new();
    while remaining > 0 {
        let best = queue.pop_current(|c| ratio_key(gains[c], costs[c]))?;
        picked.push(best);
        for &e in index.set(best) {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                remaining -= 1;
                for &(start, end) in index.runs_of(e) {
                    for gain in &mut gains[start as usize..end as usize] {
                        *gain -= 1;
                    }
                }
            }
        }
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

/// Fx-style multiply-rotate hasher behind [`PoTimeline`]'s class
/// deduplication: a few multiplies per schedule, where std's SipHash map
/// alone takes longer than the whole timeline build (12.9 against 10 ms
/// for 10^5 devices). It gives up flooding resistance safely: a paging
/// schedule is `UE_ID` modulo at most a few thousand per paging
/// configuration, so no crafted fleet holds enough distinct keys to pile
/// many of them onto one probe sequence. [`AnchorInstance`]'s member-set
/// map uses it too: its keys are sums of SplitMix64-finalized device
/// positions, already mixed, and a hit is only a proposal.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A device group's paging-occasion timeline over **schedule classes** —
/// the input of [`WindowCover`] and [`AnchorInstance`].
///
/// TS 36.304 derives every paging occasion from `UE_ID` modulo a small
/// number, so devices share timelines: a schedule class is the set of
/// devices with one PO timeline (equal [`PagingSchedule`]s; not the
/// traffic class). A 10^5-device massive-metering fleet has about 7,700
/// classes and 33k class POs instead of 435k device POs. The timeline
/// enumerates each class's POs once and holds:
///
/// * each device's class, and each class's multiplicity and ascending
///   member list;
/// * the dense devices: cycle at most `TI`, so a PO in every window and
///   no events. They form their own classes;
/// * the time-sorted `(instant, class)` list over the sparse classes.
///
/// Classes are numbered sparse first, then dense, each in order of their
/// lowest member, so the first sparse class without a PO holds the first
/// such device.
///
/// Every TS 36.304 cycle is a power-of-two number of frames, so the POs
/// repeat with the largest sparse cycle `P`. [`PoTimeline::new`] enumerates
/// the first period `[start, start + P)` and appends the later periods as
/// shifted copies; the cover engines and [`AnchorInstance::new`] sweep the
/// first period only (see "One paging period" in `docs/KERNELS.md`). A
/// [`PoTimeline::from_events`] timeline has no period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoTimeline {
    /// Each device's class.
    class_of: Vec<u32>,
    /// Class `c`'s members are `members[member_off[c]..member_off[c + 1]]`.
    member_off: Vec<u32>,
    /// Device positions, ascending within each class.
    members: Vec<u32>,
    /// Classes `0..sparse` are sparse, the rest dense.
    sparse: usize,
    /// Dense devices, ascending.
    dense: Vec<usize>,
    /// Every PO of every sparse class, sorted by `(instant, class)`.
    events: Vec<(SimInstant, usize)>,
    /// The first sparse device without a PO.
    unreachable: Option<usize>,
    /// How the events repeat, when a later period lies in the horizon.
    repeat: Option<Repeat>,
}

/// The periodic structure of a [`PoTimeline`]: every event at or after
/// `boundary` is the event one `period` earlier, shifted by `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Repeat {
    /// The largest sparse cycle `P`.
    period: SimDuration,
    /// `start + P`, the end of the first period.
    boundary: SimInstant,
    /// The horizon end.
    end: SimInstant,
}

impl PoTimeline {
    /// The timeline of devices with `schedules` (in device order) over
    /// `horizon`: a device whose cycle is at most `ti` is dense, every
    /// other one gets its POs inside `horizon`. Equal schedules form one
    /// class, and [`PagingSchedule::pos_in`] runs once per sparse class,
    /// over the first period `[start, start + P)` for the largest sparse
    /// cycle `P`; each later period is a shifted copy of it. When a class
    /// does not repeat from `start` on (its first PTW crosses the end of
    /// its cycle and `start` lies before [`PagingSchedule::periodic_from`]),
    /// the whole horizon is enumerated instead.
    pub fn new(schedules: &[PagingSchedule], ti: SimDuration, horizon: TimeWindow) -> PoTimeline {
        let (start, end) = (horizon.start(), horizon.end());
        let mut timeline = PoTimeline::build(schedules.iter().map(|s| (s, s.period() <= ti)));
        let sparse = || (0..timeline.sparse).map(|c| &schedules[timeline.members(c)[0] as usize]);
        let repeat = sparse()
            .map(PagingSchedule::period)
            .max()
            .filter(|&p| p < end - start && sparse().all(|s| s.periodic_from() <= start))
            .map(|period| Repeat {
                period,
                boundary: start + period,
                end,
            });
        let first = repeat.map_or(horizon, |r| TimeWindow::new(start, r.boundary));
        timeline.enumerate(|d| schedules[d].pos_in(first));
        if let Some(r) = repeat {
            // Every cycle divides P, so each later period is the first one
            // shifted; the copies are already sorted.
            let first = timeline.events.len();
            let mut shift = r.period;
            while shift < end - start {
                let last = end - shift;
                for k in 0..first {
                    let (t, c) = timeline.events[k];
                    if t >= last {
                        break;
                    }
                    timeline.events.push((t + shift, c));
                }
                shift += r.period;
            }
            timeline.repeat = repeat;
        }
        timeline
    }

    /// The timeline of synthetic per-device PO lists: `events[d]` are
    /// device `d`'s POs (ignored when `dense[d]`). Devices with identical
    /// lists and equal flags form one class.
    ///
    /// # Panics
    ///
    /// Panics when `events` and `dense` have different lengths.
    pub fn from_events(events: &[Vec<SimInstant>], dense: &[bool]) -> PoTimeline {
        assert_eq!(events.len(), dense.len(), "events/dense length mismatch");
        let mut timeline = PoTimeline::build(
            events
                .iter()
                .zip(dense)
                .map(|(e, &d)| ((d, e.as_slice()), d)),
        );
        timeline.enumerate(|d| events[d].clone());
        timeline
    }

    /// Numbers the classes of `keys` (one `(key, dense)` per device) and
    /// builds the member lists; the timeline has no events yet.
    fn build<K: Hash + Eq>(keys: impl Iterator<Item = (K, bool)>) -> PoTimeline {
        let mut ids: HashMap<K, u32, BuildHasherDefault<FxHasher>> = HashMap::default();
        let mut class_dense: Vec<bool> = Vec::new();
        let mut class_of: Vec<u32> = keys
            .map(|(key, dense)| {
                let next = class_dense.len() as u32;
                *ids.entry(key).or_insert_with(|| {
                    class_dense.push(dense);
                    next
                })
            })
            .collect();
        drop(ids);
        assert!(
            class_of.len() < u32::MAX as usize,
            "timeline uses u32 device indices"
        );
        // Renumber sparse classes first; each group keeps first-seen order.
        let sparse = class_dense.iter().filter(|&&d| !d).count();
        let mut next = [0, sparse];
        let renumber: Vec<u32> = class_dense
            .iter()
            .map(|&d| {
                next[usize::from(d)] += 1;
                (next[usize::from(d)] - 1) as u32
            })
            .collect();
        for c in &mut class_of {
            *c = renumber[*c as usize];
        }
        // Member lists: a counting sort in device order keeps them
        // ascending.
        let classes = class_dense.len();
        let mut member_off = vec![0u32; classes + 1];
        for &c in &class_of {
            member_off[c as usize + 1] += 1;
        }
        for c in 0..classes {
            member_off[c + 1] += member_off[c];
        }
        let mut cursor = member_off[..classes].to_vec();
        let mut members = vec![0u32; class_of.len()];
        for (d, &c) in class_of.iter().enumerate() {
            members[cursor[c as usize] as usize] = d as u32;
            cursor[c as usize] += 1;
        }
        let dense = (0..class_of.len())
            .filter(|&d| class_of[d] as usize >= sparse)
            .collect();
        PoTimeline {
            class_of,
            member_off,
            members,
            sparse,
            dense,
            events: Vec::new(),
            unreachable: None,
            repeat: None,
        }
    }

    /// Enumerates each sparse class's POs through `pos_of` at its lowest
    /// member, sorted by `(instant, class)`.
    fn enumerate(&mut self, mut pos_of: impl FnMut(usize) -> Vec<SimInstant>) {
        for c in 0..self.sparse {
            let lowest = self.members(c)[0] as usize;
            let pos = pos_of(lowest);
            if pos.is_empty() && self.unreachable.is_none() {
                self.unreachable = Some(lowest);
            }
            self.events.extend(pos.into_iter().map(|t| (t, c)));
        }
        self.events.sort_unstable();
    }

    /// Number of devices, dense ones included.
    pub fn devices(&self) -> usize {
        self.class_of.len()
    }

    /// Number of classes, dense ones included.
    pub fn classes(&self) -> usize {
        self.member_off.len() - 1
    }

    /// Number of sparse classes: classes `0..sparse_classes()` are the
    /// sparse ones.
    pub fn sparse_classes(&self) -> usize {
        self.sparse
    }

    /// The class of device `device`.
    ///
    /// # Panics
    ///
    /// Panics when `device >= devices()`.
    pub fn class_of(&self, device: usize) -> usize {
        self.class_of[device] as usize
    }

    /// The members of `class`, ascending device positions.
    ///
    /// # Panics
    ///
    /// Panics when `class >= classes()`.
    pub fn members(&self, class: usize) -> &[u32] {
        &self.members[self.member_off[class] as usize..self.member_off[class + 1] as usize]
    }

    /// The number of devices in `class`: the weight of its events in a
    /// window's gain.
    ///
    /// # Panics
    ///
    /// Panics when `class >= classes()`.
    pub fn multiplicity(&self, class: usize) -> u32 {
        self.member_off[class + 1] - self.member_off[class]
    }

    /// The dense devices (a PO in every window), ascending.
    pub fn dense_devices(&self) -> &[usize] {
        &self.dense
    }

    /// Every PO of every sparse class inside the horizon, sorted by
    /// `(instant, class)`.
    pub fn events(&self) -> &[(SimInstant, usize)] {
        &self.events
    }

    /// The per-device PO count the timeline stands for: each class event
    /// counted once per member.
    pub fn device_events(&self) -> usize {
        self.events
            .iter()
            .map(|&(_, c)| self.multiplicity(c) as usize)
            .sum()
    }

    /// The first sparse device, in device order, without a PO inside the
    /// horizon: no window covers it.
    pub fn first_unreachable(&self) -> Option<usize> {
        self.unreachable
    }

    /// The end of the first period, `start + P`: every event at or after
    /// it repeats an earlier one. [`SimInstant::MAX`] when nothing repeats.
    fn first_period_end(&self) -> SimInstant {
        self.repeat.map_or(SimInstant::MAX, |r| r.boundary)
    }

    /// The members of `classes`, merged into ascending device positions.
    fn devices_of(&self, classes: &[usize]) -> Vec<usize> {
        let mut devices: Vec<usize> = classes
            .iter()
            .flat_map(|&c| self.members(c).iter().map(|&d| d as usize))
            .collect();
        devices.sort_unstable();
        devices
    }
}

/// The deduplicated anchor-window set-cover instance over sparse devices —
/// the static instance [`WindowCover::solve_weighted`] and
/// [`crate::DrScTabu`] solve. A [`crate::GroupingInput`] builds it once,
/// on first use, and both planners read that one copy in place.
///
/// Every distinct sparse PO instant `a` anchors a candidate window holding
/// the sparse devices with a PO in `[a, a + TI)`. Most cycles are far
/// shorter than the `2·maxDRX` horizon, so the same member set recurs at
/// many anchors; the instance stores each distinct set **once**, at its
/// lowest anchor, plus an anchor → window map. Windows are numbered in
/// order of their lowest anchor, so a lowest-index tie law over windows is
/// the lowest-anchor tie law over the full per-anchor instance. The
/// windows are stored as a `u32` CSR together with each device's windows
/// as runs of consecutive window indices: the index the weighted greedy
/// rounds and the tabu search read, so no plan re-indexes the instance.
///
/// The instance is per device, not per schedule class: the tabu search
/// ([`crate::improve`]) counts uncovered devices, and the weighted cover
/// prices member sets. A sweep over the timeline's POs, expanded to
/// time-sorted per-device events, builds it: per-device
/// in-window counts track the current member set, and an order-independent
/// hash of that set (a wrapping sum of per-device keys) proposes earlier
/// windows with the same hash. Every proposal is checked exactly — equal
/// size and every member of the candidate inside the current window — so
/// two anchors share a window iff their member sets are equal; the hash
/// only saves work and never decides. The sweep covers the first paging
/// period's anchors and the anchors whose window the horizon truncates;
/// every other anchor opens its twin's window, one period earlier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorInstance {
    /// Number of devices, dense ones included.
    devices: usize,
    /// Event index of each sparse device; window members index this list.
    sparse: Vec<usize>,
    /// Distinct sparse PO instants, ascending.
    anchors: Vec<SimInstant>,
    /// The window each anchor opens.
    window_of: Vec<u32>,
    /// Each window's lowest anchor (an index into `anchors`).
    lowest: Vec<u32>,
    /// Distinct member sets (sparse indices in PO order at the lowest
    /// anchor), in lowest-anchor order, with each sparse device's runs of
    /// windows.
    windows: SetIndex,
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
    /// Builds the instance for windows of length `ti` over `timeline`'s
    /// sparse devices; dense devices (a PO in every window) are left out,
    /// as in [`WindowCover::solve`].
    ///
    /// # Panics
    ///
    /// Panics when `ti` is zero.
    pub fn new(ti: SimDuration, timeline: &PoTimeline) -> AnchorInstance {
        assert!(ti > SimDuration::ZERO, "anchor windows need a positive TI");
        let n = timeline.devices();
        let sparse: Vec<usize> = (0..n)
            .filter(|&d| timeline.class_of(d) < timeline.sparse_classes())
            .collect();
        let mut index = vec![0usize; n];
        for (s, &d) in sparse.iter().enumerate() {
            index[d] = s;
        }
        // The time-sorted per-device events of `events`, a run of the
        // timeline's class events. Those are time-sorted already, so
        // sorting each instant's events sorts the list.
        let expand = |events: &[(SimInstant, usize)]| {
            let mut flat: Vec<(SimInstant, usize)> = Vec::with_capacity(
                events
                    .iter()
                    .map(|&(_, c)| timeline.multiplicity(c) as usize)
                    .sum(),
            );
            for &(t, c) in events {
                flat.extend(timeline.members(c).iter().map(|&d| (t, index[d as usize])));
            }
            for instant in flat.chunk_by_mut(|a, b| a.0 == b.0) {
                instant.sort_unstable();
            }
            flat
        };
        let mut count = vec![0u32; sparse.len()];
        let mut stamp = vec![u32::MAX; sparse.len()];
        // Latest window per hash, chained to the previous window with the
        // same hash. Both sweeps share it, so a tail window dedups against
        // the first period's and windows stay numbered by lowest anchor.
        let mut by_hash: HashMap<u64, u32, BuildHasherDefault<FxHasher>> = HashMap::default();
        let mut same_hash: Vec<Option<u32>> = Vec::new();
        // Appends the anchors of `flat` before `stop`, each with its
        // window; a window reads every event of `flat`.
        let mut sweep =
            |instance: &mut AnchorInstance, flat: &[(SimInstant, usize)], stop: SimInstant| {
                let (mut size, mut hash) = (0usize, 0u64);
                let (mut lo, mut hi) = (0usize, 0usize);
                while lo < flat.len() && flat[lo].0 < stop {
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
                        let members = instance.window(w as usize);
                        if members.len() == size && members.iter().all(|&s| count[s as usize] > 0) {
                            break;
                        }
                        candidate = same_hash[w as usize];
                    }
                    let window = candidate.unwrap_or_else(|| {
                        let w = instance.windows.sets() as u32;
                        for &(_, s) in &flat[lo..hi] {
                            if stamp[s] != w {
                                stamp[s] = w;
                                instance.windows.set_elems.push(s as u32);
                            }
                        }
                        instance.windows.close_set();
                        instance.lowest.push(instance.anchors.len() as u32);
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
                // The next sweep starts from empty counts.
                for &(_, s) in &flat[lo..hi] {
                    count[s] = 0;
                }
            };
        let mut instance = AnchorInstance {
            devices: n,
            sparse,
            anchors: Vec::new(),
            window_of: Vec::new(),
            lowest: Vec::new(),
            windows: SetIndex {
                set_off: vec![0],
                ..SetIndex::default()
            },
        };
        let events = timeline.events();
        let boundary = timeline.first_period_end();
        // The first period's anchors; windows crossing its end read the
        // copied events.
        let reach = boundary.saturating_add(ti);
        let first = &events[..events.partition_point(|e| e.0 < reach)];
        sweep(&mut instance, &expand(first), boundary);
        // A later anchor whose window fits in the horizon opens the window
        // of its twin one period earlier: as many anchors back as the first
        // period holds, so over several periods the twins chain.
        let mut tail = boundary;
        if let Some(r) = timeline.repeat {
            let mut twin = 0;
            while let Some(&t) = instance.anchors.get(twin) {
                tail = t + r.period;
                if tail + ti > r.end {
                    break;
                }
                instance.anchors.push(tail);
                instance.window_of.push(instance.window_of[twin]);
                twin += 1;
            }
        }
        // The horizon truncates the tail windows, so they are swept: a
        // truncated window can price lower than its twin.
        let tail = events.partition_point(|e| e.0 < tail);
        sweep(&mut instance, &expand(&events[tail..]), SimInstant::MAX);
        assert!(
            instance.windows.set_elems.len() < u32::MAX as usize,
            "u32 instance indices"
        );
        instance.windows.index_runs(instance.sparse.len());
        instance
    }

    /// The event index of each sparse device, ascending: window members
    /// are positions in this list (the set-cover universe).
    pub fn sparse_devices(&self) -> &[usize] {
        &self.sparse
    }

    /// The devices left out of the instance (a PO in every window),
    /// ascending: the complement of [`AnchorInstance::sparse_devices`].
    pub(crate) fn dense_devices(&self) -> impl Iterator<Item = usize> + '_ {
        let mut sparse = self.sparse.iter().peekable();
        (0..self.devices).filter(move |&d| sparse.next_if_eq(&&d).is_none())
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
        self.window_of[anchor] as usize
    }

    /// Each window's lowest anchor, as an index into
    /// [`AnchorInstance::anchors`] (ascending: windows are numbered in
    /// lowest-anchor order).
    pub fn lowest_anchors(&self) -> &[u32] {
        &self.lowest
    }

    /// Number of distinct windows: the candidate sets of the set cover.
    pub fn window_count(&self) -> usize {
        self.windows.sets()
    }

    /// The members of window `w` (positions in
    /// [`AnchorInstance::sparse_devices`]) in PO order at its lowest
    /// anchor. Panics when `w >= window_count()`.
    pub fn window(&self, w: usize) -> &[u32] {
        self.windows.set(w)
    }

    /// The windows holding sparse device `s` (a position in
    /// [`AnchorInstance::sparse_devices`]) as maximal runs `[start, end)`
    /// of consecutive window indices, ascending: the transpose of
    /// [`AnchorInstance::window`]. Panics when `s` is out of range.
    pub fn window_runs(&self, s: usize) -> &[(u32, u32)] {
        self.windows.runs_of(s)
    }

    /// Summed size of the distinct windows.
    pub fn entries(&self) -> usize {
        self.windows.set_elems.len()
    }

    /// Summed window size over every anchor: the size of the instance
    /// before deduplication.
    pub fn anchor_entries(&self) -> usize {
        self.window_of
            .iter()
            .map(|&w| self.window(w as usize).len())
            .sum()
    }

    /// [`improve_cover`](crate::improve::improve_cover) over the windows,
    /// run on the instance's own index instead of a copy: `initial` is a
    /// cover of the sparse devices by window indices, and the result
    /// equals `improve_cover` over the windows copied out.
    pub fn improve_cover(
        &self,
        initial: &[usize],
        budget: u32,
        seed: u64,
    ) -> (Vec<usize>, ImprovementStats) {
        crate::improve::search(&self.windows, initial, budget, seed)
    }
}

/// The greedy timeline solver for DR-SC: Chvátal's greedy over `TI`
/// windows anchored at paging occasions, run on a [`PoTimeline`]'s
/// schedule classes, each weighted by its device count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCover {
    ti: SimDuration,
}

/// Which greedy engine [`WindowCover::solve`] runs the rounds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Pick by the work estimate of each engine (the production default).
    Auto,
    /// Force the per-round two-pointer re-sweep (the PR-1 kernel).
    Sweep,
    /// Force incremental gain maintenance.
    Incremental,
}

impl WindowCover {
    /// Creates a solver for windows of inactivity-timer length `ti`.
    ///
    /// # Panics
    ///
    /// Panics when `ti` is zero: an empty window covers nothing.
    pub fn new(ti: SimDuration) -> WindowCover {
        assert!(ti > SimDuration::ZERO, "window covers need a positive TI");
        WindowCover { ti }
    }

    /// Solves the cover.
    ///
    /// * `horizon_start` — the beginning of the search horizon (used to
    ///   anchor the single window when *every* device is dense),
    /// * `timeline` — the group's POs within the search horizon, over
    ///   schedule classes; a sparse device is only coverable through its
    ///   class's POs, a dense one (cycle at most `TI`) lies in every
    ///   window.
    ///
    /// Returns the selected transmissions in selection order, each
    /// listing its newly covered devices in ascending position, or `None`
    /// when some sparse device has no PO (it could never be covered).
    ///
    /// Each round opens the window, anchored at a PO instant that still
    /// holds an uncovered device's PO, that covers the most uncovered
    /// devices (ties to the earliest instant). The rounds run on classes:
    /// devices of one class lie in the same windows, so they are always
    /// covered in the same round, and a window's gain is the summed
    /// multiplicity of its uncovered classes. The gains, the tie-breaks
    /// and therefore the slots are those of the per-device greedy
    /// ([`reference::window_cover_solve`]). The rounds run on one of two
    /// engines — incremental gain maintenance over distinct PO instants
    /// ([`WindowCover::solve_incremental`]) or the per-round re-sweep
    /// ([`WindowCover::solve_sweep`]) — chosen by a work estimate of
    /// each; both produce **identical slots** (see `docs/KERNELS.md` for
    /// the crossover analysis), so the choice only trades wall-clock.
    pub fn solve(
        &self,
        horizon_start: SimInstant,
        timeline: &PoTimeline,
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, timeline, Strategy::Auto)
    }

    /// [`WindowCover::solve`] forced onto the per-round two-pointer
    /// re-sweep engine (the PR-1 kernel) — exposed so equivalence tests
    /// and benchmarks can pin the engine regardless of the crossover.
    /// Identical output to [`WindowCover::solve`].
    pub fn solve_sweep(
        &self,
        horizon_start: SimInstant,
        timeline: &PoTimeline,
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, timeline, Strategy::Sweep)
    }

    /// [`WindowCover::solve`] forced onto the incremental-gain engine —
    /// exposed so equivalence tests and benchmarks can pin the engine
    /// regardless of the crossover. Identical output to
    /// [`WindowCover::solve`].
    ///
    /// The engine keeps one candidate per **distinct PO instant**, not per
    /// PO event: the window opening at instant `t` holds the classes with
    /// a PO in `[t, t + TI)`, and an instant stays a candidate while one
    /// of its POs belongs to an uncovered class. Covering a class
    /// decrements the gains of the instants whose window sees one of its
    /// POs by its multiplicity, once per window, so a solve does at most
    /// `M_inst` decrements, the summed class-event count over the
    /// instants' windows. Winners pop from the same lazy queue as the
    /// explicit-set rounds, keyed on a live instant's gain.
    pub fn solve_incremental(
        &self,
        horizon_start: SimInstant,
        timeline: &PoTimeline,
    ) -> Option<Vec<CoverSlot>> {
        self.solve_with(horizon_start, timeline, Strategy::Incremental)
    }

    /// Cost-aware cover over `instance`, an [`AnchorInstance`] built for
    /// this solver's `TI` (the same deduplicated anchor-window instance
    /// [`crate::DrScTabu`] searches): prices each distinct window through
    /// `window_cost` and runs the rounds of [`greedy_set_cover_weighted`]
    /// on the instance's own index — each round picks the window
    /// maximizing newly-covered devices *per unit cost* instead of the raw
    /// count. A picked window opens at its lowest anchor.
    ///
    /// `window_cost` receives the window's member devices as device
    /// indices (sparse members only, in PO order at the window's lowest
    /// anchor) and must return a positive cost that depends on the member
    /// *set* alone; for DR-SC it returns the coverage-class block airtime
    /// of the deepest member. Dense devices (those the instance leaves
    /// out) ride the first selected transmission exactly as in
    /// [`WindowCover::solve`] — their cost contribution is constant across
    /// any cover, so they never influence the argmax and are excluded
    /// from the priced instance.
    ///
    /// Returns the selected transmissions in selection (greedy) order, or
    /// `None` when some sparse device has no PO events (it lies in no
    /// window). The slots are **identical** to the weighted greedy over
    /// the full per-anchor instance ([`reference::window_cover_weighted`],
    /// proptest-locked): anchors with equal member sets have equal gains
    /// and costs in every round, so that greedy always picks the lowest of
    /// them — the one anchor the deduplicated instance keeps. With a
    /// constant `window_cost` the ratio key degenerates to `gain << 32`,
    /// so the picks equal the unweighted kernel's on the same instance.
    /// They are *not* slot-for-slot identical to [`WindowCover::solve`]:
    /// the unweighted engines drop covered devices' events between rounds
    /// and therefore re-anchor gain-tied windows at a surviving
    /// (uncovered) PO, while the static instance keeps every anchor alive.
    /// The covered POs are the same; only tie-round `window_start`s can
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics when `window_cost` returns zero.
    pub fn solve_weighted(
        &self,
        horizon_start: SimInstant,
        instance: &AnchorInstance,
        mut window_cost: impl FnMut(&[usize]) -> u32,
    ) -> Option<Vec<CoverSlot>> {
        let sparse = instance.sparse_devices();
        let mut costs = Vec::with_capacity(instance.window_count());
        let mut members: Vec<usize> = Vec::new();
        for w in 0..instance.window_count() {
            members.clear();
            members.extend(instance.window(w).iter().map(|&s| sparse[s as usize]));
            let cost = window_cost(&members);
            assert!(cost > 0, "window cost must be positive");
            costs.push(cost);
        }
        let picks = weighted_rounds(&instance.windows, &costs);

        let mut covered = vec![false; instance.devices];
        let mut slots: Vec<CoverSlot> = Vec::new();
        for w in picks? {
            let window_start = instance.anchors()[instance.lowest_anchors()[w] as usize];
            let mut newly: Vec<usize> = instance
                .window(w)
                .iter()
                .map(|&s| sparse[s as usize])
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
        self.attach_dense(
            horizon_start,
            instance.dense_devices().collect(),
            &mut slots,
        );
        Some(slots)
    }

    /// Dense devices ride the first transmission; if there is none
    /// (everyone is dense), one window opens at the horizon start.
    fn attach_dense(
        &self,
        horizon_start: SimInstant,
        dense_devices: Vec<usize>,
        slots: &mut Vec<CoverSlot>,
    ) {
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
        timeline: &PoTimeline,
        strategy: Strategy,
    ) -> Option<Vec<CoverSlot>> {
        if timeline.first_unreachable().is_some() {
            return None;
        }
        let classes = timeline.sparse_classes();
        let uncovered_sparse = timeline.devices() - timeline.dense_devices().len();
        let mut covered = vec![false; classes];
        // Candidates anchor in the first period; windows crossing its end
        // read the copied events. A later anchor never wins a round: its
        // twin one period earlier has the same live classes (a subset,
        // when the horizon truncates it) and takes the tie.
        let boundary = timeline.first_period_end();
        let events = timeline.events();
        let events = &events[..events.partition_point(|e| e.0 < boundary.saturating_add(self.ti))];
        let instants = (strategy != Strategy::Sweep)
            .then(|| self.group_instants(events, boundary))
            .filter(|(starts, ends)| {
                strategy == Strategy::Incremental || incremental_pays_off(starts, ends, classes)
            });
        let mut slots = if uncovered_sparse == 0 {
            Vec::new()
        } else if let Some((starts, ends)) = instants {
            self.rounds_incremental(
                timeline,
                events,
                &starts,
                &ends,
                &mut covered,
                uncovered_sparse,
            )
        } else {
            self.rounds_sweep(timeline, events, boundary, &mut covered, uncovered_sparse)
        };
        debug_assert!(covered.iter().all(|&c| c));
        self.attach_dense(horizon_start, timeline.dense_devices().to_vec(), &mut slots);
        Some(slots)
    }

    /// Groups the time-sorted events by distinct instant into
    /// `(starts, ends)`: `starts[q]..starts[q + 1]` are the events at
    /// instant `q`, and for each candidate instant (one before
    /// `boundary`) `ends[q]` is the first instant outside the window that
    /// opens at `q`, so that window holds the events
    /// `starts[q]..starts[ends[q]]` (`ends` is non-decreasing).
    fn group_instants(
        &self,
        flat: &[(SimInstant, usize)],
        boundary: SimInstant,
    ) -> (Vec<u32>, Vec<u32>) {
        assert!(
            flat.len() < u32::MAX as usize,
            "instant grouping uses u32 event offsets"
        );
        let mut starts: Vec<u32> = (0..flat.len())
            .filter(|&i| i == 0 || flat[i - 1].0 != flat[i].0)
            .map(|i| i as u32)
            .collect();
        let instants = starts.len();
        starts.push(flat.len() as u32);
        let mut ends = Vec::with_capacity(instants);
        let mut k = 0usize;
        for q in 0..instants {
            let at = flat[starts[q] as usize].0;
            if at >= boundary {
                break;
            }
            let end = at + self.ti;
            // A positive TI keeps instant q inside its own window.
            k = k.max(q + 1);
            while k < instants && flat[starts[k] as usize].0 < end {
                k += 1;
            }
            ends.push(k as u32);
        }
        (starts, ends)
    }

    /// Greedy rounds on incremental gain maintenance over the instant
    /// grouping of [`WindowCover::group_instants`]. Per candidate instant
    /// it keeps the gain (summed multiplicity of the distinct uncovered
    /// classes with a PO in its window) and the live count (its events
    /// whose class is still uncovered), and per instant the first
    /// candidate whose window reaches it.
    /// Covering a class decrements the gains over the merged instant
    /// ranges of its POs by its multiplicity, once per window, and the
    /// live count of each instant holding one of its POs; an instant whose
    /// live count is zero is no longer a candidate. Winners pop from a
    /// `LazyQueue` whose live key is an instant's gain while the instant
    /// is live and zero once it is dead, so keys only fall.
    ///
    /// The slots equal the re-sweep's, which anchors at the events left
    /// after dropping covered classes' POs. Among the events left at one
    /// instant, the first has the largest window and the lowest index, so
    /// the event-level argmax over `(gain, lowest event)` is the
    /// instant-level argmax over `(gain, lowest live instant)`, and its
    /// window holds every event of the instant.
    fn rounds_incremental(
        &self,
        timeline: &PoTimeline,
        flat: &[(SimInstant, usize)],
        starts: &[u32],
        ends: &[u32],
        covered: &mut [bool],
        mut uncovered_sparse: usize,
    ) -> Vec<CoverSlot> {
        let k = covered.len();
        let instants = starts.len() - 1;
        let candidates = ends.len();
        let events_of = |q: usize| starts[q] as usize..starts[q + 1] as usize;
        // first[q]: the first candidate whose window reaches q (ends is
        // non-decreasing, so {a : ends[a] > q} is a suffix).
        let mut first = Vec::with_capacity(instants);
        let mut a = 0usize;
        for q in 0..instants {
            while a < candidates && ends[a] as usize <= q {
                a += 1;
            }
            first.push(a as u32);
        }
        let mut live: Vec<u32> = (0..candidates).map(|q| events_of(q).len() as u32).collect();
        // Class → instants of its POs (CSR, ascending).
        let mut class_off = vec![0u32; k + 1];
        for &(_, c) in flat {
            class_off[c + 1] += 1;
        }
        for c in 0..k {
            class_off[c + 1] += class_off[c];
        }
        let mut cursor = class_off[..k].to_vec();
        let mut class_instants = vec![0u32; flat.len()];
        for q in 0..instants {
            for &(_, c) in &flat[events_of(q)] {
                class_instants[cursor[c] as usize] = q as u32;
                cursor[c] += 1;
            }
        }
        // Initial gains: one self-cleaning sweep (each event is counted
        // once as a window member and discounted once with its instant).
        let mut count = vec![0u32; k];
        let mut gains = Vec::with_capacity(candidates);
        let (mut distinct, mut e) = (0u32, 0usize);
        for q in 0..candidates {
            while e < starts[ends[q] as usize] as usize {
                let c = flat[e].1;
                if count[c] == 0 {
                    distinct += timeline.multiplicity(c);
                }
                count[c] += 1;
                e += 1;
            }
            gains.push(distinct);
            for &(_, c) in &flat[events_of(q)] {
                count[c] -= 1;
                if count[c] == 0 {
                    distinct -= timeline.multiplicity(c);
                }
            }
        }

        // Every instant is live (it holds an event) until its live count
        // drops to zero; a dead instant's key is zero.
        let mut queue = LazyQueue::new(gains.iter().map(|&g| u64::from(g)));
        let mut slots = Vec::new();
        let mut newly: Vec<usize> = Vec::new();
        while uncovered_sparse > 0 {
            let q = queue
                .pop_current(|a| if live[a] > 0 { u64::from(gains[a]) } else { 0 })
                .expect("uncovered sparse class without events");
            let window_start = flat[starts[q] as usize].0;
            newly.clear();
            for &(_, c) in &flat[starts[q] as usize..starts[ends[q] as usize] as usize] {
                if !covered[c] {
                    covered[c] = true;
                    newly.push(c);
                }
            }
            debug_assert!(!newly.is_empty(), "selected window covers nothing");
            for &c in &newly {
                let weight = timeline.multiplicity(c);
                // Candidates seeing >= 1 PO of c: the union of
                // [first[p], p] over c's instants; the ranges are sorted
                // on both ends, so a running start merges overlaps and
                // each candidate is decremented once for c.
                let mut next_start = 0usize;
                for &p in &class_instants[class_off[c] as usize..class_off[c + 1] as usize] {
                    let p = p as usize;
                    if p < candidates {
                        live[p] -= 1;
                    }
                    // Past the last candidate `lo` can exceed `hi`:
                    // skipping into `..hi` yields nothing there, where
                    // slicing `lo..hi` would panic.
                    let (lo, hi) = ((first[p] as usize).max(next_start), (p + 1).min(candidates));
                    for gain in gains[..hi].iter_mut().skip(lo) {
                        *gain -= weight;
                    }
                    next_start = p + 1;
                }
            }
            let covered_devices = timeline.devices_of(&newly);
            uncovered_sparse -= covered_devices.len();
            slots.push(CoverSlot {
                window_start,
                transmit_at: window_start + self.ti,
                covered: covered_devices,
            });
        }
        slots
    }

    /// Greedy rounds on the per-round re-sweep engine (the PR-1 kernel):
    /// hoisted scratch buffers, one self-cleaning two-pointer sweep per
    /// round over a copy of the class events, spent events compacted
    /// away. Events at or after `boundary` anchor no window.
    fn rounds_sweep(
        &self,
        timeline: &PoTimeline,
        events: &[(SimInstant, usize)],
        boundary: SimInstant,
        covered: &mut [bool],
        mut uncovered_sparse: usize,
    ) -> Vec<CoverSlot> {
        let mut flat = events.to_vec();
        let mut count = vec![0u32; covered.len()];
        let mut slots = Vec::new();
        while uncovered_sparse > 0 {
            let slot = self.greedy_round(timeline, &mut flat, boundary, &mut count, covered);
            uncovered_sparse -= slot.covered.len();
            slots.push(slot);
        }
        slots
    }

    /// One greedy round: a single two-pointer sweep over the remaining
    /// class events picks the best window anchor, then the newly covered
    /// classes are expanded to their devices and their events compacted
    /// away. Allocates only the round's class list and the returned
    /// slot's `covered` list.
    fn greedy_round(
        &self,
        timeline: &PoTimeline,
        flat: &mut Vec<(SimInstant, usize)>,
        boundary: SimInstant,
        count: &mut [u32],
        covered: &mut [bool],
    ) -> CoverSlot {
        // The sweep below is self-cleaning: every event is counted once
        // when the right pointer passes it and discounted once when it
        // becomes the anchor or the sweep ends, so `count` is all-zero
        // between rounds.
        debug_assert!(count.iter().all(|&c| c == 0));

        // For each window anchored at event i, sum the multiplicities of
        // the distinct uncovered classes with a PO in
        // [flat[i].0, flat[i].0 + TI).
        let mut distinct = 0u32;
        let mut best_gain = 0u32;
        let mut best_anchor = 0usize;
        let mut j = 0usize;
        let events: &[(SimInstant, usize)] = flat;
        let anchors = events.partition_point(|e| e.0 < boundary);
        for (i, &(start, anchor_class)) in events[..anchors].iter().enumerate() {
            let end = start + self.ti;
            while j < events.len() && events[j].0 < end {
                let c = events[j].1;
                if !covered[c] {
                    if count[c] == 0 {
                        distinct += timeline.multiplicity(c);
                    }
                    count[c] += 1;
                }
                j += 1;
            }
            if distinct > best_gain {
                best_gain = distinct;
                best_anchor = i;
            }
            // Remove the anchor event before moving on.
            let c = anchor_class;
            if !covered[c] {
                count[c] -= 1;
                if count[c] == 0 {
                    distinct -= timeline.multiplicity(c);
                }
            }
        }
        // Events past the last anchor were counted by its window.
        for &(_, c) in &events[anchors..j] {
            if !covered[c] {
                count[c] -= 1;
            }
        }
        debug_assert!(best_gain > 0, "uncovered sparse class without events");
        let window_start = flat[best_anchor].0;
        let transmit_at = window_start + self.ti;
        let mut newly: Vec<usize> = Vec::new();
        for &(t, c) in &flat[best_anchor..] {
            if t >= transmit_at {
                break;
            }
            if !covered[c] {
                covered[c] = true;
                newly.push(c);
            }
        }
        // Compact spent events in place so later sweeps stay cheap.
        flat.retain(|&(_, c)| !covered[c]);
        CoverSlot {
            window_start,
            transmit_at,
            covered: timeline.devices_of(&newly),
        }
    }
}

/// The engine crossover over the instant grouping of
/// [`WindowCover::group_instants`], counted in class events. The
/// incremental engine does at most `M_inst` decrements, the instant mass:
/// the summed event count over the instants' windows. The re-sweep pays
/// `rounds × E` for `E` events, and a window covers at most
/// `w̄ = M_ev / E` classes for the event mass `M_ev` (the summed event
/// count over each event's window, the window an event opens holding the
/// events from it on), so it needs `rounds ≳ n / w̄` rounds for `n`
/// sparse classes: about `n·E² / M_ev` work. The incremental engine runs
/// iff `M_inst·M_ev ≤ n·E²`; with one event per instant
/// (`M_inst = M_ev`) that is `M_ev ≤ E·√n`. Every event at instant `q`
/// shares the window end `starts[ends[q]]`, so both masses are sums over
/// the instants. See `docs/KERNELS.md`.
fn incremental_pays_off(starts: &[u32], ends: &[u32], n_sparse: usize) -> bool {
    let (mut m_inst, mut m_ev) = (0u64, 0u64);
    for (q, &end) in ends.iter().enumerate() {
        let here = u64::from(starts[q + 1] - starts[q]);
        let reach = u64::from(starts[end as usize] - starts[q]);
        m_inst += reach;
        // The k-th event at q (from 0) sees `reach - k` events.
        m_ev += here * reach - here * (here - 1) / 2;
    }
    let e = u128::from(*starts.last().expect("grouping ends with the event count"));
    u128::from(m_inst) * u128::from(m_ev) <= n_sparse as u128 * e * e
}

/// The original straightforward solvers, retained verbatim as the oracle
/// for equivalence testing of the production kernels, plus the
/// naive per-anchor instance behind [`AnchorInstance`] and the
/// weighted window cover over it. They take jagged per-device PO lists,
/// not a [`PoTimeline`].
pub mod reference {
    use super::{CoverSlot, SimDuration, SimInstant};

    /// Reference greedy set cover: boolean coverage vector plus a tag
    /// array for unique-gain counting, with a full re-scan of every set
    /// per round.
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
    }

    #[test]
    fn incremental_single_set_covers_in_one_pick() {
        let sets = vec![vec![2, 0, 1]];
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0]));
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
    fn greedy_matches_reference_exactly() {
        // Deterministic pseudo-random instances, compared pick-for-pick
        // between the incremental and reference implementations.
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
            assert_eq!(
                greedy_set_cover(n, &sets),
                reference::greedy_set_cover(n, &sets),
                "trial {trial}: n={n} sets={sets:?}"
            );
        }
    }

    /// A deterministic instance far larger than the hand-written ones
    /// (2,000 elements, ~25k entries).
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
    fn fig2a_single_shared_window() {
        // Fig. 2(a): POs of devices 2 and 3 fall within TI of device 1's PO
        // -> one transmission covers all three.
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(10)], vec![ms(50)], vec![ms(90)]];
        let slots = WindowCover::new(ti)
            .solve(
                ms(0),
                &PoTimeline::from_events(&events, &[false, false, false]),
            )
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
            .solve(
                ms(0),
                &PoTimeline::from_events(&events, &[false, false, false]),
            )
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
            .solve(ms(0), &PoTimeline::from_events(&events, &[false, false]))
            .unwrap();
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn dense_devices_ride_first_transmission() {
        let ti = SimDuration::from_ms(100);
        // Device 0 sparse at t=500; device 1 dense (cycle <= TI).
        let events = vec![vec![ms(500)], vec![ms(5), ms(55), ms(105)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &PoTimeline::from_events(&events, &[false, true]))
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    #[test]
    fn all_dense_single_transmission() {
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(5), ms(55)], vec![ms(20), ms(80)]];
        let slots = WindowCover::new(ti)
            .solve(ms(0), &PoTimeline::from_events(&events, &[true, true]))
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    #[test]
    fn sparse_device_without_events_is_uncoverable() {
        let ti = SimDuration::from_ms(100);
        let events = vec![vec![ms(5)], vec![]];
        assert_eq!(
            WindowCover::new(ti).solve(ms(0), &PoTimeline::from_events(&events, &[false, false])),
            None
        );
    }

    #[test]
    fn empty_problem_is_trivially_covered() {
        let slots = WindowCover::new(SimDuration::from_ms(10))
            .solve(ms(0), &PoTimeline::from_events(&[], &[]))
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
            .solve(
                ms(0),
                &PoTimeline::from_events(&events, &[false, false, false]),
            )
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].window_start, ms(1000));
        // Tie case: two windows covering 1 device each, earliest wins.
        let events2 = vec![vec![ms(100), ms(900)]];
        let slots2 = WindowCover::new(ti)
            .solve(ms(0), &PoTimeline::from_events(&events2, &[false]))
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
        let slots = WindowCover::new(ti)
            .solve(ms(0), &PoTimeline::from_events(&events, &dense))
            .unwrap();
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
        // pinned both ways (and the crossover-dispatched default). Two
        // shapes: (LCG seed, trials, max devices, TI span, max POs per
        // device, PO span in ms, one dense device in).
        for (seed, trials, max_n, ti_span, max_pos, span, dense_one_in) in [
            (0x9E37_79B9_u64, 40, 30, 500, 5, 5_000, 4),
            (0x1234_5678, 30, 40, 400, 4, 4_000, 5),
        ] {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for trial in 0..trials {
                let n = 1 + (next() % max_n) as usize;
                let ti = SimDuration::from_ms(50 + next() % ti_span);
                let events: Vec<Vec<SimInstant>> = (0..n)
                    .map(|_| {
                        let mut v: Vec<SimInstant> = (0..1 + next() % max_pos)
                            .map(|_| ms(next() % span))
                            .collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let dense: Vec<bool> = (0..n).map(|_| next() % dense_one_in == 0).collect();
                let solver = WindowCover::new(ti);
                let oracle = reference::window_cover_solve(ti, ms(0), &events, &dense);
                assert_eq!(
                    solver.solve_incremental(ms(0), &PoTimeline::from_events(&events, &dense)),
                    oracle,
                    "incremental, seed {seed:#x} trial {trial}"
                );
                assert_eq!(
                    solver.solve_sweep(ms(0), &PoTimeline::from_events(&events, &dense)),
                    oracle,
                    "sweep, seed {seed:#x} trial {trial}"
                );
                assert_eq!(
                    solver.solve(ms(0), &PoTimeline::from_events(&events, &dense)),
                    oracle,
                    "seed {seed:#x} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn timeline_merges_identical_lists_into_weighted_classes() {
        let events = vec![
            vec![ms(50), ms(500)],
            vec![ms(10)],
            vec![ms(50), ms(500)],
            vec![ms(20)],
            vec![ms(10)],
            vec![],
            vec![ms(20)],
        ];
        let dense = [false, true, false, false, true, false, false];
        let timeline = PoTimeline::from_events(&events, &dense);
        assert_eq!((timeline.devices(), timeline.classes()), (7, 4));
        assert_eq!(timeline.sparse_classes(), 3);
        let class_of: Vec<usize> = (0..7).map(|d| timeline.class_of(d)).collect();
        assert_eq!(class_of, vec![0, 3, 0, 1, 3, 2, 1]);
        let members: Vec<&[u32]> = (0..4).map(|c| timeline.members(c)).collect();
        assert_eq!(members, vec![&[0, 2][..], &[3, 6], &[5], &[1, 4]]);
        let weights: Vec<u32> = (0..4).map(|c| timeline.multiplicity(c)).collect();
        assert_eq!(weights, vec![2, 2, 1, 2]);
        assert_eq!(timeline.dense_devices(), &[1, 4]);
        assert_eq!(timeline.events(), &[(ms(20), 1), (ms(50), 0), (ms(500), 0)]);
        assert_eq!(timeline.device_events(), 6);
        // Device 5 is sparse without a PO: no window reaches it.
        assert_eq!(timeline.first_unreachable(), Some(5));
        let solver = WindowCover::new(SimDuration::from_ms(100));
        assert_eq!(solver.solve(ms(0), &timeline), None);
    }

    #[test]
    fn incremental_engine_handles_repeated_pos_within_one_window() {
        // Device 0 has two POs inside the same window; the distinct-gain
        // bookkeeping must count it once (merged instant ranges) and the
        // instants left without an uncovered PO must not resurface in
        // later rounds.
        let ti = SimDuration::from_ms(100);
        let events = vec![
            vec![ms(10), ms(60)],            // twice in the first window
            vec![ms(40)],                    // shares that window
            vec![ms(500), ms(520), ms(540)], // its own later window
        ];
        let dense = [false, false, false];
        let solver = WindowCover::new(ti);
        let oracle = reference::window_cover_solve(ti, ms(0), &events, &dense);
        assert_eq!(
            solver.solve_incremental(ms(0), &PoTimeline::from_events(&events, &dense)),
            oracle
        );
        let slots = oracle.unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].covered, vec![0, 1]);
    }

    /// Every window engine on `events` (all sparse), checked against the
    /// reference oracle; returns the slots as `(window_start, covered)`.
    fn all_engines_agree(ti: SimDuration, events: &[Vec<SimInstant>]) -> Vec<(u64, Vec<usize>)> {
        let dense = vec![false; events.len()];
        let solver = WindowCover::new(ti);
        let oracle = reference::window_cover_solve(ti, ms(0), events, &dense);
        assert_eq!(
            solver.solve_incremental(ms(0), &PoTimeline::from_events(events, &dense)),
            oracle
        );
        assert_eq!(
            solver.solve_sweep(ms(0), &PoTimeline::from_events(events, &dense)),
            oracle
        );
        assert_eq!(
            solver.solve(ms(0), &PoTimeline::from_events(events, &dense)),
            oracle
        );
        oracle
            .expect("coverable")
            .into_iter()
            .map(|slot| (slot.window_start.as_ms(), slot.covered))
            .collect()
    }

    #[test]
    fn instant_with_covered_first_device_stays_a_candidate() {
        // Instant 100 holds devices 0, 1 and 2, in that order. Round one
        // opens instant 0 and covers device 0, the first PO at 100. The
        // instant keeps its uncovered devices 1 and 2 (which have no other
        // PO) and its gain drops to exactly 2: below the 3 devices at
        // 300, so 300 opens before it.
        let ti = SimDuration::from_ms(10);
        let events = vec![
            vec![ms(0), ms(100)],
            vec![ms(100)],
            vec![ms(100)],
            vec![ms(0)],
            vec![ms(0)],
            vec![ms(5)],
            vec![ms(300)],
            vec![ms(300)],
            vec![ms(300)],
        ];
        assert_eq!(
            all_engines_agree(ti, &events),
            vec![
                (0, vec![0, 3, 4, 5]),
                (300, vec![6, 7, 8]),
                (100, vec![1, 2]),
            ]
        );
    }

    #[test]
    fn covered_instant_loses_gain_ties_to_the_next_live_instant() {
        // Round one opens instant 0 and covers device 0, the only PO at
        // instant 100. Instant 100's window still sees devices 3 and 4 at
        // 105, so it ties on gain with instant 105, but it holds no
        // uncovered PO any more: the greedy opens 105, as the re-sweep
        // over the surviving POs does.
        let ti = SimDuration::from_ms(10);
        let events = vec![
            vec![ms(0), ms(100)],
            vec![ms(0)],
            vec![ms(5)],
            vec![ms(105)],
            vec![ms(105)],
        ];
        assert_eq!(
            all_engines_agree(ti, &events),
            vec![(0, vec![0, 1, 2]), (105, vec![3, 4])]
        );
    }

    #[test]
    #[should_panic(expected = "positive TI")]
    fn zero_ti_is_rejected() {
        WindowCover::new(SimDuration::ZERO);
    }

    #[test]
    fn incremental_engine_all_dense_and_empty_inputs() {
        let ti = SimDuration::from_ms(100);
        // Empty instance.
        assert_eq!(
            WindowCover::new(ti).solve_incremental(ms(0), &PoTimeline::from_events(&[], &[])),
            Some(vec![])
        );
        // All devices dense: one synthetic window at the horizon start.
        let events = vec![vec![ms(5)], vec![ms(20)]];
        let slots = WindowCover::new(ti)
            .solve_incremental(ms(0), &PoTimeline::from_events(&events, &[true, true]))
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].window_start, ms(0));
        // Sparse device without events stays uncoverable.
        assert_eq!(
            WindowCover::new(ti)
                .solve_incremental(ms(0), &PoTimeline::from_events(&[vec![]], &[false])),
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
        // round's pick — including tie rounds — must coincide with the
        // count greedy's.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..50 {
            let (n, sets, _) = random_weighted_instance(&mut next, trial);
            let unit = vec![1u32; sets.len()];
            assert_eq!(
                greedy_set_cover_weighted(n, &sets, &unit),
                reference::greedy_set_cover(n, &sets),
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
        for trial in 0..50 {
            let (n, sets, costs) = random_weighted_instance(&mut next, trial);
            assert_eq!(
                greedy_set_cover_weighted(n, &sets, &costs),
                reference::greedy_set_cover_weighted(n, &sets, &costs),
                "trial {trial}: n={n} sets={sets:?} costs={costs:?}"
            );
        }
        // One instance far larger than the random ones.
        let (n, sets) = large_instance(0x5EED);
        let costs: Vec<u32> = (0..sets.len()).map(|i| 1 + (i % 32) as u32).collect();
        let expect = reference::greedy_set_cover_weighted(n, &sets, &costs);
        assert!(expect.is_some());
        assert_eq!(greedy_set_cover_weighted(n, &sets, &costs), expect);
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
        let picks = greedy_set_cover_weighted(n, &sets, &costs).unwrap();
        assert_eq!(picks, (0..n).collect::<Vec<_>>());
        // Scaled pairs: {2k, 2k+1} at cost 14 ties the singletons exactly
        // ((2<<32)/14 == (1<<32)/7) but sits at a higher index, so the
        // pair never wins a round and the pick order is unchanged.
        for k in 0..n / 2 {
            sets.push(vec![2 * k, 2 * k + 1]);
            costs.push(14);
        }
        let stormed = greedy_set_cover_weighted(n, &sets, &costs).unwrap();
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
        assert_eq!(greedy_set_cover(3, &sets), Some(vec![0]));
        assert_eq!(
            greedy_set_cover_weighted(3, &sets, &costs),
            Some(vec![1, 2])
        );
    }

    #[test]
    fn weighted_uncoverable_and_empty_edges() {
        assert_eq!(greedy_set_cover_weighted(2, &[vec![0]], &[3]), None);
        assert_eq!(greedy_set_cover_weighted(0, &[], &[]), Some(vec![]));
        // Empty sets never enter the heap whatever their cost.
        assert_eq!(
            greedy_set_cover_weighted(1, &[vec![], vec![0]], &[1, 9]),
            Some(vec![1])
        );
        let small = vec![vec![0, 1, 2], vec![0, 1, 2, 3], vec![], vec![4]];
        assert_eq!(
            greedy_set_cover_weighted(5, &small, &[1; 4]),
            Some(vec![1, 3])
        );
    }

    #[test]
    fn solve_weighted_matches_reference_oracle() {
        // Random dense/sparse mixtures with per-device weights (window
        // cost = heaviest member, the DR-SC airtime shape) AND with unit
        // costs, both compared slot-for-slot against the rescan oracle.
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
            let instance = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &dense));
            assert_eq!(
                solver.solve_weighted(ms(0), &instance, airtime),
                reference::window_cover_weighted(ti, ms(0), &events, &dense, airtime),
                "weighted, trial {trial}"
            );
            assert_eq!(
                solver.solve_weighted(ms(0), &instance, |_| 1),
                reference::window_cover_weighted(ti, ms(0), &events, &dense, |_| 1),
                "unit-cost, trial {trial}"
            );
        }
        // Edge parity with `solve`: empty instance, all-dense synthesis,
        // uncoverable sparse device (none of these involve anchor ties).
        let ti = SimDuration::from_ms(100);
        let solver = WindowCover::new(ti);
        let empty = AnchorInstance::new(ti, &PoTimeline::from_events(&[], &[]));
        assert_eq!(solver.solve_weighted(ms(0), &empty, |_| 1), Some(vec![]));
        let events = vec![vec![ms(5)], vec![ms(20)]];
        let all_dense = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &[true, true]));
        assert_eq!(
            solver.solve_weighted(ms(0), &all_dense, |_| 1),
            solver.solve(ms(0), &PoTimeline::from_events(&events, &[true, true]))
        );
        let no_po = AnchorInstance::new(ti, &PoTimeline::from_events(&[vec![]], &[false]));
        assert_eq!(solver.solve_weighted(ms(0), &no_po, |_| 1), None);
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
        let unweighted = solver
            .solve(ms(0), &PoTimeline::from_events(&events, &dense))
            .unwrap();
        let instance = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &dense));
        let weighted = solver.solve_weighted(ms(0), &instance, cost).unwrap();
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
        let instance = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &dense));
        assert_eq!(instance.sparse_devices(), &[0, 1, 3]);
        assert_eq!(instance.dense_devices().collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            instance.anchors(),
            &[ms(0), ms(50), ms(500), ms(1000), ms(1050), ms(1500)]
        );
        let windows: Vec<&[u32]> = (0..instance.window_count())
            .map(|w| instance.window(w))
            .collect();
        assert_eq!(windows, vec![&[0, 1][..], &[1], &[2]]);
        let runs: Vec<&[(u32, u32)]> = (0..3).map(|s| instance.window_runs(s)).collect();
        assert_eq!(runs, vec![&[(0, 1)][..], &[(0, 2)], &[(2, 3)]]);
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
        let instance = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &[false; 4]));
        assert_eq!(instance.anchors(), &[ms(700)]);
        assert_eq!(instance.window_count(), 1);
        assert_eq!(instance.window(0), &[0, 1, 2, 3]);
        assert_eq!(instance.anchor_entries(), instance.entries());
        // Empty and all-dense inputs build an empty instance.
        for (events, dense) in [(vec![], vec![]), (vec![vec![ms(5)]], vec![true])] {
            let empty = AnchorInstance::new(ti, &PoTimeline::from_events(&events, &dense));
            assert!(empty.anchors().is_empty() && empty.window_count() == 0);
            assert_eq!(empty.dense_devices().count(), events.len());
        }
    }

    #[test]
    fn set_index_runs_are_maximal_and_expand_to_each_elements_sets() {
        // (case, universe, sets, expected runs per element).
        type Runs = Vec<Vec<(u32, u32)>>;
        let cases: Vec<(&str, usize, Vec<Vec<usize>>, Runs)> = vec![
            (
                "an element of set 0 opens its own run",
                2,
                vec![vec![0], vec![1], vec![0]],
                vec![vec![(0, 1), (2, 3)], vec![(1, 2)]],
            ),
            (
                "an element in every set is one run",
                2,
                vec![vec![0, 1], vec![0], vec![1, 0]],
                vec![vec![(0, 3)], vec![(0, 1), (2, 3)]],
            ),
            (
                "back-to-back equal sets extend one run",
                3,
                vec![vec![2, 0], vec![0, 2], vec![0, 2], vec![1]],
                vec![vec![(0, 3)], vec![(3, 4)], vec![(0, 3)]],
            ),
            (
                "gaps between an element's sets close its runs",
                1,
                vec![vec![0], vec![], vec![0], vec![0], vec![], vec![], vec![0]],
                vec![vec![(0, 1), (2, 4), (6, 7)]],
            ),
            (
                "an element in no set has no runs",
                3,
                vec![vec![0], vec![2, 0]],
                vec![vec![(0, 2)], vec![], vec![(1, 2)]],
            ),
            (
                "empty sets and a repeated element",
                2,
                vec![vec![], vec![1, 1], vec![], vec![]],
                vec![vec![], vec![(1, 2)]],
            ),
            ("no sets at all", 2, vec![], vec![vec![], vec![]]),
        ];
        for (case, universe, sets, expected) in cases {
            let index = SetIndex::new(universe, &sets);
            assert_eq!(index.elements(), universe, "{case}");
            for (e, want) in expected.iter().enumerate() {
                let runs = index.runs_of(e);
                assert_eq!(runs, &want[..], "{case}: element {e}");
                assert!(runs.iter().all(|r| r.0 < r.1), "{case}: empty run");
                assert!(
                    runs.windows(2).all(|p| p[0].1 < p[1].0),
                    "{case}: runs of {e} not ascending and maximal"
                );
                let expanded: Vec<usize> = runs
                    .iter()
                    .flat_map(|&(start, end)| start as usize..end as usize)
                    .collect();
                let holding: Vec<usize> =
                    (0..sets.len()).filter(|&i| sets[i].contains(&e)).collect();
                assert_eq!(expanded, holding, "{case}: element {e}");
            }
        }
    }
}
