//! DR-SC: DRX Respecting, Standards Compliant (paper Sec. III-A).

use rand::RngCore;

use nbiot_phy::{CoverageClass, NpdschConfig};
use nbiot_time::{SimDuration, SimInstant, TimeWindow};

use crate::improve::ImprovementStats;
use crate::set_cover::{AnchorInstance, CoverSlot, WindowCover};
use crate::{
    DevicePlan, GroupingError, GroupingInput, GroupingMechanism, MulticastPlan, PageDirective,
    Transmission,
};

/// FNV-1a over the anchor-window set-cover instance: the sparse device
/// count, then each window's size and members. [`DrScTabu`] seeds the
/// tabu search from the instance rather than the caller's RNG so every
/// budget rung of the anytime ladder replays the same iteration sequence —
/// the guarantee behind budget-monotone cover cost.
fn instance_seed(instance: &AnchorInstance) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = (h ^ instance.sparse_devices().len() as u64).wrapping_mul(PRIME);
    for w in 0..instance.window_count() {
        let members = instance.window(w);
        h = (h ^ members.len() as u64).wrapping_mul(PRIME);
        for &s in members {
            h = (h ^ u64::from(s)).wrapping_mul(PRIME);
        }
    }
    h
}

/// The DR-SC mechanism: respect every device's DRX cycle and cover the
/// group with (usually several) multicast transmissions chosen by greedy
/// set cover over the paging-occasion timeline.
///
/// The cover is solved by [`WindowCover`] over the input's PO timeline
/// of schedule classes (devices with equal paging schedules, covered
/// together), which dispatches between incremental gain maintenance and
/// a per-round re-sweep by measured window occupancy (both
/// slot-identical; see `docs/KERNELS.md`) — this planning step dominates
/// DR-SC's cost at `large-n-stress` scale. The input memoizes the cover,
/// so [`DrScTabu`] and [`DrScWeighted`] planned on the same input start
/// from it without solving it again.
///
/// Devices spend no more energy than under normal operation (aside from
/// the reception itself); the price is bandwidth — the number of
/// transmissions reported in the paper's Fig. 7.
///
/// The search horizon is `[start, start + 2·maxDRX)`: because every
/// standard cycle is a power-of-two number of frames with a common origin,
/// the joint PO pattern repeats with period `maxDRX`, so (per the paper)
/// nothing new appears after twice the largest cycle.
///
/// Each transmission is scheduled `guard` after the *last* covered paging
/// occasion of its window rather than at the full window end: the window
/// end is only an upper bound (the first covered device's inactivity
/// timer), so transmitting as soon as the last covered device has been
/// paged (plus a guard for its random access) trims needless waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrSc {
    /// Delay between the last covered PO and the transmission, covering
    /// the random-access exchange of the last-paged device.
    pub guard: SimDuration,
}

impl Default for DrSc {
    fn default() -> Self {
        DrSc {
            guard: SimDuration::from_secs(1),
        }
    }
}

impl DrSc {
    /// Creates the mechanism with the default 1 s guard.
    pub fn new() -> DrSc {
        DrSc::default()
    }
}

impl GroupingMechanism for DrSc {
    fn name(&self) -> String {
        "DR-SC".to_string()
    }

    fn is_standards_compliant(&self) -> bool {
        true
    }

    fn plan(
        &self,
        input: &GroupingInput,
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        // The cover spans sparse devices' POs (cycle > TI); devices with
        // cycle <= TI ("dense") have a PO in every window and ride the
        // first transmission.
        Ok(plan_from_slots(
            input,
            input.count_cover()?,
            self.guard,
            self.name(),
        ))
    }
}

/// Schedules one solved slot whose `covered` lists input positions: every
/// member is paged at its own first PO inside the slot's window, and the
/// slot transmits `guard` after the last of those pages, capped at the
/// window end (which preserves the first-paged device's inactivity
/// timer). Fills each member's entry of `device_plans` and returns the
/// transmission. Every DR-SC-family plan and the repair's fresh windows
/// are scheduled here.
pub(crate) fn slot_transmission(
    input: &GroupingInput,
    slot: &CoverSlot,
    guard: SimDuration,
    device_plans: &mut [Option<DevicePlan>],
) -> Transmission {
    let pages: Vec<SimInstant> = slot
        .covered
        .iter()
        .map(|&idx| input.schedules()[idx].first_po_at_or_after(slot.window_start))
        .collect();
    let last_po = pages.iter().copied().max().expect("non-empty slot");
    let transmit_at = (last_po + guard).min(slot.transmit_at);
    for (&idx, &po) in slot.covered.iter().zip(&pages) {
        debug_assert!(po < transmit_at);
        device_plans[idx] = Some(DevicePlan {
            device: input.ids()[idx],
            page: Some(PageDirective { po }),
            mltc: None,
            adaptation: None,
            connect_at: Some(po),
            receives_at: transmit_at,
        });
    }
    Transmission {
        at: transmit_at,
        recipients: slot.covered.iter().map(|&idx| input.ids()[idx]).collect(),
    }
}

/// Builds the DR-SC-family plan from a solved cover: each slot is
/// scheduled by [`slot_transmission`], and transmissions are emitted in
/// time order. Shared by [`DrSc`], [`DrScWeighted`] and [`DrScTabu`], so
/// the variants differ from plain DR-SC *only* in which windows carry
/// which devices.
fn plan_from_slots(
    input: &GroupingInput,
    slots: &[CoverSlot],
    guard: SimDuration,
    mechanism: String,
) -> MulticastPlan {
    let params = input.params();
    let horizon = input.search_horizon();
    let mut device_plans: Vec<Option<DevicePlan>> = vec![None; input.len()];
    let mut transmissions: Vec<Transmission> = slots
        .iter()
        .map(|slot| slot_transmission(input, slot, guard, &mut device_plans))
        .collect();
    transmissions.sort_by_key(|t| t.at);
    let device_plans: Vec<DevicePlan> = device_plans
        .into_iter()
        .map(|p| p.expect("cover reaches every device"))
        .collect();
    let end = transmissions.last().map(|t| t.at).unwrap_or(horizon.end());
    MulticastPlan {
        mechanism,
        standards_compliant: true,
        requires_connection: true,
        transmissions,
        device_plans,
        horizon: TimeWindow::new(params.start, end.max(horizon.end())),
        control_monitoring: None,
        improvement: None,
    }
}

/// Airtime refinement pass: folds a whole slot into another picked window
/// whenever every member of the donor slot also has a paging occasion
/// strictly inside the recipient's window. Greedy cover can leave such
/// redundancies behind (a device assigned to an early high-gain window may
/// have a later PO inside a window picked afterwards). Each fold deletes
/// one transmission and can only reduce the plan's block airtime: the
/// merged window is priced at the *deeper* of the two member sets, so the
/// cheaper window's block is saved in full.
fn fold_redundant_slots(input: &GroupingInput, slots: &mut Vec<CoverSlot>) {
    let schedules = input.schedules();
    let mut i = 0;
    while i < slots.len() {
        let mut folded = false;
        for j in 0..slots.len() {
            if i == j {
                continue;
            }
            let (start, end) = (slots[j].window_start, slots[j].transmit_at);
            // Strict `< end` keeps the page before the transmission even
            // when the folded member becomes the window's last page.
            let fits = slots[i]
                .covered
                .iter()
                .all(|&d| schedules[d].first_po_at_or_after(start) < end);
            if fits {
                let donor = slots.remove(i);
                let j = if j > i { j - 1 } else { j };
                slots[j].covered.extend(donor.covered);
                slots[j].covered.sort_unstable();
                folded = true;
                break;
            }
        }
        if !folded {
            i += 1;
        }
    }
}

/// Airtime-weighted DR-SC: the cover kernel picks windows by
/// newly-covered devices **per subframe of airtime** instead of per
/// transmission.
///
/// Every candidate anchor window is priced at the NPDSCH block airtime of
/// its *deepest-coverage* member ([`NpdschConfig::block_airtime_subframes`]
/// with that member's [`CoverageClass`]): a CE2 member forces 32
/// repetitions on the whole transmission, so a window that avoids deep
/// devices is up to ~20x cheaper per block. On homogeneous populations
/// (every device CE0) all windows cost the same and the pick sequence is
/// bit-identical to [`DrSc`]'s cover kernel on the anchor instance; the
/// mechanism only diverges — and starts saving airtime — on heterogeneous
/// coverage mixes such as `heterogeneous-coverage`.
///
/// Because a window is priced at its *deepest* member, bundling shallow
/// devices into an already-deep window is free, and on some instances the
/// plain count-greedy cover exploits that better than ratio-greedy does
/// (ratio-greedy splits covers into extra cheap windows whose base cost
/// adds up). The mechanism therefore weighs **both** covers. It solves
/// the weighted cover on the input's memoized
/// [`AnchorInstance`](crate::set_cover::AnchorInstance) and folds
/// redundant slots out of it (a whole slot moves into another picked
/// window holding a PO of each of its devices). The count cover is the
/// input's memo, the one [`DrSc`] plans from, read in place: no greedy
/// count slot can fold into another (`docs/KERNELS.md`, "Shared DR-SC
/// planning state"). It prices each cover by its transmissions'
/// deepest-recipient airtime and keeps the cheaper one — so it is never
/// worse than [`DrSc`] on total airtime, by construction (ties keep the
/// weighted cover).
///
/// Everything downstream of window choice (paging directives, guard
/// timing, transmission ordering) is byte-for-byte the DR-SC logic, and
/// the mechanism stays standards-compliant: it is still plain paging
/// plus in-window multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrScWeighted {
    /// Delay between the last covered PO and the transmission (same role
    /// as [`DrSc::guard`]).
    pub guard: SimDuration,
    /// The NPDSCH scheduling shape whose per-class block airtime prices
    /// the windows. Only `coverage` is varied per window; the MCS and gap
    /// fields come from this base config.
    pub npdsch: NpdschConfig,
}

impl Default for DrScWeighted {
    fn default() -> Self {
        DrScWeighted {
            guard: DrSc::default().guard,
            npdsch: NpdschConfig::default(),
        }
    }
}

impl DrScWeighted {
    /// Creates the mechanism with the default 1 s guard and default
    /// NPDSCH shape.
    pub fn new() -> DrScWeighted {
        DrScWeighted::default()
    }

    /// Block airtime (in subframes) per coverage class under the base
    /// NPDSCH shape, indexed by `CoverageClass as usize`.
    fn airtime_table(&self) -> [u32; 3] {
        let mut table = [0u32; 3];
        for c in CoverageClass::ALL {
            let cfg = NpdschConfig {
                coverage: c,
                ..self.npdsch
            };
            table[c as usize] = u32::try_from(cfg.block_airtime_subframes())
                .expect("block airtime fits u32 for any standard shape");
        }
        table
    }

    /// Prices a finished cover: each slot costs one block at the deepest
    /// coverage class among its *newly covered* devices (the slot's
    /// actual recipients), which is what the transmission will pay.
    fn cover_airtime(&self, slots: &[CoverSlot], coverages: &[CoverageClass]) -> u64 {
        let table = self.airtime_table();
        slots
            .iter()
            .map(|slot| {
                let deepest = slot
                    .covered
                    .iter()
                    .map(|&d| coverages[d])
                    .max()
                    .unwrap_or_default();
                u64::from(table[deepest as usize])
            })
            .sum()
    }
}

impl GroupingMechanism for DrScWeighted {
    fn name(&self) -> String {
        "DR-SC-weighted".to_string()
    }

    fn is_standards_compliant(&self) -> bool {
        true
    }

    fn plan(
        &self,
        input: &GroupingInput,
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        let ti = input.params().ti.duration();
        let horizon = input.search_horizon();
        // The count cover fails exactly when the weighted one does: some
        // sparse device has no PO, so it lies in no window.
        let counted = input.count_cover()?;
        let instance = input.anchor_instance();
        let table = self.airtime_table();
        let coverages = input.coverages();
        let window_cost = |members: &[usize]| {
            let deepest = members
                .iter()
                .map(|&d| coverages[d])
                .max()
                .unwrap_or_default();
            table[deepest as usize]
        };
        let mut weighted = WindowCover::new(ti)
            .solve_weighted(horizon.start(), instance, window_cost)
            .expect("the weighted cover is feasible whenever the count cover is");
        fold_redundant_slots(input, &mut weighted);
        // Keep whichever cover transmits cheaper; ties keep the weighted
        // one (it optimized for exactly this objective).
        let slots =
            if self.cover_airtime(counted, coverages) < self.cover_airtime(&weighted, coverages) {
                counted
            } else {
                &weighted
            };
        Ok(plan_from_slots(input, slots, self.guard, self.name()))
    }
}

/// Default improvement budget for `DR-SC-tabu` when none is given (the
/// `MechanismKind::ALL` entry and `by_name("dr-sc-tabu")`).
pub const DEFAULT_TABU_BUDGET: u32 = 64;

/// DR-SC with an anytime tabu-improvement pass over the greedy cover.
///
/// Planning starts from [`DrSc`]'s greedy [`WindowCover`] cover, then
/// spends `budget` destroy-and-repair iterations of [`crate::improve`]
/// trying to shrink the window set — fewer windows means fewer
/// transmissions, the paper's Fig. 7 bandwidth cost. The improvement
/// search works on the [`AnchorInstance`](crate::set_cover::AnchorInstance)
/// — every distinct member set of a `TI` window anchored at a sparse PO,
/// stored once — which is a strictly richer neighborhood than the greedy
/// solver's newly-covered slots. Because each set appears once, tabu
/// tenure bans a window's *content*, not one of its copies. The start
/// cover and the instance are both the input's memos, shared with
/// [`DrSc`] and [`DrScWeighted`] planned on the same input. Each greedy
/// slot maps to its window; the rebuilt plan keeps retained greedy
/// windows at their own anchors and opens windows the search introduced
/// at their lowest anchor, so a run that finds no strictly smaller cover
/// reproduces the greedy windows exactly.
///
/// `budget == 0` delegates to [`DrSc`] and relabels: the plan content is
/// bit-identical to plain DR-SC (locked by proptest). With `budget > 0`
/// the plan carries [`ImprovementStats`] in
/// [`MulticastPlan::improvement`], and quality is monotone non-increasing
/// in the budget for a fixed input (the anytime contract — see
/// `docs/KERNELS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrScTabu {
    /// Delay between the last covered PO and the transmission (same role
    /// as [`DrSc::guard`]).
    pub guard: SimDuration,
    /// Maximum improvement iterations (deterministic move count, no
    /// wall-clock anywhere).
    pub budget: u32,
}

impl Default for DrScTabu {
    fn default() -> Self {
        DrScTabu::new(DEFAULT_TABU_BUDGET)
    }
}

impl DrScTabu {
    /// Creates the mechanism with the default 1 s guard and the given
    /// improvement budget.
    pub fn new(budget: u32) -> DrScTabu {
        DrScTabu {
            guard: DrSc::default().guard,
            budget,
        }
    }

    /// Relabels a greedy plan as this mechanism's output with zero-work
    /// improvement stats (the `budget == 0` / nothing-to-improve path).
    fn relabel(&self, mut plan: MulticastPlan, budget_spent: u32) -> MulticastPlan {
        let cost = plan.transmission_count() as u32;
        plan.mechanism = self.name();
        plan.improvement = Some(ImprovementStats {
            initial_cost: cost,
            final_cost: cost,
            moves_accepted: 0,
            budget_spent,
        });
        plan
    }
}

impl GroupingMechanism for DrScTabu {
    fn name(&self) -> String {
        format!("DR-SC-tabu({})", self.budget)
    }

    fn is_standards_compliant(&self) -> bool {
        true
    }

    fn plan(
        &self,
        input: &GroupingInput,
        rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        let greedy = DrSc { guard: self.guard };
        if self.budget == 0 {
            return Ok(self.relabel(greedy.plan(input, rng)?, 0));
        }
        let ti = input.params().ti.duration();
        let instance = input.anchor_instance();
        if instance.sparse_devices().is_empty() {
            // All-dense groups are a single window already — optimal.
            return Ok(self.relabel(greedy.plan(input, rng)?, 0));
        }
        let slots = input.count_cover()?;

        // The greedy slots are the initial solution: each slot is anchored
        // at a sparse PO, so it opens one of the instance's windows (never
        // the same one twice — a second copy would cover nothing new).
        let greedy_anchors: Vec<usize> = slots
            .iter()
            .map(|s| {
                instance
                    .anchor_index(s.window_start)
                    .expect("greedy slots anchor at sparse POs")
            })
            .collect();
        let picks: Vec<usize> = greedy_anchors
            .iter()
            .map(|&a| instance.window_of(a))
            .collect();
        // Every rung of the anytime budget ladder must share one seed so a
        // larger budget replays a smaller budget's iteration sequence as a
        // prefix (best-found cover cost monotone non-increasing in budget).
        // Mechanisms draw from independent RNG streams, so the seed comes
        // from the set-cover instance itself, not from `rng`.
        let (best, stats) = instance.improve_cover(&picks, self.budget, instance_seed(instance));

        // Rebuild the plan: a retained greedy pick keeps its own anchor, a
        // window the search introduced opens at its lowest anchor, and
        // windows run in anchor order. Each sparse device rides the
        // earliest window holding a PO of its own; dense devices ride the
        // first transmission, as in DR-SC.
        let mut anchor_of = instance.lowest_anchors().to_vec();
        for (&w, &a) in picks.iter().zip(&greedy_anchors) {
            anchor_of[w] = a as u32;
        }
        let mut chosen: Vec<(u32, usize)> = best.iter().map(|&w| (anchor_of[w], w)).collect();
        chosen.sort_unstable();
        let sparse = instance.sparse_devices();
        let mut assigned = vec![false; sparse.len()];
        let mut slots: Vec<CoverSlot> = Vec::with_capacity(chosen.len());
        for (a, w) in chosen {
            let mut covered = Vec::new();
            for &s in instance.window(w) {
                let s = s as usize;
                if !assigned[s] {
                    assigned[s] = true;
                    covered.push(sparse[s]);
                }
            }
            if !covered.is_empty() {
                covered.sort_unstable();
                let window_start = instance.anchors()[a as usize];
                slots.push(CoverSlot {
                    window_start,
                    transmit_at: window_start + ti,
                    covered,
                });
            }
        }
        debug_assert!(assigned.iter().all(|&c| c), "improved cover is complete");
        let first = &mut slots
            .first_mut()
            .expect("some sparse device rides a window")
            .covered;
        first.extend(instance.dense_devices());
        first.sort_unstable();
        let mut plan = plan_from_slots(input, &slots, self.guard, self.name());
        plan.improvement = Some(stats);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupingParams;
    use nbiot_time::{DrxCycle, EdrxCycle, PagingCycle, SimDuration};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(mix: TrafficMix, n: usize, seed: u64) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    #[test]
    fn plan_is_valid_for_city_mix() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 120, 3);
        plan.validate(&input).unwrap();
    }

    #[test]
    fn short_drx_group_needs_one_transmission() {
        // Every cycle <= TI: a single window covers everyone.
        let (input, plan) = plan_for(TrafficMix::short_drx(), 60, 4);
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1);
    }

    #[test]
    fn long_uniform_cycles_need_many_transmissions() {
        // 2621 s cycles with TI = 20 s: windows rarely share devices.
        let (input, plan) = plan_for(
            TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf256)),
            30,
            5,
        );
        plan.validate(&input).unwrap();
        assert!(
            plan.transmission_count() > 5,
            "{} transmissions",
            plan.transmission_count()
        );
    }

    #[test]
    fn transmissions_fall_within_extended_horizon() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 80, 6);
        let limit = input.search_horizon().end() + input.params().ti.duration();
        for tx in &plan.transmissions {
            assert!(tx.at <= limit);
        }
    }

    #[test]
    fn devices_are_paged_at_own_pos() {
        let (input, plan) = plan_for(TrafficMix::ericsson_city(), 50, 7);
        for (dp, sched) in plan.device_plans.iter().zip(input.schedules()) {
            let po = dp.page.expect("DR-SC pages every device").po;
            // The PO must be one of the device's actual paging occasions.
            assert_eq!(sched.first_po_at_or_after(po), po);
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let (_, a) = plan_for(TrafficMix::ericsson_city(), 70, 8);
        let (_, b) = plan_for(TrafficMix::ericsson_city(), 70, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_transmissions_than_devices_at_scale() {
        // The Fig. 7 economy: grouping beats unicast (N transmissions).
        let (_, plan) = plan_for(TrafficMix::ericsson_city(), 300, 9);
        assert!(plan.transmission_count() < 300);
    }

    #[test]
    fn larger_ti_reduces_transmissions() {
        let mut rng = StdRng::seed_from_u64(10);
        let pop = TrafficMix::ericsson_city().generate(150, &mut rng).unwrap();
        let mut counts = Vec::new();
        for ti_s in [10u64, 40] {
            let params = GroupingParams {
                ti: nbiot_rrc::InactivityTimer::new(SimDuration::from_secs(ti_s)),
                ..GroupingParams::default()
            };
            let input = GroupingInput::from_population(&pop, params).unwrap();
            let plan = DrSc::new().plan(&input, &mut rng).unwrap();
            plan.validate(&input).unwrap();
            counts.push(plan.transmission_count());
        }
        assert!(counts[1] <= counts[0], "{counts:?}");
    }

    fn tabu_plan_for(
        mix: TrafficMix,
        n: usize,
        seed: u64,
        budget: u32,
    ) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrScTabu::new(budget).plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    #[test]
    fn tabu_budget_zero_matches_greedy_content() {
        let (_, greedy) = plan_for(TrafficMix::ericsson_city(), 120, 3);
        let (input, tabu) = tabu_plan_for(TrafficMix::ericsson_city(), 120, 3, 0);
        tabu.validate(&input).unwrap();
        assert_eq!(tabu.mechanism, "DR-SC-tabu(0)");
        assert_eq!(tabu.transmissions, greedy.transmissions);
        assert_eq!(tabu.device_plans, greedy.device_plans);
        assert_eq!(tabu.horizon, greedy.horizon);
        let stats = tabu.improvement.unwrap();
        assert_eq!(stats.initial_cost, stats.final_cost);
        assert_eq!(stats.moves_accepted, 0);
    }

    #[test]
    fn tabu_plan_is_valid_and_never_worse() {
        for seed in [3u64, 5, 9] {
            let (_, greedy) = plan_for(TrafficMix::ericsson_city(), 150, seed);
            let (input, tabu) = tabu_plan_for(TrafficMix::ericsson_city(), 150, seed, 64);
            tabu.validate(&input).unwrap();
            assert!(tabu.transmission_count() <= greedy.transmission_count());
            let stats = tabu.improvement.unwrap();
            assert!(stats.final_cost <= stats.initial_cost);
            assert_eq!(stats.initial_cost as usize, greedy.transmission_count());
        }
    }

    #[test]
    fn tabu_is_deterministic() {
        let (_, a) = tabu_plan_for(TrafficMix::ericsson_city(), 90, 8, 32);
        let (_, b) = tabu_plan_for(TrafficMix::ericsson_city(), 90, 8, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn tabu_all_dense_short_circuits() {
        let (input, plan) = tabu_plan_for(TrafficMix::short_drx(), 40, 4, 64);
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1);
        assert_eq!(plan.improvement.unwrap().budget_spent, 0);
    }

    #[test]
    fn single_device_single_transmission() {
        let mut rng = StdRng::seed_from_u64(11);
        let pop = TrafficMix::uniform(PagingCycle::Drx(DrxCycle::Rf256))
            .generate(1, &mut rng)
            .unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrSc::new().plan(&input, &mut rng).unwrap();
        plan.validate(&input).unwrap();
        assert_eq!(plan.transmission_count(), 1);
    }

    fn weighted_plan_for(mix: TrafficMix, n: usize, seed: u64) -> (GroupingInput, MulticastPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = mix.generate(n, &mut rng).unwrap();
        let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let plan = DrScWeighted::new().plan(&input, &mut rng).unwrap();
        (input, plan)
    }

    /// Total NPDSCH block airtime of a plan: each transmission is priced
    /// at its deepest recipient's coverage class (one block per tx).
    fn plan_block_airtime(input: &GroupingInput, plan: &MulticastPlan) -> u64 {
        let table = DrScWeighted::default().airtime_table();
        let idx_of: std::collections::HashMap<_, _> = input
            .ids()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        plan.transmissions
            .iter()
            .map(|tx| {
                let deepest = tx
                    .recipients
                    .iter()
                    .map(|id| input.coverages()[idx_of[id]])
                    .max()
                    .unwrap();
                u64::from(table[deepest as usize])
            })
            .sum()
    }

    #[test]
    fn greedy_count_covers_have_no_redundant_slot() {
        // DR-SC-weighted prices the memoized count cover without folding
        // it: no greedy count slot fits inside another picked window.
        for mix in [
            TrafficMix::ericsson_city(),
            TrafficMix::heterogeneous_coverage(),
            TrafficMix::short_drx(),
            TrafficMix::massive_metering(),
            TrafficMix::bursty_alarm(),
        ] {
            for n in [1usize, 2, 9, 40, 120, 300] {
                for seed in [0u64, 1, 7, 42] {
                    let pop = mix.generate(n, &mut StdRng::seed_from_u64(seed)).unwrap();
                    let input =
                        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
                    let cover = input.count_cover().unwrap();
                    let mut folded = cover.to_vec();
                    fold_redundant_slots(&input, &mut folded);
                    assert_eq!(folded, cover, "{} n={n} seed={seed}", mix.name);
                }
            }
        }
    }

    #[test]
    fn weighted_plan_is_valid_on_heterogeneous_coverage() {
        let (input, plan) = weighted_plan_for(TrafficMix::heterogeneous_coverage(), 200, 12);
        plan.validate(&input).unwrap();
        assert_eq!(plan.mechanism, "DR-SC-weighted");
        assert!(plan.standards_compliant);
    }

    #[test]
    fn weighted_is_deterministic() {
        let (_, a) = weighted_plan_for(TrafficMix::heterogeneous_coverage(), 150, 13);
        let (_, b) = weighted_plan_for(TrafficMix::heterogeneous_coverage(), 150, 13);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_never_needs_more_transmissions_on_uniform_coverage() {
        // All-Normal populations make every window cost the same, so the
        // weighted cover picks the same number of windows as plain DR-SC
        // (window starts may differ on gain ties; see `solve_weighted`)
        // and the fold pass can only delete transmissions from there.
        for seed in [3u64, 7, 14] {
            let (_, greedy) = plan_for(TrafficMix::ericsson_city(), 120, seed);
            let (input, weighted) = weighted_plan_for(TrafficMix::ericsson_city(), 120, seed);
            weighted.validate(&input).unwrap();
            assert!(weighted.transmission_count() <= greedy.transmission_count());
        }
    }

    #[test]
    fn weighted_never_costs_more_airtime_on_heterogeneous_mix() {
        for seed in [2u64, 6, 15] {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = TrafficMix::heterogeneous_coverage()
                .generate(300, &mut rng)
                .unwrap();
            let input = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
            let greedy = DrSc::new().plan(&input, &mut rng).unwrap();
            let weighted = DrScWeighted::new().plan(&input, &mut rng).unwrap();
            weighted.validate(&input).unwrap();
            let greedy_air = plan_block_airtime(&input, &greedy);
            let weighted_air = plan_block_airtime(&input, &weighted);
            assert!(
                weighted_air <= greedy_air,
                "seed {seed}: weighted {weighted_air} > greedy {greedy_air} subframes"
            );
        }
    }
}
