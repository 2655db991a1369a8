//! Property-based tests of the TS 36.304 paging-occasion substrate.

use nbiot_multicast::prelude::*;
use nbiot_time::{NbParam, PtwLength};
use proptest::prelude::*;

/// Every paging configuration that validates, as (DRX, eDRX) lists: each
/// DRX cycle, and each eDRX cycle up to `longest` × PTW length × in-window
/// DRX, each under every `nB`.
fn configs(longest: EdrxCycle) -> (Vec<PagingConfig>, Vec<PagingConfig>) {
    let with_every_nb = |cycles: Vec<PagingCycle>| -> Vec<PagingConfig> {
        cycles
            .into_iter()
            .flat_map(|cycle| NbParam::ALL.map(|nb| PagingConfig { cycle, nb }))
            .filter(|cfg| cfg.validate().is_ok())
            .collect()
    };
    let drx = DrxCycle::ALL.map(PagingCycle::Drx).to_vec();
    let mut edrx = Vec::new();
    for cycle in EdrxCycle::ALL.into_iter().filter(|&c| c <= longest) {
        for units in 1..=16 {
            for ptw_drx in DrxCycle::ALL {
                let ptw = PtwLength::new(units).unwrap();
                edrx.push(PagingCycle::Edrx {
                    cycle,
                    ptw,
                    ptw_drx,
                });
            }
        }
    }
    (with_every_nb(drx), with_every_nb(edrx))
}

/// DRX and eDRX configurations, half each.
fn arb_config_up_to(longest: EdrxCycle) -> impl Strategy<Value = PagingConfig> {
    let (drx, edrx) = configs(longest);
    prop_oneof![
        proptest::sample::select(drx),
        proptest::sample::select(edrx)
    ]
}

fn arb_config() -> impl Strategy<Value = PagingConfig> {
    arb_config_up_to(EdrxCycle::Hf1024)
}

/// The reference schedule: TS 36.304 §7.1 and §7.3 evaluated frame by frame
/// on the wrapping SFN and H-SFN, with no closed form.
struct FrameScan {
    ue: u64,
    /// The (in-window) DRX cycle `T` in frames, `N` and `Ns`.
    t: u64,
    n: u64,
    ns: u64,
    /// `T_eDRX,H` in hyperframes and the PTW length in frames.
    edrx: Option<(u64, u64)>,
}

impl FrameScan {
    fn new(cfg: &PagingConfig, ue: u32) -> FrameScan {
        let (drx, edrx) = match cfg.cycle {
            PagingCycle::Drx(drx) => (drx, None),
            PagingCycle::Edrx {
                cycle,
                ptw,
                ptw_drx,
            } => (ptw_drx, Some((cycle.hyperframes(), ptw.frames()))),
        };
        let t = drx.frames();
        let (num, den) = cfg.nb.fraction();
        let nb = (t * num / den).max(1);
        FrameScan {
            ue: u64::from(ue),
            t,
            n: t.min(nb),
            ns: (nb / t).max(1),
            edrx,
        }
    }

    /// The PO the UE monitors in absolute frame `frame`, in ms, if any.
    fn po_in(&self, frame: u64) -> Option<u64> {
        let (sfn, hyperframe) = (frame % 1024, frame / 1024);
        // §7.1: PF is SFN mod T = (T div N)·(UE_ID mod N).
        if sfn % self.t != (self.t / self.n) * (self.ue % self.n) {
            return None;
        }
        // §7.3: a PTW opens at SFN 256·i_eDRX of every PH, H-SFN mod
        // T_eDRX,H = UE_ID mod T_eDRX,H, and lasts its length in frames
        // (at most four hyperframes); none opens before the epoch.
        if let Some((t_h, ptw)) = self.edrx {
            let i_edrx = (self.ue / t_h) % 4;
            let in_ptw = (hyperframe.saturating_sub(4)..=hyperframe).any(|h| {
                let opens = h * 1024 + 256 * i_edrx;
                (h % 1024) % t_h == self.ue % t_h && opens <= frame && frame < opens + ptw
            });
            if !in_ptw {
                return None;
            }
        }
        let i_s = (self.ue / self.n) % self.ns;
        let subframe = match self.ns {
            1 => 9,
            2 => [4, 9][i_s as usize],
            _ => [0, 4, 5, 9][i_s as usize],
        };
        Some(frame * 10 + subframe)
    }

    fn first_at_or_after(&self, t: u64) -> u64 {
        (t / 10..)
            .find_map(|f| self.po_in(f).filter(|&po| po >= t))
            .unwrap()
    }

    fn last_before(&self, t: u64) -> Option<u64> {
        (0..=t / 10)
            .rev()
            .find_map(|f| self.po_in(f).filter(|&po| po < t))
    }

    fn count(&self, from: u64, to: u64) -> u64 {
        (from / 10..to.div_ceil(10))
            .filter_map(|f| self.po_in(f))
            .filter(|&po| from <= po && po < to)
            .count() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pos_repeat_with_the_cycle_period(cfg in arb_config(), ue in 0u32..100_000) {
        // With k POs a period, each period's first PO lies one period after
        // the previous period's first, and so does every later PO.
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let k = s.pos_per_period() as usize;
        let pos: Vec<SimInstant> = s.iter_from(SimInstant::ZERO).take(3 * k).collect();
        prop_assert_eq!(pos[0], s.first_po_at_or_after(SimInstant::ZERO));
        for i in 0..2 * k {
            prop_assert_eq!(pos[i + k] - pos[i], cfg.cycle.period());
        }
    }

    #[test]
    fn first_after_and_last_before_are_adjacent(
        cfg in arb_config(),
        ue in 0u32..100_000,
        probe_s in 1u64..50_000,
    ) {
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let t = SimInstant::from_secs(probe_s);
        let after = s.first_po_at_or_after(t);
        prop_assert!(after >= t);
        if let Some(before) = s.last_po_before(t) {
            prop_assert!(before < t);
            // No PO lies strictly between them.
            prop_assert_eq!(
                s.first_po_at_or_after(before + SimDuration::from_ms(1)),
                after
            );
        }
    }

    #[test]
    fn count_matches_iteration(
        cfg in arb_config(),
        ue in 0u32..100_000,
        from_ms in prop_oneof![0u64..60_000, 0u64..10_000_000],
        span_s in 1u64..40_000,
    ) {
        // Half the spans start within the first minute, where a first PTW
        // that crosses the end of its cycle lies.
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let from = SimInstant::from_ms(from_ms);
        let to = from + SimDuration::from_secs(span_s);
        let counted = s.count_pos_between(from, to);
        let iterated = s.iter_from(from).take_while(|&p| p < to).count() as u64;
        prop_assert_eq!(counted, iterated);
    }

    #[test]
    fn any_window_of_one_cycle_contains_a_po(
        cfg in arb_config(),
        ue in 0u32..100_000,
        start_s in 0u64..30_000,
    ) {
        // The feasibility property DA-SC and DR-SI rely on: every span of
        // one full cycle holds at least one PO.
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let w = TimeWindow::starting_at(SimInstant::from_secs(start_s), cfg.cycle.period());
        prop_assert!(s.has_po_in(w), "no PO in {w} for {cfg:?}");
    }

    #[test]
    fn pos_are_strictly_increasing_and_on_schedule(
        cfg in arb_config(),
        ue in 0u32..100_000,
    ) {
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let pos: Vec<SimInstant> = s.iter_from(SimInstant::ZERO).take(8).collect();
        for w in pos.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for po in pos {
            prop_assert_eq!(s.first_po_at_or_after(po), po);
        }
    }

    #[test]
    fn different_ue_ids_use_admissible_po_subframes(
        cfg in arb_config(),
        ue in 0u32..100_000,
    ) {
        // The FDD PO subframes for Ns = max(1, nB/T): with nB at most T
        // always 9, with 2T {4, 9}, with 4T {0, 4, 5, 9}.
        let admissible: &[u64] = match cfg.nb {
            NbParam::FourT => &[0, 4, 5, 9],
            NbParam::TwoT => &[4, 9],
            _ => &[9],
        };
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let po = s.first_po_at_or_after(SimInstant::ZERO);
        prop_assert!(admissible.contains(&po.subframe_in_frame()), "{po} under {cfg}");
    }

    #[test]
    fn ladder_next_shorter_halves_or_bridges(
        frames in prop_oneof![
            Just(64u64), Just(256), Just(2048), Just(65536), Just(1048576)
        ],
    ) {
        let cycle = CycleLadder::from_frames(frames).unwrap();
        let shorter = CycleLadder::next_shorter(cycle).unwrap();
        prop_assert!(shorter.period_frames() < frames);
        // Power-of-two ladder: the next shorter cycle divides this one.
        prop_assert_eq!(frames % shorter.period_frames(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schedule_survives_hsfn_wrap(
        cfg in arb_config(),
        ue in 0u32..100_000,
    ) {
        // One full H-SFN cycle is 1024 hyperframes = 10485.76 s; the PO
        // pattern must continue seamlessly across the wrap (and across the
        // full 1024 * 1024-frame super-period).
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let wrap = SimInstant::from_ms(1024 * 1024 * 10); // H-SFN wrap
        let before = s.last_po_before(wrap).unwrap();
        let after = s.first_po_at_or_after(wrap);
        let gap = after - before;
        // Consecutive POs are never farther apart than one full cycle.
        prop_assert!(gap <= cfg.cycle.period(), "gap {gap} across wrap");
        // And the pattern one super-period later is an exact translate.
        let period = SimDuration::from_ms(1024 * 1024 * 10);
        let translated = s.first_po_at_or_after(after + period);
        prop_assert_eq!(translated - after, period);
    }

    #[test]
    fn count_is_additive_across_wraps(
        cfg in arb_config(),
        ue in 0u32..100_000,
    ) {
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let a = SimInstant::from_secs(10_400);
        let b = SimInstant::from_secs(10_500); // around one H-SFN wrap
        let c = SimInstant::from_secs(21_000); // around 2 * maxDRX
        let whole = s.count_pos_between(a, c);
        let split = s.count_pos_between(a, b) + s.count_pos_between(b, c);
        prop_assert_eq!(whole, split);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queries_match_the_frame_scan(
        cfg in arb_config_up_to(EdrxCycle::Hf16),
        ue in 0u32..100_000,
        arm in 0u8..3,
        offset in 0u64..100_000_000,
        span_ms in 0u64..400_000,
    ) {
        let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
        let scan = FrameScan::new(&cfg, ue);
        let p = cfg.cycle.period().as_ms();
        // Starts inside the first PTW, in the first three periods, or later.
        let ptw_ms = match cfg.cycle {
            PagingCycle::Edrx { ptw, .. } => ptw.frames() * 10,
            PagingCycle::Drx(_) => p,
        };
        let start = match arm {
            0 => scan.first_at_or_after(0) + offset % ptw_ms,
            1 => offset % (3 * p),
            _ => offset,
        };
        let t = SimInstant::from_ms(start);
        prop_assert_eq!(s.first_po_at_or_after(t).as_ms(), scan.first_at_or_after(start));
        prop_assert_eq!(s.last_po_before(t).map(SimInstant::as_ms), scan.last_before(start));
        let end = start + span_ms % (2 * p);
        prop_assert_eq!(
            s.count_pos_between(t, SimInstant::from_ms(end)),
            scan.count(start, end)
        );
        // Any period from the second on holds `pos_per_period` POs; from
        // `periodic_from` on every period does, and not from the instant
        // before it.
        let k = s.pos_per_period();
        prop_assert_eq!(scan.count(start + 2 * p, start + 3 * p), k);
        let periodic = s.periodic_from().as_ms();
        prop_assert_eq!(scan.count(periodic, periodic + p), k);
        if periodic > 0 {
            prop_assert_eq!(scan.count(periodic - 1, periodic - 1 + p), k - 1);
        }
        // Iteration steps through the scan's POs across two period ends.
        let mut next = start;
        for po in s.iter_from(t).take(2 * k as usize + 2) {
            let expected = scan.first_at_or_after(next);
            prop_assert_eq!(po.as_ms(), expected);
            next = expected + 1;
        }
    }
}

#[test]
fn frame_scan_agrees_where_the_first_ptw_crosses_its_cycle_end() {
    // UE 7 on Hf2 with a 5.12 s PTW: the first PTW opens at SFN 768 of
    // hyperframe 1 and runs 2.56 s into the second cycle; the PTW of the
    // cycle before the epoch would reach into the first, but there is none.
    let cfg = PagingConfig::edrx_with(EdrxCycle::Hf2, PtwLength::new(2).unwrap(), DrxCycle::Rf32);
    let s = PagingSchedule::new(&cfg, UeId(7)).unwrap();
    let scan = FrameScan::new(&cfg, 7);
    let p = cfg.cycle.period().as_ms();
    assert_eq!(scan.count(0, 3 * p), 40);
    for start in (0..3 * p).step_by(97) {
        let t = SimInstant::from_ms(start);
        assert_eq!(
            s.first_po_at_or_after(t).as_ms(),
            scan.first_at_or_after(start)
        );
        assert_eq!(
            s.last_po_before(t).map(SimInstant::as_ms),
            scan.last_before(start)
        );
        for end in [start + p / 3, start + p, start + 2 * p + 5] {
            let counted = s.count_pos_between(t, SimInstant::from_ms(end));
            assert_eq!(counted, scan.count(start, end), "[{start}, {end})");
        }
    }
}
