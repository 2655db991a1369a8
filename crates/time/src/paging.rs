//! Paging frame / paging occasion computation per 3GPP TS 36.304 §7.
//!
//! For regular DRX the UE monitors one paging occasion (PO) per DRX cycle:
//!
//! * `T` — DRX cycle in radio frames,
//! * `N = min(T, nB)`, `Ns = max(1, nB/T)`,
//! * paging frame (PF): the frames whose SFN satisfies
//!   `SFN mod T = (T div N) * (UE_ID mod N)`,
//! * `i_s = floor(UE_ID / N) mod Ns` selects the PO subframe within the PF
//!   from the FDD lookup table (`Ns = 1 → {9}`, `Ns = 2 → {4, 9}`,
//!   `Ns = 4 → {0, 4, 5, 9}`).
//!
//! For eDRX (TS 36.304 §7.3) the UE additionally only pages inside a paging
//! time window (PTW) that recurs once per eDRX cycle:
//!
//! * paging hyperframe (PH): `H-SFN mod T_eDRX,H = UE_ID mod T_eDRX,H`,
//! * PTW start: `SFN = 256 * i_eDRX` with
//!   `i_eDRX = floor(UE_ID / T_eDRX,H) mod 4`,
//! * PTW length: 1–16 units of 2.56 s; inside the PTW the UE follows its
//!   regular DRX formula above.
//!
//! [`PagingSchedule`] resolves both formulas once into one arithmetic
//! progression per (e)DRX cycle: the first PO, the cycle, the spacing of a
//! PTW's POs and how many a PTW holds. Every query is then O(1), for DRX and
//! eDRX alike. The arithmetic runs on absolute (non-wrapping) time; because
//! every standard cycle divides the 1024-frame SFN period (and every eDRX
//! cycle divides the 1024-hyperframe H-SFN period), absolute and wrapping
//! arithmetic agree.

use core::fmt;

use crate::{
    DrxCycle, EdrxCycle, PagingCycle, PtwLength, SimDuration, SimInstant, TimeError, TimeWindow,
    FRAMES_PER_HYPERFRAME, MS_PER_FRAME,
};

/// A UE identity used for paging-occasion derivation (the standard uses
/// `IMSI mod 1024`; any stable per-device integer works for simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct UeId(pub u32);

impl fmt::Display for UeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ue{}", self.0)
    }
}

/// The cell-wide `nB` parameter controlling paging density
/// (TS 36.331 `PCCH-Config`): the number of paging occasions per DRX cycle
/// across the cell is `min(nB, T) ... nB`, expressed relative to `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NbParam {
    /// `nB = 4T` (4 POs per paging frame).
    FourT,
    /// `nB = 2T` (2 POs per paging frame).
    TwoT,
    /// `nB = T` (1 PO per paging frame, every frame can be a PF).
    #[default]
    OneT,
    /// `nB = T/2`.
    HalfT,
    /// `nB = T/4`.
    QuarterT,
    /// `nB = T/8`.
    EighthT,
    /// `nB = T/16`.
    SixteenthT,
    /// `nB = T/32`.
    ThirtySecondT,
}

impl NbParam {
    /// All standard values, densest first.
    pub const ALL: [NbParam; 8] = [
        NbParam::FourT,
        NbParam::TwoT,
        NbParam::OneT,
        NbParam::HalfT,
        NbParam::QuarterT,
        NbParam::EighthT,
        NbParam::SixteenthT,
        NbParam::ThirtySecondT,
    ];

    /// `nB` as a (numerator, denominator) fraction of `T`.
    #[inline]
    pub const fn fraction(self) -> (u64, u64) {
        match self {
            NbParam::FourT => (4, 1),
            NbParam::TwoT => (2, 1),
            NbParam::OneT => (1, 1),
            NbParam::HalfT => (1, 2),
            NbParam::QuarterT => (1, 4),
            NbParam::EighthT => (1, 8),
            NbParam::SixteenthT => (1, 16),
            NbParam::ThirtySecondT => (1, 32),
        }
    }

    /// `nB` evaluated for a DRX cycle of `t_frames` (at least 1).
    #[inline]
    pub const fn value(self, t_frames: u64) -> u64 {
        let (n, d) = self.fraction();
        let v = t_frames * n / d;
        if v == 0 {
            1
        } else {
            v
        }
    }
}

impl fmt::Display for NbParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (n, d) = self.fraction();
        if d == 1 {
            write!(f, "nB={n}T")
        } else {
            write!(f, "nB=T/{d}")
        }
    }
}

/// Per-device paging configuration: the (e)DRX cycle plus the cell's `nB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PagingConfig {
    /// The device's negotiated paging cycle.
    pub cycle: PagingCycle,
    /// Cell-wide paging density parameter.
    pub nb: NbParam,
}

impl PagingConfig {
    /// Regular-DRX configuration with the default `nB = T`.
    pub const fn drx(cycle: DrxCycle) -> PagingConfig {
        PagingConfig {
            cycle: PagingCycle::Drx(cycle),
            nb: NbParam::OneT,
        }
    }

    /// eDRX configuration with one PO per cycle (shortest PTW, 2.56 s
    /// in-window DRX) and the default `nB = T`.
    pub const fn edrx(cycle: EdrxCycle) -> PagingConfig {
        PagingConfig {
            cycle: PagingCycle::edrx(cycle),
            nb: NbParam::OneT,
        }
    }

    /// Full eDRX configuration.
    pub const fn edrx_with(cycle: EdrxCycle, ptw: PtwLength, ptw_drx: DrxCycle) -> PagingConfig {
        PagingConfig {
            cycle: PagingCycle::Edrx {
                cycle,
                ptw,
                ptw_drx,
            },
            nb: NbParam::OneT,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TimeError::PtwShorterThanDrx`] when an eDRX paging time
    /// window is shorter than the in-window DRX cycle (no PO would be
    /// guaranteed inside the window).
    pub fn validate(&self) -> Result<(), TimeError> {
        if let PagingCycle::Edrx {
            cycle,
            ptw,
            ptw_drx,
        } = self.cycle
        {
            if ptw.frames() < ptw_drx.frames() {
                return Err(TimeError::PtwShorterThanDrx {
                    ptw_frames: ptw.frames(),
                    drx_frames: ptw_drx.frames(),
                });
            }
            if ptw.frames() > cycle.frames() {
                return Err(TimeError::PtwLongerThanCycle {
                    ptw_frames: ptw.frames(),
                    cycle_frames: cycle.frames(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for PagingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.cycle, self.nb)
    }
}

/// A device's fully resolved paging-occasion schedule.
///
/// Construction resolves the TS 36.304 formulas once into one arithmetic
/// progression per repetition period: the POs are `f + m·P + i·s` for every
/// period `m ≥ 0` and `0 ≤ i < k`, with `f` the first PO, `P` the cycle, `s`
/// the (in-window) DRX cycle and `k` the POs one paging time window holds.
/// Regular DRX is `k = 1`, `s = P`. A query locates `t` in that progression
/// with two divisions (a count locates both ends), so every query is O(1)
/// for both cycle kinds; `N(t)`, the number of POs before `t`, gives the
/// counts.
///
/// The epoch opens period 0. A PTW that crosses the end of its eDRX cycle
/// runs on into the next one, but there is no PTW before the epoch: no PO
/// lies before `f`, and a count over `[0, t)` holds none of the POs a
/// crossing PTW of period −1 would put there (see
/// [`periodic_from`](Self::periodic_from)).
///
/// # Example
///
/// ```
/// use nbiot_time::{EdrxCycle, PagingConfig, PagingSchedule, SimInstant, UeId};
///
/// let cfg = PagingConfig::edrx(EdrxCycle::Hf2); // 20.48 s cycle
/// let s = PagingSchedule::new(&cfg, UeId(7))?;
/// let po = s.first_po_at_or_after(SimInstant::ZERO);
/// let next = s.first_po_at_or_after(po + nbiot_time::SimDuration::from_ms(1));
/// assert_eq!((next - po).as_ms(), 20_480);
/// # Ok::<(), nbiot_time::TimeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagingSchedule {
    /// Original cycle (kept for reporting).
    cycle: PagingCycle,
    /// The first PO `f`, in ms since the epoch.
    first: u64,
    /// The repetition period `P` in ms: the (e)DRX cycle.
    period: u64,
    /// The spacing `s` of a period's POs in ms: the (in-window) DRX cycle.
    step: u64,
    /// The POs `k` of one period: 1 for DRX, the PTW's occupancy for eDRX.
    per_period: u64,
}

/// PO subframe lookup for FDD, indexed by `i_s` (TS 36.304 Table 7.2).
const PO_SUBFRAME_NS1: [u64; 1] = [9];
const PO_SUBFRAME_NS2: [u64; 2] = [4, 9];
const PO_SUBFRAME_NS4: [u64; 4] = [0, 4, 5, 9];

impl PagingSchedule {
    /// Resolves the paging schedule of `ue` under `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates [`PagingConfig::validate`] failures.
    pub fn new(cfg: &PagingConfig, ue: UeId) -> Result<PagingSchedule, TimeError> {
        cfg.validate()?;
        let ue_id = u64::from(ue.0);
        let drx = match cfg.cycle {
            PagingCycle::Drx(drx) | PagingCycle::Edrx { ptw_drx: drx, .. } => drx,
        };
        let t_frames = drx.frames();
        let nb = cfg.nb.value(t_frames);
        let n = t_frames.min(nb);
        let ns = (nb / t_frames).max(1);
        let pf_offset = (t_frames / n) * (ue_id % n);
        let i_s = (ue_id / n) % ns;
        let po_subframe = match ns {
            1 => PO_SUBFRAME_NS1[i_s as usize],
            2 => PO_SUBFRAME_NS2[i_s as usize],
            4 => PO_SUBFRAME_NS4[i_s as usize],
            other => {
                return Err(TimeError::UnsupportedNb {
                    nb_over_t_32: (other * 32) as u32,
                })
            }
        };
        // The first paging frame and the POs of one period.
        let (first_pf, per_period) = match cfg.cycle {
            PagingCycle::Drx(_) => (pf_offset, 1),
            PagingCycle::Edrx { cycle, ptw, .. } => {
                // PH: H-SFN mod T_eDRX,H = UE_ID mod T_eDRX,H; the PTW opens
                // at SFN 256·i_eDRX. T divides 256, so it opens on a DRX
                // cycle boundary and its first PF lies `pf_offset` frames in;
                // validation keeps the PTW at least T long.
                let cycle_hf = cycle.hyperframes();
                let i_edrx = (ue_id / cycle_hf) % 4;
                let ptw_start = (ue_id % cycle_hf) * FRAMES_PER_HYPERFRAME + 256 * i_edrx;
                (
                    ptw_start + pf_offset,
                    1 + (ptw.frames() - 1 - pf_offset) / t_frames,
                )
            }
        };
        Ok(PagingSchedule {
            cycle: cfg.cycle,
            first: first_pf * MS_PER_FRAME + po_subframe,
            period: cfg.cycle.period().as_ms(),
            step: t_frames * MS_PER_FRAME,
            per_period,
        })
    }

    /// The configured paging cycle.
    #[inline]
    pub fn cycle(&self) -> PagingCycle {
        self.cycle
    }

    /// Period after which the PO pattern repeats.
    #[inline]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_ms(self.period)
    }

    /// Number of POs the device monitors per repetition period
    /// (1 for DRX; PTW occupancy for eDRX).
    #[inline]
    pub fn pos_per_period(&self) -> u64 {
        self.per_period
    }

    /// The earliest instant from which the POs repeat with the period: for
    /// every `t` at or after it, the POs at or after `t + P` are those at or
    /// after `t`, shifted by `P`. It is later than the epoch only when the
    /// first PTW crosses the end of its eDRX cycle: up to that instant lie
    /// the POs a PTW of period −1 would hold, and there is none.
    #[inline]
    pub fn periodic_from(&self) -> SimInstant {
        let last_of_first_period = self.at((0, self.per_period - 1)).as_ms();
        SimInstant::from_ms((last_of_first_period + 1).saturating_sub(self.period))
    }

    /// The first PO at or after `t`.
    #[inline]
    pub fn first_po_at_or_after(&self, t: SimInstant) -> SimInstant {
        self.at(self.locate(t))
    }

    /// The last PO strictly before `t`, if any exists since the epoch.
    #[inline]
    pub fn last_po_before(&self, t: SimInstant) -> Option<SimInstant> {
        let (m, i) = self.locate(t);
        let previous = match i.checked_sub(1) {
            Some(i) => (m, i),
            None => (m.checked_sub(1)?, self.per_period - 1),
        };
        Some(self.at(previous))
    }

    /// All POs inside the half-open `window`, in order.
    pub fn pos_in(&self, window: TimeWindow) -> Vec<SimInstant> {
        self.iter_from(window.start())
            .take_while(|&po| po < window.end())
            .collect()
    }

    /// Whether the device has at least one PO inside `window`.
    #[inline]
    pub fn has_po_in(&self, window: TimeWindow) -> bool {
        self.first_po_at_or_after(window.start()) < window.end()
    }

    /// Number of POs monitored in the half-open interval `[from, to)`:
    /// `N(to) − N(from)`, however long the interval.
    #[inline]
    pub fn count_pos_between(&self, from: SimInstant, to: SimInstant) -> u64 {
        self.pos_before(to).saturating_sub(self.pos_before(from))
    }

    /// Infinite iterator over POs starting from the first PO at or after
    /// `from`.
    pub fn iter_from(&self, from: SimInstant) -> PoIter {
        PoIter {
            schedule: *self,
            next: self.locate(from),
        }
    }

    /// `N(t)`: the number of POs before `t`.
    #[inline]
    fn pos_before(&self, t: SimInstant) -> u64 {
        let (m, i) = self.locate(t);
        m * self.per_period + i
    }

    /// The first PO at or after `t` as `(m, i)`, `i < k`: it is
    /// `f + m·P + i·s`, and `m·k + i` POs lie before `t`.
    #[inline]
    fn locate(&self, t: SimInstant) -> (u64, u64) {
        let d = t.as_ms().saturating_sub(self.first);
        let (m, i) = (d / self.period, (d % self.period).div_ceil(self.step));
        if i < self.per_period {
            (m, i)
        } else {
            (m + 1, 0)
        }
    }

    /// The PO `i` of period `m`.
    #[inline]
    fn at(&self, (m, i): (u64, u64)) -> SimInstant {
        SimInstant::from_ms(self.first + m * self.period + i * self.step)
    }
}

/// Infinite iterator over a device's paging occasions.
///
/// Produced by [`PagingSchedule::iter_from`].
#[derive(Debug, Clone)]
pub struct PoIter {
    schedule: PagingSchedule,
    /// The next PO as `(period, index within the period)`.
    next: (u64, u64),
}

impl Iterator for PoIter {
    type Item = SimInstant;

    fn next(&mut self) -> Option<SimInstant> {
        let (m, i) = self.next;
        self.next = if i + 1 < self.schedule.per_period {
            (m, i + 1)
        } else {
            (m + 1, 0)
        };
        Some(self.schedule.at((m, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DrxCycle;

    fn drx_schedule(cycle: DrxCycle, ue: u32) -> PagingSchedule {
        PagingSchedule::new(&PagingConfig::drx(cycle), UeId(ue)).unwrap()
    }

    #[test]
    fn drx_po_period_is_cycle_length() {
        let s = drx_schedule(DrxCycle::Rf128, 5);
        let a = s.first_po_at_or_after(SimInstant::ZERO);
        let b = s.first_po_at_or_after(a + SimDuration::from_ms(1));
        assert_eq!((b - a).as_ms(), 1280);
    }

    #[test]
    fn drx_pf_offset_follows_ue_id() {
        // nB = T: N = T, Ns = 1, PF offset = UE_ID mod T, PO subframe 9.
        let s = drx_schedule(DrxCycle::Rf32, 7);
        let po = s.first_po_at_or_after(SimInstant::ZERO);
        assert_eq!(po.frame(), 7);
        assert_eq!(po.subframe_in_frame(), 9);
    }

    #[test]
    fn ue_ids_spread_over_paging_frames() {
        // Different UE ids mod T land on different frames.
        let t0 = drx_schedule(DrxCycle::Rf32, 0).first_po_at_or_after(SimInstant::ZERO);
        let t1 = drx_schedule(DrxCycle::Rf32, 1).first_po_at_or_after(SimInstant::ZERO);
        let t33 = drx_schedule(DrxCycle::Rf32, 33).first_po_at_or_after(SimInstant::ZERO);
        assert_ne!(t0, t1);
        assert_eq!(t1, t33); // 33 mod 32 == 1
    }

    #[test]
    fn ns4_uses_po_subframe_table() {
        let cfg = PagingConfig {
            cycle: PagingCycle::Drx(DrxCycle::Rf32),
            nb: NbParam::FourT,
        };
        // Ns = 4, N = T = 32. i_s = floor(ue/32) mod 4.
        let subframes: Vec<u64> = (0..4)
            .map(|i| {
                let s = PagingSchedule::new(&cfg, UeId(32 * i)).unwrap();
                s.first_po_at_or_after(SimInstant::ZERO).subframe_in_frame()
            })
            .collect();
        assert_eq!(subframes, vec![0, 4, 5, 9]);
    }

    #[test]
    fn ns2_uses_two_po_subframes() {
        let cfg = PagingConfig {
            cycle: PagingCycle::Drx(DrxCycle::Rf64),
            nb: NbParam::TwoT,
        };
        // Ns = 2, N = T = 64, i_s = floor(ue/64) mod 2 -> subframe 4 or 9.
        let s0 = PagingSchedule::new(&cfg, UeId(0)).unwrap();
        let s1 = PagingSchedule::new(&cfg, UeId(64)).unwrap();
        assert_eq!(
            s0.first_po_at_or_after(SimInstant::ZERO)
                .subframe_in_frame(),
            4
        );
        assert_eq!(
            s1.first_po_at_or_after(SimInstant::ZERO)
                .subframe_in_frame(),
            9
        );
    }

    #[test]
    fn ptw_spanning_hyperframes_yields_all_pos() {
        // Hf16 cycle (163.84 s) with the maximum 40.96 s PTW: the window
        // spans 4 hyperframes and must still hold ptw/drx POs.
        let cfg = PagingConfig::edrx_with(
            EdrxCycle::Hf16,
            PtwLength::MAX,  // 4096 frames = 40.96 s
            DrxCycle::Rf256, // 2.56 s in-window DRX
        );
        let s = PagingSchedule::new(&cfg, UeId(123)).unwrap();
        assert_eq!(s.pos_per_period(), 16); // 4096 / 256
        let w = TimeWindow::new(SimInstant::ZERO, SimInstant::from_secs(164));
        let pos = s.pos_in(w);
        assert_eq!(pos.len(), 16);
        // All POs lie within one 40.96 s span.
        let span = *pos.last().unwrap() - pos[0];
        assert!(span.as_ms() < 40_960, "span {span}");
    }

    #[test]
    fn nb_less_than_t_coalesces_paging_frames() {
        let cfg = PagingConfig {
            cycle: PagingCycle::Drx(DrxCycle::Rf256),
            nb: NbParam::QuarterT,
        };
        // N = 64 -> PF offset multiples of (T div N) = 4 frames.
        let s = PagingSchedule::new(&cfg, UeId(3)).unwrap();
        let po = s.first_po_at_or_after(SimInstant::ZERO);
        assert_eq!(po.frame() % 4, 0);
        assert_eq!(po.frame(), 12); // (256/64) * (3 mod 64)
    }

    #[test]
    fn last_po_before_is_dual_of_first_after() {
        let s = drx_schedule(DrxCycle::Rf64, 11);
        let t = SimInstant::from_secs(100);
        let before = s.last_po_before(t).unwrap();
        let after = s.first_po_at_or_after(t);
        assert!(before < t && t <= after);
        assert_eq!((after - before).as_ms(), 640);
    }

    #[test]
    fn last_po_before_epoch_is_none() {
        let s = drx_schedule(DrxCycle::Rf64, 11);
        assert_eq!(s.last_po_before(SimInstant::ZERO), None);
        // And before the very first PO there is also nothing.
        let first = s.first_po_at_or_after(SimInstant::ZERO);
        assert_eq!(s.last_po_before(first), None);
    }

    #[test]
    fn edrx_one_po_per_cycle_with_min_ptw() {
        let s = PagingSchedule::new(&PagingConfig::edrx(EdrxCycle::Hf2), UeId(3)).unwrap();
        assert_eq!(s.pos_per_period(), 1);
        let a = s.first_po_at_or_after(SimInstant::ZERO);
        let b = s.first_po_at_or_after(a + SimDuration::from_ms(1));
        assert_eq!((b - a).as_ms(), 20_480);
    }

    #[test]
    fn edrx_ptw_lands_in_paging_hyperframe() {
        let ue = UeId(5);
        let s = PagingSchedule::new(&PagingConfig::edrx(EdrxCycle::Hf4), ue).unwrap();
        let po = s.first_po_at_or_after(SimInstant::ZERO);
        // PH: H-SFN mod 4 == 5 mod 4 == 1; i_eDRX = (5/4) mod 4 = 1 ->
        // PTW starts at SFN 256 of hyperframe 1.
        assert_eq!(po.hyperframe() % 4, 1);
        assert!(po.sfn() >= 256 && po.sfn() < 256 + 256);
    }

    #[test]
    fn edrx_multiple_pos_with_long_ptw() {
        let cfg = PagingConfig::edrx_with(
            EdrxCycle::Hf2,
            PtwLength::new(4).unwrap(), // 10.24 s window
            DrxCycle::Rf128,            // 1.28 s in-window DRX
        );
        let s = PagingSchedule::new(&cfg, UeId(9)).unwrap();
        assert_eq!(s.pos_per_period(), 8); // 1024 frames / 128
        let w = TimeWindow::new(SimInstant::ZERO, SimInstant::from_secs(21));
        assert_eq!(s.pos_in(w).len(), 8);
    }

    #[test]
    fn invalid_ptw_vs_drx_rejected() {
        let cfg = PagingConfig::edrx_with(EdrxCycle::Hf2, PtwLength::MIN, DrxCycle::Rf256);
        assert!(cfg.validate().is_ok());
        // PTW of 2.56 s always fits every DRX <= 2.56 s; force a failure via
        // direct construction of an inconsistent config is impossible with
        // standard values, so validate() is exercised through the Ok path
        // and the error is covered in crate::error tests.
        let s = PagingSchedule::new(&cfg, UeId(1)).unwrap();
        assert_eq!(s.pos_per_period(), 1);
    }

    #[test]
    fn count_pos_between_matches_iteration() {
        for (cfg, ue) in [
            (PagingConfig::drx(DrxCycle::Rf32), 17u32),
            (PagingConfig::drx(DrxCycle::Rf256), 3),
            (PagingConfig::edrx(EdrxCycle::Hf2), 40),
            (
                PagingConfig::edrx_with(
                    EdrxCycle::Hf4,
                    PtwLength::new(2).unwrap(),
                    DrxCycle::Rf128,
                ),
                11,
            ),
        ] {
            let s = PagingSchedule::new(&cfg, UeId(ue)).unwrap();
            let from = SimInstant::from_secs(13);
            let to = SimInstant::from_secs(130);
            let counted = s.count_pos_between(from, to);
            let iterated = s.iter_from(from).take_while(|&p| p < to).count() as u64;
            assert_eq!(counted, iterated, "cfg {cfg:?}");
        }
    }

    #[test]
    fn has_po_in_empty_window_is_false() {
        let s = drx_schedule(DrxCycle::Rf32, 0);
        let t = SimInstant::from_secs(5);
        assert!(!s.has_po_in(TimeWindow::new(t, t)));
    }

    #[test]
    fn po_iter_is_strictly_increasing() {
        let s = PagingSchedule::new(&PagingConfig::edrx(EdrxCycle::Hf2), UeId(123)).unwrap();
        let pos: Vec<_> = s.iter_from(SimInstant::ZERO).take(5).collect();
        for w in pos.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn a_ptw_crossing_its_cycle_end_has_no_predecessor_before_the_epoch() {
        // Hf2 with a 5.12 s PTW: UE 7's PTW opens at SFN 768 of hyperframe 1
        // and runs 256 frames into the next cycle.
        let cfg =
            PagingConfig::edrx_with(EdrxCycle::Hf2, PtwLength::new(2).unwrap(), DrxCycle::Rf32);
        let s = PagingSchedule::new(&cfg, UeId(7)).unwrap();
        assert_eq!(s.pos_per_period(), 16);
        assert_eq!(s.first_po_at_or_after(SimInstant::ZERO).as_ms(), 17_999);
        // Two whole PTWs and the first half of the third, nothing before
        // the first.
        let p = s.period();
        let three = SimInstant::ZERO + p * 3;
        assert_eq!(s.count_pos_between(SimInstant::ZERO, three), 40);
        let iterated = s.iter_from(SimInstant::ZERO).take_while(|&po| po < three);
        assert_eq!(iterated.count(), 40);
        // A PTW of period −1 would hold POs at 79, 399, ..., 2319 ms.
        let from = s.periodic_from();
        assert_eq!(from.as_ms(), 2_320);
        assert_eq!(s.count_pos_between(from, from + p), 16);
        let before = SimInstant::from_ms(2_319);
        assert_eq!(s.count_pos_between(before, before + p), 15);
    }
}
