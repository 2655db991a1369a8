//! (e)DRX cycle values and the power-of-two cycle ladder.
//!
//! 3GPP defines idle-mode DRX cycles of 0.32–2.56 s (TS 36.331
//! `defaultPagingCycle`: rf32..rf256) and, for NB-IoT, extended DRX (eDRX)
//! cycles of 20.48 s–10 485.76 s (TS 36.304 §7.3, expressed in hyperframes).
//! As the paper notes (Sec. II-B), every value is exactly twice the
//! immediately shorter value; the DA-SC mechanism exploits this so that
//! *shrinking* a device's cycle preserves its original PO periodicity.

use core::fmt;

use crate::{SimDuration, TimeError};

/// Idle-mode DRX paging cycle (TS 36.331 `defaultPagingCycle`).
///
/// The variant names follow the 3GPP "rfN" notation: the cycle length in
/// radio frames (10 ms each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DrxCycle {
    /// 0.32 s (32 radio frames).
    Rf32,
    /// 0.64 s (64 radio frames).
    Rf64,
    /// 1.28 s (128 radio frames).
    Rf128,
    /// 2.56 s (256 radio frames).
    Rf256,
}

impl DrxCycle {
    /// All DRX cycles, shortest first.
    pub const ALL: [DrxCycle; 4] = [
        DrxCycle::Rf32,
        DrxCycle::Rf64,
        DrxCycle::Rf128,
        DrxCycle::Rf256,
    ];

    /// Cycle length in radio frames.
    #[inline]
    pub const fn frames(self) -> u64 {
        match self {
            DrxCycle::Rf32 => 32,
            DrxCycle::Rf64 => 64,
            DrxCycle::Rf128 => 128,
            DrxCycle::Rf256 => 256,
        }
    }

    /// Cycle length as a duration.
    #[inline]
    pub const fn duration(self) -> SimDuration {
        SimDuration::from_frames(self.frames())
    }

    /// The cycle with the given length in radio frames, if it is a standard
    /// value.
    pub const fn from_frames(frames: u64) -> Option<DrxCycle> {
        match frames {
            32 => Some(DrxCycle::Rf32),
            64 => Some(DrxCycle::Rf64),
            128 => Some(DrxCycle::Rf128),
            256 => Some(DrxCycle::Rf256),
            _ => None,
        }
    }
}

impl fmt::Display for DrxCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DRX {:.2}s", self.duration().as_secs_f64())
    }
}

/// Extended DRX cycle (TS 36.304 §7.3), expressed in hyperframes
/// (1 hyperframe = 10.24 s).
///
/// NB-IoT supports 20.48 s (2 hyperframes) up to 10 485.76 s
/// (1024 hyperframes, ≈175 min — the "175 minutes" of the paper's Sec. II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EdrxCycle {
    /// 20.48 s (2 hyperframes).
    Hf2,
    /// 40.96 s.
    Hf4,
    /// 81.92 s.
    Hf8,
    /// 163.84 s.
    Hf16,
    /// 327.68 s.
    Hf32,
    /// 655.36 s.
    Hf64,
    /// 1310.72 s.
    Hf128,
    /// 2621.44 s (≈44 min).
    Hf256,
    /// 5242.88 s (≈87 min).
    Hf512,
    /// 10485.76 s (≈175 min).
    Hf1024,
}

impl EdrxCycle {
    /// All eDRX cycles, shortest first.
    pub const ALL: [EdrxCycle; 10] = [
        EdrxCycle::Hf2,
        EdrxCycle::Hf4,
        EdrxCycle::Hf8,
        EdrxCycle::Hf16,
        EdrxCycle::Hf32,
        EdrxCycle::Hf64,
        EdrxCycle::Hf128,
        EdrxCycle::Hf256,
        EdrxCycle::Hf512,
        EdrxCycle::Hf1024,
    ];

    /// Cycle length in hyperframes.
    #[inline]
    pub const fn hyperframes(self) -> u64 {
        match self {
            EdrxCycle::Hf2 => 2,
            EdrxCycle::Hf4 => 4,
            EdrxCycle::Hf8 => 8,
            EdrxCycle::Hf16 => 16,
            EdrxCycle::Hf32 => 32,
            EdrxCycle::Hf64 => 64,
            EdrxCycle::Hf128 => 128,
            EdrxCycle::Hf256 => 256,
            EdrxCycle::Hf512 => 512,
            EdrxCycle::Hf1024 => 1024,
        }
    }

    /// Cycle length in radio frames.
    #[inline]
    pub const fn frames(self) -> u64 {
        self.hyperframes() * crate::sfn::FRAMES_PER_HYPERFRAME
    }

    /// Cycle length as a duration.
    #[inline]
    pub const fn duration(self) -> SimDuration {
        SimDuration::from_frames(self.frames())
    }

    /// The cycle with the given length in hyperframes, if standard.
    pub const fn from_hyperframes(hf: u64) -> Option<EdrxCycle> {
        match hf {
            2 => Some(EdrxCycle::Hf2),
            4 => Some(EdrxCycle::Hf4),
            8 => Some(EdrxCycle::Hf8),
            16 => Some(EdrxCycle::Hf16),
            32 => Some(EdrxCycle::Hf32),
            64 => Some(EdrxCycle::Hf64),
            128 => Some(EdrxCycle::Hf128),
            256 => Some(EdrxCycle::Hf256),
            512 => Some(EdrxCycle::Hf512),
            1024 => Some(EdrxCycle::Hf1024),
            _ => None,
        }
    }
}

impl fmt::Display for EdrxCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eDRX {:.2}s", self.duration().as_secs_f64())
    }
}

/// Paging time window length for eDRX (TS 36.304 §7.3): 1–16 units of
/// 2.56 s (256 radio frames) each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PtwLength(u8);

impl PtwLength {
    /// The shortest PTW: one 2.56 s unit.
    pub const MIN: PtwLength = PtwLength(1);
    /// The longest PTW: sixteen units, 40.96 s.
    pub const MAX: PtwLength = PtwLength(16);

    /// Creates a PTW length of `units` 2.56 s units.
    ///
    /// # Errors
    ///
    /// Returns [`TimeError::InvalidPtw`] when `units` is not in `1..=16`.
    pub fn new(units: u8) -> Result<PtwLength, TimeError> {
        if (1..=16).contains(&units) {
            Ok(PtwLength(units))
        } else {
            Err(TimeError::InvalidPtw { units })
        }
    }

    /// Number of 2.56 s units.
    #[inline]
    pub const fn units(self) -> u8 {
        self.0
    }

    /// Window length in radio frames.
    #[inline]
    pub const fn frames(self) -> u64 {
        self.0 as u64 * 256
    }

    /// Window length as a duration.
    #[inline]
    pub const fn duration(self) -> SimDuration {
        SimDuration::from_frames(self.frames())
    }
}

impl Default for PtwLength {
    fn default() -> Self {
        PtwLength::MIN
    }
}

impl fmt::Display for PtwLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PTW {:.2}s", self.duration().as_secs_f64())
    }
}

/// A paging cycle: either regular DRX or extended DRX with a paging time
/// window.
///
/// For eDRX the device still monitors paging occasions according to a
/// regular DRX cycle, but only inside the paging time window of each eDRX
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PagingCycle {
    /// Regular DRX: one PO per cycle.
    Drx(DrxCycle),
    /// Extended DRX: paging occasions per `ptw_drx` inside each paging time
    /// window.
    Edrx {
        /// eDRX cycle length.
        cycle: EdrxCycle,
        /// Paging time window length.
        ptw: PtwLength,
        /// DRX cycle the device follows inside the PTW.
        ptw_drx: DrxCycle,
    },
}

impl PagingCycle {
    /// A convenience eDRX cycle with the shortest PTW and 2.56 s in-window
    /// DRX, which yields exactly one PO per eDRX cycle — the abstraction the
    /// paper uses.
    pub const fn edrx(cycle: EdrxCycle) -> PagingCycle {
        PagingCycle::Edrx {
            cycle,
            ptw: PtwLength(1),
            ptw_drx: DrxCycle::Rf256,
        }
    }

    /// Full period after which the PO pattern repeats, in radio frames.
    #[inline]
    pub const fn period_frames(self) -> u64 {
        match self {
            PagingCycle::Drx(d) => d.frames(),
            PagingCycle::Edrx { cycle, .. } => cycle.frames(),
        }
    }

    /// Full period after which the PO pattern repeats.
    #[inline]
    pub const fn period(self) -> SimDuration {
        SimDuration::from_frames(self.period_frames())
    }

    /// `true` for extended DRX.
    #[inline]
    pub const fn is_edrx(self) -> bool {
        matches!(self, PagingCycle::Edrx { .. })
    }
}

impl fmt::Display for PagingCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagingCycle::Drx(d) => d.fmt(f),
            PagingCycle::Edrx { cycle, ptw, .. } => write!(f, "{cycle} ({ptw})"),
        }
    }
}

impl From<DrxCycle> for PagingCycle {
    fn from(d: DrxCycle) -> Self {
        PagingCycle::Drx(d)
    }
}

/// The full ladder of standard cycle lengths, shortest first, mixing DRX and
/// eDRX values.
///
/// DA-SC walks this ladder downwards to find the *largest* cycle that puts a
/// PO inside the pre-transmission window, minimizing the energy cost of the
/// adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleLadder;

impl CycleLadder {
    /// All standard cycle lengths in radio frames, ascending.
    pub const FRAMES: [u64; 14] = [
        32, 64, 128, 256, // DRX
        2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576, // eDRX
    ];

    /// All standard cycles as [`PagingCycle`] values, ascending by length.
    pub fn cycles() -> impl DoubleEndedIterator<Item = PagingCycle> {
        DrxCycle::ALL
            .iter()
            .map(|&d| PagingCycle::Drx(d))
            .chain(EdrxCycle::ALL.iter().map(|&e| PagingCycle::edrx(e)))
    }

    /// The standard cycle with exactly `frames` radio frames, if any.
    pub fn from_frames(frames: u64) -> Option<PagingCycle> {
        if let Some(d) = DrxCycle::from_frames(frames) {
            return Some(PagingCycle::Drx(d));
        }
        if frames.is_multiple_of(crate::sfn::FRAMES_PER_HYPERFRAME) {
            if let Some(e) = EdrxCycle::from_hyperframes(frames / crate::sfn::FRAMES_PER_HYPERFRAME)
            {
                return Some(PagingCycle::edrx(e));
            }
        }
        None
    }

    /// The next shorter standard cycle, if one exists.
    ///
    /// # Example
    ///
    /// ```
    /// use nbiot_time::{CycleLadder, DrxCycle, EdrxCycle, PagingCycle};
    ///
    /// let shorter = CycleLadder::next_shorter(PagingCycle::edrx(EdrxCycle::Hf2));
    /// assert_eq!(shorter, Some(PagingCycle::Drx(DrxCycle::Rf256)));
    /// assert_eq!(CycleLadder::next_shorter(PagingCycle::Drx(DrxCycle::Rf32)), None);
    /// ```
    pub fn next_shorter(cycle: PagingCycle) -> Option<PagingCycle> {
        let frames = cycle.period_frames();
        Self::FRAMES
            .iter()
            .rev()
            .find(|&&f| f < frames)
            .and_then(|&f| Self::from_frames(f))
    }

    /// The next longer standard cycle, if one exists.
    pub fn next_longer(cycle: PagingCycle) -> Option<PagingCycle> {
        let frames = cycle.period_frames();
        Self::FRAMES
            .iter()
            .find(|&&f| f > frames)
            .and_then(|&f| Self::from_frames(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_is_twice_the_previous() {
        // The paper's Sec. II-B property, within each of the two families.
        for w in DrxCycle::ALL.windows(2) {
            assert_eq!(w[1].frames(), 2 * w[0].frames());
        }
        for w in EdrxCycle::ALL.windows(2) {
            assert_eq!(w[1].frames(), 2 * w[0].frames());
        }
        for w in CycleLadder::FRAMES.windows(2) {
            assert!(w[1] == 2 * w[0] || (w[0] == 256 && w[1] == 2048));
        }
    }

    #[test]
    fn drx_durations_match_standard() {
        assert_eq!(DrxCycle::Rf32.duration().as_ms(), 320);
        assert_eq!(DrxCycle::Rf256.duration().as_ms(), 2560);
    }

    #[test]
    fn edrx_range_matches_paper() {
        // 20.48 s .. 10485.76 s ("20.48 seconds to 175 minutes").
        assert_eq!(EdrxCycle::Hf2.duration().as_ms(), 20_480);
        assert_eq!(EdrxCycle::Hf1024.duration().as_ms(), 10_485_760);
        let minutes = EdrxCycle::Hf1024.duration().as_secs_f64() / 60.0;
        assert!((174.0..176.0).contains(&minutes));
    }

    #[test]
    fn from_frames_round_trips() {
        for d in DrxCycle::ALL {
            assert_eq!(DrxCycle::from_frames(d.frames()), Some(d));
        }
        for e in EdrxCycle::ALL {
            assert_eq!(EdrxCycle::from_hyperframes(e.hyperframes()), Some(e));
        }
        assert_eq!(DrxCycle::from_frames(100), None);
        assert_eq!(EdrxCycle::from_hyperframes(3), None);
    }

    #[test]
    fn ladder_round_trips_all_values() {
        for f in CycleLadder::FRAMES {
            let c = CycleLadder::from_frames(f).expect("standard value");
            assert_eq!(c.period_frames(), f);
        }
        assert_eq!(CycleLadder::from_frames(999), None);
    }

    #[test]
    fn ladder_navigation() {
        let c = CycleLadder::from_frames(2048).unwrap();
        assert_eq!(
            CycleLadder::next_shorter(c).map(|c| c.period_frames()),
            Some(256)
        );
        assert_eq!(
            CycleLadder::next_longer(c).map(|c| c.period_frames()),
            Some(4096)
        );
        let longest = CycleLadder::from_frames(1048576).unwrap();
        assert_eq!(CycleLadder::next_longer(longest), None);
    }

    #[test]
    fn ptw_validation() {
        assert!(PtwLength::new(0).is_err());
        assert!(PtwLength::new(17).is_err());
        assert_eq!(PtwLength::new(16).unwrap(), PtwLength::MAX);
        assert_eq!(PtwLength::MIN.duration().as_ms(), 2560);
        assert_eq!(PtwLength::MAX.duration().as_ms(), 40_960);
    }

    #[test]
    fn edrx_convenience_has_single_po_per_cycle() {
        let c = PagingCycle::edrx(EdrxCycle::Hf2);
        match c {
            PagingCycle::Edrx { ptw, ptw_drx, .. } => {
                // One 2.56 s PTW holding exactly one 2.56 s DRX cycle.
                assert_eq!(ptw.frames(), ptw_drx.frames());
            }
            PagingCycle::Drx(_) => panic!("expected eDRX"),
        }
    }

    #[test]
    fn ladder_cycles_are_sorted_ascending() {
        let lens: Vec<u64> = CycleLadder::cycles().map(|c| c.period_frames()).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert_eq!(lens, sorted);
        assert_eq!(lens.len(), CycleLadder::FRAMES.len());
    }
}
