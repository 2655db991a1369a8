//! System-frame-number helpers.

use core::fmt;

/// Number of radio frames after which the System Frame Number wraps.
pub const SFN_PERIOD: u64 = 1024;
/// Radio frames per hyperframe (one full SFN cycle).
pub const FRAMES_PER_HYPERFRAME: u64 = SFN_PERIOD;

/// An absolute (non-wrapping) radio-frame number.
///
/// Useful for computations that must not be confused by SFN wrap-around,
/// e.g. paging-frame arithmetic (see [`crate::PagingSchedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct FrameNumber(pub u64);

impl FrameNumber {
    /// The wrapping System Frame Number for this absolute frame.
    #[inline]
    pub const fn sfn(self) -> Sfn {
        Sfn((self.0 % SFN_PERIOD) as u16)
    }

    /// The absolute hyperframe that contains this frame.
    #[inline]
    pub const fn hyperframe(self) -> u64 {
        self.0 / FRAMES_PER_HYPERFRAME
    }

    /// Start of this frame as a [`crate::SimInstant`].
    #[inline]
    pub const fn start(self) -> crate::SimInstant {
        crate::SimInstant::from_frames(self.0)
    }
}

impl fmt::Display for FrameNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// A wrapping System Frame Number in `0..1024`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct Sfn(pub u16);

impl Sfn {
    /// Wrapping increment by `n` frames.
    #[inline]
    pub const fn wrapping_add(self, n: u64) -> Sfn {
        Sfn(((self.0 as u64 + n) % SFN_PERIOD) as u16)
    }
}

impl fmt::Display for Sfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SFN {}", self.0)
    }
}

/// A wrapping hyper-SFN in `0..1024` (10.24 s per hyperframe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct HyperSfn(pub u16);

impl fmt::Display for HyperSfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H-SFN {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_number_decomposes() {
        let f = FrameNumber(1024 * 3 + 17);
        assert_eq!(f.sfn(), Sfn(17));
        assert_eq!(f.hyperframe(), 3);
        assert_eq!(f.start().as_ms(), (1024 * 3 + 17) * 10);
    }

    #[test]
    fn sfn_wrapping_add() {
        assert_eq!(Sfn(1020).wrapping_add(10), Sfn(6));
        assert_eq!(Sfn(0).wrapping_add(1024), Sfn(0));
    }
}
