//! Absolute simulation time and durations with 1 ms (subframe) resolution.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Milliseconds per LTE/NB-IoT subframe.
pub const MS_PER_SUBFRAME: u64 = 1;
/// Subframes per radio frame.
pub const SUBFRAMES_PER_FRAME: u64 = 10;
/// Milliseconds per radio frame (10 subframes x 1 ms).
pub const MS_PER_FRAME: u64 = MS_PER_SUBFRAME * SUBFRAMES_PER_FRAME;

/// An absolute point in simulation time, measured in whole milliseconds
/// (equivalently: subframes) since the simulation epoch.
///
/// The epoch (`SimInstant::ZERO`) is aligned with subframe 0 of SFN 0 of
/// hyperframe 0, so radio-frame arithmetic ([`SimInstant::frame`],
/// [`SimInstant::sfn`]) is exact.
///
/// # Example
///
/// ```
/// use nbiot_time::{SimDuration, SimInstant};
///
/// let t = SimInstant::from_frames(3) + SimDuration::from_ms(4);
/// assert_eq!(t.as_ms(), 34);
/// assert_eq!(t.frame(), 3);
/// assert_eq!(t.subframe_in_frame(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch.
    pub const ZERO: SimInstant = SimInstant(0);
    /// The latest representable instant.
    pub const MAX: SimInstant = SimInstant(u64::MAX);

    /// Creates an instant `ms` milliseconds after the epoch.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimInstant(ms)
    }

    /// Creates an instant at the start (subframe 0) of absolute radio frame
    /// `frames`.
    #[inline]
    pub const fn from_frames(frames: u64) -> Self {
        SimInstant(frames * MS_PER_FRAME)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimInstant(secs * 1000)
    }

    /// Milliseconds since the epoch.
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (useful for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Absolute radio-frame number (does not wrap).
    #[inline]
    pub const fn frame(self) -> u64 {
        self.0 / MS_PER_FRAME
    }

    /// Subframe index within the current radio frame (0..=9).
    #[inline]
    pub const fn subframe_in_frame(self) -> u64 {
        (self.0 % MS_PER_FRAME) / MS_PER_SUBFRAME
    }

    /// System Frame Number: the radio-frame number modulo 1024.
    #[inline]
    pub const fn sfn(self) -> u64 {
        self.frame() % crate::sfn::SFN_PERIOD
    }

    /// Hyper System Frame Number: increments each time the SFN wraps,
    /// itself modulo 1024.
    #[inline]
    pub const fn hsfn(self) -> u64 {
        (self.frame() / crate::sfn::FRAMES_PER_HYPERFRAME) % crate::sfn::SFN_PERIOD
    }

    /// Absolute hyperframe number (does not wrap).
    #[inline]
    pub const fn hyperframe(self) -> u64 {
        self.frame() / crate::sfn::FRAMES_PER_HYPERFRAME
    }

    /// Saturating add: clamps at [`SimInstant::MAX`].
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> Self {
        SimInstant(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a duration: clamps at the epoch.
    #[inline]
    pub const fn saturating_sub(self, d: SimDuration) -> Self {
        SimInstant(self.0.saturating_sub(d.0))
    }

    /// Checked subtraction of another instant.
    ///
    /// Returns `None` when `earlier` is after `self`.
    #[inline]
    pub const fn checked_duration_since(self, earlier: SimInstant) -> Option<SimDuration> {
        match self.0.checked_sub(earlier.0) {
            Some(ms) => Some(SimDuration(ms)),
            None => None,
        }
    }

    /// Duration since `earlier`, or [`SimDuration::ZERO`] when `earlier` is
    /// in the future.
    #[inline]
    pub const fn saturating_duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A span of simulation time, in whole milliseconds.
///
/// # Example
///
/// ```
/// use nbiot_time::SimDuration;
///
/// let ti = SimDuration::from_secs(20);
/// assert_eq!(ti.as_ms(), 20_000);
/// assert_eq!((ti / 2).as_secs_f64(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `frames` radio frames.
    #[inline]
    pub const fn from_frames(frames: u64) -> Self {
        SimDuration(frames * MS_PER_FRAME)
    }

    /// Creates a duration of whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Length in milliseconds.
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// `true` when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub const fn checked_mul(self, k: u64) -> Option<SimDuration> {
        match self.0.checked_mul(k) {
            Some(ms) => Some(SimDuration(ms)),
            None => None,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimInstant {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_frame_zero() {
        assert_eq!(SimInstant::ZERO.frame(), 0);
        assert_eq!(SimInstant::ZERO.sfn(), 0);
        assert_eq!(SimInstant::ZERO.hsfn(), 0);
        assert_eq!(SimInstant::ZERO.subframe_in_frame(), 0);
    }

    #[test]
    fn frame_and_subframe_decomposition() {
        let t = SimInstant::from_ms(12_345);
        assert_eq!(t.frame(), 1234);
        assert_eq!(t.subframe_in_frame(), 5);
    }

    #[test]
    fn sfn_wraps_at_1024_frames() {
        let t = SimInstant::from_frames(1024);
        assert_eq!(t.sfn(), 0);
        assert_eq!(t.hsfn(), 1);
        let t2 = SimInstant::from_frames(1023);
        assert_eq!(t2.sfn(), 1023);
        assert_eq!(t2.hsfn(), 0);
    }

    #[test]
    fn hsfn_wraps_at_1024_hyperframes() {
        let t = SimInstant::from_frames(1024 * 1024);
        assert_eq!(t.hsfn(), 0);
        assert_eq!(t.hyperframe(), 1024);
    }

    #[test]
    fn instant_duration_arithmetic_round_trips() {
        let a = SimInstant::from_ms(500);
        let d = SimDuration::from_ms(250);
        assert_eq!((a + d) - a, d);
        assert_eq!((a + d) - d, a);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimInstant::ZERO.saturating_sub(SimDuration::from_ms(5)),
            SimInstant::ZERO
        );
        assert_eq!(
            SimInstant::MAX.saturating_add(SimDuration::from_ms(5)),
            SimInstant::MAX
        );
        assert_eq!(
            SimDuration::from_ms(3).saturating_sub(SimDuration::from_ms(7)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn checked_duration_since_detects_order() {
        let a = SimInstant::from_ms(10);
        let b = SimInstant::from_ms(20);
        assert_eq!(b.checked_duration_since(a), Some(SimDuration::from_ms(10)));
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(4);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 4, SimDuration::from_secs(1));
        assert_eq!(d.checked_mul(u64::MAX), None);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ms).sum();
        assert_eq!(total, SimDuration::from_ms(10));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimInstant::from_ms(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_ms(20480).to_string(), "20.480s");
    }
}
