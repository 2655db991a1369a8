//! Protocol timers.

use core::fmt;

use nbiot_time::{SimDuration, SimInstant};

/// The RRC inactivity timer (`TI` in the paper).
///
/// After the last data activity the eNB keeps the connection for `TI`
/// before releasing the device; commercial networks use 10–30 s
/// (paper Sec. II-B). All three grouping mechanisms lean on this window:
/// a device paged up to `TI` before the multicast instant is still awake
/// when the transmission starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InactivityTimer(SimDuration);

impl InactivityTimer {
    /// Creates an inactivity timer of length `d`.
    pub const fn new(d: SimDuration) -> InactivityTimer {
        InactivityTimer(d)
    }

    /// Timer length.
    #[inline]
    pub const fn duration(self) -> SimDuration {
        self.0
    }

    /// Expiry instant for activity ending at `last_activity`.
    #[inline]
    pub fn expiry_after(self, last_activity: SimInstant) -> SimInstant {
        last_activity + self.0
    }
}

impl Default for InactivityTimer {
    /// 10 s — the low end of the commercial 10–30 s range, and the value
    /// under which the default traffic mix reproduces the paper's Fig. 7
    /// shape (see `docs/SCENARIOS.md`).
    fn default() -> Self {
        InactivityTimer(SimDuration::from_secs(10))
    }
}

impl fmt::Display for InactivityTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TI={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ti_is_in_commercial_range() {
        let ti = InactivityTimer::default().duration().as_secs_f64();
        assert!((10.0..=30.0).contains(&ti));
    }

    #[test]
    fn expiry_is_activity_plus_ti() {
        let ti = InactivityTimer::new(SimDuration::from_secs(10));
        assert_eq!(
            ti.expiry_after(SimInstant::from_secs(5)),
            SimInstant::from_secs(15)
        );
    }
}
