//! Simulation time.
//!
//! The study window mirrors the paper's: collection from 25 January to
//! 31 August 2022 (≈ 218 days), plus a one-week backscanning window in
//! January 2023. [`SimTime`] is seconds since the study start; all
//! behaviour schedules (rotation epochs, NTP contacts, mobility) are
//! expressed in it.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in simulated seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One day.
    pub const DAY: SimDuration = SimDuration(86_400);
    /// One week.
    pub const WEEK: SimDuration = SimDuration(7 * 86_400);

    /// Builds from whole days.
    pub const fn days(n: u64) -> Self {
        SimDuration(n * 86_400)
    }

    /// Builds from whole hours.
    pub const fn hours(n: u64) -> Self {
        SimDuration(n * 3_600)
    }

    /// Builds from whole minutes.
    pub const fn minutes(n: u64) -> Self {
        SimDuration(n * 60)
    }

    /// The raw number of seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration in fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s == 0 {
            return f.write_str("0s");
        }
        let (d, rem) = (s / 86_400, s % 86_400);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, sec) = (rem / 60, rem % 60);
        let mut wrote = false;
        for (v, unit) in [(d, "d"), (h, "h"), (m, "m"), (sec, "s")] {
            if v > 0 {
                if wrote {
                    f.write_str(" ")?;
                }
                write!(f, "{v}{unit}")?;
                wrote = true;
            }
        }
        Ok(())
    }
}

/// An instant in simulated time: seconds since the study start
/// (25 January 2022 00:00 UTC in the paper's calendar).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The study start (t = 0).
    pub const START: SimTime = SimTime(0);

    /// Seconds since the study start.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Whole days since the study start.
    pub const fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Whole weeks since the study start.
    pub const fn week(self) -> u64 {
        self.0 / (7 * 86_400)
    }

    /// Elapsed duration since an earlier instant (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

/// The paper's collection window: 25 Jan – 31 Aug 2022 ≈ 218 days.
pub const STUDY_DURATION: SimDuration = SimDuration::days(218);

/// Start of the backscanning week (January 2023 in the paper; here,
/// immediately after the collection window plus a gap).
pub const BACKSCAN_START: SimTime = SimTime(STUDY_DURATION.0 + SimDuration::days(140).0);

/// Length of the backscanning experiment (one week, §3).
pub const BACKSCAN_DURATION: SimDuration = SimDuration::days(7);

/// The batching interval for backscanning (ten minutes, §3).
pub const BACKSCAN_INTERVAL: SimDuration = SimDuration::minutes(10);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::START + SimDuration::days(2) + SimDuration::hours(3);
        assert_eq!(t.as_secs(), 2 * 86_400 + 3 * 3_600);
        assert_eq!(t.day(), 2);
        assert_eq!((t - SimDuration::days(1)).day(), 1);
        assert_eq!(t.since(SimTime::START).as_secs(), t.as_secs());
        // Saturating behaviour.
        assert_eq!(SimTime::START.since(t), SimDuration::ZERO);
        assert_eq!(SimTime::START - SimDuration::DAY, SimTime::START);
    }

    #[test]
    fn weeks_and_days() {
        let t = SimTime(SimDuration::days(15).as_secs());
        assert_eq!(t.week(), 2);
        assert_eq!(t.day(), 15);
    }

    #[test]
    fn study_constants_match_paper() {
        assert_eq!(STUDY_DURATION.as_days() as u64, 218);
        assert!(BACKSCAN_START > SimTime(STUDY_DURATION.as_secs()));
        assert_eq!(BACKSCAN_DURATION, SimDuration::WEEK);
        assert_eq!(BACKSCAN_INTERVAL.as_secs(), 600);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(SimDuration::days(1).to_string(), "1d");
        assert_eq!(
            (SimDuration::days(1) + SimDuration::hours(2) + SimDuration(61)).to_string(),
            "1d 2h 1m 1s"
        );
        assert_eq!(SimTime(86_400).to_string(), "t+1d");
    }
}
