//! NTP timestamps (RFC 5905 §6).
//!
//! NTP represents time as a 64-bit unsigned fixed-point number: 32 bits of
//! seconds since 1 January 1900 and 32 bits of fraction (~233 ps
//! resolution). The simulator's [`SimTime`] epoch (25 January 2022) maps
//! onto the NTP era at a fixed offset.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Sub;

use v6netsim::SimTime;

/// Seconds between the NTP epoch (1900-01-01) and the study start
/// (2022-01-25): 122 years incl. 30 leap days, plus 24 days of January.
pub const STUDY_START_NTP_SECS: u64 = (122 * 365 + 30 + 24) * 86_400;

/// A 64-bit NTP timestamp (32.32 fixed point, seconds since 1900).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NtpTimestamp(pub u64);

impl NtpTimestamp {
    /// The "unknown" timestamp (all zeros), used before synchronization.
    pub const ZERO: NtpTimestamp = NtpTimestamp(0);

    /// Builds from whole seconds and a 32-bit fraction.
    pub const fn new(secs: u32, frac: u32) -> Self {
        NtpTimestamp(((secs as u64) << 32) | frac as u64)
    }

    /// The seconds part.
    pub const fn secs(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The fractional part.
    pub const fn frac(self) -> u32 {
        self.0 as u32
    }

    /// Converts a simulation instant (plus sub-second nanoseconds) to an
    /// NTP timestamp.
    pub fn from_sim(t: SimTime, subsec_nanos: u32) -> Self {
        let secs = (STUDY_START_NTP_SECS + t.as_secs()) as u32;
        let frac = ((subsec_nanos as u64) << 32) / 1_000_000_000;
        NtpTimestamp::new(secs, frac as u32)
    }

    /// The simulation instant this timestamp corresponds to (seconds
    /// resolution; `None` if before the study start).
    pub fn to_sim(self) -> Option<SimTime> {
        (self.secs() as u64)
            .checked_sub(STUDY_START_NTP_SECS)
            .map(SimTime)
    }
}

impl Sub for NtpTimestamp {
    type Output = f64;

    /// Signed difference in seconds (`self - rhs`).
    #[allow(clippy::suspicious_arithmetic_impl)] // fixed-point → seconds
    fn sub(self, rhs: NtpTimestamp) -> f64 {
        // Wrapping signed difference handles era boundaries like NTP does.
        (self.0.wrapping_sub(rhs.0) as i64) as f64 / 4_294_967_296.0
    }
}

impl fmt::Display for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:08x}", self.secs(), self.frac())
    }
}

/// A short 32-bit NTP time format (16.16 fixed point), used for root
/// delay and root dispersion.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NtpShort(pub u32);

impl NtpShort {
    /// Zero.
    pub const ZERO: NtpShort = NtpShort(0);

    /// From fractional seconds (saturating, non-negative).
    pub fn from_secs_f64(s: f64) -> Self {
        NtpShort((s.max(0.0) * 65_536.0).min(u32::MAX as f64) as u32)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 65_536.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_round_trip() {
        let t = SimTime(86_400 * 30 + 12_345);
        let ts = NtpTimestamp::from_sim(t, 500_000_000);
        assert_eq!(ts.to_sim(), Some(t));
        // Half-second fraction.
        assert!((ts.frac() as f64 / 4_294_967_296.0 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn before_study_start_is_none() {
        assert_eq!(NtpTimestamp::new(1000, 0).to_sim(), None);
    }

    #[test]
    fn subtraction_in_seconds() {
        let a = NtpTimestamp::new(100, 0);
        let b = NtpTimestamp::new(98, 1 << 31);
        assert!(((a - b) - 1.5).abs() < 1e-9);
        assert!(((b - a) + 1.5).abs() < 1e-9);
    }

    #[test]
    fn short_format_round_trip() {
        let s = NtpShort::from_secs_f64(0.125);
        assert!((s.as_secs_f64() - 0.125).abs() < 1e-4);
        assert_eq!(NtpShort::from_secs_f64(-1.0), NtpShort::ZERO);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // guards the hand-computed epoch constant
    fn epoch_offset_magnitude() {
        // 1900→2022 is about 3.85e9 seconds; sanity-check the constant.
        assert!(STUDY_START_NTP_SECS > 3_840_000_000);
        assert!(STUDY_START_NTP_SECS < 3_860_000_000);
    }

    #[test]
    fn display() {
        assert_eq!(NtpTimestamp::new(5, 0xff).to_string(), "5.000000ff");
    }
}
