//! The 48-byte NTPv4 packet (RFC 5905 §7.3).
//!
//! The paper's collectors are real stratum-2 NTP servers; our simulated
//! collectors run real packets through a real codec so the collection path
//! is faithful: clients *encode* mode-3 requests, servers *decode* them,
//! log the source address, and encode mode-4 responses.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::timestamp::{NtpShort, NtpTimestamp};

/// Wire size of a bare NTPv4 header.
pub const PACKET_LEN: usize = 48;

/// Leap Indicator (RFC 5905 §7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeapIndicator {
    /// No warning.
    NoWarning,
    /// Last minute of the day has 61 seconds.
    LastMinute61,
    /// Last minute of the day has 59 seconds.
    LastMinute59,
    /// Clock unsynchronized.
    Unknown,
}

impl LeapIndicator {
    fn from_bits(b: u8) -> Self {
        match b & 0b11 {
            0 => LeapIndicator::NoWarning,
            1 => LeapIndicator::LastMinute61,
            2 => LeapIndicator::LastMinute59,
            _ => LeapIndicator::Unknown,
        }
    }

    fn bits(self) -> u8 {
        match self {
            LeapIndicator::NoWarning => 0,
            LeapIndicator::LastMinute61 => 1,
            LeapIndicator::LastMinute59 => 2,
            LeapIndicator::Unknown => 3,
        }
    }
}

/// Protocol mode (RFC 5905 §7.3). We model the client/server exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Reserved.
    Reserved,
    /// Symmetric active.
    SymmetricActive,
    /// Symmetric passive.
    SymmetricPassive,
    /// Client request.
    Client,
    /// Server response.
    Server,
    /// Broadcast.
    Broadcast,
    /// NTP control message.
    Control,
    /// Private use.
    Private,
}

impl Mode {
    fn from_bits(b: u8) -> Self {
        match b & 0b111 {
            0 => Mode::Reserved,
            1 => Mode::SymmetricActive,
            2 => Mode::SymmetricPassive,
            3 => Mode::Client,
            4 => Mode::Server,
            5 => Mode::Broadcast,
            6 => Mode::Control,
            _ => Mode::Private,
        }
    }

    fn bits(self) -> u8 {
        match self {
            Mode::Reserved => 0,
            Mode::SymmetricActive => 1,
            Mode::SymmetricPassive => 2,
            Mode::Client => 3,
            Mode::Server => 4,
            Mode::Broadcast => 5,
            Mode::Control => 6,
            Mode::Private => 7,
        }
    }
}

/// A decoded NTPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NtpPacket {
    /// Leap indicator.
    pub leap: LeapIndicator,
    /// Version number (4 for NTPv4).
    pub version: u8,
    /// Protocol mode.
    pub mode: Mode,
    /// Stratum (1 = primary, 2 = our servers, 16 = unsynchronized).
    pub stratum: u8,
    /// Log2 poll interval in seconds.
    pub poll: i8,
    /// Log2 clock precision in seconds.
    pub precision: i8,
    /// Total round-trip delay to the reference clock.
    pub root_delay: NtpShort,
    /// Total dispersion to the reference clock.
    pub root_dispersion: NtpShort,
    /// Reference identifier (upstream server for stratum ≥ 2).
    pub reference_id: u32,
    /// When the system clock was last set.
    pub reference_ts: NtpTimestamp,
    /// Client transmit time, echoed by the server ("origin", T1).
    pub origin_ts: NtpTimestamp,
    /// Server receive time (T2).
    pub receive_ts: NtpTimestamp,
    /// Transmit time (client: T1; server: T3).
    pub transmit_ts: NtpTimestamp,
}

/// Errors decoding an NTP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer than 48 bytes.
    Truncated,
    /// Version outside 1..=4.
    BadVersion(u8),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => f.write_str("NTP packet shorter than 48 bytes"),
            PacketError::BadVersion(v) => write!(f, "unsupported NTP version {v}"),
        }
    }
}

impl std::error::Error for PacketError {}

impl NtpPacket {
    /// A fresh mode-3 client request with `transmit_ts` set to T1.
    pub fn client_request(transmit_ts: NtpTimestamp) -> Self {
        NtpPacket {
            leap: LeapIndicator::Unknown,
            version: 4,
            mode: Mode::Client,
            stratum: 0,
            poll: 6, // 64 s
            precision: -20,
            root_delay: NtpShort::ZERO,
            root_dispersion: NtpShort::ZERO,
            reference_id: 0,
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts,
        }
    }

    /// Encodes into 48 bytes.
    pub fn encode(&self) -> [u8; PACKET_LEN] {
        let mut buf = [0u8; PACKET_LEN];
        buf[0] = (self.leap.bits() << 6) | ((self.version & 0b111) << 3) | self.mode.bits();
        buf[1] = self.stratum;
        buf[2] = self.poll as u8;
        buf[3] = self.precision as u8;
        buf[4..8].copy_from_slice(&self.root_delay.0.to_be_bytes());
        buf[8..12].copy_from_slice(&self.root_dispersion.0.to_be_bytes());
        buf[12..16].copy_from_slice(&self.reference_id.to_be_bytes());
        buf[16..24].copy_from_slice(&self.reference_ts.0.to_be_bytes());
        buf[24..32].copy_from_slice(&self.origin_ts.0.to_be_bytes());
        buf[32..40].copy_from_slice(&self.receive_ts.0.to_be_bytes());
        buf[40..48].copy_from_slice(&self.transmit_ts.0.to_be_bytes());
        buf
    }

    /// Decodes from wire bytes (extensions, if any, are ignored).
    pub fn decode(data: &[u8]) -> Result<Self, PacketError> {
        let b = data
            .first_chunk::<PACKET_LEN>()
            .ok_or(PacketError::Truncated)?;
        let version = (b[0] >> 3) & 0b111;
        if !(1..=4).contains(&version) {
            return Err(PacketError::BadVersion(version));
        }
        let u32_at = |i: usize| u32::from_be_bytes(b[i..i + 4].try_into().expect("4 bytes"));
        let ts_at =
            |i: usize| NtpTimestamp(u64::from_be_bytes(b[i..i + 8].try_into().expect("8 bytes")));
        Ok(NtpPacket {
            leap: LeapIndicator::from_bits(b[0] >> 6),
            version,
            mode: Mode::from_bits(b[0]),
            stratum: b[1],
            poll: b[2] as i8,
            precision: b[3] as i8,
            root_delay: NtpShort(u32_at(4)),
            root_dispersion: NtpShort(u32_at(8)),
            reference_id: u32_at(12),
            reference_ts: ts_at(16),
            origin_ts: ts_at(24),
            receive_ts: ts_at(32),
            transmit_ts: ts_at(40),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NtpPacket {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: 2,
            poll: 6,
            precision: -23,
            root_delay: NtpShort::from_secs_f64(0.015),
            root_dispersion: NtpShort::from_secs_f64(0.002),
            reference_id: 0xc0a8_0101,
            reference_ts: NtpTimestamp::new(3_850_000_000, 1),
            origin_ts: NtpTimestamp::new(3_850_000_001, 2),
            receive_ts: NtpTimestamp::new(3_850_000_002, 3),
            transmit_ts: NtpTimestamp::new(3_850_000_003, 4),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        let wire = p.encode();
        assert_eq!(wire.len(), PACKET_LEN);
        assert_eq!(NtpPacket::decode(&wire).unwrap(), p);
    }

    #[test]
    fn client_request_shape() {
        let p = NtpPacket::client_request(NtpTimestamp::new(3_850_000_000, 0));
        let wire = p.encode();
        // LI=3 VN=4 Mode=3 → 0b11_100_011 = 0xe3, the classic first byte.
        assert_eq!(wire[0], 0xe3);
        let d = NtpPacket::decode(&wire).unwrap();
        assert_eq!(d.mode, Mode::Client);
        assert_eq!(d.version, 4);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(NtpPacket::decode(&[0; 47]), Err(PacketError::Truncated));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = sample().encode().to_vec();
        wire[0] = (wire[0] & !0b0011_1000) | (7 << 3);
        assert_eq!(NtpPacket::decode(&wire), Err(PacketError::BadVersion(7)));
        wire[0] &= !0b0011_1000; // version 0
        assert_eq!(NtpPacket::decode(&wire), Err(PacketError::BadVersion(0)));
    }

    #[test]
    fn extensions_ignored() {
        let mut wire = sample().encode().to_vec();
        wire.extend_from_slice(&[0u8; 20]);
        assert_eq!(NtpPacket::decode(&wire).unwrap(), sample());
    }

    #[test]
    fn all_modes_round_trip() {
        for m in [
            Mode::Reserved,
            Mode::SymmetricActive,
            Mode::SymmetricPassive,
            Mode::Client,
            Mode::Server,
            Mode::Broadcast,
            Mode::Control,
            Mode::Private,
        ] {
            assert_eq!(Mode::from_bits(m.bits()), m);
        }
        for l in [
            LeapIndicator::NoWarning,
            LeapIndicator::LastMinute61,
            LeapIndicator::LastMinute59,
            LeapIndicator::Unknown,
        ] {
            assert_eq!(LeapIndicator::from_bits(l.bits()), l);
        }
    }
}
