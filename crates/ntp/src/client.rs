//! The client half of the NTP exchange.
//!
//! Devices in the simulation "really" query the pool: they encode a
//! mode-3 packet, the chosen server decodes and answers it, and the client
//! computes offset/delay from the four timestamps — the full RFC 5905
//! on-wire round trip, which is what makes the passive collection
//! faithful rather than a bookkeeping shortcut.

use crate::packet::{Mode, NtpPacket, PacketError, PACKET_LEN};
use crate::timestamp::NtpTimestamp;

/// Result of a completed client exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Clock offset θ = ((T2−T1)+(T3−T4))/2, seconds.
    pub offset: f64,
    /// Round-trip delay δ = (T4−T1)−(T3−T2), seconds.
    pub delay: f64,
    /// Stratum of the server that answered.
    pub server_stratum: u8,
}

/// Errors completing an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncError {
    /// Could not decode the response.
    Malformed(PacketError),
    /// The response was not mode 4.
    NotAServerResponse(Mode),
    /// The origin timestamp did not echo our transmit timestamp
    /// (off-path spoofing defence, RFC 5905 §8).
    OriginMismatch,
    /// Server is unsynchronized (stratum 0 or 16).
    Unsynchronized,
}

/// A minimal SNTP client state machine for one exchange.
#[derive(Debug, Clone, Copy)]
pub struct NtpClient {
    t1: NtpTimestamp,
}

impl NtpClient {
    /// Starts an exchange at local time `t1`, producing the request wire
    /// bytes.
    pub fn start(t1: NtpTimestamp) -> (Self, [u8; PACKET_LEN]) {
        (NtpClient { t1 }, NtpPacket::client_request(t1).encode())
    }

    /// Completes the exchange with the response received at local time
    /// `t4`.
    pub fn finish(self, wire: &[u8], t4: NtpTimestamp) -> Result<SyncResult, SyncError> {
        let resp = NtpPacket::decode(wire).map_err(SyncError::Malformed)?;
        if resp.mode != Mode::Server {
            return Err(SyncError::NotAServerResponse(resp.mode));
        }
        if resp.origin_ts != self.t1 {
            return Err(SyncError::OriginMismatch);
        }
        if resp.stratum == 0 || resp.stratum >= 16 {
            return Err(SyncError::Unsynchronized);
        }
        let (t1, t2, t3) = (self.t1, resp.receive_ts, resp.transmit_ts);
        let offset = ((t2 - t1) + (t3 - t4)) / 2.0;
        let delay = (t4 - t1) - (t3 - t2);
        Ok(SyncResult {
            offset,
            delay,
            server_stratum: resp.stratum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::LeapIndicator;
    use crate::timestamp::NtpShort;

    fn ts(s: u32, half: bool) -> NtpTimestamp {
        NtpTimestamp::new(s, if half { 1 << 31 } else { 0 })
    }

    fn response(origin: NtpTimestamp, t2: NtpTimestamp, t3: NtpTimestamp) -> [u8; PACKET_LEN] {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: 2,
            poll: 6,
            precision: -23,
            root_delay: NtpShort::ZERO,
            root_dispersion: NtpShort::ZERO,
            reference_id: 1,
            reference_ts: t2,
            origin_ts: origin,
            receive_ts: t2,
            transmit_ts: t3,
        }
        .encode()
    }

    #[test]
    fn computes_offset_and_delay() {
        // Client clock 1 s behind server; 0.5 s each-way network delay.
        // T1=100 (client) = 101 (server); T2=101.5; T3=101.5; T4=101 (client).
        let t1 = ts(100, false);
        let (c, _req) = NtpClient::start(t1);
        let res = c
            .finish(&response(t1, ts(101, true), ts(101, true)), ts(101, false))
            .unwrap();
        assert!((res.offset - 1.0).abs() < 1e-9, "offset = {}", res.offset);
        assert!((res.delay - 1.0).abs() < 1e-9, "delay = {}", res.delay);
        assert_eq!(res.server_stratum, 2);
    }

    #[test]
    fn zero_offset_symmetric_path() {
        let t1 = ts(200, false);
        let (c, _req) = NtpClient::start(t1);
        // 0.5 s each way, clocks agree.
        let res = c
            .finish(&response(t1, ts(200, true), ts(200, true)), ts(201, false))
            .unwrap();
        assert!(res.offset.abs() < 1e-9);
        assert!((res.delay - 1.0).abs() < 1e-9);
    }

    #[test]
    fn origin_mismatch_rejected() {
        let (c, _req) = NtpClient::start(ts(100, false));
        let r = response(ts(999, false), ts(100, true), ts(100, true));
        assert_eq!(c.finish(&r, ts(101, false)), Err(SyncError::OriginMismatch));
    }

    #[test]
    fn unsynchronized_rejected() {
        let t1 = ts(100, false);
        let (c, _req) = NtpClient::start(t1);
        let mut p = NtpPacket::decode(&response(t1, t1, t1)).unwrap();
        p.stratum = 16;
        assert_eq!(
            c.finish(&p.encode(), ts(101, false)),
            Err(SyncError::Unsynchronized)
        );
    }

    #[test]
    fn wrong_mode_rejected() {
        let t1 = ts(100, false);
        let (c, _req) = NtpClient::start(t1);
        let mut p = NtpPacket::decode(&response(t1, t1, t1)).unwrap();
        p.mode = Mode::Broadcast;
        assert_eq!(
            c.finish(&p.encode(), ts(101, false)),
            Err(SyncError::NotAServerResponse(Mode::Broadcast))
        );
    }

    #[test]
    fn end_to_end_with_server() {
        use crate::server::Stratum2Server;
        use v6netsim::{SimTime, World, WorldConfig};
        let w = World::build(WorldConfig::tiny(), 5);
        let mut server = Stratum2Server::new(w.vantage_points[0].clone());
        let now = SimTime(5000);
        let t1 = NtpTimestamp::from_sim(now, 0);
        let (client, req) = NtpClient::start(t1);
        let resp = server
            .handle(&req, "2a00:2:8000::1".parse().unwrap(), now)
            .unwrap();
        let t4 = NtpTimestamp::from_sim(now, 400_000_000);
        let res = client.finish(&resp, t4).unwrap();
        assert_eq!(res.server_stratum, 2);
        assert!(res.delay >= 0.0);
        assert!(res.offset.abs() < 1.0);
    }
}
