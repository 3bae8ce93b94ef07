//! A stratum-2 NTP server.
//!
//! This is the paper's measurement instrument (§3): a cheap VPS running a
//! stratum-2 server joined to the pool. It answers real mode-3 packets;
//! the caller that hands it a packet keeps the `(time, source address)`
//! log, which is all the paper kept, since NTP requests carry no PII
//! (§3, Ethics).

use std::net::Ipv6Addr;

use v6netsim::{SimTime, VantagePoint};

use crate::packet::{LeapIndicator, Mode, NtpPacket, PacketError, PACKET_LEN};
use crate::timestamp::{NtpShort, NtpTimestamp};

/// Why a request was dropped instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Could not decode the packet.
    Malformed(PacketError),
    /// Not a client-mode request.
    NotAClientRequest(Mode),
}

/// A stratum-2 server joined to the pool at one vantage point.
#[derive(Debug)]
pub struct Stratum2Server {
    /// The vantage point this server runs at.
    pub vp: VantagePoint,
    /// Upstream (stratum-1) reference id.
    pub reference_id: u32,
    served: u64,
    dropped: u64,
}

impl Stratum2Server {
    /// Creates a server at a vantage point.
    pub fn new(vp: VantagePoint) -> Self {
        // Reference id derived from the VP id (an upstream stratum-1).
        let reference_id = 0x0a00_0000 | vp.id as u32;
        Stratum2Server {
            vp,
            reference_id,
            served: 0,
            dropped: 0,
        }
    }

    /// Handles one inbound wire packet: decodes, validates, counts it, and
    /// produces the encoded mode-4 response. The response goes back to the
    /// datagram's source `_src`, which the caller logs: the answer does
    /// not depend on it.
    pub fn handle(
        &mut self,
        wire: &[u8],
        _src: Ipv6Addr,
        now: SimTime,
    ) -> Result<[u8; PACKET_LEN], ServeError> {
        let req = match NtpPacket::decode(wire) {
            Ok(p) => p,
            Err(e) => {
                self.dropped += 1;
                return Err(ServeError::Malformed(e));
            }
        };
        if req.mode != Mode::Client {
            self.dropped += 1;
            return Err(ServeError::NotAClientRequest(req.mode));
        }
        self.served += 1;

        let rx = NtpTimestamp::from_sim(now, 250_000_000);
        let tx = NtpTimestamp::from_sim(now, 250_050_000); // ~50 µs serve time
        let resp = NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: 2,
            poll: req.poll,
            precision: -23,
            root_delay: NtpShort::from_secs_f64(0.012),
            root_dispersion: NtpShort::from_secs_f64(0.004),
            reference_id: self.reference_id,
            reference_ts: NtpTimestamp::from_sim(now - v6netsim::SimDuration::minutes(4), 0),
            origin_ts: req.transmit_ts,
            receive_ts: rx,
            transmit_ts: tx,
        };
        Ok(resp.encode())
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests dropped (malformed / wrong mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::{World, WorldConfig};

    fn server() -> Stratum2Server {
        let w = World::build(WorldConfig::tiny(), 3);
        Stratum2Server::new(w.vantage_points[0].clone())
    }

    fn src() -> Ipv6Addr {
        "2a00:1:8000::42".parse().unwrap()
    }

    #[test]
    fn serves_client_request_and_logs_source() {
        let mut s = server();
        let t1 = NtpTimestamp::from_sim(SimTime(1000), 0);
        let req = NtpPacket::client_request(t1).encode();
        let resp = s.handle(&req, src(), SimTime(1000)).unwrap();
        let resp = NtpPacket::decode(&resp).unwrap();
        assert_eq!(resp.mode, Mode::Server);
        assert_eq!(resp.stratum, 2);
        // The server must echo T1 into the origin field.
        assert_eq!(resp.origin_ts, t1);
        assert!(resp.receive_ts <= resp.transmit_ts);
        assert_eq!(s.served(), 1);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn rejects_malformed() {
        let mut s = server();
        let err = s.handle(&[1, 2, 3], src(), SimTime(0)).unwrap_err();
        assert!(matches!(err, ServeError::Malformed(_)));
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.served(), 0);
    }

    #[test]
    fn rejects_non_client_mode() {
        let mut s = server();
        let mut p = NtpPacket::client_request(NtpTimestamp::ZERO);
        p.mode = Mode::Server;
        let err = s.handle(&p.encode(), src(), SimTime(0)).unwrap_err();
        assert_eq!(err, ServeError::NotAClientRequest(Mode::Server));
    }
}
