//! NTP packets pinned byte for byte.
//!
//! The two literals were recorded from the buffer-based encoder that the
//! fixed-array one replaced: a mode-3 client request, and the mode-4
//! response a stratum-2 server sends to it. A change to the header
//! layout, a field's width, its byte order or the server's constants
//! shows up as a byte diff here.

use v6netsim::{Country, SimTime, VantagePoint};
use v6ntp::{NtpClient, NtpPacket, NtpTimestamp, Stratum2Server, PACKET_LEN};

#[rustfmt::skip]
const CLIENT_REQUEST: [u8; PACKET_LEN] = [
    0xe3, 0x00, 0x06, 0xec, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xe5, 0x7a, 0x56, 0x80, 0x12, 0x34, 0x56, 0x78,
];

#[rustfmt::skip]
const SERVER_RESPONSE: [u8; PACKET_LEN] = [
    0x24, 0x02, 0x06, 0xe9, 0x00, 0x00, 0x03, 0x12,
    0x00, 0x00, 0x01, 0x06, 0x0a, 0x00, 0x00, 0x05,
    0xe5, 0x9b, 0x41, 0xb0, 0x00, 0x00, 0x00, 0x00,
    0xe5, 0x9b, 0x42, 0xa0, 0x1c, 0x71, 0xc7, 0x1b,
    0xe5, 0x9b, 0x42, 0xa0, 0x40, 0x00, 0x00, 0x00,
    0xe5, 0x9b, 0x42, 0xa0, 0x40, 0x03, 0x46, 0xdc,
];

#[test]
fn client_request_bytes_are_pinned() {
    let t1 = NtpTimestamp::new(3_850_000_000, 0x1234_5678);
    assert_eq!(NtpPacket::client_request(t1).encode(), CLIENT_REQUEST);
    assert_eq!(NtpClient::start(t1).1, CLIENT_REQUEST);
    let decoded = NtpPacket::decode(&CLIENT_REQUEST).unwrap();
    assert_eq!(decoded, NtpPacket::client_request(t1));
}

#[test]
fn server_response_bytes_are_pinned() {
    let mut server = Stratum2Server::new(VantagePoint {
        id: 5,
        as_index: 0,
        country: Country::new("DE"),
        addr: "2a00:5::1".parse().unwrap(),
    });
    let now = SimTime(100_000);
    let (_, request) = NtpClient::start(NtpTimestamp::from_sim(now, 111_111_111));
    let response = server
        .handle(&request, "2a00:7::aa".parse().unwrap(), now)
        .unwrap();
    assert_eq!(response, SERVER_RESPONSE);
    assert_eq!(
        NtpPacket::decode(&SERVER_RESPONSE).unwrap().encode(),
        SERVER_RESPONSE
    );
}
