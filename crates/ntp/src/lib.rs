//! # v6ntp — RFC 5905 NTP and the NTP Pool model
//!
//! The measurement instrument of *IPv6 Hitlists at Scale* (SIGCOMM 2023)
//! is the Network Time Protocol: 27 stratum-2 servers joined to the NTP
//! Pool, passively logging client source addresses. This crate provides:
//!
//! * [`timestamp`] — 64-bit NTP timestamps and the 16.16 short format.
//! * [`packet`] — the 48-byte NTPv4 header codec (encode/decode).
//! * [`server`] — a stratum-2 server state machine.
//! * [`client`] — the client half: request generation, response
//!   validation, offset/delay computation.
//! * [`pool`] — geo-DNS candidate selection (country, else continent,
//!   else global) and round-robin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod packet;
pub mod pool;
pub mod server;
pub mod timestamp;

pub use client::{NtpClient, SyncError, SyncResult};
pub use packet::{LeapIndicator, Mode, NtpPacket, PacketError, PACKET_LEN};
pub use pool::NtpPool;
pub use server::{ServeError, Stratum2Server};
pub use timestamp::{NtpShort, NtpTimestamp};
