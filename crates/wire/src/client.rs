//! The wire client: speaks the framed protocol over any [`Transport`].
//!
//! Deliberately minimal and sans-io like the server side: `send`
//! queues a request frame, `poll` drains whatever response frames have
//! arrived. Request ids are assigned sequentially and echoed by the
//! server, so callers can pipeline and match out of order. The client
//! validates the server's preamble and checks every inbound frame —
//! corruption injected by a chaos transport surfaces as a typed
//! [`WireClientError`], at which point the caller reconnects (the
//! chaos bench does exactly that).

use crate::frame::{
    check_preamble, frame_into, preamble, trim, FrameDecoder, FrameError, PREAMBLE_LEN,
};
use crate::proto::{Request, Response};
use crate::transport::{Transport, TransportError};

/// Why a client operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireClientError {
    /// The transport closed.
    Transport(TransportError),
    /// The server's byte stream violated the protocol (bad preamble,
    /// framing, or an undecodable response) — reconnect.
    Protocol(FrameError),
}

impl std::fmt::Display for WireClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireClientError::Transport(e) => write!(f, "transport: {e}"),
            WireClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for WireClientError {}

impl From<TransportError> for WireClientError {
    fn from(e: TransportError) -> Self {
        WireClientError::Transport(e)
    }
}

impl From<FrameError> for WireClientError {
    fn from(e: FrameError) -> Self {
        WireClientError::Protocol(e)
    }
}

/// A protocol client over one transport connection.
pub struct WireClient<T> {
    transport: T,
    decoder: FrameDecoder,
    preamble_buf: Vec<u8>,
    preamble_ok: bool,
    next_id: u64,
    /// What `poll` receives into, reused across calls.
    inbuf: Vec<u8>,
    /// The request frame `send` encodes in place, reused across calls.
    outbuf: Vec<u8>,
}

impl<T: Transport> WireClient<T> {
    /// Opens the connection: sends this side's preamble immediately.
    pub fn connect(mut transport: T, now_us: u64) -> Result<Self, WireClientError> {
        transport.send(&preamble(), now_us)?;
        Ok(WireClient {
            transport,
            decoder: FrameDecoder::new(),
            preamble_buf: Vec::with_capacity(PREAMBLE_LEN),
            preamble_ok: false,
            next_id: 1,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
        })
    }

    /// Sends one request; returns the id its response will echo.
    pub fn send(&mut self, req: &Request, now_us: u64) -> Result<u64, WireClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.outbuf.clear();
        frame_into(&mut self.outbuf, |b| req.encode_into(id, b));
        let sent = self.transport.send(&self.outbuf, now_us);
        trim(&mut self.outbuf);
        sent?;
        Ok(id)
    }

    /// Drains every `(request_id, response)` pair that has arrived by
    /// `now_us`. The returned `Vec` is the only allocation a poll of
    /// single-address answers makes.
    pub fn poll(&mut self, now_us: u64) -> Result<Vec<(u64, Response)>, WireClientError> {
        self.inbuf.clear();
        self.transport.recv_into(now_us, &mut self.inbuf)?;
        let mut bytes = &self.inbuf[..];
        if !self.preamble_ok {
            let need = PREAMBLE_LEN - self.preamble_buf.len();
            let take = need.min(bytes.len());
            self.preamble_buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.preamble_buf.len() < PREAMBLE_LEN {
                return Ok(Vec::new());
            }
            let fixed: [u8; PREAMBLE_LEN] =
                self.preamble_buf[..].try_into().expect("length checked");
            check_preamble(&fixed)?;
            self.preamble_ok = true;
        }
        let mut responses = Vec::new();
        let mut undecodable = None;
        let fed = self.decoder.feed_each(bytes, |payload| {
            if undecodable.is_none() {
                match Response::decode(payload) {
                    Ok(pair) => responses.push(pair),
                    Err(e) => undecodable = Some(e),
                }
            }
        });
        self.inbuf.clear();
        trim(&mut self.inbuf);
        fed?;
        match undecodable {
            Some(e) => Err(e.into()),
            None => Ok(responses),
        }
    }

    /// Closes this end of the connection.
    pub fn close(&mut self) {
        self.transport.close();
    }
}
