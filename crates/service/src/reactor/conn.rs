//! Per-connection state machine for the event-driven runtime.
//!
//! A [`Conn`] owns its nonblocking [`TcpStream`] plus the ingress
//! decoder, egress buffer, and the bookkeeping the reactor needs to
//! order work: parsed-but-undispatched frames (`inbox`), the count of
//! jobs currently on a shard queue for this connection (`inflight`),
//! and the session/tenant flags that drive admission, quotas, and the
//! drain. The reactor thread is the only owner — no locks anywhere.
//!
//! This module is lint-scoped as a reactor hot path: no panics, no
//! blocking calls.

use super::frame::{FrameDecoder, FrameError, WriteBuf};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Instant;

/// Most parsed frames a connection may have awaiting dispatch before
/// the reactor calls the pipeline hostile and closes it.
pub(crate) const MAX_INBOX: usize = 64;

/// What one readability event did to a connection.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Read what was there (possibly nothing); connection stays up.
    Progress,
    /// Orderly end of stream from the peer.
    Eof,
    /// A frame overflowed the cap: answer `frame_too_large` and close.
    FrameTooLarge {
        /// Bytes buffered when the cap was hit.
        buffered: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Transport error; drop the connection without ceremony.
    Broken,
}

/// One client connection owned by the reactor thread.
pub(crate) struct Conn {
    /// `None` once the socket is gone (EOF/error/idle-reap) but jobs
    /// for this token are still in flight on a shard queue.
    pub stream: Option<TcpStream>,
    pub decoder: FrameDecoder,
    pub out: WriteBuf,
    /// Parsed request frames awaiting dispatch (one job at a time).
    pub inbox: VecDeque<String>,
    /// Jobs on a shard queue for this token right now.
    pub inflight: u32,
    /// A worker holds a live [`crate::session::TuningSession`] keyed by
    /// this token.
    pub session_live: bool,
    /// A `Create` job is in flight (session may materialize).
    pub session_pending: bool,
    /// Tenant token from `create_session` (quota/fairness key).
    pub tenant: Option<String>,
    /// This connection is parked on its tenant's fairness queue.
    pub deferred: bool,
    /// Close the socket once the write buffer drains.
    pub close_after_flush: bool,
    /// The connection was turned away at accept; it gets one rejection
    /// line (on its first frame or EOF) and a grace-period close.
    pub rejected_reason: Option<&'static str>,
    /// A `Drain` job was queued for this connection.
    pub draining: bool,
    /// Write interest is currently armed with the poller.
    pub write_armed: bool,
    /// Last time bytes arrived (idle-timeout clock).
    pub last_activity: Instant,
}

impl Conn {
    pub fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream: Some(stream),
            decoder: FrameDecoder::new(),
            out: WriteBuf::new(),
            inbox: VecDeque::new(),
            inflight: 0,
            session_live: false,
            session_pending: false,
            tenant: None,
            deferred: false,
            close_after_flush: false,
            rejected_reason: None,
            draining: false,
            write_armed: false,
            last_activity: now,
        }
    }

    /// True when the socket has been dropped but the entry must stay
    /// until outstanding jobs post their completions.
    pub fn is_dead(&self) -> bool {
        self.stream.is_none()
    }

    /// Drains the socket into the frame decoder and moves complete
    /// frames to the inbox. Returns what the reactor should do next.
    pub fn read_ready(&mut self, now: Instant) -> ReadOutcome {
        let Some(stream) = self.stream.as_mut() else {
            return ReadOutcome::Progress;
        };
        let mut buf = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.last_activity = now;
                    // Length is what `read` reported; `get` keeps this
                    // panic-free under the hot-path lint.
                    if let Some(chunk) = buf.get(..n) {
                        self.decoder.push(chunk);
                    }
                    loop {
                        match self.decoder.next_frame() {
                            Ok(Some(frame)) => {
                                if !frame.trim().is_empty() {
                                    self.inbox.push_back(frame);
                                }
                            }
                            Ok(None) => break,
                            Err(FrameError::TooLarge { buffered, limit }) => {
                                return ReadOutcome::FrameTooLarge { buffered, limit };
                            }
                        }
                    }
                    if self.inbox.len() > MAX_INBOX {
                        return ReadOutcome::Broken;
                    }
                    if n < buf.len() {
                        // Short read: the socket is drained for now.
                        return ReadOutcome::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Broken,
            }
        }
    }

    /// Flushes the write buffer. `Ok(true)` = fully drained, `Ok(false)`
    /// = bytes remain (keep write interest armed), `Err` = drop conn.
    pub fn write_ready(&mut self) -> io::Result<bool> {
        match self.stream.as_mut() {
            Some(stream) => self.out.flush_into(stream),
            None => Ok(true),
        }
    }

    /// Queues one response line for flushing.
    pub fn send_line(&mut self, line: &str) {
        if !self.is_dead() {
            self.out.push_line(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn read_ready_frames_dribbled_bytes_and_sees_eof() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        client.write_all(b"{\"v\":1,\"ty").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.read_ready(Instant::now()), ReadOutcome::Progress);
        assert!(conn.inbox.is_empty(), "half a frame must not dispatch");
        client.write_all(b"pe\":\"status\"}\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.read_ready(Instant::now()), ReadOutcome::Progress);
        assert_eq!(conn.inbox.pop_front().as_deref(), Some("{\"v\":1,\"type\":\"status\"}"));
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.read_ready(Instant::now()), ReadOutcome::Eof);
    }

    #[test]
    fn oversized_frame_is_reported_with_sizes() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        conn.decoder = FrameDecoder::with_limit(8);
        client.write_all(b"0123456789abcdef").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        match conn.read_ready(Instant::now()) {
            ReadOutcome::FrameTooLarge { buffered, limit } => {
                assert!(buffered > limit);
                assert_eq!(limit, 8);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn dead_conn_swallows_io() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        conn.stream = None;
        assert!(conn.is_dead());
        assert_eq!(conn.read_ready(Instant::now()), ReadOutcome::Progress);
        conn.send_line("dropped");
        assert!(conn.out.is_empty(), "dead conns must not buffer output");
        assert!(conn.write_ready().unwrap());
    }
}
