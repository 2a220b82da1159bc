//! Incremental JSONL framing for nonblocking sockets.
//!
//! [`FrameDecoder`] accumulates bytes as they trickle in (frames may be
//! split across arbitrary read boundaries) and yields one complete
//! newline-terminated line at a time. A line that grows past the
//! configured cap is a protocol violation — the decoder reports
//! [`FrameError::TooLarge`] and the connection must be closed, which is
//! the only alternative to unbounded buffer growth on a hostile peer.
//!
//! [`WriteBuf`] is the mirror image for the egress side: responses are
//! queued as whole lines and flushed opportunistically; short writes
//! leave the remainder buffered for the next writability event.
//!
//! This module is in the reactor's panic-free hot path: no slice
//! indexing, no unwrap — everything is drain/iterator based.

use std::collections::VecDeque;
use std::io::{self, Write};

/// Hard cap on a single JSONL frame (request or response line).
pub const MAX_FRAME: usize = 64 * 1024;

/// Why the decoder gave up on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded the frame cap, terminated or not.
    TooLarge {
        /// Bytes buffered when the cap was hit.
        buffered: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FrameError::TooLarge { buffered, limit } => {
                write!(f, "frame_too_large: {buffered} bytes buffered, limit {limit}")
            }
        }
    }
}

/// Incremental newline-delimited frame decoder.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// Decoder with the default [`MAX_FRAME`] cap.
    pub fn new() -> Self {
        Self::with_limit(MAX_FRAME)
    }

    /// Decoder with a custom frame cap (tests use tiny caps).
    pub fn with_limit(max: usize) -> Self {
        Self { buf: Vec::new(), max, poisoned: false }
    }

    /// Feeds freshly-read bytes into the decoder.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes currently buffered awaiting a newline.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete line (without its terminator, `\r\n`
    /// tolerated; the cap counts a `\r`), or reports that the peer
    /// overflowed the cap — with a line still unterminated, or with a whole
    /// line longer than the cap delivered in one push. Once
    /// `TooLarge` is returned the decoder is poisoned and yields
    /// nothing further.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        if self.poisoned {
            return self.poison();
        }
        match self.buf.iter().position(|&b| b == b'\n') {
            // A whole line can arrive in one read; past the cap it is as
            // much a violation as an unterminated one.
            Some(pos) if pos > self.max => self.poison(),
            Some(pos) => {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n itself
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Ok(Some(String::from_utf8_lossy(&line).into_owned()))
            }
            None if self.buf.len() > self.max => self.poison(),
            None => Ok(None),
        }
    }

    fn poison(&mut self) -> Result<Option<String>, FrameError> {
        self.poisoned = true;
        Err(FrameError::TooLarge { buffered: self.buf.len(), limit: self.max })
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Buffered egress with short-write tolerance.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: VecDeque<u8>,
}

impl WriteBuf {
    /// Empty write buffer.
    pub fn new() -> Self {
        Self { buf: VecDeque::new() }
    }

    /// Queues a response line; the newline terminator is appended here
    /// so callers never worry about framing.
    pub fn push_line(&mut self, line: &str) {
        self.buf.extend(line.as_bytes().iter().copied());
        self.buf.push_back(b'\n');
    }

    /// True when everything queued has been flushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes as much as the socket will take right now. Returns
    /// `Ok(true)` when the buffer fully drained, `Ok(false)` when a
    /// short write or `WouldBlock` left bytes pending (caller should
    /// arm write interest), and `Err` on a real socket error.
    pub fn flush_into<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            let chunk = if front.is_empty() {
                // Contiguity after wraparound: make_contiguous is O(n)
                // but only runs when the ring actually wrapped.
                self.buf.make_contiguous();
                let (f, _) = self.buf.as_slices();
                f
            } else {
                front
            };
            match w.write(chunk) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "socket wrote 0 bytes"))
                }
                Ok(n) => {
                    self.buf.drain(..n.min(self.buf.len()));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_across_arbitrary_read_boundaries() {
        let payload = b"{\"type\":\"status\"}\n{\"type\":\"step\",\"session\":4}\r\n{\"k\":1}\n";
        // Byte-dribble: feed one byte at a time and collect frames as
        // they complete.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in payload.iter() {
            dec.push(std::slice::from_ref(b));
            while let Ok(Some(f)) = dec.next_frame() {
                frames.push(f);
            }
        }
        assert_eq!(
            frames,
            vec![
                "{\"type\":\"status\"}".to_string(),
                "{\"type\":\"step\",\"session\":4}".to_string(),
                "{\"k\":1}".to_string(),
            ]
        );
        assert_eq!(dec.buffered(), 0);

        // Torn frames: split at every possible boundary, two chunks.
        for cut in 0..payload.len() {
            let mut dec = FrameDecoder::new();
            let (a, b) = payload.split_at(cut);
            dec.push(a);
            let mut got = Vec::new();
            while let Ok(Some(f)) = dec.next_frame() {
                got.push(f);
            }
            dec.push(b);
            while let Ok(Some(f)) = dec.next_frame() {
                got.push(f);
            }
            assert_eq!(got.len(), 3, "cut at {cut}");
            assert_eq!(got, frames, "cut at {cut}");
        }
    }

    #[test]
    fn several_frames_in_one_push_drain_in_order() {
        let mut dec = FrameDecoder::new();
        dec.push(b"a\nb\nc\npartial");
        assert_eq!(dec.next_frame().unwrap(), Some("a".to_string()));
        assert_eq!(dec.next_frame().unwrap(), Some("b".to_string()));
        assert_eq!(dec.next_frame().unwrap(), Some("c".to_string()));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 7);
        dec.push(b" done\n");
        assert_eq!(dec.next_frame().unwrap(), Some("partial done".to_string()));
    }

    #[test]
    fn oversized_line_poisons_the_decoder() {
        let mut dec = FrameDecoder::with_limit(16);
        dec.push(&[b'x'; 17]);
        match dec.next_frame() {
            Err(FrameError::TooLarge { buffered, limit }) => {
                assert_eq!(buffered, 17);
                assert_eq!(limit, 16);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Poisoned: even a newline arriving later yields nothing.
        dec.push(b"\nok\n");
        assert!(dec.next_frame().is_err());
        // A line exactly at the limit is fine when its newline arrives.
        let mut dec = FrameDecoder::with_limit(16);
        dec.push(&[b'y'; 16]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.push(b"\n");
        assert_eq!(dec.next_frame().unwrap().map(|s| s.len()), Some(16));
    }

    /// Seeded decode fuzz: random chunks (printable bytes, newlines, `\r`
    /// and arbitrary bytes) against a reference split of the same stream.
    /// Every frame must be the reference's next line and no longer than the
    /// cap; the decoder may wait only while the unterminated tail fits the
    /// cap, and once it refuses it stays poisoned. A failure prints the case.
    #[test]
    fn random_chunks_never_yield_a_frame_past_the_cap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for case in 0..512u64 {
            let run = || {
                let mut rng = StdRng::seed_from_u64(case);
                let limit = rng.gen_range(1..=48usize);
                let mut dec = FrameDecoder::with_limit(limit);
                let mut stream: Vec<u8> = Vec::new(); // pushed, not yet framed
                for _ in 0..rng.gen_range(1..40usize) {
                    let len = rng.gen_range(0..=2 * limit + 2);
                    let chunk: Vec<u8> = (0..len)
                        .map(|_| match rng.gen_range(0..10u32) {
                            0 => b'\n',
                            1 => b'\r',
                            2 => rng.gen(),
                            _ => rng.gen_range(b' '..=b'~'),
                        })
                        .collect();
                    dec.push(&chunk);
                    stream.extend_from_slice(&chunk);
                    loop {
                        let newline = stream.iter().position(|&b| b == b'\n');
                        match dec.next_frame() {
                            Ok(Some(frame)) => {
                                let pos = newline.expect("a frame needs a newline");
                                let mut line: Vec<u8> = stream.drain(..=pos).collect();
                                line.pop();
                                if line.last() == Some(&b'\r') {
                                    line.pop();
                                }
                                assert!(line.len() <= limit, "{} > {limit}", line.len());
                                assert_eq!(frame, String::from_utf8_lossy(&line));
                            }
                            Ok(None) => {
                                assert!(newline.is_none() && stream.len() <= limit);
                                break;
                            }
                            Err(FrameError::TooLarge { limit: l, .. }) => {
                                assert_eq!(l, limit);
                                assert!(newline.unwrap_or(stream.len()) > limit);
                                dec.push(b"\nok\n");
                                assert!(dec.next_frame().is_err(), "poisoned for good");
                                return;
                            }
                        }
                    }
                }
            };
            if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                eprintln!("frame fuzz failed on case {case} (the generator's seed)");
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[test]
    fn a_run_without_newline_poisons_just_past_max_frame() {
        let mut dec = FrameDecoder::new();
        let chunk = [b'a'; 4096];
        let mut pushed = 0;
        let err = loop {
            dec.push(&chunk);
            pushed += chunk.len();
            match dec.next_frame() {
                Ok(None) => assert!(pushed <= MAX_FRAME, "waited at {pushed} bytes"),
                Ok(Some(frame)) => panic!("a frame of {} bytes with no newline", frame.len()),
                Err(e) => break e,
            }
        };
        assert_eq!(err, FrameError::TooLarge { buffered: MAX_FRAME + 4096, limit: MAX_FRAME });
        dec.push(b"\n{\"v\":1,\"type\":\"status\"}\n");
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.buffered(), MAX_FRAME + 4096, "a poisoned decoder buffers nothing more");
        // A whole oversized line in one push is refused the same way.
        let mut dec = FrameDecoder::with_limit(16);
        dec.push(b"ok\n0123456789abcdefg\nok\n");
        assert_eq!(dec.next_frame(), Ok(Some("ok".to_string())));
        assert!(dec.next_frame().is_err());
        assert!(dec.next_frame().is_err());
    }

    /// A writer that accepts at most `cap` bytes per call, then
    /// WouldBlocks `stalls` times before accepting more.
    struct ShortWriter {
        cap: usize,
        stalls: usize,
        out: Vec<u8>,
    }
    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.stalls > 0 {
                self.stalls -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_short_writes_and_wouldblock() {
        let mut wb = WriteBuf::new();
        wb.push_line("{\"a\":1}");
        wb.push_line("{\"b\":2}");
        let total = wb.buf.len();
        assert_eq!(total, 16);

        let mut w = ShortWriter { cap: 3, stalls: 2, out: Vec::new() };
        // First two calls stall entirely.
        assert!(!wb.flush_into(&mut w).unwrap());
        assert!(!wb.flush_into(&mut w).unwrap());
        assert_eq!(wb.buf.len(), total);
        // Then 3 bytes at a time until drained.
        assert!(wb.flush_into(&mut w).unwrap());
        assert!(wb.is_empty());
        assert_eq!(w.out, b"{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn write_zero_is_a_hard_error() {
        struct ZeroWriter;
        impl Write for ZeroWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::new();
        wb.push_line("x");
        let err = wb.flush_into(&mut ZeroWriter).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
