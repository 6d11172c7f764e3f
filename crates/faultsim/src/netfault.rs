//! Deterministic connection-fault injection: the transport-layer twin
//! of [`FaultPlan`](crate::FaultPlan).
//!
//! The payload substrate corrupts GPX *bytes*; this module corrupts
//! the *delivery* of bytes over a connection — partial writes, injected
//! delays, mid-body cuts and resets, and slowloris-style header drip.
//! Every decision is a pure function of `(seed, conn_index, op_index)`
//! through the same [`unit_hash`] mixing, so a chaos
//! campaign's connection `i` misbehaves identically at any client
//! thread count and on every re-run: a failing connection index is a
//! complete bug report.
//!
//! The plan is transport-agnostic. [`NetFaultPlan::script`] reduces a
//! connection index to a [`ConnScript`] — what to cut, how to chunk,
//! when to stall — and [`FlakyConn`] applies that script to any
//! `Read + Write` stream. Teardown semantics that only exist on real
//! sockets (FIN vs RST) are described by [`Teardown`] and left to the
//! caller, so the module never depends on `std::net`.

use crate::unit_hash;
use std::io::{Read, Write};
use std::time::Duration;

/// One category of injectable connection misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetFaultKind {
    /// Request bytes delivered in small random chunks (partial writes).
    Chop,
    /// Slowloris: the head dripped one–three bytes at a time with
    /// per-op delays.
    Drip,
    /// A single injected stall before the request is sent.
    Delay,
    /// Delivery stops mid-head, then a clean FIN.
    CutHead,
    /// Delivery stops mid-body, then a clean FIN.
    CutBody,
    /// Delivery stops mid-body, then an abortive reset (RST).
    ResetBody,
    /// The response is read one byte at a time with per-op delays
    /// (a slow reader on the server's write side).
    SlowRead,
}

impl NetFaultKind {
    /// Every connection-fault kind, in canonical order.
    pub const ALL: [NetFaultKind; 7] = [
        NetFaultKind::Chop,
        NetFaultKind::Drip,
        NetFaultKind::Delay,
        NetFaultKind::CutHead,
        NetFaultKind::CutBody,
        NetFaultKind::ResetBody,
        NetFaultKind::SlowRead,
    ];

    /// Stable lowercase name (histogram keys, logs).
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Chop => "chop",
            NetFaultKind::Drip => "drip",
            NetFaultKind::Delay => "delay",
            NetFaultKind::CutHead => "cut_head",
            NetFaultKind::CutBody => "cut_body",
            NetFaultKind::ResetBody => "reset_body",
            NetFaultKind::SlowRead => "slow_read",
        }
    }
}

impl std::fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a faulted connection ends once its script says to stop sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Teardown {
    /// Orderly shutdown of the write side (the peer reads EOF).
    Fin,
    /// Abortive close (`SO_LINGER 0` on a real socket: the peer reads
    /// a connection reset).
    Reset,
}

/// A deterministic connection-fault plan.
///
/// `rate` is the probability a given connection is faulted at all; a
/// faulted connection receives exactly one of the enabled `kinds`.
/// All draws derive from `(seed, conn_index, op_index)`, so the same
/// plan misbehaves identically regardless of scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Master seed for every connection-fault decision.
    pub seed: u64,
    /// Probability a connection is faulted (0 disables the substrate).
    pub rate: f64,
    /// Enabled fault kinds (empty also disables the substrate).
    pub kinds: Vec<NetFaultKind>,
    /// Upper bound on any single injected stall, in microseconds.
    /// Chaos campaigns keep this far below the server's deadlines so
    /// fault outcomes stay deterministic.
    pub max_delay_micros: u64,
}

impl NetFaultPlan {
    /// A plan that faults `rate` of connections with every kind.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "net fault rate must be in [0, 1]");
        Self {
            seed,
            rate,
            kinds: if rate > 0.0 { NetFaultKind::ALL.to_vec() } else { Vec::new() },
            max_delay_micros: 500,
        }
    }

    /// Reduces connection `conn_index` to its full fault script, given
    /// the byte layout of the request it will carry (`head_len` =
    /// offset just past the head terminator, `total_len` = head +
    /// body). Pure in `(seed, conn_index)`.
    pub fn script(&self, conn_index: u64, head_len: usize, total_len: usize) -> ConnScript {
        let draw = |op: u64| unit_hash(self.seed, conn_index, op);
        let base = ConnScript {
            seed: self.seed,
            conn_index,
            kind: None,
            cut: None,
            teardown: Teardown::Fin,
            max_delay_micros: self.max_delay_micros,
        };
        if self.kinds.is_empty() || draw(0) >= self.rate {
            return base;
        }
        let kind = self.kinds[(draw(1) * self.kinds.len() as f64) as usize % self.kinds.len()];
        let in_range = |lo: usize, hi: usize, u: f64| {
            // A draw mapped into [lo, hi); hi > lo is guaranteed by the
            // callers (requests always have a non-empty head and body).
            lo + ((u * (hi - lo) as f64) as usize).min(hi - lo - 1)
        };
        let (cut, teardown) = match kind {
            NetFaultKind::CutHead => {
                // 0 included: a connection that sends nothing at all.
                (Some(in_range(0, head_len.max(1), draw(2))), Teardown::Fin)
            }
            NetFaultKind::CutBody if total_len > head_len => {
                (Some(in_range(head_len, total_len, draw(2))), Teardown::Fin)
            }
            NetFaultKind::ResetBody if total_len > head_len => {
                (Some(in_range(head_len, total_len, draw(2))), Teardown::Reset)
            }
            _ => (None, Teardown::Fin),
        };
        ConnScript { kind: Some(kind), cut, teardown, ..base }
    }
}

/// Everything one connection will do wrong, reduced from the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnScript {
    seed: u64,
    conn_index: u64,
    /// The selected fault kind; `None` for a clean connection.
    pub kind: Option<NetFaultKind>,
    /// Byte offset (into the request stream) where delivery stops;
    /// `None` delivers everything.
    pub cut: Option<usize>,
    /// How the connection ends after a cut.
    pub teardown: Teardown,
    max_delay_micros: u64,
}

impl ConnScript {
    /// Whether this connection behaves perfectly.
    pub fn is_clean(&self) -> bool {
        self.kind.is_none()
    }

    /// Per-op draw stream, disjoint from the plan-level draws (ops 0–2).
    fn op_draw(&self, op: u64) -> f64 {
        unit_hash(self.seed, self.conn_index, 16 + op)
    }

    /// Write chunk size for write op `op` when `remaining` bytes are
    /// still undelivered and `in_head` says whether the cursor is
    /// before the head terminator.
    pub fn write_chunk_len(&self, op: u64, remaining: usize, in_head: bool) -> usize {
        let max = match self.kind {
            // Slowloris drips the head a byte or three at a time; once
            // past the head it stops stalling.
            Some(NetFaultKind::Drip) if in_head => 3,
            Some(NetFaultKind::Chop) => 64,
            Some(NetFaultKind::CutHead | NetFaultKind::CutBody | NetFaultKind::ResetBody) => 64,
            _ => return remaining,
        };
        (1 + (self.op_draw(op) * max as f64) as usize).min(remaining.max(1))
    }

    /// Injected stall before op `op` (zero for most ops).
    pub fn delay(&self, op: u64, in_head: bool) -> Duration {
        let stall = match self.kind {
            Some(NetFaultKind::Drip) if in_head => self.op_draw(op ^ 0x5151) < 0.25,
            Some(NetFaultKind::Delay) => op == 0,
            Some(NetFaultKind::SlowRead) => self.op_draw(op ^ 0x5151) < 0.10,
            _ => false,
        };
        if stall {
            let micros = (self.op_draw(op ^ 0xDE1A) * self.max_delay_micros as f64) as u64;
            Duration::from_micros(micros)
        } else {
            Duration::ZERO
        }
    }

    /// Response read chunk size for read op `op`.
    pub fn read_chunk_len(&self, op: u64, want: usize) -> usize {
        match self.kind {
            Some(NetFaultKind::SlowRead) => 1 + (self.op_draw(op ^ 0x3EAD) * 3.0) as usize,
            _ => want.max(1),
        }
        .min(want.max(1))
    }
}

/// Outcome of pushing a request through a faulted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Every byte was delivered.
    Delivered,
    /// Delivery stopped at this offset (the script's cut).
    Cut {
        /// Bytes actually delivered before the cut.
        at: usize,
    },
}

/// A `Read + Write` stream with a [`ConnScript`] applied to it.
///
/// Writes are chunked, delayed, and cut per the script; reads are
/// chunked and delayed. The wrapper owns an op counter shared by both
/// directions, so the full I/O schedule of a connection is a pure
/// function of `(seed, conn_index)`.
#[derive(Debug)]
pub struct FlakyConn<S> {
    stream: S,
    script: ConnScript,
    /// Bytes of the request stream delivered so far.
    sent: usize,
    /// Monotonic I/O op counter (draw index for chunk/delay decisions).
    ops: u64,
}

impl<S: Read + Write> FlakyConn<S> {
    /// Wraps `stream` under `script`.
    pub fn new(stream: S, script: ConnScript) -> Self {
        Self { stream, script, sent: 0, ops: 0 }
    }

    /// The wrapped stream (for teardown actions the caller applies).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// The script this connection runs.
    pub fn script(&self) -> &ConnScript {
        &self.script
    }

    /// Sends `buf` (the next slice of the request stream) through the
    /// script: chunked, delayed, and stopped at the cut offset.
    /// `head_len` is the request's head length, so the script knows
    /// which ops are "in the head".
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn send(&mut self, buf: &[u8], head_len: usize) -> std::io::Result<SendOutcome> {
        let mut offset = 0usize;
        while offset < buf.len() {
            if let Some(cut) = self.script.cut {
                if self.sent >= cut {
                    return Ok(SendOutcome::Cut { at: self.sent });
                }
            }
            let in_head = self.sent < head_len;
            let remaining = buf.len() - offset;
            let mut n = self.script.write_chunk_len(self.ops, remaining, in_head);
            if let Some(cut) = self.script.cut {
                n = n.min(cut - self.sent);
                if n == 0 {
                    return Ok(SendOutcome::Cut { at: self.sent });
                }
            }
            let stall = self.script.delay(self.ops, in_head);
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            self.ops += 1;
            self.stream.write_all(&buf[offset..offset + n])?;
            offset += n;
            self.sent += n;
        }
        if let Some(cut) = self.script.cut {
            if self.sent >= cut {
                return Ok(SendOutcome::Cut { at: self.sent });
            }
        }
        self.stream.flush()?;
        Ok(SendOutcome::Delivered)
    }

    /// Reads the peer's response to EOF through the script's read
    /// chunking/delays.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn recv_to_end(&mut self) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let want = self.script.read_chunk_len(self.ops, chunk.len());
            let stall = self.script.delay(self.ops, false);
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            self.ops += 1;
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Ok(out),
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request layout every test uses: 40-byte head, 60-byte body.
    const HEAD: usize = 40;
    const TOTAL: usize = 100;

    fn request() -> Vec<u8> {
        (0..TOTAL as u8).collect()
    }

    #[test]
    fn zero_rate_is_always_clean() {
        let plan = NetFaultPlan::uniform(0.0, 7);
        for i in 0..200 {
            assert!(plan.script(i, HEAD, TOTAL).is_clean());
        }
    }

    #[test]
    fn scripts_are_deterministic_and_vary() {
        let plan = NetFaultPlan::uniform(1.0, 9);
        let kinds: Vec<_> = (0..500).map(|i| plan.script(i, HEAD, TOTAL).kind).collect();
        let again: Vec<_> = (0..500).map(|i| plan.script(i, HEAD, TOTAL).kind).collect();
        assert_eq!(kinds, again, "scripts must be pure in (seed, conn_index)");
        for kind in NetFaultKind::ALL {
            assert!(kinds.contains(&Some(kind)), "rate 1.0 over 500 conns must draw {kind}");
        }
    }

    #[test]
    fn cuts_respect_their_regions() {
        let plan = NetFaultPlan::uniform(1.0, 11);
        for i in 0..2000 {
            let s = plan.script(i, HEAD, TOTAL);
            match s.kind {
                Some(NetFaultKind::CutHead) => {
                    assert!(s.cut.expect("cut") < HEAD);
                    assert_eq!(s.teardown, Teardown::Fin);
                }
                Some(NetFaultKind::CutBody) => {
                    let at = s.cut.expect("cut");
                    assert!((HEAD..TOTAL).contains(&at));
                    assert_eq!(s.teardown, Teardown::Fin);
                }
                Some(NetFaultKind::ResetBody) => {
                    let at = s.cut.expect("cut");
                    assert!((HEAD..TOTAL).contains(&at));
                    assert_eq!(s.teardown, Teardown::Reset);
                }
                _ => assert_eq!(s.cut, None),
            }
        }
    }

    /// An in-memory duplex: writes land in a buffer, reads drain a
    /// scripted response.
    struct Loop {
        written: Vec<u8>,
        response: std::io::Cursor<Vec<u8>>,
    }

    impl Read for Loop {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.response.read(buf)
        }
    }

    impl Write for Loop {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn delivered_bytes_are_identical_whatever_the_chunking() {
        let plan = NetFaultPlan {
            max_delay_micros: 0, // keep the test instant
            ..NetFaultPlan::uniform(1.0, 13)
        };
        let req = request();
        let mut delivered_full = 0usize;
        for i in 0..300 {
            let script = plan.script(i, HEAD, TOTAL);
            let cut = script.cut;
            let mut conn = FlakyConn::new(
                Loop { written: Vec::new(), response: std::io::Cursor::new(vec![1, 2, 3]) },
                script,
            );
            let outcome = conn.send(&req, HEAD).expect("in-memory send");
            match (outcome, cut) {
                (SendOutcome::Delivered, None) => {
                    assert_eq!(conn.get_ref().written, req, "conn {i}: bytes mangled");
                    delivered_full += 1;
                }
                (SendOutcome::Cut { at }, Some(cut)) => {
                    assert_eq!(at, cut, "conn {i}: cut at the wrong offset");
                    assert_eq!(conn.get_ref().written, &req[..cut], "conn {i}: prefix mangled");
                }
                (outcome, cut) => panic!("conn {i}: outcome {outcome:?} vs scripted cut {cut:?}"),
            }
            assert_eq!(conn.recv_to_end().expect("recv"), vec![1, 2, 3]);
        }
        assert!(delivered_full > 0, "some faulted connections still deliver everything");
    }

    #[test]
    #[should_panic(expected = "net fault rate")]
    fn uniform_rejects_bad_rate() {
        NetFaultPlan::uniform(1.5, 0);
    }
}
