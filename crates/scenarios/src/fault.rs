//! Deterministic fault injection: seeded, replayable failure plans for
//! I/O sinks and request streams.
//!
//! Robustness claims are untestable without a way to *cause* failures on
//! demand. A [`FaultPlan`] is a seeded schedule of [`FaultEvent`]s —
//! short writes, transient `ErrorKind::Interrupted` errors, bit flips,
//! truncations, and panics — keyed by operation index. Wrapping a sink
//! in [`FaultyWrite`], a source in [`FaultyRead`], or a scenario in
//! [`FaultyStream`] makes the wrapped object misbehave exactly at the
//! planned indices and nowhere else.
//!
//! **Determinism contract** (pinned by tests): a plan built by
//! [`FaultPlan::from_seed`] with the same `(seed, horizon, faults)`
//! always yields the same events, and a wrapper replays its plan
//! identically after [`RequestStream::rewind`] — so every failure a
//! fuzzing run discovers is a reproducible test case, reportable as a
//! single seed.

use crate::stream::RequestStream;
use msp_core::model::{Step, StreamParams};
use msp_geometry::sample::SeededSampler;
use std::io::{self, Read, Write};

/// One kind of injected misbehavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A write accepts only part of the buffer (at least one byte). A
    /// correct caller (`write_all`) survives this transparently; a caller
    /// assuming `write` is all-or-nothing tears its output.
    ShortWrite,
    /// One transient [`io::ErrorKind::Interrupted`] error. Standard
    /// library retry loops (`write_all`, `read_exact`, `read_to_end`)
    /// absorb it; code that treats every `Err` as fatal aborts.
    Interrupted,
    /// The first byte of the operation's buffer has bit 0 flipped —
    /// silent corruption that only checksums/trailers can catch.
    BitFlip,
    /// From this operation on, a sink discards data while reporting
    /// success, and a source/stream reports end-of-data: the torn-write /
    /// truncated-tail crash model.
    Truncate,
    /// The operation panics — a simulated process crash at an exact,
    /// replayable point.
    Panic,
}

/// A planned fault: `kind` fires at 0-based operation index `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Operation index (write/read call, or stream step) the fault fires
    /// at.
    pub at: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, replayable from its seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that never fires — the control arm.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// An explicit, hand-written plan (events are sorted by index;
    /// duplicate indices keep the first event).
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        events.dedup_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Samples `faults` events over operation indices `[0, horizon)` from
    /// a seed. Only the *recoverable-or-detectable* kinds are drawn
    /// ([`FaultKind::ShortWrite`], [`FaultKind::Interrupted`],
    /// [`FaultKind::BitFlip`]) — crash-style kinds
    /// ([`FaultKind::Truncate`], [`FaultKind::Panic`]) terminate whatever
    /// they wrap, so they are placed deliberately via
    /// [`FaultPlan::scripted`] rather than sprinkled at random.
    pub fn from_seed(seed: u64, horizon: u64, faults: usize) -> Self {
        let mut sampler = SeededSampler::new(seed ^ 0x5eed_fa17_0000_0001u64);
        let mut events = Vec::with_capacity(faults);
        for _ in 0..faults {
            let at = sampler.int_inclusive(0, horizon.saturating_sub(1) as usize) as u64;
            let kind = match sampler.int_inclusive(0, 2) {
                0 => FaultKind::ShortWrite,
                1 => FaultKind::Interrupted,
                _ => FaultKind::BitFlip,
            };
            events.push(FaultEvent { at, kind });
        }
        Self::scripted(events)
    }

    /// The planned events, sorted by operation index.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The fault scheduled at operation `op`, if any.
    pub fn fault_at(&self, op: u64) -> Option<FaultKind> {
        self.events
            .binary_search_by_key(&op, |e| e.at)
            .ok()
            .map(|i| self.events[i].kind)
    }
}

fn injected_panic(op: u64) -> ! {
    panic!("injected fault: planned panic at operation {op}")
}

/// A [`Write`] sink that misbehaves according to a [`FaultPlan`]. Each
/// `write` call is one operation; `flush` is never faulted.
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    plan: FaultPlan,
    op: u64,
    truncated: bool,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultyWrite {
            inner,
            plan,
            op: 0,
            truncated: false,
        }
    }

    /// Write operations attempted so far (faulted ones included).
    pub fn operations(&self) -> u64 {
        self.op
    }

    /// True once a [`FaultKind::Truncate`] fired: every later write is
    /// silently discarded.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Returns the wrapped sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.op;
        self.op += 1;
        if self.truncated {
            // Torn-write model: pretend success, write nothing.
            return Ok(buf.len());
        }
        match self.plan.fault_at(op) {
            None => self.inner.write(buf),
            Some(FaultKind::ShortWrite) if buf.len() > 1 => {
                let half = buf.len() / 2;
                self.inner.write(&buf[..half.max(1)])
            }
            Some(FaultKind::ShortWrite) => self.inner.write(buf),
            Some(FaultKind::Interrupted) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected fault: transient interrupt at operation {op}"),
            )),
            Some(FaultKind::BitFlip) => {
                let mut corrupted = buf.to_vec();
                if let Some(first) = corrupted.first_mut() {
                    *first ^= 1;
                }
                self.inner.write(&corrupted)
            }
            Some(FaultKind::Truncate) => {
                self.truncated = true;
                Ok(buf.len())
            }
            Some(FaultKind::Panic) => injected_panic(op),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`Read`] source that misbehaves according to a [`FaultPlan`]. Each
/// `read` call is one operation.
#[derive(Debug)]
pub struct FaultyRead<R> {
    inner: R,
    plan: FaultPlan,
    op: u64,
    truncated: bool,
}

impl<R: Read> FaultyRead<R> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyRead {
            inner,
            plan,
            op: 0,
            truncated: false,
        }
    }

    /// Read operations attempted so far (faulted ones included).
    pub fn operations(&self) -> u64 {
        self.op
    }

    /// Returns the wrapped source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let op = self.op;
        self.op += 1;
        if self.truncated {
            return Ok(0); // premature, silent EOF
        }
        match self.plan.fault_at(op) {
            None => self.inner.read(buf),
            Some(FaultKind::ShortWrite) if buf.len() > 1 => {
                let half = (buf.len() / 2).max(1);
                self.inner.read(&mut buf[..half])
            }
            Some(FaultKind::ShortWrite) => self.inner.read(buf),
            Some(FaultKind::Interrupted) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected fault: transient interrupt at operation {op}"),
            )),
            Some(FaultKind::BitFlip) => {
                let n = self.inner.read(buf)?;
                if let Some(first) = buf[..n].first_mut() {
                    *first ^= 1;
                }
                Ok(n)
            }
            Some(FaultKind::Truncate) => {
                self.truncated = true;
                Ok(0)
            }
            Some(FaultKind::Panic) => injected_panic(op),
        }
    }
}

/// A [`RequestStream`] that misbehaves according to a [`FaultPlan`].
/// Each [`RequestStream::next_step`] call is one operation; only the
/// crash-style kinds apply at the stream level —
/// [`FaultKind::Panic`] kills the run at an exact step (the crash-anywhere
/// test harness), [`FaultKind::Truncate`] ends the stream early. The
/// byte-level kinds are no-ops here (steps are structured values, not
/// bytes). [`RequestStream::rewind`] restarts the plan along with the
/// stream, so replays hit identical faults.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    op: u64,
    truncated: bool,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStream {
            inner,
            plan,
            op: 0,
            truncated: false,
        }
    }

    /// Returns the wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<const N: usize, S: RequestStream<N>> RequestStream<N> for FaultyStream<S> {
    fn params(&self) -> StreamParams<N> {
        self.inner.params()
    }

    fn next_step(&mut self) -> Option<Step<N>> {
        let op = self.op;
        self.op += 1;
        if self.truncated {
            return None;
        }
        match self.plan.fault_at(op) {
            Some(FaultKind::Panic) => injected_panic(op),
            Some(FaultKind::Truncate) => {
                self.truncated = true;
                None
            }
            _ => self.inner.next_step(),
        }
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn rewind(&mut self) {
        self.inner.rewind();
        self.op = 0;
        self.truncated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::from_seed(42, 1_000, 8);
        let b = FaultPlan::from_seed(42, 1_000, 8);
        assert_eq!(a, b);
        assert!(!a.events().is_empty());
        let c = FaultPlan::from_seed(43, 1_000, 8);
        assert_ne!(a, c, "different seeds should differ (8 draws over 1000)");
        for e in a.events() {
            assert!(e.at < 1_000);
            assert!(!matches!(e.kind, FaultKind::Panic | FaultKind::Truncate));
        }
    }

    #[test]
    fn scripted_plans_sort_and_dedup() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: 9,
                kind: FaultKind::BitFlip,
            },
            FaultEvent {
                at: 2,
                kind: FaultKind::Interrupted,
            },
            FaultEvent {
                at: 9,
                kind: FaultKind::Panic,
            },
        ]);
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.fault_at(2), Some(FaultKind::Interrupted));
        assert_eq!(plan.fault_at(9), Some(FaultKind::BitFlip));
        assert_eq!(plan.fault_at(3), None);
    }

    #[test]
    fn write_all_survives_short_writes_and_interrupts() {
        // `write_all` retries short writes and Interrupted errors, so the
        // payload lands intact despite the plan.
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: 0,
                kind: FaultKind::ShortWrite,
            },
            FaultEvent {
                at: 1,
                kind: FaultKind::Interrupted,
            },
        ]);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        sink.write_all(b"hello fault world").unwrap();
        assert_eq!(sink.into_inner(), b"hello fault world");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: 0,
            kind: FaultKind::BitFlip,
        }]);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        sink.write_all(&[0b1010_1010, 0xFF]).unwrap();
        assert_eq!(sink.into_inner(), vec![0b1010_1011, 0xFF]);
    }

    #[test]
    fn truncate_swallows_the_tail_silently() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: 1,
            kind: FaultKind::Truncate,
        }]);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        sink.write_all(b"kept").unwrap();
        sink.write_all(b"lost").unwrap(); // reports success!
        sink.write_all(b"also lost").unwrap();
        assert!(sink.is_truncated());
        assert_eq!(sink.into_inner(), b"kept");
    }

    #[test]
    #[should_panic(expected = "injected fault: planned panic at operation 2")]
    fn planned_panic_fires_at_the_exact_operation() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: 2,
            kind: FaultKind::Panic,
        }]);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        sink.write_all(b"a").unwrap();
        sink.write_all(b"b").unwrap();
        let _ = sink.write_all(b"boom");
    }

    #[test]
    fn read_to_end_survives_transient_faults() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: 0,
                kind: FaultKind::Interrupted,
            },
            FaultEvent {
                at: 1,
                kind: FaultKind::ShortWrite,
            },
        ]);
        let mut src = FaultyRead::new(Cursor::new(b"payload".to_vec()), plan);
        let mut out = Vec::new();
        src.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"payload");
    }

    #[test]
    fn faulty_stream_truncates_and_replays_identically() {
        use crate::registry::lookup;
        let spec = lookup("edge-drift").unwrap();
        let make = || {
            let inner = spec
                .stream_with::<2>(3, &crate::registry::ScenarioKnobs::horizon(50))
                .unwrap();
            FaultyStream::new(
                inner,
                FaultPlan::scripted(vec![FaultEvent {
                    at: 20,
                    kind: FaultKind::Truncate,
                }]),
            )
        };
        let mut s = make();
        let first: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
        assert_eq!(first.len(), 20, "stream must end at the planned fault");
        // Rewind replays the same fault at the same step.
        s.rewind();
        let second: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
        assert_eq!(second.len(), 20);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.requests, b.requests);
        }
    }
}
