//! In-memory span recording for the traced run.
//!
//! A *group* is one unit the benchmark timestamps as a whole: a priced
//! instance, a session tick, an encode or a recovery. Its root span covers
//! the unit; one child span per library layer called inside it covers
//! those calls. Calls of the same layer inside one group are folded into a
//! single child whose `calls` and `busy_ns` say how many there were and
//! how long they took together (a tick feeds 256 steps; a span per step
//! would cost more memory than the work it measures). Every child is a
//! leaf, so a root's self time is its duration minus its children's
//! `busy_ns`, and a child's self time is its `busy_ns`.
//!
//! With the tracer off, [`Group::call`] runs the closure and reads no
//! clock, and nothing is recorded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or unit name (`line_dp.solve`, `live-probe.tick`, ...).
    pub name: &'static str,
    /// Id shared by a root and its children.
    pub group: u64,
    /// `None` for a root, else the root's name.
    pub parent: Option<&'static str>,
    /// Nanoseconds since the tracer's epoch at the first call.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch at the end of the last call.
    pub end_ns: u64,
    /// Calls folded into this span (1 for a root).
    pub calls: u64,
    /// Time spent inside the calls (the duration, for a root).
    pub busy_ns: u64,
    /// Input steps the calls covered.
    pub steps: u64,
}

/// The span store of one pass. Shared by reference across sweep workers.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_group: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_group: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a group; its root span starts now. The root's duration is
    /// measured whether or not the tracer is on, since ticks feed the
    /// end-to-end latency metrics.
    pub fn group(&self, root: &'static str, steps: u64) -> Group<'_> {
        Group {
            tracer: self,
            root,
            steps,
            start: Instant::now(),
            children: Vec::new(),
        }
    }

    /// Every recorded span, in the order the groups finished.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An open group; see [`Tracer::group`].
pub struct Group<'t> {
    tracer: &'t Tracer,
    root: &'static str,
    steps: u64,
    start: Instant,
    children: Vec<Child>,
}

struct Child {
    name: &'static str,
    first: Instant,
    last: Instant,
    calls: u64,
    busy_ns: u64,
    steps: u64,
}

impl Group<'_> {
    /// Runs `f`, a call into layer `name` covering `steps` input steps,
    /// and folds its duration into the group's child span for `name`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, steps: u64, f: impl FnOnce() -> R) -> R {
        if !self.tracer.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        match self.children.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                c.last = t1;
                c.calls += 1;
                c.busy_ns += ns;
                c.steps += steps;
            }
            None => self.children.push(Child {
                name,
                first: t0,
                last: t1,
                calls: 1,
                busy_ns: ns,
                steps,
            }),
        }
        out
    }

    /// Closes the group, records its spans when the tracer is on, and
    /// returns the root's duration in nanoseconds.
    pub fn finish(self) -> u64 {
        let end = Instant::now();
        let dur = u64::try_from((end - self.start).as_nanos()).unwrap_or(u64::MAX);
        let tr = self.tracer;
        if tr.on {
            let group = tr.next_group.fetch_add(1, Ordering::Relaxed);
            let mut out = Vec::with_capacity(1 + self.children.len());
            out.push(Span {
                name: self.root,
                group,
                parent: None,
                start_ns: tr.ns(self.start),
                end_ns: tr.ns(end),
                calls: 1,
                busy_ns: dur,
                steps: self.steps,
            });
            out.extend(self.children.iter().map(|c| Span {
                name: c.name,
                group,
                parent: Some(self.root),
                start_ns: tr.ns(c.first),
                end_ns: tr.ns(c.last),
                calls: c.calls,
                busy_ns: c.busy_ns,
                steps: c.steps,
            }));
            tr.spans.lock().expect("span store poisoned").extend(out);
        }
        dur
    }
}

/// Per-name totals over a span list: `(busy_ns, calls, steps)` of the
/// children named `name`.
pub fn child_totals(spans: &[Span], name: &str) -> (u64, u64, u64) {
    child_totals_under(spans, name, |_| true)
}

/// [`child_totals`] restricted to groups whose root passes `keep`.
pub fn child_totals_under(
    spans: &[Span],
    name: &str,
    keep: impl Fn(&Span) -> bool,
) -> (u64, u64, u64) {
    let mut kept = false;
    let mut total = (0, 0, 0);
    for s in spans {
        if s.parent.is_none() {
            kept = keep(s);
        } else if kept && s.name == name {
            total.0 += s.busy_ns;
            total.1 += s.calls;
            total.2 += s.steps;
        }
    }
    total
}

/// Self time of every root: its duration minus its children's busy time.
pub fn roots_self_ns(spans: &[Span]) -> u64 {
    let mut total = 0u64;
    let mut open: Option<(u64, u64)> = None; // (group, remaining ns)
    for s in spans {
        match s.parent {
            None => {
                total += open.map_or(0, |(_, rem)| rem);
                open = Some((s.group, s.busy_ns));
            }
            Some(_) => {
                if let Some((g, rem)) = open.as_mut() {
                    debug_assert_eq!(*g, s.group, "children follow their root");
                    *rem = rem.saturating_sub(s.busy_ns);
                }
            }
        }
    }
    total + open.map_or(0, |(_, rem)| rem)
}

/// Summed duration of every root span.
pub fn roots_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.busy_ns)
        .sum()
}

/// Tab-separated dump of the spans, one per line, with a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("group\tname\tparent\tstart_ns\tend_ns\tcalls\tbusy_ns\tsteps\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.group,
            s.name,
            s.parent.unwrap_or("-"),
            s.start_ns,
            s.end_ns,
            s.calls,
            s.busy_ns,
            s.steps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::new(true);
        let mut g = tr.group("root", 2);
        g.call("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        g.call("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let dur = g.finish();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        let (busy, calls, steps) = child_totals(&spans, "a");
        assert_eq!((calls, steps), (2, 2));
        assert!(busy >= 4_000_000 && busy <= dur);
        assert_eq!(roots_self_ns(&spans), dur - busy);
        assert_eq!(roots_ns(&spans), dur);
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::new(false);
        let mut g = tr.group("root", 1);
        assert_eq!(g.call("a", 1, || 7), 7);
        g.finish();
        assert!(tr.into_spans().is_empty());
    }
}
