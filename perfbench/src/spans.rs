//! In-memory spans: one per layer call, kept until the run ends and then
//! written out. A span's self time is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent / no job.
pub const NONE: usize = usize::MAX;

/// One timed layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `isa.assemble`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: usize,
    /// Service job id shared by one job's spans, or
    /// [`NONE`].
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store with one clock. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The tracer's epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span now; close it with [`Tracer::close`]. Returns [`NONE`]
    /// when disabled.
    pub fn open(&mut self, name: &'static str, parent: usize, job: u64) -> usize {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        })
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        if id != NONE {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span, returning its index ([`NONE`] when
    /// disabled).
    pub fn push(&mut self, span: Span) -> usize {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends another tracer's spans (same epoch), re-pointing their
    /// parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != NONE {
                span.parent += base;
            }
            span
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in `spans`, in nanoseconds: its duration minus
/// the union of its children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NONE {
            children[span.parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals: (count, total ns, self ns).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += self_ns;
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    let signed = |v: usize| if v == NONE { -1 } else { v as i64 };
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let job = if span.job == NONE as u64 {
            -1
        } else {
            span.job as i64
        };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"job\":{job}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            signed(span.parent),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span("root", 0, 100, NONE),
            // Overlapping children count once: [10, 50) covers 40.
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),
            // A child running past its parent's end is clipped: 10.
            span("c", 90, 120, 0),
            // A grandchild does not count against the root.
            span("d", 60, 70, 1),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[0], 100 - 40 - 10);
        assert_eq!(self_ns[1], 20, "grandchild lies outside child a");
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[4], 10);
    }

    #[test]
    fn nested_and_duplicate_children_never_go_negative() {
        let spans = vec![
            span("root", 0, 10, NONE),
            span("a", 0, 10, 0),
            span("b", 2, 8, 0),
            span("c", 0, 10, 0),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("job", 0, 10, NONE),
            span("run", 2, 8, 0),
            span("job", 20, 30, NONE),
            span("run", 20, 25, 2),
        ];
        let sum = summary(&spans);
        assert_eq!(sum["job"], (2, 20, 4 + 5));
        assert_eq!(sum["run"], (2, 11, 11));
    }

    #[test]
    fn absorb_repoints_parents_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.push(span("x", 0, 1, NONE));
        let mut b = Tracer::new(epoch);
        let root = b.push(span("y", 0, 5, NONE));
        b.push(span("z", 1, 2, root));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);

        let mut off = Tracer::disabled();
        let id = off.open("x", NONE, 0);
        off.close(id);
        assert_eq!(id, NONE);
        assert!(off.spans().is_empty());
    }
}
