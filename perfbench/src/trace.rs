//! In-memory spans around the benchmark's calls into the workspace crates.
//!
//! A span records one call: its name, the operation it belongs to (a
//! timed pass, or a replay), the span that encloses it, and its start and
//! end. Calls made once per run, per trial or per oracle case are too
//! frequent for a span each; they are kept as *leaves*, aggregated per
//! (enclosing span, name) into a call count and a total time. A span's
//! self time is its duration minus its child spans and its leaves.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::escape;

/// One recorded call.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregated fine-grained calls under one span.
struct Leaf {
    parent: usize,
    name: &'static str,
    count: u64,
    total_ns: u64,
}

/// The span recorder of one traced benchmark run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    leaves: Vec<Leaf>,
    leaf_index: HashMap<(usize, &'static str), usize>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            leaves: Vec::new(),
            leaf_index: HashMap::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name` of operation `op`, nested in
    /// whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Times `f` as one call of the leaf `name` under the open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: every leaf belongs to a span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = *self.open.last().expect("a leaf is recorded inside a span");
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).expect("a call lasts under 584 years");
        let next = self.leaves.len();
        let index = *self.leaf_index.entry((parent, name)).or_insert(next);
        if index == next {
            self.leaves.push(Leaf {
                parent,
                name,
                count: 0,
                total_ns: 0,
            });
        }
        let leaf = &mut self.leaves[index];
        leaf.count += 1;
        leaf.total_ns += ns;
        out
    }

    /// Appends the spans and leaves of a tracer that recorded on another
    /// thread, on this tracer's clock. Its root spans stay roots.
    ///
    /// # Panics
    ///
    /// Panics when `other` has a span open or was made before this one.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "an absorbed tracer has no open span");
        let shift = u64::try_from(other.origin.duration_since(self.origin).as_nanos())
            .expect("a run lasts under 584 years");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
        for l in other.leaves {
            let parent = l.parent + base;
            self.leaf_index.insert((parent, l.name), self.leaves.len());
            self.leaves.push(Leaf { parent, ..l });
        }
    }

    fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_ns(c))
            .sum();
        let leaves: u64 = self
            .leaves
            .iter()
            .filter(|l| l.parent == id)
            .map(|l| l.total_ns)
            .sum();
        self.duration_ns(id).saturating_sub(children + leaves)
    }

    /// Seconds spent in spans named `name`, summed per operation, in
    /// operation order.
    pub fn span_secs(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |id| self.duration_ns(id))
    }

    /// Self seconds of spans named `name`, summed per operation.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |id| self.self_ns(id))
    }

    fn per_op(&self, name: &str, ns: impl Fn(usize) -> u64) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == name {
                *by_op.entry(span.op).or_default() += ns(id);
            }
        }
        by_op.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Total calls and seconds of the leaf `name`, over the whole run.
    pub fn leaf_total(&self, name: &str) -> (u64, f64) {
        self.leaves
            .iter()
            .filter(|l| l.name == name)
            .fold((0, 0.0), |(count, secs), l| {
                (count + l.count, secs + l.total_ns as f64 * 1e-9)
            })
    }

    /// The trace as JSON lines: one per span (with its self time), then
    /// one per leaf aggregate.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                escape(s.name),
                s.op,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
        }
        for l in &self.leaves {
            let _ = writeln!(
                out,
                "{{\"leaf\": \"{}\", \"parent\": {}, \"count\": {}, \"total_ns\": {}}}",
                escape(l.name),
                l.parent,
                l.count,
                l.total_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            spin(4);
            t.span("inner", 0, |_| spin(6));
            for _ in 0..3 {
                t.leaf("call", || spin(2));
            }
        });
        let outer = t.span_secs("outer")[0];
        let outer_self = t.self_secs("outer")[0];
        let inner = t.span_secs("inner")[0];
        let (calls, leaf_secs) = t.leaf_total("call");
        assert_eq!(calls, 3);
        assert!(outer >= inner + leaf_secs);
        assert!((outer_self - (outer - inner - leaf_secs)).abs() < 1e-6);
        assert!(outer_self >= 0.004);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn absorbed_spans_keep_their_nesting_and_leaves() {
        let mut t = Tracer::new();
        t.span("pass", 0, |_| spin(1));
        let mut other = Tracer::new();
        other.span("pass", 1, |t| {
            t.span("inner", 1, |t| t.leaf("call", || spin(2)));
        });
        t.absorb(other);
        assert_eq!(t.span_secs("pass").len(), 2);
        assert_eq!(t.leaf_total("call").0, 1);
        assert!(t.span_secs("pass")[1] >= t.span_secs("inner")[0]);
        assert!(t.self_secs("inner")[0] < 0.002);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn spans_sum_per_operation() {
        let mut t = Tracer::new();
        for op in [0, 0, 1] {
            t.span("pass", op, |_| spin(1));
        }
        assert_eq!(t.span_secs("pass").len(), 2);
        assert!(t.span_secs("missing").is_empty());
    }
}
