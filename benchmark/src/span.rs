//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from the benchmark's own files, around calls into each
//! crate's public functions; spans *inside* the program are a later
//! change that has to reconcile to these. Two kinds:
//!
//! - **call spans** ([`Tracer::enter`] / [`Tracer::exit`]) nest on a stack;
//!   a span's *self time* is its duration minus the time its child spans
//!   cover, and its `count` is the work it did (requests drained, raises
//!   in a batch, timers fired), read at the same boundary;
//! - **request spans** ([`Tracer::request`]) carry explicit start/end
//!   times (send-or-due → decoded reply) and their own trace id; they
//!   overlap call spans in time without being their parents.
//!
//! Every span feeds a per-`(layer, name)` aggregate; the first
//! [`KEEP_SPANS`] are also kept verbatim and written as JSON lines when the
//! run ends. A disabled tracer turns every call into one predictable
//! branch, so the untraced pass runs the very same loop.

use crate::alloc::bench_allocs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim per run (aggregates cover all of them).
pub const KEEP_SPANS: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Spans of one request / one slice share a trace id.
    pub trace: u64,
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing call span, 0 for a root.
    pub parent: u64,
    /// The crate the spanned call belongs to.
    pub layer: &'static str,
    /// The spanned call.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Work done inside the span, in the span's own unit of work.
    pub count: u64,
}

/// Totals of every span sharing a `(layer, name)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub spans: u64,
    /// Sum of their `count`s.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Benchmark-thread allocations made inside the spans.
    pub allocs: u64,
}

impl Agg {
    /// Mean duration per unit of counted work (0 when nothing counted).
    pub fn ns_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Allocations per unit of counted work.
    pub fn allocs_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.allocs as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    allocs_at_entry: u64,
}

/// The recorder. See the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    kept: Vec<Span>,
    agg: BTreeMap<(&'static str, &'static str), Agg>,
    next_id: u64,
    trace: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            kept: Vec::with_capacity(if on { KEEP_SPANS } else { 0 }),
            agg: BTreeMap::new(),
            next_id: 1,
            trace: 1,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Pauses or resumes recording (between slices, never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Ns since the tracer was created — the clock request spans use.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new trace id for subsequent call spans (one per slice).
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Opens a call span.
    #[inline]
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            layer,
            name,
            start_ns: self.now_ns(),
            child_ns: 0,
            allocs_at_entry: bench_allocs(),
        });
    }

    /// Closes the innermost call span, crediting it with `count` units of
    /// work.
    #[inline]
    pub fn exit(&mut self, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let allocs_now = bench_allocs();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_ns - open.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let span = Span {
            trace: self.trace,
            id: open.id,
            parent,
            layer: open.layer,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            count,
        };
        let a = self.agg.entry((open.layer, open.name)).or_default();
        a.spans += 1;
        a.count += count;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.max_ns = a.max_ns.max(dur);
        a.allocs += allocs_now - open.allocs_at_entry;
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(span);
        }
    }

    /// [`Tracer::exit`] when `worked`, [`Tracer::cancel`] otherwise.
    #[inline]
    pub fn exit_if(&mut self, worked: bool, count: u64) {
        if worked {
            self.exit(count);
        } else {
            self.cancel();
        }
    }

    /// Discards the innermost open call span: the call turned out to be a
    /// no-op probe (an epoch check that was not due, a drain of empty
    /// queues) and is neither work nor worth a line in the trace.
    #[inline]
    pub fn cancel(&mut self) {
        if self.on {
            self.stack.pop().expect("cancel without enter");
        }
    }

    /// Records a request span with explicit times under its own trace id.
    #[inline]
    pub fn request(
        &mut self,
        trace: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let dur = end_ns.saturating_sub(start_ns);
        let a = self.agg.entry((layer, name)).or_default();
        a.spans += 1;
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur;
        a.max_ns = a.max_ns.max(dur);
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span {
                trace,
                id,
                parent: 0,
                layer,
                name,
                start_ns,
                end_ns,
                count: 1,
            });
        }
    }

    /// The aggregate of `(layer, name)` (zeroes when never recorded).
    pub fn agg(&self, layer: &'static str, name: &'static str) -> Agg {
        self.agg.get(&(layer, name)).copied().unwrap_or_default()
    }

    /// Every aggregate, ordered by layer then name.
    pub fn aggregates(&self) -> impl Iterator<Item = ((&'static str, &'static str), Agg)> + '_ {
        self.agg.iter().map(|(k, v)| (*k, *v))
    }

    /// The verbatim spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// The kept spans, one JSON object per line:
    /// `{trace, id, parent, layer, name, start_ns, end_ns, count}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 128);
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.trace, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn zero_child_span_is_all_self_time() {
        let mut t = Tracer::on();
        t.enter("server", "raise");
        spin(200_000);
        t.exit(64);
        let a = t.agg("server", "raise");
        assert_eq!((a.spans, a.count), (1, 64));
        assert!(a.total_ns >= 200_000);
        assert_eq!(a.self_ns, a.total_ns);
        assert_eq!(t.spans()[0].parent, 0);
    }

    #[test]
    fn nested_and_sibling_children_are_subtracted_once_each() {
        let mut t = Tracer::on();
        t.enter("bench", "slice");
        spin(100_000);
        t.enter("ingress", "drive");
        spin(100_000);
        t.enter("server", "raise");
        spin(100_000);
        t.exit(1);
        t.exit(1);
        t.enter("ingress", "maybe_epoch"); // sibling of drive
        spin(100_000);
        t.exit(0);
        t.exit(0);

        let slice = t.agg("bench", "slice");
        let drive = t.agg("ingress", "drive");
        let raise = t.agg("server", "raise");
        let epoch = t.agg("ingress", "maybe_epoch");
        // The grandchild is subtracted from its parent only, not from the root.
        assert_eq!(drive.self_ns, drive.total_ns - raise.total_ns);
        assert_eq!(
            slice.self_ns,
            slice.total_ns - drive.total_ns - epoch.total_ns
        );
        assert_eq!(raise.self_ns, raise.total_ns);
        // Self times partition the root's duration exactly.
        assert_eq!(
            slice.self_ns + drive.self_ns + raise.self_ns + epoch.self_ns,
            slice.total_ns
        );
        // Parent links follow the stack.
        let by_name = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("raise").parent, by_name("drive").id);
        assert_eq!(by_name("drive").parent, by_name("slice").id);
        assert_eq!(by_name("maybe_epoch").parent, by_name("slice").id);
        assert_eq!(by_name("slice").parent, 0);
    }

    #[test]
    fn request_spans_do_not_touch_the_stack() {
        let mut t = Tracer::on();
        t.enter("ingress", "drive");
        t.request(42, "client", "request", 10, 110);
        t.exit(1);
        let r = t.agg("client", "request");
        assert_eq!((r.spans, r.total_ns, r.max_ns), (1, 100, 100));
        let drive = t.agg("ingress", "drive");
        assert_eq!(drive.self_ns, drive.total_ns, "request is not a child");
        assert_eq!(t.spans()[0].trace, 42);
    }

    #[test]
    fn cancelled_span_leaves_no_trace_and_charges_no_parent() {
        let mut t = Tracer::on();
        t.enter("bench", "slice");
        t.enter("ingress", "maybe_epoch");
        spin(50_000);
        t.cancel();
        t.exit(0);
        assert_eq!(t.agg("ingress", "maybe_epoch"), Agg::default());
        let slice = t.agg("bench", "slice");
        assert_eq!(slice.self_ns, slice.total_ns);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("a", "b");
        t.exit(5);
        t.request(1, "a", "c", 0, 1);
        assert!(t.spans().is_empty());
        assert_eq!(t.aggregates().count(), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_every_field() {
        let mut t = Tracer::on();
        t.enter("ir", "call");
        t.exit(3);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 1);
        let v = crate::json::parse(text.lines().next().unwrap()).unwrap();
        for key in [
            "trace", "id", "parent", "layer", "name", "start_ns", "end_ns", "count",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            v.get("count").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
    }
}
