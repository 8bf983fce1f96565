//! The shared observability handle a runtime (and the layers stacked on
//! it) writes into.
//!
//! `ObsHub` is a cheaply-clonable `Rc` handle — the runtime, the
//! adaptive engine, and the test oracle can all hold one — wrapping the
//! per-event dispatch-latency histograms. What happened, and why, is the
//! causal trace's business ([`crate::TraceStore`]). The hot-path
//! contract: when observability is off the runtime holds no hub at all
//! (a single `Option` check); when on, recording is one `RefCell` borrow
//! plus an O(1) histogram write. Event ids are raw `u32`s; per-event
//! histograms live in a lazily-grown dense `Vec` so the dispatch path
//! never hashes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::hist::Histogram;
use crate::snapshot::MetricsSnapshot;

#[derive(Debug, Default)]
struct Inner {
    /// Per-event latency histograms, indexed by raw event id: fast
    /// (compiled chain) and slow (generic) dispatch paths.
    fast: Vec<Option<Box<Histogram>>>,
    slow: Vec<Option<Box<Histogram>>>,
}

/// Shared observability handle: per-event dispatch histograms behind
/// `Rc<RefCell<…>>` (runtimes are single-threaded and `!Send`).
#[derive(Debug, Clone, Default)]
pub struct ObsHub {
    inner: Rc<RefCell<Inner>>,
}

impl ObsHub {
    /// A hub with no samples yet.
    pub fn new() -> ObsHub {
        ObsHub::default()
    }

    /// Dispatch completion: one sample into the per-event fast/slow
    /// latency histogram.
    #[inline]
    pub fn dispatch_end(&self, event: u32, fast: bool, latency_ns: u64) {
        let mut inner = self.inner.borrow_mut();
        let lane = if fast {
            &mut inner.fast
        } else {
            &mut inner.slow
        };
        let idx = event as usize;
        if idx >= lane.len() {
            lane.resize_with(idx + 1, || None);
        }
        lane[idx]
            .get_or_insert_with(|| Box::new(Histogram::new()))
            .record(latency_ns);
    }

    /// Exports the per-event dispatch-latency histograms into `snap`
    /// under `pdo_dispatch_latency_ns{event="…",path="fast|slow",…}`,
    /// with `extra` labels (e.g. `shard`) appended to every series.
    pub fn export_dispatch(&self, snap: &mut MetricsSnapshot, extra: &[(&str, &str)]) {
        let inner = self.inner.borrow();
        for (lane, path) in [(&inner.fast, "fast"), (&inner.slow, "slow")] {
            for (event, h) in lane.iter().enumerate() {
                let Some(h) = h else { continue };
                let ev = event.to_string();
                let mut labels: Vec<(&str, &str)> = vec![("event", &ev), ("path", path)];
                labels.extend_from_slice(extra);
                snap.histogram(
                    "pdo_dispatch_latency_ns",
                    "Per-event dispatch latency on the virtual clock, split by fast (compiled chain) vs slow (generic) path",
                    &labels,
                    h,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_end_builds_per_event_lane_histograms() {
        let hub = ObsHub::new();
        hub.dispatch_end(3, true, 40);
        hub.dispatch_end(3, true, 60);
        hub.dispatch_end(3, false, 900);
        let mut snap = MetricsSnapshot::new();
        hub.export_dispatch(&mut snap, &[("shard", "0")]);
        let fast = snap
            .histogram_value(
                "pdo_dispatch_latency_ns",
                &[("event", "3"), ("path", "fast"), ("shard", "0")],
            )
            .unwrap();
        assert_eq!(fast.count(), 2);
        assert_eq!(fast.sum(), 100);
        let slow = snap
            .histogram_value(
                "pdo_dispatch_latency_ns",
                &[("event", "3"), ("path", "slow"), ("shard", "0")],
            )
            .unwrap();
        assert_eq!(slow.count(), 1);
        assert_eq!(slow.sum(), 900);
        // A lane that saw no dispatch exports no series.
        hub.dispatch_end(4, false, 7);
        let mut snap = MetricsSnapshot::new();
        hub.export_dispatch(&mut snap, &[]);
        assert!(snap
            .histogram_value(
                "pdo_dispatch_latency_ns",
                &[("event", "4"), ("path", "fast")]
            )
            .is_none());
    }
}
