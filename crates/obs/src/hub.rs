//! The shared observability handle a runtime (and the layers stacked on
//! it) writes into.
//!
//! `ObsHub` is a cheaply-clonable `Rc` handle — the runtime, the
//! adaptive engine, and the test oracle can all hold one — wrapping the
//! per-event dispatch-latency histograms and the flight recorder. The
//! hot-path contract: when observability is off the runtime holds no hub
//! at all (a single `Option` check); when on, recording is one
//! `RefCell` borrow plus an O(1) histogram/ring write. Event ids are raw
//! `u32`s; per-event histograms live in a lazily-grown dense `Vec` so
//! the dispatch path never hashes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::hist::Histogram;
use crate::recorder::{FlightRecorder, ObsKind, ObsRecord};
use crate::snapshot::MetricsSnapshot;

/// Default flight-recorder capacity.
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

#[derive(Debug)]
struct Inner {
    /// Per-event latency histograms, indexed by raw event id: fast
    /// (compiled chain) and slow (generic) dispatch paths.
    fast: Vec<Option<Box<Histogram>>>,
    slow: Vec<Option<Box<Histogram>>>,
    recorder: FlightRecorder,
}

/// Shared observability handle: per-event dispatch histograms plus the
/// flight recorder, behind `Rc<RefCell<…>>` (runtimes are
/// single-threaded and `!Send`).
#[derive(Debug, Clone)]
pub struct ObsHub {
    inner: Rc<RefCell<Inner>>,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new(DEFAULT_RECORDER_CAPACITY)
    }
}

impl ObsHub {
    /// A hub whose flight recorder retains `recorder_capacity` records.
    /// A dispatch costs one histogram write and never touches the
    /// recorder, which keeps only the rare, interesting records (faults,
    /// reprofiles, quarantines, guard misses) — one noisy event cannot
    /// evict that tail. Per-dispatch detail lives in the causal trace's
    /// `Dispatch`/`Raise` spans.
    pub fn new(recorder_capacity: usize) -> ObsHub {
        ObsHub {
            inner: Rc::new(RefCell::new(Inner {
                fast: Vec::new(),
                slow: Vec::new(),
                recorder: FlightRecorder::new(recorder_capacity),
            })),
        }
    }

    /// Appends one flight-recorder entry.
    #[inline]
    pub fn record(&self, at_ns: u64, kind: ObsKind) {
        self.inner.borrow_mut().recorder.record(at_ns, kind);
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

    /// The last `n` flight-recorder entries, oldest first.
    pub fn tail(&self, n: usize) -> Vec<ObsRecord> {
        self.inner.borrow().recorder.tail(n)
    }

    /// The last `n` flight-recorder entries rendered one per line.
    pub fn dump(&self, n: usize) -> String {
        self.inner.borrow().recorder.dump(n)
    }

    /// Total flight-recorder entries ever appended.
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorder.recorded()
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
        let hub = ObsHub::new(16);
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

    #[test]
    fn rare_records_always_land_and_dispatches_never_evict_them() {
        let hub = ObsHub::new(2);
        hub.record(150, ObsKind::GuardMiss { event: 1 });
        hub.record(
            160,
            ObsKind::Fault {
                event: 1,
                kind: "trap_dispatch",
            },
        );
        // Far more dispatches than the ring holds: histograms grow, the
        // recorder is untouched.
        for _ in 0..64 {
            hub.dispatch_end(1, true, 5);
        }
        assert_eq!(hub.recorded(), 2);
        let dump = hub.dump(8);
        assert!(dump.contains("guard-miss e1"));
        assert!(dump.contains("fault e1 kind=trap_dispatch"));
        let mut snap = MetricsSnapshot::new();
        hub.export_dispatch(&mut snap, &[]);
        let fast = snap
            .histogram_value(
                "pdo_dispatch_latency_ns",
                &[("event", "1"), ("path", "fast")],
            )
            .unwrap();
        assert_eq!(fast.count(), 64);
    }
}
