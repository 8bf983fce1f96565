//! `pdo-obs` — the unified observability layer for the PDO runtime
//! family.
//!
//! The paper's premise is that profiling is the optimizer's sensory
//! organ; this crate is the operational counterpart, giving every layer
//! (runtime dispatch, adaptive engine, server, wire/CTP/SecComm)
//! one way to measure and one way to explain:
//!
//! * [`Histogram`] — fixed-size log-linear latency histograms on the
//!   virtual clock: O(1) record, bounded quantile error, associative
//!   merge for cross-session rollup.
//! * [`MetricsSnapshot`] — scrape-time metric collection (counters,
//!   gauges, histograms) with Prometheus-style text exposition via
//!   [`MetricsSnapshot::render`] and snapshot-level [`MetricsSnapshot::merge`].
//! * [`ObsHub`] — a runtime's per-event fast/slow dispatch-latency
//!   histograms, shared by the layers stacked on it.
//! * [`TraceStore`] / [`Span`] — the one record of what happened: causal
//!   trace graphs with a [`TraceId`] minted per external stimulus and
//!   spans with parent edges across layers (ingress, server, runtime,
//!   adaptive engine, wire) — dispatches, guard misses, faults, every
//!   adaptation decision and its why, session placements — plus Chrome
//!   trace-event and line-dump exporters and critical-path latency
//!   attribution (DESIGN.md §16). The line dump is also the post-mortem
//!   view appended to a fault report or a chaos-oracle mismatch.
//!
//! The crate is dependency-free by design: every other crate in the
//! workspace can use it, including over the wire boundary, and event
//! ids cross into it as raw `u32`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod hub;
mod snapshot;
pub mod trace;

pub use hist::{Histogram, BUCKETS};
pub use hub::ObsHub;
pub use snapshot::{Labels, MetricsSnapshot};
pub use trace::{
    AuditAction, DispatchSrc, Span, SpanId, SpanKind, TraceCtx, TraceId, TraceStore,
    DEFAULT_TRACE_CAPACITY,
};
