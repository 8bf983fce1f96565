//! `pdo-obs` — the unified observability layer for the PDO runtime
//! family.
//!
//! The paper's premise is that profiling is the optimizer's sensory
//! organ; this crate is the operational counterpart, giving every layer
//! (runtime dispatch, adaptive engine, server shards, wire/CTP/SecComm)
//! one way to measure and one way to explain:
//!
//! * [`Histogram`] — fixed-size log-linear latency histograms on the
//!   virtual clock: O(1) record, bounded quantile error, associative
//!   merge for cross-shard rollup.
//! * [`MetricsSnapshot`] — scrape-time metric collection (counters,
//!   gauges, histograms) with Prometheus-style text exposition via
//!   [`MetricsSnapshot::render`] and snapshot-level [`MetricsSnapshot::merge`].
//! * [`FlightRecorder`] / [`ObsHub`] — a bounded ring buffer of
//!   structured runtime records (guard miss, fault, reprofile, chain
//!   install/drop, quarantine) dumped post-mortem when
//!   a fault or chaos-oracle mismatch needs explaining.
//! * [`TraceStore`] / [`Span`] — causal trace graphs: a [`TraceId`]
//!   minted per external stimulus, spans with parent edges across
//!   layers (ingress, runtime, adaptive engine, wire), Chrome
//!   trace-event and line-dump exporters, and critical-path latency
//!   attribution (DESIGN.md §16).
//!
//! The crate is dependency-free by design: every other crate in the
//! workspace can use it, including over the wire boundary, and event
//! ids cross into it as raw `u32`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod hub;
mod recorder;
mod snapshot;
pub mod trace;

pub use hist::{Histogram, BUCKETS};
pub use hub::{ObsHub, DEFAULT_RECORDER_CAPACITY};
pub use recorder::{FlightRecorder, ObsKind, ObsRecord};
pub use snapshot::{Labels, MetricsSnapshot};
pub use trace::{
    AuditAction, DispatchSrc, Span, SpanId, SpanKind, TraceCtx, TraceId, TraceStore,
    DEFAULT_TRACE_CAPACITY,
};
