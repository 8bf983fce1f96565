//! The observation spine: every sink the runtime reports to, behind one
//! value with one method per runtime event.
//!
//! The paper's profiler works because instrumentation lives in exactly
//! one place — the framework's raise and dispatch sites (§3.1).
//! [`Observers`] is that place here: `runtime.rs` makes one call per event
//! and the fan-out happens in this file, each sink behind its own gate:
//!
//! | sink                         | gate                                    |
//! |------------------------------|-----------------------------------------|
//! | profile [`ProfileTally`]     | enabled (the adaptive engine does)      |
//! | recorded [`Trace`]           | [`TraceConfig`] (`off()` = none)        |
//! | [`RuntimeStats`]             | always                                  |
//! | [`ObsHub`] histograms        | a hub is attached                       |
//! | [`TraceStore`] spans         | a store is attached *and* enabled       |
//! | [`OpcodeProfile`] counters   | opcode profiling is on                  |
//!
//! It is a plain struct with inlined fan-out — no trait object, no
//! subscriber list, no allocation per event — and it charges no
//! `CostCounter` units, so with every sink off each method is one
//! predictable branch per sink.

use crate::fault::FaultKind;
use crate::runtime::RuntimeStats;
use crate::sched::QueuedTrace;
use crate::tally::{Key, OpenDispatch, ProfileTally};
use crate::trace::{Trace, TraceConfig, TraceRecord};
use pdo_ir::{EventId, FuncId, OpcodeProfile, RaiseMode};
use pdo_obs::{DispatchSrc, MetricsSnapshot, ObsHub, Span, SpanId, SpanKind, TraceCtx, TraceStore};

/// The runtime's sinks. Fields a [`crate::Runtime`] accessor reads or
/// swaps wholesale are crate-visible; everything an event method keeps
/// consistent (ambient context) is private.
#[derive(Default)]
pub(crate) struct Observers {
    /// `Some` while the profile is counted: updated in place at every
    /// raise, dispatch bracket and handler entry.
    pub(crate) tally: Option<ProfileTally>,
    pub(crate) trace: Trace,
    trace_config: TraceConfig,
    pub(crate) stats: RuntimeStats,
    pub(crate) obs: Option<ObsHub>,
    pub(crate) tracer: Option<TraceStore>,
    /// Ambient causal context: the span currently executing, which
    /// nested raises, guard misses, and despecializations parent to.
    cur_tctx: Option<TraceCtx>,
    /// The most recent top-level dispatch's span, retained so the epoch
    /// hook (adaptive engine) and the wire layer can parent audit and
    /// wire spans into the trace that drove them.
    pub(crate) last_tctx: Option<TraceCtx>,
    /// Trace context of a just-popped queue/timer entry, consumed by the
    /// next dispatch.
    queued_tctx: Option<(QueuedTrace, DispatchSrc)>,
    /// `Some` while opcode profiling is on: the two counters the
    /// interpreter records into. Held inline rather than boxed: the
    /// recording instance reaches them once per instruction.
    pub(crate) opcode_prof: Option<OpcodeProfile>,
}

/// What [`Observers::dispatch_begin`] hands to [`Observers::dispatch_end`].
pub(crate) struct DispatchScope {
    start_ns: u64,
    span: Option<OpenSpan>,
    /// The tally's open dispatch this one displaced.
    tally: Option<OpenDispatch>,
}

/// A dispatch span allocated but not yet recorded (children may already
/// reference its id), plus the ambient context it displaced.
struct OpenSpan {
    /// The span's own context: what its children parent to.
    ctx: TraceCtx,
    parent: Option<SpanId>,
    src: DispatchSrc,
    queued_ns: u64,
    displaced: Option<TraceCtx>,
}

impl Observers {
    /// Every sink off: no profile trace, nothing attached. (The derived
    /// `Default` alone would start from `TraceConfig::default()`, which
    /// records raises.)
    pub(crate) fn new() -> Self {
        Observers {
            trace_config: TraceConfig::off(),
            ..Observers::default()
        }
    }

    pub(crate) fn set_trace_config(&mut self, config: TraceConfig) {
        self.trace_config = config;
        self.trace = Trace::new();
    }

    /// A raise was requested at synchronous nesting `depth`. A queued
    /// raise records an instant `Raise` span — the enqueue half of the
    /// queue/timer happens-before edge — and returns the context its
    /// dispatch will parent to and charge the wait against. A *sync*
    /// raise IS its dispatch, so it records no span of its own: the
    /// dispatch span represents both, keeping the hot path at one ring
    /// write per dispatch. With no ambient span the raise is an external
    /// stimulus and the span roots a fresh trace.
    #[inline]
    pub(crate) fn raise(
        &mut self,
        event: EventId,
        mode: RaiseMode,
        depth: u32,
        now: u64,
    ) -> Option<QueuedTrace> {
        if let Some(tally) = &mut self.tally {
            tally.raise(event, mode);
        }
        if self.trace_config.events {
            self.trace.records.push(TraceRecord::Raise {
                event,
                mode,
                depth,
                at: now,
            });
        }
        let src = match mode {
            RaiseMode::Sync => return None,
            RaiseMode::Async => DispatchSrc::Queue,
            RaiseMode::Timed => DispatchSrc::Timer,
        };
        let kind = SpanKind::Raise {
            event: event.0,
            mode: src,
        };
        let ctx = self
            .tracer
            .as_ref()?
            .record_under(self.cur_tctx, now, now, kind)?;
        Some(QueuedTrace {
            ctx,
            enqueued_ns: now,
        })
    }

    /// Makes a caller-supplied context (the ingress wire span) the ambient
    /// one for the duration of an external raise, so the raise and
    /// everything nested in it parent there. Returns the displaced
    /// context for [`Observers::restore_ctx`].
    pub(crate) fn adopt_ctx(&mut self, ctx: Option<TraceCtx>) -> Option<TraceCtx> {
        let displaced = self.cur_tctx;
        self.cur_tctx = ctx.or(displaced);
        displaced
    }

    pub(crate) fn restore_ctx(&mut self, displaced: Option<TraceCtx>) {
        self.cur_tctx = displaced;
    }

    /// The event loop popped a queue/timer entry; the next dispatch
    /// parents to the raise that enqueued it.
    #[inline]
    pub(crate) fn popped(&mut self, trace: Option<QueuedTrace>, src: DispatchSrc) {
        self.queued_tctx = trace.map(|qt| (qt, src));
    }

    /// Opens the dispatch bracket of `event` at synchronous nesting
    /// `depth`. With tracing on, allocates the dispatch span — parented to
    /// the popped entry's raise (with its queue wait) or to the ambient
    /// span for sync dispatch — and makes it ambient.
    #[inline]
    pub(crate) fn dispatch_begin(&mut self, event: EventId, depth: u32, now: u64) -> DispatchScope {
        let tally = match &mut self.tally {
            Some(t) => t.dispatch_begin(event, depth),
            None => None,
        };
        let queued = self.queued_tctx.take();
        let span = match &self.tracer {
            Some(t) if t.enabled() => {
                let (src, parent_ctx, queued_ns) = match queued {
                    Some((qt, src)) => (src, Some(qt.ctx), now.saturating_sub(qt.enqueued_ns)),
                    None => (DispatchSrc::Sync, self.cur_tctx, 0),
                };
                let (trace, parent, id) = t.begin(parent_ctx);
                let ctx = TraceCtx { trace, parent: id };
                Some(OpenSpan {
                    ctx,
                    parent,
                    src,
                    queued_ns,
                    displaced: self.cur_tctx.replace(ctx),
                })
            }
            _ => None,
        };
        DispatchScope {
            start_ns: now,
            span,
            tally,
        }
    }

    /// Closes the dispatch bracket: one latency sample into the lane's
    /// histogram and the completed `Dispatch` span. `fast` is the lane the
    /// dispatch body reported, so no sink re-evaluates the guards.
    #[inline]
    pub(crate) fn dispatch_end(
        &mut self,
        scope: DispatchScope,
        event: EventId,
        fast: bool,
        now: u64,
    ) {
        if let Some(tally) = &mut self.tally {
            tally.dispatch_end(scope.tally);
        }
        if let Some(obs) = &self.obs {
            obs.dispatch_end(event.0, fast, now - scope.start_ns);
        }
        if let Some(s) = scope.span {
            self.cur_tctx = s.displaced;
            self.last_tctx = Some(s.ctx);
            if let Some(t) = &self.tracer {
                t.record(Span {
                    id: s.ctx.parent,
                    trace: s.ctx.trace,
                    parent: s.parent,
                    start_ns: scope.start_ns,
                    end_ns: now,
                    kind: SpanKind::Dispatch {
                        event: event.0,
                        fast,
                        src: s.src,
                        queued_ns: s.queued_ns,
                    },
                });
            }
        }
    }

    /// A handler is about to run. Returns whether it is trace-instrumented,
    /// for [`Observers::handler_exit`].
    #[inline]
    pub(crate) fn handler_enter(
        &mut self,
        event: EventId,
        handler: FuncId,
        dispatch: u64,
        now: u64,
    ) -> bool {
        if let Some(tally) = &mut self.tally {
            tally.handler_enter(handler);
        }
        let traced = self.trace_config.handlers;
        if traced {
            self.trace.records.push(TraceRecord::HandlerEnter {
                event,
                handler,
                dispatch,
                at: now,
            });
        }
        traced
    }

    /// The handler returned or trapped — the exit record is pushed either
    /// way so handler-profile stacks stay balanced under containment.
    #[inline]
    pub(crate) fn handler_exit(
        &mut self,
        traced: bool,
        event: EventId,
        handler: FuncId,
        dispatch: u64,
        now: u64,
    ) {
        if traced {
            self.trace.records.push(TraceRecord::HandlerExit {
                event,
                handler,
                dispatch,
                at: now,
            });
        }
    }

    /// A rebind invalidated an installed chain: reported once, by the
    /// first dispatch to find its guards refuted.
    pub(crate) fn guard_miss(&mut self, event: EventId, now: u64) {
        if let Some(tally) = &mut self.tally {
            tally.count_unhinted(Key::GuardMiss(event));
        }
        if let Some(t) = &self.tracer {
            let kind = SpanKind::GuardMiss { event: event.0 };
            t.record_under(self.cur_tctx, now, now, kind);
        }
    }

    /// One fault occurrence (injected, or a contained organic trap).
    pub(crate) fn fault(&mut self, event: EventId, kind: FaultKind, now: u64) {
        *self.stats.faults_by_event.entry(event).or_insert(0) += 1;
        if let Some(tally) = &mut self.tally {
            tally.count_unhinted(Key::Fault(event));
        }
        match kind {
            FaultKind::HandlerTrap => self.stats.handler_traps += 1,
            _ => self.stats.injected_faults += 1,
        }
        // The timed kinds fire only at a timed raise, once per raise.
        match kind {
            FaultKind::DropTimed => self.stats.dropped_timed += 1,
            FaultKind::DelayTimed { .. } => self.stats.delayed_timed += 1,
            _ => {}
        }
        if let Some(t) = &self.tracer {
            let kind = SpanKind::Fault {
                event: event.0,
                kind: kind.label().into(),
            };
            t.record_under(self.cur_tctx, now, now, kind);
        }
        if self.trace_config.events {
            self.trace.records.push(TraceRecord::Fault {
                event,
                kind,
                at: now,
            });
        }
    }

    /// Containment skipped (all or the rest of) a dispatch of `event`;
    /// `trap` when an organic handler trap caused it and is to be recorded
    /// as a fault (an injected one was already noted at injection time).
    pub(crate) fn contained(&mut self, event: EventId, trap: bool, now: u64) {
        if trap {
            self.fault(event, FaultKind::HandlerTrap, now);
        }
        self.stats.skipped_dispatches += 1;
    }

    /// Containment removed `event`'s compiled chain.
    pub(crate) fn despecialized(&mut self, event: EventId, now: u64) {
        if let Some(tally) = &mut self.tally {
            tally.count_unhinted(Key::Despecialized(event));
        }
        if let Some(t) = &self.tracer {
            let kind = SpanKind::Despecialize { event: event.0 };
            t.record_under(self.cur_tctx, now, now, kind);
        }
    }

    /// Exports the sink-held series: fault counters, the
    /// fused-instruction count (while opcode profiling is on) and the hub's
    /// dispatch histograms.
    pub(crate) fn export_metrics(&self, snap: &mut MetricsSnapshot, extra: &[(&str, &str)]) {
        snap.counter(
            "pdo_faults_injected_total",
            "Injected faults that fired",
            extra,
            self.stats.injected_faults,
        );
        snap.counter(
            "pdo_faults_handler_trap_total",
            "Organic handler traps contained by the fault policy",
            extra,
            self.stats.handler_traps,
        );
        snap.counter(
            "pdo_dispatch_skipped_total",
            "Dispatches skipped (entirely or partially) by containment",
            extra,
            self.stats.skipped_dispatches,
        );
        snap.counter(
            "pdo_timed_dropped_total",
            "Timed raises dropped by fault injection",
            extra,
            self.stats.dropped_timed,
        );
        snap.counter(
            "pdo_timed_delayed_total",
            "Timed raises delayed by fault injection",
            extra,
            self.stats.delayed_timed,
        );
        for (event, n) in &self.stats.faults_by_event {
            let ev = event.0.to_string();
            let mut labels: Vec<(&str, &str)> = vec![("event", &ev)];
            labels.extend_from_slice(extra);
            snap.counter(
                "pdo_faults_by_event_total",
                "Faults recorded per event (injected and contained-organic)",
                &labels,
                *n,
            );
        }
        if let Some(prof) = &self.opcode_prof {
            snap.counter(
                "pdo_interp_fused_total",
                "Interpreter superinstructions executed (while opcode profiling is on)",
                extra,
                prof.fused_total(),
            );
        }
        if let Some(obs) = &self.obs {
            obs.export_dispatch(snap, extra);
        }
    }
}
