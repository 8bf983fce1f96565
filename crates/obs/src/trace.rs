//! Causal trace graphs: every external stimulus mints a [`TraceId`],
//! every derived action (nested raises, timer fires, dispatches, guard
//! misses, despecializations, chain-audit decisions, wire activity)
//! records a [`Span`] with a parent edge, giving a per-trace
//! happens-before DAG that spans layers (ingress → runtime → adaptive
//! engine → wire). Faults and session restores are spans too: the store
//! is the one record of what happened.
//!
//! The store mirrors [`crate::ObsHub`]'s hot-path contract: a runtime
//! with no store attached pays one `Option` check; an attached-but-
//! disabled store pays one extra `Cell` load (see `BENCH_trace.json`);
//! only an enabled store borrows a ring and appends. Per-request spans
//! (ingress, raise, dispatch, wire) and everything else (decisions,
//! guard misses, faults, restores) fill two separate rings, so a
//! dispatch storm cannot evict the rare record that explains it. The rare
//! ring is an eighth of the store's capacity: decisions carry a `why`
//! string, and a full ring of them is what the store's memory bound
//! prices. Spans are plain `Send` data so a collected `Vec<Span>` can
//! leave the server's thread (the ingress ships one to a `TraceDump`
//! client), while the store handle itself is a single-threaded `Rc` like
//! `ObsHub`.
//!
//! Two exporters ship with the module: [`export_chrome`] emits Chrome
//! trace-event JSON loadable in `about:tracing`/Perfetto, and
//! [`export_lines`]/[`parse_lines`] round-trip a line-oriented dump the
//! chaos oracle and the offline `trace_report` analyzer consume.
//! [`critical_path`] and [`attribute`] turn a span set into a latency
//! story: fast-lane vs slow-lane vs wire vs scheduler wait.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Default span capacity for a [`TraceStore`], both rings together.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Identifies one causal trace: minted at the external stimulus and
/// carried by every span derived from it, across layers and threads.
/// The high 16 bits carry the minting store's tag so ids from the server
/// and the ingress front door never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within the process; same tag partitioning as
/// [`TraceId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The causal context a layer hands to the next one: which trace we are
/// in and which span is the parent of whatever happens next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace every derived span joins.
    pub trace: TraceId,
    /// The span that causally precedes the next recorded span.
    pub parent: SpanId,
}

/// How a traced dispatch was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchSrc {
    /// Synchronous raise: dispatched inline, no queue wait.
    Sync,
    /// Popped from the async run queue.
    Queue,
    /// Fired from the timer heap.
    Timer,
}

/// The adaptive-engine decision a [`SpanKind::ChainAudit`] span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditAction {
    /// A specialized chain was installed for the event.
    Install,
    /// A deployed chain was dropped: the new plan does not want it, or its
    /// bindings changed while it was out of the runtime.
    Drop,
    /// The engine's quarantine barred the event's chain.
    Quarantine,
    /// A reprofile ran; the `why` field carries the evidence summary.
    Reprofile,
    /// A hot event was left running generically; `why` says why not.
    Decline,
}

/// What a span describes. Each variant belongs to one layer — see
/// [`SpanKind::layer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// An external request admitted by the ingress front door; the root
    /// of a wire-originated trace.
    Ingress {
        /// Request discriminator (`open`, `raise`, `query`, `close`),
        /// borrowed when recorded and owned when parsed from a dump.
        request: Cow<'static, str>,
        /// Ingress connection id the request arrived on.
        conn: u64,
    },
    /// A *queued* raise observed by the runtime — the enqueue half of
    /// the async/timer happens-before edge ([`SpanKind::Dispatch`] is
    /// the dequeue half). Synchronous raises record no raise span: the
    /// dispatch span represents both, keeping the hot path at one ring
    /// write per dispatch.
    Raise {
        /// Raw event id.
        event: u32,
        /// `queue` or `timer`.
        mode: DispatchSrc,
    },
    /// One handler-chain dispatch.
    Dispatch {
        /// Raw event id.
        event: u32,
        /// True when the specialized fast lane served the dispatch.
        fast: bool,
        /// How the dispatch was reached.
        src: DispatchSrc,
        /// Virtual-clock nanoseconds spent queued before dispatch began
        /// (zero for sync dispatches).
        queued_ns: u64,
    },
    /// A rebind invalidated a specialized chain: its guards were found
    /// refuted and dispatch fell back to the generic path (recorded once
    /// per such rebind, by the first dispatch to notice).
    GuardMiss {
        /// Raw event id.
        event: u32,
    },
    /// The runtime removed a specialized chain (containment).
    Despecialize {
        /// Raw event id.
        event: u32,
    },
    /// A fault (injected, or a contained organic handler trap) hit a
    /// dispatch of `event`.
    Fault {
        /// Raw event id.
        event: u32,
        /// The fault kind's label (`trap_dispatch`, `handler_trap`, …),
        /// borrowed when recorded and owned when parsed from a dump.
        kind: Cow<'static, str>,
    },
    /// A session was restored from a snapshot image.
    Restore {
        /// Session id.
        session: u64,
    },
    /// An adaptive-engine decision, with the profile evidence that
    /// triggered it — the auditable "why" record.
    ChainAudit {
        /// Raw event id the decision concerns; `None` for a
        /// reprofile-level summary.
        event: Option<u32>,
        /// Which decision was taken.
        action: AuditAction,
        /// Human-readable evidence (`fresh=…`, `threshold=…`, …).
        why: String,
    },
    /// Aggregate wire activity attributable to this trace: CTP segments
    /// / retransmits or SecComm frames moved while the protocol engine
    /// ran.
    Wire {
        /// `ctp` or `seccomm`, borrowed when recorded and owned when
        /// parsed from a dump.
        proto: Cow<'static, str>,
        /// Frames/segments moved.
        frames: u64,
        /// Retransmissions among them (CTP only).
        retransmits: u64,
    },
}

impl SpanKind {
    /// The layer this span belongs to: `ingress`, `server`, `runtime`,
    /// `adapt`, or `wire`.
    pub fn layer(&self) -> &'static str {
        match self {
            SpanKind::Ingress { .. } => "ingress",
            SpanKind::Restore { .. } => "server",
            SpanKind::Raise { .. }
            | SpanKind::Dispatch { .. }
            | SpanKind::GuardMiss { .. }
            | SpanKind::Despecialize { .. }
            | SpanKind::Fault { .. } => "runtime",
            SpanKind::ChainAudit { .. } => "adapt",
            SpanKind::Wire { .. } => "wire",
        }
    }

    /// True for the spans every request or dispatch leaves (ingress,
    /// raise, dispatch, wire); false for the rare ones that record what
    /// the system decided or suffered. The two classes fill separate
    /// rings.
    fn is_traffic(&self) -> bool {
        matches!(
            self,
            SpanKind::Ingress { .. }
                | SpanKind::Raise { .. }
                | SpanKind::Dispatch { .. }
                | SpanKind::Wire { .. }
        )
    }

    /// Short display name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Ingress { .. } => "ingress",
            SpanKind::Raise { .. } => "raise",
            SpanKind::Dispatch { .. } => "dispatch",
            SpanKind::GuardMiss { .. } => "guard_miss",
            SpanKind::Despecialize { .. } => "despecialize",
            SpanKind::Fault { .. } => "fault",
            SpanKind::Restore { .. } => "restore",
            SpanKind::ChainAudit { .. } => "audit",
            SpanKind::Wire { .. } => "wire",
        }
    }
}

impl fmt::Display for DispatchSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DispatchSrc::Sync => "sync",
            DispatchSrc::Queue => "queue",
            DispatchSrc::Timer => "timer",
        })
    }
}

impl fmt::Display for AuditAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditAction::Install => "install",
            AuditAction::Drop => "drop",
            AuditAction::Quarantine => "quarantine",
            AuditAction::Reprofile => "reprofile",
            AuditAction::Decline => "decline",
        })
    }
}

/// One node of a trace's happens-before DAG. Plain `Send` data: the
/// server's store records spans locally and the ingress ships clones in
/// a wire-level `TraceDump`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The trace it belongs to.
    pub trace: TraceId,
    /// The causally preceding span, if any (roots have none).
    pub parent: Option<SpanId>,
    /// Virtual-clock start, nanoseconds.
    pub start_ns: u64,
    /// Virtual-clock end, nanoseconds (`== start_ns` for instant spans).
    pub end_ns: u64,
    /// What happened.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration on the virtual clock.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded ring: once full, each push overwrites the oldest entry.
#[derive(Debug)]
struct Ring<T> {
    items: Vec<T>,
    cap: usize,
    /// The oldest entry once the ring is full (0 until then).
    head: usize,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            items: Vec::new(),
            cap,
            head: 0,
        }
    }

    // Inlined into the dispatch path (a generic is instantiated there),
    // the push and the overwritten span's drop glue cost ~6 ns more per
    // span than the call does.
    #[inline(never)]
    fn push(&mut self, item: T) {
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Retained entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.items.split_at(self.head);
        older.iter().chain(newer)
    }
}

#[derive(Debug)]
struct Rings {
    /// Ingress, raise, dispatch and wire spans.
    traffic: Ring<Span>,
    /// Every other span, with the number of traffic spans recorded before
    /// it: what no amount of traffic may evict, and where it falls among
    /// the traffic.
    rare: Ring<(u64, Span)>,
    /// Traffic spans ever recorded.
    traffic_recorded: u64,
    /// Rare spans ever recorded.
    rare_recorded: u64,
}

#[derive(Debug)]
struct StoreShared {
    /// Outside the `RefCell` so the per-dispatch enabled-check is a
    /// plain load, not a borrow.
    enabled: Cell<bool>,
    tag: u16,
    next_trace: Cell<u64>,
    next_span: Cell<u64>,
    rings: RefCell<Rings>,
}

/// A bounded, cheaply-clonable span store. One per server plus one in
/// the ingress front door, each with its own tag, so ids minted by the
/// two never collide. Single-threaded like [`crate::ObsHub`];
/// cross-thread collection ships `Vec<Span>` clones.
#[derive(Debug, Clone)]
pub struct TraceStore {
    shared: Rc<StoreShared>,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new(0)
    }
}

impl TraceStore {
    /// A store whose ids carry `tag` in their high 16 bits, retaining
    /// [`DEFAULT_TRACE_CAPACITY`] spans. Starts enabled.
    pub fn new(tag: u16) -> TraceStore {
        TraceStore::with_capacity(tag, DEFAULT_TRACE_CAPACITY)
    }

    /// A store retaining at most `capacity` spans (clamped to ≥ 2), one
    /// eighth of them (at least one) reserved for the rare ones (see the
    /// module docs).
    pub fn with_capacity(tag: u16, capacity: usize) -> TraceStore {
        let cap = capacity.max(2);
        let rare = (cap / 8).max(1);
        TraceStore {
            shared: Rc::new(StoreShared {
                enabled: Cell::new(true),
                tag,
                next_trace: Cell::new(1),
                next_span: Cell::new(1),
                rings: RefCell::new(Rings {
                    traffic: Ring::new(cap - rare),
                    rare: Ring::new(rare),
                    traffic_recorded: 0,
                    rare_recorded: 0,
                }),
            }),
        }
    }

    /// True when spans are being recorded. The hot-path check every
    /// instrumentation site performs before doing any work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.enabled.get()
    }

    /// Turns recording on or off without detaching the store.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.set(on);
    }

    /// Mints a fresh trace id (tag-partitioned).
    #[inline]
    pub fn mint_trace(&self) -> TraceId {
        let n = self.shared.next_trace.get();
        self.shared.next_trace.set(n + 1);
        TraceId((u64::from(self.shared.tag) << 48) | n)
    }

    /// Allocates the next span id without recording anything — callers
    /// bracket work: allocate, run, then [`TraceStore::record`] the
    /// completed span (children may already reference the id).
    #[inline]
    pub fn next_span_id(&self) -> SpanId {
        let n = self.shared.next_span.get();
        self.shared.next_span.set(n + 1);
        SpanId((u64::from(self.shared.tag) << 48) | n)
    }

    /// Resolves a context: an explicit `ctx` wins; otherwise a fresh
    /// trace is minted and the span becomes its root. Returns
    /// `(trace, parent, allocated span id)`.
    #[inline]
    pub fn begin(&self, ctx: Option<TraceCtx>) -> (TraceId, Option<SpanId>, SpanId) {
        let (trace, parent) = match ctx {
            Some(c) => (c.trace, Some(c.parent)),
            None => (self.mint_trace(), None),
        };
        (trace, parent, self.next_span_id())
    }

    /// Appends a completed span to its class's ring.
    #[inline]
    pub fn record(&self, span: Span) {
        let rings = &mut *self.shared.rings.borrow_mut();
        if span.kind.is_traffic() {
            rings.traffic_recorded += 1;
            rings.traffic.push(span);
        } else {
            rings.rare_recorded += 1;
            rings.rare.push((rings.traffic_recorded, span));
        }
    }

    /// Records an instant (or pre-timed) span under `ctx` — minting a
    /// fresh trace when `ctx` is `None` — and returns the new span's
    /// context for further children. No-op returning `None` when
    /// disabled.
    #[inline]
    pub fn record_under(
        &self,
        ctx: Option<TraceCtx>,
        start_ns: u64,
        end_ns: u64,
        kind: SpanKind,
    ) -> Option<TraceCtx> {
        if !self.enabled() {
            return None;
        }
        let (trace, parent, id) = self.begin(ctx);
        self.record(Span {
            id,
            trace,
            parent,
            start_ns,
            end_ns,
            kind,
        });
        Some(TraceCtx { trace, parent: id })
    }

    /// Every retained span of both rings, merged in record order.
    pub fn spans(&self) -> Vec<Span> {
        let rings = self.shared.rings.borrow();
        let mut out = Vec::with_capacity(rings.traffic.items.len() + rings.rare.items.len());
        let mut rare = rings.rare.iter().peekable();
        // `before`: how many traffic spans were recorded before `span`.
        let oldest = rings.traffic_recorded - rings.traffic.items.len() as u64;
        for (before, span) in (oldest..).zip(rings.traffic.iter()) {
            while let Some((_, r)) = rare.next_if(|(n, _)| *n <= before) {
                out.push(r.clone());
            }
            out.push(span.clone());
        }
        out.extend(rare.map(|(_, r)| r.clone()));
        out
    }

    /// Total spans ever recorded (monotone; exceeds the retained count
    /// once a ring wraps).
    pub fn recorded(&self) -> u64 {
        let rings = self.shared.rings.borrow();
        rings.traffic_recorded + rings.rare_recorded
    }

    /// Retained spans belonging to `trace`, oldest first.
    pub fn for_trace(&self, trace: TraceId) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → the microsecond strings Chrome's trace viewer expects
/// (`ts`/`dur` are µs; fractional part keeps ns precision).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Exports spans as Chrome trace-event JSON (`{"traceEvents":[…]}`),
/// loadable in `about:tracing` or Perfetto. Each span becomes a
/// complete ("X") event: `pid` is the trace id (so one trace renders as
/// one process group), `tid` is the layer, and `args` carries the span
/// and parent ids so the DAG edges survive the export.
pub fn export_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let detail = match &s.kind {
            SpanKind::Ingress { request, conn } => {
                format!(
                    ",\"request\":\"{}\",\"conn\":{}",
                    json_escape(request),
                    conn
                )
            }
            SpanKind::Raise { event, mode } => format!(",\"event\":{event},\"mode\":\"{mode}\""),
            SpanKind::Dispatch {
                event,
                fast,
                src,
                queued_ns,
            } => format!(
                ",\"event\":{event},\"lane\":\"{}\",\"src\":\"{src}\",\"queued_ns\":{queued_ns}",
                if *fast { "fast" } else { "slow" }
            ),
            SpanKind::GuardMiss { event } | SpanKind::Despecialize { event } => {
                format!(",\"event\":{event}")
            }
            SpanKind::Fault { event, kind } => {
                format!(",\"event\":{event},\"fault\":\"{}\"", json_escape(kind))
            }
            SpanKind::Restore { session } => format!(",\"session\":{session}"),
            SpanKind::ChainAudit { event, action, why } => format!(
                ",\"event\":{},\"action\":\"{action}\",\"why\":\"{}\"",
                event.map_or_else(|| "-1".into(), |e| e.to_string()),
                json_escape(why)
            ),
            SpanKind::Wire {
                proto,
                frames,
                retransmits,
            } => format!(
                ",\"proto\":\"{}\",\"frames\":{frames},\"retransmits\":{retransmits}",
                json_escape(proto)
            ),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":\"{}\",\"args\":{{\"span\":{},\"parent\":{}{detail}}}}}",
            s.kind.name(),
            s.kind.layer(),
            us(s.start_ns),
            us(s.dur_ns()),
            s.trace.0,
            s.kind.layer(),
            s.id.0,
            s.parent.map_or_else(|| "null".into(), |p| p.0.to_string()),
        ));
    }
    out.push_str("]}");
    out
}

/// Exports spans one per line in a machine-parseable `key=value` form —
/// the oracle's and `trace_report`'s input format. Inverse of
/// [`parse_lines`]. Free-text `why` fields come last on the line with
/// newlines escaped.
pub fn export_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".into(), |p| p.0.to_string());
        out.push_str(&format!(
            "span trace={} id={} parent={} start={} end={} layer={} kind={}",
            s.trace.0,
            s.id.0,
            parent,
            s.start_ns,
            s.end_ns,
            s.kind.layer(),
            s.kind.name()
        ));
        match &s.kind {
            SpanKind::Ingress { request, conn } => {
                out.push_str(&format!(" req={request} conn={conn}"));
            }
            SpanKind::Raise { event, mode } => out.push_str(&format!(" event={event} mode={mode}")),
            SpanKind::Dispatch {
                event,
                fast,
                src,
                queued_ns,
            } => out.push_str(&format!(
                " event={event} lane={} src={src} queued={queued_ns}",
                if *fast { "fast" } else { "slow" }
            )),
            SpanKind::GuardMiss { event } | SpanKind::Despecialize { event } => {
                out.push_str(&format!(" event={event}"));
            }
            SpanKind::Fault { event, kind } => {
                out.push_str(&format!(" event={event} fault={kind}"));
            }
            SpanKind::Restore { session } => out.push_str(&format!(" session={session}")),
            SpanKind::ChainAudit { event, action, why } => out.push_str(&format!(
                " event={} action={action} why={}",
                event.map_or_else(|| "-".into(), |e| e.to_string()),
                why.replace('\n', "\\n")
            )),
            SpanKind::Wire {
                proto,
                frames,
                retransmits,
            } => out.push_str(&format!(
                " proto={proto} frames={frames} retransmits={retransmits}"
            )),
        }
        out.push('\n');
    }
    out
}

/// Parses a line dump produced by [`export_lines`]; unparseable lines
/// are skipped (the oracle may interleave other diagnostics).
pub fn parse_lines(text: &str) -> Vec<Span> {
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(span) = parse_line(line.trim()) {
            out.push(span);
        }
    }
    out
}

fn parse_line(line: &str) -> Option<Span> {
    let rest = line.strip_prefix("span ")?;
    // `why=` consumes the remainder of the line; split it off first.
    let (head, why) = match rest.split_once(" why=") {
        Some((h, w)) => (h, Some(w.replace("\\n", "\n"))),
        None => (rest, None),
    };
    let mut kv = BTreeMap::new();
    for tok in head.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        kv.insert(k, v);
    }
    let trace = TraceId(kv.get("trace")?.parse().ok()?);
    let id = SpanId(kv.get("id")?.parse().ok()?);
    let parent = match *kv.get("parent")? {
        "-" => None,
        p => Some(SpanId(p.parse().ok()?)),
    };
    let start_ns: u64 = kv.get("start")?.parse().ok()?;
    let end_ns: u64 = kv.get("end")?.parse().ok()?;
    let src_of = |s: &str| match s {
        "sync" => Some(DispatchSrc::Sync),
        "queue" => Some(DispatchSrc::Queue),
        "timer" => Some(DispatchSrc::Timer),
        _ => None,
    };
    let kind = match *kv.get("kind")? {
        "ingress" => SpanKind::Ingress {
            request: Cow::Owned((*kv.get("req")?).to_string()),
            conn: kv.get("conn")?.parse().ok()?,
        },
        "raise" => SpanKind::Raise {
            event: kv.get("event")?.parse().ok()?,
            mode: src_of(kv.get("mode")?)?,
        },
        "dispatch" => SpanKind::Dispatch {
            event: kv.get("event")?.parse().ok()?,
            fast: *kv.get("lane")? == "fast",
            src: src_of(kv.get("src")?)?,
            queued_ns: kv.get("queued")?.parse().ok()?,
        },
        "guard_miss" => SpanKind::GuardMiss {
            event: kv.get("event")?.parse().ok()?,
        },
        "despecialize" => SpanKind::Despecialize {
            event: kv.get("event")?.parse().ok()?,
        },
        "fault" => SpanKind::Fault {
            event: kv.get("event")?.parse().ok()?,
            kind: Cow::Owned((*kv.get("fault")?).to_string()),
        },
        "restore" => SpanKind::Restore {
            session: kv.get("session")?.parse().ok()?,
        },
        "audit" => SpanKind::ChainAudit {
            event: match *kv.get("event")? {
                "-" => None,
                e => Some(e.parse().ok()?),
            },
            action: match *kv.get("action")? {
                "install" => AuditAction::Install,
                "drop" => AuditAction::Drop,
                "quarantine" => AuditAction::Quarantine,
                "reprofile" => AuditAction::Reprofile,
                "decline" => AuditAction::Decline,
                _ => return None,
            },
            why: why.unwrap_or_default(),
        },
        "wire" => SpanKind::Wire {
            proto: Cow::Owned((*kv.get("proto")?).to_string()),
            frames: kv.get("frames")?.parse().ok()?,
            retransmits: kv.get("retransmits")?.parse().ok()?,
        },
        _ => return None,
    };
    Some(Span {
        id,
        trace,
        parent,
        start_ns,
        end_ns,
        kind,
    })
}

/// Every distinct trace id present in `spans`, ascending.
pub fn trace_ids(spans: &[Span]) -> Vec<TraceId> {
    let mut ids: Vec<TraceId> = spans.iter().map(|s| s.trace).collect();
    ids.sort();
    ids.dedup();
    ids
}

/// The critical path of `trace`: from the latest-ending span, follow
/// parent edges back to the root (or to the oldest retained ancestor if
/// the ring evicted earlier spans). Returned root-first.
pub fn critical_path(spans: &[Span], trace: TraceId) -> Vec<Span> {
    let mut by_id: BTreeMap<SpanId, &Span> = BTreeMap::new();
    let mut tip: Option<&Span> = None;
    for s in spans.iter().filter(|s| s.trace == trace) {
        by_id.insert(s.id, s);
        let better = match tip {
            None => true,
            Some(t) => (s.end_ns, s.id) > (t.end_ns, t.id),
        };
        if better {
            tip = Some(s);
        }
    }
    let mut path = Vec::new();
    let mut cur = tip;
    let mut hops = 0usize;
    while let Some(s) = cur {
        path.push(s.clone());
        hops += 1;
        if hops > by_id.len() {
            break; // defensive: a corrupt parse could introduce a cycle
        }
        cur = s.parent.and_then(|p| by_id.get(&p).copied());
    }
    path.reverse();
    path
}

/// Where a critical path's latency went, in virtual-clock nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Self time of fast-lane (specialized chain) dispatches.
    pub fast_ns: u64,
    /// Self time of slow-lane (generic) dispatches.
    pub slow_ns: u64,
    /// Self time of wire spans (CTP segments / SecComm frames).
    pub wire_ns: u64,
    /// Time spent queued (async run queue or timer heap) before
    /// dispatch began.
    pub sched_wait_ns: u64,
    /// Everything else on the path (ingress framing, raise overhead).
    pub other_ns: u64,
}

impl Attribution {
    /// Total attributed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.fast_ns + self.slow_ns + self.wire_ns + self.sched_wait_ns + self.other_ns
    }
}

/// Attributes a critical path's latency (path as returned by
/// [`critical_path`], root-first). Nested spans are charged self time
/// only — a parent's duration minus its on-path child's — so nothing is
/// double-counted; `queued_ns` of each dispatch is charged to scheduler
/// wait.
pub fn attribute(path: &[Span]) -> Attribution {
    let mut a = Attribution::default();
    for (i, s) in path.iter().enumerate() {
        let child_dur = path.get(i + 1).map_or(0, Span::dur_ns);
        let self_ns = s.dur_ns().saturating_sub(child_dur);
        match &s.kind {
            SpanKind::Dispatch {
                fast, queued_ns, ..
            } => {
                a.sched_wait_ns += queued_ns;
                if *fast {
                    a.fast_ns += self_ns;
                } else {
                    a.slow_ns += self_ns;
                }
            }
            SpanKind::Wire { .. } => a.wire_ns += self_ns,
            _ => a.other_ns += self_ns,
        }
    }
    a
}

/// Renders a critical path as indented one-line-per-span text with an
/// attribution footer — the form the chaos oracle appends to its panic
/// message and `trace_report` prints per trace.
pub fn render_path(path: &[Span]) -> String {
    let mut out = String::new();
    for (depth, s) in path.iter().enumerate() {
        let detail = match &s.kind {
            SpanKind::Ingress { request, conn } => format!("{request} conn={conn}"),
            SpanKind::Raise { event, mode } => format!("event={event} mode={mode}"),
            SpanKind::Dispatch {
                event,
                fast,
                src,
                queued_ns,
            } => format!(
                "event={event} lane={} src={src} queued={queued_ns}ns",
                if *fast { "fast" } else { "slow" }
            ),
            SpanKind::GuardMiss { event } | SpanKind::Despecialize { event } => {
                format!("event={event}")
            }
            SpanKind::Fault { event, kind } => format!("event={event} fault={kind}"),
            SpanKind::Restore { session } => format!("session={session}"),
            SpanKind::ChainAudit { event, action, why } => format!(
                "event={} action={action} why: {why}",
                event.map_or_else(|| "-".into(), |e| e.to_string())
            ),
            SpanKind::Wire {
                proto,
                frames,
                retransmits,
            } => format!("proto={proto} frames={frames} retx={retransmits}"),
        };
        out.push_str(&format!(
            "{:indent$}{} [{}] {}..{} ({}ns) {}\n",
            "",
            s.kind.name(),
            s.kind.layer(),
            s.start_ns,
            s.end_ns,
            s.dur_ns(),
            detail,
            indent = depth * 2
        ));
    }
    let a = attribute(path);
    out.push_str(&format!(
        "attribution: fast={}ns slow={}ns wire={}ns sched_wait={}ns other={}ns total={}ns\n",
        a.fast_ns,
        a.slow_ns,
        a.wire_ns,
        a.sched_wait_ns,
        a.other_ns,
        a.total_ns()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(store: &TraceStore, ctx: Option<TraceCtx>, s: u64, e: u64, kind: SpanKind) -> TraceCtx {
        store.record_under(ctx, s, e, kind).expect("enabled")
    }

    fn sample_trace(store: &TraceStore) -> TraceId {
        let root = mk(
            store,
            None,
            0,
            5000,
            SpanKind::Ingress {
                request: "raise".into(),
                conn: 7,
            },
        );
        let raise = mk(
            store,
            Some(root),
            100,
            100,
            SpanKind::Raise {
                event: 3,
                mode: DispatchSrc::Queue,
            },
        );
        let disp = mk(
            store,
            Some(raise),
            600,
            4000,
            SpanKind::Dispatch {
                event: 3,
                fast: false,
                src: DispatchSrc::Queue,
                queued_ns: 500,
            },
        );
        mk(
            store,
            Some(disp),
            700,
            700,
            SpanKind::GuardMiss { event: 3 },
        );
        mk(
            store,
            Some(disp),
            800,
            3000,
            SpanKind::Wire {
                proto: "ctp".into(),
                frames: 4,
                retransmits: 1,
            },
        );
        mk(
            store,
            Some(disp),
            3500,
            3600,
            SpanKind::ChainAudit {
                event: Some(3),
                action: AuditAction::Install,
                why: "fresh=40 threshold=0.5 cache=miss".into(),
            },
        );
        root.trace
    }

    #[test]
    fn line_dump_round_trips() {
        let store = TraceStore::new(1);
        sample_trace(&store);
        let root = &store.spans()[0];
        let ctx = Some(TraceCtx {
            trace: root.trace,
            parent: root.id,
        });
        for kind in [
            SpanKind::Despecialize { event: 3 },
            SpanKind::Fault {
                event: 3,
                kind: "trap_dispatch".into(),
            },
            SpanKind::Restore { session: 9 },
        ] {
            mk(&store, ctx, 4100, 4100, kind);
        }
        let spans = store.spans();
        // One span of every kind: the match has no wildcard, so a new kind
        // fails to compile here until it is added to the dump.
        let mut seen = std::collections::BTreeSet::new();
        for s in &spans {
            seen.insert(match s.kind {
                SpanKind::Ingress { .. } => 0,
                SpanKind::Raise { .. } => 1,
                SpanKind::Dispatch { .. } => 2,
                SpanKind::GuardMiss { .. } => 3,
                SpanKind::Despecialize { .. } => 4,
                SpanKind::Fault { .. } => 5,
                SpanKind::Restore { .. } => 6,
                SpanKind::ChainAudit { .. } => 7,
                SpanKind::Wire { .. } => 8,
            });
        }
        assert_eq!(seen.len(), 9, "one span of every kind");
        let text = export_lines(&spans);
        assert_eq!(text.lines().count(), spans.len());
        let back = parse_lines(&text);
        assert_eq!(back, spans);
    }

    #[test]
    fn rare_spans_always_land_and_dispatches_never_evict_them() {
        // Fourteen traffic slots, two rare ones.
        let store = TraceStore::with_capacity(6, 16);
        let miss = SpanKind::GuardMiss { event: 1 };
        let fault = SpanKind::Fault {
            event: 1,
            kind: "trap_dispatch".into(),
        };
        store.record_under(None, 150, 150, miss.clone());
        // Far more dispatches than the traffic ring holds, with a fault
        // among the newest of them.
        for i in 0..64 {
            if i == 56 {
                store.record_under(None, 256, 256, fault.clone());
            }
            let kind = SpanKind::Dispatch {
                event: 1,
                fast: true,
                src: DispatchSrc::Sync,
                queued_ns: 0,
            };
            store.record_under(None, 200 + i, 205 + i, kind);
        }
        assert_eq!(store.recorded(), 66);
        // The miss, then the fourteen newest dispatches with the fault
        // where it was recorded: record order.
        let spans = store.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(spans[0].kind, miss);
        assert_eq!(spans[7].kind, fault);
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        let mut want = vec![150];
        want.extend(250..264);
        want.insert(7, 256);
        assert_eq!(starts, want);
    }

    #[test]
    fn critical_path_walks_to_the_root_and_attributes_latency() {
        let store = TraceStore::new(2);
        let trace = sample_trace(&store);
        let spans = store.spans();
        let path = critical_path(&spans, trace);
        // Latest-ending span is the ingress root itself (end=5000), so
        // the path is just the root; check the dispatch-tipped subgraph
        // instead by looking at the full-trace span set.
        assert_eq!(path.first().unwrap().kind.layer(), "ingress");
        let layers: std::collections::BTreeSet<&str> =
            spans.iter().map(|s| s.kind.layer()).collect();
        assert!(layers.contains("ingress") && layers.contains("runtime"));
        assert!(layers.contains("adapt") && layers.contains("wire"));
        // Attribution on a hand-built nested path.
        let a = attribute(&critical_path(
            &spans
                .iter()
                .filter(|s| s.kind.layer() != "ingress")
                .cloned()
                .collect::<Vec<_>>(),
            trace,
        ));
        // Path: raise(0ns) -> dispatch(3400ns, queued 500).
        assert_eq!(a.sched_wait_ns, 500);
        assert_eq!(a.slow_ns, 3400);
    }

    #[test]
    fn chrome_export_contains_every_span_and_balanced_braces() {
        let store = TraceStore::new(3);
        sample_trace(&store);
        let spans = store.spans();
        let json = export_chrome(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        // Escaping: a hostile why string stays inside its JSON string.
        let s = store
            .record_under(
                None,
                0,
                1,
                SpanKind::ChainAudit {
                    event: None,
                    action: AuditAction::Reprofile,
                    why: "quote=\" slash=\\ nl=\n".into(),
                },
            )
            .unwrap();
        let json = export_chrome(&store.for_trace(s.trace));
        assert!(json.contains("quote=\\\" slash=\\\\ nl=\\n"));
    }

    #[test]
    fn ring_bounds_memory_and_recorded_is_monotone() {
        // Eight rare slots.
        let store = TraceStore::with_capacity(4, 64);
        for i in 0..20u64 {
            store.record_under(None, i, i, SpanKind::GuardMiss { event: i as u32 });
        }
        let spans = store.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(store.recorded(), 20);
        // Oldest-first snapshot of the newest 8.
        let events: Vec<u32> = spans
            .iter()
            .map(|s| match s.kind {
                SpanKind::GuardMiss { event } => event,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(events, (12..20).collect::<Vec<u32>>());
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = TraceStore::new(5);
        store.set_enabled(false);
        assert!(store
            .record_under(None, 0, 1, SpanKind::GuardMiss { event: 1 })
            .is_none());
        assert_eq!(store.recorded(), 0);
        store.set_enabled(true);
        assert!(store
            .record_under(None, 0, 1, SpanKind::GuardMiss { event: 1 })
            .is_some());
    }

    #[test]
    fn ids_are_tag_partitioned() {
        let a = TraceStore::new(1);
        let b = TraceStore::new(2);
        assert_ne!(a.mint_trace(), b.mint_trace());
        assert_ne!(a.next_span_id(), b.next_span_id());
        assert_eq!(a.mint_trace().0 >> 48, 1);
        assert_eq!(b.next_span_id().0 >> 48, 2);
    }
}
