//! `pdo-server`: a sharded multi-session event server with an online
//! adaptive-specialization loop.
//!
//! The paper's workflow is per-program and offline: trace one run,
//! optimize, redeploy. A realistic event server hosts *many* independent
//! sessions — transport connections, secure channels, plain event
//! programs — each with its own hot paths that shift over time. This
//! crate puts the whole pipeline online and multi-tenant:
//!
//! - A [`Server`] owns `N` [shards](ServerConfig::shards) and is **one
//!   thread**: `Runtime` is `!Send` (handlers are boxed native closures
//!   over unsynchronized module state) and the paper's programs are
//!   event loops — one handler runs at a time. Every operation is a
//!   direct call on the shard that holds the session; scale-out is more
//!   servers behind the ingress. Shards are the unit of placement,
//!   migration, admission queues, metric labels and trace-id tags.
//! - New sessions are placed by **power-of-two-choices** over reported
//!   shard load (resident sessions, then cumulative dispatches) with
//!   splitmix64 supplying the two deterministic candidates, and the
//!   server can [`rebalance`](Server::rebalance) by draining an
//!   idle session's spec from the hottest shard and restoring it on the
//!   coolest — all deterministic, no wall-clock input.
//! - Every session gets a per-session adaptive-specialization daemon (an
//!   [`AdaptiveEngine`]) attached through the runtime's epoch hook. The
//!   daemon samples the session's live trace window on virtual-clock
//!   epoch boundaries *inside* `Runtime::run_until`, re-profiles when
//!   enough fresh events accumulate (or a healed chain reports stale),
//!   and — only when what is hot or what is bound changed — hot-swaps
//!   compiled chains under binding-content guards, with no caller
//!   involvement anywhere. Repeated workload phases are served from the
//!   engine's `ChainCache` instead of re-running `optimize`.
//! - Protocol endpoints ([`CtpEndpoint`], SecComm [`Endpoint`]) are
//!   constructed *through* the server, so protocol sessions are
//!   shard-resident and adapt exactly like plain ones.
//! - [`Server::report`] snapshots per-shard and per-session counters;
//!   [`Server::metrics`] scrapes every layer into one
//!   [`MetricsSnapshot`], including per-shard queue-depth and busy-ns
//!   load series. Callers reach a session through the closure-taking
//!   [`Server::with_session`] family and the snapshot-returning
//!   [`Server::engine_stats`]; the server keeps ownership, so placement
//!   and migration never invalidate a caller's borrow.

use pdo::{AdaptConfig, AdaptStats, AdaptiveEngine};
use pdo_cactus::EventProgram;
use pdo_ctp::{CtpEndpoint, CtpError, CtpParams};
/// The mix behind placement: two deterministic shard candidates from a
/// session id here, a connection's shard from its id in the ingress.
pub use pdo_events::splitmix64;
use pdo_events::{Runtime, RuntimeConfig, RuntimeError};
use pdo_ir::{EventId, FuncId, GlobalId, Module, RaiseMode, Value};
use pdo_obs::{Histogram, MetricsSnapshot, Span, SpanKind, TraceCtx, TraceStore};
use pdo_seccomm::{Endpoint as SecCommEndpoint, Keys, SecCommError};
use pdo_snap::{Codec, SnapWriter, SnapshotError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

mod snapshot;
use snapshot::{Image, KindSnapshot, SessionSnapshot};

/// Identifies one session for the lifetime of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl pdo_snap::Codec for SessionId {
    fn put(&self, w: &mut pdo_snap::SnapWriter) {
        w.u64(self.0);
    }
    fn take(r: &mut pdo_snap::SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SessionId(r.take_u64()?))
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of shards sessions are placed onto (min 1).
    pub shards: usize,
    /// Adaptation-loop configuration applied to every session opened
    /// through this server.
    pub adapt: AdaptConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            adapt: AdaptConfig::default(),
        }
    }
}

/// Server failure, tagged with the session it occurred on.
#[derive(Debug)]
pub enum ServerError {
    /// No session with that id exists.
    UnknownSession(SessionId),
    /// The session exists but is not of the requested protocol kind.
    WrongKind(SessionId),
    /// The session's event runtime failed.
    Runtime(SessionId, RuntimeError),
    /// A CTP session failed.
    Ctp(SessionId, CtpError),
    /// A SecComm session failed.
    SecComm(SessionId, SecCommError),
    /// A durable snapshot failed to encode, persist, read, or decode.
    /// Corrupt or truncated input always lands here — never a panic.
    Snapshot(SnapshotError),
    /// The server is quiesced ([`Server::quiesce`]): it stops admitting
    /// new sessions and new work until [`Server::resume_admission`].
    Quiesced,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(s) => write!(f, "unknown session {s}"),
            ServerError::WrongKind(s) => write!(f, "session {s} is not of the requested kind"),
            ServerError::Runtime(s, e) => write!(f, "session {s}: runtime error: {e}"),
            ServerError::Ctp(s, e) => write!(f, "session {s}: {e}"),
            ServerError::SecComm(s, e) => write!(f, "session {s}: {e}"),
            ServerError::Snapshot(e) => write!(f, "{e}"),
            ServerError::Quiesced => write!(f, "server is quiesced (not admitting)"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A decoded image that is not one this server could have written.
fn malformed(why: String) -> ServerError {
    ServerError::Snapshot(SnapshotError::Malformed(why))
}

/// What lives inside a session: a plain event program or a protocol
/// endpoint built through the server. Protocol variants carry their
/// rebuild recipe (params/keys) so any session kind can be snapshotted
/// and reconstructed on another shard or after a restart.
enum SessionKind {
    Plain(Runtime),
    Ctp { ep: CtpEndpoint, params: CtpParams },
    SecComm { ep: SecCommEndpoint, keys: Keys },
}

/// One resident session: its runtime (possibly wrapped in a protocol
/// endpoint) plus the adaptation daemon attached to it. Callers reach it
/// through [`Server::with_session`] closures.
struct Session {
    kind: SessionKind,
    engine: Rc<RefCell<AdaptiveEngine>>,
}

impl Session {
    fn runtime(&self) -> &Runtime {
        match &self.kind {
            SessionKind::Plain(rt) => rt,
            SessionKind::Ctp { ep, .. } => ep.runtime(),
            SessionKind::SecComm { ep, .. } => ep.runtime(),
        }
    }

    fn runtime_mut(&mut self) -> &mut Runtime {
        kind_runtime_mut(&mut self.kind)
    }
}

fn kind_runtime_mut(kind: &mut SessionKind) -> &mut Runtime {
    match kind {
        SessionKind::Plain(rt) => rt,
        SessionKind::Ctp { ep, .. } => ep.runtime_mut(),
        SessionKind::SecComm { ep, .. } => ep.runtime_mut(),
    }
}

/// Everything needed to build a new session on a shard.
enum SessionSpec {
    Plain {
        module: Arc<Module>,
        config: RuntimeConfig,
        bindings: Vec<(EventId, FuncId, i32)>,
    },
    Ctp {
        program: EventProgram,
        params: CtpParams,
    },
    SecComm {
        program: EventProgram,
        keys: Keys,
    },
}

/// Why [`Server::rebalance`] refused to migrate a session. Surfaced per
/// session in [`SessionReport::refusal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateRefusal {
    /// The session's async FIFO is non-empty: it is mid-batch, and
    /// moving it would interleave the move into its dispatch order.
    QueuedEvents,
    /// The session's live trace window holds undrained records: it is
    /// mid-epoch, and moving it would discard that window's profile
    /// contribution.
    MidEpoch,
}

impl fmt::Display for MigrateRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateRefusal::QueuedEvents => write!(f, "queued events"),
            MigrateRefusal::MidEpoch => write!(f, "mid-epoch trace window"),
        }
    }
}

/// A point-in-time load summary of one shard, used for
/// power-of-two-choices placement and hottest/coolest selection in
/// [`Server::rebalance`]. All fields except `busy_ns` are derived from
/// the virtual clock and deterministic counters; `busy_ns` is wall
/// clock (observability only — never an input to placement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: usize,
    /// Resident sessions.
    pub sessions: usize,
    /// Cumulative events dispatched across the shard's sessions.
    pub dispatched: u64,
    /// Events currently queued or pending on timers across the shard.
    pub queue_depth: u64,
    /// Cumulative wall-clock time the shard spent inside `run_until`.
    pub busy_ns: u64,
    /// The furthest-advanced session clock on the shard (virtual ns).
    /// [`Server::quiesce`] drains every shard to the fleet-wide maximum.
    pub max_clock_ns: u64,
}

/// Adaptation and dispatch counters of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The session.
    pub session: SessionId,
    /// The shard it resides on.
    pub shard: usize,
    /// Events dispatched (sync + async/timed raises).
    pub dispatched: u64,
    /// Specialized fast-path dispatches taken.
    pub fastpath_hits: u64,
    /// Specialized dispatches that failed their guards and fell back.
    pub guard_misses: u64,
    /// Compiled chains currently installed.
    pub chains_live: usize,
    /// The session daemon's adaptation counters.
    pub adapt: AdaptStats,
    /// Why the session would currently be refused migration (`None` =
    /// quiescent, migratable by [`Server::rebalance`]).
    pub refusal: Option<MigrateRefusal>,
}

/// Aggregated counters of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// Resident sessions.
    pub sessions: usize,
    /// Events dispatched across the shard.
    pub dispatched: u64,
    /// Fast-path dispatches across the shard.
    pub fastpath_hits: u64,
    /// Guard misses across the shard.
    pub guard_misses: u64,
    /// Compiled chains currently installed across the shard.
    pub chains_live: usize,
    /// Summed adaptation counters of the shard's session daemons.
    pub adapt: AdaptStats,
}

/// A point-in-time snapshot of the whole server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// One entry per shard (index = shard number).
    pub shards: Vec<ShardReport>,
    /// One entry per session, sorted by [`SessionId`] so the report is
    /// byte-stable regardless of shard layout.
    pub sessions: Vec<SessionReport>,
}

impl ServerReport {
    /// Total events dispatched across the server.
    pub fn dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.dispatched).sum()
    }

    /// Total fast-path dispatches across the server.
    pub fn fastpath_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.fastpath_hits).sum()
    }
}

// `ServerReport` deliberately has no `Display`: the renderable form of the
// server's state is [`Server::metrics`] → `MetricsSnapshot::render()`,
// which exposes the same counters (and more) in one standard text format
// instead of a second hand-rolled one.

/// One shard's complete state and behavior: the sessions placed on it,
/// the trace store they share, and its load gauges. [`Server`] calls
/// these methods directly.
struct ShardState {
    index: usize,
    adapt: AdaptConfig,
    sessions: BTreeMap<SessionId, Session>,
    /// Cumulative wall-clock ns spent in `run_until` (obs only).
    busy_ns: u64,
    /// The shard's causal trace store, shared with every resident
    /// runtime. Tagged `index + 1` so span/trace ids minted by
    /// different shards (and by the ingress, tag `0xFFFF`) never
    /// collide when the server merges them.
    tracer: TraceStore,
}

impl ShardState {
    fn new(index: usize, adapt: AdaptConfig) -> ShardState {
        ShardState {
            index,
            adapt,
            sessions: BTreeMap::new(),
            busy_ns: 0,
            tracer: TraceStore::new((index as u16).wrapping_add(1)),
        }
    }

    /// Builds the session described by `spec` and attaches its
    /// adaptation daemon.
    fn open(&mut self, id: SessionId, spec: SessionSpec) -> Result<(), ServerError> {
        let mut kind = match spec {
            SessionSpec::Plain {
                module,
                config,
                bindings,
            } => {
                let mut rt = Runtime::with_config(module, config);
                for (event, handler, order) in bindings {
                    rt.bind(event, handler, order)
                        .map_err(|e| ServerError::Runtime(id, e))?;
                }
                SessionKind::Plain(rt)
            }
            SessionSpec::Ctp { program, params } => {
                let mut ep =
                    CtpEndpoint::new(&program, params).map_err(|e| ServerError::Ctp(id, e))?;
                ep.open().map_err(|e| ServerError::Ctp(id, e))?;
                SessionKind::Ctp { ep, params }
            }
            SessionSpec::SecComm { program, keys } => SessionKind::SecComm {
                ep: SecCommEndpoint::new(&program, &keys)
                    .map_err(|e| ServerError::SecComm(id, e))?,
                keys,
            },
        };
        let rt = kind_runtime_mut(&mut kind);
        rt.enable_observability();
        rt.set_tracer(self.tracer.clone());
        let engine = AdaptiveEngine::attach_new(rt, self.adapt);
        self.sessions.insert(id, Session { kind, engine });
        Ok(())
    }

    /// Rebuilds a session from its snapshot: endpoint natives from the
    /// carried recipe, then globals, scheduler queue/timers, pending
    /// fault plan, virtual clock (before the epoch hook exists, so the
    /// catch-up doesn't fire a burst of stale epochs), endpoint link or
    /// wire state, and finally the adaptation daemon — restored, so the
    /// session resumes specialization where it left off. A `Placement`
    /// span records the arrival: migrated from shard `from`, or restored
    /// from an image when `from` is `None`.
    fn restore(
        &mut self,
        id: SessionId,
        snap: SessionSnapshot,
        from: Option<u32>,
    ) -> Result<(), ServerError> {
        let SessionSnapshot {
            module,
            config,
            bindings,
            globals,
            clock_ns,
            sched,
            injector,
            engine,
            kind,
        } = snap;
        let mut kind = match kind {
            KindSnapshot::Plain => {
                let mut rt = Runtime::with_config(Arc::clone(&module), config);
                for &(event, handler, order) in &bindings {
                    rt.bind(event, handler, order)
                        .map_err(|e| ServerError::Runtime(id, e))?;
                }
                SessionKind::Plain(rt)
            }
            KindSnapshot::Ctp { params, link } => {
                let program = EventProgram {
                    module: Arc::clone(&module),
                    bindings,
                };
                // No `open()`: a restored session resumes, it does not
                // re-run session setup.
                let mut ep =
                    CtpEndpoint::new(&program, params).map_err(|e| ServerError::Ctp(id, e))?;
                ep.restore_link(*link);
                SessionKind::Ctp { ep, params }
            }
            KindSnapshot::SecComm { keys, wire } => {
                let program = EventProgram {
                    module: Arc::clone(&module),
                    bindings,
                };
                let mut ep = SecCommEndpoint::new(&program, &keys)
                    .map_err(|e| ServerError::SecComm(id, e))?;
                ep.restore_wire(*wire);
                SessionKind::SecComm { ep, keys }
            }
        };
        let rt = kind_runtime_mut(&mut kind);
        if globals.len() != module.globals.len() {
            return Err(malformed(format!(
                "session {id} carries {} globals for a module declaring {}",
                globals.len(),
                module.globals.len()
            )));
        }
        for (idx, value) in globals.into_iter().enumerate() {
            rt.set_global(GlobalId::from_index(idx), value);
        }
        rt.restore_sched(sched);
        if let Some(injector) = injector {
            rt.set_fault_injector(injector);
        }
        // Endpoint kinds build their runtime internally; re-apply the one
        // config knob that can change after construction.
        rt.set_fault_policy(config.fault_policy);
        if clock_ns > 0 {
            rt.advance_clock(clock_ns);
        }
        rt.enable_observability();
        rt.set_tracer(self.tracer.clone());
        let now = rt.clock_ns();
        let placed = SpanKind::Placement {
            session: id.0,
            from,
            to: self.index as u32,
        };
        self.tracer.record_under(None, now, now, placed);
        let engine = AdaptiveEngine::attach_restored(rt, module, self.adapt, engine);
        self.sessions.insert(id, Session { kind, engine });
        Ok(())
    }

    fn close(&mut self, id: SessionId) -> bool {
        self.sessions.remove(&id).is_some()
    }

    fn raise(
        &mut self,
        id: SessionId,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
        ctx: Option<TraceCtx>,
    ) -> Result<(), ServerError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        let before = Self::wire_counters(&session.kind);
        let result = session
            .runtime_mut()
            .raise_traced(event, mode, args, ctx)
            .map_err(|e| ServerError::Runtime(id, e));
        Self::record_wire_delta(&self.tracer, session, before);
        result
    }

    /// Wire-layer counters of a protocol session: protocol name, frames
    /// put on the wire, retransmissions. `None` for plain sessions.
    fn wire_counters(kind: &SessionKind) -> Option<(&'static str, u64, u64)> {
        match kind {
            SessionKind::Plain(_) => None,
            SessionKind::Ctp { ep, .. } => {
                let s = ep.stats();
                Some((
                    "ctp",
                    s.segments_sent.max(0) as u64,
                    s.retransmissions.max(0) as u64,
                ))
            }
            SessionKind::SecComm { ep, .. } => Some(("seccomm", ep.frames_sent(), 0)),
        }
    }

    /// Records a `Wire` span on the shard tracer when a protocol
    /// session's wire counters moved past `before`, parented to the
    /// dispatch that moved them (the runtime's last top-level trace
    /// context) so frame/retransmit activity hangs off the causal DAG
    /// of the stimulus that caused it.
    fn record_wire_delta(
        tracer: &TraceStore,
        session: &Session,
        before: Option<(&'static str, u64, u64)>,
    ) {
        if !tracer.enabled() {
            return;
        }
        let (Some((proto, f0, r0)), Some((_, f1, r1))) =
            (before, Self::wire_counters(&session.kind))
        else {
            return;
        };
        if f1 == f0 && r1 == r0 {
            return;
        }
        let rt = session.runtime();
        let now = rt.clock_ns();
        tracer.record_under(
            rt.last_trace_ctx(),
            now,
            now,
            SpanKind::Wire {
                proto: proto.to_string(),
                frames: f1.saturating_sub(f0),
                retransmits: r1.saturating_sub(r0),
            },
        );
    }

    /// Oldest-first copy of every span retained by the shard tracer.
    fn trace_spans(&self) -> Vec<Span> {
        self.tracer.spans()
    }

    /// Submits a batch of timed raises of `event`, one per delay.
    fn batch(&mut self, id: SessionId, event: EventId, delays: &[u64]) -> Result<(), ServerError> {
        let rt = self
            .sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?
            .runtime_mut();
        for &delay_ns in delays {
            rt.raise(event, RaiseMode::Timed, &[Value::Int(delay_ns as i64)])
                .map_err(|e| ServerError::Runtime(id, e))?;
        }
        Ok(())
    }

    /// Advances every resident session to `deadline_ns` in id order:
    /// dispatches all due work, then pads each session's clock so
    /// adaptation epochs fire even when idle. Stops at the first failing
    /// session and reports it.
    fn run_until(&mut self, deadline_ns: u64) -> Result<(), ServerError> {
        let started = Instant::now();
        let result = self.run_until_inner(deadline_ns);
        self.busy_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn run_until_inner(&mut self, deadline_ns: u64) -> Result<(), ServerError> {
        for (&id, session) in &mut self.sessions {
            let before = Self::wire_counters(&session.kind);
            match &mut session.kind {
                SessionKind::Ctp { ep, .. } => {
                    // Pads its clock and checks link liveness itself.
                    ep.run_until(deadline_ns)
                        .map_err(|e| ServerError::Ctp(id, e))?;
                }
                SessionKind::Plain(rt) => {
                    rt.run_until(deadline_ns)
                        .map_err(|e| ServerError::Runtime(id, e))?;
                    let now = rt.clock_ns();
                    if deadline_ns > now {
                        rt.advance_clock(deadline_ns - now);
                    }
                }
                SessionKind::SecComm { ep, .. } => {
                    let rt = ep.runtime_mut();
                    rt.run_until(deadline_ns)
                        .map_err(|e| ServerError::Runtime(id, e))?;
                    let now = rt.clock_ns();
                    if deadline_ns > now {
                        ep.tick(deadline_ns - now);
                    }
                }
            }
            Self::record_wire_delta(&self.tracer, session, before);
        }
        Ok(())
    }

    fn load(&self) -> ShardLoad {
        let mut dispatched = 0u64;
        let mut queue_depth = 0u64;
        let mut max_clock_ns = 0u64;
        for session in self.sessions.values() {
            let rt = session.runtime();
            dispatched += rt.cost.registry_lookups + rt.cost.fastpath_hits;
            queue_depth += rt.pending() as u64;
            max_clock_ns = max_clock_ns.max(rt.clock_ns());
        }
        ShardLoad {
            shard: self.index,
            sessions: self.sessions.len(),
            dispatched,
            queue_depth,
            busy_ns: self.busy_ns,
            max_clock_ns,
        }
    }

    /// Why this session cannot migrate right now, or `None` if it is
    /// quiescent. Timers are *not* a refusal: the scheduler snapshot
    /// carries the timer heap, so a session parked on perpetual timers
    /// (every protocol endpoint) still migrates cleanly.
    fn refusal_of(session: &Session) -> Option<MigrateRefusal> {
        let rt = session.runtime();
        if rt.queued_len() > 0 {
            Some(MigrateRefusal::QueuedEvents)
        } else if !rt.trace().records.is_empty() {
            Some(MigrateRefusal::MidEpoch)
        } else {
            None
        }
    }

    /// Captures one session's complete state: base module, bindings,
    /// globals, clock, scheduler queue/timers, pending fault plan, the
    /// adaptation daemon's profile/quarantine, and (for protocol kinds)
    /// the endpoint's link or wire state plus its rebuild recipe.
    fn snapshot_session(session: &Session) -> SessionSnapshot {
        let module = Arc::clone(session.engine.borrow().base());
        let rt = session.runtime();
        let mut bindings = Vec::new();
        for idx in 0..module.events.len() {
            let event = EventId::from_index(idx);
            for b in rt.registry().bindings(event) {
                bindings.push((event, b.handler, b.order));
            }
        }
        let globals = (0..module.globals.len())
            .map(|idx| rt.global(GlobalId::from_index(idx)).clone())
            .collect();
        let kind = match &session.kind {
            SessionKind::Plain(_) => KindSnapshot::Plain,
            SessionKind::Ctp { ep, params } => KindSnapshot::Ctp {
                params: *params,
                link: Box::new(ep.export_link()),
            },
            SessionKind::SecComm { ep, keys } => KindSnapshot::SecComm {
                keys: keys.clone(),
                wire: Box::new(ep.export_wire()),
            },
        };
        SessionSnapshot {
            config: rt.config(),
            bindings,
            globals,
            clock_ns: rt.clock_ns(),
            sched: rt.export_sched(),
            injector: rt.fault_injector().cloned(),
            engine: session.engine.borrow().snapshot(),
            kind,
            module,
        }
    }

    /// Drains the lowest-id quiescent session of *any* kind: nothing in
    /// the async FIFO and no live trace window (see [`Self::refusal_of`]).
    /// The session is removed and its complete snapshot returned.
    fn drain_quiescent(&mut self) -> Option<(SessionId, SessionSnapshot)> {
        let id = self
            .sessions
            .iter()
            .find(|(_, s)| Self::refusal_of(s).is_none())
            .map(|(&id, _)| id)?;
        let session = self.sessions.remove(&id).expect("session found above");
        Some((id, Self::snapshot_session(&session)))
    }

    /// Snapshots every resident session in id order, without removing
    /// any. Used by [`Server::snapshot_to_bytes`]; unlike rebalance this
    /// is unconditional — the scheduler snapshot carries queued work, so
    /// nothing is lost (only the live trace window's profile
    /// contribution, which is empty at epoch boundaries).
    fn snapshot_all(&self) -> Vec<(SessionId, SessionSnapshot)> {
        self.sessions
            .iter()
            .map(|(&id, s)| (id, Self::snapshot_session(s)))
            .collect()
    }

    /// Scrapes this shard into a fresh snapshot: per-shard session and
    /// load series plus every session's runtime, adaptation, and
    /// protocol counters. Sessions iterate in id order so histograms
    /// merge deterministically.
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let sh = self.index.to_string();
        let labels: [(&str, &str); 1] = [("shard", &sh)];
        let load = self.load();
        snap.gauge(
            "pdo_server_sessions",
            "Sessions resident on the shard",
            &labels,
            load.sessions as i64,
        );
        snap.gauge(
            "pdo_server_queue_depth",
            "Events queued or pending on timers across the shard",
            &labels,
            load.queue_depth as i64,
        );
        snap.counter(
            "pdo_server_shard_busy_ns_total",
            "Cumulative wall-clock ns the shard spent inside run_until",
            &labels,
            load.busy_ns,
        );
        for session in self.sessions.values() {
            let rt = session.runtime();
            rt.export_metrics(&mut snap, &labels);
            session
                .engine
                .borrow()
                .export_metrics(rt, &mut snap, &labels);
            match &session.kind {
                SessionKind::Plain(_) => {}
                SessionKind::Ctp { ep, .. } => ep.stats().export_metrics(&mut snap, &labels),
                SessionKind::SecComm { ep, .. } => snap.counter(
                    "pdo_seccomm_mac_failures_total",
                    "Inbound SecComm messages rejected by MAC verification",
                    &labels,
                    ep.mac_failures(),
                ),
            }
        }
        snap
    }

    fn report(&self) -> (ShardReport, Vec<SessionReport>) {
        let mut agg = ShardReport {
            shard: self.index,
            sessions: self.sessions.len(),
            ..Default::default()
        };
        let mut rows = Vec::with_capacity(self.sessions.len());
        for (&id, session) in &self.sessions {
            let rt = session.runtime();
            let adapt = session.engine.borrow().stats();
            let row = SessionReport {
                session: id,
                shard: self.index,
                // One registry lookup per generic dispatch; fast-path
                // dispatches skip the registry, so the sum counts
                // every dispatched event exactly once.
                dispatched: rt.cost.registry_lookups + rt.cost.fastpath_hits,
                fastpath_hits: rt.cost.fastpath_hits,
                guard_misses: rt.cost.fastpath_misses,
                chains_live: rt.spec().len(),
                adapt,
                refusal: Self::refusal_of(session),
            };
            agg.dispatched += row.dispatched;
            agg.fastpath_hits += row.fastpath_hits;
            agg.guard_misses += row.guard_misses;
            agg.chains_live += row.chains_live;
            agg.adapt.absorb(&adapt);
            rows.push(row);
        }
        (agg, rows)
    }
}

/// A borrow of one session, delivered to [`Server::with_session`]
/// closures: the only way callers touch shard-interior state.
pub struct SessionCtx<'a> {
    id: SessionId,
    shard: usize,
    session: &'a mut Session,
}

impl SessionCtx<'_> {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The shard the session resides on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The session's runtime.
    pub fn runtime(&self) -> &Runtime {
        self.session.runtime()
    }

    /// The session's runtime, mutably.
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        self.session.runtime_mut()
    }

    /// Runs `f` against the session's adaptation daemon.
    pub fn engine<R>(&self, f: impl FnOnce(&AdaptiveEngine) -> R) -> R {
        f(&self.session.engine.borrow())
    }

    /// The daemon's counters.
    pub fn engine_stats(&self) -> AdaptStats {
        self.engine(|e| e.stats())
    }

    /// The CTP endpoint, if this is a CTP session.
    pub fn ctp(&mut self) -> Option<&mut CtpEndpoint> {
        match &mut self.session.kind {
            SessionKind::Ctp { ep, .. } => Some(ep),
            _ => None,
        }
    }

    /// The SecComm endpoint, if this is a SecComm session.
    pub fn seccomm(&mut self) -> Option<&mut SecCommEndpoint> {
        match &mut self.session.kind {
            SessionKind::SecComm { ep, .. } => Some(ep),
            _ => None,
        }
    }
}

/// The sharded multi-session server.
pub struct Server {
    shards: Vec<ShardState>,
    next_id: u64,
    /// False after [`Server::quiesce`]: opens and raises are refused with
    /// [`ServerError::Quiesced`] until [`Server::resume_admission`].
    admitting: bool,
    /// Where every open session lives.
    placement: BTreeMap<SessionId, usize>,
    /// Last observed per-shard load (index = shard). `sessions` is
    /// maintained synchronously on open/close; the rest refreshes on
    /// `run_until`, `shard_loads`, and `rebalance`.
    loads: Vec<ShardLoad>,
    snapshots_total: u64,
    restores_total: u64,
    snapshot_bytes: Histogram,
    /// Payload length of the previous image: the next one's encode buffer
    /// starts at this size instead of growing to it by doubling.
    last_payload_len: usize,
    encode_wall_ns: Histogram,
    decode_wall_ns: Histogram,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("shards", &self.shards.len())
            .field("sessions", &self.placement.len())
            .finish()
    }
}

impl Server {
    /// An empty server with `config.shards` shards (at least one).
    pub fn new(config: ServerConfig) -> Self {
        let shards = config.shards.max(1);
        Server {
            shards: (0..shards)
                .map(|i| ShardState::new(i, config.adapt))
                .collect(),
            next_id: 1,
            admitting: true,
            placement: BTreeMap::new(),
            loads: (0..shards)
                .map(|shard| ShardLoad {
                    shard,
                    ..Default::default()
                })
                .collect(),
            snapshots_total: 0,
            restores_total: 0,
            snapshot_bytes: Histogram::new(),
            last_payload_len: 0,
            encode_wall_ns: Histogram::new(),
            decode_wall_ns: Histogram::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard session `id` resides on.
    ///
    /// # Panics
    ///
    /// If the session is not open (placement is only defined for live
    /// sessions — a closed or unknown id has no shard).
    pub fn shard_of(&self, id: SessionId) -> usize {
        *self
            .placement
            .get(&id)
            .unwrap_or_else(|| panic!("session {id} is not open"))
    }

    /// The shard session `id` resides on, or `UnknownSession`.
    fn placed(&self, id: SessionId) -> Result<usize, ServerError> {
        self.placement
            .get(&id)
            .copied()
            .ok_or(ServerError::UnknownSession(id))
    }

    /// All open session ids, ordered by shard then id.
    pub fn sessions(&self) -> Vec<SessionId> {
        let mut by_shard: Vec<(usize, SessionId)> =
            self.placement.iter().map(|(&id, &sh)| (sh, id)).collect();
        by_shard.sort();
        by_shard.into_iter().map(|(_, id)| id).collect()
    }

    /// Power-of-two-choices placement: two deterministic candidates from
    /// splitmix64, pick the one with fewer sessions (then fewer
    /// cumulative dispatches, then the lower index). Every input is
    /// deterministic, so placement is reproducible run to run.
    fn pick_shard(&self, id: SessionId) -> usize {
        let n = self.loads.len() as u64;
        let c1 = (splitmix64(id.0) % n) as usize;
        let c2 = (splitmix64(splitmix64(id.0)) % n) as usize;
        let key = |s: usize| (self.loads[s].sessions, self.loads[s].dispatched, s);
        if key(c2) < key(c1) {
            c2
        } else {
            c1
        }
    }

    /// Opens a session on `pin` when given (wrapped modulo the shard
    /// count — the ingress pins a connection's sessions to the shard its
    /// connection was mapped onto), p2c placement otherwise.
    fn open_at(&mut self, spec: SessionSpec, pin: Option<usize>) -> Result<SessionId, ServerError> {
        if !self.admitting {
            return Err(ServerError::Quiesced);
        }
        let id = SessionId(self.next_id);
        let shard = match pin {
            Some(s) => s % self.shards(),
            None => self.pick_shard(id),
        };
        self.shards[shard].open(id, spec)?;
        self.next_id += 1;
        self.placement.insert(id, shard);
        self.loads[shard].sessions += 1;
        Ok(id)
    }

    /// Opens a plain event-program session: builds a [`Runtime`] over
    /// `module` on the chosen shard, applies `bindings` (event, handler,
    /// order), and attaches the adaptive-specialization daemon.
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn open_session(
        &mut self,
        module: impl Into<Arc<Module>>,
        config: RuntimeConfig,
        bindings: &[(EventId, FuncId, i32)],
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::Plain {
                module: module.into(),
                config,
                bindings: bindings.to_vec(),
            },
            None,
        )
    }

    /// Opens a shard-resident CTP session over `program` and opens the
    /// protocol (runs setup handlers, starts the controller clock).
    ///
    /// # Errors
    ///
    /// Propagates endpoint construction and `Open` failures.
    pub fn open_ctp_session(
        &mut self,
        program: &EventProgram,
        params: CtpParams,
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::Ctp {
                program: program.clone(),
                params,
            },
            None,
        )
    }

    /// Opens a shard-resident SecComm session over `program` with `keys`.
    ///
    /// # Errors
    ///
    /// Propagates endpoint construction failures.
    pub fn open_seccomm_session(
        &mut self,
        program: &EventProgram,
        keys: &Keys,
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::SecComm {
                program: program.clone(),
                keys: keys.clone(),
            },
            None,
        )
    }

    /// As [`Server::open_session`], but pinned onto shard `shard`
    /// (wrapped modulo the shard count) instead of p2c placement. The
    /// ingress uses this to keep a connection's sessions resident on the
    /// shard the connection itself was mapped onto, so one connection's
    /// commands flow through one admission queue in order.
    ///
    /// # Errors
    ///
    /// As [`Server::open_session`], plus [`ServerError::Quiesced`].
    pub fn open_session_on(
        &mut self,
        shard: usize,
        module: impl Into<Arc<Module>>,
        config: RuntimeConfig,
        bindings: &[(EventId, FuncId, i32)],
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::Plain {
                module: module.into(),
                config,
                bindings: bindings.to_vec(),
            },
            Some(shard),
        )
    }

    /// As [`Server::open_ctp_session`], but pinned onto shard `shard`.
    ///
    /// # Errors
    ///
    /// As [`Server::open_ctp_session`], plus [`ServerError::Quiesced`].
    pub fn open_ctp_session_on(
        &mut self,
        shard: usize,
        program: &EventProgram,
        params: CtpParams,
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::Ctp {
                program: program.clone(),
                params,
            },
            Some(shard),
        )
    }

    /// As [`Server::open_seccomm_session`], but pinned onto shard `shard`.
    ///
    /// # Errors
    ///
    /// As [`Server::open_seccomm_session`], plus [`ServerError::Quiesced`].
    pub fn open_seccomm_session_on(
        &mut self,
        shard: usize,
        program: &EventProgram,
        keys: &Keys,
    ) -> Result<SessionId, ServerError> {
        self.open_at(
            SessionSpec::SecComm {
                program: program.clone(),
                keys: keys.clone(),
            },
            Some(shard),
        )
    }

    /// Closes a session, returning whether it existed.
    pub fn close_session(&mut self, id: SessionId) -> bool {
        let Some(&shard) = self.placement.get(&id) else {
            return false;
        };
        let existed = self.shards[shard].close(id);
        if existed {
            self.placement.remove(&id);
            self.loads[shard].sessions = self.loads[shard].sessions.saturating_sub(1);
        }
        existed
    }

    /// Raises `event` on session `id`.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`]; propagated runtime failures.
    pub fn raise(
        &mut self,
        id: SessionId,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
    ) -> Result<(), ServerError> {
        self.raise_traced(id, event, mode, args, None)
    }

    /// As [`Server::raise`], but records the raise under an existing
    /// trace context (e.g. the ingress span of the network request that
    /// caused it), so the cross-layer causal DAG stays connected. With
    /// `ctx = None` a fresh root trace is minted when tracing is on.
    ///
    /// # Errors
    ///
    /// As [`Server::raise`].
    pub fn raise_traced(
        &mut self,
        id: SessionId,
        event: EventId,
        mode: RaiseMode,
        args: &[Value],
        ctx: Option<TraceCtx>,
    ) -> Result<(), ServerError> {
        if !self.admitting {
            return Err(ServerError::Quiesced);
        }
        let shard = self.placed(id)?;
        self.shards[shard].raise(id, event, mode, args, ctx)
    }

    /// Raises `event` synchronously on session `id` (dispatches now).
    ///
    /// # Errors
    ///
    /// As [`Server::raise`].
    pub fn raise_sync(
        &mut self,
        id: SessionId,
        event: EventId,
        args: &[Value],
    ) -> Result<(), ServerError> {
        self.raise(id, event, RaiseMode::Sync, args)
    }

    /// Submits `event` to session `id`'s timer queue, due `delay_ns` from
    /// the session's current virtual time (the timed-raise convention puts
    /// the delay in `args[0]`; this prepends it).
    ///
    /// # Errors
    ///
    /// As [`Server::raise`].
    pub fn submit(
        &mut self,
        id: SessionId,
        event: EventId,
        delay_ns: u64,
        args: &[Value],
    ) -> Result<(), ServerError> {
        self.submit_traced(id, event, delay_ns, args, None)
    }

    /// As [`Server::submit`], but records the timer install under an
    /// existing trace context, so the eventual fire dispatches inside the
    /// same causal trace (with its queue wait attributed to the timer).
    ///
    /// # Errors
    ///
    /// As [`Server::raise`].
    pub fn submit_traced(
        &mut self,
        id: SessionId,
        event: EventId,
        delay_ns: u64,
        args: &[Value],
        ctx: Option<TraceCtx>,
    ) -> Result<(), ServerError> {
        let mut full = Vec::with_capacity(args.len() + 1);
        full.push(Value::Int(delay_ns as i64));
        full.extend_from_slice(args);
        self.raise_traced(id, event, RaiseMode::Timed, &full, ctx)
    }

    /// Submits one timed raise of `event` (no extra args) per delay in
    /// `delays` — a whole workload's injections behind one placement
    /// lookup.
    ///
    /// # Errors
    ///
    /// As [`Server::raise`].
    pub fn submit_batch(
        &mut self,
        id: SessionId,
        event: EventId,
        delays: &[u64],
    ) -> Result<(), ServerError> {
        if !self.admitting {
            return Err(ServerError::Quiesced);
        }
        let shard = self.placed(id)?;
        self.shards[shard].batch(id, event, delays)
    }

    /// Advances every session on every shard to `deadline_ns`: dispatches
    /// all due queued/timed work, then pads each session's clock to the
    /// deadline so adaptation epochs fire even on idle sessions. Shards
    /// run in index order and every shard always runs to the deadline;
    /// on failure the error of the lowest-indexed failing shard is
    /// reported (a shard stops at its first failing session).
    ///
    /// # Errors
    ///
    /// The lowest-indexed shard's first session failure (tagged with its
    /// session id).
    pub fn run_until(&mut self, deadline_ns: u64) -> Result<(), ServerError> {
        let mut first = Ok(());
        for (state, load) in self.shards.iter_mut().zip(&mut self.loads) {
            let result = state.run_until(deadline_ns);
            *load = state.load();
            if first.is_ok() {
                first = result;
            }
        }
        first
    }

    /// Runs `f` with a [`SessionCtx`] borrow of session `id`.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`].
    pub fn with_session<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut SessionCtx<'_>) -> R,
    ) -> Result<R, ServerError> {
        let shard = self.placed(id)?;
        let session = self.shards[shard]
            .sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        Ok(f(&mut SessionCtx { id, shard, session }))
    }

    /// Runs `f` against session `id`'s runtime.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`].
    pub fn with_runtime<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut Runtime) -> R,
    ) -> Result<R, ServerError> {
        self.with_session(id, |ctx| f(ctx.runtime_mut()))
    }

    /// Runs `f` against session `id`'s adaptation daemon.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`].
    pub fn with_engine<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&AdaptiveEngine) -> R,
    ) -> Result<R, ServerError> {
        self.with_session(id, |ctx| ctx.engine(f))
    }

    /// A snapshot of session `id`'s adaptation counters.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`].
    pub fn engine_stats(&mut self, id: SessionId) -> Result<AdaptStats, ServerError> {
        self.with_engine(id, |e| e.stats())
    }

    /// Runs `f` against a CTP session's endpoint (send, drain, stats).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`]; [`ServerError::WrongKind`] for a
    /// non-CTP session.
    pub fn with_ctp<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut CtpEndpoint) -> R,
    ) -> Result<R, ServerError> {
        self.with_session(id, |ctx| ctx.ctp().map(f))?
            .ok_or(ServerError::WrongKind(id))
    }

    /// Runs `f` against a SecComm session's endpoint (push, pop).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`]; [`ServerError::WrongKind`] for a
    /// non-SecComm session.
    pub fn with_seccomm<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&mut SecCommEndpoint) -> R,
    ) -> Result<R, ServerError> {
        self.with_session(id, |ctx| ctx.seccomm().map(f))?
            .ok_or(ServerError::WrongKind(id))
    }

    /// Fresh per-shard load readings (also refreshes the cache p2c
    /// placement reads).
    pub fn shard_loads(&mut self) -> Vec<ShardLoad> {
        self.loads = self.shards.iter().map(ShardState::load).collect();
        self.loads.clone()
    }

    /// One placement-rebalancing step, intended for epoch boundaries:
    /// picks the hottest shard (most dispatches, then most sessions) and
    /// the coolest (fewest sessions, then fewest dispatches), and if the
    /// hottest holds strictly more sessions, drains its lowest-id
    /// quiescent session — *any* kind: plain, CTP, or SecComm — and
    /// restores it on the coolest shard: same id, same bindings, same
    /// globals, same virtual clock, same scheduler queue/timers and
    /// endpoint link/wire state, and the same adaptation state, so the
    /// session resumes specialization instead of cold-starting.
    /// Quiescent means nothing in the async FIFO and no live trace
    /// window (see [`MigrateRefusal`]; refusals surface per session in
    /// [`SessionReport::refusal`]). Returns the migrated session, if
    /// any. Deterministic: load inputs are virtual-clock counters.
    ///
    /// # Errors
    ///
    /// Propagates a restore failure (the drained session is lost — it
    /// cannot fail for specs the server itself produced).
    pub fn rebalance(&mut self) -> Result<Option<SessionId>, ServerError> {
        let loads = self.shard_loads();
        if loads.len() < 2 {
            return Ok(None);
        }
        let mut hot = 0usize;
        let mut cool = 0usize;
        for l in &loads[1..] {
            let h = &loads[hot];
            if (l.dispatched, l.sessions) > (h.dispatched, h.sessions) {
                hot = l.shard;
            }
            let c = &loads[cool];
            if (l.sessions, l.dispatched) < (c.sessions, c.dispatched) {
                cool = l.shard;
            }
        }
        if hot == cool || loads[hot].sessions <= loads[cool].sessions {
            return Ok(None);
        }
        let Some((id, snap)) = self.shards[hot].drain_quiescent() else {
            return Ok(None);
        };
        self.placement.remove(&id);
        self.loads[hot].sessions = self.loads[hot].sessions.saturating_sub(1);
        self.shards[cool].restore(id, snap, Some(hot as u32))?;
        self.placement.insert(id, cool);
        self.loads[cool].sessions += 1;
        Ok(Some(id))
    }

    /// Graceful-shutdown drain: stops admitting (every subsequent open,
    /// raise, or submit returns [`ServerError::Quiesced`] until
    /// [`Server::resume_admission`]), then advances every shard to the
    /// fleet's furthest session clock: `run_until` dispatches every
    /// queued async event and every timer due by the drain deadline, and
    /// pads the stragglers' clocks to it. Afterwards
    /// each session's FIFO is empty and all clocks agree — the fleet is
    /// idle in exactly the state [`Server::save`] assumes, instead of
    /// snapshotting mid-flight work and hoping the image carries it.
    /// Returns the common virtual time the fleet was drained to.
    ///
    /// # Errors
    ///
    /// Propagates the first session failure of the drain (a failed drain
    /// still leaves admission stopped).
    pub fn quiesce(&mut self) -> Result<u64, ServerError> {
        self.admitting = false;
        let deadline = self
            .shard_loads()
            .iter()
            .map(|l| l.max_clock_ns)
            .max()
            .unwrap_or(0);
        self.run_until(deadline)?;
        Ok(deadline)
    }

    /// Re-opens admission after [`Server::quiesce`].
    pub fn resume_admission(&mut self) {
        self.admitting = true;
    }

    /// False between [`Server::quiesce`] and [`Server::resume_admission`].
    pub fn is_admitting(&self) -> bool {
        self.admitting
    }

    /// Serializes the whole server — every session on every shard, of
    /// every kind — into one durable, versioned, checksummed image (see
    /// `pdo-snap` for the framing). Unconditional: unlike
    /// [`Server::rebalance`] it never refuses a session, because the
    /// scheduler snapshot carries queued work and timers. The only state
    /// not captured is each session's live trace window (the profile
    /// contribution of the *current* partial epoch), which is empty at
    /// epoch boundaries — snapshot there and the image is exact.
    ///
    /// Encoding is deterministic: sessions are sorted by id and every
    /// interior map iterates in key order, so equal servers produce
    /// byte-identical images.
    pub fn snapshot_to_bytes(&mut self) -> Vec<u8> {
        let started = Instant::now();
        let mut sessions = BTreeMap::new();
        for (shard, state) in self.shards.iter().enumerate() {
            for (id, snap) in state.snapshot_all() {
                sessions.insert(id, (shard, snap));
            }
        }
        let image = Image {
            next_id: self.next_id,
            sessions,
        };
        let mut w = SnapWriter::with_capacity(self.last_payload_len);
        image.put(&mut w);
        self.last_payload_len = w.len();
        let bytes = w.finish();
        self.snapshots_total += 1;
        self.snapshot_bytes.record(bytes.len() as u64);
        self.encode_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        bytes
    }

    /// Rebuilds sessions from an image produced by
    /// [`Server::snapshot_to_bytes`], restoring each onto a shard (the
    /// recorded shard when it exists on this server, wrapped modulo the
    /// shard count otherwise) with its id, state, and adaptation profile
    /// intact. Returns the restored ids in ascending order.
    ///
    /// # Errors
    ///
    /// A corrupt, truncated, or version-skewed image yields
    /// [`ServerError::Snapshot`] — never a panic. An image session id
    /// that is already open on this server, or an id allocator that is
    /// not past the image's own sessions, is rejected the same way,
    /// before any session from the image is opened.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SessionId>, ServerError> {
        let started = Instant::now();
        let Image { next_id, sessions } = pdo_snap::decode(bytes).map_err(ServerError::Snapshot)?;
        if let Some(last) = sessions.keys().next_back() {
            if next_id <= last.0 {
                return Err(malformed(format!(
                    "image id allocator {next_id} is not past its session {last}"
                )));
            }
        }
        for id in sessions.keys() {
            if self.placement.contains_key(id) {
                return Err(malformed(format!(
                    "image session {id} is already open on this server"
                )));
            }
        }
        // Before the loop: a session failing mid-restore must not leave
        // already-restored ids ahead of the allocator.
        self.next_id = self.next_id.max(next_id);
        let mut restored = Vec::with_capacity(sessions.len());
        for (id, (shard, snap)) in sessions {
            let shard = shard % self.shards();
            self.shards[shard].restore(id, snap, None)?;
            self.placement.insert(id, shard);
            self.loads[shard].sessions += 1;
            restored.push(id);
        }
        self.restores_total += 1;
        self.decode_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(restored)
    }

    /// Every session's base module and the module its runtime executes,
    /// by id: what the sharing tests compare allocations of.
    #[cfg(test)]
    fn base_modules(&self) -> Vec<(SessionId, Arc<Module>, Arc<Module>)> {
        let mut all: Vec<_> = self
            .shards
            .iter()
            .flat_map(|state| &state.sessions)
            .map(|(&id, s)| {
                let base = Arc::clone(s.engine.borrow().base());
                (id, base, s.runtime().module_arc())
            })
            .collect();
        all.sort_by_key(|(id, ..)| *id);
        all
    }

    /// Persists [`Server::snapshot_to_bytes`] to `path` atomically:
    /// written to a sibling temp file, synced, renamed, then the parent
    /// directory synced, so a crash mid-write leaves either the old image
    /// or the new one — never a torn file — and an `Ok` survives power
    /// loss.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`ServerError::Snapshot`].
    pub fn save(&mut self, path: &Path) -> Result<(), ServerError> {
        let bytes = self.snapshot_to_bytes();
        pdo_snap::write_atomic(path, &bytes).map_err(ServerError::Snapshot)
    }

    /// Reads a durable image from `path` and restores it (see
    /// [`Server::restore_from_bytes`]).
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt images yield [`ServerError::Snapshot`].
    pub fn restore_from_file(&mut self, path: &Path) -> Result<Vec<SessionId>, ServerError> {
        let bytes = pdo_snap::read(path).map_err(ServerError::Snapshot)?;
        self.restore_from_bytes(&bytes)
    }

    /// Scrapes every shard into one server-wide [`MetricsSnapshot`]:
    /// runtime dispatch counters and latency histograms, adaptation
    /// counters/gauges (including chain-cache hits/misses/evictions),
    /// shard load gauges (`pdo_server_queue_depth`,
    /// `pdo_server_shard_busy_ns_total`), and protocol fault counters
    /// (CTP link faults and backoff, SecComm MAC failures), every series
    /// labelled with its `shard`. Sessions on the same shard aggregate
    /// by construction — counters add and histograms merge — so this
    /// *is* the per-shard rollup, and `MetricsSnapshot::merge` rolls
    /// servers up the same way. Shards are scraped and merged in index
    /// order, so the result is identical run to run (modulo the
    /// wall-clock families, which `retain_families` can strip).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for state in &self.shards {
            snap.merge(&state.metrics());
        }
        snap.counter(
            "pdo_server_snapshots_total",
            "Durable server images encoded",
            &[],
            self.snapshots_total,
        );
        snap.counter(
            "pdo_server_restores_total",
            "Durable server images restored",
            &[],
            self.restores_total,
        );
        snap.histogram(
            "pdo_server_snapshot_bytes",
            "Encoded size of durable server images",
            &[],
            &self.snapshot_bytes,
        );
        snap.histogram(
            "pdo_server_snapshot_encode_wall_ns",
            "Wall-clock ns spent encoding durable images",
            &[],
            &self.encode_wall_ns,
        );
        snap.histogram(
            "pdo_server_snapshot_decode_wall_ns",
            "Wall-clock ns spent decoding and restoring durable images",
            &[],
            &self.decode_wall_ns,
        );
        snap
    }

    /// Collects every shard's retained trace spans in shard-index order
    /// (spans stay oldest-first within a shard). Span/trace ids are
    /// partitioned by shard tag, so the merged vector never aliases ids
    /// across shards; together with an ingress tracer's spans this is
    /// the full cross-layer causal DAG, ready for
    /// [`pdo_obs::trace::export_chrome`] / `export_lines`.
    pub fn trace_spans(&self) -> Vec<Span> {
        self.shards
            .iter()
            .flat_map(ShardState::trace_spans)
            .collect()
    }

    /// A point-in-time snapshot of per-shard and per-session counters.
    /// Shards are collected in index order and sessions sorted by id,
    /// so two servers that executed the same workload produce equal
    /// reports.
    pub fn report(&self) -> ServerReport {
        let mut report = ServerReport::default();
        for state in &self.shards {
            let (shard, sessions) = state.report();
            report.shards.push(shard);
            report.sessions.extend(sessions);
        }
        report.sessions.sort_by_key(|row| row.session);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::{BinOp, FunctionBuilder};

    /// Two independent events; handler `k` of each adds `k` to its event's
    /// accumulator, so one dispatch of [h1, h2] adds 3.
    fn two_chain_module() -> (Module, [EventId; 2], [pdo_ir::GlobalId; 2]) {
        let mut m = Module::new();
        let a = m.add_event("A");
        let b = m.add_event("B");
        let ga = m.add_global("acc_a", Value::Int(0));
        let gb = m.add_global("acc_b", Value::Int(0));
        let adder = |m: &mut Module, name: &str, g: pdo_ir::GlobalId, d: i64| {
            let mut fb = FunctionBuilder::new(name, 0);
            let v = fb.load_global(g);
            let dd = fb.const_int(d);
            let o = fb.bin(BinOp::Add, v, dd);
            fb.store_global(g, o);
            fb.ret(None);
            m.add_function(fb.finish())
        };
        adder(&mut m, "a1", ga, 1);
        adder(&mut m, "a2", ga, 2);
        adder(&mut m, "b1", gb, 1);
        adder(&mut m, "b2", gb, 2);
        (m, [a, b], [ga, gb])
    }

    fn bindings(m: &Module, a: EventId, b: EventId) -> Vec<(EventId, FuncId, i32)> {
        vec![
            (a, m.function_by_name("a1").unwrap(), 0),
            (a, m.function_by_name("a2").unwrap(), 1),
            (b, m.function_by_name("b1").unwrap(), 0),
            (b, m.function_by_name("b2").unwrap(), 1),
        ]
    }

    fn fast_adapt() -> AdaptConfig {
        AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: pdo::OptimizeOptions::new(10),
            ..Default::default()
        }
    }

    #[test]
    fn p2c_placement_is_deterministic_and_spread() {
        let (m, [a, b], _) = two_chain_module();
        let open_all = || {
            let mut server = Server::new(ServerConfig {
                shards: 4,
                adapt: fast_adapt(),
            });
            let mut shards = Vec::new();
            for _ in 0..16 {
                let id = server
                    .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
                    .unwrap();
                shards.push(server.shard_of(id));
            }
            shards
        };
        let placed = open_all();
        assert_eq!(placed, open_all(), "placement is reproducible run to run");
        let mut seen = [0usize; 4];
        for &s in &placed {
            seen[s] += 1;
        }
        // P2c over session counts keeps the spread tight: every shard is
        // populated and no shard is more than two sessions over even.
        assert!(seen.iter().all(|&n| n > 0), "p2c spreads: {seen:?}");
        assert!(*seen.iter().max().unwrap() <= 6, "p2c balances: {seen:?}");
    }

    #[test]
    fn sessions_report_their_shard_and_close() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            shards: 3,
            adapt: fast_adapt(),
        });
        let mut ids = Vec::new();
        for _ in 0..9 {
            ids.push(
                server
                    .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
                    .unwrap(),
            );
        }
        assert_eq!(server.sessions().len(), 9);
        let report = server.report();
        for row in &report.sessions {
            assert_eq!(row.shard, server.shard_of(row.session));
        }
        let sorted: Vec<SessionId> = report.sessions.iter().map(|r| r.session).collect();
        let mut expect = sorted.clone();
        expect.sort();
        assert_eq!(sorted, expect, "report rows sorted by session id");
        assert!(server.close_session(ids[0]));
        assert!(!server.close_session(ids[0]), "already closed");
        assert_eq!(server.sessions().len(), 8);
        assert!(matches!(
            server.raise_sync(ids[0], a, &[]),
            Err(ServerError::UnknownSession(_))
        ));
    }

    #[test]
    fn sessions_adapt_independently_and_report_aggregates() {
        let (m, [a, b], [ga, gb]) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            shards: 2,
            adapt: fast_adapt(),
        });
        let binds = bindings(&m, a, b);
        let s1 = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
        let s2 = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();

        // s1 hammers A, s2 hammers B: each specializes only its own chain.
        for i in 0..80u64 {
            server.submit(s1, a, i * 100 + 100, &[]).unwrap();
            server.submit(s2, b, i * 100 + 100, &[]).unwrap();
        }
        server.run_until(80 * 100 + 1).unwrap();

        let (sa, sb) = server
            .with_runtime(s1, move |rt| {
                (rt.spec().get(a).is_some(), rt.spec().get(b).is_some())
            })
            .unwrap();
        assert!(sa && !sb);
        let (sb2, sa2) = server
            .with_runtime(s2, move |rt| {
                (rt.spec().get(b).is_some(), rt.spec().get(a).is_some())
            })
            .unwrap();
        assert!(sb2 && !sa2);
        assert_eq!(
            server
                .with_runtime(s1, move |rt| rt.global(ga).clone())
                .unwrap(),
            Value::Int(80 * 3)
        );
        assert_eq!(
            server
                .with_runtime(s2, move |rt| rt.global(gb).clone())
                .unwrap(),
            Value::Int(80 * 3)
        );

        let report = server.report();
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.shards.len(), 2);
        let session_sum: u64 = report.sessions.iter().map(|s| s.dispatched).sum();
        assert_eq!(report.dispatched(), session_sum);
        assert!(report.fastpath_hits() > 0, "adapted sessions use chains");
        for row in &report.sessions {
            assert!(row.adapt.epochs > 0, "epochs fired inside run_until");
            assert!(row.adapt.reprofiles >= 1);
            assert_eq!(row.chains_live, 1);
        }
        // The scrape exposes per-shard series: the two sessions sit on
        // different shards, so both shard labels appear, and the summed
        // fast-path counter matches the report.
        let snap = server.metrics();
        let text = snap.render();
        assert!(text.contains("shard=\"0\"") && text.contains("shard=\"1\""));
        assert!(text.contains("# TYPE pdo_dispatch_fastpath_total counter"));
        assert!(text.contains("# TYPE pdo_dispatch_latency_ns summary"));
        assert!(text.contains("# TYPE pdo_server_queue_depth gauge"));
        assert!(text.contains("# TYPE pdo_server_shard_busy_ns_total counter"));
        let fast: u64 = (0..2)
            .map(|s| {
                snap.counter_value("pdo_dispatch_fastpath_total", &[("shard", &s.to_string())])
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(fast, report.fastpath_hits());
        assert_eq!(
            snap.gauge_value("pdo_adapt_chains_live", &[("shard", "0")])
                .unwrap_or(0)
                + snap
                    .gauge_value("pdo_adapt_chains_live", &[("shard", "1")])
                    .unwrap_or(0),
            2
        );
    }

    #[test]
    fn idle_sessions_still_reach_epoch_boundaries() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            shards: 1,
            adapt: fast_adapt(),
        });
        let sid = server
            .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
            .unwrap();
        // No events at all: run_until pads the clock, so epochs still fire.
        server.run_until(10_000).unwrap();
        assert!(server.engine_stats(sid).unwrap().epochs > 0);
    }

    #[test]
    fn wrong_kind_accessors_are_rejected() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig::default());
        let sid = server
            .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
            .unwrap();
        assert!(matches!(
            server.with_ctp(sid, |ep| ep.stats()),
            Err(ServerError::WrongKind(_))
        ));
        assert!(matches!(
            server.with_seccomm(sid, |ep| ep.mac_failures()),
            Err(ServerError::WrongKind(_))
        ));
    }

    #[test]
    fn session_closures_may_borrow_the_caller() {
        let (m, [a, b], [ga, gb]) = two_chain_module();
        let mut server = Server::new(ServerConfig::default());
        let sid = server
            .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
            .unwrap();
        server.raise_sync(sid, a, &[]).unwrap();
        let mut seen: Vec<Value> = Vec::new();
        server
            .with_runtime(sid, |rt| {
                seen.push(rt.global(ga).clone());
                seen.push(rt.global(gb).clone());
            })
            .unwrap();
        assert_eq!(seen, [Value::Int(3), Value::Int(0)]);
    }

    #[test]
    fn quiesce_drains_queues_and_stops_admission() {
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            shards: 2,
            adapt: fast_adapt(),
        });
        let binds = bindings(&m, a, b);
        let s1 = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
        let s2 = server
            .open_session_on(0, m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
        assert_eq!(server.shard_of(s2), 0, "pinned open lands on its shard");
        // Async raises queue in the FIFO; one session's clock runs ahead.
        for _ in 0..5 {
            server.raise(s1, a, RaiseMode::Async, &[]).unwrap();
            server.raise(s2, a, RaiseMode::Async, &[]).unwrap();
        }
        server
            .with_runtime(s1, |rt| rt.advance_clock(7_777))
            .unwrap();

        let drained_to = server.quiesce().unwrap();
        assert_eq!(drained_to, 7_777, "drained to the furthest clock");
        for &sid in &[s1, s2] {
            let (queued, clock) = server
                .with_runtime(sid, |rt| (rt.queued_len(), rt.clock_ns()))
                .unwrap();
            assert_eq!(queued, 0, "FIFO drained");
            assert_eq!(clock, drained_to, "clocks aligned");
        }
        assert_eq!(
            server
                .with_runtime(s1, move |rt| rt.global(ga).clone())
                .unwrap(),
            Value::Int(5 * 3),
            "queued work dispatched, not dropped"
        );

        // Quiesced: no new sessions, no new work — typed refusals.
        assert!(!server.is_admitting());
        assert!(matches!(
            server.raise_sync(s1, a, &[]),
            Err(ServerError::Quiesced)
        ));
        assert!(matches!(
            server.submit_batch(s1, a, &[1, 2]),
            Err(ServerError::Quiesced)
        ));
        assert!(matches!(
            server.open_session(m.clone(), RuntimeConfig::default(), &binds),
            Err(ServerError::Quiesced)
        ));
        server.resume_admission();
        server.raise_sync(s1, a, &[]).unwrap();
    }

    #[test]
    fn rebalance_migrates_an_idle_session_off_the_hottest_shard() {
        let (m, [a, b], [ga, _]) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            shards: 2,
            adapt: fast_adapt(),
        });
        let binds = bindings(&m, a, b);
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(
                server
                    .open_session(m.clone(), RuntimeConfig::default(), &binds)
                    .unwrap(),
            );
        }
        // P2c leaves one shard with two sessions. Hammer one session on
        // that shard so it is also the hottest.
        let crowded = (0..2)
            .find(|&s| ids.iter().filter(|&&id| server.shard_of(id) == s).count() == 2)
            .expect("one shard holds two of three sessions");
        let victim = *ids
            .iter()
            .find(|&&id| server.shard_of(id) == crowded)
            .unwrap();
        for i in 0..40u64 {
            server.submit(victim, a, i * 100 + 100, &[]).unwrap();
        }
        server.run_until(40 * 100 + 1).unwrap();

        let migrated = server.rebalance().unwrap().expect("a session migrates");
        assert_eq!(
            server.shard_of(migrated),
            1 - crowded,
            "migrated to the cooler shard"
        );
        // The move is on record in the destination shard's trace.
        let placed = SpanKind::Placement {
            session: migrated.0,
            from: Some(crowded as u32),
            to: 1 - crowded as u32,
        };
        assert_eq!(
            server
                .trace_spans()
                .iter()
                .filter(|s| s.kind == placed)
                .count(),
            1
        );
        let counts: Vec<usize> = (0..2)
            .map(|s| ids.iter().filter(|&&id| server.shard_of(id) == s).count())
            .collect();
        assert!(
            counts.iter().all(|&n| n >= 1),
            "both shards stay populated: {counts:?}"
        );
        // State survives the move: globals, clock, and liveness.
        let acc = server
            .with_runtime(migrated, move |rt| rt.global(ga).clone())
            .unwrap();
        if migrated == victim {
            assert_eq!(acc, Value::Int(40 * 3));
        } else {
            assert_eq!(acc, Value::Int(0));
        }
        server.raise_sync(migrated, a, &[]).unwrap();
        let report = server.report();
        assert_eq!(report.sessions.len(), 3);
    }
}
