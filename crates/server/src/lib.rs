//! `pdo-server`: a multi-session event server with an online
//! adaptive-specialization loop.
//!
//! The paper's workflow is per-program and offline: trace one run,
//! optimize, redeploy. A realistic event server hosts *many* independent
//! sessions — transport connections, secure channels, plain event
//! programs — each with its own hot paths that shift over time. This
//! crate puts the whole pipeline online and multi-tenant:
//!
//! - A [`Server`] is **one thread** and one table of sessions: `Runtime`
//!   is `!Send` (handlers are boxed native closures over unsynchronized
//!   module state) and the paper's programs are event loops — one
//!   handler runs at a time. Every operation is one lookup in the session
//!   table and a direct call on the session; scale-out is more servers
//!   behind the ingress. Every session records into the server's one
//!   causal trace store.
//! - Every session gets a per-session adaptive-specialization daemon (an
//!   [`AdaptiveEngine`]) attached through the runtime's epoch hook. The
//!   daemon merges the profile the session's runtime counted on
//!   virtual-clock epoch boundaries *inside* `Runtime::run_until`,
//!   re-profiles when enough fresh events accumulate (or a chain held
//!   out of the runtime can no longer return because its bindings
//!   changed), and — only when what is hot or what is bound changed —
//!   installs and drops the compiled chains whose keys changed, under
//!   binding-content guards, with no caller involvement anywhere. A
//!   chain built before for the same key is reinstalled, not rebuilt.
//! - Protocol endpoints ([`CtpEndpoint`], SecComm [`Endpoint`](pdo_seccomm::Endpoint)) are
//!   constructed *through* the server, so protocol sessions are
//!   server-resident and adapt exactly like plain ones.
//! - [`Server::report`] snapshots per-session counters;
//!   [`Server::metrics`] scrapes every layer into one
//!   [`MetricsSnapshot`], including the server's queue-depth and busy-ns
//!   series. Callers reach a session through the closure-taking
//!   [`Server::with_session`] family (`with_engine(id, |e| e.stats())`
//!   reads a session's adaptation counters); the server keeps ownership,
//!   so a restore never invalidates a caller's borrow.

use pdo::{AdaptConfig, AdaptStats, AdaptiveEngine};
use pdo_cactus::EventProgram;
use pdo_ctp::{CtpEndpoint, CtpError, CtpParams};
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

/// Trace-store tag of the server: the high 16 bits of every span and
/// trace id its sessions mint. The ingress uses `0xFFFF`, so the two
/// stores' ids never collide when merged.
const SERVER_TRACE_TAG: u16 = 1;

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
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Adaptation-loop configuration applied to every session opened
    /// through this server.
    pub adapt: AdaptConfig,
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

/// A timed raise's leading delay argument. The runtime reads it as a
/// non-negative `i64`, so a delay past `i64::MAX` is refused here rather
/// than wrapped negative.
fn delay_arg(id: SessionId, delay_ns: u64) -> Result<Value, ServerError> {
    i64::try_from(delay_ns)
        .map(Value::Int)
        .map_err(|_| ServerError::Runtime(id, RuntimeError::BadTimedRaise))
}

/// What lives inside a session: a plain event program or a protocol
/// endpoint built through the server. Protocol variants carry their
/// rebuild recipe (params/keys) so any session kind can be snapshotted
/// and reconstructed after a restart.
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

    /// Wire-layer counters of a protocol session: protocol name, frames
    /// put on the wire, retransmissions. `None` for plain sessions.
    fn wire_counters(&self) -> Option<(&'static str, u64, u64)> {
        match &self.kind {
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

    /// Records a `Wire` span on `tracer` when the session's wire counters
    /// moved past `before`, parented to the dispatch that moved them (the
    /// runtime's last top-level trace context) so frame/retransmit
    /// activity hangs off the causal DAG of the stimulus that caused it.
    fn record_wire_delta(&self, tracer: &TraceStore, before: Option<(&'static str, u64, u64)>) {
        if !tracer.enabled() {
            return;
        }
        let (Some((proto, f0, r0)), Some((_, f1, r1))) = (before, self.wire_counters()) else {
            return;
        };
        if f1 == f0 && r1 == r0 {
            return;
        }
        let rt = self.runtime();
        let now = rt.clock_ns();
        tracer.record_under(
            rt.last_trace_ctx(),
            now,
            now,
            SpanKind::Wire {
                proto: proto.into(),
                frames: f1.saturating_sub(f0),
                retransmits: r1.saturating_sub(r0),
            },
        );
    }

    /// Captures the session's complete state: base module, bindings,
    /// globals, clock, scheduler queue/timers, pending fault plan, the
    /// adaptation daemon's profile/quarantine, and (for protocol kinds)
    /// the endpoint's link or wire state plus its rebuild recipe.
    fn snapshot(&self) -> SessionSnapshot {
        let module = Arc::clone(self.engine.borrow().base());
        let rt = self.runtime();
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
        let kind = match &self.kind {
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
            engine: self.engine.borrow().snapshot(),
            kind,
            module,
        }
    }
}

fn kind_runtime_mut(kind: &mut SessionKind) -> &mut Runtime {
    match kind {
        SessionKind::Plain(rt) => rt,
        SessionKind::Ctp { ep, .. } => ep.runtime_mut(),
        SessionKind::SecComm { ep, .. } => ep.runtime_mut(),
    }
}

/// Adaptation and dispatch counters of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The session.
    pub session: SessionId,
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
}

/// A point-in-time snapshot of the whole server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// One entry per session, sorted by [`SessionId`].
    pub sessions: Vec<SessionReport>,
}

impl ServerReport {
    /// Total events dispatched across the server.
    pub fn dispatched(&self) -> u64 {
        self.sessions.iter().map(|s| s.dispatched).sum()
    }

    /// Total fast-path dispatches across the server.
    pub fn fastpath_hits(&self) -> u64 {
        self.sessions.iter().map(|s| s.fastpath_hits).sum()
    }
}

// `ServerReport` deliberately has no `Display`: the renderable form of the
// server's state is [`Server::metrics`] → `MetricsSnapshot::render()`,
// which exposes the same counters (and more) in one standard text format
// instead of a second hand-rolled one.

/// A borrow of one session, delivered to [`Server::with_session`]
/// closures: the only way callers touch session-interior state.
pub struct SessionCtx<'a> {
    id: SessionId,
    session: &'a mut Session,
}

impl SessionCtx<'_> {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
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

/// The multi-session server: one table of sessions, one trace store.
pub struct Server {
    adapt: AdaptConfig,
    sessions: BTreeMap<SessionId, Session>,
    /// The causal trace store, shared with every session's runtime.
    tracer: TraceStore,
    next_id: u64,
    /// False after [`Server::quiesce`]: opens and raises are refused with
    /// [`ServerError::Quiesced`] until [`Server::resume_admission`].
    admitting: bool,
    /// Cumulative wall-clock ns spent in `run_until` (obs only).
    busy_ns: u64,
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
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl Server {
    /// An empty server.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            adapt: config.adapt,
            sessions: BTreeMap::new(),
            tracer: TraceStore::new(SERVER_TRACE_TAG),
            next_id: 1,
            admitting: true,
            busy_ns: 0,
            snapshots_total: 0,
            restores_total: 0,
            snapshot_bytes: Histogram::new(),
            last_payload_len: 0,
            encode_wall_ns: Histogram::new(),
            decode_wall_ns: Histogram::new(),
        }
    }

    /// Always 1: a server is one session table. Kept only because the
    /// benchmark's `wire_plain` workload passes it to `Ingress::bind`;
    /// it goes with the next change to the benchmark.
    pub fn shards(&self) -> usize {
        1
    }

    /// All open session ids, in id order.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// The open session `id`, or `UnknownSession`.
    fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, ServerError> {
        self.sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Opens a session under the next id: `build` makes its runtime or
    /// endpoint, then the server attaches its tracer and adaptation
    /// daemon.
    fn open(
        &mut self,
        build: impl FnOnce(SessionId) -> Result<SessionKind, ServerError>,
    ) -> Result<SessionId, ServerError> {
        if !self.admitting {
            return Err(ServerError::Quiesced);
        }
        let id = SessionId(self.next_id);
        let mut kind = build(id)?;
        let rt = kind_runtime_mut(&mut kind);
        rt.enable_observability();
        rt.set_tracer(self.tracer.clone());
        let engine = AdaptiveEngine::attach_new(rt, self.adapt);
        self.sessions.insert(id, Session { kind, engine });
        self.next_id += 1;
        Ok(id)
    }

    /// Opens a plain event-program session: builds a [`Runtime`] over
    /// `module`, applies `bindings` (event, handler, order), and attaches
    /// the adaptive-specialization daemon.
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
        let module = module.into();
        self.open(|id| {
            let mut rt = Runtime::with_config(module, config);
            for &(event, handler, order) in bindings {
                rt.bind(event, handler, order)
                    .map_err(|e| ServerError::Runtime(id, e))?;
            }
            Ok(SessionKind::Plain(rt))
        })
    }

    /// Opens a server-resident CTP session over `program` and opens the
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
        self.open(|id| {
            let mut ep = CtpEndpoint::new(program, params).map_err(|e| ServerError::Ctp(id, e))?;
            ep.open().map_err(|e| ServerError::Ctp(id, e))?;
            Ok(SessionKind::Ctp { ep, params })
        })
    }

    /// Opens a server-resident SecComm session over `program` with `keys`.
    ///
    /// # Errors
    ///
    /// Propagates endpoint construction failures.
    pub fn open_seccomm_session(
        &mut self,
        program: &EventProgram,
        keys: &Keys,
    ) -> Result<SessionId, ServerError> {
        self.open(|id| {
            Ok(SessionKind::SecComm {
                ep: SecCommEndpoint::new(program, keys).map_err(|e| ServerError::SecComm(id, e))?,
                keys: keys.clone(),
            })
        })
    }

    /// Closes a session, returning whether it existed.
    pub fn close_session(&mut self, id: SessionId) -> bool {
        self.sessions.remove(&id).is_some()
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
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        let before = session.wire_counters();
        let result = session
            .runtime_mut()
            .raise_traced(event, mode, args, ctx)
            .map_err(|e| ServerError::Runtime(id, e));
        session.record_wire_delta(&self.tracer, before);
        result
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
    /// As [`Server::raise`]; a delay past `i64::MAX` is
    /// [`RuntimeError::BadTimedRaise`].
    pub fn submit_traced(
        &mut self,
        id: SessionId,
        event: EventId,
        delay_ns: u64,
        args: &[Value],
        ctx: Option<TraceCtx>,
    ) -> Result<(), ServerError> {
        let mut full = Vec::with_capacity(args.len() + 1);
        full.push(delay_arg(id, delay_ns)?);
        full.extend_from_slice(args);
        self.raise_traced(id, event, RaiseMode::Timed, &full, ctx)
    }

    /// Submits one timed raise of `event` (no extra args) per delay in
    /// `delays` — a whole workload's injections behind one session
    /// lookup. All or nothing: every delay is checked before any is armed.
    ///
    /// # Errors
    ///
    /// As [`Server::submit_traced`].
    pub fn submit_batch(
        &mut self,
        id: SessionId,
        event: EventId,
        delays: &[u64],
    ) -> Result<(), ServerError> {
        if !self.admitting {
            return Err(ServerError::Quiesced);
        }
        let rt = self.session_mut(id)?.runtime_mut();
        for &delay_ns in delays {
            delay_arg(id, delay_ns)?;
        }
        for &delay_ns in delays {
            rt.raise(event, RaiseMode::Timed, &[delay_arg(id, delay_ns)?])
                .map_err(|e| ServerError::Runtime(id, e))?;
        }
        Ok(())
    }

    /// Advances every session to `deadline_ns` in id order: dispatches
    /// all due queued/timed work, then pads each session's clock to the
    /// deadline so adaptation epochs fire even on idle sessions.
    ///
    /// # Errors
    ///
    /// The first failing session's error (tagged with its id); the
    /// sessions after it are not advanced.
    pub fn run_until(&mut self, deadline_ns: u64) -> Result<(), ServerError> {
        let started = Instant::now();
        let result = self.run_until_inner(deadline_ns);
        self.busy_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn run_until_inner(&mut self, deadline_ns: u64) -> Result<(), ServerError> {
        for (&id, session) in &mut self.sessions {
            let before = session.wire_counters();
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
            session.record_wire_delta(&self.tracer, before);
        }
        Ok(())
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
        let session = self.session_mut(id)?;
        Ok(f(&mut SessionCtx { id, session }))
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

    /// Graceful-shutdown drain: stops admitting (every subsequent open,
    /// raise, or submit returns [`ServerError::Quiesced`] until
    /// [`Server::resume_admission`]), then advances every session to the
    /// furthest session clock: `run_until` dispatches every queued async
    /// event and every timer due by the drain deadline, and pads the
    /// stragglers' clocks to it. Afterwards each session's FIFO is empty
    /// and all clocks agree — the fleet is idle in exactly the state
    /// [`Server::save`] assumes, instead of snapshotting mid-flight work
    /// and hoping the image carries it. Returns the common virtual time
    /// the fleet was drained to.
    ///
    /// # Errors
    ///
    /// Propagates the first session failure of the drain (a failed drain
    /// still leaves admission stopped).
    pub fn quiesce(&mut self) -> Result<u64, ServerError> {
        self.admitting = false;
        let deadline = self
            .sessions
            .values()
            .map(|s| s.runtime().clock_ns())
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

    /// Serializes the whole server — every session, of every kind — into
    /// one durable, versioned, checksummed image (see `pdo-snap` for the
    /// framing). Unconditional: the scheduler snapshot carries queued
    /// work and timers. The only state not captured is each session's
    /// live profile tally (the profile contribution of the *current*
    /// partial epoch), which is empty at epoch boundaries — snapshot
    /// there and the image is exact.
    ///
    /// Encoding is deterministic: sessions are sorted by id and every
    /// interior map iterates in key order, so equal servers produce
    /// byte-identical images.
    pub fn snapshot_to_bytes(&mut self) -> Vec<u8> {
        let started = Instant::now();
        let image = Image {
            next_id: self.next_id,
            sessions: self
                .sessions
                .iter()
                .map(|(&id, s)| (id, s.snapshot()))
                .collect(),
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

    /// Rebuilds one session from its snapshot: endpoint natives from the
    /// carried recipe, then globals, scheduler queue/timers, pending
    /// fault plan, virtual clock (before the epoch hook exists, so the
    /// catch-up doesn't fire a burst of stale epochs), endpoint link or
    /// wire state, and finally the adaptation daemon — restored, so the
    /// session resumes specialization where it left off. The session is
    /// returned, not inserted.
    fn restore_session(
        &self,
        id: SessionId,
        snap: SessionSnapshot,
    ) -> Result<Session, ServerError> {
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
        let engine = AdaptiveEngine::attach_restored(rt, module, self.adapt, engine);
        Ok(Session { kind, engine })
    }

    /// Rebuilds sessions from an image produced by
    /// [`Server::snapshot_to_bytes`], each with its id, state, and
    /// adaptation profile intact, and records a `Restore` span per
    /// session. All or nothing: every session is built before any is
    /// opened. Returns the restored ids in ascending order.
    ///
    /// # Errors
    ///
    /// A corrupt, truncated, or version-skewed image yields
    /// [`ServerError::Snapshot`] — never a panic. So does an image
    /// session id that is already open on this server, or an id
    /// allocator that is not past the image's own sessions. On any error
    /// the server is left as it was: no session opened, the id allocator
    /// untouched.
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
        if let Some(id) = sessions.keys().find(|id| self.sessions.contains_key(id)) {
            return Err(malformed(format!(
                "image session {id} is already open on this server"
            )));
        }
        // Built into a table of their own, which `append` moves in whole
        // when this server is empty: a session is never copied.
        let mut built = BTreeMap::new();
        for (id, snap) in sessions {
            built.insert(id, self.restore_session(id, snap)?);
        }
        let mut restored = Vec::with_capacity(built.len());
        for (&id, session) in &built {
            let now = session.runtime().clock_ns();
            self.tracer
                .record_under(None, now, now, SpanKind::Restore { session: id.0 });
            restored.push(id);
        }
        self.sessions.append(&mut built);
        self.next_id = self.next_id.max(next_id);
        self.restores_total += 1;
        self.decode_wall_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(restored)
    }

    /// Every session's base module and the module its runtime executes,
    /// by id: what the sharing tests compare allocations of.
    #[cfg(test)]
    fn base_modules(&self) -> Vec<(SessionId, Arc<Module>, Arc<Module>)> {
        self.sessions
            .iter()
            .map(|(&id, s)| {
                let base = Arc::clone(s.engine.borrow().base());
                (id, base, s.runtime().module_arc())
            })
            .collect()
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

    /// Scrapes the server into one [`MetricsSnapshot`]: runtime dispatch
    /// counters and latency histograms, adaptation counters/gauges
    /// (including chain-cache hits/misses/evictions), the server's load
    /// series (`pdo_server_sessions`, `pdo_server_queue_depth`,
    /// `pdo_server_busy_ns_total`), protocol fault counters (CTP link
    /// faults and backoff, SecComm MAC failures) and the persistence
    /// counters. Sessions aggregate by construction — counters add and
    /// histograms merge, in id order — and `MetricsSnapshot::merge` rolls
    /// servers up the same way. The result is identical run to run
    /// (modulo the wall-clock families, which `retain_families` can
    /// strip).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.gauge(
            "pdo_server_sessions",
            "Open sessions",
            &[],
            self.sessions.len() as i64,
        );
        snap.gauge(
            "pdo_server_queue_depth",
            "Events queued or pending on timers across the sessions",
            &[],
            self.sessions
                .values()
                .map(|s| s.runtime().pending() as i64)
                .sum(),
        );
        snap.counter(
            "pdo_server_busy_ns_total",
            "Cumulative wall-clock ns the server spent inside run_until",
            &[],
            self.busy_ns,
        );
        for session in self.sessions.values() {
            let rt = session.runtime();
            rt.export_metrics(&mut snap, &[]);
            session.engine.borrow().export_metrics(rt, &mut snap, &[]);
            match &session.kind {
                SessionKind::Plain(_) => {}
                SessionKind::Ctp { ep, .. } => ep.stats().export_metrics(&mut snap, &[]),
                SessionKind::SecComm { ep, .. } => snap.counter(
                    "pdo_seccomm_mac_failures_total",
                    "Inbound SecComm messages rejected by MAC verification",
                    &[],
                    ep.mac_failures(),
                ),
            }
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

    /// Every retained trace span, oldest first. Together with an ingress
    /// tracer's spans (a different id tag) this is the full cross-layer
    /// causal DAG, ready for [`pdo_obs::trace::export_chrome`] /
    /// `export_lines`.
    pub fn trace_spans(&self) -> Vec<Span> {
        self.tracer.spans()
    }

    /// A point-in-time snapshot of per-session counters, sorted by id, so
    /// two servers that executed the same workload produce equal reports.
    pub fn report(&self) -> ServerReport {
        let sessions = self
            .sessions
            .iter()
            .map(|(&id, session)| {
                let rt = session.runtime();
                SessionReport {
                    session: id,
                    // One registry lookup per generic dispatch; fast-path
                    // dispatches skip the registry, so the sum counts
                    // every dispatched event exactly once.
                    dispatched: rt.cost.registry_lookups + rt.cost.fastpath_hits,
                    fastpath_hits: rt.cost.fastpath_hits,
                    guard_misses: rt.cost.fastpath_misses,
                    chains_live: rt.spec().len(),
                    adapt: session.engine.borrow().stats(),
                }
            })
            .collect();
        ServerReport { sessions }
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
    fn sessions_report_in_id_order_and_close() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig {
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
        assert_eq!(server.sessions(), ids, "sessions listed in id order");
        let report = server.report();
        let rows: Vec<SessionId> = report.sessions.iter().map(|r| r.session).collect();
        assert_eq!(rows, ids, "report rows sorted by session id");
        assert!(server.close_session(ids[0]));
        assert!(!server.close_session(ids[0]), "already closed");
        assert_eq!(server.sessions().len(), 8);
        assert!(matches!(
            server.raise(ids[0], a, RaiseMode::Sync, &[]),
            Err(ServerError::UnknownSession(_))
        ));
    }

    #[test]
    fn sessions_adapt_independently_and_report_aggregates() {
        let (m, [a, b], [ga, gb]) = two_chain_module();
        let mut server = Server::new(ServerConfig {
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
        let session_sum: u64 = report.sessions.iter().map(|s| s.dispatched).sum();
        assert_eq!(report.dispatched(), session_sum);
        assert!(report.fastpath_hits() > 0, "adapted sessions use chains");
        for row in &report.sessions {
            assert!(row.adapt.epochs > 0, "epochs fired inside run_until");
            assert!(row.adapt.reprofiles >= 1);
            assert_eq!(row.chains_live, 1);
        }
        // The scrape sums the sessions: the fast-path counter matches the
        // report, and the two sessions' chains add up.
        let snap = server.metrics();
        let text = snap.render();
        assert!(text.contains("# TYPE pdo_dispatch_fastpath_total counter"));
        assert!(text.contains("# TYPE pdo_dispatch_latency_ns summary"));
        assert!(text.contains("# TYPE pdo_server_queue_depth gauge"));
        assert!(text.contains("# TYPE pdo_server_busy_ns_total counter"));
        assert_eq!(
            snap.counter_value("pdo_dispatch_fastpath_total", &[]),
            Some(report.fastpath_hits())
        );
        assert_eq!(snap.gauge_value("pdo_adapt_chains_live", &[]), Some(2));
        assert_eq!(snap.gauge_value("pdo_server_sessions", &[]), Some(2));
    }

    #[test]
    fn idle_sessions_still_reach_epoch_boundaries() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig {
            adapt: fast_adapt(),
        });
        let sid = server
            .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
            .unwrap();
        // No events at all: run_until pads the clock, so epochs still fire.
        server.run_until(10_000).unwrap();
        assert!(server.with_engine(sid, |e| e.stats()).unwrap().epochs > 0);
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
        server.raise(sid, a, RaiseMode::Sync, &[]).unwrap();
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
            adapt: fast_adapt(),
        });
        let binds = bindings(&m, a, b);
        let s1 = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
        let s2 = server
            .open_session(m.clone(), RuntimeConfig::default(), &binds)
            .unwrap();
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
            server.raise(s1, a, RaiseMode::Sync, &[]),
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
        server.raise(s1, a, RaiseMode::Sync, &[]).unwrap();
    }

    /// A delay past `i64::MAX` is refused, not wrapped negative, and a
    /// batch holding one arms none of the delays before it.
    #[test]
    fn a_batch_with_a_delay_past_i64_max_arms_nothing() {
        let (m, [a, b], _) = two_chain_module();
        let mut server = Server::new(ServerConfig::default());
        let s = server
            .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
            .unwrap();
        let timers = |server: &mut Server| server.with_runtime(s, |rt| rt.timer_len()).unwrap();
        assert!(matches!(
            server.submit_batch(s, a, &[1, 1 << 63]),
            Err(ServerError::Runtime(id, RuntimeError::BadTimedRaise)) if id == s
        ));
        assert_eq!(timers(&mut server), 0);
        assert!(matches!(
            server.submit(s, a, u64::MAX, &[]),
            Err(ServerError::Runtime(_, RuntimeError::BadTimedRaise))
        ));
        assert_eq!(timers(&mut server), 0);
        server.submit_batch(s, a, &[1, i64::MAX as u64]).unwrap();
        assert_eq!(timers(&mut server), 2);
    }
}
