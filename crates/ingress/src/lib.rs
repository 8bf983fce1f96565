//! `pdo-ingress`: the network front door for `pdo-server`.
//!
//! Nothing in the repo spoke to the server over a wire before this
//! crate; "many concurrent clients" was an in-process claim. The ingress
//! makes it a network one, in four layers:
//!
//! - **Framed byte protocol** ([`proto`]): length-prefixed, versioned,
//!   XXH64-checksummed frames (the `pdo-snap` framing discipline under a
//!   wire magic) carrying `Open`/`Raise`/`Query`/`Close` and typed
//!   replies. Corrupt input is always a typed [`IngressError`], never a
//!   panic, and the error's classification decides whether the
//!   connection survives.
//! - **Acceptor** ([`net`], one I/O thread): accepts TCP and Unix-socket
//!   connections, maps each onto a shard by power-of-two-choices over
//!   live connection count and queue depth, reassembles frames, and
//!   forwards decoded commands over bounded per-shard channels. The
//!   engine half of the ingress runs on the one thread that owns the
//!   `!Send` [`Server`] ([`Ingress::drive`] / [`Ingress::serve`]).
//! - **Admission control**: a fixed [`Limiter`] permit pool plus the
//!   bounded per-shard queues. A request over either bound is *shed* —
//!   it gets a typed `Shed{retry_after}` reply immediately instead of
//!   queueing unboundedly — and every decision is counted and exported
//!   through `pdo-obs` ([`Ingress::metrics`]).
//! - **Graceful drain**: [`Ingress::quiesce`] stops admission, drains
//!   the in-flight work to zero, then calls [`Server::quiesce`], so a
//!   durable snapshot taken afterwards sees no half-processed commands.
//!
//! The acceptor is plain `std` non-blocking I/O swept in a loop (no
//! epoll dependency); it is sized for fronting multiplexers — tens of
//! thousands of *logical* clients ride a few dozen connections, which is
//! exactly how the `ingress_load` generator drives it.

use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::RuntimeConfig;
use pdo_ir::{EventId, FuncId, RaiseMode};
use pdo_obs::trace::{export_chrome, export_lines};
use pdo_obs::{Histogram, MetricsSnapshot, Span, SpanKind, TraceStore};
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerError, SessionId};
use pdo_snap::SnapshotError;
use std::fmt;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub mod client;
mod limiter;
mod net;
pub mod proto;

use net::CloseReason;

pub use client::Client;
pub use limiter::Limiter;
pub use proto::{
    ErrorCode, FrameBuffer, OpenKind, Reply, Request, SessionStats, TraceFormat, TraceSelector,
    WireMode, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION,
};

/// Trace-store tag of the ingress layer. Shard stores use `index + 1`,
/// so the top of the tag space keeps ingress-minted span/trace ids
/// disjoint from every shard's.
pub const INGRESS_TRACE_TAG: u16 = 0xFFFF;

/// Consecutive idle iterations the engine and acceptor loops yield
/// (staying runnable) before backing off to sleeps — see
/// [`Ingress::serve`] for why sleeping too eagerly starves the engine on
/// core-constrained hosts.
pub(crate) const IDLE_YIELDS: u32 = 256;

/// A typed ingress failure. Decoding and I/O never panic — every way a
/// byte stream can be wrong lands in one of these.
#[derive(Debug)]
pub enum IngressError {
    /// The frame *envelope* is wrong: bad magic, unsupported version,
    /// checksum mismatch, or truncation at the framing layer. Frame
    /// boundaries can no longer be trusted — the connection must close.
    Frame(SnapshotError),
    /// The frame verified (checksum matched) but its payload grammar is
    /// wrong. One request is garbage; the connection survives.
    Payload(SnapshotError),
    /// A frame declared a length over the configured ceiling; rejected
    /// before buffering.
    FrameTooLarge {
        /// Declared total frame size.
        declared: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The peer or the ingress closed underneath an operation.
    Closed,
    /// Socket-level failure.
    Io(std::io::Error),
}

impl IngressError {
    /// Whether this error proves the byte stream unreliable (close the
    /// connection) as opposed to one bad payload (reply and continue).
    pub fn is_stream_fatal(&self) -> bool {
        !matches!(self, IngressError::Payload(_))
    }
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Frame(e) => write!(f, "wire framing error: {e}"),
            IngressError::Payload(e) => write!(f, "wire payload error: {e}"),
            IngressError::FrameTooLarge { declared, max } => {
                write!(f, "frame declares {declared} bytes, limit is {max}")
            }
            IngressError::Closed => write!(f, "connection closed"),
            IngressError::Io(e) => write!(f, "ingress i/o error: {e}"),
        }
    }
}

impl std::error::Error for IngressError {}

impl From<std::io::Error> for IngressError {
    fn from(e: std::io::Error) -> Self {
        IngressError::Io(e)
    }
}

/// Ingress tunables.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// TCP listen address (e.g. `"127.0.0.1:0"`); `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` disables the Unix listener. A stale
    /// socket file at the path is removed on bind.
    pub unix: Option<PathBuf>,
    /// Permit-pool capacity: the hard bound on admitted, un-replied
    /// requests across all shards.
    pub max_inflight: usize,
    /// Bound of each per-shard command queue.
    pub shard_queue: usize,
    /// Largest acceptable frame (header + payload + checksum).
    pub max_frame: usize,
    /// Per-connection write-buffer ceiling; a consumer that falls
    /// further behind is disconnected rather than buffered forever.
    pub max_outbuf: usize,
    /// Base retry hint in `Shed` replies; scaled up with queue depth.
    pub retry_after_ns: u64,
    /// Admitted requests between virtual-clock epoch advances in
    /// [`Ingress::serve`] (adaptation runs inside those advances).
    pub epoch_every: u64,
    /// Virtual-clock step per epoch advance.
    pub epoch_step_ns: u64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
            max_inflight: 1024,
            shard_queue: 256,
            max_frame: MAX_FRAME_LEN,
            max_outbuf: 4 << 20,
            retry_after_ns: 1_000_000,
            epoch_every: 1024,
            epoch_step_ns: 1_000_000,
        }
    }
}

/// One admitted command in flight from acceptor to engine. Everything in
/// here is `Send`; the `!Send` session state stays with the server.
pub(crate) struct Work {
    pub conn: u64,
    pub req_id: u64,
    pub request: Request,
    pub admitted_at: Instant,
}

/// State shared between the acceptor thread and the engine handle.
pub(crate) struct Shared {
    pub admitting: AtomicBool,
    pub shutdown: AtomicBool,
    pub limiter: Limiter,
    /// Commands admitted to each shard queue and not yet replied.
    pub queue_depth: Vec<AtomicUsize>,
    /// Live connections mapped to each shard (p2c input).
    pub conns_on_shard: Vec<AtomicUsize>,
    pub connections_opened: AtomicU64,
    /// Closed connections, indexed by [`CloseReason`].
    pub connections_closed: [AtomicU64; CloseReason::ALL.len()],
    pub admitted: AtomicU64,
    pub replied: AtomicU64,
    pub shed_permits: AtomicU64,
    pub shed_queue: AtomicU64,
    pub shed_quiesced: AtomicU64,
    pub malformed_payloads: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    /// Wall-clock admission→reply latency, engine-side.
    pub latency: Mutex<Histogram>,
}

impl Shared {
    pub(crate) fn closed(&self, reason: CloseReason) {
        self.connections_closed[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Retry hint scaled by how deep the shard's queue already is:
    /// `base` when idle, `2*base` at a full queue.
    pub(crate) fn retry_hint(&self, base: u64, shard: usize, queue_cap: usize) -> u64 {
        let depth = self.queue_depth[shard].load(Ordering::Relaxed) as u64;
        base + base * depth / (queue_cap.max(1) as u64)
    }
}

/// The engine-side handle: owns the per-shard work receivers, the reply
/// path back to the acceptor, and the canonical protocol programs used
/// to satisfy `Open{Ctp}` / `Open{SecComm}`.
pub struct Ingress {
    cfg: IngressConfig,
    shared: Arc<Shared>,
    work_rxs: Vec<Receiver<Work>>,
    reply_tx: Sender<(u64, Vec<u8>)>,
    net: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    ctp_program: EventProgram,
    sec_program: EventProgram,
    keys: Keys,
    vnow: u64,
    since_epoch: u64,
    /// Causal trace store of the ingress layer: every session-facing
    /// request mints a root `Ingress` span here, and the resulting
    /// context rides into the server so runtime/adapt/wire spans hang
    /// off it. Tagged [`INGRESS_TRACE_TAG`].
    tracer: TraceStore,
}

impl Ingress {
    /// Binds the configured listeners and starts the acceptor thread.
    /// `shards` must equal the served [`Server::shards`].
    ///
    /// # Errors
    ///
    /// [`IngressError::Io`] when a listener fails to bind.
    pub fn bind(cfg: IngressConfig, shards: usize) -> Result<Ingress, IngressError> {
        let shards = shards.max(1);
        let tcp = match &cfg.tcp {
            Some(addr) => Some(std::net::TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let tcp_addr = match &tcp {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };
        if let Some(l) = &tcp {
            l.set_nonblocking(true)?;
        }
        if let Some(l) = &unix {
            l.set_nonblocking(true)?;
        }

        let shared = Arc::new(Shared {
            admitting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            limiter: Limiter::new(cfg.max_inflight),
            queue_depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            conns_on_shard: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            connections_opened: AtomicU64::new(0),
            connections_closed: Default::default(),
            admitted: AtomicU64::new(0),
            replied: AtomicU64::new(0),
            shed_permits: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_quiesced: AtomicU64::new(0),
            malformed_payloads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            latency: Mutex::new(Histogram::new()),
        });

        let mut work_txs: Vec<SyncSender<Work>> = Vec::with_capacity(shards);
        let mut work_rxs: Vec<Receiver<Work>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel(cfg.shard_queue.max(1));
            work_txs.push(tx);
            work_rxs.push(rx);
        }
        let (reply_tx, reply_rx) = mpsc::channel();

        let params = net::NetParams {
            max_frame: cfg.max_frame,
            max_outbuf: cfg.max_outbuf,
            retry_after_ns: cfg.retry_after_ns,
            shard_queue: cfg.shard_queue.max(1),
        };
        let net_shared = Arc::clone(&shared);
        let net = std::thread::Builder::new()
            .name("pdo-ingress-net".to_string())
            .spawn(move || net::net_main(tcp, unix, work_txs, reply_rx, net_shared, params))
            .map_err(IngressError::Io)?;

        let sec_program = seccomm_protocol()
            .instantiate(CONFIG_FULL)
            .expect("CONFIG_FULL is a valid static protocol configuration");

        Ok(Ingress {
            unix_path: cfg.unix.clone(),
            cfg,
            shared,
            work_rxs,
            reply_tx,
            net: Some(net),
            tcp_addr,
            ctp_program: ctp_program(),
            sec_program,
            keys: Keys::default(),
            vnow: 0,
            since_epoch: 0,
            tracer: TraceStore::new(INGRESS_TRACE_TAG),
        })
    }

    /// The ingress layer's trace store (enabled by default; disable via
    /// [`pdo_obs::TraceStore::set_enabled`] to make request handling
    /// span-free).
    pub fn tracer(&self) -> &TraceStore {
        &self.tracer
    }

    /// The bound TCP address (with the kernel-assigned port when the
    /// config asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Drains admitted commands from every shard queue and executes them
    /// on `server`, sending replies back through the acceptor. Returns
    /// the number of commands processed. Non-blocking: returns 0 when
    /// the queues are empty.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures surface here (an epoch advance
    /// failing inside the server). Per-command failures become typed
    /// `Error` replies to the issuing client.
    pub fn drive(&mut self, server: &mut Server) -> Result<usize, ServerError> {
        let mut processed = 0usize;
        for shard in 0..self.work_rxs.len() {
            // Bound the drain so one hot shard cannot starve the others
            // within a single call.
            for _ in 0..self.cfg.shard_queue.max(1) {
                let work = match self.work_rxs[shard].try_recv() {
                    Ok(w) => w,
                    Err(_) => break,
                };
                let reply = self.execute(server, shard, work.conn, &work.request);
                let latency = work.admitted_at.elapsed().as_nanos() as u64;
                if let Ok(mut h) = self.shared.latency.lock() {
                    h.record(latency.max(1));
                }
                let bytes = proto::encode_reply(work.req_id, &reply);
                // A send failure means the acceptor is gone (shutdown
                // race); the permit must still be returned.
                let _ = self.reply_tx.send((work.conn, bytes));
                self.shared.queue_depth[shard].fetch_sub(1, Ordering::Relaxed);
                self.shared.limiter.release();
                self.shared.replied.fetch_add(1, Ordering::Relaxed);
                processed += 1;
            }
        }
        self.since_epoch += processed as u64;
        Ok(processed)
    }

    fn execute(
        &mut self,
        server: &mut Server,
        shard: usize,
        conn: u64,
        request: &Request,
    ) -> Reply {
        // Session-facing requests are external stimuli: each mints a root
        // `Ingress` span whose context rides into the server, linking the
        // runtime / adapt / wire spans it causes under one trace. The
        // telemetry requests (`MetricsScrape`, `TraceDump`) deliberately
        // mint nothing — the observer should not perturb the observed.
        let tctx = match request {
            Request::MetricsScrape | Request::TraceDump { .. } => None,
            _ => self.tracer.record_under(
                None,
                self.vnow,
                self.vnow,
                SpanKind::Ingress {
                    request: match request {
                        Request::Open(_) => "open",
                        Request::Raise { .. } => "raise",
                        Request::Query { .. } => "query",
                        Request::Close { .. } => "close",
                        Request::MetricsScrape | Request::TraceDump { .. } => unreachable!(),
                    }
                    .to_string(),
                    conn,
                },
            ),
        };
        match request {
            Request::Open(kind) => {
                let opened = match kind {
                    OpenKind::Plain { module, bindings } => {
                        let typed: Vec<(EventId, FuncId, i32)> = bindings
                            .iter()
                            .map(|&(e, f, o)| (EventId(e), FuncId(f), o))
                            .collect();
                        server.open_session_on(
                            shard,
                            module.clone(),
                            RuntimeConfig::default(),
                            &typed,
                        )
                    }
                    OpenKind::Ctp => {
                        server.open_ctp_session_on(shard, &self.ctp_program, CtpParams::default())
                    }
                    OpenKind::SecComm => {
                        server.open_seccomm_session_on(shard, &self.sec_program, &self.keys)
                    }
                };
                match opened {
                    Ok(id) => Reply::Opened { session: id.0 },
                    Err(e) => error_reply(&e),
                }
            }
            Request::Raise {
                session,
                event,
                mode,
                args,
            } => {
                let id = SessionId(*session);
                let event = EventId(*event);
                let done = match mode {
                    WireMode::Sync => server.raise_traced(id, event, RaiseMode::Sync, args, tctx),
                    WireMode::Async => server.raise_traced(id, event, RaiseMode::Async, args, tctx),
                    WireMode::Timed { delay_ns } => {
                        server.submit_traced(id, event, *delay_ns, args, tctx)
                    }
                };
                match done {
                    Ok(()) => Reply::Done,
                    Err(e) => error_reply(&e),
                }
            }
            Request::Query { session } => {
                let id = SessionId(*session);
                let sid = *session;
                // `with_session` resolves the shard *and* the session in
                // one placement lookup, and turns an unknown or
                // already-closed id into a typed `UnknownSession` error
                // (`Server::shard_of` would panic — a remote client must
                // never be able to bring the engine down by querying a
                // stale id).
                let stats = server.with_session(id, move |ctx| {
                    let shard_no = ctx.shard() as u32;
                    let rt = ctx.runtime();
                    SessionStats {
                        session: sid,
                        shard: shard_no,
                        clock_ns: rt.clock_ns(),
                        dispatched: rt.cost.registry_lookups + rt.cost.fastpath_hits,
                        fastpath_hits: rt.cost.fastpath_hits,
                        guard_misses: rt.cost.fastpath_misses,
                        chains_live: rt.spec().len() as u64,
                        queued: rt.queued_len() as u64,
                        timers: rt.timer_len() as u64,
                    }
                });
                match stats {
                    Ok(s) => Reply::Stats(s),
                    Err(e) => error_reply(&e),
                }
            }
            Request::Close { session } => Reply::Closed {
                existed: server.close_session(SessionId(*session)),
            },
            Request::MetricsScrape => {
                let mut m = server.metrics();
                m.merge(&self.metrics());
                Reply::MetricsText {
                    text: truncate_at_line(m.render(), self.reply_body_budget()),
                }
            }
            Request::TraceDump { selector, format } => {
                let mut spans = self.tracer.spans();
                spans.extend(server.trace_spans());
                let selected: Vec<Span> = match selector {
                    TraceSelector::Id(id) => {
                        spans.retain(|s| s.trace.0 == *id);
                        spans
                    }
                    TraceSelector::LastN(n) => {
                        // Traces ordered by the position of their newest
                        // retained span (exact within one store; stores
                        // are concatenated ingress-first, shards after).
                        let mut order: Vec<u64> = Vec::new();
                        for s in &spans {
                            if let Some(pos) = order.iter().position(|&t| t == s.trace.0) {
                                order.remove(pos);
                            }
                            order.push(s.trace.0);
                        }
                        let keep: std::collections::BTreeSet<u64> =
                            order.iter().rev().take(*n as usize).copied().collect();
                        spans.retain(|s| keep.contains(&s.trace.0));
                        spans
                    }
                };
                let budget = self.reply_body_budget();
                match format {
                    TraceFormat::Lines => Reply::Trace {
                        // Every line is a self-contained span record, so
                        // line-boundary truncation keeps the dump parseable.
                        body: truncate_at_line(export_lines(&selected), budget),
                    },
                    TraceFormat::Chrome => {
                        let body = export_chrome(&selected);
                        if body.len() > budget {
                            Reply::Error {
                                code: ErrorCode::Internal,
                                message: format!(
                                    "chrome trace dump is {} bytes, frame limit {}; \
                                     narrow the selector or use the line format",
                                    body.len(),
                                    budget
                                ),
                            }
                        } else {
                            Reply::Trace { body }
                        }
                    }
                }
            }
        }
    }

    /// Budget for a string reply body: the frame ceiling minus framing
    /// and payload overhead (magic/version/length, req id, tag, string
    /// length, checksum — padded generously).
    fn reply_body_budget(&self) -> usize {
        self.cfg.max_frame.saturating_sub(256)
    }

    /// Advances the server's virtual clock if enough requests have been
    /// admitted since the last epoch — this is what lets the per-session
    /// adaptation daemons observe epoch boundaries under network load.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::run_until`] failures.
    pub fn maybe_epoch(&mut self, server: &mut Server) -> Result<bool, ServerError> {
        if self.since_epoch < self.cfg.epoch_every {
            return Ok(false);
        }
        self.since_epoch = 0;
        self.vnow += self.cfg.epoch_step_ns;
        server.run_until(self.vnow)?;
        Ok(true)
    }

    /// Serves until `stop` becomes true: drains work, advances epochs,
    /// yields then sleeps when idle. The caller's thread becomes the
    /// engine thread; the `!Send` server never moves.
    ///
    /// Idling yields (stays runnable) for a grace window before backing
    /// off to sleeps. The distinction matters on core-constrained hosts:
    /// an engine that *sleeps* the instant its queues drain hands its
    /// timeslice to the acceptor and load-generating peers — which under
    /// open-loop flood always have bytes to move and never sleep — and
    /// then waits out a multi-millisecond reschedule while the queues it
    /// would have drained overflow and shed. That feedback loop
    /// (idle → sleep → starved → queues full → shed → less work → more
    /// idle) can collapse a server that has plenty of cycles for the
    /// offered load. Yielding keeps the engine in the run queue so it is
    /// back on core within one scheduling round.
    ///
    /// # Errors
    ///
    /// As [`Ingress::drive`] and [`Ingress::maybe_epoch`].
    pub fn serve(&mut self, server: &mut Server, stop: &AtomicBool) -> Result<(), ServerError> {
        let mut idle: u32 = 0;
        while !stop.load(Ordering::Relaxed) {
            let n = self.drive(server)?;
            self.maybe_epoch(server)?;
            if n > 0 {
                idle = 0;
            } else {
                idle = idle.saturating_add(1);
                if idle <= IDLE_YIELDS {
                    std::thread::yield_now();
                } else {
                    let us = 50u64 << (idle - IDLE_YIELDS - 1).min(4);
                    std::thread::sleep(std::time::Duration::from_micros(us));
                }
            }
        }
        Ok(())
    }

    /// Graceful drain: stops admission (subsequent requests are shed
    /// with reason `quiesced`), drains every queued command and in-flight
    /// permit to zero, then quiesces the server itself so its queues and
    /// clocks are aligned. After this, [`Server::save`] observes no
    /// half-processed work. Returns the drained virtual clock.
    ///
    /// # Errors
    ///
    /// As [`Ingress::drive`] plus [`Server::quiesce`] failures.
    pub fn quiesce(&mut self, server: &mut Server) -> Result<u64, ServerError> {
        self.shared.admitting.store(false, Ordering::SeqCst);
        loop {
            let n = self.drive(server)?;
            if n == 0 && self.shared.limiter.in_flight() == 0 {
                break;
            }
        }
        server.quiesce()
    }

    /// Re-opens admission after [`Ingress::quiesce`] (the server's own
    /// admission gate is reopened too).
    pub fn resume_admission(&mut self, server: &mut Server) {
        server.resume_admission();
        self.shared.admitting.store(true, Ordering::SeqCst);
    }

    /// Whether the ingress is currently admitting requests.
    pub fn is_admitting(&self) -> bool {
        self.shared.admitting.load(Ordering::SeqCst)
    }

    /// Total shed replies across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shared.shed_permits.load(Ordering::Relaxed)
            + self.shared.shed_queue.load(Ordering::Relaxed)
            + self.shared.shed_quiesced.load(Ordering::Relaxed)
    }

    /// Total admitted commands.
    pub fn admitted_total(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Total replies written back by the engine.
    pub fn replied_total(&self) -> u64 {
        self.shared.replied.load(Ordering::Relaxed)
    }

    /// Live connection count.
    pub fn connections(&self) -> u64 {
        let closed: u64 = self
            .shared
            .connections_closed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        self.shared
            .connections_opened
            .load(Ordering::Relaxed)
            .saturating_sub(closed)
    }

    /// Scrapes every ingress counter, gauge, and histogram into one
    /// `pdo-obs` snapshot, mergeable with [`Server::metrics`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = &self.shared;
        let mut m = MetricsSnapshot::new();
        m.counter(
            "pdo_ingress_connections_opened_total",
            "Connections accepted by the ingress",
            &[],
            s.connections_opened.load(Ordering::Relaxed),
        );
        for reason in CloseReason::ALL {
            m.counter(
                "pdo_ingress_connections_closed_total",
                "Connections closed, by reason",
                &[("reason", reason.label())],
                s.connections_closed[reason as usize].load(Ordering::Relaxed),
            );
        }
        m.gauge(
            "pdo_ingress_connections",
            "Currently live connections",
            &[],
            self.connections() as i64,
        );
        m.counter(
            "pdo_ingress_admitted_total",
            "Requests admitted past the limiter and shard queues",
            &[],
            s.admitted.load(Ordering::Relaxed),
        );
        m.counter(
            "pdo_ingress_replied_total",
            "Replies written by the engine",
            &[],
            s.replied.load(Ordering::Relaxed),
        );
        for (reason, v) in [
            ("permits", &s.shed_permits),
            ("queue", &s.shed_queue),
            ("quiesced", &s.shed_quiesced),
        ] {
            m.counter(
                "pdo_ingress_shed_total",
                "Requests refused with a typed Shed reply",
                &[("reason", reason)],
                v.load(Ordering::Relaxed),
            );
        }
        m.counter(
            "pdo_ingress_frames_malformed_total",
            "Checksum-valid frames whose payload failed to decode",
            &[],
            s.malformed_payloads.load(Ordering::Relaxed),
        );
        m.counter(
            "pdo_ingress_bytes_read_total",
            "Bytes read from all connections",
            &[],
            s.bytes_read.load(Ordering::Relaxed),
        );
        m.counter(
            "pdo_ingress_bytes_written_total",
            "Bytes written to all connections",
            &[],
            s.bytes_written.load(Ordering::Relaxed),
        );
        m.gauge(
            "pdo_ingress_inflight",
            "Permits currently held (admitted, not yet replied)",
            &[],
            s.limiter.in_flight() as i64,
        );
        for (i, d) in s.queue_depth.iter().enumerate() {
            let shard = i.to_string();
            m.gauge(
                "pdo_ingress_queue_depth",
                "Commands queued toward each shard",
                &[("shard", shard.as_str())],
                d.load(Ordering::Relaxed) as i64,
            );
        }
        if let Ok(h) = s.latency.lock() {
            if h.count() > 0 {
                m.histogram(
                    "pdo_ingress_request_latency_ns",
                    "Wall-clock admission-to-reply latency",
                    &[],
                    &h,
                );
            }
        }
        m
    }

    /// Stops the acceptor thread, closes every connection, and removes
    /// the Unix socket file. Called by `Drop` as well; explicit callers
    /// get to sequence it (e.g. after [`Ingress::quiesce`]).
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.net.take() {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Ingress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Truncates `s` to at most `max` bytes, cutting only at a line
/// boundary so the survivor is still a sequence of complete lines.
fn truncate_at_line(mut s: String, max: usize) -> String {
    if s.len() <= max {
        return s;
    }
    let mut end = 0;
    for (i, b) in s.bytes().enumerate().take(max) {
        if b == b'\n' {
            end = i + 1;
        }
    }
    s.truncate(end);
    s
}

fn error_reply(e: &ServerError) -> Reply {
    let code = match e {
        ServerError::UnknownSession(_) => ErrorCode::UnknownSession,
        ServerError::WrongKind(_) => ErrorCode::WrongKind,
        ServerError::Quiesced => ErrorCode::Quiesced,
        ServerError::Runtime(..) | ServerError::Ctp(..) | ServerError::SecComm(..) => {
            ErrorCode::Runtime
        }
        ServerError::Snapshot(_) => ErrorCode::Internal,
    };
    Reply::Error {
        code,
        message: e.to_string(),
    }
}
