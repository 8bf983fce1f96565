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
//! - **One sweep** ([`Ingress::drive`]): on the thread that owns the
//!   `!Send` [`Server`], the socket shell (the TCP and Unix listeners)
//!   hands each new connection to the connection machine (module `net`),
//!   which sees only `Read + Write` streams: it reads, reassembles and
//!   decodes frames and admits; the admitted commands run in arrival
//!   order, and it writes the replies back. No other thread or queue sits
//!   between reading a command and running it.
//! - **Admission control**: one bound, `max_inflight` commands per
//!   sweep. A request past it waits in its connection's buffer for the
//!   next sweep; one that finds that batch full too, or any request
//!   while quiesced, is *shed* — it gets a typed `Shed{retry_after}`
//!   reply instead of waiting longer — and every decision is counted and
//!   exported through `pdo-obs` ([`Ingress::metrics`]).
//! - **Graceful drain**: [`Ingress::quiesce`] stops admission, flushes
//!   the replies, then calls [`Server::quiesce`], so a durable snapshot
//!   taken afterwards sees no half-processed commands.
//!
//! The sweep is plain `std` non-blocking I/O (no epoll dependency); it
//! is sized for fronting multiplexers — tens of thousands of *logical*
//! clients ride a few dozen connections, which is exactly how the
//! `ingress_load` generator drives it.

use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::RuntimeConfig;
use pdo_ir::{EventId, FuncId, RaiseMode};
use pdo_obs::trace::{export_chrome, export_lines};
use pdo_obs::{Histogram, MetricsSnapshot, Span, SpanKind, TraceStore};
use pdo_seccomm::{seccomm_protocol, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerError, SessionId};
use pdo_snap::SnapshotError;
use std::collections::BTreeSet;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod client;
mod net;
pub mod proto;

use net::{CloseReason, Net, Stream, Work};

pub use client::Client;
pub use proto::{
    ErrorCode, FrameBuffer, OpenKind, Reply, Request, SessionStats, TraceFormat, TraceSelector,
    WireMode, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION,
};

/// Trace-store tag of the ingress layer. The server's store uses tag 1,
/// so the top of the tag space keeps ingress-minted span/trace ids
/// disjoint from the server's.
pub const INGRESS_TRACE_TAG: u16 = 0xFFFF;

/// Consecutive idle sweeps [`Ingress::serve`] yields (staying runnable)
/// before backing off to sleeps — see there for why sleeping too eagerly
/// starves the engine on core-constrained hosts.
const IDLE_YIELDS: u32 = 256;

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
    /// The most commands one sweep admits: the hard bound on admitted,
    /// un-replied requests. Past it a request waits for the next sweep,
    /// and is shed if that sweep's batch fills too.
    pub max_inflight: usize,
    /// Largest acceptable frame (header + payload + checksum).
    pub max_frame: usize,
    /// Per-connection write-buffer ceiling; a consumer that falls
    /// further behind is disconnected rather than buffered forever.
    pub max_outbuf: usize,
    /// Base retry hint in `Shed` replies; scaled up with the share of
    /// the sweep's batch already admitted.
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
            max_frame: MAX_FRAME_LEN,
            max_outbuf: 4 << 20,
            retry_after_ns: 1_000_000,
            epoch_every: 1024,
            epoch_step_ns: 1_000_000,
        }
    }
}

/// The network front door: the socket shell around the connection
/// machine, the batch one sweep admits, and the canonical protocol
/// programs used to satisfy `Open{Ctp}` / `Open{SecComm}`.
pub struct Ingress {
    cfg: IngressConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    net: Net,
    /// This sweep's admitted commands in arrival order; the run empties
    /// it and the next sweep reuses it.
    batch: Vec<Work>,
    /// Commands of the running batch not yet replied.
    inflight: usize,
    /// Wall-clock admission→reply latency.
    latency: Histogram,
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
    /// Binds the configured listeners. Nothing runs until the caller
    /// drives the ingress. `_shards` is ignored. It is kept only because
    /// the benchmark's `wire_plain` workload passes [`Server::shards`]
    /// here; it goes with the next change to the benchmark.
    ///
    /// # Errors
    ///
    /// [`IngressError::Io`] when a listener fails to bind.
    pub fn bind(cfg: IngressConfig, _shards: usize) -> Result<Ingress, IngressError> {
        let tcp = cfg.tcp.as_deref().map(TcpListener::bind).transpose()?;
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        if let Some(l) = &tcp {
            l.set_nonblocking(true)?;
        }
        if let Some(l) = &unix {
            l.set_nonblocking(true)?;
        }

        let sec_program = seccomm_protocol()
            .instantiate(CONFIG_FULL)
            .expect("CONFIG_FULL is a valid static protocol configuration");

        Ok(Ingress {
            net: Net::new(&cfg),
            tcp,
            unix,
            batch: Vec::with_capacity(cfg.max_inflight.max(1)),
            inflight: 0,
            latency: Histogram::new(),
            cfg,
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
    /// config asked for port 0); `None` without a TCP listener.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref()?.local_addr().ok()
    }

    /// One sweep: accepts, reads every connection, admits up to
    /// `max_inflight` decoded commands (the rest wait for the next sweep,
    /// or get typed `Shed` replies if they already waited), runs them on
    /// `server` in arrival order, and writes the replies back. Returns
    /// the number of commands run. Non-blocking: returns 0 when no
    /// command arrived.
    ///
    /// # Errors
    ///
    /// None: per-command failures become typed `Error` replies to the
    /// issuing client.
    pub fn drive(&mut self, server: &mut Server) -> Result<usize, ServerError> {
        self.accept();
        self.net.read(&mut self.batch);
        let mut batch = std::mem::take(&mut self.batch);
        let n = batch.len();
        self.inflight = n;
        for work in batch.drain(..) {
            let reply = self.execute(server, work.conn, &work.request);
            let latency = work.admitted_at.elapsed().as_nanos() as u64;
            self.latency.record(latency.max(1));
            self.net.reply(work.conn, work.req_id, &reply);
            self.inflight -= 1;
        }
        self.batch = batch;
        self.net.flush();
        self.since_epoch += n as u64;
        Ok(n)
    }

    /// The socket shell's part of a sweep: accepts at most 64 connections,
    /// so a connect storm cannot starve the live ones, for the machine.
    fn accept(&mut self) {
        for _ in 0..64 {
            let sock: Box<dyn Stream> =
                if let Some(Ok((s, _))) = self.tcp.as_ref().map(TcpListener::accept) {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_nonblocking(true);
                    Box::new(s)
                } else if let Some(Ok((s, _))) = self.unix.as_ref().map(UnixListener::accept) {
                    let _ = s.set_nonblocking(true);
                    Box::new(s)
                } else {
                    return;
                };
            self.net.open(sock);
        }
    }

    fn execute(&mut self, server: &mut Server, conn: u64, request: &Request) -> Reply {
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
                    .into(),
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
                        server.open_session(module.clone(), RuntimeConfig::default(), &typed)
                    }
                    OpenKind::Ctp => {
                        server.open_ctp_session(&self.ctp_program, CtpParams::default())
                    }
                    OpenKind::SecComm => server.open_seccomm_session(&self.sec_program, &self.keys),
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
                // `with_session` turns an unknown or already-closed id
                // into a typed `UnknownSession` error: a remote client
                // must never be able to bring the engine down by
                // querying a stale id.
                let stats = server.with_session(id, move |ctx| {
                    let rt = ctx.runtime();
                    SessionStats {
                        session: sid,
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
                let selected = select_traces(spans, selector);
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

    /// Serves until `stop` becomes true: sweeps, advances epochs, yields
    /// then sleeps when idle. The caller's thread is the only thread the
    /// ingress runs on; the `!Send` server never moves. A sweep is idle
    /// when it ran no command, moved no byte and accepted no connection:
    /// flushing part of a large reply or reading part of a frame is
    /// progress.
    ///
    /// Idling yields (stays runnable) for a grace window before backing
    /// off to sleeps. The distinction matters on core-constrained hosts:
    /// an engine that *sleeps* the instant a sweep finds nothing hands its
    /// timeslice to load-generating peers — which under open-loop flood
    /// always have bytes to move and never sleep — and then waits out a
    /// multi-millisecond reschedule while their requests pile up in the
    /// socket buffers and the next sweep sheds them. That feedback loop
    /// (idle → sleep → starved → batch full → shed → less work → more
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
            let moved = self.net.counters.moved();
            let n = self.drive(server)?;
            self.maybe_epoch(server)?;
            if n > 0 || self.net.counters.moved() != moved {
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
    /// with reason `quiesced`), flushes the replies, then quiesces the
    /// server itself so its queues and clocks are aligned. Every admitted
    /// command already ran inside the sweep that admitted it, so after
    /// this [`Server::save`] observes no half-processed work. Returns the
    /// drained virtual clock.
    ///
    /// # Errors
    ///
    /// [`Server::quiesce`] failures.
    pub fn quiesce(&mut self, server: &mut Server) -> Result<u64, ServerError> {
        self.net.admission.admitting = false;
        self.net.flush();
        server.quiesce()
    }

    /// Re-opens admission after [`Ingress::quiesce`] (the server's own
    /// admission gate is reopened too).
    pub fn resume_admission(&mut self, server: &mut Server) {
        server.resume_admission();
        self.net.admission.admitting = true;
    }

    /// Whether the ingress is currently admitting requests.
    pub fn is_admitting(&self) -> bool {
        self.net.admission.admitting
    }

    /// Total shed replies across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.net.counters.shed_permits + self.net.counters.shed_quiesced
    }

    /// Total admitted commands.
    pub fn admitted_total(&self) -> u64 {
        self.net.counters.admitted
    }

    /// Total replies produced by the engine.
    pub fn replied_total(&self) -> u64 {
        self.net.counters.replied
    }

    /// Live connection count.
    pub fn connections(&self) -> u64 {
        let c = &self.net.counters;
        c.connections_opened - c.connections_closed.iter().sum::<u64>()
    }

    /// Scrapes every ingress counter, gauge, and histogram into one
    /// `pdo-obs` snapshot, mergeable with [`Server::metrics`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = &self.net.counters;
        let mut m = MetricsSnapshot::new();
        m.counter(
            "pdo_ingress_connections_opened_total",
            "Connections accepted by the ingress",
            &[],
            s.connections_opened,
        );
        for reason in CloseReason::ALL {
            m.counter(
                "pdo_ingress_connections_closed_total",
                "Connections closed, by reason",
                &[("reason", reason.label())],
                s.connections_closed[reason as usize],
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
            "Requests admitted into a sweep's batch",
            &[],
            s.admitted,
        );
        m.counter(
            "pdo_ingress_replied_total",
            "Replies written by the engine",
            &[],
            s.replied,
        );
        for (reason, v) in [("permits", s.shed_permits), ("quiesced", s.shed_quiesced)] {
            m.counter(
                "pdo_ingress_shed_total",
                "Requests refused with a typed Shed reply",
                &[("reason", reason)],
                v,
            );
        }
        m.counter(
            "pdo_ingress_frames_malformed_total",
            "Checksum-valid frames whose payload failed to decode",
            &[],
            s.malformed_payloads,
        );
        m.counter(
            "pdo_ingress_bytes_read_total",
            "Bytes read from all connections",
            &[],
            s.bytes_read,
        );
        m.counter(
            "pdo_ingress_bytes_written_total",
            "Bytes written to all connections",
            &[],
            s.bytes_written,
        );
        m.gauge(
            "pdo_ingress_inflight",
            "Remainder of the current batch: admitted, not yet replied",
            &[],
            self.inflight as i64,
        );
        if self.latency.count() > 0 {
            m.histogram(
                "pdo_ingress_request_latency_ns",
                "Wall-clock admission-to-reply latency",
                &[],
                &self.latency,
            );
        }
        m
    }

    /// Closes the listeners and every connection, and removes the Unix
    /// socket file. Called by `Drop` as well; explicit callers get to
    /// sequence it (e.g. after [`Ingress::quiesce`]).
    pub fn shutdown(&mut self) {
        self.tcp = None;
        self.unix = None;
        self.net.shutdown();
        if let Some(path) = &self.cfg.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Ingress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The spans of the traces `selector` names: one trace by id, or the `n`
/// traces whose newest retained span comes last (exact within one store;
/// `spans` holds the ingress store's, then the server's). Record order is
/// kept.
fn select_traces(mut spans: Vec<Span>, selector: &TraceSelector) -> Vec<Span> {
    match *selector {
        TraceSelector::Id(id) => spans.retain(|s| s.trace.0 == id),
        TraceSelector::LastN(n) => {
            // The first `n` distinct trace ids of one scan from the back.
            let mut keep = BTreeSet::new();
            for s in spans.iter().rev() {
                if keep.len() as u64 == n {
                    break;
                }
                keep.insert(s.trace.0);
            }
            spans.retain(|s| keep.contains(&s.trace.0));
        }
    }
    spans
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_obs::{SpanId, TraceId};

    fn span(trace: u64, id: u64) -> Span {
        Span {
            id: SpanId(id),
            trace: TraceId(trace),
            parent: None,
            start_ns: id,
            end_ns: id,
            kind: SpanKind::GuardMiss { event: 0 },
        }
    }

    fn traces(spans: &[Span]) -> Vec<u64> {
        spans.iter().map(|s| s.trace.0).collect()
    }

    /// Interleaved traces rank by their newest span: trace 1 opens first
    /// but its last span is the newest of all, so it outranks 3, which
    /// outranks 2. The selection keeps every span of the chosen traces,
    /// in record order.
    #[test]
    fn last_n_picks_the_traces_with_the_newest_spans() {
        let spans: Vec<Span> = [1, 2, 1, 3, 2, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, &t)| span(t, i as u64))
            .collect();
        let last = |n| traces(&select_traces(spans.clone(), &TraceSelector::LastN(n)));
        assert_eq!(last(0), Vec::<u64>::new());
        assert_eq!(last(1), [1, 1, 1]);
        assert_eq!(last(2), [1, 1, 3, 3, 1]);
        assert_eq!(last(3), [1, 2, 1, 3, 2, 3, 1]);
        assert_eq!(last(9), last(3), "fewer traces than asked for: all of them");
        let one = select_traces(spans, &TraceSelector::Id(2));
        assert_eq!(traces(&one), [2, 2]);
    }
}
