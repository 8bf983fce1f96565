//! `wire_plain`: closed loop over the real wire with ~1 µs of handler
//! work per request.
//!
//! 32 logical clients, one outstanding synchronous `Raise` each, ride two
//! multiplexed loopback TCP connections into a real `Ingress`
//! (`IngressConfig::default()`) in front of a `Server`
//! (`ServerConfig::default()`: 4 shards, inline). Every client owns one
//! plain session whose single event has two handlers adding 1 and 2 into a
//! global. The per-request handler work is about a microsecond, so
//! framing, admission, the shard queue hop, the reply path and the epoch
//! advances are nearly all of the cost: this is the workload an ingress
//! or codec change must move, and an interpreter change must not.
//!
//! Closed loop (a client sends its next request when the previous reply
//! is decoded), 32 clients. Operation = one `Done` reply.

use super::{
    advance_runtime, bare_runtime, dispatch_metrics, handler_bodies, ir_rung_basic, ratio, spend,
    Clock, SliceOut, Timed, Workload, EPOCH_EVERY, EPOCH_STEP_NS,
};
use crate::metrics::Metrics;
use crate::mux::MuxConn;
use crate::programs::{adder_program, raw_bindings, AdderProgram};
use crate::rng::Rng;
use crate::span::Tracer;
use pdo_events::{Runtime, RuntimeConfig};
use pdo_ingress::proto::{self, FrameBuffer, Reply, Request, WireMode};
use pdo_ingress::{Ingress, IngressConfig, OpenKind};
use pdo_ir::RaiseMode;
use pdo_server::{Server, ServerConfig, SessionId};
use std::time::{Duration, Instant};

/// Logical clients (= sessions).
pub const CLIENTS: usize = 32;
/// Multiplexed connections.
pub const CONNS: usize = 2;

/// A live ingress + server pair with sessions opened over the wire by a
/// two-connection multiplexing client. Shared with `wire_seccomm`.
pub struct Wire {
    /// The served fleet.
    pub server: Server,
    /// Its network front door.
    pub ingress: Ingress,
    /// The generator's connections.
    pub conns: Vec<MuxConn>,
    /// `sessions[client] = (connection index, session id)`.
    pub sessions: Vec<(usize, u64)>,
}

impl Wire {
    /// Binds, connects and opens one session per client, each client on
    /// the connection `conn_of(client)` says, in `order`.
    pub fn open(kind: &OpenKind, order: &[usize], conn_of: impl Fn(usize) -> usize) -> Wire {
        let mut server = Server::new(ServerConfig::default());
        let mut ingress = Ingress::bind(IngressConfig::default(), server.shards())
            .expect("bind loopback ingress");
        let addr = ingress.tcp_addr().expect("default config binds TCP");
        let mut conns: Vec<MuxConn> = (0..CONNS).map(|_| MuxConn::connect(addr)).collect();
        let mut sessions = vec![(0usize, 0u64); order.len()];
        for &client in order {
            let ci = conn_of(client);
            conns[ci].send(&Request::Open(kind.clone()), client as u32, 0);
        }
        let mut opened = 0;
        let started = Instant::now();
        while opened < order.len() {
            for (ci, c) in conns.iter_mut().enumerate() {
                opened += c.sweep(|reply, info| match reply {
                    Reply::Opened { session } => sessions[info.tag as usize] = (ci, session),
                    other => panic!("open over the wire failed: {other:?}"),
                }) as usize;
            }
            ingress.drive(&mut server).expect("drive during set-up");
            assert!(
                started.elapsed().as_secs() < 10,
                "set-up opens never answered"
            );
        }
        Wire {
            server,
            ingress,
            conns,
            sessions,
        }
    }

    /// One engine turn: drain admitted work, advance the epoch if due.
    /// Returns requests processed. A turn that found the queues empty
    /// leaves no span: its time is the enclosing slice's self time, which
    /// is how long the benchmark thread waited for the acceptor. When the
    /// generator moved nothing either (`client_moved`), the turn ends in a
    /// `yield_now`, as an idle turn of `Ingress::serve` does: should the
    /// scheduler have put this thread and the acceptor on one core, a
    /// request then costs two yields instead of two expired timeslices
    /// (measured: 4 096 ops/s instead of 400 000 until one of them migrates).
    #[inline]
    pub fn engine_turn(&mut self, tr: &mut Tracer, client_moved: bool) -> u64 {
        tr.enter("ingress", "drive");
        let n = self.ingress.drive(&mut self.server).expect("drive") as u64;
        tr.exit_if(n > 0, n);
        tr.enter("ingress", "maybe_epoch");
        let advanced = self
            .ingress
            .maybe_epoch(&mut self.server)
            .expect("maybe_epoch");
        tr.exit_if(advanced, 1);
        if n == 0 && !client_moved {
            std::thread::yield_now();
        }
        n
    }

    /// Sweeps and drives until no request is outstanding.
    pub fn drain(&mut self, mut on_reply: impl FnMut(Reply, crate::mux::InFlight)) {
        let Wire {
            server,
            ingress,
            conns,
            ..
        } = self;
        for c in conns.iter_mut() {
            c.drain_with(
                || {
                    ingress.drive(server).expect("drive while draining");
                },
                &mut on_reply,
            );
        }
    }

    /// Sum of `weighted_total` over every session's runtime.
    pub fn cost_units(&mut self) -> u64 {
        let ids: Vec<u64> = self.sessions.iter().map(|&(_, id)| id).collect();
        ids.into_iter()
            .map(|id| {
                self.server
                    .with_runtime(SessionId(id), |rt| rt.cost.weighted_total())
                    .expect("session is open")
            })
            .sum()
    }

    /// Whether every session has at least one compiled chain installed.
    pub fn all_specialized(&self) -> bool {
        self.server
            .report()
            .sessions
            .iter()
            .all(|s| s.chains_live > 0)
    }

    /// Fills the `client.*` / `ingress.*` metrics the full-stack rung's
    /// spans and the ingress's own counters provide.
    pub fn wire_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let drive = tr.agg("ingress", "drive");
        let epoch = tr.agg("ingress", "maybe_epoch");
        let sweep = tr.agg("client", "send_recv");
        m.set("ingress.drive_ns_per_req", drive.ns_per_count());
        m.set("ingress.allocs_per_req", drive.allocs_per_count());
        m.set(
            "ingress.epoch_ns_per_req",
            ratio(epoch.total_ns, drive.count),
        );
        m.set("ingress.epoch_max_ms", epoch.max_ns as f64 / 1e6);
        m.set(
            "client.send_recv_ns_per_req",
            ratio(sweep.total_ns, drive.count),
        );
        let im = self.ingress.metrics();
        let counter = |name: &str| im.counter_value(name, &[]).unwrap_or(0);
        let replied = counter("pdo_ingress_replied_total");
        m.set(
            "ingress.wire_bytes_per_req",
            ratio(
                counter("pdo_ingress_bytes_read_total")
                    + counter("pdo_ingress_bytes_written_total"),
                replied,
            ),
        );
        if let Some(h) = im.histogram_value("pdo_ingress_request_latency_ns", &[]) {
            m.set(
                "ingress.admit_to_reply_p50_us",
                h.quantile(0.5) as f64 / 1e3,
            );
        }
        let shed = self.ingress.shed_total();
        m.set(
            "ingress.shed_frac",
            ratio(shed, self.ingress.admitted_total() + shed),
        );
    }
}

/// Standalone codec timing on one request/reply pair: encode, reassemble
/// and decode both directions; two frames per iteration.
pub fn codec_rung(
    req: &Request,
    reply: &Reply,
    budget: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    const BATCH: u64 = 64;
    let mut inbuf = FrameBuffer::new();
    let mut id = 0u64;
    spend(budget, tr, "ingress", "codec", || {
        for _ in 0..BATCH {
            id += 1;
            inbuf.extend(&proto::encode_request(id, req));
            let frame = inbuf
                .next_frame(proto::MAX_FRAME_LEN)
                .expect("own frame")
                .expect("complete");
            std::hint::black_box(proto::decode_request(&frame).expect("own request"));
            inbuf.extend(&proto::encode_reply(id, reply));
            let frame = inbuf
                .next_frame(proto::MAX_FRAME_LEN)
                .expect("own frame")
                .expect("complete");
            std::hint::black_box(proto::decode_reply(&frame).expect("own reply"));
        }
        2 * BATCH
    });
    m.set(
        "ingress.codec_ns_per_frame",
        tr.agg("ingress", "codec").ns_per_count(),
    );
}

/// The workload. See the module docs.
pub struct WirePlain {
    program: AdderProgram,
    wire: Wire,
    requests: Vec<Request>,
    done: Vec<u64>,
    order: Vec<usize>,
    clock: Clock,
    started: bool,
}

impl WirePlain {
    /// Sets the workload up; `seed` shuffles the order in which clients
    /// open their sessions and issue their first requests.
    pub fn setup(seed: u64) -> WirePlain {
        let program = adder_program(1, 2);
        let mut order: Vec<usize> = (0..CLIENTS).collect();
        let mut rng = Rng::new(seed, 0x11);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let kind = OpenKind::Plain {
            module: program.module.clone(),
            bindings: raw_bindings(&program.bindings),
        };
        let wire = Wire::open(&kind, &order, |client| client % CONNS);
        let requests = wire
            .sessions
            .iter()
            .map(|&(_, session)| Request::Raise {
                session,
                event: program.events[0].0,
                mode: WireMode::Sync,
                args: Vec::new(),
            })
            .collect();
        WirePlain {
            program,
            wire,
            requests,
            done: vec![0; CLIENTS],
            order,
            clock: Clock::start(),
            started: false,
        }
    }
}

impl Workload for WirePlain {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let timed = Timed::start();
        if !self.started {
            self.started = true;
            let now = self.clock.now_ns();
            for &client in &self.order {
                let (ci, _) = self.wire.sessions[client];
                self.wire.conns[ci].send(&self.requests[client], client as u32, now);
            }
            out.attempted += CLIENTS as u64;
        }
        let end_ns = self.clock.now_ns() + dur.as_nanos() as u64;
        loop {
            let sent_ns = self.clock.now_ns();
            if sent_ns >= end_ns {
                break;
            }
            tr.enter("client", "send_recv");
            let mut replies = 0;
            for ci in 0..CONNS {
                let Wire {
                    conns, sessions, ..
                } = &mut self.wire;
                let (conn, requests, done, clock) =
                    (&mut conns[ci], &self.requests, &mut self.done, &self.clock);
                let mut next: [u32; CLIENTS] = [0; CLIENTS];
                let mut n_next = 0;
                replies += conn.sweep(|reply, info| {
                    let now = clock.now_ns();
                    match reply {
                        Reply::Done => {
                            done[info.tag as usize] += 1;
                            out.ops += 1;
                            out.sample(now - info.start_ns);
                            tr.request(
                                info.req_id << 1 | ci as u64,
                                "client",
                                "request",
                                info.start_ns,
                                now,
                            );
                        }
                        _ => out.failed += 1,
                    }
                    next[n_next] = info.tag;
                    n_next += 1;
                });
                // Closed loop: a decoded reply releases that client's next
                // request, stamped now and flushed by the next sweep.
                let now = clock.now_ns();
                for &client in &next[..n_next] {
                    debug_assert_eq!(sessions[client as usize].0, ci);
                    conn.send(&requests[client as usize], client, now);
                }
                out.attempted += n_next as u64;
            }
            tr.exit_if(replies > 0, replies);
            self.wire.engine_turn(tr, replies > 0);
        }
        out.add(timed);
    }

    fn cost_units(&mut self) -> u64 {
        self.wire.cost_units()
    }

    fn warmed(&mut self) -> bool {
        self.wire.all_specialized()
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let done = &mut self.done;
        self.wire.drain(|reply, info| match reply {
            Reply::Done => done[info.tag as usize] += 1,
            other => failures.push(format!("client {}: {other:?} while draining", info.tag)),
        });
        self.started = false;
        let g = self.program.globals[0];
        for (client, &(_, session)) in self.wire.sessions.clone().iter().enumerate() {
            let got = self
                .wire
                .server
                .with_runtime(SessionId(session), move |rt| rt.global(g).as_int())
                .expect("session is open");
            let want = self.program.step * self.done[client] as i64;
            if got != Some(want) {
                failures.push(format!(
                    "session {session}: global is {got:?}, {} Done replies make it {want}",
                    self.done[client]
                ));
            }
        }
        failures
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        self.wire.wire_metrics(tr, m);
        let p = &self.program;
        let event = p.events[0];

        // Rung 1: the same requests as direct `Server::raise` calls.
        let mut server = Server::new(ServerConfig::default());
        let ids: Vec<SessionId> = (0..CLIENTS)
            .map(|_| {
                server
                    .open_session(p.module.clone(), RuntimeConfig::default(), &p.bindings)
                    .expect("open plain session")
            })
            .collect();
        let mut vnow = 0u64;
        let mut server_round = |server: &mut Server, tr: &mut Tracer| {
            for chunk in 0..EPOCH_EVERY / 256 {
                tr.enter("server", "raise");
                for i in 0..256 {
                    let id = ids[((chunk * 256 + i) % CLIENTS as u64) as usize];
                    server
                        .raise(id, event, RaiseMode::Sync, &[])
                        .expect("server raise");
                }
                tr.exit(256);
            }
            vnow += EPOCH_STEP_NS;
            tr.enter("server", "run_until");
            server.run_until(vnow).expect("server run_until");
            tr.exit(1);
        };
        tr.set_on(false);
        for _ in 0..64 {
            server_round(&mut server, tr);
        }
        tr.set_on(true);
        let before = server.report();
        let started = Instant::now();
        while started.elapsed() < budget.mul_f64(0.3) {
            server_round(&mut server, tr);
        }
        let after = server.report();
        let raise = tr.agg("server", "raise");
        let run_until = tr.agg("server", "run_until");
        m.set("server.raise_ns", raise.ns_per_count());
        m.set("server.allocs_per_raise", raise.allocs_per_count());
        m.set(
            "server.run_until_ns_per_epoch",
            ratio(run_until.total_ns, run_until.spans),
        );
        m.set(
            "server.fast_lane_frac",
            ratio(
                after.fastpath_hits() - before.fastpath_hits(),
                after.dispatched() - before.dispatched(),
            ),
        );
        let mut adapt = pdo::AdaptStats::default();
        for s in &after.sessions {
            adapt.absorb(&s.adapt);
        }
        let reprofile_p50 = server
            .with_engine(ids[0], |e| e.reprofile_wall_ns().quantile(0.5))
            .expect("session is open");
        super::adapt_metrics(m, &adapt, reprofile_p50);
        m.set(
            "ingress.self_ns_per_req",
            m.get("ingress.drive_ns_per_req").unwrap_or(0.0) - raise.ns_per_count(),
        );
        drop(server);

        // Rung 2: bare runtimes with the adaptive engine attached, hub off
        // then hub on.
        let mut raise_ns = [0.0f64; 2];
        for (pass, hub) in [false, true].into_iter().enumerate() {
            let name = if hub { "raise_obs" } else { "raise" };
            let mut rts: Vec<_> = (0..CLIENTS)
                .map(|_| bare_runtime(&p.module, &p.bindings))
                .collect();
            if hub {
                for (rt, _) in &mut rts {
                    rt.enable_observability();
                }
            }
            let mut vnow = 0u64;
            let mut round = |rts: &mut [(Runtime, _)], tr: &mut Tracer| {
                for chunk in 0..EPOCH_EVERY as usize / 256 {
                    tr.enter("events", name);
                    for i in 0..256 {
                        rts[(chunk * 256 + i) % CLIENTS]
                            .0
                            .raise(event, RaiseMode::Sync, &[])
                            .expect("runtime raise");
                    }
                    tr.exit(256);
                }
                vnow += EPOCH_STEP_NS;
                for (rt, _) in rts.iter_mut() {
                    advance_runtime(rt, vnow);
                }
            };
            tr.set_on(false);
            for _ in 0..64 {
                round(&mut rts, tr);
            }
            tr.set_on(true);
            let cost_before: Vec<_> = rts.iter().map(|(rt, _)| rt.cost).collect();
            let started = Instant::now();
            while started.elapsed() < budget.mul_f64(0.17) {
                round(&mut rts, tr);
            }
            let a = tr.agg("events", name);
            raise_ns[pass] = a.ns_per_count();
            if !hub {
                m.set("events.raise_ns", a.ns_per_count());
                m.set("events.allocs_per_raise", a.allocs_per_count());
                let mut cost = pdo_ir::CostCounter::new();
                for ((rt, _), before) in rts.iter().zip(cost_before) {
                    cost += super::cost_delta(rt.cost, before);
                }
                dispatch_metrics(m, cost, a.count);
                m.set("server.self_ns", raise.ns_per_count() - a.ns_per_count());
                // Rung 3: the bodies that raise interprets, on a BasicEnv.
                let module = rts[0].0.module_arc();
                let funcs = handler_bodies(&rts[0].0, event);
                ir_rung_basic(&module, &funcs, &[], budget.mul_f64(0.18), tr, m);
                m.set(
                    "events.self_ns",
                    a.ns_per_count() - m.get("ir.call_ns").unwrap_or(0.0),
                );
            }
        }
        m.set("events.obs_ns", raise_ns[1] - raise_ns[0]);

        codec_rung(&self.requests[0], &Reply::Done, budget.mul_f64(0.18), tr, m);
    }
}
