//! `wire_seccomm`: open loop over the real wire with ~170 µs of
//! interpreter, crypto-native and marshalling work per request.
//!
//! Same topology as `wire_plain` (real `Ingress`, default configs, two
//! multiplexed connections, one benchmark thread), but the 32 sessions
//! are SecComm sessions and every request is a `msgFromUser` raise
//! carrying a 1 KiB `Bytes` payload through DES, XOR and keyed-MD5. The
//! wire path is a few microseconds of that, so this is where `pdo-ir`,
//! `pdo-events` and `pdo-seccomm` work shows through the full stack, where
//! an ingress-only change must *not* move anything, and where the `proto`
//! codec carries large values instead of tiny frames.
//!
//! Open loop: seeded Poisson arrivals at a fixed [`RATE`] requests/s
//! (about a third of measured capacity, so there is no standing queue and
//! the p50 tracks service time). Latency is counted from the instant a
//! request was *due*, not from when the generator got round to sending
//! it, and how late the generator ran is reported beside it.
//! Operation = one `Done` reply.

use super::wire_plain::{codec_rung, Wire, CLIENTS, CONNS};
use super::{
    advance_runtime, cost_delta, dispatch_metrics, handler_bodies, ir_metrics, ratio, Clock,
    SliceOut, Timed, Workload, EPOCH_EVERY, EPOCH_STEP_NS,
};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::span::Tracer;
use pdo::{AdaptConfig, AdaptiveEngine};
use pdo_cactus::EventProgram;
use pdo_ingress::proto::{Reply, Request, WireMode};
use pdo_ingress::OpenKind;
use pdo_ir::{EventId, RaiseMode, Value};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, SecWireState, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, SessionId};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE: f64 = 2000.0;
/// Payload size, bytes.
pub const PAYLOAD: usize = 1024;
/// Sessions whose full wire output is compared against a reference
/// endpoint (one per connection; every session is checked for frame count
/// and MAC failures).
const REFERENCED: usize = CONNS;
/// Sessions the lower rungs replay on: the natives dominate, so cache
/// footprint across 32 sessions is not what this ladder is measuring.
const LADDER_SESSIONS: usize = 4;

/// The canonical program the ingress opens for `OpenKind::SecComm`.
pub fn seccomm_program() -> EventProgram {
    seccomm_protocol()
        .instantiate(CONFIG_FULL)
        .expect("CONFIG_FULL is a valid configuration")
}

fn payload(seed: u64, k: u64) -> Vec<u8> {
    Rng::new(seed ^ 0x5EC0_5EC0, k).bytes(PAYLOAD)
}

/// The seeded request stream: when each request is due, which session it
/// targets, and (through its index) its payload.
#[derive(Debug, Clone)]
pub struct Arrivals {
    seed: u64,
    gaps: Rng,
    picks: Rng,
    next_k: u64,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Ns after the previous request that this one is due.
    pub gap_ns: u64,
    /// Target session, `0..CLIENTS`.
    pub session: usize,
    /// Request index; the payload is a function of `(seed, k)`.
    pub k: u64,
}

impl Arrivals {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Arrivals {
        Arrivals {
            seed,
            gaps: Rng::new(seed, 0x21),
            picks: Rng::new(seed, 0x22),
            next_k: 0,
        }
    }

    /// The next request.
    pub fn next_arrival(&mut self) -> Arrival {
        let k = self.next_k;
        self.next_k += 1;
        Arrival {
            gap_ns: self.gaps.exp_ns(1e9 / RATE),
            session: self.picks.below(CLIENTS as u64) as usize,
            k,
        }
    }

    /// The wire request of `a` against server session id `session`.
    pub fn request(&self, a: &Arrival, session: u64, event: EventId) -> Request {
        Request::Raise {
            session,
            event: event.0,
            mode: WireMode::Sync,
            args: vec![Value::bytes(payload(self.seed, a.k))],
        }
    }
}

/// Ladder rung 0: `n` requests pushed through the live wire back to back,
/// `Ingress::drive` spanned as `ingress.drive_burst`. The open-loop pass
/// measures `drive` too, but seconds earlier; this one runs inside the
/// ladder's rounds, in the same host phase as the `Server::raise` it is
/// compared with. Uses only sessions that are not reference-checked.
fn wire_burst(wire: &mut Wire, done: &mut [u64], requests: &[Request], n: usize, tr: &mut Tracer) {
    let spare = CLIENTS - REFERENCED;
    for i in 0..n {
        let s = REFERENCED + i % spare;
        let (ci, session) = wire.sessions[s];
        let mut req = requests[i % requests.len()].clone();
        if let Request::Raise {
            session: target, ..
        } = &mut req
        {
            *target = session;
        }
        wire.conns[ci].send(&req, s as u32, 0);
    }
    let mut replied = 0;
    let started = Instant::now();
    while replied < n {
        for conn in &mut wire.conns {
            replied += conn.sweep(|reply, info| match reply {
                Reply::Done => done[info.tag as usize] += 1,
                other => panic!("ladder burst refused: {other:?}"),
            }) as usize;
        }
        tr.enter("ingress", "drive_burst");
        let drained = wire.ingress.drive(&mut wire.server).expect("drive") as u64;
        tr.exit_if(drained > 0, drained);
        wire.ingress
            .maybe_epoch(&mut wire.server)
            .expect("maybe_epoch");
        assert!(
            started.elapsed().as_secs() < 10,
            "ladder burst never answered"
        );
    }
}

/// The workload. See the module docs.
pub struct WireSeccomm {
    seed: u64,
    program: EventProgram,
    event: EventId,
    wire: Wire,
    arrivals: Arrivals,
    /// The next request and the workload-clock instant it is due.
    next: (Arrival, u64),
    done: Vec<u64>,
    /// Request indices sent to each referenced session since the last
    /// check, in order.
    sent_log: Vec<Vec<u64>>,
    references: Vec<Endpoint>,
    mac_failures: u64,
    clock: Clock,
}

impl WireSeccomm {
    /// Sets the workload up; `seed` drives arrival gaps, the session each
    /// request targets and every payload byte.
    pub fn setup(seed: u64) -> WireSeccomm {
        let program = seccomm_program();
        let event = program
            .module
            .event_by_name("msgFromUser")
            .expect("SecComm declares msgFromUser");
        let order: Vec<usize> = (0..CLIENTS).collect();
        let wire = Wire::open(&OpenKind::SecComm, &order, |client| client % CONNS);
        let references = (0..REFERENCED)
            .map(|_| Endpoint::new(&program, &Keys::default()).expect("reference endpoint"))
            .collect();
        let mut arrivals = Arrivals::new(seed);
        WireSeccomm {
            seed,
            program,
            event,
            wire,
            next: (arrivals.next_arrival(), 0),
            arrivals,
            done: vec![0; CLIENTS],
            sent_log: vec![Vec::new(); REFERENCED],
            references,
            mac_failures: 0,
            clock: Clock::start(),
        }
    }
}

impl Workload for WireSeccomm {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let timed = Timed::start();
        let start_ns = self.clock.now_ns();
        let end_ns = start_ns + dur.as_nanos() as u64;
        // The harness paused between slices; the schedule resumes from now
        // instead of sending what fell due meanwhile as one burst.
        if self.next.1 < start_ns {
            self.next.1 = start_ns + self.next.0.gap_ns;
        }
        loop {
            let now = self.clock.now_ns();
            if now >= end_ns {
                break;
            }
            tr.enter("client", "send_recv");
            let mut moved = 0;
            while self.next.1 <= now {
                moved += 1;
                let (a, due_ns) = &self.next;
                let (ci, session) = self.wire.sessions[a.session];
                let req = self.arrivals.request(a, session, self.event);
                self.wire.conns[ci].send(&req, a.session as u32, *due_ns);
                if a.session < REFERENCED {
                    self.sent_log[a.session].push(a.k);
                }
                out.attempted += 1;
                out.late_ns
                    .push((now - due_ns).min(u64::from(u32::MAX)) as u32);
                let following = self.arrivals.next_arrival();
                self.next = (following.clone(), due_ns + following.gap_ns);
            }
            let mut replies = 0;
            for (ci, conn) in self.wire.conns.iter_mut().enumerate() {
                let (done, clock) = (&mut self.done, &self.clock);
                replies += conn.sweep(|reply, info| {
                    let now = clock.now_ns();
                    match reply {
                        Reply::Done => {
                            done[info.tag as usize] += 1;
                            out.ops += 1;
                            out.sample(now.saturating_sub(info.start_ns));
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
                });
            }
            tr.exit_if(moved + replies > 0, replies);
            self.wire.engine_turn(tr, moved + replies > 0);
        }
        out.add(timed);
    }

    fn cost_units(&mut self) -> u64 {
        self.wire.cost_units()
    }

    fn paced(&self) -> bool {
        true
    }

    fn warmed(&mut self) -> bool {
        self.wire.all_specialized()
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let done = &mut self.done;
        self.wire.drain(|reply, info| match reply {
            Reply::Done => done[info.tag as usize] += 1,
            other => failures.push(format!("session {}: {other:?} while draining", info.tag)),
        });
        for (s, &(_, session)) in self.wire.sessions.clone().iter().enumerate() {
            let (frames, mac_failures, wire) = self
                .wire
                .server
                .with_seccomm(SessionId(session), |ep| {
                    let wire = ep.export_wire();
                    // Checked below; dropping the outbox here keeps a long
                    // run's memory bounded by one check interval.
                    ep.restore_wire(SecWireState::default());
                    (ep.frames_sent(), ep.mac_failures(), wire)
                })
                .expect("session is an open SecComm session");
            if frames != self.done[s] {
                failures.push(format!(
                    "session {session}: {frames} frames sent for {} Done replies",
                    self.done[s]
                ));
            }
            self.mac_failures += mac_failures;
            if mac_failures != 0 {
                failures.push(format!("session {session}: {mac_failures} MAC failures"));
            }
            if s < REFERENCED {
                let reference = &mut self.references[s];
                let expected = SecWireState {
                    outbox: self.sent_log[s]
                        .drain(..)
                        .map(|k| {
                            reference
                                .push(&payload(self.seed, k))
                                .expect("reference push")
                        })
                        .collect(),
                    ..SecWireState::default()
                };
                if wire != expected {
                    failures.push(format!(
                        "session {session}: wire state differs from the reference endpoint \
                         ({} frames served, {} expected)",
                        wire.outbox.len(),
                        expected.outbox.len()
                    ));
                }
            }
        }
        failures
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        self.wire.wire_metrics(tr, m);
        let frames: u64 = self.done.iter().sum();
        m.set("seccomm.frames_sent", frames as f64);
        m.set("seccomm.mac_failures", self.mac_failures as f64);
        let (program, event) = (&self.program, self.event);
        let keys = Keys::default();
        let pool: Vec<Value> = (0..64)
            .map(|k| Value::bytes(payload(self.seed, k)))
            .collect();
        // Ops per virtual epoch on the lower rungs, per session what the
        // wire's cadence gives 32 sessions.
        let per_epoch = EPOCH_EVERY as usize / CLIENTS * LADDER_SESSIONS;

        // The rungs differ by a microsecond or two on ~135 us of crypto, far
        // less than this host drifts between one second and the next, so
        // they are not run one after the other: every round runs one epoch
        // of each rung, and all four see the same host phases.
        //
        // Rung 1: direct `Server::raise` on SecComm sessions.
        // Rung 2: bare endpoints with the adaptive engine attached —
        //         `Endpoint::push`, and the `Runtime::raise` underneath it.
        // Rung 3: the super-handler (or the bound handlers) through
        //         `interp::call`, with an endpoint's runtime as the
        //         environment so the crypto natives are the real ones.
        let mut server = Server::new(ServerConfig::default());
        let ids: Vec<SessionId> = (0..LADDER_SESSIONS)
            .map(|_| {
                server
                    .open_seccomm_session(program, &keys)
                    .expect("open SecComm session")
            })
            .collect();
        let mut eps: Vec<Endpoint> = (0..LADDER_SESSIONS)
            .map(|_| {
                let mut ep = Endpoint::new(program, &keys).expect("bare endpoint");
                AdaptiveEngine::attach_new(ep.runtime_mut(), AdaptConfig::default());
                ep
            })
            .collect();
        let mut vnow = 0u64;
        let mut n = 0usize;
        // What the raw-raise rung and the interpreter rung charged.
        let mut costs = [pdo_ir::CostCounter::new(); 2];
        let mut round = |server: &mut Server,
                         eps: &mut [Endpoint],
                         costs: &mut [pdo_ir::CostCounter; 2],
                         tr: &mut Tracer| {
            vnow += EPOCH_STEP_NS;
            for _ in 0..per_epoch / 16 {
                tr.enter("server", "raise");
                for _ in 0..16 {
                    n += 1;
                    server
                        .raise(
                            ids[n % LADDER_SESSIONS],
                            event,
                            RaiseMode::Sync,
                            std::slice::from_ref(&pool[n % pool.len()]),
                        )
                        .expect("server raise");
                }
                tr.exit(16);
            }
            tr.enter("server", "run_until");
            server.run_until(vnow).expect("server run_until");
            tr.exit(1);
            for &id in &ids {
                server
                    .with_seccomm(id, |ep| ep.restore_wire(SecWireState::default()))
                    .expect("session is open");
            }

            for raw in [false, true] {
                let before: Vec<_> = eps.iter().map(|ep| ep.runtime().cost).collect();
                for _ in 0..per_epoch / 16 {
                    let (layer, name) = if raw {
                        ("events", "raise")
                    } else {
                        ("seccomm", "push")
                    };
                    tr.enter(layer, name);
                    for _ in 0..16 {
                        n += 1;
                        let ep = &mut eps[n % LADDER_SESSIONS];
                        let arg = &pool[n % pool.len()];
                        if raw {
                            ep.runtime_mut()
                                .raise(event, RaiseMode::Sync, std::slice::from_ref(arg))
                                .expect("runtime raise");
                        } else {
                            let bytes = arg.as_bytes().expect("pool holds bytes");
                            std::hint::black_box(ep.push(bytes).expect("endpoint push"));
                        }
                    }
                    tr.exit(16);
                }
                if raw {
                    for (ep, before) in eps.iter().zip(before) {
                        costs[0] += cost_delta(ep.runtime().cost, before);
                    }
                }
            }

            let ep = &mut eps[0];
            let module = ep.runtime().module_arc();
            let funcs = handler_bodies(ep.runtime(), event);
            let before = ep.runtime().cost;
            for _ in 0..per_epoch / 16 {
                tr.enter("ir", "call");
                for _ in 0..16 {
                    n += 1;
                    for &f in &funcs {
                        pdo_ir::interp::call(
                            &module,
                            ep.runtime_mut(),
                            f,
                            std::slice::from_ref(&pool[n % pool.len()]),
                        )
                        .expect("handler body runs");
                    }
                }
                tr.exit(16);
            }
            costs[1] += cost_delta(ep.runtime().cost, before);

            for ep in eps.iter_mut() {
                advance_runtime(ep.runtime_mut(), vnow);
                ep.restore_wire(SecWireState::default());
            }
        };
        tr.set_on(false);
        for _ in 0..50 {
            if server.report().sessions.iter().all(|s| s.chains_live > 0)
                && eps.iter().all(|ep| !ep.runtime().spec().is_empty())
            {
                break;
            }
            round(&mut server, &mut eps, &mut costs, tr);
        }
        tr.set_on(true);
        let mut costs = [pdo_ir::CostCounter::new(); 2];
        let before = server.report();
        let started = Instant::now();
        let burst: Vec<Request> = (0..pool.len() as u64)
            .map(|k| {
                let a = Arrival {
                    gap_ns: 0,
                    session: 0,
                    k,
                };
                self.arrivals.request(&a, 0, event)
            })
            .collect();
        while started.elapsed() < budget.mul_f64(0.85) {
            wire_burst(&mut self.wire, &mut self.done, &burst, per_epoch, tr);
            round(&mut server, &mut eps, &mut costs, tr);
        }
        let after = server.report();

        let raise = tr.agg("server", "raise");
        let run_until = tr.agg("server", "run_until");
        let push = tr.agg("seccomm", "push");
        let raw = tr.agg("events", "raise");
        let call = tr.agg("ir", "call");
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
        // From the burst, not from the open-loop pass: see `wire_burst`.
        m.set(
            "ingress.self_ns_per_req",
            tr.agg("ingress", "drive_burst").ns_per_count() - raise.ns_per_count(),
        );
        m.set("seccomm.push_ns", push.ns_per_count());
        m.set("events.raise_ns", raw.ns_per_count());
        m.set("events.allocs_per_raise", raw.allocs_per_count());
        m.set("server.self_ns", raise.ns_per_count() - raw.ns_per_count());
        dispatch_metrics(m, costs[0], raw.count);
        ir_metrics(
            m,
            call.ns_per_count(),
            call.allocs_per_count(),
            costs[1],
            call.count,
        );
        m.set("events.self_ns", raw.ns_per_count() - call.ns_per_count());
        let rt = eps[0].runtime_mut();
        rt.set_opcode_profiling(true);
        rt.take_opcode_profile();
        for arg in &pool {
            rt.raise(event, RaiseMode::Sync, std::slice::from_ref(arg))
                .expect("profiled raise");
        }
        if let Some(p) = rt.opcode_profile_data() {
            m.set("ir.fused_frac", ratio(p.fused_total(), p.total()));
        }

        codec_rung(&burst[0], &Reply::Done, budget.mul_f64(0.15), tr, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ingress::proto::encode_request;

    fn wire_bytes(seed: u64, n: u64) -> Vec<u8> {
        let mut arrivals = Arrivals::new(seed);
        let mut out = Vec::new();
        for id in 0..n {
            let a = arrivals.next_arrival();
            out.extend_from_slice(&a.gap_ns.to_le_bytes());
            let req = arrivals.request(&a, a.session as u64 + 1, EventId(0));
            out.extend_from_slice(&encode_request(id, &req));
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        assert_eq!(wire_bytes(11, 200), wire_bytes(11, 200));
        assert_ne!(wire_bytes(11, 200), wire_bytes(12, 200));
    }

    #[test]
    fn arrivals_hit_every_session_at_about_the_offered_rate() {
        let mut arrivals = Arrivals::new(3);
        let mut per_session = [0u32; CLIENTS];
        let mut total_ns = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let a = arrivals.next_arrival();
            per_session[a.session] += 1;
            total_ns += a.gap_ns;
        }
        assert!(per_session.iter().all(|&c| c > 400), "{per_session:?}");
        let rate = n as f64 * 1e9 / total_ns as f64;
        assert!((rate - RATE).abs() < RATE * 0.03, "rate {rate}");
    }
}
