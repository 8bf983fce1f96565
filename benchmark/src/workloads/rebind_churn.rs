//! `rebind_churn`: the dispatch layer used against the grain.
//!
//! An inline `Server` (`ServerConfig::default()`) hosts 8 plain sessions
//! of a 4-event × 3-handler adder program. Raises go straight through
//! `Server::raise`; event 0 is hot (5 raises in 8). Every ~4 096 raises of
//! a session (seeded jitter ±512) the middle handler of its hot event is
//! swapped between configuration A and B through `Server::with_runtime`,
//! and virtual time advances 1 ms per 1 024 raises so the adaptation
//! daemons run. Each swap bumps the binding version under an installed
//! chain: guard miss, slow lane, despecialize, reprofile, `ChainCache` hit
//! or rebuild. A fast-lane gain bought with slow-lane or rebind cost shows
//! up here as a loss. Operation = one raise.

use super::{
    advance_runtime, bare_runtime, dispatch_metrics, handler_bodies, ir_rung_basic, ratio,
    SliceOut, Timed, Workload, EPOCH_EVERY, EPOCH_STEP_NS,
};
use crate::metrics::Metrics;
use crate::programs::{adder_program, with_rebind, AdderProgram, Rebind, ALT_DELTA};
use crate::rng::Rng;
use crate::span::Tracer;
use pdo_events::{Runtime, RuntimeConfig};
use pdo_ir::RaiseMode;
use pdo_server::{Server, ServerConfig, SessionId};
use std::time::{Duration, Instant};

/// Sessions.
pub const SESSIONS: usize = 8;
const EVENTS: usize = 4;
/// Raises between rebinds of one session, before jitter.
pub const REBIND_EVERY: u64 = 4096;
const JITTER: u64 = 512;
/// Raises per session per round; a round of all sessions is one epoch.
const BATCH: u64 = EPOCH_EVERY / SESSIONS as u64;

/// One step of a session's seeded operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Raise event `0..4`.
    Raise(usize),
    /// Swap the hot event's middle handler to the other configuration.
    Rebind,
}

/// A session's operation stream: which event each raise hits and where
/// the rebinds fall, plus the closed form of what the globals must read.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: Rng,
    /// Raises issued so far.
    pub raised: u64,
    next_rebind: u64,
    /// Whether configuration B is bound.
    pub in_b: bool,
    /// What each event's global must read after the stream so far.
    pub expected: [i64; EVENTS],
    step: i64,
}

impl ChurnStream {
    /// The stream of `session` under `seed`.
    pub fn new(seed: u64, session: usize, step: i64) -> ChurnStream {
        let mut rng = Rng::new(seed, 0x41 + session as u64);
        let next_rebind = REBIND_EVERY - JITTER + rng.below(2 * JITTER + 1);
        ChurnStream {
            rng,
            raised: 0,
            next_rebind,
            in_b: false,
            expected: [0; EVENTS],
            step,
        }
    }

    /// The next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        if self.raised == self.next_rebind {
            self.next_rebind += REBIND_EVERY - JITTER + self.rng.below(2 * JITTER + 1);
            self.in_b = !self.in_b;
            return Op::Rebind;
        }
        self.raised += 1;
        let r = self.rng.next_u64() & 7;
        let ev = if r < 5 { 0 } else { (r - 4) as usize };
        // Configuration B replaces the handler adding 2 by one adding
        // ALT_DELTA, on event 0 only.
        self.expected[ev] += if ev == 0 && self.in_b {
            self.step - 2 + ALT_DELTA
        } else {
            self.step
        };
        Op::Raise(ev)
    }
}

fn swap(rt: &mut Runtime, rb: Rebind, to_b: bool) {
    let (from, to) = if to_b { (rb.a, rb.b) } else { (rb.b, rb.a) };
    assert!(rt.unbind(rb.event, from), "the outgoing handler was bound");
    rt.bind(rb.event, to, rb.order)
        .expect("bind the incoming handler");
}

/// The workload. See the module docs.
pub struct RebindChurn {
    seed: u64,
    program: AdderProgram,
    rebind: Rebind,
    server: Server,
    ids: Vec<SessionId>,
    streams: Vec<ChurnStream>,
    vnow: u64,
}

impl RebindChurn {
    /// Sets the workload up; `seed` drives each session's event choices
    /// and rebind points.
    pub fn setup(seed: u64) -> RebindChurn {
        let (program, rebind) = with_rebind(adder_program(EVENTS, 3));
        let mut server = Server::new(ServerConfig::default());
        let ids = (0..SESSIONS)
            .map(|_| {
                server
                    .open_session(
                        program.module.clone(),
                        RuntimeConfig::default(),
                        &program.bindings,
                    )
                    .expect("open plain session")
            })
            .collect();
        let streams = (0..SESSIONS)
            .map(|s| ChurnStream::new(seed, s, program.step))
            .collect();
        RebindChurn {
            seed,
            program,
            rebind,
            server,
            ids,
            streams,
            vnow: 0,
        }
    }

    /// One round: a batch on every session, then one epoch advance.
    fn round(&mut self, tr: &mut Tracer, out: &mut SliceOut) {
        for s in 0..SESSIONS {
            let id = self.ids[s];
            let t = Instant::now();
            tr.enter("server", "raise");
            let mut raised = 0;
            while raised < BATCH {
                match self.streams[s].next_op() {
                    Op::Raise(ev) => {
                        raised += 1;
                        match self
                            .server
                            .raise(id, self.program.events[ev], RaiseMode::Sync, &[])
                        {
                            Ok(()) => out.ops += 1,
                            Err(_) => out.failed += 1,
                        }
                    }
                    Op::Rebind => {
                        let (rb, to_b) = (self.rebind, self.streams[s].in_b);
                        tr.enter("events", "rebind");
                        self.server
                            .with_runtime(id, move |rt| swap(rt, rb, to_b))
                            .expect("session is open");
                        tr.exit(1);
                    }
                }
            }
            tr.exit(BATCH);
            out.attempted += BATCH;
            out.sample(t.elapsed().as_nanos() as u64 / BATCH);
        }
        self.vnow += EPOCH_STEP_NS;
        tr.enter("server", "run_until");
        self.server.run_until(self.vnow).expect("server run_until");
        tr.exit(1);
    }

    fn globals(&mut self, s: usize) -> Vec<Option<i64>> {
        let globals = self.program.globals.clone();
        self.server
            .with_runtime(self.ids[s], move |rt| {
                globals.iter().map(|&g| rt.global(g).as_int()).collect()
            })
            .expect("session is open")
    }
}

impl Workload for RebindChurn {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let timed = Timed::start();
        while timed.elapsed_ns() < dur.as_nanos() as u64 {
            self.round(tr, out);
        }
        out.add(timed);
    }

    fn cost_units(&mut self) -> u64 {
        self.ids
            .clone()
            .into_iter()
            .map(|id| {
                self.server
                    .with_runtime(id, |rt| rt.cost.weighted_total())
                    .expect("session is open")
            })
            .sum()
    }

    fn warmed(&mut self) -> bool {
        // A session between a rebind and its next epoch has no chain, so
        // "chains live right now" would flicker; having taken the fast
        // path at all is the monotonic form of the same fact.
        self.server
            .report()
            .sessions
            .iter()
            .all(|s| s.fastpath_hits > 0)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for s in 0..SESSIONS {
            let got = self.globals(s);
            let want: Vec<Option<i64>> =
                self.streams[s].expected.iter().map(|&v| Some(v)).collect();
            if got != want {
                failures.push(format!(
                    "session {s}: globals {got:?}, the seeded schedule makes them {want:?}"
                ));
            }
        }
        // Adaptation-off reference: session 0's stream on a runtime with
        // no engine, hence generic dispatch only.
        let p = &self.program;
        let mut rt = Runtime::with_config(p.module.clone(), RuntimeConfig::default());
        for &(e, f, o) in &p.bindings {
            rt.bind(e, f, o).expect("bind");
        }
        let mut stream = ChurnStream::new(self.seed, 0, p.step);
        while stream.raised < self.streams[0].raised || stream.in_b != self.streams[0].in_b {
            match stream.next_op() {
                Op::Raise(ev) => rt
                    .raise(p.events[ev], RaiseMode::Sync, &[])
                    .expect("reference raise"),
                Op::Rebind => swap(&mut rt, self.rebind, stream.in_b),
            }
        }
        let reference: Vec<Option<i64>> =
            p.globals.iter().map(|&g| rt.global(g).as_int()).collect();
        if rt.cost.fastpath_hits != 0 {
            failures.push("the reference run was supposed to stay generic".to_string());
        }
        let served = self.globals(0);
        if served != reference {
            failures.push(format!(
                "session 0: served {served:?}, adaptation-off reference {reference:?}"
            ));
        }
        failures
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        let raise = tr.agg("server", "raise");
        let run_until = tr.agg("server", "run_until");
        // Self time: the rebinds nested in a batch are their own row.
        let server_raise_ns = ratio(raise.self_ns, raise.count);
        m.set("server.raise_ns", server_raise_ns);
        m.set("server.allocs_per_raise", raise.allocs_per_count());
        m.set(
            "server.run_until_ns_per_epoch",
            ratio(run_until.total_ns, run_until.spans),
        );
        m.set(
            "events.rebind_ns",
            tr.agg("events", "rebind").ns_per_count(),
        );
        let report = self.server.report();
        m.set(
            "server.fast_lane_frac",
            ratio(report.fastpath_hits(), report.dispatched()),
        );
        let misses: u64 = report.sessions.iter().map(|s| s.guard_misses).sum();
        let mut adapt = pdo::AdaptStats::default();
        for s in &report.sessions {
            adapt.absorb(&s.adapt);
        }
        let reprofile_p50 = self
            .server
            .with_engine(self.ids[0], |e| e.reprofile_wall_ns().quantile(0.5))
            .expect("session is open");
        super::adapt_metrics(m, &adapt, reprofile_p50);

        // Rung 1: the same streams on bare runtimes with the engine
        // attached.
        let p = &self.program;
        let mut rts: Vec<_> = (0..SESSIONS)
            .map(|_| bare_runtime(&p.module, &p.bindings))
            .collect();
        let mut streams: Vec<ChurnStream> = (0..SESSIONS)
            .map(|s| ChurnStream::new(self.seed, s, p.step))
            .collect();
        let mut vnow = 0u64;
        let started = Instant::now();
        while started.elapsed() < budget.mul_f64(0.6) {
            for (s, (rt, _)) in rts.iter_mut().enumerate() {
                tr.enter("events", "raise");
                let mut raised = 0;
                while raised < BATCH {
                    match streams[s].next_op() {
                        Op::Raise(ev) => {
                            raised += 1;
                            rt.raise(p.events[ev], RaiseMode::Sync, &[])
                                .expect("runtime raise");
                        }
                        Op::Rebind => {
                            tr.enter("events", "rebind_bare");
                            swap(rt, self.rebind, streams[s].in_b);
                            tr.exit(1);
                        }
                    }
                }
                tr.exit(BATCH);
            }
            vnow += EPOCH_STEP_NS;
            for (rt, _) in &mut rts {
                advance_runtime(rt, vnow);
            }
        }
        let bare = tr.agg("events", "raise");
        let events_raise_ns = ratio(bare.self_ns, bare.count);
        m.set("events.raise_ns", events_raise_ns);
        m.set("events.allocs_per_raise", bare.allocs_per_count());
        m.set("server.self_ns", server_raise_ns - events_raise_ns);
        let mut cost = pdo_ir::CostCounter::new();
        for (rt, _) in &rts {
            cost += rt.cost;
        }
        dispatch_metrics(m, cost, bare.count);
        // The served fleet's own guard-miss share, not the replay's.
        m.set("events.guard_miss_frac", ratio(misses, report.dispatched()));

        // Rung 2: the hot event's bodies on a BasicEnv.
        let module = rts[0].0.module_arc();
        let funcs = handler_bodies(&rts[0].0, p.events[0]);
        ir_rung_basic(&module, &funcs, &[], budget.mul_f64(0.4), tr, m);
        m.set(
            "events.self_ns",
            events_raise_ns - m.get("ir.call_ns").unwrap_or(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, session: usize, n: usize) -> Vec<Op> {
        let mut s = ChurnStream::new(seed, session, 6);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(ops(5, 0, 20_000), ops(5, 0, 20_000));
        assert_ne!(ops(5, 0, 20_000), ops(6, 0, 20_000));
        assert_ne!(ops(5, 0, 20_000), ops(5, 1, 20_000));
    }

    #[test]
    fn rebinds_fall_inside_the_jitter_window_and_alternate() {
        let mut s = ChurnStream::new(9, 2, 6);
        let mut since = 0u64;
        let mut rebinds = 0;
        let mut was_b = false;
        for _ in 0..100_000 {
            match s.next_op() {
                Op::Raise(ev) => {
                    assert!(ev < EVENTS);
                    since += 1;
                }
                Op::Rebind => {
                    assert!((REBIND_EVERY - JITTER..=REBIND_EVERY + JITTER).contains(&since));
                    assert_ne!(s.in_b, was_b);
                    was_b = s.in_b;
                    since = 0;
                    rebinds += 1;
                }
            }
        }
        assert!(rebinds >= 20);
    }

    #[test]
    fn closed_form_matches_a_generic_runtime() {
        let (p, rb) = with_rebind(adder_program(EVENTS, 3));
        let mut rt = Runtime::with_config(p.module.clone(), RuntimeConfig::default());
        for &(e, f, o) in &p.bindings {
            rt.bind(e, f, o).unwrap();
        }
        let mut s = ChurnStream::new(3, 0, p.step);
        for _ in 0..3 * REBIND_EVERY {
            match s.next_op() {
                Op::Raise(ev) => rt.raise(p.events[ev], RaiseMode::Sync, &[]).unwrap(),
                Op::Rebind => swap(&mut rt, rb, s.in_b),
            }
        }
        for (i, &g) in p.globals.iter().enumerate() {
            assert_eq!(rt.global(g).as_int(), Some(s.expected[i]), "event {i}");
        }
    }
}
