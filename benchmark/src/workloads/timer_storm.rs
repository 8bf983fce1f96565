//! `timer_storm`: the scheduler under a standing population of timers.
//!
//! An inline `Server` (`ServerConfig::default()`) hosts 4 plain sessions
//! that together hold 100 000 live timers with seeded delays in
//! 1 ns … 1 s of virtual time. Each step advances virtual time by 1 ms
//! through `Server::run_until`, which fires about 100 of them, and re-arms
//! exactly as many through `Server::submit_batch` with fresh seeded
//! delays, so the population stays at 100 000. The handlers are two
//! adders; nearly all the time goes into `pdo-events`' scheduler — the
//! row ROADMAP item 2 asks for before `sched.rs` is renamed or replaced.
//! Operation = one timer armed and fired.

use super::{
    advance_runtime, bare_runtime, handler_bodies, ir_rung_basic, ratio, spend, SliceOut, Timed,
    Workload, EPOCH_STEP_NS,
};
use crate::metrics::Metrics;
use crate::programs::{adder_program, AdderProgram};
use crate::rng::Rng;
use crate::span::Tracer;
use pdo_events::sched::Scheduler;
use pdo_events::RuntimeConfig;
use pdo_ir::{EventId, RaiseMode, Value};
use pdo_server::{Server, ServerConfig, SessionId};
use std::time::{Duration, Instant};

/// Sessions.
pub const SESSIONS: usize = 4;
/// Live timers across all sessions.
pub const LIVE: u64 = 100_000;
/// Longest delay, virtual ns.
pub const MAX_DELAY_NS: u64 = 1_000_000_000;
const STEP_NS: u64 = EPOCH_STEP_NS;
const RING: usize = (MAX_DELAY_NS / STEP_NS) as usize + 1;

/// The benchmark's own account of one session's timers: how many fall
/// due in each coming step. Arming and advancing are O(1), so keeping the
/// books costs nothing next to the scheduler being measured, and "fired"
/// can be checked against "due" exactly.
#[derive(Debug, Clone)]
pub struct TimerModel {
    ring: Vec<u32>,
    step: u64,
    /// Timers armed and not yet due.
    pub live: u64,
    /// Timers that have fallen due.
    pub fired: u64,
}

impl TimerModel {
    /// An empty model at step 0.
    pub fn new() -> TimerModel {
        TimerModel {
            ring: vec![0; RING],
            step: 0,
            live: 0,
            fired: 0,
        }
    }

    /// Books a timer armed now with `delay_ns` in `1..=MAX_DELAY_NS`: it
    /// fires in the first step whose deadline reaches it.
    pub fn arm(&mut self, delay_ns: u64) {
        debug_assert!((1..=MAX_DELAY_NS).contains(&delay_ns));
        let steps = delay_ns.div_ceil(STEP_NS);
        self.ring[((self.step + steps) % RING as u64) as usize] += 1;
        self.live += 1;
    }

    /// Advances one step; returns how many timers fall due in it.
    pub fn advance(&mut self) -> u64 {
        self.step += 1;
        let slot = (self.step % RING as u64) as usize;
        let due = u64::from(std::mem::take(&mut self.ring[slot]));
        self.live -= due;
        self.fired += due;
        due
    }
}

/// Seeded delays, uniform in `1..=MAX_DELAY_NS`.
fn fill_delays(rng: &mut Rng, n: u64, model: &mut TimerModel, buf: &mut Vec<u64>) {
    buf.clear();
    for _ in 0..n {
        let d = 1 + rng.below(MAX_DELAY_NS);
        model.arm(d);
        buf.push(d);
    }
}

/// The workload. See the module docs.
pub struct TimerStorm {
    seed: u64,
    program: AdderProgram,
    server: Server,
    ids: Vec<SessionId>,
    models: Vec<TimerModel>,
    rng: Rng,
    vnow: u64,
    delays: Vec<u64>,
}

impl TimerStorm {
    /// Sets the workload up; `seed` drives every timer delay.
    pub fn setup(seed: u64) -> TimerStorm {
        let program = adder_program(1, 2);
        let mut server = Server::new(ServerConfig::default());
        let mut rng = Rng::new(seed, 0x51);
        let mut delays = Vec::with_capacity(LIVE as usize / SESSIONS);
        let mut ids = Vec::new();
        let mut models = Vec::new();
        for _ in 0..SESSIONS {
            let id = server
                .open_session(
                    program.module.clone(),
                    RuntimeConfig::default(),
                    &program.bindings,
                )
                .expect("open plain session");
            let mut model = TimerModel::new();
            fill_delays(&mut rng, LIVE / SESSIONS as u64, &mut model, &mut delays);
            server
                .submit_batch(id, program.events[0], &delays)
                .expect("arm initial timers");
            ids.push(id);
            models.push(model);
        }
        TimerStorm {
            seed,
            program,
            server,
            ids,
            models,
            rng,
            vnow: 0,
            delays,
        }
    }

    /// One 1 ms step: fire what is due, re-arm as many. Returns timers
    /// fired.
    fn step(&mut self, tr: &mut Tracer) -> u64 {
        let due: [u64; SESSIONS] = std::array::from_fn(|s| self.models[s].advance());
        let fired: u64 = due.iter().sum();
        self.vnow += STEP_NS;
        tr.enter("server", "run_until");
        self.server.run_until(self.vnow).expect("server run_until");
        tr.exit(fired);
        for (s, &due) in due.iter().enumerate() {
            fill_delays(&mut self.rng, due, &mut self.models[s], &mut self.delays);
            tr.enter("server", "submit_batch");
            self.server
                .submit_batch(self.ids[s], self.program.events[0], &self.delays)
                .expect("re-arm timers");
            tr.exit(due);
        }
        fired
    }
}

impl Workload for TimerStorm {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let timed = Timed::start();
        while timed.elapsed_ns() < dur.as_nanos() as u64 {
            let t = Instant::now();
            let fired = self.step(tr);
            out.attempted += fired;
            out.ops += fired;
            if let Some(per_timer) = (t.elapsed().as_nanos() as u64).checked_div(fired) {
                out.sample(per_timer);
            }
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
        self.server
            .report()
            .sessions
            .iter()
            .all(|s| s.fastpath_hits > 0)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let g = self.program.globals[0];
        for s in 0..SESSIONS {
            let (acc, timers) = self
                .server
                .with_runtime(self.ids[s], move |rt| {
                    (rt.global(g).as_int(), rt.timer_len() as u64)
                })
                .expect("session is open");
            let model = &self.models[s];
            let want = self.program.step * model.fired as i64;
            if acc != Some(want) {
                failures.push(format!(
                    "session {s}: handlers ran to {acc:?}, {} timers fell due ({want})",
                    model.fired
                ));
            }
            if timers != model.live {
                failures.push(format!(
                    "session {s}: {timers} timers live, the schedule holds {}",
                    model.live
                ));
            }
        }
        failures
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        let fire = tr.agg("server", "run_until");
        let arm = tr.agg("server", "submit_batch");
        m.set("server.fire_ns_per_timer", fire.ns_per_count());
        m.set("server.arm_ns_per_timer", arm.ns_per_count());
        m.set(
            "server.run_until_ns_per_epoch",
            ratio(fire.total_ns, fire.spans),
        );
        let server_ns = ratio(fire.total_ns + arm.total_ns, fire.count);
        m.set("server.raise_ns", server_ns);
        m.set(
            "server.allocs_per_raise",
            ratio(fire.allocs + arm.allocs, fire.count),
        );
        let report = self.server.report();
        m.set(
            "server.fast_lane_frac",
            ratio(report.fastpath_hits(), report.dispatched()),
        );
        let mut adapt = pdo::AdaptStats::default();
        for s in &report.sessions {
            adapt.absorb(&s.adapt);
        }
        let reprofile_p50 = self
            .server
            .with_engine(self.ids[0], |e| e.reprofile_wall_ns().quantile(0.5))
            .expect("session is open");
        super::adapt_metrics(m, &adapt, reprofile_p50);

        // Rung 1: the same population and step on bare runtimes.
        let p = &self.program;
        let event = p.events[0];
        let mut rng = Rng::new(self.seed, 0x51);
        let mut delays = Vec::new();
        let mut rts = Vec::new();
        let mut models = Vec::new();
        for _ in 0..SESSIONS {
            let (mut rt, engine) = bare_runtime(&p.module, &p.bindings);
            let mut model = TimerModel::new();
            fill_delays(&mut rng, LIVE / SESSIONS as u64, &mut model, &mut delays);
            for &d in &delays {
                rt.raise(event, RaiseMode::Timed, &[Value::Int(d as i64)])
                    .expect("arm");
            }
            rts.push((rt, engine));
            models.push(model);
        }
        let mut vnow = 0u64;
        let started = Instant::now();
        while started.elapsed() < budget.mul_f64(0.35) {
            vnow += STEP_NS;
            for (s, (rt, _)) in rts.iter_mut().enumerate() {
                let due = models[s].advance();
                tr.enter("events", "run_until");
                advance_runtime(rt, vnow);
                tr.exit(due);
                fill_delays(&mut rng, due, &mut models[s], &mut delays);
                tr.enter("events", "raise_timed");
                for &d in &delays {
                    rt.raise(event, RaiseMode::Timed, &[Value::Int(d as i64)])
                        .expect("re-arm");
                }
                tr.exit(due);
            }
        }
        let bare_fire = tr.agg("events", "run_until");
        let bare_arm = tr.agg("events", "raise_timed");
        let events_ns = ratio(bare_fire.total_ns + bare_arm.total_ns, bare_fire.count);
        m.set("events.raise_ns", events_ns);
        m.set(
            "events.allocs_per_raise",
            ratio(bare_fire.allocs + bare_arm.allocs, bare_fire.count),
        );
        m.set("server.self_ns", server_ns - events_ns);
        let mut cost = pdo_ir::CostCounter::new();
        for (rt, _) in &rts {
            cost += rt.cost;
        }
        super::dispatch_metrics(m, cost, bare_fire.count);

        // Standalone: the scheduler alone at three populations, one pop of
        // the earliest timer and one push of a fresh one per iteration.
        for (live, name, metric) in [
            (1_000u64, "sched_1e3", "events.sched_ns_per_timer_1e3"),
            (100_000, "sched_1e5", "events.sched_ns_per_timer_1e5"),
            (1_000_000, "sched_1e6", "events.sched_ns_per_timer_1e6"),
        ] {
            sched_rung(live, event, self.seed, budget.mul_f64(0.1), tr, name);
            m.set(metric, tr.agg("events", name).ns_per_count());
        }

        // Rung 2: the timer handler's bodies on a BasicEnv.
        let module = rts[0].0.module_arc();
        let funcs = handler_bodies(&rts[0].0, event);
        ir_rung_basic(&module, &funcs, &[], budget.mul_f64(0.3), tr, m);
        m.set(
            "events.self_ns",
            events_ns - m.get("ir.call_ns").unwrap_or(0.0),
        );
    }
}

fn sched_rung(
    live: u64,
    event: EventId,
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
    name: &'static str,
) {
    const BATCH: u64 = 256;
    let mut rng = Rng::new(seed, 0x52);
    let mut sched = Scheduler::new();
    for _ in 0..live {
        sched.push_timed(0, 1 + rng.below(MAX_DELAY_NS), event, Vec::new());
    }
    spend(budget, tr, "events", name, || {
        for _ in 0..BATCH {
            let now = sched.next_deadline().expect("population never empties");
            let t = sched.pop_due_timer(now).expect("the earliest timer is due");
            std::hint::black_box(&t);
            sched.push_timed(now, 1 + rng.below(MAX_DELAY_NS), event, Vec::new());
        }
        BATCH
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_fires_each_timer_in_the_step_that_reaches_its_deadline() {
        let mut m = TimerModel::new();
        m.arm(1); // step 1
        m.arm(STEP_NS); // step 1
        m.arm(STEP_NS + 1); // step 2
        m.arm(MAX_DELAY_NS); // step 1000
        assert_eq!(m.live, 4);
        assert_eq!(m.advance(), 2);
        m.arm(1); // armed at step 1, due in step 2
        assert_eq!(m.advance(), 2);
        for _ in 2..999 {
            assert_eq!(m.advance(), 0);
        }
        assert_eq!(m.advance(), 1);
        assert_eq!((m.live, m.fired), (0, 5));
    }

    #[test]
    fn same_seed_same_delays_other_seed_other_delays() {
        let gen = |seed| {
            let (mut r, mut m, mut v) = (Rng::new(seed, 0x51), TimerModel::new(), Vec::new());
            fill_delays(&mut r, 1000, &mut m, &mut v);
            v
        };
        assert_eq!(gen(4), gen(4));
        assert_ne!(gen(4), gen(5));
        assert!(gen(4).iter().all(|d| (1..=MAX_DELAY_NS).contains(d)));
    }

    #[test]
    fn model_agrees_with_a_real_runtime() {
        let p = adder_program(1, 2);
        let (mut rt, _) = bare_runtime(&p.module, &p.bindings);
        let (mut rng, mut model, mut delays) = (Rng::new(7, 0x51), TimerModel::new(), Vec::new());
        fill_delays(&mut rng, 5000, &mut model, &mut delays);
        for &d in &delays {
            rt.raise(p.events[0], RaiseMode::Timed, &[Value::Int(d as i64)])
                .unwrap();
        }
        for step in 1..=50u64 {
            let due = model.advance();
            advance_runtime(&mut rt, step * STEP_NS);
            fill_delays(&mut rng, due, &mut model, &mut delays);
            for &d in &delays {
                rt.raise(p.events[0], RaiseMode::Timed, &[Value::Int(d as i64)])
                    .unwrap();
            }
            assert_eq!(rt.timer_len() as u64, model.live);
            assert_eq!(
                rt.global(p.globals[0]).as_int(),
                Some(p.step * model.fired as i64)
            );
        }
        assert!(model.fired > 0);
    }
}
