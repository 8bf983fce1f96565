//! `video_play`: the paper's flow, in process.
//!
//! Profile a 391-frame CTP video session with full tracing, build the
//! profile, `pdo::optimize` at T = 300, install the compiled chains, then
//! play 391-frame sessions at 25 fps of virtual time with every 50th
//! acknowledgement dropped. Timers, asynchronous and synchronous dispatch
//! and the interpreter all run, with no server or ingress in the way: this
//! is where a `pdo-events` / `pdo-ir` / `pdo-ctp` change shows undiluted.
//!
//! The measured loop is `VideoPlayer::play`'s loop (`run_until(arrival)`
//! then `send(frame)`, then a drain) written out here so that the frame
//! payloads come from `--seed` and so each call can carry its own span;
//! the *profiling* session uses `VideoPlayer::play` itself.
//! Operation = one frame.

use super::{
    cost_delta, dispatch_metrics, handler_bodies, ir_metrics, ratio, SliceOut, Timed, Workload,
};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::span::Tracer;
use pdo::{optimize, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, CtpStats, VideoPlayer};
use pdo_events::{Trace, TraceConfig};
use pdo_ir::{RaiseMode, Value};
use pdo_profile::Profile;
use std::time::{Duration, Instant};

/// Frames per session (the paper's trace counts ~391 message sends).
pub const FRAMES: u32 = 391;
/// Reduction threshold (the paper's Fig 6 uses T = 300).
pub const THRESHOLD: u64 = 300;
/// Frame rate of virtual time.
pub const FPS: u64 = 25;
const PERIOD_NS: u64 = 1_000_000_000 / FPS;

/// Endpoint parameters of the video workload: the controller clock fires
/// once per frame, every 50th ack is lost.
pub fn video_params() -> CtpParams {
    CtpParams {
        ack_drop_every: 50,
        clk_period_ns: PERIOD_NS,
        ..Default::default()
    }
}

/// The prepared experiment: base program, recorded trace, profile and
/// optimization. Shared with `control_plane`, which times building it.
pub struct VideoLab {
    /// The unoptimized CTP program.
    pub base: EventProgram,
    /// Same bindings over the optimizer-extended module.
    pub opt_program: EventProgram,
    /// Chains and report.
    pub optimization: Optimization,
    /// The fully instrumented trace of the profiling session.
    pub trace: Trace,
    /// The endpoint the trace was recorded on (its registry is the
    /// binding state the optimization is valid for).
    pub profiled: CtpEndpoint,
}

impl VideoLab {
    /// Records the profiling session and optimizes at [`THRESHOLD`].
    pub fn prepare() -> VideoLab {
        let base = ctp_program();
        let mut ep = CtpEndpoint::new(&base, video_params()).expect("base endpoint");
        ep.open().expect("open");
        ep.runtime_mut().set_trace_config(TraceConfig::full());
        let mut player = VideoPlayer::new(ep, FPS as u32);
        player.play(FRAMES).expect("profiling session");
        let mut profiled = player.into_endpoint();
        let trace = profiled.runtime_mut().take_trace();
        let profile = Profile::from_trace(&trace, THRESHOLD);
        let optimization = optimize(
            &base.module,
            profiled.runtime().registry(),
            &profile,
            &OptimizeOptions::new(THRESHOLD),
        );
        let opt_program = base.with_module(optimization.module.clone());
        VideoLab {
            base,
            opt_program,
            optimization,
            trace,
            profiled,
        }
    }

    /// A fresh, opened endpoint; chains installed when `optimized`.
    pub fn endpoint(&self, optimized: bool) -> CtpEndpoint {
        let program = if optimized {
            &self.opt_program
        } else {
            &self.base
        };
        let mut ep = CtpEndpoint::new(program, video_params()).expect("endpoint");
        if optimized {
            self.optimization.install_chains(ep.runtime_mut());
        }
        ep.open().expect("open");
        ep
    }
}

/// Seeded frames with `VideoPlayer::frame_payload`'s size mix: most fit
/// one 512-byte fragment, every fifth needs two.
pub fn frames(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 0x31);
    (0..FRAMES)
        .map(|i| {
            let size = if i % 5 == 0 {
                700 + rng.below(200)
            } else {
                300 + rng.below(180)
            };
            rng.bytes(size as usize)
        })
        .collect()
}

/// What one played session left behind.
struct Played {
    stats: CtpStats,
    received: Vec<u8>,
    wire: Vec<u8>,
    cost: pdo_ir::CostCounter,
}

/// The workload. See the module docs.
pub struct VideoPlay {
    lab: VideoLab,
    frames: Vec<Vec<u8>>,
    expected: Vec<u8>,
    cost_units: u64,
    last: Option<CtpStats>,
}

impl VideoPlay {
    /// Sets the workload up; `seed` drives every frame's size and bytes.
    pub fn setup(seed: u64) -> VideoPlay {
        let lab = VideoLab::prepare();
        assert!(
            !lab.optimization.chains.is_empty(),
            "the video profile yields no chain at T = {THRESHOLD}"
        );
        let frames = frames(seed);
        let expected = frames.concat();
        VideoPlay {
            lab,
            frames,
            expected,
            cost_units: 0,
            last: None,
        }
    }

    /// Plays one session on a fresh endpoint. Timed regions go to `out`,
    /// spans to `tr`; building the endpoint and reading its outputs back
    /// are harness work and are neither.
    fn play(&self, optimized: bool, tr: &mut Tracer, out: Option<&mut SliceOut>) -> Played {
        let mut ep = self.lab.endpoint(optimized);
        let timed = Timed::start();
        let mut sink = SliceOut::default();
        let out = out.unwrap_or(&mut sink);
        for (i, frame) in self.frames.iter().enumerate() {
            let t = Instant::now();
            tr.enter("ctp", "run_until");
            ep.run_until(i as u64 * PERIOD_NS).expect("run_until");
            tr.exit(0);
            tr.enter("ctp", "send");
            ep.send(frame).expect("send");
            tr.exit(1);
            out.sample(t.elapsed().as_nanos() as u64);
        }
        tr.enter("ctp", "drain");
        ep.run_until(u64::from(FRAMES) * PERIOD_NS)
            .expect("run_until");
        ep.drain(500_000_000).expect("drain");
        tr.exit(0);
        out.add(timed);
        Played {
            stats: ep.stats(),
            received: ep.received_payload(),
            wire: ep.wire_payload(),
            cost: ep.runtime().cost,
        }
    }
}

impl Workload for VideoPlay {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let budget = dur.as_nanos() as u64;
        while out.timed_ns < budget {
            let played = self.play(true, tr, Some(out));
            out.attempted += u64::from(FRAMES);
            if played.received == self.expected {
                out.ops += u64::from(FRAMES);
            } else {
                out.failed += u64::from(FRAMES);
            }
            self.cost_units += played.cost.weighted_total();
            self.last = Some(played.stats);
        }
    }

    fn cost_units(&mut self) -> u64 {
        self.cost_units
    }

    fn warmed(&mut self) -> bool {
        // Specialization here is the offline optimize of set-up, checked
        // there; warm-up only has to fill caches.
        true
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let mut off = Tracer::off();
        let generic = self.play(false, &mut off, None);
        let optimized = self.play(true, &mut off, None);
        if generic.received != self.expected {
            failures.push("generic session did not deliver the frames sent".to_string());
        }
        if optimized.received != self.expected {
            failures.push("optimized session did not deliver the frames sent".to_string());
        }
        if optimized.wire != generic.wire {
            failures.push("optimized and generic sessions put different bytes on the wire".into());
        }
        if (
            optimized.stats.segments_sent,
            optimized.stats.retransmissions,
        ) != (generic.stats.segments_sent, generic.stats.retransmissions)
        {
            failures.push(format!(
                "optimized sent {}+{} segments, generic {}+{}",
                optimized.stats.segments_sent,
                optimized.stats.retransmissions,
                generic.stats.segments_sent,
                generic.stats.retransmissions
            ));
        }
        if optimized.cost.fastpath_hits == 0 || generic.cost.fastpath_hits != 0 {
            failures.push("fast path use is not what the configuration implies".to_string());
        }
        failures
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        let send = tr.agg("ctp", "send");
        let run_until = tr.agg("ctp", "run_until");
        m.set("ctp.send_ns_per_frame", send.ns_per_count());
        m.set(
            "ctp.run_until_ns_per_frame",
            ratio(run_until.total_ns, send.count),
        );
        if let Some(s) = &self.last {
            m.set(
                "ctp.segments_per_frame",
                s.segments_sent as f64 / f64::from(FRAMES),
            );
            m.set("ctp.retransmits", s.retransmissions as f64);
        }

        // Generic against optimized, sessions interleaved so both see the
        // same host phase.
        tr.set_on(false);
        let mut ns = [0u64; 2];
        let mut sessions = 0u64;
        let started = Instant::now();
        while started.elapsed() < budget.mul_f64(0.25) {
            for (i, optimized) in [false, true].into_iter().enumerate() {
                let mut out = SliceOut::default();
                self.play(optimized, tr, Some(&mut out));
                ns[i] += out.timed_ns;
            }
            sessions += 1;
        }
        tr.set_on(true);
        m.set(
            "events.generic_ns_per_frame",
            ratio(ns[0], sessions * u64::from(FRAMES)),
        );
        m.set("core.opt_speedup", ratio(ns[0], ns[1]));

        // Rungs 1 and 2, sessions interleaved so both see the same host
        // phase. Rung 1 is the runtime under the endpoint —
        // `Runtime::run_until` and a raise of `SendMsg`, no endpoint
        // bookkeeping. Rung 2 is the super-handler alone through
        // `interp::call`, the endpoint's runtime as its environment
        // (natives and timers real).
        let send_msg = self
            .lab
            .base
            .module
            .event_by_name("SendMsg")
            .expect("CTP declares SendMsg");
        let args: Vec<Value> = self
            .frames
            .iter()
            .map(|f| Value::bytes(f.clone()))
            .collect();
        let mut raise_cost = pdo_ir::CostCounter::new();
        let mut cost = pdo_ir::CostCounter::new();
        let started = Instant::now();
        while started.elapsed() < budget.mul_f64(0.4) {
            let mut ep = self.lab.endpoint(true);
            let before = ep.runtime().cost;
            let rt = ep.runtime_mut();
            for (i, arg) in args.iter().enumerate() {
                tr.enter("events", "run_until");
                rt.run_until(i as u64 * PERIOD_NS).expect("run_until");
                tr.exit(0);
                tr.enter("events", "raise");
                rt.raise(send_msg, RaiseMode::Sync, std::slice::from_ref(arg))
                    .expect("raise SendMsg");
                tr.exit(1);
            }
            raise_cost += cost_delta(ep.runtime().cost, before);

            let mut ep = self.lab.endpoint(true);
            let module = ep.runtime().module_arc();
            let funcs = handler_bodies(ep.runtime(), send_msg);
            let rt = ep.runtime_mut();
            for (i, arg) in args.iter().enumerate() {
                rt.run_until(i as u64 * PERIOD_NS).expect("run_until");
                let before = rt.cost;
                tr.enter("ir", "call");
                for &f in &funcs {
                    pdo_ir::interp::call(&module, rt, f, std::slice::from_ref(arg))
                        .expect("handler body runs");
                }
                tr.exit(1);
                cost += cost_delta(rt.cost, before);
            }
        }
        let raise = tr.agg("events", "raise");
        m.set("events.raise_ns", raise.ns_per_count());
        m.set("events.allocs_per_raise", raise.allocs_per_count());
        dispatch_metrics(m, raise_cost, raise.count);
        let call = tr.agg("ir", "call");
        ir_metrics(
            m,
            call.ns_per_count(),
            call.allocs_per_count(),
            cost,
            call.count,
        );
        m.set("events.self_ns", raise.ns_per_count() - call.ns_per_count());
        let mut ep = self.lab.endpoint(true);
        ep.runtime_mut().set_opcode_profiling(true);
        for (i, frame) in self.frames.iter().enumerate() {
            ep.run_until(i as u64 * PERIOD_NS).expect("run_until");
            ep.send(frame).expect("send");
        }
        if let Some(p) = ep.runtime().opcode_profile_data() {
            m.set("ir.fused_frac", ratio(p.fused_total(), p.total()));
        }

        compile_rung(&self.lab, budget.mul_f64(0.3), tr, m);
    }
}

/// Standalone timings of the compile side on the lab's own trace and
/// module: profile construction, `optimize`, the standard pass pipeline
/// and superinstruction fusion.
pub fn compile_rung(lab: &VideoLab, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let registry = lab.profiled.runtime().registry();
    let opts = OptimizeOptions::new(THRESHOLD);
    let mut instrs_after = 0;
    let mut fused_sites = 0;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < budget {
        rounds += 1;
        tr.enter("profile", "from_trace");
        let profile = Profile::from_trace(&lab.trace, THRESHOLD);
        tr.exit(lab.trace.records.len() as u64);
        tr.enter("core", "optimize");
        let opt = optimize(&lab.base.module, registry, &profile, &opts);
        tr.exit(1);
        let mut module = opt.module;
        tr.enter("passes", "pipeline");
        let report = pdo_passes::PassManager::standard().run(&mut module);
        tr.exit(1);
        instrs_after = report.instrs_after;
        tr.enter("passes", "fuse");
        let records = pdo_passes::fuse::fuse_module(&mut module, None, 0);
        tr.exit(1);
        fused_sites = records.iter().map(|r| r.sites).sum();
    }
    let per = |layer, name| {
        let a = tr.agg(layer, name);
        ratio(a.total_ns, a.spans)
    };
    m.set("profile.from_trace_us", per("profile", "from_trace") / 1e3);
    m.set("profile.trace_records", lab.trace.records.len() as f64);
    m.set("core.optimize_ms", per("core", "optimize") / 1e6);
    m.set(
        "core.code_growth_pct",
        lab.optimization.report.code_growth_percent(),
    );
    m.set("passes.pipeline_us", per("passes", "pipeline") / 1e3);
    m.set("passes.instrs_after", instrs_after as f64);
    m.set("passes.fused_sites", fused_sites as f64);
}
