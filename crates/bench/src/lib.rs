//! # pdo-bench — the paper-reproduction harness
//!
//! One module per experiment family, each regenerating a table or figure of
//! the PLDI 2002 paper:
//!
//! | module    | paper artifact |
//! |-----------|----------------|
//! | [`video`] | Fig 5 (event graph), Fig 6 (reduced graph), Fig 10 (video player times), Fig 11 (event processing times) |
//! | [`secc`]  | Fig 12 (SecComm push/pop times by packet size) |
//! | [`xcli`]  | Fig 13 (X client Scroll/Popup times) |
//! | [`sizes`] | §4.2 code-size growth |
//! | [`ablate`]| ablations over the optimizer's design choices (§3.2/§5) |
//!
//! The `report` binary prints each table with the paper's reference numbers
//! alongside. Every wall-clock figure, in `report` and in the gate binaries,
//! is timed one way: [`interleaved`] rounds of [`measure`], summarized by
//! [`Side::median_min`]. Beside each per-event figure sits its deterministic
//! cost in [`warmed_units`]; Fig 10 is modeled on those units alone.

pub mod ablate;
pub mod paper;
pub mod secc;
pub mod sizes;
pub mod video;
pub mod xcli;

use pdo::{optimize, OptimizeOptions};
use pdo_events::{Runtime, TraceConfig};
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_profile::Profile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

thread_local! {
    // Const-initialised and destructor-free, so bumping it from inside the
    // allocator can neither allocate nor observe a torn-down key.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator with a per-thread count of the blocks it hands out.
/// A gate binary that reports [`allocs_per_call`] installs it with
/// `#[global_allocator]`; without it the count stays zero.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping is one add on
// a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) the calling thread makes per call
/// of `f`, averaged over 64 calls after three unmeasured ones. Needs
/// [`CountingAlloc`] installed.
pub fn allocs_per_call<O>(mut f: impl FnMut() -> O) -> f64 {
    const CALLS: u64 = 64;
    for _ in 0..3 {
        black_box(f());
    }
    let before = ALLOCS.get();
    for _ in 0..CALLS {
        black_box(f());
    }
    (ALLOCS.get() - before) as f64 / CALLS as f64
}

/// Summary statistics of one [`measure`] call's batch averages.
#[derive(Debug, Default, Clone, Copy)]
pub struct Measurement {
    /// Minimum batch average (ns/iter) — the headline number, robust
    /// against scheduler noise on a shared machine.
    pub min_ns: f64,
    /// Mean of the batch averages (ns/iter).
    pub mean_ns: f64,
    /// Half-width of the 95% confidence interval of the mean (normal
    /// approximation: `1.96 * stddev / sqrt(batches)`).
    pub ci95_ns: f64,
}

/// Runs `f` repeatedly — three warm-up calls, then `samples` (clamped to
/// 3..=10) batches of 16 — and summarizes the batch averages. One round of
/// one side of [`interleaved`].
pub fn measure<O>(mut f: impl FnMut() -> O, samples: usize) -> Measurement {
    for _ in 0..3 {
        black_box(f());
    }
    let batches = samples.clamp(3, 10);
    let mut avgs = Vec::with_capacity(batches);
    for _ in 0..batches {
        let batch = 16u32;
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        avgs.push(start.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    let min_ns = avgs.iter().copied().fold(f64::INFINITY, f64::min);
    let (mean_ns, ci95_ns) = mean_ci(&avgs);
    Measurement {
        min_ns,
        mean_ns,
        ci95_ns,
    }
}

/// [`measure`] batches per round of every timed paper-figure cell.
const SAMPLES: usize = 10;

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean and normal-approximation 95% CI half-width over `xs` (zero width
/// for fewer than two samples).
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// One side of an interleaved comparison: the per-round [`Measurement`]s
/// of one configuration. The gates compare sides by [`Side::median_min`].
#[derive(Debug, Default)]
pub struct Side {
    mins: Vec<f64>,
    means: Vec<f64>,
}

impl Side {
    /// Adds one round's measurement.
    pub fn push(&mut self, m: Measurement) {
        self.mins.push(m.min_ns);
        self.means.push(m.mean_ns);
    }

    /// Median across rounds of the per-round minimum batch average — the
    /// headline statistic, robust against scheduler noise.
    pub fn median_min(&self) -> f64 {
        median(&mut self.mins.clone())
    }

    /// Each round's minimum batch average, in round order.
    pub fn round_mins(&self) -> &[f64] {
        &self.mins
    }

    /// The side as the JSON object every `BENCH_*.json` gate artifact uses.
    pub fn json(&self) -> String {
        format!("{{ {} }}", self.json_fields())
    }

    /// The members of [`Side::json`] without the braces, for a gate that
    /// adds its own beside them.
    pub fn json_fields(&self) -> String {
        let (mean, ci95) = mean_ci(&self.means);
        format!(
            "\"median_min_ns\": {:.2}, \"mean_ns\": {:.2}, \"ci95_ns\": {:.2}",
            self.median_min(),
            mean,
            ci95
        )
    }
}

/// Measures `sides` configurations in `rounds` interleaved rounds of
/// [`measure`], where `f(i)` runs side `i` once. In round `r` side
/// `(k + r) % sides` is measured `k`-th, so each side leads in turn and slow
/// drift (thermal, scheduler) spreads across all of them instead of biasing
/// one. Every wall-clock figure this crate reports is the
/// [`Side::median_min`] of one of these sides.
pub fn interleaved<O>(
    sides: usize,
    rounds: usize,
    samples: usize,
    mut f: impl FnMut(usize) -> O,
) -> Vec<Side> {
    let mut out: Vec<Side> = (0..sides).map(|_| Side::default()).collect();
    for r in 0..rounds {
        for k in 0..sides {
            let i = (k + r) % sides;
            out[i].push(measure(|| f(i), samples));
        }
    }
    out
}

/// The deterministic cost of one call of `op` on `subject`: the
/// [`pdo_ir::CostCounter::weighted_total`] units its runtime is charged for
/// the call, after one unmeasured call has warmed it.
pub fn warmed_units<T, O>(
    subject: &mut T,
    runtime: fn(&mut T) -> &mut Runtime,
    mut op: impl FnMut(&mut T) -> O,
) -> u64 {
    black_box(op(subject));
    runtime(subject).reset_cost();
    black_box(op(subject));
    runtime(subject).cost.weighted_total()
}

/// The overhead gates' dispatch workload: six handlers of `E`, each a
/// locked bump of one shared global.
fn build_module() -> (Module, EventId, Vec<FuncId>) {
    let mut m = Module::new();
    let e = m.add_event("E");
    let g = m.add_global("acc", Value::Int(0));
    let ids = (0..6)
        .map(|i| {
            let mut b = FunctionBuilder::new(format!("h{i}"), 1);
            b.lock(g);
            let v = b.load_global(g);
            let k = b.const_int(i as i64 + 1);
            let s = b.bin(BinOp::Add, v, k);
            b.store_global(g, s);
            b.unlock(g);
            b.ret(None);
            m.add_function(b.finish())
        })
        .collect();
    (m, e, ids)
}

fn runtime_for(m: &Module, e: EventId, hs: &[FuncId]) -> Runtime {
    let mut rt = Runtime::new(m.clone());
    for (i, &h) in hs.iter().enumerate() {
        rt.bind(e, h, i as i32).expect("bind");
    }
    rt
}

/// A runtime that dispatches `E` through its specialized fast path: six
/// handlers profiled, optimized and installed as one chain, with no sink
/// attached. `obs_gate` and `trace_gate` each attach the one they measure.
pub fn fastpath_runtime() -> (Runtime, EventId) {
    let (m, e, hs) = build_module();
    let mut prof_rt = runtime_for(&m, e, &hs);
    prof_rt.set_trace_config(TraceConfig::full());
    for _ in 0..100 {
        prof_rt.raise(e, RaiseMode::Sync, &[Value::Unit]).unwrap();
    }
    let profile = Profile::from_trace(&prof_rt.take_trace(), 50);
    let opt = optimize(&m, prof_rt.registry(), &profile, &OptimizeOptions::new(50));
    let mut rt = runtime_for(&opt.module, e, &hs);
    opt.install_chains(&mut rt);
    (rt, e)
}

/// Formats a ratio as the paper's `(%)` columns: optimized as a percentage
/// of original.
pub fn percent(optimized: f64, original: f64) -> f64 {
    if original == 0.0 {
        100.0
    } else {
        optimized * 100.0 / original
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn allocs_per_call_counts_this_threads_blocks() {
        assert_eq!(allocs_per_call(|| Box::new(7u64)), 1.0);
        assert_eq!(allocs_per_call(|| vec![Box::new(1u8), Box::new(2u8)]), 3.0);
        assert_eq!(allocs_per_call(|| 7u64), 0.0);
    }

    /// The IR text codec builds only the state it returns (DESIGN.md §14):
    /// parsing the CTP program's text allocates what a clone of the parsed
    /// module does (163 blocks), plus at most `SLACK`. What a clone does
    /// not pay is a constant of the module, not of its length: the
    /// function-name table, the growth of the declaration vectors and of
    /// the parser's two staging vectors, and one `Arc` per byte-string or
    /// string literal (a clone shares those). 18 when this was set.
    #[test]
    fn parsing_a_module_allocates_about_what_cloning_it_does() {
        use pdo_ir::{display::print_module, parse::parse_module};

        const SLACK: f64 = 24.0;
        let text = print_module(&pdo_ctp::ctp_program().module);
        let parsed = parse_module(&text).unwrap();
        let clone = allocs_per_call(|| parsed.clone());
        let parse = allocs_per_call(|| parse_module(&text).unwrap());
        println!("CTP program: parse {parse} allocations, clone {clone}");
        assert!(parse <= clone + SLACK, "parse {parse}, clone {clone}");
    }

    /// The module memo of the snapshot codec (DESIGN.md §14) helps fleets
    /// whose sessions share programs. This is the other fleet: 48 plain
    /// sessions over 48 *distinct* modules, where every lookup misses. One
    /// snapshot + restore into a fresh server allocated 3 702 times per
    /// cycle before the memo existed (EXPERIMENTS.md "Control plane in
    /// half") and 1 251 once modules were printed and parsed without
    /// scratch (EXPERIMENTS.md "Snapshot path in place"); the bound is the
    /// latter plus 3 %.
    #[test]
    fn distinct_module_fleet_pays_nothing_for_the_module_memo() {
        use pdo_events::RuntimeConfig;
        use pdo_ir::{BinOp, FunctionBuilder, Module, RaiseMode, Value};
        use pdo_server::{Server, ServerConfig};

        const BUDGET: f64 = 1290.0;
        let mut server = Server::new(ServerConfig::default());
        for step in 1..=48 {
            let mut m = Module::new();
            let tick = m.add_event("Tick");
            let g = m.add_global("count", Value::Int(0));
            let mut fb = FunctionBuilder::new("bump", 0);
            let v = fb.load_global(g);
            let k = fb.const_int(step);
            let sum = fb.bin(BinOp::Add, v, k);
            fb.store_global(g, sum);
            fb.ret(None);
            let bump = m.add_function(fb.finish());
            let id = server
                .open_session(m, RuntimeConfig::default(), &[(tick, bump, 0)])
                .unwrap();
            server.raise(id, tick, RaiseMode::Sync, &[]).unwrap();
        }
        let allocs = allocs_per_call(|| {
            let image = server.snapshot_to_bytes();
            let mut fresh = Server::new(ServerConfig::default());
            assert_eq!(fresh.restore_from_bytes(&image).unwrap().len(), 48);
            image.len()
        });
        println!("distinct-module fleet: {allocs} allocations per snapshot + restore");
        assert!(allocs <= BUDGET, "{allocs} allocations");
    }

    /// One payload, one block (DESIGN.md §17 "Byte values and payload
    /// sharing"). Counts per operation after warm-up, with what each read
    /// before payloads were shared (PR 19, this test on that commit) — a
    /// `to_vec()` or a `Value::bytes(<Vec>)` creeping back onto a
    /// per-event path shows up here as a whole number.
    #[test]
    fn payloads_cost_one_block_and_queued_raises_none() {
        use pdo_events::{CompiledChain, Guard, Runtime};
        use pdo_ir::{FunctionBuilder, Module, RaiseMode, Value};
        use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_FULL};

        // A video frame on an optimized endpoint: one controller period of
        // timers, then `send`. What is left is `send`'s copy of the
        // caller's slice and the parity byte's `bnew` + `bcat`. 17.3 before.
        let lab = video::VideoLab::prepare(video::THRESHOLD);
        let mut e = lab.endpoint(true);
        let period = video::video_params().clk_period_ns;
        let frame = vec![0xA5u8; 470];
        let mut now = e.clock_ns();
        let per_frame = allocs_per_call(|| {
            now += period;
            e.run_until(now).expect("timers");
            e.send(&frame).expect("send");
        });
        println!("video frame: {per_frame} allocations");
        assert!(per_frame <= 5.0, "{per_frame} allocations per frame");

        // A 1 KiB SecComm push, full configuration, generic lane: the
        // argument, its marshaled copy, one block per transform (DES, XOR,
        // MAC) and the `Vec` handed back to the caller. 12 before.
        let full = seccomm_protocol()
            .instantiate(CONFIG_FULL)
            .expect("full config");
        let mut ep = Endpoint::new(&full, &Keys::default()).expect("endpoint");
        let msg = vec![0x3Cu8; 1024];
        let per_push = allocs_per_call(|| ep.push(&msg).expect("push"));
        println!("1 KiB push: {per_push} allocations");
        assert!(per_push <= 12.0 - 4.0, "{per_push} allocations per push");

        // A queued and a timed raise of one integer through a compiled
        // chain: the argument lists come from the scheduler's spares. 2
        // before.
        let mut m = Module::new();
        let tick = m.add_event("Tick");
        let g = m.add_global("last", Value::Int(0));
        let mut fb = FunctionBuilder::new("keep", 1);
        fb.store_global(g, fb.param(0));
        fb.ret(None);
        let keep = m.add_function(fb.finish());
        let mut rt = Runtime::new(m);
        rt.bind(tick, keep, 0).expect("bind");
        rt.install_chain(CompiledChain {
            head: tick,
            guards: vec![Guard::capture(rt.registry(), tick)],
            func: keep,
            params: 1,
        });
        let per_pair = allocs_per_call(|| {
            rt.raise(tick, RaiseMode::Async, &[Value::Int(1)])
                .expect("async raise");
            rt.raise(tick, RaiseMode::Timed, &[Value::Int(10), Value::Int(2)])
                .expect("timed raise");
            rt.run_until_idle().expect("dispatch")
        });
        assert_eq!(rt.global(g), &Value::Int(2));
        assert_eq!(per_pair, 0.0, "allocations per async + timed raise");
    }

    /// Beside every per-event time sits the deterministic cost of one
    /// operation, and optimization lowers it in every row of Figs 11-13.
    #[test]
    fn optimized_costs_fewer_units_in_every_per_event_row() {
        let video = video::VideoLab::prepare(video::THRESHOLD);
        let fig11: Vec<_> = video::fig11_rows(&video, 1)
            .into_iter()
            .map(|r| (r.event, r.orig_units, r.opt_units))
            .collect();
        let fig12 = secc::fig12_rows(&secc::SecLab::prepare(50), 1)
            .into_iter()
            .flat_map(|r| {
                [
                    (
                        format!("push {}", r.size),
                        r.push_orig_units,
                        r.push_opt_units,
                    ),
                    (format!("pop {}", r.size), r.pop_orig_units, r.pop_opt_units),
                ]
            });
        let fig13 = xcli::fig13_rows(&xcli::XLab::prepare(100), 1)
            .into_iter()
            .map(|r| (r.event, r.orig_units, r.opt_units));
        let rows: Vec<_> = fig11.into_iter().chain(fig12).chain(fig13).collect();
        assert_eq!(rows.len(), 3 + 2 * secc::SIZES.len() + 2);
        for (row, orig, opt) in rows {
            assert!(opt < orig, "{row}: {orig} -> {opt} units");
        }
    }

    #[test]
    fn percent_basics() {
        assert!((percent(50.0, 100.0) - 50.0).abs() < 1e-9);
        assert_eq!(percent(1.0, 0.0), 100.0);
    }

    #[test]
    fn side_summarizes_rounds() {
        let mut side = Side::default();
        for min_ns in [30.0, 10.0, 20.0] {
            side.push(Measurement {
                min_ns,
                mean_ns: min_ns + 1.0,
                ci95_ns: 0.0,
            });
        }
        assert_eq!(side.median_min(), 20.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean_ci(&[5.0]), (5.0, 0.0));
        let (mean, ci) = mean_ci(&[11.0, 21.0, 31.0]);
        assert!((mean - 21.0).abs() < 1e-9 && ci > 0.0);
        assert!(side
            .json()
            .starts_with("{ \"median_min_ns\": 20.00, \"mean_ns\": 21.00,"));
    }

    #[test]
    fn interleaved_rotates_which_side_leads() {
        // Which side each `measure` call timed, in call order: every call
        // runs `f` the same number of times.
        let order = |sides: usize| {
            let mut calls = Vec::new();
            let timed = interleaved(sides, 4, 3, |i| calls.push(i));
            assert!(timed.iter().all(|side| side.round_mins().len() == 4));
            let per_measure = calls.len() / (sides * 4);
            calls.into_iter().step_by(per_measure).collect::<Vec<_>>()
        };
        // Two sides alternate which goes first.
        assert_eq!(order(2), [0, 1, 1, 0, 0, 1, 1, 0]);
        // Three rotate: round `r` runs sides `r`, `r + 1`, `r + 2` mod 3.
        assert_eq!(order(3), [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
    }
}
