//! Thread-per-shard scaling benchmark: the committed evidence for the
//! parallel server and the specialization cache.
//!
//! Two experiments, one machine-readable artifact (`BENCH_server_scaling.json`):
//!
//! 1. **Shard scaling.** A fixed, fully deterministic workload (8 adaptive
//!    sessions × bursts of 2 000 timed events) is driven through the server
//!    over a grid of `(shards, threads)` configurations. Each cell reports
//!    wall-clock mean ± 95% CI. Because wall-clock parallel speedup is
//!    physically unobservable on a single-core host, every threaded cell
//!    also reports a *projected* speedup from the per-shard `busy_ns`
//!    critical path: projected wall = (measured wall − Σ busy) + maxᵥ Σ
//!    busy over worker w's shards — i.e. the coordinator's serial overhead
//!    plus the longest worker chain, the time the same run takes once each
//!    worker has its own core. `host_cores` is recorded so readers can tell
//!    which number applies to their machine.
//!
//! 2. **Cache effectiveness.** A two-phase oscillating workload (event A
//!    hot, then B hot, repeated) forces the adaptation daemon to re-profile
//!    at every phase flip. With `chain_cache: 8` every flip after the first
//!    cycle is a cache hit (the phase's shape was seen before); with
//!    `chain_cache: 0` every flip pays the full optimizer. The artifact
//!    commits the median per-reprofile wall-ns of both runs.
//!
//! Gates: projected speedup at 4 shards × 4 threads ≥ 1.8× over the same
//! shards on one thread, and cached re-specialization ≥ 5× cheaper than
//! uncached (medians). Exits nonzero if either gate fails.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_bench::{mean_ci, median};
use pdo_events::RuntimeConfig;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_server::{Server, ServerConfig, SessionId};
use std::time::Instant;

const SESSIONS: usize = 8;
const BURST: u64 = 2_000;
/// Event spacing within a burst (ns of virtual time).
const SPACING: u64 = 100;
/// Measured rounds per grid cell (mean ± CI taken across them).
const ROUNDS: usize = 9;
/// The scaling grid: every (shards, threads) cell measured.
const GRID: [(usize, usize); 5] = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 4)];
/// Minimum projected speedup of (4,4) over (4,1).
const SCALING_GATE: f64 = 1.8;
/// Minimum uncached/cached median-reprofile ratio.
const CACHE_GATE: f64 = 5.0;

/// The scaling workload's session: one hot event, three chained handlers.
fn session_module() -> (Module, EventId, Vec<(EventId, FuncId, i32)>) {
    let mut m = Module::new();
    let e = m.add_event("Work");
    let g = m.add_global("acc", Value::Int(0));
    let mut binds = Vec::new();
    for k in 0..3i64 {
        let mut b = FunctionBuilder::new(format!("h{k}"), 0);
        b.lock(g);
        let v = b.load_global(g);
        let d = b.const_int(k + 1);
        let s = b.bin(BinOp::Add, v, d);
        b.store_global(g, s);
        b.unlock(g);
        b.ret(None);
        let f = m.add_function(b.finish());
        binds.push((e, f, k as i32));
    }
    (m, e, binds)
}

/// Steady-state adaptation config shared by every grid cell.
fn steady_adapt() -> AdaptConfig {
    AdaptConfig {
        epoch_ns: 100_000,
        min_fresh_events: 64,
        opts: OptimizeOptions::new(50),
        trace_sleep_epochs: 49,
        ..Default::default()
    }
}

/// One burst into every session, then drain the whole server.
fn drive(server: &mut Server, sids: &[SessionId], e: EventId) {
    let start = server.with_runtime(sids[0], |rt| rt.clock_ns()).unwrap();
    let delays: Vec<u64> = (0..BURST).map(|i| i * SPACING + 1).collect();
    for &sid in sids {
        server.submit_batch(sid, e, &delays).unwrap();
    }
    server.run_until(start + BURST * SPACING + 1).unwrap();
}

struct Cell {
    shards: usize,
    threads: usize,
    mean_ns: f64,
    ci95_ns: f64,
    events_per_sec: f64,
    busy_total_ns: u64,
    busy_max_worker_ns: u64,
    projected_wall_ns: f64,
}

/// Measures one grid cell: warm to convergence, then `ROUNDS` timed
/// bursts, with the per-shard busy-ns delta captured across exactly the
/// measured window.
fn measure_cell(shards: usize, threads: usize) -> Cell {
    let (m, e, binds) = session_module();
    let mut server = Server::new(ServerConfig {
        shards,
        threads,
        adapt: steady_adapt(),
    });
    let sids: Vec<SessionId> = (0..SESSIONS)
        .map(|_| {
            server
                .open_session(m.clone(), RuntimeConfig::default(), &binds)
                .unwrap()
        })
        .collect();
    // Warm past adaptation convergence so measurement sees steady state.
    for _ in 0..3 {
        drive(&mut server, &sids, e);
    }
    for &sid in &sids {
        assert!(
            server
                .with_runtime(sid, move |rt| rt.spec().get(e).is_some())
                .unwrap(),
            "warmup must converge every session"
        );
    }

    let busy_before: Vec<u64> = server.shard_loads().iter().map(|l| l.busy_ns).collect();
    let mut walls = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        drive(&mut server, &sids, e);
        walls.push(t0.elapsed().as_nanos() as f64);
    }
    let busy: Vec<u64> = server
        .shard_loads()
        .iter()
        .zip(&busy_before)
        .map(|(l, b)| l.busy_ns - b)
        .collect();

    let workers = threads.min(shards).max(1);
    let mut per_worker = vec![0u64; workers];
    for (i, b) in busy.iter().enumerate() {
        per_worker[i % workers] += b;
    }
    let busy_total: u64 = busy.iter().sum();
    let busy_max_worker = per_worker.iter().copied().max().unwrap_or(0);

    let (mean_ns, ci95_ns) = mean_ci(&walls);
    let total_wall: f64 = walls.iter().sum();
    // Serial remainder (coordinator, channels, placement) + the longest
    // worker's busy chain = the run's wall time once workers have their
    // own cores. On a multi-core host this converges to the measurement.
    let projected_wall_ns =
        ((total_wall - busy_total as f64).max(0.0) + busy_max_worker as f64) / ROUNDS as f64;
    let events = (SESSIONS as u64 * BURST * ROUNDS as u64) as f64;
    Cell {
        shards,
        threads,
        mean_ns,
        ci95_ns,
        events_per_sec: events / (total_wall / 1e9),
        busy_total_ns: busy_total,
        busy_max_worker_ns: busy_max_worker,
        projected_wall_ns,
    }
}

/// The cache workload's session: two events, four handlers each, so the
/// optimizer has real work to do on every uncached re-specialization.
fn two_event_module() -> (Module, [EventId; 2], Vec<(EventId, FuncId, i32)>) {
    let mut m = Module::new();
    let a = m.add_event("A");
    let b = m.add_event("B");
    let ga = m.add_global("acc_a", Value::Int(0));
    let gb = m.add_global("acc_b", Value::Int(0));
    let mut binds = Vec::new();
    for (ev, g, tag) in [(a, ga, "a"), (b, gb, "b")] {
        for k in 0..4i64 {
            let mut fb = FunctionBuilder::new(format!("{tag}{k}"), 0);
            let v = fb.load_global(g);
            let d = fb.const_int(k + 1);
            let o = fb.bin(BinOp::Add, v, d);
            fb.store_global(g, o);
            fb.ret(None);
            binds.push((ev, m.add_function(fb.finish()), k as i32));
        }
    }
    (m, [a, b], binds)
}

struct CacheRun {
    median_reprofile_ns: f64,
    reprofiles: u64,
    hits: u64,
    misses: u64,
}

/// Drives the oscillating two-phase workload with the given cache
/// capacity and reports the median per-reprofile wall cost.
fn measure_cache(capacity: usize) -> CacheRun {
    let (m, [a, b], binds) = two_event_module();
    let mut server = Server::new(ServerConfig {
        shards: 1,
        threads: 1,
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: OptimizeOptions::new(10),
            chain_cache: capacity,
            ..Default::default()
        },
    });
    let sid = server
        .open_session(m, RuntimeConfig::default(), &binds)
        .unwrap();
    let mut deadline = 0u64;
    for phase in 0..24 {
        let hot = if phase % 2 == 0 { a } else { b };
        let delays: Vec<u64> = (0..80).map(|i| i * SPACING + 1).collect();
        server.submit_batch(sid, hot, &delays).unwrap();
        deadline += 80 * SPACING + 1;
        server.run_until(deadline).unwrap();
    }
    let median_reprofile_ns = server
        .with_engine(sid, |eng| eng.reprofile_wall_ns().quantile(0.5))
        .unwrap() as f64;
    let stats = server.engine_stats(sid).unwrap();
    CacheRun {
        median_reprofile_ns,
        reprofiles: stats.reprofiles,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_server_scaling.json".into());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let cells: Vec<Cell> = GRID
        .iter()
        .map(|&(s, t)| {
            let c = measure_cell(s, t);
            println!(
                "{}x{}: wall {:.2} ms ± {:.2}, {:.0} events/s, \
                 busy {:.2} ms (max worker {:.2} ms), projected {:.2} ms",
                s,
                t,
                c.mean_ns / 1e6,
                c.ci95_ns / 1e6,
                c.events_per_sec,
                c.busy_total_ns as f64 / 1e6,
                c.busy_max_worker_ns as f64 / 1e6,
                c.projected_wall_ns / 1e6,
            );
            c
        })
        .collect();

    let cell = |s: usize, t: usize| cells.iter().find(|c| c.shards == s && c.threads == t);
    let base = cell(4, 1).unwrap();
    let par = cell(4, 4).unwrap();
    let speedup_wall = base.mean_ns / par.mean_ns;
    let speedup_projected = base.mean_ns / par.projected_wall_ns;
    let scaling_basis = if host_cores >= 4 { "wall" } else { "projected" };
    let scaling_speedup = if host_cores >= 4 {
        speedup_wall
    } else {
        speedup_projected
    };
    let pass_scaling = scaling_speedup >= SCALING_GATE;

    let cached = measure_cache(8);
    let uncached = measure_cache(0);
    let mut cache_medians = Vec::new();
    // One interleaved re-measurement pair tightens the ratio against drift.
    for _ in 0..2 {
        cache_medians.push(measure_cache(8).median_reprofile_ns);
    }
    let cached_med = median(
        &mut [cached.median_reprofile_ns]
            .iter()
            .chain(cache_medians.iter())
            .copied()
            .collect::<Vec<_>>(),
    );
    let cache_ratio = uncached.median_reprofile_ns / cached_med.max(1.0);
    let pass_cache = cache_ratio >= CACHE_GATE;
    println!(
        "cache: median reprofile {:.0} ns cached (hits {} / misses {}) vs \
         {:.0} ns uncached ({} reprofiles) — {:.1}x",
        cached_med,
        cached.hits,
        cached.misses,
        uncached.median_reprofile_ns,
        uncached.reprofiles,
        cache_ratio,
    );

    let pass = pass_scaling && pass_cache;
    let grid_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"shards\": {}, \"threads\": {}, \"wall_mean_ns\": {:.0}, \
                 \"wall_ci95_ns\": {:.0}, \"events_per_sec\": {:.0}, \
                 \"busy_total_ns\": {}, \"busy_max_worker_ns\": {}, \
                 \"projected_wall_ns\": {:.0} }}",
                c.shards,
                c.threads,
                c.mean_ns,
                c.ci95_ns,
                c.events_per_sec,
                c.busy_total_ns,
                c.busy_max_worker_ns,
                c.projected_wall_ns,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"server/scaling/{SESSIONS}x{BURST}\",\n  \
         \"host_cores\": {host_cores},\n  \"rounds\": {ROUNDS},\n  \
         \"grid\": [\n{}\n  ],\n  \
         \"speedup_wall_4x4_vs_4x1\": {speedup_wall:.3},\n  \
         \"speedup_projected_4x4_vs_4x1\": {speedup_projected:.3},\n  \
         \"scaling_basis\": \"{scaling_basis}\",\n  \
         \"scaling_gate\": {SCALING_GATE},\n  \"pass_scaling\": {pass_scaling},\n  \
         \"cache\": {{ \"median_reprofile_ns_cached\": {cached_med:.0}, \
         \"median_reprofile_ns_uncached\": {:.0}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \
         \"uncached_reprofiles\": {}, \"ratio\": {cache_ratio:.2}, \
         \"gate\": {CACHE_GATE}, \"pass_cache\": {pass_cache} }},\n  \
         \"pass\": {pass}\n}}\n",
        grid_json.join(",\n"),
        uncached.median_reprofile_ns,
        cached.hits,
        cached.misses,
        uncached.reprofiles,
    );
    std::fs::write(&out, &json).expect("write BENCH_server_scaling.json");
    print!("{json}");
    if !pass {
        eprintln!(
            "server scaling gate FAILED: scaling {scaling_speedup:.2}x \
             ({scaling_basis}, gate {SCALING_GATE}) cache {cache_ratio:.2}x \
             (gate {CACHE_GATE})"
        );
        std::process::exit(1);
    }
    println!(
        "server scaling passed: {scaling_speedup:.2}x {scaling_basis} scaling, \
         {cache_ratio:.2}x cheaper cached re-specialization"
    );
}
