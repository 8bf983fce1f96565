//! Chain-cache gate: the committed evidence that the specialization
//! cache pays (`BENCH_chain_cache.json`).
//!
//! A two-phase oscillating workload (event A hot, then B hot, repeated)
//! forces the adaptation daemon to re-profile at every phase flip. With
//! `chain_cache: 8` every flip after the first cycle is a cache hit (the
//! phase's shape was seen before); with `chain_cache: 0` every flip pays
//! the full optimizer. The artifact commits the median per-reprofile
//! wall-ns of both runs.
//!
//! Gate: cached re-specialization ≥ 5× cheaper than uncached (medians).
//! Exits nonzero if the gate fails.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_bench::median;
use pdo_events::RuntimeConfig;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_server::{Server, ServerConfig};

/// Event spacing within a phase (ns of virtual time).
const SPACING: u64 = 100;
/// Minimum uncached/cached median-reprofile ratio.
const CACHE_GATE: f64 = 5.0;

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
        .unwrap_or_else(|| "BENCH_chain_cache.json".into());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

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
    let pass = cache_ratio >= CACHE_GATE;
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

    let json = format!(
        "{{\n  \"bench\": \"server/chain_cache/24x80\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"median_reprofile_ns_cached\": {cached_med:.0},\n  \
         \"median_reprofile_ns_uncached\": {:.0},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"uncached_reprofiles\": {},\n  \"ratio\": {cache_ratio:.2},\n  \
         \"gate\": {CACHE_GATE},\n  \"pass\": {pass}\n}}\n",
        uncached.median_reprofile_ns, cached.hits, cached.misses, uncached.reprofiles,
    );
    std::fs::write(&out, &json).expect("write BENCH_chain_cache.json");
    print!("{json}");
    if !pass {
        eprintln!("chain cache gate FAILED: {cache_ratio:.2}x (gate {CACHE_GATE})");
        std::process::exit(1);
    }
    println!("chain cache gate passed: {cache_ratio:.2}x cheaper cached re-specialization");
}
