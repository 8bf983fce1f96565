//! Causal-tracing overhead gate: proves the `pdo-obs` trace layer is
//! near-free when off and cheap when on.
//!
//! Times the same synthetic fast-path dispatch workload on three
//! identical runtimes — no trace store attached (`Runtime.tracer ==
//! None`, a single `Option` check on the hot path), a store attached but
//! disabled (the deployment default: one `Cell` load more), and tracing
//! fully enabled (every raise and dispatch records a ring span) — in
//! interleaved rounds so machine drift hits all sides equally. The
//! headline statistics are the ratios of the medians of the per-round
//! minimum batch averages; the gate fails if attached-but-disabled costs
//! more than [`GATE_OFF`] (2%) or enabled more than [`GATE_ON`] (10%)
//! over the no-store baseline.
//!
//! Writes `BENCH_trace.json` (mean, 95% CI, and both ratios — the
//! machine-readable artifact CI checks in) to the path given as the
//! first argument, default `BENCH_trace.json` in the working directory,
//! and exits nonzero when either gate fails.

use pdo_bench::{fastpath_runtime, interleaved};
use pdo_ir::{RaiseMode, Value};
use pdo_obs::trace::TraceStore;
use std::hint::black_box;

/// Maximum tolerated attached-but-disabled / no-store ratio.
const GATE_OFF: f64 = 1.02;

/// Maximum tolerated tracing-on / no-store ratio.
const GATE_ON: f64 = 1.10;

/// Interleaved measurement rounds per side (median taken across them).
const ROUNDS: usize = 9;

/// Batch-average samples per round (passed to [`interleaved`]).
const SAMPLES: usize = 10;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace.json".into());

    // No store attached: the pre-tracing hot path.
    let (none_rt, e) = fastpath_runtime();
    // Store attached but disabled: the deployment default, one
    // enabled-check more.
    let (mut off_rt, _) = fastpath_runtime();
    let store = TraceStore::new(0);
    store.set_enabled(false);
    off_rt.set_tracer(store);
    // Recording every raise and dispatch.
    let (mut on_rt, _) = fastpath_runtime();
    on_rt.enable_tracing();
    assert!(none_rt.tracer().is_none(), "baseline must have no store");
    assert!(
        off_rt.tracer().is_some_and(|t| !t.enabled()),
        "off side must be attached but disabled"
    );
    assert!(
        on_rt.tracer().is_some_and(TraceStore::enabled),
        "on side must record"
    );

    let mut rts = [none_rt, off_rt, on_rt];
    let sides = interleaved(3, ROUNDS, SAMPLES, |i| {
        rts[i]
            .raise(black_box(e), RaiseMode::Sync, &[Value::Unit])
            .unwrap()
    });

    let base = sides[0].median_min();
    let ratio_off = sides[1].median_min() / base;
    let ratio_on = sides[2].median_min() / base;
    let pass = ratio_off <= GATE_OFF && ratio_on <= GATE_ON;
    let json = format!(
        "{{\n  \"bench\": \"dispatch/fastpath/6+trace\",\n  \"rounds\": {ROUNDS},\n  \
         \"tracing_none\": {},\n  \"tracing_attached_off\": {},\n  \"tracing_on\": {},\n  \
         \"off_ratio\": {ratio_off:.4},\n  \"on_ratio\": {ratio_on:.4},\n  \
         \"gate_off\": {GATE_OFF},\n  \"gate_on\": {GATE_ON},\n  \"pass\": {pass}\n}}\n",
        sides[0].json(),
        sides[1].json(),
        sides[2].json(),
    );
    std::fs::write(&out, &json).expect("write BENCH_trace.json");
    print!("{json}");
    if !pass {
        eprintln!(
            "trace gate FAILED: attached-off ratio {ratio_off:.4} (gate {GATE_OFF}), \
             on ratio {ratio_on:.4} (gate {GATE_ON})"
        );
        std::process::exit(1);
    }
    println!(
        "trace gate passed: attached-off ratio {ratio_off:.4} <= {GATE_OFF}, \
         on ratio {ratio_on:.4} <= {GATE_ON}"
    );
}
