//! Observability overhead gate: proves the `pdo-obs` dispatch
//! instrumentation is near-free.
//!
//! Times the same synthetic fast-path dispatch workload on two identical
//! runtimes — one with metrics off (`Runtime.obs == None`, a single
//! `Option` check on the hot path) and one with a live [`pdo_obs::ObsHub`]
//! recording per-event latency histograms — in interleaved rounds so
//! machine drift hits both sides equally. The headline statistic is the
//! ratio of the medians of the per-round minimum batch averages (the
//! shim's robust number); the gate fails if metrics-on costs more than
//! [`GATE`] (5%) over metrics-off.
//!
//! Writes `BENCH_dispatch.json` (mean, 95% CI, and on/off ratio — the
//! machine-readable artifact CI checks in) to the path given as the first
//! argument, default `BENCH_dispatch.json` in the working directory, and
//! exits nonzero when the gate fails.

use pdo_bench::{fastpath_runtime, interleaved};
use pdo_ir::{RaiseMode, Value};
use std::hint::black_box;

/// Maximum tolerated metrics-on/metrics-off ratio.
const GATE: f64 = 1.05;

/// Interleaved measurement rounds per side (median taken across them).
const ROUNDS: usize = 9;

/// Batch-average samples per round (passed to [`interleaved`]).
const SAMPLES: usize = 10;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dispatch.json".into());

    let (off_rt, e) = fastpath_runtime();
    let (mut on_rt, _) = fastpath_runtime();
    on_rt.enable_observability();
    assert!(
        off_rt.obs().is_none(),
        "metrics-off runtime must have no hub"
    );
    assert!(on_rt.obs().is_some(), "metrics-on runtime must have a hub");

    let mut rts = [off_rt, on_rt];
    let sides = interleaved(2, ROUNDS, SAMPLES, |i| {
        rts[i]
            .raise(black_box(e), RaiseMode::Sync, &[Value::Unit])
            .unwrap()
    });
    let (off_side, on_side) = (&sides[0], &sides[1]);

    let (off_json, on_json) = (off_side.json(), on_side.json());
    let ratio = on_side.median_min() / off_side.median_min();
    let pass = ratio <= GATE;
    let json = format!(
        "{{\n  \"bench\": \"dispatch/fastpath/6\",\n  \"rounds\": {ROUNDS},\n  \
         \"metrics_off\": {off_json},\n  \"metrics_on\": {on_json},\n  \
         \"on_off_ratio\": {ratio:.4},\n  \"gate\": {GATE},\n  \"pass\": {pass}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_dispatch.json");
    print!("{json}");
    if !pass {
        eprintln!("obs gate FAILED: on/off ratio {ratio:.4} > {GATE}");
        std::process::exit(1);
    }
    println!("obs gate passed: on/off ratio {ratio:.4} <= {GATE}");
}
