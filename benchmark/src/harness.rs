//! Drives a workload through set-up, warm-up, measured slices and output
//! checks, and turns what it did into the declared metrics.
//!
//! Estimator. This host slows a program down in phases that last from a
//! millisecond to most of a minute, by anything up to a half, and never
//! speeds it up: over ten runs the median of a run's slice rates spread by
//! 12-26 % of its own median on every closed-loop workload, the fastest
//! slice by 1-8 % (README, "Estimator"). So a run is cut into 50 ms
//! slices, each long enough to hold the program's own periodic work
//! (tens of epochs, a dozen rebinds), and a timing metric is the run's
//! **best slice**: `ops_per_s` the highest per-slice rate, `rtt_p50_us`
//! the lowest per-slice exact p50, `setup_s` the fastest of the set-ups
//! timed before warm-up and between slices. A change that slows the
//! program slows its best slice too. Counts (`allocs_per_op`,
//! `cost_units_per_op`) are ratios of sums over the whole run: a stall
//! does not change them.

use crate::alloc::AllocSnapshot;
use crate::json::RunResult;
use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::stats::{max_of, median, min_of, percentile_u32};
use crate::workloads::{self, SliceOut, Workload};
use std::time::{Duration, Instant};

/// How a run is shaped. The driver's contract fixes `seconds`; the other
/// fields only change for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Measured seconds.
    pub seconds: f64,
    /// Slice length.
    pub slice: Duration,
    /// Minimum warm-up, discarded.
    pub warmup: Duration,
    /// Set-ups timed between the slices of one measuring pass, evenly
    /// spaced, so that they see every phase of the host the slices see.
    pub setups: usize,
}

impl Shape {
    /// The shape of a driver run of `seconds`.
    pub fn standard(seconds: f64) -> Shape {
        Shape {
            seconds,
            slice: Duration::from_millis(50),
            warmup: Duration::from_secs(2),
            setups: 24,
        }
    }

    /// The CI-sized shape: two short slices, a token warm-up.
    pub fn smoke() -> Shape {
        Shape {
            seconds: 0.5,
            slice: Duration::from_millis(250),
            warmup: Duration::from_millis(250),
            setups: 1,
        }
    }

    /// Slices that make up `share` of the measured seconds (at least two).
    pub fn slices(&self, share: f64) -> usize {
        ((self.seconds * share / self.slice.as_secs_f64()).round() as usize).max(2)
    }
}

/// Sums and per-slice estimates over a set of slices.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-slice operations per second of timed work.
    pub rates: Vec<f64>,
    /// Per-slice exact p50 of the latency samples, µs.
    pub p50s_us: Vec<f64>,
    /// Operations completed correctly.
    pub ops: u64,
    /// Time those operations took, ns.
    pub timed_ns: u64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Benchmark-thread allocations in timed regions.
    pub allocs: u64,
    /// Bytes those requested.
    pub alloc_bytes: u64,
    /// Other threads' allocations meanwhile.
    pub other_allocs: u64,
    /// Every latency sample, when pooling was asked for (traced pass).
    pub pool_lat: Vec<u32>,
    /// Every lateness sample, likewise.
    pub pool_late: Vec<u32>,
}

impl Measured {
    /// Operations per second: the best slice's rate, or for a workload
    /// `paced` by its own arrival schedule the rate over the whole run
    /// (its slices differ by how many arrivals fell in them, not by how
    /// fast they were served).
    pub fn ops_per_s(&self, paced: bool) -> f64 {
        if paced {
            self.ops as f64 * 1e9 / self.timed_ns.max(1) as f64
        } else {
            max_of(&self.rates)
        }
    }

    fn absorb(&mut self, out: &mut SliceOut, pool: bool) {
        if out.timed_ns > 0 {
            self.rates.push(out.ops as f64 * 1e9 / out.timed_ns as f64);
        }
        if pool {
            self.pool_lat.extend_from_slice(&out.lat_ns);
            self.pool_late.extend_from_slice(&out.late_ns);
        }
        if !out.lat_ns.is_empty() {
            self.p50s_us
                .push(percentile_u32(&mut out.lat_ns, 0.5) / 1e3);
        }
        self.ops += out.ops;
        self.timed_ns += out.timed_ns;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.allocs += out.allocs;
        self.alloc_bytes += out.alloc_bytes;
        self.other_allocs += out.other_allocs;
    }
}

/// A workload set up, warmed and ready to measure.
pub struct Ready {
    /// The workload's fixed name.
    pub name: String,
    /// The live workload.
    pub workload: Box<dyn Workload>,
    /// Every set-up timed so far, seconds; the first built `workload`.
    pub setup_times: Vec<f64>,
    /// Heap the workload holds after warm-up, MB.
    pub heap_live_mb: f64,
    /// Failures so far (warm-up that never specialized).
    pub failures: Vec<String>,
    seed: u64,
    out: SliceOut,
}

/// Sets `name` up from `seed`, then warms it up.
pub fn prepare(name: &str, seed: u64, shape: &Shape) -> Ready {
    // Sample buffers sized once, before anything is measured, so they are
    // neither part of the workload's heap nor grown inside a timed region.
    let mut out = SliceOut::default();
    out.lat_ns.reserve(1 << 20);
    out.late_ns.reserve(1 << 16);
    let live_before = AllocSnapshot::now().live;
    let t = Instant::now();
    let workload = workloads::build(name, seed);
    let mut ready = Ready {
        name: name.to_string(),
        workload,
        setup_times: vec![t.elapsed().as_secs_f64()],
        heap_live_mb: 0.0,
        failures: Vec::new(),
        seed,
        out,
    };

    let mut tr = Tracer::off();
    let started = Instant::now();
    let cap = shape.warmup * 3 + Duration::from_secs(2);
    loop {
        ready.out.clear();
        ready
            .workload
            .run_slice(shape.slice.min(shape.warmup), &mut tr, &mut ready.out);
        let warm = started.elapsed() >= shape.warmup && ready.workload.warmed();
        if warm {
            break;
        }
        if started.elapsed() >= cap {
            ready
                .failures
                .push("warm-up ended without the expected specialization".to_string());
            break;
        }
    }
    ready.heap_live_mb = (AllocSnapshot::now().live - live_before).max(0) as f64 / 1e6;
    ready
}

impl Ready {
    /// Runs one slice into `into`, recording spans into `tr` when `traced`
    /// and keeping every latency sample when `pool`.
    fn slice(
        &mut self,
        shape: &Shape,
        tr: &mut Tracer,
        traced: bool,
        pool: bool,
        into: &mut Measured,
    ) {
        tr.set_on(traced);
        if traced {
            tr.next_trace();
            tr.enter("bench", "slice");
        }
        self.out.clear();
        self.workload.run_slice(shape.slice, tr, &mut self.out);
        if traced {
            tr.exit(self.out.ops);
        }
        tr.set_on(false);
        into.absorb(&mut self.out, pool);
    }

    /// Reads the cost counters; call before the first measured slice.
    pub fn cost_units(&mut self) -> u64 {
        self.workload.cost_units()
    }

    /// Runs `n` untraced slices into `m`, timing `shape.setups` fresh
    /// set-ups of the same workload in the gaps between them.
    pub fn measure(&mut self, n: usize, shape: &Shape, m: &mut Measured) {
        let mut tr = Tracer::off();
        for i in 0..n {
            self.slice(shape, &mut tr, false, false, m);
            if (i + 1) * shape.setups / n > i * shape.setups / n {
                let t = Instant::now();
                let fresh = workloads::build(&self.name, self.seed);
                self.setup_times.push(t.elapsed().as_secs_f64());
                drop(fresh);
            }
        }
    }

    /// Ends the untraced pass: runs the output checks and turns `m` (and
    /// the cost counters' movement since `cost_before`) into the
    /// end-to-end metrics.
    pub fn finish_end_to_end(&mut self, m: &Measured, cost_before: u64) -> RunResult {
        let cost = self.workload.cost_units() - cost_before;
        self.failures.extend(self.workload.verify());
        let mut metrics = Metrics::new();
        let ops = m.ops.max(1) as f64;
        metrics.set("setup_s", min_of(&self.setup_times));
        metrics.set("ops_per_s", m.ops_per_s(self.workload.paced()));
        metrics.set("rtt_p50_us", min_of(&m.p50s_us));
        metrics.set("allocs_per_op", m.allocs as f64 / ops);
        metrics.set("alloc_bytes_per_op", m.alloc_bytes as f64 / ops);
        metrics.set("heap_live_mb", self.heap_live_mb);
        metrics.set("cost_units_per_op", cost as f64 / ops);
        RunResult {
            correct: self.failures.is_empty() && m.failed == 0 && m.ops > 0,
            attempted: m.attempted.max(1),
            failed: m.failed + self.failures.len() as u64,
            metrics: metrics.end_to_end_rows(),
        }
    }

    /// The whole untraced pass of a driver run: `shape.seconds` of slices,
    /// then [`Ready::finish_end_to_end`].
    pub fn end_to_end(&mut self, shape: &Shape) -> RunResult {
        let mut m = Measured::default();
        let cost_before = self.cost_units();
        self.measure(shape.slices(1.0), shape, &mut m);
        self.finish_end_to_end(&m, cost_before)
    }

    /// The traced pass: the full-stack rung with spans on alternate
    /// slices (the untraced ones give the overhead), output checks, then
    /// the workload's lower rungs. Returns the per-layer metrics and the
    /// tracer holding every span.
    pub fn per_layer(&mut self, shape: &Shape) -> (RunResult, Tracer) {
        let mut tr = Tracer::on();
        tr.set_on(false);
        let mut plain = Measured::default();
        let mut traced = Measured::default();
        for _ in 0..shape.slices(0.4).div_ceil(2) {
            self.slice(shape, &mut tr, false, true, &mut plain);
            self.slice(shape, &mut tr, true, true, &mut traced);
        }
        self.failures.extend(self.workload.verify());

        let mut metrics = Metrics::new();
        tr.set_on(true);
        self.workload.ladder(
            Duration::from_secs_f64(shape.seconds * 0.6),
            &mut tr,
            &mut metrics,
        );
        tr.set_on(false);

        let done = plain.ops + traced.ops;
        let ops = done.max(1);
        let attempted = (plain.attempted + traced.attempted).max(1);
        let failed = plain.failed + traced.failed + self.failures.len() as u64;
        let mut lat = std::mem::take(&mut plain.pool_lat);
        lat.extend_from_slice(&traced.pool_lat);
        let mut late = std::mem::take(&mut plain.pool_late);
        late.extend_from_slice(&traced.pool_late);
        metrics.set("client.samples", lat.len() as f64);
        metrics.set("client.rtt_p99_us", percentile_u32(&mut lat, 0.99) / 1e3);
        metrics.set("client.late_p99_us", percentile_u32(&mut late, 0.99) / 1e3);
        metrics.set(
            "ingress.acceptor_allocs_per_req",
            (plain.other_allocs + traced.other_allocs) as f64 / ops as f64,
        );
        let paced = self.workload.paced();
        let (untraced_rate, traced_rate) = (plain.ops_per_s(paced), traced.ops_per_s(paced));
        metrics.set(
            "bench.trace_overhead_frac",
            if untraced_rate > 0.0 {
                1.0 - traced_rate / untraced_rate
            } else {
                0.0
            },
        );
        metrics.set("bench.fail_frac", failed as f64 / attempted as f64);
        metrics.set("env.spin_ns", spin_ns());
        metrics.set(
            "env.host_cores",
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
        );
        let result = RunResult {
            correct: failed == 0 && done > 0,
            attempted,
            failed,
            metrics: metrics.per_layer_rows(),
        };
        (result, tr)
    }
}

/// Ns per iteration of a dependent multiply-add chain: how fast this core
/// is right now, independent of the program under test. Median of five
/// windows.
pub fn spin_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut windows = Vec::with_capacity(5);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..ITERS {
            // Opaque to the optimizer, or the chain folds to a closed form.
            x = std::hint::black_box(x)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        std::hint::black_box(x);
        windows.push(t.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    median(&windows)
}
