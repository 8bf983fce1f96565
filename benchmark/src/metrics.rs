//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--manifest`) and a
//! unit test keeps the committed file equal to them.

use crate::json::{escape, number, valid_name};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one driver run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 10;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: fixed name plus the one-line reason it exists.
pub struct WorkloadDecl {
    /// Fixed name (`--workload`).
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// The six workloads, in the order the full run interleaves them.
pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "wire_plain",
        why: "closed loop, 32 clients x 1 sync raise over 2 TCP connections, ~1 us handlers: framing, admission, queue hop and reply path dominate",
    },
    WorkloadDecl {
        name: "wire_seccomm",
        why: "open loop, Poisson 2000 req/s of 1 KiB SecComm pushes over the same wire: interpreter and crypto natives dominate, ingress-only changes must not move it",
    },
    WorkloadDecl {
        name: "video_play",
        why: "in-process paper flow: profile CTP video session, optimize at T=300, play at 25 fps: timers, sync+async dispatch and interpreter with no server in the way",
    },
    WorkloadDecl {
        name: "rebind_churn",
        why: "inline server, hot handler swapped A/B every ~4096 raises: guard misses, slow lane, despecialize, reprofile and chain-cache cost of specialization",
    },
    WorkloadDecl {
        name: "timer_storm",
        why: "inline server holding 100000 live timers, ~100 fired and re-armed per 1 ms step: scheduler-dominated arm+fire cost",
    },
    WorkloadDecl {
        name: "control_plane",
        why: "rare expensive operations: profile from trace, optimize, snapshot a 48-session mixed fleet, restore it into a fresh server",
    },
];

/// An end-to-end metric: what a user of the system sees. Reported for
/// every workload by the untraced pass.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (see README, "Bounds").
    pub bound: f64,
    /// One line on why it exists.
    pub why: &'static str,
}

/// End-to-end metrics. Every one is defined, and never 0, on every
/// workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "programs built, listeners bound, sessions opened, timers armed (fastest of 25 set-ups spread over the run); work moved out of the measured region shows here",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        why: "operations completed per second of measured time: the run's best 50 ms slice (the whole run's rate on the open-loop workload)",
    },
    EndToEnd {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        why: "issue-to-result time of one operation: send-or-due to decoded reply on wire_*, call to return in process; the lowest exact per-slice p50",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        why: "heap allocations on the benchmark/engine thread per operation (counting global allocator)",
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        why: "bytes requested from the allocator on the benchmark/engine thread per operation",
    },
    EndToEnd {
        name: "heap_live_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        why: "live heap the workload's state holds after set-up and warm-up",
    },
    EndToEnd {
        name: "cost_units_per_op",
        unit: "units",
        better: Better::Lower,
        bound: 0.05,
        why: "CostCounter::weighted_total delta per operation: the program's own deterministic work count, immune to host noise",
    },
];

/// A per-layer metric: one crate's share, from the traced pass.
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What is measured, in one line.
    pub what: &'static str,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

const WIRE_PLAIN: &str = "ops_per_s, rtt_p50_us on wire_plain; flat on wire_seccomm and in-process";
const SERVER: &str = "ops_per_s on wire_plain, rebind_churn, timer_storm";
const EVENTS: &str =
    "ops_per_s on video_play, rebind_churn, timer_storm; rtt_p50_us on wire_seccomm";
const ADAPT: &str = "ops_per_s on rebind_churn";
const COMPILE: &str = "ops_per_s on control_plane; cost_units_per_op on video_play";
const IR: &str = "ops_per_s, allocs_per_op on video_play; rtt_p50_us on wire_seccomm; flat on wire_plain, timer_storm";
const CTP: &str = "ops_per_s on video_play";
const SECCOMM: &str = "rtt_p50_us on wire_seccomm";
const TIMERS: &str = "ops_per_s on timer_storm";
const SNAP: &str = "ops_per_s on control_plane";
const DIAG: &str = "diagnostic";

/// Per-layer metrics, reported for every workload by the traced pass; a
/// metric that does not apply to a workload reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    pl("client.rtt_p99_us", "us", Lower, "exact p99 of send-or-due to decoded reply over every sample of the pass; 1.9-48 ms run to run, so no bound", DIAG),
    pl("client.late_p99_us", "us", Lower, "open loop: p99 of how long after its due time a request left the generator", DIAG),
    pl("client.send_recv_ns_per_req", "ns", Lower, "generator time in socket writes, reads and reply decoding per request", DIAG),
    pl("client.samples", "count", Higher, "latency samples behind the client.* percentiles", DIAG),
    pl("ingress.drive_ns_per_req", "ns", Lower, "time in Ingress::drive per request drained", WIRE_PLAIN),
    pl("ingress.self_ns_per_req", "ns", Lower, "drive minus server.raise_ns: framing, admission, queue hop, reply path", WIRE_PLAIN),
    pl("ingress.epoch_ns_per_req", "ns", Lower, "time in Ingress::maybe_epoch spread over the requests served", WIRE_PLAIN),
    pl("ingress.epoch_max_ms", "ms", Lower, "longest single epoch advance: the stall every queued request waits out", "client.rtt_p99_us on wire_*"),
    pl("ingress.codec_ns_per_frame", "ns", Lower, "standalone proto encode + FrameBuffer::next_frame + decode of the workload's own request and reply", WIRE_PLAIN),
    pl("ingress.wire_bytes_per_req", "B", Lower, "bytes read plus written on the sockets per reply (the ingress's own counters)", WIRE_PLAIN),
    pl("ingress.admit_to_reply_p50_us", "us", Lower, "p50 of the ingress's exported admit-to-reply histogram (12.5 % buckets)", WIRE_PLAIN),
    pl("ingress.shed_frac", "frac", Lower, "requests shed of requests offered; any shed request is a failure here", "failed on wire_*"),
    pl("ingress.allocs_per_req", "count", Lower, "engine-thread allocations inside Ingress::drive per request", "allocs_per_op on wire_*"),
    pl("ingress.acceptor_allocs_per_req", "count", Lower, "acceptor-thread allocations per request; follows how often it spun, not what it did", DIAG),
    pl("server.raise_ns", "ns", Lower, "Server::raise per call on the workload's own stream, no wire (timer_storm: run_until + submit_batch per timer)", SERVER),
    pl("server.self_ns", "ns", Lower, "server.raise_ns minus events.raise_ns: placement lookup, shard hop, hub", SERVER),
    pl("server.run_until_ns_per_epoch", "ns", Lower, "Server::run_until per 1 ms virtual epoch, adaptation daemons included", SERVER),
    pl("server.arm_ns_per_timer", "ns", Lower, "Server::submit_batch per timer armed", TIMERS),
    pl("server.fire_ns_per_timer", "ns", Lower, "Server::run_until per timer fired", TIMERS),
    pl("server.fast_lane_frac", "frac", Higher, "dispatches that took a compiled chain, of all dispatches", SERVER),
    pl("server.allocs_per_raise", "count", Lower, "allocations inside Server::raise per call", "allocs_per_op on wire_plain, rebind_churn"),
    pl("server.snapshot_us", "us", Lower, "Server::snapshot_to_bytes of the 48-session fleet", SNAP),
    pl("server.restore_us", "us", Lower, "Server::restore_from_bytes into a fresh server", SNAP),
    pl("events.raise_ns", "ns", Lower, "Runtime::raise per call on a bare runtime: same module, bindings and chains, no server", EVENTS),
    pl("events.self_ns", "ns", Lower, "events.raise_ns minus ir.call_ns: guards, marshalling, lanes", EVENTS),
    pl("events.obs_ns", "ns", Lower, "Runtime::raise with the observability hub on, minus hub off", EVENTS),
    pl("events.generic_ns_per_frame", "ns", Lower, "one video frame through generic dispatch, interleaved with optimized sessions", "ops_per_s on video_play"),
    pl("events.registry_lookups_per_op", "count", Lower, "registry lookups per operation (CostCounter)", "cost_units_per_op"),
    pl("events.marshaled_values_per_op", "count", Lower, "argument values marshalled per operation (CostCounter)", "cost_units_per_op"),
    pl("events.guard_miss_frac", "frac", Lower, "fast-path guard misses of all dispatch decisions", ADAPT),
    pl("events.rebind_ns", "ns", Lower, "unbind + bind of the hot handler through Server::with_runtime", ADAPT),
    pl("events.sched_ns_per_timer_1e3", "ns", Lower, "Scheduler pop_due_timer + push_timed standalone, 1 000 timers live", TIMERS),
    pl("events.sched_ns_per_timer_1e5", "ns", Lower, "the same with 100 000 live: the workload's own population", TIMERS),
    pl("events.sched_ns_per_timer_1e6", "ns", Lower, "the same with 1 000 000 live: how the structure scales", TIMERS),
    pl("events.allocs_per_raise", "count", Lower, "allocations inside Runtime::raise per call", "allocs_per_op"),
    pl("core.optimize_ms", "ms", Lower, "pdo::optimize on the video profile at T = 300", COMPILE),
    pl("core.opt_speedup", "ratio", Higher, "generic over optimized time per video frame, sessions interleaved (paper Fig 10)", "ops_per_s on video_play"),
    pl("core.code_growth_pct", "%", Lower, "optimized module size over the original (paper section 4.2); exact", DIAG),
    pl("core.reprofiles", "count", Lower, "adaptive engine reprofile passes during the pass", ADAPT),
    pl("core.reprofile_p50_us", "us", Lower, "p50 of the engine's own reprofile wall-time histogram", ADAPT),
    pl("core.chains_installed", "count", Higher, "chains the engine installed", ADAPT),
    pl("core.chains_dropped", "count", Lower, "chains the engine dropped after a rebind", ADAPT),
    pl("core.despecialized", "count", Lower, "events sent back to generic dispatch", ADAPT),
    pl("core.cache_hit_frac", "frac", Higher, "ChainCache hits of lookups: a rebind back to a known configuration need not recompile", ADAPT),
    pl("profile.from_trace_us", "us", Lower, "Profile::from_trace on the recorded video trace", COMPILE),
    pl("profile.trace_records", "count", Lower, "records in that trace", DIAG),
    pl("passes.pipeline_us", "us", Lower, "PassManager::standard over the optimized module", COMPILE),
    pl("passes.instrs_after", "count", Lower, "instructions left after the pipeline; exact", COMPILE),
    pl("passes.fused_sites", "count", Higher, "sites rewritten into superinstructions by fuse_module; exact", COMPILE),
    pl("ir.call_ns", "ns", Lower, "interp::call on the handler bodies a raise ends up interpreting", IR),
    pl("ir.instrs_per_op", "count", Lower, "IR instructions interpreted per operation", IR),
    pl("ir.native_calls_per_op", "count", Lower, "native calls per operation", IR),
    pl("ir.ns_per_instr", "ns", Lower, "ir.call_ns over ir.instrs_per_op (natives included)", IR),
    pl("ir.fused_frac", "frac", Higher, "executed instructions that were superinstructions", IR),
    pl("ir.allocs_per_call", "count", Lower, "allocations inside interp::call per operation", "allocs_per_op on video_play"),
    pl("ctp.send_ns_per_frame", "ns", Lower, "CtpEndpoint::send per frame", CTP),
    pl("ctp.run_until_ns_per_frame", "ns", Lower, "CtpEndpoint::run_until (timers, acks, retransmissions) per frame", CTP),
    pl("ctp.segments_per_frame", "count", Lower, "segments sent per frame", DIAG),
    pl("ctp.retransmits", "count", Lower, "retransmissions per session (every 50th ack is dropped)", DIAG),
    pl("seccomm.push_ns", "ns", Lower, "Endpoint::push called directly with the same payloads", SECCOMM),
    pl("seccomm.frames_sent", "count", Higher, "frames the served sessions sent; must equal Done replies", DIAG),
    pl("seccomm.mac_failures", "count", Lower, "MAC failures on the served sessions; must be 0", "failed on wire_seccomm"),
    pl("snap.encode_ns_per_kib", "ns", Lower, "SnapWriter standalone on the fleet's kind of data, per KiB written", SNAP),
    pl("snap.decode_ns_per_kib", "ns", Lower, "SnapReader standalone on the same bytes, per KiB read", SNAP),
    pl("snap.image_bytes", "B", Lower, "size of the fleet image; exact", SNAP),
    pl("bench.trace_overhead_frac", "frac", Lower, "1 - traced over untraced ops_per_s on alternate slices of the full-stack rung", DIAG),
    pl("bench.fail_frac", "frac", Lower, "failed, shed, errored or wrong-output operations of those attempted; must be 0", "failed, every workload"),
    pl("env.spin_ns", "ns", Lower, "ns per step of a dependent multiply-add chain: this core's speed right now", DIAG),
    pl("env.host_cores", "count", Higher, "std::thread::available_parallelism", DIAG),
];

/// Measured values keyed by declared metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not a declared metric — a typo must not silently
    /// become a missing column.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name:?}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every end-to-end metric, in declaration
    /// order.
    ///
    /// # Panics
    ///
    /// If one was never set: an end-to-end metric has no "not applicable".
    pub fn end_to_end_rows(&self) -> Vec<(String, f64, String)> {
        END_TO_END
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                (m.name.to_string(), v, m.unit.to_string())
            })
            .collect()
    }

    /// `(name, value, unit)` for every per-layer metric, in declaration
    /// order; metrics the workload does not exercise read 0.
    pub fn per_layer_rows(&self) -> Vec<(String, f64, String)> {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    self.get(m.name).unwrap_or(0.0),
                    m.unit.to_string(),
                )
            })
            .collect()
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            escape(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            number(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The workload and metric glossary as Markdown tables (README source).
pub fn glossary_markdown() -> String {
    let mut out = String::new();
    out.push_str("| workload | why it exists |\n|---|---|\n");
    for w in WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.why
        );
    }
    out.push_str(
        "\n| per-layer metric | unit | better | what it is | should move |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what,
            m.moves
        );
    }
    out
}

/// Whether `unit` fits the manifest's unit grammar.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks every declared name, unit, count and bound against the
/// manifest's limits.
pub fn check_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for n in names {
        if !valid_name(n) {
            return Err(format!("bad name {n:?}"));
        }
        if !seen.insert(n) {
            return Err(format!("name {n:?} used twice"));
        }
    }
    for u in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        if !valid_unit(u) {
            return Err(format!("bad unit {u:?}"));
        }
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("why of {} is not one line of <= 200 chars", w.name));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len())
        || !(1..=16).contains(&END_TO_END.len())
        || !(1..=128).contains(&PER_LAYER.len())
        || !(1..=60).contains(&RUN_SECONDS)
    {
        return Err("a table is outside the manifest's size limits".into());
    }
    for m in END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of {} outside (0, 0.25]", m.name));
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    match setup {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {}
        _ => return Err("setup_s must exist with unit s, lower is better".into()),
    }
    if END_TO_END
        .iter()
        .any(|m| m.bound > setup.map_or(0.0, |s| s.bound))
    {
        return Err("setup_s must carry the largest bound".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn tables_fit_the_manifest_limits() {
        check_tables().unwrap();
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let v = parse(&manifest_json()).unwrap();
        let Json::Object(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let Some(Json::Array(e2e)) = v.get("end_to_end") else {
            panic!("end_to_end")
        };
        for m in e2e {
            let Json::Object(o) = m else { panic!() };
            let keys: Vec<&str> = o.keys().map(String::as_str).collect();
            assert_eq!(keys, ["better", "bound", "name", "unit"]);
        }
        let Some(Json::Array(pl)) = v.get("per_layer") else {
            panic!("per_layer")
        };
        for m in pl {
            let Json::Object(o) = m else { panic!() };
            let keys: Vec<&str> = o.keys().map(String::as_str).collect();
            assert_eq!(keys, ["better", "name", "unit"]);
        }
    }

    #[test]
    fn rows_cover_every_declared_metric_and_reject_typos() {
        let mut m = Metrics::new();
        for e in END_TO_END {
            m.set(e.name, 1.5);
        }
        m.set("ir.call_ns", 12.0);
        assert_eq!(m.end_to_end_rows().len(), END_TO_END.len());
        let rows = m.per_layer_rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().any(|(n, v, _)| n == "ir.call_ns" && *v == 12.0));
        assert!(rows
            .iter()
            .any(|(n, v, _)| n == "snap.image_bytes" && *v == 0.0));
        let typo = std::panic::catch_unwind(|| Metrics::new().set("ir.call_nss", 1.0));
        assert!(typo.is_err());
    }
}
