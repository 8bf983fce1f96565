//! Run-to-run determinism of the whole observable surface: one seeded
//! fleet workload driven through two fresh servers must yield the same
//! aggregate `ServerReport`, merged `MetricsSnapshot`, session globals,
//! trace line dump, and durable image — between them
//! the drive uses every server operation. This is what catches
//! `RandomState` iteration order (the spec table is a `HashMap`) leaking
//! into anything observable. The only series allowed to differ are the
//! two wall-clock families (`pdo_adapt_reprofile_wall_ns`, the daemon's
//! host-time profiling histogram, and `pdo_server_busy_ns_total`, the
//! server's busy counter), which `MetricsSnapshot::retain_families` strips
//! before comparison — everything the virtual clock governs must agree.

use pdo::{AdaptConfig, OptimizeOptions};
use pdo_events::RuntimeConfig;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, GlobalId, Module, RaiseMode, Value};
use pdo_obs::trace::export_lines;
use pdo_server::{Server, ServerConfig, ServerReport, SessionId};
use proptest::prelude::*;

/// Two independent events; handler `k` of each adds `k` to its event's
/// accumulator, so one dispatch of [h1, h2] adds 3.
fn two_chain_module() -> (Module, [EventId; 2], [GlobalId; 2]) {
    let mut m = Module::new();
    let a = m.add_event("A");
    let b = m.add_event("B");
    let ga = m.add_global("acc_a", Value::Int(0));
    let gb = m.add_global("acc_b", Value::Int(0));
    let adder = |m: &mut Module, name: &str, g: GlobalId, d: i64| {
        let mut fb = FunctionBuilder::new(name, 0);
        let v = fb.load_global(g);
        let dd = fb.const_int(d);
        let o = fb.bin(BinOp::Add, v, dd);
        fb.store_global(g, o);
        fb.ret(None);
        m.add_function(fb.finish())
    };
    adder(&mut m, "a1", ga, 1);
    adder(&mut m, "a2", ga, 2);
    adder(&mut m, "b1", gb, 1);
    adder(&mut m, "b2", gb, 2);
    (m, [a, b], [ga, gb])
}

fn bindings(m: &Module, a: EventId, b: EventId) -> Vec<(EventId, FuncId, i32)> {
    vec![
        (a, m.function_by_name("a1").unwrap(), 0),
        (a, m.function_by_name("a2").unwrap(), 1),
        (b, m.function_by_name("b1").unwrap(), 0),
        (b, m.function_by_name("b2").unwrap(), 1),
    ]
}

fn fast_adapt() -> AdaptConfig {
    AdaptConfig {
        epoch_ns: 1_000,
        min_fresh_events: 20,
        opts: OptimizeOptions::new(10),
        ..Default::default()
    }
}

/// One seeded workload: per-session event choice and burst size, shared
/// spacing, a number of phases (the event flips each phase so the
/// adaptation loop re-specializes), whether to close a session at the
/// end, and which session (modulo the count) also takes one sync and
/// one async raise per phase. Everything the drive does is derived from
/// this data, so both servers replay it bit-for-bit. Afterwards one
/// session (modulo the count), if any, has event A's second handler
/// swapped for another and back — A/B/A, a burst of A after each swap —
/// so guard invalidation, replanning and the cached return are compared
/// too.
#[derive(Debug, Clone)]
struct Case {
    sessions: Vec<(bool, u64)>,
    spacing: u64,
    phases: usize,
    close_one: bool,
    probe: usize,
    rebind: Option<usize>,
}

/// The full observable surface after driving `case` on a fresh server.
#[derive(Debug, PartialEq)]
struct Observed {
    report: ServerReport,
    /// The metrics exposition, wall-clock families stripped.
    metrics: String,
    /// Both accumulators of every session still open.
    globals: Vec<(Value, Value)>,
    /// The server's retained spans as a line dump: what happened and why,
    /// on the virtual clock.
    spans: String,
    image: Vec<u8>,
}

fn drive(case: &Case) -> Observed {
    let (m, [a, b], [ga, gb]) = two_chain_module();
    let mut server = Server::new(ServerConfig {
        adapt: fast_adapt(),
    });
    let sids: Vec<SessionId> = case
        .sessions
        .iter()
        .map(|_| {
            server
                .open_session(m.clone(), RuntimeConfig::default(), &bindings(&m, a, b))
                .unwrap()
        })
        .collect();
    let mut deadline = 0u64;
    for phase in 0..case.phases {
        let mut phase_end = deadline + 1;
        for (k, &(use_b, burst)) in case.sessions.iter().enumerate() {
            let flipped = use_b ^ (phase % 2 == 1);
            let event = if flipped { b } else { a };
            let delays: Vec<u64> = (0..burst).map(|i| i * case.spacing + 1).collect();
            server.submit_batch(sids[k], event, &delays).unwrap();
            phase_end = phase_end.max(deadline + burst * case.spacing + 1);
        }
        let probe = sids[case.probe % sids.len()];
        server.raise(probe, a, RaiseMode::Sync, &[]).unwrap();
        server.raise(probe, b, RaiseMode::Async, &[]).unwrap();
        deadline = phase_end;
        server.run_until(deadline).unwrap();
    }
    if let Some(k) = case.rebind {
        let sid = sids[k % sids.len()];
        let (a2, b1) = (
            m.function_by_name("a2").unwrap(),
            m.function_by_name("b1").unwrap(),
        );
        for (from, to) in [(a2, b1), (b1, a2)] {
            server
                .with_runtime(sid, move |rt| {
                    assert!(rt.unbind(a, from));
                    rt.bind(a, to, 1).unwrap();
                })
                .unwrap();
            let delays: Vec<u64> = (0..40).map(|i| i * case.spacing + 1).collect();
            server.submit_batch(sid, a, &delays).unwrap();
            deadline += 40 * case.spacing + 1;
            server.run_until(deadline).unwrap();
        }
    }
    if case.close_one && sids.len() > 1 {
        assert!(server.close_session(sids[0]));
    }
    let report = server.report();
    let mut snap = server.metrics();
    snap.retain_families(|name| {
        name != "pdo_adapt_reprofile_wall_ns" && name != "pdo_server_busy_ns_total"
    });
    let globals = server
        .sessions()
        .into_iter()
        .map(|sid| {
            server
                .with_runtime(sid, move |rt| {
                    (rt.global(ga).clone(), rt.global(gb).clone())
                })
                .unwrap()
        })
        .collect();
    let spans = export_lines(&server.trace_spans());
    let image = server.snapshot_to_bytes();
    Observed {
        report,
        metrics: snap.render(),
        globals,
        spans,
        image,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_runs_of_one_case_are_observationally_identical(
        sessions in prop::collection::vec((any::<bool>(), 30u64..70), 2..6),
        spacing in prop_oneof![Just(50u64), Just(100), Just(150)],
        phases in 1usize..3,
        close_one in any::<bool>(),
        probe in 0usize..6,
        rebind in prop::option::of(0usize..6),
    ) {
        let case = Case { sessions, spacing, phases, close_one, probe, rebind };
        let first = drive(&case);
        let second = drive(&case);
        prop_assert_eq!(first.report, second.report, "aggregate reports differ");
        prop_assert_eq!(first.metrics, second.metrics, "merged metrics differ");
        prop_assert_eq!(first.globals, second.globals, "session globals differ");
        prop_assert!(!first.spans.is_empty(), "tracing is on, so spans exist to compare");
        prop_assert_eq!(first.spans, second.spans, "trace line dumps differ");
        prop_assert_eq!(first.image, second.image, "durable images differ");
    }
}
