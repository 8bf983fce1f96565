//! Observability: scrape a live server and dump what its causal
//! trace recorded.
//!
//! ```text
//! cargo run --example observability
//! ```
//!
//! Builds a [`pdo_server::Server`] hosting three kinds of
//! session — a plain event program under adaptive specialization, a CTP
//! video endpoint over a deliberately faulty link, and a SecComm secure
//! channel fed one tampered packet — drives load into all of them, then:
//!
//! 1. scrapes one server-wide [`pdo_obs::MetricsSnapshot`] and prints its
//!    Prometheus-style text exposition (dispatch-latency histograms split
//!    fast/slow, adaptation gauges, wire/CTP/SecComm fault counters,
//!    summed over the sessions), and
//! 2. prints every retained span that is not a raise or a dispatch, as a
//!    line dump — the post-mortem view of what the adaptation loop decided
//!    and why, and which faults and guard misses it answered.

use pdo::AdaptConfig;
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::wire::WireFaults;
use pdo_ir::{BinOp, EventId, FuncId, FunctionBuilder, Module, Value};
use pdo_obs::trace::export_lines;
use pdo_obs::SpanKind;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_FULL};
use pdo_server::{Server, ServerConfig};

/// One event, two handlers — repetitive enough that the adaptation
/// engine compiles a chain mid-run.
fn hot_module() -> (Module, EventId, Vec<(EventId, FuncId, i32)>) {
    let mut m = Module::new();
    let tick = m.add_event("Tick");
    let acc = m.add_global("acc", Value::Int(0));
    let mut handlers = Vec::new();
    for (name, d) in [("count", 1i64), ("weight", 2)] {
        let mut fb = FunctionBuilder::new(name, 0);
        let v = fb.load_global(acc);
        let dd = fb.const_int(d);
        let o = fb.bin(BinOp::Add, v, dd);
        fb.store_global(acc, o);
        fb.ret(None);
        handlers.push(m.add_function(fb.finish()));
    }
    let bindings = handlers
        .iter()
        .enumerate()
        .map(|(i, &h)| (tick, h, i as i32))
        .collect();
    (m, tick, bindings)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 1_000,
            min_fresh_events: 20,
            opts: pdo::OptimizeOptions::new(10),
            ..Default::default()
        },
    });

    // Plain session: hammer one event until a chain installs.
    let (m, tick, bindings) = hot_module();
    let plain = server.open_session(m, Default::default(), &bindings)?;
    for i in 0..80u64 {
        server.submit(plain, tick, i * 100 + 100, &[])?;
    }
    server.run_until(80 * 100 + 1)?;

    // CTP session over a faulty link: drops, duplicates, reordering, and
    // corruption all show up as wire fault counters. Link-level trouble
    // may surface as a session error — the metrics survive regardless.
    let ctp = server.open_ctp_session(
        &ctp_program(),
        CtpParams {
            link_faults: WireFaults {
                drop_per_mille: 200,
                dup_per_mille: 150,
                reorder_per_mille: 200,
                corrupt_per_mille: 150,
                seed: 7,
            },
            ..Default::default()
        },
    )?;
    for i in 0..6u64 {
        let payload = vec![i as u8; 40 + i as usize * 17];
        let _ = server.with_ctp(ctp, move |ep| ep.send(&payload))?;
        let _ = server.run_until(8_001 + (i + 1) * 50_000_000);
    }

    // SecComm session: one tampered packet bumps the MAC-failure counter.
    let keys = Keys::default();
    let sec_program = seccomm_protocol().instantiate(CONFIG_FULL)?;
    let sec = server.open_seccomm_session(&sec_program, &keys)?;
    let mut sender = Endpoint::new(&sec_program, &keys)?;
    let mut wire = sender.push(b"tamper with me")?;
    let mid = wire.len() / 2;
    wire[mid] ^= 0xFF;
    let _ = server.with_seccomm(sec, move |ep| ep.pop(&wire))?;

    // --- 1. The scrape: one snapshot, every layer, every session. -------
    println!("==== metrics scrape ====");
    print!("{}", server.metrics().render());

    // --- 2. The post-mortem: decisions, faults and guard misses. --------
    let mut spans = server.trace_spans();
    spans.retain(|s| !matches!(s.kind, SpanKind::Raise { .. } | SpanKind::Dispatch { .. }));
    println!("\n==== trace spans (all but raises and dispatches) ====");
    print!("{}", export_lines(&spans));
    Ok(())
}
