//! Open-loop ingress load generator: the committed evidence for the
//! network front door's admission control (`BENCH_ingress.json`).
//!
//! Topology: one engine thread (`Ingress::serve` sweeping the sockets and
//! driving the server) and one driver thread here that multiplexes
//! **10 240 logical clients over 64 non-blocking loopback TCP
//! connections** — the fronting-multiplexer regime the sweep is
//! designed for, and the only way to simulate
//! tens of thousands of concurrent clients under the container's fd
//! limit. Every logical client owns a real server session.
//!
//! The workload is **open-loop**: each client draws exponential
//! inter-arrival gaps from a seeded splitmix64 stream (a Poisson process
//! per client, so a Poisson process in aggregate), and sends at the
//! scheduled instant whether or not earlier replies have returned —
//! latency is measured from the *scheduled arrival*, so queueing delay
//! is not hidden by client-side backpressure (the coordinated-omission
//! trap a closed-loop generator falls into).
//!
//! Procedure: calibrate the saturation throughput `R_max` with
//! escalating open-loop probes (offered rate doubles until shedding
//! engages; `R_max` is the Done-rate measured under saturation), then
//! measure ≥3 offered-load points at fixed
//! fractions of `R_max` (0.5×, 0.9×, 2.0×), 3 rounds each, reporting
//! p50/p99 reply latency and shed rate as mean ± 95% CI across rounds.
//! Gates: the 0.5× point sheds < 5%, the 2.0× point sheds > 5% (load
//! shedding demonstrably engages past saturation), and the server still
//! serves a fresh session end-to-end afterwards. Exits nonzero on any
//! gate failure.
//!
//! `--soak` runs the CI-sized variant: ~2k clients over 32 connections
//! for ~10 s with the same gates.

use pdo::AdaptConfig;
use pdo_bench::mean_ci;
use pdo_ingress::proto::{self, Reply, Request, WireMode};
use pdo_ingress::{Client, Ingress, IngressConfig, OpenKind};
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, Value};
use pdo_obs::Histogram;
use pdo_server::{Server, ServerConfig};
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First offered rate of the escalating calibration probe (requests/s).
const CALIBRATE_START_RPS: f64 = 40_000.0;
/// Calibration stops escalating once the probe sheds this fraction.
const CALIBRATE_SHED_TARGET: f64 = 0.10;
/// Calibration escalation ceiling (requests/s).
const CALIBRATE_MAX_RPS: f64 = 1_280_000.0;
/// Offered-load points as fractions of calibrated `R_max`.
const RATIOS: [f64; 3] = [0.5, 0.9, 2.0];
/// Shed-rate ceiling for the below-saturation point.
const LOW_SHED_MAX: f64 = 0.05;
/// Shed-rate floor for the past-saturation point.
const OVERLOAD_SHED_MIN: f64 = 0.05;

#[derive(Clone, Copy)]
struct Params {
    clients: usize,
    conns: usize,
    rounds: usize,
    round_secs: f64,
    calibrate_secs: f64,
}

const FULL: Params = Params {
    clients: 10_240,
    conns: 64,
    rounds: 3,
    round_secs: 2.0,
    calibrate_secs: 1.5,
};

const SOAK: Params = Params {
    clients: 2_048,
    conns: 32,
    rounds: 2,
    round_secs: 1.2,
    calibrate_secs: 1.0,
};

/// Deterministic splitmix64 stream (seeded, for reproducible arrivals).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        pdo_events::splitmix64_next(&mut self.0)
    }

    /// Exponential gap with the given mean, in ns (≥ 1).
    fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * mean_ns).max(1.0) as u64
    }
}

/// The per-session program: one event, two accumulating handlers —
/// enough real dispatch for the adaptive engine to specialize under
/// network load, cheap enough that ingress (not the handlers) is the
/// system under test.
fn client_module() -> (Module, EventId, Vec<(u32, u32, i32)>) {
    let mut m = Module::new();
    let e = m.add_event("req");
    let g = m.add_global("acc", Value::Int(0));
    let mut binds = Vec::new();
    for k in 0..2i64 {
        let mut fb = FunctionBuilder::new(format!("h{k}"), 0);
        let v = fb.load_global(g);
        let d = fb.const_int(k + 1);
        let o = fb.bin(BinOp::Add, v, d);
        fb.store_global(g, o);
        fb.ret(None);
        let f = m.add_function(fb.finish());
        binds.push((e.0, f.0, k as i32));
    }
    (m, e, binds)
}

/// One multiplexed connection: non-blocking socket, frame reassembly,
/// pending-reply table keyed by request id.
struct MuxConn {
    stream: TcpStream,
    inbuf: proto::FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// req_id → scheduled-arrival ns (relative to the round clock).
    pending: HashMap<u64, u64>,
    next_req: u64,
}

impl MuxConn {
    fn connect(addr: SocketAddr) -> MuxConn {
        let stream = TcpStream::connect(addr).expect("connect load conn");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        MuxConn {
            stream,
            inbuf: proto::FrameBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: HashMap::new(),
            next_req: 1,
        }
    }

    fn send(&mut self, req: &Request, arrival_ns: u64) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        self.out.extend_from_slice(&proto::encode_request(id, req));
        self.pending.insert(id, arrival_ns);
        id
    }

    /// Flushes queued bytes and reads replies; invokes `on_reply` for
    /// each with `(reply, scheduled_arrival_ns)`.
    fn sweep(&mut self, on_reply: &mut impl FnMut(Reply, u64)) -> bool {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => panic!("load conn closed by server"),
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("load conn write: {e}"),
            }
        }
        if self.out_pos == self.out.len() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("load conn EOF from server"),
                Ok(n) => {
                    self.inbuf.extend(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("load conn read: {e}"),
            }
        }
        while let Some(frame) = self
            .inbuf
            .next_frame(proto::MAX_FRAME_LEN)
            .expect("server sent corrupt frame")
        {
            let (rid, reply) = proto::decode_reply(frame).expect("server reply decodes");
            let arrival = self.pending.remove(&rid).expect("reply matches a request");
            on_reply(reply, arrival);
            progress = true;
        }
        progress
    }

    fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// Per-round tallies.
#[derive(Default)]
struct Tally {
    done: u64,
    shed: u64,
    errors: u64,
}

struct Driver {
    conns: Vec<MuxConn>,
    /// client → (conn index, session id).
    sessions: Vec<(usize, u64)>,
    event: u32,
}

impl Driver {
    /// Opens one session per logical client, closed-loop with a bounded
    /// window so setup itself is never shed.
    fn setup(addr: SocketAddr, p: &Params) -> Driver {
        let (module, e, binds) = client_module();
        let conns: Vec<MuxConn> = (0..p.conns).map(|_| MuxConn::connect(addr)).collect();
        let mut d = Driver {
            conns,
            sessions: Vec::with_capacity(p.clients),
            event: e.0,
        };
        let mut sent = 0usize;
        let mut opened: Vec<(usize, u64)> = Vec::with_capacity(p.clients);
        while opened.len() < p.clients {
            while sent < p.clients && d.total_outstanding() < 128 {
                let ci = sent % d.conns.len();
                d.conns[ci].send(
                    &Request::Open(OpenKind::Plain {
                        module: module.clone(),
                        bindings: binds.clone(),
                    }),
                    0,
                );
                sent += 1;
            }
            for (ci, c) in d.conns.iter_mut().enumerate() {
                c.sweep(&mut |reply, _| match reply {
                    Reply::Opened { session } => opened.push((ci, session)),
                    other => panic!("setup open failed: {other:?}"),
                });
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        d.sessions = opened;
        d
    }

    fn total_outstanding(&self) -> usize {
        self.conns.iter().map(MuxConn::outstanding).sum()
    }

    fn raise_for(&self, client: usize) -> (usize, Request) {
        let (ci, session) = self.sessions[client];
        (
            ci,
            Request::Raise {
                session,
                event: self.event,
                mode: WireMode::Sync,
                args: Vec::new(),
            },
        )
    }

    /// Saturation calibration: escalating open-loop probes, doubling the
    /// offered rate until shedding engages, then `R_max` = the Done-rate
    /// measured *under* saturation — the server's actual completion
    /// capacity. (A closed-loop window would be the textbook approach,
    /// but on a single-core host it is latency-bound across scheduler
    /// timeslices — driver and engine each need a turn per batch — and
    /// underestimates capacity by an order of magnitude.)
    fn calibrate(&mut self, secs: f64) -> f64 {
        let mut probe = CALIBRATE_START_RPS;
        let mut step = 0u64;
        loop {
            let (_, t, elapsed) = self.round(probe, secs, 0x00CA_11B8 + step);
            step += 1;
            let replies = (t.done + t.shed + t.errors).max(1);
            let shed_rate = t.shed as f64 / replies as f64;
            // Service rate over the *full* window including the drain —
            // dones still in flight when sending stops were not served
            // within the measurement window.
            let done_rate = t.done as f64 / elapsed;
            eprintln!(
                "calibrate probe {probe:.0} rps: {done_rate:.0} done/s, shed {:.1}%",
                shed_rate * 100.0
            );
            if shed_rate >= CALIBRATE_SHED_TARGET || probe >= CALIBRATE_MAX_RPS {
                return done_rate;
            }
            probe *= 2.0;
        }
    }

    /// One open-loop round at `rate` requests/s: a binary heap of
    /// per-client next-arrival instants, sends at the scheduled time,
    /// latency measured from that schedule.
    fn round(&mut self, rate: f64, secs: f64, seed: u64) -> (Histogram, Tally, f64) {
        let n = self.sessions.len();
        let mean_gap_ns = n as f64 / rate * 1e9;
        let mut rng = Rng(seed);
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..n as u32)
            .map(|c| std::cmp::Reverse((rng.exp_ns(mean_gap_ns), c)))
            .collect();
        let end_ns = (secs * 1e9) as u64;
        let start = Instant::now();
        let mut hist = Histogram::new();
        let mut tally = Tally::default();
        loop {
            let now_ns = start.elapsed().as_nanos() as u64;
            if now_ns >= end_ns {
                break;
            }
            while let Some(&std::cmp::Reverse((t, c))) = heap.peek() {
                if t > now_ns {
                    break;
                }
                heap.pop();
                if t < end_ns {
                    let (ci, req) = self.raise_for(c as usize);
                    self.conns[ci].send(&req, t);
                    heap.push(std::cmp::Reverse((t + rng.exp_ns(mean_gap_ns), c)));
                }
            }
            let mut progress = false;
            for c in &mut self.conns {
                progress |= c.sweep(&mut |reply, arrival| {
                    classify(reply, arrival, &start, &mut hist, &mut tally);
                });
            }
            if !progress {
                // Yield, don't sleep: a sleeping generator on a shared
                // core under-delivers the offered rate it claims.
                std::thread::yield_now();
            }
        }
        self.drain(Duration::from_secs(10), &mut |reply, arrival| {
            classify(reply, arrival, &start, &mut hist, &mut tally);
        });
        let elapsed = start.elapsed().as_secs_f64();
        eprintln!(
            "  round @{rate:.0} rps: {} done / {} shed / {} errors in {elapsed:.2}s \
             ({:.0} served/s)",
            tally.done,
            tally.shed,
            tally.errors,
            tally.done as f64 / elapsed,
        );
        (hist, tally, elapsed)
    }

    /// Sweeps until every in-flight request has a reply (or `limit`).
    fn drain(&mut self, limit: Duration, on_reply: &mut impl FnMut(Reply, u64)) {
        let start = Instant::now();
        while self.total_outstanding() > 0 && start.elapsed() < limit {
            let mut progress = false;
            for c in &mut self.conns {
                progress |= c.sweep(on_reply);
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        assert_eq!(self.total_outstanding(), 0, "requests lost without reply");
    }
}

fn classify(reply: Reply, arrival_ns: u64, start: &Instant, hist: &mut Histogram, t: &mut Tally) {
    match reply {
        Reply::Done => {
            let now = start.elapsed().as_nanos() as u64;
            hist.record(now.saturating_sub(arrival_ns).max(1));
            t.done += 1;
        }
        Reply::Shed { .. } => t.shed += 1,
        _ => t.errors += 1,
    }
}

struct Point {
    ratio: f64,
    offered_rps: f64,
    p50: (f64, f64),
    p99: (f64, f64),
    shed_rate: (f64, f64),
    done: u64,
    shed: u64,
    errors: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let soak = args.iter().any(|a| a == "--soak");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_ingress.json".into());
    let p = if soak { SOAK } else { FULL };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // No adaptation epoch inside the run: every session crosses an epoch
    // boundary at the same virtual instant, and that one `maybe_epoch`
    // stalls the sweep for 40–80 µs per session (81–159 ms for the
    // soak's 2 048 on a 2-core host), shedding ~30 k requests in
    // whichever point it lands. That would measure the adaptive engine,
    // not admission control (the scaling/ablation benches own that axis).
    // The virtual clock moves `epoch_step_ns` (1 ms) per `epoch_every`
    // (1 024) admitted requests, so an hour of it takes 3.6 M advances,
    // 3.7 G admitted requests. The full run offers at most ~30 M: six
    // calibration probes of ≤ 2.52 M req/s in total for 1.5 s each
    // (3.8 M), then 0.5 + 0.9 + 2.0 of an `R_max` the probes cap at
    // 1.28 M req/s, for 3 rounds of 2 s (26.1 M). The soak offers less.
    // No crossing is reached.
    let mut server = Server::new(ServerConfig {
        adapt: AdaptConfig {
            epoch_ns: 3_600_000_000_000,
            ..Default::default()
        },
    });
    let mut ingress = Ingress::bind(
        IngressConfig {
            unix: None,
            max_inflight: 2_048,
            ..Default::default()
        },
        1,
    )
    .expect("bind ingress");
    let addr = ingress.tcp_addr().expect("tcp bound");
    let stop = Arc::new(AtomicBool::new(false));

    let driver_stop = Arc::clone(&stop);
    let driver = std::thread::Builder::new()
        .name("ingress-load-driver".into())
        .spawn(move || {
            let mut d = Driver::setup(addr, &p);
            eprintln!(
                "opened {} sessions over {} connections",
                d.sessions.len(),
                p.conns
            );
            let r_max = d.calibrate(p.calibrate_secs);
            eprintln!("calibrated R_max = {r_max:.0} done/s");

            let mut points = Vec::new();
            for (pi, &ratio) in RATIOS.iter().enumerate() {
                let rate = r_max * ratio;
                let (mut p50s, mut p99s, mut sheds) = (Vec::new(), Vec::new(), Vec::new());
                let mut total = Tally::default();
                for round in 0..p.rounds {
                    let (hist, t, _) =
                        d.round(rate, p.round_secs, 0x00C1_1E17 + (pi * 16 + round) as u64);
                    let replies = (t.done + t.shed + t.errors).max(1);
                    p50s.push(hist.quantile(0.5) as f64);
                    p99s.push(hist.quantile(0.99) as f64);
                    sheds.push(t.shed as f64 / replies as f64);
                    total.done += t.done;
                    total.shed += t.shed;
                    total.errors += t.errors;
                }
                let pt = Point {
                    ratio,
                    offered_rps: rate,
                    p50: mean_ci(&p50s),
                    p99: mean_ci(&p99s),
                    shed_rate: mean_ci(&sheds),
                    done: total.done,
                    shed: total.shed,
                    errors: total.errors,
                };
                eprintln!(
                    "{:.1}x R_max ({:.0} rps): p50 {:.0} µs ± {:.0}, p99 {:.0} µs ± {:.0}, \
                     shed {:.1}% ± {:.1} ({} done / {} shed / {} errors)",
                    pt.ratio,
                    pt.offered_rps,
                    pt.p50.0 / 1e3,
                    pt.p50.1 / 1e3,
                    pt.p99.0 / 1e3,
                    pt.p99.1 / 1e3,
                    pt.shed_rate.0 * 100.0,
                    pt.shed_rate.1 * 100.0,
                    pt.done,
                    pt.shed,
                    pt.errors,
                );
                points.push(pt);
            }

            // Liveness: a fresh blocking client is served end to end
            // after the overload pass, while the engine is still up.
            let mut c = Client::connect_tcp(addr).expect("health connect");
            let session = loop {
                match c
                    .request(&Request::Open(OpenKind::Ctp))
                    .expect("health open")
                {
                    Reply::Opened { session } => break session,
                    Reply::Shed { retry_after_ns } => {
                        std::thread::sleep(Duration::from_nanos(retry_after_ns));
                    }
                    other => panic!("health open failed: {other:?}"),
                }
            };
            let stats = c.query(session).expect("health query");
            assert_eq!(stats.session, session);
            assert!(c.close(session).expect("health close"));

            driver_stop.store(true, Ordering::SeqCst);
            (r_max, points)
        })
        .expect("spawn driver");

    ingress.serve(&mut server, &stop).expect("engine serve");
    let (r_max, points) = driver.join().expect("driver thread");

    let low = &points[0];
    let overload = points.last().expect("points");
    let pass_low = low.shed_rate.0 < LOW_SHED_MAX;
    let pass_overload = overload.shed_rate.0 > OVERLOAD_SHED_MIN;
    let pass = pass_low && pass_overload;

    let shed_total = ingress.shed_total();
    let points_json: Vec<String> = points
        .iter()
        .map(|pt| {
            format!(
                "    {{ \"offered_ratio\": {:.2}, \"offered_rps\": {:.0}, \
                 \"p50_ns_mean\": {:.0}, \"p50_ns_ci95\": {:.0}, \
                 \"p99_ns_mean\": {:.0}, \"p99_ns_ci95\": {:.0}, \
                 \"shed_rate_mean\": {:.4}, \"shed_rate_ci95\": {:.4}, \
                 \"done\": {}, \"shed\": {}, \"errors\": {} }}",
                pt.ratio,
                pt.offered_rps,
                pt.p50.0,
                pt.p50.1,
                pt.p99.0,
                pt.p99.1,
                pt.shed_rate.0,
                pt.shed_rate.1,
                pt.done,
                pt.shed,
                pt.errors,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ingress/load/{}x{}\",\n  \"host_cores\": {host_cores},\n  \
         \"clients\": {},\n  \"connections\": {},\n  \"rounds_per_point\": {},\n  \
         \"round_secs\": {},\n  \"calibrated_rmax_rps\": {r_max:.0},\n  \
         \"points\": [\n{}\n  ],\n  \
         \"shed_total\": {shed_total},\n  \
         \"gates\": {{ \"low_shed_max\": {LOW_SHED_MAX}, \
         \"overload_shed_min\": {OVERLOAD_SHED_MIN} }},\n  \
         \"pass_low\": {pass_low},\n  \"pass_overload\": {pass_overload},\n  \
         \"server_alive\": true,\n  \"pass\": {pass}\n}}\n",
        p.clients,
        p.conns,
        p.clients,
        p.conns,
        p.rounds,
        p.round_secs,
        points_json.join(",\n"),
    );
    if soak {
        print!("{json}");
    } else {
        std::fs::write(&out, &json).expect("write BENCH_ingress.json");
        print!("{json}");
    }
    if !pass {
        eprintln!(
            "ingress load gate FAILED: shed@{:.1}x = {:.3} (max {LOW_SHED_MAX}), \
             shed@{:.1}x = {:.3} (min {OVERLOAD_SHED_MIN})",
            low.ratio, low.shed_rate.0, overload.ratio, overload.shed_rate.0
        );
        std::process::exit(1);
    }
    println!(
        "ingress load passed: {:.0} rps saturation, shedding engages past it \
         and stays off below it",
        r_max
    );
}
