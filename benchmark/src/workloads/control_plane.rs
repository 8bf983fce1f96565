//! `control_plane`: the rare, expensive operations no data-plane workload
//! touches.
//!
//! One cycle is: `Profile::from_trace` on the recorded 391-frame video
//! trace → `pdo::optimize` at T = 300 → `Server::snapshot_to_bytes` of a
//! 48-session mixed fleet (16 plain, 16 CTP, 16 SecComm, each driven 64
//! seeded operations) → `Server::restore_from_bytes` into a fresh server →
//! one probe operation on every restored session. This is compile-time
//! and codec cost (ROADMAP items 5 and 6). Between the timed steps the
//! cycle checks its outputs: the optimized module passes `verify_module`,
//! and the restored server's own snapshot is byte-identical to the image
//! it was restored from. Operation = one full cycle.

use super::video_play::{compile_rung, VideoLab, THRESHOLD};
use super::wire_seccomm::seccomm_program;
use super::{ratio, spend, SliceOut, Timed, Workload};
use crate::metrics::Metrics;
use crate::programs::{adder_program, AdderProgram};
use crate::rng::Rng;
use crate::span::Tracer;
use pdo::{optimize, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpParams};
use pdo_events::RuntimeConfig;
use pdo_ir::{EventId, RaiseMode, Value};
use pdo_profile::Profile;
use pdo_seccomm::Keys;
use pdo_server::{Server, ServerConfig, SessionId};
use pdo_snap::{SnapReader, SnapWriter};
use std::time::Duration;

/// Sessions of each kind in the fleet.
pub const PER_KIND: usize = 16;
/// Operations each fleet session is driven before the first snapshot.
pub const DRIVEN_OPS: u64 = 64;
const FLEET_PAYLOAD: usize = 256;
const PROBE_PAYLOAD: usize = 64;
/// Virtual time between rounds of fleet driving: long enough for CTP acks
/// and retransmission timers to play out.
const ROUND_NS: u64 = 10_000_000;

/// The three kinds' session ids.
struct Fleet {
    plain: Vec<SessionId>,
    ctp: Vec<SessionId>,
    sec: Vec<SessionId>,
}

/// The workload. See the module docs.
pub struct ControlPlane {
    lab: VideoLab,
    plain: AdderProgram,
    fleet_server: Server,
    fleet: Fleet,
    image: Vec<u8>,
    probe: Vec<u8>,
    cost_units: u64,
    failures: Vec<String>,
}

fn one_op(server: &mut Server, fleet: &Fleet, plain_event: EventId, payload: &[u8]) {
    for &id in &fleet.plain {
        server
            .raise(id, plain_event, RaiseMode::Sync, &[])
            .expect("plain raise");
    }
    for &id in &fleet.ctp {
        let p = payload.to_vec();
        server
            .with_ctp(id, move |ep| ep.send(&p))
            .expect("CTP session")
            .expect("CTP send");
    }
    for &id in &fleet.sec {
        let p = payload.to_vec();
        server
            .with_seccomm(id, move |ep| ep.push(&p).map(|_| ()))
            .expect("SecComm session")
            .expect("SecComm push");
    }
}

impl ControlPlane {
    /// Sets the workload up; `seed` drives the payloads the fleet is
    /// driven with (and therefore the image's bytes) and the probe payload.
    pub fn setup(seed: u64) -> ControlPlane {
        let lab = VideoLab::prepare();
        let plain = adder_program(1, 2);
        let ctp: EventProgram = ctp_program();
        let sec = seccomm_program();
        let mut server = Server::new(ServerConfig::default());
        let mut fleet = Fleet {
            plain: Vec::new(),
            ctp: Vec::new(),
            sec: Vec::new(),
        };
        for _ in 0..PER_KIND {
            fleet.plain.push(
                server
                    .open_session(
                        plain.module.clone(),
                        RuntimeConfig::default(),
                        &plain.bindings,
                    )
                    .expect("open plain session"),
            );
            fleet.ctp.push(
                server
                    .open_ctp_session(&ctp, CtpParams::default())
                    .expect("open CTP session"),
            );
            fleet.sec.push(
                server
                    .open_seccomm_session(&sec, &Keys::default())
                    .expect("open SecComm session"),
            );
        }
        let mut rng = Rng::new(seed, 0x61);
        let mut vnow = 0;
        for _ in 0..DRIVEN_OPS {
            one_op(
                &mut server,
                &fleet,
                plain.events[0],
                &rng.bytes(FLEET_PAYLOAD),
            );
            vnow += ROUND_NS;
            server.run_until(vnow).expect("fleet run_until");
        }
        // Quiesce lands every session on a common clock with empty queues
        // and drained trace windows, where a snapshot is exact.
        server.quiesce().expect("fleet quiesce");
        server.resume_admission();
        let image = server.snapshot_to_bytes();
        ControlPlane {
            lab,
            plain,
            fleet_server: server,
            fleet,
            image,
            probe: rng.bytes(PROBE_PAYLOAD),
            cost_units: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, out: &mut SliceOut, why: String) {
        out.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// One full cycle.
    fn cycle(&mut self, tr: &mut Tracer, out: &mut SliceOut) {
        out.attempted += 1;
        let mut cycle_ns = 0;
        let mut ok = true;

        let t = Timed::start();
        tr.enter("profile", "from_trace");
        let profile = Profile::from_trace(&self.lab.trace, THRESHOLD);
        tr.exit(self.lab.trace.records.len() as u64);
        tr.enter("core", "optimize");
        let opt = optimize(
            &self.lab.base.module,
            self.lab.profiled.runtime().registry(),
            &profile,
            &OptimizeOptions::new(THRESHOLD),
        );
        tr.exit(1);
        cycle_ns += out.add(t);
        if let Err(e) = pdo_ir::verify_module(&opt.module) {
            ok = false;
            self.fail(out, format!("optimized module fails verify: {e:?}"));
        }
        if opt.chains.len() != self.lab.optimization.chains.len() {
            ok = false;
            self.fail(out, "optimize is not repeatable on the same profile".into());
        }

        let t = Timed::start();
        tr.enter("server", "snapshot");
        let image = self.fleet_server.snapshot_to_bytes();
        tr.exit(image.len() as u64);
        let mut revived = Server::new(ServerConfig::default());
        tr.enter("server", "restore");
        let restored = revived.restore_from_bytes(&image);
        tr.exit(image.len() as u64);
        cycle_ns += out.add(t);
        if image != self.image {
            ok = false;
            self.fail(out, "two snapshots of the idle fleet differ".into());
        }
        match restored {
            Ok(ids) if ids.len() == 3 * PER_KIND => {
                if revived.snapshot_to_bytes() != image {
                    ok = false;
                    self.fail(out, "restore -> re-snapshot is not byte-identical".into());
                }
            }
            Ok(ids) => {
                ok = false;
                self.fail(
                    out,
                    format!("restored {} sessions of {}", ids.len(), 3 * PER_KIND),
                );
            }
            Err(e) => {
                self.fail(out, format!("restore failed: {e}"));
                return;
            }
        }

        // The restored fleet serves: one operation on every session.
        let before = fleet_cost(&mut revived, &self.fleet);
        let t = Timed::start();
        tr.enter("server", "probe");
        one_op(&mut revived, &self.fleet, self.plain.events[0], &self.probe);
        tr.exit(3 * PER_KIND as u64);
        cycle_ns += out.add(t);
        self.cost_units += fleet_cost(&mut revived, &self.fleet) - before;
        let g = self.plain.globals[0];
        let want = Some(self.plain.step * (DRIVEN_OPS as i64 + 1));
        for &id in &self.fleet.plain.clone() {
            let got = revived
                .with_runtime(id, move |rt| rt.global(g).as_int())
                .expect("restored session is open");
            if got != want {
                ok = false;
                self.fail(
                    out,
                    format!("restored session {id}: global {got:?}, want {want:?}"),
                );
            }
        }

        out.sample(cycle_ns);
        if ok {
            out.ops += 1;
        }
    }
}

fn fleet_cost(server: &mut Server, fleet: &Fleet) -> u64 {
    fleet
        .plain
        .iter()
        .chain(&fleet.ctp)
        .chain(&fleet.sec)
        .map(|&id| {
            server
                .with_runtime(id, |rt| rt.cost.weighted_total())
                .expect("session is open")
        })
        .sum()
}

impl Workload for ControlPlane {
    fn run_slice(&mut self, dur: Duration, tr: &mut Tracer, out: &mut SliceOut) {
        let budget = dur.as_nanos() as u64;
        while out.timed_ns < budget {
            self.cycle(tr, out);
        }
    }

    fn cost_units(&mut self) -> u64 {
        self.cost_units
    }

    fn warmed(&mut self) -> bool {
        true
    }

    fn verify(&mut self) -> Vec<String> {
        // Every cycle checked its own outputs; report what they found.
        std::mem::take(&mut self.failures)
    }

    fn ladder(&mut self, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
        let per = |tr: &Tracer, layer, name| {
            let a = tr.agg(layer, name);
            ratio(a.total_ns, a.spans)
        };
        m.set("server.snapshot_us", per(tr, "server", "snapshot") / 1e3);
        m.set("server.restore_us", per(tr, "server", "restore") / 1e3);
        m.set("snap.image_bytes", self.image.len() as f64);
        let probe = tr.agg("server", "probe");
        m.set("server.raise_ns", probe.ns_per_count());
        m.set("server.allocs_per_raise", probe.allocs_per_count());

        // Compile side again, standalone, with the pass pipeline and
        // fusion the cycle itself does not run separately.
        compile_rung(&self.lab, budget.mul_f64(0.5), tr, m);

        // Standalone codec: the writer and reader on this fleet's own
        // kind of data — seeded payload bytes, scalars, marshalled values
        // and one module text per session.
        let payloads: Vec<Vec<u8>> = {
            let mut rng = Rng::new(0x5A4D, 0x62);
            (0..3 * PER_KIND)
                .map(|_| rng.bytes(FLEET_PAYLOAD))
                .collect()
        };
        let module = &self.plain.module;
        let encode = |w: &mut SnapWriter| {
            for (i, p) in payloads.iter().enumerate() {
                w.u64(i as u64);
                w.bool(i % 2 == 0);
                w.str("session");
                w.bytes(p);
                w.value(&Value::Int(i as i64));
                w.value(&Value::bytes(p.clone()));
                w.module(module);
            }
        };
        let mut frame = Vec::new();
        spend(budget.mul_f64(0.25), tr, "snap", "encode", || {
            let mut w = SnapWriter::new();
            encode(&mut w);
            frame = w.finish();
            frame.len() as u64
        });
        spend(budget.mul_f64(0.25), tr, "snap", "decode", || {
            let mut r = SnapReader::new(&frame).expect("own frame");
            for _ in 0..payloads.len() {
                let fields = (
                    r.take_u64().expect("u64"),
                    r.take_bool().expect("bool"),
                    r.take_str().expect("str"),
                    r.take_bytes().expect("bytes"),
                    r.take_value().expect("value"),
                    r.take_value().expect("value"),
                    r.take_module().expect("module"),
                );
                std::hint::black_box(fields);
            }
            r.finish().expect("frame consumed exactly");
            frame.len() as u64
        });
        m.set(
            "snap.encode_ns_per_kib",
            tr.agg("snap", "encode").ns_per_count() * 1024.0,
        );
        m.set(
            "snap.decode_ns_per_kib",
            tr.agg("snap", "decode").ns_per_count() * 1024.0,
        );
    }
}
