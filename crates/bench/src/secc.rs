//! SecComm experiments: Fig 12 (push/pop times by packet size).

use pdo::{optimize, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::TraceConfig;
use pdo_profile::Profile;
use pdo_seccomm::crypto::{des_encrypt, keyed_md5, DesKey};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_PAPER};
use std::hint::black_box;

/// The Fig 12 packet sizes.
pub const SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// A prepared SecComm experiment.
pub struct SecLab {
    /// The unoptimized program (paper configuration).
    pub base: EventProgram,
    /// The optimizer-extended program.
    pub opt_program: EventProgram,
    /// The optimization artifacts.
    pub optimization: Optimization,
    /// The gathered profile.
    pub profile: Profile,
    keys: Keys,
}

impl SecLab {
    /// Profiles the push and pop chains and optimizes at `threshold`.
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration.
    pub fn prepare(threshold: u64) -> SecLab {
        let proto = seccomm_protocol();
        let base = proto.instantiate(CONFIG_PAPER).expect("paper config");
        let keys = Keys::default();
        let mut ep = Endpoint::new(&base, &keys).expect("endpoint");
        // The paper sends a dummy message first to initialize the
        // micro-protocols, then measures repeated sends.
        let _ = ep.push(b"dummy").expect("dummy push");
        ep.runtime_mut().set_trace_config(TraceConfig::full());
        let mut wires = Vec::new();
        for i in 0..100u32 {
            let msg = vec![i as u8; 256];
            wires.push(ep.push(&msg).expect("profile push"));
        }
        for w in &wires {
            let _ = ep.pop(w).expect("profile pop");
        }
        let trace = ep.runtime_mut().take_trace();
        let profile = Profile::from_trace(&trace, threshold);
        let optimization = optimize(
            &base.module,
            ep.runtime().registry(),
            &profile,
            &OptimizeOptions::new(threshold),
        );
        let opt_program = base.with_module(optimization.module.clone());
        SecLab {
            base,
            opt_program,
            optimization,
            profile,
            keys,
        }
    }

    /// A fresh endpoint (chains installed when `optimized`).
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration.
    pub fn endpoint(&self, optimized: bool) -> Endpoint {
        let program = if optimized {
            &self.opt_program
        } else {
            &self.base
        };
        let mut ep = Endpoint::new(program, &self.keys).expect("endpoint");
        if optimized {
            self.optimization.install_chains(ep.runtime_mut());
        }
        ep
    }
}

/// One Fig 12 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Row {
    /// Packet size in bytes.
    pub size: usize,
    /// Push time, original (ns).
    pub push_orig_ns: f64,
    /// Push time, optimized (ns).
    pub push_opt_ns: f64,
    /// Pop time, original (ns).
    pub pop_orig_ns: f64,
    /// Pop time, optimized (ns).
    pub pop_opt_ns: f64,
    /// Cost units of one push, original.
    pub push_orig_units: u64,
    /// Cost units of one push, optimized.
    pub push_opt_units: u64,
    /// Cost units of one pop, original.
    pub pop_orig_units: u64,
    /// Cost units of one pop, optimized.
    pub pop_opt_units: u64,
}

/// Runs the Fig 12 sweep: push and pop times per packet size, original and
/// optimized measured in `rounds` [`crate::interleaved`] rounds and reported
/// as `median_min`, so host drift lands on both sides of each ratio instead
/// of in it. Beside each time, the [`crate::warmed_units`] of one call.
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn fig12_rows(lab: &SecLab, rounds: usize) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    for size in SIZES {
        let msg = vec![0x3Cu8; size];
        let wire = lab.endpoint(false).push(&msg).expect("wire build");
        let mut eps = [lab.endpoint(false), lab.endpoint(true)];
        let push = crate::interleaved(2, rounds, crate::SAMPLES, |i| {
            eps[i].push(&msg).expect("push")
        });
        let pop = crate::interleaved(2, rounds, crate::SAMPLES, |i| {
            eps[i].pop(&wire).expect("pop")
        });
        let push_units = |optimized| {
            crate::warmed_units(&mut lab.endpoint(optimized), Endpoint::runtime_mut, |ep| {
                ep.push(&msg).expect("push")
            })
        };
        let pop_units = |optimized| {
            crate::warmed_units(&mut lab.endpoint(optimized), Endpoint::runtime_mut, |ep| {
                ep.pop(&wire).expect("pop")
            })
        };
        rows.push(Fig12Row {
            size,
            push_orig_ns: push[0].median_min(),
            push_opt_ns: push[1].median_min(),
            pop_orig_ns: pop[0].median_min(),
            pop_opt_ns: pop[1].median_min(),
            push_orig_units: push_units(false),
            push_opt_units: push_units(true),
            pop_orig_units: pop_units(false),
            pop_opt_units: pop_units(true),
        });
    }
    rows
}

/// The crypto kernels under every Fig 12 cell, timed alone: DES ns per
/// 8-byte block (ECB over 1 KiB) and keyed MD5 ns per KiB. The floor no
/// dispatch optimization can go below.
pub fn kernel_floor() -> (f64, f64) {
    let keys = Keys::default();
    let des = DesKey::new(&keys.des);
    let buf = vec![0x3Cu8; 1024];
    // 1 KiB of payload plus the PKCS#7 block.
    let blocks = (buf.len() / 8 + 1) as f64;
    let des_ns =
        crate::measure(|| des_encrypt(&des, black_box(&buf)), crate::SAMPLES).min_ns / blocks;
    let md5_ns = crate::measure(|| keyed_md5(&keys.mac, black_box(&buf)), crate::SAMPLES).min_ns;
    (des_ns, md5_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_optimizes_both_chains() {
        let lab = SecLab::prepare(50);
        let report = &lab.optimization.report;
        // msgFromUser, EncodeMsg, msgToNet, msgFromNet, DecodeMsg, msgToUser.
        assert!(
            report.events.len() >= 4,
            "{}",
            report.render(&lab.optimization.module)
        );
        assert!(report.total_subsumed() >= 2);
    }

    #[test]
    fn optimized_endpoint_is_byte_compatible() {
        let lab = SecLab::prepare(50);
        let mut orig = lab.endpoint(false);
        let mut opt = lab.endpoint(true);
        for len in [0usize, 64, 200, 1024] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let w1 = orig.push(&msg).unwrap();
            let w2 = opt.push(&msg).unwrap();
            assert_eq!(w1, w2, "len {len}");
            assert_eq!(orig.pop(&w1).unwrap(), msg);
            assert_eq!(opt.pop(&w2).unwrap(), msg);
        }
        assert!(opt.runtime().cost.fastpath_hits > 0);
    }

    #[test]
    fn optimization_reduces_dispatch_work() {
        let lab = SecLab::prepare(50);
        let msg = vec![1u8; 256];
        let mut orig = lab.endpoint(false);
        let mut opt = lab.endpoint(true);
        for _ in 0..10 {
            let _ = orig.push(&msg).unwrap();
            let _ = opt.push(&msg).unwrap();
        }
        let c_orig = orig.runtime().cost;
        let c_opt = opt.runtime().cost;
        assert!(c_opt.marshaled_values < c_orig.marshaled_values);
        assert!(c_opt.instrs < c_orig.instrs);
    }
}
