//! Ablations over the optimizer's design choices (§3.2, §5).
//!
//! Each configuration disables or enables one mechanism; the measurement is
//! the SecComm push-chain latency (a pure synchronous chain, so every
//! mechanism is exercised) plus abstract cost counters.

use pdo::{optimize, OptimizeOptions};
use pdo_events::TraceConfig;
use pdo_profile::Profile;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_PAPER};

/// A named optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationConfig {
    /// Display name.
    pub name: &'static str,
    /// Optimize at all (false = generic dispatch baseline).
    pub enabled: bool,
    /// Subsume child raises.
    pub subsume: bool,
    /// Inline handler bodies.
    pub inline: bool,
    /// Run the §3.2.2 compiler passes.
    pub compiler_passes: bool,
}

/// The standard ablation ladder.
pub const CONFIGS: [AblationConfig; 6] = [
    AblationConfig {
        name: "generic (no optimization)",
        enabled: false,
        subsume: false,
        inline: false,
        compiler_passes: false,
    },
    AblationConfig {
        name: "merge only",
        enabled: true,
        subsume: false,
        inline: false,
        compiler_passes: false,
    },
    AblationConfig {
        name: "merge + subsume",
        enabled: true,
        subsume: true,
        inline: false,
        compiler_passes: false,
    },
    AblationConfig {
        name: "merge + subsume + inline",
        enabled: true,
        subsume: true,
        inline: true,
        compiler_passes: false,
    },
    AblationConfig {
        name: "full (+ compiler passes)",
        enabled: true,
        subsume: true,
        inline: true,
        compiler_passes: true,
    },
    AblationConfig {
        name: "full, per-event chains (Fig 14)",
        enabled: true,
        subsume: false,
        inline: true,
        compiler_passes: true,
    },
];

/// One ablation result row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration name.
    pub name: &'static str,
    /// Push latency (ns).
    pub push_ns: f64,
    /// Abstract weighted cost for one push.
    pub weighted_cost: u64,
    /// Super-handler instruction count (0 for the generic baseline).
    pub super_instrs: usize,
}

/// Builds an endpoint for one ablation configuration (profiling once per
/// call; the cost of re-profiling keeps each row independent).
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn endpoint_for(config: &AblationConfig, threshold: u64) -> (Endpoint, usize) {
    let proto = seccomm_protocol();
    let base = proto.instantiate(CONFIG_PAPER).expect("paper config");
    let keys = Keys::default();
    if !config.enabled {
        return (Endpoint::new(&base, &keys).expect("endpoint"), 0);
    }

    let mut ep = Endpoint::new(&base, &keys).expect("endpoint");
    ep.runtime_mut().set_trace_config(TraceConfig::full());
    let mut wires = Vec::new();
    for i in 0..100u32 {
        wires.push(ep.push(&vec![i as u8; 256]).expect("profile push"));
    }
    for w in &wires {
        let _ = ep.pop(w).expect("profile pop");
    }
    let profile = Profile::from_trace(&ep.runtime_mut().take_trace(), threshold);

    let mut opts = OptimizeOptions::new(threshold);
    opts.subsume = config.subsume;
    opts.inline = config.inline;
    opts.compiler_passes = config.compiler_passes;
    let optimization = optimize(&base.module, ep.runtime().registry(), &profile, &opts);
    let super_instrs = optimization
        .report
        .events
        .iter()
        .map(|e| e.instrs_optimized)
        .sum();

    let opt_program = base.with_module(optimization.module.clone());
    let mut out = Endpoint::new(&opt_program, &keys).expect("opt endpoint");
    optimization.install_chains(out.runtime_mut());
    (out, super_instrs)
}

/// Runs the ablation ladder: every configuration's push timed in `rounds`
/// [`crate::interleaved`] rounds, one side per configuration, beside the
/// [`crate::warmed_units`] of one push.
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn ablation_rows(threshold: u64, rounds: usize) -> Vec<AblationRow> {
    let msg = vec![0x5Au8; 256];
    let push = |ep: &mut Endpoint| ep.push(&msg).expect("push");
    let (mut eps, super_instrs): (Vec<_>, Vec<_>) = CONFIGS
        .iter()
        .map(|config| endpoint_for(config, threshold))
        .unzip();
    let timed = crate::interleaved(eps.len(), rounds, crate::SAMPLES, |i| push(&mut eps[i]));
    CONFIGS
        .iter()
        .zip(eps.iter_mut().zip(timed))
        .zip(super_instrs)
        .map(|((config, (ep, side)), super_instrs)| AblationRow {
            name: config.name,
            push_ns: side.median_min(),
            weighted_cost: crate::warmed_units(ep, Endpoint::runtime_mut, push),
            super_instrs,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_stays_byte_compatible() {
        let msg = vec![9u8; 128];
        let (mut reference, _) = endpoint_for(&CONFIGS[0], 50);
        let expected = reference.push(&msg).unwrap();
        for config in &CONFIGS[1..] {
            let (mut ep, _) = endpoint_for(config, 50);
            assert_eq!(
                ep.push(&msg).unwrap(),
                expected,
                "config `{}` diverged",
                config.name
            );
        }
    }

    #[test]
    fn abstract_cost_declines_down_the_ladder() {
        let rows = ablation_rows(50, 1);
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("no row `{name}`: {rows:#?}"))
        };
        let generic = row("generic (no optimization)").weighted_cost;
        let full = row("full (+ compiler passes)");
        assert!(
            full.weighted_cost < generic,
            "full optimization must beat generic: {rows:#?}"
        );
        // Merging alone already removes marshaling + registry walks.
        assert!(row("merge only").weighted_cost < generic);
        // Compiler passes shrink the super-handler body.
        assert!(full.super_instrs <= row("merge + subsume + inline").super_instrs);
        // Fig 14 as per-event chains: still well under generic, and no
        // dearer than the in-body version guards it replaced (99 units).
        let per_event = row("full, per-event chains (Fig 14)").weighted_cost;
        assert!(per_event < generic, "{rows:#?}");
        assert!(per_event <= 99, "{rows:#?}");
    }
}
