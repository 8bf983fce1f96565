//! The offline profiling workflow (paper §3.1): run instrumented, save the
//! profile as a checksummed `pdo-snap` frame, reload it, optimize against
//! it — the two phases can happen in different processes.
//!
//! ```text
//! cargo run --example profile_workflow
//! ```

use pdo::{optimize, OptimizeOptions};
use pdo_events::TraceConfig;
use pdo_profile::{load_profile, save_profile, Profile};
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_PAPER};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_PAPER)?;
    let keys = Keys::default();
    let path = std::env::temp_dir().join("pdo-seccomm-profile.pdosnap");

    // ---- Phase 1: the instrumented run (could be its own process). ------
    {
        let mut ep = Endpoint::new(&program, &keys)?;
        ep.runtime_mut().set_trace_config(TraceConfig::full());
        let mut wires = Vec::new();
        for i in 0..200u32 {
            wires.push(ep.push(&[i as u8; 128])?);
        }
        for w in &wires {
            let _ = ep.pop(w)?;
        }
        let profile = Profile::from_trace(&ep.runtime_mut().take_trace(), 100);
        save_profile(&profile, &path)?;
        println!(
            "phase 1: saved profile to {} ({} graph nodes, {} handler-graph events)",
            path.display(),
            profile.event_graph.node_count(),
            profile.handler_graph.sequences.len(),
        );
    }

    // ---- Phase 2: offline optimization against the saved artifact. ------
    {
        let profile = load_profile(&path)?;
        println!(
            "phase 2: loaded profile (threshold {}), chains: {:?}",
            profile.threshold,
            profile
                .chains()
                .iter()
                .map(|c| c
                    .iter()
                    .map(|&e| program.module.event_name(e).to_string())
                    .collect::<Vec<_>>()
                    .join("->"))
                .collect::<Vec<_>>()
        );

        // The registry state must match the profiled configuration; build
        // it the same way (same binding plan => same versions).
        let reference = Endpoint::new(&program, &keys)?;
        let opt = optimize(
            &program.module,
            reference.runtime().registry(),
            &profile,
            &OptimizeOptions::new(profile.threshold),
        );
        println!("\n{}", opt.report.render(&opt.module));

        // Deploy.
        let opt_program = program.with_module(opt.module.clone());
        let mut ep = Endpoint::new(&opt_program, &keys)?;
        opt.install_chains(ep.runtime_mut());
        let wire = ep.push(b"deployed")?;
        assert_eq!(ep.pop(&wire)?, b"deployed");
        println!(
            "deployed: roundtrip ok, fast-path hits = {}",
            ep.runtime().cost.fastpath_hits
        );
    }

    let _ = std::fs::remove_file(&path);
    Ok(())
}
