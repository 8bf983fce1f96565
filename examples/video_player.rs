//! The paper's video-player scenario end to end: profile the CTP-based
//! player, optimize its hot event chains, and compare sessions.
//!
//! ```text
//! cargo run --release --example video_player
//! ```

use pdo::{optimize, OptimizeOptions};
use pdo_ctp::video::NS_PER_UNIT;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, VideoPlayer};
use pdo_events::TraceConfig;
use pdo_profile::Profile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = ctp_program();
    let params = CtpParams {
        ack_drop_every: 50,
        clk_period_ns: 40_000_000, // controller fires once per 25fps frame
        ..Default::default()
    };

    // Profile a session.
    let mut endpoint = CtpEndpoint::new(&program, params)?;
    endpoint.open()?;
    endpoint.runtime_mut().set_trace_config(TraceConfig::full());
    let mut player = VideoPlayer::new(endpoint, 25);
    player.play(200)?;
    let mut endpoint = player.into_endpoint();
    let trace = endpoint.runtime_mut().take_trace();
    let profile = Profile::from_trace(&trace, 150);

    println!("event graph ({} nodes):", profile.event_graph.node_count());
    println!("{}", profile.event_graph.edge_listing(&program.module));
    println!("event chains at threshold 150:");
    for chain in profile.chains() {
        let names: Vec<&str> = chain
            .iter()
            .map(|&e| program.module.event_name(e))
            .collect();
        println!("  {}", names.join(" -> "));
    }

    // Optimize.
    let opt = optimize(
        &program.module,
        endpoint.runtime().registry(),
        &profile,
        &OptimizeOptions::new(150),
    );
    println!("\n{}", opt.report.render(&opt.module));

    // Compare sessions.
    let opt_program = program.with_module(opt.module.clone());
    let sessions = [
        ("original", &program, false),
        ("optimized", &opt_program, true),
    ];
    for (label, prog, install) in sessions {
        let mut e = CtpEndpoint::new(prog, params)?;
        if install {
            opt.install_chains(e.runtime_mut());
        }
        e.open()?;
        let mut p = VideoPlayer::new(e, 25);
        let stats = p.play(200)?;
        let cost = p.endpoint_mut().runtime().cost;
        println!(
            "{label:>9}: {} segments, {} units = {:.2} s of handler time on the modeled CPU, \
             fast-path hits {}",
            stats.segments_sent,
            stats.units(),
            (stats.units() * NS_PER_UNIT) as f64 / 1e9,
            cost.fastpath_hits,
        );
    }
    Ok(())
}
