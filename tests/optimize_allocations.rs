//! The allocation budget of `pdo::optimize`: the CTP video program,
//! profiled over the benchmark's 391-frame session and optimized at the
//! paper's T = 300, counted by the shared counting allocator
//! (`common/counting.rs`).
//!
//! The count depends only on the code, not on the host or the clock, so
//! the gate is exact: the budget is the count when it was set plus about
//! 3 %. A pass that goes back to allocating per block or per solve step
//! crosses it. Debug builds count more (the pipeline clones the module to
//! catch oscillation, and verifies it after every changing iteration), so
//! each profile has its own budget.

#[path = "common/counting.rs"]
mod counting;

use pdo::{optimize, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, VideoPlayer};
use pdo_events::TraceConfig;
use pdo_profile::Profile;

/// Allocations one `optimize` of the video profile may make: 2 301 in a
/// release build and 17 826 in a debug build when this was set (2 709 and
/// 18 234 while `inline` cloned each callee and CFG cleanup rebuilt its
/// tables every round; 6 537 and 22 062 while every dataflow solve
/// allocated one vector per block).
const BUDGET: u64 = if cfg!(debug_assertions) {
    18_360
} else {
    2_370
};

#[test]
fn optimize_stays_within_its_allocation_budget() {
    let program = ctp_program();
    let params = CtpParams {
        ack_drop_every: 50,
        clk_period_ns: 40_000_000,
        ..Default::default()
    };
    let mut endpoint = CtpEndpoint::new(&program, params).expect("endpoint");
    endpoint.open().expect("open");
    endpoint.runtime_mut().set_trace_config(TraceConfig::full());
    let mut player = VideoPlayer::new(endpoint, 25);
    player.play(391).expect("profiling session");
    let mut endpoint = player.into_endpoint();
    let profile = Profile::from_trace(&endpoint.runtime_mut().take_trace(), 300);
    let opts = OptimizeOptions::new(300);

    let (opt, allocs) = counting::count(|| {
        optimize(
            &program.module,
            endpoint.runtime().registry(),
            &profile,
            &opts,
        )
    });

    assert!(!opt.chains.is_empty(), "the video profile yields a chain");
    println!("optimize allocated {allocs} times (budget {BUDGET})");
    assert!(
        allocs <= BUDGET,
        "optimize allocated {allocs} times, over its budget of {BUDGET}"
    );
}
