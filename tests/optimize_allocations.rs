//! The allocation budget of `pdo::optimize`: the CTP video program,
//! profiled over the benchmark's 391-frame session and optimized at the
//! paper's T = 300, counted by this binary's own allocator.
//!
//! The count depends only on the code, not on the host or the clock, so
//! the gate is exact: the budget is the count when it was set plus about
//! 3 %. A pass that goes back to allocating per block or per solve step
//! crosses it. Debug builds count more (the pipeline clones the module to
//! catch oscillation, and verifies it after every changing iteration), so
//! each profile has its own budget.

use pdo::{optimize, OptimizeOptions};
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, VideoPlayer};
use pdo_events::TraceConfig;
use pdo_profile::Profile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts the allocations of the thread that set `COUNTING`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and destructor-free, so reading it from inside the
    // allocator can neither allocate nor observe a torn-down key.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one `optimize` of the video profile may make: 2 709 in a
/// release build and 18 234 in a debug build when this was set (6 537 and
/// 22 062 while every dataflow solve allocated one vector per block).
const BUDGET: u64 = if cfg!(debug_assertions) {
    18_780
} else {
    2_790
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

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Relaxed);
    let opt = optimize(
        &program.module,
        endpoint.runtime().registry(),
        &profile,
        &opts,
    );
    let allocs = ALLOCS.load(Relaxed) - before;
    COUNTING.with(|c| c.set(false));

    assert!(!opt.chains.is_empty(), "the video profile yields a chain");
    println!("optimize allocated {allocs} times (budget {BUDGET})");
    assert!(
        allocs <= BUDGET,
        "optimize allocated {allocs} times, over its budget of {BUDGET}"
    );
}
