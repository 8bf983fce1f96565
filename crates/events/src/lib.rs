//! # pdo-events — the event runtime
//!
//! A Cactus-model event system (paper §2): *events* are named stimuli,
//! *handlers* are IR functions bound to events through a dynamic *registry*,
//! and raises are **synchronous** (handlers run before the raiser continues),
//! **asynchronous** (enqueued), or **timed** (enqueued with a virtual-clock
//! delay).
//!
//! The runtime deliberately models the overheads the paper attributes to
//! event-based execution so that optimizations have something real to
//! remove:
//!
//! * **registry lookup** — generic dispatch walks the registry and clones
//!   the binding list (bindings may change while handlers run);
//! * **indirect invocation** — handlers are called through their registry
//!   entry, never directly;
//! * **argument marshaling** — the generic path packs arguments into a fresh
//!   boxed vector with a type-tag scan per handler, mirroring the varargs
//!   packing of Cactus/Xt (see [`marshal`]);
//! * **state maintenance** — `lock`/`unlock` IR instructions perform real
//!   atomic read-modify-write operations on per-global lock words.
//!
//! The optimizer in the `pdo` crate installs [`spec::CompiledChain`]s: a
//! guarded fast path that, while the binding lists the chain was compiled
//! against are still the live ones, invokes one merged super-handler
//! directly with no lookup and no marshaling. Otherwise the raise falls back
//! to the generic path, preserving semantics under dynamic re-binding
//! (§3.2.1, §3.3).
//!
//! ```
//! use pdo_ir::{Module, FunctionBuilder, Value, RaiseMode};
//! use pdo_events::Runtime;
//!
//! let mut m = Module::new();
//! let ping = m.add_event("Ping");
//! let counter = m.add_global("counter", Value::Int(0));
//! let mut b = FunctionBuilder::new("on_ping", 1);
//! let v = b.load_global(counter);
//! let s = b.bin(pdo_ir::BinOp::Add, v, b.param(0));
//! b.store_global(counter, s);
//! b.ret(None);
//! let h = m.add_function(b.finish());
//!
//! let mut rt = Runtime::new(m);
//! rt.bind(ping, h, 0)?;
//! rt.raise(ping, RaiseMode::Sync, &[Value::Int(5)])?;
//! rt.raise(ping, RaiseMode::Async, &[Value::Int(2)])?;
//! rt.run_until_idle()?;
//! assert_eq!(rt.global(counter), &Value::Int(7));
//! # Ok::<(), pdo_events::RuntimeError>(())
//! ```

pub mod fault;
pub mod marshal;
mod observe;
pub mod registry;
pub mod runtime;
pub mod sched;
pub mod spec;
pub mod trace;
pub mod wire;

pub use fault::{corrupt_value, FaultInjector, FaultKind, FaultPolicy, FaultSpec};
pub use registry::{Binding, Registry};
pub use runtime::{EpochHook, ObservableStats, Runtime, RuntimeConfig, RuntimeError, RuntimeStats};
pub use sched::{Pending, QueuedTrace, Scheduler, TimerEntry, VirtualClock};
pub use spec::{CompiledChain, Guard, SpecTable};
pub use trace::{Trace, TraceConfig, TraceRecord};
pub use wire::{Arrival, FaultyWire, SequencedReceiver, Transmit, WireFaults, WireStats};

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64: the standard 64-bit mix, and the first output of the
/// splitmix64 stream seeded with `x`. Stepped, it is every seeded stream
/// of the product crates (wire faults, fault plans, load arrivals).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws the next value of the splitmix64 stream held in `state`.
pub(crate) fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    out
}
