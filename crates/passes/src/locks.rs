//! State-maintenance optimizations: lock coalescing and redundant global
//! load/store elimination.
//!
//! The paper lists "state maintenance (synchronization and locking) costs
//! for global variables" and "redundant initializations and code fragments
//! for events with multiple handlers" among the overheads its optimizations
//! remove (§3.2). After handler merging, adjacent handlers' critical
//! sections on the same state become `unlock g; lock g` pairs and repeated
//! `load g` instructions, often with a native call, a deferred raise or
//! another global's lock between them and a block edge in the way. The two
//! passes here forward globals across the whole CFG, then delete the
//! critical sections that forwarding leaves empty.
//!
//! Both ask one question of each instruction, `touches`: which globals
//! can it read, write or lock? The answer states what the runtime already
//! guarantees, not what an arbitrary CFG node might do.

use crate::analysis::forward;
use pdo_ir::{Function, GlobalId, Instr, RaiseMode, Reg};

/// The globals one instruction may read, write or lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touches {
    /// No global.
    Nothing,
    /// Only this one: it loads, stores, folds or locks it.
    Global(GlobalId),
    /// Any global: the instruction runs handler code.
    Every,
}

impl Touches {
    fn covers(self, g: GlobalId) -> bool {
        match self {
            Touches::Nothing => false,
            Touches::Global(h) => h == g,
            Touches::Every => true,
        }
    }
}

/// The effect query both passes share. Only a `Call` and a `Raise` in
/// `Sync` mode run other handler code, so only they may touch any global.
/// Three kinds of instruction are *not* barriers:
///
/// * `CallNative`: the interpreter hands a native only its argument values
///   (`Env::call_native` takes `&[Value]`), and none of the runtime's
///   reserved natives (bind, unbind, timer cancel, clock, fuel boundary)
///   reads or writes a global.
/// * `Raise` in `Async` or `Timed` mode: the runtime only enqueues the
///   event; its handlers run after this one returns.
/// * `Lock`/`Unlock` of a global: handler execution is atomic (§2.3,
///   "handler execution is atomic with respect to concurrency"), so no
///   other activation runs in an unlocked window. A lock operation touches
///   only its own global, and changes no value.
fn touches(instr: &Instr) -> Touches {
    match instr {
        Instr::LoadGlobal { global, .. }
        | Instr::StoreGlobal { global, .. }
        | Instr::Lock { global }
        | Instr::Unlock { global }
        | Instr::GlobalFold { global, .. } => Touches::Global(*global),
        Instr::Call { .. }
        | Instr::Raise {
            mode: RaiseMode::Sync,
            ..
        } => Touches::Every,
        _ => Touches::Nothing,
    }
}

/// Deletes two kinds of redundant lock traffic within a block:
///
/// * an `unlock g; …; lock g` pair when nothing between them can observe
///   the lock (no calls, natives, raises, or other lock operations).
///   Deleting the pair *extends* the critical section, which is always
///   safe under the runtime's handler-atomicity guarantee (§2.3: "handler
///   execution is atomic with respect to concurrency");
/// * a `lock g; …; unlock g` section whose body no longer `touches` `g`,
///   typically once load forwarding has turned its only load into a `mov`
///   that copy propagation and DCE then removed. With nothing of `g`'s
///   inside, the section protects nothing.
///
/// Returns `true` if `f` changed.
pub fn coalesce_function(f: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut f.blocks {
        while let Some((i, j)) =
            find_pair(&block.instrs).or_else(|| find_empty_section(&block.instrs))
        {
            // Remove j first so i's index stays valid.
            block.instrs.remove(j);
            block.instrs.remove(i);
            changed = true;
        }
    }
    changed
}

/// Finds `(unlock_index, lock_index)` of the first removable pair.
fn find_pair(instrs: &[Instr]) -> Option<(usize, usize)> {
    for (i, instr) in instrs.iter().enumerate() {
        let Instr::Unlock { global } = instr else {
            continue;
        };
        for (j, candidate) in instrs.iter().enumerate().skip(i + 1) {
            match candidate {
                Instr::Lock { global: g2 } if g2 == global => return Some((i, j)),
                // Anything that could observe or contend the lock ends the
                // window.
                Instr::Lock { .. }
                | Instr::Unlock { .. }
                | Instr::Call { .. }
                | Instr::CallNative { .. }
                | Instr::Raise { .. } => break,
                _ => continue,
            }
        }
    }
    None
}

/// Finds `(lock_index, unlock_index)` of the first `lock g; …; unlock g`
/// whose body does not touch `g`.
fn find_empty_section(instrs: &[Instr]) -> Option<(usize, usize)> {
    instrs.iter().enumerate().find_map(|(i, instr)| {
        let Instr::Lock { global } = *instr else {
            return None;
        };
        let (j, end) = instrs
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, c)| touches(c).covers(global))?;
        matches!(end, Instr::Unlock { global: g2 } if *g2 == global).then_some((i, j))
    })
}

/// What forwarding makes of one instruction.
enum Rewrite {
    Keep,
    /// The load becomes a `mov` from this register.
    Forward(Reg),
    /// The store writes back the value its global already holds.
    Delete,
}

/// Forwards globals held in registers across the whole CFG: a `load g`
/// whose value is already in a register (from an earlier `load g` or
/// `store g` on every path to it) becomes a `mov`; a
/// `store g, r` that would write back the value `g` already holds is
/// deleted.
///
/// A forward dataflow on the crate's one solver (`analysis::forward`): a
/// block's entry state is the meet of its reached predecessors' exit
/// states, where `g → r` survives only if every one of them holds the same
/// `r`. The entry block starts empty. What forgets `g → r`: a redefinition
/// of `r`, a `bset` on `r`, a fold of `g`, and anything that `touches`
/// every global.
///
/// The pass only turns loads into `mov`s and deletes stores of the value
/// `g` already holds, so global state at every instruction boundary — and
/// so at every trap, `OutOfFuel` and fuel boundary — is unchanged.
///
/// Returns `true` if `f` changed.
pub fn forward_function(f: &mut Function) -> bool {
    // The globals a register can come to hold, sorted: a state is one
    // `Option<Reg>` per entry, the register known to hold that global.
    let mut slots: Vec<GlobalId> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|i| match i {
            Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => Some(*global),
            _ => None,
        })
        .collect();
    if slots.is_empty() {
        return false;
    }
    slots.sort_unstable();
    slots.dedup();
    // A global held in one register at an exit and another (or none) at
    // the entry is held in none.
    let forgets = |e: &mut Option<Reg>, x| *e != x && e.take().is_some();
    // A block no path reaches holds nothing.
    let entry = forward(f, vec![None; slots.len()], None, forgets, |held, instr| {
        transfer(held, &slots, instr);
    });

    let mut changed = false;
    let mut held = vec![None; slots.len()];
    let mut dead = Vec::new();
    for (b, block) in f.blocks.iter_mut().enumerate() {
        held.copy_from_slice(entry.entry(b));
        for (idx, instr) in block.instrs.iter_mut().enumerate() {
            match transfer(&mut held, &slots, instr) {
                Rewrite::Keep => {}
                Rewrite::Forward(src) => {
                    let dst = instr.def().expect("a forwarded load defines a register");
                    *instr = Instr::Mov { dst, src };
                    changed = true;
                }
                Rewrite::Delete => {
                    dead.push(idx);
                    changed = true;
                }
            }
        }
        if !dead.is_empty() {
            let mut idx = 0;
            block.instrs.retain(|_| {
                idx += 1;
                dead.binary_search(&(idx - 1)).is_err()
            });
            dead.clear();
        }
    }
    changed
}

/// Applies one instruction to `held` (indexed as `slots`) and says what
/// forwarding makes of it.
fn transfer(held: &mut [Option<Reg>], slots: &[GlobalId], instr: &Instr) -> Rewrite {
    let slot = |g: &GlobalId| slots.binary_search(g).ok();
    match instr {
        _ if touches(instr) == Touches::Every => held.fill(None),
        Instr::LoadGlobal { dst, global } => {
            let s = slot(global).expect("every loaded global has a slot");
            let from = held[s].filter(|r| r != dst);
            forget(held, *dst);
            // A forwarded load leaves `g` with the register it came from,
            // as the `mov` it becomes would: the state is the same when the
            // rewritten code is walked again, and a load inside a loop does
            // not displace the register the back edge brings in.
            held[s] = Some(from.unwrap_or(*dst));
            if let Some(r) = from {
                return Rewrite::Forward(r);
            }
        }
        Instr::StoreGlobal { global, src } => {
            let s = slot(global).expect("every stored global has a slot");
            if held[s] == Some(*src) {
                return Rewrite::Delete;
            }
            held[s] = Some(*src);
        }
        // A fused fold writes its global with a value held in no register.
        Instr::GlobalFold { global, .. } => {
            if let Some(s) = slot(global) {
                held[s] = None;
            }
        }
        // In-place buffer mutation diverges the register from the global's
        // snapshot.
        Instr::BytesSet { bytes, .. } => forget(held, *bytes),
        other => {
            if let Some(d) = other.def() {
                forget(held, d);
            }
        }
    }
    Rewrite::Keep
}

/// Forgets every global `r` was known to hold.
fn forget(held: &mut [Option<Reg>], r: Reg) {
    for h in held.iter_mut().filter(|h| **h == Some(r)) {
        *h = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::interp::{call, BasicEnv};
    use pdo_ir::parse::parse_module;
    use pdo_ir::{Module, NativeId, Value};

    /// Runs `pass` on every function of `m`; whether any changed.
    fn on_module(m: &mut Module, pass: fn(&mut Function) -> bool) -> bool {
        m.functions
            .iter_mut()
            .fold(false, |changed, f| pass(f) | changed)
    }

    fn count(m: &Module, pred: impl Fn(&Instr) -> bool) -> usize {
        let f = &m.functions[m.function_by_name("f").unwrap().index()];
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| pred(i))
            .count()
    }

    /// A module whose `@f(1)` has `body` (blocks from `b0`), with `E`,
    /// globals `g` and `h`, native `w` (which echoes its first argument)
    /// and an empty `@k` to call.
    fn module(body: &str) -> Module {
        let text = format!(
            "event E\n\
             global g = int 7\n\
             global h = int 0\n\
             native w\n\
             func @k(0) {{\nb0:\n  ret\n}}\n\
             func @f(1) {{\n{body}\n}}\n"
        );
        parse_module(&text).unwrap()
    }

    /// `r1 = load $g`, then `between`, then `r2 = load $g`.
    fn load_twice_around(between: &str) -> String {
        format!("b0:\nr1 = load $g\n{between}\nr2 = load $g\nr3 = add r1, r2\nret r3")
    }

    /// Runs forwarding on `@f` with `body`, checks that it computes what it
    /// did on a positive and a negative argument, and returns how many
    /// loads are left.
    fn loads_after_forwarding(body: &str) -> usize {
        let mut m = module(body);
        let args = [[Value::Int(5)], [Value::Int(-5)]];
        let before = args.each_ref().map(|a| exec(&m, "f", a));
        on_module(&mut m, forward_function);
        pdo_ir::verify_module(&m).unwrap();
        assert_eq!(args.each_ref().map(|a| exec(&m, "f", a)), before);
        count(&m, |i| matches!(i, Instr::LoadGlobal { .. }))
    }

    fn exec(m: &Module, name: &str, args: &[Value]) -> (Value, Vec<Value>, u64) {
        let id = m.function_by_name(name).unwrap();
        let mut env = BasicEnv::new(m);
        for n in 0..m.natives.len() {
            env.bind_native(NativeId::from_index(n), |args| {
                Ok(args.first().cloned().unwrap_or(Value::Unit))
            });
        }
        let r = call(m, &mut env, id, args).unwrap();
        let globals = (0..m.globals.len())
            .map(|g| env.global(GlobalId::from_index(g)).clone())
            .collect();
        (r, globals, env.cost.lock_ops)
    }

    #[test]
    fn coalesces_adjacent_unlock_lock() {
        let text = "global g = int 0\n\
             func @f(1) {\n\
             b0:\n\
               lock $g\n\
               store $g, r0\n\
               unlock $g\n\
               lock $g\n\
               r1 = load $g\n\
               unlock $g\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        let before = exec(&m, "f", &[Value::Int(5)]);
        assert!(on_module(&mut m, coalesce_function));
        pdo_ir::verify_module(&m).unwrap();
        let after = exec(&m, "f", &[Value::Int(5)]);
        assert_eq!(before.0, after.0);
        assert_eq!(before.1, after.1);
        assert_eq!(before.2, 4);
        assert_eq!(after.2, 2);
    }

    #[test]
    fn call_between_blocks_coalescing() {
        let text = "global g = int 0\n\
             native w\n\
             func @f(1) {\n\
             b0:\n\
               unlock $g\n\
               r1 = native !w(r0)\n\
               lock $g\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(!on_module(&mut m, coalesce_function));
    }

    #[test]
    fn different_globals_not_paired() {
        let text = "global a = int 0\n\
             global b = int 0\n\
             func @f(0) {\n\
             b0:\n\
               unlock $a\n\
               lock $b\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(!on_module(&mut m, coalesce_function));
    }

    #[test]
    fn forwards_repeated_loads() {
        let text = "global g = int 7\n\
             func @f(0) {\n\
             b0:\n\
               r0 = load $g\n\
               r1 = load $g\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(on_module(&mut m, forward_function));
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Mov { src: Reg(0), .. }
        ));
        assert_eq!(exec(&m, "f", &[]).0, Value::Int(14));
    }

    #[test]
    fn store_then_load_forwarded() {
        let text = "global g = int 0\n\
             func @f(1) {\n\
             b0:\n\
               store $g, r0\n\
               r1 = load $g\n\
               ret r1\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(on_module(&mut m, forward_function));
        assert!(matches!(
            m.functions[0].blocks[0].instrs[1],
            Instr::Mov { src: Reg(0), .. }
        ));
        let (r, globals, _) = exec(&m, "f", &[Value::Int(9)]);
        assert_eq!(r, Value::Int(9));
        assert_eq!(globals[0], Value::Int(9));
    }

    #[test]
    fn redundant_store_removed() {
        let text = "global g = int 0\n\
             func @f(1) {\n\
             b0:\n\
               store $g, r0\n\
               store $g, r0\n\
               ret\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(on_module(&mut m, forward_function));
        assert_eq!(
            m.functions[0].blocks[0]
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::StoreGlobal { .. }))
                .count(),
            1
        );
        assert_eq!(exec(&m, "f", &[Value::Int(3)]).1[0], Value::Int(3));
    }

    #[test]
    fn raise_is_a_barrier() {
        let text = "event E\n\
             global g = int 7\n\
             func @f(0) {\n\
             b0:\n\
               r0 = load $g\n\
               raise sync %E()\n\
               r1 = load $g\n\
               r2 = add r0, r1\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        assert!(!on_module(&mut m, forward_function));
    }

    #[test]
    fn register_redefinition_invalidates_forwarding() {
        let text = "global g = int 7\n\
             func @f(0) {\n\
             b0:\n\
               r0 = load $g\n\
               r1 = const int 0\n\
               r0 = mov r1\n\
               r2 = load $g\n\
               ret r2\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        on_module(&mut m, forward_function);
        // The second load must NOT become `mov r0` (r0 was clobbered).
        assert!(matches!(
            m.functions[0].blocks[0].instrs[3],
            Instr::LoadGlobal { .. }
        ));
        assert_eq!(exec(&m, "f", &[]).0, Value::Int(7));
    }

    #[test]
    fn bset_on_held_register_invalidates() {
        let text = "global g = bytes 00\n\
             func @f(0) {\n\
             b0:\n\
               r0 = load $g\n\
               r1 = const int 0\n\
               r2 = const int 9\n\
               bset r0, r1, r2\n\
               r3 = load $g\n\
               ret r3\n\
             }\n";
        let mut m = parse_module(text).unwrap();
        on_module(&mut m, forward_function);
        assert!(matches!(
            m.functions[0].blocks[0].instrs[4],
            Instr::LoadGlobal { .. }
        ));
        // Global is unchanged by the register-local mutation.
        assert_eq!(exec(&m, "f", &[]).0, Value::bytes(vec![0]));
    }

    #[test]
    fn forwards_across_a_native() {
        assert_eq!(
            loads_after_forwarding(&load_twice_around("r5 = native !w(r0)")),
            1
        );
    }

    #[test]
    fn forwards_across_an_async_raise() {
        assert_eq!(
            loads_after_forwarding(&load_twice_around("raise async %E(r0)")),
            1
        );
    }

    #[test]
    fn forwards_across_a_timed_raise() {
        let between = "r5 = const int 3\nraise timed %E(r5, r0)";
        assert_eq!(loads_after_forwarding(&load_twice_around(between)), 1);
    }

    #[test]
    fn forwards_across_lock_operations() {
        let between = "lock $h\nstore $h, r0\nunlock $h\nlock $g\nunlock $g";
        assert_eq!(loads_after_forwarding(&load_twice_around(between)), 1);
    }

    #[test]
    fn store_inside_a_lock_records_its_value() {
        let body = "b0:\nlock $g\nstore $g, r0\nunlock $g\njump b1\nb1:\nr2 = load $g\nret r2";
        assert_eq!(loads_after_forwarding(body), 0);
    }

    #[test]
    fn forwards_through_a_diamond() {
        let body = "b0:\nr1 = load $g\nr4 = const int 0\nr5 = lt r0, r4\nbr r5, b1, b2\n\
                    b1:\nr6 = const int 1\njump b3\n\
                    b2:\njump b3\n\
                    b3:\nr2 = load $g\nr3 = add r1, r2\nret r3";
        assert_eq!(loads_after_forwarding(body), 1);
    }

    #[test]
    fn forwards_around_a_loop() {
        // The load in the loop and the one after it both read `r1`.
        let body = "b0:\nr1 = load $g\nr4 = const int 0\nr6 = const int 30\njump b1\n\
                    b1:\nr2 = load $g\nr4 = add r4, r2\nr5 = lt r4, r6\nbr r5, b1, b2\n\
                    b2:\nr3 = load $g\nr3 = add r3, r4\nret r3";
        assert_eq!(loads_after_forwarding(body), 1);
    }

    #[test]
    fn no_forwarding_across_handler_code() {
        for between in ["raise sync %E()", "r5 = call @k()"] {
            assert_eq!(
                loads_after_forwarding(&load_twice_around(between)),
                2,
                "{between}"
            );
        }
    }

    #[test]
    fn no_forwarding_at_a_join_of_different_registers() {
        let body = "b0:\nr4 = const int 0\nr5 = lt r0, r4\nbr r5, b1, b2\n\
                    b1:\nr1 = load $g\njump b3\n\
                    b2:\nr2 = load $g\njump b3\n\
                    b3:\nr3 = load $g\nret r3";
        assert_eq!(loads_after_forwarding(body), 3);
    }

    #[test]
    fn no_forwarding_after_a_redefinition_on_one_path() {
        let body = "b0:\nr1 = load $g\nr4 = const int 0\nr5 = lt r0, r4\nbr r5, b1, b2\n\
                    b1:\nr1 = const int 0\njump b3\n\
                    b2:\njump b3\n\
                    b3:\nr3 = load $g\nr3 = add r3, r1\nret r3";
        assert_eq!(loads_after_forwarding(body), 2);
    }

    #[test]
    fn empty_critical_sections_are_deleted() {
        for inside in [
            "r1 = add r0, r0",
            "r1 = native !w(r0)",
            "raise async %E(r0)",
            "lock $h\nstore $h, r0\nunlock $h",
        ] {
            let mut m = module(&format!("b0:\nlock $g\n{inside}\nunlock $g\nret"));
            let before = exec(&m, "f", &[Value::Int(5)]);
            assert!(on_module(&mut m, coalesce_function), "{inside}");
            pdo_ir::verify_module(&m).unwrap();
            let after = exec(&m, "f", &[Value::Int(5)]);
            assert_eq!((&after.0, &after.1), (&before.0, &before.1), "{inside}");
            assert_eq!(
                count(
                    &m,
                    |i| matches!(i, Instr::Lock { global } if global.index() == 0)
                ),
                0,
                "{inside}"
            );
        }
    }

    #[test]
    fn critical_sections_that_touch_their_global_are_kept() {
        for inside in [
            "r1 = load $g",
            "store $g, r0",
            "gfold add $g, r0",
            "r1 = call @k()",
            "raise sync %E()",
        ] {
            let mut m = module(&format!("b0:\nlock $g\n{inside}\nunlock $g\nret"));
            assert!(!on_module(&mut m, coalesce_function), "{inside}");
        }
    }

    /// Two merged handlers (PAPER §3.2): the first stores `last`, the
    /// second locks and reloads it behind the fuel-boundary native the
    /// optimizer puts between segments. The reload becomes a `mov`, the
    /// `mov` goes, and so does the critical section around it.
    #[test]
    fn pipeline_deletes_the_section_forwarding_empties() {
        let mut m = module(
            "b0:\nr1 = native !w(r0)\nlock $g\nstore $g, r1\nunlock $g\n\
             r5 = native !w(r0)\n\
             lock $g\nr2 = load $g\nunlock $g\n\
             lock $h\nr3 = load $h\nr4 = add r3, r2\nstore $h, r4\nunlock $h\nret",
        );
        let before = exec(&m, "f", &[Value::Int(5)]);
        crate::PassManager::standard().run(&mut m);
        let after = exec(&m, "f", &[Value::Int(5)]);
        assert_eq!((&after.0, &after.1), (&before.0, &before.1));
        assert_eq!((before.2, after.2), (6, 4));
    }
}
