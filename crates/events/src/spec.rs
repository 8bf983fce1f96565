//! Specialization table: guarded super-handler fast paths.
//!
//! The optimizer registers one [`CompiledChain`] per optimized event. A
//! synchronous raise of that event first checks the chain's [`Guard`]s
//! against the live registry; when they hold the runtime invokes the
//! super-handler directly — no registry walk, no marshaling, one call
//! instead of N. Otherwise it falls back to generic dispatch ("checking
//! whether any changes have been made to the list of handlers bound to an
//! event when it is raised, and then dropping back into the original
//! unoptimized code if a change is detected", §3.2.1).
//!
//! A guard is the binding list the chain was compiled against, by content,
//! with the registry version it was last confirmed at as a one-compare
//! cache of that fact. The version alone cannot say whether a chain is
//! valid: it only ever grows, so an `unbind`+`bind` of the same handler,
//! or an A→B→A swap, returns to the exact list the chain was built for
//! under a new number. On a version mismatch the guard therefore compares
//! the lists once, re-stamps itself when they are equal (the chain keeps
//! or regains its fast lane at that very dispatch, with nobody's help) and
//! remembers the refuting version when they are not, so a stale chain
//! costs two integer compares per dispatch until it is replaced and its
//! bindings' return is noticed the moment it happens.

use crate::registry::{Binding, Registry};
use pdo_ir::{EventId, FuncId};
use std::sync::Arc;

/// The binding list of one event, as a chain was compiled against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Guard {
    /// Event whose bindings the chain depends on.
    pub event: EventId,
    /// The list folded into the super-handler.
    bindings: Arc<[Binding]>,
    /// Registry version at which `bindings` was last seen to be live.
    version: u64,
    /// Registry version at which `bindings` was last seen *not* to be live.
    refuted: Option<u64>,
}

/// What [`CompiledChain::revalidate`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardCheck {
    /// Every guard matches the live registry.
    Holds,
    /// A guard fails, as an earlier check already established.
    Stale,
    /// A guard fails against a registry version not checked before: a
    /// rebind invalidated the chain since the last dispatch.
    Invalidated,
}

impl Guard {
    /// A guard on `event`'s bindings as they stand in `registry`.
    pub fn capture(registry: &Registry, event: EventId) -> Guard {
        Guard {
            event,
            bindings: registry.snapshot(event),
            version: registry.version(event),
            refuted: None,
        }
    }

    /// The binding list the guard protects.
    pub fn bindings(&self) -> &Arc<[Binding]> {
        &self.bindings
    }

    /// Is the guarded list the live one? Side-effect free: the version
    /// answers when it matches, the lists themselves otherwise.
    pub fn holds(&self, registry: &Registry) -> bool {
        registry.version(self.event) == self.version
            || *registry.bindings(self.event) == *self.bindings
    }

    /// As [`Guard::holds`] for the dispatch path: one version compare
    /// while nothing was rebound, and one list compare per registry
    /// version otherwise, its outcome stamped into the guard.
    #[inline]
    fn revalidate(&mut self, registry: &Registry) -> GuardCheck {
        let live = registry.version(self.event);
        if live == self.version {
            return GuardCheck::Holds;
        }
        if self.refuted == Some(live) {
            return GuardCheck::Stale;
        }
        if *registry.bindings(self.event) == *self.bindings {
            self.version = live;
            GuardCheck::Holds
        } else {
            self.refuted = Some(live);
            GuardCheck::Invalidated
        }
    }
}

/// A compiled, guarded super-handler for one head event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledChain {
    /// The event this chain specializes.
    pub head: EventId,
    /// Every event whose bindings were folded into the super-handler (the
    /// head plus any subsumed/chained events).
    pub guards: Vec<Guard>,
    /// The merged super-handler.
    pub func: FuncId,
    /// Arity the super-handler expects (must match the head event's raise).
    pub params: u16,
}

impl CompiledChain {
    /// Checks the guards against the live registry without touching them:
    /// "may this chain run (again)". A chain holds iff every guard it
    /// carries holds — the one rule dispatch, healing, the chain cache and
    /// the adaptive engine share.
    pub fn guards_hold(&self, registry: &Registry) -> bool {
        self.guards.iter().all(|g| g.holds(registry))
    }

    /// The dispatch-path form of [`CompiledChain::guards_hold`] (see
    /// [`Guard`]): stops at the first guard that fails.
    #[inline]
    pub(crate) fn revalidate(&mut self, registry: &Registry) -> GuardCheck {
        for guard in &mut self.guards {
            match guard.revalidate(registry) {
                GuardCheck::Holds => {}
                failed => return failed,
            }
        }
        GuardCheck::Holds
    }
}

/// All installed chains, indexed by head event: a dispatch finds its chain
/// with one vector access. The table grows to the highest head installed —
/// heads are events the optimizer compiled, so ids into `Module::events`.
#[derive(Debug, Clone, Default)]
pub struct SpecTable {
    chains: Vec<Option<CompiledChain>>,
}

/// Tables are equal when they hold the same chains, whatever slots a
/// removed chain left empty behind it.
impl PartialEq for SpecTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for SpecTable {}

impl SpecTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the chain for its head event.
    pub fn install(&mut self, chain: CompiledChain) {
        let i = chain.head.index();
        if self.chains.len() <= i {
            self.chains.resize_with(i + 1, || None);
        }
        self.chains[i] = Some(chain);
    }

    /// Removes the chain for `event`, returning it if present.
    pub fn remove(&mut self, event: EventId) -> Option<CompiledChain> {
        self.chains.get_mut(event.index())?.take()
    }

    /// The chain for `event`, if installed.
    pub fn get(&self, event: EventId) -> Option<&CompiledChain> {
        self.chains.get(event.index())?.as_ref()
    }

    /// The chain for `event`, for the dispatch path to revalidate.
    #[inline]
    pub(crate) fn get_mut(&mut self, event: EventId) -> Option<&mut CompiledChain> {
        self.chains.get_mut(event.index())?.as_mut()
    }

    /// Number of installed chains.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no chains are installed.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates over installed chains, in ascending order of head event.
    pub fn iter(&self) -> impl Iterator<Item = &CompiledChain> {
        self.chains.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain guarding `guards` as they stand in `reg`.
    fn chain(reg: &Registry, head: u32, guards: &[u32]) -> CompiledChain {
        CompiledChain {
            head: EventId(head),
            guards: guards
                .iter()
                .map(|&e| Guard::capture(reg, EventId(e)))
                .collect(),
            func: FuncId(0),
            params: 1,
        }
    }

    fn two_events() -> Registry {
        let mut reg = Registry::new();
        reg.bind(EventId(0), FuncId(1), 0);
        reg.bind(EventId(1), FuncId(2), 0);
        reg
    }

    #[test]
    fn monolithic_guard_requires_all() {
        let mut reg = two_events();
        let c = chain(&reg, 0, &[0, 1]);
        assert!(c.guards_hold(&reg));
        reg.bind(EventId(1), FuncId(3), 0); // event 1 now runs [2, 3]
        assert!(!c.guards_hold(&reg));
    }

    #[test]
    fn same_content_under_a_new_version_restamps() {
        let mut reg = two_events();
        let mut c = chain(&reg, 0, &[0, 1]);
        // unbind + bind of the same handler: two version bumps, same list.
        reg.unbind(EventId(1), FuncId(2));
        reg.bind(EventId(1), FuncId(2), 0);
        assert!(c.guards_hold(&reg));
        assert_eq!(c.revalidate(&reg), GuardCheck::Holds);
        // Re-stamped: the guard now answers by version alone.
        assert_eq!(c.guards[1].version, reg.version(EventId(1)));
    }

    #[test]
    fn a_rebind_invalidates_once_and_the_return_revalidates() {
        let mut reg = two_events();
        let mut c = chain(&reg, 0, &[0, 1]);
        reg.unbind(EventId(0), FuncId(1));
        reg.bind(EventId(0), FuncId(9), 0); // A -> B
        assert_eq!(c.revalidate(&reg), GuardCheck::Invalidated);
        for _ in 0..3 {
            assert_eq!(c.revalidate(&reg), GuardCheck::Stale);
        }
        reg.bind(EventId(0), FuncId(8), 1); // B -> C: another invalidation
        assert_eq!(c.revalidate(&reg), GuardCheck::Invalidated);
        assert_eq!(c.revalidate(&reg), GuardCheck::Stale);
        reg.unbind(EventId(0), FuncId(8));
        reg.unbind(EventId(0), FuncId(9));
        reg.bind(EventId(0), FuncId(1), 0); // back to A
        assert_eq!(c.revalidate(&reg), GuardCheck::Holds);
        assert!(c.guards_hold(&reg));
    }

    #[test]
    fn order_keys_are_part_of_the_content() {
        let mut reg = two_events();
        let c = chain(&reg, 0, &[0]);
        reg.unbind(EventId(0), FuncId(1));
        reg.bind(EventId(0), FuncId(1), 5); // same handler, other order key
        assert!(!c.guards_hold(&reg));
    }

    #[test]
    fn table_install_and_lookup() {
        let reg = two_events();
        let mut t = SpecTable::new();
        assert!(t.is_empty());
        t.install(chain(&reg, 0, &[0]));
        t.install(chain(&reg, 1, &[1]));
        assert_eq!(t.len(), 2);
        assert!(t.get(EventId(0)).is_some());
        assert!(t.get(EventId(9)).is_none());
        assert!(t.remove(EventId(0)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_is_dense_ordered_and_equal_by_content() {
        let reg = two_events();
        let mut t = SpecTable::new();
        for head in [7, 0, 3] {
            t.install(chain(&reg, head, &[0]));
        }
        let heads: Vec<u32> = t.iter().map(|c| c.head.0).collect();
        assert_eq!(heads, [0, 3, 7], "ascending event order");
        assert!(t.get_mut(EventId(7)).is_some(), "the highest head is found");
        assert!(t.get(EventId(8)).is_none() && t.remove(EventId(8)).is_none());
        assert!(t.get(EventId(u32::MAX)).is_none());

        // Removing the highest head leaves an empty slot, not a difference.
        let mut low = SpecTable::new();
        low.install(chain(&reg, 0, &[0]));
        low.install(chain(&reg, 3, &[0]));
        assert_ne!(t, low);
        assert!(t.remove(EventId(7)).is_some());
        assert!(t.remove(EventId(7)).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t, low);
        for head in [0, 3] {
            t.remove(EventId(head));
        }
        assert!(t.is_empty());
        assert_eq!(t, SpecTable::new());
    }

    #[test]
    fn reinstall_replaces() {
        let reg = two_events();
        let mut t = SpecTable::new();
        t.install(chain(&reg, 0, &[0]));
        t.install(CompiledChain {
            func: FuncId(9),
            ..chain(&reg, 0, &[0])
        });
        assert_eq!(t.get(EventId(0)).unwrap().func, FuncId(9));
        assert_eq!(t.len(), 1);
    }
}
