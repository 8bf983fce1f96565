//! The event → handler binding registry.
//!
//! Bindings are fully dynamic (paper §2.3: "Event handler binding is
//! completely dynamic"). Each event carries a monotonically increasing
//! *binding version*, bumped by every mutation; the optimizer's guarded
//! fast paths compare recorded versions against current ones to detect
//! re-binding and fall back to generic dispatch.

use pdo_ir::{EventId, FuncId};
use std::collections::HashMap;
use std::sync::Arc;

/// One handler bound to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// The IR function invoked when the event fires.
    pub handler: FuncId,
    /// Execution order: lower runs first; ties run in bind order (§2.3:
    /// "The order of event handler execution can be specified if desired").
    pub order: i32,
}

/// The binding list is shared, not owned: generic dispatch takes a clone of
/// the `Arc` per dispatch, and the (rare) mutations build a new list.
#[derive(Debug, Clone, Default)]
struct EventEntry {
    bindings: Arc<[Binding]>,
    version: u64,
}

/// Events below this id keep a copy of their binding version in
/// [`Registry`]'s dense index. Ids index `Module::events`, so every event a
/// module declares is far below it; an id above it can only be minted by
/// `__pdo_bind` with a made-up argument, and is answered from the map
/// rather than by growing a vector to reach it.
const DENSE_EVENTS: usize = 1 << 12;

/// The registry mapping events to ordered handler lists.
///
/// Implemented as a hash map keyed by event — the "shared data structure
/// like the table shown in the figure" of §2.1 — so generic dispatch pays a
/// genuine lookup cost. Beside it sits a dense copy of the binding
/// versions, indexed by event id: a guard check on the fast lane, whose
/// whole point is to skip the table, reads one vector element.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: HashMap<EventId, EventEntry>,
    /// `entries[e].version` for every `e` below [`DENSE_EVENTS`] that was
    /// ever mutated (0, like the map, for the rest).
    versions: Vec<u64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps `entry`'s binding version — the one step every mutation ends
    /// with — and its copy in the dense index.
    fn bump(versions: &mut Vec<u64>, event: EventId, entry: &mut EventEntry) {
        entry.version += 1;
        let i = event.index();
        if i < DENSE_EVENTS {
            if versions.len() <= i {
                versions.resize(i + 1, 0);
            }
            versions[i] = entry.version;
        }
    }

    /// Binds `handler` to `event` with the given order key and bumps the
    /// event's binding version.
    pub fn bind(&mut self, event: EventId, handler: FuncId, order: i32) {
        let entry = self.entries.entry(event).or_default();
        let binding = Binding { handler, order };
        // Stable insertion: after the last binding with order <= new order.
        let pos = entry
            .bindings
            .iter()
            .rposition(|b| b.order <= order)
            .map(|p| p + 1)
            .unwrap_or(0);
        let (before, after) = entry.bindings.split_at(pos);
        entry.bindings = before
            .iter()
            .chain(std::iter::once(&binding))
            .chain(after)
            .copied()
            .collect();
        Self::bump(&mut self.versions, event, entry);
    }

    /// Removes the first binding of `handler` to `event`. Returns `true`
    /// if a binding was removed (and the version bumped).
    pub fn unbind(&mut self, event: EventId, handler: FuncId) -> bool {
        let Some(entry) = self.entries.get_mut(&event) else {
            return false;
        };
        let Some(pos) = entry.bindings.iter().position(|b| b.handler == handler) else {
            return false;
        };
        let (before, after) = entry.bindings.split_at(pos);
        entry.bindings = before.iter().chain(&after[1..]).copied().collect();
        Self::bump(&mut self.versions, event, entry);
        true
    }

    /// Removes every binding for `event`.
    pub fn unbind_all(&mut self, event: EventId) {
        if let Some(entry) = self.entries.get_mut(&event) {
            if !entry.bindings.is_empty() {
                entry.bindings = Arc::default();
                Self::bump(&mut self.versions, event, entry);
            }
        }
    }

    /// The current binding list for `event`, in execution order. An event
    /// with no bindings yields an empty slice (§2.1: "An event is ignored
    /// if no handlers are bound to the event").
    pub fn bindings(&self, event: EventId) -> &[Binding] {
        self.entries
            .get(&event)
            .map(|e| &*e.bindings)
            .unwrap_or(&[])
    }

    /// The event's binding version. Events never bound have version 0.
    #[inline]
    pub fn version(&self, event: EventId) -> u64 {
        let i = event.index();
        if i < DENSE_EVENTS {
            self.versions.get(i).copied().unwrap_or(0)
        } else {
            self.entries.get(&event).map_or(0, |e| e.version)
        }
    }

    /// The binding list as it stands now, as generic dispatch must hold it
    /// (bindings may change while the handlers run): a new reference to the
    /// shared list, which later mutations replace rather than edit.
    pub fn snapshot(&self, event: EventId) -> Arc<[Binding]> {
        self.entries
            .get(&event)
            .map(|e| Arc::clone(&e.bindings))
            .unwrap_or_default()
    }

    /// Number of events with at least one binding.
    pub fn bound_event_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| !e.bindings.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: EventId = EventId(0);

    #[test]
    fn bind_orders_handlers() {
        let mut r = Registry::new();
        r.bind(E, FuncId(2), 10);
        r.bind(E, FuncId(0), 0);
        r.bind(E, FuncId(1), 5);
        let order: Vec<u32> = r.bindings(E).iter().map(|b| b.handler.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn equal_order_keeps_bind_sequence() {
        let mut r = Registry::new();
        r.bind(E, FuncId(7), 0);
        r.bind(E, FuncId(8), 0);
        r.bind(E, FuncId(9), 0);
        let order: Vec<u32> = r.bindings(E).iter().map(|b| b.handler.0).collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut r = Registry::new();
        assert_eq!(r.version(E), 0);
        r.bind(E, FuncId(1), 0);
        assert_eq!(r.version(E), 1);
        r.bind(E, FuncId(2), 0);
        assert_eq!(r.version(E), 2);
        assert!(r.unbind(E, FuncId(1)));
        assert_eq!(r.version(E), 3);
        assert!(!r.unbind(E, FuncId(1)));
        assert_eq!(r.version(E), 3);
        r.unbind_all(E);
        assert_eq!(r.version(E), 4);
        r.unbind_all(E); // already empty: no bump
        assert_eq!(r.version(E), 4);
    }

    #[test]
    fn dense_versions_agree_with_the_map_at_both_ends_of_the_id_range() {
        let mut r = Registry::new();
        let ends = [
            EventId(0),
            EventId(DENSE_EVENTS as u32 - 1),
            EventId(DENSE_EVENTS as u32),
            EventId(u32::MAX),
        ];
        let check = |r: &Registry, want: u64| {
            for e in ends {
                assert_eq!(r.version(e), want, "{e}");
                assert_eq!(r.entries.get(&e).map_or(0, |x| x.version), want, "{e}");
            }
        };
        check(&r, 0);
        for (step, e) in ends.iter().enumerate() {
            r.bind(*e, FuncId(step as u32), 0);
        }
        check(&r, 1);
        for e in ends {
            r.bind(e, FuncId(9), 1);
            assert!(r.unbind(e, FuncId(9)));
            assert!(!r.unbind(e, FuncId(9)));
        }
        check(&r, 3);
        for e in ends {
            r.unbind_all(e);
            r.unbind_all(e);
        }
        check(&r, 4);
        assert!(r.versions.len() <= DENSE_EVENTS, "the index stays bounded");
    }

    #[test]
    fn unbound_event_is_empty() {
        let r = Registry::new();
        assert!(r.bindings(EventId(42)).is_empty());
        assert_eq!(r.version(EventId(42)), 0);
    }

    #[test]
    fn handler_bound_to_multiple_events() {
        let mut r = Registry::new();
        let h = FuncId(3);
        r.bind(EventId(0), h, 0);
        r.bind(EventId(1), h, 0);
        assert_eq!(r.bindings(EventId(0)).len(), 1);
        assert_eq!(r.bindings(EventId(1)).len(), 1);
        assert_eq!(r.bound_event_count(), 2);
    }

    #[test]
    fn same_handler_bound_twice_to_one_event() {
        let mut r = Registry::new();
        let h = FuncId(3);
        r.bind(E, h, 0);
        r.bind(E, h, 0);
        assert_eq!(r.bindings(E).len(), 2);
        assert!(r.unbind(E, h));
        assert_eq!(r.bindings(E).len(), 1);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut r = Registry::new();
        r.bind(E, FuncId(1), 0);
        let snap = r.snapshot(E);
        r.unbind(E, FuncId(1));
        assert_eq!(snap.len(), 1);
        assert!(r.bindings(E).is_empty());
    }

    #[test]
    fn snapshot_shares_the_list_until_the_next_mutation() {
        let mut r = Registry::new();
        r.bind(E, FuncId(1), 0);
        let first = r.snapshot(E);
        assert!(Arc::ptr_eq(&first, &r.snapshot(E)));
        r.bind(E, FuncId(2), 0);
        assert!(!Arc::ptr_eq(&first, &r.snapshot(E)));
        assert_eq!(first.len(), 1);
        assert!(r.snapshot(EventId(42)).is_empty());
    }
}
