//! Specialization quarantine with exponential backoff.
//!
//! A compiled chain that keeps faulting, or that the program keeps
//! re-binding out from under, is worse than generic dispatch: every
//! occurrence pays the containment bookkeeping, and every rebind pays a
//! replan and a redeploy. The quarantine tracks per-event fault and
//! guard-churn counters, fed each epoch's counts (the adaptive engine
//! reads them from the epoch's [`pdo_events::ProfileTally`]) and, once a
//! counter crosses its threshold, bars the event from specialization for an
//! exponentially growing window of *virtual* time (the runtime's clock, so
//! tests and simulations stay deterministic).
//!
//! A *guard miss* in those counts is one rebind that invalidated an
//! installed chain — the runtime reports it once, at the first dispatch
//! that finds the chain's guards refuted, however many raises fall back
//! before the chain is replaced, and not at all when the bindings were
//! taken apart and put back as they were. `churn_threshold` therefore
//! counts what it was written for: how often the program re-binds under a
//! chain, not how busy the event happened to be until the next epoch.
//!
//! The counters are per-epoch accumulators with a forgiveness rule: an
//! epoch in which a tracked event records neither faults nor guard misses
//! resets that event's accumulators (but not its strike count, so repeat
//! offenders keep doubling their backoff). This is what keeps one-off
//! transients from eventually adding up to a quarantine.

use pdo_ir::EventId;
use std::collections::BTreeMap;

/// Thresholds and backoff shape for [`Quarantine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Accumulated faults (injected or contained traps) above which an
    /// event is quarantined. The comparison is strict (`> fault_threshold`).
    pub fault_threshold: u64,
    /// Accumulated guard misses — rebinds that invalidated an installed
    /// chain — above which an event is quarantined (strict comparison),
    /// catching re-binding churn.
    pub churn_threshold: u64,
    /// Backoff after the first quarantine, in virtual ns; doubles with
    /// every strike.
    pub base_backoff_ns: u64,
    /// Backoff ceiling in virtual ns.
    pub max_backoff_ns: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            fault_threshold: 3,
            churn_threshold: 8,
            base_backoff_ns: 1_000_000,
            max_backoff_ns: 1_000_000_000,
        }
    }
}

/// One tracked event's accumulators, strike count, and backoff expiry —
/// what the quarantine keeps per event, and what a snapshot carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Accumulated faults this (dirty) epoch run.
    pub faults: u64,
    /// Accumulated guard misses this (dirty) epoch run.
    pub guard_misses: u64,
    /// Lifetime quarantine count (drives the backoff exponent).
    pub strikes: u32,
    /// Current (or most recent) backoff expiry in virtual ns.
    pub until_ns: Option<u64>,
}

pdo_snap::codec_struct!(QuarantineEntry {
    faults,
    guard_misses,
    strikes,
    until_ns,
});

/// Per-event quarantine state. Feed it one epoch's counts at a time via
/// [`Quarantine::observe`]; query with [`Quarantine::is_quarantined`].
#[derive(Debug, Clone)]
pub struct Quarantine {
    config: QuarantineConfig,
    entries: BTreeMap<EventId, QuarantineEntry>,
}

impl Quarantine {
    /// An empty quarantine with the given thresholds.
    pub fn new(config: QuarantineConfig) -> Self {
        Quarantine::resume(config, BTreeMap::new())
    }

    /// A quarantine carrying `entries` — a snapshot's, so strike counts
    /// and backoff expiries survive a restore.
    pub fn resume(config: QuarantineConfig, entries: BTreeMap<EventId, QuarantineEntry>) -> Self {
        Quarantine { config, entries }
    }

    /// Every tracked event's state, in id order (snapshotting).
    pub fn entries(&self) -> &BTreeMap<EventId, QuarantineEntry> {
        &self.entries
    }

    /// Merges one epoch's `(event, n)` fault and guard-miss counts at
    /// virtual time `now_ns` and returns the events that crossed a
    /// threshold *this* epoch (in id order).
    ///
    /// The counts are the epoch's own, not running totals: feeding the
    /// same counts twice doubles them.
    pub fn observe(
        &mut self,
        faults: impl IntoIterator<Item = (EventId, u64)>,
        guard_misses: impl IntoIterator<Item = (EventId, u64)>,
        now_ns: u64,
    ) -> Vec<EventId> {
        let mut epoch: BTreeMap<EventId, QuarantineEntry> = BTreeMap::new();
        for (event, n) in faults {
            epoch.entry(event).or_default().faults += n;
        }
        for (event, n) in guard_misses {
            epoch.entry(event).or_default().guard_misses += n;
        }

        // Forgiveness: a clean epoch resets an event's accumulators.
        for (event, entry) in self.entries.iter_mut() {
            if !epoch.contains_key(event) {
                entry.faults = 0;
                entry.guard_misses = 0;
            }
        }

        let mut newly = Vec::new();
        for (event, seen) in epoch {
            let config = self.config;
            let entry = self.entries.entry(event).or_default();
            entry.faults += seen.faults;
            entry.guard_misses += seen.guard_misses;
            let already = entry.until_ns.is_some_and(|u| u > now_ns);
            if !already
                && (entry.faults > config.fault_threshold
                    || entry.guard_misses > config.churn_threshold)
            {
                entry.strikes += 1;
                let shift = u32::min(entry.strikes - 1, 63);
                let backoff = config
                    .base_backoff_ns
                    .saturating_mul(1u64 << shift)
                    .min(config.max_backoff_ns);
                entry.until_ns = Some(now_ns.saturating_add(backoff));
                entry.faults = 0;
                entry.guard_misses = 0;
                newly.push(event);
            }
        }
        newly
    }

    /// Is `event` barred from specialization at virtual time `now_ns`?
    /// The bar lifts exactly at the recorded deadline: at `now_ns ==
    /// until_ns` the event is eligible again.
    pub fn is_quarantined(&self, event: EventId, now_ns: u64) -> bool {
        self.entries
            .get(&event)
            .and_then(|e| e.until_ns)
            .is_some_and(|u| u > now_ns)
    }

    /// The virtual time at which `event`'s current (or most recent)
    /// quarantine expires, if it was ever quarantined.
    pub fn quarantined_until(&self, event: EventId) -> Option<u64> {
        self.entries.get(&event).and_then(|e| e.until_ns)
    }

    /// How many times `event` has been quarantined (drives the exponent).
    pub fn strikes(&self, event: EventId) -> u32 {
        self.entries.get(&event).map_or(0, |e| e.strikes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No counts of one kind this epoch.
    const NONE: [(EventId, u64); 0] = [];

    /// `event`'s accumulated `(faults, guard misses)`.
    fn counters(q: &Quarantine, event: EventId) -> (u64, u64) {
        q.entries()
            .get(&event)
            .map_or((0, 0), |e| (e.faults, e.guard_misses))
    }

    fn config() -> QuarantineConfig {
        QuarantineConfig {
            fault_threshold: 3,
            churn_threshold: 8,
            base_backoff_ns: 1_000,
            max_backoff_ns: 16_000,
        }
    }

    #[test]
    fn faults_below_threshold_do_not_quarantine() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        assert!(q.observe([(e, 3)], NONE, 0).is_empty());
        assert!(!q.is_quarantined(e, 0));
    }

    #[test]
    fn crossing_threshold_quarantines_with_base_backoff() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        assert_eq!(q.observe([(e, 4)], NONE, 100), vec![e]);
        assert!(q.is_quarantined(e, 100));
        assert_eq!(q.quarantined_until(e), Some(1_100));
        // Eligible again exactly at expiry, not one tick before.
        assert!(q.is_quarantined(e, 1_099));
        assert!(!q.is_quarantined(e, 1_100));
    }

    #[test]
    fn faults_accumulate_across_dirty_epochs() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        assert!(q.observe([(e, 2)], NONE, 0).is_empty());
        assert_eq!(q.observe([(e, 2)], NONE, 10), vec![e]);
    }

    #[test]
    fn clean_epoch_resets_accumulators() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        q.observe(NONE, [(e, 8)], 0); // at threshold, not over
        assert_eq!(counters(&q, e).1, 8);
        // Clean epoch (no entry for e): counter forgiven.
        q.observe(NONE, NONE, 10);
        assert_eq!(counters(&q, e), (0, 0));
        // Another 8 misses alone no longer quarantine.
        assert!(q.observe(NONE, [(e, 8)], 20).is_empty());
    }

    #[test]
    fn backoff_doubles_per_strike_and_caps() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        let mut now = 0u64;
        let mut windows = Vec::new();
        for _ in 0..7 {
            assert_eq!(q.observe([(e, 4)], NONE, now), vec![e]);
            let until = q.quarantined_until(e).unwrap();
            windows.push(until - now);
            now = until; // expiry: eligible again, fault again
        }
        assert_eq!(
            windows,
            vec![1_000, 2_000, 4_000, 8_000, 16_000, 16_000, 16_000]
        );
        assert_eq!(q.strikes(e), 7);
    }

    #[test]
    fn faults_during_quarantine_do_not_extend_it() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        q.observe([(e, 4)], NONE, 0);
        let until = q.quarantined_until(e).unwrap();
        // Still quarantined: further faults accumulate but do not re-arm.
        assert!(q.observe([(e, 40)], NONE, 10).is_empty());
        assert_eq!(q.quarantined_until(e), Some(until));
    }

    #[test]
    fn a_resumed_quarantine_keeps_strikes_and_backoff() {
        let e = EventId(0);
        let mut q = Quarantine::new(config());
        q.observe([(e, 4)], NONE, 0);
        q.observe([(e, 2)], NONE, 10); // accumulating mid-window
        let entries = q.entries().clone();
        pdo_snap::hostile::check(&entries);
        let mut r = Quarantine::resume(
            config(),
            pdo_snap::decode(&pdo_snap::encode(&entries)).unwrap(),
        );
        assert_eq!(r.entries(), &entries, "round trip is exact");
        assert_eq!(r.strikes(e), q.strikes(e));
        assert_eq!(r.quarantined_until(e), q.quarantined_until(e));
        assert_eq!(counters(&r, e), counters(&q, e));
        // A repeat offense after restore doubles from the carried strike.
        let until = r.quarantined_until(e).unwrap();
        assert_eq!(r.observe([(e, 4)], NONE, until), vec![e]);
        assert_eq!(r.quarantined_until(e), Some(until + 2_000));
    }

    #[test]
    fn events_are_tracked_independently() {
        let (a, b) = (EventId(1), EventId(2));
        let mut q = Quarantine::new(config());
        assert_eq!(q.observe([(a, 4)], [(b, 2)], 0), vec![a]);
        assert!(q.is_quarantined(a, 0));
        assert!(!q.is_quarantined(b, 0));
    }
}
