//! A reusable seeded faulty-wire layer.
//!
//! Every substrate in this repository that simulates a transport — the CTP
//! link, the SecComm loopback "UDP" wire, the X event stream — needs the
//! same four link pathologies: loss, duplication, reordering, and
//! corruption, rolled deterministically from a seed so a failing chaos case
//! can be replayed. [`FaultyWire`] factors that machinery out of
//! `pdo-ctp`'s endpoint so all substrates share one fault model (and one
//! RNG discipline), and [`SequencedReceiver`] provides the matching
//! receiver-side dedup + in-order release for protocols that number their
//! frames.
//!
//! The roll order per transmission is fixed — drop, corrupt, duplicate,
//! reorder — and reproduces the stream CTP's original in-crate model drew,
//! so historical seeds keep their meaning.

use std::collections::BTreeMap;

/// Seeded fault model for a simulated wire. Each field is a probability in
/// permille (0 = never, 1000 = always), rolled independently per
/// transmission from a deterministic splitmix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireFaults {
    /// Frame lost in transit (never reaches the receiver).
    pub drop_per_mille: u16,
    /// Frame delivered twice (the receiver must deduplicate).
    pub dup_per_mille: u16,
    /// Frame held back and overtaken by the next transmission (the
    /// receiver must restore order).
    pub reorder_per_mille: u16,
    /// Frame mutated in transit (the receiver's integrity check — parity,
    /// MAC — is expected to reject it).
    pub corrupt_per_mille: u16,
    /// RNG seed; identical seeds reproduce identical fault sequences.
    pub seed: u64,
}

pdo_snap::codec_struct!(WireFaults {
    drop_per_mille,
    dup_per_mille,
    reorder_per_mille,
    corrupt_per_mille,
    seed,
});

impl WireFaults {
    /// True when every fault probability is zero (a perfect wire).
    pub fn is_perfect(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.reorder_per_mille == 0
            && self.corrupt_per_mille == 0
    }
}

/// Counters of what the fault model did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Transmissions lost.
    pub dropped: u64,
    /// Transmissions duplicated.
    pub duplicated: u64,
    /// Transmissions held back (reordered).
    pub reordered: u64,
    /// Transmissions corrupted.
    pub corrupted: u64,
}

pdo_snap::codec_struct!(WireStats {
    dropped,
    duplicated,
    reordered,
    corrupted,
});

impl WireStats {
    /// Exports the four fault counters into `snap` as
    /// `pdo_wire_faults_total{kind="dropped|duplicated|reordered|corrupted"}`
    /// with `extra` labels on every series — one exposition shape shared
    /// by every substrate that embeds a [`FaultyWire`].
    pub fn export_metrics(&self, snap: &mut pdo_obs::MetricsSnapshot, extra: &[(&str, &str)]) {
        for (kind, n) in [
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
            ("reordered", self.reordered),
            ("corrupted", self.corrupted),
        ] {
            let mut labels: Vec<(&str, &str)> = vec![("kind", kind)];
            labels.extend_from_slice(extra);
            snap.counter(
                "pdo_wire_faults_total",
                "Frames the wire fault model dropped, duplicated, reordered, or corrupted",
                &labels,
                n,
            );
        }
    }
}

/// One frame reaching the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival<T> {
    /// The frame (already mutated when `corrupted`).
    pub item: T,
    /// Whether the wire corrupted this frame in transit.
    pub corrupted: bool,
}

/// The receiver-visible outcome of one [`FaultyWire::transmit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmit<T> {
    /// Frames reaching the receiver *now*, in arrival order (copies of the
    /// new frame first, then any previously held frame it overtook).
    pub arrivals: Vec<Arrival<T>>,
    /// The transmitted frame was lost.
    pub dropped: bool,
    /// The transmitted frame was corrupted.
    pub corrupted: bool,
    /// The transmitted frame was parked by the reordering stage (it will
    /// arrive behind the next transmission, or on [`FaultyWire::flush`]).
    pub held: bool,
}

impl<T> Transmit<T> {
    /// True when the frame made it onto the wire intact (it has arrived or
    /// will arrive uncorrupted) — for CTP this is "an ack will come back".
    pub fn ok(&self) -> bool {
        !self.dropped && !self.corrupted
    }
}

/// The complete, externally serializable state of a [`FaultyWire`]: the
/// configured fault probabilities, the RNG stream *cursor* (not the seed —
/// a restored wire continues the exact roll sequence a live one would
/// have drawn), any frame parked by the reordering stage, and the fault
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireState<T> {
    /// Configured fault probabilities (including the original seed).
    pub faults: WireFaults,
    /// Current RNG stream position.
    pub rng: u64,
    /// Frame held back by the reordering stage, with its copy count.
    pub held: Option<(T, u32)>,
    /// Fault counters so far.
    pub stats: WireStats,
}

pdo_snap::codec_struct!(WireState<T> { faults, rng, held, stats });

/// A seeded lossy/duplicating/reordering/corrupting wire for frames of
/// type `T`.
#[derive(Debug, Clone)]
pub struct FaultyWire<T> {
    faults: WireFaults,
    rng: u64,
    held: Option<(T, u32)>,
    stats: WireStats,
}

impl<T: Clone> FaultyWire<T> {
    /// A wire rolling from `faults.seed`.
    pub fn new(faults: WireFaults) -> Self {
        FaultyWire {
            rng: faults.seed,
            faults,
            held: None,
            stats: WireStats::default(),
        }
    }

    /// What the fault model has done so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// The configured fault probabilities.
    pub fn faults(&self) -> WireFaults {
        self.faults
    }

    fn next_roll(&mut self) -> u64 {
        crate::splitmix64_next(&mut self.rng)
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next_roll() % 1000 < u64::from(per_mille)
    }

    /// Sends one frame through the fault model. `corrupt` is the
    /// substrate-specific mutation applied when the corruption roll fires
    /// (flip a payload byte, mangle an event argument, …).
    ///
    /// Roll order is drop → corrupt → duplicate → reorder, with the
    /// reorder roll consumed only for intact frames while nothing is
    /// already held — exactly the stream CTP's original in-crate model
    /// drew, so historical seeds reproduce byte-identical fault plans.
    /// A corrupted frame arrives exactly once (marked [`Arrival::corrupted`])
    /// and is never parked for reordering.
    pub fn transmit(&mut self, item: T, corrupt: impl FnOnce(&mut T)) -> Transmit<T> {
        if self.roll(self.faults.drop_per_mille) {
            self.stats.dropped += 1;
            return Transmit {
                arrivals: self.flush(),
                dropped: true,
                corrupted: false,
                held: false,
            };
        }
        let mut item = item;
        let corrupted = self.roll(self.faults.corrupt_per_mille);
        if corrupted {
            self.stats.corrupted += 1;
            corrupt(&mut item);
        }
        let copies = if self.roll(self.faults.dup_per_mille) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        if corrupted {
            // The receiver's integrity check rejects it once; duplicate
            // copies of garbage are not modeled.
            let mut arrivals = vec![Arrival {
                item,
                corrupted: true,
            }];
            arrivals.extend(self.flush());
            return Transmit {
                arrivals,
                dropped: false,
                corrupted: true,
                held: false,
            };
        }
        if self.held.is_none() && self.roll(self.faults.reorder_per_mille) {
            self.stats.reordered += 1;
            self.held = Some((item, copies));
            return Transmit {
                arrivals: Vec::new(),
                dropped: false,
                corrupted: false,
                held: true,
            };
        }
        let mut arrivals = Vec::with_capacity(copies as usize);
        for _ in 0..copies {
            arrivals.push(Arrival {
                item: item.clone(),
                corrupted: false,
            });
        }
        arrivals.extend(self.flush());
        Transmit {
            arrivals,
            dropped: false,
            corrupted: false,
            held: false,
        }
    }

    /// Releases a frame the reordering stage parked, if any (a held frame
    /// with nothing left to overtake it finally arrives).
    pub fn flush(&mut self) -> Vec<Arrival<T>> {
        let mut arrivals = Vec::new();
        if let Some((item, copies)) = self.held.take() {
            for _ in 0..copies {
                arrivals.push(Arrival {
                    item: item.clone(),
                    corrupted: false,
                });
            }
        }
        arrivals
    }

    /// Whether a frame is currently parked by the reordering stage.
    pub fn has_held(&self) -> bool {
        self.held.is_some()
    }

    /// Exports the wire's complete state — RNG cursor, held frame, and
    /// counters — so a restored wire continues the identical fault
    /// sequence.
    pub fn export_state(&self) -> WireState<T> {
        WireState {
            faults: self.faults,
            rng: self.rng,
            held: self.held.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds a wire from exported state (the inverse of
    /// [`FaultyWire::export_state`]).
    pub fn from_state(state: WireState<T>) -> Self {
        FaultyWire {
            faults: state.faults,
            rng: state.rng,
            held: state.held,
            stats: state.stats,
        }
    }
}

/// The complete, externally serializable state of a
/// [`SequencedReceiver`]: the next expected sequence number, the
/// out-of-order gap buffer (sorted by sequence number), everything
/// released so far, and the duplicate counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverState<T> {
    /// Next in-order sequence number expected.
    pub next: i64,
    /// Buffered out-of-order frames, ascending by sequence number.
    pub buffer: Vec<(i64, T)>,
    /// Frames released in order so far.
    pub delivered: Vec<(i64, T)>,
    /// Duplicate arrivals discarded.
    pub duplicates: u64,
}

pdo_snap::codec_struct!(ReceiverState<T> {
    next,
    buffer,
    delivered,
    duplicates,
});

/// Receiver-side companion to [`FaultyWire`] for sequence-numbered frames:
/// deduplicates by sequence number, buffers out-of-order arrivals, and
/// releases consecutively from `next`.
#[derive(Debug, Clone)]
pub struct SequencedReceiver<T> {
    next: i64,
    buffer: BTreeMap<i64, T>,
    delivered: Vec<(i64, T)>,
    duplicates: u64,
}

impl<T> SequencedReceiver<T> {
    /// A receiver expecting `first` as the next in-order sequence number.
    pub fn new(first: i64) -> Self {
        SequencedReceiver {
            next: first,
            buffer: BTreeMap::new(),
            delivered: Vec::new(),
            duplicates: 0,
        }
    }

    /// Accepts one arrival: drops duplicates, buffers gaps, releases every
    /// consecutive frame starting at the expected sequence number.
    pub fn accept(&mut self, seq: i64, item: T) {
        if seq < self.next || self.buffer.contains_key(&seq) {
            self.duplicates += 1;
            return;
        }
        self.buffer.insert(seq, item);
        while let Some(p) = self.buffer.remove(&self.next) {
            self.delivered.push((self.next, p));
            self.next += 1;
        }
    }

    /// Frames released in order so far.
    pub fn delivered(&self) -> &[(i64, T)] {
        &self.delivered
    }

    /// Duplicate arrivals discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The next in-order sequence number the receiver is waiting for.
    pub fn next_expected(&self) -> i64 {
        self.next
    }

    /// Out-of-order frames buffered but not yet released.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Exports the receiver's complete dedup/gap-buffer state.
    pub fn export_state(&self) -> ReceiverState<T>
    where
        T: Clone,
    {
        ReceiverState {
            next: self.next,
            buffer: self.buffer.iter().map(|(&s, p)| (s, p.clone())).collect(),
            delivered: self.delivered.clone(),
            duplicates: self.duplicates,
        }
    }

    /// Rebuilds a receiver from exported state (the inverse of
    /// [`SequencedReceiver::export_state`]).
    pub fn from_state(state: ReceiverState<T>) -> Self {
        SequencedReceiver {
            next: state.next,
            buffer: state.buffer.into_iter().collect(),
            delivered: state.delivered,
            duplicates: state.duplicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(faults: WireFaults) -> FaultyWire<u32> {
        FaultyWire::new(faults)
    }

    fn no_corrupt(_: &mut u32) {}

    #[test]
    fn perfect_wire_delivers_every_frame_once() {
        let mut w = wire(WireFaults::default());
        for i in 0..100 {
            let t = w.transmit(i, no_corrupt);
            assert!(t.ok());
            assert_eq!(t.arrivals.len(), 1);
            assert_eq!(t.arrivals[0].item, i);
            assert!(!t.arrivals[0].corrupted);
        }
        assert_eq!(w.stats(), WireStats::default());
        assert!(w.flush().is_empty());
    }

    #[test]
    fn always_drop_loses_everything() {
        let mut w = wire(WireFaults {
            drop_per_mille: 1000,
            seed: 1,
            ..Default::default()
        });
        for i in 0..50 {
            let t = w.transmit(i, no_corrupt);
            assert!(t.dropped && !t.ok());
            assert!(t.arrivals.is_empty());
        }
        assert_eq!(w.stats().dropped, 50);
    }

    #[test]
    fn always_dup_delivers_two_copies() {
        let mut w = wire(WireFaults {
            dup_per_mille: 1000,
            seed: 3,
            ..Default::default()
        });
        let t = w.transmit(9, no_corrupt);
        assert_eq!(t.arrivals.len(), 2);
        assert!(t.arrivals.iter().all(|a| a.item == 9 && !a.corrupted));
        assert_eq!(w.stats().duplicated, 1);
    }

    #[test]
    fn corruption_applies_the_mutation_and_marks_the_arrival() {
        let mut w = wire(WireFaults {
            corrupt_per_mille: 1000,
            seed: 11,
            ..Default::default()
        });
        let t = w.transmit(5, |v| *v ^= 0xFF);
        assert!(t.corrupted && !t.ok());
        assert_eq!(t.arrivals.len(), 1);
        assert_eq!(t.arrivals[0].item, 5 ^ 0xFF);
        assert!(t.arrivals[0].corrupted);
    }

    #[test]
    fn reordering_holds_a_frame_until_the_next_overtakes_it() {
        // reorder=1000 would hold every frame; since only one frame can be
        // held at a time, frame n is parked, frame n+1 finds the slot busy
        // (no roll consumed) and overtakes it.
        let mut w = wire(WireFaults {
            reorder_per_mille: 1000,
            seed: 5,
            ..Default::default()
        });
        let t1 = w.transmit(1, no_corrupt);
        assert!(t1.held && t1.arrivals.is_empty() && t1.ok());
        assert!(w.has_held());
        let t2 = w.transmit(2, no_corrupt);
        assert_eq!(
            t2.arrivals.iter().map(|a| a.item).collect::<Vec<_>>(),
            vec![2, 1],
            "new frame first, overtaken frame behind it"
        );
        // The slot freed up, so the next frame is parked again.
        let t3 = w.transmit(3, no_corrupt);
        assert!(t3.held);
        assert_eq!(w.flush().iter().map(|a| a.item).collect::<Vec<_>>(), [3]);
        assert_eq!(w.stats().reordered, 2);
    }

    #[test]
    fn drop_and_corrupt_release_a_held_frame() {
        let mut w = wire(WireFaults {
            reorder_per_mille: 1000,
            drop_per_mille: 500,
            seed: 42,
            ..Default::default()
        });
        // Park frames until a drop occurs; the drop must flush the held one.
        let mut i = 0u32;
        loop {
            i += 1;
            let t = w.transmit(i, no_corrupt);
            if t.dropped {
                assert!(!w.has_held(), "a drop releases whatever reordering parked");
                break;
            }
            assert!(i < 1000, "seed 42 at 500 permille must drop eventually");
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        let faults = WireFaults {
            drop_per_mille: 300,
            dup_per_mille: 200,
            reorder_per_mille: 100,
            corrupt_per_mille: 150,
            seed: 1234,
        };
        let run = |mut w: FaultyWire<u32>| {
            let mut log = Vec::new();
            for i in 0..200 {
                let t = w.transmit(i, |v| *v = u32::MAX);
                log.push((t.dropped, t.corrupted, t.held, t.arrivals.len()));
            }
            (log, w.stats())
        };
        assert_eq!(run(wire(faults)), run(wire(faults)));
    }

    #[test]
    fn sequenced_receiver_dedups_and_releases_in_order() {
        let mut r = SequencedReceiver::new(1);
        r.accept(2, "b");
        assert_eq!(r.delivered().len(), 0);
        assert_eq!(r.buffered(), 1);
        r.accept(1, "a");
        assert_eq!(
            r.delivered().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [1, 2]
        );
        r.accept(1, "a-again");
        r.accept(2, "b-again");
        assert_eq!(r.duplicates(), 2);
        r.accept(3, "c");
        r.accept(3, "c-again");
        assert_eq!(r.delivered().len(), 3);
        assert_eq!(r.duplicates(), 3);
        assert_eq!(r.next_expected(), 4);
    }

    #[test]
    fn export_restore_continues_the_exact_fault_sequence() {
        let faults = WireFaults {
            drop_per_mille: 300,
            dup_per_mille: 200,
            reorder_per_mille: 250,
            corrupt_per_mille: 150,
            seed: 77,
        };
        // Uninterrupted run vs a run snapshotted/restored at every step:
        // identical arrivals and counters throughout.
        let mut live: FaultyWire<(i64, i64)> = FaultyWire::new(faults);
        let mut restored: FaultyWire<(i64, i64)> = FaultyWire::new(faults);
        let mut rx_live = SequencedReceiver::new(0);
        let mut rx_restored = SequencedReceiver::new(0);
        for seq in 0..100i64 {
            restored = FaultyWire::from_state(restored.export_state());
            rx_restored = SequencedReceiver::from_state(rx_restored.export_state());
            let a = live.transmit((seq, seq), |v| v.1 = -1);
            let b = restored.transmit((seq, seq), |v| v.1 = -1);
            assert_eq!(a, b);
            for arr in a.arrivals {
                rx_live.accept(arr.item.0, arr.item.1);
            }
            for arr in b.arrivals {
                rx_restored.accept(arr.item.0, arr.item.1);
            }
        }
        assert_eq!(live.stats(), restored.stats());
        assert_eq!(rx_live.export_state(), rx_restored.export_state());
    }

    #[test]
    fn lossy_stream_through_receiver_is_a_prefix_preserving_permutation() {
        let faults = WireFaults {
            drop_per_mille: 250,
            dup_per_mille: 250,
            reorder_per_mille: 250,
            seed: 99,
            ..Default::default()
        };
        let mut w = FaultyWire::new(faults);
        let mut r = SequencedReceiver::new(0);
        for seq in 0..100i64 {
            for a in w.transmit((seq, seq * 10), |_| {}).arrivals {
                r.accept(a.item.0, a.item.1);
            }
        }
        for a in w.flush() {
            r.accept(a.item.0, a.item.1);
        }
        // Whatever was released is in order and correctly paired.
        for (i, (seq, payload)) in r.delivered().iter().enumerate() {
            assert_eq!(*seq, i as i64);
            assert_eq!(*payload, seq * 10);
        }
    }

    #[test]
    fn codecs_survive_the_hostile_sweep() {
        let faults = WireFaults {
            drop_per_mille: 1,
            dup_per_mille: 20,
            reorder_per_mille: 300,
            corrupt_per_mille: 1000,
            seed: 0xFEED,
        };
        let stats = WireStats {
            dropped: 1,
            duplicated: 2,
            reordered: 3,
            corrupted: 4,
        };
        for held in [None, Some(((7i64, vec![1u8, 2, 3]), 2u32))] {
            pdo_snap::hostile::check(&WireState {
                faults,
                rng: u64::MAX,
                held,
                stats,
            });
        }
        pdo_snap::hostile::check(&ReceiverState {
            next: -3,
            buffer: vec![(5i64, vec![5u8]), (9, vec![])],
            delivered: vec![(1, b"one".to_vec())],
            duplicates: 6,
        });
    }
}
