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

use pdo_snap::{Codec, SnapReader, SnapWriter, SnapshotError};
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

/// The frames one transmission (or a flush) lands on the receiver, in
/// arrival order from slot 0, `None` past the last. Four slots are all
/// there can be — at most two copies of the transmitted frame and two of a
/// held frame it overtook — so the collection is inline and a transmission
/// allocates nothing. Walk it with `into_iter().flatten()`.
pub type Arrivals<T> = [Option<Arrival<T>>; 4];

/// The receiver-visible outcome of one [`FaultyWire::transmit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmit<T> {
    /// Frames reaching the receiver *now* (copies of the new frame first,
    /// then any previously held frame it overtook).
    pub arrivals: Arrivals<T>,
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

/// A seeded lossy/duplicating/reordering/corrupting wire for frames of
/// type `T`.
///
/// A wire is its own snapshot: the configured fault probabilities, the
/// RNG stream *cursor* (not the seed — a restored wire continues the exact
/// roll sequence a live one would have drawn), any frame parked by the
/// reordering stage with its copy count, and the fault counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyWire<T> {
    faults: WireFaults,
    rng: u64,
    held: Option<(T, u32)>,
    stats: WireStats,
}

// Hand-written for one check: a live wire holds a frame with one or two
// copies, so any other count comes from a forged image, and releasing it
// would overrun [`Arrivals`].
impl<T: Codec> Codec for FaultyWire<T> {
    fn put(&self, w: &mut SnapWriter) {
        self.faults.put(w);
        self.rng.put(w);
        self.held.put(w);
        self.stats.put(w);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let wire = FaultyWire {
            faults: Codec::take(r)?,
            rng: Codec::take(r)?,
            held: Codec::take(r)?,
            stats: Codec::take(r)?,
        };
        match wire.held {
            Some((_, copies @ (0 | 3..))) => Err(SnapshotError::Malformed(format!(
                "held frame with {copies} copies"
            ))),
            _ => Ok(wire),
        }
    }
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
        let mut t = Transmit {
            arrivals: [const { None }; 4],
            dropped: false,
            corrupted: false,
            held: false,
        };
        if self.roll(self.faults.drop_per_mille) {
            self.stats.dropped += 1;
            t.dropped = true;
            self.release_held(&mut t.arrivals);
            return t;
        }
        let mut item = item;
        t.corrupted = self.roll(self.faults.corrupt_per_mille);
        if t.corrupted {
            self.stats.corrupted += 1;
            corrupt(&mut item);
        }
        let copies = if self.roll(self.faults.dup_per_mille) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        if t.corrupted {
            // The receiver's integrity check rejects it once; duplicate
            // copies of garbage are not modeled.
            push(
                &mut t.arrivals,
                Arrival {
                    item,
                    corrupted: true,
                },
            );
            self.release_held(&mut t.arrivals);
            return t;
        }
        if self.held.is_none() && self.roll(self.faults.reorder_per_mille) {
            self.stats.reordered += 1;
            self.held = Some((item, copies));
            t.held = true;
            return t;
        }
        land(&mut t.arrivals, item, copies);
        self.release_held(&mut t.arrivals);
        t
    }

    /// Releases a frame the reordering stage parked, if any (a held frame
    /// with nothing left to overtake it finally arrives).
    pub fn flush(&mut self) -> Arrivals<T> {
        let mut arrivals = [const { None }; 4];
        self.release_held(&mut arrivals);
        arrivals
    }

    /// Lands the held frame's copies, if one is parked, behind whatever
    /// `arrivals` already holds.
    fn release_held(&mut self, arrivals: &mut Arrivals<T>) {
        if let Some((item, copies)) = self.held.take() {
            land(arrivals, item, copies);
        }
    }
}

/// Appends one arrival in the first free slot.
fn push<T>(arrivals: &mut Arrivals<T>, arrival: Arrival<T>) {
    let free = arrivals.iter_mut().find(|slot| slot.is_none());
    *free.expect("one transmission lands at most four frames") = Some(arrival);
}

/// Appends `copies` (one or two) intact arrivals of `item`; the last is
/// `item` itself, so a frame that is not duplicated is never cloned.
fn land<T: Clone>(arrivals: &mut Arrivals<T>, item: T, copies: u32) {
    for _ in 1..copies {
        push(
            arrivals,
            Arrival {
                item: item.clone(),
                corrupted: false,
            },
        );
    }
    push(
        arrivals,
        Arrival {
            item,
            corrupted: false,
        },
    );
}

/// Receiver-side companion to [`FaultyWire`] for sequence-numbered frames:
/// deduplicates by sequence number, buffers out-of-order arrivals, and
/// releases consecutively from `next`. Its snapshot is itself: the next
/// expected sequence number, the gap buffer, everything released so far,
/// and the duplicate counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedReceiver<T> {
    next: i64,
    buffer: BTreeMap<i64, T>,
    delivered: Vec<(i64, T)>,
    duplicates: u64,
}

pdo_snap::codec_struct!(SequencedReceiver<T> {
    next,
    buffer,
    delivered,
    duplicates,
});

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

    /// Out-of-order frames buffered but not yet released.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(faults: WireFaults) -> FaultyWire<u32> {
        FaultyWire::new(faults)
    }

    fn no_corrupt(_: &mut u32) {}

    /// The frames in `arrivals`, in order.
    fn items<T: Clone>(arrivals: &Arrivals<T>) -> Vec<T> {
        arrivals.iter().flatten().map(|a| a.item.clone()).collect()
    }

    #[test]
    fn perfect_wire_delivers_every_frame_once() {
        let mut w = wire(WireFaults::default());
        for i in 0..100 {
            let t = w.transmit(i, no_corrupt);
            assert!(t.ok());
            assert_eq!(items(&t.arrivals), [i]);
            assert!(t.arrivals.iter().flatten().all(|a| !a.corrupted));
        }
        assert_eq!(w.stats(), WireStats::default());
        assert!(items(&w.flush()).is_empty());
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
            assert!(items(&t.arrivals).is_empty());
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
        assert_eq!(items(&t.arrivals), [9, 9]);
        assert!(t.arrivals.iter().flatten().all(|a| !a.corrupted));
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
        assert_eq!(items(&t.arrivals), [5 ^ 0xFF]);
        assert!(t.arrivals[0].as_ref().is_some_and(|a| a.corrupted));
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
        assert!(t1.held && items(&t1.arrivals).is_empty() && t1.ok());
        assert!(w.held.is_some());
        let t2 = w.transmit(2, no_corrupt);
        assert_eq!(
            items(&t2.arrivals),
            [2, 1],
            "new frame first, overtaken frame behind it"
        );
        // The slot freed up, so the next frame is parked again.
        let t3 = w.transmit(3, no_corrupt);
        assert!(t3.held);
        assert_eq!(items(&w.flush()), [3]);
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
                assert!(
                    w.held.is_none(),
                    "a drop releases whatever reordering parked"
                );
                break;
            }
            assert!(i < 1000, "seed 42 at 500 permille must drop eventually");
        }
    }

    const MIXED: WireFaults = WireFaults {
        drop_per_mille: 300,
        dup_per_mille: 200,
        reorder_per_mille: 100,
        corrupt_per_mille: 150,
        seed: 1234,
    };

    /// Two wires from one seed, advanced in lockstep, agree on every frame
    /// and on their counters. (Lockstep, not `run(wire)` twice through a
    /// closure taking the wire by value: rustc 1.95.0 at `-O` hands the
    /// second call the first call's end state — EXPERIMENTS.md "Offline
    /// toolchain" — which is not a property of this type.)
    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        let (mut a, mut b) = (wire(MIXED), wire(MIXED));
        for i in 0..200 {
            let ta = a.transmit(i, |v| *v = u32::MAX);
            let tb = b.transmit(i, |v| *v = u32::MAX);
            assert_eq!(ta, tb, "frame {i}");
        }
        assert_eq!(a.stats(), b.stats());
        // 200 frames at these rates exercise every fault kind.
        let s = a.stats();
        assert!(s.dropped > 0 && s.duplicated > 0 && s.reordered > 0 && s.corrupted > 0);
    }

    /// A decoded copy of a wire.
    fn through_codec<T: Codec>(w: &T) -> T {
        pdo_snap::decode(&pdo_snap::encode(w)).expect("own encoding decodes")
    }

    /// A wire rebuilt from its encoding mid-stream — a frame parked or not
    /// — continues the sequence the original draws.
    #[test]
    fn a_wire_rebuilt_mid_stream_continues_the_same_sequence() {
        let mut live = wire(MIXED);
        for i in 0..77 {
            live.transmit(i, |v| *v = u32::MAX);
        }
        let mut rebuilt = through_codec(&live);
        let mut parked_at_rebuild = 0;
        for i in 77..200 {
            if live.held.is_some() {
                rebuilt = through_codec(&live);
                parked_at_rebuild += 1;
            }
            let expected = live.transmit(i, |v| *v = u32::MAX);
            assert_eq!(
                rebuilt.transmit(i, |v| *v = u32::MAX),
                expected,
                "frame {i}"
            );
        }
        assert!(parked_at_rebuild > 0, "a rebuild must carry a held frame");
        assert_eq!(rebuilt.stats(), live.stats());
        assert_eq!(items(&rebuilt.flush()), items(&live.flush()));
    }

    /// Only a forged image can name a held frame with other than one or two
    /// copies; it is `Malformed`, never a wire that overruns the inline
    /// arrivals on release.
    #[test]
    fn a_forged_copy_count_cannot_overrun_the_arrivals() {
        for copies in [0, 1, 2, 3, u32::MAX] {
            let mut forged = wire(MIXED);
            forged.held = Some((7, copies));
            let decoded = pdo_snap::decode::<FaultyWire<u32>>(&pdo_snap::encode(&forged));
            match copies {
                1 | 2 => assert_eq!(decoded.unwrap(), forged),
                _ => assert!(
                    matches!(decoded, Err(SnapshotError::Malformed(_))),
                    "{copies} copies: {decoded:?}"
                ),
            }
        }
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
        assert_eq!(
            r.delivered().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn a_rebuilt_wire_and_receiver_continue_the_exact_fault_sequence() {
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
            restored = through_codec(&restored);
            rx_restored = through_codec(&rx_restored);
            let a = live.transmit((seq, seq), |v| v.1 = -1);
            let b = restored.transmit((seq, seq), |v| v.1 = -1);
            assert_eq!(a, b);
            for arr in a.arrivals.into_iter().flatten() {
                rx_live.accept(arr.item.0, arr.item.1);
            }
            for arr in b.arrivals.into_iter().flatten() {
                rx_restored.accept(arr.item.0, arr.item.1);
            }
        }
        assert_eq!(live.stats(), restored.stats());
        assert_eq!(rx_live, rx_restored);
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
            let t = w.transmit((seq, seq * 10), |_| {});
            for a in t.arrivals.into_iter().flatten() {
                r.accept(a.item.0, a.item.1);
            }
        }
        for a in w.flush().into_iter().flatten() {
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
            pdo_snap::hostile::check(&FaultyWire {
                faults,
                rng: u64::MAX,
                held,
                stats,
            });
        }
        pdo_snap::hostile::check(&SequencedReceiver {
            next: -3,
            buffer: BTreeMap::from([(5i64, vec![5u8]), (9, vec![])]),
            delivered: vec![(1, b"one".to_vec())],
            duplicates: 6,
        });
    }
}
