//! The flight recorder: a bounded ring buffer of structured runtime
//! events, cheap enough to leave on in production and dumped post-mortem
//! (on a fault, a panic, or a chaos-oracle mismatch) to show *why* a run
//! went wrong — the last thing the dispatcher, the adaptation loop, and
//! the containment machinery did, in order, on the virtual clock.
//!
//! Records are `Copy` and appended in O(1) with no allocation; the ring
//! overwrites the oldest record once full.

use std::fmt;

/// One structured flight-recorder entry. Event ids are raw `u32`s (the
/// recorder cannot depend on `pdo-ir`); the owning runtime knows the
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A rebind invalidated an installed chain (once per such rebind,
    /// not per dispatch that fell back).
    GuardMiss {
        /// Raw event id.
        event: u32,
    },
    /// A fault (injected or organic) was recorded.
    Fault {
        /// Raw event id.
        event: u32,
        /// Short static name of the fault kind.
        kind: &'static str,
    },
    /// The adaptation loop ran a full profile-and-optimize pass.
    Reprofile {
        /// Chains the pass produced.
        chains: u32,
        /// Wall-clock duration of the pass.
        duration_ns: u64,
    },
    /// A compiled chain was installed for `event`.
    ChainInstalled {
        /// Raw event id.
        event: u32,
    },
    /// A compiled chain for `event` was dropped (shifted away or removed
    /// before a hot swap).
    ChainDropped {
        /// Raw event id.
        event: u32,
    },
    /// The adaptation loop left hot `event` running generically.
    Declined {
        /// Raw event id.
        event: u32,
        /// Short static name of the reason.
        why: &'static str,
    },
    /// `event` entered quarantine until `until_ns` on the virtual clock.
    Quarantined {
        /// Raw event id.
        event: u32,
        /// Backoff expiry (virtual ns).
        until_ns: u64,
    },
    /// A quiescent session migrated between shards.
    SessionMigrated {
        /// Session id.
        session: u64,
        /// Source shard.
        from: u32,
        /// Destination shard.
        to: u32,
    },
    /// A server image (all quiescent sessions) was encoded and persisted.
    SnapshotPersisted {
        /// Sessions captured in the image.
        sessions: u32,
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A persisted server image was decoded and its sessions reopened.
    SnapshotRestored {
        /// Sessions recovered from the image.
        sessions: u32,
        /// Decoded size in bytes.
        bytes: u64,
    },
    /// One session was rebuilt from a snapshot onto `shard`.
    SessionRestored {
        /// Session id.
        session: u64,
        /// Shard the session was placed on.
        shard: u32,
    },
    /// A network connection reached the ingress and was mapped onto a
    /// shard.
    ConnOpened {
        /// Connection id (ingress-assigned, monotone).
        conn: u64,
        /// Shard the connection's commands flow to.
        shard: u32,
    },
    /// A network connection ended.
    ConnClosed {
        /// Connection id.
        conn: u64,
        /// Why: `"eof"`, `"io"`, `"corrupt"`, `"slow"`, or `"shutdown"`.
        reason: &'static str,
    },
    /// An over-capacity request was refused with a typed `Shed` reply
    /// instead of queueing unboundedly.
    RequestShed {
        /// Connection the request arrived on.
        conn: u64,
        /// Which limit fired: `"permits"`, `"queue"`, or `"quiesced"`.
        reason: &'static str,
    },
    /// The optimizer rewrote instruction sequences of a super-handler into
    /// a superinstruction — the flight record of which pattern fired where.
    SequenceFused {
        /// Raw function id of the rewritten function.
        func: u32,
        /// Fused mnemonic (e.g. `"lfold.i"`).
        pattern: &'static str,
        /// Sites rewritten to this pattern in this function.
        sites: u32,
    },
}

impl fmt::Display for ObsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsKind::GuardMiss { event } => write!(f, "guard-miss e{event}"),
            ObsKind::Fault { event, kind } => write!(f, "fault e{event} kind={kind}"),
            ObsKind::Reprofile {
                chains,
                duration_ns,
            } => write!(f, "reprofile chains={chains} took={duration_ns}ns"),
            ObsKind::ChainInstalled { event } => write!(f, "chain-installed e{event}"),
            ObsKind::ChainDropped { event } => write!(f, "chain-dropped e{event}"),
            ObsKind::Declined { event, why } => write!(f, "declined e{event} {why}"),
            ObsKind::Quarantined { event, until_ns } => {
                write!(f, "quarantined e{event} until={until_ns}ns")
            }
            ObsKind::SessionMigrated { session, from, to } => {
                write!(f, "session-migrated s{session} shard{from}->shard{to}")
            }
            ObsKind::SnapshotPersisted { sessions, bytes } => {
                write!(f, "snapshot-persisted sessions={sessions} bytes={bytes}")
            }
            ObsKind::SnapshotRestored { sessions, bytes } => {
                write!(f, "snapshot-restored sessions={sessions} bytes={bytes}")
            }
            ObsKind::SessionRestored { session, shard } => {
                write!(f, "session-restored s{session} shard={shard}")
            }
            ObsKind::ConnOpened { conn, shard } => {
                write!(f, "conn-opened c{conn} shard={shard}")
            }
            ObsKind::ConnClosed { conn, reason } => {
                write!(f, "conn-closed c{conn} reason={reason}")
            }
            ObsKind::RequestShed { conn, reason } => {
                write!(f, "request-shed c{conn} reason={reason}")
            }
            ObsKind::SequenceFused {
                func,
                pattern,
                sites,
            } => write!(f, "sequence-fused f{func} pattern={pattern} sites={sites}"),
        }
    }
}

/// One timestamped record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsRecord {
    /// Monotone sequence number (global order across the ring's life).
    pub seq: u64,
    /// Virtual-clock timestamp.
    pub at_ns: u64,
    /// What happened.
    pub kind: ObsKind,
}

impl fmt::Display for ObsRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<6} t={:<12} {}", self.seq, self.at_ns, self.kind)
    }
}

/// Bounded ring buffer of [`ObsRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<ObsRecord>,
    cap: usize,
    head: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            next_seq: 0,
        }
    }

    /// Appends one record, overwriting the oldest when full. O(1).
    #[inline]
    pub fn record(&mut self, at_ns: u64, kind: ObsKind) {
        let rec = ObsRecord {
            seq: self.next_seq,
            at_ns,
            kind,
        };
        self.next_seq += 1;
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Total records ever appended (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The last `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<ObsRecord> {
        let len = self.ring.len();
        let take = n.min(len);
        let mut out = Vec::with_capacity(take);
        for i in (len - take)..len {
            out.push(self.ring[(self.head + i) % len.max(1)]);
        }
        out
    }

    /// The last `n` records rendered one per line, oldest first — the
    /// post-mortem dump appended to fault reports and chaos-oracle
    /// failures.
    pub fn dump(&self, n: usize) -> String {
        let tail = self.tail(n);
        let mut out = String::new();
        for rec in tail {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_records_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(u64::from(i) * 10, ObsKind::GuardMiss { event: i });
        }
        assert_eq!(r.recorded(), 10);
        let tail = r.tail(64);
        assert_eq!(tail.len(), 4);
        let seqs: Vec<u64> = tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let two = r.tail(2);
        assert_eq!(two[0].seq, 8);
        assert_eq!(two[1].seq, 9);
    }

    #[test]
    fn dump_renders_one_line_per_record() {
        let mut r = FlightRecorder::new(8);
        r.record(5, ObsKind::GuardMiss { event: 1 });
        r.record(
            7,
            ObsKind::Fault {
                event: 1,
                kind: "trap_dispatch",
            },
        );
        let dump = r.dump(8);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("guard-miss e1"));
        assert!(dump.contains("fault e1 kind=trap_dispatch"));
    }

    #[test]
    fn tail_larger_than_capacity_returns_everything_retained() {
        let mut r = FlightRecorder::new(3);
        // Before the ring is full: tail(n > len) is just everything.
        r.record(1, ObsKind::GuardMiss { event: 0 });
        assert_eq!(r.tail(100).len(), 1);
        for i in 1..5u32 {
            r.record(u64::from(i), ObsKind::GuardMiss { event: i });
        }
        // n > capacity clamps to the retained window, never panics and
        // never fabricates records.
        let tail = r.tail(usize::MAX);
        assert_eq!(tail.len(), 3);
        assert_eq!(
            tail.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // tail(0) is empty regardless of state.
        assert!(r.tail(0).is_empty());
    }

    #[test]
    fn wraparound_preserves_oldest_first_order_across_many_overwrites() {
        let mut r = FlightRecorder::new(5);
        for i in 0..23u32 {
            r.record(u64::from(i) * 2, ObsKind::GuardMiss { event: i });
            // At every step the tail must be contiguous, strictly
            // ascending in seq, and end at the newest record.
            let tail = r.tail(5);
            let seqs: Vec<u64> = tail.iter().map(|t| t.seq).collect();
            let newest = u64::from(i);
            let oldest = newest.saturating_sub(4).min(newest + 1 - tail.len() as u64);
            assert_eq!(seqs, (oldest..=newest).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn recorded_is_monotone_and_counts_overwritten_records() {
        let mut r = FlightRecorder::new(2);
        assert_eq!(r.recorded(), 0);
        let mut last = 0;
        for i in 0..9u32 {
            r.record(0, ObsKind::GuardMiss { event: i });
            let now = r.recorded();
            assert!(now > last, "recorded() must strictly increase");
            last = now;
        }
        // 9 appends through a capacity-2 ring: recorded() counts all 9,
        // while only 2 records remain retrievable.
        assert_eq!(r.recorded(), 9);
        assert_eq!(r.tail(64).len(), 2);
    }
}
