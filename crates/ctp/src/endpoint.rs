//! A runnable CTP endpoint: natives, simulated link, and statistics.

use pdo_cactus::EventProgram;
use pdo_events::wire::{Arrival, FaultyWire, SequencedReceiver};
use pdo_events::{Runtime, RuntimeError};
use pdo_ir::{EventId, GlobalId, RaiseMode, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Seeded fault model for the simulated link — the shared
/// [`pdo_events::wire::WireFaults`] model (this crate's original
/// implementation was factored out so SecComm and pdo-xwin roll from the
/// same stream discipline; historical seeds reproduce identical fault
/// sequences). A corrupted segment has a payload byte flipped in transit,
/// which the receiver's parity check rejects (counts as loss, no ack).
pub use pdo_events::wire::WireFaults as LinkFaults;

/// Endpoint tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtpParams {
    /// Every `ack_drop_every`-th segment's acknowledgement is lost,
    /// triggering the timeout/retransmission path (0 disables loss).
    pub ack_drop_every: u64,
    /// Controller clock period in virtual ns. The paper's video player
    /// fires its controller once per frame (Fig 6 shows the controller
    /// chain at the same ~391 weight as the sender chain).
    pub clk_period_ns: u64,
    /// Link-level fault injection (defaults to a perfect link).
    pub link_faults: LinkFaults,
    /// Retransmission attempts per segment before the protocol gives up
    /// and reports [`CtpError::PeerUnreachable`]. Each retry doubles the
    /// previous timeout.
    pub max_retries: u32,
}

pdo_snap::codec_struct!(CtpParams {
    ack_drop_every,
    clk_period_ns,
    link_faults,
    max_retries,
});

impl Default for CtpParams {
    fn default() -> Self {
        CtpParams {
            ack_drop_every: 50,
            clk_period_ns: 200_000_000,
            link_faults: LinkFaults::default(),
            max_retries: 8,
        }
    }
}

/// CTP failure.
#[derive(Debug)]
pub enum CtpError {
    /// The event runtime failed.
    Runtime(RuntimeError),
    /// The program lacks a CTP symbol (indicates a build bug).
    MissingSymbol(String),
    /// A segment exhausted its retransmission budget; the link is treated
    /// as dead instead of retrying (and hanging) forever.
    PeerUnreachable,
}

impl fmt::Display for CtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtpError::Runtime(e) => write!(f, "runtime error: {e}"),
            CtpError::MissingSymbol(s) => write!(f, "missing symbol `{s}`"),
            CtpError::PeerUnreachable => {
                write!(f, "peer unreachable: retransmission retries exhausted")
            }
        }
    }
}

impl std::error::Error for CtpError {}

impl From<RuntimeError> for CtpError {
    fn from(e: RuntimeError) -> Self {
        CtpError::Runtime(e)
    }
}

/// Mutable native-side state shared with the runtime's natives: the
/// sender's positive-ack unit plus the simulated link and its receiver.
///
/// It is also the endpoint's snapshot: captured by
/// [`CtpEndpoint::export_link`] and reinstated by
/// [`CtpEndpoint::restore_link`], with its hash maps encoded in key order.
/// The runtime's own state (globals, scheduler, clock) is snapshotted
/// separately through [`pdo_events::Runtime`].
///
/// A payload is one block from the handler's value on: the retransmit
/// buffer, the wire log, the link and the receiver each hold a reference to
/// it, never a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtpLinkState {
    unacked: HashMap<i64, Arc<[u8]>>,
    wire: Vec<(i64, Arc<[u8]>)>,
    retransmissions: u64,
    sends_since_sample: i64,
    ack_drop_every: u64,
    // Link fault model (shared faulty-wire layer).
    link: FaultyWire<(i64, Arc<[u8]>)>,
    outcome: HashMap<i64, bool>,
    // Retry/backoff bookkeeping.
    max_retries: u32,
    retries: HashMap<i64, u32>,
    timeout_base_ns: i64,
    unreachable: bool,
    // Receiver: parity check + dedup + in-order release.
    rx: SequencedReceiver<Arc<[u8]>>,
    rx_corrupt_dropped: u64,
}

pdo_snap::codec_struct!(CtpLinkState {
    unacked,
    wire,
    retransmissions,
    sends_since_sample,
    ack_drop_every,
    link,
    outcome,
    max_retries,
    retries,
    timeout_base_ns,
    unreachable,
    rx,
    rx_corrupt_dropped,
});

/// Trailing-byte parity check (the FEC micro-protocol appends the xor of
/// the payload; the receiver verifies it).
fn parity_ok(segment: &[u8]) -> bool {
    match segment.split_last() {
        Some((p, body)) => body.iter().fold(0u8, |a, b| a ^ b) == *p,
        None => false,
    }
}

impl CtpLinkState {
    fn new(params: &CtpParams) -> Self {
        CtpLinkState {
            unacked: HashMap::new(),
            wire: Vec::new(),
            retransmissions: 0,
            sends_since_sample: 0,
            ack_drop_every: params.ack_drop_every,
            link: FaultyWire::new(params.link_faults),
            outcome: HashMap::new(),
            max_retries: params.max_retries,
            retries: HashMap::new(),
            timeout_base_ns: 100_000_000,
            unreachable: false,
            rx: SequencedReceiver::new(1),
            rx_corrupt_dropped: 0,
        }
    }

    /// One transmission over the faulty link. Returns whether the segment
    /// reaches the receiver intact (i.e. whether an ack will come back).
    fn transmit(&mut self, seq: i64, data: Arc<[u8]>) -> bool {
        // Logged before it is sent: the log (and the retransmit buffer)
        // share the clean block, so flipping a byte in transit copies it
        // first (copy-on-write) — when, and only when, the corruption roll
        // fires — and the log keeps what was sent.
        self.wire.push((seq, Arc::clone(&data)));
        let t = self.link.transmit((seq, data), |(_, payload)| {
            if payload.is_empty() {
                *payload = Arc::from([0xFF]);
            } else {
                Arc::make_mut(payload)[0] ^= 0xFF;
            }
        });
        let ok = t.ok();
        self.outcome.insert(seq, ok);
        for arrival in t.arrivals.into_iter().flatten() {
            self.receive(arrival);
        }
        ok
    }

    /// Delivers a transmission the reordering stage parked earlier.
    fn flush_held(&mut self) {
        for arrival in self.link.flush().into_iter().flatten() {
            self.receive(arrival);
        }
    }

    /// Receiver intake: parity-check each arrival, then deduplicate by
    /// sequence number, buffer out-of-order arrivals, release
    /// consecutively.
    fn receive(&mut self, arrival: Arrival<(i64, Arc<[u8]>)>) {
        let (seq, payload) = arrival.item;
        if !parity_ok(&payload) {
            self.rx_corrupt_dropped += 1;
            return;
        }
        self.rx.accept(seq, payload);
    }
}

/// Statistics snapshot of an endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtpStats {
    /// Segments sent (IR counter).
    pub segments_sent: i64,
    /// Segments acknowledged.
    pub segments_acked: i64,
    /// Retransmissions performed.
    pub retransmissions: i64,
    /// Fragment-size adaptations that shrank the fragment.
    pub resizes: i64,
    /// Current fragment size.
    pub frag_size: i64,
    /// Current quality estimate.
    pub quality: i64,
    /// Segments currently unacknowledged (native-side view).
    pub in_flight_native: usize,
    /// Transmissions lost by the link fault model.
    pub link_dropped: u64,
    /// Transmissions duplicated by the link fault model.
    pub link_duplicated: u64,
    /// Transmissions held back (reordered) by the link fault model.
    pub link_reordered: u64,
    /// Transmissions corrupted by the link fault model.
    pub link_corrupted: u64,
    /// Segments the receiver accepted and released in order.
    pub rx_delivered: usize,
    /// Duplicate arrivals the receiver discarded.
    pub rx_duplicates: u64,
    /// Arrivals the receiver rejected on the parity check.
    pub rx_corrupt_dropped: u64,
    /// Highest retry count among currently-unacknowledged segments — the
    /// link-level backoff level (0 when nothing is awaiting retry).
    pub backoff_level: u32,
    /// True once any segment exhausted its retransmission budget.
    pub peer_unreachable: bool,
}

impl CtpStats {
    /// Exports the protocol counters/gauges and the link fault counters
    /// into `snap` with `extra` labels on every series.
    pub fn export_metrics(&self, snap: &mut pdo_obs::MetricsSnapshot, extra: &[(&str, &str)]) {
        let as_u64 = |v: i64| u64::try_from(v).unwrap_or(0);
        snap.counter(
            "pdo_ctp_segments_sent_total",
            "CTP segments sent",
            extra,
            as_u64(self.segments_sent),
        );
        snap.counter(
            "pdo_ctp_segments_acked_total",
            "CTP segments acknowledged",
            extra,
            as_u64(self.segments_acked),
        );
        snap.counter(
            "pdo_ctp_retransmissions_total",
            "CTP retransmissions performed",
            extra,
            as_u64(self.retransmissions),
        );
        snap.counter(
            "pdo_ctp_rx_duplicates_total",
            "Duplicate arrivals the CTP receiver discarded",
            extra,
            self.rx_duplicates,
        );
        snap.counter(
            "pdo_ctp_rx_corrupt_dropped_total",
            "Arrivals the CTP receiver rejected on the parity check",
            extra,
            self.rx_corrupt_dropped,
        );
        snap.gauge(
            "pdo_ctp_frag_size",
            "Current CTP fragment size",
            extra,
            self.frag_size,
        );
        snap.gauge(
            "pdo_ctp_in_flight",
            "CTP segments currently unacknowledged",
            extra,
            self.in_flight_native as i64,
        );
        snap.gauge(
            "pdo_ctp_backoff_level",
            "Highest retry count among unacknowledged CTP segments",
            extra,
            i64::from(self.backoff_level),
        );
        snap.gauge(
            "pdo_ctp_peer_unreachable",
            "1 once any CTP segment exhausted its retransmission budget",
            extra,
            i64::from(self.peer_unreachable),
        );
        let wire = pdo_events::WireStats {
            dropped: self.link_dropped,
            duplicated: self.link_duplicated,
            reordered: self.link_reordered,
            corrupted: self.link_corrupted,
        };
        wire.export_metrics(snap, extra);
    }
}

/// A sender endpoint of the CTP composite protocol.
pub struct CtpEndpoint {
    rt: Runtime,
    state: Rc<RefCell<CtpLinkState>>,
    ev_open: EventId,
    ev_send: EventId,
    globals: Globals,
}

#[derive(Debug, Clone, Copy)]
struct Globals {
    sent: GlobalId,
    acked: GlobalId,
    retrans: GlobalId,
    resizes: GlobalId,
    frag_size: GlobalId,
    quality: GlobalId,
}

impl fmt::Debug for CtpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CtpEndpoint").field("rt", &self.rt).finish()
    }
}

impl CtpEndpoint {
    /// Builds an endpoint for `program` (plain or optimizer-extended).
    ///
    /// # Errors
    ///
    /// Fails when the program lacks CTP's events/globals/natives or when
    /// binding fails.
    pub fn new(program: &EventProgram, params: CtpParams) -> Result<CtpEndpoint, CtpError> {
        let mut rt = program.runtime()?;
        let state = Rc::new(RefCell::new(CtpLinkState::new(&params)));
        install_natives(&mut rt, &state)?;
        if let Some(g) = program.module.global_by_name("clk_period_ns") {
            rt.set_global(g, Value::Int(params.clk_period_ns as i64));
        }
        if let Some(g) = program.module.global_by_name("timeout_ns") {
            if let Some(t) = rt.global(g).as_int() {
                state.borrow_mut().timeout_base_ns = t;
            }
        }

        let ev = |name: &str| {
            program
                .module
                .event_by_name(name)
                .ok_or_else(|| CtpError::MissingSymbol(name.to_string()))
        };
        let gl = |name: &str| {
            program
                .module
                .global_by_name(name)
                .ok_or_else(|| CtpError::MissingSymbol(name.to_string()))
        };
        Ok(CtpEndpoint {
            ev_open: ev("Open")?,
            ev_send: ev("SendMsg")?,
            globals: Globals {
                sent: gl("sent_count")?,
                acked: gl("acked_count")?,
                retrans: gl("retrans_count")?,
                resizes: gl("resize_count")?,
                frag_size: gl("frag_size")?,
                quality: gl("quality")?,
            },
            rt,
            state,
        })
    }

    /// Opens the session: runs setup handlers and starts the controller
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn open(&mut self) -> Result<(), CtpError> {
        self.rt.raise(self.ev_open, RaiseMode::Sync, &[])?;
        self.link_check()
    }

    /// Sends one application message through the sender chain.
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), CtpError> {
        self.rt
            .raise(self.ev_send, RaiseMode::Sync, &[Value::bytes(payload)])?;
        self.link_check()
    }

    /// Advances virtual time to `deadline_ns`, firing due timers (acks,
    /// timeouts, the controller clock).
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn run_until(&mut self, deadline_ns: u64) -> Result<(), CtpError> {
        self.rt.run_until(deadline_ns)?;
        let now = self.rt.clock_ns();
        if deadline_ns > now {
            self.rt.advance_clock(deadline_ns - now);
        }
        // A transmission parked by the reordering stage with nothing left
        // to overtake it finally arrives.
        self.state.borrow_mut().flush_held();
        self.link_check()
    }

    /// Fails fast once the retry budget of any segment is exhausted.
    fn link_check(&self) -> Result<(), CtpError> {
        if self.state.borrow().unreachable {
            Err(CtpError::PeerUnreachable)
        } else {
            Ok(())
        }
    }

    /// Drains all remaining queued/timed work (ends the session; the
    /// controller clock re-arms itself, so this caps at `slack_ns` past the
    /// current time).
    ///
    /// # Errors
    ///
    /// Propagates handler faults.
    pub fn drain(&mut self, slack_ns: u64) -> Result<(), CtpError> {
        let deadline = self.rt.clock_ns().saturating_add(slack_ns);
        self.run_until(deadline)
    }

    /// A statistics snapshot combining IR globals and native state.
    pub fn stats(&self) -> CtpStats {
        let int = |g: GlobalId| self.rt.global(g).as_int().unwrap_or(0);
        let st = self.state.borrow();
        let wire = st.link.stats();
        CtpStats {
            segments_sent: int(self.globals.sent),
            segments_acked: int(self.globals.acked),
            retransmissions: int(self.globals.retrans),
            resizes: int(self.globals.resizes),
            frag_size: int(self.globals.frag_size),
            quality: int(self.globals.quality),
            in_flight_native: st.unacked.len(),
            link_dropped: wire.dropped,
            link_duplicated: wire.duplicated,
            link_reordered: wire.reordered,
            link_corrupted: wire.corrupted,
            rx_delivered: st.rx.delivered().len(),
            rx_duplicates: st.rx.duplicates(),
            rx_corrupt_dropped: st.rx_corrupt_dropped,
            backoff_level: st.retries.values().copied().max().unwrap_or(0),
            peer_unreachable: st.unreachable,
        }
    }

    /// The payload bytes the **receiver** accepted, deduplicated and in
    /// sequence order, parity bytes stripped — under any fault plan this
    /// reassembles to a prefix of the concatenation of sent messages, and
    /// to the whole of it once every segment is delivered.
    pub fn received_payload(&self) -> Vec<u8> {
        let st = self.state.borrow();
        let mut out = Vec::new();
        for (_, seg) in st.rx.delivered() {
            if !seg.is_empty() {
                out.extend_from_slice(&seg[..seg.len() - 1]);
            }
        }
        out
    }

    /// The payload bytes observed on the wire (parity bytes stripped), in
    /// first-transmission order — reassembles to the concatenation of sent
    /// messages when nothing needed retransmission.
    pub fn wire_payload(&self) -> Vec<u8> {
        let st = self.state.borrow();
        let mut out = Vec::new();
        for (_, seg) in &st.wire {
            if !seg.is_empty() {
                out.extend_from_slice(&seg[..seg.len() - 1]);
            }
        }
        out
    }

    /// Current virtual time of the session clock.
    pub fn clock_ns(&self) -> u64 {
        self.rt.clock_ns()
    }

    /// Queued async/timed work not yet dispatched.
    pub fn pending(&self) -> usize {
        self.rt.pending()
    }

    /// The underlying runtime (tracing, cost counters, chains).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Read-only runtime access.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// A copy of the native-side protocol state (retransmit queues, retry
    /// counters, faulty-link layer, receiver buffers) for snapshotting.
    /// The runtime's state is exported separately by the caller. Payloads
    /// are shared with the live endpoint, not copied.
    pub fn export_link(&self) -> CtpLinkState {
        self.state.borrow().clone()
    }

    /// Replaces the native-side protocol state with one exported by
    /// [`CtpEndpoint::export_link`]. Call on a freshly built endpoint
    /// (before [`CtpEndpoint::open`] — a restored session resumes, it does
    /// not re-run setup).
    pub fn restore_link(&mut self, link: CtpLinkState) {
        *self.state.borrow_mut() = link;
    }
}

fn install_natives(rt: &mut Runtime, state: &Rc<RefCell<CtpLinkState>>) -> Result<(), CtpError> {
    let int_arg = |args: &[Value], i: usize| -> Result<i64, String> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| format!("expected int argument {i}"))
    };
    // The segment a native keeps: a reference to the handler's block.
    let segment_arg = |args: &[Value]| -> Result<Arc<[u8]>, String> {
        match args.get(1) {
            Some(Value::Bytes(block)) => Ok(Arc::clone(block)),
            _ => Err("expected bytes".to_string()),
        }
    };

    let s = Rc::clone(state);
    rt.bind_native_by_name("net_send", move |args| {
        let seq = int_arg(args, 0)?;
        let data = segment_arg(args)?;
        let mut st = s.borrow_mut();
        st.transmit(seq, data);
        st.sends_since_sample += 1;
        Ok(Value::Unit)
    })
    .map_err(CtpError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("pau_register", move |args| {
        let seq = int_arg(args, 0)?;
        let data = segment_arg(args)?;
        s.borrow_mut().unacked.insert(seq, data);
        Ok(Value::Unit)
    })
    .map_err(CtpError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("pau_ack", move |args| {
        let seq = int_arg(args, 0)?;
        let mut st = s.borrow_mut();
        st.retries.remove(&seq);
        Ok(Value::Bool(st.unacked.remove(&seq).is_some()))
    })
    .map_err(CtpError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("pau_is_unacked", move |args| {
        let seq = int_arg(args, 0)?;
        Ok(Value::Bool(s.borrow().unacked.contains_key(&seq)))
    })
    .map_err(CtpError::Runtime)?;

    // Returns whether the retransmitted copy reached the receiver (i.e.
    // whether its ack will come back). The PAU registered the raw fragment
    // (it runs before the FEC handler), so the wire parity byte is
    // re-appended here.
    let s = Rc::clone(state);
    rt.bind_native_by_name("retransmit", move |args| {
        let seq = int_arg(args, 0)?;
        let mut st = s.borrow_mut();
        if let Some(raw) = st.unacked.get(&seq) {
            let parity = raw.iter().fold(0u8, |a, b| a ^ b);
            // Raw fragment + parity, built as the one block the wire keeps.
            let data = raw.iter().copied().chain([parity]).collect();
            st.retransmissions += 1;
            let ok = st.transmit(seq, data);
            Ok(Value::Bool(ok))
        } else {
            Ok(Value::Bool(false))
        }
    })
    .map_err(CtpError::Runtime)?;

    // Doubles the retransmission timeout per retry; returns 0 once the
    // budget is exhausted, marking the peer unreachable.
    let s = Rc::clone(state);
    rt.bind_native_by_name("retry_backoff", move |args| {
        let seq = int_arg(args, 0)?;
        let mut st = s.borrow_mut();
        let count = {
            let r = st.retries.entry(seq).or_insert(0);
            *r += 1;
            *r
        };
        if count > st.max_retries {
            st.retries.remove(&seq);
            if st.unacked.remove(&seq).is_some() {
                st.unreachable = true;
            }
            Ok(Value::Int(0))
        } else {
            let shift = count.min(20);
            Ok(Value::Int(st.timeout_base_ns.saturating_mul(1 << shift)))
        }
    })
    .map_err(CtpError::Runtime)?;

    rt.bind_native_by_name("fec_parity", move |args| {
        let data = args
            .first()
            .and_then(Value::as_bytes)
            .ok_or("expected bytes")?;
        let parity = data.iter().fold(0u8, |a, b| a ^ b);
        Ok(Value::Int(i64::from(parity)))
    })
    .map_err(CtpError::Runtime)?;

    // "Will no ack arrive for this first transmission?" — true when the
    // legacy deterministic pattern drops the ack or when the link fault
    // model lost/corrupted the segment itself.
    let s = Rc::clone(state);
    rt.bind_native_by_name("ack_drop", move |args| {
        let seq = int_arg(args, 0)?;
        let st = s.borrow();
        let every = st.ack_drop_every;
        let legacy = every != 0 && seq as u64 % every == every - 1;
        let delivered = st.outcome.get(&seq).copied().unwrap_or(true);
        Ok(Value::Bool(legacy || !delivered))
    })
    .map_err(CtpError::Runtime)?;

    let s = Rc::clone(state);
    rt.bind_native_by_name("controller_sample", move |_args| {
        let mut st = s.borrow_mut();
        let v = st.sends_since_sample;
        st.sends_since_sample = 0;
        Ok(Value::Int(v))
    })
    .map_err(CtpError::Runtime)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ctp_program;

    fn endpoint() -> CtpEndpoint {
        let mut e = CtpEndpoint::new(&ctp_program(), CtpParams::default()).unwrap();
        e.open().unwrap();
        e
    }

    #[test]
    fn single_small_message_one_segment() {
        let mut e = endpoint();
        e.send(&[7u8; 100]).unwrap();
        let stats = e.stats();
        assert_eq!(stats.segments_sent, 1);
        assert_eq!(e.state.borrow().wire.len(), 1);
        assert_eq!(e.wire_payload(), vec![7u8; 100]);
    }

    #[test]
    fn large_message_fragments() {
        let mut e = endpoint();
        e.send(&vec![1u8; 1200]).unwrap(); // frag 512 -> 3 segments
        assert_eq!(e.stats().segments_sent, 3);
        assert_eq!(e.wire_payload().len(), 1200);
    }

    #[test]
    fn acks_arrive_after_delay() {
        let mut e = endpoint();
        e.send(&[1u8; 10]).unwrap();
        assert_eq!(e.stats().segments_acked, 0);
        assert_eq!(e.stats().in_flight_native, 1);
        e.run_until(40_000_000).unwrap(); // > 30ms ack delay
        assert_eq!(e.stats().segments_acked, 1);
        assert_eq!(e.stats().in_flight_native, 0);
    }

    #[test]
    fn dropped_ack_triggers_retransmission() {
        let program = ctp_program();
        let mut e = CtpEndpoint::new(
            &program,
            CtpParams {
                ack_drop_every: 1,
                ..Default::default()
            },
        )
        .unwrap();
        e.open().unwrap();
        e.send(&[1u8; 10]).unwrap();
        // Every ack dropped: the 100ms timeout fires and retransmits, and
        // the retransmission's ack always arrives.
        e.run_until(200_000_000).unwrap();
        let stats = e.stats();
        assert_eq!(stats.retransmissions, 1);
        assert_eq!(stats.segments_acked, 1);
        assert_eq!(e.state.borrow().wire.len(), 2);
    }

    #[test]
    fn controller_fires_periodically() {
        let mut e = endpoint();
        // 1 second at a 200ms period: ~5 firings.
        e.run_until(1_000_000_000).unwrap();
        let quality = e.stats().quality;
        assert_eq!(quality, 100); // nothing in flight
        let sample_sum = e.runtime().module().global_by_name("sample_sum").unwrap();
        // Samples observed (0 sends, but the Sample event fired).
        assert!(e.runtime().global(sample_sum).as_int().is_some());
        let last = e.runtime().module().global_by_name("last_sample").unwrap();
        assert_eq!(e.runtime().global(last).as_int(), Some(0));
    }

    #[test]
    fn heavy_loss_shrinks_fragment_size() {
        let program = ctp_program();
        let mut e = CtpEndpoint::new(
            &program,
            CtpParams {
                ack_drop_every: 1,
                ..Default::default()
            },
        )
        .unwrap();
        e.open().unwrap();
        for i in 0..40 {
            e.send(&vec![i as u8; 700]).unwrap(); // 2 segments each
            e.run_until((i + 1) * 50_000_000).unwrap();
        }
        e.drain(2_000_000_000).unwrap();
        let stats = e.stats();
        assert!(stats.retransmissions > 10);
        assert!(
            stats.resizes >= 1,
            "rate adaptation should have shrunk: {stats:?}"
        );
        assert!(stats.frag_size < 512);
    }

    #[test]
    fn no_loss_grows_fragment_size_back() {
        let mut e = endpoint();
        for i in 0..20 {
            e.send(&[0u8; 64]).unwrap();
            e.run_until((i + 1) * 250_000_000).unwrap();
        }
        // Clock ticked ~20 times with no retransmissions: growth to cap.
        assert!(e.stats().frag_size > 512);
    }

    #[test]
    fn stats_balance_after_drain() {
        let mut e = endpoint();
        for i in 0..30 {
            e.send(&vec![1u8; 300]).unwrap();
            e.run_until((i + 1) * 40_000_000).unwrap();
        }
        e.drain(2_000_000_000).unwrap();
        let stats = e.stats();
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert_eq!(stats.in_flight_native, 0);
    }

    fn faulty_endpoint(faults: LinkFaults, max_retries: u32) -> CtpEndpoint {
        let mut e = CtpEndpoint::new(
            &ctp_program(),
            CtpParams {
                ack_drop_every: 0, // isolate the link fault model
                link_faults: faults,
                max_retries,
                ..Default::default()
            },
        )
        .unwrap();
        e.open().unwrap();
        e
    }

    fn send_sequence(e: &mut CtpEndpoint, msgs: u8, size: usize) -> Vec<u8> {
        let mut expected = Vec::new();
        for i in 0..msgs {
            let msg = vec![i; size];
            expected.extend_from_slice(&msg);
            e.send(&msg).unwrap();
            e.run_until((u64::from(i) + 1) * 50_000_000).unwrap();
        }
        expected
    }

    #[test]
    fn lossy_link_delivers_everything_in_order() {
        let faults = LinkFaults {
            drop_per_mille: 200,
            seed: 7,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 8);
        let expected = send_sequence(&mut e, 30, 300);
        e.drain(60_000_000_000).unwrap();
        let stats = e.stats();
        assert!(stats.link_dropped > 0, "{stats:?}");
        assert!(stats.retransmissions > 0);
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert_eq!(stats.in_flight_native, 0);
        assert!(!stats.peer_unreachable);
        assert_eq!(e.received_payload(), expected);
    }

    #[test]
    fn dead_link_reports_peer_unreachable() {
        let faults = LinkFaults {
            drop_per_mille: 1000,
            seed: 1,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 3);
        e.send(&[9u8; 40]).unwrap();
        let err = e.drain(60_000_000_000).unwrap_err();
        assert!(matches!(err, CtpError::PeerUnreachable), "{err}");
        let stats = e.stats();
        assert!(stats.peer_unreachable);
        assert_eq!(stats.segments_acked, 0);
        // 1 initial timeout retransmission + max_retries backed-off ones.
        assert_eq!(stats.retransmissions, 4);
        assert_eq!(stats.in_flight_native, 0, "gave up, not leaked");
        assert!(e.received_payload().is_empty());
    }

    #[test]
    fn duplicating_link_is_deduplicated_by_the_receiver() {
        let faults = LinkFaults {
            dup_per_mille: 1000,
            seed: 3,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 8);
        let expected = send_sequence(&mut e, 6, 700); // 2 segments each
        e.drain(5_000_000_000).unwrap();
        let stats = e.stats();
        assert_eq!(stats.link_duplicated, stats.segments_sent as u64);
        assert!(stats.rx_duplicates >= stats.segments_sent as u64);
        assert_eq!(stats.rx_delivered, stats.segments_sent as usize);
        assert_eq!(e.received_payload(), expected);
    }

    #[test]
    fn corrupting_link_retries_until_clean() {
        let faults = LinkFaults {
            corrupt_per_mille: 400,
            seed: 11,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 8);
        let expected = send_sequence(&mut e, 20, 300);
        e.drain(60_000_000_000).unwrap();
        let stats = e.stats();
        assert!(stats.link_corrupted > 0, "{stats:?}");
        assert_eq!(stats.rx_corrupt_dropped, stats.link_corrupted);
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert_eq!(e.received_payload(), expected);
    }

    #[test]
    fn reordering_link_is_released_in_order() {
        let faults = LinkFaults {
            reorder_per_mille: 500,
            seed: 5,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 8);
        let expected = send_sequence(&mut e, 10, 700);
        e.drain(5_000_000_000).unwrap();
        let stats = e.stats();
        assert!(stats.link_reordered > 0, "{stats:?}");
        assert_eq!(stats.rx_delivered, stats.segments_sent as usize);
        assert_eq!(e.received_payload(), expected);
    }

    #[test]
    fn perfect_link_receiver_matches_wire() {
        let mut e = endpoint();
        let expected = send_sequence(&mut e, 10, 300);
        e.drain(2_000_000_000).unwrap();
        assert_eq!(e.received_payload(), expected);
        assert_eq!(e.stats().rx_corrupt_dropped, 0);
    }

    // --- Receiver-model edge cases -------------------------------------
    //
    // Deterministic corner scenarios for the dedup / in-order-release /
    // retry machinery: a duplicate of the *final* segment arriving after
    // the session is otherwise fully acked, reordering straddling the
    // retry-cap boundary, corruption forcing a retransmission, and
    // corruption alone exhausting the retry budget.

    #[test]
    fn duplicated_final_segment_after_ack_is_discarded() {
        // Legacy ack-drop pattern: with `every = 4`, only seq 3 matches
        // `seq % every == every - 1`, so exactly the final segment's ack is
        // dropped. The segment itself was delivered; the timeout
        // retransmits it after the first two segments are already acked,
        // and the receiver must discard the late duplicate.
        let mut e = CtpEndpoint::new(
            &ctp_program(),
            CtpParams {
                ack_drop_every: 4,
                ..Default::default()
            },
        )
        .unwrap();
        e.open().unwrap();
        let expected = send_sequence(&mut e, 3, 100); // seqs 1, 2, 3
        e.drain(2_000_000_000).unwrap();
        let stats = e.stats();
        assert_eq!(stats.segments_sent, 3);
        assert_eq!(stats.retransmissions, 1, "only the final segment retried");
        assert_eq!(stats.rx_duplicates, 1, "the late copy was discarded");
        assert_eq!(stats.rx_delivered, 3, "each segment released once");
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert_eq!(stats.in_flight_native, 0);
        assert!(!stats.peer_unreachable);
        assert_eq!(e.received_payload(), expected);
    }

    #[test]
    fn reorder_across_the_retry_cap_boundary_still_delivers_in_order() {
        // Seed 18 at these rates makes the worst segment need exactly
        // max_retries = 3 attempts while other segments are held back by
        // the reordering stage, so in-order release happens right at the
        // retry-cap boundary.
        let faults = LinkFaults {
            drop_per_mille: 450,
            reorder_per_mille: 450,
            seed: 18,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 3);
        let mut expected = Vec::new();
        for i in 0..4u8 {
            let msg = vec![i; 700]; // 2 segments each
            expected.extend_from_slice(&msg);
            e.send(&msg).unwrap();
            e.run_until((u64::from(i) + 1) * 50_000_000).unwrap();
        }
        e.drain(120_000_000_000).unwrap();
        let stats = e.stats();
        assert!(stats.link_reordered > 0, "{stats:?}");
        assert!(stats.retransmissions > 0, "{stats:?}");
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert_eq!(stats.rx_delivered, stats.segments_sent as usize);
        assert!(!stats.peer_unreachable);
        assert_eq!(e.received_payload(), expected, "released strictly in order");
    }

    #[test]
    fn one_fewer_retry_across_the_same_boundary_surfaces_peer_unreachable() {
        // The identical fault pattern as above with the budget one below
        // the boundary: the worst segment gives up and the session error
        // surfaces as PeerUnreachable instead of hanging.
        let faults = LinkFaults {
            drop_per_mille: 450,
            reorder_per_mille: 450,
            seed: 18,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 2);
        let err = (|| -> Result<(), CtpError> {
            for i in 0..4u8 {
                e.send(&vec![i; 700])?;
                e.run_until((u64::from(i) + 1) * 50_000_000)?;
            }
            e.drain(120_000_000_000)?;
            Ok(())
        })()
        .unwrap_err();
        assert!(matches!(err, CtpError::PeerUnreachable), "{err}");
        assert!(e.stats().peer_unreachable);
        assert_eq!(e.stats().in_flight_native, 0, "gave up, not leaked");
    }

    #[test]
    fn corrupt_then_retransmit_delivers_on_the_clean_copy() {
        // Seed 6 at 600 permille corrupts exactly the first transmission
        // and leaves the retransmission clean: the receiver's parity check
        // rejects the first copy, no ack comes back, the timeout fires,
        // and the clean retransmission delivers and is acked.
        let faults = LinkFaults {
            corrupt_per_mille: 600,
            seed: 6,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 8);
        e.send(&[42u8; 100]).unwrap();
        // The receiver saw the flipped byte; the wire log and the
        // retransmit buffer, which share the segment's block with the
        // link, still hold what was sent.
        assert_eq!(e.stats().rx_corrupt_dropped, 1, "garbage arrived");
        let link = e.export_link();
        assert_eq!(link.unacked, HashMap::from([(1, Arc::from([42u8; 100]))]));
        assert_eq!(link.wire.len(), 1);
        assert!(parity_ok(&link.wire[0].1), "the log is what was sent");
        assert_eq!(e.wire_payload(), vec![42u8; 100]);

        e.drain(2_000_000_000).unwrap();
        assert_eq!(e.wire_payload(), vec![42u8; 200], "both copies clean");
        let stats = e.stats();
        assert_eq!(stats.link_corrupted, 1);
        assert_eq!(stats.rx_corrupt_dropped, 1, "parity rejected the garbage");
        assert_eq!(stats.retransmissions, 1);
        assert_eq!(stats.rx_delivered, 1);
        assert_eq!(stats.rx_duplicates, 0);
        assert_eq!(stats.segments_acked, stats.segments_sent);
        assert!(!stats.peer_unreachable);
        assert_eq!(e.received_payload(), vec![42u8; 100]);
    }

    #[test]
    fn kill_restore_mid_session_continues_identically() {
        // Reference run: lossy link, messages interleaved with timer work.
        let faults = LinkFaults {
            drop_per_mille: 250,
            dup_per_mille: 150,
            reorder_per_mille: 200,
            corrupt_per_mille: 150,
            seed: 31,
        };
        let params = CtpParams {
            ack_drop_every: 0,
            link_faults: faults,
            max_retries: 8,
            ..Default::default()
        };
        let program = ctp_program();
        let run_segment = |e: &mut CtpEndpoint, i: u64| {
            e.send(&vec![i as u8; 300]).unwrap();
            e.run_until((i + 1) * 50_000_000).unwrap();
        };

        let mut reference = CtpEndpoint::new(&program, params).unwrap();
        reference.open().unwrap();
        let mut victim = CtpEndpoint::new(&program, params).unwrap();
        victim.open().unwrap();
        for i in 0..10 {
            run_segment(&mut reference, i);
            run_segment(&mut victim, i);
            // Kill the victim endpoint and rebuild it from exported state:
            // runtime globals + scheduler + clock, then the link state.
            let module = victim.runtime().module().clone();
            let globals: Vec<Value> = (0..module.globals.len())
                .map(|g| victim.runtime().global(GlobalId::from_index(g)).clone())
                .collect();
            let sched = victim.runtime().export_sched();
            let clock = victim.runtime().clock_ns();
            let link = victim.export_link();
            if i == 5 {
                // Mid-conversation — unacked segments, retry counters, the
                // faulty link's RNG cursor: the durable form round-trips
                // and rejects every corruption.
                pdo_snap::hostile::check(&link);
                pdo_snap::hostile::check(&params);
            }
            drop(victim);

            victim = CtpEndpoint::new(&program, params).unwrap();
            for (g, v) in globals.into_iter().enumerate() {
                victim.runtime_mut().set_global(GlobalId::from_index(g), v);
            }
            victim.runtime_mut().restore_sched(sched);
            victim.runtime_mut().advance_clock(clock);
            victim.restore_link(link);
        }
        reference.drain(10_000_000_000).unwrap();
        victim.drain(10_000_000_000).unwrap();
        assert_eq!(victim.stats(), reference.stats());
        assert_eq!(victim.received_payload(), reference.received_payload());
        assert_eq!(victim.export_link(), reference.export_link());
    }

    #[test]
    fn corruption_alone_exhausts_the_retry_budget() {
        // A link that corrupts every copy never gets a parity-clean
        // segment through: the receiver rejects each arrival, no ack ever
        // comes back, and the retry budget surfaces PeerUnreachable even
        // though nothing was technically dropped.
        let faults = LinkFaults {
            corrupt_per_mille: 1000,
            seed: 1,
            ..Default::default()
        };
        let mut e = faulty_endpoint(faults, 2);
        e.send(&[9u8; 40]).unwrap();
        let err = e.drain(60_000_000_000).unwrap_err();
        assert!(matches!(err, CtpError::PeerUnreachable), "{err}");
        let stats = e.stats();
        assert!(stats.peer_unreachable);
        assert_eq!(stats.link_dropped, 0);
        assert_eq!(
            stats.rx_corrupt_dropped,
            e.state.borrow().wire.len() as u64,
            "every copy was rejected by the parity check"
        );
        assert_eq!(stats.rx_delivered, 0);
        assert_eq!(stats.segments_acked, 0);
        assert!(e.received_payload().is_empty());
    }
}
