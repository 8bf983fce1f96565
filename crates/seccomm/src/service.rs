//! The SecComm composite protocol and its runnable endpoints.

use crate::crypto::{des, keyed_md5, xorcipher::xor_into, DesKey};
use pdo_cactus::{CompositeBuilder, CompositeProtocol, EventProgram};
use pdo_events::wire::{Arrival, FaultyWire, WireFaults, WireStats};
use pdo_events::{Runtime, RuntimeError};
use pdo_ir::{EventId, RaiseMode, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// The configuration measured in the paper's Fig 12: DES + XOR + the
/// coordinator.
pub const CONFIG_PAPER: &[&str] = &["Coordinator", "DESPrivacy", "XorPrivacy"];

/// The full configuration: paper config plus keyed-MD5 integrity (the Fig 2
/// style richer stack).
pub const CONFIG_FULL: &[&str] = &[
    "Coordinator",
    "DESPrivacy",
    "XorPrivacy",
    "KeyedMd5Integrity",
];

/// Session keys for the micro-protocols.
#[derive(Clone, PartialEq, Eq)]
pub struct Keys {
    /// 8-byte DES key.
    pub des: [u8; 8],
    /// XOR keystream (cycled).
    pub xor: Vec<u8>,
    /// MAC key for keyed MD5.
    pub mac: Vec<u8>,
}

pdo_snap::codec_struct!(Keys { des, xor, mac });

/// Key material never reaches a log line: each field shows as its length.
impl fmt::Debug for Keys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keys")
            .field("des", &self.des.len())
            .field("xor", &self.xor.len())
            .field("mac", &self.mac.len())
            .finish()
    }
}

impl Default for Keys {
    fn default() -> Self {
        Keys {
            des: *b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1",
            xor: b"keystream".to_vec(),
            mac: b"integrity-key".to_vec(),
        }
    }
}

/// SecComm failure.
#[derive(Debug)]
pub enum SecCommError {
    /// The event runtime failed.
    Runtime(RuntimeError),
    /// The protocol definition is missing a symbol (indicates a build bug).
    MissingSymbol(String),
    /// `push` produced no wire message / `pop` delivered nothing.
    NoOutput,
    /// KeyedMD5 verification failed on the inbound packet; it was dropped
    /// and counted, and the rest of the decode chain was skipped.
    IntegrityFailure,
}

impl fmt::Display for SecCommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecCommError::Runtime(e) => write!(f, "runtime error: {e}"),
            SecCommError::MissingSymbol(s) => write!(f, "missing symbol `{s}`"),
            SecCommError::NoOutput => write!(f, "the chain produced no output message"),
            SecCommError::IntegrityFailure => {
                write!(f, "MAC verification failed; packet dropped")
            }
        }
    }
}

impl std::error::Error for SecCommError {}

impl From<RuntimeError> for SecCommError {
    fn from(e: RuntimeError) -> Self {
        SecCommError::Runtime(e)
    }
}

/// Builds the SecComm composite protocol.
///
/// Push path: `msgFromUser` → (coordinator) → `EncodeMsg` (privacy and
/// integrity handlers transform the shared `push_buf`) → `msgToNet`
/// (hands `push_buf` to the network native). Pop path mirrors it through
/// `msgFromNet` → `DecodeMsg` → `msgToUser`.
pub fn seccomm_protocol() -> CompositeProtocol {
    let mut b = CompositeBuilder::new("SecComm");

    let msg_from_user = b.event("msgFromUser");
    let encode = b.event("EncodeMsg");
    let msg_to_net = b.event("msgToNet");
    let msg_from_net = b.event("msgFromNet");
    let decode = b.event("DecodeMsg");
    let msg_to_user = b.event("msgToUser");

    let push_buf = b.global("push_buf", Value::bytes(Vec::new()));
    let pop_buf = b.global("pop_buf", Value::bytes(Vec::new()));

    let n_des_enc = b.native("des_encrypt");
    let n_des_dec = b.native("des_decrypt");
    let n_xor = b.native("xor_apply");
    let n_mac_add = b.native("mac_append");
    let n_mac_strip = b.native("mac_verify_strip");
    let n_net_send = b.native("net_send");
    let n_deliver = b.native("deliver");
    let n_decode_ok = b.native("decode_ok");

    // Coordinator: stages a message into the shared buffer, drives the
    // chain, and hands the result off.
    b.micro_protocol("Coordinator", |mp| {
        mp.handler(msg_from_user, 0, "coord_push", 1, |f| {
            f.lock(push_buf);
            f.store_global(push_buf, f.param(0));
            f.unlock(push_buf);
            f.raise(encode, RaiseMode::Sync, &[]);
            f.raise(msg_to_net, RaiseMode::Sync, &[]);
            f.ret(None);
        });
        mp.handler(msg_to_net, 0, "coord_send", 0, |f| {
            f.lock(push_buf);
            let buf = f.load_global(push_buf);
            f.unlock(push_buf);
            let _ = f.call_native(n_net_send, &[buf]);
            f.ret(None);
        });
        mp.handler(msg_from_net, 0, "coord_pop", 1, |f| {
            f.lock(pop_buf);
            f.store_global(pop_buf, f.param(0));
            f.unlock(pop_buf);
            f.raise(decode, RaiseMode::Sync, &[]);
            f.raise(msg_to_user, RaiseMode::Sync, &[]);
            f.ret(None);
        });
        // Delivery is gated on the integrity verdict: a packet that failed
        // MAC verification is dropped, never handed to the user.
        mp.handler(msg_to_user, 0, "coord_deliver", 0, |f| {
            let work = f.new_block();
            let skip = f.new_block();
            let ok = f.call_native(n_decode_ok, &[]);
            f.branch(ok, work, skip);
            f.switch_to(work);
            f.lock(pop_buf);
            let buf = f.load_global(pop_buf);
            f.unlock(pop_buf);
            let _ = f.call_native(n_deliver, &[buf]);
            f.ret(None);
            f.switch_to(skip);
            f.ret(None);
        });
    });

    // A privacy/integrity handler body: buf = native(buf), under the lock.
    let transform =
        |f: &mut pdo_ir::FunctionBuilder, global: pdo_ir::GlobalId, native: pdo_ir::NativeId| {
            f.lock(global);
            let v = f.load_global(global);
            let out = f.call_native(native, &[v]);
            f.store_global(global, out);
            f.unlock(global);
            f.ret(None);
        };

    // A decode-side transform: same as above, but skipped entirely when the
    // packet already failed MAC verification (so garbage never reaches the
    // cipher layers and cannot fault in DES unpadding).
    let guarded =
        |f: &mut pdo_ir::FunctionBuilder, global: pdo_ir::GlobalId, native: pdo_ir::NativeId| {
            let work = f.new_block();
            let skip = f.new_block();
            let ok = f.call_native(n_decode_ok, &[]);
            f.branch(ok, work, skip);
            f.switch_to(work);
            f.lock(global);
            let v = f.load_global(global);
            let out = f.call_native(native, &[v]);
            f.store_global(global, out);
            f.unlock(global);
            f.ret(None);
            f.switch_to(skip);
            f.ret(None);
        };

    // Encode order: DES (10) then XOR (20) then MAC (30).
    // Decode order mirrors: MAC strip (5), XOR (10), DES (20).
    b.micro_protocol("DESPrivacy", |mp| {
        mp.handler(encode, 10, "des_push", 0, |f| {
            transform(f, push_buf, n_des_enc)
        });
        mp.handler(decode, 20, "des_pop", 0, |f| guarded(f, pop_buf, n_des_dec));
    });
    b.micro_protocol("XorPrivacy", |mp| {
        mp.handler(encode, 20, "xor_push", 0, |f| transform(f, push_buf, n_xor));
        mp.handler(decode, 10, "xor_pop", 0, |f| guarded(f, pop_buf, n_xor));
    });
    b.micro_protocol("KeyedMd5Integrity", |mp| {
        mp.handler(encode, 30, "mac_push", 0, |f| {
            transform(f, push_buf, n_mac_add)
        });
        mp.handler(decode, 5, "mac_pop", 0, |f| {
            transform(f, pop_buf, n_mac_strip)
        });
    });

    b.finish()
}

/// Portable image of an endpoint's native-side wire state: the outbox and
/// delivery queues, the decode verdict for any in-flight packet, and the
/// MAC-failure counter. Exported with [`Endpoint::export_wire`] and applied
/// with [`Endpoint::restore_wire`] so a rebuilt endpoint resumes exactly
/// where the killed one stopped. The queues are plain vectors a caller can
/// build from [`Endpoint::push`]'s returns and compare; the live endpoint
/// shares blocks with its handlers, so export and restore copy at this
/// edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecWireState {
    /// Wire messages produced by the encode chain, not yet taken.
    pub outbox: Vec<Vec<u8>>,
    /// Plaintexts recovered by the decode chain, not yet taken.
    pub delivered: Vec<Vec<u8>>,
    /// Integrity verdict for the packet currently in the decode chain.
    pub decode_ok: bool,
    /// Packets dropped because KeyedMD5 verification failed.
    pub mac_failures: u64,
}

pdo_snap::codec_struct!(SecWireState {
    outbox,
    delivered,
    decode_ok,
    mac_failures,
});

impl Default for SecWireState {
    fn default() -> Self {
        SecWireState {
            outbox: Vec::new(),
            delivered: Vec::new(),
            decode_ok: true,
            mac_failures: 0,
        }
    }
}

/// Shared state of one endpoint's natives. The queues hold the blocks the
/// chains produced — references to the handlers' values, not copies.
#[derive(Debug)]
struct Wire {
    outbox: VecDeque<Arc<[u8]>>,
    delivered: VecDeque<Arc<[u8]>>,
    /// Integrity verdict for the packet currently in the decode chain;
    /// reset to `true` at the top of each `pop`.
    decode_ok: bool,
    /// Packets dropped because KeyedMD5 verification failed.
    mac_failures: u64,
    /// Wire frames the outbound chain handed to `net_send`. Telemetry
    /// only — deliberately *not* part of [`SecWireState`], whose byte
    /// format is pinned by the golden snapshot fixture.
    frames_sent: u64,
}

impl Default for Wire {
    fn default() -> Self {
        Wire {
            outbox: VecDeque::new(),
            delivered: VecDeque::new(),
            decode_ok: true,
            mac_failures: 0,
            frames_sent: 0,
        }
    }
}

/// A runnable SecComm endpoint.
///
/// `push` runs the outbound chain on a plaintext and returns the wire
/// message; `pop` runs the inbound chain on a wire message and returns the
/// recovered plaintext.
pub struct Endpoint {
    rt: Runtime,
    wire: Rc<RefCell<Wire>>,
    msg_from_user: EventId,
    msg_from_net: EventId,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("rt", &self.rt).finish()
    }
}

impl Endpoint {
    /// Builds an endpoint for `program` (the plain program or the
    /// optimizer's extended module via [`EventProgram::with_module`]) using
    /// `keys` for the crypto natives.
    ///
    /// # Errors
    ///
    /// Fails if the program lacks SecComm's events or natives, or if
    /// binding fails.
    pub fn new(program: &EventProgram, keys: &Keys) -> Result<Endpoint, SecCommError> {
        let mut rt = program.runtime()?;
        let wire = Rc::new(RefCell::new(Wire::default()));
        Self::install_natives(&mut rt, keys, &wire)?;
        let find = |name: &str| {
            program
                .module
                .event_by_name(name)
                .ok_or_else(|| SecCommError::MissingSymbol(name.to_string()))
        };
        Ok(Endpoint {
            msg_from_user: find("msgFromUser")?,
            msg_from_net: find("msgFromNet")?,
            rt,
            wire,
        })
    }

    /// Binds the crypto and I/O natives into `rt`.
    fn install_natives(
        rt: &mut Runtime,
        keys: &Keys,
        wire: &Rc<RefCell<Wire>>,
    ) -> Result<(), SecCommError> {
        fn block_arg(args: &[Value]) -> Result<&Arc<[u8]>, String> {
            match args.first() {
                Some(Value::Bytes(block)) => Ok(block),
                _ => Err("expected a bytes argument".to_string()),
            }
        }
        fn bytes_arg(args: &[Value]) -> Result<&[u8], String> {
            block_arg(args).map(|block| &block[..])
        }

        let des = DesKey::new(&keys.des);
        let des2 = des.clone();
        let xor_key = keys.xor.clone();
        let mac_key = keys.mac.clone();
        let mac_key2 = keys.mac.clone();
        let mac_wire = Rc::clone(wire);
        let ok_wire = Rc::clone(wire);
        let out_wire = Rc::clone(wire);
        let del_wire = Rc::clone(wire);

        // Each transform sizes its output first and builds it in the
        // value's own block (`Value::bytes` of a finished `Vec` would
        // allocate and copy a second time).
        rt.bind_native_by_name("des_encrypt", move |args| {
            let data = bytes_arg(args)?;
            Ok(Value::bytes_with(des::encrypted_len(data.len()), |out| {
                des::encrypt_into(&des, data, out);
            }))
        })
        .and_then(|()| {
            rt.bind_native_by_name("des_decrypt", move |args| {
                let data = bytes_arg(args)?;
                let len = des::decrypted_len(&des2, data)?;
                Ok(Value::bytes_with(len, |out| {
                    des::decrypt_into(&des2, data, out);
                }))
            })
        })
        .and_then(|()| {
            rt.bind_native_by_name("xor_apply", move |args| {
                let data = bytes_arg(args)?;
                Ok(Value::bytes_with(data.len(), |out| {
                    xor_into(&xor_key, data, out);
                }))
            })
        })
        .and_then(|()| {
            rt.bind_native_by_name("mac_append", move |args| {
                let data = bytes_arg(args)?;
                Ok(Value::bytes_with(data.len() + 16, |out| {
                    let (body, mac) = out.split_at_mut(data.len());
                    body.copy_from_slice(data);
                    mac.copy_from_slice(&keyed_md5(&mac_key, data));
                }))
            })
        })
        .and_then(|()| {
            // Verification failure is not a fault: the packet is dropped and
            // counted, and the `decode_ok` flag tells the rest of the decode
            // chain to skip it.
            rt.bind_native_by_name("mac_verify_strip", move |args| {
                let data = bytes_arg(args)?;
                match data.split_last_chunk::<16>() {
                    Some((body, mac)) if keyed_md5(&mac_key2, body) == *mac => {
                        Ok(Value::bytes(body))
                    }
                    _ => {
                        let mut w = mac_wire.borrow_mut();
                        w.decode_ok = false;
                        w.mac_failures += 1;
                        // The dropped packet goes back as it came: a
                        // reference, not a copy.
                        Ok(args[0].clone())
                    }
                }
            })
        })
        .and_then(|()| {
            rt.bind_native_by_name("decode_ok", move |_args| {
                Ok(Value::Bool(ok_wire.borrow().decode_ok))
            })
        })
        .and_then(|()| {
            rt.bind_native_by_name("net_send", move |args| {
                let data = Arc::clone(block_arg(args)?);
                let mut w = out_wire.borrow_mut();
                w.outbox.push_back(data);
                w.frames_sent += 1;
                Ok(Value::Unit)
            })
        })
        .and_then(|()| {
            rt.bind_native_by_name("deliver", move |args| {
                let data = Arc::clone(block_arg(args)?);
                del_wire.borrow_mut().delivered.push_back(data);
                Ok(Value::Unit)
            })
        })
        .map_err(SecCommError::from)
    }

    /// Pushes a plaintext through the outbound chain; returns the wire
    /// message.
    ///
    /// # Errors
    ///
    /// Propagates handler faults; [`SecCommError::NoOutput`] if the chain
    /// never reached `net_send` (misconfiguration).
    pub fn push(&mut self, payload: &[u8]) -> Result<Vec<u8>, SecCommError> {
        self.rt.raise(
            self.msg_from_user,
            RaiseMode::Sync,
            &[Value::bytes(payload)],
        )?;
        // The one copy out: the caller gets bytes it owns.
        let sent = self.wire.borrow_mut().outbox.pop_front();
        sent.map(|block| block.to_vec())
            .ok_or(SecCommError::NoOutput)
    }

    /// Pops a wire message through the inbound chain; returns the
    /// recovered plaintext.
    ///
    /// # Errors
    ///
    /// Propagates handler faults; [`SecCommError::IntegrityFailure`] if the
    /// packet failed KeyedMD5 verification (dropped and counted, never
    /// delivered); [`SecCommError::NoOutput`] if nothing was delivered.
    pub fn pop(&mut self, wire_msg: &[u8]) -> Result<Vec<u8>, SecCommError> {
        self.wire.borrow_mut().decode_ok = true;
        self.rt.raise(
            self.msg_from_net,
            RaiseMode::Sync,
            &[Value::bytes(wire_msg)],
        )?;
        let mut w = self.wire.borrow_mut();
        if !w.decode_ok {
            return Err(SecCommError::IntegrityFailure);
        }
        let plain = w.delivered.pop_front();
        plain
            .map(|block| block.to_vec())
            .ok_or(SecCommError::NoOutput)
    }

    /// Advances the endpoint's virtual clock by `delta_ns`. SecComm itself
    /// is purely synchronous, so this exists for hosts that attach
    /// time-based daemons (e.g. adaptation epoch hooks) to the session:
    /// ticking between push/pop bursts lets those fire.
    pub fn tick(&mut self, delta_ns: u64) {
        self.rt.advance_clock(delta_ns);
    }

    /// Inbound packets dropped because KeyedMD5 verification failed.
    pub fn mac_failures(&self) -> u64 {
        self.wire.borrow().mac_failures
    }

    /// Wire frames the outbound chain has handed to `net_send` over the
    /// endpoint's lifetime. Not persisted across snapshots (telemetry
    /// only): a restored endpoint restarts at zero.
    pub fn frames_sent(&self) -> u64 {
        self.wire.borrow().frames_sent
    }

    /// Exports the native-side wire state (queues, decode verdict,
    /// MAC-failure counter) for a snapshot.
    pub fn export_wire(&self) -> SecWireState {
        let w = self.wire.borrow();
        SecWireState {
            outbox: w.outbox.iter().map(|block| block.to_vec()).collect(),
            delivered: w.delivered.iter().map(|block| block.to_vec()).collect(),
            decode_ok: w.decode_ok,
            mac_failures: w.mac_failures,
        }
    }

    /// Restores wire state exported by [`Endpoint::export_wire`] into this
    /// (freshly built) endpoint.
    pub fn restore_wire(&mut self, state: SecWireState) {
        let mut w = self.wire.borrow_mut();
        w.outbox = state.outbox.into_iter().map(Arc::from).collect();
        w.delivered = state.delivered.into_iter().map(Arc::from).collect();
        w.decode_ok = state.decode_ok;
        w.mac_failures = state.mac_failures;
    }

    /// The underlying runtime (tracing, cost counters, chain installation).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Read-only runtime access.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

/// A sender and receiver [`Endpoint`] joined by a seeded faulty wire.
///
/// The channel models a datagram link: wire messages produced by the
/// sender's encode chain cross a [`FaultyWire`] that can drop, duplicate,
/// reorder, and corrupt them before the receiver's decode chain runs.
/// SecComm carries no sequence numbers, so duplicates decode (and deliver)
/// twice and reordered packets deliver out of order — what matters for the
/// conformance oracle is that an optimized endpoint pair sees byte-for-byte
/// the same arrivals as the plain pair under the same seed.
///
/// Corruption flips one wire bit; under [`CONFIG_FULL`] that lands as a
/// KeyedMD5 verification failure and the packet is dropped and counted, not
/// a handler fault.
pub struct LossyChannel {
    tx: Endpoint,
    rx: Endpoint,
    wire: FaultyWire<Vec<u8>>,
    sent: u64,
    delivered: Vec<Vec<u8>>,
    mac_dropped: u64,
}

impl fmt::Debug for LossyChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LossyChannel")
            .field("sent", &self.sent)
            .field("delivered", &self.delivered.len())
            .field("mac_dropped", &self.mac_dropped)
            .field("wire", &self.wire.stats())
            .finish()
    }
}

impl LossyChannel {
    /// Joins `tx` and `rx` over a wire with `faults`.
    pub fn new(tx: Endpoint, rx: Endpoint, faults: WireFaults) -> LossyChannel {
        LossyChannel {
            tx,
            rx,
            wire: FaultyWire::new(faults),
            sent: 0,
            delivered: Vec::new(),
            mac_dropped: 0,
        }
    }

    /// Pushes `payload` through the sender's encode chain and carries the
    /// wire message across the faulty link; every copy that arrives runs
    /// the receiver's decode chain.
    ///
    /// # Errors
    ///
    /// Propagates encode/decode chain faults. MAC verification failures on
    /// corrupted arrivals are *not* errors: the packet is dropped and
    /// counted in [`LossyChannel::mac_dropped`].
    pub fn send(&mut self, payload: &[u8]) -> Result<(), SecCommError> {
        let msg = self.tx.push(payload)?;
        self.sent += 1;
        let t = self.wire.transmit(msg, |m| match m.first_mut() {
            Some(b) => *b ^= 0x80,
            None => m.push(0x80),
        });
        for arrival in t.arrivals.into_iter().flatten() {
            self.receive(arrival)?;
        }
        Ok(())
    }

    /// Delivers a frame the wire is still holding for reordering, if any.
    ///
    /// # Errors
    ///
    /// Propagates decode chain faults, as in [`LossyChannel::send`].
    pub fn settle(&mut self) -> Result<(), SecCommError> {
        for arrival in self.wire.flush().into_iter().flatten() {
            self.receive(arrival)?;
        }
        Ok(())
    }

    fn receive(&mut self, arrival: Arrival<Vec<u8>>) -> Result<(), SecCommError> {
        match self.rx.pop(&arrival.item) {
            Ok(plain) => {
                self.delivered.push(plain);
                Ok(())
            }
            Err(SecCommError::IntegrityFailure) => {
                self.mac_dropped += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Advances both endpoints' virtual clocks (fires any attached epoch
    /// hooks, e.g. an adaptation engine's).
    pub fn tick(&mut self, delta_ns: u64) {
        self.tx.tick(delta_ns);
        self.rx.tick(delta_ns);
    }

    /// Plaintexts recovered by the receiver, in arrival order.
    pub fn delivered(&self) -> &[Vec<u8>] {
        &self.delivered
    }

    /// Messages pushed into the channel.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Arrivals dropped by KeyedMD5 verification.
    pub fn mac_dropped(&self) -> u64 {
        self.mac_dropped
    }

    /// Fault counters of the underlying wire.
    pub fn wire_stats(&self) -> WireStats {
        self.wire.stats()
    }

    /// The sending endpoint (chain installation, adaptation hooks).
    pub fn tx_mut(&mut self) -> &mut Endpoint {
        &mut self.tx
    }

    /// The receiving endpoint (chain installation, adaptation hooks).
    pub fn rx_mut(&mut self) -> &mut Endpoint {
        &mut self.rx
    }

    /// Read-only access to the sending endpoint.
    pub fn tx(&self) -> &Endpoint {
        &self.tx
    }

    /// Read-only access to the receiving endpoint.
    pub fn rx(&self) -> &Endpoint {
        &self.rx
    }

    /// Replaces both endpoints, returning the old pair. The channel itself
    /// (the faulty wire, its fault schedule, and the delivery log) persists:
    /// it is the network, which survives an endpoint crash. Used by
    /// crash-restart tests that kill an endpoint pair and swap in rebuilt
    /// ones restored from a snapshot.
    pub fn swap_endpoints(&mut self, tx: Endpoint, rx: Endpoint) -> (Endpoint, Endpoint) {
        (
            std::mem::replace(&mut self.tx, tx),
            std::mem::replace(&mut self.rx, rx),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::xor_cipher;
    use pdo_events::TraceConfig;

    fn endpoints(config: &[&str]) -> (Endpoint, Endpoint) {
        let proto = seccomm_protocol();
        let program = proto.instantiate(config).unwrap();
        let keys = Keys::default();
        (
            Endpoint::new(&program, &keys).unwrap(),
            Endpoint::new(&program, &keys).unwrap(),
        )
    }

    #[test]
    fn paper_config_roundtrip() {
        let (mut tx, mut rx) = endpoints(CONFIG_PAPER);
        for len in [0usize, 1, 64, 128, 1024] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let wire = tx.push(&msg).unwrap();
            assert_ne!(wire, msg, "wire must be encrypted (len {len})");
            assert_eq!(rx.pop(&wire).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn full_config_roundtrip_and_tamper_detection() {
        let (mut tx, mut rx) = endpoints(CONFIG_FULL);
        let wire = tx.push(b"payload").unwrap();
        assert_eq!(rx.pop(&wire).unwrap(), b"payload");

        let mut tampered = tx.push(b"payload").unwrap();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xFF;
        assert!(rx.pop(&tampered).is_err(), "tampering must be detected");
    }

    #[test]
    fn tampered_packets_are_dropped_and_counted() {
        let (mut tx, mut rx) = endpoints(CONFIG_FULL);
        let good = tx.push(b"survivor").unwrap();

        // Flipped first byte: the ciphers would see garbage, but the guard
        // skips them, so no handler faults — the packet is just dropped.
        let mut flipped = tx.push(b"flip me").unwrap();
        flipped[0] ^= 0x80;
        assert!(matches!(
            rx.pop(&flipped),
            Err(SecCommError::IntegrityFailure)
        ));
        assert_eq!(rx.mac_failures(), 1);

        // Shorter than a MAC: same drop-and-count path, no fault.
        let mut runt = tx.push(b"too short").unwrap();
        runt.truncate(4);
        assert!(matches!(rx.pop(&runt), Err(SecCommError::IntegrityFailure)));
        assert_eq!(rx.mac_failures(), 2);

        // The endpoint keeps working: the untouched packet still decodes.
        assert_eq!(rx.pop(&good).unwrap(), b"survivor");
        assert_eq!(rx.mac_failures(), 2);
    }

    #[test]
    fn des_only_config() {
        let (mut tx, mut rx) = endpoints(&["Coordinator", "DESPrivacy"]);
        let wire = tx.push(b"just des").unwrap();
        assert_eq!(rx.pop(&wire).unwrap(), b"just des");
    }

    #[test]
    fn xor_only_config() {
        let (mut tx, mut rx) = endpoints(&["Coordinator", "XorPrivacy"]);
        let wire = tx.push(b"just xor").unwrap();
        assert_eq!(wire, xor_cipher(&Keys::default().xor, b"just xor"));
        assert_eq!(rx.pop(&wire).unwrap(), b"just xor");
    }

    #[test]
    fn coordinator_only_is_plaintext_passthrough() {
        let (mut tx, mut rx) = endpoints(&["Coordinator"]);
        let wire = tx.push(b"clear").unwrap();
        assert_eq!(wire, b"clear");
        assert_eq!(rx.pop(&wire).unwrap(), b"clear");
    }

    #[test]
    fn wrong_keys_fail_roundtrip() {
        let proto = seccomm_protocol();
        let program = proto.instantiate(CONFIG_PAPER).unwrap();
        let mut tx = Endpoint::new(&program, &Keys::default()).unwrap();
        let other = Keys {
            des: *b"otherkey",
            ..Keys::default()
        };
        let mut rx = Endpoint::new(&program, &other).unwrap();
        let wire = tx.push(b"secret").unwrap();
        if let Ok(plain) = rx.pop(&wire) {
            assert_ne!(plain, b"secret".to_vec())
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let keys = Keys::default();
        let shown = format!("{keys:?} {keys:#?}");
        assert!(
            shown.contains("xor: 9") && shown.contains("mac: 13"),
            "{shown}"
        );
        for secret in [&keys.des[..], &keys.xor, &keys.mac] {
            // Neither as text nor as the derived `[b0, b1, ..]` byte list.
            assert!(
                !shown.contains(&*String::from_utf8_lossy(secret)),
                "{shown}"
            );
            for pair in secret.windows(2) {
                let run = format!("{}, {}", pair[0], pair[1]);
                assert!(!shown.contains(&run), "{shown} shows `{run}`");
            }
        }
    }

    #[test]
    fn push_pop_chains_visible_in_trace() {
        let (mut tx, _) = endpoints(CONFIG_PAPER);
        tx.runtime_mut().set_trace_config(TraceConfig::full());
        let _ = tx.push(b"msg").unwrap();
        let trace = tx.runtime_mut().take_trace();
        let seq: Vec<EventId> = trace.event_sequence().iter().map(|&(e, _)| e).collect();
        // msgFromUser, EncodeMsg, msgToNet.
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn many_messages_fifo() {
        let (mut tx, mut rx) = endpoints(CONFIG_PAPER);
        for i in 0..20 {
            let msg = vec![i as u8; 32];
            let wire = tx.push(&msg).unwrap();
            assert_eq!(rx.pop(&wire).unwrap(), msg);
        }
    }

    fn channel(faults: WireFaults) -> LossyChannel {
        let (tx, rx) = endpoints(CONFIG_FULL);
        LossyChannel::new(tx, rx, faults)
    }

    #[test]
    fn lossy_channel_perfect_wire_is_lossless_and_ordered() {
        let mut ch = channel(WireFaults::default());
        let msgs: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 24]).collect();
        for m in &msgs {
            ch.send(m).unwrap();
        }
        ch.settle().unwrap();
        assert_eq!(ch.delivered(), &msgs[..]);
        assert_eq!(ch.mac_dropped(), 0);
        assert_eq!(ch.wire_stats(), WireStats::default());
    }

    #[test]
    fn lossy_channel_corruption_lands_as_mac_drops() {
        let mut ch = channel(WireFaults {
            corrupt_per_mille: 1000,
            seed: 9,
            ..WireFaults::default()
        });
        for i in 0..10u8 {
            ch.send(&[i; 16]).unwrap();
        }
        ch.settle().unwrap();
        // Every arrival was corrupted: no deliveries, no handler faults,
        // every drop visible both at the channel and in the receiver's
        // own MAC-failure counter.
        assert!(ch.delivered().is_empty());
        assert_eq!(ch.mac_dropped(), 10);
        assert_eq!(ch.wire_stats().corrupted, 10);
        assert_eq!(ch.rx_mut().mac_failures(), 10);
    }

    #[test]
    fn lossy_channel_drops_and_duplicates_have_udp_semantics() {
        let mut ch = channel(WireFaults {
            drop_per_mille: 1000,
            seed: 3,
            ..WireFaults::default()
        });
        for i in 0..5u8 {
            ch.send(&[i; 8]).unwrap();
        }
        assert!(ch.delivered().is_empty());
        assert_eq!(ch.wire_stats().dropped, 5);

        // SecComm carries no sequence numbers: a duplicated wire message
        // decodes and delivers twice.
        let mut ch = channel(WireFaults {
            dup_per_mille: 1000,
            seed: 3,
            ..WireFaults::default()
        });
        ch.send(b"twice").unwrap();
        ch.settle().unwrap();
        assert_eq!(ch.delivered(), &[b"twice".to_vec(), b"twice".to_vec()]);
    }

    #[test]
    fn kill_restore_mid_session_continues_identically() {
        use pdo_ir::GlobalId;

        let proto = seccomm_protocol();
        let program = proto.instantiate(CONFIG_FULL).unwrap();
        let keys = Keys::default();
        let faults = WireFaults {
            drop_per_mille: 150,
            dup_per_mille: 150,
            reorder_per_mille: 250,
            corrupt_per_mille: 200,
            seed: 77,
        };
        let msgs: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i ^ 0x5A; 20]).collect();

        // Reference: an uninterrupted run.
        let reference = {
            let mut ch = LossyChannel::new(
                Endpoint::new(&program, &keys).unwrap(),
                Endpoint::new(&program, &keys).unwrap(),
                faults,
            );
            for m in &msgs {
                ch.send(m).unwrap();
            }
            ch.settle().unwrap();
            (
                ch.delivered().to_vec(),
                ch.mac_dropped(),
                ch.wire_stats(),
                ch.tx().export_wire(),
                ch.rx().export_wire(),
            )
        };

        // Victim: both endpoints are killed and rebuilt from exported state
        // after every message. The channel (the network) persists.
        let mut ch = LossyChannel::new(
            Endpoint::new(&program, &keys).unwrap(),
            Endpoint::new(&program, &keys).unwrap(),
            faults,
        );
        for m in &msgs {
            ch.send(m).unwrap();

            let rebuild = |ep: &Endpoint| {
                let globals: Vec<Value> = (0..program.module.globals.len())
                    .map(|g| ep.runtime().global(GlobalId::from_index(g)).clone())
                    .collect();
                let sched = ep.runtime().export_sched();
                let clock = ep.runtime().clock_ns();
                let wire = ep.export_wire();
                let mut fresh = Endpoint::new(&program, &keys).unwrap();
                for (g, v) in globals.into_iter().enumerate() {
                    fresh.runtime_mut().set_global(GlobalId::from_index(g), v);
                }
                fresh.runtime_mut().restore_sched(sched);
                fresh.runtime_mut().advance_clock(clock);
                fresh.restore_wire(wire);
                fresh
            };
            let (tx, rx) = (rebuild(ch.tx()), rebuild(ch.rx()));
            drop(ch.swap_endpoints(tx, rx));
        }
        ch.settle().unwrap();

        assert_eq!(ch.delivered(), &reference.0[..]);
        assert_eq!(ch.mac_dropped(), reference.1);
        assert_eq!(ch.wire_stats(), reference.2);
        assert_eq!(ch.tx().export_wire(), reference.3);
        assert_eq!(ch.rx().export_wire(), reference.4);
    }

    #[test]
    fn export_restore_wire_round_trips() {
        let (mut tx, mut rx) = endpoints(CONFIG_FULL);
        let wire = tx.push(b"first").unwrap();
        rx.pop(&wire).unwrap();
        let mut bad = tx.push(b"second").unwrap();
        bad[0] ^= 0x80;
        assert!(rx.pop(&bad).is_err());

        let state = rx.export_wire();
        assert_eq!(state.mac_failures, 1);
        assert!(!state.decode_ok);

        let proto = seccomm_protocol();
        let program = proto.instantiate(CONFIG_FULL).unwrap();
        let mut fresh = Endpoint::new(&program, &Keys::default()).unwrap();
        fresh.restore_wire(state.clone());
        assert_eq!(fresh.export_wire(), state);

        // The durable forms round-trip and reject every corruption; a DES
        // key of the wrong length is a typed error, not a panic.
        pdo_snap::hostile::check(&tx.export_wire());
        pdo_snap::hostile::check(&state);
        pdo_snap::hostile::check(&Keys::default());
        let mut short = pdo_snap::SnapWriter::new();
        short.bytes(b"7 bytes");
        short.bytes(b"xor");
        short.bytes(b"mac");
        assert!(matches!(
            pdo_snap::decode::<Keys>(&short.finish()),
            Err(pdo_snap::SnapshotError::Malformed(_))
        ));

        // The restored endpoint keeps working and keeps counting from the
        // carried totals.
        let ok = tx.push(b"third").unwrap();
        assert_eq!(fresh.pop(&ok).unwrap(), b"third");
        let mut bad2 = tx.push(b"fourth").unwrap();
        bad2[0] ^= 0x80;
        assert!(fresh.pop(&bad2).is_err());
        assert_eq!(fresh.mac_failures(), 2);
    }

    #[test]
    fn lossy_channel_is_deterministic_per_seed() {
        let faults = WireFaults {
            drop_per_mille: 200,
            dup_per_mille: 200,
            reorder_per_mille: 300,
            corrupt_per_mille: 200,
            seed: 42,
        };
        let run = |faults: WireFaults| {
            let mut ch = channel(faults);
            for i in 0..40u8 {
                ch.send(&[i; 12]).unwrap();
            }
            ch.settle().unwrap();
            (ch.delivered().to_vec(), ch.mac_dropped(), ch.wire_stats())
        };
        assert_eq!(run(faults), run(faults));
    }
}
