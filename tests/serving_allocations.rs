//! The allocation budget of a served request: what the thread that calls
//! `Ingress::drive` allocates to read, run and answer one command that
//! arrived over loopback TCP, counted by the shared counting allocator
//! (`common/counting.rs`) around the sweeps that serve it.
//!
//! Every request is encoded before its window opens, and every reply is
//! read after it closes, so a count holds the ingress, the server and the
//! session's runtime only. Each class first runs long enough for the
//! session's adaptation engine to install its chains, then counts each of
//! its requests apart. The count depends only on the code, so each budget
//! is exact: every request of a class must cost exactly its budget, and a
//! change that adds or removes a block on the serving path moves it.

#[path = "common/counting.rs"]
mod counting;

use pdo_ctp::ctp_program;
use pdo_ingress::proto::{decode_reply, encode_request};
use pdo_ingress::{
    FrameBuffer, Ingress, IngressConfig, OpenKind, Reply, Request, WireMode, MAX_FRAME_LEN,
};
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, Value};
use pdo_seccomm::{seccomm_protocol, CONFIG_FULL};
use pdo_server::{Server, ServerConfig, SessionId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Requests each class counts one by one.
const COUNTED: usize = 64;

/// Requests each class serves before it counts: past the 2 048 spans
/// after which neither trace store's ring grows again, and over enough
/// epochs that the session's engine has installed its chains.
const WARM_UP: usize = 2_304;

/// The adaptation engine's epoch (`AdaptConfig::default().epoch_ns`).
const EPOCH_NS: u64 = 1_000_000;

/// Allocations one request of a class makes, by build profile.
struct Budget {
    release: u64,
    debug: u64,
}

/// A plain synchronous raise on the fast lane: framing, admission, the
/// chain and the reply allocate nothing. Each class cost one block more
/// while each reply was framed in a buffer of its own and then copied
/// into the connection's.
const PLAIN_SYNC: Budget = Budget {
    release: 0,
    debug: 0,
};

/// A 1 KiB SecComm push on the fast lane: the argument list and the
/// payload's one shared block, decoded, and the three crypto natives'
/// outputs. (7 while the decoder also read the argument tags into a
/// vector, and the reply had its own buffer.)
const SECCOMM_PUSH: Budget = Budget {
    release: 5,
    debug: 5,
};

/// A timed raise and its fire: the argument list `Server::submit`
/// prepends the delay to. The fire allocates nothing.
const TIMED_RAISE_AND_FIRE: Budget = Budget {
    release: 1,
    debug: 1,
};

/// A 1 KiB message through a CTP session's sender chain on the fast
/// lane: the argument list and the payload, decoded, twelve blocks the
/// byte natives make for the segments, and the argument lists of the two
/// raises the chain queues.
const CTP_FRAME: Budget = Budget {
    release: 16,
    debug: 16,
};

impl Budget {
    fn get(&self) -> u64 {
        if cfg!(debug_assertions) {
            self.debug
        } else {
            self.release
        }
    }
}

/// One served session behind a real socket: the engine side (server and
/// ingress) and the peer that talks to it.
struct Rig {
    server: Server,
    ingress: Ingress,
    peer: TcpStream,
    replies: FrameBuffer,
    chunk: Vec<u8>,
    /// The virtual time every session was last run to.
    now: u64,
}

impl Rig {
    fn new() -> Rig {
        let server = Server::new(ServerConfig::default());
        let ingress = Ingress::bind(IngressConfig::default(), 1).expect("bind loopback ingress");
        let addr = ingress.tcp_addr().expect("the default config binds TCP");
        let peer = TcpStream::connect(addr).expect("connect");
        peer.set_nodelay(true).expect("nodelay");
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Rig {
            server,
            ingress,
            peer,
            replies: FrameBuffer::new(),
            chunk: vec![0; 64 * 1024],
            now: 0,
        }
    }

    /// Sends one encoded request and drives until the ingress has run it;
    /// returns its reply and the allocations of those sweeps.
    fn serve(&mut self, frame: &[u8]) -> (Reply, u64) {
        self.peer.write_all(frame).expect("send");
        let Rig {
            server, ingress, ..
        } = self;
        let ((), allocs) = counting::count(|| while ingress.drive(server).expect("drive") == 0 {});
        (self.recv(), allocs)
    }

    fn recv(&mut self) -> Reply {
        loop {
            if let Some(frame) = self
                .replies
                .next_frame(MAX_FRAME_LEN)
                .expect("reply stream")
            {
                return decode_reply(frame).expect("reply").1;
            }
            let n = self.peer.read(&mut self.chunk).expect("read reply");
            assert!(n > 0, "the ingress closed the connection");
            self.replies.extend(&self.chunk[..n]);
        }
    }

    fn open(&mut self, kind: OpenKind) -> u64 {
        match self.serve(&encode_request(0, &Request::Open(kind))).0 {
            Reply::Opened { session } => session,
            other => panic!("open refused: {other:?}"),
        }
    }

    /// Runs every session to `ns` past the last deadline; returns the
    /// allocations made.
    fn advance(&mut self, ns: u64) -> u64 {
        self.now += ns;
        let Rig { server, now, .. } = self;
        let (ran, allocs) = counting::count(|| server.run_until(*now));
        ran.expect("run_until");
        allocs
    }

    /// Serves `frame` `n` times and runs every session's clock `gap_ns`
    /// on after each; returns, per request, the allocations of serving it
    /// and those of the clock run after it.
    fn run(&mut self, frame: &[u8], n: usize, gap_ns: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|_| {
                let (reply, served) = self.serve(frame);
                assert_eq!(reply, Reply::Done);
                (served, self.advance(gap_ns))
            })
            .collect()
    }

    fn fastpath_hits(&mut self, session: u64) -> u64 {
        self.server
            .with_runtime(SessionId(session), |rt| rt.cost.fastpath_hits)
            .expect("session is open")
    }
}

fn raise(session: u64, event: EventId, mode: WireMode, args: Vec<Value>) -> Vec<u8> {
    encode_request(
        7,
        &Request::Raise {
            session,
            event: event.0,
            mode,
            args,
        },
    )
}

/// One event whose two handlers add 1 and 2 into a global: a request
/// whose handler work is a few instructions.
fn adder() -> OpenKind {
    let mut module = Module::new();
    let tick = module.add_event("tick");
    let acc = module.add_global("acc", Value::Int(0));
    let mut bindings = Vec::new();
    for k in 0..2 {
        let mut f = FunctionBuilder::new(format!("add{k}"), 0);
        let v = f.load_global(acc);
        let d = f.const_int(k + 1);
        let sum = f.bin(BinOp::Add, v, d);
        f.store_global(acc, sum);
        f.ret(None);
        let func = module.add_function(f.finish());
        bindings.push((tick.0, func.0, k as i32));
    }
    OpenKind::Plain { module, bindings }
}

/// Asserts every count equals the class's budget.
fn assert_budget(class: &str, counts: &[u64], budget: &Budget) {
    let want = budget.get();
    println!("{class}: {counts:?} (budget {want})");
    assert!(
        counts.iter().all(|&n| n == want),
        "{class} allocated {counts:?} per request, its budget is exactly {want}"
    );
}

#[test]
fn a_plain_sync_raise_allocates_nothing() {
    let mut rig = Rig::new();
    let session = rig.open(adder());
    let frame = raise(session, EventId(0), WireMode::Sync, vec![]);
    rig.run(&frame, WARM_UP, 4_000);

    let hits = rig.fastpath_hits(session);
    let counts: Vec<u64> = rig
        .run(&frame, COUNTED, 4_000)
        .iter()
        .map(|c| c.0)
        .collect();
    assert_eq!(rig.fastpath_hits(session) - hits, COUNTED as u64);
    assert_budget("plain sync raise", &counts, &PLAIN_SYNC);
}

#[test]
fn a_seccomm_push_allocates_its_payload_and_crypto_outputs() {
    let program = seccomm_protocol()
        .instantiate(CONFIG_FULL)
        .expect("program");
    let push = program.module.event_by_name("msgFromUser").expect("event");
    let mut rig = Rig::new();
    let session = rig.open(OpenKind::SecComm);
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
    let frame = raise(session, push, WireMode::Sync, vec![Value::bytes(payload)]);
    rig.run(&frame, WARM_UP, 4_000);

    let hits = rig.fastpath_hits(session);
    let counts: Vec<u64> = rig
        .run(&frame, COUNTED, 4_000)
        .iter()
        .map(|c| c.0)
        .collect();
    assert!(
        rig.fastpath_hits(session) - hits >= COUNTED as u64,
        "the pushes ran on the fast lane"
    );
    assert_budget("seccomm push", &counts, &SECCOMM_PUSH);
}

/// The timed raise is served (its timer armed) and then fired by a run
/// of the clock to its deadline; both are counted.
#[test]
fn a_timed_raise_and_its_fire_allocate_the_timer_arguments() {
    const DELAY_NS: u64 = 1_000;
    let mut rig = Rig::new();
    let session = rig.open(adder());
    let mode = WireMode::Timed { delay_ns: DELAY_NS };
    let frame = raise(session, EventId(0), mode, vec![]);
    rig.run(&frame, WARM_UP, 4_000);

    // Start at an epoch boundary, so that every fire falls inside one
    // epoch and no adaptation runs in a counted clock run.
    rig.advance(EPOCH_NS - rig.now % EPOCH_NS);
    assert!(COUNTED as u64 * DELAY_NS < EPOCH_NS);
    let counts: Vec<u64> = rig
        .run(&frame, COUNTED, DELAY_NS)
        .iter()
        .map(|c| c.0 + c.1)
        .collect();
    let pending = rig
        .server
        .with_runtime(SessionId(session), |rt| rt.timer_len())
        .expect("session is open");
    assert_eq!(pending, 0, "every timer fired");
    assert_budget("timed raise and fire", &counts, &TIMED_RAISE_AND_FIRE);
}

/// Messages 100 µs apart: each is acknowledged before the next, and the
/// engine sees enough of them per epoch to install the sender's chains.
#[test]
fn a_ctp_frame_allocates_its_segments() {
    const GAP_NS: u64 = 100_000;
    let send = ctp_program()
        .module
        .event_by_name("SendMsg")
        .expect("event");
    let mut rig = Rig::new();
    let session = rig.open(OpenKind::Ctp);
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 253) as u8).collect();
    let frame = raise(session, send, WireMode::Sync, vec![Value::bytes(payload)]);
    rig.run(&frame, WARM_UP, GAP_NS);

    let hits = rig.fastpath_hits(session);
    let counts: Vec<u64> = rig
        .run(&frame, COUNTED, GAP_NS)
        .iter()
        .map(|c| c.0)
        .collect();
    assert!(
        rig.fastpath_hits(session) - hits >= COUNTED as u64,
        "the messages ran on the fast lane"
    );
    assert_budget("ctp frame", &counts, &CTP_FRAME);
}
