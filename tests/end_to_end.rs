//! Cross-crate end-to-end tests: every substrate profiled, optimized, and
//! verified byte-compatible against its unoptimized twin.

use pdo::{optimize, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, VideoPlayer};
use pdo_events::TraceConfig;
use pdo_ir::display::print_module;
use pdo_profile::Profile;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_FULL, CONFIG_PAPER};
use pdo_xwin::{x_client_program, XClient};

/// `optimize` left every super-handler at a fixed point of the pipeline it
/// ran on it (each ran until nothing changed, none to the iteration cap):
/// the same pipeline over its output finds nothing to do. And its output
/// is what it was when `tests/fixtures/<fixture>` was printed from it: a
/// pass change that alters any optimized program replaces the fixture.
fn assert_super_handlers_are_fixed_points(opt: &pdo::Optimization, fixture: &str) {
    let mut again = opt.module.clone();
    for built in &opt.report.events {
        // 4096 is `optimize`'s own inline ceiling.
        let report = pdo_passes::optimize_single_function(&mut again, built.func, Some(4096));
        assert!(
            report.converged && report.iterations == 1,
            "{}: {report:?}",
            opt.module.function(built.func).name
        );
    }
    assert_eq!(again, opt.module);

    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let printed = print_module(&opt.module);
    let (mut want, mut got) = (expected.lines(), printed.lines());
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        assert_eq!(g, w, "{fixture}, line {line}: the optimized module differs");
        if w.is_none() {
            break;
        }
    }
}

#[test]
fn seccomm_full_config_roundtrips_after_optimization() {
    let proto = seccomm_protocol();
    let program = proto.instantiate(CONFIG_FULL).expect("full config");
    let keys = Keys::default();

    // Profile using a real endpoint (endpoints own the natives).
    let mut prof_ep = Endpoint::new(&program, &keys).expect("endpoint");
    prof_ep.runtime_mut().set_trace_config(TraceConfig::full());
    let mut wires = Vec::new();
    for i in 0..60u32 {
        wires.push(prof_ep.push(&[i as u8; 200]).expect("push"));
    }
    for w in &wires {
        let _ = prof_ep.pop(w).expect("pop");
    }
    let profile = Profile::from_trace(&prof_ep.runtime_mut().take_trace(), 30);
    let opt = optimize(
        &program.module,
        prof_ep.runtime().registry(),
        &profile,
        &OptimizeOptions::new(30),
    );
    assert_super_handlers_are_fixed_points(&opt, "optimized_seccomm.pdo");
    let opt_program = program.with_module(opt.module.clone());

    let mut orig = Endpoint::new(&program, &keys).expect("orig");
    let mut fast = Endpoint::new(&opt_program, &keys).expect("fast");
    opt.install_chains(fast.runtime_mut());
    for len in [0usize, 1, 8, 100, 2000] {
        let msg: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
        let w1 = orig.push(&msg).expect("orig push");
        let w2 = fast.push(&msg).expect("fast push");
        assert_eq!(w1, w2, "wire bytes, len {len}");
        assert_eq!(fast.pop(&w2).expect("fast pop"), msg);
    }
    assert!(fast.runtime().cost.fastpath_hits > 0);

    // Integrity still enforced through the optimized path.
    let mut wire = fast.push(b"x").expect("push");
    let n = wire.len();
    wire[n - 1] ^= 1;
    assert!(fast.pop(&wire).is_err(), "tampering must still be detected");
}

#[test]
fn seccomm_different_configurations_produce_different_wires() {
    let proto = seccomm_protocol();
    let keys = Keys::default();
    let paper = proto.instantiate(CONFIG_PAPER).expect("paper");
    let des_only = proto
        .instantiate(&["Coordinator", "DESPrivacy"])
        .expect("des");
    let mut a = Endpoint::new(&paper, &keys).expect("a");
    let mut b = Endpoint::new(&des_only, &keys).expect("b");
    let wa = a.push(b"same message").expect("push a");
    let wb = b.push(b"same message").expect("push b");
    assert_ne!(wa, wb, "XOR layer must change the wire");
}

#[test]
fn video_player_wire_identical_and_faster_in_abstract_cost() {
    let program = ctp_program();
    let params = CtpParams {
        ack_drop_every: 50,
        clk_period_ns: 40_000_000,
        ..Default::default()
    };

    // Profile.
    let mut e = CtpEndpoint::new(&program, params).expect("endpoint");
    e.open().expect("open");
    e.runtime_mut().set_trace_config(TraceConfig::full());
    let mut player = VideoPlayer::new(e, 25);
    player.play(120).expect("profile session");
    let mut e = player.into_endpoint();
    let profile = Profile::from_trace(&e.runtime_mut().take_trace(), 90);
    let opt = optimize(
        &program.module,
        e.runtime().registry(),
        &profile,
        &OptimizeOptions::new(90),
    );
    assert!(opt.report.events.len() >= 4, "{}", opt.report);
    assert_super_handlers_are_fixed_points(&opt, "optimized_ctp_video.pdo");
    let opt_program = program.with_module(opt.module.clone());

    let run = |prog: &EventProgram, install: bool| {
        let mut e = CtpEndpoint::new(prog, params).expect("endpoint");
        if install {
            opt.install_chains(e.runtime_mut());
        }
        e.open().expect("open");
        let mut p = VideoPlayer::new(e, 25);
        p.play(120).expect("session");
        let e = p.into_endpoint();
        let wire = e.wire_payload();
        let cost = e.runtime().cost;
        let stats = e.stats();
        (wire, cost, stats)
    };
    let (wire_orig, cost_orig, stats_orig) = run(&program, false);
    let (wire_opt, cost_opt, stats_opt) = run(&opt_program, true);

    assert_eq!(wire_orig, wire_opt, "wire must be byte-identical");
    assert_eq!(stats_orig.segments_sent, stats_opt.segments_sent);
    assert_eq!(stats_orig.retransmissions, stats_opt.retransmissions);
    assert!(cost_opt.weighted_total() < cost_orig.weighted_total());
    assert!(cost_opt.fastpath_hits > 0);
}

#[test]
fn xclient_per_event_guards_keep_other_segments_fast() {
    let program = x_client_program();
    let mut opts = OptimizeOptions::new(100);
    opts.subsume = false;

    let mut client = XClient::new(&program).expect("client");
    client.runtime_mut().set_trace_config(TraceConfig::full());
    for i in 0..250 {
        client.popup(i, i).expect("popup");
        client.scroll(i).expect("scroll");
    }
    let profile = Profile::from_trace(&client.runtime_mut().take_trace(), 100);
    let opt = optimize(
        &program.module,
        client.runtime().registry(),
        &profile,
        &opts,
    );
    assert_super_handlers_are_fixed_points(&opt, "optimized_xclient.pdo");
    let opt_program = program.with_module(opt.module.clone());

    let mut fast = XClient::new(&opt_program).expect("fast client");
    opt.install_chains(fast.runtime_mut());

    // Unbind one popup motion callback: with per-event chains only that
    // event degrades; head chains still hit the fast path.
    let cb_event = opt_program
        .module
        .event_by_name("PopupMotionCallback")
        .expect("event");
    let cb2 = opt_program
        .module
        .function_by_name("popup_track_cb2")
        .expect("handler");
    fast.runtime_mut().unbind(cb_event, cb2);

    fast.popup(9, 9).expect("popup");
    assert_eq!(fast.state().menus_placed, 1);
    assert_eq!(fast.state().motion_tracks, 1, "one callback remains");
    assert!(
        fast.runtime().cost.fastpath_hits >= 1,
        "head chain still specialized: {:?}",
        fast.runtime().cost
    );
}

#[test]
fn profiles_survive_a_save_and_load_and_still_optimize() {
    let program = x_client_program();
    let mut client = XClient::new(&program).expect("client");
    client.runtime_mut().set_trace_config(TraceConfig::full());
    for i in 0..150 {
        client.scroll(i).expect("scroll");
    }
    let profile = Profile::from_trace(&client.runtime_mut().take_trace(), 100);

    let path = std::env::temp_dir().join(format!("pdo-e2e-{}.pdosnap", std::process::id()));
    pdo_profile::save_profile(&profile, &path).expect("save");
    let reloaded = pdo_profile::load_profile(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(profile, reloaded);

    let opt = optimize(
        &program.module,
        client.runtime().registry(),
        &reloaded,
        &OptimizeOptions::new(100),
    );
    assert!(!opt.report.events.is_empty());
}
