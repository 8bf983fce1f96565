//! Video-player experiments: Figs 5, 6, 10, 11.

use pdo::{optimize, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_ctp::video::NS_PER_UNIT;
use pdo_ctp::{ctp_program, CtpEndpoint, CtpParams, VideoPlayer};
use pdo_events::TraceConfig;
use pdo_ir::{RaiseMode, Value};
use pdo_profile::Profile;

/// Frames per profiled/measured session (the paper's trace counts ~391
/// message sends, Fig 5).
pub const SESSION_FRAMES: u32 = 391;

/// Default reduction threshold (the paper's Fig 6 uses T = 300).
pub const THRESHOLD: u64 = 300;

/// Endpoint parameters for the video workload: the controller clock fires
/// once per frame at 25 fps, as in the paper's trace (Fig 6 shows the
/// controller chain at the same weight as the sender chain).
pub fn video_params() -> CtpParams {
    CtpParams {
        ack_drop_every: 50,
        clk_period_ns: 40_000_000,
        ..Default::default()
    }
}

/// A prepared video experiment: base program, profile, optimization.
pub struct VideoLab {
    /// The unoptimized program.
    pub base: EventProgram,
    /// The optimizer-extended program (same bindings).
    pub opt_program: EventProgram,
    /// The optimization artifacts (chains, report).
    pub optimization: Optimization,
    /// The profile gathered from the instrumented session.
    pub profile: Profile,
}

impl VideoLab {
    /// Profiles a session and optimizes at `threshold`.
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration (programming error).
    pub fn prepare(threshold: u64) -> VideoLab {
        let base = ctp_program();
        let mut endpoint = CtpEndpoint::new(&base, video_params()).expect("base endpoint");
        endpoint.open().expect("open");
        endpoint.runtime_mut().set_trace_config(TraceConfig::full());
        let mut player = VideoPlayer::new(endpoint, 25);
        player.play(SESSION_FRAMES).expect("profiling session");
        let mut endpoint = player.into_endpoint();
        let trace = endpoint.runtime_mut().take_trace();
        let profile = Profile::from_trace(&trace, threshold);
        let optimization = optimize(
            &base.module,
            endpoint.runtime().registry(),
            &profile,
            &OptimizeOptions::new(threshold),
        );
        let opt_program = base.with_module(optimization.module.clone());
        VideoLab {
            base,
            opt_program,
            optimization,
            profile,
        }
    }

    /// A fresh opened endpoint; optimized endpoints get the chains
    /// installed.
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration.
    pub fn endpoint(&self, optimized: bool) -> CtpEndpoint {
        let program = if optimized {
            &self.opt_program
        } else {
            &self.base
        };
        let mut e = CtpEndpoint::new(program, video_params()).expect("endpoint");
        if optimized {
            self.optimization.install_chains(e.runtime_mut());
        }
        e.open().expect("open");
        e
    }

    /// A fresh player at `rate` fps.
    pub fn player(&self, optimized: bool, rate: u32) -> VideoPlayer {
        VideoPlayer::new(self.endpoint(optimized), rate)
    }
}

/// One Fig 10 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Frame rate.
    pub rate: u32,
    /// Modeled total execution time, original (seconds).
    pub orig_total_s: f64,
    /// Modeled total execution time, optimized (seconds).
    pub opt_total_s: f64,
    /// Modeled handler time, original (seconds).
    pub orig_handler_s: f64,
    /// Modeled handler time, optimized (seconds).
    pub opt_handler_s: f64,
}

/// Runs the Fig 10 sweep: [`SESSION_FRAMES`] frames per rate, original and
/// optimized, timed on the modeled processor of
/// [`pdo_ctp::video::NS_PER_UNIT`]. Handler time is the session's cost
/// units at that rate; total time is [`pdo_ctp::PlayStats::modeled_total_ns`].
/// Nothing here reads a clock, so every call returns the same rows.
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn fig10_rows(lab: &VideoLab) -> Vec<Fig10Row> {
    let seconds = |ns: u64| ns as f64 / 1e9;
    [10u32, 15, 20, 25]
        .into_iter()
        .map(|rate| {
            let [orig, opt] = [false, true].map(|optimized| {
                lab.player(optimized, rate)
                    .play(SESSION_FRAMES)
                    .expect("play")
            });
            Fig10Row {
                rate,
                orig_total_s: seconds(orig.modeled_total_ns()),
                opt_total_s: seconds(opt.modeled_total_ns()),
                orig_handler_s: seconds(orig.units() * NS_PER_UNIT),
                opt_handler_s: seconds(opt.units() * NS_PER_UNIT),
            }
        })
        .collect()
}

/// One Fig 11 row: per-event dispatch latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Event name.
    pub event: String,
    /// Original dispatch latency (ns).
    pub orig_ns: f64,
    /// Optimized dispatch latency (ns).
    pub opt_ns: f64,
    /// Cost units of one original raise.
    pub orig_units: u64,
    /// Cost units of one optimized raise.
    pub opt_units: u64,
}

/// Measures the Fig 11 event processing times (Adapt, SegFromUser,
/// Seg2Net): a synchronous raise, original and optimized timed in `rounds`
/// [`crate::interleaved`] rounds, beside the [`crate::warmed_units`] of one.
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn fig11_rows(lab: &VideoLab, rounds: usize) -> Vec<Fig11Row> {
    let seg = Value::bytes(vec![0xA5u8; 512]);
    let cases: [(&str, Vec<Value>); 3] = [
        ("Adapt", vec![]),
        ("SegFromUser", vec![seg.clone()]),
        ("Seg2Net", vec![seg]),
    ];
    let mut rows = Vec::new();
    for (name, args) in cases {
        // Optimization adds functions, never events: one id serves both.
        let event = lab.base.module.event_by_name(name).expect("event exists");
        let raise = |e: &mut CtpEndpoint| {
            e.runtime_mut()
                .raise(event, RaiseMode::Sync, &args)
                .expect("raise")
        };
        let mut eps = [lab.endpoint(false), lab.endpoint(true)];
        let mut count = [0u32; 2];
        let timed = crate::interleaved(2, rounds, crate::SAMPLES, |i| {
            raise(&mut eps[i]);
            count[i] += 1;
            if count[i].is_multiple_of(512) {
                // Let queued acks/timers settle so heaps stay small.
                eps[i].drain(10_000_000_000).expect("drain");
            }
        });
        let units = |optimized| {
            crate::warmed_units(
                &mut lab.endpoint(optimized),
                CtpEndpoint::runtime_mut,
                raise,
            )
        };
        rows.push(Fig11Row {
            event: name.to_string(),
            orig_ns: timed[0].median_min(),
            opt_ns: timed[1].median_min(),
            orig_units: units(false),
            opt_units: units(true),
        });
    }
    rows
}

/// Renders the Fig 5 event graph (full) as an edge listing plus DOT.
pub fn fig5_text(lab: &VideoLab) -> (String, String) {
    let module = &lab.base.module;
    (
        lab.profile.event_graph.edge_listing(module),
        lab.profile.event_graph.to_dot(module),
    )
}

/// Renders the Fig 6 reduced event graph at the lab's threshold.
pub fn fig6_text(lab: &VideoLab) -> (String, String) {
    let module = &lab.base.module;
    let reduced = lab.profile.reduced();
    (reduced.edge_listing(module), reduced.to_dot(module))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_prepares_and_optimizes_hot_chain() {
        let lab = VideoLab::prepare(THRESHOLD);
        assert!(
            lab.optimization.report.events.len() >= 4,
            "report: {}",
            lab.optimization.report.render(&lab.optimization.module)
        );
        assert!(lab.optimization.report.total_subsumed() >= 3);
        // The hot sender chain is in the reduced graph.
        let reduced = lab.profile.reduced();
        let sfu = lab.base.module.event_by_name("SegFromUser").unwrap();
        assert!(reduced.nodes.contains_key(&sfu));
    }

    /// The paper's regime on the modeled processor: idle time absorbs the
    /// saving at 10 and 15 fps, the CPU saturates at 20 and 25 fps, and
    /// handler time falls at every rate. No clock is read, so two sweeps
    /// agree to the bit.
    #[test]
    fn fig10_shape_holds_and_repeats_exactly() {
        let lab = VideoLab::prepare(THRESHOLD);
        let rows = fig10_rows(&lab);
        assert_eq!(rows, fig10_rows(&lab));
        for row in &rows {
            let total = crate::percent(row.opt_total_s, row.orig_total_s);
            let handler = crate::percent(row.opt_handler_s, row.orig_handler_s);
            if row.rate <= 15 {
                assert!(total >= 99.0, "{row:?}");
            } else {
                assert!(total <= 95.0, "{row:?}");
            }
            assert!(handler <= 60.0, "{row:?}");
        }
        assert_eq!(
            rows.iter().map(|r| r.rate).collect::<Vec<_>>(),
            [10, 15, 20, 25]
        );
    }

    /// Fig 6: at T = 300 the reduced graph yields the controller chain, the
    /// sender chain and the adaptation chain, and nothing else.
    #[test]
    fn fig6_reduced_graph_yields_three_chains() {
        let lab = VideoLab::prepare(THRESHOLD);
        let mut chains: Vec<String> = lab
            .profile
            .chains()
            .iter()
            .map(|chain| {
                let names: Vec<&str> = chain
                    .iter()
                    .map(|&e| lab.base.module.event_name(e))
                    .collect();
                names.join(" -> ")
            })
            .collect();
        chains.sort();
        assert_eq!(
            chains,
            [
                "ControllerClkL -> SendMsg -> MsgFrmUserL -> MsgFrmUserH -> SegFromUser -> Seg2Net",
                "Sample -> ControllerFired -> Adapt",
                "SegmentAcked -> ControllerClkH -> ControllerFiring -> Controller",
            ]
        );
    }

    #[test]
    fn optimized_endpoint_behaves_identically() {
        let lab = VideoLab::prepare(THRESHOLD);
        let mut orig = VideoPlayer::new(lab.endpoint(false), 25);
        let mut opt = VideoPlayer::new(lab.endpoint(true), 25);
        let s1 = orig.play(60).unwrap();
        let s2 = opt.play(60).unwrap();
        assert_eq!(s1.segments_sent, s2.segments_sent);
        assert_eq!(s1.retransmissions, s2.retransmissions);
        let w1 = orig.endpoint_mut().wire_payload();
        let w2 = opt.endpoint_mut().wire_payload();
        assert_eq!(w1, w2, "wire must be byte-identical");
        // The optimized run used the fast path.
        assert!(opt.endpoint_mut().runtime().cost.fastpath_hits > 0);
        assert_eq!(orig.endpoint_mut().runtime().cost.fastpath_hits, 0);
    }

    #[test]
    fn optimized_dispatch_does_less_abstract_work() {
        let lab = VideoLab::prepare(THRESHOLD);
        let mut orig = VideoPlayer::new(lab.endpoint(false), 25);
        let mut opt = VideoPlayer::new(lab.endpoint(true), 25);
        orig.play(40).unwrap();
        opt.play(40).unwrap();
        let c_orig = orig.endpoint_mut().runtime().cost;
        let c_opt = opt.endpoint_mut().runtime().cost;
        assert!(c_opt.marshaled_values < c_orig.marshaled_values / 2);
        assert!(c_opt.indirect_calls < c_orig.indirect_calls / 2);
        assert!(c_opt.weighted_total() < c_orig.weighted_total());
    }
}
