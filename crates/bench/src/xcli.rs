//! X client experiments: Fig 13 (Scroll and Popup event times).

use pdo::{optimize, Optimization, OptimizeOptions};
use pdo_cactus::EventProgram;
use pdo_events::TraceConfig;
use pdo_profile::Profile;
use pdo_xwin::{x_client_program, XClient};

/// A prepared X client experiment.
pub struct XLab {
    /// The unoptimized client program.
    pub base: EventProgram,
    /// The optimizer-extended program.
    pub opt_program: EventProgram,
    /// The optimization artifacts.
    pub optimization: Optimization,
    /// The gathered profile.
    pub profile: Profile,
}

impl XLab {
    /// Profiles 250 Popup and 250 Scroll gestures (the paper raises each
    /// event 250 times) and optimizes at `threshold`.
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration.
    pub fn prepare(threshold: u64) -> XLab {
        let base = x_client_program();
        let mut client = XClient::new(&base).expect("client");
        client.runtime_mut().set_trace_config(TraceConfig::full());
        for i in 0..250 {
            client.popup(i, i + 1).expect("popup");
            client.scroll(i).expect("scroll");
        }
        let trace = client.runtime_mut().take_trace();
        let profile = Profile::from_trace(&trace, threshold);
        let optimization = optimize(
            &base.module,
            client.runtime().registry(),
            &profile,
            &OptimizeOptions::new(threshold),
        );
        let opt_program = base.with_module(optimization.module.clone());
        XLab {
            base,
            opt_program,
            optimization,
            profile,
        }
    }

    /// A fresh client (chains installed when `optimized`).
    ///
    /// # Panics
    ///
    /// Panics on substrate misconfiguration.
    pub fn client(&self, optimized: bool) -> XClient {
        let program = if optimized {
            &self.opt_program
        } else {
            &self.base
        };
        let mut c = XClient::new(program).expect("client");
        if optimized {
            self.optimization.install_chains(c.runtime_mut());
        }
        c
    }
}

/// One Fig 13 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Gesture / event type.
    pub event: String,
    /// Original time (ns).
    pub orig_ns: f64,
    /// Optimized time (ns).
    pub opt_ns: f64,
    /// Cost units of one original gesture.
    pub orig_units: u64,
    /// Cost units of one optimized gesture.
    pub opt_units: u64,
}

/// Runs the Fig 13 measurements: each gesture, original and optimized
/// timed in `rounds` [`crate::interleaved`] rounds, beside the
/// [`crate::warmed_units`] of one.
///
/// # Panics
///
/// Panics on substrate misconfiguration.
pub fn fig13_rows(lab: &XLab, rounds: usize) -> Vec<Fig13Row> {
    let row = |event: &str, gesture: fn(&mut XClient)| {
        let mut clients = [lab.client(false), lab.client(true)];
        let timed = crate::interleaved(2, rounds, crate::SAMPLES, |i| gesture(&mut clients[i]));
        let units = |optimized| {
            crate::warmed_units(&mut lab.client(optimized), XClient::runtime_mut, gesture)
        };
        Fig13Row {
            event: event.to_string(),
            orig_ns: timed[0].median_min(),
            opt_ns: timed[1].median_min(),
            orig_units: units(false),
            opt_units: units(true),
        }
    };
    vec![
        row("Scroll", |c| c.scroll(42).expect("scroll")),
        row("Popup", |c| c.popup(10, 20).expect("popup")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_optimizes_actions_and_callbacks() {
        let lab = XLab::prepare(100);
        let report = &lab.optimization.report;
        assert!(
            report.events.len() >= 3,
            "{}",
            report.render(&lab.optimization.module)
        );
    }

    #[test]
    fn optimized_client_behaves_identically() {
        let lab = XLab::prepare(100);
        let mut orig = lab.client(false);
        let mut opt = lab.client(true);
        for i in 0..50 {
            orig.popup(i, i * 2).unwrap();
            opt.popup(i, i * 2).unwrap();
            orig.scroll(i).unwrap();
            opt.scroll(i).unwrap();
            orig.plain_click(i, i).unwrap();
            opt.plain_click(i, i).unwrap();
        }
        assert_eq!(orig.state(), opt.state());
        assert!(opt.runtime().cost.fastpath_hits > 0);
    }

    #[test]
    fn conditional_translation_survives_optimization() {
        // The Ctrl check lives inside the merged ButtonPress super-handler;
        // a plain click must still not pop up a menu.
        let lab = XLab::prepare(100);
        let mut opt = lab.client(true);
        opt.plain_click(5, 5).unwrap();
        assert_eq!(opt.state().menus_created, 0);
        opt.popup(5, 5).unwrap();
        assert_eq!(opt.state().menus_created, 1);
    }
}
