//! Optimization reports: what was merged, subsumed, guarded, and how code
//! size changed (the paper's §4.2 code-size measurement).

use crate::merge::MergeSkip;
use pdo_ir::{EventId, FuncId, Module};
use pdo_passes::FusionRecord;
use std::fmt;

/// Per-event outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventReport {
    /// The optimized event.
    pub event: EventId,
    /// Its super-handler.
    pub func: FuncId,
    /// Handlers merged into the super-handler.
    pub merged_handlers: usize,
    /// Synchronous raises subsumed into the body.
    pub subsumed_raises: usize,
    /// Instruction count of the original handler bodies (summed).
    pub instrs_original: usize,
    /// Instruction count of the optimized super-handler as it is installed
    /// (a superinstruction counts once).
    pub instrs_optimized: usize,
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// Successful per-event reports.
    pub events: Vec<EventReport>,
    /// Events skipped, with reasons (as display strings for serialization).
    pub skipped: Vec<(EventId, String)>,
    /// Superinstruction sites per super-handler and pattern.
    pub fused: Vec<FusionRecord>,
    /// Module instruction count before optimization.
    pub module_instrs_before: usize,
    /// Module instruction count after (original + super-handlers).
    pub module_instrs_after: usize,
}

impl OptReport {
    /// Code-size growth in percent — the analogue of the paper's
    /// `objdump -d program | wc -l` comparison (§4.2 reports +1.3% for the
    /// video player and +1.1% for SecComm).
    pub fn code_growth_percent(&self) -> f64 {
        if self.module_instrs_before == 0 {
            return 0.0;
        }
        (self.module_instrs_after as f64 - self.module_instrs_before as f64) * 100.0
            / self.module_instrs_before as f64
    }

    /// Total handlers merged across all events.
    pub fn total_merged(&self) -> usize {
        self.events.iter().map(|e| e.merged_handlers).sum()
    }

    /// Total raises subsumed across all events.
    pub fn total_subsumed(&self) -> usize {
        self.events.iter().map(|e| e.subsumed_raises).sum()
    }

    /// Records a skip with its reason.
    pub fn skip(&mut self, event: EventId, reason: MergeSkip) {
        self.skipped.push((event, reason.to_string()));
    }

    /// Renders a human-readable summary, resolving names via `module`.
    pub fn render(&self, module: &Module) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "optimized {} event(s); merged {} handler(s); subsumed {} raise(s)",
            self.events.len(),
            self.total_merged(),
            self.total_subsumed()
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "  {:<20} {} handlers, {} subsumed, {} -> {} instrs",
                module.event_name(e.event),
                e.merged_handlers,
                e.subsumed_raises,
                e.instrs_original,
                e.instrs_optimized
            );
        }
        for (ev, why) in &self.skipped {
            let _ = writeln!(out, "  {:<20} skipped: {}", module.event_name(*ev), why);
        }
        let _ = writeln!(
            out,
            "code size: {} -> {} instrs ({:+.1}%)",
            self.module_instrs_before,
            self.module_instrs_after,
            self.code_growth_percent()
        );
        out
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events optimized, {} skipped, code {:+.1}%",
            self.events.len(),
            self.skipped.len(),
            self.code_growth_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_percentage() {
        let r = OptReport {
            module_instrs_before: 1000,
            module_instrs_after: 1013,
            ..Default::default()
        };
        assert!((r.code_growth_percent() - 1.3).abs() < 1e-9);
        let empty = OptReport::default();
        assert_eq!(empty.code_growth_percent(), 0.0);
    }

    #[test]
    fn totals_sum_events() {
        let r = OptReport {
            events: vec![
                EventReport {
                    event: EventId(0),
                    func: FuncId(0),
                    merged_handlers: 3,
                    subsumed_raises: 1,
                    instrs_original: 30,
                    instrs_optimized: 20,
                },
                EventReport {
                    event: EventId(1),
                    func: FuncId(1),
                    merged_handlers: 2,
                    subsumed_raises: 0,
                    instrs_original: 10,
                    instrs_optimized: 9,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.total_merged(), 5);
        assert_eq!(r.total_subsumed(), 1);
    }

    #[test]
    fn render_includes_names_and_skips() {
        let mut m = Module::new();
        m.add_event("Hot");
        m.add_event("Cold");
        let mut r = OptReport::default();
        r.events.push(EventReport {
            event: EventId(0),
            func: FuncId(0),
            merged_handlers: 2,
            subsumed_raises: 0,
            instrs_original: 12,
            instrs_optimized: 8,
        });
        r.skip(EventId(1), MergeSkip::UnstableSequence);
        let text = r.render(&m);
        assert!(text.contains("Hot"));
        assert!(text.contains("Cold"));
        assert!(text.contains("unstable"));
    }
}
