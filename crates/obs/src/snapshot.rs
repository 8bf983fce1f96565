//! Point-in-time metric snapshots with Prometheus-style text exposition.
//!
//! A [`MetricsSnapshot`] is built at scrape time from whatever native
//! stat structs each layer keeps (pull model — the hot paths never
//! format strings). Series are keyed by family name plus a sorted label
//! set, stored in `BTreeMap`s so `render()` is deterministic; merging
//! two snapshots adds counters and gauges and merges histograms, which
//! is how per-session scrapes roll up into one server-wide snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn series_key(labels: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = labels.iter().collect();
    sorted.sort();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[derive(Debug, Clone, PartialEq)]
enum Family {
    Counter(BTreeMap<String, u64>),
    Gauge(BTreeMap<String, i64>),
    Histogram(BTreeMap<String, Histogram>),
}

/// A point-in-time collection of metric series, renderable as
/// Prometheus-style text and mergeable across sessions and servers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    families: BTreeMap<String, (String, Family)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Adds `value` to the counter series `name{labels}`, registering the
    /// family with `help` on first use.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let key = series_key(&own(labels));
        match self.family(name, help, || Family::Counter(BTreeMap::new())) {
            Family::Counter(series) => *series.entry(key).or_insert(0) += value,
            _ => panic!("metric family {name} registered with a different type"),
        }
    }

    /// Adds `value` (may be negative) to the gauge series `name{labels}`.
    /// Merging sums gauges, so per-session gauges aggregate to totals.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        let key = series_key(&own(labels));
        match self.family(name, help, || Family::Gauge(BTreeMap::new())) {
            Family::Gauge(series) => *series.entry(key).or_insert(0) += value,
            _ => panic!("metric family {name} registered with a different type"),
        }
    }

    /// Merges `hist` into the histogram series `name{labels}`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let key = series_key(&own(labels));
        match self.family(name, help, || Family::Histogram(BTreeMap::new())) {
            Family::Histogram(series) => {
                series.entry(key).or_insert_with(Histogram::new).merge(hist)
            }
            _ => panic!("metric family {name} registered with a different type"),
        }
    }

    fn family(&mut self, name: &str, help: &str, mk: impl FnOnce() -> Family) -> &mut Family {
        &mut self
            .families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), mk()))
            .1
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge. Associative and commutative, so per-server snapshots roll up in
    /// any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, (help, fam)) in &other.families {
            match fam {
                Family::Counter(series) => {
                    for (key, v) in series {
                        match self.family(name, help, || Family::Counter(BTreeMap::new())) {
                            Family::Counter(s) => *s.entry(key.clone()).or_insert(0) += v,
                            _ => panic!("metric family {name} registered with a different type"),
                        }
                    }
                }
                Family::Gauge(series) => {
                    for (key, v) in series {
                        match self.family(name, help, || Family::Gauge(BTreeMap::new())) {
                            Family::Gauge(s) => *s.entry(key.clone()).or_insert(0) += v,
                            _ => panic!("metric family {name} registered with a different type"),
                        }
                    }
                }
                Family::Histogram(series) => {
                    for (key, h) in series {
                        match self.family(name, help, || Family::Histogram(BTreeMap::new())) {
                            Family::Histogram(s) => {
                                s.entry(key.clone()).or_insert_with(Histogram::new).merge(h)
                            }
                            _ => panic!("metric family {name} registered with a different type"),
                        }
                    }
                }
            }
        }
    }

    /// The counter value at `name{labels}`, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match &self.families.get(name)?.1 {
            Family::Counter(s) => s.get(&series_key(&own(labels))).copied(),
            _ => None,
        }
    }

    /// The gauge value at `name{labels}`, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match &self.families.get(name)?.1 {
            Family::Gauge(s) => s.get(&series_key(&own(labels))).copied(),
            _ => None,
        }
    }

    /// The histogram at `name{labels}`, if present.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match &self.families.get(name)?.1 {
            Family::Histogram(s) => s.get(&series_key(&own(labels))),
            _ => None,
        }
    }

    /// Drops every family for which `keep` returns false. Used to strip
    /// wall-clock families (reprofile wall-ns, server busy-ns) before
    /// comparing snapshots from runs that must agree on everything the
    /// virtual clock governs but not on host timing.
    pub fn retain_families(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.families.retain(|name, _| keep(name));
    }

    /// Prometheus-style text exposition. Deterministic: families and
    /// series render in sorted order. Histograms render summary-style
    /// (`quantile="0.5|0.9|0.99"` labels) plus `_sum`, `_count`, and
    /// `_max` series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (help, fam)) in &self.families {
            let _ = writeln!(out, "# HELP {name} {help}");
            match fam {
                Family::Counter(series) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    for (key, v) in series {
                        let _ = writeln!(out, "{name}{} {v}", braced(key));
                    }
                }
                Family::Gauge(series) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    for (key, v) in series {
                        let _ = writeln!(out, "{name}{} {v}", braced(key));
                    }
                }
                Family::Histogram(series) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (key, h) in series {
                        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                            let _ = writeln!(
                                out,
                                "{name}{} {}",
                                braced(&with_quantile(key, qs)),
                                h.quantile(q)
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", braced(key), h.sum());
                        let _ = writeln!(out, "{name}_count{} {}", braced(key), h.count());
                        let _ = writeln!(out, "{name}_max{} {}", braced(key), h.max());
                    }
                }
            }
        }
        out
    }
}

fn own(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn braced(key: &str) -> String {
    if key.is_empty() {
        String::new()
    } else {
        format!("{{{key}}}")
    }
}

fn with_quantile(key: &str, q: &str) -> String {
    if key.is_empty() {
        format!("quantile=\"{q}\"")
    } else {
        format!("{key},quantile=\"{q}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut s = MetricsSnapshot::new();
        s.counter("pdo_b_total", "second", &[], 2);
        s.counter("pdo_a_total", "first", &[("shard", "1")], 1);
        s.counter("pdo_a_total", "first", &[("shard", "0")], 7);
        s.gauge("pdo_live", "live things", &[], -3);
        let text = s.render();
        let a = text.find("pdo_a_total").unwrap();
        let b = text.find("pdo_b_total").unwrap();
        assert!(a < b);
        let s0 = text.find("pdo_a_total{shard=\"0\"} 7").unwrap();
        let s1 = text.find("pdo_a_total{shard=\"1\"} 1").unwrap();
        assert!(s0 < s1);
        assert!(text.contains("pdo_live -3"));
        assert_eq!(text, s.render());
    }

    #[test]
    fn histogram_renders_summary_series() {
        let mut s = MetricsSnapshot::new();
        let mut h = Histogram::new();
        for v in 1..=4u64 {
            h.record(v);
        }
        s.histogram("pdo_lat_ns", "latency", &[("path", "fast")], &h);
        let text = s.render();
        assert!(text.contains("# TYPE pdo_lat_ns summary"));
        assert!(text.contains("pdo_lat_ns{path=\"fast\",quantile=\"0.5\"} 2"));
        assert!(text.contains("pdo_lat_ns_sum{path=\"fast\"} 10"));
        assert!(text.contains("pdo_lat_ns_count{path=\"fast\"} 4"));
        assert!(text.contains("pdo_lat_ns_max{path=\"fast\"} 4"));
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsSnapshot::new();
        let mut b = MetricsSnapshot::new();
        a.counter("pdo_x_total", "x", &[("shard", "0")], 3);
        b.counter("pdo_x_total", "x", &[("shard", "0")], 4);
        b.counter("pdo_x_total", "x", &[("shard", "1")], 9);
        let mut h = Histogram::new();
        h.record(10);
        a.histogram("pdo_h_ns", "h", &[], &h);
        b.histogram("pdo_h_ns", "h", &[], &h);
        a.merge(&b);
        assert_eq!(a.counter_value("pdo_x_total", &[("shard", "0")]), Some(7));
        assert_eq!(a.counter_value("pdo_x_total", &[("shard", "1")]), Some(9));
        assert_eq!(a.histogram_value("pdo_h_ns", &[]).unwrap().count(), 2);
    }

    #[test]
    fn retain_families_drops_only_rejected_families() {
        let mut s = MetricsSnapshot::new();
        s.counter("pdo_keep_total", "kept", &[], 1);
        s.counter("pdo_wall_ns", "wall clock", &[], 9);
        let mut h = Histogram::new();
        h.record(5);
        s.histogram("pdo_wall_hist_ns", "wall hist", &[], &h);
        s.retain_families(|name| !name.starts_with("pdo_wall"));
        assert_eq!(s.counter_value("pdo_keep_total", &[]), Some(1));
        assert_eq!(s.counter_value("pdo_wall_ns", &[]), None);
        assert!(s.histogram_value("pdo_wall_hist_ns", &[]).is_none());
        assert!(!s.render().contains("pdo_wall"));
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut s = MetricsSnapshot::new();
        s.counter("pdo_y_total", "y", &[("a", "1"), ("b", "2")], 1);
        s.counter("pdo_y_total", "y", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(
            s.counter_value("pdo_y_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }
}
