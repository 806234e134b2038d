//! The typed metric registry: counters, gauges and fixed-bucket
//! histograms, identified by Prometheus-style names and label sets.
//!
//! The registry is deliberately simple — metric families are registered
//! once up front (or lazily as label values appear), updates go through
//! typed ids so the hot path is a bounds-checked array index, and the
//! whole thing renders to the Prometheus text exposition format.

use std::fmt::Write as _;

/// A label pair attached to a metric, e.g. `("dir", "to_hw")`.
pub type Label = (&'static str, String);

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram. Buckets are defined by strictly increasing
/// upper bounds (Prometheus `le` semantics: an observation lands in the
/// first bucket whose bound is `>=` the value), plus an implicit
/// `+Inf` overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the `+Inf` bucket last. Non-cumulative
    /// internally; the exposition renders cumulative counts.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative counts per bucket, `+Inf` last — the exposition view.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// One registered metric: a name, help text, label set and value.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    value: MetricValue,
}

/// A registry of named metrics, rendered as Prometheus text exposition.
///
/// Names follow the convention `softsim_<subsystem>_<what>[_<unit>]`
/// and must match `[a-zA-Z_:][a-zA-Z0-9_:]*`; label values distinguish
/// members of a family (e.g. `{dir="to_hw",channel="0"}`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<Metric>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
        value: MetricValue,
    ) -> usize {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name && m.labels == labels),
            "duplicate metric: {name} {labels:?}"
        );
        self.metrics.push(Metric { name, help, labels, value });
        self.metrics.len() - 1
    }

    /// Registers a counter (monotonically increasing `u64`).
    pub fn counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
    ) -> CounterId {
        CounterId(self.register(name, help, labels, MetricValue::Counter(0)))
    }

    /// Registers a gauge (instantaneous `f64`).
    pub fn gauge(&mut self, name: &'static str, help: &'static str, labels: Vec<Label>) -> GaugeId {
        GaugeId(self.register(name, help, labels, MetricValue::Gauge(0.0)))
    }

    /// Registers a fixed-bucket histogram (see [`Histogram::new`]).
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
        bounds: &[f64],
    ) -> HistogramId {
        HistogramId(self.register(
            name,
            help,
            labels,
            MetricValue::Histogram(Histogram::new(bounds)),
        ))
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(c) => *c += by,
            _ => unreachable!("id type guarantees a counter"),
        }
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g = v,
            _ => unreachable!("id type guarantees a gauge"),
        }
    }

    /// Sets a gauge to the maximum of its current and `v`.
    pub fn set_max(&mut self, id: GaugeId, v: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g = g.max(v),
            _ => unreachable!("id type guarantees a gauge"),
        }
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Histogram(h) => h.observe(v),
            _ => unreachable!("id type guarantees a histogram"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0].value {
            MetricValue::Counter(c) => *c,
            _ => unreachable!("id type guarantees a counter"),
        }
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g,
            _ => unreachable!("id type guarantees a gauge"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers once per family,
    /// one sample line per metric, histograms expanded into cumulative
    /// `_bucket{le=…}` samples plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        // Sort by (name, labels) so families are contiguous and the
        // output is deterministic regardless of registration order.
        let mut order: Vec<usize> = (0..self.metrics.len()).collect();
        order.sort_by(|&a, &b| {
            let (ma, mb) = (&self.metrics[a], &self.metrics[b]);
            ma.name.cmp(mb.name).then_with(|| ma.labels.cmp(&mb.labels))
        });
        let mut out = String::new();
        let mut last_name = "";
        for i in order {
            let m = &self.metrics[i];
            if m.name != last_name {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
                last_name = m.name;
            }
            match &m.value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", m.name, labels_text(&m.labels, None), c);
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", m.name, labels_text(&m.labels, None), num(*g));
                }
                MetricValue::Histogram(h) => {
                    let cumulative = h.cumulative();
                    for (b, c) in h.bounds().iter().zip(&cumulative) {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            labels_text(&m.labels, Some(&num(*b))),
                            c
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        labels_text(&m.labels, Some("+Inf")),
                        cumulative.last().expect("+Inf bucket")
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        labels_text(&m.labels, None),
                        num(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        labels_text(&m.labels, None),
                        h.count()
                    );
                }
            }
        }
        out
    }
}

/// Formats an `f64` as its shortest round-trip decimal (integral values
/// render without a fraction part), valid in both the exposition format
/// and JSON.
pub(crate) fn num(v: f64) -> String {
    format!("{v}")
}

fn labels_text(labels: &[Label], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    // Prometheus text exposition escapes backslash, double quote and
    // newline inside label values (backslash first, so the escapes
    // themselves are not re-escaped).
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_are_le_inclusive() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // A value exactly on a bound lands in that bucket (le semantics).
        h.observe(1.0);
        h.observe(2.0);
        h.observe(2.5);
        h.observe(100.0); // overflow bucket
        assert_eq!(h.cumulative(), vec![1, 2, 3, 4]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 105.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn exposition_groups_families_and_expands_histograms() {
        let mut r = Registry::new();
        let c0 = r.counter("softsim_test_total", "a counter", vec![("dir", "to_hw".into())]);
        let _c1 = r.counter("softsim_test_total", "a counter", vec![("dir", "from_hw".into())]);
        let g = r.gauge("softsim_test_gauge", "a gauge", vec![]);
        let h = r.histogram("softsim_test_hist", "a histogram", vec![], &[1.0, 2.0]);
        r.inc(c0, 3);
        r.set(g, 1.5);
        r.observe(h, 0.5);
        r.observe(h, 9.0);
        let text = r.to_prometheus();
        assert_eq!(text.matches("# TYPE softsim_test_total counter").count(), 1);
        assert!(text.contains("softsim_test_total{dir=\"to_hw\"} 3"));
        assert!(text.contains("softsim_test_gauge 1.5"));
        assert!(text.contains("softsim_test_hist_bucket{le=\"1\"} 1"));
        assert!(text.contains("softsim_test_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("softsim_test_hist_count 2"));
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_name_and_labels_rejected() {
        let mut r = Registry::new();
        r.counter("softsim_dup_total", "x", vec![]);
        r.counter("softsim_dup_total", "x", vec![]);
    }

    #[test]
    fn exposition_bucket_lines_are_ordered_and_cumulative() {
        let mut r = Registry::new();
        let h = r.histogram("softsim_order_hist", "bucket order", vec![], &[0.5, 1.0, 8.0, 64.0]);
        for v in [0.25, 0.75, 4.0, 4.0, 1000.0] {
            r.observe(h, v);
        }
        let text = r.to_prometheus();
        // Bucket lines appear in strictly increasing bound order, +Inf
        // last, with non-decreasing cumulative counts.
        let lines: Vec<&str> =
            text.lines().filter(|l| l.starts_with("softsim_order_hist_bucket")).collect();
        let expected = [
            ("le=\"0.5\"", 1u64),
            ("le=\"1\"", 2),
            ("le=\"8\"", 4),
            ("le=\"64\"", 4),
            ("le=\"+Inf\"", 5),
        ];
        assert_eq!(lines.len(), expected.len(), "{text}");
        for (line, (le, count)) in lines.iter().zip(expected) {
            assert!(line.contains(le), "bucket order wrong: {line} (wanted {le})");
            let sample: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(sample, count, "{line}");
        }
        // The +Inf count equals _count: the histogram is complete.
        assert!(text.contains("softsim_order_hist_count 5"));
    }

    #[test]
    fn every_histogram_exposes_an_inf_bucket_even_when_empty() {
        let mut r = Registry::new();
        r.histogram("softsim_empty_hist", "no observations", vec![], &[1.0]);
        let text = r.to_prometheus();
        assert!(text.contains("softsim_empty_hist_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("softsim_empty_hist_sum 0"));
        assert!(text.contains("softsim_empty_hist_count 0"));
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let mut r = Registry::new();
        let c = r.counter(
            "softsim_escape_total",
            "label escaping",
            vec![("path", "C:\\dir\"quoted\"\nnext line".into())],
        );
        r.inc(c, 1);
        let text = r.to_prometheus();
        // Backslash → \\, quote → \", newline → the two characters \n —
        // and the sample stays on a single exposition line.
        let line = text
            .lines()
            .find(|l| l.starts_with("softsim_escape_total{"))
            .expect("sample line present");
        assert_eq!(line, "softsim_escape_total{path=\"C:\\\\dir\\\"quoted\\\"\\nnext line\"} 1");
    }

    #[test]
    fn escaping_order_does_not_double_escape() {
        // A value that is exactly a backslash before an `n` must come out
        // as \\n (escaped backslash + literal n), not \n (newline escape).
        let mut r = Registry::new();
        let c = r.counter("softsim_bsn_total", "x", vec![("v", "\\n".into())]);
        r.inc(c, 2);
        let text = r.to_prometheus();
        assert!(text.contains("softsim_bsn_total{v=\"\\\\n\"} 2"), "{text}");
    }
}
