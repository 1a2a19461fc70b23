//! Metrics registry with deterministic Prometheus-style exposition.
//!
//! Two instrument families — gauges, each an integer or an `f64`
//! ([`Sample`]), and fixed-bucket `u64` histograms — each addressable by
//! name plus an optional label set.
//! An exposition is one end-of-run snapshot, so setting a sample again
//! replaces it: recording the same run twice writes the same text.
//! Everything is stored in `BTreeMap`s and labels are sorted by key, so
//! [`MetricsRegistry::expose`] is byte-identical for identical inputs,
//! across runs and across processes. Non-finite gauge values are pinned
//! to `0` at write time: the exposition never contains `NaN` or `inf`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A gauge's value. An integer is written with all its digits, as the
/// JSON reports write it: an `f64` holds every integer only up to 2^53.
/// A float is written in its shortest round-trip form, and a non-finite
/// one as `0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    /// A count, a cycle number, a byte size.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A ratio or a mean.
    Float(f64),
}

impl From<f64> for Sample {
    fn from(x: f64) -> Self {
        Sample::Float(x)
    }
}

impl From<u64> for Sample {
    fn from(n: u64) -> Self {
        Sample::UInt(n)
    }
}

impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Sample::UInt(n) => write!(f, "{n}"),
            Sample::Int(n) => write!(f, "{n}"),
            Sample::Float(x) => write!(f, "{}", if x.is_finite() { x } else { 0.0 }),
        }
    }
}

#[derive(Debug, Clone)]
enum MetricData {
    Gauge(BTreeMap<String, Sample>),
    Histogram { bounds: Vec<u64>, series: BTreeMap<String, HistSeries> },
}

#[derive(Debug, Clone)]
struct HistSeries {
    /// Per-bound counts (non-cumulative), plus one overflow bucket.
    counts: Vec<u64>,
    sum: u64,
}

#[derive(Debug, Clone)]
struct Metric {
    help: String,
    data: MetricData,
}

/// Renders a label set as `{k="v",...}` with keys sorted, or `""` when
/// empty.
fn label_key(labels: &[(&str, &str)]) -> String {
    if !labels.is_sorted() {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        return label_key(&sorted);
    }
    if labels.is_empty() {
        return String::new();
    }
    let len: usize = labels.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    let mut out = String::with_capacity(len + 1);
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// A named collection of gauges and histograms.
///
/// Instruments are created on first touch; re-using a name with a
/// different instrument family (or different histogram bounds) panics —
/// that is a bug in the instrumentation, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The data of the family `name`, created by `new` on first touch.
    /// The name and help are only allocated then: a report sets hundreds
    /// of samples, most of them into families its rows share.
    fn family(&mut self, name: &str, help: &str, new: impl FnOnce() -> MetricData) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            let metric = Metric { help: help.to_string(), data: new() };
            self.metrics.insert(name.to_string(), metric);
        }
        self.metrics.get_mut(name).expect("the family exists")
    }

    /// Sets a gauge sample. Non-finite values are written as `0`.
    pub fn set_gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: impl Into<Sample>,
    ) {
        let metric = self.family(name, help, || MetricData::Gauge(BTreeMap::new()));
        let MetricData::Gauge(series) = &mut metric.data else {
            panic!("metric {name} already registered with a different type");
        };
        series.insert(label_key(labels), value.into());
    }

    /// Sets a histogram sample from precomputed bucket counts: one per
    /// bound, plus one overflow count at the end. `bounds` are inclusive
    /// upper bucket bounds in increasing order; values above the last
    /// bound belong in the implicit `+Inf` bucket.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != bounds.len() + 1`.
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
        counts: &[u64],
        sum: u64,
    ) {
        assert_eq!(counts.len(), bounds.len() + 1, "need one count per bound plus overflow");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must increase");
        let metric = self.family(name, help, || MetricData::Histogram {
            bounds: bounds.to_vec(),
            series: BTreeMap::new(),
        });
        let MetricData::Histogram { bounds: have, series } = &mut metric.data else {
            panic!("metric {name} already registered with a different type");
        };
        assert_eq!(have.as_slice(), bounds, "metric {name} re-registered with different bounds");
        series.insert(label_key(labels), HistSeries { counts: counts.to_vec(), sum });
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` preamble
    /// per metric, samples sorted by label key, histograms expanded to
    /// cumulative `_bucket{le=...}` plus `_sum` and `_count`.
    pub fn expose(&self) -> String {
        let mut out = String::with_capacity(self.exposed_len());
        for (name, metric) in &self.metrics {
            if !metric.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", metric.help);
            }
            match &metric.data {
                MetricData::Gauge(series) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    for (labels, v) in series {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                }
                MetricData::Histogram { bounds, series } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (labels, h) in series {
                        // `le` joins the sample's own labels inside one pair of braces.
                        let (open, comma) = match labels.strip_suffix('}') {
                            Some(open) => (open, ","),
                            None => ("{", ""),
                        };
                        let mut cumulative = 0u64;
                        for (bound, count) in bounds.iter().zip(&h.counts) {
                            cumulative += count;
                            let _ = writeln!(
                                out,
                                "{name}_bucket{open}{comma}le=\"{bound}\"}} {cumulative}"
                            );
                        }
                        cumulative += h.counts[bounds.len()];
                        let _ =
                            writeln!(out, "{name}_bucket{open}{comma}le=\"+Inf\"}} {cumulative}");
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum);
                        let _ = writeln!(out, "{name}_count{labels} {cumulative}");
                    }
                }
            }
        }
        out
    }

    /// About the length of [`MetricsRegistry::expose`]'s text, so it is
    /// written into one allocation: each gauge value is taken to be 12
    /// bytes long, each histogram bucket line to carry a 12-byte bound
    /// and count.
    fn exposed_len(&self) -> usize {
        let mut len = 0;
        for (name, metric) in &self.metrics {
            len += 2 * name.len() + metric.help.len() + 24;
            len += match &metric.data {
                MetricData::Gauge(series) => {
                    series.keys().map(|labels| name.len() + labels.len() + 14).sum::<usize>()
                }
                MetricData::Histogram { bounds, series } => series
                    .keys()
                    .map(|labels| (bounds.len() + 3) * (name.len() + labels.len() + 32))
                    .sum(),
            };
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.set_gauge("zeta", "last metric", &[], 3.0);
            reg.set_gauge("alpha", "first metric", &[("b", "2"), ("a", "1")], 1.0);
            reg.set_gauge("alpha", "first metric", &[("a", "1"), ("b", "2")], 2.0);
            reg.set_gauge("mid_gauge", "middle", &[], 1.5);
            reg
        };
        let a = build().expose();
        assert_eq!(a, build().expose());
        // Metric names sorted, one sample per label set regardless of order.
        let alpha = a.find("alpha").unwrap();
        let zeta = a.find("zeta").unwrap();
        assert!(alpha < zeta);
        assert!(a.contains("alpha{a=\"1\",b=\"2\"} 2\n"));
        assert!(a.contains("mid_gauge 1.5\n"));
    }

    #[test]
    fn non_finite_gauges_are_pinned_to_zero() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", "", &[("k", "nan")], f64::NAN);
        reg.set_gauge("g", "", &[("k", "inf")], f64::INFINITY);
        let text = reg.expose();
        assert!(text.contains("g{k=\"inf\"} 0\n"));
        assert!(text.contains("g{k=\"nan\"} 0\n"));
        assert!(!text.contains("NaN") && !text.contains("inf\"} i"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        // The observations 5, 7, 50 and 5000.
        reg.set_histogram("lat", "latency", &[10, 100, 1000], &[], &[2, 1, 0, 1], 5062);
        let text = reg.expose();
        assert!(text.contains("lat_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"100\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"1000\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_sum 5062\n"));
        assert!(text.contains("lat_count 4\n"));
    }

    /// A histogram set twice under one label set holds the second
    /// series, as a gauge does, so recording a run twice writes what
    /// recording it once does.
    #[test]
    fn set_histogram_replaces_its_series() {
        let bounds = [10, 100];
        let once = |reg: &mut MetricsRegistry| {
            reg.set_histogram("h", "", &bounds, &[("f", "x")], &[1, 1, 1], 333);
            reg.set_gauge("g", "", &[("f", "x")], 3.0);
        };
        let mut twice = MetricsRegistry::new();
        once(&mut twice);
        once(&mut twice);
        let mut single = MetricsRegistry::new();
        once(&mut single);
        assert_eq!(twice.expose(), single.expose());
        let want = "# TYPE g gauge\ng{f=\"x\"} 3\n# TYPE h histogram\n\
                    h_bucket{f=\"x\",le=\"10\"} 1\nh_bucket{f=\"x\",le=\"100\"} 2\n\
                    h_bucket{f=\"x\",le=\"+Inf\"} 3\nh_sum{f=\"x\"} 333\nh_count{f=\"x\"} 3\n";
        assert_eq!(single.expose(), want);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("m", "", &[], 1.0);
        reg.set_histogram("m", "", &[1], &[], &[0, 0], 0);
    }

    #[test]
    fn integer_valued_gauges_print_without_fraction() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", "", &[], 42.0);
        assert!(reg.expose().contains("g 42\n"));
    }

    /// An integer gauge keeps every digit, where its `f64` would round.
    #[test]
    fn integer_gauges_keep_every_digit() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", "", &[], u64::MAX);
        reg.set_gauge("h", "", &[], u64::MAX as f64);
        let text = reg.expose();
        assert!(text.contains("g 18446744073709551615\n"), "{text}");
        assert!(text.contains("h 18446744073709552000\n"), "{text}");
    }
}
