//! Differential run analysis: compare two serialized reports and flag
//! significant regressions and improvements.
//!
//! [`load_samples`] auto-detects the input by schema tag — an
//! `ignite-cluster-v1` or `-v2` report, or an `ignite-scope-v1` report —
//! and flattens it into named metric samples, each with a direction (is
//! higher better?). [`same_kind`] says whether two schemas compare at
//! all, and [`diff`] then compares two sample sets: a change is
//! *significant* when its baseline is nonzero and it exceeds a relative
//! threshold.

use std::fmt::Write as _;

use ignite_cluster::json::{self, Value};
use ignite_obs::Attribution;

/// One comparable metric from a report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Stable path-style name, e.g. `totals/p99_latency_cycles`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Whether larger values are better (utilization, hit rate) or
    /// worse (latency, violations).
    pub higher_is_better: bool,
}

fn sample(name: String, value: f64, higher_is_better: bool) -> MetricSample {
    MetricSample { name, value, higher_is_better }
}

fn num(obj: &[(String, Value)], key: &str) -> Option<f64> {
    json::get(obj, key).and_then(Value::as_f64)
}

fn cluster_samples(obj: &[(String, Value)]) -> Vec<MetricSample> {
    let mut out = Vec::new();
    if let Some(t) = json::get(obj, "totals").and_then(Value::as_object) {
        for (key, higher) in [
            ("mean_latency_cycles", false),
            ("p50_latency_cycles", false),
            ("p95_latency_cycles", false),
            ("p99_latency_cycles", false),
            ("makespan_cycles", false),
            ("mean_utilization", true),
        ] {
            if let Some(v) = num(t, key) {
                out.push(sample(format!("totals/{key}"), v, higher));
            }
        }
    }
    if let Some(st) = json::get(obj, "store").and_then(Value::as_object) {
        if let Some(v) = num(st, "hit_rate") {
            out.push(sample("store/hit_rate".to_string(), v, true));
        }
    }
    if let Some(fs) = json::get(obj, "functions").and_then(Value::as_array) {
        for f in fs {
            let Some(fo) = f.as_object() else { continue };
            let Some(abbr) = json::get(fo, "function").and_then(Value::as_str) else { continue };
            for (key, higher) in [("p99_latency_cycles", false), ("mean_service_cycles", false)] {
                if let Some(v) = num(fo, key) {
                    out.push(sample(format!("function/{abbr}/{key}"), v, higher));
                }
            }
        }
    }
    out
}

/// The mean of each attribution key of a scope report row over its
/// invocations, named `{prefix}/mean_{key}`.
fn mean_attribution(row: &[(String, Value)], prefix: &str, out: &mut Vec<MetricSample>) {
    let inv = num(row, "invocations").unwrap_or(0.0);
    if inv > 0.0 {
        for (key, _) in Attribution::default().fields() {
            if let Some(v) = num(row, key) {
                out.push(sample(format!("{prefix}/mean_{key}"), v / inv, false));
            }
        }
    }
}

fn scope_samples(obj: &[(String, Value)]) -> Vec<MetricSample> {
    let mut out = Vec::new();
    if let Some(t) = json::get(obj, "totals").and_then(Value::as_object) {
        mean_attribution(t, "totals", &mut out);
        for key in ["p50_latency_cycles", "p95_latency_cycles", "p99_latency_cycles"] {
            if let Some(v) = num(t, key) {
                out.push(sample(format!("totals/{key}"), v, false));
            }
        }
        if let Some(v) = num(t, "slo_violations") {
            out.push(sample("totals/slo_violations".to_string(), v, false));
        }
    }
    if let Some(fs) = json::get(obj, "functions").and_then(Value::as_array) {
        for f in fs {
            let Some(fo) = f.as_object() else { continue };
            let Some(abbr) = json::get(fo, "function").and_then(Value::as_str) else { continue };
            if let Some(v) = num(fo, "p99_latency_cycles") {
                out.push(sample(format!("function/{abbr}/p99_latency_cycles"), v, false));
            }
            // Per-function mean attribution components, so a diff can
            // call a scheduler or keep-alive change a win or regression
            // *per function* (e.g. store-miss cycles dropping for hot
            // functions under affinity routing).
            mean_attribution(fo, &format!("function/{abbr}"), &mut out);
        }
    }
    out
}

/// The report kinds [`load_samples`] reads. Both cluster schema
/// versions are one kind: v2 adds the failure-model sections to v1, and
/// a run with failures is compared with one without.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cluster,
    Scope,
}

fn kind(schema: &str) -> Option<Kind> {
    match schema {
        "ignite-cluster-v1" | "ignite-cluster-v2" => Some(Kind::Cluster),
        "ignite-scope-v1" => Some(Kind::Scope),
        _ => None,
    }
}

/// Flattens a serialized report into comparable samples, detecting the
/// schema from the document's `schema` tag, and returns the tag with
/// them.
pub fn load_samples(text: &str) -> Result<(String, Vec<MetricSample>), String> {
    let doc = json::parse(text)?;
    let obj = doc.as_object().ok_or("document is not an object")?;
    let schema =
        json::get(obj, "schema").and_then(Value::as_str).ok_or("document has no 'schema' tag")?;
    let samples = match kind(schema) {
        Some(Kind::Cluster) => cluster_samples(obj),
        Some(Kind::Scope) => scope_samples(obj),
        None => return Err(format!("unsupported schema '{schema}'")),
    };
    if samples.is_empty() {
        return Err(format!("no comparable metrics in '{schema}' document"));
    }
    Ok((schema.to_string(), samples))
}

/// Whether reports of two schemas compare: both are cluster reports, of
/// either version, or both are scope reports. Metrics of different
/// report kinds that happen to share a name do not measure the same
/// thing.
pub fn same_kind(old_schema: &str, new_schema: &str) -> bool {
    kind(old_schema).is_some() && kind(old_schema) == kind(new_schema)
}

/// Extracts a compact workload identity from a serialized cluster
/// report, or `None` when the document carries no `workload`
/// fingerprint section (legacy reports, scope reports).
///
/// Two reports with different identities were produced by different
/// traffic shapes, so a metric diff between them compares apples to
/// oranges; `scope diff` refuses such pairs unless explicitly
/// overridden. The identity is the *configured* shape (the `--traffic`
/// spec plus arrival seed/rate/skew inputs and stream size), not the
/// measured statistics, so two runs of the same spec under different
/// policies still compare cleanly.
pub fn workload_identity(text: &str) -> Option<String> {
    let doc = json::parse(text).ok()?;
    let obj = doc.as_object()?;
    let workload = json::get(obj, "workload")?.as_object()?;
    let arrivals = json::get(workload, "arrivals").and_then(Value::as_f64)?;
    let functions = json::get(workload, "functions").and_then(Value::as_f64)?;
    let config = json::get(obj, "config").and_then(Value::as_object);
    let traffic =
        config.and_then(|c| json::get(c, "traffic")).and_then(Value::as_str).unwrap_or("(none)");
    let seed = config.and_then(|c| num(c, "seed")).unwrap_or(0.0);
    Some(format!("traffic={traffic} seed={seed} arrivals={arrivals} functions={functions}"))
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change in percent (positive = increased).
    pub delta_pct: f64,
    /// Whether the baseline is nonzero and the change exceeds the
    /// threshold.
    pub significant: bool,
    /// Significant *and* in the worse direction.
    pub regression: bool,
    /// Significant *and* in the better direction.
    pub improvement: bool,
}

/// The result of comparing two sample sets.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every metric present in both inputs, in baseline order.
    pub entries: Vec<DiffEntry>,
    /// Metric names only in the baseline.
    pub removed: Vec<String>,
    /// Metric names only in the new run.
    pub added: Vec<String>,
}

impl DiffReport {
    /// Number of significant regressions.
    pub fn regressions(&self) -> usize {
        self.entries.iter().filter(|e| e.regression).count()
    }

    /// Number of significant improvements.
    pub fn improvements(&self) -> usize {
        self.entries.iter().filter(|e| e.improvement).count()
    }

    /// Human-readable summary, significant changes first.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scope diff: {} metrics compared, {} regressions, {} improvements",
            self.entries.len(),
            self.regressions(),
            self.improvements()
        );
        for e in self.entries.iter().filter(|e| e.significant) {
            let tag = if e.regression { "REGRESSION " } else { "improvement" };
            let _ = writeln!(
                s,
                "  {tag} {:<44} {:>14.2} -> {:>14.2} ({:+.2}%)",
                e.name, e.old, e.new, e.delta_pct
            );
        }
        for name in &self.removed {
            let _ = writeln!(s, "  removed     {name}");
        }
        for name in &self.added {
            let _ = writeln!(s, "  added       {name}");
        }
        s
    }
}

/// Compares two sample sets. A change is significant when the baseline
/// is nonzero and the change exceeds `threshold_pct` percent of it;
/// direction then decides regression vs improvement.
///
/// `threshold_pct` must be finite and at least 0: at NaN or infinity no
/// change would be significant, and below 0 every one would.
pub fn diff(old: &[MetricSample], new: &[MetricSample], threshold_pct: f64) -> DiffReport {
    debug_assert!(
        threshold_pct.is_finite() && threshold_pct >= 0.0,
        "threshold {threshold_pct} is not a finite percentage >= 0"
    );
    let mut report = DiffReport::default();
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            report.removed.push(o.name.clone());
            continue;
        };
        let delta = n.value - o.value;
        let delta_pct = if o.value != 0.0 {
            100.0 * delta / o.value
        } else if delta != 0.0 {
            100.0 * delta.signum()
        } else {
            0.0
        };
        // An exactly-zero baseline pins delta_pct to ±100, so the
        // percent threshold is no test at all: any nonzero jitter would
        // be flagged.
        let significant = o.value != 0.0 && delta_pct.abs() > threshold_pct;
        let worse = if o.higher_is_better { delta < 0.0 } else { delta > 0.0 };
        report.entries.push(DiffEntry {
            name: o.name.clone(),
            old: o.value,
            new: n.value,
            delta_pct,
            significant,
            regression: significant && worse,
            improvement: significant && !worse,
        });
    }
    for n in new {
        if !old.iter().any(|o| o.name == n.name) {
            report.added.push(n.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, value: f64) -> MetricSample {
        sample(name.to_string(), value, false)
    }

    #[test]
    fn self_diff_is_clean() {
        let a = vec![s("x", 10.0), s("y", 0.0)];
        let d = diff(&a, &a, 5.0);
        assert_eq!(d.regressions(), 0);
        assert_eq!(d.improvements(), 0);
        assert_eq!(d.entries.len(), 2);
    }

    #[test]
    fn direction_decides_regression() {
        let old = vec![s("latency", 100.0)];
        let new = vec![s("latency", 150.0)];
        let d = diff(&old, &new, 10.0);
        assert_eq!(d.regressions(), 1);
        // Lower latency is an improvement.
        let d = diff(&new, &old, 10.0);
        assert_eq!(d.improvements(), 1);
        // Higher-is-better flips the call.
        let old = vec![sample("util".into(), 0.5, true)];
        let new = vec![sample("util".into(), 0.9, true)];
        assert_eq!(diff(&old, &new, 10.0).improvements(), 1);
        assert_eq!(diff(&new, &old, 10.0).regressions(), 1);
    }

    #[test]
    fn zero_baseline_without_a_noise_floor_is_not_significant() {
        // A component that is exactly zero in the baseline offers no
        // scale to judge a percent delta against: delta_pct pins to
        // ±100, so 0 -> 1e-9 would read as a significant 100%
        // regression.
        let old = vec![s("function/mdsvc/mean_degraded_cycles", 0.0)];
        let new = vec![s("function/mdsvc/mean_degraded_cycles", 1e-9)];
        let d = diff(&old, &new, 5.0);
        assert_eq!(d.regressions(), 0, "zero-baseline jitter must not be significant");
        let e = &d.entries[0];
        assert_eq!(e.delta_pct, 100.0);
        assert!(!e.significant);
    }

    #[test]
    fn added_and_removed_metrics_are_listed_not_compared() {
        let old = vec![s("a", 1.0)];
        let new = vec![s("b", 1.0)];
        let d = diff(&old, &new, 5.0);
        assert!(d.entries.is_empty());
        assert_eq!(d.removed, vec!["a".to_string()]);
        assert_eq!(d.added, vec!["b".to_string()]);
        let text = d.to_text();
        assert!(text.contains("removed") && text.contains("added"));
    }

    #[test]
    fn scope_samples_carry_per_function_components() {
        let text = r#"{"schema": "ignite-scope-v1", "totals": {"invocations": 4,
            "queue_cycles": 8, "dram_cycles": 4, "cold_frontend_cycles": 0,
            "store_miss_cycles": 12, "degraded_cycles": 0, "execution_cycles": 20,
            "latency_cycles": 44, "p50_latency_cycles": 10, "p95_latency_cycles": 11,
            "p99_latency_cycles": 12},
            "functions": [{"function": "mdsvc", "invocations": 4,
            "queue_cycles": 8, "dram_cycles": 4, "cold_frontend_cycles": 0,
            "store_miss_cycles": 12, "degraded_cycles": 0, "execution_cycles": 20,
            "latency_cycles": 44, "p99_latency_cycles": 12}]}"#;
        let (schema, samples) = load_samples(text).expect("scope samples");
        assert_eq!(schema, "ignite-scope-v1");
        let miss = samples
            .iter()
            .find(|s| s.name == "function/mdsvc/mean_store_miss_cycles")
            .expect("per-function store-miss sample");
        assert_eq!(miss.value, 3.0);
        assert!(!miss.higher_is_better);
        // A scheduler swap that halves mdsvc's store misses reads as a
        // per-function improvement.
        let better = text.replace("\"store_miss_cycles\": 12", "\"store_miss_cycles\": 4");
        let d = diff(&samples, &load_samples(&better).unwrap().1, 5.0);
        assert!(d
            .entries
            .iter()
            .any(|e| e.name == "function/mdsvc/mean_store_miss_cycles" && e.improvement));
    }

    #[test]
    fn workload_identity_extracts_configured_shape() {
        let report = r#"{"schema": "ignite-cluster-v1",
            "config": {"seed": 42, "traffic": "mmpp:mults=1/6,dwells=300000/60000"},
            "workload": {"schema": "ignite-workload-v1", "arrivals": 50, "functions": 20}}"#;
        let id = workload_identity(report).expect("identity");
        assert_eq!(
            id,
            "traffic=mmpp:mults=1/6,dwells=300000/60000 seed=42 arrivals=50 functions=20"
        );
        // Same workload under a different policy keeps the identity:
        // nothing outside config/workload participates.
        let other = report.replace("ignite-cluster-v1", "ignite-cluster-v2");
        assert_eq!(workload_identity(&other).as_deref(), Some(id.as_str()));
        // A different traffic spec, arrival count, or seed changes it.
        for (from, to) in
            [("mmpp:", "diurnal:"), ("\"arrivals\": 50", "\"arrivals\": 51"), ("42", "43")]
        {
            assert_ne!(workload_identity(&report.replace(from, to)), Some(id.clone()));
        }
    }

    #[test]
    fn workload_identity_is_none_without_fingerprint() {
        assert_eq!(workload_identity(r#"{"schema": "ignite-cluster-v1", "config": {}}"#), None);
        assert_eq!(workload_identity(r#"{"schema": "ignite-scope-v1", "totals": {}}"#), None);
        assert_eq!(workload_identity("not json"), None);
    }

    #[test]
    fn rejects_unknown_schema() {
        assert!(load_samples("{}").is_err());
        // A benchmark file of the retired micro-kernel runner is as
        // foreign as any other schema, results and all.
        for schema in ["nope", "ignite-bench-v1"] {
            let text = format!(
                r#"{{"schema": "{schema}", "results": [{{"name": "decode", "wall_ns": 1200}}]}}"#
            );
            let err = load_samples(&text).expect_err(schema);
            assert_eq!(err, format!("unsupported schema '{schema}'"));
        }
    }
}
