//! Differential run analysis: compare two serialized reports and flag
//! significant regressions and improvements.
//!
//! [`load_samples`] auto-detects the input by schema tag — an
//! `ignite-cluster-v1` or `-v2` report, or an `ignite-scope-v1` report —
//! reads it into its typed report and flattens that into named metric
//! samples, each with a direction (is higher better?), and a cluster
//! report's workload identity. [`same_kind`] says whether two schemas
//! compare at all, and [`diff`] then compares two sample sets: a change
//! is *significant* when its baseline is nonzero and it exceeds a
//! relative threshold.

use std::fmt::Write as _;

use ignite_cluster::json::{self, Value, Walker};
use ignite_cluster::ClusterReport;

use crate::report::{ScopeReport, ScopeRow};

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

fn sample(name: impl Into<String>, value: f64, higher_is_better: bool) -> MetricSample {
    MetricSample { name: name.into(), value, higher_is_better }
}

fn cluster_samples(report: &ClusterReport) -> Vec<MetricSample> {
    let out = &report.outcome;
    let mut samples = vec![
        sample("totals/mean_latency_cycles", out.mean_latency, false),
        sample("totals/p50_latency_cycles", out.p50_latency as f64, false),
        sample("totals/p95_latency_cycles", out.p95_latency as f64, false),
        sample("totals/p99_latency_cycles", out.p99_latency as f64, false),
        sample("totals/makespan_cycles", out.makespan as f64, false),
        sample("totals/mean_utilization", out.mean_utilization(), true),
        sample("store/hit_rate", out.store.hit_rate(), true),
    ];
    for f in &out.functions {
        let name = |key| format!("function/{}/{key}", f.abbr);
        samples.push(sample(name("p99_latency_cycles"), f.p99_latency as f64, false));
        samples.push(sample(name("mean_service_cycles"), f.mean_service, false));
    }
    samples
}

/// The mean of each attribution key of a scope report row over its
/// invocations, named `{prefix}/mean_{key}`.
fn mean_attribution(row: &ScopeRow, prefix: &str, out: &mut Vec<MetricSample>) {
    if row.invocations > 0 {
        for (key, cycles) in row.cycles.fields() {
            let mean = cycles as f64 / row.invocations as f64;
            out.push(sample(format!("{prefix}/mean_{key}"), mean, false));
        }
    }
}

fn scope_samples(report: &ScopeReport) -> Vec<MetricSample> {
    let (mut out, totals) = (Vec::new(), &report.totals);
    mean_attribution(totals, "totals", &mut out);
    for (q, cycles) in ["p50", "p95", "p99"].into_iter().zip(totals.latency) {
        out.push(sample(format!("totals/{q}_latency_cycles"), cycles as f64, false));
    }
    out.push(sample("totals/slo_violations", totals.violations as f64, false));
    for f in &report.functions {
        let prefix = format!("function/{}", f.abbr);
        out.push(sample(format!("{prefix}/p99_latency_cycles"), f.totals.latency[2] as f64, false));
        // Per-function mean attribution components, so a diff can
        // call a scheduler or keep-alive change a win or regression
        // *per function* (e.g. store-miss cycles dropping for hot
        // functions under affinity routing).
        mean_attribution(&f.totals, &prefix, &mut out);
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

/// A report read for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    /// The document's `schema` tag.
    pub schema: String,
    /// The report flattened into comparable samples.
    pub samples: Vec<MetricSample>,
    /// A cluster report's workload identity, `None` for a report with no
    /// `workload` fingerprint section.
    ///
    /// Two reports with different identities were produced by different
    /// traffic shapes, so a metric diff between them compares apples to
    /// oranges; `scope diff` refuses such pairs unless explicitly
    /// overridden. The identity is the *configured* shape (the
    /// `--traffic` spec plus arrival seed/rate/skew inputs and stream
    /// size), not the measured statistics, so two runs of the same spec
    /// under different policies still compare cleanly.
    pub workload: Option<String>,
}

/// Reads a serialized report into its typed report, detecting the schema
/// from the document's `schema` tag, and flattens it into comparable
/// samples, returned with the tag and the workload identity.
pub fn load_samples(text: &str) -> Result<Loaded, String> {
    let doc = json::parse(text)?;
    let schema = Walker::reader(&doc).get("schema").and_then(Value::as_str);
    let schema = schema.ok_or("document has no 'schema' tag")?.to_string();
    let (samples, workload) = match kind(&schema) {
        Some(Kind::Cluster) => {
            let report = ClusterReport::read(&doc)?;
            (cluster_samples(&report), workload_identity(&report))
        }
        Some(Kind::Scope) => (scope_samples(&ScopeReport::read(&doc)?), None),
        None => return Err(format!("unsupported schema '{schema}'")),
    };
    Ok(Loaded { schema, samples, workload })
}

/// Whether reports of two schemas compare: both are cluster reports, of
/// either version, or both are scope reports. Metrics of different
/// report kinds that happen to share a name do not measure the same
/// thing.
pub fn same_kind(old_schema: &str, new_schema: &str) -> bool {
    kind(old_schema).is_some() && kind(old_schema) == kind(new_schema)
}

/// A cluster report's workload identity ([`Loaded::workload`]).
fn workload_identity(report: &ClusterReport) -> Option<String> {
    let traffic = report.config.traffic.as_deref()?;
    let (seed, wl) = (report.config.arrival.seed, &report.outcome.workload);
    let (arrivals, functions) = (wl.arrivals, wl.functions);
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
    use crate::report::FunctionScope;
    use ignite_cluster::{ClusterConfig, ClusterOutcome};
    use ignite_obs::Attribution;

    fn s(name: &str, value: f64) -> MetricSample {
        sample(name, value, false)
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
        let old = vec![sample("util", 0.5, true)];
        let new = vec![sample("util", 0.9, true)];
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
        let row = |store_miss_cycles| {
            let cycles = Attribution {
                queue_cycles: 8,
                dram_cycles: 4,
                store_miss_cycles,
                execution_cycles: 20,
                latency_cycles: 32 + store_miss_cycles,
                ..Attribution::default()
            };
            ScopeRow { invocations: 4, cycles, latency: [10, 11, 12], ..ScopeRow::default() }
        };
        let report = |store_miss_cycles| {
            let totals = row(store_miss_cycles);
            let mdsvc = FunctionScope { function: 0, abbr: "mdsvc".into(), totals };
            ScopeReport { slo: None, totals, functions: vec![mdsvc] }.to_json()
        };
        let text = report(12);
        ScopeReport::validate(&text).expect("a valid scope report");
        let Loaded { schema, samples, .. } = load_samples(&text).expect("scope samples");
        assert_eq!(schema, "ignite-scope-v1");
        let miss = samples
            .iter()
            .find(|s| s.name == "function/mdsvc/mean_store_miss_cycles")
            .expect("per-function store-miss sample");
        assert_eq!(miss.value, 3.0);
        assert!(!miss.higher_is_better);
        // A scheduler swap that cuts mdsvc's store misses to a third
        // reads as a per-function improvement.
        let d = diff(&samples, &load_samples(&report(4)).unwrap().samples, 5.0);
        assert!(d
            .entries
            .iter()
            .any(|e| e.name == "function/mdsvc/mean_store_miss_cycles" && e.improvement));
    }

    /// A cluster report of a run with no invocations: `traffic` its
    /// `--traffic` spec, the fingerprint counting `arrivals`.
    fn cluster_report(traffic: Option<&str>, seed: u64, arrivals: u64) -> ClusterReport {
        let mut cfg = ClusterConfig { traffic: traffic.map(String::from), ..Default::default() };
        cfg.arrival.seed = seed;
        let mut outcome = ClusterOutcome::default();
        outcome.workload.arrivals = arrivals;
        outcome.workload.functions = 20;
        ClusterReport::new(cfg, outcome)
    }

    /// The workload identity `load_samples` reads from `text`.
    fn identity(text: &str) -> Option<String> {
        load_samples(text).ok()?.workload
    }

    #[test]
    fn workload_identity_extracts_configured_shape() {
        let mmpp = Some("mmpp:mults=1/6,dwells=300000/60000");
        let report = cluster_report(mmpp, 42, 50);
        let id = identity(&report.to_json()).expect("identity");
        assert_eq!(
            id,
            "traffic=mmpp:mults=1/6,dwells=300000/60000 seed=42 arrivals=50 functions=20"
        );
        // Same workload under a different policy keeps the identity:
        // nothing outside config/workload participates.
        let mut other = report.clone();
        other.config.store.capacity_bytes /= 2;
        other.outcome.workload.top1_share = 0.5;
        assert_eq!(identity(&other.to_json()).as_deref(), Some(id.as_str()));
        // A different traffic spec, arrival count, or seed changes it.
        for changed in [
            cluster_report(Some("mmpp:mults=1/8,dwells=400000/80000"), 42, 50),
            cluster_report(mmpp, 42, 51),
            cluster_report(mmpp, 43, 50),
        ] {
            assert_ne!(identity(&changed.to_json()), Some(id.clone()));
        }
    }

    #[test]
    fn workload_identity_is_none_without_fingerprint() {
        assert_eq!(identity(&cluster_report(None, 42, 50).to_json()), None);
        let scope = ScopeReport { slo: None, totals: ScopeRow::default(), functions: Vec::new() };
        assert_eq!(identity(&scope.to_json()), None);
        assert_eq!(identity("not json"), None);
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
