//! The `ignite-scope-v1` report: serialization, validation, and
//! Prometheus exposition of an analyzer's aggregates.
//!
//! [`ScopeReport::to_json`] is the only definition of the schema:
//! [`ScopeReport::validate`] checks a document against what `to_json`
//! writes for the same SLO section and row count.

use ignite_cluster::json::{self, Value};
use ignite_obs::{Attribution, EventSink, MetricsRegistry};

use crate::attribution::{ScopeAnalyzer, ScopeTotals};
use crate::slo::SloConfig;

/// Schema tag written into (and required of) every scope report.
pub const SCOPE_SCHEMA: &str = "ignite-scope-v1";

/// Per-function rows of the report.
#[derive(Debug, Clone, Default)]
pub struct FunctionScope {
    /// Function index in suite order.
    pub function: u32,
    /// Table-1 abbreviation (or `fn-<i>` when unknown).
    pub abbr: String,
    /// The function's fold.
    pub totals: ScopeTotals,
}

/// Function `function`'s abbreviation from `abbrs` (suite order, as in
/// `ClusterOutcome::functions`), or `fn-<i>` past its end.
fn abbr(abbrs: &[String], function: u32) -> String {
    abbrs.get(function as usize).cloned().unwrap_or_else(|| format!("fn-{function}"))
}

impl ScopeTotals {
    /// Writes one row: the sums, then quantiles read from the sketch.
    fn write(&self, w: &mut json::Writer) {
        w.field("invocations", self.invocations);
        for (key, cycles) in self.cycles.fields() {
            w.field(key, cycles);
        }
        w.field("p50_latency_cycles", self.latency.quantile(50));
        w.field("p95_latency_cycles", self.latency.quantile(95));
        w.field("p99_latency_cycles", self.latency.quantile(99));
        w.field("slo_violations", self.violations);
        w.field("alert_fires", self.alert_fires);
        w.field("alert_resolves", self.alert_resolves);
    }
}

/// The full report, ready to serialize.
#[derive(Debug, Clone)]
pub struct ScopeReport {
    /// SLO in force during the run, if any.
    pub slo: Option<SloConfig>,
    /// Cluster-wide totals.
    pub totals: ScopeTotals,
    /// Per-function rows, by function index.
    pub functions: Vec<FunctionScope>,
}

/// Reads every row written before the failure model, which lacks the
/// chaos components, as one whose chaos components are 0.
fn read_legacy_rows(v: &mut Value) {
    match v {
        Value::Object(pairs) => {
            for (key, after) in
                [("retry_cycles", "queue_cycles"), ("degraded_cycles", "store_miss_cycles")]
            {
                let at = pairs.iter().position(|(k, _)| k == after);
                if let (None, Some(i)) = (json::get(pairs, key), at) {
                    pairs.insert(i + 1, (key.to_string(), Value::Number(0.0)));
                }
            }
            pairs.iter_mut().for_each(|(_, v)| read_legacy_rows(v));
        }
        Value::Array(items) => items.iter_mut().for_each(read_legacy_rows),
        _ => {}
    }
}

impl ScopeReport {
    /// Builds the report from a finished analyzer. `abbrs` maps
    /// function index to its abbreviation (suite order, as in
    /// `ClusterOutcome::functions`); indices past the end get `fn-<i>`.
    /// The totals row is the merge of the function rows.
    pub fn from_analyzer<S: EventSink>(analyzer: &ScopeAnalyzer<S>, abbrs: &[String]) -> Self {
        let mut totals = ScopeTotals::default();
        let mut functions = Vec::new();
        for (&function, f) in analyzer.per_function() {
            totals.merge(f);
            functions.push(FunctionScope {
                function,
                abbr: abbr(abbrs, function),
                totals: f.clone(),
            });
        }
        ScopeReport { slo: analyzer.slo().copied(), totals, functions }
    }

    /// Serializes to deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::default();
        w.field("schema", json::escape(SCOPE_SCHEMA));
        match &self.slo {
            None => w.field("slo", "null"),
            Some(slo) => {
                w.object("slo");
                w.field("threshold_cycles", slo.threshold_cycles);
                w.field("objective_milli", slo.objective_milli);
                w.field("fast_window_cycles", slo.fast_window_cycles);
                w.field("slow_window_cycles", slo.slow_window_cycles);
                w.field("burn_milli", slo.burn_milli);
                w.field("min_count", slo.min_count);
                w.close();
            }
        }
        w.object("totals");
        self.totals.write(&mut w);
        w.close();
        w.array("functions");
        for f in &self.functions {
            w.row();
            w.field("function", json::escape(&f.abbr));
            w.field("index", f.function);
            f.totals.write(&mut w);
            w.close();
        }
        w.close();
        w.finish()
    }

    /// Validates serialized report text: the schema tag, the shape
    /// [`ScopeReport::to_json`] writes for the same SLO section and row
    /// count ([`json::same_shape`]), and the attribution invariant — the
    /// seven components sum exactly to the latency, in the totals and in
    /// every row — plus ordered quantiles, an SLO objective below 1000
    /// milli, and a totals row that is the merge of the function rows:
    /// each of its summed keys (the invocations, every attribution key,
    /// the violations and the alert transitions) equals the sum over the
    /// rows. A row without `retry_cycles` or `degraded_cycles`, as
    /// written before the failure model existed, reads them as 0.
    pub fn validate(text: &str) -> Result<(), String> {
        let mut doc = json::parse(text)?;
        let obj = doc.as_object().ok_or("report is not an object")?;
        let schema = json::get(obj, "schema").and_then(Value::as_str);
        if schema != Some(SCOPE_SCHEMA) {
            return Err(format!("schema {schema:?}, want {SCOPE_SCHEMA:?}"));
        }
        read_legacy_rows(&mut doc);
        let obj = doc.as_object().unwrap_or_default();
        let skeleton = ScopeReport {
            slo: json::get(obj, "slo").and_then(Value::as_object).map(|_| SloConfig::default()),
            totals: ScopeTotals::default(),
            functions: vec![FunctionScope::default(); json::get_array(obj, "functions").len()],
        };
        json::same_shape(&doc, &json::parse(&skeleton.to_json())?, "report")?;
        if let Some(slo) = json::get(obj, "slo").and_then(Value::as_object) {
            let objective = json::get_count(slo, "slo", "objective_milli")?;
            if objective >= 1000 {
                return Err(format!("slo: objective_milli {objective} is not below 1000"));
            }
        }

        // The keys a totals row sums over the function rows.
        let summed: Vec<&str> = ["invocations"]
            .into_iter()
            .chain(Attribution::default().fields().map(|(key, _)| key))
            .chain(["slo_violations", "alert_fires", "alert_resolves"])
            .collect();
        let check = |row: &[(String, Value)], ctx: &str| -> Result<Vec<u64>, String> {
            let n = |key: &str| json::get_count(row, ctx, key);
            let mut a = Attribution::default();
            for (key, cycles) in a.fields_mut() {
                *cycles = n(key)?;
            }
            let (sum, latency) = (a.component_sum(), a.latency_cycles);
            if sum != latency {
                return Err(format!("{ctx}: components sum to {sum}, latency is {latency}"));
            }
            let (p50, p95, p99) =
                (n("p50_latency_cycles")?, n("p95_latency_cycles")?, n("p99_latency_cycles")?);
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!("{ctx}: quantiles not ordered: {p50} {p95} {p99}"));
            }
            summed.iter().map(|key| n(key)).collect()
        };
        let totals = check(json::get_object(obj, "totals"), "totals")?;
        let mut sums = vec![0u64; summed.len()];
        for (i, row) in json::get_array(obj, "functions").iter().enumerate() {
            let row = row.as_object().unwrap_or_default();
            for (sum, v) in sums.iter_mut().zip(check(row, &format!("functions[{i}]"))?) {
                *sum = sum.saturating_add(v);
            }
        }
        for ((key, sum), total) in summed.iter().zip(sums).zip(totals) {
            if sum != total {
                return Err(format!("functions[].{key} sum to {sum}, totals.{key} is {total}"));
            }
        }
        Ok(())
    }
}

/// Records the report into a metrics registry as
/// `ignite_scope_*` families: per-component cycle counters labeled by
/// component and function, invocation/violation/alert counters, and
/// quantile gauges.
pub fn record_scope_metrics(reg: &mut MetricsRegistry, report: &ScopeReport) {
    for f in &report.functions {
        let t = &f.totals;
        let [components @ .., _latency] = t.cycles.fields();
        for (key, cycles) in components {
            let component = key.trim_end_matches("_cycles");
            // The chaos components only appear in the exposition when
            // they are nonzero, keeping chaos-free expositions
            // byte-identical to what they were before the failure model
            // existed.
            if cycles == 0 && matches!(component, "retry" | "degraded") {
                continue;
            }
            reg.inc_counter(
                "ignite_scope_component_cycles_total",
                "Attributed latency cycles by causal component",
                &[("component", component), ("function", f.abbr.as_str())],
                cycles,
            );
        }
        for (name, help, value) in [
            ("ignite_scope_invocations_total", "Invocations attributed by scope", t.invocations),
            (
                "ignite_scope_slo_violations_total",
                "Invocations over the SLO latency threshold",
                t.violations,
            ),
            ("ignite_scope_alert_fires_total", "Burn-rate alert fire transitions", t.alert_fires),
        ] {
            reg.inc_counter(name, help, &[("function", f.abbr.as_str())], value);
        }
    }
    let rows = report.functions.iter().map(|f| (f.abbr.as_str(), &f.totals));
    for (function, t) in rows.chain([("all", &report.totals)]) {
        reg.set_gauge(
            "ignite_scope_p99_latency_cycles",
            "Sketch 99th-percentile latency",
            &[("function", function)],
            t.latency.quantile(99) as f64,
        );
    }
}

/// Records the SLO alerting surface into the registry as `ignite_slo_*`
/// families: alert Fire/Resolve transition counters and the live
/// fast/slow burn-rate gauges per function (the same
/// [`crate::slo::SloTracker::current_burn`] values the policy
/// controller reads). Emits nothing when the analyzer has no SLO
/// configured, so SLO-free expositions stay byte-identical to
/// pre-alerting output.
pub fn record_slo_metrics<S: EventSink>(
    reg: &mut MetricsRegistry,
    analyzer: &ScopeAnalyzer<S>,
    abbrs: &[String],
) {
    let Some(cfg) = analyzer.slo().copied() else { return };
    for (&function, f) in analyzer.per_function() {
        let abbr = abbr(abbrs, function);
        let fl = [("function", abbr.as_str())];
        reg.inc_counter(
            "ignite_slo_alerts_fired_total",
            "Burn-rate alert Fire transitions",
            &fl,
            f.alert_fires,
        );
        reg.inc_counter(
            "ignite_slo_alerts_resolved_total",
            "Burn-rate alert Resolve transitions",
            &fl,
            f.alert_resolves,
        );
        let (fast, slow) =
            analyzer.trackers().get(&function).map(|t| t.current_burn(&cfg)).unwrap_or((0, 0));
        for (window, burn) in [("fast", fast), ("slow", slow)] {
            reg.set_gauge(
                "ignite_slo_burn_rate_milli",
                "Burn rate at end of run, in milli-units (1000 = sustainable)",
                &[("function", abbr.as_str()), ("window", window)],
                burn as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::ScopeAnalyzer;
    use ignite_obs::{Event, EventKind, NullSink, Track};

    /// The `Attribution` event of one completion at `ts`.
    fn attribution(ts: u64, function: u32, mut cycles: Attribution) -> Event {
        cycles.latency_cycles = cycles.component_sum();
        Event {
            ts,
            dur: 0,
            track: Track::Cluster,
            kind: EventKind::Attribution { function, cycles },
        }
    }

    /// A completion that spent all of `latency` executing.
    fn executing(latency: u64) -> Attribution {
        Attribution { execution_cycles: latency, ..Attribution::default() }
    }

    fn analyzer_with_traffic() -> ScopeAnalyzer<NullSink> {
        let mut an = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
        for i in 0u64..50 {
            let cycles = Attribution {
                queue_cycles: 13 * i,
                retry_cycles: if i % 5 == 0 { 700 } else { 0 },
                dram_cycles: 128 * i,
                cold_frontend_cycles: if i % 2 == 0 { 9_000 } else { 0 },
                store_miss_cycles: if i % 2 == 1 { 9_000 } else { 0 },
                degraded_cycles: if i % 7 == 0 { 300 } else { 0 },
                execution_cycles: 40_000 + 1_000 * i,
                latency_cycles: 0,
            };
            an.record(attribution(1_000 * (i + 1), (i % 3) as u32, cycles));
        }
        an
    }

    #[test]
    fn report_round_trips_through_validate() {
        let an = analyzer_with_traffic();
        let report = ScopeReport::from_analyzer(&an, &["aes".into(), "img".into()]);
        let text = report.to_json();
        ScopeReport::validate(&text).expect("valid report");
        // fn-2 had no abbr supplied.
        assert!(text.contains("\"fn-2\""));
        // Deterministic serialization.
        assert_eq!(text, report.to_json());
    }

    #[test]
    fn validate_rejects_broken_invariant() {
        let an = analyzer_with_traffic();
        let report = ScopeReport::from_analyzer(&an, &[]);
        let good = report.to_json();
        let bad = good.replacen("\"queue_cycles\": ", "\"queue_cycles\": 1", 1);
        assert!(ScopeReport::validate(&bad).is_err());
        assert!(ScopeReport::validate("{}").is_err());
        assert!(ScopeReport::validate("not json").is_err());
    }

    #[test]
    fn slo_families_appear_only_with_an_slo_and_are_byte_deterministic() {
        // No SLO configured: the families must be entirely absent.
        let mut plain = ScopeAnalyzer::new(NullSink);
        plain.record(attribution(1_000, 0, executing(10)));
        let mut reg = MetricsRegistry::new();
        record_slo_metrics(&mut reg, &plain, &[]);
        assert_eq!(reg.expose(), "", "SLO-free exposition must carry no ignite_slo_ family");

        // With a violating stream the transition counters and live burn
        // gauges appear, byte-identically across expositions.
        let an = || {
            let cfg = SloConfig {
                threshold_cycles: 100,
                objective_milli: 500,
                fast_window_cycles: 1_000,
                slow_window_cycles: 4_000,
                burn_milli: 2_000,
                min_count: 4,
            };
            let mut an = ScopeAnalyzer::new(NullSink).with_slo(cfg);
            for i in 0u64..12 {
                let lat = if i < 8 { 500 } else { 1 };
                an.record(attribution(100 * (i + 1), 0, executing(lat)));
            }
            an
        };
        let expose = |an: &ScopeAnalyzer<NullSink>| {
            let mut reg = MetricsRegistry::new();
            record_slo_metrics(&mut reg, an, &["aes".into()]);
            reg.expose()
        };
        let a = expose(&an());
        assert_eq!(a, expose(&an()), "exposition must be byte-deterministic");
        for needle in [
            "ignite_slo_alerts_fired_total{function=\"aes\"} 1",
            "ignite_slo_alerts_resolved_total{function=\"aes\"}",
            "ignite_slo_burn_rate_milli{function=\"aes\",window=\"fast\"}",
            "ignite_slo_burn_rate_milli{function=\"aes\",window=\"slow\"}",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn metrics_exposition_contains_every_component() {
        let an = analyzer_with_traffic();
        let report = ScopeReport::from_analyzer(&an, &[]);
        let mut reg = MetricsRegistry::new();
        record_scope_metrics(&mut reg, &report);
        let text = reg.expose();
        for needle in [
            "ignite_scope_component_cycles_total",
            "component=\"queue\"",
            "component=\"retry\"",
            "component=\"dram\"",
            "component=\"cold_frontend\"",
            "component=\"store_miss\"",
            "component=\"degraded\"",
            "component=\"execution\"",
            "ignite_scope_invocations_total",
            "ignite_scope_slo_violations_total",
            "ignite_scope_p99_latency_cycles",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
