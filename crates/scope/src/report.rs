//! The `ignite-scope-v1` report: serialization, validation, and
//! Prometheus exposition of an analyzer's aggregates.
//!
//! Each row's keys are listed once, in a field table that drives
//! [`ScopeReport::to_json`], [`ScopeReport::from_json`] and
//! [`record_scope_metrics`].

use ignite_cluster::json::{self, Field::*, Value, Walker};
use ignite_obs::{Attribution, EventSink, MetricsRegistry};

use crate::attribution::{ScopeAnalyzer, ScopeTotals};
use crate::slo::SloConfig;

/// Schema tag written into (and required of) every scope report.
pub const SCOPE_SCHEMA: &str = "ignite-scope-v1";

/// The keys of a row's latency quantiles.
const QUANTILES: [&str; 3] = ["p50_latency_cycles", "p95_latency_cycles", "p99_latency_cycles"];

/// One row of the report: a fold's sums and its latency sketch's
/// quantiles, from which the sketch cannot be rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScopeRow {
    /// Invocations attributed.
    pub invocations: u64,
    /// Summed attribution; the components still tile the latency.
    pub cycles: Attribution,
    /// The sketch's p50, p95 and p99 latency, in cycles.
    pub latency: [u64; 3],
    /// SLO violations (0 when no SLO is configured).
    pub violations: u64,
    /// Alert fire transitions.
    pub alert_fires: u64,
    /// Alert resolve transitions.
    pub alert_resolves: u64,
}

impl ScopeRow {
    /// The row of a fold.
    fn new(t: &ScopeTotals) -> Self {
        ScopeRow {
            invocations: t.invocations,
            cycles: t.cycles,
            latency: [50, 95, 99].map(|q| t.latency.quantile(q)),
            violations: t.violations,
            alert_fires: t.alert_fires,
            alert_resolves: t.alert_resolves,
        }
    }

    /// Every field as `(report key, value)`, in document order.
    fn fields(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
        let [p50, p95, p99] = &mut self.latency;
        let quantiles = QUANTILES.into_iter().zip([p50, p95, p99]);
        let alerts =
            [("alert_fires", &mut self.alert_fires), ("alert_resolves", &mut self.alert_resolves)];
        std::iter::once(("invocations", &mut self.invocations))
            .chain(self.cycles.fields_mut())
            .chain(quantiles)
            .chain(std::iter::once(("slo_violations", &mut self.violations)))
            .chain(alerts)
    }
}

/// Per-function rows of the report.
#[derive(Debug, Clone, Default)]
pub struct FunctionScope {
    /// Function index in suite order.
    pub function: u32,
    /// Table-1 abbreviation (or `fn-<i>` when unknown).
    pub abbr: String,
    /// The function's row.
    pub totals: ScopeRow,
}

/// Function `function`'s abbreviation from `abbrs` (suite order, as in
/// `ClusterOutcome::functions`), or `fn-<i>` past its end.
fn abbr(abbrs: &[String], function: u32) -> String {
    abbrs.get(function as usize).cloned().unwrap_or_else(|| format!("fn-{function}"))
}

/// The full report, ready to serialize.
#[derive(Debug, Clone)]
pub struct ScopeReport {
    /// SLO in force during the run, if any.
    pub slo: Option<SloConfig>,
    /// Cluster-wide totals: the merge of the function rows.
    pub totals: ScopeRow,
    /// Per-function rows, by function index.
    pub functions: Vec<FunctionScope>,
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
            let totals = ScopeRow::new(f);
            functions.push(FunctionScope { function, abbr: abbr(abbrs, function), totals });
        }
        let report =
            ScopeReport { slo: analyzer.slo().copied(), totals: ScopeRow::new(&totals), functions };
        debug_assert_eq!(report.check(), Ok(()));
        report
    }

    /// Serializes to deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.clone().write()
    }

    fn write(&mut self) -> String {
        let mut w = Walker::writer();
        self.walk(&mut w);
        w.finish()
    }

    /// Walks the report in document order. A reader has set the SLO the
    /// document holds, if any, beforehand.
    fn walk(&mut self, w: &mut Walker) {
        w.table([("schema", Tag(SCOPE_SCHEMA))]);
        match &mut self.slo {
            None => w.table([("slo", Null)]),
            Some(slo) => w.fields(
                "slo",
                [
                    ("threshold_cycles", Stored(&mut slo.threshold_cycles)),
                    ("objective_milli", Stored(&mut slo.objective_milli)),
                    ("fast_window_cycles", Stored(&mut slo.fast_window_cycles)),
                    ("slow_window_cycles", Stored(&mut slo.slow_window_cycles)),
                    ("burn_milli", Stored(&mut slo.burn_milli)),
                    ("min_count", Stored(&mut slo.min_count)),
                ],
            ),
        }
        w.fields("totals", self.totals.fields().map(|(k, v)| (k, Stored(v))));
        w.rows("functions", &mut self.functions, false, |w, _, f| {
            w.table([("function", Stored(&mut f.abbr)), ("index", Stored(&mut f.function))]);
            w.table(f.totals.fields().map(|(k, v)| (k, Stored(v))));
        });
    }

    /// Reads a report back into its types. The document must be the
    /// report written back from what was read ([`json::same_doc`]), so an
    /// error names the first key that is missing, of the wrong kind,
    /// unknown or out of order by its path, such as
    /// `report.totals: missing 'queue_cycles'`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(&json::parse(text)?)
    }

    /// [`ScopeReport::from_json`] of a parsed document.
    pub fn read(doc: &Value) -> Result<Self, String> {
        Self::read_checking(doc, |_| Ok(()))
    }

    /// Reads `doc` as [`ScopeReport::read`] does, running `check`
    /// between the comparisons of the shapes and of the values.
    fn read_checking(doc: &Value, check: fn(&Self) -> Result<(), String>) -> Result<Self, String> {
        let mut r = Walker::reader(doc);
        let slo = r.get("slo").and_then(Value::as_object).map(|_| SloConfig::default());
        let mut report = ScopeReport { slo, totals: ScopeRow::default(), functions: Vec::new() };
        report.walk(&mut r);
        let want = json::parse(&report.write())?;
        json::same_doc(doc, &want, "report", false)?;
        check(&report)?;
        json::same_doc(doc, &want, "report", true)?;
        Ok(report)
    }

    /// Checks the report's invariants on typed data: an SLO objective
    /// below 1000 milli; in the totals and in every row, seven components
    /// that sum exactly to the latency and p50 ≤ p95 ≤ p99; and a totals
    /// row that is the merge of the function rows, each of its summed
    /// keys (all but the quantiles) equal to its sum over the rows.
    pub fn check(&self) -> Result<(), String> {
        if let Some(objective) = self.slo.map(|slo| slo.objective_milli) {
            if objective >= 1000 {
                return Err(format!("slo: objective_milli {objective} is not below 1000"));
            }
        }
        let rows = self.functions.iter().map(|f| &f.totals);
        for (i, row) in std::iter::once(&self.totals).chain(rows).enumerate() {
            let ctx =
                || if i == 0 { "totals".to_string() } else { format!("functions[{}]", i - 1) };
            let [components @ .., (_, latency)] = row.cycles.fields();
            let sum: u128 = components.iter().map(|&(_, c)| u128::from(c)).sum();
            if sum != u128::from(latency) {
                return Err(format!("{}: components sum to {sum}, latency is {latency}", ctx()));
            }
            let [p50, p95, p99] = row.latency;
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!("{}: quantiles not ordered: {p50} {p95} {p99}", ctx()));
            }
        }
        let mut sums = [0u128; 15];
        for mut f in self.functions.iter().map(|f| f.totals) {
            for (sum, (_, v)) in sums.iter_mut().zip(f.fields()) {
                *sum += u128::from(*v);
            }
        }
        let mut totals = self.totals;
        for (sum, (key, total)) in sums.into_iter().zip(totals.fields()) {
            if sum != u128::from(*total) && !QUANTILES.contains(&key) {
                return Err(format!("functions[].{key} sum to {sum}, totals.{key} is {total}"));
            }
        }
        Ok(())
    }

    /// Validates serialized report text: [`ScopeReport::from_json`]
    /// reads it, with [`ScopeReport::check`] run once its shape is known
    /// good.
    pub fn validate(text: &str) -> Result<(), String> {
        Self::read_checking(&json::parse(text)?, Self::check).map(drop)
    }
}

/// Records the report into a metrics registry: a gauge for each of its
/// numbers, named `ignite_scope_` and the number's path, a function row's
/// under its `function` label ([`Walker::gauges`]).
pub fn record_scope_metrics(reg: &mut MetricsRegistry, report: &ScopeReport) {
    report.clone().walk(&mut Walker::gauges(reg, "scope", &[]));
}

/// Records the live fast/slow burn-rate gauges per function into the
/// registry as `ignite_slo_burn_rate_milli`: the same
/// [`crate::slo::SloTracker::current_burn`] values the policy controller
/// reads, which no report holds. Emits nothing when the analyzer has no
/// SLO configured, so SLO-free expositions carry no `ignite_slo_`
/// family.
pub fn record_slo_metrics<S: EventSink>(
    reg: &mut MetricsRegistry,
    analyzer: &ScopeAnalyzer<S>,
    abbrs: &[String],
) {
    let Some(cfg) = analyzer.slo().copied() else { return };
    for &function in analyzer.per_function().keys() {
        let abbr = abbr(abbrs, function);
        let (fast, slow) =
            analyzer.trackers().get(&function).map(|t| t.current_burn(&cfg)).unwrap_or((0, 0));
        for (window, burn) in [("fast", fast), ("slow", slow)] {
            reg.set_gauge(
                "ignite_slo_burn_rate_milli",
                "Burn rate at end of run, in milli-units (1000 = sustainable)",
                &[("function", abbr.as_str()), ("window", window)],
                burn,
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
            let abbrs = ["aes".into()];
            let mut reg = MetricsRegistry::new();
            record_scope_metrics(&mut reg, &ScopeReport::from_analyzer(an, &abbrs));
            record_slo_metrics(&mut reg, an, &abbrs);
            reg.expose()
        };
        let a = expose(&an());
        assert_eq!(a, expose(&an()), "exposition must be byte-deterministic");
        for needle in [
            "ignite_scope_functions_alert_fires{function=\"aes\"} 1",
            "ignite_scope_functions_alert_resolves{function=\"aes\"}",
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
            "ignite_scope_functions_latency_cycles{",
            "ignite_scope_functions_queue_cycles{",
            "ignite_scope_functions_retry_cycles{",
            "ignite_scope_functions_dram_cycles{",
            "ignite_scope_functions_cold_frontend_cycles{",
            "ignite_scope_functions_store_miss_cycles{",
            "ignite_scope_functions_degraded_cycles{",
            "ignite_scope_functions_execution_cycles{",
            "ignite_scope_functions_invocations{",
            "ignite_scope_functions_slo_violations{",
            "ignite_scope_functions_p99_latency_cycles{",
            "ignite_scope_totals_p99_latency_cycles ",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
