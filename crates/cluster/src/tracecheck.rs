//! Validator for `ignite-trace-chrome-v1` trace files.
//!
//! Checks the Chrome trace-event export in [`ignite_obs::chrome`] key by
//! key. Unlike [`crate::report::ClusterReport::validate`], which reads a
//! report back into its types and compares it with the report written
//! back from them, it has no typed model: event shapes vary by phase.
//! It requires parseable JSON, the right schema tag in `otherData`, and
//! every event shaped the way Perfetto / `chrome://tracing` expect — a
//! known phase (`M`, `X` or `i`), numeric `ts`/`pid`/`tid`, and a `dur`
//! on complete events. On success it returns per-event-name counts,
//! which the integration tests use to assert that a cluster run
//! produced at least one event for every DES transition type.

use std::collections::BTreeMap;

use ignite_obs::CHROME_SCHEMA;

use crate::json::{self, Value};

/// What a valid trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Non-metadata events, keyed by event name.
    pub events_by_name: BTreeMap<String, u64>,
    /// Non-metadata events, keyed by category.
    pub events_by_category: BTreeMap<String, u64>,
    /// Events the bounded ring buffer dropped before export.
    pub dropped_events: u64,
}

impl TraceSummary {
    /// Total non-metadata events.
    pub fn total_events(&self) -> u64 {
        self.events_by_name.values().sum()
    }
}

fn require_u64(obj: &[(String, Value)], ctx: &str, key: &str) -> Result<f64, String> {
    json::get(obj, key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric '{key}'"))
}

/// Validates a Chrome trace-event document emitted by
/// [`ignite_obs::to_chrome_json`].
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text)?;
    let obj = doc.as_object().ok_or("trace is not an object")?;

    let other = json::get(obj, "otherData")
        .and_then(Value::as_object)
        .ok_or("missing object 'otherData'")?;
    let schema = json::get(other, "schema").and_then(Value::as_str);
    if schema != Some(CHROME_SCHEMA) {
        return Err(format!("schema {schema:?}, want {CHROME_SCHEMA:?}"));
    }
    let dropped_events = json::get(other, "dropped_events")
        .and_then(Value::as_str)
        .ok_or("otherData: missing 'dropped_events'")?
        .parse::<u64>()
        .map_err(|_| "otherData: 'dropped_events' is not an integer".to_string())?;
    if json::get(obj, "displayTimeUnit").and_then(Value::as_str).is_none() {
        return Err("missing string 'displayTimeUnit'".to_string());
    }

    let events = json::get(obj, "traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing array 'traceEvents'")?;
    if events.is_empty() {
        return Err("empty 'traceEvents' array".to_string());
    }

    let mut summary = TraceSummary { dropped_events, ..TraceSummary::default() };
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let eo = ev.as_object().ok_or_else(|| format!("{ctx} is not an object"))?;
        let name = json::get(eo, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string 'name'"))?;
        let ph = json::get(eo, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string 'ph'"))?;
        require_u64(eo, &ctx, "pid")?;
        require_u64(eo, &ctx, "tid")?;
        match ph {
            "M" => continue, // process/thread name metadata carries no ts
            "X" => {
                require_u64(eo, &ctx, "ts")?;
                require_u64(eo, &ctx, "dur")?;
            }
            "i" => {
                require_u64(eo, &ctx, "ts")?;
                if json::get(eo, "s").and_then(Value::as_str).is_none() {
                    return Err(format!("{ctx}: instant event missing scope 's'"));
                }
            }
            other => return Err(format!("{ctx}: unknown phase {other:?}")),
        }
        let cat = json::get(eo, "cat")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string 'cat'"))?;
        json::get(eo, "args")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{ctx}: missing object 'args'"))?;
        *summary.events_by_name.entry(name.to_string()).or_insert(0) += 1;
        *summary.events_by_category.entry(cat.to_string()).or_insert(0) += 1;
    }
    if summary.events_by_name.is_empty() {
        return Err("trace contains only metadata events".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use crate::sim::{ClusterConfig, ClusterSim};
    use ignite_obs::{to_chrome_json, ChromeOptions, TraceBuffer};
    use ignite_workloads::arrival::ArrivalConfig;

    fn trace_text() -> String {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 600_000, ..ArrivalConfig::default() },
            ..ClusterConfig::default()
        };
        let mut source = cfg.arrival.source();
        let mut buf = TraceBuffer::new(1 << 20);
        ClusterSim::new(cfg).run_source_policy_obs(&mut source, &mut buf, &mut StaticPolicy);
        to_chrome_json(&buf, &ChromeOptions { process_name: "ignite-cluster", function_names: &[] })
    }

    #[test]
    fn cluster_trace_validates_with_event_counts() {
        let summary = validate_trace(&trace_text()).expect("own trace must validate");
        assert_eq!(summary.dropped_events, 0);
        for name in ["arrival", "dispatch", "context-switch", "complete", "store-hit"] {
            assert!(
                summary.events_by_name.get(name).copied().unwrap_or(0) > 0,
                "no {name} events: {:?}",
                summary.events_by_name
            );
        }
        assert!(summary.total_events() > 0);
    }

    #[test]
    fn chaos_run_emits_chaos_category_events() {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 600_000, ..ArrivalConfig::default() },
            chaos: Some(ignite_chaos::ChaosPlan::default_preset().seeded(7)),
            ..ClusterConfig::default()
        };
        let mut source = cfg.arrival.source();
        let mut buf = TraceBuffer::new(1 << 20);
        ClusterSim::new(cfg).run_source_policy_obs(&mut source, &mut buf, &mut StaticPolicy);
        let text = to_chrome_json(
            &buf,
            &ChromeOptions { process_name: "ignite-cluster", function_names: &[] },
        );
        let summary = validate_trace(&text).expect("chaos trace must validate");
        assert!(
            summary.events_by_category.get("chaos").copied().unwrap_or(0) > 0,
            "no chaos-category events: {:?}",
            summary.events_by_category
        );
        // Chaos events live on their own track.
        assert!(text.contains("\"name\":\"chaos\""), "chaos thread name missing");
    }

    #[test]
    fn validate_rejects_wrong_schema_and_garbage() {
        let text = trace_text().replace(CHROME_SCHEMA, "ignite-trace-chrome-v0");
        assert!(validate_trace(&text).is_err());
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{}").is_err());
        assert!(validate_trace("{\"traceEvents\":[]}").is_err());
    }

    #[test]
    fn validate_rejects_malformed_events() {
        let good = trace_text();
        // Strip every ts field: complete/instant events become invalid.
        let no_ts = good.replace("\"ts\":", "\"_ts\":");
        assert!(validate_trace(&no_ts).is_err());
        let bad_ph = good.replace("\"ph\":\"i\"", "\"ph\":\"Q\"");
        assert!(validate_trace(&bad_ph).is_err());
    }
}
