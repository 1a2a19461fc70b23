//! The versioned cluster report (`ignite-cluster-v1`).
//!
//! One JSON document per run: the configuration, cluster-wide totals,
//! per-core utilization, node-store counters, aggregate replay statistics
//! (including every degradation counter), and a per-function breakdown
//! with p50/p95/p99 latency. Serialization is byte-deterministic — fixed
//! key order, integers for cycle counts, shortest round-trip formatting
//! for floats — so two same-seed runs, in different processes, produce
//! identical bytes (the golden tests rely on this).
//!
//! [`ClusterReport::to_json`] is the only definition of the schema:
//! [`ClusterReport::validate`] checks a document against what `to_json`
//! writes for the same optional sections and row counts.

use ignite_chaos::{ChaosPlan, ChaosStats};
use ignite_core::ReplayStats;
use ignite_obs::CtrlRule;

use crate::json::{self, Value};
use crate::keepalive::KeepAliveKind;
use crate::policy::{ControllerStats, Decision};
use crate::sched::SchedulerKind;
use crate::sim::{ClusterConfig, ClusterOutcome, CoreUsage, FunctionSummary, NodeUsage, Topology};

/// Schema tag written into (and required of) every chaos-free report.
pub const CLUSTER_SCHEMA: &str = "ignite-cluster-v1";

/// Schema tag for reports of runs with failure injection enabled. The
/// v2 document is a strict superset of v1: a `chaos` section (the
/// failure plan, the retry policy, and every chaos counter) plus
/// per-function `retries`/`degraded`/`dropped` keys. The validator
/// enforces the invocation conservation law on v2 documents and rejects
/// chaos content under the v1 tag.
pub const CLUSTER_SCHEMA_V2: &str = "ignite-cluster-v2";

/// Observability health for a traced run: how much of the timeline the
/// bounded ring buffer kept. A nonzero `trace_dropped` means the
/// exported trace is truncated — surfaced here (and in the metrics
/// exposition) so truncation is detectable instead of silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Events retained in the trace buffer at end of run.
    pub trace_events: u64,
    /// Events the ring buffer evicted under pressure.
    pub trace_dropped: u64,
}

/// A run's configuration and outcome, ready to serialize.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The configuration the run used.
    pub config: ClusterConfig,
    /// What happened.
    pub outcome: ClusterOutcome,
    /// Trace-buffer health, present only for traced runs. `None` (the
    /// untraced default) serializes no `obs` section at all, keeping
    /// untraced reports — including the golden snapshot — byte-identical
    /// to pre-observability output.
    pub obs: Option<ObsSummary>,
}

fn write_replay(w: &mut json::Writer, replay: &ReplayStats, unfinished: u64) {
    w.object("replay");
    w.field("entries_restored", replay.entries_restored);
    w.field("bim_initialized", replay.bim_initialized);
    w.field("l2_prefetches", replay.l2_prefetches);
    w.field("itlb_warmed", replay.itlb_warmed);
    w.field("metadata_bytes", replay.metadata_bytes);
    w.field("throttled_steps", replay.throttled_steps);
    w.field("decode_errors", replay.decode_errors);
    w.field("entries_dropped", replay.entries_dropped);
    w.field("stale_restored", replay.stale_restored);
    w.field("watchdog_abandons", replay.watchdog_abandons);
    w.field("replay_unfinished", unfinished);
    w.close();
}

impl ClusterReport {
    /// Pairs a configuration with its outcome.
    pub fn new(config: ClusterConfig, outcome: ClusterOutcome) -> Self {
        ClusterReport { config, outcome, obs: None }
    }

    /// Attaches trace-buffer health (traced runs only).
    pub fn with_obs(mut self, obs: ObsSummary) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The schema tag this report serializes under: v2 when the run had
    /// failure injection, v1 (byte-identical to pre-chaos output)
    /// otherwise.
    pub fn schema(&self) -> &'static str {
        if self.outcome.chaos.is_some() {
            CLUSTER_SCHEMA_V2
        } else {
            CLUSTER_SCHEMA
        }
    }

    /// Serializes the report.
    ///
    /// Multi-node runs (any non-default [`crate::sim::Topology`]) add a
    /// `nodes`/`scheduler`/`keepalive` trio to `config`, a top-level
    /// `nodes` array, a totals `wasted_keepalive_cycles`, and
    /// per-function cold-start accounting — all under the same schema
    /// tag. A default topology emits none of them, keeping single-node
    /// reports byte-identical to pre-multinode output.
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let out = &self.outcome;
        let total = out.total_result();
        let multi = !cfg.topology.is_default();
        let mut w = json::Writer::default();
        w.field("schema", json::escape(self.schema()));
        w.object("config");
        w.field("cores", cfg.cores);
        if multi {
            w.field("nodes", cfg.topology.nodes);
            w.field("scheduler", json::escape(&cfg.topology.scheduler.spec()));
            w.field("keepalive", json::escape(&cfg.topology.keepalive.spec()));
        }
        w.field("fe", json::escape(&cfg.fe.name));
        w.float("scale", cfg.scale);
        w.field("seed", cfg.arrival.seed);
        w.field("functions", cfg.arrival.functions);
        w.float("rate_per_mcycle", cfg.arrival.rate_per_mcycle);
        w.float("zipf_s", cfg.arrival.zipf_s);
        w.field("horizon_cycles", cfg.arrival.horizon_cycles);
        if let Some(spec) = &cfg.traffic {
            w.field("traffic", json::escape(spec));
        }
        if let Some(spec) = &cfg.controller {
            w.field("controller", json::escape(spec));
        }
        w.field("store_capacity_bytes", cfg.store.capacity_bytes);
        w.field("store_policy", json::escape(cfg.store.policy.name()));
        w.field("store_pinned_hot", cfg.store.pinned_hot);
        w.float("distance_saturation", cfg.distance_saturation);
        w.float("dram_bytes_per_cycle", cfg.dram_bytes_per_cycle);
        w.close();
        w.object("totals");
        w.field("invocations", out.invocations);
        w.field("makespan_cycles", out.makespan);
        w.field("instructions", total.instructions);
        w.field("cycles", total.cycles);
        w.float("mean_latency_cycles", out.mean_latency);
        w.field("p50_latency_cycles", out.p50_latency);
        w.field("p95_latency_cycles", out.p95_latency);
        w.field("p99_latency_cycles", out.p99_latency);
        w.float("mean_utilization", out.mean_utilization());
        if multi {
            w.field("wasted_keepalive_cycles", out.wasted_keepalive_cycles());
        }
        w.close();
        w.array("cores");
        for (i, c) in out.cores.iter().enumerate() {
            w.inline_row();
            w.field("core", i);
            w.field("invocations", c.invocations);
            w.field("busy_cycles", c.busy_cycles);
            w.float("utilization", c.utilization);
            w.close();
        }
        w.close();
        if multi {
            w.array("nodes");
            for (i, nd) in out.nodes.iter().enumerate() {
                w.row();
                w.field("node", i);
                w.field("submitted", nd.submitted);
                w.field("completed", nd.completed);
                w.field("dropped", nd.dropped);
                w.field("queue_peak", nd.queue_peak);
                w.field("busy_cycles", nd.busy_cycles);
                w.float("utilization", nd.utilization);
                w.field("wasted_keepalive_cycles", nd.wasted_keepalive_cycles);
                w.object("store");
                w.field("hits", nd.store.hits);
                w.field("misses", nd.store.misses);
                w.float("hit_rate", nd.store.hit_rate());
                w.field("footprint_bytes", nd.footprint_bytes);
                w.field("peak_footprint_bytes", nd.peak_footprint_bytes);
                w.close();
                w.close();
            }
            w.close();
        }
        let st = &out.store;
        w.object("store");
        w.field("hits", st.hits);
        w.field("misses", st.misses);
        w.float("hit_rate", st.hit_rate());
        w.field("insertions", st.insertions);
        w.field("evictions", st.evictions);
        w.field("rejected", st.rejected);
        w.field("bytes_read", st.bytes_read);
        w.field("bytes_written", st.bytes_written);
        w.field("bytes_evicted", st.bytes_evicted);
        w.field("footprint_bytes", out.footprint_bytes);
        w.field("peak_footprint_bytes", out.peak_footprint_bytes);
        w.close();
        write_replay(&mut w, &total.replay, total.replay_unfinished);
        // Workload fingerprint: present exactly when a `--traffic` spec
        // drove the run. Default Poisson/Zipf runs emit nothing here, so
        // pre-traffic reports stay byte-identical.
        if cfg.traffic.is_some() {
            let wl = &out.workload;
            w.object("workload");
            w.field("schema", json::escape(ignite_traffic::WORKLOAD_SCHEMA));
            w.field("arrivals", wl.arrivals);
            w.field("functions", wl.functions);
            w.field("horizon_cycles", wl.horizon_cycles);
            w.float("rate_per_mcycle", wl.rate_per_mcycle);
            w.float("interarrival_cv2", wl.interarrival_cv2);
            w.float("zipf_s_hat", wl.zipf_s_hat);
            w.float("top1_share", wl.top1_share);
            w.float("top5_share", wl.top5_share);
            w.close();
        }
        if let Some(ch) = &out.chaos {
            let plan = cfg.chaos.as_ref().expect("chaos stats imply a chaos plan");
            let rp = &cfg.retry;
            w.object("chaos");
            w.object("plan");
            w.field("seed", plan.seed);
            w.field("crash_mtbf_cycles", plan.crash_mtbf_cycles);
            w.field("crash_repair_cycles", plan.crash_repair_cycles);
            w.field("straggle_mtbf_cycles", plan.straggle_mtbf_cycles);
            w.field("straggle_duration_cycles", plan.straggle_duration_cycles);
            w.field("straggle_factor_milli", plan.straggle_factor_milli);
            w.field("store_unavail_mtbf_cycles", plan.store_unavail_mtbf_cycles);
            w.field("store_unavail_duration_cycles", plan.store_unavail_duration_cycles);
            w.field("corrupt_ppm", plan.store_fault.bit_flip_ppm);
            w.field("loss_ppm", plan.store_fault.loss_ppm);
            w.field("dispatch_drop_ppm", plan.dispatch_drop_ppm);
            w.close();
            w.object("retry");
            w.field("max_attempts", rp.max_attempts);
            w.field("backoff_base_cycles", rp.backoff_base_cycles);
            w.field("backoff_mult_milli", rp.backoff_mult_milli);
            w.field("backoff_max_cycles", rp.backoff_max_cycles);
            w.field("jitter_ppm", rp.jitter_ppm);
            w.field("deadline_cycles", rp.deadline_cycles);
            w.field("breaker_threshold", rp.breaker_threshold);
            w.field("breaker_cooldown_cycles", rp.breaker_cooldown_cycles);
            w.close();
            w.field("submitted", ch.submitted);
            w.field("completed", ch.completed);
            w.field("retried_to_success", ch.retried_to_success);
            w.field("attempts_failed", ch.attempts_failed);
            w.field("crash_kills", ch.crash_kills);
            w.field("dispatch_drops", ch.dispatch_drops);
            w.field("dropped_deadline", ch.dropped_deadline);
            w.field("dropped_retries_exhausted", ch.dropped_retries_exhausted);
            w.field("degraded_unavailable", ch.degraded_unavailable);
            w.field("degraded_corrupt", ch.degraded_corrupt);
            w.field("degraded_loss", ch.degraded_loss);
            w.field("degraded_breaker", ch.degraded_breaker);
            w.field("straggled", ch.straggled);
            w.field("writeback_skipped", ch.writeback_skipped);
            w.field("store_regions_dropped", ch.store_regions_dropped);
            w.field("breaker_opens", ch.breaker_opens);
            w.field("breaker_closes", ch.breaker_closes);
            w.field("retry_cycles", ch.retry_cycles);
            w.field("backoff_cycles", ch.backoff_cycles);
            w.close();
        }
        if let Some(obs) = &self.obs {
            w.object("obs");
            w.field("trace_events", obs.trace_events);
            w.field("trace_dropped", obs.trace_dropped);
            w.close();
        }
        // The controller section — the decision audit trail — exists
        // only for controller-on runs, so every controller-off report
        // stays byte-identical to its golden.
        if let Some(ctrl) = &out.controller {
            w.object("controller");
            w.field("epochs", ctrl.epochs);
            w.field("samples", ctrl.samples);
            w.field("replay_denied", ctrl.replay_denied);
            w.field("store_denied", ctrl.store_denied);
            w.field("final_active_cores", ctrl.final_active_cores);
            w.object("fires");
            for rule in CtrlRule::ALL {
                w.field(rule.key(), ctrl.fires(rule));
            }
            w.close();
            w.array("decisions");
            for d in &ctrl.decisions {
                w.inline_row();
                w.field("at", d.at);
                w.field("epoch", d.epoch);
                w.field("rule", json::escape(d.rule.key()));
                // A cluster-wide decision has no target function: -1.
                let function = if d.function == u32::MAX { -1 } else { i64::from(d.function) };
                w.field("function", function);
                w.field("value", d.value);
                w.field("observed", d.observed);
                w.field("threshold", d.threshold);
                w.close();
            }
            w.close();
            w.close();
        }
        w.array("functions");
        for f in &out.functions {
            w.row();
            w.field("function", json::escape(&f.abbr));
            w.field("invocations", f.invocations);
            w.field("p50_latency_cycles", f.p50_latency);
            w.field("p95_latency_cycles", f.p95_latency);
            w.field("p99_latency_cycles", f.p99_latency);
            w.float("mean_service_cycles", f.mean_service);
            w.float("mean_queue_cycles", f.mean_queue);
            w.float("mean_cold_fraction", f.mean_cold_fraction);
            w.field("metadata_hits", f.metadata_hits);
            w.field("metadata_misses", f.metadata_misses);
            w.float("metadata_hit_rate", f.metadata_hit_rate());
            if multi {
                w.field("cold_starts", f.cold_starts);
                w.field("lukewarm_starts", f.lukewarm_starts);
                w.field("warm_starts", f.warm_starts);
                w.field("min_service_cycles", f.min_service);
                w.float("slowdown", f.slowdown());
                w.field("wasted_keepalive_cycles", f.wasted_keepalive_cycles);
            }
            if out.chaos.is_some() {
                w.field("retries", f.retries);
                w.field("degraded", f.degraded);
                w.field("dropped", f.dropped);
            }
            w.float("cpi", f.result.cpi());
            w.float("l1i_mpki", f.result.l1i_mpki());
            w.float("btb_mpki", f.result.btb_mpki());
            write_replay(&mut w, &f.result.replay, f.result.replay_unfinished);
            w.close();
        }
        w.close();
        w.finish()
    }

    /// Validates that `text` is an `ignite-cluster-v1` or `-v2` report: it
    /// has the shape [`ClusterReport::to_json`] writes for the same optional
    /// sections and row counts ([`json::same_shape`]), with the v2 tag
    /// going with a `chaos` section and a config `nodes`, `traffic` or
    /// `controller` key with its own section. Past the shape: the node
    /// count matches the `nodes` array, the scheduler and keep-alive specs
    /// parse, `cores` and `functions` are non-empty, nodes are labeled by
    /// position, invocations are conserved on every node and in the chaos
    /// ledger, the fingerprint has its schema tag and sane statistics
    /// (shares in `[0, 1]`, `top1 <= top5`, CV² >= 0), and the fire
    /// counters agree with the decision log. Across rows: p50 ≤ p95 ≤ p99
    /// in the totals and in every function row; the totals' invocations
    /// equal the sum over the functions, over the cores and, when present,
    /// over the nodes' completions and the chaos ledger's `completed`; the
    /// store's hits and misses equal the sums of the functions' metadata
    /// hits and misses; and, when nodes are present, the store's hits,
    /// misses, footprint and peak footprint equal their sums over the
    /// nodes' stores.
    pub fn validate(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let obj = doc.as_object().ok_or("report is not an object")?;
        let schema = json::get(obj, "schema").and_then(Value::as_str);
        let v2 = schema == Some(CLUSTER_SCHEMA_V2);
        if !v2 && schema != Some(CLUSTER_SCHEMA) {
            let want = [CLUSTER_SCHEMA, CLUSTER_SCHEMA_V2];
            return Err(format!("schema {schema:?}, want one of {want:?}"));
        }
        let config = json::get_object(obj, "config");
        let paired = |key: &str, section: &str| match (
            json::get(config, key).is_some(),
            json::get(obj, section).is_some(),
        ) {
            (true, false) => Err(format!("config '{key}' requires a '{section}' section")),
            (false, true) => Err(format!("'{section}' section requires a config '{key}' key")),
            (both, _) => Ok(both),
        };
        let multi = paired("nodes", "nodes")?;
        let traffic = paired("traffic", "workload")?;
        let controlled = paired("controller", "controller")?;
        // The skeleton is sized from the document's arrays, never from a
        // number in it: the node count must match the array first.
        let nodes = json::get_array(obj, "nodes");
        let topology = if multi {
            let n = json::get(config, "nodes").and_then(Value::as_f64);
            let n = n.ok_or("report.config.nodes: expected a number")?;
            if n != nodes.len() as f64 {
                return Err(format!("'nodes' array has {} entries, config says {n}", nodes.len()));
            }
            let spec = |key| json::get(config, key).and_then(Value::as_str).unwrap_or_default();
            let bad = |e| format!("config: {e}");
            Topology {
                nodes: nodes.len(),
                scheduler: SchedulerKind::parse(spec("scheduler")).map_err(bad)?,
                keepalive: KeepAliveKind::parse(spec("keepalive")).map_err(bad)?,
            }
        } else {
            Topology::default()
        };
        // The decision log's rules, for the fire counters to agree with.
        let controller = json::get_object(obj, "controller");
        let mut log = Vec::new();
        for (i, d) in json::get_array(controller, "decisions").iter().enumerate() {
            let key = d.as_object().and_then(|o| json::get(o, "rule")).and_then(Value::as_str);
            let key = key.unwrap_or_default();
            let rule = CtrlRule::ALL.into_iter().find(|r| r.key() == key);
            let rule =
                rule.ok_or_else(|| format!("controller.decisions[{i}]: unknown rule {key:?}"))?;
            log.push(Decision {
                at: 0,
                epoch: 0,
                rule,
                function: 0,
                value: 0,
                observed: 0,
                threshold: 0,
            });
        }
        let rows = |key: &str| json::get_array(obj, key).len();
        let skeleton = ClusterReport {
            config: ClusterConfig {
                topology,
                chaos: v2.then(ChaosPlan::default),
                traffic: traffic.then(String::new),
                controller: controlled.then(String::new),
                ..ClusterConfig::default()
            },
            outcome: ClusterOutcome {
                cores: vec![CoreUsage::default(); rows("cores")],
                nodes: vec![NodeUsage::default(); nodes.len()],
                functions: vec![FunctionSummary::default(); rows("functions")],
                chaos: v2.then(ChaosStats::default),
                controller: controlled
                    .then(|| ControllerStats { decisions: log, ..Default::default() }),
                ..ClusterOutcome::default()
            },
            obs: json::get(obj, "obs").map(|_| ObsSummary::default()),
        };
        json::same_shape(&doc, &json::parse(&skeleton.to_json())?, "report")?;

        for key in ["cores", "functions"] {
            if rows(key) == 0 {
                return Err(format!("empty '{key}' array"));
            }
        }
        let totals = json::get_object(obj, "totals");
        let ordered = |row: &[(String, Value)], ctx: &str| -> Result<(), String> {
            let n = |key| json::get_count(row, ctx, key);
            let (p50, p95, p99) =
                (n("p50_latency_cycles")?, n("p95_latency_cycles")?, n("p99_latency_cycles")?);
            if p50 <= p95 && p95 <= p99 {
                return Ok(());
            }
            Err(format!(
                "{ctx}: quantiles not ordered: p50_latency_cycles {p50}, \
                 p95_latency_cycles {p95}, p99_latency_cycles {p99}"
            ))
        };
        ordered(totals, "totals")?;
        for (i, row) in json::get_array(obj, "functions").iter().enumerate() {
            ordered(row.as_object().unwrap_or_default(), &format!("functions[{i}]"))?;
        }
        // Every completion is counted once in each breakdown, and every
        // store access once per function and, on a multi-node run, once
        // per node. Each check sums a column of an array (a dotted column
        // reads the row's sub-object) and compares it with a total.
        let invocations = json::get_count(totals, "totals", "invocations")?;
        let store = |key| json::get_count(json::get_object(obj, "store"), "store", key);
        let (hits, misses) = (store("hits")?, store("misses")?);
        let (footprint, peak) = (store("footprint_bytes")?, store("peak_footprint_bytes")?);
        let sums = [
            ("functions", "invocations", "totals.invocations", invocations),
            ("cores", "invocations", "totals.invocations", invocations),
            ("nodes", "completed", "totals.invocations", invocations),
            ("functions", "metadata_hits", "store.hits", hits),
            ("functions", "metadata_misses", "store.misses", misses),
            ("nodes", "store.hits", "store.hits", hits),
            ("nodes", "store.misses", "store.misses", misses),
            ("nodes", "store.footprint_bytes", "store.footprint_bytes", footprint),
            ("nodes", "store.peak_footprint_bytes", "store.peak_footprint_bytes", peak),
        ];
        for (key, column, total_key, total) in sums {
            let rows = json::get_array(obj, key);
            if rows.is_empty() {
                continue;
            }
            let (section, count) = column.rsplit_once('.').unwrap_or(("", column));
            let mut sum = 0u64;
            for (i, row) in rows.iter().enumerate() {
                let (mut row, mut ctx) =
                    (row.as_object().unwrap_or_default(), format!("{key}[{i}]"));
                if !section.is_empty() {
                    row = json::get_object(row, section);
                    ctx = format!("{ctx}.{section}");
                }
                sum = sum.saturating_add(json::get_count(row, &ctx, count)?);
            }
            if sum != total {
                return Err(format!("{key}[].{column} sum to {sum}, {total_key} is {total}"));
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            let ctx = format!("nodes[{i}]");
            let n = |key| json::get_count(node.as_object().unwrap_or_default(), &ctx, key);
            if n("node")? != i as u64 {
                return Err(format!("{ctx} is labeled node {}", n("node")?));
            }
            let usage = NodeUsage {
                submitted: n("submitted")?,
                completed: n("completed")?,
                dropped: n("dropped")?,
                ..NodeUsage::default()
            };
            if !usage.conserved() {
                return Err(format!(
                    "{ctx}: conservation violated: submitted {} != completed {} + dropped {}",
                    usage.submitted, usage.completed, usage.dropped
                ));
            }
        }
        if traffic {
            let wl = json::get_object(obj, "workload");
            let tag = json::get(wl, "schema").and_then(Value::as_str);
            if tag != Some(ignite_traffic::WORKLOAD_SCHEMA) {
                let want = ignite_traffic::WORKLOAD_SCHEMA;
                return Err(format!("workload: schema {tag:?}, want {want:?}"));
            }
            let n = |k: &str| json::get(wl, k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let (top1, top5, cv2) = (n("top1_share"), n("top5_share"), n("interarrival_cv2"));
            for (k, v) in [("top1_share", top1), ("top5_share", top5)] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("workload: '{k}' {v} outside [0, 1]"));
                }
            }
            if top1 > top5 {
                return Err(format!("workload: top1_share {top1} exceeds top5_share {top5}"));
            }
            if cv2.is_nan() || cv2 < 0.0 {
                return Err(format!("workload: negative interarrival_cv2 {cv2}"));
            }
        }
        if v2 {
            let n = |key| json::get_count(json::get_object(obj, "chaos"), "chaos", key);
            let stats = ChaosStats {
                submitted: n("submitted")?,
                completed: n("completed")?,
                dropped_deadline: n("dropped_deadline")?,
                dropped_retries_exhausted: n("dropped_retries_exhausted")?,
                ..ChaosStats::default()
            };
            if !stats.conserved() {
                return Err(format!(
                    "chaos: conservation violated: submitted {} != completed+dropped {}",
                    stats.submitted,
                    stats.completed + stats.dropped_total()
                ));
            }
            if stats.completed != invocations {
                return Err(format!(
                    "chaos.completed is {}, totals.invocations is {invocations}",
                    stats.completed
                ));
            }
        }
        if let Some(log) = &skeleton.outcome.controller {
            let fires = json::get_object(controller, "fires");
            for rule in CtrlRule::ALL {
                let n = json::get_count(fires, "controller.fires", rule.key())?;
                if n != log.fires(rule) {
                    return Err(format!(
                        "controller: fires['{}'] is {n} but the decision log has {}",
                        rule.key(),
                        log.fires(rule)
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use ignite_workloads::arrival::ArrivalConfig;

    fn report() -> ClusterReport {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            ..ClusterConfig::default()
        };
        let outcome = ClusterSim::new(cfg.clone()).run();
        ClusterReport::new(cfg, outcome)
    }

    #[test]
    fn emitted_report_validates() {
        let text = report().to_json();
        ClusterReport::validate(&text).expect("own report must be schema-valid");
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        let r = report();
        assert_eq!(r.to_json(), r.to_json());
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let text = report().to_json().replace(CLUSTER_SCHEMA, "ignite-cluster-v0");
        assert!(ClusterReport::validate(&text).is_err());
    }

    #[test]
    fn validate_rejects_missing_section() {
        let text = report().to_json().replace("\"p95_latency_cycles\"", "\"q95\"");
        assert!(ClusterReport::validate(&text).is_err());
    }

    #[test]
    fn controller_section_appears_only_for_controller_runs_and_validates() {
        let plain = report().to_json();
        assert!(!plain.contains("\"controller\""), "plain reports must carry no controller keys");

        let mut r = report();
        r.config.controller = Some("epoch=50000,slo=400000".to_string());
        let d = |rule, function, value| crate::policy::Decision {
            at: 50_000,
            epoch: 0,
            rule,
            function,
            value,
            observed: 10,
            threshold: 5,
        };
        r.outcome.controller = Some(crate::policy::ControllerStats {
            epochs: 12,
            decisions: vec![
                d(ignite_obs::CtrlRule::ReplayOff, 3, 0),
                d(ignite_obs::CtrlRule::CoresDown, u32::MAX, 1),
            ],
            samples: 600,
            replay_denied: 40,
            store_denied: 2,
            final_active_cores: 1,
        });
        let text = r.to_json();
        assert!(text.contains("\"controller\": \"epoch=50000,slo=400000\""));
        assert!(text.contains("\"replay_off\": 1"));
        assert!(text.contains("\"keepalive_retune\": 0"));
        assert!(text.contains("\"rule\": \"cores_down\", \"function\": -1"));
        ClusterReport::validate(&text).expect("controller report must self-validate");

        // Pairing both ways.
        let bad = text.replacen("    \"controller\": \"epoch=50000,slo=400000\",\n", "", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("'controller'"));
        let start = text.find("  \"controller\": {").unwrap();
        let end = text[start..].find("\n  },\n").unwrap() + start + 6;
        let bad = format!("{}{}", &text[..start], &text[end..]);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("'controller'"));
        // A fire counter disagreeing with the decision log.
        let bad = text.replacen("\"replay_off\": 1", "\"replay_off\": 2", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("fires"));
        // A decision whose rule no counter accounts for.
        let bad = text.replacen("\"rule\": \"replay_off\"", "\"rule\": \"replay_offf\"", 1);
        assert!(ClusterReport::validate(&bad).is_err());
    }

    #[test]
    fn non_finite_config_floats_serialize_as_zero() {
        let mut r = report();
        r.config.arrival.zipf_s = f64::NAN;
        r.config.dram_bytes_per_cycle = f64::INFINITY;
        let text = r.to_json();
        // Regression: these used to serialize as `null`, which the
        // report's own validator rejects (every numeric field must be a
        // scalar).
        assert!(!text.contains("null"), "non-finite floats must not serialize as null");
        assert!(!text.contains("NaN"));
        ClusterReport::validate(&text).expect("report with pinned zeros must validate");
        assert!(text.contains("\"zipf_s\": 0,"));
        assert!(text.contains("\"dram_bytes_per_cycle\": 0\n"));
    }

    #[test]
    fn zero_arrival_functions_emit_finite_zeros() {
        // A short, heavily skewed arrival process starves the suite tail:
        // at least one function must complete zero invocations, and its
        // ratio fields (hit rate, CPI, means) must come out as 0.
        let cfg = ClusterConfig {
            arrival: ArrivalConfig {
                horizon_cycles: 300_000,
                zipf_s: 2.5,
                ..ArrivalConfig::default()
            },
            ..ClusterConfig::default()
        };
        let outcome = ClusterSim::new(cfg.clone()).run();
        assert!(
            outcome.functions.iter().any(|f| f.invocations == 0),
            "config must starve at least one function"
        );
        let text = ClusterReport::new(cfg, outcome).to_json();
        assert!(!text.contains("null"));
        ClusterReport::validate(&text).expect("starved functions must still validate");
    }

    /// Drops every line of `text` that contains any of `needles`.
    fn without_lines(text: &str, needles: &[&str]) -> String {
        let kept = text.lines().filter(|l| !needles.iter().any(|n| l.contains(n)));
        kept.map(|l| format!("{l}\n")).collect()
    }

    /// Four malformed reports that a hand-kept list of required keys let
    /// through: a string where a number belongs, a missing replay
    /// counter, a missing config key with every `cpi` gone, and an
    /// unknown config key.
    #[test]
    fn validate_rejects_reports_missing_or_mistyping_any_key() {
        let good = report().to_json();
        let cases = [
            (
                good.replacen("\"cores\": 4,", "\"cores\": \"four\",", 1),
                "report.config.cores: expected a number, found a string",
            ),
            (
                without_lines(&good, &["bim_initialized"]),
                "report.replay: missing 'bim_initialized'",
            ),
            (
                without_lines(&good, &["store_pinned_hot", "\"cpi\""]),
                "report.config: missing 'store_pinned_hot'",
            ),
            (
                good.replacen("\"config\": {", "\"config\": {\n    \"bogus\": 1,", 1),
                "report.config: unexpected key 'bogus'",
            ),
        ];
        for (text, want) in cases {
            assert_eq!(ClusterReport::validate(&text), Err(want.to_string()));
        }
    }

    #[test]
    fn validate_rejects_unknown_keys_anywhere() {
        let good = report().to_json();
        let top = good.replacen("{\n", "{\n  \"bogus\": 1,\n", 1);
        assert_eq!(ClusterReport::validate(&top), Err("report: unexpected key 'bogus'".into()));
        let row = good.replacen("\"cpi\":", "\"bogus\": 1,\n      \"cpi\":", 1);
        let err = ClusterReport::validate(&row).unwrap_err();
        assert_eq!(err, "report.functions[0]: unexpected key 'bogus'");
    }

    /// The skeleton is sized from the document's arrays: a node count
    /// that disagrees with the array, however large, is an error before
    /// anything is built from it.
    #[test]
    fn node_counts_past_the_array_are_rejected_before_sizing() {
        let good = multinode_report().to_json();
        for count in ["1e300", "4", "18446744073709551616"] {
            let bad = good.replacen("\"nodes\": 3", &format!("\"nodes\": {count}"), 1);
            let err = ClusterReport::validate(&bad).unwrap_err();
            assert!(err.starts_with("'nodes' array has 3 entries, config says"), "{err}");
        }
    }

    #[test]
    fn empty_reports_are_rejected() {
        // A zero-valued report has the emitter's shape but no rows.
        let empty = ClusterReport::new(ClusterConfig::default(), ClusterOutcome::default());
        assert_eq!(ClusterReport::validate(&empty.to_json()), Err("empty 'cores' array".into()));
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(ClusterReport::validate("not json").is_err());
        assert!(ClusterReport::validate("{}").is_err());
    }

    fn chaos_report() -> ClusterReport {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            chaos: Some(ignite_chaos::ChaosPlan::default_preset().seeded(7)),
            ..ClusterConfig::default()
        };
        let outcome = ClusterSim::new(cfg.clone()).run();
        ClusterReport::new(cfg, outcome)
    }

    #[test]
    fn chaos_report_is_v2_and_validates() {
        let r = chaos_report();
        assert_eq!(r.schema(), CLUSTER_SCHEMA_V2);
        let text = r.to_json();
        assert!(text.contains("\"schema\": \"ignite-cluster-v2\""));
        assert!(text.contains("\"chaos\": {"));
        assert!(text.contains("\"retries\": "));
        ClusterReport::validate(&text).expect("chaos report must self-validate");
    }

    #[test]
    fn validate_enforces_conservation_and_tag_pairing() {
        let mut r = chaos_report();
        let good = r.to_json();
        // Break conservation: bump submitted by prefixing a digit.
        let bad = good.replacen("\"submitted\": ", "\"submitted\": 9", 1);
        let err = ClusterReport::validate(&bad).unwrap_err();
        assert!(err.contains("conservation"), "unexpected error: {err}");
        // A chaos section under the v1 tag is rejected.
        let mislabeled = good.replacen(CLUSTER_SCHEMA_V2, CLUSTER_SCHEMA, 1);
        assert!(ClusterReport::validate(&mislabeled).is_err());
        // A v2 tag without a chaos section is rejected.
        let plain = report().to_json().replacen(CLUSTER_SCHEMA, CLUSTER_SCHEMA_V2, 1);
        assert!(ClusterReport::validate(&plain).is_err());
        // A conserved ledger that completed more than the totals count.
        let ledger = r.outcome.chaos.as_mut().expect("a chaos run");
        ledger.submitted += 1;
        ledger.completed += 1;
        let err = ClusterReport::validate(&r.to_json()).unwrap_err();
        assert!(err.starts_with("chaos.completed is"), "{err}");
    }

    #[test]
    fn chaos_free_report_stays_v1_with_no_chaos_keys() {
        let r = report();
        assert_eq!(r.schema(), CLUSTER_SCHEMA);
        let text = r.to_json();
        assert!(!text.contains("\"chaos\""));
        assert!(!text.contains("\"retries\""));
    }

    fn multinode_report() -> ClusterReport {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            topology: crate::sim::Topology {
                nodes: 3,
                scheduler: SchedulerKind::Affinity,
                keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
            },
            ..ClusterConfig::default()
        };
        let outcome = ClusterSim::new(cfg.clone()).run();
        ClusterReport::new(cfg, outcome)
    }

    #[test]
    fn multinode_report_validates_and_carries_node_sections() {
        let text = multinode_report().to_json();
        assert!(text.contains("\"nodes\": 3"));
        assert!(text.contains("\"scheduler\": \"affinity\""));
        assert!(text.contains("\"keepalive\": \"hybrid:50000\""));
        assert!(text.contains("\"cold_starts\""));
        assert!(text.contains("\"wasted_keepalive_cycles\""));
        ClusterReport::validate(&text).expect("multi-node report must self-validate");
    }

    #[test]
    fn single_node_default_report_carries_no_node_sections() {
        let text = report().to_json();
        assert!(!text.contains("\"scheduler\""));
        assert!(!text.contains("\"keepalive\""));
        assert!(!text.contains("\"cold_starts\""));
        assert!(!text.contains("\"wasted_keepalive_cycles\""));
    }

    fn traffic_report() -> ClusterReport {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            traffic: Some("mmpp:mults=1/6,dwells=300000/60000".to_string()),
            ..ClusterConfig::default()
        };
        let spec = ignite_traffic::TrafficSpec::parse(cfg.traffic.as_deref().unwrap()).unwrap();
        let sim = ClusterSim::new(cfg.clone());
        let suite = ignite_workloads::Suite::paper_suite_scaled(cfg.scale);
        let mut arrival = cfg.arrival;
        arrival.functions = suite.functions().len();
        let mut source = spec.build(&arrival, &suite).unwrap();
        let outcome = sim.run_source_policy_obs(
            &mut *source,
            &mut ignite_obs::NullSink,
            &mut crate::policy::StaticPolicy,
        );
        ClusterReport::new(cfg, outcome)
    }

    #[test]
    fn traffic_report_carries_workload_fingerprint() {
        let text = traffic_report().to_json();
        assert!(text.contains("\"traffic\": \"mmpp:mults=1/6,dwells=300000/60000\""));
        assert!(text.contains("\"workload\": {"));
        assert!(text.contains(&format!("\"schema\": \"{}\"", ignite_traffic::WORKLOAD_SCHEMA)));
        ClusterReport::validate(&text).expect("traffic report must self-validate");
    }

    #[test]
    fn default_report_carries_no_workload_section() {
        let text = report().to_json();
        assert!(!text.contains("\"traffic\""));
        assert!(!text.contains("\"workload\""));
    }

    #[test]
    fn validate_enforces_workload_pairing_and_sanity() {
        let good = traffic_report().to_json();
        // A workload section without the config traffic key.
        let bad =
            good.replacen("    \"traffic\": \"mmpp:mults=1/6,dwells=300000/60000\",\n", "", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("'traffic'"));
        // A traffic key without a workload section.
        let start = good.find("  \"workload\": {").unwrap();
        let end = good[start..].find("},\n").unwrap() + start + 3;
        let bad = format!("{}{}", &good[..start], &good[end..]);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("'workload'"));
        // A stale fingerprint schema tag.
        let bad = good.replacen(ignite_traffic::WORKLOAD_SCHEMA, "ignite-workload-v0", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("workload"));
        // A share outside [0, 1].
        let bad = good.replacen("\"top1_share\": ", "\"top1_share\": 9", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("top1_share"));
    }

    #[test]
    fn validate_rejects_mislabeled_node_sections() {
        let mut r = multinode_report();
        let good = r.to_json();
        // Node array length disagreeing with the config count.
        let bad = good.replacen("\"nodes\": 3", "\"nodes\": 2", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("entries"));
        // A scheduler spec that does not parse.
        let bad = good.replacen("\"scheduler\": \"affinity\"", "\"scheduler\": \"affinty\"", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("scheduler"));
        // A node labeled with the wrong index.
        let bad = good.replacen("\"node\": 1,", "\"node\": 2,", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("labeled"));
        // Per-node conservation: bump one node's submitted count.
        let bad = good.replacen("\"submitted\": ", "\"submitted\": 9", 1);
        assert!(ClusterReport::validate(&bad).unwrap_err().contains("conservation"));
        // A conserved node that completed more than the totals count.
        r.outcome.nodes[0].submitted += 1;
        r.outcome.nodes[0].completed += 1;
        let err = ClusterReport::validate(&r.to_json()).unwrap_err();
        assert!(err.starts_with("nodes[].completed sum to"), "{err}");
    }
}
