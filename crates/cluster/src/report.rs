//! The versioned cluster report (`ignite-cluster-v1`).
//!
//! One JSON document per run: the configuration, cluster-wide totals,
//! per-core utilization, node-store counters, aggregate replay statistics
//! (including every degradation counter), and a per-function breakdown
//! with p50/p95/p99 latency. Serialization is byte-deterministic — fixed
//! key order, integers for cycle counts, shortest round-trip formatting
//! for floats — so two same-seed runs, in different processes, produce
//! identical bytes (the golden tests rely on this).

use std::fmt::Write as _;

use ignite_core::ReplayStats;

use crate::json::{self, Value};
use crate::keepalive::KeepAliveKind;
use crate::sched::SchedulerKind;
use crate::sim::{ClusterConfig, ClusterOutcome};

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

/// Renders a float for the report. Non-finite values serialize as `0`
/// rather than `json::number`'s `null`: every numeric field in the schema
/// is required to be a scalar, and a `null` (or a bare `NaN`) would make
/// the emitted report fail its own validator.
fn num(x: f64) -> String {
    if x.is_finite() {
        json::number(x)
    } else {
        "0".to_string()
    }
}

fn push_replay(out: &mut String, indent: &str, replay: &ReplayStats, unfinished: u64) {
    let _ = writeln!(out, "{indent}\"entries_restored\": {},", replay.entries_restored);
    let _ = writeln!(out, "{indent}\"bim_initialized\": {},", replay.bim_initialized);
    let _ = writeln!(out, "{indent}\"l2_prefetches\": {},", replay.l2_prefetches);
    let _ = writeln!(out, "{indent}\"itlb_warmed\": {},", replay.itlb_warmed);
    let _ = writeln!(out, "{indent}\"metadata_bytes\": {},", replay.metadata_bytes);
    let _ = writeln!(out, "{indent}\"throttled_steps\": {},", replay.throttled_steps);
    let _ = writeln!(out, "{indent}\"decode_errors\": {},", replay.decode_errors);
    let _ = writeln!(out, "{indent}\"entries_dropped\": {},", replay.entries_dropped);
    let _ = writeln!(out, "{indent}\"stale_restored\": {},", replay.stale_restored);
    let _ = writeln!(out, "{indent}\"watchdog_abandons\": {},", replay.watchdog_abandons);
    let _ = writeln!(out, "{indent}\"replay_unfinished\": {unfinished}");
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
        let out_ = &self.outcome;
        let total = out_.total_result();
        let multi = !cfg.topology.is_default();
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", self.schema());
        s.push_str("  \"config\": {\n");
        let _ = writeln!(s, "    \"cores\": {},", cfg.cores);
        if multi {
            let _ = writeln!(s, "    \"nodes\": {},", cfg.topology.nodes);
            let _ =
                writeln!(s, "    \"scheduler\": {},", json::escape(&cfg.topology.scheduler.spec()));
            let _ =
                writeln!(s, "    \"keepalive\": {},", json::escape(&cfg.topology.keepalive.spec()));
        }
        let _ = writeln!(s, "    \"fe\": {},", json::escape(&cfg.fe.name));
        let _ = writeln!(s, "    \"scale\": {},", num(cfg.scale));
        let _ = writeln!(s, "    \"seed\": {},", cfg.arrival.seed);
        let _ = writeln!(s, "    \"functions\": {},", cfg.arrival.functions);
        let _ = writeln!(s, "    \"rate_per_mcycle\": {},", num(cfg.arrival.rate_per_mcycle));
        let _ = writeln!(s, "    \"zipf_s\": {},", num(cfg.arrival.zipf_s));
        let _ = writeln!(s, "    \"horizon_cycles\": {},", cfg.arrival.horizon_cycles);
        if let Some(spec) = &cfg.traffic {
            let _ = writeln!(s, "    \"traffic\": {},", json::escape(spec));
        }
        if let Some(spec) = &cfg.controller {
            let _ = writeln!(s, "    \"controller\": {},", json::escape(spec));
        }
        let _ = writeln!(s, "    \"store_capacity_bytes\": {},", cfg.store.capacity_bytes);
        let _ = writeln!(s, "    \"store_policy\": {},", json::escape(cfg.store.policy.name()));
        let _ = writeln!(s, "    \"store_pinned_hot\": {},", cfg.store.pinned_hot);
        let _ = writeln!(s, "    \"distance_saturation\": {},", num(cfg.distance_saturation));
        let _ = writeln!(s, "    \"dram_bytes_per_cycle\": {}", num(cfg.dram_bytes_per_cycle));
        s.push_str("  },\n");
        s.push_str("  \"totals\": {\n");
        let _ = writeln!(s, "    \"invocations\": {},", out_.invocations);
        let _ = writeln!(s, "    \"makespan_cycles\": {},", out_.makespan);
        let _ = writeln!(s, "    \"instructions\": {},", total.instructions);
        let _ = writeln!(s, "    \"cycles\": {},", total.cycles);
        let _ = writeln!(s, "    \"mean_latency_cycles\": {},", num(out_.mean_latency));
        let _ = writeln!(s, "    \"p50_latency_cycles\": {},", out_.p50_latency);
        let _ = writeln!(s, "    \"p95_latency_cycles\": {},", out_.p95_latency);
        let _ = writeln!(s, "    \"p99_latency_cycles\": {},", out_.p99_latency);
        if multi {
            let _ = writeln!(s, "    \"mean_utilization\": {},", num(out_.mean_utilization()));
            let _ =
                writeln!(s, "    \"wasted_keepalive_cycles\": {}", out_.wasted_keepalive_cycles());
        } else {
            let _ = writeln!(s, "    \"mean_utilization\": {}", num(out_.mean_utilization()));
        }
        s.push_str("  },\n");
        s.push_str("  \"cores\": [\n");
        for (i, c) in out_.cores.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"core\": {i}, \"invocations\": {}, \"busy_cycles\": {}, \
                 \"utilization\": {}}}{}",
                c.invocations,
                c.busy_cycles,
                num(c.utilization),
                if i + 1 == out_.cores.len() { "" } else { "," }
            );
        }
        s.push_str("  ],\n");
        if multi {
            s.push_str("  \"nodes\": [\n");
            for (i, nd) in out_.nodes.iter().enumerate() {
                s.push_str("    {\n");
                let _ = writeln!(s, "      \"node\": {i},");
                let _ = writeln!(s, "      \"submitted\": {},", nd.submitted);
                let _ = writeln!(s, "      \"completed\": {},", nd.completed);
                let _ = writeln!(s, "      \"dropped\": {},", nd.dropped);
                let _ = writeln!(s, "      \"queue_peak\": {},", nd.queue_peak);
                let _ = writeln!(s, "      \"busy_cycles\": {},", nd.busy_cycles);
                let _ = writeln!(s, "      \"utilization\": {},", num(nd.utilization));
                let _ = writeln!(
                    s,
                    "      \"wasted_keepalive_cycles\": {},",
                    nd.wasted_keepalive_cycles
                );
                s.push_str("      \"store\": {\n");
                let _ = writeln!(s, "        \"hits\": {},", nd.store.hits);
                let _ = writeln!(s, "        \"misses\": {},", nd.store.misses);
                let _ = writeln!(s, "        \"hit_rate\": {},", num(nd.store.hit_rate()));
                let _ = writeln!(s, "        \"footprint_bytes\": {},", nd.footprint_bytes);
                let _ =
                    writeln!(s, "        \"peak_footprint_bytes\": {}", nd.peak_footprint_bytes);
                s.push_str("      }\n");
                s.push_str(if i + 1 == out_.nodes.len() { "    }\n" } else { "    },\n" });
            }
            s.push_str("  ],\n");
        }
        s.push_str("  \"store\": {\n");
        let st = &out_.store;
        let _ = writeln!(s, "    \"hits\": {},", st.hits);
        let _ = writeln!(s, "    \"misses\": {},", st.misses);
        let _ = writeln!(s, "    \"hit_rate\": {},", num(st.hit_rate()));
        let _ = writeln!(s, "    \"insertions\": {},", st.insertions);
        let _ = writeln!(s, "    \"evictions\": {},", st.evictions);
        let _ = writeln!(s, "    \"rejected\": {},", st.rejected);
        let _ = writeln!(s, "    \"bytes_read\": {},", st.bytes_read);
        let _ = writeln!(s, "    \"bytes_written\": {},", st.bytes_written);
        let _ = writeln!(s, "    \"bytes_evicted\": {},", st.bytes_evicted);
        let _ = writeln!(s, "    \"footprint_bytes\": {},", out_.footprint_bytes);
        let _ = writeln!(s, "    \"peak_footprint_bytes\": {}", out_.peak_footprint_bytes);
        s.push_str("  },\n");
        s.push_str("  \"replay\": {\n");
        push_replay(&mut s, "    ", &total.replay, total.replay_unfinished);
        s.push_str("  },\n");
        // Workload fingerprint: present exactly when a `--traffic` spec
        // drove the run. Default Poisson/Zipf runs emit nothing here, so
        // pre-traffic reports stay byte-identical.
        if cfg.traffic.is_some() {
            let wl = &out_.workload;
            s.push_str("  \"workload\": {\n");
            let _ = writeln!(s, "    \"schema\": \"{}\",", ignite_traffic::WORKLOAD_SCHEMA);
            let _ = writeln!(s, "    \"arrivals\": {},", wl.arrivals);
            let _ = writeln!(s, "    \"functions\": {},", wl.functions);
            let _ = writeln!(s, "    \"horizon_cycles\": {},", wl.horizon_cycles);
            let _ = writeln!(s, "    \"rate_per_mcycle\": {},", num(wl.rate_per_mcycle));
            let _ = writeln!(s, "    \"interarrival_cv2\": {},", num(wl.interarrival_cv2));
            let _ = writeln!(s, "    \"zipf_s_hat\": {},", num(wl.zipf_s_hat));
            let _ = writeln!(s, "    \"top1_share\": {},", num(wl.top1_share));
            let _ = writeln!(s, "    \"top5_share\": {}", num(wl.top5_share));
            s.push_str("  },\n");
        }
        if let Some(ch) = &out_.chaos {
            let plan = cfg.chaos.as_ref().expect("chaos stats imply a chaos plan");
            let rp = &cfg.retry;
            s.push_str("  \"chaos\": {\n");
            s.push_str("    \"plan\": {\n");
            let _ = writeln!(s, "      \"seed\": {},", plan.seed);
            let _ = writeln!(s, "      \"crash_mtbf_cycles\": {},", plan.crash_mtbf_cycles);
            let _ = writeln!(s, "      \"crash_repair_cycles\": {},", plan.crash_repair_cycles);
            let _ = writeln!(s, "      \"straggle_mtbf_cycles\": {},", plan.straggle_mtbf_cycles);
            let _ = writeln!(
                s,
                "      \"straggle_duration_cycles\": {},",
                plan.straggle_duration_cycles
            );
            let _ = writeln!(s, "      \"straggle_factor_milli\": {},", plan.straggle_factor_milli);
            let _ = writeln!(
                s,
                "      \"store_unavail_mtbf_cycles\": {},",
                plan.store_unavail_mtbf_cycles
            );
            let _ = writeln!(
                s,
                "      \"store_unavail_duration_cycles\": {},",
                plan.store_unavail_duration_cycles
            );
            let _ = writeln!(s, "      \"corrupt_ppm\": {},", plan.store_fault.bit_flip_ppm);
            let _ = writeln!(s, "      \"loss_ppm\": {},", plan.store_fault.loss_ppm);
            let _ = writeln!(s, "      \"dispatch_drop_ppm\": {}", plan.dispatch_drop_ppm);
            s.push_str("    },\n");
            s.push_str("    \"retry\": {\n");
            let _ = writeln!(s, "      \"max_attempts\": {},", rp.max_attempts);
            let _ = writeln!(s, "      \"backoff_base_cycles\": {},", rp.backoff_base_cycles);
            let _ = writeln!(s, "      \"backoff_mult_milli\": {},", rp.backoff_mult_milli);
            let _ = writeln!(s, "      \"backoff_max_cycles\": {},", rp.backoff_max_cycles);
            let _ = writeln!(s, "      \"jitter_ppm\": {},", rp.jitter_ppm);
            let _ = writeln!(s, "      \"deadline_cycles\": {},", rp.deadline_cycles);
            let _ = writeln!(s, "      \"breaker_threshold\": {},", rp.breaker_threshold);
            let _ =
                writeln!(s, "      \"breaker_cooldown_cycles\": {}", rp.breaker_cooldown_cycles);
            s.push_str("    },\n");
            let _ = writeln!(s, "    \"submitted\": {},", ch.submitted);
            let _ = writeln!(s, "    \"completed\": {},", ch.completed);
            let _ = writeln!(s, "    \"retried_to_success\": {},", ch.retried_to_success);
            let _ = writeln!(s, "    \"attempts_failed\": {},", ch.attempts_failed);
            let _ = writeln!(s, "    \"crash_kills\": {},", ch.crash_kills);
            let _ = writeln!(s, "    \"dispatch_drops\": {},", ch.dispatch_drops);
            let _ = writeln!(s, "    \"dropped_deadline\": {},", ch.dropped_deadline);
            let _ =
                writeln!(s, "    \"dropped_retries_exhausted\": {},", ch.dropped_retries_exhausted);
            let _ = writeln!(s, "    \"degraded_unavailable\": {},", ch.degraded_unavailable);
            let _ = writeln!(s, "    \"degraded_corrupt\": {},", ch.degraded_corrupt);
            let _ = writeln!(s, "    \"degraded_loss\": {},", ch.degraded_loss);
            let _ = writeln!(s, "    \"degraded_breaker\": {},", ch.degraded_breaker);
            let _ = writeln!(s, "    \"straggled\": {},", ch.straggled);
            let _ = writeln!(s, "    \"writeback_skipped\": {},", ch.writeback_skipped);
            let _ = writeln!(s, "    \"store_regions_dropped\": {},", ch.store_regions_dropped);
            let _ = writeln!(s, "    \"breaker_opens\": {},", ch.breaker_opens);
            let _ = writeln!(s, "    \"breaker_closes\": {},", ch.breaker_closes);
            let _ = writeln!(s, "    \"retry_cycles\": {},", ch.retry_cycles);
            let _ = writeln!(s, "    \"backoff_cycles\": {}", ch.backoff_cycles);
            s.push_str("  },\n");
        }
        if let Some(obs) = &self.obs {
            s.push_str("  \"obs\": {\n");
            let _ = writeln!(s, "    \"trace_events\": {},", obs.trace_events);
            let _ = writeln!(s, "    \"trace_dropped\": {}", obs.trace_dropped);
            s.push_str("  },\n");
        }
        // The controller section — the decision audit trail — exists
        // only for controller-on runs, so every controller-off report
        // stays byte-identical to its golden.
        if let Some(ctrl) = &out_.controller {
            s.push_str("  \"controller\": {\n");
            let _ = writeln!(s, "    \"epochs\": {},", ctrl.epochs);
            let _ = writeln!(s, "    \"samples\": {},", ctrl.samples);
            let _ = writeln!(s, "    \"replay_denied\": {},", ctrl.replay_denied);
            let _ = writeln!(s, "    \"store_denied\": {},", ctrl.store_denied);
            let _ = writeln!(s, "    \"final_active_cores\": {},", ctrl.final_active_cores);
            s.push_str("    \"fires\": {\n");
            for (i, &rule) in ignite_obs::CtrlRule::ALL.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "      \"{}\": {}{}",
                    rule.key(),
                    ctrl.fires(rule),
                    if i + 1 == ignite_obs::CtrlRule::ALL.len() { "" } else { "," }
                );
            }
            s.push_str("    },\n");
            s.push_str("    \"decisions\": [\n");
            for (i, d) in ctrl.decisions.iter().enumerate() {
                // Cluster-wide decisions (no single target function)
                // serialize `function` as -1.
                let function = if d.function == u32::MAX { -1 } else { d.function as i64 };
                let _ = writeln!(
                    s,
                    "      {{\"at\": {}, \"epoch\": {}, \"rule\": {}, \"function\": {}, \
                     \"value\": {}, \"observed\": {}, \"threshold\": {}}}{}",
                    d.at,
                    d.epoch,
                    json::escape(d.rule.key()),
                    function,
                    d.value,
                    d.observed,
                    d.threshold,
                    if i + 1 == ctrl.decisions.len() { "" } else { "," }
                );
            }
            s.push_str("    ]\n");
            s.push_str("  },\n");
        }
        s.push_str("  \"functions\": [\n");
        for (i, f) in out_.functions.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"function\": {},", json::escape(&f.abbr));
            let _ = writeln!(s, "      \"invocations\": {},", f.invocations);
            let _ = writeln!(s, "      \"p50_latency_cycles\": {},", f.p50_latency);
            let _ = writeln!(s, "      \"p95_latency_cycles\": {},", f.p95_latency);
            let _ = writeln!(s, "      \"p99_latency_cycles\": {},", f.p99_latency);
            let _ = writeln!(s, "      \"mean_service_cycles\": {},", num(f.mean_service));
            let _ = writeln!(s, "      \"mean_queue_cycles\": {},", num(f.mean_queue));
            let _ = writeln!(s, "      \"mean_cold_fraction\": {},", num(f.mean_cold_fraction));
            let _ = writeln!(s, "      \"metadata_hits\": {},", f.metadata_hits);
            let _ = writeln!(s, "      \"metadata_misses\": {},", f.metadata_misses);
            let _ = writeln!(s, "      \"metadata_hit_rate\": {},", num(f.metadata_hit_rate()));
            if multi {
                let _ = writeln!(s, "      \"cold_starts\": {},", f.cold_starts);
                let _ = writeln!(s, "      \"lukewarm_starts\": {},", f.lukewarm_starts);
                let _ = writeln!(s, "      \"warm_starts\": {},", f.warm_starts);
                let _ = writeln!(s, "      \"min_service_cycles\": {},", f.min_service);
                let _ = writeln!(s, "      \"slowdown\": {},", num(f.slowdown()));
                let _ = writeln!(
                    s,
                    "      \"wasted_keepalive_cycles\": {},",
                    f.wasted_keepalive_cycles
                );
            }
            if out_.chaos.is_some() {
                let _ = writeln!(s, "      \"retries\": {},", f.retries);
                let _ = writeln!(s, "      \"degraded\": {},", f.degraded);
                let _ = writeln!(s, "      \"dropped\": {},", f.dropped);
            }
            let _ = writeln!(s, "      \"cpi\": {},", num(f.result.cpi()));
            let _ = writeln!(s, "      \"l1i_mpki\": {},", num(f.result.l1i_mpki()));
            let _ = writeln!(s, "      \"btb_mpki\": {},", num(f.result.btb_mpki()));
            s.push_str("      \"replay\": {\n");
            push_replay(&mut s, "        ", &f.result.replay, f.result.replay_unfinished);
            s.push_str("      }\n");
            s.push_str(if i + 1 == out_.functions.len() { "    }\n" } else { "    },\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Validates that `text` is a well-formed `ignite-cluster-v1` or
    /// `ignite-cluster-v2` report: parseable JSON, a known schema tag,
    /// and every required section and field present with the right
    /// shape. v2 additionally requires the `chaos` section and enforces
    /// the invocation conservation law (`submitted == completed +
    /// dropped_deadline + dropped_retries_exhausted`); a `chaos` section
    /// under the v1 tag is rejected. A config `traffic` spec and a
    /// `workload` fingerprint section must likewise appear together or
    /// not at all, with the fingerprint's own schema tag and sane
    /// statistics (shares in `[0, 1]`, `top1 <= top5`, CV² >= 0). A
    /// config `controller` spec and a `controller` section pair the
    /// same way, and the decision audit log must agree with the
    /// per-rule fire counters entry for entry.
    pub fn validate(text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let obj = doc.as_object().ok_or("report is not an object")?;
        let schema = json::get(obj, "schema").and_then(Value::as_str);
        let v2 = match schema {
            Some(CLUSTER_SCHEMA) => false,
            Some(CLUSTER_SCHEMA_V2) => true,
            other => {
                return Err(format!(
                    "schema {other:?}, want {CLUSTER_SCHEMA:?} or {CLUSTER_SCHEMA_V2:?}"
                ))
            }
        };
        let section = |key: &str| {
            json::get(obj, key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("missing object '{key}'"))
        };
        let require = |o: &[(String, Value)], ctx: &str, keys: &[&str]| {
            for k in keys {
                let v = json::get(o, k).ok_or_else(|| format!("{ctx}: missing '{k}'"))?;
                if v.as_f64().is_none() && v.as_str().is_none() {
                    return Err(format!("{ctx}: '{k}' is not a scalar"));
                }
            }
            Ok(())
        };
        require(
            section("config")?,
            "config",
            &[
                "cores",
                "fe",
                "scale",
                "seed",
                "rate_per_mcycle",
                "zipf_s",
                "horizon_cycles",
                "store_capacity_bytes",
                "store_policy",
            ],
        )?;
        require(
            section("totals")?,
            "totals",
            &[
                "invocations",
                "makespan_cycles",
                "mean_latency_cycles",
                "p50_latency_cycles",
                "p95_latency_cycles",
                "p99_latency_cycles",
                "mean_utilization",
            ],
        )?;
        // Multi-node pairing: a config `nodes` count and a top-level
        // `nodes` array must appear together or not at all, the specs
        // must parse, the array length must match the count, and each
        // node must satisfy its own conservation law.
        let nodes_cfg = json::get(section("config")?, "nodes").and_then(Value::as_f64);
        let nodes_arr = json::get(obj, "nodes").and_then(Value::as_array);
        let multi = match (nodes_cfg, nodes_arr) {
            (Some(_), None) => {
                return Err("config names a node count but the report has no 'nodes' array".into())
            }
            (None, Some(_)) => {
                return Err("'nodes' array requires a config 'nodes' key".into());
            }
            (None, None) => false,
            (Some(count), Some(arr)) => {
                let config = section("config")?;
                let sched = json::get(config, "scheduler")
                    .and_then(Value::as_str)
                    .ok_or("config: multi-node report is missing 'scheduler'")?;
                SchedulerKind::parse(sched).map_err(|e| format!("config: {e}"))?;
                let ka = json::get(config, "keepalive")
                    .and_then(Value::as_str)
                    .ok_or("config: multi-node report is missing 'keepalive'")?;
                KeepAliveKind::parse(ka).map_err(|e| format!("config: {e}"))?;
                if arr.len() as f64 != count {
                    return Err(format!(
                        "'nodes' array has {} entries, config says {count}",
                        arr.len()
                    ));
                }
                require(section("totals")?, "totals", &["wasted_keepalive_cycles"])?;
                for (i, nd) in arr.iter().enumerate() {
                    let no =
                        nd.as_object().ok_or_else(|| format!("nodes[{i}] is not an object"))?;
                    require(
                        no,
                        &format!("nodes[{i}]"),
                        &[
                            "node",
                            "submitted",
                            "completed",
                            "dropped",
                            "queue_peak",
                            "busy_cycles",
                            "utilization",
                            "wasted_keepalive_cycles",
                        ],
                    )?;
                    let so = json::get(no, "store")
                        .and_then(Value::as_object)
                        .ok_or_else(|| format!("nodes[{i}]: missing object 'store'"))?;
                    require(
                        so,
                        &format!("nodes[{i}].store"),
                        &["hits", "misses", "hit_rate", "footprint_bytes", "peak_footprint_bytes"],
                    )?;
                    let n = |k: &str| json::get(no, k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                    if n("node") != i as f64 {
                        return Err(format!("nodes[{i}] is labeled node {}", n("node")));
                    }
                    if n("submitted") != n("completed") + n("dropped") {
                        return Err(format!(
                            "nodes[{i}]: conservation violated: submitted {} != \
                             completed {} + dropped {}",
                            n("submitted"),
                            n("completed"),
                            n("dropped")
                        ));
                    }
                }
                true
            }
        };
        require(
            section("store")?,
            "store",
            &["hits", "misses", "hit_rate", "footprint_bytes", "peak_footprint_bytes"],
        )?;
        require(
            section("replay")?,
            "replay",
            &[
                "entries_restored",
                "decode_errors",
                "entries_dropped",
                "stale_restored",
                "watchdog_abandons",
                "replay_unfinished",
            ],
        )?;
        // The obs section is optional (traced runs only), but when
        // present it must be well-formed.
        if let Some(obs) = json::get(obj, "obs") {
            let oo = obs.as_object().ok_or("'obs' is not an object")?;
            require(oo, "obs", &["trace_events", "trace_dropped"])?;
        }
        // Controller pairing: a config `controller` spec and a
        // top-level `controller` section appear together or not at all,
        // the section is complete, and the decision log is consistent
        // with the per-rule fire counters (every decision counted
        // exactly once, every counter backed by decisions).
        let controller_cfg = json::get(section("config")?, "controller").and_then(Value::as_str);
        match (controller_cfg, json::get(obj, "controller")) {
            (Some(_), None) => {
                return Err(
                    "config names a controller spec but the report has no 'controller' section"
                        .into(),
                )
            }
            (None, Some(_)) => {
                return Err("'controller' section requires a config 'controller' key".into())
            }
            (None, None) => {}
            (Some(_), Some(ctrl)) => {
                let co = ctrl.as_object().ok_or("'controller' is not an object")?;
                require(
                    co,
                    "controller",
                    &["epochs", "samples", "replay_denied", "store_denied", "final_active_cores"],
                )?;
                let fires = json::get(co, "fires")
                    .and_then(Value::as_object)
                    .ok_or("controller: missing object 'fires'")?;
                let decisions = json::get(co, "decisions")
                    .and_then(Value::as_array)
                    .ok_or("controller: missing array 'decisions'")?;
                for (i, d) in decisions.iter().enumerate() {
                    let dobj = d
                        .as_object()
                        .ok_or_else(|| format!("controller.decisions[{i}] is not an object"))?;
                    require(
                        dobj,
                        &format!("controller.decisions[{i}]"),
                        &["at", "epoch", "rule", "function", "value", "observed", "threshold"],
                    )?;
                }
                let mut counted = 0.0;
                for rule in ignite_obs::CtrlRule::ALL {
                    let n = json::get(fires, rule.key())
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("controller.fires: missing '{}'", rule.key()))?;
                    let logged = decisions
                        .iter()
                        .filter(|d| {
                            d.as_object().and_then(|o| json::get(o, "rule")).and_then(Value::as_str)
                                == Some(rule.key())
                        })
                        .count() as f64;
                    if n != logged {
                        return Err(format!(
                            "controller: fires['{}'] is {n} but the decision log has {logged}",
                            rule.key()
                        ));
                    }
                    counted += n;
                }
                if counted != decisions.len() as f64 {
                    return Err(format!(
                        "controller: decision log has {} entries, fires total {counted} \
                         (unknown rule in log)",
                        decisions.len()
                    ));
                }
            }
        }
        // Workload-fingerprint pairing: a config `traffic` spec and a
        // top-level `workload` section appear together or not at all,
        // the fingerprint carries its own schema tag, and its statistics
        // must be internally sane.
        let traffic_cfg = json::get(section("config")?, "traffic").and_then(Value::as_str);
        match (traffic_cfg, json::get(obj, "workload")) {
            (Some(_), None) => {
                return Err(
                    "config names a traffic spec but the report has no 'workload' section".into()
                )
            }
            (None, Some(_)) => {
                return Err("'workload' section requires a config 'traffic' key".into())
            }
            (None, None) => {}
            (Some(_), Some(wl)) => {
                let wo = wl.as_object().ok_or("'workload' is not an object")?;
                let ws = json::get(wo, "schema").and_then(Value::as_str);
                if ws != Some(ignite_traffic::WORKLOAD_SCHEMA) {
                    return Err(format!(
                        "workload: schema {ws:?}, want {:?}",
                        ignite_traffic::WORKLOAD_SCHEMA
                    ));
                }
                require(
                    wo,
                    "workload",
                    &[
                        "arrivals",
                        "functions",
                        "horizon_cycles",
                        "rate_per_mcycle",
                        "interarrival_cv2",
                        "zipf_s_hat",
                        "top1_share",
                        "top5_share",
                    ],
                )?;
                let n = |k: &str| json::get(wo, k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                for k in ["top1_share", "top5_share"] {
                    let v = n(k);
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("workload: '{k}' {v} outside [0, 1]"));
                    }
                }
                if n("top1_share") > n("top5_share") {
                    return Err(format!(
                        "workload: top1_share {} exceeds top5_share {}",
                        n("top1_share"),
                        n("top5_share")
                    ));
                }
                let cv2 = n("interarrival_cv2");
                if cv2.is_nan() || cv2 < 0.0 {
                    return Err(format!("workload: negative interarrival_cv2 {cv2}"));
                }
            }
        }
        match (v2, json::get(obj, "chaos")) {
            (false, Some(_)) => {
                return Err(format!("'chaos' section requires the {CLUSTER_SCHEMA_V2:?} tag"))
            }
            (true, None) => {
                return Err(format!("{CLUSTER_SCHEMA_V2:?} report is missing its 'chaos' section"))
            }
            (false, None) => {}
            (true, Some(ch)) => {
                let co = ch.as_object().ok_or("'chaos' is not an object")?;
                json::get(co, "plan")
                    .and_then(Value::as_object)
                    .ok_or("chaos: missing object 'plan'")?;
                json::get(co, "retry")
                    .and_then(Value::as_object)
                    .ok_or("chaos: missing object 'retry'")?;
                require(
                    co,
                    "chaos",
                    &[
                        "submitted",
                        "completed",
                        "retried_to_success",
                        "attempts_failed",
                        "crash_kills",
                        "dispatch_drops",
                        "dropped_deadline",
                        "dropped_retries_exhausted",
                        "degraded_unavailable",
                        "degraded_corrupt",
                        "degraded_loss",
                        "degraded_breaker",
                        "straggled",
                        "writeback_skipped",
                        "store_regions_dropped",
                        "breaker_opens",
                        "breaker_closes",
                        "retry_cycles",
                        "backoff_cycles",
                    ],
                )?;
                let n = |k: &str| json::get(co, k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                // Conservation law: every submitted invocation is
                // accounted for, either completed or dropped with a
                // reason. Integer counts round-trip f64 exactly below
                // 2^53, so equality is exact.
                let submitted = n("submitted");
                let accounted =
                    n("completed") + n("dropped_deadline") + n("dropped_retries_exhausted");
                if submitted != accounted {
                    return Err(format!(
                        "chaos: conservation violated: submitted {submitted} != \
                         completed+dropped {accounted}"
                    ));
                }
            }
        }
        let cores =
            json::get(obj, "cores").and_then(Value::as_array).ok_or("missing array 'cores'")?;
        if cores.is_empty() {
            return Err("empty 'cores' array".to_string());
        }
        let functions = json::get(obj, "functions")
            .and_then(Value::as_array)
            .ok_or("missing array 'functions'")?;
        if functions.is_empty() {
            return Err("empty 'functions' array".to_string());
        }
        for (i, f) in functions.iter().enumerate() {
            let fo = f.as_object().ok_or_else(|| format!("functions[{i}] is not an object"))?;
            require(
                fo,
                &format!("functions[{i}]"),
                &[
                    "function",
                    "invocations",
                    "p50_latency_cycles",
                    "p95_latency_cycles",
                    "p99_latency_cycles",
                    "metadata_hit_rate",
                ],
            )?;
            if v2 {
                require(fo, &format!("functions[{i}]"), &["retries", "degraded", "dropped"])?;
            }
            if multi {
                require(
                    fo,
                    &format!("functions[{i}]"),
                    &[
                        "cold_starts",
                        "lukewarm_starts",
                        "warm_starts",
                        "min_service_cycles",
                        "slowdown",
                        "wasted_keepalive_cycles",
                    ],
                )?;
            } else if json::get(fo, "cold_starts").is_some() {
                return Err(format!(
                    "functions[{i}]: cold-start accounting requires a multi-node config"
                ));
            }
            json::get(fo, "replay")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("functions[{i}]: missing replay block"))?;
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
        let good = chaos_report().to_json();
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
        let outcome = sim.run_source(&mut *source);
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
        let good = multinode_report().to_json();
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
    }
}
