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
//! Each section's keys are listed once, in a field table ([`json::Field`])
//! that drives [`ClusterReport::to_json`], [`ClusterReport::from_json`]
//! and the metrics exposition ([`crate::prom`]). A value `to_json`
//! derives from others — a hit rate, the mean utilization, a slowdown,
//! the aggregate replay counters, a row's index, the controller's fire
//! counts, the schema tags — is recomputed, never read back.

use ignite_chaos::{ChaosPlan, ChaosStats};
use ignite_core::{ReplayStats, StoreStats};
use ignite_obs::{CtrlRule, MetricsRegistry};

use crate::json::{self, Field::*, Scalar, Table, Value, Walker};
use crate::keepalive::KeepAliveKind;
use crate::policy::ControllerStats;
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
    /// Each function's `cpi`, `l1i_mpki` and `btb_mpki`, in
    /// `outcome.functions` order. The document carries these ratios but
    /// not the engine sums they come from, so [`ClusterReport::new`]
    /// computes them once.
    pub engine: Vec<[f64; 3]>,
    /// The totals' `instructions`: the engine results' sum.
    pub instructions: u64,
    /// The totals' `cycles`: the engine results' sum.
    pub cycles: u64,
}

/// A policy or rule: written as its spec string, which reads back. An
/// unknown spec leaves the value as it was.
macro_rules! spec_scalar {
    ($($t:ty: $spec:expr, $parse:expr;)*) => {$(
        impl Scalar for $t {
            fn write(&self, w: &mut json::Writer, key: &str) {
                w.field(key, json::escape(&($spec)(self)));
            }

            fn read(&mut self, v: &Value) {
                if let Some(parsed) = v.as_str().and_then($parse) {
                    *self = parsed;
                }
            }
        }
    )*};
}
spec_scalar! {
    SchedulerKind: SchedulerKind::spec, |s| SchedulerKind::parse(s).ok();
    KeepAliveKind: KeepAliveKind::spec, |s| KeepAliveKind::parse(s).ok();
    CtrlRule: |r: &Self| r.key(), |s| Self::ALL.into_iter().find(|r| r.key() == s);
}

/// A store section; a node's keeps only the hit and miss counters.
fn store_fields<'a>(
    st: &'a mut StoreStats,
    all: bool,
    footprint: &'a mut usize,
    peak: &'a mut usize,
) -> Table<'a, 11> {
    let hit_rate = st.hit_rate();
    [
        ("hits", Stored(&mut st.hits)),
        ("misses", Stored(&mut st.misses)),
        ("hit_rate", Float(hit_rate)),
        ("insertions", Stored(&mut st.insertions).when(all)),
        ("evictions", Stored(&mut st.evictions).when(all)),
        ("rejected", Stored(&mut st.rejected).when(all)),
        ("bytes_read", Stored(&mut st.bytes_read).when(all)),
        ("bytes_written", Stored(&mut st.bytes_written).when(all)),
        ("bytes_evicted", Stored(&mut st.bytes_evicted).when(all)),
        ("footprint_bytes", Stored(footprint)),
        ("peak_footprint_bytes", Stored(peak)),
    ]
}

fn replay_fields<'a>(r: &'a mut ReplayStats, unfinished: &'a mut u64) -> Table<'a, 11> {
    [
        ("entries_restored", Stored(&mut r.entries_restored)),
        ("bim_initialized", Stored(&mut r.bim_initialized)),
        ("l2_prefetches", Stored(&mut r.l2_prefetches)),
        ("itlb_warmed", Stored(&mut r.itlb_warmed)),
        ("metadata_bytes", Stored(&mut r.metadata_bytes)),
        ("throttled_steps", Stored(&mut r.throttled_steps)),
        ("decode_errors", Stored(&mut r.decode_errors)),
        ("entries_dropped", Stored(&mut r.entries_dropped)),
        ("stale_restored", Stored(&mut r.stale_restored)),
        ("watchdog_abandons", Stored(&mut r.watchdog_abandons)),
        ("replay_unfinished", Stored(unfinished)),
    ]
}

/// The sum of `column` over `rows`, `None` when there are none.
fn sum<T>(rows: &[T], column: impl Fn(&T) -> u64) -> Option<u128> {
    (!rows.is_empty()).then(|| rows.iter().map(|row| u128::from(column(row))).sum())
}

impl ClusterReport {
    /// Pairs a configuration with its outcome, computing the engine
    /// figures the report writes from each function's engine result.
    pub fn new(config: ClusterConfig, outcome: ClusterOutcome) -> Self {
        let total = outcome.total_result();
        let engine = outcome.functions.iter().map(|f| &f.result);
        ClusterReport {
            engine: engine.map(|r| [r.cpi(), r.l1i_mpki(), r.btb_mpki()]).collect(),
            instructions: total.instructions,
            cycles: total.cycles,
            config,
            outcome,
            obs: None,
        }
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
        self.clone().write()
    }

    fn write(&mut self) -> String {
        let mut w = Walker::writer();
        self.walk(&mut w, !self.config.topology.is_default());
        w.finish()
    }

    /// Sets a gauge in `reg` for every number the report writes, under
    /// `labels` ([`Walker::gauges`]).
    pub(crate) fn set_gauges(&mut self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let multi = !self.config.topology.is_default();
        self.walk(&mut Walker::gauges(reg, "cluster", labels), multi);
    }

    /// Walks the report in document order. A reader has set each optional
    /// section the document holds to its default beforehand, and `multi`
    /// says whether the topology's keys and sections are there.
    fn walk(&mut self, w: &mut Walker, multi: bool) {
        let chaos = self.outcome.chaos.is_some();
        w.table([("schema", Tag(self.schema()))]);
        let cfg = &mut self.config;
        let (topology, arrival) = (&mut cfg.topology, &mut cfg.arrival);
        w.fields(
            "config",
            [
                ("cores", Stored(&mut cfg.cores)),
                ("nodes", Stored(&mut topology.nodes).when(multi)),
                ("scheduler", Stored(&mut topology.scheduler).when(multi)),
                ("keepalive", Stored(&mut topology.keepalive).when(multi)),
                ("fe", Stored(&mut cfg.fe.name)),
                ("scale", Stored(&mut cfg.scale)),
                ("seed", Stored(&mut arrival.seed)),
                ("functions", Stored(&mut arrival.functions)),
                ("rate_per_mcycle", Stored(&mut arrival.rate_per_mcycle)),
                ("zipf_s", Stored(&mut arrival.zipf_s)),
                ("horizon_cycles", Stored(&mut arrival.horizon_cycles)),
                ("traffic", cfg.traffic.as_mut().map_or(Absent, |s| Stored(s))),
                ("controller", cfg.controller.as_mut().map_or(Absent, |s| Stored(s))),
                ("store_capacity_bytes", Stored(&mut cfg.store.capacity_bytes)),
            ],
        );
        let out = &mut self.outcome;
        let (utilization, wasted) = (out.mean_utilization(), out.wasted_keepalive_cycles());
        w.fields(
            "totals",
            [
                ("invocations", Stored(&mut out.invocations)),
                ("makespan_cycles", Stored(&mut out.makespan)),
                ("instructions", Stored(&mut self.instructions)),
                ("cycles", Stored(&mut self.cycles)),
                ("mean_latency_cycles", Stored(&mut out.mean_latency)),
                ("p50_latency_cycles", Stored(&mut out.p50_latency)),
                ("p95_latency_cycles", Stored(&mut out.p95_latency)),
                ("p99_latency_cycles", Stored(&mut out.p99_latency)),
                ("mean_utilization", Float(utilization)),
                ("wasted_keepalive_cycles", Count(wasted).when(multi)),
            ],
        );
        w.rows("cores", &mut out.cores, true, |w, i, c| {
            w.table([
                ("core", Count(i as u64)),
                ("invocations", Stored(&mut c.invocations)),
                ("busy_cycles", Stored(&mut c.busy_cycles)),
                ("utilization", Stored(&mut c.utilization)),
            ])
        });
        if multi {
            w.rows("nodes", &mut out.nodes, false, |w, i, nd| {
                w.table([
                    ("node", Count(i as u64)),
                    ("submitted", Stored(&mut nd.submitted)),
                    ("completed", Stored(&mut nd.completed)),
                    ("dropped", Stored(&mut nd.dropped)),
                    ("queue_peak", Stored(&mut nd.queue_peak)),
                    ("busy_cycles", Stored(&mut nd.busy_cycles)),
                    ("utilization", Stored(&mut nd.utilization)),
                    ("wasted_keepalive_cycles", Stored(&mut nd.wasted_keepalive_cycles)),
                ]);
                let (footprint, peak) = (&mut nd.footprint_bytes, &mut nd.peak_footprint_bytes);
                w.fields("store", store_fields(&mut nd.store, false, footprint, peak))
            });
        }
        let (footprint, peak) = (&mut out.footprint_bytes, &mut out.peak_footprint_bytes);
        w.fields("store", store_fields(&mut out.store, true, footprint, peak));
        // The aggregate replay is the functions' sum. A reader meets it
        // before the functions and reads it into these locals, unused.
        let (mut replay, mut unfinished) = (ReplayStats::default(), 0u64);
        for f in &out.functions {
            replay.merge(&f.result.replay);
            unfinished = unfinished.saturating_add(f.result.replay_unfinished);
        }
        w.fields("replay", replay_fields(&mut replay, &mut unfinished));
        // Workload fingerprint: present exactly when a `--traffic` spec
        // drove the run. Default Poisson/Zipf runs emit nothing here, so
        // pre-traffic reports stay byte-identical.
        if self.config.traffic.is_some() {
            let wl = &mut out.workload;
            w.fields(
                "workload",
                [
                    ("schema", Tag(ignite_traffic::WORKLOAD_SCHEMA)),
                    ("arrivals", Stored(&mut wl.arrivals)),
                    ("functions", Stored(&mut wl.functions)),
                    ("horizon_cycles", Stored(&mut wl.horizon_cycles)),
                    ("rate_per_mcycle", Stored(&mut wl.rate_per_mcycle)),
                    ("interarrival_cv2", Stored(&mut wl.interarrival_cv2)),
                    ("zipf_s_hat", Stored(&mut wl.zipf_s_hat)),
                    ("top1_share", Stored(&mut wl.top1_share)),
                    ("top5_share", Stored(&mut wl.top5_share)),
                ],
            );
        }
        if let (Some(ch), Some(plan)) = (&mut out.chaos, &mut self.config.chaos) {
            let rp = &mut self.config.retry;
            w.section("chaos", |w| {
                w.fields(
                    "plan",
                    [
                        ("seed", Stored(&mut plan.seed)),
                        ("crash_mtbf_cycles", Stored(&mut plan.crash_mtbf_cycles)),
                        ("crash_repair_cycles", Stored(&mut plan.crash_repair_cycles)),
                        ("straggle_mtbf_cycles", Stored(&mut plan.straggle_mtbf_cycles)),
                        ("straggle_duration_cycles", Stored(&mut plan.straggle_duration_cycles)),
                        ("straggle_factor_milli", Stored(&mut plan.straggle_factor_milli)),
                        ("store_unavail_mtbf_cycles", Stored(&mut plan.store_unavail_mtbf_cycles)),
                        (
                            "store_unavail_duration_cycles",
                            Stored(&mut plan.store_unavail_duration_cycles),
                        ),
                        ("corrupt_ppm", Stored(&mut plan.store_fault.bit_flip_ppm)),
                        ("loss_ppm", Stored(&mut plan.store_fault.loss_ppm)),
                        ("dispatch_drop_ppm", Stored(&mut plan.dispatch_drop_ppm)),
                    ],
                );
                w.fields(
                    "retry",
                    [
                        ("max_attempts", Stored(&mut rp.max_attempts)),
                        ("backoff_base_cycles", Stored(&mut rp.backoff_base_cycles)),
                        ("backoff_mult_milli", Stored(&mut rp.backoff_mult_milli)),
                        ("backoff_max_cycles", Stored(&mut rp.backoff_max_cycles)),
                        ("jitter_ppm", Stored(&mut rp.jitter_ppm)),
                        ("deadline_cycles", Stored(&mut rp.deadline_cycles)),
                        ("breaker_threshold", Stored(&mut rp.breaker_threshold)),
                        ("breaker_cooldown_cycles", Stored(&mut rp.breaker_cooldown_cycles)),
                    ],
                );
                w.table([
                    ("submitted", Stored(&mut ch.submitted)),
                    ("completed", Stored(&mut ch.completed)),
                    ("retried_to_success", Stored(&mut ch.retried_to_success)),
                    ("attempts_failed", Stored(&mut ch.attempts_failed)),
                    ("crash_kills", Stored(&mut ch.crash_kills)),
                    ("dispatch_drops", Stored(&mut ch.dispatch_drops)),
                    ("dropped_deadline", Stored(&mut ch.dropped_deadline)),
                    ("dropped_retries_exhausted", Stored(&mut ch.dropped_retries_exhausted)),
                    ("degraded_unavailable", Stored(&mut ch.degraded_unavailable)),
                    ("degraded_corrupt", Stored(&mut ch.degraded_corrupt)),
                    ("degraded_loss", Stored(&mut ch.degraded_loss)),
                    ("degraded_breaker", Stored(&mut ch.degraded_breaker)),
                    ("straggled", Stored(&mut ch.straggled)),
                    ("writeback_skipped", Stored(&mut ch.writeback_skipped)),
                    ("store_regions_dropped", Stored(&mut ch.store_regions_dropped)),
                    ("breaker_opens", Stored(&mut ch.breaker_opens)),
                    ("breaker_closes", Stored(&mut ch.breaker_closes)),
                    ("retry_cycles", Stored(&mut ch.retry_cycles)),
                    ("backoff_cycles", Stored(&mut ch.backoff_cycles)),
                ])
            });
        }
        if let Some(obs) = &mut self.obs {
            w.fields(
                "obs",
                [
                    ("trace_events", Stored(&mut obs.trace_events)),
                    ("trace_dropped", Stored(&mut obs.trace_dropped)),
                ],
            );
        }
        // The controller section — the decision audit trail — exists
        // only for controller-on runs, so every controller-off report
        // stays byte-identical to its golden.
        if let Some(ctrl) = &mut out.controller {
            let fires = CtrlRule::ALL.map(|rule| (rule.key(), Count(ctrl.fires(rule))));
            w.section("controller", |w| {
                w.table([
                    ("epochs", Stored(&mut ctrl.epochs)),
                    ("samples", Stored(&mut ctrl.samples)),
                    ("replay_denied", Stored(&mut ctrl.replay_denied)),
                    ("store_denied", Stored(&mut ctrl.store_denied)),
                    ("final_active_cores", Stored(&mut ctrl.final_active_cores)),
                ]);
                w.fields("fires", fires);
                w.log("decisions", &mut ctrl.decisions, |w, _, d| {
                    // A cluster-wide decision has no target function: -1.
                    let mut function =
                        if d.function == u32::MAX { -1 } else { i64::from(d.function) };
                    w.table([
                        ("at", Stored(&mut d.at)),
                        ("epoch", Stored(&mut d.epoch)),
                        ("rule", Stored(&mut d.rule)),
                        ("function", Stored(&mut function)),
                        ("value", Stored(&mut d.value)),
                        ("observed", Stored(&mut d.observed)),
                        ("threshold", Stored(&mut d.threshold)),
                    ]);
                    d.function = u32::try_from(function).unwrap_or(u32::MAX);
                })
            });
        }
        let engine = &mut self.engine;
        w.rows("functions", &mut out.functions, false, |w, i, f| {
            let [cpi, l1i_mpki, btb_mpki] = json::row(engine, i);
            let (hit_rate, slowdown) = (f.metadata_hit_rate(), f.slowdown());
            w.table([
                ("function", Stored(&mut f.abbr)),
                ("invocations", Stored(&mut f.invocations)),
                ("p50_latency_cycles", Stored(&mut f.p50_latency)),
                ("p95_latency_cycles", Stored(&mut f.p95_latency)),
                ("p99_latency_cycles", Stored(&mut f.p99_latency)),
                ("mean_service_cycles", Stored(&mut f.mean_service)),
                ("mean_queue_cycles", Stored(&mut f.mean_queue)),
                ("mean_cold_fraction", Stored(&mut f.mean_cold_fraction)),
                ("metadata_hits", Stored(&mut f.metadata_hits)),
                ("metadata_misses", Stored(&mut f.metadata_misses)),
                ("metadata_hit_rate", Float(hit_rate)),
                ("cold_starts", Stored(&mut f.cold_starts).when(multi)),
                ("lukewarm_starts", Stored(&mut f.lukewarm_starts).when(multi)),
                ("warm_starts", Stored(&mut f.warm_starts).when(multi)),
                ("min_service_cycles", Stored(&mut f.min_service).when(multi)),
                ("slowdown", Float(slowdown).when(multi)),
                ("wasted_keepalive_cycles", Stored(&mut f.wasted_keepalive_cycles).when(multi)),
                ("retries", Stored(&mut f.retries).when(chaos)),
                ("degraded", Stored(&mut f.degraded).when(chaos)),
                ("dropped", Stored(&mut f.dropped).when(chaos)),
                ("cpi", Stored(cpi)),
                ("l1i_mpki", Stored(l1i_mpki)),
                ("btb_mpki", Stored(btb_mpki)),
            ]);
            let replay = replay_fields(&mut f.result.replay, &mut f.result.replay_unfinished);
            w.fields("replay", replay)
        })
    }

    /// Reads a report back into its types. The document must be the
    /// report written back from what was read ([`json::same_doc`]), so an
    /// error names the first key that is missing, of the wrong kind,
    /// unknown or out of order by its path, and then a value written from
    /// others — a hit rate, a mean utilization, a slowdown, the aggregate
    /// replay, a row's index, a fire count, a schema tag — that disagrees
    /// with them.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(&json::parse(text)?)
    }

    /// [`ClusterReport::from_json`] of a parsed document.
    pub fn read(doc: &Value) -> Result<Self, String> {
        Self::read_checking(doc, |_| Ok(()))
    }

    /// Reads `doc` as [`ClusterReport::read`] does, running `check`
    /// between the comparisons of the shapes and of the values.
    fn read_checking(doc: &Value, check: fn(&Self) -> Result<(), String>) -> Result<Self, String> {
        let mut r = Walker::reader(doc);
        let config = Walker::reader(r.get("config").unwrap_or(&Value::Null));
        // An optional section is there when its config key or itself is;
        // writing the report back then names the one that is missing.
        let has = |key, section| config.get(key).or(r.get(section)).is_some();
        let multi = has("nodes", "nodes");
        let schema = r.get("schema").and_then(Value::as_str);
        let chaos = r.get("chaos").is_some() || schema == Some(CLUSTER_SCHEMA_V2);
        let config = ClusterConfig {
            chaos: chaos.then(ChaosPlan::default),
            traffic: has("traffic", "workload").then(String::new),
            controller: has("controller", "controller").then(String::new),
            ..ClusterConfig::default()
        };
        let outcome = ClusterOutcome {
            chaos: chaos.then(ChaosStats::default),
            controller: config.controller.as_ref().map(|_| ControllerStats::default()),
            ..ClusterOutcome::default()
        };
        let mut report = ClusterReport::new(config, outcome);
        report.obs = r.get("obs").map(|_| ObsSummary::default());
        report.walk(&mut r, multi);
        let want = json::parse(&report.write())?;
        json::same_doc(doc, &want, "report", false)?;
        check(&report)?;
        json::same_doc(doc, &want, "report", true)?;
        Ok(report)
    }

    /// Checks the invariants every run keeps, on typed data: `cores` and
    /// `functions` are non-empty; a multi-node run has one `nodes` entry
    /// per configured node; p50 ≤ p95 ≤ p99 in the totals and in every
    /// function row; the totals' invocations equal their sums over the
    /// functions, the cores and, when present, the nodes' completions;
    /// the store's hits and misses equal the functions' metadata hits and
    /// misses, and with nodes the store's hits, misses, footprint and
    /// peak footprint equal their sums over the nodes; every node and the
    /// chaos ledger conserve invocations, and the ledger completed the
    /// totals' invocations; a traffic-driven run's fingerprint has shares
    /// in `[0, 1]`, `top1 <= top5` and CV² ≥ 0.
    pub fn check(&self) -> Result<(), String> {
        let (cfg, out, nodes) = (&self.config, &self.outcome, &self.outcome.nodes);
        for (key, rows) in [("cores", out.cores.len()), ("functions", out.functions.len())] {
            if rows == 0 {
                return Err(format!("empty '{key}' array"));
            }
        }
        if (!cfg.topology.is_default() || !nodes.is_empty()) && nodes.len() != cfg.topology.nodes {
            let n = cfg.topology.nodes;
            return Err(format!("'nodes' array has {} entries, config says {n}", nodes.len()));
        }
        let totals = [out.p50_latency, out.p95_latency, out.p99_latency];
        let rows = out.functions.iter().map(|f| [f.p50_latency, f.p95_latency, f.p99_latency]);
        for (i, [p50, p95, p99]) in std::iter::once(totals).chain(rows).enumerate() {
            if p50 > p95 || p95 > p99 {
                let row =
                    if i == 0 { "totals".to_string() } else { format!("functions[{}]", i - 1) };
                return Err(format!(
                    "{row}: quantiles not ordered: p50_latency_cycles {p50}, \
                     p95_latency_cycles {p95}, p99_latency_cycles {p99}"
                ));
            }
        }
        // Every completion is counted once in each breakdown, and every
        // store access once per function and, with nodes, once per node.
        let (fns, inv, hits, misses) =
            (&out.functions, out.invocations, out.store.hits, out.store.misses);
        let (fp, peak) = (out.footprint_bytes as u64, out.peak_footprint_bytes as u64);
        let node_fp = sum(nodes, |n| n.footprint_bytes as u64);
        let node_peak = sum(nodes, |n| n.peak_footprint_bytes as u64);
        for (column, sum, total_key, total) in [
            ("functions[].invocations", sum(fns, |f| f.invocations), "totals.invocations", inv),
            ("cores[].invocations", sum(&out.cores, |c| c.invocations), "totals.invocations", inv),
            ("nodes[].completed", sum(nodes, |n| n.completed), "totals.invocations", inv),
            ("functions[].metadata_hits", sum(fns, |f| f.metadata_hits), "store.hits", hits),
            (
                "functions[].metadata_misses",
                sum(fns, |f| f.metadata_misses),
                "store.misses",
                misses,
            ),
            ("nodes[].store.hits", sum(nodes, |n| n.store.hits), "store.hits", hits),
            ("nodes[].store.misses", sum(nodes, |n| n.store.misses), "store.misses", misses),
            ("nodes[].store.footprint_bytes", node_fp, "store.footprint_bytes", fp),
            ("nodes[].store.peak_footprint_bytes", node_peak, "store.peak_footprint_bytes", peak),
        ] {
            if let Some(sum) = sum.filter(|&sum| sum != u128::from(total)) {
                return Err(format!("{column} sum to {sum}, {total_key} is {total}"));
            }
        }
        if let Some((i, nd)) = nodes.iter().enumerate().find(|(_, nd)| !nd.conserved()) {
            let (submitted, completed, dropped) = (nd.submitted, nd.completed, nd.dropped);
            return Err(format!(
                "nodes[{i}]: conservation violated: submitted {submitted} != completed {completed} \
                 + dropped {dropped}"
            ));
        }
        if let Some(ch) = &out.chaos {
            let [submitted, completed, deadline, exhausted] =
                [ch.submitted, ch.completed, ch.dropped_deadline, ch.dropped_retries_exhausted];
            let served = u128::from(completed) + u128::from(deadline) + u128::from(exhausted);
            if served != u128::from(submitted) {
                let law = format!("submitted {submitted} != completed+dropped {served}");
                return Err(format!("chaos: conservation violated: {law}"));
            }
            if completed != inv {
                return Err(format!("chaos.completed is {completed}, totals.invocations is {inv}"));
            }
        }
        if cfg.traffic.is_some() {
            let wl = &out.workload;
            let (top1, top5, cv2) = (wl.top1_share, wl.top5_share, wl.interarrival_cv2);
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
        Ok(())
    }

    /// Validates that `text` is an `ignite-cluster-v1` or `-v2` report:
    /// [`ClusterReport::from_json`] reads it, with [`ClusterReport::check`]
    /// run once its shape is known good, so a broken invariant is named
    /// before a derived value that disagrees with its counts.
    pub fn validate(text: &str) -> Result<(), String> {
        Self::read_checking(&json::parse(text)?, Self::check).map(drop)
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
        r.config.arrival.rate_per_mcycle = f64::INFINITY;
        let text = r.to_json();
        // Regression: these used to serialize as `null`, which the
        // report's own validator rejects (every numeric field must be a
        // scalar).
        assert!(!text.contains("null"), "non-finite floats must not serialize as null");
        assert!(!text.contains("NaN"));
        ClusterReport::validate(&text).expect("report with pinned zeros must validate");
        assert!(text.contains("\"zipf_s\": 0,"));
        assert!(text.contains("\"rate_per_mcycle\": 0,"));
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
            (without_lines(&good, &["\"zipf_s\"", "\"cpi\""]), "report.config: missing 'zipf_s'"),
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

    /// Rows come from the document's arrays, never sized from a number
    /// in it: a node count that disagrees with the array, however large,
    /// is an error.
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
        let err = ClusterReport::validate(&bad).unwrap_err();
        assert_eq!(err, "report.nodes[1].node: expected 1, found 2");
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
