//! Prometheus-style metrics exposition for cluster runs.
//!
//! Maps a ([`ClusterConfig`], [`ClusterOutcome`]) pair onto an
//! [`ignite_obs::MetricsRegistry`]: run totals, the latency histogram on
//! the [`LATENCY_BUCKETS`] grid, per-core usage, node-store counters,
//! aggregate replay/degradation counters and a per-function breakdown.
//! The registry's exposition is byte-deterministic, so two same-seed
//! runs — in different processes — emit identical metrics text (the
//! `obs` integration tests rely on this).
//!
//! Callers that sweep a parameter pass the swept value through
//! `extra_labels` (e.g. `store_capacity` for the capacity sweep) so one
//! scrape file can hold every point of the sweep.

use ignite_obs::MetricsRegistry;

use crate::sim::{ClusterConfig, ClusterOutcome, LATENCY_BUCKETS};

/// Builds the metrics registry for one finished run.
pub fn metrics_for(cfg: &ClusterConfig, out: &ClusterOutcome) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    record_metrics(&mut reg, cfg, out, &[]);
    reg
}

/// Records trace-buffer health for a traced run: how many events the
/// ring buffer retained and how many it evicted under pressure. A
/// nonzero drop counter means the exported trace is truncated.
pub fn record_trace_health(reg: &mut MetricsRegistry, events: u64, dropped: u64) {
    reg.inc_counter(
        "ignite_trace_events_total",
        "Events retained in the trace ring buffer",
        &[],
        events,
    );
    reg.inc_counter(
        "ignite_trace_dropped_events_total",
        "Events evicted from the trace ring buffer under pressure",
        &[],
        dropped,
    );
}

/// Records one run into an existing registry under extra labels, so a
/// sweep can accumulate every point into a single exposition.
pub fn record_metrics(
    reg: &mut MetricsRegistry,
    cfg: &ClusterConfig,
    out: &ClusterOutcome,
    extra_labels: &[(&str, &str)],
) {
    fn with<'a>(
        base: &[(&'a str, &'a str)],
        more: &[(&'a str, &'a str)],
    ) -> Vec<(&'a str, &'a str)> {
        let mut v = base.to_vec();
        v.extend_from_slice(more);
        v
    }
    let base: Vec<(&str, &str)> = {
        let mut v = vec![("fe", cfg.fe.name.as_str())];
        v.extend_from_slice(extra_labels);
        v
    };

    reg.inc_counter(
        "ignite_cluster_invocations_total",
        "Invocations completed over the run",
        &base,
        out.invocations,
    );
    reg.set_gauge(
        "ignite_cluster_makespan_cycles",
        "Cycle of the last completion",
        &base,
        out.makespan as f64,
    );
    reg.set_gauge(
        "ignite_cluster_mean_utilization",
        "Mean core utilization over the makespan",
        &base,
        out.mean_utilization(),
    );
    reg.merge_histogram(
        "ignite_cluster_latency_cycles",
        "Invocation latency (arrival to completion)",
        &LATENCY_BUCKETS,
        &base,
        &out.latency_histogram,
        out.latency_sum,
    );
    for (p, v) in [(50u32, out.p50_latency), (95, out.p95_latency), (99, out.p99_latency)] {
        let q = format!("{}", f64::from(p) / 100.0);
        reg.set_gauge(
            "ignite_cluster_latency_quantile_cycles",
            "Nearest-rank latency percentiles",
            &with(&base, &[("quantile", q.as_str())]),
            v as f64,
        );
    }

    for (i, core) in out.cores.iter().enumerate() {
        let id = i.to_string();
        let labels = with(&base, &[("core", id.as_str())]);
        reg.inc_counter(
            "ignite_core_invocations_total",
            "Invocations served per core",
            &labels,
            core.invocations,
        );
        reg.inc_counter(
            "ignite_core_busy_cycles_total",
            "Busy cycles per core",
            &labels,
            core.busy_cycles,
        );
        reg.set_gauge(
            "ignite_core_utilization",
            "Busy fraction of the makespan per core",
            &labels,
            core.utilization,
        );
    }

    let st = &out.store;
    for (name, help, v) in [
        ("ignite_store_hits_total", "Metadata store hits", st.hits),
        ("ignite_store_misses_total", "Metadata store misses", st.misses),
        ("ignite_store_insertions_total", "Metadata store insertions", st.insertions),
        ("ignite_store_evictions_total", "Metadata store evictions", st.evictions),
        ("ignite_store_rejected_total", "Oversized regions rejected", st.rejected),
        ("ignite_store_bytes_evicted_total", "Bytes evicted from the store", st.bytes_evicted),
    ] {
        reg.inc_counter(name, help, &base, v);
    }
    reg.set_gauge(
        "ignite_store_footprint_bytes",
        "Store bytes resident at end of run",
        &base,
        out.footprint_bytes as f64,
    );
    reg.set_gauge(
        "ignite_store_peak_footprint_bytes",
        "Store bytes resident at the high-water mark",
        &base,
        out.peak_footprint_bytes as f64,
    );

    let total = out.total_result();
    for (name, help, v) in [
        ("ignite_replay_entries_restored_total", "BTB entries restored by replay", {
            total.replay.entries_restored
        }),
        ("ignite_replay_decode_errors_total", "Metadata regions dropped undecodable", {
            total.replay.decode_errors
        }),
        ("ignite_replay_entries_dropped_total", "Replay entries dropped", {
            total.replay.entries_dropped
        }),
        ("ignite_replay_stale_restored_total", "Stale entries restored then corrected", {
            total.replay.stale_restored
        }),
        ("ignite_replay_watchdog_abandons_total", "Replays abandoned by the watchdog", {
            total.replay.watchdog_abandons
        }),
        ("ignite_replay_unfinished_total", "Invocation ends with replay entries pending", {
            total.replay_unfinished
        }),
    ] {
        reg.inc_counter(name, help, &base, v);
    }

    // Per-node families only exist for non-default topologies, so
    // single-node expositions stay byte-identical to pre-multinode
    // output.
    if !cfg.topology.is_default() {
        for (i, nd) in out.nodes.iter().enumerate() {
            let id = i.to_string();
            let labels = with(&base, &[("node", id.as_str())]);
            for (name, help, v) in [
                ("ignite_node_submitted_total", "Invocations routed to the node", nd.submitted),
                ("ignite_node_completed_total", "Invocations completed on the node", nd.completed),
                ("ignite_node_dropped_total", "Invocations dropped on the node", nd.dropped),
                ("ignite_node_busy_cycles_total", "Busy cycles summed over node cores", {
                    nd.busy_cycles
                }),
                ("ignite_node_store_hits_total", "Node store hits", nd.store.hits),
                ("ignite_node_store_misses_total", "Node store misses", nd.store.misses),
                (
                    "ignite_node_keepalive_wasted_cycles_total",
                    "Keep-alive cycles past the last fetch of a protected region",
                    nd.wasted_keepalive_cycles,
                ),
            ] {
                reg.inc_counter(name, help, &labels, v);
            }
            reg.set_gauge(
                "ignite_node_queue_peak",
                "Peak queue depth observed on the node",
                &labels,
                nd.queue_peak as f64,
            );
            reg.set_gauge(
                "ignite_node_utilization",
                "Busy fraction of the makespan across node cores",
                &labels,
                nd.utilization,
            );
            reg.set_gauge(
                "ignite_node_store_hit_rate",
                "Node store hit rate",
                &labels,
                nd.store.hit_rate(),
            );
            reg.set_gauge(
                "ignite_node_store_footprint_bytes",
                "Node store bytes resident at end of run",
                &labels,
                nd.footprint_bytes as f64,
            );
            reg.set_gauge(
                "ignite_node_store_peak_footprint_bytes",
                "Node store bytes resident at the high-water mark",
                &labels,
                nd.peak_footprint_bytes as f64,
            );
        }
    }

    // Chaos counters only exist for runs with failure injection, so
    // chaos-free expositions stay byte-identical to pre-chaos output.
    if let Some(ch) = &out.chaos {
        for (name, help, v) in [
            ("ignite_chaos_submitted_total", "Invocations submitted to the cluster", ch.submitted),
            ("ignite_chaos_completed_total", "Invocations completed despite chaos", ch.completed),
            (
                "ignite_chaos_retried_to_success_total",
                "Invocations that completed after at least one failed attempt",
                ch.retried_to_success,
            ),
            ("ignite_chaos_attempts_failed_total", "Attempts killed or dropped", {
                ch.attempts_failed
            }),
            ("ignite_chaos_crash_kills_total", "Attempts killed by a core crash", ch.crash_kills),
            ("ignite_chaos_dispatch_drops_total", "Attempts lost at dispatch", ch.dispatch_drops),
            (
                "ignite_chaos_dropped_total",
                "Invocations dropped after exhausting their deadline",
                ch.dropped_deadline,
            ),
            (
                "ignite_chaos_dropped_retries_total",
                "Invocations dropped after exhausting their retry budget",
                ch.dropped_retries_exhausted,
            ),
            (
                "ignite_chaos_degraded_total",
                "Invocations degraded to cold execution",
                ch.degraded_total(),
            ),
            ("ignite_chaos_straggled_total", "Attempts slowed by a straggler window", ch.straggled),
            (
                "ignite_chaos_writeback_skipped_total",
                "Metadata writebacks skipped (store unavailable)",
                ch.writeback_skipped,
            ),
            (
                "ignite_chaos_store_regions_dropped_total",
                "Corrupt or lost store regions evicted",
                ch.store_regions_dropped,
            ),
            ("ignite_chaos_breaker_opens_total", "Circuit breaker open transitions", {
                ch.breaker_opens
            }),
            ("ignite_chaos_breaker_closes_total", "Circuit breaker close transitions", {
                ch.breaker_closes
            }),
            ("ignite_chaos_retry_cycles_total", "Cycles lost to failed attempts and backoff", {
                ch.retry_cycles
            }),
        ] {
            reg.inc_counter(name, help, &base, v);
        }
        for (reason, v) in [
            ("unavailable", ch.degraded_unavailable),
            ("corrupt", ch.degraded_corrupt),
            ("loss", ch.degraded_loss),
            ("breaker", ch.degraded_breaker),
        ] {
            reg.inc_counter(
                "ignite_chaos_degraded_by_reason_total",
                "Invocations degraded to cold execution, by reason",
                &with(&base, &[("reason", reason)]),
                v,
            );
        }
    }

    // Controller counters only exist for controller-on runs, so every
    // static-policy exposition stays byte-identical to pre-controller
    // output. All seven per-rule counters are always emitted (zeros
    // included) so absence of a rule is distinguishable from absence of
    // the controller.
    if let Some(ctrl) = &out.controller {
        for (name, help, v) in [
            ("ignite_ctrl_epochs_total", "Controller epoch evaluations", ctrl.epochs),
            ("ignite_ctrl_samples_total", "Invocations folded through the controller", {
                ctrl.samples
            }),
            (
                "ignite_ctrl_replay_denied_total",
                "Invocations dispatched with record/replay suppressed",
                ctrl.replay_denied,
            ),
            ("ignite_ctrl_store_denied_total", "Writebacks denied store admission", {
                ctrl.store_denied
            }),
        ] {
            reg.inc_counter(name, help, &base, v);
        }
        reg.set_gauge(
            "ignite_ctrl_active_cores",
            "Active-core cap per node at end of run",
            &base,
            ctrl.final_active_cores as f64,
        );
        for rule in ignite_obs::CtrlRule::ALL {
            reg.inc_counter(
                "ignite_ctrl_decisions_total",
                "Controller decisions actuated, by rule",
                &with(&base, &[("rule", rule.key())]),
                ctrl.fires(rule),
            );
        }
    }

    for f in &out.functions {
        let labels = with(&base, &[("function", f.abbr.as_str())]);
        reg.inc_counter(
            "ignite_function_invocations_total",
            "Invocations completed per function",
            &labels,
            f.invocations,
        );
        reg.set_gauge(
            "ignite_function_p99_latency_cycles",
            "Per-function 99th percentile latency",
            &labels,
            f.p99_latency as f64,
        );
        reg.set_gauge(
            "ignite_function_metadata_hit_rate",
            "Per-function metadata store hit rate",
            &labels,
            f.metadata_hit_rate(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use ignite_workloads::arrival::ArrivalConfig;

    fn run() -> (ClusterConfig, ClusterOutcome) {
        let cfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            ..ClusterConfig::default()
        };
        let out = ClusterSim::new(cfg.clone()).run();
        (cfg, out)
    }

    #[test]
    fn exposition_is_deterministic_and_complete() {
        let (cfg, out) = run();
        let a = metrics_for(&cfg, &out).expose();
        let b = metrics_for(&cfg, &out).expose();
        assert_eq!(a, b);
        for needle in [
            "ignite_cluster_invocations_total",
            "ignite_cluster_latency_cycles_bucket",
            "le=\"+Inf\"",
            "ignite_core_utilization",
            "ignite_store_hits_total",
            "ignite_replay_entries_restored_total",
            "ignite_function_p99_latency_cycles",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn histogram_count_matches_invocations() {
        let (cfg, out) = run();
        let text = metrics_for(&cfg, &out).expose();
        let count_line = text
            .lines()
            .find(|l| l.starts_with("ignite_cluster_latency_cycles_count"))
            .expect("histogram count present");
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(count, out.invocations);
    }

    #[test]
    fn chaos_families_appear_only_under_chaos() {
        let (cfg, out) = run();
        let plain = metrics_for(&cfg, &out).expose();
        assert!(
            !plain.contains("ignite_chaos_"),
            "chaos-free exposition must have no chaos family"
        );
        let ccfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            chaos: Some(ignite_chaos::ChaosPlan::default_preset().seeded(7)),
            ..ClusterConfig::default()
        };
        let cout = ClusterSim::new(ccfg.clone()).run();
        let text = metrics_for(&ccfg, &cout).expose();
        for needle in [
            "ignite_chaos_submitted_total",
            "ignite_chaos_completed_total",
            "ignite_chaos_degraded_by_reason_total",
            "reason=\"corrupt\"",
            "ignite_chaos_retry_cycles_total",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn ctrl_families_appear_only_under_a_controller() {
        let (cfg, out) = run();
        let plain = metrics_for(&cfg, &out).expose();
        assert!(!plain.contains("ignite_ctrl_"), "plain exposition must have no ctrl family");
        let mut cout = out;
        cout.controller = Some(crate::policy::ControllerStats {
            epochs: 16,
            decisions: vec![crate::policy::Decision {
                at: 50_000,
                epoch: 0,
                rule: ignite_obs::CtrlRule::CoresDown,
                function: u32::MAX,
                value: 1,
                observed: 100,
                threshold: 400_000,
            }],
            samples: 500,
            replay_denied: 12,
            store_denied: 3,
            final_active_cores: 1,
        });
        let a = metrics_for(&cfg, &cout).expose();
        assert_eq!(a, metrics_for(&cfg, &cout).expose(), "exposition must be deterministic");
        for needle in [
            "ignite_ctrl_epochs_total",
            "ignite_ctrl_samples_total",
            "ignite_ctrl_replay_denied_total",
            "ignite_ctrl_store_denied_total",
            "ignite_ctrl_active_cores",
            "rule=\"cores_down\"",
            // Zero counters are still exposed: absence of a rule must be
            // distinguishable from absence of the controller.
            "rule=\"keepalive_retune\"",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn node_families_appear_only_under_multinode() {
        let (cfg, out) = run();
        let plain = metrics_for(&cfg, &out).expose();
        assert!(!plain.contains("ignite_node_"), "single-node exposition must have no node family");
        let mcfg = ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 800_000, ..ArrivalConfig::default() },
            topology: crate::sim::Topology {
                nodes: 2,
                scheduler: crate::sched::SchedulerKind::LeastLoaded,
                keepalive: crate::keepalive::KeepAliveKind::Fixed { window_cycles: 50_000 },
            },
            ..ClusterConfig::default()
        };
        let mout = ClusterSim::new(mcfg.clone()).run();
        let text = metrics_for(&mcfg, &mout).expose();
        for needle in [
            "ignite_node_submitted_total",
            "ignite_node_store_hit_rate",
            "ignite_node_keepalive_wasted_cycles_total",
            "node=\"1\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn sweep_points_share_one_registry_under_labels() {
        let (cfg, out) = run();
        let mut reg = MetricsRegistry::new();
        record_metrics(&mut reg, &cfg, &out, &[("store_capacity", "4096")]);
        record_metrics(&mut reg, &cfg, &out, &[("store_capacity", "65536")]);
        let text = reg.expose();
        assert!(text.contains("store_capacity=\"4096\""));
        assert!(text.contains("store_capacity=\"65536\""));
    }
}
