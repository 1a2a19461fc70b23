//! Prometheus-style metrics exposition of a cluster run.
//!
//! The exposition is a projection of the run's [`ClusterReport`]: its
//! walk, in [`crate::json::Walker::gauges`] mode, sets one gauge per
//! number the report writes, named `ignite_cluster_` and the number's
//! path (`totals.p99_latency_cycles` is
//! `ignite_cluster_totals_p99_latency_cycles`), with a row's first entry
//! (`core`, `node`, `function`) as its label. The one family no report
//! holds is the latency histogram on the [`LATENCY_BUCKETS`] grid. So the
//! report and the exposition cannot disagree, and the registry's
//! exposition is byte-deterministic: two same-seed runs — in different
//! processes — emit identical metrics text (the `obs` integration tests
//! rely on this).
//!
//! Callers that sweep a parameter pass the swept value through `labels`
//! (e.g. `store_capacity` for the capacity sweep) so one scrape file can
//! hold every point of the sweep.

use ignite_obs::MetricsRegistry;

use crate::report::ClusterReport;
use crate::sim::{ClusterConfig, ClusterOutcome, LATENCY_BUCKETS};

/// Builds the metrics registry for one finished run.
pub fn metrics_for(cfg: &ClusterConfig, out: &ClusterOutcome) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    record_metrics(&mut reg, ClusterReport::new(cfg.clone(), out.clone()), &[]);
    reg
}

/// Records a run's report into an existing registry under `labels`: a
/// gauge for each of its numbers, and its latency histogram. Every
/// sample is set, not added to, so recording a run twice writes what
/// recording it once does.
pub fn record_metrics(
    reg: &mut MetricsRegistry,
    mut report: ClusterReport,
    labels: &[(&str, &str)],
) {
    report.set_gauges(reg, labels);
    let out = &report.outcome;
    reg.set_histogram(
        "ignite_cluster_latency_cycles",
        "Invocation latency (arrival to completion)",
        &LATENCY_BUCKETS,
        labels,
        &out.latency_histogram,
        out.latency_sum,
    );
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
            "ignite_cluster_totals_invocations",
            "ignite_cluster_latency_cycles_bucket",
            "le=\"+Inf\"",
            "ignite_cluster_cores_utilization",
            "ignite_cluster_store_hits",
            "ignite_cluster_replay_entries_restored",
            "ignite_cluster_functions_p99_latency_cycles",
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
            !plain.contains("ignite_cluster_chaos_"),
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
            "ignite_cluster_chaos_submitted",
            "ignite_cluster_chaos_completed",
            "ignite_cluster_chaos_degraded_unavailable",
            "ignite_cluster_chaos_degraded_corrupt",
            "ignite_cluster_chaos_retry_cycles",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn ctrl_families_appear_only_under_a_controller() {
        let (cfg, out) = run();
        let plain = metrics_for(&cfg, &out).expose();
        let ctrl = "ignite_cluster_controller_";
        assert!(!plain.contains(ctrl), "plain exposition must have no controller family");
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
            "ignite_cluster_controller_epochs 16\n",
            "ignite_cluster_controller_samples 500\n",
            "ignite_cluster_controller_replay_denied 12\n",
            "ignite_cluster_controller_store_denied 3\n",
            "ignite_cluster_controller_final_active_cores 1\n",
            "ignite_cluster_controller_fires_cores_down 1\n",
            // Zero counts are still exposed: absence of a rule must be
            // distinguishable from absence of the controller.
            "ignite_cluster_controller_fires_keepalive_retune 0\n",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn node_families_appear_only_under_multinode() {
        let (cfg, out) = run();
        let plain = metrics_for(&cfg, &out).expose();
        let nodes = "ignite_cluster_nodes_";
        assert!(!plain.contains(nodes), "single-node exposition must have no node family");
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
            "ignite_cluster_nodes_submitted",
            "ignite_cluster_nodes_store_hit_rate",
            "ignite_cluster_nodes_wasted_keepalive_cycles",
            "node=\"1\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn sweep_points_share_one_registry_under_labels() {
        let (cfg, out) = run();
        let mut reg = MetricsRegistry::new();
        let report = ClusterReport::new(cfg, out);
        record_metrics(&mut reg, report.clone(), &[("store_capacity", "4096")]);
        record_metrics(&mut reg, report, &[("store_capacity", "65536")]);
        let text = reg.expose();
        assert!(text.contains("store_capacity=\"4096\""));
        assert!(text.contains("store_capacity=\"65536\""));
    }
}
