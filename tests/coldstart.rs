//! Cold-start accounting gates, dslab-faas style, on hand-checkable
//! micro-traces: per-function cold/lukewarm/warm start counts, the
//! slowdown ratio against the function's own best (always-warm)
//! service time, and wasted keep-alive core-cycles with exact expected
//! values derived by hand from the schedule.

use ignite_cluster::{
    ClusterConfig, ClusterOutcome, ClusterSim, KeepAliveKind, SchedulerKind, StaticPolicy, Topology,
};
use ignite_obs::NullSink;
use ignite_workloads::arrival::{Arrival, Trace, TraceSource};

const WINDOW: u64 = 30_000;

fn at(cycle: u64, function: u32) -> Arrival {
    Arrival { cycle, function }
}

/// Replays `trace` on a fresh cluster built from `cfg`.
fn run_trace(cfg: ClusterConfig, trace: &Trace) -> ClusterOutcome {
    let mut source = TraceSource::new(trace);
    ClusterSim::new(cfg).run_source_policy_obs(&mut source, &mut NullSink, &mut StaticPolicy)
}

/// Two nodes, one core each, affinity routing, fixed keep-alive.
///
/// Hand-traced schedule: f0 arrives at 0 and routes to node 0 (no
/// holder yet; least-loaded fallback, tie to index 0). f1 arrives at
/// cycle 1 while node 0's only core is busy, so least-loaded sends it
/// to node 1. Every later arrival of each function finds its metadata
/// on its home node and affinity keeps it there: node 0 serves f0
/// three times, node 1 serves f1 twice, each function alone on its
/// core.
fn two_node_cfg() -> ClusterConfig {
    ClusterConfig {
        cores: 1,
        topology: Topology {
            nodes: 2,
            scheduler: SchedulerKind::Affinity,
            keepalive: KeepAliveKind::Fixed { window_cycles: WINDOW },
        },
        ..ClusterConfig::default()
    }
}

fn two_node_trace() -> Trace {
    Trace {
        functions: 2,
        arrivals: vec![at(0, 0), at(1, 1), at(200_000, 0), at(200_001, 1), at(400_000, 0)],
    }
}

#[test]
fn micro_trace_counts_cold_and_warm_starts_exactly() {
    let out = run_trace(two_node_cfg(), &two_node_trace());
    assert!(out.makespan < 500_000, "services must fit the 200k gaps: {}", out.makespan);
    let f0 = &out.functions[0];
    let f1 = &out.functions[1];
    // First sight of each function is a store miss (cold); every rerun
    // finds its region on its home node with zero interleaving
    // distance (warm). Nothing ever runs lukewarm here: each function
    // owns its core outright.
    assert_eq!(
        (f0.cold_starts, f0.lukewarm_starts, f0.warm_starts),
        (1, 0, 2),
        "f0 temperature split"
    );
    assert_eq!(
        (f1.cold_starts, f1.lukewarm_starts, f1.warm_starts),
        (1, 0, 1),
        "f1 temperature split"
    );
    assert_eq!(f0.cold_starts + f0.lukewarm_starts + f0.warm_starts, f0.invocations);
    assert_eq!(f1.cold_starts + f1.lukewarm_starts + f1.warm_starts, f1.invocations);
}

#[test]
fn micro_trace_routes_and_conserves_per_node() {
    let out = run_trace(two_node_cfg(), &two_node_trace());
    assert_eq!(out.nodes.len(), 2);
    assert_eq!(out.nodes[0].submitted, 3, "f0's three arrivals stay on node 0");
    assert_eq!(out.nodes[1].submitted, 2, "f1's two arrivals stay on node 1");
    for (i, nd) in out.nodes.iter().enumerate() {
        assert_eq!(nd.dropped, 0, "node {i}: chaos-free run drops nothing");
        assert_eq!(
            nd.submitted,
            nd.completed + nd.dropped,
            "node {i}: conservation must hold exactly"
        );
    }
    assert_eq!(out.nodes[0].store.misses, 1, "only f0's first fetch misses on node 0");
    assert_eq!(out.nodes[0].store.hits, 2);
    assert_eq!(out.nodes[1].store.misses, 1);
    assert_eq!(out.nodes[1].store.hits, 1);
}

/// Wasted keep-alive cycles, dslab-faas accounting: a kept-warm region
/// that expires unused charges its whole window. Hand count: f0's
/// first two episodes expire (30k each) before the next 200k-spaced
/// arrival, its final slot opens exactly at the makespan (0 idle);
/// f1's first episode expires (30k) and its final slot's full window
/// elapses before the makespan (30k). So 60k cycles per node and per
/// function, 120k total.
#[test]
fn micro_trace_charges_wasted_keepalive_exactly() {
    let out = run_trace(two_node_cfg(), &two_node_trace());
    assert_eq!(out.functions[0].wasted_keepalive_cycles, 2 * WINDOW, "f0 wasted");
    assert_eq!(out.functions[1].wasted_keepalive_cycles, 2 * WINDOW, "f1 wasted");
    assert_eq!(out.nodes[0].wasted_keepalive_cycles, 2 * WINDOW, "node 0 wasted");
    assert_eq!(out.nodes[1].wasted_keepalive_cycles, 2 * WINDOW, "node 1 wasted");
    assert_eq!(out.wasted_keepalive_cycles(), 4 * WINDOW, "cluster-wide wasted");
}

/// Slowdown against always-warm: the cold first start costs more than
/// the best (warm, replayed) service, so mean service exceeds the
/// minimum and the reported slowdown is at least 1.
#[test]
fn micro_trace_reports_slowdown_against_always_warm() {
    let out = run_trace(two_node_cfg(), &two_node_trace());
    for f in out.functions.iter().take(2) {
        assert!(f.min_service > 0, "{}: min service recorded", f.abbr);
        assert!(
            f.min_service as f64 <= f.mean_service,
            "{}: min {} must not exceed mean {}",
            f.abbr,
            f.min_service,
            f.mean_service
        );
        assert!(f.slowdown() >= 1.0, "{}: slowdown {}", f.abbr, f.slowdown());
    }
    // Functions the trace never invokes report inert zeros.
    let idle = &out.functions[2];
    assert_eq!(idle.invocations, 0);
    assert_eq!(idle.min_service, 0);
    assert_eq!(idle.slowdown(), 0.0);
}

/// One node, one core, interleaved functions: the rerun of f0 finds
/// its metadata (a store hit) but one foreign invocation ran in
/// between, so it restarts lukewarm — partially displaced, neither
/// cold nor warm.
#[test]
fn interleaving_turns_warm_starts_lukewarm() {
    let cfg = ClusterConfig {
        cores: 1,
        topology: Topology {
            nodes: 1,
            scheduler: SchedulerKind::Fifo,
            keepalive: KeepAliveKind::None,
        },
        ..ClusterConfig::default()
    };
    let trace = Trace { functions: 2, arrivals: vec![at(0, 0), at(100_000, 1), at(200_000, 0)] };
    let out = run_trace(cfg, &trace);
    let f0 = &out.functions[0];
    let f1 = &out.functions[1];
    assert_eq!(
        (f0.cold_starts, f0.lukewarm_starts, f0.warm_starts),
        (1, 1, 0),
        "f0: cold then lukewarm"
    );
    assert_eq!((f1.cold_starts, f1.lukewarm_starts, f1.warm_starts), (1, 0, 0));
    // Keep-alive off: nothing is ever charged as wasted.
    assert_eq!(out.wasted_keepalive_cycles(), 0);
    assert_eq!(out.functions[0].wasted_keepalive_cycles, 0);
}
