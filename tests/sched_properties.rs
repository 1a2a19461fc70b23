//! Scheduler-invariant property suite: the laws every placement policy
//! must obey regardless of workload, seed, or node numbering.
//!
//! 1. Work conservation — under least-loaded routing, no invocation
//!    waits in a node's queue while any core on that node sits idle
//!    (reconstructed from the event timeline: every queued interval is
//!    covered by invocation spans on every core of the node).
//! 2. Placement determinism — a fixed `(seed, config)` reproduces the
//!    whole outcome exactly, even for the stochastic random:N policy.
//! 3. Tie-break stability — permuting the node order never changes
//!    *what kind* of node a deterministic policy picks: the chosen
//!    load key (and holder status, for affinity) is invariant under
//!    renumbering.
//! 4. Per-node conservation — `submitted == completed + dropped` holds
//!    on every node for arbitrary seeds, with and without chaos.

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    ClusterConfig, ClusterSim, KeepAliveKind, NodeLoad, Scheduler, SchedulerKind, StaticPolicy,
    Topology,
};
use ignite_obs::{EventKind, TraceBuffer, Track};
use proptest::prelude::*;

fn multinode_cfg(
    nodes: usize,
    scheduler: SchedulerKind,
    keepalive: KeepAliveKind,
) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        cores: 2,
        topology: Topology { nodes, scheduler, keepalive },
        ..ClusterConfig::default()
    };
    cfg.arrival.horizon_cycles = 600_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

/// Merged busy intervals (invocation spans) per global core index.
fn busy_intervals(buf: &TraceBuffer, total_cores: usize) -> Vec<Vec<(u64, u64)>> {
    let mut per_core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); total_cores];
    for ev in buf.iter() {
        if let (Track::Core(ci), EventKind::Invocation { .. }) = (ev.track, ev.kind) {
            per_core[ci as usize].push((ev.ts, ev.ts + ev.dur));
        }
    }
    for spans in &mut per_core {
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for &(s, e) in spans.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *spans = merged;
    }
    per_core
}

fn covers(spans: &[(u64, u64)], start: u64, end: u64) -> bool {
    spans.iter().any(|&(s, e)| s <= start && end <= e)
}

#[test]
fn least_loaded_is_work_conserving() {
    let cfg = multinode_cfg(3, SchedulerKind::LeastLoaded, KeepAliveKind::None);
    let cores_per_node = cfg.cores;
    let total_cores = cores_per_node * cfg.topology.nodes;
    let mut buf = TraceBuffer::new(1 << 20);
    let mut source = cfg.arrival.source();
    ClusterSim::new(cfg).run_source_policy_obs(&mut source, &mut buf, &mut StaticPolicy);
    assert_eq!(buf.dropped(), 0, "trace buffer must hold the whole run");
    let busy = busy_intervals(&buf, total_cores);
    let mut queued_dispatches = 0u64;
    for ev in buf.iter() {
        if let (Track::Core(ci), EventKind::Dispatch { queue_cycles, .. }) = (ev.track, ev.kind) {
            if queue_cycles == 0 {
                continue;
            }
            queued_dispatches += 1;
            let node = ci as usize / cores_per_node;
            let (wait_start, wait_end) = (ev.ts - queue_cycles, ev.ts);
            for local in 0..cores_per_node {
                let gci = node * cores_per_node + local;
                assert!(
                    covers(&busy[gci], wait_start, wait_end),
                    "work-conservation violated: a job queued on node {node} over \
                     [{wait_start}, {wait_end}) while core {gci} had an idle gap"
                );
            }
        }
    }
    assert!(queued_dispatches > 0, "workload too light to exercise queueing — raise the rate");
}

#[test]
fn placement_is_deterministic_under_a_fixed_seed() {
    for kind in [
        SchedulerKind::Random { choices: 2 },
        SchedulerKind::Random { choices: 3 },
        SchedulerKind::Affinity,
        SchedulerKind::LeastLoaded,
    ] {
        let cfg = multinode_cfg(3, kind, KeepAliveKind::Hybrid { default_window_cycles: 50_000 });
        let first = ClusterSim::new(cfg.clone()).run();
        let second = ClusterSim::new(cfg).run();
        assert_eq!(first, second, "{} must reproduce the outcome bit-exactly", kind.spec());
    }
}

fn node_load_strategy() -> impl Strategy<Value = NodeLoad> {
    (0usize..4, 0usize..6, 0usize..4, any::<bool>()).prop_map(|(busy, queued, free, holds)| {
        NodeLoad { busy_cores: busy, queued, free_cores: free, holds_metadata: holds }
    })
}

fn load_key(l: &NodeLoad) -> (usize, usize) {
    (l.outstanding(), l.queued)
}

proptest! {
    /// Renumbering the nodes must not change the class of node a
    /// deterministic policy selects: least-loaded always picks a
    /// minimal load key, and affinity picks a minimal key among
    /// holders whenever any node holds the metadata.
    #[test]
    fn tie_breaks_are_stable_across_node_renumbering(
        loads in proptest::collection::vec(node_load_strategy(), 2..6),
        rotation in 0usize..6,
    ) {
        let rot = rotation % loads.len();
        let mut renumbered = loads.clone();
        renumbered.rotate_left(rot);

        let mut ll = Scheduler::new(SchedulerKind::LeastLoaded, 9);
        let a = loads[ll.pick(&loads)];
        let b = renumbered[ll.pick(&renumbered)];
        prop_assert_eq!(load_key(&a), load_key(&b), "least-loaded key drifted under renumbering");
        let min_key = loads.iter().map(load_key).min().expect("non-empty");
        prop_assert_eq!(load_key(&a), min_key, "least-loaded must pick a global minimum");

        let mut af = Scheduler::new(SchedulerKind::Affinity, 9);
        let a = loads[af.pick(&loads)];
        let b = renumbered[af.pick(&renumbered)];
        prop_assert_eq!(a.holds_metadata, b.holds_metadata, "holder status drifted");
        prop_assert_eq!(load_key(&a), load_key(&b), "affinity key drifted under renumbering");
        if loads.iter().any(|l| l.holds_metadata) {
            prop_assert!(a.holds_metadata, "affinity must prefer a metadata holder");
            let holder_min = loads
                .iter()
                .filter(|l| l.holds_metadata)
                .map(load_key)
                .min()
                .expect("a holder exists");
            prop_assert_eq!(load_key(&a), holder_min, "affinity must take the lightest holder");
        }
    }
}

proptest! {
    // Each case is a full 600k-cycle cluster run; a handful of seeds is
    // plenty to catch a broken ledger without slowing the suite.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every node's ledger balances for arbitrary chaos seeds and node
    /// counts: jobs either complete or terminally drop on the node that
    /// accepted them, and the cluster-wide sums agree.
    #[test]
    fn per_node_ledgers_conserve_under_chaos(
        chaos_seed in 0u64..1_000,
        nodes in 2usize..5,
        chaos_on in any::<bool>(),
    ) {
        let mut cfg = multinode_cfg(
            nodes,
            SchedulerKind::Random { choices: 2 },
            KeepAliveKind::Fixed { window_cycles: 40_000 },
        );
        if chaos_on {
            cfg.chaos = Some(ChaosPlan::default_preset().seeded(chaos_seed));
        }
        let out = ClusterSim::new(cfg).run();
        prop_assert_eq!(out.nodes.len(), nodes);
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut dropped = 0u64;
        for (i, nd) in out.nodes.iter().enumerate() {
            prop_assert_eq!(
                nd.submitted,
                nd.completed + nd.dropped,
                "node {} ledger out of balance (seed {})", i, chaos_seed
            );
            submitted += nd.submitted;
            completed += nd.completed;
            dropped += nd.dropped;
        }
        prop_assert_eq!(completed, out.invocations, "node completions must sum to the total");
        prop_assert_eq!(
            submitted, completed + dropped,
            "cluster-wide conservation (seed {})", chaos_seed
        );
        if !chaos_on {
            prop_assert_eq!(dropped, 0, "nothing drops without chaos");
        }
    }
}
