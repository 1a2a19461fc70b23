//! Node-placement policies for the multi-node cluster.
//!
//! A cluster run routes every arrival (and nothing else — retries stay
//! on the node that first accepted the job, so the per-node conservation
//! law `submitted == completed + dropped` is exact) through one
//! [`SchedulerKind`]. Placement sees a [`NodeLoad`] snapshot per node and
//! picks an index; every comparison ends in the node index, so placement
//! is a pure function of the loads, and a fixed `(seed, config)`
//! reproduces the routing bit-exactly in any process.
//!
//! A single-node run never asks for a placement: routing sends every
//! arrival to node 0 directly, which is what keeps `--nodes 1` runs
//! byte-identical to the committed single-node goldens regardless of the
//! scheduler named on the command line.

use crate::sim::ConfigError;

/// Which placement policy routes arrivals onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The single-queue legacy policy, generalized as first-fit: the
    /// lowest-indexed node with a free core, else the shortest queue.
    /// The default — and the only policy a 1-node cluster ever needs.
    Fifo,
    /// The node with the fewest outstanding jobs (busy cores + queued),
    /// ties to fewer queued, then lowest index.
    LeastLoaded,
    /// Metadata-affinity: steer to the node whose store already holds
    /// the function's Ignite stream (least-loaded among holders),
    /// trading queue delay for replay hits; falls back to least-loaded
    /// when no node holds it.
    Affinity,
}

impl SchedulerKind {
    /// Stable spec string, as written into reports (inverse of
    /// [`SchedulerKind::parse`]).
    pub fn spec(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::LeastLoaded => "least-loaded",
            SchedulerKind::Affinity => "affinity",
        }
    }

    /// Parses a scheduler spec: `fifo`, `least-loaded` or `affinity`.
    /// Typos come back as a typed [`ConfigError::UnknownScheduler`],
    /// never a panic.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        match spec {
            "fifo" => Ok(SchedulerKind::Fifo),
            "least-loaded" => Ok(SchedulerKind::LeastLoaded),
            "affinity" => Ok(SchedulerKind::Affinity),
            _ => Err(ConfigError::UnknownScheduler { spec: spec.to_string() }),
        }
    }

    /// Picks the node for one job.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    pub fn pick(self, loads: &[NodeLoad]) -> usize {
        let least_loaded = |holders_only: bool| {
            (0..loads.len())
                .filter(|&i| !holders_only || loads[i].holds_metadata)
                .min_by_key(|&i| (loads[i].outstanding(), loads[i].queued, i))
        };
        let node = match self {
            SchedulerKind::Fifo => (0..loads.len())
                .find(|&i| loads[i].free_cores > 0)
                .or_else(|| (0..loads.len()).min_by_key(|&i| (loads[i].queued, i))),
            SchedulerKind::LeastLoaded => least_loaded(false),
            SchedulerKind::Affinity => least_loaded(true).or_else(|| least_loaded(false)),
        };
        node.expect("cannot place a job on zero nodes")
    }
}

/// What the scheduler may inspect about one node when placing a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLoad {
    /// Cores currently serving an invocation (or held by a crash).
    pub busy_cores: usize,
    /// Jobs waiting in the node's dispatch queue.
    pub queued: usize,
    /// Cores neither busy nor held; first-fit targets these.
    pub free_cores: usize,
    /// Whether the node's metadata store holds the function's region
    /// (probed without counting a hit or a miss).
    pub holds_metadata: bool,
}

impl NodeLoad {
    /// Outstanding work: jobs holding a core plus jobs waiting for one.
    pub fn outstanding(&self) -> usize {
        self.busy_cores + self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(busy: usize, queued: usize, free: usize, holds: bool) -> NodeLoad {
        NodeLoad { busy_cores: busy, queued, free_cores: free, holds_metadata: holds }
    }

    #[test]
    fn specs_round_trip() {
        for kind in [SchedulerKind::Fifo, SchedulerKind::LeastLoaded, SchedulerKind::Affinity] {
            assert_eq!(SchedulerKind::parse(kind.spec()), Ok(kind));
        }
        for bad in ["", "fifo ", "least_loaded", "random", "random:2", "affinty"] {
            assert!(SchedulerKind::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Routing never asks for a placement on one node, and every policy
    /// would pick node 0 there anyway.
    #[test]
    fn single_node_short_circuits_every_policy() {
        let loads = [load(3, 9, 0, false)];
        for kind in [SchedulerKind::Fifo, SchedulerKind::LeastLoaded, SchedulerKind::Affinity] {
            assert_eq!(kind.pick(&loads), 0);
        }
    }

    #[test]
    fn fifo_first_fits_then_falls_back_to_shortest_queue() {
        let s = SchedulerKind::Fifo;
        assert_eq!(s.pick(&[load(2, 3, 0, false), load(1, 0, 1, false)]), 1);
        // Nothing free: shortest queue, ties to the lowest index.
        assert_eq!(s.pick(&[load(2, 3, 0, false), load(2, 1, 0, false)]), 1);
        assert_eq!(s.pick(&[load(2, 1, 0, false), load(2, 1, 0, false)]), 0);
    }

    #[test]
    fn least_loaded_minimizes_outstanding_work() {
        let s = SchedulerKind::LeastLoaded;
        assert_eq!(s.pick(&[load(2, 2, 0, false), load(1, 0, 1, false), load(2, 1, 0, false)]), 1);
        // Equal outstanding: fewer queued wins, then the lower index.
        assert_eq!(s.pick(&[load(0, 2, 2, false), load(1, 1, 1, false)]), 1);
        assert_eq!(s.pick(&[load(1, 1, 1, false), load(1, 1, 1, false)]), 0);
    }

    #[test]
    fn affinity_steers_to_the_holder_even_when_busier() {
        let s = SchedulerKind::Affinity;
        // Node 1 holds the region and is busier; affinity still takes it.
        assert_eq!(s.pick(&[load(0, 0, 2, false), load(2, 3, 0, true)]), 1);
        // Several holders: least loaded among them.
        assert_eq!(s.pick(&[load(2, 2, 0, true), load(1, 0, 1, true), load(0, 0, 2, false)]), 1);
        // No holder: plain least-loaded fallback.
        assert_eq!(s.pick(&[load(2, 2, 0, false), load(0, 0, 2, false)]), 1);
    }
}
