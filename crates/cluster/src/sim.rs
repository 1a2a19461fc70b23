//! The discrete-event cluster simulation proper.
//!
//! Two event sources drive the loop: trace arrivals and core completions.
//! Invocations queue FIFO; a free core with the lowest index takes the
//! head of the queue. At equal timestamps, completions are processed
//! before arrivals (a core freed at cycle `t` can serve a request arriving
//! at `t`), and cores free in index order — every tie-break is total, so a
//! fixed (seed, config) reproduces the run bit-exactly in any process.
//!
//! Each core owns a persistent [`Machine`] that is **never flushed**:
//! whatever function ran last left its code in the caches and its branches
//! in the BTB, and the next function finds exactly as much of its own
//! state as the interleaving allowed to survive. Only the abstract
//! back-end data model needs help — the per-(core, function) interleaving
//! distance sets [`InvocationCtx::data_cold_fraction`].
//!
//! [`ClusterSim::run_source_policy_obs`] is the one way to run a cluster,
//! and [`ClusterSim::run`] is its shorthand for the configured arrival
//! process. Inside, a private `Run` takes each loop iteration through
//! explicit stages: epoch, dispatch (admit, then serve: stage → execute →
//! take_writeback → crash → commit), then next event → release → route.

use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

use ignite_chaos::{ChaosPlan, ChaosState, ChaosStats, CircuitBreaker, RetryPolicy};
use ignite_core::codec::Metadata;
use ignite_core::{MetadataStore, StoreConfig, StoreStats};
use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::{Machine, PreparedFunction};
use ignite_engine::metrics::InvocationResult;
use ignite_engine::sim::{run_invocation_obs, InvocationCtx};
use ignite_obs::{DegradeReason, DropReason, Event, EventKind, EventSink, NullSink, Track};
use ignite_traffic::{FingerprintAccum, WorkloadFingerprint};
use ignite_uarch::UarchConfig;
use ignite_workloads::arrival::{Arrival, ArrivalConfig, ArrivalSource};
use ignite_workloads::suite::Suite;

use crate::fanout::{self, PanicFailure};
use crate::keepalive::{KeepAliveKind, KeepAliveRt};
use crate::policy::{ClusterGauges, ControllerStats, PolicyHook, PolicySample, StaticPolicy};
use crate::sched::{NodeLoad, Scheduler, SchedulerKind};

/// Inclusive upper bounds of the cluster latency histogram, in cycles
/// (doubling grid; latencies above the last bound land in the implicit
/// overflow bucket). [`ClusterOutcome::latency_histogram`] and the
/// metrics exposition in [`crate::prom`] share this grid.
pub const LATENCY_BUCKETS: [u64; 10] = [
    50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 6_400_000, 12_800_000,
    25_600_000,
];

/// Cluster topology: how many nodes there are and which placement and
/// keep-alive policies govern them. The default — one node, FIFO
/// first-fit, no keep-alive — is the pre-multinode simulator exactly,
/// and every committed golden was produced under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of nodes. Each node owns [`ClusterConfig::cores`] cores,
    /// its own metadata store, and its own chaos failure domain.
    pub nodes: usize,
    /// Placement policy routing arrivals onto nodes.
    pub scheduler: SchedulerKind,
    /// Post-completion pinning policy for Ignite regions.
    pub keepalive: KeepAliveKind,
}

impl Default for Topology {
    fn default() -> Self {
        Topology { nodes: 1, scheduler: SchedulerKind::Fifo, keepalive: KeepAliveKind::None }
    }
}

impl Topology {
    /// Whether this is the single-node legacy topology. Reports,
    /// metrics, and traces gate every multi-node section on this, so
    /// `--nodes 1 --scheduler fifo` output stays byte-identical to the
    /// committed goldens.
    pub fn is_default(&self) -> bool {
        *self == Topology::default()
    }
}

/// A configuration the simulator refuses to run, with enough structure
/// for callers to match on. [`std::fmt::Display`] names the offending
/// field; the CLI prints it and exits nonzero instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `topology.nodes == 0`.
    ZeroNodes,
    /// `cores == 0` (cores are per node).
    ZeroCores,
    /// A float field that must be finite and positive was not.
    NonPositive {
        /// Field name as spelled in the config.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `arrival.zipf_s` was negative or non-finite.
    BadZipf {
        /// The rejected value.
        value: f64,
    },
    /// `retry.max_attempts == 0` (the first attempt counts).
    ZeroRetryAttempts,
    /// `retry.jitter_ppm` above the PPM scale.
    JitterOverScale {
        /// The rejected value.
        got: u32,
    },
    /// A straggle window that would *speed cores up*.
    StraggleFactorTooSmall {
        /// The rejected milli-factor.
        got: u32,
    },
    /// A chaos stream with an MTBF but no duration.
    ZeroChaosDuration {
        /// Which stream: `crash`, `straggle`, or `store_unavail`.
        stream: &'static str,
    },
    /// A scheduler spec that parses to nothing (typo guard).
    UnknownScheduler {
        /// The rejected spec string.
        spec: String,
    },
    /// A keep-alive spec that parses to nothing (typo guard).
    UnknownKeepAlive {
        /// The rejected spec string.
        spec: String,
    },
    /// `random:N` scheduler with zero choices.
    ZeroSchedulerChoices,
    /// A fixed/hybrid keep-alive with a zero window.
    ZeroKeepAliveWindow,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "topology.nodes must be at least 1"),
            ConfigError::ZeroCores => write!(f, "cores must be at least 1"),
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be finite and positive, got {value}")
            }
            ConfigError::BadZipf { value } => {
                write!(f, "zipf_s must be finite and non-negative, got {value}")
            }
            ConfigError::ZeroRetryAttempts => write!(f, "retry.max_attempts must be at least 1"),
            ConfigError::JitterOverScale { got } => {
                write!(
                    f,
                    "retry.jitter_ppm must be at most {}, got {got}",
                    ignite_core::fault::PPM_SCALE
                )
            }
            ConfigError::StraggleFactorTooSmall { got } => {
                write!(f, "chaos.straggle_factor_milli must be at least 1000, got {got}")
            }
            ConfigError::ZeroChaosDuration { stream } => {
                write!(f, "chaos.{stream}_mtbf_cycles is set but its duration is 0")
            }
            ConfigError::UnknownScheduler { spec } => {
                write!(
                    f,
                    "unknown scheduler spec {spec:?} (want fifo, least-loaded, random[:N], \
                     or affinity)"
                )
            }
            ConfigError::UnknownKeepAlive { spec } => {
                write!(
                    f,
                    "unknown keepalive spec {spec:?} (want none, fixed:CYCLES, or hybrid[:CYCLES])"
                )
            }
            ConfigError::ZeroSchedulerChoices => {
                write!(f, "scheduler random choices must be at least 1")
            }
            ConfigError::ZeroKeepAliveWindow => {
                write!(f, "keepalive window_cycles must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything that defines one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated cores **per node**.
    pub cores: usize,
    /// Node count and the placement/keep-alive policies over them.
    pub topology: Topology,
    /// Front-end configuration of every core.
    pub fe: FrontEndConfig,
    /// Workload suite scale (1.0 = paper scale).
    pub scale: f64,
    /// Arrival process parameters (ignored when replaying a trace).
    pub arrival: ArrivalConfig,
    /// Node-wide metadata store sizing and policy.
    pub store: StoreConfig,
    /// Interleaving distance (invocations by *other* functions on the same
    /// core) at which a function's data working set counts as fully cold.
    pub distance_saturation: f64,
    /// Metadata transfer bandwidth between the node store and a core's
    /// replay engine; fetch/writeback cycles are charged to service time.
    pub dram_bytes_per_cycle: f64,
    /// Failure injection schedule. `None` (the default) disables the
    /// chaos layer entirely: the simulation takes the exact pre-chaos
    /// code paths and produces byte-identical reports (the
    /// zero-cost-when-off contract, same bar as observability).
    pub chaos: Option<ChaosPlan>,
    /// Recovery policy (deadlines, retry/backoff, circuit breaker).
    /// Only consulted when `chaos` is set.
    pub retry: RetryPolicy,
    /// The raw `--traffic` spec string when a non-default workload drove
    /// the run (`None` for the built-in Poisson/Zipf process). Purely
    /// descriptive: the simulator never parses it, but the report echoes
    /// it and gates the workload-fingerprint section on it, so reports
    /// from shaped workloads are self-describing and `scope diff` can
    /// refuse cross-workload comparisons.
    pub traffic: Option<String>,
    /// The raw `--controller` spec string when an online policy
    /// controller drove the run (`None` for static policy). Purely
    /// descriptive, like [`ClusterConfig::traffic`]: the simulator
    /// never parses it, but the report echoes it and gates the
    /// `controller` section on it.
    pub controller: Option<String>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores: 4,
            topology: Topology::default(),
            fe: FrontEndConfig::ignite(),
            scale: 0.02,
            arrival: ArrivalConfig::default(),
            store: StoreConfig::default(),
            distance_saturation: 8.0,
            dram_bytes_per_cycle: 8.0,
            chaos: None,
            retry: RetryPolicy::default(),
            traffic: None,
            controller: None,
        }
    }
}

impl ClusterConfig {
    /// Rejects configurations the simulator cannot run meaningfully,
    /// with a typed [`ConfigError`] naming the offending field. The CLI
    /// calls this before constructing a simulator and exits nonzero on
    /// `Err`; [`ClusterSim::new`] panics with the same error, so a
    /// library caller that skips the check never gets a silent
    /// nonsense run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.topology.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if let SchedulerKind::Random { choices: 0 } = self.topology.scheduler {
            return Err(ConfigError::ZeroSchedulerChoices);
        }
        match self.topology.keepalive {
            KeepAliveKind::Fixed { window_cycles: 0 }
            | KeepAliveKind::Hybrid { default_window_cycles: 0 } => {
                return Err(ConfigError::ZeroKeepAliveWindow);
            }
            _ => {}
        }
        for (field, value) in [
            ("scale", self.scale),
            ("rate_per_mcycle", self.arrival.rate_per_mcycle),
            ("distance_saturation", self.distance_saturation),
            ("dram_bytes_per_cycle", self.dram_bytes_per_cycle),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::NonPositive { field, value });
            }
        }
        if !self.arrival.zipf_s.is_finite() || self.arrival.zipf_s < 0.0 {
            return Err(ConfigError::BadZipf { value: self.arrival.zipf_s });
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        if self.retry.jitter_ppm > ignite_core::fault::PPM_SCALE {
            return Err(ConfigError::JitterOverScale { got: self.retry.jitter_ppm });
        }
        if let Some(plan) = &self.chaos {
            if plan.straggle_mtbf_cycles > 0 && plan.straggle_factor_milli < 1000 {
                return Err(ConfigError::StraggleFactorTooSmall {
                    got: plan.straggle_factor_milli,
                });
            }
            for (stream, mtbf, duration) in [
                ("crash", plan.crash_mtbf_cycles, plan.crash_repair_cycles),
                ("straggle", plan.straggle_mtbf_cycles, plan.straggle_duration_cycles),
                ("store_unavail", plan.store_unavail_mtbf_cycles, {
                    plan.store_unavail_duration_cycles
                }),
            ] {
                if mtbf > 0 && duration == 0 {
                    return Err(ConfigError::ZeroChaosDuration { stream });
                }
            }
        }
        Ok(())
    }
}

/// How one core was used over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreUsage {
    /// Invocations this core served.
    pub invocations: u64,
    /// Cycles spent serving (busy) out of the makespan.
    pub busy_cycles: u64,
    /// `busy_cycles / makespan`, 0.0 for an empty run.
    pub utilization: f64,
}

/// Aggregated measurements for one suite function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionSummary {
    /// Table-1 abbreviation.
    pub abbr: String,
    /// Invocations completed.
    pub invocations: u64,
    /// Latency percentiles (arrival → completion), in cycles.
    pub p50_latency: u64,
    /// 95th percentile latency.
    pub p95_latency: u64,
    /// 99th percentile latency.
    pub p99_latency: u64,
    /// Mean service time (dispatch → completion), in cycles.
    pub mean_service: f64,
    /// Mean queueing delay (arrival → dispatch), in cycles.
    pub mean_queue: f64,
    /// Mean data-cold fraction at dispatch (0 = always back-to-back warm).
    pub mean_cold_fraction: f64,
    /// Metadata store hits for this function's container.
    pub metadata_hits: u64,
    /// Metadata store misses.
    pub metadata_misses: u64,
    /// Retries scheduled for this function (0 without chaos).
    pub retries: u64,
    /// Completions that ran degraded — cold instead of replayed
    /// (0 without chaos).
    pub degraded: u64,
    /// Invocations dropped with reason (0 without chaos).
    pub dropped: u64,
    /// Completions that found no metadata (store miss, degraded, or
    /// Ignite off) — the dslab-faas "cold start" bucket.
    pub cold_starts: u64,
    /// Completions that hit the store but dispatched onto a core whose
    /// data working set had partially cooled (`cold_fraction > 0`).
    pub lukewarm_starts: u64,
    /// Completions that hit the store back-to-back warm
    /// (`cold_fraction == 0`).
    pub warm_starts: u64,
    /// Fastest observed service time — the always-warm proxy the
    /// slowdown metric divides by (0 when never invoked).
    pub min_service: u64,
    /// Keep-alive cycles spent pinning this function's region without a
    /// reuse (0 under [`KeepAliveKind::None`]).
    pub wasted_keepalive_cycles: u64,
    /// Per-invocation engine measurements, summed over all invocations.
    pub result: InvocationResult,
}

impl FunctionSummary {
    /// Store hit rate for this function, 0.0 when it never dispatched.
    pub fn metadata_hit_rate(&self) -> f64 {
        let total = self.metadata_hits + self.metadata_misses;
        if total == 0 {
            0.0
        } else {
            self.metadata_hits as f64 / total as f64
        }
    }

    /// Mean service time over the always-warm proxy (`min_service`):
    /// 1.0 means every run was as fast as the best observed, higher
    /// means cold starts are costing real time. 0.0 when never invoked.
    pub fn slowdown(&self) -> f64 {
        if self.min_service == 0 {
            0.0
        } else {
            self.mean_service / self.min_service as f64
        }
    }
}

/// How one node was used over the run (multi-node reports serialize
/// one section per entry; a single-node run still carries its one
/// entry internally).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeUsage {
    /// Jobs the scheduler routed to this node.
    pub submitted: u64,
    /// Jobs that completed here.
    pub completed: u64,
    /// Jobs that terminally dropped here (0 without chaos). The
    /// per-node conservation law `submitted == completed + dropped`
    /// holds because retries re-enter their original node's queue.
    pub dropped: u64,
    /// Deepest dispatch queue observed on this node.
    pub queue_peak: u64,
    /// Busy cycles summed over the node's cores.
    pub busy_cycles: u64,
    /// Mean utilization of the node's cores over the makespan.
    pub utilization: f64,
    /// This node's metadata store counters.
    pub store: StoreStats,
    /// Store bytes resident on this node at the end of the run.
    pub footprint_bytes: usize,
    /// High-water mark of this node's store footprint.
    pub peak_footprint_bytes: usize,
    /// Keep-alive cycles this node spent pinning regions nobody reused.
    pub wasted_keepalive_cycles: u64,
}

/// The outcome of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Invocations completed (equals the trace length).
    pub invocations: u64,
    /// Cycle of the last completion (0 for an empty trace).
    pub makespan: u64,
    /// Per-core usage, in global core order (node-major: node 0's
    /// cores, then node 1's, ...).
    pub cores: Vec<CoreUsage>,
    /// Per-node usage, in node order (one entry for a 1-node run).
    pub nodes: Vec<NodeUsage>,
    /// Per-function summaries, in suite order.
    pub functions: Vec<FunctionSummary>,
    /// Metadata store counters, summed over every node's store.
    pub store: StoreStats,
    /// Store bytes resident at the end of the run (sum over nodes).
    pub footprint_bytes: usize,
    /// Store high-water mark (sum of per-node peaks; nodes peak at
    /// different times, so this bounds — and for one node equals — the
    /// true cluster-wide peak).
    pub peak_footprint_bytes: usize,
    /// Cluster-wide latency percentiles over all invocations, in cycles.
    pub p50_latency: u64,
    /// 95th percentile.
    pub p95_latency: u64,
    /// 99th percentile.
    pub p99_latency: u64,
    /// Mean latency over all invocations, in cycles.
    pub mean_latency: f64,
    /// Latency counts per [`LATENCY_BUCKETS`] bound (non-cumulative),
    /// plus one trailing overflow bucket.
    pub latency_histogram: Vec<u64>,
    /// Sum of all invocation latencies, in cycles.
    pub latency_sum: u64,
    /// Chaos ledger (`Some` iff the config enabled chaos). Its
    /// conservation law — `submitted == completed + dropped` — is
    /// enforced by the `ignite-cluster-v2` report validator.
    pub chaos: Option<ChaosStats>,
    /// Statistical fingerprint of the arrival stream the run consumed.
    /// Always computed (it is O(1) per arrival); serialized into the
    /// report only when [`ClusterConfig::traffic`] is set.
    pub workload: WorkloadFingerprint,
    /// Controller decision audit trail (`Some` iff the run went through
    /// [`ClusterSim::run_source_policy_obs`] with an enabled policy).
    /// Absent for static-policy runs, so every controller-off report
    /// stays byte-identical to the committed goldens.
    pub controller: Option<ControllerStats>,
}

impl ClusterOutcome {
    /// Engine measurements summed over every function (the aggregate
    /// `ReplayStats` live in `.replay` / `.replay_unfinished`).
    pub fn total_result(&self) -> InvocationResult {
        let mut total = InvocationResult::default();
        for f in &self.functions {
            total.merge(&f.result);
        }
        total
    }

    /// Mean core utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
        }
    }

    /// Total keep-alive cycles spent pinning regions nobody reused
    /// (0 under [`KeepAliveKind::None`]).
    pub fn wasted_keepalive_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.wasted_keepalive_cycles).sum()
    }
}

struct Core {
    machine: Machine,
    /// The cycle this core frees at; `None` while idle.
    busy_until: Option<u64>,
    /// Dispatches on this core so far (the per-core sequence number).
    seq: u64,
    /// Function index → `seq` at its last dispatch here.
    last_seq: BTreeMap<usize, u64>,
    /// Invocations served and busy cycles; utilization is filled in at
    /// the end of the run.
    usage: CoreUsage,
}

/// One node's metadata store, dispatch queue and usage counters (the
/// busy, utilization, store and keep-alive fields are filled in at the
/// end of the run).
struct NodeState {
    store: MetadataStore,
    queue: VecDeque<Job>,
    usage: NodeUsage,
}

impl NodeState {
    /// Appends `job` to the dispatch queue, tracking its peak depth.
    fn enqueue(&mut self, job: Job) {
        self.queue.push_back(job);
        self.usage.queue_peak = self.usage.queue_peak.max(self.queue.len() as u64);
    }
}

/// One function's accumulators: counters land in `summary` directly,
/// and the sums below become its means and percentiles at the end of
/// the run.
#[derive(Default)]
struct FunctionState {
    summary: FunctionSummary,
    latencies: Vec<u64>,
    service_cycles: u64,
    queue_cycles: u64,
    cold_sum: f64,
    /// Global invocation counter (seeds the trace walker, so control flow
    /// drifts across invocations like the per-function protocol's does).
    count: u64,
}

/// One invocation's scheduler state, carried across attempts. Without
/// chaos every job completes on its first attempt and the accumulators
/// reduce to the pre-chaos arithmetic exactly (`queue_accum ==
/// dispatch - arrival`, `lost_cycles == 0`).
struct Job {
    arrival: Arrival,
    /// Node the scheduler placed this job on. Retries stay here, so
    /// each node's ledger closes under its own conservation law.
    node: usize,
    /// Global submission index (keys the retry queue and the pure-hash
    /// chaos draws).
    id: u64,
    /// Attempt about to run, 1-based.
    attempt: u32,
    /// When this job last joined the dispatch queue (arrival cycle, or
    /// retry-ready cycle).
    enqueued_at: u64,
    /// Cycles spent queued, summed over attempts.
    queue_accum: u64,
    /// Cycles lost to failed attempts and backoff waits (the
    /// `retry_cycles` attribution component).
    lost_cycles: u64,
}

/// Chaos runtime: the realized schedule, recovery policy state, the
/// backoff-pending retry queue, and the ledger.
struct ChaosRt {
    state: ChaosState,
    retry: RetryPolicy,
    /// Per-function circuit breakers, suite order.
    breakers: Vec<CircuitBreaker>,
    /// Jobs waiting out a backoff: `(ready_cycle, id) -> job`. The id
    /// tie-break keeps draining order total.
    ready: BTreeMap<(u64, u64), Job>,
    stats: ChaosStats,
}

/// What becomes of the region an attempt recorded.
enum Writeback {
    /// Nothing to write: Ignite off, nothing recorded, or the policy
    /// denied store admission.
    None,
    /// The store was unreachable at writeback time; the region is lost.
    Lost,
    /// The region goes back to the node store when the attempt commits.
    Commit(Metadata),
}

/// One dispatch attempt, carried through the serve stages.
struct Attempt {
    job: Job,
    /// Global index of the serving core.
    core: usize,
    /// Data-cold fraction from the interleaving distance.
    cold: f64,
    /// Metadata fetch transfer cycles.
    fetch_cycles: u64,
    store_hit: bool,
    /// Why chaos degraded the attempt to a cold run, if it did.
    degrade: Option<DegradeReason>,
    /// The policy denied replay admission.
    policy_bypass: bool,
    /// Engine measurements.
    res: InvocationResult,
    /// Engine cycles, stretched by any straggle window.
    exec_cycles: u64,
    straggled: bool,
    writeback: Writeback,
    /// Fetch, engine and writeback: how long the attempt holds its core.
    service: u64,
}

/// Records an instant event when the sink is enabled.
#[inline(always)]
fn emit<S: EventSink>(sink: &mut S, ts: u64, track: Track, kind: EventKind) {
    if sink.enabled() {
        sink.record(Event { ts, dur: 0, track, kind });
    }
}

/// The simulator: a prepared fleet ready to serve traces.
pub struct ClusterSim {
    cfg: ClusterConfig,
    uarch: UarchConfig,
    functions: Vec<PreparedFunction>,
    abbrs: Vec<String>,
}

impl ClusterSim {
    /// Prepares the paper suite at the configured scale.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] if [`ClusterConfig::validate`]
    /// rejects the config.
    pub fn new(cfg: ClusterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster config: {e}");
        }
        let suite = Suite::paper_suite_scaled(cfg.scale);
        let functions: Vec<PreparedFunction> = suite
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
            .collect();
        let abbrs = suite.functions().iter().map(|f| f.profile.abbr.clone()).collect();
        ClusterSim { cfg, uarch: UarchConfig::ice_lake_like(), functions, abbrs }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Serves the configured arrival process, streamed from
    /// [`ArrivalConfig::source`], unobserved and under the static policy.
    pub fn run(&self) -> ClusterOutcome {
        let mut arrival = self.cfg.arrival;
        arrival.functions = self.functions.len();
        self.run_source_policy_obs(&mut arrival.source(), &mut NullSink, &mut StaticPolicy)
    }

    /// Serves a streaming [`ArrivalSource`] (the built-in process, a
    /// replayed trace through [`ignite_workloads::arrival::TraceSource`],
    /// or a shaped workload), reporting to `sink` and consulting `policy`.
    ///
    /// Arrivals are pulled one at a time (one look-ahead arrival is held
    /// for event scheduling), so a million-invocation workload runs in
    /// O(1) arrival state, and replaying a materialized copy of the same
    /// stream produces the identical outcome. Every DES transition
    /// (arrival, dispatch, context switch, invocation span, completion),
    /// every store access outcome and every record/replay episode is
    /// reported to `sink`. The policy is consulted at the four actuation
    /// points (replay admission, store writeback admission,
    /// schedulable-core mask, keep-alive window), observes every
    /// completed invocation's attribution sample, and its epoch
    /// decisions land on the `Track::Controller` trace track. A sink or
    /// policy whose `enabled()` is `false` ([`NullSink`],
    /// [`StaticPolicy`]) skips every guarded site, so observation and
    /// the policy seam add no work and never perturb the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the source declares more functions than the suite has.
    pub fn run_source_policy_obs<A: ArrivalSource + ?Sized, S: EventSink, P: PolicyHook>(
        &self,
        source: &mut A,
        sink: &mut S,
        policy: &mut P,
    ) -> ClusterOutcome {
        assert!(
            source.functions() <= self.functions.len(),
            "source declares {} functions, suite has {}",
            source.functions(),
            self.functions.len()
        );
        let mut run = Run::new(self, source, sink, policy);
        loop {
            run.epoch();
            run.dispatch_queued();
            let Some(now) = run.next_event() else { break };
            run.now = now;
            run.release();
            run.route(source);
        }
        run.finish()
    }

    /// Cycles to move `bytes` of metadata at the configured bandwidth.
    fn transfer_cycles(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.cfg.dram_bytes_per_cycle).ceil() as u64
    }
}

/// One run's state. [`ClusterSim::run_source_policy_obs`] calls its
/// stages in order until no event remains, then [`Run::finish`] folds it
/// into the outcome.
struct Run<'a, S, P> {
    sim: &'a ClusterSim,
    sink: &'a mut S,
    policy: &'a mut P,
    ignite_on: bool,
    nodes: Vec<NodeState>,
    /// Every node's cores in one node-major vector, so completion and
    /// freeing sweeps keep the single-node iteration order.
    cores: Vec<Core>,
    fns: Vec<FunctionState>,
    chaos: Option<ChaosRt>,
    keepalive: KeepAliveRt,
    sched: Scheduler,
    /// One-arrival look-ahead: the head of the stream, needed to pick
    /// the next event time and refilled on consumption — the only
    /// arrival state held, whatever the stream length.
    pending: Option<Arrival>,
    fingerprint: FingerprintAccum,
    submitted: u64,
    now: u64,
    makespan: u64,
    latencies: Vec<u64>,
    latency_sum: u64,
}

impl<'a, S: EventSink, P: PolicyHook> Run<'a, S, P> {
    fn new<A: ArrivalSource + ?Sized>(
        sim: &'a ClusterSim,
        source: &mut A,
        sink: &'a mut S,
        policy: &'a mut P,
    ) -> Self {
        let cfg = &sim.cfg;
        let nodes = cfg.topology.nodes;
        let functions = sim.abbrs.len();
        Run {
            sim,
            sink,
            policy,
            ignite_on: cfg.fe.select.ignite.is_some(),
            nodes: (0..nodes)
                .map(|_| NodeState {
                    store: MetadataStore::new(cfg.store),
                    queue: VecDeque::new(),
                    usage: NodeUsage::default(),
                })
                .collect(),
            cores: (0..nodes * cfg.cores)
                .map(|_| Core {
                    machine: Machine::new(&sim.uarch, &cfg.fe),
                    busy_until: None,
                    seq: 0,
                    last_seq: BTreeMap::new(),
                    usage: CoreUsage::default(),
                })
                .collect(),
            fns: sim
                .abbrs
                .iter()
                .map(|abbr| FunctionState {
                    summary: FunctionSummary { abbr: abbr.clone(), ..FunctionSummary::default() },
                    ..FunctionState::default()
                })
                .collect(),
            chaos: cfg.chaos.map(|plan| ChaosRt {
                state: ChaosState::for_cluster(plan, nodes, cfg.cores),
                retry: cfg.retry,
                breakers: (0..functions)
                    .map(|_| {
                        CircuitBreaker::new(
                            cfg.retry.breaker_threshold,
                            cfg.retry.breaker_cooldown_cycles,
                        )
                    })
                    .collect(),
                ready: BTreeMap::new(),
                stats: ChaosStats::default(),
            }),
            keepalive: KeepAliveRt::new(cfg.topology.keepalive, nodes, functions),
            sched: Scheduler::new(cfg.topology.scheduler, cfg.arrival.seed),
            pending: source.next_arrival(),
            fingerprint: FingerprintAccum::new(source.functions()),
            submitted: 0,
            now: 0,
            makespan: 0,
            latencies: Vec::new(),
            latency_sum: 0,
        }
    }

    /// Store events land on the shared store track for single-node runs
    /// and on a per-node track otherwise.
    fn store_track(&self, node: usize) -> Track {
        if self.nodes.len() > 1 {
            Track::NodeStore(node as u32)
        } else {
            Track::Store
        }
    }

    /// Epoch stage: once the clock crosses the policy's next epoch
    /// boundary, snapshot the cluster gauges, let the policy actuate,
    /// and mirror each decision onto the controller trace track. Gated
    /// twice (enabled, then epoch_due) so the static path never
    /// assembles gauges.
    fn epoch(&mut self) {
        if !self.policy.enabled() || !self.policy.epoch_due(self.now) {
            return;
        }
        let stores = || self.nodes.iter().map(|n| &n.store);
        let gauges = ClusterGauges {
            busy_cores: self.cores.iter().filter(|c| c.busy_until.is_some()).count(),
            total_cores: self.cores.len(),
            cores_per_node: self.sim.cfg.cores,
            queued: self.nodes.iter().map(|n| n.queue.len()).sum(),
            footprint_bytes: stores().map(|s| s.footprint_bytes() as u64).sum(),
            capacity_bytes: self.sim.cfg.store.capacity_bytes as u64 * self.nodes.len() as u64,
            insertions: stores().map(|s| s.stats().insertions).sum(),
            evictions: stores().map(|s| s.stats().evictions).sum(),
            keepalive_enabled: self.keepalive.enabled(),
        };
        for d in self.policy.on_epoch(self.now, &gauges) {
            let kind = EventKind::Decision {
                rule: d.rule,
                epoch: d.epoch,
                function: d.function,
                value: d.value,
                observed: d.observed,
                threshold: d.threshold,
            };
            emit(self.sink, d.at, Track::Controller, kind);
        }
    }

    /// Dispatch stage: each node's FIFO queue drains onto its free
    /// cores, nodes in index order, lowest core index first. Under
    /// chaos a core inside a crash window accepts no work even when
    /// idle. An enabled policy may cap the schedulable cores per node;
    /// cores past the cap finish in-flight work but accept no new
    /// dispatches.
    fn dispatch_queued(&mut self) {
        let per_node = self.sim.cfg.cores;
        for ni in 0..self.nodes.len() {
            let active = if self.policy.enabled() {
                self.policy.active_cores(per_node).clamp(1, per_node)
            } else {
                per_node
            };
            let now = self.now;
            while !self.nodes[ni].queue.is_empty() {
                let (cores, chaos) = (&self.cores, &mut self.chaos);
                let free = (ni * per_node..ni * per_node + active).find(|&g| {
                    cores[g].busy_until.is_none()
                        && chaos.as_mut().is_none_or(|rt| !rt.state.core_down(g, now))
                });
                let Some(ci) = free else { break };
                let mut job = self.nodes[ni].queue.pop_front().expect("non-empty queue");
                job.queue_accum += now - job.enqueued_at;
                if let Some(job) = self.admit(job) {
                    self.serve(job, ci);
                }
            }
        }
    }

    /// Admission stage (chaos only): a job past its deadline drops, and
    /// a dispatch-drop draw fails the attempt into retry.
    fn admit(&mut self, job: Job) -> Option<Job> {
        let now = self.now;
        let Some(rt) = self.chaos.as_mut() else { return Some(job) };
        let deadline = rt.retry.deadline_cycles;
        if deadline > 0 && now.saturating_sub(job.arrival.cycle) > deadline {
            self.drop_job(&job, now, DropReason::Deadline);
            return None;
        }
        if rt.state.dispatch_dropped(job.id, job.attempt) {
            rt.stats.dispatch_drops += 1;
            self.fail(job, now, 0);
            return None;
        }
        Some(job)
    }

    /// Serve stage: one attempt of `job` on core `ci`. Without chaos
    /// every attempt commits; with it, a crash fails the attempt into
    /// retry instead.
    fn serve(&mut self, job: Job, ci: usize) {
        let mut at = self.stage(job, ci);
        self.execute(&mut at);
        self.take_writeback(&mut at);
        match self.crash(&at) {
            Some(crash_t) => self.fail(at.job, crash_t, crash_t - self.now),
            None => self.commit(at),
        }
    }

    /// Staging: the interleaving distance sets the data-cold fraction,
    /// then the function's metadata region moves from the node store
    /// into the core's replay engine, charging the transfer. A policy
    /// denial skips the fetch entirely (no miss counted, nothing to
    /// re-record). Under chaos, an open circuit breaker (full
    /// record/replay bypass), a store outage (no fetch at all), or a
    /// corrupt/lost region found after the fetch (region evicted,
    /// breaker fed) degrades the attempt to a cold run.
    fn stage(&mut self, job: Job, ci: usize) -> Attempt {
        let (sim, now) = (self.sim, self.now);
        let a = job.arrival;
        let fi = a.function as usize;
        let container = sim.functions[fi].container;
        let node = job.node;
        // Interleaving distance → data coldness. Distance d counts the
        // invocations of *other* functions on this core since this
        // function last ran here; d = 0 (back-to-back) is fully warm, and
        // coldness saturates at `distance_saturation`.
        let core = &mut self.cores[ci];
        let cold = match core.last_seq.get(&fi) {
            None => 1.0,
            Some(&s) => ((core.seq - s - 1) as f64 / sim.cfg.distance_saturation).min(1.0),
        };
        core.last_seq.insert(fi, core.seq);
        core.seq += 1;
        // Queue time accumulated across attempts; without chaos this is
        // exactly `now - a.cycle`.
        let kind = EventKind::Dispatch { function: a.function, queue_cycles: job.queue_accum };
        emit(self.sink, now, Track::Core(ci as u32), kind);

        let mut at = Attempt {
            job,
            core: ci,
            cold,
            fetch_cycles: 0,
            store_hit: false,
            degrade: None,
            policy_bypass: false,
            res: InvocationResult::default(),
            exec_cycles: 0,
            straggled: false,
            writeback: Writeback::None,
            service: 0,
        };
        if !self.ignite_on {
            return at;
        }
        at.policy_bypass = self.policy.enabled() && !self.policy.replay_admitted(a.function);
        if at.policy_bypass {
            return at;
        }
        if let Some(rt) = self.chaos.as_mut() {
            if !rt.breakers[fi].replay_allowed(now) {
                at.degrade = Some(DegradeReason::BreakerOpen);
                return at;
            }
            if rt.state.store_unavailable_on(node, now) {
                at.degrade = Some(DegradeReason::StoreUnavailable);
                return at;
            }
        }
        self.keepalive.on_fetch(node, container, now);
        let store_track = self.store_track(node);
        let Some(md) = self.nodes[node].store.fetch(container).cloned() else {
            self.fns[fi].summary.metadata_misses += 1;
            emit(self.sink, now, store_track, EventKind::StoreMiss { container });
            return at;
        };
        at.store_hit = true;
        self.fns[fi].summary.metadata_hits += 1;
        at.fetch_cycles = sim.transfer_cycles(md.byte_len());
        let bytes = md.byte_len() as u64;
        emit(self.sink, now, store_track, EventKind::StoreHit { container, bytes });
        // Chaos corruption draws on the fetched copy (seeded per
        // (container, invocation), like the codec fault model it
        // reuses). Stale-but-valid regions still install — replay
        // handles them; only undecodable or lost regions degrade.
        let installed = match self.chaos.as_mut() {
            Some(rt) if rt.state.plan().store_fault.is_active() => {
                match rt.state.plan().store_fault.apply(&md, container, self.fns[fi].count) {
                    Ok(Some(faulted)) if faulted.validate().is_ok() => Ok(faulted),
                    Ok(Some(_)) | Err(_) => Err(DegradeReason::Corrupt),
                    Ok(None) => Err(DegradeReason::Loss),
                }
            }
            _ => Ok(md),
        };
        match installed {
            Ok(md) => {
                let ignite = self.cores[ci].machine.ignite.as_mut().expect("ignite selected");
                ignite.install_metadata(container, md);
                if let Some(rt) = self.chaos.as_mut() {
                    let b = &mut rt.breakers[fi];
                    let closes = b.closes();
                    b.record_success();
                    if b.closes() > closes {
                        let kind = EventKind::BreakerClose { function: a.function };
                        emit(self.sink, now, Track::Chaos, kind);
                    }
                }
            }
            Err(reason) => {
                at.degrade = Some(reason);
                let rt = self.chaos.as_mut().expect("faults only fire under chaos");
                // A region known bad must never be served again.
                if self.nodes[node].store.remove(container).is_some() {
                    rt.stats.store_regions_dropped += 1;
                }
                let b = &mut rt.breakers[fi];
                let opens = b.opens();
                b.record_fault(now);
                if b.opens() > opens {
                    let faults = rt.retry.breaker_threshold;
                    let kind = EventKind::BreakerOpen { function: a.function, faults };
                    emit(self.sink, now, Track::Chaos, kind);
                }
            }
        }
        at
    }

    /// Execution: the context switch, the engine run on the core's
    /// persistent machine, and any straggle window stretching the
    /// compute cycles (the extra cycles are charged to execution, so
    /// the attribution tiling stays exact).
    fn execute(&mut self, at: &mut Attempt) {
        let (sim, now) = (self.sim, self.now);
        let fi = at.job.arrival.function as usize;
        let track = Track::Core(at.core as u32);
        let core = &mut self.cores[at.core];
        core.machine.context_switch();
        emit(self.sink, now, track, EventKind::ContextSwitch);
        let bypass_ignite = at.policy_bypass || at.degrade == Some(DegradeReason::BreakerOpen);
        let ctx = InvocationCtx { data_cold_fraction: at.cold, bypass_ignite };
        // Map machine-local cycles onto the cluster clock: the engine
        // portion starts after the metadata fetch transfer, and the
        // machine clock (busy cycles only) never exceeds cluster time.
        debug_assert!(core.machine.now <= now, "machine clock ahead of cluster clock");
        let ts_offset = (now + at.fetch_cycles).saturating_sub(core.machine.now);
        let f = &mut self.fns[fi];
        at.res = run_invocation_obs(
            &mut core.machine,
            &sim.functions[fi],
            f.count,
            ctx,
            self.sink,
            track,
            ts_offset,
        );
        f.count += 1;
        at.exec_cycles = at.res.cycles;
        if let Some(rt) = self.chaos.as_mut() {
            let factor = rt.state.straggle_factor_milli(at.core, now);
            if factor > 1000 {
                at.straggled = true;
                at.exec_cycles = ((u128::from(at.res.cycles) * u128::from(factor)) / 1000) as u64;
            }
        }
    }

    /// Writeback: takes the (merged) region destined for the node store
    /// and sizes its transfer, but does not commit it — a crash that
    /// kills the attempt must also kill its writeback. A policy that
    /// tightened store admission discards the recording (saving
    /// footprint and bandwidth); under chaos an unreachable store loses
    /// it. Either way the next fetch misses and re-records.
    fn take_writeback(&mut self, at: &mut Attempt) {
        let sim = self.sim;
        let function = at.job.arrival.function;
        let container = sim.functions[function as usize].container;
        let ignite = self.cores[at.core].machine.ignite.as_mut();
        let taken = ignite.and_then(|ignite| ignite.take_metadata(container));
        let wb_at = self.now + at.fetch_cycles + at.exec_cycles;
        at.writeback = match taken {
            None => Writeback::None,
            Some(md)
                if self.policy.enabled()
                    && !self.policy.store_admitted(function, md.byte_len() as u64) =>
            {
                Writeback::None
            }
            Some(_)
                if self
                    .chaos
                    .as_mut()
                    .is_some_and(|rt| rt.state.store_unavailable_on(at.job.node, wb_at)) =>
            {
                Writeback::Lost
            }
            Some(md) => Writeback::Commit(md),
        };
        let wb_cycles = match &at.writeback {
            Writeback::Commit(md) => sim.transfer_cycles(md.byte_len()),
            _ => 0,
        };
        at.service = at.fetch_cycles + at.exec_cycles + wb_cycles;
    }

    /// Crash check (chaos only): a crash window opening while the
    /// attempt holds its core kills it — no completion, no writeback, a
    /// fresh (fully cold) machine, and the core held busy until repair.
    /// Returns the crash cycle.
    fn crash(&mut self, at: &Attempt) -> Option<u64> {
        let now = self.now;
        let completion = now + at.service;
        let rt = self.chaos.as_mut()?;
        if completion <= now + 1 {
            return None;
        }
        let crash_t = rt.state.crash_in(at.core, now + 1, completion - 1)?;
        let restart = rt
            .state
            .core_restart_after(at.core, crash_t)
            .expect("crash window contains its own start");
        rt.stats.crash_kills += 1;
        let core_id = at.core as u32;
        emit(self.sink, crash_t, Track::Chaos, EventKind::CoreCrash { core: core_id });
        let kind = EventKind::CoreRestore { core: core_id, down_cycles: restart - crash_t };
        emit(self.sink, restart, Track::Chaos, kind);
        let core = &mut self.cores[at.core];
        core.machine = Machine::new(&self.sim.uarch, &self.sim.cfg.fe);
        core.last_seq.clear();
        core.busy_until = Some(restart);
        // The core worked (was busy) until the crash; the repair window
        // is downtime, not utilization.
        core.usage.busy_cycles += crash_t - now;
        Some(crash_t)
    }

    /// Commit: the attempt survived. Settle the chaos ledger, commit the
    /// writeback (pinning the region under keep-alive), emit the span
    /// and its causal attribution, feed the policy, and account the
    /// completion.
    fn commit(&mut self, at: Attempt) {
        let now = self.now;
        let Attempt { job, core: ci, .. } = at;
        let a = job.arrival;
        let fi = a.function as usize;
        let container = self.sim.functions[fi].container;
        let completion = now + at.service;
        let latency = completion - a.cycle;
        let track = Track::Core(ci as u32);

        if let Some(rt) = self.chaos.as_mut() {
            rt.stats.completed += 1;
            rt.stats.retried_to_success += u64::from(job.attempt > 1);
            rt.stats.retry_cycles += job.lost_cycles;
            rt.stats.straggled += u64::from(at.straggled);
            rt.stats.writeback_skipped += u64::from(matches!(at.writeback, Writeback::Lost));
            if let Some(reason) = at.degrade {
                self.fns[fi].summary.degraded += 1;
                match reason {
                    DegradeReason::StoreUnavailable => rt.stats.degraded_unavailable += 1,
                    DegradeReason::Corrupt => rt.stats.degraded_corrupt += 1,
                    DegradeReason::Loss => rt.stats.degraded_loss += 1,
                    DegradeReason::BreakerOpen => rt.stats.degraded_breaker += 1,
                }
                let kind = EventKind::Degraded { function: a.function, reason };
                emit(self.sink, now, Track::Chaos, kind);
            }
        }

        if let Writeback::Commit(md) = at.writeback {
            let node = job.node;
            let bytes = md.byte_len() as u64;
            // Keep-alive protected regions are evicted only as a last
            // resort; with keep-alive off the closure is never true and
            // the insert is the plain insert, branch for branch.
            let keepalive = &self.keepalive;
            let outcome = self.nodes[node]
                .store
                .insert_protected(container, md, &|c| keepalive.is_protected(node, c, completion));
            if self.keepalive.enabled() && !outcome.rejected {
                let window = if self.policy.enabled() {
                    self.policy.keepalive_window(a.function)
                } else {
                    None
                };
                self.keepalive.on_complete_with(node, fi, container, completion, window);
            }
            // The writeback (and any evictions it forced) lands at
            // completion time.
            let store_track = self.store_track(node);
            for (victim, victim_bytes) in outcome.evicted {
                let kind = EventKind::StoreEvict { container: victim, bytes: victim_bytes as u64 };
                emit(self.sink, completion, store_track, kind);
            }
            if outcome.rejected {
                let kind = EventKind::StoreReject { container, bytes };
                emit(self.sink, completion, store_track, kind);
            }
        }

        if self.sink.enabled() || self.policy.enabled() {
            // Causal latency attribution. Latency decomposes exactly:
            // `latency = queue + retry + dram + exec_cycles`, and the
            // engine's integer stall counters tile the compute cycles
            // into front-end penalty vs steady-state execution (straggle
            // inflation is charged to execution). Front-end stalls paid
            // after a store miss are the re-record cost Ignite could not
            // avoid; after a hit (with Ignite off, or with replay
            // suppressed by policy) they are the residual
            // cold-front-end penalty; when chaos degraded replay away
            // they are the price of availability. The policy folds the
            // same components it would see on the trace, so the
            // controller can run over a [`NullSink`].
            let dram_cycles = at.service - at.exec_cycles;
            let frontend = at.res.front_end_stall_cycles();
            let execution = at.exec_cycles - frontend;
            let (cold_frontend, store_miss, degraded_cycles) = if at.degrade.is_some() {
                (0, 0, frontend)
            } else if self.ignite_on && !at.store_hit && !at.policy_bypass {
                (0, frontend, 0)
            } else {
                (frontend, 0, 0)
            };
            if self.sink.enabled() {
                // The span covers fetch + engine + writeback.
                let invocation = self.fns[fi].count - 1;
                self.sink.record(Event {
                    ts: now,
                    dur: at.service,
                    track,
                    kind: EventKind::Invocation { function: a.function, invocation },
                });
            }
            let kind = EventKind::Complete { function: a.function, service_cycles: at.service };
            emit(self.sink, completion, track, kind);
            let kind = EventKind::Attribution {
                function: a.function,
                queue_cycles: job.queue_accum,
                retry_cycles: job.lost_cycles,
                dram_cycles,
                cold_frontend_cycles: cold_frontend,
                store_miss_cycles: store_miss,
                degraded_cycles,
                execution_cycles: execution,
                latency_cycles: latency,
            };
            emit(self.sink, completion, track, kind);
            if self.policy.enabled() {
                self.policy.observe(&PolicySample {
                    function: a.function,
                    completion,
                    latency_cycles: latency,
                    queue_cycles: job.queue_accum,
                    retry_cycles: job.lost_cycles,
                    dram_cycles,
                    cold_frontend_cycles: cold_frontend,
                    store_miss_cycles: store_miss,
                    degraded_cycles,
                    execution_cycles: execution,
                    store_hit: at.store_hit,
                    replay_suppressed: at.policy_bypass,
                });
            }
        }

        let core = &mut self.cores[ci];
        core.busy_until = Some(completion);
        core.usage.busy_cycles += at.service;
        core.usage.invocations += 1;
        let f = &mut self.fns[fi];
        f.latencies.push(latency);
        f.service_cycles += at.service;
        f.queue_cycles += job.queue_accum;
        f.cold_sum += at.cold;
        let s = &mut f.summary;
        s.invocations += 1;
        // Temperature of this start, dslab-faas style: no usable replay
        // state at all is cold; replayed with zero interleaving distance
        // is warm; replayed but partially displaced is lukewarm.
        if at.degrade.is_some() || !at.store_hit {
            s.cold_starts += 1;
        } else if at.cold == 0.0 {
            s.warm_starts += 1;
        } else {
            s.lukewarm_starts += 1;
        }
        s.min_service = if s.invocations == 1 { at.service } else { s.min_service.min(at.service) };
        s.result.merge(&at.res);
        self.nodes[job.node].usage.completed += 1;
        self.makespan = self.makespan.max(completion);
        self.latencies.push(latency);
        self.latency_sum += latency;
    }

    /// Routes a failed attempt: bounded retry with deterministic
    /// backoff, or a reasoned drop (retries exhausted, or the backoff
    /// would land past the deadline). `elapsed` is how long the failed
    /// attempt held resources (0 for a dispatch drop).
    fn fail(&mut self, mut job: Job, at: u64, elapsed: u64) {
        let rt = self.chaos.as_mut().expect("attempts only fail under chaos");
        rt.stats.attempts_failed += 1;
        if job.attempt >= rt.retry.max_attempts {
            return self.drop_job(&job, at, DropReason::RetriesExhausted);
        }
        let backoff = rt.retry.backoff_for(rt.state.plan().seed, job.id, job.attempt);
        let ready = at.saturating_add(backoff);
        let deadline = rt.retry.deadline_cycles;
        if deadline > 0 && ready.saturating_sub(job.arrival.cycle) > deadline {
            return self.drop_job(&job, at, DropReason::Deadline);
        }
        rt.stats.backoff_cycles += backoff;
        let function = job.arrival.function;
        self.fns[function as usize].summary.retries += 1;
        let kind =
            EventKind::ChaosRetry { function, attempt: job.attempt, backoff_cycles: backoff };
        emit(self.sink, at, Track::Chaos, kind);
        job.lost_cycles += elapsed + backoff;
        job.attempt += 1;
        job.enqueued_at = ready;
        rt.ready.insert((ready, job.id), job);
    }

    /// Terminal failure exit: the job leaves the system with a reason
    /// (the only alternative to completion under the conservation law).
    fn drop_job(&mut self, job: &Job, at: u64, reason: DropReason) {
        let rt = self.chaos.as_mut().expect("jobs only drop under chaos");
        match reason {
            DropReason::Deadline => rt.stats.dropped_deadline += 1,
            DropReason::RetriesExhausted => rt.stats.dropped_retries_exhausted += 1,
        }
        let function = job.arrival.function;
        self.fns[function as usize].summary.dropped += 1;
        self.nodes[job.node].usage.dropped += 1;
        emit(self.sink, at, Track::Chaos, EventKind::ChaosDrop { function, reason });
    }

    /// The next event time: the earliest completion (or crashed-core
    /// restart), backoff expiry or arrival — or, when a node has queued
    /// work waiting only on repairs, the earliest restart among that
    /// node's cores. `None` ends the run.
    fn next_event(&mut self) -> Option<u64> {
        let completion = self.cores.iter().filter_map(|c| c.busy_until).min();
        let retry = self.chaos.as_ref().and_then(|rt| rt.ready.keys().next().map(|&(t, _)| t));
        let arrival = self.pending.map(|a| a.cycle);
        let (now, per_node, nodes) = (self.now, self.sim.cfg.cores, &self.nodes);
        let restart = self.chaos.as_mut().and_then(|rt| {
            (0..nodes.len())
                .filter(|&ni| !nodes[ni].queue.is_empty())
                .filter_map(|ni| {
                    rt.state.earliest_restart_among(ni * per_node..(ni + 1) * per_node, now)
                })
                .min()
        });
        [completion, retry, arrival, restart].into_iter().flatten().min()
    }

    /// Release: completions at or before `now` free their cores in
    /// global core order (a core freed at `now` can serve an arrival at
    /// `now`), then retries whose backoff expired re-enter their node's
    /// queue in (ready, id) order — ahead of same-cycle arrivals, since
    /// they have waited longer end to end.
    fn release(&mut self) {
        let now = self.now;
        for c in &mut self.cores {
            if c.busy_until.is_some_and(|t| t <= now) {
                c.busy_until = None;
            }
        }
        let Some(rt) = self.chaos.as_mut() else { return };
        while rt.ready.first_key_value().is_some_and(|(&(t, _), _)| t <= now) {
            let (_, job) = rt.ready.pop_first().expect("non-empty retry queue");
            self.nodes[job.node].enqueue(job);
        }
    }

    /// Routing: arrivals at `now`, in stream order, each placed on a node
    /// by the scheduler (a 1-node cluster routes to node 0 untouched).
    fn route<A: ArrivalSource + ?Sized>(&mut self, source: &mut A) {
        while let Some(a) = self.pending.filter(|a| a.cycle <= self.now) {
            self.pending = source.next_arrival();
            self.fingerprint.observe(a);
            emit(self.sink, a.cycle, Track::Cluster, EventKind::Arrival { function: a.function });
            if let Some(rt) = self.chaos.as_mut() {
                rt.stats.submitted += 1;
            }
            let node = if self.nodes.len() == 1 { 0 } else { self.pick_node(a) };
            self.nodes[node].usage.submitted += 1;
            self.nodes[node].enqueue(Job {
                arrival: a,
                node,
                id: self.submitted,
                attempt: 1,
                enqueued_at: a.cycle,
                queue_accum: 0,
                lost_cycles: 0,
            });
            self.submitted += 1;
        }
    }

    /// Asks the scheduler for a node for `a`, given every node's load.
    fn pick_node(&mut self, a: Arrival) -> usize {
        let per_node = self.sim.cfg.cores;
        let container = self.sim.functions[a.function as usize].container;
        let loads: Vec<NodeLoad> = (0..self.nodes.len())
            .map(|n| {
                let span = &self.cores[n * per_node..(n + 1) * per_node];
                let busy = span.iter().filter(|c| c.busy_until.is_some()).count();
                NodeLoad {
                    busy_cores: busy,
                    queued: self.nodes[n].queue.len(),
                    free_cores: per_node - busy,
                    holds_metadata: self.ignite_on && self.nodes[n].store.contains(container),
                }
            })
            .collect();
        let node = self.sched.pick(&loads);
        let kind = EventKind::Routed { function: a.function, node: node as u32 };
        emit(self.sink, a.cycle, Track::Cluster, kind);
        node
    }

    /// Folds the run into its outcome: closes keep-alive episodes at the
    /// makespan, drains the policy, and turns the accumulators into
    /// percentiles, means and utilizations.
    fn finish(mut self) -> ClusterOutcome {
        let makespan = self.makespan;
        let per_node = self.sim.cfg.cores;
        self.keepalive.finish(makespan);
        let controller = if self.policy.enabled() { self.policy.finish(makespan) } else { None };
        let utilization = |busy: u64, cores: usize| {
            if makespan == 0 {
                0.0
            } else {
                busy as f64 / (makespan as f64 * cores as f64)
            }
        };
        let keepalive = &self.keepalive;
        let functions = self
            .fns
            .into_iter()
            .enumerate()
            .map(|(fi, mut f)| {
                f.latencies.sort_unstable();
                let n = f.latencies.len() as f64;
                let mean = |sum: f64| if n == 0.0 { 0.0 } else { sum / n };
                FunctionSummary {
                    p50_latency: percentile(&f.latencies, 50),
                    p95_latency: percentile(&f.latencies, 95),
                    p99_latency: percentile(&f.latencies, 99),
                    mean_service: mean(f.service_cycles as f64),
                    mean_queue: mean(f.queue_cycles as f64),
                    mean_cold_fraction: mean(f.cold_sum),
                    wasted_keepalive_cycles: keepalive.wasted_for_function(fi),
                    ..f.summary
                }
            })
            .collect();
        let cores: Vec<CoreUsage> = self
            .cores
            .iter()
            .map(|c| CoreUsage { utilization: utilization(c.usage.busy_cycles, 1), ..c.usage })
            .collect();
        let mut store = StoreStats::default();
        let nodes: Vec<NodeUsage> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, n)| {
                let st = n.store.stats();
                store.hits += st.hits;
                store.misses += st.misses;
                store.insertions += st.insertions;
                store.evictions += st.evictions;
                store.rejected += st.rejected;
                store.bytes_read += st.bytes_read;
                store.bytes_written += st.bytes_written;
                store.bytes_evicted += st.bytes_evicted;
                let busy =
                    cores[ni * per_node..(ni + 1) * per_node].iter().map(|c| c.busy_cycles).sum();
                NodeUsage {
                    busy_cycles: busy,
                    utilization: utilization(busy, per_node),
                    store: *st,
                    footprint_bytes: n.store.footprint_bytes(),
                    peak_footprint_bytes: n.store.peak_footprint_bytes(),
                    wasted_keepalive_cycles: keepalive.wasted_on_node(ni),
                    ..n.usage
                }
            })
            .collect();
        let chaos = self.chaos.map(|mut rt| {
            for b in &rt.breakers {
                rt.stats.breaker_opens += b.opens();
                rt.stats.breaker_closes += b.closes();
            }
            debug_assert!(
                rt.stats.conserved(),
                "conservation violated: submitted {} != completed {} + dropped {}",
                rt.stats.submitted,
                rt.stats.completed,
                rt.stats.dropped_total()
            );
            rt.stats
        });
        let mut latencies = self.latencies;
        latencies.sort_unstable();
        let n = latencies.len();
        let mut latency_histogram = vec![0u64; LATENCY_BUCKETS.len() + 1];
        for &l in &latencies {
            let i = LATENCY_BUCKETS.iter().position(|&b| l <= b).unwrap_or(LATENCY_BUCKETS.len());
            latency_histogram[i] += 1;
        }
        ClusterOutcome {
            invocations: n as u64,
            makespan,
            cores,
            footprint_bytes: nodes.iter().map(|n| n.footprint_bytes).sum(),
            peak_footprint_bytes: nodes.iter().map(|n| n.peak_footprint_bytes).sum(),
            nodes,
            functions,
            store,
            p50_latency: percentile(&latencies, 50),
            p95_latency: percentile(&latencies, 95),
            p99_latency: percentile(&latencies, 99),
            mean_latency: if n == 0 { 0.0 } else { self.latency_sum as f64 / n as f64 },
            latency_histogram,
            latency_sum: self.latency_sum,
            chaos,
            workload: self.fingerprint.finish(),
            controller,
        }
    }
}

/// Nearest-rank percentile of an already-sorted slice (0 for empty data).
///
/// `rank = max(1, ceil(n·p/100))`, clamped to `n` so an out-of-range `p`
/// (> 100) saturates at the maximum instead of indexing past the slice.
fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * u64::from(p)).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs the same cluster at several store capacities, sharded across
/// `threads` worker threads with per-point panic isolation (one diverging
/// point reports an error; the rest of the sweep completes). Results come
/// back in `capacities` order, and a [`PanicFailure::index`] names the
/// sweep point.
///
/// Points run in descending capacity. The first outcome whose stores
/// neither evicted nor rejected is the unbounded-store outcome; a later
/// point whose capacity is at least every node's peak footprint in it
/// reuses that outcome instead of simulating. The reuse is exact: the
/// store reads its capacity only to reject a region larger than itself
/// and to evict until an insert fits, a point at or above every peak
/// does neither, and a static-policy run reads the capacity nowhere
/// else.
pub fn sweep_capacities(
    cfg: &ClusterConfig,
    capacities: &[usize],
    threads: usize,
) -> Vec<Result<ClusterOutcome, PanicFailure>> {
    let mut order: Vec<usize> = (0..capacities.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(capacities[i]));
    let unbounded: OnceLock<ClusterOutcome> = OnceLock::new();
    let ran = fanout::run_indexed(order.len(), threads, |k| {
        let capacity = capacities[order[k]];
        if let Some(out) = unbounded.get() {
            if out.nodes.iter().all(|n| capacity >= n.peak_footprint_bytes) {
                return out.clone();
            }
        }
        let mut point = cfg.clone();
        point.store.capacity_bytes = capacity;
        let out = ClusterSim::new(point).run();
        if out.store.evictions == 0 && out.store.rejected == 0 {
            // Every non-evicting outcome is the same outcome, so a lost
            // race to set the cell loses nothing.
            let _ = unbounded.set(out.clone());
        }
        out
    });
    let mut indexed: Vec<_> = order
        .into_iter()
        .zip(ran)
        .map(|(i, r)| (i, r.map_err(|f| PanicFailure { index: i, ..f })))
        .collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 1_500_000, ..ArrivalConfig::default() },
            ..ClusterConfig::default()
        }
    }

    /// Serves the configured arrival process into `sink`.
    fn observed_run<S: EventSink>(sim: &ClusterSim, sink: &mut S) -> ClusterOutcome {
        let mut source = sim.config().arrival.source();
        sim.run_source_policy_obs(&mut source, sink, &mut StaticPolicy)
    }

    #[test]
    fn serves_every_arrival() {
        let sim = ClusterSim::new(quick_cfg());
        let trace = {
            let mut a = sim.config().arrival;
            a.functions = 20;
            a.generate()
        };
        let mut source = ignite_workloads::arrival::TraceSource::new(&trace);
        let out = sim.run_source_policy_obs(&mut source, &mut NullSink, &mut StaticPolicy);
        assert_eq!(out.invocations as usize, trace.arrivals.len());
        assert!(out.makespan > 0);
        let per_core: u64 = out.cores.iter().map(|c| c.invocations).sum();
        assert_eq!(per_core, out.invocations);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = ClusterSim::new(quick_cfg());
        assert_eq!(sim.run(), sim.run());
    }

    #[test]
    fn store_hits_accumulate_under_repeat_traffic() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert!(out.store.hits > 0, "hot functions must find their metadata");
        assert!(out.store.hit_rate() > 0.3, "hit rate {}", out.store.hit_rate());
        assert!(out.peak_footprint_bytes > 0);
        assert!(out.peak_footprint_bytes <= quick_cfg().store.capacity_bytes);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert!(out.p50_latency <= out.p95_latency);
        assert!(out.p95_latency <= out.p99_latency);
        for f in out.functions.iter().filter(|f| f.invocations > 0) {
            assert!(f.p50_latency <= f.p99_latency, "{}", f.abbr);
            assert!(f.mean_service > 0.0, "{}", f.abbr);
        }
    }

    #[test]
    fn popular_functions_run_data_warmer() {
        let out = ClusterSim::new(quick_cfg()).run();
        let head = &out.functions[0];
        let tail =
            out.functions.iter().rev().find(|f| f.invocations > 1).expect("some tail traffic");
        assert!(head.invocations > tail.invocations, "Zipf head gets more traffic");
        assert!(
            head.mean_cold_fraction < tail.mean_cold_fraction,
            "head cold {} must be below tail cold {}",
            head.mean_cold_fraction,
            tail.mean_cold_fraction
        );
    }

    #[test]
    fn no_store_traffic_without_ignite() {
        let mut cfg = quick_cfg();
        cfg.fe = FrontEndConfig::nl();
        let out = ClusterSim::new(cfg).run();
        assert_eq!(out.store.hits + out.store.misses, 0);
        assert_eq!(out.footprint_bytes, 0);
    }

    #[test]
    fn capacity_sweep_is_monotone_in_hit_rate() {
        let cfg = quick_cfg();
        let caps = [2 * 1024, 8 * 1024, 256 * 1024];
        let outs: Vec<ClusterOutcome> =
            sweep_capacities(&cfg, &caps, 3).into_iter().map(|r| r.expect("no panics")).collect();
        for w in outs.windows(2) {
            assert!(
                w[0].store.hit_rate() <= w[1].store.hit_rate(),
                "hit rate must not drop with capacity: {} vs {}",
                w[0].store.hit_rate(),
                w[1].store.hit_rate()
            );
        }
        assert!(
            outs[0].store.hit_rate() < outs[2].store.hit_rate(),
            "a 2 KiB store must hit less than a 256 KiB one"
        );
    }

    #[test]
    fn sweep_failures_name_the_sweep_point() {
        // Points run in descending capacity; a failure must still carry
        // its position in the caller's list.
        let cfg = ClusterConfig { cores: 0, ..quick_cfg() };
        let caps = [2 * 1024, 256 * 1024, 8 * 1024];
        for (i, r) in sweep_capacities(&cfg, &caps, 2).into_iter().enumerate() {
            assert_eq!(r.expect_err("a zero-core point must panic").index, i);
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 50), 50);
        assert_eq!(percentile(&data, 95), 95);
        assert_eq!(percentile(&data, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn percentile_out_of_range_saturates_at_max() {
        // Regression: p > 100 used to compute rank > n and index past the
        // slice; it must saturate at the maximum instead.
        assert_eq!(percentile(&[1, 2, 3], 101), 3);
        assert_eq!(percentile(&[5], 400), 5);
    }

    /// Brute-force nearest-rank reference: the smallest value `v` in the
    /// data such that at least `p`% of the data is ≤ `v`.
    fn percentile_reference(sorted: &[u64], p: u32) -> u64 {
        for &v in sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= v).count() as u64;
            if at_or_below * 100 >= u64::from(p) * sorted.len() as u64 {
                return v;
            }
        }
        *sorted.last().expect("non-empty")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn percentile_matches_brute_force(
            mut data in proptest::collection::vec(0u64..1_000_000, 1..200),
            p in 0u32..101,
        ) {
            data.sort_unstable();
            proptest::prop_assert_eq!(percentile(&data, p), percentile_reference(&data, p));
        }

        #[test]
        fn percentiles_are_monotone_and_max_bounded(
            mut data in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            data.sort_unstable();
            let max = *data.last().expect("non-empty");
            let curve: Vec<u64> = (0..=100).map(|p| percentile(&data, p)).collect();
            for w in curve.windows(2) {
                proptest::prop_assert!(w[0] <= w[1], "percentile curve must be monotone");
            }
            proptest::prop_assert_eq!(curve[100], max);
            if data.len() < 100 {
                // With fewer than 100 samples the 99th percentile is the max.
                proptest::prop_assert_eq!(percentile(&data, 99), max);
            }
        }
    }

    #[test]
    fn watchdog_abandons_are_not_double_counted() {
        let mut cfg = quick_cfg();
        let ig = cfg.fe.select.ignite.as_mut().expect("default cluster fe selects ignite");
        // Replay that can never catch up: no throttle headroom and a hair
        // trigger watchdog, so stalled replays abandon instead of pending.
        ig.replay.throttle_threshold = 0;
        ig.replay.watchdog_stall_steps = 4;
        ig.replay.prefetch_instructions = false;
        let out = ClusterSim::new(cfg).run();
        let total = out.total_result();
        assert!(total.replay.watchdog_abandons > 0, "config must force abandons");
        assert!(total.replay.entries_dropped > 0, "abandoned entries count as dropped");
        // Regression: entries the watchdog dropped used to also be
        // reported as unfinished, counting the same invocation twice.
        assert_eq!(total.replay_unfinished, 0);
    }

    #[test]
    fn observed_run_matches_plain_run_and_covers_transitions() {
        let sim = ClusterSim::new(quick_cfg());
        let plain = sim.run();
        let mut buf = ignite_obs::TraceBuffer::new(1 << 20);
        let observed = observed_run(&sim, &mut buf);
        assert_eq!(plain, observed, "observation must not perturb the simulation");
        assert_eq!(buf.dropped(), 0, "buffer sized for the whole run");
        let names: std::collections::BTreeSet<&str> = buf.iter().map(|e| e.kind.name()).collect();
        for required in
            ["arrival", "dispatch", "context-switch", "invocation", "complete", "store-hit"]
        {
            assert!(names.contains(required), "missing {required} events; have {names:?}");
        }
    }

    #[test]
    fn latency_histogram_accounts_every_invocation() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert_eq!(out.latency_histogram.len(), LATENCY_BUCKETS.len() + 1);
        assert_eq!(out.latency_histogram.iter().sum::<u64>(), out.invocations);
        assert!(out.latency_sum >= out.invocations * out.p50_latency / 2);
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(chaos_cfg(7).validate().is_ok());
        let msg = |cfg: &ClusterConfig| cfg.validate().unwrap_err().to_string();
        let bad = ClusterConfig { cores: 0, ..ClusterConfig::default() };
        assert!(msg(&bad).contains("cores"));
        let bad = ClusterConfig { dram_bytes_per_cycle: f64::NAN, ..ClusterConfig::default() };
        assert!(msg(&bad).contains("dram_bytes_per_cycle"));
        let bad = ClusterConfig {
            retry: RetryPolicy { max_attempts: 0, ..RetryPolicy::default() },
            ..ClusterConfig::default()
        };
        assert!(msg(&bad).contains("max_attempts"));
        let mut bad = chaos_cfg(7);
        bad.chaos.as_mut().unwrap().crash_repair_cycles = 0;
        assert!(msg(&bad).contains("crash"));
        let mut bad = chaos_cfg(7);
        bad.chaos.as_mut().unwrap().straggle_factor_milli = 500;
        assert!(msg(&bad).contains("straggle_factor_milli"));
    }

    #[test]
    fn sub_unit_dram_bandwidth_is_simulated_as_configured() {
        // Regression: transfers divided by `max(1.0)` of the bandwidth,
        // so a validated 0.5 B/cycle silently ran as 1.0 B/cycle.
        let latency_sum = |dram_bytes_per_cycle: f64| {
            let cfg = ClusterConfig { dram_bytes_per_cycle, ..quick_cfg() };
            ClusterSim::new(cfg).run().latency_sum
        };
        assert!(latency_sum(0.5) > latency_sum(1.0), "halving bandwidth must cost latency");
    }

    #[test]
    #[should_panic(expected = "dram_bytes_per_cycle")]
    fn new_panics_with_the_config_error() {
        ClusterSim::new(ClusterConfig { dram_bytes_per_cycle: 0.0, ..quick_cfg() });
    }

    #[test]
    fn topology_validation_rejects_bad_shapes_with_typed_errors() {
        let bad = ClusterConfig {
            topology: Topology { nodes: 0, ..Topology::default() },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroNodes);
        let bad = ClusterConfig {
            topology: Topology {
                scheduler: SchedulerKind::Random { choices: 0 },
                ..Topology::default()
            },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroSchedulerChoices);
        let bad = ClusterConfig {
            topology: Topology {
                keepalive: KeepAliveKind::Fixed { window_cycles: 0 },
                ..Topology::default()
            },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroKeepAliveWindow);
        let ok = ClusterConfig {
            topology: Topology {
                nodes: 3,
                scheduler: SchedulerKind::Affinity,
                keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
            },
            ..ClusterConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    fn chaos_cfg(chaos_seed: u64) -> ClusterConfig {
        ClusterConfig { chaos: Some(ChaosPlan::default_preset().seeded(chaos_seed)), ..quick_cfg() }
    }

    #[test]
    fn chaos_run_conserves_every_submission() {
        let out = ClusterSim::new(chaos_cfg(7)).run();
        let ch = out.chaos.as_ref().expect("chaos stats present");
        assert!(ch.conserved(), "conservation violated: {ch:?}");
        assert_eq!(ch.completed, out.invocations);
        assert!(ch.submitted > 0);
        // The preset is violent enough to exercise the machinery.
        assert!(ch.attempts_failed > 0, "no failures injected: {ch:?}");
        assert!(ch.degraded_total() > 0, "no degradations: {ch:?}");
        // Per-function drop counters agree with the ledger.
        let dropped: u64 = out.functions.iter().map(|f| f.dropped).sum();
        assert_eq!(dropped, ch.dropped_total());
    }

    #[test]
    fn chaos_is_deterministic() {
        assert_eq!(ClusterSim::new(chaos_cfg(7)).run(), ClusterSim::new(chaos_cfg(7)).run());
    }

    #[test]
    fn inert_chaos_plan_matches_chaos_off_exactly() {
        // An all-zero plan schedules no failures; the chaos machinery
        // must then be arithmetically invisible.
        let inert = ClusterConfig { chaos: Some(ChaosPlan::none()), ..quick_cfg() };
        let with = ClusterSim::new(inert).run();
        let without = ClusterSim::new(quick_cfg()).run();
        assert_eq!(with.invocations, without.invocations);
        assert_eq!(with.makespan, without.makespan);
        assert_eq!(with.latency_sum, without.latency_sum);
        assert_eq!(with.latency_histogram, without.latency_histogram);
        assert_eq!(with.cores, without.cores);
        assert_eq!(with.functions, without.functions);
        let ch = with.chaos.expect("inert plan still reports chaos stats");
        assert_eq!(ch.submitted, ch.completed);
        assert_eq!(ch.attempts_failed, 0);
        assert_eq!(ch.degraded_total(), 0);
        assert_eq!(ch.retry_cycles, 0);
    }

    #[test]
    fn chaos_seed_does_not_perturb_the_arrival_stream() {
        // Satellite: the arrival process is driven by `--seed` alone;
        // re-seeding chaos must replay the identical offered load.
        let base = ClusterSim::new(chaos_cfg(7)).run();
        let other = ClusterSim::new(chaos_cfg(1234)).run();
        let a = base.chaos.as_ref().unwrap();
        let b = other.chaos.as_ref().unwrap();
        assert_eq!(a.submitted, b.submitted, "arrival count must not depend on the chaos seed");
        // And the failure schedules genuinely differ.
        assert_ne!(
            (a.attempts_failed, a.retry_cycles, a.degraded_total()),
            (b.attempts_failed, b.retry_cycles, b.degraded_total()),
            "distinct chaos seeds should inject distinct failures"
        );
    }

    #[test]
    fn chaos_latencies_tile_into_components() {
        // Replaying the chaos run under a scope analyzer must satisfy
        // the 7-component attribution invariant for every completion.
        let sim = ClusterSim::new(chaos_cfg(7));
        let mut buf = ignite_obs::TraceBuffer::new(1 << 21);
        let out = observed_run(&sim, &mut buf);
        let mut attributed = 0u64;
        let mut latency_sum = 0u64;
        for e in buf.iter() {
            if let EventKind::Attribution {
                queue_cycles,
                retry_cycles,
                dram_cycles,
                cold_frontend_cycles,
                store_miss_cycles,
                degraded_cycles,
                execution_cycles,
                latency_cycles,
                ..
            } = e.kind
            {
                assert_eq!(
                    queue_cycles
                        + retry_cycles
                        + dram_cycles
                        + cold_frontend_cycles
                        + store_miss_cycles
                        + degraded_cycles
                        + execution_cycles,
                    latency_cycles,
                    "components must tile the latency"
                );
                attributed += 1;
                latency_sum += latency_cycles;
            }
        }
        assert_eq!(attributed, out.invocations, "every completion is attributed");
        assert_eq!(latency_sum, out.latency_sum, "attributed latency totals the sim's sum");
    }
}
