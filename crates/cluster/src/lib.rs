#![warn(missing_docs)]
//! `ignite-cluster`: a discrete-event serverless worker-fleet simulator
//! that serves interleaved invocation traffic over the front-end model.
//!
//! The paper's lukewarm setting is emergent, not scripted: a server
//! interleaves thousands of invocations of many functions, and each
//! function returns to find its front-end state partially evicted by
//! whoever ran in between (Ignite §2). The per-function harness imposes
//! that with a protocol flush; this crate *produces* it:
//!
//! * an open-loop Poisson arrival process with Zipf popularity skew over
//!   the 20-function suite ([`ignite_workloads::arrival`]), replayable via
//!   a text trace format;
//! * a deterministic N-node topology ([`sim::Topology`]): pluggable
//!   placement schedulers ([`sched`] — fifo, least-loaded, random:N
//!   power-of-N-choices, metadata-affinity) route arrivals onto nodes,
//!   and each node dispatches onto its own simulated cores, each a
//!   persistent [`ignite_engine::machine::Machine`] that is *never
//!   flushed* between invocations — other functions' code evicts
//!   front-end state naturally, and the per-(core, function) interleaving
//!   distance drives the back-end data-cold model
//!   ([`ignite_engine::sim::InvocationCtx`]);
//! * a bounded, per-node Ignite metadata store
//!   ([`ignite_core::MetadataStore`]) with LRU / size-aware / pin-hot
//!   eviction, charging record/replay DRAM bandwidth on the critical
//!   path, plus pluggable keep-alive pre-warm policies ([`keepalive`] —
//!   none, fixed-window, hybrid per-function idle-gap histogram) with
//!   dslab-faas-style cold/lukewarm/warm start and wasted-cycle
//!   accounting;
//! * queueing/latency accounting: per-function p50/p95/p99 invocation
//!   latency, core utilization, metadata hit rate and footprint, emitted
//!   as a versioned JSON report (schema [`report::CLUSTER_SCHEMA`]);
//! * observability: every DES transition reported to an
//!   [`ignite_obs::EventSink`] ([`sim::ClusterSim::run_source_policy_obs`]),
//!   exportable as a validated Chrome trace ([`tracecheck`]) and as
//!   deterministic Prometheus-style metrics ([`prom`]);
//! * failure injection and recovery ([`ignite_chaos`]): seeded core
//!   crash/repair windows, store corruption and unavailability,
//!   stragglers and dispatch drops, answered by deadlines, bounded
//!   retry with deterministic backoff, per-function circuit breakers
//!   and graceful degradation to cold execution. Chaos runs report
//!   under schema [`report::CLUSTER_SCHEMA_V2`] with a
//!   validator-enforced invocation conservation law; with chaos off
//!   every output is byte-identical to the failure-free simulator.
//!
//! Everything is bit-deterministic for a fixed seed, across thread counts
//! and processes: the event loop breaks ties by (completion before
//! arrival, core index), the store iterates `BTreeMap`s, and the report
//! serializes floats with shortest round-trip formatting.

pub mod fanout;
pub mod json;
pub mod keepalive;
pub mod policy;
pub mod prom;
pub mod report;
pub mod sched;
pub mod sim;
pub mod tracecheck;

pub use fanout::{run_indexed, PanicFailure};
pub use keepalive::{KeepAliveKind, KeepAliveRt};
pub use policy::{
    ClusterGauges, ControllerStats, Decision, PolicyHook, PolicySample, StaticPolicy,
};
pub use prom::{metrics_for, record_metrics};
pub use report::{ClusterReport, ObsSummary, CLUSTER_SCHEMA, CLUSTER_SCHEMA_V2};
pub use sched::{NodeLoad, Scheduler, SchedulerKind};
pub use sim::{
    sweep_capacities, ClusterConfig, ClusterOutcome, ClusterSim, ConfigError, CoreUsage,
    FunctionSummary, NodeUsage, Topology, LATENCY_BUCKETS, MAX_JOBS,
};
pub use tracecheck::{validate_trace, TraceSummary};
