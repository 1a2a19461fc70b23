#![warn(missing_docs)]
//! `ignite-control`: an online policy controller that closes the loop
//! from scope attribution back into the cluster simulator.
//!
//! The observability stack (PRs 4 and 7) made every invocation's latency
//! explainable: seven attribution components that tile it exactly, SLO
//! burn-rate trackers, store footprint gauges. This crate *consumes*
//! that stream online — through a windowed [`OnlineScope`] fold, O(1)
//! per event, reusing [`ignite_obs::QuantileSketch`] merges — and
//! actuates the four policy axes `cluster::sim` exposes through
//! [`ignite_cluster::PolicyHook`]:
//!
//! * **replay admission** — disable record/replay per function when the
//!   attributed `store_miss + dram` cycles it costs exceed the
//!   front-end cycles replay saves, with a periodic re-enable probe;
//! * **store admission** — tighten metadata-store writeback admission
//!   under footprint pressure with eviction churn, loosen when pressure
//!   subsides;
//! * **core scaling** — raise the schedulable-core cap when the epoch
//!   p99 breaches the latency SLO (or its burn-rate tracker fires),
//!   lower it when latency is comfortably under and queues are empty;
//! * **keep-alive retuning** — reset per-function keep-alive windows
//!   from the observed idle-gap histogram.
//!
//! Every decision is observability: the simulator mirrors each
//! [`ignite_cluster::Decision`] onto the `Track::Controller` trace
//! track, the run report grows a validated `controller` section, and
//! the Prometheus exposition, a projection of that report, grows its
//! `ignite_cluster_controller_*` gauges. The
//! controller is bit-deterministic: integer-only rule math, `BTreeMap`
//! iteration everywhere, and epoch boundaries derived purely from the
//! simulated clock.

pub mod controller;
pub mod online;
pub mod spec;

pub use controller::Controller;
pub use online::{FnWindow, OnlineScope};
pub use spec::{ControllerSpec, SpecError};
