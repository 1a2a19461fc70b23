//! `ignite-scope`: causal latency attribution, SLO burn-rate alerting,
//! and differential run analysis on top of the obs event stream.
//!
//! Three consumers of the artifacts the rest of the workspace already
//! produces:
//!
//! - [`ScopeAnalyzer`] is an [`ignite_obs::EventSink`] tee: it forwards
//!   every event to an inner sink (a `TraceBuffer`, or `NullSink` when
//!   no trace is wanted) while folding `Attribution` events into exact
//!   per-function latency breakdowns. Because the cluster simulator's
//!   attribution components are integer cycle counts that tile the
//!   end-to-end latency *exactly*, the analyzer's aggregates carry the
//!   same invariant: the seven components of an
//!   [`ignite_obs::Attribution`] sum to its latency, per invocation and
//!   in every sum.
//! - [`SloTracker`] (driven by the analyzer when an [`SloConfig`] is
//!   supplied) keeps multi-window burn rates over the attribution
//!   stream in pure integer arithmetic and emits `AlertFire` /
//!   `AlertResolve` events onto their own trace track.
//! - [`diff()`] compares two runs — two cluster reports or two scope
//!   reports — and flags significant regressions/improvements,
//!   replacing ad-hoc percentage gates in CI.
//!
//! Everything here is deterministic: same events in, byte-identical
//! report out, in any process.

pub mod attribution;
pub mod diff;
pub mod report;
pub mod slo;

pub use attribution::{ScopeAnalyzer, ScopeTotals};
pub use diff::{diff, load_samples, same_kind, DiffEntry, DiffReport, Loaded, MetricSample};
pub use report::{record_scope_metrics, record_slo_metrics, ScopeReport, ScopeRow, SCOPE_SCHEMA};
pub use slo::{SloConfig, SloTracker, Transition};
