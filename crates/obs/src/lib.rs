//! Observability for the Ignite simulator: event tracing + metrics.
//!
//! The simulator's reports (`ignite-cluster-v1`, `ignite-scope-v1`) say
//! *what* happened — mean latency, hit rates, replay fault counters. This
//! crate answers *why*: a per-core timeline of every discrete event the
//! simulation takes (arrivals, dispatches, store evictions, replay
//! watchdog abandons, Top-Down phase attribution) plus an exported
//! gauge/histogram registry.
//!
//! Two sinks, both dependency-free and deterministic:
//!
//! * [`TraceBuffer`] — a bounded ring buffer of [`Event`]s (drop-oldest
//!   under pressure, with a drop counter), exported as Chrome
//!   trace-event JSON by [`chrome::to_chrome_json`]. Load the file in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`: one
//!   track per simulated core, one for the metadata store, one for the
//!   cluster queue.
//! * [`MetricsRegistry`] — gauges and fixed-bucket histograms with
//!   Prometheus-style text exposition of one end-of-run snapshot. The
//!   cluster and scope reports fill it through their own walks, so it
//!   holds exactly their numbers. Iteration order is `BTreeMap`-sorted
//!   everywhere, so the exposition is byte-identical for identical
//!   inputs across processes.
//!
//! # The zero-cost contract
//!
//! Instrumented code takes a generic `S: EventSink` and guards every
//! emission site with `sink.enabled()`. [`NullSink::enabled`] is an
//! `#[inline(always)] false` constant, so monomorphized call paths with
//! `NullSink` compile to exactly the un-instrumented code — the golden
//! snapshot tests do not move when observability is off, and the
//! repository benchmark's `zipf-steady` workload times that path. See
//! `DESIGN.md` §11.

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod sketch;

pub use chrome::{to_chrome_json, ChromeOptions, CHROME_SCHEMA};
pub use event::{
    Attribution, CtrlRule, DegradeReason, DropReason, Event, EventKind, EventSink, NullSink, Phase,
    TraceBuffer, Track,
};
pub use metrics::MetricsRegistry;
pub use sketch::QuantileSketch;
