//! The benchmark's three workloads and one repetition ("rep") of each.
//!
//! A rep is one complete use of the simulator: for the two cluster
//! workloads a `ClusterSim` run over freshly generated arrivals followed
//! by building and validating every report; for `paper-protocol` the
//! per-function lukewarm protocol over every (function, front-end) pair.
//! An untraced rep calls the simulator exactly as the `cluster` binary
//! does; a traced rep wraps the sink, policy and source in
//! [`crate::layers`] and splits its host time by layer.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ignite_chaos::parse_chaos_spec;
use ignite_cluster::{
    fanout, metrics_for, validate_trace, ClusterConfig, ClusterOutcome, ClusterReport, ClusterSim,
    KeepAliveKind, PolicyHook, SchedulerKind, StaticPolicy,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::PreparedFunction;
use ignite_engine::metrics::InvocationResult;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_obs::{to_chrome_json, ChromeOptions, EventSink, NullSink, TraceBuffer};
use ignite_scope::{
    record_scope_metrics, record_slo_metrics, ScopeAnalyzer, ScopeReport, SloConfig,
};
use ignite_traffic::TrafficSpec;
use ignite_uarch::UarchConfig;
use ignite_workloads::arrival::{Arrival, ArrivalSource};
use ignite_workloads::suite::{build_image, Suite, SuiteFunction};

use crate::layers::{Layer, Ledger, TimedPolicy, TimedSink, TimedSource};
use crate::probe;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Poisson/Zipf arrivals on the default single node, everything
    /// optional off.
    ZipfSteady,
    /// Bursty MMPP arrivals on a chaotic 3-node fleet with scope, SLO
    /// alerting and the online controller.
    MmppFleet,
    /// The paper's per-function protocol over every front-end config.
    PaperProtocol,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ZipfSteady, Kind::MmppFleet, Kind::PaperProtocol];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfSteady => "zipf-steady",
            Kind::MmppFleet => "mmpp-fleet",
            Kind::PaperProtocol => "paper-protocol",
        }
    }

    /// The pinned seed used when none is given. Seed 0 of
    /// `paper-protocol` is the committed paper suite.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::ZipfSteady | Kind::MmppFleet => 42,
            Kind::PaperProtocol => 0,
        }
    }
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host wall time from the first simulator call to the last report
    /// validated.
    pub wall: Duration,
    /// On-CPU time over the same interval, every thread included.
    pub cpu_ns: u64,
    /// Operations attempted: simulated invocations, or protocol tasks.
    pub ops: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Simulated invocations completed.
    pub invocations: u64,
    /// Simulated instructions.
    pub instructions: u64,
    /// Heap bytes allocated during the rep.
    pub allocated: u64,
    /// Highest live heap bytes during the rep.
    pub peak_heap: u64,
    /// Digest of every simulated result of the rep.
    pub digest: u64,
    /// Per-layer metrics (traced reps only).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload bound to its seed and inputs.
pub trait Workload {
    /// What set-up produces.
    type Prepared;

    /// Prepares the simulator (the `setup_s` interval).
    fn setup(&self) -> Self::Prepared;

    /// Runs one rep.
    fn rep(&self, prepared: &Self::Prepared, traced: bool) -> Rep;
}

/// FNV-1a over bytes, chained from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Divides, reading 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Shared rep bookkeeping: heap and CPU probes around the measured
/// interval.
struct Probes {
    heap: probe::Heap,
    cpu: u64,
}

impl Probes {
    fn start() -> Self {
        probe::reset_peak();
        Probes { heap: probe::heap(), cpu: probe::thread_cpu_ns() }
    }

    fn stop(self, rep: &mut Rep) {
        rep.cpu_ns += probe::thread_cpu_ns() - self.cpu;
        let heap = probe::heap();
        rep.allocated = heap.allocated - self.heap.allocated;
        rep.peak_heap = heap.peak;
    }
}

/// Yields at most `limit` arrivals, so every seed serves the same
/// number of invocations.
pub struct Limit {
    inner: Box<dyn ArrivalSource>,
    left: usize,
    yielded: u64,
}

impl ArrivalSource for Limit {
    fn functions(&self) -> usize {
        self.inner.functions()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let next = self.inner.next_arrival();
        self.yielded += u64::from(next.is_some());
        next
    }
}

/// The obs layer behind the sink: absent, or the scope analyzer.
pub trait Analyzer: EventSink {
    /// The scope analyzer, when there is one.
    fn scope(&self) -> Option<&ScopeAnalyzer<NullSink>>;
}

impl Analyzer for NullSink {
    fn scope(&self) -> Option<&ScopeAnalyzer<NullSink>> {
        None
    }
}

impl Analyzer for ScopeAnalyzer<NullSink> {
    fn scope(&self) -> Option<&ScopeAnalyzer<NullSink>> {
        Some(self)
    }
}

/// Observability and control of the `mmpp-fleet` run.
#[derive(Debug, Clone, Copy)]
struct FullStack {
    slo: SloConfig,
    controller: ControllerSpec,
}

/// A cluster workload: configuration plus input generator.
pub struct ClusterWorkload {
    cfg: ClusterConfig,
    traffic: Option<(TrafficSpec, Suite)>,
    stack: Option<FullStack>,
    arrivals: usize,
}

/// Every report of a cluster rep, validated.
struct Reports {
    texts: Vec<String>,
    alert_fires: u64,
}

impl ClusterWorkload {
    /// `zipf-steady`: the plain `cluster` run (default single node, 4
    /// cores, fifo, no keep-alive, default store, Ignite at scale 0.02)
    /// serving `arrivals` Poisson/Zipf(1.0) invocations.
    pub fn zipf_steady(seed: u64, arrivals: usize) -> Self {
        let mut cfg = ClusterConfig::default();
        cfg.arrival.seed = seed;
        cfg.arrival.functions = 20;
        // The arrival count, not the horizon, ends the stream.
        cfg.arrival.horizon_cycles = u64::MAX / 2;
        ClusterWorkload { cfg, traffic: None, stack: None, arrivals }
    }

    /// `mmpp-fleet`: bursty MMPP arrivals into 3 nodes × 2 cores
    /// (affinity scheduler, hybrid keep-alive, a 512-byte store per node
    /// that evicts and rejects) with default chaos, the scope analyzer
    /// with default SLO alerting and the default controller, the suite
    /// at its minimum scale.
    pub fn mmpp_fleet(seed: u64, arrivals: usize) -> Self {
        const TRAFFIC: &str = "mmpp:mults=1/6,dwells=300000/60000";
        let mut cfg = ClusterConfig { cores: 2, scale: 0.001, ..ClusterConfig::default() };
        cfg.topology.nodes = 3;
        cfg.topology.scheduler = SchedulerKind::Affinity;
        cfg.topology.keepalive = KeepAliveKind::parse("hybrid").expect("valid keep-alive");
        cfg.store.capacity_bytes = 512;
        cfg.arrival.seed = seed;
        cfg.arrival.functions = 20;
        cfg.arrival.horizon_cycles = u64::MAX / 2;
        cfg.chaos = Some(parse_chaos_spec("default").expect("valid chaos").seeded(seed));
        cfg.traffic = Some(TRAFFIC.to_string());
        cfg.controller = Some("default".to_string());
        let spec = TrafficSpec::parse(TRAFFIC).expect("valid traffic");
        let stack = FullStack {
            slo: SloConfig::default(),
            controller: ControllerSpec::parse("default").expect("valid controller"),
        };
        let suite = Suite::paper_suite_scaled(cfg.scale);
        ClusterWorkload { cfg, traffic: Some((spec, suite)), stack: Some(stack), arrivals }
    }

    /// A fresh arrival stream for one rep.
    pub fn source(&self) -> Limit {
        let inner: Box<dyn ArrivalSource> = match &self.traffic {
            Some((spec, suite)) => spec.build(&self.cfg.arrival, suite).expect("synthetic traffic"),
            None => Box::new(self.cfg.arrival.source()),
        };
        Limit { inner, left: self.arrivals, yielded: 0 }
    }

    /// Builds and validates every report the workload emits: the cluster
    /// report, and with the full stack the scope report and the
    /// Prometheus exposition.
    fn reports(
        &self,
        outcome: &ClusterOutcome,
        scope: Option<&ScopeAnalyzer<NullSink>>,
    ) -> Result<Reports, String> {
        let mut texts = Vec::new();
        let mut alert_fires = 0;
        if let Some(an) = scope {
            let abbrs: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
            let report = ScopeReport::from_analyzer(an, &abbrs);
            let text = report.to_json();
            ScopeReport::validate(&text).map_err(|e| format!("scope report: {e}"))?;
            let mut reg = metrics_for(&self.cfg, outcome);
            record_scope_metrics(&mut reg, &report);
            record_slo_metrics(&mut reg, an, &abbrs);
            let prom = reg.expose();
            check_exposition(&prom)?;
            alert_fires = report.totals.alert_fires;
            texts.push(text);
            texts.push(prom);
        }
        let report = ClusterReport::new(self.cfg.clone(), outcome.clone());
        let text = report.to_json();
        ClusterReport::validate(&text).map_err(|e| format!("cluster report: {e}"))?;
        texts.push(text);
        Ok(Reports { texts, alert_fires })
    }

    /// The conservation law: every arrival is served or dropped with a
    /// reason.
    fn conserved(outcome: &ClusterOutcome, arrivals: u64) -> Result<(), String> {
        let served = match &outcome.chaos {
            Some(ch) if !ch.conserved() => {
                return Err(format!(
                    "chaos ledger: {} submitted != {} completed + {} dropped",
                    ch.submitted,
                    ch.completed,
                    ch.dropped_total()
                ));
            }
            Some(ch) => ch.submitted,
            None => outcome.invocations,
        };
        if served != arrivals {
            return Err(format!("{arrivals} arrivals but {served} submitted"));
        }
        Ok(())
    }

    fn rep_with<S: Analyzer, P: PolicyHook>(
        &self,
        sim: &ClusterSim,
        sink: S,
        policy: P,
        traced: bool,
    ) -> Rep {
        let mut rep = Rep::default();
        let mut source = self.source();
        let probes = Probes::start();
        let result = if traced {
            let ledger = RefCell::new(Ledger::start());
            let mut sink = TimedSink::new(sink, &ledger);
            let mut policy = TimedPolicy::new(policy, &ledger);
            let mut timed_source = TimedSource::new(&mut source, &ledger);
            let outcome = sim.run_source_policy_obs(&mut timed_source, &mut sink, &mut policy);
            let sim_wall = ledger.borrow_mut().finish();
            let t = Instant::now();
            let reports = self.reports(&outcome, sink.inner().scope());
            let report_time = t.elapsed();
            rep.wall = sim_wall + report_time;
            probes.stop(&mut rep);
            let spans = sink.spans();
            rep.layers =
                Self::layer_metrics(&ledger.borrow(), &outcome, report_time, &reports, rep.wall);
            reports.and_then(|r| check_spans(spans, &outcome).map(|()| (outcome, r)))
        } else {
            let t = Instant::now();
            let mut sink = sink;
            let mut policy = policy;
            let outcome = sim.run_source_policy_obs(&mut source, &mut sink, &mut policy);
            let reports = self.reports(&outcome, sink.scope());
            rep.wall = t.elapsed();
            probes.stop(&mut rep);
            reports.map(|r| (outcome, r))
        };
        rep.ops = source.yielded;
        let checked = result.and_then(|(outcome, reports)| {
            Self::conserved(&outcome, source.yielded)?;
            Ok((outcome, reports))
        });
        match checked {
            Ok((outcome, reports)) => {
                rep.invocations = outcome.invocations;
                rep.instructions = outcome.total_result().instructions;
                rep.digest = fnv(FNV_SEED, format!("{outcome:?}").as_bytes());
                for text in &reports.texts {
                    rep.digest = fnv(rep.digest, text.as_bytes());
                }
            }
            Err(e) => {
                eprintln!("perfbench: check failed: {e}");
                rep.failed = rep.ops;
            }
        }
        rep
    }

    /// The per-layer metrics of a traced rep.
    fn layer_metrics(
        ledger: &Ledger,
        outcome: &ClusterOutcome,
        report_time: Duration,
        reports: &Result<Reports, String>,
        wall: Duration,
    ) -> Vec<(&'static str, f64)> {
        let secs = |l: Layer| ledger.self_time(l).as_secs_f64();
        let ns = |l: Layer| secs(l) * 1e9;
        let total = outcome.total_result();
        let instr = total.instructions as f64;
        let inv = outcome.invocations as f64;
        let queue: f64 =
            outcome.functions.iter().map(|f| f.mean_queue * f.invocations as f64).sum();
        let store = &outcome.store;
        let ctrl = outcome.controller.as_ref();
        let chaos = outcome.chaos.as_ref();
        let engine_ns_per_instr = ratio(ns(Layer::Engine), instr);
        vec![
            ("engine.self_s", secs(Layer::Engine)),
            ("engine.calls", ledger.engine_calls as f64),
            ("engine.ns_per_instr", engine_ns_per_instr),
            // Both cluster workloads run the Ignite front-end only.
            ("engine.ignite.ns_per_instr", engine_ns_per_instr),
            ("engine.sim_instructions", instr),
            ("engine.sim_cpi", total.cpi()),
            ("stage.self_s", secs(Layer::Stage)),
            ("store.hits", store.hits as f64),
            ("store.misses", store.misses as f64),
            ("store.evictions", store.evictions as f64),
            ("store.rejects", store.rejected as f64),
            ("store.bytes_fetched", store.bytes_read as f64),
            ("store.sim_hit_rate", store.hit_rate()),
            ("des.self_s", secs(Layer::Des)),
            ("des.events_per_inv", ratio(ledger.events as f64, inv)),
            ("des.sim_mean_queue_kcycles", ratio(queue, inv) / 1e3),
            ("des.sim_utilization", outcome.mean_utilization()),
            ("keepalive.sim_wasted_mcycles", outcome.wasted_keepalive_cycles() as f64 / 1e6),
            ("traffic.self_s", secs(Layer::Traffic)),
            ("traffic.arrivals", ledger.arrivals as f64),
            ("traffic.ns_per_arrival", ratio(ns(Layer::Traffic), ledger.arrivals as f64)),
            ("obs.self_s", secs(Layer::Obs)),
            ("obs.events", ledger.obs_events as f64),
            ("obs.ns_per_event", ratio(ns(Layer::Obs), ledger.obs_events as f64)),
            ("obs.sim_alert_fires", reports.as_ref().map_or(0, |r| r.alert_fires) as f64),
            ("control.self_s", secs(Layer::Control)),
            ("control.calls", ledger.control_calls as f64),
            ("control.ns_per_call", ratio(ns(Layer::Control), ledger.control_calls as f64)),
            ("control.sim_epochs", ctrl.map_or(0, |c| c.epochs) as f64),
            ("control.sim_decisions", ctrl.map_or(0, |c| c.decisions.len()) as f64),
            ("chaos.sim_retries", outcome.functions.iter().map(|f| f.retries).sum::<u64>() as f64),
            ("chaos.sim_degraded", chaos.map_or(0, |c| c.degraded_total()) as f64),
            ("chaos.sim_dropped", chaos.map_or(0, |c| c.dropped_total()) as f64),
            ("report.self_s", report_time.as_secs_f64()),
            (
                "report.bytes",
                reports.as_ref().map_or(0, |r| r.texts.iter().map(String::len).sum::<usize>())
                    as f64,
            ),
            ("trace.self_s", secs(Layer::Trace)),
            ("trace.wall_s", wall.as_secs_f64()),
        ]
    }
}

impl Workload for ClusterWorkload {
    type Prepared = ClusterSim;

    fn setup(&self) -> ClusterSim {
        ClusterSim::new(self.cfg.clone())
    }

    fn rep(&self, sim: &ClusterSim, traced: bool) -> Rep {
        match &self.stack {
            Some(stack) => self.rep_with(
                sim,
                ScopeAnalyzer::new(NullSink).with_slo(stack.slo),
                Controller::new(stack.controller),
                traced,
            ),
            None => self.rep_with(sim, NullSink, StaticPolicy, traced),
        }
    }
}

/// Checks the benchmark's own span buffer: it exports to a Chrome trace
/// the trace validator accepts, dropped nothing, and holds one
/// invocation span per completion.
fn check_spans(spans: &TraceBuffer, outcome: &ClusterOutcome) -> Result<(), String> {
    let names: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    let text = to_chrome_json(
        spans,
        &ChromeOptions { process_name: "ignite-cluster", function_names: &names },
    );
    validate_trace(&text).map_err(|e| format!("chrome trace: {e}"))?;
    if spans.dropped() > 0 {
        return Err(format!("span buffer dropped {} events", spans.dropped()));
    }
    let spans_seen =
        spans.iter().filter(|e| matches!(e.kind, ignite_obs::EventKind::Invocation { .. })).count()
            as u64;
    if spans_seen != outcome.invocations {
        return Err(format!(
            "{spans_seen} invocation spans for {} invocations",
            outcome.invocations
        ));
    }
    Ok(())
}

/// Checks a Prometheus text exposition line by line: comments are
/// `# HELP`/`# TYPE`, every sample is `ignite_*{labels} value` with a
/// number for a value.
fn check_exposition(text: &str) -> Result<(), String> {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let bad = || format!("prometheus: malformed line '{line}'");
        let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
        let name = series.split('{').next().unwrap_or_default();
        let labels_closed = !series.contains('{') || series.ends_with('}');
        let value_ok = value.parse::<f64>().is_ok_and(|v| !v.is_nan());
        if !name.starts_with("ignite_") || !labels_closed || !value_ok {
            return Err(bad());
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("prometheus: no samples".to_string());
    }
    Ok(())
}

/// Fanout workers: the box the benchmark targets has 2 CPUs.
pub const WORKERS: usize = 2;

/// `paper-protocol`: `run_function` with [`RunOptions::quick`] for every
/// suite function under each of the paper's seven front-end configs,
/// fanned out over [`WORKERS`] threads.
pub struct ProtocolWorkload {
    uarch: UarchConfig,
    suite: Vec<SuiteFunction>,
    configs: Vec<FrontEndConfig>,
    opts: RunOptions,
}

impl ProtocolWorkload {
    /// The suite at `scale`; a nonzero `seed` re-draws every function's
    /// code structure (same profile, different generated image), seed 0
    /// is the paper suite.
    pub fn new(seed: u64, scale: f64) -> Self {
        let suite = Suite::paper_suite_scaled(scale)
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if seed == 0 {
                    return f.clone();
                }
                // The structural seed derives from the profile name.
                let mut salted = f.profile.clone();
                salted.abbr = format!("{}#{seed}", f.profile.abbr);
                SuiteFunction { profile: f.profile.clone(), image: build_image(&salted, i as u64) }
            })
            .collect();
        ProtocolWorkload {
            uarch: UarchConfig::ice_lake_like(),
            suite,
            configs: vec![
                FrontEndConfig::nl(),
                FrontEndConfig::jukebox(),
                FrontEndConfig::boomerang(),
                FrontEndConfig::boomerang_jukebox(),
                FrontEndConfig::ignite(),
                FrontEndConfig::ignite_tage(),
                FrontEndConfig::ideal(),
            ],
            opts: RunOptions::quick(),
        }
    }

    fn tasks(&self) -> usize {
        self.suite.len() * self.configs.len()
    }
}

/// One protocol task's outcome.
struct Task {
    result: InvocationResult,
    wall: Duration,
    cpu_ns: u64,
}

/// Per-config metric names, in [`ProtocolWorkload::new`]'s config order.
const CONFIG_METRICS: [&str; 7] = [
    "engine.nl.ns_per_instr",
    "engine.jukebox.ns_per_instr",
    "engine.boomerang.ns_per_instr",
    "engine.boomerang_jb.ns_per_instr",
    "engine.ignite.ns_per_instr",
    "engine.ignite_tage.ns_per_instr",
    "engine.ideal.ns_per_instr",
];

impl Workload for ProtocolWorkload {
    type Prepared = Vec<PreparedFunction>;

    fn setup(&self) -> Vec<PreparedFunction> {
        self.suite
            .iter()
            .enumerate()
            .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
            .collect()
    }

    fn rep(&self, functions: &Vec<PreparedFunction>, traced: bool) -> Rep {
        let n = functions.len();
        let mut rep = Rep { ops: self.tasks() as u64, ..Rep::default() };
        let probes = Probes::start();
        let t = Instant::now();
        let results = fanout::run_indexed(self.tasks(), WORKERS, |i| {
            let cpu = probe::thread_cpu_ns();
            let start = traced.then(Instant::now);
            let result =
                run_function(&self.uarch, &self.configs[i / n], &functions[i % n], self.opts);
            let wall = start.map_or(Duration::ZERO, |s| s.elapsed());
            Task { result, wall, cpu_ns: probe::thread_cpu_ns() - cpu }
        });
        rep.wall = t.elapsed();
        probes.stop(&mut rep);

        let per_task = (self.opts.warmup_invocations + self.opts.measured_invocations) as u64;
        let mut digest = FNV_SEED;
        let mut busy = [Duration::ZERO; 7];
        let mut instr = [0u64; 7];
        let mut total = InvocationResult::default();
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(task) => {
                    rep.cpu_ns += task.cpu_ns;
                    rep.invocations += per_task;
                    busy[i / n] += task.wall;
                    instr[i / n] += task.result.instructions;
                    total.merge(&task.result);
                    digest = fnv(digest, format!("{:?}", task.result).as_bytes());
                }
                Err(e) => {
                    eprintln!("perfbench: protocol task {i} panicked: {}", e.message);
                    rep.failed += 1;
                    digest = fnv(digest, b"panic");
                }
            }
        }
        rep.instructions = total.instructions;
        rep.digest = digest;
        if traced {
            let busy_s: f64 = busy.iter().map(Duration::as_secs_f64).sum();
            let wall = rep.wall.as_secs_f64();
            // Task time per worker is the engine's share of the wall
            // time; the rest is the fanout (spawn, queue, imbalance).
            let engine_s = busy_s / WORKERS as f64;
            rep.layers = vec![
                ("engine.self_s", engine_s),
                ("engine.calls", rep.invocations as f64),
                ("engine.ns_per_instr", ratio(busy_s * 1e9, total.instructions as f64)),
                ("engine.sim_instructions", total.instructions as f64),
                ("engine.sim_cpi", total.cpi()),
                ("fanout.tasks", self.tasks() as f64),
                ("fanout.busy_s", busy_s),
                ("fanout.efficiency", ratio(busy_s, WORKERS as f64 * wall)),
                ("fanout.self_s", wall - engine_s),
                ("trace.wall_s", wall),
            ];
            for (c, name) in CONFIG_METRICS.iter().enumerate() {
                rep.layers.push((name, ratio(busy[c].as_secs_f64() * 1e9, instr[c] as f64)));
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed recorded in `BENCHMARK.json` that no size or bound was
    /// tuned against.
    const HELD_OUT_SEED: u64 = 7919;

    fn metric(rep: &Rep, name: &str) -> f64 {
        rep.layers.iter().find(|(k, _)| *k == name).map_or(0.0, |m| m.1)
    }

    fn cluster_report(w: &ClusterWorkload, outcome: ClusterOutcome) -> String {
        ClusterReport::new(w.cfg.clone(), outcome).to_json()
    }

    /// Each wrapper alone leaves the cluster report byte-identical.
    fn assert_wrappers_transparent<S: Analyzer, P: PolicyHook>(
        w: &ClusterWorkload,
        sink: impl Fn() -> S,
        policy: impl Fn() -> P,
    ) {
        let sim = w.setup();
        let ledger = RefCell::new(Ledger::start());
        let bare = sim.run_source_policy_obs(&mut w.source(), &mut sink(), &mut policy());
        let bare = cluster_report(w, bare);
        let timed_sink = sim.run_source_policy_obs(
            &mut w.source(),
            &mut TimedSink::new(sink(), &ledger),
            &mut policy(),
        );
        assert_eq!(cluster_report(w, timed_sink), bare, "sink wrapper");
        let timed_policy = sim.run_source_policy_obs(
            &mut w.source(),
            &mut sink(),
            &mut TimedPolicy::new(policy(), &ledger),
        );
        assert_eq!(cluster_report(w, timed_policy), bare, "policy wrapper");
        let mut source = w.source();
        let timed_source = sim.run_source_policy_obs(
            &mut TimedSource::new(&mut source, &ledger),
            &mut sink(),
            &mut policy(),
        );
        assert_eq!(cluster_report(w, timed_source), bare, "source wrapper");
    }

    #[test]
    fn wrappers_are_transparent_on_zipf_steady() {
        assert_wrappers_transparent(
            &ClusterWorkload::zipf_steady(7, 30),
            || NullSink,
            || StaticPolicy,
        );
    }

    #[test]
    fn wrappers_are_transparent_on_mmpp_fleet() {
        let w = ClusterWorkload::mmpp_fleet(7, 80);
        let stack = w.stack.expect("mmpp-fleet runs the full stack");
        assert_wrappers_transparent(
            &w,
            || ScopeAnalyzer::new(NullSink).with_slo(stack.slo),
            || Controller::new(stack.controller),
        );
    }

    /// A traced rep passes every check, digests identically to an
    /// untraced one (scope and Prometheus reports included), and its
    /// self times account for its wall time.
    fn traced_cluster_rep(w: &ClusterWorkload) -> Rep {
        let sim = w.setup();
        let plain = w.rep(&sim, false);
        let traced = w.rep(&sim, true);
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.digest, traced.digest, "tracing perturbed the simulation");
        let layers: f64 =
            ["engine", "stage", "des", "traffic", "obs", "control", "trace", "report"]
                .iter()
                .map(|l| metric(&traced, &format!("{l}.self_s")))
                .sum();
        let wall = metric(&traced, "trace.wall_s");
        assert!((layers - wall).abs() < 1e-6, "layers {layers} s vs wall {wall} s");
        assert_eq!(metric(&traced, "traffic.arrivals"), traced.ops as f64);
        traced
    }

    #[test]
    fn zipf_steady_never_calls_obs_or_control() {
        let rep = traced_cluster_rep(&ClusterWorkload::zipf_steady(7, 30));
        assert_eq!(metric(&rep, "obs.events"), 0.0);
        assert_eq!(metric(&rep, "control.calls"), 0.0);
        assert!(metric(&rep, "engine.calls") >= 30.0);
    }

    #[test]
    fn mmpp_fleet_exercises_every_cluster_layer() {
        let rep = traced_cluster_rep(&ClusterWorkload::mmpp_fleet(7, 80));
        for name in ["obs.events", "control.calls", "store.evictions", "chaos.sim_degraded"] {
            assert!(metric(&rep, name) > 0.0, "{name} is 0");
        }
    }

    #[test]
    fn paper_protocol_split_accounts_for_wall_time() {
        let w = ProtocolWorkload::new(HELD_OUT_SEED, 0.001);
        let functions = w.setup();
        let plain = w.rep(&functions, false);
        let traced = w.rep(&functions, true);
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.digest, traced.digest);
        let split = metric(&traced, "engine.self_s") + metric(&traced, "fanout.self_s");
        assert!((split - metric(&traced, "trace.wall_s")).abs() < 1e-6);
        assert_eq!(metric(&traced, "obs.events") + metric(&traced, "control.calls"), 0.0);
        assert_eq!(metric(&traced, "fanout.tasks"), 140.0);
    }

    #[test]
    fn protocol_seed_redraws_the_suite() {
        let paper = ProtocolWorkload::new(0, 0.001);
        let held_out = ProtocolWorkload::new(HELD_OUT_SEED, 0.001);
        let committed = Suite::paper_suite_scaled(0.001);
        let code = |f: &SuiteFunction| format!("{:?}", f.image);
        assert_eq!(code(&paper.suite[0]), code(&committed.functions()[0]));
        assert_ne!(code(&held_out.suite[0]), code(&committed.functions()[0]));
        assert_eq!(held_out.suite[0].profile, committed.functions()[0].profile);
    }

    #[test]
    fn exposition_check_rejects_malformed_lines() {
        assert!(
            check_exposition("# HELP ignite_x x\n# TYPE ignite_x counter\nignite_x 3\n").is_ok()
        );
        assert!(check_exposition("ignite_x{a=\"b\"} 1.5\n").is_ok());
        assert!(check_exposition("").is_err());
        assert!(check_exposition("ignite_x{a=\"b\" 1\n").is_err());
        assert!(check_exposition("ignite_x NaN\n").is_err());
        assert!(check_exposition("other_x 1\n").is_err());
    }
}
