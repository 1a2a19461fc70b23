//! `cluster`: serve interleaved serverless traffic over the front-end
//! model and emit a versioned JSON report.
//!
//! ```text
//! cargo run --release -p ignite-harness --bin cluster -- [OPTIONS]
//!
//! OPTIONS:
//!   --cores N          simulated cores per node (default 4)
//!   --nodes N          cluster nodes, each with its own cores, store
//!                      and failure domain (default 1)
//!   --scheduler P      placement policy: fifo, least-loaded, random[:N]
//!                      (power-of-N-choices, default N=2), affinity
//!                      (route to the node holding the function's Ignite
//!                      metadata) (default fifo)
//!   --keepalive P      pre-warm retention: none, fixed:CYCLES, or
//!                      hybrid[:CYCLES] (per-function idle-gap
//!                      sketch, p99) (default none)
//!   --fe NAME          front-end config: nl, boomerang, jukebox,
//!                      boomerang-jukebox, confluence, ignite,
//!                      ignite-tage, ideal (default ignite)
//!   --scale F          suite scale, at most 1.0 = paper (default 0.02)
//!   --seed S           arrival seed (default 42)
//!   --rate R           arrivals per million cycles, at most 1e6 (one per
//!                      cycle) (default 60)
//!   --zipf S           Zipf popularity exponent (default 1.0)
//!   --horizon CYCLES   arrival horizon (default 4000000)
//!   --capacity BYTES   metadata store capacity (default 262144)
//!   --policy P         eviction: lru, size-aware, pin-hot (default lru)
//!   --jobs N           sweep worker threads, at most 256 (default 1;
//!                      the sweep output is byte-identical at any job
//!                      count)
//!   --threads N        alias for --jobs
//!   --sweep B1,B2,...  run a store-capacity sweep, print a table (points
//!                      at or above the unbounded run's peak footprint
//!                      reuse its outcome instead of simulating)
//!   --trace FILE       replay an ignite-trace-v1 file (not with --sweep)
//!   --traffic SPEC     drive the run from a shaped workload instead of
//!                      the stationary Poisson process:
//!                        azure:PATH[,cpm=N]  Azure-style CSV import
//!                        mmpp[:mults=A/B,dwells=X/Y]  Markov-modulated
//!                        diurnal[:period=P,amp=A]     triangle wave
//!                        burst[:every=E,width=W,mult=M]  burst trains
//!                      Synthetic kinds stream lazily (O(1) arrival
//!                      state) and use --rate/--zipf/--seed/--horizon as
//!                      the base process; --rate times the largest
//!                      multiplier must stay at most 1e6. The report
//!                      gains a validated 'workload' fingerprint section.
//!   --stats            print workload statistics (invocation count,
//!                      per-function shares, inter-arrival CV², horizon)
//!                      for the configured workload and exit without
//!                      simulating
//!   --emit-trace FILE  write the generated trace and exit
//!   --out FILE         write the JSON report here (default: stdout)
//!   --validate FILE    validate an existing report and exit
//!   --trace-out FILE     write a Chrome trace (Perfetto-loadable) of the
//!                        run; one track per core plus queue/store tracks
//!   --metrics-out FILE   write Prometheus-style metrics: a gauge for every
//!                        number of the reports the run writes, named by
//!                        its path (ignite_cluster_totals_invocations,
//!                        ignite_scope_functions_queue_cycles), plus the
//!                        latency histogram and, with --slo, the live
//!                        burn rates; with --sweep, every point appears
//!                        under a store_capacity label
//!   --validate-trace FILE  validate an existing Chrome trace and exit
//!   --scope-out FILE     write an ignite-scope-v1 causal latency
//!                        attribution report for the run
//!   --slo SPEC           enable burn-rate SLO alerting; SPEC is 'default'
//!                        or comma-separated k=v pairs: threshold=CYCLES,
//!                        objective=PCT (0 to below 99.95), fast=CYCLES,
//!                        slow=CYCLES, burn=MULT, min=N. Alerts land on
//!                        their own trace track and in the scope report.
//!   --controller SPEC    close the loop: fold the live obs stream into
//!                        an online scope window and actuate policy at
//!                        epoch boundaries (replay on/off per function,
//!                        store admission, active cores, keep-alive
//!                        windows). SPEC is 'default' or comma-separated
//!                        k=v pairs: epoch=CYCLES, slo=CYCLES,
//!                        min-samples=N, probe=EPOCHS, min-cores=N.
//!                        Every decision lands in the report's
//!                        'controller' section (exposed as the
//!                        ignite_cluster_controller_* gauges) and
//!                        (with --trace-out) its own trace track.
//!                        Conflicts with --sweep.
//!   --chaos SPEC         enable failure injection; SPEC is 'default',
//!                        'none', or comma-separated k=v pairs:
//!                        crash-mtbf, crash-repair, straggle-mtbf,
//!                        straggle-dur, straggle-factor, store-mtbf,
//!                        store-dur, corrupt-ppm, loss-ppm, drop-ppm.
//!                        The report switches to ignite-cluster-v2.
//!   --chaos-seed S       failure-schedule seed, independent of --seed
//!                        (default 1; re-seeding chaos never perturbs
//!                        the arrival stream)
//!   --retry SPEC         recovery policy as k=v pairs: attempts, base,
//!                        mult, max, jitter-ppm, deadline,
//!                        breaker-threshold, breaker-cooldown
//! ```

use std::process::ExitCode;

use ignite_chaos::{parse_chaos_spec, parse_retry_spec, ChaosPlan};
use ignite_cluster::{
    record_metrics, sweep_capacities, validate_trace, ClusterConfig, ClusterOutcome, ClusterReport,
    ClusterSim, KeepAliveKind, ObsSummary, SchedulerKind, StaticPolicy, MAX_JOBS,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_core::EvictionPolicy;
use ignite_engine::config::FrontEndConfig;
use ignite_harness::cli::{self, Cursor, Exit};
use ignite_obs::{
    to_chrome_json, ChromeOptions, EventSink, MetricsRegistry, NullSink, TraceBuffer,
};
use ignite_scope::{
    record_scope_metrics, record_slo_metrics, ScopeAnalyzer, ScopeReport, SloConfig,
};
use ignite_traffic::{materialize, FingerprintAccum, TrafficSpec};
use ignite_workloads::arrival::{ArrivalSource, Trace, TraceSource};
use ignite_workloads::suite::Suite;

/// Ring capacity for `--trace-out`: comfortably above the event count of
/// the default configuration; overflow drops oldest events and is
/// reported in the export's `dropped_events`.
const TRACE_BUFFER_EVENTS: usize = 1 << 18;

const USAGE: &str = "usage: cluster [--cores N] [--nodes N] [--scheduler P] [--keepalive P] \
     [--fe NAME] [--scale F] [--seed S] [--rate R] \
     [--zipf S] [--horizon CYCLES] [--capacity BYTES] [--policy P] \
     [--jobs N] [--threads N] \
     [--sweep B1,B2,...] [--trace FILE] [--traffic SPEC] [--stats] \
     [--emit-trace FILE] [--out FILE] \
     [--validate FILE] [--trace-out FILE] [--metrics-out FILE] \
     [--validate-trace FILE] [--scope-out FILE] [--slo SPEC] \
     [--controller SPEC] [--chaos SPEC] [--chaos-seed S] [--retry SPEC]";

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => exit.report(USAGE),
    }
}

fn usage(message: impl std::fmt::Display) -> Exit {
    Exit::Usage(format!("cluster: {message}"))
}

fn fail(message: impl std::fmt::Display) -> Exit {
    Exit::Failure(format!("cluster: {message}"))
}

#[derive(Default)]
struct Args {
    cfg: ClusterConfig,
    threads: usize,
    sweep: Option<Vec<usize>>,
    trace: Option<String>,
    stats: bool,
    emit_trace: Option<String>,
    out: Option<String>,
    validate: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    validate_trace: Option<String>,
    scope_out: Option<String>,
    slo: Option<SloConfig>,
    chaos: Option<ChaosPlan>,
    chaos_seed: u64,
}

fn parse(argv: Vec<String>) -> Result<Args, Exit> {
    // Single-threaded by default: the sweep output is byte-identical at
    // any job count, so parallelism is strictly opt-in speed.
    let mut args = Args { threads: 1, chaos_seed: 1, ..Args::default() };
    let mut it = Cursor::new(argv, usage);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cores" => args.cfg.cores = it.parse(&arg)?,
            "--nodes" => args.cfg.topology.nodes = it.parse(&arg)?,
            "--scheduler" => args.cfg.topology.scheduler = it.spec(&arg, SchedulerKind::parse)?,
            "--keepalive" => args.cfg.topology.keepalive = it.spec(&arg, KeepAliveKind::parse)?,
            "--fe" => {
                let name = it.value(&arg)?;
                args.cfg.fe =
                    front_end(&name).ok_or_else(|| usage(format!("unknown front-end '{name}'")))?;
            }
            "--scale" => args.cfg.scale = it.parse(&arg)?,
            "--seed" => args.cfg.arrival.seed = it.parse(&arg)?,
            "--rate" => args.cfg.arrival.rate_per_mcycle = it.parse(&arg)?,
            "--zipf" => args.cfg.arrival.zipf_s = it.parse(&arg)?,
            "--horizon" => args.cfg.arrival.horizon_cycles = it.parse(&arg)?,
            "--capacity" => args.cfg.store.capacity_bytes = it.parse(&arg)?,
            "--policy" => {
                let name = it.value(&arg)?;
                args.cfg.store.policy = EvictionPolicy::parse(&name)
                    .ok_or_else(|| usage(format!("unknown policy '{name}'")))?;
            }
            "--jobs" | "--threads" => {
                // Each worker is an OS thread simulating a whole cluster.
                args.threads = it.parse(&arg)?;
                if args.threads > MAX_JOBS {
                    let jobs = args.threads;
                    return Err(usage(format!("{arg} must be at most {MAX_JOBS}, got {jobs}")));
                }
            }
            "--sweep" => {
                let list = it.value(&arg)?;
                let points = list.split(',').map(|c| it.parse_str(c.trim(), "--sweep"));
                args.sweep = Some(points.collect::<Result<_, _>>()?);
            }
            "--trace" => args.trace = Some(it.value(&arg)?),
            "--traffic" => args.cfg.traffic = Some(it.value(&arg)?),
            "--stats" => args.stats = true,
            "--emit-trace" => args.emit_trace = Some(it.value(&arg)?),
            "--out" => args.out = Some(it.value(&arg)?),
            "--validate" => args.validate = Some(it.value(&arg)?),
            "--trace-out" => args.trace_out = Some(it.value(&arg)?),
            "--metrics-out" => args.metrics_out = Some(it.value(&arg)?),
            "--validate-trace" => args.validate_trace = Some(it.value(&arg)?),
            "--scope-out" => args.scope_out = Some(it.value(&arg)?),
            "--slo" => {
                let spec = it.value(&arg)?;
                args.slo = Some(parse_slo(&it, &spec)?);
            }
            "--controller" => args.cfg.controller = Some(it.value(&arg)?),
            "--chaos" => args.chaos = Some(it.spec(&arg, parse_chaos_spec)?),
            "--chaos-seed" => args.chaos_seed = it.parse(&arg)?,
            "--retry" => args.cfg.retry = it.spec(&arg, parse_retry_spec)?,
            _ => return Err(usage(format!("unknown argument '{arg}'"))),
        }
    }
    Ok(args)
}

/// Parses an `--slo` spec: `default`, or comma-separated `k=v` pairs
/// over [`SloConfig::default`]. `objective` is a percent (95 -> 950
/// milli) and `burn` a multiplier (2 -> 2000 milli); everything else is
/// taken verbatim.
fn parse_slo(it: &Cursor, spec: &str) -> Result<SloConfig, Exit> {
    let mut slo = SloConfig::default();
    if spec == "default" {
        return Ok(slo);
    }
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let Some((k, v)) = part.split_once('=') else {
            return Err(usage(format!("--slo expects k=v pairs, got '{part}'")));
        };
        match k {
            "threshold" => slo.threshold_cycles = it.parse_str(v, "--slo threshold")?,
            "objective" => {
                let pct: f64 = it.parse_str(v, "--slo objective")?;
                // Rounded to milli-units, the objective must stay below
                // 1000: 99.95 and up would leave no error budget.
                let milli = (pct * 10.0).round();
                if !(0.0..100.0).contains(&pct) || milli >= 1000.0 {
                    return Err(usage(format!("--slo objective must be in [0, 100), got {pct}")));
                }
                slo.objective_milli = milli as u32;
            }
            "fast" => slo.fast_window_cycles = it.parse_str(v, "--slo fast")?,
            "slow" => slo.slow_window_cycles = it.parse_str(v, "--slo slow")?,
            "burn" => {
                let mult: f64 = it.parse_str(v, "--slo burn")?;
                if !mult.is_finite() || mult <= 0.0 {
                    return Err(usage(format!("--slo burn must be positive, got {mult}")));
                }
                slo.burn_milli = (mult * 1000.0).round() as u64;
            }
            "min" => slo.min_count = it.parse_str(v, "--slo min")?,
            _ => return Err(usage(format!("unknown --slo key '{k}'"))),
        }
    }
    Ok(slo)
}

fn front_end(name: &str) -> Option<FrontEndConfig> {
    Some(match name {
        "nl" => FrontEndConfig::nl(),
        "boomerang" => FrontEndConfig::boomerang(),
        "jukebox" => FrontEndConfig::jukebox(),
        "boomerang-jukebox" => FrontEndConfig::boomerang_jukebox(),
        "confluence" => FrontEndConfig::confluence(),
        "ignite" => FrontEndConfig::ignite(),
        "ignite-tage" => FrontEndConfig::ignite_tage(),
        "ideal" => FrontEndConfig::ideal(),
        _ => return None,
    })
}

/// The modes, in the order their flags are honoured: the two validators,
/// then (after [`check`]) `--stats`, `--emit-trace`, `--sweep` and a
/// single run.
fn run(mut args: Args) -> Result<(), Exit> {
    if let Some(path) = &args.validate {
        cli::load(path, ClusterReport::validate).map_err(fail)?;
        println!("{path}: valid cluster report");
        return Ok(());
    }
    if let Some(path) = &args.validate_trace {
        let summary = cli::load(path, validate_trace).map_err(fail)?;
        let (events, dropped) = (summary.total_events(), summary.dropped_events);
        println!("{path}: valid trace, {events} events ({dropped} dropped)");
        return Ok(());
    }
    let (traffic, mut controller) = check(&mut args)?;
    let trace = args.trace.as_deref().map(|path| cli::load(path, Trace::parse));
    let trace = trace.transpose().map_err(fail)?;
    let workload = || source(&args.cfg, &traffic, &trace);
    if args.stats {
        stats(&args.cfg, &mut *workload()?);
    } else if let Some(path) = &args.emit_trace {
        // With --traffic the source is materialized into the same
        // ignite-trace-v1 format, so shaped workloads can be archived
        // and replayed through --trace like any other trace.
        let trace = materialize(&mut *workload()?);
        cli::write(path, trace.to_text()).map_err(fail)?;
        println!("wrote {} arrivals to {path}", trace.arrivals.len());
    } else if let Some(capacities) = &args.sweep {
        sweep(&args, capacities)?;
    } else {
        simulate(&args, &mut *workload()?, controller.as_mut())?;
    }
    Ok(())
}

/// The configured workload as a stream: the traffic spec, a replayed
/// trace file, or the built-in Poisson/Zipf process.
fn source<'a>(
    cfg: &ClusterConfig,
    traffic: &Option<TrafficSpec>,
    trace: &'a Option<Trace>,
) -> Result<Box<dyn ArrivalSource + 'a>, Exit> {
    match (traffic, trace) {
        (Some(spec), _) => spec
            .build(&cfg.arrival, &Suite::paper_suite_scaled(cfg.scale))
            .map_err(|e| fail(format!("--traffic: {e}"))),
        (None, Some(t)) => Ok(Box::new(TraceSource::new(t))),
        (None, None) => Ok(Box::new(cfg.arrival.source())),
    }
}

/// Every check made before reading an input or simulating, in order: the
/// configuration, the workload's flags and spec, the controller's, and
/// what a sweep cannot do. Returns the workload spec and the controller.
fn check(args: &mut Args) -> Result<(Option<TrafficSpec>, Option<Controller>), Exit> {
    let cfg = &mut args.cfg;
    cfg.arrival.functions = 20; // the full paper suite
    if let Some(plan) = args.chaos.take() {
        // The failure schedule draws from its own seed: `--seed` owns
        // the arrival stream, `--chaos-seed` owns the chaos stream.
        cfg.chaos = Some(plan.seeded(args.chaos_seed));
    }
    cfg.validate().map_err(|e| fail(format!("invalid configuration: {e}")))?;

    // A shaped workload replaces the arrival process wholesale, so it
    // conflicts with replaying a trace file and with the sweep (whose
    // points regenerate the built-in process).
    let sweep = args.sweep.is_some();
    let traffic = match &cfg.traffic {
        None => None,
        Some(_) if args.trace.is_some() => {
            return Err(fail("--traffic and --trace both define the workload; pick one"));
        }
        Some(_) if sweep => return Err(fail("--traffic is not supported with --sweep")),
        Some(raw) => {
            let spec = TrafficSpec::parse(raw).map_err(|e| fail(format!("--traffic: {e}")))?;
            if let Some(multiplier) = spec.peak_multiplier() {
                let peak = cfg.check_peak_rate("traffic", multiplier);
                peak.map_err(|e| fail(format!("invalid configuration: {e}")))?;
            }
            Some(spec)
        }
    };
    // The sweep regenerates the built-in arrival process at every point,
    // so a replayed trace file would be silently ignored.
    if args.trace.is_some() && sweep {
        return Err(fail("--trace is not supported with --sweep"));
    }
    // The controller mutates scheduling state (replay gates, admission,
    // active cores, keep-alive windows) as the run unfolds, so it is
    // incompatible with the sweep (which compares static configurations
    // by design).
    let controller = match &cfg.controller {
        None => None,
        Some(_) if sweep => return Err(fail("--controller is not supported with --sweep")),
        Some(raw) => {
            let spec =
                ControllerSpec::parse(raw).map_err(|e| fail(format!("--controller: {e}")))?;
            Some(Controller::new(spec))
        }
    };
    // Only a sweep that runs (no --stats, no --emit-trace) refuses the
    // single-run outputs.
    if sweep && !args.stats && args.emit_trace.is_none() {
        if args.trace_out.is_some() {
            return Err(fail("--trace-out traces a single run; not supported with --sweep"));
        }
        if args.scope_out.is_some() || args.slo.is_some() {
            return Err(fail("--scope-out/--slo analyze a single run; not supported with --sweep"));
        }
    }
    Ok((traffic, controller))
}

/// `--stats`: the workload's fingerprint and each function's share of
/// it, without simulating.
fn stats(cfg: &ClusterConfig, source: &mut dyn ArrivalSource) {
    let mut accum = FingerprintAccum::new(source.functions());
    while let Some(a) = source.next_arrival() {
        accum.observe(a);
    }
    let fp = accum.finish();
    println!(
        "{} invocations | horizon {} cycles | rate {:.2}/Mcycle | \
         interarrival cv2 {:.3} | zipf s_hat {:.3}",
        fp.arrivals, fp.horizon_cycles, fp.rate_per_mcycle, fp.interarrival_cv2, fp.zipf_s_hat
    );
    let suite = Suite::paper_suite_scaled(cfg.scale);
    let mut shares: Vec<(usize, u64)> =
        accum.counts().iter().copied().enumerate().filter(|&(_, c)| c > 0).collect();
    shares.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
    for (i, count) in shares {
        let abbr = suite.functions().get(i).map_or("?", |f| f.profile.abbr.as_str());
        println!(
            "{abbr:>8}  {count:>8}  {:.4}",
            if fp.arrivals == 0 { 0.0 } else { count as f64 / fp.arrivals as f64 }
        );
    }
}

/// `--sweep`: one table row per store capacity. Independent sweep points
/// shard across threads; a panicking point reports its failure without
/// tearing down the rest, and fails the run once the rest are written.
fn sweep(args: &Args, capacities: &[usize]) -> Result<(), Exit> {
    let cfg = &args.cfg;
    let results = sweep_capacities(cfg, capacities, args.threads);
    let mut metrics = args.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    println!(
        "{:>12} {:>9} {:>10} {:>14} {:>14} {:>12}",
        "capacity", "hit_rate", "evictions", "mean_lat_cyc", "p95_lat_cyc", "peak_bytes"
    );
    let mut failures = 0;
    for (cap, r) in capacities.iter().zip(results) {
        match r {
            Ok(out) => {
                println!(
                    "{:>12} {:>9.3} {:>10} {:>14.0} {:>14} {:>12}",
                    cap,
                    out.store.hit_rate(),
                    out.store.evictions,
                    out.mean_latency,
                    out.p95_latency,
                    out.peak_footprint_bytes
                );
                if let Some(reg) = &mut metrics {
                    let mut point = cfg.clone();
                    point.store.capacity_bytes = *cap;
                    let report = ClusterReport::new(point, out);
                    record_metrics(reg, report, &[("store_capacity", &cap.to_string())]);
                }
            }
            Err(f) => {
                eprintln!("cluster: capacity {cap} failed: {f}");
                failures += 1;
            }
        }
    }
    if let (Some(path), Some(reg)) = (&args.metrics_out, &metrics) {
        cli::write(path, reg.expose()).map_err(fail)?;
        eprintln!("wrote {path}");
    }
    if failures > 0 {
        return Err(Exit::Failure(String::new()));
    }
    Ok(())
}

/// Four sink shapes, picked once: a plain run, a trace ring, the scope
/// analyzer over a discarded stream, or the analyzer teeing into the
/// ring (alerts land in the trace too).
enum Sinks {
    Plain(NullSink),
    Trace(TraceBuffer),
    Scope(Box<ScopeAnalyzer<NullSink>>),
    Both(Box<ScopeAnalyzer<TraceBuffer>>),
}

/// The scope analyzer over `inner`, with the SLO tracker when one is
/// configured.
fn analyzer<S: EventSink>(inner: S, slo: Option<SloConfig>) -> Box<ScopeAnalyzer<S>> {
    let an = ScopeAnalyzer::new(inner);
    Box::new(match slo {
        Some(slo) => an.with_slo(slo),
        None => an,
    })
}

fn run_one<S: EventSink>(
    sim: &ClusterSim,
    source: &mut dyn ArrivalSource,
    sink: &mut S,
    policy: Option<&mut Controller>,
) -> ClusterOutcome {
    match policy {
        Some(ctrl) => sim.run_source_policy_obs(source, sink, ctrl),
        None => sim.run_source_policy_obs(source, sink, &mut StaticPolicy),
    }
}

/// A single run: simulate it, then write and print what the flags ask
/// for, each output checked by its own validator first.
fn simulate(
    args: &Args,
    source: &mut dyn ArrivalSource,
    policy: Option<&mut Controller>,
) -> Result<(), Exit> {
    let sim = ClusterSim::new(args.cfg.clone());
    let scope_on = args.scope_out.is_some() || args.slo.is_some();
    let mut sinks = match (args.trace_out.is_some(), scope_on) {
        (false, false) => Sinks::Plain(NullSink),
        (true, false) => Sinks::Trace(TraceBuffer::new(TRACE_BUFFER_EVENTS)),
        (false, true) => Sinks::Scope(analyzer(NullSink, args.slo)),
        (true, true) => Sinks::Both(analyzer(TraceBuffer::new(TRACE_BUFFER_EVENTS), args.slo)),
    };
    let outcome = match &mut sinks {
        Sinks::Plain(s) => run_one(&sim, source, s, policy),
        Sinks::Trace(s) => run_one(&sim, source, s, policy),
        Sinks::Scope(s) => run_one(&sim, source, s.as_mut(), policy),
        Sinks::Both(s) => run_one(&sim, source, s.as_mut(), policy),
    };

    let abbrs: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    // Borrow rather than consume the sinks: the analyzer's live burn-rate
    // trackers are still needed by the metrics exposition below.
    let (scope_report, trace_buf) = match &sinks {
        Sinks::Plain(_) => (None, None),
        Sinks::Trace(buf) => (None, Some(buf)),
        Sinks::Scope(an) => (Some(ScopeReport::from_analyzer(an, &abbrs)), None),
        Sinks::Both(an) => (Some(ScopeReport::from_analyzer(an, &abbrs)), Some(an.inner())),
    };
    let mut report = ClusterReport::new(args.cfg.clone(), outcome);
    if let Some(buf) = trace_buf {
        report = report
            .with_obs(ObsSummary { trace_events: buf.len() as u64, trace_dropped: buf.dropped() });
    }

    if let Some(scope) = &scope_report {
        let text = scope.to_json();
        ScopeReport::validate(&text)
            .map_err(|e| fail(format!("emitted scope report failed validation: {e}")))?;
        eprintln!(
            "scope: {} invocations attributed | {} SLO violations | {} alert fires",
            scope.totals.invocations, scope.totals.violations, scope.totals.alert_fires
        );
        if let Some(path) = &args.scope_out {
            cli::write(path, &text).map_err(fail)?;
            eprintln!("wrote {path}");
        }
    }

    if let (Some(path), Some(buf)) = (&args.trace_out, trace_buf) {
        let text = to_chrome_json(
            buf,
            &ChromeOptions { process_name: "ignite-cluster", function_names: &abbrs },
        );
        validate_trace(&text).map_err(|e| fail(format!("emitted trace failed validation: {e}")))?;
        cli::write(path, &text).map_err(fail)?;
        eprintln!("wrote {path} ({} events, {} dropped)", buf.len(), buf.dropped());
    }
    if let Some(path) = &args.metrics_out {
        // The exposition is the reports this run writes, plus the
        // latency histogram and the live burn rates.
        let mut reg = MetricsRegistry::new();
        record_metrics(&mut reg, report.clone(), &[]);
        if let Some(scope) = &scope_report {
            record_scope_metrics(&mut reg, scope);
        }
        match &sinks {
            Sinks::Scope(an) => record_slo_metrics(&mut reg, an, &abbrs),
            Sinks::Both(an) => record_slo_metrics(&mut reg, an, &abbrs),
            _ => {}
        }
        cli::write(path, reg.expose()).map_err(fail)?;
        eprintln!("wrote {path}");
    }

    let text = report.to_json();
    ClusterReport::validate(&text)
        .map_err(|e| fail(format!("emitted report failed validation: {e}")))?;
    eprintln!(
        "{} invocations over {} cycles | mean latency {:.0} cycles (p95 {}) | \
         store hit rate {:.3} | peak footprint {} bytes",
        report.outcome.invocations,
        report.outcome.makespan,
        report.outcome.mean_latency,
        report.outcome.p95_latency,
        report.outcome.store.hit_rate(),
        report.outcome.peak_footprint_bytes
    );
    if !report.config.topology.is_default() {
        for (i, nd) in report.outcome.nodes.iter().enumerate() {
            eprintln!(
                "node {i}: {} submitted = {} completed + {} dropped | util {:.3} | \
                 store hit rate {:.3} | wasted keep-alive {} cycles",
                nd.submitted,
                nd.completed,
                nd.dropped,
                nd.utilization,
                nd.store.hit_rate(),
                nd.wasted_keepalive_cycles
            );
        }
    }
    if let Some(ctrl) = &report.outcome.controller {
        eprintln!(
            "controller: {} epochs | {} decisions | {} samples | replay denied {} | \
             store denied {} | final active cores {}",
            ctrl.epochs,
            ctrl.decisions.len(),
            ctrl.samples,
            ctrl.replay_denied,
            ctrl.store_denied,
            ctrl.final_active_cores
        );
    }
    if let Some(ch) = &report.outcome.chaos {
        eprintln!(
            "chaos: {} submitted = {} completed + {} dropped | {} retried to success | \
             {} degraded to cold | {} crash kills | breaker opened {}x",
            ch.submitted,
            ch.completed,
            ch.dropped_total(),
            ch.retried_to_success,
            ch.degraded_total(),
            ch.crash_kills,
            ch.breaker_opens
        );
    }
    match &args.out {
        None => print!("{text}"),
        Some(path) => {
            cli::write(path, &text).map_err(fail)?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Parses `args` and makes every check made before an input is read
    /// or anything is simulated.
    fn checked(args: &[&str]) -> Result<Args, Exit> {
        let mut args = parse(args.iter().map(|a| a.to_string()).collect())?;
        check(&mut args)?;
        Ok(args)
    }

    /// The exit code `main` would pick.
    fn code(result: &Result<Args, Exit>) -> u8 {
        match result {
            Ok(_) => 0,
            Err(Exit::Usage(_)) => 2,
            Err(Exit::Failure(_)) => 1,
        }
    }

    #[test]
    fn the_parse_step_reads_flags_and_refuses_bad_values() {
        let args = checked(&["--cores", "2", "--nodes", "3", "--jobs", "4", "--sweep", "1, 2"])
            .unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!((args.cfg.cores, args.cfg.topology.nodes, args.threads), (2, 3, 4));
        assert_eq!(args.sweep, Some(vec![1, 2]));
        assert_eq!(args.cfg.arrival.functions, 20);
        for (argv, message) in [
            (&["--cores"][..], "cluster: --cores needs a value"),
            (&["--cores", "x"], "cluster: bad value 'x' for --cores"),
            (&["--sweep", "1,x"], "cluster: bad value 'x' for --sweep"),
            (&["--threads", "257"], "cluster: --threads must be at most 256, got 257"),
            (&["--fe", "x"], "cluster: unknown front-end 'x'"),
            (&["--slo", "min"], "cluster: --slo expects k=v pairs, got 'min'"),
            (&["--slo", "burn=0"], "cluster: --slo burn must be positive, got 0"),
            (&["--bogus"], "cluster: unknown argument '--bogus'"),
        ] {
            assert_eq!(checked(argv).err(), Some(Exit::Usage(message.into())), "{argv:?}");
        }
    }

    /// The flag conflicts are failures (exit 1), in the order they are
    /// checked; a sweep that only prints `--stats` refuses nothing.
    #[test]
    fn conflicting_flags_are_refused_before_anything_runs() {
        let mmpp = "mmpp:mults=1/6,dwells=300000/60000";
        for (argv, message) in [
            (&["--traffic", mmpp, "--trace", "t"][..], "--traffic and --trace both define"),
            (&["--traffic", mmpp, "--sweep", "1"], "--traffic is not supported with --sweep"),
            (&["--trace", "t", "--sweep", "1"], "--trace is not supported with --sweep"),
            (&["--controller", "default", "--sweep", "1"], "--controller is not supported"),
            (&["--sweep", "1", "--trace-out", "t"], "--trace-out traces a single run"),
            (&["--sweep", "1", "--slo", "default"], "--scope-out/--slo analyze a single run"),
            (&["--cores", "0", "--traffic", "x"], "invalid configuration: cores"),
        ] {
            match checked(argv) {
                Err(Exit::Failure(m)) => {
                    assert!(m.starts_with(&format!("cluster: {message}")), "{m}")
                }
                other => panic!("{argv:?}: {:?}", other.err()),
            }
        }
        assert!(checked(&["--stats", "--sweep", "1", "--trace-out", "t"]).is_ok());
    }

    /// Inputs that once crashed, aborted or hung keep their exit codes:
    /// 2 for a bad argument, 1 for a configuration refused before the run.
    #[test]
    fn once_crashing_inputs_keep_their_exit_codes() {
        for (argv, want) in [
            (&["--jobs", "100000"][..], 2),
            (&["--slo", "objective=99.95"], 2),
            (&["--rate", "1e300"], 1),
            (&["--scale", "1e9"], 1),
            (&["--nodes", "4294967296", "--cores", "4294967296"], 1),
            (&["--retry", "base=4294967297"], 1),
            (&["--traffic", "mmpp:mults=1/1e300"], 1),
        ] {
            assert_eq!(code(&checked(argv)), want, "{argv:?}");
        }
    }

    /// Every value-taking flag, and every key of a spec-valued flag, with
    /// each hostile value, alone and given twice, ends in arguments that
    /// pass the checks or in an [`Exit`], never in a panic. Nothing here
    /// reads an input, simulates or starts a thread.
    #[test]
    fn hostile_values_never_panic_the_parse_or_the_checks() {
        const HOSTILE: [&str; 10] = [
            "0",
            "-1",
            "4294967296",
            "9007199254740993",
            "18446744073709551616",
            "1e300",
            "nan",
            "inf",
            "",
            "1x",
        ];
        let flags = [
            "--cores",
            "--nodes",
            "--scheduler",
            "--keepalive",
            "--fe",
            "--scale",
            "--seed",
            "--rate",
            "--zipf",
            "--horizon",
            "--capacity",
            "--policy",
            "--jobs",
            "--threads",
            "--sweep",
            "--trace",
            "--traffic",
            "--emit-trace",
            "--out",
            "--validate",
            "--trace-out",
            "--metrics-out",
            "--validate-trace",
            "--scope-out",
            "--slo",
            "--controller",
            "--chaos",
            "--chaos-seed",
            "--retry",
        ];
        let mut cases: Vec<Vec<String>> = Vec::new();
        for flag in flags {
            cases.push(vec![flag.into()]);
            for v in HOSTILE {
                cases.push(vec![flag.into(), v.into()]);
                cases.push(vec![flag.into(), v.into(), flag.into(), v.into()]);
            }
        }
        let keys = [
            ("--slo", "threshold fast slow min objective burn"),
            ("--retry", "attempts base mult max jitter-ppm deadline breaker-threshold breaker-cooldown"),
            ("--chaos", "crash-mtbf crash-repair straggle-mtbf straggle-dur straggle-factor store-mtbf store-dur corrupt-ppm loss-ppm drop-ppm"),
            ("--controller", "epoch slo min-samples probe min-cores"),
        ];
        let mut specs: Vec<(&str, String)> = Vec::new();
        for (flag, names) in keys {
            specs.extend(names.split(' ').map(|k| (flag, format!("{k}={{}}"))));
        }
        for template in [
            "mmpp:mults={}/6",
            "mmpp:mults=1/{}",
            "mmpp:dwells={}/60000",
            "diurnal:period={}",
            "diurnal:amp={}",
            "burst:every={}",
            "burst:width={}",
            "burst:mult={}",
            "azure:x.csv,cpm={}",
        ] {
            specs.push(("--traffic", template.into()));
        }
        specs.extend(
            [("--scheduler", "random:{}"), ("--keepalive", "fixed:{}")].map(|(f, t)| (f, t.into())),
        );
        specs.extend(
            [("--keepalive", "hybrid:{}"), ("--sweep", "2048,{}")].map(|(f, t)| (f, t.into())),
        );
        for (flag, template) in &specs {
            for v in HOSTILE {
                let value = template.replace("{}", v);
                cases.push(vec![flag.to_string(), value.clone()]);
                cases.push(vec![flag.to_string(), value.clone(), flag.to_string(), value]);
            }
        }
        // The peak-rate check multiplies the rate by the shape's peak.
        for v in HOSTILE {
            cases.push(["--rate", v, "--traffic", "mmpp:mults=1/6"].map(String::from).to_vec());
        }
        cases.push(vec!["--stats".into(), "--stats".into()]);
        let mut codes = [0usize; 3];
        for case in &cases {
            let argv: Vec<&str> = case.iter().map(String::as_str).collect();
            let result = catch_unwind(AssertUnwindSafe(|| checked(&argv)));
            let result = result.unwrap_or_else(|_| panic!("{argv:?} panicked"));
            codes[code(&result) as usize] += 1;
        }
        assert!(codes.iter().all(|&n| n > 0), "{codes:?} of {} cases", cases.len());
    }
}
