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
//!                      hybrid[:CYCLES] (per-function idle-window
//!                      histogram, p99) (default none)
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

struct Args {
    cfg: ClusterConfig,
    threads: usize,
    sweep: Option<Vec<usize>>,
    trace: Option<String>,
    traffic: Option<String>,
    stats: bool,
    emit_trace: Option<String>,
    out: Option<String>,
    validate: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    validate_trace: Option<String>,
    scope_out: Option<String>,
    slo: Option<SloConfig>,
    controller: Option<String>,
    chaos: Option<ChaosPlan>,
    chaos_seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: cluster [--cores N] [--nodes N] [--scheduler P] [--keepalive P] \
         [--fe NAME] [--scale F] [--seed S] [--rate R] \
         [--zipf S] [--horizon CYCLES] [--capacity BYTES] [--policy P] \
         [--jobs N] [--threads N] \
         [--sweep B1,B2,...] [--trace FILE] [--traffic SPEC] [--stats] \
         [--emit-trace FILE] [--out FILE] \
         [--validate FILE] [--trace-out FILE] [--metrics-out FILE] \
         [--validate-trace FILE] [--scope-out FILE] [--slo SPEC] \
         [--controller SPEC] [--chaos SPEC] [--chaos-seed S] [--retry SPEC]"
    );
    std::process::exit(2);
}

/// Parses an `--slo` spec: `default`, or comma-separated `k=v` pairs
/// over [`SloConfig::default`]. `objective` is a percent (95 -> 950
/// milli) and `burn` a multiplier (2 -> 2000 milli); everything else is
/// taken verbatim.
fn parse_slo(spec: &str) -> SloConfig {
    let mut slo = SloConfig::default();
    if spec == "default" {
        return slo;
    }
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((k, v)) = part.split_once('=') else {
            eprintln!("cluster: --slo expects k=v pairs, got '{part}'");
            usage();
        };
        match k {
            "threshold" => slo.threshold_cycles = parse(v, "--slo threshold"),
            "objective" => {
                let pct: f64 = parse(v, "--slo objective");
                // Rounded to milli-units, the objective must stay below
                // 1000: 99.95 and up would leave no error budget.
                let milli = (pct * 10.0).round();
                if !(0.0..100.0).contains(&pct) || milli >= 1000.0 {
                    eprintln!("cluster: --slo objective must be in [0, 100), got {pct}");
                    usage();
                }
                slo.objective_milli = milli as u32;
            }
            "fast" => slo.fast_window_cycles = parse(v, "--slo fast"),
            "slow" => slo.slow_window_cycles = parse(v, "--slo slow"),
            "burn" => {
                let mult: f64 = parse(v, "--slo burn");
                if !mult.is_finite() || mult <= 0.0 {
                    eprintln!("cluster: --slo burn must be positive, got {mult}");
                    usage();
                }
                slo.burn_milli = (mult * 1000.0).round() as u64;
            }
            "min" => slo.min_count = parse(v, "--slo min"),
            _ => {
                eprintln!("cluster: unknown --slo key '{k}'");
                usage();
            }
        }
    }
    slo
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

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ClusterConfig::default(),
        // Single-threaded by default: the sweep output is byte-identical
        // at any job count, so parallelism is strictly opt-in speed.
        threads: 1,
        sweep: None,
        trace: None,
        traffic: None,
        stats: false,
        emit_trace: None,
        out: None,
        validate: None,
        trace_out: None,
        metrics_out: None,
        validate_trace: None,
        scope_out: None,
        slo: None,
        controller: None,
        chaos: None,
        chaos_seed: 1,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("cluster: {flag} needs a value");
            usage();
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cores" => args.cfg.cores = parse(&value(&mut it, "--cores"), "--cores"),
            "--nodes" => args.cfg.topology.nodes = parse(&value(&mut it, "--nodes"), "--nodes"),
            "--scheduler" => {
                let spec = value(&mut it, "--scheduler");
                args.cfg.topology.scheduler = SchedulerKind::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("cluster: --scheduler: {e}");
                    usage();
                });
            }
            "--keepalive" => {
                let spec = value(&mut it, "--keepalive");
                args.cfg.topology.keepalive = KeepAliveKind::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("cluster: --keepalive: {e}");
                    usage();
                });
            }
            "--fe" => {
                let name = value(&mut it, "--fe");
                args.cfg.fe = front_end(&name).unwrap_or_else(|| {
                    eprintln!("cluster: unknown front-end '{name}'");
                    usage();
                });
            }
            "--scale" => args.cfg.scale = parse(&value(&mut it, "--scale"), "--scale"),
            "--seed" => args.cfg.arrival.seed = parse(&value(&mut it, "--seed"), "--seed"),
            "--rate" => {
                args.cfg.arrival.rate_per_mcycle = parse(&value(&mut it, "--rate"), "--rate");
            }
            "--zipf" => args.cfg.arrival.zipf_s = parse(&value(&mut it, "--zipf"), "--zipf"),
            "--horizon" => {
                args.cfg.arrival.horizon_cycles = parse(&value(&mut it, "--horizon"), "--horizon");
            }
            "--capacity" => {
                args.cfg.store.capacity_bytes = parse(&value(&mut it, "--capacity"), "--capacity");
            }
            "--policy" => {
                let name = value(&mut it, "--policy");
                args.cfg.store.policy = EvictionPolicy::parse(&name).unwrap_or_else(|| {
                    eprintln!("cluster: unknown policy '{name}'");
                    usage();
                });
            }
            "--jobs" => args.threads = parse_jobs(&value(&mut it, "--jobs"), "--jobs"),
            "--threads" => args.threads = parse_jobs(&value(&mut it, "--threads"), "--threads"),
            "--sweep" => {
                let list = value(&mut it, "--sweep");
                args.sweep = Some(list.split(',').map(|c| parse(c.trim(), "--sweep")).collect());
            }
            "--trace" => args.trace = Some(value(&mut it, "--trace")),
            "--traffic" => args.traffic = Some(value(&mut it, "--traffic")),
            "--stats" => args.stats = true,
            "--emit-trace" => args.emit_trace = Some(value(&mut it, "--emit-trace")),
            "--out" => args.out = Some(value(&mut it, "--out")),
            "--validate" => args.validate = Some(value(&mut it, "--validate")),
            "--trace-out" => args.trace_out = Some(value(&mut it, "--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value(&mut it, "--metrics-out")),
            "--validate-trace" => {
                args.validate_trace = Some(value(&mut it, "--validate-trace"));
            }
            "--scope-out" => args.scope_out = Some(value(&mut it, "--scope-out")),
            "--slo" => args.slo = Some(parse_slo(&value(&mut it, "--slo"))),
            "--controller" => args.controller = Some(value(&mut it, "--controller")),
            "--chaos" => {
                let spec = value(&mut it, "--chaos");
                args.chaos = Some(parse_chaos_spec(&spec).unwrap_or_else(|e| {
                    eprintln!("cluster: --chaos: {e}");
                    usage();
                }));
            }
            "--chaos-seed" => {
                args.chaos_seed = parse(&value(&mut it, "--chaos-seed"), "--chaos-seed");
            }
            "--retry" => {
                let spec = value(&mut it, "--retry");
                args.cfg.retry = parse_retry_spec(&spec).unwrap_or_else(|e| {
                    eprintln!("cluster: --retry: {e}");
                    usage();
                });
            }
            _ => {
                eprintln!("cluster: unknown argument '{arg}'");
                usage();
            }
        }
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cluster: bad value '{s}' for {flag}");
        usage();
    })
}

/// Parses a sweep worker count, refusing one above [`MAX_JOBS`]: each
/// worker is an OS thread simulating a whole cluster.
fn parse_jobs(s: &str, flag: &str) -> usize {
    let jobs = parse(s, flag);
    if jobs > MAX_JOBS {
        eprintln!("cluster: {flag} must be at most {MAX_JOBS}, got {jobs}");
        usage();
    }
    jobs
}

/// Builds the configured workload as a stream: the traffic spec, a
/// replayed trace file, or the built-in Poisson/Zipf process.
fn build_source<'a>(
    spec: &Option<TrafficSpec>,
    trace: &'a Option<Trace>,
    cfg: &ClusterConfig,
) -> Result<Box<dyn ArrivalSource + 'a>, String> {
    match (spec, trace) {
        (Some(spec), _) => {
            let suite = Suite::paper_suite_scaled(cfg.scale);
            spec.build(&cfg.arrival, &suite)
                .map(|s| s as Box<dyn ArrivalSource + 'a>)
                .map_err(|e| e.to_string())
        }
        (None, Some(t)) => Ok(Box::new(TraceSource::new(t))),
        (None, None) => Ok(Box::new(cfg.arrival.source())),
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.validate {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cluster: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match ClusterReport::validate(&text) {
            Ok(()) => {
                println!("{path}: valid cluster report");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cluster: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = &args.validate_trace {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cluster: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_trace(&text) {
            Ok(summary) => {
                println!(
                    "{path}: valid trace, {} events ({} dropped)",
                    summary.total_events(),
                    summary.dropped_events
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cluster: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut cfg = args.cfg;
    cfg.arrival.functions = 20; // the full paper suite
    if let Some(plan) = args.chaos {
        // The failure schedule draws from its own seed: `--seed` owns
        // the arrival stream, `--chaos-seed` owns the chaos stream.
        cfg.chaos = Some(plan.seeded(args.chaos_seed));
    }
    if let Err(e) = cfg.validate() {
        eprintln!("cluster: invalid configuration: {e}");
        return ExitCode::FAILURE;
    }

    // A shaped workload replaces the arrival process wholesale, so it
    // conflicts with replaying a trace file and with the sweep (whose
    // points regenerate the built-in process).
    let traffic_spec = match &args.traffic {
        None => None,
        Some(raw) => {
            if args.trace.is_some() {
                eprintln!("cluster: --traffic and --trace both define the workload; pick one");
                return ExitCode::FAILURE;
            }
            if args.sweep.is_some() {
                eprintln!("cluster: --traffic is not supported with --sweep");
                return ExitCode::FAILURE;
            }
            let spec = match TrafficSpec::parse(raw) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("cluster: --traffic: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(multiplier) = spec.peak_multiplier() {
                if let Err(e) = cfg.check_peak_rate("traffic", multiplier) {
                    eprintln!("cluster: invalid configuration: {e}");
                    return ExitCode::FAILURE;
                }
            }
            cfg.traffic = Some(raw.clone());
            Some(spec)
        }
    };
    // The sweep regenerates the built-in arrival process at every point,
    // so a replayed trace file would be silently ignored.
    if args.trace.is_some() && args.sweep.is_some() {
        eprintln!("cluster: --trace is not supported with --sweep");
        return ExitCode::FAILURE;
    }
    // The controller mutates scheduling state (replay gates, admission,
    // active cores, keep-alive windows) as the run unfolds, so it is
    // incompatible with the sweep (which compares static configurations
    // by design).
    let mut controller = match &args.controller {
        None => None,
        Some(raw) => {
            if args.sweep.is_some() {
                eprintln!("cluster: --controller is not supported with --sweep");
                return ExitCode::FAILURE;
            }
            match ControllerSpec::parse(raw) {
                Ok(spec) => {
                    cfg.controller = Some(raw.clone());
                    Some(Controller::new(spec))
                }
                Err(e) => {
                    eprintln!("cluster: --controller: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let replay_trace = match &args.trace {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cluster: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Trace::parse(&text) {
                Ok(trace) => Some(trace),
                Err(e) => {
                    eprintln!("cluster: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if args.stats {
        let mut source = match build_source(&traffic_spec, &replay_trace, &cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cluster: --traffic: {e}");
                return ExitCode::FAILURE;
            }
        };
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
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.emit_trace {
        // With --traffic the source is materialized into the same
        // ignite-trace-v1 format, so shaped workloads can be archived
        // and replayed through --trace like any other trace.
        let trace = match build_source(&traffic_spec, &replay_trace, &cfg) {
            Ok(mut s) => materialize(&mut *s),
            Err(e) => {
                eprintln!("cluster: --traffic: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, trace.to_text()) {
            eprintln!("cluster: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} arrivals to {path}", trace.arrivals.len());
        return ExitCode::SUCCESS;
    }

    if let Some(capacities) = &args.sweep {
        if args.trace_out.is_some() {
            eprintln!("cluster: --trace-out traces a single run; not supported with --sweep");
            return ExitCode::FAILURE;
        }
        if args.scope_out.is_some() || args.slo.is_some() {
            eprintln!(
                "cluster: --scope-out/--slo analyze a single run; not supported with --sweep"
            );
            return ExitCode::FAILURE;
        }
        // Independent sweep points shard across threads; a panicking point
        // reports its failure without tearing down the rest.
        let results = sweep_capacities(&cfg, capacities, args.threads);
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
            if let Err(e) = std::fs::write(path, reg.expose()) {
                eprintln!("cluster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let sim = ClusterSim::new(cfg.clone());

    // Four sink shapes, picked once: a plain run, a trace ring, the
    // scope analyzer over a discarded stream, or the analyzer teeing
    // into the ring (alerts land in the trace too).
    enum Sinks {
        Plain(NullSink),
        Trace(TraceBuffer),
        Scope(Box<ScopeAnalyzer<NullSink>>),
        Both(Box<ScopeAnalyzer<TraceBuffer>>),
    }
    let scope_on = args.scope_out.is_some() || args.slo.is_some();
    let with_slo = |an: ScopeAnalyzer<TraceBuffer>| match args.slo {
        Some(slo) => an.with_slo(slo),
        None => an,
    };
    let with_slo_null = |an: ScopeAnalyzer<NullSink>| match args.slo {
        Some(slo) => an.with_slo(slo),
        None => an,
    };
    let mut sinks = match (args.trace_out.is_some(), scope_on) {
        (false, false) => Sinks::Plain(NullSink),
        (true, false) => Sinks::Trace(TraceBuffer::new(TRACE_BUFFER_EVENTS)),
        (false, true) => Sinks::Scope(Box::new(with_slo_null(ScopeAnalyzer::new(NullSink)))),
        (true, true) => Sinks::Both(Box::new(with_slo(ScopeAnalyzer::new(TraceBuffer::new(
            TRACE_BUFFER_EVENTS,
        ))))),
    };

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
    let mut run_source =
        |sim: &ClusterSim, source: &mut dyn ArrivalSource, sinks: &mut Sinks| -> ClusterOutcome {
            let policy = controller.as_mut();
            match sinks {
                Sinks::Plain(s) => run_one(sim, source, s, policy),
                Sinks::Trace(s) => run_one(sim, source, s, policy),
                Sinks::Scope(s) => run_one(sim, source, s.as_mut(), policy),
                Sinks::Both(s) => run_one(sim, source, s.as_mut(), policy),
            }
        };
    let mut source = match build_source(&traffic_spec, &replay_trace, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cluster: --traffic: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run_source(&sim, &mut *source, &mut sinks);

    let abbrs: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    // Borrow rather than consume the sinks: the analyzer's live burn-rate
    // trackers are still needed by the metrics exposition below.
    let scope_report = match &sinks {
        Sinks::Scope(an) => Some(ScopeReport::from_analyzer(an, &abbrs)),
        Sinks::Both(an) => Some(ScopeReport::from_analyzer(an, &abbrs)),
        _ => None,
    };
    let trace_buf: Option<&TraceBuffer> = match &sinks {
        Sinks::Trace(buf) => Some(buf),
        Sinks::Both(an) => Some(an.inner()),
        _ => None,
    };
    let mut report = ClusterReport::new(cfg, outcome);
    if let Some(buf) = trace_buf {
        report = report
            .with_obs(ObsSummary { trace_events: buf.len() as u64, trace_dropped: buf.dropped() });
    }

    if let Some(scope) = &scope_report {
        let text = scope.to_json();
        if let Err(e) = ScopeReport::validate(&text) {
            eprintln!("cluster: emitted scope report failed validation: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "scope: {} invocations attributed | {} SLO violations | {} alert fires",
            scope.totals.invocations, scope.totals.violations, scope.totals.alert_fires
        );
        if let Some(path) = &args.scope_out {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cluster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }

    if let (Some(path), Some(buf)) = (&args.trace_out, trace_buf) {
        let text = to_chrome_json(
            buf,
            &ChromeOptions { process_name: "ignite-cluster", function_names: &abbrs },
        );
        if let Err(e) = validate_trace(&text) {
            eprintln!("cluster: emitted trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cluster: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
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
        if let Err(e) = std::fs::write(path, reg.expose()) {
            eprintln!("cluster: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    let text = report.to_json();
    if let Err(e) = ClusterReport::validate(&text) {
        eprintln!("cluster: emitted report failed validation: {e}");
        return ExitCode::FAILURE;
    }
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
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cluster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}
