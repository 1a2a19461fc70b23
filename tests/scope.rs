//! Scope-layer integration gates: the exact attribution invariant over
//! a real cluster run, SLO alert events in the exported trace, report
//! validation and determinism, clean self-diffs over every supported
//! schema, cross-process sketch byte-stability, and the observability
//! health satellites (histogram overflow reaching `+Inf`, trace drops
//! surfaced in report and metrics).

use ignite_cluster::{
    metrics_for, record_trace_health, validate_trace, ClusterConfig, ClusterOutcome, ClusterReport,
    ClusterSim, ObsSummary, StaticPolicy,
};
use ignite_obs::{EventKind, EventSink, NullSink, TraceBuffer, Track};
use ignite_scope::{diff, load_samples, ScopeAnalyzer, ScopeReport, SloConfig};

/// Same pinned configuration as the cluster golden test: long enough
/// that recurrences hit the store and eviction engages.
fn golden_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

/// Runs `cfg`'s arrival process into `sink` under the static policy.
fn run_observed<S: EventSink>(cfg: &ClusterConfig, sink: &mut S) -> ClusterOutcome {
    let mut source = cfg.arrival.source();
    ClusterSim::new(cfg.clone()).run_source_policy_obs(&mut source, sink, &mut StaticPolicy)
}

fn abbrs(outcome: &ClusterOutcome) -> Vec<String> {
    outcome.functions.iter().map(|f| f.abbr.clone()).collect()
}

/// The tentpole invariant: every attributed invocation's five
/// components sum *bit-exactly* to its end-to-end latency, the
/// aggregates reconcile with the simulator's own accounting, and
/// attribution observes without perturbing the run.
#[test]
fn attribution_components_tile_every_latency() {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink);
    let observed = run_observed(&cfg, &mut analyzer);
    let plain = ClusterSim::new(cfg).run();
    assert_eq!(plain, observed, "attribution must not change the simulation");

    assert!(observed.invocations > 0, "empty run proves nothing");
    assert_eq!(analyzer.total_invocations(), observed.invocations);
    assert_eq!(analyzer.invocations().len() as u64, observed.invocations);
    let mut latency_sum = 0u64;
    for a in analyzer.invocations() {
        assert_eq!(
            a.component_sum(),
            a.latency_cycles,
            "function {} at ts {}: queue {} + dram {} + cold {} + miss {} + exec {} != {}",
            a.function,
            a.ts,
            a.queue_cycles,
            a.dram_cycles,
            a.cold_frontend_cycles,
            a.store_miss_cycles,
            a.execution_cycles,
            a.latency_cycles
        );
        latency_sum += a.latency_cycles;
    }
    assert_eq!(latency_sum, observed.latency_sum, "attributed latency must total the sim's sum");
    for (i, f) in observed.functions.iter().enumerate() {
        let attributed = analyzer.per_function().get(&(i as u32)).map_or(0, |a| a.invocations);
        assert_eq!(attributed, f.invocations, "function {} ({})", i, f.abbr);
    }
    // The run exercises both sides of the cold/store-miss split.
    let any_cold = analyzer.invocations().iter().any(|a| a.cold_frontend_cycles > 0);
    let any_miss = analyzer.invocations().iter().any(|a| a.store_miss_cycles > 0);
    assert!(any_cold && any_miss, "expected both store-hit and store-miss invocations");
}

#[test]
fn scope_report_validates_and_is_deterministic() {
    let build = || {
        let cfg = golden_cfg();
        let mut analyzer = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
        let outcome = run_observed(&cfg, &mut analyzer);
        ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json()
    };
    let a = build();
    ScopeReport::validate(&a).expect("scope report must self-validate");
    assert_eq!(a, build(), "scope report must be byte-deterministic");
}

/// A deliberately unmeetable SLO makes burn-rate alerts fire; the
/// transitions land on their own track, survive the Chrome export, and
/// reconcile with the report's counters.
#[test]
fn alerts_fire_into_their_own_track_and_chrome_export() {
    let cfg = golden_cfg();
    let slo = SloConfig { threshold_cycles: 1, min_count: 1, ..SloConfig::default() };
    let mut analyzer = ScopeAnalyzer::new(TraceBuffer::new(1 << 16)).with_slo(slo);
    let outcome = run_observed(&cfg, &mut analyzer);
    let report = ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome));
    assert!(report.totals.violations > 0, "every invocation violates a 1-cycle threshold");
    assert!(report.totals.alert_fires > 0, "sustained violations must fire");

    let buf = analyzer.into_inner();
    let fires: Vec<_> =
        buf.iter().filter(|e| matches!(e.kind, EventKind::AlertFire { .. })).collect();
    assert_eq!(fires.len() as u64, report.totals.alert_fires);
    assert!(fires.iter().all(|e| e.track == Track::Alerts), "alerts get their own track");

    let names = abbrs(&outcome);
    let text = ignite_obs::to_chrome_json(
        &buf,
        &ignite_obs::ChromeOptions { process_name: "scope-test", function_names: &names },
    );
    let summary = validate_trace(&text).expect("alerting trace must stay valid");
    assert!(summary.events_by_name.get("alert-fire").copied().unwrap_or(0) > 0);
    assert!(summary.events_by_name.get("attribution").copied().unwrap_or(0) > 0);
}

/// `scope diff` of a run against itself must be clean for every schema
/// it understands — the acceptance gate CI relies on.
#[test]
fn self_diffs_report_zero_regressions() {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink);
    let outcome = run_observed(&cfg, &mut analyzer);
    let scope_json = ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json();
    let cluster_json = ClusterReport::new(cfg, outcome).to_json();
    let bench_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates/bench/baseline/quick.json");
    let bench_json = std::fs::read_to_string(&bench_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", bench_path.display()));
    for (what, text) in [("scope", &scope_json), ("cluster", &cluster_json), ("bench", &bench_json)]
    {
        let samples = load_samples(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        let d = diff(&samples, &samples, 5.0);
        assert_eq!(d.regressions(), 0, "{what} self-diff regressed:\n{}", d.to_text());
        assert_eq!(d.improvements(), 0, "{what} self-diff improved:\n{}", d.to_text());
        assert!(d.added.is_empty() && d.removed.is_empty());
    }
}

/// Cross-process determinism of the quantile sketch bytes and the scope
/// report built on them: a fresh process (fresh ASLR, allocator state)
/// reproduces the identical serialization.
#[test]
fn sketch_bytes_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["scope_child_emits_sketch", "--exact", "--nocapture"])
            .env("IGNITE_SCOPE_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IGNITE_SCOPE ")).collect();
        assert!(!lines.is_empty(), "child printed no scope lines:\n{stdout}");
        lines.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different sketch/report bytes");
}

/// Helper for [`sketch_bytes_identical_across_processes`]: prints the
/// overall sketch bytes (hex) and the report when spawned with
/// `IGNITE_SCOPE_CHILD=1`, does nothing in a normal run.
#[test]
fn scope_child_emits_sketch() {
    if std::env::var_os("IGNITE_SCOPE_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
    let outcome = run_observed(&cfg, &mut analyzer);
    let hex: String = analyzer.overall().to_bytes().iter().map(|b| format!("{b:02x}")).collect();
    println!("IGNITE_SCOPE sketch {hex}");
    for line in ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json().lines() {
        println!("IGNITE_SCOPE {line}");
    }
}

/// Satellite 1: latencies past the last finite bucket still reach the
/// exposition — the `+Inf` bucket and `_count` both cover them, so
/// overflow samples are never silently dropped.
#[test]
fn latency_overflow_reaches_inf_bucket() {
    let cfg = golden_cfg();
    let mut outcome = ClusterSim::new(cfg.clone()).run();
    // Real run first: +Inf must equal the sample count exactly.
    let assert_consistent = |text: &str, expect: u64| {
        let value_of = |line: &str| -> u64 {
            line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()).map(|v| v as u64).unwrap()
        };
        let inf = text
            .lines()
            .find(|l| l.starts_with("ignite_cluster_latency_cycles_bucket") && l.contains("+Inf"))
            .expect("+Inf bucket line");
        assert_eq!(value_of(inf), expect, "+Inf bucket must count every sample");
        let count = text
            .lines()
            .find(|l| l.starts_with("ignite_cluster_latency_cycles_count"))
            .expect("_count line");
        assert_eq!(value_of(count), expect, "_count must match");
    };
    assert_consistent(&metrics_for(&cfg, &outcome).expose(), outcome.invocations);

    // Synthetic worst case: every sample lands in the overflow slot.
    // Finite buckets read 0, yet +Inf and _count still see all of them.
    let slots = outcome.latency_histogram.len();
    outcome.latency_histogram = vec![0; slots];
    outcome.latency_histogram[slots - 1] = outcome.invocations;
    let text = metrics_for(&cfg, &outcome).expose();
    assert_consistent(&text, outcome.invocations);
    for line in text
        .lines()
        .filter(|l| l.starts_with("ignite_cluster_latency_cycles_bucket") && !l.contains("+Inf"))
    {
        let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(v, 0.0, "finite bucket should be empty: {line}");
    }
}

/// Satellite 2: a trace buffer too small for the run drops events, and
/// the drops are surfaced in both the cluster report's `obs` section
/// and the metrics exposition instead of vanishing.
#[test]
fn trace_drops_are_surfaced() {
    let cfg = golden_cfg();
    let mut buf = TraceBuffer::new(64);
    let outcome = run_observed(&cfg, &mut buf);
    assert!(buf.dropped() > 0, "a 64-event ring must overflow on this run");

    let obs = ObsSummary { trace_events: buf.len() as u64, trace_dropped: buf.dropped() };
    let report = ClusterReport::new(cfg.clone(), outcome.clone()).with_obs(obs);
    let text = report.to_json();
    ClusterReport::validate(&text).expect("report with obs section must validate");
    assert!(text.contains(&format!("\"trace_dropped\": {}", buf.dropped())));

    // Untraced reports carry no obs section at all (golden stability).
    let plain = ClusterReport::new(cfg.clone(), outcome.clone()).to_json();
    assert!(!plain.contains("trace_dropped"));
    ClusterReport::validate(&plain).expect("plain report must validate");

    let mut reg = metrics_for(&cfg, &outcome);
    record_trace_health(&mut reg, buf.len() as u64, buf.dropped());
    let metrics = reg.expose();
    assert!(metrics.contains("ignite_trace_events_total"));
    let dropped_line = metrics
        .lines()
        .find(|l| l.starts_with("ignite_trace_dropped_events_total "))
        .expect("dropped-events metric");
    let v: f64 = dropped_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(v as u64, buf.dropped());
}
