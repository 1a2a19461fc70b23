//! Scope-layer integration gates: the exact attribution invariant over
//! a real cluster run, the cluster and scope reports' agreement on every
//! latency percentile, SLO alert events in the exported trace, report
//! validation, determinism and its golden (`tests/golden/scope.json`),
//! clean self-diffs over every supported schema, cross-process sketch
//! stability, the observability health checks (histogram overflow
//! reaching `+Inf`, trace drops surfaced in report and metrics), and the
//! validators' strictness: every key of every committed report is
//! required with its kind, deeply nested input is a clean error, and
//! `scope diff` refuses bad thresholds and mixed report kinds.

use ignite_cluster::json::{self, Value};
use ignite_cluster::{
    metrics_for, record_metrics, validate_trace, ClusterConfig, ClusterOutcome, ClusterReport,
    ClusterSim, ObsSummary, StaticPolicy,
};
use ignite_obs::MetricsRegistry;
use ignite_obs::{Attribution, EventKind, EventSink, NullSink, QuantileSketch, TraceBuffer, Track};
use ignite_scope::{diff, load_samples, Loaded, ScopeAnalyzer, ScopeReport, SloConfig};

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

/// The tentpole invariant: every attributed invocation's seven
/// components sum *bit-exactly* to its end-to-end latency, the
/// aggregates reconcile with the simulator's own accounting, and
/// attribution observes without perturbing the run. The analyzer keeps
/// no per-invocation records, so the test reads them back from a trace
/// buffer inside it.
#[test]
fn attribution_components_tile_every_latency() {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(TraceBuffer::new(1 << 16));
    let observed = run_observed(&cfg, &mut analyzer);
    let plain = ClusterSim::new(cfg).run();
    assert_eq!(plain, observed, "attribution must not change the simulation");

    assert!(observed.invocations > 0, "empty run proves nothing");
    let report = ScopeReport::from_analyzer(&analyzer, &abbrs(&observed));
    assert_eq!(report.totals.invocations, observed.invocations);
    let buf = analyzer.inner();
    assert_eq!(buf.dropped(), 0, "the buffer must hold the whole run");
    let records: Vec<(u32, u64, Attribution)> = buf
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Attribution { function, cycles } => Some((function, e.ts, cycles)),
            _ => None,
        })
        .collect();
    assert_eq!(records.len() as u64, observed.invocations);
    let mut latency_sum = 0u64;
    for (function, ts, a) in &records {
        assert_eq!(
            a.component_sum(),
            a.latency_cycles,
            "function {function} at ts {ts}: components do not tile the latency: {a:?}"
        );
        latency_sum += a.latency_cycles;
    }
    assert_eq!(latency_sum, observed.latency_sum, "attributed latency must total the sim's sum");
    for (i, f) in observed.functions.iter().enumerate() {
        let attributed = analyzer.per_function().get(&(i as u32)).map_or(0, |a| a.invocations);
        assert_eq!(attributed, f.invocations, "function {} ({})", i, f.abbr);
    }
    // The run exercises both sides of the cold/store-miss split.
    let any_cold = records.iter().any(|(_, _, a)| a.cold_frontend_cycles > 0);
    let any_miss = records.iter().any(|(_, _, a)| a.store_miss_cycles > 0);
    assert!(any_cold && any_miss, "expected both store-hit and store-miss invocations");
}

/// The scope report of the golden configuration under the default SLO,
/// as emitted by `cluster --horizon 800000 --capacity 8192 --slo default
/// --scope-out FILE`.
fn golden_scope_report() -> String {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
    let outcome = run_observed(&cfg, &mut analyzer);
    ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json()
}

#[test]
fn scope_report_validates_and_is_deterministic() {
    let a = golden_scope_report();
    ScopeReport::validate(&a).expect("scope report must self-validate");
    assert_eq!(a, golden_scope_report(), "scope report must be byte-deterministic");
}

/// The scope report layout is pinned byte for byte by
/// `tests/golden/scope.json`. To update after an intentional change:
/// `IGNITE_BLESS=1 cargo test -p ignite-harness --test scope`.
#[test]
fn golden_scope_report_matches() {
    let current = golden_scope_report();
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/scope.json");
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test scope",
            path.display()
        )
    });
    for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
        assert_eq!(a, b, "scope golden mismatch at line {}; re-bless if intentional", i + 1);
    }
    assert_eq!(committed, current, "scope golden length mismatch; re-bless if intentional");
}

/// One latency-percentile definition: the golden scope configuration,
/// run once with a scope analyzer, writes the same p50/p95/p99 into the
/// cluster report as into the scope report, in the totals and in every
/// row of a function that ran, and the cluster's totals quantile gauges
/// carry the scope totals' values.
#[test]
fn cluster_and_scope_reports_write_the_same_percentiles() {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
    let outcome = run_observed(&cfg, &mut analyzer);
    let scope = ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json();
    let metrics = metrics_for(&cfg, &outcome).expose();
    let cluster = ClusterReport::new(cfg, outcome).to_json();
    let cluster = ClusterReport::from_json(&cluster).expect("reads back").outcome;
    let scope = ScopeReport::from_json(&scope).expect("reads back");
    let totals = scope.totals.latency;
    assert_eq!([cluster.p50_latency, cluster.p95_latency, cluster.p99_latency], totals, "totals");
    let mut compared = 0;
    for f in cluster.functions.iter().filter(|f| f.invocations > 0) {
        let theirs = scope.functions.iter().find(|r| r.abbr == f.abbr).expect("a scope row");
        assert_eq!(
            [f.p50_latency, f.p95_latency, f.p99_latency],
            theirs.totals.latency,
            "{}",
            f.abbr
        );
        compared += 1;
    }
    assert_eq!(compared, scope.functions.len(), "every scope row has a cluster row");
    for (q, want) in ["p50", "p95", "p99"].into_iter().zip(totals) {
        let name = format!("ignite_cluster_totals_{q}_latency_cycles ");
        let gauge = metrics.lines().find(|l| l.starts_with(&name));
        let value = gauge.and_then(|l| l.rsplit(' ').next());
        assert_eq!(value, Some(want.to_string().as_str()), "quantile {q}");
    }
}

/// Copies of the committed scope report that fail validation with the
/// key named: totals whose queue and latency cycles are both raised by
/// 5, so they still tile but are no longer the merge of the rows, and an
/// SLO objective of 5000 milli.
#[test]
fn scope_validate_rejects_unmerged_totals_and_an_out_of_range_objective() {
    let text = std::fs::read_to_string(repo_path("tests/golden/scope.json")).expect("golden");
    assert_eq!(ScopeReport::validate(&text), Ok(()));
    let totals = ScopeReport::from_json(&text).expect("the golden reads back").totals.cycles;
    let mut unmerged = text.clone();
    for (key, v) in
        [("queue_cycles", totals.queue_cycles), ("latency_cycles", totals.latency_cycles)]
    {
        // The first match is in the totals row, which precedes the rows.
        let raised =
            unmerged.replacen(&format!("\"{key}\": {v},"), &format!("\"{key}\": {},", v + 5), 1);
        assert_ne!(raised, unmerged, "the golden has no totals {key}");
        unmerged = raised;
    }
    let err = ScopeReport::validate(&unmerged).expect_err("totals that are not the merge");
    assert!(err.contains("queue_cycles"), "{err}");
    let objective = text.replacen("\"objective_milli\": 950,", "\"objective_milli\": 5000,", 1);
    assert_ne!(objective, text, "the golden's objective is 950");
    let err = ScopeReport::validate(&objective).expect_err("an objective of 5000 milli");
    assert!(err.contains("objective_milli"), "{err}");
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

/// An argument that is not UTF-8 is a usage error naming its position
/// (exit 2, then the usage text), not a panic in the argument reader.
#[cfg(unix)]
#[test]
fn scope_binary_refuses_a_non_utf8_argument() {
    use std::os::unix::ffi::OsStrExt;
    let args = [std::ffi::OsStr::new("validate"), std::ffi::OsStr::from_bytes(b"\xff")];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_scope"))
        .args(args)
        .output()
        .expect("spawn scope binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let refusal = "scope: argument 2 is not valid UTF-8: \"\\xFF\"\nusage: scope validate FILE";
    assert!(stderr.starts_with(refusal), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// `scope diff` of a run against itself must be clean for every schema
/// it understands — the acceptance gate CI relies on. The v2 report is
/// the chaos golden configuration's.
#[test]
fn self_diffs_report_zero_regressions() {
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink);
    let outcome = run_observed(&cfg, &mut analyzer);
    let scope_json = ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome)).to_json();
    let cluster_json = ClusterReport::new(cfg, outcome).to_json();
    let chaos_json = std::fs::read_to_string(repo_path("tests/golden/chaos.json"))
        .unwrap_or_else(|e| panic!("cannot read the chaos golden: {e}"));
    for (what, text, want) in [
        ("scope", &scope_json, "ignite-scope-v1"),
        ("cluster", &cluster_json, "ignite-cluster-v1"),
        ("chaos", &chaos_json, "ignite-cluster-v2"),
    ] {
        let Loaded { schema, samples, .. } =
            load_samples(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(schema, want, "{what}");
        let d = diff(&samples, &samples, 5.0);
        assert_eq!(d.regressions(), 0, "{what} self-diff regressed:\n{}", d.to_text());
        assert_eq!(d.improvements(), 0, "{what} self-diff improved:\n{}", d.to_text());
        assert!(d.added.is_empty() && d.removed.is_empty());
    }
}

/// Cross-process determinism of the quantile sketch and the scope report
/// built on it: a fresh process (fresh ASLR, allocator state) reproduces
/// the sketch's `Debug` rendering and the report bytes.
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
/// `Debug` rendering of the analyzer's merged latency sketch and the
/// report when spawned with `IGNITE_SCOPE_CHILD=1`, does nothing in a
/// normal run.
#[test]
fn scope_child_emits_sketch() {
    if std::env::var_os("IGNITE_SCOPE_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    let cfg = golden_cfg();
    let mut analyzer = ScopeAnalyzer::new(NullSink).with_slo(SloConfig::default());
    let outcome = run_observed(&cfg, &mut analyzer);
    let report = ScopeReport::from_analyzer(&analyzer, &abbrs(&outcome));
    let mut sketch = QuantileSketch::new();
    analyzer.per_function().values().for_each(|f| sketch.merge(&f.latency));
    println!("IGNITE_SCOPE sketch {sketch:?}");
    for line in report.to_json().lines() {
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

    let mut reg = MetricsRegistry::new();
    record_metrics(&mut reg, report, &[]);
    let metrics = reg.expose();
    assert!(metrics.contains("ignite_cluster_obs_trace_events"));
    let dropped_line = metrics
        .lines()
        .find(|l| l.starts_with("ignite_cluster_obs_trace_dropped "))
        .expect("dropped-events metric");
    let v: f64 = dropped_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(v as u64, buf.dropped());
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// Renders a parsed document back to (compact) JSON text.
fn render(v: &Value) -> String {
    let join = |items: Vec<String>| items.join(",");
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(x) => x.to_string(),
        Value::String(s) => json::escape(s),
        Value::Array(a) => format!("[{}]", join(a.iter().map(render).collect())),
        Value::Object(o) => format!(
            "{{{}}}",
            join(o.iter().map(|(k, v)| format!("{}:{}", json::escape(k), render(v))).collect())
        ),
    }
}

/// Every object key in `v`: the index path to its object, the object's
/// path as the validators name it, and the key's position. Of an array,
/// only the first and last elements are visited: report rows of one
/// array share their shape.
fn key_sites(
    v: &Value,
    at: &mut Vec<usize>,
    name: &str,
    out: &mut Vec<(Vec<usize>, String, usize)>,
) {
    let children: Vec<(usize, String, &Value)> = match v {
        Value::Object(o) => {
            out.extend((0..o.len()).map(|i| (at.clone(), name.to_string(), i)));
            o.iter().enumerate().map(|(i, (k, v))| (i, format!("{name}.{k}"), v)).collect()
        }
        Value::Array(a) => a
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || i + 1 == a.len())
            .map(|(i, v)| (i, format!("{name}[{i}]"), v))
            .collect(),
        _ => Vec::new(),
    };
    for (i, child_name, child) in children {
        at.push(i);
        key_sites(child, at, &child_name, out);
        at.pop();
    }
}

/// The object at index path `at`.
fn object_at<'a>(v: &'a mut Value, at: &[usize]) -> &'a mut Vec<(String, Value)> {
    let v = at.iter().fold(v, |v, &i| match v {
        Value::Object(o) => &mut o[i].1,
        Value::Array(a) => &mut a[i],
        _ => unreachable!("index paths only lead through containers"),
    });
    let Value::Object(o) = v else { unreachable!("key sites are objects") };
    o
}

/// Every committed report passes its validator, and fails it once any
/// one key is deleted or any one number turned into a string, with an
/// error naming the key.
#[test]
fn committed_reports_require_every_key_with_its_kind() {
    for (file, validate) in committed_reports() {
        let text = std::fs::read_to_string(repo_path(&format!("tests/golden/{file}")))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        let doc = json::parse(&text).expect("golden parses");
        validate(&render(&doc)).unwrap_or_else(|e| panic!("{file} re-rendered: {e}"));
        let mut sites = Vec::new();
        key_sites(&doc, &mut Vec::new(), "report", &mut sites);
        for (at, parent, i) in sites {
            let mut cut = doc.clone();
            let (key, value) = object_at(&mut cut, &at).remove(i);
            let err =
                validate(&render(&cut)).expect_err(&format!("{file}: {parent}.{key} deleted"));
            assert!(err.contains(&key), "{file}: {parent}.{key} deleted: {err}");
            if let Value::Number(x) = value {
                let mut typo = doc.clone();
                object_at(&mut typo, &at)[i].1 = Value::String(x.to_string());
                let err = validate(&render(&typo))
                    .expect_err(&format!("{file}: {parent}.{key} as a string"));
                assert!(err.contains(&format!("{parent}.{key}")), "{file}: {err}");
            }
        }
    }
}

type Validate = fn(&str) -> Result<(), String>;

/// Every committed report and its validator.
fn committed_reports() -> [(&'static str, Validate); 7] {
    let (cluster, scope): (Validate, Validate) = (ClusterReport::validate, ScopeReport::validate);
    [
        ("cluster.json", cluster),
        ("chaos.json", cluster),
        ("multinode.json", cluster),
        ("control.json", cluster),
        ("traffic_azure.json", cluster),
        ("traffic_mmpp.json", cluster),
        ("scope.json", scope),
    ]
}

/// Every committed report reads back into its types and writes back
/// byte for byte: the chaos v2, multi-node, controller, Azure and MMPP
/// shapes, and the scope report.
#[test]
fn every_committed_report_round_trips() {
    for (file, _) in committed_reports() {
        let text = std::fs::read_to_string(repo_path(&format!("tests/golden/{file}")))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        let back = if file == "scope.json" {
            ScopeReport::from_json(&text).map(|r| r.to_json())
        } else {
            ClusterReport::from_json(&text).map(|r| r.to_json())
        };
        assert_eq!(back.as_deref(), Ok(text.as_str()), "{file}");
    }
}

/// Deeply nested input is a parse error for every validating command: exit
/// 1 with a diagnostic, never a stack overflow.
#[test]
fn validators_reject_deep_nesting_without_crashing() {
    let dir = std::env::temp_dir().join(format!("ignite-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).expect("write input");
    let file = path.to_str().expect("utf-8 path");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_cluster"), vec!["--validate", file]),
        (env!("CARGO_BIN_EXE_scope"), vec!["validate", file]),
        (env!("CARGO_BIN_EXE_scope"), vec!["diff", file, file]),
    ] {
        let out = std::process::Command::new(bin).args(&args).output().expect("spawn validator");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("nesting deeper than"), "{args:?}: {stderr}");
        assert!(!stderr.contains("overflow"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--slo objective` is a percentage below 100 that must stay below 1000
/// once rounded to the milli-units the tracker works in: from 99.95 up
/// it would round to a zero error budget, so it is a usage error (exit
/// 2), while 99.9 is written into the scope report as 999.
#[test]
fn cluster_refuses_an_slo_objective_that_rounds_to_100_percent() {
    let cluster = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
            .args(args)
            .output()
            .expect("spawn cluster binary")
    };
    for pct in ["99.95", "99.96", "100", "-1"] {
        let out = cluster(&["--slo", &format!("objective={pct}")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "objective={pct}: {stderr}");
        assert!(stderr.contains("--slo objective must be in [0, 100)"), "{stderr}");
    }
    let dir = std::env::temp_dir().join(format!("ignite-slo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scope.json");
    let file = path.to_str().expect("utf-8 path");
    let out = cluster(&["--slo", "objective=99.9", "--horizon", "100000", "--scope-out", file]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("read the scope report");
    assert!(text.contains("\"objective_milli\": 999,"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `scope diff` takes a threshold only as a finite percentage >= 0, and
/// compares two cluster reports, of either version, or two scope
/// reports, never one of each: not even with `--allow-cross-workload`,
/// which a fingerprinted report would otherwise ask for.
#[test]
fn scope_diff_refuses_bad_thresholds_and_mixed_report_kinds() {
    let scope_diff = |old: &str, new: &str, args: &[&str]| {
        let golden = |f: &str| repo_path(&format!("tests/golden/{f}"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scope"))
            .arg("diff")
            .args([golden(old), golden(new)])
            .args(args)
            .output()
            .expect("spawn scope");
        let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    // This pair has 24 regressions at the default 5%, so a threshold
    // that turned the gate off or flagged every change would show.
    for t in ["nan", "inf", "-inf", "-1"] {
        let (code, _, stderr) = scope_diff("cluster.json", "chaos.json", &["--threshold", t]);
        assert_eq!(code, Some(2), "--threshold {t}: {stderr}");
        assert!(stderr.contains(&format!("bad threshold '{t}'")), "{stderr}");
    }
    let (code, stdout, stderr) = scope_diff("cluster.json", "chaos.json", &["--threshold", "0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.starts_with("scope diff: 47 metrics compared"), "{stdout}");
    for (old, new, schemas) in [
        ("traffic_mmpp.json", "scope.json", ["ignite-cluster-v1", "ignite-scope-v1"]),
        ("scope.json", "chaos.json", ["ignite-scope-v1", "ignite-cluster-v2"]),
    ] {
        let (code, stdout, stderr) = scope_diff(old, new, &[]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stdout.is_empty() && schemas.iter().all(|s| stderr.contains(s)), "{stderr}");
    }
}
