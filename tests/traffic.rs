//! Traffic-layer integration gates: golden reports for an Azure-trace
//! and an MMPP workload, cross-process determinism of both, streaming
//! vs materialized equivalence, importer round-trips, and a
//! million-invocation streaming run.
//!
//! The golden snapshots pin the full cluster report — including the
//! `"workload"` fingerprint section — for two shaped workloads under
//! the same small configuration the cluster golden uses (800k-cycle
//! horizon, 8 KiB store). The Azure golden uses the committed fixture
//! `tests/fixtures/azure_mini.csv` with the spec string the CI smoke
//! job passes verbatim, so `cmp` against a binary-produced report
//! must succeed byte-for-byte. To update after an intentional change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test traffic
//! ```

use std::path::PathBuf;

use ignite_cluster::{ClusterConfig, ClusterOutcome, ClusterReport, ClusterSim, StaticPolicy};
use ignite_obs::NullSink;
use ignite_traffic::{AzureSource, AzureTrace, MmppSource, TrafficSpec};
use ignite_workloads::arrival::{ArrivalSource, Trace, TraceSource};
use ignite_workloads::Suite;
use proptest::prelude::*;

/// The exact spec strings the CI `traffic-smoke` job passes to the
/// cluster binary; they are echoed into the report's config section,
/// so the goldens only match if these stay in sync with CI.
/// cpm=800000 slows the fixture's replay clock so its ~600 invocations
/// arrive near (not far past) the simulated service capacity.
const AZURE_SPEC: &str = "azure:tests/fixtures/azure_mini.csv,cpm=800000";
const MMPP_SPEC: &str = "mmpp:mults=1/6,dwells=300000/60000";
const AZURE_CPM: u64 = 800_000;

/// Same envelope as the cluster golden: 4 cores, 20 functions, a
/// bounded LRU store, an 800k-cycle horizon.
fn golden_cfg(spec: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg.traffic = Some(spec.to_string());
    cfg
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

fn fixture_trace() -> AzureTrace {
    let text = std::fs::read_to_string(repo_path("tests/fixtures/azure_mini.csv"))
        .expect("read committed azure fixture");
    AzureTrace::parse(&text).expect("committed fixture must parse")
}

/// Builds the workload source the binary would build for `spec` — the
/// Azure path is resolved against the repo root here (tests run from
/// the package directory; CI runs the binary from the workspace root).
fn golden_source(cfg: &ClusterConfig, spec: &str) -> Box<dyn ArrivalSource> {
    let suite = Suite::paper_suite_scaled(cfg.scale);
    if spec == AZURE_SPEC {
        Box::new(AzureSource::new(fixture_trace(), &suite, AZURE_CPM))
    } else {
        TrafficSpec::parse(spec)
            .expect("golden spec must parse")
            .build(&cfg.arrival, &suite)
            .expect("golden spec must build")
    }
}

/// Serves `source` on a fresh cluster built from `cfg`.
fn run(cfg: &ClusterConfig, source: &mut dyn ArrivalSource) -> ClusterOutcome {
    ClusterSim::new(cfg.clone()).run_source_policy_obs(source, &mut NullSink, &mut StaticPolicy)
}

fn golden_report(spec: &str) -> String {
    let cfg = golden_cfg(spec);
    let outcome = run(&cfg, &mut *golden_source(&cfg, spec));
    ClusterReport::new(cfg, outcome).to_json()
}

fn check_golden(name: &str, current: &str) {
    ClusterReport::validate(current).expect("golden traffic report must self-validate");
    let path = repo_path(&format!("tests/golden/{name}.json"));
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test traffic",
            path.display()
        )
    });
    if committed != *current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "{name} golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nTraffic semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test traffic",
                    i + 1
                );
            }
        }
        panic!(
            "{name} golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

#[test]
fn golden_azure_report_matches() {
    check_golden("traffic_azure", &golden_report(AZURE_SPEC));
}

#[test]
fn golden_mmpp_report_matches() {
    check_golden("traffic_mmpp", &golden_report(MMPP_SPEC));
}

/// Cross-process determinism of both shaped workloads: a fresh process
/// (fresh ASLR, allocator state) reproduces the same report bytes. The
/// child re-runs this test binary with `IGNITE_TRAFFIC_CHILD=1`, which
/// makes [`traffic_child_emits_reports`] print both golden reports; two
/// spawns must print identical output.
#[test]
fn traffic_reports_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["traffic_child_emits_reports", "--exact", "--nocapture"])
            .env("IGNITE_TRAFFIC_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let report: Vec<&str> =
            stdout.lines().filter(|l| l.starts_with("IGNITE_TRAFFIC ")).collect();
        assert!(!report.is_empty(), "child printed no report lines:\n{stdout}");
        report.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different traffic reports");
}

/// Helper for [`traffic_reports_identical_across_processes`]: prints
/// both golden-config reports (one tagged line per JSON line) when
/// spawned with `IGNITE_TRAFFIC_CHILD=1`, does nothing otherwise.
#[test]
fn traffic_child_emits_reports() {
    if std::env::var_os("IGNITE_TRAFFIC_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    for spec in [AZURE_SPEC, MMPP_SPEC] {
        for line in golden_report(spec).lines() {
            println!("IGNITE_TRAFFIC {line}");
        }
    }
}

/// Streaming a shaped source through the simulator and replaying its
/// materialized `ignite-trace-v1` form produce byte-identical reports:
/// the lazy pull path adds nothing and loses nothing.
#[test]
fn streaming_matches_materialized_replay() {
    for spec in [AZURE_SPEC, MMPP_SPEC] {
        let cfg = golden_cfg(spec);
        let streamed = run(&cfg, &mut *golden_source(&cfg, spec));
        let trace = Trace::from_source(&mut *golden_source(&cfg, spec));
        let replayed = run(&cfg, &mut TraceSource::new(&trace));
        let a = ClusterReport::new(cfg.clone(), streamed).to_json();
        let b = ClusterReport::new(cfg, replayed).to_json();
        assert_eq!(a, b, "streaming vs materialized diverged for {spec}");
    }
}

/// The Azure importer's arrival stream survives the `ignite-trace-v1`
/// text format: materialize, serialize, parse, and the trace is intact.
#[test]
fn azure_import_round_trips_through_trace_v1() {
    let cfg = golden_cfg(AZURE_SPEC);
    let trace = Trace::from_source(&mut *golden_source(&cfg, AZURE_SPEC));
    assert_eq!(trace.arrivals.len() as u64, fixture_trace().total_invocations());
    let text = trace.to_text();
    let parsed = Trace::parse(&text).expect("materialized azure trace must parse");
    assert_eq!(parsed.functions, trace.functions);
    assert_eq!(parsed.arrivals, trace.arrivals);
}

/// A `cpm` near the cycle limit is served exactly or refused. At 10^18
/// cycles per minute the fixture's six minutes fit the `u64` clock, and
/// the emitted trace parses (its arrivals stay in order); at `u64::MAX`
/// the run, `--stats` and `--emit-trace` each exit 1 naming `cpm`
/// instead of overflowing.
#[test]
fn azure_cpm_near_the_cycle_limit_is_exact_or_refused() {
    let fixture = repo_path("tests/fixtures/azure_mini.csv");
    let spec = |cpm: u64| format!("azure:{},cpm={cpm}", fixture.display());
    let dir = std::env::temp_dir().join(format!("ignite-cpm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let emitted = dir.join("cpm.trace").to_str().expect("utf-8 path").to_string();
    let cluster = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
            .args(args)
            .output()
            .expect("spawn cluster binary")
    };

    let out = cluster(&["--traffic", &spec(1_000_000_000_000_000_000), "--emit-trace", &emitted]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&emitted).expect("read the emitted trace");
    let trace = Trace::parse(&text).expect("the emitted trace must parse");
    assert_eq!(trace.arrivals.len() as u64, fixture_trace().total_invocations());

    let report = dir.join("report.json").to_str().expect("utf-8 path").to_string();
    let max = spec(u64::MAX);
    for args in [vec!["--stats"], vec!["--emit-trace", &emitted], vec!["--out", &report]] {
        let out = cluster(&[&["--traffic", max.as_str()][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("cpm="), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed fixture exercises the skew machinery: its per-function
/// totals are far from uniform, and the mapping spreads functions over
/// distinct suite entries.
#[test]
fn azure_fixture_is_skewed_and_mapped_injectively() {
    let trace = fixture_trace();
    let totals: Vec<u64> = trace.functions.iter().map(|f| f.per_minute.iter().sum()).collect();
    let max = *totals.iter().max().expect("nonempty fixture");
    let min = *totals.iter().min().expect("nonempty fixture");
    assert!(max >= 10 * min.max(1), "fixture should be skewed: {totals:?}");
    let suite = Suite::paper_suite_scaled(0.02);
    let mapping = AzureSource::new(trace, &suite, AZURE_CPM).mapping().to_vec();
    let mut seen = mapping.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), mapping.len(), "8 functions over 20 slots must map injectively");
}

fn drain(source: &mut dyn ArrivalSource) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    while let Some(a) = source.next_arrival() {
        out.push((a.cycle, a.function));
    }
    out
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid MMPP chain is deterministic: two sources built from the
    /// same parameters emit identical streams, ordered and in range.
    #[test]
    fn mmpp_streams_are_deterministic(
        seed in 0u64..1_000_000,
        mults in prop::collection::vec(0.1f64..8.0, 2..5),
        dwell in 10_000.0f64..200_000.0,
    ) {
        let cfg = ignite_workloads::ArrivalConfig {
            seed,
            horizon_cycles: 400_000,
            ..Default::default()
        };
        let dwells = vec![dwell; mults.len()];
        let a = drain(&mut MmppSource::new(&cfg, mults.clone(), dwells.clone()));
        let b = drain(&mut MmppSource::new(&cfg, mults, dwells));
        prop_assert_eq!(&a, &b);
        for w in a.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "arrivals must be time-ordered");
        }
        for &(_, f) in &a {
            prop_assert!((f as usize) < cfg.functions);
        }
    }

    /// Random well-formed CSV traces round-trip: parse, emit through the
    /// source, materialize, and the arrival count matches the invocation
    /// total while the trace text format reproduces it all.
    #[test]
    fn random_azure_traces_round_trip(
        counts in prop::collection::vec(prop::collection::vec(0u64..40, 4..5), 2..7),
        cpm in 10_000u64..200_000,
    ) {
        let mut csv = String::from("function,duration_p50_ms,memory_p50_mb,m0,m1,m2,m3\n");
        for (i, row) in counts.iter().enumerate() {
            csv.push_str(&format!("fn-{i},{}.5,64", i + 1));
            for c in row {
                csv.push_str(&format!(",{c}"));
            }
            csv.push('\n');
        }
        let trace = AzureTrace::parse(&csv).expect("generated CSV must parse");
        let total = trace.total_invocations();
        let suite = Suite::paper_suite_scaled(0.02);
        let mut source = AzureSource::new(trace, &suite, cpm);
        let materialized = Trace::from_source(&mut source);
        prop_assert_eq!(materialized.arrivals.len() as u64, total);
        let parsed = Trace::parse(&materialized.to_text()).expect("round-trip parse");
        prop_assert_eq!(parsed.arrivals, materialized.arrivals);
    }
}

/// A million-invocation MMPP run streams through the simulator without
/// materializing the trace. Ignored by default (tens of seconds in
/// release); CI runs a 100k-invocation variant through the binary.
///
/// ```text
/// cargo test --release -p ignite-harness --test traffic -- --ignored
/// ```
#[test]
#[ignore = "long: ~25G simulated instructions; run with --ignored in release"]
fn million_invocation_mmpp_run_streams() {
    let mut cfg = golden_cfg(MMPP_SPEC);
    // Default MMPP (1x/6x, dwells 300k/60k) averages ~1.83x the base
    // rate of 60/Mcycle => ~110 invocations per Mcycle, so 10G cycles
    // comfortably clears a million arrivals.
    cfg.arrival.horizon_cycles = 10_000_000_000;
    let outcome = run(&cfg, &mut *golden_source(&cfg, MMPP_SPEC));
    assert!(
        outcome.workload.arrivals >= 1_000_000,
        "expected a million arrivals, got {}",
        outcome.workload.arrivals
    );
    let report = ClusterReport::new(cfg, outcome).to_json();
    ClusterReport::validate(&report).expect("million-invocation report must validate");
}
