//! Cluster-layer integration gates: golden report fingerprint, cross-
//! process determinism, capacity-sweep monotonicity and exactness, the
//! `cluster` binary's sweep output, and trace replay equivalence.
//!
//! The golden snapshot is the full `ignite-cluster-v1` JSON report of a
//! fixed small configuration, byte-compared against
//! `tests/golden/cluster.json`. To update after an intentional semantic
//! change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    sweep_capacities, ClusterConfig, ClusterReport, ClusterSim, KeepAliveKind, SchedulerKind,
    StaticPolicy, Topology,
};
use ignite_obs::NullSink;
use ignite_workloads::arrival::{Trace, TraceSource};

/// The pinned golden configuration: 4 cores, the full 20-function suite,
/// Zipf(1.0) Poisson arrivals, a bounded LRU store. Small enough for CI,
/// long enough that recurrences hit the store and eviction engages.
fn golden_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cluster.json")
}

fn golden_report() -> String {
    let cfg = golden_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    ClusterReport::new(cfg, outcome).to_json()
}

#[test]
fn golden_cluster_report_matches() {
    let current = golden_report();
    ClusterReport::validate(&current).expect("golden report must self-validate");
    let path = golden_path();
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster",
            path.display()
        )
    });
    if committed != current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "cluster golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nCluster semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster",
                    i + 1
                );
            }
        }
        panic!(
            "cluster golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

/// Cross-process determinism: a fresh process (fresh ASLR, allocator
/// state, hash seeds) reproduces the same report bytes. The child re-runs
/// this test binary with `IGNITE_CLUSTER_CHILD=1`, which makes
/// [`cluster_child_emits_report`] print the golden-config report; two
/// spawns must print identical output.
#[test]
fn cluster_report_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["cluster_child_emits_report", "--exact", "--nocapture"])
            .env("IGNITE_CLUSTER_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let report: Vec<&str> =
            stdout.lines().filter(|l| l.starts_with("IGNITE_CLUSTER ")).collect();
        assert!(!report.is_empty(), "child printed no report lines:\n{stdout}");
        report.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different cluster reports");
}

/// Helper for [`cluster_report_identical_across_processes`]: prints the
/// golden-config report (one tagged line per JSON line) when spawned with
/// `IGNITE_CLUSTER_CHILD=1`, does nothing in a normal test run.
#[test]
fn cluster_child_emits_report() {
    if std::env::var_os("IGNITE_CLUSTER_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    for line in golden_report().lines() {
        println!("IGNITE_CLUSTER {line}");
    }
}

/// Shrinking the metadata store can only hurt: hit rate falls
/// monotonically and lukewarm latency rises, because evicted metadata
/// turns restored front-end state back into cold misses.
#[test]
fn capacity_sweep_degrades_gracefully() {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 1_000_000;
    let capacities = [2 * 1024, 16 * 1024, 256 * 1024];
    let outcomes: Vec<_> = sweep_capacities(&cfg, &capacities, 3)
        .into_iter()
        .map(|r| r.expect("sweep point must not panic"))
        .collect();
    for pair in outcomes.windows(2) {
        assert!(
            pair[0].store.hit_rate() <= pair[1].store.hit_rate() + 1e-12,
            "hit rate must not fall as capacity grows: {} -> {}",
            pair[0].store.hit_rate(),
            pair[1].store.hit_rate()
        );
        assert!(
            pair[0].peak_footprint_bytes <= pair[1].peak_footprint_bytes,
            "peak footprint must not fall as capacity grows"
        );
    }
    let tight = &outcomes[0];
    let roomy = &outcomes[outcomes.len() - 1];
    assert!(
        tight.store.hit_rate() < roomy.store.hit_rate(),
        "the sweep must actually exercise eviction ({} vs {})",
        tight.store.hit_rate(),
        roomy.store.hit_rate()
    );
    assert!(
        tight.mean_latency > roomy.mean_latency,
        "losing metadata must cost latency: tight {} <= roomy {}",
        tight.mean_latency,
        roomy.mean_latency
    );
}

/// `cfg` with its store capacity set to `capacity`.
fn at_capacity(cfg: &ClusterConfig, capacity: usize) -> ClusterConfig {
    let mut point = cfg.clone();
    point.store.capacity_bytes = capacity;
    point
}

/// The sweep's unbounded-store short-circuit is exact: every point equals
/// a direct run at its capacity, at any thread count, whether the sweep
/// simulated it or reused the unbounded outcome. Direct runs never take
/// the short-circuit, so they are an oracle independent of it. The
/// unsorted capacity list repeats one value and straddles the boundary:
/// the unbounded peak `P` itself (reused) and `P - 1` (simulated, and it
/// must evict).
#[test]
fn sweep_matches_direct_runs_at_every_capacity() {
    let mut plain = ClusterConfig::default();
    plain.arrival.horizon_cycles = 600_000;
    let chaos =
        ClusterConfig { chaos: Some(ChaosPlan::default_preset().seeded(7)), ..plain.clone() };
    let multinode = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 3,
            scheduler: SchedulerKind::Affinity,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        ..plain.clone()
    };
    for (name, cfg) in [("plain", plain), ("chaos", chaos), ("multinode", multinode)] {
        let unbounded = ClusterSim::new(at_capacity(&cfg, 1 << 20)).run();
        assert_eq!(
            unbounded.store.evictions + unbounded.store.rejected,
            0,
            "{name}: not unbounded"
        );
        let peak = unbounded.nodes.iter().map(|n| n.peak_footprint_bytes).max().expect("a node");
        let capacities = [peak - 1, 1 << 20, 2048, peak, 1 << 18, peak - 1];
        let direct: Vec<_> =
            capacities.iter().map(|&c| ClusterSim::new(at_capacity(&cfg, c)).run()).collect();
        assert_eq!(direct[3], unbounded, "{name}: the peak itself must not evict");
        assert!(direct[0].store.evictions > 0, "{name}: one byte under the peak must evict");
        for threads in [1, 2] {
            let swept: Vec<_> = sweep_capacities(&cfg, &capacities, threads)
                .into_iter()
                .map(|r| r.expect("sweep point must not panic"))
                .collect();
            assert!(swept == direct, "{name}: --jobs {threads} sweep diverged from direct runs");
        }
    }
}

/// Spawns the cluster binary with `args`.
fn cluster_binary(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(args)
        .output()
        .expect("spawn cluster binary")
}

/// Spawns the cluster binary on a capacity sweep and returns stdout.
fn sweep_stdout(capacities: &str, jobs: &str) -> String {
    let out = cluster_binary(&["--horizon", "600000", "--sweep", capacities, "--jobs", jobs]);
    assert!(
        out.status.success(),
        "cluster --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 sweep output")
}

/// Cross-process `--jobs` pinning: the panic-isolated fanout must merge
/// sweep points in index order, so a 4-worker sweep prints the same
/// bytes as a serial one.
#[test]
fn sweep_output_is_byte_identical_across_job_counts() {
    assert_eq!(
        sweep_stdout("2048,8192,65536", "1"),
        sweep_stdout("2048,8192,65536", "4"),
        "--jobs 4 sweep output diverged from --jobs 1"
    );
}

/// The binary's sweep table reproduces `tests/golden/sweep.txt`, which was
/// generated before sweeps reused the unbounded outcome: an unsorted list
/// with a repeated point, straddling the unbounded peak of 13011 bytes.
#[test]
fn sweep_output_matches_the_committed_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweep.txt");
    let committed = std::fs::read_to_string(&path).expect("read tests/golden/sweep.txt");
    for jobs in ["1", "2"] {
        assert_eq!(
            sweep_stdout("262144,2048,13011,16384,13010,2048", jobs),
            committed,
            "--jobs {jobs} sweep table diverged from the committed golden"
        );
    }
}

/// A sweep regenerates the built-in arrival process at every point, so
/// the binary must refuse a replayed trace instead of silently ignoring
/// it.
#[test]
fn cluster_binary_rejects_trace_with_sweep() {
    let trace = ignite_workloads::arrival::ArrivalConfig {
        horizon_cycles: 200_000,
        functions: 20,
        ..Default::default()
    }
    .generate();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_with_sweep.trace");
    std::fs::write(&path, trace.to_text()).expect("write trace file");
    let path = path.to_str().expect("utf-8 temp path");
    let out = cluster_binary(&["--trace", path, "--horizon", "600000", "--sweep", "2048,8192"]);
    assert_eq!(out.status.code(), Some(1), "--trace with --sweep must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "the refusal must name --trace: {stderr}");
    assert!(out.stdout.is_empty(), "no sweep table may be printed");
}

/// The trace text format is a faithful transport: emitting the generated
/// trace, parsing it back, and serving it reproduces the direct run
/// byte-for-byte (the cluster binary's `--emit-trace`/`--trace` path).
#[test]
fn replayed_trace_reproduces_direct_run() {
    let cfg = golden_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let direct = sim.run();
    let mut arrival = cfg.arrival;
    arrival.functions = direct.functions.len();
    let trace = arrival.generate();
    let text = trace.to_text();
    let parsed = Trace::parse(&text).expect("round-trip parse");
    let replayed =
        sim.run_source_policy_obs(&mut TraceSource::new(&parsed), &mut NullSink, &mut StaticPolicy);
    let a = ClusterReport::new(cfg.clone(), direct).to_json();
    let b = ClusterReport::new(cfg, replayed).to_json();
    assert_eq!(a, b, "trace replay must reproduce the direct run");
}

/// Tampered reports fail validation (the schema gate the CI smoke job
/// relies on).
#[test]
fn validation_rejects_tampered_reports() {
    let good = golden_report();
    ClusterReport::validate(&good).expect("pristine report validates");
    let wrong_schema = good.replace("ignite-cluster-v1", "ignite-cluster-v0");
    assert!(ClusterReport::validate(&wrong_schema).is_err(), "schema tag must be checked");
    let missing = good.replace("\"makespan_cycles\"", "\"makespan_cyc\"");
    assert!(ClusterReport::validate(&missing).is_err(), "missing fields must be caught");
    assert!(ClusterReport::validate("{}").is_err(), "empty object must be rejected");
}
