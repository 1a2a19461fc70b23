//! Cluster-layer integration gates: golden report fingerprint, cross-
//! process determinism, capacity-sweep monotonicity and exactness, the
//! `cluster` binary's sweep output, trace replay equivalence, and the
//! validator's cross-row checks.
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

/// Inputs the binary once accepted but could not finish: a suite scale
/// past the paper's aborted allocating the suite, a peak arrival rate
/// far past one per cycle underflowed the inter-arrival gap, so the
/// arrival clock never reached the horizon, a topology with more
/// machines than memory holds aborted allocating them, and a retry
/// backoff near `u64::MAX` overflowed adding its jitter (or, without
/// overflow checks, moved the clock so far that generating the chaos
/// schedule never finished). Each must exit 1 promptly, naming the
/// field; a run still going after a minute fails the test instead of
/// hanging it.
#[test]
fn cluster_binary_rejects_oversized_scale_and_arrival_rates() {
    use std::time::{Duration, Instant};
    const HUGE_BACKOFF: &str = "base=18446744073709551615,max=18446744073709551615";
    const HUGE_CEILING: &str = "max=18446744073709551615";
    let cases: [(&[&str], &str); 7] = [
        (&["--scale", "1e9"], "scale"),
        (&["--rate", "1e300"], "rate_per_mcycle"),
        (&["--traffic", "mmpp:mults=1/1e300,dwells=300000/60000"], "traffic"),
        (&["--nodes", "100000", "--cores", "100000"], "topology.nodes * cores"),
        (&["--nodes", "4294967296", "--cores", "4294967296"], "topology.nodes * cores"),
        (&["--chaos", "default", "--retry", HUGE_BACKOFF], "retry.backoff_base_cycles"),
        (&["--chaos", "default", "--retry", HUGE_CEILING], "retry.backoff_max_cycles"),
    ];
    for (args, field) in cases {
        let label = args.join(" ");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
            .args(args)
            .args(["--horizon", "200000"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cluster binary");
        let start = Instant::now();
        while child.try_wait().expect("poll cluster binary").is_none() {
            if start.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
                panic!("{label}: still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect cluster binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
        assert!(stderr.contains(&format!("invalid configuration: {field}")), "{label}: {stderr}");
    }
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

/// The binary's sweep table reproduces `tests/golden/sweep.txt` at one
/// and two jobs: an unsorted list with a repeated point, straddling the
/// unbounded peak of 13011 bytes (13011 reuses the unbounded outcome,
/// 13010 is simulated). [`sweep_matches_direct_runs_at_every_capacity`]
/// checks that the reuse is exact. To update after an intentional change:
/// `IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster`.
#[test]
fn sweep_output_matches_the_committed_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweep.txt");
    let capacities = "262144,2048,13011,16384,13010,2048";
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, sweep_stdout(capacities, "1")).expect("write sweep golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read tests/golden/sweep.txt");
    for jobs in ["1", "2"] {
        assert_eq!(
            sweep_stdout(capacities, jobs),
            committed,
            "--jobs {jobs} sweep table diverged from the committed golden"
        );
    }
}

/// A sweep that lists a point twice runs it twice, and its exposition
/// holds that point once: every sample is set, not added to, so the
/// repeat writes the bytes a single point writes.
#[test]
fn a_repeated_sweep_point_is_exposed_once() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let exposition = |capacities: &str| {
        let path = dir.join(format!("sweep-{capacities}.prom"));
        let path = path.to_str().expect("utf-8 temp path");
        let args = ["--horizon", "600000", "--sweep", capacities, "--metrics-out", path];
        let out = cluster_binary(&args);
        assert!(out.status.success(), "{capacities}: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(path).expect("read the exposition")
    };
    let once = exposition("2048");
    assert!(once.contains("ignite_cluster_totals_invocations{store_capacity=\"2048\"} "));
    assert_eq!(exposition("2048,2048"), once);
}

/// A sweep regenerates the built-in arrival process at every point, so
/// the binary must refuse a replayed trace instead of silently ignoring
/// it.
#[test]
fn cluster_binary_rejects_trace_with_sweep() {
    let arrival = ignite_workloads::arrival::ArrivalConfig {
        horizon_cycles: 200_000,
        functions: 20,
        ..Default::default()
    };
    let trace = Trace::from_source(&mut arrival.source());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_with_sweep.trace");
    std::fs::write(&path, trace.to_text()).expect("write trace file");
    let path = path.to_str().expect("utf-8 temp path");
    let out = cluster_binary(&["--trace", path, "--horizon", "600000", "--sweep", "2048,8192"]);
    assert_eq!(out.status.code(), Some(1), "--trace with --sweep must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "the refusal must name --trace: {stderr}");
    assert!(out.stdout.is_empty(), "no sweep table may be printed");
}

/// Each sweep worker is an OS thread simulating a whole cluster, and the
/// fan-out panics when the OS refuses a thread, so the binary refuses a
/// worker count above `MAX_JOBS` (256) before anything runs, naming the
/// flag. The cap itself is accepted. (A two-point sweep starts at most
/// two threads whatever the count asked for.)
#[test]
fn cluster_binary_caps_sweep_jobs() {
    let out = cluster_binary(&["--sweep", "4096,8192", "--jobs", "100000", "--horizon", "100000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--jobs 100000: {stderr}");
    assert!(stderr.contains("--jobs must be at most 256"), "{stderr}");
    assert!(out.stdout.is_empty(), "--jobs 100000: no sweep table may be printed");
    let out = cluster_binary(&["--sweep", "4096,8192", "--jobs", "256", "--horizon", "100000"]);
    assert!(out.status.success(), "--jobs 256: {}", String::from_utf8_lossy(&out.stderr));
}

/// An argument that is not UTF-8 is a usage error naming its position
/// (exit 2, then the usage text), not a panic in the argument reader.
#[cfg(unix)]
#[test]
fn cluster_binary_refuses_a_non_utf8_argument() {
    use std::os::unix::ffi::OsStrExt;
    let args = [std::ffi::OsStr::new("--stats"), std::ffi::OsStr::from_bytes(b"\xff")];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(args)
        .output()
        .expect("spawn cluster binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let refusal = "cluster: argument 2 is not valid UTF-8: \"\\xFF\"\nusage: cluster ";
    assert!(stderr.starts_with(refusal), "{stderr}");
    assert!(out.stdout.is_empty());
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
    let trace = Trace::from_source(&mut arrival.source());
    let text = trace.to_text();
    let parsed = Trace::parse(&text).expect("round-trip parse");
    let replayed =
        sim.run_source_policy_obs(&mut TraceSource::new(&parsed), &mut NullSink, &mut StaticPolicy);
    let a = ClusterReport::new(cfg.clone(), direct).to_json();
    let b = ClusterReport::new(cfg, replayed).to_json();
    assert_eq!(a, b, "trace replay must reproduce the direct run");
}

/// Copies of the committed golden whose rows disagree with its totals
/// fail validation, with the key named: the totals' invocations raised
/// by one, core 0's invocations raised by one, and the totals' p50
/// raised above its p95.
#[test]
fn validation_rejects_rows_that_disagree_with_the_totals() {
    let golden = std::fs::read_to_string(golden_path()).expect("read tests/golden/cluster.json");
    ClusterReport::validate(&golden).expect("the committed golden validates");
    let out = ClusterReport::from_json(&golden).expect("the golden reads back").outcome;
    let (n, p50, p95, core0) =
        (out.invocations, out.p50_latency, out.p95_latency, out.cores[0].invocations);
    let cases = [
        (format!("\"invocations\": {n},"), format!("\"invocations\": {},", n + 1), "invocations"),
        (
            format!("{{\"core\": 0, \"invocations\": {core0},"),
            format!("{{\"core\": 0, \"invocations\": {},", core0 + 1),
            "cores[].invocations",
        ),
        (
            format!("\"p50_latency_cycles\": {p50},"),
            format!("\"p50_latency_cycles\": {},", p95 + 1),
            "p50_latency_cycles",
        ),
    ];
    for (from, to, key) in cases {
        // The first match is in the totals row, which precedes the others.
        let bad = golden.replacen(&from, &to, 1);
        assert_ne!(bad, golden, "the golden has no {from}");
        let err = ClusterReport::validate(&bad).expect_err(&to);
        assert!(err.contains(key), "{to}: {err}");
    }
}

/// `text` with the number after the first `"key": ` replaced by
/// `to(number)`.
fn edit_first(text: &str, key: &str, to: impl Fn(&str) -> String) -> String {
    let at = text.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let end = at + text[at..].find([',', '\n']).expect("a delimiter");
    format!("{}{}{}", &text[..at], to(&text[at..end]), &text[end..])
}

/// Copies of the committed goldens that edit one value the report
/// derives from others fail validation, naming the value's path: each
/// still keeps every invariant among the values it stores, so only
/// writing the report back from what was read catches it.
#[test]
fn derived_values_that_disagree_with_their_counts_are_rejected() {
    let read = |file: &str| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(file);
        std::fs::read_to_string(path).expect("a committed golden")
    };
    // Each edit sets a value, or with `None` raises a count by one.
    let edits = [
        ("cluster.json", "hit_rate", "report.store.hit_rate", Some("0.5")),
        (
            "cluster.json",
            "metadata_hit_rate",
            "report.functions[0].metadata_hit_rate",
            Some("0.123"),
        ),
        ("cluster.json", "mean_utilization", "report.totals.mean_utilization", Some("0.9")),
        ("cluster.json", "entries_restored", "report.replay.entries_restored", None),
        (
            "multinode.json",
            "wasted_keepalive_cycles",
            "report.totals.wasted_keepalive_cycles",
            None,
        ),
        ("multinode.json", "hit_rate", "report.nodes[0].store.hit_rate", Some("0.01")),
        ("multinode.json", "slowdown", "report.functions[0].slowdown", Some("7.5")),
    ];
    for (file, key, path, value) in edits {
        let golden = read(file);
        ClusterReport::validate(&golden).expect("the committed golden validates");
        let bad = edit_first(&golden, key, |n| {
            value.map_or_else(|| (n.parse::<u64>().expect("a count") + 1).to_string(), String::from)
        });
        assert_ne!(bad, golden, "{file}: {path} already has the edited value");
        let err = ClusterReport::validate(&bad).expect_err(path);
        assert!(err.starts_with(&format!("{path}: expected ")), "{file}: {err}");
    }
}

/// A report integer past 2^53 reads back into its type exactly: a copy
/// of the committed golden whose horizon is edited to
/// 18446744073709551000, a value an `f64` cannot hold, reads back as that
/// value and writes back byte for byte.
#[test]
fn a_report_integer_past_2_pow_53_reads_back_exactly() {
    let golden = std::fs::read_to_string(golden_path()).expect("read tests/golden/cluster.json");
    let edited = edit_first(&golden, "horizon_cycles", |_| "18446744073709551000".into());
    let report = ClusterReport::from_json(&edited).expect("the edited golden reads back");
    assert_eq!(report.config.arrival.horizon_cycles, 18_446_744_073_709_551_000);
    assert_eq!(report.to_json(), edited);
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
