//! Observability integration gates: DES-transition trace coverage,
//! cross-process metrics byte-determinism, the zero-perturbation
//! guarantee (an enabled sink must not change simulation results), and
//! the pinned event stream of every committed golden configuration.
//!
//! The report goldens do not fix event order, so
//! `tests/golden/event_digests.txt` pins it: one `name events fnv64`
//! line per golden configuration, the digest being FNV-1a over
//! `format!("{event:?}\n")` of every event in emission order. To update
//! after an intentional change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test obs
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    metrics_for, validate_trace, ClusterConfig, ClusterReport, ClusterSim, KeepAliveKind,
    PolicyHook, SchedulerKind, StaticPolicy, Topology,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_obs::{to_chrome_json, ChromeOptions, TraceBuffer};
use ignite_traffic::TrafficSpec;
use ignite_workloads::arrival::ArrivalSource;
use ignite_workloads::Suite;

/// Same pinned configuration as the cluster golden tests: long enough
/// that the store sees hits, misses and evictions, small enough for CI.
fn obs_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

fn traced_run() -> (ClusterConfig, ignite_cluster::ClusterOutcome, TraceBuffer) {
    let cfg = obs_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let mut buf = TraceBuffer::new(1 << 20);
    let outcome = sim.run_source_policy_obs(&mut cfg.arrival.source(), &mut buf, &mut StaticPolicy);
    (cfg, outcome, buf)
}

/// The exported trace passes the validator and contains at least one
/// event for every DES transition type the simulator can take under the
/// pinned configuration (arrival, dispatch, context switch, invocation
/// span, completion) plus store hits/misses/evictions and Ignite
/// record/replay episodes with Top-Down phase attribution.
#[test]
fn cluster_trace_covers_every_des_transition() {
    let (_, outcome, buf) = traced_run();
    let names: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    let text = to_chrome_json(
        &buf,
        &ChromeOptions { process_name: "ignite-cluster", function_names: &names },
    );
    let summary = validate_trace(&text).expect("trace must pass the validator");
    assert_eq!(summary.dropped_events, 0, "buffer must hold the whole run");
    for required in [
        "arrival",
        "dispatch",
        "context-switch",
        "complete",
        "store-hit",
        "store-miss",
        "store-evict",
        "record-begin",
        "record-end",
        "replay-begin",
        "replay-end",
    ] {
        assert!(
            summary.events_by_name.get(required).copied().unwrap_or(0) > 0,
            "no '{required}' events in trace; have {:?}",
            summary.events_by_name
        );
    }
    // Invocation spans are named after the function; check by category.
    for category in ["invocation", "topdown"] {
        assert!(
            summary.events_by_category.get(category).copied().unwrap_or(0) > 0,
            "no '{category}' spans in trace; have {:?}",
            summary.events_by_category
        );
    }
    assert_eq!(
        summary.events_by_name.get("arrival").copied().unwrap_or(0),
        outcome.invocations,
        "one arrival event per served invocation"
    );
}

/// Observation is read-only: running with a live sink yields the exact
/// same outcome (and report bytes) as running without one.
#[test]
fn enabled_sink_does_not_perturb_results() {
    let (cfg, observed, _) = traced_run();
    let plain = ClusterSim::new(cfg.clone()).run();
    assert_eq!(plain, observed, "sink must not change the simulation");
    let a = ClusterReport::new(cfg.clone(), plain).to_json();
    let b = ClusterReport::new(cfg, observed).to_json();
    assert_eq!(a, b);
}

/// Cross-process byte-determinism of the metrics exposition: a fresh
/// process (fresh ASLR, allocator state, hash seeds) reproduces the same
/// metrics text. The child re-runs this test binary with
/// `IGNITE_OBS_CHILD=1`, which makes [`obs_child_emits_metrics`] print
/// the pinned-config exposition; two spawns must print identical output.
#[test]
fn metrics_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["obs_child_emits_metrics", "--exact", "--nocapture"])
            .env("IGNITE_OBS_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IGNITE_OBS ")).collect();
        assert!(!lines.is_empty(), "child printed no metrics lines:\n{stdout}");
        lines.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different metrics text");
}

/// Helper for [`metrics_identical_across_processes`]: prints the
/// pinned-config metrics exposition (one tagged line per metrics line)
/// when spawned with `IGNITE_OBS_CHILD=1`, does nothing in a normal run.
#[test]
fn obs_child_emits_metrics() {
    if std::env::var_os("IGNITE_OBS_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    let cfg = obs_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    for line in metrics_for(&cfg, &outcome).expose().lines() {
        println!("IGNITE_OBS {line}");
    }
}

/// The Chrome export itself is byte-deterministic for the same run.
#[test]
fn trace_export_is_deterministic() {
    let (_, _, buf_a) = traced_run();
    let (_, _, buf_b) = traced_run();
    let opts = ChromeOptions { process_name: "ignite-cluster", function_names: &[] };
    assert_eq!(to_chrome_json(&buf_a, &opts), to_chrome_json(&buf_b, &opts));
}

/// The MMPP spec of the traffic and control goldens.
const MMPP_SPEC: &str = "mmpp:mults=1/6,dwells=300000/60000";

/// The control golden's controller spec.
const CONTROL_SPEC: &str = "epoch=50000,slo=600000,min-samples=4,probe=4,min-cores=1";

/// Runs `cfg` over `source` under `policy` into a buffer that holds the
/// whole run and returns its `name events fnv64` digest line.
fn digest_line<P: PolicyHook>(
    name: &str,
    cfg: &ClusterConfig,
    source: &mut dyn ArrivalSource,
    policy: &mut P,
) -> String {
    let mut buf = TraceBuffer::new(1 << 22);
    ClusterSim::new(cfg.clone()).run_source_policy_obs(source, &mut buf, policy);
    assert_eq!(buf.dropped(), 0, "{name}: buffer must hold the whole run");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for e in buf.iter() {
        for b in format!("{e:?}\n").bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{name} {} {hash:016x}\n", buf.len())
}

fn mmpp_source(cfg: &ClusterConfig) -> Box<dyn ArrivalSource> {
    TrafficSpec::parse(MMPP_SPEC)
        .expect("golden spec must parse")
        .build(&cfg.arrival, &Suite::paper_suite_scaled(cfg.scale))
        .expect("golden spec must build")
}

/// The full event stream of every committed golden configuration —
/// cluster, chaos, multinode, control (with its controller) and
/// traffic_mmpp — is pinned: same events, same order, same payloads.
#[test]
fn golden_event_streams_match() {
    let cluster = obs_cfg();
    let chaos = ClusterConfig { chaos: Some(ChaosPlan::default_preset().seeded(7)), ..obs_cfg() };
    let multinode = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 3,
            scheduler: SchedulerKind::Affinity,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        ..obs_cfg()
    };
    let mut control = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 2,
            scheduler: SchedulerKind::Fifo,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        traffic: Some(MMPP_SPEC.to_string()),
        controller: Some(CONTROL_SPEC.to_string()),
        ..ClusterConfig::default()
    };
    control.arrival.horizon_cycles = 1_500_000;
    control.store.capacity_bytes = 4 * 1024;
    let mmpp = ClusterConfig { traffic: Some(MMPP_SPEC.to_string()), ..obs_cfg() };

    let mut current = String::new();
    for (name, cfg) in [("cluster", &cluster), ("chaos", &chaos), ("multinode", &multinode)] {
        current += &digest_line(name, cfg, &mut cfg.arrival.source(), &mut StaticPolicy);
    }
    let mut controller =
        Controller::new(ControllerSpec::parse(CONTROL_SPEC).expect("golden spec must parse"));
    current += &digest_line("control", &control, &mut *mmpp_source(&control), &mut controller);
    current += &digest_line("traffic_mmpp", &mmpp, &mut *mmpp_source(&mmpp), &mut StaticPolicy);

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/event_digests.txt");
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &current).expect("write event digests");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read the committed event digests");
    assert_eq!(
        committed, current,
        "event stream changed; if intentional, re-bless with \
         IGNITE_BLESS=1 cargo test -p ignite-harness --test obs"
    );
}
