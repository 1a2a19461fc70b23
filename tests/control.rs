//! Control-plane integration gates: an enabled policy that keeps every
//! static default must reproduce the committed cluster, chaos and
//! multinode goldens byte for byte (the zero-cost-when-off contract,
//! checked from the enabled side), the controller-on report of the
//! bursty MMPP configuration is pinned as its own golden snapshot, the
//! decision audit trail must stay internally consistent
//! (per-rule fire counters == decision-log counts), and the `cluster`
//! binary must reproduce the golden byte-for-byte cross-process.
//!
//! The golden snapshot is the full JSON report of the control golden
//! configuration (2 nodes x 2 cores, hybrid keep-alive, 4 KiB store,
//! MMPP traffic) run under [`CONTROL_SPEC`]. To update after an
//! intentional change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test control
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    ClusterConfig, ClusterOutcome, ClusterReport, ClusterSim, KeepAliveKind, PolicyHook,
    SchedulerKind, Topology,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_obs::{CtrlRule, EventKind, NullSink, TraceBuffer};
use ignite_traffic::TrafficSpec;
use ignite_workloads::arrival::ArrivalSource;
use ignite_workloads::Suite;

/// The MMPP spec shared with the traffic golden.
const MMPP_SPEC: &str = "mmpp:mults=1/6,dwells=300000/60000";

/// The control golden's spec: short epochs against a 600k-cycle SLO so
/// the burst phases of the MMPP trace drive core scaling, a low sample
/// floor so replay attribution accrues evidence quickly, and a 4-epoch
/// probe so disabled replay is re-tried within the horizon.
const CONTROL_SPEC: &str = "epoch=50000,slo=600000,min-samples=4,probe=4,min-cores=1";

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// The cluster golden envelope: 800k-cycle horizon, 8 KiB store.
fn cluster_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

/// The chaos golden configuration (default preset, seed 7).
fn chaos_cfg() -> ClusterConfig {
    let mut cfg = cluster_cfg();
    cfg.chaos = Some(ChaosPlan::default_preset().seeded(7));
    cfg
}

/// The multi-node golden configuration: 3 nodes of 2 cores, affinity
/// routing, hybrid keep-alive.
fn multinode_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 3,
            scheduler: SchedulerKind::Affinity,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        ..ClusterConfig::default()
    };
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

/// The control golden configuration: a bursty MMPP workload over 2
/// small nodes with hybrid keep-alive and a tight store, so every
/// actuation axis sees pressure within the horizon.
fn control_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        cores: 2,
        topology: Topology {
            nodes: 2,
            scheduler: SchedulerKind::Fifo,
            keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
        },
        ..ClusterConfig::default()
    };
    cfg.arrival.horizon_cycles = 1_500_000;
    cfg.store.capacity_bytes = 4 * 1024;
    cfg.traffic = Some(MMPP_SPEC.to_string());
    cfg.controller = Some(CONTROL_SPEC.to_string());
    cfg
}

/// Builds the MMPP source the binary would build for `cfg`.
fn mmpp_source(cfg: &ClusterConfig) -> Box<dyn ArrivalSource> {
    let suite = Suite::paper_suite_scaled(cfg.scale);
    TrafficSpec::parse(MMPP_SPEC)
        .expect("golden spec must parse")
        .build(&cfg.arrival, &suite)
        .expect("golden spec must build")
}

/// Runs the control golden configuration under a fresh controller.
fn control_outcome(cfg: &ClusterConfig) -> ClusterOutcome {
    let sim = ClusterSim::new(cfg.clone());
    let mut controller =
        Controller::new(ControllerSpec::parse(CONTROL_SPEC).expect("golden spec must parse"));
    let mut source = mmpp_source(cfg);
    sim.run_source_policy_obs(&mut *source, &mut NullSink, &mut controller)
}

/// A policy that is switched on but keeps every hook's static default:
/// every `enabled()`-guarded site in the simulator runs, and none of
/// them may change a thing.
struct EnabledDefaults;

impl PolicyHook for EnabledDefaults {
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost-when-off contract, checked from the enabled side: an
/// enabled policy that keeps every static default must reproduce the
/// committed golden reports byte for byte.
#[test]
fn static_policy_is_transparent_on_the_goldens() {
    for (name, cfg) in
        [("cluster", cluster_cfg()), ("chaos", chaos_cfg()), ("multinode", multinode_cfg())]
    {
        let mut source = cfg.arrival.source();
        let outcome = ClusterSim::new(cfg.clone()).run_source_policy_obs(
            &mut source,
            &mut NullSink,
            &mut EnabledDefaults,
        );
        assert!(outcome.controller.is_none(), "{name}: a policy without stats attached some");
        let report = ClusterReport::new(cfg, outcome).to_json();
        let golden = std::fs::read_to_string(repo_path(&format!("tests/golden/{name}.json")))
            .expect("read committed golden");
        assert!(report == golden, "{name}: an enabled default policy diverged from the golden");
    }
}

/// Controller-off reports must not mention the controller at all —
/// rule-absence is encoded as zero counters *inside* a controller
/// section, never by an empty section on a plain run.
#[test]
fn plain_reports_carry_no_controller_section() {
    let cfg = cluster_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    let text = ClusterReport::new(cfg, outcome).to_json();
    assert!(!text.contains("\"controller\""), "plain report leaked a controller key");
}

/// The controller must be deterministic: two fresh controllers over two
/// fresh sources produce identical outcomes, decisions included.
#[test]
fn controller_runs_are_deterministic() {
    let cfg = control_cfg();
    let a = control_outcome(&cfg);
    let b = control_outcome(&cfg);
    assert_eq!(a, b, "same config + same spec must reproduce the same decisions");
    let stats = a.controller.expect("controller run must carry stats");
    assert!(stats.epochs > 0, "horizon must cross epoch boundaries");
    assert!(!stats.decisions.is_empty(), "golden config must actuate decisions");
}

/// The audit trail is the source of truth: per-rule fire counters must
/// equal the decision-log counts, and the golden config must exercise
/// core scaling, store admission and keep-alive retuning (store_loosen
/// needs a capacity upswing the tight golden store never sees; it is
/// pinned by the unit tests in `ignite-control`).
#[test]
fn golden_config_exercises_the_rule_families() {
    let outcome = control_outcome(&control_cfg());
    let stats = outcome.controller.expect("controller run must carry stats");
    for rule in CtrlRule::ALL {
        let logged = stats.decisions.iter().filter(|d| d.rule == rule).count() as u64;
        assert_eq!(stats.fires(rule), logged, "{}: counter != decision log", rule.name());
    }
    for rule in [
        CtrlRule::ReplayOff,
        CtrlRule::ReplayOn,
        CtrlRule::StoreTighten,
        CtrlRule::CoresUp,
        CtrlRule::CoresDown,
        CtrlRule::KeepAliveRetune,
    ] {
        assert!(stats.fires(rule) > 0, "golden config never fired {}", rule.name());
    }
}

/// With a trace sink attached, every logged decision must also appear
/// as a cause-linked event on the controller track.
#[test]
fn decisions_land_on_the_controller_track() {
    let cfg = control_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let mut controller =
        Controller::new(ControllerSpec::parse(CONTROL_SPEC).expect("golden spec must parse"));
    let mut buf = TraceBuffer::new(1 << 18);
    let mut source = mmpp_source(&cfg);
    let outcome = sim.run_source_policy_obs(&mut *source, &mut buf, &mut controller);
    let stats = outcome.controller.expect("controller run must carry stats");
    let traced: Vec<&ignite_obs::Event> =
        buf.iter().filter(|e| matches!(e.kind, EventKind::Decision { .. })).collect();
    assert_eq!(traced.len(), stats.decisions.len(), "trace and audit log disagree");
    for (ev, d) in traced.iter().zip(stats.decisions.iter()) {
        assert_eq!(ev.ts, d.at, "decision event timestamp != audit entry");
        let EventKind::Decision { rule, epoch, function, value, observed, threshold } = ev.kind
        else {
            unreachable!("filtered to decisions");
        };
        assert_eq!(
            (rule, epoch, function, value, observed, threshold),
            (d.rule, d.epoch, d.function, d.value, d.observed, d.threshold),
            "decision event payload != audit entry"
        );
    }
}

/// The controller-on report of the golden configuration, as emitted by
/// `cluster --nodes 2 --cores 2 --keepalive hybrid --capacity 4096
/// --horizon 1500000 --traffic mmpp:... --controller ...`.
fn control_golden_report() -> String {
    let cfg = control_cfg();
    let outcome = control_outcome(&cfg);
    ClusterReport::new(cfg, outcome).to_json()
}

#[test]
fn golden_control_report_matches() {
    let current = control_golden_report();
    ClusterReport::validate(&current).expect("golden control report must self-validate");
    assert!(current.contains("\"controller\""), "control report must carry the section");
    let path = repo_path("tests/golden/control.json");
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test control",
            path.display()
        )
    });
    if committed != current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "control golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nController semantics changed. If intentional, \
                     re-bless with IGNITE_BLESS=1 cargo test -p ignite-harness --test control",
                    i + 1
                );
            }
        }
        panic!(
            "control golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

/// Cross-process pinning: the `cluster` binary with the golden flags
/// must reproduce `tests/golden/control.json` byte-for-byte, so the CI
/// smoke job can `cmp` its output directly.
#[test]
fn cluster_binary_reproduces_the_control_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args([
            "--nodes",
            "2",
            "--cores",
            "2",
            "--keepalive",
            "hybrid",
            "--capacity",
            "4096",
            "--horizon",
            "1500000",
            "--traffic",
            MMPP_SPEC,
            "--controller",
            CONTROL_SPEC,
        ])
        .output()
        .expect("spawn cluster binary");
    assert!(
        out.status.success(),
        "cluster --controller failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(stdout, control_golden_report(), "binary output diverged from the library path");
}

/// The CLI must refuse combinations the controller cannot honor.
#[test]
fn cluster_binary_rejects_controller_with_sweep() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(["--controller", "default", "--sweep", "2048,8192"])
        .output()
        .expect("spawn cluster binary");
    assert!(!out.status.success(), "--controller with --sweep must be rejected");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(["--controller", "epoch=0"])
        .output()
        .expect("spawn cluster binary");
    assert!(!out.status.success(), "a zero epoch must be rejected");
}
