//! Multi-node integration gates: golden report fingerprint for a
//! 3-node affinity/hybrid cluster, cross-process determinism, the
//! single-node byte-identity contract (`--nodes 1 --scheduler fifo
//! --keepalive none` must reproduce every committed golden, chaos on
//! and off), validator rejection of mislabeled per-node sections and of
//! store totals that disagree with their rows, and CLI exit-code
//! regression tests for bad topology specs.
//!
//! The golden snapshot is the full JSON report of the cluster golden
//! configuration reshaped to 3 nodes x 2 cores under affinity routing
//! and hybrid-histogram keep-alive, byte-compared against
//! `tests/golden/multinode.json`. To update after an intentional
//! semantic change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test multinode
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    ClusterConfig, ClusterReport, ClusterSim, KeepAliveKind, SchedulerKind, Topology,
};

/// The pinned multi-node golden configuration: the cluster golden
/// shape (800k-cycle horizon, 8 KiB stores) spread over 3 nodes of
/// 2 cores each, affinity routing, hybrid keep-alive.
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

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden_report() -> String {
    let cfg = multinode_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    ClusterReport::new(cfg, outcome).to_json()
}

#[test]
fn golden_multinode_report_matches() {
    let current = golden_report();
    ClusterReport::validate(&current).expect("multinode golden must self-validate");
    let path = golden_dir().join("multinode.json");
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test multinode",
            path.display()
        )
    });
    if committed != current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "multinode golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nScheduling semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test multinode",
                    i + 1
                );
            }
        }
        panic!(
            "multinode golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

/// Cross-process determinism: a fresh process (fresh ASLR, allocator
/// state, hash seeds) reproduces the same multi-node report bytes —
/// scheduler RNG draws, keep-alive histograms and all.
#[test]
fn multinode_report_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["multinode_child_emits_report", "--exact", "--nocapture"])
            .env("IGNITE_MULTINODE_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let report: Vec<&str> =
            stdout.lines().filter(|l| l.starts_with("IGNITE_MULTINODE ")).collect();
        assert!(!report.is_empty(), "child printed no report lines:\n{stdout}");
        report.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different multinode reports");
}

/// Helper for [`multinode_report_identical_across_processes`]: prints
/// the multinode-config report when spawned with
/// `IGNITE_MULTINODE_CHILD=1`, does nothing in a normal test run.
#[test]
fn multinode_child_emits_report() {
    if std::env::var_os("IGNITE_MULTINODE_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    for line in golden_report().lines() {
        println!("IGNITE_MULTINODE {line}");
    }
}

/// The zero-cost-when-off contract: an explicit default topology
/// (1 node, fifo, no keep-alive) reproduces the committed single-node
/// goldens byte-for-byte — the chaos-free v1 report AND the chaos v2
/// report. This is what lets the scheduler land without re-blessing
/// any existing snapshot. Each explicit run is compared with a fresh run
/// of its golden's own configuration (topology left at its default)
/// and, except while `IGNITE_BLESS=1` lets the `cluster` and `chaos`
/// test binaries rewrite the goldens, with the committed file, so the
/// one-command re-bless does not depend on the order cargo runs the
/// test binaries in.
#[test]
fn default_topology_reproduces_committed_goldens() {
    let run = |explicit: bool, chaos: bool| {
        let mut cfg = ClusterConfig::default();
        cfg.arrival.horizon_cycles = 800_000;
        cfg.store.capacity_bytes = 8 * 1024;
        if explicit {
            cfg.topology = Topology {
                nodes: 1,
                scheduler: SchedulerKind::Fifo,
                keepalive: KeepAliveKind::None,
            };
        }
        if chaos {
            cfg.chaos = Some(ChaosPlan::default_preset().seeded(7));
        }
        let outcome = ClusterSim::new(cfg.clone()).run();
        ClusterReport::new(cfg, outcome).to_json()
    };
    let bless = std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1");
    for (chaos, golden, label) in [(false, "cluster.json", "v1"), (true, "chaos.json", "v2")] {
        let current = run(true, chaos);
        assert_eq!(
            current,
            run(false, chaos),
            "1-node fifo/none run must match the {label} golden's own configuration"
        );
        if bless {
            continue;
        }
        let committed = std::fs::read_to_string(golden_dir().join(golden))
            .unwrap_or_else(|e| panic!("cannot read committed {golden} ({e})"));
        assert_eq!(
            current, committed,
            "1-node fifo/none run must match the committed {label} golden"
        );
    }
}

/// Mislabeled per-node sections must not validate: pairing between the
/// config keys and the nodes array is enforced in both directions, as
/// are per-node labels and the per-node conservation law.
#[test]
fn validator_rejects_mislabeled_node_sections() {
    let good = golden_report();
    ClusterReport::validate(&good).expect("pristine multinode report validates");
    // Node-array length disagreeing with the config count.
    let bad = good.replacen("\"nodes\": 3", "\"nodes\": 4", 1);
    assert!(ClusterReport::validate(&bad).is_err(), "length mismatch must be caught");
    // A nodes array with no config key claiming it.
    let bad = good.replacen("    \"nodes\": 3,\n", "", 1);
    assert!(ClusterReport::validate(&bad).is_err(), "orphan nodes array must be caught");
    // A config key with the array renamed away.
    let bad = good.replacen("  \"nodes\": [", "  \"nodez\": [", 1);
    assert!(ClusterReport::validate(&bad).is_err(), "missing nodes array must be caught");
    // An unparseable keep-alive spec.
    let bad = good.replacen("\"keepalive\": \"hybrid:50000\"", "\"keepalive\": \"hybird\"", 1);
    assert!(ClusterReport::validate(&bad).is_err(), "bad keepalive spec must be caught");
    // A node claiming an index it does not occupy.
    let bad = good.replacen("\"node\": 0,", "\"node\": 1,", 1);
    assert!(ClusterReport::validate(&bad).is_err(), "node label must match its position");
    // Cold-start accounting without a multi-node config.
    let single = {
        let mut cfg = ClusterConfig::default();
        cfg.arrival.horizon_cycles = 800_000;
        let outcome = ClusterSim::new(cfg.clone()).run();
        ClusterReport::new(cfg, outcome).to_json()
    };
    let bad = single.replacen(
        "      \"metadata_hit_rate\":",
        "      \"cold_starts\": 1,\n      \"metadata_hit_rate\":",
        1,
    );
    assert!(
        ClusterReport::validate(&bad).is_err(),
        "cold-start keys under a single-node config must be caught"
    );
}

/// `text` with the count on the first line that starts with `prefix`
/// (indentation included) raised by one.
fn bumped(text: &str, prefix: &str) -> String {
    let at = text.find(&format!("\n{prefix}")).unwrap_or_else(|| panic!("no line {prefix:?}"));
    let start = at + 1 + prefix.len();
    let end = start + text[start..].find(|c: char| !c.is_ascii_digit()).expect("a count");
    let n: u64 = text[start..end].parse().expect("a count");
    format!("{}{}{}", &text[..start], n + 1, &text[end..])
}

/// The store totals are cross-checked: `store.hits` and `store.misses`
/// must equal the sums of the functions' metadata counters, and each
/// store total the sum over the nodes' stores. A golden report with any
/// one of these counts raised by one is rejected by an error that names
/// the key.
#[test]
fn validator_cross_checks_the_store_counters() {
    let good = golden_report();
    ClusterReport::validate(&good).expect("pristine multinode report validates");
    for (prefix, key) in [
        ("    \"hits\": ", "store.hits is"),
        ("      \"metadata_hits\": ", "functions[].metadata_hits sum to"),
        ("        \"hits\": ", "nodes[].store.hits sum to"),
        ("    \"misses\": ", "store.misses is"),
        ("        \"footprint_bytes\": ", "nodes[].store.footprint_bytes sum to"),
        ("    \"peak_footprint_bytes\": ", "store.peak_footprint_bytes is"),
    ] {
        let err = ClusterReport::validate(&bumped(&good, prefix))
            .expect_err(&format!("a raised {prefix:?} must be caught"));
        assert!(err.contains(key), "{prefix:?}: {err}");
    }
}

/// Bad topology specs exit nonzero with a diagnostic, never a panic:
/// usage errors (unknown scheduler/keep-alive, zero windows) exit 2,
/// and a structurally invalid config (zero nodes) fails validation
/// with exit 1.
#[test]
fn cli_rejects_bad_topology_specs_with_nonzero_exit() {
    let bin = env!("CARGO_BIN_EXE_cluster");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(bin).args(args).output().expect("spawn cluster");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let (code, err) = run(&["--scheduler", "least_loaded"]);
    assert_eq!(code, Some(2), "scheduler typo must be a usage error: {err}");
    assert!(err.contains("unknown scheduler spec"), "stderr: {err}");
    let (code, err) = run(&["--keepalive", "sometimes"]);
    assert_eq!(code, Some(2), "keep-alive typo must be a usage error: {err}");
    assert!(err.contains("unknown keepalive spec"), "stderr: {err}");
    let (code, err) = run(&["--keepalive", "fixed:0"]);
    assert_eq!(code, Some(2), "zero window must be a usage error: {err}");
    assert!(err.contains("window_cycles"), "stderr: {err}");
    for spec in ["random", "random:3"] {
        let (code, err) = run(&["--scheduler", spec]);
        assert_eq!(code, Some(2), "{spec} must be a usage error: {err}");
        assert!(err.contains("(want fifo, least-loaded, or affinity)"), "stderr: {err}");
    }
    let (code, err) = run(&["--nodes", "0"]);
    assert_eq!(code, Some(1), "zero nodes must fail validation: {err}");
    assert!(err.contains("topology.nodes"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must be a diagnostic, not a panic: {err}");
}

/// The CLI accepts every documented spec form and the emitted report
/// self-validates through the `--validate` path.
#[test]
fn cli_multinode_report_round_trips_through_validate() {
    let bin = env!("CARGO_BIN_EXE_cluster");
    let dir = std::env::temp_dir().join(format!("ignite-multinode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("mn.json");
    let out = std::process::Command::new(bin)
        .args([
            "--nodes",
            "3",
            "--cores",
            "2",
            "--scheduler",
            "least-loaded",
            "--keepalive",
            "hybrid:40000",
            "--horizon",
            "400000",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("spawn cluster");
    assert!(out.status.success(), "run failed: {}", String::from_utf8_lossy(&out.stderr));
    let check = std::process::Command::new(bin)
        .args(["--validate", report.to_str().unwrap()])
        .output()
        .expect("spawn validator");
    assert!(
        check.status.success(),
        "emitted report failed validation: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(text.contains("\"scheduler\": \"least-loaded\""));
    assert!(text.contains("\"keepalive\": \"hybrid:40000\""));
    let _ = std::fs::remove_dir_all(&dir);
}
