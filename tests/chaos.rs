//! Chaos-layer integration gates: golden v2 report fingerprint,
//! cross-process determinism of the failure schedule, the invocation
//! conservation law, and the zero-cost-when-off contract (a chaos-free
//! run must reproduce the committed v1 golden byte-for-byte).
//!
//! The golden snapshot is the full `ignite-cluster-v2` JSON report of
//! the cluster golden configuration with the default chaos preset and
//! retry policy, byte-compared against `tests/golden/chaos.json`. To
//! update after an intentional semantic change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test chaos
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{ClusterConfig, ClusterReport, ClusterSim};

/// The cluster golden configuration plus the default failure preset on
/// a fixed chaos seed. Violent enough that every failure mode fires
/// within the horizon.
fn chaos_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg.chaos = Some(ChaosPlan::default_preset().seeded(7));
    cfg
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/chaos.json")
}

fn golden_report() -> String {
    let cfg = chaos_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    ClusterReport::new(cfg, outcome).to_json()
}

#[test]
fn golden_chaos_report_matches() {
    let current = golden_report();
    ClusterReport::validate(&current).expect("golden chaos report must self-validate");
    assert!(current.contains("\"schema\": \"ignite-cluster-v2\""));
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
             IGNITE_BLESS=1 cargo test -p ignite-harness --test chaos",
            path.display()
        )
    });
    if committed != current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "chaos golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nChaos semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test chaos",
                    i + 1
                );
            }
        }
        panic!(
            "chaos golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

/// Cross-process determinism: a fresh process (fresh ASLR, allocator
/// state, hash seeds) reproduces the same v2 report bytes — including
/// every chaos counter and the conservation law. The child re-runs this
/// test binary with `IGNITE_CHAOS_CHILD=1`.
#[test]
fn chaos_report_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["chaos_child_emits_report", "--exact", "--nocapture"])
            .env("IGNITE_CHAOS_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let report: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IGNITE_CHAOS ")).collect();
        assert!(!report.is_empty(), "child printed no report lines:\n{stdout}");
        report.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different chaos reports");
}

/// Helper for [`chaos_report_identical_across_processes`]: prints the
/// chaos-config report when spawned with `IGNITE_CHAOS_CHILD=1`, does
/// nothing in a normal test run.
#[test]
fn chaos_child_emits_report() {
    if std::env::var_os("IGNITE_CHAOS_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    for line in golden_report().lines() {
        println!("IGNITE_CHAOS {line}");
    }
}

/// The conservation law holds on the outcome itself, not just in the
/// serialized report: every submitted invocation either completed or
/// was dropped with a recorded reason, and the failure preset genuinely
/// exercised retries, degradations and crashes.
#[test]
fn chaos_outcome_conserves_and_recovers() {
    let out = ClusterSim::new(chaos_cfg()).run();
    let ch = out.chaos.as_ref().expect("chaos stats present");
    assert!(ch.conserved(), "conservation violated: {ch:?}");
    assert_eq!(ch.completed, out.invocations);
    assert!(ch.retried_to_success > 0, "no retry recovered: {ch:?}");
    assert!(ch.degraded_total() > 0, "no degradation to cold: {ch:?}");
    assert!(ch.crash_kills > 0, "no crash fired: {ch:?}");
    // Degradation means survival: completions dwarf drops under the
    // default preset.
    assert!(ch.completed > 10 * ch.dropped_total(), "drops dominate: {ch:?}");
}

/// The zero-cost-when-off contract, end to end: running the chaos golden
/// configuration with `chaos: None` must reproduce the v1 golden
/// byte-for-byte. It is compared with a fresh run of the v1 golden's own
/// configuration (the plain cluster golden, no chaos plan) and, except
/// while `IGNITE_BLESS=1` lets the `cluster` test binary rewrite it, with
/// the committed snapshot. This is the regression gate that keeps the
/// failure model strictly additive.
#[test]
fn chaos_off_reproduces_committed_v1_golden() {
    let mut cfg = chaos_cfg();
    cfg.chaos = None;
    let outcome = ClusterSim::new(cfg.clone()).run();
    let current = ClusterReport::new(cfg, outcome).to_json();
    let mut plain = ClusterConfig::default();
    plain.arrival.horizon_cycles = 800_000;
    plain.store.capacity_bytes = 8 * 1024;
    let outcome = ClusterSim::new(plain.clone()).run();
    assert_eq!(
        ClusterReport::new(plain, outcome).to_json(),
        current,
        "a chaos-free run no longer matches a plain run: chaos is not zero-cost-when-off"
    );
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        return;
    }
    let v1 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cluster.json");
    let committed = std::fs::read_to_string(&v1)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", v1.display()));
    assert_eq!(
        committed, current,
        "a chaos-free run no longer matches the v1 golden: chaos is not zero-cost-when-off"
    );
}

/// Re-seeding chaos replays the identical arrival stream (`--seed` and
/// `--chaos-seed` are independent), while distinct chaos seeds inject
/// distinct failure schedules.
#[test]
fn chaos_seed_independent_of_arrival_seed() {
    let a = ClusterSim::new(chaos_cfg()).run();
    let mut other = chaos_cfg();
    other.chaos = Some(ChaosPlan::default_preset().seeded(997));
    let b = ClusterSim::new(other).run();
    let (ca, cb) = (a.chaos.as_ref().unwrap(), b.chaos.as_ref().unwrap());
    assert_eq!(ca.submitted, cb.submitted, "chaos seed leaked into the arrival stream");
    assert_ne!(
        (ca.attempts_failed, ca.retry_cycles),
        (cb.attempts_failed, cb.retry_cycles),
        "distinct chaos seeds produced identical failure schedules"
    );
}
