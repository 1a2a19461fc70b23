//! A binary whose stdout has closed exits 1 naming stdout, where
//! `print!` panicked with exit 101. Each run gets the writing end of a
//! pipe whose reading end was dropped before the spawn, so every write
//! to stdout fails at once; a `| head` would race the child instead.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `bin` with `args` from the repository root, its stdout a pipe
/// nobody reads, and checks the refusal.
fn refuses_closed_stdout(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(bin)
        .args(args)
        .current_dir(root)
        .stdout(Stdio::from(writer))
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("cannot write stdout"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn cluster_exits_1_on_a_closed_stdout() {
    let bin = env!("CARGO_BIN_EXE_cluster");
    refuses_closed_stdout(bin, &["--traffic", "mmpp", "--stats"]);
    refuses_closed_stdout(bin, &["--horizon", "400000"]);
    refuses_closed_stdout(bin, &["--validate", "tests/golden/cluster.json"]);
}

#[test]
fn scope_exits_1_on_a_closed_stdout() {
    let bin = env!("CARGO_BIN_EXE_scope");
    refuses_closed_stdout(bin, &["validate", "tests/golden/scope.json"]);
    let diff = ["diff", "tests/golden/cluster.json", "tests/golden/chaos.json", "--advisory"];
    refuses_closed_stdout(bin, &diff);
}

#[test]
fn figures_exits_1_on_a_closed_stdout() {
    refuses_closed_stdout(env!("CARGO_BIN_EXE_figures"), &["--scale", "0.02", "table1"]);
}

#[test]
fn sweep_exits_1_on_a_closed_stdout() {
    refuses_closed_stdout(env!("CARGO_BIN_EXE_sweep"), &["--scale", "0.02", "codec"]);
}
