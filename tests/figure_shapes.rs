//! Shape regression tests: the reproduced figures preserve the paper's
//! qualitative results at a moderate scale (25% of paper scale, one
//! measured invocation). These are the repository's acceptance criteria
//! (DESIGN.md §3): who wins, by roughly what factor, where crossovers fall.
//!
//! These run longer than unit tests (~1–2 minutes total).

use ignite_engine::protocol::RunOptions;
use ignite_harness::{figures, Harness};

fn harness() -> Harness {
    Harness::new(0.25, RunOptions::quick())
}

#[test]
fn fig8_headline_speedups() {
    let h = harness();
    let fig = figures::fig8::run(&h);
    let mean = |name: &str| fig.series(name).unwrap().value("Mean").unwrap();

    let boomerang = mean("Boomerang");
    let bjb = mean("Boomerang + JB");
    let ignite = mean("Ignite");
    let ignite_tage = mean("Ignite + TAGE");
    let ideal = mean("Ideal");

    // Ordering (paper Fig. 8).
    assert!(1.0 < boomerang && boomerang < bjb, "NL < Boomerang < B+JB");
    assert!(bjb < ignite, "Ignite {ignite} > B+JB {bjb}");
    assert!(ignite <= ignite_tage, "TAGE restoration adds");
    assert!(ignite_tage < ideal, "Ideal bounds everything");

    // Magnitudes: Ignite's gain is 1.7x+ of Boomerang+JB's (paper: 2.2x),
    // and lands in the tens of percent.
    assert!((ignite - 1.0) / (bjb - 1.0) > 1.7, "gain ratio {}", (ignite - 1.0) / (bjb - 1.0));
    assert!(ignite > 1.25, "Ignite speedup {ignite} in the tens of percent");
}

#[test]
fn fig9a_mpki_reductions() {
    let h = harness();
    let fig = figures::fig9::run_a(&h);
    let get = |cfg: &str, m: &str| fig.series(cfg).unwrap().value(m).unwrap();

    // BTB: Ignite well below Boomerang+JB (paper: 13 -> 1.9 MPKI).
    assert!(get("Ignite", "BTB MPKI") < get("Boomerang + JB", "BTB MPKI") * 0.65);
    // L1-I: clear reduction.
    assert!(get("Ignite", "L1I MPKI") < get("Boomerang + JB", "L1I MPKI") * 0.85);
    // CBP: Ignite below, Ignite+TAGE below that (paper: 19 -> 10 -> 6.6).
    assert!(get("Ignite", "CBP MPKI") < get("Boomerang + JB", "CBP MPKI") * 0.85);
    assert!(get("Ignite + TAGE", "CBP MPKI") < get("Ignite", "CBP MPKI"));
}

#[test]
fn fig1_lukewarm_cpi_gap() {
    let h = harness();
    let fig = figures::fig1::run(&h);
    let luke = fig.series("Interleaved CPI").unwrap().value("Mean").unwrap();
    let warm = fig.series("Back-to-back CPI").unwrap().value("Mean").unwrap();
    assert!(luke / warm > 1.5, "CPI ratio {}", luke / warm);
}

#[test]
fn fig10_bandwidth_crossover() {
    let h = harness();
    let fig = figures::fig10::run(&h);
    let get = |cfg: &str, m: &str| fig.series(cfg).unwrap().value(m).unwrap();
    // The paper's crossover: Ignite's total bandwidth, metadata included,
    // stays at or below Boomerang+JB's. In this reproduction the two run
    // neck-and-neck (within a few percent; DESIGN.md §7 discusses why the
    // paper's 17% margin does not fully reproduce), so assert the bound
    // with a small tolerance.
    assert!(
        get("Ignite", "Total [KiB]") < get("Boomerang + JB", "Total [KiB]") * 1.05,
        "Ignite {} vs B+JB {}",
        get("Ignite", "Total [KiB]"),
        get("Boomerang + JB", "Total [KiB]")
    );
    // Ignite's wrong-path traffic is unambiguously the lowest.
    assert!(
        get("Ignite", "Useless Instructions [KiB]")
            < get("Boomerang + JB", "Useless Instructions [KiB]"),
        "Ignite wrong-path traffic must undercut Boomerang+JB"
    );
    // Wrong-path traffic ordering: NL < Boomerang-based.
    assert!(
        get("NL", "Useless Instructions [KiB]")
            < get("Boomerang + JB", "Useless Instructions [KiB]")
    );
}

#[test]
fn fig11_bim_policy_shape() {
    let h = harness();
    let fig = figures::fig11::run(&h);
    let s = |name: &str| fig.series(name).unwrap().value("Speedup").unwrap();
    assert!(s("BIM wT") > s("BTB only"), "weakly taken helps");
    assert!(s("BIM wNT") < s("BIM wT"), "weakly not-taken is the wrong policy");
}

/// Runs `bin` with `args` and then one argument that is not UTF-8, and
/// returns its stderr once it has exited 2.
#[cfg(unix)]
fn refusal_of_a_non_utf8_argument(bin: &str, args: &[&str]) -> String {
    use std::os::unix::ffi::OsStrExt;
    let out = std::process::Command::new(bin)
        .args(args)
        .arg(std::ffi::OsStr::from_bytes(b"\xff"))
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "{bin}");
    stderr
}

/// An argument that is not UTF-8 is a usage error naming its position,
/// not a panic in the argument reader.
#[cfg(unix)]
#[test]
fn figures_binary_refuses_a_non_utf8_argument() {
    let stderr = refusal_of_a_non_utf8_argument(env!("CARGO_BIN_EXE_figures"), &["--quick"]);
    let refusal = "error: argument 2 is not valid UTF-8: \"\\xFF\"\n\nusage: figures ";
    assert!(stderr.starts_with(refusal), "{stderr}");
}

#[cfg(unix)]
#[test]
fn sweep_binary_refuses_a_non_utf8_argument() {
    let stderr = refusal_of_a_non_utf8_argument(env!("CARGO_BIN_EXE_sweep"), &[]);
    let refusal = "error: argument 1 is not valid UTF-8: \"\\xFF\"\n\nusage: sweep ";
    assert!(stderr.starts_with(refusal), "{stderr}");
}

/// Inputs the `sweep` and `figures` binaries once panicked or aborted
/// on: a scale of zero, NaN or infinity panicked building the suite, a
/// scale of 1e9 aborted allocating it, an unwritable `--out` panicked
/// after the run, and zero measured invocations, which executed no
/// instruction, fail every speedup's CPI check. A bad scale or
/// invocation count is a usage error (exit 2); an unwritable output
/// exits 1 before any figure runs. A minute is far more than any case
/// needs.
#[test]
fn binaries_refuse_bad_scales_and_unwritable_outputs() {
    use std::time::{Duration, Instant};
    let cases: [(&str, &[&str], i32, &str); 7] = [
        (env!("CARGO_BIN_EXE_sweep"), &["--scale", "0", "codec"], 2, "--scale"),
        (env!("CARGO_BIN_EXE_sweep"), &["--scale", "nan", "codec"], 2, "--scale"),
        (env!("CARGO_BIN_EXE_sweep"), &["--scale", "inf", "codec"], 2, "--scale"),
        (env!("CARGO_BIN_EXE_figures"), &["--scale", "0", "table1"], 2, "--scale"),
        (env!("CARGO_BIN_EXE_figures"), &["--scale", "1e9", "table1"], 2, "--scale"),
        (env!("CARGO_BIN_EXE_figures"), &["--invocations", "0", "fig3"], 2, "--invocations"),
        (
            env!("CARGO_BIN_EXE_figures"),
            &["--quick", "--out", "/nonexistent/dir/x.md", "table1"],
            1,
            "cannot open /nonexistent/dir/x.md",
        ),
    ];
    for (bin, args, code, message) in cases {
        let label = args.join(" ");
        let mut child = std::process::Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn binary");
        let start = Instant::now();
        while child.try_wait().expect("poll binary").is_none() {
            if start.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
                panic!("{label}: still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{label}: {stderr}");
        assert!(stderr.contains(&format!("error: {message}")), "{label}: {stderr}");
    }
}
