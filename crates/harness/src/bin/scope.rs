//! `scope`: validate and compare Ignite run artifacts.
//!
//! ```text
//! cargo run --release -p ignite-harness --bin scope -- COMMAND
//!
//! COMMANDS:
//!   validate FILE                 validate an ignite-scope-v1 report
//!   diff OLD NEW [OPTIONS]        compare two reports and flag
//!                                 significant regressions/improvements
//!
//! DIFF OPTIONS:
//!   --threshold PCT          relative significance threshold, a finite
//!                            percentage >= 0 (default 5)
//!   --advisory               report but always exit 0 (for advisory CI gates)
//!   --allow-cross-workload   compare despite mismatched workload fingerprints
//! ```
//!
//! `diff` auto-detects each input by schema tag: `ignite-cluster-v1`
//! and `-v2` reports, or `ignite-scope-v1` reports, each read back into
//! its typed report, so an input that is not exactly such a report is
//! refused with exit 1 and the path of its first difference. Pass two
//! cluster reports, of either version, or two scope reports; a mixed
//! pair is refused with exit 1. Only metrics named in both are
//! compared. Exit status is 1 when significant regressions were found
//! and `--advisory` was not given.
//!
//! When both inputs carry workload fingerprints (reports produced with
//! `cluster --traffic`), their identities must match: a latency diff
//! between runs driven by different traffic shapes is meaningless.
//! Mismatches — including one fingerprinted report against one without —
//! are refused with exit 1. `--advisory` does *not* bypass the refusal
//! (it only downgrades regressions); pass `--allow-cross-workload` to
//! compare anyway.

use std::process::ExitCode;

use ignite_scope::{diff, load_samples, same_kind, ScopeReport};

fn usage() -> ! {
    eprintln!(
        "usage: scope validate FILE\n       scope diff OLD NEW [--threshold PCT] [--advisory] [--allow-cross-workload]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("scope: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("validate") => {
            let [_, path] = argv.as_slice() else { usage() };
            let text = match read(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            match ScopeReport::validate(&text) {
                Ok(()) => {
                    println!("{path}: valid {}", ignite_scope::SCOPE_SCHEMA);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("scope: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("diff") => {
            let rest = &argv[1..];
            if rest.len() < 2 {
                usage();
            }
            let (old_path, new_path) = (&rest[0], &rest[1]);
            let mut threshold = 5.0f64;
            let mut advisory = false;
            let mut allow_cross_workload = false;
            let mut it = rest[2..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threshold" => {
                        let v = it.next().unwrap_or_else(|| {
                            eprintln!("scope: --threshold needs a value");
                            usage();
                        });
                        threshold = match v.parse::<f64>() {
                            Ok(t) if t.is_finite() && t >= 0.0 => t,
                            _ => {
                                eprintln!(
                                    "scope: bad threshold '{v}': want a finite percentage >= 0"
                                );
                                usage();
                            }
                        };
                    }
                    "--advisory" => advisory = true,
                    "--allow-cross-workload" => allow_cross_workload = true,
                    other => {
                        eprintln!("scope: unknown argument '{other}'");
                        usage();
                    }
                }
            }
            let (old_text, new_text) = match (read(old_path), read(new_path)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            let old = match load_samples(&old_text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("scope: {old_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let new = match load_samples(&new_text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("scope: {new_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (old_schema, new_schema) = (&old.schema, &new.schema);
            if !same_kind(old_schema, new_schema) {
                eprintln!(
                    "scope: refusing to compare {old_path} ({old_schema}) with {new_path} ({new_schema}): pass two cluster reports or two scope reports"
                );
                return ExitCode::FAILURE;
            }
            if old.workload != new.workload && !allow_cross_workload {
                let show = |id: &Option<String>| id.clone().unwrap_or_else(|| "(none)".into());
                eprintln!(
                    "scope: workload fingerprints differ; refusing to compare\n  {old_path}: {}\n  {new_path}: {}\npass --allow-cross-workload to compare anyway",
                    show(&old.workload),
                    show(&new.workload)
                );
                return ExitCode::FAILURE;
            }
            let report = diff(&old.samples, &new.samples, threshold);
            print!("{}", report.to_text());
            if report.regressions() > 0 && !advisory {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
