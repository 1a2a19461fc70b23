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

use ignite_harness::cli::{self, Cursor, Exit};
use ignite_scope::{diff, load_samples, same_kind, ScopeReport};

const USAGE: &str = "usage: scope validate FILE\n       scope diff OLD NEW [--threshold PCT] [--advisory] [--allow-cross-workload]";

fn main() -> ExitCode {
    match cli::args(usage).and_then(parse).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => exit.report(USAGE),
    }
}

fn usage(message: impl std::fmt::Display) -> Exit {
    Exit::Usage(format!("scope: {message}"))
}

fn fail(message: impl std::fmt::Display) -> Exit {
    Exit::Failure(format!("scope: {message}"))
}

enum Command {
    Validate(String),
    Diff(Diff),
}

struct Diff {
    old: String,
    new: String,
    threshold: f64,
    advisory: bool,
    allow_cross_workload: bool,
}

fn parse(argv: Vec<String>) -> Result<Command, Exit> {
    let mut it = Cursor::new(argv, usage);
    let (command, first, second) = (it.next(), it.next(), it.next());
    match (command.as_deref(), first, second) {
        (Some("validate"), Some(path), None) => Ok(Command::Validate(path)),
        (Some("diff"), Some(old), Some(new)) => {
            let (mut threshold, mut advisory, mut allow_cross_workload) = (5.0, false, false);
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threshold" => {
                        let v = it.value("--threshold")?;
                        threshold = match v.parse::<f64>() {
                            Ok(t) if t.is_finite() && t >= 0.0 => t,
                            _ => {
                                let want = "want a finite percentage >= 0";
                                return Err(usage(format!("bad threshold '{v}': {want}")));
                            }
                        };
                    }
                    "--advisory" => advisory = true,
                    "--allow-cross-workload" => allow_cross_workload = true,
                    other => return Err(usage(format!("unknown argument '{other}'"))),
                }
            }
            Ok(Command::Diff(Diff { old, new, threshold, advisory, allow_cross_workload }))
        }
        _ => Err(Exit::Usage(String::new())),
    }
}

fn run(command: Command) -> Result<(), Exit> {
    match command {
        Command::Validate(path) => {
            cli::load(&path, ScopeReport::validate).map_err(fail)?;
            println!("{path}: valid {}", ignite_scope::SCOPE_SCHEMA);
            Ok(())
        }
        Command::Diff(args) => compare(args),
    }
}

fn compare(args: Diff) -> Result<(), Exit> {
    let (old_path, new_path) = (&args.old, &args.new);
    // Both files are read before either is refused, so each unreadable
    // one is named.
    let (old_text, new_text) = match (cli::read(old_path), cli::read(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => return Err(fail(e)),
        (Err(a), Err(b)) => return Err(Exit::Failure(format!("scope: {a}\nscope: {b}"))),
    };
    let old = load_samples(&old_text).map_err(|e| fail(format!("{old_path}: {e}")))?;
    let new = load_samples(&new_text).map_err(|e| fail(format!("{new_path}: {e}")))?;
    let (old_schema, new_schema) = (&old.schema, &new.schema);
    if !same_kind(old_schema, new_schema) {
        return Err(fail(format!(
            "refusing to compare {old_path} ({old_schema}) with {new_path} ({new_schema}): pass two cluster reports or two scope reports"
        )));
    }
    if old.workload != new.workload && !args.allow_cross_workload {
        let show = |id: &Option<String>| id.clone().unwrap_or_else(|| "(none)".into());
        return Err(fail(format!(
            "workload fingerprints differ; refusing to compare\n  {old_path}: {}\n  {new_path}: {}\npass --allow-cross-workload to compare anyway",
            show(&old.workload),
            show(&new.workload)
        )));
    }
    let report = diff(&old.samples, &new.samples, args.threshold);
    print!("{}", report.to_text());
    if report.regressions() > 0 && !args.advisory {
        // The report printed says what regressed.
        return Err(Exit::Failure(String::new()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn parsed(args: &[&str]) -> Result<Command, Exit> {
        parse(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn the_parse_step_reads_commands_and_refuses_bad_arguments() {
        assert!(matches!(parsed(&["validate", "f"]), Ok(Command::Validate(p)) if p == "f"));
        let Ok(Command::Diff(d)) = parsed(&["diff", "a", "b", "--threshold", "0", "--advisory"])
        else {
            panic!("a diff");
        };
        assert_eq!((d.old.as_str(), d.new.as_str(), d.threshold), ("a", "b", 0.0));
        assert!(d.advisory && !d.allow_cross_workload);
        for argv in [&[][..], &["diff", "a"], &["validate"], &["validate", "a", "b"], &["x"]] {
            assert_eq!(parsed(argv).err(), Some(Exit::Usage(String::new())), "{argv:?}");
        }
        for (argv, message) in [
            (&["diff", "a", "b", "--threshold"][..], "scope: --threshold needs a value"),
            (&["diff", "a", "b", "--x"], "scope: unknown argument '--x'"),
        ] {
            assert_eq!(parsed(argv).err(), Some(Exit::Usage(message.into())), "{argv:?}");
        }
    }

    /// `--threshold` with each hostile value, alone and given twice, parses
    /// or is refused (exit 2), and never panics: `nan` and `inf`, which
    /// once switched the gate off, are refused.
    #[test]
    fn hostile_thresholds_never_panic_the_parse() {
        let hostile = ["0", "-1", "4294967296", "9007199254740993", "18446744073709551616"];
        for v in hostile.into_iter().chain(["1e300", "nan", "inf", "", "1x"]) {
            let once = ["diff", "a", "b", "--threshold", v];
            let twice = ["diff", "a", "b", "--threshold", v, "--threshold", v];
            for argv in [&once[..], &twice[..]] {
                let r = catch_unwind(AssertUnwindSafe(|| parsed(argv).map(|_| ())));
                assert!(r.is_ok(), "{argv:?} panicked");
            }
        }
        for v in ["nan", "inf", "-1", "", "1x"] {
            let refused = parsed(&["diff", "a", "b", "--threshold", v]).err();
            let want = format!("scope: bad threshold '{v}': want a finite percentage >= 0");
            assert_eq!(refused, Some(Exit::Usage(want)));
        }
    }
}
