//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! figures [OPTIONS] [IDS...]
//!
//! IDS      fig1 fig2 fig3 fig4 fig5 fig6 fig8 fig9a fig9b fig9c fig10
//!          fig11 fig12 table1 table2 | all        (default: all)
//!
//! OPTIONS
//!   --scale <f>         suite scale factor in (0, 1] (default 1.0 = paper scale)
//!   --invocations <n>   measured invocations per run, at least 1 (default 3)
//!   --quick             shorthand for --scale 0.25 --invocations 1
//!   --out <path>        also append rendered figures to a markdown file
//!   --experiments <path> run everything and write the paper-vs-measured
//!                        EXPERIMENTS.md report to <path>, keeping
//!                        whatever an existing file holds after its
//!                        generated part
//! ```

use std::io::Write;
use std::process::ExitCode;

use ignite_engine::protocol::RunOptions;
use ignite_harness::cli::{self, Exit};
use ignite_harness::{figures, report, Figure, Harness};
use ignite_workloads::check_scale;

/// A figure or table by id.
type Experiment = (&'static str, fn(&Harness) -> Figure);

/// Every figure and table, in the order `all` runs them.
const FIGURES: [Experiment; 18] = [
    ("table1", figures::tables::table1),
    ("table2", figures::tables::table2),
    ("fig1", figures::fig1::run),
    ("fig2", figures::fig2::run),
    ("fig3", figures::fig3::run),
    ("fig4", figures::fig4::run),
    ("fig5", figures::fig5::run),
    ("fig6", figures::fig6::run),
    ("fig8", figures::fig8::run),
    ("fig9a", figures::fig9::run_a),
    ("fig9b", figures::fig9::run_b),
    ("fig9c", figures::fig9::run_c),
    ("fig10", figures::fig10::run),
    ("fig11", figures::fig11::run),
    ("fig12", figures::fig12::run),
    ("ext-adaptation", figures::ext::adaptation),
    ("ext-metadata", figures::ext::metadata_footprint),
    ("ext-interleaving", figures::ext::interleaving),
];

fn main() -> ExitCode {
    match cli::args(usage).and_then(parse).and_then(|args| args.map(run).transpose()) {
        Ok(Some(())) => ExitCode::SUCCESS,
        Ok(None) => {
            eprintln!("{}", usage_text());
            ExitCode::SUCCESS
        }
        Err(exit) => exit.report(usage_text()),
    }
}

fn usage_text() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    format!(
        "usage: figures [--scale F] [--invocations N] [--quick] [--out PATH] [IDS...]\n\
         ids: {} | all",
        ids.join(" ")
    )
}

fn usage(message: impl std::fmt::Display) -> Exit {
    Exit::Usage(format!("error: {message}\n"))
}

fn fail(message: impl std::fmt::Display) -> Exit {
    Exit::Failure(format!("error: {message}"))
}

struct Args {
    scale: f64,
    invocations: usize,
    out: Option<String>,
    experiments: Option<String>,
    ids: Vec<Experiment>,
}

/// Parses the arguments; `None` when they ask for the usage text.
fn parse(argv: Vec<String>) -> Result<Option<Args>, Exit> {
    let (mut scale, mut invocations) = (1.0, 3);
    let (mut out, mut experiments, mut ids) = (None, None, Vec::new());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let value = it.next().and_then(|v| v.parse().ok());
                scale = value.ok_or_else(|| usage("--scale needs a number"))?;
                check_scale(scale).map_err(|e| usage(format!("--scale: {e}")))?;
            }
            "--invocations" => {
                let value = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
                invocations =
                    value.ok_or_else(|| usage("--invocations needs a positive integer"))?;
            }
            "--quick" => (scale, invocations) = (0.25, 1),
            "--out" => out = Some(it.next().ok_or_else(|| usage("--out needs a path"))?),
            "--experiments" => {
                experiments = Some(it.next().ok_or_else(|| usage("--experiments needs a path"))?);
            }
            "--help" | "-h" => return Ok(None),
            id if id.starts_with('-') => return Err(usage(format!("unknown option {id}"))),
            id => ids.push(id.to_string()),
        }
    }
    let ids = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        FIGURES.to_vec()
    } else {
        let figure = |id: &String| FIGURES.iter().find(|&&(known, _)| known == id);
        let ids =
            ids.iter().map(|id| figure(id).ok_or_else(|| usage(format!("unknown figure id {id}"))));
        ids.map(|f| f.copied()).collect::<Result<_, _>>()?
    };
    Ok(Some(Args { scale, invocations, out, experiments, ids }))
}

fn run(args: Args) -> Result<(), Exit> {
    // Open the output before the (possibly long) run, so a bad path
    // fails at once.
    let mut out_file = match args.out {
        None => None,
        Some(path) => {
            let file = std::fs::OpenOptions::new().create(true).append(true).open(&path);
            Some((file.map_err(|e| fail(format!("cannot open {path}: {e}")))?, path))
        }
    };

    let harness = Harness::new(
        args.scale,
        RunOptions { warmup_invocations: 1, measured_invocations: args.invocations },
    );
    if let Some(path) = args.experiments {
        report::write_experiments(&path, &harness).map_err(fail)?;
        eprintln!("[wrote {path}]");
        return Ok(());
    }
    // Each figure runs under catch_unwind so one broken experiment does
    // not cost the rest of a (potentially hours-long) paper-scale run.
    // Failures are summarised at the end and reflected in the exit code.
    let mut rendered = String::new();
    let harness = &harness;
    let jobs = args.ids.iter().map(|&(id, figure)| (id, move || figure(harness)));
    let result = cli::run_isolated(
        jobs,
        |id, elapsed, outcome| match outcome {
            Ok(fig) => {
                let text = fig.render() + "\n";
                rendered.push_str(&text);
                cli::print("figures", text)?;
                eprintln!("[{id} done in {elapsed:.1?}]");
                Ok(())
            }
            Err(msg) => {
                eprintln!("[{id} FAILED after {elapsed:.1?}: {msg}]");
                Ok(())
            }
        },
        |failed| format!("{failed} of {} figure(s) failed:", args.ids.len()),
    );
    if let Some((f, path)) = &mut out_file {
        f.write_all(rendered.as_bytes()).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
        eprintln!("[appended to {path}]");
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn parsed(args: &[&str]) -> Result<Option<Args>, Exit> {
        parse(args.iter().map(|a| a.to_string()).collect())
    }

    fn ids(args: &[&str]) -> Vec<&'static str> {
        let args = parsed(args).ok().flatten().expect("arguments that run");
        args.ids.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn the_parse_step_selects_figures_and_refuses_bad_arguments() {
        assert_eq!(ids(&[]).len(), 18);
        assert_eq!(ids(&["fig3", "table1", "fig3"]), ["fig3", "table1", "fig3"]);
        assert_eq!(ids(&["bogus", "all"]).len(), 18);
        let args = parsed(&["--quick", "--scale", "0.5"]).ok().flatten().expect("valid");
        assert_eq!((args.scale, args.invocations), (0.5, 1));
        assert!(matches!(parsed(&["--help", "--scale", "0"]), Ok(None)));
        for (argv, message) in [
            (&["bogus"][..], "unknown figure id bogus"),
            (&["-x"], "unknown option -x"),
            (&["--scale", "0"], "--scale: "),
            (&["--scale"], "--scale needs a number"),
            (&["--invocations", "0"], "--invocations needs a positive integer"),
            (&["--out"], "--out needs a path"),
        ] {
            match parsed(argv) {
                Err(Exit::Usage(m)) => assert!(m.starts_with(&format!("error: {message}")), "{m}"),
                _ => panic!("{argv:?} must be a usage error"),
            }
        }
    }

    /// Every value-taking flag with each hostile value, alone and given
    /// twice, parses or is refused, and never panics; no harness is built.
    #[test]
    fn hostile_values_never_panic_the_parse() {
        let hostile = ["0", "-1", "4294967296", "9007199254740993", "18446744073709551616"];
        let hostile = hostile.into_iter().chain(["1e300", "nan", "inf", "", "1x"]);
        for v in hostile {
            for flag in ["--scale", "--invocations", "--out", "--experiments"] {
                for argv in [vec![flag, v], vec![flag, v, flag, v], vec![flag]] {
                    let r = catch_unwind(AssertUnwindSafe(|| parsed(&argv).map(|a| a.is_some())));
                    assert!(r.is_ok(), "{argv:?} panicked");
                }
            }
        }
        assert!(matches!(parsed(&["--scale", "nan"]), Err(Exit::Usage(_))));
        assert!(matches!(parsed(&["--invocations", "18446744073709551616"]), Err(Exit::Usage(_))));
    }
}
