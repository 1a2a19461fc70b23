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
//!                        EXPERIMENTS.md report to <path>
//! ```

use std::io::Write;

use ignite_cluster::fanout::panic_message;
use ignite_engine::protocol::RunOptions;
use ignite_harness::{figures, Figure, Harness};
use ignite_workloads::check_scale;

const ALL_IDS: [&str; 18] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "fig11",
    "fig12",
    "ext-adaptation",
    "ext-metadata",
    "ext-interleaving",
];

fn run_one(h: &Harness, id: &str) -> Option<Figure> {
    Some(match id {
        "fig1" => figures::fig1::run(h),
        "fig2" => figures::fig2::run(h),
        "fig3" => figures::fig3::run(h),
        "fig4" => figures::fig4::run(h),
        "fig5" => figures::fig5::run(h),
        "fig6" => figures::fig6::run(h),
        "fig8" => figures::fig8::run(h),
        "fig9a" => figures::fig9::run_a(h),
        "fig9b" => figures::fig9::run_b(h),
        "fig9c" => figures::fig9::run_c(h),
        "fig10" => figures::fig10::run(h),
        "fig11" => figures::fig11::run(h),
        "fig12" => figures::fig12::run(h),
        "table1" => figures::tables::table1(h),
        "table2" => figures::tables::table2(h),
        "ext-adaptation" => figures::ext::adaptation(h),
        "ext-metadata" => figures::ext::metadata_footprint(h),
        "ext-interleaving" => figures::ext::interleaving(h),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut invocations = 3usize;
    let mut out: Option<String> = None;
    let mut experiments: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| exit_usage("--scale needs a number"));
                if let Err(e) = check_scale(scale) {
                    exit_usage(&format!("--scale: {e}"));
                }
            }
            "--invocations" => {
                invocations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| exit_usage("--invocations needs a positive integer"));
            }
            "--quick" => {
                scale = 0.25;
                invocations = 1;
            }
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| exit_usage("--out needs a path")));
            }
            "--experiments" => {
                experiments =
                    Some(it.next().unwrap_or_else(|| exit_usage("--experiments needs a path")));
            }
            "--help" | "-h" => exit_usage(""),
            id if id.starts_with('-') => exit_usage(&format!("unknown option {id}")),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            exit_usage(&format!("unknown figure id {id}"));
        }
    }

    // Open the output before the (possibly long) run, so a bad path
    // fails at once.
    let mut out_file = out.map(|path| {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| exit_error(&format!("cannot open {path}: {e}")));
        (path, file)
    });

    let harness = Harness::new(
        scale,
        RunOptions { warmup_invocations: 1, measured_invocations: invocations },
    );
    if let Some(path) = experiments {
        let md = ignite_harness::report::experiments_markdown(&harness);
        if let Err(e) = std::fs::write(&path, md) {
            exit_error(&format!("cannot write {path}: {e}"));
        }
        eprintln!("[wrote {path}]");
        return;
    }
    // Each figure runs under catch_unwind so one broken experiment does
    // not cost the rest of a (potentially hours-long) paper-scale run.
    // Failures are summarised at the end and reflected in the exit code.
    let mut rendered = String::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for id in &ids {
        let t = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one(&harness, id).expect("validated above")
        }));
        match outcome {
            Ok(fig) => {
                let text = fig.render();
                println!("{text}");
                eprintln!("[{} done in {:.1?}]", id, t.elapsed());
                rendered.push_str(&text);
                rendered.push('\n');
            }
            Err(payload) => {
                let msg = panic_message(payload);
                eprintln!("[{} FAILED after {:.1?}: {}]", id, t.elapsed(), msg);
                failures.push((id.clone(), msg));
            }
        }
    }
    if let Some((path, f)) = &mut out_file {
        if let Err(e) = f.write_all(rendered.as_bytes()) {
            exit_error(&format!("cannot write {path}: {e}"));
        }
        eprintln!("[appended to {path}]");
    }
    if !failures.is_empty() {
        eprintln!("\n{} of {} figure(s) failed:", failures.len(), ids.len());
        for (id, msg) in &failures {
            eprintln!("  {id}: {msg}");
        }
        std::process::exit(1);
    }
}

/// Prints `msg` and exits 1: the arguments were valid, but the run
/// could not finish.
fn exit_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn exit_usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: figures [--scale F] [--invocations N] [--quick] [--out PATH] [IDS...]\n\
         ids: {} | all",
        ALL_IDS.join(" ")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
