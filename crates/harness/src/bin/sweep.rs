//! Ablation sweeps over Ignite's design parameters (DESIGN.md §3).
//!
//! These go beyond the paper's figures to quantify the design choices its
//! text motivates: delta widths (§4.1, whose two width mentions disagree),
//! the metadata budget (§5.3: 120 KiB), the replay throttle threshold
//! (§5.3: 1 K), the BTB size (§5.3: 5 K Ice Lake vs 12 K Sapphire Rapids,
//! "overall trends ... not affected"), cross-invocation divergence (§4.2),
//! and Ignite stacked on Boomerang instead of FDP.
//!
//! The `faults` sweep additionally injects metadata faults (bit flips and
//! stale entries) at increasing rates, demonstrating that hardened decode
//! degrades Ignite gracefully toward its record-only floor instead of
//! crashing or mis-simulating.
//!
//! ```text
//! sweep [--scale F] [SWEEPS...]
//! sweeps: codec budget throttle btb-size divergence host faults | all
//! ```

use std::fmt::Display;
use std::process::ExitCode;

use ignite_core::codec::CodecConfig;
use ignite_core::FaultPlan;
use ignite_engine::config::FrontEndConfig;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_harness::cli::{self, Exit};
use ignite_harness::Harness;
use ignite_uarch::btb::BtbConfig;
use ignite_uarch::UarchConfig;
use ignite_workloads::check_scale;

/// Writes one line of a sweep's table to stdout ([`cli::print`]).
fn line(text: impl Display) -> Result<(), Exit> {
    cli::print("sweep", format_args!("{text}\n"))
}

fn header(title: &str) -> Result<(), Exit> {
    line(format_args!("\n## {title}\n"))
}

fn sweep_codec(h: &Harness) -> Result<(), Exit> {
    header("Codec delta widths (bits source/target; §4.1 vs §5.3 disagree)")?;
    // Record real metadata by running one function, then re-encode the
    // decoded stream under each width pair. The recorded region is read
    // back through the OS model, exactly as replay would see it.
    let f = &h.functions()[0];
    let mut machine = ignite_engine::machine::Machine::new(&h.uarch, &FrontEndConfig::ignite());
    ignite_engine::sim::run_invocation(&mut machine, f, 0);
    let reference = machine
        .ignite
        .as_ref()
        .expect("ignite")
        .os()
        .metadata(f.container)
        .expect("recording stored a metadata region")
        .clone();
    let entries: Vec<_> = reference.decode().collect();
    line(format_args!(
        "{:>6} {:>6} {:>12} {:>12} {:>10}",
        "src", "tgt", "bytes", "bits/entry", "fallback%"
    ))?;
    for (src, tgt) in [(7, 21), (9, 21), (13, 13), (21, 7), (16, 16), (5, 27), (12, 24)] {
        let mut enc = ignite_core::codec::Encoder::new(CodecConfig {
            src_delta_bits: src,
            tgt_delta_bits: tgt,
        });
        for e in &entries {
            enc.push(e);
        }
        line(format_args!(
            "{:>6} {:>6} {:>12} {:>12.1} {:>9.1}%",
            src,
            tgt,
            enc.byte_len(),
            enc.byte_len() as f64 * 8.0 / entries.len().max(1) as f64,
            enc.full_entries() as f64 / entries.len().max(1) as f64 * 100.0,
        ))?;
    }
    Ok(())
}

fn sweep_budget(h: &Harness) -> Result<(), Exit> {
    header("Metadata budget (paper default: 120 KiB)")?;
    let baseline = h.run_config(&FrontEndConfig::nl());
    line(format_args!("{:>12} {:>10}", "budget", "speedup"))?;
    for kib in [4usize, 8, 16, 32, 64, 120] {
        let mut fe = FrontEndConfig::ignite();
        let ignite = fe.select.ignite.as_mut().expect("ignite");
        ignite.metadata_budget_bytes = kib * 1024;
        fe.name = format!("Ignite {kib}KiB");
        let speedup = h.speedups(&baseline, &h.run_config(&fe)).mean;
        line(format_args!("{kib:>9}KiB {speedup:>10.3}"))?;
    }
    Ok(())
}

fn sweep_throttle(h: &Harness) -> Result<(), Exit> {
    header("Replay throttle threshold (paper default: 1K restored-untouched)")?;
    let baseline = h.run_config(&FrontEndConfig::nl());
    line(format_args!("{:>12} {:>10}", "threshold", "speedup"))?;
    for threshold in [64u64, 256, 1_000, 4_000, u64::MAX] {
        let mut fe = FrontEndConfig::ignite();
        fe.select.ignite.as_mut().expect("ignite").replay.throttle_threshold = threshold;
        fe.name = format!("Ignite thr={threshold}");
        let label = if threshold == u64::MAX { "off".to_string() } else { threshold.to_string() };
        let speedup = h.speedups(&baseline, &h.run_config(&fe)).mean;
        line(format_args!("{label:>12} {speedup:>10.3}"))?;
    }
    Ok(())
}

fn sweep_btb_size(h: &Harness) -> Result<(), Exit> {
    header("BTB size (5K = Ice Lake, 12K = Sapphire Rapids; §5.3)")?;
    line(format_args!("{:>10} {:>12} {:>12} {:>12}", "entries", "NL", "B+JB", "Ignite"))?;
    for entries in [5 * 1024 + 128, 12 * 1024] {
        // 5 K is not divisible by 6 ways; round to the nearest valid size.
        let mut uarch = UarchConfig::ice_lake_like();
        uarch.btb = BtbConfig { entries: entries - (entries % 6), ways: 6 };
        let mut results = Vec::new();
        let baseline: Vec<_> = h
            .functions()
            .iter()
            .map(|f| run_function(&uarch, &FrontEndConfig::nl(), f, h.opts))
            .collect();
        for fe in [FrontEndConfig::boomerang_jukebox(), FrontEndConfig::ignite()] {
            let runs: Vec<_> =
                h.functions().iter().map(|f| run_function(&uarch, &fe, f, h.opts)).collect();
            results.push(h.speedups(&baseline, &runs).mean);
        }
        line(format_args!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3}",
            uarch.btb.entries, 1.0, results[0], results[1]
        ))?;
    }
    Ok(())
}

fn sweep_divergence(h: &Harness) -> Result<(), Exit> {
    header("Cross-invocation divergence (§4.2; default site-deviation = 3%)")?;
    let opts = h.opts;
    line(format_args!("{:>10} {:>10} {:>12} {:>12}", "noise", "speedup", "BTB MPKI", "init MPKI"))?;
    for noise in [0.0, 0.01, 0.03, 0.10, 0.25] {
        let mut baseline = Vec::new();
        let mut results = Vec::new();
        for f in h.functions().iter().take(6) {
            let mut f = f.clone();
            f.noise = noise;
            baseline.push(run_function(&h.uarch, &FrontEndConfig::nl(), &f, opts));
            results.push(run_function(&h.uarch, &FrontEndConfig::ignite(), &f, opts));
        }
        let mean = |metric: fn(&ignite_engine::InvocationResult) -> f64| {
            results.iter().map(metric).sum::<f64>() / results.len() as f64
        };
        line(format_args!(
            "{:>10.2} {:>10.3} {:>12.2} {:>12.2}",
            noise,
            h.speedups(&baseline, &results).mean,
            mean(|r| r.btb_mpki()),
            mean(|r| r.initial_mpki())
        ))?;
    }
    Ok(())
}

fn sweep_faults(h: &Harness) -> Result<(), Exit> {
    header("Metadata fault injection (hardened decode; DESIGN.md fault model)")?;
    let baseline = h.run_config(&FrontEndConfig::nl());
    let fdp = h.speedups(&baseline, &h.run_config(&FrontEndConfig::fdp())).mean;
    line(format_args!("record-only floor (FDP): {fdp:.3}"))?;
    line(format_args!(
        "{:>10} {:>8} {:>10} {:>12} {:>10} {:>8} {:>10}",
        "fault", "rate", "speedup", "decode errs", "dropped", "stale", "watchdog"
    ))?;
    type Mk = fn(f64, u64) -> FaultPlan;
    for (kind, mk) in [("bit-flip", FaultPlan::bit_flips as Mk), ("stale", FaultPlan::stale as Mk)]
    {
        for rate in [0.0, 0.001, 0.01, 0.1, 1.0] {
            let fe = FrontEndConfig::ignite()
                .with_faults(&format!("{kind} {rate}"), mk(rate, 0x0016_117E));
            let results = h.run_config(&fe);
            let speedup = h.speedups(&baseline, &results).mean;
            let replay = results.iter().fold(ignite_core::ReplayStats::default(), |mut acc, r| {
                acc.merge(&r.replay);
                acc
            });
            line(format_args!(
                "{:>10} {:>8} {:>10.3} {:>12} {:>10} {:>8} {:>10}",
                kind,
                rate,
                speedup,
                replay.decode_errors,
                replay.entries_dropped,
                replay.stale_restored,
                replay.watchdog_abandons,
            ))?;
        }
    }
    Ok(())
}

fn sweep_host(h: &Harness) -> Result<(), Exit> {
    header("Ignite host prefetcher: FDP vs Boomerang (§5.3)")?;
    let baseline = h.run_config(&FrontEndConfig::nl());
    for fe in [FrontEndConfig::ignite(), FrontEndConfig::ignite_boomerang()] {
        let speedup = h.speedups(&baseline, &h.run_config(&fe)).mean;
        line(format_args!("{:<20} {speedup:>10.3}", fe.name))?;
    }
    Ok(())
}

/// An ablation by name; it fails only when stdout does.
type Sweep = (&'static str, fn(&Harness) -> Result<(), Exit>);

/// Every sweep, in the order `all` runs them.
const SWEEPS: [Sweep; 7] = [
    ("codec", sweep_codec),
    ("budget", sweep_budget),
    ("throttle", sweep_throttle),
    ("btb-size", sweep_btb_size),
    ("divergence", sweep_divergence),
    ("host", sweep_host),
    ("faults", sweep_faults),
];

fn main() -> ExitCode {
    match cli::args(usage).and_then(parse).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => {
            let names: Vec<&str> = SWEEPS.iter().map(|&(name, _)| name).collect();
            exit.report(format!(
                "usage: sweep [--scale F] [NAMES...]\nnames: {} | all",
                names.join(" ")
            ))
        }
    }
}

fn usage(message: impl std::fmt::Display) -> Exit {
    Exit::Usage(format!("error: {message}\n"))
}

/// The suite scale and the sweeps to run, in order.
fn parse(argv: Vec<String>) -> Result<(f64, Vec<Sweep>), Exit> {
    let (mut scale, mut all, mut sweeps) = (0.25, false, Vec::new());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let value = it.next().and_then(|v| v.parse().ok());
                scale = value.ok_or_else(|| usage("--scale needs a number"))?;
                check_scale(scale).map_err(|e| usage(format!("--scale: {e}")))?;
            }
            "all" => all = true,
            other => match SWEEPS.iter().find(|&&(name, _)| name == other) {
                Some(&sweep) => sweeps.push(sweep),
                None => return Err(usage(format!("unknown sweep {other}"))),
            },
        }
    }
    if all || sweeps.is_empty() {
        sweeps = SWEEPS.to_vec();
    }
    Ok((scale, sweeps))
}

/// Runs each sweep, isolated: one panicking ablation must not cost the
/// rest. A closed stdout stops the run.
fn run((scale, sweeps): (f64, Vec<Sweep>)) -> Result<(), Exit> {
    let h = &Harness::new(scale, RunOptions::quick());
    cli::run_isolated(
        sweeps.into_iter().map(|(name, sweep)| (name, move || sweep(h))),
        |name, _, result| match result {
            Ok(printed) => printed,
            Err(msg) => {
                eprintln!("[sweep {name} FAILED: {msg}]");
                Ok(())
            }
        },
        |failed| format!("{failed} sweep(s) failed:"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn parsed(args: &[&str]) -> Result<(f64, Vec<&'static str>), Exit> {
        let (scale, sweeps) = parse(args.iter().map(|a| a.to_string()).collect())?;
        Ok((scale, sweeps.iter().map(|&(name, _)| name).collect()))
    }

    #[test]
    fn the_parse_step_selects_sweeps_and_refuses_bad_arguments() {
        assert_eq!(parsed(&[]).map(|(s, w)| (s, w.len())), Ok((0.25, 7)));
        assert_eq!(
            parsed(&["host", "codec", "host"]).map(|p| p.1),
            Ok(vec!["host", "codec", "host"])
        );
        assert_eq!(parsed(&["codec", "all"]).map(|p| p.1.len()), Ok(7));
        assert_eq!(parsed(&["--scale", "0.5", "faults"]), Ok((0.5, vec!["faults"])));
        for (argv, message) in [
            (&["bogus"][..], "error: unknown sweep bogus\n"),
            (&["--scale"], "error: --scale needs a number\n"),
            (&["--scale", "x"], "error: --scale needs a number\n"),
        ] {
            assert_eq!(parsed(argv), Err(Exit::Usage(message.into())), "{argv:?}");
        }
    }

    /// `--scale` with each hostile value, alone and given twice, parses
    /// or is refused (exit 2), and never panics; no harness is built.
    #[test]
    fn hostile_scales_never_panic_the_parse() {
        let hostile = ["0", "-1", "4294967296", "9007199254740993", "18446744073709551616"];
        for v in hostile.into_iter().chain(["1e300", "nan", "inf", "", "1x"]) {
            for argv in [vec!["--scale", v], vec!["--scale", v, "--scale", v]] {
                let r = catch_unwind(AssertUnwindSafe(|| parsed(&argv)));
                assert!(matches!(r, Ok(Err(Exit::Usage(_)))), "{argv:?}");
            }
        }
    }
}
