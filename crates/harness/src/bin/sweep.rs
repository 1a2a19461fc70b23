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

use ignite_cluster::fanout::panic_message;
use ignite_core::codec::CodecConfig;
use ignite_core::FaultPlan;
use ignite_engine::config::FrontEndConfig;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_harness::Harness;
use ignite_uarch::btb::BtbConfig;
use ignite_uarch::UarchConfig;
use ignite_workloads::check_scale;

fn header(title: &str) {
    println!("\n## {title}\n");
}

fn sweep_codec(h: &Harness) {
    header("Codec delta widths (bits source/target; §4.1 vs §5.3 disagree)");
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
    println!("{:>6} {:>6} {:>12} {:>12} {:>10}", "src", "tgt", "bytes", "bits/entry", "fallback%");
    for (src, tgt) in [(7, 21), (9, 21), (13, 13), (21, 7), (16, 16), (5, 27), (12, 24)] {
        let mut enc = ignite_core::codec::Encoder::new(CodecConfig {
            src_delta_bits: src,
            tgt_delta_bits: tgt,
        });
        for e in &entries {
            enc.push(e);
        }
        println!(
            "{:>6} {:>6} {:>12} {:>12.1} {:>9.1}%",
            src,
            tgt,
            enc.byte_len(),
            enc.byte_len() as f64 * 8.0 / entries.len().max(1) as f64,
            enc.full_entries() as f64 / entries.len().max(1) as f64 * 100.0,
        );
    }
}

fn sweep_budget(h: &Harness) {
    header("Metadata budget (paper default: 120 KiB)");
    let baseline = h.run_config(&FrontEndConfig::nl());
    println!("{:>12} {:>10}", "budget", "speedup");
    for kib in [4usize, 8, 16, 32, 64, 120] {
        let mut fe = FrontEndConfig::ignite();
        let ignite = fe.select.ignite.as_mut().expect("ignite");
        ignite.metadata_budget_bytes = kib * 1024;
        fe.name = format!("Ignite {kib}KiB");
        println!("{:>9}KiB {:>10.3}", kib, h.speedups(&baseline, &h.run_config(&fe)).mean);
    }
}

fn sweep_throttle(h: &Harness) {
    header("Replay throttle threshold (paper default: 1K restored-untouched)");
    let baseline = h.run_config(&FrontEndConfig::nl());
    println!("{:>12} {:>10}", "threshold", "speedup");
    for threshold in [64u64, 256, 1_000, 4_000, u64::MAX] {
        let mut fe = FrontEndConfig::ignite();
        fe.select.ignite.as_mut().expect("ignite").replay.throttle_threshold = threshold;
        fe.name = format!("Ignite thr={threshold}");
        let label = if threshold == u64::MAX { "off".to_string() } else { threshold.to_string() };
        println!("{label:>12} {:>10.3}", h.speedups(&baseline, &h.run_config(&fe)).mean);
    }
}

fn sweep_btb_size(h: &Harness) {
    header("BTB size (5K = Ice Lake, 12K = Sapphire Rapids; §5.3)");
    println!("{:>10} {:>12} {:>12} {:>12}", "entries", "NL", "B+JB", "Ignite");
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
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3}",
            uarch.btb.entries, 1.0, results[0], results[1]
        );
    }
}

fn sweep_divergence(h: &Harness) {
    header("Cross-invocation divergence (§4.2; default site-deviation = 3%)");
    let opts = h.opts;
    println!("{:>10} {:>10} {:>12} {:>12}", "noise", "speedup", "BTB MPKI", "init MPKI");
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
        println!(
            "{:>10.2} {:>10.3} {:>12.2} {:>12.2}",
            noise,
            h.speedups(&baseline, &results).mean,
            mean(|r| r.btb_mpki()),
            mean(|r| r.initial_mpki())
        );
    }
}

fn sweep_faults(h: &Harness) {
    header("Metadata fault injection (hardened decode; DESIGN.md fault model)");
    let baseline = h.run_config(&FrontEndConfig::nl());
    let fdp = h.speedups(&baseline, &h.run_config(&FrontEndConfig::fdp())).mean;
    println!("record-only floor (FDP): {fdp:.3}");
    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>10} {:>8} {:>10}",
        "fault", "rate", "speedup", "decode errs", "dropped", "stale", "watchdog"
    );
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
            println!(
                "{:>10} {:>8} {:>10.3} {:>12} {:>10} {:>8} {:>10}",
                kind,
                rate,
                speedup,
                replay.decode_errors,
                replay.entries_dropped,
                replay.stale_restored,
                replay.watchdog_abandons,
            );
        }
    }
}

fn sweep_host(h: &Harness) {
    header("Ignite host prefetcher: FDP vs Boomerang (§5.3)");
    let baseline = h.run_config(&FrontEndConfig::nl());
    for fe in [FrontEndConfig::ignite(), FrontEndConfig::ignite_boomerang()] {
        println!("{:<20} {:>10.3}", fe.name, h.speedups(&baseline, &h.run_config(&fe)).mean);
    }
}

const SWEEP_NAMES: &[&str] =
    &["codec", "budget", "throttle", "btb-size", "divergence", "host", "faults"];

fn usage() -> ! {
    eprintln!("usage: sweep [--scale F] [NAMES...]");
    eprintln!("names: {} | all", SWEEP_NAMES.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.25f64;
    let mut which: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("error: --scale needs a number\n");
                        usage();
                    }
                };
                if let Err(e) = check_scale(scale) {
                    eprintln!("error: --scale: {e}\n");
                    usage();
                }
            }
            other => {
                if other != "all" && !SWEEP_NAMES.contains(&other) {
                    eprintln!("error: unknown sweep {other}\n");
                    usage();
                }
                which.push(other.to_string());
            }
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = SWEEP_NAMES.iter().map(|s| s.to_string()).collect();
    }
    let h = Harness::new(scale, RunOptions::quick());
    // Isolate each sweep: one panicking ablation must not cost the rest.
    let mut failures: Vec<(String, String)> = Vec::new();
    for w in &which {
        let run: Option<fn(&Harness)> = match w.as_str() {
            "codec" => Some(sweep_codec),
            "budget" => Some(sweep_budget),
            "throttle" => Some(sweep_throttle),
            "btb-size" => Some(sweep_btb_size),
            "divergence" => Some(sweep_divergence),
            "host" => Some(sweep_host),
            "faults" => Some(sweep_faults),
            other => {
                eprintln!("unknown sweep {other}");
                None
            }
        };
        let Some(run) = run else { continue };
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&h))) {
            let msg = panic_message(payload);
            eprintln!("[sweep {w} FAILED: {msg}]");
            failures.push((w.clone(), msg));
        }
    }
    if !failures.is_empty() {
        eprintln!("\n{} sweep(s) failed:", failures.len());
        for (w, msg) in &failures {
            eprintln!("  {w}: {msg}");
        }
        std::process::exit(1);
    }
}
