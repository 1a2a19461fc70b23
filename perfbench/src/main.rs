//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `NAME` is `zipf-steady`, `mmpp-fleet` or `paper-protocol`. With
//! `--trace 0` the run sets the simulator up several times, then repeats
//! untraced reps for `S` seconds and reports the medians of the
//! end-to-end metrics, host times calibrated against a fixed kernel timed
//! between reps (see [`calib`]). With `--trace 1` it alternates untraced
//! and traced reps and reports the per-layer split of the median traced
//! rep; its times are not calibrated. Every rep's outputs are checked;
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod calib;
mod layers;
mod probe;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use workload::{ClusterWorkload, Kind, ProtocolWorkload, Rep, Workload};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Invocations one `zipf-steady` rep serves.
const ZIPF_ARRIVALS: usize = 600;
/// Invocations one `mmpp-fleet` rep serves.
const MMPP_ARRIVALS: usize = 3000;
/// Suite scale of `paper-protocol`.
const PROTOCOL_SCALE: f64 = 0.04;
/// Set-ups timed before each `--trace 0` rep; `setup_s` is the median
/// over all of them.
const SETUPS_PER_REP: usize = 3;
/// Fewest measured reps (pairs, when traced) per run.
const MIN_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("sim_kinv_per_s", "kinv/s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("peak_heap_mb", "MB"),
    ("alloc_kb_per_inv", "KB/inv"),
];

/// Per-layer metrics (`--trace 1`) and their units. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("engine.self_s", "s"),
    ("engine.calls", "count"),
    ("engine.ns_per_instr", "ns"),
    ("engine.sim_instructions", "count"),
    ("engine.sim_cpi", "cycles/instr"),
    ("engine.nl.ns_per_instr", "ns"),
    ("engine.jukebox.ns_per_instr", "ns"),
    ("engine.boomerang.ns_per_instr", "ns"),
    ("engine.boomerang_jb.ns_per_instr", "ns"),
    ("engine.ignite.ns_per_instr", "ns"),
    ("engine.ignite_tage.ns_per_instr", "ns"),
    ("engine.ideal.ns_per_instr", "ns"),
    ("stage.self_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.evictions", "count"),
    ("store.rejects", "count"),
    ("store.bytes_fetched", "bytes"),
    ("store.sim_hit_rate", "ratio"),
    ("des.self_s", "s"),
    ("des.events_per_inv", "count"),
    ("des.sim_mean_queue_kcycles", "kcycles"),
    ("des.sim_utilization", "ratio"),
    ("keepalive.sim_wasted_mcycles", "Mcycles"),
    ("traffic.self_s", "s"),
    ("traffic.arrivals", "count"),
    ("traffic.ns_per_arrival", "ns"),
    ("obs.self_s", "s"),
    ("obs.events", "count"),
    ("obs.ns_per_event", "ns"),
    ("obs.sim_alert_fires", "count"),
    ("control.self_s", "s"),
    ("control.calls", "count"),
    ("control.ns_per_call", "ns"),
    ("control.sim_epochs", "count"),
    ("control.sim_decisions", "count"),
    ("chaos.sim_retries", "count"),
    ("chaos.sim_degraded", "count"),
    ("chaos.sim_dropped", "count"),
    ("report.self_s", "s"),
    ("report.bytes", "bytes"),
    ("fanout.tasks", "count"),
    ("fanout.busy_s", "s"),
    ("fanout.efficiency", "ratio"),
    ("fanout.self_s", "s"),
    ("trace.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed: seed.unwrap_or(kind.default_seed()), seconds, trace })
}

/// What a run prints.
struct Summary {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Summary {
    /// Counts a rep's operations; a rep whose results differ from the
    /// reference rep of the same seed fails as a whole.
    fn add(&mut self, rep: &Rep, reference: u64) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        if rep.failed == 0 && rep.digest != reference {
            eprintln!("perfbench: simulated results differ between reps of one seed");
            self.failed += rep.ops;
        }
    }

    fn to_json(&self, units: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = units
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.iter().find(|(k, _)| k == name).map_or(0.0, |m| m.1);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `--trace 0`: a warm-up rep, then for `seconds` a fresh set-up (timed
/// [`SETUPS_PER_REP`] times) before every untraced rep, so set-up time is
/// sampled across the run like everything else. Every metric is a median
/// over reps except `peak_rss_mb`.
///
/// Host times are calibrated: the [`calib`] kernel is timed between reps,
/// and each rep's set-up and run times are divided by the mean of the
/// kernel's slowdowns right before and right after it. Rates derive from
/// the calibrated times.
fn end_to_end<W: Workload>(w: &W, seconds: Duration) -> Summary {
    let mut summary = Summary { attempted: 0, failed: 0, metrics: Vec::new() };
    // The warm-up rep fills caches and fixes the seed's reference digest.
    let warm = w.rep(&w.setup(), false);
    summary.add(&warm, warm.digest);
    let mut slowdown = calib::slowdown();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed() < seconds {
        let mut prepared = None;
        let mut setup = [0.0; SETUPS_PER_REP];
        for s in &mut setup {
            drop(prepared.take());
            let t = Instant::now();
            prepared = Some(w.setup());
            *s = t.elapsed().as_secs_f64();
        }
        let rep = w.rep(&prepared.expect("at least one set-up"), false);
        let before = std::mem::replace(&mut slowdown, calib::slowdown());
        let scale = 2.0 / (before + slowdown);
        setups.extend(setup.map(|s| s * scale));
        summary.add(&rep, warm.digest);
        reps.push((rep, scale));
    }
    let med = |f: &dyn Fn(&Rep, f64) -> f64| median(reps.iter().map(|(r, s)| f(r, *s)).collect());
    let secs = |r: &Rep, scale: f64| r.wall.as_secs_f64() * scale;
    summary.metrics = vec![
        ("setup_s", median(setups)),
        ("run_s", med(&secs)),
        ("cpu_s", med(&|r, scale| r.cpu_ns as f64 / 1e9 * scale)),
        ("sim_kinv_per_s", med(&|r, scale| r.invocations as f64 / secs(r, scale) / 1e3)),
        ("sim_mips", med(&|r, scale| r.instructions as f64 / secs(r, scale) / 1e6)),
        ("peak_rss_mb", probe::peak_rss_bytes().unwrap_or(0) as f64 / 1e6),
        ("peak_heap_mb", med(&|r, _| r.peak_heap as f64 / 1e6)),
        ("alloc_kb_per_inv", med(&|r, _| r.allocated as f64 / r.invocations.max(1) as f64 / 1e3)),
    ];
    let walls: Vec<String> =
        reps.iter().map(|(r, s)| format!("{:.3}x{:.2}", r.wall.as_secs_f64(), s)).collect();
    eprintln!("perfbench: {} reps, wall s x calibration: {}", reps.len(), walls.join(" "));
    summary
}

/// `--trace 1`: alternating untraced and traced reps for `seconds`; the
/// per-layer split is the traced rep with the median wall time.
fn per_layer<W: Workload>(w: &W, seconds: Duration) -> Summary {
    let prepared = w.setup();
    let mut summary = Summary { attempted: 0, failed: 0, metrics: Vec::new() };
    let warm = w.rep(&prepared, false);
    summary.add(&warm, warm.digest);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < MIN_REPS || start.elapsed() < seconds {
        for (reps, on) in [(&mut plain, false), (&mut traced, true)] {
            let rep = w.rep(&prepared, on);
            // Tracing must not perturb the simulation.
            summary.add(&rep, warm.digest);
            reps.push(rep);
        }
    }
    traced.sort_by_key(|r| r.wall);
    let mid = &traced[traced.len() / 2];
    let plain_s = median(plain.iter().map(|r| r.wall.as_secs_f64()).collect());
    let traced_s = median(traced.iter().map(|r| r.wall.as_secs_f64()).collect());
    summary.metrics = mid.layers.clone();
    summary.metrics.push(("trace.overhead_frac", traced_s / plain_s - 1.0));
    eprintln!("where the time goes (traced rep of median wall time):");
    let wall = mid.wall.as_secs_f64();
    for (name, v) in &mid.layers {
        if name.ends_with(".self_s") {
            eprintln!("  {name:<16} {v:>10.6} s  {:>6.2}%", 100.0 * v / wall);
        }
    }
    summary
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload zipf-steady|mmpp-fleet|paper-protocol \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs_f64(args.seconds);
    let (seed, trace) = (args.seed, args.trace);
    fn run<W: Workload>(w: &W, seconds: Duration, trace: bool) -> Summary {
        if trace {
            per_layer(w, seconds)
        } else {
            end_to_end(w, seconds)
        }
    }
    let summary = match args.kind {
        Kind::ZipfSteady => run(&ClusterWorkload::zipf_steady(seed, ZIPF_ARRIVALS), seconds, trace),
        Kind::MmppFleet => run(&ClusterWorkload::mmpp_fleet(seed, MMPP_ARRIVALS), seconds, trace),
        Kind::PaperProtocol => run(&ProtocolWorkload::new(seed, PROTOCOL_SCALE), seconds, trace),
    };
    eprintln!(
        "perfbench: {} seed {seed}: {} attempted, {} failed ({} CPUs available)",
        args.kind.name(),
        summary.attempted,
        summary.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", summary.to_json(if trace { &PER_LAYER } else { &END_TO_END }));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let field = |from: usize, key: &str| -> String {
            let tag = format!("\"{key}\": \"");
            let at = from + text[from..].find(&tag).expect("field present") + tag.len();
            text[at..].split('"').next().expect("closing quote").to_string()
        };
        for kind in Kind::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", kind.name())), "{}", kind.name());
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let tag = format!("\"name\": \"{name}\"");
            let at = text.find(&tag).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(text.matches(&tag).count(), 1, "{name} listed twice");
            assert_eq!(field(at, "unit"), *unit, "{name}");
        }
        assert_eq!(text.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload mmpp-fleet --trace 1").expect("valid");
        assert_eq!((a.kind, a.seed, a.trace), (Kind::MmppFleet, 42, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload zipf-steady --trace 2").is_err());
        assert!(args("--workload zipf-steady --seconds 0").is_err());
        assert!(args("--workload zipf-steady --seed").is_err());
        assert!(args("--seed 3").is_err());
    }
}
