//! Reduced-scale end-to-end benches, one per front-end configuration.
//!
//! Each bench simulates the first paper-suite function under one
//! configuration at reduced scale with [`RunOptions::quick`], reporting
//! simulated instructions per second of wall time (MIPS) and the
//! config's CPI. The simulations are deterministic, so instructions and
//! CPI are identical across reps and runs — only wall time varies.
//! Cluster-scale runs are measured by the repository benchmark in
//! `perfbench/`, which splits host time across the simulator's layers.

use std::rc::Rc;

use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::PreparedFunction;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_uarch::UarchConfig;
use ignite_workloads::suite::Suite;

use crate::{Bench, Kind, Mode};

/// Every front-end configuration the paper evaluates.
pub fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::nl(),
        FrontEndConfig::jukebox(),
        FrontEndConfig::boomerang(),
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::ignite(),
        FrontEndConfig::ignite_tage(),
        FrontEndConfig::ideal(),
    ]
}

/// Workload scale (fraction of paper scale) for each mode.
pub fn scale(mode: Mode) -> f64 {
    match mode {
        Mode::Quick => 0.06,
        Mode::Full => 0.25,
    }
}

/// Builds one end-to-end bench per front-end configuration.
///
/// The returned benches carry their (deterministic) CPI, computed from an
/// initial run that also serves as cache warmup.
pub fn e2e_benches(mode: Mode) -> Vec<Bench> {
    let suite = Suite::paper_suite_scaled(scale(mode));
    let f = Rc::new(PreparedFunction::from_suite(&suite.functions()[0], 0));
    let uarch = Rc::new(UarchConfig::ice_lake_like());
    let opts = RunOptions::quick();
    configs()
        .into_iter()
        .map(|config| {
            let first = run_function(&uarch, &config, &f, opts);
            let name = format!("e2e/{}", config.name);
            let config_name = config.name.clone();
            let f = Rc::clone(&f);
            let uarch = Rc::clone(&uarch);
            Bench {
                name,
                kind: Kind::EndToEnd,
                config: Some(config_name),
                cpi: Some(first.cpi()),
                run: Box::new(move || {
                    let r = run_function(&uarch, &config, &f, opts);
                    (r.instructions, r.cycles)
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_bench;

    #[test]
    fn e2e_benches_cover_every_config() {
        let benches = e2e_benches(Mode::Quick);
        assert_eq!(benches.len(), configs().len(), "one bench per front-end configuration");
        for b in &benches {
            assert!(b.cpi.unwrap() > 0.0, "{}: degenerate CPI", b.name);
        }
    }

    #[test]
    fn e2e_work_is_deterministic() {
        let mut benches = e2e_benches(Mode::Quick);
        let b = &mut benches[0];
        let r = run_bench(b, 0, 2);
        assert!(r.instructions > 0);
        assert!(r.mips > 0.0);
    }
}
