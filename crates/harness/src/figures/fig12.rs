//! Fig. 12: temporal-streaming prefetchers (§6.5).
//!
//! Confluence alone, Confluence + Ignite, and FDP + Ignite (the paper's
//! "Ignite" configuration), as suite-mean speedup over NL plus L1-I and
//! BPU MPKI.
//!
//! Paper shape: Confluence alone gains little on lukewarm invocations
//! (cold-BPU resteers keep killing its streams); pairing it with Ignite
//! cuts L1-I misses ~28% and BPU misses ~50%; FDP+Ignite is slightly
//! better still.

use crate::figure::{Figure, Series};
use crate::runner::Harness;
use ignite_engine::config::FrontEndConfig;

/// The configurations of this figure, in legend order.
pub fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::confluence(),
        FrontEndConfig::confluence_ignite(),
        FrontEndConfig::ignite().with_policy("(FDP)", ignite_engine::StatePolicy::lukewarm()),
    ]
}

/// Runs the experiment.
pub fn run(h: &Harness) -> Figure {
    let baseline = h.run_config(&FrontEndConfig::nl());
    let configs = configs();
    let matrix = h.run_matrix(&configs);
    let mut series = Vec::new();
    for (cfg, results) in configs.iter().zip(&matrix) {
        let n = results.len() as f64;
        series.push(Series::new(
            cfg.name.clone(),
            [
                ("Speedup".to_string(), h.speedups(&baseline, results).mean),
                ("L1I MPKI".to_string(), results.iter().map(|r| r.l1i_mpki()).sum::<f64>() / n),
                ("BTB MPKI".to_string(), results.iter().map(|r| r.btb_mpki()).sum::<f64>() / n),
                ("CBP MPKI".to_string(), results.iter().map(|r| r.cbp_mpki()).sum::<f64>() / n),
            ],
        ));
    }
    Figure {
        id: "fig12".to_string(),
        caption: "Temporal-streaming prefetchers with and without Ignite".to_string(),
        series,
        notes: "Paper shape: Confluence alone gains little; Confluence+Ignite \
                sharply reduces L1-I and BPU MPKI; FDP+Ignite is slightly ahead."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignite_rescues_temporal_streaming() {
        let h = Harness::for_tests();
        let fig = run(&h);
        let s = |name: &str| fig.series(name).unwrap().value("Speedup").unwrap();
        let confluence = s("Confluence");
        let with_ignite = s("Confluence + Ignite");
        let fdp_ignite = s("Ignite (FDP)");
        assert!(with_ignite > confluence, "{with_ignite} vs {confluence}");
        assert!(
            fdp_ignite >= with_ignite * 0.90,
            "FDP+Ignite comparable: {fdp_ignite} vs {with_ignite}"
        );
        assert!(fdp_ignite > confluence, "Ignite beats bare Confluence either way");
        // BPU MPKI drops substantially with Ignite.
        let bpu = |name: &str| {
            let f = fig.series(name).unwrap();
            f.value("BTB MPKI").unwrap() + f.value("CBP MPKI").unwrap()
        };
        assert!(bpu("Confluence + Ignite") < bpu("Confluence") * 0.75);
    }
}
