//! Fig. 5: which CBP component matters — BIM vs TAGE.
//!
//! Boomerang+JB with a warm BTB, then additionally preserving only the
//! bimodal (BIM), then the full CBP (BIM + TAGE).
//!
//! Paper shape: warm BIM alone recovers about half of the full-CBP
//! benefit (19.3 → 14.5 → 10 MPKI) despite being less than 1/10 the size.

use crate::figure::{Figure, Series};
use crate::runner::Harness;
use ignite_engine::config::{FrontEndConfig, StatePolicy};

/// The configurations of this figure, in legend order.
pub fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::boomerang_jukebox()
            .with_policy("(BTB warm, CBP cold)", StatePolicy::lukewarm_warm_btb()),
        FrontEndConfig::boomerang_jukebox()
            .with_policy("+ BIM warm", StatePolicy::lukewarm_warm_btb_bim()),
        FrontEndConfig::boomerang_jukebox()
            .with_policy("+ TAGE warm", StatePolicy::lukewarm_warm_bpu()),
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
                ("CBP MPKI".to_string(), results.iter().map(|r| r.cbp_mpki()).sum::<f64>() / n),
            ],
        ));
    }
    Figure {
        id: "fig5".to_string(),
        caption: "CBP-state sensitivity on Boomerang+JB with a warm BTB".to_string(),
        series,
        notes: "Paper shape: warm BIM alone achieves ~51% of the full warm-CBP \
                benefit in both MPKI and performance."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bim_recovers_substantial_fraction_of_cbp_benefit() {
        let h = Harness::for_tests();
        let fig = run(&h);
        let cbp = |name: &str| fig.series(name).unwrap().value("CBP MPKI").unwrap();
        let cold = cbp("Boomerang + JB (BTB warm, CBP cold)");
        let bim = cbp("Boomerang + JB + BIM warm");
        let full = cbp("Boomerang + JB + TAGE warm");
        assert!(bim < cold, "warm BIM reduces mispredictions: {bim} vs {cold}");
        assert!(full <= bim, "full warm CBP at least as good: {full} vs {bim}");
        // BIM alone covers a meaningful fraction of the full benefit.
        let fraction = (cold - bim) / (cold - full).max(1e-9);
        assert!(fraction > 0.3, "BIM fraction of CBP benefit = {fraction}");
    }
}
