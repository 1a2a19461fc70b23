//! Fig. 4: sensitivity of Boomerang+JB to warm BPU state.
//!
//! Boomerang+JB under lukewarm state, with a preserved BTB, with preserved
//! BTB + CBP, against the Ideal front-end.
//!
//! Paper shape: a warm BTB adds ~4% speedup; warm BTB + CBP adds a further
//! ~10%, with large BPU MPKI reductions at each step.

use crate::figure::{Figure, Series};
use crate::runner::Harness;
use ignite_engine::config::{FrontEndConfig, StatePolicy};

/// The configurations of this figure, in legend order.
pub fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::boomerang_jukebox()
            .with_policy("+ warm BTB", StatePolicy::lukewarm_warm_btb()),
        FrontEndConfig::boomerang_jukebox()
            .with_policy("+ warm BTB + warm CBP", StatePolicy::lukewarm_warm_bpu()),
        FrontEndConfig::ideal(),
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
        id: "fig4".to_string(),
        caption: "Boomerang+JB sensitivity to preserved BPU state".to_string(),
        series,
        notes: "Paper shape: warm BTB helps; warm BTB+CBP helps substantially more; \
                both reduce L1-I misses by keeping the prefetcher on-path."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_bpu_state_monotonically_helps() {
        let h = Harness::for_tests();
        let fig = run(&h);
        let s = |name: &str| fig.series(name).unwrap().value("Speedup").unwrap();
        let base = s("Boomerang + JB");
        let warm_btb = s("Boomerang + JB + warm BTB");
        let warm_bpu = s("Boomerang + JB + warm BTB + warm CBP");
        assert!(warm_btb > base, "warm BTB must help: {warm_btb} vs {base}");
        assert!(warm_bpu > warm_btb, "warm CBP must add more: {warm_bpu} vs {warm_btb}");
        assert!(s("Ideal") >= warm_bpu * 0.99);
        // MPKI story corroborates.
        let btb = |name: &str| fig.series(name).unwrap().value("BTB MPKI").unwrap();
        assert!(btb("Boomerang + JB + warm BTB") < btb("Boomerang + JB") * 0.7);
        let cbp = |name: &str| fig.series(name).unwrap().value("CBP MPKI").unwrap();
        assert!(cbp("Boomerang + JB + warm BTB + warm CBP") < cbp("Boomerang + JB + warm BTB"));
    }
}
