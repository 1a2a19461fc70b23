//! Fig. 8: headline per-function performance results.
//!
//! Speedup over NL for Boomerang, Boomerang+JB, Ignite, Ignite+TAGE and
//! the Ideal front-end, per function and averaged.
//!
//! Paper shape: Ignite 21–62% (43% mean) over NL — 3.6× Boomerang's and
//! 2.2× Boomerang+JB's improvement; NodeJS functions benefit most;
//! Ignite+TAGE ≈ 50%; Ideal ≈ 61%.

use crate::figure::Figure;
use crate::figures::per_function_series;
use crate::runner::Harness;
use ignite_engine::config::FrontEndConfig;

/// The configurations of this figure, in legend order.
pub fn configs() -> Vec<FrontEndConfig> {
    vec![
        FrontEndConfig::boomerang(),
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::ignite(),
        FrontEndConfig::ignite_tage(),
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
        series.push(per_function_series(
            &cfg.name,
            h.abbrs(),
            h.speedups(&baseline, results).per_function,
        ));
    }
    Figure {
        id: "fig8".to_string(),
        caption: "Speedup over the next-line baseline, per function".to_string(),
        series,
        notes: "Paper shape: Boomerang +12%, Boomerang+JB +20%, Ignite +43%, \
                Ignite+TAGE +50%, Ideal +61% (means)."
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ordering_and_magnitudes() {
        let h = Harness::for_tests();
        let fig = run(&h);
        let mean = |name: &str| fig.series(name).unwrap().value("Mean").unwrap();
        let boomerang = mean("Boomerang");
        let bjb = mean("Boomerang + JB");
        let ignite = mean("Ignite");
        let ignite_tage = mean("Ignite + TAGE");
        let ideal = mean("Ideal");
        assert!(boomerang > 1.0);
        assert!(bjb > boomerang);
        assert!(ignite > bjb, "Ignite {ignite} must beat Boomerang+JB {bjb}");
        assert!(ignite_tage >= ignite);
        assert!(ideal > ignite_tage);
        // Ignite's improvement is a large multiple of Boomerang+JB's.
        assert!(
            (ignite - 1.0) > 1.5 * (bjb - 1.0),
            "Ignite gain {} vs B+JB gain {}",
            ignite - 1.0,
            bjb - 1.0
        );
    }

    #[test]
    fn every_function_gains_from_ignite() {
        let h = Harness::for_tests();
        let fig = run(&h);
        let s = fig.series("Ignite").unwrap();
        for (abbr, v) in &s.points {
            assert!(*v > 1.0, "{abbr} did not speed up: {v}");
        }
    }
}
