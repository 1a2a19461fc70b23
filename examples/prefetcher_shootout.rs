//! Every front-end configuration, head to head, over the whole suite
//! (a compact rendition of the paper's Figs. 3, 8 and 12 in one table).
//!
//! ```text
//! cargo run --release -p ignite-harness --example prefetcher_shootout
//! ```

use ignite_engine::config::FrontEndConfig;
use ignite_engine::protocol::RunOptions;
use ignite_harness::Harness;

fn main() {
    let harness = Harness::new(0.25, RunOptions::quick());
    let configs = [
        FrontEndConfig::nl(),
        FrontEndConfig::fdp(),
        FrontEndConfig::jukebox(),
        FrontEndConfig::boomerang(),
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::confluence(),
        FrontEndConfig::confluence_ignite(),
        FrontEndConfig::ignite(),
        FrontEndConfig::ignite_boomerang(),
        FrontEndConfig::ignite_tage(),
        FrontEndConfig::ideal(),
    ];

    let baseline = harness.run_config(&configs[0]);
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "configuration", "speedup", "CPI", "L1I MPKI", "BTB MPKI", "CBP MPKI"
    );
    for fe in &configs {
        let results = harness.run_config(fe);
        let n = results.len() as f64;
        let speedup = harness.speedups(&baseline, &results).mean;
        let mean = |f: &dyn Fn(&ignite_engine::InvocationResult) -> f64| {
            results.iter().map(f).sum::<f64>() / n
        };
        println!(
            "{:<22} {:>8.3} {:>9.3} {:>9.1} {:>9.1} {:>9.1}",
            fe.name,
            speedup,
            mean(&|r| r.cpi()),
            mean(&|r| r.l1i_mpki()),
            mean(&|r| r.btb_mpki()),
            mean(&|r| r.cbp_mpki()),
        );
    }
    println!(
        "\npaper means: Boomerang 1.12, Jukebox 1.16, Boomerang+JB 1.20, \
         Ignite 1.43, Ignite+TAGE 1.50, Ideal 1.61"
    );
}
