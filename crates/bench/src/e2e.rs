//! Reduced-scale end-to-end benches: one per front-end configuration,
//! plus a cluster-layer run.
//!
//! Each per-config bench simulates the first paper-suite function under
//! one configuration at reduced scale with [`RunOptions::quick`],
//! reporting simulated instructions per second of wall time (MIPS) and
//! the config's CPI. The `e2e/cluster` bench serves a reduced Zipf
//! arrival trace over a small fleet through `ignite-cluster`, tracking
//! the throughput of the scheduler + metadata-store layer end to end.
//! The simulations are deterministic, so instructions and CPI are
//! identical across reps and runs — only wall time varies.

use std::rc::Rc;

use ignite_cluster::{ClusterConfig, ClusterSim};
use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::PreparedFunction;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_uarch::UarchConfig;
use ignite_workloads::arrival::ArrivalConfig;
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
        .chain(std::iter::once(cluster_bench(mode)))
        .chain(std::iter::once(cluster_obs_bench(mode)))
        .chain(std::iter::once(cluster_traffic_bench(mode)))
        .chain(std::iter::once(cluster_control_bench(mode)))
        .collect()
}

fn cluster_config(mode: Mode) -> ClusterConfig {
    let horizon = match mode {
        Mode::Quick => 600_000,
        Mode::Full => 3_000_000,
    };
    ClusterConfig {
        cores: 2,
        arrival: ArrivalConfig { horizon_cycles: horizon, ..ArrivalConfig::default() },
        ..ClusterConfig::default()
    }
}

/// The cluster-layer bench: a reduced fleet (2 cores) serving a fixed-seed
/// Zipf(1.0) trace under the Ignite config with a bounded metadata store.
fn cluster_bench(mode: Mode) -> Bench {
    let sim = Rc::new(ClusterSim::new(cluster_config(mode)));
    let first = sim.run().total_result();
    Bench {
        name: "e2e/cluster".to_string(),
        kind: Kind::EndToEnd,
        config: Some("cluster".to_string()),
        cpi: Some(first.cpi()),
        run: Box::new(move || {
            let r = sim.run().total_result();
            (r.instructions, r.cycles)
        }),
    }
}

/// The same cluster run with event tracing enabled into a ring buffer.
/// Comparing its MIPS against `e2e/cluster` measures the end-to-end
/// observability overhead, which the acceptance gate keeps under 2%.
fn cluster_obs_bench(mode: Mode) -> Bench {
    let sim = Rc::new(ClusterSim::new(cluster_config(mode)));
    let first = sim.run().total_result();
    Bench {
        name: "e2e/cluster-obs".to_string(),
        kind: Kind::EndToEnd,
        config: Some("cluster".to_string()),
        cpi: Some(first.cpi()),
        run: Box::new(move || {
            let mut buf = ignite_obs::TraceBuffer::new(1 << 18);
            let r = sim.run_obs(&mut buf).total_result();
            // Keep the buffer alive through the run; its length depends on
            // the trace and must not be optimized away.
            assert!(!buf.is_empty());
            (r.instructions, r.cycles)
        }),
    }
}

/// Streaming-workload bench: the same reduced fleet serving an MMPP
/// shaped source pulled lazily through `run_source` (source
/// construction included — it is part of the streaming arrival path).
/// Work units are *invocations*, so `mips` reads as millions of
/// invocations per wall-second and `cpi` as simulated cycles per
/// invocation.
fn cluster_traffic_bench(mode: Mode) -> Bench {
    let cfg = cluster_config(mode);
    let spec = ignite_traffic::TrafficSpec::parse("mmpp:mults=1/6,dwells=300000/60000")
        .expect("pinned mmpp spec parses");
    let suite = Suite::paper_suite_scaled(cfg.scale);
    let first = {
        let mut source = spec.build(&cfg.arrival, &suite).expect("pinned mmpp spec builds");
        ClusterSim::new(cfg.clone()).run_source(&mut *source)
    };
    let cycles_per_invocation =
        first.total_result().cycles as f64 / first.workload.arrivals.max(1) as f64;
    Bench {
        name: "e2e/cluster-traffic".to_string(),
        kind: Kind::EndToEnd,
        config: Some("cluster".to_string()),
        cpi: Some(cycles_per_invocation),
        run: Box::new(move || {
            let mut source = spec.build(&cfg.arrival, &suite).expect("pinned mmpp spec builds");
            let out = ClusterSim::new(cfg.clone()).run_source(&mut *source);
            (out.workload.arrivals, out.total_result().cycles)
        }),
    }
}

/// Controlled streaming bench: the `e2e/cluster-traffic` MMPP burst
/// workload with the default online policy controller in the loop
/// (fresh per rep — its decision state is part of the measured work).
/// Its `mips` (millions of invocations per wall-second) against
/// `e2e/cluster-traffic`'s is the decision-path overhead of the
/// per-completion `OnlineScope` fold plus epoch-boundary actuation.
fn cluster_control_bench(mode: Mode) -> Bench {
    let cfg = cluster_config(mode);
    let spec = ignite_traffic::TrafficSpec::parse("mmpp:mults=1/6,dwells=300000/60000")
        .expect("pinned mmpp spec parses");
    let suite = Suite::paper_suite_scaled(cfg.scale);
    let controlled = move |cfg: &ClusterConfig| {
        let mut source = spec.build(&cfg.arrival, &suite).expect("pinned mmpp spec builds");
        let mut controller = ignite_control::Controller::new(
            ignite_control::ControllerSpec::parse("default").expect("default spec parses"),
        );
        ClusterSim::new(cfg.clone()).run_source_policy_obs(
            &mut *source,
            &mut ignite_obs::NullSink,
            &mut controller,
        )
    };
    let first = controlled(&cfg);
    assert!(first.controller.is_some(), "controlled bench must carry stats");
    let cycles_per_invocation =
        first.total_result().cycles as f64 / first.workload.arrivals.max(1) as f64;
    Bench {
        name: "e2e/cluster-control".to_string(),
        kind: Kind::EndToEnd,
        config: Some("cluster".to_string()),
        cpi: Some(cycles_per_invocation),
        run: Box::new(move || {
            let out = controlled(&cfg);
            (out.workload.arrivals, out.total_result().cycles)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_bench;

    #[test]
    fn e2e_benches_cover_every_config() {
        let benches = e2e_benches(Mode::Quick);
        assert_eq!(
            benches.len(),
            configs().len() + 4,
            "per-config benches plus e2e/cluster, e2e/cluster-obs, e2e/cluster-traffic, \
             and e2e/cluster-control"
        );
        assert!(benches.iter().any(|b| b.name == "e2e/cluster"));
        assert!(benches.iter().any(|b| b.name == "e2e/cluster-obs"));
        assert!(benches.iter().any(|b| b.name == "e2e/cluster-traffic"));
        assert!(benches.iter().any(|b| b.name == "e2e/cluster-control"));
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
