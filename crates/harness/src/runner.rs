//! Suite-wide experiment execution with thread parallelism and
//! per-function panic isolation (via the shared
//! [`ignite_cluster::fanout`] implementation).

use ignite_cluster::fanout;
use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::PreparedFunction;
use ignite_engine::metrics::InvocationResult;
use ignite_engine::protocol::{run_function, RunOptions};
use ignite_uarch::UarchConfig;
use ignite_workloads::suite::Suite;

/// One suite function failed (panicked) while simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionFailure {
    /// The function's Table-1 abbreviation.
    pub abbr: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl std::fmt::Display for FunctionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "function {} panicked: {}", self.abbr, self.message)
    }
}

impl std::error::Error for FunctionFailure {}

/// The harness: a prepared suite plus run parameters.
#[derive(Debug)]
pub struct Harness {
    /// Simulated machine parameters.
    pub uarch: UarchConfig,
    /// Run protocol (warm-up + measured invocations).
    pub opts: RunOptions,
    functions: Vec<PreparedFunction>,
    abbrs: Vec<String>,
    threads: usize,
    chaos_panic_at: Option<usize>,
}

impl Harness {
    /// Builds a harness over the paper suite at the given scale
    /// (1.0 = paper scale; smaller is faster).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn new(scale: f64, opts: RunOptions) -> Self {
        let suite = Suite::paper_suite_scaled(scale);
        let functions: Vec<PreparedFunction> = suite
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
            .collect();
        let abbrs = suite.functions().iter().map(|f| f.profile.abbr.clone()).collect();
        Harness {
            uarch: UarchConfig::ice_lake_like(),
            opts,
            functions,
            abbrs,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            chaos_panic_at: None,
        }
    }

    /// Full paper-scale harness (the `figures` binary default).
    pub fn paper() -> Self {
        Harness::paper_scaled(1.0)
    }

    /// Paper harness at a reduced scale.
    pub fn paper_scaled(scale: f64) -> Self {
        Harness::new(scale, RunOptions::default())
    }

    /// A small, fast harness for integration tests (~6% scale, one
    /// measured invocation).
    pub fn for_tests() -> Self {
        Harness::new(0.06, RunOptions::quick())
    }

    /// Function abbreviations, in Table 1 order.
    pub fn abbrs(&self) -> &[String] {
        &self.abbrs
    }

    /// The prepared functions.
    pub fn functions(&self) -> &[PreparedFunction] {
        &self.functions
    }

    /// Caps worker threads (for deterministic profiling).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Chaos hook: make the worker for function `index` panic before it
    /// simulates anything. Exists so panic isolation in
    /// [`Harness::run_config_checked`] can be exercised through the
    /// public API; harmless in production (it defaults to off).
    pub fn inject_panic_at(&mut self, index: Option<usize>) {
        self.chaos_panic_at = index;
    }

    /// Runs one front-end configuration over every suite function, in
    /// parallel. Each function is simulated under `catch_unwind`, so one
    /// panicking function (a simulator bug, a pathological workload)
    /// yields an `Err` in its slot instead of tearing down the whole
    /// sweep. Results are in suite order.
    pub fn run_config_checked(
        &self,
        fe: &FrontEndConfig,
    ) -> Vec<Result<InvocationResult, FunctionFailure>> {
        fanout::run_indexed(self.functions.len(), self.threads, |i| {
            if self.chaos_panic_at == Some(i) {
                panic!("chaos hook: injected panic at function index {i}");
            }
            run_function(&self.uarch, fe, &self.functions[i], self.opts)
        })
        .into_iter()
        .map(|r| {
            r.map_err(|p| FunctionFailure { abbr: self.abbrs[p.index].clone(), message: p.message })
        })
        .collect()
    }

    /// Runs one front-end configuration over every suite function,
    /// in parallel, returning per-function results in suite order.
    ///
    /// # Panics
    ///
    /// Panics (with the function's name and the original message) if any
    /// function fails; callers that want partial results should use
    /// [`Harness::run_config_checked`].
    pub fn run_config(&self, fe: &FrontEndConfig) -> Vec<InvocationResult> {
        self.run_config_checked(fe)
            .into_iter()
            .map(|r| match r {
                Ok(result) => result,
                Err(failure) => panic!("{failure} (config {})", fe.name),
            })
            .collect()
    }

    /// Runs several configurations; returns results indexed
    /// `[config][function]`.
    pub fn run_matrix(&self, configs: &[FrontEndConfig]) -> Vec<Vec<InvocationResult>> {
        configs.iter().map(|c| self.run_config(c)).collect()
    }

    /// The paper's headline metric: the speedup of `results` over
    /// `baseline` on each function, the ratio of their CPIs (an equal-work
    /// comparison, since cycles are normalized by instructions executed),
    /// and the suite mean of those ratios. Both slices are in suite order;
    /// they may stop short of the suite, as long as they match.
    ///
    /// # Panics
    ///
    /// Panics, naming the function, if either side has a non-positive or
    /// non-finite CPI: a function that executed zero instructions produces
    /// `cpi() == 0.0`, and quietly mapping that to "speedup 1.0" would
    /// hide a broken run inside an otherwise plausible figure.
    pub fn speedups(
        &self,
        baseline: &[InvocationResult],
        results: &[InvocationResult],
    ) -> Speedups {
        assert!(
            !results.is_empty() && results.len() == baseline.len(),
            "speedups of {} results over {} baseline runs",
            results.len(),
            baseline.len()
        );
        let per_function: Vec<f64> = self
            .abbrs
            .iter()
            .zip(baseline.iter().zip(results))
            .map(|(abbr, (b, r))| {
                let b_cpi = b.cpi();
                let r_cpi = r.cpi();
                assert!(
                    b_cpi > 0.0 && b_cpi.is_finite(),
                    "degenerate baseline CPI {b_cpi} for {abbr}: \
                     the run produced no instructions"
                );
                assert!(
                    r_cpi > 0.0 && r_cpi.is_finite(),
                    "degenerate CPI {r_cpi} for {abbr}: the run produced no instructions"
                );
                b_cpi / r_cpi
            })
            .collect();
        let mean = per_function.iter().sum::<f64>() / per_function.len() as f64;
        Speedups { per_function, mean }
    }
}

/// Speedups over a baseline ([`Harness::speedups`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Speedups {
    /// One per function, in suite order.
    pub per_function: Vec<f64>,
    /// The arithmetic mean of `per_function`.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_cluster::fanout::panic_message;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny() -> Harness {
        let mut h = Harness::new(0.02, RunOptions::quick());
        h.set_threads(2);
        h
    }

    #[test]
    fn runs_all_functions() {
        let h = tiny();
        let r = h.run_config(&FrontEndConfig::nl());
        assert_eq!(r.len(), 20);
        assert!(r.iter().all(|x| x.instructions > 0));
    }

    #[test]
    fn parallel_equals_serial() {
        let mut h = tiny();
        let par = h.run_config(&FrontEndConfig::nl());
        h.set_threads(1);
        let ser = h.run_config(&FrontEndConfig::nl());
        assert_eq!(par, ser, "thread count must not affect results");
    }

    #[test]
    fn speedup_of_baseline_is_one() {
        let h = tiny();
        let r = h.run_config(&FrontEndConfig::nl());
        let s = h.speedups(&r, &r);
        assert_eq!(s.per_function.len(), 20);
        assert!(s.per_function.iter().all(|v| (*v - 1.0).abs() < 1e-12));
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cpi_is_loud() {
        let h = tiny();
        let good = h.run_config(&FrontEndConfig::nl());
        let broken = vec![InvocationResult::default(); good.len()];
        let r = catch_unwind(AssertUnwindSafe(|| h.speedups(&good, &broken)));
        let msg = panic_message(r.expect_err("zero-CPI results must not pass"));
        assert!(msg.contains("degenerate"), "unexpected panic message: {msg}");
    }

    /// One function that executed nothing fails the suite mean, by name,
    /// instead of counting as a speedup of 1.0.
    #[test]
    fn suite_mean_over_an_empty_run_names_the_function() {
        let h = tiny();
        let baseline = h.run_config(&FrontEndConfig::nl());
        let mut results = baseline.clone();
        results[5] = InvocationResult::default();
        let r = catch_unwind(AssertUnwindSafe(|| h.speedups(&baseline, &results).mean));
        let msg = panic_message(r.expect_err("a zero-instruction run must not average in"));
        assert!(msg.contains(&format!("for {}:", h.abbrs()[5])), "got: {msg}");
    }

    #[test]
    fn injected_panic_is_isolated() {
        let mut h = tiny();
        h.inject_panic_at(Some(3));
        let r = h.run_config_checked(&FrontEndConfig::nl());
        assert_eq!(r.len(), 20);
        for (i, slot) in r.iter().enumerate() {
            if i == 3 {
                let f = slot.as_ref().expect_err("function 3 must fail");
                assert_eq!(f.abbr, h.abbrs()[3]);
                assert!(f.message.contains("chaos hook"));
            } else {
                assert!(slot.is_ok(), "function {i} must survive a sibling's panic");
            }
        }
    }

    #[test]
    fn run_config_panics_with_function_name() {
        let mut h = tiny();
        h.inject_panic_at(Some(0));
        let r = catch_unwind(AssertUnwindSafe(|| h.run_config(&FrontEndConfig::nl())));
        let msg = panic_message(r.expect_err("compat wrapper must propagate"));
        assert!(msg.contains(&h.abbrs()[0]) && msg.contains("chaos hook"), "got: {msg}");
    }
}
