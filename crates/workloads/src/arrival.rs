//! Open-loop invocation arrival processes for cluster simulation.
//!
//! Serverless traffic is bursty and heavily skewed: a few functions take
//! most invocations while a long tail stays nearly idle (the production
//! traces behind Ignite's lukewarm setting). This module generates that
//! shape deterministically:
//!
//! * inter-arrival times are exponential (Poisson process) with aggregate
//!   rate [`ArrivalConfig::rate_per_mcycle`],
//! * each arrival picks a function from a Zipf(`s`) popularity
//!   distribution over the suite,
//! * everything is driven by one [`SplitMix64`] stream, so a seed fully
//!   determines the schedule.
//!
//! The resulting [`Trace`] serializes to a line-oriented text format
//! (`ignite-trace-v1`) that round-trips exactly, so experiments can be
//! replayed, edited, or generated by external tools.

use ignite_uarch::rng::SplitMix64;

/// Parameters of the generated arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// RNG seed; same seed → identical trace.
    pub seed: u64,
    /// Number of functions invocations are spread over.
    pub functions: usize,
    /// Aggregate arrival rate, in invocations per million cycles.
    pub rate_per_mcycle: f64,
    /// Zipf skew exponent: 0.0 = uniform, 1.0 = classic Zipf.
    pub zipf_s: f64,
    /// Generation horizon in cycles; arrivals beyond it are not emitted.
    pub horizon_cycles: u64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            seed: 42,
            functions: 20,
            rate_per_mcycle: 60.0,
            zipf_s: 1.0,
            horizon_cycles: 4_000_000,
        }
    }
}

impl ArrivalConfig {
    /// Normalized Zipf popularity weights, most popular first
    /// (function 0 is the most popular).
    ///
    /// # Panics
    ///
    /// Panics if `functions` is zero or `zipf_s` is negative/non-finite.
    pub fn zipf_weights(&self) -> Vec<f64> {
        assert!(self.functions > 0, "need at least one function");
        assert!(self.zipf_s >= 0.0 && self.zipf_s.is_finite(), "bad zipf_s {}", self.zipf_s);
        let raw: Vec<f64> =
            (1..=self.functions).map(|k| 1.0 / (k as f64).powf(self.zipf_s)).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / sum).collect()
    }

    /// Cumulative Zipf weights — the monotone CDF table behind every
    /// categorical function draw (ends at ~1.0 up to rounding).
    ///
    /// # Panics
    ///
    /// Panics if `functions` is zero or `zipf_s` is negative/non-finite.
    pub fn zipf_cumulative(&self) -> Vec<f64> {
        let weights = self.zipf_weights();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        cumulative
    }

    /// The streaming form of [`ArrivalConfig::generate`]: same seed, same
    /// draws, same arrivals, but pulled one at a time with O(1) state.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_mcycle` is non-positive or non-finite, or on
    /// the [`ArrivalConfig::zipf_weights`] conditions.
    pub fn source(&self) -> PoissonZipfSource {
        PoissonZipfSource::new(self)
    }

    /// Generates the trace for this configuration by draining
    /// [`ArrivalConfig::source`].
    pub fn generate(&self) -> Trace {
        let mut source = self.source();
        let mut arrivals = Vec::new();
        while let Some(a) = source.next_arrival() {
            arrivals.push(a);
        }
        Trace { functions: self.functions, arrivals }
    }
}

/// Categorical draw from a cumulative weight table: the first index whose
/// cumulative weight strictly exceeds `v`, saturating at the last index.
///
/// The binary search (`partition_point` over the monotone table) returns
/// exactly what the original per-arrival linear scan
/// (`iter().position(|&c| v < c)`) returned for every draw `v` in
/// `[0, 1)`: both find the first entry greater than `v`, and both fall
/// back to the last index when float rounding left the table's tail at or
/// below `v`. The pin tests in this module hold the two bit-identical, and
/// the committed cluster goldens pin the resulting arrival streams.
///
/// # Panics
///
/// Panics if `cumulative` is empty.
pub fn pick_function(cumulative: &[f64], v: f64) -> u32 {
    let i = cumulative.partition_point(|&c| c <= v);
    i.min(cumulative.len() - 1) as u32
}

/// A lazily evaluated stream of arrivals in non-decreasing cycle order.
///
/// The cluster simulator pulls arrivals from a source one at a time
/// (`ClusterSim::run_source_policy_obs`), so a million-invocation run
/// holds O(1) arrival state instead of materializing the whole
/// [`Trace`]. Sources must be deterministic: the same constructed
/// source yields the same stream, and `None` is terminal (once
/// exhausted, a source keeps returning `None`).
pub trait ArrivalSource {
    /// Number of distinct function indices arrivals may carry.
    fn functions(&self) -> usize;

    /// The next arrival, or `None` once the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// The streaming Poisson/Zipf process behind [`ArrivalConfig::generate`]:
/// exponential gaps at the aggregate rate, a Zipf categorical function
/// draw per arrival, all on one forked [`SplitMix64`] stream. Draw order
/// is pinned (gap `u`, then function `v`), so the stream is bit-identical
/// to the pre-streaming materialized generator.
#[derive(Debug, Clone)]
pub struct PoissonZipfSource {
    functions: usize,
    cumulative: Vec<f64>,
    mean_gap: f64,
    horizon: f64,
    rng: SplitMix64,
    t: f64,
    done: bool,
}

impl PoissonZipfSource {
    /// Builds the source for a configuration.
    ///
    /// # Panics
    ///
    /// Panics on the [`ArrivalConfig::source`] conditions.
    pub fn new(cfg: &ArrivalConfig) -> Self {
        assert!(
            cfg.rate_per_mcycle > 0.0 && cfg.rate_per_mcycle.is_finite(),
            "bad rate {}",
            cfg.rate_per_mcycle
        );
        PoissonZipfSource {
            functions: cfg.functions,
            cumulative: cfg.zipf_cumulative(),
            mean_gap: 1.0e6 / cfg.rate_per_mcycle,
            horizon: cfg.horizon_cycles as f64,
            rng: SplitMix64::new(cfg.seed).fork(0x41_52_52_49_56), // "ARRIV"
            t: 0.0,
            done: false,
        }
    }
}

impl ArrivalSource for PoissonZipfSource {
    fn functions(&self) -> usize {
        self.functions
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        // Exponential inter-arrival via inverse transform; `next_f64`
        // is in [0, 1), so `1 - u` is in (0, 1] and the log is finite.
        let u = self.rng.next_f64();
        self.t += -self.mean_gap * (1.0 - u).ln();
        if self.t >= self.horizon {
            self.done = true;
            return None;
        }
        let v = self.rng.next_f64();
        let function = pick_function(&self.cumulative, v);
        Some(Arrival { cycle: self.t as u64, function })
    }
}

/// Streams a materialized [`Trace`] as an [`ArrivalSource`], so replayed
/// traces and generated streams drive the simulator through one code
/// path.
#[derive(Debug)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// Streams `trace` from its first arrival.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl ArrivalSource for TraceSource<'_> {
    fn functions(&self) -> usize {
        self.trace.functions
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.trace.arrivals.get(self.next).copied();
        if a.is_some() {
            self.next += 1;
        }
        a
    }
}

/// One invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Cycle at which the request reaches the worker.
    pub cycle: u64,
    /// Suite function index.
    pub function: u32,
}

/// A replayable invocation schedule: arrivals in non-decreasing cycle
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Number of distinct functions indices may refer to.
    pub functions: usize,
    /// The schedule, ordered by cycle.
    pub arrivals: Vec<Arrival>,
}

/// Schema tag of the text serialization.
pub const TRACE_SCHEMA: &str = "ignite-trace-v1";

/// Why a trace failed to parse. Every variant that concerns a specific
/// line carries its 1-based line number (the header is line 1), so a
/// broken multi-megabyte trace is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The input had no header line.
    Empty,
    /// The header named a schema other than [`TRACE_SCHEMA`].
    BadSchema {
        /// What the header actually said.
        found: String,
    },
    /// The header was not `<schema> <functions>` with `functions > 0`.
    BadHeader,
    /// A line ended in `\r`: the file has CRLF line endings, which the
    /// strict format rejects rather than silently misparsing.
    CrlfLineEnding {
        /// 1-based offending line.
        line: usize,
    },
    /// A line carried leading/trailing/doubled whitespace.
    StrayWhitespace {
        /// 1-based offending line.
        line: usize,
    },
    /// A data line was not `<cycle> <function>`.
    Malformed {
        /// 1-based offending line.
        line: usize,
    },
    /// The function index was at or beyond the header's function count.
    FunctionOutOfRange {
        /// 1-based offending line.
        line: usize,
        /// The out-of-range index.
        function: u32,
    },
    /// A cycle was smaller than the previous line's cycle.
    OutOfOrder {
        /// 1-based offending line.
        line: usize,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Empty => write!(f, "empty trace"),
            TraceParseError::BadSchema { found } => {
                write!(f, "bad trace schema {found:?}, want {TRACE_SCHEMA}")
            }
            TraceParseError::BadHeader => write!(f, "malformed trace header"),
            TraceParseError::CrlfLineEnding { line } => {
                write!(f, "line {line}: CRLF line ending (strict {TRACE_SCHEMA} is LF-only)")
            }
            TraceParseError::StrayWhitespace { line } => {
                write!(f, "line {line}: stray whitespace")
            }
            TraceParseError::Malformed { line } => {
                write!(f, "line {line}: malformed, want `<cycle> <function>`")
            }
            TraceParseError::FunctionOutOfRange { line, function } => {
                write!(f, "line {line}: function {function} out of range")
            }
            TraceParseError::OutOfOrder { line } => {
                write!(f, "line {line}: arrivals out of order")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Splits a strict `<a> <b>` line: exactly one space, no other
/// whitespace, both fields non-empty ASCII digits.
fn split_fields(line: &str, number: usize) -> Result<(&str, &str), TraceParseError> {
    if line.ends_with('\r') {
        return Err(TraceParseError::CrlfLineEnding { line: number });
    }
    if line != line.trim() || line.contains('\t') || line.contains("  ") {
        return Err(TraceParseError::StrayWhitespace { line: number });
    }
    let (a, b) = line.split_once(' ').ok_or(TraceParseError::Malformed { line: number })?;
    if a.is_empty() || b.is_empty() || b.contains(' ') {
        return Err(TraceParseError::Malformed { line: number });
    }
    Ok((a, b))
}

impl Trace {
    /// Serializes to the `ignite-trace-v1` text format: a header line,
    /// then one `<cycle> <function>` line per arrival.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(TRACE_SCHEMA);
        out.push(' ');
        out.push_str(&self.functions.to_string());
        out.push('\n');
        for a in &self.arrivals {
            out.push_str(&a.cycle.to_string());
            out.push(' ');
            out.push_str(&a.function.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the text format. Strict: unknown schema, malformed lines,
    /// out-of-range function indices, out-of-order cycles, CRLF line
    /// endings, and stray whitespace are all rejected with a
    /// [`TraceParseError`] naming the offending line. (`lines()`-style
    /// tolerant splitting would silently accept a CRLF file and bake
    /// `\r` into whatever field touched the line end in a laxer
    /// parser — strictness here keeps the format round-trip exact.)
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.split('\n');
        let header = lines.next().filter(|h| !h.is_empty()).ok_or(TraceParseError::Empty)?;
        let (schema, count) = split_fields(header, 1)?;
        if schema != TRACE_SCHEMA {
            return Err(TraceParseError::BadSchema { found: schema.to_string() });
        }
        let functions: usize = count.parse().map_err(|_| TraceParseError::BadHeader)?;
        if functions == 0 {
            return Err(TraceParseError::BadHeader);
        }
        let mut body: Vec<&str> = lines.collect();
        // A trailing newline leaves one empty final segment; every other
        // blank (or bare-`\r`) line is an error, not a skip.
        if body.last() == Some(&"") {
            body.pop();
        }
        let mut arrivals = Vec::with_capacity(body.len());
        let mut last_cycle = 0u64;
        for (i, line) in body.into_iter().enumerate() {
            let number = i + 2;
            if line == "\r" {
                return Err(TraceParseError::CrlfLineEnding { line: number });
            }
            if line.is_empty() {
                return Err(TraceParseError::Malformed { line: number });
            }
            let (c, f) = split_fields(line, number)?;
            let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
            if !digits(c) || !digits(f) {
                return Err(TraceParseError::Malformed { line: number });
            }
            let cycle: u64 = c.parse().map_err(|_| TraceParseError::Malformed { line: number })?;
            let function: u32 =
                f.parse().map_err(|_| TraceParseError::Malformed { line: number })?;
            if (function as usize) >= functions {
                return Err(TraceParseError::FunctionOutOfRange { line: number, function });
            }
            if cycle < last_cycle {
                return Err(TraceParseError::OutOfOrder { line: number });
            }
            last_cycle = cycle;
            arrivals.push(Arrival { cycle, function });
        }
        Ok(Trace { functions, arrivals })
    }

    /// Invocation count per function index.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.functions];
        for a in &self.arrivals {
            counts[a.function as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let cfg = ArrivalConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn categorical_draw_binary_search_matches_linear_scan() {
        // Pin for the CDF-table optimization: `pick_function`'s binary
        // search must agree with the original per-arrival linear scan
        // bit-for-bit, across skews and including exact boundary values.
        let linear = |cumulative: &[f64], v: f64| -> u32 {
            cumulative.iter().position(|&c| v < c).unwrap_or(cumulative.len() - 1) as u32
        };
        for &zipf_s in &[0.0, 0.5, 1.0, 2.5] {
            for &functions in &[1usize, 2, 20, 257] {
                let cfg = ArrivalConfig { functions, zipf_s, ..ArrivalConfig::default() };
                let cumulative = cfg.zipf_cumulative();
                let mut rng = SplitMix64::new(7).fork(0xC0FFEE);
                for _ in 0..10_000 {
                    let v = rng.next_f64();
                    assert_eq!(pick_function(&cumulative, v), linear(&cumulative, v), "v={v}");
                }
                for &edge in &cumulative {
                    assert_eq!(pick_function(&cumulative, edge), linear(&cumulative, edge));
                    let below = edge - f64::EPSILON;
                    assert_eq!(pick_function(&cumulative, below), linear(&cumulative, below));
                }
                assert_eq!(pick_function(&cumulative, 0.0), linear(&cumulative, 0.0));
            }
        }
    }

    #[test]
    fn default_trace_prefix_is_pinned() {
        // Absolute anchor for the arrival stream: concrete cycles and
        // function indices of the default configuration, recorded before
        // the streaming/CDF refactor. The committed cluster goldens pin
        // the same stream end-to-end; this pins it at the source.
        let trace = ArrivalConfig::default().generate();
        assert_eq!(trace.arrivals.len(), 259);
        let prefix: Vec<(u64, u32)> =
            trace.arrivals.iter().take(6).map(|a| (a.cycle, a.function)).collect();
        assert_eq!(
            prefix,
            vec![(3525, 0), (6273, 4), (7859, 2), (12918, 1), (21074, 1), (24982, 1)]
        );
    }

    #[test]
    fn streaming_source_matches_generate() {
        let cfg = ArrivalConfig {
            rate_per_mcycle: 90.0,
            zipf_s: 1.2,
            horizon_cycles: 2_000_000,
            ..ArrivalConfig::default()
        };
        let trace = cfg.generate();
        let mut source = cfg.source();
        assert_eq!(source.functions(), trace.functions);
        let mut streamed = Vec::new();
        while let Some(a) = source.next_arrival() {
            streamed.push(a);
        }
        assert_eq!(streamed, trace.arrivals);
        // `None` is terminal.
        assert_eq!(source.next_arrival(), None);
        assert_eq!(source.next_arrival(), None);
    }

    #[test]
    fn trace_source_replays_exactly() {
        let trace = ArrivalConfig::default().generate();
        let mut source = TraceSource::new(&trace);
        assert_eq!(source.functions(), trace.functions);
        let mut streamed = Vec::new();
        while let Some(a) = source.next_arrival() {
            streamed.push(a);
        }
        assert_eq!(streamed, trace.arrivals);
        assert_eq!(source.next_arrival(), None);
    }

    #[test]
    fn different_seed_different_trace() {
        let a = ArrivalConfig::default().generate();
        let b = ArrivalConfig { seed: 43, ..ArrivalConfig::default() }.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn rate_is_honored() {
        let cfg = ArrivalConfig {
            rate_per_mcycle: 100.0,
            horizon_cycles: 10_000_000,
            ..ArrivalConfig::default()
        };
        let n = cfg.generate().arrivals.len() as f64;
        let expected = 1000.0;
        assert!((n - expected).abs() < expected * 0.15, "got {n} arrivals, expected ~{expected}");
    }

    #[test]
    fn zipf_skew_orders_popularity() {
        let trace =
            ArrivalConfig { horizon_cycles: 20_000_000, ..ArrivalConfig::default() }.generate();
        let counts = trace.counts();
        // Zipf(1.0): the most popular function clearly dominates the tail.
        assert!(counts[0] > counts[10] * 2, "head {} tail {}", counts[0], counts[10]);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, trace.arrivals.len());
    }

    #[test]
    fn uniform_when_unskewed() {
        let w = ArrivalConfig { zipf_s: 0.0, ..ArrivalConfig::default() }.zipf_weights();
        for x in &w {
            assert!((x - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn text_round_trip() {
        let trace = ArrivalConfig::default().generate();
        let parsed = Trace::parse(&trace.to_text()).expect("round trip");
        assert_eq!(trace, parsed);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(Trace::parse(""), Err(TraceParseError::Empty));
        assert_eq!(
            Trace::parse("wrong-schema 20\n"),
            Err(TraceParseError::BadSchema { found: "wrong-schema".to_string() })
        );
        assert_eq!(Trace::parse("ignite-trace-v1 0\n"), Err(TraceParseError::BadHeader));
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100\n"),
            Err(TraceParseError::Malformed { line: 2 })
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 25\n"),
            Err(TraceParseError::FunctionOutOfRange { line: 2, function: 25 })
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 1\n50 1\n"),
            Err(TraceParseError::OutOfOrder { line: 3 })
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 1\n\n200 1\n"),
            Err(TraceParseError::Malformed { line: 3 }),
            "interior blank lines are not skipped"
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n+100 1\n"),
            Err(TraceParseError::Malformed { line: 2 }),
            "signed numerals are not digits"
        );
    }

    #[test]
    fn parse_rejects_crlf_naming_the_line() {
        // Regression: `str::lines()` strips `\r\n`, so a CRLF-converted
        // trace used to parse as if nothing happened — and a `\r` inside
        // a field would have been baked into the parsed value by laxer
        // splitting. Strict parsing names the first bad line instead.
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\r\n100 1\r\n"),
            Err(TraceParseError::CrlfLineEnding { line: 1 })
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 1\r\n"),
            Err(TraceParseError::CrlfLineEnding { line: 2 })
        );
        // A file ending in a lone CR after the final newline.
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 1\n\r"),
            Err(TraceParseError::CrlfLineEnding { line: 3 })
        );
    }

    #[test]
    fn parse_rejects_stray_whitespace_naming_the_line() {
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100 1 \n"),
            Err(TraceParseError::StrayWhitespace { line: 2 }),
            "trailing space"
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n 100 1\n"),
            Err(TraceParseError::StrayWhitespace { line: 2 }),
            "leading space"
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100  1\n"),
            Err(TraceParseError::StrayWhitespace { line: 2 }),
            "doubled separator"
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20\n100\t1\n"),
            Err(TraceParseError::StrayWhitespace { line: 2 }),
            "tab separator"
        );
        assert_eq!(
            Trace::parse("ignite-trace-v1 20 \n100 1\n"),
            Err(TraceParseError::StrayWhitespace { line: 1 }),
            "trailing space on the header"
        );
    }

    #[test]
    fn parse_error_display_names_the_line() {
        let err = Trace::parse("ignite-trace-v1 20\n100 1\r\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "got: {err}");
        let err = Trace::parse("ignite-trace-v1 20\n100 99\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "got: {err}");
    }
}
