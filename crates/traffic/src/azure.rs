//! Azure-Functions-style trace import.
//!
//! The public Azure Functions traces (Shahrad et al., ATC'20) describe
//! each function by per-minute invocation counts plus duration and memory
//! percentiles. This module parses a compact CSV of that shape — strictly
//! and dependency-free, with line-numbered typed errors like the
//! `ignite-trace-v1` parser — and turns it into a streaming
//! [`ArrivalSource`] over the generated suite:
//!
//! * trace functions are ranked by duration percentile and bucketed onto
//!   suite functions ranked by per-invocation instruction count, so a
//!   long-running trace function lands on a large code image;
//! * each minute's `c` invocations are spread evenly across the minute
//!   (midpoint rule), so per-minute counts round-trip exactly while
//!   arrival cycles stay deterministic integers.
//!
//! # CSV format
//!
//! ```csv
//! function,duration_p50_ms,memory_p50_mb,m0,m1,m2
//! checkout,12.5,128,4,0,9
//! thumbnail,3.25,96,30,28,31
//! ```
//!
//! The first three columns are fixed; every further column is one minute
//! of invocation counts. Fields are comma-separated with no padding; LF
//! line endings only.

use ignite_workloads::suite::Suite;
use ignite_workloads::{Arrival, ArrivalSource};

/// One function row of an Azure-style trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureFunction {
    /// Function name (unique within the trace).
    pub name: String,
    /// Median invocation duration in milliseconds.
    pub duration_p50_ms: f64,
    /// Median allocated memory in MiB.
    pub memory_p50_mb: f64,
    /// Invocation count per minute; one entry per minute column.
    pub per_minute: Vec<u64>,
}

/// A parsed Azure-style trace: rows plus the shared minute-column count.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureTrace {
    /// Function rows in file order.
    pub functions: Vec<AzureFunction>,
    /// Number of minute columns.
    pub minutes: usize,
}

/// Typed Azure CSV parse error; lines are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub enum AzureParseError {
    /// The input had no lines at all.
    Empty,
    /// The header line did not match the expected fixed columns.
    BadHeader {
        /// The header actually found.
        found: String,
    },
    /// The header declared no minute columns.
    NoMinutes,
    /// A line ended with `\r\n`; only LF endings are accepted.
    CrlfLineEnding {
        /// Offending line.
        line: usize,
    },
    /// A field carried leading or trailing whitespace.
    StrayWhitespace {
        /// Offending line.
        line: usize,
    },
    /// A row had the wrong number of comma-separated fields.
    WrongFieldCount {
        /// Offending line.
        line: usize,
        /// Fields expected (3 fixed + minutes).
        expected: usize,
        /// Fields found.
        found: usize,
    },
    /// A row's function name was empty.
    EmptyName {
        /// Offending line.
        line: usize,
    },
    /// A numeric field failed to parse or was out of domain.
    BadNumber {
        /// Offending line.
        line: usize,
        /// Column name, e.g. `duration_p50_ms`.
        field: &'static str,
        /// The raw field text.
        value: String,
    },
    /// Two rows shared a function name.
    DuplicateFunction {
        /// Line of the second occurrence.
        line: usize,
        /// The repeated name.
        name: String,
    },
    /// The file had a header but no function rows.
    NoFunctions,
}

impl std::fmt::Display for AzureParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AzureParseError::Empty => write!(f, "empty azure trace"),
            AzureParseError::BadHeader { found } => write!(
                f,
                "bad azure header: expected 'function,duration_p50_ms,memory_p50_mb,<minutes...>', found '{found}'"
            ),
            AzureParseError::NoMinutes => write!(f, "azure header declares no minute columns"),
            AzureParseError::CrlfLineEnding { line } => {
                write!(f, "line {line}: CRLF line ending (LF only)")
            }
            AzureParseError::StrayWhitespace { line } => {
                write!(f, "line {line}: stray whitespace in field")
            }
            AzureParseError::WrongFieldCount { line, expected, found } => {
                write!(f, "line {line}: expected {expected} fields, found {found}")
            }
            AzureParseError::EmptyName { line } => write!(f, "line {line}: empty function name"),
            AzureParseError::BadNumber { line, field, value } => {
                write!(f, "line {line}: bad {field} value '{value}'")
            }
            AzureParseError::DuplicateFunction { line, name } => {
                write!(f, "line {line}: duplicate function '{name}'")
            }
            AzureParseError::NoFunctions => write!(f, "azure trace has no function rows"),
        }
    }
}

impl std::error::Error for AzureParseError {}

const FIXED_COLUMNS: [&str; 3] = ["function", "duration_p50_ms", "memory_p50_mb"];

impl AzureTrace {
    /// Parses the strict CSV format described in the module docs.
    pub fn parse(text: &str) -> Result<Self, AzureParseError> {
        // `str::lines` would silently strip `\r`; split on LF so CRLF
        // endings are caught and rejected.
        let mut lines = text.split('\n').enumerate();
        let (_, header) =
            lines.next().filter(|(_, l)| !l.is_empty()).ok_or(AzureParseError::Empty)?;
        check_line(header, 1)?;
        let cols: Vec<&str> = header.split(',').collect();
        if cols.len() < FIXED_COLUMNS.len() || cols[..3] != FIXED_COLUMNS {
            return Err(AzureParseError::BadHeader { found: header.to_string() });
        }
        let minutes = cols.len() - FIXED_COLUMNS.len();
        if minutes == 0 {
            return Err(AzureParseError::NoMinutes);
        }

        let mut functions: Vec<AzureFunction> = Vec::new();
        for (idx, raw) in lines {
            let line = idx + 1;
            if raw.is_empty() {
                continue;
            }
            check_line(raw, line)?;
            let fields: Vec<&str> = raw.split(',').collect();
            let expected = FIXED_COLUMNS.len() + minutes;
            if fields.len() != expected {
                return Err(AzureParseError::WrongFieldCount {
                    line,
                    expected,
                    found: fields.len(),
                });
            }
            let name = fields[0];
            if name.is_empty() {
                return Err(AzureParseError::EmptyName { line });
            }
            if functions.iter().any(|f| f.name == name) {
                return Err(AzureParseError::DuplicateFunction { line, name: name.to_string() });
            }
            let duration_p50_ms = parse_positive_f64(fields[1], line, "duration_p50_ms")?;
            let memory_p50_mb = parse_positive_f64(fields[2], line, "memory_p50_mb")?;
            let mut per_minute = Vec::with_capacity(minutes);
            for field in &fields[3..] {
                let count = field.parse::<u64>().map_err(|_| AzureParseError::BadNumber {
                    line,
                    field: "invocation count",
                    value: (*field).to_string(),
                })?;
                per_minute.push(count);
            }
            functions.push(AzureFunction {
                name: name.to_string(),
                duration_p50_ms,
                memory_p50_mb,
                per_minute,
            });
        }
        if functions.is_empty() {
            return Err(AzureParseError::NoFunctions);
        }
        Ok(AzureTrace { functions, minutes })
    }

    /// Simulated cycles the trace spans at `cycles_per_minute`, or
    /// `None` when that overflows the `u64` cycle clock.
    pub(crate) fn span_cycles(&self, cycles_per_minute: u64) -> Option<u64> {
        (self.minutes as u64).checked_mul(cycles_per_minute)
    }

    /// Total invocations across all rows and minutes.
    pub fn total_invocations(&self) -> u64 {
        self.functions.iter().flat_map(|f| f.per_minute.iter()).sum()
    }

    /// Maps each trace function (in file order) to a suite function
    /// index: rank trace functions by median duration, rank suite
    /// functions by per-invocation instruction count, and bucket the
    /// duration ranking onto the size ranking. Deterministic: ties break
    /// by name (trace) and index (suite).
    pub fn map_to_suite(&self, suite: &Suite) -> Vec<u32> {
        let mut by_duration: Vec<usize> = (0..self.functions.len()).collect();
        by_duration.sort_by(|&a, &b| {
            let fa = &self.functions[a];
            let fb = &self.functions[b];
            fa.duration_p50_ms
                .partial_cmp(&fb.duration_p50_ms)
                .expect("durations are finite")
                .then_with(|| fa.name.cmp(&fb.name))
        });
        let mut by_size: Vec<usize> = (0..suite.functions().len()).collect();
        by_size.sort_by_key(|&i| (suite.functions()[i].profile.invocation_instrs, i));

        let n = self.functions.len();
        let mut mapped = vec![0u32; n];
        for (rank, &trace_idx) in by_duration.iter().enumerate() {
            let bucket = rank * by_size.len() / n;
            mapped[trace_idx] = by_size[bucket] as u32;
        }
        mapped
    }
}

/// Rejects CRLF endings and any whitespace anywhere in the line (fields
/// are machine-written; padding means a malformed producer).
fn check_line(raw: &str, line: usize) -> Result<(), AzureParseError> {
    if raw.ends_with('\r') {
        return Err(AzureParseError::CrlfLineEnding { line });
    }
    if raw.chars().any(|c| c.is_whitespace()) {
        return Err(AzureParseError::StrayWhitespace { line });
    }
    Ok(())
}

fn parse_positive_f64(
    field: &str,
    line: usize,
    name: &'static str,
) -> Result<f64, AzureParseError> {
    let bad = || AzureParseError::BadNumber { line, field: name, value: field.to_string() };
    let v = field.parse::<f64>().map_err(|_| bad())?;
    if !v.is_finite() || v <= 0.0 {
        return Err(bad());
    }
    Ok(v)
}

/// Streams an [`AzureTrace`] as arrivals over the suite, one minute of
/// buffered arrivals at a time — O(busiest minute) state, not O(trace).
///
/// Minute `m`'s `c` invocations of a function land at integer cycles
/// `m·cpm + ((2k+1)·cpm)/(2c)` for `k = 0..c` (midpoints of `c` equal
/// slots), merged across functions in (cycle, function) order.
#[derive(Debug, Clone)]
pub struct AzureSource {
    trace: AzureTrace,
    mapped: Vec<u32>,
    suite_functions: usize,
    cycles_per_minute: u64,
    minute: usize,
    /// Current minute's arrivals, reversed so `pop` yields stream order.
    buffer: Vec<Arrival>,
}

impl AzureSource {
    /// Builds the source; the mapping is fixed at construction.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_minute` is zero, the trace's minutes at that
    /// rate end past `u64::MAX`, or the suite is empty.
    pub fn new(trace: AzureTrace, suite: &Suite, cycles_per_minute: u64) -> Self {
        assert!(cycles_per_minute > 0, "cycles_per_minute must be positive");
        assert!(trace.span_cycles(cycles_per_minute).is_some(), "trace span overflows u64");
        assert!(!suite.functions().is_empty(), "empty suite");
        let mapped = trace.map_to_suite(suite);
        AzureSource {
            trace,
            mapped,
            suite_functions: suite.functions().len(),
            cycles_per_minute,
            minute: 0,
            buffer: Vec::new(),
        }
    }

    /// The fixed trace-function → suite-index mapping.
    pub fn mapping(&self) -> &[u32] {
        &self.mapped
    }

    fn fill_minute(&mut self, minute: usize) {
        let cpm = self.cycles_per_minute;
        // No overflow: `new` refused a trace whose last minute ends past
        // `u64::MAX`, and each offset is below `cpm`.
        let base = minute as u64 * cpm;
        for (idx, function) in self.trace.functions.iter().enumerate() {
            let c = u128::from(function.per_minute[minute]);
            for k in 0..c {
                let offset = ((2 * k + 1) * u128::from(cpm) / (2 * c)) as u64;
                self.buffer.push(Arrival { cycle: base + offset, function: self.mapped[idx] });
            }
        }
        self.buffer.sort_unstable_by_key(|a| (a.cycle, a.function));
        self.buffer.reverse();
    }
}

impl ArrivalSource for AzureSource {
    fn functions(&self) -> usize {
        self.suite_functions
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        while self.buffer.is_empty() && self.minute < self.trace.minutes {
            let minute = self.minute;
            self.minute += 1;
            self.fill_minute(minute);
        }
        self.buffer.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "function,duration_p50_ms,memory_p50_mb,m0,m1,m2\n\
                        checkout,12.5,128,4,0,9\n\
                        thumbnail,3.25,96,30,28,31\n";

    #[test]
    fn parses_well_formed_trace() {
        let trace = AzureTrace::parse(GOOD).unwrap();
        assert_eq!(trace.minutes, 3);
        assert_eq!(trace.functions.len(), 2);
        assert_eq!(trace.functions[0].name, "checkout");
        assert_eq!(trace.functions[0].per_minute, vec![4, 0, 9]);
        assert_eq!(trace.functions[1].duration_p50_ms, 3.25);
        assert_eq!(trace.total_invocations(), 4 + 9 + 30 + 28 + 31);
    }

    #[test]
    fn rejects_malformed_traces() {
        use AzureParseError as E;
        let cases: Vec<(&str, E)> = vec![
            ("", E::Empty),
            (
                "function,oops,memory_p50_mb,m0\n",
                E::BadHeader { found: "function,oops,memory_p50_mb,m0".to_string() },
            ),
            ("function,duration_p50_ms,memory_p50_mb\n", E::NoMinutes),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\r\na,1,1,1\n",
                E::CrlfLineEnding { line: 1 },
            ),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na, 1,1,1\n",
                E::StrayWhitespace { line: 2 },
            ),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na,1,1,1,9\n",
                E::WrongFieldCount { line: 2, expected: 4, found: 5 },
            ),
            ("function,duration_p50_ms,memory_p50_mb,m0\n,1,1,1\n", E::EmptyName { line: 2 }),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na,zero,1,1\n",
                E::BadNumber { line: 2, field: "duration_p50_ms", value: "zero".to_string() },
            ),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na,-1,1,1\n",
                E::BadNumber { line: 2, field: "duration_p50_ms", value: "-1".to_string() },
            ),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na,1,1,-3\n",
                E::BadNumber { line: 2, field: "invocation count", value: "-3".to_string() },
            ),
            (
                "function,duration_p50_ms,memory_p50_mb,m0\na,1,1,1\na,2,2,2\n",
                E::DuplicateFunction { line: 3, name: "a".to_string() },
            ),
            ("function,duration_p50_ms,memory_p50_mb,m0\n", E::NoFunctions),
        ];
        for (text, want) in cases {
            assert_eq!(AzureTrace::parse(text), Err(want.clone()), "input: {text:?}");
            // Every error Displays without panicking.
            let _ = want.to_string();
        }
    }

    #[test]
    fn duration_ranking_maps_to_size_ranking() {
        let suite = Suite::paper_suite_scaled(0.02);
        let trace = AzureTrace::parse(GOOD).unwrap();
        let mapped = trace.map_to_suite(&suite);
        // checkout (12.5 ms) must land on a suite function at least as
        // large as thumbnail's (3.25 ms).
        let instrs = |i: u32| suite.functions()[i as usize].profile.invocation_instrs;
        assert!(instrs(mapped[0]) >= instrs(mapped[1]), "mapped {mapped:?}");
    }

    #[test]
    fn one_function_per_size_class_when_counts_match() {
        let suite = Suite::paper_suite_scaled(0.02);
        let n = suite.functions().len();
        let mut text = String::from("function,duration_p50_ms,memory_p50_mb,m0\n");
        for i in 0..n {
            text.push_str(&format!("f{i},{}.5,64,1\n", i + 1));
        }
        let trace = AzureTrace::parse(&text).unwrap();
        let mut mapped = trace.map_to_suite(&suite);
        mapped.sort_unstable();
        mapped.dedup();
        assert_eq!(mapped.len(), n, "with equal counts the mapping is a bijection");
    }

    #[test]
    fn source_emits_counts_in_order() {
        let suite = Suite::paper_suite_scaled(0.02);
        let trace = AzureTrace::parse(GOOD).unwrap();
        let total = trace.total_invocations();
        let mut source = AzureSource::new(trace, &suite, 100_000);
        assert_eq!(source.functions(), suite.functions().len());
        let mut arrivals = Vec::new();
        while let Some(a) = source.next_arrival() {
            arrivals.push(a);
        }
        assert_eq!(arrivals.len() as u64, total);
        for pair in arrivals.windows(2) {
            assert!(pair[0].cycle <= pair[1].cycle, "out of order: {pair:?}");
        }
        // Minute 1 has only thumbnail's 28 invocations.
        let minute1 = arrivals.iter().filter(|a| a.cycle >= 100_000 && a.cycle < 200_000).count();
        assert_eq!(minute1, 28);
        assert_eq!(source.next_arrival(), None);
    }

    #[test]
    fn midpoint_spacing_is_exact() {
        let suite = Suite::paper_suite_scaled(0.02);
        let text = "function,duration_p50_ms,memory_p50_mb,m0\nsolo,1.0,64,4\n";
        let trace = AzureTrace::parse(text).unwrap();
        let mut source = AzureSource::new(trace, &suite, 80_000);
        let cycles: Vec<u64> =
            std::iter::from_fn(|| source.next_arrival()).map(|a| a.cycle).collect();
        // 4 invocations over 80k cycles: midpoints of 20k slots.
        assert_eq!(cycles, vec![10_000, 30_000, 50_000, 70_000]);
    }
}
