//! The `--traffic` spec language.
//!
//! A spec is `kind[:arg,key=value,...]`:
//!
//! * `azure:PATH` or `azure:PATH,cpm=100000` — import an Azure-style CSV
//!   (see [`crate::azure`]); `cpm` is simulated cycles per trace minute.
//! * `mmpp:mults=1/6,dwells=300000/60000` — Markov-modulated Poisson;
//!   `/`-separated per-state rate multipliers and mean dwell cycles.
//!
//! `mmpp` takes its base rate, Zipf skew, seed, and horizon from the
//! surrounding arrival configuration (`--rate`, `--zipf`, `--seed`,
//! `--horizon`); omitted keys fall back to the defaults shown above.
//! The raw spec string is echoed verbatim into the cluster report's
//! config section, so goldens pin specs byte-for-byte.

use crate::azure::{AzureParseError, AzureSource, AzureTrace};
use crate::synth::MmppSource;
use ignite_workloads::suite::Suite;
use ignite_workloads::{ArrivalConfig, ArrivalSource};

/// A parsed, validated `--traffic` spec.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Azure-style CSV import.
    Azure {
        /// Path to the CSV file.
        path: String,
        /// Simulated cycles per trace minute.
        cycles_per_minute: u64,
    },
    /// Markov-modulated Poisson process.
    Mmpp {
        /// Per-state rate multipliers.
        mults: Vec<f64>,
        /// Per-state mean dwell times in cycles.
        dwells: Vec<f64>,
    },
}

/// Spec parse/validation error.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// Unknown spec kind.
    UnknownKind {
        /// The kind found before `:`.
        kind: String,
    },
    /// `azure:` without a path.
    MissingPath,
    /// A key the kind does not accept.
    UnknownKey {
        /// Spec kind.
        kind: &'static str,
        /// Offending key.
        key: String,
    },
    /// A value failed to parse or was out of domain.
    BadValue {
        /// Offending key.
        key: &'static str,
        /// Raw value text.
        value: String,
    },
    /// `mults` and `dwells` lists differ in length.
    MmppLengthMismatch {
        /// Number of multipliers.
        mults: usize,
        /// Number of dwell means.
        dwells: usize,
    },
    /// Every MMPP multiplier was zero.
    MmppAllZero,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty traffic spec"),
            SpecError::UnknownKind { kind } => {
                write!(f, "unknown traffic kind '{kind}' (expected azure, mmpp)")
            }
            SpecError::MissingPath => write!(f, "azure spec needs a path: azure:PATH"),
            SpecError::UnknownKey { kind, key } => {
                write!(f, "traffic kind '{kind}' does not accept key '{key}'")
            }
            SpecError::BadValue { key, value } => {
                write!(f, "bad traffic value for '{key}': '{value}'")
            }
            SpecError::MmppLengthMismatch { mults, dwells } => {
                write!(f, "mmpp lists differ: {mults} mults vs {dwells} dwells")
            }
            SpecError::MmppAllZero => write!(f, "mmpp needs at least one state with mult > 0"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Error building a source from a spec (I/O, trace parse, or a trace
/// too long for the cycle clock).
#[derive(Debug)]
pub enum BuildError {
    /// Reading the Azure CSV failed.
    Io {
        /// The path that failed.
        path: String,
        /// The I/O error text.
        error: String,
    },
    /// The Azure CSV failed to parse.
    Parse(AzureParseError),
    /// The Azure trace's minutes at `cpm` cycles each end past the
    /// `u64` cycle clock.
    SpanOverflow {
        /// Minute columns in the trace.
        minutes: usize,
        /// The configured cycles per minute.
        cycles_per_minute: u64,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Io { path, error } => write!(f, "cannot read '{path}': {error}"),
            BuildError::Parse(e) => write!(f, "azure trace: {e}"),
            BuildError::SpanOverflow { minutes, cycles_per_minute } => write!(
                f,
                "azure trace: {minutes} minutes at cpm={cycles_per_minute} end past the \
                 largest cycle ({}); lower cpm",
                u64::MAX
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl TrafficSpec {
    /// Parses and validates a spec string.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        if spec.is_empty() {
            return Err(SpecError::Empty);
        }
        let (kind, rest) = match spec.split_once(':') {
            Some((k, r)) => (k, r),
            None => (spec, ""),
        };
        match kind {
            "azure" => parse_azure(rest),
            "mmpp" => parse_mmpp(rest),
            _ => Err(SpecError::UnknownKind { kind: kind.to_string() }),
        }
    }

    /// The largest factor `mmpp` multiplies the base arrival rate by,
    /// its thinning envelope; `None` for `azure`, whose rate comes from
    /// the trace.
    pub fn peak_multiplier(&self) -> Option<f64> {
        match self {
            TrafficSpec::Azure { .. } => None,
            TrafficSpec::Mmpp { mults, .. } => Some(MmppSource::peak_multiplier(mults)),
        }
    }

    /// Builds the streaming source for this spec. `mmpp` draws base
    /// rate/skew/seed/horizon from `arrival`; `azure` reads its CSV now
    /// and maps onto `suite`.
    pub fn build(
        &self,
        arrival: &ArrivalConfig,
        suite: &Suite,
    ) -> Result<Box<dyn ArrivalSource>, BuildError> {
        match self {
            TrafficSpec::Azure { path, cycles_per_minute } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| BuildError::Io { path: path.clone(), error: e.to_string() })?;
                let trace = AzureTrace::parse(&text).map_err(BuildError::Parse)?;
                let cycles_per_minute = *cycles_per_minute;
                if trace.span_cycles(cycles_per_minute).is_none() {
                    let minutes = trace.minutes;
                    return Err(BuildError::SpanOverflow { minutes, cycles_per_minute });
                }
                Ok(Box::new(AzureSource::new(trace, suite, cycles_per_minute)))
            }
            TrafficSpec::Mmpp { mults, dwells } => {
                Ok(Box::new(MmppSource::new(arrival, mults.clone(), dwells.clone())))
            }
        }
    }
}

fn split_kvs<'a>(rest: &'a str, kind: &'static str) -> Result<Vec<(&'a str, &'a str)>, SpecError> {
    let mut kvs = Vec::new();
    for part in rest.split(',') {
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| SpecError::UnknownKey { kind, key: part.to_string() })?;
        kvs.push((k, v));
    }
    Ok(kvs)
}

fn parse_azure(rest: &str) -> Result<TrafficSpec, SpecError> {
    let mut parts = rest.split(',');
    let path = parts.next().unwrap_or("");
    if path.is_empty() {
        return Err(SpecError::MissingPath);
    }
    let mut cycles_per_minute = 100_000u64;
    for part in parts {
        match part.split_once('=') {
            Some(("cpm", v)) => {
                cycles_per_minute = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| SpecError::BadValue { key: "cpm", value: v.to_string() })?;
            }
            _ => return Err(SpecError::UnknownKey { kind: "azure", key: part.to_string() }),
        }
    }
    Ok(TrafficSpec::Azure { path: path.to_string(), cycles_per_minute })
}

fn parse_f64_list(raw: &str, key: &'static str) -> Result<Vec<f64>, SpecError> {
    let bad = || SpecError::BadValue { key, value: raw.to_string() };
    let mut out = Vec::new();
    for part in raw.split('/') {
        let v = part.parse::<f64>().map_err(|_| bad())?;
        if !v.is_finite() || v < 0.0 {
            return Err(bad());
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err(bad());
    }
    Ok(out)
}

fn parse_mmpp(rest: &str) -> Result<TrafficSpec, SpecError> {
    let mut mults = vec![1.0, 6.0];
    let mut dwells = vec![300_000.0, 60_000.0];
    for (k, v) in split_kvs(rest, "mmpp")? {
        match k {
            "mults" => mults = parse_f64_list(v, "mults")?,
            "dwells" => {
                dwells = parse_f64_list(v, "dwells")?;
                if dwells.iter().any(|&d| d <= 0.0) {
                    return Err(SpecError::BadValue { key: "dwells", value: v.to_string() });
                }
            }
            _ => return Err(SpecError::UnknownKey { kind: "mmpp", key: k.to_string() }),
        }
    }
    if mults.len() != dwells.len() {
        return Err(SpecError::MmppLengthMismatch { mults: mults.len(), dwells: dwells.len() });
    }
    if !mults.iter().any(|&m| m > 0.0) {
        return Err(SpecError::MmppAllZero);
    }
    Ok(TrafficSpec::Mmpp { mults, dwells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_workloads::Trace;

    #[test]
    fn parses_all_kinds_with_defaults() {
        assert_eq!(
            TrafficSpec::parse("azure:trace.csv").unwrap(),
            TrafficSpec::Azure { path: "trace.csv".to_string(), cycles_per_minute: 100_000 }
        );
        assert_eq!(
            TrafficSpec::parse("azure:trace.csv,cpm=50000").unwrap(),
            TrafficSpec::Azure { path: "trace.csv".to_string(), cycles_per_minute: 50_000 }
        );
        assert_eq!(
            TrafficSpec::parse("mmpp").unwrap(),
            TrafficSpec::Mmpp { mults: vec![1.0, 6.0], dwells: vec![300_000.0, 60_000.0] }
        );
        assert_eq!(
            TrafficSpec::parse("mmpp:mults=1/4/9,dwells=100/200/300").unwrap(),
            TrafficSpec::Mmpp { mults: vec![1.0, 4.0, 9.0], dwells: vec![100.0, 200.0, 300.0] }
        );
    }

    #[test]
    fn peak_multiplier_is_the_thinning_envelope() {
        let peak = |spec: &str| TrafficSpec::parse(spec).unwrap().peak_multiplier();
        assert_eq!(peak("mmpp:mults=1/9/0,dwells=100/200/300"), Some(9.0));
        assert_eq!(peak("azure:trace.csv"), None);
    }

    #[test]
    fn rejects_bad_specs() {
        use SpecError as E;
        assert_eq!(TrafficSpec::parse(""), Err(E::Empty));
        assert_eq!(
            TrafficSpec::parse("poisson:x=1"),
            Err(E::UnknownKind { kind: "poisson".to_string() })
        );
        assert_eq!(TrafficSpec::parse("azure:"), Err(E::MissingPath));
        assert_eq!(
            TrafficSpec::parse("azure:x.csv,nope=1"),
            Err(E::UnknownKey { kind: "azure", key: "nope=1".to_string() })
        );
        assert_eq!(
            TrafficSpec::parse("azure:x.csv,cpm=0"),
            Err(E::BadValue { key: "cpm", value: "0".to_string() })
        );
        assert_eq!(
            TrafficSpec::parse("mmpp:mults=1/2,dwells=100"),
            Err(E::MmppLengthMismatch { mults: 2, dwells: 1 })
        );
        assert_eq!(TrafficSpec::parse("mmpp:mults=0/0,dwells=1/1"), Err(E::MmppAllZero));
        assert_eq!(
            TrafficSpec::parse("mmpp:dwells=0/1"),
            Err(E::BadValue { key: "dwells", value: "0/1".to_string() })
        );
        for (spec, kind) in [("diurnal", "diurnal"), ("burst:every=400000", "burst")] {
            let err = TrafficSpec::parse(spec).unwrap_err();
            assert_eq!(err, E::UnknownKind { kind: kind.to_string() });
            let message = format!("unknown traffic kind '{kind}' (expected azure, mmpp)");
            assert_eq!(err.to_string(), message);
        }
        for spec in ["", "nope:1", "azure:", "mmpp:mults=x"] {
            if let Err(e) = TrafficSpec::parse(spec) {
                let _ = e.to_string();
            }
        }
    }

    #[test]
    fn built_sources_are_deterministic() {
        let arrival = ArrivalConfig { horizon_cycles: 2_000_000, ..ArrivalConfig::default() };
        let suite = Suite::paper_suite_scaled(0.02);
        for spec in ["mmpp", "mmpp:mults=1/8,dwells=400000/80000"] {
            let parsed = TrafficSpec::parse(spec).unwrap();
            let a = Trace::from_source(&mut *parsed.build(&arrival, &suite).unwrap());
            let b = Trace::from_source(&mut *parsed.build(&arrival, &suite).unwrap());
            assert_eq!(a, b, "spec {spec} not deterministic");
            assert!(!a.arrivals.is_empty(), "spec {spec} produced no arrivals");
        }
    }

    #[test]
    fn materialized_source_round_trips_trace_v1() {
        let arrival = ArrivalConfig { horizon_cycles: 1_000_000, ..ArrivalConfig::default() };
        let suite = Suite::paper_suite_scaled(0.02);
        let spec = TrafficSpec::parse("mmpp").unwrap();
        let trace = Trace::from_source(&mut *spec.build(&arrival, &suite).unwrap());
        let text = trace.to_text();
        assert_eq!(Trace::parse(&text).unwrap(), trace);
    }
}
