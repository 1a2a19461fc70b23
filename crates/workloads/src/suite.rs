//! The 20-function benchmark suite (paper Table 1).
//!
//! Each function gets a [`FunctionProfile`] whose code size and branch
//! working set are calibrated to the paper's Fig. 2 (instruction working
//! sets of 240–620 KiB; branch working sets of 5.4 K BTB entries for Auth-G
//! up to ~14 K for RecO-P), with language-flavour parameters controlling
//! branch density and indirect-branch (interpreter dispatch) usage.

use ignite_uarch::addr::Addr;

use crate::cfg::CodeImage;
use crate::gen::{generate, GenParams};

/// Language runtime of a serverless function (Table 1 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// CPython: interpreter dispatch loops, large code footprint.
    Python,
    /// NodeJS/V8: JIT-compiled, branch-dense code.
    NodeJs,
    /// Go: AOT-compiled, longer basic blocks.
    Go,
}

impl Language {
    /// Table 1 abbreviation suffix.
    pub const fn suffix(self) -> &'static str {
        match self {
            Language::Python => "P",
            Language::NodeJs => "N",
            Language::Go => "G",
        }
    }

    fn indirect_fraction(self) -> f64 {
        match self {
            Language::Python => 0.04,
            Language::NodeJs => 0.02,
            Language::Go => 0.008,
        }
    }

    fn cond_fraction(self) -> f64 {
        match self {
            Language::Python => 0.60,
            Language::NodeJs => 0.70,
            Language::Go => 0.62,
        }
    }

    fn call_fraction(self) -> f64 {
        match self {
            Language::Python => 0.12,
            Language::NodeJs => 0.10,
            Language::Go => 0.10,
        }
    }
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Language::Python => write!(f, "Python"),
            Language::NodeJs => write!(f, "NodeJS"),
            Language::Go => write!(f, "Go"),
        }
    }
}

/// Calibration targets for one suite function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Full name (Table 1).
    pub name: String,
    /// Abbreviation, e.g. `RecO-P` (Table 1 / figure x-axes).
    pub abbr: String,
    /// Language runtime.
    pub language: Language,
    /// Target static code size in KiB (Fig. 2a: 240–620).
    pub code_kib: u32,
    /// Target branch working set in BTB entries (Fig. 2b: 5.4 K–14 K).
    pub branch_ws: u32,
    /// Dynamic instructions per invocation.
    pub invocation_instrs: u64,
    /// Approximate data working set in cache lines (back-end stall model).
    pub data_ws_lines: u64,
}

/// A suite function: its profile plus the generated code image.
#[derive(Debug, Clone)]
pub struct SuiteFunction {
    /// Calibration profile.
    pub profile: FunctionProfile,
    /// Generated code image.
    pub image: CodeImage,
}

/// The benchmark suite.
#[derive(Debug, Clone)]
pub struct Suite {
    functions: Vec<SuiteFunction>,
}

/// `(name, abbr, language, code KiB, branch WS)` for the 20 paper functions.
const PAPER_FUNCTIONS: [(&str, &str, Language, u32, u32); 20] = [
    ("AES", "AES-P", Language::Python, 420, 9_500),
    ("Authentication", "Auth-P", Language::Python, 390, 9_000),
    ("Fibonacci", "Fib-P", Language::Python, 300, 8_000),
    ("Email", "Email-P", Language::Python, 500, 11_000),
    ("Recommend (Online Boutique)", "RecO-P", Language::Python, 620, 14_000),
    ("AES", "AES-N", Language::NodeJs, 400, 11_000),
    ("Authentication", "Auth-N", Language::NodeJs, 380, 10_500),
    ("Fibonacci", "Fib-N", Language::NodeJs, 320, 9_500),
    ("Currency", "Curr-N", Language::NodeJs, 420, 11_500),
    ("Payment", "Pay-N", Language::NodeJs, 440, 12_000),
    ("AES", "AES-G", Language::Go, 300, 7_000),
    ("Authentication", "Auth-G", Language::Go, 240, 5_400),
    ("Fibonacci", "Fib-G", Language::Go, 250, 5_800),
    ("Geo", "Geo-G", Language::Go, 320, 7_500),
    ("Profile", "Prof-G", Language::Go, 340, 8_000),
    ("Rate", "Rate-G", Language::Go, 300, 7_200),
    ("Recommend (Hotel)", "RecH-G", Language::Go, 360, 8_500),
    ("Reservation", "Res-G", Language::Go, 330, 7_800),
    ("User", "User-G", Language::Go, 310, 7_400),
    ("Shipping", "Ship-G", Language::Go, 350, 8_200),
];

/// A suite scale factor [`check_scale`] refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleError {
    /// Not finite, or not above zero.
    NonPositive(f64),
    /// Above 1.0, the paper's full suite.
    AboveFull(f64),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::NonPositive(v) => write!(f, "scale must be finite and positive, got {v}"),
            ScaleError::AboveFull(v) => {
                write!(f, "scale must be at most 1 (the paper's full suite), got {v}")
            }
        }
    }
}

impl std::error::Error for ScaleError {}

/// Checks a suite scale factor: finite, above zero and at most 1.0, the
/// paper's full suite. Every entry point that builds a suite from a
/// user's scale checks it here.
pub fn check_scale(factor: f64) -> Result<(), ScaleError> {
    if !factor.is_finite() || factor <= 0.0 {
        Err(ScaleError::NonPositive(factor))
    } else if factor > 1.0 {
        Err(ScaleError::AboveFull(factor))
    } else {
        Ok(())
    }
}

impl Suite {
    /// The full 20-function suite at paper scale.
    ///
    /// Invocation lengths are set so the cold-front-end miss rates land in
    /// the paper's MPKI range (hundreds of thousands of instructions per
    /// invocation, matching millisecond-scale functions).
    pub fn paper_suite() -> Self {
        Suite::paper_suite_scaled(1.0)
    }

    /// The suite with code size, branch working set and invocation length
    /// scaled by `factor` (use small factors, e.g. `0.02`, for fast tests).
    ///
    /// # Panics
    ///
    /// Panics if [`check_scale`] refuses `factor`.
    pub fn paper_suite_scaled(factor: f64) -> Self {
        if let Err(e) = check_scale(factor) {
            panic!("{e}");
        }
        let functions = PAPER_FUNCTIONS
            .iter()
            .enumerate()
            .map(|(i, (name, abbr, language, code_kib, branch_ws))| {
                let code_kib = ((f64::from(*code_kib) * factor) as u32).max(16);
                let branch_ws = ((f64::from(*branch_ws) * factor) as u32).max(64);
                let profile = FunctionProfile {
                    name: (*name).to_string(),
                    abbr: (*abbr).to_string(),
                    language: *language,
                    code_kib,
                    branch_ws,
                    invocation_instrs: (u64::from(code_kib) * 1_600).max(4_000),
                    data_ws_lines: (u64::from(code_kib) * 8).max(256),
                };
                SuiteFunction { image: build_image(&profile, i as u64), profile }
            })
            .collect();
        Suite { functions }
    }

    /// All functions, in Table 1 / figure order.
    pub fn functions(&self) -> &[SuiteFunction] {
        &self.functions
    }

    /// Looks up a function by its abbreviation (e.g. `"Auth-G"`).
    pub fn by_abbr(&self, abbr: &str) -> Option<&SuiteFunction> {
        self.functions.iter().find(|f| f.profile.abbr == abbr)
    }
}

/// Generates the code image for a profile.
pub fn build_image(profile: &FunctionProfile, index: u64) -> CodeImage {
    let params = GenParams {
        name: profile.abbr.clone(),
        // Structural seed derives from the abbreviation so each function has
        // distinct but stable code.
        seed: profile
            .abbr
            .bytes()
            .fold(0x9E37_79B9u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b))),
        // Distinct 16 MiB-spaced address spaces per container.
        base: Addr::new(0x0040_0000 + index * 0x0100_0000),
        target_code_bytes: u64::from(profile.code_kib) * 1024,
        // Roughly half of the static branches are taken at least once per
        // invocation (rarely-taken checks never allocate), so target twice
        // the desired BTB working set.
        target_branches: profile.branch_ws * 2,
        indirect_fraction: profile.language.indirect_fraction(),
        call_fraction: profile.language.call_fraction(),
        cond_fraction: profile.language.cond_fraction(),
        backward_fraction: 0.20,
        high_bias_fraction: 0.80,
        blocks_per_function: 64,
        dead_code_fraction: 0.6,
    };
    generate(&params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::measure_working_set;

    #[test]
    fn suite_has_twenty_functions() {
        let s = Suite::paper_suite_scaled(0.02);
        assert_eq!(s.functions().len(), 20);
    }

    #[test]
    fn abbreviations_unique_and_ordered() {
        let s = Suite::paper_suite_scaled(0.02);
        let abbrs: Vec<_> = s.functions().iter().map(|f| f.profile.abbr.as_str()).collect();
        assert_eq!(abbrs[0], "AES-P");
        assert_eq!(abbrs[19], "Ship-G");
        let mut dedup = abbrs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    fn language_split_is_5_5_10() {
        let s = Suite::paper_suite_scaled(0.02);
        let count = |l: Language| s.functions().iter().filter(|f| f.profile.language == l).count();
        assert_eq!(count(Language::Python), 5);
        assert_eq!(count(Language::NodeJs), 5);
        assert_eq!(count(Language::Go), 10);
    }

    #[test]
    fn by_abbr_lookup() {
        let s = Suite::paper_suite_scaled(0.02);
        assert!(s.by_abbr("Auth-G").is_some());
        assert!(s.by_abbr("Nope-X").is_none());
    }

    #[test]
    fn address_spaces_do_not_overlap() {
        let s = Suite::paper_suite_scaled(0.05);
        for pair in s.functions().windows(2) {
            let a_end = pair[0].image.base().as_u64() + pair[0].image.code_bytes() * 2;
            let b_start = pair[1].image.base().as_u64();
            assert!(a_end < b_start, "images overlap");
        }
    }

    #[test]
    fn auth_g_smallest_branch_ws_reco_p_largest() {
        let s = Suite::paper_suite_scaled(0.02);
        let min = s.functions().iter().min_by_key(|f| f.profile.branch_ws).unwrap();
        let max = s.functions().iter().max_by_key(|f| f.profile.branch_ws).unwrap();
        assert_eq!(min.profile.abbr, "Auth-G");
        assert_eq!(max.profile.abbr, "RecO-P");
    }

    #[test]
    fn scaled_working_sets_track_profiles() {
        // At 5% scale, the measured working set should be within a factor of
        // ~2 of the scaled calibration target.
        let s = Suite::paper_suite_scaled(0.05);
        let f = s.by_abbr("RecO-P").unwrap();
        let ws = measure_working_set(&f.image, 0, f.profile.invocation_instrs);
        let target = u64::from(f.profile.code_kib) * 1024;
        assert!(
            ws.instruction_bytes > target / 2 && ws.instruction_bytes < target * 2,
            "instruction ws {} vs target {target}",
            ws.instruction_bytes
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        Suite::paper_suite_scaled(0.0);
    }
}
