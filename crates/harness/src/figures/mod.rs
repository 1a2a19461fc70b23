//! One module per reproduced paper table/figure.
//!
//! Every module exposes `run(&Harness) -> Figure`. The mapping to the
//! paper (workloads, parameters, expected shape) is documented per module
//! and indexed in DESIGN.md §3.

pub mod ext;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod tables;

use crate::figure::Series;

/// Builds a per-function series and appends the arithmetic mean as a final
/// `"Mean"` point (the way the paper's per-function figures end with a
/// mean bar).
pub(crate) fn per_function_series(
    label: &str,
    abbrs: &[String],
    values: impl IntoIterator<Item = f64>,
) -> Series {
    let mut points: Vec<(String, f64)> = abbrs.iter().cloned().zip(values).collect();
    let mean = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|(_, v)| v).sum::<f64>() / points.len() as f64
    };
    points.push(("Mean".to_string(), mean));
    Series { label: label.to_string(), points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_function_series_appends_mean() {
        let abbrs = vec!["a".to_string(), "b".to_string()];
        let s = per_function_series("t", &abbrs, [1.0, 3.0]);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.value("Mean"), Some(2.0));
    }
}
