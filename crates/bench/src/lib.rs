//! Benchmark harness regenerating every table and figure of the GUST paper.
//!
//! Each evaluation artifact has a runner in [`runners`] producing the same
//! rows/series the paper reports, and a `cargo bench` target that prints it:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — design qualities & geo-mean utilization |
//! | `fig7`   | Fig. 7(a,b) — utilization & cycles across designs |
//! | `fig8`   | Fig. 8(a–d) — speedup & energy gain over 1D |
//! | `fig9`   | Fig. 9 — bandwidth utilization |
//! | `table2` | Table 2 — resource consumption |
//! | `table4` | Tables 3 & 4 — GUST vs Serpens end to end |
//! | `table5` | Table 5 — per-partition resources |
//! | `bound`  | §3.4 Eqs. 9–11 validation + §3.3 naive-vs-1D crossover |
//! | `ablation` | greedy-vs-optimal coloring, LB on/off, parallel GUST (§5.5) |
//!
//! Scale: set `GUST_SCALE` (0 < s ≤ 1, default in [`env_scale`]) to shrink
//! matrix dimensions by `s` (non-zeros by `s²`). `GUST_SCALE=1` reproduces
//! the paper's published sizes; the default keeps a full `cargo bench`
//! sweep in the minutes range. Every report prints the scale it ran at.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod designs;
pub mod legacy;
pub mod runners;
pub mod table;
pub mod workloads;

pub use designs::Design;
pub use table::TextTable;
pub use workloads::{env_scale, test_vector};

/// Geometric mean of strictly positive values; `None` if empty or any
/// value is non-positive.
#[must_use]
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_of_powers() {
        let g = geo_mean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_rejects_empty_and_nonpositive() {
        assert_eq!(geo_mean(&[]), None);
        assert_eq!(geo_mean(&[1.0, 0.0]), None);
    }
}
