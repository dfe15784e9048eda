//! Recursive-matrix (R-MAT) generator.
//!
//! R-MAT (Chakrabarti et al.) recursively subdivides the adjacency matrix
//! into quadrants with skewed probabilities, producing the heavy-tailed,
//! community-structured graphs typical of SNAP datasets. Used as the
//! structure class for the large social-graph stand-ins (`googleplus`,
//! `soc_pokec`) where plain Chung–Lu under-represents clustering.

use super::{random_value, seeded_rng};
use crate::coo::CooMatrix;
use rand::Rng;
use std::collections::HashSet;

/// Default quadrant probabilities (the classic 0.57/0.19/0.19/0.05 split).
const DEFAULT_PROBS: [f64; 4] = [0.57, 0.19, 0.19, 0.05];

/// Generates an R-MAT matrix with default quadrant probabilities.
///
/// The recursion works on the smallest power-of-two square covering
/// `rows × cols`; samples falling outside the true shape are rejected.
///
/// # Panics
///
/// Panics if `nnz > rows × cols`.
#[must_use]
pub fn rmat(rows: usize, cols: usize, nnz: usize, seed: u64) -> CooMatrix {
    rmat_with_probs(rows, cols, nnz, DEFAULT_PROBS, seed)
}

/// Generates an R-MAT matrix with explicit quadrant probabilities
/// `[a, b, c, d]` (top-left, top-right, bottom-left, bottom-right).
///
/// # Panics
///
/// Panics if `nnz > rows × cols`, or probabilities are negative or do not
/// sum to ~1.
#[must_use]
fn rmat_with_probs(rows: usize, cols: usize, nnz: usize, probs: [f64; 4], seed: u64) -> CooMatrix {
    let cells = rows.checked_mul(cols).expect("cell count overflow");
    assert!(nnz <= cells, "cannot place {nnz} entries in {rows}x{cols}");
    let sum: f64 = probs.iter().sum();
    assert!(
        probs.iter().all(|&p| p >= 0.0) && (sum - 1.0).abs() < 1e-9,
        "quadrant probabilities must be non-negative and sum to 1"
    );
    let mut rng = seeded_rng(seed);

    let side = rows.max(cols).next_power_of_two();
    let levels = side.trailing_zeros();

    let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(nnz * 2);
    let mut rejections = 0usize;
    let rejection_limit = 1000 + 100 * nnz.max(1);
    while chosen.len() < nnz && rejections < rejection_limit {
        let (mut r, mut c) = (0usize, 0usize);
        for level in (0..levels).rev() {
            let x: f64 = rng.gen();
            // Add per-level noise so repeated descent doesn't produce an
            // exactly self-similar (and overly collision-prone) pattern.
            let (a, b, cq) = (probs[0], probs[1], probs[2]);
            let quadrant = if x < a {
                0
            } else if x < a + b {
                1
            } else if x < a + b + cq {
                2
            } else {
                3
            };
            if quadrant & 1 != 0 {
                c |= 1 << level;
            }
            if quadrant & 2 != 0 {
                r |= 1 << level;
            }
        }
        if r < rows && c < cols {
            if chosen.insert((r as u32, c as u32)) {
                rejections = 0;
            } else {
                rejections += 1;
            }
        } else {
            rejections += 1;
        }
    }

    let mut keys: Vec<(u32, u32)> = chosen.into_iter().collect();
    keys.sort_unstable();
    let mut coo = CooMatrix::new(rows, cols);
    for (r, c) in keys {
        coo.push(r as usize, c as usize, random_value(&mut rng))
            .expect("in bounds by construction");
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::stats::MatrixStats;

    #[test]
    fn reaches_target_nnz() {
        let m = rmat(512, 512, 4000, 1);
        assert_eq!(m.nnz(), 4000);
        m.check_duplicates().unwrap();
    }

    #[test]
    fn default_probs_skew_towards_low_indices() {
        let m = rmat(1024, 1024, 10_000, 2);
        // Quadrant (0,0) has probability 0.57 at every level, so far more
        // than a quarter of entries land in the top-left quadrant.
        let top_left = m.iter().filter(|&(r, c, _)| r < 512 && c < 512).count();
        assert!(
            top_left as f64 > 0.4 * m.nnz() as f64,
            "top-left fraction {}",
            top_left as f64 / m.nnz() as f64
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let m = rmat(2048, 2048, 30_000, 3);
        let stats = MatrixStats::from_csr(&CsrMatrix::from(&m));
        let rows = stats.row_summary();
        assert!((rows.max as f64) > rows.mean * 4.0);
    }

    #[test]
    fn uniform_probs_behave_uniformly() {
        let m = rmat_with_probs(256, 256, 5_000, [0.25; 4], 4);
        let stats = MatrixStats::from_csr(&CsrMatrix::from(&m));
        let rows = stats.row_summary();
        // Mean ~19.5; a uniform binomial max stays within ~3x the mean.
        assert!((rows.max as f64) < rows.mean * 3.0, "max {}", rows.max);
    }

    #[test]
    fn non_square_and_non_power_of_two_shapes() {
        let m = rmat(100, 300, 2_000, 5);
        assert_eq!((m.rows(), m.cols()), (100, 300));
        assert_eq!(m.nnz(), 2_000);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_probs_panic() {
        let _ = rmat_with_probs(8, 8, 4, [0.5, 0.5, 0.5, 0.5], 0);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(rmat(64, 64, 300, 11), rmat(64, 64, 300, 11));
    }
}
