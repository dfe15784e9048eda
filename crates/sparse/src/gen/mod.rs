//! Deterministic synthetic matrix generators.
//!
//! The paper's §4 evaluates on synthetic matrices "with uniform, power-law
//! and k-regular distribution and a dimension of 16,384 over a density range
//! of 1e-4 to 5e-2" (generated with the SNAP toolkit) plus real SuiteSparse /
//! SNAP matrices. This module provides seeded, reproducible equivalents of
//! each distribution family, plus the structured families (circuit, banded
//! FEM, dense blocks) used by [`crate::suite`] to stand in for the real
//! matrices, and the exact Mycielskian construction for `mycielskian11`.
//!
//! All generators are deterministic in `(parameters, seed)`.

mod k_regular;
mod mycielskian;
mod power_law;
mod rmat;
mod stencil;
mod structured;
mod uniform;

pub use k_regular::k_regular;
pub use mycielskian::{mycielskian, mycielskian_edges, mycielskian_vertices};
pub use power_law::power_law;
pub use rmat::rmat;
pub use stencil::{laplacian_1d, laplacian_2d};
pub use structured::{banded, block_diagonal, circuit_like};
pub use uniform::uniform;

use crate::coo::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Families of synthetic matrices, with their shape parameters.
///
/// Used by [`crate::suite`] to describe each paper matrix's structure class,
/// and dispatched through [`MatrixKind::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixKind {
    /// Independently placed non-zeros (SNAP "uniform").
    Uniform,
    /// Chung–Lu power-law degree distribution with the given exponent
    /// (SNAP "power-law"; social graphs).
    PowerLaw {
        /// Degree-distribution exponent (typical social graphs: 1.8–2.5).
        alpha: f64,
    },
    /// Every row has exactly `nnz/rows` entries, columns near-balanced
    /// (SNAP "k-regular").
    KRegular,
    /// Non-zeros confined to a diagonal band (FEM discretizations).
    Banded {
        /// Half-width of the band; entries satisfy `|i - j| <= bandwidth`.
        bandwidth: usize,
    },
    /// Dense blocks on the diagonal (power-flow matrices like TSOPF).
    BlockDiagonal {
        /// Side length of each dense diagonal block.
        block: usize,
    },
    /// Unit diagonal plus skewed random off-diagonals (circuit matrices).
    CircuitLike,
    /// Recursive R-MAT generator (skewed, community-structured graphs).
    Rmat,
    /// The exact Mycielski construction `M_k` (ignores the target shape;
    /// `M_k` has a fixed vertex count).
    Mycielskian {
        /// Construction depth; `M_11` is the paper's `mycielskian11`.
        k: u32,
    },
}

impl MatrixKind {
    /// Generates a `rows × cols` matrix with approximately `target_nnz`
    /// non-zeros of this family.
    ///
    /// "Approximately": every generator deduplicates coordinates, and the
    /// structured families round to their natural granularity (band rows,
    /// block sizes), so the achieved nnz may differ by a few percent. Exact
    /// nnz: [`CooMatrix::nnz`] on the result.
    ///
    /// # Panics
    ///
    /// Panics if the target nnz exceeds what the family can place in the
    /// given shape (e.g. more than `rows × cols`).
    #[must_use]
    pub fn generate(self, rows: usize, cols: usize, target_nnz: usize, seed: u64) -> CooMatrix {
        match self {
            Self::Uniform => uniform(rows, cols, target_nnz, seed),
            Self::PowerLaw { alpha } => power_law(rows, cols, target_nnz, alpha, seed),
            Self::KRegular => {
                let k = (target_nnz / rows).max(1);
                k_regular(rows, cols, k, seed)
            }
            Self::Banded { bandwidth } => banded(rows, cols, bandwidth, target_nnz, seed),
            Self::BlockDiagonal { block } => block_diagonal(rows, cols, block, target_nnz, seed),
            Self::CircuitLike => circuit_like(rows, cols, target_nnz, seed),
            Self::Rmat => rmat(rows, cols, target_nnz, seed),
            Self::Mycielskian { k } => mycielskian(k, seed),
        }
    }
}

/// Draws a non-zero value uniformly from `[-1, 1] \ {0}`.
pub(crate) fn random_value(rng: &mut StdRng) -> f32 {
    loop {
        let v: f32 = rng.gen_range(-1.0..1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// Seeded RNG shared by the generator implementations.
pub(crate) fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_generate_dispatches_every_family() {
        let kinds = [
            MatrixKind::Uniform,
            MatrixKind::PowerLaw { alpha: 2.0 },
            MatrixKind::KRegular,
            MatrixKind::Banded { bandwidth: 8 },
            MatrixKind::BlockDiagonal { block: 8 },
            MatrixKind::CircuitLike,
            MatrixKind::Rmat,
        ];
        for kind in kinds {
            let m = kind.generate(64, 64, 256, 7);
            assert_eq!((m.rows(), m.cols()), (64, 64), "{kind:?}");
            assert!(m.nnz() > 0, "{kind:?} generated an empty matrix");
            m.check_duplicates().expect("generators must deduplicate");
        }
    }

    #[test]
    fn mycielskian_kind_ignores_shape() {
        let m = MatrixKind::Mycielskian { k: 4 }.generate(1, 1, 1, 0);
        assert_eq!(m.rows(), 11); // M4 has 11 vertices
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        let a = MatrixKind::Uniform.generate(32, 32, 100, 42);
        let b = MatrixKind::Uniform.generate(32, 32, 100, 42);
        assert_eq!(a, b);
        let c = MatrixKind::Uniform.generate(32, 32, 100, 43);
        assert_ne!(a, c);
    }
}
