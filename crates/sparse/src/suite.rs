//! Stand-ins for the paper's real-world evaluation matrices.
//!
//! The paper evaluates on SuiteSparse \[7\] and SNAP \[18\] matrices. Those
//! downloads are not available offline, so each matrix is described here by
//! its published dimension, non-zero count and *structure class*, and a
//! deterministic synthetic matrix with those properties is generated on
//! demand. GUST's performance is a function of non-zero placement statistics
//! (row/column-segment degree maxima and variance — paper Eq. 1), which the
//! stand-ins match by family; `mycielskian11` is even exact, since the
//! Mycielski construction is deterministic.
//!
//! Two suites are provided:
//! * [`figure7`] — the twelve matrices of Figs. 7–9 (densities 1e-5…1e-1),
//! * [`serpens_nine`] — the nine large matrices of Tables 3 & 4.
//!
//! To run on the genuine data instead, load `.mtx` files with
//! [`crate::io::read_matrix_market_file`] and feed them to the same
//! harnesses.

use crate::coo::CooMatrix;
use crate::gen::MatrixKind;

/// Structure family of a real matrix, mapped to a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StructureClass {
    /// Unstructured random placement (quantum chemistry, gene networks).
    Uniform,
    /// Power-law degree distribution with the given exponent (social graphs).
    PowerLaw(f64),
    /// Mesh/FEM discretization: non-zeros concentrated in a diagonal band.
    FemBanded,
    /// Power-flow matrices: dense diagonal blocks.
    PowerFlowBlocks,
    /// Circuit simulation: full diagonal + near-diagonal + heavy rails.
    Circuit,
    /// Community-structured social graph (R-MAT).
    SocialRmat,
    /// The exact Mycielski construction of the given depth.
    Mycielskian(u32),
}

/// One matrix of the paper's evaluation, with published metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteEntry {
    /// Matrix name as printed in the paper.
    pub name: &'static str,
    /// Collection of origin: `"SuiteSparse"` or `"SNAP"`.
    pub source: &'static str,
    /// Rows (= columns; every evaluation matrix is square).
    pub rows: usize,
    /// Published non-zero count.
    pub nnz: usize,
    /// Density label as printed in the paper's figures/tables.
    pub density_label: &'static str,
    /// Structure family used by the stand-in generator.
    pub class: StructureClass,
}

impl SuiteEntry {
    /// Actual density `nnz / rows²`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.rows as f64 * self.rows as f64)
    }

    /// Deterministic seed derived from the matrix name (FNV-1a).
    #[must_use]
    pub fn seed(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    /// Generates the full-size stand-in.
    #[must_use]
    pub fn generate(&self) -> CooMatrix {
        self.generate_scaled(1.0)
    }

    /// Generates a down-scaled stand-in: dimensions shrink by `scale`,
    /// non-zeros by `scale²`, preserving density and structure class.
    ///
    /// Useful for fast test/bench runs; `scale = 1.0` reproduces the
    /// published size.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn generate_scaled(&self, scale: f64) -> CooMatrix {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let rows = ((self.rows as f64 * scale).ceil() as usize).max(16);
        let nnz_raw = (self.nnz as f64 * scale * scale).ceil() as usize;
        // Keep at least one entry per row on average and stay placeable.
        let nnz = nnz_raw.clamp(rows, rows * rows);
        let kind = self.concrete_kind(rows, nnz, scale);
        kind.generate(rows, rows, nnz, self.seed())
    }

    /// Resolves the structure class to a fully parameterized generator for
    /// the given (possibly scaled) shape.
    fn concrete_kind(&self, rows: usize, nnz: usize, scale: f64) -> MatrixKind {
        match self.class {
            StructureClass::Uniform => MatrixKind::Uniform,
            StructureClass::PowerLaw(alpha) => MatrixKind::PowerLaw { alpha },
            StructureClass::FemBanded => {
                // Band width sized so the band holds ~1.6x the target nnz.
                let per_row = nnz as f64 / rows as f64;
                let bandwidth = ((per_row * 1.6 / 2.0).ceil() as usize).clamp(4, rows - 1);
                MatrixKind::Banded { bandwidth }
            }
            StructureClass::PowerFlowBlocks => {
                // Blocks sized for ~60% fill.
                let per_row = nnz as f64 / rows as f64;
                let block = ((per_row / 0.6).ceil() as usize).clamp(2, rows);
                MatrixKind::BlockDiagonal { block }
            }
            StructureClass::Circuit => MatrixKind::CircuitLike,
            StructureClass::SocialRmat => MatrixKind::Rmat,
            StructureClass::Mycielskian(k) => {
                // Shrink the construction depth with scale: each level
                // halves the vertex count.
                let levels_down = if scale >= 1.0 {
                    0
                } else {
                    (-scale.log2()).ceil() as u32
                };
                MatrixKind::Mycielskian {
                    k: k.saturating_sub(levels_down).max(2),
                }
            }
        }
    }
}

/// The twelve matrices of Figs. 7–9 in increasing density order, with the
/// densities the paper prints under each column.
#[must_use]
pub fn figure7() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            name: "pre2",
            source: "SuiteSparse",
            rows: 659_033,
            nnz: 5_834_044,
            density_label: "1e-5",
            class: StructureClass::Circuit,
        },
        SuiteEntry {
            name: "scircuit",
            source: "SuiteSparse",
            rows: 170_998,
            nnz: 958_936,
            density_label: "3e-5",
            class: StructureClass::Circuit,
        },
        SuiteEntry {
            name: "bcircuit",
            source: "SuiteSparse",
            rows: 68_902,
            nnz: 375_558,
            density_label: "8e-5",
            class: StructureClass::Circuit,
        },
        SuiteEntry {
            name: "soc-Epinions1",
            source: "SNAP",
            rows: 75_879,
            nnz: 508_837,
            density_label: "9e-5",
            class: StructureClass::PowerLaw(2.0),
        },
        SuiteEntry {
            name: "cage12",
            source: "SuiteSparse",
            rows: 130_228,
            nnz: 2_032_536,
            density_label: "1e-4",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "poisson3Db",
            source: "SuiteSparse",
            rows: 85_623,
            nnz: 2_374_949,
            density_label: "3e-4",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "nopoly",
            source: "SuiteSparse",
            rows: 10_774,
            nnz: 70_842,
            density_label: "6e-4",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "Wiki-Vote",
            source: "SNAP",
            rows: 8_297,
            nnz: 103_689,
            density_label: "2e-3",
            class: StructureClass::PowerLaw(1.8),
        },
        SuiteEntry {
            name: "CollegeMsg",
            source: "SNAP",
            rows: 1_899,
            nnz: 20_296,
            density_label: "6e-3",
            class: StructureClass::PowerLaw(1.8),
        },
        SuiteEntry {
            name: "TSCOPF-1047",
            source: "SuiteSparse",
            rows: 1_047,
            nnz: 33_000,
            density_label: "3e-2",
            class: StructureClass::PowerFlowBlocks,
        },
        SuiteEntry {
            name: "mycielskian11",
            source: "SuiteSparse",
            rows: 1_535,
            nnz: 134_710,
            density_label: "6e-2",
            class: StructureClass::Mycielskian(11),
        },
        SuiteEntry {
            name: "heart1",
            source: "SuiteSparse",
            rows: 3_557,
            nnz: 1_385_317,
            density_label: "1e-1",
            class: StructureClass::FemBanded,
        },
    ]
}

/// The nine large matrices of Tables 3 & 4 (GUST vs Serpens), with the
/// dimensions and non-zero counts as printed in Table 3.
#[must_use]
pub fn serpens_nine() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            name: "crankseg_2",
            source: "SuiteSparse",
            rows: 63_800,
            nnz: 14_100_000,
            density_label: "3.4e-3",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "Si41Ge41H72",
            source: "SuiteSparse",
            rows: 186_000,
            nnz: 15_000_000,
            density_label: "4.3e-4",
            class: StructureClass::Uniform,
        },
        SuiteEntry {
            name: "TSOPF_RS_b2383",
            source: "SuiteSparse",
            rows: 39_100,
            nnz: 16_200_000,
            density_label: "1.0e-2",
            class: StructureClass::PowerFlowBlocks,
        },
        SuiteEntry {
            name: "ML_Laplace",
            source: "SuiteSparse",
            rows: 377_000,
            nnz: 27_600_000,
            density_label: "1.9e-4",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "mouse_gene",
            source: "SuiteSparse",
            rows: 45_100,
            nnz: 29_000_000,
            density_label: "1.4e-3",
            class: StructureClass::Uniform,
        },
        SuiteEntry {
            name: "coPapersCiteseer",
            source: "SuiteSparse",
            rows: 434_000,
            nnz: 21_100_000,
            density_label: "1.1e-4",
            class: StructureClass::SocialRmat,
        },
        SuiteEntry {
            name: "PFlow_742",
            source: "SuiteSparse",
            rows: 743_000,
            nnz: 37_100_000,
            density_label: "6.7e-5",
            class: StructureClass::FemBanded,
        },
        SuiteEntry {
            name: "googleplus",
            source: "SNAP",
            rows: 108_000,
            nnz: 13_700_000,
            density_label: "1.2e-3",
            class: StructureClass::SocialRmat,
        },
        SuiteEntry {
            name: "soc_pokec",
            source: "SNAP",
            rows: 1_630_000,
            nnz: 30_600_000,
            density_label: "1.2e-5",
            class: StructureClass::SocialRmat,
        },
    ]
}

/// Looks up a suite entry by paper name across both suites.
#[must_use]
pub fn by_name(name: &str) -> Option<SuiteEntry> {
    figure7()
        .into_iter()
        .chain(serpens_nine())
        .find(|e| e.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(figure7().len(), 12);
        assert_eq!(serpens_nine().len(), 9);
    }

    #[test]
    fn figure7_is_density_sorted() {
        let suite = figure7();
        for pair in suite.windows(2) {
            assert!(
                pair[0].density() <= pair[1].density() * 1.5,
                "{} ({:.1e}) should not be far denser than {} ({:.1e})",
                pair[0].name,
                pair[0].density(),
                pair[1].name,
                pair[1].density()
            );
        }
    }

    #[test]
    fn density_labels_roughly_match_computed_density() {
        // Every label should be within ~2.5x of the computed density (labels
        // are order-of-magnitude markers in the paper; mouse_gene's label is
        // known to be off by 10x in print and is excluded).
        for e in figure7() {
            let label: f64 = e.density_label.parse().unwrap();
            let ratio = e.density() / label;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "{}: computed {:.2e} vs label {label:.0e}",
                e.name,
                e.density()
            );
        }
    }

    #[test]
    fn scaled_generation_preserves_density() {
        for e in figure7().into_iter().take(4) {
            let scaled = e.generate_scaled(0.02);
            let got = scaled.nnz() as f64 / (scaled.rows() as f64 * scaled.cols() as f64);
            // Clamping to >= 1 nnz/row floors very sparse matrices; allow wide
            // but bounded drift.
            assert!(
                got / e.density() < 30.0,
                "{}: scaled density {got:.2e} vs full {:.2e}",
                e.name,
                e.density()
            );
            assert!(scaled.rows() >= 16);
        }
    }

    #[test]
    fn mycielskian_entry_is_exact_at_full_scale() {
        let e = by_name("mycielskian11").unwrap();
        let m = e.generate();
        assert_eq!(m.rows(), 1_535);
        assert_eq!(m.nnz(), 134_710);
    }

    #[test]
    fn mycielskian_scales_down_by_levels() {
        let e = by_name("mycielskian11").unwrap();
        let m = e.generate_scaled(0.25);
        // Two levels down: M9 has 383 vertices.
        assert_eq!(m.rows(), 383);
    }

    #[test]
    fn by_name_is_case_insensitive_and_total() {
        assert!(by_name("WIKI-VOTE").is_some());
        assert!(by_name("soc_pokec").is_some());
        assert!(by_name("not-a-matrix").is_none());
    }

    #[test]
    fn seeds_differ_between_matrices() {
        let a = by_name("scircuit").unwrap().seed();
        let b = by_name("bcircuit").unwrap().seed();
        assert_ne!(a, b);
    }

    #[test]
    fn small_scale_generation_is_fast_and_valid() {
        for e in figure7() {
            let m = e.generate_scaled(0.01);
            m.check_duplicates()
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert!(m.nnz() > 0, "{} generated empty", e.name);
        }
    }
}
