//! Sparse-matrix substrate for the GUST reproduction.
//!
//! The GUST paper (ASPLOS 2024) evaluates an SpMV accelerator on synthetic
//! matrices (uniform, power-law and k-regular, §4) and on real matrices from
//! the SuiteSparse and SNAP collections. This crate provides everything those
//! experiments need from the matrix side:
//!
//! * the storage formats the accelerators consume — [`CooMatrix`] (coordinate,
//!   the basis of GUST's scheduled format), [`CsrMatrix`] (row-major
//!   compressed, the reference SpMV), [`CscMatrix`] (column-major, used by the
//!   column-streaming baselines),
//! * reference SpMV kernels and float-comparison helpers ([`ops`]),
//! * deterministic synthetic generators ([`gen`]): uniform density, power-law
//!   (Chung–Lu style), k-regular, banded/FEM-like, block and the exact
//!   Mycielskian construction,
//! * stand-ins for the paper's real-world evaluation matrices ([`suite`]),
//!   matching published dimension/nnz/density and structure class,
//! * Matrix Market I/O ([`io`]) so true SuiteSparse downloads can be used
//!   when available,
//! * per-matrix statistics ([`stats`]) — row/column non-zero distributions,
//!   whose maxima drive GUST's color count (paper Eq. 1).
//!
//! # Example
//!
//! ```
//! use gust_sparse::prelude::*;
//!
//! // 2x2: [[2, 0], [1, 3]]
//! let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)])?;
//! let csr = CsrMatrix::from(&coo);
//! assert_eq!(csr.spmv(&[1.0, 1.0]), vec![2.0, 4.0]);
//! # Ok::<(), gust_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the [`kernels`] module, which holds
// the feature-gated `std::arch` SIMD implementations behind a runtime
// [`kernels::Backend`] dispatch (and documents the safety argument for
// every block).
#![deny(unsafe_code)]

pub mod checksum;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod faults;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod ops;
pub mod spmm;
pub mod stats;
pub mod suite;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use kernels::Backend;
pub use stats::MatrixStats;

/// Common imports for working with this crate.
pub mod prelude {
    pub use crate::coo::CooMatrix;
    pub use crate::csc::CscMatrix;
    pub use crate::csr::CsrMatrix;
    pub use crate::dense::DenseMatrix;
    pub use crate::error::SparseError;
    pub use crate::gen::{self, MatrixKind};
    pub use crate::kernels::Backend;
    pub use crate::ops::{
        assert_vectors_close, max_relative_error, reference_spmm_panel, reference_spmv,
    };
    pub use crate::stats::MatrixStats;
    pub use crate::suite;
}
