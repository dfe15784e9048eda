//! GUST: Graph Edge-Coloring Utilization for Accelerating SpMV.
//!
//! This crate implements the paper's primary contribution (ASPLOS 2024,
//! Gerami & Asgari): a hardware/software co-design where `l` multipliers and
//! `l` adders are decoupled by a full crossbar, so arithmetic units are
//! shared across matrix rows *and* columns, and a software scheduler reshapes
//! the sparse matrix into a dense, collision-free input stream.
//!
//! The two halves:
//!
//! * **Software** ([`schedule`]) — windows the matrix into sets of `l` rows,
//!   maps columns to multiplier lanes by `col mod l`, and assigns each
//!   non-zero a *time slot* by edge-coloring the window's bipartite
//!   row×lane multigraph (paper Listing 1). A three-step sort-based load
//!   balancer (§3.5) shrinks the degree maxima that bound the color count
//!   (Eq. 1). The result is a [`ScheduledMatrix`] — the `M_sch` /
//!   `Row_sch` / `Col_sch` format of §3.3.
//! * **Hardware** ([`engine`], [`hw`]) — a cycle-accurate model of Fig. 2:
//!   Buffer Filler, four FIFO sets, multipliers, crossbar, adders and dump.
//!   One color = one cycle; execution takes `Σ colors + 2` cycles.
//!
//! Also here: the naive collision-stall baseline schedule (§3.3), the
//! statistical bound of §3.4 (Eqs. 9–11), the bandwidth requirement model
//! (§3.3 "Streaming the Inputs"), and the parallel `k × length-l`
//! arrangement of §5.5.
//!
//! # Quickstart
//!
//! ```
//! use gust::prelude::*;
//! use gust_sparse::prelude::*;
//!
//! // A small random matrix and a length-4 GUST.
//! let coo = gen::uniform(16, 16, 40, 7);
//! let csr = CsrMatrix::from(&coo);
//! let gust = Gust::new(GustConfig::new(4));
//!
//! let schedule = gust.schedule(&csr);
//! let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
//! let run = gust.execute(&schedule, &x);
//!
//! assert_vectors_close(&run.output, &reference_spmv(&csr, &x), 1e-4);
//! assert_eq!(run.report.cycles, schedule.total_colors() + 2);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the [`kernels`] module, which holds
// the feature-gated `std::arch` SIMD engine loops behind the runtime
// [`kernels::Backend`] dispatch (and documents the safety argument for
// every block).
#![deny(unsafe_code)]

pub mod bandwidth;
pub mod bound;
pub mod config;
pub mod engine;
pub mod error;
pub mod hw;
pub mod kernels;
pub mod parallel;
pub mod pipeline;
pub mod schedule;
pub mod serve;
pub mod verify;

pub use config::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
pub use engine::{Gust, GustRun};
pub use error::GustError;
pub use kernels::Backend;
pub use parallel::Pool;

// Re-exported so engine-level callers can drive fault injection (and
// tests can scope it) without depending on `gust_sparse` directly.
pub use gust_sparse::faults;
pub use schedule::scheduled::{ScheduledMatrix, ScheduledSlot, WindowSchedule};
pub use serve::{ScheduleRegistry, ServeConfig, SpmvServer};
pub use verify::{AuditReport, Auditable, VerifiedSchedule, Violation};

/// Common imports for working with this crate.
pub mod prelude {
    pub use crate::bandwidth;
    pub use crate::bound;
    pub use crate::config::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
    pub use crate::engine::{Gust, GustRun};
    pub use crate::error::GustError;
    pub use crate::kernels::Backend;
    pub use crate::parallel::{ParallelGust, Pool};
    pub use crate::pipeline::EndToEnd;
    pub use crate::schedule::scheduled::{ScheduledMatrix, ScheduledSlot, WindowSchedule};
    pub use crate::serve::{
        MatrixKey, Response, ScheduleRegistry, ServeConfig, ServeStats, SpmvServer, Ticket,
    };
    pub use crate::verify::{AuditReport, Auditable, VerifiedSchedule, Violation};
}
