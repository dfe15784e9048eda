//! Unified error type for the fallible engine API.
//!
//! The original engine entry points ([`crate::Gust::execute`] and
//! friends) follow the "programming error ⇒ panic" convention: handing a
//! schedule to an engine of a different length is a bug in the caller,
//! not a runtime condition. That convention is wrong for long-lived
//! services that load schedules and matrices from disk, accept shapes
//! from callers they do not control, and must keep serving when one
//! request is malformed. The `try_*` twins (e.g.
//! [`crate::Gust::try_execute`]) return a [`GustError`] instead, and the
//! panicking originals now delegate to them — one validation path, two
//! reporting conventions.
//!
//! [`GustError`] also wraps the workspace's loading errors
//! ([`gust_sparse::SparseError`],
//! [`crate::schedule::serialize::ReadScheduleError`]) so a
//! load-schedule-execute pipeline can use one error type end to end with
//! `?`.

use crate::schedule::serialize::ReadScheduleError;
use gust_sparse::SparseError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the fallible (`try_*`) engine entry points.
///
/// The [`fmt::Display`] strings of the validation variants are the exact
/// messages the panicking twins have always used, so
/// `#[should_panic(expected = …)]` callers and log scrapers see no
/// change.
#[derive(Debug)]
#[non_exhaustive]
pub enum GustError {
    /// The schedule was produced for a different accelerator length than
    /// this engine is configured with.
    LengthMismatch {
        /// Length the schedule was built for.
        schedule: usize,
        /// Length this engine is configured with.
        engine: usize,
    },
    /// The input vector's length does not match the schedule's column
    /// count.
    InputLength {
        /// What the caller supplied.
        got: usize,
        /// The schedule's column count.
        expected: usize,
    },
    /// A batched entry point was handed `batch == 0`.
    EmptyBatch,
    /// A column-major panel's length does not equal `cols × batch`.
    PanelShape {
        /// What the caller supplied.
        got: usize,
        /// The schedule's column count.
        cols: usize,
        /// The requested batch width.
        batch: usize,
    },
    /// A batched run's `rows × batch` output would exceed `isize::MAX`
    /// bytes, the most one allocation can hold.
    OutputShape {
        /// The schedule's row count.
        rows: usize,
        /// The requested batch width.
        batch: usize,
    },
    /// A matrix-side failure: Matrix Market parse, corrupt binary cache,
    /// or live I/O (see [`gust_sparse::SparseError`]).
    Sparse(SparseError),
    /// A schedule-container failure: bad magic/version, corrupt payload,
    /// or live I/O (see [`ReadScheduleError`]).
    Schedule(ReadScheduleError),
    /// An environment/configuration value could not be interpreted (see
    /// [`crate::config::ConfigError`]).
    Config(crate::config::ConfigError),
    /// The serving runtime's admission queue is full and the request
    /// was shed instead of queued (see [`crate::serve::SpmvServer`]):
    /// explicit backpressure beats unbounded latency. Shed requests are
    /// counted; resubmit after backing off.
    Overloaded {
        /// Requests queued when the request was shed.
        queued: usize,
        /// The admission queue's capacity.
        capacity: usize,
    },
    /// The request's deadline passed before a result was produced.
    /// Deadlines are enforced at every serving boundary; `stage` names
    /// the one that tripped (`"aggregation"`, `"execution"`, `"wait"`).
    DeadlineExceeded {
        /// The serving boundary at which the deadline was detected.
        stage: &'static str,
    },
    /// The request named a matrix key the schedule registry has no
    /// entry for (see [`crate::serve::ScheduleRegistry::insert`]).
    UnknownMatrix {
        /// The unrecognized content-hash key.
        key: u64,
    },
    /// The server was stopped while the request was still queued; the
    /// request was drained with this error rather than dropped
    /// silently.
    ServerStopped,
}

impl fmt::Display for GustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { schedule, engine } => write!(
                f,
                "schedule was produced for a different GUST length \
                 (schedule length {schedule}, engine length {engine})"
            ),
            Self::InputLength { got, expected } => write!(
                f,
                "input vector length mismatch (got {got}, schedule has {expected} columns)"
            ),
            Self::EmptyBatch => write!(f, "batch must contain at least one vector"),
            Self::PanelShape { got, cols, batch } => write!(
                f,
                "panel must hold batch × cols values (column-major): \
                 got {got}, need {cols} × {batch}"
            ),
            Self::OutputShape { rows, batch } => write!(
                f,
                "output of {rows} rows × {batch} vectors is too large to allocate"
            ),
            Self::Sparse(e) => write!(f, "{e}"),
            Self::Schedule(e) => write!(f, "{e}"),
            Self::Config(e) => write!(f, "{e}"),
            Self::Overloaded { queued, capacity } => write!(
                f,
                "server overloaded: {queued} requests queued (capacity {capacity}); request shed"
            ),
            Self::DeadlineExceeded { stage } => {
                write!(f, "request deadline exceeded at the {stage} boundary")
            }
            Self::UnknownMatrix { key } => {
                write!(f, "no matrix registered under key {key:#018x}")
            }
            Self::ServerStopped => write!(f, "server stopped before the request was served"),
        }
    }
}

impl Error for GustError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Sparse(e) => Some(e),
            Self::Schedule(e) => Some(e),
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for GustError {
    fn from(e: SparseError) -> Self {
        Self::Sparse(e)
    }
}

impl From<ReadScheduleError> for GustError {
    fn from(e: ReadScheduleError) -> Self {
        Self::Schedule(e)
    }
}

impl From<crate::config::ConfigError> for GustError {
    fn from(e: crate::config::ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panicking engine wrappers delegate via `panic!("{e}")`, so
    /// every Display string must contain the exact substring the
    /// historical asserts used — `#[should_panic(expected = …)]` tests
    /// across the workspace match on them.
    #[test]
    fn display_preserves_historical_panic_messages() {
        let e = GustError::LengthMismatch {
            schedule: 8,
            engine: 4,
        };
        assert!(e
            .to_string()
            .contains("schedule was produced for a different GUST length"));

        let e = GustError::InputLength {
            got: 3,
            expected: 4,
        };
        assert!(e.to_string().contains("input vector length mismatch"));

        assert!(GustError::EmptyBatch
            .to_string()
            .contains("batch must contain at least one vector"));

        let e = GustError::PanelShape {
            got: 7,
            cols: 4,
            batch: 2,
        };
        assert!(e
            .to_string()
            .contains("panel must hold batch × cols values (column-major)"));
    }

    #[test]
    fn serving_variants_render_their_context() {
        let e = GustError::Overloaded {
            queued: 128,
            capacity: 128,
        };
        assert!(e.to_string().contains("server overloaded"));
        assert!(e.to_string().contains("capacity 128"));

        let e = GustError::DeadlineExceeded { stage: "execution" };
        assert!(e
            .to_string()
            .contains("deadline exceeded at the execution boundary"));

        let e = GustError::UnknownMatrix { key: 0xABCD };
        assert!(e.to_string().contains("0x000000000000abcd"));

        assert!(GustError::ServerStopped.to_string().contains("stopped"));
        assert!(GustError::ServerStopped.source().is_none());
    }

    #[test]
    fn wrapping_conversions_preserve_sources() {
        let e = GustError::from(SparseError::Corrupt("checksum mismatch".into()));
        assert!(e.to_string().contains("corrupt"));
        assert!(e.source().is_some());

        let e = GustError::from(ReadScheduleError::Format("bad magic".into()));
        assert!(e.to_string().contains("bad magic"));
        assert!(e.source().is_some());

        let e = GustError::EmptyBatch;
        assert!(e.source().is_none());
    }
}
