//! The GUST execution engine (event-driven over color steps).
//!
//! One color = one cycle (paper §3.4: "execution time … is the sum of the
//! number of colors for all of the edge sets plus 2" for the three pipeline
//! levels). The engine walks the schedule color by color: every occupied
//! slot issues a multiply, the crossbar routes the product to the adder
//! named by `Row_sch`, the adder accumulates; at each window boundary the
//! adders dump into the output vector through the row permutation.
//!
//! # Fast path vs. instrumented path
//!
//! [`Gust::execute`] is the *fast path*: a single contiguous pass over the
//! structure-of-arrays schedule (`values`/`cols`/`row_mods`) per window,
//! with no per-cycle counter bookkeeping. Because the slot arrays are
//! color-major and each adder receives at most one product per color, the
//! flat pass accumulates every adder in exactly the per-color order the
//! hardware uses — the outputs are bit-identical to the cycle-accurate
//! model while the multiply-gather loop stays free of bookkeeping and
//! unrolls. All accounting (busy unit-cycles, multiplies, cycles) is
//! derived analytically from the schedule: every slot is one multiply and
//! one accumulate, so no counter has to watch the loop.
//!
//! [`Gust::execute_instrumented`] keeps the literal color-by-color walk
//! with live [`UnitCounter`]s; the `hw::pipeline` equivalence tests pin the
//! fast path to it (and to the structurally faithful Fig. 2 pipeline in
//! [`crate::hw`]) bit for bit.
//!
//! # Kernel backends
//!
//! Every hot loop below dispatches through a runtime-selected
//! [`Backend`] (see [`crate::kernels`]): a safe scalar implementation
//! that reproduces the PR 2 arithmetic bit for bit, and an AVX2+FMA
//! implementation gated by `is_x86_feature_detected!`, which the AVX-512
//! backend runs too — only the `f64` panel walk has AVX-512 kernels (8
//! lanes per register), gated on `avx512f`+`avx512vl` on top of the AVX2
//! set. Selection is automatic, overridable with
//! [`GustConfig::with_backend`] or the `GUST_BACKEND` environment
//! variable. Every walk reads its operands directly: `x` (or the block's
//! interleaved panel) indexed through the schedule's `cols`.
//!
//! # Batched execution
//!
//! [`Gust::execute_batch`] streams the schedule **once** for a whole panel
//! of right-hand sides (the §5.3 multi-RHS amortization): the batch is cut
//! into register blocks of [`kernels::REG_BLOCK`] columns (8, whatever
//! the backend), each block's operands are interleaved so one slot's `B`
//! multiply-accumulates are contiguous, and blocks can fan out across
//! threads via [`crate::config::GustConfig::with_parallelism`]. Under the
//! scalar backend, per-column arithmetic order equals the per-vector
//! scalar path, so batched outputs are bit-identical to `B` independent
//! [`Gust::execute`] calls; the AVX2/AVX-512 backends fuse each
//! accumulate into an FMA and match within the one-ULP-per-step
//! contraction bound (see `tests/backend_equivalence.rs`).
//! [`Gust::execute`] itself is bit-identical across *all* backends: its
//! SIMD paths vectorize only the multiply-gathers and keep the scatter
//! adds in slot order.
//!
//! The batched walk is **generic over the element type** (the private
//! `Element` trait, monomorphized for f32 and f64):
//! [`Gust::execute_batch_f64`] runs the identical pipeline in double
//! precision — schedule values stay f32, widened per slot; f64 register
//! blocks are the same [`kernels::REG_BLOCK`] lanes, one 512-bit `pd`
//! register on AVX-512.

use crate::config::GustConfig;
use crate::error::GustError;
use crate::kernels::{self, Backend};
use crate::parallel::Pool;
use crate::schedule::scheduled::{log2_ceil, ScheduledMatrix};
use crate::schedule::Scheduler;
use crate::verify::{AuditReport, VerifiedSchedule, Violation};
use gust_sim::{ExecutionReport, MemoryTraffic, UnitCounter};

/// Result of one SpMV on the GUST engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GustRun {
    /// The computed output vector `y = A·x`.
    pub output: Vec<f32>,
    /// Cycle/utilization/traffic accounting.
    pub report: ExecutionReport,
}

/// A configured GUST accelerator: scheduler + engine.
///
/// # Example
///
/// ```
/// use gust::{Gust, GustConfig};
/// use gust_sparse::prelude::*;
///
/// let m = CsrMatrix::identity(8);
/// let gust = Gust::new(GustConfig::new(4));
/// let schedule = gust.schedule(&m);
/// let run = gust.execute(&schedule, &[1.0; 8]);
/// assert_eq!(run.output, vec![1.0; 8]);
/// // Identity: every window is one color; 2 windows + pipeline depth 2.
/// assert_eq!(run.report.cycles, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Gust {
    config: GustConfig,
}

impl Gust {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: GustConfig) -> Self {
        Self { config }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &GustConfig {
        &self.config
    }

    /// The kernel backend this engine's hot loops will run
    /// ([`GustConfig::with_backend`] / `GUST_BACKEND` override, otherwise
    /// the fastest the host supports).
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.config.effective_backend()
    }

    /// Columns per register block of the batched `f32` kernel:
    /// [`kernels::REG_BLOCK`], the same on every backend.
    #[must_use]
    pub fn reg_block(&self) -> usize {
        kernels::REG_BLOCK
    }

    /// Columns per register block of the batched `f64` kernel:
    /// [`kernels::REG_BLOCK`] too — one 512-bit register under AVX-512.
    #[must_use]
    pub fn reg_block_f64(&self) -> usize {
        kernels::REG_BLOCK
    }

    /// Preprocesses `matrix` (the paper's scheduling step). Delegates to
    /// [`Scheduler::schedule`].
    #[must_use]
    pub fn schedule(&self, matrix: &gust_sparse::CsrMatrix) -> ScheduledMatrix {
        Scheduler::new(self.config.clone()).schedule(matrix)
    }

    /// Validates a single-vector run: schedule built for this engine's
    /// length, input as long as the schedule's column count.
    fn check_single(&self, sched_len: usize, cols: usize, x_len: usize) -> Result<(), GustError> {
        let l = self.config.length();
        if sched_len != l {
            return Err(GustError::LengthMismatch {
                schedule: sched_len,
                engine: l,
            });
        }
        if x_len != cols {
            return Err(GustError::InputLength {
                got: x_len,
                expected: cols,
            });
        }
        Ok(())
    }

    /// Validates a batched run: length match, non-empty batch, panel of
    /// exactly `cols × batch` values (overflow-proof: an impossible
    /// product can never equal a real slice length), and a `rows × batch`
    /// output of `E` that an allocation can hold (at most `isize::MAX`
    /// bytes). The output check matters when `cols` is 0: then any batch
    /// passes the panel check with an empty panel.
    fn check_batch<E>(
        &self,
        schedule: &ScheduledMatrix,
        b_len: usize,
        batch: usize,
    ) -> Result<(), GustError> {
        let (sched_len, rows, cols) = (schedule.length(), schedule.rows(), schedule.cols());
        let l = self.config.length();
        if sched_len != l {
            return Err(GustError::LengthMismatch {
                schedule: sched_len,
                engine: l,
            });
        }
        if batch == 0 {
            return Err(GustError::EmptyBatch);
        }
        if cols.checked_mul(batch) != Some(b_len) {
            return Err(GustError::PanelShape {
                got: b_len,
                cols,
                batch,
            });
        }
        let out_bytes = rows
            .checked_mul(batch)
            .and_then(|n| n.checked_mul(std::mem::size_of::<E>()))
            .and_then(|n| isize::try_from(n).ok());
        if out_bytes.is_none() {
            return Err(GustError::OutputShape { rows, batch });
        }
        Ok(())
    }

    /// Runs one SpMV: streams the schedule through the engine (fast,
    /// uninstrumented path — see the module docs).
    ///
    /// The schedule can be reused across calls with different vectors —
    /// that reuse is the paper's §5.3 amortization argument.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != schedule.cols()` or the schedule's length does
    /// not match this engine's configuration. Use [`Gust::try_execute`]
    /// to get a [`GustError`] instead.
    #[must_use]
    pub fn execute(&self, schedule: &ScheduledMatrix, x: &[f32]) -> GustRun {
        self.try_execute(schedule, x)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gust::execute`]: the same single pass, with shape
    /// mismatches reported as values instead of panics.
    ///
    /// # Errors
    ///
    /// [`GustError::LengthMismatch`] when the schedule was built for a
    /// different accelerator length, [`GustError::InputLength`] when
    /// `x.len() != schedule.cols()`.
    pub fn try_execute(&self, schedule: &ScheduledMatrix, x: &[f32]) -> Result<GustRun, GustError> {
        self.check_single(schedule.length(), schedule.cols(), x.len())?;
        let mut y = vec![0.0f32; schedule.rows()];
        flat_walk_single(self.backend(), schedule, x, &mut y);
        Ok(GustRun {
            output: y,
            report: self.analytic_report(schedule, 1),
        })
    }

    /// Runs one SpMV with live per-cycle unit counters — the literal
    /// color-by-color walk the seed engine performed. Slower than
    /// [`Gust::execute`]; kept so the `hw::pipeline` equivalence tests can
    /// pin the fast path's outputs *and* analytic accounting to a measured
    /// run, bit for bit.
    ///
    /// # Panics
    ///
    /// As [`Gust::execute`]. Use [`Gust::try_execute_instrumented`] to
    /// get a [`GustError`] instead.
    #[must_use]
    pub fn execute_instrumented(&self, schedule: &ScheduledMatrix, x: &[f32]) -> GustRun {
        self.try_execute_instrumented(schedule, x)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gust::execute_instrumented`].
    ///
    /// # Errors
    ///
    /// As [`Gust::try_execute`].
    pub fn try_execute_instrumented(
        &self,
        schedule: &ScheduledMatrix,
        x: &[f32],
    ) -> Result<GustRun, GustError> {
        self.check_single(schedule.length(), schedule.cols(), x.len())?;
        let l = self.config.length();

        let mut y = vec![0.0f32; schedule.rows()];
        let mut adders = vec![0.0f32; l];
        let mut mults = UnitCounter::new("multipliers", l);
        let mut adds = UnitCounter::new("adders", l);
        let mut multiplies: u64 = 0;

        let row_perm = schedule.row_perm();
        for (w, window) in schedule.windows().iter().enumerate() {
            let active = schedule.window_rows(w);
            adders[..active].fill(0.0);
            for c in 0..window.colors() {
                // One cycle: every occupied lane multiplies, the crossbar
                // routes, the named adder accumulates. Lane/adder uniqueness
                // within a color was checked at schedule assembly.
                let bucket = window.color_range(c);
                let busy = bucket.len();
                for i in bucket {
                    let product = window.values()[i] * x[window.cols()[i] as usize];
                    adders[window.row_mods()[i] as usize] += product;
                }
                mults.record_busy(busy);
                adds.record_busy(busy);
                multiplies += busy as u64;
            }
            let base = w * l;
            for (i, &acc) in adders[..active].iter().enumerate() {
                y[row_perm[base + i] as usize] = acc;
            }
        }

        let mut report = self.analytic_report(schedule, 1);
        // Overwrite the analytic numbers with the measured ones; the
        // equivalence tests assert they agree.
        report.busy_unit_cycles = mults.busy_unit_cycles() + adds.busy_unit_cycles();
        report.multiplies = multiplies;
        report.additions = multiplies;
        Ok(GustRun { output: y, report })
    }

    /// Schedules and executes in one call.
    ///
    /// # Panics
    ///
    /// As [`Gust::execute`] (an `x` shorter or longer than the matrix's
    /// column count). Use [`Gust::try_spmv`] to get a [`GustError`]
    /// instead.
    #[must_use]
    pub fn spmv(&self, matrix: &gust_sparse::CsrMatrix, x: &[f32]) -> GustRun {
        self.try_spmv(matrix, x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gust::spmv`]: schedules and executes in one call,
    /// reporting a mismatched `x` as a value instead of a panic.
    ///
    /// # Errors
    ///
    /// [`GustError::InputLength`] when `x.len() != matrix.cols()`.
    pub fn try_spmv(
        &self,
        matrix: &gust_sparse::CsrMatrix,
        x: &[f32],
    ) -> Result<GustRun, GustError> {
        // Validate before scheduling: preprocessing is the expensive
        // step, and a bad input vector should not buy a full schedule.
        if x.len() != matrix.cols() {
            return Err(GustError::InputLength {
                got: x.len(),
                expected: matrix.cols(),
            });
        }
        let schedule = self.schedule(matrix);
        self.try_execute(&schedule, x)
    }

    /// Sparse-matrix × dense-panel product by schedule reuse: `batch`
    /// right-hand sides against one preprocessed schedule (the
    /// iterative-solver / multi-right-hand-side pattern of §5.3, and the
    /// SpMM direction §7 names as future work for a 2D GUST).
    ///
    /// `b` is a flat **column-major** panel: vector `j` occupies
    /// `b[j * schedule.cols() .. (j + 1) * schedule.cols()]`. The result is
    /// the column-major `rows × batch` output panel plus one folded report
    /// (per-vector quantities × `batch` — the accelerator still charges
    /// `batch` pipeline passes; the host-side win is that the schedule is
    /// streamed once).
    ///
    /// Unlike `batch` separate [`Gust::execute`] calls, the schedule is
    /// walked **once**: each slot performs a register block of up to
    /// [`Gust::reg_block`] multiply-accumulates against the block's
    /// interleaved operands.
    /// Blocks split across threads when [`GustConfig::with_parallelism`]
    /// allows. Under the scalar backend, outputs are bit-identical to the
    /// per-vector scalar path; under AVX2 each accumulate fuses into an
    /// FMA and matches within the documented ULP bound.
    ///
    /// # Example
    ///
    /// ```
    /// use gust::{Gust, GustConfig};
    /// use gust_sparse::prelude::*;
    ///
    /// let m = CsrMatrix::identity(4);
    /// let gust = Gust::new(GustConfig::new(2));
    /// let schedule = gust.schedule(&m);
    /// // Two right-hand sides, column-major: [x0 | x1].
    /// let panel: Vec<f32> = (1..=8).map(|v| v as f32).collect();
    /// let (y, report) = gust.execute_batch(&schedule, &panel, 2);
    /// assert_eq!(y, panel); // identity matrix
    /// assert_eq!(report.nnz_processed, 2 * 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `b.len() != schedule.cols() * batch`, the
    /// `rows × batch` output would exceed `isize::MAX` bytes, or the
    /// schedule's length does not match this engine's configuration. Use
    /// [`Gust::try_execute_batch`] to get a [`GustError`] instead.
    #[must_use]
    pub fn execute_batch(
        &self,
        schedule: &ScheduledMatrix,
        b: &[f32],
        batch: usize,
    ) -> (Vec<f32>, ExecutionReport) {
        self.try_execute_batch(schedule, b, batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gust::execute_batch`]: the same one-pass panel walk,
    /// with shape mismatches reported as values instead of panics.
    ///
    /// # Errors
    ///
    /// [`GustError::LengthMismatch`], [`GustError::EmptyBatch`],
    /// [`GustError::PanelShape`] when `b.len() != cols × batch`, or
    /// [`GustError::OutputShape`] when the `rows × batch` output would
    /// exceed `isize::MAX` bytes.
    pub fn try_execute_batch(
        &self,
        schedule: &ScheduledMatrix,
        b: &[f32],
        batch: usize,
    ) -> Result<(Vec<f32>, ExecutionReport), GustError> {
        self.try_execute_batch_generic(schedule, b, batch)
    }

    /// [`Gust::execute_batch`] in double precision: the same one-pass
    /// panel walk over the same `f32`-valued schedule, with the operand
    /// panel, every accumulator, and the output in `f64` (the schedule's
    /// matrix values are widened once per slot). The register block is
    /// [`kernels::REG_BLOCK`] — one 512-bit register under AVX-512.
    /// Under the scalar backend outputs are bit-identical to a scalar
    /// double-precision reference walk in slot order; AVX-512 fuses each
    /// accumulate into an FMA within the usual contraction bound, now at
    /// `f64` precision.
    ///
    /// # Panics
    ///
    /// As [`Gust::execute_batch`]. Use [`Gust::try_execute_batch_f64`] to
    /// get a [`GustError`] instead.
    #[must_use]
    pub fn execute_batch_f64(
        &self,
        schedule: &ScheduledMatrix,
        b: &[f64],
        batch: usize,
    ) -> (Vec<f64>, ExecutionReport) {
        self.try_execute_batch_f64(schedule, b, batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gust::execute_batch_f64`].
    ///
    /// # Errors
    ///
    /// As [`Gust::try_execute_batch`].
    pub fn try_execute_batch_f64(
        &self,
        schedule: &ScheduledMatrix,
        b: &[f64],
        batch: usize,
    ) -> Result<(Vec<f64>, ExecutionReport), GustError> {
        self.try_execute_batch_generic(schedule, b, batch)
    }

    /// The shared monomorphized body of [`Gust::try_execute_batch`] and
    /// [`Gust::try_execute_batch_f64`]: everything about the walk is
    /// element-generic — the register block, the interleave buffer, the
    /// panel kernel — so the two precisions cannot drift structurally.
    fn try_execute_batch_generic<E: Element>(
        &self,
        schedule: &ScheduledMatrix,
        b: &[E],
        batch: usize,
    ) -> Result<(Vec<E>, ExecutionReport), GustError> {
        self.check_batch::<E>(schedule, b.len(), batch)?;
        let cols = schedule.cols();

        let backend = self.backend();
        let rb = kernels::REG_BLOCK;
        let rows = schedule.rows();
        let mut y = vec![E::ZERO; rows * batch];
        let workers = self.config.effective_workers(batch.div_ceil(rb));

        run_blocks(
            workers,
            &mut y,
            rows,
            rb,
            batch,
            |j0, bb, y_block, scratch| {
                scratch.interleave(b, cols, j0, bb);
                run_block(backend, schedule, bb, rows, y_block, scratch);
            },
        );

        Ok((y, self.analytic_report(schedule, batch as u64)))
    }

    /// Audits a schedule of unknown provenance against the full safety
    /// contract the unsafe kernels rely on (see [`crate::verify`]) and,
    /// additionally, against this engine's configured accelerator
    /// length, issuing a [`VerifiedSchedule`] witness on success.
    ///
    /// Schedules built by this engine's own [`Gust::schedule`] satisfy
    /// the contract by construction; `admit` is the checkpoint for
    /// everything else — hand-assembled schedules, schedules built by a
    /// different engine, or deserialized ones obtained outside the
    /// auditing `read_schedule_file_verified` reader.
    ///
    /// # Errors
    ///
    /// The [`AuditReport`] listing every violation found (a
    /// length-mismatch is reported as [`Violation::Shape`]).
    pub fn admit(
        &self,
        schedule: ScheduledMatrix,
    ) -> Result<VerifiedSchedule<ScheduledMatrix>, Box<AuditReport>> {
        let length = schedule.length();
        if length != self.config.length() {
            return Err(Box::new(AuditReport::from_violations(vec![
                Violation::Shape {
                    what: format!(
                        "schedule length {length} does not match engine length {}",
                        self.config.length()
                    ),
                },
            ])));
        }
        VerifiedSchedule::verify(schedule)
    }

    /// The accounting of `batch` SpMVs over `schedule`, derived from the
    /// schedule alone: every slot is one multiply plus one accumulate, so
    /// per-color busy counts are the slot counts the scheduler already
    /// recorded — no counters need to watch the hot loop.
    fn analytic_report(&self, schedule: &ScheduledMatrix, batch: u64) -> ExecutionReport {
        let streaming_cycles = schedule.total_colors();
        let nnz = schedule.nnz() as u64;
        let l = self.config.length();
        // Three pipeline levels add 2 cycles of fill; an empty schedule
        // (no non-zeros anywhere) never starts the pipeline at all.
        let cycles = if streaming_cycles == 0 {
            0
        } else {
            streaming_cycles + 2
        };

        let mut report =
            ExecutionReport::new(self.config.design_name(), l, self.config.arithmetic_units());
        report.cycles = batch * cycles;
        report.nnz_processed = batch * nnz;
        report.busy_unit_cycles = batch * 2 * nnz; // one multiply + one add per slot
        report.stall_cycles = batch * schedule.total_stalls();
        report.multiplies = batch * nnz;
        report.additions = batch * nnz; // one accumulate per product
        report.frequency_hz = self.config.frequency_hz();
        let per_vector = self.traffic(
            streaming_cycles,
            nnz,
            schedule.rows() as u64,
            schedule.cols() as u64,
        );
        report.traffic = MemoryTraffic {
            off_chip_reads: batch * per_vector.off_chip_reads,
            off_chip_writes: batch * per_vector.off_chip_writes,
            on_chip_reads: batch * per_vector.on_chip_reads,
            on_chip_writes: batch * per_vector.on_chip_writes,
        };
        report
    }

    /// Memory-traffic model for one SpMV (§3.3 "Streaming the Inputs"
    /// and §4's Buffer Filler pipeline):
    ///
    /// * off-chip reads — the dense `M_sch`/`Col_sch` stream (two 32-bit
    ///   words per cell, empty cells included: that waste is the utilization
    ///   loss) plus the packed `Row_sch` indices and the input vector;
    /// * on-chip — double-buffer writes/reads in the Buffer Filler plus one
    ///   vector-element read per non-zero;
    /// * off-chip writes — the output vector.
    fn traffic(&self, total_colors: u64, nnz: u64, rows: u64, cols: u64) -> MemoryTraffic {
        let l = self.config.length() as u64;
        let cells = l * total_colors;
        let row_bits = u64::from(log2_ceil(self.config.length()));
        let row_words = (cells * row_bits).div_ceil(32);
        let stream_words = 2 * cells + row_words;
        MemoryTraffic {
            off_chip_reads: stream_words + cols,
            off_chip_writes: rows,
            // Buffer Filler: write the partition into on-chip memory, read
            // it back out, plus one vector read per multiply.
            on_chip_reads: stream_words + nnz,
            on_chip_writes: stream_words + cols,
        }
    }
}

/// Element type of a batched panel walk: the precision the operand
/// panel, accumulators and output are held in. The schedule's matrix
/// values stay `f32` either way; the two impls (`f32`, `f64`) plug the
/// matching monomorphized panel kernels and thread-local scratch into
/// the one generic walk body, so the two precisions cannot drift
/// structurally.
pub(crate) trait Element:
    Copy + Default + Send + Sync + std::fmt::Debug + PartialEq + 'static
{
    /// Additive identity (accumulator/buffer fill value).
    const ZERO: Self;
    /// The batched panel walk at this precision
    /// ([`kernels::panel_walk`] / [`kernels::panel_walk_f64`]).
    fn panel_walk(
        backend: Backend,
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[Self],
        acc: &mut [Self],
        bb: usize,
    );
    /// Runs `f` with this thread's scratch for this element type (each
    /// impl owns its own `thread_local!` — Rust has no generic
    /// thread-locals).
    fn with_block_scratch<R>(f: impl FnOnce(&mut BlockScratch<Self>) -> R) -> R;
}

impl Element for f32 {
    const ZERO: Self = 0.0;

    fn panel_walk(
        backend: Backend,
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[Self],
        acc: &mut [Self],
        bb: usize,
    ) {
        kernels::panel_walk(backend, values, idx, row_mods, operands, acc, bb);
    }

    fn with_block_scratch<R>(f: impl FnOnce(&mut BlockScratch<Self>) -> R) -> R {
        std::thread_local! {
            static SCRATCH: std::cell::RefCell<BlockScratch<f32>> =
                std::cell::RefCell::new(BlockScratch::default());
        }
        SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

impl Element for f64 {
    const ZERO: Self = 0.0;

    fn panel_walk(
        backend: Backend,
        values: &[f32],
        idx: &[u32],
        row_mods: &[u32],
        operands: &[Self],
        acc: &mut [Self],
        bb: usize,
    ) {
        kernels::panel_walk_f64(backend, values, idx, row_mods, operands, acc, bb);
    }

    fn with_block_scratch<R>(f: impl FnOnce(&mut BlockScratch<Self>) -> R) -> R {
        std::thread_local! {
            static SCRATCH: std::cell::RefCell<BlockScratch<f64>> =
                std::cell::RefCell::new(BlockScratch::default());
        }
        SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

/// Reusable per-thread scratch of the batched kernel: the whole-panel
/// interleave and the per-window accumulator block — in the walk's
/// element type.
///
/// Pool workers are never reaped, so their thread-local scratch lives
/// for the process; [`BlockScratch::trim`] bounds what a parked worker
/// keeps pinned after a huge matrix passes through.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch<E> {
    /// `xb[col * bb + j]` = panel value of column `col`, RHS `j0 + j`.
    xb: Vec<E>,
    /// `acc[row_mod * bb + j]` = running sum for adder `row_mod`, RHS `j`.
    acc: Vec<E>,
}

impl<E: Element> BlockScratch<E> {
    /// Retained capacity ceiling per buffer: 2²² elements (16 MiB of
    /// f32, 32 MiB of f64). Below it, buffers amortize across pool tasks
    /// and `execute_batch` calls (the repeated-solve pattern); above it —
    /// the multi-GB LLC shapes — the memory is released so a parked
    /// worker does not pin matrix-sized buffers for the process lifetime.
    const MAX_RETAINED: usize = 1 << 22;

    /// Releases oversized buffers (see [`BlockScratch::MAX_RETAINED`]).
    /// Called after each pool task; contents never carry meaning between
    /// tasks, only capacity.
    fn trim(&mut self) {
        for buf in [&mut self.xb, &mut self.acc] {
            if buf.capacity() > Self::MAX_RETAINED {
                buf.clear();
                buf.shrink_to(Self::MAX_RETAINED);
            }
        }
    }

    /// Interleaves the register block of `bb` right-hand sides starting
    /// at panel column `j0` into `xb`: one slot's `bb` vector elements
    /// become contiguous, so the kernel's inner loop is a unit-stride
    /// multiply-accumulate.
    /// Plain resize (no clear): the interleave overwrites every cell.
    fn interleave(&mut self, b: &[E], cols: usize, j0: usize, bb: usize) {
        self.xb.resize(cols * bb, E::ZERO);
        kernels::interleave_panel(b, cols, j0, bb, &mut self.xb);
    }
}

/// The single-vector walk of a flat schedule: streams `schedule` against
/// `x`, writing the permuted outputs into `y` (`schedule.rows()` long).
fn flat_walk_single(backend: Backend, schedule: &ScheduledMatrix, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(y.len(), schedule.rows());
    let l = schedule.length();
    let mut adders = vec![0.0f32; l];

    let row_perm = schedule.row_perm();
    for (w, window) in schedule.windows().iter().enumerate() {
        // Only the lanes this window's rows occupy are live: the final
        // window of a matrix with `rows % l != 0` is ragged, and lanes
        // past its row count are never scheduled (row_mod < active) nor
        // dumped.
        let active = schedule.window_rows(w);
        adders[..active].fill(0.0);

        // The streaming pass: color-major slot order means each adder
        // sees its products in color order, so this flat walk is
        // bit-identical to the per-cycle walk — under every backend,
        // because the kernels only vectorize the multiply-gathers and
        // keep the scatter into `adders` in slot order.
        kernels::window_walk(
            backend,
            window.values(),
            window.cols(),
            window.row_mods(),
            x,
            &mut adders,
        );

        // Dump: adder `i` holds the row scheduled at position w*l + i.
        let base = w * l;
        for (i, &acc) in adders[..active].iter().enumerate() {
            y[row_perm[base + i] as usize] = acc;
        }
    }
}

/// Executes a flat schedule against one register block of `bb` ≤
/// [`kernels::REG_BLOCK`] right-hand sides. Full blocks and ragged tails
/// go through the same dispatcher ([`kernels::panel_walk`]) — the tail
/// is just a smaller `bb`, which selects that width's monomorphized
/// kernel.
///
/// Every window reads `scratch.xb`, which the caller has already filled
/// with this block's interleaved whole panel
/// ([`BlockScratch::interleave`]). The row permutation addresses the
/// column-major `rows_total × bb` output block.
fn run_block<E: Element>(
    backend: Backend,
    schedule: &ScheduledMatrix,
    bb: usize,
    rows_total: usize,
    y_block: &mut [E],
    scratch: &mut BlockScratch<E>,
) {
    let l = schedule.length();
    scratch.acc.resize(l * bb, E::ZERO);

    let row_perm = schedule.row_perm();
    for (w, window) in schedule.windows().iter().enumerate() {
        let active = schedule.window_rows(w);
        scratch.acc[..active * bb].fill(E::ZERO);
        E::panel_walk(
            backend,
            window.values(),
            window.cols(),
            window.row_mods(),
            &scratch.xb,
            &mut scratch.acc,
            bb,
        );
        // Dump the active lanes through the row permutation into each
        // output column.
        let base = w * l;
        kernels::scatter_panel(
            &scratch.acc[..active * bb],
            &row_perm[base..base + active],
            rows_total,
            bb,
            y_block,
        );
    }
}

/// Runs `f(j0, bb, y_block, scratch)` for every register block of the
/// batch, either sequentially or fanned out over the persistent worker
/// [`Pool`]. Each block owns a disjoint chunk of the column-major output
/// panel (claimed exactly once through its own slot), so the result is
/// bit-identical for every worker count regardless of the pool's dynamic
/// task order. Pool workers keep per-thread scratch per element type
/// (`Element::with_block_scratch`), so the interleave/accumulator
/// buffers amortize across `execute_batch` calls — exactly the
/// repeated-solve pattern the pool exists for.
fn run_blocks<E: Element>(
    workers: usize,
    y: &mut [E],
    rows: usize,
    rb: usize,
    batch: usize,
    f: impl Fn(usize, usize, &mut [E], &mut BlockScratch<E>) + Sync,
) {
    // A zero-row schedule has no output to chunk (and `chunks_mut(0)`
    // would panic); every block's dump would be empty anyway.
    if y.is_empty() {
        return;
    }
    let blocks = batch.div_ceil(rb);
    if workers <= 1 {
        let mut scratch = BlockScratch::default();
        for (blk, y_block) in y.chunks_mut(rows * rb).enumerate() {
            let j0 = blk * rb;
            let bb = (batch - j0).min(rb);
            f(j0, bb, y_block, &mut scratch);
        }
        return;
    }
    let chunks: Vec<std::sync::Mutex<Option<&mut [E]>>> = y
        .chunks_mut(rows * rb)
        .map(|chunk| std::sync::Mutex::new(Some(chunk)))
        .collect();
    Pool::global().run(workers, blocks, |blk| {
        let y_block = chunks[blk]
            .lock()
            .expect("output block lock")
            .take()
            .expect("each block runs exactly once");
        let j0 = blk * rb;
        let bb = (batch - j0).min(rb);
        E::with_block_scratch(|scratch| {
            f(j0, bb, y_block, scratch);
            scratch.trim();
        });
    });
}

impl Default for Gust {
    /// A length-256 GUST with the paper's defaults.
    fn default() -> Self {
        Self::new(GustConfig::new(256))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingPolicy;
    use gust_sparse::prelude::*;

    fn random_x(n: usize, seed: u64) -> Vec<f32> {
        // Simple deterministic pseudo-random vector.
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                ((h % 1000) as f32) / 500.0 - 1.0
            })
            .collect()
    }

    /// Column-major panel of `batch` deterministic vectors.
    fn random_panel(n: usize, batch: usize, seed: u64) -> Vec<f32> {
        let mut panel = Vec::with_capacity(n * batch);
        for j in 0..batch {
            panel.extend(random_x(n, seed + j as u64));
        }
        panel
    }

    #[test]
    fn output_matches_reference_for_all_policies() {
        let m = CsrMatrix::from(&gen::uniform(50, 60, 400, 11));
        let x = random_x(60, 1);
        let expected = reference_spmv(&m, &x);
        for policy in [
            SchedulingPolicy::Naive,
            SchedulingPolicy::EdgeColoring,
            SchedulingPolicy::EdgeColoringLb,
        ] {
            let run = Gust::new(GustConfig::new(8).with_policy(policy)).spmv(&m, &x);
            assert_vectors_close(&run.output, &expected, 1e-4);
        }
    }

    #[test]
    fn cycles_are_colors_plus_two() {
        let m = CsrMatrix::from(&gen::uniform(32, 32, 200, 3));
        let gust = Gust::new(GustConfig::new(8));
        let s = gust.schedule(&m);
        let run = gust.execute(&s, &random_x(32, 2));
        assert_eq!(run.report.cycles, s.total_colors() + 2);
    }

    #[test]
    fn utilization_equals_nnz_over_lanes_times_cycles() {
        let m = CsrMatrix::from(&gen::uniform(64, 64, 500, 4));
        let gust = Gust::new(GustConfig::new(16));
        let run = gust.spmv(&m, &random_x(64, 3));
        // busy = 2*nnz (mult + add); units = 2l.
        let expected = 500.0 / (16.0 * run.report.cycles as f64);
        assert!((run.report.utilization() - expected).abs() < 1e-12);
    }

    #[test]
    fn schedule_reuse_across_vectors() {
        let m = CsrMatrix::from(&gen::banded(40, 40, 3, 150, 5));
        let gust = Gust::new(GustConfig::new(8));
        let s = gust.schedule(&m);
        for seed in 0..4 {
            let x = random_x(40, seed);
            let run = gust.execute(&s, &x);
            assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-4);
        }
    }

    #[test]
    fn load_balanced_output_is_correctly_unpermuted() {
        // Highly skewed rows force a non-trivial permutation.
        let m = CsrMatrix::from(&gen::power_law(64, 64, 600, 1.6, 6));
        let x = random_x(64, 7);
        let gust = Gust::new(GustConfig::new(8)); // EC/LB default
        let run = gust.spmv(&m, &x);
        assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-4);
    }

    #[test]
    fn empty_rows_produce_zero_outputs() {
        let coo = CooMatrix::from_triplets(6, 6, vec![(0, 0, 2.0), (5, 5, 3.0)]).unwrap();
        let m = CsrMatrix::from(&coo);
        let run = Gust::new(GustConfig::new(4)).spmv(&m, &[1.0; 6]);
        assert_eq!(run.output, vec![2.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn rectangular_matrices_work() {
        let m = CsrMatrix::from(&gen::uniform(20, 100, 300, 8));
        let x = random_x(100, 9);
        let run = Gust::new(GustConfig::new(8)).spmv(&m, &x);
        assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-4);
    }

    #[test]
    fn naive_reports_stalls_ec_does_not() {
        let m = CsrMatrix::from(&gen::uniform(32, 32, 512, 9));
        let x = random_x(32, 10);
        let run = |policy| Gust::new(GustConfig::new(8).with_policy(policy)).spmv(&m, &x);
        let naive = run(SchedulingPolicy::Naive);
        let ec = run(SchedulingPolicy::EdgeColoring);
        assert!(naive.report.stall_cycles > 0);
        assert_eq!(ec.report.stall_cycles, 0);
        assert!(naive.report.cycles >= ec.report.cycles);
    }

    #[test]
    fn instrumented_path_is_bit_identical_to_fast_path() {
        for (name, coo) in [
            ("uniform", gen::uniform(48, 48, 400, 21)),
            ("power-law", gen::power_law(48, 48, 350, 1.8, 22)),
            ("ragged", gen::uniform(45, 45, 300, 23)), // 45 % 8 != 0
        ] {
            let m = CsrMatrix::from(&coo);
            let x = random_x(m.cols(), 5);
            let gust = Gust::new(GustConfig::new(8));
            let s = gust.schedule(&m);
            let fast = gust.execute(&s, &x);
            let slow = gust.execute_instrumented(&s, &x);
            assert_eq!(fast.output, slow.output, "{name}: outputs differ");
            assert_eq!(fast.report, slow.report, "{name}: reports differ");
        }
    }

    #[test]
    fn ragged_final_window_dumps_only_live_lanes() {
        // 10 rows at l = 4: the final window covers 2 rows. A heavy first
        // window leaves stale sums in lanes 2..4, which must never leak
        // into the output.
        let m = CsrMatrix::from(&gen::uniform(10, 10, 60, 31));
        let x = random_x(10, 6);
        let gust = Gust::new(GustConfig::new(4));
        let s = gust.schedule(&m);
        assert_eq!(s.rows() % 4, 2, "test needs a ragged final window");
        let run = gust.execute(&s, &x);
        assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-4);
        // And the batched kernel agrees bit for bit on the same shape
        // (scalar backend: the AVX2 panel walk fuses into FMA, which the
        // backend-equivalence tests cover with a ULP bound instead).
        let scalar = Gust::new(GustConfig::new(4).with_backend(Some(Backend::Scalar)));
        let scalar_run = scalar.execute(&s, &x);
        assert_eq!(
            scalar_run.output, run.output,
            "execute is backend-invariant"
        );
        let (panel_out, _) = scalar.execute_batch(&s, &x, 1);
        assert_eq!(panel_out, run.output);
    }

    #[test]
    fn execute_batch_matches_per_vector_runs() {
        let m = CsrMatrix::from(&gen::uniform(48, 48, 300, 12));
        // Scalar backend: batched columns are bit-identical to the scalar
        // per-vector path. (Under AVX2 the batched kernel fuses into FMA;
        // tests/backend_equivalence.rs pins that to scalar within ULPs.)
        let gust = Gust::new(GustConfig::new(8).with_backend(Some(Backend::Scalar)));
        let schedule = gust.schedule(&m);
        let batch = 4usize;
        let panel = random_panel(48, batch, 0);
        let (outputs, report) = gust.execute_batch(&schedule, &panel, batch);
        assert_eq!(outputs.len(), 48 * batch);
        let mut cycles = 0u64;
        for j in 0..batch {
            let x = &panel[j * 48..(j + 1) * 48];
            let single = gust.execute(&schedule, x);
            assert_eq!(
                &outputs[j * 48..(j + 1) * 48],
                single.output.as_slice(),
                "column {j} must be bit-identical to the scalar path"
            );
            cycles += single.report.cycles;
        }
        assert_eq!(report.cycles, cycles);
        assert_eq!(report.nnz_processed, 4 * 300);
        assert_eq!(report.busy_unit_cycles, 4 * 2 * 300);
    }

    #[test]
    fn execute_batch_is_identical_across_worker_counts() {
        let m = CsrMatrix::from(&gen::power_law(64, 64, 600, 1.9, 13));
        let batch = 19usize; // 3 blocks: 8 + 8 + 3
        let panel = random_panel(64, batch, 7);
        let sequential = Gust::new(GustConfig::new(8).with_parallelism(Some(1)));
        let threaded = Gust::new(GustConfig::new(8).with_parallelism(Some(4)));
        let schedule = sequential.schedule(&m);
        let (seq, seq_report) = sequential.execute_batch(&schedule, &panel, batch);
        let (par, par_report) = threaded.execute_batch(&schedule, &panel, batch);
        assert_eq!(seq, par, "thread fan-out must not change a single bit");
        assert_eq!(seq_report, par_report);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn empty_batch_panics() {
        let m = CsrMatrix::identity(4);
        let gust = Gust::new(GustConfig::new(2));
        let s = gust.schedule(&m);
        let _ = gust.execute_batch(&s, &[], 0);
    }

    #[test]
    #[should_panic(expected = "column-major")]
    fn wrong_panel_shape_panics() {
        let m = CsrMatrix::identity(4);
        let gust = Gust::new(GustConfig::new(2));
        let s = gust.schedule(&m);
        let _ = gust.execute_batch(&s, &[1.0; 7], 2);
    }

    #[test]
    fn update_values_reuses_the_coloring() {
        // Same pattern, new values (the Jacobian/Hessian case of §3.3).
        let coo_a = gen::uniform(40, 40, 250, 13);
        let m_a = CsrMatrix::from(&coo_a);
        // Scale all values: same sparsity, different numbers.
        let coo_b =
            CooMatrix::from_triplets(40, 40, coo_a.iter().map(|(r, c, v)| (r, c, v * 3.5 + 1.0)))
                .unwrap();
        let m_b = CsrMatrix::from(&coo_b);

        let gust = Gust::new(GustConfig::new(8));
        let mut schedule = gust.schedule(&m_a);
        let colors_before = schedule.total_colors();
        schedule.update_values(&m_b);
        assert_eq!(schedule.total_colors(), colors_before, "coloring unchanged");
        schedule.validate_against(&m_b);
        let x = random_x(40, 4);
        let run = gust.execute(&schedule, &x);
        assert_vectors_close(&run.output, &reference_spmv(&m_b, &x), 1e-4);
    }

    #[test]
    #[should_panic(expected = "sparsity pattern mismatch")]
    fn update_values_rejects_different_pattern() {
        let m_a = CsrMatrix::from(&gen::uniform(20, 20, 60, 14));
        let m_b = CsrMatrix::from(&gen::uniform(20, 20, 60, 15));
        let mut schedule = Gust::new(GustConfig::new(4)).schedule(&m_a);
        schedule.update_values(&m_b);
    }

    #[test]
    fn traffic_scales_with_schedule_size() {
        let m = CsrMatrix::from(&gen::uniform(64, 64, 256, 10));
        let gust = Gust::new(GustConfig::new(8));
        let s = gust.schedule(&m);
        let run = gust.execute(&s, &random_x(64, 11));
        let cells = 8 * s.total_colors();
        assert!(run.report.traffic.off_chip_reads >= 2 * cells);
        assert_eq!(run.report.traffic.off_chip_writes, 64);
    }

    #[test]
    #[should_panic(expected = "different GUST length")]
    fn mismatched_schedule_length_panics() {
        let m = CsrMatrix::identity(8);
        let s = Gust::new(GustConfig::new(4)).schedule(&m);
        let _ = Gust::new(GustConfig::new(8)).execute(&s, &[1.0; 8]);
    }

    #[test]
    fn zero_row_matrices_execute_to_empty_outputs() {
        let m = CsrMatrix::try_new(0, 5, vec![0], vec![], vec![]).expect("0×5 is valid");
        let gust = Gust::new(GustConfig::new(4));
        let s = gust.schedule(&m);
        assert_eq!(gust.execute(&s, &[1.0; 5]).output, Vec::<f32>::new());
        let (y, _) = gust.execute_batch(&s, &[1.0; 40], 8);
        assert_eq!(y, Vec::<f32>::new());
    }
}
