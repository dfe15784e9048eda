//! End-to-end SpMV accounting: preprocessing + vector load + calculation.
//!
//! Table 4 separates GUST's cost into a one-time preprocessing phase
//! (scheduling on a host CPU — here: the *actual* wall-clock of our Rust
//! scheduler) and a per-SpMV calculation phase on the accelerator. §5.3
//! argues the preprocessing amortizes because iterative solvers run
//! thousands of SpMVs against one matrix; [`EndToEnd::break_even_spmvs`]
//! computes that break-even explicitly.

use crate::config::GustConfig;
use crate::engine::{Gust, GustRun};
use gust_sparse::CsrMatrix;
use std::time::Instant;

/// One complete measured SpMV setup: schedule once, run once, keep both
/// costs.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Wall-clock seconds the scheduler (preprocessing) took on this host.
    pub preprocess_seconds: f64,
    /// Seconds to forward the input vector to the Buffer Filler at the
    /// given HBM bandwidth (the paper adds this phase's energy separately).
    pub vector_load_seconds: f64,
    /// The calculation-phase run (cycles, utilization, traffic).
    pub run: GustRun,
}

impl EndToEnd {
    /// Schedules `matrix`, timing the preprocessing, then executes one SpMV.
    ///
    /// `hbm_bytes_per_second` sets the vector-load phase speed; pass
    /// [`gust_sim::HbmModel::alveo_u280`]'s peak (460 GB/s) to match §4.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    #[must_use]
    pub fn measure(
        config: GustConfig,
        matrix: &CsrMatrix,
        x: &[f32],
        hbm_bytes_per_second: f64,
    ) -> Self {
        let gust = Gust::new(config);
        let t0 = Instant::now();
        let schedule = gust.schedule(matrix);
        let preprocess_seconds = t0.elapsed().as_secs_f64();
        let run = gust.execute(&schedule, x);
        let vector_load_seconds = (matrix.cols() as f64 * 4.0) / hbm_bytes_per_second;
        Self {
            preprocess_seconds,
            vector_load_seconds,
            run,
        }
    }

    /// Seconds per SpMV once the schedule exists (calculation only).
    #[must_use]
    fn calc_seconds(&self) -> f64 {
        self.run.report.seconds()
    }

    /// Total seconds for `iterations` SpMVs against this matrix:
    /// preprocessing once, vector load + calculation per iteration.
    #[must_use]
    pub fn total_seconds(&self, iterations: u64) -> f64 {
        self.preprocess_seconds
            + iterations as f64 * (self.vector_load_seconds + self.calc_seconds())
    }

    /// Number of SpMVs after which GUST (preprocessing included) beats an
    /// alternative that costs `other_seconds_per_spmv` each time with no
    /// preprocessing — e.g. the paper's §5.3 example where a dense
    /// matrix-vector product on the same FPGA takes ~0.7 s.
    ///
    /// Returns `None` if GUST's per-iteration cost alone is not lower.
    #[must_use]
    pub fn break_even_spmvs(&self, other_seconds_per_spmv: f64) -> Option<u64> {
        let mine = self.vector_load_seconds + self.calc_seconds();
        if mine >= other_seconds_per_spmv {
            return None;
        }
        Some((self.preprocess_seconds / (other_seconds_per_spmv - mine)).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gust_sparse::prelude::*;

    fn example() -> (CsrMatrix, Vec<f32>) {
        let m = CsrMatrix::from(&gen::uniform(128, 128, 1500, 9));
        let x: Vec<f32> = (0..128).map(|i| (i % 5) as f32).collect();
        (m, x)
    }

    #[test]
    fn measures_all_three_phases() {
        let (m, x) = example();
        let e2e = EndToEnd::measure(GustConfig::new(16), &m, &x, 460.0e9);
        assert!(e2e.preprocess_seconds > 0.0);
        assert!(e2e.vector_load_seconds > 0.0);
        assert!(e2e.calc_seconds() > 0.0);
        assert_vectors_close(&e2e.run.output, &reference_spmv(&m, &x), 1e-4);
    }

    #[test]
    fn total_seconds_amortizes_preprocessing() {
        let (m, x) = example();
        let e2e = EndToEnd::measure(GustConfig::new(16), &m, &x, 460.0e9);
        let one = e2e.total_seconds(1);
        let thousand = e2e.total_seconds(1000);
        // 1000 iterations cost far less than 1000x one iteration-with-
        // preprocessing.
        assert!(thousand < 1000.0 * one);
        let per_iter = (thousand - e2e.preprocess_seconds) / 1000.0;
        assert!((per_iter - (e2e.vector_load_seconds + e2e.calc_seconds())).abs() < 1e-12);
    }

    #[test]
    fn break_even_against_slow_alternative() {
        let (m, x) = example();
        let e2e = EndToEnd::measure(GustConfig::new(16), &m, &x, 460.0e9);
        // An alternative 100x slower than GUST's per-iteration cost.
        let other = (e2e.vector_load_seconds + e2e.calc_seconds()) * 100.0;
        let n = e2e
            .break_even_spmvs(other)
            .expect("GUST per-iter is faster");
        assert!(e2e.total_seconds(n) <= n as f64 * other * 1.01);
    }

    #[test]
    fn no_break_even_against_faster_alternative() {
        let (m, x) = example();
        let e2e = EndToEnd::measure(GustConfig::new(16), &m, &x, 460.0e9);
        assert_eq!(e2e.break_even_spmvs(0.0), None);
    }
}
