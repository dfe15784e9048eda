//! The normalized result record every accelerator model produces.

use crate::mem::MemoryTraffic;

/// Outcome of one SpMV execution on some accelerator model.
///
/// This is the lingua franca between the accelerator crates and the
/// benchmark harness: every table and figure of the paper is computed from
/// these fields (plus the energy model's constants).
///
/// # Example
///
/// ```
/// use gust_sim::ExecutionReport;
///
/// let mut r = ExecutionReport::new("1d-systolic", 256, 512);
/// r.cycles = 1_000;
/// r.nnz_processed = 4_096;
/// r.busy_unit_cycles = 8_192; // one multiply + one add per nnz
/// assert!((r.utilization() - 8_192.0 / (512.0 * 1_000.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Short machine-readable design name (e.g. `"gust-ec-lb"`).
    pub design: String,
    /// Design length `l` (PEs for 1D, leaves for trees, lanes for GUST).
    pub length: usize,
    /// Total arithmetic units (multipliers + adders) charged for utilization.
    pub arithmetic_units: usize,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Non-zero elements processed (useful multiplies).
    pub nnz_processed: u64,
    /// Useful unit-cycles: cycles×units where a unit did non-zero work.
    pub busy_unit_cycles: u64,
    /// Cycles lost to stalls (collisions, reconfiguration, drain…).
    pub stall_cycles: u64,
    /// Floating-point multiplies performed.
    pub multiplies: u64,
    /// Floating-point additions performed.
    pub additions: u64,
    /// Memory traffic tallies.
    pub traffic: MemoryTraffic,
    /// Clock frequency the cycle count is converted to seconds with.
    pub frequency_hz: f64,
}

impl ExecutionReport {
    /// Creates an empty report for a design of the given length and total
    /// arithmetic-unit count.
    #[must_use]
    pub fn new(design: impl Into<String>, length: usize, arithmetic_units: usize) -> Self {
        Self {
            design: design.into(),
            length,
            arithmetic_units,
            cycles: 0,
            nnz_processed: 0,
            busy_unit_cycles: 0,
            stall_cycles: 0,
            multiplies: 0,
            additions: 0,
            traffic: MemoryTraffic::default(),
            frequency_hz: crate::Clock::DEFAULT_FREQUENCY_HZ,
        }
    }

    /// Hardware utilization per the paper's §1 definition: average busy
    /// arithmetic units per cycle over total arithmetic units, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.arithmetic_units == 0 {
            return 0.0;
        }
        self.busy_unit_cycles as f64 / (self.arithmetic_units as f64 * self.cycles as f64)
    }

    /// Execution wall-clock time in seconds at [`Self::frequency_hz`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.frequency_hz
    }

    /// Total floating-point operations (multiplies + additions).
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.multiplies + self.additions
    }

    /// Throughput in GFLOP/s, counting `2 × nnz` useful flops per SpMV as
    /// the paper's Table 4 does.
    #[must_use]
    pub fn gflops(&self) -> f64 {
        let seconds = self.seconds();
        if seconds <= 0.0 {
            return 0.0;
        }
        (2.0 * self.nnz_processed as f64) / seconds / 1.0e9
    }

    /// Speedup of this run relative to `baseline` (cycles ratio when clocks
    /// match, otherwise wall-clock ratio).
    #[must_use]
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        let mine = self.seconds();
        if mine <= 0.0 {
            return 0.0;
        }
        baseline.seconds() / mine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_matches_definition() {
        let mut r = ExecutionReport::new("x", 4, 8);
        r.cycles = 100;
        r.busy_unit_cycles = 200;
        assert!((r.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_empty_run_is_zero() {
        let r = ExecutionReport::new("x", 4, 8);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn seconds_uses_frequency() {
        let mut r = ExecutionReport::new("x", 1, 2);
        r.cycles = 96_000_000;
        r.frequency_hz = 96.0e6;
        assert!((r.seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gflops_counts_two_flops_per_nnz() {
        let mut r = ExecutionReport::new("x", 1, 2);
        r.cycles = 96; // 1 microsecond at 96 MHz
        r.frequency_hz = 96.0e6;
        r.nnz_processed = 48_000;
        // 2*48e3 flops / 1e-6 s = 96 GFLOPS
        assert!((r.gflops() - 96.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_baseline_time_over_mine() {
        let mut fast = ExecutionReport::new("fast", 1, 2);
        fast.cycles = 10;
        let mut slow = ExecutionReport::new("slow", 1, 2);
        slow.cycles = 1000;
        assert!((fast.speedup_over(&slow) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_respects_different_clocks() {
        let mut a = ExecutionReport::new("a", 1, 2);
        a.cycles = 100;
        a.frequency_hz = 200.0;
        let mut b = ExecutionReport::new("b", 1, 2);
        b.cycles = 100;
        b.frequency_hz = 100.0;
        // a runs at twice the clock: same cycles, half the time -> 2x speedup.
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flops_total() {
        let mut r = ExecutionReport::new("x", 1, 2);
        r.multiplies = 5;
        r.additions = 7;
        assert_eq!(r.flops(), 12);
    }
}
