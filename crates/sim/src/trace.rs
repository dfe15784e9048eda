//! Per-cycle execution traces.
//!
//! A [`CycleTrace`] records what a simulated design did on every clock
//! edge — how many units were busy, what retired — giving tests and
//! debugging sessions visibility that aggregate counters cannot: *where*
//! in an execution the utilization dips, not just its average.

use crate::clock::Cycle;

/// One cycle's activity snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The cycle this entry describes.
    pub cycle: Cycle,
    /// Multipliers that did useful work.
    pub busy_multipliers: u32,
    /// Adders that did useful work.
    pub busy_adders: u32,
    /// Whether a window's results were dumped this cycle.
    pub dumped_window: bool,
}

/// An append-only per-cycle activity log.
///
/// # Example
///
/// ```
/// use gust_sim::trace::CycleTrace;
///
/// let mut trace = CycleTrace::new();
/// trace.record(0, 3, 0, false);
/// trace.record(1, 2, 3, true);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.total_busy_multipliers(), 5);
/// assert_eq!(trace.dumps(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleTrace {
    entries: Vec<TraceEntry>,
}

impl CycleTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cycle's snapshot.
    pub fn record(
        &mut self,
        cycle: Cycle,
        busy_multipliers: u32,
        busy_adders: u32,
        dumped_window: bool,
    ) {
        debug_assert!(
            self.entries.last().is_none_or(|last| last.cycle < cycle),
            "trace cycles must be strictly increasing"
        );
        self.entries.push(TraceEntry {
            cycle,
            busy_multipliers,
            busy_adders,
            dumped_window,
        });
    }

    /// Recorded entries in cycle order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether anything was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of busy multipliers across the trace.
    #[must_use]
    pub fn total_busy_multipliers(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.busy_multipliers))
            .sum()
    }

    /// Sum of busy adders across the trace.
    #[must_use]
    pub fn total_busy_adders(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.busy_adders)).sum()
    }

    /// Window dumps recorded.
    #[must_use]
    pub fn dumps(&self) -> usize {
        self.entries.iter().filter(|e| e.dumped_window).count()
    }

    /// Cycles in which no unit was busy (pipeline bubbles).
    #[must_use]
    pub fn idle_cycles(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.busy_multipliers == 0 && e.busy_adders == 0)
            .count()
    }

    /// Occupancy histogram of busy-multiplier counts: `hist[k]` = cycles
    /// with exactly `k` busy multipliers, for `k` up to `max_units`.
    #[must_use]
    pub fn multiplier_histogram(&self, max_units: usize) -> Vec<u64> {
        let mut hist = vec![0u64; max_units + 1];
        for e in &self.entries {
            let k = (e.busy_multipliers as usize).min(max_units);
            hist[k] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleTrace {
        let mut t = CycleTrace::new();
        t.record(0, 4, 0, false);
        t.record(1, 4, 4, false);
        t.record(2, 0, 4, true);
        t.record(3, 0, 0, false);
        t
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.total_busy_multipliers(), 8);
        assert_eq!(t.total_busy_adders(), 8);
        assert_eq!(t.dumps(), 1);
        assert_eq!(t.idle_cycles(), 1);
    }

    #[test]
    fn histogram_buckets_cycles() {
        let t = sample();
        let hist = t.multiplier_histogram(4);
        assert_eq!(hist, vec![2, 0, 0, 0, 2]);
    }

    #[test]
    fn histogram_clamps_overflow() {
        let mut t = CycleTrace::new();
        t.record(0, 100, 0, false);
        assert_eq!(t.multiplier_histogram(4), vec![0, 0, 0, 0, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_out_of_order_cycles() {
        let mut t = CycleTrace::new();
        t.record(5, 1, 1, false);
        t.record(5, 1, 1, false);
    }
}
