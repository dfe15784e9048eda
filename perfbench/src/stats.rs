//! Sample summaries: the median and the tail rule every timing uses.

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one sample of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle values for an even count).
    pub p50: f64,
    /// The tail value: the highest percentile with at least
    /// [`TAIL_BEYOND`] samples beyond it, or the maximum when the sample
    /// is too small to have one.
    pub tail: f64,
    /// The percentile `tail` sits at (`100 · (n − 10) / n`), or 100 when
    /// `tail` fell back to the maximum.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (tail, tail_pct) = match tail_index(n) {
            Some(i) => (sorted[i], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64),
            None => (sorted[n - 1], 100.0),
        };
        Some(Self {
            n,
            p50,
            tail,
            tail_pct,
        })
    }

    /// Whether the sample was large enough for the tail rule.
    #[must_use]
    pub fn has_tail(&self) -> bool {
        tail_index(self.n).is_some()
    }
}

/// Index into a sorted sample of `n` values of the highest percentile
/// that leaves [`TAIL_BEYOND`] samples beyond it.
#[must_use]
pub fn tail_index(n: usize) -> Option<usize> {
    n.checked_sub(TAIL_BEYOND + 1)
}

/// Median of `values`, 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);
        assert!((s.tail_pct - 99.0).abs() < 1e-12);
        assert!((s.p50 - 500.5).abs() < 1e-12);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut values: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 50)).collect();
        let a = Summary::of(&values).unwrap();
        values.reverse();
        assert_eq!(Summary::of(&values).unwrap(), a);
        assert_eq!(a.tail, 39.0);
        assert!((a.tail_pct - 80.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
        assert!(!s.has_tail());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let s = Summary::of(&eleven).unwrap();
        assert!(s.has_tail());
        assert_eq!(s.tail, 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
