//! Seeded randomness: every input and arrival time derives from `--seed`.

use std::time::Duration;

/// splitmix64: small, fast, and the same family the library's own
/// fault injector uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label, so independent uses
    /// of one seed do not share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-zero integer in `-k..=k`, as `f32`.
    pub fn nonzero_int(&mut self, k: u64) -> f32 {
        let v = self.below(2 * k) as i64 - k as i64;
        (if v >= 0 { v + 1 } else { v }) as f32
    }
}

/// Poisson arrival offsets at `rate` per second over `span`: exponential
/// gaps drawn from `(seed, stream)`. The same arguments always give the
/// same schedule.
#[must_use]
pub fn poisson_schedule(seed: u64, stream: u64, rate: f64, span: Duration) -> Vec<Duration> {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "arrival rate must be positive"
    );
    let mut rng = Rng::new(seed, stream);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 8);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(7, 1, 500.0, span);
        assert_eq!(a, poisson_schedule(7, 1, 500.0, span));
        assert_ne!(a, poisson_schedule(8, 1, 500.0, span));
        assert_ne!(a, poisson_schedule(7, 2, 500.0, span));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let span = Duration::from_secs(20);
        let a = poisson_schedule(3, 0, 1000.0, span);
        // 20 000 expected arrivals; 5 sigma is about ±710.
        assert!((19_000..=21_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &span);
    }

    #[test]
    fn nonzero_ints_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let v = r.nonzero_int(3);
            assert!(v != 0.0 && (-3.0..=3.0).contains(&v) && v.fract() == 0.0);
        }
    }
}
