//! GUST configuration: length, clock, scheduling policy, kernel backend
//! and worker parallelism.
//!
//! # Environment handling
//!
//! The runtime env resolvers (`GUST_PARALLELISM` here, `GUST_BACKEND` in
//! [`gust_sparse::kernels::default_backend`]) **warn and default** on a
//! malformed value: a long-lived process must not be taken down at its
//! first SpMV by a typo in its environment.

use gust_sparse::kernels::Backend;

/// How non-zeros are assigned to time slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// No reordering: stream column segments in natural order and stall on
    /// every adder collision (§3.3 "the naive method").
    Naive,
    /// Edge-coloring scheduling (paper Listing 1), no load balancing.
    EdgeColoring,
    /// Edge-coloring plus the three-step sort load balancer of §3.5.
    /// This is the configuration the paper reports headline numbers for.
    EdgeColoringLb,
}

impl SchedulingPolicy {
    /// Short label used in reports and tables (matches the paper's figure
    /// legends: "Naive", "EC", "EC/LB").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Naive => "Naive",
            Self::EdgeColoring => "EC",
            Self::EdgeColoringLb => "EC/LB",
        }
    }
}

/// Which edge-coloring implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ColoringAlgorithm {
    /// Listing 1 verbatim: scan each left vertex's edge list in column order
    /// and take the first edge whose lane is unmatched. O(degree) scans.
    Verbatim,
    /// Same greedy matching discipline, but edges are grouped per lane and
    /// groups are visited in first-occurrence order, giving near-linear
    /// behaviour on large windows. Produces a valid coloring with the same
    /// matching structure; slot order within a row may differ from
    /// [`ColoringAlgorithm::Verbatim`]. Default.
    #[default]
    Grouped,
    /// Optimal bipartite multigraph coloring (Kőnig): exactly Δ colors, the
    /// Vizing/Eq. 1 lower bound. Slower; used for the ablation study of how
    /// close the paper's greedy heuristic gets to optimal.
    Konig,
}

/// Configuration of one GUST instance.
///
/// # Example
///
/// ```
/// use gust::{GustConfig, SchedulingPolicy};
///
/// let config = GustConfig::new(256).with_policy(SchedulingPolicy::EdgeColoringLb);
/// assert_eq!(config.length(), 256);
/// assert_eq!(config.arithmetic_units(), 512);
/// assert_eq!(config.frequency_hz(), GustConfig::PAPER_FREQUENCY_HZ);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GustConfig {
    length: usize,
    policy: SchedulingPolicy,
    coloring: ColoringAlgorithm,
    parallelism: Option<usize>,
    backend: Option<Backend>,
}

impl GustConfig {
    /// The paper's synthesized clock: 96 MHz, bounded by the crossbar's
    /// longest route (§4).
    pub const PAPER_FREQUENCY_HZ: f64 = 96.0e6;

    /// Creates a length-`l` configuration with the paper's defaults
    /// (EC/LB scheduling, 96 MHz).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    #[must_use]
    pub fn new(length: usize) -> Self {
        assert!(length > 0, "GUST length must be non-zero");
        Self {
            length,
            policy: SchedulingPolicy::EdgeColoringLb,
            coloring: ColoringAlgorithm::default(),
            parallelism: None,
            backend: None,
        }
    }

    /// Sets the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the edge-coloring algorithm (ignored under
    /// [`SchedulingPolicy::Naive`]).
    #[must_use]
    pub fn with_coloring(mut self, coloring: ColoringAlgorithm) -> Self {
        self.coloring = coloring;
        self
    }

    /// Sets the scheduler's worker-thread count: `Some(1)` forces the
    /// sequential path, `Some(n)` uses exactly `n` workers, and `None`
    /// (default) lets the scheduler match the host's available parallelism.
    /// Windows are independent (§3.2), so the schedule is bit-identical for
    /// every setting; only preprocessing wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is `Some(0)`.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        assert!(
            parallelism != Some(0),
            "parallelism must be at least 1 (or None for auto)"
        );
        self.parallelism = parallelism;
        self
    }

    /// Sets the execution-kernel backend: `Some(backend)` pins the
    /// engine's hot loops to that implementation, `None` (default)
    /// selects at runtime — the `GUST_BACKEND` environment variable if
    /// set, otherwise the fastest backend the host CPU supports (see
    /// [`gust_sparse::kernels::default_backend`]).
    ///
    /// A pinned backend the host cannot run falls back to
    /// [`Backend::Scalar`] rather than executing unsupported
    /// instructions, so schedules stay runnable (and crates stay
    /// portable) on any target.
    #[must_use]
    pub fn with_backend(mut self, backend: Option<Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Number of multipliers (= number of adders) `l`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Total arithmetic units: `l` multipliers + `l` adders.
    #[must_use]
    pub fn arithmetic_units(&self) -> usize {
        2 * self.length
    }

    /// Clock frequency in Hz: the paper's synthesized
    /// [`GustConfig::PAPER_FREQUENCY_HZ`].
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        Self::PAPER_FREQUENCY_HZ
    }

    /// Scheduling policy.
    #[must_use]
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Edge-coloring algorithm.
    #[must_use]
    pub fn coloring(&self) -> ColoringAlgorithm {
        self.coloring
    }

    /// The backend the engine will actually run: the configured one when
    /// it is available on this host, [`Backend::Scalar`] when it is
    /// configured but unavailable, and the process default
    /// (`GUST_BACKEND` override or best available) when none is
    /// configured. Never an unrunnable backend.
    #[must_use]
    pub fn effective_backend(&self) -> Backend {
        match self.backend {
            Some(b) if b.is_available() => b,
            Some(_) => Backend::Scalar,
            None => gust_sparse::kernels::default_backend(),
        }
    }

    /// Worker threads to use for `items` independent work units (schedule
    /// windows, batched-execution register blocks): the configured
    /// [`GustConfig::with_parallelism`] count, else the `GUST_PARALLELISM`
    /// environment variable, else the host's available parallelism —
    /// never more than one per item and never zero.
    #[must_use]
    pub fn effective_workers(&self, items: usize) -> usize {
        let requested = self
            .parallelism
            .or_else(env_parallelism)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        requested.max(1).min(items.max(1))
    }

    /// Design name used in reports, e.g. `"gust256-EC/LB"`.
    #[must_use]
    pub fn design_name(&self) -> String {
        format!("gust{}-{}", self.length, self.policy.label())
    }
}

/// Parses a `GUST_PARALLELISM` value: a positive worker count, or the
/// warning that names the variable, the value and what a valid one
/// looks like.
fn parse_parallelism(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "invalid GUST_PARALLELISM={raw:?}: must be a positive worker count (e.g. 4)"
        )),
    }
}

/// The `GUST_PARALLELISM` environment override, parsed once per process.
/// Unset or empty means automatic; `0` or a non-number warns (once) and
/// falls back to automatic parallelism.
fn env_parallelism() -> Option<usize> {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("GUST_PARALLELISM").ok()?;
        if raw.is_empty() {
            return None;
        }
        parse_parallelism(&raw)
            .map_err(|e| eprintln!("warning: {e}; using automatic parallelism"))
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GustConfig::new(256);
        assert_eq!(c.length(), 256);
        assert_eq!(c.arithmetic_units(), 512);
        assert_eq!(c.policy(), SchedulingPolicy::EdgeColoringLb);
        assert!((c.frequency_hz() - 96.0e6).abs() < 1.0);
    }

    #[test]
    fn builder_chains() {
        let c = GustConfig::new(8)
            .with_policy(SchedulingPolicy::Naive)
            .with_coloring(ColoringAlgorithm::Konig)
            .with_parallelism(Some(4))
            .with_backend(Some(Backend::Scalar));
        assert_eq!(c.policy(), SchedulingPolicy::Naive);
        assert_eq!(c.coloring(), ColoringAlgorithm::Konig);
        assert_eq!(c.effective_workers(64), 4);
        assert_eq!(c.effective_backend(), Backend::Scalar);
    }

    #[test]
    fn effective_backend_is_always_runnable() {
        // Default: runtime selection, whatever it picks must be available.
        assert!(GustConfig::new(8).effective_backend().is_available());
        // Pinned scalar stays scalar everywhere.
        let scalar = GustConfig::new(8).with_backend(Some(Backend::Scalar));
        assert_eq!(scalar.effective_backend(), Backend::Scalar);
        // Pinned AVX2 resolves to AVX2 on hosts that have it, scalar
        // elsewhere — never an unrunnable backend.
        let simd = GustConfig::new(8).with_backend(Some(Backend::Avx2));
        let effective = simd.effective_backend();
        assert!(effective.is_available());
        if Backend::Avx2.is_available() {
            assert_eq!(effective, Backend::Avx2);
        } else {
            assert_eq!(effective, Backend::Scalar);
        }
        // Pinned AVX-512 likewise: the backend on capable hosts, a
        // graceful scalar fallback everywhere else (the `GUST_BACKEND=
        // avx512` path on a host without the feature set).
        let wide = GustConfig::new(8).with_backend(Some(Backend::Avx512));
        let effective = wide.effective_backend();
        assert!(effective.is_available());
        if Backend::Avx512.is_available() {
            assert_eq!(effective, Backend::Avx512);
        } else {
            assert_eq!(effective, Backend::Scalar);
        }
    }

    #[test]
    fn parallelism_defaults_to_auto() {
        // Auto (environment or host) never asks for zero workers, nor for
        // more than one per item.
        let auto = GustConfig::new(8);
        assert!((1..=3).contains(&auto.effective_workers(3)));
        let seq = GustConfig::new(8).with_parallelism(Some(1));
        assert_eq!(seq.effective_workers(64), 1);
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_panics() {
        let _ = GustConfig::new(8).with_parallelism(Some(0));
    }

    #[test]
    fn design_name_encodes_length_and_policy() {
        let c = GustConfig::new(87).with_policy(SchedulingPolicy::EdgeColoring);
        assert_eq!(c.design_name(), "gust87-EC");
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulingPolicy::Naive.label(), "Naive");
        assert_eq!(SchedulingPolicy::EdgeColoring.label(), "EC");
        assert_eq!(SchedulingPolicy::EdgeColoringLb.label(), "EC/LB");
    }

    #[test]
    #[should_panic(expected = "length must be non-zero")]
    fn zero_length_panics() {
        let _ = GustConfig::new(0);
    }

    #[test]
    fn config_error_names_variable_value_and_expectation() {
        assert_eq!(parse_parallelism(" 4 "), Ok(4));
        for bad in ["banana", "0", "-2"] {
            let rendered = parse_parallelism(bad).unwrap_err();
            assert!(rendered.contains("GUST_PARALLELISM"), "{rendered}");
            assert!(rendered.contains(bad), "{rendered}");
            assert!(rendered.contains("positive worker count"), "{rendered}");
        }
    }
}
