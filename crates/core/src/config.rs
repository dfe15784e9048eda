//! GUST configuration: length, clock, scheduling policy, kernel backend
//! and worker parallelism.
//!
//! # Environment handling
//!
//! The runtime env resolvers (`GUST_PARALLELISM` here, `GUST_BACKEND` in
//! [`gust_sparse::kernels::default_backend`]) **warn and default** on a
//! malformed value: a long-lived process must not be taken down at its
//! first SpMV by a typo in its environment. Callers that instead want a
//! misspelled variable to fail loudly — CI matrix legs that must not
//! silently benchmark a different configuration than they claim —
//! validate eagerly with [`GustConfig::from_env_checked`], which turns
//! every malformed variable into a [`ConfigError`].

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

impl ColoringAlgorithm {
    /// Short label used in ablation tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Verbatim => "greedy-verbatim",
            Self::Grouped => "greedy-grouped",
            Self::Konig => "konig-optimal",
        }
    }
}

/// A configuration/environment value that could not be interpreted.
///
/// Produced by [`GustConfig::from_env_checked`]; the lenient runtime
/// resolvers log the same information as a warning and fall back to the
/// automatic default instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable (or constructor argument) at fault.
    pub var: String,
    /// The offending value, verbatim.
    pub value: String,
    /// What a valid value looks like.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    fn new(var: &str, value: &str, message: impl Into<String>) -> Self {
        Self {
            var: var.to_string(),
            value: value.to_string(),
            message: message.into(),
        }
    }
}

/// Configuration of one GUST instance.
///
/// # Example
///
/// ```
/// use gust::{GustConfig, SchedulingPolicy};
///
/// let config = GustConfig::new(256)
///     .with_policy(SchedulingPolicy::EdgeColoringLb)
///     .with_frequency(96.0e6);
/// assert_eq!(config.length(), 256);
/// assert_eq!(config.arithmetic_units(), 512);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GustConfig {
    length: usize,
    frequency_hz: f64,
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
            frequency_hz: Self::PAPER_FREQUENCY_HZ,
            policy: SchedulingPolicy::EdgeColoringLb,
            coloring: ColoringAlgorithm::default(),
            parallelism: None,
            backend: None,
        }
    }

    /// As [`GustConfig::new`], but validates every `GUST_*` environment
    /// variable eagerly and **pins** the parsed values into the
    /// configuration, so later `effective_*` calls cannot be surprised by
    /// the environment. Where the lenient runtime resolvers warn and
    /// fall back to automatic selection, this constructor turns each
    /// malformed variable into a [`ConfigError`] — use it at process
    /// startup when a misconfigured environment should abort the run
    /// (CI legs, benchmark harnesses) rather than degrade it.
    ///
    /// Checked variables: `GUST_PARALLELISM` (positive integer),
    /// `GUST_BACKEND` (`scalar`/`avx2`/`auto`). Unset (or empty) variables
    /// stay on automatic selection.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first malformed variable, its
    /// verbatim value, and what a valid value looks like. A zero
    /// `length` is reported the same way instead of panicking.
    pub fn from_env_checked(length: usize) -> Result<Self, ConfigError> {
        if length == 0 {
            return Err(ConfigError::new(
                "length",
                "0",
                "GUST length must be non-zero",
            ));
        }
        let mut config = Self::new(length);
        config.parallelism = checked_env_parallelism()?;
        config.backend = checked_env_backend()?;
        Ok(config)
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

    /// Sets the clock frequency in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_hz` is not positive and finite.
    #[must_use]
    pub fn with_frequency(mut self, frequency_hz: f64) -> Self {
        assert!(
            frequency_hz.is_finite() && frequency_hz > 0.0,
            "frequency must be positive and finite"
        );
        self.frequency_hz = frequency_hz;
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

    /// Clock frequency in Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
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

    /// Scheduler worker-thread setting (see
    /// [`GustConfig::with_parallelism`]).
    #[must_use]
    pub fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// Configured kernel backend (see [`GustConfig::with_backend`]);
    /// `None` means runtime selection.
    #[must_use]
    pub fn backend(&self) -> Option<Backend> {
        self.backend
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

/// Validated `GUST_PARALLELISM`: `Ok(None)` when unset/empty.
fn checked_env_parallelism() -> Result<Option<usize>, ConfigError> {
    match std::env::var("GUST_PARALLELISM") {
        Ok(raw) if !raw.is_empty() => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(ConfigError::new(
                "GUST_PARALLELISM",
                &raw,
                "must be a positive worker count (e.g. 4)",
            )),
        },
        _ => Ok(None),
    }
}

/// Validated `GUST_BACKEND`: `Ok(None)` when unset, empty or `auto`.
fn checked_env_backend() -> Result<Option<Backend>, ConfigError> {
    match std::env::var("GUST_BACKEND") {
        Ok(raw) if !raw.is_empty() && raw != "auto" => {
            Backend::from_name(&raw).map(Some).ok_or_else(|| {
                ConfigError::new(
                    "GUST_BACKEND",
                    &raw,
                    "must be one of scalar|avx2|avx512|auto",
                )
            })
        }
        _ => Ok(None),
    }
}

/// The `GUST_PARALLELISM` environment override, parsed once per process.
/// `0` or a non-number warns (once) and falls back to automatic
/// parallelism — validate with [`GustConfig::from_env_checked`] when a
/// misspelled CI leg should fail loudly instead.
fn env_parallelism() -> Option<usize> {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| match checked_env_parallelism() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("warning: {e}; using automatic parallelism");
            None
        }
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
            .with_frequency(1.0e6)
            .with_parallelism(Some(4))
            .with_backend(Some(Backend::Scalar));
        assert_eq!(c.policy(), SchedulingPolicy::Naive);
        assert_eq!(c.coloring(), ColoringAlgorithm::Konig);
        assert!((c.frequency_hz() - 1.0e6).abs() < f64::EPSILON);
        assert_eq!(c.parallelism(), Some(4));
        assert_eq!(c.backend(), Some(Backend::Scalar));
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
        assert_eq!(GustConfig::new(8).parallelism(), None);
        let seq = GustConfig::new(8).with_parallelism(Some(1));
        assert_eq!(seq.parallelism(), Some(1));
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
        assert_eq!(ColoringAlgorithm::Konig.label(), "konig-optimal");
    }

    #[test]
    #[should_panic(expected = "length must be non-zero")]
    fn zero_length_panics() {
        let _ = GustConfig::new(0);
    }

    #[test]
    fn config_error_names_variable_value_and_expectation() {
        let e = ConfigError::new(
            "GUST_PARALLELISM",
            "banana",
            "must be a positive worker count",
        );
        let rendered = e.to_string();
        assert!(rendered.contains("GUST_PARALLELISM"));
        assert!(rendered.contains("banana"));
        assert!(rendered.contains("positive worker count"));
    }

    #[test]
    fn from_env_checked_rejects_zero_length_without_panicking() {
        let e = GustConfig::from_env_checked(0).unwrap_err();
        assert_eq!(e.var, "length");
    }

    #[test]
    fn from_env_checked_succeeds_in_a_clean_environment() {
        // The test harness does not set GUST_* variables, so every
        // checked resolver should land on automatic selection. (Runs
        // that deliberately set them — the CI fault-injection leg — set
        // well-formed values, so this stays true there too.)
        let config = GustConfig::from_env_checked(8).expect("clean env must validate");
        assert_eq!(config.length(), 8);
    }
}
