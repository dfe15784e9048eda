//! Fault injection for robustness testing (`GUST_FAULT`).
//!
//! A long-lived serving process must keep working when the world
//! misbehaves: reads that fail mid-stream, writes that never land,
//! worker threads that die inside a task. This module gives the
//! workspace one switchboard for *injecting* exactly those failures so
//! tests (and CI) can prove the degradation paths actually degrade
//! gracefully instead of taking the process down.
//!
//! # Activation
//!
//! Set `GUST_FAULT` to a comma-separated list of `site:probability`
//! pairs, e.g.
//!
//! ```text
//! GUST_FAULT=io_read:0.01,worker_panic:1
//! ```
//!
//! Each probability is in `[0, 1]`; `1` fires on every visit to the
//! site. Unknown site names are accepted (and simply never consulted) so
//! a plan can name sites across crate versions. A malformed `GUST_FAULT`
//! value warns on stderr once and injects nothing — the fault harness
//! must never be the thing that kills a server at startup.
//!
//! Rolls are deterministic per process: a fixed-seed counter hash
//! (override the seed with `GUST_FAULT_SEED`) makes a failing injection
//! run reproducible by rerunning the same binary with the same
//! environment.
//!
//! # Sites
//!
//! | site | where it fires |
//! |---|---|
//! | [`sites::IO_READ`] | binary matrix-cache reads ([`crate::io::read_bin`] and friends) |
//! | [`sites::IO_WRITE`] | binary matrix-cache writes |
//! | [`sites::SCHEDULE_READ`] | `GUST` schedule container reads |
//! | [`sites::SCHEDULE_WRITE`] | schedule container writes |
//! | [`sites::WORKER_PANIC`] | inside each `gust::parallel::Pool` task |
//! | [`sites::SCHED_BUILD`] | schedule construction in `gust::serve::ScheduleRegistry` |
//! | [`sites::EXEC_DELAY`] | latency injection at `gust::serve` execution boundaries |
//!
//! # Test override
//!
//! Integration tests drive injection programmatically with
//! [`override_for_tests`], which swaps the process-wide plan and
//! restores it when the guard drops. Overrides are serialized by an
//! internal lock so concurrent `#[test]`s cannot interleave plans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// Well-known injection-site names.
pub mod sites {
    /// Binary matrix-cache read paths in [`crate::io`].
    pub const IO_READ: &str = "io_read";
    /// Binary matrix-cache write paths in [`crate::io`].
    pub const IO_WRITE: &str = "io_write";
    /// Schedule-container read paths (`gust::schedule::serialize`).
    pub const SCHEDULE_READ: &str = "schedule_read";
    /// Schedule-container write paths (`gust::schedule::serialize`).
    pub const SCHEDULE_WRITE: &str = "schedule_write";
    /// Worker-pool task bodies (`gust::parallel::Pool`).
    pub const WORKER_PANIC: &str = "worker_panic";
    /// Schedule construction inside the serving registry
    /// (`gust::serve::ScheduleRegistry`): a fired roll makes the build
    /// attempt fail as a transient error, exercising the registry's
    /// retry/backoff and circuit-breaker paths.
    pub const SCHED_BUILD: &str = "sched_build";
    /// Latency injection at the serving runtime's execution boundaries
    /// (`gust::serve`): a fired roll makes the boundary sleep for
    /// [`INJECTED_DELAY`](super::INJECTED_DELAY), exercising deadline
    /// enforcement without any component actually failing.
    pub const EXEC_DELAY: &str = "exec_delay";
}

/// How long a fired [`sites::EXEC_DELAY`] roll stalls the injection
/// point (see [`injected_delay`]).
pub const INJECTED_DELAY: std::time::Duration = std::time::Duration::from_millis(2);

/// A parsed fault plan: which sites fire, and how often.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(site, probability)` pairs; empty = inject nothing.
    sites: Vec<(String, f64)>,
}

impl FaultPlan {
    /// The plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Parses a `GUST_FAULT`-style spec (`"io_read:0.01,worker_panic:1"`).
    /// An empty string is the empty plan.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry: missing
    /// `site:probability` shape, an unparsable probability, or one
    /// outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut sites = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, prob) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry '{entry}' is not 'site:probability'"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("fault entry '{entry}' has an empty site name"));
            }
            let p: f64 = prob
                .trim()
                .parse()
                .map_err(|e| format!("fault entry '{entry}': bad probability: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "fault entry '{entry}': probability must be in [0, 1]"
                ));
            }
            sites.push((site.to_string(), p));
        }
        Ok(Self { sites })
    }

    /// The configured probability for `site` (0 when absent).
    #[must_use]
    pub fn probability(&self, site: &str) -> f64 {
        self.sites
            .iter()
            .find(|(s, _)| s == site)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Whether any site has a non-zero probability.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(|&(_, p)| p == 0.0)
    }
}

/// The environment-derived plan, read once per process.
fn env_plan() -> &'static Arc<FaultPlan> {
    static ENV: OnceLock<Arc<FaultPlan>> = OnceLock::new();
    ENV.get_or_init(|| {
        let plan = match std::env::var("GUST_FAULT") {
            Ok(raw) if !raw.is_empty() => match FaultPlan::parse(&raw) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("warning: ignoring malformed GUST_FAULT ({e}); no faults injected");
                    FaultPlan::none()
                }
            },
            _ => FaultPlan::none(),
        };
        Arc::new(plan)
    })
}

/// The test override slot: `Some(plan)` masks the environment plan
/// entirely (including `Some(empty)`, which disables injection).
fn override_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static OVERRIDE: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
    &OVERRIDE
}

/// The plan in effect right now.
fn current_plan() -> Arc<FaultPlan> {
    if let Some(plan) = override_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
    {
        return Arc::clone(plan);
    }
    Arc::clone(env_plan())
}

/// Deterministic roll counter (see the module docs).
static ROLLS: AtomicU64 = AtomicU64::new(0);

/// The roll seed: `GUST_FAULT_SEED` or a fixed default.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("GUST_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9E37_79B9_7F4A_7C15)
    })
}

/// SplitMix64 — a tiny, well-distributed counter hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a fault fires at `site` on this visit. Cheap when no plan
/// names the site (one relaxed load + a vector scan of a usually-empty
/// plan); rolls the deterministic counter hash otherwise.
#[must_use]
pub fn active(site: &str) -> bool {
    let plan = current_plan();
    let p = plan.probability(site);
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let roll = splitmix64(seed().wrapping_add(ROLLS.fetch_add(1, Ordering::Relaxed)));
    // 53 high-quality bits → a uniform in [0, 1).
    let uniform = (roll >> 11) as f64 / (1u64 << 53) as f64;
    uniform < p
}

/// Returns an injected [`std::io::Error`] when a fault fires at `site`.
/// Call as `faults::check_io(site)?` at an I/O boundary.
///
/// # Errors
///
/// An [`std::io::ErrorKind::Other`] error labelled as injected, when the
/// site fires.
pub fn check_io(site: &str) -> std::io::Result<()> {
    if active(site) {
        return Err(std::io::Error::other(format!(
            "injected fault at {site} (GUST_FAULT)"
        )));
    }
    Ok(())
}

/// Returns the delay to inject when a latency fault fires at `site`
/// (`None` otherwise). Latency sites model a component that is *slow*
/// rather than broken — the caller sleeps for the returned duration and
/// then proceeds normally, so only deadline enforcement (never a
/// result) is affected.
#[must_use]
pub fn injected_delay(site: &str) -> Option<std::time::Duration> {
    if active(site) {
        Some(INJECTED_DELAY)
    } else {
        None
    }
}

/// Panics when a fault fires at `site` — the worker-crash injection.
///
/// # Panics
///
/// When the site fires (that is the point).
pub fn check_panic(site: &str) {
    assert!(!active(site), "injected panic at {site} (GUST_FAULT)");
}

/// Scoped fault-plan override for tests. Restores the previous override
/// (usually: none, falling back to the environment) on drop. Holding the
/// guard serializes all fault-driven tests in the process, so plans
/// never interleave.
pub struct FaultGuard {
    previous: Option<Arc<FaultPlan>>,
    _serial: MutexGuard<'static, ()>,
}

/// Installs `spec` (a `GUST_FAULT`-style string) as the process-wide
/// fault plan until the returned guard drops. `""` disables injection
/// entirely — including anything `GUST_FAULT` asked for — which is how
/// recovery tests prove a faulted component works again afterwards.
///
/// # Panics
///
/// Panics if `spec` does not parse; a test asking for a malformed plan
/// is a test bug, not a degradation scenario.
#[must_use]
pub fn override_for_tests(spec: &str) -> FaultGuard {
    static SERIAL: Mutex<()> = Mutex::new(());
    let serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let plan = FaultPlan::parse(spec).expect("test fault plan must parse");
    let mut slot = override_slot()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let previous = slot.replace(Arc::new(plan));
    drop(slot);
    FaultGuard {
        previous,
        _serial: serial,
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut slot = override_slot()
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = self.previous.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_specs() {
        let plan = FaultPlan::parse("io_read:0.25, worker_panic:1").unwrap();
        assert!((plan.probability(sites::IO_READ) - 0.25).abs() < f64::EPSILON);
        assert!((plan.probability(sites::WORKER_PANIC) - 1.0).abs() < f64::EPSILON);
        assert_eq!(plan.probability("unknown"), 0.0);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("a:2").is_err());
        assert!(FaultPlan::parse("a").is_err());
        assert!(FaultPlan::parse(":0.5").is_err());
        assert!(FaultPlan::parse("a:x").is_err());
    }

    // These tests use synthetic site names ("test_*") on purpose: unit
    // tests in this crate run concurrently in one process, and an
    // override on a *real* site (io_read, …) would inject faults into
    // unrelated tests exercising the actual I/O paths. Real-site
    // injection is covered by the dedicated fault_injection integration
    // binary, where every test goes through the serializing guard.

    #[test]
    fn override_guard_installs_and_restores() {
        {
            let _guard = override_for_tests("test_read:1");
            assert!(active("test_read"));
            assert!(!active("test_write"));
            assert!(check_io("test_read").is_err());
            assert!(check_io("test_write").is_ok());
        }
        // Guard dropped: back to the (empty, in tests) environment plan.
        let _guard = override_for_tests("");
        assert!(!active("test_read"));
    }

    #[test]
    fn probabilistic_sites_fire_at_roughly_the_requested_rate() {
        let _guard = override_for_tests("test_prob:0.3");
        let fired = (0..10_000).filter(|_| active("test_prob")).count();
        // Deterministic hash, generous tolerance: the point is "not 0,
        // not 10000, near 3000".
        assert!((2000..4000).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn injected_delay_fires_and_clears() {
        {
            let _guard = override_for_tests("test_delay:1");
            assert_eq!(injected_delay("test_delay"), Some(INJECTED_DELAY));
            assert_eq!(injected_delay("test_other"), None);
        }
        let _guard = override_for_tests("");
        assert_eq!(injected_delay("test_delay"), None);
    }

    #[test]
    fn injected_panic_fires_and_clears() {
        let guard = override_for_tests("test_panic:1");
        let result = std::panic::catch_unwind(|| check_panic("test_panic"));
        assert!(result.is_err(), "test_panic:1 must panic");
        drop(guard);
        let _guard = override_for_tests("");
        check_panic("test_panic"); // must not panic now
    }
}
