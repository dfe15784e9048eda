//! Schedule registry and resilient SpMV serving runtime.
//!
//! This module turns the engine into a long-lived multi-tenant service:
//! callers register matrices once, then submit single-vector SpMV
//! requests that the runtime batches into the engine's column-major
//! panel walks ([`crate::Gust::try_execute_batch`]). Two pieces:
//!
//! * [`ScheduleRegistry`] — a content-addressed, in-RAM memo of
//!   prepared schedules keyed by a hash of the CSR structure, backed by
//!   the existing on-disk schedule cache (`GUST` containers).
//!   A corrupt cache file is quarantined on disk
//!   ([`gust_sparse::io::quarantine_corrupt`]) and mirrored in RAM as a
//!   poisoned-entry eviction; builds are retried with jittered
//!   exponential backoff; a matrix whose schedule repeatedly fails to
//!   build or execute trips a per-entry circuit breaker and is served
//!   **degraded** through the reference [`gust_sparse::CsrMatrix::spmv`]
//!   kernel — correct, slower, never an error.
//! * [`SpmvServer`] — a dispatcher thread over per-tenant bounded
//!   admission queues. A full queue sheds the request with
//!   [`GustError::Overloaded`] (explicit backpressure, never silent
//!   drops). Compatible requests (same matrix, same element type) from
//!   *different* tenants are aggregated round-robin into one panel, so
//!   no tenant can starve another. Per-request deadlines are enforced
//!   at the aggregation boundary, the execution boundary, and
//!   client-side in [`Ticket::wait`], so a request can never hang past
//!   its deadline. Execution faults (including injected
//!   `worker_panic` / `exec_delay` faults — see
//!   [`gust_sparse::faults`]) are contained, retried, and finally
//!   degraded to the reference kernel.
//!
//! Degradation is always *semantics-preserving*: every response is the
//! exact SpMV of the registered matrix with the submitted vector; only
//! latency and the `degraded` flag change.
//!
//! # Quickstart
//!
//! ```
//! use gust::prelude::*;
//! use gust::serve::{ScheduleRegistry, ServeConfig, SpmvServer};
//! use gust_sparse::prelude::*;
//! use std::sync::Arc;
//!
//! let csr = CsrMatrix::from(&gen::uniform(32, 32, 120, 7));
//! let registry = Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(8))));
//! let server = SpmvServer::start(registry, ServeConfig::default());
//!
//! let key = server.register(&csr);
//! let x: Vec<f32> = (0..32).map(|i| (i % 5) as f32).collect();
//! let resp = server.call(0, key, x.clone()).unwrap();
//! assert_vectors_close(&resp.output, &csr.spmv(&x), 1e-4);
//! ```

// The serving layer must never deny service over a recoverable local
// failure: no `unwrap` panics in production paths (the tests module is
// exempted below).
#![deny(clippy::unwrap_used)]

use crate::engine::Gust;
use crate::error::GustError;
use crate::schedule::scheduled::ScheduledMatrix;
use crate::schedule::serialize;
use crate::verify::{AuditReport, Auditable, VerifiedSchedule};
use gust_sparse::{faults, CsrMatrix};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard when the lock is poisoned.
///
/// A poisoned lock means some thread panicked while holding it. Every
/// critical section in this module leaves its guarded state consistent
/// at every await-free step (counters bumped atomically under the lock,
/// queue entries pushed/popped whole), and the serving layer's contract
/// is to keep serving after a *contained* panic — so the right response
/// to poison here is to keep going, not to cascade the panic into every
/// client thread.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Double-precision row-order reference SpMV over a genuinely `f64`
/// input vector.
///
/// [`CsrMatrix::spmv_f64`] widens an `f32` input; the serving runtime's
/// degraded path for `f64` requests needs the reference result for the
/// *submitted* `f64` vector, so it lives here. Summation is in row
/// order, matching the convention of [`CsrMatrix::spmv`].
///
/// # Panics
///
/// Panics when `x.len()` differs from the matrix's column count.
#[must_use]
pub fn reference_spmv_f64(matrix: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), matrix.cols(), "input vector length mismatch");
    let (row_ptr, col_idx, values) = matrix.raw_parts();
    let mut y = vec![0.0f64; matrix.rows()];
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for k in row_ptr[i]..row_ptr[i + 1] {
            acc += f64::from(values[k]) * x[col_idx[k] as usize];
        }
        *out = acc;
    }
    y
}

/// Content-hash identity of a registered matrix.
///
/// The key is an FNV-1a 64 digest of the CSR structure (shape plus raw
/// `row_ptr` / `col_idx` / `values` bytes), so registering the same
/// matrix twice — even from different loads of the same file — yields
/// the same key and shares one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixKey(u64);

impl MatrixKey {
    /// The raw 64-bit content hash.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over the matrix's shape and raw CSR arrays.
fn content_hash(matrix: &CsrMatrix) -> MatrixKey {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(matrix.rows() as u64).to_le_bytes());
    eat(&(matrix.cols() as u64).to_le_bytes());
    let (row_ptr, col_idx, values) = matrix.raw_parts();
    for &p in row_ptr {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in col_idx {
        eat(&c.to_le_bytes());
    }
    for &v in values {
        eat(&v.to_bits().to_le_bytes());
    }
    MatrixKey(h)
}

/// splitmix64 step — the registry's deterministic jitter source (no
/// external RNG crates; same generator family as
/// [`gust_sparse::faults`]).
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

/// One splitmix64 output for the current state.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A memoized, ready-to-execute schedule: the flat [`ScheduledMatrix`],
/// to which it derefs.
///
/// One variant is left. The enum stays (non-exhaustive, so matching
/// `PreparedSchedule::Flat(s)` in another crate is still refutable) until
/// the benchmark package moves to naming [`ScheduledMatrix`] directly;
/// then it goes.
#[derive(Debug)]
#[non_exhaustive]
pub enum PreparedSchedule {
    /// A flat schedule, executed via [`Gust::try_execute_batch`].
    Flat(ScheduledMatrix),
}

impl std::ops::Deref for PreparedSchedule {
    type Target = ScheduledMatrix;

    fn deref(&self) -> &ScheduledMatrix {
        match self {
            Self::Flat(s) => s,
        }
    }
}

impl Auditable for PreparedSchedule {
    fn audit(&self) -> AuditReport {
        (**self).audit()
    }
}

/// Jittered exponential retry/backoff policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means no retries.
    pub attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep (pre-jitter).
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based), jittered.
    ///
    /// Full jitter over `[0, min(cap, base × 2^retry)]`, deterministic
    /// in `seed` — retries of different requests decorrelate without a
    /// global RNG, and tests can reproduce a run exactly.
    #[must_use]
    pub fn backoff(&self, retry: u32, seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.cap);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        if nanos == 0 {
            return Duration::ZERO;
        }
        let roll = splitmix64_mix(seed ^ u64::from(retry).wrapping_mul(0x9e37_79b9)) % (nanos + 1);
        Duration::from_nanos(roll)
    }
}

/// Circuit-breaker policy guarding a matrix's scheduled fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive build/execution failures that open the breaker.
    pub threshold: u32,
    /// How long an open breaker serves degraded before a half-open
    /// probe is allowed to try the fast path again.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            threshold: 3,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Per-entry breaker state (see [`BreakerPolicy`]).
#[derive(Debug, Clone, Copy)]
enum Breaker {
    /// Fast path in use; `failures` consecutive failures so far.
    Closed { failures: u32 },
    /// Fast path disabled until the cooldown elapses.
    Open { until: Instant },
    /// One probe is in flight; success closes, failure re-opens.
    HalfOpen,
}

/// What [`ScheduleRegistry::acquire`] hands back.
#[derive(Debug, Clone)]
pub enum Acquired {
    /// The fast path: a memoized prepared schedule, carrying the
    /// [`VerifiedSchedule`] witness that its safety contract was
    /// audited at admission (disk loads) or established at
    /// construction (in-process builds).
    Scheduled(Arc<VerifiedSchedule<PreparedSchedule>>),
    /// The breaker is open (or the build exhausted its retries):
    /// serve this request through the reference kernel.
    Degraded,
}

/// Counters exposed by [`ScheduleRegistry::stats`]. All cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// `acquire` calls answered from the in-RAM memo.
    pub hits: u64,
    /// `acquire` calls that had to consult disk or build.
    pub misses: u64,
    /// Schedules revived from an intact on-disk container.
    pub disk_loads: u64,
    /// Schedules built from the matrix (cache missing/corrupt/stale).
    pub rebuilds: u64,
    /// Corrupt cache containers quarantined on disk.
    pub quarantined: u64,
    /// Disk loads rejected by the schedule safety auditor
    /// ([`crate::verify`]): checksum-valid containers whose decoded
    /// contents violate the kernels' safety contract. Each is also
    /// counted in `quarantined` and treated as a miss (rebuilt).
    pub audit_rejects: u64,
    /// In-RAM entries evicted as poisoned (corrupt disk mirror, or
    /// [`ScheduleRegistry::poison`] after an execution failure).
    pub poisoned_evictions: u64,
    /// Build attempts that failed (pre-retry; each retry that fails
    /// counts again).
    pub build_failures: u64,
    /// Times a breaker transitioned to open.
    pub breaker_opens: u64,
    /// Times a half-open probe succeeded and closed the breaker.
    pub breaker_recoveries: u64,
}

/// A registered matrix plus its memoized schedule and breaker state.
struct Entry {
    matrix: Arc<CsrMatrix>,
    schedule: Option<Arc<VerifiedSchedule<PreparedSchedule>>>,
    breaker: Breaker,
}

struct RegistryInner {
    entries: BTreeMap<u64, Entry>,
    stats: RegistryStats,
}

/// Content-addressed schedule store with disk cache, retry, and a
/// per-matrix circuit breaker (see the [module docs](self)).
pub struct ScheduleRegistry {
    engine: Gust,
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    breaker: BreakerPolicy,
    /// Seed stream for backoff jitter.
    jitter: AtomicU64,
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for ScheduleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleRegistry")
            .field("cache_dir", &self.cache_dir)
            .field("retry", &self.retry)
            .field("breaker", &self.breaker)
            .finish_non_exhaustive()
    }
}

impl ScheduleRegistry {
    /// A registry building flat schedules with default retry/breaker
    /// policies and no disk cache.
    #[must_use]
    pub fn new(engine: Gust) -> Self {
        Self {
            engine,
            cache_dir: None,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            jitter: AtomicU64::new(0x5eed_5eed_5eed_5eed),
            inner: Mutex::new(RegistryInner {
                entries: BTreeMap::new(),
                stats: RegistryStats::default(),
            }),
        }
    }

    /// Backs the memo with an on-disk cache directory. Containers are
    /// named `<key>.gust` by content hash; corrupt files
    /// are quarantined as `<name>.corrupt` and rebuilt.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Overrides the build retry/backoff policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the circuit-breaker policy.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = breaker;
        self
    }

    /// The engine schedules are built for (and must be executed with).
    #[must_use]
    pub fn engine(&self) -> &Gust {
        &self.engine
    }

    /// Registers `matrix`, returning its content-hash key. Re-inserting
    /// an identical matrix is a no-op returning the same key; the
    /// schedule is built lazily on first [`ScheduleRegistry::acquire`].
    pub fn insert(&self, matrix: &CsrMatrix) -> MatrixKey {
        let key = content_hash(matrix);
        let mut inner = lock_recover(&self.inner);
        inner.entries.entry(key.0).or_insert_with(|| Entry {
            matrix: Arc::new(matrix.clone()),
            schedule: None,
            breaker: Breaker::Closed { failures: 0 },
        });
        drop(inner);
        key
    }

    /// The registered matrix for `key`, if any.
    #[must_use]
    pub fn matrix(&self, key: MatrixKey) -> Option<Arc<CsrMatrix>> {
        let inner = lock_recover(&self.inner);
        inner.entries.get(&key.0).map(|e| Arc::clone(&e.matrix))
    }

    /// Snapshot of the cumulative registry counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        lock_recover(&self.inner).stats
    }

    /// Evicts `key`'s memoized schedule as poisoned (e.g. after it
    /// produced a contained execution fault) and records a breaker
    /// failure. Enough consecutive poisonings open the breaker and the
    /// matrix degrades to the reference kernel until the cooldown
    /// elapses.
    pub fn poison(&self, key: MatrixKey) {
        let mut inner = lock_recover(&self.inner);
        let breaker = self.breaker;
        if let Some(entry) = inner.entries.get_mut(&key.0) {
            if entry.schedule.take().is_some() {
                inner.stats.poisoned_evictions += 1;
            }
            Self::record_failure(&mut inner, key, breaker);
        }
        drop(inner);
    }

    /// Registers a failure against `key`'s breaker (caller holds the
    /// lock via `inner`).
    fn record_failure(inner: &mut RegistryInner, key: MatrixKey, policy: BreakerPolicy) {
        let Some(entry) = inner.entries.get_mut(&key.0) else {
            return;
        };
        entry.breaker = match entry.breaker {
            Breaker::Closed { failures } => {
                let failures = failures + 1;
                if failures >= policy.threshold {
                    inner.stats.breaker_opens += 1;
                    Breaker::Open {
                        until: Instant::now() + policy.cooldown,
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            // A failed half-open probe re-opens for a fresh cooldown.
            Breaker::HalfOpen | Breaker::Open { .. } => {
                inner.stats.breaker_opens += 1;
                Breaker::Open {
                    until: Instant::now() + policy.cooldown,
                }
            }
        };
    }

    /// Registers a success against `key`'s breaker.
    fn record_success(inner: &mut RegistryInner, key: MatrixKey) {
        let Some(entry) = inner.entries.get_mut(&key.0) else {
            return;
        };
        if matches!(entry.breaker, Breaker::HalfOpen | Breaker::Open { .. }) {
            inner.stats.breaker_recoveries += 1;
        }
        entry.breaker = Breaker::Closed { failures: 0 };
    }

    /// The cache path for `key` under the configured directory.
    fn cache_path(&self, key: MatrixKey) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.gust", key.0)))
    }

    /// Resolves `key` to an executable path: in-RAM memo, else disk
    /// cache, else a (retried) build. A matrix whose breaker is open is
    /// answered [`Acquired::Degraded`]; so is one whose build exhausts
    /// its retries — degradation is the recovery, never an error.
    ///
    /// # Errors
    ///
    /// Only [`GustError::UnknownMatrix`] — every schedule-side failure
    /// degrades instead of erroring.
    pub fn acquire(&self, key: MatrixKey) -> Result<Acquired, GustError> {
        let matrix = {
            let mut inner = lock_recover(&self.inner);
            let Some(entry) = inner.entries.get_mut(&key.0) else {
                return Err(GustError::UnknownMatrix { key: key.0 });
            };
            if let Some(schedule) = &entry.schedule {
                let schedule = Arc::clone(schedule);
                inner.stats.hits += 1;
                return Ok(Acquired::Scheduled(schedule));
            }
            match entry.breaker {
                Breaker::Open { until } if Instant::now() < until => {
                    return Ok(Acquired::Degraded);
                }
                Breaker::Open { .. } => {
                    // Cooldown elapsed: this acquire is the half-open
                    // probe. A concurrent acquire seeing HalfOpen still
                    // probes too — duplicate probes are wasteful, not
                    // wrong.
                    entry.breaker = Breaker::HalfOpen;
                }
                Breaker::Closed { .. } | Breaker::HalfOpen => {}
            }
            let matrix = Arc::clone(&entry.matrix);
            inner.stats.misses += 1;
            matrix
        };

        // Disk, then build — both outside the lock so a slow build never
        // blocks unrelated acquires. Concurrent misses may both build;
        // the memo store below is idempotent.
        if let Some(schedule) = self.try_disk_load(key, &matrix) {
            let schedule = Arc::new(schedule);
            let mut inner = lock_recover(&self.inner);
            inner.stats.disk_loads += 1;
            Self::record_success(&mut inner, key);
            if let Some(entry) = inner.entries.get_mut(&key.0) {
                entry.schedule = Some(Arc::clone(&schedule));
            }
            drop(inner);
            return Ok(Acquired::Scheduled(schedule));
        }

        match self.build_with_retry(key, &matrix) {
            Some(schedule) => {
                if let Some(path) = self.cache_path(key) {
                    if let Some(dir) = path.parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    // Best-effort write-back; serving never depends on it.
                    let _ = serialize::write_schedule_file(&schedule, &path);
                }
                // Construction-trusted: the scheduler's output satisfies
                // the contract by construction (and is exercised by the
                // engine's own validation tests), so the witness is
                // issued without a redundant audit on the hot path.
                let schedule = Arc::new(VerifiedSchedule::witness(schedule));
                let mut inner = lock_recover(&self.inner);
                inner.stats.rebuilds += 1;
                Self::record_success(&mut inner, key);
                if let Some(entry) = inner.entries.get_mut(&key.0) {
                    entry.schedule = Some(Arc::clone(&schedule));
                }
                drop(inner);
                Ok(Acquired::Scheduled(schedule))
            }
            None => {
                let mut inner = lock_recover(&self.inner);
                Self::record_failure(&mut inner, key, self.breaker);
                drop(inner);
                Ok(Acquired::Degraded)
            }
        }
    }

    /// Attempts to revive `key`'s schedule from the disk cache.
    /// Corrupt containers — damaged bytes *and* checksum-valid files
    /// the safety auditor rejects — are quarantined on disk and
    /// mirrored as a poisoned-entry eviction in the stats;
    /// shape-mismatched or stale containers are simply ignored (the
    /// rebuild overwrites them).
    fn try_disk_load(
        &self,
        key: MatrixKey,
        matrix: &CsrMatrix,
    ) -> Option<VerifiedSchedule<PreparedSchedule>> {
        let path = self.cache_path(key)?;
        if !path.exists() {
            return None;
        }
        // The `_verified` reader audits every container unconditionally,
        // so re-wrapping the witness around the `PreparedSchedule`
        // variant is sound: the inner schedule is exactly the audited
        // one, moved unmodified.
        let loaded = serialize::read_schedule_file_verified(&path)
            .map(|v| VerifiedSchedule::witness(PreparedSchedule::Flat(v.into_inner())));
        match loaded {
            Ok(schedule) => {
                let fits = schedule.length() == self.engine.config().length()
                    && schedule.rows() == matrix.rows()
                    && schedule.cols() == matrix.cols();
                fits.then_some(schedule)
            }
            Err(
                err @ (serialize::ReadScheduleError::Corrupt(_)
                | serialize::ReadScheduleError::Audit(_)),
            ) => {
                let audit = matches!(err, serialize::ReadScheduleError::Audit(_));
                let mut inner = lock_recover(&self.inner);
                inner.stats.quarantined += 1;
                inner.stats.poisoned_evictions += 1;
                if audit {
                    inner.stats.audit_rejects += 1;
                }
                drop(inner);
                serialize::quarantine_corrupt_cache(&path, &err);
                None
            }
            Err(_) => None,
        }
    }

    /// Builds `key`'s schedule, retrying transient faults (injected
    /// `sched_build` faults and contained panics) with jittered
    /// exponential backoff. `None` after the last attempt fails.
    fn build_with_retry(&self, key: MatrixKey, matrix: &CsrMatrix) -> Option<PreparedSchedule> {
        let seed = self.jitter.fetch_add(1, Ordering::Relaxed) ^ key.0;
        for attempt in 0..self.retry.attempts.max(1) {
            let built = if faults::active(faults::sites::SCHED_BUILD) {
                None
            } else {
                catch_unwind(AssertUnwindSafe(|| self.build_once(matrix))).ok()
            };
            if let Some(schedule) = built {
                return Some(schedule);
            }
            let mut inner = lock_recover(&self.inner);
            inner.stats.build_failures += 1;
            drop(inner);
            if attempt + 1 < self.retry.attempts.max(1) {
                let mut s = seed ^ u64::from(attempt);
                splitmix64(&mut s);
                std::thread::sleep(self.retry.backoff(attempt, s));
            }
        }
        None
    }

    /// One uninstrumented schedule build.
    fn build_once(&self, matrix: &CsrMatrix) -> PreparedSchedule {
        PreparedSchedule::Flat(self.engine.schedule(matrix))
    }
}

/// Serving-runtime tunables (see [`SpmvServer::start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity **per tenant**. A submit into a
    /// full queue is shed with [`GustError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum requests aggregated into one execution panel.
    pub max_batch: usize,
    /// Deadline applied when a submit does not carry its own.
    pub default_deadline: Duration,
    /// Retry/backoff policy around contained execution faults.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 16,
            default_deadline: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
    }
}

/// A completed SpMV response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response<T> {
    /// The product vector (`rows` long), exactly the SpMV of the
    /// registered matrix with the submitted vector.
    pub output: Vec<T>,
    /// Submit-to-completion latency as observed by the dispatcher.
    pub latency: Duration,
    /// `true` when this response was served by the reference kernel
    /// (open breaker or exhausted fast-path retries) instead of the
    /// scheduled engine walk.
    pub degraded: bool,
}

/// Client-side state of one in-flight request.
enum SlotState<T> {
    /// Not finished yet.
    Pending,
    /// Finished; the ticket's `wait` will take this.
    Done(Result<Response<T>, GustError>),
    /// The client gave up at its deadline; the dispatcher's eventual
    /// completion is counted as late and discarded.
    Abandoned,
}

/// One request's rendezvous between client and dispatcher.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Delivers `result`; `true` when the client was still waiting,
    /// `false` when it had already abandoned the slot.
    fn complete(&self, result: Result<Response<T>, GustError>) -> bool {
        let mut state = lock_recover(&self.state);
        let delivered = match *state {
            SlotState::Pending => {
                *state = SlotState::Done(result);
                true
            }
            SlotState::Abandoned | SlotState::Done(_) => false,
        };
        drop(state);
        self.cv.notify_all();
        delivered
    }
}

/// Handle to one submitted request. `wait` blocks **at most** until the
/// request's deadline — a lost dispatcher can delay a response but can
/// never hang the client.
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
    deadline: Instant,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl<T> Ticket<T> {
    /// Blocks until the response arrives or the deadline passes.
    ///
    /// # Errors
    ///
    /// [`GustError::DeadlineExceeded`] (stage `"wait"`) when the
    /// deadline passes first; [`GustError::ServerStopped`] when the
    /// server shut down with the request still queued; plus whatever
    /// error the dispatcher delivered.
    pub fn wait(self) -> Result<Response<T>, GustError> {
        let mut state = lock_recover(&self.slot.state);
        loop {
            match std::mem::replace(&mut *state, SlotState::Pending) {
                SlotState::Done(result) => return result,
                SlotState::Abandoned => unreachable!("only this ticket abandons its slot"),
                SlotState::Pending => {}
            }
            let now = Instant::now();
            if now >= self.deadline {
                *state = SlotState::Abandoned;
                return Err(GustError::DeadlineExceeded { stage: "wait" });
            }
            let (s, _timeout) = self
                .slot
                .cv
                .wait_timeout(state, self.deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
    }
}

/// One queued request (element type erased into the variant).
struct Request<T> {
    key: MatrixKey,
    x: Vec<T>,
    deadline: Instant,
    submitted: Instant,
    slot: Arc<Slot<T>>,
}

/// The two request element types the server batches (independently).
enum Work {
    F32(Request<f32>),
    F64(Request<f64>),
}

impl Work {
    fn deadline(&self) -> Instant {
        match self {
            Self::F32(r) => r.deadline,
            Self::F64(r) => r.deadline,
        }
    }

    /// Two requests are batchable when they target the same matrix
    /// with the same element type.
    fn compatible(&self, other: &Work) -> bool {
        match (self, other) {
            (Self::F32(a), Self::F32(b)) => a.key == b.key,
            (Self::F64(a), Self::F64(b)) => a.key == b.key,
            _ => false,
        }
    }

    fn fail(self, err: GustError) -> bool {
        match self {
            Self::F32(r) => r.slot.complete(Err(err)),
            Self::F64(r) => r.slot.complete(Err(err)),
        }
    }
}

/// Cumulative serving counters (see [`SpmvServer::stats`]).
///
/// Invariants: `submitted == admitted + shed`, and once the server has
/// drained, `admitted == completed + deadline_missed + stopped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests presented to `submit`/`submit_f64`.
    pub submitted: u64,
    /// Requests that entered an admission queue.
    pub admitted: u64,
    /// Requests shed with [`GustError::Overloaded`].
    pub shed: u64,
    /// Requests answered with a successful [`Response`].
    pub completed: u64,
    /// Requests failed with [`GustError::DeadlineExceeded`] at the
    /// aggregation or execution boundary.
    pub deadline_missed: u64,
    /// Requests drained with [`GustError::ServerStopped`] at shutdown.
    pub stopped: u64,
    /// Responses computed after their client had already abandoned the
    /// wait (the work was done; the result was discarded).
    pub late_results: u64,
    /// Responses served by the reference kernel.
    pub degraded_responses: u64,
    /// Execution panels dispatched to the engine.
    pub batches: u64,
    /// Requests served through those panels (`batched_requests /
    /// batches` is the achieved aggregation factor).
    pub batched_requests: u64,
    /// Contained execution faults that were retried.
    pub exec_retries: u64,
    /// Panels that exhausted retries and fell back to the reference
    /// kernel (the whole panel still completes).
    pub exec_fallbacks: u64,
}

/// Shared state between clients and the dispatcher.
struct ServerShared {
    registry: Arc<ScheduleRegistry>,
    config: ServeConfig,
    queues: Mutex<QueueState>,
    wake: Condvar,
    stats: Mutex<ServeStats>,
}

struct QueueState {
    /// Per-tenant FIFO queues; `BTreeMap` so the fairness scan order is
    /// deterministic.
    tenants: BTreeMap<usize, VecDeque<Work>>,
    /// Round-robin fairness cursor: the tenant id the next aggregation
    /// scan starts *after*.
    cursor: usize,
    stop: bool,
}

impl ServerShared {
    fn bump(&self, f: impl FnOnce(&mut ServeStats)) {
        let mut stats = lock_recover(&self.stats);
        f(&mut stats);
        drop(stats);
    }
}

/// The serving front-end (see the [module docs](self)). Dropping the
/// server stops the dispatcher and drains still-queued requests with
/// [`GustError::ServerStopped`].
pub struct SpmvServer {
    shared: Arc<ServerShared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SpmvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmvServer")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl SpmvServer {
    /// Starts the dispatcher thread over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the dispatcher thread cannot be spawned.
    #[must_use]
    pub fn start(registry: Arc<ScheduleRegistry>, config: ServeConfig) -> Self {
        let shared = Arc::new(ServerShared {
            registry,
            config,
            queues: Mutex::new(QueueState {
                tenants: BTreeMap::new(),
                cursor: 0,
                stop: false,
            }),
            wake: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gust-serve".into())
                .spawn(move || dispatch_loop(&shared))
                .unwrap_or_else(|e| panic!("failed to spawn gust-serve dispatcher: {e}"))
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Registers `matrix` with the underlying registry.
    pub fn register(&self, matrix: &CsrMatrix) -> MatrixKey {
        self.shared.registry.insert(matrix)
    }

    /// The registry this server serves from.
    #[must_use]
    pub fn registry(&self) -> &Arc<ScheduleRegistry> {
        &self.shared.registry
    }

    /// Snapshot of the cumulative serving counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        *lock_recover(&self.shared.stats)
    }

    /// Requests currently queued across all tenants.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        let queues = lock_recover(&self.shared.queues);
        queues.tenants.values().map(VecDeque::len).sum()
    }

    /// Submits a single-vector `f32` request for `tenant`.
    ///
    /// # Errors
    ///
    /// [`GustError::Overloaded`] when the tenant's queue is full,
    /// [`GustError::UnknownMatrix`] for an unregistered key,
    /// [`GustError::InputLength`] for a wrong-length vector,
    /// [`GustError::ServerStopped`] after shutdown began.
    pub fn submit(
        &self,
        tenant: usize,
        key: MatrixKey,
        x: Vec<f32>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<f32>, GustError> {
        self.submit_inner(tenant, key, x, deadline, Work::F32)
    }

    /// Submits a single-vector `f64` request for `tenant` (see
    /// [`SpmvServer::submit`]).
    ///
    /// # Errors
    ///
    /// As [`SpmvServer::submit`].
    pub fn submit_f64(
        &self,
        tenant: usize,
        key: MatrixKey,
        x: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<f64>, GustError> {
        self.submit_inner(tenant, key, x, deadline, Work::F64)
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// As [`SpmvServer::submit`] plus [`Ticket::wait`].
    pub fn call(
        &self,
        tenant: usize,
        key: MatrixKey,
        x: Vec<f32>,
    ) -> Result<Response<f32>, GustError> {
        self.submit(tenant, key, x, None)?.wait()
    }

    /// Convenience: submit and wait, double precision.
    ///
    /// # Errors
    ///
    /// As [`SpmvServer::submit_f64`] plus [`Ticket::wait`].
    pub fn call_f64(
        &self,
        tenant: usize,
        key: MatrixKey,
        x: Vec<f64>,
    ) -> Result<Response<f64>, GustError> {
        self.submit_f64(tenant, key, x, None)?.wait()
    }

    /// Shared admission path: validate, enforce the bounded queue, and
    /// enqueue.
    fn submit_inner<T>(
        &self,
        tenant: usize,
        key: MatrixKey,
        x: Vec<T>,
        deadline: Option<Duration>,
        wrap: impl FnOnce(Request<T>) -> Work,
    ) -> Result<Ticket<T>, GustError> {
        self.shared.bump(|s| s.submitted += 1);
        let Some(matrix) = self.shared.registry.matrix(key) else {
            self.shared.bump(|s| s.shed += 1);
            return Err(GustError::UnknownMatrix { key: key.as_u64() });
        };
        if x.len() != matrix.cols() {
            self.shared.bump(|s| s.shed += 1);
            return Err(GustError::InputLength {
                got: x.len(),
                expected: matrix.cols(),
            });
        }
        let submitted = Instant::now();
        let deadline = submitted + deadline.unwrap_or(self.shared.config.default_deadline);
        let slot = Slot::new();
        let request = Request {
            key,
            x,
            deadline,
            submitted,
            slot: Arc::clone(&slot),
        };

        let mut queues = lock_recover(&self.shared.queues);
        if queues.stop {
            drop(queues);
            self.shared.bump(|s| s.shed += 1);
            return Err(GustError::ServerStopped);
        }
        let queue = queues.tenants.entry(tenant).or_default();
        if queue.len() >= self.shared.config.queue_capacity {
            let queued = queue.len();
            drop(queues);
            self.shared.bump(|s| s.shed += 1);
            return Err(GustError::Overloaded {
                queued,
                capacity: self.shared.config.queue_capacity,
            });
        }
        queue.push_back(wrap(request));
        drop(queues);
        self.shared.bump(|s| s.admitted += 1);
        self.shared.wake.notify_all();
        Ok(Ticket { slot, deadline })
    }

    /// Stops the dispatcher and drains still-queued requests with
    /// [`GustError::ServerStopped`]. Idempotent; also run by `Drop`.
    pub fn stop(&mut self) {
        {
            let mut queues = lock_recover(&self.shared.queues);
            queues.stop = true;
            drop(queues);
            self.shared.wake.notify_all();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SpmvServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The dispatcher: tenant-fair aggregation, deadline enforcement,
/// resilient execution, shutdown drain.
fn dispatch_loop(shared: &ServerShared) {
    loop {
        let batch = {
            let mut queues = lock_recover(&shared.queues);
            loop {
                if queues.tenants.values().any(|q| !q.is_empty()) {
                    break;
                }
                if queues.stop {
                    return;
                }
                queues = shared
                    .wake
                    .wait(queues)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            collect_batch(&mut queues, shared.config.max_batch)
        };
        if batch.is_empty() {
            continue;
        }

        // Aggregation-boundary deadline check: anything already past
        // its deadline is failed now, not executed.
        let now = Instant::now();
        let (live, expired): (Vec<Work>, Vec<Work>) =
            batch.into_iter().partition(|w| w.deadline() > now);
        for work in expired {
            // Count before delivering so a woken client never reads
            // stats that lag its own response.
            shared.bump(|s| s.deadline_missed += 1);
            let delivered = work.fail(GustError::DeadlineExceeded {
                stage: "aggregation",
            });
            if !delivered {
                shared.bump(|s| s.late_results += 1);
            }
        }
        if live.is_empty() {
            continue;
        }

        match &live[0] {
            Work::F32(_) => {
                let requests: Vec<Request<f32>> = live
                    .into_iter()
                    .map(|w| match w {
                        Work::F32(r) => r,
                        Work::F64(_) => unreachable!("collect_batch mixes element types"),
                    })
                    .collect();
                execute_panel(shared, requests, dispatch_f32, reference_f32);
            }
            Work::F64(_) => {
                let requests: Vec<Request<f64>> = live
                    .into_iter()
                    .map(|w| match w {
                        Work::F64(r) => r,
                        Work::F32(_) => unreachable!("collect_batch mixes element types"),
                    })
                    .collect();
                execute_panel(shared, requests, dispatch_f64, reference_spmv_f64);
            }
        }
    }
}

/// Pops the next head-of-line request tenant-fairly (round-robin from
/// the cursor), then sweeps the other tenants round-robin for
/// compatible requests until the panel is full. Every tenant
/// contributes at most its queue's FIFO prefix, so one tenant's burst
/// cannot monopolize a panel that others are waiting on.
fn collect_batch(queues: &mut QueueState, max_batch: usize) -> Vec<Work> {
    let tenant_ids: Vec<usize> = queues.tenants.keys().copied().collect();
    if tenant_ids.is_empty() {
        return Vec::new();
    }
    // Rotate so the scan starts strictly after the previous head tenant.
    let start = tenant_ids
        .iter()
        .position(|&t| t > queues.cursor)
        .unwrap_or(0);

    let mut head: Option<Work> = None;
    for idx in 0..tenant_ids.len() {
        let t = tenant_ids[(start + idx) % tenant_ids.len()];
        if let Some(queue) = queues.tenants.get_mut(&t) {
            if let Some(work) = queue.pop_front() {
                queues.cursor = t;
                head = Some(work);
                break;
            }
        }
    }
    let Some(head) = head else {
        return Vec::new();
    };

    let mut batch = vec![head];
    // Fairness sweep: visit tenants round-robin, taking one compatible
    // head-of-line request per visit, until full or no tenant yields.
    loop {
        let mut took = false;
        for idx in 0..tenant_ids.len() {
            if batch.len() >= max_batch {
                break;
            }
            let t = tenant_ids[(start + idx) % tenant_ids.len()];
            let Some(queue) = queues.tenants.get_mut(&t) else {
                continue;
            };
            if queue.front().is_some_and(|w| batch[0].compatible(w)) {
                if let Some(work) = queue.pop_front() {
                    batch.push(work);
                    took = true;
                }
            }
        }
        if !took || batch.len() >= max_batch {
            break;
        }
    }
    batch
}

/// Engine entry point for one element type: panel in, panel out.
type PanelExec<T> = fn(&Gust, &PreparedSchedule, &[T], usize) -> Result<Vec<T>, GustError>;

/// Executes one same-key, same-element panel: deadline check at the
/// execution boundary, injected-delay fault, retried engine execution
/// with breaker integration, reference fallback, completion.
fn execute_panel<T: Copy>(
    shared: &ServerShared,
    requests: Vec<Request<T>>,
    execute: PanelExec<T>,
    reference: fn(&CsrMatrix, &[T]) -> Vec<T>,
) {
    let key = requests[0].key;
    let Some(matrix) = shared.registry.matrix(key) else {
        for r in requests {
            let delivered = r
                .slot
                .complete(Err(GustError::UnknownMatrix { key: key.as_u64() }));
            shared.bump(|s| {
                if !delivered {
                    s.late_results += 1;
                }
            });
        }
        return;
    };

    // Execution-boundary deadline check — budget at least the injected
    // delay plus headroom so a request we start on can finish.
    if let Some(delay) = faults::injected_delay(faults::sites::EXEC_DELAY) {
        std::thread::sleep(delay);
    }
    let now = Instant::now();
    let (live, expired): (Vec<Request<T>>, Vec<Request<T>>) =
        requests.into_iter().partition(|r| r.deadline > now);
    for r in expired {
        shared.bump(|s| s.deadline_missed += 1);
        let delivered = r
            .slot
            .complete(Err(GustError::DeadlineExceeded { stage: "execution" }));
        if !delivered {
            shared.bump(|s| s.late_results += 1);
        }
    }
    if live.is_empty() {
        return;
    }

    let batch = live.len();
    let cols = matrix.cols();
    let rows = matrix.rows();
    let mut panel: Vec<T> = Vec::with_capacity(cols * batch);
    for r in &live {
        panel.extend_from_slice(&r.x);
    }

    // Fast path: acquire (registry handles its own retry/breaker), then
    // execute with retry around contained faults. Failures degrade.
    let mut degraded = true;
    let mut outputs: Option<Vec<T>> = None;
    if let Ok(Acquired::Scheduled(schedule)) = shared.registry.acquire(key) {
        let engine = shared.registry.engine().clone();
        let retry = shared.config.retry;
        for attempt in 0..retry.attempts.max(1) {
            let result = catch_unwind(AssertUnwindSafe(|| {
                execute(&engine, schedule.get(), &panel, batch)
            }));
            match result {
                Ok(Ok(y)) => {
                    outputs = Some(y);
                    degraded = false;
                    break;
                }
                // A shape error is deterministic — retrying cannot help.
                Ok(Err(_)) => break,
                Err(_) => {
                    shared.bump(|s| s.exec_retries += 1);
                    if attempt + 1 < retry.attempts.max(1) {
                        std::thread::sleep(
                            retry.backoff(attempt, key.as_u64() ^ u64::from(attempt)),
                        );
                    }
                }
            }
        }
        if outputs.is_none() {
            // The schedule keeps failing: poison it (breaker counts the
            // failure) and serve this panel degraded.
            shared.registry.poison(key);
            shared.bump(|s| s.exec_fallbacks += 1);
        }
    }

    let outputs = outputs.unwrap_or_else(|| {
        let mut y: Vec<T> = Vec::with_capacity(rows * batch);
        for r in &live {
            y.extend_from_slice(&reference(matrix.as_ref(), &r.x));
        }
        y
    });

    shared.bump(|s| {
        s.batches += 1;
        s.batched_requests += batch as u64;
        if degraded {
            s.degraded_responses += batch as u64;
        }
    });

    for (j, r) in live.into_iter().enumerate() {
        let output = outputs[j * rows..(j + 1) * rows].to_vec();
        shared.bump(|s| s.completed += 1);
        let delivered = r.slot.complete(Ok(Response {
            output,
            latency: r.submitted.elapsed(),
            degraded,
        }));
        if !delivered {
            shared.bump(|s| s.late_results += 1);
        }
    }
}

/// Runs one `f32` panel through the schedule.
fn dispatch_f32(
    engine: &Gust,
    schedule: &PreparedSchedule,
    panel: &[f32],
    batch: usize,
) -> Result<Vec<f32>, GustError> {
    engine
        .try_execute_batch(schedule, panel, batch)
        .map(|(y, _)| y)
}

/// `f64` twin of [`dispatch_f32`].
fn dispatch_f64(
    engine: &Gust,
    schedule: &PreparedSchedule,
    panel: &[f64],
    batch: usize,
) -> Result<Vec<f64>, GustError> {
    engine
        .try_execute_batch_f64(schedule, panel, batch)
        .map(|(y, _)| y)
}

/// `f32` reference kernel as a plain `fn` for [`execute_panel`].
fn reference_f32(matrix: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    matrix.spmv(x)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::GustConfig;
    use gust_sparse::gen;

    /// A random-structure matrix with **integer** values: products and
    /// partial sums stay exactly representable, so every summation
    /// order (engine slot order, reference row order) gives the same
    /// bits and the tests below can assert bit-identity.
    fn small_matrix(seed: u64) -> CsrMatrix {
        let float = CsrMatrix::from(&gen::uniform(24, 24, 90, seed));
        let (indptr, indices, values) = float.raw_parts();
        let int_values = values
            .iter()
            .map(|v| (v * 7.0).floor().abs() + 1.0)
            .collect();
        CsrMatrix::try_new(
            float.rows(),
            float.cols(),
            indptr.to_vec(),
            indices.to_vec(),
            int_values,
        )
        .expect("structure is unchanged")
    }

    fn engine() -> Gust {
        Gust::new(GustConfig::new(8))
    }

    /// Integer-valued vector: keeps every summation order exact so the
    /// scheduled and reference paths agree bitwise.
    fn int_vector(cols: usize) -> Vec<f32> {
        (0..cols).map(|i| ((i % 7) as f32) - 3.0).collect()
    }

    #[test]
    fn content_hash_is_stable_and_structure_sensitive() {
        let a = small_matrix(1);
        let b = small_matrix(1);
        let c = small_matrix(2);
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&a), content_hash(&c));
    }

    #[test]
    fn registry_memoizes_after_first_acquire() {
        let registry = ScheduleRegistry::new(engine());
        let key = registry.insert(&small_matrix(3));
        let first = registry.acquire(key).unwrap();
        let second = registry.acquire(key).unwrap();
        let (Acquired::Scheduled(a), Acquired::Scheduled(b)) = (first, second) else {
            panic!("both acquires should be scheduled");
        };
        assert!(Arc::ptr_eq(&a, &b), "second acquire must hit the memo");
        let stats = registry.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.rebuilds, 1);
    }

    #[test]
    fn acquire_unknown_key_is_an_error() {
        let registry = ScheduleRegistry::new(engine());
        let err = registry.acquire(MatrixKey(42)).unwrap_err();
        assert!(matches!(err, GustError::UnknownMatrix { key: 42 }));
    }

    #[test]
    fn disk_cache_revives_and_corrupt_cache_is_quarantined() {
        let dir = std::env::temp_dir().join(format!("gust-serve-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let matrix = small_matrix(4);
        let key = {
            let registry = ScheduleRegistry::new(engine()).with_cache_dir(&dir);
            let key = registry.insert(&matrix);
            registry.acquire(key).unwrap();
            assert_eq!(registry.stats().rebuilds, 1);
            key
        };
        let path = dir.join(format!("{:016x}.gust", key.as_u64()));
        assert!(path.exists(), "build must write the container back");

        // A fresh registry revives from disk without rebuilding.
        let registry = ScheduleRegistry::new(engine()).with_cache_dir(&dir);
        assert_eq!(registry.insert(&matrix), key);
        registry.acquire(key).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.disk_loads, 1);
        assert_eq!(stats.rebuilds, 0);

        // Corrupt the container: next cold acquire quarantines it,
        // counts the poisoned eviction, and rebuilds.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let registry = ScheduleRegistry::new(engine()).with_cache_dir(&dir);
        registry.insert(&matrix);
        let Acquired::Scheduled(_) = registry.acquire(key).unwrap() else {
            panic!("corrupt cache must rebuild, not degrade");
        };
        let stats = registry.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.poisoned_evictions, 1);
        assert_eq!(stats.rebuilds, 1);
        assert!(
            dir.read_dir()
                .unwrap()
                .filter_map(Result::ok)
                .any(|e| e.path().extension().is_some_and(|x| x == "corrupt")),
            "corrupt container must be quarantined on disk"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_opens_after_repeated_build_faults_and_recovers() {
        let registry = ScheduleRegistry::new(engine())
            .with_retry(RetryPolicy {
                attempts: 2,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(50),
            })
            .with_breaker(BreakerPolicy {
                threshold: 2,
                cooldown: Duration::from_millis(5),
            });
        let key = registry.insert(&small_matrix(5));

        {
            let _guard = faults::override_for_tests("sched_build:1");
            // Two acquires, each exhausting its retries: breaker opens.
            assert!(matches!(registry.acquire(key), Ok(Acquired::Degraded)));
            assert!(matches!(registry.acquire(key), Ok(Acquired::Degraded)));
            let stats = registry.stats();
            assert_eq!(stats.breaker_opens, 1);
            assert_eq!(stats.build_failures, 4);
            // Open breaker short-circuits: no further build attempts.
            assert!(matches!(registry.acquire(key), Ok(Acquired::Degraded)));
            assert_eq!(registry.stats().build_failures, 4);
        }

        // Faults cleared and cooldown elapsed: the half-open probe
        // rebuilds and the breaker closes.
        std::thread::sleep(Duration::from_millis(6));
        assert!(matches!(registry.acquire(key), Ok(Acquired::Scheduled(_))));
        let stats = registry.stats();
        assert_eq!(stats.breaker_recoveries, 1);
        assert_eq!(stats.rebuilds, 1);
    }

    #[test]
    fn poison_evicts_memo_and_counts_toward_breaker() {
        let registry = ScheduleRegistry::new(engine()).with_breaker(BreakerPolicy {
            threshold: 2,
            cooldown: Duration::from_millis(5),
        });
        let key = registry.insert(&small_matrix(6));
        registry.acquire(key).unwrap();
        registry.poison(key);
        assert_eq!(registry.stats().poisoned_evictions, 1);
        // Still closed (1 < threshold): the next acquire rebuilds.
        assert!(matches!(registry.acquire(key), Ok(Acquired::Scheduled(_))));
        assert_eq!(registry.stats().rebuilds, 2);
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        };
        for retry in 0..4 {
            for seed in 0..16 {
                let d = policy.backoff(retry, seed);
                assert!(d <= Duration::from_millis(1));
            }
        }
        // Deterministic in the seed, varied across seeds.
        assert_eq!(policy.backoff(1, 7), policy.backoff(1, 7));
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32).map(|s| policy.backoff(2, s)).collect();
        assert!(distinct.len() > 8, "jitter must spread across seeds");
    }

    #[test]
    fn server_round_trip_matches_reference_bitwise() {
        let matrix = small_matrix(7);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        let server = SpmvServer::start(registry, ServeConfig::default());
        let key = server.register(&matrix);

        let x = int_vector(matrix.cols());
        let resp = server.call(0, key, x.clone()).unwrap();
        assert_eq!(resp.output, matrix.spmv(&x));
        assert!(!resp.degraded);

        let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        let resp = server.call_f64(0, key, x64.clone()).unwrap();
        assert_eq!(resp.output, reference_spmv_f64(&matrix, &x64));

        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn server_validates_key_and_vector_length_at_admission() {
        let matrix = small_matrix(8);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        let server = SpmvServer::start(registry, ServeConfig::default());
        let key = server.register(&matrix);

        let err = server
            .submit(0, MatrixKey(1), int_vector(matrix.cols()), None)
            .unwrap_err();
        assert!(matches!(err, GustError::UnknownMatrix { .. }));

        let err = server.submit(0, key, vec![1.0; 3], None).unwrap_err();
        assert!(matches!(err, GustError::InputLength { .. }));

        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn ticket_wait_never_outlives_its_deadline() {
        let matrix = small_matrix(9);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        // Use an exec_delay fault to slow the dispatcher so a tiny
        // deadline reliably expires first.
        let _guard = faults::override_for_tests("exec_delay:1");
        let server = SpmvServer::start(registry, ServeConfig::default());
        let key = server.register(&matrix);

        let ticket = server
            .submit(
                0,
                key,
                int_vector(matrix.cols()),
                Some(Duration::from_micros(1)),
            )
            .unwrap();
        let start = Instant::now();
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, GustError::DeadlineExceeded { .. }));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "wait must return promptly at the deadline"
        );
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let matrix = small_matrix(10);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        // Warm the schedule first so the dispatcher is fast later, then
        // block it with an exec_delay so the queue can actually fill.
        registry.acquire(registry.insert(&matrix)).unwrap();
        let _guard = faults::override_for_tests("exec_delay:1");
        let server = SpmvServer::start(
            Arc::clone(&registry),
            ServeConfig {
                queue_capacity: 2,
                max_batch: 1,
                ..ServeConfig::default()
            },
        );
        let key = server.register(&matrix);
        let x = int_vector(matrix.cols());

        // Saturate: keep submitting until one is shed. The dispatcher
        // drains concurrently, so allow several rounds.
        let mut tickets = Vec::new();
        let mut shed = None;
        for _ in 0..200 {
            match server.submit(0, key, x.clone(), Some(Duration::from_secs(5))) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        let shed = shed.expect("a capacity-2 queue must shed under a submit burst");
        assert!(matches!(shed, GustError::Overloaded { capacity: 2, .. }));
        assert!(server.stats().shed >= 1);
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.output, matrix.spmv(&x));
        }
    }

    #[test]
    fn stop_drains_queued_requests_with_server_stopped() {
        let matrix = small_matrix(11);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        let mut server = SpmvServer::start(registry, ServeConfig::default());
        let key = server.register(&matrix);
        server.stop();
        let err = server
            .submit(0, key, int_vector(matrix.cols()), None)
            .unwrap_err();
        assert!(matches!(err, GustError::ServerStopped));
    }

    #[test]
    fn cross_tenant_requests_batch_into_one_panel() {
        let matrix = small_matrix(12);
        let registry = Arc::new(ScheduleRegistry::new(engine()));
        // Warm the schedule so execution is quick; slow each panel with
        // exec_delay so queued tenants pile up behind the first.
        registry.acquire(registry.insert(&matrix)).unwrap();
        let _guard = faults::override_for_tests("exec_delay:1");
        let server = SpmvServer::start(Arc::clone(&registry), ServeConfig::default());
        let key = server.register(&matrix);

        let x = int_vector(matrix.cols());
        let tickets: Vec<_> = (0..8)
            .map(|tenant| {
                server
                    .submit(tenant, key, x.clone(), Some(Duration::from_secs(10)))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.output, matrix.spmv(&x));
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 8);
        assert!(
            stats.batches < 8,
            "8 compatible requests should aggregate into fewer panels \
             (got {} panels)",
            stats.batches
        );
    }

    #[test]
    fn reference_spmv_f64_matches_widened_row_walk() {
        let matrix = small_matrix(13);
        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 5) as f64).collect();
        let y = reference_spmv_f64(&matrix, &x);
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        assert_eq!(y, matrix.spmv_f64(&x32));
    }
}
