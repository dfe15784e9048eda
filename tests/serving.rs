//! Serving-runtime robustness: the fault-soak acceptance test plus
//! targeted scenarios for deadline enforcement, overload shedding,
//! circuit-breaker degradation/recovery, and worker-panic containment
//! (see `gust::serve`).
//!
//! This binary is what the CI `serving` job runs under `GUST_FAULT`
//! environment plans (`io_read:0.25,sched_build:0.25,worker_panic:0.05`);
//! the soak test mirrors whatever plan the environment provides through
//! the serializing guard, exactly like `tests/fault_injection.rs`.
//!
//! # Bit-identity strategy
//!
//! Every matrix and vector here is **integer-valued** with small
//! magnitudes, so every product and partial sum is exactly
//! representable and every summation order (engine slot order, tiled band
//! walk, reference row order) produces the same bits. That turns
//! "responses are correct" into the strongest possible assertion: each
//! response must equal the reference `CsrMatrix::spmv` **bitwise**, no
//! matter which serving path (scheduled fast path, retried execution,
//! or degraded reference fallback) produced it.
//!
//! # Guard discipline
//!
//! The fault override guard is process-global and tests run
//! concurrently, so every server in this binary lives strictly inside
//! a guard's scope (`""` = no injection), and the server (whose
//! dispatcher thread reaches fault sites) is always declared *after*
//! the guard so it is dropped — dispatcher joined — before the guard
//! releases.

use gust::faults::{self, FaultPlan};
use gust::prelude::*;
use gust::serve::{reference_spmv_f64, BreakerPolicy, RetryPolicy, ScheduleRegistry};
use gust_sparse::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A random-structure matrix whose values are snapped to small
/// integers (see the module docs' bit-identity strategy).
fn int_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let float = CsrMatrix::from(&gen::uniform(rows, cols, nnz, seed));
    let (indptr, indices, values) = float.raw_parts();
    let ints = values
        .iter()
        .map(|v| (v * 7.0).floor().abs() + 1.0)
        .collect();
    CsrMatrix::try_new(rows, cols, indptr.to_vec(), indices.to_vec(), ints)
        .expect("structure unchanged")
}

/// A small-integer input vector, deterministic in `seed`.
fn int_vector(cols: usize, seed: u64) -> Vec<f32> {
    (0..cols)
        .map(|i| (((i as u64).wrapping_mul(seed + 3) % 9) as f32) - 4.0)
        .collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gust-serving-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The env's `GUST_FAULT` plan when it parses, else no injection —
/// mirrored through the guard so this binary never races itself.
fn env_plan() -> String {
    let raw = std::env::var("GUST_FAULT").unwrap_or_default();
    match FaultPlan::parse(&raw) {
        Ok(_) => raw,
        Err(_) => String::new(),
    }
}

/// The fault-soak acceptance test: a mixed open-loop workload (three
/// matrices, two element types, four tenant threads) served to
/// completion under whatever fault plan the environment provides, with
/// **zero wrong results** — every successful response bit-identical to
/// the reference kernel — zero waits past deadline, and every
/// non-response reported as an explicit error.
#[test]
fn fault_soak_mixed_workload_is_bit_identical() {
    let dir = scratch("soak");
    let plan = env_plan();
    let _guard = faults::override_for_tests(&plan);

    let matrices: Vec<Arc<CsrMatrix>> = vec![
        Arc::new(int_matrix(24, 24, 90, 31)),
        Arc::new(int_matrix(40, 24, 160, 32)),
        Arc::new(int_matrix(16, 48, 120, 33)),
    ];
    let registry = Arc::new(
        ScheduleRegistry::new(Gust::new(GustConfig::new(8)))
            .with_cache_dir(&dir)
            .with_retry(RetryPolicy {
                attempts: 4,
                base: Duration::from_micros(50),
                cap: Duration::from_micros(500),
            })
            .with_breaker(BreakerPolicy {
                threshold: 2,
                cooldown: Duration::from_millis(2),
            }),
    );
    let deadline = Duration::from_secs(10);
    let server = SpmvServer::start(
        Arc::clone(&registry),
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            default_deadline: deadline,
            retry: RetryPolicy {
                attempts: 3,
                base: Duration::from_micros(50),
                cap: Duration::from_micros(500),
            },
        },
    );
    let keys: Vec<_> = matrices.iter().map(|m| server.register(m)).collect();

    const TENANTS: usize = 4;
    const PER_TENANT: usize = 40;
    let start = Instant::now();
    let (wrong, shed, missed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let server = &server;
                let keys = &keys;
                let matrices = &matrices;
                scope.spawn(move || {
                    let (mut wrong, mut shed, mut missed) = (0u64, 0u64, 0u64);
                    for i in 0..PER_TENANT {
                        let which = (tenant + i) % matrices.len();
                        let m = &matrices[which];
                        let x = int_vector(m.cols(), (tenant * 1000 + i) as u64);
                        if i % 3 == 2 {
                            let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
                            match server.submit_f64(
                                tenant,
                                keys[which],
                                x64.clone(),
                                Some(deadline),
                            ) {
                                Ok(t) => match t.wait() {
                                    Ok(resp) => {
                                        if resp.output != reference_spmv_f64(m, &x64) {
                                            wrong += 1;
                                        }
                                    }
                                    Err(GustError::DeadlineExceeded { .. }) => missed += 1,
                                    Err(e) => panic!("unexpected serve error: {e}"),
                                },
                                Err(GustError::Overloaded { .. }) => shed += 1,
                                Err(e) => panic!("unexpected admission error: {e}"),
                            }
                        } else {
                            match server.submit(tenant, keys[which], x.clone(), Some(deadline)) {
                                Ok(t) => match t.wait() {
                                    Ok(resp) => {
                                        if resp.output != m.spmv(&x) {
                                            wrong += 1;
                                        }
                                    }
                                    Err(GustError::DeadlineExceeded { .. }) => missed += 1,
                                    Err(e) => panic!("unexpected serve error: {e}"),
                                },
                                Err(GustError::Overloaded { .. }) => shed += 1,
                                Err(e) => panic!("unexpected admission error: {e}"),
                            }
                        }
                    }
                    (wrong, shed, missed)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0, 0), |acc, h| {
            let (w, s, m) = h.join().expect("tenant thread");
            (acc.0 + w, acc.1 + s, acc.2 + m)
        })
    });

    assert_eq!(
        wrong, 0,
        "every response must be bit-identical to the reference"
    );
    // Closed-loop clients with a 10 s deadline: nothing should ever
    // wait anywhere near that long, let alone hang past it.
    assert!(
        start.elapsed() < deadline,
        "soak must finish well inside one deadline (took {:?})",
        start.elapsed()
    );

    // Accounting: nothing vanishes. Every submit was admitted or shed,
    // and every admitted request was answered (the dispatcher may trail
    // the last client wake by a moment, so poll briefly).
    let total = (TENANTS * PER_TENANT) as u64;
    let wait_start = Instant::now();
    loop {
        let stats = server.stats();
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.submitted, stats.admitted + stats.shed);
        assert_eq!(stats.shed, shed);
        if stats.completed + stats.deadline_missed == stats.admitted {
            assert!(stats.deadline_missed >= missed);
            break;
        }
        assert!(
            wait_start.elapsed() < Duration::from_secs(2),
            "dispatcher failed to account for every admitted request: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request with a tiny deadline is failed with `DeadlineExceeded` —
/// promptly, never hanging — while the injected `exec_delay` fault
/// holds the dispatcher back.
#[test]
fn deadlines_are_enforced_and_never_hang() {
    let _guard = faults::override_for_tests("exec_delay:1");
    let matrix = int_matrix(24, 24, 90, 41);
    let registry = Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(8))));
    let server = SpmvServer::start(registry, ServeConfig::default());
    let key = server.register(&matrix);

    let start = Instant::now();
    let err = server
        .submit(0, key, int_vector(24, 1), Some(Duration::from_micros(200)))
        .expect("admission")
        .wait()
        .expect_err("a 200µs deadline must expire under a 2ms injected delay");
    assert!(
        matches!(err, GustError::DeadlineExceeded { .. }),
        "got: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "deadline failure must be prompt (took {:?})",
        start.elapsed()
    );

    // The dispatcher records the miss (wait-abandoned or boundary).
    let wait_start = Instant::now();
    while server.stats().deadline_missed + server.stats().late_results == 0 {
        assert!(wait_start.elapsed() < Duration::from_secs(2));
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A saturated bounded queue sheds with `Overloaded`, and every
/// admitted request is still answered — nothing is dropped silently.
#[test]
fn overload_sheds_explicitly_and_answers_everything_admitted() {
    let _guard = faults::override_for_tests("exec_delay:1");
    let matrix = int_matrix(24, 24, 90, 42);
    let registry = Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(8))));
    registry
        .acquire(registry.insert(&matrix))
        .expect("warm schedule");
    let server = SpmvServer::start(
        Arc::clone(&registry),
        ServeConfig {
            queue_capacity: 4,
            max_batch: 2,
            ..ServeConfig::default()
        },
    );
    let key = server.register(&matrix);
    let x = int_vector(24, 2);

    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..300 {
        match server.submit(0, key, x.clone(), Some(Duration::from_secs(10))) {
            Ok(t) => tickets.push(t),
            Err(GustError::Overloaded { capacity: 4, .. }) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(
        shed > 0,
        "a capacity-4 queue must shed under a 300-submit burst"
    );

    let expected = matrix.spmv(&x);
    for t in tickets {
        let resp = t.wait().expect("admitted requests are answered");
        assert_eq!(resp.output, expected);
    }
    let stats = server.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.submitted, stats.admitted + stats.shed);
}

/// Persistent `sched_build` faults trip the breaker: requests are
/// served degraded (reference kernel — correct answers, never an
/// error), and once the faults clear and the cooldown elapses the
/// fast path comes back.
#[test]
fn breaker_degrades_to_reference_and_recovers() {
    let matrix = int_matrix(24, 24, 90, 43);
    let registry = Arc::new(
        ScheduleRegistry::new(Gust::new(GustConfig::new(8)))
            .with_retry(RetryPolicy {
                attempts: 2,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            })
            .with_breaker(BreakerPolicy {
                threshold: 1,
                cooldown: Duration::from_millis(1),
            }),
    );
    let x = int_vector(24, 3);
    let expected = matrix.spmv(&x);

    {
        let _guard = faults::override_for_tests("sched_build:1");
        let server = SpmvServer::start(Arc::clone(&registry), ServeConfig::default());
        let key = server.register(&matrix);
        for _ in 0..3 {
            let resp = server
                .call(0, key, x.clone())
                .expect("degraded, not an error");
            assert_eq!(resp.output, expected, "degraded path must stay exact");
            assert!(resp.degraded, "an unbuildable schedule must serve degraded");
        }
        assert!(registry.stats().breaker_opens >= 1);
    }

    // Faults cleared: after the cooldown, the half-open probe rebuilds
    // and requests return to the scheduled fast path.
    let _guard = faults::override_for_tests("");
    std::thread::sleep(Duration::from_millis(2));
    let server = SpmvServer::start(Arc::clone(&registry), ServeConfig::default());
    let key = server.register(&matrix);
    let resp = server.call(0, key, x.clone()).expect("recovered");
    assert_eq!(resp.output, expected);
    assert!(
        !resp.degraded,
        "breaker must close once builds succeed again"
    );
    assert!(registry.stats().breaker_recoveries >= 1);
}

/// Certain worker panics inside the engine's pool execution are
/// contained: the server retries, then falls back to the reference
/// kernel — exact answers throughout, and the fast path returns once
/// the fault clears.
#[test]
fn injected_worker_panics_never_corrupt_responses() {
    // The `worker_panic` site lives in pool tasks, and the engine only
    // fans a panel out to the pool when it spans multiple register
    // blocks — so this test uses a parallel engine, a wide max_batch,
    // and an `exec_delay` to hold the dispatcher back long enough for
    // a submit burst to aggregate into one pool-wide panel.
    let matrix = int_matrix(64, 64, 500, 44);
    let registry = Arc::new(
        ScheduleRegistry::new(Gust::new(GustConfig::new(8).with_parallelism(Some(4))))
            .with_retry(RetryPolicy {
                attempts: 2,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            })
            .with_breaker(BreakerPolicy {
                threshold: 1,
                cooldown: Duration::from_millis(1),
            }),
    );
    // Build the schedule cleanly first so the panic hits *execution*.
    {
        let _guard = faults::override_for_tests("");
        registry
            .acquire(registry.insert(&matrix))
            .expect("warm schedule");
    }
    const BURST: usize = 40;
    let vectors: Vec<Vec<f32>> = (0..BURST).map(|i| int_vector(64, i as u64)).collect();
    let expected: Vec<Vec<f32>> = vectors.iter().map(|x| matrix.spmv(x)).collect();

    {
        let _guard = faults::override_for_tests("worker_panic:1,exec_delay:1");
        let server = SpmvServer::start(
            Arc::clone(&registry),
            ServeConfig {
                queue_capacity: BURST,
                max_batch: BURST,
                ..ServeConfig::default()
            },
        );
        let key = server.register(&matrix);
        let tickets: Vec<_> = vectors
            .iter()
            .map(|x| {
                server
                    .submit(0, key, x.clone(), Some(Duration::from_secs(10)))
                    .expect("admission")
            })
            .collect();
        for (t, want) in tickets.into_iter().zip(&expected) {
            let resp = t.wait().expect("contained, not an error");
            assert_eq!(&resp.output, want, "fallback must stay exact");
        }
        let stats = server.stats();
        assert!(
            stats.exec_retries >= 1 && stats.exec_fallbacks >= 1,
            "a pool-wide panel under worker_panic:1 must retry then fall back: {stats:?}"
        );
    }

    let _guard = faults::override_for_tests("");
    std::thread::sleep(Duration::from_millis(2));
    let server = SpmvServer::start(Arc::clone(&registry), ServeConfig::default());
    let key = server.register(&matrix);
    let resp = server.call(0, key, vectors[0].clone()).expect("recovered");
    assert_eq!(resp.output, expected[0]);
    assert!(!resp.degraded, "fast path must return once panics stop");
}

/// Concurrent tenants submitting compatible requests get aggregated
/// into shared panels — and each still gets its own exact answer.
#[test]
fn cross_tenant_batching_preserves_per_tenant_results() {
    let _guard = faults::override_for_tests("");
    let matrix = int_matrix(32, 32, 140, 45);
    let registry = Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(8))));
    registry
        .acquire(registry.insert(&matrix))
        .expect("warm schedule");
    let server = SpmvServer::start(Arc::clone(&registry), ServeConfig::default());
    let key = server.register(&matrix);

    const TENANTS: usize = 6;
    const PER_TENANT: usize = 10;
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let server = &server;
            let matrix = &matrix;
            scope.spawn(move || {
                for i in 0..PER_TENANT {
                    let x = int_vector(32, (tenant * 100 + i) as u64);
                    let resp = server
                        .call(tenant, key, x.clone())
                        .expect("clean serving path");
                    assert_eq!(
                        resp.output,
                        matrix.spmv(&x),
                        "tenant {tenant} request {i} must get its own product"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.completed, (TENANTS * PER_TENANT) as u64);
    assert_eq!(stats.batched_requests, stats.completed);
    assert!(
        stats.batches <= stats.completed,
        "aggregation can only shrink the panel count: {stats:?}"
    );
}
