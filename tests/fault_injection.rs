//! Real-site fault injection (see [`gust::faults`]): these tests drive
//! the `io_read` / `io_write` / `schedule_read` / `schedule_write` /
//! `worker_panic` sites through the scoped [`faults::override_for_tests`]
//! guard and prove the degradation paths degrade *gracefully* — cached
//! loaders fall back to their sources, best-effort writes stay
//! best-effort, and the global worker pool survives an injected task
//! panic with bit-identical results on the next run.
//!
//! This binary is also what the CI `fault-injection` job runs under
//! `GUST_FAULT` environment plans; the `env_driven_*` test at the bottom
//! replays whatever plan the environment provides through the guard.
//!
//! # Guard discipline
//!
//! The override guard is process-global and tests run concurrently, so
//! **every** call that can reach a fault site — engine/scheduler runs
//! (`worker_panic`), matrix I/O (`io_*`), schedule I/O (`schedule_*`) —
//! happens while this test holds a guard (`""` = no injection). An
//! unguarded call would race against whichever plan a sibling test has
//! installed.

use gust::faults::{self, sites, FaultPlan};
use gust::prelude::*;
use gust::schedule::serialize::{read_schedule, write_schedule, write_schedule_file};
use gust::serve::{Acquired, ScheduleRegistry};
use gust_sparse::io::{
    read_bin, read_matrix_market_cached, write_bin, write_matrix_market, SourceFingerprint,
};
use gust_sparse::prelude::*;
use gust_sparse::SparseError;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gust-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_source(dir: &std::path::Path, name: &str, seed: u64) -> (std::path::PathBuf, CsrMatrix) {
    let coo = gen::uniform(16, 16, 60, seed);
    let mtx = dir.join(name);
    let mut text = Vec::new();
    write_matrix_market(&coo, &mut text).expect("serialize source");
    std::fs::write(&mtx, &text).expect("write source");
    (mtx, CsrMatrix::from(&coo))
}

#[test]
fn injected_io_read_faults_surface_as_io_errors() {
    let m = CsrMatrix::identity(4);
    let mut bytes = Vec::new();
    {
        let _quiet = faults::override_for_tests("");
        write_bin(&m, SourceFingerprint::default(), &mut bytes).expect("serialize");
    }

    {
        let _guard = faults::override_for_tests("io_read:1");
        match read_bin(bytes.as_slice()) {
            Err(SparseError::Io(message)) => assert!(message.contains("injected fault")),
            other => panic!("expected an injected Io error, got {other:?}"),
        }
    }

    let _quiet = faults::override_for_tests("");
    assert_eq!(read_bin(bytes.as_slice()).expect("faults cleared").0, m);
}

/// The crown jewel of the loading path: with *every* binary-cache read
/// and write failing, `read_matrix_market_cached` still serves correct
/// matrices on every call — the text source is the fallback, and the
/// cache write is best-effort by contract.
#[test]
fn cached_matrix_loading_survives_total_cache_io_failure() {
    let dir = scratch("io-total");
    let (mtx, expected) = write_source(&dir, "m.mtx", 21);

    {
        let _guard = faults::override_for_tests("io_read:1,io_write:1");
        for call in 0..5 {
            let loaded = read_matrix_market_cached(&mtx)
                .unwrap_or_else(|e| panic!("call {call} must fall back to the source, got {e}"));
            assert_eq!(loaded, expected, "call {call}");
        }
        assert!(
            !dir.join("m.mtx.gspb").exists(),
            "with io_write:1 no cache can have landed"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Probabilistic plans: every call still succeeds — whichever of the
/// cache read or cache write the roll hits, the loader has a path
/// around it.
#[test]
fn cached_matrix_loading_survives_flaky_cache_io() {
    let dir = scratch("io-flaky");
    let (mtx, expected) = write_source(&dir, "m.mtx", 22);

    {
        let _guard = faults::override_for_tests("io_read:0.5,io_write:0.5");
        for call in 0..20 {
            let loaded = read_matrix_market_cached(&mtx)
                .unwrap_or_else(|e| panic!("call {call} must succeed, got {e}"));
            assert_eq!(loaded, expected, "call {call}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The schedule-side twin: with every container read and write failing,
/// the serving registry (the cached schedule loader) still answers every
/// fresh acquire with the right schedule — it rebuilds, and neither
/// counts the failed read as a disk load nor quarantines the intact file.
#[test]
fn cached_schedule_loading_survives_total_schedule_io_failure() {
    let dir = scratch("sched-total");
    let m = CsrMatrix::from(&gen::uniform(16, 16, 60, 23));
    let gust = Gust::new(GustConfig::new(4));
    let key = ScheduleRegistry::new(gust.clone()).insert(&m);
    let path = dir.join(format!("{:016x}.gust", key.as_u64()));

    // Seed the schedule and its on-disk container with faults masked
    // (scheduling itself crosses the worker_panic site).
    let expected = {
        let _quiet = faults::override_for_tests("");
        let expected = gust.schedule(&m);
        write_schedule_file(&expected, &path).expect("seed schedule file");
        expected
    };

    {
        // The rebuild must not re-enter the scheduler's pool under a
        // concurrent worker_panic plan — here the plan is ours and names
        // only schedule sites, so it is safe.
        let _guard = faults::override_for_tests("schedule_read:1,schedule_write:1");
        for call in 0..5 {
            let registry = ScheduleRegistry::new(gust.clone()).with_cache_dir(&dir);
            assert_eq!(registry.insert(&m), key);
            let Acquired::Scheduled(loaded) = registry.acquire(key).expect("registered") else {
                panic!("call {call}: total schedule I/O failure must rebuild, not degrade");
            };
            let loaded: &ScheduledMatrix = &loaded;
            assert_eq!(loaded, &expected, "call {call}");
            let stats = registry.stats();
            assert_eq!(stats.rebuilds, 1, "call {call}");
            assert_eq!(stats.disk_loads, 0, "call {call}");
            assert_eq!(stats.quarantined, 0, "call {call}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn injected_schedule_write_faults_do_not_poison_round_trips() {
    let m = CsrMatrix::from(&gen::uniform(12, 12, 40, 24));
    let schedule = {
        let _quiet = faults::override_for_tests("");
        Gust::new(GustConfig::new(4)).schedule(&m)
    };

    {
        let _guard = faults::override_for_tests("schedule_write:1");
        let mut bytes = Vec::new();
        assert!(
            write_schedule(&schedule, &mut bytes).is_err(),
            "write site must fire"
        );
    }

    let _quiet = faults::override_for_tests("");
    let mut bytes = Vec::new();
    write_schedule(&schedule, &mut bytes).expect("faults cleared");
    assert_eq!(
        read_schedule(bytes.as_slice()).expect("round trip"),
        schedule
    );
}

/// The execution-side acceptance criterion: a worker-panic injection
/// takes down the run (re-raised on the caller, as a real task panic
/// would be), and the **global pool stays usable** — the very next
/// batched run over the same schedule is bit-identical to the baseline
/// computed before any fault fired.
#[test]
fn pool_survives_injected_worker_panic_bit_identically() {
    let m = CsrMatrix::from(&gen::uniform(64, 64, 600, 25));
    let gust = Gust::new(GustConfig::new(8).with_parallelism(Some(4)));
    let batch = 32usize;
    let panel: Vec<f32> = (0..64 * batch)
        .map(|i| ((i % 13) as f32 - 6.0) / 3.0)
        .collect();

    // Schedule and baseline with injection masked.
    let (schedule, baseline) = {
        let _quiet = faults::override_for_tests("");
        let schedule = gust.schedule(&m);
        let baseline = gust.execute_batch(&schedule, &panel, batch);
        (schedule, baseline)
    };

    // Inject: every pool task panics; Pool::run must re-raise on us.
    {
        let _guard = faults::override_for_tests("worker_panic:1");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gust.execute_batch(&schedule, &panel, batch)
        }));
        assert!(result.is_err(), "worker_panic:1 must take the run down");
    }

    // Recovery: same pool (it is process-global), same schedule, same
    // panel — outputs and accounting bit-identical to the baseline.
    let _quiet = faults::override_for_tests("");
    let rerun = gust.execute_batch(&schedule, &panel, batch);
    assert_eq!(rerun.0, baseline.0, "outputs must be bit-identical");
    assert_eq!(rerun.1, baseline.1, "reports must be identical");

    // And single-vector runs keep matching the reference.
    let x: Vec<f32> = (0..64).map(|i| (i % 9) as f32 - 4.0).collect();
    let run = gust.execute(&schedule, &x);
    assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-4);
}

/// The pool survives *repeated* injected worker panics — panic, retire,
/// respawn, again and again — with the clean rerun after every crash
/// bit-identical to the pre-crash baseline, and every contained panic
/// visible in [`Pool::panics_observed`]. One survived panic could be
/// luck; five in a row is a recovery path.
#[test]
fn pool_survives_repeated_injected_worker_panics_bit_identically() {
    let m = CsrMatrix::from(&gen::uniform(64, 64, 600, 27));
    let gust = Gust::new(GustConfig::new(8).with_parallelism(Some(4)));
    let batch = 32usize;
    let panel: Vec<f32> = (0..64 * batch)
        .map(|i| ((i % 11) as f32 - 5.0) / 4.0)
        .collect();

    let (schedule, baseline) = {
        let _quiet = faults::override_for_tests("");
        let schedule = gust.schedule(&m);
        let baseline = gust.execute_batch(&schedule, &panel, batch);
        (schedule, baseline)
    };

    let before = Pool::global().panics_observed();
    for round in 0..5 {
        {
            let _guard = faults::override_for_tests("worker_panic:1");
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gust.execute_batch(&schedule, &panel, batch)
            }));
            assert!(
                result.is_err(),
                "round {round}: worker_panic:1 must take the run down"
            );
        }
        // Clean rerun on the same (recovered) global pool: outputs and
        // accounting bit-identical to the baseline, every round.
        let _quiet = faults::override_for_tests("");
        let rerun = gust.execute_batch(&schedule, &panel, batch);
        assert_eq!(
            rerun.0, baseline.0,
            "round {round}: outputs must be bit-identical after recovery"
        );
        assert_eq!(
            rerun.1, baseline.1,
            "round {round}: reports must be identical"
        );
    }
    let after = Pool::global().panics_observed();
    assert!(
        after >= before + 5,
        "five injected crash rounds must be visible in the recovery \
         counter (before {before}, after {after})"
    );
}

/// Replays whatever `GUST_FAULT` plan the environment provides (the CI
/// fault matrix) through the guard: loading must stay correct under
/// io/schedule faults, a certain (`probability == 1`) worker-panic plan
/// must fail exactly as injected — and once injection is masked the
/// process must be fully recovered.
#[test]
fn env_driven_faults_degrade_gracefully() {
    let dir = scratch("env");
    let (mtx, expected) = write_source(&dir, "m.mtx", 26);

    // Mirror the environment's plan through the serializing guard so
    // this test cannot race its siblings (a malformed env plan injects
    // nothing, exactly like the runtime resolver).
    let raw = std::env::var("GUST_FAULT").unwrap_or_default();
    let env_plan = match FaultPlan::parse(&raw) {
        Ok(_) => raw,
        Err(_) => String::new(),
    };
    let certain_worker_panic = FaultPlan::parse(&env_plan)
        .expect("validated")
        .probability(sites::WORKER_PANIC)
        >= 1.0;

    {
        let _guard = faults::override_for_tests(&env_plan);

        // Loading: correct result under any environment plan (io_read /
        // io_write faults reroute through the source text).
        let loaded =
            read_matrix_market_cached(&mtx).expect("cached loading must degrade gracefully");
        assert_eq!(loaded, expected);

        if certain_worker_panic {
            // The environment forces worker crashes: scheduling or
            // execution fails by design, re-raised on the caller.
            let gust = Gust::new(GustConfig::new(4).with_parallelism(Some(2)));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let schedule = gust.schedule(&loaded);
                let x = vec![1.0f32; 16];
                gust.execute(&schedule, &x)
            }));
            assert!(result.is_err(), "worker_panic:1 must fire");
        }
    }

    // Masked, everything works — the process was never damaged.
    let _quiet = faults::override_for_tests("");
    let loaded = read_matrix_market_cached(&mtx).expect("recovered");
    let gust = Gust::new(GustConfig::new(4).with_parallelism(Some(2)));
    let schedule = gust.schedule(&loaded);
    let batch = 8usize;
    let panel: Vec<f32> = (0..16 * batch).map(|i| (i % 7) as f32 - 3.0).collect();
    let (y, _) = gust.execute_batch(&schedule, &panel, batch);
    assert_eq!(y.len(), 16 * batch);
    let x: Vec<f32> = panel[..16].to_vec();
    let run = gust.execute(&schedule, &x);
    assert_vectors_close(&run.output, &reference_spmv(&loaded, &x), 1e-4);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
