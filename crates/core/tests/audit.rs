//! The "valid CRC, invalid semantics" gap: containers whose bytes pass
//! every integrity check but whose *contents* violate the kernels'
//! safety contract. `tests/corruption.rs` (workspace root) covers
//! bit-damage the checksum catches; these tests forge collisions and
//! out-of-bounds indices and re-checksum, so only the safety auditor
//! (`gust::verify`, run unconditionally by every reader) stands between
//! the forged file and the unsafe kernels. They run identically in
//! debug and release — CI's release leg is what proves the rejection
//! does not ride on `debug_assert`.

mod common;

use common::{fix_crc, flat_cells, read_u32, same_color_pair, tiled_cells, write_u32, ENVELOPE};
use gust::prelude::*;
use gust::schedule::serialize::{
    read_schedule, read_tiled_schedule, read_tiled_schedule_file, write_schedule,
    write_tiled_schedule, ReadScheduleError,
};
use gust::schedule::Scheduler;
use gust::serve::Acquired;
use gust_sparse::gen;
use gust_sparse::CsrMatrix;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn matrix(seed: u64) -> CsrMatrix {
    CsrMatrix::from(&gen::uniform(24, 24, 120, seed))
}

fn engine() -> Gust {
    Gust::new(GustConfig::new(4))
}

/// Serialized flat container for a freshly built schedule.
fn flat_container(seed: u64) -> (CsrMatrix, Vec<u8>) {
    let m = matrix(seed);
    let schedule = engine().schedule(&m);
    let mut buf = Vec::new();
    write_schedule(&schedule, &mut buf).expect("write to vec");
    (m, buf)
}

/// Serialized one-tile, three-band `GUTL` container: the purely
/// column-banded tile body.
fn banded_container(seed: u64) -> Vec<u8> {
    let m = matrix(seed);
    let schedule = Scheduler::new(engine().config().clone()).schedule_tiled_with(
        &m,
        1,
        ColumnBands::with_count(24, 3),
    );
    let mut buf = Vec::new();
    write_tiled_schedule(&schedule, &mut buf).expect("write to vec");
    buf
}

fn tiled_container(seed: u64) -> Vec<u8> {
    let m = matrix(seed);
    let schedule = engine().schedule_tiled(&m);
    let mut buf = Vec::new();
    write_tiled_schedule(&schedule, &mut buf).expect("write to vec");
    buf
}

/// Forges an intra-color write collision: copies one occupied cell's
/// `row_mod` over another cell of the same color, then re-checksums.
fn forge_collision(buf: &mut [u8], cells: &[common::Cell]) {
    let (a, b) = same_color_pair(cells);
    let row_mod = read_u32(buf, a.row_mod_off);
    write_u32(buf, b.row_mod_off, row_mod);
    fix_crc(buf);
}

#[test]
fn forged_write_collision_in_flat_container_is_rejected_as_audit() {
    let (_m, mut buf) = flat_container(1);
    let cells = flat_cells(&buf);
    forge_collision(&mut buf, &cells);

    let err = read_schedule(buf.as_slice()).expect_err("forged collision must not load");
    match &err {
        ReadScheduleError::Audit(report) => {
            assert!(!report.is_clean());
            let text = report.to_string();
            assert!(
                text.contains("write collision"),
                "report must name the collision: {text}"
            );
        }
        other => panic!("expected Audit rejection, got {other:?}"),
    }
}

#[test]
fn forged_out_of_bounds_column_in_banded_container_is_rejected() {
    let mut buf = banded_container(2);
    let cells = tiled_cells(&buf);
    let cell = cells[cells.len() / 2];
    // 24 columns; point the gather far outside the matrix (and hence
    // outside every band).
    write_u32(&mut buf, cell.col_off, 24 + 7);
    fix_crc(&mut buf);

    let err = read_tiled_schedule(buf.as_slice()).expect_err("forged column must not load");
    let ReadScheduleError::Audit(report) = &err else {
        panic!("expected Audit rejection, got {err:?}");
    };
    let text = report.to_string();
    assert!(
        text.contains("out of range") || text.contains("outside"),
        "report must locate the bad column: {text}"
    );
}

#[test]
fn forged_tiled_container_is_rejected_and_names_the_tile() {
    let mut buf = tiled_container(3);
    let cells = tiled_cells(&buf);
    forge_collision(&mut buf, &cells);
    let path = temp_path("gutl-forged", "gutl");
    std::fs::write(&path, &buf).expect("write forged file");

    let err = read_tiled_schedule_file(&path).expect_err("forged tile must not load");
    std::fs::remove_file(&path).ok();
    let ReadScheduleError::Audit(report) = &err else {
        panic!("expected Audit rejection, got {err:?}");
    };
    let text = report.to_string();
    assert!(
        text.contains("tile"),
        "violation must carry its tile: {text}"
    );
    assert!(
        text.contains("write collision"),
        "and the collision: {text}"
    );
}

fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gust-audit-{tag}-{}.{ext}", std::process::id()))
}

#[test]
fn verified_file_readers_issue_a_witness_for_clean_containers() {
    let (m, buf) = flat_container(4);
    let path = temp_path("clean-flat", "gust");
    std::fs::write(&path, &buf).expect("write file");
    let verified =
        gust::schedule::serialize::read_schedule_file_verified(&path).expect("clean file loads");
    std::fs::remove_file(&path).ok();
    // The witness derefs to the schedule and executes normally.
    assert_eq!(verified.rows(), m.rows());
    let x: Vec<f32> = (0..m.cols()).map(|i| i as f32).collect();
    let run = engine().execute(&verified, &x);
    assert_eq!(run.output.len(), m.rows());
}

/// The acceptance scenario end to end: a registry primed a disk cache,
/// the file is forged (CRC kept valid), and a fresh registry must
/// quarantine it, count the audit rejection, and transparently rebuild.
#[test]
fn registry_quarantines_forged_cache_counts_audit_reject_and_rebuilds() {
    let dir = std::env::temp_dir().join(format!("gust-audit-registry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let m = matrix(5);

    // Prime: first registry builds and writes the GUTL cache file.
    let primer = ScheduleRegistry::new(engine())
        .with_kind(ScheduleKind::Tiled)
        .with_cache_dir(&dir);
    let key = primer.insert(&m);
    assert!(matches!(primer.acquire(key), Ok(Acquired::Scheduled(_))));
    drop(primer);
    let cache_file = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "gutl"))
        .expect("primer must have written a .gutl cache file");

    // Forge a write collision; the file stays checksum-valid.
    let mut buf = std::fs::read(&cache_file).expect("read cache file");
    let cells = tiled_cells(&buf);
    forge_collision(&mut buf, &cells);
    std::fs::write(&cache_file, &buf).expect("write forged file");
    assert!(
        read_tiled_schedule(buf.as_slice()).is_err(),
        "sanity: the forge must trip the auditor"
    );

    // A fresh registry must reject, quarantine, and rebuild.
    let registry = ScheduleRegistry::new(engine())
        .with_kind(ScheduleKind::Tiled)
        .with_cache_dir(&dir);
    let key = registry.insert(&m);
    let acquired = registry.acquire(key).expect("matrix is registered");
    assert!(
        matches!(acquired, Acquired::Scheduled(_)),
        "serving must transparently rebuild past the forged cache"
    );
    let stats = registry.stats();
    assert_eq!(stats.audit_rejects, 1, "audit rejection must be counted");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(
        stats.disk_loads, 0,
        "the forged file must not count as a load"
    );
    assert_eq!(
        stats.rebuilds, 1,
        "rejection is a miss: rebuilt, not an error"
    );
    let quarantined = cache_file.with_extension("gutl.corrupt");
    assert!(
        quarantined.exists(),
        "forged evidence must be preserved at {}",
        quarantined.display()
    );
    assert_eq!(
        std::fs::read(&quarantined).expect("read quarantined file"),
        buf,
        "quarantine must preserve the forged bytes exactly"
    );

    // The rebuild overwrote the cache with a clean container.
    assert!(read_tiled_schedule_file(&cache_file).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_call_stays_correct_over_a_forged_cache() {
    let dir = std::env::temp_dir().join(format!("gust-audit-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let m = matrix(6);

    let primer = ScheduleRegistry::new(engine()).with_cache_dir(&dir);
    let key = primer.insert(&m);
    assert!(matches!(primer.acquire(key), Ok(Acquired::Scheduled(_))));
    drop(primer);
    let cache_file = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "gust"))
        .expect("primer must have written a .gust cache file");
    let mut buf = std::fs::read(&cache_file).expect("read cache file");
    let cells = flat_cells(&buf);
    forge_collision(&mut buf, &cells);
    std::fs::write(&cache_file, &buf).expect("write forged file");

    let registry = std::sync::Arc::new(ScheduleRegistry::new(engine()).with_cache_dir(&dir));
    let server = SpmvServer::start(std::sync::Arc::clone(&registry), ServeConfig::default());
    let key = server.register(&m);
    let x: Vec<f32> = (0..m.cols()).map(|i| ((i % 5) as f32) - 2.0).collect();
    let resp = server
        .call(0, key, x.clone())
        .expect("serving must survive the forgery");
    assert!(!resp.degraded, "rebuild must restore the fast path");
    let expected = m.spmv(&x);
    for (got, want) in resp.output.iter().zip(&expected) {
        assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
    }
    assert_eq!(registry.stats().audit_rejects, 1);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-byte corruption under a *repaired* checksum: the
    /// reader must never panic, and anything it accepts must pass the
    /// full audit — there is no byte position whose mutation yields an
    /// unaudited schedule. A no-op mutation (mask 0) must round-trip.
    #[test]
    fn checksum_valid_mutants_never_load_unaudited(
        seed in 0u64..8,
        pick in 0usize..1_000_000,
        mask in 0u32..256,
    ) {
        let mask = mask as u8;
        let (_m, clean) = flat_container(seed);
        let mut buf = clean.clone();
        let body = buf.len() - ENVELOPE - 4;
        let idx = ENVELOPE + pick % body;
        buf[idx] ^= mask;
        fix_crc(&mut buf);

        let outcome = catch_unwind(AssertUnwindSafe(|| read_schedule(buf.as_slice())));
        let result = match outcome {
            Ok(r) => r,
            Err(_) => {
                return Err(TestCaseError::fail(format!(
                    "reader panicked on checksum-valid mutant at byte {idx}"
                )))
            }
        };
        if mask == 0 {
            let back = result.expect("no-op mutation must load");
            prop_assert!(back.audit().is_clean());
        } else if let Ok(back) = result {
            // The flip was semantically harmless (value bytes, stall
            // counters, …) — it must still satisfy the full contract.
            prop_assert!(
                back.audit().is_clean(),
                "reader accepted a mutant the auditor rejects (byte {idx})"
            );
        }
    }

    /// Targeted forgery: pointing any occupied cell's column outside
    /// the matrix must be rejected (never a panic, never an accept).
    #[test]
    fn out_of_bounds_column_forgeries_are_always_rejected(
        seed in 0u64..8,
        pick in 0usize..1_000_000,
        excess in 0u32..1000,
    ) {
        let (m, clean) = flat_container(seed);
        let cells = flat_cells(&clean);
        let cell = cells[pick % cells.len()];
        let mut buf = clean;
        write_u32(&mut buf, cell.col_off, m.cols() as u32 + excess);
        fix_crc(&mut buf);
        let err = read_schedule(buf.as_slice());
        prop_assert!(err.is_err(), "out-of-bounds column accepted");
        prop_assert!(matches!(err, Err(ReadScheduleError::Audit(_))));
    }
}
