//! Byte-level robustness of the on-disk formats: every reader must
//! survive **arbitrary truncation** and **every single-bit flip** of a
//! valid stream without panicking, reporting the damage as a typed
//! error — [`gust_sparse::SparseError::Corrupt`] / `ParseError` for the
//! GSPB matrix cache, [`ReadScheduleError::Corrupt`] / `Format` for the
//! `GUST` schedule container — and the cached loaders
//! must quarantine a damaged cache and transparently rebuild from
//! source.

use gust::schedule::serialize::{read_schedule, write_schedule, ReadScheduleError};
use gust::{Gust, GustConfig};
use gust_sparse::io::{
    read_bin, read_matrix_market, read_matrix_market_cached, write_bin, write_matrix_market,
};
use gust_sparse::prelude::*;
use gust_sparse::SparseError;

fn sample_matrix() -> CsrMatrix {
    CsrMatrix::from(&gen::uniform(12, 10, 40, 42))
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gust-corruption-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts `result` is a "damaged stream" error: `Corrupt` (it was a
/// valid artifact once) or `ParseError` (the damage hit the framing).
fn assert_bin_rejects(result: Result<CsrMatrix, SparseError>, context: &str) {
    match result {
        Err(SparseError::Corrupt(_) | SparseError::ParseError { .. }) => {}
        Err(other) => panic!("{context}: expected Corrupt/ParseError, got {other:?}"),
        Ok(_) => panic!("{context}: damaged stream was accepted"),
    }
}

#[test]
fn gspb_survives_every_truncation() {
    let m = sample_matrix();
    let mut bytes = Vec::new();
    write_bin(&m, &mut bytes).expect("serialize");
    assert_eq!(read_bin(bytes.as_slice()).expect("round trip"), m);

    for cut in 0..bytes.len() {
        assert_bin_rejects(read_bin(&bytes[..cut]), &format!("truncated at {cut}"));
    }
}

#[test]
fn gspb_detects_every_single_bit_flip() {
    let m = sample_matrix();
    let mut bytes = Vec::new();
    write_bin(&m, &mut bytes).expect("serialize");

    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert_bin_rejects(
                read_bin(damaged.as_slice()),
                &format!("bit {bit} of byte {byte} flipped"),
            );
        }
    }
}

#[test]
fn matrix_market_text_never_panics_on_damage() {
    let coo = gen::uniform(9, 9, 25, 7);
    let mut text = Vec::new();
    write_matrix_market(&coo, &mut text).expect("serialize");
    assert_eq!(
        CsrMatrix::from(&read_matrix_market(text.as_slice()).expect("round trip")),
        CsrMatrix::from(&coo)
    );

    // Text is forgiving — a flip inside a numeric literal can still
    // parse — so the property here is weaker but still load-bearing:
    // no panic, and any rejection is a ParseError (not a structural
    // crash deeper in the constructors).
    for cut in 0..text.len() {
        match read_matrix_market(&text[..cut]) {
            Ok(_) | Err(SparseError::ParseError { .. }) => {}
            Err(other) => panic!("truncated at {cut}: unexpected error {other:?}"),
        }
    }
    for byte in 0..text.len() {
        for bit in 0..8 {
            let mut damaged = text.clone();
            damaged[byte] ^= 1 << bit;
            match read_matrix_market(damaged.as_slice()) {
                Ok(_) | Err(SparseError::ParseError { .. }) => {}
                Err(
                    e @ (SparseError::IndexOutOfBounds { .. } | SparseError::DuplicateEntry { .. }),
                ) => {
                    // A flipped index digit can move an entry onto
                    // another or past the declared shape — both typed,
                    // both fine.
                    let _ = e;
                }
                Err(other) => {
                    panic!("bit {bit} of byte {byte}: unexpected error {other:?}")
                }
            }
        }
    }
}

/// Asserts `result` is a typed schedule-damage error.
fn assert_schedule_rejects<T>(result: Result<T, ReadScheduleError>, context: &str) {
    match result {
        Err(ReadScheduleError::Corrupt(_) | ReadScheduleError::Format(_)) => {}
        Err(other) => panic!("{context}: expected Corrupt/Format, got {other:?}"),
        Ok(_) => panic!("{context}: damaged stream was accepted"),
    }
}

#[test]
fn schedule_containers_survive_truncation_and_bit_flips() {
    let m = sample_matrix();
    let gust = Gust::new(GustConfig::new(4));
    let flat = gust.schedule(&m);

    let mut flat_bytes = Vec::new();
    write_schedule(&flat, &mut flat_bytes).expect("serialize flat");

    assert_eq!(read_schedule(flat_bytes.as_slice()).expect("flat"), flat);

    for cut in 0..flat_bytes.len() {
        assert_schedule_rejects(
            read_schedule(&flat_bytes[..cut]),
            &format!("flat truncated at {cut}"),
        );
    }

    // Single-bit flips: the CRC32 trailer catches every payload flip;
    // framing flips fall out as Format.
    for byte in 0..flat_bytes.len() {
        for bit in 0..8 {
            let mut damaged = flat_bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert_schedule_rejects(
                read_schedule(damaged.as_slice()),
                &format!("flat bit {bit} of byte {byte}"),
            );
        }
    }
}

/// End to end: a corrupt matrix cache is quarantined, the loader falls
/// back to the Matrix Market source, and the engine's result over the
/// rebuilt matrix is exactly the result over a never-corrupted load.
#[test]
fn corrupt_cache_quarantine_is_transparent_to_execution() {
    let dir = scratch("quarantine");
    let mtx = dir.join("m.mtx");
    let coo = gen::uniform(20, 20, 90, 11);
    let mut text = Vec::new();
    write_matrix_market(&coo, &mut text).expect("serialize");
    std::fs::write(&mtx, &text).expect("write source");

    let clean = read_matrix_market_cached(&mtx).expect("first load");
    let gust = Gust::new(GustConfig::new(4));
    let x: Vec<f32> = (0..20).map(|i| (i % 5) as f32 - 2.0).collect();
    let baseline = gust.execute(&gust.schedule(&clean), &x);

    // Flip one payload byte in the cache the first load wrote.
    let cache = dir.join("m.mtx.gspb");
    let mut bytes = std::fs::read(&cache).expect("cache exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&cache, &bytes).expect("damage cache");

    let reloaded = read_matrix_market_cached(&mtx).expect("fallback load");
    assert_eq!(reloaded, clean, "fallback must rebuild the same matrix");
    assert!(
        dir.join("m.mtx.gspb.corrupt").is_file(),
        "damaged cache must be quarantined, not deleted silently"
    );
    let rerun = gust.execute(&gust.schedule(&reloaded), &x);
    assert_eq!(
        rerun.output, baseline.output,
        "execution over the rebuilt matrix must be bit-identical"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// N threads race [`read_matrix_market_cached`] on the **same** corrupt
/// cache file: every thread must come back with the correct matrix
/// (quarantine-and-rebuild is not allowed to make *any* racer fail or
/// observe a torn cache), the damaged bytes must land in quarantine,
/// and the cache left behind must be intact. The final point is what
/// the unique-temp-sibling atomic write guarantees: concurrent
/// rebuilders rewriting the same destination never truncate each
/// other's in-flight temp file.
#[test]
fn racing_loaders_on_one_corrupt_cache_all_recover() {
    let dir = scratch("cache-race");
    let coo = gen::uniform(20, 20, 80, 77);
    let mtx = dir.join("m.mtx");
    let mut text = Vec::new();
    write_matrix_market(&coo, &mut text).expect("serialize");
    std::fs::write(&mtx, &text).expect("write source");

    let clean = read_matrix_market_cached(&mtx).expect("first load");
    let cache = dir.join("m.mtx.gspb");
    let mut bytes = std::fs::read(&cache).expect("cache exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&cache, &bytes).expect("damage cache");

    const RACERS: usize = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let mtx = &mtx;
                let clean = &clean;
                scope.spawn(move || {
                    let loaded = read_matrix_market_cached(mtx).expect("racing load must succeed");
                    assert_eq!(&loaded, clean, "every racer must get the real matrix");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("racer thread");
        }
    });

    // The corrupt bytes were quarantined (one racer wins the rename;
    // losers fall through to the source, which is equally correct).
    assert!(
        dir.read_dir()
            .expect("scratch dir")
            .filter_map(Result::ok)
            .any(|e| e
                .file_name()
                .to_string_lossy()
                .starts_with("m.mtx.gspb.corrupt")),
        "damaged cache must be quarantined, not deleted silently"
    );
    // Whatever cache the racers left behind is intact and fresh: one
    // more load must be able to trust it.
    let reloaded = read_matrix_market_cached(&mtx).expect("post-race load");
    assert_eq!(reloaded, clean, "post-race cache must be intact");
    // And no racer leaked a temp sibling.
    assert!(
        !dir.read_dir()
            .expect("scratch dir")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp")),
        "atomic writers must clean up their temp files"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
