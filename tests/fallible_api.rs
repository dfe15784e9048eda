//! The fallible engine API: every `try_*` entry point reports malformed
//! input as a [`GustError`] value — never a panic — while the panicking
//! twins keep their historical messages (they now delegate to the
//! `try_*` path and `panic!` with its Display string).

use gust::prelude::*;
use gust::schedule::serialize::{read_schedule_file, ReadScheduleError};
use gust_sparse::prelude::*;
use gust_sparse::SparseError;

fn setup() -> (CsrMatrix, Gust, ScheduledMatrix, Vec<f32>) {
    let m = CsrMatrix::from(&gen::uniform(24, 20, 100, 3));
    let gust = Gust::new(GustConfig::new(4));
    let schedule = gust.schedule(&m);
    let x: Vec<f32> = (0..20).map(|i| (i % 7) as f32 - 3.0).collect();
    (m, gust, schedule, x)
}

#[test]
fn try_execute_rejects_shape_mismatches_as_values() {
    let (_, gust, schedule, x) = setup();

    // Wrong engine length.
    let other = Gust::new(GustConfig::new(8));
    let e = other.try_execute(&schedule, &x).unwrap_err();
    assert!(matches!(
        e,
        GustError::LengthMismatch {
            schedule: 4,
            engine: 8
        }
    ));
    assert!(e
        .to_string()
        .contains("schedule was produced for a different GUST length"));

    // Wrong input length.
    let e = gust.try_execute(&schedule, &x[..10]).unwrap_err();
    assert!(matches!(
        e,
        GustError::InputLength {
            got: 10,
            expected: 20
        }
    ));
    assert!(e.to_string().contains("input vector length mismatch"));

    // Instrumented twin takes the same validation path.
    assert!(gust.try_execute_instrumented(&schedule, &x[..10]).is_err());
}

#[test]
fn try_execute_matches_the_panicking_twin_bit_for_bit() {
    let (m, gust, schedule, x) = setup();
    let fallible = gust.try_execute(&schedule, &x).expect("valid shapes");
    let panicking = gust.execute(&schedule, &x);
    assert_eq!(fallible.output, panicking.output);
    assert_eq!(fallible.report, panicking.report);

    let via_spmv = gust.try_spmv(&m, &x).expect("valid shapes");
    assert_eq!(via_spmv.output, panicking.output);
}

#[test]
fn try_spmv_validates_before_scheduling() {
    let (m, gust, _, _) = setup();
    let short = vec![0.0f32; 3];
    let e = gust.try_spmv(&m, &short).unwrap_err();
    assert!(matches!(
        e,
        GustError::InputLength {
            got: 3,
            expected: 20
        }
    ));
}

#[test]
fn try_execute_batch_rejects_empty_and_misshapen_panels() {
    let (_, gust, schedule, x) = setup();

    let e = gust.try_execute_batch(&schedule, &x, 0).unwrap_err();
    assert!(matches!(e, GustError::EmptyBatch));
    assert!(e
        .to_string()
        .contains("batch must contain at least one vector"));

    // Panel one value short of cols × batch.
    let panel = vec![1.0f32; 20 * 3 - 1];
    let e = gust.try_execute_batch(&schedule, &panel, 3).unwrap_err();
    assert!(matches!(
        e,
        GustError::PanelShape {
            got: 59,
            cols: 20,
            batch: 3
        }
    ));
    assert!(e
        .to_string()
        .contains("panel must hold batch × cols values (column-major)"));

    // An overflowing cols × batch is a shape error, not a crash.
    let e = gust
        .try_execute_batch(&schedule, &panel, usize::MAX)
        .unwrap_err();
    assert!(matches!(e, GustError::PanelShape { .. }));
}

#[test]
fn try_batch_matches_the_panicking_twin_bit_for_bit() {
    let (_, gust, schedule, x) = setup();
    let batch = 5usize;
    let mut panel = Vec::with_capacity(20 * batch);
    for j in 0..batch {
        panel.extend(x.iter().map(|&v| v + j as f32));
    }
    let (y_try, r_try) = gust
        .try_execute_batch(&schedule, &panel, batch)
        .expect("valid shapes");
    let (y, r) = gust.execute_batch(&schedule, &panel, batch);
    assert_eq!(y_try, y);
    assert_eq!(r_try, r);
}

#[test]
fn panicking_twins_keep_their_historical_messages() {
    let (_, gust, schedule, x) = setup();
    let other = Gust::new(GustConfig::new(8));

    let panics_with = |f: Box<dyn Fn() + '_>, needle: &str| {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .unwrap_or_else(|| panic!("expected a panic containing {needle:?}"));
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            message.contains(needle),
            "panic message {message:?} must contain {needle:?}"
        );
    };

    panics_with(
        Box::new(|| {
            let _ = other.execute(&schedule, &x);
        }),
        "schedule was produced for a different GUST length",
    );
    panics_with(
        Box::new(|| {
            let _ = gust.execute(&schedule, &x[..4]);
        }),
        "input vector length mismatch",
    );
    panics_with(
        Box::new(|| {
            let _ = gust.execute_batch(&schedule, &x, 0);
        }),
        "batch must contain at least one vector",
    );
    panics_with(
        Box::new(|| {
            let _ = gust.execute_batch(&schedule, &x[..19], 1);
        }),
        "panel must hold batch × cols values (column-major)",
    );
}

/// One error type end to end: a pipeline that loads a matrix, loads or
/// rebuilds a schedule, and executes — all through `?` on [`GustError`].
#[test]
fn gust_error_composes_loading_and_execution() {
    fn pipeline(
        cache: &std::path::Path,
        schedule_path: &std::path::Path,
        x: &[f32],
    ) -> Result<Vec<f32>, GustError> {
        let _matrix: CsrMatrix = gust_sparse::io::read_bin_file(cache)?;
        let gust = Gust::new(GustConfig::new(4));
        let schedule = read_schedule_file(schedule_path)?;
        Ok(gust.try_execute(&schedule, x)?.output)
    }

    let dir = std::env::temp_dir().join(format!(
        "gust-fallible-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache = dir.join("m.gspb");
    let sched = dir.join("m.gust");

    let (m, gust, schedule, x) = setup();
    gust_sparse::io::write_bin_file(&m, &cache).expect("write cache");
    gust::schedule::serialize::write_schedule_file(&schedule, &sched).expect("write schedule");

    let y = pipeline(&cache, &sched, &x).expect("clean artifacts");
    assert_eq!(y, gust.execute(&schedule, &x).output);

    // Damage the schedule: the pipeline reports Corrupt through the one
    // error type instead of panicking.
    let mut bytes = std::fs::read(&sched).expect("read schedule");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&sched, &bytes).expect("damage schedule");
    match pipeline(&cache, &sched, &x) {
        Err(GustError::Schedule(ReadScheduleError::Corrupt(_))) => {}
        other => panic!("expected Schedule(Corrupt), got {other:?}"),
    }

    // Damage the matrix cache the same way.
    let mut bytes = std::fs::read(&cache).expect("read cache");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&cache, &bytes).expect("damage cache");
    match pipeline(&cache, &sched, &x) {
        Err(GustError::Sparse(SparseError::Corrupt(_))) => {}
        other => panic!("expected Sparse(Corrupt), got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
