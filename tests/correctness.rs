//! Cross-crate correctness: every scheduler × every generator family ⇒ the
//! GUST engine computes the same `y = A·x` as the reference CSR kernel, and
//! every baseline accelerator does too.

use gust::prelude::*;
use gust::verify::audit_schedule_against;
use gust_accel::prelude::*;
use gust_repro::prelude::*;

fn vector(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (seed << 7);
            ((h % 2000) as f32) / 1000.0 - 1.0
        })
        .collect()
}

fn generator_zoo(seed: u64) -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("uniform", CsrMatrix::from(&gen::uniform(60, 60, 400, seed))),
        (
            "power-law",
            CsrMatrix::from(&gen::power_law(60, 60, 500, 1.8, seed)),
        ),
        (
            "k-regular",
            CsrMatrix::from(&gen::k_regular(60, 60, 6, seed)),
        ),
        (
            "banded",
            CsrMatrix::from(&gen::banded(60, 60, 5, 300, seed)),
        ),
        (
            "blocks",
            CsrMatrix::from(&gen::block_diagonal(60, 60, 10, 350, seed)),
        ),
        (
            "circuit",
            CsrMatrix::from(&gen::circuit_like(60, 60, 240, seed)),
        ),
        ("rmat", CsrMatrix::from(&gen::rmat(64, 64, 450, seed))),
        ("mycielskian", CsrMatrix::from(&gen::mycielskian(6, seed))),
    ]
}

#[test]
fn gust_matches_reference_for_all_policies_and_generators() {
    for seed in 0..3 {
        for (_name, matrix) in generator_zoo(seed) {
            let x = vector(matrix.cols(), seed);
            let expected = reference_spmv(&matrix, &x);
            for policy in [
                SchedulingPolicy::Naive,
                SchedulingPolicy::EdgeColoring,
                SchedulingPolicy::EdgeColoringLb,
            ] {
                let gust = Gust::new(GustConfig::new(16).with_policy(policy));
                let schedule = gust.schedule(&matrix);
                let r = audit_schedule_against(&schedule, &matrix);
                assert!(r.is_clean(), "{r}");
                let run = gust.execute(&schedule, &x);
                assert_vectors_close(&run.output, &expected, 1e-3);
            }
        }
    }
}

#[test]
fn gust_matches_reference_for_all_coloring_algorithms() {
    for (name, matrix) in generator_zoo(7) {
        let x = vector(matrix.cols(), 9);
        let expected = reference_spmv(&matrix, &x);
        for algo in [
            ColoringAlgorithm::Verbatim,
            ColoringAlgorithm::Grouped,
            ColoringAlgorithm::Konig,
        ] {
            let gust = Gust::new(GustConfig::new(8).with_coloring(algo));
            let run = gust.spmv(&matrix, &x);
            assert_vectors_close(&run.output, &expected, 1e-3);
            let _ = name;
        }
    }
}

#[test]
fn all_baselines_match_reference() {
    for (name, matrix) in generator_zoo(11) {
        let x = vector(matrix.cols(), 3);
        let expected = reference_spmv(&matrix, &x);
        let runs: Vec<(&str, AccelRun)> = vec![
            ("1d", Systolic1d::new(16).execute(&matrix, &x)),
            ("at", AdderTree::new(16).execute(&matrix, &x)),
            ("ftpu", FlexTpu::with_grid(4).execute(&matrix, &x)),
            ("fafnir", Fafnir::new(16).execute(&matrix, &x)),
            ("serpens", Serpens::new().execute(&matrix, &x)),
        ];
        for (design, run) in runs {
            assert_vectors_close(&run.output, &expected, 1e-3);
            assert!(run.report.cycles > 0, "{design} on {name}");
        }
    }
}

#[test]
fn gust_lengths_sweep_correctly() {
    let matrix = CsrMatrix::from(&gen::uniform(100, 80, 700, 21));
    let x = vector(80, 5);
    let expected = reference_spmv(&matrix, &x);
    for l in [1usize, 2, 3, 7, 8, 16, 64, 87, 128, 256] {
        let run = Gust::new(GustConfig::new(l)).spmv(&matrix, &x);
        assert_vectors_close(&run.output, &expected, 1e-3);
    }
}

#[test]
fn matrices_wider_and_taller_than_length() {
    let x = vector(300, 1);
    // Wide: many column segments per lane.
    let wide = CsrMatrix::from(&gen::uniform(20, 300, 800, 2));
    let run = Gust::new(GustConfig::new(8)).spmv(&wide, &x);
    assert_vectors_close(&run.output, &reference_spmv(&wide, &x), 1e-3);
    // Tall: many windows.
    let tall = CsrMatrix::from(&gen::uniform(300, 20, 800, 3));
    let run = Gust::new(GustConfig::new(8)).spmv(&tall, &vector(20, 4));
    assert_vectors_close(&run.output, &reference_spmv(&tall, &vector(20, 4)), 1e-3);
}

#[test]
fn schedule_reuse_is_bitwise_stable() {
    // The same schedule must produce identical outputs across calls — the
    // amortization claim depends on it.
    let matrix = CsrMatrix::from(&gen::power_law(128, 128, 900, 2.0, 31));
    let gust = Gust::new(GustConfig::new(32));
    let schedule = gust.schedule(&matrix);
    let x = vector(128, 8);
    let a = gust.execute(&schedule, &x);
    let b = gust.execute(&schedule, &x);
    assert_eq!(a.output, b.output);
    assert_eq!(a.report, b.report);
}

#[test]
fn singleton_and_degenerate_shapes() {
    // 1x1 matrix.
    let m = CsrMatrix::identity(1);
    let run = Gust::new(GustConfig::new(4)).spmv(&m, &[2.5]);
    assert_eq!(run.output, vec![2.5]);
    // Length-1 GUST (fully serial).
    let m = CsrMatrix::from(&gen::uniform(10, 10, 30, 5));
    let x = vector(10, 6);
    let run = Gust::new(GustConfig::new(1)).spmv(&m, &x);
    assert_vectors_close(&run.output, &reference_spmv(&m, &x), 1e-3);
    assert_eq!(run.report.cycles, 30 + 2, "serial GUST issues 1 nnz/cycle");
}
