//! Scheduler equivalence: the multi-threaded flat pipeline must produce
//! bit-identical [`ScheduledMatrix`] contents to the sequential one, for
//! every scheduling policy and coloring algorithm, on every matrix family.
//! (Windows are independent by construction — §3.2 — and the parallel
//! merge is ordered, so any divergence is a bug, not a tolerance.)

use gust::prelude::*;
use gust::verify::audit_schedule_against;
use gust_repro::prelude::*;
use proptest::prelude::*;

/// The matrix families the property sweeps: the paper's uniform and
/// power-law synthetics plus a structured 5-point stencil.
#[derive(Debug, Clone, Copy)]
enum Family {
    Uniform,
    PowerLaw,
    Stencil,
}

fn family_matrix(family: Family, dim: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let coo = match family {
        Family::Uniform => gen::uniform(dim, dim, nnz, seed),
        Family::PowerLaw => gen::power_law(dim, dim, nnz, 1.9, seed),
        Family::Stencil => {
            // laplacian_2d is deterministic; vary the grid side with the
            // seed so cases differ.
            let grid = 6 + (seed % 10) as usize;
            gen::laplacian_2d(grid)
        }
    };
    CsrMatrix::from(&coo)
}

fn arb_family() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::Uniform),
        Just(Family::PowerLaw),
        Just(Family::Stencil),
    ]
}

fn configs(l: usize) -> Vec<GustConfig> {
    let mut configs = vec![GustConfig::new(l).with_policy(SchedulingPolicy::Naive)];
    for policy in [
        SchedulingPolicy::EdgeColoring,
        SchedulingPolicy::EdgeColoringLb,
    ] {
        for algo in [
            ColoringAlgorithm::Verbatim,
            ColoringAlgorithm::Grouped,
            ColoringAlgorithm::Konig,
        ] {
            configs.push(GustConfig::new(l).with_policy(policy).with_coloring(algo));
        }
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical `ScheduledMatrix` (slots, color counts, stalls, row
    /// permutation) for 1, 2, 3 and 7 workers, across all three coloring
    /// algorithms and all three policies.
    #[test]
    fn parallel_scheduling_matches_sequential(
        family in arb_family(),
        dim in 40usize..160,
        density_ppm in 5_000u64..60_000,
        l in 2usize..33,
        seed in 0u64..1_000,
    ) {
        let nnz = ((dim * dim) as u64 * density_ppm / 1_000_000).max(8) as usize;
        let matrix = family_matrix(family, dim, nnz, seed);
        for config in configs(l) {
            let sequential = Gust::new(config.clone().with_parallelism(Some(1)))
                .schedule(&matrix);
            let r = audit_schedule_against(&sequential, &matrix);
            prop_assert!(r.is_clean(), "{r}");
            prop_assert_eq!(sequential.nnz(), matrix.nnz());
            for threads in [2usize, 3, 7] {
                let parallel = Gust::new(config.clone().with_parallelism(Some(threads)))
                    .schedule(&matrix);
                prop_assert_eq!(
                    &parallel,
                    &sequential,
                    "{:?}/{:?} diverged at {} threads",
                    config.policy(),
                    config.coloring(),
                    threads
                );
            }
        }
    }

    /// The auto setting (`parallelism: None`) also matches, whatever the
    /// host's core count is.
    #[test]
    fn auto_parallelism_matches_sequential(
        family in arb_family(),
        seed in 0u64..100,
    ) {
        let matrix = family_matrix(family, 96, 1400, seed);
        let config = GustConfig::new(16);
        let sequential = Gust::new(config.clone().with_parallelism(Some(1))).schedule(&matrix);
        let auto = Gust::new(config).schedule(&matrix);
        prop_assert_eq!(auto, sequential);
    }
}

/// The satellite's big-matrix gate: ≥100k non-zeros, scheduled with every
/// coloring algorithm at several thread counts, validated slot-by-slot
/// against the source matrix and against the sequential result.
#[test]
fn large_matrix_parallel_schedule_validates() {
    let matrix = CsrMatrix::from(&gen::uniform(4096, 4096, 120_000, 42));
    assert!(matrix.nnz() >= 100_000, "want a >=100k-nnz matrix");
    for algo in [
        ColoringAlgorithm::Verbatim,
        ColoringAlgorithm::Grouped,
        ColoringAlgorithm::Konig,
    ] {
        let config = GustConfig::new(64).with_coloring(algo);
        let sequential = Gust::new(config.clone().with_parallelism(Some(1))).schedule(&matrix);
        let r = audit_schedule_against(&sequential, &matrix);
        assert!(r.is_clean(), "{r}");
        let parallel = Gust::new(config.with_parallelism(Some(8))).schedule(&matrix);
        let r = audit_schedule_against(&parallel, &matrix);
        assert!(r.is_clean(), "{r}");
        assert_eq!(parallel, sequential, "{algo:?}");
        assert_eq!(parallel.total_colors(), sequential.total_colors());
    }
}
