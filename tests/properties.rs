//! Property-based tests (proptest) over the core invariants:
//! schedule validity, engine correctness, coloring bounds, format
//! round-trips and load-balancer permutation properties.

use gust::prelude::*;
use gust::schedule::windows::WindowPlan;
use gust::verify::audit_schedule_against;
use gust_repro::prelude::*;
use proptest::prelude::*;

/// Strategy: a random sparse matrix as (rows, cols, triplets).
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..40, 2usize..40)
        .prop_flat_map(|(rows, cols)| {
            let max_nnz = (rows * cols).min(200);
            let coords = proptest::collection::hash_set((0..rows, 0..cols), 0..max_nnz);
            (Just(rows), Just(cols), coords)
        })
        .prop_map(|(rows, cols, coords)| {
            let mut coo = CooMatrix::new(rows, cols);
            for (i, (r, c)) in coords.into_iter().enumerate() {
                // Deterministic non-zero values derived from position.
                let v = ((i % 17) as f32 - 8.0) / 4.0;
                let v = if v == 0.0 { 0.5 } else { v };
                coo.push(r, c, v).expect("in bounds");
            }
            CsrMatrix::from(&coo)
        })
}

fn arb_length() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 2usize..12, Just(16usize), Just(32usize)]
}

fn arb_vector(cols: usize) -> Vec<f32> {
    (0..cols)
        .map(|i| ((i * 37 + 11) % 23) as f32 / 7.0 - 1.5)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy produces a valid, complete, collision-free schedule.
    #[test]
    fn schedules_are_valid(matrix in arb_matrix(), l in arb_length()) {
        for policy in [
            SchedulingPolicy::Naive,
            SchedulingPolicy::EdgeColoring,
            SchedulingPolicy::EdgeColoringLb,
        ] {
            let schedule = Gust::new(GustConfig::new(l).with_policy(policy)).schedule(&matrix);
            let r = audit_schedule_against(&schedule, &matrix);
            prop_assert!(r.is_clean(), "{r}");
        }
    }

    /// The engine computes the reference SpMV for arbitrary matrices.
    #[test]
    fn engine_matches_reference(matrix in arb_matrix(), l in arb_length()) {
        let x = arb_vector(matrix.cols());
        let expected = reference_spmv(&matrix, &x);
        let run = Gust::new(GustConfig::new(l)).spmv(&matrix, &x);
        let err = max_relative_error(&run.output, &expected);
        prop_assert!(err < 1e-3, "relative error {err}");
    }

    /// The structural Fig. 2 pipeline agrees with the fast engine exactly.
    #[test]
    fn pipeline_equals_fast_engine(matrix in arb_matrix(), l in 2usize..10) {
        let x = arb_vector(matrix.cols());
        let gust = Gust::new(GustConfig::new(l));
        let schedule = gust.schedule(&matrix);
        let fast = gust.execute(&schedule, &x);
        let (out, report) = gust::hw::GustPipeline::run(&schedule, &x, 96.0e6);
        prop_assert_eq!(out, fast.output);
        prop_assert_eq!(report.cycles, fast.report.cycles);
    }

    /// Kőnig always achieves the Eq. 1 bound; greedy never beats it.
    #[test]
    fn coloring_respects_vizing_bound(matrix in arb_matrix(), l in 2usize..12) {
        let konig = Gust::new(GustConfig::new(l).with_coloring(ColoringAlgorithm::Konig))
            .schedule(&matrix);
        prop_assert_eq!(konig.total_colors(), konig.total_vizing_bound());
        let greedy = Gust::new(GustConfig::new(l).with_coloring(ColoringAlgorithm::Grouped))
            .schedule(&matrix);
        prop_assert!(greedy.total_colors() >= greedy.total_vizing_bound());
        // Naive is never better than the colored schedule.
        let naive = Gust::new(GustConfig::new(l).with_policy(SchedulingPolicy::Naive))
            .schedule(&matrix);
        prop_assert!(naive.total_colors() >= konig.total_vizing_bound());
    }

    /// Load balancing permutes rows (no row lost or duplicated) and never
    /// changes the schedule's nnz.
    #[test]
    fn load_balance_is_a_permutation(matrix in arb_matrix(), l in 1usize..12) {
        let plan = WindowPlan::new(&matrix, l, true);
        let mut perm = plan.row_perm().to_vec();
        perm.sort_unstable();
        let expected: Vec<u32> = (0..matrix.rows() as u32).collect();
        prop_assert_eq!(perm, expected);
        let covered: usize = (0..plan.window_count())
            .map(|w| plan.window(&matrix, w).nnz())
            .sum();
        prop_assert_eq!(covered, matrix.nnz());
    }

    /// Format conversions round-trip: COO -> CSR -> CSC -> CSR -> COO.
    #[test]
    fn format_round_trips(matrix in arb_matrix()) {
        let csc = CscMatrix::from(&matrix);
        let back = CsrMatrix::from(&csc);
        prop_assert_eq!(&back, &matrix);
        let coo = matrix.to_coo();
        prop_assert_eq!(CsrMatrix::from(&coo), matrix);
    }

    /// All formats compute the same SpMV.
    #[test]
    fn formats_agree_on_spmv(matrix in arb_matrix()) {
        let x = arb_vector(matrix.cols());
        let via_csr = matrix.spmv(&x);
        let via_csc = CscMatrix::from(&matrix).spmv(&x);
        let via_coo = matrix.to_coo().spmv(&x);
        prop_assert!(max_relative_error(&via_csr, &via_csc) < 1e-4);
        prop_assert!(max_relative_error(&via_csr, &via_coo) < 1e-4);
    }

    /// Matrix Market writing and re-reading preserves the matrix.
    #[test]
    fn matrix_market_round_trips(matrix in arb_matrix()) {
        let coo = matrix.to_coo();
        let mut buf = Vec::new();
        gust_sparse::io::write_matrix_market(&coo, &mut buf).expect("write to vec");
        let back = gust_sparse::io::read_matrix_market(buf.as_slice()).expect("parse own output");
        prop_assert_eq!(CsrMatrix::from(&back), matrix);
    }

    /// Serialization round-trips arbitrary schedules bit-exactly.
    #[test]
    fn schedule_serialization_round_trips(matrix in arb_matrix(), l in 1usize..10) {
        use gust::schedule::serialize::{read_schedule, write_schedule};
        for policy in [SchedulingPolicy::Naive, SchedulingPolicy::EdgeColoringLb] {
            let schedule = Gust::new(GustConfig::new(l).with_policy(policy)).schedule(&matrix);
            let mut buf = Vec::new();
            write_schedule(&schedule, &mut buf).expect("write to vec");
            let back = read_schedule(buf.as_slice()).expect("read own output");
            prop_assert_eq!(back, schedule);
        }
    }

    /// `update_values` with the same matrix is an identity, and with scaled
    /// values produces a schedule computing the scaled SpMV.
    #[test]
    fn update_values_is_consistent(matrix in arb_matrix(), l in 1usize..10) {
        let gust = Gust::new(GustConfig::new(l));
        let mut schedule = gust.schedule(&matrix);
        let original = schedule.clone();
        schedule.update_values(&matrix);
        prop_assert_eq!(&schedule, &original);

        // Double every value through COO and refresh.
        let doubled = CsrMatrix::from(&CooMatrix::from_triplets(
            matrix.rows(),
            matrix.cols(),
            matrix.iter().map(|(r, c, v)| (r, c, v * 2.0)),
        ).expect("same pattern"));
        schedule.update_values(&doubled);
        let x = arb_vector(matrix.cols());
        let run = gust.execute(&schedule, &x);
        let expected = reference_spmv(&doubled, &x);
        prop_assert!(max_relative_error(&run.output, &expected) < 1e-3);
    }

    /// Batch execution over a flat column-major panel equals
    /// column-by-column SpMM.
    #[test]
    fn batch_execution_matches_spmm(matrix in arb_matrix(), l in 2usize..10) {
        use gust_sparse::spmm::spmm_by_columns;
        use gust_sparse::DenseMatrix;
        let cols = matrix.cols();
        let rows = matrix.rows();
        let b_cols = 3usize;
        let data: Vec<f32> = (0..cols * b_cols).map(|i| ((i % 11) as f32) / 3.0 - 1.5).collect();
        let b = DenseMatrix::from_row_major(cols, b_cols, data);
        let gust = Gust::new(GustConfig::new(l));
        let schedule = gust.schedule(&matrix);
        // Column-major panel: vector j occupies panel[j*cols..(j+1)*cols].
        let mut panel: Vec<f32> = Vec::with_capacity(cols * b_cols);
        for j in 0..b_cols {
            panel.extend((0..cols).map(|i| b.get(i, j)));
        }
        let (outputs, report) = gust.execute_batch(&schedule, &panel, b_cols);
        prop_assert_eq!(outputs.len(), rows * b_cols);
        prop_assert_eq!(report.nnz_processed, (b_cols * matrix.nnz()) as u64);
        let expected = spmm_by_columns(&matrix, &b);
        for (j, want) in expected.iter().enumerate() {
            let got = &outputs[j * rows..(j + 1) * rows];
            prop_assert!(max_relative_error(got, want) < 1e-3);
        }
    }

    /// Schedule statistics are internally consistent.
    #[test]
    fn schedule_stats_invariants(matrix in arb_matrix(), l in 1usize..10) {
        use gust::schedule::stats::ScheduleStats;
        let schedule = Gust::new(GustConfig::new(l)).schedule(&matrix);
        let stats = ScheduleStats::from_schedule(&schedule);
        prop_assert_eq!(stats.total_colors, schedule.total_colors());
        prop_assert!(stats.mean_occupancy >= 0.0 && stats.mean_occupancy <= 1.0);
        if let Some(slack) = stats.slack_over_bound() {
            prop_assert!(slack >= 0.0, "colors can never beat the bound");
        }
        prop_assert!(u64::from(stats.max_colors) <= stats.total_colors.max(1));
        prop_assert!(stats.heavy_window_share >= 0.0 && stats.heavy_window_share <= 1.0);
    }

    /// Cycle counts: EC <= naive; konig <= grouped; all >= vizing bound;
    /// engine cycles == colors + 2.
    #[test]
    fn cycle_count_ordering(matrix in arb_matrix(), l in 2usize..10) {
        let x = arb_vector(matrix.cols());
        let mk = |policy| {
            let gust = Gust::new(GustConfig::new(l).with_policy(policy));
            let schedule = gust.schedule(&matrix);
            let run = gust.execute(&schedule, &x);
            let expected = match schedule.total_colors() {
                0 => 0, // an empty schedule never starts the pipeline
                c => c + 2,
            };
            prop_assert_eq!(run.report.cycles, expected);
            Ok(schedule.total_colors())
        };
        let naive = mk(SchedulingPolicy::Naive)?;
        let ec = mk(SchedulingPolicy::EdgeColoring)?;
        prop_assert!(ec <= naive, "EC {ec} must not exceed naive {naive}");
    }
}
