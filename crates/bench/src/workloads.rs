//! Workload acquisition for the experiment runners.

use gust_sparse::{gen, suite, CsrMatrix};

/// Reads the `GUST_SCALE` environment variable (0 < s ≤ 1), falling back
/// to `default`. Scale shrinks matrix dimensions by `s` and non-zeros by
/// `s²`; `GUST_SCALE=1` reproduces the paper's sizes.
///
/// # Panics
///
/// Panics if the variable is set but not a number in `(0, 1]`.
#[must_use]
pub fn env_scale(default: f64) -> f64 {
    match std::env::var("GUST_SCALE") {
        Ok(raw) => {
            let s: f64 = raw
                .parse()
                .unwrap_or_else(|_| panic!("GUST_SCALE must be a number, got '{raw}'"));
            assert!(s > 0.0 && s <= 1.0, "GUST_SCALE must be in (0, 1], got {s}");
            s
        }
        Err(_) => default,
    }
}

/// Deterministic input vector with non-trivial values in `[-1, 1)`.
#[must_use]
pub fn test_vector(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 40) as f32) / 8_388_608.0 - 1.0
        })
        .collect()
}

/// Flat column-major panel of `batch` right-hand sides derived from `x`:
/// vector `j` is `x` shifted by `j × shift` (distinct but comparable
/// columns). The layout `gust::Gust::execute_batch` consumes.
#[must_use]
pub fn shifted_panel(x: &[f32], batch: usize, shift: f32) -> Vec<f32> {
    let mut panel = Vec::with_capacity(x.len() * batch);
    for j in 0..batch {
        let offset = j as f32 * shift;
        panel.extend(x.iter().map(|&v| v + offset));
    }
    panel
}

/// A hub-concentrated wide matrix: `rows × cols` with all non-zeros
/// drawn from `hubs` distinct columns spread evenly across the (much
/// wider) column range. This is the shape where the engine's
/// window-local operand staging pays: the input vector is far larger
/// than on-chip cache, but each window touches only the hub columns, so
/// gathering them once into a dense stage turns the inner loop's
/// scattered reads into cache-resident ones. Deterministic in `seed`;
/// within each row, hub choices step by a stride coprime to `hubs`, so a
/// row never repeats a column.
///
/// # Panics
///
/// Panics if `hubs` is zero, exceeds `cols`, or `nnz / rows > hubs`.
#[must_use]
pub fn hub_matrix(rows: usize, cols: usize, nnz: usize, hubs: usize, seed: u64) -> CsrMatrix {
    assert!(hubs > 0 && hubs <= cols, "hubs must be in 1..=cols");
    let per_row = nnz.div_ceil(rows);
    assert!(per_row <= hubs, "rows would repeat a hub column");
    let spread = cols / hubs;
    // A stride coprime to `hubs` visits every hub before repeating, so
    // `per_row ≤ hubs` entries stay distinct. Offsetting the start per
    // row by the seed keeps different seeds producing different patterns.
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let stride = [7usize, 11, 13, 17, 19, 23, 29, 1]
        .into_iter()
        .find(|&s| gcd(s, hubs) == 1)
        .expect("1 is coprime to everything");
    let mut coo = gust_sparse::CooMatrix::new(rows, cols);
    let mut placed = 0usize;
    'outer: for r in 0..rows {
        let start = (r as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seed) as usize
            % hubs;
        for k in 0..per_row {
            if placed == nnz {
                break 'outer;
            }
            let hub = (start + k * stride) % hubs;
            let col = hub * spread;
            let value = ((placed % 17) as f32) / 8.0 - 1.0;
            coo.push(r, col, value).expect("hub column in bounds");
            placed += 1;
        }
    }
    CsrMatrix::from(&coo)
}

/// An LLC-exceeding workload for the cache-blocked (tiled) schedules: the matrix, plus the budgets its blocked rows should
/// force.
pub struct LlcWorkload {
    /// Workload label (`llc-uniform`, `llc-power-law`, `llc-tall-out`).
    pub name: &'static str,
    /// The matrix. Full scale: 2²⁰ rows × 2²² columns (operand-heavy
    /// shapes) or 2²² rows × 2¹⁸ columns (`llc-tall-out`).
    pub matrix: CsrMatrix,
    /// Cache budget (bytes) forced for the tiled rows' column bands:
    /// sized so the operand vector is a large multiple of the budget at
    /// any scale.
    pub cache_budget: usize,
    /// Row budget (bytes) forced for the tiled rows: `Some` on shapes
    /// whose *output* vector exceeds the LLC (`llc-tall-out`), `None`
    /// where tiling should run under the auto budget (usually one tile).
    pub row_budget: Option<usize>,
}

/// The LLC-exceeding workloads of the cache-blocking acceptance runs.
///
/// `llc-uniform` / `llc-power-law` (`scale = 1`: 2²⁰ rows × 2²² columns,
/// 24 nnz/row) exceed the LLC on the **operand** side: the input vector
/// is 16 MiB — far past any per-core cache — while the forced budget of
/// 1 MiB keeps each band's operand slice L2-resident. Uniform columns
/// are the banding worst case (no reuse inside a band beyond density);
/// power-law columns are the representative case (shuffled hubs
/// concentrate reuse in every band).
///
/// `llc-tall-out` (`scale = 1`: 2²² rows × 2¹⁸ columns, 6 nnz/row)
/// exceeds the LLC on the **output** side: the 16 MiB output vector —
/// and with it a band sweep's carried accumulator panel, which
/// is `reg_block×` larger still — thrashes under column bands alone.
/// Its forced row budget (output = 16× budget) makes the 2D tiled
/// schedules confine each band sweep to a cache-resident row tile.
#[must_use]
pub fn llc_workloads(scale: f64) -> Vec<LlcWorkload> {
    let rows = (((1usize << 20) as f64 * scale) as usize).max(4096);
    let cols = rows * 4;
    let nnz = rows * 24;
    // x = cols × 4 bytes = 16 × budget.
    let cache_budget = (cols * std::mem::size_of::<f32>() / 16).max(4096);
    // The tall shape inverts the aspect ratio hard: 4× the rows of the
    // wide shapes but 16× fewer columns than rows, sparser rows so nnz
    // stays comparable. The skew is the point — a row-tile walk re-reads
    // the (small) operand side once per tile while a column-band walk
    // re-streams the (huge) accumulator side once per band, so the
    // output-dominated regime is where 2D tiling has to win.
    let tall_rows = (((1usize << 22) as f64 * scale) as usize).max(16384);
    let tall_cols = (tall_rows / 16).max(1024);
    let tall_nnz = tall_rows * 6;
    // y = tall_rows × 4 bytes = 16 × row budget; the operand vector is
    // 1 MiB at full scale, and the ¼-sized cache budget still forces
    // several bands per tile.
    let tall_row_budget = (tall_rows * std::mem::size_of::<f32>() / 16).max(4096);
    let tall_cache_budget = (tall_cols * std::mem::size_of::<f32>() / 4).max(4096);
    vec![
        LlcWorkload {
            name: "llc-uniform",
            matrix: CsrMatrix::from(&gen::uniform(rows, cols, nnz, 51)),
            cache_budget,
            row_budget: None,
        },
        LlcWorkload {
            name: "llc-power-law",
            matrix: CsrMatrix::from(&gen::power_law(rows, cols, nnz, 1.9, 52)),
            cache_budget,
            row_budget: None,
        },
        LlcWorkload {
            name: "llc-tall-out",
            matrix: CsrMatrix::from(&gen::uniform(tall_rows, tall_cols, tall_nnz, 53)),
            cache_budget: tall_cache_budget,
            row_budget: Some(tall_row_budget),
        },
    ]
}

/// The Fig. 7–9 suite at the given scale: `(entry, matrix)` pairs in the
/// paper's density order.
#[must_use]
pub fn figure7_matrices(scale: f64) -> Vec<(suite::SuiteEntry, CsrMatrix)> {
    suite::figure7()
        .into_iter()
        .map(|e| {
            let m = CsrMatrix::from(&e.generate_scaled(scale));
            (e, m)
        })
        .collect()
}

/// The Tables 3–4 nine-matrix suite at the given scale.
#[must_use]
pub fn serpens_matrices(scale: f64) -> Vec<(suite::SuiteEntry, CsrMatrix)> {
    suite::serpens_nine()
        .into_iter()
        .map(|e| {
            let m = CsrMatrix::from(&e.generate_scaled(scale));
            (e, m)
        })
        .collect()
}

/// The synthetic structures of Fig. 8(b)–(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    /// Fig. 8(b): uniform placement.
    Uniform,
    /// Fig. 8(c): power-law degrees (exponent 1.8).
    PowerLaw,
    /// Fig. 8(d): k-regular rows.
    KRegular,
}

impl SyntheticKind {
    /// Label used in the reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::PowerLaw => "power-law",
            Self::KRegular => "k-regular",
        }
    }
}

/// Generates one synthetic Fig. 8 matrix: dimension `n`, target `density`.
#[must_use]
pub fn synthetic(kind: SyntheticKind, n: usize, density: f64, seed: u64) -> CsrMatrix {
    let nnz = ((n as f64 * n as f64 * density).round() as usize).clamp(1, n * n);
    let coo = match kind {
        SyntheticKind::Uniform => gen::uniform(n, n, nnz, seed),
        SyntheticKind::PowerLaw => gen::power_law(n, n, nnz, 1.8, seed),
        SyntheticKind::KRegular => {
            let k = (nnz / n).max(1);
            gen::k_regular(n, n, k, seed)
        }
    };
    CsrMatrix::from(&coo)
}

/// The paper's synthetic dimension (§4: 16 384), shrunk by `scale`.
#[must_use]
pub fn synthetic_dimension(scale: f64) -> usize {
    ((16_384.0 * scale).round() as usize).max(256)
}

/// The §4 synthetic density sweep: 1e-4 … 5e-2.
#[must_use]
pub fn density_sweep() -> Vec<f64> {
    vec![1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2, 5.0e-2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_vector_is_deterministic_and_bounded() {
        let a = test_vector(100);
        let b = test_vector(100);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        // Not all equal (a degenerate vector would mask routing bugs).
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn figure7_small_scale_loads_all_twelve() {
        let ms = figure7_matrices(0.01);
        assert_eq!(ms.len(), 12);
        for (e, m) in &ms {
            assert!(m.nnz() > 0, "{} is empty", e.name);
        }
    }

    #[test]
    fn synthetic_densities_are_respected() {
        for kind in [
            SyntheticKind::Uniform,
            SyntheticKind::PowerLaw,
            SyntheticKind::KRegular,
        ] {
            let m = synthetic(kind, 512, 1.0e-2, 1);
            let got = m.nnz() as f64 / (512.0 * 512.0);
            assert!(
                (got / 1.0e-2 - 1.0).abs() < 0.2,
                "{}: density {got}",
                kind.label()
            );
        }
    }

    #[test]
    fn synthetic_dimension_scales() {
        assert_eq!(synthetic_dimension(1.0), 16_384);
        assert_eq!(synthetic_dimension(0.25), 4_096);
        assert_eq!(synthetic_dimension(1.0e-6), 256);
    }

    #[test]
    fn env_scale_default_applies() {
        std::env::remove_var("GUST_SCALE");
        assert_eq!(env_scale(0.3), 0.3);
    }

    #[test]
    fn hub_matrix_concentrates_columns() {
        let m = hub_matrix(100, 10_000, 2_000, 64, 9);
        assert_eq!(m.rows(), 100);
        assert_eq!(m.cols(), 10_000);
        assert_eq!(m.nnz(), 2_000);
        // All columns land on at most `hubs` distinct values.
        let mut cols: Vec<u32> = m.iter().map(|(_, c, _)| c as u32).collect();
        cols.sort_unstable();
        cols.dedup();
        assert!(cols.len() <= 64, "{} distinct columns", cols.len());
        // Deterministic in the seed.
        assert_eq!(m, hub_matrix(100, 10_000, 2_000, 64, 9));
        assert_ne!(m, hub_matrix(100, 10_000, 2_000, 64, 10));
    }

    #[test]
    #[should_panic(expected = "repeat a hub")]
    fn hub_matrix_rejects_overfull_rows() {
        let _ = hub_matrix(10, 1_000, 500, 16, 1);
    }

    #[test]
    fn llc_workloads_force_the_right_budgets() {
        let ws = llc_workloads(0.01);
        assert_eq!(ws.len(), 3);
        for w in &ws[..2] {
            // Operand vector a large multiple of the forced cache budget
            // on the wide (operand-heavy) shapes.
            assert!(w.matrix.cols() * 4 >= 4 * w.cache_budget, "{}", w.name);
        }
        let tall = &ws[2];
        assert_eq!(tall.name, "llc-tall-out");
        assert!(
            tall.matrix.rows() > tall.matrix.cols(),
            "output-heavy shape"
        );
        let row_budget = tall.row_budget.expect("tall shape forces a row budget");
        assert_eq!(row_budget, (tall.matrix.rows() * 4 / 16).max(4096));
        assert!(ws[0].row_budget.is_none() && ws[1].row_budget.is_none());
    }
}
