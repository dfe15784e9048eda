//! Windowing and load balancing: carving the matrix into sets of `l` rows
//! and assigning columns to multiplier lanes.
//!
//! Paper §3.2 "Data Flow": when the matrix is bigger than the accelerator,
//! SpMV proceeds window by window — a set of `l` rows enters, its non-zeros
//! stream through, the adders dump, and the next `l` rows enter. Columns map
//! to multipliers by `col mod l` ("column segments").
//!
//! Paper §3.5 "Load Balancing" modifies both mappings with a three-step
//! sort: (1) sort rows by non-zero count, (2) sort each window's column
//! segments by non-zero count, (3) reverse every even sorted group
//! (serpentine), so per-lane loads even out.
//!
//! # Storage
//!
//! A [`Window`] stores its edges as one flat, row-major array with CSR-style
//! per-row offsets (`row_ptr`), not as per-row `Vec<Vec<_>>`: the scheduler
//! visits millions of windows on large matrices and the flat layout lets
//! [`WindowPlan::fill_window`] reuse one allocation for all of them (and
//! keeps the row scan cache-friendly). The load balancer's column-segment
//! table is likewise flat and sorted instead of hashed, so lane lookup is a
//! binary search over a reused buffer ([`LaneScratch`]).

use gust_sparse::CsrMatrix;

/// One non-zero within a window, annotated with its lane assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEdge {
    /// Multiplier lane (right-side bipartite vertex), `0..l`.
    pub lane: u32,
    /// Original column index (used to fetch the vector element).
    pub col: u32,
    /// Matrix value.
    pub value: f32,
}

/// A window: up to `l` consecutive scheduled rows and their edges, stored
/// flat (see the module docs).
///
/// `row_edges(i)` holds row `i`'s edges in ascending column order — exactly
/// the `E[i]` edge lists of the paper's Listing 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Window index (row set `w` covers scheduled positions `w*l..(w+1)*l`).
    pub index: usize,
    /// All edges of the window, row-major, in ascending column order within
    /// each row.
    edges: Vec<WindowEdge>,
    /// `row_ptr[i]..row_ptr[i+1]` indexes `edges` for local row `i`.
    /// Length is `rows() + 1`.
    row_ptr: Vec<u32>,
}

impl Window {
    /// An empty window buffer, ready for [`WindowPlan::fill_window`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in this window (< `l` only for the final window).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Edges of local row `i`, in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row_edges(&self, i: usize) -> &[WindowEdge] {
        &self.edges[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// All edges, row-major.
    #[must_use]
    pub fn edges(&self) -> &[WindowEdge] {
        &self.edges
    }

    /// The CSR-style row offsets into [`Window::edges`].
    #[must_use]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Iterates the per-row edge slices in local row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[WindowEdge]> + '_ {
        (0..self.rows()).map(move |i| self.row_edges(i))
    }

    /// Total edges (non-zeros) in the window.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.edges.len()
    }

    /// The Vizing / Eq. 1 lower bound on colors for this window: the maximum
    /// degree over left vertices (rows) and right vertices (lanes).
    #[must_use]
    pub fn vizing_bound(&self, l: usize) -> usize {
        let row_max = (0..self.rows())
            .map(|i| (self.row_ptr[i + 1] - self.row_ptr[i]) as usize)
            .max()
            .unwrap_or(0);
        let mut lane_deg = vec![0usize; l];
        for e in &self.edges {
            lane_deg[e.lane as usize] += 1;
        }
        let lane_max = lane_deg.into_iter().max().unwrap_or(0);
        row_max.max(lane_max)
    }

    fn clear(&mut self, index: usize) {
        self.index = index;
        self.edges.clear();
        self.row_ptr.clear();
        self.row_ptr.push(0);
    }

    fn push_edge(&mut self, edge: WindowEdge) {
        self.edges.push(edge);
    }

    fn finish_row(&mut self) {
        self.row_ptr.push(self.edges.len() as u32);
    }
}

/// Column count up to which the load balancer uses dense (direct-mapped)
/// per-column tables: 4 Mi columns × two `u32` tables = 32 MiB per worker.
/// Wider matrices fall back to sorted tables with binary-search lookup.
const DENSE_COLS_LIMIT: usize = 1 << 22;

/// Reusable scratch for the load balancer's lane assignment (§3.5 steps
/// 2–3). One instance per worker thread; contents are meaningless between
/// [`WindowPlan::fill_window`] calls.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    /// Dense per-column nnz counts (all-zero between windows). Used when
    /// the matrix has at most [`DENSE_COLS_LIMIT`] columns.
    col_count: Vec<u32>,
    /// Dense column → lane table. Only entries for the current window's
    /// columns are meaningful, and fill always writes them before any
    /// read, so no reset pass is needed.
    lane_of_col: Vec<u32>,
    /// Sorted scratch copy of this window's column indices (fallback).
    cols: Vec<u32>,
    /// `(column, nnz in window)` segment table, in ascending column order.
    segments: Vec<(u32, u32)>,
    /// Segment table ordered by (count desc, col asc) — the §3.5 step-2
    /// order — produced by a counting sort over `segments`.
    segments_by_count: Vec<(u32, u32)>,
    /// Histogram/offset scratch for that counting sort.
    count_hist: Vec<u32>,
    /// `(column, lane)`, sorted by column for binary-search lookup
    /// (fallback).
    lane_by_col: Vec<(u32, u32)>,
}

impl LaneScratch {
    /// A fresh scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lane of `col` under the current window's serpentine assignment
    /// (fallback path).
    fn lane_of(&self, col: u32) -> u32 {
        let idx = self
            .lane_by_col
            .binary_search_by_key(&col, |&(c, _)| c)
            .expect("every window column has a lane");
        self.lane_by_col[idx].1
    }
}

/// The windowing plan: a row permutation plus per-window lane assignment.
///
/// Windows are materialized one at a time through [`WindowPlan::window`] (or
/// allocation-free via [`WindowPlan::fill_window`]), so scheduling a
/// 30 M-nnz matrix never holds more than one window's edges per worker
/// besides the input CSR.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    length: usize,
    load_balance: bool,
    /// `row_perm[scheduled_position] = original_row`.
    row_perm: Vec<u32>,
}

impl WindowPlan {
    /// Builds the plan for a length-`l` GUST.
    ///
    /// With `load_balance`, rows are sorted by descending non-zero count
    /// (step 1 of §3.5); otherwise the natural order is kept.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    #[must_use]
    pub fn new(matrix: &CsrMatrix, length: usize, load_balance: bool) -> Self {
        assert!(length > 0, "GUST length must be non-zero");
        let mut row_perm: Vec<u32> = (0..matrix.rows() as u32).collect();
        if load_balance {
            // Stable sort, descending nnz: heavy rows share windows with
            // other heavy rows, so the per-window max (which bounds the
            // color count) is not inflated by a single outlier per window.
            row_perm.sort_by_key(|&r| std::cmp::Reverse(matrix.row_nnz(r as usize)));
        }
        Self {
            length,
            load_balance,
            row_perm,
        }
    }

    /// Number of windows: `⌈rows / l⌉`.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.row_perm.len().div_ceil(self.length)
    }

    /// The row permutation: `row_perm()[pos]` is the original index of the
    /// row scheduled at position `pos`.
    #[must_use]
    pub fn row_perm(&self) -> &[u32] {
        &self.row_perm
    }

    /// Accelerator length `l`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Materializes window `w` into a fresh allocation. Convenience wrapper
    /// over [`WindowPlan::fill_window`] for tests and one-off inspection;
    /// the scheduler's hot loop reuses buffers instead.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.window_count()`.
    #[must_use]
    pub fn window(&self, matrix: &CsrMatrix, w: usize) -> Window {
        let mut window = Window::new();
        let mut scratch = LaneScratch::new();
        self.fill_window(matrix, w, &mut window, &mut scratch);
        window
    }

    /// Materializes window `w` into `window`, reusing its buffers (and
    /// `scratch` for the load balancer's segment table), applying steps 2–3
    /// of the load balancer (column-segment sort + serpentine lane
    /// assignment) when enabled.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.window_count()`.
    pub fn fill_window(
        &self,
        matrix: &CsrMatrix,
        w: usize,
        window: &mut Window,
        scratch: &mut LaneScratch,
    ) {
        assert!(w < self.window_count(), "window {w} out of range");
        let l = self.length;
        let start = w * l;
        let end = (start + l).min(self.row_perm.len());

        window.clear(w);
        if !self.load_balance {
            let l32 = l as u32;
            for pos in start..end {
                let orig = self.row_perm[pos] as usize;
                let (cols, vals) = matrix.row(orig);
                for (&c, &v) in cols.iter().zip(vals) {
                    window.push_edge(WindowEdge {
                        lane: c % l32,
                        col: c,
                        value: v,
                    });
                }
                window.finish_row();
            }
            return;
        }

        // Load-balanced lane assignment. Step 2: count this window's nnz per
        // original column ("column segments") and sort segments by count,
        // descending. Step 3: serpentine — reverse every even sorted group of
        // `l` (paper example: 1,2,3,4,5,6,7,8 -> 1,2,4,3,5,6,8,7 for l = 2).
        // Lane of a segment = its position within its group.
        //
        // Deterministic and hash-free. Narrow matrices (the common case)
        // use dense per-column tables: O(1) counting and lane lookup, with
        // the touched columns recorded during the counting pass so the
        // segment build is O(unique columns log unique columns) — never a
        // sweep over all matrix columns, which would make many-window
        // matrices O(windows × cols). Wider matrices collect and sort the
        // window's columns instead.
        let dense = matrix.cols() <= DENSE_COLS_LIMIT;
        scratch.segments.clear();
        if dense {
            scratch.col_count.resize(matrix.cols(), 0);
            scratch.cols.clear();
            for pos in start..end {
                let orig = self.row_perm[pos] as usize;
                let (cols, _) = matrix.row(orig);
                for &c in cols {
                    if scratch.col_count[c as usize] == 0 {
                        scratch.cols.push(c); // first touch of this column
                    }
                    scratch.col_count[c as usize] += 1;
                }
            }
            scratch.cols.sort_unstable();
            for &c in &scratch.cols {
                scratch.segments.push((c, scratch.col_count[c as usize]));
                scratch.col_count[c as usize] = 0; // restore the all-zero invariant
            }
        } else {
            scratch.cols.clear();
            for pos in start..end {
                let orig = self.row_perm[pos] as usize;
                let (cols, _) = matrix.row(orig);
                scratch.cols.extend_from_slice(cols);
            }
            scratch.cols.sort_unstable();
            for &c in &scratch.cols {
                match scratch.segments.last_mut() {
                    Some((col, count)) if *col == c => *count += 1,
                    _ => scratch.segments.push((c, 1)),
                }
            }
        }
        // Order by count descending, tie-break on column index ascending
        // for determinism. `segments` is already in ascending column
        // order, so a counting sort over the count value keeps the column
        // tie-break for free and avoids a comparison sort per window.
        let max_count = scratch.segments.iter().map(|s| s.1).max().unwrap_or(0) as usize;
        scratch.count_hist.clear();
        scratch.count_hist.resize(max_count + 1, 0);
        for &(_, count) in &scratch.segments {
            scratch.count_hist[count as usize] += 1;
        }
        let mut offset = 0u32;
        for count in (1..=max_count).rev() {
            let h = scratch.count_hist[count];
            scratch.count_hist[count] = offset;
            offset += h;
        }
        scratch.segments_by_count.clear();
        scratch
            .segments_by_count
            .resize(scratch.segments.len(), (0, 0));
        for &(col, count) in &scratch.segments {
            let at = scratch.count_hist[count as usize] as usize;
            scratch.count_hist[count as usize] += 1;
            scratch.segments_by_count[at] = (col, count);
        }

        if dense {
            scratch.lane_of_col.resize(matrix.cols(), 0);
        } else {
            scratch.lane_by_col.clear();
        }
        for (group_idx, group) in scratch.segments_by_count.chunks(l).enumerate() {
            let group_len = group.len();
            for (i, &(col, _)) in group.iter().enumerate() {
                let slot = if group_idx % 2 == 1 {
                    // Odd (0-based) groups are the "even column segments"
                    // of the paper's 1-based description: reversed.
                    group_len - 1 - i
                } else {
                    i
                };
                if dense {
                    // Stale entries from earlier windows are harmless: a
                    // column is only ever read in the window that just
                    // wrote it.
                    scratch.lane_of_col[col as usize] = slot as u32;
                } else {
                    scratch.lane_by_col.push((col, slot as u32));
                }
            }
        }
        if !dense {
            scratch.lane_by_col.sort_unstable_by_key(|&(c, _)| c);
        }

        for pos in start..end {
            let orig = self.row_perm[pos] as usize;
            let (cols, vals) = matrix.row(orig);
            for (&c, &v) in cols.iter().zip(vals) {
                let lane = if dense {
                    scratch.lane_of_col[c as usize]
                } else {
                    scratch.lane_of(c)
                };
                window.push_edge(WindowEdge {
                    lane,
                    col: c,
                    value: v,
                });
            }
            window.finish_row();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gust_sparse::prelude::*;

    fn matrix_6x9() -> CsrMatrix {
        // The paper's Fig. 5 example: 6 rows, 9 columns (A..I).
        // 1: A C D E H   2: A B F G H   3: B C D I
        // 4: A C E I     5: C F G H     6: A B D H
        let rows: [&[usize]; 6] = [
            &[0, 2, 3, 4, 7],
            &[0, 1, 5, 6, 7],
            &[1, 2, 3, 8],
            &[0, 2, 4, 8],
            &[2, 5, 6, 7],
            &[0, 1, 3, 7],
        ];
        let mut coo = CooMatrix::new(6, 9);
        for (r, cols) in rows.iter().enumerate() {
            for &c in cols.iter() {
                coo.push(r, c, (r * 10 + c) as f32 + 1.0).unwrap();
            }
        }
        CsrMatrix::from(&coo)
    }

    #[test]
    fn window_count_rounds_up() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, false);
        assert_eq!(plan.window_count(), 2);
        let plan4 = WindowPlan::new(&m, 4, false);
        assert_eq!(plan4.window_count(), 2);
    }

    #[test]
    fn unbalanced_lane_is_col_mod_l() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, false);
        let w0 = plan.window(&m, 0);
        for (i, row) in w0.iter_rows().enumerate() {
            for e in row {
                assert_eq!(e.lane, e.col % 3, "row {i} col {}", e.col);
            }
        }
    }

    #[test]
    fn fig5_window_edges_match_paper() {
        // Paper Fig. 5(b): first window (rows 1-3) right vertices group
        // columns {A,D,G}, {B,E,H}, {C,F,I} = lanes 0,1,2.
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, false);
        let w0 = plan.window(&m, 0);
        assert_eq!(w0.rows(), 3);
        // Row 1 (A C D E H) -> lanes (0, 2, 0, 1, 1).
        let lanes: Vec<u32> = w0.row_edges(0).iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![0, 2, 0, 1, 1]);
        assert_eq!(w0.nnz(), 14);
    }

    #[test]
    fn fig5_vizing_bounds() {
        // First window: row degrees 5,5,4; lane degrees: lane0 (A,D,G): A×2,
        // D×2, G×1 = 5; lane1 (B,E,H): B×2,E×1,H×2 = 5; lane2 (C,F,I):
        // C×2,F×1,I×1 = 4. Bound = 5 — the paper colors it with 5.
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, false);
        assert_eq!(plan.window(&m, 0).vizing_bound(3), 5);
        // Second window (rows 4-6): paper colors it with 4.
        assert_eq!(plan.window(&m, 1).vizing_bound(3), 4);
    }

    #[test]
    fn load_balance_sorts_rows_descending() {
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (3, 3, 1.0),
            ],
        )
        .unwrap();
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 2, true);
        // nnz: row0=1, row1=3, row2=2, row3=1 -> order 1, 2, 0, 3.
        assert_eq!(plan.row_perm(), &[1, 2, 0, 3]);
    }

    #[test]
    fn row_perm_is_identity_without_lb() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, false);
        assert_eq!(plan.row_perm(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn serpentine_assignment_balances_lane_loads() {
        // One window of 2 rows at l = 2, four columns with window loads
        // col0: 2, col1: 2, col2: 1, col3: 1.
        let mut coo = CooMatrix::new(2, 4);
        let mut val = 1.0f32;
        for c in 0..2 {
            for r in 0..2 {
                coo.push(r, c, val).unwrap();
                val += 1.0;
            }
        }
        coo.push(0, 2, val).unwrap();
        coo.push(1, 3, val + 1.0).unwrap();
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 2, true);
        let w = plan.window(&m, 0);
        // Sorted segments: col0(2), col1(2), col2(1), col3(1).
        // Groups: (col0,col1), then (col2,col3) reversed -> col3 lane0,
        // col2 lane1. Lane loads: lane0 = 2+1 = 3; lane1 = 2+1 = 3.
        let mut lane_load = [0usize; 2];
        for e in w.edges() {
            lane_load[e.lane as usize] += 1;
        }
        assert_eq!(lane_load, [3, 3]);
    }

    #[test]
    fn ragged_final_window() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 4, false);
        let w1 = plan.window(&m, 1);
        assert_eq!(w1.rows(), 2); // rows 4 and 5 only
    }

    #[test]
    fn lb_window_covers_all_edges_once() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 3, true);
        let total: usize = (0..plan.window_count())
            .map(|w| plan.window(&m, w).nnz())
            .sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn lb_lane_assignment_is_within_bounds() {
        let coo = gen::uniform(50, 70, 400, 3);
        let m = CsrMatrix::from(&coo);
        let plan = WindowPlan::new(&m, 8, true);
        for w in 0..plan.window_count() {
            for e in plan.window(&m, w).edges() {
                assert!(e.lane < 8);
            }
        }
    }

    #[test]
    fn fill_window_reuses_buffers_and_matches_fresh_window() {
        let coo = gen::uniform(40, 40, 300, 11);
        let m = CsrMatrix::from(&coo);
        for lb in [false, true] {
            let plan = WindowPlan::new(&m, 8, lb);
            let mut reused = Window::new();
            let mut scratch = LaneScratch::new();
            for w in 0..plan.window_count() {
                plan.fill_window(&m, w, &mut reused, &mut scratch);
                assert_eq!(reused, plan.window(&m, w), "lb {lb} window {w}");
            }
        }
    }

    #[test]
    fn row_ptr_is_consistent() {
        let m = matrix_6x9();
        let plan = WindowPlan::new(&m, 4, false);
        let w = plan.window(&m, 0);
        assert_eq!(w.row_ptr().len(), w.rows() + 1);
        assert_eq!(*w.row_ptr().last().unwrap() as usize, w.nnz());
        let concatenated: Vec<_> = w.iter_rows().flatten().copied().collect();
        assert_eq!(concatenated, w.edges().to_vec());
    }
}
