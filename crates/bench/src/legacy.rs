//! The seed implementation, preserved verbatim as a reference oracle: the
//! `Vec<Vec<_>>` scheduling pipeline and the array-of-structs
//! slot-at-a-time execution engine. This module's tests pin the production
//! scheduler and engine against them: the schedules window for window, and
//! the engine's output and busy unit-cycles (the paper's utilization
//! figure) bit for bit.
//!
//! The production scheduler in `gust::schedule` now colors windows into
//! reusable flat buffers, and the production engine streams a
//! structure-of-arrays layout; this module keeps the original shapes — one
//! `Vec<Vec<WindowEdge>>` per window, `HashMap`-based lane assignment, an
//! array-of-structs `ScheduledSlot` walk with per-cycle counter
//! bookkeeping. It intentionally trades speed for fidelity to the seed
//! code; do not "optimize" it.

// Fidelity over lints: this file mirrors the seed implementation verbatim.
#![allow(clippy::needless_range_loop)]

use gust::schedule::scheduled::{ScheduledMatrix, ScheduledSlot, WindowSchedule};
use gust::{ColoringAlgorithm, GustConfig, SchedulingPolicy};
use gust_sim::UnitCounter;
use gust_sparse::CsrMatrix;
use std::collections::HashMap;

/// One non-zero with its lane, as the seed stored it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowEdge {
    lane: u32,
    col: u32,
    value: f32,
}

/// A window in the seed's nested representation.
struct LegacyWindow {
    per_row: Vec<Vec<WindowEdge>>,
}

impl LegacyWindow {
    fn vizing_bound(&self, l: usize) -> usize {
        let row_max = self.per_row.iter().map(Vec::len).max().unwrap_or(0);
        let mut lane_deg = vec![0usize; l];
        for row in &self.per_row {
            for e in row {
                lane_deg[e.lane as usize] += 1;
            }
        }
        let lane_max = lane_deg.into_iter().max().unwrap_or(0);
        row_max.max(lane_max)
    }
}

/// Schedules every window with the seed pipeline and returns the per-window
/// schedules in order. Equivalent output to
/// `gust::schedule::Scheduler::schedule(..).windows()`; only the
/// intermediate representation (and therefore the throughput) differs.
///
/// # Panics
///
/// Panics on [`SchedulingPolicy::Naive`] and
/// [`ColoringAlgorithm::Konig`] — the baseline covers the greedy
/// edge-coloring paths (`Verbatim` and `Grouped`).
#[must_use]
pub fn legacy_schedule_windows(matrix: &CsrMatrix, config: &GustConfig) -> Vec<WindowSchedule> {
    assert!(
        config.policy() != SchedulingPolicy::Naive,
        "legacy baseline covers the edge-coloring policies"
    );
    let l = config.length();
    let lb = config.policy() == SchedulingPolicy::EdgeColoringLb;
    let row_perm = legacy_row_perm(matrix, lb);
    let window_count = row_perm.len().div_ceil(l);

    (0..window_count)
        .map(|w| {
            let window = legacy_window(matrix, &row_perm, l, lb, w);
            let bound = window.vizing_bound(l) as u32;
            let per_color = match config.coloring() {
                ColoringAlgorithm::Verbatim => legacy_color_verbatim(&window, l),
                ColoringAlgorithm::Grouped => legacy_color_grouped(&window, l),
                ColoringAlgorithm::Konig => {
                    panic!("legacy baseline covers the greedy coloring algorithms")
                }
            };
            WindowSchedule::from_colors(per_color, bound, 0)
        })
        .collect()
}

fn legacy_row_perm(matrix: &CsrMatrix, load_balance: bool) -> Vec<u32> {
    let mut row_perm: Vec<u32> = (0..matrix.rows() as u32).collect();
    if load_balance {
        row_perm.sort_by_key(|&r| std::cmp::Reverse(matrix.row_nnz(r as usize)));
    }
    row_perm
}

/// The seed's `WindowPlan::window`: fresh nested vectors, `HashMap` segment
/// counting and lane lookup.
fn legacy_window(
    matrix: &CsrMatrix,
    row_perm: &[u32],
    l: usize,
    load_balance: bool,
    w: usize,
) -> LegacyWindow {
    let start = w * l;
    let end = (start + l).min(row_perm.len());

    let mut per_row: Vec<Vec<WindowEdge>> = Vec::with_capacity(end - start);
    if !load_balance {
        for pos in start..end {
            let orig = row_perm[pos] as usize;
            let (cols, vals) = matrix.row(orig);
            per_row.push(
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &v)| WindowEdge {
                        lane: c % l as u32,
                        col: c,
                        value: v,
                    })
                    .collect(),
            );
        }
        return LegacyWindow { per_row };
    }

    let mut seg_count: HashMap<u32, u32> = HashMap::new();
    for pos in start..end {
        let orig = row_perm[pos] as usize;
        let (cols, _) = matrix.row(orig);
        for &c in cols {
            *seg_count.entry(c).or_insert(0) += 1;
        }
    }
    let mut segments: Vec<(u32, u32)> = seg_count.into_iter().collect();
    segments.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut lane_of: HashMap<u32, u32> = HashMap::with_capacity(segments.len());
    for (group_idx, group) in segments.chunks(l).enumerate() {
        let group_len = group.len();
        for (i, &(col, _)) in group.iter().enumerate() {
            let slot = if group_idx % 2 == 1 {
                group_len - 1 - i
            } else {
                i
            };
            lane_of.insert(col, slot as u32);
        }
    }

    for pos in start..end {
        let orig = row_perm[pos] as usize;
        let (cols, vals) = matrix.row(orig);
        per_row.push(
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| WindowEdge {
                    lane: lane_of[&c],
                    col: c,
                    value: v,
                })
                .collect(),
        );
    }
    LegacyWindow { per_row }
}

/// The seed's literal Listing 1 (`Vec::remove`-based scan).
fn legacy_color_verbatim(window: &LegacyWindow, l: usize) -> Vec<Vec<ScheduledSlot>> {
    let mut remaining: Vec<Vec<(u32, u32, f32)>> = window
        .per_row
        .iter()
        .map(|row| row.iter().map(|e| (e.lane, e.col, e.value)).collect())
        .collect();
    let mut live: Vec<usize> = (0..remaining.len())
        .filter(|&i| !remaining[i].is_empty())
        .collect();

    let mut per_color: Vec<Vec<ScheduledSlot>> = Vec::new();
    let mut matched = vec![u32::MAX; l];
    let mut clr: u32 = 0;
    while !live.is_empty() {
        let mut bucket: Vec<ScheduledSlot> = Vec::with_capacity(live.len());
        live.retain(|&row| {
            let edges = &mut remaining[row];
            if let Some(k) = edges
                .iter()
                .position(|&(lane, _, _)| matched[lane as usize] != clr)
            {
                let (lane, col, value) = edges.remove(k);
                matched[lane as usize] = clr;
                bucket.push(ScheduledSlot {
                    lane,
                    row_mod: row as u32,
                    col,
                    value,
                });
            }
            !edges.is_empty()
        });
        per_color.push(bucket);
        clr += 1;
    }
    per_color
}

/// The seed's lane-grouped greedy (nested `Vec` groups per row).
fn legacy_color_grouped(window: &LegacyWindow, l: usize) -> Vec<Vec<ScheduledSlot>> {
    struct Group {
        lane: u32,
        edges: Vec<u32>,
        head: u32,
    }
    struct Row {
        edges: Vec<(u32, f32)>,
        groups: Vec<Group>,
        remaining: u32,
    }

    let mut rows: Vec<Row> = Vec::with_capacity(window.per_row.len());
    let mut lane_group_idx = vec![u32::MAX; l];
    for row_edges in &window.per_row {
        let mut row = Row {
            edges: Vec::with_capacity(row_edges.len()),
            groups: Vec::new(),
            remaining: row_edges.len() as u32,
        };
        for e in row_edges {
            let edge_idx = row.edges.len() as u32;
            row.edges.push((e.col, e.value));
            let slot = lane_group_idx[e.lane as usize];
            if slot != u32::MAX && row.groups[slot as usize].lane == e.lane {
                row.groups[slot as usize].edges.push(edge_idx);
            } else {
                lane_group_idx[e.lane as usize] = row.groups.len() as u32;
                row.groups.push(Group {
                    lane: e.lane,
                    edges: vec![edge_idx],
                    head: 0,
                });
            }
        }
        for g in &row.groups {
            lane_group_idx[g.lane as usize] = u32::MAX;
        }
        rows.push(row);
    }

    let mut live: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].remaining > 0).collect();
    let mut per_color: Vec<Vec<ScheduledSlot>> = Vec::new();
    let mut matched = vec![u32::MAX; l];
    let mut clr: u32 = 0;
    while !live.is_empty() {
        let mut bucket: Vec<ScheduledSlot> = Vec::with_capacity(live.len());
        live.retain(|&row_idx| {
            let row = &mut rows[row_idx];
            for g in &mut row.groups {
                if g.head as usize >= g.edges.len() {
                    continue;
                }
                if matched[g.lane as usize] == clr {
                    continue;
                }
                let edge_idx = g.edges[g.head as usize] as usize;
                g.head += 1;
                row.remaining -= 1;
                matched[g.lane as usize] = clr;
                let (col, value) = row.edges[edge_idx];
                bucket.push(ScheduledSlot {
                    lane: g.lane,
                    row_mod: row_idx as u32,
                    col,
                    value,
                });
                break;
            }
            row.remaining > 0
        });
        per_color.push(bucket);
        clr += 1;
    }
    per_color
}

/// One window of the seed engine's scheduled layout: a flat array of
/// structs (`ScheduledSlot` records) with per-color offsets — the
/// representation `gust::WindowSchedule` stored before the
/// structure-of-arrays refactor.
#[derive(Debug, Clone)]
pub struct LegacySlotWindow {
    /// `color_ptr[c]..color_ptr[c+1]` indexes `slots` for color `c`.
    pub color_ptr: Vec<u32>,
    /// Slot records, color-major, lane-sorted within each color.
    pub slots: Vec<ScheduledSlot>,
}

/// Converts a schedule into the seed engine's array-of-structs layout.
/// Done once per schedule, mirroring how the seed stored it.
#[must_use]
pub fn legacy_slot_windows(schedule: &ScheduledMatrix) -> Vec<LegacySlotWindow> {
    schedule
        .windows()
        .iter()
        .map(|w| LegacySlotWindow {
            color_ptr: w.color_ptr().to_vec(),
            slots: w.iter_slots().collect(),
        })
        .collect()
}

/// The seed `Gust::execute` hot loop, verbatim: walk each window color by
/// color over array-of-structs slots, with live [`UnitCounter`] busy
/// bookkeeping per cycle, zeroing and dumping all `l` adder lanes every
/// window. Returns the output vector and the measured busy unit-cycles.
///
/// Output and busy unit-cycles are bit-identical to `gust::Gust::execute`
/// — the baseline only differs in data layout and bookkeeping.
///
/// # Panics
///
/// Panics if `x.len() != schedule.cols()` or `windows` was built from a
/// different schedule.
#[must_use]
pub fn legacy_execute(
    schedule: &ScheduledMatrix,
    windows: &[LegacySlotWindow],
    x: &[f32],
) -> (Vec<f32>, u64) {
    assert_eq!(x.len(), schedule.cols(), "input vector length mismatch");
    assert_eq!(windows.len(), schedule.windows().len(), "window mismatch");
    let l = schedule.length();
    let mut y = vec![0.0f32; schedule.rows()];
    let mut adders = vec![0.0f32; l];
    let mut mults = UnitCounter::new("multipliers", l);
    let mut adds = UnitCounter::new("adders", l);

    let row_perm = schedule.row_perm();
    for (w, window) in windows.iter().enumerate() {
        adders.iter_mut().for_each(|a| *a = 0.0);
        for c in 0..window.color_ptr.len() - 1 {
            let slots =
                &window.slots[window.color_ptr[c] as usize..window.color_ptr[c + 1] as usize];
            for s in slots {
                let product = s.value * x[s.col as usize];
                adders[s.row_mod as usize] += product;
            }
            mults.record_busy(slots.len());
            adds.record_busy(slots.len());
        }
        let base = w * l;
        for (i, &acc) in adders.iter().enumerate() {
            let pos = base + i;
            if pos < row_perm.len() {
                y[row_perm[pos] as usize] = acc;
            }
        }
    }
    (y, mults.busy_unit_cycles() + adds.busy_unit_cycles())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gust::Gust;
    use gust_sparse::prelude::*;

    #[test]
    fn legacy_executor_is_bit_identical_to_soa_engine() {
        for (name, coo) in [
            ("uniform", gen::uniform(100, 100, 900, 5)),
            ("power-law", gen::power_law(90, 90, 700, 1.9, 6)), // 90 % 16 != 0
        ] {
            let m = CsrMatrix::from(&coo);
            let gust = Gust::new(GustConfig::new(16));
            let schedule = gust.schedule(&m);
            let windows = legacy_slot_windows(&schedule);
            let x: Vec<f32> = (0..m.cols()).map(|i| (i % 11) as f32 / 3.0 - 1.5).collect();
            let (y, busy) = legacy_execute(&schedule, &windows, &x);
            let run = gust.execute(&schedule, &x);
            assert_eq!(y, run.output, "{name}");
            assert_eq!(busy, run.report.busy_unit_cycles, "{name}");
        }
    }

    #[test]
    fn legacy_matches_the_flat_pipeline() {
        // The baseline is only a valid baseline if it computes the same
        // schedules as the production pipeline.
        for (name, coo) in [
            ("uniform", gen::uniform(200, 200, 3000, 3)),
            ("power-law", gen::power_law(200, 200, 2500, 1.9, 4)),
            ("rmat", gen::rmat(1024, 1024, 20_000, 13)),
        ] {
            let m = CsrMatrix::from(&coo);
            for l in [16, 256] {
                for algo in [ColoringAlgorithm::Verbatim, ColoringAlgorithm::Grouped] {
                    let config = GustConfig::new(l).with_coloring(algo);
                    let flat = Gust::new(config.clone()).schedule(&m);
                    let legacy = legacy_schedule_windows(&m, &config);
                    assert_eq!(legacy.as_slice(), flat.windows(), "{name} l={l} {algo:?}");
                }
            }
        }
    }
}
