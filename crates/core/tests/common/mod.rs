//! Shared byte-surgery helpers for the schedule-container audit tests.
//!
//! These walk the serialized `GUST` layout (see
//! `gust::schedule::serialize`) to locate occupied cells, so tests can
//! forge *semantically* invalid containers — wrong `row_mod`/`col`
//! values — and then re-checksum, producing files every byte-level
//! integrity check accepts but only the safety auditor can reject.

#![allow(dead_code)] // each test binary uses a subset

use gust_sparse::checksum::crc32;

/// `magic(4) | version u32 | payload_len u64` — the payload offset.
pub const ENVELOPE: usize = 16;

/// One occupied cell in a serialized window grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Which window block.
    pub window: usize,
    /// Color (time slot) the cell belongs to.
    pub color: usize,
    /// Multiplier lane (grid position within the color).
    pub lane: usize,
    /// Absolute buffer offset of the cell's `value: f32`.
    pub value_off: usize,
    /// Absolute buffer offset of the cell's `row_mod: u32`.
    pub row_mod_off: usize,
    /// Absolute buffer offset of the cell's `col: u32`.
    pub col_off: usize,
}

pub fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

pub fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(w)
}

pub fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the container checksum after a payload mutation, so the
/// file stays byte-level valid and only the *audit* can reject it.
pub fn fix_crc(buf: &mut [u8]) {
    let end = buf.len() - 4;
    let crc = crc32(&buf[ENVELOPE..end]);
    buf[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Occupied cells of a serialized `GUST` container: walks every window
/// block (colors/vizing/stalls header + dense cell grid).
pub fn flat_cells(buf: &[u8]) -> Vec<Cell> {
    let mut off = ENVELOPE;
    let l = read_u32(buf, off) as usize;
    off += 4;
    let rows = read_u64(buf, off) as usize;
    off += 8 + 8; // rows, cols
    off += rows * 4; // row_perm
    let window_count = read_u64(buf, off) as usize;
    off += 8;
    let mut cells = Vec::new();
    for window in 0..window_count {
        let colors = read_u32(buf, off) as usize;
        off += 4 + 4 + 8; // colors, vizing bound, stalls
        for color in 0..colors {
            for lane in 0..l {
                let occ = buf[off];
                off += 1;
                if occ == 1 {
                    cells.push(Cell {
                        window,
                        color,
                        lane,
                        value_off: off,
                        row_mod_off: off + 4,
                        col_off: off + 8,
                    });
                    off += 12;
                }
            }
        }
    }
    cells
}

/// Finds two cells in the same (window, color) — the pair to forge an
/// intra-color write collision from. Panics if the schedule has no
/// color with two or more slots (pick a denser test matrix).
pub fn same_color_pair(cells: &[Cell]) -> (Cell, Cell) {
    for pair in cells.windows(2) {
        if pair[0].window == pair[1].window && pair[0].color == pair[1].color {
            return (pair[0], pair[1]);
        }
    }
    panic!("no color with two occupied cells; use a denser matrix");
}
