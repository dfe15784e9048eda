//! Behavioral model of Serpens (§5.3, Song et al. \[29\]): a state-of-the-art
//! HBM-based FPGA SpMV accelerator.
//!
//! Serpens streams a channel-interleaved, padded sparse format: matrix rows
//! are distributed over 16 HBM channels, each channel delivering one
//! 512-bit flit per cycle — eight `(value, index)` pairs — to eight
//! processing lanes. Rows pad their final flit to the 8-element boundary,
//! and the floating-point accumulators' read-after-write latency forces
//! additional spacing that the Serpens scheduler cannot always hide; this
//! model folds that into a single calibrated `dependency_factor`
//! (default 1.8, set so the published Table 4 cycle counts are reproduced
//! within ~10% on the paper's own matrices — the `table4` runner prints the
//! comparison: `cargo bench -p gust_bench --bench table4`, or the `table4`
//! section of `repro_all`).
//!
//! Unlike the §2 baselines, Serpens runs at its own 223 MHz synthesis
//! clock and has a real preprocessing step (building the padded format),
//! which [`Serpens::preprocess`] performs so the harness can time it, just
//! as Table 4's "Pre." column does.

use crate::model::{AccelRun, SpmvAccelerator};
use gust_sim::{ExecutionReport, MemoryTraffic};
use gust_sparse::CsrMatrix;

/// The Serpens accelerator model (paper configuration: 16 channels × 8
/// lanes, 223 MHz, 46.2 W dynamic).
#[derive(Debug, Clone)]
pub struct Serpens {
    channels: usize,
    lanes_per_channel: usize,
    frequency_hz: f64,
    dependency_factor: f64,
}

/// One element of the padded stream: a `(value, column)` pair, or a
/// padding bubble (`None`) filling a row's final flit.
pub type StreamElement = Option<(f32, u32)>;

/// The preprocessed, channel-interleaved padded format.
///
/// `channels[k]` is the byte-for-byte stream channel `k` would fetch from
/// its HBM pseudo-channel: rows assigned to the channel, each padded to the
/// 8-element flit boundary, preceded by its row header (row index + flit
/// count) in the `row_headers` array.
#[derive(Debug, Clone, PartialEq)]
pub struct SerpensFormat {
    /// Padded `(value, col)` streams per channel.
    pub channels: Vec<Vec<StreamElement>>,
    /// `(row, flits)` headers per channel, in stream order.
    pub row_headers: Vec<Vec<(u32, u32)>>,
    /// Flits queued on each channel (already includes row padding).
    pub per_channel_flits: Vec<u64>,
    /// Elements after padding rows to the flit boundary.
    pub padded_elements: u64,
    /// Original non-zero count.
    pub nnz: u64,
}

impl SerpensFormat {
    /// Padding overhead: padded elements over real non-zeros (≥ 1).
    #[must_use]
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.padded_elements as f64 / self.nnz as f64
    }
}

impl Default for Serpens {
    fn default() -> Self {
        Self::new()
    }
}

impl Serpens {
    /// Dynamic power measured by the paper's synthesis (§5.3).
    pub const DYNAMIC_POWER_WATTS: f64 = 46.2;

    /// The paper's configuration: 16 channels × 8 lanes at 223 MHz.
    #[must_use]
    pub fn new() -> Self {
        Self {
            channels: 16,
            lanes_per_channel: 8,
            frequency_hz: 223.0e6,
            dependency_factor: 1.8,
        }
    }

    /// Overrides the accumulator-dependency calibration factor (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    #[must_use]
    pub fn with_dependency_factor(mut self, factor: f64) -> Self {
        assert!(
            factor >= 1.0,
            "dependency factor cannot beat the raw stream"
        );
        self.dependency_factor = factor;
        self
    }

    /// Number of HBM channels feeding matrix data.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Builds the padded channel-interleaved format — Serpens's
    /// preprocessing step, materializing the actual streams each HBM
    /// channel fetches. Wall-clock this call for Table 4's "Pre." column.
    #[must_use]
    pub fn preprocess(&self, a: &CsrMatrix) -> SerpensFormat {
        let lanes = self.lanes_per_channel;
        let mut channels: Vec<Vec<StreamElement>> = vec![Vec::new(); self.channels];
        let mut row_headers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.channels];
        let mut per_channel_flits = vec![0u64; self.channels];
        let mut padded_elements = 0u64;
        for r in 0..a.rows() {
            let (cols, vals) = a.row(r);
            if cols.is_empty() {
                continue;
            }
            let k = r % self.channels;
            let flits = cols.len().div_ceil(lanes);
            row_headers[k].push((r as u32, flits as u32));
            let stream = &mut channels[k];
            for (&c, &v) in cols.iter().zip(vals) {
                stream.push(Some((v, c)));
            }
            // Pad the row's final flit to the 8-element boundary.
            let pad = flits * lanes - cols.len();
            stream.extend(std::iter::repeat_n(None, pad));
            per_channel_flits[k] += flits as u64;
            padded_elements += (flits * lanes) as u64;
        }
        SerpensFormat {
            channels,
            row_headers,
            per_channel_flits,
            padded_elements,
            nnz: a.nnz() as u64,
        }
    }

    /// Execution cycles for a preprocessed format: the busiest channel's
    /// flit count, inflated by the dependency factor, plus a drain.
    #[must_use]
    pub fn cycles(&self, format: &SerpensFormat) -> u64 {
        let max_flits = format.per_channel_flits.iter().copied().max().unwrap_or(0);
        ((max_flits as f64) * self.dependency_factor).ceil() as u64 + 32
    }

    fn base_report(&self, a: &CsrMatrix) -> ExecutionReport {
        let format = self.preprocess(a);
        let cycles = self.cycles(&format);
        let nnz = a.nnz() as u64;

        let mut report = ExecutionReport::new(self.name(), self.length(), self.arithmetic_units());
        report.cycles = cycles;
        report.nnz_processed = nnz;
        report.busy_unit_cycles = 2 * nnz;
        report.stall_cycles = cycles.saturating_sub(nnz / (self.length() as u64).max(1));
        report.multiplies = nnz;
        report.additions = nnz;
        report.frequency_hz = self.frequency_hz;
        report.traffic = MemoryTraffic {
            // Padded stream: value + index per (padded) element, plus the
            // dense vector per channel group and the result write-back.
            off_chip_reads: 2 * format.padded_elements + a.cols() as u64,
            off_chip_writes: a.rows() as u64,
            on_chip_reads: nnz,
            on_chip_writes: a.cols() as u64,
        };
        report
    }
}

impl SpmvAccelerator for Serpens {
    fn name(&self) -> String {
        format!("serpens-{}ch", self.channels)
    }

    fn length(&self) -> usize {
        self.channels * self.lanes_per_channel
    }

    fn arithmetic_units(&self) -> usize {
        2 * self.length()
    }

    fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    fn execute(&self, a: &CsrMatrix, x: &[f32]) -> AccelRun {
        assert_eq!(x.len(), a.cols(), "input vector length mismatch");
        // Consume the preprocessed streams exactly as the PEs would: each
        // channel walks its padded flits, accumulating per row header.
        let format = self.preprocess(a);
        let lanes = self.lanes_per_channel;
        let mut y = vec![0.0f32; a.rows()];
        for k in 0..self.channels {
            let stream = &format.channels[k];
            let mut pos = 0usize;
            for &(row, flits) in &format.row_headers[k] {
                let mut acc = 0.0f32;
                for _ in 0..flits as usize * lanes {
                    if let Some((v, c)) = stream[pos] {
                        acc += v * x[c as usize];
                    }
                    pos += 1;
                }
                y[row as usize] = acc;
            }
            debug_assert_eq!(pos, stream.len(), "stream fully consumed");
        }
        AccelRun {
            output: y,
            report: self.base_report(a),
        }
    }

    fn report(&self, a: &CsrMatrix) -> ExecutionReport {
        self.base_report(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gust_sparse::prelude::*;

    #[test]
    fn paper_configuration() {
        let s = Serpens::new();
        assert_eq!(s.length(), 128);
        assert_eq!(s.channels(), 16);
        assert!((s.frequency_hz() - 223.0e6).abs() < 1.0);
    }

    #[test]
    fn padding_rounds_rows_to_flits() {
        // One row of 9 nnz -> 2 flits -> 16 padded elements.
        let coo = CooMatrix::from_triplets(1, 16, (0..9).map(|c| (0, c, 1.0)).collect::<Vec<_>>())
            .unwrap();
        let a = CsrMatrix::from(&coo);
        let fmt = Serpens::new().preprocess(&a);
        assert_eq!(fmt.padded_elements, 16);
        assert_eq!(fmt.per_channel_flits[0], 2);
    }

    #[test]
    fn short_rows_waste_most_of_a_flit() {
        // 32 rows of 1 nnz each: every row occupies a full 8-wide flit.
        let a = CsrMatrix::identity(32);
        let fmt = Serpens::new().preprocess(&a);
        assert_eq!(fmt.padded_elements, 32 * 8);
    }

    #[test]
    fn cycles_track_busiest_channel() {
        let s = Serpens::new().with_dependency_factor(1.0);
        // 160 rows: 10 per channel, 1 flit each.
        let a = CsrMatrix::identity(160);
        let fmt = s.preprocess(&a);
        assert!(fmt.per_channel_flits.iter().all(|&f| f == 10));
        assert_eq!(s.cycles(&fmt), 10 + 32);
    }

    #[test]
    fn dependency_factor_inflates_cycles() {
        let a = CsrMatrix::from(&gen::uniform(256, 256, 4000, 1));
        let base = Serpens::new().with_dependency_factor(1.0).report(&a).cycles;
        let padded = Serpens::new().with_dependency_factor(2.0).report(&a).cycles;
        assert!(padded > base);
    }

    #[test]
    fn output_matches_reference() {
        let a = CsrMatrix::from(&gen::rmat(80, 80, 700, 4));
        let x: Vec<f32> = (0..80).map(|i| (i as f32).sin()).collect();
        let run = Serpens::new().execute(&a, &x);
        assert_vectors_close(&run.output, &reference_spmv(&a, &x), 1e-4);
    }

    #[test]
    fn stream_reconstructs_the_matrix() {
        let a = CsrMatrix::from(&gen::uniform(40, 40, 250, 8));
        let fmt = Serpens::new().preprocess(&a);
        let mut rebuilt: Vec<(u32, u32, u32)> = Vec::new();
        for k in 0..fmt.channels.len() {
            let mut pos = 0usize;
            for &(row, flits) in &fmt.row_headers[k] {
                for _ in 0..flits as usize * 8 {
                    if let Some((v, c)) = fmt.channels[k][pos] {
                        rebuilt.push((row, c, v.to_bits()));
                    }
                    pos += 1;
                }
            }
        }
        rebuilt.sort_unstable();
        let mut expected: Vec<(u32, u32, u32)> = a
            .iter()
            .map(|(r, c, v)| (r as u32, c as u32, v.to_bits()))
            .collect();
        expected.sort_unstable();
        assert_eq!(rebuilt, expected);
    }

    #[test]
    fn padding_factor_reflects_row_lengths() {
        // Single-nnz rows pad 8x; full-flit rows pad 1x.
        let short = CsrMatrix::identity(32);
        assert!((Serpens::new().preprocess(&short).padding_factor() - 8.0).abs() < 1e-12);
        let full = CsrMatrix::from(&gen::k_regular(32, 32, 8, 1));
        assert!((Serpens::new().preprocess(&full).padding_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn runs_at_its_own_clock() {
        let a = CsrMatrix::identity(64);
        let r = Serpens::new().report(&a);
        assert!((r.frequency_hz - 223.0e6).abs() < 1.0);
    }

    #[test]
    fn execute_report_equals_report() {
        let a = CsrMatrix::from(&gen::uniform(30, 30, 90, 7));
        let acc = Serpens::new();
        assert_eq!(acc.execute(&a, &[1.0; 30]).report, acc.report(&a));
    }
}
