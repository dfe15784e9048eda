//! Bandwidth requirement and utilization models (§3.3 "Streaming the
//! Inputs", §4, Fig. 9).
//!
//! Per cycle a length-`l` GUST ingests, per lane: a 32-bit `M_sch` value, a
//! 32-bit `Col_sch` index and a `⌈log₂ l⌉`-bit `Row_sch` index, plus one
//! dump-signal bit — §4's "18,433 logical inputs" for `l = 256`. (The §3.3
//! text prints the formula `(64l + log l + 1)·f`, which drops the `l×`
//! factor on the row indices.)

use crate::schedule::scheduled::log2_ceil;

/// Input bits consumed per cycle, per §4's logical-input accounting:
/// `l·(32 + 32 + ⌈log₂ l⌉) + 1`.
///
/// ```
/// assert_eq!(gust::bandwidth::bits_per_cycle(256), 18_433);
/// ```
#[must_use]
pub fn bits_per_cycle(l: usize) -> u64 {
    assert!(l > 0, "length must be non-zero");
    l as u64 * (64 + u64::from(log2_ceil(l))) + 1
}

/// Peak bandwidth requirement in bytes/second at clock `frequency_hz`:
/// every cycle must deliver [`bits_per_cycle`].
#[must_use]
pub fn required_bytes_per_second(l: usize, frequency_hz: f64) -> f64 {
    bits_per_cycle(l) as f64 / 8.0 * frequency_hz
}

/// Fraction of the design's peak input bandwidth carrying *useful* (non-
/// empty-slot) data over a run: `nnz` occupied cells out of `l × colors`
/// streamed cells. This is the Fig. 9 metric — GUST's dense scheduled
/// stream keeps it high, while a 1D array streaming mostly zeros wastes
/// nearly all of its bandwidth.
#[must_use]
pub fn stream_utilization(nnz: u64, l: usize, streaming_cycles: u64) -> f64 {
    if streaming_cycles == 0 {
        return 0.0;
    }
    nnz as f64 / (l as f64 * streaming_cycles as f64)
}

/// Average *useful* bandwidth in bytes/second achieved over a run:
/// [`stream_utilization`] × [`required_bytes_per_second`].
#[must_use]
pub fn achieved_bytes_per_second(
    nnz: u64,
    l: usize,
    streaming_cycles: u64,
    frequency_hz: f64,
) -> f64 {
    stream_utilization(nnz, l, streaming_cycles) * required_bytes_per_second(l, frequency_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_logical_inputs_for_length_256() {
        // §4: 256×32 matrix + 256×32 vector + 256×8 index + 1 dump = 18,433.
        assert_eq!(bits_per_cycle(256), 18_433);
    }

    #[test]
    fn length_87_bandwidth_matches_table_2_scale() {
        // Table 2 lists 76 GB/s for length-87 GUST at 96 MHz; the model
        // gives 87×(64+7)+1 = 6178 bits/cycle -> 74.1 GB/s.
        let bw = required_bytes_per_second(87, 96.0e6);
        assert!((bw / 1.0e9 - 74.1).abs() < 1.0, "got {} GB/s", bw / 1.0e9);
    }

    #[test]
    fn length_256_bandwidth_near_paper_224() {
        // 18,433 bits × 96 MHz = 221.2 GB/s (the paper rounds to 224).
        let bw = required_bytes_per_second(256, 96.0e6);
        assert!((bw / 1.0e9 - 221.2).abs() < 1.0, "got {} GB/s", bw / 1.0e9);
    }

    #[test]
    fn stream_utilization_is_occupancy() {
        // 10 nnz in 4 lanes × 5 cycles = 20 cells -> 50%.
        assert!((stream_utilization(10, 4, 5) - 0.5).abs() < 1e-12);
        assert_eq!(stream_utilization(10, 4, 0), 0.0);
    }

    #[test]
    fn achieved_bandwidth_composes() {
        let full = required_bytes_per_second(8, 1.0e6);
        let half = achieved_bytes_per_second(4, 8, 1, 1.0e6);
        assert!((half - full / 2.0).abs() < 1e-6);
    }
}
