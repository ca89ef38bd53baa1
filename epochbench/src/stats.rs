//! Order statistics and the run digest.

/// A tail percentile is only reported where at least this many samples lie
/// beyond it; with fewer, one stray sample would decide the value.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of ascending `sorted` samples;
/// `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest nearest-rank percentile at or below `q` that keeps at least
/// [`TAIL_MIN`] samples beyond it, as `(value, effective quantile)`.
/// `None` when there are no more than [`TAIL_MIN`] samples.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_MIN {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n - TAIL_MIN);
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// Sorts samples ascending (they are finite host times).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a over everything an episode produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 above.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some((990.0, 0.99)));
        // 500 samples: p99 (rank 495) would leave 5 above, so the reported
        // tail drops to rank 490, the highest with 10 above.
        let (v, q) = tail_percentile(&ramp(500), 0.99).unwrap();
        assert_eq!(v, 490.0);
        assert!((q - 0.98).abs() < 1e-12);
        assert_eq!(ramp(500).iter().filter(|&&x| x > v).count(), TAIL_MIN);
        // Too few samples for any tail.
        assert_eq!(tail_percentile(&ramp(10), 0.99), None);
        assert_eq!(tail_percentile(&ramp(11), 0.99), Some((1.0, 1.0 / 11.0)));
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut bits = Fnv::default();
        bits.f64(0.0);
        let mut neg = Fnv::default();
        neg.f64(-0.0);
        assert_ne!(bits, neg, "digest folds exact float bits");
    }
}
