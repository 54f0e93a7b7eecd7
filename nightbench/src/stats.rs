//! Order statistics and the seeded generator every input derives from.

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail reading: the highest percentile that still has at least ten
/// samples beyond it, never below the median.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // With n samples the value at rank n-11 (0-based) has exactly ten
    // samples above it; below 22 samples that rank is not above the
    // median, so the median stands in and the label says so.
    if n >= 22 {
        Tail {
            value: sorted[n - 11],
            percentile: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    } else {
        Tail {
            value: median(values),
            percentile: 50.0,
            samples: n,
        }
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a small seeded generator, so the same `--seed` always
/// yields the same inputs without pulling in a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of the run: `stream` separates the
    /// campaign seed, the run-log mix and the query mix.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a folding of 64-bit words: the fingerprint query results are
/// checked by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub hash: u64,
    pub len: usize,
}

impl Fingerprint {
    pub fn of(words: impl IntoIterator<Item = u64>) -> Fingerprint {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut len = 0;
        for word in words {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            len += 1;
        }
        Fingerprint { hash, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        let few: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&few).value, median(&few));
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
