//! Binary serialisation of histograms.
//!
//! Validation outputs are kept in the common storage by content address;
//! histograms therefore need a deterministic byte encoding. The format is
//! little-endian, length-prefixed and versioned:
//!
//! ```text
//! set   : magic b"SPH1" | version u16 | count u32 | hist*
//! hist  : name_len u16 | name utf-8 | nbins u32 | lo f64 | hi f64
//!         | counts f64* | sumw2 f64* | underflow f64 | overflow f64
//!         | entries u64 | sum_w f64 | sum_wx f64 | sum_wx2 f64
//! ```
//!
//! Decoding reads through [`sp_store::wire::Cursor`], so a truncated or
//! corrupt stream is an error, never a panic, and refuses a histogram
//! that [`Histogram1D::new`] would refuse: no bins, or a range that is
//! not finite and increasing.

use sp_store::wire::Cursor;

use crate::hist::{Histogram1D, HistogramSet};

const MAGIC: &[u8; 4] = b"SPH1";
const VERSION: u16 = 1;

/// Errors decoding a histogram stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistIoError {
    /// Wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Stream shorter than promised.
    Truncated,
    /// Histogram name is not UTF-8.
    BadName,
    /// No bins, or a range that is not finite and increasing.
    BadAxis,
}

impl std::fmt::Display for HistIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistIoError::BadMagic => write!(f, "not a histogram stream"),
            HistIoError::BadVersion(v) => write!(f, "unsupported histogram version {v}"),
            HistIoError::Truncated => write!(f, "truncated histogram stream"),
            HistIoError::BadName => write!(f, "invalid histogram name"),
            HistIoError::BadAxis => write!(f, "invalid histogram binning"),
        }
    }
}

impl std::error::Error for HistIoError {}

/// Serialises a histogram set.
pub fn encode_set(set: &HistogramSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + set.len() * 512);
    encode_set_with(set, &mut |bytes| buf.extend_from_slice(bytes));
    buf
}

/// Streams the set encoding through `emit` field by field, so callers can
/// hash or tee the bytes without materialising the whole encoding first
/// (the digest-first content-addressing path relies on this).
pub fn encode_set_with(set: &HistogramSet, emit: &mut dyn FnMut(&[u8])) {
    emit(MAGIC);
    emit(&VERSION.to_le_bytes());
    emit(&(set.len() as u32).to_le_bytes());
    for hist in set.iter() {
        encode_hist_with(hist, emit);
    }
}

/// Deserialises a histogram set.
pub fn decode_set(data: &[u8]) -> Result<HistogramSet, HistIoError> {
    let mut cur = Cursor::new(data);
    if cur.take_array::<4>().ok_or(HistIoError::Truncated)? != *MAGIC {
        return Err(HistIoError::BadMagic);
    }
    let version = cur.take_u16().ok_or(HistIoError::Truncated)?;
    if version != VERSION {
        return Err(HistIoError::BadVersion(version));
    }
    let count = cur.take_u32().ok_or(HistIoError::Truncated)?;
    let mut set = HistogramSet::new();
    for _ in 0..count {
        set.insert(decode_hist(&mut cur)?);
    }
    if !cur.finished() {
        return Err(HistIoError::Truncated);
    }
    Ok(set)
}

fn encode_hist_with(hist: &Histogram1D, emit: &mut dyn FnMut(&[u8])) {
    let name_len = u16::try_from(hist.name().len()).expect("Histogram1D::new bounds the name");
    emit(&name_len.to_le_bytes());
    emit(hist.name().as_bytes());
    emit(&(hist.nbins() as u32).to_le_bytes());
    emit(&hist.lo().to_le_bytes());
    emit(&hist.hi().to_le_bytes());
    for &c in hist.counts() {
        emit(&c.to_le_bytes());
    }
    for &s in hist.sumw2() {
        emit(&s.to_le_bytes());
    }
    emit(&hist.underflow().to_le_bytes());
    emit(&hist.overflow().to_le_bytes());
    emit(&hist.entries().to_le_bytes());
    let (sum_w, sum_wx, sum_wx2) = hist.moment_sums();
    emit(&sum_w.to_le_bytes());
    emit(&sum_wx.to_le_bytes());
    emit(&sum_wx2.to_le_bytes());
}

fn decode_hist(cur: &mut Cursor<'_>) -> Result<Histogram1D, HistIoError> {
    let name_len = cur.take_u16().ok_or(HistIoError::Truncated)? as usize;
    let name = cur.take(name_len).ok_or(HistIoError::Truncated)?;
    let name = std::str::from_utf8(name)
        .map_err(|_| HistIoError::BadName)?
        .to_string();
    // Counts and sumw2 take 16 bytes per bin, so the bin count is bounded
    // by the bytes left before anything is allocated for it.
    let nbins = cur.take_count(16).ok_or(HistIoError::Truncated)?;
    let (lo, hi) = cur
        .take_f64()
        .zip(cur.take_f64())
        .ok_or(HistIoError::Truncated)?;
    // What `Histogram1D::new` asserts; a NaN or infinite edge fails it.
    if nbins == 0 || !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(HistIoError::BadAxis);
    }
    let take_rest = || {
        let counts = take_f64s(cur, nbins)?;
        let sumw2 = take_f64s(cur, nbins)?;
        Some(Histogram1D::from_parts(
            name,
            nbins,
            lo,
            hi,
            counts,
            sumw2,
            cur.take_f64()?,
            cur.take_f64()?,
            cur.take_u64()?,
            cur.take_f64()?,
            cur.take_f64()?,
            cur.take_f64()?,
        ))
    };
    take_rest().ok_or(HistIoError::Truncated)
}

fn take_f64s(cur: &mut Cursor<'_>, n: usize) -> Option<Vec<f64>> {
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(cur.take_f64()?);
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram1D;

    fn sample_set() -> HistogramSet {
        let mut q2 = Histogram1D::new("q2", 20, 0.0, 100.0);
        q2.fill(5.0);
        q2.fill_weighted(55.0, 2.5);
        q2.fill(-1.0);
        q2.fill(200.0);
        let mut y = Histogram1D::new("y", 10, 0.0, 1.0);
        y.fill(0.3);
        [q2, y].into_iter().collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let set = sample_set();
        let decoded = decode_set(&encode_set(&set)).unwrap();
        assert_eq!(set, decoded);
        // Statistical comparisons on the decoded set behave identically.
        let p = set
            .get("q2")
            .unwrap()
            .chi2_test(decoded.get("q2").unwrap())
            .unwrap();
        assert_eq!(p.chi2, 0.0);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = HistogramSet::new();
        assert_eq!(decode_set(&encode_set(&set)).unwrap(), set);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_set(&sample_set()), encode_set(&sample_set()));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_set(&sample_set());
        for cut in [0usize, 4, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_set(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn longest_storable_name_round_trips() {
        let mut hist = Histogram1D::new("n".repeat(usize::from(u16::MAX)), 2, 0.0, 1.0);
        hist.fill(0.25);
        let set: HistogramSet = [hist].into_iter().collect();
        assert_eq!(decode_set(&encode_set(&set)).unwrap(), set);
    }

    #[test]
    #[should_panic(expected = "exceeds 65535 bytes")]
    fn unstorable_name_is_refused_at_construction() {
        Histogram1D::new("n".repeat(usize::from(u16::MAX) + 1), 2, 0.0, 1.0);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode_set(&sample_set());
        bytes[0] = b'X';
        assert_eq!(decode_set(&bytes).unwrap_err(), HistIoError::BadMagic);
    }

    #[test]
    fn bad_binning_rejected() {
        // `lo` of the first histogram ("q2") sits behind the set header,
        // the name and the bin count.
        let lo_at = 10 + 2 + 2 + 4;
        let valid = encode_set(&sample_set());
        for edge in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 100.0] {
            let mut bytes = valid.clone();
            bytes[lo_at..lo_at + 8].copy_from_slice(&edge.to_le_bytes());
            assert_eq!(decode_set(&bytes), Err(HistIoError::BadAxis), "lo = {edge}");
        }
        let mut no_bins = valid;
        no_bins[lo_at - 4..lo_at].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_set(&no_bins), Err(HistIoError::BadAxis));
    }
}
