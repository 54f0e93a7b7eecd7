//! The one codec under every disk and wire format.
//!
//! Every format the sp-system writes — queue records, run-log cells,
//! metrics and warm-state snapshots, histogram sets, DSTs, tar-balls and
//! test outputs — is little-endian and length-prefixed. Writers append
//! fields to a `Vec<u8>` with the `put_*` functions; decoders read them
//! back through [`Cursor`], whose every `take_*` returns `None` instead of
//! reading past the end. A decoder built on it therefore fails, and never
//! panics, on truncated or corrupted input, and [`Cursor::take_count`]
//! keeps its pre-allocations proportional to the input.
//!
//! Records that must be dropped, never trusted, when damaged are framed
//! by [`seal`]:
//!
//! ```text
//! magic 4 bytes | version u32 LE | body | SHA-256 of everything before it
//! ```
//!
//! ```
//! use sp_store::wire::{self, Cursor};
//!
//! let mut body = Vec::new();
//! wire::put_str(&mut body, "h1");
//! wire::put_u64(&mut body, 42);
//! let record = wire::seal(b"SPXX", 1, &body);
//!
//! let mut cursor = Cursor::new(wire::unseal(b"SPXX", 1, &record).unwrap());
//! assert_eq!(cursor.take_str().as_deref(), Some("h1"));
//! assert_eq!(cursor.take_u64(), Some(42));
//! assert!(cursor.finished());
//! assert!(wire::unseal(b"SPXX", 2, &record).is_none());
//! ```

use crate::sha256;

/// Declares, for each fixed-width type, its little-endian writer and its
/// [`Cursor`] reader.
macro_rules! fixed_width {
    ($($put:ident / $take:ident: $t:ty),* $(,)?) => {
        $(
            #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
            pub fn $put(out: &mut Vec<u8>, v: $t) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        )*
        impl Cursor<'_> {
            $(
                #[doc = concat!("Takes a little-endian `", stringify!($t), "`.")]
                pub fn $take(&mut self) -> Option<$t> {
                    self.take_array().map(<$t>::from_le_bytes)
                }
            )*
        }
    };
}

fixed_width!(
    put_u8 / take_u8: u8,
    put_i8 / take_i8: i8,
    put_u16 / take_u16: u16,
    put_u32 / take_u32: u32,
    put_i32 / take_i32: i32,
    put_u64 / take_u64: u64,
    put_f64 / take_f64: f64,
);

/// Appends `u32`-length-prefixed raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `u16`-length-prefixed UTF-8 string (section names).
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    put_u16(out, len);
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// Bytes [`seal`] adds around a body: magic, version and digest trailer.
const SEAL_OVERHEAD: usize = 4 + 4 + 32;

/// Frames `body` as a digest-guarded record: `magic`, `version` (`u32`
/// LE), the body, then SHA-256 over all of it.
pub fn seal(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + SEAL_OVERHEAD);
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    out.extend_from_slice(body);
    let digest = sha256::digest(&out);
    out.extend_from_slice(&digest);
    out
}

/// Checks a record framed by [`seal`] — magic, version and digest — and
/// returns its body. `None` on any mismatch: the record is dropped, never
/// trusted.
pub fn unseal<'a>(magic: &[u8; 4], version: u32, bytes: &'a [u8]) -> Option<&'a [u8]> {
    let body_len = bytes.len().checked_sub(SEAL_OVERHEAD)?;
    let (framed, digest) = bytes.split_at(bytes.len() - 32);
    let mut cursor = Cursor::new(framed);
    if cursor.take_array()? != *magic || cursor.take_u32()? != version {
        return None;
    }
    (sha256::digest(framed)[..] == *digest)
        .then(|| cursor.take(body_len))
        .flatten()
}

/// A bounds-checked reader over serialised bytes: every `take_*` returns
/// `None` instead of reading past the end, so corrupted length fields
/// surface as decode failures rather than panics.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Opens a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Takes `N` raw bytes as an array (magics, digests, fixed fields).
    pub fn take_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Takes a `u32` element count for a sequence whose elements each
    /// encode to at least `min_elem_bytes` (minimum 1). `None` when the
    /// remaining bytes cannot hold that many elements, so a corrupt or
    /// hostile count can never drive a pre-allocation larger than the
    /// input itself.
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let count = self.take_u32()? as usize;
        let needed = count.checked_mul(min_elem_bytes.max(1))?;
        (needed <= self.remaining()).then_some(count)
    }

    /// Takes a `u32`-counted sequence whose elements each encode to at
    /// least `min_elem_bytes`, reading every element with `take`. The
    /// count is bounded as by [`take_count`](Self::take_count).
    pub fn take_seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut take: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count = self.take_count(min_elem_bytes)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(take(self)?);
        }
        Some(items)
    }

    /// Takes `u32`-length-prefixed bytes.
    pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.take_u32()? as usize;
        self.take(len).map(<[u8]>::to_vec)
    }

    /// Takes a `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_u32()? as usize;
        self.take_utf8(len)
    }

    /// Takes a `u16`-length-prefixed UTF-8 string.
    pub fn take_str16(&mut self) -> Option<String> {
        let len = self.take_u16()? as usize;
        self.take_utf8(len)
    }

    /// Takes `len` bytes of UTF-8 as an owned string.
    fn take_utf8(&mut self, len: usize) -> Option<String> {
        std::str::from_utf8(self.take(len)?).ok().map(str::to_owned)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_count_is_bounded_by_the_remaining_bytes() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Cursor::new(&bytes).take_count(4), Some(3));
        assert_eq!(Cursor::new(&bytes).take_count(5), None);
        assert_eq!(Cursor::new(&bytes).take_count(0), Some(3));
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Cursor::new(&huge).take_count(1), None);
        assert_eq!(Cursor::new(b"ab").take_count(1), None);
    }
}
