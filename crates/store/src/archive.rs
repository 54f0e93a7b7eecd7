//! The `SPAR` archive format.
//!
//! The paper stores the binaries resulting from each package compilation "as
//! tar-balls on the common storage within the sp-system". `SPAR` is the
//! stand-in: a deterministic, self-describing container with named entries,
//! Unix modes and a trailing whole-archive checksum.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : 4 bytes  b"SPAR"
//! version : u16      (currently 1)
//! count   : u32      number of entries
//! entry*  : path_len u16 | path utf-8 | mode u32 | data_len u32 | data
//! digest  : 32 bytes SHA-256 of everything before it
//! ```
//!
//! Entries are sorted by path at pack time so that packing is deterministic:
//! the same logical contents always yield the same bytes, hence the same
//! [`ObjectId`] — which is what makes artifact
//! deduplication across validation runs work.

use bytes::Bytes;

use crate::wire::{self, Cursor};
use crate::{sha256, ObjectId, Result, StoreError};

const MAGIC: &[u8; 4] = b"SPAR";
const VERSION: u16 = 1;

/// A named member of an [`Archive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveEntry {
    /// Relative path inside the archive (`bin/h1rec`, `lib/libh1geom.a`…).
    pub path: String,
    /// Unix permission bits (e.g. `0o755` for executables).
    pub mode: u32,
    /// File contents.
    pub data: Bytes,
}

impl ArchiveEntry {
    /// Creates an entry with the default non-executable mode.
    pub fn file(path: impl Into<String>, data: impl Into<Bytes>) -> Self {
        ArchiveEntry {
            path: path.into(),
            mode: 0o644,
            data: data.into(),
        }
    }

    /// Creates an executable entry.
    pub fn executable(path: impl Into<String>, data: impl Into<Bytes>) -> Self {
        ArchiveEntry {
            path: path.into(),
            mode: 0o755,
            data: data.into(),
        }
    }
}

/// An in-memory archive: the sp-system's "tar-ball".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Archive {
    entries: Vec<ArchiveEntry>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Adds an entry. Paths must be relative and free of `..` components.
    pub fn add(&mut self, entry: ArchiveEntry) -> Result<()> {
        validate_path(&entry.path)?;
        self.entries.push(entry);
        Ok(())
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by exact path.
    pub fn entry(&self, path: &str) -> Option<&ArchiveEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// Total payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Serialises to the `SPAR` wire format. Entries are emitted in path
    /// order for determinism.
    pub fn pack(&self) -> Bytes {
        self.pack_with_id().0
    }

    /// Serialises to the `SPAR` wire format and returns the packed bytes
    /// together with their content address.
    ///
    /// The wire format's trailing checksum is SHA-256 of the body, and the
    /// [`ObjectId`] of the packed archive is SHA-256 of body-plus-trailer —
    /// a shared prefix. Packing used to hash the body for the trailer and
    /// then let the store hash body+trailer again; here the body is hashed
    /// once and the running state forked for the trailer, so storing an
    /// archive costs one hash pass instead of two. The emitted bytes are
    /// identical to [`pack`](Self::pack)'s.
    pub fn pack_with_id(&self) -> (Bytes, ObjectId) {
        let mut sorted: Vec<&ArchiveEntry> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));

        let mut buf = Vec::with_capacity(64 + self.payload_bytes());
        buf.extend_from_slice(MAGIC);
        wire::put_u16(&mut buf, VERSION);
        wire::put_u32(&mut buf, sorted.len() as u32);
        for entry in sorted {
            // `add` bounds every path by the `u16` prefix, so nothing clamps.
            wire::put_str16(&mut buf, &entry.path);
            wire::put_u32(&mut buf, entry.mode);
            wire::put_bytes(&mut buf, &entry.data);
        }
        let mut hasher = sha256::Sha256::new();
        hasher.update(&buf);
        let digest = hasher.clone().finalize();
        buf.extend_from_slice(&digest);
        hasher.update(&digest);
        (Bytes::from(buf), ObjectId(hasher.finalize()))
    }

    /// Decodes a `SPAR` archive, verifying magic, version and checksum.
    pub fn unpack(data: &[u8]) -> Result<Self> {
        let mut verdicts = Self::unpack_batch(&[data], &sha256::MultilaneDigester);
        verdicts.pop().expect("one verdict per payload")
    }

    /// Decodes several `SPAR` archives at once, verifying all their
    /// checksums through one [`BatchDigester`](sha256::BatchDigester)
    /// pass — the independent whole-archive re-hashes run four to a lane
    /// (or across an executor pool) instead of one after another, which
    /// is where unpack verification spends its time on conserved
    /// tar-balls. `result[i]` is the verdict on `payloads[i]`.
    pub fn unpack_batch(
        payloads: &[&[u8]],
        digester: &dyn sha256::BatchDigester,
    ) -> Vec<Result<Self>> {
        let bad = |msg: &str| StoreError::BadArchive(msg.to_string());
        // Split every payload that is long enough; short ones keep their
        // error slot without contributing a hash input.
        let split: Vec<Option<(&[u8], &[u8])>> = payloads
            .iter()
            .map(|data| {
                (data.len() >= MAGIC.len() + 2 + 4 + 32).then(|| data.split_at(data.len() - 32))
            })
            .collect();
        let bodies: Vec<&[u8]> = split
            .iter()
            .filter_map(|s| s.map(|(body, _)| body))
            .collect();
        let mut digests = digester.digest_all(&bodies).into_iter();
        split
            .into_iter()
            .map(|entry| {
                let Some((body, digest)) = entry else {
                    return Err(bad("truncated header"));
                };
                let actual = digests.next().expect("one digest per hashed body");
                if actual[..] != *digest {
                    return Err(bad("checksum mismatch"));
                }
                Self::decode_verified_body(body)
            })
            .collect()
    }

    /// Decodes an archive body whose trailing checksum has already been
    /// verified (magic and version are still checked here).
    fn decode_verified_body(body: &[u8]) -> Result<Self> {
        let bad = |msg: &str| StoreError::BadArchive(msg.to_string());
        let mut cur = Cursor::new(body);
        if cur.take_array() != Some(*MAGIC) {
            return Err(bad("bad magic"));
        }
        let (version, count) = cur
            .take_u16()
            .zip(cur.take_u32())
            .ok_or_else(|| bad("truncated header"))?;
        if version != VERSION {
            return Err(StoreError::BadArchive(format!(
                "unsupported version {version}"
            )));
        }
        let mut archive = Archive::new();
        for _ in 0..count {
            let mut take_entry = || {
                let path = cur.take_str16()?;
                let mode = cur.take_u32()?;
                let len = cur.take_u32()? as usize;
                let data = Bytes::copy_from_slice(cur.take(len)?);
                Some(ArchiveEntry { path, mode, data })
            };
            archive.add(take_entry().ok_or_else(|| bad("truncated or non-UTF-8 entry"))?)?;
        }
        if !cur.finished() {
            return Err(bad("trailing bytes after last entry"));
        }
        Ok(archive)
    }
}

fn validate_path(path: &str) -> Result<()> {
    let reject = |p: &str| Err(StoreError::BadPath(p.to_string()));
    // The wire format prefixes each path with its `u16` byte length.
    if path.is_empty() || path.starts_with('/') || path.len() > u16::MAX as usize {
        return reject(path);
    }
    if path
        .split('/')
        .any(|c| c.is_empty() || c == "." || c == "..")
    {
        return reject(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Archive {
        let mut a = Archive::new();
        a.add(ArchiveEntry::executable("bin/h1rec", &b"\x7fELF..."[..]))
            .unwrap();
        a.add(ArchiveEntry::file("lib/libh1geom.a", &b"!<arch>"[..]))
            .unwrap();
        a.add(ArchiveEntry::file("share/steering.dat", &b"Q2MIN 4.0"[..]))
            .unwrap();
        a
    }

    #[test]
    fn pack_unpack_round_trip() {
        let archive = sample();
        let packed = archive.pack();
        let unpacked = Archive::unpack(&packed).unwrap();
        assert_eq!(unpacked.len(), 3);
        let rec = unpacked.entry("bin/h1rec").unwrap();
        assert_eq!(rec.mode, 0o755);
        assert_eq!(rec.data.as_ref(), b"\x7fELF...");
    }

    #[test]
    fn pack_with_id_addresses_the_packed_bytes() {
        let (packed, id) = sample().pack_with_id();
        assert_eq!(id, ObjectId::for_bytes(&packed));
        assert_eq!(packed, sample().pack());
    }

    #[test]
    fn pack_is_deterministic_under_insertion_order() {
        let mut a = Archive::new();
        a.add(ArchiveEntry::file("b", &b"2"[..])).unwrap();
        a.add(ArchiveEntry::file("a", &b"1"[..])).unwrap();
        let mut b = Archive::new();
        b.add(ArchiveEntry::file("a", &b"1"[..])).unwrap();
        b.add(ArchiveEntry::file("b", &b"2"[..])).unwrap();
        assert_eq!(a.pack(), b.pack());
    }

    #[test]
    fn unpack_rejects_bit_flips() {
        let packed = sample().pack().to_vec();
        for idx in [0usize, 6, packed.len() / 2, packed.len() - 1] {
            let mut corrupted = packed.clone();
            corrupted[idx] ^= 0x01;
            assert!(
                Archive::unpack(&corrupted).is_err(),
                "flip at {idx} went undetected"
            );
        }
    }

    #[test]
    fn unpack_batch_matches_unpack_per_payload() {
        let good = sample().pack();
        let mut flipped = good.to_vec();
        flipped[good.len() / 2] ^= 0x01;
        let empty = Archive::new().pack();
        let short = &good[..10];
        let payloads: Vec<&[u8]> = vec![&good, &flipped, &empty, short, &good];
        let verdicts = Archive::unpack_batch(&payloads, &crate::sha256::MultilaneDigester);
        assert_eq!(verdicts.len(), payloads.len());
        for (verdict, payload) in verdicts.iter().zip(&payloads) {
            assert_eq!(
                verdict.is_ok(),
                Archive::unpack(payload).is_ok(),
                "batch verdict diverges from unpack"
            );
        }
        assert_eq!(verdicts[0].as_ref().unwrap(), &sample());
        assert!(verdicts[2].as_ref().unwrap().is_empty());
    }

    #[test]
    fn unpack_rejects_truncation() {
        let packed = sample().pack();
        for cut in [0usize, 5, 20, packed.len() - 1] {
            assert!(Archive::unpack(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_escaping_paths() {
        let mut a = Archive::new();
        for bad in ["/abs", "../up", "a/../b", "", "a//b", "./x"] {
            assert!(
                a.add(ArchiveEntry::file(bad, &b""[..])).is_err(),
                "path '{bad}' accepted"
            );
        }
        // Longer than the `u16` length prefix: packing would wrap it.
        let long = "x".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            a.add(ArchiveEntry::file(long, &b""[..])),
            Err(StoreError::BadPath(_))
        ));
        a.add(ArchiveEntry::file(
            "x".repeat(u16::MAX as usize),
            &b"ok"[..],
        ))
        .unwrap();
        assert_eq!(Archive::unpack(&a.pack()).unwrap(), a);
    }

    #[test]
    fn empty_archive_round_trips() {
        let a = Archive::new();
        let unpacked = Archive::unpack(&a.pack()).unwrap();
        assert!(unpacked.is_empty());
    }

    #[test]
    fn payload_bytes_counts_all_entries() {
        assert_eq!(sample().payload_bytes(), 7 + 7 + 9);
    }
}
