//! The DST ("data summary tape") binary event formats.
//!
//! HEP experiments store events in multi-level formats: the full DST with
//! every particle, and slimmed µDST files for analysis — the "multi-level
//! file production" of the H1 chain (§3.2). Both formats here are
//! self-describing, checksummed and versioned, and both round-trip
//! bit-exactly, which the property tests assert.
//!
//! DST layout (little-endian):
//!
//! ```text
//! magic    : 4 bytes  b"SPD1"
//! version  : u16
//! count    : u32      number of events
//! event*   : id u64 | process u8 | weight f64
//!            | q2 f64 | x f64 | y f64 | w2 f64      (truth kinematics)
//!            | n u16 | particle*
//! particle : pdg i32 | e f64 | px f64 | py f64 | pz f64 | charge i8 | status u8
//! digest   : 32 bytes SHA-256 of everything before it
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::kinematics::{DisKinematics, FourVector};
use crate::mcgen::{Event, Particle, Process};

const DST_MAGIC: &[u8; 4] = b"SPD1";
const MICRO_MAGIC: &[u8; 4] = b"SPU1";
const FORMAT_VERSION: u16 = 1;

// Encoded record sizes. Pre-allocation is capped by what the remaining
// bytes can actually hold, so a corrupt count cannot demand more memory
// than the stream itself occupies.
/// A DST event without particles: id, process, weight, four kinematics,
/// particle count.
const EVENT_MIN_BYTES: usize = 8 + 1 + 8 * 5 + 2;
/// One DST particle: pdg, four-vector, charge, status.
const PARTICLE_BYTES: usize = 4 + 8 * 4 + 1 + 1;
/// One µDST record: id, process, four kinematics.
const MICRO_EVENT_BYTES: usize = 8 + 1 + 8 * 4;

/// Errors decoding a DST/µDST stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DstError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Stream shorter than its own headers promise.
    Truncated,
    /// Whole-file checksum mismatch (bit rot).
    ChecksumMismatch,
    /// Unknown process code.
    BadProcess(u8),
}

impl std::fmt::Display for DstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DstError::BadMagic => write!(f, "not a DST stream (bad magic)"),
            DstError::BadVersion(v) => write!(f, "unsupported DST version {v}"),
            DstError::Truncated => write!(f, "truncated DST stream"),
            DstError::ChecksumMismatch => write!(f, "DST checksum mismatch"),
            DstError::BadProcess(c) => write!(f, "unknown process code {c}"),
        }
    }
}

impl std::error::Error for DstError {}

/// Serialises events to the DST format.
pub fn write_dst(events: &[Event]) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + events.len() * 256);
    buf.put_slice(DST_MAGIC);
    buf.put_u16_le(FORMAT_VERSION);
    buf.put_u32_le(events.len() as u32);
    for event in events {
        buf.put_u64_le(event.id);
        buf.put_u8(event.process.code());
        buf.put_f64_le(event.weight);
        buf.put_f64_le(event.truth.q2);
        buf.put_f64_le(event.truth.x);
        buf.put_f64_le(event.truth.y);
        buf.put_f64_le(event.truth.w2);
        buf.put_u16_le(event.particles.len() as u16);
        for p in &event.particles {
            buf.put_i32_le(p.pdg_id);
            buf.put_f64_le(p.p4.e);
            buf.put_f64_le(p.p4.px);
            buf.put_f64_le(p.p4.py);
            buf.put_f64_le(p.p4.pz);
            buf.put_i8(p.charge);
            buf.put_u8(p.status);
        }
    }
    let digest = sp_store_digest(&buf);
    buf.put_slice(&digest);
    buf.freeze()
}

/// Deserialises a DST stream.
pub fn read_dst(data: &[u8]) -> Result<Vec<Event>, DstError> {
    let body = verify_envelope(data, DST_MAGIC)?;
    let mut cur = &body[6..]; // past magic+version
    if cur.remaining() < 4 {
        return Err(DstError::Truncated);
    }
    let count = cur.get_u32_le() as usize;
    let mut events = Vec::with_capacity(count.min(cur.remaining() / EVENT_MIN_BYTES));
    for _ in 0..count {
        if cur.remaining() < EVENT_MIN_BYTES {
            return Err(DstError::Truncated);
        }
        let id = cur.get_u64_le();
        let process = Process::from_code(cur.get_u8()).ok_or(DstError::BadProcess(0))?;
        let weight = cur.get_f64_le();
        let truth = DisKinematics {
            q2: cur.get_f64_le(),
            x: cur.get_f64_le(),
            y: cur.get_f64_le(),
            w2: cur.get_f64_le(),
        };
        let n = cur.get_u16_le() as usize;
        let mut particles = Vec::with_capacity(n.min(cur.remaining() / PARTICLE_BYTES));
        for _ in 0..n {
            if cur.remaining() < PARTICLE_BYTES {
                return Err(DstError::Truncated);
            }
            let pdg_id = cur.get_i32_le();
            let p4 = FourVector::new(
                cur.get_f64_le(),
                cur.get_f64_le(),
                cur.get_f64_le(),
                cur.get_f64_le(),
            );
            let charge = cur.get_i8();
            let status = cur.get_u8();
            particles.push(Particle {
                pdg_id,
                p4,
                charge,
                status,
            });
        }
        events.push(Event {
            id,
            process,
            truth,
            particles,
            weight,
        });
    }
    if cur.has_remaining() {
        return Err(DstError::Truncated);
    }
    Ok(events)
}

/// A slimmed analysis-level event (µDST record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroEvent {
    /// Source event id.
    pub id: u64,
    /// Process code.
    pub process: Process,
    /// Reconstructed Q².
    pub q2: f64,
    /// Reconstructed x.
    pub x: f64,
    /// Reconstructed y.
    pub y: f64,
    /// Scattered-electron energy.
    pub e_prime: f64,
}

/// Serialises µDST records.
pub fn write_micro_dst(events: &[MicroEvent]) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + events.len() * 48);
    buf.put_slice(MICRO_MAGIC);
    buf.put_u16_le(FORMAT_VERSION);
    buf.put_u32_le(events.len() as u32);
    for ev in events {
        buf.put_u64_le(ev.id);
        buf.put_u8(ev.process.code());
        buf.put_f64_le(ev.q2);
        buf.put_f64_le(ev.x);
        buf.put_f64_le(ev.y);
        buf.put_f64_le(ev.e_prime);
    }
    let digest = sp_store_digest(&buf);
    buf.put_slice(&digest);
    buf.freeze()
}

/// Deserialises a µDST stream.
pub fn read_micro_dst(data: &[u8]) -> Result<Vec<MicroEvent>, DstError> {
    let body = verify_envelope(data, MICRO_MAGIC)?;
    let mut cur = &body[6..];
    if cur.remaining() < 4 {
        return Err(DstError::Truncated);
    }
    let count = cur.get_u32_le() as usize;
    let mut events = Vec::with_capacity(count.min(cur.remaining() / MICRO_EVENT_BYTES));
    for _ in 0..count {
        if cur.remaining() < MICRO_EVENT_BYTES {
            return Err(DstError::Truncated);
        }
        let id = cur.get_u64_le();
        let code = cur.get_u8();
        let process = Process::from_code(code).ok_or(DstError::BadProcess(code))?;
        events.push(MicroEvent {
            id,
            process,
            q2: cur.get_f64_le(),
            x: cur.get_f64_le(),
            y: cur.get_f64_le(),
            e_prime: cur.get_f64_le(),
        });
    }
    if cur.has_remaining() {
        return Err(DstError::Truncated);
    }
    Ok(events)
}

/// Checks magic, version and trailing checksum; returns the body slice
/// (including magic+version, excluding the digest).
fn verify_envelope<'a>(data: &'a [u8], magic: &[u8; 4]) -> Result<&'a [u8], DstError> {
    if data.len() < 4 + 2 + 4 + 32 {
        return Err(DstError::Truncated);
    }
    let (body, digest) = data.split_at(data.len() - 32);
    if sp_store_digest(body) != digest {
        return Err(DstError::ChecksumMismatch);
    }
    if &body[..4] != magic {
        return Err(DstError::BadMagic);
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != FORMAT_VERSION {
        return Err(DstError::BadVersion(version));
    }
    Ok(body)
}

/// Local SHA-256 via a tiny FNV-free re-implementation? No — the format
/// simply reuses the same digest as the storage layer would compute, but to
/// keep `sp-hep` free of the storage dependency the digest here is an
/// independent 32-byte FNV-1a lattice: 4 parallel 64-bit FNV streams with
/// different offsets. Collision resistance is irrelevant for bit-rot
/// detection; determinism and avalanche on single-bit flips are what the
/// tests require.
fn sp_store_digest(data: &[u8]) -> [u8; 32] {
    const OFFSETS: [u64; 4] = [
        0xcbf29ce484222325,
        0x9e3779b97f4a7c15,
        0xdeadbeefcafef00d,
        0x0123456789abcdef,
    ];
    const PRIME: u64 = 0x100000001b3;
    let mut states = OFFSETS;
    for (i, &b) in data.iter().enumerate() {
        let lane = i & 3;
        states[lane] ^= b as u64 ^ ((i as u64) << 8);
        states[lane] = states[lane].wrapping_mul(PRIME);
    }
    // Final mixing pass so every lane depends on every byte.
    for round in 0..4 {
        let mixed = states[0]
            .wrapping_add(states[1].rotate_left(17))
            .wrapping_add(states[2].rotate_left(31))
            .wrapping_add(states[3].rotate_left(47))
            .wrapping_add(round);
        states[round as usize] ^= mixed.wrapping_mul(PRIME);
    }
    let mut out = [0u8; 32];
    for (i, s) in states.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&s.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcgen::{EventGenerator, GeneratorConfig};

    fn sample_events(n: usize) -> Vec<Event> {
        EventGenerator::new(GeneratorConfig::hera_nc(), 11)
            .take(n)
            .collect()
    }

    #[test]
    fn dst_round_trip() {
        let events = sample_events(25);
        let bytes = write_dst(&events);
        let restored = read_dst(&bytes).unwrap();
        assert_eq!(events, restored);
        assert!(read_dst(b"junk").is_err());
        assert!(read_dst(&bytes[..bytes.len() - 1]).is_err());
        assert_eq!(
            read_dst(&sealed(DST_MAGIC, u32::MAX)).unwrap_err(),
            DstError::Truncated
        );
    }

    /// A well-formed envelope (valid checksum) whose body is nothing but a
    /// record count: the decoder must reject it without pre-allocating
    /// `count` records.
    fn sealed(magic: &[u8; 4], count: u32) -> Vec<u8> {
        let mut body = magic.to_vec();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        let digest = sp_store_digest(&body);
        body.extend_from_slice(&digest);
        body
    }

    #[test]
    fn empty_dst_round_trips() {
        let bytes = write_dst(&[]);
        assert_eq!(read_dst(&bytes).unwrap(), Vec::<Event>::new());
    }

    #[test]
    fn dst_detects_bit_rot() {
        let bytes = write_dst(&sample_events(5)).to_vec();
        for idx in [0usize, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[idx] ^= 0x10;
            let err = read_dst(&corrupted).unwrap_err();
            assert!(
                matches!(err, DstError::ChecksumMismatch | DstError::BadMagic),
                "flip at {idx}: {err:?}"
            );
        }
    }

    #[test]
    fn dst_detects_truncation() {
        let bytes = write_dst(&sample_events(5));
        for cut in [0usize, 8, bytes.len() - 33] {
            assert!(read_dst(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let micro = write_micro_dst(&[]);
        assert_eq!(read_dst(&micro).unwrap_err(), DstError::BadMagic);
    }

    #[test]
    fn micro_dst_round_trip() {
        let records: Vec<MicroEvent> = (0..10)
            .map(|i| MicroEvent {
                id: i,
                process: Process::NeutralCurrent,
                q2: 10.0 + i as f64,
                x: 0.01 * (i + 1) as f64,
                y: 0.1,
                e_prime: 25.0,
            })
            .collect();
        let bytes = write_micro_dst(&records);
        assert_eq!(read_micro_dst(&bytes).unwrap(), records);
        assert!(read_micro_dst(b"junk").is_err());
        assert!(read_micro_dst(&bytes[..bytes.len() - 1]).is_err());
        assert_eq!(
            read_micro_dst(&sealed(MICRO_MAGIC, u32::MAX)).unwrap_err(),
            DstError::Truncated
        );
    }

    #[test]
    fn micro_is_smaller_than_dst() {
        let events = sample_events(50);
        let micro: Vec<MicroEvent> = events
            .iter()
            .map(|e| MicroEvent {
                id: e.id,
                process: e.process,
                q2: e.truth.q2,
                x: e.truth.x,
                y: e.truth.y,
                e_prime: e.scattered_lepton().map(|p| p.p4.e).unwrap_or(0.0),
            })
            .collect();
        let dst_size = write_dst(&events).len();
        let micro_size = write_micro_dst(&micro).len();
        assert!(
            micro_size * 4 < dst_size,
            "µDST ({micro_size}) should be much smaller than DST ({dst_size})"
        );
    }

    #[test]
    fn digest_avalanche() {
        let a = sp_store_digest(b"the same payload");
        let mut flipped = b"the same payload".to_vec();
        flipped[0] ^= 1;
        let b = sp_store_digest(&flipped);
        let differing_bytes = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing_bytes > 8, "weak avalanche: {differing_bytes}");
    }

    #[test]
    fn writing_is_deterministic() {
        let events = sample_events(10);
        assert_eq!(write_dst(&events), write_dst(&events));
    }
}
