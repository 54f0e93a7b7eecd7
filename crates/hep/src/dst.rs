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
//! checksum : 32 bytes, a 4-lane FNV-1a lattice of everything before it
//! ```
//!
//! The µDST layout shares the header and checksum; its records are
//! `id u64 | process u8 | q2 f64 | x f64 | y f64 | e_prime f64`.
//!
//! The checksum detects bit rot; it is not a content address (the storage
//! layer addresses the whole file by SHA-256). It stays as it is because
//! changing it would change every conserved DST's bytes, and with them
//! their content addresses.

use sp_store::wire::{self, Cursor};

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
pub fn write_dst(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + events.len() * 256);
    put_header(&mut buf, DST_MAGIC, events.len());
    for event in events {
        wire::put_u64(&mut buf, event.id);
        buf.push(event.process.code());
        for v in [
            event.weight,
            event.truth.q2,
            event.truth.x,
            event.truth.y,
            event.truth.w2,
        ] {
            wire::put_f64(&mut buf, v);
        }
        wire::put_u16(&mut buf, event.particles.len() as u16);
        for p in &event.particles {
            wire::put_i32(&mut buf, p.pdg_id);
            for v in [p.p4.e, p.p4.px, p.p4.py, p.p4.pz] {
                wire::put_f64(&mut buf, v);
            }
            buf.push(p.charge as u8);
            buf.push(p.status);
        }
    }
    seal_checksum(buf)
}

/// Deserialises a DST stream.
pub fn read_dst(data: &[u8]) -> Result<Vec<Event>, DstError> {
    read_records(data, DST_MAGIC, EVENT_MIN_BYTES, |cur| {
        let id = cur.take_u64().ok_or(DstError::Truncated)?;
        let process = take_process(cur)?;
        let mut take_rest = || {
            let weight = cur.take_f64()?;
            let truth = DisKinematics {
                q2: cur.take_f64()?,
                x: cur.take_f64()?,
                y: cur.take_f64()?,
                w2: cur.take_f64()?,
            };
            let n = cur.take_u16()? as usize;
            let mut particles = Vec::with_capacity(n.min(cur.remaining() / PARTICLE_BYTES));
            for _ in 0..n {
                particles.push(Particle {
                    pdg_id: cur.take_i32()?,
                    p4: FourVector::new(
                        cur.take_f64()?,
                        cur.take_f64()?,
                        cur.take_f64()?,
                        cur.take_f64()?,
                    ),
                    charge: cur.take_i8()?,
                    status: cur.take_u8()?,
                });
            }
            Some(Event {
                id,
                process,
                truth,
                particles,
                weight,
            })
        };
        take_rest().ok_or(DstError::Truncated)
    })
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
pub fn write_micro_dst(events: &[MicroEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + events.len() * 48);
    put_header(&mut buf, MICRO_MAGIC, events.len());
    for ev in events {
        wire::put_u64(&mut buf, ev.id);
        buf.push(ev.process.code());
        for v in [ev.q2, ev.x, ev.y, ev.e_prime] {
            wire::put_f64(&mut buf, v);
        }
    }
    seal_checksum(buf)
}

/// Deserialises a µDST stream.
pub fn read_micro_dst(data: &[u8]) -> Result<Vec<MicroEvent>, DstError> {
    read_records(data, MICRO_MAGIC, MICRO_EVENT_BYTES, |cur| {
        let id = cur.take_u64().ok_or(DstError::Truncated)?;
        let process = take_process(cur)?;
        let mut take_rest = || {
            Some(MicroEvent {
                id,
                process,
                q2: cur.take_f64()?,
                x: cur.take_f64()?,
                y: cur.take_f64()?,
                e_prime: cur.take_f64()?,
            })
        };
        take_rest().ok_or(DstError::Truncated)
    })
}

fn put_header(buf: &mut Vec<u8>, magic: &[u8; 4], count: usize) {
    buf.extend_from_slice(magic);
    wire::put_u16(buf, FORMAT_VERSION);
    wire::put_u32(buf, count as u32);
}

/// Appends the checksum trailer over everything written so far.
fn seal_checksum(mut buf: Vec<u8>) -> Vec<u8> {
    let checksum = fnv_lattice(&buf);
    buf.extend_from_slice(&checksum);
    buf
}

/// Reads a DST-family stream: checks the trailing checksum, magic and
/// version, then reads the counted records with `take_record`. The count
/// is refused when the body cannot hold that many records of at least
/// `min_record_bytes`, so it never drives a larger pre-allocation than the
/// stream itself, and every byte of the body must belong to a record.
fn read_records<T>(
    data: &[u8],
    magic: &[u8; 4],
    min_record_bytes: usize,
    mut take_record: impl FnMut(&mut Cursor<'_>) -> Result<T, DstError>,
) -> Result<Vec<T>, DstError> {
    if data.len() < 4 + 2 + 4 + 32 {
        return Err(DstError::Truncated);
    }
    let (body, checksum) = data.split_at(data.len() - 32);
    if fnv_lattice(body)[..] != *checksum {
        return Err(DstError::ChecksumMismatch);
    }
    let mut cur = Cursor::new(body);
    if cur.take_array() != Some(*magic) {
        return Err(DstError::BadMagic);
    }
    let version = cur.take_u16().ok_or(DstError::Truncated)?;
    if version != FORMAT_VERSION {
        return Err(DstError::BadVersion(version));
    }
    let count = cur
        .take_count(min_record_bytes)
        .ok_or(DstError::Truncated)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(take_record(&mut cur)?);
    }
    if !cur.finished() {
        return Err(DstError::Truncated);
    }
    Ok(records)
}

fn take_process(cur: &mut Cursor<'_>) -> Result<Process, DstError> {
    let code = cur.take_u8().ok_or(DstError::Truncated)?;
    Process::from_code(code).ok_or(DstError::BadProcess(code))
}

/// The DST checksum: four interleaved 64-bit FNV-1a streams with
/// different offsets (byte `i` feeds lane `i % 4`, mixed with its
/// position), folded together by a final mixing pass so every output byte
/// depends on every input byte. Collision resistance is irrelevant for
/// bit-rot detection; determinism and avalanche on single-bit flips are
/// what the tests require.
fn fnv_lattice(data: &[u8]) -> [u8; 32] {
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
        assert_total(&write_dst(&sample_events(2)), read_dst);
        let mut body = bytes[..bytes.len() - 32].to_vec();
        body[10 + 8] = 0xee; // the first event's process code, after its id
        let unknown_process = read_dst(&seal_checksum(body));
        assert_eq!(unknown_process, Err(DstError::BadProcess(0xee)));
    }

    /// A well-formed envelope (valid checksum) whose body is nothing but a
    /// record count: the decoder must reject it without pre-allocating
    /// `count` records.
    fn sealed(magic: &[u8; 4], count: u32) -> Vec<u8> {
        let mut body = Vec::new();
        put_header(&mut body, magic, count as usize);
        seal_checksum(body)
    }

    /// Damages the body behind a recomputed checksum, so the structural
    /// reader sees every cut, every bit flip, and noise after the header:
    /// nothing panics, and no cut decodes.
    fn assert_total<T>(bytes: &[u8], read: fn(&[u8]) -> Result<T, DstError>) {
        let body = &bytes[..bytes.len() - 32];
        for cut in 0..body.len() {
            assert!(read(&seal_checksum(body[..cut].to_vec())).is_err());
        }
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = read(&seal_checksum(flipped));
        }
        for len in 0..256u64 {
            let mut noisy = body[..6].to_vec();
            noisy.extend(
                (0..len).map(|i| ((len * 0x9e37_79b9) ^ (i * 0x85eb_ca6b)).to_le_bytes()[2]),
            );
            let _ = read(&seal_checksum(noisy));
        }
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
        assert_total(&bytes, read_micro_dst);
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
        let a = fnv_lattice(b"the same payload");
        let mut flipped = b"the same payload".to_vec();
        flipped[0] ^= 1;
        let b = fnv_lattice(&flipped);
        let differing_bytes = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing_bytes > 8, "weak avalanche: {differing_bytes}");
    }

    #[test]
    fn writing_is_deterministic() {
        let events = sample_events(10);
        assert_eq!(write_dst(&events), write_dst(&events));
    }
}
