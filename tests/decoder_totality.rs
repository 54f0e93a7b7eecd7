//! The decoder totality gate.
//!
//! Every public decoder of bytes that come from disk or the queue wire is
//! fed random bytes and bit flips and truncations of a valid sample. A
//! digest-framed format is also damaged behind a recomputed frame, so the
//! structural reader sees the damage and not only the digest check. On
//! every input the decoder returns `Err`/`None` or a value, never panics,
//! and its peak heap during the call stays within 16 × the input length
//! plus 64 KiB. No cut decodes, except of test outputs whose text and
//! number payloads end where the input ends, and a whole-record digest or
//! checksum rejects all noise and every flip it covers.

mod samples;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use sp_system::core::fleet::{decode_campaign_config, decode_campaign_report};
use sp_system::core::{CampaignTicket, TestOutput};
use sp_system::hep::{hist_io, read_dst, read_micro_dst};
use sp_system::obs::MetricsSnapshot;
use sp_system::store::snapshot::decode_run_key;
use sp_system::store::{sha256, wire, Archive, CellRecord, Snapshot};

/// Counts the live and peak heap bytes of the allocating thread; the test
/// harness runs tests on parallel threads, so the counts are per thread.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(grown: usize, shrunk: usize) {
    let live = LIVE.with(|live| {
        live.set((live.get() + grown).saturating_sub(shrunk));
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// only adds bookkeeping in thread-local counters, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size, layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

type Decode = Box<dyn Fn(&[u8]) -> bool>;
type Reframe = Box<dyn Fn(&[u8]) -> Vec<u8>>;

/// The decoder of a sample format; `true` when it accepts its input.
fn decoder(format: &str, ticket: CampaignTicket) -> Decode {
    match format {
        "SPRL" => Box::new(|b| CellRecord::decode(b).is_some()),
        "SPMS" => Box::new(|b| MetricsSnapshot::decode(b).is_some()),
        "SPWS" => Box::new(|b| Snapshot::decode(b).is_ok()),
        "SPAR" => Box::new(|b| Archive::unpack(b).is_ok()),
        "SPD1" => Box::new(|b| read_dst(b).is_ok()),
        "SPU1" => Box::new(|b| read_micro_dst(b).is_ok()),
        "SPH1" => Box::new(|b| hist_io::decode_set(b).is_ok()),
        "run key" => Box::new(|b| decode_run_key(b).is_some()),
        "campaign config" => Box::new(|b| decode_campaign_config(b).is_some()),
        "campaign report" => Box::new(move |b| decode_campaign_report(b, ticket).is_some()),
        _ => Box::new(|b| TestOutput::from_bytes(b).is_some()),
    }
}

/// Whether a whole-record digest or checksum guards `format`. The DST
/// checksum is private to `sp-hep`, whose own tests damage the body
/// behind it.
fn guarded(format: &str) -> bool {
    matches!(format, "SPRL" | "SPMS" | "SPAR" | "SPD1" | "SPU1")
}

/// The body behind a digest frame, and how to frame a damaged body anew.
fn framing<'a>(format: &str, valid: &'a [u8]) -> Option<(&'a [u8], Reframe)> {
    let trailer = valid.len().saturating_sub(32);
    match format {
        "SPRL" | "SPMS" => {
            let magic: [u8; 4] = valid[..4].try_into().unwrap();
            let version = u32::from_le_bytes(valid[4..8].try_into().unwrap());
            let reframe = move |b: &[u8]| wire::seal(&magic, version, b);
            Some((&valid[8..trailer], Box::new(reframe)))
        }
        "SPAR" => Some((
            &valid[..trailer],
            Box::new(|b| [b, &sha256::digest(b)[..]].concat()),
        )),
        _ => None,
    }
}

/// Decodes `input`, asserting the heap bound; `true` when it is accepted.
fn decodes(format: &str, decode: &Decode, input: &[u8]) -> bool {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    let accepted = decode(input);
    let peak = PEAK.with(Cell::get) - live;
    let bound = 16 * input.len() + 64 * 1024;
    assert!(peak <= bound, "{format}: {peak} heap bytes on {input:?}");
    accepted
}

fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut flipped = bytes.to_vec();
    flipped[bit / 8] ^= 1 << (bit % 8);
    flipped
}

proptest! {
    #[test]
    fn every_decoder_is_total_on_noise(noise in prop::collection::vec(any::<u8>(), 0..512)) {
        let (encodings, ticket) = samples::encodings();
        for (format, valid) in &encodings {
            let decode = decoder(format, ticket);
            prop_assert!(decodes(format, &decode, valid), "{format} rejects its sample");
            prop_assert!(!(guarded(format) && decodes(format, &decode, &noise)), "{format}");
            if let Some((_, reframe)) = framing(format, valid) {
                decodes(format, &decode, &reframe(&noise));
            }
        }
    }
}

#[test]
fn every_decoder_is_total_on_each_flip_and_cut() {
    let (encodings, ticket) = samples::encodings();
    for (format, valid) in &encodings {
        let decode = decoder(format, ticket);
        for bit in 0..valid.len() * 8 {
            let accepted = decodes(format, &decode, &flip(valid, bit));
            assert!(
                !(guarded(format) && accepted),
                "{format}: flip of bit {bit}"
            );
        }
        // Test outputs' text and number payloads end where the input ends.
        let cut_may_decode = matches!(*format, "T" | "N");
        for cut in 0..valid.len() {
            let accepted = decodes(format, &decode, &valid[..cut]);
            assert!(!accepted || cut_may_decode, "{format}: cut at {cut}");
        }
        if let Some((body, reframe)) = framing(format, valid) {
            for bit in 0..body.len() * 8 {
                decodes(format, &decode, &reframe(&flip(body, bit)));
            }
            for cut in 0..body.len() {
                let accepted = decodes(format, &decode, &reframe(&body[..cut]));
                assert!(!accepted, "{format}: re-framed cut at {cut}");
            }
        }
    }
}
