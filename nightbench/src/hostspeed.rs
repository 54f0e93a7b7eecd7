//! Host speed: a fixed kernel of the benchmark's own, timed right before
//! and right after every measured block, so each block's wall time can be
//! read at one reference speed.
//!
//! On a shared host the same code runs tens of percent faster or slower
//! from one run to the next, in every metric at once, as neighbours load
//! the machine's cores, caches and memory. A run cannot average that out,
//! but it can see it: the kernel slows down with the work around it. Each
//! block's wall time is multiplied by `REFERENCE_MS / kernel_ms`, where
//! `kernel_ms` is the median of the kernel timings around the block: the
//! two that bracket it and [`WINDOW`] more on either side, so one
//! disturbed timing cannot set a block's factor. The kernel uses only the
//! standard library, never the program under test, so a change to the
//! program moves the scaled times and leaves the kernel alone.
//!
//! Nights and set-ups are scaled by the whole kernel. Restart cycles mix
//! small-file reads with in-memory index work, and as the host's state
//! changes the file reads can slow down far more than the kernel's map
//! and arithmetic work; so the read side is scaled by the geometric mean
//! of the whole kernel's factor and that of its file reads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::{median, Rng};

/// Kernel time, in ms, that defines the reference speed: a scaled time is
/// the wall time the block would take on a host that runs the kernel in
/// exactly this long. It is about the kernel's median on the 2-core host
/// the README's figures come from, so scaled times read close to wall
/// times there.
pub const REFERENCE_MS: f64 = 2.0;

/// Time of the kernel's file reads, in ms, that defines the reference
/// speed of the read side: about their median on the same host when the
/// whole kernel takes `REFERENCE_MS`.
pub const REFERENCE_READS_MS: f64 = 0.1;

/// Kernel timings taken into a block's factor on either side beyond the
/// two that bracket it.
pub const WINDOW: usize = 8;

/// Size of the file the kernel reads back.
const FILE_BYTES: usize = 4096;

pub struct HostSpeed {
    file: PathBuf,
    /// Every kernel timing of the run, ms.
    pub samples: Vec<f64>,
    /// The file-read part of every kernel timing, ms.
    pub read_samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new(work: &Path) -> Result<HostSpeed, String> {
        std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
        let file = work.join("hostspeed.bin");
        std::fs::write(&file, vec![0x5a; FILE_BYTES])
            .map_err(|e| format!("host-speed file: {e}"))?;
        Ok(HostSpeed {
            file,
            samples: Vec::new(),
            read_samples: Vec::new(),
        })
    }

    /// Runs the kernel once and returns the index of its timing: a block
    /// measured between timings `i` and `i + 1` is identified by `i`.
    pub fn sample(&mut self) -> usize {
        let start = Instant::now();
        let reads_ms = kernel(&self.file);
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
        self.read_samples.push(reads_ms);
        self.samples.len() - 1
    }

    /// The factor that takes the wall time of the night or set-up after
    /// timing `before` to the reference speed.
    pub fn scale(&self, before: usize) -> f64 {
        REFERENCE_MS / around(&self.samples, before)
    }

    /// The factor that takes the wall time of the read cycles after
    /// timing `before` to the reference speed.
    pub fn scale_reads(&self, before: usize) -> f64 {
        let reads = REFERENCE_READS_MS / around(&self.read_samples, before);
        (self.scale(before) * reads).sqrt()
    }
}

/// The median of the timings around the block after timing `before`.
fn around(samples: &[f64], before: usize) -> f64 {
    let from = before.saturating_sub(WINDOW);
    let to = (before + 2 + WINDOW).min(samples.len());
    median(&samples[from..to])
}

/// The work the benchmark's workloads do, in miniature: string-keyed map
/// inserts and lookups (the run history's indexes), integer mixing (the
/// hashing and the chains) and small page-cache file reads (the queue and
/// the run log). Returns the time of the file reads, in ms.
fn kernel(file: &Path) -> f64 {
    let mut rng = Rng::new(0x6b65_726e, 0);
    let mut map = std::collections::BTreeMap::new();
    for i in 0..2000u64 {
        map.insert(format!("cell-{}-{i}", rng.below(50)), [i; 8]);
    }
    let mut found = 0u64;
    for _ in 0..2000 {
        let key = format!("cell-{}-{}", rng.below(50), rng.below(2000));
        found += map.get(&key).map_or(0, |v| v[0]);
    }
    let mut mix = 1u64;
    for i in 0..200_000u64 {
        mix = (mix ^ i)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
    }
    let reads = Instant::now();
    let mut bytes = 0;
    for _ in 0..40 {
        bytes += std::fs::read(file).map_or(0, |b| b.len());
    }
    let reads_ms = reads.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box((found, mix, bytes, map));
    reads_ms
}
