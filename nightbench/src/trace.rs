//! The traced run's instruments: driver spans around public calls, and a
//! counting `StoreFs` that buckets durable I/O by subtree.

use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sp_store::vfs::{OsFs, StoreFs};

/// One recorded span: a public call the benchmark made, with the span
/// that enclosed it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl SpanRecord {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1_000.0
    }
}

/// In-memory span recorder. Disabled recorders record nothing, so the
/// timed runs pay no tracing cost; spans are written out when the run
/// ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while the tracer is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(SpanRecord {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
            self.open.retain(|open| *open != id);
        }
    }

    /// Durations in ms of every span named `name` whose parent is a span
    /// named `parent`, summed per parent: one value per enclosing night.
    pub fn per_parent_ms(&self, name: &str, parent: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<usize, f64> = Default::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            if let Some(p) = span.parent.filter(|p| self.spans[*p].name == parent) {
                *sums.entry(p).or_default() += span.ms();
            }
        }
        sums.into_values().collect()
    }

    /// Durations in ms of every span named `name`.
    pub fn all_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::ms)
            .collect()
    }

    /// Writes the spans as JSON lines (name, start, end, parent).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                span.name, span.start_us, span.end_us
            )?;
        }
        out.flush()
    }
}

/// Durable-I/O subtrees the counting filesystem tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subtree {
    /// The work queue: submissions, leases, reports, workers (and its
    /// staging and poison directories).
    Wq,
    /// The `SPRL` run log.
    Runlog,
    /// The checkpoint directory written by `export_to_dir`.
    Snapshot,
}

pub const SUBTREES: [(Subtree, &str); 3] = [
    (Subtree::Wq, "wq"),
    (Subtree::Runlog, "runlog"),
    (Subtree::Snapshot, "snapshot"),
];

/// Totals of one subtree.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoTotals {
    pub ops: u64,
    pub op_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub bytes_written: u64,
    pub reads: u64,
    pub read_dir_entries: u64,
}

impl IoTotals {
    pub fn minus(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals {
            ops: self.ops - earlier.ops,
            op_ns: self.op_ns - earlier.op_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            bytes_written: self.bytes_written - earlier.bytes_written,
            reads: self.reads - earlier.reads,
            read_dir_entries: self.read_dir_entries - earlier.read_dir_entries,
        }
    }
}

#[derive(Default)]
struct Counters {
    ops: AtomicU64,
    op_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    read_dir_entries: AtomicU64,
}

/// A timing, counting `StoreFs` over `OsFs`. Every call is charged to the
/// subtree its path lies in; paths outside all three are not counted.
pub struct CountingFs {
    runlog: PathBuf,
    snapshot: PathBuf,
    wq: PathBuf,
    counters: [Counters; 3],
}

impl CountingFs {
    pub fn new(wq: &Path, runlog: &Path, snapshot: &Path) -> CountingFs {
        CountingFs {
            runlog: runlog.to_path_buf(),
            snapshot: snapshot.to_path_buf(),
            wq: wq.to_path_buf(),
            counters: Default::default(),
        }
    }

    fn bucket(&self, path: &Path) -> Option<&Counters> {
        // The run log lives inside the queue directory, so it is matched
        // first.
        if path.starts_with(&self.runlog) {
            Some(&self.counters[1])
        } else if path.starts_with(&self.snapshot) {
            Some(&self.counters[2])
        } else if path.starts_with(&self.wq) {
            Some(&self.counters[0])
        } else {
            None
        }
    }

    pub fn totals(&self, subtree: Subtree) -> IoTotals {
        let c = &self.counters[subtree as usize];
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoTotals {
            ops: get(&c.ops),
            op_ns: get(&c.op_ns),
            syncs: get(&c.syncs),
            sync_ns: get(&c.sync_ns),
            bytes_written: get(&c.bytes_written),
            reads: get(&c.reads),
            read_dir_entries: get(&c.read_dir_entries),
        }
    }

    pub fn all_totals(&self) -> [IoTotals; 3] {
        SUBTREES.map(|(subtree, _)| self.totals(subtree))
    }

    fn timed<T>(
        &self,
        path: &Path,
        op: impl FnOnce() -> T,
        account: impl FnOnce(&Counters, &T, u64),
    ) -> T {
        let start = Instant::now();
        let out = op();
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(c) = self.bucket(path) {
            c.ops.fetch_add(1, Ordering::Relaxed);
            c.op_ns.fetch_add(ns, Ordering::Relaxed);
            account(c, &out, ns);
        }
        out
    }
}

impl StoreFs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(
            path,
            || OsFs.read(path),
            |c, _, _| {
                c.reads.fetch_add(1, Ordering::Relaxed);
            },
        )
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(
            path,
            || OsFs.write(path, bytes),
            |c, _, _| {
                c.bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            },
        )
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed(
            path,
            || OsFs.sync_file(path),
            |c, _, ns| {
                c.syncs.fetch_add(1, Ordering::Relaxed);
                c.sync_ns.fetch_add(ns, Ordering::Relaxed);
            },
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(to, || OsFs.rename(from, to), |_, _, _| {})
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        self.timed(dst, || OsFs.hard_link(src, dst), |_, _, _| {})
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(path, || OsFs.remove_file(path), |_, _, _| {})
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(path, || OsFs.create_dir_all(path), |_, _, _| {})
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(
            dir,
            || OsFs.sync_dir(dir),
            |c, _, ns| {
                c.syncs.fetch_add(1, Ordering::Relaxed);
                c.sync_ns.fetch_add(ns, Ordering::Relaxed);
            },
        )
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed(
            dir,
            || OsFs.read_dir_names(dir),
            |c, out, _| {
                let entries = out.as_ref().map_or(0, Vec::len) as u64;
                c.read_dir_entries.fetch_add(entries, Ordering::Relaxed);
            },
        )
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed(path, || OsFs.exists(path), |_, _, _| {})
    }
}
