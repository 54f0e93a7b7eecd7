//! nightbench — the nightly-fleet benchmark.
//!
//! Drives the sp-system's nightly validation loop end to end through its
//! public API: `Coordinator::submit`, a `Worker` drain with a `RunLog`,
//! `Coordinator::collect`, `SpSystem::{import_from_dir, export_to_dir}`
//! and `RunHistory`. One process, closed loop: the next night starts when
//! the previous one returns.
//!
//! ```text
//! cargo run --release --offline --manifest-path nightbench/Cargo.toml -- \
//!     --workload <cold_grid|memo_nightly|checkpoint_restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, each
//! time scaled to a reference host speed (see `hostspeed`).
//! `--trace 1` interleaves traced and untraced nights, records driver
//! spans, counts durable I/O per subtree, reads the metrics registry
//! around each night and times each in-cell layer in isolation, and
//! prints the per-layer table. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fleet;
mod history;
mod hostspeed;
mod isolate;
mod layers;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_store::RunLog;

use fleet::{Budget, Check, Fleet, FleetSpec, Mode, Probe};
use history::ReadSample;
use hostspeed::HostSpeed;
use stats::{median, tail, Rng};
use trace::Tracer;

/// Event scale of `cold_grid`: large enough that the HEP chains are most
/// of a night.
const COLD_SCALE: f64 = 0.5;
/// Event scale of the memoized workloads.
const MEMO_SCALE: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct queries in the seeded mix.
const MIX_SIZE: usize = 400;
/// Measured work stops at this many times `--seconds`, even if the night
/// or cycle count is not reached; a capped run says so in its output.
const CAP_FACTOR: f64 = 3.0;

/// Input streams derived from `--seed`.
const STREAM_CAMPAIGN: u64 = 1;
const STREAM_QUERIES: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdGrid,
    MemoNightly,
    CheckpointRestart,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdGrid,
        Workload::MemoNightly,
        Workload::CheckpointRestart,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdGrid => "cold_grid",
            Workload::MemoNightly => "memo_nightly",
            Workload::CheckpointRestart => "checkpoint_restart",
        }
    }

    /// How a night of this workload runs, at which event scale.
    fn fleet(self) -> (Mode, f64) {
        match self {
            Workload::ColdGrid => (Mode::Cold, COLD_SCALE),
            Workload::MemoNightly => (Mode::Memo, MEMO_SCALE),
            Workload::CheckpointRestart => (Mode::Checkpoint, MEMO_SCALE),
        }
    }

    /// Nights per fleet per second of `--seconds`, and read-side restart
    /// cycles per round of nights once the read side's log is frozen. Each
    /// pair is sized so that, on the 2-core host the README's figures come
    /// from, the nights take about 85% of `--seconds` and the cycles the
    /// rest. The counts follow from the arguments alone, never from how
    /// fast the code runs, so every run and every commit reads the night
    /// and read metrics at the same history size.
    fn rates(self) -> (f64, usize) {
        match self {
            Workload::ColdGrid => (1.5, 38),
            Workload::MemoNightly => (1.8, 30),
            Workload::CheckpointRestart => (0.85, 30),
        }
    }

    /// Independent fleets run in lock-step, night by night. A memoized
    /// night costs more the more nights came before it, so the median of
    /// one fleet's nights rests on the few nights around the middle of its
    /// history; several fleets give every history size several samples,
    /// taken at different moments of the run.
    fn fleets(self) -> usize {
        match self {
            Workload::MemoNightly => 4,
            Workload::ColdGrid | Workload::CheckpointRestart => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    check: Check,
    lines: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "nightbench: {e}\nusage: nightbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".nightbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    // Removes the parent too when no other run is using it.
    std::fs::remove_dir(".nightbench").ok();
    match result {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nightbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let budget = Budget::for_host();
    let mut lines = vec![
        format!(
            "nightbench workload={} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "thread budget: {} core(s); {} worker lane(s) x {} RunConfig thread(s) = {} busy",
            budget.cores,
            budget.lanes,
            budget.run_threads,
            budget.lanes * budget.run_threads
        ),
    ];
    let mut outcome = fleet_workload(args, work, budget)?;
    lines.append(&mut outcome.lines);
    outcome.lines = lines;
    Ok(outcome)
}

fn setup_dir(work: &Path, index: usize) -> PathBuf {
    work.join(format!("setup{index}"))
}

/// Wall times of a series of blocks, each with the host-speed timing
/// taken just before it.
#[derive(Debug, Default)]
struct Timed {
    wall: Vec<f64>,
    kernel: Vec<usize>,
}

impl Timed {
    fn push(&mut self, wall: f64, kernel: usize) {
        self.wall.push(wall);
        self.kernel.push(kernel);
    }

    /// The times at the reference host speed.
    fn scaled(&self, speed: &HostSpeed) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.kernel)
            .map(|(w, k)| w * speed.scale(*k))
            .collect()
    }
}

/// Runs `setup` [`SETUPS`] times in fresh directories, keeps the last
/// `keep` results and returns the set-up times in seconds.
fn repeated_setup<T>(
    work: &Path,
    speed: &mut HostSpeed,
    keep: usize,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(Vec<T>, Timed), String> {
    let mut kept = std::collections::VecDeque::new();
    let mut times = Timed::default();
    for index in 0..SETUPS {
        let dir = setup_dir(work, index);
        let before = speed.sample();
        let start = Instant::now();
        let state = setup(&dir)?;
        times.push(start.elapsed().as_secs_f64(), before);
        speed.sample();
        kept.push_back((index, state));
        if kept.len() > keep {
            if let Some((old, state)) = kept.pop_front() {
                drop(state);
                std::fs::remove_dir_all(setup_dir(work, old)).ok();
            }
        }
    }
    Ok((kept.into_iter().map(|(_, state)| state).collect(), times))
}

/// Copies the fleet's run log as it stands and draws the seeded query mix
/// over it.
fn freeze_read_side(
    fleet: &Fleet,
    work: &Path,
    seed: u64,
) -> Result<(RunLog, Vec<history::Query>), String> {
    let log = history::freeze(&fleet.runlog_dir(), &work.join("frozen"))?;
    let mix = history::query_mix(
        &log.replay().records,
        &mut Rng::new(seed, STREAM_QUERIES),
        MIX_SIZE,
    );
    Ok((log, mix))
}

fn fleet_workload(args: &Args, work: &Path, budget: Budget) -> Result<Outcome, String> {
    let (mode, scale) = args.workload.fleet();
    let spec = FleetSpec {
        mode,
        scale,
        campaign_seed: Rng::new(args.seed, STREAM_CAMPAIGN).next_u64(),
        budget,
    };
    let mut speed = HostSpeed::new(work)?;
    let (mut fleets, setup_s) = repeated_setup(work, &mut speed, args.workload.fleets(), |dir| {
        Fleet::setup(dir, spec, args.trace)
    })?;

    let (nights_per_s, cycles_per_night) = args.workload.rates();
    let planned_nights = ((args.seconds * nights_per_s).round() as usize).max(2);
    let freeze_after = planned_nights / 2;
    let mut tracer = Tracer::new();
    let sink: Arc<dyn sp_obs::TraceSink> = Arc::new(sp_obs::MemSink::new(1 << 14));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds * CAP_FACTOR);
    let (mut untraced_ms, mut traced_ms) = (Timed::default(), Vec::new());
    let mut night_traces = Vec::new();
    let (mut cells, mut read_s) = (0usize, 0.0);
    let mut read = ReadSample::default();
    let mut frozen = None;
    let trace_every = usize::from(args.trace) * 2;
    // Every night and every burst of read cycles is bracketed by a timing
    // of the host-speed kernel.
    let mut last_kernel = speed.sample();
    for night in 0..planned_nights {
        if night >= 2 && Instant::now() >= deadline {
            break;
        }
        for (index, fleet) in fleets.iter_mut().enumerate() {
            // The traced run alternates traced and untraced nights of the
            // first fleet, so the overhead comparison sees neighbouring
            // nights of the same history.
            let traced = args.trace && index == 0 && night % 2 == 1;
            if traced {
                sp_obs::trace::set_sink(sink.clone());
            }
            tracer.set_on(traced);
            let sample = fleet.night(&mut tracer, traced)?;
            tracer.set_on(false);
            sp_obs::trace::clear_sink();
            let before = std::mem::replace(&mut last_kernel, speed.sample());
            cells += sample.cells;
            match sample.trace {
                Some(t) => {
                    traced_ms.push(sample.wall_ms);
                    night_traces.push(t);
                }
                None => untraced_ms.push(sample.wall_ms, before),
            }
        }
        // The read side works on a copy of the first fleet's run log as it
        // stood halfway through the nights, and runs a burst of restart
        // cycles after each later round of nights: every run reads a log
        // of the same size, and its samples spread over half the run rather
        // than one stretch of it, so a few slow seconds on the host cannot
        // set them.
        if night + 1 == freeze_after {
            frozen = Some(freeze_read_side(&fleets[0], work, args.seed)?);
        }
        if let Some((log, mix)) = &frozen {
            let burst = Instant::now();
            history::read_cycles(
                log,
                mix,
                cycles_per_night,
                trace_every,
                &mut tracer,
                &mut read,
            );
            read_s += burst.elapsed().as_secs_f64();
            read.kernel_for_new_cycles(last_kernel);
            last_kernel = speed.sample();
        }
    }
    let nights_s = start.elapsed().as_secs_f64() - read_s;
    let nights = untraced_ms.wall.len() + traced_ms.len();
    let (log, mix) = match frozen {
        Some(frozen) => frozen,
        // Capped before the freeze: one burst on the log as it stands.
        None => {
            let (log, mix) = freeze_read_side(&fleets[0], work, args.seed)?;
            let before = speed.sample();
            history::read_cycles(
                &log,
                &mix,
                cycles_per_night,
                trace_every,
                &mut tracer,
                &mut read,
            );
            read.kernel_for_new_cycles(before);
            speed.sample();
            (log, mix)
        }
    };
    let peak_rss_mb = peak_rss_mb();

    let planned_cycles = (planned_nights - freeze_after + 1) * cycles_per_night;
    let mut lines = vec![format!(
        "{nights} of {} nights ({} fleet(s) x {planned_nights}) in {nights_s:.1} s; {} of {planned_cycles} read cycles in {read_s:.1} s over a log of {} cells frozen after night {freeze_after}",
        fleets.len() * planned_nights,
        fleets.len(),
        read.rebuild_ms.len(),
        log.replay().records.len()
    )];
    if nights < fleets.len() * planned_nights {
        lines.push(format!(
            "capped: measured work stopped at {CAP_FACTOR} x --seconds"
        ));
    }
    let fleet = &fleets[0];
    let metrics = if args.trace {
        tracer.set_on(true);
        let probe = match mode {
            Mode::Checkpoint => Probe::default(),
            _ => fleet.warm_probe(&mut tracer)?,
        };
        tracer.set_on(false);
        let isolated = layers::isolate_night(fleet, &night_traces);
        let fleet_layers = layers::FleetLayers {
            traces: &night_traces,
            traced_ms: &traced_ms,
            untraced_ms: &untraced_ms.wall,
            probe,
            isolated,
            rebuild_reads: layers::rebuild_reads(log.root())?,
        };
        let m = layers::per_layer(&fleet_layers, &tracer);
        write_spans(args, &tracer, &mut lines);
        m
    } else {
        lines.push(format!(
            "host speed: kernel median {:.4} ms, its file reads {:.4} ms, over {} timings (reference {} and {} ms); times below are scaled to the reference, wall times in brackets",
            median(&speed.samples),
            median(&speed.read_samples),
            speed.samples.len(),
            hostspeed::REFERENCE_MS,
            hostspeed::REFERENCE_READS_MS
        ));
        end_to_end(cells, &untraced_ms, &read, &setup_s, &speed, peak_rss_mb)
    };

    let mut check = Check::default();
    for fleet in &fleets {
        check.absorb(fleet.check_reports());
        check.absorb(fleet.check_runlog());
        check.absorb(fleet.check_restores());
    }
    check.absorb(history::check_queries(&log, &mix, &read.results));
    Ok(Outcome {
        metrics,
        check,
        lines,
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every time is
/// scaled to the reference host speed; the note gives its wall value.
fn end_to_end(
    cells: usize,
    nights_ms: &Timed,
    read: &ReadSample,
    setup_s: &Timed,
    speed: &HostSpeed,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let per_second = |ms: &[f64]| cells as f64 / (ms.iter().sum::<f64>() / 1e3);
    let scaled = |name, value, wall: f64, unit| Metric {
        note: format!("(wall {wall:.4})"),
        ..metric(name, value, unit)
    };
    let nights = nights_ms.scaled(speed);
    let rebuilds = read.rebuild_scaled_ms(speed);
    let per_query = read.per_query_us(Some(speed));
    let wall_per_query = read.per_query_us(None);
    vec![
        scaled(
            "cells_per_s",
            per_second(&nights),
            per_second(&nights_ms.wall),
            "1/s",
        ),
        scaled(
            "night_p50_ms",
            median(&nights),
            median(&nights_ms.wall),
            "ms",
        ),
        tail_metric(
            "night_tail_ms",
            tail(&nights),
            tail(&nights_ms.wall).value,
            "ms",
            "nights",
        ),
        scaled(
            "replay_p50_ms",
            median(&rebuilds),
            median(&read.rebuild_ms),
            "ms",
        ),
        scaled(
            "query_p50_us",
            median(&per_query),
            median(&wall_per_query),
            "us",
        ),
        tail_metric(
            "query_tail_us",
            tail(&per_query),
            tail(&wall_per_query).value,
            "us",
            "distinct queries",
        ),
        scaled(
            "setup_s",
            median(&setup_s.scaled(speed)),
            median(&setup_s.wall),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

fn tail_metric(
    name: &'static str,
    t: stats::Tail,
    wall: f64,
    unit: &'static str,
    what: &str,
) -> Metric {
    Metric {
        note: format!(
            "(wall {wall:.4}) p{:.1} of {} {what}",
            t.percentile, t.samples
        ),
        ..metric(name, t.value, unit)
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_spans(args: &Args, tracer: &Tracer, lines: &mut Vec<String>) {
    let path = PathBuf::from(".nightbench").join("spans").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => lines.push(format!("spans written to {}", path.display())),
        Err(e) => lines.push(format!("spans not written: {e}")),
    }
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    for line in &outcome.lines {
        println!("{line}");
    }
    let check = &outcome.check;
    for note in &check.notes {
        println!("FAILED: {note}");
    }
    if args.trace {
        println!(
            "{}",
            layers::render_table(args.workload.name(), &outcome.metrics)
        );
    } else {
        println!("end-to-end ({}):", args.workload.name());
        for m in &outcome.metrics {
            println!(
                "  {:<16} {:>14.4} {:<4} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
    println!(
        "  {:<16} {:>14.4} {:<4} {} failed of {} operations",
        "failed_frac",
        stats::ratio(check.failed as f64, check.attempted as f64),
        "1",
        check.failed,
        check.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted,
        check.failed,
        metrics.join(", ")
    );
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
