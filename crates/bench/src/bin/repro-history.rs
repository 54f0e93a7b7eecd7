//! Durable run-history reproduction: write, crash, restore, query.
//!
//! The sp-system's status pages answer "what is the state now?"; the
//! durable SPRL run log answers "what happened, when, and on which
//! client?" — and must keep answering it across crashes. This driver
//! proves that contract end to end:
//!
//! 1. **oracle** — an uninterrupted in-process drain of the standard
//!    three-experiment backlog, every cell appended to the run log; the
//!    restored history is the per-cell oracle;
//! 2. **crash** — the same backlog on a fresh queue, drained by a child
//!    worker process that the parent kills mid-campaign (lease left
//!    unreleased, log possibly mid-append);
//! 3. **restore** — a new worker on a reopened queue handle reclaims the
//!    fenced work after lease expiry and finishes the drain; the run log
//!    is reopened and replayed;
//! 4. **query** — [`sp_obs::query`] over the restored log must return the
//!    same per-cell history (status, counts, virtual timestamps, worker
//!    attribution present) as the uninterrupted oracle, cold-rebuilt and
//!    warm-restored views must be byte-identical, and the summary /
//!    drill-down / regression dashboards must render from it.
//!
//! Exit code is non-zero on any divergence.
//!
//! ```text
//! cargo run --release -p sp-bench --bin repro-history -- \
//!     [--scale 0.02] [--reps 2] [--lease 5] [--kill-after MS]
//! ```

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Duration;

use sp_bench::{arg_value, desy_deployment, has_flag, repro_run_config, scale_from_args};
use sp_core::fleet::{Coordinator, Worker, CAMPAIGNS_DRAINED, RUNS_EXECUTED};
use sp_core::{CampaignConfig, CampaignOptions, SpSystem};
use sp_obs::{CellQuery, RunHistory};
use sp_report::{render_cell_timeline, render_history_summary, render_status_changes};
use sp_store::{CellRecord, RunLog, WorkQueue};

const EXPERIMENTS: [&str; 3] = ["zeus", "h1", "hermes"];

/// Content-bearing view of one logged cell: everything the acceptance
/// contract compares between the crashed/restored history and the
/// uninterrupted oracle. Worker name and lease token are attribution —
/// asserted present, not equal (a different client legitimately ran the
/// re-leased work).
type CellContent = (u64, u8, u32, u32, u32, u64);

fn content(record: &CellRecord) -> CellContent {
    (
        record.campaign,
        record.status,
        record.passed,
        record.failed,
        record.skipped,
        record.timestamp,
    )
}

/// Key identifying one cell outcome across independent drains of the
/// same backlog: run ids are carved deterministically at submission.
type CellKey = (String, String, u32, u64);

fn key(record: &CellRecord) -> CellKey {
    (
        record.experiment.clone(),
        record.image_label.clone(),
        record.repetition,
        record.run_id,
    )
}

fn campaign_config(
    system: &SpSystem,
    experiment: &str,
    repetitions: usize,
    scale: f64,
) -> CampaignConfig {
    CampaignConfig {
        experiments: vec![experiment.to_string()],
        images: system.images().iter().map(|i| i.id).collect(),
        repetitions,
        run: repro_run_config(scale),
        interval_secs: 86_400,
        options: CampaignOptions::memoized(),
    }
}

fn submit_backlog(
    coordinator: &mut Coordinator<'_>,
    system: &SpSystem,
    repetitions: usize,
    scale: f64,
) {
    for experiment in EXPERIMENTS {
        coordinator
            .submit(campaign_config(system, experiment, repetitions, scale))
            .expect("experiment-disjoint backlog");
    }
}

/// Child mode: drain the queue at `--dir` with the run log attached,
/// exactly like a fleet client — this is the process the parent kills.
fn worker_main() {
    let dir = arg_value("--dir").expect("--worker requires --dir");
    let name = arg_value("--name").unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let lease_secs: u64 = arg_value("--lease")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let queue = WorkQueue::open(&dir, lease_secs).expect("worker opens queue dir");
    let log_dir = std::path::Path::new(&dir).join(sp_store::run_log::RUN_LOG_DIR);
    let run_log = RunLog::open(&log_dir).expect("worker opens run log");
    let system = desy_deployment();
    let mut worker = Worker::new(&system, &queue, &name, 2).with_run_log(run_log);
    if let Some(slow_ms) = arg_value("--slow-ms").and_then(|v| v.parse::<u64>().ok()) {
        worker = worker.with_slowdown(Duration::from_millis(slow_ms));
    }
    let stats = worker.drain();
    println!(
        "[{name}] drained {} campaigns / {} runs",
        stats.counter(CAMPAIGNS_DRAINED),
        stats.counter(RUNS_EXECUTED)
    );
}

/// Runs one full drain of the standard backlog in-process and returns the
/// restored history. `dir` is created fresh.
fn drain_uninterrupted(dir: &std::path::Path, repetitions: usize, scale: f64) -> RunHistory {
    std::fs::remove_dir_all(dir).ok();
    let queue = WorkQueue::open(dir, 120).expect("queue dir");
    let system = desy_deployment();
    let mut coordinator = Coordinator::new(&system, &queue);
    submit_backlog(&mut coordinator, &system, repetitions, scale);
    let log_dir = dir.join(sp_store::run_log::RUN_LOG_DIR);
    let worker_system = desy_deployment();
    let worker = Worker::new(&worker_system, &queue, "oracle-worker", 2)
        .with_run_log(RunLog::open(&log_dir).expect("run log dir"));
    worker.drain();
    assert!(coordinator.drained(), "oracle backlog fully drained");
    let log = RunLog::open(&log_dir).expect("reopen run log");
    RunHistory::rebuild(&log)
}

fn main() {
    if has_flag("--worker") {
        worker_main();
        return;
    }

    let scale = scale_from_args(0.02);
    let repetitions: usize = arg_value("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let lease_secs: u64 = arg_value("--lease")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let kill_after_ms: u64 = arg_value("--kill-after")
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    // The doomed worker is slowed at every repetition barrier so the kill
    // reliably lands *mid-campaign* — the acceptance shape — instead of
    // racing a fast drain to completion.
    let slow_ms: u64 = arg_value("--slow-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let mut divergent = 0usize;

    println!(
        "repro-history: durable run-history write/crash/restore/query \
         (scale {scale}, {repetitions} repetition(s), lease {lease_secs}s)"
    );

    // Phase 1 — the uninterrupted oracle.
    let dir_a =
        std::env::temp_dir().join(format!("sp-repro-history-{}-oracle", std::process::id()));
    let oracle = drain_uninterrupted(&dir_a, repetitions, scale);
    println!(
        "\n[oracle] uninterrupted drain logged {} cell(s)",
        oracle.records().len()
    );

    // Phase 2 — crash: a child worker killed mid-campaign.
    let dir_b = std::env::temp_dir().join(format!("sp-repro-history-{}-crash", std::process::id()));
    std::fs::remove_dir_all(&dir_b).ok();
    let queue = WorkQueue::open(&dir_b, lease_secs).expect("queue dir");
    let system = desy_deployment();
    let mut coordinator = Coordinator::new(&system, &queue);
    submit_backlog(&mut coordinator, &system, repetitions, scale);
    let mut child = Command::new(std::env::current_exe().expect("self path"))
        .args([
            "--worker",
            "--dir",
            dir_b.to_str().expect("utf-8 dir"),
            "--name",
            "doomed-worker",
            "--lease",
            &lease_secs.to_string(),
            "--slow-ms",
            &slow_ms.to_string(),
        ])
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker process");
    std::thread::sleep(Duration::from_millis(kill_after_ms));
    match child.kill() {
        Ok(()) => println!("\n[crash] killed doomed-worker after {kill_after_ms} ms mid-campaign"),
        Err(e) => println!("\n[crash] doomed-worker already exited before the kill ({e})"),
    }
    child.wait().expect("wait for killed worker");

    // Phase 3 — restore: a new worker on a *reopened* queue handle (the
    // coordinator-restart shape) outwaits the dead worker's lease and
    // finishes the drain, appending the re-executed cells to the same log.
    let reopened = WorkQueue::open(&dir_b, lease_secs).expect("reopen queue dir");
    let log_dir = dir_b.join(sp_store::run_log::RUN_LOG_DIR);
    let restore_system = desy_deployment();
    let restorer = Worker::new(&restore_system, &reopened, "restore-worker", 2)
        .with_run_log(RunLog::open(&log_dir).expect("reopen run log"));
    let stats = restorer.drain();
    println!(
        "[restore] restore-worker drained {} campaign(s) ({} runs)",
        stats.counter(CAMPAIGNS_DRAINED),
        stats.counter(RUNS_EXECUTED)
    );
    if !coordinator.drained() {
        eprintln!("  DIVERGENCE: backlog not fully drained after restore");
        divergent += 1;
    }
    if stats.counter(CAMPAIGNS_DRAINED) == 0 {
        eprintln!(
            "  DIVERGENCE: the kill landed after the doomed worker finished — \
             the restore phase had nothing to reclaim (raise --slow-ms or lower --kill-after)"
        );
        divergent += 1;
    }

    // Phase 4 — query the restored log and compare with the oracle.
    let log = RunLog::open(&log_dir).expect("reopen run log after restore");
    let restored = RunHistory::rebuild(&log);
    println!(
        "\n[query] restored history: {} cell(s), {} dropped as corrupt, {} duplicate(s) collapsed",
        restored.records().len(),
        restored.summary().corrupt_dropped,
        restored.summary().duplicates_dropped
    );

    let oracle_cells: BTreeMap<CellKey, CellContent> = oracle
        .records()
        .iter()
        .map(|(_, r)| (key(r), content(r)))
        .collect();
    let restored_cells: BTreeMap<CellKey, CellContent> = restored
        .records()
        .iter()
        .map(|(_, r)| (key(r), content(r)))
        .collect();
    if oracle_cells.len() != oracle.records().len() {
        eprintln!("  DIVERGENCE: oracle history contains duplicate cell keys");
        divergent += 1;
    }
    if restored_cells.len() != restored.records().len() {
        eprintln!("  DIVERGENCE: restored history contains duplicate cell keys");
        divergent += 1;
    }
    for (cell, expected) in &oracle_cells {
        match restored_cells.get(cell) {
            None => {
                eprintln!("  DIVERGENCE: cell {cell:?} missing from restored history");
                divergent += 1;
            }
            Some(actual) if actual != expected => {
                eprintln!(
                    "  DIVERGENCE: cell {cell:?} diverged: {actual:?} != oracle {expected:?}"
                );
                divergent += 1;
            }
            Some(_) => {}
        }
    }
    for cell in restored_cells.keys() {
        if !oracle_cells.contains_key(cell) {
            eprintln!("  DIVERGENCE: restored history has extra cell {cell:?}");
            divergent += 1;
        }
    }
    for (_, record) in restored.records() {
        if record.worker.is_empty() || record.lease_token == 0 {
            eprintln!(
                "  DIVERGENCE: run {} logged without worker attribution",
                record.run_id
            );
            divergent += 1;
        }
    }
    if divergent == 0 {
        println!(
            "  restored per-cell history == uninterrupted oracle \
             ({} cells: status, counts, timestamps)",
            restored_cells.len()
        );
    }

    // Warm restore must be byte-identical to the cold rebuild — and must
    // load as warm at all.
    let os_fs: std::sync::Arc<dyn sp_store::StoreFs> = std::sync::Arc::new(sp_store::OsFs);
    restored
        .save_warm(&log, os_fs.as_ref())
        .expect("persist warm index");
    let warm = RunHistory::open(&log);
    if warm.source() != sp_obs::HistorySource::Warm {
        eprintln!("  DIVERGENCE: warm index was not trusted on reload");
        divergent += 1;
    }
    let all = CellQuery::all();
    let cold_bytes = RunHistory::encode_results(&restored.query(&all));
    let warm_bytes = RunHistory::encode_results(&warm.query(&all));
    if cold_bytes != warm_bytes {
        eprintln!("  DIVERGENCE: warm-restored query results differ from cold rebuild");
        divergent += 1;
    } else {
        println!(
            "  warm-restored query results byte-identical to cold rebuild ({} bytes)",
            cold_bytes.len()
        );
    }

    // The dashboards render from the restored history.
    println!("\n{}", indent(&render_history_summary(&restored.summary())));
    let drill = restored
        .records()
        .first()
        .map(|(_, r)| (r.experiment.clone(), r.image_label.clone()));
    if let Some((experiment, image)) = drill {
        println!(
            "{}",
            indent(&render_cell_timeline(&restored, &experiment, "", &image))
        );
    }
    let changes = restored.status_changes();
    if !changes.is_empty() {
        println!("{}", indent(&render_status_changes(&changes)));
    }

    // Filtered queries stay consistent with the full scan.
    for experiment in EXPERIMENTS {
        let filtered = restored.query(&CellQuery::all().experiment(experiment));
        let scanned = restored
            .records()
            .iter()
            .filter(|(_, r)| r.experiment == experiment)
            .count();
        if filtered.len() != scanned {
            eprintln!(
                "  DIVERGENCE: experiment query for '{experiment}' returned {} of {scanned} cells",
                filtered.len()
            );
            divergent += 1;
        }
    }

    println!("[metrics] process-wide snapshot:");
    print!("{}", indent(&sp_obs::global().snapshot().render_text()));

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
    if divergent > 0 {
        eprintln!("\nrepro-history FAILED: {divergent} divergence(s)");
        std::process::exit(1);
    }
    println!(
        "\nrepro-history complete: the restored run log answers every query \
         identically to the uninterrupted oracle"
    );
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|line| format!("    {line}\n"))
        .collect::<String>()
}
