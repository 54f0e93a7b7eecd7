//! The nightly fleet: one coordinator, one durable queue and run log, and
//! a worker `SpSystem` that drains each night — plus the oracles the
//! nights are checked against after the measured work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sp_bench::desy_deployment;
use sp_core::fleet::{run_log_cells, Coordinator, Worker};
use sp_core::{Campaign, CampaignConfig, CampaignOptions, CampaignReport, RunConfig, SpSystem};
use sp_obs::MetricsSnapshot;
use sp_store::vfs::{OsFs, StoreFs};
use sp_store::{RunLog, SystemTimeSource, WorkQueue};

use crate::trace::{CountingFs, IoTotals, Subtree, Tracer};

/// The HERA experiments: one campaign each per night, over all five paper
/// images (the Figure-3 grid).
pub const EXPERIMENTS: [&str; 3] = ["h1", "zeus", "hermes"];
/// Cells one night logs: three experiments on five images.
pub const NIGHT_CELLS: usize = 15;
/// Long enough that no lease of a healthy night ever expires.
const LEASE_SECS: u64 = 600;
const WORKER_NAME: &str = "nightly-worker";
/// One nightly cron interval of virtual time between nights.
const NIGHT_SECS: u64 = 86_400;

/// How the worker side of a night is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Memoization off: every cell builds its stack and runs its chains.
    Cold,
    /// Memoized, one long-lived worker system.
    Memo,
    /// Memoized, a fresh worker system per night restored from the
    /// previous night's checkpoint and checkpointed again afterwards.
    Checkpoint,
}

/// Busy-thread budget: `Worker` lanes × `RunConfig.threads` never exceeds
/// the host's cores.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub cores: usize,
    pub lanes: usize,
    pub run_threads: usize,
}

impl Budget {
    pub fn for_host() -> Budget {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = cores.clamp(1, EXPERIMENTS.len());
        Budget {
            cores,
            lanes,
            run_threads: (cores / lanes).max(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    pub mode: Mode,
    pub scale: f64,
    pub campaign_seed: u64,
    pub budget: Budget,
}

impl FleetSpec {
    pub fn memoize(&self) -> bool {
        self.mode != Mode::Cold
    }

    pub fn config(&self, system: &SpSystem, experiment: &str, memoize: bool) -> CampaignConfig {
        CampaignConfig {
            experiments: vec![experiment.to_string()],
            images: system.images().iter().map(|i| i.id).collect(),
            repetitions: 1,
            run: RunConfig {
                seed: self.campaign_seed,
                scale: self.scale,
                threads: self.budget.run_threads,
                ..RunConfig::default()
            },
            interval_secs: NIGHT_SECS,
            options: CampaignOptions {
                memoize,
                ..CampaignOptions::default()
            },
        }
    }
}

/// One submitted campaign, kept for the checks after the measured work.
pub struct CampaignRecord {
    pub experiment: &'static str,
    pub seq: u64,
    pub base: u64,
    pub origin: u64,
    pub report: Option<CampaignReport>,
}

/// What the traced run records around one night.
pub struct NightTrace {
    pub io: [IoTotals; 3],
    pub drain_io_ns: u64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// The worker system was created inside this night, so its memo
    /// counters started from zero.
    pub fresh_system: bool,
    pub objects_written: Option<usize>,
}

pub struct NightSample {
    pub wall_ms: f64,
    pub cells: usize,
    pub trace: Option<NightTrace>,
}

/// Outcome of one correctness check: operations attempted and failed.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Check {
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

pub struct Fleet {
    pub spec: FleetSpec,
    root: PathBuf,
    coord: SpSystem,
    /// The worker system: long-lived under `Cold`/`Memo`; under
    /// `Checkpoint` the system restored for the most recent night.
    worker: SpSystem,
    queue: WorkQueue,
    counted_queue: Option<WorkQueue>,
    pub counting: Option<Arc<CountingFs>>,
    pub campaigns: Vec<CampaignRecord>,
    /// Per restore: whether the warm state and every object came back.
    pub restores: Vec<(bool, String)>,
}

impl Fleet {
    /// Builds the deployment, opens the queue and run log under `root`,
    /// and runs the priming night that fills memos and references (and,
    /// under `Checkpoint`, writes the first checkpoint). `counted` opens a
    /// second queue handle over the counting filesystem for traced nights.
    pub fn setup(root: &Path, spec: FleetSpec, counted: bool) -> Result<Fleet, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("work dir: {e}"))?;
        let queue_dir = root.join("queue");
        let queue = WorkQueue::open(&queue_dir, LEASE_SECS).map_err(|e| format!("queue: {e}"))?;
        let counting = counted.then(|| {
            Arc::new(CountingFs::new(
                &queue_dir,
                &queue_dir.join(sp_store::run_log::RUN_LOG_DIR),
                &root.join("checkpoint"),
            ))
        });
        let counted_queue = match &counting {
            Some(fs) => Some(
                WorkQueue::open_with(
                    &queue_dir,
                    LEASE_SECS,
                    Arc::new(SystemTimeSource),
                    fs.clone(),
                )
                .map_err(|e| format!("counted queue: {e}"))?,
            ),
            None => None,
        };
        let mut fleet = Fleet {
            spec,
            root: root.to_path_buf(),
            coord: desy_deployment(),
            worker: desy_deployment(),
            queue,
            counted_queue,
            counting,
            campaigns: Vec::new(),
            restores: Vec::new(),
        };
        fleet.night_inner(&mut Tracer::new(), false, false)?;
        if spec.mode == Mode::Checkpoint {
            fleet
                .worker
                .export_to_dir(&fleet.checkpoint_dir())
                .map_err(|e| format!("first checkpoint: {e}"))?;
        }
        Ok(fleet)
    }

    pub fn runlog_dir(&self) -> PathBuf {
        self.root.join("queue").join(sp_store::run_log::RUN_LOG_DIR)
    }

    fn checkpoint_dir(&self) -> PathBuf {
        self.root.join("checkpoint")
    }

    /// The worker system holding the most recent night's outputs.
    pub fn worker_system(&self) -> &SpSystem {
        &self.worker
    }

    /// Runs one night. Traced nights route durable I/O through the
    /// counting filesystem and record spans and registry snapshots.
    pub fn night(&mut self, tracer: &mut Tracer, traced: bool) -> Result<NightSample, String> {
        self.night_inner(tracer, traced, self.spec.mode == Mode::Checkpoint)
    }

    fn night_inner(
        &mut self,
        tracer: &mut Tracer,
        traced: bool,
        restore: bool,
    ) -> Result<NightSample, String> {
        let fs: Arc<dyn StoreFs> = match (&self.counting, traced) {
            (Some(fs), true) => fs.clone(),
            _ => Arc::new(OsFs),
        };
        let queue = match (&self.counted_queue, traced) {
            (Some(queue), true) => queue,
            _ => &self.queue,
        };
        let io_before = self.counting.as_ref().map(|c| c.all_totals());
        let before = sp_obs::global().snapshot();
        let origin = self.coord.clock().now();

        let night_span = tracer.begin("night");
        let start = Instant::now();
        let restored = if restore {
            let span = tracer.begin("core.warm.import");
            let system = desy_deployment();
            let summary = system
                .import_from_dir_fs(&self.root.join("checkpoint"), fs.as_ref())
                .map_err(|e| format!("restore: {e}"))?;
            tracer.end(span);
            Some((system, summary))
        } else {
            None
        };
        let system = restored.as_ref().map_or(&self.worker, |(system, _)| system);

        let mut coordinator = Coordinator::new(&self.coord, queue);
        let mut tickets = Vec::new();
        for experiment in EXPERIMENTS {
            let span = tracer.begin("core.fleet.submit");
            let config = self
                .spec
                .config(&self.coord, experiment, self.spec.memoize());
            let ticket = coordinator
                .submit(config)
                .map_err(|e| format!("submit {experiment}: {e}"))?;
            tracer.end(span);
            tickets.push((experiment, ticket));
        }

        let drain_io_before = self.counting.as_ref().map(|c| c.all_totals());
        let span = tracer.begin("core.fleet.drain");
        let log = RunLog::open_with(&self.runlog_dir(), fs.clone())
            .map_err(|e| format!("run log: {e}"))?;
        Worker::new(system, queue, WORKER_NAME, self.spec.budget.lanes)
            .with_patience(4)
            .with_run_log(log)
            .drain();
        tracer.end(span);
        let drain_io_after = self.counting.as_ref().map(|c| c.all_totals());

        let span = tracer.begin("core.fleet.collect");
        let reports = coordinator.collect();
        tracer.end(span);

        let objects_written = if restore {
            let span = tracer.begin("core.warm.export");
            let summary = system
                .export_to_dir_fs(&self.root.join("checkpoint"), fs.as_ref())
                .map_err(|e| format!("checkpoint: {e}"))?;
            tracer.end(span);
            Some(summary.storage.objects_written)
        } else {
            None
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.end(night_span);

        let after = sp_obs::global().snapshot();
        let cells = reports.iter().flatten().map(|r| r.summary.runs.len()).sum();
        for ((experiment, ticket), report) in tickets.into_iter().zip(reports) {
            let (base, _) = coordinator
                .reserved_run_ids(ticket)
                .ok_or("submitted ticket without a run-id range")?;
            self.campaigns.push(CampaignRecord {
                experiment,
                seq: ticket.seq(),
                base: base.0,
                origin,
                report,
            });
        }
        drop(coordinator);
        let trace = match (traced, io_before, drain_io_before, drain_io_after) {
            (true, Some(io_before), Some(d0), Some(d1)) => {
                let io_after = self.counting.as_ref().map(|c| c.all_totals());
                let io_after = io_after.unwrap_or(io_before);
                let drain_io_ns = [Subtree::Wq, Subtree::Runlog]
                    .iter()
                    .map(|s| d1[*s as usize].op_ns - d0[*s as usize].op_ns)
                    .sum();
                Some(NightTrace {
                    io: [0, 1, 2].map(|i| io_after[i].minus(&io_before[i])),
                    drain_io_ns,
                    before,
                    after,
                    fresh_system: restore,
                    objects_written,
                })
            }
            _ => None,
        };
        if let Some((system, summary)) = restored {
            let ok = summary.warm_state_error.is_none() && summary.storage.objects_rejected == 0;
            let note = format!(
                "warm_state_error={:?} objects_rejected={}",
                summary.warm_state_error, summary.storage.objects_rejected
            );
            self.restores.push((ok, note));
            self.worker = system;
        }
        self.coord.clock().advance(NIGHT_SECS);
        Ok(NightSample {
            wall_ms,
            cells,
            trace,
        })
    }

    /// Every collected report must be present, trusted and equal to a
    /// solo sequential `Campaign` oracle that carries the same history:
    /// one oracle system per experiment (campaigns of different
    /// experiments never share references), aligned to each campaign's
    /// reserved run ids and recorded origin. The oracle runs memoized;
    /// `memoized_campaign_matches_uncached` pins that to the uncached
    /// result.
    pub fn check_reports(&self) -> Check {
        let mut check = Check::default();
        let mut oracles: BTreeMap<&str, SpSystem> = BTreeMap::new();
        for campaign in &self.campaigns {
            let oracle = oracles
                .entry(campaign.experiment)
                .or_insert_with(desy_deployment);
            oracle.advance_run_ids_past(campaign.base);
            oracle.clock().advance_to(campaign.origin);
            let config = self.spec.config(oracle, campaign.experiment, true);
            let expected = Campaign::new(oracle, config).execute();
            let ok = match (&campaign.report, &expected) {
                (Some(report), Ok(expected)) => !report.cancelled && report.summary == *expected,
                _ => false,
            };
            check.record(ok, || {
                format!(
                    "campaign {} ({}) report missing or differs from its oracle",
                    campaign.seq, campaign.experiment
                )
            });
        }
        check
    }

    /// The replayed `SPRL` cells must equal `run_log_cells` of the
    /// collected reports: every expected cell present with the same
    /// content and a worker attribution, and nothing else in the log.
    pub fn check_runlog(&self) -> Check {
        let mut check = Check::default();
        let log = match RunLog::open(&self.runlog_dir()) {
            Ok(log) => log,
            Err(e) => {
                check.record(false, || format!("run log unreadable: {e}"));
                return check;
            }
        };
        let replay = log.replay();
        let logged: BTreeMap<(u64, u64), &sp_store::CellRecord> = replay
            .records
            .iter()
            .map(|(_, r)| (r.dedup_key(), r))
            .collect();
        let mut expected_total = 0;
        for campaign in &self.campaigns {
            let Some(report) = &campaign.report else {
                continue;
            };
            for cell in run_log_cells(campaign.seq, report, "", 0) {
                expected_total += 1;
                let ok = logged.get(&cell.dedup_key()).is_some_and(|r| {
                    r.experiment == cell.experiment
                        && r.group == cell.group
                        && r.image_label == cell.image_label
                        && r.repetition == cell.repetition
                        && r.status == cell.status
                        && r.passed == cell.passed
                        && r.failed == cell.failed
                        && r.skipped == cell.skipped
                        && r.timestamp == cell.timestamp
                        && !r.worker.is_empty()
                });
                check.record(ok, || {
                    format!(
                        "run {} of campaign {} missing or divergent in the run log",
                        cell.run_id, cell.campaign
                    )
                });
            }
        }
        let extra = replay.records.len().saturating_sub(expected_total) + replay.corrupt_dropped;
        for _ in 0..extra {
            check.record(false, || {
                "run log holds a cell no report accounts for".into()
            });
        }
        check
    }

    /// Every restore must load the warm state and reject no object.
    pub fn check_restores(&self) -> Check {
        let mut check = Check::default();
        for (ok, note) in &self.restores {
            check.record(*ok, || format!("restore failed: {note}"));
        }
        check
    }

    /// One traced checkpoint and restore of the worker system through the
    /// counting filesystem, for workloads whose nights do not checkpoint.
    pub fn warm_probe(&self, tracer: &mut Tracer) -> Result<Probe, String> {
        let Some(fs) = &self.counting else {
            return Ok(Probe::default());
        };
        let dir = self.checkpoint_dir();
        let before = fs.totals(Subtree::Snapshot);
        let probe = tracer.begin("probe");
        let span = tracer.begin("core.warm.export");
        let summary = self
            .worker
            .export_to_dir_fs(&dir, fs.as_ref())
            .map_err(|e| format!("probe checkpoint: {e}"))?;
        tracer.end(span);
        let span = tracer.begin("core.warm.import");
        let restored = desy_deployment();
        let imported = restored
            .import_from_dir_fs(&dir, fs.as_ref())
            .map_err(|e| format!("probe restore: {e}"))?;
        tracer.end(span);
        tracer.end(probe);
        if imported.warm_state_error.is_some() || imported.storage.objects_rejected > 0 {
            return Err("probe restore rejected its own checkpoint".into());
        }
        Ok(Probe {
            io: Some(fs.totals(Subtree::Snapshot).minus(&before)),
            objects_written: Some(summary.storage.objects_written),
        })
    }
}

/// Checkpoint I/O measured outside the nights.
#[derive(Debug, Default)]
pub struct Probe {
    pub io: Option<IoTotals>,
    pub objects_written: Option<usize>,
}
