//! Campaign statistics.

use std::collections::BTreeMap;

use sp_core::{fleet, CampaignSummary, FleetStats, ScheduleStats};
use sp_store::DigestCacheStats;

use crate::json::JsonValue;
use crate::table::{Align, TextTable};

/// Per-experiment campaign statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentStats {
    /// Number of runs.
    pub runs: usize,
    /// Runs that validated successfully.
    pub successful: usize,
    /// Total tests passed across runs.
    pub tests_passed: usize,
    /// Total tests failed across runs.
    pub tests_failed: usize,
}

/// Computes per-experiment statistics from a campaign summary.
pub fn campaign_stats(summary: &CampaignSummary) -> BTreeMap<String, ExperimentStats> {
    let mut stats: BTreeMap<String, ExperimentStats> = BTreeMap::new();
    for run in &summary.runs {
        let entry = stats
            .entry(run.experiment.clone())
            .or_insert(ExperimentStats {
                runs: 0,
                successful: 0,
                tests_passed: 0,
                tests_failed: 0,
            });
        entry.runs += 1;
        entry.successful += run.successful as usize;
        entry.tests_passed += run.passed;
        entry.tests_failed += run.failed;
    }
    stats
}

/// Renders campaign statistics as a text table.
pub fn render_stats(summary: &CampaignSummary) -> String {
    let stats = campaign_stats(summary);
    let mut table = TextTable::new(&["experiment", "runs", "successful", "passed", "failed"])
        .align(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (experiment, s) in &stats {
        table.row_owned(vec![
            experiment.clone(),
            s.runs.to_string(),
            s.successful.to_string(),
            s.tests_passed.to_string(),
            s.tests_failed.to_string(),
        ]);
    }
    table.render()
}

/// Renders the multi-campaign scheduler digest: admission and completion
/// counters, lane scheduling (including work-steals), and the memo
/// effectiveness the warm state contributed — the readable run digest the
/// `repro-longhaul` driver prints after each phase.
pub fn render_scheduler_stats(
    stats: &ScheduleStats,
    chain_memo: &DigestCacheStats,
    output_memo: &DigestCacheStats,
    build_memo: &DigestCacheStats,
) -> String {
    let mut table = TextTable::new(&["scheduler", "value"]).align(&[Align::Left, Align::Right]);
    table.row_owned(vec![
        "campaigns submitted".into(),
        stats.campaigns_submitted.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns admitted".into(),
        stats.campaigns_admitted.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns completed".into(),
        stats.campaigns_completed.to_string(),
    ]);
    table.row_owned(vec![
        "campaigns cancelled".into(),
        stats.campaigns_cancelled.to_string(),
    ]);
    table.row_owned(vec!["rounds".into(), stats.rounds.to_string()]);
    table.row_owned(vec![
        "lanes executed".into(),
        stats.lanes_executed.to_string(),
    ]);
    table.row_owned(vec![
        "lanes cancelled".into(),
        stats.lanes_cancelled.to_string(),
    ]);
    table.row_owned(vec!["lane steals".into(), stats.lanes_stolen.to_string()]);
    for (label, memo) in [
        ("chain memo", chain_memo),
        ("output memo", output_memo),
        ("build memo", build_memo),
    ] {
        table.row_owned(vec![
            label.into(),
            format!(
                "{} hits / {} misses ({:.0}% hit rate)",
                memo.hits,
                memo.misses,
                memo.hit_rate() * 100.0,
            ),
        ]);
    }
    table.render()
}

/// The merged worker counters of the fleet digest, in display order: text
/// table label, JSON key and counter name.
const DRAINED_ROWS: [(&str, &str, &str); 11] = [
    (
        "campaigns drained",
        "campaigns_drained",
        fleet::CAMPAIGNS_DRAINED,
    ),
    ("runs executed", "runs_executed", fleet::RUNS_EXECUTED),
    ("drain failures", "failures", fleet::FAILURES),
    ("lease renewals", "renewals", fleet::RENEWALS),
    ("io retries", "io_retries", fleet::IO_RETRIES),
    ("publish batches", "publish_batches", fleet::PUBLISH_BATCHES),
    ("scheduler rounds", "sched_rounds", fleet::SCHED_ROUNDS),
    (
        "lanes executed",
        "lanes_executed",
        fleet::SCHED_LANES_EXECUTED,
    ),
    ("lane steals", "lanes_stolen", fleet::SCHED_LANES_STOLEN),
    ("idle polls", "idle_polls", fleet::POLL_IDLE),
    ("time slept", "slept_ms", fleet::POLL_SLEPT_MS),
];

/// Renders the cross-process fleet digest: queue accounting from the
/// shared directory plus a projection of [`FleetStats::drained`], every
/// worker's published counters merged into one snapshot by
/// `MetricsSnapshot::merge` (each counter counts events owned by exactly
/// one worker, so nothing is double counted however many processes
/// contributed).
pub fn render_fleet_stats(stats: &FleetStats) -> String {
    let mut table = TextTable::new(&["fleet", "value"]).align(&[Align::Left, Align::Right]);
    table.row_owned(vec![
        "queue submissions".into(),
        stats.queue.submissions.to_string(),
    ]);
    table.row_owned(vec![
        "queue completed".into(),
        stats.queue.completed.to_string(),
    ]);
    table.row_owned(vec![
        "leases issued".into(),
        stats.queue.leases_issued.to_string(),
    ]);
    table.row_owned(vec![
        "crash reclaims".into(),
        stats.queue.reclaims.to_string(),
    ]);
    table.row_owned(vec![
        "corrupt records dropped".into(),
        stats.queue.corrupt_dropped.to_string(),
    ]);
    table.row_owned(vec![
        "poisoned submissions".into(),
        stats.queue.poisoned.to_string(),
    ]);
    table.row_owned(vec![
        "quarantined records".into(),
        stats.queue.quarantined.to_string(),
    ]);
    table.row_owned(vec!["worker processes".into(), stats.workers.to_string()]);
    for (label, _, name) in DRAINED_ROWS {
        let value = stats.drained.counter(name);
        let value = if name == fleet::POLL_SLEPT_MS {
            format!("{value} ms")
        } else {
            value.to_string()
        };
        table.row_owned(vec![label.into(), value]);
    }
    table.render()
}

/// Exports the merged fleet digest as JSON, mirroring every row of the
/// text table — including the failure-surface counters (`poisoned`,
/// `quarantined`, `corrupt_dropped`, `io_retries`) that dashboards need
/// to alert on.
pub fn fleet_stats_json(stats: &FleetStats) -> JsonValue {
    JsonValue::object([
        (
            "queue",
            JsonValue::object([
                ("submissions", stats.queue.submissions.into()),
                ("completed", stats.queue.completed.into()),
                ("leases_issued", stats.queue.leases_issued.into()),
                ("reclaims", stats.queue.reclaims.into()),
                ("corrupt_dropped", stats.queue.corrupt_dropped.into()),
                ("poisoned", stats.queue.poisoned.into()),
                ("quarantined", stats.queue.quarantined.into()),
            ]),
        ),
        ("workers", stats.workers.into()),
        (
            "drained",
            JsonValue::object(
                DRAINED_ROWS.map(|(_, key, name)| (key, stats.drained.counter(name).into())),
            ),
        ),
    ])
}

/// Exports a campaign summary as JSON.
pub fn campaign_json(summary: &CampaignSummary) -> JsonValue {
    let runs: Vec<JsonValue> = summary
        .runs
        .iter()
        .map(|r| {
            JsonValue::object([
                ("id", JsonValue::string(r.id.to_string())),
                ("experiment", JsonValue::string(&*r.experiment)),
                ("image", JsonValue::string(&*r.image_label)),
                ("timestamp", (r.timestamp as f64).into()),
                ("passed", r.passed.into()),
                ("failed", r.failed.into()),
                ("skipped", r.skipped.into()),
                ("successful", r.successful.into()),
            ])
        })
        .collect();
    JsonValue::object([
        ("total_runs", summary.total_runs().into()),
        ("successful_runs", summary.successful_runs().into()),
        ("runs", JsonValue::Array(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::campaign::RunRecord;
    use sp_core::RunId;

    fn summary() -> CampaignSummary {
        CampaignSummary {
            runs: vec![
                RunRecord {
                    id: RunId(1),
                    experiment: "h1".into(),
                    image_label: "SL5".into(),
                    timestamp: 100,
                    passed: 440,
                    failed: 0,
                    skipped: 2,
                    successful: false,
                },
                RunRecord {
                    id: RunId(2),
                    experiment: "h1".into(),
                    image_label: "SL6".into(),
                    timestamp: 200,
                    passed: 430,
                    failed: 12,
                    skipped: 0,
                    successful: false,
                },
                RunRecord {
                    id: RunId(3),
                    experiment: "zeus".into(),
                    image_label: "SL5".into(),
                    timestamp: 100,
                    passed: 150,
                    failed: 0,
                    skipped: 0,
                    successful: true,
                },
            ],
            cells: Default::default(),
            image_labels: vec!["SL5".into(), "SL6".into()],
        }
    }

    #[test]
    fn stats_aggregate_per_experiment() {
        let stats = campaign_stats(&summary());
        assert_eq!(stats["h1"].runs, 2);
        assert_eq!(stats["h1"].tests_failed, 12);
        assert_eq!(stats["zeus"].successful, 1);
    }

    #[test]
    fn table_renders() {
        let rendered = render_stats(&summary());
        assert!(rendered.contains("h1"));
        assert!(rendered.contains("zeus"));
        assert!(rendered.contains("12"));
    }

    #[test]
    fn scheduler_digest_renders_counters_and_memo_hits() {
        let stats = ScheduleStats {
            campaigns_submitted: 3,
            campaigns_admitted: 3,
            campaigns_completed: 2,
            campaigns_cancelled: 1,
            rounds: 7,
            lanes_executed: 21,
            lanes_cancelled: 2,
            lanes_local: 15,
            lanes_stolen: 6,
        };
        let memo = DigestCacheStats {
            hits: 9,
            misses: 3,
            entries: 12,
        };
        let rendered = render_scheduler_stats(&stats, &memo, &memo, &memo);
        assert!(rendered.contains("campaigns admitted"));
        assert!(rendered.contains("lane steals"));
        assert!(rendered.contains("9 hits / 3 misses (75% hit rate)"));
        assert!(rendered.contains("campaigns cancelled"));
    }

    #[test]
    fn fleet_digest_renders_merged_counters() {
        let worker = sp_obs::MetricsRegistry::new();
        worker.counter(fleet::CAMPAIGNS_DRAINED).add(3);
        worker.counter(fleet::RUNS_EXECUTED).add(42);
        worker.counter(fleet::FAILURES).add(1);
        worker.counter(fleet::RENEWALS).add(6);
        worker.counter(fleet::SCHED_ROUNDS).add(9);
        worker.counter(fleet::SCHED_LANES_EXECUTED).add(18);
        worker.counter(fleet::SCHED_LANES_STOLEN).add(4);
        let mut drained = sp_obs::MetricsSnapshot::default();
        drained.merge(&worker.snapshot());
        let stats = FleetStats {
            queue: sp_store::QueueStats {
                submissions: 4,
                completed: 4,
                leases_issued: 5,
                reclaims: 1,
                corrupt_dropped: 0,
                poisoned: 1,
                quarantined: 1,
            },
            workers: 2,
            drained,
        };
        let rendered = render_fleet_stats(&stats);
        assert!(rendered.contains("crash reclaims"));
        assert!(rendered.contains("worker processes"));
        assert!(rendered.contains("campaigns drained"));
        assert!(rendered.contains("poisoned submissions"));
        assert!(rendered.contains("quarantined records"));
        assert!(rendered.contains("lease renewals"));
        assert!(rendered.contains("io retries"));
        assert!(rendered.contains("publish batches"));
        assert!(rendered.contains("42"));
    }

    #[test]
    fn fleet_json_carries_failure_surface_counters() {
        let worker = sp_obs::MetricsRegistry::new();
        worker.counter(fleet::IO_RETRIES).add(7);
        let stats = FleetStats {
            queue: sp_store::QueueStats {
                submissions: 4,
                completed: 3,
                leases_issued: 5,
                reclaims: 1,
                corrupt_dropped: 2,
                poisoned: 1,
                quarantined: 1,
            },
            workers: 2,
            drained: worker.snapshot(),
        };
        let json = fleet_stats_json(&stats).render();
        assert!(json.contains("\"poisoned\":1"));
        assert!(json.contains("\"quarantined\":1"));
        assert!(json.contains("\"corrupt_dropped\":2"));
        assert!(json.contains("\"io_retries\":7"));
        assert!(json.contains("\"workers\":2"));
    }

    #[test]
    fn json_export() {
        let json = campaign_json(&summary()).render();
        assert!(json.contains("\"total_runs\":3"));
        assert!(json.contains("\"successful_runs\":1"));
        assert!(json.contains("spr-000002"));
    }
}
