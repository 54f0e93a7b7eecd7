//! Per-layer metrics of the traced run, each with the end-to-end metric
//! (and workload) it is expected to move.

use std::path::Path;
use std::sync::Arc;

use sp_obs::MetricsSnapshot;
use sp_store::RunLog;

use crate::fleet::{Fleet, Mode, NightTrace, Probe, EXPERIMENTS, NIGHT_CELLS};
use crate::isolate::{self, PerCall, PerNight};
use crate::stats::{mean, median, ratio};
use crate::trace::{CountingFs, IoTotals, Subtree, Tracer, SUBTREES};
use crate::Metric;

/// Every per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric and workload it should move.
pub const LAYERS: [(&str, &str, &str, &str); 47] = [
    (
        "core.fleet.submit_ms",
        "ms",
        "lower",
        "night_p50_ms on memo_nightly",
    ),
    (
        "core.fleet.drain_ms",
        "ms",
        "lower",
        "cells_per_s on cold_grid and memo_nightly",
    ),
    (
        "core.fleet.collect_ms",
        "ms",
        "lower",
        "night_p50_ms on memo_nightly",
    ),
    (
        "core.warm.import_ms",
        "ms",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "core.warm.export_ms",
        "ms",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "store.runlog.replay_ms",
        "ms",
        "lower",
        "replay_p50_ms on memo_nightly",
    ),
    (
        "obs.query.rebuild_ms",
        "ms",
        "lower",
        "replay_p50_ms on memo_nightly",
    ),
    (
        "obs.query.query_us",
        "us",
        "lower",
        "query_p50_us and query_tail_us on memo_nightly",
    ),
    (
        "report.history.render_us",
        "us",
        "lower",
        "query_p50_us and query_tail_us on memo_nightly",
    ),
    (
        "wq.syncs",
        "count",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "wq.sync_ms",
        "ms",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "wq.bytes_written",
        "bytes",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "wq.reads",
        "count",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "wq.read_dir_entries",
        "count",
        "lower",
        "night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "runlog.syncs",
        "count",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "runlog.sync_ms",
        "ms",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "runlog.bytes_written",
        "bytes",
        "lower",
        "night_p50_ms and night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "runlog.reads",
        "count",
        "lower",
        "replay_p50_ms on memo_nightly (files read per cold rebuild)",
    ),
    (
        "runlog.read_dir_entries",
        "count",
        "lower",
        "night_tail_ms on memo_nightly; none on cold_grid",
    ),
    (
        "runlog.read_dir_entries_per_append",
        "ratio",
        "lower",
        "night_tail_ms on memo_nightly",
    ),
    (
        "snapshot.syncs",
        "count",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "snapshot.sync_ms",
        "ms",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "snapshot.bytes_written",
        "bytes",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "snapshot.reads",
        "count",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "snapshot.read_dir_entries",
        "count",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "snapshot.objects_written",
        "count",
        "lower",
        "night_p50_ms on checkpoint_restart",
    ),
    (
        "store.memo.chain.hit_ratio",
        "ratio",
        "higher",
        "cells_per_s on memo_nightly and checkpoint_restart; ~0 on cold_grid",
    ),
    (
        "store.memo.output.hit_ratio",
        "ratio",
        "higher",
        "cells_per_s on memo_nightly and checkpoint_restart; ~0 on cold_grid",
    ),
    (
        "store.memo.build.hit_ratio",
        "ratio",
        "higher",
        "cells_per_s on memo_nightly and checkpoint_restart; ~0 on cold_grid",
    ),
    (
        "exec.pool.tasks_stolen_ratio",
        "ratio",
        "lower",
        "cells_per_s on cold_grid",
    ),
    (
        "exec.sched.rounds",
        "count",
        "lower",
        "cells_per_s on cold_grid",
    ),
    (
        "fleet.publish_batches",
        "count",
        "lower",
        "night_p50_ms on memo_nightly",
    ),
    (
        "fleet.io_retry_ratio",
        "ratio",
        "lower",
        "night_tail_ms on memo_nightly",
    ),
    ("build.stack_ms", "ms", "lower", "cells_per_s on cold_grid"),
    ("build.stacks", "count", "lower", "cells_per_s on cold_grid"),
    ("hep.mcgen_ms", "ms", "lower", "cells_per_s on cold_grid"),
    ("hep.detsim_ms", "ms", "lower", "cells_per_s on cold_grid"),
    ("hep.reco_ms", "ms", "lower", "cells_per_s on cold_grid"),
    ("hep.dst_ms", "ms", "lower", "cells_per_s on cold_grid"),
    ("hep.events", "count", "lower", "cells_per_s on cold_grid"),
    ("store.sha256_ms", "ms", "lower", "cells_per_s on cold_grid"),
    (
        "store.sha256_bytes",
        "bytes",
        "lower",
        "cells_per_s on cold_grid",
    ),
    (
        "store.content_put_ms",
        "ms",
        "lower",
        "cells_per_s on cold_grid",
    ),
    (
        "core.compare_ms",
        "ms",
        "lower",
        "cells_per_s on memo_nightly",
    ),
    (
        "core.compare_by_id_ratio",
        "ratio",
        "higher",
        "cells_per_s on memo_nightly",
    ),
    (
        "drain_unattributed_ms",
        "ms",
        "lower",
        "cells_per_s on cold_grid and memo_nightly",
    ),
    (
        "tracing_overhead_frac",
        "ratio",
        "lower",
        "none (traced over untraced night_p50_ms, minus 1)",
    ),
];

pub struct Isolated {
    pub per_call: PerCall,
    pub per_night: PerNight,
}

fn counter_delta(t: &NightTrace, name: &str) -> f64 {
    t.after.counter(name).saturating_sub(t.before.counter(name)) as f64
}

/// (hits, misses) a night added to one memo. The drain samples the worker
/// system's cumulative memo counters into gauges; a system created inside
/// the night started from zero.
fn memo_delta(t: &NightTrace, prefix: &str) -> (f64, f64) {
    let gauge = |s: &MetricsSnapshot, k: &str| {
        s.gauges.get(&format!("{prefix}.{k}")).copied().unwrap_or(0) as f64
    };
    let (h0, m0) = if t.fresh_system {
        (0.0, 0.0)
    } else {
        (gauge(&t.before, "hits"), gauge(&t.before, "misses"))
    };
    (gauge(&t.after, "hits") - h0, gauge(&t.after, "misses") - m0)
}

/// The isolation pass on the fleet's most recent night, with the call
/// counts per night taken from the traced nights.
pub fn isolate_night(fleet: &Fleet, traces: &[NightTrace]) -> Isolated {
    let system = fleet.worker_system();
    let images = system.images().len() as f64;
    let (mut chains, mut parallel) = (0.0, 0.0);
    for name in EXPERIMENTS {
        if let Some(experiment) = system.experiment(name) {
            let shape = isolate::suite_shape(&experiment);
            chains += shape.chains as f64 * images;
            parallel += shape.parallel as f64 * images;
        }
    }
    let misses = |prefix: &str| {
        mean(
            &traces
                .iter()
                .map(|t| memo_delta(t, prefix).1)
                .collect::<Vec<_>>(),
        )
    };
    let per_night = if fleet.spec.mode == Mode::Cold {
        PerNight {
            stacks: NIGHT_CELLS as f64,
            chains,
            outputs: parallel,
            compares: chains + parallel,
        }
    } else {
        PerNight {
            stacks: misses("store.memo.build"),
            chains: misses("store.memo.chain"),
            outputs: misses("store.memo.output"),
            compares: chains + parallel,
        }
    };
    let run_ids: Vec<(&str, u64)> = fleet
        .campaigns
        .iter()
        .rev()
        .take(EXPERIMENTS.len())
        .flat_map(|c| (0..images as u64).map(move |i| (c.experiment, c.base + i)))
        .collect();
    Isolated {
        per_call: isolate::isolate(system, &fleet.spec, &run_ids),
        per_night,
    }
}

/// Files one cold `RunHistory::rebuild` of the log at `root` reads,
/// counted through the counting filesystem.
pub fn rebuild_reads(root: &Path) -> Result<u64, String> {
    let fs = Arc::new(CountingFs::new(root, root, root));
    let log = RunLog::open_with(root, fs.clone()).map_err(|e| format!("run log: {e}"))?;
    let before = fs.totals(Subtree::Runlog).reads;
    std::hint::black_box(sp_obs::RunHistory::rebuild(&log));
    Ok(fs.totals(Subtree::Runlog).reads - before)
}

pub struct FleetLayers<'a> {
    pub traces: &'a [NightTrace],
    /// Wall times of the traced and untraced nights.
    pub traced_ms: &'a [f64],
    pub untraced_ms: &'a [f64],
    pub probe: Probe,
    pub isolated: Isolated,
    /// Files read by one cold rebuild of the workload's log.
    pub rebuild_reads: u64,
}

/// Computes every metric of [`LAYERS`], in that order.
pub fn per_layer(f: &FleetLayers<'_>, tracer: &Tracer) -> Vec<Metric> {
    let per_night = |name: &str| median(&tracer.per_parent_ms(name, "night"));
    let all = |name: &str| median(&tracer.all_ms(name));
    let nights = f.traces.len().max(1) as f64;
    let mean_io = |subtree: Subtree| -> IoTotals {
        let sum = |get: fn(&IoTotals) -> u64| -> u64 {
            f.traces
                .iter()
                .map(|t| get(&t.io[subtree as usize]))
                .sum::<u64>()
                / nights as u64
        };
        IoTotals {
            ops: sum(|t| t.ops),
            op_ns: sum(|t| t.op_ns),
            syncs: sum(|t| t.syncs),
            sync_ns: sum(|t| t.sync_ns),
            bytes_written: sum(|t| t.bytes_written),
            reads: sum(|t| t.reads),
            read_dir_entries: sum(|t| t.read_dir_entries),
        }
    };
    let checkpoint_nights: Vec<f64> = f
        .traces
        .iter()
        .filter_map(|t| t.objects_written.map(|n| n as f64))
        .collect();
    let (snapshot_io, objects_written) = if checkpoint_nights.is_empty() {
        (
            f.probe.io.unwrap_or_default(),
            f.probe.objects_written.unwrap_or(0) as f64,
        )
    } else {
        (mean_io(Subtree::Snapshot), mean(&checkpoint_nights))
    };

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    put("core.fleet.submit_ms", per_night("core.fleet.submit"));
    put("core.fleet.drain_ms", per_night("core.fleet.drain"));
    put("core.fleet.collect_ms", per_night("core.fleet.collect"));
    put("core.warm.import_ms", all("core.warm.import"));
    put("core.warm.export_ms", all("core.warm.export"));
    put("store.runlog.replay_ms", all("store.runlog.replay"));
    put("obs.query.rebuild_ms", all("obs.query.index"));
    put("obs.query.query_us", all("obs.query.query") * 1e3);
    put(
        "report.history.render_us",
        all("report.history.render") * 1e3,
    );

    for (subtree, label) in SUBTREES {
        let io = if subtree == Subtree::Snapshot {
            snapshot_io
        } else {
            mean_io(subtree)
        };
        let reads = if subtree == Subtree::Runlog {
            f.rebuild_reads
        } else {
            io.reads
        };
        let fields = [
            ("syncs", io.syncs as f64),
            ("sync_ms", io.sync_ns as f64 / 1e6),
            ("bytes_written", io.bytes_written as f64),
            ("reads", reads as f64),
            ("read_dir_entries", io.read_dir_entries as f64),
        ];
        for (field, value) in fields {
            put(&format!("{label}.{field}"), value);
        }
        if subtree == Subtree::Runlog {
            let entries: u64 = f.traces.iter().map(|t| t.io[1].read_dir_entries).sum();
            put(
                "runlog.read_dir_entries_per_append",
                ratio(entries as f64, nights * NIGHT_CELLS as f64),
            );
        }
    }
    put("snapshot.objects_written", objects_written);

    for memo in ["chain", "output", "build"] {
        let prefix = format!("store.memo.{memo}");
        let (hits, misses) = f.traces.iter().fold((0.0, 0.0), |(h, m), t| {
            let (dh, dm) = memo_delta(t, &prefix);
            (h + dh, m + dm)
        });
        put(&format!("{prefix}.hit_ratio"), ratio(hits, hits + misses));
    }
    let total = |name: &str| f.traces.iter().map(|t| counter_delta(t, name)).sum::<f64>();
    let stolen = total("exec.pool.tasks_stolen");
    put(
        "exec.pool.tasks_stolen_ratio",
        ratio(stolen, stolen + total("exec.pool.tasks_local")),
    );
    put("exec.sched.rounds", total("exec.sched.rounds") / nights);
    put(
        "fleet.publish_batches",
        total("fleet.publish_batches") / nights,
    );
    let queue_ops: u64 = f.traces.iter().map(|t| t.io[0].ops).sum();
    put(
        "fleet.io_retry_ratio",
        ratio(total("fleet.io_retries"), queue_ops as f64),
    );

    let c = &f.isolated.per_call;
    let n = &f.isolated.per_night;
    for (name, value) in [
        ("build.stack_ms", c.build_stack),
        ("build.stacks", n.stacks),
        ("hep.mcgen_ms", c.mcgen),
        ("hep.detsim_ms", c.detsim),
        ("hep.reco_ms", c.reco),
        ("hep.dst_ms", c.dst),
        ("hep.events", n.chains * c.events_per_chain),
        ("store.sha256_ms", c.sha256),
        ("store.sha256_bytes", n.outputs * c.sha256_bytes),
        ("store.content_put_ms", c.content_put),
        ("core.compare_ms", c.compare),
        ("core.compare_by_id_ratio", c.compare_by_id_ratio),
    ] {
        put(name, value);
    }
    let in_cell = n.stacks * c.build_stack
        + n.chains * (c.mcgen + c.detsim + c.reco + c.dst)
        + n.outputs * (c.sha256 + c.content_put)
        + n.compares * c.compare;
    let drain_io_ms = median(
        &f.traces
            .iter()
            .map(|t| t.drain_io_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    put(
        "drain_unattributed_ms",
        per_night("core.fleet.drain") - drain_io_ms - in_cell,
    );
    put(
        "tracing_overhead_frac",
        ratio(median(f.traced_ms), median(f.untraced_ms)) - 1.0,
    );

    LAYERS
        .iter()
        .map(|(name, unit, _, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            let checkpoint = name.starts_with("core.warm.") || name.starts_with("snapshot.");
            let source = if checkpoint && checkpoint_nights.is_empty() {
                "probe"
            } else {
                "workload"
            };
            Metric {
                name,
                value,
                unit,
                note: source.to_string(),
            }
        })
        .collect()
}

/// The per-layer table: value, unit, where it was measured and what it
/// should move.
pub fn render_table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "per-layer ({workload}):\n  {:<36} {:>14} {:<6} {:<9} moves\n",
        "metric", "value", "unit", "measured"
    );
    for m in metrics {
        let moves = LAYERS
            .iter()
            .find(|(name, ..)| *name == m.name)
            .map_or("", |(.., moves)| moves);
        out.push_str(&format!(
            "  {:<36} {:>14.4} {:<6} {:<9} {moves}\n",
            m.name, m.value, m.unit, m.note
        ));
    }
    out.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json lists exactly the per-layer metrics this table
    /// computes, with the same unit and direction.
    #[test]
    fn benchmark_json_lists_every_layer() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better, _) in LAYERS {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), LAYERS.len() + 8);
    }
}
