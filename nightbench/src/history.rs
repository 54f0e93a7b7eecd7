//! The read side of the run log: the seeded query mix, timed restart
//! cycles (cold rebuild, then queries) over the log a workload wrote, and
//! the brute-force checks the query results are held to.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use sp_obs::{CellQuery, RunHistory};
use sp_store::{CellRecord, RunLog};

use crate::fleet::Check;
use crate::hostspeed::HostSpeed;
use crate::stats::{Fingerprint, Rng};
use crate::trace::Tracer;

/// Queries served after each cold rebuild.
const QUERIES_PER_CYCLE: usize = 40;

/// One read the query mix issues.
#[derive(Debug, Clone)]
pub enum Query {
    Cells(CellQuery),
    Timeline { experiment: String, image: String },
    Changes,
    Page(CellQuery),
}

impl Query {
    fn is_page(&self) -> bool {
        matches!(self, Query::Page(_))
    }
}

/// Percent of the mix each kind of read takes, in the order `query_mix`
/// builds them: experiment, image, status, campaign, time window,
/// experiment's failures, timeline, status changes, history page.
const MIX_PERCENT: [usize; 9] = [15, 15, 10, 15, 10, 10, 15, 5, 5];

/// The seeded query mix over the values present in `records`: mostly
/// indexed `CellQuery`s, then timelines, and a few whole-history reads
/// (status changes, the HTML history page). How many of each kind is
/// fixed; the seed picks their parameters and order, so every seed's mix
/// has the same composition and the same kinds set its tail.
pub fn query_mix(records: &[(u64, CellRecord)], rng: &mut Rng, count: usize) -> Vec<Query> {
    let pick =
        |rng: &mut Rng, values: &[String]| values[rng.below(values.len() as u64) as usize].clone();
    let distinct = |f: fn(&CellRecord) -> &String| {
        let mut v: Vec<String> = records.iter().map(|(_, r)| f(r).clone()).collect();
        v.sort();
        v.dedup();
        v
    };
    let experiments = distinct(|r| &r.experiment);
    let images = distinct(|r| &r.image_label);
    let campaign_max = records.iter().map(|(_, r)| r.campaign).max().unwrap_or(1);
    let times = records.iter().map(|(_, r)| r.timestamp);
    let (t0, t1) = (times.clone().min().unwrap_or(0), times.max().unwrap_or(0));
    let window = |rng: &mut Rng| {
        let since = t0 + rng.below((t1 - t0).max(1));
        (since, since + 7 * 86_400)
    };
    let mut kinds: Vec<usize> = MIX_PERCENT
        .iter()
        .enumerate()
        .flat_map(|(kind, percent)| std::iter::repeat_n(kind, count * percent / 100))
        .collect();
    kinds.resize(count, 0);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|kind| {
            let cells = CellQuery::all();
            match kind {
                0 => Query::Cells(cells.experiment(&pick(rng, &experiments))),
                1 => Query::Cells(cells.image(&pick(rng, &images))),
                2 => Query::Cells(cells.status(rng.below(4) as u8)),
                3 => Query::Cells(cells.campaign(1 + rng.below(campaign_max))),
                4 => {
                    let (since, until) = window(rng);
                    Query::Cells(cells.window(since, until))
                }
                5 => Query::Cells(
                    cells
                        .experiment(&pick(rng, &experiments))
                        .status(CellRecord::STATUS_FAIL),
                ),
                6 => Query::Timeline {
                    experiment: pick(rng, &experiments),
                    image: pick(rng, &images),
                },
                7 => Query::Changes,
                _ => {
                    let (since, until) = window(rng);
                    Query::Page(cells.window(since, until))
                }
            }
        })
        .collect()
}

fn cell_words(records: &[&CellRecord]) -> Fingerprint {
    Fingerprint::of(records.iter().flat_map(|r| [r.campaign, r.run_id]))
}

/// Runs one query; only the call into the library is timed.
fn run_query(history: &RunHistory, query: &Query) -> (Duration, Fingerprint) {
    let start = Instant::now();
    match query {
        Query::Cells(q) => {
            let found = std::hint::black_box(history.query(q));
            let elapsed = start.elapsed();
            (elapsed, cell_words(&found))
        }
        Query::Timeline { experiment, image } => {
            let found = std::hint::black_box(history.cell_timeline(experiment, "", image));
            let elapsed = start.elapsed();
            (elapsed, cell_words(&found))
        }
        Query::Changes => {
            let changes = std::hint::black_box(history.status_changes());
            let elapsed = start.elapsed();
            let words = changes.iter().flat_map(|c| [c.from.run_id, c.to.run_id]);
            (elapsed, Fingerprint::of(words))
        }
        Query::Page(q) => {
            let page = std::hint::black_box(sp_report::history::history_page(history, q));
            let elapsed = start.elapsed();
            (elapsed, Fingerprint::of([page_record_count(&page)]))
        }
    }
}

/// The record count the history page states in its "Records (N)" heading.
fn page_record_count(page: &str) -> u64 {
    page.split("<h2>Records (")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(u64::MAX)
}

/// The same answer by brute force over `RunLog::replay`, through
/// `CellQuery::matches` and plain sorting — no index involved.
fn brute_force(records: &[(u64, CellRecord)], query: &Query) -> Fingerprint {
    let all = records.iter().map(|(_, r)| r);
    match query {
        Query::Cells(q) => cell_words(&all.filter(|r| q.matches(r)).collect::<Vec<_>>()),
        Query::Timeline { experiment, image } => {
            let mut timeline: Vec<&CellRecord> = all
                .filter(|r| {
                    &r.experiment == experiment && r.group.is_empty() && &r.image_label == image
                })
                .collect();
            timeline.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
            cell_words(&timeline)
        }
        Query::Changes => {
            let mut cells: BTreeMap<(&str, &str, &str), Vec<&CellRecord>> = BTreeMap::new();
            for r in all {
                cells
                    .entry((&r.experiment, &r.group, &r.image_label))
                    .or_default()
                    .push(r);
            }
            let mut words = Vec::new();
            for timeline in cells.values_mut() {
                timeline.sort_by_key(|r| (r.timestamp, r.campaign, r.repetition, r.run_id));
                for pair in timeline.windows(2) {
                    if pair[0].status != pair[1].status {
                        words.extend([pair[0].run_id, pair[1].run_id]);
                    }
                }
            }
            Fingerprint::of(words)
        }
        Query::Page(q) => Fingerprint::of([all.filter(|r| q.matches(r)).count() as u64]),
    }
}

/// Copies the committed records of the run log at `from` into a new log
/// at `to`: the log as it stood at that moment, for repeated cold reads.
pub fn freeze(from: &Path, to: &Path) -> Result<RunLog, String> {
    let copy = |e: std::io::Error| format!("freezing the run log: {e}");
    let cells = to.join("cells");
    std::fs::create_dir_all(&cells).map_err(copy)?;
    for entry in std::fs::read_dir(from.join("cells")).map_err(copy)? {
        let entry = entry.map_err(copy)?;
        std::fs::copy(entry.path(), cells.join(entry.file_name())).map_err(copy)?;
    }
    RunLog::open(to).map_err(|e| format!("frozen run log: {e}"))
}

/// Timings of a series of restart cycles.
#[derive(Debug, Default)]
pub struct ReadSample {
    /// Cold `RunHistory::rebuild` of the whole log, ms.
    pub rebuild_ms: Vec<f64>,
    /// Every query run, µs, in the order of `results`.
    pub query_us: Vec<f64>,
    /// (query index, fingerprint) of every query run, for the check.
    pub results: Vec<(usize, Fingerprint)>,
    /// The host-speed timing taken before every cycle's burst, in the
    /// order of `rebuild_ms` (see `hostspeed`).
    pub kernel: Vec<usize>,
}

impl ReadSample {
    /// Records host-speed timing `kernel` as the one taken before every
    /// cycle added since the last call.
    pub fn kernel_for_new_cycles(&mut self, kernel: usize) {
        self.kernel.resize(self.rebuild_ms.len(), kernel);
    }

    /// `rebuild_ms` at the reference host speed.
    pub fn rebuild_scaled_ms(&self, speed: &HostSpeed) -> Vec<f64> {
        self.rebuild_ms
            .iter()
            .zip(&self.kernel)
            .map(|(ms, k)| ms * speed.scale_reads(*k))
            .collect()
    }

    /// The latency of each distinct query of the mix: the median of its
    /// executions, at the reference host speed when `speed` is given. Percentiles
    /// over these describe the mix, and a single scheduling hiccup cannot
    /// set the tail.
    pub fn per_query_us(&self, speed: Option<&HostSpeed>) -> Vec<f64> {
        let mut runs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (k, ((index, _), us)) in self.results.iter().zip(&self.query_us).enumerate() {
            let scale = speed.map_or(1.0, |s| s.scale_reads(self.kernel[k / QUERIES_PER_CYCLE]));
            runs.entry(*index).or_default().push(us * scale);
        }
        runs.values().map(|us| crate::stats::median(us)).collect()
    }
}

/// `cycles` restart cycles, added to `sample`: each cycle cold-rebuilds
/// the history from the log and serves the next `QUERIES_PER_CYCLE`
/// queries of the mix. `trace_every` > 0 traces every that many cycles
/// (the others run untraced).
pub fn read_cycles(
    log: &RunLog,
    mix: &[Query],
    cycles: usize,
    trace_every: usize,
    tracer: &mut Tracer,
    sample: &mut ReadSample,
) {
    let mut cursor = sample.results.len();
    for _ in 0..cycles {
        let cycle = sample.rebuild_ms.len();
        let traced = trace_every > 0 && cycle % trace_every == trace_every - 1;
        tracer.set_on(traced);
        let cycle_span = tracer.begin("cycle");
        // A traced cycle splits the rebuild into its replay and its index
        // build, the two calls `RunHistory::rebuild` makes.
        let start = Instant::now();
        let history = if traced {
            let span = tracer.begin("store.runlog.replay");
            let replay = log.replay();
            tracer.end(span);
            let span = tracer.begin("obs.query.index");
            let history = RunHistory::from_records(replay.records);
            tracer.end(span);
            history
        } else {
            RunHistory::rebuild(log)
        };
        let rebuild = start.elapsed();
        for _ in 0..QUERIES_PER_CYCLE {
            let index = cursor % mix.len();
            let query = &mix[index];
            let span = tracer.begin(if query.is_page() {
                "report.history.render"
            } else {
                "obs.query.query"
            });
            let (elapsed, fingerprint) = run_query(&history, query);
            tracer.end(span);
            sample.query_us.push(elapsed.as_secs_f64() * 1e6);
            sample.results.push((index, fingerprint));
            cursor += 1;
        }
        tracer.end(cycle_span);
        sample.rebuild_ms.push(rebuild.as_secs_f64() * 1e3);
    }
    tracer.set_on(false);
}

/// Every query result must equal the brute-force answer.
pub fn check_queries(log: &RunLog, mix: &[Query], results: &[(usize, Fingerprint)]) -> Check {
    let records = log.replay().records;
    let expected: Vec<Fingerprint> = mix.iter().map(|q| brute_force(&records, q)).collect();
    let mut check = Check::default();
    for (index, fingerprint) in results {
        check.record(expected[*index] == *fingerprint, || {
            format!(
                "query {:?} differs from the brute-force answer",
                mix[*index]
            )
        });
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::EXPERIMENTS;

    fn kind(query: &Query) -> &'static str {
        match query {
            Query::Cells(_) => "cells",
            Query::Timeline { .. } => "timeline",
            Query::Changes => "changes",
            Query::Page(_) => "page",
        }
    }

    #[test]
    fn every_seed_gets_the_same_mix_composition() {
        let records: Vec<(u64, CellRecord)> = (0..30u64)
            .map(|i| {
                let record = CellRecord {
                    campaign: 1 + i / 15,
                    experiment: EXPERIMENTS[(i % 3) as usize].to_string(),
                    group: String::new(),
                    image_label: format!("image-{}", i % 5),
                    repetition: 0,
                    run_id: i + 1,
                    status: CellRecord::STATUS_PASS,
                    passed: 1,
                    failed: 0,
                    skipped: 0,
                    timestamp: 1_383_004_800 + (i / 15) * 86_400,
                    worker: "w".into(),
                    lease_token: 1,
                };
                (i + 1, record)
            })
            .collect();
        let count = |seed| {
            let mut kinds = BTreeMap::new();
            for query in query_mix(&records, &mut Rng::new(seed, 3), 400) {
                *kinds.entry(kind(&query)).or_insert(0) += 1;
            }
            kinds
        };
        let first = count(1);
        assert_eq!(first, count(2));
        assert_eq!(first["changes"], 20);
        assert_eq!(first["page"], 20);
        assert_eq!(first.values().sum::<usize>(), 400);
    }
}
