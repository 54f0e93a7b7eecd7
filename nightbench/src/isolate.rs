//! The isolation pass: each in-cell layer's public function called on the
//! inputs the workload used — the same experiments, images, scale and
//! campaign seed, and the outputs the worker system conserved for its
//! most recent night — timed per call.

use std::time::Instant;

use sp_build::{BuildEngine, ParallelBuilder};
use sp_core::{Comparator, ExperimentDef, SpSystem, TestKind, TestOutput};
use sp_env::compat::{check_runtime, RuntimeOutcome};
use sp_env::EnvironmentSpec;
use sp_hep::{
    reconstruct, write_dst, write_micro_dst, DetectorSim, EventGenerator, GeneratorConfig,
    MicroEvent, SmearingConstants,
};
use sp_store::shared::StorageArea;
use sp_store::SharedStorage;

use crate::fleet::{FleetSpec, EXPERIMENTS};
use crate::stats::{mean, ratio};

/// Mean wall time per call of each in-cell layer, in ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerCall {
    pub build_stack: f64,
    pub mcgen: f64,
    pub detsim: f64,
    pub reco: f64,
    pub dst: f64,
    pub sha256: f64,
    pub sha256_bytes: f64,
    pub content_put: f64,
    pub compare: f64,
    /// Share of comparisons decided by `compare_by_id` alone.
    pub compare_by_id_ratio: f64,
    /// Events generated per chain execution.
    pub events_per_chain: f64,
}

/// Calls per night the workload makes of each in-cell layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerNight {
    pub stacks: f64,
    pub chains: f64,
    pub outputs: f64,
    pub compares: f64,
}

/// Tests of each kind in one experiment's suite.
pub struct SuiteShape {
    pub chains: usize,
    pub parallel: usize,
}

pub fn suite_shape(experiment: &ExperimentDef) -> SuiteShape {
    let tests = experiment.suite.tests();
    let chains = tests
        .iter()
        .filter(|t| matches!(t.kind, TestKind::Chain { .. }))
        .count();
    let parallel = tests
        .iter()
        .filter(|t| {
            matches!(
                t.kind,
                TestKind::UnitCheck { .. } | TestKind::Standalone { .. }
            )
        })
        .count();
    SuiteShape { chains, parallel }
}

/// Event count the system runs a chain at (mirrors its scaling rule:
/// nominal events × scale, at least ten).
fn scaled_events(events: usize, scale: f64) -> usize {
    ((events as f64 * scale).round() as usize).max(10)
}

/// Times every in-cell layer on the workload's inputs. `run_ids` are the
/// ids of the most recent night's runs, with their experiment.
pub fn isolate(system: &SpSystem, spec: &FleetSpec, run_ids: &[(&str, u64)]) -> PerCall {
    let images: Vec<EnvironmentSpec> = system.images().iter().map(|i| i.spec.clone()).collect();
    let experiments: Vec<std::sync::Arc<ExperimentDef>> = EXPERIMENTS
        .iter()
        .filter_map(|name| system.experiment(name))
        .collect();
    let mut out = PerCall::default();

    // §3.1 (ii): the stack build, into scratch storage so the worker
    // system's store is left as the workload left it.
    let mut builds = Vec::new();
    for experiment in &experiments {
        for env in &images {
            let builder = ParallelBuilder::new(
                BuildEngine::new(SharedStorage::new()),
                spec.budget.run_threads,
            );
            let start = Instant::now();
            let report = builder.build_stack(&experiment.graph, env);
            builds.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(report.is_ok());
        }
    }
    out.build_stack = mean(&builds);

    // §3.2: the chain stages, at the workload's scale and seeds.
    let generator = GeneratorConfig::hera_nc();
    let (mut mcgen, mut detsim, mut reco, mut dst, mut events) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for experiment in &experiments {
        for env in &images {
            for test in experiment.suite.tests() {
                let TestKind::Chain {
                    stage_packages,
                    events: nominal,
                    ..
                } = &test.kind
                else {
                    continue;
                };
                let n = scaled_events(*nominal, spec.scale);
                let seed = sp_store::fnv64(test.id.as_str()) ^ spec.campaign_seed;
                let deviation: f64 = stage_packages
                    .values()
                    .map(|package| {
                        match check_runtime(&experiment.effective_runtime_traits(package), env) {
                            RuntimeOutcome::Deviating { shift_sigma, .. } => shift_sigma,
                            _ => 0.0,
                        }
                    })
                    .sum();

                let start = Instant::now();
                let generated: Vec<_> = EventGenerator::new(generator.clone(), seed)
                    .take(n)
                    .collect();
                mcgen.push(start.elapsed().as_secs_f64() * 1e3);

                let start = Instant::now();
                let sim = DetectorSim::new(SmearingConstants::V2_SL5).with_deviation(deviation);
                let simulated: Vec<_> = generated
                    .iter()
                    .map(|ev| sim.simulate(ev, seed ^ ev.id))
                    .collect();
                detsim.push(start.elapsed().as_secs_f64() * 1e3);

                let start = Instant::now();
                let reconstructed: Vec<_> = simulated
                    .iter()
                    .map(|ev| reconstruct(ev, &generator))
                    .collect();
                reco.push(start.elapsed().as_secs_f64() * 1e3);

                let start = Instant::now();
                let micro: Vec<MicroEvent> = reconstructed
                    .iter()
                    .filter_map(|r| {
                        let k = r.kinematics?;
                        Some(MicroEvent {
                            id: r.id,
                            process: r.process,
                            q2: k.q2,
                            x: k.x,
                            y: k.y,
                            e_prime: r.electron.map_or(0.0, |e| e.e),
                        })
                    })
                    .collect();
                std::hint::black_box((
                    write_dst(&generated),
                    write_dst(&simulated),
                    write_micro_dst(&micro),
                ));
                dst.push(start.elapsed().as_secs_f64() * 1e3);
                events.push(n as f64);
            }
        }
    }
    out.mcgen = mean(&mcgen);
    out.detsim = mean(&detsim);
    out.reco = mean(&reco);
    out.dst = mean(&dst);
    out.events_per_chain = mean(&events);

    // Encode + SHA-256, content-store put and comparison, on the outputs
    // the worker system conserved for the night, against its references.
    let content = system.storage().content();
    let mut outputs = Vec::new();
    for (experiment, run_id) in run_ids {
        let prefix = format!("{}/", sp_core::RunId(*run_id));
        for (key, id) in system.storage().list(StorageArea::Results, &prefix) {
            let Some(rest) = key.strip_prefix(&prefix) else {
                continue;
            };
            let reference = if let Some(test) = rest.strip_suffix("/result") {
                Some((test.to_string(), "result"))
            } else {
                rest.strip_suffix("/analysis/histograms")
                    .map(|test| (format!("{test}/analysis"), "histograms"))
            };
            let Some((test_id, output_name)) = reference else {
                continue;
            };
            let Some(output) = content
                .get(id)
                .ok()
                .and_then(|b| TestOutput::from_bytes(&b))
            else {
                continue;
            };
            let reference_id =
                system
                    .ledger()
                    .reference_output_id(experiment, &test_id, output_name);
            outputs.push((key, id, output, reference_id));
        }
    }
    let (mut sha, mut sha_bytes, mut put, mut cmp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut by_id = 0usize;
    let mut compared = 0usize;
    let scratch = SharedStorage::new();
    let mut buffer = Vec::new();
    let budget = Instant::now();
    // Repeat the pass until enough time is measured for a steady mean.
    while !outputs.is_empty()
        && (sha.len() < 3 * outputs.len() || budget.elapsed().as_millis() < 50)
    {
        for (key, _, output, reference_id) in &outputs {
            let start = Instant::now();
            let digest = output.encode_and_digest(&mut buffer);
            sha.push(start.elapsed().as_secs_f64() * 1e3);
            sha_bytes.push(buffer.len() as f64);

            let payload = buffer.clone();
            let start = Instant::now();
            std::hint::black_box(scratch.put_named_prehashed(
                StorageArea::Results,
                key,
                digest,
                payload,
            ));
            put.push(start.elapsed().as_secs_f64() * 1e3);

            let Some(reference_id) = reference_id else {
                continue;
            };
            let reference = content
                .get(*reference_id)
                .ok()
                .and_then(|b| TestOutput::from_bytes(&b));
            let comparator = Comparator::default_for(output);
            let start = Instant::now();
            let outcome = match comparator.compare_by_id(digest, *reference_id) {
                Some(outcome) => {
                    by_id += 1;
                    Some(outcome)
                }
                None => reference.map(|r| comparator.compare(output, &r)),
            };
            cmp.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(outcome);
            compared += 1;
        }
    }
    out.sha256 = mean(&sha);
    out.sha256_bytes = mean(&sha_bytes);
    out.content_put = mean(&put);
    out.compare = mean(&cmp);
    out.compare_by_id_ratio = ratio(by_id as f64, compared as f64);
    out
}
