//! One fixed, valid sample of every disk and wire format with a public
//! encoder, shared by the format pins and the decoder totality gate.

use std::collections::BTreeMap;

use sp_system::core::fleet::{encode_campaign_config, encode_campaign_report};
use sp_system::core::{
    CampaignConfig, CampaignReport, CampaignScheduler, CampaignSummary, CampaignTicket, CellStatus,
    RunId, RunRecord, SpSystem, TestOutput,
};
use sp_system::env::{catalog, Version};
use sp_system::hep::{
    hist_io, write_dst, write_micro_dst, EventGenerator, GeneratorConfig, Histogram1D,
    HistogramSet, MicroEvent, Process,
};
use sp_system::obs::MetricsRegistry;
use sp_system::store::snapshot::encode_run_key;
use sp_system::store::{Archive, ArchiveEntry, CellRecord, RunKey, Snapshot, SnapshotSection};

/// `(format, bytes)` for every sample, and the ticket the campaign
/// report sample decodes under.
pub fn encodings() -> (Vec<(&'static str, Vec<u8>)>, CampaignTicket) {
    let record = CellRecord {
        campaign: 3,
        experiment: "h1".into(),
        group: "MC chain".into(),
        image_label: "SL6".into(),
        repetition: 1,
        run_id: 42,
        status: CellRecord::STATUS_WARNINGS,
        passed: 11,
        failed: 0,
        skipped: 2,
        timestamp: 86_400,
        worker: "w0".into(),
        lease_token: 2,
    };
    let metrics = MetricsRegistry::new();
    metrics.counter("fleet.campaigns_drained").add(4);
    metrics.gauge("store.wq.depth").set(-2);
    metrics.histogram("fleet.drain_us").observe_us(7_500);
    let mut memo = SnapshotSection::new("output-memo");
    memo.push(b"key".to_vec(), b"value".to_vec());
    memo.push(Vec::new(), Vec::new());
    let snapshot = Snapshot {
        sections: vec![SnapshotSection::new("digest-cache"), memo],
    };
    let mut q2 = Histogram1D::new("q2", 4, 0.0, 100.0);
    q2.fill_weighted(55.0, 2.5);
    q2.fill(-1.0);
    let histograms: HistogramSet = [q2, Histogram1D::new("y", 2, 0.0, 1.0)]
        .into_iter()
        .collect();
    let events: Vec<_> = EventGenerator::new(GeneratorConfig::hera_nc(), 7)
        .take(2)
        .collect();
    let micro = MicroEvent {
        id: 9,
        process: Process::Photoproduction,
        q2: 4.5,
        x: 0.0625,
        y: 0.875,
        e_prime: 25.25,
    };
    let mut archive = Archive::new();
    for (path, data) in [
        ("share/steering.dat", &b"Q2MIN 4.0"[..]),
        ("lib/empty", &b""[..]),
    ] {
        archive.add(ArchiveEntry::file(path, data)).unwrap();
    }
    archive
        .add(ArchiveEntry::executable("bin/h1rec", &b"\x7fELF"[..]))
        .unwrap();

    let system = SpSystem::new();
    system
        .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
        .unwrap();
    system
        .register_experiment(sp_system::experiments::hermes_experiment())
        .unwrap();
    let config = CampaignConfig::single_pass(&system);
    let config_bytes = encode_campaign_config(&config);
    let ticket = CampaignScheduler::new(&system, 1).submit(config).unwrap();
    let report = CampaignReport {
        ticket,
        summary: CampaignSummary {
            runs: vec![RunRecord {
                id: RunId(7),
                experiment: "hermes".into(),
                image_label: "SL6".into(),
                timestamp: 1_383_004_800,
                passed: 10,
                failed: 1,
                skipped: 2,
                successful: false,
            }],
            cells: BTreeMap::from([(
                ("hermes".into(), "unit checks".into(), "SL6".into()),
                CellStatus::Warnings,
            )]),
            image_labels: vec!["SL6".into()],
        },
        completed_repetitions: 1,
        cancelled: false,
    };

    let numbers = vec![("mean_q2".to_string(), 41.5), (String::new(), -0.0)];
    let encodings = vec![
        ("SPRL", record.encode()),
        ("SPMS", metrics.snapshot().encode()),
        ("SPWS", snapshot.encode()),
        ("SPAR", archive.pack().to_vec()),
        ("SPD1", write_dst(&events).to_vec()),
        ("SPU1", write_micro_dst(&[micro, micro]).to_vec()),
        ("SPH1", hist_io::encode_set(&histograms).to_vec()),
        ("Y", TestOutput::YesNo(true).to_bytes()),
        ("E", TestOutput::ExitCode(-3).to_bytes()),
        ("T", TestOutput::Text("cut flow: 120".into()).to_bytes()),
        ("N", TestOutput::Numbers(numbers).to_bytes()),
        ("H", TestOutput::Histograms(histograms).to_bytes()),
        (
            "run key",
            encode_run_key(&RunKey::new("h1/chain", 7, "SL6", 0.5)),
        ),
        ("campaign config", config_bytes),
        ("campaign report", encode_campaign_report(&report)),
    ];
    (encodings, ticket)
}
