//! Format pins: every disk and wire format encodes a fixed sample to the
//! exact bytes it always has. Content addresses, existing queue, run-log
//! and snapshot directories, and conserved DSTs and tar-balls all depend
//! on these bytes, so a pin must never be edited to make a codec change
//! pass — a failing pin means the change altered a format.

mod samples;

use std::path::PathBuf;
use std::sync::Arc;

use sp_system::store::{sha256, FixedClock, WorkQueue};

fn pin(bytes: &[u8], expected_hex: &str) {
    let hex = sha256::to_hex(&sha256::digest(bytes));
    assert_eq!(hex, expected_hex, "format bytes changed");
}

/// Pins the shared sample of `format`.
fn pin_sample(format: &str, expected_hex: &str) {
    let (encodings, _) = samples::encodings();
    let (_, bytes) = encodings.iter().find(|(name, _)| *name == format).unwrap();
    pin(bytes, expected_hex);
}

/// Pins one record file of a queue on a fixed clock holding a record of
/// every kind: submission 1 leased and reported by `w0`, submission 2
/// poisoned, and one worker blob.
fn pin_queue_file(path: &str, expected_hex: &str) {
    let dir = std::env::temp_dir().join(format!("sp-pins-{}-{path}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let queue = WorkQueue::open_with_time(&dir, 60, Arc::new(FixedClock(1_000))).unwrap();
    queue.submit(b"campaign-config", 100, 12, 7).unwrap();
    queue.submit(b"undecodable", 200, 3, 7).unwrap();
    let lease = queue.try_lease(1, "w0").unwrap().expect("lease");
    queue.publish_report(&lease, b"campaign-report").unwrap();
    queue.mark_poisoned(2, "w0", "bad payload").unwrap();
    queue.publish_worker_stats("w0", b"counter-blob").unwrap();
    let bytes = std::fs::read(PathBuf::from(&dir).join(path)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    pin(&bytes, expected_hex);
}

macro_rules! pins {
    ($($test:ident: $pin:ident($what:literal) == $hex:literal;)*) => {$(
        #[test]
        fn $test() {
            $pin($what, $hex);
        }
    )*};
}

pins! {
    spwq_submission: pin_queue_file("submissions/sub-00000001.spwq") == "bb32dfc220e78355b639a56975e9aa2c17cab76173b999c5505f283358a5803b";
    spwl_lease: pin_queue_file("leases/sub-00000001.g0001") == "d02d8be1a812f4c6695527c4c798438bfc1cb6eb434ce2f9b6763b198a8acd17";
    spwr_report: pin_queue_file("reports/sub-00000001.g0001.rep") == "093b558085d2cef154d0fdf7cb73e54fced2a960fc65952de2fa9755d6e3a203";
    spwt_worker_stats: pin_queue_file("workers/w0.stats") == "63601dd9d671d94a4d71e6bb99ed8eb41e69ec4c4e90a60df2e78bbc65560c5a";
    spwp_poison_mark: pin_queue_file("poison/sub-00000002.spwp") == "c9f3fae4ff3e0d36556ce529c72e733119baa81a8fafd977c74fbf493bd2eef0";
    sprl_cell_record: pin_sample("SPRL") == "f0f7de0ab2240a9b4c3f081db0ef4e1252922dbe0cb8e1120a806e22ca61eff3";
    spms_metrics_snapshot: pin_sample("SPMS") == "4a9cd38a6f33d769c4f0624db3fbc56c0160b9c4c2bcc20b1ce86c303ffd816f";
    spws_warm_snapshot: pin_sample("SPWS") == "5f7489ebaba219d6653058d667f79346ce68a276346713912491ac89b0cf37c0";
    spar_archive: pin_sample("SPAR") == "bd0192abd1c61946a9519b84794d09835bb673f8b3fd120ff2f5821a8127fdbf";
    spd1_dst: pin_sample("SPD1") == "c2d402513f70f3614f3b9e591c2b859cb2e6fe234e2b17d5ed1edc4ed58ca009";
    spu1_micro_dst: pin_sample("SPU1") == "991975da4da4988707930aec66ca58806a147824c84a2ef1798a1156318bb6a1";
    sph1_histogram_set: pin_sample("SPH1") == "aade72257206fcf74512a13f114fd4925404bac48044b14815f790e112271f96";
    test_output_yes_no: pin_sample("Y") == "76c7049e7c08f6d17f2dd37d9d4113746b37f677c72a658f28289acc20ee4645";
    test_output_exit_code: pin_sample("E") == "b77bbb7331eefae1beb64b8d3a2bd4da86e4a63b19bc7b302ba5098f394edfab";
    test_output_text: pin_sample("T") == "23712f0ef6a9bab4e241007e5c261a4a289a429a6620063983c455e83977f0e8";
    test_output_numbers: pin_sample("N") == "7e7ea77f9ac190084815364ccbed9bd619fd63f1dea47aa9b39f298cc55ca5f8";
    test_output_histograms: pin_sample("H") == "3200f35e1c70accdcb2a614b5696ba83fc0b37a7aebb87aeeb19122912ad1909";
    run_key: pin_sample("run key") == "584f27883d90e3923fe869ef2aa9989ec0e44a3a96f8ed23a83e97a3bdae7ed1";
    campaign_config: pin_sample("campaign config") == "99e8af770edc5b0c9d1f145f44dcdd3e657c298fd051ac763ea13b61a6623c7e";
    campaign_report: pin_sample("campaign report") == "cddc4bb32a2089baea2889a80a8ff2cbcd6635522d3712716b2ccacb9d9434eb";
}
