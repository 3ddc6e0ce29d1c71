//! Kill-and-resume integration tests for the checkpointed shard driver,
//! [`run_arch_shard_checkpointed`]: a shard interrupted mid-flight
//! (modeling a crash or SIGKILL between checkpoints) must resume from its
//! on-disk checkpoint and finish with tallies identical to an uninterrupted
//! run, and a checkpoint that is not the shard's own — another campaign's,
//! a torn one, an older format's — must be rejected loudly, never resumed.

use std::path::{Path, PathBuf};

use swapcodes_core::Scheme;
use swapcodes_inject::{
    run_arch_shard_checkpointed, ArchCampaign, CampaignOptions, CheckpointConfig, FaultMix,
    ShardControl, ShardRun, ShardSpec,
};
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run trials `[start, end)` of `campaign` as shard `tag`, checkpointing
/// into `dir` every `interval` trials and stopping after `stop_after`.
fn run_shard(
    campaign: &ArchCampaign<'_>,
    tag: &str,
    (start, end): (u64, u64),
    dir: Option<&Path>,
    interval: u64,
    stop_after: Option<u64>,
) -> ShardRun {
    let shard = ShardSpec {
        tag: tag.to_owned(),
        start,
        end,
    };
    let ck = CheckpointConfig {
        dir: dir.map(Path::to_path_buf),
        interval,
        max_retries: 3,
        stop_after,
    };
    run_arch_shard_checkpointed(campaign, &shard, &ck, None, |_| ShardControl::Continue)
}

/// Whether shard `tag` logged a rejected checkpoint under `dir`.
fn rejection_logged(dir: &Path, tag: &str) -> bool {
    std::fs::read_to_string(dir.join(format!("anomalies-{tag}.jsonl")))
        .unwrap_or_default()
        .contains("did not match")
}

#[test]
fn shard_resumes_byte_identically_after_repeated_stops() {
    let w = by_name("kmeans").expect("kmeans workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwapEcc, 0xC0FF_EE00)
        .expect("swap-ecc applies to kmeans");
    let range = (0, 20);

    // Interrupted twice, resumed from disk each time.
    let dir = scratch_dir("resume");
    let first = run_shard(&campaign, "resume", range, Some(&dir), 4, Some(7));
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.cursor, 7);

    let second = run_shard(&campaign, "resume", range, Some(&dir), 4, Some(9));
    assert!(!second.finished);
    assert_eq!(second.cursor, 16, "second run resumes at trial 7");

    let last = run_shard(&campaign, "resume", range, Some(&dir), 4, None);
    assert!(last.finished);
    assert_eq!(last.cursor, 20);
    assert_eq!(
        last.classes,
        campaign.run_range_classed(0, 20),
        "resumed tallies diverge from the uninterrupted run"
    );
    assert!(!rejection_logged(&dir, "resume"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint at the shard's path that is not its own — another
/// campaign's (here: another seed), or its own cut short by a torn write —
/// is rejected loudly: the shard logs a "did not match" anomaly, restarts
/// from its first trial and finishes on the checkpoint-free tallies.
#[test]
fn foreign_or_torn_checkpoint_is_rejected_loudly() {
    let w = by_name("kmeans").expect("kmeans workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwDup, 2).expect("prepare");
    let reference = campaign.run_range_classed(0, 12);
    for (what, seed, torn) in [("foreign", 1, false), ("torn", 2, true)] {
        let dir = scratch_dir(what);
        // Leave a half-finished checkpoint behind under `seed`...
        let writer = ArchCampaign::prepare(&w, Scheme::SwDup, seed).expect("prepare");
        let partial = run_shard(&writer, "reject", (0, 12), Some(&dir), 2, Some(5));
        assert_eq!(partial.cursor, 5);
        if torn {
            let ckpt = dir.join("reject.ckpt.json");
            let line = std::fs::read_to_string(&ckpt).expect("checkpoint written");
            std::fs::write(&ckpt, &line[..line.len() / 2]).expect("tear checkpoint");
        }
        // ...which the campaign under seed 2 must not trust.
        let probe = run_shard(&campaign, "reject", (0, 12), Some(&dir), 2, Some(0));
        assert_eq!(probe.cursor, 0, "{what} checkpoint misapplied");
        assert!(
            rejection_logged(&dir, "reject"),
            "{what} checkpoint not logged"
        );
        let last = run_shard(&campaign, "reject", (0, 12), Some(&dir), 2, None);
        assert!(last.finished);
        assert_eq!(last.classes, reference, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn default_config_reads_checkpoint_dir_from_env() {
    // Safe against the other tests here: they all set `dir` explicitly, so
    // a concurrent default() call never reaches their checkpoint paths.
    std::env::set_var("SWAPCODES_CHECKPOINT_DIR", "/tmp/swapcodes-env-probe");
    let picked = CheckpointConfig::default().dir;
    std::env::remove_var("SWAPCODES_CHECKPOINT_DIR");
    assert_eq!(picked, Some(PathBuf::from("/tmp/swapcodes-env-probe")));
}

/// The driver is a checkpointing wrapper over the in-memory trial loop: a
/// shard over `[0, trials)` tallies exactly `run_range_classed`.
#[test]
fn shard_driver_matches_run_range_classed() {
    let trials = 12u64;
    for (name, scheme) in [("kmeans", Scheme::SwapEcc), ("matmul", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, 0x100F_0001).expect("prepare");
        let run = run_shard(&campaign, "in-memory", (0, trials), None, 4, None);
        assert!(run.finished);
        assert_eq!(
            run.classes,
            campaign.run_range_classed(0, trials),
            "shard driver diverges from run_range_classed on {name}"
        );
    }
}

/// Shard checkpoints of trials [4, 16) of kmeans × Swap-ECC under seed
/// [`OLD_SEED`], written with interval 4 by earlier builds of the driver:
/// - `OLD_SHARD`, the format before one format served every driver
///   (`"campaign":"arch-shard"`), stopped after 5 trials of the default
///   transient mix;
/// - `PARENT_SHARD`, the format that still carried the recovery driver's
///   `mode` tag and five recovery counters, stopped after 7 trials of the
///   three-class mix.
const OLD_SEED: u64 = 0x5EED_0014;
const OLD_SHARD: &str = r#"{"campaign":"arch-shard","engine":"ff2p","faultmix":"t1c0s0","workload":"kmeans","scheme":"Swap-ECC","seed":1592590356,"fuel":25296,"start":4,"end":16,"cursor":9,"trap":0,"due":4,"crash":0,"hang":0,"masked":1,"sdc":0,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":4,"t_crash":0,"t_hang":0,"t_masked":1,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0}"#;
const PARENT_SHARD: &str = r#"{"campaign":"arch","mode":"plain","engine":"ff2p","faultmix":"t1c1s1","workload":"kmeans","scheme":"Swap-ECC","seed":1592590356,"fuel":25296,"start":4,"end":16,"cursor":11,"trap":0,"due":4,"crash":0,"hang":0,"masked":2,"sdc":1,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":3,"t_crash":0,"t_hang":0,"t_masked":0,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":2,"c_sdc":1,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":1,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0,"ckpts":0,"replays":0,"replayed":0,"corrections":0,"relaunches":0}"#;

/// Write `contents` as `file` in a fresh scratch directory.
fn planted(tag: &str, file: &str, contents: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(file), contents).expect("plant checkpoint");
    dir
}

/// A probe run (`stop_after: Some(0)`) over an old-format checkpoint must
/// either adopt it — resume at its `cursor` and log nothing — or reject it
/// loudly — restart at `start` and log a "did not match" anomaly line.
/// Resuming anywhere else would misapply the file.
fn assert_adopted_or_rejected_loudly(resumed_at: u64, (start, cursor): (u64, u64), log: &Path) {
    let logged = std::fs::read_to_string(log)
        .unwrap_or_default()
        .contains("did not match");
    if resumed_at == cursor {
        assert!(!logged, "adopted, yet rejected");
    } else {
        assert_eq!(resumed_at, start, "old checkpoint misapplied");
        assert!(logged, "rejection of {} must be logged", log.display());
    }
}

#[test]
fn old_format_checkpoints_are_adopted_or_rejected_loudly() {
    let kmeans = by_name("kmeans").expect("kmeans");
    let log = |dir: &Path| dir.join("anomalies-fixture.jsonl");

    let dir = planted("old-shard", "fixture.ckpt.json", OLD_SHARD);
    let campaign = ArchCampaign::prepare(&kmeans, Scheme::SwapEcc, OLD_SEED).expect("prepare");
    let run = |stop| run_shard(&campaign, "fixture", (4, 16), Some(&dir), 4, stop);
    let probe = run(Some(0));
    assert_adopted_or_rejected_loudly(probe.cursor, (4, 9), &log(&dir));
    let last = run(None);
    assert!(last.finished);
    assert_eq!(last.classes, campaign.run_range_classed(4, 16));
    let _ = std::fs::remove_dir_all(&dir);

    // A service restarted on a state directory the previous format wrote
    // keeps its progress: the shard resumes at the file's cursor.
    let dir = planted("parent-shard", "fixture.ckpt.json", PARENT_SHARD);
    let opts = CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::default()
    };
    let campaign =
        ArchCampaign::prepare_with(&kmeans, Scheme::SwapEcc, OLD_SEED, opts).expect("prepare");
    let run = |stop| run_shard(&campaign, "fixture", (4, 16), Some(&dir), 4, stop);
    let probe = run(Some(0));
    assert_eq!(
        probe.cursor, 11,
        "the previous format's checkpoint is adopted"
    );
    let last = run(None);
    assert!(last.finished);
    assert_eq!(last.classes, campaign.run_range_classed(4, 16));
    // The rewritten file drops the recovery fields and still resumes.
    let line = std::fs::read_to_string(dir.join("fixture.ckpt.json")).expect("checkpoint");
    for dropped in [
        "mode",
        "ckpts",
        "replays",
        "replayed",
        "corrections",
        "relaunches",
    ] {
        assert!(!line.contains(&format!("\"{dropped}\"")), "{line}");
    }
    assert_eq!(run(Some(0)).cursor, 16);
    assert!(!rejection_logged(&dir, "fixture"));
    let _ = std::fs::remove_dir_all(&dir);
}
