//! Kill-and-resume integration tests: a campaign interrupted mid-flight
//! (modeling a crash or SIGKILL between checkpoints) must resume from its
//! on-disk checkpoint and finish with tallies identical to an uninterrupted
//! run of the same campaign.

use std::path::{Path, PathBuf};

use swapcodes_core::Scheme;
use swapcodes_gates::units::fxp_add32;
use swapcodes_inject::{
    run_arch_campaign_checkpointed, run_arch_shard_checkpointed,
    run_recovery_campaign_checkpointed, run_unit_campaign, run_unit_campaign_checkpointed,
    ArchCampaign, CampaignConfig, CheckpointConfig, FaultClassTallies, RecoveryCampaignConfig,
    ShardControl, ShardSpec,
};
use swapcodes_sim::recovery::RecoveryStats;
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn arch_campaign_resumes_byte_identically_after_interruption() {
    let w = by_name("kmeans").expect("kmeans workload");
    let trials = 20u64;
    let seed = 0xC0FF_EE00;

    // Reference: one uninterrupted run with no checkpoint directory at all.
    let reference = run_arch_campaign_checkpointed(
        &w,
        Scheme::SwapEcc,
        trials,
        seed,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("swap-ecc applies to kmeans");
    assert!(reference.finished);
    assert_eq!(reference.completed, trials);

    // Interrupted twice, resumed from disk each time.
    let dir = scratch_dir("arch");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 4,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(7)))
        .expect("prepare");
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.completed, 7);

    let second = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(9)))
        .expect("prepare");
    assert!(!second.finished);
    assert_eq!(second.completed, 16, "second run resumes at trial 7");

    let last = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(None))
        .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.completed, trials);
    assert_eq!(
        last.outcomes, reference.outcomes,
        "resumed tallies diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arch_checkpoint_for_other_campaign_is_ignored() {
    let w = by_name("kmeans").expect("kmeans workload");
    let dir = scratch_dir("arch-stale");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 2,
        stop_after,
        ..CheckpointConfig::default()
    };
    // Leave a half-finished checkpoint behind under seed A...
    let partial =
        run_arch_campaign_checkpointed(&w, Scheme::SwDup, 12, 1, &ck(Some(5))).expect("prepare");
    assert!(!partial.finished);
    // ...then run the same workload/scheme under seed B: the stale file must
    // not be trusted, so the campaign starts from scratch (flagging the
    // rejection) and matches a checkpoint-free run.
    let resumed =
        run_arch_campaign_checkpointed(&w, Scheme::SwDup, 12, 2, &ck(None)).expect("prepare");
    assert!(
        resumed.stale_engine,
        "a foreign checkpoint is rejected loudly"
    );
    let reference = run_arch_campaign_checkpointed(
        &w,
        Scheme::SwDup,
        12,
        2,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("prepare");
    assert!(resumed.finished);
    assert_eq!(resumed.outcomes, reference.outcomes);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint/resume composes with the recovery ladder: a recovery campaign
/// interrupted mid-flight resumes from disk and finishes with tallies *and*
/// recovery-work stats identical to an uninterrupted run — and its on-disk
/// state is mode-tagged, so a plain campaign's checkpoint is never trusted.
#[test]
fn recovery_campaign_resumes_byte_identically_after_interruption() {
    let w = by_name("matmul").expect("matmul workload");
    let trials = 18u64;
    let seed = 0x02EC_04E2u64;
    let rcfg = RecoveryCampaignConfig::default();

    let reference = run_recovery_campaign_checkpointed(
        &w,
        Scheme::SwapEcc,
        trials,
        seed,
        &rcfg,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("swap-ecc applies to matmul");
    assert!(reference.finished);
    assert_eq!(reference.completed, trials);
    assert!(
        reference.outcomes.recovered() > 0,
        "campaign must exercise recovery: {:?}",
        reference.outcomes
    );

    let dir = scratch_dir("recover");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 3,
        stop_after,
        ..CheckpointConfig::default()
    };
    // Run a *plain* campaign into the same directory first: its checkpoint
    // file is keyed differently and its mode tag is "plain", so the recovery
    // campaign below must start from zero either way.
    let _ = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(4)));

    let first =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(Some(5)))
            .expect("prepare");
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.completed, 5);

    let second =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(Some(6)))
            .expect("prepare");
    assert!(!second.finished);
    assert_eq!(second.completed, 11, "second run resumes at trial 5");

    let last =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(None))
            .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.completed, trials);
    assert_eq!(
        last.outcomes, reference.outcomes,
        "resumed tallies diverge from the uninterrupted run"
    );
    assert_eq!(
        last.stats, reference.stats,
        "resumed recovery stats diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_campaign_resumes_byte_identically_after_interruption() {
    let unit = fxp_add32();
    let inputs: Vec<[u64; 3]> = (0..40)
        .map(|i| [i * 0x1234_5678 % 0xFFFF_FFFF, i * 999 + 7, 0])
        .collect();
    let cfg = CampaignConfig::default();

    // Reference semantics: the plain (non-checkpointed) campaign driver.
    let reference = run_unit_campaign(&unit, &inputs, &cfg);

    let dir = scratch_dir("unit");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 8,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(Some(13)));
    assert!(!first.finished);
    assert!(first.result.is_none(), "interrupted runs carry no result");
    assert_eq!(first.completed, 13);

    let second = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(None));
    assert!(second.finished);
    assert_eq!(second.completed, inputs.len() as u64);
    let resumed = second.result.expect("finished runs carry a result");
    assert_eq!(resumed.records, reference.records);
    assert_eq!(resumed.fully_masked_inputs, reference.fully_masked_inputs);
    assert_eq!(resumed.attempts, reference.attempts);

    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn unit_campaign_without_checkpoint_dir_matches_plain_driver() {
    let unit = fxp_add32();
    let inputs: Vec<[u64; 3]> = (0..10).map(|i| [i * 77 + 5, i * 13 + 1, 0]).collect();
    let cfg = CampaignConfig::default();
    let plain = run_unit_campaign(&unit, &inputs, &cfg);
    let run = run_unit_campaign_checkpointed(
        &unit,
        &inputs,
        &cfg,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    );
    assert!(run.finished);
    let result = run.result.expect("result");
    assert_eq!(result.records, plain.records);
    assert_eq!(result.attempts, plain.attempts);
}

/// The whole-campaign drivers are wrappers over the in-memory trial loops:
/// the plain driver tallies exactly `run_range_classed`, and the recovery
/// driver exactly a `run_trial_recovering` loop, recovery stats included.
#[test]
fn drivers_match_in_memory_loops() {
    let trials = 12u64;
    let seed = 0x100F_0001u64;
    let rcfg = RecoveryCampaignConfig::default();
    let no_dir = CheckpointConfig {
        dir: None,
        ..CheckpointConfig::default()
    };
    for (name, scheme) in [("kmeans", Scheme::SwapEcc), ("matmul", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, seed).expect("prepare");
        let plain =
            run_arch_campaign_checkpointed(&w, scheme, trials, seed, &no_dir).expect("prepare");
        assert_eq!(
            plain.classes,
            campaign.run_range_classed(0, trials),
            "plain driver diverges from run_range_classed on {name}"
        );

        let mut classes = FaultClassTallies::default();
        let mut stats = RecoveryStats::default();
        for trial in 0..trials {
            let ran = campaign.run_trial_recovering(trial, &rcfg.recovery);
            classes.record(campaign.trial_fault_salted(trial, 0).class, ran.outcome);
            stats.merge(&ran.stats);
        }
        let recover = run_recovery_campaign_checkpointed(&w, scheme, trials, seed, &rcfg, &no_dir)
            .expect("prepare");
        assert_eq!(
            recover.classes, classes,
            "recovery driver diverges from run_trial_recovering on {name}"
        );
        assert_eq!(recover.outcomes, classes.aggregate());
        assert_eq!(recover.stats, stats);
    }
}

/// Checkpoints exactly as the previous on-disk format wrote them, one per
/// driver, all under seed [`OLD_SEED`] with interval 4: the plain campaign
/// (kmeans × Swap-ECC, 12 trials) stopped after 5 trials, the recovery
/// campaign (matmul × Swap-ECC, 10 trials) after 4, and the shard
/// `fixture` = trials [4, 16) of kmeans × Swap-ECC after 5.
const OLD_SEED: u64 = 0x5EED_0014;
const OLD_PLAIN: &str = r#"{"campaign":"arch","mode":"plain","engine":"ff2p","faultmix":"t1c0s0","workload":"kmeans","scheme":"Swap-ECC","seed":1592590356,"fuel":25296,"trials":12,"completed":5,"trap":0,"due":5,"crash":0,"hang":0,"masked":0,"sdc":0,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":5,"t_crash":0,"t_hang":0,"t_masked":0,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0,"ckpts":0,"replays":0,"replayed":0,"corrections":0,"relaunches":0}"#;
const OLD_RECOVER: &str = r#"{"campaign":"arch","mode":"recover","engine":"classicp","faultmix":"t1c0s0","workload":"matmul","scheme":"Swap-ECC","seed":1592590356,"fuel":142352,"trials":10,"completed":4,"trap":0,"due":0,"crash":0,"hang":0,"masked":0,"sdc":0,"rec_correct":0,"rec_replay":4,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":0,"t_crash":0,"t_hang":0,"t_masked":0,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":4,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0,"ckpts":384,"replays":4,"replayed":448,"corrections":0,"relaunches":0}"#;
const OLD_SHARD: &str = r#"{"campaign":"arch-shard","engine":"ff2p","faultmix":"t1c0s0","workload":"kmeans","scheme":"Swap-ECC","seed":1592590356,"fuel":25296,"start":4,"end":16,"cursor":9,"trap":0,"due":4,"crash":0,"hang":0,"masked":1,"sdc":0,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":4,"t_crash":0,"t_hang":0,"t_masked":1,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0}"#;

/// Write `contents` as `file` in a fresh scratch directory.
fn planted(tag: &str, file: &str, contents: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(file), contents).expect("plant checkpoint");
    dir
}

/// A probe run (`stop_after: Some(0)`) over an old-format checkpoint must
/// either adopt it — resume at its `cursor`, flag nothing, log nothing —
/// or reject it loudly — restart at `start`, flag the rejection where the
/// driver reports one, and log a "did not match" anomaly line. Resuming
/// anywhere else would misapply the file.
fn assert_adopted_or_rejected_loudly(
    resumed_at: u64,
    flagged: Option<bool>,
    (start, cursor): (u64, u64),
    log: &Path,
) {
    let logged = std::fs::read_to_string(log)
        .unwrap_or_default()
        .contains("did not match");
    if resumed_at == cursor {
        assert!(!logged && flagged != Some(true), "adopted, yet rejected");
    } else {
        assert_eq!(resumed_at, start, "old checkpoint misapplied");
        assert!(logged, "rejection of {} must be logged", log.display());
        assert_ne!(flagged, Some(false), "rejection must set stale_engine");
    }
}

#[test]
fn old_format_checkpoints_are_adopted_or_rejected_loudly() {
    let kmeans = by_name("kmeans").expect("kmeans");
    let matmul = by_name("matmul").expect("matmul");
    let rcfg = RecoveryCampaignConfig::default();
    let ck = |dir: &Path, stop_after| CheckpointConfig {
        dir: Some(dir.to_path_buf()),
        interval: 4,
        stop_after,
        ..CheckpointConfig::default()
    };
    let no_dir = CheckpointConfig {
        dir: None,
        ..CheckpointConfig::default()
    };

    let dir = planted("old-plain", "arch-kmeans-swap-ecc.ckpt.json", OLD_PLAIN);
    let run = |stop| {
        run_arch_campaign_checkpointed(&kmeans, Scheme::SwapEcc, 12, OLD_SEED, &ck(&dir, stop))
    };
    let probe = run(Some(0)).expect("prepare");
    let log = dir.join("anomalies.jsonl");
    assert_adopted_or_rejected_loudly(probe.completed, Some(probe.stale_engine), (0, 5), &log);
    let last = run(None).expect("prepare");
    let reference = run_arch_campaign_checkpointed(&kmeans, Scheme::SwapEcc, 12, OLD_SEED, &no_dir)
        .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.classes, reference.classes);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = planted(
        "old-recover",
        "recover-matmul-swap-ecc.ckpt.json",
        OLD_RECOVER,
    );
    let run = |stop| {
        run_recovery_campaign_checkpointed(
            &matmul,
            Scheme::SwapEcc,
            10,
            OLD_SEED,
            &rcfg,
            &ck(&dir, stop),
        )
    };
    let probe = run(Some(0)).expect("prepare");
    let log = dir.join("anomalies.jsonl");
    assert_adopted_or_rejected_loudly(probe.completed, Some(probe.stale_engine), (0, 4), &log);
    let last = run(None).expect("prepare");
    let reference =
        run_recovery_campaign_checkpointed(&matmul, Scheme::SwapEcc, 10, OLD_SEED, &rcfg, &no_dir)
            .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.classes, reference.classes);
    assert_eq!(last.stats, reference.stats);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = planted("old-shard", "fixture.ckpt.json", OLD_SHARD);
    let campaign = ArchCampaign::prepare(&kmeans, Scheme::SwapEcc, OLD_SEED).expect("prepare");
    let shard = ShardSpec {
        tag: "fixture".to_owned(),
        start: 4,
        end: 16,
    };
    let run = |stop| {
        run_arch_shard_checkpointed(&campaign, &shard, &ck(&dir, stop), None, |_| {
            ShardControl::Continue
        })
    };
    let probe = run(Some(0));
    let log = dir.join("anomalies-fixture.jsonl");
    assert_adopted_or_rejected_loudly(probe.cursor, None, (4, 9), &log);
    let last = run(None);
    assert!(last.finished);
    assert_eq!(last.classes, campaign.run_range_classed(4, 16));
    let _ = std::fs::remove_dir_all(&dir);
}
