//! Fast-forward engine validation: the snapshot-resuming trial path must be
//! outcome-identical to the from-scratch reference executor, and campaign
//! checkpoints written before the engine existed must be rejected loudly
//! (restart from trial 0 + anomaly record), never silently resumed.

use std::path::PathBuf;

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    run_arch_campaign_checkpointed, run_recovery_campaign_checkpointed, ArchCampaign, CampaignRun,
    CheckpointConfig, RecoveryCampaignConfig, TrialOutcome,
};
use swapcodes_sim::recovery::RecoveryStats;
use swapcodes_workloads::{by_name, Workload};

/// The (workload, scheme) cells the differential property samples from —
/// every scheme family, including the unprotected baseline (whose SDC-heavy
/// outcome mix stresses the golden-output comparison rather than detection).
fn cells() -> Vec<(&'static str, Scheme)> {
    vec![
        ("matmul", Scheme::Baseline),
        ("matmul", Scheme::SwapEcc),
        ("matmul", Scheme::SwDup),
        ("kmeans", Scheme::SwapEcc),
        ("kmeans", Scheme::SwDup),
        ("kmeans", Scheme::SwapPredict(PredictorSet::MAD)),
        ("hspot", Scheme::SwapEcc),
        ("pathf", Scheme::SwapPredict(PredictorSet::FP_MAD)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random cells, seeds, salts and trial windows, the fast-forward
    /// path and the from-scratch reference path classify every trial
    /// identically.
    #[test]
    fn fast_forward_matches_reference(
        cell in 0usize..8,
        seed in 0u64..1_000_000,
        salt in 0u32..4,
        start in 0u64..48,
    ) {
        let (name, scheme) = cells()[cell];
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, seed).expect("applies");
        for trial in start..start + 6 {
            let fast = campaign.run_trial_salted(trial, salt);
            let reference = campaign.run_trial_reference_salted(trial, salt);
            prop_assert_eq!(
                fast,
                reference,
                "trial {} (seed {:#x}, salt {}) diverged on {}/{}",
                trial,
                seed,
                salt,
                name,
                scheme.label()
            );
        }
    }
}

/// A dense window of trials on the two bench cells, checked one-for-one
/// against the reference executor (the bench's 1,000-trial differential
/// gate in `perf_baseline` extends this to full campaign scale).
#[test]
fn dense_trial_window_matches_reference() {
    for (name, scheme) in [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, 0xD1FF).expect("applies");
        for trial in 0..100 {
            assert_eq!(
                campaign.run_trial_salted(trial, 0),
                campaign.run_trial_reference_salted(trial, 0),
                "trial {trial} diverged on {name}/{}",
                scheme.label()
            );
        }
    }
}

/// The engine actually fast-forwards: across a batch of trials, most resume
/// from a non-zero epoch, the total executed instruction count is well below
/// replaying the golden prefix every time, and early exits only ever
/// classify Masked.
#[test]
fn telemetry_shows_resume_and_early_exit() {
    let w = by_name("matmul").expect("workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwapEcc, 7).expect("applies");
    assert!(
        campaign.snapshot_count() >= 2,
        "ladder must hold more than the initial epoch"
    );
    let trials = 64u64;
    let mut resumed_nonzero = 0u64;
    let mut executed_total = 0u64;
    for trial in 0..trials {
        let (outcome, telem) = campaign.run_trial_telemetry_salted(trial, 0);
        if telem.early_exit {
            assert_eq!(
                outcome,
                TrialOutcome::Masked,
                "early exit may only classify Masked"
            );
        }
        if telem.resumed_from > 0 {
            resumed_nonzero += 1;
        }
        executed_total += telem.executed;
    }
    assert!(
        resumed_nonzero * 2 > trials,
        "most trials should resume past epoch 0 ({resumed_nonzero}/{trials})"
    );
    assert!(
        executed_total < trials * campaign.golden_dynamic(),
        "fast path must execute fewer instructions than from-scratch replay"
    );
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-ff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One run of a whole-campaign driver — the plain one, or (`recover`) the
/// recovery one seen as a plain run plus its recovery stats (zero for the
/// plain driver).
fn run_driver(
    recover: bool,
    w: &Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
    ck: &CheckpointConfig,
) -> (CampaignRun, RecoveryStats) {
    if !recover {
        let run = run_arch_campaign_checkpointed(w, scheme, trials, seed, ck).expect("prepare");
        return (run, RecoveryStats::default());
    }
    let rcfg = RecoveryCampaignConfig::default();
    let r =
        run_recovery_campaign_checkpointed(w, scheme, trials, seed, &rcfg, ck).expect("prepare");
    let run = CampaignRun {
        outcomes: r.outcomes,
        classes: r.classes,
        completed: r.completed,
        finished: r.finished,
        anomalies: r.anomalies,
        stale_engine: r.stale_engine,
    };
    (run, r.stats)
}

/// Kill-and-resume across an engine change: a checkpoint written by the
/// pre-fast-forward harness (no `engine` tag) matches the campaign identity
/// but must NOT be resumed — the run restarts from trial 0, flags
/// `stale_engine`, records an anomaly, and still converges to the
/// uninterrupted tallies. Both whole-campaign drivers: the plain one (tier
/// 2, peepholed: `ff2p`) and the recovery one (classic executor over the
/// peepholed kernel: `classicp`).
#[test]
fn stale_engine_checkpoint_restarts_from_zero() {
    for (recover, engine) in [(false, "ff2p"), (true, "classicp")] {
        stale_engine_restarts(recover, engine);
    }
}

fn stale_engine_restarts(recover: bool, engine: &str) {
    let w = by_name("kmeans").expect("workload");
    let trials = 12u64;
    let seed = 0xFA57_0001u64;
    let dir = scratch_dir(&format!("stale-{engine}"));
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 2,
        stop_after,
        ..CheckpointConfig::default()
    };

    let (reference, reference_stats) = run_driver(
        recover,
        &w,
        Scheme::SwapEcc,
        trials,
        seed,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    );

    // Leave a half-finished, correctly tagged checkpoint behind...
    let (first, _) = run_driver(recover, &w, Scheme::SwapEcc, trials, seed, &ck(Some(5)));
    assert!(!first.finished);
    assert!(!first.stale_engine);
    assert_eq!(first.completed, 5);

    // ...then rewrite it as a pre-fast-forward checkpoint by stripping the
    // engine tag, exactly what a file from an older build looks like.
    let ckpt = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(".ckpt.json"))
        .expect("checkpoint file");
    let tagged = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    let tag = format!("\"engine\":\"{engine}\"");
    assert!(
        tagged.contains(&tag),
        "checkpoint carries the default engine tag {engine}"
    );
    std::fs::write(&ckpt, tagged.replace(&format!("{tag},"), "")).expect("rewrite");

    // The resume must refuse the stale file and start over from trial 0.
    let (second, _) = run_driver(recover, &w, Scheme::SwapEcc, trials, seed, &ck(Some(3)));
    assert!(second.stale_engine, "stale engine must be flagged");
    assert_eq!(
        second.completed, 3,
        "run must restart from trial 0, not resume at 5"
    );
    let anomalies =
        std::fs::read_to_string(dir.join("anomalies.jsonl")).expect("anomaly log exists");
    assert!(
        anomalies.contains("incompatible"),
        "rejection must be recorded: {anomalies}"
    );

    // The restarted run re-tags its checkpoints, so finishing out resumes
    // normally and lands on the uninterrupted tallies.
    let (last, last_stats) = run_driver(recover, &w, Scheme::SwapEcc, trials, seed, &ck(None));
    assert!(last.finished);
    assert!(!last.stale_engine);
    assert_eq!(last.completed, trials);
    assert_eq!(last.outcomes, reference.outcomes);
    assert_eq!(last_stats, reference_stats);

    let _ = std::fs::remove_dir_all(&dir);
}
