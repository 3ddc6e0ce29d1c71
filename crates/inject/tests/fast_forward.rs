//! Fast-forward engine validation: the copy-on-write snapshot-resuming
//! trial path (page-granular global-memory overlay, lazily materialized
//! warp register files, dirty-set convergence checks) must be
//! outcome-identical to the from-scratch reference executor, the range
//! driver must reproduce the per-trial, per-class tallies exactly, the
//! resume must materialize only part of the snapshot, and shard
//! checkpoints written before the engine existed must be rejected loudly
//! (restart from the shard's first trial + anomaly record), never silently
//! resumed.

use std::path::PathBuf;

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    run_arch_shard_checkpointed, ArchCampaign, CampaignOptions, CheckpointConfig,
    FaultClassTallies, FaultMix, ShardControl, ShardSpec, TrialOutcome,
};
use swapcodes_workloads::by_name;

/// The (workload, scheme) cells the differential property samples from —
/// every scheme family, including the unprotected baseline (whose SDC-heavy
/// outcome mix stresses the golden-output comparison rather than detection)
/// and Inter-Thread, the only scheme that emits `SHFL`.
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
        ("pathf", Scheme::InterThread { checked: true }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random cells, seeds, salts, fault-mix weights and trial windows,
    /// the fast-forward path and the from-scratch reference path classify
    /// every trial identically; at salt 0, the range driver over the same
    /// window tallies the window's classes and outcomes exactly.
    #[test]
    fn fast_forward_matches_reference(
        cell in 0usize..9,
        seed in 0u64..1_000_000,
        salt in 0u32..4,
        transient in 0u32..3,
        control in 0u32..3,
        stuck_at in 0u32..3,
        start in 0u64..48,
    ) {
        let mix = FaultMix { transient, control, stuck_at };
        let mix = if transient + control + stuck_at == 0 {
            FaultMix::all_classes()
        } else {
            mix
        };
        let (name, scheme) = cells()[cell];
        let w = by_name(name).expect("workload");
        let opts = CampaignOptions { mix, ..CampaignOptions::default() };
        let campaign = ArchCampaign::prepare_with(&w, scheme, seed, opts).expect("applies");
        let mut classes = FaultClassTallies::default();
        for trial in start..start + 6 {
            let (class, fast) = campaign.run_trial_classed_salted(trial, salt);
            let reference = campaign.run_trial_reference_salted(trial, salt);
            prop_assert_eq!(
                fast,
                reference,
                "trial {} (seed {:#x}, salt {}, mix {}) diverged on {}/{}",
                trial,
                seed,
                salt,
                mix.tag(),
                name,
                scheme.label()
            );
            classes.record(class, fast);
        }
        if salt == 0 {
            prop_assert_eq!(
                classes,
                campaign.run_range_classed(start, start + 6),
                "range driver diverged from per-trial accumulation"
            );
        }
    }
}

/// A dense window of trials on the two bench cells, checked one-for-one
/// against the reference executor (the bench's differential gate in
/// `perf_baseline` extends this to full campaign scale), with the range
/// driver tallying exactly what the trials classify.
#[test]
fn dense_trial_window_matches_reference() {
    for (name, scheme) in [("matmul", Scheme::SwapEcc), ("kmeans", Scheme::SwDup)] {
        let w = by_name(name).expect("workload");
        let campaign = ArchCampaign::prepare(&w, scheme, 0xD1FF).expect("applies");
        let mut classes = FaultClassTallies::default();
        for trial in 0..100 {
            let (class, fast) = campaign.run_trial_classed_salted(trial, 0);
            assert_eq!(
                fast,
                campaign.run_trial_reference_salted(trial, 0),
                "trial {trial} diverged on {name}/{}",
                scheme.label()
            );
            classes.record(class, fast);
        }
        assert_eq!(classes, campaign.run_range_classed(0, 100), "{name}");
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

/// The copy-on-write resume materializes strictly less state than a full
/// copy: across a batch of trials the overlay clones only a fraction of
/// the global memory's pages, and the per-trial byte telemetry reflects
/// that.
#[test]
fn cow_telemetry_shows_partial_materialization() {
    let w = by_name("matmul").expect("workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwapEcc, 11).expect("applies");
    let trials = 64u64;
    let mut pages_cloned = 0u64;
    let mut pages_total = 0u64;
    let mut bytes_cloned = 0u64;
    for trial in 0..trials {
        let (_, telem) = campaign.run_trial_telemetry_salted(trial, 0);
        assert!(
            telem.cow_pages_cloned <= telem.cow_pages_total,
            "trial {trial}: cloned {} of {} pages",
            telem.cow_pages_cloned,
            telem.cow_pages_total
        );
        pages_cloned += telem.cow_pages_cloned;
        pages_total += telem.cow_pages_total;
        bytes_cloned += telem.bytes_cloned;
    }
    assert!(pages_total > 0, "telemetry must report the page universe");
    assert!(
        pages_cloned * 2 < pages_total,
        "CoW must leave most pages shared: cloned {pages_cloned} of {pages_total}"
    );
    assert!(
        bytes_cloned > 0,
        "trials touch state, so some bytes must materialize"
    );
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-ff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill-and-resume across an engine change: a shard checkpoint written by
/// the pre-fast-forward harness (no `engine` tag) matches the campaign
/// identity but must NOT be resumed — the shard restarts from trial 0,
/// records an anomaly, and still converges to the uninterrupted tallies.
#[test]
fn stale_engine_checkpoint_restarts_from_zero() {
    let w = by_name("kmeans").expect("workload");
    let campaign = ArchCampaign::prepare(&w, Scheme::SwapEcc, 0xFA57_0001).expect("applies");
    let trials = 12u64;
    let dir = scratch_dir("stale-engine");
    let shard = ShardSpec {
        tag: "stale-engine".to_owned(),
        start: 0,
        end: trials,
    };
    let run = |stop_after: Option<u64>| {
        let ck = CheckpointConfig {
            dir: Some(dir.clone()),
            interval: 2,
            max_retries: 3,
            stop_after,
        };
        run_arch_shard_checkpointed(&campaign, &shard, &ck, None, |_| ShardControl::Continue)
    };

    // Leave a half-finished, correctly tagged checkpoint behind...
    let first = run(Some(5));
    assert!(!first.finished);
    assert_eq!(first.cursor, 5);

    // ...then rewrite it as a pre-fast-forward checkpoint by stripping the
    // engine tag, exactly what a file from an older build looks like.
    let ckpt = dir.join("stale-engine.ckpt.json");
    let tagged = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    let tag = format!("\"engine\":\"{}\"", campaign.engine_tag());
    assert!(
        tagged.contains(&tag),
        "checkpoint carries the campaign's engine tag {tag}"
    );
    std::fs::write(&ckpt, tagged.replace(&format!("{tag},"), "")).expect("rewrite");

    // The resume must refuse the stale file and start over from trial 0.
    let second = run(Some(3));
    assert_eq!(
        second.cursor, 3,
        "run must restart from trial 0, not resume at 5"
    );
    let log = dir.join("anomalies-stale-engine.jsonl");
    let anomalies = std::fs::read_to_string(&log).expect("anomaly log exists");
    assert!(
        anomalies.contains("incompatible"),
        "rejection must be recorded: {anomalies}"
    );

    // The restarted run re-tags its checkpoints, so finishing out resumes
    // normally — no second rejection — and lands on the uninterrupted
    // tallies.
    let last = run(None);
    assert!(last.finished);
    assert_eq!(last.classes, campaign.run_range_classed(0, trials));
    let anomalies = std::fs::read_to_string(&log).expect("anomaly log exists");
    assert_eq!(anomalies.matches("did not match").count(), 1, "{anomalies}");

    let _ = std::fs::remove_dir_all(&dir);
}
