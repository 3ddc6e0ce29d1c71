//! Fault-model taxonomy integration tests: mixed-class campaigns over the
//! (workload × scheme) matrix complete with every trial accounted to
//! exactly one class bucket, kill-and-resume preserves the per-class
//! tallies byte-for-byte, a checkpoint written under one fault mix is
//! loudly rejected by a campaign running another, and the stuck-at
//! corruption operator is idempotent by construction (the property that
//! lets the executor re-assert a permanent defect on every access without
//! tracking whether it already fired).
//!
//! [`ArchCampaign::prepare`] reads `SWAPCODES_FAULT_MODEL` through
//! [`CampaignOptions::from_env`]; the tests that set it serialize on a
//! process-local mutex so the parallel test runner never observes a
//! half-configured environment. Everything else pins its mix through
//! [`ArchCampaign::prepare_with`] and ignores the environment entirely.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    run_arch_shard_checkpointed, ArchCampaign, CampaignOptions, CheckpointConfig, FaultMix,
    ShardControl, ShardRun, ShardSpec, TrialOutcome,
};
use swapcodes_sim::exec::ExecConfig;
use swapcodes_sim::snapshot::CampaignEngine;
use swapcodes_sim::{FaultClass, FaultSpec, FaultTarget};
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-fmix-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serialize the tests that mutate `SWAPCODES_FAULT_MODEL` (env vars are
/// process-global; the test runner is multi-threaded).
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII guard: sets the fault-model env var for the scope, restores on drop.
struct MixEnv {
    _guard: MutexGuard<'static, ()>,
}

impl MixEnv {
    fn set(value: &str) -> Self {
        let guard = env_lock();
        std::env::set_var("SWAPCODES_FAULT_MODEL", value);
        Self { _guard: guard }
    }
}

impl Drop for MixEnv {
    fn drop(&mut self) {
        std::env::remove_var("SWAPCODES_FAULT_MODEL");
    }
}

fn mixed(mix: FaultMix) -> CampaignOptions {
    CampaignOptions {
        mix,
        ..CampaignOptions::default()
    }
}

/// The acceptance matrix: three workloads × three scheme families, every
/// trial drawing its class from the equal-weight three-class mix. Each cell
/// must complete without a host panic (a control-state deadlock lands in
/// the hang bucket, a wild store in crash/trap — never an unwind), and the
/// class buckets must sum to the trial count exactly.
#[test]
fn mixed_class_matrix_accounts_every_trial() {
    let trials = 60u64;
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    for name in ["matmul", "kmeans", "hspot"] {
        let w = by_name(name).expect("workload");
        for scheme in schemes {
            let campaign =
                ArchCampaign::prepare_with(&w, scheme, 0xF417, mixed(FaultMix::all_classes()))
                    .expect("cell prepares");
            let classes = campaign.run_range_classed(0, trials);
            assert_eq!(
                classes.total(),
                trials,
                "{name} x {}: buckets lost a trial",
                scheme.label()
            );
            assert_eq!(
                classes.aggregate().total(),
                trials,
                "{name} x {}: aggregate disagrees with the class split",
                scheme.label()
            );
            for (label, o) in classes.classes() {
                assert!(
                    o.total() > 0,
                    "{name} x {}: class {label} never drawn in {trials} trials",
                    scheme.label()
                );
            }
        }
    }
}

/// Run trials `[0, end)` of `campaign` as shard `tag`, checkpointing into
/// `dir` every `interval` trials and stopping after `stop_after`.
fn run_shard(
    campaign: &ArchCampaign<'_>,
    tag: &str,
    end: u64,
    dir: &Path,
    interval: u64,
    stop_after: Option<u64>,
) -> ShardRun {
    let shard = ShardSpec {
        tag: tag.to_owned(),
        start: 0,
        end,
    };
    let ck = CheckpointConfig {
        dir: Some(dir.to_path_buf()),
        interval,
        max_retries: 3,
        stop_after,
    };
    run_arch_shard_checkpointed(campaign, &shard, &ck, None, |_| ShardControl::Continue)
}

/// A mixed-class campaign interrupted twice resumes from its on-disk
/// checkpoint and finishes with *per-class* tallies identical to an
/// uninterrupted run — the checkpoint round-trips all thirty class-bucket
/// fields, not just the aggregate.
#[test]
fn mixed_campaign_kill_and_resume_is_byte_identical() {
    let _env = MixEnv::set("all");
    let w = by_name("kmeans").expect("workload");
    let trials = 24u64;
    let campaign =
        ArchCampaign::prepare(&w, Scheme::SwapEcc, 0xFA_0001).expect("swap-ecc applies to kmeans");

    let reference = campaign.run_range_classed(0, trials);
    assert!(
        reference.control.total() > 0 && reference.stuck_at.total() > 0,
        "the env mix must actually reach the campaign: {reference:?}"
    );

    let dir = scratch_dir("resume");
    let first = run_shard(&campaign, "mixed", trials, &dir, 4, Some(9));
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.cursor, 9);

    let second = run_shard(&campaign, "mixed", trials, &dir, 4, Some(7));
    assert!(!second.finished);
    assert_eq!(second.cursor, 16, "second run resumes at trial 9");

    let last = run_shard(&campaign, "mixed", trials, &dir, 4, None);
    assert!(last.finished);
    assert_eq!(last.cursor, trials);
    assert_eq!(
        last.classes, reference,
        "resumed per-class tallies diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written under one fault mix must not be resumed by a
/// campaign running another: the trial→fault mapping differs, so splicing
/// tallies would mix incomparable draws. The shard driver rejects the file
/// with a logged anomaly, restarts from trial 0, and the finished run
/// matches a checkpoint-free campaign under the new mix.
#[test]
fn changing_fault_mix_invalidates_checkpoint() {
    let w = by_name("matmul").expect("workload");
    let trials = 16u64;
    let prepare = |mix: &str| {
        let _env = MixEnv::set(mix);
        ArchCampaign::prepare(&w, Scheme::SwDup, 0xFA_0002).expect("prepare")
    };
    let (mixed, transient) = (prepare("all"), prepare("transient"));
    let dir = scratch_dir("stale-mix");

    let partial = run_shard(&mixed, "stale-mix", trials, &dir, 2, Some(6));
    assert_eq!(partial.cursor, 6);

    let probe = run_shard(&transient, "stale-mix", trials, &dir, 2, Some(0));
    assert_eq!(
        probe.cursor, 0,
        "a mixed-class checkpoint must be rejected by a transient-only campaign"
    );
    let log = std::fs::read_to_string(dir.join("anomalies-stale-mix.jsonl")).expect("anomaly log");
    assert!(
        log.contains("fault mix"),
        "rejection must be recorded: {log}"
    );

    let resumed = run_shard(&transient, "stale-mix", trials, &dir, 2, None);
    assert!(resumed.finished);
    assert_eq!(resumed.classes.control.total(), 0);
    assert_eq!(resumed.classes.stuck_at.total(), 0);
    assert_eq!(
        resumed.classes,
        transient.run_range_classed(0, trials),
        "the restarted campaign must match a checkpoint-free transient run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stuck-at corruption is idempotent: applying the operator twice is
    /// the same as applying it once, for every (bit, polarity) and any
    /// value. The executor relies on this to re-assert a permanent defect
    /// on every eligible access without tracking prior deliveries.
    #[test]
    fn stuck_at_apply_is_idempotent(
        value in any::<u64>(),
        bit in 0u32..32,
        lane in 0u32..32,
        polarity in any::<bool>(),
        period in 0u32..64,
    ) {
        let f = FaultSpec::try_stuck_at(0, lane, bit, polarity, 7, period, FaultTarget::Original)
            .expect("in-range spec");
        let once32 = f.apply32(value as u32);
        prop_assert_eq!(f.apply32(once32), once32);
        let once64 = f.apply64(value);
        prop_assert_eq!(f.apply64(once64), once64);
        // The asserted bit really is stuck, regardless of the input.
        prop_assert_eq!(once32 >> bit & 1, u32::from(polarity));
    }

    /// Every trial of a campaign lands in exactly one class bucket, for
    /// arbitrary mix weights: the class split always sums to the trial
    /// count, the aggregate always equals the split, and classes with zero
    /// weight never receive a trial.
    #[test]
    fn class_buckets_partition_the_trials(
        t in 0u32..3,
        c in 0u32..3,
        s in 0u32..3,
        seed in 0u64..1_000,
        start in 0u64..32,
    ) {
        prop_assume!(t + c + s > 0);
        let mix = FaultMix { transient: t, control: c, stuck_at: s };
        let w = by_name("matmul").expect("workload");
        let campaign = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, seed, mixed(mix))
            .expect("cell prepares");
        let trials = 10u64;
        let classes = campaign.run_range_classed(start, start + trials);
        prop_assert_eq!(classes.total(), trials);
        prop_assert_eq!(classes.aggregate().total(), trials);
        for ((_, o), weight) in classes.classes().iter().zip([t, c, s]) {
            if weight == 0 {
                prop_assert_eq!(o.total(), 0, "zero-weight class drew a trial");
            }
        }
        // A pure-transient mix tallies every trial as transient.
        if c == 0 && s == 0 {
            prop_assert_eq!(classes.aggregate(), classes.transient);
        }
    }
}

/// Shadow-side draws that never fire (DESIGN §11): the transient and the
/// stuck-at draws take their index from the Original-side eligible count
/// for both sides, but predicted ops have no shadow, so on a Swap-Predict
/// cell a shadow draw past the shadow-side count strikes nothing and is
/// tallied Masked. Pinned on the perfbench cells at seed 11 under the
/// `all` mix over the first 4,096 trials (1,340 transient and 1,352
/// stuck-at draws); every such trial equals the reference, and the engine
/// classifies it at resume without executing an instruction.
#[test]
fn shadow_draws_past_the_shadow_count_never_fire() {
    let options = CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::default()
    };
    for (name, scheme, never_fire) in [
        ("bprop", Scheme::SwapPredict(PredictorSet::MAD), (364, 370)),
        ("hspot", Scheme::SwapEcc, (1, 2)),
        ("matmul", Scheme::SwapEcc, (0, 0)),
        ("kmeans", Scheme::SwDup, (0, 0)),
    ] {
        let w = by_name(name).expect("workload");
        let c = ArchCampaign::prepare_with(&w, scheme, 11, options).expect("applies");
        let (_, golden) = CampaignEngine::capture_config(
            c.kernel(),
            c.launch(),
            c.protection(),
            &c.workload().build_memory(),
            c.golden_dynamic(),
            &ExecConfig::default(),
        )
        .expect("capture");
        // (transient, stuck-at) draws, and those that never fire.
        let (mut drawn, mut dead) = ((0, 0), (0, 0));
        for trial in 0..4096 {
            let f = c.trial_fault_salted(trial, 0);
            let (n, d) = match f.class {
                FaultClass::Transient => (&mut drawn.0, &mut dead.0),
                FaultClass::StuckAt(_) => (&mut drawn.1, &mut dead.1),
                FaultClass::Control(_) => continue,
            };
            *n += 1;
            if f.target == FaultTarget::Shadow && f.eligible_index >= golden.eligible_shadow {
                *d += 1;
                assert_eq!(
                    c.run_trial_classed_salted(trial, 0).1,
                    TrialOutcome::Masked,
                    "{f:?}"
                );
                assert_eq!(c.run_trial_reference_salted(trial, 0), TrialOutcome::Masked);
                let (outcome, telemetry) = c.run_trial_telemetry_salted(trial, 0);
                assert_eq!(outcome, TrialOutcome::Masked);
                assert_eq!(telemetry.executed, 0, "{f:?} executes nothing");
            }
        }
        assert_eq!(drawn, (1340, 1352), "{name}: draws per class");
        assert_eq!(dead, never_fire, "{name}: never-firing shadow draws");
    }
}
