//! Fault-model taxonomy integration tests: mixed-class campaigns over the
//! (workload × scheme) matrix complete with every trial accounted to
//! exactly one class bucket, kill-and-resume preserves the per-class
//! tallies byte-for-byte, a checkpoint written under one fault mix is
//! loudly rejected by a campaign running another, and the stuck-at
//! corruption operator is idempotent by construction (the property that
//! lets the executor re-assert a permanent defect on every access without
//! tracking whether it already fired).
//!
//! The checkpointed driver reads `SWAPCODES_FAULT_MODEL` through
//! [`CampaignOptions::from_env`]; the tests that set it serialize on a
//! process-local mutex so the parallel test runner never observes a
//! half-configured environment. Everything else pins its mix through
//! [`ArchCampaign::prepare_with`] and ignores the environment entirely.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    run_arch_campaign_checkpointed, run_recovery_campaign_checkpointed, ArchCampaign,
    CampaignOptions, CampaignRun, CheckpointConfig, FaultMix, RecoveryCampaignConfig,
};
use swapcodes_sim::recovery::RecoveryStats;
use swapcodes_sim::{FaultSpec, FaultTarget};
use swapcodes_workloads::{by_name, Workload};

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

/// A mixed-class campaign interrupted twice resumes from its on-disk
/// checkpoint and finishes with *per-class* tallies identical to an
/// uninterrupted run — the checkpoint round-trips all thirty class-bucket
/// fields, not just the aggregate.
#[test]
fn mixed_campaign_kill_and_resume_is_byte_identical() {
    let _env = MixEnv::set("all");
    let w = by_name("kmeans").expect("workload");
    let trials = 24u64;
    let seed = 0xFA_0001u64;

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
    assert_eq!(reference.classes.total(), trials);
    assert!(
        reference.classes.control.total() > 0 && reference.classes.stuck_at.total() > 0,
        "the env mix must actually reach the driver: {:?}",
        reference.classes
    );

    let dir = scratch_dir("resume");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 4,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(9)))
        .expect("prepare");
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.completed, 9);

    let second = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(7)))
        .expect("prepare");
    assert!(!second.finished);
    assert_eq!(second.completed, 16, "second run resumes at trial 9");

    let last = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(None))
        .expect("prepare");
    assert!(last.finished);
    assert!(!last.stale_engine, "same mix must resume, not restart");
    assert_eq!(last.completed, trials);
    assert_eq!(
        last.classes, reference.classes,
        "resumed per-class tallies diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
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

/// A checkpoint written under one fault mix must not be resumed by a
/// campaign running another: the trial→fault mapping differs, so splicing
/// tallies would mix incomparable draws. The driver rejects the file
/// (flagging `stale_engine`), restarts from trial 0, and the finished run
/// matches a checkpoint-free campaign under the new mix. Both
/// whole-campaign drivers — plain and recovery — must behave this way.
#[test]
fn changing_fault_mix_invalidates_checkpoint() {
    for recover in [false, true] {
        mix_change_restarts(recover);
    }
}

fn mix_change_restarts(recover: bool) {
    let _env = MixEnv::set("all");
    let w = by_name("matmul").expect("workload");
    let trials = 16u64;
    let seed = 0xFA_0002u64;
    let dir = scratch_dir(&format!("stale-mix-{recover}"));
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 2,
        stop_after,
        ..CheckpointConfig::default()
    };

    let (partial, _) = run_driver(recover, &w, Scheme::SwDup, trials, seed, &ck(Some(6)));
    assert!(!partial.finished);
    drop(_env);

    let _env = MixEnv::set("transient");
    let (resumed, _) = run_driver(recover, &w, Scheme::SwDup, trials, seed, &ck(None));
    assert!(
        resumed.stale_engine,
        "a mixed-class checkpoint must be rejected by a transient-only campaign"
    );
    assert!(resumed.finished);
    assert_eq!(resumed.completed, trials);
    assert_eq!(resumed.classes.control.total(), 0);
    assert_eq!(resumed.classes.stuck_at.total(), 0);

    let (reference, _) = run_driver(
        recover,
        &w,
        Scheme::SwDup,
        trials,
        seed,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    );
    assert_eq!(
        resumed.classes, reference.classes,
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
        // A pure-transient mix is the legacy campaign, outcome for outcome.
        if c == 0 && s == 0 {
            prop_assert_eq!(classes.aggregate(), campaign.run_range(start, start + trials));
        }
    }
}
