//! Prepared-cell sharing: an [`ArchCampaign`] viewing a shared
//! [`PreparedCell`] must behave exactly like a campaign prepared from
//! scratch for the same seed and fault mix — same fault draws, same
//! tallies, same reference and recovery outcomes — and its shard
//! checkpoints must be interchangeable with a fresh campaign's. That is
//! what lets the campaign service prepare a cell once and run every shard
//! of every job over it.

use std::path::PathBuf;
use std::sync::Arc;

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::{
    run_arch_shard_checkpointed, ArchCampaign, CampaignOptions, CellConfig, CheckpointConfig,
    FaultMix, PreparedCell, ShardControl, ShardEvent, ShardSpec,
};
use swapcodes_sim::RecoveryConfig;
use swapcodes_workloads::by_name;

/// Cells are shared across worker threads behind an `Arc`, and views are
/// handed to whichever thread runs the shard.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<PreparedCell>();
    send_sync::<ArchCampaign<'static>>();
};

/// The (workload, scheme) cells of the fast-forward differential: every
/// scheme family, the unprotected baseline included.
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

const SEEDS: [u64; 3] = [0, 0x5EED_0001, 0xC0FF_EE00_1234_5678];
const TRIALS: u64 = 16;

fn options(mix: FaultMix) -> CampaignOptions {
    CampaignOptions {
        mix,
        ..CampaignOptions::default()
    }
}

fn shared_cell(name: &str, scheme: Scheme) -> Arc<PreparedCell> {
    let w = by_name(name).expect("workload");
    let config = CellConfig::resolve(scheme, CampaignOptions::default());
    Arc::new(PreparedCell::prepare(w, config).expect("cell prepares"))
}

/// One cell per (workload, scheme), viewed under three seeds and two fault
/// mixes: each view draws, tallies and classifies exactly like a fresh
/// `prepare_with` of the same seed and mix.
#[test]
fn views_of_a_shared_cell_match_fresh_prepares() {
    let rcfg = RecoveryConfig::default();
    for (name, scheme) in cells() {
        let w = by_name(name).expect("workload");
        let cell = shared_cell(name, scheme);
        for mix in [FaultMix::transient_only(), FaultMix::all_classes()] {
            for seed in SEEDS {
                let fresh =
                    ArchCampaign::prepare_with(&w, scheme, seed, options(mix)).expect("prepares");
                let view = ArchCampaign::from_cell(Arc::clone(&cell), seed, mix);
                let what = format!("{name}/{} seed {seed:#x} mix {}", scheme.label(), mix.tag());
                assert_eq!(view.fuel, fresh.fuel, "{what}");
                assert_eq!(view.options(), fresh.options(), "{what}");
                for trial in 0..TRIALS {
                    for salt in 0..2 {
                        assert_eq!(
                            view.trial_fault_salted(trial, salt),
                            fresh.trial_fault_salted(trial, salt),
                            "{what}: trial {trial} salt {salt} draws differently"
                        );
                    }
                }
                assert_eq!(
                    view.run_range_classed(0, TRIALS),
                    fresh.run_range_classed(0, TRIALS),
                    "{what}: tallies differ"
                );
                for trial in [seed % TRIALS, (seed >> 8) % TRIALS] {
                    assert_eq!(
                        view.run_trial_reference_salted(trial, 0),
                        fresh.run_trial_reference_salted(trial, 0),
                        "{what}: reference trial {trial} differs"
                    );
                    assert_eq!(
                        view.run_trial_recovering(trial, &rcfg),
                        fresh.run_trial_recovering(trial, &rcfg),
                        "{what}: recovering trial {trial} differs"
                    );
                }
            }
        }
    }
}

/// Every campaign that can draw stuck-at faults samples the one
/// process-wide FxP MAD site catalog; a transient-only campaign has none.
#[test]
fn stuck_at_campaigns_share_one_site_catalog() {
    let matmul = shared_cell("matmul", Scheme::SwapEcc);
    let kmeans = shared_cell("kmeans", Scheme::SwDup);
    let a = ArchCampaign::from_cell(Arc::clone(&matmul), 1, FaultMix::stuck_at_only());
    let b = ArchCampaign::from_cell(kmeans, 2, FaultMix::all_classes());
    let w = by_name("hspot").expect("workload");
    let c = ArchCampaign::prepare_with(&w, Scheme::SwapEcc, 3, options(FaultMix::all_classes()))
        .expect("prepares");
    let sites = a.site_catalog().expect("stuck-at mix has a catalog");
    assert!(std::ptr::eq(sites, b.site_catalog().expect("catalog")));
    assert!(std::ptr::eq(sites, c.site_catalog().expect("catalog")));
    let transient = ArchCampaign::from_cell(matmul, 1, FaultMix::transient_only());
    assert!(transient.site_catalog().is_none());
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-cell-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A shard checkpoint written by a freshly prepared campaign is adopted by
/// the same shard running over a shared cell: the checkpoint identity
/// (engine and mix tags, workload, scheme, seed, fuel, range) is the same
/// however the campaign was built.
#[test]
fn shared_cell_shard_adopts_fresh_prepare_checkpoint() {
    let (name, scheme, seed, mix) = ("kmeans", Scheme::SwapEcc, 0xCE11, FaultMix::all_classes());
    let w = by_name(name).expect("workload");
    let fresh = ArchCampaign::prepare_with(&w, scheme, seed, options(mix)).expect("prepares");
    let shard = ShardSpec {
        tag: "cell-adopt".to_owned(),
        start: 4,
        end: 20,
    };
    let serial = fresh.run_range_classed(shard.start, shard.end);
    let dir = scratch_dir("adopt");
    let ck = |stop_after| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 4,
        max_retries: 3,
        stop_after,
    };

    let first = run_arch_shard_checkpointed(&fresh, &shard, &ck(Some(7)), None, |_| {
        ShardControl::Continue
    });
    assert_eq!(first.cursor, shard.start + 7);

    let cached = ArchCampaign::from_cell(shared_cell(name, scheme), seed, mix);
    let mut adopted = None;
    let second = run_arch_shard_checkpointed(&cached, &shard, &ck(None), None, |ev| {
        if let ShardEvent::Adopted { cursor, .. } = ev {
            adopted = Some(cursor);
        }
        ShardControl::Continue
    });
    assert_eq!(adopted, Some(shard.start + 7), "checkpoint must be adopted");
    assert!(second.finished);
    assert_eq!(second.classes, serial);
    let anomalies =
        std::fs::read_to_string(dir.join("anomalies-cell-adopt.jsonl")).unwrap_or_default();
    assert!(
        !anomalies.contains("did not match"),
        "adoption must not be rejected: {anomalies}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
