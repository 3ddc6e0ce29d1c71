//! Shard-driver integration tests: the service-facing
//! [`run_arch_shard_checkpointed`] primitive must (a) partition a campaign
//! into ranges that merge byte-identically to the serial run, (b) survive
//! abrupt worker death (`ShardControl::Die`) and resume from the trusted
//! checkpoint prefix without perturbing a single tally, and (c) honor
//! cooperative cancellation with a flushed checkpoint. Alongside it, the
//! anomaly log's cross-writer file lock is pinned: concurrent writers on
//! one directory never tear or lose lines.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use swapcodes_core::Scheme;
use swapcodes_inject::{
    run_arch_shard_checkpointed, AnomalyLog, ArchCampaign, CampaignOptions, CheckpointConfig,
    FaultClassTallies, FaultMix, ShardControl, ShardEvent, ShardSpec, ANOMALY_LOG_CAP_BYTES,
};
use swapcodes_sim::CancelToken;
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-shard-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign(workload: &str, scheme: Scheme, seed: u64) -> ArchCampaign<'static> {
    let w = Box::leak(Box::new(by_name(workload).expect("workload")));
    let opts = CampaignOptions {
        mix: FaultMix::all_classes(),
        ..CampaignOptions::default()
    };
    ArchCampaign::prepare_with(w, scheme, seed, opts).expect("cell prepares")
}

fn ck(dir: Option<PathBuf>, interval: u64) -> CheckpointConfig {
    CheckpointConfig {
        dir,
        interval,
        max_retries: 3,
        stop_after: None,
    }
}

#[test]
fn shard_partition_merges_byte_identical_to_serial() {
    let c = campaign("kmeans", Scheme::SwapEcc, 0xA11CE);
    let trials = 24u64;
    let serial = c.run_range_classed(0, trials);

    let mut merged = FaultClassTallies::default();
    for (i, &(start, end)) in [(0u64, 9u64), (9, 17), (17, 24)].iter().enumerate() {
        let shard = ShardSpec {
            tag: format!("partition-s{i}"),
            start,
            end,
        };
        let run =
            run_arch_shard_checkpointed(&c, &shard, &ck(None, 4), None, |_| ShardControl::Continue);
        assert!(run.finished && !run.cancelled && !run.abandoned);
        assert_eq!(run.cursor, end);
        assert_eq!(run.classes.total(), end - start);
        merged.merge(&run.classes);
    }
    assert_eq!(
        merged, serial,
        "shard partition must merge to the serial run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A shard killed abruptly (no checkpoint flush) after an arbitrary
    /// number of trials resumes from its last *flushed* checkpoint and
    /// finishes byte-identical to an unkilled run of the same range.
    #[test]
    fn killed_shard_resumes_byte_identically(kill_after in 1u64..16, interval in 1u64..6) {
        let c = campaign("kmeans", Scheme::SwDup, 0xD1ED);
        let (start, end) = (4u64, 20u64);
        let serial = c.run_range_classed(start, end);
        let dir = scratch_dir(&format!("kill-{kill_after}-{interval}"));
        let shard = ShardSpec { tag: "chaos-victim".to_owned(), start, end };

        // First attempt: die abruptly after `kill_after` tallied trials.
        let mut trials_seen = 0u64;
        let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), interval), None, |ev| {
            if matches!(ev, ShardEvent::Trial { .. }) {
                trials_seen += 1;
                if trials_seen >= kill_after {
                    return ShardControl::Die;
                }
            }
            ShardControl::Continue
        });
        prop_assert!(run.abandoned && !run.finished);

        // Retry: adopt the trusted prefix (if any checkpoint was flushed
        // before the kill) and run to completion.
        let mut adopted_cursor = None;
        let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), interval), None, |ev| {
            if let ShardEvent::Adopted { cursor, .. } = ev {
                adopted_cursor = Some(cursor);
            }
            ShardControl::Continue
        });
        prop_assert!(run.finished);
        prop_assert_eq!(run.cursor, end);
        prop_assert_eq!(&run.classes, &serial, "resumed tallies diverge");
        if let Some(cursor) = adopted_cursor {
            // The trusted prefix never includes un-flushed work.
            prop_assert!(cursor >= start && cursor <= start + kill_after);
            prop_assert_eq!((cursor - start) % interval, 0, "prefix is interval-aligned");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cancelled_shard_flushes_checkpoint_and_resumes_byte_identically() {
    let c = campaign("matmul", Scheme::SwapEcc, 0xCA9CE1);
    let (start, end) = (0u64, 18u64);
    let serial = c.run_range_classed(start, end);
    let dir = scratch_dir("cancel");
    let shard = ShardSpec {
        tag: "cancel-me".to_owned(),
        start,
        end,
    };

    // Cancel cooperatively after 7 trials: the driver flushes a checkpoint
    // at the cancellation point (unlike Die), so nothing re-runs.
    let token = CancelToken::new();
    let mut trials_seen = 0u64;
    let run = run_arch_shard_checkpointed(
        &c,
        &shard,
        &ck(Some(dir.clone()), 100),
        Some(&token),
        |ev| {
            if matches!(ev, ShardEvent::Trial { .. }) {
                trials_seen += 1;
                if trials_seen == 7 {
                    token.cancel();
                }
            }
            ShardControl::Continue
        },
    );
    assert!(run.cancelled && !run.finished && !run.abandoned);
    assert_eq!(run.cursor, start + 7);

    let mut adopted_cursor = None;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), 100), None, |ev| {
        if let ShardEvent::Adopted { cursor, .. } = ev {
            adopted_cursor = Some(cursor);
        }
        ShardControl::Continue
    });
    assert_eq!(
        adopted_cursor,
        Some(start + 7),
        "the cancellation point is durable even with a huge interval"
    );
    assert!(run.finished);
    assert_eq!(run.classes, serial);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `stop_after` cut and then an abrupt `Die` in the next attempt. The
/// driver flushes a checkpoint at the stop point and every `interval`
/// trials *of each invocation*, so the die — 4 trials into the second
/// attempt, before its first interval flush — loses exactly those 4
/// trials. They must re-run on resume with byte-identical results, the
/// Trial event stream must stay in logical order across every attempt, and
/// the final tallies must match the serial reference exactly.
#[test]
fn stop_then_die_resume_byte_identically() {
    let c = campaign("hspot", Scheme::SwapEcc, 0xBA7C4);
    let (start, end) = (0u64, 22u64);
    let serial = c.run_range_classed(start, end);
    let dir = scratch_dir("stop-die");
    let shard = ShardSpec {
        tag: "stop-die".to_owned(),
        start,
        end,
    };
    let seen_in_order =
        |seen: &[u64], from: u64| seen.iter().enumerate().all(|(i, &t)| t == from + i as u64);

    // Attempt 1: `stop_after` cuts the run after 9 trials; the stop point
    // flushes.
    let mut seen = Vec::new();
    let run = run_arch_shard_checkpointed(
        &c,
        &shard,
        &CheckpointConfig {
            stop_after: Some(9),
            ..ck(Some(dir.clone()), 5)
        },
        None,
        |ev| {
            if let ShardEvent::Trial { trial, .. } = ev {
                seen.push(trial);
            }
            ShardControl::Continue
        },
    );
    assert!(!run.finished && !run.cancelled && !run.abandoned);
    assert_eq!(run.cursor, start + 9);
    assert!(seen_in_order(&seen, start), "trials out of order: {seen:?}");

    // Attempt 2: adopt the stop point, then die abruptly 4 trials in —
    // before this invocation's first interval checkpoint (interval 5)
    // flushes, so those 4 trials are lost.
    let mut seen = Vec::new();
    let mut adopted_cursor = None;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), 5), None, |ev| {
        match ev {
            ShardEvent::Adopted { cursor, .. } => adopted_cursor = Some(cursor),
            ShardEvent::Trial { trial, .. } => {
                seen.push(trial);
                if seen.len() == 4 {
                    return ShardControl::Die;
                }
            }
            ShardEvent::Checkpointed { .. } => {}
        }
        ShardControl::Continue
    });
    assert!(run.abandoned);
    assert_eq!(adopted_cursor, Some(start + 9));
    assert!(seen_in_order(&seen, start + 9));

    // Attempt 3: the durable prefix is still the stop point (the die flushed
    // nothing); the discarded trials re-run and the whole shard merges
    // byte-identical to serial.
    let mut seen = Vec::new();
    let mut adopted_cursor = None;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), 5), None, |ev| {
        match ev {
            ShardEvent::Adopted { cursor, .. } => adopted_cursor = Some(cursor),
            ShardEvent::Trial { trial, .. } => seen.push(trial),
            ShardEvent::Checkpointed { .. } => {}
        }
        ShardControl::Continue
    });
    assert_eq!(adopted_cursor, Some(start + 9));
    assert!(run.finished);
    assert_eq!(run.cursor, end);
    assert!(seen_in_order(&seen, start + 9));
    assert_eq!(run.classes, serial, "stop-then-die perturbed tallies");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn die_without_flushed_checkpoint_restarts_from_scratch() {
    let c = campaign("kmeans", Scheme::SwapEcc, 0x0DE4D);
    let (start, end) = (0u64, 10u64);
    let serial = c.run_range_classed(start, end);
    let dir = scratch_dir("die-raw");
    let shard = ShardSpec {
        tag: "die-raw".to_owned(),
        start,
        end,
    };

    // Interval larger than the shard: no periodic checkpoint ever flushes,
    // so an abrupt death leaves *no* durable state behind.
    let mut trials_seen = 0u64;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), 64), None, |ev| {
        if matches!(ev, ShardEvent::Trial { .. }) {
            trials_seen += 1;
            if trials_seen == 5 {
                return ShardControl::Die;
            }
        }
        ShardControl::Continue
    });
    assert!(run.abandoned);

    let mut adopted = false;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(Some(dir.clone()), 64), None, |ev| {
        adopted |= matches!(ev, ShardEvent::Adopted { .. });
        ShardControl::Continue
    });
    assert!(
        !adopted,
        "an abandoned attempt must not leave a trusted prefix"
    );
    assert!(run.finished);
    assert_eq!(run.classes, serial);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two shards of one campaign write disjoint anomaly logs, so service
/// workers never contend on a single file even within one directory.
#[test]
fn per_shard_anomaly_logs_are_disjoint_files() {
    let dir = scratch_dir("shard-logs");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut a = AnomalyLog::for_shard(Some(&dir), "j0-kmeans-swapecc-s0");
    let mut b = AnomalyLog::for_shard(Some(&dir), "j0-kmeans-swapecc-s1");
    a.record("arch-shard", 1, 3, "boom-a");
    b.record("arch-shard", 2, 3, "boom-b");
    let a_text = std::fs::read_to_string(dir.join("anomalies-j0-kmeans-swapecc-s0.jsonl"))
        .expect("shard a log");
    let b_text = std::fs::read_to_string(dir.join("anomalies-j0-kmeans-swapecc-s1.jsonl"))
        .expect("shard b log");
    assert!(a_text.contains("boom-a") && !a_text.contains("boom-b"));
    assert!(b_text.contains("boom-b") && !b_text.contains("boom-a"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The append+rotate race the file lock exists for: many writers hammering
/// *one* log path concurrently, with payloads big enough to trigger
/// rotation repeatedly. Without the advisory lock, one writer's rotation
/// (read, trim, rename-over) silently discards lines another writer
/// appended after the read — observable as `retained + dropped < written`
/// or as torn (unparseable) lines.
#[test]
fn concurrent_anomaly_writers_never_tear_or_lose_lines() {
    let dir = scratch_dir("log-race");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let writers = 8u64;
    let per_writer = 60u64;
    // ~1.5 KiB per line: 8 * 60 * 1.5 KiB ≈ 700 KiB >> the 256 KiB cap,
    // so rotation fires many times mid-race.
    let filler = "x".repeat(1500);
    let written = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..writers {
            let dir = &dir;
            let filler = &filler;
            let written = &written;
            scope.spawn(move || {
                let mut log = AnomalyLog::new(Some(dir));
                for i in 0..per_writer {
                    log.record(&format!("writer-{w}"), i, 3, filler);
                    written.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let text = std::fs::read_to_string(dir.join("anomalies.jsonl")).expect("log exists");
    let mut retained = 0u64;
    let mut dropped = 0u64;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "torn line: {line:?}"
        );
        if let Some(rest) = line.strip_prefix("{\"rotated\":true,\"dropped\":") {
            dropped += rest
                .trim_end_matches('}')
                .parse::<u64>()
                .expect("marker count");
        } else {
            assert!(
                line.contains("\"campaign\":\"writer-"),
                "torn line: {line:?}"
            );
            retained += 1;
        }
    }
    assert_eq!(
        retained + dropped,
        written.load(Ordering::Relaxed),
        "every line must be either retained or accounted for by rotation"
    );
    assert!(dropped > 0, "the test must actually exercise rotation");
    let meta = std::fs::metadata(dir.join("anomalies.jsonl")).expect("meta");
    // The last append before quiescence may overshoot before its own
    // rotation check; one line of slack.
    assert!(
        meta.len() <= ANOMALY_LOG_CAP_BYTES + 2048,
        "cap enforced: {} bytes",
        meta.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
