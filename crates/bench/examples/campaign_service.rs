//! Campaign-service acceptance run, written to `BENCH_serve.json`.
//!
//! Two passes over the same (workload × scheme) campaign spec:
//!
//! * **clean** — a chaos-free service run, measuring end-to-end shard
//!   throughput (trials/second across the worker pool);
//! * **chaos** — every first worker attempt is killed (panic / vanish /
//!   hang, chosen per shard by a deterministic hash — far past the ≥25%
//!   acceptance bar), and the run must still complete every shard within
//!   the retry budget with merged per-cell tallies **byte-identical** to a
//!   single-threaded serial reference.
//!
//! The emitted `chaos` object carries the CI jq gates:
//! `.chaos.requeued >= 1` (workers actually died and were requeued) and
//! `.chaos.tallies_match_reference == true` (loss recovery is invisible in
//! the results). Recovery latency (loss detection to replacement lease) is
//! reported alongside. Both passes also report the service's prepared-cell
//! counters, gated as `prepares == config.cells` (each cell is prepared
//! once per service, however many shards and retries run over it) and
//! `.chaos.prepare_hits >= 1`.
//!
//! `SWAPCODES_FAST=1` shrinks trial counts for CI smoke runs.

use std::time::{Duration, Instant};

use swapcodes_bench::fast_mode;
use swapcodes_core::Scheme;
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultClassTallies, FaultMix};
use swapcodes_serve::{ChaosAction, ChaosConfig, JobState, Service, ServiceConfig};
use swapcodes_workloads::by_name;

const WAIT: Duration = Duration::from_secs(1800);

/// The serial single-threaded reference for one cell, prepared exactly the
/// way the service workers prepare theirs.
fn serial_reference(
    workload: &str,
    scheme: Scheme,
    seed: u64,
    mix: FaultMix,
    trials: u64,
) -> FaultClassTallies {
    let w = by_name(workload).expect("workload");
    let opts = CampaignOptions {
        mix,
        ..CampaignOptions::from_env()
    };
    ArchCampaign::prepare_with(&w, scheme, seed, opts)
        .expect("cell prepares")
        .run_range_classed(0, trials)
}

struct PassResult {
    elapsed_ms: u64,
    trials_per_sec: f64,
    state: &'static str,
    requeued: u64,
    recoveries: u64,
    recovery_latency_ms_max: u64,
    recovery_latency_ms_mean: f64,
    prepares: u64,
    prepare_hits: u64,
    tallies_match_reference: bool,
}

fn run_pass(spec: &str, cfg: ServiceConfig) -> PassResult {
    let service = Service::start(cfg);
    let t0 = Instant::now();
    let id = service.submit(spec).expect("spec is admissible");
    assert!(service.wait(id, WAIT), "campaign must settle");
    let elapsed = t0.elapsed();

    let (state, total, cells, seed, mix, trials) = service.with_board(|b| {
        let job = &b.jobs[b.job_index(id).expect("job")];
        let cells: Vec<(String, Scheme, FaultClassTallies)> = job
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.scheme, c.merged().0))
            .collect();
        (
            job.state,
            job.completed_trials(),
            cells,
            job.spec.seed,
            job.spec.mix,
            job.spec.trials,
        )
    });
    assert_eq!(state, JobState::Completed, "all shards within retry budget");

    let mut tallies_match = true;
    for (workload, scheme, merged) in &cells {
        let reference = serial_reference(workload, *scheme, seed, mix, trials);
        if *merged != reference {
            eprintln!(
                "MISMATCH: {workload} x {} diverges from the serial reference",
                scheme.label()
            );
            tallies_match = false;
        }
    }

    let m = service.metrics();
    service.shutdown();
    let elapsed_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    PassResult {
        elapsed_ms,
        trials_per_sec: total as f64 / elapsed.as_secs_f64().max(1e-9),
        state: "completed",
        requeued: m.requeued,
        recoveries: m.recoveries,
        recovery_latency_ms_max: m.recovery_latency_ms_max,
        recovery_latency_ms_mean: m.recovery_latency_ms_mean,
        prepares: m.prepares,
        prepare_hits: m.prepare_hits,
        tallies_match_reference: tallies_match,
    }
}

fn pass_json(p: &PassResult, extra: &str) -> String {
    format!(
        "{{{extra}\"state\": \"{}\", \"elapsed_ms\": {}, \"trials_per_sec\": {:.2}, \
         \"requeued\": {}, \"recoveries\": {}, \"recovery_latency_ms_max\": {}, \
         \"recovery_latency_ms_mean\": {:.2}, \"prepares\": {}, \"prepare_hits\": {}, \
         \"tallies_match_reference\": {}}}",
        p.state,
        p.elapsed_ms,
        p.trials_per_sec,
        p.requeued,
        p.recoveries,
        p.recovery_latency_ms_max,
        p.recovery_latency_ms_mean,
        p.prepares,
        p.prepare_hits,
        p.tallies_match_reference
    )
}

fn main() {
    let fast = fast_mode();
    let trials: u64 = if fast { 48 } else { 120 };
    let shard_trials: u64 = 16;
    let workers = 4usize;
    let kill_permille = 1000u64; // every first attempt — far past the 25% bar

    let spec = format!(
        r#"{{"name":"acceptance","workloads":["matmul","kmeans"],
            "schemes":["swap-ecc","sw-dup"],"fault_mix":"all",
            "trials":{trials},"seed":1299827,"shard_trials":{shard_trials}}}"#
    );
    let cells = 4u64;
    let shards_per_cell = trials.div_ceil(shard_trials);

    let base = || ServiceConfig {
        workers,
        shard_timeout_ms: 500,
        max_attempts: 4,
        backoff_base_ms: 10,
        checkpoint_interval: 8,
        dir: None,
        chaos: None,
    };

    println!(
        "campaign service acceptance: {cells} cells x {trials} trials, \
         {shards_per_cell} shards/cell, {workers} workers"
    );

    println!("\n== clean pass (no chaos) ==");
    let clean = run_pass(&spec, base());
    println!(
        "  completed in {} ms ({:.1} trials/s), {} requeues, {} cells prepared, {} prepare hits",
        clean.elapsed_ms, clean.trials_per_sec, clean.requeued, clean.prepares, clean.prepare_hits
    );
    assert_eq!(clean.requeued, 0, "a chaos-free run must not requeue");
    assert!(clean.tallies_match_reference);
    assert_eq!(
        clean.prepares, cells,
        "each cell is prepared once per service"
    );

    println!("\n== chaos pass (kill_permille = {kill_permille}) ==");
    // The chaos schedule panics worker attempts on purpose; keep those off
    // the log (any *other* panic still prints via the default hook).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("chaos:"));
        if !injected {
            default_hook(info);
        }
    }));
    let dir = std::env::temp_dir().join(format!("swapcodes-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chaos = run_pass(
        &spec,
        ServiceConfig {
            dir: Some(dir.clone()),
            chaos: Some(ChaosConfig::new(
                0xACCE_97ED,
                kill_permille,
                vec![ChaosAction::Panic, ChaosAction::Vanish, ChaosAction::Hang],
            )),
            ..base()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  completed in {} ms ({:.1} trials/s)",
        chaos.elapsed_ms, chaos.trials_per_sec
    );
    println!(
        "  {} attempts requeued, {} losses detected, recovery latency max {} ms / mean {:.1} ms",
        chaos.requeued,
        chaos.recoveries,
        chaos.recovery_latency_ms_max,
        chaos.recovery_latency_ms_mean
    );
    println!(
        "  tallies match serial reference: {}",
        chaos.tallies_match_reference
    );
    println!(
        "  {} cells prepared, {} prepare hits",
        chaos.prepares, chaos.prepare_hits
    );
    assert!(
        chaos.requeued >= cells * shards_per_cell,
        "every first attempt must be chaos-killed and requeued"
    );
    assert!(
        chaos.tallies_match_reference,
        "chaos must be invisible in the tallies"
    );
    assert_eq!(chaos.prepares, cells, "retries run over the prepared cells");

    let json =
        format!
        (
        "{{\n  \"config\": {{\"workers\": {workers}, \"cells\": {cells}, \"trials\": {trials}, \
         \"shard_trials\": {shard_trials}, \"shards_per_cell\": {shards_per_cell}, \
         \"fast\": {fast}}},\n  \"clean\": {},\n  \"chaos\": {}\n}}\n",
        pass_json(&clean, ""),
        pass_json(&chaos, &format!("\"kill_permille\": {kill_permille}, ")),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}
