//! `serve-ci`: a closed loop with one client against the campaign service.
//!
//! The service runs 2 workers and persists into a fresh checkpoint
//! directory. Each job is one cell, 48 trials in 16-trial shards under the
//! mixed fault mix; the client submits, waits until the job settles
//! (polling the board every [`POLL`]), then submits the next, rotating
//! through the cells from a seed-chosen start. Every shard attempt
//! re-prepares its cell, so prepare costs about as much as the shard's
//! trials; queue, lease and merge and the fsync'd checkpoint commits are
//! all on the path. The host-speed probe (see `host`) runs between set-ups
//! and between jobs, while the workers idle, on as many threads as there
//! are workers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swapcodes_inject::FaultClassTallies;

use crate::host::HostSpeed;
use crate::layers::{self, CellId, CELLS, JOB_TRIALS, SERVE_WORKERS, SHARD_TRIALS};
use crate::trace::{median, Tracer};
use crate::{derive_seed, peak_rss_mb, EndToEnd, Report, RunConfig};

/// Board poll period while waiting for a job (`Service::wait` sleeps 5 ms).
const POLL: Duration = Duration::from_micros(250);
/// Jobs per phase at least, so the p90 has ten samples beyond it.
const MIN_JOBS: u64 = 100;
/// Times `Service::start` is repeated; `setup_s` is the median. A start
/// takes about a tenth of a millisecond, so the median needs many.
const SETUP_REPS: usize = 101;
/// Give up on a job that has not settled after this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One submitted job.
struct Job {
    id: u64,
    cell: usize,
    seed: u64,
    latency: Duration,
    /// Merged tallies of the in-process replay (traced phase only).
    replayed: Option<FaultClassTallies>,
}

pub fn run(rc: &RunConfig, tracer: Option<&mut Tracer>) -> Report {
    let root = rc
        .out_dir
        .join(format!("serve-{}-{}", std::process::id(), rc.seed));
    let _ = std::fs::remove_dir_all(&root);
    let report = run_in(rc, tracer, &root);
    let _ = std::fs::remove_dir_all(&root);
    report
}

fn run_in(rc: &RunConfig, tracer: Option<&mut Tracer>, root: &Path) -> Report {
    let mut report = Report {
        base: "jobs run plus jobs checked against in-process tallies".into(),
        ..Report::default()
    };
    let mut failed = 0u64;

    // Set-up: `Service::start` on a fresh directory each time. A reused
    // directory would resume persisted jobs and adopt old checkpoints.
    let mut host = HostSpeed::new(SERVE_WORKERS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    for rep in 0..SETUP_REPS {
        let dir = root.join(format!("service-{rep}"));
        std::fs::create_dir_all(&dir).expect("service dir is creatable");
        host.sample();
        let t = Instant::now();
        let s = layers::start_service(&dir);
        setup_s.push(t.elapsed().as_secs_f64());
        if layers::job_count(&s) != 0 {
            println!("perfbench: CHECK FAILED: a fresh service resumed persisted jobs");
            failed += 1;
        }
        service = Some(s);
    }
    let service = service.expect("at least one service started");
    host.sample();
    let setup_host = host.take_factor();

    let first_cell = (rc.seed % CELLS.len() as u64) as usize;
    let mut next = 0u64;
    let (mut untraced, jobs) = closed_loop(&service, rc, first_cell, &mut next, &mut host, None);
    untraced.peak_rss_mb = peak_rss_mb();
    untraced.setup_s = setup_s.clone();
    untraced.setup_host = setup_host;
    let mut all_jobs = jobs;

    if let Some(tr) = tracer {
        let replay_dir = root.join("replay");
        std::fs::create_dir_all(&replay_dir).expect("replay dir is creatable");
        let (mut traced, jobs) =
            closed_loop(&service, rc, first_cell, &mut next, &mut host, Some((tr, &replay_dir)));
        traced.setup_s = setup_s;
        traced.setup_host = setup_host;
        report.layers = serve_layers(tr, &jobs);
        report.traced = Some(traced);
        all_jobs.extend(jobs);
    }

    // Service-side checks: nothing requeued, so no attempt re-ran and no
    // shard checkpoint was adopted; every job completed.
    let requeued = layers::requeued(&service);
    report
        .layers
        .push(("serve.requeued".into(), requeued as f64));
    if requeued != 0 {
        println!("perfbench: CHECK FAILED: {requeued} shard attempts requeued");
        failed += 1;
    }
    if layers::job_count(&service) != all_jobs.len() {
        println!("perfbench: CHECK FAILED: the board holds jobs this run did not submit");
        failed += 1;
    }
    let reports: Vec<_> = all_jobs
        .iter()
        .map(|j| layers::job_report(&service, j.id))
        .collect();
    drop(service);

    // Output check, outside the timed phases: each job's merged tallies
    // equal `prepare_with(..).run_range_classed(0, 48)` in-process.
    let expected = reference_tallies(&all_jobs);
    for ((job, got), want) in all_jobs.iter().zip(&reports).zip(&expected) {
        let replay_ok = job.replayed.is_none_or(|r| r == got.tallies);
        if !got.completed || got.requeues != 0 || got.tallies != *want || !replay_ok {
            println!(
                "perfbench: CHECK FAILED: job {} ({}) completed={} requeues={} \
                 tallies match={} replay matches={replay_ok}",
                job.id,
                CELLS[job.cell].label,
                got.completed,
                got.requeues,
                got.tallies == *want
            );
            failed += 1;
        }
    }
    report.attempted = 2 * all_jobs.len() as u64;
    report.failed = failed;
    report.outputs = all_jobs
        .iter()
        .zip(&reports)
        .take(CELLS.len())
        .map(|(j, r)| format!("{} seed {} {:?}\n", CELLS[j.cell].label, j.seed, r.tallies))
        .collect();
    report.untraced = untraced;
    report
}

/// Submit jobs one at a time until `rc.seconds` have elapsed and at least
/// [`MIN_JOBS`] ran, stopping on a whole rotation over the cells; a
/// rotation's time is the sum of its job latencies. Traced, each
/// job's gate and submit calls are spans and the job is replayed in-process
/// afterwards; that replay is excluded from the phase wall.
fn closed_loop(
    service: &swapcodes_serve::Service,
    rc: &RunConfig,
    first_cell: usize,
    next: &mut u64,
    host: &mut HostSpeed,
    mut trace: Option<(&mut Tracer, &PathBuf)>,
) -> (EndToEnd, Vec<Job>) {
    let mut e2e = EndToEnd::default();
    let mut jobs = Vec::new();
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut pass_s = 0.0;
    host.sample();
    loop {
        let n = jobs.len() as u64;
        let rotation_done = n.is_multiple_of(CELLS.len() as u64);
        if rotation_done && n > 0 {
            e2e.passes_s.push(pass_s);
            e2e.rates
                .push((CELLS.len() as u64 * JOB_TRIALS) as f64 / pass_s);
            pass_s = 0.0;
            if n >= MIN_JOBS && (start.elapsed() - excluded).as_secs_f64() >= rc.seconds {
                e2e.host = host.take_factor();
                break;
            }
        }
        let cell = (first_cell + *next as usize) % CELLS.len();
        let seed = derive_seed(rc.seed, 0x5E_0000 + *next);
        *next += 1;
        let spec = layers::job_spec(&CELLS[cell], seed);
        if let Some((tr, _)) = trace.as_mut() {
            let t = Instant::now();
            layers::gate(&spec);
            tr.end("verify.gate", CELLS[cell].label, *next, t);
            excluded += t.elapsed();
        }
        let t = Instant::now();
        let id = layers::submit(service, &spec);
        if let Some((tr, _)) = trace.as_mut() {
            tr.end("serve.submit", CELLS[cell].label, *next, t);
        }
        while !layers::settled(service, id) {
            assert!(t.elapsed() < JOB_TIMEOUT, "job {id} did not settle");
            std::thread::sleep(POLL);
        }
        let latency = t.elapsed();
        host.sample();
        e2e.jobs_ms.push(latency.as_secs_f64() * 1e3);
        pass_s += latency.as_secs_f64();
        e2e.trials += JOB_TRIALS;
        let mut replayed = None;
        if let Some((tr, dir)) = trace.as_mut() {
            tr.push("serve.job", CELLS[cell].label, "", *next, t, latency);
            let t = Instant::now();
            replayed = Some(replay(&CELLS[cell], seed, *next, dir, tr));
            excluded += t.elapsed();
        }
        jobs.push(Job {
            id,
            cell,
            seed,
            latency,
            replayed,
        });
    }
    (e2e, jobs)
}

/// Run a job's shards in-process on [`SERVE_WORKERS`] threads, the way the
/// service's workers would, recording prepare, run and checkpoint spans.
/// Returns the merged tallies.
fn replay(
    cell: &CellId,
    seed: u64,
    request: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> FaultClassTallies {
    let w = layers::workload(cell);
    let shards = JOB_TRIALS.div_ceil(SHARD_TRIALS);
    let next = std::sync::atomic::AtomicU64::new(0);
    let t = Instant::now();
    let results: Vec<Vec<(Instant, layers::ShardTimes)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= shards {
                            return mine;
                        }
                        let tag = format!("replay-{request}-{i}");
                        let started = Instant::now();
                        mine.push((
                            started,
                            layers::run_shard(&w, cell, seed, layers::shard_spec(tag, i), dir),
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    tr.push("serve.replay", cell.label, "", request, t, t.elapsed());
    let mut merged = FaultClassTallies::default();
    for (started, st) in results.into_iter().flatten() {
        merged.merge(&st.tallies);
        tr.push(
            "inject.harness.shard_prepare",
            cell.label,
            "",
            request,
            started,
            st.prepare,
        );
        tr.push(
            "inject.harness.shard_run",
            cell.label,
            "",
            request,
            started + st.prepare,
            st.run,
        );
        for gap in &st.checkpoint_gaps {
            tr.push(
                "inject.harness.checkpoint",
                cell.label,
                "",
                request,
                started,
                *gap,
            );
        }
        tr.count("inject.harness.shards", "", 1);
        tr.count(
            "inject.harness.checkpoints",
            "",
            st.checkpoint_gaps.len() as u64,
        );
        assert!(st.finished, "replayed shard ran to its end");
    }
    merged
}

/// Per-layer metrics of the traced phase.
fn serve_layers(tr: &Tracer, jobs: &[Job]) -> Vec<(String, f64)> {
    let prepare: f64 = tr.ms("inject.harness.shard_prepare", "").iter().sum();
    let run: f64 = tr.ms("inject.harness.shard_run", "").iter().sum();
    let checkpoints = tr.counter("inject.harness.checkpoints", "") as f64;
    let shards = tr.counter("inject.harness.shards", "").max(1) as f64;
    let replays = tr.ms("serve.replay", "");
    let overhead: Vec<f64> = jobs
        .iter()
        .zip(&replays)
        .map(|(j, r)| j.latency.as_secs_f64() * 1e3 - r)
        .collect();
    let mut out = vec![
        (
            "verify.gate_ms".to_owned(),
            median(&tr.ms("verify.gate", "")),
        ),
        (
            "serve.submit_ms".to_owned(),
            median(&tr.ms("serve.submit", "")),
        ),
        (
            "inject.harness.shard_prepare_ms".to_owned(),
            median(&tr.ms("inject.harness.shard_prepare", "")),
        ),
        (
            "inject.harness.shard_run_ms".to_owned(),
            median(&tr.ms("inject.harness.shard_run", "")),
        ),
        (
            "inject.harness.checkpoint_ms".to_owned(),
            median(&tr.ms("inject.harness.checkpoint", "")),
        ),
        (
            "inject.harness.checkpoints_per_shard".to_owned(),
            checkpoints / shards,
        ),
        (
            "serve.prepare_share".to_owned(),
            prepare / (prepare + run).max(1e-12),
        ),
        ("serve.overhead_ms".to_owned(), median(&overhead)),
    ];
    for cell in &CELLS {
        out.push((
            format!("serve.job_ms.{}", cell.label),
            median(&tr.ms("serve.job", cell.label)),
        ));
    }
    out
}

/// In-process reference tallies of every job, on as many threads as the
/// service has workers.
fn reference_tallies(jobs: &[Job]) -> Vec<FaultClassTallies> {
    let workloads: Vec<_> = CELLS.iter().map(layers::workload).collect();
    let mut out = vec![FaultClassTallies::default(); jobs.len()];
    let chunk = jobs.len().div_ceil(SERVE_WORKERS).max(1);
    std::thread::scope(|s| {
        for (chunk_jobs, chunk_out) in jobs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let workloads = &workloads;
            s.spawn(move || {
                for (j, o) in chunk_jobs.iter().zip(chunk_out) {
                    let c = layers::prepare(&workloads[j.cell], &CELLS[j.cell], j.seed)
                        .expect("cell prepares");
                    *o = layers::run_range(&c, 0, JOB_TRIALS);
                }
            });
        }
    });
    out
}
