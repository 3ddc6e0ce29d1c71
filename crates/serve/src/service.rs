//! The campaign service: a supervised worker pool that leases shards off
//! the board and commits their tallies to it, and a monitor enforcing
//! per-shard deadlines and heartbeat-based worker-loss detection.
//!
//! # One lock
//!
//! The board is the service's only shared shard state, and its work queue:
//! an idle worker waits on a condvar paired with the board mutex and leases
//! the first `Queued` shard, in board order, whose retry backoff has
//! passed. Each worker commits its own shard events under the board lock.
//! Three invariants keep that lock safe to share:
//!
//! * No prepare, trial, checkpoint flush or chaos action runs under it, so
//!   a panicking attempt cannot poison the board.
//! * Every change an idle worker waits for (submit, requeue, shutdown) is
//!   made under it before the notify, so no wakeup is lost.
//! * A cancelled job's shards are never leased.
//!
//! # Robustness model
//!
//! * **Shards are the unit of loss.** A worker leases one shard at a time
//!   and beats a heartbeat on every shard event. Trials are fuel-bounded,
//!   so a healthy worker always beats within a computable window; silence
//!   past that window (or blowing the shard's fuel-derived wall-clock
//!   deadline) means the worker is lost and the monitor requeues the shard
//!   from its last checkpoint's trusted prefix.
//! * **Attempts guard against zombies.** Every lease and every commit is
//!   stamped with an attempt number; the board only accepts commits
//!   matching the shard's current attempt, so a presumed-dead worker that
//!   wakes up cannot double-count into a requeued shard.
//! * **Retries are bounded and backed off.** A lost or failed attempt is
//!   requeued with exponential backoff, kept on the shard, until the
//!   per-shard budget is exhausted, at which point the shard — not the
//!   campaign — fails and the cell degrades. The service never wedges.
//! * **Cells are prepared once.** A shard needs its cell's transformed
//!   kernel, golden output and fast-forward engine, none of which depend
//!   on the seed or the fault mix. Each service keeps prepared cells in a
//!   bounded, single-flight cache, so a cell is prepared once per service
//!   rather than once per shard attempt (DESIGN §13).
//! * **Results are byte-identical.** Because trials are pure in
//!   `(seed, index)` and a requeued attempt re-adopts the checkpointed
//!   prefix, the merged final tallies match a single-threaded serial run
//!   exactly, no matter how many workers were lost.
//!
//! Chaos hooks ([`ChaosConfig`]) deterministically kill worker attempts
//! (panic, vanish without a trace, or hang) so tests and CI can prove the
//! recovery machinery end to end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swapcodes_core::Scheme;
use swapcodes_inject::{
    contain, run_arch_shard_checkpointed, serve_workers_from_env, shard_timeout_ms_from_env,
    write_atomic, ArchCampaign, CampaignOptions, CellConfig, CheckpointConfig, FaultClassTallies,
    PreparedCell, ShardControl, ShardEvent, ShardSpec, TrialOutcome,
};
use swapcodes_sim::FaultClass;
use swapcodes_workloads::by_name;

use crate::board::{Board, Job, JobState, Lease, Shard, ShardStatus};
use crate::spec::{verify_gate, CampaignSpec, GateError, SpecError};
use swapcodes_json::Json;

/// Simulator throughput assumed when deriving wall-clock deadlines from
/// fuel: a conservative lower bound on executed instructions per
/// millisecond, so deadlines are generous rather than trigger-happy.
pub const STEPS_PER_MS: u64 = 50_000;

/// Prepared cells one service keeps. The CI job rotation touches four
/// cells, so eight leave room for a second tenant's matrix.
const CELL_CACHE_CAPACITY: usize = 8;

/// A prepared cell's identity: the workload name plus everything else
/// `PreparedCell::prepare` reads. Seed and fault mix are not part of it.
type CellKey = (String, CellConfig);

enum Slot {
    /// A worker is preparing the cell; other misses on its key wait.
    Preparing,
    Ready(Arc<PreparedCell>),
}

/// The service's bounded LRU of prepared cells, with single-flight misses.
/// The lock guards only slot bookkeeping: it is released across every
/// prepare and every trial, and nothing run under it panics, so neither a
/// panicking prepare nor a chaos-killed shard can poison it.
#[derive(Default)]
struct CellCache {
    /// Least recently used first.
    slots: Mutex<Vec<(CellKey, Slot)>>,
    /// Signalled when a `Preparing` slot is filled or withdrawn.
    resolved: Condvar,
    /// Cells prepared.
    prepares: AtomicU64,
    /// Lookups answered with a ready cell.
    hits: AtomicU64,
}

impl CellCache {
    /// The cell for `key`, calling `prepare` on a miss. Concurrent misses on
    /// one key prepare once; a failed prepare is returned, never cached.
    fn get(
        &self,
        key: &CellKey,
        prepare: impl FnOnce() -> Result<PreparedCell, String>,
    ) -> Result<Arc<PreparedCell>, String> {
        let mut slots = self.slots.lock().expect("cell cache poisoned");
        while let Some(i) = slots.iter().position(|(k, _)| k == key) {
            if let Slot::Ready(cell) = &slots[i].1 {
                let cell = Arc::clone(cell);
                let entry = slots.remove(i);
                slots.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(cell);
            }
            slots = self.resolved.wait(slots).expect("cell cache poisoned");
        }
        slots.push((key.clone(), Slot::Preparing));
        drop(slots);
        let mut claim = Claim {
            cache: self,
            key,
            cell: None,
        };
        let cell = Arc::new(prepare()?);
        claim.cell = Some(Arc::clone(&cell));
        self.prepares.fetch_add(1, Ordering::Relaxed);
        Ok(cell)
    }
}

/// A claimed `Preparing` slot. Dropping it — after a prepare, an error or a
/// panic — fills the slot or withdraws it, and wakes the waiters.
struct Claim<'a> {
    cache: &'a CellCache,
    key: &'a CellKey,
    cell: Option<Arc<PreparedCell>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // Nothing panics under this lock, and a drop that can run during
        // unwinding must not panic: take the guard even if poisoned.
        let mut slots = self
            .cache
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slots.retain(|(k, _)| k != self.key);
        if let Some(cell) = self.cell.take() {
            slots.push((self.key.clone(), Slot::Ready(cell)));
            while slots.len() > CELL_CACHE_CAPACITY {
                let Some(lru) = slots.iter().position(|(_, s)| matches!(s, Slot::Ready(_))) else {
                    break;
                };
                slots.remove(lru);
            }
        }
        drop(slots);
        self.cache.resolved.notify_all();
    }
}

/// How a chaos-killed worker attempt dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Panic mid-shard — exercises the supervisor's fast catch-and-requeue
    /// path.
    Panic,
    /// Return without reporting anything and stop heartbeating — exercises
    /// the monitor's heartbeat-loss path.
    Vanish,
    /// Spin without progress until the monitor abandons the lease —
    /// exercises the deadline path.
    Hang,
}

/// Deterministic worker-kill schedule: a hash of each shard tag decides
/// whether (and how) a shard attempt dies. By default only **first**
/// attempts are killed, so a retry budget of two always suffices under
/// chaos; see [`ChaosConfig::first_attempt_only`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Salt mixed into the per-shard hash.
    pub seed: u64,
    /// Kill probability per shard in permille (`250` = kill 25% of first
    /// attempts).
    pub kill_permille: u64,
    /// The kill styles to draw from.
    pub actions: Vec<ChaosAction>,
    /// Only kill first attempts (the default): retries always survive, so
    /// a retry budget of two suffices and every campaign completes. Set
    /// `false` to kill *every* attempt of a targeted shard — the
    /// budget-exhaustion tests use this to pin graceful degradation.
    pub first_attempt_only: bool,
    /// Restrict the kill schedule to shards whose tag contains this
    /// substring, leaving other tenants untouched.
    pub only_tag_containing: Option<String>,
}

impl ChaosConfig {
    /// An all-defaults schedule killing `kill_permille`/1000 of first
    /// attempts with the given actions.
    #[must_use]
    pub fn new(seed: u64, kill_permille: u64, actions: Vec<ChaosAction>) -> Self {
        Self {
            seed,
            kill_permille,
            actions,
            first_attempt_only: true,
            only_tag_containing: None,
        }
    }

    /// The kill decision for one shard: `Some((action, after_events))`
    /// kills the attempt after it has observed that many shard events.
    #[must_use]
    pub fn plan(&self, tag: &str) -> Option<(ChaosAction, u64)> {
        if self.actions.is_empty() {
            return None;
        }
        if let Some(needle) = &self.only_tag_containing {
            if !tag.contains(needle.as_str()) {
                return None;
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for b in tag.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if h % 1000 >= self.kill_permille {
            return None;
        }
        let action = self.actions
            [usize::try_from((h >> 10) % self.actions.len() as u64).expect("index fits")];
        let after = (h >> 20) % 12;
        Some((action, after))
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-pool size (`SWAPCODES_SERVE_WORKERS` overrides the default
    /// of 4).
    pub workers: usize,
    /// Base per-shard deadline in milliseconds; the fuel-derived execution
    /// estimate is added on top (`SWAPCODES_SHARD_TIMEOUT_MS` overrides).
    pub shard_timeout_ms: u64,
    /// Attempts per shard before it fails permanently (first try included).
    pub max_attempts: u32,
    /// First retry backoff; doubles per failure.
    pub backoff_base_ms: u64,
    /// Trials between shard checkpoint flushes.
    pub checkpoint_interval: u64,
    /// Persistence root for job files, shard checkpoints and anomaly logs.
    /// `None` keeps everything in memory (no resume, no chaos-durable
    /// trusted prefixes — lost shards restart from their range start).
    pub dir: Option<PathBuf>,
    /// Deterministic worker-kill schedule, for tests and acceptance runs.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: serve_workers_from_env().unwrap_or(4).max(1),
            shard_timeout_ms: shard_timeout_ms_from_env().unwrap_or(5_000),
            max_attempts: 4,
            backoff_base_ms: 10,
            checkpoint_interval: 16,
            dir: None,
            chaos: None,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed to parse or validate structurally.
    Spec(SpecError),
    /// A cell failed the static verify gate.
    Gate(GateError),
}

impl SubmitError {
    /// The structured HTTP error body.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            SubmitError::Spec(e) => e.to_json(),
            SubmitError::Gate(e) => e.to_json(),
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Spec(e) => e.fmt(f),
            SubmitError::Gate(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SubmitError {}

/// `(job index, cell index, shard index)` — a shard's position on the board.
type ShardKey = (usize, usize, usize);

/// A worker's report on its leased shard, applied by `Inner::commit`.
enum Report {
    /// A shard checkpoint was adopted: reset the live view to its prefix.
    Adopted(FaultClassTallies, u64),
    /// One trial tallied.
    Trial(FaultClass, TrialOutcome),
    /// The shard ran to its end; these tallies are authoritative.
    Done(FaultClassTallies, u64),
    /// The attempt stopped at a cancellation point with a flushed
    /// checkpoint.
    Cancelled(FaultClassTallies, u64),
    /// The attempt failed (panic, preparation error, unknown workload).
    Failed(String),
}

struct Inner {
    /// Every job, cell and shard: the service's only shared shard state,
    /// and its work queue.
    board: Mutex<Board>,
    /// Paired with `board`: signalled when a shard may have become
    /// leasable (submit, requeue) and at shutdown.
    work: Condvar,
    /// Paired with `board`: signalled wherever a job settles (done, retry
    /// budget spent, cancel).
    settled: Condvar,
    cfg: ServiceConfig,
    epoch: Instant,
    /// Set under the board lock; the monitor polls it.
    shutdown: AtomicBool,
    requeues_total: AtomicU64,
    /// Lost shards re-leased, and the sum and max of their
    /// detection-to-re-lease latencies. Written under the board lock.
    recoveries: AtomicU64,
    recovery_ms_sum: AtomicU64,
    recovery_ms_max: AtomicU64,
    cells: CellCache,
}

impl Inner {
    fn new(cfg: ServiceConfig) -> Self {
        Self {
            board: Mutex::new(Board::default()),
            work: Condvar::new(),
            settled: Condvar::new(),
            cfg,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            requeues_total: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            recovery_ms_sum: AtomicU64::new(0),
            recovery_ms_max: AtomicU64::new(0),
            cells: CellCache::default(),
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Apply a worker's report to shard `key` if it is still running
    /// `attempt`. A stale report — a zombie's, whose shard the monitor
    /// requeued, or one aimed at a shard that is not running — changes
    /// nothing, so a lost-and-replaced worker can never double-count.
    fn commit(&self, key: ShardKey, attempt: u32, report: Report) {
        let mut board = self.board.lock().expect("board poisoned");
        let Some(shard) = current_attempt(&mut board, key, attempt) else {
            return;
        };
        match report {
            Report::Adopted(classes, cursor) => {
                shard.classes = classes;
                shard.cursor = cursor;
            }
            Report::Trial(class, outcome) => {
                shard.classes.record(class, outcome);
                shard.cursor += 1;
            }
            Report::Done(classes, cursor) => {
                shard.classes = classes;
                shard.cursor = cursor;
                shard.status = ShardStatus::Done;
                shard.lease = None;
                board.jobs[key.0].settle();
                self.settled.notify_all();
            }
            Report::Cancelled(classes, cursor) => {
                shard.classes = classes;
                shard.cursor = cursor;
                shard.status = ShardStatus::Queued;
                shard.lease = None;
            }
            Report::Failed(reason) => {
                shard.last_error = Some(reason);
                self.requeue_locked(&mut board, key, false);
            }
        }
    }

    /// Requeue one shard after a lost/failed attempt, or fail it when the
    /// budget is gone. Caller holds the board lock and has verified the
    /// shard is `Running` under its current attempt.
    fn requeue_locked(&self, board: &mut Board, key: ShardKey, lost: bool) {
        let (ji, ci, si) = key;
        let now = self.now_ms();
        let job = &mut board.jobs[ji];
        let shard = &mut job.cells[ci].shards[si];
        shard.failures += 1;
        shard.lease = None;
        if lost {
            shard.last_error = Some("worker lost (missed heartbeat or deadline)".to_owned());
        }
        job.requeues += 1;
        self.requeues_total.fetch_add(1, Ordering::Relaxed);
        if shard.failures >= self.cfg.max_attempts {
            shard.status = ShardStatus::Failed;
            job.settle();
            self.settled.notify_all();
            return;
        }
        shard.attempt += 1;
        shard.status = ShardStatus::Queued;
        let exp = (shard.failures - 1).min(10);
        shard.ready_at_ms = now.saturating_add(self.cfg.backoff_base_ms.saturating_mul(1 << exp));
        if lost {
            shard.lost_at_ms = Some(now);
        }
        // The requeue is on the board, under the lock, before this notify:
        // an idle worker either sees it or is woken to rescan.
        self.work.notify_all();
    }

    fn persist_job(&self, job: &Job) {
        let Some(dir) = &self.cfg.dir else { return };
        let _ = std::fs::create_dir_all(dir);
        let cancelled = job.state == JobState::Cancelled;
        let body = format!(
            "{{\"id\":{},\"cancelled\":{cancelled},\"spec\":{}}}",
            job.id,
            job.spec.to_json()
        );
        let _ = write_atomic(&dir.join(format!("job-{}.json", job.id)), &body);
    }
}

/// Handle to a running campaign service. All methods take `&self`; the
/// service is shared behind an `Arc` by the HTTP front end.
pub struct Service {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Service {
    /// Start the service: resume persisted jobs from `cfg.dir` (if any),
    /// then spawn the worker pool and the monitor.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers;
        let inner = Arc::new(Inner::new(cfg));
        resume_persisted_jobs(&inner);

        let mut handles = Vec::new();
        for _ in 0..workers {
            let inner2 = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner2)));
        }
        let inner2 = Arc::clone(&inner);
        handles.push(std::thread::spawn(move || monitor_loop(&inner2)));
        Self {
            inner,
            handles: Mutex::new(handles),
            stopped: AtomicBool::new(false),
        }
    }

    /// Validate, gate, persist and enqueue a campaign spec. Returns the
    /// job id.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the spec is malformed or a cell fails the
    /// static verify gate; nothing is enqueued on error.
    pub fn submit(&self, spec_text: &str) -> Result<u64, SubmitError> {
        let spec = CampaignSpec::parse(spec_text).map_err(SubmitError::Spec)?;
        verify_gate(&spec).map_err(SubmitError::Gate)?;
        let mut board = self.inner.board.lock().expect("board poisoned");
        let id = board.jobs.iter().map(|j| j.id + 1).max().unwrap_or(0);
        let job = Job::new(id, spec);
        self.inner.persist_job(&job);
        board.jobs.push(job);
        // The job's shards are on the board, under the lock, before this
        // notify: no idle worker misses them.
        self.inner.work.notify_all();
        Ok(id)
    }

    /// The status document for a job, or `None` if the id is unknown.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<String> {
        let board = self.inner.board.lock().expect("board poisoned");
        board.job_index(id).map(|i| board.jobs[i].status_json())
    }

    /// The merged-results document for a job, or `None` if unknown.
    #[must_use]
    pub fn results(&self, id: u64) -> Option<String> {
        let board = self.inner.board.lock().expect("board poisoned");
        board.job_index(id).map(|i| board.jobs[i].results_json())
    }

    /// The all-jobs summary document.
    #[must_use]
    pub fn list(&self) -> String {
        self.inner
            .board
            .lock()
            .expect("board poisoned")
            .summary_json()
    }

    /// Cancel a job: running shards stop at their next issue boundary
    /// (flushing checkpoints), queued shards are never leased. Returns
    /// `false` for an unknown id.
    #[must_use]
    pub fn cancel(&self, id: u64) -> bool {
        let mut board = self.inner.board.lock().expect("board poisoned");
        let Some(i) = board.job_index(id) else {
            return false;
        };
        board.jobs[i].state = JobState::Cancelled;
        board.jobs[i].cancel.cancel();
        self.inner.persist_job(&board.jobs[i]);
        self.inner.settled.notify_all();
        true
    }

    /// Block until the job settles (completed/degraded/cancelled) or the
    /// timeout elapses. Returns whether it settled. The settle signal wakes
    /// it, so it returns as soon as the job settles.
    #[must_use]
    pub fn wait(&self, id: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut board = self.inner.board.lock().expect("board poisoned");
        loop {
            match board.job_index(id) {
                None => return false,
                Some(i) if board.jobs[i].is_settled() => return true,
                Some(_) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            board = self
                .inner
                .settled
                .wait_timeout(board, left)
                .expect("board poisoned")
                .0;
        }
    }

    /// Run `f` under the board lock — the escape hatch tests and the
    /// acceptance example use to inspect merged tallies directly.
    pub fn with_board<T>(&self, f: impl FnOnce(&Board) -> T) -> T {
        f(&self.inner.board.lock().expect("board poisoned"))
    }

    /// Service-level robustness metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let inner = &self.inner;
        // The recovery counters are written under the board lock; reading
        // them under it keeps count, sum and max consistent.
        let board = inner.board.lock().expect("board poisoned");
        let recoveries = inner.recoveries.load(Ordering::Relaxed);
        let sum = inner.recovery_ms_sum.load(Ordering::Relaxed);
        let max = inner.recovery_ms_max.load(Ordering::Relaxed);
        drop(board);
        ServiceMetrics {
            workers: inner.cfg.workers,
            prepares: inner.cells.prepares.load(Ordering::Relaxed),
            prepare_hits: inner.cells.hits.load(Ordering::Relaxed),
            requeued: inner.requeues_total.load(Ordering::Relaxed),
            recoveries,
            recovery_latency_ms_max: max,
            recovery_latency_ms_mean: if recoveries == 0 {
                0.0
            } else {
                sum as f64 / recoveries as f64
            },
        }
    }

    /// Stop everything cleanly: cancel running shards (each flushes its
    /// checkpoint at the next issue boundary), drain the worker pool and
    /// join every thread. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let board = self.inner.board.lock().expect("board poisoned");
            // Set under the board lock before the notify: no idle worker
            // misses it, and none leases a shard after it.
            self.inner.shutdown.store(true, Ordering::SeqCst);
            for job in &board.jobs {
                job.cancel.cancel();
            }
            self.inner.work.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A snapshot of the service's loss-recovery and prepared-cell counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMetrics {
    /// Worker-pool size.
    pub workers: usize,
    /// Shard attempts requeued after loss, deadline or failure.
    pub requeued: u64,
    /// Worker losses detected by the monitor (heartbeat/deadline).
    pub recoveries: u64,
    /// Worst observed loss-detection-to-re-lease latency.
    pub recovery_latency_ms_max: u64,
    /// Mean loss-detection-to-re-lease latency.
    pub recovery_latency_ms_mean: f64,
    /// Cells this service prepared: cache misses whose prepare succeeded.
    pub prepares: u64,
    /// Shard attempts served an already-prepared cell.
    pub prepare_hits: u64,
}

fn resume_persisted_jobs(inner: &Inner) {
    let Some(dir) = inner.cfg.dir.clone() else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("job-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut board = inner.board.lock().expect("board poisoned");
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        let Some(id) = doc.get("id").and_then(Json::as_u64) else {
            continue;
        };
        let cancelled = doc.get("cancelled").and_then(Json::as_bool) == Some(true);
        let Some(spec) = doc
            .get("spec")
            .and_then(|s| CampaignSpec::from_json(s).ok())
        else {
            continue;
        };
        if board.job_index(id).is_some() {
            continue;
        }
        let mut job = Job::new(id, spec);
        if cancelled {
            job.state = JobState::Cancelled;
        }
        board.jobs.push(job);
    }
}

/// A leased shard, as its worker needs it.
struct Leased {
    key: ShardKey,
    attempt: u32,
    shard: ShardSpec,
    workload: String,
    scheme: Scheme,
    seed: u64,
    mix: swapcodes_inject::FaultMix,
    lease: Lease,
    cancel: swapcodes_sim::CancelToken,
}

/// The first `Queued` shard, in board order, whose retry backoff has
/// passed at `now` (ms since service epoch). Otherwise `Err` holds the wait
/// until the earliest backoff ends, or `None` when no shard is queued.
fn next_shard(board: &Board, now: u64) -> Result<ShardKey, Option<u64>> {
    let mut wait: Option<u64> = None;
    for (ji, job) in board.jobs.iter().enumerate() {
        // A cancelled job's shards are never leased, and a settled job has
        // none queued.
        if job.state != JobState::Running {
            continue;
        }
        for (ci, cell) in job.cells.iter().enumerate() {
            for (si, shard) in cell.shards.iter().enumerate() {
                if shard.status != ShardStatus::Queued {
                    continue;
                }
                if shard.ready_at_ms <= now {
                    return Ok((ji, ci, si));
                }
                let left = shard.ready_at_ms - now;
                wait = Some(wait.map_or(left, |w| w.min(left)));
            }
        }
    }
    Err(wait)
}

/// Block until a shard is leasable and lease it; `None` once the service
/// shuts down.
fn lease_next(inner: &Inner) -> Option<Leased> {
    let mut board = inner.board.lock().expect("board poisoned");
    loop {
        // Submit, requeue and shutdown change the board under this lock
        // before they notify `work`. This check, the scan and the wait
        // hold one guard, so each change lands before the scan or wakes
        // the wait: no wakeup is lost.
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let now = inner.now_ms();
        board = match next_shard(&board, now) {
            Ok(key) => return Some(lease(inner, &mut board, key, now)),
            Err(Some(ms)) => {
                let wait = Duration::from_millis(ms);
                inner
                    .work
                    .wait_timeout(board, wait)
                    .expect("board poisoned")
                    .0
            }
            Err(None) => inner.work.wait(board).expect("board poisoned"),
        };
    }
}

/// Lease the `Queued` shard at `key` as its current attempt.
fn lease(inner: &Inner, board: &mut Board, key: ShardKey, now: u64) -> Leased {
    let (ji, ci, si) = key;
    let job = &mut board.jobs[ji];
    let cell = &mut job.cells[ci];
    let shard = &mut cell.shards[si];
    shard.status = ShardStatus::Running;
    shard.classes = FaultClassTallies::default();
    shard.cursor = shard.spec.start;
    // Close the loss-recovery latency loop: this lease replaces a lost one.
    if let Some(lost) = shard.lost_at_ms.take() {
        let ms = now.saturating_sub(lost);
        inner.recoveries.fetch_add(1, Ordering::Relaxed);
        inner.recovery_ms_sum.fetch_add(ms, Ordering::Relaxed);
        inner.recovery_ms_max.fetch_max(ms, Ordering::Relaxed);
    }
    // Deadlines start permissive; the worker tightens them once the
    // campaign is prepared and the fuel bound is known.
    let lease = Lease {
        beat: Arc::new(AtomicU64::new(now)),
        abandon: Arc::new(AtomicBool::new(false)),
        beat_window_ms: u64::MAX,
        deadline_ms: u64::MAX,
    };
    shard.lease = Some(lease.clone());
    Leased {
        key,
        attempt: shard.attempt,
        shard: shard.spec.clone(),
        workload: cell.workload.clone(),
        scheme: cell.scheme,
        seed: job.spec.seed,
        mix: job.spec.mix,
        lease,
        cancel: job.cancel.clone(),
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(leased) = lease_next(inner) {
        run_leased_shard(inner, &leased);
    }
}

/// Run one leased shard, committing each of its events to the board. No
/// prepare, trial, checkpoint flush or chaos action runs under the board
/// lock: each commit takes it and releases it again.
fn run_leased_shard(inner: &Inner, leased: &Leased) {
    let commit = |report| inner.commit(leased.key, leased.attempt, report);
    let options = CampaignOptions {
        mix: leased.mix,
        ..CampaignOptions::from_env()
    };
    let key = (
        leased.workload.clone(),
        CellConfig::resolve(leased.scheme, options),
    );
    // Every attempt gets its cell from the cache. A panicking prepare fails
    // the attempt like any other worker panic.
    let cell = contain(1, |_| {
        inner.cells.get(&key, || {
            let w = by_name(&key.0).ok_or_else(|| format!("unknown workload \"{}\"", key.0))?;
            PreparedCell::prepare(w, key.1).map_err(|e| format!("campaign preparation failed: {e}"))
        })
    })
    .and_then(|cell| cell);
    let campaign = match cell {
        Ok(cell) => ArchCampaign::from_cell(cell, leased.seed, leased.mix),
        Err(reason) => {
            commit(Report::Failed(reason));
            return;
        }
    };

    // Tighten the lease now that the fuel bound is known: one trial can
    // execute at most `fuel` instructions, so a healthy worker beats at
    // least every `base + fuel/STEPS` ms, and the whole shard finishes
    // within `base + shard_trials * fuel/STEPS` ms.
    let per_trial_ms = campaign.fuel / STEPS_PER_MS + 1;
    let shard_trials = leased.shard.end - leased.shard.start;
    {
        let mut board = inner.board.lock().expect("board poisoned");
        if let Some(lease) = current_attempt(&mut board, leased.key, leased.attempt)
            .and_then(|shard| shard.lease.as_mut())
        {
            lease.beat_window_ms = inner.cfg.shard_timeout_ms + per_trial_ms;
            lease.deadline_ms = inner
                .now_ms()
                .saturating_add(inner.cfg.shard_timeout_ms)
                .saturating_add(shard_trials.saturating_mul(per_trial_ms));
        }
    }

    let chaos = inner.cfg.chaos.as_ref().and_then(|c| {
        // By default only first attempts die: chaos proves recovery, not
        // permafailure. `first_attempt_only: false` kills every attempt of
        // a targeted shard to exercise retry-budget exhaustion.
        (!c.first_attempt_only || leased.attempt == 0)
            .then(|| c.plan(&leased.shard.tag))
            .flatten()
    });
    let ck = CheckpointConfig {
        dir: inner.cfg.dir.clone(),
        interval: inner.cfg.checkpoint_interval,
        max_retries: 3,
        stop_after: None,
    };

    let mut events: u64 = 0;
    let beat = &leased.lease.beat;
    let abandon = &leased.lease.abandon;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_arch_shard_checkpointed(&campaign, &leased.shard, &ck, Some(&leased.cancel), |ev| {
            beat.store(inner.now_ms(), Ordering::Relaxed);
            if abandon.load(Ordering::Relaxed) {
                return ShardControl::Die;
            }
            match ev {
                ShardEvent::Adopted { classes, cursor } => {
                    commit(Report::Adopted(*classes, cursor));
                }
                ShardEvent::Trial { class, outcome, .. } => commit(Report::Trial(class, outcome)),
                ShardEvent::Checkpointed { .. } => {}
            }
            events += 1;
            // The commit above has released the board lock, so a chaos
            // panic cannot poison the board and kill the service.
            if let Some((action, after)) = chaos {
                if events > after {
                    match action {
                        ChaosAction::Panic => panic!("chaos: injected worker panic"),
                        ChaosAction::Vanish => return ShardControl::Die,
                        ChaosAction::Hang => loop {
                            // Frozen heartbeat; only the monitor's abandon
                            // flag gets us out.
                            if abandon.load(Ordering::Relaxed) {
                                return ShardControl::Die;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        },
                    }
                }
            }
            ShardControl::Continue
        })
    }));

    match outcome {
        Err(payload) => {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_owned());
            commit(Report::Failed(reason));
        }
        Ok(run) if run.finished => commit(Report::Done(run.classes, run.cursor)),
        Ok(run) if run.cancelled => commit(Report::Cancelled(run.classes, run.cursor)),
        // Abandoned. A vanished worker reports nothing and stops beating
        // (the monitor's heartbeat path requeues); a monitor-abandoned
        // worker's shard was already requeued when the abandon flag was
        // raised. Either way: silence.
        Ok(_) => {}
    }
}

/// The shard at `key` iff it is still running the given attempt; stale
/// reports (zombie workers) resolve to `None` and change nothing.
fn current_attempt(board: &mut Board, key: ShardKey, attempt: u32) -> Option<&mut Shard> {
    let (ji, ci, si) = key;
    let shard = board
        .jobs
        .get_mut(ji)?
        .cells
        .get_mut(ci)?
        .shards
        .get_mut(si)?;
    (shard.attempt == attempt && shard.status == ShardStatus::Running).then_some(shard)
}

fn monitor_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
        let now = inner.now_ms();
        let mut board = inner.board.lock().expect("board poisoned");
        let mut lost = Vec::new();
        for (ji, job) in board.jobs.iter().enumerate() {
            if job.state == JobState::Cancelled {
                continue;
            }
            for (ci, cell) in job.cells.iter().enumerate() {
                for (si, shard) in cell.shards.iter().enumerate() {
                    if shard.status != ShardStatus::Running {
                        continue;
                    }
                    let Some(lease) = &shard.lease else { continue };
                    let silent = now.saturating_sub(lease.beat.load(Ordering::Relaxed));
                    if silent > lease.beat_window_ms || now > lease.deadline_ms {
                        lease.abandon.store(true, Ordering::Relaxed);
                        lost.push((ji, ci, si));
                    }
                }
            }
        }
        for key in lost {
            inner.requeue_locked(&mut board, key, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct keys over one cheap cell: the CoW page size is part of the
    /// key but never changes what a trial computes.
    fn key(cow_page_words: usize) -> CellKey {
        let options = CampaignOptions {
            cow_page_words,
            ..CampaignOptions::default()
        };
        (
            "kmeans".to_owned(),
            CellConfig::resolve(Scheme::SwDup, options),
        )
    }

    fn prepare(key: &CellKey) -> Result<PreparedCell, String> {
        let w = by_name(&key.0).expect("workload");
        PreparedCell::prepare(w, key.1).map_err(|e| e.to_string())
    }

    /// A failed or panicking prepare leaves nothing behind: the next lookup
    /// prepares again instead of waiting on, or hitting, a dead slot. A
    /// ready cell is never prepared twice.
    #[test]
    fn failed_prepares_are_not_cached() {
        let cache = CellCache::default();
        let k = key(64);
        let failed = cache.get(&k, || Err("boom".to_owned()));
        assert_eq!(failed.err().as_deref(), Some("boom"));
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.get(&k, || panic!("prepare panicked"))
        }));
        assert!(panicked.is_err());
        let cell = cache.get(&k, || prepare(&k)).expect("prepares");
        let hit = cache
            .get(&k, || panic!("a ready cell is not prepared again"))
            .expect("hit");
        assert!(Arc::ptr_eq(&cell, &hit));
        assert_eq!(cache.prepares.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
    }

    /// The cache holds at most `CELL_CACHE_CAPACITY` cells and evicts the
    /// least recently used one.
    #[test]
    fn full_cache_evicts_the_least_recently_used_cell() {
        let cache = CellCache::default();
        let keys: Vec<CellKey> = (0..=CELL_CACHE_CAPACITY).map(|i| key(8 << i)).collect();
        for k in &keys[..CELL_CACHE_CAPACITY] {
            cache.get(k, || prepare(k)).expect("prepares");
        }
        // Touch the oldest cell so the second oldest is least recently used.
        cache.get(&keys[0], || panic!("cached")).expect("hit");
        let newest = &keys[CELL_CACHE_CAPACITY];
        cache.get(newest, || prepare(newest)).expect("prepares");
        let slots = cache.slots.lock().expect("cell cache lock");
        let cached: Vec<&CellKey> = slots.iter().map(|(k, _)| k).collect();
        assert_eq!(cached.len(), CELL_CACHE_CAPACITY);
        assert!(cached.contains(&&keys[0]));
        assert!(!cached.contains(&&keys[1]));
    }

    /// One cell of three shards: `[0, 40)`, `[40, 80)` and `[80, 100)`.
    fn three_shard_job(id: u64) -> Job {
        let spec = CampaignSpec::parse(
            r#"{"name":"t","workloads":["matmul"],"schemes":["swap-ecc"],
               "trials":100,"shard_trials":40}"#,
        )
        .expect("spec parses");
        Job::new(id, spec)
    }

    /// The zombie guard on the worker path: a commit stamped with an
    /// attempt the board has moved past, or aimed at a shard that is not
    /// running, changes nothing; the current attempt's commits apply.
    #[test]
    fn stale_attempts_commit_nothing() {
        let inner = Inner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut job = three_shard_job(0);
        job.cells[0].shards[0].status = ShardStatus::Running;
        job.cells[0].shards[0].attempt = 1;
        inner.board.lock().expect("board").jobs.push(job);
        let snapshot = || format!("{:?}", inner.board.lock().expect("board"));
        let shard0 = || inner.board.lock().expect("board").jobs[0].cells[0].shards[0].clone();
        let trial = || Report::Trial(FaultClass::Transient, TrialOutcome::Sdc);
        let finish = || Report::Done(FaultClassTallies::default(), 40);

        let before = snapshot();
        inner.commit((0, 0, 0), 0, trial());
        inner.commit((0, 0, 0), 0, finish());
        inner.commit((0, 0, 1), 0, trial());
        assert_eq!(snapshot(), before, "stale commits changed the board");

        inner.commit((0, 0, 0), 1, trial());
        let s = shard0();
        assert_eq!((s.cursor, s.classes.transient.sdc), (1, 1));
        inner.commit((0, 0, 0), 1, finish());
        let s = shard0();
        assert_eq!(s.status, ShardStatus::Done);
        assert_eq!((s.cursor, s.classes.transient.sdc), (40, 0));
    }

    /// The lease scan skips cancelled and settled jobs, running shards and
    /// shards still in backoff, and otherwise takes board order.
    #[test]
    fn lease_scan_takes_the_first_ready_queued_shard() {
        let mut board = Board::default();
        let mut cancelled = three_shard_job(0);
        cancelled.state = JobState::Cancelled;
        let mut settled = three_shard_job(1);
        for shard in &mut settled.cells[0].shards {
            shard.status = ShardStatus::Done;
        }
        settled.settle();
        let mut running = three_shard_job(2);
        running.cells[0].shards[0].status = ShardStatus::Running;
        running.cells[0].shards[1].ready_at_ms = 50;
        board.jobs.extend([cancelled, settled, running]);

        assert_eq!(next_shard(&board, 10), Ok((2, 0, 2)));
        board.jobs[2].cells[0].shards[2].status = ShardStatus::Running;
        assert_eq!(next_shard(&board, 10), Err(Some(40)));
        assert_eq!(next_shard(&board, 50), Ok((2, 0, 1)));
        board.jobs[2].cells[0].shards[1].status = ShardStatus::Running;
        assert_eq!(next_shard(&board, 50), Err(None));
    }
}
