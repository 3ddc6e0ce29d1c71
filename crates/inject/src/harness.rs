//! Crash containment and checkpoint/resume for injection campaigns.
//!
//! Real injection campaigns are huge (§IV runs hundreds of thousands of
//! trials) and run for hours, so the harness treats the campaign host
//! itself as unreliable:
//!
//! * every work item runs inside [`contain`] — a `catch_unwind` wrapper
//!   with a bounded, deterministically re-seeded retry — so one pathological
//!   trial cannot take down the whole campaign;
//! * items that stay unrecoverable after the retries are appended to a
//!   structured JSONL **anomaly log** ([`AnomalyLog`]) and the campaign
//!   moves on;
//! * progress (tallies + trial cursor) is periodically snapshotted with
//!   [`write_atomic`] (write-temp-then-rename), so a campaign killed by a
//!   crash, OOM or SIGKILL resumes from its last checkpoint — and because
//!   trials are pure functions of `(seed, index)`, the resumed tallies are
//!   byte-identical to an uninterrupted run;
//! * the one checkpointed driver, [`run_arch_shard_checkpointed`], runs a
//!   trial range `[start, end)` of an architecture-level campaign in order.
//!   The campaign service (`swapcodes-serve`) splits every campaign into
//!   such shards; a whole campaign is the single range `[0, trials)`.
//!
//! Checkpoints and the anomaly log live in [`CheckpointConfig::dir`] (by
//! default the directory named by the `SWAPCODES_CHECKPOINT_DIR`
//! environment variable); with no directory configured the harness still
//! contains panics but keeps no on-disk state. All on-disk formats are
//! single-line flat JSON, written with [`escape`] and read back with
//! [`Json::parse`].

use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use swapcodes_json::{escape, Json};
use swapcodes_sim::{CancelToken, FaultClass};

use crate::arch::{ArchCampaign, ArchOutcomes, FaultClassTallies, TrialOutcome};

/// Once-per-variable registry of malformed environment overrides. The
/// first time a variable fails to parse the error is printed to stderr and
/// queued for [`take_env_anomalies`]; later reads of the same variable
/// stay quiet (campaign drivers re-read the overrides for every prepared
/// campaign, and one typo should not spam the log once per cell).
#[derive(Default)]
struct EnvAnomalies {
    surfaced: Vec<&'static str>,
    pending: Vec<String>,
}

fn env_anomaly_registry() -> &'static Mutex<EnvAnomalies> {
    static REG: OnceLock<Mutex<EnvAnomalies>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(EnvAnomalies::default()))
}

fn surface_env_anomaly(var: &'static str, msg: String) {
    let mut reg = env_anomaly_registry()
        .lock()
        .expect("env anomaly registry poisoned");
    if reg.surfaced.contains(&var) {
        return;
    }
    reg.surfaced.push(var);
    eprintln!("swapcodes: {msg}");
    reg.pending.push(msg);
}

/// Drain the malformed-environment messages queued since the last call.
/// The checkpointed shard driver calls this once per shard and appends
/// the messages to the [`AnomalyLog`], so a typo'd override is
/// visible in the campaign's on-disk record instead of only on a
/// scrolled-away stderr.
#[must_use]
pub fn take_env_anomalies() -> Vec<String> {
    std::mem::take(
        &mut env_anomaly_registry()
            .lock()
            .expect("env anomaly registry poisoned")
            .pending,
    )
}

/// Read and parse environment variable `var`. A malformed value returns
/// `None` like an unset one — the campaign still runs on its defaults —
/// but the parse error is surfaced through [`surface_env_anomaly`] rather
/// than silently swallowed.
fn env_parsed<T>(var: &'static str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    let raw = match std::env::var(var) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(_)) => {
            surface_env_anomaly(var, format!("ignoring {var}: value is not valid unicode"));
            return None;
        }
    };
    match parse(&raw) {
        Ok(v) => Some(v),
        Err(e) => {
            surface_env_anomaly(var, format!("ignoring malformed {var}={raw:?}: {e}"));
            None
        }
    }
}

fn parse_positive(v: &str) -> Result<u64, String> {
    let n: u64 = v.trim().parse().map_err(|e| format!("{e}"))?;
    if n == 0 {
        Err("must be positive".to_owned())
    } else {
        Ok(n)
    }
}

/// The `SWAPCODES_FUEL` override: a hard per-trial step budget for fueled
/// execution (see [`crate::arch::ArchCampaign::fuel`]). Malformed values
/// are surfaced once (see [`take_env_anomalies`]) and ignored.
#[must_use]
pub fn fuel_from_env() -> Option<u64> {
    env_parsed("SWAPCODES_FUEL", parse_positive)
}

/// The `SWAPCODES_SNAPSHOT_INTERVAL` override: epoch-snapshot spacing (in
/// dynamic instructions) for campaign fast-forwarding (see
/// [`crate::arch::ArchCampaign::snapshot_interval`]). Unset: about 32
/// snapshots across the golden run, with a 512-instruction floor.
/// Malformed values are surfaced once and ignored.
#[must_use]
pub fn snapshot_interval_from_env() -> Option<u64> {
    env_parsed("SWAPCODES_SNAPSHOT_INTERVAL", parse_positive)
}

/// The `SWAPCODES_THREADS` worker-pool override (see
/// [`crate::gate::default_thread_count`]). Malformed values are surfaced
/// once and ignored.
#[must_use]
pub fn threads_from_env() -> Option<usize> {
    env_parsed("SWAPCODES_THREADS", |v| {
        let n = parse_positive(v)?;
        usize::try_from(n).map_err(|e| format!("{e}"))
    })
}

/// The `SWAPCODES_FAULT_MODEL` override: the fault-class sampling mix
/// [`crate::arch::CampaignOptions::from_env`] selects — `"transient"`
/// (the default), `"control"`, `"stuckat"`, `"all"`, or a weighted comma
/// list like `"transient:2,control:1,stuckat:1"`. Malformed values are
/// surfaced once and ignored.
#[must_use]
pub fn fault_mix_from_env() -> Option<crate::arch::FaultMix> {
    env_parsed("SWAPCODES_FAULT_MODEL", crate::arch::FaultMix::parse)
}

/// The `SWAPCODES_SERVE_WORKERS` override: worker-pool size of the
/// campaign service (`swapcodes-serve`). Malformed values are surfaced
/// once (see [`take_env_anomalies`]) and ignored.
#[must_use]
pub fn serve_workers_from_env() -> Option<usize> {
    env_parsed("SWAPCODES_SERVE_WORKERS", |v| {
        let n = parse_positive(v)?;
        usize::try_from(n).map_err(|e| format!("{e}"))
    })
}

/// The `SWAPCODES_SHARD_TIMEOUT_MS` override: base wall-clock deadline for
/// one shard attempt in the campaign service (the fuel-derived component is
/// added on top — see `swapcodes-serve`). Malformed values are surfaced
/// once and ignored.
#[must_use]
pub fn shard_timeout_ms_from_env() -> Option<u64> {
    env_parsed("SWAPCODES_SHARD_TIMEOUT_MS", parse_positive)
}

/// The `SWAPCODES_CHECKPOINT_DIR` campaign state directory, if set.
#[must_use]
pub fn checkpoint_dir_from_env() -> Option<PathBuf> {
    std::env::var_os("SWAPCODES_CHECKPOINT_DIR")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
}

/// Write `contents` to `path` atomically: write and fsync a sibling
/// temporary file, then rename it over the target. A crash at any point
/// leaves either the old file or the new one, never a torn mix.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Run `item` (called with a retry salt, 0 first) under `catch_unwind`, at
/// most `max_attempts` times. Returns the first non-panicking result, or
/// the last panic message once the retry budget is exhausted.
///
/// The salt lets deterministic work items re-seed on retry: replaying a
/// deterministic panic verbatim can never succeed, but a fresh draw for the
/// same item index usually does — and stays reproducible.
///
/// # Errors
///
/// Returns the final panic payload (rendered to a string) when every
/// attempt panicked.
pub fn contain<T>(max_attempts: u32, mut item: impl FnMut(u32) -> T) -> Result<T, String> {
    let mut last = String::new();
    for salt in 0..max_attempts.max(1) {
        match catch_unwind(AssertUnwindSafe(|| item(salt))) {
            Ok(v) => return Ok(v),
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    Err(last)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// File-name-safe slug: lowercase alphanumerics, everything else `-`.
#[must_use]
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Anomaly log
// ---------------------------------------------------------------------------

/// Size cap for an anomaly log. When an append pushes the file past
/// this, the log rotates in place: the oldest lines are dropped and a
/// retained-tail marker (`{"rotated":true,"dropped":K}`) is written as the
/// first line, so a pathological campaign (every trial panicking) cannot
/// fill the disk while the count of lost lines stays auditable.
pub const ANOMALY_LOG_CAP_BYTES: u64 = 256 * 1024;

/// Append-only JSONL log of unrecoverable work items. Each line is
/// `{"campaign":"…","item":N,"retries":R,"panic":"…"}`; the campaign keeps
/// running after logging. Growth is bounded by [`ANOMALY_LOG_CAP_BYTES`]
/// via size-triggered tail rotation.
#[derive(Debug)]
pub struct AnomalyLog {
    path: Option<PathBuf>,
    /// Anomalies recorded through this handle.
    pub count: u64,
}

impl AnomalyLog {
    /// A log writing to `anomalies-<shard>.jsonl` under `dir` (or a
    /// counting-only log when no directory is configured), so shards of one
    /// service campaign never contend on a single file. The shard tag is
    /// [`slug`]ged into the filename.
    #[must_use]
    pub fn for_shard(dir: Option<&Path>, shard: &str) -> Self {
        Self {
            path: dir.map(|d| d.join(format!("anomalies-{}.jsonl", slug(shard)))),
            count: 0,
        }
    }

    /// Record one unrecoverable item. Logging is best-effort: a failed
    /// append must not kill the campaign the log exists to protect.
    ///
    /// Concurrent writers on one log file (two service processes pointed at
    /// one state directory, or tags that slug alike) serialize on an
    /// advisory lock held for the whole append+rotate pair —
    /// without it, one writer's rotation (read, trim, rename-over) can
    /// silently drop a line another writer appended after the read.
    pub fn record(&mut self, campaign: &str, item: u64, retries: u32, panic_msg: &str) {
        self.count += 1;
        let Some(path) = &self.path else { return };
        let line = format!(
            "{{\"campaign\":\"{}\",\"item\":{item},\"retries\":{retries},\"panic\":\"{}\"}}\n",
            escape(campaign),
            escape(panic_msg)
        );
        // The lock lives on a sibling file that is never rotated or renamed,
        // so every writer — in this process or another — locks the same
        // inode. Dropping the guard (even on an early error path) unlocks.
        let _guard = lock_sibling(path);
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        rotate_anomaly_log(path, ANOMALY_LOG_CAP_BYTES);
    }
}

/// Take an exclusive advisory lock on `<path>.lock`, blocking until granted.
/// Returns the open handle; the lock releases when the handle drops. Errors
/// degrade to no locking (`None`) — same best-effort stance as the log
/// writes themselves.
fn lock_sibling(path: &Path) -> Option<fs::File> {
    let mut lock_path = path.as_os_str().to_owned();
    lock_path.push(".lock");
    let f = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(Path::new(&lock_path))
        .ok()?;
    f.lock().ok()?;
    Some(f)
}

/// Rotate the anomaly log in place when it exceeds `cap` bytes: keep the
/// newest lines up to half the cap, drop the rest, and lead the file with a
/// `{"rotated":true,"dropped":K}` marker whose count accumulates across
/// rotations. Best-effort, atomic (write-temp-then-rename), and a no-op
/// under the cap.
fn rotate_anomaly_log(path: &Path, cap: u64) {
    let Ok(meta) = fs::metadata(path) else { return };
    if meta.len() <= cap {
        return;
    }
    let Ok(text) = fs::read_to_string(path) else {
        return;
    };
    let keep_budget = usize::try_from(cap / 2).unwrap_or(usize::MAX);
    let mut kept: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
    let mut kept_bytes = 0usize;
    let mut dropped = 0u64;
    for line in text.lines() {
        // A previous rotation's marker carries its dropped count forward
        // instead of being retained as an ordinary line.
        if let Ok(f) = Json::parse(line) {
            if f.get("rotated").and_then(Json::as_bool) == Some(true) {
                dropped += f.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                continue;
            }
        }
        kept.push_back(line);
        kept_bytes += line.len() + 1;
        while kept_bytes > keep_budget {
            let Some(old) = kept.pop_front() else { break };
            kept_bytes -= old.len() + 1;
            dropped += 1;
        }
    }
    let mut out = format!("{{\"rotated\":true,\"dropped\":{dropped}}}\n");
    for line in kept {
        out.push_str(line);
        out.push('\n');
    }
    let _ = write_atomic(path, &out);
}

// ---------------------------------------------------------------------------
// Checkpointed shard driver
// ---------------------------------------------------------------------------

/// How a checkpointed shard persists and contains its work.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint/anomaly directory; `None` disables on-disk state (the
    /// default comes from `SWAPCODES_CHECKPOINT_DIR`).
    pub dir: Option<PathBuf>,
    /// Snapshot progress every this many completed items.
    pub interval: u64,
    /// Containment attempts per work item (first try + re-seeded retries).
    pub max_retries: u32,
    /// Test hook: stop (as if killed) after completing this many items in
    /// *this* invocation, leaving the checkpoint behind for a resume.
    pub stop_after: Option<u64>,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            dir: checkpoint_dir_from_env(),
            interval: 256,
            max_retries: 3,
            stop_after: None,
        }
    }
}

/// Serialize one tally's ten buckets with a per-class key prefix
/// (`""` for the aggregate, `"t_"`/`"c_"`/`"s_"` for the classes).
fn outcome_fields(prefix: &str, t: &ArchOutcomes) -> String {
    format!(
        "\"{prefix}trap\":{},\"{prefix}due\":{},\"{prefix}crash\":{},\"{prefix}hang\":{},\
         \"{prefix}masked\":{},\"{prefix}sdc\":{},\"{prefix}rec_correct\":{},\
         \"{prefix}rec_replay\":{},\"{prefix}rec_relaunch\":{},\"{prefix}miscorrected\":{}",
        t.trap,
        t.due,
        t.crash,
        t.hang,
        t.masked,
        t.sdc,
        t.recovered_correct,
        t.recovered_replay,
        t.recovered_relaunch,
        t.miscorrected
    )
}

fn parse_outcome_fields(f: &Json, prefix: &str) -> Option<ArchOutcomes> {
    let g = |k: &str| f.get(&format!("{prefix}{k}")).and_then(Json::as_u64);
    Some(ArchOutcomes {
        trap: g("trap")?,
        due: g("due")?,
        crash: g("crash")?,
        hang: g("hang")?,
        masked: g("masked")?,
        sdc: g("sdc")?,
        recovered_correct: g("rec_correct")?,
        recovered_replay: g("rec_replay")?,
        recovered_relaunch: g("rec_relaunch")?,
        miscorrected: g("miscorrected")?,
    })
}

/// Everything a checkpoint must match to be resumed: the campaign's
/// identity and the shard's trial range.
struct CheckpointId {
    /// The trial engine tag: a checkpoint from another engine is stale.
    engine: &'static str,
    /// The fault-mix tag: a checkpoint drawn under another mix is stale.
    mix: String,
    workload: &'static str,
    scheme: String,
    seed: u64,
    fuel: u64,
    start: u64,
    end: u64,
}

impl CheckpointId {
    fn new(campaign: &ArchCampaign<'_>, shard: &ShardSpec) -> Self {
        Self {
            engine: campaign.engine_tag(),
            mix: campaign.mix().tag(),
            workload: campaign.workload().name,
            scheme: campaign.scheme().label(),
            seed: campaign.seed(),
            fuel: campaign.fuel,
            start: shard.start,
            end: shard.end,
        }
    }
}

/// Progress over trials `[start, cursor)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Progress {
    cursor: u64,
    classes: FaultClassTallies,
}

/// The checkpoint format: a single flat JSON line holding the identity,
/// the cursor, and the aggregate and per-class buckets.
fn checkpoint_json(id: &CheckpointId, p: &Progress) -> String {
    format!(
        "{{\"campaign\":\"arch\",\"engine\":\"{}\",\"faultmix\":\"{}\",\
         \"workload\":\"{}\",\"scheme\":\"{}\",\"seed\":{},\"fuel\":{},\
         \"start\":{},\"end\":{},\"cursor\":{},{},{},{},{}}}",
        escape(id.engine),
        escape(&id.mix),
        escape(id.workload),
        escape(&id.scheme),
        id.seed,
        id.fuel,
        id.start,
        id.end,
        p.cursor,
        outcome_fields("", &p.classes.aggregate()),
        outcome_fields("t_", &p.classes.transient),
        outcome_fields("c_", &p.classes.control),
        outcome_fields("s_", &p.classes.stuck_at)
    )
}

/// What loading a checkpoint found. The resumable payload dwarfs the
/// rejection variants, but exactly one value exists per driver call, so
/// boxing it would buy nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum ArchCheckpoint {
    /// Identity, engine and fault mix match: resume from this progress.
    Resumable(Progress),
    /// Identity matches but the checkpoint was written by a different (or
    /// pre-tagging) trial engine.
    StaleEngine {
        /// The engine tag found in the file (empty when absent).
        found: String,
    },
    /// Identity and engine match but the checkpoint was drawn under a
    /// different fault-class mix (or predates mix tagging): per-trial
    /// draws differ, so resuming would mix incomparable tallies.
    StaleFaultMix {
        /// The mix tag found in the file (empty when absent).
        found: String,
    },
    /// Another campaign's or range's checkpoint, an older format, a torn
    /// file, or progress that disagrees with itself.
    Mismatch,
}

/// Parse the checkpoint at `path` and classify it against `id`. Fields the
/// format does not read are ignored: checkpoints written while a recovery
/// driver shared the format carry a `mode` tag and five recovery counters,
/// and still resume.
fn load_checkpoint(path: &Path, id: &CheckpointId) -> ArchCheckpoint {
    let inner = || -> Option<ArchCheckpoint> {
        let f = Json::parse(&fs::read_to_string(path).ok()?).ok()?;
        let s = |k: &str| f.get(k).and_then(Json::as_str);
        let u = |k: &str| f.get(k).and_then(Json::as_u64);
        if s("campaign")? != "arch"
            || s("workload")? != id.workload
            || s("scheme")? != id.scheme
            || u("seed")? != id.seed
            || u("fuel")? != id.fuel
            || u("start")? != id.start
            || u("end")? != id.end
        {
            return None;
        }
        let found = s("engine").unwrap_or("");
        if found != id.engine {
            return Some(ArchCheckpoint::StaleEngine {
                found: found.to_owned(),
            });
        }
        let found = s("faultmix").unwrap_or("");
        if found != id.mix {
            return Some(ArchCheckpoint::StaleFaultMix {
                found: found.to_owned(),
            });
        }
        let classes = FaultClassTallies {
            transient: parse_outcome_fields(&f, "t_")?,
            control: parse_outcome_fields(&f, "c_")?,
            stuck_at: parse_outcome_fields(&f, "s_")?,
        };
        // The aggregate fields are redundant with the class buckets; a
        // disagreement means a torn or hand-edited file.
        if parse_outcome_fields(&f, "")? != classes.aggregate() {
            return None;
        }
        let p = Progress {
            cursor: u("cursor")?,
            classes,
        };
        (id.start <= p.cursor && p.cursor <= id.end && classes.total() == p.cursor - id.start)
            .then_some(ArchCheckpoint::Resumable(p))
    };
    inner().unwrap_or(ArchCheckpoint::Mismatch)
}

/// A contiguous trial range `[start, end)` of one campaign cell, owned by
/// exactly one worker at a time. Because trials are pure in
/// `(seed, index)`, any partition of `0..trials` into shards — run in any
/// order, on any workers, interrupted and resumed any number of times —
/// merges to tallies byte-identical to a single serial pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Unique shard tag (e.g. `"job3-cell1-shard2"`); keys the shard's
    /// on-disk checkpoint and per-shard anomaly log via [`slug`].
    pub tag: String,
    /// First trial index of the range (inclusive).
    pub start: u64,
    /// One past the last trial index (exclusive).
    pub end: u64,
}

/// Progress events streamed by [`run_arch_shard_checkpointed`] to its
/// caller (a campaign service worker commits each as a tally delta to its
/// board and beats its heartbeat on each; tests use them to interrupt the
/// shard mid-flight).
#[derive(Debug)]
pub enum ShardEvent<'a> {
    /// A matching shard checkpoint was adopted: `classes` already covers
    /// trials `[start, cursor)` and those trials will not re-run. Emitted
    /// at most once, before any [`ShardEvent::Trial`].
    Adopted {
        /// Per-class tallies restored from the checkpoint.
        classes: &'a FaultClassTallies,
        /// The next trial index to run.
        cursor: u64,
    },
    /// One trial completed (contained normally, or conservatively tallied
    /// as `Crash` after retry exhaustion — see [`contain`]).
    Trial {
        /// The trial index just tallied.
        trial: u64,
        /// The fault class drawn for the trial.
        class: FaultClass,
        /// The trial's outcome.
        outcome: TrialOutcome,
    },
    /// Progress through `cursor` was flushed to the shard checkpoint.
    Checkpointed {
        /// Trials `[start, cursor)` are now durable.
        cursor: u64,
    },
}

/// Caller's verdict after each [`ShardEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardControl {
    /// Keep running the shard.
    Continue,
    /// Abandon the shard *abruptly* — return immediately without flushing a
    /// checkpoint, exactly as a lost worker would. Durable state is
    /// whatever the last [`ShardEvent::Checkpointed`] wrote; the service's
    /// requeue path must re-adopt from that trusted prefix.
    Die,
}

/// Terminal state of one [`run_arch_shard_checkpointed`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    /// Per-class tallies over trials `[start, cursor)` — resumed prefix
    /// plus this invocation's work.
    pub classes: FaultClassTallies,
    /// One past the last tallied trial index.
    pub cursor: u64,
    /// The shard ran to `end`.
    pub finished: bool,
    /// The shard stopped at a cancellation point (checkpoint flushed; the
    /// in-flight trial, if any, was discarded untallied and re-runs on
    /// resume).
    pub cancelled: bool,
    /// The shard was abandoned by [`ShardControl::Die`] (checkpoint *not*
    /// flushed).
    pub abandoned: bool,
    /// Unrecoverable trials logged during this invocation.
    pub anomalies: u64,
}

/// How one invocation of [`run_arch_shard_checkpointed`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// Ran to the end of the range (checkpoint flushed).
    Finished,
    /// The `stop_after` hook fired (checkpoint flushed).
    Stopped,
    /// The cancellation token fired (checkpoint flushed).
    Cancelled,
    /// `on_event` returned [`ShardControl::Die`] (nothing flushed).
    Abandoned,
}

/// Run (or resume) one shard of an architecture-level campaign against an
/// already-prepared [`ArchCampaign`], with panic containment, a per-shard
/// anomaly log, periodic atomic checkpoints, and two distinct stop paths:
///
/// * **cancellation** (`cancel` token, polled between trials *and* at every
///   issue boundary inside a trial) flushes the checkpoint and returns with
///   `cancelled` set — the in-flight trial is discarded untallied and
///   re-runs in full on resume, preserving byte-identity;
/// * **abandonment** ([`ShardControl::Die`] from `on_event`) returns
///   immediately *without* flushing, modelling a worker lost mid-shard —
///   the durable state is the last checkpoint's trusted prefix.
///
/// The shard first resumes from its checkpoint, `<tag>.ckpt.json` under
/// `ck.dir` with the tag [`slug`]ged, when it matches (emitting
/// [`ShardEvent::Adopted`]). A checkpoint that exists but does not match is
/// rejected with a `checkpoint did not match` anomaly line, and the shard
/// starts at `shard.start`. Then each step, in trial order:
///
/// 1. polls `cancel` and checks `ck.stop_after` — either flushes the
///    checkpoint and returns;
/// 2. runs the trial under [`contain`] — a trial that keeps panicking is
///    logged and tallied as `Crash` in its salt-0 fault class; a trial cut
///    short by `cancel` is discarded and re-runs in full on resume;
/// 3. records it and emits [`ShardEvent::Trial`], so the caller observes
///    each trial as soon as it is tallied: the service worker's delta
///    commit to its merge-on-read board, and its heartbeat;
/// 4. every `ck.interval` trials *of this invocation*, flushes the
///    checkpoint and emits [`ShardEvent::Checkpointed`].
///
/// [`ShardControl::Die`] from any event returns at once without flushing.
/// Because trials are pure in `(seed, index, salt)`, any sequence of
/// interruptions and resumes tallies byte-identically to one pass.
pub fn run_arch_shard_checkpointed(
    campaign: &ArchCampaign<'_>,
    shard: &ShardSpec,
    ck: &CheckpointConfig,
    cancel: Option<&CancelToken>,
    mut on_event: impl FnMut(ShardEvent<'_>) -> ShardControl,
) -> ShardRun {
    let id = CheckpointId::new(campaign, shard);
    let mut log = AnomalyLog::for_shard(ck.dir.as_deref(), &shard.tag);
    let path = ck.dir.as_ref().map(|d| {
        let _ = fs::create_dir_all(d);
        d.join(format!("{}.ckpt.json", slug(&shard.tag)))
    });
    let save = |p: &Progress| {
        if let Some(path) = &path {
            let _ = write_atomic(path, &checkpoint_json(&id, p));
        }
    };
    for msg in take_env_anomalies() {
        log.record(&shard.tag, 0, 0, &msg);
    }
    let mut p = Progress {
        cursor: shard.start,
        ..Progress::default()
    };
    let mut adopted = false;
    if let Some(path) = path.as_deref().filter(|path| path.exists()) {
        let why = match load_checkpoint(path, &id) {
            ArchCheckpoint::Resumable(saved) => {
                p = saved;
                adopted = true;
                None
            }
            ArchCheckpoint::StaleEngine { found } => Some(format!(
                "engine \"{found}\" is incompatible with \"{}\"",
                id.engine
            )),
            ArchCheckpoint::StaleFaultMix { found } => Some(format!(
                "fault mix \"{found}\" is incompatible with \"{}\"",
                id.mix
            )),
            ArchCheckpoint::Mismatch => {
                Some("other campaign, range or format, or a torn file".to_owned())
            }
        };
        if let Some(why) = why {
            log.record(
                &shard.tag,
                shard.start,
                0,
                &format!(
                    "checkpoint did not match: {why}; restarting from trial {}",
                    shard.start
                ),
            );
        }
    }
    let exit = 'run: {
        if adopted
            && on_event(ShardEvent::Adopted {
                classes: &p.classes,
                cursor: p.cursor,
            }) == ShardControl::Die
        {
            break 'run Exit::Abandoned;
        }
        let mut done_this_run = 0u64;
        while p.cursor < shard.end {
            let stop = if cancel.is_some_and(CancelToken::is_cancelled) {
                Some(Exit::Cancelled)
            } else {
                (ck.stop_after == Some(done_this_run)).then_some(Exit::Stopped)
            };
            if let Some(exit) = stop {
                save(&p);
                break 'run exit;
            }
            let index = p.cursor;
            let ran = contain(ck.max_retries, |salt| match cancel {
                Some(token) => campaign.run_trial_classed_cancellable(index, salt, token),
                None => Some(campaign.run_trial_classed_salted(index, salt)),
            });
            let (class, outcome) = match ran {
                Ok(Some(ran)) => ran,
                Ok(None) => {
                    save(&p);
                    break 'run Exit::Cancelled;
                }
                Err(panic_msg) => {
                    log.record(&shard.tag, index, ck.max_retries, &panic_msg);
                    // The salt-0 draw is the deterministic one a re-run
                    // sees first.
                    let class = campaign.trial_fault_salted(index, 0).class;
                    (class, TrialOutcome::Crash)
                }
            };
            p.classes.record(class, outcome);
            p.cursor += 1;
            done_this_run += 1;
            if on_event(ShardEvent::Trial {
                trial: index,
                class,
                outcome,
            }) == ShardControl::Die
            {
                break 'run Exit::Abandoned;
            }
            if ck.interval > 0 && done_this_run.is_multiple_of(ck.interval) {
                save(&p);
                if on_event(ShardEvent::Checkpointed { cursor: p.cursor }) == ShardControl::Die {
                    break 'run Exit::Abandoned;
                }
            }
        }
        save(&p);
        Exit::Finished
    };
    ShardRun {
        classes: p.classes,
        cursor: p.cursor,
        finished: exit == Exit::Finished,
        cancelled: exit == Exit::Cancelled,
        abandoned: exit == Exit::Abandoned,
        anomalies: log.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::CampaignOptions;

    #[test]
    fn malformed_env_overrides_surface_once() {
        // Malformed values behave like unset ones (campaigns keep their
        // defaults), so setting them here cannot skew concurrently running
        // tests — but the parse error must surface exactly once.
        std::env::set_var("SWAPCODES_FUEL", "not-a-number");
        std::env::set_var("SWAPCODES_SHARD_TIMEOUT_MS", "soon");
        assert_eq!(fuel_from_env(), None);
        assert_eq!(fuel_from_env(), None);
        assert_eq!(shard_timeout_ms_from_env(), None);
        std::env::remove_var("SWAPCODES_FUEL");
        std::env::remove_var("SWAPCODES_SHARD_TIMEOUT_MS");
        let msgs = take_env_anomalies();
        assert_eq!(
            msgs.iter().filter(|m| m.contains("SWAPCODES_FUEL")).count(),
            1,
            "repeated reads surface one anomaly: {msgs:?}"
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("SWAPCODES_SHARD_TIMEOUT_MS"))
                .count(),
            1,
            "timeout parse error is surfaced: {msgs:?}"
        );
        // Once surfaced (and drained), the same variable never queues again.
        assert_eq!(fuel_from_env(), None);
        assert!(take_env_anomalies()
            .iter()
            .all(|m| !m.contains("SWAPCODES_FUEL")));

        // Zero is rejected as malformed (surfaced), not treated as unset.
        std::env::set_var("SWAPCODES_SNAPSHOT_INTERVAL", "0");
        assert_eq!(snapshot_interval_from_env(), None);
        std::env::remove_var("SWAPCODES_SNAPSHOT_INTERVAL");
        let msgs = take_env_anomalies();
        assert!(
            msgs.iter()
                .any(|m| m.contains("SWAPCODES_SNAPSHOT_INTERVAL") && m.contains("positive")),
            "zero must be surfaced, not silently treated as unset: {msgs:?}"
        );
    }

    #[test]
    fn contain_succeeds_after_reseeded_retry() {
        let out = contain(3, |salt| {
            assert!(salt >= 2, "flaky below salt 2");
            salt
        });
        assert_eq!(out, Ok(2));
    }

    #[test]
    fn contain_reports_last_panic() {
        let out: Result<(), String> = contain(2, |salt| panic!("boom {salt}"));
        assert_eq!(out, Err("boom 1".to_owned()));
    }

    /// Per-class tallies with a distinct value in most buckets (80 trials).
    fn sample_classes() -> FaultClassTallies {
        FaultClassTallies {
            transient: ArchOutcomes {
                trap: 1,
                due: 2,
                crash: 3,
                hang: 4,
                masked: 5,
                sdc: 6,
                recovered_correct: 7,
                recovered_replay: 8,
                recovered_relaunch: 9,
                miscorrected: 1,
            },
            control: ArchOutcomes {
                hang: 17,
                sdc: 2,
                ..ArchOutcomes::default()
            },
            stuck_at: ArchOutcomes {
                due: 11,
                masked: 4,
                ..ArchOutcomes::default()
            },
        }
    }

    #[test]
    fn flat_json_roundtrips() {
        let classes = sample_classes();
        let engine = CampaignOptions::default().engine_tag();
        let id = test_id(engine, "t1c1s1", 0, 100);
        let progress = Progress {
            cursor: 80,
            classes,
        };
        let line = checkpoint_json(&id, &progress);
        let f = Json::parse(&line).expect("parses");
        let s = |k: &str| f.get(k).and_then(Json::as_str);
        let u = |k: &str| f.get(k).and_then(Json::as_u64);
        assert_eq!(s("engine"), Some(engine));
        assert_eq!(s("faultmix"), Some("t1c1s1"));
        assert_eq!(s("workload"), Some("bfs"));
        assert_eq!(s("scheme"), Some("Swap-ECC"));
        assert_eq!(u("cursor"), Some(80));
        // Aggregate fields merge the classes; per-class fields round-trip.
        assert_eq!(u("hang"), Some(21));
        assert_eq!(u("due"), Some(13));
        assert_eq!(u("t_rec_replay"), Some(8));
        assert_eq!(u("c_hang"), Some(17));
        assert_eq!(u("s_due"), Some(11));
        assert_eq!(u("miscorrected"), Some(1));
        assert_eq!(parse_outcome_fields(&f, "t_"), Some(classes.transient));
        assert_eq!(parse_outcome_fields(&f, "c_"), Some(classes.control));
        assert_eq!(parse_outcome_fields(&f, "s_"), Some(classes.stuck_at));
        assert_eq!(parse_outcome_fields(&f, ""), Some(classes.aggregate()));
        // The loader reads back exactly what the writer wrote.
        match load_line("roundtrip", &line, &id) {
            ArchCheckpoint::Resumable(back) => assert_eq!(back, progress),
            other => panic!("own checkpoint must resume, got {other:?}"),
        }
    }

    // Golden lines: each writer's exact bytes for fixed inputs. Files
    // already on disk hold these bytes, so a writer change that breaks one
    // of these tests can also break resuming them.

    #[test]
    fn checkpoint_line_matches_golden() {
        let id = CheckpointId {
            seed: u64::MAX - 58,
            ..test_id("ff2p", "t2c1s1", 16, 116)
        };
        let progress = Progress {
            cursor: 96,
            classes: sample_classes(),
        };
        assert_eq!(
            checkpoint_json(&id, &progress),
            concat!(
                r#"{"campaign":"arch","engine":"ff2p","faultmix":"t2c1s1","#,
                r#""workload":"bfs","scheme":"Swap-ECC","seed":18446744073709551557,"#,
                r#""fuel":1000,"start":16,"end":116,"cursor":96,"#,
                r#""trap":1,"due":13,"crash":3,"hang":21,"masked":9,"sdc":8,"rec_correct":7,"#,
                r#""rec_replay":8,"rec_relaunch":9,"miscorrected":1,"#,
                r#""t_trap":1,"t_due":2,"t_crash":3,"t_hang":4,"t_masked":5,"t_sdc":6,"#,
                r#""t_rec_correct":7,"t_rec_replay":8,"t_rec_relaunch":9,"t_miscorrected":1,"#,
                r#""c_trap":0,"c_due":0,"c_crash":0,"c_hang":17,"c_masked":0,"c_sdc":2,"#,
                r#""c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"#,
                r#""s_trap":0,"s_due":11,"s_crash":0,"s_hang":0,"s_masked":4,"s_sdc":0,"#,
                r#""s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0}"#,
            )
        );
    }

    #[test]
    fn anomaly_line_matches_golden_and_reads_back() {
        let dir =
            std::env::temp_dir().join(format!("swapcodes-harness-golden-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let tag = "j7-fp \"fma\"-s2";
        let msg = "index 7 out of range\n\tat\r \\ \u{1}\u{1f} \u{e9}";
        AnomalyLog::for_shard(Some(&dir), tag).record(tag, 41, 3, msg);
        let text = fs::read_to_string(dir.join(format!("anomalies-{}.jsonl", slug(tag))))
            .expect("log exists");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            text,
            concat!(
                r#"{"campaign":"j7-fp \"fma\"-s2","item":41,"retries":3,"#,
                r#""panic":"index 7 out of range\n\tat\r \\ \u0001\u001f é"}"#,
                "\n"
            )
        );
        // What the log writes, it reads back: control characters included.
        let line = Json::parse(&text).expect("the line parses");
        assert_eq!(line.get("panic").and_then(Json::as_str), Some(msg));
        assert_eq!(line.get("campaign").and_then(Json::as_str), Some(tag));
    }

    fn masked_classes(n: u64) -> FaultClassTallies {
        FaultClassTallies {
            transient: ArchOutcomes {
                masked: n,
                ..ArchOutcomes::default()
            },
            ..FaultClassTallies::default()
        }
    }

    /// The identity every checkpoint test starts from: `bfs` under
    /// Swap-ECC, seed 9, fuel 1000, trials `[start, end)`.
    fn test_id(engine: &'static str, mix: &str, start: u64, end: u64) -> CheckpointId {
        CheckpointId {
            engine,
            mix: mix.to_owned(),
            workload: "bfs",
            scheme: "Swap-ECC".to_owned(),
            seed: 9,
            fuel: 1000,
            start,
            end,
        }
    }

    /// A checkpoint of `id` three trials past its start, all masked.
    fn three_done(id: &CheckpointId) -> String {
        checkpoint_json(
            id,
            &Progress {
                cursor: id.start + 3,
                classes: masked_classes(3),
            },
        )
    }

    /// Write `line` to a scratch file named after `tag` and load it
    /// against `id`.
    fn load_line(tag: &str, line: &str, id: &CheckpointId) -> ArchCheckpoint {
        let path = std::env::temp_dir().join(format!(
            "swapcodes-harness-{tag}-{}.ckpt.json",
            std::process::id()
        ));
        write_atomic(&path, line).expect("write");
        let loaded = load_checkpoint(&path, id);
        let _ = fs::remove_file(&path);
        loaded
    }

    #[test]
    fn range_mismatch_or_torn_file_rejects_checkpoint() {
        let engine = CampaignOptions::default().engine_tag();
        // A shard adopts only a checkpoint of exactly its own range...
        let shard = test_id(engine, "t1c0s0", 16, 32);
        let line = three_done(&shard);
        assert!(matches!(
            load_line("range", &line, &shard),
            ArchCheckpoint::Resumable(Progress { cursor: 19, .. })
        ));
        for (start, end) in [(0, 40), (0, 32), (16, 40), (17, 32)] {
            let other = test_id(engine, "t1c0s0", start, end);
            assert!(
                matches!(load_line("range", &line, &other), ArchCheckpoint::Mismatch),
                "range [{start}, {end}) adopted a [16, 32) checkpoint"
            );
        }
        // ...and never a torn file or one whose aggregate disagrees with
        // its class buckets.
        let torn = &line[..line.len() / 2];
        assert!(matches!(
            load_line("range", torn, &shard),
            ArchCheckpoint::Mismatch
        ));
        let skewed = line.replacen("\"masked\":3,", "\"masked\":2,", 1);
        assert_ne!(skewed, line, "the aggregate field was rewritten");
        assert!(matches!(
            load_line("range", &skewed, &shard),
            ArchCheckpoint::Mismatch
        ));
    }

    #[test]
    fn engine_mismatch_is_stale_not_ignored() {
        // A checkpoint written by the pre-fast-forward code has no engine
        // field at all; one written by a future engine has a different tag.
        // Both describe *this* campaign, so both must surface as StaleEngine
        // rather than being silently ignored or resumed.
        let engine = CampaignOptions::default().engine_tag();
        let id = test_id(engine, "t1c0s0", 0, 40);
        let untagged = three_done(&id).replace(&format!("\"engine\":\"{engine}\","), "");
        match load_line("engine", &untagged, &id) {
            ArchCheckpoint::StaleEngine { found } => assert_eq!(found, ""),
            _ => panic!("untagged checkpoint must be stale"),
        }
        // The same holds for a shard range written by another engine.
        let shard = test_id(engine, "t1c0s0", 16, 32);
        let other = test_id("ff1p", "t1c0s0", 16, 32);
        match load_line("engine", &three_done(&other), &shard) {
            ArchCheckpoint::StaleEngine { found } => assert_eq!(found, "ff1p"),
            other => panic!("shard engine mismatch must be StaleEngine, got {other:?}"),
        }
    }

    #[test]
    fn fault_mix_mismatch_is_stale_not_ignored() {
        // Same campaign identity and engine, but the tallies were drawn
        // under a different class mix: per-trial draws differ, so the
        // checkpoint must be rejected loudly (not resumed, not silently
        // ignored). A pre-taxonomy checkpoint with no faultmix field at all
        // gets the same treatment.
        let engine = CampaignOptions::default().engine_tag();
        let line = three_done(&test_id(engine, "t1c1s1", 0, 40));
        let id = test_id(engine, "t1c0s0", 0, 40);
        match load_line("mix", &line, &id) {
            ArchCheckpoint::StaleFaultMix { found } => assert_eq!(found, "t1c1s1"),
            other => panic!("mix mismatch must be StaleFaultMix, got {other:?}"),
        }
        let unmixed = line.replace("\"faultmix\":\"t1c1s1\",", "");
        match load_line("mix", &unmixed, &id) {
            ArchCheckpoint::StaleFaultMix { found } => assert_eq!(found, ""),
            other => panic!("pre-taxonomy checkpoint must be StaleFaultMix, got {other:?}"),
        }
        // The same holds for a shard range drawn under another mix.
        let line = three_done(&test_id(engine, "t1c1s1", 16, 32));
        match load_line("mix", &line, &test_id(engine, "t1c0s0", 16, 32)) {
            ArchCheckpoint::StaleFaultMix { found } => assert_eq!(found, "t1c1s1"),
            other => panic!("shard mix mismatch must be StaleFaultMix, got {other:?}"),
        }
    }

    #[test]
    fn anomaly_log_rotates_at_cap_with_tail_marker() {
        let dir =
            std::env::temp_dir().join(format!("swapcodes-harness-rotate-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("anomalies-rotate.jsonl");
        let _ = fs::remove_file(&path);
        // Force a tiny cap by rotating manually around ordinary appends.
        let mut log = AnomalyLog::for_shard(Some(&dir), "rotate");
        let long_msg = "x".repeat(100);
        for i in 0..40u64 {
            log.record("rotate-test", i, 3, &long_msg);
            rotate_anomaly_log(&path, 2048);
        }
        let text = fs::read_to_string(&path).expect("log exists");
        assert!(
            text.len() <= 4096,
            "log stays bounded after rotation: {} bytes",
            text.len()
        );
        let first = text.lines().next().expect("non-empty");
        let f = Json::parse(first).expect("marker parses");
        assert_eq!(f.get("rotated"), Some(&Json::Bool(true)));
        let dropped = f
            .get("dropped")
            .and_then(Json::as_u64)
            .expect("dropped count");
        assert!(dropped > 0, "old lines were dropped");
        // The newest line always survives rotation.
        let last = text.lines().last().expect("non-empty");
        let lf = Json::parse(last).expect("tail line parses");
        assert_eq!(lf.get("item").and_then(Json::as_u64), Some(39));
        // Dropped + retained = everything ever logged.
        let retained = text.lines().count() as u64 - 1;
        assert_eq!(dropped + retained, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quotes_and_control_chars_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = Json::parse("{\"panic\":\"index \\\"x\\\" out of range\"}").expect("parses");
        assert_eq!(
            f.get("panic").and_then(Json::as_str),
            Some("index \"x\" out of range")
        );
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let path = std::env::temp_dir().join(format!(
            "swapcodes-harness-atomic-{}.json",
            std::process::id()
        ));
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("overwrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "second");
        let _ = fs::remove_file(&path);
    }
}
