//! The campaign board: authoritative in-memory state of every job, cell
//! and shard, plus the merge-on-read result views.
//!
//! The board is also the service's work queue: workers lease `Queued`
//! shards off it and commit per-trial deltas to it themselves, under the
//! service's one board lock; readers (`status`/`results` endpoints) merge
//! shard tallies on demand. Every commit is attempt-guarded: a delta
//! stamped with an attempt the board has moved past (a zombie worker whose
//! shard was requeued) is dropped, so a lost-and-replaced worker can never
//! double-count. Dropping zombie deltas is also what keeps the final merge
//! byte-identical to a serial run — the replacement attempt re-runs the
//! same pure trials from the checkpointed trusted prefix.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use swapcodes_core::Scheme;
use swapcodes_inject::stats::Proportion;
use swapcodes_inject::{slug, ArchOutcomes, FaultClassTallies, ShardSpec};
use swapcodes_sim::CancelToken;

use crate::spec::CampaignSpec;
use swapcodes_json::escape;

/// Lifecycle of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Waiting for a worker to lease it, once `ready_at_ms` has passed.
    Queued,
    /// Leased to a worker.
    Running,
    /// All trials tallied; `classes` is authoritative.
    Done,
    /// Retry budget exhausted; the cell degrades rather than wedging the
    /// campaign.
    Failed,
}

impl ShardStatus {
    /// Lowercase wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardStatus::Queued => "queued",
            ShardStatus::Running => "running",
            ShardStatus::Done => "done",
            ShardStatus::Failed => "failed",
        }
    }
}

/// The liveness contract between a leased shard and the monitor thread.
#[derive(Debug, Clone)]
pub struct Lease {
    /// Milliseconds since service epoch of the worker's last progress
    /// signal (bumped on every shard event).
    pub beat: Arc<AtomicU64>,
    /// Set by the monitor to tell the (possibly zombie) worker to abandon
    /// the shard at its next event boundary.
    pub abandon: Arc<AtomicBool>,
    /// Max silence between beats before the worker is declared lost. One
    /// trial is fuel-bounded, so a healthy worker always beats within this
    /// window.
    pub beat_window_ms: u64,
    /// Absolute wall-clock deadline (ms since epoch) for the whole attempt.
    pub deadline_ms: u64,
}

/// One shard of one cell.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Identity + trial range; the tag keys the on-disk checkpoint.
    pub spec: ShardSpec,
    /// Lifecycle state.
    pub status: ShardStatus,
    /// The attempt the board currently recognizes. Commits stamped with
    /// any other attempt are stale and dropped.
    pub attempt: u32,
    /// Attempts that ended in loss/failure (for the retry budget).
    pub failures: u32,
    /// Retry backoff: while `Queued`, no worker leases the shard before
    /// this time, in ms since service epoch (`0` until a retry).
    pub ready_at_ms: u64,
    /// When the monitor declared the last attempt lost, in ms since service
    /// epoch; the lease that replaces it takes this to time the recovery.
    pub lost_at_ms: Option<u64>,
    /// Live tallies for the current attempt (authoritative once `Done`).
    pub classes: FaultClassTallies,
    /// One past the last tallied trial of the current attempt.
    pub cursor: u64,
    /// Liveness contract while `Running`.
    pub lease: Option<Lease>,
    /// Why the most recent attempt failed, for the status document.
    pub last_error: Option<String>,
}

impl Shard {
    /// Trials tallied so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.cursor - self.spec.start
    }
}

/// One (workload × scheme) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Protection scheme.
    pub scheme: Scheme,
    /// The cell's shards, in trial order.
    pub shards: Vec<Shard>,
}

impl Cell {
    /// Merge-on-read over the cell's shards: per-class tallies and the
    /// number of trials they cover.
    #[must_use]
    pub fn merged(&self) -> (FaultClassTallies, u64) {
        let mut classes = FaultClassTallies::default();
        let mut completed = 0;
        for s in &self.shards {
            classes.merge(&s.classes);
            completed += s.completed();
        }
        (classes, completed)
    }

    /// Cell-level status label, derived from the shards.
    #[must_use]
    pub fn status(&self) -> &'static str {
        if self.shards.iter().all(|s| s.status == ShardStatus::Done) {
            "done"
        } else if self
            .shards
            .iter()
            .all(|s| matches!(s.status, ShardStatus::Done | ShardStatus::Failed))
        {
            if self.shards.iter().any(|s| s.status == ShardStatus::Done) {
                "degraded"
            } else {
                "failed"
            }
        } else {
            "running"
        }
    }
}

/// Terminal and live job states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Shards queued or running.
    Running,
    /// Every shard done.
    Completed,
    /// Every shard settled, at least one failed.
    Degraded,
    /// Cancelled by the tenant.
    Cancelled,
}

impl JobState {
    /// Lowercase wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Degraded => "degraded",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One submitted campaign.
#[derive(Debug, Clone)]
pub struct Job {
    /// Service-assigned id.
    pub id: u64,
    /// The validated spec.
    pub spec: CampaignSpec,
    /// The (workload × scheme) matrix, row-major.
    pub cells: Vec<Cell>,
    /// Lifecycle state.
    pub state: JobState,
    /// Cancels every running shard of this job at its next issue boundary.
    pub cancel: CancelToken,
    /// Shard attempts requeued after loss, deadline or failure.
    pub requeues: u64,
}

impl Job {
    /// Build the board entry for a validated spec: one cell per matrix
    /// entry, one shard per trial range, everything `Queued`.
    #[must_use]
    pub fn new(id: u64, spec: CampaignSpec) -> Self {
        let ranges = spec.shard_ranges();
        let cells = spec
            .cells()
            .into_iter()
            .map(|(workload, scheme)| Cell {
                shards: ranges
                    .iter()
                    .enumerate()
                    .map(|(i, &(start, end))| Shard {
                        spec: ShardSpec {
                            tag: format!(
                                "j{id}-{}-{}-s{i}",
                                slug(&workload),
                                slug(&scheme.label())
                            ),
                            start,
                            end,
                        },
                        status: ShardStatus::Queued,
                        attempt: 0,
                        failures: 0,
                        ready_at_ms: 0,
                        lost_at_ms: None,
                        classes: FaultClassTallies::default(),
                        cursor: start,
                        lease: None,
                        last_error: None,
                    })
                    .collect(),
                workload: workload.clone(),
                scheme,
            })
            .collect();
        Self {
            id,
            spec,
            cells,
            state: JobState::Running,
            cancel: CancelToken::new(),
            requeues: 0,
        }
    }

    /// Recompute the job state after a shard settled. Cancelled is sticky.
    pub fn settle(&mut self) {
        if self.state == JobState::Cancelled {
            return;
        }
        let mut any_failed = false;
        for cell in &self.cells {
            for shard in &cell.shards {
                match shard.status {
                    ShardStatus::Queued | ShardStatus::Running => {
                        self.state = JobState::Running;
                        return;
                    }
                    ShardStatus::Failed => any_failed = true,
                    ShardStatus::Done => {}
                }
            }
        }
        self.state = if any_failed {
            JobState::Degraded
        } else {
            JobState::Completed
        };
    }

    /// Whether every shard has settled (done or failed).
    #[must_use]
    pub fn is_settled(&self) -> bool {
        !matches!(self.state, JobState::Running)
    }

    /// Trials tallied across the whole job.
    #[must_use]
    pub fn completed_trials(&self) -> u64 {
        self.cells.iter().map(|c| c.merged().1).sum()
    }

    /// Total trials the job will run.
    #[must_use]
    pub fn total_trials(&self) -> u64 {
        self.spec.trials * self.cells.len() as u64
    }

    /// The status document for `GET /jobs/<id>`.
    #[must_use]
    pub fn status_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|cell| {
                let shards: Vec<String> = cell
                    .shards
                    .iter()
                    .map(|s| {
                        let err = s.last_error.as_ref().map_or_else(
                            || "null".to_owned(),
                            |e| format!("\"{}\"", escape(e)),
                        );
                        format!(
                            "{{\"tag\":\"{}\",\"start\":{},\"end\":{},\"status\":\"{}\",\
                             \"attempt\":{},\"failures\":{},\"completed\":{},\"last_error\":{err}}}",
                            escape(&s.spec.tag),
                            s.spec.start,
                            s.spec.end,
                            s.status.label(),
                            s.attempt,
                            s.failures,
                            s.completed()
                        )
                    })
                    .collect();
                let (_, completed) = cell.merged();
                format!(
                    "{{\"workload\":\"{}\",\"scheme\":\"{}\",\"status\":\"{}\",\
                     \"completed\":{completed},\"trials\":{},\"shards\":[{}]}}",
                    escape(&cell.workload),
                    escape(&cell.scheme.label()),
                    cell.status(),
                    self.spec.trials,
                    shards.join(",")
                )
            })
            .collect();
        format!(
            "{{\"job\":{},\"name\":\"{}\",\"state\":\"{}\",\"completed\":{},\
             \"total\":{},\"requeues\":{},\"cells\":[{}]}}",
            self.id,
            escape(&self.spec.name),
            self.state.label(),
            self.completed_trials(),
            self.total_trials(),
            self.requeues,
            cells.join(",")
        )
    }

    /// The merged-results document for `GET /jobs/<id>/results`: per-cell
    /// per-class outcome buckets plus live Wilson-interval coverage.
    #[must_use]
    pub fn results_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|cell| {
                let (classes, completed) = cell.merged();
                let buckets: Vec<String> = classes
                    .classes()
                    .iter()
                    .map(|(label, o)| format!("\"{label}\":{}", outcomes_json(o)))
                    .collect();
                let agg = classes.aggregate();
                format!(
                    "{{\"workload\":\"{}\",\"scheme\":\"{}\",\"status\":\"{}\",\
                     \"completed\":{completed},\"trials\":{},{},\
                     \"aggregate\":{},\"coverage\":{}}}",
                    escape(&cell.workload),
                    escape(&cell.scheme.label()),
                    cell.status(),
                    self.spec.trials,
                    buckets.join(","),
                    outcomes_json(&agg),
                    coverage_json(&agg)
                )
            })
            .collect();
        format!(
            "{{\"job\":{},\"name\":\"{}\",\"state\":\"{}\",\"mix\":\"{}\",\
             \"seed\":{},\"requeues\":{},\"cells\":[{}]}}",
            self.id,
            escape(&self.spec.name),
            self.state.label(),
            self.spec.mix_label(),
            self.spec.seed,
            self.requeues,
            cells.join(",")
        )
    }
}

/// One outcome tally as a JSON object.
#[must_use]
pub fn outcomes_json(o: &ArchOutcomes) -> String {
    format!(
        "{{\"trap\":{},\"due\":{},\"crash\":{},\"hang\":{},\"masked\":{},\
         \"sdc\":{},\"recovered\":{},\"miscorrected\":{},\"total\":{}}}",
        o.trap,
        o.due,
        o.crash,
        o.hang,
        o.masked,
        o.sdc,
        o.recovered(),
        o.miscorrected,
        o.total()
    )
}

/// Detection coverage with its Wilson 95% interval: detected over unmasked,
/// matching [`ArchOutcomes::coverage`].
#[must_use]
pub fn coverage_json(o: &ArchOutcomes) -> String {
    let detected = o.trap + o.due + o.crash + o.hang + o.recovered();
    let unmasked = detected + o.sdc + o.miscorrected;
    let p = Proportion::new(detected, unmasked);
    let (lo, hi) = p.wilson95();
    format!(
        "{{\"detected\":{detected},\"unmasked\":{unmasked},\
         \"point\":{:.6},\"wilson_lo\":{lo:.6},\"wilson_hi\":{hi:.6}}}",
        o.coverage()
    )
}

/// Every job the service knows about.
#[derive(Debug, Clone, Default)]
pub struct Board {
    /// Jobs, indexed by their position (ids are assigned monotonically but
    /// survive restarts, so position and id can differ).
    pub jobs: Vec<Job>,
}

impl Board {
    /// Find a job by its tenant-facing id.
    #[must_use]
    pub fn job_index(&self, id: u64) -> Option<usize> {
        self.jobs.iter().position(|j| j.id == id)
    }

    /// The one-line-per-job summary for `GET /jobs`.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let jobs: Vec<String> = self
            .jobs
            .iter()
            .map(|j| {
                format!(
                    "{{\"job\":{},\"name\":\"{}\",\"state\":\"{}\",\
                     \"completed\":{},\"total\":{}}}",
                    j.id,
                    escape(&j.spec.name),
                    j.state.label(),
                    j.completed_trials(),
                    j.total_trials()
                )
            })
            .collect();
        format!("{{\"jobs\":[{}]}}", jobs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"{"name":"t","workloads":["matmul"],"schemes":["swap-ecc","sw-dup"],
               "trials":100,"shard_trials":40}"#,
        )
        .expect("spec parses")
    }

    #[test]
    fn job_layout_matches_spec() {
        let job = Job::new(3, small_spec());
        assert_eq!(job.cells.len(), 2);
        for cell in &job.cells {
            assert_eq!(cell.shards.len(), 3);
            assert_eq!(cell.shards[2].spec.start, 80);
            assert_eq!(cell.shards[2].spec.end, 100);
        }
        assert_eq!(job.total_trials(), 200);
        // Tags are unique across the whole job.
        let mut tags: Vec<&str> = job
            .cells
            .iter()
            .flat_map(|c| c.shards.iter().map(|s| s.spec.tag.as_str()))
            .collect();
        tags.sort_unstable();
        let n = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), n);
    }

    #[test]
    fn settle_tracks_shard_states() {
        let mut job = Job::new(0, small_spec());
        job.settle();
        assert_eq!(job.state, JobState::Running);
        for cell in &mut job.cells {
            for shard in &mut cell.shards {
                shard.status = ShardStatus::Done;
            }
        }
        job.settle();
        assert_eq!(job.state, JobState::Completed);
        job.state = JobState::Running;
        job.cells[0].shards[0].status = ShardStatus::Failed;
        job.settle();
        assert_eq!(job.state, JobState::Degraded);
        assert_eq!(job.cells[0].status(), "degraded");
        assert_eq!(job.cells[1].status(), "done");
    }

    #[test]
    fn status_and_results_render_valid_shapes() {
        let job = Job::new(1, small_spec());
        let status = job.status_json();
        assert!(status.contains("\"state\":\"running\""));
        assert!(status.contains("\"shards\":["));
        let results = job.results_json();
        assert!(results.contains("\"coverage\":{"));
        assert!(results.contains("\"wilson_lo\""));
        // Both parse back through the crate's own JSON reader.
        swapcodes_json::Json::parse(&status).expect("status is valid JSON");
        swapcodes_json::Json::parse(&results).expect("results are valid JSON");
    }
}
