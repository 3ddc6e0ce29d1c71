//! Injection-as-a-service: a sharded, resumable, multi-tenant campaign
//! service over the SwapCodes fault-injection stack.
//!
//! A tenant submits a **campaign spec** — a (workload × scheme) matrix, a
//! fault-class mix, a trial count and a seed ([`spec`]). The service splits
//! every cell into **shard jobs** (contiguous trial ranges keyed by the
//! campaign's pure per-trial seeding) on a merge-on-read board ([`board`])
//! serving live Wilson-interval coverage. The board is also the work
//! queue: a supervised worker pool ([`service`]) leases queued shards off
//! it and commits each trial's tally to it, all under one lock.
//!
//! The supervisor treats workers as unreliable: per-shard fuel-derived
//! deadlines, heartbeat-based loss detection, bounded exponential-backoff
//! retries from each shard's checkpointed trusted prefix, and graceful
//! per-cell degradation when a shard's budget is exhausted. Because trials
//! are pure functions of `(seed, index)`, the merged results are
//! byte-identical to a single-threaded serial run no matter how many
//! workers were killed along the way — the property the chaos tests and
//! the CI acceptance gate pin down.
//!
//! [`http`] fronts the service with a dependency-free HTTP/JSON API; the
//! `swapcodes-serve` binary wraps both into a CLI
//! (`serve`/`submit`/`status`/`results`/`cancel`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod http;
pub mod service;
pub mod spec;

pub use board::{Board, Cell, Job, JobState, Lease, Shard, ShardStatus};
pub use service::{
    ChaosAction, ChaosConfig, Service, ServiceConfig, ServiceMetrics, SubmitError, STEPS_PER_MS,
};
pub use spec::{gate_kernel, parse_scheme, verify_gate, CampaignSpec, GateError, SpecError};
