//! Fault-injection campaigns: the reproduction of the paper's Hamartia
//! gate-level methodology (§IV-A/B) plus architecture-level end-to-end
//! injection on the SM simulator.
//!
//! * [`gate`] — single-event injection into the pipelined arithmetic units:
//!   for every traced input tuple, flip random gate/flip-flop outputs until
//!   one corrupts the unit output, then record the golden/faulty pair
//!   (Fig. 10's error patterns);
//! * [`detection`] — evaluate each recorded error against every register-file
//!   code through the swapped-codeword predicates (Fig. 11's SDC risk);
//! * [`arch`] — whole-program injection: corrupt one dynamic instruction of
//!   a protected workload and observe trap/DUE/crash/hang/masked/SDC at the
//!   output, under a fueled executor that cannot hang the host;
//! * [`oracle`] — the differential oracle pitting the static protection
//!   verifier against dynamic injection over the same transformed kernel;
//! * [`harness`] — panic containment, anomaly logging and the one
//!   crash-safe checkpointed driver, which runs a shard of an arch
//!   campaign for the campaign service;
//! * [`stats`] — Wilson 95% binomial confidence intervals (the error bars of
//!   Figs. 10–11);
//! * [`trace`] — operand capture from the workload suite, standing in for
//!   the paper's SASSI-based value tracer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod detection;
pub mod gate;
pub mod harness;
pub mod oracle;
pub mod recovery;
pub mod stats;
pub mod trace;

pub use arch::{
    arch_campaign, ArchCampaign, ArchOutcomes, CampaignOptions, CellConfig, FaultClassTallies,
    FaultMix, PrepError, PreparedCell, RecoveredTrial, TrialOutcome, TrialTelemetry,
};
pub use detection::{sdc_risk, DetectionTally};
pub use gate::{
    default_thread_count, run_unit_campaign, run_unit_campaign_reference, CampaignConfig,
    InputOutcome, PatternCounts, UnitCampaignResult,
};
pub use harness::{
    checkpoint_dir_from_env, contain, fault_mix_from_env, fuel_from_env,
    run_arch_shard_checkpointed, serve_workers_from_env, shard_timeout_ms_from_env, slug,
    snapshot_interval_from_env, take_env_anomalies, threads_from_env, write_atomic, AnomalyLog,
    CheckpointConfig, ShardControl, ShardEvent, ShardRun, ShardSpec, ANOMALY_LOG_CAP_BYTES,
};
pub use oracle::{
    avf_calibration, campaign_avf, control_fault_gap, differential_oracle, recovery_oracle,
    AvfCalibrationVerdict, AvfCell, ControlGapVerdict, OracleVerdict, RecoveryVerdict,
};
pub use recovery::{run_recovery_campaign, RecoveryCampaignConfig, RecoveryCell};
pub use stats::Proportion;
pub use trace::workload_operand_streams;
