//! Campaign specifications: what a tenant submits to the service.
//!
//! A spec is a JSON document naming a (workload × scheme) matrix, a
//! fault-class mix, a per-cell trial count and a seed:
//!
//! ```json
//! {
//!   "name": "nightly-sweep",
//!   "workloads": ["matmul", "kmeans"],
//!   "schemes": ["swap-ecc", "sw-dup"],
//!   "fault_mix": "all",
//!   "trials": 240,
//!   "seed": 7,
//!   "shard_trials": 60
//! }
//! ```
//!
//! Every cell's `trials` are split into shards of `shard_trials`
//! consecutive indices. Because trials are pure in `(seed, index)`, the
//! sharding is invisible in the results: any worker interleaving merges to
//! tallies byte-identical to a serial run.
//!
//! Submission is gated by the **static protection verifier**: a cell whose
//! transformed kernel is not statically clean is rejected up front with the
//! verifier's findings in the error body, instead of burning trial budget
//! on a scheme/workload pair known to leak.

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::FaultMix;
use swapcodes_workloads::by_name;

use swapcodes_json::{escape, Json};

/// Default per-cell trial count when the spec omits `trials`.
pub const DEFAULT_TRIALS: u64 = 240;
/// Default shard granularity when the spec omits `shard_trials`.
pub const DEFAULT_SHARD_TRIALS: u64 = 64;
/// Default campaign seed when the spec omits `seed`.
pub const DEFAULT_SEED: u64 = 0x5EED_C0DE;

/// A parsed, structurally-valid campaign spec (existence of the workloads
/// and cleanliness of the cells are checked separately by [`verify_gate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Human label for the job.
    pub name: String,
    /// Workload names (rows of the matrix).
    pub workloads: Vec<String>,
    /// Protection schemes (columns of the matrix).
    pub schemes: Vec<Scheme>,
    /// Fault-class sampling mix for every trial.
    pub mix: FaultMix,
    /// Trials per cell.
    pub trials: u64,
    /// Campaign seed (every per-trial draw derives from `(seed, index)`).
    pub seed: u64,
    /// Trials per shard.
    pub shard_trials: u64,
}

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The document is not JSON.
    BadJson(String),
    /// A required field is missing or has the wrong type.
    BadField(String),
    /// An unknown scheme label.
    UnknownScheme(String),
    /// The fault mix string did not parse.
    BadMix(String),
}

impl SpecError {
    /// Render as a structured HTTP error body.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (kind, detail) = match self {
            SpecError::BadJson(m) => ("bad_json", m.clone()),
            SpecError::BadField(m) => ("bad_field", m.clone()),
            SpecError::UnknownScheme(m) => ("unknown_scheme", m.clone()),
            SpecError::BadMix(m) => ("bad_fault_mix", m.clone()),
        };
        format!(
            "{{\"error\":\"{kind}\",\"detail\":\"{}\"}}",
            escape(&detail)
        )
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadJson(m) => write!(f, "spec is not JSON: {m}"),
            SpecError::BadField(m) => write!(f, "bad spec field: {m}"),
            SpecError::UnknownScheme(m) => write!(f, "unknown scheme: {m}"),
            SpecError::BadMix(m) => write!(f, "bad fault mix: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parse a scheme label. Accepts the paper's figure labels
/// (case-insensitively) and kebab-case aliases.
#[must_use]
pub fn parse_scheme(label: &str) -> Option<Scheme> {
    let norm: String = label
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    Some(match norm.as_str() {
        "original" | "baseline" => Scheme::Baseline,
        "swdup" => Scheme::SwDup,
        "swapecc" => Scheme::SwapEcc,
        "preaddsub" | "addsub" => Scheme::SwapPredict(PredictorSet::ADD_SUB),
        "premad" | "mad" => Scheme::SwapPredict(PredictorSet::MAD),
        "otherfxp" => Scheme::SwapPredict(PredictorSet::OTHER_FXP),
        "fpaddsub" => Scheme::SwapPredict(PredictorSet::FP_ADD_SUB),
        "fpmad" => Scheme::SwapPredict(PredictorSet::FP_MAD),
        "interthread" => Scheme::InterThread { checked: true },
        "interthreadnochecks" | "interthreadunchecked" => Scheme::InterThread { checked: false },
        _ => return None,
    })
}

impl CampaignSpec {
    /// Parse and structurally validate a spec document.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the first problem found.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = Json::parse(text).map_err(SpecError::BadJson)?;
        Self::from_json(&doc)
    }

    /// Build a spec from an already-parsed JSON value (e.g. the `"spec"`
    /// member of a persisted job file).
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the first problem found.
    pub fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("campaign")
            .to_owned();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError::BadField("workloads: required string array".to_owned()))?
            .iter()
            .map(|v| {
                v.as_str().map(str::to_owned).ok_or_else(|| {
                    SpecError::BadField("workloads: entries must be strings".to_owned())
                })
            })
            .collect::<Result<_, _>>()?;
        let schemes: Vec<Scheme> = doc
            .get("schemes")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError::BadField("schemes: required string array".to_owned()))?
            .iter()
            .map(|v| {
                let label = v.as_str().ok_or_else(|| {
                    SpecError::BadField("schemes: entries must be strings".to_owned())
                })?;
                parse_scheme(label).ok_or_else(|| SpecError::UnknownScheme(label.to_owned()))
            })
            .collect::<Result<_, _>>()?;
        if workloads.is_empty() || schemes.is_empty() {
            return Err(SpecError::BadField(
                "workloads and schemes must be non-empty".to_owned(),
            ));
        }
        let mix = match doc.get("fault_mix").map(|v| {
            v.as_str()
                .ok_or_else(|| SpecError::BadField("fault_mix: must be a string".to_owned()))
        }) {
            None => FaultMix::transient_only(),
            Some(v) => FaultMix::parse(v?).map_err(SpecError::BadMix)?,
        };
        let uint = |key: &str, default: u64| -> Result<u64, SpecError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| {
                    SpecError::BadField(format!("{key}: must be an unsigned integer"))
                }),
            }
        };
        let trials = uint("trials", DEFAULT_TRIALS)?;
        let seed = uint("seed", DEFAULT_SEED)?;
        let shard_trials = uint("shard_trials", DEFAULT_SHARD_TRIALS)?;
        if trials == 0 || shard_trials == 0 {
            return Err(SpecError::BadField(
                "trials and shard_trials must be positive".to_owned(),
            ));
        }
        Ok(Self {
            name,
            workloads,
            schemes,
            mix,
            trials,
            seed,
            shard_trials,
        })
    }

    /// Canonical JSON form — what the service persists for resume, and what
    /// `CampaignSpec::parse` round-trips.
    #[must_use]
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("\"{}\"", escape(w)))
            .collect();
        let schemes: Vec<String> = self
            .schemes
            .iter()
            .map(|s| format!("\"{}\"", escape(&s.label())))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"workloads\":[{}],\"schemes\":[{}],\
             \"fault_mix\":\"{}\",\"trials\":{},\"seed\":{},\"shard_trials\":{}}}",
            escape(&self.name),
            workloads.join(","),
            schemes.join(","),
            self.mix_label(),
            self.trials,
            self.seed,
            self.shard_trials
        )
    }

    /// The mix in the weighted form [`FaultMix::parse`] accepts.
    #[must_use]
    pub fn mix_label(&self) -> String {
        format!(
            "transient:{},control:{},stuckat:{}",
            self.mix.transient, self.mix.control, self.mix.stuck_at
        )
    }

    /// The (workload, scheme) cells of the matrix, row-major.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, Scheme)> {
        let mut out = Vec::with_capacity(self.workloads.len() * self.schemes.len());
        for w in &self.workloads {
            for s in &self.schemes {
                out.push((w.clone(), *s));
            }
        }
        out
    }

    /// The shard trial ranges `[start, end)` covering one cell.
    #[must_use]
    pub fn shard_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.trials {
            let end = (start + self.shard_trials).min(self.trials);
            out.push((start, end));
            start = end;
        }
        out
    }
}

/// Why [`verify_gate`] rejected a spec.
#[derive(Debug, Clone)]
pub enum GateError {
    /// No workload registered under this name.
    UnknownWorkload {
        /// The name the spec asked for.
        name: String,
    },
    /// The scheme cannot transform the workload at all (e.g. inter-thread
    /// duplication over a kernel that already uses shuffles).
    NotApplicable {
        /// The workload of the rejected cell.
        workload: String,
        /// The scheme of the rejected cell.
        scheme: Scheme,
        /// The transform error text.
        reason: String,
    },
    /// The transformed kernel failed static protection verification; the
    /// verifier's findings ride along for the HTTP error body.
    NotClean {
        /// The workload of the rejected cell.
        workload: String,
        /// The scheme of the rejected cell.
        scheme: Scheme,
        /// The full verifier report, already rendered as JSON.
        report_json: String,
        /// Number of findings.
        findings: usize,
    },
}

impl GateError {
    /// Render as a structured HTTP error body. For a non-clean cell the
    /// verifier's findings are embedded verbatim under `"report"`.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            GateError::UnknownWorkload { name } => format!(
                "{{\"error\":\"unknown_workload\",\"workload\":\"{}\"}}",
                escape(name)
            ),
            GateError::NotApplicable {
                workload,
                scheme,
                reason,
            } => format!(
                "{{\"error\":\"scheme_not_applicable\",\"workload\":\"{}\",\
                 \"scheme\":\"{}\",\"detail\":\"{}\"}}",
                escape(workload),
                escape(&scheme.label()),
                escape(reason)
            ),
            GateError::NotClean {
                workload,
                scheme,
                report_json,
                findings,
            } => format!(
                "{{\"error\":\"verify_rejected\",\"workload\":\"{}\",\
                 \"scheme\":\"{}\",\"findings\":{findings},\"report\":{report_json}}}",
                escape(workload),
                escape(&scheme.label()),
            ),
        }
    }
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::UnknownWorkload { name } => write!(f, "unknown workload \"{name}\""),
            GateError::NotApplicable {
                workload,
                scheme,
                reason,
            } => write!(
                f,
                "{} x {} is not applicable: {reason}",
                workload,
                scheme.label()
            ),
            GateError::NotClean {
                workload,
                scheme,
                findings,
                ..
            } => write!(
                f,
                "{} x {} fails static verification with {findings} finding(s)",
                workload,
                scheme.label()
            ),
        }
    }
}

impl std::error::Error for GateError {}

/// Statically gate one transformed kernel: the cell is admissible only if
/// the verifier proves it clean. Exposed (rather than buried in
/// [`verify_gate`]) so tests can feed hand-mutated kernels — every built-in
/// (workload, scheme) cell verifies clean, so the rejection path is only
/// reachable with a broken kernel.
///
/// # Errors
///
/// [`GateError::NotClean`] carrying the verifier report.
pub fn gate_kernel(
    workload_name: &str,
    scheme: Scheme,
    kernel: &swapcodes_isa::Kernel,
) -> Result<(), GateError> {
    let report = swapcodes_verify::verify(scheme, kernel);
    if report.is_clean() {
        Ok(())
    } else {
        Err(GateError::NotClean {
            workload: workload_name.to_owned(),
            scheme,
            findings: report.findings.len(),
            report_json: report.to_json(),
        })
    }
}

/// Validate every cell of a spec against the static protection verifier:
/// the workload must exist, the scheme must transform it, and the
/// transformed (and peepholed — what the campaign actually executes) kernel
/// must verify clean.
///
/// # Errors
///
/// The first failing cell's [`GateError`].
pub fn verify_gate(spec: &CampaignSpec) -> Result<(), GateError> {
    for (name, scheme) in spec.cells() {
        let w = by_name(&name).ok_or_else(|| GateError::UnknownWorkload { name: name.clone() })?;
        let t = swapcodes_core::apply(scheme, &w.kernel, w.launch).map_err(|e| {
            GateError::NotApplicable {
                workload: name.clone(),
                scheme,
                reason: e.to_string(),
            }
        })?;
        let (kernel, _) = swapcodes_core::peephole(&t.kernel);
        gate_kernel(&name, scheme, &kernel)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_canonical_json() {
        let spec = CampaignSpec::parse(
            r#"{"name":"t","workloads":["matmul"],"schemes":["Swap-ECC","sw-dup"],
               "fault_mix":"all","trials":120,"seed":9,"shard_trials":40}"#,
        )
        .expect("parses");
        assert_eq!(spec.schemes, vec![Scheme::SwapEcc, Scheme::SwDup]);
        assert_eq!(spec.shard_ranges(), vec![(0, 40), (40, 80), (80, 120)]);
        let again = CampaignSpec::parse(&spec.to_json()).expect("canonical form parses");
        assert_eq!(again, spec);
    }

    #[test]
    fn scheme_labels_cover_paper_figures() {
        for (label, want) in [
            ("Original", Scheme::Baseline),
            ("SW-Dup", Scheme::SwDup),
            ("swap-ecc", Scheme::SwapEcc),
            ("Pre AddSub", Scheme::SwapPredict(PredictorSet::ADD_SUB)),
            ("Pre MAD", Scheme::SwapPredict(PredictorSet::MAD)),
            ("Other FxP", Scheme::SwapPredict(PredictorSet::OTHER_FXP)),
            ("Fp-AddSub", Scheme::SwapPredict(PredictorSet::FP_ADD_SUB)),
            ("Fp-MAD", Scheme::SwapPredict(PredictorSet::FP_MAD)),
            ("Inter-Thread", Scheme::InterThread { checked: true }),
        ] {
            assert_eq!(parse_scheme(label), Some(want), "{label}");
            // Every emitted label must parse back to the same scheme.
            assert_eq!(parse_scheme(&want.label()), Some(want));
        }
        assert_eq!(parse_scheme("bogus"), None);
    }

    #[test]
    fn structural_errors_are_structured() {
        let bad = CampaignSpec::parse("{}").expect_err("missing fields");
        assert!(matches!(bad, SpecError::BadField(_)));
        assert!(bad.to_json().contains("\"error\":\"bad_field\""));
        let bad = CampaignSpec::parse(r#"{"workloads":["matmul"],"schemes":["nope"]}"#)
            .expect_err("unknown scheme");
        assert!(matches!(bad, SpecError::UnknownScheme(_)));
    }

    #[test]
    fn gate_rejects_unknown_workload_and_accepts_clean_cells() {
        let spec =
            CampaignSpec::parse(r#"{"workloads":["not-a-workload"],"schemes":["swap-ecc"]}"#)
                .expect("parses");
        assert!(matches!(
            verify_gate(&spec),
            Err(GateError::UnknownWorkload { .. })
        ));
        let spec = CampaignSpec::parse(
            r#"{"workloads":["matmul"],"schemes":["swap-ecc","sw-dup"],"trials":8}"#,
        )
        .expect("parses");
        verify_gate(&spec).expect("built-in cells verify clean");
    }
}
