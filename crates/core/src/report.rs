//! Static transformation reports: what a protection pass did to a kernel,
//! before anything executes (the static counterpart of the Fig. 13 dynamic
//! profile).

use swapcodes_isa::{Kernel, Role};
use swapcodes_sim::Launch;

use crate::scheme::{Scheme, TransformError};

/// Static summary of one scheme application.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Human-readable scheme label.
    pub scheme: String,
    /// Static instruction count before the pass.
    pub instructions_before: usize,
    /// Static instruction count after the pass.
    pub instructions_after: usize,
    /// Architectural registers per thread before.
    pub registers_before: u32,
    /// Architectural registers per thread after (the occupancy driver).
    pub registers_after: u32,
    /// Original-program instructions surviving in the output.
    pub originals: usize,
    /// Shadow copies inserted.
    pub shadows: usize,
    /// Explicit checking instructions inserted.
    pub checks: usize,
    /// Other compiler-inserted instructions.
    pub compiler_inserted: usize,
    /// Instructions covered by hardware check-bit prediction (including
    /// propagated moves).
    pub predicted: usize,
    /// Threads per CTA after the pass (doubled by inter-thread duplication).
    pub threads_per_cta: u32,
}

impl TransformReport {
    /// Static code-size expansion factor.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.instructions_after as f64 / self.instructions_before.max(1) as f64
    }

    /// Register-pressure expansion factor.
    #[must_use]
    pub fn register_expansion(&self) -> f64 {
        f64::from(self.registers_after) / f64::from(self.registers_before.max(1))
    }
}

impl std::fmt::Display for TransformReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} -> {} instructions ({:.2}x), {} -> {} registers ({:.2}x)",
            self.scheme,
            self.instructions_before,
            self.instructions_after,
            self.expansion(),
            self.registers_before,
            self.registers_after,
            self.register_expansion(),
        )?;
        write!(
            f,
            "  originals {} | shadows {} | checks {} | compiler {} | predicted {}",
            self.originals, self.shadows, self.checks, self.compiler_inserted, self.predicted
        )
    }
}

/// Apply `scheme` and summarise what it did.
///
/// # Errors
///
/// Propagates [`TransformError`] for inapplicable schemes.
pub fn report(
    scheme: Scheme,
    kernel: &Kernel,
    launch: Launch,
) -> Result<TransformReport, TransformError> {
    let t = scheme.apply(kernel, launch)?;
    let mut r = TransformReport {
        scheme: scheme.label(),
        instructions_before: kernel.len(),
        instructions_after: t.kernel.len(),
        registers_before: kernel.register_count(),
        registers_after: t.kernel.register_count(),
        originals: 0,
        shadows: 0,
        checks: 0,
        compiler_inserted: 0,
        predicted: 0,
        threads_per_cta: t.launch.threads_per_cta,
    };
    for i in t.kernel.instrs() {
        match i.role {
            Role::Original => r.originals += 1,
            Role::Shadow => r.shadows += 1,
            Role::Check => r.checks += 1,
            Role::CompilerInserted => r.compiler_inserted += 1,
        }
        if i.predicted {
            r.predicted += 1;
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorSet;
    use swapcodes_isa::{KernelBuilder, Op, Reg, Src};

    fn sample() -> (Kernel, Launch) {
        let mut k = KernelBuilder::new("s");
        k.push(Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(1),
        });
        k.push(Op::FFma {
            d: Reg(2),
            a: Reg(0),
            b: Reg(1),
            c: Reg(3),
        });
        k.push(Op::St {
            space: swapcodes_isa::MemSpace::Global,
            addr: Reg(0),
            offset: 0,
            v: Reg(2),
            width: swapcodes_isa::MemWidth::W32,
        });
        k.push(Op::Exit);
        (k.finish(), Launch::grid(1, 32))
    }

    #[test]
    fn swdup_report_shows_all_cost_sources() {
        let (k, l) = sample();
        let r = report(Scheme::SwDup, &k, l).expect("applies");
        assert_eq!(r.shadows, 2);
        assert!(r.checks >= 4, "two checked registers before the store");
        assert!(r.register_expansion() >= 1.5);
        assert!(r.expansion() > 2.0);
    }

    #[test]
    fn swapecc_report_has_no_checks_or_register_growth() {
        let (k, l) = sample();
        let r = report(Scheme::SwapEcc, &k, l).expect("applies");
        assert_eq!(r.checks, 0);
        assert_eq!(r.shadows, 2);
        assert_eq!(r.registers_after, r.registers_before);
    }

    #[test]
    fn predict_report_counts_predicted() {
        let (k, l) = sample();
        let r = report(Scheme::SwapPredict(PredictorSet::ADD_SUB), &k, l).expect("applies");
        assert_eq!(r.predicted, 1, "the IADD is predicted");
        assert_eq!(r.shadows, 1, "only the FFMA keeps a shadow");
    }

    #[test]
    fn interthread_report_doubles_threads() {
        let (k, l) = sample();
        let r = report(Scheme::InterThread { checked: true }, &k, l).expect("applies");
        assert_eq!(r.threads_per_cta, 64);
        assert!(r.checks > 0);
    }

    #[test]
    fn display_is_informative() {
        let (k, l) = sample();
        let r = report(Scheme::SwDup, &k, l).expect("applies");
        let text = r.to_string();
        assert!(text.contains("SW-Dup"));
        assert!(text.contains("shadows 2"));
    }
}
