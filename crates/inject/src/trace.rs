//! Operand tracing from the workload suite — the stand-in for the paper's
//! SASSI arithmetic value tracer ("trace only the Rodinia programs, ...
//! halt after 100,000 instructions", §IV-A).

use std::collections::HashMap;

use swapcodes_gates::units::UnitKind;
use swapcodes_sim::operand_pass;
use swapcodes_sim::profiler::{OperandTrace, TracedUnit};
use swapcodes_workloads::Workload;

/// CTAs traced per workload.
const TRACED_CTAS: u32 = 2;

/// Gather operand streams per arithmetic unit by functionally executing the
/// given workloads with value tracing enabled.
///
/// Each workload runs fault-free over its first two CTAs on the campaign
/// engine's exact-step core ([`operand_pass`]), which samples as the
/// reference `Executor` does with `ExecConfig::trace_operands` set (the
/// `Executor` is its differential oracle). Each workload's streams are
/// capped at `cap_per_unit` tuples, then merged in suite order under the
/// same cap; tracing executes at most `max_dynamic` warp-instructions per
/// workload, keeping what it recorded before that cut (mirroring the
/// paper's trace-size bounds).
#[must_use]
pub fn workload_operand_streams(
    workloads: &[Workload],
    cap_per_unit: usize,
    max_dynamic: u64,
) -> HashMap<UnitKind, Vec<[u64; 3]>> {
    let mut merged = OperandTrace::with_cap(cap_per_unit);
    for w in workloads {
        let mut mem = w.build_memory();
        let streams = operand_pass(
            &w.kernel,
            w.launch,
            &mut mem,
            TRACED_CTAS,
            max_dynamic,
            cap_per_unit,
        )
        .expect("operand tracing runs fault-free");
        merged.merge(&streams);
    }
    let map_unit = |t: TracedUnit| match t {
        TracedUnit::FxpAdd32 => UnitKind::FxpAdd32,
        TracedUnit::FxpMad32 => UnitKind::FxpMad32,
        TracedUnit::FpAdd32 => UnitKind::FpAdd32,
        TracedUnit::FpFma32 => UnitKind::FpFma32,
        TracedUnit::FpAdd64 => UnitKind::FpAdd64,
        TracedUnit::FpFma64 => UnitKind::FpFma64,
    };
    TracedUnit::all()
        .into_iter()
        .map(|t| (map_unit(t), merged.stream(t).to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcodes_isa::{KernelBuilder, Op, Reg, SpecialReg, Src};
    use swapcodes_sim::Launch;
    use swapcodes_workloads::all;

    #[test]
    fn every_unit_gets_a_stream_from_the_suite() {
        let streams = workload_operand_streams(&all(), 500, 200_000);
        for (unit, tuples) in &streams {
            assert!(
                !tuples.is_empty(),
                "no traced operands for {unit:?} — a workload should exercise it"
            );
        }
        // FP64 comes from the SNAP-like sweep.
        assert!(!streams[&UnitKind::FpFma64].is_empty());
    }

    /// One warp: `FADD` then `FFMA` over `TidX + base` as an `f32`.
    fn fma_workload(name: &'static str, base: i32) -> Workload {
        let mut b = KernelBuilder::new(name);
        b.push(Op::S2R {
            d: Reg(1),
            sr: SpecialReg::TidX,
        });
        b.push(Op::IAdd {
            d: Reg(1),
            a: Reg(1),
            b: Src::Imm(base),
        });
        b.push(Op::I2F {
            d: Reg(2),
            a: Reg(1),
        });
        b.push(Op::FAdd {
            d: Reg(3),
            a: Reg(2),
            b: Src::Reg(Reg(2)),
        });
        b.push(Op::FFma {
            d: Reg(3),
            a: Reg(2),
            b: Reg(2),
            c: Reg(2),
        });
        b.push(Op::Exit);
        Workload {
            name,
            kernel: b.finish(),
            launch: Launch::grid(1, 32),
            mem_bytes: 4,
            init: |_| {},
            output: (0, 1),
        }
    }

    #[test]
    fn streams_are_capped_per_workload_then_merged_in_suite_order() {
        let f = |v: i32| u64::from((v as f32).to_bits());
        let suite = [fma_workload("first", 0), fma_workload("second", 100)];
        let streams = workload_operand_streams(&suite, 40, 200_000);
        // 32 lanes of the first workload's FMA, then 8 of the second's.
        let fma: Vec<_> = (0..32).chain(100..108).map(|v| [f(v); 3]).collect();
        assert_eq!(streams[&UnitKind::FpFma32], fma);
        assert_eq!(
            streams[&UnitKind::FpAdd32],
            [[f(0), f(0), 0], [f(100), f(100), 0]]
        );
        assert_eq!(streams[&UnitKind::FxpAdd32], [[0, 0, 0], [0, 100, 0]]);
        assert!(streams[&UnitKind::FpFma64].is_empty());
        // Each workload alone stops at the cap, and the merge keeps its cap.
        let one = workload_operand_streams(&suite[1..], 5, 200_000);
        assert_eq!(one[&UnitKind::FpFma32], fma[32..37]);
    }
}
