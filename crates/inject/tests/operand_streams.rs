//! Figs. 10–11's operand streams come from the campaign engine's operand
//! pass (`sim::snapshot::operand_pass`), and the reference `Executor`'s
//! `trace_operands` path is their oracle (DESIGN §15). For every suite
//! workload and every traced unit, the engine's stream must equal the
//! `Executor`'s, at the figures' setting (cap 10,000, 4,000,000 dynamic
//! instructions), at a cap of 37 that fills streams in the middle of a
//! warp-instruction's lanes, and at a 1,500-instruction cut that stops
//! CTAs mid-run. `workload_operand_streams`' suite merge must equal the
//! `Executor`'s streams merged in suite order under the same cap. At the
//! figures' setting the suite's stream sizes are pinned: two units stay
//! short of the cap under the sampling contract.

use swapcodes_gates::units::UnitKind;
use swapcodes_inject::trace::workload_operand_streams;
use swapcodes_sim::exec::{ExecConfig, Executor};
use swapcodes_sim::operand_pass;
use swapcodes_sim::profiler::{OperandTrace, TracedUnit};
use swapcodes_workloads::all;

/// `(cap per unit, max_dynamic)`.
const SETTINGS: [(usize, u64); 3] = [(10_000, 4_000_000), (37, 4_000_000), (10_000, 1_500)];

/// CTAs `workload_operand_streams` traces per workload.
const CTAS: u32 = 2;

/// The suite's tuples per unit at the figures' setting, which Figs. 10–11
/// inject on. FxpMad32 and FpAdd32 fall short of the 10,000 cap: only the
/// first executing lane of an `IMul` or `FAdd` is sampled, and no `IMad`
/// is (DESIGN §15). A change to the sampling moves both figures, so it
/// must change these counts on purpose.
const FIGURE_STREAM_LENS: [(UnitKind, usize); 6] = [
    (UnitKind::FxpAdd32, 10_000),
    (UnitKind::FxpMad32, 712),
    (UnitKind::FpAdd32, 800),
    (UnitKind::FpFma32, 10_000),
    (UnitKind::FpAdd64, 10_000),
    (UnitKind::FpFma64, 10_000),
];

fn unit_kind(t: TracedUnit) -> UnitKind {
    match t {
        TracedUnit::FxpAdd32 => UnitKind::FxpAdd32,
        TracedUnit::FxpMad32 => UnitKind::FxpMad32,
        TracedUnit::FpAdd32 => UnitKind::FpAdd32,
        TracedUnit::FpFma32 => UnitKind::FpFma32,
        TracedUnit::FpAdd64 => UnitKind::FpAdd64,
        TracedUnit::FpFma64 => UnitKind::FpFma64,
    }
}

#[test]
fn engine_operand_streams_equal_executor_streams() {
    let suite = all();
    assert_eq!(suite.len(), 15);
    for (cap, max_dynamic) in SETTINGS {
        let mut merged = OperandTrace::with_cap(cap);
        let mut cut = 0;
        for w in &suite {
            let what = format!("{} at cap {cap}, max_dynamic {max_dynamic}", w.name);
            let exec = Executor {
                config: ExecConfig {
                    trace_operands: true,
                    operand_cap: cap,
                    max_dynamic,
                    cta_limit: Some(CTAS),
                    ..ExecConfig::default()
                },
            };
            let mut ref_mem = w.build_memory();
            let reference = exec.run(&w.kernel, w.launch, &mut ref_mem).expect(&what);
            cut += usize::from(reference.truncated);
            let mut mem = w.build_memory();
            let engine =
                operand_pass(&w.kernel, w.launch, &mut mem, CTAS, max_dynamic, cap).expect(&what);
            for unit in TracedUnit::all() {
                assert_eq!(
                    engine.stream(unit),
                    reference.operands.stream(unit),
                    "{what}: {unit:?}"
                );
            }
            assert_eq!(mem.words(), ref_mem.words(), "{what}: final memory");
            merged.merge(&reference.operands);
        }
        let streams = workload_operand_streams(&suite, cap, max_dynamic);
        for unit in TracedUnit::all() {
            let what = format!("suite at cap {cap}, max_dynamic {max_dynamic}: {unit:?}");
            assert_eq!(streams[&unit_kind(unit)], merged.stream(unit), "{what}");
            assert!(!merged.stream(unit).is_empty(), "{what}: an empty stream");
        }
        if (cap, max_dynamic) == SETTINGS[0] {
            for (kind, len) in FIGURE_STREAM_LENS {
                assert_eq!(
                    streams[&kind].len(),
                    len,
                    "{kind:?} at the figures' setting"
                );
            }
        }
        if max_dynamic == 1_500 {
            assert!(cut >= 10, "the cut stops most workloads mid-run ({cut})");
        }
        if cap == 37 {
            assert!(merged.any_full());
        }
    }
}
