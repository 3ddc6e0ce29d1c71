//! Figure 10: severity and pattern of unmasked transient errors in the six
//! pipelined arithmetic units, from gate-level single-event injection over
//! operand streams traced from the workload suite (95% Wilson CIs).

use swapcodes_bench::{banner, campaign_inputs, Table};
use swapcodes_gates::units::{build_unit, UnitKind};
use swapcodes_inject::gate::{run_unit_campaign, CampaignConfig};
use swapcodes_inject::trace::workload_operand_streams;
use swapcodes_workloads::all;

fn main() {
    let n = campaign_inputs();
    banner(
        "Figure 10 — pipeline error patterns",
        "Per-unit distribution of erroneous output bits among unmasked \
         single-event errors (paper: single-bit errors dominate everywhere; \
         >=4-bit errors — the only SDC-risk category under SEC-DED — reach \
         ~25% only in the 64-bit floating-point units).",
    );
    println!(
        "  operand tuples per unit: at most {n}, traced from the workload suite; a \
         unit whose traced stream is shorter runs on fewer (the `inputs` column)\n"
    );

    let streams = workload_operand_streams(&all(), n, 4_000_000);
    let mut table = Table::new(vec![
        "unit", "inputs", "unmasked", "masking", "1 bit", "2-3 bits", ">=4 bits",
    ]);
    for kind in [
        UnitKind::FxpAdd32,
        UnitKind::FxpMad32,
        UnitKind::FpAdd32,
        UnitKind::FpFma32,
        UnitKind::FpAdd64,
        UnitKind::FpFma64,
    ] {
        let unit = build_unit(kind);
        let mut inputs = streams[&kind].clone();
        inputs.truncate(n);
        let res = run_unit_campaign(&unit, &inputs, &CampaignConfig::default());
        let p = res.patterns();
        table.row(vec![
            kind.label().to_owned(),
            inputs.len().to_string(),
            p.total().to_string(),
            format!("{:.0}%", res.masking_rate().point() * 100.0),
            p.one_bit_proportion().to_string(),
            p.two_three_proportion().to_string(),
            p.four_plus_proportion().to_string(),
        ]);
    }
    table.print();
}
