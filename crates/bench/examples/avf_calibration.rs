//! AVF analyzer calibration campaign: predicted vs measured coverage per
//! (workload × scheme × fault class), written to `BENCH_avf.json`.
//!
//! For every cell of the reference 3×3 matrix the static vulnerability
//! analyzer ([`swapcodes_verify::avf`]) predicts the detected-given-unmasked
//! coverage of each fault class from liveness ACE windows, the SEC-DED
//! burst enumeration, and the calibrated control-exposure model; a fresh
//! mixed-class injection campaign then measures the same quantity. Each
//! cell's gate — prediction inside the measured 95% Wilson interval or
//! within the class's documented tolerance — is emitted as a `within` flag
//! the CI jq gate asserts.
//!
//! On the control gap's flagship cell (matmul × Swap-ECC) every measured
//! control-fault SDC escape is mapped through the golden issue log back to
//! its (PC, kind) strike site; the report's ranked site list must account
//! for ≥ 90% of them (here: all of them, since site exclusion is
//! provable-masking only).
//!
//! `SWAPCODES_FAST=1` shrinks trial counts for CI smoke runs.

use swapcodes_bench::fast_mode;
use swapcodes_inject::avf_calibration;

fn main() {
    let trials: u64 = if fast_mode() { 120 } else { 360 };
    let seed = 0xACE_CA1Bu64;

    let verdict = avf_calibration(trials, seed).expect("calibration matrix prepares");
    print!("{verdict}");

    assert!(
        verdict.escape_listed_fraction() >= 0.9,
        "ranked site report must attribute >=90% of measured control escapes \
         ({}/{} listed)",
        verdict.escapes_listed,
        verdict.escapes_total
    );

    let cells: Vec<String> = verdict
        .cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"class\": \"{}\", \
                 \"predicted\": {:.4}, \"measured\": {:.4}, \"detected\": {}, \
                 \"unmasked\": {}, \"wilson_lo\": {:.4}, \"wilson_hi\": {:.4}, \
                 \"tolerance\": {:.3}, \"within\": {}}}",
                c.workload,
                c.scheme,
                c.class,
                c.predicted,
                c.measured,
                c.detected,
                c.unmasked,
                c.wilson.0,
                c.wilson.1,
                c.tolerance,
                c.within()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"trials_per_cell\": {},\n  \"seed\": {},\n  \"cells\": [\n{}\n  ],\n  \
         \"escape_attribution\": {{\n    \"workload\": \"matmul\",\n    \"scheme\": \"Swap-ECC\",\n    \
         \"escapes_total\": {},\n    \"escapes_listed\": {},\n    \"listed_fraction\": {:.4}\n  }},\n  \
         \"totals\": {{\n    \"cells\": {},\n    \"cells_within\": {},\n    \"all_within\": {}\n  }}\n}}\n",
        verdict.trials_per_cell,
        seed,
        cells.join(",\n"),
        verdict.escapes_total,
        verdict.escapes_listed,
        verdict.escape_listed_fraction(),
        verdict.cells.len(),
        verdict.cells.iter().filter(|c| c.within()).count(),
        verdict.all_within(),
    );
    std::fs::write("BENCH_avf.json", &json).expect("write BENCH_avf.json");
    println!("\nwrote BENCH_avf.json");
    print!("{json}");

    assert!(
        verdict.all_within(),
        "every calibration cell must land within its gate"
    );
}
