//! The packed gate campaign must reproduce the one-site-at-a-time reference
//! (`run_unit_campaign_reference`) on the operand streams Figs. 10–11
//! inject: the first 512 traced tuples of every unit (128 under
//! `SWAPCODES_FAST=1`), two seeds, 1 and 2 worker threads, compared on
//! records, attempts and fully-masked inputs.
//!
//! Run it in release with
//! `cargo test --release -p swapcodes-bench --test gate_campaign_matches_reference`.

use swapcodes_bench::fast_mode;
use swapcodes_gates::units::all_units;
use swapcodes_inject::gate::{run_unit_campaign, run_unit_campaign_reference, CampaignConfig};
use swapcodes_inject::trace::workload_operand_streams;
use swapcodes_workloads::all;

#[test]
fn packed_campaign_equals_reference_on_figure_streams() {
    let tuples = if fast_mode() { 128 } else { 512 };
    let streams = workload_operand_streams(&all(), 10_000, 4_000_000);
    for unit in all_units() {
        let kind = unit.kind();
        let stream = &streams[&kind];
        assert!(stream.len() >= tuples, "{kind:?} traced too few tuples");
        let inputs = &stream[..tuples];
        for seed in [0x05AC_0DE5, 0xF1_6000] {
            let cfg = CampaignConfig {
                seed,
                ..CampaignConfig::default()
            };
            let reference = run_unit_campaign_reference(&unit, inputs, &cfg, 0);
            let records: Vec<_> = reference.iter().filter_map(|o| o.record).collect();
            let attempts: u64 = reference.iter().map(|o| o.attempts).sum();
            let masked = (reference.len() - records.len()) as u64;
            for threads in [1, 2] {
                let packed = run_unit_campaign(
                    &unit,
                    inputs,
                    &CampaignConfig {
                        threads: Some(threads),
                        ..cfg
                    },
                );
                let at = format!("{kind:?} seed {seed:#x} threads {threads}");
                assert_eq!(packed.records, records, "{at}");
                assert_eq!(packed.attempts, attempts, "{at}");
                assert_eq!(packed.fully_masked_inputs, masked, "{at}");
            }
        }
    }
}
