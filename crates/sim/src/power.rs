//! Activity-based GPU power and energy estimation (Fig. 14's methodology
//! substitute: the paper samples board power with `nvprof`; here energy is
//! accumulated per dynamic instruction class over the timing result).

use swapcodes_isa::{FuncUnit, Kernel, Op};

use crate::exec::WarpTrace;
use crate::timing::KernelTiming;

/// Per-warp-instruction dynamic energy, in picojoules, plus static power.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Integer/move/control instruction energy (pJ per warp instruction).
    pub int_pj: f64,
    /// FP32 instruction energy.
    pub f32_pj: f64,
    /// FP64 instruction energy.
    pub f64_pj: f64,
    /// SFU instruction energy.
    pub sfu_pj: f64,
    /// Per-memory-instruction energy.
    pub mem_pj: f64,
    /// Per-128B-transaction DRAM energy.
    pub txn_pj: f64,
    /// Static + uncore power per SM, in watts.
    pub static_w: f64,
    /// SM clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            int_pj: 18.0,
            f32_pj: 26.0,
            f64_pj: 85.0,
            sfu_pj: 45.0,
            mem_pj: 35.0,
            txn_pj: 160.0,
            static_w: 1.9,
            clock_ghz: 1.3,
        }
    }
}

/// Estimated power/energy for one kernel execution.
#[derive(Debug, Clone, Copy)]
pub struct PowerEstimate {
    /// Average SM power in watts during the kernel.
    pub power_w: f64,
    /// Total energy in microjoules for the simulated wave.
    pub energy_uj: f64,
}

impl PowerEstimate {
    /// Power relative to a baseline estimate.
    #[must_use]
    pub fn power_rel(&self, base: &PowerEstimate) -> f64 {
        self.power_w / base.power_w
    }

    /// Energy relative to a baseline estimate.
    #[must_use]
    pub fn energy_rel(&self, base: &PowerEstimate) -> f64 {
        self.energy_uj / base.energy_uj
    }
}

/// Estimate power and energy from a wave's traces and its timing.
#[must_use]
pub fn estimate(
    model: &PowerModel,
    kernel: &Kernel,
    traces: &[WarpTrace],
    timing: &KernelTiming,
) -> PowerEstimate {
    let mut dynamic_pj = 0.0f64;
    for t in traces {
        for e in &t.entries {
            let op = &kernel.instrs()[e.kidx as usize].op;
            dynamic_pj += match op.func_unit() {
                FuncUnit::Int | FuncUnit::Mov | FuncUnit::Ctrl => model.int_pj,
                FuncUnit::F32 => model.f32_pj,
                FuncUnit::F64 => model.f64_pj,
                FuncUnit::Sfu => model.sfu_pj,
                FuncUnit::Mem => model.mem_pj + f64::from(e.txns) * model.txn_pj,
            };
            // Shared-memory traffic is cheaper than DRAM: discount.
            if let Op::Ld {
                space: swapcodes_isa::MemSpace::Shared,
                ..
            }
            | Op::St {
                space: swapcodes_isa::MemSpace::Shared,
                ..
            } = op
            {
                dynamic_pj -= f64::from(e.txns) * model.txn_pj * 0.85;
            }
        }
    }
    let seconds = timing.wave_cycles.max(1) as f64 / (model.clock_ghz * 1e9);
    let dynamic_w = dynamic_pj * 1e-12 / seconds;
    let power_w = dynamic_w + model.static_w;
    PowerEstimate {
        power_w,
        energy_uj: power_w * seconds * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, Executor, Launch};
    use crate::memory::GlobalMemory;
    use crate::timing::{simulate_kernel, TimingConfig};
    use swapcodes_isa::{KernelBuilder, Reg, Src};

    #[test]
    fn busier_kernels_use_more_energy() {
        let mut small = KernelBuilder::new("small");
        for i in 0..8 {
            small.push(Op::FAdd {
                d: Reg(i),
                a: Reg(i),
                b: Src::Imm(0x3F80_0000),
            });
        }
        small.push(Op::Exit);
        let small = small.finish();
        let mut big = KernelBuilder::new("big");
        for rep in 0..10 {
            for i in 0..8 {
                let _ = rep;
                big.push(Op::FAdd {
                    d: Reg(i),
                    a: Reg(i),
                    b: Src::Imm(0x3F80_0000),
                });
            }
        }
        big.push(Op::Exit);
        let big = big.finish();

        let model = PowerModel::default();
        let cfg = TimingConfig::default();
        let launch = Launch::grid(4, 128);

        let run = |k: &Kernel| {
            let mut mem = GlobalMemory::new(64);
            let timing = simulate_kernel(k, launch, &mut mem, &cfg).expect("timing");
            let exec = Executor {
                config: ExecConfig {
                    collect_trace: true,
                    cta_limit: Some(timing.occupancy.ctas.min(launch.ctas)),
                    ..ExecConfig::default()
                },
            };
            let mut mem2 = GlobalMemory::new(64);
            let out = exec.run(k, launch, &mut mem2).expect("clean run");
            estimate(&model, k, &out.traces, &timing)
        };
        let e_small = run(&small);
        let e_big = run(&big);
        assert!(e_big.energy_uj > e_small.energy_uj);
        assert!(e_small.power_w > 0.0);
    }
}
