//! NAND2-gate-equivalent area accounting (the unit of the paper's Table IV).

use crate::netlist::{Gate, Netlist};

/// NAND2-equivalent cost of one gate, using typical standard-cell ratios
/// (a 2:1 mux is built from three NAND2s plus an inverter; a D flip-flop is
/// several gate-equivalents of transmission gates and inverters).
#[must_use]
pub fn gate_cost(gate: &Gate) -> f64 {
    match gate {
        Gate::Input { .. } | Gate::Const(_) => 0.0,
        Gate::Not(_) => 0.67,
        Gate::Nand(..) | Gate::Nor(..) => 1.0,
        Gate::And(..) | Gate::Or(..) => 1.33,
        Gate::Xor(..) | Gate::Xnor(..) => 2.33,
        Gate::Mux { .. } => 2.33,
        Gate::Ff(_) => 4.33,
    }
}

/// Area summary for a netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Total area in NAND2 equivalents (logic + flip-flops).
    pub nand2_total: f64,
    /// Logic-only area in NAND2 equivalents.
    pub nand2_logic: f64,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Number of logic gates (excluding FFs, inputs, constants).
    pub logic_gates: usize,
}

/// Compute the NAND2-equivalent area of a netlist.
#[must_use]
pub fn area(netlist: &Netlist) -> AreaReport {
    let mut total = 0.0;
    let mut logic = 0.0;
    let mut ffs = 0usize;
    let mut gates = 0usize;
    for g in netlist.nodes() {
        let c = gate_cost(g);
        total += c;
        match g {
            Gate::Ff(_) => ffs += 1,
            Gate::Input { .. } | Gate::Const(_) => {}
            _ => {
                logic += c;
                gates += 1;
            }
        }
    }
    AreaReport {
        nand2_total: total,
        nand2_logic: logic,
        flip_flops: ffs,
        logic_gates: gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn adder_area_is_sane() {
        let mut cb = CircuitBuilder::new(2);
        let a = cb.input(0, 32);
        let b = cb.input(1, 32);
        let (s, _) = cb.add(&a, &b, cb.zero());
        let regged = cb.register(&s);
        cb.output(&regged);
        let n = cb.finish();
        let r = area(&n);
        assert_eq!(r.flip_flops, 32);
        // A 32-bit Kogge-Stone adder lands in the hundreds of NAND2s.
        assert!(r.nand2_logic > 200.0 && r.nand2_logic < 2500.0, "{r:?}");
        assert!(r.nand2_total > r.nand2_logic);
    }

    #[test]
    fn empty_netlist_has_zero_area() {
        let n = Netlist::new(0);
        let r = area(&n);
        assert_eq!(r.nand2_total, 0.0);
        assert_eq!(r.flip_flops, 0);
    }
}
