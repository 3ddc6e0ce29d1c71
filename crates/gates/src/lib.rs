//! Gate-level circuit substrate for SwapCodes fault injection and area
//! estimation.
//!
//! The SwapCodes paper synthesizes Verilog arithmetic units with a 16nm
//! library, injects single gate/flip-flop output flips (the Hamartia
//! methodology), and reports circuit areas in NAND2 gate equivalents
//! (Table IV). This crate rebuilds that substrate:
//!
//! * [`Netlist`] — a flattened gate-level netlist with 64-lane bit-parallel
//!   evaluation, where every lane runs its own inputs and transient node
//!   flips;
//! * [`CircuitBuilder`] — a structural builder (wires, bit-vectors, adders,
//!   shifters, multipliers, comparators) used to elaborate the units;
//! * [`units`] — the six pipelined arithmetic units of the paper's Fig. 10
//!   (fixed-point add and MAD, binary32/binary64 floating-point add and FMA)
//!   plus the SEC-DED decoder and residue encoder/predictor circuits of
//!   Table IV;
//! * [`softfloat`] — a bit-exact software model of the floating-point
//!   datapaths (round-to-nearest-even, flush-to-zero subnormals) used as the
//!   golden reference for the gate-level units;
//! * [`area`] — NAND2-equivalent area accounting.
//!
//! # Example
//!
//! ```
//! use swapcodes_gates::units::fxp_add32;
//!
//! let unit = fxp_add32();
//! let out = unit.netlist().evaluate(&[7, 35]);
//! assert_eq!(out[0], 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod builder;
mod netlist;
pub mod optimize;
pub mod sites;
pub mod softfloat;
pub mod units;

pub use builder::{Bv, CircuitBuilder};
pub use netlist::{transpose64, EvalScratch, Gate, Netlist, NodeId};
pub use sites::{AreaSummary, FaultSite, SiteCatalog};
