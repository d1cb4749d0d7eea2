//! Gate-level netlist substrate for the FALL attacks reproduction.
//!
//! This crate provides everything the locking schemes and attacks need from a
//! logic-synthesis toolchain (the role ABC plays in the original paper):
//!
//! * a gate-level [`Netlist`] data structure with primary inputs, key inputs
//!   and named outputs,
//! * ISCAS `.bench` reading and writing ([`bench_format`]),
//! * fast single-pattern and 64-way parallel simulation ([`sim`]),
//! * an And-Inverter Graph with structural hashing ([`aig`], [`strash`]) used
//!   to optimise locked netlists and remove structural bias,
//! * support-set / transitive-fanin-cone analyses ([`analysis`]),
//! * Tseitin CNF encoding into the [`sat`] solver ([`cnf`]),
//! * seeded random circuit generation used as the ISCAS'85/MCNC benchmark
//!   substitute ([`random`]),
//! * gate-level Hamming-distance comparators used by SFLL-HD ([`hamming`]),
//! * Graphviz DOT export for inspecting small netlists ([`dot`]).
//!
//! # Example
//!
//! ```
//! use netlist::{GateKind, Netlist};
//!
//! let mut nl = Netlist::new("half_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let sum = nl.add_gate("sum", GateKind::Xor, &[a, b]);
//! let carry = nl.add_gate("carry", GateKind::And, &[a, b]);
//! nl.add_output("sum", sum);
//! nl.add_output("carry", carry);
//! assert_eq!(nl.evaluate(&[true, true], &[]), vec![false, true]);
//! ```

#![deny(missing_docs)]

pub mod aig;
pub mod analysis;
pub mod bench_format;
pub mod cnf;
pub mod dot;
mod error;
mod gate;
pub mod hamming;
mod netlist;
pub mod random;
pub mod sim;
pub mod strash;

pub use error::NetlistError;
pub use gate::GateKind;
pub use netlist::{Netlist, Node, NodeId, NodeKind};
pub use sim::{Cover, WideSim, DEFAULT_WIDE_WORDS};
