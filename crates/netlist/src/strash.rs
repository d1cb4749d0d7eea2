//! Whole-netlist structural hashing (the ABC `strash` substitute).
//!
//! Locking schemes insert easily recognisable gates (XOR comparators, wide
//! AND cube detectors).  The paper runs ABC's `strash` on every locked
//! netlist "to minimize any structural bias introduced by our locking
//! implementation" (§ VI-A).  [`strash`] performs the same role here: the
//! netlist is converted to an AIG (XOR/XNOR decomposed, constants propagated,
//! identical structures merged) and converted back to a sea of AND/NOT gates.

use crate::aig::Aig;
use crate::Netlist;

/// Structurally hashes a netlist: returns an equivalent netlist composed only
/// of two-input AND gates and inverters, with shared structure merged.
///
/// The resulting netlist computes the same function (over the same primary
/// inputs, key inputs and outputs) but no longer contains the original gate
/// boundaries, mimicking what a synthesis tool does to a locked design before
/// it is sent to the foundry.
///
/// # Example
///
/// ```
/// use netlist::{GateKind, Netlist};
/// use netlist::strash::strash;
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate("y", GateKind::Xnor, &[a, b]);
/// nl.add_output("y", y);
/// let opt = strash(&nl);
/// assert_eq!(opt.evaluate(&[true, true], &[]), vec![true]);
/// assert_eq!(opt.evaluate(&[true, false], &[]), vec![false]);
/// ```
pub fn strash(netlist: &Netlist) -> Netlist {
    Aig::from_netlist(netlist).to_netlist()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::pattern_to_bits;
    use crate::GateKind;

    fn majority_plus_d() -> Netlist {
        // The running example of the paper: y = ab + bc + ca + d.
        let mut nl = Netlist::new("paper_fig2a");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let ab = nl.add_gate("ab", GateKind::And, &[a, b]);
        let bc = nl.add_gate("bc", GateKind::And, &[b, c]);
        let ca = nl.add_gate("ca", GateKind::And, &[c, a]);
        let y = nl.add_gate("y", GateKind::Or, &[ab, bc, ca, d]);
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn strash_preserves_function() {
        let nl = majority_plus_d();
        let opt = strash(&nl);
        for pattern in 0..16u64 {
            let bits = pattern_to_bits(pattern, 4);
            assert_eq!(nl.evaluate(&bits, &[]), opt.evaluate(&bits, &[]));
        }
    }

    #[test]
    fn strash_produces_only_and_and_not() {
        let nl = majority_plus_d();
        let opt = strash(&nl);
        for (_, node) in opt.iter() {
            if let Some(kind) = node.gate_kind() {
                assert!(
                    matches!(kind, GateKind::And | GateKind::Not | GateKind::Const0),
                    "unexpected gate kind {kind}"
                );
            }
        }
    }

    #[test]
    fn duplicate_logic_is_merged() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x1 = nl.add_gate("x1", GateKind::And, &[a, b]);
        let x2 = nl.add_gate("x2", GateKind::And, &[a, b]);
        nl.add_output("o1", x1);
        nl.add_output("o2", x2);
        let opt = strash(&nl);
        assert_eq!(opt.num_gates(), 1);
    }
}
