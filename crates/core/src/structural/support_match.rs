//! Support-set matching (§ III-B).
//!
//! The circuit inputs appearing in the identified comparators are exactly the
//! inputs of the protected cube.  Any gate whose support equals that input
//! set (and contains no key inputs) is a candidate for the output of the cube
//! stripping unit.

use netlist::analysis::{input_positions, SupportTable};
use netlist::{Netlist, NodeId};

use super::Comparator;

/// The result of support-set matching.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CandidateNodes {
    /// `Comp_x`: the circuit inputs appearing in comparators, i.e. the
    /// suspected protected-cube inputs, in ascending node order.
    pub protected_inputs: Vec<NodeId>,
    /// The key inputs paired with `protected_inputs` (same order).
    pub paired_keys: Vec<NodeId>,
    /// Gates whose support is exactly `protected_inputs`: candidate outputs
    /// of the cube stripping unit, in topological order.
    pub candidates: Vec<NodeId>,
}

impl CandidateNodes {
    /// Number of suspected key bits (`m = |Comp|`).
    pub fn key_width(&self) -> usize {
        self.protected_inputs.len()
    }
}

/// Computes `Comp_x` from the comparators and returns every gate whose support
/// is exactly that set of circuit inputs.
///
/// Comparator gates themselves (and anything depending on key inputs) are
/// never candidates because their support contains key inputs.
pub fn find_candidates(netlist: &Netlist, comparators: &[Comparator]) -> CandidateNodes {
    candidates_over(netlist, &SupportTable::new(netlist), comparators)
}

/// [`find_candidates`] over a precomputed support table (the cached one of
/// an [`crate::session::AttackSession`]).
pub(crate) fn candidates_over(
    netlist: &Netlist,
    supports: &SupportTable,
    comparators: &[Comparator],
) -> CandidateNodes {
    // Deduplicate the (input, key) pairing; keep the first key seen per input.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for cmp in comparators {
        if !pairs.iter().any(|&(input, _)| input == cmp.input) {
            pairs.push((cmp.input, cmp.key));
        }
    }
    pairs.sort_by_key(|&(input, _)| input);
    let protected_inputs: Vec<NodeId> = pairs.iter().map(|&(i, _)| i).collect();
    let paired_keys: Vec<NodeId> = pairs.iter().map(|&(_, k)| k).collect();

    let mut candidates = Vec::new();
    if !protected_inputs.is_empty() {
        let positions = input_positions(netlist, &protected_inputs);
        let target = supports.row_of_primaries(&positions);
        candidates.extend(
            netlist
                .gate_ids()
                .filter(|&node| supports.row(node) == target.as_slice()),
        );
    }

    CandidateNodes {
        protected_inputs,
        paired_keys,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::find_comparators;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::strash::strash;
    use netlist::GateKind;

    #[test]
    fn candidates_have_exactly_the_protected_support() {
        let original = generate(&RandomCircuitSpec::new("sm", 10, 2, 60));
        let locked = SfllHd::new(6, 1)
            .with_seed(11)
            .lock(&original)
            .expect("lock");
        let optimized = strash(&locked.locked);
        let comparators = find_comparators(&optimized);
        let result = find_candidates(&optimized, &comparators);
        assert_eq!(result.key_width(), 6);
        assert!(
            !result.candidates.is_empty(),
            "the cube stripper output must be among the candidates"
        );
        // Every candidate must not depend on key inputs.
        for &c in &result.candidates {
            let s = netlist::analysis::support(&optimized, c);
            assert!(s.keys.is_empty());
            assert_eq!(s.primary.len(), 6);
        }
    }

    #[test]
    fn ttlock_candidates_contain_the_cube_gate() {
        let original = generate(&RandomCircuitSpec::new("sm_tt", 8, 2, 50));
        let locked = TtLock::new(5).with_seed(9).lock(&original).expect("lock");
        let optimized = strash(&locked.locked);
        let comparators = find_comparators(&optimized);
        let result = find_candidates(&optimized, &comparators);
        assert_eq!(result.protected_inputs.len(), 5);
        assert_eq!(result.paired_keys.len(), 5);
        assert!(!result.candidates.is_empty());
    }

    #[test]
    fn no_comparators_means_no_candidates() {
        let mut nl = Netlist::new("plain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        nl.add_output("g", g);
        let result = find_candidates(&nl, &[]);
        assert!(result.candidates.is_empty());
        assert_eq!(result.key_width(), 0);
    }

    #[test]
    fn duplicate_comparators_for_one_input_are_deduplicated() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let k0 = nl.add_key_input("k0");
        let c0 = nl.add_gate("c0", GateKind::Xnor, &[a, k0]);
        let c1 = nl.add_gate("c1", GateKind::Xor, &[a, k0]);
        let o = nl.add_gate("o", GateKind::And, &[c0, c1]);
        nl.add_output("o", o);
        let comparators = find_comparators(&nl);
        assert_eq!(comparators.len(), 2);
        let result = find_candidates(&nl, &comparators);
        assert_eq!(result.protected_inputs, vec![a]);
        assert_eq!(result.paired_keys.len(), 1);
    }
}
