//! Comparator identification (§ III-A).
//!
//! The functionality restoration unit compares each key input with one
//! circuit input.  After synthesis those comparators survive as *some* gate
//! whose support is exactly one key input and one circuit input and whose
//! function is XOR or XNOR of the two.  Finding them gives the attacker the
//! pairing between key bits and protected circuit inputs.
//!
//! [`find_comparators`] classifies every candidate gate in one 64-way
//! simulation sweep of the netlist: with all primary inputs driven by one
//! lane pattern and all key inputs by another, four lanes enumerate the
//! assignments of every `(input, key)` pair at once, and each candidate's
//! word is its truth table.  [`find_comparators_sat`] is the paper's
//! SAT-based method, kept as the reference.

use netlist::analysis::SupportTable;
use netlist::cnf::{encode_xor, IncrementalEncoder, PinBinding};
use netlist::{Netlist, NodeId};
use sat::{SolveResult, Solver};

/// A comparator gate pairing a key input with a circuit input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Comparator {
    /// The gate computing the comparison.
    pub node: NodeId,
    /// The circuit (primary) input being compared.
    pub input: NodeId,
    /// The key input being compared.
    pub key: NodeId,
    /// `true` if the gate computes XNOR(input, key), `false` for XOR.
    pub xnor: bool,
}

/// Lane patterns of the one-sweep classifier: every primary input carries
/// `INPUT_LANES` and every key input `KEY_LANES`, so lanes 0–3 hold
/// `(x, k) = (0,0), (1,0), (0,1), (1,1)` for every input/key pair at once.
const INPUT_LANES: u64 = 0b1010;
const KEY_LANES: u64 = 0b1100;
/// The low four lanes of a gate computing `x XOR k` / `x XNOR k`.
const XOR_TRUTH: u64 = 0b0110;
const XNOR_TRUTH: u64 = 0b1001;

/// Finds all comparator gates with one word-parallel simulation sweep.
///
/// The candidates are the gates whose support is exactly one circuit input
/// `x` and one key input `k`.  One [`Netlist::node_words`] sweep drives
/// every primary input with `0b1010` and every key input with `0b1100`, so
/// lanes 0–3 enumerate the four assignments of every `(x, k)` pair at once.
/// A candidate depends on nothing but its own `x` and `k`, so the low four
/// bits of its word are its truth table: `0b0110` is XOR, `0b1001` is XNOR,
/// anything else is not a comparator.  The cost is one sweep of the
/// netlist, however many candidates there are.
///
/// This is the fast default.  [`find_comparators_sat`] performs the same
/// check with SAT queries, matching the paper's implementation, and is the
/// reference the differential tests compare it with.
pub fn find_comparators(netlist: &Netlist) -> Vec<Comparator> {
    comparators_over(netlist, &SupportTable::new(netlist))
}

/// [`find_comparators`] over a precomputed support table (the cached one
/// of an [`crate::session::AttackSession`]).
pub(crate) fn comparators_over(netlist: &Netlist, supports: &SupportTable) -> Vec<Comparator> {
    let words = netlist
        .node_words(
            &vec![INPUT_LANES; netlist.num_inputs()],
            &vec![KEY_LANES; netlist.num_key_inputs()],
        )
        .expect("widths are constructed to match");
    candidate_pairs(netlist, supports)
        .into_iter()
        .filter_map(|(node, input, key)| {
            let xnor = match words[node.index()] & 0b1111 {
                XOR_TRUTH => false,
                XNOR_TRUTH => true,
                _ => return None,
            };
            Some(Comparator {
                node,
                input,
                key,
                xnor,
            })
        })
        .collect()
}

/// Finds all comparator gates, using SAT-based functional equivalence checks
/// (the method described in the paper).
pub fn find_comparators_sat(netlist: &Netlist) -> Vec<Comparator> {
    candidate_pairs(netlist, &SupportTable::new(netlist))
        .into_iter()
        .filter_map(|(node, input, key)| {
            classify_by_sat(netlist, node, input, key).map(|xnor| Comparator {
                node,
                input,
                key,
                xnor,
            })
        })
        .collect()
}

/// Gates whose support is exactly {one primary input, one key input}.
fn candidate_pairs(netlist: &Netlist, supports: &SupportTable) -> Vec<(NodeId, NodeId, NodeId)> {
    let mut result = Vec::new();
    for node in netlist.gate_ids() {
        if supports.len(node) != 2 {
            continue;
        }
        let mut primary = supports.primary_positions(node);
        let mut keys = supports.key_positions(node);
        if let (Some(input), Some(key)) = (primary.next(), keys.next()) {
            result.push((node, netlist.inputs()[input], netlist.key_inputs()[key]));
        }
    }
    result
}

/// SAT-based classification of one candidate: checks validity of
/// `cktfn(node) <=> input XOR key` (and the XNOR variant) with one
/// unsatisfiability query each; returns `Some(true)` for XNOR, `Some(false)`
/// for XOR, `None` otherwise.
fn classify_by_sat(netlist: &Netlist, node: NodeId, input: NodeId, key: NodeId) -> Option<bool> {
    let mut solver = Solver::new();
    let mut enc = IncrementalEncoder::new(netlist, &mut solver, &PinBinding::default());
    let node_lit = enc.encode_cone(netlist, &mut solver, node);
    let input_pos = netlist
        .inputs()
        .iter()
        .position(|&i| i == input)
        .expect("primary input");
    let key_pos = netlist
        .key_inputs()
        .iter()
        .position(|&k| k == key)
        .expect("key input");
    let x = enc.inputs()[input_pos];
    let k = enc.keys()[key_pos];

    // node <=> x XOR k is valid iff (node XOR (x XOR k)) is unsatisfiable.
    let is_xor = {
        let diff = encode_xor(&mut solver, &[node_lit, x, k]);
        solver.solve_with(&[diff]) == SolveResult::Unsat
    };
    if is_xor {
        return Some(false);
    }
    let is_xnor = {
        let diff = encode_xor(&mut solver, &[!node_lit, x, k]);
        solver.solve_with(&[diff]) == SolveResult::Unsat
    };
    if is_xnor {
        return Some(true);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::strash::strash;
    use netlist::GateKind;

    #[test]
    fn finds_explicit_xnor_comparators() {
        let mut nl = Netlist::new("cmp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k0 = nl.add_key_input("k0");
        let k1 = nl.add_key_input("k1");
        let c0 = nl.add_gate("c0", GateKind::Xnor, &[a, k0]);
        let c1 = nl.add_gate("c1", GateKind::Xor, &[b, k1]);
        let not_cmp = nl.add_gate("nc", GateKind::And, &[a, k0]);
        let out = nl.add_gate("out", GateKind::And, &[c0, c1, not_cmp]);
        nl.add_output("out", out);

        let found = find_comparators(&nl);
        assert_eq!(found.len(), 2);
        let xnor = found.iter().find(|c| c.node == c0).expect("c0 found");
        assert!(xnor.xnor);
        assert_eq!(xnor.input, a);
        assert_eq!(xnor.key, k0);
        let xor = found.iter().find(|c| c.node == c1).expect("c1 found");
        assert!(!xor.xnor);
        assert_eq!(xor.input, b);
        assert_eq!(xor.key, k1);
    }

    #[test]
    fn sat_and_simulation_agree() {
        let original = generate(&RandomCircuitSpec::new("cmp_sat", 8, 2, 40));
        let locked = TtLock::new(6).with_seed(5).lock(&original).expect("lock");
        let optimized = strash(&locked.locked);
        let mut by_sim = find_comparators(&optimized);
        let mut by_sat = find_comparators_sat(&optimized);
        by_sim.sort_by_key(|c| c.node);
        by_sat.sort_by_key(|c| c.node);
        assert_eq!(by_sim, by_sat);
        assert!(!by_sim.is_empty());
    }

    #[test]
    fn every_key_input_is_paired_after_sfll_locking_and_strash() {
        let original = generate(&RandomCircuitSpec::new("cmp_sfll", 10, 2, 60));
        let locked = SfllHd::new(8, 1)
            .with_seed(3)
            .lock(&original)
            .expect("lock");
        let optimized = strash(&locked.locked);
        let comparators = find_comparators(&optimized);
        let mut paired_keys: Vec<NodeId> = comparators.iter().map(|c| c.key).collect();
        paired_keys.sort_unstable();
        paired_keys.dedup();
        assert_eq!(
            paired_keys.len(),
            8,
            "every key input should appear in some comparator"
        );
    }

    #[test]
    fn gates_touching_two_circuit_inputs_are_ignored() {
        let mut nl = Netlist::new("no_cmp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::Xor, &[a, b]);
        nl.add_output("g", g);
        assert!(find_comparators(&nl).is_empty());
    }
}
