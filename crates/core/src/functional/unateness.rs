//! AnalyzeUnateness (Algorithm 1, Lemma 1): attack on TTLock / SFLL-HD0.
//!
//! The cube stripping function of TTLock is a single cube, which is unate in
//! every variable: positive unate in `x_i` iff the protected cube has
//! `k_i = 1`, negative unate iff `k_i = 0`.
//!
//! The session-based implementation encodes the candidate cone **once** per
//! input space (memoized across candidates by [`AttackSession`]) and checks
//! each cofactor pair with a pure assumption query: copy 1 plays
//! `f(x_i = 0)`, copy 2 plays `f(x_i = 1)`, all other support inputs are
//! forced pairwise equal through the session's shared difference vector.
//! A 64-way random-simulation pre-filter first rules out polarities (or the
//! whole candidate) whenever a concrete monotonicity violation exists, which
//! skips the corresponding SAT queries without changing any result.

use netlist::{Netlist, NodeId};
use sat::{Lit, SolveResult};

use super::{Analysis, CubeAssignment};
use crate::session::AttackSession;

/// Runs the unateness analysis on a candidate node using a throwaway
/// session.  Prefer [`analyze_unateness_in`] when analysing several
/// candidates of the same netlist.
pub fn analyze_unateness(netlist: &Netlist, candidate: NodeId) -> Option<CubeAssignment> {
    let mut session = AttackSession::new(netlist);
    analyze_unateness_in(&mut session, candidate)
}

/// Runs the unateness analysis on a candidate node through a shared attack
/// session.
///
/// Returns the suspected protected cube (one value per support input, sorted
/// by node id) if the node is unate in every support variable, or `None` (⊥)
/// otherwise.
///
/// Variables the function does not actually depend on are reported as
/// positive unate (value 1), mirroring the order of checks in Algorithm 1.
///
/// The analysis is complete for `strip_0` (the cube itself) and runs
/// through the session's stripper verdicts at `h = 0`: once the equivalence
/// check ([`crate::equivalence::candidate_equals_strip_in`]) or the cube
/// proposal's enumeration has proved the candidate to be `strip_0` of a
/// cube, the answer is that cube (Lemma 1) without a solve, and once the
/// candidate is known to be no cube (a refuted suspect, a simulated
/// counterexample, or another complete analysis's decided ⊥), the answer
/// is ⊥.  Its own decided ⊥ is recorded the same way.  The word-parallel
/// prefilter runs first either way, so the prefilter counters do not
/// depend on the verdicts.  An undecided (interrupted) cofactor query
/// yields ⊥ and records nothing.
pub fn analyze_unateness_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
) -> Option<CubeAssignment> {
    let positions = session.primary_support(candidate)?;
    let netlist = session.netlist();
    let inputs: Vec<NodeId> = positions.iter().map(|&p| netlist.inputs()[p]).collect();

    // Word-parallel pre-filter: polarities refuted by an explicit witness
    // need no SAT query; a candidate refuted in both polarities of any
    // variable is rejected outright.
    let polarities = session
        .prefilter()
        .unateness_polarities(candidate, &positions);
    if polarities.iter().any(|&(p, n)| !p && !n) {
        return None;
    }

    // The cube itself is `strip_0`, so the verdicts at h = 0 apply.
    let m = inputs.len();
    session.settle_cube(candidate, 0, Analysis::Unateness, m, |session| {
        extract_cube(session, candidate, &inputs, &positions, &polarities)
    })
}

/// The SAT stage of Algorithm 1: per support input, one cofactor query per
/// polarity the prefilter left open.
fn extract_cube(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    inputs: &[NodeId],
    positions: &[usize],
    polarities: &[(bool, bool)],
) -> Option<CubeAssignment> {
    let (root1, root2) = session.cone_pair(candidate);
    // Whether the cofactor assumptions plus `violation` are unsatisfiable;
    // an undecided query (interrupt) decides nothing.
    let unate = |session: &mut AttackSession<'_>, mut q: Vec<Lit>, violation: [Lit; 2]| {
        q.extend(violation);
        match session.check_cone_property(&q) {
            SolveResult::Unsat => Some(true),
            SolveResult::Sat => Some(false),
            SolveResult::Unknown => None,
        }
    };
    let mut assignment: CubeAssignment = Vec::with_capacity(inputs.len());
    for (slot, &xi) in inputs.iter().enumerate() {
        let (may_pos, may_neg) = polarities[slot];
        // Cofactor assumptions: x_i = 0 in copy 1, x_i = 1 in copy 2, every
        // other support input pairwise equal.
        let (x1, x2) = session.input_pair(positions[slot]);
        let mut base: Vec<Lit> = Vec::with_capacity(inputs.len() + 3);
        for (other, &position) in positions.iter().enumerate() {
            if other != slot {
                base.push(session.input_eq(position));
            }
        }
        base.push(!x1);
        base.push(x2);

        // Positive unate: f(x_i = 0) <= f(x_i = 1), i.e. f0 & !f1 unsatisfiable.
        if may_pos && unate(session, base.clone(), [root1, !root2])? {
            assignment.push((xi, true));
        } else if may_neg && unate(session, base, [!root1, root2])? {
            assignment.push((xi, false));
        } else {
            return None;
        }
    }
    Some(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, TtLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::strash::strash;
    use netlist::GateKind;

    #[test]
    fn recovers_the_cube_of_an_explicit_and_gate() {
        // F = a & !b & !c & d  (the paper's protected cube 1001).
        let mut nl = Netlist::new("cube");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let nb = nl.add_gate("nb", GateKind::Not, &[b]);
        let nc = nl.add_gate("nc", GateKind::Not, &[c]);
        let f = nl.add_gate("f", GateKind::And, &[a, nb, nc, d]);
        nl.add_output("f", f);

        let cube = analyze_unateness(&nl, f).expect("cube found");
        assert_eq!(cube, vec![(a, true), (b, false), (c, false), (d, true)]);
    }

    #[test]
    fn rejects_non_unate_functions() {
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate("f", GateKind::Xor, &[a, b]);
        nl.add_output("f", f);
        assert!(analyze_unateness(&nl, f).is_none());
    }

    #[test]
    fn or_gate_is_unate_all_positive() {
        let mut nl = Netlist::new("or");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate("f", GateKind::Or, &[a, b]);
        nl.add_output("f", f);
        assert_eq!(analyze_unateness(&nl, f), Some(vec![(a, true), (b, true)]));
    }

    #[test]
    fn shared_session_analyses_agree_with_standalone_ones() {
        let mut nl = Netlist::new("multi");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let nb = nl.add_gate("nb", GateKind::Not, &[b]);
        let f = nl.add_gate("f", GateKind::And, &[a, nb, c]);
        let g = nl.add_gate("g", GateKind::Or, &[a, b]);
        let h = nl.add_gate("h", GateKind::Xor, &[a, c]);
        nl.add_output("f", f);
        nl.add_output("g", g);
        nl.add_output("h", h);

        let mut session = AttackSession::new(&nl);
        for candidate in [f, g, h] {
            assert_eq!(
                analyze_unateness_in(&mut session, candidate),
                analyze_unateness(&nl, candidate),
                "candidate {candidate:?}"
            );
        }
    }

    #[test]
    fn recovers_the_ttlock_protected_cube_after_strash() {
        let original = generate(&RandomCircuitSpec::new("unate_tt", 8, 2, 40));
        let locked = TtLock::new(6).with_seed(77).lock(&original).expect("lock");
        let optimized = strash(&locked.locked);

        // Use the structural stages to find the cube stripper candidates.
        let comparators = crate::structural::find_comparators(&optimized);
        let candidates = crate::structural::find_candidates(&optimized, &comparators);
        let mut session = AttackSession::new(&optimized);
        let mut recovered = None;
        for &cand in &candidates.candidates {
            if let Some(cube) = analyze_unateness_in(&mut session, cand) {
                recovered = Some(cube);
                break;
            }
        }
        let recovered = recovered.expect("some candidate is unate");
        // Map the recovered cube back to key bits through the comparator pairing.
        let mut key_bits = vec![false; 6];
        for (&input, &key) in candidates
            .protected_inputs
            .iter()
            .zip(&candidates.paired_keys)
        {
            let value = recovered
                .iter()
                .find(|(id, _)| *id == input)
                .map(|&(_, v)| v)
                .expect("assignment covers the input");
            let key_index = optimized
                .key_inputs()
                .iter()
                .position(|&k| k == key)
                .expect("key input");
            key_bits[key_index] = value;
        }
        assert_eq!(key_bits, locked.key.bits());
    }

    #[test]
    fn nodes_depending_on_key_inputs_are_rejected() {
        let mut nl = Netlist::new("keydep");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k0");
        let f = nl.add_gate("f", GateKind::And, &[a, k]);
        nl.add_output("f", f);
        assert!(analyze_unateness(&nl, f).is_none());
    }
}
