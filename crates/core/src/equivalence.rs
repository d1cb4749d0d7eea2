//! Equivalence checking (§ IV-C).
//!
//! Lemmas 1–3 give *necessary* conditions only; a candidate that produced a
//! suspected cube must still be checked against the actual cube stripping
//! function `strip_h(Kc)`.  This module builds the reference function over
//! the same inputs and proves (un)equivalence with a miter and one SAT call.

use netlist::{Netlist, NodeId};
use sat::{Lit, SolveResult};

use crate::functional::CubeAssignment;
use crate::session::AttackSession;

/// Checks whether the candidate node computes exactly
/// `strip_h(Kc)(X) = (HD(X, Kc) == h)` for the suspected cube `Kc`, using a
/// throwaway session.  Prefer [`candidate_equals_strip_in`] when checking
/// several suspects of the same netlist.
pub fn candidate_equals_strip(
    netlist: &Netlist,
    candidate: NodeId,
    cube: &CubeAssignment,
    h: usize,
) -> bool {
    let mut session = AttackSession::new(netlist);
    candidate_equals_strip_in(&mut session, candidate, cube, h)
}

/// Session-based equivalence check.
///
/// Returns `true` iff the two functions are equivalent for *all* inputs (the
/// miter is unsatisfiable).  Returns `false` when the candidate depends on
/// key inputs or the cube does not cover its support.
///
/// The check reads and records the session's stripper verdicts
/// ([`crate::functional::Analysis`] results and earlier checks of the same
/// candidate at the same `h`).  When `2h != m` (`m` = the support size),
/// `strip_h` of a cube determines the cube, so the answer needs no solve
/// once the candidate is proven `strip_h` of some cube, once it has been
/// refuted against the cube a complete analysis suspected, or when `cube`
/// differs from that suspect.  A decided solve records a proof or a
/// refutation of the suspect; an interrupted one records nothing.
///
/// The reference function `HD(X1, Kc) == h` is expressed through the
/// session's shared machinery: the second input space `X2` carries the cube
/// constants (by assumption), positions outside the candidate's support are
/// forced pairwise equal, and the memoized session popcount provides the
/// distance test — so repeated checks re-encode nothing but the (memoized)
/// candidate cone.
pub fn candidate_equals_strip_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    cube: &CubeAssignment,
    h: usize,
) -> bool {
    let Some(positions) = session.primary_support(candidate) else {
        return false;
    };
    let netlist = session.netlist();
    let inputs: Vec<NodeId> = positions.iter().map(|&p| netlist.inputs()[p]).collect();
    // The cube must assign every support input (order-insensitive lookup);
    // normalised to the support, sorted by node id.
    let cube_value = |id: NodeId| cube.iter().find(|&&(cid, _)| cid == id).map(|&(_, v)| v);
    let Some(cube) = inputs
        .iter()
        .map(|&id| cube_value(id).map(|v| (id, v)))
        .collect::<Option<CubeAssignment>>()
    else {
        return false;
    };
    if h > inputs.len() {
        return false;
    }
    if let Some(equivalent) = session.known_equivalence(candidate, h, &cube) {
        return equivalent;
    }
    let mut slot_of: Vec<Option<usize>> = vec![None; netlist.num_inputs()];
    for (slot, &position) in positions.iter().enumerate() {
        slot_of[position] = Some(slot);
    }

    let candidate_lit = session.cone_lit(candidate);
    let reference_lit = session.hd_equals(h);
    let miter = session.miter(candidate_lit, reference_lit);

    // Assumptions: X2 carries the cube over the support; everything outside
    // the support contributes zero distance.
    let mut assumptions: Vec<Lit> = Vec::with_capacity(netlist.num_inputs() + 1);
    for (position, &slot) in slot_of.iter().enumerate() {
        if let Some(slot) = slot {
            let (_, x2) = session.input_pair(position);
            let bit = cube[slot].1;
            assumptions.push(if bit { x2 } else { !x2 });
        } else {
            assumptions.push(session.input_eq(position));
        }
    }
    assumptions.push(miter);
    let result = session.check_cone_property(&assumptions);
    if result != SolveResult::Unknown {
        session.record_equivalence(candidate, h, &cube, result == SolveResult::Unsat);
    }
    result == SolveResult::Unsat
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::GateKind;

    fn stripper(m: usize, cube: u64, h: usize) -> (Netlist, NodeId, Vec<NodeId>) {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube_bits = pattern_to_bits(cube, m);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube_bits, h);
        nl.add_output("strip", out);
        (nl, out, xs)
    }

    fn assignment(xs: &[NodeId], cube: u64) -> CubeAssignment {
        xs.iter()
            .enumerate()
            .map(|(i, &id)| (id, (cube >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn accepts_the_true_cube_and_rejects_others() {
        let (nl, out, xs) = stripper(6, 0b101100, 1);
        assert!(candidate_equals_strip(
            &nl,
            out,
            &assignment(&xs, 0b101100),
            1
        ));
        assert!(!candidate_equals_strip(
            &nl,
            out,
            &assignment(&xs, 0b101101),
            1
        ));
        assert!(!candidate_equals_strip(
            &nl,
            out,
            &assignment(&xs, 0b101100),
            2
        ));
    }

    #[test]
    fn works_after_strash() {
        let (nl, _, _) = stripper(6, 0b010011, 2);
        let optimized = strash(&nl);
        let out = optimized.outputs()[0].1;
        let xs: Vec<NodeId> = optimized.inputs().to_vec();
        assert!(candidate_equals_strip(
            &optimized,
            out,
            &assignment(&xs, 0b010011),
            2
        ));
        assert!(!candidate_equals_strip(
            &optimized,
            out,
            &assignment(&xs, 0b110011),
            2
        ));
    }

    #[test]
    fn rejects_nodes_that_are_not_strip_functions() {
        let mut nl = Netlist::new("not_strip");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::Or, &[a, b]);
        nl.add_output("g", g);
        let cube = vec![(a, true), (b, false)];
        assert!(!candidate_equals_strip(&nl, g, &cube, 0));
    }

    #[test]
    fn incomplete_cubes_are_rejected() {
        let (nl, out, xs) = stripper(4, 0b1010, 1);
        let partial = vec![(xs[0], false)];
        assert!(!candidate_equals_strip(&nl, out, &partial, 1));
    }

    #[test]
    fn filter_keeps_only_equivalent_pairs() {
        let (nl, out, xs) = stripper(5, 0b11001, 1);
        let good = (out, assignment(&xs, 0b11001));
        let bad = (out, assignment(&xs, 0b00110));
        let mut session = AttackSession::new(&nl);
        let kept: Vec<_> = [good.clone(), bad]
            .into_iter()
            .filter(|(candidate, cube)| {
                candidate_equals_strip_in(&mut session, *candidate, cube, 1)
            })
            .collect();
        assert_eq!(kept, vec![good]);
    }
}
