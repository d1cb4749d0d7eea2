//! SlidingWindow (Algorithm 2, Lemmas 2 and 3): attack on SFLL-HDh for
//! `2h < m`.
//!
//! Two satisfying assignments of the cube stripping function at Hamming
//! distance `2h` must agree with the protected cube on every position where
//! they agree with each other (Lemma 2).  Positions where the first model
//! pair disagrees are resolved one by one with the Lemma 3 satisfiability
//! query: `F ∧ (x_j = x'_j) ∧ (x_j = b)` is satisfiable iff `b = k_j`.

use netlist::{Netlist, NodeId};
use sat::SolveResult;

use super::pair::{settle_pair_analysis, HdPairQuery};
use super::{Analysis, CubeAssignment};
use crate::session::AttackSession;

/// Runs the SlidingWindow analysis on a candidate node using a throwaway
/// session.  Prefer [`sliding_window_in`] when analysing several candidates
/// of the same netlist.
pub fn sliding_window(netlist: &Netlist, candidate: NodeId, h: usize) -> Option<CubeAssignment> {
    let mut session = AttackSession::new(netlist);
    sliding_window_in(&mut session, candidate, h)
}

/// Runs the SlidingWindow analysis on a candidate node through a shared
/// attack session.
///
/// `h` is the SFLL-HD parameter the adversary knows (§ II-A).  Returns the
/// suspected protected cube, or `None` (⊥) if the node cannot be the cube
/// stripping function.
///
/// At `2h < m` (`m` = the candidate's support size) the analysis is
/// complete and runs through the session's stripper verdicts: once the
/// equivalence check ([`crate::equivalence::candidate_equals_strip_in`])
/// or the cube proposal's enumeration has proved the candidate to be
/// `strip_h` of a cube, the answer is that cube (Lemmas 2 and 3) without a
/// solve, and once the candidate is known to be `strip_h` of no cube (a
/// refuted suspect, a simulated counterexample, or another complete
/// analysis's decided ⊥), the answer is ⊥.  Its own decided ⊥ is recorded
/// the same way.  A candidate the verdicts decide costs no cone encoding:
/// only an open candidate gets the pair query of Algorithm 2 (both cone
/// copies and the distance-`2h` literal).  The word-parallel prefilter runs
/// on every candidate either way, so the prefilter counters do not depend
/// on the verdicts.
pub fn sliding_window_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    settle_pair_analysis(session, candidate, h, Analysis::SlidingWindow, extract_cube)
}

/// The SAT stage of Algorithm 2: a distance-`2h` model pair, then one
/// Lemma 3 query per disagreeing bit and value.
fn extract_cube(session: &mut AttackSession<'_>, query: &HdPairQuery) -> Option<CubeAssignment> {
    if session.check_cone_property(&query.base) != SolveResult::Sat {
        return None;
    }
    let m1: Vec<bool> = query
        .x1
        .iter()
        .map(|&l| session.value(l).expect("model"))
        .collect();
    let m2: Vec<bool> = query
        .x2
        .iter()
        .map(|&l| session.value(l).expect("model"))
        .collect();

    let mut assignment: CubeAssignment = Vec::with_capacity(query.inputs.len());
    for i in 0..query.inputs.len() {
        let xi = query.inputs[i];
        if m1[i] == m2[i] {
            assignment.push((xi, m1[i]));
            continue;
        }
        // Lemma 3 query for both possible values of the disagreeing bit.
        let value_lit = |value: bool| if value { query.x2[i] } else { !query.x2[i] };
        let solve_pinned = |session: &mut AttackSession<'_>, value: bool| {
            let mut assumptions = query.base.clone();
            assumptions.push(query.eq[i]);
            assumptions.push(value_lit(value));
            session.check_cone_property(&assumptions)
        };
        // An undecided query (interrupt) decides nothing: ⊥.
        match (solve_pinned(session, m1[i]), solve_pinned(session, m2[i])) {
            (SolveResult::Sat, SolveResult::Unsat) => assignment.push((xi, m1[i])),
            (SolveResult::Unsat, SolveResult::Sat) => assignment.push((xi, m2[i])),
            _ => return None,
        }
    }
    Some(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::{GateKind, Netlist};

    /// Builds a bare cube-stripping circuit `strip_h(cube)(X)` for testing.
    fn stripper(m: usize, cube: u64, h: usize) -> (Netlist, NodeId, Vec<NodeId>) {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube_bits = pattern_to_bits(cube, m);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube_bits, h);
        nl.add_output("strip", out);
        (nl, out, xs)
    }

    #[test]
    fn recovers_cube_for_various_h() {
        for (m, cube, h) in [
            (6usize, 0b101101u64, 1usize),
            (6, 0b010011, 2),
            (8, 0xA5, 2),
        ] {
            let (nl, out, xs) = stripper(m, cube, h);
            let got = sliding_window(&nl, out, h).expect("cube recovered");
            let expected: CubeAssignment = xs
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, (cube >> i) & 1 == 1))
                .collect();
            assert_eq!(got, expected, "m={m} cube={cube:b} h={h}");
        }
    }

    #[test]
    fn recovers_cube_after_strash() {
        let (nl, _, _) = stripper(6, 0b110010, 1);
        let optimized = strash(&nl);
        let out = optimized.outputs()[0].1;
        let got = sliding_window(&optimized, out, 1).expect("cube recovered");
        let values: Vec<bool> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, pattern_to_bits(0b110010, 6));
    }

    #[test]
    fn h_zero_degenerates_to_the_cube_itself() {
        let (nl, out, xs) = stripper(5, 0b10110, 0);
        let got = sliding_window(&nl, out, 0).expect("cube recovered");
        let expected: CubeAssignment = xs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (0b10110 >> i) & 1 == 1))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn rejects_functions_without_distance_2h_pairs() {
        // A constant-false node has no satisfying assignment at all.
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let na = nl.add_gate("na", GateKind::Not, &[a]);
        let f = nl.add_gate("f", GateKind::And, &[a, na]);
        nl.add_output("f", f);
        assert!(sliding_window(&nl, f, 1).is_none());
    }

    #[test]
    fn rejects_parity_like_functions() {
        // XOR of all inputs is satisfied at every odd-weight pattern; the
        // sliding-window queries cannot pin unique bit values, so ⊥ results.
        let mut nl = Netlist::new("parity");
        let xs: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        let f = nl.add_gate("f", GateKind::Xor, &xs);
        nl.add_output("f", f);
        assert!(sliding_window(&nl, f, 1).is_none());
    }

    #[test]
    fn batch_helper_reports_per_candidate() {
        let (nl, out, _) = stripper(5, 0b00111, 1);
        let mut session = AttackSession::new(&nl);
        let results: Vec<_> = [out]
            .iter()
            .map(|&c| (c, sliding_window_in(&mut session, c, 1)))
            .collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_some());
    }
}
