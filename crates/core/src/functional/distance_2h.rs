//! Distance2H (Algorithm 3, Lemma 2): attack on SFLL-HDh for `4h <= m`.
//!
//! Like SlidingWindow, this finds two satisfying assignments of the candidate
//! at Hamming distance `2h`; agreeing positions reveal key bits.  The
//! remaining bits are obtained with a *single* additional SAT query that asks
//! for another distance-`2h` pair that agrees on all previously disagreeing
//! positions, instead of one query per bit.

use std::collections::BTreeMap;

use netlist::{Netlist, NodeId};
use sat::SolveResult;

use super::pair::{settle_pair_analysis, HdPairQuery};
use super::{Analysis, CubeAssignment};
use crate::session::AttackSession;

/// Runs the Distance2H analysis on a candidate node using a throwaway
/// session.  Prefer [`distance_2h_in`] when analysing several candidates of
/// the same netlist.
pub fn distance_2h(netlist: &Netlist, candidate: NodeId, h: usize) -> Option<CubeAssignment> {
    let mut session = AttackSession::new(netlist);
    distance_2h_in(&mut session, candidate, h)
}

/// Runs the Distance2H analysis on a candidate node through a shared attack
/// session.
///
/// `h` is the SFLL-HD parameter.  The analysis is complete only when
/// `4h <= m` (otherwise the second query may be unsatisfiable for the real
/// stripper as well); callers should consult
/// [`super::Analysis::applicable`].
///
/// When complete, the analysis runs through the session's stripper
/// verdicts: once the equivalence check
/// ([`crate::equivalence::candidate_equals_strip_in`]) or the cube
/// proposal's enumeration has proved the candidate to be `strip_h` of a
/// cube, the answer is that cube (Algorithm 3) without a solve, and once
/// the candidate is known to be `strip_h` of no cube (a refuted suspect, a
/// simulated counterexample, or another complete analysis's decided ⊥),
/// the answer is ⊥.  Its own decided ⊥ is recorded the same way.  A
/// candidate the verdicts decide costs no cone encoding: only an open
/// candidate gets the pair query of Algorithm 3 (both cone copies and the
/// distance-`2h` literal).  The word-parallel prefilter runs on every
/// candidate either way, so the prefilter counters do not depend on the
/// verdicts.
pub fn distance_2h_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    settle_pair_analysis(session, candidate, h, Analysis::Distance2H, extract_cube)
}

/// The SAT stage of Algorithm 3: a distance-`2h` model pair, then one query
/// for a second pair agreeing on every position the first pair split.
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

    let mut keys: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut disagreeing: Vec<usize> = Vec::new();
    for i in 0..query.inputs.len() {
        if m1[i] == m2[i] {
            keys.insert(query.inputs[i], m1[i]);
        } else {
            disagreeing.push(i);
        }
    }

    if !disagreeing.is_empty() {
        // Second query: force all previously disagreeing positions to agree.
        let mut assumptions = query.base.clone();
        assumptions.extend(disagreeing.iter().map(|&i| query.eq[i]));
        if session.check_cone_property(&assumptions) != SolveResult::Sat {
            return None;
        }
        for i in 0..query.inputs.len() {
            let v1 = session.value(query.x1[i]).expect("model");
            let v2 = session.value(query.x2[i]).expect("model");
            if v1 == v2 {
                keys.entry(query.inputs[i]).or_insert(v1);
            }
        }
    }

    if keys.len() != query.inputs.len() {
        return None;
    }
    Some(keys.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::{GateKind, Netlist};

    fn stripper(m: usize, cube: u64, h: usize) -> (Netlist, NodeId, Vec<NodeId>) {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube_bits = pattern_to_bits(cube, m);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube_bits, h);
        nl.add_output("strip", out);
        (nl, out, xs)
    }

    fn expected(xs: &[NodeId], cube: u64) -> CubeAssignment {
        xs.iter()
            .enumerate()
            .map(|(i, &id)| (id, (cube >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn recovers_cube_when_4h_le_m() {
        for (m, cube, h) in [
            (8usize, 0b1011_0101u64, 1usize),
            (8, 0b0110_1100, 2),
            (12, 0xABC, 3),
        ] {
            let (nl, out, xs) = stripper(m, cube, h);
            let got = distance_2h(&nl, out, h).expect("cube recovered");
            assert_eq!(got, expected(&xs, cube), "m={m} cube={cube:b} h={h}");
        }
    }

    #[test]
    fn recovers_cube_after_strash() {
        let (nl, _, _) = stripper(8, 0b1100_1010, 2);
        let optimized = strash(&nl);
        let out = optimized.outputs()[0].1;
        let got = distance_2h(&optimized, out, 2).expect("cube recovered");
        let values: Vec<bool> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, pattern_to_bits(0b1100_1010, 8));
    }

    #[test]
    fn agrees_with_sliding_window_on_the_stripper() {
        let (nl, out, _) = stripper(10, 0b10_1101_0011, 2);
        let a = distance_2h(&nl, out, 2).expect("distance2h");
        let b = super::super::sliding_window(&nl, out, 2).expect("sliding window");
        assert_eq!(a, b);
    }

    #[test]
    fn constant_false_candidate_is_rejected() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let na = nl.add_gate("na", GateKind::Not, &[a]);
        let f = nl.add_gate("f", GateKind::And, &[a, na]);
        nl.add_output("f", f);
        assert!(distance_2h(&nl, f, 1).is_none());
    }

    #[test]
    fn h_zero_returns_the_unique_satisfying_cube() {
        let (nl, out, xs) = stripper(6, 0b011010, 0);
        let got = distance_2h(&nl, out, 0).expect("cube recovered");
        assert_eq!(got, expected(&xs, 0b011010));
    }

    #[test]
    fn batch_helper_reports_per_candidate() {
        let (nl, out, _) = stripper(8, 0b00101100, 1);
        let mut session = AttackSession::new(&nl);
        let results: Vec<_> = [out]
            .iter()
            .map(|&c| (c, distance_2h_in(&mut session, c, 1)))
            .collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_some());
    }
}
