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
/// constants (by assumption), and the distance test is
/// [`AttackSession::hd_equals_over`] the candidate's support, memoized per
/// support set — for `h == 0` one AND over the support's equalities (Lemma
/// 1: `strip_0(Kc)` is the cube itself), for `h > 0` a counter over the
/// support's differences.  Inputs outside the support take no part in the
/// query, and repeated checks re-encode nothing but the (memoized)
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
    let candidate_lit = session.cone_lit(candidate);
    let reference_lit = session.hd_equals_over(&positions, h);
    let miter = session.miter(candidate_lit, reference_lit);

    // Assumptions: X2 carries the cube over the support.  Both sides of the
    // miter read only the support, so no other input needs a value.
    let mut assumptions: Vec<Lit> = Vec::with_capacity(positions.len() + 1);
    for (&position, &(_, bit)) in positions.iter().zip(&cube) {
        let (_, x2) = session.input_pair(position);
        assumptions.push(if bit { x2 } else { !x2 });
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
    use netlist::analysis::support;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::GateKind;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// Whether `candidate` computes `HD(X, cube) == h` over `cube`'s inputs,
    /// by its truth table over every primary input.
    fn truth_table_equals_strip(
        nl: &Netlist,
        candidate: NodeId,
        cube: &CubeAssignment,
        h: usize,
    ) -> bool {
        let n = nl.num_inputs();
        (0..1u64 << n).all(|pattern| {
            let inputs = pattern_to_bits(pattern, n);
            let values = nl.node_values(&inputs, &[]).expect("widths match");
            let distance = cube
                .iter()
                .filter(|&&(id, bit)| {
                    inputs[nl.input_position(id).expect("a primary input")] != bit
                })
                .count();
            values[candidate.index()] == (distance == h)
        })
    }

    /// The candidate's support cube with the bits of `pattern`.
    fn cube_over(nl: &Netlist, candidate: NodeId, pattern: u64) -> CubeAssignment {
        let mut inputs: Vec<NodeId> = support(nl, candidate).primary.into_iter().collect();
        inputs.sort_unstable();
        inputs
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, (pattern >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn differential_against_truth_tables_on_partial_supports() {
        const INPUTS: usize = 7;
        let mut checks = 0;
        let mut equivalent = 0;
        for seed in 0..12u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut nl = generate(&RandomCircuitSpec::new("diff", INPUTS, 2, 30).with_seed(seed));
            // A stripper over a strict subset of the inputs.
            let mut positions: Vec<usize> = (0..INPUTS).collect();
            positions.shuffle(&mut rng);
            positions.truncate(rng.gen_range(3..INPUTS));
            positions.sort_unstable();
            let xs: Vec<NodeId> = positions.iter().map(|&p| nl.inputs()[p]).collect();
            let cube_bits: u64 = rng.gen_range(0..1 << xs.len());
            let h_lock = seed as usize % 3;
            let bits = pattern_to_bits(cube_bits, xs.len());
            let strip = hamming_distance_equals_const(&mut nl, &xs, &bits, h_lock);
            nl.add_output("strip", strip);
            let nl = if seed % 2 == 0 { strash(&nl) } else { nl };
            let strip = nl.outputs().last().expect("strip output").1;
            // A gate of the random circuit whose support is a strict subset.
            let others: Vec<NodeId> = nl
                .gate_ids()
                .filter(|&g| {
                    let width = support(&nl, g).primary.len();
                    (2..INPUTS).contains(&width)
                })
                .collect();
            let other = *others.choose(&mut rng).expect("a partial-support gate");

            let mut session = AttackSession::new(&nl);
            let mut check = |candidate: NodeId, cube: &CubeAssignment, h: usize| {
                let expected = truth_table_equals_strip(&nl, candidate, cube, h);
                assert_eq!(
                    candidate_equals_strip_in(&mut session, candidate, cube, h),
                    expected,
                    "seed {seed}: shared session, h = {h}, cube {cube:?}"
                );
                assert_eq!(
                    candidate_equals_strip(&nl, candidate, cube, h),
                    expected,
                    "seed {seed}: fresh session, h = {h}, cube {cube:?}"
                );
                checks += 1;
                equivalent += usize::from(expected);
            };
            for h in 0..=2 {
                let true_cube = cube_over(&nl, strip, cube_bits);
                check(strip, &true_cube, h);
                let mut off_by_one = true_cube;
                let flip = rng.gen_range(0..off_by_one.len());
                off_by_one[flip].1 = !off_by_one[flip].1;
                check(strip, &off_by_one, h);
                check(other, &cube_over(&nl, other, rng.gen()), h);
            }
        }
        assert_eq!(checks, 12 * 3 * 3);
        assert_eq!(
            equivalent, 12,
            "each stripper matches its own cube at its own h"
        );
    }
}
