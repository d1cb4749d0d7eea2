//! Shared machinery for the Hamming-distance analyses (Algorithms 2 and 3):
//! an assumption-query view of "two copies of a candidate cone,
//! simultaneously true, at a fixed Hamming distance", and the one driver
//! both analyses run through.
//!
//! The query reuses the session's shared cone encodings and its all-inputs
//! distance literal [`AttackSession::hd_equals`] (an AND of input
//! equalities for `d = 0`, one popcount network over every input difference
//! for `d > 0`): the formula
//! `F = c(X1) ∧ c(X2) ∧ HD(X1, X2) = d` is expressed purely as assumptions
//! (`root1`, `root2`, the memoized `HD == d` literal, and pairwise-equality
//! literals for every input outside the candidate's support).  The distance
//! literal and the equalities are encoded once per session, but a new
//! candidate's [`AttackSession::cone_pair`] adds the Tseitin clauses of
//! every gate of its cone not encoded yet, in both copies.  So the driver
//! builds a query only for a candidate the session's verdicts leave open.

use netlist::NodeId;
use sat::Lit;

use super::{Analysis, CubeAssignment};
use crate::session::AttackSession;

/// An assumption-query for `c(X1) ∧ c(X2) ∧ HD(X1, X2) = distance`.
pub(crate) struct HdPairQuery {
    /// The support inputs of the candidate, sorted by node id.
    pub inputs: Vec<NodeId>,
    /// Base assumptions encoding the formula `F` of Algorithms 2 and 3.
    pub base: Vec<Lit>,
    /// Literals of the support inputs in the first copy.
    pub x1: Vec<Lit>,
    /// Literals of the support inputs in the second copy.
    pub x2: Vec<Lit>,
    /// `eq[i]` is true iff `x1[i] == x2[i]`.
    pub eq: Vec<Lit>,
}

/// Runs the SAT stage `extract` of a Hamming-distance `analysis` on
/// `candidate` at `h` through the session's verdicts
/// ([`AttackSession::settle_cube`]).
///
/// The answer is ⊥ when the candidate depends on a key input or on no
/// input, when `2h` exceeds its support size, or when the word-parallel
/// prefilter finds two satisfying assignments further than `2h` apart (so
/// the candidate is no radius-`h` sphere function).  The prefilter runs on
/// every candidate, decided or not, so its counters do not depend on the
/// verdicts.  A candidate the session already decides
/// ([`AttackSession::decided_answer`]) gets that answer without a pair
/// query.  An open candidate's query is built before the prefilter runs,
/// so a prefilter-refuted open candidate is still encoded: building it only
/// past the prefilter moves the cone solver's later trajectories.
pub(crate) fn settle_pair_analysis(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
    analysis: Analysis,
    extract: fn(&mut AttackSession<'_>, &HdPairQuery) -> Option<CubeAssignment>,
) -> Option<CubeAssignment> {
    let positions = session.primary_support(candidate)?;
    let m = positions.len();
    if 2 * h > m {
        return None;
    }
    let decided = session.decided_answer(candidate, h, analysis, m);
    let query = decided
        .is_none()
        .then(|| build_hd_query(session, candidate, &positions, 2 * h));
    if !session
        .prefilter()
        .satisfying_within_distance(candidate, &positions, 2 * h)
    {
        return None;
    }
    match query {
        Some(query) => session.settle_cube(candidate, h, analysis, m, |session| {
            extract(session, &query)
        }),
        None => decided.flatten(),
    }
}

/// Builds the assumption query for a candidate whose primary-input support
/// is `positions` (ascending, at least `distance` of them).
fn build_hd_query(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
    distance: usize,
) -> HdPairQuery {
    let netlist = session.netlist();
    let inputs: Vec<NodeId> = positions.iter().map(|&p| netlist.inputs()[p]).collect();

    let (root1, root2) = session.cone_pair(candidate);
    let hd = session.hd_equals(distance);

    let mut base: Vec<Lit> = vec![root1, root2, hd];
    // Restrict the session-wide distance to the support: every position
    // outside it is forced pairwise equal and contributes zero.
    let mut in_support = vec![false; netlist.num_inputs()];
    for &position in positions {
        in_support[position] = true;
    }
    for (position, &covered) in in_support.iter().enumerate() {
        if !covered {
            base.push(session.input_eq(position));
        }
    }

    let mut x1 = Vec::with_capacity(positions.len());
    let mut x2 = Vec::with_capacity(positions.len());
    let mut eq = Vec::with_capacity(positions.len());
    for &position in positions {
        let (a, b) = session.input_pair(position);
        x1.push(a);
        x2.push(b);
        eq.push(session.input_eq(position));
    }

    HdPairQuery {
        inputs,
        base,
        x1,
        x2,
        eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{distance_2h_in, sliding_window_in};
    use crate::session::StripperVerdict;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::sim::pattern_to_bits;
    use netlist::{GateKind, Netlist};

    type PairAnalysis = fn(&mut AttackSession<'_>, NodeId, usize) -> Option<CubeAssignment>;

    #[test]
    fn decided_candidates_answer_without_a_pair_query() {
        let (m, bits, h) = (8, 0b1011_0010u64, 1);
        let mut nl = Netlist::new("decided");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let strip = hamming_distance_equals_const(&mut nl, &xs, &pattern_to_bits(bits, m), h);
        // One on-set point passes the prefilter; parity fails it.
        let point = nl.add_gate("point", GateKind::And, &xs[..4]);
        let parity = nl.add_gate("parity", GateKind::Xor, &xs[4..]);
        for (name, node) in [("strip", strip), ("point", point), ("parity", parity)] {
            nl.add_output(name, node);
        }
        let cube: CubeAssignment = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (bits >> i) & 1 == 1))
            .collect();
        let candidates = [strip, point, parity];
        let analyses: [PairAnalysis; 2] = [sliding_window_in, distance_2h_in];
        for analyse in analyses {
            let mut fresh = AttackSession::new(&nl);
            let want: Vec<_> = candidates
                .iter()
                .map(|&c| analyse(&mut fresh, c, h))
                .collect();
            assert_eq!(want, [Some(cube.clone()), None, None]);
            assert_eq!(fresh.cone_encodings_built(), 1);

            let mut settled = AttackSession::new(&nl);
            settled.record_proposal(strip, h, StripperVerdict::Stripper(cube.clone()));
            settled.record_proposal(point, h, StripperVerdict::NotStripper);
            settled.record_proposal(parity, h, StripperVerdict::NotStripper);
            let got: Vec<_> = candidates
                .iter()
                .map(|&c| analyse(&mut settled, c, h))
                .collect();
            assert_eq!(got, want);
            assert_eq!(settled.cone_encodings_built(), 0);
            assert_eq!(settled.stats().solves, 0);
            assert_eq!(settled.prefilter_stats(), fresh.prefilter_stats());
        }
    }
}
