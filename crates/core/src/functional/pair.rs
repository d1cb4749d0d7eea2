//! Shared machinery for the Hamming-distance analyses: an assumption-query
//! view of "two copies of a candidate cone, simultaneously true, at a fixed
//! Hamming distance".
//!
//! The legacy implementation built a dedicated solver per candidate with the
//! constraint set added as clauses.  The session version reuses the shared
//! cone encodings and the session's all-inputs distance literal
//! [`AttackSession::hd_equals`] (an AND of input equalities for `d = 0`, one
//! popcount network over every input difference for `d > 0`): the formula
//! `F = c(X1) ∧ c(X2) ∧ HD(X1, X2) = d` is expressed purely as assumptions
//! (`root1`, `root2`, the memoized `HD == d` literal, and pairwise-equality
//! literals for every input outside the candidate's support), so building a
//! query for a new candidate adds no clauses once the shared structure
//! exists.

use netlist::NodeId;
use sat::Lit;

use crate::session::AttackSession;

/// An assumption-query for `c(X1) ∧ c(X2) ∧ HD(X1, X2) = distance`.
pub(crate) struct HdPairQuery {
    /// The support inputs of the candidate, sorted by node id.
    pub inputs: Vec<NodeId>,
    /// Their primary-input positions, ascending.
    pub positions: Vec<usize>,
    /// Base assumptions encoding the formula `F` of Algorithms 2 and 3.
    pub base: Vec<Lit>,
    /// Literals of the support inputs in the first copy.
    pub x1: Vec<Lit>,
    /// Literals of the support inputs in the second copy.
    pub x2: Vec<Lit>,
    /// `eq[i]` is true iff `x1[i] == x2[i]`.
    pub eq: Vec<Lit>,
}

/// Builds the assumption query for a candidate at a given distance.
///
/// Returns `None` if the candidate depends on key inputs, has an empty
/// support, or the requested distance exceeds the support size.
pub(crate) fn build_hd_query(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    distance: usize,
) -> Option<HdPairQuery> {
    let positions = session.primary_support(candidate)?;
    if distance > positions.len() {
        return None;
    }
    let netlist = session.netlist();
    let inputs: Vec<NodeId> = positions.iter().map(|&p| netlist.inputs()[p]).collect();

    let (root1, root2) = session.cone_pair(candidate);
    let hd = session.hd_equals(distance);

    let mut base: Vec<Lit> = vec![root1, root2, hd];
    // Restrict the session-wide distance to the support: every position
    // outside it is forced pairwise equal and contributes zero.
    let mut in_support = vec![false; session.netlist().num_inputs()];
    for &position in &positions {
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
    for &position in &positions {
        let (a, b) = session.input_pair(position);
        x1.push(a);
        x2.push(b);
        eq.push(session.input_eq(position));
    }

    Some(HdPairQuery {
        inputs,
        positions,
        base,
        x1,
        x2,
        eq,
    })
}
