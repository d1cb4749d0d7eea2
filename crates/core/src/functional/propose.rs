//! Cube proposal by simulation: the step [`crate::attack::fall_attack_in`]
//! runs on each candidate before the paper's analyses when `0 < h` and
//! `2h < m` (`m` = the candidate's support size).
//!
//! On a true `strip_h(k)`, every satisfying input `x` differs from `k` in a
//! set `D` of exactly `h` support positions.  Flipping support positions 0
//! and `j` of `x` keeps the output 1 exactly when one of the two lies in
//! `D`, so `x` and its `m − 1` pair flips — one 64-lane simulation word —
//! give `D` up to whether position 0 is in it.  The two readings have sizes
//! `s` and `m − s`, and at `2h ≠ m` at most one of them is `h`; the cube is
//! then `x ⊕ D`.  Every other satisfying pattern of the prefilter's distance
//! sweep must lie at distance exactly `h` from it.
//!
//! A contradiction (no reading of size `h`, or a pattern off the sphere) is
//! an exact counterexample to every `strip_h`, recorded as
//! [`StripperVerdict::NotStripper`].  Otherwise the cube is the only one the
//! candidate can be `strip_h` of, recorded as the
//! [`StripperVerdict::Suspect`] that the equivalence check (§ IV-C) then
//! proves or refutes: a [`StripperVerdict::Stripper`] verdict still comes
//! only from an equivalence UNSAT.  The paper's complete analyses answer
//! from the verdict without a solve, so their results do not change.

use netlist::{Netlist, NodeId};

use super::CubeAssignment;
use crate::session::{AttackSession, StripperVerdict};

/// Proposes the cube of `candidate` at `h` from simulation and records the
/// outcome as the candidate's verdict.
///
/// Returns the proposed cube (now the [`StripperVerdict::Suspect`]) for the
/// caller to check with [`crate::equivalence::candidate_equals_strip_in`],
/// or `None` when it recorded [`StripperVerdict::NotStripper`] or nothing.
/// It records nothing when `h == 0`, `2h >= m`, `m > 64`, the candidate
/// already has a verdict, no sweep pattern satisfies the candidate, or two
/// satisfying patterns lie more than `2h` apart (the prefilter's refutation,
/// left to the prefilter).
pub(crate) fn propose_cube_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    if h == 0 || session.stripper_verdict(candidate, h).is_some() {
        return None;
    }
    let positions = session.primary_support(candidate)?;
    let m = positions.len();
    if 2 * h >= m || m > 64 {
        return None;
    }
    let patterns = session
        .prefilter()
        .satisfying_patterns(candidate, &positions, 2 * h)?;
    let &witness = patterns.first()?;
    let netlist = session.netlist();
    let flips = simulate_pair_flips(netlist, candidate, &positions, witness);
    let cube = cube_from_flips(m, h, witness, flips)
        .filter(|&cube| patterns.iter().all(|&p| distance(p, cube) == h));
    let verdict = match cube {
        Some(cube) => StripperVerdict::Suspect(
            positions
                .iter()
                .enumerate()
                .map(|(slot, &position)| (netlist.inputs()[position], (cube >> slot) & 1 == 1))
                .collect(),
        ),
        None => StripperVerdict::NotStripper,
    };
    session.record_proposal(candidate, h, verdict.clone());
    match verdict {
        StripperVerdict::Suspect(cube) => Some(cube),
        _ => None,
    }
}

/// The low `m` bits set.
fn low_bits(m: usize) -> u64 {
    if m >= 64 {
        !0
    } else {
        (1u64 << m) - 1
    }
}

fn distance(a: u64, b: u64) -> usize {
    (a ^ b).count_ones() as usize
}

/// The candidate's output on `witness` (bit 0) and on `witness` with
/// support slots 0 and `j` flipped (bit `j`, `1 <= j < m`), from one
/// single-word simulation.  Patterns are packed over the support as in
/// [`super::Prefilter::satisfying_patterns`]; inputs outside the support
/// and the key inputs, which the candidate does not read, are 0.
fn simulate_pair_flips(
    netlist: &Netlist,
    candidate: NodeId,
    positions: &[usize],
    witness: u64,
) -> u64 {
    let m = positions.len();
    let mut inputs = vec![0u64; netlist.num_inputs()];
    for (slot, &position) in positions.iter().enumerate() {
        let value = if (witness >> slot) & 1 == 1 { !0 } else { 0 };
        let flipped = if slot == 0 {
            low_bits(m) & !1
        } else {
            1 << slot
        };
        inputs[position] = value ^ flipped;
    }
    let keys = vec![0u64; netlist.num_key_inputs()];
    let values = netlist
        .node_words(&inputs, &keys)
        .expect("stimulus widths match the netlist");
    values[candidate.index()] & low_bits(m)
}

/// The one cube `k` at distance `h` from `witness` that agrees with the
/// pair flips' outputs, or `None` when neither reading of `D` has size `h`.
fn cube_from_flips(m: usize, h: usize, witness: u64, flips: u64) -> Option<u64> {
    debug_assert_eq!(flips & 1, 1, "the witness satisfies the candidate");
    // Bit j >= 1 is set iff exactly one of positions 0 and j is in D.
    let kept = flips & !1;
    let differs = if kept.count_ones() as usize == h {
        // Position 0 agrees with k: D is the kept set.
        kept
    } else if m - kept.count_ones() as usize == h {
        // Position 0 differs: D is position 0 plus every flip that dropped.
        low_bits(m) & !kept
    } else {
        return None;
    };
    Some(witness ^ differs)
}

/// The step against truth tables: on seeded random circuits with strippers
/// over all inputs and over a strict subset (plain and strashed), every node
/// at every `h` from 0 to `m`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::candidate_equals_strip_in;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::GateKind;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A random circuit of `n <= 10` inputs plus stripper-shaped nodes, each
    /// an output so that strashing keeps it.
    fn circuit(seed: u64, n: usize) -> Netlist {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spec = RandomCircuitSpec::new(format!("pc{seed}"), n, 2, 30).with_seed(seed);
        let mut nl = generate(&spec);
        let xs = nl.inputs().to_vec();
        let sub = &xs[..6];
        let strip = |nl: &mut Netlist, over: &[NodeId], cube: u64, h: usize| {
            hamming_distance_equals_const(nl, over, &pattern_to_bits(cube, over.len()), h)
        };
        let k_all = rng.gen::<u64>() & low_bits(n);
        let k_sub = rng.gen::<u64>() & low_bits(6);
        let all = strip(&mut nl, &xs, k_all, rng.gen_range(1..n.div_ceil(2)));
        let subset = strip(&mut nl, sub, k_sub, rng.gen_range(1..3));
        // The radius-2 sphere plus a point inside it: its patterns pass the
        // 2h prefilter, and one lies off the sphere.
        let sphere = strip(&mut nl, sub, k_sub, 2);
        let inside = strip(&mut nl, sub, k_sub ^ 1 << rng.gen_range(0..6), 0);
        let plus_point = nl.add_gate("plus_point", GateKind::Or, &[sphere, inside]);
        // The radius-1 sphere minus one of its points.
        let sphere = strip(&mut nl, sub, k_sub, 1);
        let hole = strip(&mut nl, sub, k_sub ^ 1 << rng.gen_range(0..6), 0);
        let not_hole = nl.add_gate("not_hole", GateKind::Not, &[hole]);
        let punctured = nl.add_gate("punctured", GateKind::And, &[sphere, not_hole]);
        for (name, node) in [
            ("all", all),
            ("subset", subset),
            ("plus_point", plus_point),
            ("punctured", punctured),
        ] {
            nl.add_output(name, node);
        }
        nl
    }

    /// `node`'s truth table over its support `positions`: entry `t` is its
    /// value when input `positions[s]` carries bit `s` of `t`.
    fn truth_table(nl: &Netlist, node: NodeId, positions: &[usize]) -> Vec<bool> {
        let rows = 1usize << positions.len();
        let mut table = Vec::with_capacity(rows);
        for chunk in (0..rows).step_by(64) {
            let mut inputs = vec![0u64; nl.num_inputs()];
            for (slot, &position) in positions.iter().enumerate() {
                for bit in 0..64.min(rows - chunk) {
                    inputs[position] |= (((chunk + bit) >> slot) as u64 & 1) << bit;
                }
            }
            let keys = vec![0u64; nl.num_key_inputs()];
            let word = nl.node_words(&inputs, &keys).expect("widths")[node.index()];
            table.extend((0..64.min(rows - chunk)).map(|bit| (word >> bit) & 1 == 1));
        }
        table
    }

    /// Every cube `k` with `node == strip_h(k)`.
    fn stripped_cubes(table: &[bool], m: usize, h: usize) -> Vec<u64> {
        let Some(first) = table.iter().position(|&v| v) else {
            return Vec::new();
        };
        (0..1u64 << m)
            .filter(|&k| distance(first as u64, k) == h)
            .filter(|&k| {
                table
                    .iter()
                    .enumerate()
                    .all(|(x, &v)| v == (distance(x as u64, k) == h))
            })
            .collect()
    }

    #[test]
    fn proposals_match_truth_tables() {
        // (proven strippers with position 0 agreeing / differing, refuted by
        // |D|, refuted by a pattern off the sphere, refuted by equivalence)
        let mut seen = [0usize; 5];
        for (seed, n) in [(1u64, 10usize), (2, 8), (3, 9)] {
            let plain = circuit(seed, n);
            for nl in [strash(&plain), plain] {
                let gates: Vec<NodeId> = nl.gate_ids().collect();
                for node in gates {
                    let mut probe = AttackSession::new(&nl);
                    let Some(positions) = probe.primary_support(node) else {
                        continue;
                    };
                    let m = positions.len();
                    let table = truth_table(&nl, node, &positions);
                    let cube_of = |k: u64| -> CubeAssignment {
                        positions
                            .iter()
                            .enumerate()
                            .map(|(s, &p)| (nl.inputs()[p], (k >> s) & 1 == 1))
                            .collect()
                    };
                    for h in 0..=m {
                        let label = format!("{} {node:?} m={m} h={h}", nl.name());
                        let mut session = AttackSession::new(&nl);
                        if let Some(cube) = propose_cube_in(&mut session, node, h) {
                            candidate_equals_strip_in(&mut session, node, &cube, h);
                        }
                        let verdict = session.stripper_verdict(node, h).cloned();
                        let solves = session.stats().solves;
                        if h == 0 || 2 * h >= m {
                            assert_eq!(verdict, None, "{label}");
                            continue;
                        }
                        let stripped = stripped_cubes(&table, m, h);
                        // What simulation alone can settle, by enumeration:
                        // the cubes at distance h from the witness that
                        // agree with its pair flips and put every sampled
                        // pattern on their sphere.
                        let patterns =
                            session
                                .prefilter()
                                .satisfying_patterns(node, &positions, 2 * h);
                        let Some(&witness) = patterns.as_ref().and_then(|p| p.first()) else {
                            assert_eq!(verdict, None, "{label}");
                            continue;
                        };
                        let patterns = patterns.expect("checked");
                        let on_sphere = |k: u64, x: u64| distance(x, k) == h;
                        let agree: Vec<u64> = (0..1u64 << m)
                            .filter(|&k| on_sphere(k, witness))
                            .filter(|&k| {
                                (1..m).all(|j| {
                                    let x = witness ^ 1 ^ 1 << j;
                                    table[x as usize] == on_sphere(k, x)
                                })
                            })
                            .collect();
                        let consistent: Vec<u64> = agree
                            .iter()
                            .copied()
                            .filter(|&k| patterns.iter().all(|&x| on_sphere(k, x)))
                            .collect();
                        assert!(consistent.len() <= 1, "{label}: {consistent:?}");
                        match consistent.first() {
                            None => {
                                assert_eq!(verdict, Some(StripperVerdict::NotStripper), "{label}");
                                assert_eq!(solves, 0, "{label}: refuted by simulation");
                                seen[if agree.is_empty() { 2 } else { 3 }] += 1;
                            }
                            Some(&k) => {
                                assert_eq!(solves, 1, "{label}: one equivalence solve");
                                if stripped == [k] {
                                    assert_eq!(
                                        verdict,
                                        Some(StripperVerdict::Stripper(cube_of(k))),
                                        "{label}"
                                    );
                                    seen[((witness ^ k) & 1) as usize] += 1;
                                } else {
                                    assert_eq!(
                                        verdict,
                                        Some(StripperVerdict::NotStripper),
                                        "{label}"
                                    );
                                    seen[4] += 1;
                                }
                            }
                        }
                        // Whatever simulation saw: a Stripper verdict names
                        // the one stripped cube, a NotStripper has none.
                        match &verdict {
                            Some(StripperVerdict::Stripper(cube)) => {
                                let stripped: Vec<CubeAssignment> =
                                    stripped.iter().map(|&k| cube_of(k)).collect();
                                assert_eq!(
                                    stripped.as_slice(),
                                    std::slice::from_ref(cube),
                                    "{label}"
                                );
                            }
                            Some(StripperVerdict::NotStripper) => {
                                assert!(stripped.is_empty(), "{label}")
                            }
                            other => panic!("{label}: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&count| count > 0), "{seen:?}");
    }
}
