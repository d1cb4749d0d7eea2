//! Settling candidates before the paper's analyses: the step
//! [`crate::attack::fall_attack_in`] runs on each candidate before its
//! analyses.  One entry point, [`propose_cube_in`], takes one of three paths
//! by the candidate's support size `m` and `h`:
//!
//! * **`m <= 12`, `2h != m`: enumeration.**  One sweep of
//!   `2^m / 64` simulation words puts every assignment of the support on
//!   its own lane (every other input and key at 0), which is every node's
//!   complete truth table over that support.  The session keeps the sweep
//!   for its support ([`Enumeration`]): every candidate of an attack has
//!   the same support, the protected inputs, so one sweep serves them all.
//!   Like every simulation of the functional stage, it evaluates only the
//!   candidates' fan-in cones ([`netlist::Cover`]).
//!   A `strip_h(k)` has exactly `C(m, h)` satisfying inputs, and at each
//!   position `C(m − 1, h)` of them agree with `k`, the other
//!   `C(m − 1, h − 1)` differ; so `k` is the per-position majority of the
//!   on-set at `2h < m` and its minority at `2h > m`.  The on-set is that
//!   sphere exactly when it has the sphere's size and every point lies at
//!   distance `h` from that cube: an exact decision, recorded as
//!   [`StripperVerdict::Stripper`] or [`StripperVerdict::NotStripper`]
//!   with no solve.
//! * **`m > 12`, `h = 0`: one witness solve.**  `strip_0(k)` is the cube
//!   itself, true on `k` alone.  One cone solve of `F = 1` either proves
//!   `F ≡ 0` (UNSAT, not a cube) or returns a witness `x`; if any of its `m`
//!   single flips, simulated in one 64-lane word, still satisfies the
//!   candidate, `F` is not a cube either.  Otherwise `x` is the only cube
//!   the candidate can be, recorded as the [`StripperVerdict::Suspect`].
//! * **`m > 12`, `0 < h`, `2h < m`: pair flips of a sweep witness.**  Every
//!   satisfying input `x` of a true `strip_h(k)` differs from `k` in a set
//!   `D` of exactly `h` support positions.  Flipping support positions 0
//!   and `j` of `x` keeps the output 1 exactly when one of the two lies in
//!   `D`, so `x` and its `m − 1` pair flips — one 64-lane simulation word —
//!   give `D` up to whether position 0 is in it.  The two readings have
//!   sizes `s` and `m − s`, and at `2h ≠ m` at most one of them is `h`; the
//!   cube is then `x ⊕ D`.  Every other satisfying pattern of the
//!   prefilter's distance sweep must lie at distance exactly `h` from it.
//!   A contradiction (no reading of size `h`, or a pattern off the sphere)
//!   is an exact counterexample to every `strip_h`, recorded as
//!   [`StripperVerdict::NotStripper`]; otherwise the cube is the
//!   [`StripperVerdict::Suspect`].
//!
//! The equivalence check (§ IV-C) proves or refutes a suspect.  The
//! paper's complete analyses answer from the verdict without a solve, so
//! their results do not change.

use netlist::{Cover, Netlist, NodeId, WideSim};
use sat::SolveResult;

use super::CubeAssignment;
use crate::session::{AttackSession, StripperVerdict};

/// The widest support the step enumerates: `2^12` assignments, 64
/// simulation words per node.
const ENUMERATION_LIMIT: usize = 12;

/// Settles `candidate` at `h` before any analysis runs and records the
/// outcome as the candidate's verdict (see the [module docs](self) for the
/// three paths).
///
/// Returns the proposed cube (now the [`StripperVerdict::Suspect`]) for the
/// caller to check with [`crate::equivalence::candidate_equals_strip_in`],
/// or `None` when it recorded a decided verdict or nothing.  It records
/// nothing when the candidate already has a verdict or `m > 64`; at
/// `m <= 12` when `2h == m` or `h > m`; at `m > 12` when `2h >= m`, when
/// the witness solve comes back [`SolveResult::Unknown`], when no sweep
/// pattern satisfies the candidate, or when two satisfying patterns lie
/// more than `2h` apart (the prefilter's refutation, left to the
/// prefilter).
pub(crate) fn propose_cube_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    if session.stripper_verdict(candidate, h).is_some() {
        return None;
    }
    let positions = session.primary_support(candidate)?;
    let m = positions.len();
    let proposal = if m <= ENUMERATION_LIMIT {
        decide_by_enumeration(session, candidate, &positions, h)
    } else if m > 64 || 2 * h >= m {
        None
    } else if h == 0 {
        propose_by_witness_solve(session, candidate, &positions)
    } else {
        propose_by_pair_flips(session, candidate, &positions, h)
    }?;
    record(session, candidate, &positions, h, proposal)
}

/// Records `proposal` as `candidate`'s verdict at `h` and returns the
/// suspect cube, if it is one.
fn record(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
    h: usize,
    proposal: Proposal,
) -> Option<CubeAssignment> {
    let netlist = session.netlist();
    let assignment = |cube: u64| -> CubeAssignment {
        positions
            .iter()
            .enumerate()
            .map(|(slot, &position)| (netlist.inputs()[position], (cube >> slot) & 1 == 1))
            .collect()
    };
    let (verdict, suspect) = match proposal {
        Proposal::Stripper(cube) => (StripperVerdict::Stripper(assignment(cube)), None),
        Proposal::Suspect(cube) => {
            let cube = assignment(cube);
            (StripperVerdict::Suspect(cube.clone()), Some(cube))
        }
        Proposal::NotStripper => (StripperVerdict::NotStripper, None),
    };
    session.record_proposal(candidate, h, verdict);
    suspect
}

/// What one path concluded.  Cubes are packed over the support: bit `s` is
/// the value of input `positions[s]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proposal {
    /// Decided by enumeration: the candidate is `strip_h` of this cube.
    Stripper(u64),
    /// The only cube the candidate can be `strip_h` of.
    Suspect(u64),
    /// An exact counterexample to every `strip_h`.
    NotStripper,
}

/// Every node's complete truth table over one set of input positions
/// (at most [`ENUMERATION_LIMIT`] of them), which the session's prefilter
/// keeps for its support ([`super::Prefilter::enumeration`]).  Only the
/// cover's nodes have one.
pub(crate) struct Enumeration {
    positions: Vec<usize>,
    sim: WideSim,
}

impl Enumeration {
    /// One sweep of `cover` with every assignment of `positions` on its own
    /// lane: lane `t` gives input `positions[s]` bit `s` of `t`, every other
    /// input and every key 0.  Supports under 6 inputs fill one word,
    /// repeating the `2^m` assignments.
    pub(crate) fn run(netlist: &Netlist, cover: &Cover, positions: &[usize]) -> Enumeration {
        /// Lane `t` of word `s` is bit `s` of `t`, for `s < 6`.
        const LANE_BITS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        assert!(positions.len() <= ENUMERATION_LIMIT, "support too wide");
        let width = (1usize << positions.len()).div_ceil(64);
        let mut inputs = vec![0u64; netlist.num_inputs() * width];
        for (slot, &position) in positions.iter().enumerate() {
            for (word, lanes) in inputs[position * width..][..width].iter_mut().enumerate() {
                *lanes = match slot {
                    0..=5 => LANE_BITS[slot],
                    _ if (word >> (slot - 6)) & 1 == 1 => !0,
                    _ => 0,
                };
            }
        }
        let keys = vec![0u64; netlist.num_key_inputs() * width];
        let mut sim = WideSim::new(netlist, width);
        sim.run_cover(netlist, cover, &inputs, &keys)
            .expect("stimulus widths match the netlist");
        Enumeration {
            positions: positions.to_vec(),
            sim,
        }
    }

    /// The input positions this sweep enumerates.
    pub(crate) fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// `node`'s truth table: bit `t % 64` of word `t / 64` is its value on
    /// assignment `t`, with the lanes past `2^m` cleared.
    fn table(&self, node: NodeId) -> impl Iterator<Item = u64> + '_ {
        let rows = low_bits(1 << self.positions.len());
        self.sim.node(node).iter().map(move |&lanes| lanes & rows)
    }
}

/// Path 1: decides `candidate` at `h` from its truth table over `positions`
/// (`m <= 12`).  Returns `None` at `2h == m`, where `k` and its complement
/// give the same sphere, and at `h > m`, where `strip_h` is constant 0.
fn decide_by_enumeration(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
    h: usize,
) -> Option<Proposal> {
    let m = positions.len();
    if 2 * h == m || h > m {
        return None;
    }
    let enumeration = session.prefilter().enumeration(candidate, positions);
    let size: usize = enumeration
        .table(candidate)
        .map(|lanes| lanes.count_ones() as usize)
        .sum();
    if size != binomial(m, h) {
        return Some(Proposal::NotStripper);
    }
    let mut on_set = Vec::with_capacity(size);
    for (word, mut lanes) in enumeration.table(candidate).enumerate() {
        while lanes != 0 {
            on_set.push(64 * word as u64 + u64::from(lanes.trailing_zeros()));
            lanes &= lanes - 1;
        }
    }
    // Majority of the on-set at 2h < m, minority at 2h > m; a tie is no
    // sphere, and either choice fails the distance test below.
    let cube = (0..m)
        .filter(|&s| {
            let ones = on_set.iter().filter(|&&x| (x >> s) & 1 == 1).count();
            (2 * ones > on_set.len()) == (2 * h < m)
        })
        .fold(0u64, |cube, s| cube | 1 << s);
    Some(if on_set.iter().all(|&x| distance(x, cube) == h) {
        Proposal::Stripper(cube)
    } else {
        Proposal::NotStripper
    })
}

/// `C(m, h)`.
fn binomial(m: usize, h: usize) -> usize {
    (0..h).fold(1, |c, i| c * (m - i) / (i + 1))
}

/// Path 2: one cone solve of `F = 1` at `h = 0`, then the witness's single
/// flips.  `None` when the solve is undecided.
fn propose_by_witness_solve(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
) -> Option<Proposal> {
    let root = session.cone_lit(candidate);
    match session.check_cone_property(&[root]) {
        SolveResult::Sat => {}
        SolveResult::Unsat => return Some(Proposal::NotStripper),
        SolveResult::Unknown => return None,
    }
    let mut witness = 0u64;
    for (slot, &position) in positions.iter().enumerate() {
        let (x1, _) = session.input_pair(position);
        witness |= u64::from(session.value(x1).expect("model")) << slot;
    }
    let flips = simulate_flips(session, candidate, positions, witness, |slot| 1 << slot);
    Some(if flips == 0 {
        Proposal::Suspect(witness)
    } else {
        Proposal::NotStripper
    })
}

/// Path 3: the first satisfying pattern of the prefilter's distance sweep
/// and its pair flips, `0 < h`, `2h < m <= 64`.  `None` when the sweep has
/// no satisfying pattern or two of them lie more than `2h` apart.
fn propose_by_pair_flips(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
    h: usize,
) -> Option<Proposal> {
    let m = positions.len();
    let patterns = session
        .prefilter()
        .satisfying_patterns(candidate, positions, 2 * h)?;
    let &witness = patterns.first()?;
    // Lane 0 is the witness; lane j >= 1 flips positions 0 and j.
    let flips = simulate_flips(session, candidate, positions, witness, |slot| {
        if slot == 0 {
            low_bits(m) & !1
        } else {
            1 << slot
        }
    });
    let cube = cube_from_flips(m, h, witness, flips)
        .filter(|&cube| patterns.iter().all(|&p| distance(p, cube) == h));
    Some(match cube {
        Some(cube) => Proposal::Suspect(cube),
        None => Proposal::NotStripper,
    })
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

/// The candidate's output on `witness` with support slot `s` flipped in the
/// lanes `flipped(s)` (lanes `0..m`), from one single-word simulation of
/// the session's cover ([`super::Prefilter::simulate_word`]).  Patterns are
/// packed over the support as in [`super::Prefilter::satisfying_patterns`];
/// inputs outside the support and the key inputs, which the candidate does
/// not read, are 0.
fn simulate_flips(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    positions: &[usize],
    witness: u64,
    flipped: impl Fn(usize) -> u64,
) -> u64 {
    let lanes = |slot: usize| {
        let value = if (witness >> slot) & 1 == 1 { !0 } else { 0 };
        value ^ flipped(slot)
    };
    session
        .prefilter()
        .simulate_word(candidate, positions, lanes)
        & low_bits(positions.len())
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

/// The step against truth tables: every node of seeded random circuits with
/// stripper-shaped nodes added (plain and strashed), at every `h` from 0 to
/// `m`, through the entry point and through each SAT-backed path alone.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{fall_attack_in, FallAttackConfig, FallStatus};
    use crate::equivalence::{candidate_equals_strip, candidate_equals_strip_in};
    use crate::functional::Analysis;
    use locking::{LockingScheme, TtLock};
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::GateKind;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn strip(nl: &mut Netlist, over: &[NodeId], cube: u64, h: usize) -> NodeId {
        hamming_distance_equals_const(nl, over, &pattern_to_bits(cube, over.len()), h)
    }

    /// A random circuit of `n >= 6` inputs plus stripper-shaped nodes, each
    /// an output so that strashing keeps it.
    fn circuit(seed: u64, n: usize) -> Netlist {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spec = RandomCircuitSpec::new(format!("pc{seed}"), n, 2, 30).with_seed(seed);
        let mut nl = generate(&spec);
        let xs = nl.inputs().to_vec();
        let sub = &xs[..6];
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
        // Two points at distance 3, and nothing (a sphere and its
        // complement; strashing may fold it to a constant).
        let point = strip(&mut nl, sub, k_sub, 0);
        let far = strip(&mut nl, sub, k_sub ^ 0b111, 0);
        let two_points = nl.add_gate("two_points", GateKind::Or, &[point, far]);
        let not_point = nl.add_gate("not_point", GateKind::Not, &[point]);
        let never = nl.add_gate("never", GateKind::And, &[point, not_point]);
        for (name, node) in [
            ("all", all),
            ("subset", subset),
            ("plus_point", plus_point),
            ("punctured", punctured),
            ("two_points", two_points),
            ("never", never),
        ] {
            nl.add_output(name, node);
        }
        nl
    }

    /// [`circuit`] plus, for every width `s` from 1 to `n`, `strip_h` of a
    /// random cube over the first `s` inputs at a random `h` in `0..=s`.
    fn circuit_with_prefix_strippers(seed: u64, n: usize) -> Netlist {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let mut nl = circuit(seed, n);
        let xs = nl.inputs().to_vec();
        for s in 1..=n {
            let cube = rng.gen::<u64>() & low_bits(s);
            let node = strip(&mut nl, &xs[..s], cube, rng.gen_range(0..s + 1));
            nl.add_output(format!("prefix{s}"), node);
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

    /// Every cube `k` with `node == strip_h(k)`: the cubes at distance `h`
    /// from the first satisfying row whose sphere is the whole on-set.
    fn stripped_cubes(table: &[bool], m: usize, h: usize) -> Vec<u64> {
        let on: Vec<u64> = (0..table.len() as u64)
            .filter(|&x| table[x as usize])
            .collect();
        let sphere = (0..h).fold(1usize, |c, i| c * (m - i) / (i + 1));
        let Some(&first) = on.first().filter(|_| on.len() == sphere) else {
            return Vec::new();
        };
        (0..1u64 << m)
            .filter(|&k| distance(first, k) == h)
            .filter(|&k| on.iter().all(|&x| distance(x, k) == h))
            .collect()
    }

    fn cube_of(nl: &Netlist, positions: &[usize], k: u64) -> CubeAssignment {
        positions
            .iter()
            .enumerate()
            .map(|(s, &p)| (nl.inputs()[p], (k >> s) & 1 == 1))
            .collect()
    }

    /// Every node's value on every assignment of all inputs: word `r / 64`
    /// of node `v` is `sweeps[r / 64][v]`, input `i` carrying bit `i` of row
    /// `r` (up to 13 inputs).
    fn all_rows(nl: &Netlist) -> Vec<Vec<u64>> {
        let rows = 1usize << nl.num_inputs();
        (0..rows)
            .step_by(64)
            .map(|chunk| {
                let inputs: Vec<u64> = (0..nl.num_inputs())
                    .map(|i| {
                        (0..64.min(rows - chunk))
                            .map(|bit| (((chunk + bit) >> i) as u64 & 1) << bit)
                            .fold(0, |word, b| word | b)
                    })
                    .collect();
                let keys = vec![0u64; nl.num_key_inputs()];
                nl.node_words(&inputs, &keys).expect("widths")
            })
            .collect()
    }

    /// [`truth_table`] read off [`all_rows`]: row `t` of the support puts
    /// bit `s` of `t` on input `positions[s]` and 0 on every other input.
    fn project(sweeps: &[Vec<u64>], node: NodeId, positions: &[usize]) -> Vec<bool> {
        (0..1usize << positions.len())
            .map(|t| {
                let row = positions
                    .iter()
                    .enumerate()
                    .fold(0, |row, (s, &p)| row | ((t >> s) & 1) << p);
                (sweeps[row / 64][node.index()] >> (row % 64)) & 1 == 1
            })
            .collect()
    }

    #[test]
    fn enumeration_matches_truth_tables() {
        // (proven strippers, refuted by size, refuted by distance, m = 13
        // fallbacks)
        let mut seen = [0usize; 4];
        // Widths 1 to 12, and one m = 13 stripper, which takes the
        // fallback paths.
        let mut fallback = Netlist::new("fallback");
        let xs: Vec<NodeId> = (0..13)
            .map(|i| fallback.add_input(format!("x{i}")))
            .collect();
        let stripper = strip(&mut fallback, &xs, 0b1_0110_1001_1100, 3);
        fallback.add_output("strip", stripper);
        for plain in [circuit_with_prefix_strippers(1, 12), fallback] {
            for nl in [strash(&plain), plain] {
                let mut session = AttackSession::new(&nl);
                let sweeps = all_rows(&nl);
                let gates: Vec<NodeId> = nl.gate_ids().collect();
                for node in gates {
                    let Some(positions) = session.primary_support(node) else {
                        continue;
                    };
                    let m = positions.len();
                    let table = project(&sweeps, node, &positions);
                    for h in 0..=m {
                        let label = format!("{} {node:?} m={m} h={h}", nl.name());
                        let solves = session.stats().solves;
                        let suspect = propose_cube_in(&mut session, node, h);
                        if m > ENUMERATION_LIMIT {
                            if let Some(cube) = &suspect {
                                candidate_equals_strip_in(&mut session, node, cube, h);
                            }
                        } else {
                            assert_eq!(suspect, None, "{label}: decided");
                            assert_eq!(session.stats().solves, solves, "{label}: no solve");
                        }
                        let verdict = session.stripper_verdict(node, h).cloned();
                        let stripped = stripped_cubes(&table, m, h);
                        let size = table.iter().filter(|&&v| v).count();
                        // The cube the verdict is checked against: the
                        // stripped one, or one at distance h from a
                        // satisfying row.
                        let k = match (stripped.as_slice(), table.iter().position(|&v| v)) {
                            ([k], _) => *k,
                            (_, Some(first)) => first as u64 ^ low_bits(h),
                            (_, None) => low_bits(h),
                        };
                        let cube = cube_of(&nl, &positions, k);
                        // The equivalence check on a fresh session, where
                        // the on-set has a sphere's size (elsewhere the
                        // truth table alone decides, and a solve each would
                        // dominate the test).
                        let proven = (size == binomial(m, h))
                            .then(|| candidate_equals_strip(&nl, node, &cube, h));
                        match &verdict {
                            _ if m <= ENUMERATION_LIMIT && 2 * h == m => {
                                assert_eq!(verdict, None, "{label}: 2h = m");
                                continue;
                            }
                            None => {
                                assert!(m > ENUMERATION_LIMIT, "{label}: undecided");
                                continue;
                            }
                            Some(StripperVerdict::Stripper(c)) => {
                                assert_eq!(stripped, [k], "{label}");
                                assert_eq!(c, &cube, "{label}");
                                assert_eq!(proven, Some(true), "{label}: the check agrees");
                                seen[0] += 1;
                            }
                            Some(StripperVerdict::NotStripper) => {
                                assert!(stripped.is_empty(), "{label}: {stripped:?}");
                                assert_ne!(proven, Some(true), "{label}: the check agrees");
                                seen[if size == binomial(m, h) { 2 } else { 1 }] += 1;
                            }
                            Some(StripperVerdict::Suspect(_)) => panic!("{label}: undecided"),
                        }
                        if m > ENUMERATION_LIMIT {
                            seen[3] += 1;
                        }
                        // The check answers from the verdict.
                        let solves = session.stats().solves;
                        assert_eq!(
                            candidate_equals_strip_in(&mut session, node, &cube, h),
                            verdict == Some(StripperVerdict::Stripper(cube.clone())),
                            "{label}"
                        );
                        assert_eq!(session.stats().solves, solves, "{label}");
                    }
                }
            }
        }
        assert!(seen.iter().all(|&count| count > 0), "{seen:?}");
    }

    /// `F = AND` of the inputs of `nl` at the polarities of `cube`.
    fn cube_gate(nl: &mut Netlist, xs: &[NodeId], cube: u64, name: &str) -> NodeId {
        let literals: Vec<NodeId> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| match (cube >> i) & 1 {
                1 => x,
                _ => nl.add_gate(format!("{name}_n{i}"), GateKind::Not, &[x]),
            })
            .collect();
        nl.add_gate(name, GateKind::And, &literals)
    }

    #[test]
    fn one_witness_solve_settles_h0_candidates_over_wide_supports() {
        let m = 14;
        let cube = 0b10_1100_1110_0101;
        let mut nl = Netlist::new("h0");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let single = cube_gate(&mut nl, &xs, cube, "single");
        // The cube minus x0, which then is free: two satisfying inputs.
        let rest = cube_gate(&mut nl, &xs[1..], cube >> 1, "rest");
        let not_x0 = nl.add_gate("not_x0", GateKind::Not, &[xs[0]]);
        let free = nl.add_gate("free", GateKind::Or, &[xs[0], not_x0]);
        let two = nl.add_gate("two", GateKind::And, &[rest, free]);
        // The cube and x0's complement: nothing satisfies it.
        let flipped = nl.add_gate("flipped", GateKind::Xor, &[xs[0], single]);
        let empty = nl.add_gate("empty", GateKind::And, &[single, flipped]);
        for (name, node) in [("single", single), ("two", two), ("empty", empty)] {
            nl.add_output(name, node);
        }
        let mut session = AttackSession::new(&nl);
        let positions: Vec<usize> = (0..m).collect();
        assert_eq!(session.primary_support(empty), Some(positions.clone()));

        // F ≡ 0: the witness solve is UNSAT.
        assert_eq!(propose_cube_in(&mut session, empty, 0), None);
        assert_eq!(
            session.stripper_verdict(empty, 0),
            Some(&StripperVerdict::NotStripper)
        );
        assert_eq!(session.stats().solves, 1);
        // Two satisfying inputs at distance 1: the witness's x0 flip.
        assert_eq!(propose_cube_in(&mut session, two, 0), None);
        assert_eq!(
            session.stripper_verdict(two, 0),
            Some(&StripperVerdict::NotStripper)
        );
        assert_eq!(session.stats().solves, 2);
        // A cube: the witness is the suspect, and equivalence proves it.
        let expected = cube_of(&nl, &positions, cube);
        assert_eq!(
            propose_cube_in(&mut session, single, 0),
            Some(expected.clone())
        );
        assert!(candidate_equals_strip_in(
            &mut session,
            single,
            &expected,
            0
        ));
        assert_eq!(
            session.stripper_verdict(single, 0),
            Some(&StripperVerdict::Stripper(expected))
        );
        assert_eq!(session.stats().solves, 4);
        // A settled candidate costs nothing.
        assert_eq!(propose_cube_in(&mut session, single, 0), None);
        assert_eq!(session.stats().solves, 4);
    }

    #[test]
    fn a_strashed_ttlock_lock_over_14_inputs_needs_few_solves() {
        let original = generate(&RandomCircuitSpec::new("h0_tt", 18, 3, 120).with_seed(7));
        let locked = TtLock::new(14)
            .with_seed(11)
            .lock(&original)
            .expect("lock")
            .optimized();
        let mut session = AttackSession::new(&locked.locked);
        let result = fall_attack_in(&mut session, None, &FallAttackConfig::for_h(0));
        assert_eq!(result.key_width, 14);
        assert_eq!(result.status, FallStatus::UniqueKey, "{result:?}");
        assert_eq!(result.best_key(), Some(&locked.key));
        // The paper's analyses alone, on a session of their own.
        let mut config = FallAttackConfig::for_h(0);
        config.analyses = Some(Analysis::applicable(0, 14));
        let mut plain = AttackSession::new(&locked.locked);
        let alone = fall_attack_in(&mut plain, None, &config);
        assert_eq!(
            (
                &alone.shortlisted_keys,
                &alone.analyses_used,
                alone.prefilter
            ),
            (
                &result.shortlisted_keys,
                &result.analyses_used,
                result.prefilter
            )
        );
        // One witness solve per candidate the unateness prefilter leaves
        // open at most, plus the stripper's equivalence check.
        let (solves, paper) = (session.stats().solves, plain.stats().solves);
        assert!(solves <= result.num_candidates as u64 + 1, "{solves}");
        assert!(solves < paper, "{solves} >= {paper}");
    }

    /// The record-and-check flow of the entry point, for one path's result.
    fn settle(
        session: &mut AttackSession<'_>,
        node: NodeId,
        positions: &[usize],
        h: usize,
        proposal: Option<Proposal>,
    ) {
        let suspect = proposal.and_then(|p| record(session, node, positions, h, p));
        if let Some(cube) = suspect {
            candidate_equals_strip_in(session, node, &cube, h);
        }
    }

    #[test]
    fn proposals_match_truth_tables() {
        // Pair flips: proven strippers with position 0 agreeing / differing,
        // refuted by |D|, refuted by a pattern off the sphere, refuted by
        // equivalence.  Witness solve: proven cube, refuted by UNSAT, by a
        // flip, by equivalence.
        let mut seen = [0usize; 9];
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
                    let cube_of = |k: u64| cube_of(&nl, &positions, k);
                    for h in 0..=m {
                        let label = format!("{} {node:?} m={m} h={h}", nl.name());
                        let stripped = stripped_cubes(&table, m, h);
                        let mut session = AttackSession::new(&nl);
                        if h == 0 {
                            // The witness path, whatever the support size.
                            let proposal = propose_by_witness_solve(&mut session, node, &positions)
                                .expect("no interrupt");
                            settle(&mut session, node, &positions, h, Some(proposal));
                            let verdict = session.stripper_verdict(node, h).cloned();
                            let solves = session.stats().solves;
                            let on: Vec<u64> =
                                (0..1u64 << m).filter(|&x| table[x as usize]).collect();
                            match proposal {
                                Proposal::NotStripper if on.is_empty() => {
                                    assert_eq!(solves, 1, "{label}");
                                    seen[6] += 1;
                                }
                                Proposal::NotStripper => {
                                    assert_eq!(solves, 1, "{label}");
                                    let adjacent =
                                        on.iter().any(|&x| on.iter().any(|&y| distance(x, y) == 1));
                                    assert!(adjacent, "{label}: a flip satisfies it");
                                    seen[7] += 1;
                                }
                                Proposal::Suspect(w) => {
                                    assert_eq!(solves, 2, "{label}: one equivalence solve");
                                    assert!(table[w as usize], "{label}: a witness");
                                    assert!((0..m).all(|j| !table[(w ^ 1 << j) as usize]));
                                    if stripped == [w] {
                                        assert_eq!(
                                            verdict,
                                            Some(StripperVerdict::Stripper(cube_of(w))),
                                            "{label}"
                                        );
                                        seen[5] += 1;
                                    } else {
                                        assert_eq!(
                                            verdict,
                                            Some(StripperVerdict::NotStripper),
                                            "{label}"
                                        );
                                        seen[8] += 1;
                                    }
                                }
                                Proposal::Stripper(_) => panic!("{label}: not decided"),
                            }
                            if verdict == Some(StripperVerdict::NotStripper) {
                                assert!(stripped.is_empty(), "{label}");
                            }
                            continue;
                        }
                        if 2 * h >= m {
                            continue;
                        }
                        let proposal = propose_by_pair_flips(&mut session, node, &positions, h);
                        settle(&mut session, node, &positions, h, proposal);
                        let verdict = session.stripper_verdict(node, h).cloned();
                        let solves = session.stats().solves;
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
