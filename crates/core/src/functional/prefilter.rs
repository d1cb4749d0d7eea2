//! Word-parallel simulation pre-filters for the functional analyses.
//!
//! Before issuing SAT queries, candidates are screened with the wide
//! multi-word simulator ([`netlist::WideSim`]): a few hundred random
//! patterns often produce a concrete *witness* that rules a candidate (or
//! one polarity of a variable) out.  All rejections are backed by explicit
//! counterexamples, never by absence of evidence, so a **true cube
//! stripper is never rejected** and recovered cubes are unchanged.  Spurious
//! candidates (non-strippers that the unfiltered Hamming-distance analyses
//! might still have turned into junk cubes for the equivalence check to
//! discard) can additionally be filtered out here — a strict improvement,
//! but not bit-for-bit identical shortlists when the equivalence check is
//! disabled.
//!
//! Both filters operate on whole wide blocks of the caller's reusable
//! [`WideSim`] scratch (the session owns one, see
//! [`crate::session::AttackSession::wide_sim_parts`]): one netlist sweep
//! evaluates `width * 64` patterns, lane words are scanned with bitwise
//! masks and `count_ones`, and the per-block scan exits early once a
//! refutation witness is found.  Every decision is tallied in
//! [`PrefilterStats`], which the attack surfaces on its result.

use netlist::analysis::input_positions;
use netlist::{Netlist, NodeId, WideSim};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fixed seed: the filters are part of deterministic analyses.
const SEED: u64 = 0xFA11_F17E;

/// `SolverStats`-style counters for the word-parallel prefilter path,
/// accumulated per session and surfaced on
/// [`crate::attack::FallAttackResult`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Unateness polarities refuted by an explicit monotonicity-violation
    /// witness (each skips one SAT query).
    pub polarities_refuted: u64,
    /// Candidates rejected outright before any SAT query: unateness found a
    /// variable refuted in both polarities, or the distance filter found two
    /// satisfying assignments too far apart.
    pub candidates_refuted: u64,
    /// Patterns pushed through the wide simulator by the filters
    /// (`width * 64` per sweep).
    pub patterns_simulated: u64,
    /// Wide netlist sweeps performed.
    pub sweeps: u64,
}

impl PrefilterStats {
    /// Accumulates `other` into `self` (used to total the counters of
    /// several attacks, e.g. every FALL job a service target ran).
    pub fn merge(&mut self, other: &PrefilterStats) {
        self.polarities_refuted += other.polarities_refuted;
        self.candidates_refuted += other.candidates_refuted;
        self.patterns_simulated += other.patterns_simulated;
        self.sweeps += other.sweeps;
    }

    /// Total prefilter refutations (polarity- plus candidate-level), the
    /// headline counter tracked by bench-smoke.
    pub fn total_refuted(&self) -> u64 {
        self.polarities_refuted + self.candidates_refuted
    }
}

/// For every support input of `candidate`, tests both unateness polarities on
/// random patterns and reports which are still possible:
/// `(may_be_positive, may_be_negative)`.
///
/// `false` entries are backed by an explicit monotonicity-violation witness,
/// so the corresponding SAT query is guaranteed to come back satisfiable and
/// can be skipped.  `(false, false)` for any variable proves the candidate is
/// not unate at all.
///
/// Each support variable costs two wide sweeps (both cofactors over
/// `sim.width() * 64` shared random patterns); the lane scan exits early
/// once both polarities are refuted.
pub(crate) fn unateness_polarities(
    netlist: &Netlist,
    candidate: NodeId,
    support: &[NodeId],
    sim: &mut WideSim,
    stats: &mut PrefilterStats,
) -> Vec<(bool, bool)> {
    let _span = crate::trace::span("prefilter_sweep");
    let positions = input_positions(netlist, support);
    let w = sim.width();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut result = vec![(true, true); support.len()];

    let base: Vec<u64> = (0..netlist.num_inputs() * w).map(|_| rng.gen()).collect();
    let keys: Vec<u64> = (0..netlist.num_key_inputs() * w)
        .map(|_| rng.gen())
        .collect();
    let mut probe = base.clone();
    let mut f0 = vec![0u64; w];
    for (slot, &position) in positions.iter().enumerate() {
        // Cofactor x_i = 0 across every lane, then x_i = 1; all other pins
        // keep the shared random block.
        probe[position * w..][..w].fill(0);
        sim.run(netlist, &probe, &keys)
            .expect("widths are consistent");
        f0.copy_from_slice(sim.node(candidate));
        probe[position * w..][..w].fill(!0u64);
        sim.run(netlist, &probe, &keys)
            .expect("widths are consistent");
        let f1 = sim.node(candidate);
        probe[position * w..][..w].copy_from_slice(&base[position * w..][..w]);
        stats.sweeps += 2;
        stats.patterns_simulated += 2 * (w as u64) * 64;

        // A pattern with f(x_i=0) > f(x_i=1) refutes positive unateness;
        // the mirror image refutes negative unateness.
        let (mut may_pos, mut may_neg) = (true, true);
        for (lane, &lo) in f0.iter().enumerate() {
            let hi = f1[lane];
            may_pos &= lo & !hi == 0;
            may_neg &= !lo & hi == 0;
            if !may_pos && !may_neg {
                break;
            }
        }
        if !may_pos {
            stats.polarities_refuted += 1;
            result[slot].0 = false;
        }
        if !may_neg {
            stats.polarities_refuted += 1;
            result[slot].1 = false;
        }
    }
    if result.iter().any(|&(p, n)| !p && !n) {
        stats.candidates_refuted += 1;
    }
    result
}

/// Tests whether random satisfying assignments of `candidate` stay within
/// Hamming distance `max_distance` of each other over the support positions.
///
/// A cube-stripping function `HD(X, cube) == h` is satisfied only on the
/// radius-`h` sphere around the cube, so any two satisfying assignments are
/// within distance `2h`.  Finding two satisfying patterns further apart is a
/// sound proof that the candidate is not the stripper for the assumed `h`.
///
/// One wide sweep evaluates the whole probe block; satisfying lanes are
/// harvested with trailing-zeros scans, pairwise distances are plain
/// `count_ones` on packed support bits, and the first witness pair exits.
///
/// Returns `false` only when such a witness pair was found.  Supports wider
/// than 64 bits skip the filter (returns `true`).
pub(crate) fn satisfying_within_distance(
    netlist: &Netlist,
    candidate: NodeId,
    support: &[NodeId],
    max_distance: usize,
    sim: &mut WideSim,
    stats: &mut PrefilterStats,
) -> bool {
    if support.len() > 64 || max_distance >= support.len() {
        return true;
    }
    let _span = crate::trace::span("prefilter_sweep");
    let positions = input_positions(netlist, support);
    let w = sim.width();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x5EA9_C0DE);
    let inputs: Vec<u64> = (0..netlist.num_inputs() * w).map(|_| rng.gen()).collect();
    let keys: Vec<u64> = (0..netlist.num_key_inputs() * w)
        .map(|_| rng.gen())
        .collect();
    sim.run(netlist, &inputs, &keys)
        .expect("widths are consistent");
    stats.sweeps += 1;
    stats.patterns_simulated += (w as u64) * 64;

    let mut witnesses: Vec<u64> = Vec::new();
    for lane in 0..w {
        let mut satisfied = sim.node(candidate)[lane];
        while satisfied != 0 {
            let bit = satisfied.trailing_zeros();
            satisfied &= satisfied - 1;
            let mut pattern = 0u64;
            for (slot, &position) in positions.iter().enumerate() {
                pattern |= ((inputs[position * w + lane] >> bit) & 1) << slot;
            }
            for &earlier in &witnesses {
                if (earlier ^ pattern).count_ones() as usize > max_distance {
                    stats.candidates_refuted += 1;
                    return false;
                }
            }
            if witnesses.len() < 256 && !witnesses.contains(&pattern) {
                witnesses.push(pattern);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::sim::pattern_to_bits;
    use netlist::{GateKind, DEFAULT_WIDE_WORDS};

    fn filter_parts(nl: &Netlist) -> (WideSim, PrefilterStats) {
        (
            WideSim::new(nl, DEFAULT_WIDE_WORDS),
            PrefilterStats::default(),
        )
    }

    #[test]
    fn xor_is_rejected_in_both_polarities() {
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate("f", GateKind::Xor, &[a, b]);
        nl.add_output("f", f);
        let (mut sim, mut stats) = filter_parts(&nl);
        let polarities = unateness_polarities(&nl, f, &[a, b], &mut sim, &mut stats);
        assert_eq!(polarities, vec![(false, false); 2]);
        assert_eq!(stats.polarities_refuted, 4);
        assert_eq!(stats.candidates_refuted, 1);
        assert_eq!(stats.sweeps, 4);
        assert_eq!(
            stats.patterns_simulated,
            stats.sweeps * DEFAULT_WIDE_WORDS as u64 * 64
        );
    }

    #[test]
    fn and_keeps_only_the_positive_polarity() {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate("f", GateKind::And, &[a, b]);
        nl.add_output("f", f);
        let (mut sim, mut stats) = filter_parts(&nl);
        let polarities = unateness_polarities(&nl, f, &[a, b], &mut sim, &mut stats);
        for (may_pos, may_neg) in polarities {
            assert!(may_pos, "AND is positive unate in every input");
            assert!(!may_neg, "random patterns must witness the violation");
        }
        assert_eq!(stats.polarities_refuted, 2);
        assert_eq!(stats.candidates_refuted, 0, "AND is still unate");
    }

    #[test]
    fn stripper_satisfying_assignments_stay_on_the_sphere() {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube = pattern_to_bits(0b101100, 6);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube, 1);
        nl.add_output("strip", out);
        let (mut sim, mut stats) = filter_parts(&nl);
        assert!(satisfying_within_distance(
            &nl, out, &xs, 2, &mut sim, &mut stats
        ));
        assert_eq!(stats.candidates_refuted, 0);
        assert_eq!(stats.sweeps, 1);
    }

    #[test]
    fn wide_satisfiable_functions_are_rejected_for_small_h() {
        // OR of six inputs is satisfied almost everywhere; random patterns
        // easily find two satisfying assignments far apart.
        let mut nl = Netlist::new("or");
        let xs: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let f = nl.add_gate("f", GateKind::Or, &xs);
        nl.add_output("f", f);
        let (mut sim, mut stats) = filter_parts(&nl);
        assert!(!satisfying_within_distance(
            &nl, f, &xs, 2, &mut sim, &mut stats
        ));
        assert_eq!(stats.candidates_refuted, 1);
    }

    #[test]
    fn filters_agree_across_widths() {
        // The refutation *verdicts* are width-independent for decisive
        // functions (witnesses abound), even though the sampled patterns
        // differ per width.
        let mut nl = Netlist::new("zoo");
        let xs: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("x{i}"))).collect();
        let orf = nl.add_gate("orf", GateKind::Or, &xs);
        let xorf = nl.add_gate("xorf", GateKind::Xor, &xs);
        nl.add_output("orf", orf);
        nl.add_output("xorf", xorf);
        for width in [1usize, 2, 4, 8] {
            let mut sim = WideSim::new(&nl, width);
            let mut stats = PrefilterStats::default();
            assert!(
                !satisfying_within_distance(&nl, orf, &xs, 2, &mut sim, &mut stats),
                "width {width}"
            );
            let p = unateness_polarities(&nl, xorf, &xs, &mut sim, &mut stats);
            assert_eq!(p, vec![(false, false); 5], "width {width}");
        }
    }
}
