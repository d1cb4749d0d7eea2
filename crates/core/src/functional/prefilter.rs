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
//! Both filters run through [`Prefilter`], the cache each
//! [`crate::session::AttackSession`] owns: one netlist sweep evaluates
//! `width * 64` patterns, no sweep depends on the candidate, so each runs at
//! most once per session, and later candidates only read its results (lane
//! words scanned with bitwise masks and `count_ones`).  Every decision is
//! tallied in [`PrefilterStats`], which the attack surfaces on its result.

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
    /// Patterns pushed through the wide simulator by the sweeps this
    /// session actually ran (`width * 64` per sweep).  Sweeps are cached for
    /// the whole session, so later candidates add nothing here.
    pub patterns_simulated: u64,
    /// Wide netlist sweeps this session actually ran: two per input position
    /// any unateness query touched, plus one for the first distance query.
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

    /// The counters accumulated since `earlier`, a snapshot of the same
    /// session's counters.
    pub(crate) fn since(&self, earlier: &PrefilterStats) -> PrefilterStats {
        PrefilterStats {
            polarities_refuted: self.polarities_refuted - earlier.polarities_refuted,
            candidates_refuted: self.candidates_refuted - earlier.candidates_refuted,
            patterns_simulated: self.patterns_simulated - earlier.patterns_simulated,
            sweeps: self.sweeps - earlier.sweeps,
        }
    }

    /// Total prefilter refutations (polarity- plus candidate-level), the
    /// headline counter tracked by bench-smoke.
    pub fn total_refuted(&self) -> u64 {
        self.polarities_refuted + self.candidates_refuted
    }
}

/// The session-owned prefilter cache: the fixed random stimuli, the
/// simulation scratch and every sweep result a later call can reuse.
///
/// Neither filter's sweeps depend on the candidate — the netlist is fixed
/// and every candidate sees the same seeded stimulus — so each sweep runs at
/// most once per session:
///
/// * **Cofactor verdicts.**  The first time input position `p` is asked
///   for, the two cofactor sweeps (`x_p = 0`, then `x_p = 1`, every other
///   pin on the shared random block) run once and leave a 2-bit
///   refuted-polarity verdict for *every* node.  Any later candidate on `p`
///   is a lookup.
/// * **Distance sweep.**  The distance filter's single sweep runs on its
///   first use and is kept; each call only harvests its candidate's lanes.
///
/// Every polarity, refutation and verdict is therefore exactly what a
/// per-call sweep computes; only [`PrefilterStats::sweeps`] and
/// [`PrefilterStats::patterns_simulated`] shrink, because they count the
/// sweeps that actually ran.  Memory: 2 bits per node for each input
/// position queried, plus the sweep buffers (`width` words per node each).
pub(crate) struct Prefilter<'n> {
    netlist: &'n Netlist,
    /// Scratch of the cofactor sweeps.
    sim: WideSim,
    /// The shared random input block of the cofactor sweeps (pin-major, like
    /// [`WideSim::run`] stimuli); a sweep overwrites one pin and restores it.
    base: Vec<u64>,
    /// The random key block every sweep of the cofactor stimulus uses.
    keys: Vec<u64>,
    /// Snapshot of the `x_p = 0` sweep while the `x_p = 1` sweep runs.
    cofactor0: Vec<u64>,
    /// Per input position, two bits per node (bit `2n`: positive unateness
    /// of node `n` refuted, bit `2n + 1`: negative refuted); empty until the
    /// position is first queried.
    refuted: Vec<Vec<u64>>,
    /// The distance filter's sweep, run on first use.
    distance: Option<DistanceSweep>,
    stats: PrefilterStats,
}

/// The distance filter's stimulus and the node values it produced.
struct DistanceSweep {
    inputs: Vec<u64>,
    sim: WideSim,
}

impl<'n> Prefilter<'n> {
    /// An empty cache for `netlist` sweeping `width * 64` patterns at a
    /// time.  Nothing is simulated until the first query.
    pub(crate) fn new(netlist: &'n Netlist, width: usize) -> Prefilter<'n> {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let base = (0..netlist.num_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let keys = (0..netlist.num_key_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        Prefilter {
            netlist,
            sim: WideSim::new(netlist, width),
            base,
            keys,
            cofactor0: Vec::new(),
            refuted: vec![Vec::new(); netlist.num_inputs()],
            distance: None,
            stats: PrefilterStats::default(),
        }
    }

    /// The counters accumulated by every query so far.
    pub(crate) fn stats(&self) -> PrefilterStats {
        self.stats
    }

    /// For every support input of `candidate` (given by its primary-input
    /// positions), tests both unateness
    /// polarities on random patterns and reports which are still possible:
    /// `(may_be_positive, may_be_negative)`.
    ///
    /// `false` entries are backed by an explicit monotonicity-violation
    /// witness, so the corresponding SAT query is guaranteed to come back
    /// satisfiable and can be skipped.  `(false, false)` for any variable
    /// proves the candidate is not unate at all.
    ///
    /// A support input whose position was queried before costs nothing;
    /// otherwise its two cofactor sweeps run once for the whole session.
    pub(crate) fn unateness_polarities(
        &mut self,
        candidate: NodeId,
        positions: &[usize],
    ) -> Vec<(bool, bool)> {
        let (word, shift) = (candidate.index() / 32, 2 * (candidate.index() % 32));
        let mut result = Vec::with_capacity(positions.len());
        for &position in positions {
            let bits = self.cofactor_verdicts(position)[word] >> shift;
            let (may_pos, may_neg) = (bits & 1 == 0, bits & 2 == 0);
            self.stats.polarities_refuted += u64::from(!may_pos) + u64::from(!may_neg);
            result.push((may_pos, may_neg));
        }
        if result.iter().any(|&(p, n)| !p && !n) {
            self.stats.candidates_refuted += 1;
        }
        result
    }

    /// The refuted-polarity bits of every node for input position
    /// `position`, sweeping both cofactors on first use.
    fn cofactor_verdicts(&mut self, position: usize) -> &[u64] {
        if self.refuted[position].is_empty() {
            self.refuted[position] = self.sweep_cofactors(position);
        }
        &self.refuted[position]
    }

    fn sweep_cofactors(&mut self, position: usize) -> Vec<u64> {
        // Cofactor x_p = 0 across every lane, then x_p = 1; all other pins
        // keep the shared random block.
        let w = self.sim.width();
        let pin = position * w..(position + 1) * w;
        let saved = self.base[pin.clone()].to_vec();
        self.base[pin.clone()].fill(0);
        sweep(
            self.netlist,
            &mut self.sim,
            &self.base,
            &self.keys,
            &mut self.stats,
        );
        self.cofactor0.clear();
        self.cofactor0.extend_from_slice(self.sim.values());
        self.base[pin.clone()].fill(!0u64);
        sweep(
            self.netlist,
            &mut self.sim,
            &self.base,
            &self.keys,
            &mut self.stats,
        );
        self.base[pin].copy_from_slice(&saved);

        // A pattern with f(x_p=0) > f(x_p=1) refutes positive unateness;
        // the mirror image refutes negative unateness.
        let mut refuted = vec![0u64; self.netlist.num_nodes().div_ceil(32)];
        let lanes = self
            .cofactor0
            .chunks_exact(w)
            .zip(self.sim.values().chunks_exact(w));
        for (node, (f0, f1)) in lanes.enumerate() {
            let (mut pos_witness, mut neg_witness) = (0u64, 0u64);
            for (&lo, &hi) in f0.iter().zip(f1) {
                pos_witness |= lo & !hi;
                neg_witness |= !lo & hi;
            }
            let bits = u64::from(pos_witness != 0) | u64::from(neg_witness != 0) << 1;
            refuted[node / 32] |= bits << (2 * (node % 32));
        }
        refuted
    }

    /// Tests whether random satisfying assignments of `candidate` stay
    /// within Hamming distance `max_distance` of each other over the support
    /// (given by its primary-input positions).
    ///
    /// A cube-stripping function `HD(X, cube) == h` is satisfied only on the
    /// radius-`h` sphere around the cube, so any two satisfying assignments
    /// are within distance `2h`.  Finding two satisfying patterns further
    /// apart is a sound proof that the candidate is not the stripper for the
    /// assumed `h`.
    ///
    /// The session's one distance sweep evaluates the whole probe block;
    /// the candidate's satisfying lanes are harvested with trailing-zeros
    /// scans, pairwise distances are plain `count_ones` on packed support
    /// bits, and the first witness pair exits.
    ///
    /// Returns `false` only when such a witness pair was found.  Supports
    /// wider than 64 bits skip the filter (returns `true`).
    pub(crate) fn satisfying_within_distance(
        &mut self,
        candidate: NodeId,
        positions: &[usize],
        max_distance: usize,
    ) -> bool {
        if positions.len() > 64 || max_distance >= positions.len() {
            return true;
        }
        let within = self
            .satisfying_patterns(candidate, positions, max_distance)
            .is_some();
        self.stats.candidates_refuted += u64::from(!within);
        within
    }

    /// The distinct satisfying patterns of `candidate` in the session's
    /// distance sweep (at most 256, in sweep order), packed over its
    /// support: bit `s` is the value of input `positions[s]`.  `None` when
    /// two satisfying patterns lie more than `max_distance` apart.
    ///
    /// Runs the distance sweep on first use; counts no decision, so the
    /// caller owns the verdict.
    ///
    /// # Panics
    ///
    /// Panics if the support is wider than 64 inputs.
    pub(crate) fn satisfying_patterns(
        &mut self,
        candidate: NodeId,
        positions: &[usize],
        max_distance: usize,
    ) -> Option<Vec<u64>> {
        assert!(positions.len() <= 64, "patterns are packed into one word");
        let (netlist, width, stats) = (self.netlist, self.sim.width(), &mut self.stats);
        let DistanceSweep { inputs, sim } = self
            .distance
            .get_or_insert_with(|| DistanceSweep::run(netlist, width, stats));

        let mut witnesses: Vec<u64> = Vec::new();
        for (lane, &word) in sim.node(candidate).iter().enumerate() {
            let mut satisfied = word;
            while satisfied != 0 {
                let bit = satisfied.trailing_zeros();
                satisfied &= satisfied - 1;
                let mut pattern = 0u64;
                for (slot, &position) in positions.iter().enumerate() {
                    pattern |= ((inputs[position * width + lane] >> bit) & 1) << slot;
                }
                for &earlier in &witnesses {
                    if (earlier ^ pattern).count_ones() as usize > max_distance {
                        return None;
                    }
                }
                if witnesses.len() < 256 && !witnesses.contains(&pattern) {
                    witnesses.push(pattern);
                }
            }
        }
        Some(witnesses)
    }
}

impl DistanceSweep {
    fn run(netlist: &Netlist, width: usize, stats: &mut PrefilterStats) -> DistanceSweep {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x5EA9_C0DE);
        let inputs: Vec<u64> = (0..netlist.num_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let keys: Vec<u64> = (0..netlist.num_key_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let mut sim = WideSim::new(netlist, width);
        sweep(netlist, &mut sim, &inputs, &keys, stats);
        DistanceSweep { inputs, sim }
    }
}

/// One wide netlist sweep, traced as a `prefilter_sweep` span and counted.
fn sweep(
    netlist: &Netlist,
    sim: &mut WideSim,
    inputs: &[u64],
    keys: &[u64],
    stats: &mut PrefilterStats,
) {
    let _span = crate::trace::span("prefilter_sweep");
    sim.run(netlist, inputs, keys)
        .expect("widths are consistent");
    stats.sweeps += 1;
    stats.patterns_simulated += sim.patterns_per_sweep() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::analysis::SupportTable;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::{GateKind, DEFAULT_WIDE_WORDS};

    /// Reference for [`Prefilter::unateness_polarities`]: the per-call
    /// algorithm, which regenerates the seeded block and sweeps both
    /// cofactors of every support input on every call.
    fn reference_unateness_polarities(
        netlist: &Netlist,
        candidate: NodeId,
        positions: &[usize],
        sim: &mut WideSim,
        stats: &mut PrefilterStats,
    ) -> Vec<(bool, bool)> {
        let w = sim.width();
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let mut result = vec![(true, true); positions.len()];

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

    /// Reference for [`Prefilter::satisfying_within_distance`]: the
    /// per-call algorithm, which regenerates the seeded block and sweeps the
    /// netlist on every call.
    fn reference_satisfying_within_distance(
        netlist: &Netlist,
        candidate: NodeId,
        positions: &[usize],
        max_distance: usize,
        sim: &mut WideSim,
        stats: &mut PrefilterStats,
    ) -> bool {
        if positions.len() > 64 || max_distance >= positions.len() {
            return true;
        }
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

    fn prefilter(nl: &Netlist) -> Prefilter<'_> {
        Prefilter::new(nl, DEFAULT_WIDE_WORDS)
    }

    #[test]
    fn xor_is_rejected_in_both_polarities() {
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let f = nl.add_gate("f", GateKind::Xor, &[a, b]);
        nl.add_output("f", f);
        let mut filter = prefilter(&nl);
        let polarities = filter.unateness_polarities(f, &[0, 1]);
        assert_eq!(polarities, vec![(false, false); 2]);
        let stats = filter.stats();
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
        let mut filter = prefilter(&nl);
        let polarities = filter.unateness_polarities(f, &[0, 1]);
        for (may_pos, may_neg) in polarities {
            assert!(may_pos, "AND is positive unate in every input");
            assert!(!may_neg, "random patterns must witness the violation");
        }
        assert_eq!(filter.stats().polarities_refuted, 2);
        assert_eq!(filter.stats().candidates_refuted, 0, "AND is still unate");
    }

    #[test]
    fn stripper_satisfying_assignments_stay_on_the_sphere() {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube = pattern_to_bits(0b101100, 6);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube, 1);
        nl.add_output("strip", out);
        let mut filter = prefilter(&nl);
        assert!(filter.satisfying_within_distance(out, &[0, 1, 2, 3, 4, 5], 2));
        assert_eq!(filter.stats().candidates_refuted, 0);
        assert_eq!(filter.stats().sweeps, 1);
    }

    #[test]
    fn wide_satisfiable_functions_are_rejected_for_small_h() {
        // OR of six inputs is satisfied almost everywhere; random patterns
        // easily find two satisfying assignments far apart.
        let mut nl = Netlist::new("or");
        let xs: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let f = nl.add_gate("f", GateKind::Or, &xs);
        nl.add_output("f", f);
        let mut filter = prefilter(&nl);
        assert!(!filter.satisfying_within_distance(f, &[0, 1, 2, 3, 4, 5], 2));
        assert_eq!(filter.stats().candidates_refuted, 1);
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
        let all = [0, 1, 2, 3, 4];
        for width in [1usize, 2, 4, 8] {
            let mut filter = Prefilter::new(&nl, width);
            assert!(
                !filter.satisfying_within_distance(orf, &all, 2),
                "width {width}"
            );
            let p = filter.unateness_polarities(xorf, &all);
            assert_eq!(p, vec![(false, false); 5], "width {width}");
        }
    }

    /// Random netlists plus a TTLock- and an SFLL-HD-locked one (key inputs
    /// included, so the key block matters too).
    fn differential_netlists() -> Vec<Netlist> {
        let mut netlists: Vec<Netlist> = (0..3u64)
            .map(|seed| {
                let spec = RandomCircuitSpec::new(format!("pf{seed}"), 8 + seed as usize, 3, 70)
                    .with_seed(seed);
                generate(&spec)
            })
            .collect();
        let original = generate(&RandomCircuitSpec::new("pf_lock", 12, 3, 80));
        let ttlock = TtLock::new(8).with_seed(5).lock(&original).expect("lock");
        netlists.push(ttlock.optimized().locked);
        let sfll = SfllHd::new(8, 2)
            .with_seed(6)
            .lock(&original)
            .expect("lock");
        netlists.push(sfll.optimized().locked);
        netlists
    }

    #[test]
    fn cached_verdicts_match_the_per_call_reference() {
        for nl in &differential_netlists() {
            let mut filter = prefilter(nl);
            let mut sim = WideSim::new(nl, DEFAULT_WIDE_WORDS);
            let mut reference = PrefilterStats::default();
            // Every node x input position, one position at a time.
            for (node, _) in nl.iter() {
                for position in 0..nl.num_inputs() {
                    assert_eq!(
                        filter.unateness_polarities(node, &[position]),
                        reference_unateness_polarities(
                            nl,
                            node,
                            &[position],
                            &mut sim,
                            &mut reference
                        ),
                        "{} node {node:?} position {position}",
                        nl.name()
                    );
                }
            }
            // Every node's whole primary support, at every distance.
            let supports = SupportTable::new(nl);
            for (node, _) in nl.iter() {
                let inputs: Vec<usize> = supports.primary_positions(node).collect();
                assert_eq!(
                    filter.unateness_polarities(node, &inputs),
                    reference_unateness_polarities(nl, node, &inputs, &mut sim, &mut reference),
                    "{} node {node:?}",
                    nl.name()
                );
                for distance in 0..=inputs.len() {
                    assert_eq!(
                        filter.satisfying_within_distance(node, &inputs, distance),
                        reference_satisfying_within_distance(
                            nl,
                            node,
                            &inputs,
                            distance,
                            &mut sim,
                            &mut reference
                        ),
                        "{} node {node:?} distance {distance}",
                        nl.name()
                    );
                }
            }
            let cached = filter.stats();
            assert_eq!(cached.polarities_refuted, reference.polarities_refuted);
            assert_eq!(cached.candidates_refuted, reference.candidates_refuted);
            assert!(cached.polarities_refuted > 0, "{}", nl.name());
            // Two sweeps per input position plus the one distance sweep.
            assert_eq!(cached.sweeps, 2 * nl.num_inputs() as u64 + 1);
            assert_eq!(
                cached.patterns_simulated,
                cached.sweeps * DEFAULT_WIDE_WORDS as u64 * 64
            );
            assert!(reference.sweeps > cached.sweeps);
        }
    }

    #[test]
    fn a_warm_prefilter_answers_without_sweeping() {
        let nl = differential_netlists().pop().expect("a locked netlist");
        let mut filter = prefilter(&nl);
        let supports = SupportTable::new(&nl);
        let queries: Vec<(NodeId, Vec<usize>)> = nl
            .iter()
            .map(|(node, _)| (node, supports.primary_positions(node).collect()))
            .collect();
        let ask = |filter: &mut Prefilter<'_>| {
            queries
                .iter()
                .map(|(node, inputs)| {
                    (
                        filter.unateness_polarities(*node, inputs),
                        filter.satisfying_within_distance(*node, inputs, 2),
                    )
                })
                .collect::<Vec<_>>()
        };
        let cold = ask(&mut filter);
        let warm_from = filter.stats();
        assert!(warm_from.sweeps > 0);
        assert_eq!(ask(&mut filter), cold);
        let warm = filter.stats();
        assert_eq!(warm.sweeps, warm_from.sweeps, "a warm query sweeps nothing");
        assert_eq!(warm.patterns_simulated, warm_from.patterns_simulated);
        // The decision counters still count every call.
        assert_eq!(
            warm.total_refuted(),
            2 * warm_from.total_refuted(),
            "{warm:?}"
        );
    }
}
