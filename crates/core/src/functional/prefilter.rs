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
//! [`crate::session::AttackSession`] owns: one sweep evaluates `width * 64`
//! patterns over the *cover* — the union of the fan-in cones of the nodes
//! queried, seeded with the session's candidates ([`netlist::Cover`]) — not
//! over the whole netlist.  No sweep depends on the candidate, so each runs
//! at most once per session, and later candidates only read its results
//! (lane words scanned with bitwise masks and `count_ones`).  Every
//! decision is tallied in [`PrefilterStats`], which the attack surfaces on
//! its result.

use netlist::{Cover, Netlist, NodeId, WideSim};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::Enumeration;

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
    /// session's queries needed (`width * 64` per counted sweep).  Sweeps
    /// are cached for the whole session, so later candidates add nothing
    /// here; a sweep covers only the queried nodes' fan-in cones, so this
    /// counts patterns, not node evaluations.
    pub patterns_simulated: u64,
    /// Wide sweeps this session's queries needed: two per input position
    /// any unateness query touched, plus one for the first distance query.
    /// Re-running a cached sweep over a grown cover (a query on a node
    /// outside it) counts nothing.
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

/// The session-owned simulation cache of the functional stage: one
/// [`Cover`], the fixed random stimuli, the simulation scratch and every
/// sweep result a later call can reuse.
///
/// Every simulation here evaluates only the cover, the topologically
/// ordered union of the fan-in cones of the nodes asked about.  The session
/// seeds it with its candidates, so an attack never leaves it; a query on
/// any other node grows it first, and every cached sweep is then re-run
/// over the grown cover on the same stimulus (uncounted: the old nodes'
/// values do not change, the new nodes get theirs).
///
/// Neither filter's sweeps depend on the candidate — the netlist is fixed
/// and every candidate sees the same seeded stimulus — so each sweep runs at
/// most once per session:
///
/// * **Cofactor verdicts.**  The first time input position `p` is asked
///   for, the two cofactor sweeps (`x_p = 0`, then `x_p = 1`, every other
///   pin on the shared random block) run once and leave a 2-bit
///   refuted-polarity verdict for every cover node.  Any later candidate on
///   `p` is a lookup.
/// * **Distance sweep.**  The distance filter's single sweep runs on its
///   first use and is kept; each call only harvests its candidate's lanes.
///
/// Every polarity, refutation and verdict is therefore exactly what a
/// per-call whole-netlist sweep computes; only [`PrefilterStats::sweeps`]
/// and [`PrefilterStats::patterns_simulated`] shrink, because they count
/// the sweeps that actually ran.  The cube proposal's simulations share the
/// cover: the support enumeration ([`Prefilter::enumeration`]) and the
/// single-word flips ([`Prefilter::simulate_word`]), neither counted here.
/// Memory: 2 bits per node for each input position queried, plus the sweep
/// buffers (`width` words per node each).
pub(crate) struct Prefilter<'n> {
    netlist: &'n Netlist,
    /// The nodes every simulation here evaluates.
    cover: Cover,
    /// Scratch of the cofactor sweeps.
    sim: WideSim,
    /// The shared random input block of the cofactor sweeps (pin-major, like
    /// [`WideSim::run`] stimuli); a sweep overwrites one pin and restores it.
    base: Vec<u64>,
    /// The random key block every sweep of the cofactor stimulus uses.
    keys: Vec<u64>,
    /// The cover nodes' blocks of the `x_p = 0` sweep (in cover order)
    /// while the `x_p = 1` sweep runs.
    cofactor0: Vec<u64>,
    /// Per input position, two bits per node (bit `2n`: positive unateness
    /// of node `n` refuted, bit `2n + 1`: negative refuted); empty until the
    /// position is first queried.
    refuted: Vec<Vec<u64>>,
    /// The distance filter's sweep, run on first use.
    distance: Option<DistanceSweep>,
    /// Every node's truth table over the last support enumerated.
    enumeration: Option<Enumeration>,
    /// Single-word scratch and all-zero stimuli of
    /// [`Prefilter::simulate_word`].
    word: WideSim,
    word_inputs: Vec<u64>,
    word_keys: Vec<u64>,
    stats: PrefilterStats,
}

/// The distance filter's stimulus and the node values it produced.
struct DistanceSweep {
    inputs: Vec<u64>,
    keys: Vec<u64>,
    sim: WideSim,
}

impl<'n> Prefilter<'n> {
    /// An empty cache for `netlist` sweeping `width * 64` patterns at a
    /// time, its cover seeded with `roots`.  Nothing is simulated until the
    /// first query.
    pub(crate) fn new(netlist: &'n Netlist, width: usize, roots: &[NodeId]) -> Prefilter<'n> {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let base = (0..netlist.num_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let keys = (0..netlist.num_key_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        Prefilter {
            netlist,
            cover: Cover::of(netlist, roots.iter().copied()),
            sim: WideSim::new(netlist, width),
            base,
            keys,
            cofactor0: Vec::new(),
            refuted: vec![Vec::new(); netlist.num_inputs()],
            distance: None,
            enumeration: None,
            word: WideSim::new(netlist, 1),
            word_inputs: vec![0; netlist.num_inputs()],
            word_keys: vec![0; netlist.num_key_inputs()],
            stats: PrefilterStats::default(),
        }
    }

    /// The counters accumulated by every query so far.
    pub(crate) fn stats(&self) -> PrefilterStats {
        self.stats
    }

    /// Grows the cover to hold `node`, re-runs every cached prefilter sweep
    /// over the grown cover, uncounted (the stimuli are fixed, so the nodes
    /// already covered keep their values and verdicts), and drops the
    /// enumeration for the next call to rebuild.
    fn include(&mut self, node: NodeId) {
        if self.cover.contains(node) {
            return;
        }
        self.cover.extend(self.netlist, [node]);
        self.enumeration = None;
        if let Some(DistanceSweep { inputs, keys, sim }) = &mut self.distance {
            sweep(self.netlist, &self.cover, sim, inputs, keys, None);
        }
        for position in 0..self.refuted.len() {
            if !self.refuted[position].is_empty() {
                self.refuted[position] = self.sweep_cofactors(position, false);
            }
        }
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
        self.include(candidate);
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

    /// The refuted-polarity bits of every cover node for input position
    /// `position`, sweeping both cofactors on first use.
    fn cofactor_verdicts(&mut self, position: usize) -> &[u64] {
        if self.refuted[position].is_empty() {
            self.refuted[position] = self.sweep_cofactors(position, true);
        }
        &self.refuted[position]
    }

    /// Both cofactor sweeps of `position` over the cover (`counted`: in the
    /// stats) and the verdict bits they leave.
    fn sweep_cofactors(&mut self, position: usize, counted: bool) -> Vec<u64> {
        // Cofactor x_p = 0 across every lane, then x_p = 1; all other pins
        // keep the shared random block.
        let w = self.sim.width();
        let pin = position * w..(position + 1) * w;
        let saved = self.base[pin.clone()].to_vec();
        self.base[pin.clone()].fill(0);
        sweep(
            self.netlist,
            &self.cover,
            &mut self.sim,
            &self.base,
            &self.keys,
            counted.then_some(&mut self.stats),
        );
        self.cofactor0.clear();
        for &node in self.cover.nodes() {
            self.cofactor0.extend_from_slice(self.sim.node(node));
        }
        self.base[pin.clone()].fill(!0u64);
        sweep(
            self.netlist,
            &self.cover,
            &mut self.sim,
            &self.base,
            &self.keys,
            counted.then_some(&mut self.stats),
        );
        self.base[pin].copy_from_slice(&saved);

        // A pattern with f(x_p=0) > f(x_p=1) refutes positive unateness;
        // the mirror image refutes negative unateness.
        let mut refuted = vec![0u64; self.netlist.num_nodes().div_ceil(32)];
        let lanes = self
            .cover
            .nodes()
            .iter()
            .zip(self.cofactor0.chunks_exact(w));
        for (&node, f0) in lanes {
            let (mut pos_witness, mut neg_witness) = (0u64, 0u64);
            for (&lo, &hi) in f0.iter().zip(self.sim.node(node)) {
                pos_witness |= lo & !hi;
                neg_witness |= !lo & hi;
            }
            let bits = u64::from(pos_witness != 0) | u64::from(neg_witness != 0) << 1;
            refuted[node.index() / 32] |= bits << (2 * (node.index() % 32));
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
        self.include(candidate);
        let (netlist, cover, width) = (self.netlist, &self.cover, self.sim.width());
        let stats = &mut self.stats;
        let DistanceSweep { inputs, sim, .. } = self
            .distance
            .get_or_insert_with(|| DistanceSweep::run(netlist, cover, width, stats));

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

    /// Every node's truth table over the input positions `positions` (at
    /// most 12), read at `candidate`, from one sweep of the cover with every
    /// assignment on its own lane.  The sweep is kept until a different
    /// support is asked for or the cover grows: every candidate of an
    /// attack has the same support, so one sweep serves them all.  It
    /// counts nothing in [`PrefilterStats`].
    pub(crate) fn enumeration(&mut self, candidate: NodeId, positions: &[usize]) -> &Enumeration {
        self.include(candidate);
        if self
            .enumeration
            .as_ref()
            .is_none_or(|enumeration| enumeration.positions() != positions)
        {
            self.enumeration = Some(Enumeration::run(self.netlist, &self.cover, positions));
        }
        self.enumeration.as_ref().expect("just built")
    }

    /// `candidate`'s word from one single-word simulation of the cover in
    /// which input `positions[s]` carries `lanes(s)` and every other input
    /// and key is 0.  Counts nothing in [`PrefilterStats`].
    pub(crate) fn simulate_word(
        &mut self,
        candidate: NodeId,
        positions: &[usize],
        lanes: impl Fn(usize) -> u64,
    ) -> u64 {
        self.include(candidate);
        for (slot, &position) in positions.iter().enumerate() {
            self.word_inputs[position] = lanes(slot);
        }
        self.word
            .run_cover(
                self.netlist,
                &self.cover,
                &self.word_inputs,
                &self.word_keys,
            )
            .expect("stimulus widths match the netlist");
        for &position in positions {
            self.word_inputs[position] = 0;
        }
        self.word.node(candidate)[0]
    }
}

impl DistanceSweep {
    fn run(
        netlist: &Netlist,
        cover: &Cover,
        width: usize,
        stats: &mut PrefilterStats,
    ) -> DistanceSweep {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x5EA9_C0DE);
        let inputs: Vec<u64> = (0..netlist.num_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let keys: Vec<u64> = (0..netlist.num_key_inputs() * width)
            .map(|_| rng.gen())
            .collect();
        let mut sim = WideSim::new(netlist, width);
        sweep(netlist, cover, &mut sim, &inputs, &keys, Some(stats));
        DistanceSweep { inputs, keys, sim }
    }
}

/// One wide sweep of `cover`.  A sweep a query needs (`stats` given) is
/// traced as a `prefilter_sweep` span and counted; the re-run of a cached
/// sweep over a grown cover is neither.
fn sweep(
    netlist: &Netlist,
    cover: &Cover,
    sim: &mut WideSim,
    inputs: &[u64],
    keys: &[u64],
    stats: Option<&mut PrefilterStats>,
) {
    let _span = stats
        .is_some()
        .then(|| crate::trace::span("prefilter_sweep"));
    sim.run_cover(netlist, cover, inputs, keys)
        .expect("widths are consistent");
    if let Some(stats) = stats {
        stats.sweeps += 1;
        stats.patterns_simulated += sim.patterns_per_sweep() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{fall_attack_in, FallAttackConfig, FallStatus};
    use crate::session::AttackSession;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::analysis::{transitive_fanin, SupportTable};
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::{GateKind, DEFAULT_WIDE_WORDS};
    use std::collections::BTreeSet;

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
        Prefilter::new(nl, DEFAULT_WIDE_WORDS, &[])
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
            let mut filter = Prefilter::new(&nl, width, &[]);
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

    /// Nodes outside `cover` whose block in `sim` is not all zero: a sweep
    /// restricted to the cover never writes them.
    fn written_outside(nl: &Netlist, cover: &Cover, sim: &WideSim) -> usize {
        nl.iter()
            .filter(|&(node, _)| !cover.contains(node))
            .filter(|&(node, _)| sim.node(node).iter().any(|&w| w != 0))
            .count()
    }

    #[test]
    fn sweeps_cover_only_the_candidates_cones_until_a_query_grows_them() {
        let original = generate(&RandomCircuitSpec::new("pf_cover", 18, 3, 120).with_seed(7));
        let locked = TtLock::new(14)
            .with_seed(11)
            .lock(&original)
            .expect("lock")
            .optimized();
        let nl = &locked.locked;
        let mut session = AttackSession::new(nl);
        let candidates = session.candidates().candidates.clone();
        let result = fall_attack_in(&mut session, None, &FallAttackConfig::for_h(0));
        assert_eq!(result.status, FallStatus::UniqueKey, "{result:?}");
        let filter = session.prefilter();

        // The cover is the candidates' fan-in cones, and an attack never
        // leaves it.
        let cones: BTreeSet<NodeId> = candidates
            .iter()
            .flat_map(|&candidate| transitive_fanin(nl, candidate))
            .collect();
        let cover: Vec<NodeId> = cones.into_iter().collect();
        assert_eq!(filter.cover.nodes(), cover.as_slice());
        assert!(cover.len() < nl.num_nodes(), "{} nodes", cover.len());
        // No sweep wrote a node outside it (the cofactor sweeps ran, and so
        // did the flips of the witness solve) ...
        assert!(filter.stats().sweeps > 0);
        let flipped = |node: &NodeId| filter.word.node(*node)[0] != 0;
        assert!(filter.cover.nodes().iter().any(flipped));
        assert_eq!(written_outside(nl, &filter.cover, &filter.sim), 0);
        assert_eq!(written_outside(nl, &filter.cover, &filter.word), 0);
        // ... though a whole-netlist sweep writes many of them.
        let mut whole = WideSim::new(nl, DEFAULT_WIDE_WORDS);
        whole.run(nl, &filter.base, &filter.keys).expect("widths");
        assert!(written_outside(nl, &filter.cover, &whole) > 0);

        // Analyses on every node outside the cover grow it, and still give
        // the per-call reference's verdicts and decision counters.
        let supports = SupportTable::new(nl);
        let outside: Vec<NodeId> = nl
            .iter()
            .map(|(node, _)| node)
            .filter(|&node| !filter.cover.contains(node))
            .collect();
        let mut sim = WideSim::new(nl, DEFAULT_WIDE_WORDS);
        let mut reference = PrefilterStats::default();
        let mut queried: BTreeSet<usize> = (0..nl.num_inputs())
            .filter(|&position| !filter.refuted[position].is_empty())
            .collect();
        let before = filter.stats();
        for &node in &outside {
            let inputs: Vec<usize> = supports.primary_positions(node).collect();
            assert_eq!(
                filter.unateness_polarities(node, &inputs),
                reference_unateness_polarities(nl, node, &inputs, &mut sim, &mut reference),
                "{node:?}"
            );
            assert_eq!(
                filter.satisfying_within_distance(node, &inputs, 2),
                reference_satisfying_within_distance(
                    nl,
                    node,
                    &inputs,
                    2,
                    &mut sim,
                    &mut reference
                ),
                "{node:?}"
            );
            assert!(filter.cover.contains(node));
            queried.extend(inputs);
        }
        let grown = filter.stats().since(&before);
        assert_eq!(grown.polarities_refuted, reference.polarities_refuted);
        assert_eq!(grown.candidates_refuted, reference.candidates_refuted);
        assert!(grown.total_refuted() > 0);
        // Growth re-runs the cached sweeps uncounted: the session still
        // counts one cofactor pair per queried position and one distance
        // sweep.
        let total = filter.stats();
        assert_eq!(total.sweeps, 2 * queried.len() as u64 + 1);
        assert_eq!(
            total.patterns_simulated,
            total.sweeps * DEFAULT_WIDE_WORDS as u64 * 64
        );
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
