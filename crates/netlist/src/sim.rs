//! Single-pattern, 64-way, and wide multi-word parallel simulation.
//!
//! The workhorse is [`WideSim`]: a reusable, cache-blocked scratch buffer
//! that evaluates `W` 64-bit words (`W * 64` patterns) per sweep over the
//! netlist, or over a [`Cover`] (the fan-in cones of the nodes a caller
//! reads).  [`Netlist::node_words`] is the `W = 1` case expressed through
//! the same engine; [`Netlist::node_words_fresh`] preserves the original
//! allocate-per-call 64-way implementation as the throughput baseline for
//! the bench-smoke regression gate and the differential suite.

use crate::{GateKind, Netlist, NetlistError, NodeId, NodeKind};

/// Default number of 64-bit lanes per node in a [`WideSim`] block
/// (8 words = 512 patterns per sweep).
pub const DEFAULT_WIDE_WORDS: usize = 8;

/// A reusable, cache-blocked multi-word simulation pass.
///
/// The scratch holds one contiguous `Vec<u64>` of `num_nodes * width` words,
/// blocked node-major: the `width` lanes of node `n` occupy
/// `values[n * width .. (n + 1) * width]`, so a node's lanes stay adjacent
/// in cache while the sweep walks the netlist once.  Bit `b` of lane `l`
/// carries pattern number `l * 64 + b`.
///
/// Stimuli use the same layout per pin: the lanes of the `i`-th primary
/// input occupy `inputs[i * width .. (i + 1) * width]` (likewise for keys).
///
/// Gate evaluation is specialized by fanin count: constants fill, unary
/// gates copy or invert, two-input gates (the overwhelmingly common case)
/// apply the binary operation lane-by-lane straight from the two fanin
/// blocks, and wider gates fold fanins directly into the destination block
/// — no per-gate temporary buffer anywhere.
///
/// ```
/// use netlist::{GateKind, Netlist, WideSim};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate("g", GateKind::And, &[a, b]);
/// nl.add_output("g", g);
///
/// let mut sim = WideSim::new(&nl, 2);
/// sim.run(&nl, &[!0, 0b1010, !0, 0b1100], &[]).unwrap();
/// assert_eq!(sim.node(g), &[!0, 0b1000]);
/// ```
#[derive(Clone, Debug)]
pub struct WideSim {
    width: usize,
    num_nodes: usize,
    values: Vec<u64>,
}

impl WideSim {
    /// Allocates a scratch buffer sized for `netlist` with `width` words
    /// (`width * 64` patterns) per node.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(netlist: &Netlist, width: usize) -> WideSim {
        assert!(width > 0, "wide simulation needs at least one word");
        WideSim {
            width,
            num_nodes: netlist.num_nodes(),
            values: vec![0u64; netlist.num_nodes() * width],
        }
    }

    /// Number of 64-bit words per node.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns evaluated per [`WideSim::run`] sweep.
    pub fn patterns_per_sweep(&self) -> usize {
        self.width * 64
    }

    /// Simulates `width * 64` patterns in one sweep, leaving every node's
    /// lane block readable through [`WideSim::node`].
    ///
    /// `inputs` must hold `num_inputs * width` words and `keys`
    /// `num_key_inputs * width` words, blocked pin-major as described on
    /// [`WideSim`].  The scratch is reused across calls with no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if a stimulus block does not
    /// match the circuit; the expected count is in words (`pins * width`).
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has a different node count than the one this
    /// scratch was allocated for.
    pub fn run(
        &mut self,
        netlist: &Netlist,
        inputs: &[u64],
        keys: &[u64],
    ) -> Result<(), NetlistError> {
        self.check(netlist, inputs, keys)?;
        self.load(netlist.inputs(), 0..netlist.num_inputs(), inputs);
        self.load(netlist.key_inputs(), 0..netlist.num_key_inputs(), keys);
        self.evaluate(netlist, netlist.iter().map(|(id, _)| id));
        Ok(())
    }

    /// [`WideSim::run`] restricted to `cover`: loads only the cover's pins
    /// and evaluates only its gates, so only the cover's lane blocks are
    /// defined afterwards (every other node keeps whatever an earlier sweep
    /// left).  Each cover node's block equals what [`WideSim::run`] on the
    /// same stimulus gives it, because a cover holds every fanin of its
    /// nodes.
    ///
    /// # Errors
    ///
    /// The same [`NetlistError::StimulusWidth`] checks as [`WideSim::run`],
    /// on the whole stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` or `cover` has a different node count than the
    /// one this scratch was allocated for.
    pub fn run_cover(
        &mut self,
        netlist: &Netlist,
        cover: &Cover,
        inputs: &[u64],
        keys: &[u64],
    ) -> Result<(), NetlistError> {
        self.check(netlist, inputs, keys)?;
        assert_eq!(
            cover.member.len(),
            self.num_nodes,
            "cover shape does not match the simulation scratch"
        );
        self.load(netlist.inputs(), cover.inputs.iter().copied(), inputs);
        self.load(netlist.key_inputs(), cover.keys.iter().copied(), keys);
        self.evaluate(netlist, cover.nodes.iter().copied());
        Ok(())
    }

    /// Checks the netlist shape and both stimulus widths.
    fn check(&self, netlist: &Netlist, inputs: &[u64], keys: &[u64]) -> Result<(), NetlistError> {
        assert_eq!(
            netlist.num_nodes(),
            self.num_nodes,
            "netlist shape does not match the simulation scratch"
        );
        let w = self.width;
        if inputs.len() != netlist.num_inputs() * w {
            return Err(NetlistError::StimulusWidth {
                expected: netlist.num_inputs() * w,
                got: inputs.len(),
            });
        }
        if keys.len() != netlist.num_key_inputs() * w {
            return Err(NetlistError::StimulusWidth {
                expected: netlist.num_key_inputs() * w,
                got: keys.len(),
            });
        }
        Ok(())
    }

    /// Copies the stimulus lanes of the pins `pins[pos]` at `positions`
    /// into their blocks.
    fn load(&mut self, pins: &[NodeId], positions: impl Iterator<Item = usize>, stimulus: &[u64]) {
        let w = self.width;
        for pos in positions {
            let id = pins[pos];
            self.values[id.index() * w..][..w].copy_from_slice(&stimulus[pos * w..][..w]);
        }
    }

    /// Evaluates the gates among `nodes` (topologically ordered; inputs are
    /// skipped) from their fanins' blocks.
    fn evaluate(&mut self, netlist: &Netlist, nodes: impl Iterator<Item = NodeId>) {
        let w = self.width;
        for id in nodes {
            let NodeKind::Gate { kind, fanins } = netlist.node(id).kind() else {
                continue;
            };
            // Fanins are topologically earlier, so their blocks all sit
            // strictly before the destination block.
            let (prior, rest) = self.values.split_at_mut(id.index() * w);
            let dst = &mut rest[..w];
            match fanins.len() {
                0 => dst.fill(if matches!(kind, GateKind::Const1) {
                    !0
                } else {
                    0
                }),
                1 => {
                    let src = &prior[fanins[0].index() * w..][..w];
                    if matches!(kind, GateKind::Not) {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = !s;
                        }
                    } else {
                        dst.copy_from_slice(src);
                    }
                }
                2 => {
                    let a = &prior[fanins[0].index() * w..][..w];
                    let b = &prior[fanins[1].index() * w..][..w];
                    apply2_words(*kind, dst, a, b);
                }
                _ => {
                    dst.copy_from_slice(&prior[fanins[0].index() * w..][..w]);
                    fold_words(*kind, dst, prior, &fanins[1..], w);
                    if kind.is_inverting() {
                        for d in dst.iter_mut() {
                            *d = !*d;
                        }
                    }
                }
            }
        }
    }

    /// The lane block of a node after the last [`WideSim::run`] (or the
    /// last [`WideSim::run_cover`] whose cover holds the node).
    pub fn node(&self, id: NodeId) -> &[u64] {
        &self.values[id.index() * self.width..][..self.width]
    }

    /// Consumes the scratch and returns the raw node-major value buffer.
    pub fn into_values(self) -> Vec<u64> {
        self.values
    }
}

/// The topologically ordered union of the transitive fan-in cones of a set
/// of root nodes: everything a simulation has to evaluate to read those
/// roots ([`WideSim::run_cover`]).
///
/// A cover only grows ([`Cover::extend`]); it is closed under fanin, so
/// every node in it can be evaluated from cover nodes alone.
///
/// ```
/// use netlist::{Cover, GateKind, Netlist};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate("g", GateKind::Not, &[a]);
/// let h = nl.add_gate("h", GateKind::And, &[a, b]);
///
/// let mut cover = Cover::of(&nl, [g]);
/// assert_eq!(cover.nodes(), &[a, g]);
/// assert!(!cover.contains(h));
/// cover.extend(&nl, [h]);
/// assert_eq!(cover.nodes(), &[a, b, g, h]);
/// ```
#[derive(Clone, Debug)]
pub struct Cover {
    /// Membership, indexed by node.
    member: Vec<bool>,
    /// The members in ascending (topological) order.
    nodes: Vec<NodeId>,
    /// Positions of the member primary inputs in [`Netlist::inputs`].
    inputs: Vec<usize>,
    /// Positions of the member key inputs in [`Netlist::key_inputs`].
    keys: Vec<usize>,
}

impl Cover {
    /// The cover of `roots` in `netlist`.
    pub fn of(netlist: &Netlist, roots: impl IntoIterator<Item = NodeId>) -> Cover {
        let mut cover = Cover {
            member: vec![false; netlist.num_nodes()],
            nodes: Vec::new(),
            inputs: Vec::new(),
            keys: Vec::new(),
        };
        cover.extend(netlist, roots);
        cover
    }

    /// Adds the fan-in cones of `roots`.
    pub fn extend(&mut self, netlist: &Netlist, roots: impl IntoIterator<Item = NodeId>) {
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        while let Some(node) = stack.pop() {
            if !std::mem::replace(&mut self.member[node.index()], true) {
                self.nodes.push(node);
                stack.extend_from_slice(netlist.node(node).fanins());
            }
        }
        self.nodes.sort_unstable();
        let members = |ids: &[NodeId]| -> Vec<usize> {
            (0..ids.len())
                .filter(|&pos| self.member[ids[pos].index()])
                .collect()
        };
        self.inputs = members(netlist.inputs());
        self.keys = members(netlist.key_inputs());
    }

    /// Returns `true` if `node` is in the cover.
    pub fn contains(&self, node: NodeId) -> bool {
        self.member[node.index()]
    }

    /// The cover's nodes (inputs included) in topological order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// Lane-wise binary gate application for the two-fanin fast path.
#[inline]
fn apply2_words(kind: GateKind, dst: &mut [u64], a: &[u64], b: &[u64]) {
    macro_rules! lanes {
        ($op:expr) => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = $op(x, y);
            }
        };
    }
    match kind {
        GateKind::And => lanes!(|x, y| x & y),
        GateKind::Nand => lanes!(|x: u64, y: u64| !(x & y)),
        GateKind::Or => lanes!(|x, y| x | y),
        GateKind::Nor => lanes!(|x: u64, y: u64| !(x | y)),
        GateKind::Xor => lanes!(|x, y| x ^ y),
        GateKind::Xnor => lanes!(|x: u64, y: u64| !(x ^ y)),
        _ => unreachable!("two-fanin gates are binary ops"),
    }
}

/// Folds the remaining fanins of a wide (3+ input) gate into `dst` using the
/// gate's base operation (negated kinds invert afterwards in the caller).
#[inline]
fn fold_words(kind: GateKind, dst: &mut [u64], prior: &[u64], rest: &[NodeId], w: usize) {
    macro_rules! fold {
        ($op:tt) => {
            for &f in rest {
                let src = &prior[f.index() * w..][..w];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d $op s;
                }
            }
        };
    }
    match kind {
        GateKind::And | GateKind::Nand => fold!(&=),
        GateKind::Or | GateKind::Nor => fold!(|=),
        GateKind::Xor | GateKind::Xnor => fold!(^=),
        _ => unreachable!("wide gates are AND/OR/XOR families"),
    }
}

/// Scalar binary gate application for the two-fanin fast path.
#[inline]
fn apply2_bool(kind: GateKind, a: bool, b: bool) -> bool {
    match kind {
        GateKind::And => a && b,
        GateKind::Nand => !(a && b),
        GateKind::Or => a || b,
        GateKind::Nor => !(a || b),
        GateKind::Xor => a ^ b,
        GateKind::Xnor => !(a ^ b),
        _ => unreachable!("two-fanin gates are binary ops"),
    }
}

impl Netlist {
    /// Evaluates the circuit for a single input pattern.
    ///
    /// `inputs[i]` is the value of the `i`-th primary input and `keys[i]` the
    /// value of the `i`-th key input (both in declaration order).  Returns the
    /// output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus widths do not match the circuit.  Use
    /// [`Netlist::try_evaluate`] for a fallible version.
    pub fn evaluate(&self, inputs: &[bool], keys: &[bool]) -> Vec<bool> {
        self.try_evaluate(inputs, keys)
            .expect("stimulus width mismatch")
    }

    /// Fallible version of [`Netlist::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if the stimulus widths do not
    /// match the number of primary or key inputs.
    pub fn try_evaluate(&self, inputs: &[bool], keys: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let values = self.node_values(inputs, keys)?;
        Ok(self
            .outputs()
            .iter()
            .map(|&(_, id)| values[id.index()])
            .collect())
    }

    /// Evaluates the circuit and returns the value of *every* node, indexed by
    /// [`NodeId::index`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if the stimulus widths do not
    /// match the number of primary or key inputs.
    pub fn node_values(&self, inputs: &[bool], keys: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.num_inputs() {
            return Err(NetlistError::StimulusWidth {
                expected: self.num_inputs(),
                got: inputs.len(),
            });
        }
        if keys.len() != self.num_key_inputs() {
            return Err(NetlistError::StimulusWidth {
                expected: self.num_key_inputs(),
                got: keys.len(),
            });
        }
        let mut values = vec![false; self.num_nodes()];
        for (pos, &id) in self.inputs().iter().enumerate() {
            values[id.index()] = inputs[pos];
        }
        for (pos, &id) in self.key_inputs().iter().enumerate() {
            values[id.index()] = keys[pos];
        }
        for (id, node) in self.iter() {
            let NodeKind::Gate { kind, fanins } = node.kind() else {
                continue;
            };
            values[id.index()] = match fanins.len() {
                0 => matches!(kind, GateKind::Const1),
                1 => values[fanins[0].index()] ^ matches!(kind, GateKind::Not),
                2 => apply2_bool(*kind, values[fanins[0].index()], values[fanins[1].index()]),
                _ => {
                    let mut acc = values[fanins[0].index()];
                    match kind {
                        GateKind::And | GateKind::Nand => {
                            for &f in &fanins[1..] {
                                acc &= values[f.index()];
                            }
                        }
                        GateKind::Or | GateKind::Nor => {
                            for &f in &fanins[1..] {
                                acc |= values[f.index()];
                            }
                        }
                        GateKind::Xor | GateKind::Xnor => {
                            for &f in &fanins[1..] {
                                acc ^= values[f.index()];
                            }
                        }
                        _ => unreachable!("wide gates are AND/OR/XOR families"),
                    }
                    acc ^ kind.is_inverting()
                }
            };
        }
        Ok(values)
    }

    /// Evaluates 64 input patterns at once (one pattern per bit position).
    ///
    /// `inputs[i]` / `keys[i]` hold the 64 values of the `i`-th primary / key
    /// input.  Returns one word per output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if the stimulus widths do not
    /// match the number of primary or key inputs.
    pub fn evaluate_words(&self, inputs: &[u64], keys: &[u64]) -> Result<Vec<u64>, NetlistError> {
        let values = self.node_words(inputs, keys)?;
        Ok(self
            .outputs()
            .iter()
            .map(|&(_, id)| values[id.index()])
            .collect())
    }

    /// 64-way parallel version of [`Netlist::node_values`].
    ///
    /// This is the `W = 1` case of [`WideSim`]: one engine evaluates both.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if the stimulus widths do not
    /// match the number of primary or key inputs.
    pub fn node_words(&self, inputs: &[u64], keys: &[u64]) -> Result<Vec<u64>, NetlistError> {
        let mut sim = WideSim::new(self, 1);
        sim.run(self, inputs, keys)?;
        Ok(sim.into_values())
    }

    /// The pre-`WideSim` 64-way simulation: allocates scratch per call and
    /// evaluates every gate through [`GateKind::evaluate_words`] on a
    /// temporary fanin buffer.
    ///
    /// Kept as the ablation baseline the bench-smoke throughput gate and the
    /// `tests/wide_sim.rs` differential suite compare the wide engine
    /// against; production code should use [`Netlist::node_words`] or
    /// [`WideSim`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::StimulusWidth`] if the stimulus widths do not
    /// match the number of primary or key inputs.
    pub fn node_words_fresh(&self, inputs: &[u64], keys: &[u64]) -> Result<Vec<u64>, NetlistError> {
        if inputs.len() != self.num_inputs() {
            return Err(NetlistError::StimulusWidth {
                expected: self.num_inputs(),
                got: inputs.len(),
            });
        }
        if keys.len() != self.num_key_inputs() {
            return Err(NetlistError::StimulusWidth {
                expected: self.num_key_inputs(),
                got: keys.len(),
            });
        }
        let mut values = vec![0u64; self.num_nodes()];
        for (pos, &id) in self.inputs().iter().enumerate() {
            values[id.index()] = inputs[pos];
        }
        for (pos, &id) in self.key_inputs().iter().enumerate() {
            values[id.index()] = keys[pos];
        }
        let mut fanin_values: Vec<u64> = Vec::with_capacity(8);
        for (id, node) in self.iter() {
            if let NodeKind::Gate { kind, fanins } = node.kind() {
                fanin_values.clear();
                fanin_values.extend(fanins.iter().map(|f| values[f.index()]));
                values[id.index()] = kind.evaluate_words(&fanin_values);
            }
        }
        Ok(values)
    }
}

/// Converts an integer pattern into a little-endian bit vector of width `n`.
///
/// Bit `i` of `pattern` becomes element `i` of the result.
pub fn pattern_to_bits(pattern: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (pattern >> i) & 1 == 1).collect()
}

/// Converts a bit vector into an integer pattern (inverse of
/// [`pattern_to_bits`]).
pub fn bits_to_pattern(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let s1 = nl.add_gate("s1", GateKind::Xor, &[a, b]);
        let sum = nl.add_gate("sum", GateKind::Xor, &[s1, cin]);
        let c1 = nl.add_gate("c1", GateKind::And, &[a, b]);
        let c2 = nl.add_gate("c2", GateKind::And, &[s1, cin]);
        let cout = nl.add_gate("cout", GateKind::Or, &[c1, c2]);
        nl.add_output("sum", sum);
        nl.add_output("cout", cout);
        nl
    }

    /// One gate of every kind and arity class, to exercise all sim paths.
    fn gate_zoo() -> Netlist {
        let mut nl = Netlist::new("zoo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let k = nl.add_key_input("k");
        let c0 = nl.add_gate("c0", GateKind::Const0, &[]);
        let c1 = nl.add_gate("c1", GateKind::Const1, &[]);
        let buf = nl.add_gate("buf", GateKind::Buf, &[a]);
        let not = nl.add_gate("not", GateKind::Not, &[b]);
        let and3 = nl.add_gate("and3", GateKind::And, &[a, b, c]);
        let nand3 = nl.add_gate("nand3", GateKind::Nand, &[a, b, k]);
        let or3 = nl.add_gate("or3", GateKind::Or, &[buf, not, c]);
        let nor2 = nl.add_gate("nor2", GateKind::Nor, &[c0, c]);
        let xor4 = nl.add_gate("xor4", GateKind::Xor, &[a, b, c, k]);
        let xnor3 = nl.add_gate("xnor3", GateKind::Xnor, &[and3, or3, c1]);
        let top = nl.add_gate("top", GateKind::Or, &[nand3, nor2, xor4, xnor3]);
        nl.add_output("top", top);
        nl.add_output("xor4", xor4);
        nl
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        for pattern in 0..8u64 {
            let bits = pattern_to_bits(pattern, 3);
            let outs = nl.evaluate(&bits, &[]);
            let expected_sum = bits.iter().filter(|&&b| b).count();
            assert_eq!(outs[0], expected_sum % 2 == 1, "sum for {pattern:03b}");
            assert_eq!(outs[1], expected_sum >= 2, "cout for {pattern:03b}");
        }
    }

    #[test]
    fn word_simulation_matches_scalar() {
        let nl = full_adder();
        // Pack all 8 patterns into the low 8 bits of each word.
        let mut inputs = vec![0u64; 3];
        for pattern in 0..8u64 {
            for (i, word) in inputs.iter_mut().enumerate() {
                *word |= ((pattern >> i) & 1) << pattern;
            }
        }
        let outs = nl.evaluate_words(&inputs, &[]).expect("widths match");
        for pattern in 0..8u64 {
            let bits = pattern_to_bits(pattern, 3);
            let scalar = nl.evaluate(&bits, &[]);
            assert_eq!((outs[0] >> pattern) & 1 == 1, scalar[0]);
            assert_eq!((outs[1] >> pattern) & 1 == 1, scalar[1]);
        }
    }

    #[test]
    fn zoo_scalar_word_and_fresh_paths_agree() {
        let nl = gate_zoo();
        for pattern in 0..16u64 {
            let bits = pattern_to_bits(pattern, 4);
            let (ins, key) = (&bits[..3], &bits[3..]);
            let scalar = nl.node_values(ins, key).expect("widths match");
            let in_words: Vec<u64> = ins.iter().map(|&b| if b { !0 } else { 0 }).collect();
            let key_words: Vec<u64> = key.iter().map(|&b| if b { !0 } else { 0 }).collect();
            let words = nl.node_words(&in_words, &key_words).expect("widths match");
            let fresh = nl
                .node_words_fresh(&in_words, &key_words)
                .expect("widths match");
            assert_eq!(words, fresh, "engine vs baseline on {pattern:04b}");
            for (i, &v) in scalar.iter().enumerate() {
                let expected = if v { !0u64 } else { 0 };
                assert_eq!(words[i], expected, "node {i} on {pattern:04b}");
            }
        }
    }

    #[test]
    fn wide_sim_matches_scalar_across_widths() {
        let nl = gate_zoo();
        for width in [1usize, 2, 4, 8] {
            let mut sim = WideSim::new(&nl, width);
            assert_eq!(sim.patterns_per_sweep(), width * 64);
            // A cheap deterministic stimulus that differs per lane and pin.
            let mk = |seed: u64, count: usize| -> Vec<u64> {
                (0..count as u64)
                    .map(|i| (seed.wrapping_mul(i + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect()
            };
            let inputs = mk(3, nl.num_inputs() * width);
            let keys = mk(7, nl.num_key_inputs() * width);
            sim.run(&nl, &inputs, &keys).expect("widths match");
            for lane in 0..width {
                for bit in 0..64 {
                    let in_bits: Vec<bool> = (0..nl.num_inputs())
                        .map(|i| (inputs[i * width + lane] >> bit) & 1 == 1)
                        .collect();
                    let key_bits: Vec<bool> = (0..nl.num_key_inputs())
                        .map(|i| (keys[i * width + lane] >> bit) & 1 == 1)
                        .collect();
                    let scalar = nl.node_values(&in_bits, &key_bits).expect("widths match");
                    for (id, _) in nl.iter() {
                        let wide = (sim.node(id)[lane] >> bit) & 1 == 1;
                        assert_eq!(
                            wide,
                            scalar[id.index()],
                            "node {id:?} w={width} lane={lane} bit={bit}"
                        );
                    }
                }
            }
            // The scratch is reusable: a second run with fresh stimuli must
            // fully overwrite the previous sweep.
            let inputs2 = mk(11, nl.num_inputs() * width);
            let keys2 = mk(13, nl.num_key_inputs() * width);
            sim.run(&nl, &inputs2, &keys2).expect("widths match");
            let once = WideSim::new(&nl, width);
            let mut once = once;
            once.run(&nl, &inputs2, &keys2).expect("widths match");
            assert_eq!(sim.into_values(), once.into_values());
        }
    }

    #[test]
    fn wide_sim_checks_stimulus_widths() {
        let nl = full_adder();
        let mut sim = WideSim::new(&nl, 2);
        assert!(matches!(
            sim.run(&nl, &[0; 3], &[]),
            Err(NetlistError::StimulusWidth {
                expected: 6,
                got: 3
            })
        ));
        assert!(sim.run(&nl, &[0; 6], &[0]).is_err());
        assert!(sim.run(&nl, &[0; 6], &[]).is_ok());
    }

    #[test]
    fn stimulus_width_is_checked() {
        let nl = full_adder();
        assert!(matches!(
            nl.try_evaluate(&[true], &[]),
            Err(NetlistError::StimulusWidth {
                expected: 3,
                got: 1
            })
        ));
        assert!(nl.evaluate_words(&[0, 0], &[]).is_err());
        assert!(nl.node_words_fresh(&[0, 0], &[]).is_err());
    }

    #[test]
    fn pattern_round_trip() {
        for p in [0u64, 1, 5, 0b1011, 63] {
            assert_eq!(bits_to_pattern(&pattern_to_bits(p, 6)), p);
        }
    }

    #[test]
    fn key_inputs_participate() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k");
        let g = nl.add_gate("g", GateKind::Xor, &[a, k]);
        nl.add_output("g", g);
        assert_eq!(nl.evaluate(&[true], &[true]), vec![false]);
        assert_eq!(nl.evaluate(&[true], &[false]), vec![true]);
    }
}
