//! Tseitin encoding of netlists into the [`sat`] solver.
//!
//! The attacks repeatedly instantiate copies of (parts of) a circuit inside a
//! SAT solver: the SAT attack needs two key copies sharing the same inputs,
//! the functional analyses need two input copies of a single cone, and so on.
//! [`IncrementalEncoder`] encodes such a copy cone by cone, with the primary
//! and key input literals pinned by the caller ([`PinBinding`]);
//! [`encode_key_cone`] encodes the key-dependent logic under fixed inputs
//! (one observed I/O pair).  This module is the only place in the workspace
//! that emits gate, miter or counter clauses; the attack session builds its
//! input differences, miters and distance references from the public
//! helpers ([`encode_and`], [`encode_xor`], [`encode_xor2`],
//! [`encode_any_difference`], [`popcount_lits`]).

use sat::{Lit, Solver};

use crate::{GateKind, Netlist, NodeId, NodeKind};

/// How input pins are bound when encoding a circuit copy.
#[derive(Clone, Debug, Default)]
pub struct PinBinding {
    /// Literals to use for the primary inputs (in declaration order).  Fresh
    /// variables are created when `None`.
    pub inputs: Option<Vec<Lit>>,
    /// Literals to use for the key inputs (in declaration order).  Fresh
    /// variables are created when `None`.
    pub keys: Option<Vec<Lit>>,
}

/// An encoder that emits circuit logic into an existing solver variable space
/// *incrementally* and memoizes every node it has already encoded.
///
/// An `IncrementalEncoder` is created once per (circuit copy, solver) pair
/// and reused across queries: the first [`encode_cone`] call for a root
/// encodes its transitive fanin, and later calls — for the same root or for
/// any root whose cone overlaps — only encode the nodes not seen before.
/// [`encode_outputs`] encodes a whole circuit copy.  This is the substrate
/// of the attack session's cone memoization.
///
/// # Example
///
/// ```
/// use netlist::{GateKind, Netlist};
/// use netlist::cnf::{IncrementalEncoder, PinBinding};
/// use sat::{Solver, SolveResult};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate("y", GateKind::And, &[a, b]);
/// nl.add_output("y", y);
///
/// let mut solver = Solver::new();
/// let mut enc = IncrementalEncoder::new(&nl, &mut solver, &PinBinding::default());
/// let outputs = enc.encode_outputs(&nl, &mut solver);
/// // Force the output true: both inputs must be true.
/// solver.add_clause([outputs[0]]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.value(enc.inputs()[0]), Some(true));
/// assert_eq!(solver.value(enc.inputs()[1]), Some(true));
/// ```
///
/// [`encode_cone`]: IncrementalEncoder::encode_cone
/// [`encode_outputs`]: IncrementalEncoder::encode_outputs
#[derive(Clone, Debug)]
pub struct IncrementalEncoder {
    node_lits: Vec<Option<Lit>>,
    inputs: Vec<Lit>,
    keys: Vec<Lit>,
    const_false: Option<Lit>,
}

impl IncrementalEncoder {
    /// Binds (or allocates) the input and key pins; encodes no gates yet.
    ///
    /// # Panics
    ///
    /// Panics if a pin vector in `pins` has the wrong width.
    pub fn new(netlist: &Netlist, solver: &mut Solver, pins: &PinBinding) -> IncrementalEncoder {
        let inputs: Vec<Lit> = match &pins.inputs {
            Some(lits) => {
                assert_eq!(lits.len(), netlist.num_inputs(), "primary input pin width");
                lits.clone()
            }
            None => (0..netlist.num_inputs())
                .map(|_| Lit::positive(solver.new_var()))
                .collect(),
        };
        let keys: Vec<Lit> = match &pins.keys {
            Some(lits) => {
                assert_eq!(lits.len(), netlist.num_key_inputs(), "key input pin width");
                lits.clone()
            }
            None => (0..netlist.num_key_inputs())
                .map(|_| Lit::positive(solver.new_var()))
                .collect(),
        };
        let mut node_lits: Vec<Option<Lit>> = vec![None; netlist.num_nodes()];
        for (pos, &id) in netlist.inputs().iter().enumerate() {
            node_lits[id.index()] = Some(inputs[pos]);
        }
        for (pos, &id) in netlist.key_inputs().iter().enumerate() {
            node_lits[id.index()] = Some(keys[pos]);
        }
        IncrementalEncoder {
            node_lits,
            inputs,
            keys,
            const_false: None,
        }
    }

    /// Literals of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[Lit] {
        &self.inputs
    }

    /// Literals of the key inputs, in declaration order.
    pub fn keys(&self) -> &[Lit] {
        &self.keys
    }

    /// The literal of a node, if its cone has been encoded.
    pub fn lit(&self, node: NodeId) -> Option<Lit> {
        self.node_lits[node.index()]
    }

    /// Ensures the transitive fanin cone of `root` is encoded and returns the
    /// root's literal.  Nodes already encoded by earlier calls are reused.
    ///
    /// The emitted defining clauses always live at the solver root, even when
    /// a default frame ([`sat::Solver::set_default_frame`]) is active: the
    /// encoder memoizes literals across calls and hands them out long after
    /// any frame-scoped caller has retired its frame, so scoping the
    /// definitions to a retireable frame would leave cached literals dangling
    /// once the frame's clauses are reclaimed.  This is what keeps the
    /// encoder's variable space reusable across predicate generations.
    pub fn encode_cone(&mut self, netlist: &Netlist, solver: &mut Solver, root: NodeId) -> Lit {
        if let Some(lit) = self.node_lits[root.index()] {
            return lit;
        }
        let caller_frame = solver.default_frame();
        solver.set_default_frame(None);
        // Collect the not-yet-encoded part of the cone; node ids are
        // topologically ordered (fanins precede gates), so encoding the
        // missing nodes in ascending index order is a valid schedule.
        let mut missing: Vec<usize> = Vec::new();
        let mut stack: Vec<NodeId> = vec![root];
        let mut seen = vec![false; netlist.num_nodes()];
        seen[root.index()] = true;
        while let Some(id) = stack.pop() {
            missing.push(id.index());
            for &f in netlist.node(id).fanins() {
                if !seen[f.index()] && self.node_lits[f.index()].is_none() {
                    seen[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        missing.sort_unstable();

        for index in missing {
            let (id, node) = (
                NodeId::from_index(index),
                netlist.node(NodeId::from_index(index)),
            );
            let NodeKind::Gate { kind, fanins } = node.kind() else {
                continue;
            };
            let fanin_lits: Vec<Lit> = fanins
                .iter()
                .map(|f| self.node_lits[f.index()].expect("fanins are topologically earlier"))
                .collect();
            let lit = encode_gate(solver, *kind, &fanin_lits, &mut self.const_false);
            self.node_lits[id.index()] = Some(lit);
        }
        solver.set_default_frame(caller_frame);
        self.node_lits[root.index()].expect("root was just encoded")
    }

    /// Ensures every declared output is encoded and returns their literals in
    /// declaration order.
    pub fn encode_outputs(&mut self, netlist: &Netlist, solver: &mut Solver) -> Vec<Lit> {
        netlist
            .outputs()
            .iter()
            .map(|&(_, id)| self.encode_cone(netlist, solver, id))
            .collect()
    }
}

/// A wire value in a partially-constant encoding: either a known constant or
/// a solver literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// The value is determined by the fixed inputs alone.
    Const(bool),
    /// The value depends on key inputs through this literal.
    Lit(Lit),
}

impl Signal {
    /// Negation.
    #[must_use]
    pub fn invert(self) -> Signal {
        match self {
            Signal::Const(b) => Signal::Const(!b),
            Signal::Lit(l) => Signal::Lit(!l),
        }
    }
}

/// The key-dependent part of a netlist, precomputed once and reused across
/// many [`encode_key_cone`] calls.
///
/// A node is *key-dependent* if a key input lies in its transitive fanin.
/// Everything outside this cone is a pure function of the primary inputs, so
/// when the inputs are fixed to constants its value can be read off a single
/// simulator pass instead of being re-derived by constant folding over the
/// whole netlist.  The cone is typically a small fraction of the circuit (the
/// locking logic), which is what makes the per-iteration work of the DIP loop
/// proportional to the lock, not the design.
#[derive(Clone, Debug)]
pub struct KeyCone {
    /// `in_cone[NodeId::index]` — is the node key-dependent?
    in_cone: Vec<bool>,
    /// Indices of the key-dependent *gate* nodes, in topological order.
    gates: Vec<usize>,
    /// Output positions whose node is key-dependent.
    key_dependent_outputs: Vec<usize>,
}

impl KeyCone {
    /// Computes the key-dependent node set in one topological sweep.
    pub fn of(netlist: &Netlist) -> KeyCone {
        let mut in_cone = vec![false; netlist.num_nodes()];
        for &id in netlist.key_inputs() {
            in_cone[id.index()] = true;
        }
        let mut gates = Vec::new();
        for (id, node) in netlist.iter() {
            if let NodeKind::Gate { fanins, .. } = node.kind() {
                if fanins.iter().any(|f| in_cone[f.index()]) {
                    in_cone[id.index()] = true;
                    gates.push(id.index());
                }
            }
        }
        let key_dependent_outputs = netlist
            .outputs()
            .iter()
            .enumerate()
            .filter(|&(_, &(_, id))| in_cone[id.index()])
            .map(|(pos, _)| pos)
            .collect();
        KeyCone {
            in_cone,
            gates,
            key_dependent_outputs,
        }
    }

    /// Returns `true` if `node` is key-dependent.
    pub fn contains(&self, node: NodeId) -> bool {
        self.in_cone[node.index()]
    }

    /// Number of key-dependent gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Output positions (declaration order) whose value depends on the key.
    pub fn key_dependent_outputs(&self) -> &[usize] {
        &self.key_dependent_outputs
    }
}

/// Cone-scoped variant of [`encode_with_fixed_inputs`]: encodes only the
/// precomputed key-dependent cone, reading every key-free wire from
/// `node_values` (a full simulation of the netlist under the fixed inputs,
/// e.g. [`crate::Netlist::node_values`] with arbitrary key bits — key-free
/// nodes do not observe them).
///
/// Produces exactly the same output [`Signal`]s as the full constant-folding
/// walk, but touches `O(|key cone|)` nodes instead of `O(|netlist|)`.
///
/// Unlike [`IncrementalEncoder::encode_cone`], this encoder memoizes nothing
/// across calls, so its clauses *do* respect an active default frame
/// ([`sat::Solver::set_default_frame`]): an attack session routes a predicate
/// generation's I/O-pair encodings into a retireable frame this way, and the
/// whole encoding — Tseitin definitions included — is reclaimed when the
/// generation retires.  The Tseitin *variables* come back too: variables
/// allocated while a default frame is active are tagged to the frame, and
/// retiring it releases them into the solver's recycling free list
/// ([`sat::Solver::release_var`]), so unbounded sequences of frame-scoped
/// cone encodings reuse one generation's worth of variables.
///
/// # Panics
///
/// Panics if `keys` or `node_values` have the wrong width.
pub fn encode_key_cone(
    netlist: &Netlist,
    solver: &mut Solver,
    cone: &KeyCone,
    node_values: &[bool],
    keys: &[Lit],
) -> Vec<Signal> {
    assert_eq!(keys.len(), netlist.num_key_inputs(), "key width");
    assert_eq!(
        node_values.len(),
        netlist.num_nodes(),
        "node-value vector width"
    );

    let mut cone_signals: Vec<Option<Signal>> = vec![None; netlist.num_nodes()];
    for (pos, &id) in netlist.key_inputs().iter().enumerate() {
        cone_signals[id.index()] = Some(Signal::Lit(keys[pos]));
    }
    for &index in &cone.gates {
        let node = netlist.node(NodeId::from_index(index));
        let NodeKind::Gate { kind, fanins } = node.kind() else {
            unreachable!("KeyCone::gates only holds gate nodes");
        };
        let fanin_signals: Vec<Signal> = fanins
            .iter()
            .map(|f| match cone_signals[f.index()] {
                Some(signal) => signal,
                None => Signal::Const(node_values[f.index()]),
            })
            .collect();
        cone_signals[index] = Some(encode_gate_signals(solver, *kind, &fanin_signals));
    }

    netlist
        .outputs()
        .iter()
        .map(|&(_, id)| match cone_signals[id.index()] {
            Some(signal) => signal,
            None => Signal::Const(node_values[id.index()]),
        })
        .collect()
}

/// Encodes the circuit relation with the primary inputs fixed to constants
/// and the key inputs bound to existing literals.
///
/// Constant values are propagated during encoding, so gates that do not
/// depend on a key input produce **no clauses at all**; only the key cone is
/// encoded.  This is what makes the DIP loop of the incremental SAT attack
/// cheap: each observed I/O pair `C(x̂, K, ŷ)` adds clauses proportional to
/// the key-dependent logic only.
///
/// [`encode_key_cone`] is the faster path used by long-running sessions: it
/// walks a precomputed key-dependent cone instead of the whole netlist.
/// Like it, this encoder respects an active default frame (see there), so
/// per-generation constraints can be routed into a retireable frame.
///
/// Returns one [`Signal`] per declared output, in declaration order.
///
/// # Panics
///
/// Panics if `input_values` or `keys` have the wrong width.
pub fn encode_with_fixed_inputs(
    netlist: &Netlist,
    solver: &mut Solver,
    input_values: &[bool],
    keys: &[Lit],
) -> Vec<Signal> {
    assert_eq!(input_values.len(), netlist.num_inputs(), "input width");
    assert_eq!(keys.len(), netlist.num_key_inputs(), "key width");

    let mut signals: Vec<Option<Signal>> = vec![None; netlist.num_nodes()];
    for (pos, &id) in netlist.inputs().iter().enumerate() {
        signals[id.index()] = Some(Signal::Const(input_values[pos]));
    }
    for (pos, &id) in netlist.key_inputs().iter().enumerate() {
        signals[id.index()] = Some(Signal::Lit(keys[pos]));
    }

    for (id, node) in netlist.iter() {
        let NodeKind::Gate { kind, fanins } = node.kind() else {
            continue;
        };
        let fanin_signals: Vec<Signal> = fanins
            .iter()
            .map(|f| signals[f.index()].expect("fanins are topologically earlier"))
            .collect();
        signals[id.index()] = Some(encode_gate_signals(solver, *kind, &fanin_signals));
    }

    netlist
        .outputs()
        .iter()
        .map(|&(_, id)| signals[id.index()].expect("outputs are encoded"))
        .collect()
}

/// Encodes one gate over constant-or-literal fanins with constant folding.
fn encode_gate_signals(solver: &mut Solver, kind: GateKind, fanins: &[Signal]) -> Signal {
    let and_of = |solver: &mut Solver, signals: &[Signal]| -> Signal {
        if signals.contains(&Signal::Const(false)) {
            return Signal::Const(false);
        }
        let lits: Vec<Lit> = signals
            .iter()
            .filter_map(|s| match s {
                Signal::Lit(l) => Some(*l),
                Signal::Const(_) => None,
            })
            .collect();
        match lits.as_slice() {
            [] => Signal::Const(true),
            [only] => Signal::Lit(*only),
            _ => Signal::Lit(encode_and(solver, &lits)),
        }
    };
    let xor_of = |solver: &mut Solver, signals: &[Signal]| -> Signal {
        let mut parity = false;
        let mut lits: Vec<Lit> = Vec::new();
        for s in signals {
            match s {
                Signal::Const(b) => parity ^= b,
                Signal::Lit(l) => lits.push(*l),
            }
        }
        let base = match lits.as_slice() {
            [] => return Signal::Const(parity),
            [only] => *only,
            _ => encode_xor(solver, &lits),
        };
        Signal::Lit(if parity { !base } else { base })
    };
    let inverted =
        |signals: &[Signal]| -> Vec<Signal> { signals.iter().map(|s| s.invert()).collect() };

    match kind {
        GateKind::Const0 => Signal::Const(false),
        GateKind::Const1 => Signal::Const(true),
        GateKind::Buf => fanins[0],
        GateKind::Not => fanins[0].invert(),
        GateKind::And => and_of(solver, fanins),
        GateKind::Nand => and_of(solver, fanins).invert(),
        GateKind::Or => and_of(solver, &inverted(fanins)).invert(),
        GateKind::Nor => and_of(solver, &inverted(fanins)),
        GateKind::Xor => xor_of(solver, fanins),
        GateKind::Xnor => xor_of(solver, fanins).invert(),
    }
}

fn false_lit(solver: &mut Solver, cache: &mut Option<Lit>) -> Lit {
    *cache.get_or_insert_with(|| {
        let lit = Lit::positive(solver.new_var());
        solver.add_clause([!lit]);
        lit
    })
}

fn encode_gate(
    solver: &mut Solver,
    kind: GateKind,
    fanins: &[Lit],
    const_false: &mut Option<Lit>,
) -> Lit {
    match kind {
        GateKind::Const0 => false_lit(solver, const_false),
        GateKind::Const1 => !false_lit(solver, const_false),
        GateKind::Buf => fanins[0],
        GateKind::Not => !fanins[0],
        GateKind::And => encode_and(solver, fanins),
        GateKind::Nand => !encode_and(solver, fanins),
        GateKind::Or => !encode_and(solver, &fanins.iter().map(|&l| !l).collect::<Vec<_>>()),
        GateKind::Nor => encode_and(solver, &fanins.iter().map(|&l| !l).collect::<Vec<_>>()),
        GateKind::Xor => encode_xor(solver, fanins),
        GateKind::Xnor => !encode_xor(solver, fanins),
    }
}

/// Encodes `y = AND(fanins)` and returns `y`: a fresh variable, one binary
/// clause `!y | f` per fanin, then `y | !f1 | ... | !fn`.
pub fn encode_and(solver: &mut Solver, fanins: &[Lit]) -> Lit {
    let y = Lit::positive(solver.new_var());
    let mut long_clause: Vec<Lit> = Vec::with_capacity(fanins.len() + 1);
    for &f in fanins {
        solver.add_clause([!y, f]);
        long_clause.push(!f);
    }
    long_clause.push(y);
    solver.add_clause(long_clause);
    y
}

/// Encodes the parity of `fanins` with a chain of two-input XORs
/// ([`encode_xor2`]) and returns it.
///
/// # Panics
///
/// Panics if `fanins` is empty.
pub fn encode_xor(solver: &mut Solver, fanins: &[Lit]) -> Lit {
    let mut acc = fanins[0];
    for &f in &fanins[1..] {
        acc = encode_xor2(solver, acc, f);
    }
    acc
}

/// Encodes `y = a XOR b` with four ternary clauses and returns `y`.
pub fn encode_xor2(solver: &mut Solver, a: Lit, b: Lit) -> Lit {
    let y = Lit::positive(solver.new_var());
    solver.add_clause([!a, !b, !y]);
    solver.add_clause([a, b, !y]);
    solver.add_clause([a, !b, y]);
    solver.add_clause([!a, b, y]);
    y
}

/// Builds a binary counter over `bits` (a ripple of half adders) and
/// returns the sum literals, least-significant first.
///
/// The sum starts from a constant-false literal of the counter's own (a
/// fresh variable and a unit clause).
pub fn popcount_lits(solver: &mut Solver, bits: &[Lit]) -> Vec<Lit> {
    let width = (usize::BITS as usize - bits.len().leading_zeros() as usize).max(1);
    let zero = Lit::positive(solver.new_var());
    solver.add_clause([!zero]);
    let mut sum = vec![zero; width];
    for &bit in bits {
        let mut carry = bit;
        for s in sum.iter_mut() {
            let new_s = encode_xor2(solver, *s, carry);
            let new_c = encode_and(solver, &[*s, carry]);
            *s = new_s;
            carry = new_c;
        }
    }
    sum
}

/// Creates a literal that is true iff the two literal vectors differ in at
/// least one position (a miter over multiple outputs).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn encode_any_difference(solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "vector widths differ");
    let diffs: Vec<Lit> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| encode_xor2(solver, x, y))
        .collect();
    // OR of all difference bits.
    !encode_and(solver, &diffs.iter().map(|&d| !d).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::pattern_to_bits;
    use sat::SolveResult;

    fn check_encoding_matches_simulation(nl: &Netlist) {
        let width = nl.num_inputs() + nl.num_key_inputs();
        assert!(width <= 12, "exhaustive check only for small circuits");
        for pattern in 0..(1u64 << width) {
            let bits = pattern_to_bits(pattern, width);
            let (ins, keys) = bits.split_at(nl.num_inputs());
            let expected = nl.evaluate(ins, keys);

            let mut solver = Solver::new();
            let mut enc = IncrementalEncoder::new(nl, &mut solver, &PinBinding::default());
            let outputs = enc.encode_outputs(nl, &mut solver);
            for (&lit, &value) in enc
                .inputs()
                .iter()
                .zip(ins)
                .chain(enc.keys().iter().zip(keys))
            {
                solver.add_clause([if value { lit } else { !lit }]);
            }
            assert_eq!(solver.solve(), SolveResult::Sat);
            let got: Vec<bool> = outputs
                .iter()
                .map(|&l| solver.value(l).expect("assigned"))
                .collect();
            assert_eq!(got, expected, "pattern {pattern:b}");
        }
    }

    #[test]
    fn all_gate_kinds_encode_correctly() {
        let mut nl = Netlist::new("gates");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let and = nl.add_gate("and", GateKind::And, &[a, b, c]);
        let nand = nl.add_gate("nand", GateKind::Nand, &[a, b]);
        let or = nl.add_gate("or", GateKind::Or, &[a, b, c]);
        let nor = nl.add_gate("nor", GateKind::Nor, &[a, c]);
        let xor = nl.add_gate("xor", GateKind::Xor, &[a, b, c]);
        let xnor = nl.add_gate("xnor", GateKind::Xnor, &[b, c]);
        let not = nl.add_gate("not", GateKind::Not, &[xor]);
        let buf = nl.add_gate("buf", GateKind::Buf, &[nand]);
        let c0 = nl.add_gate("c0", GateKind::Const0, &[]);
        let c1 = nl.add_gate("c1", GateKind::Const1, &[]);
        let mix = nl.add_gate("mix", GateKind::Or, &[c0, c1, not, buf]);
        for (name, id) in [
            ("o_and", and),
            ("o_nand", nand),
            ("o_or", or),
            ("o_nor", nor),
            ("o_xor", xor),
            ("o_xnor", xnor),
            ("o_mix", mix),
        ] {
            nl.add_output(name, id);
        }
        check_encoding_matches_simulation(&nl);
    }

    #[test]
    fn keyed_circuit_encoding() {
        let mut nl = Netlist::new("keyed");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_key_input("k0");
        let x = nl.add_gate("x", GateKind::Xor, &[a, k]);
        let y = nl.add_gate("y", GateKind::And, &[x, b]);
        nl.add_output("y", y);
        check_encoding_matches_simulation(&nl);
    }

    #[test]
    fn pinned_inputs_are_shared_between_copies() {
        // Encode the same circuit twice sharing inputs but with distinct keys;
        // forcing the two outputs to differ must force the keys to differ.
        let mut nl = Netlist::new("shared");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k0");
        let y = nl.add_gate("y", GateKind::Xor, &[a, k]);
        nl.add_output("y", y);

        let mut solver = Solver::new();
        let mut first = IncrementalEncoder::new(&nl, &mut solver, &PinBinding::default());
        let first_outputs = first.encode_outputs(&nl, &mut solver);
        let mut second = IncrementalEncoder::new(
            &nl,
            &mut solver,
            &PinBinding {
                inputs: Some(first.inputs().to_vec()),
                keys: None,
            },
        );
        let second_outputs = second.encode_outputs(&nl, &mut solver);
        let diff = encode_any_difference(&mut solver, &first_outputs, &second_outputs);
        solver.add_clause([diff]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let k1 = solver.value(first.keys()[0]).unwrap();
        let k2 = solver.value(second.keys()[0]).unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn incremental_encoder_memoizes_overlapping_cones() {
        // g1 and g2 share the cone of g0; encoding g2 after g1 must not
        // allocate new variables for the shared part.
        let mut nl = Netlist::new("memo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g0 = nl.add_gate("g0", GateKind::Xor, &[a, b]);
        let g1 = nl.add_gate("g1", GateKind::And, &[g0, c]);
        let g2 = nl.add_gate("g2", GateKind::Or, &[g0, c]);
        nl.add_output("g1", g1);
        nl.add_output("g2", g2);

        let mut solver = Solver::new();
        let mut enc = IncrementalEncoder::new(&nl, &mut solver, &PinBinding::default());
        let l1 = enc.encode_cone(&nl, &mut solver, g1);
        let vars_after_first = solver.num_vars();
        let shared = enc.lit(g0).expect("g0 encoded as part of g1's cone");
        let l2 = enc.encode_cone(&nl, &mut solver, g2);
        // Encoding g2 adds only the OR gate itself on top of the shared cone.
        assert_eq!(solver.num_vars(), vars_after_first + 1);
        assert_eq!(enc.lit(g0), Some(shared), "memoized literal is stable");
        // Re-encoding is free and returns the same literals.
        let before = solver.num_clauses();
        assert_eq!(enc.encode_cone(&nl, &mut solver, g1), l1);
        assert_eq!(enc.encode_cone(&nl, &mut solver, g2), l2);
        assert_eq!(solver.num_clauses(), before);

        // The shared encoding is still functionally correct.
        for pattern in 0..8u64 {
            let bits = pattern_to_bits(pattern, 3);
            let expected = nl.evaluate(&bits, &[]);
            let assumptions: Vec<Lit> = enc
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
            assert_eq!(solver.value(l1), Some(expected[0]), "pattern {pattern:03b}");
            assert_eq!(solver.value(l2), Some(expected[1]), "pattern {pattern:03b}");
        }
    }

    #[test]
    fn fixed_input_encoding_folds_key_free_logic_to_constants() {
        let mut nl = Netlist::new("fold");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        let h = nl.add_gate("h", GateKind::Xor, &[g, a]);
        nl.add_output("h", h);

        let mut solver = Solver::new();
        for pattern in 0..4u64 {
            let bits = pattern_to_bits(pattern, 2);
            let clauses_before = solver.num_clauses();
            let vars_before = solver.num_vars();
            let outs = encode_with_fixed_inputs(&nl, &mut solver, &bits, &[]);
            // Key-free circuits fold entirely: no clauses, no variables.
            assert_eq!(solver.num_clauses(), clauses_before);
            assert_eq!(solver.num_vars(), vars_before);
            assert_eq!(outs, vec![Signal::Const(nl.evaluate(&bits, &[])[0])]);
        }
    }

    #[test]
    fn fixed_input_encoding_matches_simulation_on_keyed_circuits() {
        let mut nl = Netlist::new("keyed_fold");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k0 = nl.add_key_input("k0");
        let k1 = nl.add_key_input("k1");
        let x = nl.add_gate("x", GateKind::Xor, &[a, k0]);
        let y = nl.add_gate("y", GateKind::Nand, &[x, b, k1]);
        let z = nl.add_gate("z", GateKind::Nor, &[y, a]);
        let w = nl.add_gate("w", GateKind::Xnor, &[z, k0, b]);
        nl.add_output("z", z);
        nl.add_output("w", w);

        for input_pattern in 0..4u64 {
            for key_pattern in 0..4u64 {
                let input_bits = pattern_to_bits(input_pattern, 2);
                let key_bits = pattern_to_bits(key_pattern, 2);
                let expected = nl.evaluate(&input_bits, &key_bits);

                let mut solver = Solver::new();
                let keys: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
                let outs = encode_with_fixed_inputs(&nl, &mut solver, &input_bits, &keys);
                let assumptions: Vec<Lit> = keys
                    .iter()
                    .zip(&key_bits)
                    .map(|(&l, &v)| if v { l } else { !l })
                    .collect();
                assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
                for (out, &want) in outs.iter().zip(&expected) {
                    let got = match out {
                        Signal::Const(c) => *c,
                        Signal::Lit(l) => solver.value(*l).expect("assigned"),
                    };
                    assert_eq!(
                        got, want,
                        "inputs {input_pattern:02b} keys {key_pattern:02b}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_cone_identifies_key_dependent_nodes() {
        let mut nl = Netlist::new("cone_id");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_key_input("k");
        let free = nl.add_gate("free", GateKind::And, &[a, b]);
        let keyed = nl.add_gate("keyed", GateKind::Xor, &[free, k]);
        let deep = nl.add_gate("deep", GateKind::Or, &[keyed, a]);
        nl.add_output("free", free);
        nl.add_output("deep", deep);

        let cone = KeyCone::of(&nl);
        assert!(!cone.contains(a) && !cone.contains(free));
        assert!(cone.contains(k) && cone.contains(keyed) && cone.contains(deep));
        assert_eq!(cone.num_gates(), 2);
        assert_eq!(cone.key_dependent_outputs(), &[1]);
    }

    #[test]
    fn key_cone_encoding_matches_full_constant_folding() {
        // Differential check on a mixed circuit: the cone-scoped encoder must
        // produce signals with the same semantics as the whole-netlist fold,
        // for every input pattern and key value.
        let mut nl = Netlist::new("cone_diff");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let k0 = nl.add_key_input("k0");
        let k1 = nl.add_key_input("k1");
        let f1 = nl.add_gate("f1", GateKind::And, &[a, b]);
        let f2 = nl.add_gate("f2", GateKind::Xor, &[f1, c]);
        let g1 = nl.add_gate("g1", GateKind::Xor, &[f2, k0]);
        let g2 = nl.add_gate("g2", GateKind::Nand, &[g1, k1, b]);
        let g3 = nl.add_gate("g3", GateKind::Nor, &[g2, f1]);
        nl.add_output("f2", f2);
        nl.add_output("g3", g3);

        let cone = KeyCone::of(&nl);
        for input_pattern in 0..8u64 {
            let input_bits = pattern_to_bits(input_pattern, 3);
            let node_values = nl.node_values(&input_bits, &[false, false]).expect("sim");
            for key_pattern in 0..4u64 {
                let key_bits = pattern_to_bits(key_pattern, 2);
                let expected = nl.evaluate(&input_bits, &key_bits);

                let mut solver = Solver::new();
                let keys: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
                let outs = encode_key_cone(&nl, &mut solver, &cone, &node_values, &keys);
                let assumptions: Vec<Lit> = keys
                    .iter()
                    .zip(&key_bits)
                    .map(|(&l, &v)| if v { l } else { !l })
                    .collect();
                assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
                for (out, &want) in outs.iter().zip(&expected) {
                    let got = match out {
                        Signal::Const(v) => *v,
                        Signal::Lit(l) => solver.value(*l).expect("assigned"),
                    };
                    assert_eq!(
                        got, want,
                        "inputs {input_pattern:03b} keys {key_pattern:02b}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_encoder_pins_memoized_encodings_to_the_root() {
        // A caller routing clauses into a retireable frame (the predicate
        // generation of an attack session) must not capture the encoder's
        // memoized definitions: those are handed out again after the frame is
        // retired, so they have to survive frame reclamation.
        let mut nl = Netlist::new("root_pin");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        let c1 = nl.add_gate("c1", GateKind::Const1, &[]);
        let h = nl.add_gate("h", GateKind::Xor, &[g, c1]);
        nl.add_output("h", h);

        let mut solver = Solver::new();
        let mut enc = IncrementalEncoder::new(&nl, &mut solver, &PinBinding::default());
        let frame = solver.push_frame();
        solver.set_default_frame(Some(frame));
        let lit = enc.encode_cone(&nl, &mut solver, h);
        // The default frame is restored for the caller...
        assert_eq!(solver.default_frame(), Some(frame));
        solver.set_default_frame(None);
        // ...and the encoding stays correct after the frame is retired and
        // its clauses reclaimed.
        solver.retire_frame(frame);
        solver.simplify();
        for pattern in 0..4u64 {
            let bits = pattern_to_bits(pattern, 2);
            let expected = nl.evaluate(&bits, &[])[0];
            let assumptions: Vec<Lit> = enc
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
            assert_eq!(solver.value(lit), Some(expected), "pattern {pattern:02b}");
        }
    }

    #[test]
    fn key_cone_encoding_respects_the_default_frame() {
        // Frame-routed I/O-pair encodings must vanish with their frame: the
        // same key literal can be forced to opposite values in two different
        // generations without ever contradicting itself.
        let mut nl = Netlist::new("framed_io");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k");
        let y = nl.add_gate("y", GateKind::Xor, &[a, k]);
        nl.add_output("y", y);
        let cone = KeyCone::of(&nl);

        let mut solver = Solver::new();
        let key = Lit::positive(solver.new_var());
        let node_values = nl.node_values(&[true], &[false]).expect("sim");

        let forced_under = |solver: &mut Solver, want: bool| {
            let frame = solver.push_frame();
            solver.set_default_frame(Some(frame));
            let outs = encode_key_cone(&nl, solver, &cone, &node_values, &[key]);
            let Signal::Lit(out) = outs[0] else {
                panic!("output depends on the key");
            };
            solver.add_clause([if want { out } else { !out }]);
            solver.set_default_frame(None);
            frame
        };
        // Generation 1 claims y(a=1) == 1, i.e. k == 0.
        let f1 = forced_under(&mut solver, true);
        assert_eq!(solver.solve_in(&[f1], &[]), SolveResult::Sat);
        assert_eq!(solver.value(key), Some(false));
        solver.retire_frame(f1);
        solver.simplify();
        // Generation 2 claims the opposite; without frame scoping the two
        // would conjoin into Unsat.
        let f2 = forced_under(&mut solver, false);
        assert_eq!(solver.solve_in(&[f2], &[]), SolveResult::Sat);
        assert_eq!(solver.value(key), Some(true));
    }

    #[test]
    fn framed_key_cone_encodings_recycle_their_tseitin_variables() {
        // The bounded-memory contract of the attack session's DIP loop: the
        // Tseitin variables of a frame-routed key-cone encoding are released
        // when the frame retires, so repeated generations hold the solver's
        // variable count flat instead of growing by one cone per generation.
        let mut nl = Netlist::new("recycle");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k0 = nl.add_key_input("k0");
        let k1 = nl.add_key_input("k1");
        let x = nl.add_gate("x", GateKind::Xor, &[a, k0]);
        let y = nl.add_gate("y", GateKind::Nand, &[x, b, k1]);
        let z = nl.add_gate("z", GateKind::Xnor, &[y, k0]);
        nl.add_output("z", z);
        let cone = KeyCone::of(&nl);

        let mut solver = Solver::new();
        let keys: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
        let node_values = nl
            .node_values(&[true, false], &[false, false])
            .expect("sim");

        let mut steady_state_vars = None;
        for generation in 0..5 {
            let frame = solver.push_frame();
            solver.set_default_frame(Some(frame));
            let outs = encode_key_cone(&nl, &mut solver, &cone, &node_values, &keys);
            let Signal::Lit(out) = outs[0] else {
                panic!("output depends on the key");
            };
            solver.add_clause([out]);
            solver.set_default_frame(None);
            assert_eq!(
                solver.solve_in(&[frame], &[]),
                SolveResult::Sat,
                "generation {generation}"
            );
            solver.retire_frame(frame);
            solver.simplify();
            match steady_state_vars {
                None => steady_state_vars = Some(solver.num_vars()),
                Some(expected) => assert_eq!(
                    solver.num_vars(),
                    expected,
                    "generation {generation}: later generations reuse the \
                     recycled variables of the first"
                ),
            }
        }
        assert!(
            solver.free_var_count() > 0,
            "retired encodings leave variables in the free list"
        );
    }

    #[test]
    fn signal_inversion() {
        assert_eq!(Signal::Const(true).invert(), Signal::Const(false));
        let mut solver = Solver::new();
        let l = Lit::positive(solver.new_var());
        assert_eq!(Signal::Lit(l).invert(), Signal::Lit(!l));
    }

    #[test]
    fn cone_encoding_skips_unrelated_logic() {
        let mut nl = Netlist::new("cones");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate("g1", GateKind::And, &[a, b]);
        let g2 = nl.add_gate("g2", GateKind::Or, &[a, b]);
        nl.add_output("g1", g1);
        nl.add_output("g2", g2);
        let mut solver = Solver::new();
        let mut enc = IncrementalEncoder::new(&nl, &mut solver, &PinBinding::default());
        enc.encode_cone(&nl, &mut solver, g1);
        assert!(enc.lit(g1).is_some());
        assert!(enc.lit(g2).is_none());
    }

    #[test]
    fn popcount_counts_correctly() {
        for pattern in 0..32u64 {
            let mut solver = Solver::new();
            let bits: Vec<Lit> = (0..5).map(|_| Lit::positive(solver.new_var())).collect();
            let sum = popcount_lits(&mut solver, &bits);
            for (i, &lit) in bits.iter().enumerate() {
                let bit = (pattern >> i) & 1 == 1;
                solver.add_clause([if bit { lit } else { !lit }]);
            }
            assert_eq!(solver.solve(), SolveResult::Sat);
            let got: u32 = sum
                .iter()
                .enumerate()
                .map(|(i, &s)| (solver.value(s).unwrap() as u32) << i)
                .sum();
            assert_eq!(got, pattern.count_ones());
        }
    }
}
