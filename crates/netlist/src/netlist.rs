//! The gate-level netlist data structure.

use std::collections::HashMap;
use std::fmt;

use crate::{GateKind, NetlistError};

/// Identifier of a node (input or gate) inside a [`Netlist`].
///
/// Node identifiers are dense indices; nodes are stored in topological order
/// (every fanin of a gate has a smaller identifier), which construction
/// enforces automatically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its index.
    pub(crate) fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What a node is: a primary input, a key input, or a gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary (circuit) input.
    Input,
    /// A key input added by a locking scheme.
    KeyInput,
    /// A logic gate.
    Gate {
        /// The gate kind.
        kind: GateKind,
        /// Fanin nodes, in order.
        fanins: Vec<NodeId>,
    },
}

/// A single node of the netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    name: String,
    kind: NodeKind,
}

impl Node {
    /// The signal name of this node.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Returns the fanins of this node (empty for inputs).
    pub fn fanins(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Gate { fanins, .. } => fanins,
            _ => &[],
        }
    }

    /// Returns the gate kind, or `None` for inputs.
    pub fn gate_kind(&self) -> Option<GateKind> {
        match &self.kind {
            NodeKind::Gate { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// Returns `true` if this node is a primary or key input.
    pub fn is_input(&self) -> bool {
        matches!(self.kind, NodeKind::Input | NodeKind::KeyInput)
    }

    /// Returns `true` if this node is a key input.
    pub fn is_key_input(&self) -> bool {
        matches!(self.kind, NodeKind::KeyInput)
    }
}

/// A combinational gate-level netlist with primary inputs, key inputs and
/// named outputs.
///
/// The netlist is a DAG: gates may only reference nodes that already exist,
/// so node ids are always in topological order.
///
/// # Example
///
/// ```
/// use netlist::{GateKind, Netlist};
///
/// let mut nl = Netlist::new("mux");
/// let s = nl.add_input("s");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let ns = nl.add_gate("ns", GateKind::Not, &[s]);
/// let t0 = nl.add_gate("t0", GateKind::And, &[ns, a]);
/// let t1 = nl.add_gate("t1", GateKind::And, &[s, b]);
/// let y = nl.add_gate("y", GateKind::Or, &[t0, t1]);
/// nl.add_output("y", y);
/// assert_eq!(nl.evaluate(&[false, true, false], &[]), vec![true]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    key_inputs: Vec<NodeId>,
    input_positions: HashMap<NodeId, usize>,
    key_positions: HashMap<NodeId, usize>,
    outputs: Vec<(String, NodeId)>,
    names: HashMap<String, NodeId>,
    fresh_counter: u64,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes (inputs + gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gate nodes (excluding inputs).
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - self.inputs.len() - self.key_inputs.len()
    }

    /// Number of primary (non-key) inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of key inputs.
    pub fn num_key_inputs(&self) -> usize {
        self.key_inputs.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The key inputs in declaration order.
    pub fn key_inputs(&self) -> &[NodeId] {
        &self.key_inputs
    }

    /// The outputs as `(name, node)` pairs in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over the ids of all gate nodes in topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().filter(|(_, n)| !n.is_input()).map(|(id, _)| id)
    }

    /// Looks a node up by name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Returns `true` if `id` is a primary (non-key) input.
    pub fn is_primary_input(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind(), NodeKind::Input)
    }

    /// Returns `true` if `id` is a key input.
    pub fn is_key_input(&self, id: NodeId) -> bool {
        self.node(id).is_key_input()
    }

    /// Returns the declaration-order position of a primary input, or `None`
    /// if `id` is not a primary input of this netlist.
    ///
    /// This is a precomputed O(1) lookup (the inverse of indexing into
    /// [`Netlist::inputs`]), maintained incrementally as inputs are added.
    pub fn input_position(&self, id: NodeId) -> Option<usize> {
        self.input_positions.get(&id).copied()
    }

    /// Returns the declaration-order position of a key input, or `None` if
    /// `id` is not a key input of this netlist.
    ///
    /// The key-input counterpart of [`Netlist::input_position`].
    pub fn key_input_position(&self, id: NodeId) -> Option<usize> {
        self.key_positions.get(&id).copied()
    }

    /// Adds a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Input)
    }

    /// Adds a key input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::KeyInput)
    }

    /// Adds a gate with an explicit name.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use, if a fanin id does not belong to
    /// this netlist, or if the fanin count is invalid for the gate kind.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: &[NodeId],
    ) -> NodeId {
        assert!(
            kind.arity_ok(fanins.len()),
            "gate {kind} cannot take {} fanins",
            fanins.len()
        );
        for &f in fanins {
            assert!(
                f.index() < self.nodes.len(),
                "fanin {f:?} does not exist in this netlist"
            );
        }
        self.add_node(
            name.into(),
            NodeKind::Gate {
                kind,
                fanins: fanins.to_vec(),
            },
        )
    }

    /// Generates a fresh signal name with the given prefix.
    pub fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.names.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    /// Declares `node` as an output with the given name.
    ///
    /// The same node may drive several outputs.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this netlist.
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) {
        assert!(
            node.index() < self.nodes.len(),
            "output driver {node:?} does not exist"
        );
        self.outputs.push((name.into(), node));
    }

    /// Replaces the driver of the `index`-th output (declaration order),
    /// keeping its name.  Used by locking schemes to splice restoration logic
    /// in front of a protected output.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `node` does not belong to this
    /// netlist.
    pub fn replace_output(&mut self, index: usize, node: NodeId) {
        assert!(index < self.outputs.len(), "output index out of range");
        assert!(
            node.index() < self.nodes.len(),
            "output driver {node:?} does not exist"
        );
        self.outputs[index].1 = node;
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> NodeId {
        assert!(
            !self.names.contains_key(&name),
            "duplicate signal name `{name}`"
        );
        let id = NodeId::from_index(self.nodes.len());
        self.names.insert(name.clone(), id);
        match kind {
            NodeKind::Input => {
                self.input_positions.insert(id, self.inputs.len());
                self.inputs.push(id);
            }
            NodeKind::KeyInput => {
                self.key_positions.insert(id, self.key_inputs.len());
                self.key_inputs.push(id);
            }
            NodeKind::Gate { .. } => {}
        }
        self.nodes.push(Node { name, kind });
        id
    }

    /// Checks internal consistency: unique names, valid fanins, valid arities
    /// and at least one output.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen = HashMap::new();
        for (id, node) in self.iter() {
            if let Some(_prev) = seen.insert(node.name().to_string(), id) {
                return Err(NetlistError::DuplicateName(node.name().to_string()));
            }
            if let NodeKind::Gate { kind, fanins } = node.kind() {
                if !kind.arity_ok(fanins.len()) {
                    return Err(NetlistError::BadArity {
                        gate: kind.to_string(),
                        got: fanins.len(),
                    });
                }
                for f in fanins {
                    if f.index() >= id.index() {
                        return Err(NetlistError::UnknownSignal(format!(
                            "fanin {f:?} of {} is not topologically earlier",
                            node.name()
                        )));
                    }
                }
            }
        }
        for (name, node) in &self.outputs {
            if node.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownSignal(name.clone()));
            }
        }
        Ok(())
    }

    /// Returns a short multi-line summary of the netlist (sizes per category).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} inputs, {} key inputs, {} outputs, {} gates",
            self.name,
            self.num_inputs(),
            self.num_key_inputs(),
            self.num_outputs(),
            self.num_gates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k0");
        let g = nl.add_gate("g", GateKind::Xor, &[a, k]);
        nl.add_output("y", g);

        assert_eq!(nl.num_inputs(), 1);
        assert_eq!(nl.num_key_inputs(), 1);
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.num_outputs(), 1);
        assert!(nl.is_primary_input(a));
        assert!(nl.is_key_input(k));
        assert!(!nl.is_key_input(g));
        assert_eq!(nl.lookup("g"), Some(g));
        assert_eq!(nl.lookup("missing"), None);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.input_position(a), Some(0));
        assert_eq!(nl.input_position(k), None);
        assert_eq!(nl.key_input_position(k), Some(0));
        assert_eq!(nl.key_input_position(g), None);
    }

    #[test]
    fn positions_track_declaration_order() {
        let mut nl = Netlist::new("t");
        let ins: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        let keys: Vec<NodeId> = (0..3).map(|i| nl.add_key_input(format!("k{i}"))).collect();
        for (pos, &id) in ins.iter().enumerate() {
            assert_eq!(nl.input_position(id), Some(pos));
            assert_eq!(nl.key_input_position(id), None);
        }
        for (pos, &id) in keys.iter().enumerate() {
            assert_eq!(nl.key_input_position(id), Some(pos));
            assert_eq!(nl.input_position(id), None);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_names_panic() {
        let mut nl = Netlist::new("t");
        nl.add_input("a");
        nl.add_input("a");
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn bad_arity_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.add_gate("g", GateKind::And, &[a]);
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut nl = Netlist::new("t");
        nl.add_input("_g0");
        let n1 = nl.fresh_name("_g");
        let n2 = nl.fresh_name("_g");
        assert_ne!(n1, "_g0");
        assert_ne!(n1, n2);
    }

    #[test]
    fn gate_ids_excludes_inputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        nl.add_output("g", g);
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        assert_eq!(gates, vec![g]);
    }

    #[test]
    fn summary_mentions_counts() {
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::Or, &[a, b]);
        nl.add_output("y", g);
        let s = nl.summary();
        assert!(s.contains("demo"));
        assert!(s.contains("2 inputs"));
    }
}
