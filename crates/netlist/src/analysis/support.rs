//! Support sets and transitive fanin cones.

use std::collections::BTreeSet;

use crate::{Netlist, NodeId};

/// The support of a node: the set of input nodes (primary and key) that can
/// influence its value, split by category.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupportSet {
    /// Primary (circuit) inputs in the support.
    pub primary: BTreeSet<NodeId>,
    /// Key inputs in the support.
    pub keys: BTreeSet<NodeId>,
}

impl SupportSet {
    /// Total number of inputs in the support.
    pub fn len(&self) -> usize {
        self.primary.len() + self.keys.len()
    }

    /// Returns `true` if the support is empty (constant node).
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty() && self.keys.is_empty()
    }

    /// Returns all support inputs (primary then key) as a sorted vector.
    pub fn all(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.primary.iter().copied().collect();
        v.extend(self.keys.iter().copied());
        v.sort_unstable();
        v
    }
}

/// Computes the set of all nodes in the transitive fanin cone of `node`
/// (including `node` itself), in topological order.
pub fn transitive_fanin(netlist: &Netlist, node: NodeId) -> Vec<NodeId> {
    let mut in_cone = vec![false; netlist.num_nodes()];
    let mut stack = vec![node];
    in_cone[node.index()] = true;
    while let Some(current) = stack.pop() {
        for &fanin in netlist.node(current).fanins() {
            if !in_cone[fanin.index()] {
                in_cone[fanin.index()] = true;
                stack.push(fanin);
            }
        }
    }
    (0..netlist.num_nodes())
        .filter(|&i| in_cone[i])
        .map(NodeId::from_index)
        .collect()
}

/// Computes the support of `node`: the primary and key inputs it transitively
/// depends on.
pub fn support(netlist: &Netlist, node: NodeId) -> SupportSet {
    let mut result = SupportSet::default();
    for id in transitive_fanin(netlist, node) {
        let n = netlist.node(id);
        if n.is_key_input() {
            result.keys.insert(id);
        } else if n.is_input() {
            result.primary.insert(id);
        }
    }
    result
}

/// Maps primary-input node ids to their positions in the declaration order
/// (the index into pin vectors such as
/// [`crate::cnf::IncrementalEncoder::inputs`]).
///
/// # Panics
///
/// Panics if an id is not a primary input of the netlist.
pub fn input_positions(netlist: &Netlist, ids: &[NodeId]) -> Vec<usize> {
    ids.iter()
        .map(|&id| netlist.input_position(id).expect("id is a primary input"))
        .collect()
}

/// The supports of *all* nodes of a netlist, computed in one topological
/// sweep and stored as one bitset row per node.
///
/// Bit `p` of a row is primary input position `p` (declaration order, see
/// [`Netlist::inputs`]); bit `num_inputs + q` is key input position `q`.
/// Primary inputs are numbered in node-id order, so ascending positions list
/// the support inputs sorted by node id, like [`SupportSet`].
///
/// This is much faster than calling [`support`] per node when scanning a
/// whole netlist (as comparator identification and support-set matching do),
/// and a row lookup replaces the per-query fanin traversal of the
/// functional analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupportTable {
    num_inputs: usize,
    words: usize,
    rows: Vec<u64>,
}

impl SupportTable {
    /// Sweeps the netlist once, OR-ing each gate's fanin rows.
    pub fn new(netlist: &Netlist) -> SupportTable {
        let num_inputs = netlist.num_inputs();
        let words = (num_inputs + netlist.num_key_inputs()).div_ceil(64).max(1);
        let mut rows = vec![0u64; netlist.num_nodes() * words];
        for (id, node) in netlist.iter() {
            let slot = if node.is_key_input() {
                netlist.key_input_position(id).map(|q| num_inputs + q)
            } else if node.is_input() {
                netlist.input_position(id)
            } else {
                None
            };
            let (done, row) = rows.split_at_mut(id.index() * words);
            let row = &mut row[..words];
            match slot {
                Some(bit) => row[bit / 64] |= 1 << (bit % 64),
                None => {
                    for fanin in node.fanins() {
                        let fanin = &done[fanin.index() * words..][..words];
                        for (word, &bits) in row.iter_mut().zip(fanin) {
                            *word |= bits;
                        }
                    }
                }
            }
        }
        SupportTable {
            num_inputs,
            words,
            rows,
        }
    }

    /// The bitset row of `node`.
    pub fn row(&self, node: NodeId) -> &[u64] {
        &self.rows[node.index() * self.words..][..self.words]
    }

    /// The row of a support made of exactly the given primary input
    /// positions, for comparison with [`SupportTable::row`].
    pub fn row_of_primaries(&self, positions: &[usize]) -> Vec<u64> {
        let mut row = vec![0u64; self.words];
        for &p in positions {
            assert!(p < self.num_inputs, "position {p} is not a primary input");
            row[p / 64] |= 1 << (p % 64);
        }
        row
    }

    /// Primary input positions in the support of `node`, ascending.
    pub fn primary_positions(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let limit = self.num_inputs;
        set_bits(self.row(node)).take_while(move |&bit| bit < limit)
    }

    /// Key input positions in the support of `node`, ascending.
    pub fn key_positions(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let offset = self.num_inputs;
        set_bits(self.row(node))
            .skip_while(move |&bit| bit < offset)
            .map(move |bit| bit - offset)
    }

    /// Number of inputs (primary and key) in the support of `node`.
    pub fn len(&self, node: NodeId) -> usize {
        self.row(node).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if some key input is in the support of `node`.
    pub fn has_keys(&self, node: NodeId) -> bool {
        self.key_positions(node).next().is_some()
    }
}

/// The indices of the set bits of a bitset, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn sample() -> (Netlist, NodeId, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_key_input("k0");
        let g1 = nl.add_gate("g1", GateKind::And, &[a, b]);
        let g2 = nl.add_gate("g2", GateKind::Xor, &[g1, k]);
        nl.add_output("g2", g2);
        (nl, a, b, k, g2)
    }

    #[test]
    fn support_splits_keys_and_primaries() {
        let (nl, a, b, k, g2) = sample();
        let s = support(&nl, g2);
        assert_eq!(s.primary, [a, b].into_iter().collect());
        assert_eq!(s.keys, [k].into_iter().collect());
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn transitive_fanin_is_topological_and_complete() {
        let (nl, a, b, k, g2) = sample();
        let cone = transitive_fanin(&nl, g2);
        assert!(cone.contains(&a));
        assert!(cone.contains(&b));
        assert!(cone.contains(&k));
        assert!(cone.contains(&g2));
        for window in cone.windows(2) {
            assert!(window[0] < window[1]);
        }
    }

    #[test]
    fn input_support_is_itself() {
        let (nl, a, _, _, _) = sample();
        let s = support(&nl, a);
        assert_eq!(s.primary, [a].into_iter().collect());
        assert!(s.keys.is_empty());
    }

    #[test]
    fn support_table_matches_per_node_support() {
        // 70 primary plus 3 key inputs: rows span two words, and the key
        // bits sit in the second one.
        let spec = crate::random::RandomCircuitSpec::new("wide", 70, 3, 200);
        let mut wide = crate::random::generate(&spec);
        let mut driver = wide.outputs()[0].1;
        for i in 0..3 {
            let key = wide.add_key_input(format!("k{i}"));
            driver = wide.add_gate(format!("kx{i}"), GateKind::Xor, &[driver, key]);
        }
        wide.add_output("keyed", driver);
        for nl in [sample().0, wide] {
            let table = SupportTable::new(&nl);
            for (id, _) in nl.iter() {
                let s = support(&nl, id);
                let primary: Vec<NodeId> = table
                    .primary_positions(id)
                    .map(|p| nl.inputs()[p])
                    .collect();
                let keys: Vec<NodeId> = table
                    .key_positions(id)
                    .map(|q| nl.key_inputs()[q])
                    .collect();
                assert!(
                    primary.iter().copied().eq(s.primary.iter().copied()),
                    "{id:?}"
                );
                assert!(keys.iter().copied().eq(s.keys.iter().copied()), "{id:?}");
                assert_eq!(table.len(id), s.len(), "{id:?}");
                assert_eq!(table.has_keys(id), !s.keys.is_empty(), "{id:?}");
            }
        }
    }
}
