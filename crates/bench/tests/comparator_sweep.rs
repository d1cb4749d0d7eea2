//! Differential test of the one-sweep comparator classifier (§ III-A).
//!
//! `find_comparators` classifies every candidate gate from one word-parallel
//! simulation sweep.  Here it must agree, comparator for comparator, with
//! the paper's SAT-based `find_comparators_sat` and with a reference built
//! from the definition: per-node `support` and one scalar `node_values`
//! run for each of the four assignments of the gate's (input, key) pair.
//! The netlists cover every 2-input gate kind, repeated fanins, NOT/BUF
//! chains, constant fanins, gates over two inputs of one kind, seeded
//! TTLock, SFLL-HD and XorLock locks (plain and strashed) and the
//! paper-scale des TTLock case.  It lives in fall-bench because the Table I
//! circuits do.

use fall::structural::{find_comparators, find_comparators_sat, Comparator};
use fall_bench::{HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};
use locking::{LockingScheme, SfllHd, TtLock, XorLock};
use netlist::analysis::support;
use netlist::random::{generate, RandomCircuitSpec};
use netlist::strash::strash;
use netlist::{GateKind, Netlist, NodeId};

/// The comparators by definition, independent of the support table and of
/// the word sweep.
fn reference_comparators(netlist: &Netlist) -> Vec<Comparator> {
    let mut comparators = Vec::new();
    for node in netlist.gate_ids() {
        let s = support(netlist, node);
        if s.primary.len() != 1 || s.keys.len() != 1 {
            continue;
        }
        let input = *s.primary.first().expect("one input");
        let key = *s.keys.first().expect("one key");
        let truth = [(false, false), (true, false), (false, true), (true, true)].map(|(iv, kv)| {
            let inputs: Vec<bool> = netlist.inputs().iter().map(|&i| i == input && iv).collect();
            let keys: Vec<bool> = netlist
                .key_inputs()
                .iter()
                .map(|&k| k == key && kv)
                .collect();
            netlist.node_values(&inputs, &keys).expect("widths match")[node.index()]
        });
        let xnor = match truth {
            [false, true, true, false] => false,
            [true, false, false, true] => true,
            _ => continue,
        };
        comparators.push(Comparator {
            node,
            input,
            key,
            xnor,
        });
    }
    comparators
}

/// Asserts that the sweep, the SAT reference and the definition agree, and
/// returns the comparators.
fn agreed_comparators(netlist: &Netlist) -> Vec<Comparator> {
    let by_sweep = find_comparators(netlist);
    assert_eq!(
        by_sweep,
        reference_comparators(netlist),
        "{}: sweep vs definition",
        netlist.name()
    );
    assert_eq!(
        by_sweep,
        find_comparators_sat(netlist),
        "{}: sweep vs SAT",
        netlist.name()
    );
    by_sweep
}

/// The `(node, xnor)` pairs of a comparator list.
fn polarities(comparators: &[Comparator]) -> Vec<(NodeId, bool)> {
    comparators.iter().map(|c| (c.node, c.xnor)).collect()
}

#[test]
fn every_two_input_gate_kind_on_an_input_key_pair() {
    let mut nl = Netlist::new("kinds");
    let x = nl.add_input("x");
    let k = nl.add_key_input("k");
    let mut expected = Vec::new();
    for (i, kind) in [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ]
    .into_iter()
    .enumerate()
    {
        // Both fanin orders: the classification must not depend on it.
        for (j, fanins) in [[x, k], [k, x]].into_iter().enumerate() {
            let g = nl.add_gate(format!("g{i}_{j}"), kind, &fanins);
            nl.add_output(format!("o{i}_{j}"), g);
            match kind {
                GateKind::Xor => expected.push((g, false)),
                GateKind::Xnor => expected.push((g, true)),
                _ => {}
            }
        }
    }
    let found = agreed_comparators(&nl);
    assert_eq!(polarities(&found), expected);
    assert!(found.iter().all(|c| c.input == x && c.key == k));
}

#[test]
fn repeated_fanins_cancel_in_wide_xors() {
    let mut nl = Netlist::new("repeats");
    let x = nl.add_input("x");
    let k = nl.add_key_input("k");
    // Structural support {x, k}, function k: not a comparator.
    let only_k = nl.add_gate("only_k", GateKind::Xor, &[x, k, x]);
    // x ^ k ^ k ^ k = x ^ k, and its complement.
    let xor = nl.add_gate("xor", GateKind::Xor, &[x, k, k, k]);
    let xnor = nl.add_gate("xnor", GateKind::Xnor, &[k, x, k, k]);
    // x & k & x = x & k: not a comparator.
    let and = nl.add_gate("and", GateKind::And, &[x, k, x]);
    for (name, g) in [("a", only_k), ("b", xor), ("c", xnor), ("d", and)] {
        nl.add_output(name, g);
    }
    let found = agreed_comparators(&nl);
    assert_eq!(polarities(&found), vec![(xor, false), (xnor, true)]);
}

#[test]
fn not_buf_chains_and_constant_fanins() {
    let mut nl = Netlist::new("chains");
    let x = nl.add_input("x");
    let k = nl.add_key_input("k");
    let zero = nl.add_gate("zero", GateKind::Const0, &[]);
    let one = nl.add_gate("one", GateKind::Const1, &[]);
    let base = nl.add_gate("base", GateKind::Xor, &[x, k]);
    let not1 = nl.add_gate("not1", GateKind::Not, &[base]);
    let buf = nl.add_gate("buf", GateKind::Buf, &[not1]);
    let not2 = nl.add_gate("not2", GateKind::Not, &[buf]);
    // x ^ k ^ 1 is XNOR; AND with 1 and OR with 0 pass the XOR through.
    let xor_one = nl.add_gate("xor_one", GateKind::Xor, &[x, k, one]);
    let and_one = nl.add_gate("and_one", GateKind::And, &[base, one]);
    let or_zero = nl.add_gate("or_zero", GateKind::Or, &[zero, base]);
    // AND with 0 is constant although its support is {x, k}.
    let and_zero = nl.add_gate("and_zero", GateKind::And, &[base, zero]);
    // A NOT of the key alone, XORed with the input, is XNOR.
    let not_k = nl.add_gate("not_k", GateKind::Not, &[k]);
    let via_not_k = nl.add_gate("via_not_k", GateKind::Xor, &[x, not_k]);
    for g in [not2, xor_one, and_one, or_zero, and_zero, via_not_k] {
        nl.add_output(format!("o_{}", g.index()), g);
    }
    let found = agreed_comparators(&nl);
    assert_eq!(
        polarities(&found),
        vec![
            (base, false),
            (not1, true),
            (buf, true),
            (not2, false),
            (xor_one, true),
            (and_one, false),
            (or_zero, false),
            (via_not_k, true),
        ]
    );
}

#[test]
fn gates_over_two_inputs_of_one_kind_are_not_comparators() {
    let mut nl = Netlist::new("same_kind");
    let x0 = nl.add_input("x0");
    let x1 = nl.add_input("x1");
    let k0 = nl.add_key_input("k0");
    let k1 = nl.add_key_input("k1");
    let inputs = nl.add_gate("inputs", GateKind::Xor, &[x0, x1]);
    let keys = nl.add_gate("keys", GateKind::Xnor, &[k0, k1]);
    // Support {x0, x1, k0}: three inputs, not a candidate.
    let three = nl.add_gate("three", GateKind::Xor, &[inputs, k0]);
    for g in [inputs, keys, three] {
        nl.add_output(format!("o_{}", g.index()), g);
    }
    assert!(agreed_comparators(&nl).is_empty());
}

#[test]
fn seeded_locks_plain_and_strashed() {
    for seed in 0..3u64 {
        let original =
            generate(&RandomCircuitSpec::new(format!("cmp{seed}"), 12, 3, 80).with_seed(seed));
        // TTLock and SFLL-HD compare every key bit with an input; XorLock
        // key gates may or may not end up with a {input, key} support.
        let locks = [
            (TtLock::new(8).with_seed(seed).lock(&original), true),
            (
                SfllHd::new(8, 1 + seed as usize)
                    .with_seed(seed)
                    .lock(&original),
                true,
            ),
            (XorLock::new(8).with_seed(seed).lock(&original), false),
        ];
        for (locked, compares_keys) in locks {
            let locked = locked.expect("lock");
            for netlist in [strash(&locked.locked), locked.locked] {
                let found = agreed_comparators(&netlist);
                assert!(!compares_keys || !found.is_empty(), "{}", locked.scheme);
            }
        }
    }
}

#[test]
fn paper_scale_des_ttlock_pairs_every_key() {
    let des = TABLE1_CIRCUITS
        .iter()
        .find(|spec| spec.name == "des")
        .expect("Table I circuit");
    let case = LockCase::build(des, HdPolicy::Zero, Scale::Paper);
    assert_eq!(case.keys, 64);
    let found = agreed_comparators(&case.locked.locked);
    assert_eq!(found.len(), 64);
    let mut keys: Vec<NodeId> = found.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 64, "every key input in one comparator");
}
