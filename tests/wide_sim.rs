//! Differential tests for the wide bit-parallel simulation engine: every
//! width must agree with the scalar reference bit for bit, and a sweep
//! restricted to a cover with the whole-netlist sweep on every cover node.

use locking::{LockingScheme, SfllHd, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::{Cover, Netlist, NetlistError, NodeId, WideSim};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Random stimulus block for `netlist`: `pins * width` words, pin-major.
fn stimulus(rng: &mut ChaCha8Rng, pins: usize, width: usize) -> Vec<u64> {
    (0..pins * width).map(|_| rng.gen()).collect()
}

/// Extracts the scalar pattern at (`lane`, `bit`) from a pin-major block.
fn unpack(block: &[u64], pins: usize, width: usize, lane: usize, bit: usize) -> Vec<bool> {
    (0..pins)
        .map(|p| (block[p * width + lane] >> bit) & 1 == 1)
        .collect()
}

/// Runs the lockstep wide-vs-scalar comparison on one netlist: every node of
/// every lane of every width must match a scalar `node_values` sweep.
fn assert_wide_matches_scalar(nl: &Netlist, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for width in WIDTHS {
        let inputs = stimulus(&mut rng, nl.num_inputs(), width);
        let keys = stimulus(&mut rng, nl.num_key_inputs(), width);
        let mut sim = WideSim::new(nl, width);
        sim.run(nl, &inputs, &keys).expect("stimulus fits");
        for lane in 0..width {
            // 8 probe bits per lane keep the scalar reference sweep cheap.
            for bit in [0usize, 1, 7, 13, 31, 32, 47, 63] {
                let in_bits = unpack(&inputs, nl.num_inputs(), width, lane, bit);
                let key_bits = unpack(&keys, nl.num_key_inputs(), width, lane, bit);
                let reference = nl.node_values(&in_bits, &key_bits).expect("widths");
                for (node, (id, _)) in nl.iter().enumerate() {
                    let got = (sim.node(id)[lane] >> bit) & 1 == 1;
                    assert_eq!(
                        got, reference[node],
                        "width {width} lane {lane} bit {bit} node {node}"
                    );
                }
            }
        }
    }
}

fn random_netlists() -> Vec<Netlist> {
    [(6usize, 2usize, 40usize), (10, 3, 80), (14, 4, 150)]
        .into_iter()
        .enumerate()
        .map(|(i, (inputs, outputs, gates))| {
            generate(&RandomCircuitSpec::new(
                format!("ws_plain{i}"),
                inputs,
                outputs,
                gates,
            ))
        })
        .collect()
}

/// A TTLock- and an SFLL-HD-locked netlist (key inputs included).
fn locked_netlists() -> [Netlist; 2] {
    let original = generate(&RandomCircuitSpec::new("ws_locked", 12, 3, 90));
    let tt = TtLock::new(8).with_seed(3).lock(&original).expect("lock");
    let hd = SfllHd::new(10, 1)
        .with_seed(5)
        .lock(&original)
        .expect("lock");
    [tt.locked, hd.optimized().locked]
}

#[test]
fn wide_sim_matches_scalar_on_random_netlists() {
    for (i, nl) in random_netlists().iter().enumerate() {
        assert_wide_matches_scalar(nl, 0x51D0 + i as u64);
    }
}

#[test]
fn wide_sim_matches_scalar_on_locked_netlists() {
    let [tt, hd] = locked_netlists();
    assert_wide_matches_scalar(&tt, 0xA11);
    assert_wide_matches_scalar(&hd, 0xB22);
}

/// For random root sets, growing one cover: a cover sweep must leave every
/// cover node with the whole-netlist sweep's block and every other node
/// untouched, at widths 1 and 8.
fn assert_cover_matches_whole_netlist(nl: &Netlist, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for width in [1usize, 8] {
        let mut cover = Cover::of(nl, []);
        let mut sim = WideSim::new(nl, width);
        let mut whole = WideSim::new(nl, width);
        for _ in 0..6 {
            let roots: Vec<NodeId> = (0..rng.gen_range(1..4))
                .map(|_| {
                    nl.iter()
                        .nth(rng.gen_range(0..nl.num_nodes()))
                        .expect("node")
                        .0
                })
                .collect();
            cover.extend(nl, roots.iter().copied());
            assert!(roots.iter().all(|&root| cover.contains(root)));
            let inputs = stimulus(&mut rng, nl.num_inputs(), width);
            let keys = stimulus(&mut rng, nl.num_key_inputs(), width);
            // What the previous sweep left outside the cover must survive.
            let stale: Vec<Vec<u64>> = nl.iter().map(|(id, _)| sim.node(id).to_vec()).collect();
            sim.run_cover(nl, &cover, &inputs, &keys)
                .expect("stimulus fits");
            whole.run(nl, &inputs, &keys).expect("stimulus fits");
            for (id, _) in nl.iter() {
                let expected = if cover.contains(id) {
                    whole.node(id)
                } else {
                    &stale[id.index()]
                };
                assert_eq!(sim.node(id), expected, "width {width} node {id:?}");
            }
        }
        // A stimulus of the wrong width fails as `run` does.
        let (inputs, keys) = (nl.num_inputs() * width, nl.num_key_inputs() * width);
        for (inputs, keys) in [(inputs - 1, keys), (inputs, keys + 1)] {
            let inputs = stimulus(&mut rng, inputs, 1);
            let keys = stimulus(&mut rng, keys, 1);
            let result = sim.run_cover(nl, &cover, &inputs, &keys);
            assert!(
                matches!(result, Err(NetlistError::StimulusWidth { .. })),
                "{result:?}"
            );
            assert_eq!(result, whole.run(nl, &inputs, &keys));
        }
    }
}

#[test]
fn cover_sweeps_match_whole_netlist_sweeps() {
    for (i, nl) in random_netlists().iter().enumerate() {
        assert_cover_matches_whole_netlist(nl, 0xC0 + i as u64);
    }
    for (i, nl) in locked_netlists().iter().enumerate() {
        assert_cover_matches_whole_netlist(nl, 0xC1C0 + i as u64);
    }
}

#[test]
fn single_word_engine_agrees_with_the_fresh_baseline() {
    let original = generate(&RandomCircuitSpec::new("ws_fresh", 11, 2, 70));
    let locked = TtLock::new(6).with_seed(9).lock(&original).expect("lock");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E5);
    let inputs = stimulus(&mut rng, locked.locked.num_inputs(), 1);
    let keys = stimulus(&mut rng, locked.locked.num_key_inputs(), 1);
    let reused = locked.locked.node_words(&inputs, &keys).expect("widths");
    let fresh = locked
        .locked
        .node_words_fresh(&inputs, &keys)
        .expect("widths");
    assert_eq!(reused, fresh);
}
