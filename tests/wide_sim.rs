//! Differential tests for the wide bit-parallel simulation engine and the
//! word-batched oracle transport: every width must agree with the scalar
//! reference bit for bit, and shipping the attack's oracle traffic in wide
//! blocks must not change its trajectory.

use fall::attack::{fall_attack, FallAttackConfig};
use fall::key_confirmation::KeyConfirmationConfig;
use fall::oracle::{CountingOracle, Oracle, SimOracle};
use fall::parallel::CachingOracle;
use locking::{LockingScheme, SfllHd, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::{Netlist, WideSim};
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

#[test]
fn wide_sim_matches_scalar_on_random_netlists() {
    for (i, (inputs, outputs, gates)) in [(6usize, 2usize, 40usize), (10, 3, 80), (14, 4, 150)]
        .into_iter()
        .enumerate()
    {
        let nl = generate(&RandomCircuitSpec::new(
            format!("ws_plain{i}"),
            inputs,
            outputs,
            gates,
        ));
        assert_wide_matches_scalar(&nl, 0x51D0 + i as u64);
    }
}

#[test]
fn wide_sim_matches_scalar_on_locked_netlists() {
    let original = generate(&RandomCircuitSpec::new("ws_locked", 12, 3, 90));
    let tt = TtLock::new(8).with_seed(3).lock(&original).expect("lock");
    let hd = SfllHd::new(10, 1)
        .with_seed(5)
        .lock(&original)
        .expect("lock");
    assert_wide_matches_scalar(&tt.locked, 0xA11);
    assert_wide_matches_scalar(&hd.optimized().locked, 0xB22);
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

#[test]
fn batched_oracle_queries_agree_with_scalar_for_all_widths() {
    let original = generate(&RandomCircuitSpec::new("ws_oracle", 9, 3, 60));
    let locked = SfllHd::new(7, 0)
        .with_seed(2)
        .lock(&original)
        .expect("lock");
    let plain = SimOracle::new(original);
    let activated = SimOracle::from_locked(locked.locked.clone(), &locked.key);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0AC7E);
    for width in WIDTHS {
        let block = stimulus(&mut rng, plain.num_inputs(), width);
        let native = plain.query_words(&block, width);
        assert_eq!(native, activated.query_words(&block, width));
        for lane in 0..width {
            for bit in [0usize, 5, 63] {
                let bits = unpack(&block, plain.num_inputs(), width, lane, bit);
                let scalar = plain.query(&bits);
                for (o, &v) in scalar.iter().enumerate() {
                    assert_eq!((native[o * width + lane] >> bit) & 1 == 1, v);
                }
            }
        }
    }
}

/// A transport shim that ships every scalar query as a width-1 word block
/// with the pattern splatted across all 64 bits: the attack above it sees an
/// ordinary oracle, while everything below it sees only batched traffic.
struct BatchedTransport<'o>(&'o (dyn Oracle + Sync));

impl Oracle for BatchedTransport<'_> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        let block: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let out = self.0.query_words(&block, 1);
        out.iter().map(|&word| word & 1 == 1).collect()
    }

    fn num_inputs(&self) -> usize {
        self.0.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.0.num_outputs()
    }
}

/// The full attack must extract identical keys over the scalar and batched
/// oracle transports, and the batched transport must never cost more unique
/// oracle patterns: the splatted block dedups to exactly the scalar query
/// under the sharded cache.
#[test]
fn attack_trajectory_is_identical_over_the_batched_transport() {
    let original = generate(&RandomCircuitSpec::new("ws_traj", 13, 3, 90));
    let locked = SfllHd::new(9, 1)
        .with_seed(77)
        .lock(&original)
        .expect("lock")
        .optimized();
    // Disable the equivalence check so spurious cubes can survive and key
    // confirmation actually exercises the oracle.
    let mut config = FallAttackConfig::for_h(1);
    config.equivalence_check = false;

    let scalar_counting = CountingOracle::new(SimOracle::new(original.clone()));
    let scalar_cache = CachingOracle::new(&scalar_counting);
    let scalar = fall_attack(&locked.locked, Some(&scalar_cache), &config);

    let batched_counting = CountingOracle::new(SimOracle::new(original));
    let batched_cache = CachingOracle::new(&batched_counting);
    let transport = BatchedTransport(&batched_cache);
    let batched = fall_attack(&locked.locked, Some(&transport), &config);

    assert_eq!(scalar.status, batched.status);
    assert_eq!(scalar.shortlisted_keys, batched.shortlisted_keys);
    assert_eq!(scalar.confirmed_key, batched.confirmed_key);
    assert!(
        batched_cache.unique_queries() <= scalar_cache.unique_queries(),
        "batched transport used {} unique patterns, scalar used {}",
        batched_cache.unique_queries(),
        scalar_cache.unique_queries()
    );
    // The cache resolves each splatted block to exactly its distinct
    // patterns, so the real oracle underneath saw the same scalar traffic.
    assert_eq!(batched_counting.queries(), scalar_counting.queries());
}

/// The word-batched shortlist prescreen must not change the confirmed key,
/// and its probe block must travel through `query_words`.
#[test]
fn screened_confirmation_matches_plain_and_ships_word_blocks() {
    let original = generate(&RandomCircuitSpec::new("ws_screen", 13, 3, 90));
    let locked = SfllHd::new(9, 1)
        .with_seed(41)
        .lock(&original)
        .expect("lock")
        .optimized();
    let mut plain_config = FallAttackConfig::for_h(1);
    plain_config.equivalence_check = false;
    let mut screened_config = plain_config.clone();
    screened_config.confirmation = KeyConfirmationConfig {
        screen_words: 4,
        ..KeyConfirmationConfig::default()
    };

    let plain_oracle = CountingOracle::new(SimOracle::new(original.clone()));
    let plain = fall_attack(&locked.locked, Some(&plain_oracle), &plain_config);

    let screened_oracle = CountingOracle::new(SimOracle::new(original));
    let screened = fall_attack(&locked.locked, Some(&screened_oracle), &screened_config);

    assert_eq!(plain.status, screened.status);
    assert_eq!(plain.confirmed_key, screened.confirmed_key);
    if screened.confirmed_key.is_some() && screened.shortlisted_keys.len() > 1 {
        assert_eq!(
            screened_oracle.batched_words(),
            4,
            "the prescreen ships its probes as one 4-word batch"
        );
    }
}
