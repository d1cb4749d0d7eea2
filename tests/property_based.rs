//! Property-based tests over the core invariants of the stack.
//!
//! The original version of this file used `proptest`; the offline build
//! environment cannot fetch it, so the properties are driven by a small
//! deterministic case runner instead: every property is checked over a fixed
//! number of pseudo-random cases derived from a per-test seed, which keeps
//! failures reproducible (the failing case index and inputs are reported).

use locking::{Key, LockingScheme, SfllHd, TtLock, XorLock};
use netlist::cnf::{IncrementalEncoder, PinBinding};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::sim::pattern_to_bits;
use netlist::strash::strash;
use netlist::{GateKind, Netlist, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sat::{Lit, SolveResult, Solver, Var};

/// Runs `property` on `cases` pseudo-random cases seeded from `seed`.
fn check<F: FnMut(usize, &mut ChaCha8Rng)>(seed: u64, cases: usize, mut property: F) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
        property(case, &mut rng);
    }
}

/// Builds a small random circuit from a chosen seed.
fn seeded_circuit(seed: u64, inputs: usize, gates: usize) -> Netlist {
    generate(&RandomCircuitSpec::new("prop", inputs, 2, gates).with_seed(seed))
}

/// Structural hashing never changes the circuit function.
#[test]
fn strash_preserves_function() {
    check(101, 24, |case, rng| {
        let circuit = seeded_circuit(rng.gen_range(0..1_000u64), 8, 60);
        let optimized = strash(&circuit);
        let pattern = rng.gen_range(0..256u64);
        let bits = pattern_to_bits(pattern, 8);
        assert_eq!(
            circuit.evaluate(&bits, &[]),
            optimized.evaluate(&bits, &[]),
            "case {case} pattern {pattern:08b}"
        );
    });
}

/// The Tseitin encoding agrees with direct simulation on every output.
#[test]
fn cnf_encoding_matches_simulation() {
    check(102, 24, |case, rng| {
        let circuit = seeded_circuit(rng.gen_range(0..500u64), 8, 40);
        let pattern = rng.gen_range(0..256u64);
        let bits = pattern_to_bits(pattern, 8);
        let expected = circuit.evaluate(&bits, &[]);

        let mut solver = Solver::new();
        let mut enc = IncrementalEncoder::new(&circuit, &mut solver, &PinBinding::default());
        let outputs = enc.encode_outputs(&circuit, &mut solver);
        for (lit, value) in enc.inputs().iter().zip(&bits) {
            solver.add_clause([if *value { *lit } else { !*lit }]);
        }
        assert_eq!(solver.solve(), SolveResult::Sat, "case {case}");
        let got: Vec<bool> = outputs.iter().map(|&l| solver.value(l).unwrap()).collect();
        assert_eq!(got, expected, "case {case} pattern {pattern:08b}");
    });
}

/// Generates a random CNF over at most `max_vars` variables.
fn random_cnf(rng: &mut ChaCha8Rng, max_vars: usize, max_clauses: usize) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = rng.gen_range(1..max_vars + 1);
    let num_clauses = rng.gen_range(1..max_clauses + 1);
    let clauses: Vec<Vec<Lit>> = (0..num_clauses)
        .map(|_| {
            let len = rng.gen_range(1..4usize);
            (0..len)
                .map(|_| Lit::new(Var::from_index(rng.gen_range(0..num_vars)), rng.gen()))
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

/// Brute-force satisfiability of a CNF over `num_vars <= 24` variables.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    (0u64..(1 << num_vars)).any(|assignment| {
        clauses.iter().all(|clause| {
            clause.iter().any(|l| {
                let value = (assignment >> l.var().index()) & 1 == 1;
                value == l.is_positive()
            })
        })
    })
}

/// The SAT solver agrees with brute force on random formulas of up to
/// 12 variables, and reported models satisfy every clause.
#[test]
fn solver_matches_brute_force_up_to_12_vars() {
    check(103, 80, |case, rng| {
        let (num_vars, clauses) = random_cnf(rng, 12, 40);
        let mut solver = Solver::new();
        solver.ensure_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let solver_says_sat = solver.solve() == SolveResult::Sat;
        let expected = brute_force_sat(num_vars, &clauses);
        assert_eq!(solver_says_sat, expected, "case {case}: {clauses:?}");

        if solver_says_sat {
            for clause in &clauses {
                assert!(
                    clause.iter().any(|&l| solver.value(l) == Some(true)),
                    "case {case}: model violates {clause:?}"
                );
            }
        }
    });
}

/// Locking with the correct key is always functionally transparent, for
/// every scheme.
#[test]
fn correct_key_is_transparent() {
    check(105, 24, |case, rng| {
        let seed = rng.gen_range(0..200u64);
        let original = seeded_circuit(seed, 10, 80);
        let pattern = rng.gen_range(0..1024u64);
        let bits = pattern_to_bits(pattern, 10);
        let want = original.evaluate(&bits, &[]);

        let sfll = SfllHd::new(6, 1).with_seed(seed).lock(&original).unwrap();
        assert_eq!(
            sfll.locked.evaluate(&bits, sfll.key.bits()),
            want,
            "case {case} sfll"
        );

        let tt = TtLock::new(6).with_seed(seed).lock(&original).unwrap();
        assert_eq!(
            tt.locked.evaluate(&bits, tt.key.bits()),
            want,
            "case {case} ttlock"
        );

        let xor = XorLock::new(6).with_seed(seed).lock(&original).unwrap();
        assert_eq!(
            xor.locked.evaluate(&bits, xor.key.bits()),
            want,
            "case {case} xor"
        );
    });
}

/// SFLL-HDh corrupts a wrong key on at most `2 * C(m, h)` input patterns of
/// the protected-input subspace — the low-corruption property that makes it
/// SAT-attack resilient.
#[test]
fn sfll_wrong_key_corruption_is_bounded() {
    check(106, 16, |case, rng| {
        let seed = rng.gen_range(0..100u64);
        let original = seeded_circuit(seed, 8, 60);
        let m = 8usize;
        let h = 1usize;
        let locked = SfllHd::new(m, h).with_seed(seed).lock(&original).unwrap();
        let wrong = Key::from_pattern(seed ^ 0x55, m);
        if wrong == locked.key {
            return;
        }
        let corrupted = (0..256u64)
            .filter(|&p| {
                let bits = pattern_to_bits(p, 8);
                locked.locked.evaluate(&bits, wrong.bits()) != original.evaluate(&bits, &[])
            })
            .count();
        // C(8, 1) = 8 patterns per cube, two cubes involved at most.
        assert!(
            corrupted <= 16,
            "case {case}: corrupted {corrupted} patterns"
        );
    });
}

/// Whatever key the FALL attack shortlists must be functionally correct —
/// never a false positive once the equivalence check is on.
#[test]
fn fall_shortlist_contains_no_false_positives() {
    check(107, 8, |case, rng| {
        let seed = rng.gen_range(0..24u64);
        let original = seeded_circuit(seed, 12, 100);
        let locked = SfllHd::new(8, 1)
            .with_seed(seed)
            .lock(&original)
            .unwrap()
            .optimized();
        let result = fall::attack::fall_attack(
            &locked.locked,
            None,
            &fall::attack::FallAttackConfig::for_h(1),
        );
        for key in &result.shortlisted_keys {
            assert!(
                locked.key_is_functionally_correct(key, 128, seed),
                "case {case}: shortlisted key {key} is not functionally correct"
            );
        }
    });
}

/// Applying the ground-truth key with `fall::unlock` always reproduces the
/// original circuit, for a random scheme choice.
#[test]
fn unlock_with_correct_key_recovers_original() {
    check(109, 12, |case, rng| {
        let seed = rng.gen_range(0..60u64);
        let original = seeded_circuit(seed, 9, 70);
        let locked = match rng.gen_range(0..3usize) {
            0 => TtLock::new(6).with_seed(seed).lock(&original).unwrap(),
            1 => SfllHd::new(6, 1).with_seed(seed).lock(&original).unwrap(),
            _ => XorLock::new(6).with_seed(seed).lock(&original).unwrap(),
        };
        let unlocked = fall::unlock::apply_key(&locked.locked, &locked.key);
        assert!(
            fall::unlock::equivalent_to(&unlocked, &original, 256, seed),
            "case {case} seed {seed}"
        );
    });
}

/// A `.bench` export/import round trip preserves the locked function.
#[test]
fn bench_round_trip_preserves_locked_function() {
    check(110, 12, |case, rng| {
        let seed = rng.gen_range(0..60u64);
        let original = seeded_circuit(seed, 9, 60);
        let locked = SfllHd::new(5, 1).with_seed(seed).lock(&original).unwrap();
        let text = netlist::bench_format::write(&locked.locked);
        let reparsed = netlist::bench_format::parse(&text).unwrap();
        let pattern = rng.gen_range(0..512u64);
        let bits = pattern_to_bits(pattern, 9);
        assert_eq!(
            locked.locked.evaluate(&bits, locked.key.bits()),
            reparsed.evaluate(&bits, locked.key.bits()),
            "case {case} seed {seed} pattern {pattern:09b}"
        );
    });
}

/// The gate-level Hamming-distance comparator agrees with a reference
/// popcount for arbitrary widths, cubes and distances.
#[test]
fn hamming_comparator_matches_reference() {
    check(111, 64, |case, rng| {
        let width = rng.gen_range(1..7usize);
        let h = rng.gen_range(0..4usize).min(width);
        let cube = rng.gen_range(0..64u64) & ((1 << width) - 1);
        let pattern = rng.gen_range(0..64u64) & ((1 << width) - 1);
        let mut nl = Netlist::new("hd_prop");
        let xs: Vec<NodeId> = (0..width).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube_bits = pattern_to_bits(cube, width);
        let out = netlist::hamming::hamming_distance_equals_const(&mut nl, &xs, &cube_bits, h);
        nl.add_output("hd", out);
        let got = nl.evaluate(&pattern_to_bits(pattern, width), &[])[0];
        let expected = (cube ^ pattern).count_ones() as usize == h;
        assert_eq!(
            got, expected,
            "case {case} width {width} cube {cube:b} h {h}"
        );
    });
}

/// XOR/XNOR chains in the netlist survive the AIG round trip.
#[test]
fn aig_round_trip_preserves_small_functions() {
    let gate_kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xnor,
    ];
    check(112, 48, |case, rng| {
        let chain_len = rng.gen_range(1..6usize);
        let kinds: Vec<usize> = (0..chain_len).map(|_| rng.gen_range(0..6usize)).collect();
        let pattern = rng.gen_range(0..16u64);
        let mut nl = Netlist::new("aig_prop");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let mut last = a;
        let pool = [a, b, c, d];
        for (i, &k) in kinds.iter().enumerate() {
            let other = pool[i % pool.len()];
            last = nl.add_gate(format!("g{i}"), gate_kinds[k], &[last, other]);
        }
        nl.add_output("y", last);
        let optimized = strash(&nl);
        let bits = pattern_to_bits(pattern, 4);
        assert_eq!(
            nl.evaluate(&bits, &[]),
            optimized.evaluate(&bits, &[]),
            "case {case} kinds {kinds:?} pattern {pattern:04b}"
        );
    });
}
