//! Cross-crate integration tests: lock with `locking`, optimise with
//! `netlist`, attack with `fall`, and check the recovered keys against the
//! ground truth.

use fall::attack::{fall_attack, FallAttackConfig, FallStatus};
use fall::functional::Analysis;
use fall::key_confirmation::key_confirmation;
use fall::oracle::SimOracle;
use fall::sat_attack::sat_attack;
use locking::{Key, LockingScheme, SfllHd, TtLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

fn bench_circuit(name: &str, inputs: usize, gates: usize) -> Netlist {
    generate(&RandomCircuitSpec::new(name, inputs, 4, gates))
}

#[test]
fn fall_breaks_ttlock_end_to_end() {
    let original = bench_circuit("e2e_tt", 18, 200);
    let locked = TtLock::new(12)
        .with_seed(101)
        .lock(&original)
        .expect("lock")
        .optimized();
    let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
    assert_eq!(result.status, FallStatus::UniqueKey, "{result:?}");
    assert_eq!(result.best_key(), Some(&locked.key));
    // The recovered key restores the original functionality exactly.
    assert!(locked.key_is_functionally_correct(result.best_key().unwrap(), 512, 1));
}

#[test]
fn fall_breaks_sfll_hd_for_every_figure5_policy() {
    let original = bench_circuit("e2e_sfll", 20, 240);
    let m = 12usize;
    for h in [0usize, m / 8, m / 4, m / 3] {
        let locked = SfllHd::new(m, h)
            .with_seed(7)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(h));
        assert!(
            result.shortlisted_keys.contains(&locked.key),
            "h = {h}: {result:?}"
        );
    }
}

#[test]
fn every_functional_analysis_recovers_the_same_key_when_applicable() {
    let original = bench_circuit("e2e_analyses", 20, 220);
    let locked = SfllHd::new(12, 2)
        .with_seed(3)
        .lock(&original)
        .expect("lock")
        .optimized();
    for analysis in [Analysis::Distance2H, Analysis::SlidingWindow] {
        let mut config = FallAttackConfig::for_h(2);
        config.analyses = Some(vec![analysis]);
        let result = fall_attack(&locked.locked, None, &config);
        assert!(
            result.shortlisted_keys.contains(&locked.key),
            "{analysis:?} failed: {result:?}"
        );
    }
}

#[test]
fn sat_attack_and_fall_agree_on_xor_locking_vs_sfll() {
    let original = bench_circuit("e2e_xor", 16, 150);
    let oracle = SimOracle::new(original.clone());

    // XOR locking: SAT attack succeeds, FALL (a cube-stripping attack) does not.
    let xor_locked = XorLock::new(12)
        .with_seed(9)
        .lock(&original)
        .expect("lock")
        .optimized();
    let sat_result = sat_attack(&xor_locked.locked, &oracle);
    assert!(sat_result.is_success());
    assert!(xor_locked.key_is_functionally_correct(sat_result.key.as_ref().unwrap(), 256, 2));
    let fall_result = fall_attack(&xor_locked.locked, None, &FallAttackConfig::for_h(0));
    assert!(fall_result.shortlisted_keys.is_empty());

    // SFLL: FALL succeeds without an oracle.
    let sfll_locked = SfllHd::new(12, 1)
        .with_seed(9)
        .lock(&original)
        .expect("lock")
        .optimized();
    let fall_result = fall_attack(&sfll_locked.locked, None, &FallAttackConfig::for_h(1));
    assert!(fall_result.shortlisted_keys.contains(&sfll_locked.key));
}

#[test]
fn key_confirmation_rejects_wrong_shortlists_and_accepts_correct_ones() {
    let original = bench_circuit("e2e_kc", 16, 160);
    let locked = SfllHd::new(10, 1)
        .with_seed(5)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original);

    let wrong_only = vec![locked.key.complement(), Key::zeros(10)];
    let result = key_confirmation(&locked.locked, &oracle, &wrong_only);
    assert!(result.completed);
    assert_eq!(result.key, None);

    let with_correct = vec![locked.key.complement(), locked.key.clone()];
    let result = key_confirmation(&locked.locked, &oracle, &with_correct);
    assert_eq!(result.key, Some(locked.key.clone()));
}

#[test]
fn attack_works_on_bench_format_round_trip() {
    // Lock, export to .bench, re-import, attack: mimics the real tool flow in
    // which the adversary reverse-engineers a netlist from masks.
    let original = bench_circuit("e2e_bench", 14, 120);
    let locked = TtLock::new(10)
        .with_seed(77)
        .lock(&original)
        .expect("lock")
        .optimized();
    let exported = netlist::bench_format::write(&locked.locked);
    let reparsed = netlist::bench_format::parse(&exported).expect("parse");
    assert_eq!(reparsed.num_key_inputs(), 10);
    let result = fall_attack(&reparsed, None, &FallAttackConfig::for_h(0));
    assert!(result.shortlisted_keys.contains(&locked.key), "{result:?}");
}

#[test]
fn strash_never_changes_locked_circuit_function() {
    let original = bench_circuit("e2e_strash", 12, 100);
    for h in [0usize, 1, 2] {
        let locked = SfllHd::new(8, h)
            .with_seed(h as u64)
            .lock(&original)
            .expect("lock");
        let optimized = locked.optimized();
        for pattern in 0..128u64 {
            let bits = netlist::sim::pattern_to_bits(pattern, 12);
            assert_eq!(
                locked.locked.evaluate(&bits, locked.key.bits()),
                optimized.locked.evaluate(&bits, locked.key.bits()),
            );
        }
    }
}
