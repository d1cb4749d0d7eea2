//! Behaviour of the attacks on the *other* locking schemes (SARLock,
//! Anti-SAT, random XOR locking): the FALL pipeline targets cube-stripping
//! schemes, so the important guarantees here are soundness ones — it must
//! never confirm an incorrect key, and the unlock step must only succeed with
//! functionally correct keys.

use fall::attack::{fall_attack, FallAttackConfig};
use fall::oracle::SimOracle;
use fall::sat_attack::sat_attack;
use fall::unlock::{apply_key, equivalent_to};
use locking::{AntiSat, LockingScheme, SarLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};

#[test]
fn fall_never_confirms_a_wrong_key_on_sarlock() {
    let original = generate(&RandomCircuitSpec::new("base_sar", 14, 3, 110));
    let locked = SarLock::new(10)
        .with_seed(4)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original.clone());
    let result = fall_attack(&locked.locked, Some(&oracle), &FallAttackConfig::for_h(0));
    if let Some(confirmed) = &result.confirmed_key {
        assert!(
            locked.key_is_functionally_correct(confirmed, 512, 1),
            "a confirmed key must always be functionally correct"
        );
    }
    // Shortlisted-but-unconfirmed keys may be spurious for non-SFLL schemes;
    // that is exactly the case key confirmation exists for, so no assertion on
    // them here.
}

#[test]
fn fall_never_confirms_a_wrong_key_on_antisat() {
    let original = generate(&RandomCircuitSpec::new("base_as", 14, 3, 110));
    let locked = AntiSat::new(6)
        .with_seed(9)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original.clone());
    let result = fall_attack(&locked.locked, Some(&oracle), &FallAttackConfig::for_h(0));
    if let Some(confirmed) = &result.confirmed_key {
        assert!(locked.key_is_functionally_correct(confirmed, 512, 2));
    }
}

#[test]
fn sat_attack_key_unlocks_sarlock_and_antisat() {
    // SARLock / Anti-SAT have tiny key-class counts at these widths, so the
    // SAT attack finishes; its key must unlock the circuit exactly.
    let original = generate(&RandomCircuitSpec::new("base_unlock", 12, 3, 90));
    let oracle = SimOracle::new(original.clone());

    let sarlock = SarLock::new(6)
        .with_seed(2)
        .lock(&original)
        .expect("lock")
        .optimized();
    let result = sat_attack(&sarlock.locked, &oracle);
    let key = result.key.expect("SAT attack finishes on small SARLock");
    let unlocked = apply_key(&sarlock.locked, &key);
    assert!(equivalent_to(&unlocked, &original, 2048, 3));

    let antisat = AntiSat::new(5)
        .with_seed(2)
        .lock(&original)
        .expect("lock")
        .optimized();
    let result = sat_attack(&antisat.locked, &oracle);
    let key = result.key.expect("SAT attack finishes on small Anti-SAT");
    let unlocked = apply_key(&antisat.locked, &key);
    assert!(equivalent_to(&unlocked, &original, 2048, 4));
}

#[test]
fn xor_locking_recovered_key_need_not_match_but_must_unlock() {
    // With XOR key gates several keys can be functionally equivalent; the SAT
    // attack may return any of them.  What matters is the unlocked function.
    let original = generate(&RandomCircuitSpec::new("base_xor", 12, 3, 90));
    let locked = XorLock::new(10)
        .with_seed(6)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original.clone());
    let result = sat_attack(&locked.locked, &oracle);
    assert!(result.is_success());
    let unlocked = apply_key(&locked.locked, &result.key.expect("key"));
    assert!(equivalent_to(&unlocked, &original, 2048, 5));
}

#[test]
fn corruption_ordering_matches_the_resilience_story() {
    // SAT-resilient schemes achieve resilience by corrupting almost nothing
    // under wrong keys; XOR locking corrupts heavily.  This ordering is the
    // root cause of the Figure 5 behaviour.
    let original = generate(&RandomCircuitSpec::new("base_corr", 12, 3, 90));
    let sfll = locking::SfllHd::new(10, 1)
        .with_seed(1)
        .lock(&original)
        .expect("lock");
    let sarlock = SarLock::new(10).with_seed(1).lock(&original).expect("lock");
    let xor = XorLock::new(10).with_seed(1).lock(&original).expect("lock");

    let corruption = |locked: &locking::LockedCircuit| {
        locking::corruption::average_wrong_key_corruption(locked, 4, 256, 99)
    };
    let sfll_corruption = corruption(&sfll);
    let sarlock_corruption = corruption(&sarlock);
    let xor_corruption = corruption(&xor);
    assert!(sfll_corruption < xor_corruption);
    assert!(sarlock_corruption < xor_corruption);
    assert!(
        xor_corruption > 0.05,
        "xor locking corruption {xor_corruption}"
    );
}
