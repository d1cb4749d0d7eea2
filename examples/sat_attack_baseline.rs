//! The SAT-attack baseline story of the paper: the classic SAT attack makes
//! short work of random XOR locking, stalls on SFLL, and key confirmation
//! closes the gap once the FALL analyses provide a shortlist.
//!
//! Run with: `cargo run --example sat_attack_baseline`

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use fall::attack::{fall_attack, FallAttackConfig};
use fall::key_confirmation::key_confirmation;
use fall::oracle::{Oracle, SimOracle};
use fall::sat_attack::{sat_attack, sat_attack_in, SatAttackStatus};
use fall::AttackSession;
use locking::{LockingScheme, SfllHd, XorLock};
use netlist::random::{generate, RandomCircuitSpec};

/// An oracle that raises an interrupt flag once it has answered `limit`
/// queries: installed on the attack's session, the flag stops the DIP loop
/// after exactly `limit` iterations.
struct StopAfter<'a> {
    inner: &'a SimOracle,
    answered: AtomicUsize,
    limit: usize,
    flag: Arc<AtomicBool>,
}

impl Oracle for StopAfter<'_> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 >= self.limit {
            self.flag.store(true, Ordering::Relaxed);
        }
        self.inner.query(inputs)
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = generate(&RandomCircuitSpec::new("baseline", 16, 4, 150));
    let oracle = SimOracle::new(original.clone());

    // --- 1. Random XOR locking: the SAT attack wins quickly. -------------
    let xor_locked = XorLock::new(16).with_seed(7).lock(&original)?;
    let result = sat_attack(&xor_locked.locked, &oracle);
    println!(
        "XOR locking (16 keys): SAT attack {:?} after {} distinguishing inputs in {:.2}s",
        result.status,
        result.iterations,
        result.elapsed.as_secs_f64()
    );
    assert_eq!(result.status, SatAttackStatus::Success);

    // --- 2. SFLL-HD: the SAT attack starves for distinguishing power. ----
    // Each wrong key corrupts only a handful of inputs, so the attack has to
    // rule out key classes almost one distinguishing input at a time.  At this
    // scaled-down key width it would still finish, but the iteration count
    // tracks the number of key equivalence classes and becomes infeasible at
    // the paper's 64-bit keys.  The run below is stopped the way every
    // caller stops an attack: by raising the session's interrupt flag, here
    // from the oracle's 100th answer.
    let sfll = SfllHd::new(12, 1).with_seed(7).lock(&original)?.optimized();
    let flag = Arc::new(AtomicBool::new(false));
    let limited = StopAfter {
        inner: &oracle,
        answered: AtomicUsize::new(0),
        limit: 100,
        flag: Arc::clone(&flag),
    };
    let mut session = AttackSession::new(&sfll.locked);
    session.set_interrupt(Some(flag));
    let result = sat_attack_in(&mut session, &limited);
    println!(
        "SFLL-HD1 (12 keys): SAT attack {:?} after {} iterations in {:.2}s (stopped at 100 queries)",
        result.status,
        result.iterations,
        result.elapsed.as_secs_f64()
    );
    assert_eq!(
        (result.status, result.iterations),
        (SatAttackStatus::Interrupted, 100)
    );
    println!(
        "  (XOR locking above needed only a handful of iterations; SFLL forces \
         iteration counts that scale with the key space)"
    );

    // --- 3. FALL shortlist + key confirmation: the gap is closed. --------
    let fall_result = fall_attack(&sfll.locked, None, &FallAttackConfig::for_h(1));
    let mut shortlist = fall_result.shortlisted_keys.clone();
    if !shortlist.contains(&sfll.key.complement()) {
        shortlist.push(sfll.key.complement()); // a plausible decoy
    }
    println!(
        "FALL analyses shortlisted {} key(s); running key confirmation...",
        shortlist.len()
    );
    let confirmation = key_confirmation(&sfll.locked, &oracle, &shortlist);
    let confirmed = confirmation.key.expect("one shortlisted key is correct");
    println!(
        "key confirmation picked {} after {} oracle queries in {:.2}s",
        confirmed,
        confirmation.iterations,
        confirmation.elapsed.as_secs_f64()
    );
    assert_eq!(confirmed, sfll.key);
    println!(
        "SUCCESS: the confirmed key equals the secret key ({}).",
        sfll.key
    );
    Ok(())
}
