//! The oracle-guided SAT attack (Subramanyan, Ray & Malik, HOST 2015).
//!
//! This is the baseline every SAT-resilient scheme is designed against and
//! the comparison point of Figures 5 and 6.  The attack iteratively finds
//! *distinguishing input patterns* — inputs on which two key classes produce
//! different outputs — queries the oracle, and constrains the key space with
//! the observed I/O pair, until no distinguishing input remains.

use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::SolveResult;

use crate::oracle::Oracle;
use crate::session::AttackSession;

/// Why the SAT attack stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatAttackStatus {
    /// No distinguishing input remains; the returned key is provably correct
    /// (relative to the oracle).
    Success,
    /// The session's interrupt flag fired first.
    Interrupted,
    /// The key-consistency formula became unsatisfiable, which indicates the
    /// oracle does not correspond to the locked circuit.
    Inconsistent,
}

/// The outcome of a SAT attack run.
#[derive(Clone, Debug)]
pub struct SatAttackResult {
    /// The recovered key, if the attack completed.
    pub key: Option<Key>,
    /// Termination reason.
    pub status: SatAttackStatus,
    /// Number of distinguishing-input iterations performed; each issued
    /// exactly one oracle query.
    pub iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl SatAttackResult {
    /// Returns `true` if a provably correct key was produced.
    pub fn is_success(&self) -> bool {
        self.status == SatAttackStatus::Success && self.key.is_some()
    }
}

/// Runs the SAT attack against a locked netlist using an I/O oracle.
///
/// The attack runs through one persistent [`AttackSession`]: the two
/// shared-input circuit copies are encoded once, the distinguishing-input
/// loop performs **zero** solver allocations (each iteration adds only the
/// constant-folded key cone of the observed I/O pair), and the final key is
/// extracted from the same solver after retiring the difference constraint —
/// so every learnt clause from the DIP search keeps working for the
/// extraction query.
///
/// The attack has no budget: it runs until no distinguishing input remains.
/// A caller with a budget runs [`sat_attack_in`] on a session whose
/// interrupt flag ([`AttackSession::set_interrupt`]) it raises, which ends
/// the attack as [`SatAttackStatus::Interrupted`].
///
/// # Panics
///
/// Panics if the oracle input width differs from the locked circuit's.
pub fn sat_attack(locked: &Netlist, oracle: &dyn Oracle) -> SatAttackResult {
    let mut session = AttackSession::new(locked);
    sat_attack_in(&mut session, oracle)
}

/// Runs the SAT attack through an existing session (see [`sat_attack`]).
///
/// # Panics
///
/// Panics if the oracle input width differs from the locked circuit's.
pub fn sat_attack_in(session: &mut AttackSession<'_>, oracle: &dyn Oracle) -> SatAttackResult {
    assert_eq!(
        oracle.num_inputs(),
        session.netlist().num_inputs(),
        "oracle width does not match the locked circuit"
    );
    let start = Instant::now();
    let mut iterations = 0usize;
    let stopped = |status, iterations, elapsed| SatAttackResult {
        key: None,
        status,
        iterations,
        elapsed,
    };

    loop {
        let dip_span = crate::trace::span("dip_iteration");
        match session.find_dip() {
            SolveResult::Unknown => {
                return stopped(SatAttackStatus::Interrupted, iterations, start.elapsed())
            }
            SolveResult::Unsat => break,
            SolveResult::Sat => {}
        }
        iterations += 1;
        let distinguishing_input = session.dip_inputs();
        let observed_output = {
            let _span = crate::trace::span("oracle_query");
            oracle.query(&distinguishing_input)
        };
        session.force_dip(&distinguishing_input, &observed_output);
        drop(dip_span);
    }

    // No distinguishing input remains: any key satisfying the accumulated I/O
    // constraints is functionally correct.  The difference constraint is
    // retired and `K1` — already constrained by every observed pair — is
    // extracted from the same solver.
    let (result, key) = session.extract_key();
    match result {
        SolveResult::Sat => SatAttackResult {
            key,
            status: SatAttackStatus::Success,
            iterations,
            elapsed: start.elapsed(),
        },
        SolveResult::Unsat => stopped(SatAttackStatus::Inconsistent, iterations, start.elapsed()),
        SolveResult::Unknown => stopped(SatAttackStatus::Interrupted, iterations, start.elapsed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{
        constrain_equal_const, instantiate, instantiate_sharing_inputs, instantiate_sharing_keys,
        model_key, model_values,
    };
    use crate::oracle::tests::InterruptAfter;
    use crate::oracle::{CountingOracle, SimOracle};
    use locking::{LockingScheme, SfllHd, XorLock};
    use netlist::cnf::encode_any_difference;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use sat::Solver;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// The pre-session SAT attack: fresh solvers and full re-encoding per query.
    ///
    /// Kept as the differential-testing reference for [`sat_attack`].
    ///
    /// # Panics
    ///
    /// Panics if the oracle input width differs from the locked circuit's.
    fn sat_attack_fresh(locked: &Netlist, oracle: &dyn Oracle) -> SatAttackResult {
        assert_eq!(
            oracle.num_inputs(),
            locked.num_inputs(),
            "oracle width does not match the locked circuit"
        );
        let start = Instant::now();

        // Distinguishing-input solver: two copies sharing X, with differing outputs.
        let mut dis_solver = Solver::new();
        let copy1 = instantiate(locked, &mut dis_solver);
        let copy2 = instantiate_sharing_inputs(locked, &mut dis_solver, &copy1.inputs);
        let diff = encode_any_difference(&mut dis_solver, &copy1.outputs, &copy2.outputs);
        dis_solver.add_clause([diff]);

        // Key solver: accumulates C(Xd, K, Yd) constraints for the final key.
        let mut key_solver = Solver::new();
        let key_copy = instantiate(locked, &mut key_solver);
        let key_lits = key_copy.keys.clone();

        let mut iterations = 0usize;

        loop {
            match dis_solver.solve() {
                SolveResult::Unknown => {
                    return SatAttackResult {
                        key: None,
                        status: SatAttackStatus::Interrupted,
                        iterations,
                        elapsed: start.elapsed(),
                    }
                }
                SolveResult::Unsat => break,
                SolveResult::Sat => {}
            }
            iterations += 1;
            let distinguishing_input = model_values(&dis_solver, &copy1.inputs);
            let observed_output = oracle.query(&distinguishing_input);

            // Constrain both key copies of the distinguishing solver and the key
            // solver with the observed I/O behaviour.
            for keys in [&copy1.keys, &copy2.keys] {
                let constrained = instantiate_sharing_keys(locked, &mut dis_solver, keys);
                constrain_equal_const(&mut dis_solver, &constrained.inputs, &distinguishing_input);
                constrain_equal_const(&mut dis_solver, &constrained.outputs, &observed_output);
            }
            let key_constrained = instantiate_sharing_keys(locked, &mut key_solver, &key_lits);
            constrain_equal_const(
                &mut key_solver,
                &key_constrained.inputs,
                &distinguishing_input,
            );
            constrain_equal_const(&mut key_solver, &key_constrained.outputs, &observed_output);
        }

        // No distinguishing input remains: any key satisfying the accumulated I/O
        // constraints is functionally correct.
        match key_solver.solve() {
            SolveResult::Sat => SatAttackResult {
                key: Some(model_key(&key_solver, &key_lits)),
                status: SatAttackStatus::Success,
                iterations,
                elapsed: start.elapsed(),
            },
            SolveResult::Unsat => SatAttackResult {
                key: None,
                status: SatAttackStatus::Inconsistent,
                iterations,
                elapsed: start.elapsed(),
            },
            SolveResult::Unknown => SatAttackResult {
                key: None,
                status: SatAttackStatus::Interrupted,
                iterations,
                elapsed: start.elapsed(),
            },
        }
    }

    #[test]
    fn breaks_random_xor_locking() {
        let original = generate(&RandomCircuitSpec::new("sa_xor", 8, 3, 60));
        let locked = XorLock::new(8).with_seed(5).lock(&original).expect("lock");
        let oracle = CountingOracle::new(SimOracle::new(original.clone()));
        let result = sat_attack(&locked.locked, &oracle);
        assert!(result.is_success(), "status {:?}", result.status);
        let key = result.key.expect("key");
        // The recovered key need not be bit-identical to the inserted one but
        // must be functionally correct.
        for pattern in 0..256u64 {
            let bits = pattern_to_bits(pattern, 8);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
        assert!(result.iterations > 0);
    }

    #[test]
    fn an_oracle_raised_interrupt_stops_the_sfll_dip_loop_at_20() {
        // SFLL-HD0 with a 10-bit key: each wrong key is ruled out one
        // distinguishing input at a time, so the SAT attack needs on the
        // order of 2^10 iterations — this is the resilience property.  An
        // oracle that raises the session's flag on its 20th answer stops
        // the attack there: the solver checks the flag before its first
        // decision, so the next DIP solve returns at once.
        let original = generate(&RandomCircuitSpec::new("sa_sfll", 12, 2, 80));
        let locked = SfllHd::new(10, 0)
            .with_seed(3)
            .lock(&original)
            .expect("lock");
        let flag = Arc::new(AtomicBool::new(false));
        let oracle = InterruptAfter::new(SimOracle::new(original), 20, Arc::clone(&flag));
        let mut session = AttackSession::new(&locked.locked);
        session.set_interrupt(Some(flag));
        let result = sat_attack_in(&mut session, &oracle);
        assert_eq!(result.status, SatAttackStatus::Interrupted, "{result:?}");
        assert_eq!(result.iterations, 20);
        assert!(result.key.is_none());
    }

    #[test]
    fn succeeds_on_small_sfll_instances_eventually() {
        // With a tiny key the SAT attack still wins — resilience is about
        // scaling, not impossibility.
        let original = generate(&RandomCircuitSpec::new("sa_small", 8, 2, 50));
        let locked = SfllHd::new(4, 0)
            .with_seed(11)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original.clone());
        let result = sat_attack(&locked.locked, &oracle);
        assert!(result.is_success());
        let key = result.key.expect("key");
        for pattern in 0..256u64 {
            let bits = pattern_to_bits(pattern, 8);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
    }

    #[test]
    fn incremental_and_fresh_attacks_agree() {
        // Differential test: both implementations must succeed and produce
        // functionally correct keys on the same instances (the recovered key
        // bits may legitimately differ when several keys are correct).
        for (seed, key_bits) in [(5u64, 4usize), (9, 5), (13, 6)] {
            let original = generate(&RandomCircuitSpec::new("sa_diff", 8, 3, 60));
            let locked = XorLock::new(key_bits)
                .with_seed(seed)
                .lock(&original)
                .expect("lock");
            let oracle = SimOracle::new(original.clone());
            let incremental = sat_attack(&locked.locked, &oracle);
            let fresh = sat_attack_fresh(&locked.locked, &oracle);
            assert!(
                incremental.is_success(),
                "incremental: {:?}",
                incremental.status
            );
            assert!(fresh.is_success(), "fresh: {:?}", fresh.status);
            for result in [&incremental, &fresh] {
                let key = result.key.as_ref().expect("key");
                for pattern in 0..256u64 {
                    let bits = pattern_to_bits(pattern, 8);
                    assert_eq!(
                        locked.locked.evaluate(&bits, key.bits()),
                        original.evaluate(&bits, &[]),
                        "seed {seed} pattern {pattern:08b}"
                    );
                }
            }
        }
    }

    #[test]
    fn inconsistent_oracle_is_detected() {
        // An oracle for a *different* circuit: the accumulated I/O pairs
        // eventually contradict the locked structure.
        let original = generate(&RandomCircuitSpec::new("sa_bad", 8, 3, 60));
        let unrelated = generate(&RandomCircuitSpec::new("sa_bad2", 8, 3, 60).with_seed(99));
        let locked = XorLock::new(4).with_seed(5).lock(&original).expect("lock");
        let oracle = SimOracle::new(unrelated);
        let result = sat_attack(&locked.locked, &oracle);
        // Either the constraints become contradictory, or a "key" survives
        // that at least matches all queried patterns; both are acceptable
        // outcomes, but a crash or hang is not.
        assert!(matches!(
            result.status,
            SatAttackStatus::Inconsistent | SatAttackStatus::Success
        ));
    }

    #[test]
    fn a_flag_fired_by_a_timer_interrupts_the_attack() {
        // SFLL-HD0 with a 16-bit key needs on the order of 2^16 iterations,
        // far more than the 50 ms the timer allows; the flag stops the DIP
        // loop mid-search and the attack reports the cut-off.
        let original = generate(&RandomCircuitSpec::new("sa_to", 18, 2, 120));
        let locked = SfllHd::new(16, 0)
            .with_seed(7)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let flag = Arc::new(AtomicBool::new(false));
        let timer = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                flag.store(true, Ordering::SeqCst);
            })
        };
        let mut session = AttackSession::new(&locked.locked);
        session.set_interrupt(Some(flag));
        let result = sat_attack_in(&mut session, &oracle);
        timer.join().expect("timer thread");
        assert_eq!(result.status, SatAttackStatus::Interrupted, "{result:?}");
        assert!(result.key.is_none());
        assert!(result.elapsed < Duration::from_secs(5), "{result:?}");
    }
}
