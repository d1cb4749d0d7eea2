//! Key confirmation (§ V, Algorithm 4).
//!
//! Given a predicate ϕ over keys (typically "the key is one of these
//! shortlisted values") and an I/O oracle, key confirmation either returns a
//! key satisfying ϕ that is provably correct for the oracle, or ⊥ if no key
//! in ϕ is correct.  Unlike the plain SAT attack, it distinguishes "no key in
//! ϕ is consistent" from "no distinguishing input remains", and it restricts
//! the search to ϕ, which is why it is orders of magnitude faster (Figure 6).

use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::{Lit, SolveResult, Solver};

use crate::oracle::Oracle;
use crate::session::AttackSession;

/// The outcome of a key-confirmation run.
#[derive(Clone, Debug)]
pub struct KeyConfirmationResult {
    /// The confirmed key, or `None` (⊥) if no shortlisted key is correct.
    pub key: Option<Key>,
    /// `true` if the run finished (either way); `false` if the session's
    /// interrupt flag ([`AttackSession::set_interrupt`]) stopped it first.
    /// The flag is the only way to stop a run early: the caller owns the
    /// clock and raises it when its budget runs out.
    pub completed: bool,
    /// Number of distinguishing-input iterations performed; each issued
    /// exactly one oracle query.
    pub iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Runs key confirmation over an explicit shortlist of suspected keys.
///
/// This is the common case in the FALL flow: ϕ is the disjunction of the key
/// values produced by the functional analyses.  See
/// [`key_confirmation_with_predicate_in`] for the general form.
///
/// # Panics
///
/// Panics if the shortlist is empty or a key width does not match the locked
/// circuit.
pub fn key_confirmation(
    locked: &Netlist,
    oracle: &dyn Oracle,
    suspected_keys: &[Key],
) -> KeyConfirmationResult {
    let mut session = AttackSession::new(locked);
    key_confirmation_in(&mut session, oracle, suspected_keys)
}

/// Runs key confirmation over a shortlist through an existing session (see
/// [`key_confirmation`]).
///
/// # Panics
///
/// Panics if the shortlist is empty or a key width does not match the locked
/// circuit.
pub fn key_confirmation_in(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    suspected_keys: &[Key],
) -> KeyConfirmationResult {
    assert!(!suspected_keys.is_empty(), "shortlist must not be empty");
    for key in suspected_keys {
        assert_eq!(
            key.len(),
            session.netlist().num_key_inputs(),
            "suspected key width does not match the circuit"
        );
    }
    key_confirmation_with_predicate_in(session, oracle, |solver, key_lits| {
        add_shortlist_phi(solver, key_lits, suspected_keys);
    })
}

/// Encodes ϕ(K) = OR over shortlisted keys of (K == key_j), with one
/// selector variable per shortlisted key.
fn add_shortlist_phi(solver: &mut Solver, key_lits: &[Lit], suspected_keys: &[Key]) {
    let selectors: Vec<Lit> = suspected_keys
        .iter()
        .map(|key| {
            let selector = Lit::positive(solver.new_var());
            for (&lit, &bit) in key_lits.iter().zip(key.bits()) {
                solver.add_clause([!selector, if bit { lit } else { !lit }]);
            }
            selector
        })
        .collect();
    solver.add_clause(selectors);
}

/// Session-based key confirmation with an arbitrary key predicate ϕ.
///
/// `add_phi` receives the key solver and the literals of its key vector
/// `Kϕ` and must add clauses constraining them; passing a no-op closure
/// makes the algorithm equivalent to the plain SAT attack (ϕ = true).
///
/// The algorithm runs on the session's persistent solvers: `P` is the key
/// solver's `Kϕ` under ϕ and the observed I/O pairs, and `Q` is the DIP
/// solver's two-copy distinguishing formula, encoded once, with `K1` assumed
/// equal to the candidate.  Each observed pair constrains only the key cone
/// (key-free logic is simulated, not encoded).
///
/// ϕ lives in a *predicate generation* ([`AttackSession::begin_predicate`])
/// that is retired before returning, so the same session can run any
/// number of confirmations — [`crate::parallel::drain_regions`] confirms one
/// key-space region after another on one long-lived session this way.  The
/// I/O pairs outlive the generation ([`AttackSession::observe`]): each later
/// run on the session starts from every oracle answer the session has
/// seen, and a run whose verdict those answers already settle asks the
/// oracle nothing.
///
/// # Panics
///
/// Panics if a predicate generation is already active on `session`.
pub fn key_confirmation_with_predicate_in<F>(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    add_phi: F,
) -> KeyConfirmationResult
where
    F: FnOnce(&mut Solver, &[Lit]),
{
    assert_eq!(
        oracle.num_inputs(),
        session.netlist().num_inputs(),
        "oracle width does not match the locked circuit"
    );
    // The clock covers the whole run — including the circuit encoding a
    // fresh session performs in its first query and the ϕ encoding.
    let start = Instant::now();
    let _phi_keys = session.begin_predicate();
    session.add_predicate_clauses(add_phi);
    let result = confirmation_loop(session, oracle, start);
    session.retire_predicate();
    result
}

/// The P/Q loop of Algorithm 4, run inside an already-open generation.
fn confirmation_loop(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    start: Instant,
) -> KeyConfirmationResult {
    let mut iterations = 0usize;
    let unfinished = |iterations, elapsed| KeyConfirmationResult {
        key: None,
        completed: false,
        iterations,
        elapsed,
    };

    loop {
        // A `confirm_iteration` span covers each round that queries the
        // oracle, so the span count equals `iterations`; the final round's
        // solves are traced only by their own `solve` spans.
        let round = Instant::now();

        // Line 6: extract a candidate key consistent with ϕ and the I/O pairs.
        let candidate = match session.candidate_key() {
            (SolveResult::Unsat, _) => {
                // ⊥: no key satisfying ϕ is consistent with the oracle.
                return KeyConfirmationResult {
                    key: None,
                    completed: true,
                    iterations,
                    elapsed: start.elapsed(),
                };
            }
            (SolveResult::Unknown, _) => return unfinished(iterations, start.elapsed()),
            (SolveResult::Sat, key) => key.expect("sat result carries a key"),
        };

        // Line 10: look for a distinguishing input with K1 fixed to the candidate.
        match session.find_dip_against(&candidate) {
            SolveResult::Unsat => {
                // No distinguishing input remains: the candidate is correct.
                return KeyConfirmationResult {
                    key: Some(candidate),
                    completed: true,
                    iterations,
                    elapsed: start.elapsed(),
                };
            }
            SolveResult::Unknown => return unfinished(iterations, start.elapsed()),
            SolveResult::Sat => {}
        }
        iterations += 1;
        let distinguishing_input = session.dip_inputs();
        let observed_output = {
            let _span = crate::trace::span("oracle_query");
            oracle.query(&distinguishing_input)
        };

        // Lines 15–16: add the observed I/O pair to both formulas, for the
        // session's life.
        session.observe(&distinguishing_input, &observed_output);
        crate::trace::record_duration("confirm_iteration", round.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests::InterruptAfter;
    use crate::oracle::SimOracle;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::random::{generate, RandomCircuitSpec};

    fn locked_sfll(h: usize) -> (netlist::Netlist, locking::LockedCircuit) {
        let original = generate(&RandomCircuitSpec::new("kc", 12, 3, 80));
        let locked = SfllHd::new(10, h)
            .with_seed(23)
            .lock(&original)
            .expect("lock");
        (original, locked)
    }

    #[test]
    fn confirms_the_correct_key_among_decoys() {
        let (original, locked) = locked_sfll(1);
        let oracle = SimOracle::new(original);
        let shortlist = vec![
            locked.key.complement(),
            Key::zeros(10),
            locked.key.clone(),
            Key::from_pattern(0x2A5, 10),
        ];
        let result = key_confirmation(&locked.locked, &oracle, &shortlist);
        assert!(result.completed);
        assert_eq!(result.key, Some(locked.key.clone()));
    }

    #[test]
    fn a_fired_interrupt_leaves_the_confirmation_unfinished() {
        let (original, locked) = locked_sfll(1);
        let oracle = SimOracle::new(original);
        let shortlist = vec![locked.key.complement(), locked.key.clone()];
        let mut session = AttackSession::new(&locked.locked);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        session.set_interrupt(Some(std::sync::Arc::clone(&flag)));
        let result = key_confirmation_in(&mut session, &oracle, &shortlist);
        assert!(!result.completed, "{result:?}");
        assert_eq!(result.key, None);
        assert_eq!(result.iterations, 0);

        // Lowering the flag lets the same session finish the run.
        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let result = key_confirmation_in(&mut session, &oracle, &shortlist);
        assert!(result.completed, "{result:?}");
        assert_eq!(result.key, Some(locked.key.clone()));
    }

    #[test]
    fn an_oracle_raised_interrupt_stops_the_run_after_exactly_n_queries() {
        let (original, locked) = locked_sfll(1);
        let shortlist = vec![
            locked.key.complement(),
            Key::zeros(10),
            locked.key.clone(),
            Key::from_pattern(0x2A5, 10),
        ];
        let full = key_confirmation(
            &locked.locked,
            &SimOracle::new(original.clone()),
            &shortlist,
        );
        assert!(full.completed && full.iterations > 2, "{full:?}");

        // Raised on the second answer, the flag stops the run before its
        // third candidate: the solver checks it before its first decision.
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let oracle = InterruptAfter::new(SimOracle::new(original), 2, std::sync::Arc::clone(&flag));
        let mut session = AttackSession::new(&locked.locked);
        session.set_interrupt(Some(flag));
        let result = key_confirmation_in(&mut session, &oracle, &shortlist);
        assert!(!result.completed, "{result:?}");
        assert_eq!(result.key, None);
        assert_eq!(result.iterations, 2);
    }

    #[test]
    fn returns_bottom_when_no_shortlisted_key_is_correct() {
        let (original, locked) = locked_sfll(0);
        let oracle = SimOracle::new(original);
        let shortlist = vec![locked.key.complement(), Key::zeros(10)];
        let result = key_confirmation(&locked.locked, &oracle, &shortlist);
        assert!(result.completed);
        assert_eq!(result.key, None, "wrong guesses must be detected");
    }

    #[test]
    fn works_on_sat_resilient_ttlock_circuits() {
        let original = generate(&RandomCircuitSpec::new("kc_tt", 10, 2, 60));
        let locked = TtLock::new(8).with_seed(5).lock(&original).expect("lock");
        let oracle = SimOracle::new(original);
        let shortlist = vec![locked.key.clone(), locked.key.complement()];
        let result = key_confirmation(&locked.locked, &oracle, &shortlist);
        assert!(result.completed);
        assert_eq!(result.key, Some(locked.key.clone()));
        // Point-function schemes can force many distinguishing inputs, but the
        // candidate pool itself never leaves the two-element shortlist.
        assert!(
            result.iterations <= 1 << locked.key.len(),
            "used {} queries",
            result.iterations
        );
    }

    #[test]
    fn predicate_true_behaves_like_the_sat_attack() {
        let original = generate(&RandomCircuitSpec::new("kc_free", 8, 2, 50));
        let locked = SfllHd::new(4, 0)
            .with_seed(9)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original.clone());
        let mut session = AttackSession::new(&locked.locked);
        let result = key_confirmation_with_predicate_in(&mut session, &oracle, |_, _| {});
        assert!(result.completed);
        let key = result.key.expect("key recovered");
        assert!(locked.key_is_functionally_correct(&key, 200, 3));
    }
}
