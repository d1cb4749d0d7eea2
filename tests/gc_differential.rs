//! Differential and regression suite for the `sat` clause arena: garbage
//! collection and variable recycling must be *invisible* to every solver
//! answer, and must actually bound the memory of a long-lived session.
//!
//! The differential half runs the attack stack in lockstep on two sessions
//! that differ only in [`sat::SolverConfig::gc_wasted_ratio`]: `0.0` (a GC
//! compaction at every conflict, every `simplify`, every `reduce_db` — the
//! most hostile relocation schedule possible) versus `f64::INFINITY` (GC
//! disabled, the pre-arena tombstone-forever behaviour).  Relocating clauses
//! never changes watch order, activities or phases, so the two sides must
//! agree on every solve *status* bit for bit; models are checked
//! semantically (ϕ-membership, consistency with observed I/O pairs,
//! functional correctness), mirroring `tests/session_reuse.rs`.
//!
//! The regression half drives ≥ 100 retired predicate generations through
//! one session and asserts that the variable count and the clause-arena
//! footprint go *flat* after warm-up — the bounded-memory guarantee that
//! lets a parallel worker serve unbounded key-space regions — and that a
//! poisoned (unsatisfiable-ϕ) generation still un-poisons across forced GC.

use fall::key_confirmation::key_confirmation_in;
use fall::oracle::{Oracle, SimOracle};
use fall::session::AttackSession;
use locking::{LockedCircuit, LockingScheme, SfllHd, TtLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::{GateKind, Netlist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sat::{Lit, SolveResult, Solver, SolverConfig, Var};

/// Safety cap on distinguishing-input iterations per case.
const MAX_ITERATIONS: usize = 400;

fn forced_gc() -> SolverConfig {
    SolverConfig {
        gc_wasted_ratio: 0.0,
        ..SolverConfig::default()
    }
}

fn disabled_gc() -> SolverConfig {
    SolverConfig {
        gc_wasted_ratio: f64::INFINITY,
        ..SolverConfig::default()
    }
}

/// A fresh session for `netlist` whose solvers run under `config`.  The DIP
/// solver is swapped in before anything is encoded, and the cone solver
/// copies its configuration when the first cone query creates it, so apart
/// from the DIP solver's flight-recorder checkpoint hook (which this suite
/// never reads) the session is exactly what [`AttackSession::new`] builds.
fn session_with(netlist: &Netlist, config: SolverConfig) -> AttackSession<'_> {
    let mut session = AttackSession::new(netlist);
    *session.solver_mut() = Solver::with_config(config);
    session
}

/// Bounded variable elimination forced on, with a SatELite-style growth
/// allowance so the pass actually fires on small instances.
fn forced_elim() -> SolverConfig {
    SolverConfig {
        elim_vars: true,
        elim_grow: 4,
        ..SolverConfig::default()
    }
}

fn disabled_elim() -> SolverConfig {
    SolverConfig {
        elim_vars: false,
        ..SolverConfig::default()
    }
}

/// Runs `property` on `cases` pseudo-random cases seeded from `seed`
/// (consistent with `tests/session_reuse.rs`).
fn check<F: FnMut(usize, &mut ChaCha8Rng)>(seed: u64, cases: usize, mut property: F) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
        property(case, &mut rng);
    }
}

struct Case {
    locked: LockedCircuit,
    label: String,
}

fn random_case(rng: &mut ChaCha8Rng) -> Case {
    let seed = rng.gen_range(0..1000u64);
    let inputs = rng.gen_range(7..10usize);
    let gates = rng.gen_range(40..70usize);
    let original = generate(&RandomCircuitSpec::new("gc", inputs, 2, gates).with_seed(seed));
    let (locked, label) = match rng.gen_range(0..3usize) {
        0 => {
            let width = rng.gen_range(4..7usize);
            (
                XorLock::new(width).with_seed(seed).lock(&original),
                format!("xor{width} in{inputs} g{gates} seed {seed}"),
            )
        }
        1 => {
            let h = rng.gen_range(0..2usize);
            (
                SfllHd::new(5, h).with_seed(seed).lock(&original),
                format!("sfll5-hd{h} in{inputs} g{gates} seed {seed}"),
            )
        }
        _ => (
            TtLock::new(5).with_seed(seed).lock(&original),
            format!("tt5 in{inputs} g{gates} seed {seed}"),
        ),
    };
    Case {
        locked: locked.expect("lock"),
        label,
    }
}

fn consistent_with_observations(
    locked: &LockedCircuit,
    key: &locking::Key,
    observed: &[(Vec<bool>, Vec<bool>)],
) -> bool {
    observed
        .iter()
        .all(|(x, y)| &locked.locked.evaluate(x, key.bits()) == y)
}

/// The full SAT-attack flow (`find_dip`/`force_dip`/`extract_key`) in
/// lockstep: GC-forced-every-conflict and GC-disabled sessions must report
/// identical statuses at every step, for every random netlist and lock.
#[test]
fn forced_gc_dip_loop_matches_disabled_gc() {
    check(301, 6, |case_index, rng| {
        let case = random_case(rng);
        let oracle = SimOracle::new(case.locked.original.clone());
        let mut gc = session_with(&case.locked.locked, forced_gc());
        let mut nogc = session_with(&case.locked.locked, disabled_gc());
        let ctx = |detail: &str| format!("case {case_index} [{}]: {detail}", case.label);

        let mut observed: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        loop {
            assert!(
                observed.len() < MAX_ITERATIONS,
                "{}",
                ctx("DIP loop did not converge within the iteration cap")
            );
            let gc_status = gc.find_dip();
            let nogc_status = nogc.find_dip();
            assert_eq!(
                gc_status,
                nogc_status,
                "{}",
                ctx(&format!(
                    "find_dip diverges at iteration {}",
                    observed.len()
                ))
            );
            match gc_status {
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("{}", ctx("unexpected Unknown (no budget set)")),
                SolveResult::Sat => {}
            }
            // Feed the forced-GC session's distinguishing input to both sides.
            let x = gc.dip_inputs();
            let y = oracle.query(&x);
            observed.push((x.clone(), y.clone()));
            gc.force_dip(&x, &y);
            nogc.force_dip(&x, &y);
        }

        let (gc_status, gc_key) = gc.extract_key();
        let (nogc_status, nogc_key) = nogc.extract_key();
        assert_eq!(gc_status, nogc_status, "{}", ctx("extract_key diverges"));
        if gc_status == SolveResult::Sat {
            for (who, key) in [
                ("gc", gc_key.expect("sat carries a key")),
                ("nogc", nogc_key.expect("sat carries a key")),
            ] {
                assert!(
                    consistent_with_observations(&case.locked, &key, &observed),
                    "{}",
                    ctx(&format!("{who} key {key} contradicts an observation"))
                );
                assert!(
                    case.locked
                        .key_is_functionally_correct(&key, 128, case_index as u64),
                    "{}",
                    ctx(&format!("{who} key {key} is not functionally correct"))
                );
            }
        }
        assert!(
            gc.stats().gc_runs > 0,
            "{}",
            ctx("the forced side must actually have collected")
        );
        assert_eq!(
            nogc.stats().gc_runs,
            0,
            "{}",
            ctx("the disabled side must never collect")
        );
    });
}

/// Whole key-confirmation runs (generations opened, solved and retired) in
/// lockstep across GC modes: identical confirm/reject verdicts, recycled
/// variables on both sides.
#[test]
fn forced_gc_confirmation_runs_match_disabled_gc() {
    check(302, 4, |case_index, rng| {
        let case = random_case(rng);
        let oracle = SimOracle::new(case.locked.original.clone());
        let mut gc = session_with(&case.locked.locked, forced_gc());
        let mut nogc = session_with(&case.locked.locked, disabled_gc());

        for round in 0..4 {
            let shortlist = if round % 2 == 0 {
                vec![case.locked.key.clone(), case.locked.key.complement()]
            } else {
                vec![case.locked.key.complement()]
            };
            let gc_result = key_confirmation_in(&mut gc, &oracle, &shortlist);
            let nogc_result = key_confirmation_in(&mut nogc, &oracle, &shortlist);
            let ctx = format!("case {case_index} round {round} [{}]", case.label);
            assert!(gc_result.completed && nogc_result.completed, "{ctx}");
            assert_eq!(
                gc_result.key.is_some(),
                nogc_result.key.is_some(),
                "{ctx}: confirm/reject verdicts diverge"
            );
            if let Some(key) = &gc_result.key {
                assert!(
                    case.locked
                        .key_is_functionally_correct(key, 128, case_index as u64),
                    "{ctx}: confirmed key {key} is wrong"
                );
            }
        }
        for (who, session) in [("gc", &gc), ("nogc", &nogc)] {
            assert!(
                session.stats().recycled_vars > 0,
                "case {case_index} [{}]: {who} side recycles generation variables",
                case.label
            );
        }
    });
}

/// ≥ 100 retired predicate generations on one session keep the variable
/// count and the clause arena flat after warm-up — the bounded-memory
/// regression of the flat-arena/variable-recycling work.
#[test]
fn hundred_generations_keep_vars_and_arena_bounded() {
    let original = generate(&RandomCircuitSpec::new("gc_bound", 8, 2, 50));
    let locked = SfllHd::new(5, 0)
        .with_seed(2)
        .lock(&original)
        .expect("lock");
    let oracle = SimOracle::new(original);
    let mut session = AttackSession::new(&locked.locked);

    const WARMUP: usize = 10;
    const GENERATIONS: usize = 100;
    let mut warm_vars = 0usize;
    let mut warm_arena = 0u64;
    for generation in 0..GENERATIONS {
        // Alternate confirming and rejecting shortlists so both query shapes
        // (and both amounts of per-generation encoding) recur.
        let shortlist = if generation % 2 == 0 {
            vec![locked.key.clone(), locked.key.complement()]
        } else {
            vec![locked.key.complement()]
        };
        let result = key_confirmation_in(&mut session, &oracle, &shortlist);
        assert!(result.completed, "generation {generation}");
        assert_eq!(
            result.key.is_some(),
            generation % 2 == 0,
            "generation {generation}"
        );
        if generation + 1 == WARMUP {
            warm_vars = session.num_vars();
            warm_arena = session.stats().arena_bytes;
        }
    }

    let stats = session.stats();
    assert_eq!(
        session.num_vars(),
        warm_vars,
        "the variable space is flat after warm-up: generation N + 1 reuses \
         the recycled variables of generation N"
    );
    assert!(
        stats.arena_bytes <= warm_arena.saturating_mul(2),
        "the clause arena stays bounded: {warm_arena} bytes after warm-up, \
         {} after {GENERATIONS} generations",
        stats.arena_bytes
    );
    assert!(
        stats.gc_runs > 0,
        "a hundred retirements must trigger arena compaction"
    );
    assert!(
        stats.recycled_vars as usize >= GENERATIONS,
        "every retired generation recycles variables (got {})",
        stats.recycled_vars
    );
}

/// The full SAT-attack flow in lockstep across *elimination* modes: bounded
/// variable elimination at every `simplify` checkpoint versus elimination
/// disabled.  Substituting a variable out (and reconstructing it in
/// `extend_model`) must be invisible to every solve status, and the keys the
/// eliminating side extracts must be semantically indistinguishable from the
/// non-eliminating side's.
#[test]
fn forced_elimination_dip_loop_matches_disabled_elimination() {
    let mut total_eliminated = 0u64;
    check(303, 6, |case_index, rng| {
        let case = random_case(rng);
        let oracle = SimOracle::new(case.locked.original.clone());
        let mut elim = session_with(&case.locked.locked, forced_elim());
        let mut noelim = session_with(&case.locked.locked, disabled_elim());
        let ctx = |detail: &str| format!("case {case_index} [{}]: {detail}", case.label);

        let mut observed: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        loop {
            assert!(
                observed.len() < MAX_ITERATIONS,
                "{}",
                ctx("DIP loop did not converge within the iteration cap")
            );
            let elim_status = elim.find_dip();
            let noelim_status = noelim.find_dip();
            assert_eq!(
                elim_status,
                noelim_status,
                "{}",
                ctx(&format!(
                    "find_dip diverges at iteration {}",
                    observed.len()
                ))
            );
            match elim_status {
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("{}", ctx("unexpected Unknown (no budget set)")),
                SolveResult::Sat => {}
            }
            // Feed the eliminating session's distinguishing input to both
            // sides, then force an explicit simplify checkpoint so the
            // eliminator runs every iteration, not only when the session's
            // clause-growth heuristic fires.
            let x = elim.dip_inputs();
            let y = oracle.query(&x);
            observed.push((x.clone(), y.clone()));
            elim.force_dip(&x, &y);
            noelim.force_dip(&x, &y);
            elim.solver_mut().simplify();
            noelim.solver_mut().simplify();
        }

        let (elim_status, elim_key) = elim.extract_key();
        let (noelim_status, noelim_key) = noelim.extract_key();
        assert_eq!(
            elim_status,
            noelim_status,
            "{}",
            ctx("extract_key diverges")
        );
        if elim_status == SolveResult::Sat {
            for (who, key) in [
                ("elim", elim_key.expect("sat carries a key")),
                ("noelim", noelim_key.expect("sat carries a key")),
            ] {
                assert!(
                    consistent_with_observations(&case.locked, &key, &observed),
                    "{}",
                    ctx(&format!("{who} key {key} contradicts an observation"))
                );
                assert!(
                    case.locked
                        .key_is_functionally_correct(&key, 128, case_index as u64),
                    "{}",
                    ctx(&format!("{who} key {key} is not functionally correct"))
                );
            }
        }
        total_eliminated += elim.stats().vars_eliminated;
        assert_eq!(
            noelim.stats().vars_eliminated,
            0,
            "{}",
            ctx("the disabled side must never eliminate")
        );
    });
    assert!(
        total_eliminated > 0,
        "the eliminating side must substitute out at least one internal \
         cone variable across the suite"
    );
}

/// Property: after bounded variable elimination, a SAT answer's
/// *reconstructed* model (eliminated variables re-derived by the reverse
/// `extend_model` walk) satisfies every clause of the **original** formula —
/// not merely the post-elimination one — on random CNF instances, with a
/// random subset of variables frozen as an interface.  It still does, with
/// the same values, after a post-solve `simplify` or resurrection changes
/// the elimination stack.
#[test]
fn reconstructed_models_satisfy_the_original_clauses() {
    let mut total_eliminated = 0u64;
    check(304, 40, |round, rng| {
        let num_vars = rng.gen_range(6..16usize);
        let num_clauses = rng.gen_range(8..36usize);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..num_clauses {
            let len = rng.gen_range(1..4usize);
            let clause: Vec<Lit> = (0..len)
                .map(|_| Lit::new(Var::from_index(rng.gen_range(0..num_vars)), rng.gen()))
                .collect();
            clauses.push(clause);
        }
        let frozen: Vec<Var> = (0..num_vars)
            .map(Var::from_index)
            .filter(|_| rng.gen_bool(0.25))
            .collect();

        let build = |config: SolverConfig| {
            let mut solver = Solver::with_config(config);
            solver.ensure_vars(num_vars);
            for var in &frozen {
                solver.set_frozen(*var, true);
            }
            for clause in &clauses {
                solver.add_clause(clause.iter().copied());
            }
            solver
        };
        let mut elim = build(forced_elim());
        let mut noelim = build(disabled_elim());
        elim.simplify();
        noelim.simplify();

        let elim_status = elim.solve();
        let noelim_status = noelim.solve();
        assert_eq!(
            elim_status, noelim_status,
            "round {round}: statuses diverge"
        );
        if elim_status == SolveResult::Sat {
            for clause in &clauses {
                assert!(
                    clause.iter().any(|&lit| elim.value(lit) == Some(true)),
                    "round {round}: reconstructed model violates original \
                     clause {clause:?}"
                );
            }
            // Frozen interface variables keep first-class model values.
            for var in &frozen {
                assert!(
                    !elim.is_eliminated(*var),
                    "round {round}: frozen {var:?} was eliminated"
                );
            }

            // Reconstruction runs on the first read of an eliminated
            // variable.  A change to the elimination stack before the next
            // solve (a simplify that eliminates more, a resurrection) must
            // leave the answer as read — on `elim`, already read above, and
            // on a twin whose model is still unread when the stack changes.
            let answer = model_values(&elim, num_vars);
            let mut twin = build(forced_elim());
            twin.simplify();
            assert_eq!(twin.solve(), SolveResult::Sat, "round {round}");
            for solver in [&mut elim, &mut twin] {
                change_elimination_stack(solver, &frozen, round);
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&lit| solver.value(lit) == Some(true)),
                        "round {round}: the model violates original clause \
                         {clause:?} after a post-solve stack change"
                    );
                }
                assert_eq!(model_values(solver, num_vars), answer, "round {round}");
            }
        }
        total_eliminated += elim.stats().vars_eliminated;
    });
    assert!(
        total_eliminated > 0,
        "the property is vacuous unless elimination actually fired"
    );
}

fn model_values(solver: &Solver, num_vars: usize) -> Vec<Option<bool>> {
    (0..num_vars)
        .map(|i| solver.var_value(Var::from_index(i)))
        .collect()
}

/// Changes `solver`'s elimination stack without solving: by round, thaws
/// the interface and simplifies again (eliminating more), freezes an
/// eliminated variable, or adds a tautology over one (both resurrect it).
fn change_elimination_stack(solver: &mut Solver, frozen: &[Var], round: usize) {
    let eliminated = (0..solver.num_vars())
        .map(Var::from_index)
        .find(|&var| solver.is_eliminated(var));
    match (round % 3, eliminated) {
        (1, Some(var)) => solver.set_frozen(var, true),
        (2, Some(var)) => solver.add_clause([Lit::positive(var), Lit::negative(var)]),
        _ => {
            for &var in frozen {
                solver.set_frozen(var, false);
            }
            solver.simplify();
        }
    }
}

/// A poisoned generation (an empty ϕ clause) must un-poison on retirement
/// even when every conflict forces an arena compaction — GC must never
/// resurrect or lose the frame-scoped empty clause.
#[test]
fn unpoisoning_survives_forced_gc() {
    let mut nl = netlist::Netlist::new("gc_poison");
    let a = nl.add_input("a");
    let k = nl.add_key_input("k");
    let g = nl.add_gate("g", GateKind::Buf, &[a]);
    let keyed = nl.add_gate("keyed", GateKind::Xor, &[a, k]);
    nl.add_output("g", g);
    nl.add_output("keyed", keyed);

    let mut session = session_with(&nl, forced_gc());
    for round in 0..3 {
        let _phi = session.begin_predicate();
        session.add_predicate_clauses(|s, _| s.add_clause([]));
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Unsat, "round {round}: poisoned is ⊥");
        assert!(key.is_none());
        session.retire_predicate();

        // keyed(0) == 1 pins the key; later rounds re-observe a known pair.
        session.observe(&[false], &[false, true]);
        let _phi = session.begin_predicate();
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Sat, "round {round}: session recovers");
        assert_eq!(
            key.expect("sat carries a key").bits(),
            &[true],
            "round {round}: keyed(0) == 1 forces k == 1"
        );
        session.retire_predicate();
    }
    assert_eq!(session.find_dip(), SolveResult::Sat);
}
