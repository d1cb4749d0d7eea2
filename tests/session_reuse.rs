//! Property-based differential suite for frame-scoped predicate generations:
//! a *recycled* `AttackSession` — one long-lived session whose confirmation
//! predicates are retired and rebound (`begin_predicate`/`retire_predicate`)
//! — must be observationally equivalent to a brand-new session per run.
//!
//! The driving idea is lockstep execution: for every generation, the same
//! query sequence runs against the recycled session and against a fresh
//! oracle session, with the *recycled* session's models (distinguishing
//! inputs, candidate keys) fed to both sides.  Oracle answers outlive every
//! generation, so each generation's fresh session first replays the whole
//! observation history in arrival order.  Satisfiability is a semantic
//! property of the accumulated constraints, so every solve status must
//! agree exactly — learnt clauses carried across generations may change
//! which model is found, never whether one exists.  Model-carrying results
//! are checked semantically instead (ϕ-membership, consistency with every
//! observed I/O pair, functional correctness of confirmed keys).
//!
//! Whole confirmation runs on one session are compared by verdict instead:
//! each must reach the verdict of `key_confirmation_fresh`, the pre-session
//! algorithm with two dedicated solvers per run.
//!
//! Failures print the case index, the generation, the scheme/seed label and
//! the iteration, mirroring the deterministic case-runner convention of
//! `tests/property_based.rs`.

use fall::encode::{
    assumptions_for, constrain_equal_const, instantiate, instantiate_sharing_inputs,
    instantiate_sharing_keys, model_key, model_values,
};
use fall::key_confirmation::{
    key_confirmation, key_confirmation_in, key_confirmation_with_predicate_in,
};
use fall::oracle::{CountingOracle, Oracle, SimOracle};
use fall::session::AttackSession;
use locking::{Key, LockedCircuit, LockingScheme, SfllHd, TtLock, XorLock};
use netlist::cnf::encode_any_difference;
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sat::{Lit, SolveResult, Solver};

/// Predicate generations run through each recycled session.
const GENERATIONS: usize = 3;
/// Safety cap on distinguishing-input iterations per generation.
const MAX_ITERATIONS: usize = 400;

/// Runs `property` on `cases` pseudo-random cases seeded from `seed`
/// (consistent with `tests/property_based.rs`).
fn check<F: FnMut(usize, &mut ChaCha8Rng)>(seed: u64, cases: usize, mut property: F) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
        property(case, &mut rng);
    }
}

/// One random locked instance plus a shrinker-friendly label.
struct Case {
    locked: LockedCircuit,
    label: String,
}

fn random_case(rng: &mut ChaCha8Rng) -> Case {
    let seed = rng.gen_range(0..1000u64);
    let inputs = rng.gen_range(7..10usize);
    let gates = rng.gen_range(40..70usize);
    let original = generate(&RandomCircuitSpec::new("reuse", inputs, 2, gates).with_seed(seed));
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

/// The predicate ϕ bound for one generation.
#[derive(Clone, Debug)]
enum PhiMode {
    /// ϕ = OR over an explicit key shortlist.
    Shortlist(Vec<Key>),
    /// ϕ pins one key bit (a § VI-D key-space region).
    PinBit { bit: usize, value: bool },
    /// ϕ pins the first `bits` key bits to those of `region` (the § VI-D
    /// partition the region search uses).
    Region { bits: usize, region: u64 },
    /// ϕ = true (key confirmation degenerates to the SAT attack).
    Free,
}

fn random_mode(rng: &mut ChaCha8Rng, locked: &LockedCircuit) -> PhiMode {
    let width = locked.key.len();
    match rng.gen_range(0..4usize) {
        0 => PhiMode::Shortlist(vec![locked.key.clone(), locked.key.complement()]),
        1 => PhiMode::Shortlist(vec![
            locked.key.complement(),
            Key::from_pattern(rng.gen_range(0..1 << width.min(16)), width),
        ]),
        2 => PhiMode::PinBit {
            bit: rng.gen_range(0..width),
            value: rng.gen(),
        },
        _ => PhiMode::Free,
    }
}

/// Encodes ϕ on the predicate key literals (same shape as the production
/// shortlist encoding, reimplemented here so the test stays independent).
fn apply_mode(solver: &mut Solver, key_lits: &[Lit], mode: &PhiMode) {
    match mode {
        PhiMode::Shortlist(keys) => {
            let selectors: Vec<Lit> = keys
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
        PhiMode::PinBit { bit, value } => {
            let lit = key_lits[*bit];
            solver.add_clause([if *value { lit } else { !lit }]);
        }
        PhiMode::Region { bits, region } => {
            for (bit, &lit) in key_lits.iter().enumerate().take(*bits) {
                solver.add_clause([if (region >> bit) & 1 == 1 { lit } else { !lit }]);
            }
        }
        PhiMode::Free => {}
    }
}

fn key_satisfies_phi(mode: &PhiMode, key: &Key) -> bool {
    match mode {
        PhiMode::Shortlist(keys) => keys.contains(key),
        PhiMode::PinBit { bit, value } => key.bits()[*bit] == *value,
        PhiMode::Region { bits, region } => {
            (0..*bits).all(|bit| key.bits()[bit] == ((region >> bit) & 1 == 1))
        }
        PhiMode::Free => true,
    }
}

/// Checks that a candidate key reproduces every observed I/O pair on the
/// locked circuit.
fn consistent_with_observations(
    locked: &LockedCircuit,
    key: &Key,
    observed: &[(Vec<bool>, Vec<bool>)],
) -> bool {
    observed
        .iter()
        .all(|(x, y)| &locked.locked.evaluate(x, key.bits()) == y)
}

/// Runs one key-confirmation generation (Algorithm 4's P/Q loop) in lockstep
/// on the recycled and the fresh session, asserting observational
/// equivalence at every step.  `observed` is the recycled session's whole
/// observation history, which the fresh session must already have observed;
/// each new pair is observed on both sides and appended.  Leaves the
/// generation open on both sessions.
#[allow(clippy::too_many_arguments)]
fn lockstep_confirmation(
    recycled: &mut AttackSession<'_>,
    fresh: &mut AttackSession<'_>,
    oracle: &SimOracle,
    observed: &mut Vec<(Vec<bool>, Vec<bool>)>,
    case: &Case,
    mode: &PhiMode,
    case_index: usize,
    generation: usize,
) {
    let ctx = |detail: &str| {
        format!(
            "case {case_index} gen {generation} [{}] mode {mode:?}: {detail}",
            case.label
        )
    };
    recycled.begin_predicate();
    fresh.begin_predicate();
    recycled.add_predicate_clauses(|solver, keys| apply_mode(solver, keys, mode));
    fresh.add_predicate_clauses(|solver, keys| apply_mode(solver, keys, mode));

    for iteration in 0..MAX_ITERATIONS {
        // P query: candidate consistent with ϕ and the observations so far.
        let (recycled_status, recycled_key) = recycled.candidate_key();
        let (fresh_status, fresh_key) = fresh.candidate_key();
        assert_eq!(
            recycled_status,
            fresh_status,
            "{}",
            ctx(&format!(
                "candidate statuses diverge at iteration {iteration}"
            ))
        );
        let candidate = match recycled_status {
            SolveResult::Unsat => return, // ⊥ on both sides: generation done.
            SolveResult::Unknown => panic!("{}", ctx("unexpected Unknown (no budget set)")),
            SolveResult::Sat => recycled_key.expect("sat carries a key"),
        };
        for (who, key) in [
            ("recycled", &candidate),
            ("fresh", fresh_key.as_ref().expect("sat carries a key")),
        ] {
            assert!(
                key_satisfies_phi(mode, key),
                "{}",
                ctx(&format!(
                    "{who} candidate {key} violates ϕ at iteration {iteration}"
                ))
            );
            assert!(
                consistent_with_observations(&case.locked, key, observed),
                "{}",
                ctx(&format!(
                    "{who} candidate {key} contradicts an observed I/O pair at \
                     iteration {iteration}"
                ))
            );
        }

        // Q query with the *same* candidate on both sides.
        let recycled_q = recycled.find_dip_against(&candidate);
        let fresh_q = fresh.find_dip_against(&candidate);
        assert_eq!(
            recycled_q,
            fresh_q,
            "{}",
            ctx(&format!("Q statuses diverge at iteration {iteration}"))
        );
        if recycled_q == SolveResult::Unsat {
            // Confirmed on both sides: the key must really unlock the chip.
            assert!(
                case.locked
                    .key_is_functionally_correct(&candidate, 128, case_index as u64),
                "{}",
                ctx(&format!(
                    "confirmed key {candidate} is not functionally correct"
                ))
            );
            return;
        }

        // Feed the recycled session's distinguishing input to both sides.
        let x = recycled.dip_inputs();
        let y = oracle.query(&x);
        recycled.observe(&x, &y);
        fresh.observe(&x, &y);
        observed.push((x, y));
    }
    panic!(
        "{}",
        ctx("generation did not converge within the iteration cap")
    );
}

/// For random netlists and locking schemes, N retire-then-rebind predicate
/// generations on one session match a fresh-session oracle query for query.
#[test]
fn recycled_confirmation_generations_match_fresh_sessions() {
    check(201, 6, |case_index, rng| {
        let case = random_case(rng);
        let oracle = SimOracle::new(case.locked.original.clone());
        let mut recycled = AttackSession::new(&case.locked.locked);
        let mut observed: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        for generation in 0..GENERATIONS {
            let mode = random_mode(rng, &case.locked);
            let mut fresh = AttackSession::new(&case.locked.locked);
            for (x, y) in &observed {
                fresh.observe(x, y);
            }
            lockstep_confirmation(
                &mut recycled,
                &mut fresh,
                &oracle,
                &mut observed,
                &case,
                &mode,
                case_index,
                generation,
            );
            recycled.retire_predicate();
        }
        assert_eq!(
            recycled.cone_encodings_built(),
            1,
            "case {case_index} [{}]: generations must never re-encode the circuit",
            case.label
        );
    });
}

/// Iterations each non-final generation's DIP loop may run: `K1` constraints
/// outlive a generation, so an uncapped first generation would leave no
/// distinguishing input for the later ones.
const DIP_ITERATIONS_PER_GENERATION: usize = 3;

/// The SAT-attack flow (`find_dip`/`force_dip`/`extract_key`) spread over
/// predicate generations is likewise equivalent to a fresh session that
/// replays the history with `force_dip`, across retire-then-rebind cycles —
/// including the re-arming of the difference constraint that `extract_key`
/// retires.
#[test]
fn recycled_dip_and_extract_key_match_fresh_sessions() {
    check(202, 5, |case_index, rng| {
        let case = random_case(rng);
        let oracle = SimOracle::new(case.locked.original.clone());
        let mut recycled = AttackSession::new(&case.locked.locked);
        let mut observed: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        for generation in 0..GENERATIONS {
            let ctx = |detail: &str| {
                format!(
                    "case {case_index} gen {generation} [{}]: {detail}",
                    case.label
                )
            };
            let cap = if generation + 1 < GENERATIONS {
                DIP_ITERATIONS_PER_GENERATION
            } else {
                MAX_ITERATIONS
            };
            let mut fresh = AttackSession::new(&case.locked.locked);
            for (x, y) in &observed {
                fresh.force_dip(x, y);
            }
            recycled.begin_predicate();
            fresh.begin_predicate();

            let mut converged = false;
            for iteration in 0..cap {
                let recycled_status = recycled.find_dip();
                let fresh_status = fresh.find_dip();
                assert_eq!(
                    recycled_status,
                    fresh_status,
                    "{}",
                    ctx(&format!("find_dip diverges at iteration {iteration}"))
                );
                match recycled_status {
                    SolveResult::Unsat => {
                        converged = true;
                        break;
                    }
                    SolveResult::Unknown => {
                        panic!("{}", ctx("unexpected Unknown (no budget set)"))
                    }
                    SolveResult::Sat => {}
                }
                let x = recycled.dip_inputs();
                let y = oracle.query(&x);
                recycled.force_dip(&x, &y);
                fresh.force_dip(&x, &y);
                observed.push((x, y));
            }
            assert!(
                converged || cap < MAX_ITERATIONS,
                "{}",
                ctx("DIP loop did not converge within the iteration cap")
            );

            let (recycled_status, recycled_key) = recycled.extract_key();
            let (fresh_status, fresh_key) = fresh.extract_key();
            assert_eq!(
                recycled_status,
                fresh_status,
                "{}",
                ctx("extract_key statuses diverge")
            );
            if recycled_status == SolveResult::Sat {
                for (who, key) in [
                    ("recycled", recycled_key.expect("sat carries a key")),
                    ("fresh", fresh_key.expect("sat carries a key")),
                ] {
                    assert!(
                        consistent_with_observations(&case.locked, &key, &observed),
                        "{}",
                        ctx(&format!(
                            "{who} extracted key {key} contradicts an observation"
                        ))
                    );
                    // Only a converged loop proves the key correct.
                    assert!(
                        !converged
                            || case.locked.key_is_functionally_correct(
                                &key,
                                128,
                                case_index as u64
                            ),
                        "{}",
                        ctx(&format!(
                            "{who} extracted key {key} is not functionally correct"
                        ))
                    );
                }
            }
            recycled.retire_predicate();
        }
        assert_eq!(
            recycled.cone_encodings_built(),
            1,
            "case {case_index} [{}]: generations must never re-encode the circuit",
            case.label
        );
    });
}

/// Long-lived reuse at the public API level: one session runs many whole
/// key-confirmation runs back to back, each confirming or rejecting its
/// shortlist exactly like the first, with one circuit encoding total.
#[test]
fn one_session_serves_many_confirmation_runs() {
    let original = generate(&RandomCircuitSpec::new("reuse_many", 8, 2, 50));
    let locked = SfllHd::new(5, 0)
        .with_seed(2)
        .lock(&original)
        .expect("lock");
    let oracle = SimOracle::new(original);
    let mut session = AttackSession::new(&locked.locked);

    for round in 0..8 {
        // Alternate between a shortlist containing the correct key and a
        // wrong-only shortlist: confirmation and rejection must both leave
        // the session clean for the next round.
        if round % 2 == 0 {
            let shortlist = [locked.key.clone(), locked.key.complement()];
            let result = key_confirmation_in(&mut session, &oracle, &shortlist);
            assert!(result.completed, "round {round}");
            assert_eq!(result.key, Some(locked.key.clone()), "round {round}");
        } else {
            let shortlist = [locked.key.complement()];
            let result = key_confirmation_in(&mut session, &oracle, &shortlist);
            assert!(result.completed, "round {round}");
            assert_eq!(result.key, None, "round {round}: wrong-only shortlist");
        }
    }
    assert_eq!(
        session.cone_encodings_built(),
        1,
        "eight confirmation runs share one circuit encoding"
    );
}

/// Whether two keys make the locked circuit compute the same function,
/// over every input pattern.
fn same_function(locked: &Netlist, a: &Key, b: &Key) -> bool {
    (0..1u64 << locked.num_inputs()).all(|pattern| {
        let x = netlist::sim::pattern_to_bits(pattern, locked.num_inputs());
        locked.evaluate(&x, a.bits()) == locked.evaluate(&x, b.bits())
    })
}

/// The pre-session key confirmation (Algorithm 4 with two dedicated
/// solvers and a full circuit encoding per observed pair): the verdict
/// reference for runs on a long-lived session.  Returns the confirmed key
/// (`None` for ⊥).
fn key_confirmation_fresh(locked: &Netlist, oracle: &dyn Oracle, mode: &PhiMode) -> Option<Key> {
    // P: candidate keys consistent with ϕ and the observed I/O pairs.
    let mut p_solver = Solver::new();
    let p_keys: Vec<Lit> = (0..locked.num_key_inputs())
        .map(|_| Lit::positive(p_solver.new_var()))
        .collect();
    apply_mode(&mut p_solver, &p_keys, mode);

    // Q: distinguishing inputs between K1 (assumed equal to the candidate)
    // and any other key K2 consistent with the observed I/O pairs.
    let mut q_solver = Solver::new();
    let q_copy1 = instantiate(locked, &mut q_solver);
    let q_copy2 = instantiate_sharing_inputs(locked, &mut q_solver, &q_copy1.inputs);
    let diff = encode_any_difference(&mut q_solver, &q_copy1.outputs, &q_copy2.outputs);
    q_solver.add_clause([diff]);

    for _ in 0..MAX_ITERATIONS {
        let candidate = match p_solver.solve() {
            SolveResult::Unsat => return None,
            SolveResult::Unknown => panic!("no budget set"),
            SolveResult::Sat => model_key(&p_solver, &p_keys),
        };
        let assumptions = assumptions_for(&q_copy1.keys, candidate.bits());
        match q_solver.solve_with(&assumptions) {
            SolveResult::Unsat => return Some(candidate),
            SolveResult::Unknown => panic!("no budget set"),
            SolveResult::Sat => {}
        }
        let x = model_values(&q_solver, &q_copy1.inputs);
        let y = oracle.query(&x);
        let p_pair = instantiate_sharing_keys(locked, &mut p_solver, &p_keys);
        constrain_equal_const(&mut p_solver, &p_pair.inputs, &x);
        constrain_equal_const(&mut p_solver, &p_pair.outputs, &y);
        let q_pair = instantiate_sharing_keys(locked, &mut q_solver, &q_copy2.keys);
        constrain_equal_const(&mut q_solver, &q_pair.inputs, &x);
        constrain_equal_const(&mut q_solver, &q_pair.outputs, &y);
    }
    panic!("fresh confirmation did not converge within the iteration cap");
}

/// On a cold session per shortlist, key confirmation confirms exactly the
/// key the fresh reference confirms (or ⊥ where it does), for fixed SFLL-HD
/// h=1 shortlists.
#[test]
fn incremental_and_fresh_confirmation_agree() {
    let original = generate(&RandomCircuitSpec::new("kc", 12, 3, 80));
    let locked = SfllHd::new(10, 1)
        .with_seed(23)
        .lock(&original)
        .expect("lock");
    let oracle = SimOracle::new(original);
    for shortlist in [
        vec![locked.key.clone(), locked.key.complement()],
        vec![locked.key.complement(), Key::zeros(10)],
        vec![
            Key::zeros(10),
            locked.key.clone(),
            Key::from_pattern(0x155, 10),
        ],
    ] {
        let incremental = key_confirmation(&locked.locked, &oracle, &shortlist);
        let fresh = key_confirmation_fresh(
            &locked.locked,
            &oracle,
            &PhiMode::Shortlist(shortlist.clone()),
        );
        assert!(incremental.completed);
        assert_eq!(
            incremental.key, fresh,
            "shortlist {shortlist:?} must confirm the same key"
        );
    }
}

/// One long-lived session runs a mixed sequence of whole confirmations —
/// shortlists holding the true key, decoy-only shortlists and region
/// predicates — and keeps every oracle answer across them.  Every verdict
/// must equal the fresh reference's, every confirmed key must unlock the
/// circuit, and re-confirming a shortlist the session has settled must not
/// ask the oracle anything.
#[test]
fn warm_confirmations_reach_the_fresh_verdicts() {
    check(203, 8, |case_index, rng| {
        let case = random_case(rng);
        let locked = &case.locked;
        let oracle = CountingOracle::new(SimOracle::new(locked.original.clone()));
        let width = locked.key.len();
        let decoy =
            |rng: &mut ChaCha8Rng| Key::from_pattern(rng.gen_range(0..1u64 << width), width);
        let true_region = (0..2).fold(0u64, |acc, bit| {
            acc | (u64::from(locked.key.bits()[bit]) << bit)
        });
        let mut modes = vec![
            PhiMode::Shortlist(vec![
                decoy(rng),
                locked.key.clone(),
                locked.key.complement(),
            ]),
            PhiMode::Shortlist(vec![locked.key.complement(), decoy(rng)]),
            PhiMode::Region {
                bits: 2,
                region: rng.gen_range(0..4),
            },
            PhiMode::Region {
                bits: 2,
                region: true_region,
            },
            PhiMode::Shortlist(vec![locked.key.clone(), decoy(rng)]),
            PhiMode::Shortlist(vec![decoy(rng), decoy(rng)]),
        ];
        // The shortlists again, now settled by the session's observations.
        let settled: Vec<PhiMode> = modes
            .iter()
            .filter(|mode| matches!(mode, PhiMode::Shortlist(_)))
            .cloned()
            .collect();
        let first_pass = modes.len();
        modes.extend(settled);

        let mut session = AttackSession::new(&locked.locked);
        for (run, mode) in modes.iter().enumerate() {
            let ctx = format!("case {case_index} run {run} [{}] mode {mode:?}", case.label);
            let fresh_oracle = SimOracle::new(locked.original.clone());
            let want = key_confirmation_fresh(&locked.locked, &fresh_oracle, mode);
            let queries_before = oracle.queries();
            let result = match mode {
                PhiMode::Shortlist(keys) => key_confirmation_in(&mut session, &oracle, keys),
                _ => key_confirmation_with_predicate_in(&mut session, &oracle, |solver, keys| {
                    apply_mode(solver, keys, mode)
                }),
            };
            assert!(result.completed, "{ctx}: unfinished");
            // The verdict is ⊥ or "this key is correct".  Where ϕ admits
            // two keys that unlock the same function (an unobservable key
            // bit), either one is that verdict.
            match (&result.key, &want) {
                (Some(key), Some(reference)) => assert!(
                    same_function(&locked.locked, key, reference),
                    "{ctx}: confirmed {key}, the fresh reference {reference}"
                ),
                (key, reference) => assert_eq!(
                    key, reference,
                    "{ctx}: verdict differs from the fresh reference"
                ),
            }
            if let Some(key) = &result.key {
                assert!(key_satisfies_phi(mode, key), "{ctx}: {key} violates ϕ");
                assert!(
                    locked.key_is_functionally_correct(key, 128, case_index as u64),
                    "{ctx}: confirmed key {key} is not functionally correct"
                );
            }
            assert_eq!(
                result.iterations,
                oracle.queries() - queries_before,
                "{ctx}: one oracle query per iteration"
            );
            if run >= first_pass {
                assert_eq!(
                    result.iterations, 0,
                    "{ctx}: a settled shortlist asked the oracle"
                );
            }
        }
        assert_eq!(
            session.num_observations(),
            oracle.queries(),
            "case {case_index}: one observation per query"
        );
        assert!(!session.has_active_predicate());
    });
}
