//! Integration tests for the SAT solver: structured instances (graph
//! colouring, parity chains), incremental solving and randomised
//! cross-checks against brute force.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sat::{Lit, SolveResult, Solver, Var};

fn lit(var: usize, negated: bool) -> Lit {
    Lit::new(Var::from_index(var), negated)
}

/// Encodes proper 3-colouring of a cycle graph; odd cycles need 3 colours, so
/// with only 2 colours allowed they are unsatisfiable.
fn colouring(cycle_len: usize, colours: usize) -> (usize, Vec<Vec<Lit>>) {
    let var = |node: usize, colour: usize| lit(node * colours + colour, false);
    let mut clauses = Vec::new();
    for node in 0..cycle_len {
        clauses.push((0..colours).map(|c| var(node, c)).collect::<Vec<_>>());
        for c1 in 0..colours {
            for c2 in (c1 + 1)..colours {
                clauses.push(vec![!var(node, c1), !var(node, c2)]);
            }
        }
    }
    for node in 0..cycle_len {
        let next = (node + 1) % cycle_len;
        for c in 0..colours {
            clauses.push(vec![!var(node, c), !var(next, c)]);
        }
    }
    (cycle_len * colours, clauses)
}

#[test]
fn odd_cycle_is_not_two_colourable() {
    let (vars, clauses) = colouring(9, 2);
    let mut solver = Solver::new();
    solver.ensure_vars(vars);
    for clause in &clauses {
        solver.add_clause(clause.iter().copied());
    }
    assert_eq!(solver.solve(), SolveResult::Unsat);
}

#[test]
fn even_cycle_is_two_colourable_and_model_is_proper() {
    let (vars, clauses) = colouring(10, 2);
    let mut solver = Solver::new();
    solver.ensure_vars(vars);
    for clause in &clauses {
        solver.add_clause(clause.iter().copied());
    }
    assert_eq!(solver.solve(), SolveResult::Sat);
    // Every node has exactly one colour and neighbours differ.
    let colour_of = |node: usize| {
        (0..2)
            .find(|&c| solver.var_value(Var::from_index(node * 2 + c)) == Some(true))
            .expect("each node is coloured")
    };
    for node in 0..10 {
        assert_ne!(colour_of(node), colour_of((node + 1) % 10));
    }
}

#[test]
fn long_parity_chain_forces_unique_assignment() {
    // x0 ^ x1 = 1, x1 ^ x2 = 1, ..., x(n-1) ^ xn = 1, with x0 = 0.
    let n = 64;
    let mut solver = Solver::new();
    solver.ensure_vars(n + 1);
    solver.add_clause([lit(0, true)]);
    for i in 0..n {
        solver.add_clause([lit(i, false), lit(i + 1, false)]);
        solver.add_clause([lit(i, true), lit(i + 1, true)]);
    }
    assert_eq!(solver.solve(), SolveResult::Sat);
    for i in 0..=n {
        assert_eq!(
            solver.var_value(Var::from_index(i)),
            Some(i % 2 == 1),
            "bit {i}"
        );
    }
}

#[test]
fn incremental_assumption_sweep_matches_per_call_results() {
    // A small formula solved under every single-literal assumption must agree
    // with a fresh solver given the same unit clause.
    let clauses: Vec<Vec<Lit>> = vec![
        vec![lit(0, false), lit(1, false), lit(2, true)],
        vec![lit(0, true), lit(3, false)],
        vec![lit(2, false), lit(3, true), lit(4, false)],
        vec![lit(1, true), lit(4, true)],
        vec![lit(4, false), lit(5, false)],
    ];
    let mut incremental = Solver::new();
    incremental.ensure_vars(6);
    for clause in &clauses {
        incremental.add_clause(clause.iter().copied());
    }
    for v in 0..6 {
        for negated in [false, true] {
            let assumption = lit(v, negated);
            let inc_result = incremental.solve_with(&[assumption]);

            let mut fresh = Solver::new();
            fresh.ensure_vars(6);
            for clause in &clauses {
                fresh.add_clause(clause.iter().copied());
            }
            fresh.add_clause([assumption]);
            assert_eq!(inc_result, fresh.solve(), "assumption {assumption}");
        }
    }
}

#[test]
fn random_instances_agree_with_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for round in 0..60 {
        let num_vars = rng.gen_range(3..9);
        let num_clauses = rng.gen_range(2..24);
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| {
                let len = rng.gen_range(1..4);
                (0..len)
                    .map(|_| lit(rng.gen_range(0..num_vars), rng.gen()))
                    .collect()
            })
            .collect();
        let mut solver = Solver::new();
        solver.ensure_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let got = solver.solve() == SolveResult::Sat;
        let expected = (0u64..(1 << num_vars)).any(|assignment| {
            clauses.iter().all(|clause| {
                clause.iter().any(|l| {
                    let value = (assignment >> l.var().index()) & 1 == 1;
                    value == l.is_positive()
                })
            })
        });
        assert_eq!(got, expected, "round {round}: {clauses:?}");
    }
}

#[test]
fn solver_reuse_across_many_incremental_calls() {
    // Repeatedly adding clauses between solves must keep results consistent:
    // we progressively pin bits of an 8-bit counter to the value 0b10110011.
    let target = 0b1011_0011u32;
    let mut solver = Solver::new();
    solver.ensure_vars(8);
    assert_eq!(solver.solve(), SolveResult::Sat);
    for bit in 0..8 {
        let value = (target >> bit) & 1 == 1;
        solver.add_clause([lit(bit as usize, !value)]);
        assert_eq!(solver.solve(), SolveResult::Sat, "after pinning bit {bit}");
    }
    for bit in 0..8 {
        assert_eq!(
            solver.var_value(Var::from_index(bit)),
            Some((target >> bit) & 1 == 1)
        );
    }
    // Pinning a contradictory bit makes it permanently unsatisfiable.
    solver.add_clause([lit(0, (target & 1) == 1)]);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    assert!(!solver.is_ok());
}

#[test]
fn stats_reflect_work_done() {
    let (vars, clauses) = colouring(11, 2);
    let mut solver = Solver::new();
    solver.ensure_vars(vars);
    for clause in &clauses {
        solver.add_clause(clause.iter().copied());
    }
    let _ = solver.solve();
    let stats = solver.stats();
    assert!(stats.conflicts > 0);
    assert!(stats.propagations > 0);
    assert_eq!(stats.solves, 1);
}
