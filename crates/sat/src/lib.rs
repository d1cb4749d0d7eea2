//! A from-scratch CDCL (conflict-driven clause learning) SAT solver.
//!
//! This crate provides the Boolean reasoning engine used throughout the FALL
//! attacks reproduction.  It plays the role that Lingeling plays in the
//! original paper: a sound and complete solver with incremental solving under
//! assumptions.
//!
//! # Features
//!
//! * Two-watched-literal unit propagation.
//! * First-UIP conflict analysis with clause learning and non-chronological
//!   backjumping.
//! * VSIDS variable activities with phase saving.
//! * Glucose-style EMA restarts with trail-size blocking ([`RestartMode`]),
//!   with Luby budgets as the fallback that adaptive strategy switching
//!   selects for bursty-conflict instances ([`SearchStrategy::HighSuccessive`]).
//! * LBD-tiered learnt-clause management (CORE / TIER2 / LOCAL) with
//!   promotion on use and glue protection.
//! * One-shot adaptive strategy switching after a warm-up conflict budget
//!   ([`SearchStrategy`], [`Solver::strategy`]); [`Solver::sibling`] starts
//!   a new solver from the parameters it retuned.
//! * Bounded variable elimination at [`Solver::simplify`] checkpoints with
//!   model reconstruction and transparent resurrection under incremental use
//!   ([`Solver::set_frozen`], [`Solver::is_eliminated`]).
//! * Incremental solving under assumptions ([`Solver::solve_with`]).
//! * Activation frames for assumption-scoped clause groups that can be
//!   logically deleted without losing learnt clauses
//!   ([`Solver::push_frame`], [`Solver::retire_frame`], [`Solver::solve_in`])
//!   plus a level-0 clause-database reduction pass ([`Solver::simplify`]).
//! * A flat `u32` clause arena (offsets instead of per-clause heap
//!   allocations) with periodic garbage collection
//!   ([`SolverConfig::gc_wasted_ratio`], [`Solver::collect_garbage`]) and a
//!   spent-variable free list ([`Solver::release_var`]): retired frames give
//!   back their clauses *and* their variables, so long-lived incremental
//!   sessions run in bounded memory.
//! * A shared interrupt flag ([`Solver::set_interrupt`]), the one way to
//!   stop a solve early: a caller raises it from its own clock or
//!   cancellation path, and the solve returns [`SolveResult::Unknown`].
//! * [`SolverConfig`] holds only the switches the differential suites flip;
//!   every other search parameter is a constant or retuned by adaptive
//!   strategy switching.
//!
//! Clauses enter through the API ([`Solver::add_clause`] and its framed
//! variants); the crate reads and writes no file format.
//!
//! # Modules
//!
//! The crate root re-exports everything public.  Internally, `solver` holds
//! the CDCL loop (with bounded variable elimination in `eliminate.rs`),
//! `clause` the flat clause arena, `heap` the VSIDS order heap, `restart`
//! and `luby` the restart pacing, and `lit`/`lbool` the literal and
//! three-valued types.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! // (a | b) & (!a | b) forces b = true.
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a), Lit::positive(b)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(Lit::positive(b)), Some(true));
//! ```

#![deny(missing_docs)]

mod clause;
mod heap;
mod lbool;
mod lit;
mod luby;
mod restart;
mod solver;

pub use lbool::LBool;
pub use lit::{Lit, Var};
pub use restart::RestartMode;
pub use solver::{
    Checkpoint, FrameId, SearchStrategy, SolveResult, Solver, SolverConfig, SolverStats,
};

// The parallel attack engine moves whole solvers across worker threads; every
// field is owned data or an `Arc` of a `Sync` atomic, so `Solver` must stay
// `Send`.  Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>()
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        s.add_clause([Lit::negative(a)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause([]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
