//! Bounded variable elimination (SatELite/NiVER lineage) over the flat arena.
//!
//! Runs as an inprocessing pass at [`Solver::simplify`] checkpoints: a
//! variable with at most 16 positive and 16 negative occurrences is
//! *resolved out* — every positive/negative clause pair is replaced by its
//! resolvent — when the surviving resolvents do not grow the database beyond
//! [`SolverConfig::elim_grow`](crate::SolverConfig::elim_grow) and none is
//! longer than 16 literals.
//! The variable's original clauses move onto a reconstruction stack:
//!
//! * A SAT answer keeps the search's assignment as the model and marks it
//!   pending while the stack is non-empty.  The first read of an eliminated
//!   variable ([`Solver::var_value`]) runs [`Solver::extend_model`], which
//!   walks the stack in reverse and assigns each eliminated variable a
//!   polarity satisfying its stored clauses, so callers see a complete model
//!   of the *original* formula.  A caller that reads only frozen variables
//!   never pays for the walk.
//! * Anything that changes the stack (a new elimination, a resurrection)
//!   first completes a pending model, so the walk always sees the stack the
//!   SAT answer was found under and every read returns the value an eager
//!   extension at the SAT answer would have given.
//! * A later clause, assumption, or freeze that references an eliminated
//!   variable *resurrects* it ([`Solver::resurrect_var`]): the stored
//!   clauses are re-added (they imply every resolvent that replaced them, so
//!   equivalence is exact) and the variable is barred from re-elimination —
//!   incremental sessions stay sound without the caller tracking anything.
//!
//! Strictly excluded from elimination: frozen (interface) variables,
//! frame-tagged variables (activation variables and frame-scoped Tseitin
//! variables — frame retirement owns their lifecycle), released variables
//! (the recycler owns them), assigned variables, and any variable sharing a
//! clause with an excluded one (the resolvent set would be incomplete).

use super::{LBool, Lit, Recycling, Solver, Var, ELIM_CLAUSE_LIMIT, ELIM_OCC_LIMIT};
use crate::clause::ClauseRef;

/// One entry of the elimination reconstruction stack: the variable and the
/// original problem clauses it was resolved out of.
#[derive(Clone, Debug)]
pub(crate) struct ElimRecord {
    pub(crate) var: Var,
    pub(crate) clauses: Vec<Vec<Lit>>,
}

impl Solver {
    /// The bounded variable elimination pass; called from
    /// [`Solver::simplify`] after satisfied clauses and released variables
    /// have been processed.
    pub(crate) fn eliminate_vars(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.config.elim_vars || !self.ok || self.num_vars == 0 {
            return;
        }
        let n = self.num_vars;

        // Pass 1 — occurrence counts and exclusion marks over the live
        // problem clauses.  A clause containing any frame-tagged or released
        // variable blocks *all* its variables: eliminating one would need
        // that clause in the resolvent set, and the excluded variable's
        // lifecycle (frame retirement, recycling) may delete it later.
        let mut pos = vec![0u32; n];
        let mut neg = vec![0u32; n];
        let mut blocked = vec![false; n];
        for cref in self.db.live_refs() {
            if self.db.is_learnt(cref) {
                continue;
            }
            let lits = self.db.lits(cref);
            let ineligible = lits.iter().any(|l| {
                let i = l.var().index();
                self.frame_tagged[i] || self.recycling[i] != Recycling::Live
            });
            for l in lits {
                let i = l.var().index();
                if ineligible {
                    blocked[i] = true;
                } else if l.polarity() {
                    pos[i] += 1;
                } else {
                    neg[i] += 1;
                }
            }
        }

        let limit = ELIM_OCC_LIMIT as u32;
        let mut candidates: Vec<Var> = Vec::new();
        let mut slot = vec![usize::MAX; n];
        for i in 0..n {
            if pos[i] + neg[i] == 0 || pos[i] > limit || neg[i] > limit {
                continue;
            }
            if blocked[i]
                || self.frozen[i]
                || self.eliminated[i]
                || self.elim_skip[i]
                || self.recycling[i] != Recycling::Live
                || self.frame_tagged[i]
                || self.assigns[i] != LBool::Undef
            {
                continue;
            }
            slot[i] = candidates.len();
            candidates.push(Var::from_index(i));
        }
        if candidates.is_empty() {
            return;
        }

        // Pass 2 — dense candidate-indexed occurrence lists.  Refs go stale
        // when an earlier candidate's commit deletes a shared clause; the
        // per-candidate scan filters tombstones, and resolvents are
        // registered into the lists of still-pending candidates below, so
        // every candidate always sees its complete live occurrence set —
        // completeness is what makes the substitution sound.
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); candidates.len()];
        let problem_refs: Vec<ClauseRef> = self
            .db
            .live_refs()
            .filter(|&c| !self.db.is_learnt(c))
            .collect();
        for cref in problem_refs {
            for k in 0..self.db.len(cref) {
                let s = slot[self.db.lit(cref, k).var().index()];
                if s != usize::MAX {
                    occ[s].push(cref);
                }
            }
        }

        let mut newly: Vec<Var> = Vec::new();
        'candidates: for s in 0..candidates.len() {
            if !self.ok {
                break;
            }
            let var = candidates[s];
            let vi = var.index();
            // A unit resolvent of an earlier elimination may have assigned
            // this candidate meanwhile.
            if self.assigns[vi] != LBool::Undef {
                continue;
            }

            // Live occurrences, split by the candidate's polarity, literals
            // copied out (the commit below tombstones the refs).
            let mut pos_clauses: Vec<(ClauseRef, Vec<Lit>)> = Vec::new();
            let mut neg_clauses: Vec<(ClauseRef, Vec<Lit>)> = Vec::new();
            for &cref in &occ[s] {
                if self.db.is_deleted(cref) {
                    continue;
                }
                let lits = self.db.lits(cref).to_vec();
                let Some(my) = lits.iter().find(|l| l.var() == var).copied() else {
                    continue;
                };
                if my.polarity() {
                    pos_clauses.push((cref, lits));
                } else {
                    neg_clauses.push((cref, lits));
                }
            }
            let occurrences = pos_clauses.len() + neg_clauses.len();
            if occurrences == 0
                || pos_clauses.len() > limit as usize
                || neg_clauses.len() > limit as usize
            {
                continue;
            }

            // Trial resolution of every positive/negative pair.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            for (_, cp) in &pos_clauses {
                for (_, cn) in &neg_clauses {
                    if let Some(r) = self.resolve_on(var, cp, cn) {
                        if r.is_empty() {
                            // The empty resolvent: the formula is
                            // unsatisfiable at the root.
                            self.ok = false;
                            return;
                        }
                        if r.len() > ELIM_CLAUSE_LIMIT {
                            continue 'candidates;
                        }
                        resolvents.push(r);
                    }
                }
            }
            // Growth bound: units strengthen rather than grow, so only
            // multi-literal resolvents count against the budget.
            let grown = resolvents.iter().filter(|r| r.len() >= 2).count();
            if grown > occurrences + self.config.elim_grow {
                continue;
            }

            // Commit: tombstone the originals, store them for
            // reconstruction/resurrection, add the resolvents.  A pending
            // model is completed against the stack it was found under.
            self.complete_model();
            let mut originals: Vec<Vec<Lit>> = Vec::with_capacity(occurrences);
            for (cref, lits) in pos_clauses.into_iter().chain(neg_clauses) {
                self.delete_clause(cref);
                originals.push(lits);
            }
            self.elim_stack.push(ElimRecord {
                var,
                clauses: originals,
            });
            self.eliminated[vi] = true;
            self.stats.vars_eliminated += 1;
            newly.push(var);
            for r in resolvents {
                if let Some(cref) = self.add_clause_root_vec(r) {
                    for k in 0..self.db.len(cref) {
                        let s2 = slot[self.db.lit(cref, k).var().index()];
                        if s2 != usize::MAX && s2 > s {
                            occ[s2].push(cref);
                        }
                    }
                }
                if !self.ok {
                    return;
                }
            }
        }

        if newly.is_empty() {
            return;
        }
        // Learnt clauses over eliminated variables are implied by the
        // original formula and only waste propagation effort on variables
        // the search no longer branches on; drop them.
        let mut gone = vec![false; n];
        for v in &newly {
            gone[v.index()] = true;
        }
        let db = &self.db;
        let victims: Vec<ClauseRef> = db
            .learnt_refs()
            .filter(|&c| db.lits(c).iter().any(|l| gone[l.var().index()]))
            .collect();
        for cref in victims {
            self.delete_clause(cref);
        }
        self.prune_watchers();
    }

    /// Resolves `cp` (contains `pivot`) with `cn` (contains `¬pivot`) on
    /// `pivot`, simplifying against the root assignment.  Returns `None` for
    /// tautological or root-satisfied resolvents; an empty clause signals a
    /// root-level contradiction.
    fn resolve_on(&self, pivot: Var, cp: &[Lit], cn: &[Lit]) -> Option<Vec<Lit>> {
        let mut resolvent: Vec<Lit> = Vec::with_capacity(cp.len() + cn.len() - 2);
        for &l in cp.iter().chain(cn) {
            if l.var() == pivot {
                continue;
            }
            match self.lit_value(l) {
                LBool::True if self.level[l.var().index()] == 0 => return None,
                LBool::False if self.level[l.var().index()] == 0 => continue,
                _ => resolvent.push(l),
            }
        }
        resolvent.sort_unstable();
        resolvent.dedup();
        // Complementary literals of one variable sort adjacently.
        if resolvent.windows(2).any(|w| w[1] == !w[0]) {
            return None;
        }
        Some(resolvent)
    }

    /// Re-introduces an eliminated variable by re-adding its stored original
    /// clauses.  Sound and exact: the originals imply every resolvent that
    /// replaced them, so the clause set is equivalent to never having
    /// eliminated the variable (modulo redundant resolvents).
    ///
    /// Re-adding may cascade: a stored clause can reference a variable
    /// eliminated *later*, whose resurrection is triggered recursively by the
    /// clause-add path.  The `eliminated` flag is cleared first, so cycles
    /// terminate.  The variable is barred from future elimination
    /// (`elim_skip`) — a caller that referenced it once will plausibly do so
    /// again, and eliminate/resurrect thrash costs more than keeping it.
    pub(crate) fn resurrect_var(&mut self, var: Var) {
        if !self.eliminated[var.index()] {
            return;
        }
        self.complete_model();
        self.eliminated[var.index()] = false;
        self.elim_skip[var.index()] = true;
        self.stats.vars_resurrected += 1;
        let position = self
            .elim_stack
            .iter()
            .position(|r| r.var == var)
            .expect("eliminated variable has a reconstruction record");
        let record = self.elim_stack.remove(position);
        for clause in record.clauses {
            let _ = self.add_clause_root_vec(clause);
            if !self.ok {
                return;
            }
        }
        if self.assigns[var.index()] == LBool::Undef && !self.order.contains(var) {
            self.order.insert(var, &self.activity);
        }
    }

    /// Runs a pending reconstruction walk; called before the elimination
    /// stack changes.
    fn complete_model(&self) {
        if self.model_pending.get() {
            self.extend_model();
        }
    }

    /// Completes the model over the eliminated variables (reverse elimination
    /// order), choosing each variable's polarity to satisfy its stored
    /// original clauses.  Runs once per SAT answer, on the first read of an
    /// eliminated variable or before the stack changes, whichever is first.
    ///
    /// Walking in reverse keeps every lookup defined: a record's clauses
    /// were live when the record was pushed, so they mention no
    /// earlier-eliminated variable, and every later-eliminated one has been
    /// reconstructed by the time the walk reaches the record.
    pub(crate) fn extend_model(&self) {
        self.model_pending.set(false);
        #[cfg(test)]
        self.reconstruction_walks
            .set(self.reconstruction_walks.get() + 1);
        let mut model = self.model.borrow_mut();
        for record in self.elim_stack.iter().rev() {
            let mut forced = None;
            'clauses: for clause in &record.clauses {
                let mut my_lit = None;
                for &l in clause {
                    if l.var() == record.var {
                        my_lit = Some(l);
                        continue;
                    }
                    if model[l.var().index()].to_bool() == Some(l.polarity()) {
                        continue 'clauses; // satisfied without the variable
                    }
                }
                // Only this record's variable can satisfy the clause; the
                // resolvent closure guarantees no other stored clause forces
                // the opposite polarity.
                forced = my_lit.map(|l| l.polarity());
                break;
            }
            model[record.var.index()] = LBool::from_bool(forced.unwrap_or(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SolveResult, SolverConfig};
    use super::*;

    /// A small linear congruential generator, so the cases are reproducible.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n
        }
    }

    /// A random CNF instance with a random frozen interface.
    struct Case {
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        frozen: Vec<Var>,
    }

    fn random_case(rng: &mut Rng) -> Case {
        let num_vars = 6 + rng.below(10);
        let clauses = (0..8 + rng.below(24))
            .map(|_| {
                (0..2 + rng.below(2))
                    .map(|_| Lit::new(Var::from_index(rng.below(num_vars)), rng.below(2) == 0))
                    .collect()
            })
            .collect();
        let frozen = (0..num_vars)
            .filter(|_| rng.below(4) == 0)
            .map(Var::from_index)
            .collect();
        Case {
            num_vars,
            clauses,
            frozen,
        }
    }

    /// A solver over `case` whose elimination fires at every `simplify`
    /// (a SatELite-style growth allowance on small instances).
    fn build(case: &Case) -> Solver {
        let mut solver = Solver::with_config(SolverConfig {
            elim_vars: true,
            elim_grow: 4,
            ..SolverConfig::default()
        });
        solver.ensure_vars(case.num_vars);
        for &var in &case.frozen {
            solver.set_frozen(var, true);
        }
        for clause in &case.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// The search's assignment and the elimination stack at a SAT answer,
    /// extended eagerly by a reference walk independent of the solver's.
    fn eager_reference(solver: &Solver) -> Vec<Option<bool>> {
        let mut model = solver.model.borrow().clone();
        for record in solver.elim_stack.iter().rev() {
            let unsatisfied = record.clauses.iter().find(|clause| {
                !clause.iter().any(|&l| {
                    l.var() != record.var && model[l.var().index()].to_bool() == Some(l.polarity())
                })
            });
            let polarity = unsatisfied
                .and_then(|clause| clause.iter().find(|l| l.var() == record.var))
                .is_some_and(|l| l.polarity());
            model[record.var.index()] = LBool::from_bool(polarity);
        }
        model.iter().map(|v| v.to_bool()).collect()
    }

    fn reads(solver: &Solver, num_vars: usize) -> Vec<Option<bool>> {
        (0..num_vars)
            .map(|i| solver.var_value(Var::from_index(i)))
            .collect()
    }

    /// Eliminates, solves, and returns the solver with its eager reference
    /// when the answer is SAT over a non-empty elimination stack.
    fn deferred_answer(case: &Case) -> Option<(Solver, Vec<Option<bool>>)> {
        let mut solver = build(case);
        solver.simplify();
        if solver.solve() != SolveResult::Sat || solver.elim_stack.is_empty() {
            return None;
        }
        assert!(solver.model_pending.get(), "SAT over eliminations defers");
        let reference = eager_reference(&solver);
        Some((solver, reference))
    }

    #[test]
    fn reads_equal_an_eager_extension_of_the_same_snapshot() {
        let mut rng = Rng(0x2207);
        let mut deferred = 0;
        for round in 0..80 {
            let case = random_case(&mut rng);
            let Some((solver, reference)) = deferred_answer(&case) else {
                continue;
            };
            deferred += 1;
            // Read in a random order: the first eliminated variable read
            // completes the model, whichever it is.
            let mut order: Vec<usize> = (0..case.num_vars).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            for i in order {
                let var = Var::from_index(i);
                assert_eq!(
                    solver.var_value(var),
                    reference[i],
                    "round {round}: {var:?}"
                );
                assert_eq!(
                    solver.value(Lit::positive(var)),
                    reference[i],
                    "round {round}: {var:?}"
                );
            }
            assert_eq!(solver.reconstruction_walks.get(), 1, "round {round}");
            for clause in &case.clauses {
                assert!(
                    clause.iter().any(|&l| solver.value(l) == Some(true)),
                    "round {round}: the model violates {clause:?}"
                );
            }
        }
        assert!(deferred >= 20, "only {deferred} rounds deferred a model");
    }

    #[test]
    fn stack_changes_keep_the_values_of_a_pending_model() {
        let mut rng = Rng(0x5eed);
        let (mut grew, mut resurrected, mut added) = (0, 0, 0);
        for round in 0..120 {
            let case = random_case(&mut rng);
            let Some((mut solver, reference)) = deferred_answer(&case) else {
                continue;
            };
            // The same answer read at once, before any stack change.
            let (eager, _) = deferred_answer(&case).expect("deterministic");
            let before = reads(&eager, case.num_vars);
            assert_eq!(before, reference, "round {round}");

            let eliminated: Vec<Var> = (0..case.num_vars)
                .map(Var::from_index)
                .filter(|&v| solver.is_eliminated(v))
                .collect();
            let victim = eliminated[rng.below(eliminated.len())];
            match round % 3 {
                0 => {
                    // Unfreeze the interface: the next simplify may
                    // eliminate more variables.
                    let previously = solver.stats().vars_eliminated;
                    for &var in &case.frozen {
                        solver.set_frozen(var, false);
                    }
                    solver.simplify();
                    if solver.stats().vars_eliminated > previously {
                        grew += 1;
                    }
                }
                1 => {
                    solver.set_frozen(victim, true);
                    resurrected += 1;
                }
                _ => {
                    // A tautology over the victim changes no answer but
                    // still resurrects it.
                    solver.add_clause([Lit::positive(victim), Lit::negative(victim)]);
                    added += 1;
                }
            }
            assert_eq!(reads(&solver, case.num_vars), before, "round {round}");
        }
        assert!(
            grew > 0 && resurrected > 0 && added > 0,
            "{grew} {resurrected} {added}"
        );
    }

    #[test]
    fn a_record_pushed_after_the_answer_is_not_walked() {
        // (x | a) (a | b) (y | b) with a, b, x frozen and every variable
        // preferring `true`: y is eliminated, and the search answers
        // x = a = b = true.  Thawed, x is pure and is eliminated with the
        // record {(x | a)}, which a walk would answer with x = false (a
        // satisfies the clause).  The answer was found with x in the
        // formula, so x must still read true.
        let [a, b, x, y] = [0, 1, 2, 3].map(Var::from_index);
        let mut solver = Solver::new();
        solver.ensure_vars(4);
        for var in [a, b, x, y] {
            solver.set_phase(Lit::positive(var));
        }
        for var in [a, b, x] {
            solver.set_frozen(var, true);
        }
        for (p, q) in [(x, a), (a, b), (y, b)] {
            solver.add_clause([Lit::positive(p), Lit::positive(q)]);
        }
        solver.simplify();
        assert!(solver.is_eliminated(y));
        assert_eq!(solver.solve(), SolveResult::Sat);
        solver.set_frozen(x, false);
        solver.simplify();
        assert!(solver.is_eliminated(x));
        assert_eq!(solver.reconstruction_walks.get(), 1, "the push walks first");
        assert_eq!(solver.var_value(x), Some(true));
        assert_eq!(solver.var_value(y), Some(false));
    }

    #[test]
    fn frozen_reads_run_no_reconstruction_walk() {
        let mut rng = Rng(0xf00d);
        let mut checked = 0;
        for round in 0..80 {
            let case = random_case(&mut rng);
            let Some((mut solver, reference)) = deferred_answer(&case) else {
                continue;
            };
            checked += 1;
            for &var in &case.frozen {
                assert!(!solver.is_eliminated(var));
                assert_eq!(solver.var_value(var), reference[var.index()]);
            }
            assert_eq!(solver.reconstruction_walks.get(), 0, "round {round}");
            assert!(solver.model_pending.get());

            // The first eliminated read walks once; later reads reuse it.
            let eliminated = (0..case.num_vars)
                .map(Var::from_index)
                .find(|&v| solver.is_eliminated(v))
                .expect("non-empty stack");
            assert_eq!(solver.var_value(eliminated), reference[eliminated.index()]);
            assert_eq!(solver.var_value(eliminated), reference[eliminated.index()]);
            assert_eq!(solver.reconstruction_walks.get(), 1, "round {round}");

            // A SAT answer over an empty stack never walks.
            for var in (0..case.num_vars).map(Var::from_index) {
                solver.set_frozen(var, true);
            }
            if solver.solve() == SolveResult::Sat {
                assert!(solver.elim_stack.is_empty());
                assert!(!solver.model_pending.get());
                let _ = reads(&solver, case.num_vars);
                assert_eq!(solver.reconstruction_walks.get(), 1, "round {round}");
            }
        }
        assert!(checked >= 20, "only {checked} rounds deferred a model");
    }
}
