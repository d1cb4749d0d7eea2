//! The incremental attack session: three persistent solvers plus cached
//! circuit encodings shared by every attack stage.
//!
//! Every attack in this crate used to allocate a fresh [`sat::Solver`] and
//! re-encode the locked netlist for each query.  Modern CDCL solvers win
//! precisely by keeping learnt clauses, variable activities and saved phases
//! alive across related queries, so [`AttackSession`] centralises all SAT
//! interaction behind persistent solvers: the *DIP solver* holds the
//! two-copy DIP machinery, the *key solver* holds the key-confirmation
//! candidate formula (`Kϕ`, ϕ and `Kϕ`'s I/O constraints), and the *cone
//! solver* holds the cone machinery.  The key and cone solvers are created
//! on first use with the DIP solver's configuration.  They are kept apart
//! because a SAT answer assigns every variable of its solver: in one solver,
//! every candidate-key query would also decide both circuit copies, every
//! confirmation solve of a long-lived session the cone variables, and every
//! analysis solve the DIP variables.
//!
//! * **DIP machinery** — the two shared-input circuit copies of the SAT
//!   attack are encoded **once**; the "outputs differ" constraint lives in an
//!   activation frame so it can be switched off (for key extraction) or
//!   retired without losing learnt clauses.  Each observed I/O pair is added
//!   by encoding only the key cone over one simulation of the key-free
//!   logic, so the distinguishing-input loop performs **zero solver
//!   allocations**.
//! * **Observation log** — a session serves **one oracle**: every oracle
//!   pair it is shown ([`AttackSession::observe`], called by the SAT attack
//!   and by key confirmation) is a fact about the target and is kept for the
//!   session's life, as a permanent `K2` constraint in the DIP solver and a
//!   permanent `Kϕ` constraint in the key solver (replayed into the key
//!   solver when it is created).  A later confirmation on the session starts
//!   from everything earlier runs learned about the oracle, so re-confirming
//!   a settled shortlist makes no oracle query.  Showing one session two
//!   different oracles makes every later answer meaningless.
//! * **Cone machinery** — the functional analyses (unateness, sliding
//!   window, distance-2h) and the equivalence check all operate on candidate
//!   cones over two input spaces `X1`/`X2`.  The session memoizes cone
//!   encodings across queries (overlapping cones are encoded once, via
//!   [`netlist::cnf::IncrementalEncoder`]), plus one global per-position
//!   difference vector and memoized "distance = k" literals per set of
//!   positions: an AND of equalities for k = 0, a popcount network over the
//!   set's differences for k > 0.  All analysis
//!   queries are pure assumption queries: after the shared structure exists,
//!   a cofactor or HD-pair check adds no clauses at all.
//! * **Predicate generations** — a key-confirmation predicate ϕ lives in a
//!   retireable *generation* ([`AttackSession::begin_predicate`] /
//!   [`AttackSession::retire_predicate`]), a frame of the key solver that
//!   holds ϕ and nothing else; oracle answers never enter it.  Retiring a
//!   generation detaches ϕ while the circuit encodings, the observation log
//!   and every frame-independent learnt clause stay: one long-lived session
//!   can confirm an unbounded sequence of predicates — this is what lets the
//!   region search keep **one session per worker** instead of one per
//!   key-space region.  A contradictory ϕ poisons only its own frame, so the
//!   session survives to take the next one.
//! * **Stripper verdicts** — what the functional analyses, the cube
//!   proposal by simulation and the equivalence check have settled about a
//!   candidate node at one `h` (`StripperVerdict`).  A complete analysis
//!   consults the verdict before its SAT stage and the equivalence check
//!   before its miter solve, so a candidate whose cube was already proved
//!   or refuted costs the next analysis no solve at all.  A
//!   `Stripper` verdict comes from an equivalence UNSAT or from the
//!   candidate's whole truth table (`functional::propose` enumerates
//!   supports of up to 12 inputs); a `NotStripper` verdict from a refuted
//!   suspect, from a complete analysis's decided ⊥, or from a simulated
//!   counterexample to every `strip_h` (`functional::propose`).  Verdicts
//!   are facts about the netlist, not about any frame, so they outlive
//!   every predicate generation.
//!   The decided SAT-stage answer of each analysis on each candidate at
//!   each `h` is kept too, so a second attack pass on the session solves
//!   nothing.
//! * **Prefilter cache** — the word-parallel prefilters' sweeps depend only
//!   on the netlist and a fixed seed, never on the candidate, so the session
//!   runs each of them once, over the candidates' fan-in cones only, and
//!   every later candidate reads the result (see `functional::prefilter`).
//! * **Structural cache** — every node's support (one
//!   [`netlist::analysis::SupportTable`] sweep), the comparators and the
//!   candidate nodes are facts about the netlist alone, computed on first
//!   use; the analyses and the equivalence check read supports from the
//!   table instead of walking fanin cones.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use locking::Key;
use netlist::analysis::SupportTable;
use netlist::cnf::{
    encode_and, encode_any_difference, encode_key_cone, encode_xor2, popcount_lits,
    IncrementalEncoder, KeyCone, PinBinding, Signal,
};
use netlist::{Netlist, NodeId, DEFAULT_WIDE_WORDS};
use sat::{FrameId, Lit, SolveResult, Solver, SolverStats};

use crate::encode::{
    assumptions_for, instantiate, instantiate_sharing_inputs, model_key, model_values, CircuitCopy,
};
use crate::functional::{Analysis, CubeAssignment, Prefilter, PrefilterStats};
use crate::structural::{candidates_over, comparators_over, CandidateNodes, Comparator};

/// The flight-recorder phase name of a solver maintenance checkpoint.
fn checkpoint_phase(checkpoint: sat::Checkpoint) -> &'static str {
    match checkpoint {
        sat::Checkpoint::Gc => "sat_gc",
        sat::Checkpoint::ReduceDb => "sat_reduce_db",
        sat::Checkpoint::Simplify => "sat_simplify",
        sat::Checkpoint::Eliminate => "sat_eliminate",
        sat::Checkpoint::Restart => "sat_restart",
    }
}

/// Forwards a solver's maintenance checkpoints (GC, reduction,
/// simplification, elimination, restarts) into the flight recorder.
/// `record_duration` is a no-op while tracing is disabled, and the solver
/// never reads a clock for search decisions, so the hook is
/// trajectory-neutral either way.
fn checkpoint_hook() -> Box<dyn FnMut(sat::Checkpoint, std::time::Duration) + Send> {
    Box::new(|checkpoint, duration| {
        crate::trace::record_duration(checkpoint_phase(checkpoint), duration);
    })
}

/// Marks literals as solver interface: the session references them across
/// [`Solver::simplify`] checkpoints (models, assumptions, new clauses), so
/// bounded variable elimination must never resolve them out.
fn freeze_all(solver: &mut Solver, lits: &[Lit]) {
    for lit in lits {
        solver.set_frozen(lit.var(), true);
    }
}

/// Encodes the I/O pair `C(x, keys, outputs)` into `solver`'s current
/// default frame: only the key-dependent `cone` is encoded, over the
/// key-free `node_values` of one simulation of `x`.  An output that is
/// key-independent and contradicts the observation adds the (frame-scoped)
/// empty clause.
fn encode_io(
    netlist: &Netlist,
    solver: &mut Solver,
    cone: &KeyCone,
    keys: &[Lit],
    node_values: &[bool],
    outputs: &[bool],
) {
    let signals = encode_key_cone(netlist, solver, cone, node_values, keys);
    assert_eq!(signals.len(), outputs.len(), "output width mismatch");
    for (signal, &want) in signals.iter().zip(outputs) {
        match signal {
            Signal::Const(have) if *have == want => {}
            Signal::Const(_) => {
                // No key can reproduce the observation.
                solver.add_clause([]);
                break;
            }
            Signal::Lit(l) => solver.add_clause([if want { *l } else { !*l }]),
        }
    }
}

/// Reclaims retired and root-satisfied clauses once the clause count has
/// doubled since the last simplification (and passed 2 000).
fn maybe_simplify(solver: &mut Solver, clauses_at_last_simplify: &mut usize) {
    let n = solver.num_clauses();
    if n > 2_000 && n > 2 * *clauses_at_last_simplify {
        solver.simplify();
        *clauses_at_last_simplify = solver.num_clauses();
    }
}

/// What a session has settled about whether one candidate node computes
/// the cube stripping function `strip_h(k)(X) = (HD(X, k) == h)` for some
/// cube `k`, at one `h`.
///
/// A verdict is recorded only when `2h != m` (`m` = the candidate's support
/// size): then `strip_h(k)` determines `k`, so "the candidate is `strip_h`
/// of *this* cube" rules out every other cube.  At `2h == m` a cube and its
/// complement give the same function and nothing is recorded.  No verdict
/// is ever drawn from a [`SolveResult::Unknown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum StripperVerdict {
    /// A complete analysis (one that returns exactly `k` on a true
    /// `strip_h(k)`, see [`crate::functional::Analysis::is_complete`])
    /// returned this cube, or `functional::propose` proposed it from a
    /// witness and its flips (which also recovers exactly `k` on a true
    /// `strip_h(k)`): the candidate is `strip_h` of this cube or of none.
    Suspect(CubeAssignment),
    /// The candidate computes `strip_h` of this cube: the equivalence check
    /// proved it (an UNSAT), or `functional::propose` read it off the
    /// candidate's complete truth table over a support of at most 12
    /// inputs.
    Stripper(CubeAssignment),
    /// The candidate is `strip_h` of no cube: the equivalence check refuted
    /// the [`StripperVerdict::Suspect`] cube, a complete analysis's SAT
    /// stage decided ⊥, or simulation found an exact counterexample (an
    /// on-set that is no radius-`h` sphere, see `functional::propose`).
    NotStripper,
}

/// The two shared-input circuit copies plus the scoped difference constraint.
struct DipParts {
    inputs: Vec<Lit>,
    key_a: Vec<Lit>,
    key_b: Vec<Lit>,
    /// Literal asserting "the two output vectors differ".
    diff_lit: Lit,
    /// Frame scoping the difference constraint; re-armed after retirement so
    /// a session stays usable for further DIP queries.
    diff_frame: FrameId,
    /// Frame scoping the I/O constraints on `K1`.  The SAT attack's queries
    /// activate it; the key-confirmation `Q` query must not — there `K1` is
    /// pinned to an unvetted candidate, and a leftover I/O clause would turn
    /// "candidate contradicts old observations" into a spurious Unsat, i.e.
    /// a wrong key reported as confirmed.
    io_a_frame: FrameId,
}

/// The key solver: `Kϕ`, every observation as a permanent constraint on it,
/// and the generations' ϕ frames.
struct KeyParts {
    solver: Solver,
    keys: Vec<Lit>,
    clauses_at_last_simplify: usize,
}

/// One predicate generation: the retireable scope of a confirmation run.
///
/// ϕ lands in this key-solver frame, so [`AttackSession::retire_predicate`]
/// detaches it in O(1) and [`sat::Solver::simplify`] reclaims the clauses,
/// while the permanent machinery (circuit copies, `Kϕ`, observations, cone
/// encodings) and every frame-independent learnt clause survive into the
/// next generation.
struct PredicateGeneration {
    /// Key-solver scope of ϕ.
    phi_frame: FrameId,
}

/// Dual cone-analysis input spaces with the shared difference vector and
/// Hamming-distance references, and the solver that holds them.
struct ConeParts {
    /// The cone solver (see the [module documentation](self) for why it is
    /// not the DIP solver).
    solver: Solver,
    enc1: IncrementalEncoder,
    enc2: IncrementalEncoder,
    /// `diff[i] = X1_i XOR X2_i`, built lazily per input position.
    diff: Vec<Option<Lit>>,
    /// `HD == k` references, keyed by their ascending input positions: the
    /// all-inputs set serves the pair analyses, a candidate's support its
    /// equivalence check.
    hd: HashMap<Vec<usize>, HdReference>,
    /// Memoized XOR miters keyed by normalised literal pair.
    miters: BTreeMap<(Lit, Lit), Lit>,
    /// A literal fixed to false, for degenerate constant queries.
    const_false: Option<Lit>,
}

/// The `HD(X1, X2) == k` literals over one set of input positions.
#[derive(Default)]
struct HdReference {
    /// Binary-counter sum over the set's input differences, built on the
    /// first `k > 0` query (`k == 0` needs no counter).
    popcount: Option<Vec<Lit>>,
    /// Memoized `HD == k` literals.
    equals: BTreeMap<usize, Lit>,
}

/// The DIP, key and cone solvers and their cached encodings for a whole
/// attack run, or for the life of a service worker.
///
/// See the [module documentation](self) for the design; see
/// [`crate::sat_attack::sat_attack`], [`mod@crate::key_confirmation`],
/// [`crate::equivalence`] and [`crate::functional`] for the attacks that run
/// through it.
pub struct AttackSession<'n> {
    netlist: &'n Netlist,
    /// The DIP solver: the SAT attack and key confirmation's `Q` query.
    solver: Solver,
    dip: Option<DipParts>,
    /// The key solver (key confirmation's `P` query), created on first use.
    keys: Option<KeyParts>,
    /// Every oracle pair shown to the session: each input pattern, once,
    /// with its arrival position and output pattern.  A new key solver
    /// replays them in arrival order.
    observations: HashMap<Vec<bool>, (usize, Vec<bool>)>,
    /// The cone machinery and its own solver, created on first use.
    cones: Option<ConeParts>,
    /// The interrupt flag installed on the session, for a key or cone solver
    /// created after it was set.
    interrupt: Option<Arc<AtomicBool>>,
    /// Key-dependent node set, computed once on the first I/O constraint and
    /// reused by every later one.
    key_cone: Option<KeyCone>,
    /// The active predicate generation, if any.
    generation: Option<PredicateGeneration>,
    /// Number of full circuit encodings this session has built (the two-copy
    /// DIP formula and the dual cone input spaces count one each).
    full_encodings: u64,
    clauses_at_last_simplify: usize,
    /// The functional stage's simulation cache (prefilter sweeps, support
    /// enumeration) and counters, allocated on first use
    /// ([`AttackSession::prefilter`]).
    prefilter: Option<Prefilter<'n>>,
    /// Stripper verdicts keyed by `(candidate, h)`.
    verdicts: BTreeMap<(NodeId, usize), StripperVerdict>,
    /// Decided SAT-stage answers of the analyses, keyed by
    /// `(candidate, h, analysis)` ([`AttackSession::settle_cube`]).
    answers: BTreeMap<(NodeId, usize, Analysis), Option<CubeAssignment>>,
    /// Cone queries that came back [`SolveResult::Unknown`] so far.
    cone_unknowns: u64,
    /// What the structural stages derive from the netlist alone, built on
    /// first use: every node's support, the comparators, the candidates.
    supports: Option<SupportTable>,
    comparators: Option<Vec<Comparator>>,
    candidates: Option<CandidateNodes>,
}

impl<'n> AttackSession<'n> {
    /// Creates an empty session for a locked netlist.  Nothing is encoded
    /// until the first query arrives.
    pub fn new(netlist: &'n Netlist) -> AttackSession<'n> {
        let mut solver = Solver::new();
        solver.set_checkpoint_hook(Some(checkpoint_hook()));
        AttackSession {
            netlist,
            solver,
            dip: None,
            keys: None,
            observations: HashMap::new(),
            cones: None,
            interrupt: None,
            key_cone: None,
            generation: None,
            full_encodings: 0,
            clauses_at_last_simplify: 0,
            prefilter: None,
            verdicts: BTreeMap::new(),
            answers: BTreeMap::new(),
            cone_unknowns: 0,
            supports: None,
            comparators: None,
            candidates: None,
        }
    }

    /// Eagerly builds the session's permanent DIP machinery: the two-copy
    /// circuit encoding and the key-dependent node set.
    ///
    /// Everything is built lazily on first use anyway; priming exists so a
    /// worker can pay the one-off encoding cost at a deterministic point
    /// (thread start) before pulling work from a queue — which also makes the
    /// [`AttackSession::cone_encodings_built`] counter deterministic for the
    /// benchmark-regression gate.
    pub fn prime(&mut self) {
        self.ensure_dip();
        if self.key_cone.is_none() {
            self.key_cone = Some(KeyCone::of(self.netlist));
        }
    }

    /// Number of full circuit encodings this session has performed: at most
    /// one two-copy DIP encoding plus one dual cone-space encoding per
    /// session, however many queries or predicate generations ran through it.
    pub fn cone_encodings_built(&self) -> u64 {
        self.full_encodings
    }

    /// Installs (or clears) a shared interrupt flag on every solver.
    ///
    /// While the flag reads `true`, every SAT query returns
    /// [`SolveResult::Unknown`] at its next check point, which the attack
    /// loops surface as an unfinished (`completed: false`) result.  It is
    /// the only way to stop an attack early: the parallel engine raises it
    /// the moment one worker confirms a key, and budgeted callers (serve job
    /// deadlines, the benchmark runner) raise it from their own clock.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        if let Some(cones) = &mut self.cones {
            cones.solver.set_interrupt(flag.clone());
        }
        if let Some(keys) = &mut self.keys {
            keys.solver.set_interrupt(flag.clone());
        }
        self.solver.set_interrupt(flag.clone());
        self.interrupt = flag;
    }

    /// Returns `true` once the installed interrupt flag has fired.
    pub(crate) fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The netlist this session attacks.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Work counters of all three solvers ([`SolverStats::absorb`]),
    /// including the clause-arena footprint
    /// (`arena_bytes`/`wasted_bytes`/`gc_runs`) and the number of
    /// per-generation Tseitin variables reclaimed so far (`recycled_vars`).
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.solver.stats();
        if let Some(keys) = &self.keys {
            stats.absorb(&keys.solver.stats());
        }
        if let Some(cones) = &self.cones {
            stats.absorb(&cones.solver.stats());
        }
        stats
    }

    /// The session's prefilter cache ([`DEFAULT_WIDE_WORDS`] words per
    /// sweep, allocated on first use): every sweep it runs serves every
    /// later candidate, because the netlist and the seeded stimuli are
    /// fixed for the session's lifetime.  Its simulations evaluate only the
    /// fan-in cones of the session's [`AttackSession::candidates`] (and of
    /// any other node a query asks about).
    pub(crate) fn prefilter(&mut self) -> &mut Prefilter<'n> {
        if self.prefilter.is_none() {
            let netlist = self.netlist;
            let prefilter =
                Prefilter::new(netlist, DEFAULT_WIDE_WORDS, &self.candidates().candidates);
            self.prefilter = Some(prefilter);
        }
        self.prefilter.as_mut().expect("just built")
    }

    /// Prefilter decision counters accumulated by every analysis that ran
    /// through this session; `sweeps` and `patterns_simulated` count the
    /// sweeps the session actually ran.
    pub fn prefilter_stats(&self) -> PrefilterStats {
        self.prefilter
            .as_ref()
            .map(Prefilter::stats)
            .unwrap_or_default()
    }

    /// The support of every node, computed in one sweep on first use.
    pub(crate) fn supports(&mut self) -> &SupportTable {
        let netlist = self.netlist;
        self.supports
            .get_or_insert_with(|| SupportTable::new(netlist))
    }

    /// The primary-input positions (ascending) of `node`'s support, or
    /// `None` when the node depends on a key input or on no input at all —
    /// no cube stripper does either.
    pub(crate) fn primary_support(&mut self, node: NodeId) -> Option<Vec<usize>> {
        let supports = self.supports();
        if supports.has_keys(node) {
            return None;
        }
        let positions: Vec<usize> = supports.primary_positions(node).collect();
        (!positions.is_empty()).then_some(positions)
    }

    /// The comparators of the netlist (§ III-A), found on first use.
    pub(crate) fn comparators(&mut self) -> &[Comparator] {
        if self.comparators.is_none() {
            let netlist = self.netlist;
            self.comparators = Some(comparators_over(netlist, self.supports()));
        }
        self.comparators.as_deref().expect("just built")
    }

    /// The candidate cube-stripper nodes of the netlist (§ III-B), matched
    /// on first use.
    pub(crate) fn candidates(&mut self) -> &CandidateNodes {
        if self.candidates.is_none() {
            self.comparators();
            let supports = self.supports.as_ref().expect("built with the comparators");
            let comparators = self.comparators.as_deref().expect("just built");
            self.candidates = Some(candidates_over(self.netlist, supports, comparators));
        }
        self.candidates.as_ref().expect("just built")
    }

    /// Number of DIP-solver variables this session has allocated.  Bounded across
    /// predicate generations: retirement releases a generation's Tseitin
    /// variables back to the solver's free list, so generation `n + 1` reuses
    /// the variables of generation `n` instead of growing the space.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Direct access to the DIP solver, for callers that add their own
    /// **permanent** clauses.  Clauses must only be added between queries (at
    /// decision level 0).  Replacing it before the first key or cone query
    /// also configures the key and cone solvers, which copy its
    /// configuration when they are created.
    ///
    /// A key-confirmation predicate ϕ does not go here: it constrains the
    /// key solver's `Kϕ`, through [`AttackSession::add_predicate_clauses`].
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Model value of a cone-solver literal after a successful
    /// [`AttackSession::check_cone_property`] query.  DIP models are read
    /// through [`AttackSession::dip_inputs`] and the key extractors.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.cones.as_ref()?.solver.value(lit)
    }

    // ------------------------------------------------------------------
    // DIP machinery (SAT attack and key confirmation).
    // ------------------------------------------------------------------

    fn ensure_dip(&mut self) {
        if self.dip.is_some() {
            return;
        }
        self.full_encodings += 1;
        let copy_a: CircuitCopy = instantiate(self.netlist, &mut self.solver);
        let copy_b = instantiate_sharing_inputs(self.netlist, &mut self.solver, &copy_a.inputs);
        let diff = encode_any_difference(&mut self.solver, &copy_a.outputs, &copy_b.outputs);
        // The session's permanent interface: inputs and both key copies are
        // read from models and constrained by every later I/O pair, and the
        // difference literal is re-armed after each extract_key.
        freeze_all(&mut self.solver, &copy_a.inputs);
        freeze_all(&mut self.solver, &copy_a.keys);
        freeze_all(&mut self.solver, &copy_b.keys);
        freeze_all(&mut self.solver, &[diff]);
        let diff_frame = self.solver.push_frame();
        self.solver.add_clause_in(diff_frame, [diff]);
        let io_a_frame = self.solver.push_frame();
        self.dip = Some(DipParts {
            inputs: copy_a.inputs,
            key_a: copy_a.keys,
            key_b: copy_b.keys,
            diff_lit: diff,
            diff_frame,
            io_a_frame,
        });
    }

    /// The frame holding the difference constraint, re-arming it in a fresh
    /// frame if a previous [`AttackSession::extract_key`] retired it.
    fn diff_frame(&mut self) -> FrameId {
        let dip = self.dip.as_ref().expect("ensured by caller");
        if !self.solver.frame_retired(dip.diff_frame) {
            return dip.diff_frame;
        }
        let diff = dip.diff_lit;
        let frame = self.solver.push_frame();
        self.solver.add_clause_in(frame, [diff]);
        self.dip.as_mut().expect("ensured by caller").diff_frame = frame;
        frame
    }

    /// A solver with the DIP solver's search parameters (including what
    /// adaptive strategy switching retuned), checkpoint hook and interrupt
    /// flag, for the key and cone solvers.
    fn sibling_solver(&self) -> Solver {
        let mut solver = self.solver.sibling();
        solver.set_checkpoint_hook(Some(checkpoint_hook()));
        solver.set_interrupt(self.interrupt.clone());
        solver
    }

    /// The key solver, creating it on first use with every observation so
    /// far replayed as a permanent constraint on `Kϕ`.
    fn key_parts(&mut self) -> &mut KeyParts {
        if self.keys.is_none() {
            let mut solver = self.sibling_solver();
            let keys: Vec<Lit> = (0..self.netlist.num_key_inputs())
                .map(|_| Lit::positive(solver.new_var()))
                .collect();
            // Every observation and generation constrains them.
            freeze_all(&mut solver, &keys);
            let observations = std::mem::take(&mut self.observations);
            let mut arrivals: Vec<_> = observations.iter().collect();
            arrivals.sort_unstable_by_key(|(_, (position, _))| *position);
            for (inputs, (_, outputs)) in arrivals {
                let node_values = self.simulate_key_free(inputs);
                let cone = self.key_cone.as_ref().expect("built by the simulation");
                encode_io(
                    self.netlist,
                    &mut solver,
                    cone,
                    &keys,
                    &node_values,
                    outputs,
                );
            }
            self.observations = observations;
            self.keys = Some(KeyParts {
                clauses_at_last_simplify: solver.num_clauses(),
                solver,
                keys,
            });
        }
        self.keys.as_mut().expect("just built")
    }

    /// Opens a predicate generation and returns the `Kϕ` key vector it
    /// constrains.
    ///
    /// `Kϕ` lives in the key solver, where every observation
    /// ([`AttackSession::observe`]) already constrains it.  The generation
    /// adds ϕ ([`AttackSession::add_predicate_clauses`]), which
    /// [`AttackSession::retire_predicate`] detaches, after which the session
    /// is clean for the next predicate; the observations stay.  Every
    /// generation gets the same `Kϕ` literals.
    ///
    /// A session supports one predicate *at a time*: two live predicates
    /// would silently conjoin and could reject a shortlist containing the
    /// correct key.
    ///
    /// # Panics
    ///
    /// Panics if a generation is already active (retire it first).
    pub fn begin_predicate(&mut self) -> Vec<Lit> {
        assert!(
            self.generation.is_none(),
            "a session supports one active key-confirmation predicate; \
             call retire_predicate() before beginning the next one"
        );
        let keys = self.key_parts();
        let phi_frame = keys.solver.push_frame();
        let lits = keys.keys.clone();
        self.generation = Some(PredicateGeneration { phi_frame });
        lits
    }

    /// Concludes the active predicate generation: retires its ϕ frame,
    /// reclaims the key solver's clause database — the retired frame's
    /// clauses become arena tombstones and a garbage collection compacts them
    /// away once enough bytes are wasted — recycles the generation's Tseitin
    /// variables (every variable allocated while the ϕ frame was the default
    /// clause frame returns to the free list), and leaves the session ready
    /// for the next [`AttackSession::begin_predicate`].
    ///
    /// This also recovers from a *poisoned* generation (one whose ϕ no key
    /// satisfies): the contradiction lives in the retired frame, so the
    /// session stays satisfiable — a worker that drew a contradictory region
    /// survives to take the next one.
    ///
    /// A no-op when no generation is active.
    pub fn retire_predicate(&mut self) {
        let Some(generation) = self.generation.take() else {
            return;
        };
        let keys = self.keys.as_mut().expect("created by begin_predicate");
        keys.solver.retire_frame(generation.phi_frame);
        keys.solver.simplify();
        keys.clauses_at_last_simplify = keys.solver.num_clauses();
    }

    /// Returns `true` while a predicate generation is active.
    pub fn has_active_predicate(&self) -> bool {
        self.generation.is_some()
    }

    /// Adds ϕ clauses scoped to the active generation.
    ///
    /// The closure receives the key solver with the generation's ϕ frame
    /// installed as the default clause frame, plus the `Kϕ` literals — so
    /// predicate builders written against the plain [`Solver::add_clause`]
    /// API (shortlist encodings, region pinnings) are scoped without knowing
    /// about frames.  Auxiliary variables the closure allocates (shortlist
    /// selectors and the like) are tagged to the ϕ frame and *recycled* when
    /// the generation retires — do not hold on to them across
    /// [`AttackSession::retire_predicate`]: a later generation's encoding may
    /// reuse the same variable index.
    ///
    /// # Panics
    ///
    /// Panics if no generation is active.
    pub fn add_predicate_clauses<F>(&mut self, add_phi: F)
    where
        F: FnOnce(&mut Solver, &[Lit]),
    {
        let frame = self.phi_frame();
        let keys = self.keys.as_mut().expect("created by begin_predicate");
        keys.solver.set_default_frame(Some(frame));
        add_phi(&mut keys.solver, &keys.keys);
        keys.solver.set_default_frame(None);
    }

    /// The key-solver frame of the active generation's ϕ.
    fn phi_frame(&self) -> FrameId {
        self.generation
            .as_ref()
            .expect("begin_predicate() must be called first")
            .phi_frame
    }

    /// Searches for a distinguishing input: shared inputs `X`, two key
    /// copies, outputs forced to differ.  `K1` is constrained by every pair
    /// [`AttackSession::force_dip`] recorded and `K2` by every observation,
    /// so Unsat means every key consistent with them computes one function.
    pub fn find_dip(&mut self) -> SolveResult {
        self.ensure_dip();
        let diff = self.diff_frame();
        let io_a = self.dip.as_ref().expect("just ensured").io_a_frame;
        let _span = crate::trace::span("solve");
        self.solver.solve_in(&[diff, io_a], &[])
    }

    /// Searches for a distinguishing input with `K1` pinned to a candidate
    /// key (the key-confirmation `Q` query).
    ///
    /// The `K1` I/O constraints a previous SAT-attack run recorded
    /// ([`AttackSession::force_dip`]) stay dormant here: the candidate must
    /// be judged purely against the other key copy's consistency with the
    /// observed pairs, otherwise a candidate contradicting `K1`'s old
    /// observations would be spuriously "confirmed".  Every observation
    /// constrains `K2`, so Unsat means every key consistent with the
    /// oracle's answers so far — the correct key among them — agrees with
    /// the candidate everywhere.
    ///
    /// # Panics
    ///
    /// Panics if the key width does not match the circuit.
    pub fn find_dip_against(&mut self, candidate: &Key) -> SolveResult {
        self.ensure_dip();
        let diff = self.diff_frame();
        let dip = self.dip.as_ref().expect("just ensured");
        let assumptions = assumptions_for(&dip.key_a, candidate.bits());
        // The search for a rival `K2` starts at the candidate itself, so each
        // distinguishing input pits the candidate against a nearby key that
        // is still consistent with the observations.  Only the model found
        // depends on it, never the answer.  On shortlist confirmations over
        // SFLL-HD and TTLock locks it took several times fewer iterations
        // per verdict than phases left over from the previous distinguishing
        // input, and on SFLL-HD region drains too; on TTLock region drains,
        // where each distinguishing input refutes about one key, it took
        // more (ARCHITECTURE.md, "One oracle per session").
        for &lit in &assumptions_for(&dip.key_b, candidate.bits()) {
            self.solver.set_phase(lit);
        }
        let _span = crate::trace::span("solve");
        self.solver.solve_in(&[diff], &assumptions)
    }

    /// The distinguishing input found by the last successful
    /// [`AttackSession::find_dip`]/[`AttackSession::find_dip_against`] call.
    ///
    /// # Panics
    ///
    /// Panics if the last query was not satisfiable.
    pub fn dip_inputs(&self) -> Vec<bool> {
        let dip = self.dip.as_ref().expect("find_dip must be called first");
        model_values(&self.solver, &dip.inputs)
    }

    /// Simulates the key-free portion of the circuit for one input pattern
    /// (key bits are irrelevant outside the key cone) and memoizes the
    /// key-dependent node set on first use.
    fn simulate_key_free(&mut self, inputs: &[bool]) -> Vec<bool> {
        if self.key_cone.is_none() {
            self.key_cone = Some(KeyCone::of(self.netlist));
        }
        let zero_keys = vec![false; self.netlist.num_key_inputs()];
        self.netlist
            .node_values(inputs, &zero_keys)
            .expect("input width mismatch")
    }

    /// Records the oracle pair `(inputs, outputs)` for the session's life:
    /// a permanent constraint `C(inputs, K, outputs)` on `K2` in the DIP
    /// solver and on `Kϕ` in the key solver (replayed when the key solver is
    /// created).  A pattern already observed adds nothing.
    ///
    /// This is the session's oracle contract: every pair observed on one
    /// session must come from one oracle.  An observation no key can
    /// reproduce makes both formulas unsatisfiable for good — the SAT attack
    /// then reports the oracle inconsistent, and every later confirmation
    /// answers ⊥.
    pub fn observe(&mut self, inputs: &[bool], outputs: &[bool]) {
        let _span = crate::trace::span("observe");
        let node_values = self.simulate_key_free(inputs);
        self.observe_presimulated(inputs, &node_values, outputs);
    }

    /// [`AttackSession::observe`] over an existing simulation pass.
    fn observe_presimulated(&mut self, inputs: &[bool], node_values: &[bool], outputs: &[bool]) {
        if let Some((_, known)) = self.observations.get(inputs) {
            debug_assert_eq!(known, outputs, "one session observes one oracle");
            return;
        }
        let position = self.observations.len();
        self.observations
            .insert(inputs.to_vec(), (position, outputs.to_vec()));
        self.ensure_dip();
        let key_b = self.dip.as_ref().expect("just ensured").key_b.clone();
        let cone = self.key_cone.as_ref().expect("built by the simulation");
        encode_io(
            self.netlist,
            &mut self.solver,
            cone,
            &key_b,
            node_values,
            outputs,
        );
        if let Some(keys) = &mut self.keys {
            encode_io(
                self.netlist,
                &mut keys.solver,
                cone,
                &keys.keys,
                node_values,
                outputs,
            );
            maybe_simplify(&mut keys.solver, &mut keys.clauses_at_last_simplify);
        }
        maybe_simplify(&mut self.solver, &mut self.clauses_at_last_simplify);
    }

    /// Number of distinct oracle pairs the session has observed.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Classic SAT-attack bookkeeping: constrains `K1` with the observed I/O
    /// pair in the session-wide `K1` I/O frame (see
    /// [`AttackSession::find_dip_against`] for why it has a frame) and
    /// records it with [`AttackSession::observe`].  The key-free logic is
    /// simulated once and shared by both constraint passes.
    ///
    /// Only the key-dependent cone is encoded
    /// ([`netlist::cnf::encode_key_cone`]); every key-free wire is read from
    /// the simulation.  A key-independent output bit that contradicts the
    /// pair makes both key copies unsatisfiable for good, as
    /// [`AttackSession::observe`] documents.
    pub fn force_dip(&mut self, inputs: &[bool], outputs: &[bool]) {
        let node_values = self.simulate_key_free(inputs);
        self.ensure_dip();
        let dip = self.dip.as_ref().expect("just ensured");
        let (key_a, io_a) = (dip.key_a.clone(), dip.io_a_frame);
        let cone = self.key_cone.as_ref().expect("built by the simulation");
        self.solver.set_default_frame(Some(io_a));
        encode_io(
            self.netlist,
            &mut self.solver,
            cone,
            &key_a,
            &node_values,
            outputs,
        );
        self.solver.set_default_frame(None);
        self.observe_presimulated(inputs, &node_values, outputs);
    }

    /// Solves the key solver (ϕ and every constraint on `Kϕ`) and returns a
    /// candidate key from its model.  The DIP solver is not involved.
    ///
    /// # Panics
    ///
    /// Panics if no predicate generation is active.
    pub fn candidate_key(&mut self) -> (SolveResult, Option<Key>) {
        let phi_frame = self.phi_frame();
        let keys = self.keys.as_mut().expect("created by begin_predicate");
        let _span = crate::trace::span("solve");
        let result = keys.solver.solve_in(&[phi_frame], &[]);
        let key = (result == SolveResult::Sat).then(|| model_key(&keys.solver, &keys.keys));
        (result, key)
    }

    /// Concludes the DIP loop: retires the difference constraint, reclaims
    /// the clause database, and extracts a key from the `K1` model that is
    /// consistent with every pair [`AttackSession::force_dip`] recorded.
    ///
    /// The session remains usable afterwards: the next DIP query transparently
    /// re-arms the difference constraint in a fresh frame.
    ///
    /// Returns `(Unsat, None)` when the accumulated constraints are
    /// contradictory (the oracle does not match the locked circuit).
    pub fn extract_key(&mut self) -> (SolveResult, Option<Key>) {
        self.ensure_dip();
        let dip = self.dip.as_ref().expect("just ensured");
        let (frame, io_a, key_a) = (dip.diff_frame, dip.io_a_frame, dip.key_a.clone());
        if !self.solver.frame_retired(frame) {
            self.solver.retire_frame(frame);
            self.solver.simplify();
        }
        let _span = crate::trace::span("solve");
        let result = self.solver.solve_in(&[io_a], &[]);
        let key = (result == SolveResult::Sat).then(|| model_key(&self.solver, &key_a));
        (result, key)
    }

    // ------------------------------------------------------------------
    // Cone machinery (functional analyses and equivalence checking).
    // ------------------------------------------------------------------

    /// The cone machinery, creating it and its solver on first use.  The
    /// cone solver copies the DIP solver's configuration and takes the same
    /// checkpoint hook and interrupt flag.
    fn cones(&mut self) -> &mut ConeParts {
        if self.cones.is_none() {
            self.full_encodings += 1;
            let mut solver = self.sibling_solver();
            let enc1 = IncrementalEncoder::new(self.netlist, &mut solver, &PinBinding::default());
            // The second input space is fresh; the key space is shared with
            // the first copy (analysis candidates never depend on key inputs,
            // but a shared binding keeps cone pairs aligned if they ever do).
            let enc2 = IncrementalEncoder::new(
                self.netlist,
                &mut solver,
                &PinBinding {
                    inputs: None,
                    keys: Some(enc1.keys().to_vec()),
                },
            );
            // Input and key pins of both spaces are referenced by every later
            // analysis query; the internal cone-node literals are *not*
            // frozen — elimination may chew through them, and a later
            // re-reference pays a transparent resurrection instead.
            freeze_all(&mut solver, enc1.inputs());
            freeze_all(&mut solver, enc2.inputs());
            freeze_all(&mut solver, enc1.keys());
            self.cones = Some(ConeParts {
                solver,
                enc1,
                enc2,
                diff: vec![None; self.netlist.num_inputs()],
                hd: HashMap::new(),
                miters: BTreeMap::new(),
                const_false: None,
            });
        }
        self.cones.as_mut().expect("just built")
    }

    /// Encodes (memoized) the candidate cone in the first input space and
    /// returns its root literal.
    pub fn cone_lit(&mut self, root: NodeId) -> Lit {
        let netlist = self.netlist;
        let cones = self.cones();
        let lit = cones.enc1.encode_cone(netlist, &mut cones.solver, root);
        // Root literals escape to callers (assumptions, miters); freeze them.
        cones.solver.set_frozen(lit.var(), true);
        lit
    }

    /// Encodes (memoized) the candidate cone in both input spaces and
    /// returns the two root literals.
    pub fn cone_pair(&mut self, root: NodeId) -> (Lit, Lit) {
        let netlist = self.netlist;
        let cones = self.cones();
        let l1 = cones.enc1.encode_cone(netlist, &mut cones.solver, root);
        let l2 = cones.enc2.encode_cone(netlist, &mut cones.solver, root);
        cones.solver.set_frozen(l1.var(), true);
        cones.solver.set_frozen(l2.var(), true);
        (l1, l2)
    }

    /// The literals of primary input `position` in the two input spaces.
    pub fn input_pair(&mut self, position: usize) -> (Lit, Lit) {
        let cones = self.cones();
        (cones.enc1.inputs()[position], cones.enc2.inputs()[position])
    }

    /// A literal equivalent to `X1[position] XOR X2[position]` (memoized).
    pub fn input_diff(&mut self, position: usize) -> Lit {
        let cones = self.cones();
        if let Some(lit) = cones.diff[position] {
            return lit;
        }
        let a = cones.enc1.inputs()[position];
        let b = cones.enc2.inputs()[position];
        let lit = encode_xor2(&mut cones.solver, a, b);
        cones.solver.set_frozen(lit.var(), true);
        cones.diff[position] = Some(lit);
        lit
    }

    /// A literal equivalent to `X1[position] == X2[position]` (memoized).
    pub fn input_eq(&mut self, position: usize) -> Lit {
        !self.input_diff(position)
    }

    /// A literal equivalent to `HD(X1, X2) == k` over **all** primary input
    /// positions: [`AttackSession::hd_equals_over`] of every position.
    ///
    /// Callers restrict the distance to a support set by assuming
    /// [`AttackSession::input_eq`] for every position outside it.
    pub fn hd_equals(&mut self, k: usize) -> Lit {
        let positions: Vec<usize> = (0..self.netlist.num_inputs()).collect();
        self.hd_equals_over(&positions, k)
    }

    /// A literal equivalent to `HD(X1, X2) == k` counted over the input
    /// `positions` only (ascending, distinct), memoized per (position set,
    /// `k`).
    ///
    /// `k == 0` is one AND over the positions' [`AttackSession::input_eq`]
    /// literals ("no position differs").  `k > 0` reads a binary counter
    /// over the positions' differences, built once per position set and
    /// shared by every `k` of that set.  Positions outside the set are not
    /// constrained.
    pub fn hd_equals_over(&mut self, positions: &[usize], k: usize) -> Lit {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        if k > positions.len() {
            return self.cone_const_false();
        }
        if let Some(&lit) = self
            .cones()
            .hd
            .get(positions)
            .and_then(|reference| reference.equals.get(&k))
        {
            return lit;
        }
        if positions.is_empty() {
            // k == 0 here: no position can differ.
            return !self.cone_const_false();
        }
        let diffs: Vec<Lit> = positions.iter().map(|&p| self.input_diff(p)).collect();
        let cones = self.cones();
        let solver = &mut cones.solver;
        let reference = cones.hd.entry(positions.to_vec()).or_default();
        let lit = if k == 0 {
            // AND over the positions' equalities.
            encode_and(solver, &diffs.iter().map(|&d| !d).collect::<Vec<_>>())
        } else {
            let sum = reference.popcount.get_or_insert_with(|| {
                let sum = popcount_lits(solver, &diffs);
                // The counter bits feed every later `HD == k` literal.
                freeze_all(solver, &sum);
                sum
            });
            // AND over per-bit agreement of the counter with the constant k.
            let mut acc: Option<Lit> = None;
            for (i, &s) in sum.iter().enumerate() {
                let term = if (k >> i) & 1 == 1 { s } else { !s };
                acc = Some(match acc {
                    None => term,
                    Some(prev) => encode_and(solver, &[prev, term]),
                });
            }
            acc.expect("popcount has at least one bit")
        };
        solver.set_frozen(lit.var(), true);
        reference.equals.insert(k, lit);
        lit
    }

    /// A literal equivalent to `a XOR b` (memoized miter).
    pub fn miter(&mut self, a: Lit, b: Lit) -> Lit {
        let cones = self.cones();
        let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&lit) = cones.miters.get(&key) {
            return lit;
        }
        let lit = encode_xor2(&mut cones.solver, a, b);
        cones.solver.set_frozen(lit.var(), true);
        cones.miters.insert(key, lit);
        lit
    }

    /// Decides a cone property under assumptions — the generic analysis
    /// query, answered by the cone solver.  All shared structure (cones,
    /// difference vector, distance references) is reused; the query itself adds no
    /// clauses.
    pub fn check_cone_property(&mut self, assumptions: &[Lit]) -> SolveResult {
        let cones = self.cones();
        let result = {
            let _span = crate::trace::span("solve");
            cones.solver.solve_with(assumptions)
        };
        self.cone_unknowns += u64::from(result == SolveResult::Unknown);
        result
    }

    /// The verdict recorded for `candidate` at `h`, if any.
    pub(crate) fn stripper_verdict(&self, candidate: NodeId, h: usize) -> Option<&StripperVerdict> {
        self.verdicts.get(&(candidate, h))
    }

    /// The answer `analysis` gives `candidate` at `h` (`m` = the
    /// candidate's support size) without a solve, when the session already
    /// decides it.
    ///
    /// For a complete analysis a settled candidate needs no solve: on a
    /// proven [`StripperVerdict::Stripper`] the answer is its cube, exactly
    /// what the analysis computes on `strip_h` of that cube, and on
    /// [`StripperVerdict::NotStripper`] it is ⊥, because any cube the
    /// analysis found would fail the equivalence check.  Otherwise it is the
    /// decided answer this analysis gave the candidate at `h` before, if
    /// any.  `None` leaves the candidate open.
    pub(crate) fn decided_answer(
        &self,
        candidate: NodeId,
        h: usize,
        analysis: Analysis,
        m: usize,
    ) -> Option<Option<CubeAssignment>> {
        if analysis.is_complete(h, m) {
            match self.stripper_verdict(candidate, h) {
                Some(StripperVerdict::Stripper(cube)) => return Some(Some(cube.clone())),
                Some(StripperVerdict::NotStripper) => return Some(None),
                Some(StripperVerdict::Suspect(_)) | None => {}
            }
        }
        self.answers.get(&(candidate, h, analysis)).cloned()
    }

    /// Runs the SAT stage `extract` of `analysis` on `candidate` at `h`
    /// (`m` = the candidate's support size) through the session's stripper
    /// verdicts and answers.
    ///
    /// A candidate the session already decides
    /// ([`AttackSession::decided_answer`]) gets that answer.  Otherwise
    /// `extract` runs; its answer is kept unless one of its solves came back
    /// [`SolveResult::Unknown`].  When `2h != m`, a complete analysis's
    /// decided answer is also a verdict: a cube is recorded as the
    /// [`StripperVerdict::Suspect`], and ⊥ as
    /// [`StripperVerdict::NotStripper`] (a true `strip_h(k)` would have
    /// given `k`), which replaces a suspect.  `extract` must return ⊥
    /// whenever one of its solves came back [`SolveResult::Unknown`].
    ///
    /// One attack pass asks each (candidate, `h`, analysis) once, so the
    /// kept answers only serve later passes on the same session.
    pub(crate) fn settle_cube(
        &mut self,
        candidate: NodeId,
        h: usize,
        analysis: Analysis,
        m: usize,
        extract: impl FnOnce(&mut Self) -> Option<CubeAssignment>,
    ) -> Option<CubeAssignment> {
        if let Some(answer) = self.decided_answer(candidate, h, analysis, m) {
            return answer;
        }
        let complete = analysis.is_complete(h, m);
        let key = (candidate, h, analysis);
        let unknowns = self.cone_unknowns;
        let answer = extract(self);
        let decided = self.cone_unknowns == unknowns;
        if decided {
            self.answers.insert(key, answer.clone());
        }
        if complete && 2 * h != m {
            match &answer {
                Some(cube) => {
                    self.verdicts
                        .entry((candidate, h))
                        .or_insert_with(|| StripperVerdict::Suspect(cube.clone()));
                }
                // A proven stripper never reaches `extract`, so this
                // replaces at most a suspect.
                None if decided => {
                    self.verdicts
                        .insert((candidate, h), StripperVerdict::NotStripper);
                }
                None => {}
            }
        }
        answer
    }

    /// Records what `functional::propose` concluded about `candidate` at
    /// `h` before any analysis ran: a [`StripperVerdict::Stripper`] or
    /// [`StripperVerdict::NotStripper`] read off its complete truth table,
    /// the [`StripperVerdict::Suspect`] cube, or a
    /// [`StripperVerdict::NotStripper`] backed by a simulated
    /// counterexample or a witness solve's UNSAT.  An existing verdict
    /// stays.
    pub(crate) fn record_proposal(
        &mut self,
        candidate: NodeId,
        h: usize,
        verdict: StripperVerdict,
    ) {
        self.verdicts.entry((candidate, h)).or_insert(verdict);
    }

    /// Whether `candidate` computes `strip_h(cube)`, when the verdicts
    /// already decide it (`cube` normalised to the candidate's support,
    /// sorted by node id).  A [`StripperVerdict::Suspect`] decides every
    /// cube but its own: a true `strip_h(k)` would have made the complete
    /// analysis return `k`.
    pub(crate) fn known_equivalence(
        &self,
        candidate: NodeId,
        h: usize,
        cube: &CubeAssignment,
    ) -> Option<bool> {
        match self.stripper_verdict(candidate, h)? {
            StripperVerdict::Stripper(proven) => Some(proven == cube),
            StripperVerdict::NotStripper => Some(false),
            StripperVerdict::Suspect(suspect) => (suspect != cube).then_some(false),
        }
    }

    /// Records a decided equivalence check of `candidate` against
    /// `strip_h(cube)` (`cube` normalised as for
    /// [`AttackSession::known_equivalence`]): a proof makes the candidate a
    /// [`StripperVerdict::Stripper`], a refutation of the suspect cube a
    /// [`StripperVerdict::NotStripper`].
    pub(crate) fn record_equivalence(
        &mut self,
        candidate: NodeId,
        h: usize,
        cube: &CubeAssignment,
        equivalent: bool,
    ) {
        if 2 * h == cube.len() {
            return;
        }
        let verdict = if equivalent {
            StripperVerdict::Stripper(cube.clone())
        } else if matches!(
            self.stripper_verdict(candidate, h),
            Some(StripperVerdict::Suspect(suspect)) if suspect == cube
        ) {
            StripperVerdict::NotStripper
        } else {
            return;
        };
        self.verdicts.insert((candidate, h), verdict);
    }

    fn cone_const_false(&mut self) -> Lit {
        let cones = self.cones();
        if let Some(lit) = cones.const_false {
            return lit;
        }
        let lit = Lit::positive(cones.solver.new_var());
        cones.solver.set_frozen(lit.var(), true);
        cones.solver.add_clause([!lit]);
        cones.const_false = Some(lit);
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use locking::{LockingScheme, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::GateKind;

    #[test]
    fn dip_loop_is_allocation_free_and_concludes() {
        let original = generate(&RandomCircuitSpec::new("sess_dip", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(3).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        let mut iterations = 0;
        loop {
            match session.find_dip() {
                SolveResult::Sat => {}
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("no budget set"),
            }
            let x = session.dip_inputs();
            let y = original.evaluate(&x, &[]);
            session.force_dip(&x, &y);
            iterations += 1;
            assert!(iterations < 100, "XOR locking must converge quickly");
        }
        let (result, key) = session.extract_key();
        assert_eq!(result, SolveResult::Sat);
        let key = key.expect("sat result carries a key");
        for pattern in 0..64u64 {
            let bits = pattern_to_bits(pattern, 6);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
    }

    #[test]
    fn session_survives_extract_key_and_supports_further_dip_queries() {
        // Regression: extract_key retires the difference frame; a later DIP
        // query (e.g. chaining sat_attack then key_confirmation on one
        // session) must transparently re-arm it instead of panicking.
        let original = generate(&RandomCircuitSpec::new("sess_chain", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let oracle = crate::oracle::SimOracle::new(original.clone());

        let mut session = AttackSession::new(&locked.locked);
        let first = crate::sat_attack::sat_attack_in(&mut session, &oracle);
        assert!(first.is_success(), "{:?}", first.status);
        let recovered = first.key.expect("key");

        // The same session can now run key confirmation: its DIP queries
        // re-arm the retired difference constraint.
        let confirmation = crate::key_confirmation::key_confirmation_in(
            &mut session,
            &oracle,
            &[recovered.clone(), recovered.complement()],
        );
        assert!(confirmation.completed);
        let confirmed = confirmation.key.expect("a correct key is in the shortlist");
        assert!(locked.key_is_functionally_correct(&confirmed, 128, 1));

        // Soundness of the chained confirmation: a shortlist containing only
        // a wrong key must be rejected even though the session's K1 carries
        // I/O constraints from the earlier SAT attack (those must stay
        // dormant in the Q query, not masquerade as "no distinguishing
        // input").
        let mut session2 = AttackSession::new(&locked.locked);
        let first2 = crate::sat_attack::sat_attack_in(&mut session2, &oracle);
        let recovered2 = first2.key.expect("key");
        let wrong = recovered2.complement();
        assert!(!locked.key_is_functionally_correct(&wrong, 128, 1));
        let rejection =
            crate::key_confirmation::key_confirmation_in(&mut session2, &oracle, &[wrong]);
        assert!(rejection.completed);
        assert_eq!(
            rejection.key, None,
            "a wrong-only shortlist must be rejected"
        );
    }

    #[test]
    fn candidate_queries_run_in_the_key_solver() {
        let original = generate(&RandomCircuitSpec::new("sess_keys", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let oracle = crate::oracle::SimOracle::new(original.clone());
        let mut session = AttackSession::new(&locked.locked);
        session.prime();
        let shortlist = [locked.key.complement(), locked.key.clone()];
        let _keys = session.begin_predicate();
        session.add_predicate_clauses(|solver, keys| {
            let selectors: Vec<Lit> = shortlist
                .iter()
                .map(|key| {
                    let selector = Lit::positive(solver.new_var());
                    for (&lit, &bit) in keys.iter().zip(key.bits()) {
                        solver.add_clause([!selector, if bit { lit } else { !lit }]);
                    }
                    selector
                })
                .collect();
            solver.add_clause(selectors);
        });
        let mut candidates = 0;
        loop {
            let dip = session.solver.stats();
            let total = session.stats().solves;
            let (result, key) = session.candidate_key();
            candidates += 1;
            let after = session.solver.stats();
            assert_eq!(after.solves, dip.solves, "P never solves the DIP solver");
            assert_eq!(after.decisions, dip.decisions, "P decides no circuit copy");
            assert_eq!(session.stats().solves, total + 1, "stats() counts P");
            assert_eq!(result, SolveResult::Sat, "the true key is shortlisted");
            let key = key.expect("sat carries a key");
            if session.find_dip_against(&key) == SolveResult::Unsat {
                assert_eq!(key, locked.key);
                break;
            }
            let x = session.dip_inputs();
            session.observe(&x, &oracle.query(&x));
            assert!(candidates < 10, "a two-key shortlist settles quickly");
        }
        session.retire_predicate();
    }

    #[test]
    fn observations_outlive_generations_and_reach_a_later_key_solver() {
        let original = generate(&RandomCircuitSpec::new("sess_obs", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let oracle = crate::oracle::CountingOracle::new(crate::oracle::SimOracle::new(original));

        // The SAT attack observes pairs before any key solver exists; the
        // first confirmation's key solver must start from all of them, so a
        // wrong-only shortlist is ⊥ without a single oracle query.
        let mut session = AttackSession::new(&locked.locked);
        let attack = crate::sat_attack::sat_attack_in(&mut session, &oracle);
        assert!(attack.is_success());
        let observed = session.num_observations();
        assert_eq!(observed, attack.iterations);
        let wrong = locked.key.complement();
        assert!(!locked.key_is_functionally_correct(&wrong, 64, 1));
        let queries = oracle.queries();
        let rejection =
            crate::key_confirmation::key_confirmation_in(&mut session, &oracle, &[wrong]);
        assert!(rejection.completed);
        assert_eq!(rejection.key, None);
        assert_eq!((rejection.iterations, oracle.queries()), (0, queries));

        // Re-observing a known pattern adds nothing.
        let (x, (_, y)) = session.observations.iter().next().expect("observed");
        let (x, y) = (x.clone(), y.clone());
        session.observe(&x, &y);
        assert_eq!(session.num_observations(), observed);
    }

    #[test]
    #[should_panic(expected = "retire_predicate")]
    fn overlapping_predicate_generations_are_rejected() {
        let original = generate(&RandomCircuitSpec::new("sess_phi", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);
        let _first = session.begin_predicate();
        let _second = session.begin_predicate();
    }

    #[test]
    fn retired_generations_rebind_the_same_phi_keys() {
        let original = generate(&RandomCircuitSpec::new("sess_gen", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        let first = session.begin_predicate();
        assert!(session.has_active_predicate());
        session.retire_predicate();
        assert!(!session.has_active_predicate());
        let second = session.begin_predicate();
        assert_eq!(first, second, "every generation constrains the same Kϕ");
        // Retiring twice is a no-op.
        session.retire_predicate();
        session.retire_predicate();
        // ϕ lives in the key solver: generations encode no circuit copy.
        assert_eq!(session.cone_encodings_built(), 0);
    }

    #[test]
    fn contradictory_predicate_generations_alternate_with_clean_ones() {
        // A pinned predicate that contradicts ϕ-frame I/O pairs must make the
        // candidate query Unsat for this generation only.
        let original = generate(&RandomCircuitSpec::new("sess_pin", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(9).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        for round in 0..3 {
            // Contradictory generation: Kϕ[0] pinned both ways.
            let keys = session.begin_predicate();
            let k0 = keys[0];
            session.add_predicate_clauses(|solver, _| {
                solver.add_clause([k0]);
                solver.add_clause([!k0]);
            });
            let (result, key) = session.candidate_key();
            assert_eq!(result, SolveResult::Unsat, "round {round}");
            assert!(key.is_none());
            session.retire_predicate();

            // Clean generation on the same session: satisfiable again.
            let keys = session.begin_predicate();
            let k0 = keys[0];
            session.add_predicate_clauses(|solver, _| solver.add_clause([k0]));
            let (result, key) = session.candidate_key();
            assert_eq!(result, SolveResult::Sat, "round {round}");
            assert!(key.expect("sat carries a key").bits()[0]);
            session.retire_predicate();
        }
    }

    /// A key-independent output `g = a` beside a keyed one `keyed = a ^ k`.
    fn buf_and_xor() -> Netlist {
        let mut nl = Netlist::new("buf_and_xor");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k");
        let g = nl.add_gate("g", GateKind::Buf, &[a]);
        let keyed = nl.add_gate("keyed", GateKind::Xor, &[a, k]);
        nl.add_output("g", g);
        nl.add_output("keyed", keyed);
        nl
    }

    #[test]
    fn an_impossible_observation_poisons_the_session_for_good() {
        let nl = buf_and_xor();
        let oracle = crate::oracle::CountingOracle::new(crate::oracle::SimOracle::from_locked(
            nl.clone(),
            &Key::new(vec![true]),
        ));
        let mut session = AttackSession::new(&nl);
        // Output "g" ignores the key; claiming g(0) == 1 is impossible.
        session.observe(&[false], &[true, false]);

        let attack = crate::sat_attack::sat_attack_in(&mut session, &oracle);
        assert_eq!(
            attack.status,
            crate::sat_attack::SatAttackStatus::Inconsistent
        );
        assert!(attack.key.is_none());

        let confirmation = crate::key_confirmation::key_confirmation_in(
            &mut session,
            &oracle,
            &[Key::new(vec![false]), Key::new(vec![true])],
        );
        assert!(confirmation.completed);
        assert_eq!(confirmation.key, None, "no key explains the observation");
        assert_eq!(confirmation.iterations, 0);
        assert_eq!(oracle.queries(), 0);
        assert_eq!(session.find_dip(), SolveResult::Unsat);
    }

    #[test]
    fn retiring_a_poisoned_generation_unpoisons_the_session() {
        // Regression for the parallel engine's worker reuse: a generation
        // whose ϕ no key satisfies must poison only its own frame — after
        // retire_predicate the same session must serve further generations
        // and DIP queries.
        let nl = buf_and_xor();
        let mut session = AttackSession::new(&nl);
        let _phi = session.begin_predicate();
        session.add_predicate_clauses(|solver, _| solver.add_clause([]));
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Unsat, "poisoned generation is ⊥");
        assert!(key.is_none());
        session.retire_predicate();

        // The session survives: after a possible observation a clean
        // generation confirms a candidate, and the DIP machinery still works.
        session.observe(&[false], &[false, true]);
        let _phi = session.begin_predicate();
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Sat, "session must recover");
        let key = key.expect("sat carries a key");
        assert_eq!(key.bits(), &[true], "keyed(0) == 1 forces k == 1");
        session.retire_predicate();
        assert_eq!(
            session.find_dip(),
            SolveResult::Sat,
            "the xor output still distinguishes the two key copies"
        );
    }

    /// A netlist of `n` inputs, each driving an output of its own.
    fn wires(n: usize) -> Netlist {
        let mut nl = Netlist::new("wires");
        for i in 0..n {
            let x = nl.add_input(format!("x{i}"));
            nl.add_output(format!("y{i}"), x);
        }
        nl
    }

    #[test]
    fn hd_equals_restricted_by_eq_assumptions() {
        let nl = wires(4);
        let mut session = AttackSession::new(&nl);
        let hd1 = session.hd_equals(1);
        // Restrict to positions {0, 1} by forcing equality elsewhere.
        let eq2 = session.input_eq(2);
        let eq3 = session.input_eq(3);
        let (x1_0, x2_0) = session.input_pair(0);
        let (x1_1, x2_1) = session.input_pair(1);
        // Exactly one difference among positions 0 and 1: force both pairs
        // equal -> contradiction with HD == 1.
        let eq0 = session.input_eq(0);
        let eq1 = session.input_eq(1);
        assert_eq!(
            session.check_cone_property(&[hd1, eq2, eq3, eq0, eq1]),
            SolveResult::Unsat
        );
        // One pair differing is satisfiable.
        assert_eq!(
            session.check_cone_property(&[hd1, eq2, eq3, eq0]),
            SolveResult::Sat
        );
        let v1 = session.value(x1_1).unwrap();
        let v2 = session.value(x2_1).unwrap();
        assert_ne!(v1, v2, "the difference must be at the free position");
        let w1 = session.value(x1_0).unwrap();
        let w2 = session.value(x2_0).unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn hd_equals_over_zero_is_agreement_on_the_positions() {
        const N: usize = 4;
        let nl = wires(N);
        let mut session = AttackSession::new(&nl);
        let positions = [0, 2, 3];
        let hd0 = session.hd_equals_over(&positions, 0);
        let pins: Vec<(Lit, Lit)> = (0..N).map(|p| session.input_pair(p)).collect();
        for pattern in 0u32..1 << (2 * N) {
            let x1 = |p: usize| (pattern >> p) & 1 == 1;
            let x2 = |p: usize| (pattern >> (N + p)) & 1 == 1;
            let mut assumptions: Vec<Lit> = Vec::new();
            for (p, &(a, b)) in pins.iter().enumerate() {
                assumptions.push(if x1(p) { a } else { !a });
                assumptions.push(if x2(p) { b } else { !b });
            }
            let agree = positions.iter().all(|&p| x1(p) == x2(p));
            for (lit, holds) in [(hd0, agree), (!hd0, !agree)] {
                assumptions.push(lit);
                let expected = if holds {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                assert_eq!(
                    session.check_cone_property(&assumptions),
                    expected,
                    "pattern {pattern:08b}"
                );
                assumptions.pop();
            }
        }
        // No position can differ over the empty set.
        let empty0 = session.hd_equals_over(&[], 0);
        let empty1 = session.hd_equals_over(&[], 1);
        assert_eq!(session.check_cone_property(&[!empty0]), SolveResult::Unsat);
        assert_eq!(session.check_cone_property(&[empty1]), SolveResult::Unsat);
    }

    #[test]
    fn hd_equals_over_a_subset_matches_all_inputs_when_the_rest_agree() {
        let nl = wires(5);
        let mut session = AttackSession::new(&nl);
        let positions = [1, 2, 4];
        let rest = [session.input_eq(0), session.input_eq(3)];
        for k in 1..=positions.len() {
            let over = session.hd_equals_over(&positions, k);
            let all = session.hd_equals(k);
            let differ = session.miter(over, all);
            let mut assumptions = rest.to_vec();
            assumptions.push(differ);
            assert_eq!(
                session.check_cone_property(&assumptions),
                SolveResult::Unsat,
                "k = {k}: equal off the subset"
            );
            assert_eq!(
                session.check_cone_property(&[differ]),
                SolveResult::Sat,
                "k = {k}: a difference off the subset separates them"
            );
        }
    }

    #[test]
    fn hd_equals_over_is_memoized_per_position_set_and_distance() {
        let nl = wires(5);
        let mut session = AttackSession::new(&nl);
        let subset = [0, 3, 4];
        let literals: Vec<Lit> = (0..=2)
            .flat_map(|k| [session.hd_equals_over(&subset, k), session.hd_equals(k)])
            .collect();
        let arena = session.stats().arena_bytes;
        let again: Vec<Lit> = (0..=2)
            .flat_map(|k| [session.hd_equals_over(&subset, k), session.hd_equals(k)])
            .collect();
        assert_eq!(again, literals);
        assert_eq!(
            session.stats().arena_bytes,
            arena,
            "a repeated call adds no clause"
        );
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(session.hd_equals_over(&all, 2), session.hd_equals(2));
        assert_ne!(
            session.hd_equals_over(&subset, 1),
            session.hd_equals_over(&[0, 3], 1),
            "another set has its own literal"
        );
    }

    #[test]
    fn hd_equals_beyond_width_is_false() {
        let mut nl = netlist::Netlist::new("tiny");
        let a = nl.add_input("a");
        nl.add_output("y", a);
        let mut session = AttackSession::new(&nl);
        let impossible = session.hd_equals(5);
        assert_eq!(
            session.check_cone_property(&[impossible]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn cone_pair_memoizes_and_miters_are_cached() {
        let mut nl = netlist::Netlist::new("cones");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        let h = nl.add_gate("h", GateKind::Or, &[g, a]);
        nl.add_output("h", h);

        let mut session = AttackSession::new(&nl);
        let (g1, g2) = session.cone_pair(g);
        let (h1, h2) = session.cone_pair(h);
        assert_eq!(session.cone_pair(g), (g1, g2));
        assert_eq!(session.cone_pair(h), (h1, h2));
        let m = session.miter(g1, h1);
        assert_eq!(session.miter(h1, g1), m, "miters are symmetric and cached");
    }
}
