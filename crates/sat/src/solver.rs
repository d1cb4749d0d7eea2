//! The CDCL solver.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clause::{ClauseDb, ClauseRef, Tier};
use crate::heap::VarOrderHeap;
use crate::restart::{RestartDecision, RestartState};
use crate::{LBool, Lit, RestartMode, Var};

#[path = "eliminate.rs"]
mod eliminate;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
    /// The interrupt flag ([`Solver::set_interrupt`]) was raised before a
    /// result.
    Unknown,
}

/// Counters describing the work performed by a solver instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed (Luby and EMA-forced combined).
    pub restarts: u64,
    /// Restarts taken because a Luby conflict budget ran out.
    pub restarts_luby: u64,
    /// Restarts forced by the fast/slow LBD EMA threshold.
    pub restarts_ema: u64,
    /// EMA-forced restarts suppressed by trail-size blocking.
    pub restarts_blocked: u64,
    /// Learnt-database reduction rounds performed.
    pub reductions: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Learnt clauses currently in the CORE tier (glue; never deleted).
    pub core_clauses: u64,
    /// Learnt clauses currently in the TIER2 tier (kept while used).
    pub tier2_clauses: u64,
    /// Learnt clauses currently in the LOCAL tier (evictable).
    pub local_clauses: u64,
    /// Variables removed by bounded variable elimination, cumulatively.
    pub vars_eliminated: u64,
    /// Eliminated variables re-introduced because a later clause or
    /// assumption referenced them, cumulatively.
    pub vars_resurrected: u64,
    /// Adaptive strategy switches performed (0 or 1 per solver: the
    /// classification after the warm-up budget is one-shot).
    pub strategy_switches: u64,
    /// Fast (recent-window) learnt-LBD EMA ×1000 at the last snapshot.  An
    /// average, not an amount: [`SolverStats::absorb`] keeps the maximum.
    pub ema_lbd_fast_milli: u64,
    /// Slow (long-run) learnt-LBD EMA ×1000 at the last snapshot.  An
    /// average, not an amount: [`SolverStats::absorb`] keeps the maximum.
    pub ema_lbd_slow_milli: u64,
    /// Number of `solve`/`solve_with` invocations.
    pub solves: u64,
    /// Current size of the clause arena in bytes (live + wasted).
    pub arena_bytes: u64,
    /// Bytes of the arena occupied by tombstoned (deleted) clauses, reclaimed
    /// by the next garbage collection.
    pub wasted_bytes: u64,
    /// Garbage-collection passes performed ([`Solver::collect_garbage`]).
    pub gc_runs: u64,
    /// Variables reclaimed into the free list ([`Solver::release_var`]); each
    /// is handed out again by a later [`Solver::new_var`] instead of growing
    /// the variable space.
    pub recycled_vars: u64,
}

impl SolverStats {
    /// Accumulates another snapshot into this one, field by field.
    ///
    /// This is how a pool of long-lived solver instances (one per worker
    /// session) is reported as a single aggregate: monotone counters sum
    /// into pool totals, and the footprint gauges (clause and tier counts,
    /// `arena_bytes`, `wasted_bytes`) sum into the pool's current footprint.
    /// The LBD EMAs (`ema_lbd_fast_milli`, `ema_lbd_slow_milli`) are
    /// averages, whose sum means nothing, so the aggregate keeps the
    /// largest: the pool's worst recent clause quality.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.restarts_luby += other.restarts_luby;
        self.restarts_ema += other.restarts_ema;
        self.restarts_blocked += other.restarts_blocked;
        self.reductions += other.reductions;
        self.learnt_clauses += other.learnt_clauses;
        self.core_clauses += other.core_clauses;
        self.tier2_clauses += other.tier2_clauses;
        self.local_clauses += other.local_clauses;
        self.vars_eliminated += other.vars_eliminated;
        self.vars_resurrected += other.vars_resurrected;
        self.strategy_switches += other.strategy_switches;
        self.ema_lbd_fast_milli = self.ema_lbd_fast_milli.max(other.ema_lbd_fast_milli);
        self.ema_lbd_slow_milli = self.ema_lbd_slow_milli.max(other.ema_lbd_slow_milli);
        self.solves += other.solves;
        self.arena_bytes += other.arena_bytes;
        self.wasted_bytes += other.wasted_bytes;
        self.gc_runs += other.gc_runs;
        self.recycled_vars += other.recycled_vars;
    }

    /// The canonical `(name, value)` view of every field, in declaration
    /// order.
    ///
    /// This is the single source of truth for everything that serialises or
    /// renders the counters — the `fall-dist` worker-telemetry wire encoding,
    /// the `fall-serve` metric surface, and the drift-guard tests — so a
    /// field added to the struct without extending this list (the
    /// `stats_fields_cover_the_struct` test below catches that) cannot
    /// silently go missing from any of them.
    pub fn fields(&self) -> [(&'static str, u64); 22] {
        [
            ("conflicts", self.conflicts),
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("restarts", self.restarts),
            ("restarts_luby", self.restarts_luby),
            ("restarts_ema", self.restarts_ema),
            ("restarts_blocked", self.restarts_blocked),
            ("reductions", self.reductions),
            ("learnt_clauses", self.learnt_clauses),
            ("core_clauses", self.core_clauses),
            ("tier2_clauses", self.tier2_clauses),
            ("local_clauses", self.local_clauses),
            ("vars_eliminated", self.vars_eliminated),
            ("vars_resurrected", self.vars_resurrected),
            ("strategy_switches", self.strategy_switches),
            ("ema_lbd_fast_milli", self.ema_lbd_fast_milli),
            ("ema_lbd_slow_milli", self.ema_lbd_slow_milli),
            ("solves", self.solves),
            ("arena_bytes", self.arena_bytes),
            ("wasted_bytes", self.wasted_bytes),
            ("gc_runs", self.gc_runs),
            ("recycled_vars", self.recycled_vars),
        ]
    }

    /// Sets one field by its [`SolverStats::fields`] name; the decoding
    /// counterpart of `fields` for wire formats.  Returns `false` when the
    /// name matches no field (the caller decides whether unknown names are
    /// an error or forward-compatible noise).
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "conflicts" => &mut self.conflicts,
            "decisions" => &mut self.decisions,
            "propagations" => &mut self.propagations,
            "restarts" => &mut self.restarts,
            "restarts_luby" => &mut self.restarts_luby,
            "restarts_ema" => &mut self.restarts_ema,
            "restarts_blocked" => &mut self.restarts_blocked,
            "reductions" => &mut self.reductions,
            "learnt_clauses" => &mut self.learnt_clauses,
            "core_clauses" => &mut self.core_clauses,
            "tier2_clauses" => &mut self.tier2_clauses,
            "local_clauses" => &mut self.local_clauses,
            "vars_eliminated" => &mut self.vars_eliminated,
            "vars_resurrected" => &mut self.vars_resurrected,
            "strategy_switches" => &mut self.strategy_switches,
            "ema_lbd_fast_milli" => &mut self.ema_lbd_fast_milli,
            "ema_lbd_slow_milli" => &mut self.ema_lbd_slow_milli,
            "solves" => &mut self.solves,
            "arena_bytes" => &mut self.arena_bytes,
            "wasted_bytes" => &mut self.wasted_bytes,
            "gc_runs" => &mut self.gc_runs,
            "recycled_vars" => &mut self.recycled_vars,
            _ => return false,
        };
        *slot = value;
        true
    }
}

/// The switches of a [`Solver`] that the differential suites flip.
///
/// The defaults are the solver's production behaviour.  Each field is a
/// switch that a differential or unit suite turns to compare trajectories in
/// lockstep (GC forced or off, elimination on or off, adaptation on, off or
/// early, Luby pacing); every other search parameter is a fixed constant, or
/// private state that adaptive strategy switching retunes
/// ([`SearchStrategy`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// Base conflict budget of the Luby restart sequence (default 100).
    ///
    /// Only consulted in [`RestartMode::Luby`]: every restart budget is this
    /// value times the next Luby multiplier.
    pub restart_base: u64,
    /// Restart pacing discipline (default [`RestartMode::Ema`]).
    ///
    /// EMA restarts adapt to the instance — they fire exactly when the
    /// search starts producing worse-than-usual clauses — and win on most
    /// structured instances; Luby is the robust, noise-immune fallback that
    /// adaptive strategy switching selects on
    /// [`SearchStrategy::HighSuccessive`].
    pub restart_mode: RestartMode,
    /// Enables one-shot adaptive strategy switching (default `true`).
    ///
    /// After `adapt_after_conflicts` total conflicts the solver classifies
    /// the instance from its conflict/decision profile and switches
    /// restart/decay/tier parameters once (see [`SearchStrategy`]).  Disable
    /// for bit-reproducible parameter trajectories.
    pub adapt_strategy: bool,
    /// Warm-up conflict budget before the adaptive classification runs
    /// (default 10 000 — cumulative over the solver's lifetime, so
    /// long-lived incremental sessions classify on their real workload).
    pub adapt_after_conflicts: u64,
    /// Enables bounded variable elimination at [`Solver::simplify`]
    /// checkpoints (default `true`).
    ///
    /// Eliminated variables are resolved out of the clause database and
    /// reconstructed in models on demand; variables referenced again later
    /// (incremental use) are transparently resurrected.  Disable to keep the
    /// clause database textually identical to what was added — the
    /// differential suites run both settings in lockstep.
    pub elim_vars: bool,
    /// Clause-count growth budget of one elimination (default 0): a variable
    /// is only eliminated if the surviving resolvents number at most
    /// `occurrences + elim_grow`.
    ///
    /// 0 is the classic NiVER "never increase" rule; small positive values
    /// (SatELite-style) make the pass fire on the small instances of the
    /// elimination suites.
    pub elim_grow: usize,
    /// Fraction of the clause arena that may be wasted (tombstoned) before a
    /// garbage collection compacts it.  `0.0` forces a GC at every check
    /// point (a testing mode exercised by the differential suite);
    /// `f64::INFINITY` disables GC entirely.
    pub gc_wasted_ratio: f64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            restart_base: RESTART_BASE,
            restart_mode: RestartMode::Ema,
            adapt_strategy: true,
            adapt_after_conflicts: ADAPT_AFTER_CONFLICTS,
            elim_vars: true,
            elim_grow: 0,
            gc_wasted_ratio: GC_WASTED_RATIO,
        }
    }
}

/// The search parameters adaptive strategy switching retunes
/// ([`Solver::strategy`]).  They start at their Glucose-lineage defaults and
/// change at most once per solver.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Tuning {
    /// VSIDS variable-activity decay factor (0 < decay < 1).
    var_decay: f64,
    /// LBD at or below which a learnt clause enters the CORE tier and is
    /// never deleted by database reduction.
    co_lbd_bound: u32,
    /// EMA forcing threshold: restart when the fast LBD EMA exceeds this
    /// multiple of the slow one.
    restart_thr: f64,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            var_decay: VAR_DECAY,
            co_lbd_bound: CO_LBD_BOUND,
            restart_thr: RESTART_THR,
        }
    }
}

/// Instance classification produced by adaptive strategy switching.
///
/// After [`SolverConfig::adapt_after_conflicts`] total conflicts the solver
/// inspects its own conflict/decision profile once and switches to the
/// matching strategy, adjusting restart, decay and tier parameters (see
/// [`Solver::strategy`]).  The lineage is splr/Glucose's `adapt_solver`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchStrategy {
    /// Warm-up: no classification has run yet.
    #[default]
    Initial,
    /// No marked profile; parameters stay at their configured values.
    Generic,
    /// Very few decisions per conflict (long propagation chains): keep more
    /// CORE clauses and decay variable activity slowly.
    LowDecisions,
    /// Long bursts of consecutive conflicts: switch to Luby restarts, which
    /// are immune to the LBD noise such bursts produce.
    HighSuccessive,
    /// Conflicts arrive scattered: restart later so descents can finish.
    LowSuccessive,
    /// Learnt clauses are predominantly glue: chase recent conflicts with a
    /// fast variable-activity decay.
    ManyGlues,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Identifier of an activation frame created by [`Solver::push_frame`].
///
/// A solver maintenance phase reported through the checkpoint hook
/// ([`Solver::set_checkpoint_hook`]).
///
/// Checkpoints are the places where the solver does bookkeeping work outside
/// the CDCL search proper — exactly the phases an observability layer wants
/// to attribute wall-clock to.  The solver itself never reads a clock for its
/// search decisions, so reporting durations here cannot perturb a search
/// trajectory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Checkpoint {
    /// Clause-arena garbage collection ([`Solver::collect_garbage`]).
    Gc,
    /// Tiered learnt-database reduction.
    ReduceDb,
    /// Level-0 simplification ([`Solver::simplify`]), including watcher
    /// pruning, variable-release processing and elimination.
    Simplify,
    /// Bounded variable elimination (a sub-phase of `Simplify`; its duration
    /// is included in the enclosing `Simplify` report too).
    Eliminate,
    /// A restart fired.  Restarts are instantaneous events, so the reported
    /// duration is always zero; hooks typically count them.
    Restart,
}

impl Checkpoint {
    /// A stable lowercase label for metric/trace names.
    pub fn label(self) -> &'static str {
        match self {
            Checkpoint::Gc => "gc",
            Checkpoint::ReduceDb => "reduce_db",
            Checkpoint::Simplify => "simplify",
            Checkpoint::Eliminate => "eliminate",
            Checkpoint::Restart => "restart",
        }
    }
}

/// The installed checkpoint observer (boxed so [`Solver`] keeps its derived
/// `Debug`/`Default` via this wrapper's manual impls).
#[derive(Default)]
struct HookSlot(Option<Box<dyn FnMut(Checkpoint, Duration) + Send>>);

impl std::fmt::Debug for HookSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Some(_) => "HookSlot(installed)",
            None => "HookSlot(empty)",
        })
    }
}

/// A frame groups clauses that are only active while the frame's activation
/// literal is assumed (see [`Solver::solve_in`]).  Retiring a frame
/// ([`Solver::retire_frame`]) permanently disables its clauses *without*
/// discarding any learnt clauses: conflict clauses derived under the frame's
/// assumption carry the negated activation literal and become vacuously
/// satisfied, and [`Solver::simplify`] reclaims them lazily.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct FrameId(u32);

/// Where a variable stands in the recycling lifecycle
/// ([`Solver::release_var`], [`Solver::simplify`], [`Solver::new_var`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Recycling {
    /// In use.
    #[default]
    Live,
    /// Released, but a live clause or the elimination stack may still
    /// mention it.
    Pending,
    /// On the free list: no clause mentions it until `new_var` hands it out.
    Free,
}

#[derive(Clone, Debug)]
struct Frame {
    lit: Lit,
    retired: bool,
    /// Variables allocated while this frame was the default clause frame.
    /// They only ever occur in the frame's clauses, so retiring the frame
    /// releases them for recycling ([`Solver::release_var`]).
    vars: Vec<Var>,
}

/// A CDCL SAT solver with incremental solving under assumptions.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: usize,
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrderHeap,
    seen: Vec<bool>,
    ok: bool,
    /// The last SAT answer's assignment.  Eliminated variables are filled in
    /// on the first read of one (see `model_pending`), so the model sits
    /// behind a `RefCell` that `&self` readers can complete.
    model: RefCell<Vec<LBool>>,
    /// The model's eliminated variables still await reconstruction: set at a
    /// SAT answer while the elimination stack is non-empty, cleared by the
    /// reconstruction walk ([`Solver::extend_model`]).
    model_pending: Cell<bool>,
    /// Reconstruction walks run so far, for the deferral tests.
    #[cfg(test)]
    reconstruction_walks: Cell<u64>,
    assumptions: Vec<Lit>,
    max_learnts: f64,
    stats: SolverStats,
    num_problem_clauses: usize,
    frames: Vec<Frame>,
    default_frame: Option<FrameId>,
    /// The switches this solver was created with; adaptive strategy
    /// switching may change `restart_mode`.
    config: SolverConfig,
    /// What adaptive strategy switching retunes; the defaults until then.
    tuning: Tuning,
    interrupt: Option<Arc<AtomicBool>>,
    /// Spent variables available for reuse by [`Solver::new_var`].
    free_vars: Vec<Var>,
    /// Variables released ([`Solver::release_var`]) but not yet proven
    /// unreferenced; the next [`Solver::simplify`] reclaims them.
    pending_release: Vec<Var>,
    /// Where each variable stands in the recycling lifecycle; guards
    /// against double releases and keeps free variables out of branching.
    recycling: Vec<Recycling>,
    /// Restart pacing (Luby budgets or LBD EMAs), re-armed per solve call.
    restart: RestartState,
    /// Level-stamp scratch for allocation-free LBD computation: level `l`
    /// was counted iff `lbd_stamp[l] == lbd_stamp_counter`.
    lbd_stamp: Vec<u32>,
    lbd_stamp_counter: u32,
    /// Reusable candidate buffer of `reduce_db` (activity, LBD, clause).
    reduce_scratch: Vec<(f32, u32, ClauseRef)>,
    /// Adaptive classification result; `Initial` until the warm-up budget is
    /// spent ([`SolverConfig::adapt_after_conflicts`]).
    strategy: SearchStrategy,
    /// Consecutive conflicts without an intervening decision, and the
    /// longest such streak — one of the classification features.
    conflict_streak: u64,
    max_conflict_streak: u64,
    /// Sum of learnt-clause LBDs, for the average-LBD classification feature.
    lbd_sum: u64,
    /// `frozen[v]` — the caller declared `v` part of its interface
    /// ([`Solver::set_frozen`]); bounded variable elimination must keep it.
    frozen: Vec<bool>,
    /// `eliminated[v]` — `v` was resolved out by bounded variable
    /// elimination; its defining clauses live on `elim_stack`.
    eliminated: Vec<bool>,
    /// `elim_skip[v]` — `v` was eliminated and later resurrected; never
    /// eliminate it again (prevents eliminate/resurrect thrash).
    elim_skip: Vec<bool>,
    /// `frame_tagged[v]` — `v` belongs to an activation frame (the
    /// activation variable itself or a variable allocated under a default
    /// frame); excluded from elimination because frame retirement owns its
    /// lifecycle.
    frame_tagged: Vec<bool>,
    /// Reconstruction stack of bounded variable elimination: for each
    /// eliminated variable, the original clauses it was resolved out of, in
    /// elimination order (model extension walks it in reverse).
    elim_stack: Vec<eliminate::ElimRecord>,
    /// Maintenance-phase observer ([`Solver::set_checkpoint_hook`]).  The
    /// clock is only read while a hook is installed.
    checkpoint_hook: HookSlot,
}

/// Default VSIDS variable-activity decay.
const VAR_DECAY: f64 = 0.95;
/// Learnt-clause activity decay: which learnt clauses survive database
/// reduction.
const CLA_DECAY: f64 = 0.999;
const RESTART_BASE: u64 = 100;
/// Default EMA forcing threshold (Glucose forces at fast/slow ≈ 1.25).
const RESTART_THR: f64 = 1.25;
/// Default CORE-tier LBD bound (the Chan-Seok bound).
const CO_LBD_BOUND: u32 = 3;
/// LBD at or below which a learnt clause enters the TIER2 tier, which
/// survives reduction rounds in which it took part in a conflict.
const TIER2_LBD_BOUND: u32 = 6;
/// Default [`SolverConfig::adapt_after_conflicts`].
const ADAPT_AFTER_CONFLICTS: u64 = 10_000;
/// Occurrence cap for elimination candidates: a variable with more than
/// this many positive *or* negative problem-clause occurrences is skipped.
const ELIM_OCC_LIMIT: usize = 16;
/// Length cap on resolvents produced by elimination: any longer resolvent
/// vetoes the candidate.
const ELIM_CLAUSE_LIMIT: usize = 16;
/// Default [`SolverConfig::gc_wasted_ratio`], following the MiniSat lineage
/// (batsat uses 0.20): compact once a fifth of the arena is tombstones.
const GC_WASTED_RATIO: f64 = 0.20;

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver using the given search configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        let restart = RestartState::new(config.restart_mode, config.restart_base);
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnts: 1000.0,
            db: ClauseDb::new(),
            order: VarOrderHeap::new(),
            config,
            restart,
            ..Solver::default()
        }
    }

    /// Creates an empty solver with this solver's search parameters as they
    /// stand now: its configuration and whatever adaptive strategy switching
    /// has retuned (decay, CORE tier, restart pacing).  The new solver's own
    /// strategy starts at [`SearchStrategy::Initial`].
    ///
    /// This is how one attack's key and cone solvers inherit the DIP
    /// solver's parameters.
    pub fn sibling(&self) -> Solver {
        let mut solver = Solver::with_config(self.config.clone());
        solver.tuning = self.tuning;
        solver
    }

    /// Installs (or clears) a shared interrupt flag.
    ///
    /// While the flag reads `true`, any in-flight or future solve call
    /// returns [`SolveResult::Unknown`] at its next check point.  It is the
    /// solver's only stop mechanism: deadlines and cancellation (one worker
    /// confirming a key, a job's timeout) both raise it.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Installs (or clears) a maintenance-phase observer.
    ///
    /// The hook is called once per completed [`Checkpoint`] with the phase's
    /// wall-clock duration (zero for instantaneous events like restarts).
    /// The solver never consults a clock for search decisions — timing is
    /// only measured while a hook is installed, and the hook sees phases
    /// *after* they ran — so installing one cannot change a solve trajectory.
    pub fn set_checkpoint_hook(
        &mut self,
        hook: Option<Box<dyn FnMut(Checkpoint, Duration) + Send>>,
    ) {
        self.checkpoint_hook = HookSlot(hook);
    }

    /// The phase start time, read only when someone is listening.
    fn checkpoint_start(&self) -> Option<Instant> {
        self.checkpoint_hook.0.is_some().then(Instant::now)
    }

    /// Reports a finished phase to the hook (no-op when `start` is `None`,
    /// i.e. no hook was installed when the phase began).
    fn fire_checkpoint(&mut self, which: Checkpoint, start: Option<Instant>) {
        if let (Some(start), Some(hook)) = (start, self.checkpoint_hook.0.as_mut()) {
            hook(which, start.elapsed());
        }
    }

    /// Reports an instantaneous event (zero duration) to the hook.
    fn fire_checkpoint_event(&mut self, which: Checkpoint) {
        if let Some(hook) = self.checkpoint_hook.0.as_mut() {
            hook(which, Duration::ZERO);
        }
    }

    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Allocates a variable: recycles one from the free list when available
    /// (see [`Solver::release_var`]), otherwise grows the variable space.
    ///
    /// While a default frame is active ([`Solver::set_default_frame`]), the
    /// variable is tagged to that frame and automatically released when the
    /// frame retires — this is how per-generation Tseitin variables are
    /// reclaimed without the encoding passes knowing about recycling.
    pub fn new_var(&mut self) -> Var {
        let var = match self.free_vars.pop() {
            Some(var) => {
                self.recycling[var.index()] = Recycling::Live;
                self.reset_var(var);
                var
            }
            None => self.fresh_var(),
        };
        if let Some(frame) = self.default_frame {
            self.frames[frame.0 as usize].vars.push(var);
            self.frame_tagged[var.index()] = true;
        }
        var
    }

    /// Grows the variable space by one, bypassing the free list.
    fn fresh_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.recycling.push(Recycling::Live);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.elim_skip.push(false);
        self.frame_tagged.push(false);
        self.order.grow_to(self.num_vars);
        self.order.insert(var, &self.activity);
        var
    }

    /// Restores a recycled variable to the pristine state `fresh_var` creates.
    fn reset_var(&mut self, var: Var) {
        debug_assert_eq!(
            self.assigns[var.index()],
            LBool::Undef,
            "recycled variables are unassigned at level 0"
        );
        self.phase[var.index()] = false;
        self.reason[var.index()] = None;
        self.level[var.index()] = 0;
        self.activity[var.index()] = 0.0;
        self.seen[var.index()] = false;
        self.frozen[var.index()] = false;
        self.eliminated[var.index()] = false;
        self.elim_skip[var.index()] = false;
        self.frame_tagged[var.index()] = false;
        if !self.order.contains(var) {
            self.order.insert(var, &self.activity);
        }
    }

    /// Ensures the variables with indices `0..n` exist and are usable,
    /// allocating as needed.
    ///
    /// Released variables below `n` are reclaimed from the free list so the
    /// whole index range is safe to reference by index.
    pub fn ensure_vars(&mut self, n: usize) {
        if !self.free_vars.is_empty() || !self.pending_release.is_empty() {
            let claimed: Vec<Var> = self
                .free_vars
                .iter()
                .copied()
                .filter(|v| v.index() < n)
                .collect();
            self.free_vars.retain(|v| v.index() >= n);
            self.pending_release.retain(|v| v.index() >= n);
            for var in claimed {
                self.recycling[var.index()] = Recycling::Live;
                self.reset_var(var);
            }
            for i in 0..n.min(self.recycling.len()) {
                self.recycling[i] = Recycling::Live;
            }
        }
        while self.num_vars < n {
            self.fresh_var();
        }
    }

    /// Queues a spent variable for recycling.
    ///
    /// The variable is reclaimed by the next [`Solver::simplify`] once no
    /// live clause mentions it (live *learnt* clauses mentioning it are
    /// redundant and get dropped to unblock the reclaim; a live *problem*
    /// clause keeps it pending).  After reclaiming, [`Solver::new_var`] hands
    /// the variable out again, so callers must not reference a released
    /// variable in later clauses or assumptions.
    ///
    /// [`Solver::retire_frame`] calls this automatically for the frame's
    /// activation variable and every variable allocated while the frame was
    /// the default clause frame — the variable-recycling counterpart of the
    /// frame's clause reclamation.
    pub fn release_var(&mut self, var: Var) {
        debug_assert!(var.index() < self.num_vars, "unknown variable");
        if self.recycling[var.index()] == Recycling::Live {
            self.recycling[var.index()] = Recycling::Pending;
            self.pending_release.push(var);
        }
    }

    /// Returns the number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of problem (non-learnt) clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.num_problem_clauses
    }

    /// Returns the work counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.learnt_clauses = self.db.num_learnt() as u64;
        stats.core_clauses = self.db.tier_count(Tier::Core) as u64;
        stats.tier2_clauses = self.db.tier_count(Tier::Tier2) as u64;
        stats.local_clauses = self.db.tier_count(Tier::Local) as u64;
        stats.arena_bytes = (self.db.arena_words() * 4) as u64;
        stats.wasted_bytes = (self.db.wasted_words() * 4) as u64;
        stats.ema_lbd_fast_milli = self.restart.ema_fast_milli();
        stats.ema_lbd_slow_milli = self.restart.ema_slow_milli();
        stats
    }

    /// The adaptive classification of this solver's workload, or
    /// [`SearchStrategy::Initial`] while the warm-up budget
    /// ([`SolverConfig::adapt_after_conflicts`]) is still being spent.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Marks a variable as part of the caller's interface (or clears the
    /// mark): frozen variables are never removed by bounded variable
    /// elimination, so their model values and future mentions stay cheap.
    ///
    /// Freezing is advisory-but-recommended for variables the caller will
    /// keep referencing (keys, inputs, outputs of an encoded circuit):
    /// referencing a non-frozen eliminated variable still works, but pays a
    /// resurrection (the variable's original clauses are re-added).
    ///
    /// # Panics
    ///
    /// Panics if the variable was never created.
    pub fn set_frozen(&mut self, var: Var, frozen: bool) {
        assert!(var.index() < self.num_vars, "unknown variable");
        self.frozen[var.index()] = frozen;
        if frozen && self.eliminated[var.index()] {
            self.resurrect_var(var);
        }
    }

    /// Makes the next decision on `lit`'s variable try `lit` first.  Phase
    /// saving replaces the hint once the variable is assigned and
    /// backtracked.  Phases steer which model a search finds, never whether
    /// one exists.
    pub fn set_phase(&mut self, lit: Lit) {
        self.phase[lit.var().index()] = lit.polarity();
    }

    /// Whether [`Solver::set_frozen`] marked this variable.
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen[var.index()]
    }

    /// Whether bounded variable elimination currently has this variable
    /// resolved out of the clause database.  Eliminated variables still get
    /// model values ([`Solver::value`]) via reconstruction.
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated[var.index()]
    }

    /// Number of variables currently waiting in the recycling free list.
    pub fn free_var_count(&self) -> usize {
        self.free_vars.len()
    }

    /// Adds a clause over already-created variables.
    ///
    /// Duplicate literals are removed and tautological clauses are ignored.
    /// Adding the empty clause makes the solver permanently unsatisfiable —
    /// unless a default frame is active ([`Solver::set_default_frame`]), in
    /// which case the clause is scoped to that frame and an empty clause only
    /// poisons the frame (its activation becomes unsatisfiable) while the
    /// solver itself stays usable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was never created.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        match self.default_frame {
            Some(frame) => self.add_clause_in(frame, lits),
            None => self.add_clause_root(lits),
        }
    }

    /// Adds a clause at the root, ignoring any active default frame.
    fn add_clause_root<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = lits.into_iter().collect();
        let _ = self.add_clause_root_vec(clause);
    }

    /// [`Solver::add_clause_root`] returning the allocated clause when the
    /// level-0-simplified clause has two or more literals (the handle the
    /// variable eliminator needs to index its occurrence lists).
    fn add_clause_root_vec(&mut self, mut clause: Vec<Lit>) -> Option<ClauseRef> {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return None;
        }
        for lit in &clause {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit} references unknown variable"
            );
        }
        // A clause referencing an eliminated variable re-opens it: put the
        // variable's original clauses back (they imply every resolvent that
        // replaced them, so re-adding restores exact equivalence) before the
        // new clause lands.
        if clause.iter().any(|l| self.eliminated[l.var().index()]) {
            for lit in &clause {
                let var = lit.var();
                if self.eliminated[var.index()] {
                    self.resurrect_var(var);
                }
            }
            if !self.ok {
                return None;
            }
        }
        clause.sort_unstable();
        clause.dedup();
        // Drop clauses that are tautological or already satisfied at level 0;
        // drop literals already false at level 0.
        let mut simplified: Vec<Lit> = Vec::with_capacity(clause.len());
        let mut satisfied = false;
        for (i, &lit) in clause.iter().enumerate() {
            if i + 1 < clause.len() && clause[i + 1] == !lit {
                satisfied = true;
                break;
            }
            match self.lit_value(lit) {
                LBool::True if self.level[lit.var().index()] == 0 => {
                    satisfied = true;
                    break;
                }
                LBool::False if self.level[lit.var().index()] == 0 => continue,
                _ => simplified.push(lit),
            }
        }
        if satisfied {
            return None;
        }
        self.num_problem_clauses += 1;
        match simplified.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                if !self.enqueue_checked(simplified[0], None) || self.propagate().is_some() {
                    self.ok = false;
                }
                None
            }
            _ => {
                let cref = self.db.alloc(&simplified, false);
                self.attach_clause(cref);
                Some(cref)
            }
        }
    }

    // ------------------------------------------------------------------
    // Activation frames: assumption-scoped clause groups.
    // ------------------------------------------------------------------

    /// Creates a new activation frame and returns its identifier.
    ///
    /// Clauses added with [`Solver::add_clause_in`] are only enforced by
    /// solve calls that activate the frame ([`Solver::solve_in`]); plain
    /// [`Solver::solve`]/[`Solver::solve_with`] calls leave them dormant.
    pub fn push_frame(&mut self) -> FrameId {
        // The activation variable belongs to the *new* frame (released on its
        // retirement), never to whatever default frame is currently active.
        let caller_default = self.default_frame.take();
        let lit = Lit::positive(self.new_var());
        self.default_frame = caller_default;
        // Frame lifecycle owns the activation variable: elimination must
        // never touch it.
        self.frame_tagged[lit.var().index()] = true;
        let id = FrameId(self.frames.len() as u32);
        self.frames.push(Frame {
            lit,
            retired: false,
            vars: Vec::new(),
        });
        id
    }

    /// The activation literal of a frame, for callers that want to mix frame
    /// activation with their own assumption vectors.
    ///
    /// # Panics
    ///
    /// Panics if the frame has been retired.
    pub fn frame_lit(&self, frame: FrameId) -> Lit {
        let f = &self.frames[frame.0 as usize];
        assert!(!f.retired, "frame {frame:?} has been retired");
        f.lit
    }

    /// Returns `true` if [`Solver::retire_frame`] has been called on `frame`.
    pub fn frame_retired(&self, frame: FrameId) -> bool {
        self.frames[frame.0 as usize].retired
    }

    /// Adds a clause scoped to `frame`: it is enforced only while the frame
    /// is activated.  The explicit frame wins over any active default frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame has been retired or a literal references an
    /// unknown variable.
    pub fn add_clause_in<I>(&mut self, frame: FrameId, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let activation = self.frame_lit(frame);
        let clause: Vec<Lit> = lits.into_iter().chain([!activation]).collect();
        self.add_clause_root(clause);
    }

    /// Routes every following plain [`Solver::add_clause`] call into `frame`
    /// (or back to the root for `None`).
    ///
    /// This is how whole encoding passes — code that was written against the
    /// plain `add_clause` API and knows nothing about frames — are scoped to
    /// a retireable frame without threading a frame parameter through every
    /// helper.  Explicit [`Solver::add_clause_in`] calls are unaffected, and
    /// [`Solver::retire_frame`] on the default frame clears the default.
    ///
    /// # Panics
    ///
    /// Panics if the frame has been retired.
    pub fn set_default_frame(&mut self, frame: Option<FrameId>) {
        if let Some(f) = frame {
            // `frame_lit` asserts the frame is still live.
            let _ = self.frame_lit(f);
        }
        self.default_frame = frame;
    }

    /// The frame plain [`Solver::add_clause`] calls currently route into.
    pub fn default_frame(&self) -> Option<FrameId> {
        self.default_frame
    }

    /// Permanently disables all clauses of `frame` (logical deletion).
    ///
    /// The activation literal is fixed to false, so the frame's clauses — and
    /// every learnt clause derived under the frame's assumption — become
    /// vacuously satisfied.  Learnt clauses that do not depend on the frame
    /// are untouched, which is the whole point of frames: retiring temporary
    /// constraints keeps the solver's accumulated knowledge.  Call
    /// [`Solver::simplify`] afterwards to reclaim the memory of the
    /// now-satisfied clauses — and to recycle the frame's variables: the
    /// activation variable and every variable allocated while the frame was
    /// the default clause frame are queued for [`Solver::release_var`].
    pub fn retire_frame(&mut self, frame: FrameId) {
        let f = &mut self.frames[frame.0 as usize];
        if f.retired {
            return;
        }
        f.retired = true;
        let lit = f.lit;
        let vars = std::mem::take(&mut f.vars);
        if self.default_frame == Some(frame) {
            self.default_frame = None;
        }
        self.add_clause_root([!lit]);
        for var in vars {
            self.release_var(var);
        }
        self.release_var(lit.var());
    }

    /// Decides satisfiability with the given frames activated, under extra
    /// assumptions.
    ///
    /// # Panics
    ///
    /// Panics if any of the frames has been retired.
    pub fn solve_in(&mut self, frames: &[FrameId], assumptions: &[Lit]) -> SolveResult {
        let mut all: Vec<Lit> = frames.iter().map(|&f| self.frame_lit(f)).collect();
        all.extend_from_slice(assumptions);
        self.solve_with(&all)
    }

    /// Level-0 clause-database reduction: removes clauses that are already
    /// satisfied by the top-level assignment, compacts the watch lists,
    /// reclaims released variables into the recycling free list, and runs a
    /// clause-arena garbage collection when enough bytes are wasted.
    ///
    /// This is what reclaims retired frames ([`Solver::retire_frame`]) and
    /// constraints subsumed by unit clauses, so long-running incremental
    /// sessions do not grow without bound.  Safe to call between solve calls;
    /// must not be called while a solve is in progress.
    pub fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        let started = self.checkpoint_start();
        if self.propagate().is_some() {
            self.ok = false;
            self.fire_checkpoint(Checkpoint::Simplify, started);
            return;
        }
        let satisfied_at_root =
            |solver: &Solver, cref: ClauseRef| {
                solver.db.lits(cref).iter().any(|&l| {
                    solver.lit_value(l) == LBool::True && solver.level[l.var().index()] == 0
                })
            };
        let victims: Vec<ClauseRef> = self
            .db
            .live_refs()
            .filter(|&cref| satisfied_at_root(self, cref))
            .collect();
        for cref in victims {
            self.delete_clause(cref);
        }
        self.prune_watchers();
        self.process_releases();
        let elim_started = self.checkpoint_start();
        self.eliminate_vars();
        self.fire_checkpoint(Checkpoint::Eliminate, elim_started);
        self.db.compact_live();
        self.maybe_gc();
        self.fire_checkpoint(Checkpoint::Simplify, started);
    }

    /// Tombstones a clause, dropping any level-0 reason reference to it and
    /// keeping the problem-clause count in step.
    fn delete_clause(&mut self, cref: ClauseRef) {
        // A satisfied clause may still be recorded as the reason of a
        // level-0 assignment; level-0 assignments are permanent, so the
        // reason is never consulted again and can be dropped.
        let first = self.db.lit(cref, 0);
        if self.reason[first.var().index()] == Some(cref) {
            self.reason[first.var().index()] = None;
        }
        if !self.db.is_learnt(cref) {
            self.num_problem_clauses = self.num_problem_clauses.saturating_sub(1);
        }
        self.db.delete(cref);
    }

    fn prune_watchers(&mut self) {
        for watchers in &mut self.watches {
            let db = &self.db;
            watchers.retain(|w| !db.is_deleted(w.cref));
        }
    }

    /// Reclaims pending-released variables ([`Solver::release_var`]) whose
    /// last live mention is gone.  Runs at decision level 0 (from
    /// [`Solver::simplify`]).
    ///
    /// Live *learnt* clauses mentioning a pending variable are deleted first:
    /// they are redundant by definition, and without this step a binary
    /// learnt clause (never touched by `reduce_db`) could pin a spent Tseitin
    /// variable forever.  A live *problem* clause mentioning the variable
    /// keeps it pending — the caller released it prematurely.
    ///
    /// A reclaimed variable that is still assigned at level 0 (the retired
    /// frame's activation variable, fixed false by [`Solver::retire_frame`])
    /// is unassigned: at this point no live clause mentions it, every clause
    /// deleted because of its assignment itself mentioned it, and no learnt
    /// clause produced while it was assigned can depend on it (no clause
    /// mentioning it could propagate), so dropping the assignment only
    /// forgets information.
    fn process_releases(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.pending_release.is_empty() {
            return;
        }
        let mut pending = vec![false; self.num_vars];
        for v in &self.pending_release {
            pending[v.index()] = true;
        }
        let db = &self.db;
        let blockers: Vec<ClauseRef> = db
            .learnt_refs()
            .filter(|&c| db.lits(c).iter().any(|l| pending[l.var().index()]))
            .collect();
        let pruned_any = !blockers.is_empty();
        for cref in blockers {
            self.delete_clause(cref);
        }
        if pruned_any {
            self.prune_watchers();
        }

        let mut mentioned = vec![false; self.num_vars];
        for cref in self.db.live_refs() {
            for l in self.db.lits(cref) {
                mentioned[l.var().index()] = true;
            }
        }
        // The elimination reconstruction stack references variables outside
        // the live clause set; reclaiming one would let `new_var` hand it out
        // with a different meaning while stored clauses still mention it.
        for record in &self.elim_stack {
            mentioned[record.var.index()] = true;
            for clause in &record.clauses {
                for l in clause {
                    mentioned[l.var().index()] = true;
                }
            }
        }

        let pending_vars = std::mem::take(&mut self.pending_release);
        let mut unassign: Vec<Var> = Vec::new();
        for var in pending_vars {
            if mentioned[var.index()] {
                self.pending_release.push(var);
                continue;
            }
            if self.assigns[var.index()] != LBool::Undef {
                debug_assert_eq!(self.level[var.index()], 0);
                unassign.push(var);
            }
            self.recycling[var.index()] = Recycling::Free;
            self.free_vars.push(var);
            self.stats.recycled_vars += 1;
        }
        if !unassign.is_empty() {
            let mut drop = vec![false; self.num_vars];
            for v in &unassign {
                drop[v.index()] = true;
            }
            self.trail.retain(|l| !drop[l.var().index()]);
            self.qhead = self.trail.len();
            // Free variables stay out of the branching heap until
            // `reset_var` hands them out again.
            for var in unassign {
                self.assigns[var.index()] = LBool::Undef;
                self.reason[var.index()] = None;
            }
        }
    }

    /// Compacts the clause arena when the wasted fraction exceeds
    /// [`SolverConfig::gc_wasted_ratio`].
    fn maybe_gc(&mut self) {
        let ratio = self.config.gc_wasted_ratio;
        if ratio == 0.0 {
            // Forced testing mode: relocate at every check point, waste or no
            // waste, so the differential suite exercises the remap machinery
            // as hostilely as possible.
            self.collect_garbage();
        } else if ratio.is_finite()
            && self.db.wasted_words() > 0
            && self.db.wasted_words() as f64 >= ratio * self.db.arena_words() as f64
        {
            self.collect_garbage();
        }
    }

    /// Unconditionally compacts the clause arena: live clauses move into a
    /// fresh contiguous allocation and every watch-list and reason reference
    /// is remapped.  Normally triggered automatically (see
    /// [`SolverConfig::gc_wasted_ratio`]); public for callers that want to
    /// release memory at a deterministic point.
    pub fn collect_garbage(&mut self) {
        let started = self.checkpoint_start();
        let map = self.db.collect_garbage();
        for watchers in &mut self.watches {
            watchers.retain_mut(|w| match map.remap(w.cref) {
                Some(moved) => {
                    w.cref = moved;
                    true
                }
                None => false,
            });
        }
        for (index, slot) in self.reason.iter_mut().enumerate() {
            if let Some(cref) = *slot {
                *slot = map.remap(cref);
                debug_assert!(
                    slot.is_some() || self.assigns[index] == LBool::Undef || self.level[index] == 0,
                    "a reason above level 0 must survive GC"
                );
            }
        }
        self.stats.gc_runs += 1;
        self.fire_checkpoint(Checkpoint::Gc, started);
    }

    /// Decides satisfiability of the clauses added so far.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Decides satisfiability under the given assumptions.
    ///
    /// Assumption literals are forced to be true for this call only; the
    /// learnt clauses remain valid for later calls, which makes repeated
    /// solving cheap (incremental SAT).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        for lit in assumptions {
            assert!(
                lit.var().index() < self.num_vars,
                "assumption {lit} references unknown variable"
            );
        }
        self.assumptions = assumptions.to_vec();
        // Assuming an eliminated variable re-opens it, exactly like adding a
        // clause over it would.
        for i in 0..self.assumptions.len() {
            let var = self.assumptions[i].var();
            if self.eliminated[var.index()] {
                self.resurrect_var(var);
            }
        }
        if !self.ok {
            self.assumptions.clear();
            return SolveResult::Unsat;
        }
        self.max_learnts = (self.num_problem_clauses as f64 / 3.0).max(1000.0);
        self.model.get_mut().clear();
        self.model_pending.set(false);
        self.restart
            .reset_for_solve(self.config.restart_mode, self.config.restart_base);

        let result = loop {
            match self.search() {
                Some(result) => break result,
                None => {
                    if self.interrupted() {
                        break SolveResult::Unknown;
                    }
                }
            }
        };
        self.cancel_until(0);
        self.assumptions.clear();
        result
    }

    /// Returns the model value of a literal after a successful solve.
    ///
    /// Returns `None` if the last solve was not [`SolveResult::Sat`] or the
    /// variable did not exist at that time.  See [`Solver::var_value`] for
    /// eliminated variables.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.var_value(lit.var()).map(|v| v == lit.polarity())
    }

    /// Returns the model value of a variable after a successful solve.
    ///
    /// An eliminated variable ([`Solver::is_eliminated`]) gets the value of
    /// the model extended over the elimination stack.  The extension runs on
    /// the first such read after a SAT answer and is kept, so a caller that
    /// reads only frozen or otherwise uneliminated variables never pays for
    /// it; every read returns what an extension at the SAT answer would have.
    pub fn var_value(&self, var: Var) -> Option<bool> {
        if self.model_pending.get() && self.eliminated.get(var.index()) == Some(&true) {
            self.extend_model();
        }
        self.model
            .borrow()
            .get(var.index())
            .and_then(|v| v.to_bool())
    }

    /// Returns `false` if the clause set is already known to be unsatisfiable
    /// regardless of assumptions.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ------------------------------------------------------------------
    // Internal machinery.
    // ------------------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        match self.assigns[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            value => {
                let b = value == LBool::True;
                LBool::from_bool(b == lit.polarity())
            }
        }
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.len(cref) >= 2);
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    fn enqueue_checked(&mut self, lit: Lit, reason: Option<ClauseRef>) -> bool {
        match self.lit_value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.unchecked_enqueue(lit, reason);
                true
            }
        }
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let var = lit.var();
        self.assigns[var.index()] = LBool::from_bool(lit.polarity());
        self.reason[var.index()] = reason;
        self.level[var.index()] = self.decision_level() as u32;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching `!p` (stored under index `p.code()` by
            // `attach_clause`) must find a new watch or propagate.
            let false_lit = !p;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut keep = 0usize;
            let mut i = 0usize;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    watchers[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.cref;
                if self.db.is_deleted(cref) {
                    continue;
                }
                if self.db.lit(cref, 0) == false_lit {
                    self.db.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(cref, 1), false_lit);
                let first = self.db.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    watchers[keep] = Watcher {
                        cref,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lit(cref, k);
                    if self.lit_value(lk) != LBool::False {
                        self.db.swap_lits(cref, 1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                watchers[keep] = Watcher {
                    cref,
                    blocker: first,
                };
                keep += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    while i < watchers.len() {
                        watchers[keep] = watchers[i];
                        keep += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            watchers.truncate(keep);
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let trail_start = self.trail_lim[target_level];
        for idx in (trail_start..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let var = lit.var();
            self.assigns[var.index()] = LBool::Undef;
            self.phase[var.index()] = lit.polarity();
            if !self.order.contains(var) {
                self.order.insert(var, &self.activity);
            }
        }
        self.trail.truncate(trail_start);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.db.activity(cref) + self.cla_inc as f32;
        self.db.set_activity(cref, bumped);
        if bumped > 1e20 {
            let refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
            for r in refs {
                let rescaled = self.db.activity(r) * 1e-20;
                self.db.set_activity(r, rescaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.tuning.var_decay;
        self.cla_inc /= CLA_DECAY;
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize) {
        let current_level = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::from_index(0))]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.db.is_learnt(confl) {
                self.notice_clause_use(confl);
            }
            let start = usize::from(p.is_some());
            // Indexed access instead of copying the literals out: the arena
            // hands literals back by value, so the conflict walk allocates
            // nothing.
            for position in start..self.db.len(confl) {
                let q = self.db.lit(confl, position);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[lit.var().index()].expect("resolved literal must have a reason");
        }
        learnt[0] = !p.expect("conflict analysis found a UIP");

        // Cheap clause minimisation: drop literals whose reason clause is
        // entirely covered by other seen literals.
        let minimized: Vec<Lit> = learnt
            .iter()
            .enumerate()
            .filter(|&(i, &lit)| i == 0 || !self.literal_redundant(lit))
            .map(|(_, &lit)| lit)
            .collect();

        // Clear the `seen` flags for the literals that remain marked.
        for lit in learnt.iter().skip(1) {
            self.seen[lit.var().index()] = false;
        }
        let mut learnt = minimized;

        // Compute backtrack level and move a literal of that level to index 1.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_idx = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_idx].var().index()] {
                    max_idx = i;
                }
            }
            learnt.swap(1, max_idx);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, backtrack_level)
    }

    fn literal_redundant(&self, lit: Lit) -> bool {
        match self.reason[lit.var().index()] {
            None => false,
            Some(cref) => self
                .db
                .lits(cref)
                .iter()
                .skip(1)
                .all(|&q| self.seen[q.var().index()] || self.level[q.var().index()] == 0),
        }
    }

    /// Records the learnt clause from conflict analysis and returns its LBD
    /// (1 for unit clauses), which feeds the restart EMAs.
    fn record_learnt(&mut self, learnt: Vec<Lit>) -> u32 {
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.unchecked_enqueue(asserting, None);
            1
        } else {
            let lbd = self.compute_lbd(&learnt);
            let cref = self.db.alloc(&learnt, true);
            self.db.set_lbd(cref, lbd);
            let tier = if lbd <= self.tuning.co_lbd_bound {
                Tier::Core
            } else if lbd <= TIER2_LBD_BOUND {
                Tier::Tier2
            } else {
                Tier::Local
            };
            if tier != Tier::Local {
                self.db.set_tier(cref, tier);
            }
            self.attach_clause(cref);
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, Some(cref));
            lbd
        }
    }

    /// Advances the level-stamp epoch, growing/clearing the scratch as
    /// needed, and returns the fresh stamp value.
    fn next_lbd_stamp(&mut self) -> u32 {
        if self.lbd_stamp.len() <= self.num_vars {
            // Decision levels never exceed the variable count.
            self.lbd_stamp.resize(self.num_vars + 1, 0);
        }
        self.lbd_stamp_counter = self.lbd_stamp_counter.wrapping_add(1);
        if self.lbd_stamp_counter == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_stamp_counter = 1;
        }
        self.lbd_stamp_counter
    }

    /// Literal block distance of `lits` under the current assignment —
    /// distinct decision levels, counted allocation-free via level stamps.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let stamp = self.next_lbd_stamp();
        let mut distinct = 0u32;
        for l in lits {
            let level = self.level[l.var().index()] as usize;
            if self.lbd_stamp[level] != stamp {
                self.lbd_stamp[level] = stamp;
                distinct += 1;
            }
        }
        distinct
    }

    /// [`Solver::compute_lbd`] over a stored clause, by indexed access (the
    /// arena cannot be borrowed as a slice while the stamps are written).
    fn clause_lbd(&mut self, cref: ClauseRef) -> u32 {
        let stamp = self.next_lbd_stamp();
        let mut distinct = 0u32;
        for position in 0..self.db.len(cref) {
            let level = self.level[self.db.lit(cref, position).var().index()] as usize;
            if self.lbd_stamp[level] != stamp {
                self.lbd_stamp[level] = stamp;
                distinct += 1;
            }
        }
        distinct
    }

    /// Bookkeeping when a learnt clause participates in conflict analysis:
    /// bump its activity, mark it used (which shields TIER2 members at the
    /// next reduction) and recompute its LBD, promoting it on improvement —
    /// the Glucose "LBD updated during conflict analysis" rule.
    fn notice_clause_use(&mut self, cref: ClauseRef) {
        self.bump_clause(cref);
        self.db.set_used(cref, true);
        let old = self.db.lbd(cref);
        if old > 1 {
            let new = self.clause_lbd(cref);
            if new < old {
                self.db.set_lbd(cref, new);
                if new <= self.tuning.co_lbd_bound {
                    self.db.set_tier(cref, Tier::Core);
                } else if new <= TIER2_LBD_BOUND && self.db.tier(cref) == Tier::Local {
                    self.db.set_tier(cref, Tier::Tier2);
                }
            }
        }
    }

    fn clause_locked(&self, cref: ClauseRef) -> bool {
        if self.db.is_deleted(cref) {
            return false;
        }
        let l0 = self.db.lit(cref, 0);
        self.lit_value(l0) == LBool::True && self.reason[l0.var().index()] == Some(cref)
    }

    /// Tiered learnt-database reduction (Chan-Seok / Glucose lineage).
    ///
    /// CORE clauses are never deleted.  TIER2 clauses that participated in a
    /// conflict since the last round stay (their used flag is cleared);
    /// idle ones are demoted to LOCAL, where they compete from the next
    /// round on.  The lowest-activity half of the LOCAL tier (ties broken by
    /// larger LBD) is evicted, skipping binary and locked clauses.  The
    /// candidate buffer is reused across rounds — reduction allocates
    /// nothing in steady state.
    fn reduce_db(&mut self) {
        let started = self.checkpoint_start();
        self.stats.reductions += 1;
        let mut scratch = std::mem::take(&mut self.reduce_scratch);
        scratch.clear();
        scratch.extend(
            self.db
                .learnt_refs()
                .map(|cref| (self.db.activity(cref), self.db.lbd(cref), cref)),
        );
        // Tier maintenance pass; LOCAL clauses become eviction candidates,
        // compacted to the front of the scratch buffer.
        let mut candidates = 0usize;
        for i in 0..scratch.len() {
            let entry = scratch[i];
            let cref = entry.2;
            match self.db.tier(cref) {
                Tier::Core => self.db.set_used(cref, false),
                Tier::Tier2 => {
                    if self.db.is_used(cref) {
                        self.db.set_used(cref, false);
                    } else {
                        self.db.set_tier(cref, Tier::Local);
                    }
                }
                Tier::Local => {
                    if self.db.len(cref) > 2 && !self.clause_locked(cref) {
                        scratch[candidates] = entry;
                        candidates += 1;
                    }
                }
            }
        }
        scratch.truncate(candidates);
        // Remove the half with the lowest activity (ties broken by larger LBD).
        scratch.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });
        let to_remove = scratch.len() / 2;
        for &(_, _, cref) in scratch.iter().take(to_remove) {
            self.db.delete(cref);
        }
        self.reduce_scratch = scratch;
        self.max_learnts *= 1.1;
        self.maybe_gc();
        self.fire_checkpoint(Checkpoint::ReduceDb, started);
    }

    /// The unassigned variable of highest activity.  Eliminated variables
    /// are left to model reconstruction, and free-listed ones appear in no
    /// clause, so a decision on either would be pure overhead.  A skipped
    /// variable leaves the heap until resurrection or `reset_var` puts it
    /// back.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop_max(&self.activity) {
            if self.assigns[var.index()] == LBool::Undef
                && !self.eliminated[var.index()]
                && self.recycling[var.index()] != Recycling::Free
            {
                return Some(var);
            }
        }
        None
    }

    /// One-shot instance classification (adaptive strategy switching).
    ///
    /// After `adapt_after_conflicts` cumulative conflicts, the search profile
    /// gathered so far — decisions per conflict, the longest run of
    /// consecutive conflicts, and the average learnt-clause LBD — picks a
    /// [`SearchStrategy`] and retunes restart/decay/tier parameters to match,
    /// in the spirit of splr's `SearchStrategy` adaptation.  Runs at most
    /// once per solver lifetime so long-lived incremental sessions settle on
    /// a profile instead of oscillating.
    fn maybe_adapt(&mut self) {
        if !self.config.adapt_strategy
            || self.strategy != SearchStrategy::Initial
            || self.stats.conflicts < self.config.adapt_after_conflicts
        {
            return;
        }
        let conflicts = self.stats.conflicts.max(1) as f64;
        let decisions_per_conflict = self.stats.decisions as f64 / conflicts;
        let average_lbd = self.lbd_sum as f64 / conflicts;
        let strategy = if decisions_per_conflict < 1.2 {
            // Propagation-dominated: almost every decision conflicts, so keep
            // more clauses and slow the activity churn.
            self.tuning.co_lbd_bound = self.tuning.co_lbd_bound.max(4);
            self.tuning.var_decay = 0.99;
            SearchStrategy::LowDecisions
        } else if self.max_conflict_streak >= 100 {
            // Long conflict bursts: EMA forcing fires constantly and just
            // thrashes; fall back to the noise-immune Luby schedule.
            self.config.restart_mode = RestartMode::Luby;
            self.restart
                .set_mode(RestartMode::Luby, self.config.restart_base);
            self.tuning.var_decay = 0.99;
            SearchStrategy::HighSuccessive
        } else if average_lbd < 4.0 {
            // Glue-rich: the learnt clauses are strong, so churn activities
            // faster to exploit them.
            self.tuning.var_decay = 0.91;
            SearchStrategy::ManyGlues
        } else if self.max_conflict_streak < 5 {
            // Conflicts arrive isolated; restarts rarely help, so demand a
            // larger LBD degradation before forcing one.
            self.tuning.restart_thr = self.tuning.restart_thr.max(1.4);
            SearchStrategy::LowSuccessive
        } else {
            SearchStrategy::Generic
        };
        self.strategy = strategy;
        if strategy != SearchStrategy::Generic {
            self.stats.strategy_switches += 1;
        }
    }

    /// Runs the CDCL loop until decided or a restart fires.
    ///
    /// Returns `Some(result)` when decided, or `None` to request a restart
    /// (pacing is delegated to the [`RestartState`]).
    fn search(&mut self) -> Option<SolveResult> {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflict_streak += 1;
                self.max_conflict_streak = self.max_conflict_streak.max(self.conflict_streak);
                if self.stats.conflicts.is_multiple_of(128) && self.interrupted() {
                    return Some(SolveResult::Unknown);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, backtrack_level) = self.analyze(confl);
                self.cancel_until(backtrack_level);
                let lbd = self.record_learnt(learnt);
                self.lbd_sum += u64::from(lbd);
                self.restart.on_conflict(lbd, self.trail.len());
                self.decay_activities();
                self.maybe_adapt();
                // Cheap threshold check; only compacts when the wasted
                // fraction crossed `gc_wasted_ratio` (every conflict in the
                // forced-GC testing mode, ratio 0.0).
                self.maybe_gc();
            } else {
                self.conflict_streak = 0;
                if self.interrupted() {
                    return Some(SolveResult::Unknown);
                }
                match self
                    .restart
                    .check(self.trail.len(), self.tuning.restart_thr)
                {
                    RestartDecision::Continue => {}
                    RestartDecision::Blocked => {
                        self.stats.restarts_blocked += 1;
                    }
                    RestartDecision::RestartLuby => {
                        self.stats.restarts += 1;
                        self.stats.restarts_luby += 1;
                        self.restart.on_restart(self.config.restart_base);
                        self.cancel_until(0);
                        self.fire_checkpoint_event(Checkpoint::Restart);
                        return None;
                    }
                    RestartDecision::RestartEma => {
                        self.stats.restarts += 1;
                        self.stats.restarts_ema += 1;
                        self.restart.on_restart(self.config.restart_base);
                        self.cancel_until(0);
                        self.fire_checkpoint_event(Checkpoint::Restart);
                        return None;
                    }
                }
                if self.db.num_removable() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Handle assumptions, then fall back to the activity heuristic.
                let mut next: Option<Lit> = None;
                while self.decision_level() < self.assumptions.len() {
                    let p = self.assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Dummy level so assumption indices line up.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // The assumptions are inconsistent with the clauses.
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(lit) => Some(lit),
                    None => self
                        .pick_branch_var()
                        .map(|var| Lit::new(var, !self.phase[var.index()])),
                };
                match decision {
                    None => {
                        // Every variable is assigned: we have a model.
                        // Eliminated variables were never branched on; the
                        // reconstruction stack fills them in when one is
                        // first read.
                        let model = self.model.get_mut();
                        model.clear();
                        model.extend_from_slice(&self.assigns);
                        self.model_pending.set(!self.elim_stack.is_empty());
                        return Some(SolveResult::Sat);
                    }
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(lit, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SolverStats::fields` must enumerate every struct field: the derived
    /// `Debug` output names each field exactly once, so its names are the
    /// ground truth the canonical accessor is checked against.
    #[test]
    fn stats_fields_cover_the_struct() {
        let mut stats = SolverStats::default();
        for (i, (name, _)) in SolverStats::default().fields().iter().enumerate() {
            assert!(stats.set_field(name, (i + 1) as u64), "set_field({name})");
        }
        let debug = format!("{stats:?}");
        let debug_fields: Vec<&str> = debug
            .trim_start_matches("SolverStats {")
            .trim_end_matches('}')
            .split(',')
            .filter_map(|part| part.split(':').next())
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .collect();
        let listed: Vec<&str> = stats.fields().iter().map(|&(name, _)| name).collect();
        assert_eq!(
            listed, debug_fields,
            "SolverStats::fields is out of step with the struct definition"
        );
        // Round trip: set_field above wrote i + 1 into field i.
        for (i, (name, value)) in stats.fields().iter().enumerate() {
            assert_eq!(*value, (i + 1) as u64, "{name}");
        }
        assert!(!stats.set_field("no_such_field", 1));
    }

    /// Absorbing sums counters and footprint gauges but keeps the larger
    /// LBD EMA: a sum of two averages is not an average.
    #[test]
    fn absorb_takes_the_max_of_the_emas() {
        let mut pool = SolverStats {
            conflicts: 10,
            arena_bytes: 100,
            ema_lbd_fast_milli: 2000,
            ema_lbd_slow_milli: 3000,
            ..SolverStats::default()
        };
        pool.absorb(&SolverStats {
            conflicts: 5,
            arena_bytes: 50,
            ema_lbd_fast_milli: 3000,
            ema_lbd_slow_milli: 2000,
            ..SolverStats::default()
        });
        assert_eq!(pool.ema_lbd_fast_milli, 3000);
        assert_eq!(pool.ema_lbd_slow_milli, 3000);
        assert_eq!(pool.conflicts, 15);
        assert_eq!(pool.arena_bytes, 150);
    }

    /// The checkpoint hook observes GC and reduction phases without changing
    /// solver behaviour.
    #[test]
    fn checkpoint_hook_reports_gc() {
        use std::sync::atomic::AtomicU64;
        let gc_seen = Arc::new(AtomicU64::new(0));
        let mut s = Solver::new();
        let seen = Arc::clone(&gc_seen);
        s.set_checkpoint_hook(Some(Box::new(move |which, duration| {
            assert!(duration >= Duration::ZERO);
            if which == Checkpoint::Gc {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        })));
        s.ensure_vars(2);
        s.add_clause(lits(&[1, 2]));
        s.collect_garbage();
        assert_eq!(s.stats().gc_runs, 1);
        assert_eq!(gc_seen.load(Ordering::Relaxed), 1);
        s.set_checkpoint_hook(None);
        s.collect_garbage();
        assert_eq!(gc_seen.load(Ordering::Relaxed), 1, "hook cleared");
    }

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&v| Lit::new(Var::from_index(v.unsigned_abs() as usize - 1), v < 0))
            .collect()
    }

    fn solver_with(num_vars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        s.ensure_vars(num_vars);
        for c in clauses {
            s.add_clause(lits(c));
        }
        s
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = solver_with(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for i in 0..4 {
            assert_eq!(s.var_value(Var::from_index(i)), Some(true));
        }
    }

    #[test]
    fn simple_conflict_analysis() {
        // (a|b) & (a|!b) & (!a|c) & (!a|!c) is unsat.
        let mut s = solver_with(3, &[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let a = Lit::new(Var::from_index(0), true);
        let b = Lit::new(Var::from_index(1), true);
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        // Without assumptions the formula is satisfiable again.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
        assert_eq!(s.var_value(Var::from_index(1)), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Pigeon i in hole j -> var index i*2 + j.
        let mut s = Solver::new();
        s.ensure_vars(6);
        let v = |i: usize, j: usize| Lit::positive(Var::from_index(i * 2 + j));
        for i in 0..3 {
            s.add_clause([v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!v(i1, j), !v(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_is_sat_with_correct_parity() {
        // x1 ^ x2 = 1, x2 ^ x3 = 0, x3 ^ x1 = 1 is satisfiable.
        let mut s = Solver::new();
        s.ensure_vars(3);
        let l = |i: usize, neg: bool| Lit::new(Var::from_index(i), neg);
        // x1 ^ x2 = 1
        s.add_clause([l(0, false), l(1, false)]);
        s.add_clause([l(0, true), l(1, true)]);
        // x2 ^ x3 = 0  (equality)
        s.add_clause([l(1, true), l(2, false)]);
        s.add_clause([l(1, false), l(2, true)]);
        // x3 ^ x1 = 1
        s.add_clause([l(2, false), l(0, false)]);
        s.add_clause([l(2, true), l(0, true)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let x1 = s.var_value(Var::from_index(0)).unwrap();
        let x2 = s.var_value(Var::from_index(1)).unwrap();
        let x3 = s.var_value(Var::from_index(2)).unwrap();
        assert!(x1 ^ x2);
        assert!(!(x2 ^ x3));
        assert!(x3 ^ x1);
    }

    #[test]
    fn model_satisfies_formula() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![2, 3, 4],
            vec![-2, -4],
            vec![1, -2, 3, -4],
        ];
        let slices: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(4, &slices);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<bool> = (0..4)
            .map(|i| s.var_value(Var::from_index(i)).unwrap())
            .collect();
        for clause in &clauses {
            assert!(clause.iter().any(|&v| {
                let idx = v.unsigned_abs() as usize - 1;
                model[idx] == (v > 0)
            }));
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-3, -2]]);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.solves >= 1);
    }

    #[test]
    fn frame_clauses_are_only_active_when_selected() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        let frame = s.push_frame();
        // Scoped constraint: !a and !b — contradicts (a | b) when active.
        s.add_clause_in(frame, [Lit::negative(a)]);
        s.add_clause_in(frame, [Lit::negative(b)]);
        assert_eq!(
            s.solve(),
            SolveResult::Sat,
            "dormant frame must not constrain"
        );
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat, "frame deactivates again");
    }

    #[test]
    fn retired_frame_is_logically_deleted() {
        let mut s = Solver::new();
        let a = s.new_var();
        let frame = s.push_frame();
        s.add_clause_in(frame, [Lit::negative(a)]);
        s.add_clause([Lit::positive(a)]);
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Unsat);
        s.retire_frame(frame);
        assert!(s.frame_retired(frame));
        // Retiring twice is a no-op.
        s.retire_frame(frame);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn solving_in_a_retired_frame_panics() {
        let mut s = Solver::new();
        let frame = s.push_frame();
        s.retire_frame(frame);
        let _ = s.solve_in(&[frame], &[]);
    }

    #[test]
    fn frames_mix_with_assumptions_and_each_other() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let f1 = s.push_frame();
        let f2 = s.push_frame();
        s.add_clause_in(f1, [Lit::positive(x)]);
        s.add_clause_in(f2, [Lit::negative(x), Lit::positive(y)]);
        assert_eq!(s.solve_in(&[f1, f2], &[]), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(x)), Some(true));
        assert_eq!(s.value(Lit::positive(y)), Some(true));
        assert_eq!(
            s.solve_in(&[f1, f2], &[Lit::negative(y)]),
            SolveResult::Unsat
        );
        // f2 alone leaves x free.
        assert_eq!(
            s.solve_in(&[f2], &[Lit::negative(x), Lit::negative(y)]),
            SolveResult::Sat
        );
    }

    #[test]
    fn simplify_reclaims_retired_and_subsumed_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        let frame = s.push_frame();
        for _ in 0..10 {
            s.add_clause_in(frame, [Lit::negative(a), Lit::negative(b)]);
        }
        let before = s.num_clauses();
        s.retire_frame(frame);
        s.simplify();
        assert!(
            s.num_clauses() < before,
            "simplify must delete the retired frame's clauses ({} -> {})",
            before,
            s.num_clauses()
        );
        // The solver is still correct afterwards.
        assert_eq!(s.solve_with(&[Lit::negative(a)]), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(b)), Some(true));
    }

    #[test]
    fn simplify_keeps_solver_sound_under_unit_subsumption() {
        // Pin a variable, simplify away the satisfied clauses, and keep solving.
        let mut s = solver_with(4, &[&[1, 2], &[-1, 3], &[2, 3, 4], &[-3, -4]]);
        s.add_clause(lits(&[1]));
        s.simplify();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.var_value(Var::from_index(0)), Some(true));
        assert_eq!(s.var_value(Var::from_index(2)), Some(true));
        assert_eq!(s.var_value(Var::from_index(3)), Some(false));
        s.add_clause(lits(&[-2]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn learnt_clauses_survive_frame_retirement() {
        // Solve a contradiction-rich query inside a frame, retire it, and
        // check the solver still answers follow-up queries correctly.
        let mut s = Solver::new();
        let n = 12;
        s.ensure_vars(n);
        let v = |i: usize| Lit::positive(Var::from_index(i));
        // Permanent: a parity-ish chain.
        for i in 0..n - 1 {
            s.add_clause([v(i), v(i + 1)]);
            s.add_clause([!v(i), !v(i + 1)]);
        }
        let frame = s.push_frame();
        s.add_clause_in(frame, [v(0)]);
        s.add_clause_in(frame, [v(n - 1)]);
        // n even: alternating chain forces v(n-1) != v(0) — frame is unsat.
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Unsat);
        let learnt_before = s.stats().learnt_clauses;
        s.retire_frame(frame);
        s.simplify();
        assert_eq!(s.solve(), SolveResult::Sat);
        let _ = learnt_before; // retirement itself must not clear the database
        assert!(s.is_ok());
    }

    #[test]
    fn default_frame_scopes_plain_add_clause() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        assert_eq!(s.default_frame(), Some(frame));
        // Routed through the default frame: contradicts (a | b) only when the
        // frame is activated.
        s.add_clause([Lit::negative(a)]);
        s.add_clause([Lit::negative(b)]);
        s.set_default_frame(None);
        assert_eq!(s.default_frame(), None);
        s.add_clause([Lit::positive(a)]); // back at the root: permanent
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Unsat);
        s.retire_frame(frame);
        s.simplify();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    fn explicit_frame_wins_over_default_frame() {
        let mut s = Solver::new();
        let a = s.new_var();
        let f1 = s.push_frame();
        let f2 = s.push_frame();
        s.set_default_frame(Some(f1));
        // Explicitly scoped to f2 despite the f1 default.
        s.add_clause_in(f2, [Lit::negative(a)]);
        s.set_default_frame(None);
        s.add_clause([Lit::positive(a)]);
        assert_eq!(s.solve_in(&[f1], &[]), SolveResult::Sat);
        assert_eq!(s.solve_in(&[f2], &[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_in_default_frame_poisons_only_the_frame() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        s.add_clause([]);
        s.set_default_frame(None);
        assert!(s.is_ok(), "the empty clause must stay scoped to the frame");
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The frame stays dead even after retirement and reclamation, and the
        // solver keeps working.
        s.retire_frame(frame);
        s.simplify();
        assert!(s.is_ok());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    fn retiring_the_default_frame_clears_the_default() {
        let mut s = Solver::new();
        let a = s.new_var();
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        s.retire_frame(frame);
        assert_eq!(s.default_frame(), None);
        // Plain clauses are permanent again.
        s.add_clause([Lit::positive(a)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn default_frame_on_a_retired_frame_panics() {
        let mut s = Solver::new();
        let frame = s.push_frame();
        s.retire_frame(frame);
        s.set_default_frame(Some(frame));
    }

    #[test]
    fn frame_generations_preserve_level0_facts_across_retirement() {
        // Simulates the attack-session lifecycle: permanent structure, learnt
        // level-0 facts, then repeated "generations" of frame-scoped
        // constraints that are retired and reclaimed.  The facts and the
        // permanent clauses must survive every cycle.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // (a | b) & (a | !b) forces a; the solver discovers it as a learnt
        // level-0 fact on the first solve.
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        s.add_clause([Lit::positive(a), Lit::negative(b)]);
        s.add_clause([Lit::negative(a), Lit::positive(c)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
        assert_eq!(s.value(Lit::positive(c)), Some(true));

        for generation in 0..4 {
            let frame = s.push_frame();
            s.set_default_frame(Some(frame));
            // A contradictory generation: !c clashes with the permanent
            // consequence c.
            s.add_clause([Lit::negative(c)]);
            s.set_default_frame(None);
            assert_eq!(
                s.solve_in(&[frame], &[]),
                SolveResult::Unsat,
                "generation {generation}"
            );
            let clauses_before = s.num_clauses();
            s.retire_frame(frame);
            s.simplify();
            assert!(
                s.num_clauses() <= clauses_before,
                "generation {generation}: simplify must not grow the database"
            );
            // Level-0 facts and permanent clauses are intact.
            assert!(s.is_ok(), "generation {generation}");
            assert_eq!(s.solve(), SolveResult::Sat, "generation {generation}");
            assert_eq!(s.value(Lit::positive(a)), Some(true));
            assert_eq!(s.value(Lit::positive(c)), Some(true));
        }
    }

    #[test]
    fn forced_gc_preserves_answers() {
        // gc_wasted_ratio 0.0 compacts the arena at every conflict; the
        // solver must decide exactly as the default configuration does.
        let config = SolverConfig {
            gc_wasted_ratio: 0.0,
            ..SolverConfig::default()
        };
        let mut s = Solver::with_config(config.clone());
        let n = 5;
        s.ensure_vars(n * (n - 1));
        let v = |i: usize, j: usize| Lit::positive(Var::from_index(i * (n - 1) + j));
        for i in 0..n {
            s.add_clause((0..n - 1).map(|j| v(i, j)));
        }
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!v(i1, j), !v(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().gc_runs > 0, "forced mode must actually collect");

        let mut t = Solver::with_config(config);
        t.ensure_vars(3);
        for c in [&[1, 2][..], &[-1, 3], &[-3, -2], &[2]] {
            t.add_clause(lits(c));
        }
        assert_eq!(t.solve(), SolveResult::Sat);
        assert_eq!(t.var_value(Var::from_index(1)), Some(true));
    }

    #[test]
    fn gc_compacts_wasted_arena_and_keeps_solving() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        let frame = s.push_frame();
        for _ in 0..64 {
            s.add_clause_in(frame, [Lit::negative(a), Lit::negative(b)]);
        }
        let before = s.stats().arena_bytes;
        s.retire_frame(frame);
        s.simplify();
        let after = s.stats();
        assert!(after.gc_runs >= 1, "retiring most of the arena triggers GC");
        assert_eq!(after.wasted_bytes, 0, "GC reclaims every tombstone");
        assert!(
            after.arena_bytes < before,
            "{} -> {}",
            before,
            after.arena_bytes
        );
        assert_eq!(s.solve_with(&[Lit::negative(a)]), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(b)), Some(true));
    }

    #[test]
    fn retired_frame_variables_are_recycled() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        let baseline = s.num_vars();
        for generation in 0..5 {
            let frame = s.push_frame();
            s.set_default_frame(Some(frame));
            // Three frame-scoped variables chained to the permanent one.
            let x = s.new_var();
            let y = s.new_var();
            let z = s.new_var();
            s.add_clause([Lit::negative(a), Lit::positive(x)]);
            s.add_clause([Lit::negative(x), Lit::positive(y)]);
            s.add_clause([Lit::negative(y), Lit::positive(z)]);
            s.set_default_frame(None);
            assert_eq!(
                s.solve_in(&[frame], &[]),
                SolveResult::Sat,
                "gen {generation}"
            );
            assert_eq!(s.value(Lit::positive(z)), Some(true));
            s.retire_frame(frame);
            s.simplify();
            assert_eq!(
                s.free_var_count(),
                4,
                "gen {generation}: 3 scoped vars + the activation var recycle"
            );
        }
        assert_eq!(
            s.num_vars(),
            baseline + 4,
            "five generations reuse one generation's worth of variables"
        );
        assert_eq!(s.stats().recycled_vars, 5 * 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(a)), Some(true));
    }

    #[test]
    fn release_var_waits_for_live_problem_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        s.release_var(b); // premature: a live problem clause mentions b
        s.simplify();
        assert_eq!(s.free_var_count(), 0, "b stays pending");
        assert_eq!(s.solve_with(&[Lit::negative(a)]), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(b)), Some(true));
        // Once the clause is subsumed away, the release completes.
        s.add_clause([Lit::positive(a)]);
        s.simplify();
        assert_eq!(s.free_var_count(), 1);
        assert_eq!(s.new_var(), b, "the recycled variable is handed out again");
    }

    #[test]
    fn solves_never_branch_on_free_listed_variables() {
        let mut s = Solver::new();
        let x = Lit::positive(s.new_var());
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        let (y, z) = (Lit::positive(s.new_var()), Lit::positive(s.new_var()));
        s.add_clause([y, z]);
        s.add_clause([!y, !z, x]);
        s.set_default_frame(None);
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Sat);
        s.retire_frame(frame);
        s.simplify();
        assert_eq!(s.free_var_count(), 3, "y, z and the activation variable");

        // Only `x` is left to decide; `y`, `z` and the activation variable
        // appear in no clause and must not cost a decision each.
        let before = s.stats().decisions;
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().decisions - before, 1);
        assert_eq!(s.value(y), None, "a free variable has no model value");

        // Handed out again, a recycled variable is branched on as usual.
        let w = Lit::positive(s.new_var());
        s.add_clause([w, !x]);
        let before = s.stats().decisions;
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().decisions - before <= 2);
        assert!(s.value(w).is_some());
        s.add_clause([x]);
        s.add_clause([!w]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn ensure_vars_claims_released_indices() {
        let mut s = Solver::new();
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        let x = s.new_var();
        s.add_clause([Lit::positive(x)]);
        s.set_default_frame(None);
        s.retire_frame(frame);
        s.simplify();
        assert!(s.free_var_count() > 0);
        // Bulk-loading a formula that addresses the full index range must not
        // leave any of those indices in the free list.
        s.ensure_vars(s.num_vars() + 1);
        assert_eq!(s.free_var_count(), 0);
        s.add_clause([Lit::positive(x)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Lit::positive(x)), Some(true));
    }

    #[test]
    fn stats_report_arena_and_recycling_counters() {
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-3, -2]]);
        let stats = s.stats();
        assert!(stats.arena_bytes > 0, "problem clauses live in the arena");
        assert_eq!(stats.wasted_bytes, 0);
        assert_eq!(stats.gc_runs, 0);
        assert_eq!(stats.recycled_vars, 0);
        let _ = s.solve();
        assert!(s.stats().arena_bytes >= stats.arena_bytes);
    }

    #[test]
    fn preset_interrupt_returns_unknown_and_clears() {
        let flag = Arc::new(AtomicBool::new(true));
        let mut s = solver_with(2, &[&[1, 2]]);
        s.set_interrupt(Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.set_interrupt(None);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_use_after_unsat_assumptions() {
        let mut s = solver_with(3, &[&[1, 2], &[-2, 3]]);
        let not1 = Lit::new(Var::from_index(0), true);
        let not2 = Lit::new(Var::from_index(1), true);
        assert_eq!(s.solve_with(&[not1, not2]), SolveResult::Unsat);
        assert!(s.is_ok());
        s.add_clause(lits(&[-3]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.var_value(Var::from_index(2)), Some(false));
        assert_eq!(s.var_value(Var::from_index(1)), Some(false));
        assert_eq!(s.var_value(Var::from_index(0)), Some(true));
    }

    /// A Tseitin-style definition `d <-> (a & b)` makes `d` a textbook
    /// elimination candidate: 2 positive / 1 negative occurrences, and the
    /// resolvent set does not grow the database.
    fn gate_solver() -> Solver {
        // d <-> (a & b): (-d a) (-d b) (d -a -b), plus a side constraint so
        // the instance is not trivially empty after elimination.  `a` and
        // `b` are frozen interface variables (the usual pattern), leaving
        // the definition variable `d` as the elimination target.
        let mut s = solver_with(3, &[&[-3, 1], &[-3, 2], &[3, -1, -2], &[1, 2]]);
        s.set_frozen(Var::from_index(0), true);
        s.set_frozen(Var::from_index(1), true);
        s
    }

    #[test]
    fn simplify_eliminates_gate_variable_and_model_is_reconstructed() {
        let mut s = gate_solver();
        let d = Var::from_index(2);
        s.simplify();
        assert!(s.is_eliminated(d), "definition variable gets resolved out");
        assert_eq!(s.stats().vars_eliminated, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        // The reconstructed model must satisfy the original gate clauses.
        let a = s.var_value(Var::from_index(0)).unwrap();
        let b = s.var_value(Var::from_index(1)).unwrap();
        let dv = s
            .var_value(d)
            .expect("eliminated variables get model values");
        assert_eq!(dv, a && b, "d <-> (a & b) holds in the extended model");
        assert!(a || b, "side constraint holds");
    }

    #[test]
    fn referencing_an_eliminated_variable_resurrects_it() {
        let mut s = gate_solver();
        let d = Var::from_index(2);
        s.simplify();
        assert!(s.is_eliminated(d));
        // A new clause over `d` must reopen it and stay sound: force d true,
        // which through the gate forces a and b true.
        s.add_clause([Lit::positive(d)]);
        assert!(!s.is_eliminated(d), "mentioning the variable resurrects it");
        assert_eq!(s.stats().vars_resurrected, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.var_value(Var::from_index(0)), Some(true));
        assert_eq!(s.var_value(Var::from_index(1)), Some(true));
        // Resurrected variables are never re-eliminated.
        s.simplify();
        assert!(!s.is_eliminated(d));
    }

    #[test]
    fn assuming_an_eliminated_variable_resurrects_it() {
        let mut s = gate_solver();
        let d = Var::from_index(2);
        s.simplify();
        assert!(s.is_eliminated(d));
        assert_eq!(s.solve_with(&[Lit::positive(d)]), SolveResult::Sat);
        assert!(!s.is_eliminated(d));
        assert_eq!(s.var_value(Var::from_index(0)), Some(true));
        assert_eq!(s.var_value(Var::from_index(1)), Some(true));
        assert_eq!(s.solve_with(&[Lit::negative(d)]), SolveResult::Sat);
        let a = s.var_value(Var::from_index(0)).unwrap();
        let b = s.var_value(Var::from_index(1)).unwrap();
        assert!(!(a && b), "-d forces the gate off");
    }

    #[test]
    fn frozen_variables_are_never_eliminated() {
        let mut s = gate_solver();
        let d = Var::from_index(2);
        s.set_frozen(d, true);
        s.simplify();
        assert!(!s.is_eliminated(d), "frozen variables are interface");
        assert_eq!(s.stats().vars_eliminated, 0, "all three variables frozen");
        assert!(s.is_frozen(d));
        s.set_frozen(d, false);
        s.simplify();
        assert!(s.is_eliminated(d), "unfreezing re-enables elimination");
    }

    #[test]
    fn freezing_an_eliminated_variable_resurrects_it() {
        let mut s = gate_solver();
        let d = Var::from_index(2);
        s.simplify();
        assert!(s.is_eliminated(d));
        s.set_frozen(d, true);
        assert!(!s.is_eliminated(d));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn elim_vars_off_disables_the_pass() {
        let mut s = Solver::with_config(SolverConfig {
            elim_vars: false,
            ..SolverConfig::default()
        });
        s.ensure_vars(3);
        for c in [&[-3i32, 1][..], &[-3, 2], &[3, -1, -2], &[1, 2]] {
            s.add_clause(lits(c));
        }
        s.simplify();
        assert_eq!(s.stats().vars_eliminated, 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn frame_variables_survive_elimination_and_retirement_stays_sound() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let frame = s.push_frame();
        s.set_default_frame(Some(frame));
        let t = s.new_var(); // frame-tagged Tseitin-style variable
        s.add_clause([Lit::negative(t), Lit::positive(Var::from_index(0))]);
        s.add_clause([Lit::positive(t)]);
        s.set_default_frame(None);
        s.simplify();
        assert!(
            !s.is_eliminated(t),
            "frame-tagged variables are owned by frame retirement"
        );
        assert_eq!(s.solve_in(&[frame], &[]), SolveResult::Sat);
        assert_eq!(s.var_value(Var::from_index(0)), Some(true));
        s.retire_frame(frame);
        s.simplify();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn elimination_differential_on_random_instances() {
        // Lockstep: elimination on vs off must agree on satisfiability, and
        // reconstructed models must satisfy every original clause.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for round in 0..60 {
            let num_vars = 6 + next() % 8;
            let num_clauses = 8 + next() % 24;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + next() % 3;
                let mut c: Vec<i32> = Vec::new();
                for _ in 0..len {
                    let v = 1 + (next() % num_vars) as i32;
                    c.push(if next() % 2 == 0 { v } else { -v });
                }
                clauses.push(c);
            }
            let build = |elim: bool| {
                let mut s = Solver::with_config(SolverConfig {
                    elim_vars: elim,
                    ..SolverConfig::default()
                });
                s.ensure_vars(num_vars);
                for c in &clauses {
                    s.add_clause(lits(c));
                }
                s
            };
            let mut with = build(true);
            let mut without = build(false);
            with.simplify();
            without.simplify();
            let r1 = with.solve();
            let r2 = without.solve();
            assert_eq!(r1, r2, "round {round}: statuses diverge");
            if r1 == SolveResult::Sat {
                for c in &clauses {
                    assert!(
                        lits(c).iter().any(|&l| with.value(l) == Some(true)),
                        "round {round}: reconstructed model violates {c:?}"
                    );
                }
            }
        }
    }

    /// A solver that adapts after 50 conflicts, loaded with a random 3-SAT
    /// instance at the phase-transition ratio (100 variables, 426 clauses),
    /// whose first solve spends about 200 conflicts and classifies as
    /// [`SearchStrategy::LowSuccessive`].
    fn early_adapting_solver() -> Solver {
        let mut s = Solver::with_config(SolverConfig {
            adapt_after_conflicts: 50,
            ..SolverConfig::default()
        });
        let mut seed = 5_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        let num_vars = 100;
        s.ensure_vars(num_vars);
        for _ in 0..426 {
            let mut c: Vec<i32> = Vec::new();
            for _ in 0..3 {
                let v = 1 + (next() % num_vars) as i32;
                c.push(if next() % 2 == 0 { v } else { -v });
            }
            s.add_clause(lits(&c));
        }
        s
    }

    #[test]
    fn adaptive_strategy_classifies_after_warmup() {
        let mut s = early_adapting_solver();
        assert_eq!(s.strategy(), SearchStrategy::Initial);
        let _ = s.solve();
        assert!(s.stats().conflicts >= 50, "the instance spends the warm-up");
        assert_ne!(
            s.strategy(),
            SearchStrategy::Initial,
            "warm-up spent, classification must have run"
        );
    }

    #[test]
    fn sibling_inherits_the_adapted_parameters() {
        let mut s = early_adapting_solver();
        let _ = s.solve();
        assert_ne!(s.strategy(), SearchStrategy::Initial);
        assert_ne!(s.tuning, Tuning::default(), "the classification retuned");
        let sibling = s.sibling();
        assert_eq!(sibling.tuning, s.tuning);
        assert_eq!(sibling.config, s.config);
        assert_eq!(sibling.strategy(), SearchStrategy::Initial);
        assert_eq!(sibling.stats().conflicts, 0);
    }

    #[test]
    fn adapt_strategy_off_keeps_initial() {
        let mut s = Solver::with_config(SolverConfig {
            adapt_strategy: false,
            adapt_after_conflicts: 1,
            ..SolverConfig::default()
        });
        s.ensure_vars(8);
        for c in [&[1i32, 2][..], &[-1, 3], &[-3, -2], &[2, -3, 1]] {
            s.add_clause(lits(c));
        }
        let _ = s.solve();
        assert_eq!(s.strategy(), SearchStrategy::Initial);
    }

    #[test]
    fn luby_mode_counts_luby_restarts() {
        let mut s = Solver::with_config(SolverConfig {
            restart_mode: RestartMode::Luby,
            restart_base: 1,
            ..SolverConfig::default()
        });
        let mut seed = 0x5555_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        let num_vars = 20;
        s.ensure_vars(num_vars);
        for _ in 0..90 {
            let mut c: Vec<i32> = Vec::new();
            for _ in 0..3 {
                let v = 1 + (next() % num_vars) as i32;
                c.push(if next() % 2 == 0 { v } else { -v });
            }
            s.add_clause(lits(&c));
        }
        let _ = s.solve();
        let stats = s.stats();
        assert_eq!(stats.restarts, stats.restarts_luby);
        assert_eq!(stats.restarts_ema, 0);
    }
}
