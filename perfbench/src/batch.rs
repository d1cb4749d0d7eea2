//! The oracle-less batch workloads, `ttlock_paper` and `sfll_paper`: paper
//! scale Table I circuits attacked back to back on one thread with
//! `fall_attack`, and (traced) replayed stage by stage through the public
//! stage functions with a timer around every call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fall::attack::{fall_attack, FallAttackConfig, FallStatus, StageTimings};
use fall::equivalence::candidate_equals_strip_in;
use fall::functional::{
    analyze_unateness_in, distance_2h_in, sliding_window_in, Analysis, CubeAssignment,
    PrefilterStats,
};
use fall::session::AttackSession;
use fall::structural::{find_candidates, find_comparators, CandidateNodes};
use fall_bench::{CircuitSpec, HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};
use locking::{Key, LockedCircuit, LockingScheme, SfllHd, TtLock};
use netlist::Netlist;
use netshim::Value;
use sat::SolverStats;

use crate::report::{digest, Report};
use crate::sys::{self, repeat, Watchdog};
use crate::Args;

/// Random patterns for the functional key check of every recovered key.
const KEY_CHECK_PATTERNS: usize = 64;

/// Which Table I grid a batch workload attacks.
#[derive(Clone, Copy)]
pub enum Grid {
    /// All 20 circuits under `HdPolicy::Zero` (TTLock).
    Ttlock,
    /// c1908 at h = m/8 plus ex1010 and apex4 at m/8, m/4 and m/3.
    Sfll,
}

impl Grid {
    /// `(circuit, policy, budget, seeded)`: a seeded case takes its lock
    /// from the workload seed, the others keep the canonical lock of
    /// `LockCase::build` (see `README.md` for why).
    fn cases(self) -> Vec<(&'static CircuitSpec, HdPolicy, Duration, bool)> {
        let spec = |name: &str| {
            TABLE1_CIRCUITS
                .iter()
                .find(|s| s.name == name)
                .expect("Table I circuit")
        };
        match self {
            Grid::Ttlock => TABLE1_CIRCUITS
                .iter()
                .map(|s| (s, HdPolicy::Zero, Duration::from_secs(30), true))
                .collect(),
            Grid::Sfll => {
                let mut cases = vec![(
                    spec("c1908"),
                    HdPolicy::EighthOfKeys,
                    Duration::from_secs(60),
                    false,
                )];
                for name in ["ex1010", "apex4"] {
                    for policy in [
                        HdPolicy::EighthOfKeys,
                        HdPolicy::QuarterOfKeys,
                        HdPolicy::ThirdOfKeys,
                    ] {
                        cases.push((spec(name), policy, Duration::from_secs(15), true));
                    }
                }
                cases
            }
        }
    }
}

/// One locked target of the grid.
struct Case {
    name: &'static str,
    policy: HdPolicy,
    h: usize,
    locked: LockedCircuit,
    budget: Duration,
}

/// Generates, locks and optimises one case.  The circuit is the fixed
/// Table I substitute; the lock (key, protected cube) comes from the
/// workload seed, or is the canonical one of `LockCase::build`.
fn build_case(
    spec: &'static CircuitSpec,
    policy: HdPolicy,
    budget: Duration,
    seed: Option<u64>,
) -> Case {
    let locked = match seed {
        Some(seed) => seeded_lock(spec, policy, seed),
        None => LockCase::build(spec, policy, Scale::Paper).locked,
    };
    Case {
        name: spec.name,
        policy,
        h: policy.h_for(spec.keys),
        locked,
        budget,
    }
}

/// Locks the paper-scale substitute of `spec` like `LockCase::build` does,
/// but with a lock seed drawn from the workload seed.
fn seeded_lock(spec: &CircuitSpec, policy: HdPolicy, seed: u64) -> LockedCircuit {
    let original = spec.build(Scale::Paper);
    let h = policy.h_for(spec.keys);
    let lock_seed = sys::mix(seed ^ sys::name_hash(spec.name) ^ ((h as u64) << 32));
    let locked = if matches!(policy, HdPolicy::Zero) {
        TtLock::new(spec.keys).with_seed(lock_seed).lock(&original)
    } else {
        SfllHd::new(spec.keys, h)
            .with_seed(lock_seed)
            .lock(&original)
    }
    .expect("Table I circuits are large enough to lock");
    locked.optimized()
}

/// The deterministic outputs of one attack, compared across repeats and
/// against the traced replay.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    status: FallStatus,
    shortlist: Vec<Key>,
    comparators: usize,
    candidates: usize,
    prefilter: PrefilterStats,
}

/// One untraced `fall_attack`.
struct Outcome {
    fingerprint: Fingerprint,
    interrupted: bool,
    best_key: Option<Key>,
    wall: f64,
    timings: StageTimings,
}

fn attack(case: &Case) -> Outcome {
    let flag = Arc::new(AtomicBool::new(false));
    let mut config = FallAttackConfig::for_h(case.h);
    config.interrupt = Some(Arc::clone(&flag));
    let watchdog = Watchdog::arm(flag, case.budget);
    let started = Instant::now();
    let result = fall_attack(&case.locked.locked, None, &config);
    let wall = started.elapsed().as_secs_f64();
    let interrupted = watchdog.disarm();
    Outcome {
        best_key: result.best_key().cloned(),
        fingerprint: Fingerprint {
            status: result.status,
            shortlist: result.shortlisted_keys,
            comparators: result.num_comparators,
            candidates: result.num_candidates,
            prefilter: result.prefilter,
        },
        interrupted,
        wall,
        timings: result.timings,
    }
}

/// Whether a recovered key is the known key and unlocks the circuit.
fn key_ok(case: &Case, key: Option<&Key>, seed: u64) -> bool {
    key.is_some_and(|key| {
        *key == case.locked.key
            && case
                .locked
                .key_is_functionally_correct(key, KEY_CHECK_PATTERNS, seed)
    })
}

fn policy_name(policy: HdPolicy) -> &'static str {
    match policy {
        HdPolicy::Zero => "HD0",
        HdPolicy::EighthOfKeys => "HD m/8",
        HdPolicy::QuarterOfKeys => "HD m/4",
        HdPolicy::ThirdOfKeys => "HD m/3",
    }
}

fn ledger_row(case: &Case, status: &str, key_ok: bool, wall: f64, layers: Value) -> Value {
    Value::object([
        ("circuit", Value::from(case.name)),
        ("policy", Value::from(policy_name(case.policy))),
        ("h", Value::from(case.h)),
        ("m", Value::from(case.locked.key.len())),
        ("status", Value::from(status)),
        ("key_ok", Value::from(key_ok)),
        ("wall_s", Value::from(wall)),
        ("layers", layers),
    ])
}

fn status_name(status: FallStatus, interrupted: bool) -> String {
    if interrupted {
        format!("Interrupted({status:?})")
    } else {
        format!("{status:?}")
    }
}

/// Runs a batch workload.
pub fn run(grid: Grid, args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    while sys::more_setups(&setups) {
        let started = Instant::now();
        cases = grid
            .cases()
            .into_iter()
            .map(|(spec, policy, budget, seeded)| {
                build_case(spec, policy, budget, seeded.then_some(args.seed))
            })
            .collect();
        setups.push(started.elapsed().as_secs_f64());
    }

    let attack_pass = || {
        let cpu = sys::cpu_total_s();
        let started = Instant::now();
        let outcomes: Vec<Outcome> = cases.iter().map(attack).collect();
        let wall = started.elapsed().as_secs_f64();
        ((outcomes, sys::cpu_total_s() - cpu), wall)
    };

    if !args.trace {
        let passes = repeat(args.seconds, attack_pass);
        let first = &passes[0].0 .0;
        for ((outcomes, _), _) in &passes {
            for ((case, outcome), reference) in cases.iter().zip(outcomes).zip(first) {
                if outcome.fingerprint != reference.fingerprint {
                    report.errors.push(format!(
                        "{} {}: outputs differ between repeats",
                        case.name,
                        policy_name(case.policy)
                    ));
                }
                let ok = !outcome.interrupted && key_ok(case, outcome.best_key.as_ref(), args.seed);
                report.verdict(ok);
            }
        }
        for (case, outcome) in cases.iter().zip(first) {
            let t = &outcome.timings;
            let layers = Value::object([
                ("comparators_s", Value::from(t.comparators.as_secs_f64())),
                (
                    "support_match_s",
                    Value::from(t.support_matching.as_secs_f64()),
                ),
                ("functional_s", Value::from(t.functional.as_secs_f64())),
                ("equivalence_s", Value::from(t.equivalence.as_secs_f64())),
            ]);
            let ok = !outcome.interrupted && key_ok(case, outcome.best_key.as_ref(), args.seed);
            let status = status_name(outcome.fingerprint.status, outcome.interrupted);
            report
                .ledger
                .push(ledger_row(case, &status, ok, outcome.wall, layers));
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.0 .1).collect();
        report.set("setup_s", sys::median(&setups));
        report.passes(&walls, &cpus);
        let latencies: Vec<Vec<f64>> = passes
            .iter()
            .map(|((outcomes, _), _)| outcomes.iter().map(|o| o.wall).collect())
            .collect();
        report.attack_latency(&latencies);
        let outputs: Vec<String> = first
            .iter()
            .map(|o| format!("{:?}", o.fingerprint))
            .collect();
        report.notes.insert(
            "counters",
            Value::from(format!("{:016x}", sys::name_hash(&outputs.join(";")))),
        );
        return;
    }

    // Traced run: one untraced `fall_attack` pass is the reference for the
    // replay's outputs and the denominator of the tracing overhead.
    let ((reference, _), reference_wall) = attack_pass();
    let budget = (args.seconds - reference_wall).max(0.0);
    let replays = repeat(budget, || {
        let started = Instant::now();
        let replays: Vec<Replay> = cases.iter().map(replay).collect();
        (replays, started.elapsed().as_secs_f64())
    });
    check_replays(&replays, report);
    let (replays, replay_wall) = &replays[0];
    let mut case_wall = 0.0;
    let mut layer_time = 0.0;
    let mut stats: Vec<SolverStats> = Vec::new();
    for ((case, outcome), replay) in cases.iter().zip(&reference).zip(replays) {
        if replay.fingerprint != outcome.fingerprint {
            report.errors.push(format!(
                "{} {}: replay shortlist or counters differ from fall_attack: {:?} vs {:?}",
                case.name,
                policy_name(case.policy),
                replay.fingerprint,
                outcome.fingerprint
            ));
        }
        let ok = !outcome.interrupted
            && !replay.interrupted
            && key_ok(case, outcome.best_key.as_ref(), args.seed);
        report.verdict(ok);
        case_wall += replay.wall;
        layer_time += replay.layer_time();
        replay.add_to(report);
        stats.push(replay.stats);
        let status = status_name(replay.fingerprint.status, replay.interrupted);
        report.ledger.push(ledger_row(
            case,
            &status,
            ok,
            replay.wall,
            replay.layers_value(),
        ));
    }
    add_solver_stats(report, &stats);
    let calls: u64 = replays.iter().map(|r| r.calls).sum();
    let cubes: u64 = replays.iter().map(|r| r.cubes).sum();
    let passed: u64 = replays.iter().map(|r| r.equivalent_cubes).sum();
    report.set(
        "functional.useful_ratio",
        ratio(passed as f64, calls as f64),
    );
    report.set("equivalence.pass_ratio", ratio(passed as f64, cubes as f64));
    report.set("trace.coverage", ratio(layer_time, case_wall));
    report.set("trace.overhead_frac", replay_wall / reference_wall - 1.0);
    report.set("setup_s", sys::median(&setups));
}

/// Checks that every replay pass reproduced the first one's solver
/// counters exactly.
fn check_replays(passes: &[(Vec<Replay>, f64)], report: &mut Report) {
    let first = &passes[0];
    for (later, _) in &passes[1..] {
        for (a, b) in first.0.iter().zip(later) {
            if a.digest() != b.digest() {
                report.errors.push(format!(
                    "replay counters differ between repeats: {} vs {}",
                    a.digest(),
                    b.digest()
                ));
            }
        }
    }
    let digests: Vec<String> = first.0.iter().map(Replay::digest).collect();
    report.notes.insert(
        "counters",
        Value::from(format!("{:016x}", sys::name_hash(&digests.join(";")))),
    );
    report.notes.insert("replays", Value::from(passes.len()));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Adds the solver counters of a set of sessions; `sat.arena_bytes` is
/// their pool footprint, the sum of their final arena sizes.
pub fn add_solver_stats(report: &mut Report, stats: &[SolverStats]) {
    for s in stats {
        report.add("sat.solves", s.solves as f64);
        report.add("sat.conflicts", s.conflicts as f64);
        report.add("sat.propagations", s.propagations as f64);
        report.add("sat.decisions", s.decisions as f64);
        report.add("sat.restarts", s.restarts as f64);
        report.add("sat.reductions", s.reductions as f64);
        report.add("sat.gc_runs", s.gc_runs as f64);
        report.add("sat.vars_eliminated", s.vars_eliminated as f64);
        report.add("sat.arena_bytes", s.arena_bytes as f64);
    }
}

/// One case replayed through the public stage functions.
struct Replay {
    fingerprint: Fingerprint,
    interrupted: bool,
    wall: f64,
    comparators_s: f64,
    support_match_s: f64,
    unateness_s: f64,
    sliding_window_s: f64,
    distance_2h_s: f64,
    equivalence_s: f64,
    calls: u64,
    cubes: u64,
    equivalent_cubes: u64,
    cone_encodings: u64,
    /// 1 when the case got far enough to build an `AttackSession`.
    sessions: u64,
    stats: SolverStats,
}

impl Replay {
    fn layer_time(&self) -> f64 {
        self.comparators_s
            + self.support_match_s
            + self.unateness_s
            + self.sliding_window_s
            + self.distance_2h_s
            + self.equivalence_s
    }

    fn add_to(&self, report: &mut Report) {
        report.add("structural.comparators_s", self.comparators_s);
        report.add("structural.support_match_s", self.support_match_s);
        report.add("structural.candidates", self.fingerprint.candidates as f64);
        report.add("functional.unateness_s", self.unateness_s);
        report.add("functional.sliding_window_s", self.sliding_window_s);
        report.add("functional.distance_2h_s", self.distance_2h_s);
        report.add("functional.calls", self.calls as f64);
        report.add("functional.cubes", self.cubes as f64);
        let p = &self.fingerprint.prefilter;
        report.add("prefilter.patterns_simulated", p.patterns_simulated as f64);
        report.add("prefilter.candidates_refuted", p.candidates_refuted as f64);
        report.add("prefilter.polarities_refuted", p.polarities_refuted as f64);
        report.add("equivalence.s", self.equivalence_s);
        report.add("equivalence.checks", self.cubes as f64);
        report.add("session.cone_encodings_built", self.cone_encodings as f64);
        report.add("session.sessions_created", self.sessions as f64);
    }

    fn layers_value(&self) -> Value {
        Value::object([
            ("comparators_s", Value::from(self.comparators_s)),
            ("support_match_s", Value::from(self.support_match_s)),
            ("unateness_s", Value::from(self.unateness_s)),
            ("sliding_window_s", Value::from(self.sliding_window_s)),
            ("distance_2h_s", Value::from(self.distance_2h_s)),
            ("equivalence_s", Value::from(self.equivalence_s)),
            ("functional_calls", Value::from(self.calls)),
            ("cubes", Value::from(self.cubes)),
            ("sat_solves", Value::from(self.stats.solves)),
            ("sat_conflicts", Value::from(self.stats.conflicts)),
        ])
    }

    fn digest(&self) -> String {
        let s = &self.stats;
        digest(&[
            ("solves", s.solves),
            ("conflicts", s.conflicts),
            ("propagations", s.propagations),
            ("decisions", s.decisions),
            ("calls", self.calls),
            ("cubes", self.cubes),
        ])
    }
}

/// Adds the elapsed time of `f` to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    *total += started.elapsed().as_secs_f64();
    value
}

/// Replays `fall_attack`'s oracle-less path on one case: the same stages,
/// the same (candidate × analysis) task order and one session, with a timer
/// around every call into a layer.
fn replay(case: &Case) -> Replay {
    let locked = &case.locked.locked;
    let flag = Arc::new(AtomicBool::new(false));
    let watchdog = Watchdog::arm(Arc::clone(&flag), case.budget);
    let started = Instant::now();
    let mut r = Replay {
        fingerprint: Fingerprint {
            status: FallStatus::NoCandidates,
            shortlist: Vec::new(),
            comparators: 0,
            candidates: 0,
            prefilter: PrefilterStats::default(),
        },
        interrupted: false,
        wall: 0.0,
        comparators_s: 0.0,
        support_match_s: 0.0,
        unateness_s: 0.0,
        sliding_window_s: 0.0,
        distance_2h_s: 0.0,
        equivalence_s: 0.0,
        calls: 0,
        cubes: 0,
        equivalent_cubes: 0,
        cone_encodings: 0,
        sessions: 0,
        stats: SolverStats::default(),
    };
    let comparators = timed(&mut r.comparators_s, || find_comparators(locked));
    let candidates = timed(&mut r.support_match_s, || {
        find_candidates(locked, &comparators)
    });
    r.fingerprint.comparators = comparators.len();
    r.fingerprint.candidates = candidates.candidates.len();
    if !(candidates.candidates.is_empty()
        || candidates.key_width() == 0
        || candidates.paired_keys.len() != locked.num_key_inputs())
    {
        let mut session = AttackSession::new(locked);
        r.sessions = 1;
        session.set_interrupt(Some(Arc::clone(&flag)));
        let analyses = Analysis::applicable(case.h, candidates.key_width());
        'tasks: for &candidate in &candidates.candidates {
            for &analysis in &analyses {
                if flag.load(Ordering::Relaxed) {
                    break 'tasks;
                }
                let clock = match analysis {
                    Analysis::Unateness => &mut r.unateness_s,
                    Analysis::SlidingWindow => &mut r.sliding_window_s,
                    Analysis::Distance2H => &mut r.distance_2h_s,
                };
                let cube = timed(clock, || match analysis {
                    Analysis::Unateness => analyze_unateness_in(&mut session, candidate),
                    Analysis::SlidingWindow => sliding_window_in(&mut session, candidate, case.h),
                    Analysis::Distance2H => distance_2h_in(&mut session, candidate, case.h),
                });
                r.calls += 1;
                let Some(cube) = cube else { continue };
                r.cubes += 1;
                let equivalent = timed(&mut r.equivalence_s, || {
                    candidate_equals_strip_in(&mut session, candidate, &cube, case.h)
                });
                if !equivalent {
                    continue;
                }
                r.equivalent_cubes += 1;
                if let Some(key) = cube_to_key(locked, &candidates, &cube) {
                    if !r.fingerprint.shortlist.contains(&key) {
                        r.fingerprint.shortlist.push(key);
                    }
                }
            }
        }
        r.fingerprint.status = match r.fingerprint.shortlist.len() {
            0 => FallStatus::NoKeysFound,
            1 => FallStatus::UniqueKey,
            _ => FallStatus::MultipleKeys,
        };
        r.fingerprint.prefilter = session.prefilter_stats();
        r.cone_encodings = session.cone_encodings_built();
        r.stats = session.stats();
    }
    r.wall = started.elapsed().as_secs_f64();
    r.interrupted = watchdog.disarm();
    r
}

/// Maps a cube over the protected inputs to a key through the comparator
/// pairing (the same mapping `fall_attack` applies).
fn cube_to_key(
    locked: &Netlist,
    candidates: &CandidateNodes,
    cube: &CubeAssignment,
) -> Option<Key> {
    let mut bits = vec![None; locked.num_key_inputs()];
    for (&input, &key_node) in candidates
        .protected_inputs
        .iter()
        .zip(&candidates.paired_keys)
    {
        let value = cube.iter().find(|&&(id, _)| id == input).map(|&(_, v)| v)?;
        bits[locked.key_input_position(key_node)?] = Some(value);
    }
    bits.into_iter()
        .collect::<Option<Vec<bool>>>()
        .map(Key::new)
}
