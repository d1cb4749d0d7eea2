//! The complete FALL attack pipeline (Figure 4).
//!
//! `comparator identification → support-set matching → functional analyses →
//! equivalence checking → (optional) key confirmation`.

use std::time::{Duration, Instant};

use locking::Key;
use netlist::{Netlist, NodeId};

use crate::equivalence::candidate_equals_strip_in;
use crate::functional::{
    analyze_unateness_in, distance_2h_in, propose_cube_in, sliding_window_in, Analysis,
    CubeAssignment, PrefilterStats,
};
use crate::key_confirmation::key_confirmation_in;
use crate::oracle::Oracle;
use crate::session::AttackSession;
use crate::structural::CandidateNodes;

/// Configuration of the FALL attack.
#[derive(Clone, Debug)]
pub struct FallAttackConfig {
    /// The SFLL-HD parameter `h` (0 for TTLock), which the adversary knows
    /// under the threat model of § II-A.
    pub h: usize,
    /// Analyses to run per candidate; `None` selects
    /// [`Analysis::applicable`] for the observed key width.
    ///
    /// With `None`, each candidate is first settled before the analyses
    /// run (`m` = its support size): at `m <= 12` (`2h != m`) by
    /// enumerating its whole truth table, which decides it with no solve;
    /// at `m > 12` and `h = 0` by one witness solve, whose single flips
    /// rule the candidate out or leave the witness as the only cube it can
    /// be; at `m > 12`, `0 < h`, `2h < m` by a satisfying input and its
    /// pair flips, which give the only cube the candidate can be `strip_h`
    /// of.  The equivalence check (§ IV-C) decides a proposed cube, as it
    /// decides every cube an analysis returns.  The analyses then answer
    /// from that verdict without a solve, so the shortlist and
    /// `analyses_used` are what the analyses alone produce.  An explicit
    /// list runs exactly those analyses, as the per-analysis Figure 5
    /// series need.
    pub analyses: Option<Vec<Analysis>>,
    /// External cancellation flag, installed into the attack's
    /// [`AttackSession`] (see [`AttackSession::set_interrupt`]); the only
    /// way to stop the attack early.  Once it flips to `true`, in-flight
    /// solves return at their next check point, the remaining analyses are
    /// skipped, and the attack returns what it had with
    /// [`FallAttackResult::completed`] `false`.  The status describes only
    /// the work done before the cut-off: a partial sweep can shortlist one
    /// key and report [`FallStatus::UniqueKey`].  A caller that owns the
    /// session can install the flag there instead, as [`crate::service`]
    /// does with each job's deadline token.
    pub interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl FallAttackConfig {
    /// Default configuration for a known `h`.
    pub fn for_h(h: usize) -> FallAttackConfig {
        FallAttackConfig {
            h,
            analyses: None,
            interrupt: None,
        }
    }
}

/// How the attack concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallStatus {
    /// Exactly one key was shortlisted: the attack succeeded *without* oracle
    /// access (the 90 %-of-successes case reported in the paper).
    UniqueKey,
    /// Several keys were shortlisted and key confirmation identified the
    /// correct one using the oracle.
    ConfirmedKey,
    /// Several keys were shortlisted but no oracle was available to pick one.
    MultipleKeys,
    /// Key confirmation proved that none of the shortlisted keys is correct.
    ConfirmationFailed,
    /// The structural stages produced no candidate cube-stripper nodes.
    NoCandidates,
    /// Candidates existed but every functional analysis returned ⊥ (or the
    /// equivalence check rejected every suspected cube).
    NoKeysFound,
}

impl FallStatus {
    /// Returns `true` if the attack produced at least one credible key.
    pub fn is_success(self) -> bool {
        matches!(
            self,
            FallStatus::UniqueKey | FallStatus::ConfirmedKey | FallStatus::MultipleKeys
        )
    }
}

/// Wall-clock time spent in each stage of the pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Comparator identification (§ III-A).
    pub comparators: Duration,
    /// Support-set matching (§ III-B).
    pub support_matching: Duration,
    /// Functional analyses (§ IV-A, § IV-B).
    pub functional: Duration,
    /// Equivalence checking (§ IV-C).
    pub equivalence: Duration,
    /// Key confirmation (§ V).
    pub confirmation: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.comparators
            + self.support_matching
            + self.functional
            + self.equivalence
            + self.confirmation
    }
}

/// The outcome of a FALL attack.
#[derive(Clone, Debug)]
pub struct FallAttackResult {
    /// How the attack concluded.
    pub status: FallStatus,
    /// All distinct keys that survived the functional analyses and the
    /// equivalence check.
    pub shortlisted_keys: Vec<Key>,
    /// The key singled out by key confirmation, when that stage ran.
    pub confirmed_key: Option<Key>,
    /// Number of comparators identified.
    pub num_comparators: usize,
    /// Number of candidate cube-stripper nodes examined.
    pub num_candidates: usize,
    /// Suspected key width `m = |Comp|`.
    pub key_width: usize,
    /// Which analyses produced at least one surviving key.
    pub analyses_used: Vec<Analysis>,
    /// Word-parallel prefilter counters of this attack (refuted
    /// polarities/candidates and simulated-pattern volume); on a warm
    /// session ([`fall_attack_in`]) only this call's share.
    pub prefilter: PrefilterStats,
    /// Per-stage wall-clock timings of this call.
    pub timings: StageTimings,
    /// `false` if the interrupt in force had fired by the time the call
    /// returned, or key confirmation ran and did not finish: the status and
    /// shortlist then cover only the work done before the cut-off.
    pub completed: bool,
}

impl FallAttackResult {
    /// The single best key produced by the attack, if any: the confirmed key
    /// when available, otherwise the unique shortlisted key.
    pub fn best_key(&self) -> Option<&Key> {
        self.confirmed_key
            .as_ref()
            .or(match self.shortlisted_keys.as_slice() {
                [only] => Some(only),
                _ => None,
            })
    }
}

/// Runs the full FALL attack on a locked netlist, on a fresh
/// [`AttackSession`] (see [`fall_attack_in`]).
///
/// `oracle` is only used when more than one key is shortlisted; pass `None`
/// for a purely oracle-less attack.
pub fn fall_attack(
    locked: &Netlist,
    oracle: Option<&dyn Oracle>,
    config: &FallAttackConfig,
) -> FallAttackResult {
    fall_attack_in(&mut AttackSession::new(locked), oracle, config)
}

/// Runs the full FALL attack on the session's netlist through a shared
/// attack session.
///
/// One session serves every stage: the structural stages' comparators,
/// candidates and support table, the cone encodings, the prefilter sweeps,
/// the stripper verdicts and the analyses' decided answers are derived from
/// the netlist alone, so the session keeps them and a later call on the
/// same session reuses them — a repeated attack makes no cone solve.  The analyses run on the session's
/// cone solver and key confirmation on its DIP solver, so a warm session's
/// confirmation history never meets a cone clause.  The result's
/// `prefilter` counters and `timings` cover this call only.
///
/// With the default analyses, each candidate is first settled by
/// enumeration, or gets its cube proposed by simulation and decided by
/// equivalence (see [`FallAttackConfig::analyses`]); the analyses then
/// answer from that verdict.  The proposal's simulation and witness solve count in
/// `timings.functional`, its equivalence solve in `timings.equivalence`.
///
/// `config.interrupt`, when set, is installed on the session and stays
/// installed; when unset, the session's own interrupt flag stays in force.
pub fn fall_attack_in(
    session: &mut AttackSession<'_>,
    oracle: Option<&dyn Oracle>,
    config: &FallAttackConfig,
) -> FallAttackResult {
    if config.interrupt.is_some() {
        session.set_interrupt(config.interrupt.clone());
    }
    let locked = session.netlist();
    let prefilter_before = session.prefilter_stats();
    let mut timings = StageTimings::default();

    // Stage 1: comparator identification.
    let t = Instant::now();
    let num_comparators = session.comparators().len();
    timings.comparators = t.elapsed();

    // Stage 2: support-set matching.
    let t = Instant::now();
    let candidates = session.candidates().clone();
    timings.support_matching = t.elapsed();

    let base = |status: FallStatus, timings: StageTimings| FallAttackResult {
        status,
        shortlisted_keys: Vec::new(),
        confirmed_key: None,
        num_comparators,
        num_candidates: candidates.candidates.len(),
        key_width: candidates.key_width(),
        analyses_used: Vec::new(),
        prefilter: PrefilterStats::default(),
        timings,
        completed: true,
    };

    if candidates.candidates.is_empty()
        || candidates.key_width() == 0
        || candidates.paired_keys.len() != locked.num_key_inputs()
    {
        return FallAttackResult {
            completed: !session.interrupted(),
            ..base(FallStatus::NoCandidates, timings)
        };
    }

    // Stage 3 + 4: functional analyses and equivalence checking, every
    // candidate and analysis sharing the session's cone encodings,
    // input-difference vector and Hamming-distance references.
    let analyses = config
        .analyses
        .clone()
        .unwrap_or_else(|| Analysis::applicable(config.h, candidates.key_width()));
    let propose = config.analyses.is_none() && !analyses.is_empty();
    let mut shortlisted: Vec<Key> = Vec::new();
    let mut analyses_used: Vec<Analysis> = Vec::new();
    'sweep: for &candidate in &candidates.candidates {
        if propose && !session.interrupted() {
            let _span = crate::trace::span("propose_cube");
            let t = Instant::now();
            let cube = propose_cube_in(session, candidate, config.h);
            timings.functional += t.elapsed();
            if let Some(cube) = cube {
                let t = Instant::now();
                candidate_equals_strip_in(session, candidate, &cube, config.h);
                timings.equivalence += t.elapsed();
            }
        }
        for &analysis in &analyses {
            if session.interrupted() {
                break 'sweep;
            }
            let t = Instant::now();
            let cube = run_analysis(session, candidate, analysis, config.h);
            timings.functional += t.elapsed();
            let Some(cube) = cube else { continue };
            let t = Instant::now();
            let equivalent = candidate_equals_strip_in(session, candidate, &cube, config.h);
            timings.equivalence += t.elapsed();
            if !equivalent {
                continue;
            }
            let Some(key) = cube_to_key(locked, &candidates, &cube) else {
                continue;
            };
            if !shortlisted.contains(&key) {
                shortlisted.push(key);
            }
            if !analyses_used.contains(&analysis) {
                analyses_used.push(analysis);
            }
        }
    }

    let mut result = base(FallStatus::NoKeysFound, timings);
    result.analyses_used = analyses_used;
    result.shortlisted_keys = shortlisted;
    result.prefilter = session.prefilter_stats().since(&prefilter_before);

    match result.shortlisted_keys.len() {
        0 => {}
        1 => result.status = FallStatus::UniqueKey,
        _ => match oracle {
            None => result.status = FallStatus::MultipleKeys,
            Some(oracle) => {
                let t = Instant::now();
                let confirmation = key_confirmation_in(session, oracle, &result.shortlisted_keys);
                result.timings.confirmation = t.elapsed();
                result.completed = confirmation.completed;
                match confirmation.key {
                    Some(key) => {
                        result.confirmed_key = Some(key);
                        result.status = FallStatus::ConfirmedKey;
                    }
                    None => {
                        result.status = FallStatus::ConfirmationFailed;
                    }
                }
            }
        },
    }
    result.completed &= !session.interrupted();
    result
}

fn run_analysis(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    analysis: Analysis,
    h: usize,
) -> Option<CubeAssignment> {
    match analysis {
        Analysis::Unateness => analyze_unateness_in(session, candidate),
        Analysis::SlidingWindow => sliding_window_in(session, candidate, h),
        Analysis::Distance2H => distance_2h_in(session, candidate, h),
    }
}

/// Maps a cube assignment over protected inputs to a key over the locked
/// circuit's key inputs using the comparator pairing.
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
        let key_index = locked.key_input_position(key_node)?;
        bits[key_index] = Some(value);
    }
    bits.into_iter()
        .collect::<Option<Vec<bool>>>()
        .map(Key::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use locking::{LockingScheme, SfllHd, TtLock, XorLock};
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};

    fn original(name: &str) -> Netlist {
        generate(&RandomCircuitSpec::new(name, 14, 3, 90))
    }

    #[test]
    fn breaks_ttlock_without_an_oracle() {
        let original = original("fa_tt");
        let locked = TtLock::new(10)
            .with_seed(31)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert_eq!(result.status, FallStatus::UniqueKey, "{result:?}");
        assert_eq!(result.best_key(), Some(&locked.key));
        assert!(result.num_comparators >= 10);
        assert_eq!(result.key_width, 10);
    }

    #[test]
    fn breaks_sfll_hd1_without_an_oracle() {
        let original = original("fa_hd1");
        let locked = SfllHd::new(10, 1)
            .with_seed(8)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(1));
        assert!(result.status.is_success(), "{result:?}");
        assert!(result.shortlisted_keys.contains(&locked.key));
        assert!(result.prefilter.patterns_simulated > 0);
    }

    #[test]
    fn breaks_sfll_hd2_with_each_applicable_analysis() {
        let original = original("fa_hd2");
        let locked = SfllHd::new(12, 2)
            .with_seed(19)
            .lock(&original)
            .expect("lock")
            .optimized();
        for analysis in [Analysis::Distance2H, Analysis::SlidingWindow] {
            let mut config = FallAttackConfig::for_h(2);
            config.analyses = Some(vec![analysis]);
            let result = fall_attack(&locked.locked, None, &config);
            assert!(
                result.shortlisted_keys.contains(&locked.key),
                "{analysis:?}: {result:?}"
            );
        }
    }

    /// A TTLock'd circuit with one extra output `HD(protected inputs, k',
    /// 0)` in both the locked netlist and the oracle, `k'` the complement
    /// of the lock's key: two equivalence-proven strippers, so FALL
    /// shortlists two keys and only key confirmation can pick the lock's.
    fn two_stripper_lock() -> (Netlist, SimOracle, Key) {
        let locked = TtLock::new(10)
            .with_seed(77)
            .lock(&original("fa_confirm"))
            .expect("lock")
            .optimized();
        let decoy = locked.key.complement();
        let (mut netlist, mut oracle) = (locked.locked, locked.original);
        for nl in [&mut netlist, &mut oracle] {
            let xs: Vec<NodeId> = locked
                .protected_inputs
                .iter()
                .map(|name| nl.lookup(name).expect("protected input"))
                .collect();
            let out = hamming_distance_equals_const(nl, &xs, decoy.bits(), 0);
            nl.add_output("decoy", out);
        }
        (netlist, SimOracle::new(oracle), locked.key)
    }

    #[test]
    fn key_confirmation_resolves_ambiguity() {
        let (locked, oracle, key) = two_stripper_lock();
        let config = FallAttackConfig::for_h(0);
        let oracle_less = fall_attack(&locked, None, &config);
        assert_eq!(
            oracle_less.status,
            FallStatus::MultipleKeys,
            "{oracle_less:?}"
        );
        assert_eq!(oracle_less.shortlisted_keys.len(), 2, "{oracle_less:?}");
        assert!(oracle_less.shortlisted_keys.contains(&key));
        assert!(oracle_less.shortlisted_keys.contains(&key.complement()));

        let result = fall_attack(&locked, Some(&oracle), &config);
        assert_eq!(result.status, FallStatus::ConfirmedKey, "{result:?}");
        assert!(result.completed, "{result:?}");
        assert_eq!(result.confirmed_key.as_ref(), Some(&key));
        assert_eq!(result.best_key(), Some(&key));
    }

    #[test]
    fn fails_cleanly_on_non_cube_stripping_schemes() {
        // Random XOR locking has no cube stripper; the structural stages find
        // comparators (the key XORs) but no candidate matches the support, or
        // the functional stages reject everything.
        let original = original("fa_xor");
        let locked = XorLock::new(8)
            .with_seed(3)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert!(
            matches!(
                result.status,
                FallStatus::NoCandidates | FallStatus::NoKeysFound
            ),
            "{result:?}"
        );
        assert!(result.shortlisted_keys.is_empty());
    }

    #[test]
    fn a_fired_interrupt_skips_the_analyses_and_confirmation() {
        // Uninterrupted, this lock shortlists two keys and runs key
        // confirmation (`key_confirmation_resolves_ambiguity`).
        let (locked, oracle, _) = two_stripper_lock();
        let mut config = FallAttackConfig::for_h(0);
        let uninterrupted = fall_attack(&locked, Some(&oracle), &config);
        assert_eq!(
            uninterrupted.status,
            FallStatus::ConfirmedKey,
            "{uninterrupted:?}"
        );
        assert!(uninterrupted.completed, "{uninterrupted:?}");

        config.interrupt = Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
            true,
        )));
        let result = fall_attack(&locked, Some(&oracle), &config);
        assert!(result.num_candidates > 0, "{result:?}");
        assert_eq!(result.status, FallStatus::NoKeysFound, "{result:?}");
        assert!(!result.completed, "{result:?}");
        assert!(result.shortlisted_keys.is_empty());
        assert_eq!(result.confirmed_key, None);
        assert_eq!(result.timings.functional, Duration::ZERO);
        assert_eq!(result.timings.confirmation, Duration::ZERO);
    }

    #[test]
    fn the_sessions_own_interrupt_marks_the_result_incomplete() {
        // With no flag in the config, the session's flag is the one in
        // force: a fired one cuts the attack, and the result says so.
        let original = original("fa_tt");
        let locked = TtLock::new(10)
            .with_seed(31)
            .lock(&original)
            .expect("lock")
            .optimized();
        let config = FallAttackConfig::for_h(0);
        let mut session = AttackSession::new(&locked.locked);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        session.set_interrupt(Some(std::sync::Arc::clone(&flag)));
        let cut = fall_attack_in(&mut session, None, &config);
        assert!(!cut.completed, "{cut:?}");
        assert!(cut.shortlisted_keys.is_empty(), "{cut:?}");

        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let finished = fall_attack_in(&mut session, None, &config);
        assert!(finished.completed, "{finished:?}");
        assert_eq!(finished.status, FallStatus::UniqueKey, "{finished:?}");
        assert_eq!(finished.best_key(), Some(&locked.key));
    }

    #[test]
    fn timings_are_recorded() {
        let original = original("fa_time");
        let locked = TtLock::new(6)
            .with_seed(1)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert!(result.timings.total() > Duration::ZERO);
        assert!(result.timings.comparators > Duration::ZERO);
    }
}

/// The session's stripper verdicts ([`crate::session::StripperVerdict`])
/// must leave every attack result unchanged and answer without solving.
#[cfg(test)]
mod stripper_verdicts {
    use super::*;
    use crate::equivalence::candidate_equals_strip;
    use crate::functional::{distance_2h, sliding_window};
    use crate::session::StripperVerdict;
    use crate::structural::{find_candidates, find_comparators};
    use locking::{LockedCircuit, LockingScheme, SfllHd, TtLock};
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::GateKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// What the lockstep compares: status, shortlist, `analyses_used` and
    /// prefilter counters (the decision counters exactly, the sweep counters
    /// as an upper bound).
    type Outcome = (FallStatus, Vec<Key>, Vec<Analysis>, PrefilterStats);

    /// `fall_attack`'s oracle-less sweep with every analysis call and every
    /// equivalence check on a fresh session, so no verdict is ever shared.
    fn fresh_session_sweep(locked: &Netlist, h: usize) -> Outcome {
        let candidates = find_candidates(locked, &find_comparators(locked));
        let mut prefilter = PrefilterStats::default();
        if candidates.candidates.is_empty()
            || candidates.key_width() == 0
            || candidates.paired_keys.len() != locked.num_key_inputs()
        {
            return (FallStatus::NoCandidates, Vec::new(), Vec::new(), prefilter);
        }
        let (mut shortlist, mut used) = (Vec::new(), Vec::new());
        for &candidate in &candidates.candidates {
            for analysis in Analysis::applicable(h, candidates.key_width()) {
                let mut session = AttackSession::new(locked);
                let cube = run_analysis(&mut session, candidate, analysis, h);
                prefilter.merge(&session.prefilter_stats());
                let Some(cube) = cube else { continue };
                if !candidate_equals_strip(locked, candidate, &cube, h) {
                    continue;
                }
                let Some(key) = cube_to_key(locked, &candidates, &cube) else {
                    continue;
                };
                if !shortlist.contains(&key) {
                    shortlist.push(key);
                }
                if !used.contains(&analysis) {
                    used.push(analysis);
                }
            }
        }
        let status = match shortlist.len() {
            0 => FallStatus::NoKeysFound,
            1 => FallStatus::UniqueKey,
            _ => FallStatus::MultipleKeys,
        };
        (status, shortlist, used, prefilter)
    }

    /// A TTLock and SFLL-HD h = 1..3 locks (m = 10) of one random circuit,
    /// with the `h` each was locked at.
    fn lockings() -> Vec<(LockedCircuit, usize)> {
        let seed = 3u64;
        let original = generate(&RandomCircuitSpec::new(format!("vl{seed}"), 14, 3, 90));
        let ttlock = TtLock::new(10).with_seed(seed).lock(&original);
        let mut lockings = vec![(ttlock.expect("lock").optimized(), 0)];
        for h in 1..=3 {
            let sfll = SfllHd::new(10, h)
                .with_seed(seed + h as u64)
                .lock(&original);
            lockings.push((sfll.expect("lock").optimized(), h));
        }
        lockings
    }

    #[test]
    fn verdict_lockstep_matches_a_fresh_session_sweep() {
        let lockings: Vec<LockedCircuit> = lockings().into_iter().map(|(l, _)| l).collect();
        let mut strippers_found = 0;
        for locked in &lockings {
            // Every h, not only the lock's own: a wrong h makes the true
            // stripper a non-stripper for the analyses and the check.
            for h in 0..=3 {
                let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(h));
                let got = (
                    result.status,
                    result.shortlisted_keys.clone(),
                    result.analyses_used.clone(),
                    result.prefilter.polarities_refuted,
                    result.prefilter.candidates_refuted,
                );
                let (status, shortlist, used, fresh) = fresh_session_sweep(&locked.locked, h);
                let want = (
                    status,
                    shortlist,
                    used,
                    fresh.polarities_refuted,
                    fresh.candidates_refuted,
                );
                let label = format!("{} h={h}", locked.locked.name());
                assert_eq!(got, want, "{label}");
                // The shared session reuses its prefilter sweeps, so it
                // runs at most what the fresh sessions ran in total.
                assert!(result.prefilter.sweeps <= fresh.sweeps, "{label}");
                assert!(
                    result.prefilter.patterns_simulated <= fresh.patterns_simulated,
                    "{label}"
                );
                strippers_found += usize::from(result.shortlisted_keys.contains(&locked.key));
            }
        }
        assert!(strippers_found >= lockings.len(), "{strippers_found}");
    }

    #[test]
    fn proposal_lockstep_matches_the_analyses_alone() {
        for (locked, lock_h) in &lockings() {
            for h in 0..=3 {
                let label = format!("{} h={h}", locked.locked.name());
                // The proposal runs: every analysis left to its defaults.
                let mut session = AttackSession::new(&locked.locked);
                let proposed = fall_attack_in(&mut session, None, &FallAttackConfig::for_h(h));
                let (status, shortlist, used, _) = fresh_session_sweep(&locked.locked, h);
                assert_eq!(
                    (
                        proposed.status,
                        &proposed.shortlisted_keys,
                        &proposed.analyses_used
                    ),
                    (status, &shortlist, &used),
                    "{label}"
                );
                // The same analyses named explicitly skip the proposal; the
                // results, every prefilter counter included, are the same.
                let mut config = FallAttackConfig::for_h(h);
                config.analyses = Some(Analysis::applicable(h, proposed.key_width));
                let mut plain = AttackSession::new(&locked.locked);
                let alone = fall_attack_in(&mut plain, None, &config);
                assert_eq!(
                    (
                        proposed.status,
                        &proposed.shortlisted_keys,
                        &proposed.analyses_used
                    ),
                    (alone.status, &alone.shortlisted_keys, &alone.analyses_used),
                    "{label}"
                );
                assert_eq!(proposed.prefilter, alone.prefilter, "{label}");
                if h == *lock_h {
                    assert_eq!(proposed.best_key(), Some(&locked.key), "{label}");
                }
                // Simulation settles candidates the analyses would solve for.
                assert!(
                    session.stats().solves <= plain.stats().solves,
                    "{label}: {} > {}",
                    session.stats().solves,
                    plain.stats().solves
                );
            }
        }
    }

    /// `strip_h(cube)` over `m` fresh inputs.
    fn stripper(m: usize, cube: u64, h: usize) -> (Netlist, NodeId, Vec<NodeId>) {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let out = hamming_distance_equals_const(&mut nl, &xs, &pattern_to_bits(cube, m), h);
        nl.add_output("strip", out);
        (nl, out, xs)
    }

    fn assignment(xs: &[NodeId], cube: u64) -> CubeAssignment {
        xs.iter()
            .enumerate()
            .map(|(i, &id)| (id, (cube >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn verdict_on_a_proven_stripper_answers_without_solving() {
        let (m, cube, h) = (8, 0b1011_0010, 1);
        let (nl, out, xs) = stripper(m, cube, h);
        let mut session = AttackSession::new(&nl);
        // Refuting a cube no complete analysis suspected settles nothing.
        let complement = assignment(&xs, !cube & 0xFF);
        assert!(!candidate_equals_strip_in(
            &mut session,
            out,
            &complement,
            h
        ));
        assert_eq!(session.stripper_verdict(out, h), None);

        let found = distance_2h_in(&mut session, out, h).expect("cube recovered");
        assert_eq!(found, assignment(&xs, cube));
        assert!(candidate_equals_strip_in(&mut session, out, &found, h));
        assert_eq!(
            session.stripper_verdict(out, h),
            Some(&StripperVerdict::Stripper(found.clone()))
        );

        let solves = session.stats().solves;
        let prefilter = session.prefilter_stats();
        assert_eq!(sliding_window_in(&mut session, out, h), Some(found.clone()));
        assert_eq!(distance_2h_in(&mut session, out, h), Some(found.clone()));
        assert!(candidate_equals_strip_in(&mut session, out, &found, h));
        assert!(!candidate_equals_strip_in(
            &mut session,
            out,
            &complement,
            h
        ));
        assert_eq!(session.stats().solves, solves, "no extra solve");
        // The prefilters answered from the session's sweep cache: no new
        // sweep ran, and their decision counters do not see the verdicts.
        let repeat = session.prefilter_stats();
        assert_eq!(repeat.sweeps, prefilter.sweeps, "no extra sweep");
        assert_eq!(repeat.patterns_simulated, prefilter.patterns_simulated);
        // Exactly what fresh sessions compute.
        assert_eq!(sliding_window(&nl, out, h), Some(found.clone()));
        assert_eq!(distance_2h(&nl, out, h), Some(found));
    }

    #[test]
    fn verdict_not_stripper_makes_the_analyses_bottom_without_solving() {
        // The radius-1 sphere around `cube` minus one of its six points:
        // every two satisfying points are within distance 2, so the
        // prefilter passes, and both analyses recover `cube`, which the
        // equivalence check refutes.
        let (m, cube, h) = (6, 0b10_1101, 1);
        let (mut nl, sphere, xs) = stripper(m, cube, h);
        let hole =
            hamming_distance_equals_const(&mut nl, &xs, &pattern_to_bits(cube ^ 1 << 5, m), 0);
        let not_hole = nl.add_gate("not_hole", GateKind::Not, &[hole]);
        let out = nl.add_gate("punctured", GateKind::And, &[sphere, not_hole]);
        nl.add_output("punctured", out);

        let mut session = AttackSession::new(&nl);
        let suspect = distance_2h_in(&mut session, out, h).expect("a suspected cube");
        assert_eq!(suspect, assignment(&xs, cube));
        assert!(!candidate_equals_strip_in(&mut session, out, &suspect, h));
        assert_eq!(
            session.stripper_verdict(out, h),
            Some(&StripperVerdict::NotStripper)
        );

        let solves = session.stats().solves;
        assert_eq!(sliding_window_in(&mut session, out, h), None);
        assert_eq!(distance_2h_in(&mut session, out, h), None);
        assert!(!candidate_equals_strip_in(&mut session, out, &suspect, h));
        assert_eq!(session.stats().solves, solves, "no extra solve");

        // Fresh sessions do find cubes, and the equivalence check rejects
        // each of them.
        for fresh in [sliding_window(&nl, out, h), distance_2h(&nl, out, h)] {
            let fresh = fresh.expect("a fresh session yields a cube");
            assert!(!candidate_equals_strip(&nl, out, &fresh, h));
        }
    }

    #[test]
    fn a_decided_bottom_settles_the_candidate_and_an_interrupted_one_does_not() {
        // SFLL-HD1 over m = 8, analysed at h = 2 (4h <= m): the stripper's
        // satisfying inputs lie within distance 2 of each other, so the
        // distance prefilter passes, and Distance2H's SAT stage finds no
        // pair at distance 4: a decided ⊥.
        let original = generate(&RandomCircuitSpec::new("bottom", 12, 3, 80));
        let locked = SfllHd::new(8, 1)
            .with_seed(5)
            .lock(&original)
            .expect("lock")
            .optimized();
        let nl = &locked.locked;
        let h = 2;
        let candidates = find_candidates(nl, &find_comparators(nl)).candidates;
        let mut settled = 0;
        for &candidate in &candidates {
            let mut session = AttackSession::new(nl);
            let solves = session.stats().solves;
            if distance_2h_in(&mut session, candidate, h).is_some()
                || session.stats().solves == solves
            {
                continue; // a cube, or ⊥ from the prefilter
            }
            assert_eq!(
                session.stripper_verdict(candidate, h),
                Some(&StripperVerdict::NotStripper)
            );
            let solves = session.stats().solves;
            assert_eq!(sliding_window_in(&mut session, candidate, h), None);
            assert_eq!(session.stats().solves, solves, "no solve after ⊥");
            assert_eq!(
                sliding_window(nl, candidate, h),
                None,
                "a fresh session agrees"
            );
            settled += 1;

            // Interrupted, the same ⊥ records nothing, and SlidingWindow
            // solves again once the flag clears.
            let mut session = AttackSession::new(nl);
            let flag = Arc::new(AtomicBool::new(true));
            session.set_interrupt(Some(Arc::clone(&flag)));
            assert_eq!(distance_2h_in(&mut session, candidate, h), None);
            assert_eq!(session.stripper_verdict(candidate, h), None);
            flag.store(false, Ordering::Relaxed);
            let solves = session.stats().solves;
            assert_eq!(sliding_window_in(&mut session, candidate, h), None);
            assert!(session.stats().solves > solves, "SlidingWindow solved");
        }
        assert!(
            settled > 0,
            "no decided ⊥ among {} candidates",
            candidates.len()
        );
    }

    #[test]
    fn verdict_is_not_recorded_when_2h_equals_m() {
        // At 2h = m, strip_h(k) = strip_h(!k): the cube is not unique.
        let (m, cube, h) = (4, 0b0110, 2);
        let (nl, out, xs) = stripper(m, cube, h);
        let mut session = AttackSession::new(&nl);
        let _ = sliding_window_in(&mut session, out, h);
        let _ = distance_2h_in(&mut session, out, h);
        assert!(candidate_equals_strip_in(
            &mut session,
            out,
            &assignment(&xs, cube),
            h
        ));
        assert!(candidate_equals_strip_in(
            &mut session,
            out,
            &assignment(&xs, !cube & 0xF),
            h
        ));
        assert_eq!(session.stripper_verdict(out, h), None);
    }

    #[test]
    fn verdict_is_not_recorded_from_an_interrupted_solve() {
        let (m, cube, h) = (8, 0b0101_1100, 1);
        let (nl, out, xs) = stripper(m, cube, h);
        let expected = assignment(&xs, cube);
        let flag = Arc::new(AtomicBool::new(true));

        // An interrupted equivalence check with no suspect records nothing.
        let mut session = AttackSession::new(&nl);
        session.set_interrupt(Some(Arc::clone(&flag)));
        assert!(!candidate_equals_strip_in(&mut session, out, &expected, h));
        assert_eq!(session.stripper_verdict(out, h), None);
        // Nor does an interrupted analysis.
        assert_eq!(distance_2h_in(&mut session, out, h), None);
        assert_eq!(session.stripper_verdict(out, h), None);

        // An interrupted check of the suspect cube leaves the suspect.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(distance_2h_in(&mut session, out, h), Some(expected.clone()));
        flag.store(true, Ordering::Relaxed);
        assert!(!candidate_equals_strip_in(&mut session, out, &expected, h));
        assert_eq!(
            session.stripper_verdict(out, h),
            Some(&StripperVerdict::Suspect(expected.clone()))
        );

        flag.store(false, Ordering::Relaxed);
        assert!(candidate_equals_strip_in(&mut session, out, &expected, h));
        assert_eq!(
            session.stripper_verdict(out, h),
            Some(&StripperVerdict::Stripper(expected))
        );
    }
}

/// `fall_attack_in` on one long-lived session must answer every call like a
/// fresh [`fall_attack`], leave the DIP solver to key confirmation, and turn
/// a repeated call into lookups.
#[cfg(test)]
mod warm_session {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::structural::{find_candidates, find_comparators, Comparator};
    use locking::{LockedCircuit, LockingScheme, SfllHd, TtLock};
    use netlist::analysis::{support, SupportTable};
    use netlist::random::{generate, RandomCircuitSpec};

    /// A TTLock and SFLL-HD h = 1..3 locks (m = 10) of one random circuit,
    /// with the `h` each was locked at.
    fn lockings() -> Vec<(LockedCircuit, usize)> {
        let original = generate(&RandomCircuitSpec::new("warm", 14, 3, 90));
        let mut lockings = vec![(
            TtLock::new(10)
                .with_seed(5)
                .lock(&original)
                .expect("lock")
                .optimized(),
            0,
        )];
        for h in 1..=3 {
            let locked = SfllHd::new(10, h)
                .with_seed(20 + h as u64)
                .lock(&original)
                .expect("lock")
                .optimized();
            lockings.push((locked, h));
        }
        lockings
    }

    /// What the lockstep compares.
    type Outcome = (
        FallStatus,
        Vec<Key>,
        Vec<Analysis>,
        Option<Key>,
        usize,
        usize,
    );

    fn outcome(result: &FallAttackResult) -> Outcome {
        (
            result.status,
            result.shortlisted_keys.clone(),
            result.analyses_used.clone(),
            result.confirmed_key.clone(),
            result.num_comparators,
            result.num_candidates,
        )
    }

    #[test]
    fn fall_on_a_shared_session_matches_fresh_attacks() {
        for (locked, lock_h) in &lockings() {
            let oracle = SimOracle::new(locked.original.clone());
            let mut session = AttackSession::new(&locked.locked);
            let other_h = (lock_h + 2) % 4;
            // The lock's own h and a wrong one, interleaved, with and
            // without an oracle.
            let calls = [
                (*lock_h, false),
                (other_h, true),
                (*lock_h, true),
                (other_h, false),
                (*lock_h, false),
            ];
            let mut seen = Vec::new();
            let mut confirmed_any = false;
            for (call, (h, with_oracle)) in calls.into_iter().enumerate() {
                let oracle = with_oracle.then_some(&oracle as &dyn Oracle);
                let config = FallAttackConfig::for_h(h);
                let solves = session.stats().solves;
                let warm = fall_attack_in(&mut session, oracle, &config);
                let fresh = fall_attack(&locked.locked, oracle, &config);
                let label = format!("{} call {call} h={h}", locked.locked.name());
                assert_eq!(outcome(&warm), outcome(&fresh), "{label}");
                // Each call reports its own prefilter counters: the same
                // decisions as a fresh attack, and only the sweeps it ran.
                let (w, f) = (warm.prefilter, fresh.prefilter);
                assert_eq!(
                    (w.polarities_refuted, w.candidates_refuted),
                    (f.polarities_refuted, f.candidates_refuted),
                    "{label}"
                );
                if call == 0 {
                    assert_eq!(w, f, "{label}");
                }
                if h == *lock_h {
                    assert_eq!(warm.best_key(), Some(&locked.key), "{label}");
                }
                let confirmed = matches!(
                    warm.status,
                    FallStatus::ConfirmedKey | FallStatus::ConfirmationFailed
                );
                confirmed_any |= confirmed;
                if seen.contains(&h) && !confirmed {
                    assert_eq!(session.stats().solves, solves, "{label}: no cone solve");
                    assert_eq!(w.sweeps, 0, "{label}: no sweep");
                    assert_eq!(w.patterns_simulated, 0, "{label}");
                }
                seen.push(h);
            }
            // Enumeration settles every candidate of these m = 10 locks, so
            // no call builds the cone space; key confirmation builds the
            // DIP encoding, once.
            assert_eq!(
                session.cone_encodings_built(),
                u64::from(confirmed_any),
                "{}",
                locked.locked.name()
            );
        }
    }

    #[test]
    fn confirmation_on_a_pooled_session_ignores_earlier_fall_jobs() {
        for (locked, h) in &lockings() {
            let oracle = SimOracle::new(locked.original.clone());
            let shortlist = [
                locked.key.complement(),
                locked.key.clone(),
                Key::new(vec![true; locked.key.len()]),
            ];
            let confirm = |session: &mut AttackSession<'_>| {
                let result = key_confirmation_in(session, &oracle, &shortlist);
                (result.key, result.iterations)
            };
            let mut plain = AttackSession::new(&locked.locked);
            plain.prime();
            let mut pooled = AttackSession::new(&locked.locked);
            pooled.prime();
            let dip_vars = pooled.num_vars();
            for h in [*h, (h + 1) % 4, *h] {
                let result =
                    fall_attack_in(&mut pooled, Some(&oracle), &FallAttackConfig::for_h(h));
                assert!(
                    result.timings.confirmation.is_zero(),
                    "{}: a unique-key FALL job leaves the DIP solver alone",
                    locked.locked.name()
                );
            }
            assert_eq!(
                pooled.num_vars(),
                dip_vars,
                "no cone variable in the DIP solver"
            );
            let want = confirm(&mut plain);
            assert_eq!(want.0.as_ref(), Some(&locked.key));
            assert_eq!(confirm(&mut pooled), want, "{}", locked.locked.name());
            assert_eq!(confirm(&mut pooled), confirm(&mut plain));
        }
    }

    /// The comparators and candidates of § III computed from per-node
    /// [`support`] calls, the definition the support table must reproduce.
    fn reference_structure(netlist: &Netlist) -> (Vec<Comparator>, CandidateNodes) {
        let mut comparators = Vec::new();
        for node in netlist.gate_ids() {
            let s = support(netlist, node);
            let (Some(&input), Some(&key)) = (s.primary.first(), s.keys.first()) else {
                continue;
            };
            if s.len() != 2 {
                continue;
            }
            // One scalar simulation per assignment of the pair, independent
            // of the word sweep under test.
            let truth =
                [(false, false), (true, false), (false, true), (true, true)].map(|(iv, kv)| {
                    let inputs: Vec<bool> =
                        netlist.inputs().iter().map(|&i| i == input && iv).collect();
                    let keys: Vec<bool> = netlist
                        .key_inputs()
                        .iter()
                        .map(|&k| k == key && kv)
                        .collect();
                    netlist.node_values(&inputs, &keys).expect("widths match")[node.index()]
                });
            let xnor = match truth {
                [false, true, true, false] => false,
                [true, false, false, true] => true,
                _ => continue,
            };
            comparators.push(Comparator {
                node,
                input,
                key,
                xnor,
            });
        }
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for c in &comparators {
            if !pairs.iter().any(|&(input, _)| input == c.input) {
                pairs.push((c.input, c.key));
            }
        }
        pairs.sort_by_key(|&(input, _)| input);
        let protected: Vec<NodeId> = pairs.iter().map(|&(input, _)| input).collect();
        let candidates = netlist
            .gate_ids()
            .filter(|&node| {
                let s = support(netlist, node);
                !protected.is_empty()
                    && s.keys.is_empty()
                    && s.primary.iter().copied().eq(protected.iter().copied())
            })
            .collect();
        let structure = CandidateNodes {
            protected_inputs: protected,
            paired_keys: pairs.iter().map(|&(_, key)| key).collect(),
            candidates,
        };
        (comparators, structure)
    }

    #[test]
    fn support_table_and_structural_stages_match_per_node_support() {
        let mut netlists: Vec<Netlist> = (0..2u64)
            .map(|seed| {
                let spec = RandomCircuitSpec::new(format!("st{seed}"), 9 + seed as usize, 3, 70)
                    .with_seed(seed);
                generate(&spec)
            })
            .collect();
        netlists.extend(lockings().into_iter().map(|(locked, _)| locked.locked));
        for nl in &netlists {
            let table = SupportTable::new(nl);
            for (id, _) in nl.iter() {
                let s = support(nl, id);
                let primary: Vec<NodeId> = table
                    .primary_positions(id)
                    .map(|p| nl.inputs()[p])
                    .collect();
                let keys: Vec<NodeId> = table
                    .key_positions(id)
                    .map(|q| nl.key_inputs()[q])
                    .collect();
                assert!(s.primary.iter().copied().eq(primary), "{id:?}");
                assert!(s.keys.iter().copied().eq(keys), "{id:?}");
            }
            let (comparators, candidates) = reference_structure(nl);
            assert_eq!(find_comparators(nl), comparators, "{}", nl.name());
            assert_eq!(
                find_candidates(nl, &comparators),
                candidates,
                "{}",
                nl.name()
            );
            let mut session = AttackSession::new(nl);
            assert_eq!(session.comparators(), comparators.as_slice());
            assert_eq!(session.candidates(), &candidates);
            assert_eq!(session.supports(), &table);
        }
    }
}
