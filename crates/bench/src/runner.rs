//! Budgeted attack execution.
//!
//! Every attack the runner starts gets its own interrupt timer: a thread
//! that raises the attack session's interrupt flag once the per-attack
//! budget has passed.  The flag stops a solve mid-search, so a slow case
//! costs at most its budget, and a cut-off attack never counts as a defeat.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fall::attack::{fall_attack, FallAttackConfig, FallStatus};
use fall::functional::Analysis;
use fall::key_confirmation::key_confirmation_in;
use fall::oracle::SimOracle;
use fall::sat_attack::sat_attack_in;
use fall::session::AttackSession;
use locking::Key;

use crate::suite::LockCase;

/// Which attack was run for a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The full FALL pipeline restricted to AnalyzeUnateness.
    Unateness,
    /// The full FALL pipeline restricted to SlidingWindow.
    SlidingWindow,
    /// The full FALL pipeline restricted to Distance2H.
    Distance2H,
    /// The full FALL pipeline with every applicable analysis.
    Fall,
    /// The classic oracle-guided SAT attack.
    SatAttack,
    /// Key confirmation seeded with the FALL shortlist.
    KeyConfirmation,
}

impl AttackKind {
    /// Label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Unateness => "AnalyzeUnateness",
            AttackKind::SlidingWindow => "SlidingWindow",
            AttackKind::Distance2H => "Distance2H",
            AttackKind::Fall => "FALL",
            AttackKind::SatAttack => "SAT-Attack",
            AttackKind::KeyConfirmation => "Key Confirmation",
        }
    }
}

/// The outcome of one attack on one locked circuit.
#[derive(Clone, Debug)]
pub struct AttackRecord {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Hamming-distance parameter of the locked instance.
    pub h: usize,
    /// Key width.
    pub keys: usize,
    /// Which attack was run.
    pub attack: AttackKind,
    /// `true` if the attack finished within its budget and recovered (or
    /// confirmed) a correct key.
    pub defeated: bool,
    /// `true` if the attack finished within its budget and shortlisted
    /// exactly one key (oracle-less success).
    pub unique_key: bool,
    /// Number of keys shortlisted by the functional analyses (0 for the SAT
    /// attack and key confirmation).
    pub shortlisted: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Budgets applied to each attack run.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Per-attack wall-clock budget, enforced through the attack's interrupt
    /// flag (the paper uses 1000 s; the scaled default is a few seconds).
    pub budget: Duration,
    /// Samples used to validate recovered keys against the oracle circuit.
    pub validation_samples: usize,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            budget: Duration::from_secs(5),
            validation_samples: 128,
        }
    }
}

/// One attack's budget: raises `flag` once the budget has passed, unless
/// the timer is dropped first (dropping `_stop` wakes the timer thread,
/// which then exits without raising).
struct InterruptTimer {
    flag: Arc<AtomicBool>,
    _stop: Sender<()>,
}

impl InterruptTimer {
    fn arm(budget: Duration) -> InterruptTimer {
        let flag = Arc::new(AtomicBool::new(false));
        let (stop, stopped) = mpsc::channel::<()>();
        let raise = Arc::clone(&flag);
        std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(budget) {
                raise.store(true, Ordering::SeqCst);
            }
        });
        InterruptTimer { flag, _stop: stop }
    }

    /// The flag to install on the attack's session.
    fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Runs attacks against locked circuits and produces [`AttackRecord`]s.
#[derive(Clone, Debug, Default)]
pub struct Runner {
    config: RunnerConfig,
}

impl Runner {
    /// Creates a runner with the given budgets.
    pub fn new(config: RunnerConfig) -> Runner {
        Runner { config }
    }

    /// Runs the oracle-less FALL pipeline on a case, restricted to one
    /// analysis, or with every applicable analysis when `analysis` is
    /// `None`.
    pub fn run_fall(&self, case: &LockCase, analysis: Option<Analysis>) -> AttackRecord {
        let timer = InterruptTimer::arm(self.config.budget);
        let mut config = FallAttackConfig::for_h(case.h);
        config.analyses = analysis.map(|analysis| vec![analysis]);
        config.interrupt = Some(timer.flag());
        let start = Instant::now();
        let result = fall_attack(&case.locked.locked, None, &config);
        let elapsed = start.elapsed();
        drop(timer);

        let validated = result
            .shortlisted_keys
            .iter()
            .any(|key| self.key_is_correct(case, key));
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: match analysis {
                Some(Analysis::Unateness) => AttackKind::Unateness,
                Some(Analysis::SlidingWindow) => AttackKind::SlidingWindow,
                Some(Analysis::Distance2H) => AttackKind::Distance2H,
                None => AttackKind::Fall,
            },
            defeated: result.completed && validated && result.status.is_success(),
            unique_key: result.completed && result.status == FallStatus::UniqueKey,
            shortlisted: result.shortlisted_keys.len(),
            elapsed,
        }
    }

    /// Runs the classic SAT attack (with oracle access) on a case.
    pub fn run_sat_attack(&self, case: &LockCase) -> AttackRecord {
        let oracle = SimOracle::new(case.locked.original.clone());
        let timer = InterruptTimer::arm(self.config.budget);
        let start = Instant::now();
        let mut session = AttackSession::new(&case.locked.locked);
        session.set_interrupt(Some(timer.flag()));
        let result = sat_attack_in(&mut session, &oracle);
        let elapsed = start.elapsed();
        drop(timer);
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: AttackKind::SatAttack,
            defeated: result
                .key
                .as_ref()
                .is_some_and(|key| self.key_is_correct(case, key)),
            unique_key: false,
            shortlisted: 0,
            elapsed,
        }
    }

    /// Runs key confirmation seeded with the FALL shortlist (falling back to
    /// the correct key plus its complement when the analyses shortlist
    /// nothing within their own budget, matching the paper's § VI-C
    /// methodology of reusing stage-1 results).
    pub fn run_key_confirmation(&self, case: &LockCase) -> AttackRecord {
        let shortlist = {
            let timer = InterruptTimer::arm(self.config.budget);
            let mut config = FallAttackConfig::for_h(case.h);
            config.interrupt = Some(timer.flag());
            let result = fall_attack(&case.locked.locked, None, &config);
            if result.completed && !result.shortlisted_keys.is_empty() {
                result.shortlisted_keys
            } else {
                vec![case.locked.key.clone(), case.locked.key.complement()]
            }
        };
        let oracle = SimOracle::new(case.locked.original.clone());
        let timer = InterruptTimer::arm(self.config.budget);
        let start = Instant::now();
        let mut session = AttackSession::new(&case.locked.locked);
        session.set_interrupt(Some(timer.flag()));
        let result = key_confirmation_in(&mut session, &oracle, &shortlist);
        let elapsed = start.elapsed();
        drop(timer);
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: AttackKind::KeyConfirmation,
            defeated: result
                .key
                .as_ref()
                .is_some_and(|key| self.key_is_correct(case, key)),
            unique_key: false,
            shortlisted: shortlist.len(),
            elapsed,
        }
    }

    fn key_is_correct(&self, case: &LockCase, key: &Key) -> bool {
        case.locked
            .key_is_functionally_correct(key, self.config.validation_samples, 0xBEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{HdPolicy, Scale, TABLE1_CIRCUITS};

    fn small_case(policy: HdPolicy) -> LockCase {
        LockCase::build(&TABLE1_CIRCUITS[0], policy, Scale::Scaled)
    }

    #[test]
    fn fall_defeats_hd0_case() {
        let case = small_case(HdPolicy::Zero);
        let record = Runner::default().run_fall(&case, Some(Analysis::Unateness));
        assert!(record.defeated, "{record:?}");
        assert_eq!(record.attack, AttackKind::Unateness);
    }

    #[test]
    fn distance2h_defeats_hd_eighth_case() {
        let case = small_case(HdPolicy::EighthOfKeys);
        let record = Runner::default().run_fall(&case, Some(Analysis::Distance2H));
        assert!(record.defeated, "{record:?}");
    }

    #[test]
    fn every_analysis_run_has_its_own_kind() {
        let case = small_case(HdPolicy::EighthOfKeys);
        let record = Runner::default().run_fall(&case, None);
        assert_eq!(record.attack, AttackKind::Fall);
        assert_eq!(record.attack.label(), "FALL");
        assert!(record.defeated && record.unique_key, "{record:?}");
    }

    #[test]
    fn key_confirmation_record_is_produced() {
        let case = small_case(HdPolicy::EighthOfKeys);
        let record = Runner::default().run_key_confirmation(&case);
        assert_eq!(record.attack, AttackKind::KeyConfirmation);
        assert!(record.shortlisted >= 1);
    }

    #[test]
    fn sat_attack_record_is_produced() {
        let case = small_case(HdPolicy::Zero);
        let runner = Runner::new(RunnerConfig {
            budget: Duration::from_millis(500),
            validation_samples: 32,
        });
        let record = runner.run_sat_attack(&case);
        assert_eq!(record.attack, AttackKind::SatAttack);
        // Either it finished quickly or the budget interrupted it.
        assert!(record.elapsed <= Duration::from_secs(5), "{record:?}");
    }

    #[test]
    fn the_budget_cuts_a_paper_scale_analysis_short() {
        // SlidingWindow on paper-scale c432 at h = m/3 runs for minutes
        // unbudgeted; the interrupt timer stops it mid-solve, and the cut
        // run is not a defeat.
        let spec = TABLE1_CIRCUITS
            .iter()
            .find(|spec| spec.name == "c432")
            .expect("c432 is in Table I");
        let case = LockCase::build(spec, HdPolicy::ThirdOfKeys, Scale::Paper);
        let runner = Runner::new(RunnerConfig {
            budget: Duration::from_millis(500),
            validation_samples: 32,
        });
        let started = Instant::now();
        let record = runner.run_fall(&case, Some(Analysis::SlidingWindow));
        assert!(started.elapsed() < Duration::from_secs(5), "{record:?}");
        assert!(!record.defeated, "{record:?}");
        assert!(!record.unique_key, "{record:?}");
    }
}
