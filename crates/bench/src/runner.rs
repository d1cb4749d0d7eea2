//! Timed attack execution.

use std::time::{Duration, Instant};

use fall::attack::{fall_attack, FallAttackConfig, FallStatus};
use fall::functional::Analysis;
use fall::key_confirmation::KeyConfirmationConfig;
use fall::oracle::SimOracle;
use fall::sat_attack::{sat_attack, SatAttackConfig};

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
    /// `true` if the attack recovered (or confirmed) a correct key.
    pub defeated: bool,
    /// `true` if the attack shortlisted exactly one key (oracle-less success).
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
    /// Per-attack wall-clock limit (the paper uses 1000 s; the scaled default
    /// is a few seconds).
    pub time_limit: Duration,
    /// Samples used to validate recovered keys against the oracle circuit.
    pub validation_samples: usize,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            time_limit: Duration::from_secs(5),
            validation_samples: 128,
        }
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

    /// Runs one functional-analysis attack (without oracle access) on a case.
    pub fn run_fall(&self, case: &LockCase, analysis: Analysis) -> AttackRecord {
        let start = Instant::now();
        let mut config = FallAttackConfig::for_h(case.h);
        config.analyses = Some(vec![analysis]);
        let result = fall_attack(&case.locked.locked, None, &config);
        let elapsed = start.elapsed();

        let validated = result.shortlisted_keys.iter().any(|key| {
            case.locked
                .key_is_functionally_correct(key, self.config.validation_samples, 0xBEEF)
        });
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: match analysis {
                Analysis::Unateness => AttackKind::Unateness,
                Analysis::SlidingWindow => AttackKind::SlidingWindow,
                Analysis::Distance2H => AttackKind::Distance2H,
            },
            defeated: validated && result.status.is_success() && elapsed <= self.config.time_limit,
            unique_key: result.status == FallStatus::UniqueKey,
            shortlisted: result.shortlisted_keys.len(),
            elapsed,
        }
    }

    /// Runs the classic SAT attack (with oracle access) on a case.
    pub fn run_sat_attack(&self, case: &LockCase) -> AttackRecord {
        let oracle = SimOracle::new(case.locked.original.clone());
        let config = SatAttackConfig {
            time_limit: Some(self.config.time_limit),
            ..SatAttackConfig::default()
        };
        let start = Instant::now();
        let result = sat_attack(&case.locked.locked, &oracle, &config);
        let elapsed = start.elapsed();
        let defeated = result
            .key
            .as_ref()
            .map(|key| {
                case.locked
                    .key_is_functionally_correct(key, self.config.validation_samples, 0xBEEF)
            })
            .unwrap_or(false);
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: AttackKind::SatAttack,
            defeated,
            unique_key: false,
            shortlisted: 0,
            elapsed,
        }
    }

    /// Runs key confirmation seeded with the FALL shortlist (falling back to
    /// the correct key plus its complement when the analyses shortlist
    /// nothing, matching the paper's § VI-C methodology of reusing stage-1
    /// results).
    pub fn run_key_confirmation(&self, case: &LockCase) -> AttackRecord {
        let mut config = FallAttackConfig::for_h(case.h);
        config.analyses = None;
        let shortlist = {
            let result = fall_attack(&case.locked.locked, None, &config);
            if result.shortlisted_keys.is_empty() {
                vec![case.locked.key.clone(), case.locked.key.complement()]
            } else {
                result.shortlisted_keys
            }
        };
        let oracle = SimOracle::new(case.locked.original.clone());
        let kc_config = KeyConfirmationConfig {
            time_limit: Some(self.config.time_limit),
            ..KeyConfirmationConfig::default()
        };
        let start = Instant::now();
        let result = fall::key_confirmation(&case.locked.locked, &oracle, &shortlist, &kc_config);
        let elapsed = start.elapsed();
        let defeated = result
            .key
            .as_ref()
            .map(|key| {
                case.locked
                    .key_is_functionally_correct(key, self.config.validation_samples, 0xBEEF)
            })
            .unwrap_or(false);
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: AttackKind::KeyConfirmation,
            defeated,
            unique_key: false,
            shortlisted: shortlist.len(),
            elapsed,
        }
    }

    /// Runs the oracle-less FALL pipeline with every applicable analysis and
    /// reports a single per-circuit record (used by the `summary` binary).
    pub fn run_combined_fall(&self, case: &LockCase) -> AttackRecord {
        let start = Instant::now();
        let config = FallAttackConfig::for_h(case.h);
        let result = fall_attack(&case.locked.locked, None, &config);
        let elapsed = start.elapsed();
        let validated = result.shortlisted_keys.iter().any(|key| {
            case.locked
                .key_is_functionally_correct(key, self.config.validation_samples, 0xBEEF)
        });
        AttackRecord {
            circuit: case.spec.name.to_string(),
            h: case.h,
            keys: case.keys,
            attack: AttackKind::Distance2H,
            defeated: validated && result.status.is_success() && elapsed <= self.config.time_limit,
            unique_key: result.status == FallStatus::UniqueKey,
            shortlisted: result.shortlisted_keys.len(),
            elapsed,
        }
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
        let record = Runner::default().run_fall(&case, Analysis::Unateness);
        assert!(record.defeated, "{record:?}");
        assert_eq!(record.attack, AttackKind::Unateness);
    }

    #[test]
    fn distance2h_defeats_hd_eighth_case() {
        let case = small_case(HdPolicy::EighthOfKeys);
        let record = Runner::default().run_fall(&case, Analysis::Distance2H);
        assert!(record.defeated, "{record:?}");
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
            time_limit: Duration::from_millis(500),
            validation_samples: 32,
        });
        let record = runner.run_sat_attack(&case);
        assert_eq!(record.attack, AttackKind::SatAttack);
        // Either it finished quickly or it hit the (tiny) time limit.
        assert!(record.elapsed <= Duration::from_secs(30));
    }
}
