//! Functional Analysis attacks on Logic Locking (FALL).
//!
//! This crate implements the attack flow of *"Functional Analysis Attacks on
//! Logic Locking"* (Sirone & Subramanyan, DATE 2019) on top of the
//! [`netlist`], [`sat`] and [`locking`] substrate crates:
//!
//! 1. **Structural analyses** (§ III): [`structural::find_comparators`]
//!    identifies the XOR/XNOR comparators pairing key inputs with circuit
//!    inputs, and [`structural::find_candidates`] shortlists gates whose
//!    support matches the protected inputs (potential cube-stripper outputs).
//! 2. **Functional analyses** (§ IV): [`functional::analyze_unateness`]
//!    (TTLock / SFLL-HD0), [`functional::sliding_window`] and
//!    [`functional::distance_2h`] (SFLL-HDh) extract suspected key values
//!    from a candidate node, and [`equivalence::candidate_equals_strip`]
//!    verifies the guess by combinational equivalence checking.
//! 3. **Key confirmation** (§ V): [`key_confirmation::key_confirmation`]
//!    turns a shortlist of suspected keys plus an I/O oracle into a proven
//!    correct key (or ⊥), even on SAT-attack-resilient circuits.
//!
//! The classic oracle-guided SAT attack (Subramanyan et al., HOST 2015) is
//! implemented in [`mod@sat_attack`] as the baseline the paper compares against,
//! and [`attack::fall_attack`] wires all stages together (Figure 4).
//!
//! All SAT interaction runs through one persistent [`session::AttackSession`]
//! per attack: circuit copies are encoded once, candidate cones are memoized
//! across queries, and temporary constraints live in solver activation
//! frames, so learnt clauses accumulate across the entire attack instead of
//! being discarded per query.
//!
//! The [`parallel`] module scales key confirmation across threads: § VI-D
//! key-space partitioning on a worker pool
//! ([`parallel::parallel_partitioned_key_search`], one session per worker,
//! shared deduplicating oracle cache, first-winner cancellation).  Every
//! other attack runs serially on its one session.
//! The [`service`] module packages long-lived sessions as a multi-tenant
//! pool ([`service::AttackService`]): registered targets own worker threads
//! with primed sessions that persist across jobs and clients, behind bounded
//! admission queues, client-fair round-robin scheduling, per-job
//! timeout/cancellation and an aggregated metrics surface — the engine
//! behind the `fall-serve` TCP server.
//!
//! The [`trace`] module is the observability layer over all of the above: a
//! dependency-free flight recorder whose spans instrument DIP iterations,
//! solver calls, oracle queries, region drains and service jobs, with
//! per-phase duration histograms and Chrome-trace JSON export (Perfetto).
//! Tracing is off by default and costs one atomic load per instrumentation
//! point while off.  Every numeric surface — the service's counters, the
//! recorder's histograms, the `fall-dist` farm's counters and the benchmark
//! gate — is a [`metrics::MetricReport`], with one Prometheus renderer
//! here and one JSON codec in `fall-serve`'s wire protocol.
//!
//! # Example: break SFLL-HD without an oracle
//!
//! ```
//! use fall::attack::{fall_attack, FallAttackConfig};
//! use locking::{LockingScheme, SfllHd};
//! use netlist::random::{generate, RandomCircuitSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = generate(&RandomCircuitSpec::new("demo", 16, 3, 120));
//! let locked = SfllHd::new(12, 1).with_seed(42).lock(&original)?.optimized();
//!
//! let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(1));
//! assert_eq!(result.shortlisted_keys, vec![locked.key.clone()]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod attack;
pub mod dist;
pub mod encode;
pub mod equivalence;
pub mod functional;
pub mod heuristics;
pub mod key_confirmation;
pub mod metrics;
pub mod oracle;
pub mod parallel;
pub mod sat_attack;
pub mod service;
pub mod session;
pub mod structural;
pub mod trace;
pub mod unlock;

pub use attack::{fall_attack, FallAttackConfig, FallAttackResult, FallStatus};
pub use key_confirmation::{key_confirmation, KeyConfirmationConfig, KeyConfirmationResult};
pub use oracle::{CountingOracle, Oracle, SimOracle};
pub use parallel::{
    drain_regions, parallel_partitioned_key_search, AtomicRegionSource, CachingOracle, CancelToken,
    ParallelSearchResult, RegionDrain, RegionDrainOutcome, RegionSource,
};
pub use sat_attack::{sat_attack, SatAttackConfig, SatAttackResult, SatAttackStatus};
pub use session::{AttackSession, KeyVector};

#[cfg(test)]
pub(crate) mod test_fixtures {
    use netlist::{GateKind, Netlist};

    /// A locked netlist with 64 key inputs (XOR chain) plus a trivial
    /// keyless original for its oracle — shared by the partition-overflow
    /// guard tests of `key_confirmation` and `parallel`.
    pub(crate) fn wide_key_circuit_and_original() -> (Netlist, Netlist) {
        let mut locked = Netlist::new("wide");
        let a = locked.add_input("a");
        let mut acc = a;
        for i in 0..64 {
            let k = locked.add_key_input(format!("k{i}"));
            acc = locked.add_gate(format!("x{i}"), GateKind::Xor, &[acc, k]);
        }
        locked.add_output("y", acc);

        let mut original = Netlist::new("wide_orig");
        let oa = original.add_input("a");
        original.add_output("y", oa);
        (locked, original)
    }
}
