//! Partitioned key search and the region/oracle machinery it shares with
//! `fall-serve` and `fall-dist`.
//!
//! § VI-D of the paper observes that the key-confirmation predicate ϕ makes
//! the key space trivially partitionable: fixing the first `p` key bits
//! yields `2^p` *independent* regions, each a self-contained confirmation
//! problem.  [`partitioned_key_search`] drains those regions on **one**
//! long-lived, primed [`AttackSession`]: each region binds ϕ in a
//! retireable predicate generation ([`AttackSession::begin_predicate`]) that
//! is retired when the region concludes, so the circuit encoding and the
//! frame-independent learnt clauses carry over from region to region instead
//! of being rebuilt `2^p` times.
//!
//! The pieces it is built from serve the concurrent shells too:
//!
//! * [`drain_regions`] over a [`RegionSource`] is the one region loop — the
//!   in-process search feeds it an [`AtomicRegionSource`], the `fall-dist`
//!   farm workers (where parallel region search lives, one process per
//!   worker) a wire-backed source.
//! * [`CachingOracle`] is a sharded, deduplicating oracle cache, so
//!   `oracle_queries` counts distinct patterns; `fall-serve` keeps one per
//!   target, shared by all of that target's worker threads.  Real oracle
//!   access is the expensive, physically-limited resource in the threat
//!   model.
//! * [`CancelToken`] is the sticky cancellation flag a solver observes at its
//!   next check point (mid-search, not just between queries): `fall-serve`
//!   cancels jobs with it and `fall-dist` workers bridge the supervisor's
//!   `cancel` frame into it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::SolverStats;

use crate::key_confirmation::key_confirmation_with_predicate_in;
use crate::oracle::Oracle;
use crate::session::AttackSession;

/// A cloneable cancellation token shared by a group of workers.
///
/// Cancelling is sticky and idempotent.  Solvers observe the token through
/// [`AttackSession::set_interrupt`], so a long-running SAT query stops at its
/// next conflict/decision check point rather than at the next attack-loop
/// iteration.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation of every worker sharing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The shared flag, in the form [`AttackSession::set_interrupt`] expects.
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Number of independently-locked shards in a [`CachingOracle`].
const ORACLE_SHARDS: usize = 16;

/// How a [`CachingOracle`] holds the oracle it deduplicates.
enum OracleRef<'o> {
    /// Borrowed for the duration of one attack run (the partitioned-search
    /// case: the oracle outlives the search).
    Borrowed(&'o (dyn Oracle + Sync)),
    /// Shared ownership, for long-lived holders like the session server's
    /// target pool where no enclosing scope outlives the cache.
    Owned(Arc<dyn Oracle + Send + Sync>),
}

/// A thread-safe, deduplicating adapter around an I/O oracle.
///
/// Queries are memoized in a map sharded by input-pattern hash, so workers
/// contend on a shard only when they race on *nearby* patterns; the shard
/// lock is held across the underlying query, which guarantees each distinct
/// pattern reaches the real oracle exactly once no matter how many workers
/// ask for it concurrently.
pub struct CachingOracle<'o> {
    inner: OracleRef<'o>,
    shards: [Mutex<HashMap<Vec<bool>, Vec<bool>>>; ORACLE_SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'o> CachingOracle<'o> {
    /// Wraps a borrowed oracle in a fresh (empty) shared cache.
    pub fn new(inner: &'o (dyn Oracle + Sync)) -> CachingOracle<'o> {
        CachingOracle {
            inner: OracleRef::Borrowed(inner),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Wraps a shared (reference-counted) oracle in a fresh cache.
    ///
    /// The resulting `CachingOracle<'static>` owns its oracle, so it can live
    /// in long-running structures — the session server keeps one per
    /// registered target so every job against that target deduplicates
    /// through the same cache — instead of being scoped to one attack run.
    pub fn shared(inner: Arc<dyn Oracle + Send + Sync>) -> CachingOracle<'static> {
        CachingOracle {
            inner: OracleRef::Owned(inner),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The wrapped oracle, whichever way it is held.
    fn inner(&self) -> &(dyn Oracle + Sync) {
        match &self.inner {
            OracleRef::Borrowed(oracle) => *oracle,
            OracleRef::Owned(oracle) => oracle.as_ref(),
        }
    }

    /// Number of queries answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct patterns forwarded to the underlying oracle.
    pub fn unique_queries(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    fn shard(&self, inputs: &[bool]) -> &Mutex<HashMap<Vec<bool>, Vec<bool>>> {
        let mut hasher = DefaultHasher::new();
        inputs.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % ORACLE_SHARDS]
    }
}

impl Oracle for CachingOracle<'_> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        let mut shard = self.shard(inputs).lock().expect("oracle shard poisoned");
        if let Some(outputs) = shard.get(inputs) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outputs.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A distinct phase from the attack loop's logical "oracle_query"
        // span: this one times only deduplicated access to the real oracle.
        let _span = crate::trace::span("oracle_miss");
        let outputs = self.inner().query(inputs);
        shard.insert(inputs.to_vec(), outputs.clone());
        outputs
    }

    fn num_inputs(&self) -> usize {
        self.inner().num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner().num_outputs()
    }
}

/// A source of key-space region indices for a region-draining worker.
///
/// [`drain_regions`] pulls region indices from one of these until it is
/// exhausted, a key is found, or the run is cancelled.  The in-process
/// search uses [`AtomicRegionSource`] (an atomic counter); the
/// multi-process farm in [`crate::dist`] implements the same trait over a
/// wire protocol, so the region-draining worker loop is written exactly once.
pub trait RegionSource: Sync {
    /// The next region to search, or `None` when the queue is drained (or
    /// the run is over).  May block — a distributed source waits on the
    /// supervisor's reply here.
    fn next_region(&self) -> Option<u64>;

    /// Acknowledges that `region` completed without a key.  A distributed
    /// source reports this to its supervisor so the lease can be retired;
    /// the in-process source needs no acknowledgement (regions are retired
    /// the moment they are handed out, because the search cannot crash
    /// independently of the process).
    ///
    /// `stats` is the worker session's cumulative [`SolverStats`] snapshot at
    /// completion time.  A distributed source piggybacks it on the
    /// acknowledgement so the supervisor can maintain a farm-wide aggregate
    /// without an extra round trip; the in-process source ignores it
    /// ([`partitioned_key_search`] reads the session's stats once, at the
    /// end).
    fn complete_region(&self, _region: u64, _iterations: usize, _stats: &SolverStats) {}
}

/// The in-process [`RegionSource`]: a shared atomic counter over the dense
/// region range `0..regions`.
#[derive(Debug)]
pub struct AtomicRegionSource {
    next: AtomicU64,
    regions: u64,
}

impl AtomicRegionSource {
    /// A source that deals out `0..regions` exactly once across all pullers.
    pub fn new(regions: u64) -> AtomicRegionSource {
        AtomicRegionSource {
            next: AtomicU64::new(0),
            regions,
        }
    }
}

impl RegionSource for AtomicRegionSource {
    fn next_region(&self) -> Option<u64> {
        let region = self.next.fetch_add(1, Ordering::Relaxed);
        (region < self.regions).then_some(region)
    }
}

/// Why a [`drain_regions`] call returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionDrainOutcome {
    /// The source ran dry: every region this worker pulled completed and
    /// proved keyless.
    Drained,
    /// A region confirmed a key.
    Winner {
        /// The region whose constraints admitted the key.
        region: u64,
        /// The confirmed key.
        key: Key,
    },
    /// The session's interrupt flag fired (another worker won, or the
    /// caller aborted) before or during a region search.
    Cancelled,
}

/// What one worker did in a [`drain_regions`] call.
#[derive(Clone, Debug)]
pub struct RegionDrain {
    /// Why the drain ended.
    pub outcome: RegionDrainOutcome,
    /// Distinguishing-input iterations summed over all regions searched.
    pub iterations: usize,
    /// Regions this worker pulled (fully or partially searched).
    pub regions_searched: usize,
}

/// The region-draining worker loop, shared by [`partitioned_key_search`] and
/// the multi-process farm: pull regions from `source` and run key
/// confirmation for each on the worker's long-lived `session`, binding the
/// region's key-bit constraints in a retireable predicate generation.
///
/// Region `r` constrains key bit `b < partition_bits` to `(r >> b) & 1` —
/// the §VI-D partition.  `partition_bits` must be below 64.  Completed
/// keyless regions are acknowledged via [`RegionSource::complete_region`]; a
/// winner ends the drain immediately (the *caller* decides whether to cancel
/// the rest of a farm).  The session's interrupt flag is the only stop
/// signal: once it has fired no further region is pulled, and a region it
/// stopped mid-search ends the drain as [`RegionDrainOutcome::Cancelled`]
/// without an acknowledgement.  The session must already be primed and must
/// not have a predicate generation in flight.
pub fn drain_regions(
    session: &mut AttackSession,
    oracle: &dyn Oracle,
    source: &dyn RegionSource,
    partition_bits: usize,
) -> RegionDrain {
    let mut iterations = 0;
    let mut regions_searched = 0;
    let outcome = loop {
        if session.interrupted() {
            break RegionDrainOutcome::Cancelled;
        }
        let Some(region) = source.next_region() else {
            break RegionDrainOutcome::Drained;
        };
        regions_searched += 1;
        let _region_span = crate::trace::span("region_drain");

        let result = key_confirmation_with_predicate_in(session, oracle, |s, keys| {
            for (bit, &lit) in keys.iter().enumerate().take(partition_bits) {
                let value = (region >> bit) & 1 == 1;
                s.add_clause([if value { lit } else { !lit }]);
            }
        });
        iterations += result.iterations;

        if let Some(key) = result.key {
            break RegionDrainOutcome::Winner { region, key };
        }
        if !result.completed {
            break RegionDrainOutcome::Cancelled;
        }
        let stats = session.stats();
        source.complete_region(region, result.iterations, &stats);
    };
    RegionDrain {
        outcome,
        iterations,
        regions_searched,
    }
}

/// The outcome of a [`partitioned_key_search`] run.
#[derive(Clone, Debug)]
pub struct PartitionedSearchResult {
    /// The confirmed key, or `None` if no region contained one.
    pub key: Option<Key>,
    /// `true` if the search finished: either a key was confirmed or every
    /// region completed (proving no key exists).  `false` when the
    /// partition was unenumerable.
    pub completed: bool,
    /// Distinguishing-input iterations summed across all regions.
    pub iterations: usize,
    /// Distinct patterns that reached the real oracle (cache misses).
    pub oracle_queries: usize,
    /// Regions fully or partially searched before the run ended.
    pub regions_searched: usize,
    /// Full circuit encodings built: one (the session is primed once),
    /// however many regions it went on to search.
    pub cone_encodings_built: usize,
    /// End-of-run [`SolverStats`] of the session: conflicts/propagations,
    /// restarts by kind, reduction rounds, tier sizes, eliminated/resurrected
    /// variables, arena footprint, GC runs and recycled variables, EMA
    /// snapshots — the full counter surface, for metric export and bench
    /// gating.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// § VI-D partitioned key search: splits the key space into
/// `2^partition_bits` regions by fixing the first key bits and runs key
/// confirmation on each region in turn, returning the first confirmed key.
///
/// All regions run on **one** primed [`AttackSession`] through
/// [`drain_regions`] (ϕ is bound and retired per region via predicate
/// generations), behind a [`CachingOracle`], so `oracle_queries` counts the
/// distinct patterns the real oracle saw.  A region whose constraints turn
/// out contradictory poisons only its own generation; the next region
/// starts clean.  Parallel region search is the `fall-dist` farm's job: it
/// runs this same drain loop in one process per worker.
///
/// `partition_bits` is clamped to the key width.  Requesting 64 or more
/// effective partition bits would mean enumerating ≥ 2⁶⁴ regions (and
/// overflows the region counter), so such calls return immediately with
/// `completed: false` and no work done.
pub fn partitioned_key_search(
    locked: &Netlist,
    oracle: &(dyn Oracle + Sync),
    partition_bits: usize,
) -> PartitionedSearchResult {
    let start = Instant::now();
    let partition_bits = partition_bits.min(locked.num_key_inputs());
    if partition_bits >= u64::BITS as usize {
        return PartitionedSearchResult {
            key: None,
            completed: false,
            iterations: 0,
            oracle_queries: 0,
            regions_searched: 0,
            cone_encodings_built: 0,
            solver_stats: SolverStats::default(),
            elapsed: start.elapsed(),
        };
    }

    let cache = CachingOracle::new(oracle);
    let mut session = AttackSession::new(locked);
    session.prime();
    let drain = drain_regions(
        &mut session,
        &cache,
        &AtomicRegionSource::new(1u64 << partition_bits),
        partition_bits,
    );
    let (key, completed) = match drain.outcome {
        RegionDrainOutcome::Winner { key, .. } => (Some(key), true),
        RegionDrainOutcome::Drained => (None, true),
        RegionDrainOutcome::Cancelled => (None, false),
    };
    PartitionedSearchResult {
        key,
        completed,
        iterations: drain.iterations,
        oracle_queries: cache.unique_queries(),
        regions_searched: drain.regions_searched,
        cone_encodings_built: session.cone_encodings_built() as usize,
        solver_stats: session.stats(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests::InterruptAfter;
    use crate::oracle::SimOracle;
    use locking::{LockingScheme, SfllHd, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::GateKind;
    use std::thread;

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.flag.load(Ordering::SeqCst));
    }

    #[test]
    fn caching_oracle_deduplicates_queries() {
        let nl = generate(&RandomCircuitSpec::new("cache", 6, 2, 30));
        let sim = SimOracle::new(nl.clone());
        let cache = CachingOracle::new(&sim);
        let a = vec![true, false, true, false, true, false];
        let b = vec![false; 6];
        assert_eq!(cache.query(&a), nl.evaluate(&a, &[]));
        assert_eq!(cache.query(&b), nl.evaluate(&b, &[]));
        assert_eq!(cache.query(&a), nl.evaluate(&a, &[]));
        assert_eq!(cache.unique_queries(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.num_inputs(), 6);
        assert_eq!(cache.num_outputs(), 2);
    }

    #[test]
    fn caching_oracle_is_consistent_under_concurrency() {
        let nl = generate(&RandomCircuitSpec::new("cache_mt", 8, 2, 40));
        let sim = SimOracle::new(nl.clone());
        let cache = CachingOracle::new(&sim);
        thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let nl = &nl;
                scope.spawn(move || {
                    for pattern in 0..32u64 {
                        let bits = netlist::sim::pattern_to_bits(pattern ^ t, 8);
                        assert_eq!(cache.query(&bits), nl.evaluate(&bits, &[]));
                    }
                });
            }
        });
        // 4 threads × 32 overlapping patterns, but ≤ 35 distinct ones.
        assert!(cache.unique_queries() <= 35, "{}", cache.unique_queries());
        assert_eq!(cache.hits() + cache.unique_queries(), 128);
    }

    #[test]
    fn keys_unlock_the_original_at_every_partition_width() {
        // 5-bit key: p = 0 is plain confirmation, p = 5 pins the whole key
        // per region, and a request beyond the width is clamped to it.
        let original = generate(&RandomCircuitSpec::new("part_kc", 8, 2, 50));
        let locked = SfllHd::new(5, 0)
            .with_seed(2)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        for requested in [0usize, 2, 3, 5, 10] {
            let result = partitioned_key_search(&locked.locked, &oracle, requested);
            assert!(result.completed, "p = {requested}");
            let key = result.key.as_ref().expect("key recovered");
            assert!(
                locked.key_is_functionally_correct(key, 200, 4),
                "p = {requested}"
            );
            assert!(result.regions_searched as u64 <= 1 << requested.min(5));
        }
    }

    #[test]
    fn an_unrelated_oracle_exhausts_every_region_without_a_key() {
        let original = generate(&RandomCircuitSpec::new("par_none", 8, 2, 50));
        let unrelated = generate(&RandomCircuitSpec::new("par_none2", 8, 2, 50).with_seed(7));
        let locked = XorLock::new(4).with_seed(3).lock(&original).expect("lock");
        let oracle = SimOracle::new(unrelated);
        let result = partitioned_key_search(&locked.locked, &oracle, 2);
        assert!(result.completed);
        assert_eq!(result.key, None);
        assert_eq!(result.regions_searched, 4);
    }

    /// A locked netlist with 64 key inputs (XOR chain) plus a trivial
    /// keyless original for its oracle.
    fn wide_key_circuit_and_original() -> (Netlist, Netlist) {
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

    #[test]
    fn unenumerable_partitions_return_unfinished_without_work() {
        // 64 effective partition bits would overflow `1u64 << bits`; the
        // search must return a clean unfinished result instead.
        let (locked, original) = wide_key_circuit_and_original();
        let oracle = SimOracle::new(original);
        for bits in [64usize, 65, usize::MAX] {
            let result = partitioned_key_search(&locked, &oracle, bits);
            assert!(!result.completed, "bits {bits}");
            assert_eq!(result.key, None);
            assert_eq!(result.iterations, 0);
            assert_eq!(result.oracle_queries, 0);
            assert_eq!(result.regions_searched, 0);
        }
    }

    /// An SFLL-HD0 lock of a random 9-input circuit whose 6-bit key sits in
    /// the last of the 8 regions a 3-bit partition makes.
    fn key_in_the_last_of_eight_regions() -> (Netlist, locking::LockedCircuit) {
        let original = generate(&RandomCircuitSpec::new("pe_frames", 9, 2, 60));
        let locked = (0..64u64)
            .map(|seed| {
                SfllHd::new(6, 0)
                    .with_seed(seed)
                    .lock(&original)
                    .expect("lock")
            })
            .find(|locked| locked.key.bits()[..3].iter().all(|&bit| bit))
            .expect("some seed puts the key in the last region");
        (original, locked)
    }

    /// Deals out `0..regions` and records every acknowledged region.
    struct RecordingSource {
        regions: AtomicRegionSource,
        acknowledged: Mutex<Vec<u64>>,
    }

    impl RegionSource for RecordingSource {
        fn next_region(&self) -> Option<u64> {
            self.regions.next_region()
        }

        fn complete_region(&self, region: u64, _iterations: usize, _stats: &SolverStats) {
            self.acknowledged.lock().expect("log poisoned").push(region);
        }
    }

    #[test]
    fn the_sessions_own_interrupt_ends_the_drain_as_cancelled() {
        // No token is involved: the oracle raises the session's flag on its
        // first answer, inside region 0, which the key does not lie in.
        let (original, locked) = key_in_the_last_of_eight_regions();
        let flag = Arc::new(AtomicBool::new(false));
        let oracle = InterruptAfter::new(SimOracle::new(original), 1, Arc::clone(&flag));
        let mut session = AttackSession::new(&locked.locked);
        session.set_interrupt(Some(flag));
        session.prime();
        let source = RecordingSource {
            regions: AtomicRegionSource::new(8),
            acknowledged: Mutex::new(Vec::new()),
        };
        let drain = drain_regions(&mut session, &oracle, &source, 3);
        assert_eq!(drain.outcome, RegionDrainOutcome::Cancelled);
        assert_eq!(
            drain.regions_searched, 1,
            "no region is pulled after the flag"
        );
        assert_eq!(drain.iterations, 1);
        assert!(
            source.acknowledged.lock().expect("log poisoned").is_empty(),
            "the stopped region is not acknowledged"
        );
    }

    #[test]
    fn one_session_encodes_the_circuit_once_across_eight_regions() {
        // The key sits in the last of 8 regions, so every region is searched
        // on the one session.
        let (original, locked) = key_in_the_last_of_eight_regions();
        let oracle = SimOracle::new(original);
        let result = partitioned_key_search(&locked.locked, &oracle, 3);
        assert!(result.completed);
        let key = result.key.as_ref().expect("key recovered");
        assert!(locked.key_is_functionally_correct(key, 200, 4));
        assert_eq!(result.regions_searched, 8);
        assert_eq!(
            result.cone_encodings_built, 1,
            "one session encodes the circuit once for all its regions"
        );
        assert!(
            result.solver_stats.arena_bytes > 0,
            "arena footprint is reported"
        );
        assert!(
            result.solver_stats.recycled_vars > 0,
            "retired generations recycle their variables"
        );
    }
}
