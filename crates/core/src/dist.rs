//! Transport-free state machines for the distributed key-search farm.
//!
//! The `fall-dist` crate splits [`crate::parallel`]'s partitioned key search
//! across OS processes: one **supervisor** owns the global region queue and
//! the merged oracle cache, and N **workers** each run one long-lived primed
//! [`crate::session::AttackSession`], pulling §VI-D key-space regions over a
//! wire (stdin/stdout pipes or TCP — the transport lives in `fall-dist`,
//! specified in `docs/PROTOCOL.md`).  Everything that can be reasoned about
//! without I/O lives here, unit-testable in isolation:
//!
//! * [`RegionBoard`] — the supervisor's region scheduler: round-robin dealt
//!   per-worker shares, re-dealt to the survivors when a worker crashes
//!   (a region is only retired on a `complete` acknowledgement), and
//!   work-stealing when a worker drains its own share.
//! * [`PairStore`] — the supervisor's merged (input → output) oracle map:
//!   workers ship the pairs they discovered with each round-trip, the store
//!   deduplicates them, and an append-only log serves incremental deltas to
//!   piggyback on lease replies.
//! * [`SyncingOracle`] — the worker-side oracle adapter: a local cache
//!   seeded by supervisor deltas plus an outbox of newly-discovered pairs.
//!   Seeded pairs answer locally, so the number of *distinct* patterns that
//!   reach any real oracle across the whole farm stays bounded near the
//!   single-process count.
//!
//! Cross-process cache sync never changes what an oracle *answers* — only
//! which process pays for the answer — so worker trajectories are identical
//! to a single-process run given the same region sequence.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::oracle::Oracle;

/// One observed oracle (input pattern, output pattern) pair, as shipped
/// between farm processes.
pub type IoPair = (Vec<bool>, Vec<bool>);

/// The supervisor's merged, deduplicating (input → output) oracle map.
///
/// Workers attach the pairs they discovered to each `lease`/`complete`
/// message; [`PairStore::merge`] folds them in, and the append-only log lets
/// the supervisor piggyback exactly the pairs a worker has not seen yet on
/// its next lease reply ([`PairStore::delta_since`]).
#[derive(Debug, Default)]
pub struct PairStore {
    map: HashMap<Vec<bool>, Vec<bool>>,
    log: Vec<IoPair>,
}

impl PairStore {
    /// An empty store.
    pub fn new() -> PairStore {
        PairStore::default()
    }

    /// Merges a batch of pairs, ignoring inputs already present; returns how
    /// many were new.  New pairs are appended to the delta log in the order
    /// first seen.
    pub fn merge(&mut self, pairs: impl IntoIterator<Item = IoPair>) -> usize {
        let mut added = 0;
        for (input, output) in pairs {
            if self.map.contains_key(&input) {
                continue;
            }
            self.map.insert(input.clone(), output.clone());
            self.log.push((input, output));
            added += 1;
        }
        added
    }

    /// Number of distinct input patterns in the store — the farm-wide unique
    /// oracle-query count once every worker has synced.
    pub fn unique(&self) -> usize {
        self.map.len()
    }

    /// Length of the delta log (equals [`PairStore::unique`]; separate so
    /// callers record a log *position*, not a set size).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The pairs appended since log position `since` (a value previously
    /// obtained from [`PairStore::log_len`]).
    pub fn delta_since(&self, since: usize) -> &[IoPair] {
        &self.log[since.min(self.log.len())..]
    }
}

/// What a [`RegionBoard::lease`] call granted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lease {
    /// A region to search.  `stolen` is `true` when it came out of another
    /// worker's share rather than the requester's own.
    Grant {
        /// The region index.
        region: u64,
        /// Whether work-stealing supplied it.
        stolen: bool,
    },
    /// Nothing to grant *right now*, but the run is not provably over:
    /// other workers hold leases or un-stealable shares, and a crash could
    /// requeue work.  The requester should wait for a wake-up.
    Parked,
    /// The whole region space is retired; the requester can stop.
    Drained,
}

/// The supervisor's region scheduler.
///
/// Regions `0..regions` are dealt round-robin into per-worker shares
/// (region `r` belongs to worker `r % workers`), and a dead worker's lease
/// and share are dealt on to the survivors the same way
/// ([`RegionBoard::fail_worker`]).  So with stealing and cancellation
/// disabled every worker's region sequence is a deterministic function of
/// the partition and of which workers die, whenever they die — the
/// property the bench-smoke gate and the crash tests rely on.  Leases are
/// granted from the requester's own share, front first, and, when stealing
/// is enabled and that share is empty, from the *back* of the longest other
/// live share.
///
/// A worker holds at most one lease at a time, and a region is only retired
/// by [`RegionBoard::complete`] — never by the act of granting — so a killed
/// worker's lease always returns to the queue.
#[derive(Debug)]
pub struct RegionBoard {
    shares: Vec<VecDeque<u64>>,
    leased: Vec<Option<u64>>,
    dead: Vec<bool>,
    steal: bool,
    completed: usize,
    stolen: usize,
    requeued: usize,
}

impl RegionBoard {
    /// Deals `regions` regions round-robin across `workers` shares.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(regions: u64, workers: usize, steal: bool) -> RegionBoard {
        assert!(workers > 0, "a region board needs at least one worker");
        let mut shares = vec![VecDeque::new(); workers];
        for region in 0..regions {
            shares[(region % workers as u64) as usize].push_back(region);
        }
        RegionBoard {
            shares,
            leased: vec![None; workers],
            dead: vec![false; workers],
            steal,
            completed: 0,
            stolen: 0,
            requeued: 0,
        }
    }

    /// Grants the next region to `worker`, or reports the queue state.
    ///
    /// # Panics
    ///
    /// Panics if `worker` already holds a lease (the wire protocol is
    /// strictly lease → complete → lease).
    pub fn lease(&mut self, worker: usize) -> Lease {
        assert!(
            self.leased[worker].is_none(),
            "worker {worker} leased twice without completing"
        );
        if self.dead[worker] {
            return Lease::Drained;
        }
        if let Some(region) = self.shares[worker].pop_front() {
            self.leased[worker] = Some(region);
            return Lease::Grant {
                region,
                stolen: false,
            };
        }
        if self.steal {
            let victim = (0..self.shares.len())
                .filter(|&w| w != worker && !self.dead[w])
                .max_by_key(|&w| self.shares[w].len())
                .filter(|&w| !self.shares[w].is_empty());
            if let Some(victim) = victim {
                let region = self.shares[victim].pop_back().expect("non-empty share");
                self.leased[worker] = Some(region);
                self.stolen += 1;
                return Lease::Grant {
                    region,
                    stolen: true,
                };
            }
        }
        if self.done() {
            Lease::Drained
        } else {
            Lease::Parked
        }
    }

    /// Retires `worker`'s outstanding lease of `region`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` does not hold a lease of `region`.
    pub fn complete(&mut self, worker: usize, region: u64) {
        assert_eq!(
            self.leased[worker].take(),
            Some(region),
            "worker {worker} completed a region it does not hold"
        );
        self.completed += 1;
    }

    /// Marks `worker` dead (crashed, hung, or disconnected) and deals what
    /// it still owed the run — its outstanding lease, the region it may have
    /// been mid-search on, then the un-leased remainder of its share —
    /// round-robin onto the backs of the live workers' shares, in worker
    /// order.  Only the lease counts as requeued (the share's regions were
    /// never at risk, merely re-homed).  Where a region lands depends only
    /// on which workers are alive, never on how far they got, so a crash
    /// keeps every survivor's region sequence deterministic.  With no
    /// survivor the regions stay in the dead worker's share.  Returns `true`
    /// when any region was reclaimed — i.e. the worker died with work it
    /// still owed the run.
    pub fn fail_worker(&mut self, worker: usize) -> bool {
        if self.dead[worker] {
            return false;
        }
        self.dead[worker] = true;
        let lease = self.leased[worker].take();
        self.requeued += usize::from(lease.is_some());
        let owed: Vec<u64> = lease
            .into_iter()
            .chain(self.shares[worker].drain(..))
            .collect();
        let survivors: Vec<usize> = (0..self.dead.len()).filter(|&w| !self.dead[w]).collect();
        let reclaimed = !owed.is_empty();
        if survivors.is_empty() {
            self.shares[worker].extend(owed);
        } else {
            for (region, &heir) in owed.into_iter().zip(survivors.iter().cycle()) {
                self.shares[heir].push_back(region);
            }
        }
        reclaimed
    }

    /// `true` once every region is retired: all shares are empty and no
    /// lease is outstanding.
    pub fn done(&self) -> bool {
        self.shares.iter().all(VecDeque::is_empty) && self.leased.iter().all(Option::is_none)
    }

    /// The region `worker` currently holds, if any.
    pub fn leased(&self, worker: usize) -> Option<u64> {
        self.leased[worker]
    }

    /// Regions retired by [`RegionBoard::complete`].
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Leases granted out of another worker's share.
    pub fn stolen(&self) -> usize {
        self.stolen
    }

    /// Mid-flight leases returned to the queue by [`RegionBoard::fail_worker`].
    pub fn requeued(&self) -> usize {
        self.requeued
    }
}

/// The worker-side oracle adapter of the farm's cross-process cache sync.
///
/// Wraps the worker's real oracle (in the smoke/test farms, a local
/// simulation of the activated chip) with a per-pattern cache plus an
/// **outbox**: a query answered locally is free; a miss queries the real
/// oracle, caches the pair, and records it for the next shipment to the
/// supervisor ([`SyncingOracle::take_outbox`]).  Pairs learned *from* the
/// supervisor enter via [`SyncingOracle::seed`] and never re-enter the
/// outbox, so the same pair is never echoed back.  Each distinct pattern
/// reaches the real oracle at most once, the property
/// [`crate::parallel::CachingOracle`] provides in-process.
pub struct SyncingOracle<'o> {
    inner: &'o (dyn Oracle + Sync),
    state: Mutex<SyncState>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

#[derive(Default)]
struct SyncState {
    map: HashMap<Vec<bool>, Vec<bool>>,
    outbox: Vec<IoPair>,
}

impl<'o> SyncingOracle<'o> {
    /// Wraps `inner` with an empty cache and outbox.
    pub fn new(inner: &'o (dyn Oracle + Sync)) -> SyncingOracle<'o> {
        SyncingOracle {
            inner,
            state: Mutex::new(SyncState::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Installs pairs learned from the supervisor.  Already-known inputs are
    /// ignored; seeded pairs do not enter the outbox.
    pub fn seed(&self, pairs: impl IntoIterator<Item = IoPair>) {
        let mut state = self.state.lock().expect("sync cache poisoned");
        for (input, output) in pairs {
            state.map.entry(input).or_insert(output);
        }
    }

    /// Drains the outbox: every pair this worker discovered (queried from
    /// its real oracle) since the previous call.
    pub fn take_outbox(&self) -> Vec<IoPair> {
        std::mem::take(&mut self.state.lock().expect("sync cache poisoned").outbox)
    }

    /// Queries answered from the local cache (including seeded pairs).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct patterns this worker forwarded to its real oracle.
    pub fn local_unique(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Oracle for SyncingOracle<'_> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        let mut state = self.state.lock().expect("sync cache poisoned");
        if let Some(outputs) = state.map.get(inputs) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outputs.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Same phase as `CachingOracle` misses: deduplicated real-oracle
        // access, distinct from the attack loop's logical "oracle_query".
        let _span = crate::trace::span("oracle_miss");
        let outputs = self.inner.query(inputs);
        state.map.insert(inputs.to_vec(), outputs.clone());
        state.outbox.push((inputs.to_vec(), outputs.clone()));
        outputs
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, SimOracle};
    use netlist::random::{generate, RandomCircuitSpec};

    #[test]
    fn pair_store_dedups_and_serves_deltas() {
        let mut store = PairStore::new();
        let a = (vec![true, false], vec![true]);
        let b = (vec![false, false], vec![false]);
        assert_eq!(store.merge([a.clone(), b.clone(), a.clone()]), 2);
        assert_eq!(store.unique(), 2);
        let mark = store.log_len();
        let c = (vec![true, true], vec![false]);
        assert_eq!(store.merge([b.clone(), c.clone()]), 1);
        assert_eq!(store.delta_since(mark), &[c]);
        assert_eq!(store.delta_since(0).len(), 3);
        assert!(store.delta_since(99).is_empty());
    }

    #[test]
    fn board_deals_round_robin_and_serves_own_share_first() {
        let mut board = RegionBoard::new(4, 2, false);
        assert_eq!(
            board.lease(0),
            Lease::Grant {
                region: 0,
                stolen: false
            }
        );
        assert_eq!(
            board.lease(1),
            Lease::Grant {
                region: 1,
                stolen: false
            }
        );
        board.complete(0, 0);
        board.complete(1, 1);
        assert_eq!(
            board.lease(0),
            Lease::Grant {
                region: 2,
                stolen: false
            }
        );
        assert_eq!(
            board.lease(1),
            Lease::Grant {
                region: 3,
                stolen: false
            }
        );
        board.complete(0, 2);
        assert_eq!(board.lease(0), Lease::Parked, "worker 1 still holds 3");
        board.complete(1, 3);
        assert_eq!(board.lease(0), Lease::Drained);
        assert_eq!(board.lease(1), Lease::Drained);
        assert!(board.done());
        assert_eq!(board.completed(), 4);
        assert_eq!((board.stolen(), board.requeued()), (0, 0));
    }

    #[test]
    fn board_steals_from_the_longest_share_when_enabled() {
        let mut board = RegionBoard::new(6, 3, true);
        // Worker 0 drains its share {0, 3}.
        assert!(matches!(board.lease(0), Lease::Grant { region: 0, .. }));
        board.complete(0, 0);
        assert!(matches!(board.lease(0), Lease::Grant { region: 3, .. }));
        board.complete(0, 3);
        // Its own share is empty: it steals from the back of a peer's.
        let Lease::Grant { region, stolen } = board.lease(0) else {
            panic!("expected a stolen grant");
        };
        assert!(stolen);
        assert!(
            region == 4 || region == 5,
            "back of a peer share, got {region}"
        );
        assert_eq!(board.stolen(), 1);
    }

    #[test]
    fn board_deals_a_dead_workers_lease_and_share_to_the_survivors() {
        let mut board = RegionBoard::new(4, 2, false);
        assert!(matches!(board.lease(0), Lease::Grant { region: 0, .. }));
        assert!(matches!(board.lease(1), Lease::Grant { region: 1, .. }));
        board.fail_worker(0);
        // Only the in-flight lease counts as requeued; the undisturbed
        // remainder of the share ({2}) is merely re-homed.
        assert_eq!(board.requeued(), 1);
        board.complete(1, 1);
        // The survivor's own share comes first, then the crashed lease, then
        // the re-homed share.
        for region in [3, 0, 2] {
            assert_eq!(
                board.lease(1),
                Lease::Grant {
                    region,
                    stolen: false
                }
            );
            board.complete(1, region);
        }
        assert_eq!(board.lease(1), Lease::Drained);
        assert!(board.done());
        // fail_worker is idempotent.
        board.fail_worker(0);
        assert_eq!(board.requeued(), 1);
    }

    #[test]
    fn a_dead_workers_regions_land_the_same_however_far_survivors_got() {
        // Worker 0 dies holding region 0 with region 3 still in its share;
        // its regions go to workers 1 and 2 in that order, whether or not
        // they have leased their own first region yet.
        let sequences = |survivors_leased_first: bool| {
            let mut board = RegionBoard::new(4, 3, false);
            assert!(matches!(board.lease(0), Lease::Grant { region: 0, .. }));
            let mut held = [None, None, None];
            if survivors_leased_first {
                for worker in [1, 2] {
                    if let Lease::Grant { region, .. } = board.lease(worker) {
                        held[worker] = Some(region);
                    }
                }
            }
            board.fail_worker(0);
            let mut sequences = vec![Vec::new(); 3];
            for worker in [1, 2] {
                loop {
                    let region = match held[worker].take() {
                        Some(region) => region,
                        None => match board.lease(worker) {
                            Lease::Grant { region, .. } => region,
                            _ => break,
                        },
                    };
                    sequences[worker].push(region);
                    board.complete(worker, region);
                }
            }
            sequences
        };
        assert_eq!(sequences(false), vec![vec![], vec![1, 0], vec![2, 3]]);
        assert_eq!(sequences(true), sequences(false));
    }

    #[test]
    fn board_without_steal_parks_until_peers_finish() {
        let mut board = RegionBoard::new(2, 2, false);
        assert!(matches!(board.lease(1), Lease::Grant { region: 1, .. }));
        assert!(matches!(board.lease(0), Lease::Grant { region: 0, .. }));
        board.complete(0, 0);
        assert_eq!(board.lease(0), Lease::Parked);
        assert!(!board.done());
        board.complete(1, 1);
        assert_eq!(board.lease(0), Lease::Drained);
    }

    #[test]
    fn syncing_oracle_seeds_answer_locally_and_misses_fill_the_outbox() {
        let nl = generate(&RandomCircuitSpec::new("dist_sync", 4, 2, 20));
        let counting = CountingOracle::new(SimOracle::new(nl.clone()));
        let oracle = SyncingOracle::new(&counting);

        let a = vec![true, false, true, false];
        let b = vec![false, true, false, true];
        // Seed one pair as if it arrived from the supervisor.
        oracle.seed([(a.clone(), nl.evaluate(&a, &[]))]);
        assert_eq!(oracle.query(&a), nl.evaluate(&a, &[]));
        assert_eq!(counting.queries(), 0, "seeded pair never hits the oracle");
        // A genuine miss queries through and lands in the outbox.
        assert_eq!(oracle.query(&b), nl.evaluate(&b, &[]));
        assert_eq!(oracle.query(&b), nl.evaluate(&b, &[]));
        assert_eq!(counting.queries(), 1);
        assert_eq!(
            oracle.take_outbox(),
            vec![(b, nl.evaluate(&[false, true, false, true], &[]))]
        );
        assert!(oracle.take_outbox().is_empty(), "outbox drains");
        assert_eq!((oracle.hits(), oracle.local_unique()), (2, 1));
    }
}
