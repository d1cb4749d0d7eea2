//! Cross-crate differential tests for the partitioned key search
//! (`fall::parallel::partitioned_key_search`: one primed session draining
//! every region) against a fresh-session-per-region reference.

use fall::key_confirmation::{key_confirmation_with_predicate_in, KeyConfirmationResult};
use fall::oracle::{CountingOracle, Oracle, SimOracle};
use fall::parallel::{partitioned_key_search, CachingOracle};
use fall::session::AttackSession;
use fall::unlock::{apply_key, equivalent_to};
use locking::{LockedCircuit, LockingScheme, SfllHd};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

const PARTITION_BITS: usize = 2;

/// The per-region reference: a fresh session per region, in region order,
/// stopping at the first confirmed key; `iterations` (one oracle query each)
/// is the sum over the regions searched (no cache, no shared learnt clauses).
fn per_region_reference(
    locked: &Netlist,
    oracle: &dyn Oracle,
    partition_bits: usize,
) -> KeyConfirmationResult {
    let mut total = KeyConfirmationResult {
        key: None,
        completed: true,
        iterations: 0,
        elapsed: std::time::Duration::ZERO,
    };
    for region in 0..1u64 << partition_bits {
        let mut session = AttackSession::new(locked);
        let result = key_confirmation_with_predicate_in(&mut session, oracle, |solver, keys| {
            for (bit, &lit) in keys.iter().enumerate().take(partition_bits) {
                solver.add_clause([if (region >> bit) & 1 == 1 { lit } else { !lit }]);
            }
        });
        total.iterations += result.iterations;
        total.elapsed += result.elapsed;
        if result.key.is_some() || !result.completed {
            total.key = result.key;
            total.completed = result.completed;
            break;
        }
    }
    total
}

/// An SFLL-HD0 lock of `original` whose correct key sits in the last region
/// of a `partition_bits` split (low key bits all ones), so both the engine
/// and the reference search every region.
fn locked_in_last_region(original: &Netlist, partition_bits: usize) -> LockedCircuit {
    (0..64u64)
        .map(|seed| {
            SfllHd::new(6, 0)
                .with_seed(seed)
                .lock(original)
                .expect("lock")
                .optimized()
        })
        .find(|locked| locked.key.bits()[..partition_bits].iter().all(|&bit| bit))
        .expect("some seed puts the key in the last region")
}

/// The engine's key must unlock to the same function as the per-region
/// reference's, verified with the equivalence checker on the unlocked
/// netlists.
#[test]
fn partitioned_search_key_is_equivalent_to_the_per_region_reference() {
    let original = generate(&RandomCircuitSpec::new("pe_diff", 9, 3, 60));
    let locked = SfllHd::new(6, 0)
        .with_seed(11)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original.clone());

    let reference = per_region_reference(&locked.locked, &oracle, PARTITION_BITS);
    assert!(reference.completed, "reference must finish");
    let reference_key = reference.key.expect("reference recovers a key");
    let reference_unlocked = apply_key(&locked.locked, &reference_key);
    assert!(equivalent_to(&reference_unlocked, &original, 512, 3));

    let result = partitioned_key_search(&locked.locked, &oracle, PARTITION_BITS);
    assert!(result.completed, "search must finish");
    let key = result.key.expect("search recovers a key");
    let unlocked = apply_key(&locked.locked, &key);
    assert!(equivalent_to(&unlocked, &reference_unlocked, 512, 3));
    assert!(equivalent_to(&unlocked, &original, 512, 3));
}

/// Oracle-access discipline: on a search that visits every region, the
/// engine's *unique* oracle queries must not exceed the per-region
/// reference's count plus one.
#[test]
fn partitioned_search_does_not_exceed_per_region_oracle_queries() {
    let original = generate(&RandomCircuitSpec::new("pe_queries", 9, 2, 60));
    let locked = locked_in_last_region(&original, PARTITION_BITS);
    let sim = SimOracle::new(original);

    let counting = CountingOracle::new(sim.clone());
    let reference = per_region_reference(&locked.locked, &counting, PARTITION_BITS);
    assert!(reference.completed && reference.key.is_some());
    let reference_queries = counting.queries();
    assert_eq!(reference_queries, reference.iterations);

    let result = partitioned_key_search(&locked.locked, &sim, PARTITION_BITS);
    assert!(result.completed && result.key.is_some());
    assert!(
        result.oracle_queries <= reference_queries + 1,
        "{} unique queries > per-region reference {} + 1",
        result.oracle_queries,
        reference_queries
    );
}

/// Stacking a caller's cache on top of the engine's own cache must still
/// keep real traffic equal to the outer cache's unique count.
#[test]
fn caching_oracle_bounds_real_oracle_traffic() {
    let original = generate(&RandomCircuitSpec::new("pe_cache", 8, 2, 50));
    let locked = SfllHd::new(5, 0)
        .with_seed(2)
        .lock(&original)
        .expect("lock")
        .optimized();
    let counting = CountingOracle::new(SimOracle::new(original));
    let cache = CachingOracle::new(&counting);
    let result = partitioned_key_search(&locked.locked, &cache, PARTITION_BITS);
    assert!(result.completed && result.key.is_some());
    assert_eq!(counting.queries(), cache.unique_queries());
}

/// Frame-scoped predicates end to end: one long-lived session drains 8
/// regions and must match the per-region-session reference — an equivalent
/// key, the oracle-access discipline intact, and exactly one full circuit
/// encoding for all the regions.
#[test]
fn long_lived_worker_sessions_match_per_region_baseline() {
    let partition_bits = 3;
    let original = generate(&RandomCircuitSpec::new("pe_frames", 9, 2, 60));
    let locked = locked_in_last_region(&original, partition_bits);
    let oracle = SimOracle::new(original.clone());

    let reference = per_region_reference(&locked.locked, &oracle, partition_bits);
    assert!(reference.completed, "per-region reference must finish");
    let reference_key = reference.key.expect("reference recovers a key");
    let reference_unlocked = apply_key(&locked.locked, &reference_key);
    assert!(equivalent_to(&reference_unlocked, &original, 512, 7));

    let result = partitioned_key_search(&locked.locked, &oracle, partition_bits);
    assert!(result.completed, "search must finish");
    let key = result.key.expect("long-lived session recovers a key");
    let unlocked = apply_key(&locked.locked, &key);
    assert!(
        equivalent_to(&unlocked, &reference_unlocked, 512, 7),
        "key must unlock to the same function as the per-region reference"
    );
    assert!(
        result.oracle_queries <= reference.iterations + 1,
        "{} unique queries > per-region reference {} + 1",
        result.oracle_queries,
        reference.iterations,
    );
    assert_eq!(result.regions_searched, 1 << partition_bits);
    assert_eq!(
        result.cone_encodings_built, 1,
        "one session encodes the circuit once for all its regions"
    );
}
