//! Cross-crate differential tests for the parallel attack engine:
//! `fall::parallel` versus the serial reference implementations.

use fall::key_confirmation::{partitioned_key_search, KeyConfirmationConfig};
use fall::oracle::{CountingOracle, SimOracle};
use fall::parallel::{parallel_partitioned_key_search, CachingOracle};
use fall::unlock::{apply_key, equivalent_to};
use locking::{LockingScheme, SfllHd};
use netlist::random::{generate, RandomCircuitSpec};

const PARTITION_BITS: usize = 2;

/// The parallel search must return a key functionally equivalent to the
/// serial search's for every worker count, verified with the existing
/// equivalence checker on the unlocked netlists.
#[test]
fn parallel_search_key_is_equivalent_to_serial_for_1_to_4_workers() {
    let original = generate(&RandomCircuitSpec::new("pe_diff", 9, 3, 60));
    let locked = SfllHd::new(6, 0)
        .with_seed(11)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original.clone());
    let config = KeyConfirmationConfig::default();

    let serial = partitioned_key_search(&locked.locked, &oracle, PARTITION_BITS, &config);
    assert!(serial.completed, "serial search must finish");
    let serial_key = serial.key.expect("serial search recovers a key");
    let serial_unlocked = apply_key(&locked.locked, &serial_key);
    assert!(equivalent_to(&serial_unlocked, &original, 512, 3));

    for workers in 1..=4 {
        let parallel = parallel_partitioned_key_search(
            &locked.locked,
            &oracle,
            PARTITION_BITS,
            workers,
            &config,
        );
        assert!(parallel.completed, "{workers} workers must finish");
        let key = parallel.key.expect("parallel search recovers a key");
        let unlocked = apply_key(&locked.locked, &key);
        assert!(
            equivalent_to(&unlocked, &serial_unlocked, 512, 3),
            "{workers}-worker key must unlock to the same function as serial"
        );
        assert!(
            equivalent_to(&unlocked, &original, 512, 3),
            "{workers}-worker key must unlock to the original"
        );
    }
}

/// Oracle-access discipline: on a search that visits every region (the
/// correct key sits in the last region of the serial order), the parallel
/// engine's *unique* oracle queries must never exceed the serial count plus
/// one in-flight region's worth of slack per worker — in practice the shared
/// cache keeps it strictly below the serial count.
#[test]
fn parallel_search_does_not_exceed_serial_oracle_queries() {
    // Find a seed whose correct key lies in the last region (low bits all
    // ones), so the serial search visits every region and its query count is
    // the worst case the parallel run can be compared against.
    let original = generate(&RandomCircuitSpec::new("pe_queries", 9, 2, 60));
    let locked = (0..64u64)
        .map(|seed| {
            SfllHd::new(6, 0)
                .with_seed(seed)
                .lock(&original)
                .expect("lock")
                .optimized()
        })
        .find(|locked| locked.key.bits()[..PARTITION_BITS].iter().all(|&bit| bit))
        .expect("some seed puts the key in the last region");
    let sim = SimOracle::new(original);
    let config = KeyConfirmationConfig::default();

    let counting = CountingOracle::new(sim.clone());
    let serial = partitioned_key_search(&locked.locked, &counting, PARTITION_BITS, &config);
    assert!(serial.completed && serial.key.is_some());
    let serial_queries = counting.queries();
    assert_eq!(serial_queries, serial.oracle_queries);

    for workers in 1..=4 {
        let parallel =
            parallel_partitioned_key_search(&locked.locked, &sim, PARTITION_BITS, workers, &config);
        assert!(parallel.completed && parallel.key.is_some());
        assert!(
            parallel.oracle_queries <= serial_queries + workers,
            "{workers} workers: {} unique queries > serial {} + {}",
            parallel.oracle_queries,
            serial_queries,
            workers
        );
    }
}

/// The shared cache answers repeated queries without touching the real
/// oracle, across threads.
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
    let parallel = parallel_partitioned_key_search(
        &locked.locked,
        &cache,
        PARTITION_BITS,
        3,
        &KeyConfirmationConfig::default(),
    );
    assert!(parallel.completed && parallel.key.is_some());
    // The engine wraps the oracle in its own cache; stacking another cache on
    // top must still keep real traffic equal to the inner unique count.
    assert_eq!(counting.queries(), cache.unique_queries());
}

/// Frame-scoped predicates end to end: workers keep one long-lived session
/// across regions, and the result must match the per-region-session baseline
/// (the serial search builds a fresh session per region) — identical keys
/// for 1..=4 workers, the oracle-access discipline intact, and exactly one
/// session plus one full circuit encoding per *worker*, not per region.
#[test]
fn long_lived_worker_sessions_match_per_region_baseline() {
    // 3 partition bits → 8 regions, so every worker count stays below the
    // region count and the sessions-per-worker claim is meaningful.  The
    // seed is chosen so the correct key sits in the *last* region: every
    // region is searched, which makes the serial query count the worst case
    // the oracle-access discipline is measured against (same construction as
    // `parallel_search_does_not_exceed_serial_oracle_queries`).
    let partition_bits = 3;
    let num_regions = 1usize << partition_bits;
    let original = generate(&RandomCircuitSpec::new("pe_frames", 9, 2, 60));
    let locked = (0..64u64)
        .map(|seed| {
            SfllHd::new(6, 0)
                .with_seed(seed)
                .lock(&original)
                .expect("lock")
                .optimized()
        })
        .find(|locked| locked.key.bits()[..partition_bits].iter().all(|&bit| bit))
        .expect("some seed puts the key in the last region");
    let oracle = SimOracle::new(original.clone());
    let config = KeyConfirmationConfig::default();

    let serial = partitioned_key_search(&locked.locked, &oracle, partition_bits, &config);
    assert!(serial.completed, "per-region baseline must finish");
    let serial_key = serial.key.expect("baseline recovers a key");
    let serial_unlocked = apply_key(&locked.locked, &serial_key);
    assert!(equivalent_to(&serial_unlocked, &original, 512, 7));

    for workers in 1..=4 {
        let parallel = parallel_partitioned_key_search(
            &locked.locked,
            &oracle,
            partition_bits,
            workers,
            &config,
        );
        assert!(parallel.completed, "{workers} workers must finish");
        let key = parallel.key.expect("long-lived sessions recover a key");
        let unlocked = apply_key(&locked.locked, &key);
        assert!(
            equivalent_to(&unlocked, &serial_unlocked, 512, 7),
            "{workers}-worker key must unlock to the same function as the \
             per-region baseline"
        );
        assert!(
            parallel.oracle_queries <= serial.oracle_queries + workers,
            "{workers} workers: {} unique queries > per-region baseline {} + {workers}",
            parallel.oracle_queries,
            serial.oracle_queries,
        );
        assert_eq!(
            parallel.sessions_created, workers,
            "sessions are per worker, not per region"
        );
        assert!(
            parallel.sessions_created < num_regions,
            "{workers} workers must not build one session per region"
        );
        assert_eq!(
            parallel.cone_encodings_built, workers,
            "each worker encodes the circuit exactly once for all its regions"
        );
    }
}
