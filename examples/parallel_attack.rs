//! The parallel attack engine in action: partitioned key search on a worker
//! pool.
//!
//! ```text
//! cargo run --release --example parallel_attack
//! ```

use std::time::Instant;

use fall::key_confirmation::{partitioned_key_search, KeyConfirmationConfig};
use fall::oracle::SimOracle;
use fall::parallel::parallel_partitioned_key_search;
use locking::{LockingScheme, TtLock};
use netlist::random::{generate, RandomCircuitSpec};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== fall::parallel demo ({cores} core(s) available) ==\n");

    // A TTLock-protected circuit: the SAT-attack-resilient case where the
    // paper's § VI-D key-space partitioning pays off.
    let original = generate(&RandomCircuitSpec::new("par_demo", 12, 3, 120));
    let locked = TtLock::new(9)
        .with_seed(17)
        .lock(&original)
        .expect("lock")
        .optimized();
    let oracle = SimOracle::new(original);
    let config = KeyConfirmationConfig::default();
    let partition_bits = 3;

    let t = Instant::now();
    let serial = partitioned_key_search(&locked.locked, &oracle, partition_bits, &config);
    let serial_elapsed = t.elapsed();
    println!(
        "serial partitioned search : key {:?} after {} oracle queries in {serial_elapsed:.2?}",
        serial.key.as_ref().map(|k| k.to_string()),
        serial.oracle_queries,
    );

    for workers in [1usize, 2, 4] {
        let t = Instant::now();
        let parallel = parallel_partitioned_key_search(
            &locked.locked,
            &oracle,
            partition_bits,
            workers,
            &config,
        );
        let elapsed = t.elapsed();
        println!(
            "parallel search, {workers} worker(s): key {:?}, {} unique / {} cached queries, \
             {} regions on {} session(s) ({} full encodings), {elapsed:.2?} ({:.2}x vs serial)",
            parallel.key.as_ref().map(|k| k.to_string()),
            parallel.oracle_queries,
            parallel.cache_hits,
            parallel.regions_searched,
            parallel.sessions_created,
            parallel.cone_encodings_built,
            serial_elapsed.as_secs_f64() / elapsed.as_secs_f64(),
        );
    }
}
