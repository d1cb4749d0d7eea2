//! Worker-scaling of the parallel attack engine on Table 1 workloads.
//!
//! Measures the serial `partitioned_key_search` against
//! `parallel_partitioned_key_search` at 1/2/4/8 workers on scaled Table 1
//! circuits.  Speedups are wall-clock and therefore bounded by the machine's
//! core count: on a single-core host all worker counts collapse to roughly
//! the serial time plus scheduling overhead.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fall::key_confirmation::{partitioned_key_search, KeyConfirmationConfig};
use fall::oracle::SimOracle;
use fall::parallel::parallel_partitioned_key_search;
use fall_bench::{HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};

const PARTITION_BITS: [usize; 2] = [2, 3];

fn bench_parallel_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_speedup");
    group
        .sample_size(3)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_secs(2));

    // Table 1 workloads: the first two circuits (10-bit keys at the scaled
    // size) locked with the TTLock/HD0 policy, the paper's
    // SAT-attack-resilient case where partitioned confirmation matters most.
    for spec in &TABLE1_CIRCUITS[..2] {
        let case = LockCase::build(spec, HdPolicy::Zero, Scale::Scaled);
        let oracle = SimOracle::new(case.locked.original.clone());
        let config = KeyConfirmationConfig::default();

        for partition_bits in PARTITION_BITS {
            let label = format!("{}_hd0_{}keys_p{partition_bits}", case.spec.name, case.keys);
            group.bench_with_input(BenchmarkId::new("serial", &label), &case, |b, case| {
                b.iter(|| {
                    partitioned_key_search(&case.locked.locked, &oracle, partition_bits, &config)
                })
            });
            for workers in [1usize, 2, 4, 8] {
                group.bench_with_input(
                    BenchmarkId::new(format!("parallel_{workers}w"), &label),
                    &case,
                    |b, case| {
                        b.iter(|| {
                            parallel_partitioned_key_search(
                                &case.locked.locked,
                                &oracle,
                                partition_bits,
                                workers,
                                &config,
                            )
                        })
                    },
                );
            }
        }
    }

    group.finish();
}

criterion_group!(benches, bench_parallel_speedup);
criterion_main!(benches);
