//! `farm_regions`: `fall_dist::Farm` with two pipes-mode workers (re-execs
//! of this binary) draining every key-space region of two paper-scale
//! targets, apex4 under HD0 (TTLock) and ex1010 under HD m/8.  Stealing and
//! first-winner cancellation are off, so each worker retires exactly its
//! dealt share and every counter repeats exactly.

use std::time::{Duration, Instant};

use fall_bench::{HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};
use fall_dist::{Farm, FarmConfig, FarmResult};
use locking::LockedCircuit;
use netshim::Value;

use crate::batch::add_solver_stats;
use crate::report::{digest, Report};
use crate::sys::{self, repeat};
use crate::Args;

const WORKERS: usize = 2;
const PARTITION_BITS: usize = 3;
/// A region search longer than this kills its worker (and the run fails).
const LEASE_TIMEOUT: Duration = Duration::from_secs(60);
/// Random patterns for the functional key check.
const KEY_CHECK_PATTERNS: usize = 64;

/// The two targets under their canonical `LockCase::build` locks, in an
/// order drawn from the seed.  A drain's cost is a property of the key
/// (seeded locks took 13.7-22.6 s per pass over three seeds), so the locks
/// stay fixed and every seed drains the same key spaces.
fn targets(seed: u64) -> Vec<(&'static str, LockedCircuit)> {
    let mut targets: Vec<(&'static str, LockedCircuit)> = [
        ("apex4", HdPolicy::Zero),
        ("ex1010", HdPolicy::EighthOfKeys),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let spec = TABLE1_CIRCUITS
            .iter()
            .find(|s| s.name == name)
            .expect("Table I circuit");
        (name, LockCase::build(spec, policy, Scale::Paper).locked)
    })
    .collect();
    if sys::mix(seed) % 2 == 1 {
        targets.reverse();
    }
    targets
}

/// One farm drain.
struct Drain {
    target: &'static str,
    result: FarmResult,
    spawn_s: f64,
    run_s: f64,
    children_cpu_s: f64,
}

fn drain(target: &'static str, locked: &LockedCircuit) -> Drain {
    let config = FarmConfig {
        workers: WORKERS,
        partition_bits: PARTITION_BITS,
        steal: false,
        cancel_on_winner: false,
        lease_timeout: LEASE_TIMEOUT,
        ..FarmConfig::default()
    };
    let children = sys::cpu_children_s();
    let started = Instant::now();
    let farm = Farm::spawn(&locked.locked, &locked.original, &config).expect("spawn farm workers");
    let spawn_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let result = farm.wait();
    Drain {
        target,
        result,
        spawn_s,
        run_s: started.elapsed().as_secs_f64(),
        children_cpu_s: sys::cpu_children_s() - children,
    }
}

fn counters(drains: &[Drain]) -> String {
    let mut all = Vec::new();
    // In target-name order, so both drain orders give the same digest.
    let mut drains: Vec<&Drain> = drains.iter().collect();
    drains.sort_by_key(|d| d.target);
    for d in drains {
        let r = &d.result;
        all.extend([
            ("iterations", r.iterations as u64),
            ("unique_oracle_queries", r.unique_oracle_queries as u64),
            ("regions_completed", r.regions_completed as u64),
            ("solves", r.solver_stats.solves),
            ("conflicts", r.solver_stats.conflicts),
            ("propagations", r.solver_stats.propagations),
            ("decisions", r.solver_stats.decisions),
        ]);
    }
    digest(&all)
}

/// Runs `farm_regions`.
pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut targets_built = Vec::new();
    while sys::more_setups(&setups) {
        let started = Instant::now();
        targets_built = targets(args.seed);
        setups.push(started.elapsed().as_secs_f64());
    }
    let targets = targets_built;
    let farm_pass = || {
        let cpu = sys::cpu_total_s();
        let started = Instant::now();
        let drains: Vec<Drain> = targets
            .iter()
            .map(|(name, locked)| drain(name, locked))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        ((drains, sys::cpu_total_s() - cpu), wall)
    };
    let passes = if args.trace {
        // An untraced pass, then the same drains with the recorder on.
        let untraced = farm_pass();
        fall::trace::set_enabled(true);
        let traced = farm_pass();
        fall::trace::set_enabled(false);
        vec![untraced, traced]
    } else {
        repeat(args.seconds, farm_pass)
    };

    let first = counters(&passes[0].0 .0);
    for ((drains, _), _) in &passes[1..] {
        let other = counters(drains);
        if other != first {
            report.errors.push(format!(
                "farm counters differ between passes: {first} vs {other}"
            ));
        }
    }
    let scored = if args.trace {
        &passes[1..]
    } else {
        &passes[..]
    };
    for ((drains, _), _) in scored {
        for ((name, locked), d) in targets.iter().zip(drains) {
            let r = &d.result;
            let key_ok = r.key.as_ref().is_some_and(|key| {
                *key == locked.key
                    && locked.key_is_functionally_correct(key, KEY_CHECK_PATTERNS, args.seed)
            });
            let regions_ok = r.regions_completed as u64 == 1 << PARTITION_BITS
                && r.regions_requeued == 0
                && r.workers_crashed == 0;
            if !regions_ok {
                report.errors.push(format!(
                    "{name}: {} of {} regions completed, {} requeued, {} workers crashed",
                    r.regions_completed,
                    1 << PARTITION_BITS,
                    r.regions_requeued,
                    r.workers_crashed
                ));
            }
            report.verdict(r.completed && key_ok && regions_ok);
        }
    }
    for ((name, _), d) in targets.iter().zip(&passes[0].0 .0) {
        let r = &d.result;
        report.ledger.push(Value::object([
            ("target", Value::from(*name)),
            ("completed", Value::from(r.completed)),
            ("spawn_s", Value::from(d.spawn_s)),
            ("run_s", Value::from(d.run_s)),
            ("iterations", Value::from(r.iterations)),
            (
                "unique_oracle_queries",
                Value::from(r.unique_oracle_queries),
            ),
            ("regions_completed", Value::from(r.regions_completed)),
            ("conflicts", Value::from(r.solver_stats.conflicts)),
        ]));
    }
    report.notes.insert("counters", Value::from(first));
    report.set("setup_s", sys::median(&setups));

    if !args.trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.0 .1).collect();
        report.passes(&walls, &cpus);
        let latencies: Vec<Vec<f64>> = passes
            .iter()
            .map(|((drains, _), _)| drains.iter().map(|d| d.spawn_s + d.run_s).collect())
            .collect();
        report.attack_latency(&latencies);
        return;
    }

    let ((drains, _), traced_wall) = &passes[1];
    let mut run_s = 0.0;
    let mut spawn_s = 0.0;
    let mut children_cpu = 0.0;
    let mut stats = Vec::new();
    for d in drains {
        let r = &d.result;
        spawn_s += d.spawn_s;
        run_s += d.run_s;
        children_cpu += d.children_cpu_s;
        report.add("dist.regions_completed", r.regions_completed as f64);
        report.add("dist.regions_requeued", r.regions_requeued as f64);
        report.add("dist.unique_oracle_queries", r.unique_oracle_queries as f64);
        report.add("dist.iterations", r.iterations as f64);
        report.add("oracle.queries", r.unique_oracle_queries as f64);
        report.add("key_confirmation.iterations", r.iterations as f64);
        report.add("session.sessions_created", r.workers as f64);
        stats.push(r.solver_stats);
    }
    add_solver_stats(report, &stats);
    report.set("dist.spawn_s", spawn_s);
    report.set("dist.run_s", run_s);
    report.set(
        "dist.worker_busy_frac",
        children_cpu / (WORKERS as f64 * run_s),
    );
    report.set("trace.coverage", (spawn_s + run_s) / traced_wall);
    report.set("trace.overhead_frac", traced_wall / passes[0].1 - 1.0);
}
