//! End-to-end farm tests: pipes and TCP transports, crash requeue, and the
//! differential invariants the in-process search gates
//! (`tests/parallel_engine.rs`) carried over to the multi-process farm.
//!
//! Worker processes are the `fall-dist` binary itself (Cargo exposes its
//! test-profile path as `CARGO_BIN_EXE_fall-dist`), so these tests exercise
//! the exact re-exec path production farms use.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fall::key_confirmation::{key_confirmation_with_predicate_in, KeyConfirmationResult};
use fall::parallel::{drain_regions, CachingOracle, RegionDrainOutcome, RegionSource};
use fall::{AttackSession, Oracle, SimOracle};
use fall_dist::protocol::WorkerMessage;
use fall_dist::{farm_over_tcp, Farm, FarmConfig, FarmResult, WorkerOptions, WORKER_SENTINEL};
use locking::{LockedCircuit, LockingScheme, SfllHd};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

const PARTITION_BITS: usize = 2;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fall-dist"))
}

/// The per-region reference: a fresh session per region, in region order,
/// stopping at the first confirmed key; `iterations` (one oracle query each)
/// is the sum over the regions searched (no cache, no shared learnt clauses).
fn per_region_reference(locked: &Netlist, oracle: &dyn Oracle) -> KeyConfirmationResult {
    let mut total = KeyConfirmationResult {
        key: None,
        completed: true,
        iterations: 0,
        elapsed: Duration::ZERO,
    };
    for region in 0..1u64 << PARTITION_BITS {
        let mut session = AttackSession::new(locked);
        let result = key_confirmation_with_predicate_in(&mut session, oracle, |solver, keys| {
            for (bit, &lit) in keys.iter().enumerate().take(PARTITION_BITS) {
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

/// The differential workload: a lockable circuit, its activated (key-free)
/// oracle netlist, and the serial reference result.
fn smoke_case() -> (LockedCircuit, Netlist, KeyConfirmationResult) {
    let original = generate(&RandomCircuitSpec::new("dist_farm", 8, 2, 50));
    let locked = SfllHd::new(5, 0)
        .with_seed(2)
        .lock(&original)
        .expect("lock");
    let serial = per_region_reference(&locked.locked, &SimOracle::new(original.clone()));
    assert!(serial.completed, "serial reference must conclude");
    assert!(serial.key.is_some(), "serial reference must find the key");
    (locked, original, serial)
}

fn base_config(workers: usize) -> FarmConfig {
    FarmConfig {
        workers,
        partition_bits: PARTITION_BITS,
        worker_exe: Some(worker_exe()),
        ..FarmConfig::default()
    }
}

#[test]
fn pipes_farm_recovers_the_serial_key_with_bounded_oracle_traffic() {
    let (locked, original, serial) = smoke_case();
    let farm = Farm::spawn(&locked.locked, &original, &base_config(2)).expect("spawn farm");
    let result = farm.wait();

    assert!(result.completed, "farm run concludes");
    assert_eq!(result.workers, 2);
    assert_eq!(result.workers_crashed, 0);
    assert_eq!(result.regions_requeued, 0);
    let key = result.key.as_ref().expect("farm recovers a key");
    assert!(
        locked.key_is_functionally_correct(key, 200, 4),
        "farm key unlocks the circuit"
    );
    // The invariant the in-process search gates: cross-process dedup keeps
    // unique oracle traffic within a worker's-worth of the serial count.
    assert!(
        result.unique_oracle_queries <= serial.iterations + result.workers,
        "farm {} vs serial {}",
        result.unique_oracle_queries,
        serial.iterations
    );
}

#[test]
fn drain_all_mode_retires_every_region_deterministically() {
    let (locked, original, _serial) = smoke_case();
    let config = FarmConfig {
        steal: false,
        cancel_on_winner: false,
        ..base_config(2)
    };
    let first = Farm::spawn(&locked.locked, &original, &config)
        .expect("spawn farm")
        .wait();
    assert!(first.completed);
    assert_eq!(
        first.regions_completed as u64, first.regions,
        "drain-all retires every region"
    );
    assert_eq!(first.regions_stolen, 0, "stealing disabled");
    let key = first.key.as_ref().expect("key recovered");
    assert!(locked.key_is_functionally_correct(key, 200, 4));

    // Worker telemetry: every complete frame piggybacks a cumulative
    // snapshot, and the supervisor's farm-wide aggregate is exactly the
    // field-wise sum of each worker's latest snapshot.
    assert_eq!(
        first.stats_reports, first.regions_completed,
        "every complete carries telemetry"
    );
    assert!(
        first.worker_telemetry.iter().all(Option::is_some),
        "both workers reported telemetry"
    );
    let mut summed = sat::SolverStats::default();
    for telemetry in first.worker_telemetry.iter().flatten() {
        summed.absorb(&telemetry.solver);
    }
    assert_eq!(
        first.solver_stats, summed,
        "supervisor aggregate equals the sum of worker-local stats"
    );
    assert!(first.solver_stats.solves > 0, "workers did SAT work");
    assert!(
        first
            .worker_telemetry
            .iter()
            .flatten()
            .map(|telemetry| telemetry.oracle_unique)
            .sum::<u64>()
            > 0,
        "workers reported oracle traffic"
    );
    // No serial-count bound here: drain-all deliberately searches every
    // region, including those the early-stopping serial reference never
    // reached, so its unique-query count is not comparable to serial's.
    // The cancel-on-winner tests above carry that invariant.

    // With fixed round-robin shares, no stealing, no early cancel, and
    // winners that keep draining, every worker's region sequence — and
    // therefore the merged unique-query count — is a pure function of the
    // workload.  This determinism is what lets bench_smoke gate
    // `dist_2w_unique_oracle_queries` at a point value.
    let second = Farm::spawn(&locked.locked, &original, &config)
        .expect("spawn farm")
        .wait();
    assert_eq!(
        second.unique_oracle_queries, first.unique_oracle_queries,
        "drain-all unique-query count is reproducible"
    );
    assert_eq!(second.key, first.key);
}

/// A [`RegionSource`] that deals one fixed region sequence.
struct Sequence(Mutex<VecDeque<u64>>);

impl RegionSource for Sequence {
    fn next_region(&self) -> Option<u64> {
        self.0.lock().expect("sequence lock").pop_front()
    }
}

/// Distinct oracle patterns asked by in-process workers draining
/// `sequences` — one primed session per sequence, winners draining on, as a
/// farm worker does — through one shared cache.  A session's trajectory
/// does not depend on who answered a pattern first, so this is the merged
/// count of a farm whose workers drain exactly these sequences.
fn drained_unique_queries(locked: &Netlist, original: &Netlist, sequences: &[&[u64]]) -> usize {
    let sim = SimOracle::new(original.clone());
    let cache = CachingOracle::new(&sim);
    for sequence in sequences {
        let mut session = AttackSession::new(locked);
        session.prime();
        let source = Sequence(Mutex::new(sequence.iter().copied().collect()));
        while let RegionDrainOutcome::Winner { .. } =
            drain_regions(&mut session, &cache, &source, PARTITION_BITS).outcome
        {}
    }
    cache.unique_queries()
}

/// Runs a 3-worker drain-all farm whose worker 0 parks on its first lease
/// until the test SIGKILLs it provably mid-lease.
fn farm_with_worker_0_killed_mid_lease(locked: &LockedCircuit, original: &Netlist) -> FarmResult {
    let config = FarmConfig {
        steal: false,
        cancel_on_winner: false,
        worker_args: vec![vec![
            "--stall-first-lease-ms".to_string(),
            "60000".to_string(),
        ]],
        ..base_config(3)
    };
    let farm = Farm::spawn(&locked.locked, original, &config).expect("spawn farm");

    let deadline = Instant::now() + Duration::from_secs(120);
    let leased = loop {
        if let Some(region) = farm.leased_region_of(0) {
            break region;
        }
        assert!(Instant::now() < deadline, "worker 0 never received a lease");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(leased, 0, "the front of worker 0's own share");

    let status = Command::new("kill")
        .args(["-9", &farm.worker_pid(0).to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "SIGKILL delivered");
    farm.wait()
}

#[test]
fn sigkill_mid_lease_requeues_the_region_and_recovers_the_key() {
    let (locked, original, _serial) = smoke_case();
    let result = farm_with_worker_0_killed_mid_lease(&locked, &original);
    assert_eq!(
        result.regions_requeued, 1,
        "the killed worker's lease (region 0) must requeue"
    );
    assert_eq!(result.workers_crashed, 1);
    assert!(result.completed);
    assert_eq!(result.regions_completed as u64, result.regions);
    let key = result.key.as_ref().expect("survivors recover the key");
    assert!(
        locked.key_is_functionally_correct(key, 200, 4),
        "recovered key equals the serial result functionally"
    );

    // Regions 0..4 are dealt 0,3 | 1 | 2.  Worker 0 dies holding 0 with 3
    // still in its share, and fail_worker deals them on round-robin to the
    // survivors' backs: worker 1 drains [1, 0] and worker 2 drains [2, 3],
    // however far either got before the kill.  Without stealing or
    // cancellation each survivor's session therefore asks exactly the
    // patterns a local session draining the same sequence asks (the worker
    // never turns the supervisor's shipped pairs into constraints), and
    // worker 0 asked none: the merged count is that of two local sessions
    // draining [1, 0] and [2, 3] through one cache, on every run.
    let again = farm_with_worker_0_killed_mid_lease(&locked, &original);
    assert_eq!(
        again.unique_oracle_queries, result.unique_oracle_queries,
        "a crash run's unique-query count is reproducible"
    );
    assert_eq!(
        result.unique_oracle_queries,
        drained_unique_queries(&locked.locked, &original, &[&[1, 0], &[2, 3]]),
    );
}

#[test]
fn crash_on_first_lease_hook_exercises_the_requeue_path_deterministically() {
    let (locked, original, _serial) = smoke_case();
    let config = FarmConfig {
        steal: false,
        cancel_on_winner: false,
        worker_args: vec![vec!["--crash-on-first-lease".to_string()]],
        ..base_config(2)
    };
    let result = Farm::spawn(&locked.locked, &original, &config)
        .expect("spawn farm")
        .wait();
    // Worker 0's first grant is deterministically region 0 (the front of
    // its own share); it dies holding exactly that lease.
    assert_eq!(result.regions_requeued, 1);
    assert_eq!(result.workers_crashed, 1);
    assert!(result.completed, "survivor retires the whole region space");
    assert_eq!(result.regions_completed as u64, result.regions);
    let key = result.key.as_ref().expect("survivor recovers the key");
    assert!(locked.key_is_functionally_correct(key, 200, 4));
}

#[test]
fn tcp_farm_matches_the_pipes_transport() {
    let (locked, original, serial) = smoke_case();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let mut workers = Vec::new();
    for _ in 0..2 {
        workers.push(
            Command::new(worker_exe())
                .args([WORKER_SENTINEL, "--connect", &addr])
                .spawn()
                .expect("spawn TCP worker"),
        );
    }
    let supervisor =
        farm_over_tcp(&locked.locked, &original, &listener, &base_config(2)).expect("accept");
    let result = supervisor.wait();
    for mut worker in workers {
        let _ = worker.wait();
    }

    assert!(result.completed);
    assert_eq!(result.workers_crashed, 0);
    let key = result.key.as_ref().expect("key recovered over TCP");
    assert!(locked.key_is_functionally_correct(key, 200, 4));
    assert!(result.unique_oracle_queries <= serial.iterations + result.workers);
}

/// The supervisor kills a worker whose `hello` announces another protocol
/// version before sending it anything; the farm finishes on the others.
#[test]
fn a_hello_of_another_protocol_version_is_refused() {
    let (locked, original, _serial) = smoke_case();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    // A version-4 worker, whose `complete` may omit `stats`: it must read
    // EOF, and no `setup` frame before it.
    let stale = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            let hello = WorkerMessage::Hello { protocol: 4 }.to_frame();
            stream
                .write_all(format!("{hello}\n").as_bytes())
                .expect("send hello");
            let mut received = String::new();
            stream.read_to_string(&mut received).expect("read to EOF");
            received
        })
    };
    let mut worker = Command::new(worker_exe())
        .args([WORKER_SENTINEL, "--connect", &addr])
        .spawn()
        .expect("spawn TCP worker");
    let result = farm_over_tcp(&locked.locked, &original, &listener, &base_config(2))
        .expect("accept")
        .wait();
    let _ = worker.wait();
    let received = stale.join().expect("stale worker");

    assert!(!received.contains("\"setup\""), "{received}");
    assert!(result.completed);
    let key = result
        .key
        .as_ref()
        .expect("the current worker recovers the key");
    assert!(locked.key_is_functionally_correct(key, 200, 4));
}

#[test]
fn hung_worker_is_reaped_by_heartbeat_loss_and_its_lease_requeued() {
    let (locked, original, _serial) = smoke_case();
    let mut config = base_config(2);
    // Worker 0 stalls its first lease far past the lease timeout; the
    // monitor must kill it and requeue the lease without outside help.
    config.worker_args = vec![vec![
        "--stall-first-lease-ms".to_string(),
        "120000".to_string(),
    ]];
    config.lease_timeout = Duration::from_millis(1500);
    let result = Farm::spawn(&locked.locked, &original, &config)
        .expect("spawn farm")
        .wait();
    assert!(result.regions_requeued >= 1, "timed-out lease requeued");
    assert!(result.workers_crashed >= 1);
    let key = result.key.as_ref().expect("survivor recovers the key");
    assert!(locked.key_is_functionally_correct(key, 200, 4));
}

/// The options type is exported for TCP workers embedded in other hosts;
/// keep its defaults stable (a frame must fit a whole shipped netlist).
#[test]
fn worker_options_defaults_are_generous_enough_for_netlists() {
    let options = WorkerOptions::default();
    assert!(options.max_frame >= 1 << 20);
    assert!(options.stall_first_lease.is_none());
    assert!(!options.crash_on_first_lease);
}

/// Shutdown is event-driven: the worker heartbeat ticker and the supervisor
/// monitor wait on channels, not sleeps, so a drain does not end up to one
/// heartbeat late.  With a 5 s heartbeat a sleeping ticker alone would hold
/// each worker's exit (and so `wait`) for up to 5 s.
#[test]
fn drain_returns_without_waiting_out_a_heartbeat() {
    let (locked, original, _serial) = smoke_case();
    let config = FarmConfig {
        heartbeat: Duration::from_secs(5),
        heartbeat_timeout: Duration::from_secs(30),
        ..base_config(2)
    };
    let started = Instant::now();
    let result = Farm::spawn(&locked.locked, &original, &config)
        .expect("spawn farm")
        .wait();
    let elapsed = started.elapsed();
    assert!(result.completed);
    assert!(result.key.is_some());
    assert!(
        elapsed < Duration::from_millis(2500),
        "drain took {elapsed:?} with a 5 s heartbeat"
    );
}
