//! The farm supervisor: region scheduling, cache merging, liveness.
//!
//! A [`Supervisor`] owns one reader thread per worker link plus a monitor
//! thread.  All scheduling state — the [`fall::dist::RegionBoard`], the
//! merged [`fall::dist::PairStore`], per-worker sync positions and
//! heartbeat/lease clocks — lives behind one mutex; reader threads mutate it
//! as messages arrive, so the supervisor itself has no event loop.
//! Termination is structural: the run is over exactly when every reader
//! thread has seen EOF (workers exit after `drained`, their final
//! `complete`, or a `cancel`), and a worker that *cannot* produce EOF —
//! hung, or its transport wedged — is killed by the monitor thread when its
//! heartbeat or lease clock expires, which forces the EOF.

use std::io::{Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fall::dist::{Lease, PairStore, RegionBoard};
use fall::metrics::MetricReport;
use fall::KeyConfirmationConfig;
use locking::Key;
use netshim::{write_line, LineReader};
use sat::SolverStats;

use crate::protocol::{
    RegionOutcome, SupervisorMessage, WorkerMessage, WorkerTelemetry, PROTOCOL_VERSION,
};
use crate::FarmConfig;

/// One worker's transport, as the supervisor sees it: where its messages
/// come from, where replies go, and a way to force its death.
pub struct WorkerLink {
    /// The worker's outbound stream (child stdout, or the TCP socket).
    pub reader: Box<dyn Read + Send>,
    /// The worker's inbound stream (child stdin, or the TCP socket).
    pub writer: Box<dyn Write + Send>,
    /// Best-effort terminate: kill the child process / shut the socket down.
    /// Invoked by the monitor on heartbeat or lease timeout; must make the
    /// `reader` reach EOF.
    pub kill: Box<dyn FnMut() + Send>,
    /// The worker's OS process id, when the transport knows it.
    pub pid: Option<u32>,
}

/// The outcome of a farm run.
#[derive(Clone, Debug)]
pub struct FarmResult {
    /// The confirmed key, or `None` if no region contained one.
    pub key: Option<Key>,
    /// `true` if the search finished: a key was confirmed, or every region
    /// was retired keyless (crashed workers' leases included — a requeued
    /// region completed by a survivor still counts).  `false` when a region
    /// hit its budgets, the run was cancelled with regions unsettled, or
    /// every worker died.
    pub completed: bool,
    /// Distinguishing-input iterations summed across all workers.
    pub iterations: usize,
    /// Distinct input patterns in the supervisor's merged oracle store — the
    /// farm-wide unique oracle-query count once every worker has synced.
    pub unique_oracle_queries: usize,
    /// Total regions in the partition (`2^partition_bits`).
    pub regions: u64,
    /// Regions retired by a `complete` acknowledgement (any outcome).
    pub regions_completed: usize,
    /// Mid-flight leases returned to the queue because their worker died.
    pub regions_requeued: usize,
    /// Leases granted out of another worker's share (work-stealing).
    pub regions_stolen: usize,
    /// Workers the farm started with.
    pub workers: usize,
    /// Workers that died owing work (crash, kill, or timeout mid-lease).
    pub workers_crashed: usize,
    /// Farm-wide [`SolverStats`] aggregate: the latest cumulative telemetry
    /// snapshot of every worker that reported one, combined by
    /// [`SolverStats::absorb`] (sums, except the LBD EMAs, which are maxima).
    pub solver_stats: SolverStats,
    /// The latest telemetry snapshot per worker (`None` for a worker that
    /// never completed a region, e.g. one that crashed on its first lease or
    /// spoke protocol version 1).
    pub worker_telemetry: Vec<Option<WorkerTelemetry>>,
    /// `complete` frames that carried a `stats` member.
    pub stats_reports: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl FarmResult {
    /// Renders the end-of-run counters as the `dist_*` metric surface,
    /// including the farm-wide aggregated worker [`SolverStats`] as
    /// `dist_sat_<field>`.
    pub fn metrics(&self) -> MetricReport {
        let mut report = MetricReport::new();
        for (name, value) in [
            ("dist_workers", self.workers as f64),
            ("dist_workers_crashed", self.workers_crashed as f64),
            ("dist_regions_total", self.regions as f64),
            ("dist_regions_completed", self.regions_completed as f64),
            ("dist_regions_requeued", self.regions_requeued as f64),
            ("dist_regions_stolen", self.regions_stolen as f64),
            ("dist_iterations", self.iterations as f64),
            (
                "dist_unique_oracle_queries",
                self.unique_oracle_queries as f64,
            ),
            ("dist_stats_reports", self.stats_reports as f64),
            ("dist_elapsed_s", self.elapsed.as_secs_f64()),
        ] {
            report.record(name, value, false);
        }
        report.record_solver_stats(&self.solver_stats, |field| format!("dist_sat_{field}"));
        report
    }
}

/// Scheduling state shared by the reader threads and the monitor.
struct State {
    board: RegionBoard,
    pairs: PairStore,
    /// Per-worker position in the pair store's delta log: everything before
    /// it has already been shipped to (or came from) that worker.
    sync_pos: Vec<usize>,
    /// Workers whose lease request is waiting for the queue to refill.
    parked: Vec<bool>,
    winner: Option<Key>,
    exhausted: bool,
    cancelled_regions: usize,
    iterations: usize,
    workers_crashed: usize,
    /// Latest cumulative telemetry per worker.  Replacement, not addition:
    /// snapshots are cumulative, so absorbing a frame is idempotent and the
    /// farm aggregate is exactly the sum of the latest snapshots.
    telemetry: Vec<Option<WorkerTelemetry>>,
    /// `complete` frames that carried telemetry.
    stats_reports: usize,
    cancel_sent: bool,
    last_heartbeat: Vec<Instant>,
    lease_start: Vec<Option<Instant>>,
    live: Vec<bool>,
}

/// Everything the threads share.
struct Shared {
    state: Mutex<State>,
    writers: Vec<Mutex<Box<dyn Write + Send>>>,
    kills: Vec<Mutex<Box<dyn FnMut() + Send>>>,
    config: SetupParams,
}

/// The per-run constants shipped in `setup` frames.
struct SetupParams {
    locked: String,
    oracle: String,
    partition_bits: usize,
    confirm: KeyConfirmationConfig,
    heartbeat: Duration,
}

/// A running farm supervisor.  Created by [`Supervisor::start`]; consume
/// with [`Supervisor::wait`].
pub struct Supervisor {
    shared: Arc<Shared>,
    readers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    /// Dropped by [`Supervisor::wait`] to wake and end the monitor.
    monitor_stop: Option<Sender<()>>,
    regions: u64,
    workers: usize,
    started: Instant,
}

impl Supervisor {
    /// Starts the supervisor over already-established worker links.
    ///
    /// `locked` and `oracle` are `.bench` netlist texts shipped verbatim in
    /// each worker's `setup`.  `partition_bits` must already be clamped to
    /// the key width and `< 64` (the farm front ends guarantee this).
    pub fn start(
        links: Vec<WorkerLink>,
        locked: String,
        oracle: String,
        partition_bits: usize,
        config: &FarmConfig,
    ) -> Supervisor {
        let workers = links.len();
        assert!(workers > 0, "a farm needs at least one worker");
        assert!(partition_bits < 64, "unenumerable partition");
        let regions = 1u64 << partition_bits;
        let now = Instant::now();

        let mut readers_io = Vec::with_capacity(workers);
        let mut writers = Vec::with_capacity(workers);
        let mut kills = Vec::with_capacity(workers);
        for link in links {
            readers_io.push(link.reader);
            writers.push(Mutex::new(link.writer));
            kills.push(Mutex::new(link.kill));
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                board: RegionBoard::new(regions, workers, config.steal),
                pairs: PairStore::new(),
                sync_pos: vec![0; workers],
                parked: vec![false; workers],
                winner: None,
                exhausted: false,
                cancelled_regions: 0,
                iterations: 0,
                workers_crashed: 0,
                telemetry: vec![None; workers],
                stats_reports: 0,
                cancel_sent: false,
                last_heartbeat: vec![now; workers],
                lease_start: vec![None; workers],
                live: vec![true; workers],
            }),
            writers,
            kills,
            config: SetupParams {
                locked,
                oracle,
                partition_bits,
                confirm: config.confirm.clone(),
                heartbeat: config.heartbeat,
            },
        });

        let cancel_on_winner = config.cancel_on_winner;
        let max_frame = config.max_frame;
        let readers = readers_io
            .into_iter()
            .enumerate()
            .map(|(worker, reader)| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    reader_loop(&shared, worker, reader, max_frame, cancel_on_winner);
                })
            })
            .collect();

        let (monitor_stop, stop) = mpsc::channel();
        let monitor = {
            let shared = Arc::clone(&shared);
            let heartbeat_timeout = config.heartbeat_timeout;
            let lease_timeout = config.lease_timeout;
            let tick = (config.heartbeat / 2).max(Duration::from_millis(10));
            Some(thread::spawn(move || {
                monitor_loop(&shared, &stop, tick, heartbeat_timeout, lease_timeout);
            }))
        };

        Supervisor {
            shared,
            readers,
            monitor,
            monitor_stop: Some(monitor_stop),
            regions,
            workers,
            started: now,
        }
    }

    /// The region `worker` currently holds a lease on, if any — live view,
    /// usable while the run is in flight (the crash tests poll this to kill
    /// a worker provably mid-lease).
    pub fn leased_region(&self, worker: usize) -> Option<u64> {
        self.shared
            .state
            .lock()
            .expect("farm state poisoned")
            .board
            .leased(worker)
    }

    /// Blocks until every worker's stream reaches EOF and returns the
    /// aggregated result.
    pub fn wait(mut self) -> FarmResult {
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
        self.monitor_stop = None;
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        let state = self.shared.state.lock().expect("farm state poisoned");
        self.snapshot(&state)
    }

    /// Snapshots the farm's live metric surface — usable mid-run, the
    /// supervisor-side analogue of `AttackService::metrics`.
    ///
    /// The [`FarmResult::metrics`] of the run so far, plus the live-only
    /// gauges: `dist_workers_live`, `dist_workers_parked` and per-worker
    /// lease/liveness/telemetry gauges (`dist_worker<i>_*`).
    pub fn status(&self) -> MetricReport {
        let state = self.shared.state.lock().expect("farm state poisoned");
        let mut report = self.snapshot(&state).metrics();
        let count = |flags: &[bool]| flags.iter().filter(|&&flag| flag).count() as f64;
        report.record("dist_workers_live", count(&state.live), false);
        report.record("dist_workers_parked", count(&state.parked), false);
        for (worker, telemetry) in state.telemetry.iter().enumerate() {
            let mut gauge = |name: &str, value: f64| {
                report.record(format!("dist_worker{worker}_{name}"), value, false);
            };
            gauge("live", f64::from(u8::from(state.live[worker])));
            gauge(
                "leased",
                f64::from(u8::from(state.board.leased(worker).is_some())),
            );
            if let Some(telemetry) = telemetry {
                gauge("conflicts", telemetry.solver.conflicts as f64);
                gauge("solves", telemetry.solver.solves as f64);
                gauge("oracle_unique", telemetry.oracle_unique as f64);
                gauge("oracle_hits", telemetry.oracle_hits as f64);
            }
        }
        report
    }

    /// The run's result as of now, from the locked state.
    fn snapshot(&self, state: &State) -> FarmResult {
        let completed = state.winner.is_some()
            || (!state.exhausted && state.cancelled_regions == 0 && state.board.done());
        FarmResult {
            key: state.winner.clone(),
            completed,
            iterations: state.iterations,
            unique_oracle_queries: state.pairs.unique(),
            regions: self.regions,
            regions_completed: state.board.completed(),
            regions_requeued: state.board.requeued(),
            regions_stolen: state.board.stolen(),
            workers: self.workers,
            workers_crashed: state.workers_crashed,
            solver_stats: aggregate_stats(&state.telemetry),
            worker_telemetry: state.telemetry.clone(),
            stats_reports: state.stats_reports,
            elapsed: self.started.elapsed(),
        }
    }
}

/// The farm-wide aggregate: the latest cumulative snapshot of every worker
/// that reported telemetry, combined by [`SolverStats::absorb`].
fn aggregate_stats(telemetry: &[Option<WorkerTelemetry>]) -> SolverStats {
    let mut aggregate = SolverStats::default();
    for snapshot in telemetry.iter().flatten() {
        aggregate.absorb(&snapshot.solver);
    }
    aggregate
}

/// Sends one frame to `worker`, ignoring transport errors (a dead worker's
/// EOF is handled by its reader thread; writes to it are harmless no-ops).
fn send(shared: &Shared, worker: usize, message: &SupervisorMessage) {
    let mut writer = shared.writers[worker].lock().expect("writer poisoned");
    let _ = write_line(&mut *writer, &message.to_frame());
}

/// Broadcasts `cancel` to every worker, once.  Caller holds the state lock.
fn broadcast_cancel(shared: &Shared, state: &mut State) {
    if state.cancel_sent {
        return;
    }
    state.cancel_sent = true;
    for worker in 0..shared.writers.len() {
        send(shared, worker, &SupervisorMessage::Cancel);
    }
}

/// Grants a lease to `worker` (or parks/drains it).  Caller holds the state
/// lock; replies are sent inline.
fn grant(shared: &Shared, state: &mut State, worker: usize) {
    if state.cancel_sent {
        // The run is being torn down: let the requester exit.
        send(shared, worker, &SupervisorMessage::Drained);
        return;
    }
    match state.board.lease(worker) {
        Lease::Grant { region, stolen } => {
            let pairs = state.pairs.delta_since(state.sync_pos[worker]).to_vec();
            state.sync_pos[worker] = state.pairs.log_len();
            state.lease_start[worker] = Some(Instant::now());
            state.parked[worker] = false;
            send(
                shared,
                worker,
                &SupervisorMessage::Region {
                    region,
                    stolen,
                    pairs,
                },
            );
        }
        Lease::Parked => state.parked[worker] = true,
        Lease::Drained => {
            state.parked[worker] = false;
            send(shared, worker, &SupervisorMessage::Drained);
        }
    }
}

/// Re-offers leases to every parked worker after the queue changed (a
/// completion freed the run's end condition, or a crash requeued regions).
fn flush_parked(shared: &Shared, state: &mut State) {
    for worker in 0..shared.writers.len() {
        if state.parked[worker] && state.live[worker] {
            grant(shared, state, worker);
        }
    }
}

/// Terminates `worker` out-of-band (protocol violation or timeout).
fn kill_worker(shared: &Shared, worker: usize) {
    let mut kill = shared.kills[worker].lock().expect("kill handle poisoned");
    kill();
}

fn reader_loop(
    shared: &Shared,
    worker: usize,
    reader: Box<dyn Read + Send>,
    max_frame: usize,
    cancel_on_winner: bool,
) {
    let mut lines = LineReader::new(reader, max_frame);
    while let Ok(Some(line)) = lines.read_line() {
        let message = match WorkerMessage::parse(&line) {
            Ok(message) => message,
            Err(_) => {
                // A worker speaking garbage is indistinguishable from a
                // corrupted transport: kill it and let the EOF path requeue
                // its lease.
                kill_worker(shared, worker);
                break;
            }
        };
        let mut state = shared.state.lock().expect("farm state poisoned");
        state.last_heartbeat[worker] = Instant::now();
        match message {
            WorkerMessage::Hello { protocol } => {
                if protocol != PROTOCOL_VERSION {
                    drop(state);
                    kill_worker(shared, worker);
                    break;
                }
                let setup = SupervisorMessage::Setup {
                    worker,
                    locked: shared.config.locked.clone(),
                    oracle: shared.config.oracle.clone(),
                    partition_bits: shared.config.partition_bits,
                    max_iterations: shared.config.confirm.max_iterations,
                    time_limit_ms: shared
                        .config
                        .confirm
                        .time_limit
                        .map_or(0, |limit| limit.as_millis() as u64),
                    conflict_budget: shared.config.confirm.conflict_budget,
                    heartbeat_ms: shared.config.heartbeat.as_millis() as u64,
                };
                drop(state);
                send(shared, worker, &setup);
            }
            WorkerMessage::Lease { pairs } => {
                state.pairs.merge(pairs);
                if state.board.leased(worker).is_some() {
                    // Protocol violation: lease while holding a lease.
                    drop(state);
                    kill_worker(shared, worker);
                    break;
                }
                grant(shared, &mut state, worker);
            }
            WorkerMessage::Complete {
                region,
                outcome,
                iterations,
                key,
                pairs,
                stats,
            } => {
                if state.board.leased(worker) != Some(region) {
                    drop(state);
                    kill_worker(shared, worker);
                    break;
                }
                state.pairs.merge(pairs);
                state.iterations += iterations;
                if let Some(stats) = stats {
                    state.telemetry[worker] = Some(*stats);
                    state.stats_reports += 1;
                }
                state.lease_start[worker] = None;
                state.board.complete(worker, region);
                match outcome {
                    RegionOutcome::Keyless => {}
                    RegionOutcome::Found => {
                        if state.winner.is_none() {
                            state.winner = key;
                        }
                        if cancel_on_winner {
                            broadcast_cancel(shared, &mut state);
                        }
                    }
                    RegionOutcome::Unfinished => {
                        state.exhausted = true;
                        broadcast_cancel(shared, &mut state);
                    }
                    RegionOutcome::Cancelled => state.cancelled_regions += 1,
                }
                flush_parked(shared, &mut state);
            }
            WorkerMessage::Heartbeat => {}
        }
    }
    // EOF (clean exit, crash, or kill): reclaim whatever the worker owed.
    // Dying while *holding a lease* is a crash — a region was at risk and
    // must requeue.  Exiting with undealt regions still in the share is the
    // normal shape of a cancelled run, not a crash.
    let mut state = shared.state.lock().expect("farm state poisoned");
    state.live[worker] = false;
    state.parked[worker] = false;
    let crashed = state.board.leased(worker).is_some();
    state.board.fail_worker(worker);
    if crashed {
        state.workers_crashed += 1;
    }
    flush_parked(shared, &mut state);
}

fn monitor_loop(
    shared: &Shared,
    stop: &Receiver<()>,
    tick: Duration,
    heartbeat_timeout: Duration,
    lease_timeout: Duration,
) {
    // Waiting on the stop channel instead of sleeping lets `wait` end the
    // monitor at once rather than up to one tick later.
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(tick) {
        let expired: Vec<usize> = {
            let state = shared.state.lock().expect("farm state poisoned");
            (0..shared.writers.len())
                .filter(|&worker| {
                    state.live[worker]
                        && (state.last_heartbeat[worker].elapsed() > heartbeat_timeout
                            || state.lease_start[worker]
                                .is_some_and(|start| start.elapsed() > lease_timeout))
                })
                .collect()
        };
        for worker in expired {
            // Forcing the transport closed makes the worker's reader thread
            // observe EOF, which requeues its lease — the same path a crash
            // takes, so timeouts and crashes are handled identically.
            kill_worker(shared, worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_metrics_cover_every_solver_stats_field() {
        // Drift guard: a counter added to `SolverStats` must surface in the
        // farm's metrics, as `dist_sat_<field>`.
        let result = FarmResult {
            key: None,
            completed: true,
            iterations: 0,
            unique_oracle_queries: 0,
            regions: 4,
            regions_completed: 4,
            regions_requeued: 0,
            regions_stolen: 0,
            workers: 2,
            workers_crashed: 0,
            solver_stats: SolverStats::default(),
            worker_telemetry: vec![None, None],
            stats_reports: 0,
            elapsed: Duration::ZERO,
        };
        let metrics = result.metrics();
        for (field, _) in SolverStats::default().fields() {
            let expected = format!("dist_sat_{field}");
            assert!(
                metrics.get(&expected).is_some(),
                "SolverStats field {field:?} missing from the farm metrics (expected {expected:?})"
            );
        }
    }
}
