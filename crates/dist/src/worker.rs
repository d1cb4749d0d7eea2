//! The farm worker: one long-lived primed session draining wire regions.
//!
//! [`run_worker`] is transport-generic — the pipes mode hands it the
//! process's stdin/stdout, the TCP mode a connected socket — and is the
//! *only* worker implementation: the actual region loop is
//! [`fall::parallel::drain_regions`], the exact function the in-process
//! partitioned search runs, driven by a [`fall::parallel::RegionSource`] whose
//! `next_region` is a wire round-trip.  Three auxiliary threads surround
//! the drain: a router that demultiplexes supervisor messages (bridging
//! `cancel` into the session's interrupt flag mid-search), a heartbeat
//! ticker, and the implicit main thread running the SAT work.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use fall::dist::SyncingOracle;
use fall::parallel::{drain_regions, CancelToken, RegionDrainOutcome, RegionSource};
use fall::{AttackSession, SimOracle};
use netlist::bench_format;
use netshim::{write_line, LineReader};
use sat::SolverStats;

use crate::protocol::{
    RegionOutcome, SupervisorMessage, WorkerMessage, WorkerTelemetry, PROTOCOL_VERSION,
};

/// The cumulative telemetry snapshot attached to every `complete` frame:
/// the session's lifetime [`SolverStats`] plus the syncing cache's counters.
fn telemetry(stats: SolverStats, oracle: &SyncingOracle<'_>) -> Box<WorkerTelemetry> {
    Box::new(WorkerTelemetry {
        solver: stats,
        oracle_hits: oracle.hits() as u64,
        oracle_unique: oracle.local_unique() as u64,
    })
}

/// Tuning and test knobs of a worker process.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Maximum accepted frame length (the `setup` frame carries whole
    /// netlists, so this is generous by default).
    pub max_frame: usize,
    /// Test hook: sleep this long after receiving the *first* lease before
    /// searching it — holds the worker provably mid-lease so crash tests
    /// can kill it there.
    pub stall_first_lease: Option<Duration>,
    /// Test hook: abort the process the moment the first lease is granted,
    /// simulating a crash with a region in flight.
    pub crash_on_first_lease: bool,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            max_frame: 64 << 20,
            stall_first_lease: None,
            crash_on_first_lease: false,
        }
    }
}

/// What the router thread forwards to the (possibly blocked) drain loop.
enum Inbound {
    Region {
        region: u64,
        pairs: Vec<fall::dist::IoPair>,
    },
    Drained,
    Cancelled,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn send_message(writer: &SharedWriter, message: &WorkerMessage) -> Result<(), String> {
    let mut writer = writer.lock().expect("writer poisoned");
    write_line(&mut *writer, &message.to_frame()).map_err(|error| error.to_string())
}

/// The wire-backed [`RegionSource`]: `next_region` is a
/// `lease` → `region`/`drained` round-trip (shipping the oracle outbox and
/// seeding the reply's cache delta), `complete_region` a `complete` with
/// outcome `keyless`.
struct WireSource<'o> {
    writer: SharedWriter,
    inbound: Mutex<Receiver<Inbound>>,
    oracle: &'o SyncingOracle<'o>,
    outstanding: Mutex<Option<u64>>,
    reported_iterations: Mutex<usize>,
    first_lease_seen: AtomicBool,
    options: WorkerOptions,
}

impl RegionSource for WireSource<'_> {
    fn next_region(&self) -> Option<u64> {
        let pairs = self.oracle.take_outbox();
        send_message(&self.writer, &WorkerMessage::Lease { pairs }).ok()?;
        let inbound = self.inbound.lock().expect("inbound poisoned");
        match inbound.recv() {
            Ok(Inbound::Region { region, pairs }) => {
                self.oracle.seed(pairs);
                *self.outstanding.lock().expect("lease slot poisoned") = Some(region);
                if !self.first_lease_seen.swap(true, Ordering::SeqCst) {
                    if self.options.crash_on_first_lease {
                        // Simulated crash: die without a word, lease in hand.
                        std::process::abort();
                    }
                    if let Some(stall) = self.options.stall_first_lease {
                        thread::sleep(stall);
                    }
                }
                Some(region)
            }
            Ok(Inbound::Drained | Inbound::Cancelled) | Err(_) => None,
        }
    }

    fn complete_region(&self, region: u64, iterations: usize, stats: &SolverStats) {
        *self.outstanding.lock().expect("lease slot poisoned") = None;
        *self
            .reported_iterations
            .lock()
            .expect("iteration count poisoned") += iterations;
        let _ = send_message(
            &self.writer,
            &WorkerMessage::Complete {
                region,
                outcome: RegionOutcome::Keyless,
                iterations,
                key: None,
                pairs: self.oracle.take_outbox(),
                stats: telemetry(*stats, self.oracle),
            },
        );
    }
}

/// Runs one worker over an established transport until the supervisor
/// drains or cancels it (or the transport dies).  Blocks for the whole run.
pub fn run_worker(
    reader: impl Read + Send + 'static,
    writer: impl Write + Send + 'static,
    options: WorkerOptions,
) -> Result<(), String> {
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
    send_message(
        &writer,
        &WorkerMessage::Hello {
            protocol: PROTOCOL_VERSION,
        },
    )?;

    let mut lines = LineReader::new(reader, options.max_frame);
    let first = lines
        .read_line()
        .map_err(|error| error.to_string())?
        .ok_or("supervisor closed before setup")?;
    let SupervisorMessage::Setup {
        locked,
        oracle,
        partition_bits,
        heartbeat_ms,
        ..
    } = SupervisorMessage::parse(&first)?
    else {
        return Err("expected a setup frame first".into());
    };
    // The supervisor only sends clamped partitions below 64 bits; a larger
    // value would shift a region index by 64 or more in the drain loop.
    if partition_bits >= u64::BITS as usize {
        return Err(format!("unenumerable partition: {partition_bits} bits"));
    }

    let locked =
        bench_format::parse(&locked).map_err(|error| format!("bad locked netlist: {error:?}"))?;
    let oracle_netlist =
        bench_format::parse(&oracle).map_err(|error| format!("bad oracle netlist: {error:?}"))?;
    if oracle_netlist.num_key_inputs() != 0 {
        return Err("oracle netlist must be key-free".into());
    }

    let sim = SimOracle::new(oracle_netlist);
    let sync = SyncingOracle::new(&sim);
    let cancel = CancelToken::new();

    // Router: demultiplex supervisor frames.  `cancel` flips the interrupt
    // flag immediately (reaching a mid-search solver), everything else is
    // forwarded to the drain loop's channel.
    let (tx, rx) = std::sync::mpsc::channel();
    let router = {
        let tx: Sender<Inbound> = tx.clone();
        let cancel = cancel.clone();
        thread::spawn(move || loop {
            let line = match lines.read_line() {
                Ok(Some(line)) => line,
                Ok(None) | Err(_) => {
                    let _ = tx.send(Inbound::Drained);
                    break;
                }
            };
            match SupervisorMessage::parse(&line) {
                Ok(SupervisorMessage::Region { region, pairs, .. }) => {
                    let _ = tx.send(Inbound::Region { region, pairs });
                }
                Ok(SupervisorMessage::Drained) => {
                    let _ = tx.send(Inbound::Drained);
                }
                Ok(SupervisorMessage::Cancel) => {
                    cancel.cancel();
                    let _ = tx.send(Inbound::Cancelled);
                }
                Ok(SupervisorMessage::Setup { .. }) | Err(_) => {}
            }
        })
    };

    // Heartbeat ticker: liveness, independent of how long a SAT call runs.
    // It waits on the stop channel rather than sleeping, so dropping the
    // sender ends it at once instead of up to one interval later.
    let (stop_heartbeat, stopped) = std::sync::mpsc::channel::<()>();
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let interval = Duration::from_millis(heartbeat_ms.max(10));
        thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                if send_message(&writer, &WorkerMessage::Heartbeat).is_err() {
                    break;
                }
            }
        })
    };

    // One long-lived session for the whole worker lifetime, primed before
    // the first lease — the same discipline as the in-process search.
    let mut session = AttackSession::new(&locked);
    session.set_interrupt(Some(cancel.as_flag()));
    session.prime();

    let source = WireSource {
        writer: Arc::clone(&writer),
        inbound: Mutex::new(rx),
        oracle: &sync,
        outstanding: Mutex::new(None),
        reported_iterations: Mutex::new(0),
        first_lease_seen: AtomicBool::new(false),
        options: options.clone(),
    };
    // The drain runs in a loop because a winner does not end the *worker*:
    // it reports `found` and keeps leasing.  In cancel-on-winner farms the
    // supervisor's next reply is `drained` (or a `cancel` lands first), so
    // the loop ends after one round-trip; in drain-all farms the worker
    // carries on retiring regions — which is what makes the deterministic
    // counters hold even when the winner is the only survivor.
    loop {
        *source
            .reported_iterations
            .lock()
            .expect("iteration count poisoned") = 0;
        let drain = drain_regions(&mut session, &sync, &source, partition_bits);
        let remaining_iterations = drain.iterations
            - *source
                .reported_iterations
                .lock()
                .expect("iteration count poisoned");
        let outstanding = source
            .outstanding
            .lock()
            .expect("lease slot poisoned")
            .take();
        match drain.outcome {
            RegionDrainOutcome::Winner { region, key } => {
                let _ = send_message(
                    &writer,
                    &WorkerMessage::Complete {
                        region,
                        outcome: RegionOutcome::Found,
                        iterations: remaining_iterations,
                        key: Some(key),
                        pairs: sync.take_outbox(),
                        stats: telemetry(session.stats(), &sync),
                    },
                );
            }
            RegionDrainOutcome::Cancelled => {
                if let Some(region) = outstanding {
                    let _ = send_message(
                        &writer,
                        &WorkerMessage::Complete {
                            region,
                            outcome: RegionOutcome::Cancelled,
                            iterations: remaining_iterations,
                            key: None,
                            pairs: sync.take_outbox(),
                            stats: telemetry(session.stats(), &sync),
                        },
                    );
                }
                break;
            }
            RegionDrainOutcome::Drained => break,
        }
    }

    drop(stop_heartbeat);
    let _ = heartbeat.join();
    drop(router); // detached: it unblocks when the supervisor closes the pipe
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SupervisorMessage;
    use netlist::{GateKind, Netlist};
    use std::io::Cursor;

    #[test]
    fn a_setup_frame_with_an_unenumerable_partition_is_rejected() {
        // 65 key bits, so clamping to the key width leaves 65 partition bits.
        let mut locked = Netlist::new("wide");
        let mut acc = locked.add_input("a");
        for i in 0..65 {
            let k = locked.add_key_input(format!("keyinput{i}"));
            acc = locked.add_gate(format!("x{i}"), GateKind::Xor, &[acc, k]);
        }
        locked.add_output("y", acc);
        let mut oracle = Netlist::new("wide_orig");
        let a = oracle.add_input("a");
        oracle.add_output("y", a);

        for partition_bits in [65usize, 64] {
            let setup = SupervisorMessage::Setup {
                worker: 0,
                locked: bench_format::write(&locked),
                oracle: bench_format::write(&oracle),
                partition_bits,
                heartbeat_ms: 1000,
            };
            let region = SupervisorMessage::Region {
                region: 0,
                stolen: false,
                pairs: Vec::new(),
            };
            let frames = format!("{}\n{}\n", setup.to_frame(), region.to_frame());
            let result = run_worker(
                Cursor::new(frames.into_bytes()),
                std::io::sink(),
                WorkerOptions::default(),
            );
            let error = result.expect_err("hostile setup must be rejected");
            assert!(error.contains("partition"), "{partition_bits}: {error}");
        }
    }
}
