//! Multi-tenant attack-as-a-service session pool.
//!
//! This module is the engine behind the `fall-serve` binary: a pool of
//! long-lived, primed [`AttackSession`]s keyed by registered target, fed by a
//! bounded job queue with per-client fairness, per-job deadlines and typed
//! overload responses.  It is deliberately transport-free — `fall-serve`
//! layers the line-delimited JSON protocol on top, and the test-suites drive
//! the pool directly.
//!
//! # Why a *session* pool
//!
//! The entire point of the persistent-session architecture (see
//! `ARCHITECTURE.md`) is that solver state is worth keeping: cone encodings,
//! learnt clauses and recycled variables all accumulate across queries.  A
//! service that built a fresh solver per request would throw that away.  Here
//! each registered target owns `workers_per_target` OS threads, and each
//! thread owns **one** [`AttackSession`] for its whole life.  Every job
//! executed against that target reuses the session, so clause learning
//! compounds across jobs: constraints derived from oracle observations
//! (distinguishing inputs, confirmation counterexamples) are sound for every
//! later job on the same target because they all share the same oracle.
//!
//! # Admission control and fairness
//!
//! Each target has a bounded queue (`queue_capacity`).  A submission to a
//! full queue fails *immediately* with [`SubmitError::Busy`] — the caller
//! gets a typed overload signal instead of unbounded latency (graceful
//! degradation).  Within a queue, jobs are organised per client and drained
//! round-robin: a client that submits fifty jobs cannot starve a client that
//! submits one, because workers take one job per client per rotation turn.
//!
//! # Deadlines and cancellation
//!
//! Every job carries a [`CancelToken`] plus a cancellation-reason cell.  A
//! reaper thread sleeps until the earliest deadline in the active-job
//! registry (a worker wakes it whenever a job starts) and cancels tokens
//! whose deadline has passed; client disconnects and service shutdown
//! cancel through the same mechanism with their own reason codes.
//! The solver observes the token at its conflict/decision check points, so
//! cancellation lands mid-solve, the worker maps the incomplete result to
//! [`JobStatus::Timeout`] or [`JobStatus::Cancelled`], and — crucially — the
//! session *survives*: an interrupted solve poisons nothing, and the worker
//! immediately serves the next queued job with all its accumulated state.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::SolverStats;

use crate::attack::{fall_attack, FallAttackConfig};
use crate::functional::PrefilterStats;
use crate::key_confirmation::{key_confirmation_in, KeyConfirmationConfig};
use crate::metrics::MetricReport;
use crate::oracle::Oracle;
use crate::parallel::{CachingOracle, CancelToken};
use crate::sat_attack::{sat_attack_in, SatAttackConfig, SatAttackStatus};
use crate::session::AttackSession;

/// Identifies one client across every queue of the service.  Handed out by
/// [`AttackService::next_client`]; the transport layer allocates one per
/// connection.
pub type ClientId = u64;

/// Pool sizing and scheduling knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum number of queued (not yet running) jobs per target; above it
    /// submissions fail fast with [`SubmitError::Busy`].
    pub queue_capacity: usize,
    /// Worker threads — equivalently, long-lived primed sessions — per
    /// registered target.
    pub workers_per_target: usize,
    /// Maximum number of registered targets; above it registration fails
    /// with [`RegisterError::PoolFull`].
    pub max_targets: usize,
    /// Deadline applied to jobs that do not request one.
    pub default_timeout: Duration,
    /// Upper bound on any requested deadline (a client cannot pin a worker
    /// for longer than this).
    pub max_timeout: Duration,
    /// Latency samples retained for the p50/p99 gauges.  Up to this many
    /// completed jobs the percentiles are exact; past it the samples are a
    /// uniform reservoir over the service lifetime (see
    /// [`LatencyReservoir`]), so memory stays flat no matter how many jobs
    /// a long-lived server completes.
    pub latency_reservoir: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 64,
            workers_per_target: 2,
            max_targets: 8,
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(300),
            latency_reservoir: 4096,
        }
    }
}

/// Fixed-capacity uniform sample of job latencies (Algorithm R).
///
/// The first `capacity` recorded values are kept verbatim, so percentiles
/// over the reservoir are *exact* until the cap is reached.  From then on
/// each new value replaces a random slot with probability `capacity / seen`,
/// which keeps the retained set a uniform random sample of everything ever
/// recorded — percentiles become estimates with bounded memory instead of
/// an unbounded `Vec` on a server completing millions of jobs.  The
/// replacement choices come from a deterministic splitmix64 stream, so a
/// given record sequence always retains the same sample.
pub struct LatencyReservoir {
    samples: Vec<u64>,
    seen: u64,
    capacity: usize,
    rng: u64,
}

impl LatencyReservoir {
    /// An empty reservoir holding at most `capacity` samples (clamped to a
    /// minimum of one).
    pub fn new(capacity: usize) -> LatencyReservoir {
        let capacity = capacity.max(1);
        LatencyReservoir {
            samples: Vec::new(),
            seen: 0,
            capacity,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Records one value, evicting a uniformly-chosen retained sample if the
    /// reservoir is full.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
            return;
        }
        // splitmix64 step; uniform slot choice over everything seen so far.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let slot = z % self.seen;
        if (slot as usize) < self.capacity {
            self.samples[slot as usize] = value;
        }
    }

    /// The retained samples, in arrival order (exact history below
    /// capacity, uniform sample above).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Total values ever recorded (≥ `samples().len()`).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// The attack a job requests against its target.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// The baseline oracle-guided SAT attack ([`mod@crate::sat_attack`]).
    SatAttack,
    /// The full FALL pipeline ([`crate::attack::fall_attack`]).
    Fall {
        /// The Hamming-distance parameter the adversary assumes; `None`
        /// takes the `h` the target was registered with.
        h: Option<usize>,
    },
    /// Key confirmation ([`mod@crate::key_confirmation`]) over a client-supplied
    /// shortlist of suspected keys.
    Confirm {
        /// The suspected keys; must be non-empty and match the target's key
        /// width.
        shortlist: Vec<Key>,
    },
}

/// One job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Per-job deadline; `None` takes [`ServiceConfig::default_timeout`].
    /// Clamped to [`ServiceConfig::max_timeout`].
    pub timeout: Option<Duration>,
    /// Opaque caller token echoed back in the [`JobReport`], so a transport
    /// can correlate reports with its own request identifiers without a side
    /// table.
    pub tag: u64,
}

/// How a job concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The attack produced a key (proven for SAT/confirm jobs, best
    /// candidate for FALL jobs).
    KeyFound,
    /// The attack completed and proved no key (or produced no candidate).
    NoKey,
    /// The per-job deadline cancelled the attack mid-run.
    Timeout,
    /// The client disconnected or the service shut down before the job
    /// finished.
    Cancelled,
    /// The attack stopped on a non-deadline budget (e.g. iteration cap)
    /// without a verdict.
    Failed,
}

impl JobStatus {
    /// Stable lower-case wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::KeyFound => "key_found",
            JobStatus::NoKey => "no_key",
            JobStatus::Timeout => "timeout",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }
}

/// The result of one finished (or cancelled) job, delivered on the reply
/// channel passed to [`AttackService::submit`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The identifier [`AttackService::submit`] returned.
    pub job_id: u64,
    /// The caller token from [`JobSpec::tag`], echoed verbatim.
    pub tag: u64,
    /// How the job concluded.
    pub status: JobStatus,
    /// The recovered key, when `status` is [`JobStatus::KeyFound`].
    pub key: Option<Key>,
    /// For FALL jobs, every key that survived the functional analyses.
    pub shortlist: Vec<Key>,
    /// Distinguishing-input iterations (SAT and confirm jobs; `0` for FALL).
    pub iterations: usize,
    /// Oracle queries issued by this job (SAT and confirm jobs; `0` for
    /// FALL, whose oracle traffic shows up in the target's cache counters).
    pub oracle_queries: usize,
    /// Time the job spent queued before a worker picked it up.
    pub queued: Duration,
    /// Time the job spent running on a worker.
    pub elapsed: Duration,
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The target's queue is at capacity; retry later.  This is the typed
    /// graceful-degradation signal — the service sheds load instead of
    /// queuing without bound.
    Busy {
        /// Jobs currently queued for the target.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// No target with the given name is registered.
    UnknownTarget,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The job is malformed for the target (empty shortlist, key-width
    /// mismatch, out-of-range `h`, …).
    BadRequest(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queued, capacity } => {
                write!(f, "queue full ({queued}/{capacity}); retry later")
            }
            SubmitError::UnknownTarget => write!(f, "unknown target"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::BadRequest(reason) => write!(f, "bad request: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a target registration was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// A target with this name is already registered.
    Exists,
    /// The pool is at [`ServiceConfig::max_targets`].
    PoolFull,
    /// The service is shutting down.
    ShuttingDown,
    /// The netlists are unusable (width mismatch, no key inputs, oracle
    /// netlist still keyed, …).
    BadTarget(String),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Exists => write!(f, "target already registered"),
            RegisterError::PoolFull => write!(f, "target pool is full"),
            RegisterError::ShuttingDown => write!(f, "service is shutting down"),
            RegisterError::BadTarget(reason) => write!(f, "bad target: {reason}"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Static facts about a registered target.
#[derive(Clone, Debug)]
pub struct TargetInfo {
    /// The name jobs address the target by.
    pub name: String,
    /// Free-form scheme label supplied at registration (e.g. `"sfll-hd"`).
    pub scheme: String,
    /// Circuit inputs of the locked netlist.
    pub inputs: usize,
    /// Circuit outputs of the locked netlist.
    pub outputs: usize,
    /// Key inputs of the locked netlist.
    pub key_width: usize,
    /// Worker sessions dedicated to this target.
    pub workers: usize,
}

/// Cancellation reasons, recorded in each job's reason cell before its token
/// is cancelled so the worker can label the incomplete result.
const REASON_NONE: u8 = 0;
const REASON_TIMEOUT: u8 = 1;
const REASON_DISCONNECT: u8 = 2;
const REASON_SHUTDOWN: u8 = 3;

/// A job sitting in a target queue.
struct QueuedJob {
    job_id: u64,
    client: ClientId,
    tag: u64,
    kind: JobKind,
    timeout: Duration,
    token: CancelToken,
    reason: Arc<AtomicU8>,
    submitted: Instant,
    reply: Sender<JobReport>,
}

/// Per-target queue: jobs bucketed per client, drained round-robin.
#[derive(Default)]
struct QueueState {
    /// Pending jobs per client, FIFO within a client.
    per_client: BTreeMap<ClientId, VecDeque<QueuedJob>>,
    /// Clients with pending jobs, in service order.  A worker pops the front
    /// client, takes **one** of its jobs, and re-queues the client at the
    /// back if it still has jobs — so queue share per rotation turn is equal
    /// across clients regardless of how many jobs each has piled up.
    rotation: VecDeque<ClientId>,
    /// Total jobs across `per_client` (the admission-control count).
    queued: usize,
    /// Set once; wakes and terminates the target's workers.
    shutdown: bool,
}

impl QueueState {
    /// Takes the next job in round-robin client order.
    fn pop_fair(&mut self) -> Option<QueuedJob> {
        while let Some(client) = self.rotation.pop_front() {
            let Some(jobs) = self.per_client.get_mut(&client) else {
                continue;
            };
            let Some(job) = jobs.pop_front() else {
                self.per_client.remove(&client);
                continue;
            };
            if jobs.is_empty() {
                self.per_client.remove(&client);
            } else {
                self.rotation.push_back(client);
            }
            self.queued -= 1;
            return Some(job);
        }
        None
    }
}

/// A registered target: the circuits, the shared oracle cache, and the queue
/// its dedicated workers drain.
struct Target {
    info: TargetInfo,
    h: usize,
    netlist: Arc<Netlist>,
    oracle: Arc<CachingOracle<'static>>,
    queue: Mutex<QueueState>,
    available: Condvar,
}

/// A job currently running on a worker, visible to the reaper.
struct ActiveJob {
    job_id: u64,
    client: ClientId,
    deadline: Instant,
    token: CancelToken,
    reason: Arc<AtomicU8>,
}

/// Service-wide counters (all monotone; gauges are computed at snapshot
/// time).
#[derive(Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_key_found: AtomicU64,
    jobs_no_key: AtomicU64,
    jobs_busy: AtomicU64,
    jobs_timeout: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    /// Jobs that actually ran on a worker session, by kind (busy-rejected
    /// and cancelled-while-queued jobs never reach a session and are not
    /// counted here).
    jobs_sat: AtomicU64,
    jobs_fall: AtomicU64,
    jobs_confirm: AtomicU64,
    sessions_created: AtomicU64,
}

/// State shared between the service handle, workers and the reaper.
struct Shared {
    config: ServiceConfig,
    /// When the pool started, for the `serve_uptime_s` gauge.
    started: Instant,
    shutting_down: AtomicBool,
    /// Jobs currently running on workers, scanned by the reaper.
    active: Mutex<Vec<ActiveJob>>,
    reaper_stop: Mutex<bool>,
    /// Wakes the reaper: a job became active (its deadline may be the new
    /// earliest) or the service is shutting down.
    reaper_wake: Condvar,
    counters: Counters,
    /// Latest [`SolverStats`] snapshot per worker session, indexed by the
    /// worker's pool-wide slot.
    worker_stats: Mutex<Vec<SolverStats>>,
    /// Word-parallel prefilter counters accumulated from FALL jobs.
    prefilter: Mutex<PrefilterStats>,
    /// End-to-end (queue + run) job latencies in microseconds, for the
    /// p50/p99 gauges — a bounded reservoir, not a full history.
    latencies: Mutex<LatencyReservoir>,
}

/// The session pool.  See the module docs for the architecture.
///
/// Dropping the service shuts it down: queued jobs are reported as
/// [`JobStatus::Cancelled`], active jobs are cancelled through their tokens,
/// and all worker threads are joined.
pub struct AttackService {
    shared: Arc<Shared>,
    targets: Mutex<BTreeMap<String, Arc<Target>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
    next_job_id: AtomicU64,
    next_client_id: AtomicU64,
}

impl AttackService {
    /// Starts an empty pool (plus its reaper thread) with the given sizing.
    pub fn new(config: ServiceConfig) -> AttackService {
        let config_reservoir = config.latency_reservoir;
        let shared = Arc::new(Shared {
            config,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(Vec::new()),
            reaper_stop: Mutex::new(false),
            reaper_wake: Condvar::new(),
            counters: Counters::default(),
            worker_stats: Mutex::new(Vec::new()),
            prefilter: Mutex::new(PrefilterStats::default()),
            latencies: Mutex::new(LatencyReservoir::new(config_reservoir)),
        });
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reaper_loop(&shared))
        };
        AttackService {
            shared,
            targets: Mutex::new(BTreeMap::new()),
            workers: Mutex::new(Vec::new()),
            reaper: Mutex::new(Some(reaper)),
            next_job_id: AtomicU64::new(1),
            next_client_id: AtomicU64::new(1),
        }
    }

    /// Allocates a fresh client identity (one per transport connection).
    pub fn next_client(&self) -> ClientId {
        self.next_client_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a target and spawns its dedicated worker sessions.
    ///
    /// `locked` is the circuit under attack; `oracle` answers I/O queries
    /// for it (for a simulation oracle this is the original netlist — it
    /// must not have key inputs).  `h` is the SFLL-HD parameter assumed by
    /// FALL jobs against this target; `scheme` is a free-form label echoed
    /// in [`TargetInfo`].
    ///
    /// Each worker thread creates **one** [`AttackSession`] over the locked
    /// netlist, primes it, and keeps it for the lifetime of the service; the
    /// oracle is wrapped in a shared [`CachingOracle`] so duplicate queries
    /// across jobs and workers hit the cache.
    pub fn register_target(
        &self,
        name: &str,
        scheme: &str,
        h: usize,
        locked: Netlist,
        oracle: Arc<dyn Oracle + Send + Sync>,
    ) -> Result<TargetInfo, RegisterError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(RegisterError::ShuttingDown);
        }
        if name.is_empty() {
            return Err(RegisterError::BadTarget("empty target name".into()));
        }
        if locked.num_key_inputs() == 0 {
            return Err(RegisterError::BadTarget(
                "locked netlist has no key inputs".into(),
            ));
        }
        if oracle.num_inputs() != locked.num_inputs()
            || oracle.num_outputs() != locked.num_outputs()
        {
            return Err(RegisterError::BadTarget(format!(
                "oracle is {}→{} but the locked circuit is {}→{}",
                oracle.num_inputs(),
                oracle.num_outputs(),
                locked.num_inputs(),
                locked.num_outputs(),
            )));
        }
        let workers = self.shared.config.workers_per_target.max(1);
        let info = TargetInfo {
            name: name.to_string(),
            scheme: scheme.to_string(),
            inputs: locked.num_inputs(),
            outputs: locked.num_outputs(),
            key_width: locked.num_key_inputs(),
            workers,
        };
        let target = Arc::new(Target {
            info: info.clone(),
            h,
            netlist: Arc::new(locked),
            oracle: Arc::new(CachingOracle::shared(oracle)),
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
        });

        let mut targets = self.targets.lock().expect("targets lock");
        if targets.contains_key(name) {
            return Err(RegisterError::Exists);
        }
        if targets.len() >= self.shared.config.max_targets {
            return Err(RegisterError::PoolFull);
        }
        targets.insert(name.to_string(), Arc::clone(&target));
        drop(targets);

        let mut handles = self.workers.lock().expect("workers lock");
        for _ in 0..workers {
            let slot = {
                let mut stats = self.shared.worker_stats.lock().expect("stats lock");
                stats.push(SolverStats::default());
                stats.len() - 1
            };
            let target = Arc::clone(&target);
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || {
                worker_loop(&target, &shared, slot)
            }));
        }
        Ok(info)
    }

    /// Returns the static facts about a registered target, if any.
    pub fn target_info(&self, name: &str) -> Option<TargetInfo> {
        self.targets
            .lock()
            .expect("targets lock")
            .get(name)
            .map(|t| t.info.clone())
    }

    /// Lists every registered target.
    pub fn targets(&self) -> Vec<TargetInfo> {
        self.targets
            .lock()
            .expect("targets lock")
            .values()
            .map(|t| t.info.clone())
            .collect()
    }

    /// Submits a job for `client` against `target`.
    ///
    /// Validation (shortlist width, `h` range) happens here, before the job
    /// consumes queue capacity.  On success the job is queued and its id is
    /// returned; the eventual [`JobReport`] arrives on `reply` (a dropped
    /// receiver is fine — the report is discarded).
    pub fn submit(
        &self,
        target: &str,
        client: ClientId,
        spec: JobSpec,
        reply: Sender<JobReport>,
    ) -> Result<u64, SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let target = self
            .targets
            .lock()
            .expect("targets lock")
            .get(target)
            .cloned()
            .ok_or(SubmitError::UnknownTarget)?;

        match &spec.kind {
            JobKind::SatAttack => {}
            JobKind::Fall { h } => {
                let h = h.unwrap_or(target.h);
                if h > target.info.key_width {
                    return Err(SubmitError::BadRequest(format!(
                        "h = {h} exceeds the key width {}",
                        target.info.key_width
                    )));
                }
            }
            JobKind::Confirm { shortlist } => {
                if shortlist.is_empty() {
                    return Err(SubmitError::BadRequest("empty shortlist".into()));
                }
                if let Some(bad) = shortlist
                    .iter()
                    .find(|key| key.len() != target.info.key_width)
                {
                    return Err(SubmitError::BadRequest(format!(
                        "shortlist key has {} bits but the target key width is {}",
                        bad.len(),
                        target.info.key_width
                    )));
                }
            }
        }

        let timeout = spec
            .timeout
            .unwrap_or(self.shared.config.default_timeout)
            .min(self.shared.config.max_timeout);
        let job_id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let job = QueuedJob {
            job_id,
            client,
            tag: spec.tag,
            kind: spec.kind,
            timeout,
            token: CancelToken::new(),
            reason: Arc::new(AtomicU8::new(REASON_NONE)),
            submitted: Instant::now(),
            reply,
        };

        let mut queue = target.queue.lock().expect("queue lock");
        if queue.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.queued >= self.shared.config.queue_capacity {
            self.shared
                .counters
                .jobs_busy
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy {
                queued: queue.queued,
                capacity: self.shared.config.queue_capacity,
            });
        }
        let bucket = queue.per_client.entry(client).or_default();
        let newly_pending = bucket.is_empty();
        bucket.push_back(job);
        if newly_pending {
            queue.rotation.push_back(client);
        }
        queue.queued += 1;
        self.shared
            .counters
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        drop(queue);
        target.available.notify_one();
        Ok(job_id)
    }

    /// Cancels everything a client has in flight: queued jobs are dropped
    /// (counted as cancelled) and active jobs are cancelled through their
    /// tokens with the *disconnect* reason.  Called by the transport when a
    /// connection closes.
    pub fn cancel_client(&self, client: ClientId) {
        let targets: Vec<Arc<Target>> = self
            .targets
            .lock()
            .expect("targets lock")
            .values()
            .cloned()
            .collect();
        for target in targets {
            let mut queue = target.queue.lock().expect("queue lock");
            if let Some(jobs) = queue.per_client.remove(&client) {
                queue.queued -= jobs.len();
                queue.rotation.retain(|c| *c != client);
                for job in jobs {
                    job.reason.store(REASON_DISCONNECT, Ordering::SeqCst);
                    job.token.cancel();
                    self.shared
                        .counters
                        .jobs_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let active = self.shared.active.lock().expect("active lock");
        for job in active.iter().filter(|j| j.client == client) {
            let _ = job.reason.compare_exchange(
                REASON_NONE,
                REASON_DISCONNECT,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            job.token.cancel();
        }
    }

    /// Snapshots the `/metrics` surface: job counters, queue gauges,
    /// end-to-end latency percentiles, oracle-cache effectiveness, the
    /// aggregated [`SolverStats`] of every pool session, and the
    /// word-parallel prefilter counters from FALL jobs.
    pub fn metrics(&self) -> MetricReport {
        let mut report = MetricReport::new();
        let counters = &self.shared.counters;
        for (name, counter) in [
            ("serve_jobs_submitted", &counters.jobs_submitted),
            ("serve_jobs_completed", &counters.jobs_completed),
            ("serve_jobs_key_found", &counters.jobs_key_found),
            ("serve_jobs_no_key", &counters.jobs_no_key),
            ("serve_jobs_busy", &counters.jobs_busy),
            ("serve_jobs_timeout", &counters.jobs_timeout),
            ("serve_jobs_cancelled", &counters.jobs_cancelled),
            ("serve_jobs_failed", &counters.jobs_failed),
            ("serve_jobs_sat", &counters.jobs_sat),
            ("serve_jobs_fall", &counters.jobs_fall),
            ("serve_jobs_confirm", &counters.jobs_confirm),
            ("serve_sessions_created", &counters.sessions_created),
        ] {
            report.record(name, counter.load(Ordering::Relaxed) as f64, false);
        }
        report.record(
            "serve_uptime_s",
            self.shared.started.elapsed().as_secs_f64(),
            false,
        );

        let targets: Vec<Arc<Target>> = self
            .targets
            .lock()
            .expect("targets lock")
            .values()
            .cloned()
            .collect();
        report.record("serve_targets", targets.len() as f64, false);
        let queue_depth: usize = targets
            .iter()
            .map(|t| t.queue.lock().expect("queue lock").queued)
            .sum();
        report.record("serve_queue_depth", queue_depth as f64, false);
        report.record(
            "serve_active_jobs",
            self.shared.active.lock().expect("active lock").len() as f64,
            false,
        );

        let (hits, unique): (usize, usize) = targets
            .iter()
            .map(|t| (t.oracle.hits(), t.oracle.unique_queries()))
            .fold((0, 0), |(h, u), (th, tu)| (h + th, u + tu));
        report.record("oracle_cache_hits", hits as f64, false);
        report.record("oracle_unique_queries", unique as f64, false);
        let rate = if hits + unique > 0 {
            hits as f64 / (hits + unique) as f64
        } else {
            0.0
        };
        report.record("oracle_cache_hit_rate", rate, true);

        let latencies = self.shared.latencies.lock().expect("latency lock");
        let (p50, p99) = percentiles(latencies.samples());
        let retained = latencies.samples().len();
        drop(latencies);
        report.record("serve_latency_p50_s", p50, false);
        report.record("serve_latency_p99_s", p99, false);
        report.record("serve_latency_samples", retained as f64, false);

        let mut pool = SolverStats::default();
        for stats in self.shared.worker_stats.lock().expect("stats lock").iter() {
            pool.absorb(stats);
        }
        report.record_solver_stats(&pool, solver_metric_name);

        let prefilter = self.shared.prefilter.lock().expect("prefilter lock");
        report.record(
            "prefilter_refuted",
            (prefilter.polarities_refuted + prefilter.candidates_refuted) as f64,
            false,
        );
        report.record(
            "prefilter_patterns_simulated",
            prefilter.patterns_simulated as f64,
            false,
        );
        report.extend(crate::trace::metrics());
        report
    }

    /// Shuts the pool down: rejects new work, reports every queued job as
    /// cancelled, cancels active jobs through their tokens, then joins all
    /// workers and the reaper.  Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let targets: Vec<Arc<Target>> = self
            .targets
            .lock()
            .expect("targets lock")
            .values()
            .cloned()
            .collect();
        for target in &targets {
            let drained = {
                let mut queue = target.queue.lock().expect("queue lock");
                queue.shutdown = true;
                let mut drained = Vec::new();
                while let Some(job) = queue.pop_fair() {
                    drained.push(job);
                }
                drained
            };
            target.available.notify_all();
            for job in drained {
                job.reason.store(REASON_SHUTDOWN, Ordering::SeqCst);
                job.token.cancel();
                self.shared
                    .counters
                    .jobs_cancelled
                    .fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(JobReport {
                    job_id: job.job_id,
                    tag: job.tag,
                    status: JobStatus::Cancelled,
                    key: None,
                    shortlist: Vec::new(),
                    iterations: 0,
                    oracle_queries: 0,
                    queued: job.submitted.elapsed(),
                    elapsed: Duration::ZERO,
                });
            }
        }
        {
            let active = self.shared.active.lock().expect("active lock");
            for job in active.iter() {
                let _ = job.reason.compare_exchange(
                    REASON_NONE,
                    REASON_SHUTDOWN,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                job.token.cancel();
            }
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
        {
            let mut stop = self.shared.reaper_stop.lock().expect("reaper lock");
            *stop = true;
        }
        self.shared.reaper_wake.notify_all();
        if let Some(reaper) = self.reaper.lock().expect("reaper handle lock").take() {
            let _ = reaper.join();
        }
    }
}

impl Drop for AttackService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `(p50, p99)` of the recorded latencies, in seconds.
fn percentiles(micros: &[u64]) -> (f64, f64) {
    if micros.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = micros.to_vec();
    sorted.sort_unstable();
    let at = |q: f64| {
        let index = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[index] as f64 / 1e6
    };
    (at(0.50), at(0.99))
}

/// Cancels expired deadlines, then sleeps until the earliest remaining one
/// (or, with no job active, until woken).  The reaper holds `reaper_stop`
/// from its scan until it waits, and [`activate`] takes that lock before
/// notifying, so a job that starts mid-scan is never missed.
fn reaper_loop(shared: &Shared) {
    let mut stop = shared.reaper_stop.lock().expect("reaper lock");
    while !*stop {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for job in shared.active.lock().expect("active lock").iter() {
            if job.token.is_cancelled() {
                continue;
            }
            if now >= job.deadline {
                let _ = job.reason.compare_exchange(
                    REASON_NONE,
                    REASON_TIMEOUT,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                job.token.cancel();
            } else {
                next = Some(next.map_or(job.deadline, |next| next.min(job.deadline)));
            }
        }
        stop = match next {
            Some(deadline) => {
                shared
                    .reaper_wake
                    .wait_timeout(stop, deadline - now)
                    .expect("reaper lock")
                    .0
            }
            None => shared.reaper_wake.wait(stop).expect("reaper lock"),
        };
    }
}

/// Makes a running job visible to the reaper and wakes it, so the job's
/// deadline is honoured even if it is earlier than every other.
fn activate(shared: &Shared, job: ActiveJob) {
    shared.active.lock().expect("active lock").push(job);
    let _stop = shared.reaper_stop.lock().expect("reaper lock");
    shared.reaper_wake.notify_one();
}

/// What a job execution produced, before status mapping.
struct RunOutcome {
    completed: bool,
    key: Option<Key>,
    shortlist: Vec<Key>,
    iterations: usize,
    oracle_queries: usize,
}

/// The life of one worker: create and prime one session, then serve jobs
/// until shutdown.
fn worker_loop(target: &Target, shared: &Shared, slot: usize) {
    let netlist = Arc::clone(&target.netlist);
    let mut session = AttackSession::new(&netlist);
    session.prime();
    shared
        .counters
        .sessions_created
        .fetch_add(1, Ordering::Relaxed);
    loop {
        let job = {
            let mut queue = target.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_fair() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = target.available.wait(queue).expect("queue lock");
            }
        };
        let Some(job) = job else {
            break;
        };
        run_job(&mut session, target, shared, slot, job);
    }
}

/// Executes one job on the worker's session and delivers the report.
fn run_job(
    session: &mut AttackSession<'_>,
    target: &Target,
    shared: &Shared,
    slot: usize,
    job: QueuedJob,
) {
    let queued_for = job.submitted.elapsed();

    // A job cancelled while still queued (disconnect race, shutdown race)
    // must not consume solver time.
    if job.token.is_cancelled() {
        let status = match job.reason.load(Ordering::SeqCst) {
            REASON_TIMEOUT => JobStatus::Timeout,
            _ => JobStatus::Cancelled,
        };
        count_status(shared, status);
        let _ = job.reply.send(JobReport {
            job_id: job.job_id,
            tag: job.tag,
            status,
            key: None,
            shortlist: Vec::new(),
            iterations: 0,
            oracle_queries: 0,
            queued: queued_for,
            elapsed: Duration::ZERO,
        });
        return;
    }

    // Make the job visible to the reaper, then arm the session.
    activate(
        shared,
        ActiveJob {
            job_id: job.job_id,
            client: job.client,
            deadline: Instant::now() + job.timeout,
            token: job.token.clone(),
            reason: Arc::clone(&job.reason),
        },
    );
    session.set_interrupt(Some(job.token.as_flag()));

    let kind_counter = match &job.kind {
        JobKind::SatAttack => &shared.counters.jobs_sat,
        JobKind::Fall { .. } => &shared.counters.jobs_fall,
        JobKind::Confirm { .. } => &shared.counters.jobs_confirm,
    };
    kind_counter.fetch_add(1, Ordering::Relaxed);

    let started = Instant::now();
    let outcome = {
        let _span = crate::trace::span("serve_job");
        execute(session, target, shared, &job)
    };
    let elapsed = started.elapsed();

    // Disarm: the session survives the job, whatever happened to it.
    session.set_interrupt(None);
    session.set_conflict_budget(None);
    shared
        .active
        .lock()
        .expect("active lock")
        .retain(|active| active.job_id != job.job_id);

    let status = if outcome.completed {
        if outcome.key.is_some() {
            JobStatus::KeyFound
        } else {
            JobStatus::NoKey
        }
    } else {
        match job.reason.load(Ordering::SeqCst) {
            REASON_DISCONNECT | REASON_SHUTDOWN => JobStatus::Cancelled,
            REASON_TIMEOUT => JobStatus::Timeout,
            // The in-attack wall-clock budget can fire before the reaper;
            // past the deadline it is still a timeout, otherwise some other
            // budget (iteration cap) stopped the run.
            _ if elapsed >= job.timeout => JobStatus::Timeout,
            _ => JobStatus::Failed,
        }
    };
    count_status(shared, status);
    shared
        .latencies
        .lock()
        .expect("latency lock")
        .record((queued_for + elapsed).as_micros() as u64);
    shared.worker_stats.lock().expect("stats lock")[slot] = session.stats();

    let _ = job.reply.send(JobReport {
        job_id: job.job_id,
        tag: job.tag,
        status,
        key: outcome.key,
        shortlist: outcome.shortlist,
        iterations: outcome.iterations,
        oracle_queries: outcome.oracle_queries,
        queued: queued_for,
        elapsed,
    });
}

/// The `/metrics` name of a [`SolverStats`] field: `sat_<field>` except for
/// the four arena/lifecycle counters that predate the prefix convention and
/// are kept under their original names for dashboard stability.
fn solver_metric_name(field: &str) -> String {
    match field {
        "arena_bytes" => "arena_bytes".to_string(),
        "wasted_bytes" => "arena_wasted_bytes".to_string(),
        "gc_runs" => "gc_runs".to_string(),
        "recycled_vars" => "recycled_vars".to_string(),
        other => format!("sat_{other}"),
    }
}

/// Bumps the counter matching a final job status.
fn count_status(shared: &Shared, status: JobStatus) {
    let counters = &shared.counters;
    let counter = match status {
        JobStatus::KeyFound => &counters.jobs_key_found,
        JobStatus::NoKey => &counters.jobs_no_key,
        JobStatus::Timeout => &counters.jobs_timeout,
        JobStatus::Cancelled => &counters.jobs_cancelled,
        JobStatus::Failed => &counters.jobs_failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if matches!(status, JobStatus::KeyFound | JobStatus::NoKey) {
        counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the requested attack kind.
fn execute(
    session: &mut AttackSession<'_>,
    target: &Target,
    shared: &Shared,
    job: &QueuedJob,
) -> RunOutcome {
    let oracle: &CachingOracle<'static> = &target.oracle;
    match &job.kind {
        JobKind::SatAttack => {
            let config = SatAttackConfig {
                time_limit: Some(job.timeout),
                ..SatAttackConfig::default()
            };
            let result = sat_attack_in(session, oracle, &config);
            RunOutcome {
                completed: matches!(
                    result.status,
                    SatAttackStatus::Success | SatAttackStatus::Inconsistent
                ),
                key: result.key,
                shortlist: Vec::new(),
                iterations: result.iterations,
                oracle_queries: result.oracle_queries,
            }
        }
        JobKind::Fall { h } => {
            // FALL builds its own session internally (its pipeline owns the
            // candidate bookkeeping); the pool session still serves SAT and
            // confirmation jobs between FALL runs.  The job token is threaded
            // through the config so the deadline interrupts every stage.
            let mut config = FallAttackConfig::for_h(h.unwrap_or(target.h));
            config.interrupt = Some(job.token.as_flag());
            config.confirmation.time_limit = Some(job.timeout);
            let result = fall_attack(&target.netlist, Some(oracle), &config);
            shared
                .prefilter
                .lock()
                .expect("prefilter lock")
                .merge(&result.prefilter);
            RunOutcome {
                completed: !job.token.is_cancelled(),
                key: result.best_key().cloned(),
                shortlist: result.shortlisted_keys,
                iterations: 0,
                oracle_queries: 0,
            }
        }
        JobKind::Confirm { shortlist } => {
            let config = KeyConfirmationConfig {
                time_limit: Some(job.timeout),
                ..KeyConfirmationConfig::default()
            };
            let result = key_confirmation_in(session, oracle, shortlist, &config);
            RunOutcome {
                completed: result.completed,
                key: result.key,
                shortlist: Vec::new(),
                iterations: result.iterations,
                oracle_queries: result.oracle_queries,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn push(queue: &mut QueueState, client: ClientId, job_id: u64) {
        let (reply, _) = mpsc::channel();
        let job = QueuedJob {
            job_id,
            client,
            tag: 0,
            kind: JobKind::SatAttack,
            timeout: Duration::from_secs(1),
            token: CancelToken::new(),
            reason: Arc::new(AtomicU8::new(REASON_NONE)),
            submitted: Instant::now(),
            reply,
        };
        let bucket = queue.per_client.entry(client).or_default();
        let newly_pending = bucket.is_empty();
        bucket.push_back(job);
        if newly_pending {
            queue.rotation.push_back(client);
        }
        queue.queued += 1;
    }

    #[test]
    fn pop_fair_round_robins_across_clients() {
        let mut queue = QueueState::default();
        // Client 1 floods the queue; clients 2 and 3 submit less.
        for job_id in [10, 11, 12] {
            push(&mut queue, 1, job_id);
        }
        push(&mut queue, 2, 20);
        for job_id in [30, 31] {
            push(&mut queue, 3, job_id);
        }
        let mut order = Vec::new();
        while let Some(job) = queue.pop_fair() {
            order.push(job.job_id);
        }
        // One job per client per rotation turn: 1, 2, 3, 1, 3, 1.
        assert_eq!(order, vec![10, 20, 30, 11, 31, 12]);
        assert_eq!(queue.queued, 0);
        assert!(queue.per_client.is_empty());
    }

    #[test]
    fn pop_fair_resumes_fairly_after_new_submissions() {
        let mut queue = QueueState::default();
        push(&mut queue, 1, 10);
        push(&mut queue, 1, 11);
        assert_eq!(queue.pop_fair().expect("job").job_id, 10);
        // A second client arriving mid-stream gets the next turn after the
        // first client's already-rotated entry.
        push(&mut queue, 2, 20);
        assert_eq!(queue.pop_fair().expect("job").job_id, 11);
        assert_eq!(queue.pop_fair().expect("job").job_id, 20);
        assert!(queue.pop_fair().is_none());
    }

    #[test]
    fn latency_reservoir_is_exact_below_capacity_and_flat_above() {
        let mut reservoir = LatencyReservoir::new(8);
        for value in 0..8 {
            reservoir.record(value);
        }
        // Below the cap nothing is sampled away: exact history, exact
        // percentiles.
        assert_eq!(reservoir.samples(), (0..8).collect::<Vec<u64>>());
        assert_eq!(reservoir.seen(), 8);

        // A million more records: memory stays at the cap, the retained set
        // stays a subset of what was recorded, and the total is counted.
        for value in 8..1_000_000 {
            reservoir.record(value);
        }
        assert_eq!(reservoir.samples().len(), 8);
        assert_eq!(reservoir.seen(), 1_000_000);
        assert!(reservoir.samples().iter().all(|&v| v < 1_000_000));

        // Deterministic replacement stream: same inputs, same sample.
        let mut replay = LatencyReservoir::new(8);
        for value in 0..1_000_000 {
            replay.record(value);
        }
        assert_eq!(replay.samples(), reservoir.samples());
    }

    #[test]
    fn latency_reservoir_clamps_a_zero_capacity() {
        let mut reservoir = LatencyReservoir::new(0);
        reservoir.record(7);
        reservoir.record(9);
        assert_eq!(reservoir.samples().len(), 1);
        assert_eq!(reservoir.seen(), 2);
    }

    #[test]
    fn metrics_cover_every_solver_stats_field() {
        // Drift guard: a counter added to `SolverStats` must surface in the
        // `/metrics` frame.  Because `metrics()` iterates
        // `SolverStats::fields()`, this can only fail if the legacy-name
        // mapping loses a field or the metrics pipeline is rewritten.
        let service = AttackService::new(ServiceConfig::default());
        let metrics = service.metrics();
        for (field, _) in SolverStats::default().fields() {
            let expected = solver_metric_name(field);
            assert!(
                metrics.get(&expected).is_some(),
                "SolverStats field {field:?} missing from /metrics (expected {expected:?})"
            );
        }
        service.shutdown();
    }

    #[test]
    fn metrics_report_uptime_and_per_kind_job_counters() {
        let service = AttackService::new(ServiceConfig::default());
        let metric = |name: &str| {
            *service
                .metrics()
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert!(metric("serve_uptime_s").value >= 0.0);
        assert_eq!(metric("serve_jobs_sat").value, 0.0);
        assert_eq!(metric("serve_jobs_fall").value, 0.0);
        assert_eq!(metric("serve_jobs_confirm").value, 0.0);
        service.shutdown();
    }

    #[test]
    fn reaper_wakes_for_a_deadline_earlier_than_every_active_one() {
        let service = AttackService::new(ServiceConfig::default());
        let job = |job_id, timeout| ActiveJob {
            job_id,
            client: 1,
            deadline: Instant::now() + timeout,
            token: CancelToken::new(),
            reason: Arc::new(AtomicU8::new(REASON_NONE)),
        };
        let long = job(1, Duration::from_secs(60));
        let long_token = long.token.clone();
        activate(&service.shared, long);
        // Let the reaper go to sleep towards the 60 s deadline.  The test
        // holds for any interleaving; the pause makes this one the likely
        // one.
        std::thread::sleep(Duration::from_millis(20));

        // `started` precedes the short job's deadline, so the reaper cannot
        // cancel before `started + 150 ms`.
        let started = Instant::now();
        let short = job(2, Duration::from_millis(150));
        let (token, reason) = (short.token.clone(), Arc::clone(&short.reason));
        activate(&service.shared, short);
        while !token.is_cancelled() {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "the 150 ms deadline was not honoured"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(started.elapsed() >= Duration::from_millis(150));
        assert_eq!(reason.load(Ordering::SeqCst), REASON_TIMEOUT);
        assert!(!long_token.is_cancelled());
        service.shutdown();
    }

    #[test]
    fn percentiles_pick_the_right_order_statistics() {
        assert_eq!(percentiles(&[]), (0.0, 0.0));
        assert_eq!(percentiles(&[2_000_000]), (2.0, 2.0));
        let micros: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        let (p50, p99) = percentiles(&micros);
        assert_eq!(p50, 51.0);
        assert_eq!(p99, 99.0);
    }
}
