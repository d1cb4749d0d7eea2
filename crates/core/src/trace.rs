//! A hand-rolled flight recorder: structured spans, per-phase duration
//! histograms and Chrome-trace/Prometheus export, with zero dependencies.
//!
//! The attack stack is instrumented at its hot phases — DIP iterations and
//! solver calls ([`crate::session::AttackSession`]), oracle queries
//! ([`crate::parallel::CachingOracle`], [`crate::dist::SyncingOracle`]),
//! region drains ([`crate::parallel::drain_regions`]), service job
//! lifecycles ([`crate::service::AttackService`]) and the SAT solver's
//! maintenance checkpoints (via [`sat::Solver::set_checkpoint_hook`]).  All
//! of it funnels through this module:
//!
//! * [`span`] opens a phase and records it when the guard drops.  While
//!   tracing is disabled (the default) a span is one relaxed atomic load —
//!   no clock is read, nothing is allocated, nothing is locked — so
//!   instrumented code paths are perturbation-free: solver and attack
//!   trajectories never depend on the recorder's state either way, because
//!   nothing in the engine reads the recorded data back.
//! * Completed spans land in a bounded per-thread ring buffer (flight
//!   recorder semantics: the newest [`RING_CAPACITY`] events per thread are
//!   kept, older ones are dropped and counted) and in a per-phase
//!   [`PhaseHistogram`] with fixed log-spaced buckets — bounded memory
//!   however long the process runs, like the service's latency reservoir.
//! * [`chrome_trace_json`] renders the event rings as Chrome trace-event
//!   JSON (load it at <https://ui.perfetto.dev> or `chrome://tracing`);
//!   [`metrics`] renders the histograms as a [`MetricReport`] (whose
//!   [`MetricReport::prometheus_text`] is the Prometheus exposition).
//!
//! The recorder is process-global: one switch, one event store, one
//! histogram table.  That is deliberate — a process is one attack farm
//! worker, one `fall-serve` server or one benchmark run, and the consumers
//! (the `trace` wire op, `bench_smoke --trace-out`, the CI validator) all
//! want the whole process's picture.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::MetricReport;

/// Events kept per thread; the flight recorder drops (and counts) the
/// oldest beyond this.
pub const RING_CAPACITY: usize = 4096;

/// Histogram buckets: bucket `i` counts durations whose microsecond value
/// has bit length `i` (i.e. `[2^(i-1), 2^i)`; bucket 0 is exactly 0 µs),
/// clamped into the last bucket beyond `2^38` µs (~76 h).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// One completed span, in microseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Phase name (a static label like `dip_iteration`).
    pub name: &'static str,
    /// Recorder-assigned thread id (dense, starts at 0).
    pub tid: u64,
    /// Start offset from the recorder epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Bounded per-phase duration distribution: fixed power-of-two buckets plus
/// count/total/max, so memory stays constant regardless of span volume.
#[derive(Clone, Debug)]
pub struct PhaseHistogram {
    /// Span count per log-spaced bucket (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total spans recorded.
    pub count: u64,
    /// Sum of all span durations, microseconds.
    pub total_us: u64,
    /// Longest span, microseconds.
    pub max_us: u64,
}

impl Default for PhaseHistogram {
    fn default() -> PhaseHistogram {
        PhaseHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl PhaseHistogram {
    fn record(&mut self, dur_us: u64) {
        let bucket = (64 - u64::leading_zeros(dur_us) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_us += dur_us;
        self.max_us = self.max_us.max(dur_us);
    }

    /// An upper bound on the `q`-quantile duration (the top edge of the
    /// bucket where the cumulative count crosses `q * count`), microseconds.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i }.min(self.max_us);
            }
        }
        self.max_us
    }
}

/// One thread's bounded event store.
#[derive(Default)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Next overwrite position once `events` reached capacity.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }
}

/// The process-global recorder state.
struct Registry {
    /// Every thread's ring, kept alive past thread exit.
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    histograms: Mutex<BTreeMap<&'static str, PhaseHistogram>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// The recorder's monotonic epoch: every timestamp is an offset from the
/// first clock read of the process, so traces start near t = 0.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    /// This thread's `(tid, ring)`, registered globally on first use.
    static THREAD_RING: (u64, Arc<Mutex<Ring>>) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Mutex::new(Ring::default()));
        registry()
            .rings
            .lock()
            .expect("trace ring registry")
            .push(Arc::clone(&ring));
        (tid, ring)
    };
}

/// Turns the recorder on or off.  Off (the default) makes every
/// instrumentation point a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every recorded event and histogram (the enabled state is kept).
pub fn reset() {
    let registry = registry();
    for ring in registry.rings.lock().expect("trace ring registry").iter() {
        let mut ring = ring.lock().expect("trace ring");
        ring.events.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
    registry
        .histograms
        .lock()
        .expect("trace histograms")
        .clear();
}

/// An open phase; the span is recorded when the guard drops.  Obtained from
/// [`span`].
#[must_use = "a span records on drop; bind it (`let _span = ...`) for the phase's lifetime"]
pub struct Span {
    name: &'static str,
    start_us: u64,
    armed: bool,
}

/// Opens a span for the phase `name`.  When tracing is disabled this is a
/// single relaxed atomic load and the returned guard is inert.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_us: 0,
            armed: false,
        };
    }
    Span {
        name,
        start_us: now_us(),
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            let end_us = now_us();
            record_completed(self.name, self.start_us, end_us.max(self.start_us));
        }
    }
}

/// Records an already-measured phase (used by the solver checkpoint hook,
/// which times phases itself).  The event is backdated so it ends now.
pub fn record_duration(name: &'static str, duration: Duration) {
    if !enabled() {
        return;
    }
    let end_us = now_us();
    let dur_us = duration.as_micros() as u64;
    record_event(name, end_us.saturating_sub(dur_us), dur_us);
}

fn record_completed(name: &'static str, start_us: u64, end_us: u64) {
    record_event(name, start_us, end_us - start_us);
}

fn record_event(name: &'static str, start_us: u64, dur_us: u64) {
    THREAD_RING.with(|(tid, ring)| {
        ring.lock().expect("trace ring").push(TraceEvent {
            name,
            tid: *tid,
            start_us,
            dur_us,
        });
    });
    registry()
        .histograms
        .lock()
        .expect("trace histograms")
        .entry(name)
        .or_default()
        .record(dur_us);
}

/// A snapshot of every recorded event, sorted by start time.
pub fn events() -> Vec<TraceEvent> {
    let mut all = Vec::new();
    for ring in registry().rings.lock().expect("trace ring registry").iter() {
        all.extend(ring.lock().expect("trace ring").events.iter().cloned());
    }
    all.sort_by_key(|event| (event.start_us, event.tid));
    all
}

/// Events dropped by ring-buffer overwrite since the last [`reset`].
pub fn events_dropped() -> u64 {
    registry()
        .rings
        .lock()
        .expect("trace ring registry")
        .iter()
        .map(|ring| ring.lock().expect("trace ring").dropped)
        .sum()
}

/// A snapshot of the per-phase histograms, sorted by phase name.
pub fn histograms() -> Vec<(&'static str, PhaseHistogram)> {
    registry()
        .histograms
        .lock()
        .expect("trace histograms")
        .iter()
        .map(|(&name, histogram)| (name, histogram.clone()))
        .collect()
}

/// The recorded span count of one phase (0 when the phase never ran).
pub fn phase_count(name: &str) -> u64 {
    registry()
        .histograms
        .lock()
        .expect("trace histograms")
        .get(name)
        .map_or(0, |histogram| histogram.count)
}

/// Renders the per-phase histograms as lower-is-better metrics:
/// `trace_<phase>_spans`, `trace_<phase>_total_us`, `trace_<phase>_p50_us`,
/// `trace_<phase>_p99_us` and `trace_<phase>_max_us` per phase, plus
/// `trace_events_dropped`.
pub fn metrics() -> MetricReport {
    let mut report = MetricReport::new();
    for (name, histogram) in histograms() {
        for (suffix, value) in [
            ("spans", histogram.count),
            ("total_us", histogram.total_us),
            ("p50_us", histogram.quantile_upper_us(0.50)),
            ("p99_us", histogram.quantile_upper_us(0.99)),
            ("max_us", histogram.max_us),
        ] {
            report.record(format!("trace_{name}_{suffix}"), value as f64, false);
        }
    }
    report.record("trace_events_dropped", events_dropped() as f64, false);
    report
}

/// Renders the recorded events as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps) — loadable in Perfetto or
/// `chrome://tracing` as-is.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, event) in events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fall\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            escape_json(event.name),
            event.tid,
            event.start_us,
            event.dur_us
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global, so the tests here share it; they run
    /// under one lock to keep their snapshots disjoint.
    fn with_recorder<R>(test: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(true);
        reset();
        let result = test();
        set_enabled(false);
        reset();
        result
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_recorder(|| {
            set_enabled(false);
            {
                let _span = span("idle_phase");
            }
            assert_eq!(phase_count("idle_phase"), 0);
            assert!(events().iter().all(|e| e.name != "idle_phase"));
        });
    }

    #[test]
    fn spans_land_in_events_and_histograms() {
        with_recorder(|| {
            {
                let _outer = span("outer");
                let _inner = span("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(phase_count("outer"), 1);
            assert_eq!(phase_count("inner"), 1);
            let events = events();
            let outer = events.iter().find(|e| e.name == "outer").expect("outer");
            let inner = events.iter().find(|e| e.name == "inner").expect("inner");
            // Guard discipline nests spans: inner is contained in outer.
            assert!(inner.start_us >= outer.start_us);
            assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
            let histogram = histograms()
                .into_iter()
                .find(|(name, _)| *name == "outer")
                .map(|(_, h)| h)
                .expect("outer histogram");
            assert_eq!(histogram.count, 1);
            assert!(histogram.total_us >= 2_000, "{histogram:?}");
            assert!(histogram.quantile_upper_us(0.5) >= histogram.max_us / 2);
        });
    }

    #[test]
    fn record_duration_backdates() {
        with_recorder(|| {
            record_duration("measured", Duration::from_micros(1500));
            let events = events();
            let event = events.iter().find(|e| e.name == "measured").expect("event");
            assert_eq!(event.dur_us, 1500);
            assert_eq!(phase_count("measured"), 1);
        });
    }

    #[test]
    fn ring_is_bounded() {
        with_recorder(|| {
            for _ in 0..(RING_CAPACITY + 10) {
                record_duration("flood", Duration::ZERO);
            }
            assert_eq!(phase_count("flood"), (RING_CAPACITY + 10) as u64);
            // Only this thread floods; concurrent tests may add other
            // threads' spans while the process-global recorder is on.
            let kept = events().iter().filter(|e| e.name == "flood").count();
            assert!(kept <= RING_CAPACITY, "{kept}");
            assert!(events_dropped() >= 10);
        });
    }

    #[test]
    fn traced_fall_attack_records_its_cone_solves() {
        use crate::attack::{fall_attack, FallAttackConfig};
        use locking::{LockingScheme, SfllHd};
        use netlist::random::{generate, RandomCircuitSpec};

        let original = generate(&RandomCircuitSpec::new("trace_fall", 14, 3, 90));
        let locked = SfllHd::new(10, 1)
            .with_seed(8)
            .lock(&original)
            .expect("lock")
            .optimized();
        with_recorder(|| {
            // The marker tells this thread's spans from concurrent tests'.
            record_duration("fall_attack_thread", Duration::ZERO);
            let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(1));
            assert!(result.status.is_success(), "{result:?}");
            let events = events();
            let tid = events
                .iter()
                .find(|e| e.name == "fall_attack_thread")
                .expect("marker")
                .tid;
            // Oracle-less, so no key confirmation: every solve is an
            // analysis or equivalence query through `check_cone_property`.
            let solves = events
                .iter()
                .filter(|e| e.name == "solve" && e.tid == tid)
                .count();
            assert!(solves > 0);
            assert!(phase_count("solve") > 0);
        });
    }

    #[test]
    fn traced_fall_attack_records_one_span_per_prefilter_sweep() {
        use crate::attack::{fall_attack, FallAttackConfig};
        use locking::{LockingScheme, TtLock};
        use netlist::random::{generate, RandomCircuitSpec};

        let original = generate(&RandomCircuitSpec::new("trace_prefilter", 14, 3, 90));
        let locked = TtLock::new(10)
            .with_seed(4)
            .lock(&original)
            .expect("lock")
            .optimized();
        with_recorder(|| {
            record_duration("prefilter_thread", Duration::ZERO);
            let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
            assert!(result.status.is_success(), "{result:?}");
            let events = events();
            let tid = events
                .iter()
                .find(|e| e.name == "prefilter_thread")
                .expect("marker")
                .tid;
            // Cache hits open no span: one span per sweep the session ran.
            let sweeps = events
                .iter()
                .filter(|e| e.name == "prefilter_sweep" && e.tid == tid)
                .count() as u64;
            assert!(sweeps > 0);
            assert_eq!(sweeps, result.prefilter.sweeps, "{:?}", result.prefilter);
        });
    }

    #[test]
    fn chrome_json_is_well_formed() {
        with_recorder(|| {
            {
                let _span = span("phase_a");
            }
            let json = chrome_trace_json();
            assert!(json.starts_with("{\"traceEvents\":["));
            assert!(json.contains("\"name\":\"phase_a\""));
            assert!(json.contains("\"ph\":\"X\""));
            assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        });
    }

    #[test]
    fn quantiles_cover_the_distribution() {
        let mut histogram = PhaseHistogram::default();
        for us in [1u64, 2, 4, 100, 10_000] {
            histogram.record(us);
        }
        assert_eq!(histogram.count, 5);
        assert_eq!(histogram.total_us, 10_107);
        assert_eq!(histogram.max_us, 10_000);
        assert!(histogram.quantile_upper_us(0.99) >= 10_000 / 2);
        assert!(histogram.quantile_upper_us(0.5) <= 128);
        assert_eq!(PhaseHistogram::default().quantile_upper_us(0.5), 0);
    }
}
