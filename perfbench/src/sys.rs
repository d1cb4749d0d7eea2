//! Process measurements and the small statistics the workloads share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` gate above), and `who`
    // is one of the two constants getrusage(2) accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    usage
}

fn cpu_of(usage: &RUsage) -> f64 {
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(usage.utime) + tv(usage.stime)
}

/// User plus system CPU seconds of this process (all threads).
fn cpu_self_s() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User plus system CPU seconds of every child this process has reaped.
pub fn cpu_children_s() -> f64 {
    cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Own plus reaped-children CPU seconds.
pub fn cpu_total_s() -> f64 {
    cpu_self_s() + cpu_children_s()
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of the 99th, 95th, 90th and 75th percentiles (nearest rank)
/// that leaves at least ten samples beyond it, as `(percentile, value)`.
/// With fewer than 40 samples no tail exists and the median is returned,
/// labelled 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in [99.0, 95.0, 90.0, 75.0] {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, sorted[rank - 1]);
        }
    }
    (50.0, median(values))
}

/// Set-ups timed per run: at least this many, and more until
/// [`SETUP_SECONDS`] of set-up have been timed.
const MIN_SETUPS: usize = 9;
/// Set-up time a run spends at least, so that a set-up of a few
/// milliseconds is timed dozens of times and its median is steady.
const SETUP_SECONDS: f64 = 1.0;

/// Whether a run with set-up times `setups` so far should set up again.
/// `setup_s` is the median of them all.
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_SECONDS
}

/// Runs `pass` (which returns a value and its measured wall seconds) until
/// at least `budget` seconds have been spent, and at least twice, so that
/// every median has two samples or more.
pub fn repeat<T>(budget: f64, mut pass: impl FnMut() -> (T, f64)) -> Vec<(T, f64)> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < budget {
        passes.push(pass());
    }
    passes
}

/// A per-attack budget: sets the attack's interrupt flag unless disarmed
/// first, so a runaway case ends as an interrupted (unsolved) record
/// instead of hanging the run.
pub struct Watchdog {
    stop: Sender<()>,
    thread: JoinHandle<()>,
    fired: Arc<AtomicBool>,
}

impl Watchdog {
    /// Arms a watchdog that raises `flag` after `budget`.
    pub fn arm(flag: Arc<AtomicBool>, budget: Duration) -> Watchdog {
        let (stop, stopped) = mpsc::channel::<()>();
        let fired = Arc::new(AtomicBool::new(false));
        let fired_in = Arc::clone(&fired);
        let thread = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(budget) {
                fired_in.store(true, Ordering::SeqCst);
                flag.store(true, Ordering::SeqCst);
            }
        });
        Watchdog {
            stop,
            thread,
            fired,
        }
    }

    /// Disarms the watchdog; returns `true` if the budget had already run
    /// out.
    pub fn disarm(self) -> bool {
        // The receiver only disappears once the thread has fired, so a
        // failed send just means the budget ran out first.
        let _ = self.stop.send(());
        self.thread.join().expect("watchdog thread never panics");
        self.fired.load(Ordering::SeqCst)
    }
}

/// splitmix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a of a name, to give every circuit its own seed stream.
pub fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), (75.0, 30.0));
        let hundred_ten: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(tail(&hundred_ten), (90.0, 99.0));
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&seven), (50.0, 4.0));
    }

    #[test]
    fn watchdog_fires_only_after_its_budget() {
        let flag = Arc::new(AtomicBool::new(false));
        let quiet = Watchdog::arm(Arc::clone(&flag), Duration::from_secs(60));
        assert!(!quiet.disarm());
        assert!(!flag.load(Ordering::SeqCst));
        let loud = Watchdog::arm(Arc::clone(&flag), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(50));
        assert!(loud.disarm());
        assert!(flag.load(Ordering::SeqCst));
    }
}
