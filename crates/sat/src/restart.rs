//! Restart scheduling: Luby sequences and Glucose-style EMA forcing/blocking.
//!
//! Two pacing modes coexist behind [`RestartMode`]:
//!
//! * **Luby** — the classic budgeted scheme: the `i`-th run gets
//!   `restart_base * luby(i)` conflicts, then the solver restarts
//!   unconditionally.  Deterministic and instance-agnostic.
//! * **Ema** — Glucose-lineage dynamic restarts: a fast and a slow
//!   exponential moving average of learnt-clause LBDs are maintained per
//!   conflict; when the fast average exceeds the forcing threshold times the
//!   slow one the search is judged to be producing worse-than-usual clauses
//!   and a restart is forced — unless the trail has grown well past its own
//!   long-run average (`RESTART_BLK`), which signals the solver is deep in
//!   a promising assignment and the restart is *blocked* instead.
//!
//! The EMAs use a bias-corrected warm-up (the smoothing factor starts at 1
//! and halves until it reaches its target), so the averages are meaningful
//! within a few conflicts of a fresh solve instead of slowly drifting up
//! from zero — the same trick CaDiCaL uses, equivalent in effect to the
//! bounded `LbdQueue` window of Glucose/gipsat.

use crate::luby::luby;

/// Trail-blocking threshold: a forced restart is suppressed while the trail
/// is more than this multiple of its long-run average (Glucose blocks at
/// 1.4×), since a deep trail suggests the search is close to a model.
const RESTART_BLK: f64 = 1.4;
/// Minimum conflicts between EMA restart decisions: the warm-up of the fast
/// EMA after each restart and a floor on run length (Glucose's 50-entry
/// `LbdQueue` window).
const RESTART_STEP: u64 = 50;

/// Restart pacing discipline of a [`crate::Solver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RestartMode {
    /// Glucose-style dynamic restarts from fast/slow LBD EMAs, with
    /// trail-size blocking (the default).
    #[default]
    Ema,
    /// Classic Luby-sequence budgets (`restart_base * luby(i)` conflicts for
    /// the `i`-th run).  Reached through adaptive strategy switching: an
    /// instance classified [`crate::SearchStrategy::HighSuccessive`] switches
    /// to Luby, whose schedule is immune to the LBD noise of long conflict
    /// bursts.
    Luby,
}

/// Exponential moving average with warm-up bias correction.
#[derive(Clone, Copy, Debug)]
struct Ema {
    value: f64,
    /// Target smoothing factor.
    alpha: f64,
    /// Current smoothing factor: starts at 1.0 and halves toward `alpha`, so
    /// early samples dominate instead of being averaged against the zero
    /// initial value.
    beta: f64,
}

impl Ema {
    fn new(alpha: f64) -> Ema {
        Ema {
            value: 0.0,
            alpha,
            beta: 1.0,
        }
    }

    fn update(&mut self, sample: f64) {
        self.value += self.beta * (sample - self.value);
        if self.beta > self.alpha {
            self.beta *= 0.5;
            if self.beta < self.alpha {
                self.beta = self.alpha;
            }
        }
    }

    fn get(&self) -> f64 {
        self.value
    }
}

/// Smoothing factor of the fast (recent-window) LBD average; `1/32` tracks
/// roughly the last few dozen conflicts, the scale of Glucose's 50-entry
/// `LbdQueue`.
const ALPHA_FAST: f64 = 1.0 / 32.0;
/// Smoothing factor of the slow (long-run) LBD and trail averages.
const ALPHA_SLOW: f64 = 1.0 / 4096.0;

/// Verdict of [`RestartState::check`] at a decision point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RestartDecision {
    /// Keep searching.
    Continue,
    /// Restart now (Luby budget exhausted).
    RestartLuby,
    /// Restart now (fast LBD EMA crossed the forcing threshold).
    RestartEma,
    /// The forcing threshold fired but the trail is deep enough that the
    /// restart was blocked; the wait counter restarts.
    Blocked,
}

/// Per-solve restart pacing state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RestartState {
    mode: RestartMode,
    /// Luby mode: index into the Luby sequence (restarts taken this solve).
    luby_index: u64,
    /// Luby mode: conflict budget of the current run.
    budget: u64,
    /// Conflicts since the last restart (or block).
    conflicts_here: u64,
    /// Fast-moving average of learnt-clause LBDs.
    fast: Ema,
    /// Slow-moving average of learnt-clause LBDs.
    slow: Ema,
    /// Slow-moving average of the trail size at conflicts.
    trail: Ema,
}

impl Default for RestartState {
    fn default() -> RestartState {
        RestartState::new(RestartMode::default(), 100)
    }
}

impl RestartState {
    pub(crate) fn new(mode: RestartMode, restart_base: u64) -> RestartState {
        RestartState {
            mode,
            luby_index: 0,
            budget: restart_base * luby(0),
            conflicts_here: 0,
            fast: Ema::new(ALPHA_FAST),
            slow: Ema::new(ALPHA_SLOW),
            trail: Ema::new(ALPHA_SLOW),
        }
    }

    /// Re-arms the schedule at the start of a solve call, keeping nothing but
    /// the mode: each query of an incremental session paces itself.
    pub(crate) fn reset_for_solve(&mut self, mode: RestartMode, restart_base: u64) {
        *self = RestartState::new(mode, restart_base);
    }

    /// Feeds one conflict into the averages.
    pub(crate) fn on_conflict(&mut self, lbd: u32, trail_len: usize) {
        self.conflicts_here += 1;
        if self.mode == RestartMode::Ema {
            self.fast.update(f64::from(lbd));
            self.slow.update(f64::from(lbd));
            self.trail.update(trail_len as f64);
        }
    }

    /// Decides, at a decision point, whether to restart, forcing when the
    /// fast LBD EMA exceeds `restart_thr` times the slow one.  Called once
    /// per decision, so a [`RestartDecision::Blocked`] verdict delays the
    /// next forcing attempt by a full `RESTART_STEP` window rather than
    /// re-firing immediately.
    pub(crate) fn check(&mut self, trail_len: usize, restart_thr: f64) -> RestartDecision {
        match self.mode {
            RestartMode::Luby => {
                if self.conflicts_here >= self.budget {
                    RestartDecision::RestartLuby
                } else {
                    RestartDecision::Continue
                }
            }
            RestartMode::Ema => {
                if self.conflicts_here < RESTART_STEP {
                    return RestartDecision::Continue;
                }
                if self.fast.get() <= restart_thr * self.slow.get() {
                    return RestartDecision::Continue;
                }
                if trail_len as f64 > RESTART_BLK * self.trail.get() {
                    self.conflicts_here = 0;
                    return RestartDecision::Blocked;
                }
                RestartDecision::RestartEma
            }
        }
    }

    /// Acknowledges a restart: resets the conflict window and, in Luby mode,
    /// advances to the next budget.
    pub(crate) fn on_restart(&mut self, restart_base: u64) {
        self.conflicts_here = 0;
        if self.mode == RestartMode::Luby {
            self.luby_index += 1;
            self.budget = restart_base * luby(self.luby_index);
        }
    }

    /// Switches pacing mode mid-search (adaptive strategy switching).
    pub(crate) fn set_mode(&mut self, mode: RestartMode, restart_base: u64) {
        if self.mode != mode {
            self.mode = mode;
            self.conflicts_here = 0;
            self.luby_index = 0;
            self.budget = restart_base * luby(0);
        }
    }

    /// Fast LBD EMA ×1000, as an integer gauge for [`crate::SolverStats`].
    pub(crate) fn ema_fast_milli(&self) -> u64 {
        (self.fast.get() * 1000.0).max(0.0) as u64
    }

    /// Slow LBD EMA ×1000, as an integer gauge for [`crate::SolverStats`].
    pub(crate) fn ema_slow_milli(&self) -> u64 {
        (self.slow.get() * 1000.0).max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The solver's default forcing threshold.
    const THR: f64 = 1.25;

    #[test]
    fn ema_warmup_tracks_first_samples_quickly() {
        let mut e = Ema::new(1.0 / 4096.0);
        e.update(5.0);
        assert_eq!(e.get(), 5.0, "first sample is taken verbatim (beta = 1)");
        e.update(7.0);
        assert!(e.get() > 5.5, "warm-up keeps early samples influential");
    }

    #[test]
    fn luby_mode_restarts_on_budget() {
        let mut r = RestartState::new(RestartMode::Luby, 2);
        assert_eq!(r.check(0, THR), RestartDecision::Continue);
        r.on_conflict(3, 10);
        r.on_conflict(3, 10);
        assert_eq!(r.check(0, THR), RestartDecision::RestartLuby);
        r.on_restart(2);
        assert_eq!(r.check(0, THR), RestartDecision::Continue);
    }

    #[test]
    fn ema_mode_forces_on_lbd_spike_and_blocks_on_deep_trail() {
        let mut r = RestartState::new(RestartMode::Ema, 100);
        // A long calm stretch establishes a low slow average...
        for _ in 0..RESTART_STEP {
            r.on_conflict(2, 10);
        }
        assert_eq!(r.check(10, THR), RestartDecision::Continue);
        // ...then a burst of terrible clauses spikes the fast average.
        for _ in 0..RESTART_STEP {
            r.on_conflict(40, 10);
        }
        assert_eq!(r.check(10, THR), RestartDecision::RestartEma);
        // The same spike with a much deeper trail than average is blocked.
        for _ in 0..RESTART_STEP {
            r.on_conflict(40, 10);
        }
        assert_eq!(r.check(10_000, THR), RestartDecision::Blocked);
        assert_eq!(
            r.check(10_000, THR),
            RestartDecision::Continue,
            "blocking resets the wait window"
        );
    }
}
