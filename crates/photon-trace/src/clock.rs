//! The trace clock: simulated walltime (deterministic replay) or a real
//! monotonic clock. Each [`crate::Recorder`] has its own; the free
//! functions reach the calling thread's.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::recorder::with_current;

/// Which clock stamps trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Timestamps are the simulated federation walltime last published
    /// through [`set_sim_time_us`] — a pure function of the round index,
    /// so traces replay bit-identically. This is the default for every
    /// simulation driver.
    #[default]
    Sim,
    /// Timestamps are real microseconds since tracing was enabled.
    Monotonic,
}

/// A recorder's clock: the mode, the published simulated walltime and the
/// monotonic epoch.
pub(crate) struct Clock {
    sim_mode: AtomicBool,
    sim_now_us: AtomicU64,
    epoch: OnceLock<Instant>,
}

impl Clock {
    pub(crate) fn new() -> Self {
        Clock {
            sim_mode: AtomicBool::new(true),
            sim_now_us: AtomicU64::new(0),
            epoch: OnceLock::new(),
        }
    }

    pub(crate) fn set_mode(&self, mode: ClockMode) {
        self.sim_mode
            .store(mode == ClockMode::Sim, Ordering::SeqCst);
        if mode == ClockMode::Monotonic {
            // Anchor the epoch when the clock is first made monotonic.
            let _ = self.epoch.get_or_init(Instant::now);
        }
    }

    pub(crate) fn is_sim(&self) -> bool {
        self.sim_mode.load(Ordering::Relaxed)
    }

    pub(crate) fn set_sim_time_us(&self, us: u64) {
        self.sim_now_us.store(us, Ordering::SeqCst);
    }

    pub(crate) fn now_us(&self) -> u64 {
        if self.is_sim() {
            self.sim_now_us.load(Ordering::Relaxed)
        } else {
            self.epoch.get_or_init(Instant::now).elapsed().as_micros() as u64
        }
    }
}

/// Publishes the current simulated walltime in microseconds to the calling
/// thread's recorder. Federation drivers call this at every round boundary
/// with `SimClock::now_ms(round) * 1000`; all events that recorder takes
/// until the next update are stamped with this value.
pub fn set_sim_time_us(us: u64) {
    with_current(|recorder| recorder.clock.set_sim_time_us(us));
}

/// The timestamp for an event the calling thread records right now, per
/// its recorder's mode: the published simulated walltime under
/// [`ClockMode::Sim`], real microseconds since tracing was enabled under
/// [`ClockMode::Monotonic`]. Distributed callers (photon-net) stamp
/// wire-frame trace contexts with this so the receiver can estimate a
/// cross-process clock offset.
pub fn now_us() -> u64 {
    with_current(|recorder| recorder.clock.now_us())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_is_what_was_published() {
        let clock = Clock::new();
        clock.set_sim_time_us(42_000);
        assert_eq!(clock.now_us(), 42_000);
    }
}
