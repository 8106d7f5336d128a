//! Capped exponential reconnect backoff with deterministic jitter.

use std::time::Duration;

/// Reconnect pacing for a client whose coordinator link dropped: the
/// delay doubles per consecutive failure up to a cap, with a
/// deterministic jitter (derived from the attempt counter, not a clock)
/// so simulated runs stay bit-identical while still de-synchronizing a
/// thundering herd of reconnecting clients.
#[derive(Debug, Clone)]
pub(crate) struct ReconnectBackoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
}

impl ReconnectBackoff {
    /// A policy starting at `base_ms` and never exceeding `cap_ms` per
    /// attempt (both clamped to at least 1 ms).
    pub fn new(base_ms: u64, cap_ms: u64) -> ReconnectBackoff {
        let base_ms = base_ms.max(1);
        ReconnectBackoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            attempt: 0,
        }
    }

    /// Delay before the next connection attempt, advancing the attempt
    /// counter. The jitter subtracts up to a quarter of the nominal
    /// delay so retries spread out instead of aligning.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let nominal = self
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.cap_ms)
            .max(1);
        let jitter_span = (nominal / 4).max(1);
        let jitter = splitmix(u64::from(self.attempt)) % jitter_span;
        Duration::from_millis(nominal - jitter)
    }

    /// Attempts made since the last [`ReconnectBackoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Resets after a successful connection: the next failure starts
    /// again from the base delay.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// SplitMix64 finalizer — the same cheap avalanche the session tokens
/// use; good enough to decorrelate consecutive attempt counters.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let mut b = ReconnectBackoff::new(100, 1_000);
        let delays: Vec<u64> = (0..8).map(|_| b.next_delay().as_millis() as u64).collect();
        // Nominal sequence 100, 200, 400, 800, 1000, 1000... with up to
        // 25% shaved off by jitter.
        for (i, &d) in delays.iter().enumerate() {
            let nominal = (100u64 << i).min(1_000);
            assert!(d <= nominal, "attempt {i}: {d} > {nominal}");
            assert!(d > nominal - nominal / 4 - 1, "attempt {i}: {d} too small");
        }
        assert!(delays[4] >= 751 && delays[4] <= 1_000);
    }

    #[test]
    fn reset_restarts_from_base() {
        let mut b = ReconnectBackoff::new(50, 400);
        for _ in 0..5 {
            b.next_delay();
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay().as_millis() as u64 <= 50);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = ReconnectBackoff::new(100, 5_000);
        let mut b = ReconnectBackoff::new(100, 5_000);
        for _ in 0..10 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = ReconnectBackoff::new(u64::MAX / 2, u64::MAX);
        for _ in 0..80 {
            let d = b.next_delay();
            assert!(d.as_millis() > 0);
        }
    }
}
