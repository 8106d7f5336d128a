//! Bounded retransmit with deterministic jittered backoff for the Link
//! layer.
//!
//! Photon's Link (§4) must absorb transient corruption and loss: a result
//! frame whose CRC check fails — or that never arrives — is re-requested
//! instead of failing the round. This module simulates that delivery loop
//! deterministically: corruption and loss are injected by caller-supplied
//! schedules (normally seeded fault-plan / network-model entries from the
//! federation engine), every corrupted attempt is *actually* decoded so
//! the CRC path is exercised, and the retry budget, capped exponential
//! backoff, seeded jitter and per-delivery timeout are fixed policy, so a
//! chaos run replays bit-identically.

use crate::{VerifiedFrame, WireError};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Retransmission policy for a Link endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransmitPolicy {
    /// Retransmissions allowed after the first attempt (so a frame is
    /// transmitted at most `1 + max_retries` times).
    pub max_retries: u32,
    /// Backoff before retry `n` (1-based) is `backoff_base_ms << (n - 1)`,
    /// simulated wall-clock only — nothing sleeps.
    pub backoff_base_ms: u64,
    /// Jitter as a percentage of each backoff: retry `n` backs off
    /// `backoff_ms(n) + U[0, backoff_ms(n) * jitter_pct / 100]`, the draw
    /// keyed off the delivery seed. `0` (the default) disables jitter and
    /// reproduces the legacy fixed schedule bit-for-bit.
    #[serde(default)]
    pub jitter_pct: u32,
    /// Cap on any single (jittered) backoff in simulated ms; `0` means
    /// uncapped.
    #[serde(default)]
    pub max_backoff_ms: u64,
    /// Per-delivery timeout over accumulated simulated time (latency of
    /// every attempt plus all backoff) in ms; `0` disables it. A delivery
    /// that would exceed the timeout gives up even with retries left.
    #[serde(default)]
    pub timeout_ms: u64,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            max_retries: 3,
            backoff_base_ms: 10,
            jitter_pct: 0,
            max_backoff_ms: 0,
            timeout_ms: 0,
        }
    }
}

impl RetransmitPolicy {
    /// Simulated backoff before the `n`-th retry (1-based, deterministic
    /// exponential, saturating), before jitter and capping.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        self.backoff_base_ms.saturating_mul(
            1u64.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u64::MAX),
        )
    }

    /// Backoff before the `n`-th retry with seeded jitter applied and the
    /// `max_backoff_ms` cap enforced. With `jitter_pct == 0` this equals
    /// [`RetransmitPolicy::backoff_ms`] (modulo the cap), so legacy
    /// configurations replay unchanged.
    pub(crate) fn jittered_backoff_ms(&self, retry: u32, seed: u64) -> u64 {
        let base = self.backoff_ms(retry);
        let jittered = if self.jitter_pct == 0 {
            base
        } else {
            let span = base
                .saturating_mul(self.jitter_pct as u64)
                .saturating_div(100)
                .saturating_add(1);
            // One splitmix-style mix of (seed, retry): deterministic,
            // uniform enough for backoff de-synchronisation.
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(retry as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            base.saturating_add((z ^ (z >> 31)) % span)
        };
        if self.max_backoff_ms > 0 {
            jittered.min(self.max_backoff_ms)
        } else {
            jittered
        }
    }
}

/// Delivery failed even after exhausting the retransmit budget (or the
/// per-delivery timeout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkExhausted {
    /// Total transmission attempts made.
    pub attempts: u32,
    /// The decode error from the final attempt.
    pub last_error: WireError,
    /// `true` when the per-delivery timeout fired before the retry budget
    /// was exhausted.
    pub timed_out: bool,
}

impl fmt::Display for LinkExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timed_out {
            write!(
                f,
                "link delivery timed out after {} attempt(s): {}",
                self.attempts, self.last_error
            )
        } else {
            write!(
                f,
                "link delivery failed after {} attempt(s): {}",
                self.attempts, self.last_error
            )
        }
    }
}

impl std::error::Error for LinkExhausted {}

/// What one delivery cost: attempts, total bytes pushed on the wire
/// (every attempt re-sends the whole frame), accumulated simulated
/// backoff and in-flight latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Transmission attempts (1 = clean first try).
    pub attempts: u32,
    /// Bytes transmitted across all attempts.
    pub wire_bytes: u64,
    /// Simulated milliseconds spent backing off between attempts.
    pub backoff_ms: u64,
    /// Simulated milliseconds spent in flight (per-attempt link latency
    /// summed over every attempt; 0 without a network model).
    pub latency_ms: u64,
}

/// Flips one payload bit of `frame`, position derived deterministically
/// from `seed` — the corruption the CRC is designed to catch. Frames too
/// short to carry a payload get one of their header bytes flipped through
/// the same position arithmetic; empty frames pass through untouched
/// (there is nothing to corrupt, and `decode_frame` already rejects them
/// as truncated).
pub(crate) fn corrupt_frame(frame: &Bytes, seed: u64) -> Bytes {
    let mut raw = frame.to_vec();
    if raw.is_empty() {
        return Bytes::new();
    }
    // Header is 24 bytes; corrupt within the payload when there is one,
    // otherwise anywhere in the (short) frame.
    let (lo, span) = if raw.len() > 24 {
        (24, raw.len() - 24)
    } else {
        (0, raw.len())
    };
    let pos = lo + (seed as usize) % span;
    let bit = (seed >> 32) % 8;
    raw[pos] ^= 1 << bit;
    Bytes::from(raw)
}

/// Delivers `frame` across a lossy link: attempt `a` (0-based) transmits a
/// corrupted copy whenever `a < corrupt_first`, the receiver decodes (CRC
/// check) and requests a retransmission on failure, up to
/// `policy.max_retries` times.
///
/// `seed` keys the injected bit flips so a replay corrupts the same bits.
/// Returns the first frame that verified cleanly plus the delivery cost.
///
/// # Errors
/// Returns [`LinkExhausted`] when every allowed attempt was corrupted.
pub fn deliver(
    frame: &Bytes,
    corrupt_first: u32,
    seed: u64,
    policy: &RetransmitPolicy,
) -> (Result<VerifiedFrame, LinkExhausted>, DeliveryReport) {
    deliver_chaos(frame, corrupt_first, 0, 0, seed, policy)
}

/// Delivers `frame` across a chaotic link: the first `lost_first` attempts
/// vanish in flight (the receiver times out and requests a retransmit),
/// the next `corrupt_first` attempts arrive corrupted and fail the CRC
/// check, and each attempt costs `latency_ms` of simulated in-flight time.
/// Retries follow `policy`'s capped, jittered exponential backoff, and the
/// per-delivery timeout (when set) bounds the total simulated time spent.
///
/// `deliver` is the special case `lost_first == 0, latency_ms == 0`.
///
/// # Errors
/// Returns [`LinkExhausted`] when every allowed attempt failed or the
/// timeout fired first.
pub fn deliver_chaos(
    frame: &Bytes,
    corrupt_first: u32,
    lost_first: u32,
    latency_ms: u64,
    seed: u64,
    policy: &RetransmitPolicy,
) -> (Result<VerifiedFrame, LinkExhausted>, DeliveryReport) {
    let mut link_span = photon_trace::span(photon_trace::Phase::LinkDeliver);
    let (result, report) =
        deliver_inner(frame, corrupt_first, lost_first, latency_ms, seed, policy);
    link_span.set_arg("attempts", report.attempts as u64);
    link_span.set_arg("wire_bytes", report.wire_bytes);
    link_span.set_sim_dur_us(
        report
            .backoff_ms
            .saturating_add(report.latency_ms)
            .saturating_mul(1_000),
    );
    for retry in 1..report.attempts {
        photon_trace::instant(
            photon_trace::Phase::LinkRetransmit,
            "link_retransmit",
            &[
                ("retry", retry as u64),
                ("backoff_ms", policy.jittered_backoff_ms(retry, seed)),
            ],
        );
    }
    (result, report)
}

fn deliver_inner(
    frame: &Bytes,
    corrupt_first: u32,
    lost_first: u32,
    latency_ms: u64,
    seed: u64,
    policy: &RetransmitPolicy,
) -> (Result<VerifiedFrame, LinkExhausted>, DeliveryReport) {
    let mut report = DeliveryReport::default();
    let mut last_error = WireError::Truncated;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            let backoff = policy.jittered_backoff_ms(attempt, seed);
            // A retry that would blow the per-delivery timeout gives up
            // before waiting out the backoff or re-sending.
            let elapsed = report
                .backoff_ms
                .saturating_add(backoff)
                .saturating_add(report.latency_ms)
                .saturating_add(latency_ms);
            if policy.timeout_ms > 0 && elapsed > policy.timeout_ms {
                return (
                    Err(LinkExhausted {
                        attempts: report.attempts,
                        last_error,
                        timed_out: true,
                    }),
                    report,
                );
            }
            report.backoff_ms += backoff;
        }
        report.attempts += 1;
        report.wire_bytes += frame.len() as u64;
        report.latency_ms = report.latency_ms.saturating_add(latency_ms);
        if attempt < lost_first {
            // Lost in flight: nothing reaches the receiver; its timeout
            // triggers the retransmit request.
            last_error = WireError::Truncated;
            continue;
        }
        let sent = if attempt < lost_first + corrupt_first {
            corrupt_frame(frame, seed.wrapping_add(attempt as u64))
        } else {
            frame.clone()
        };
        // Receiver-side integrity check: a corrupted frame MUST fail here;
        // anything that verifies is delivered as-is, carrying the proof so
        // the receiver decodes it without a second CRC pass.
        match VerifiedFrame::check(sent) {
            Ok(frame) => return (Ok(frame), report),
            Err(e) => last_error = e,
        }
    }
    (
        Err(LinkExhausted {
            attempts: report.attempts,
            last_error,
            timed_out: false,
        }),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_frame, encode_frame};

    fn frame() -> Bytes {
        encode_frame(b"pseudo-gradient payload bytes", false)
    }

    #[test]
    fn clean_delivery_is_one_attempt() {
        let f = frame();
        let (out, report) = deliver(&f, 0, 7, &RetransmitPolicy::default());
        assert_eq!(*out.unwrap(), f);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.wire_bytes, f.len() as u64);
        assert_eq!(report.backoff_ms, 0);
    }

    #[test]
    fn corruption_within_budget_recovers() {
        let f = frame();
        let policy = RetransmitPolicy::default(); // 3 retries
        let (out, report) = deliver(&f, 2, 7, &policy);
        assert_eq!(*out.unwrap(), f);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.wire_bytes, 3 * f.len() as u64);
        // Backoff 10ms then 20ms.
        assert_eq!(report.backoff_ms, 10 + 20);
    }

    #[test]
    fn budget_exhaustion_reports_the_crc_error() {
        let f = frame();
        let policy = RetransmitPolicy {
            max_retries: 2,
            backoff_base_ms: 5,
            ..RetransmitPolicy::default()
        };
        let (out, report) = deliver(&f, 99, 7, &policy);
        let err = out.unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(matches!(err.last_error, WireError::BadChecksum { .. }));
        assert!(!err.timed_out);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.backoff_ms, 5 + 10);
        assert!(err.to_string().contains("3 attempt(s)"));
    }

    #[test]
    fn delivery_is_deterministic() {
        let f = frame();
        let policy = RetransmitPolicy::default();
        let a = deliver(&f, 2, 99, &policy);
        let b = deliver(&f, 2, 99, &policy);
        assert_eq!(a.0.is_ok(), b.0.is_ok());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn corrupt_frame_always_fails_decode() {
        let f = frame();
        for seed in 0..64u64 {
            let bad = corrupt_frame(&f, seed);
            assert_ne!(bad, f);
            assert!(decode_frame(bad).is_err(), "seed {seed} slipped through");
        }
    }

    #[test]
    fn corrupt_frame_handles_empty_and_short_frames() {
        // 0–32-byte frames: no underflow, no panic; non-empty frames must
        // actually differ from the input.
        for len in 0usize..=32 {
            let raw = Bytes::from(vec![0xA5u8; len]);
            for seed in [0u64, 1, 23, u64::MAX, 0x1234_5678_9abc_def0] {
                let out = corrupt_frame(&raw, seed);
                assert_eq!(out.len(), raw.len());
                if len == 0 {
                    assert_eq!(out, raw, "empty frames pass through");
                } else {
                    assert_ne!(out, raw, "len {len} seed {seed} unchanged");
                }
            }
        }
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let p = RetransmitPolicy {
            max_retries: 80,
            backoff_base_ms: 10,
            ..RetransmitPolicy::default()
        };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(5), 160);
        assert_eq!(p.backoff_ms(70), u64::MAX); // shift overflow saturates
    }

    #[test]
    fn jitter_is_seeded_bounded_and_off_by_default() {
        let plain = RetransmitPolicy::default();
        for retry in 1..6 {
            assert_eq!(
                plain.jittered_backoff_ms(retry, 42),
                plain.backoff_ms(retry),
                "jitter_pct 0 must reproduce the legacy schedule"
            );
        }
        let jittery = RetransmitPolicy {
            jitter_pct: 50,
            ..RetransmitPolicy::default()
        };
        let mut saw_jitter = false;
        for seed in 0..32u64 {
            for retry in 1..5 {
                let base = jittery.backoff_ms(retry);
                let j = jittery.jittered_backoff_ms(retry, seed);
                assert!(j >= base && j <= base + base / 2 + 1);
                assert_eq!(j, jittery.jittered_backoff_ms(retry, seed));
                saw_jitter |= j != base;
            }
        }
        assert!(saw_jitter, "50% jitter never moved a backoff");
    }

    #[test]
    fn backoff_cap_clamps_the_schedule() {
        let p = RetransmitPolicy {
            max_retries: 10,
            backoff_base_ms: 10,
            jitter_pct: 25,
            max_backoff_ms: 35,
            timeout_ms: 0,
        };
        for retry in 1..10 {
            assert!(p.jittered_backoff_ms(retry, 7) <= 35);
        }
        assert_eq!(p.jittered_backoff_ms(9, 7), 35);
    }

    #[test]
    fn lost_attempts_consume_budget_then_recover() {
        let f = frame();
        let policy = RetransmitPolicy::default();
        let (out, report) = deliver_chaos(&f, 0, 2, 30, 7, &policy);
        assert_eq!(*out.unwrap(), f);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.latency_ms, 90, "every attempt pays link latency");
        assert_eq!(report.backoff_ms, 10 + 20);
    }

    #[test]
    fn loss_and_corruption_chain_before_the_clean_attempt() {
        let f = frame();
        let policy = RetransmitPolicy {
            max_retries: 4,
            ..RetransmitPolicy::default()
        };
        let (out, report) = deliver_chaos(&f, 1, 1, 0, 7, &policy);
        assert_eq!(*out.unwrap(), f);
        assert_eq!(report.attempts, 3, "1 lost + 1 corrupt + 1 clean");
    }

    #[test]
    fn per_delivery_timeout_fires_before_budget_exhaustion() {
        let f = frame();
        let policy = RetransmitPolicy {
            max_retries: 50,
            backoff_base_ms: 10,
            jitter_pct: 0,
            max_backoff_ms: 0,
            timeout_ms: 100,
        };
        let (out, report) = deliver_chaos(&f, 99, 0, 0, 7, &policy);
        let err = out.unwrap_err();
        assert!(err.timed_out);
        assert!(err.to_string().contains("timed out"));
        // Backoff 10+20+40 = 70 fits; +80 would exceed 100.
        assert_eq!(report.attempts, 4);
        assert!(report.backoff_ms <= policy.timeout_ms);
    }

    #[test]
    fn chaos_delivery_is_deterministic() {
        let f = frame();
        let policy = RetransmitPolicy {
            jitter_pct: 30,
            timeout_ms: 500,
            ..RetransmitPolicy::default()
        };
        let a = deliver_chaos(&f, 1, 1, 25, 99, &policy);
        let b = deliver_chaos(&f, 1, 1, 25, 99, &policy);
        assert_eq!(a.0.is_ok(), b.0.is_ok());
        assert_eq!(a.1, b.1);
    }
}
