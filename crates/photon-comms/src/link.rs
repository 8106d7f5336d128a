//! Bounded retransmit with deterministic exponential backoff for the Link
//! layer.
//!
//! Photon's Link (§4) must absorb transient corruption: a result frame
//! whose CRC check fails is re-requested instead of failing the round.
//! This module simulates that delivery loop deterministically: corruption
//! is injected by a caller-supplied count (normally a seeded fault-plan
//! entry from the federation engine), every corrupted attempt is
//! *actually* decoded so the CRC path is exercised, and the retry budget
//! and exponential backoff are fixed policy, so a chaos run replays
//! bit-identically.

use crate::{VerifiedFrame, WireError};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulated backoff before the first retry; retry `n` (1-based) backs
/// off `BACKOFF_BASE_MS << (n - 1)`, simulated wall-clock only — nothing
/// sleeps.
const BACKOFF_BASE_MS: u64 = 10;

/// Retransmission policy for a Link endpoint. Configs that still carry the
/// `backoff_base_ms`, `max_backoff_ms`, `jitter_pct` and `timeout_ms` keys
/// load with those keys ignored: the backoff schedule is fixed, and a real
/// deployment bounds a delivery with the client's reconnect backoff and
/// the coordinator's round timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransmitPolicy {
    /// Retransmissions allowed after the first attempt (so a frame is
    /// transmitted at most `1 + max_retries` times).
    pub max_retries: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy { max_retries: 3 }
    }
}

/// Simulated backoff before the `n`-th retry (1-based, deterministic
/// exponential, saturating).
fn backoff_ms(retry: u32) -> u64 {
    BACKOFF_BASE_MS.saturating_mul(
        1u64.checked_shl(retry.saturating_sub(1))
            .unwrap_or(u64::MAX),
    )
}

/// Delivery failed even after exhausting the retransmit budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkExhausted {
    /// Total transmission attempts made.
    pub attempts: u32,
    /// The decode error from the final attempt.
    pub last_error: WireError,
}

impl fmt::Display for LinkExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link delivery failed after {} attempt(s): {}",
            self.attempts, self.last_error
        )
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

/// Delivers `frame` across a corrupting link: attempt `a` (0-based)
/// transmits a corrupted copy whenever `a < corrupt_first`, the receiver
/// decodes (CRC check) and requests a retransmission on failure, up to
/// `policy.max_retries` times. The delivery is traced ([`trace_delivery`]).
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
    let (result, report) = deliver_untraced(frame, corrupt_first, 0, seed, policy);
    trace_delivery(&report);
    (result, report)
}

/// Emits what a delivery did as trace events on the calling thread: one
/// `link_deliver` span (attempts, wire bytes, simulated backoff plus
/// in-flight time) and a `link_retransmit` instant per retry. Kept apart
/// from [`deliver_untraced`] so a receiver can run the delivery on one
/// thread and trace it, in a fixed order, on another.
pub fn trace_delivery(report: &DeliveryReport) {
    let mut link_span = photon_trace::span(photon_trace::Phase::LinkDeliver);
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
            &[("retry", retry as u64), ("backoff_ms", backoff_ms(retry))],
        );
    }
}

/// Delivers `frame` across a corrupting link, untraced: the first
/// `corrupt_first` attempts arrive corrupted and fail the CRC check, and
/// each attempt costs `latency_ms` of simulated in-flight time. Retries
/// follow the exponential backoff. [`trace_delivery`] emits what it did.
///
/// # Errors
/// Returns [`LinkExhausted`] when every allowed attempt failed.
pub fn deliver_untraced(
    frame: &Bytes,
    corrupt_first: u32,
    latency_ms: u64,
    seed: u64,
    policy: &RetransmitPolicy,
) -> (Result<VerifiedFrame, LinkExhausted>, DeliveryReport) {
    let mut report = DeliveryReport::default();
    let mut last_error = WireError::Truncated;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            report.backoff_ms += backoff_ms(attempt);
        }
        report.attempts += 1;
        report.wire_bytes += frame.len() as u64;
        report.latency_ms = report.latency_ms.saturating_add(latency_ms);
        let sent = if attempt < corrupt_first {
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
        let (out, report) = deliver_untraced(&f, 2, 30, 7, &policy);
        assert_eq!(*out.unwrap(), f);
        assert_eq!(report.latency_ms, 90, "every attempt pays link latency");
        assert_eq!(report.backoff_ms, 10 + 20);
    }

    #[test]
    fn budget_exhaustion_reports_the_crc_error() {
        let f = frame();
        let policy = RetransmitPolicy { max_retries: 2 };
        let (out, report) = deliver(&f, 99, 7, &policy);
        let err = out.unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(matches!(err.last_error, WireError::BadChecksum { .. }));
        assert_eq!(report.attempts, 3);
        assert_eq!(report.backoff_ms, 10 + 20);
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
        assert_eq!(backoff_ms(1), 10);
        assert_eq!(backoff_ms(2), 20);
        assert_eq!(backoff_ms(5), 160);
        assert_eq!(backoff_ms(70), u64::MAX); // shift overflow saturates
    }

    #[test]
    fn chaos_delivery_is_deterministic() {
        let f = frame();
        let policy = RetransmitPolicy::default();
        let a = deliver_untraced(&f, 2, 25, 99, &policy);
        let b = deliver_untraced(&f, 2, 25, 99, &policy);
        assert_eq!(a.0.is_ok(), b.0.is_ok());
        assert_eq!(a.1, b.1);
    }
}
