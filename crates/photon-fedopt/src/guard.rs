//! Guarded aggregation: per-update admission checks that keep poisoned or
//! numerically degenerate client updates away from the global model.
//!
//! Photon's aggregator (§3.1) trusts every delta it receives; in an
//! open-internet federation a single NaN, sign-flipped, or wildly scaled
//! update can destroy the run. The [`UpdateGuard`] screens each round's
//! cohort **before** aggregation:
//!
//! 1. **Quarantine skip** — clients that offended recently are ignored for
//!    a deterministic, round-keyed backoff window;
//! 2. **Finiteness scan** — any non-finite coordinate rejects the update;
//! 3. **Norm clipping** — updates larger than four times the running
//!    median of recently accepted norms are rescaled down;
//! 4. **Cohort outlier rejection** — robust z-score (median/MAD) on norms
//!    catches scaled updates; cosine similarity against the cohort mean
//!    catches direction-inverted (sign-flip) updates.
//!
//! Offenders are quarantined with exponential, seed-keyed backoff. All
//! decisions are pure functions of `(config, seed, round, id-sorted
//! cohort)`, so guarded runs replay bit-identically.

use crate::robust::median_f64;
use crate::ClientUpdate;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Clip an update whose norm exceeds this multiple of the running median
/// of recently accepted norms.
const CLIP_NORM_MULT: f64 = 4.0;
/// Reject an update whose cosine similarity to the cohort mean falls below
/// this floor (sign-flipped updates score near −1).
const COSINE_FLOOR: f64 = -0.25;
/// First-offence quarantine length in rounds; doubles per strike.
const QUARANTINE_BASE: u64 = 2;
/// Ceiling on the exponential quarantine backoff, in rounds.
const QUARANTINE_MAX: u64 = 16;
/// Number of recently accepted norms kept for the running median.
const NORM_WINDOW: usize = 32;

/// Settings of the [`UpdateGuard`]. The thresholds are conservative:
/// honest heterogeneity (the paper's near-orthogonal client updates,
/// Appendix C.1) passes untouched, while the Byzantine faults in
/// `photon_core::faults` are caught in one round. Only the z-score
/// threshold is a setting; the clip multiple, cosine floor, quarantine
/// backoff and norm window are fixed, and configs that still carry their
/// keys load with those keys ignored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Whether admission checks run at all.
    pub enabled: bool,
    /// Reject an update whose norm sits more than this many robust
    /// standard deviations (median/MAD) above the cohort median.
    pub zscore_threshold: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: false,
            zscore_threshold: 6.0,
        }
    }
}

impl GuardConfig {
    /// The default thresholds with admission checks switched on.
    pub fn on() -> Self {
        GuardConfig {
            enabled: true,
            ..GuardConfig::default()
        }
    }

    /// Checks the z-score threshold.
    ///
    /// # Errors
    /// Returns a description of the out-of-range threshold.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.zscore_threshold.is_finite() && self.zscore_threshold > 0.0) {
            return Err(format!(
                "guard zscore_threshold {} must be positive",
                self.zscore_threshold
            ));
        }
        Ok(())
    }
}

/// What the guard decided about one update in a screened cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardDecision {
    /// Admitted unchanged.
    Admit,
    /// Admitted after the delta was rescaled to the norm ceiling.
    Clipped,
    /// Skipped: the client is serving a quarantine sentence.
    Quarantined,
    /// Rejected: the delta (or its weight) contained non-finite values.
    RejectedNonFinite,
    /// Rejected: a cohort-relative outlier (norm z-score or cosine).
    RejectedOutlier,
}

impl GuardDecision {
    /// Whether the update takes part in aggregation.
    pub fn admitted(self) -> bool {
        matches!(self, GuardDecision::Admit | GuardDecision::Clipped)
    }
}

/// Per-round guard accounting, mirrored into `Telemetry::fault_counters`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// One decision per screened update, in input order.
    pub decisions: Vec<GuardDecision>,
    /// Updates rejected by the finiteness scan.
    pub rejected_nonfinite: u64,
    /// Updates rejected as cohort outliers (z-score or cosine).
    pub rejected_outliers: u64,
    /// Updates admitted after norm clipping.
    pub clipped: u64,
    /// Updates skipped because their client is quarantined.
    pub quarantine_skips: u64,
}

#[derive(Debug, Clone, Copy)]
struct Sentence {
    /// Last round (inclusive) the client sits out.
    until: u64,
    /// Offence count; drives the exponential backoff.
    strikes: u32,
}

/// Stateful admission guard owned by the aggregator. State (running norm
/// median, quarantine ledger) is *not* checkpointed: after a crash
/// recovery it re-warms from the replayed rounds, which is deterministic
/// because every decision is keyed on `(seed, round, cohort)`.
#[derive(Debug, Clone)]
pub struct UpdateGuard {
    cfg: GuardConfig,
    seed: u64,
    norm_history: VecDeque<f64>,
    quarantine: BTreeMap<u32, Sentence>,
}

impl UpdateGuard {
    /// Creates a guard for one run.
    ///
    /// # Panics
    /// Panics if the configuration fails [`GuardConfig::validate`].
    pub fn new(cfg: GuardConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid guard config");
        UpdateGuard {
            cfg,
            seed,
            norm_history: VecDeque::new(),
            quarantine: BTreeMap::new(),
        }
    }

    /// Whether `client` is serving a quarantine sentence at `round`.
    pub fn is_quarantined(&self, client: u32, round: u64) -> bool {
        self.quarantine
            .get(&client)
            .is_some_and(|s| round <= s.until)
    }

    /// Quarantines `client` for an offence observed at `round`:
    /// exponential in the client's strike count, plus a deterministic
    /// round-keyed jitter so released offenders do not re-synchronize.
    pub fn quarantine(&mut self, round: u64, client: u32) {
        let s = self.quarantine.entry(client).or_insert(Sentence {
            until: 0,
            strikes: 0,
        });
        s.strikes += 1;
        let shift = s.strikes.saturating_sub(1).min(6);
        let base = QUARANTINE_BASE
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(QUARANTINE_MAX);
        let jitter = mix(self.seed, round, client) % QUARANTINE_BASE;
        s.until = round + base + jitter;
    }

    /// Screens one id-sorted cohort. Clipped deltas are rescaled in place;
    /// the caller drops every update whose decision is not
    /// [`GuardDecision::admitted`].
    ///
    /// # Panics
    /// Panics if `ids` and `updates` differ in length.
    pub fn screen_round(
        &mut self,
        round: u64,
        ids: &[u32],
        updates: &mut [ClientUpdate],
    ) -> GuardReport {
        assert_eq!(ids.len(), updates.len(), "ids/updates length mismatch");
        let mut screen_span = photon_trace::span(photon_trace::Phase::GuardScreen)
            .arg("round", round)
            .arg("cohort", updates.len() as u64);
        let n = updates.len();
        let mut report = GuardReport {
            decisions: vec![GuardDecision::Admit; n],
            ..GuardReport::default()
        };

        // 1. Quarantine skips and the finiteness scan.
        for i in 0..n {
            if self.is_quarantined(ids[i], round) {
                report.decisions[i] = GuardDecision::Quarantined;
                report.quarantine_skips += 1;
            } else if !updates[i].is_finite() {
                report.decisions[i] = GuardDecision::RejectedNonFinite;
                report.rejected_nonfinite += 1;
                self.quarantine(round, ids[i]);
            }
        }

        // 2. Norm clipping against the running median of accepted norms.
        let mut norms: Vec<f64> = updates
            .iter()
            .map(|u| crate::robust::l2_norm_f64(&u.delta))
            .collect();
        if let Some(med) = self.history_median() {
            let ceiling = CLIP_NORM_MULT * med;
            if ceiling.is_finite() && ceiling > 0.0 {
                for i in 0..n {
                    if report.decisions[i] == GuardDecision::Admit && norms[i] > ceiling {
                        let scale = ceiling / norms[i];
                        for v in &mut updates[i].delta {
                            *v = (*v as f64 * scale) as f32;
                        }
                        norms[i] = ceiling;
                        report.decisions[i] = GuardDecision::Clipped;
                        report.clipped += 1;
                    }
                }
            }
        }

        // 3. Cohort-relative outlier rejection (needs >= 3 live updates
        // for the statistics to mean anything).
        let live: Vec<usize> = (0..n).filter(|&i| report.decisions[i].admitted()).collect();
        if live.len() >= 3 {
            // Robust z-score on norms: median/MAD, high side only.
            let mut live_norms: Vec<f64> = live.iter().map(|&i| norms[i]).collect();
            let med = median_f64(&mut live_norms);
            let mut devs: Vec<f64> = live.iter().map(|&i| (norms[i] - med).abs()).collect();
            let mad = median_f64(&mut devs);
            let sigma = (1.4826 * mad).max(med.abs() * 1e-6).max(1e-12);
            for &i in &live {
                // Clipped updates were already tamed to the norm ceiling;
                // rejecting them too would punish honest clients with a
                // transient spike.
                if report.decisions[i] != GuardDecision::Admit {
                    continue;
                }
                if norms[i] > med && (norms[i] - med) / sigma > self.cfg.zscore_threshold {
                    report.decisions[i] = GuardDecision::RejectedOutlier;
                    report.rejected_outliers += 1;
                    self.quarantine(round, ids[i]);
                }
            }

            // Cosine against the (unweighted) mean of the still-live
            // cohort: a direction-inverted update scores near -1.
            let live: Vec<usize> = (0..n).filter(|&i| report.decisions[i].admitted()).collect();
            if live.len() >= 3 {
                let dim = updates[0].delta.len();
                let mut mean = vec![0.0f64; dim];
                for &i in &live {
                    for (m, &v) in mean.iter_mut().zip(&updates[i].delta) {
                        *m += v as f64;
                    }
                }
                let count = live.len() as f64;
                for m in &mut mean {
                    *m /= count;
                }
                let mean_norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt();
                if mean_norm > 0.0 {
                    for &i in &live {
                        if norms[i] == 0.0 {
                            continue;
                        }
                        let dot: f64 = updates[i]
                            .delta
                            .iter()
                            .zip(&mean)
                            .map(|(&v, m)| v as f64 * m)
                            .sum();
                        let cosine = dot / (norms[i] * mean_norm);
                        if cosine < COSINE_FLOOR {
                            report.decisions[i] = GuardDecision::RejectedOutlier;
                            report.rejected_outliers += 1;
                            self.quarantine(round, ids[i]);
                        }
                    }
                }
            }
        }

        // 4. Accepted norms feed the running median (id order: the caller
        // sorts the cohort, keeping the window deterministic).
        for (i, &norm) in norms.iter().enumerate() {
            if report.decisions[i].admitted() {
                if self.norm_history.len() == NORM_WINDOW {
                    self.norm_history.pop_front();
                }
                self.norm_history.push_back(norm);
            }
        }
        screen_span.set_arg(
            "rejected",
            report.rejected_nonfinite + report.rejected_outliers + report.quarantine_skips,
        );
        screen_span.set_arg("clipped", report.clipped);
        report
    }

    /// Median of the recently accepted norms, if any were recorded.
    fn history_median(&self) -> Option<f64> {
        if self.norm_history.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.norm_history.iter().copied().collect();
        Some(median_f64(&mut sorted))
    }
}

/// FNV-style mix over `(seed, round, client)` for the quarantine jitter:
/// pure and order-free, like the fault-plan cell streams.
fn mix(seed: u64, round: u64, client: u32) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for byte in round.to_le_bytes().into_iter().chain(client.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate::new(delta, 1.0).unwrap()
    }

    fn honest_cohort(n: usize, dim: usize) -> (Vec<u32>, Vec<ClientUpdate>) {
        let ids: Vec<u32> = (0..n as u32).collect();
        let updates = (0..n)
            .map(|i| {
                u((0..dim)
                    .map(|j| 0.1 + 0.01 * ((i * 7 + j * 3) % 5) as f32)
                    .collect())
            })
            .collect();
        (ids, updates)
    }

    #[test]
    fn honest_cohorts_pass_untouched() {
        let mut guard = UpdateGuard::new(GuardConfig::on(), 7);
        let (ids, mut updates) = honest_cohort(4, 8);
        let before = updates.clone();
        for round in 0..5 {
            let report = guard.screen_round(round, &ids, &mut updates);
            assert!(report.decisions.iter().all(|d| *d == GuardDecision::Admit));
        }
        assert_eq!(updates, before);
    }

    #[test]
    fn nan_updates_are_rejected_and_quarantined() {
        let mut guard = UpdateGuard::new(GuardConfig::on(), 7);
        let (ids, mut updates) = honest_cohort(4, 8);
        updates[2].delta[3] = f32::NAN;
        let report = guard.screen_round(0, &ids, &mut updates);
        assert_eq!(report.decisions[2], GuardDecision::RejectedNonFinite);
        assert_eq!(report.rejected_nonfinite, 1);
        assert!(guard.is_quarantined(2, 1));

        // Next round the client is skipped without being screened.
        let (_, mut fresh) = honest_cohort(4, 8);
        let report = guard.screen_round(1, &ids, &mut fresh);
        assert_eq!(report.decisions[2], GuardDecision::Quarantined);
        assert_eq!(report.quarantine_skips, 1);
    }

    #[test]
    fn scaled_updates_are_norm_outliers() {
        let mut guard = UpdateGuard::new(GuardConfig::on(), 7);
        let (ids, mut updates) = honest_cohort(4, 8);
        for v in &mut updates[1].delta {
            *v *= 1000.0;
        }
        let report = guard.screen_round(0, &ids, &mut updates);
        assert_eq!(report.decisions[1], GuardDecision::RejectedOutlier);
        assert_eq!(report.rejected_outliers, 1);
        assert!(guard.is_quarantined(1, 1));
        assert!(report.decisions[0].admitted());
    }

    #[test]
    fn sign_flipped_updates_fail_the_cosine_check() {
        let mut guard = UpdateGuard::new(GuardConfig::on(), 7);
        let (ids, mut updates) = honest_cohort(4, 8);
        for v in &mut updates[3].delta {
            *v = -*v;
        }
        let report = guard.screen_round(0, &ids, &mut updates);
        assert_eq!(report.decisions[3], GuardDecision::RejectedOutlier);
        assert!(report.decisions[..3].iter().all(|d| d.admitted()));
    }

    #[test]
    fn history_clip_tames_slow_norm_growth() {
        let mut guard = UpdateGuard::new(GuardConfig::on(), 7);
        let (ids, mut updates) = honest_cohort(4, 8);
        // Warm the norm history with honest rounds.
        for round in 0..3 {
            guard.screen_round(round, &ids, &mut updates);
        }
        // A 10x update is above the clip ceiling (4x median) but may pass
        // the cohort z-score if the cohort is small; clipping bounds it.
        let norm_before = photon_tensor::ops::l2_norm(&updates[0].delta);
        for v in &mut updates[0].delta {
            *v *= 10.0;
        }
        let report = guard.screen_round(3, &ids, &mut updates);
        assert_eq!(report.decisions[0], GuardDecision::Clipped);
        assert!(photon_tensor::ops::l2_norm(&updates[0].delta) < norm_before * 6.0);
    }

    #[test]
    fn quarantine_backoff_grows_and_is_deterministic() {
        let cfg = GuardConfig::on();
        let mut a = UpdateGuard::new(cfg, 9);
        let mut b = UpdateGuard::new(cfg, 9);
        for round in [0u64, 40, 80] {
            a.quarantine(round, 5);
            b.quarantine(round, 5);
        }
        assert_eq!(a.quarantine[&5].strikes, 3);
        assert_eq!(a.quarantine[&5].until, b.quarantine[&5].until);
        // Third strike sits out at least base << 2 rounds.
        assert!(a.quarantine[&5].until >= 80 + 8);
        assert!(a.quarantine[&5].until <= 80 + QUARANTINE_MAX + QUARANTINE_BASE);
    }

    #[test]
    fn screening_is_deterministic() {
        let (ids, updates) = honest_cohort(5, 6);
        let run = || {
            let mut guard = UpdateGuard::new(GuardConfig::on(), 3);
            let mut poisoned = updates.clone();
            poisoned[4].delta.iter_mut().for_each(|v| *v *= 500.0);
            let mut out = Vec::new();
            for round in 0..4 {
                let mut cohort = poisoned.clone();
                out.push(guard.screen_round(round, &ids, &mut cohort));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = GuardConfig {
                zscore_threshold: bad,
                ..GuardConfig::on()
            };
            assert!(cfg.validate().is_err(), "{bad}");
        }
        assert!(GuardConfig::on().validate().is_ok());
    }
}
