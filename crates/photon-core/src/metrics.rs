use crate::RoundSlot;
use serde::{Deserialize, Serialize};

/// Rounds in a run's recent-round ring ([`TrainingHistory::recent_rounds`]).
pub const ROUND_RING: usize = 8;

/// Summary of one federated round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index.
    pub round: u64,
    /// Client ids that participated.
    pub cohort: Vec<usize>,
    /// Sampled clients that dropped out before returning a result
    /// (crashes plus retransmit-budget exhaustion).
    #[serde(default)]
    pub dropouts: usize,
    /// Clients whose results missed the round deadline and were dropped
    /// into the partial-update path (§4).
    #[serde(default)]
    pub stragglers: usize,
    /// Result-frame retransmissions triggered by CRC failures this round.
    #[serde(default)]
    pub retransmits: u64,
    /// Mean local training loss across the cohort.
    pub mean_client_loss: f32,
    /// L2 norm of the aggregated pseudo-gradient.
    pub pseudo_grad_norm: f32,
    /// Total Link bytes this round (broadcasts + results).
    pub wire_bytes: u64,
    /// Global-model validation perplexity, when evaluated this round.
    pub eval_ppl: Option<f64>,
    /// Updates the admission guard rejected this round (non-finite plus
    /// cohort outliers).
    #[serde(default)]
    pub guard_rejected: usize,
    /// Updates admitted after guard norm clipping.
    #[serde(default)]
    pub guard_clipped: usize,
    /// Cohort members skipped because they were quarantined.
    #[serde(default)]
    pub quarantined: usize,
    /// Whether this round was neutralized after a watchdog rollback (its
    /// update is skipped on replay so recovery terminates).
    #[serde(default)]
    pub neutralized: bool,
    /// New clients admitted this round (elastic membership).
    #[serde(default)]
    pub joined: usize,
    /// Members that permanently departed this round.
    #[serde(default)]
    pub departed: usize,
    /// Members whose liveness lease lapsed this round.
    #[serde(default)]
    pub lease_expired: usize,
    /// Expired members that warm-rejoined this round.
    #[serde(default)]
    pub rejoined: usize,
    /// Updates waiting in the aggregation buffer after this round
    /// (buffered mode only).
    #[serde(default)]
    pub buffered: usize,
    /// Whether a buffered round ended *below* quorum and deferred its
    /// commit (inverted so the serde default — `false`, i.e. committed —
    /// is right for synchronous rounds and legacy records).
    #[serde(default)]
    pub commit_deferred: bool,
    /// Whether this round ran in degraded mode: received results fell
    /// below the reachability quorum, so the deadline was lifted and the
    /// server-opt step skipped until the partition heals.
    #[serde(default)]
    pub degraded: bool,
    /// Sampled clients whose deliveries were severed by an active network
    /// partition this round.
    #[serde(default)]
    pub unreachable: usize,
    /// The straggler deadline enforced this round (static or adaptive);
    /// `None` when no deadline applied (including degraded rounds).
    #[serde(default)]
    pub effective_deadline_ms: Option<u64>,
    /// Live sub-aggregator shards the cohort was partitioned over this
    /// round (0 = flat single-level aggregation).
    #[serde(default)]
    pub shards: usize,
    /// Shards whose slice was dropped for missing the per-shard quorum.
    #[serde(default)]
    pub shard_degraded: usize,
    /// Sub-aggregator crashes this round (each kills its shard for good).
    #[serde(default)]
    pub shard_crashes: usize,
    /// Sub-aggregator hangs this round (the slice is lost, shard recovers).
    #[serde(default)]
    pub shard_hangs: usize,
    /// Cohort members routed to a foster shard because their home shard
    /// is dead (crash re-parenting).
    #[serde(default)]
    pub reparented: usize,
    /// Peak update vectors resident in any shard's streaming merge
    /// (accumulator included); bounded by `max_resident`.
    #[serde(default)]
    pub peak_resident: usize,
}

/// The full record of a training run, with helpers used by the
/// time-to-target-perplexity experiments (Figs. 5–6, Table 3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
}

impl TrainingHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        TrainingHistory::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: RoundRecord) {
        self.rounds.push(record);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether any rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// First round (1-based count of completed rounds) whose evaluation
    /// perplexity reached `target`, if any — the quantity Figs. 5–6 and
    /// Table 3 convert into wall time.
    pub fn rounds_to_target(&self, target: f64) -> Option<u64> {
        self.rounds
            .iter()
            .find(|r| r.eval_ppl.is_some_and(|p| p <= target))
            .map(|r| r.round + 1)
    }

    /// Best (lowest) finite evaluated perplexity seen. Non-finite
    /// evaluations (a diverged or poisoned round) are skipped rather than
    /// panicking, so degenerate runs still report their best healthy eval.
    pub fn best_ppl(&self) -> Option<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.eval_ppl)
            .filter(|p| p.is_finite())
            .min_by(f64::total_cmp)
    }

    /// Final evaluated perplexity (the last round that ran an eval).
    pub fn final_ppl(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.eval_ppl)
    }

    /// Total Link traffic over the run.
    pub fn total_wire_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.wire_bytes).sum()
    }

    /// The last [`ROUND_RING`] rounds, oldest first: how many results each
    /// one's commit received out of the cohort it was sent to. Enough tail
    /// to diagnose a sick deployment without unbounded state.
    pub fn recent_rounds(&self) -> Vec<RoundSlot> {
        let tail = &self.rounds[self.rounds.len().saturating_sub(ROUND_RING)..];
        tail.iter()
            .map(|r| {
                let lost = r.dropouts + r.stragglers + r.unreachable;
                RoundSlot {
                    round: r.round,
                    received: r.cohort.len().saturating_sub(lost) as u32,
                    cohort: r.cohort.len() as u32,
                }
            })
            .collect()
    }

    /// Serializes to pretty JSON for experiment reports.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("history serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64, ppl: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            cohort: vec![0, 1],
            mean_client_loss: 2.0,
            pseudo_grad_norm: 0.5,
            wire_bytes: 100,
            eval_ppl: ppl,
            ..RoundRecord::default()
        }
    }

    #[test]
    fn legacy_records_without_churn_fields_load() {
        let mut h = TrainingHistory::new();
        h.push(record(0, Some(40.0)));
        let json = h
            .to_json()
            .replace("\"joined\": 0,", "")
            .replace("\"departed\": 0,", "")
            .replace("\"lease_expired\": 0,", "")
            .replace("\"rejoined\": 0,", "")
            .replace("\"buffered\": 0,", "")
            .replace("\"commit_deferred\": false,", "")
            .replace("\"degraded\": false,", "")
            .replace("\"unreachable\": 0,", "")
            .replace("\"shards\": 0,", "")
            .replace("\"shard_degraded\": 0,", "")
            .replace("\"shard_crashes\": 0,", "")
            .replace("\"shard_hangs\": 0,", "")
            .replace("\"reparented\": 0,", "")
            .replace("\"peak_resident\": 0", "\"buffered\": 0")
            .replace("\"effective_deadline_ms\": null,", "");
        let back: TrainingHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h, "serde defaults must reconstruct the record");
    }

    #[test]
    fn rounds_to_target_finds_first_crossing() {
        let mut h = TrainingHistory::new();
        h.push(record(0, Some(50.0)));
        h.push(record(1, None));
        h.push(record(2, Some(34.0)));
        h.push(record(3, Some(30.0)));
        assert_eq!(h.rounds_to_target(35.0), Some(3));
        assert_eq!(h.rounds_to_target(60.0), Some(1));
        assert_eq!(h.rounds_to_target(10.0), None);
    }

    #[test]
    fn best_and_final() {
        let mut h = TrainingHistory::new();
        assert!(h.best_ppl().is_none());
        h.push(record(0, Some(40.0)));
        h.push(record(1, Some(33.0)));
        h.push(record(2, None));
        assert_eq!(h.best_ppl(), Some(33.0));
        assert_eq!(h.final_ppl(), Some(33.0));
        assert_eq!(h.total_wire_bytes(), 300);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn best_ppl_skips_non_finite_evals() {
        let mut h = TrainingHistory::new();
        h.push(record(0, Some(f64::NAN)));
        h.push(record(1, Some(44.0)));
        h.push(record(2, Some(f64::INFINITY)));
        assert_eq!(h.best_ppl(), Some(44.0));
        let mut all_bad = TrainingHistory::new();
        all_bad.push(record(0, Some(f64::NAN)));
        assert_eq!(all_bad.best_ppl(), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut h = TrainingHistory::new();
        h.push(record(0, Some(40.0)));
        let back: TrainingHistory = serde_json::from_str(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }
}
