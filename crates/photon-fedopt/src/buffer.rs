//! Staleness-aware buffered semi-synchronous aggregation (FedBuff-style;
//! Nguyen et al., and the staleness-tolerant merging FusionLLM argues
//! geo-distributed training needs).
//!
//! Instead of the barrier-synchronous round of Algorithm 1 — every sampled
//! client must report before anything merges — the aggregator accumulates
//! updates in an [`UpdateBuffer`] and **commits** a merge only once a
//! quorum of `m` updates is buffered. Updates that arrive after the round
//! they trained against are *stale*; the commit down-weights them by
//! [`staleness_factor`], a polynomial decay in the number of rounds the
//! update sat on the wire.
//!
//! Determinism: commits drain the buffer in `(origin_round, client_id)`
//! order and the staleness weights are pure functions of the entry's
//! rounds, so buffered runs replay bit-identically and the buffer state
//! can be checkpointed and restored exactly.
//!
//! With zero staleness (every buffered update originated this round) and a
//! full quorum, the committed merge is **bitwise identical** to the
//! synchronous weighted mean: `staleness_factor(0, d) == 1.0` exactly, so
//! the [`crate::ClientUpdate`] weights handed to the aggregation rule are
//! the same `f64`s the synchronous path would use. Every buffered round —
//! over a shard tree too — commits through [`UpdateBuffer::commit`], the
//! guard screen and the aggregation rule.
//!
//! The module also holds [`StreamingMerge`], the memory-bounded fold a
//! shard of the aggregation tree runs over its slice: the one weighted
//! mean ([`crate::aggregate_deltas`]) taken in canonical key order
//! whatever order updates arrive in.

use crate::aggregate::WeightedSum;
use crate::ClientUpdate;
use serde::{Deserialize, Serialize};

/// Knobs for buffered semi-synchronous aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Commit a merge once this many updates are buffered (FedBuff's `m`).
    pub quorum: usize,
    /// Staleness decay exponent `d`: an update `s` rounds stale is
    /// down-weighted by `(1 + s)^-d`. `0` disables staleness weighting.
    pub staleness_decay: f64,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            quorum: 2,
            staleness_decay: 0.5,
        }
    }
}

impl BufferConfig {
    /// Checks parameter ranges.
    ///
    /// # Errors
    /// Returns a description of the out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.quorum == 0 {
            return Err("buffer quorum must be at least 1".into());
        }
        if !(self.staleness_decay.is_finite() && self.staleness_decay >= 0.0) {
            return Err(format!(
                "staleness decay {} must be finite and non-negative",
                self.staleness_decay
            ));
        }
        Ok(())
    }
}

/// The staleness multiplier applied to an update `staleness` rounds old:
/// `(1 + s)^-decay`. Exactly `1.0` at zero staleness, strictly positive,
/// and monotone non-increasing in `s`.
pub fn staleness_factor(staleness: u64, decay: f64) -> f64 {
    (1.0 + staleness as f64).powf(-decay)
}

/// Normalized commit weights for a buffered merge: each base weight is
/// scaled by its [`staleness_factor`] and the result normalized to sum to
/// one. Returns an empty vector for empty input.
///
/// # Panics
/// Panics if `base_weights` and `staleness` differ in length.
pub fn staleness_weights(base_weights: &[f64], staleness: &[u64], decay: f64) -> Vec<f64> {
    assert_eq!(
        base_weights.len(),
        staleness.len(),
        "weight/staleness length mismatch"
    );
    let scaled: Vec<f64> = base_weights
        .iter()
        .zip(staleness)
        .map(|(&w, &s)| w * staleness_factor(s, decay))
        .collect();
    let total: f64 = scaled.iter().sum();
    if total <= 0.0 {
        return scaled;
    }
    scaled.into_iter().map(|w| w / total).collect()
}

/// One update waiting in the buffer. `arrival_round` models transport
/// delay: a straggler that finished its round late is scheduled to arrive
/// in a future round instead of being dropped (the synchronous deadline
/// path) — it commits with the staleness discount instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferedUpdate {
    /// Sender.
    pub client_id: u32,
    /// Round the update's local training started from.
    pub origin_round: u64,
    /// Round the update reaches the aggregator (>= origin_round).
    pub arrival_round: u64,
    /// The client's aggregation weight before staleness scaling.
    pub base_weight: f64,
    /// The client's reported mean local loss (steers the watchdog).
    pub mean_loss: f32,
    /// Flat pseudo-gradient.
    pub delta: Vec<f32>,
}

impl BufferedUpdate {
    /// Rounds this update will have waited when committed at `round`.
    pub fn staleness_at(&self, round: u64) -> u64 {
        round.saturating_sub(self.origin_round)
    }

    /// The update as a commit at `round` weighs it: the base weight scaled
    /// by its [`staleness_factor`]. The base weight was validated at
    /// arrival and the factor is in (0, 1], so the product stays positive
    /// and finite.
    fn weighted_at(self, round: u64, decay: f64) -> ClientUpdate {
        let weight = self.base_weight * staleness_factor(self.staleness_at(round), decay);
        ClientUpdate::new(self.delta, weight).expect("staleness scaling preserves weight validity")
    }
}

/// A committed merge batch, ready for guard screening and aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitBatch {
    /// Sender ids, parallel to `updates` (duplicates possible: a client
    /// may have several rounds' updates in one commit).
    pub client_ids: Vec<u32>,
    /// Origin rounds, parallel to `updates`.
    pub origin_rounds: Vec<u64>,
    /// Staleness-weighted updates in deterministic
    /// `(origin_round, client_id)` order.
    pub updates: Vec<ClientUpdate>,
    /// Reported mean losses, parallel to `updates`.
    pub losses: Vec<f32>,
    /// How many committed updates were stale (origin before the commit
    /// round).
    pub stale: usize,
}

/// The aggregator-side update buffer for semi-synchronous rounds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateBuffer {
    entries: Vec<BufferedUpdate>,
}

impl UpdateBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        UpdateBuffer::default()
    }

    /// Enqueues an update (immediately pending if `arrival_round` is the
    /// current round, deferred otherwise). Returns `false` — rejecting the
    /// update — when an entry with the same `(client_id, origin_round)` is
    /// already buffered: a duplicating link must never double-apply one
    /// client round, and legitimate arrivals are unique on that key.
    pub fn push(&mut self, update: BufferedUpdate) -> bool {
        let duplicate = self
            .entries
            .iter()
            .any(|e| e.client_id == update.client_id && e.origin_round == update.origin_round);
        if duplicate {
            return false;
        }
        self.entries.push(update);
        true
    }

    /// Updates that have arrived by `round` (deferred stragglers excluded).
    pub fn pending(&self, round: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.arrival_round <= round)
            .count()
    }

    /// Updates still in flight after `round`.
    pub fn deferred(&self, round: u64) -> usize {
        self.entries.len() - self.pending(round)
    }

    /// Whether the pending set reaches the commit quorum at `round`.
    pub fn quorum_reached(&self, round: u64, quorum: usize) -> bool {
        self.pending(round) >= quorum
    }

    /// Removes and returns every update that has arrived by `round`, in
    /// arrival (insertion) order; updates still in flight stay buffered.
    fn drain_pending(&mut self, round: u64) -> Vec<BufferedUpdate> {
        let (pending, deferred) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition(|e| e.arrival_round <= round);
        self.entries = deferred;
        pending
    }

    /// Drains every update that has arrived by `round` into a
    /// deterministic [`CommitBatch`], scaling each base weight by its
    /// [`staleness_factor`]. Returns `None` when nothing is pending.
    ///
    /// Weights are intentionally **unnormalized** (the aggregation rules
    /// normalize internally): at zero staleness they are exactly the base
    /// weights, which makes a full-quorum zero-staleness commit bitwise
    /// identical to the synchronous merge.
    pub fn commit(&mut self, round: u64, decay: f64) -> Option<CommitBatch> {
        let mut batch = self.drain_pending(round);
        if batch.is_empty() {
            return None;
        }
        let mut commit_span = photon_trace::span(photon_trace::Phase::BufferCommit)
            .arg("round", round)
            .arg("updates", batch.len() as u64);
        batch.sort_by_key(|e| (e.origin_round, e.client_id));
        let mut out = CommitBatch {
            client_ids: Vec::with_capacity(batch.len()),
            origin_rounds: Vec::with_capacity(batch.len()),
            updates: Vec::with_capacity(batch.len()),
            losses: Vec::with_capacity(batch.len()),
            stale: 0,
        };
        for entry in batch {
            out.stale += usize::from(entry.staleness_at(round) > 0);
            out.client_ids.push(entry.client_id);
            out.origin_rounds.push(entry.origin_round);
            out.losses.push(entry.mean_loss);
            out.updates.push(entry.weighted_at(round, decay));
        }
        commit_span.set_arg("stale", out.stale as u64);
        Some(out)
    }

    /// Total buffered updates (pending plus deferred).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw entries, for checkpointing.
    pub fn entries(&self) -> &[BufferedUpdate] {
        &self.entries
    }

    /// Rebuilds a buffer from checkpointed entries.
    pub fn from_entries(entries: Vec<BufferedUpdate>) -> Self {
        UpdateBuffer { entries }
    }
}

/// The outcome of offering one update to a [`StreamingMerge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPush {
    /// Folded into the accumulator (possibly unblocking held residents).
    Folded,
    /// Held resident, waiting for canonically earlier arrivals.
    Held,
    /// Dropped: its canonical slot is behind the fold frontier (already
    /// folded, or abandoned to keep residency bounded).
    LateDropped,
    /// Rejected: key not expected, or a duplicate of a held resident.
    Unexpected,
}

/// A streaming, memory-bounded weighted merge with a canonical summation
/// order — the per-shard fold of the hierarchical aggregation tree.
///
/// Updates are declared up front as a sorted set of expected
/// `(origin_round, client_id)` keys and may then arrive in any order. An
/// arrival matching the fold frontier is folded immediately (and unblocks
/// any held successors); an out-of-order arrival is held resident. The
/// fold therefore consumes updates in exactly the canonical sorted order,
/// making the result bitwise identical to the one weighted mean
/// ([`crate::aggregate_deltas`]) over the sorted batch — while never
/// holding more than `max_resident` full update vectors (the running
/// accumulator counts as one).
///
/// When an arrival would exceed the bound, the merge *abandons* the
/// missing keys before its canonically-smallest resident and folds that
/// resident instead; an abandoned key that later arrives is counted and
/// dropped. Abandonment is deterministic in the arrival order, so runs
/// replay bit-identically.
#[derive(Debug, Clone)]
pub struct StreamingMerge {
    expected: Vec<(u64, u32)>,
    next: usize,
    held: std::collections::BTreeMap<(u64, u32), ClientUpdate>,
    sum: WeightedSum,
    late_drops: usize,
    peak_resident: usize,
    max_resident: usize,
}

impl StreamingMerge {
    /// Creates a merge over a **sorted, duplicate-free** expected key set.
    /// `max_resident` is clamped to at least 2 (accumulator + one held
    /// vector).
    ///
    /// # Panics
    /// Panics if `expected` is not strictly ascending.
    pub fn new(expected: Vec<(u64, u32)>, max_resident: usize) -> Self {
        assert!(
            expected.windows(2).all(|w| w[0] < w[1]),
            "expected keys must be strictly ascending"
        );
        StreamingMerge {
            expected,
            next: 0,
            held: std::collections::BTreeMap::new(),
            sum: WeightedSum::default(),
            late_drops: 0,
            peak_resident: 1,
            max_resident: max_resident.max(2),
        }
    }

    /// Offers one update for `key`.
    pub fn push(&mut self, key: (u64, u32), update: ClientUpdate) -> StreamPush {
        if self.expected.binary_search(&key).is_err() {
            return StreamPush::Unexpected;
        }
        if self.next >= self.expected.len() || key < self.expected[self.next] {
            self.late_drops += 1;
            return StreamPush::LateDropped;
        }
        if key == self.expected[self.next] {
            self.sum.add(&update);
            self.next += 1;
            self.drain_held();
            return StreamPush::Folded;
        }
        if self.held.contains_key(&key) {
            return StreamPush::Unexpected;
        }
        // Out of canonical order: hold, evicting through abandonment if
        // the residency bound (held vectors + the accumulator) is hit.
        if self.held.len() + 1 >= self.max_resident {
            self.make_room();
            // The frontier may have advanced past this key's slot (or past
            // the whole expected set).
            if self.next >= self.expected.len() || key < self.expected[self.next] {
                self.late_drops += 1;
                return StreamPush::LateDropped;
            }
            if key == self.expected[self.next] {
                self.sum.add(&update);
                self.next += 1;
                self.drain_held();
                return StreamPush::Folded;
            }
        }
        self.held.insert(key, update);
        self.peak_resident = self.peak_resident.max(self.held.len() + 1);
        StreamPush::Held
    }

    /// Folds everything still held (in canonical order) and returns the
    /// weighted mean plus the total folded weight; `None` if nothing was
    /// ever folded.
    pub fn finish(mut self) -> Option<(Vec<f32>, f64)> {
        while let Some((key, update)) = self.held.pop_first() {
            while self.expected[self.next] != key {
                self.next += 1;
            }
            self.sum.add(&update);
            self.next += 1;
        }
        self.sum.finish()
    }

    /// Number of updates folded so far.
    pub fn folded(&self) -> usize {
        self.sum.count()
    }

    /// Most full update vectors resident at once (held + accumulator).
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Arrivals dropped because their canonical slot was already behind
    /// the fold frontier.
    pub fn late_drops(&self) -> usize {
        self.late_drops
    }

    fn drain_held(&mut self) {
        while self.next < self.expected.len() {
            match self.held.remove(&self.expected[self.next]) {
                Some(update) => {
                    self.sum.add(&update);
                    self.next += 1;
                }
                None => break,
            }
        }
    }

    /// Folds the canonically-smallest held resident, abandoning the
    /// not-yet-arrived expected keys before it.
    fn make_room(&mut self) {
        let (key, update) = self.held.pop_first().expect("make_room on empty held set");
        while self.expected[self.next] != key {
            self.next += 1;
        }
        self.sum.add(&update);
        self.next += 1;
        self.drain_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate_deltas;

    fn entry(client: u32, origin: u64, arrival: u64, delta: Vec<f32>) -> BufferedUpdate {
        BufferedUpdate {
            client_id: client,
            origin_round: origin,
            arrival_round: arrival,
            base_weight: 1.0,
            mean_loss: 2.0,
            delta,
        }
    }

    #[test]
    fn factor_is_one_at_zero_staleness() {
        for decay in [0.0, 0.5, 1.0, 3.0] {
            assert_eq!(staleness_factor(0, decay), 1.0);
        }
        assert!(staleness_factor(3, 0.5) < 1.0);
        assert_eq!(staleness_factor(3, 0.0), 1.0);
    }

    #[test]
    fn weights_normalize_and_decay() {
        let w = staleness_weights(&[1.0, 1.0, 1.0], &[0, 1, 4], 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!(staleness_weights(&[], &[], 1.0).is_empty());
    }

    #[test]
    fn quorum_counts_only_arrived_updates() {
        let mut buf = UpdateBuffer::new();
        buf.push(entry(0, 3, 3, vec![1.0]));
        buf.push(entry(1, 3, 5, vec![2.0])); // straggler, lands at round 5
        assert_eq!(buf.pending(3), 1);
        assert_eq!(buf.deferred(3), 1);
        assert!(!buf.quorum_reached(3, 2));
        assert!(buf.quorum_reached(5, 2));
    }

    #[test]
    fn push_rejects_duplicate_client_round_pairs() {
        let mut buf = UpdateBuffer::new();
        assert!(buf.push(entry(0, 3, 3, vec![1.0])));
        assert!(
            !buf.push(entry(0, 3, 4, vec![1.0])),
            "a duplicated frame of the same client round must be dropped"
        );
        assert!(
            buf.push(entry(0, 4, 4, vec![1.0])),
            "the same client's next round is not a duplicate"
        );
        assert!(
            buf.push(entry(1, 3, 3, vec![1.0])),
            "another client's update for the same round is not a duplicate"
        );
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn commit_drains_in_deterministic_order_and_keeps_deferred() {
        let mut buf = UpdateBuffer::new();
        buf.push(entry(2, 4, 4, vec![2.0]));
        buf.push(entry(0, 3, 4, vec![0.0])); // stale: one round old
        buf.push(entry(1, 4, 4, vec![1.0]));
        buf.push(entry(3, 4, 9, vec![3.0])); // still in flight
        let batch = buf.commit(4, 0.5).unwrap();
        assert_eq!(batch.client_ids, vec![0, 1, 2]);
        assert_eq!(batch.origin_rounds, vec![3, 4, 4]);
        assert_eq!(batch.stale, 1);
        assert!(batch.updates[0].weight < batch.updates[1].weight);
        assert_eq!(buf.len(), 1, "deferred straggler survives the commit");
        assert!(buf.commit(4, 0.5).is_none(), "nothing pending after drain");
    }

    #[test]
    fn zero_staleness_full_quorum_matches_synchronous_mean_bitwise() {
        let deltas = [vec![1.0f32, -2.0, 0.5], vec![-0.25, 4.0, 1.5]];
        let weights = [1.0f64, 3.0];
        let sync: Vec<ClientUpdate> = deltas
            .iter()
            .zip(weights)
            .map(|(d, w)| ClientUpdate::new(d.clone(), w).unwrap())
            .collect();
        let mut buf = UpdateBuffer::new();
        for (i, (d, w)) in deltas.iter().zip(weights).enumerate() {
            buf.push(BufferedUpdate {
                client_id: i as u32,
                origin_round: 7,
                arrival_round: 7,
                base_weight: w,
                mean_loss: 1.0,
                delta: d.clone(),
            });
        }
        let batch = buf.commit(7, 0.9).unwrap();
        assert_eq!(batch.stale, 0);
        assert_eq!(
            aggregate_deltas(&batch.updates),
            aggregate_deltas(&sync),
            "buffered zero-staleness commit must be bitwise synchronous"
        );
    }

    #[test]
    fn streaming_merge_matches_canonical_fold_for_any_arrival_order() {
        let keys: Vec<(u64, u32)> = (0u32..6).map(|c| (4u64, c)).collect();
        let updates: Vec<ClientUpdate> = (0..6)
            .map(|i| {
                ClientUpdate::new(
                    vec![0.1 + i as f32 * 0.37, -1.5 * i as f32, i as f32 * 0.001],
                    1.0 + i as f64 * 0.25,
                )
                .unwrap()
            })
            .collect();
        let want = aggregate_deltas(&updates);
        let want_w: f64 = updates.iter().map(|u| u.weight).sum();
        // Several arrival permutations, all with enough residency.
        for order in [
            vec![0usize, 1, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1, 0],
            vec![2, 0, 5, 1, 4, 3],
            vec![3, 5, 0, 4, 2, 1],
        ] {
            let mut m = StreamingMerge::new(keys.clone(), 16);
            for &i in &order {
                assert_ne!(m.push(keys[i], updates[i].clone()), StreamPush::Unexpected);
            }
            let (got, got_w) = m.finish().unwrap();
            assert_eq!(got, want, "order {order:?}");
            assert_eq!(got_w, want_w);
        }
    }

    #[test]
    fn streaming_merge_enforces_the_residency_bound() {
        let keys: Vec<(u64, u32)> = (0u32..8).map(|c| (0u64, c)).collect();
        let u = |v: f32| ClientUpdate::new(vec![v], 1.0).unwrap();
        // Worst case: reverse arrival order with a tight bound.
        let mut m = StreamingMerge::new(keys.clone(), 3);
        for c in (0u32..8).rev() {
            m.push((0, c), u(c as f32));
        }
        assert!(m.peak_resident() <= 3, "peak {}", m.peak_resident());
        assert!(m.folded() > 0, "eviction must fold, not drop");
        let late = m.late_drops();
        let folded = m.folded();
        let (got, w) = m.finish().unwrap();
        assert_eq!(got.len(), 1);
        // Every arrival was either folded or deterministically dropped as
        // late (its slot abandoned by an earlier eviction), and the folded
        // weight counts exactly the folded arrivals.
        assert_eq!(folded + late, 8);
        assert_eq!(w, folded as f64);
    }

    #[test]
    fn streaming_merge_late_and_duplicate_arrivals_are_counted() {
        let keys = vec![(0u64, 0u32), (0, 1), (0, 2)];
        let u = |v: f32| ClientUpdate::new(vec![v], 1.0).unwrap();
        let mut m = StreamingMerge::new(keys, 8);
        assert_eq!(m.push((0, 1), u(1.0)), StreamPush::Held);
        assert_eq!(m.push((0, 1), u(1.0)), StreamPush::Unexpected);
        assert_eq!(m.push((0, 0), u(0.0)), StreamPush::Folded);
        assert_eq!(m.folded(), 2, "held successor drained");
        assert_eq!(m.push((0, 0), u(9.0)), StreamPush::LateDropped);
        assert_eq!(m.push((9, 9), u(9.0)), StreamPush::Unexpected);
        assert_eq!(m.late_drops(), 1);
        let (_, w) = m.finish().unwrap();
        assert_eq!(w, 2.0);
    }

    #[test]
    fn config_validation() {
        assert!(BufferConfig::default().validate().is_ok());
        assert!(BufferConfig {
            quorum: 0,
            staleness_decay: 0.5
        }
        .validate()
        .is_err());
        assert!(BufferConfig {
            quorum: 2,
            staleness_decay: -1.0
        }
        .validate()
        .is_err());
        assert!(BufferConfig {
            quorum: 2,
            staleness_decay: f64::NAN
        }
        .validate()
        .is_err());
    }
}
