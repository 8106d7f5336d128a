//! Federation telemetry: the `AggMetrics` side of Algorithm 1 (L.10).
//!
//! The aggregator records every client's per-round metrics into a
//! thread-safe hub; operators (and the experiment harnesses) read
//! aggregated summaries — per-client token counts, participation, loss
//! trajectories — without touching the training loop.
//!
//! Since the observability pass, the hub's fault/guard/churn tallies are
//! backed by a [`photon_trace::CounterSet`]: every `record_*` call bumps a
//! named counter in the instance-local set **and** mirrors the same
//! increment into the thread's trace recorder (a no-op when tracing is
//! disabled), so the Prometheus snapshot and the CLI summary read from one
//! source of truth. [`FaultCounters`] remains the stable serialized view,
//! assembled from counter names on demand.

use parking_lot::RwLock;
use photon_comms::TrainMetrics;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-client aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientStats {
    /// Rounds this client participated in.
    pub rounds_participated: u64,
    /// Total tokens this client has trained on.
    pub tokens: u64,
    /// Total local optimizer steps.
    pub steps: u64,
    /// Mean of the client's reported per-round losses.
    pub mean_loss: f32,
    /// Most recent reported loss.
    pub last_loss: f32,
    /// Mean cosine alignment between this client's pseudo-gradients and
    /// the aggregated round update — the §6 "client contribution" measure
    /// (near 1: pulls with the federation; near 0: orthogonal noise;
    /// negative: conflicts).
    pub mean_alignment: f32,
}

/// Run-level fault and recovery counters — the operator's view of how much
/// turbulence the federation absorbed (§4's dropout tolerance plus the
/// recovery driver's checkpoint restores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Clients that crashed mid-round (no result frame).
    pub crashes: u64,
    /// Clients dropped for missing the round deadline.
    pub stragglers: u64,
    /// Result-frame retransmissions triggered by CRC failures.
    pub retransmits: u64,
    /// Clients dropped after exhausting the retransmit budget.
    pub link_dropouts: u64,
    /// Checkpoint restores performed by the recovery driver.
    pub recoveries: u64,
    /// Updates the guard rejected for non-finite coordinates.
    #[serde(default)]
    pub rejected_nonfinite: u64,
    /// Updates the guard rejected as cohort outliers (z-score or cosine).
    #[serde(default)]
    pub rejected_outliers: u64,
    /// Updates the guard admitted after norm clipping.
    #[serde(default)]
    pub norm_clipped: u64,
    /// Updates skipped because their client was quarantined.
    #[serde(default)]
    pub quarantine_skips: u64,
    /// Watchdog-triggered rollbacks to the last-good checkpoint.
    #[serde(default)]
    pub rollbacks: u64,
    /// New clients admitted mid-run (elastic membership warm joins).
    #[serde(default)]
    pub joins: u64,
    /// Members that permanently departed the federation.
    #[serde(default)]
    pub leaves: u64,
    /// Liveness leases that lapsed (members expired off the roster).
    #[serde(default)]
    pub lease_expiries: u64,
    /// Expired members that warm-rejoined after a crash-free round.
    #[serde(default)]
    pub rejoins: u64,
    /// Buffered-aggregation merges committed.
    #[serde(default)]
    pub buffered_commits: u64,
    /// Committed updates that were stale (down-weighted by staleness).
    #[serde(default)]
    pub stale_commits: u64,
    /// Result transmissions lost in flight by the network model.
    #[serde(default)]
    pub link_losses: u64,
    /// Duplicate result arrivals generated by the network model.
    #[serde(default)]
    pub link_duplicates: u64,
    /// Deliveries that arrived out of order (picked up reorder delay).
    #[serde(default)]
    pub link_reorders: u64,
    /// Duplicate arrivals discarded by update dedup (buffer or in-round).
    #[serde(default)]
    pub dup_drops: u64,
    /// Deliveries lost to an active network partition.
    #[serde(default)]
    pub partition_drops: u64,
    /// Rounds run in degraded mode (below the reachability quorum).
    #[serde(default)]
    pub degraded_rounds: u64,
    /// Degraded-mode exits — the partition healed and quorum returned.
    #[serde(default)]
    pub degraded_recoveries: u64,
    /// Transport reconnects: a client's connection dropped and it dialed
    /// back in (multi-process deployment only).
    #[serde(default)]
    pub transport_reconnects: u64,
    /// Heartbeats the coordinator expected but never received.
    #[serde(default)]
    pub heartbeat_misses: u64,
    /// Reconnections that resumed an existing session (lease and in-flight
    /// round carried over) instead of re-admitting as a new member.
    #[serde(default)]
    pub session_resumes: u64,
    /// Coordinator crash-restarts that restored the state machine from a
    /// checkpoint and re-synchronized live clients.
    #[serde(default)]
    pub coordinator_restarts: u64,
    /// Sub-aggregator shard crashes (each kills its shard permanently).
    #[serde(default)]
    pub shard_crashes: u64,
    /// Sub-aggregator shard hangs (the shard's slice lost for one round).
    #[serde(default)]
    pub shard_hangs: u64,
    /// Shard slices dropped for missing the per-shard quorum.
    #[serde(default)]
    pub shard_degraded: u64,
    /// Cohort members re-parented to a foster shard after their home
    /// shard crashed.
    #[serde(default)]
    pub reparented: u64,
}

/// Counter-name keys backing [`FaultCounters`] — the same names appear in
/// the Prometheus snapshot (as `name` label values) and in trace flushes.
mod key {
    pub const CRASHES: &str = "faults.crashes";
    pub const STRAGGLERS: &str = "faults.stragglers";
    pub const RETRANSMITS: &str = "faults.retransmits";
    pub const LINK_DROPOUTS: &str = "faults.link_dropouts";
    pub const RECOVERIES: &str = "faults.recoveries";
    pub const REJECTED_NONFINITE: &str = "guard.rejected_nonfinite";
    pub const REJECTED_OUTLIERS: &str = "guard.rejected_outliers";
    pub const NORM_CLIPPED: &str = "guard.norm_clipped";
    pub const QUARANTINE_SKIPS: &str = "guard.quarantine_skips";
    pub const ROLLBACKS: &str = "faults.rollbacks";
    pub const JOINS: &str = "churn.joins";
    pub const LEAVES: &str = "churn.leaves";
    pub const LEASE_EXPIRIES: &str = "churn.lease_expiries";
    pub const REJOINS: &str = "churn.rejoins";
    pub const BUFFERED_COMMITS: &str = "buffer.commits";
    pub const STALE_COMMITS: &str = "buffer.stale_commits";
    pub const ROUNDS_COMMITTED: &str = "rounds.committed";
    pub const LINK_LOSSES: &str = "network.link_losses";
    pub const LINK_DUPLICATES: &str = "network.link_duplicates";
    pub const LINK_REORDERS: &str = "network.link_reorders";
    pub const DUP_DROPS: &str = "network.dup_drops";
    pub const PARTITION_DROPS: &str = "network.partition_drops";
    pub const DEGRADED_ROUNDS: &str = "network.degraded_rounds";
    pub const DEGRADED_RECOVERIES: &str = "network.degraded_recoveries";
    pub const TRANSPORT_RECONNECTS: &str = "transport.reconnects";
    pub const HEARTBEAT_MISSES: &str = "transport.heartbeat_misses";
    pub const SESSION_RESUMES: &str = "transport.session_resumes";
    pub const COORDINATOR_RESTARTS: &str = "transport.coordinator_restarts";
    pub const SHARD_CRASHES: &str = "hierarchy.shard_crashes";
    pub const SHARD_HANGS: &str = "hierarchy.shard_hangs";
    pub const SHARD_DEGRADED: &str = "hierarchy.shard_degraded";
    pub const REPARENTED: &str = "hierarchy.reparented";
}

impl FaultCounters {
    /// Assembles the serialized view from a named counter set.
    fn from_counters(c: &photon_trace::CounterSet) -> Self {
        FaultCounters {
            crashes: c.get(key::CRASHES),
            stragglers: c.get(key::STRAGGLERS),
            retransmits: c.get(key::RETRANSMITS),
            link_dropouts: c.get(key::LINK_DROPOUTS),
            recoveries: c.get(key::RECOVERIES),
            rejected_nonfinite: c.get(key::REJECTED_NONFINITE),
            rejected_outliers: c.get(key::REJECTED_OUTLIERS),
            norm_clipped: c.get(key::NORM_CLIPPED),
            quarantine_skips: c.get(key::QUARANTINE_SKIPS),
            rollbacks: c.get(key::ROLLBACKS),
            joins: c.get(key::JOINS),
            leaves: c.get(key::LEAVES),
            lease_expiries: c.get(key::LEASE_EXPIRIES),
            rejoins: c.get(key::REJOINS),
            buffered_commits: c.get(key::BUFFERED_COMMITS),
            stale_commits: c.get(key::STALE_COMMITS),
            link_losses: c.get(key::LINK_LOSSES),
            link_duplicates: c.get(key::LINK_DUPLICATES),
            link_reorders: c.get(key::LINK_REORDERS),
            dup_drops: c.get(key::DUP_DROPS),
            partition_drops: c.get(key::PARTITION_DROPS),
            degraded_rounds: c.get(key::DEGRADED_ROUNDS),
            degraded_recoveries: c.get(key::DEGRADED_RECOVERIES),
            transport_reconnects: c.get(key::TRANSPORT_RECONNECTS),
            heartbeat_misses: c.get(key::HEARTBEAT_MISSES),
            session_resumes: c.get(key::SESSION_RESUMES),
            coordinator_restarts: c.get(key::COORDINATOR_RESTARTS),
            shard_crashes: c.get(key::SHARD_CRASHES),
            shard_hangs: c.get(key::SHARD_HANGS),
            shard_degraded: c.get(key::SHARD_DEGRADED),
            reparented: c.get(key::REPARENTED),
        }
    }
}

/// A cheaply clonable, thread-safe telemetry hub shared between the
/// aggregator and observers.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    clients: BTreeMap<u32, ClientAccum>,
    rounds_seen: u64,
    /// Distinct round indices whose aggregated update was actually
    /// applied. A set (not a counter) so a post-rollback replay of the
    /// same round is not double-counted within one federation instance.
    committed: BTreeSet<u64>,
    compute_threads: usize,
    counters: photon_trace::CounterSet,
    /// Observed per-delivery simulated latencies (network model runs
    /// only) as a multiset, latency → deliveries, for the p50/p99 metrics
    /// surface: bounded by the distinct latencies, not the deliveries.
    link_latencies_ms: BTreeMap<u64, u64>,
    /// Per-client transport reconnect counts (multi-process runs only) —
    /// the operator's view of which workers flap.
    reconnects_by_client: BTreeMap<u32, u64>,
}

impl Inner {
    /// Bumps a named counter locally and mirrors the increment into the
    /// thread's trace recorder (no-op when tracing is disabled).
    fn bump(&mut self, name: &'static str, by: u64) {
        if by == 0 {
            return;
        }
        self.counters.add(name, by);
        photon_trace::counter_add(name, by);
    }
}

#[derive(Debug, Default)]
struct ClientAccum {
    rounds: u64,
    tokens: u64,
    steps: u64,
    loss_sum: f64,
    last_loss: f32,
    alignment_sum: f64,
    alignment_count: u64,
}

impl Telemetry {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Records one client's round metrics (called by the aggregator as
    /// results arrive).
    pub fn record(&self, client_id: u32, round: u64, metrics: &TrainMetrics) {
        let mut inner = self.inner.write();
        inner.rounds_seen = inner.rounds_seen.max(round + 1);
        let acc = inner.clients.entry(client_id).or_default();
        acc.rounds += 1;
        acc.tokens += metrics.tokens;
        acc.steps += metrics.steps;
        acc.loss_sum += metrics.mean_loss as f64;
        acc.last_loss = metrics.mean_loss;
    }

    /// Records the cosine alignment of one client's update with the
    /// aggregated round delta.
    pub fn record_alignment(&self, client_id: u32, cosine: f32) {
        let mut inner = self.inner.write();
        let acc = inner.clients.entry(client_id).or_default();
        acc.alignment_sum += cosine as f64;
        acc.alignment_count += 1;
    }

    /// Records the resolved compute-thread budget for this run (the
    /// worker-pool size the kernels fan out to). Logged once at startup
    /// by drivers so operators can correlate throughput with parallelism.
    pub fn record_compute_threads(&self, threads: usize) {
        self.inner.write().compute_threads = threads;
        photon_trace::gauge_set("compute_threads", threads as f64);
    }

    /// The recorded compute-thread budget (0 if never recorded).
    pub fn compute_threads(&self) -> usize {
        self.inner.read().compute_threads
    }

    /// Accumulates one round's fault counts (crashes, stragglers,
    /// retransmissions, link-budget dropouts).
    pub fn record_round_faults(
        &self,
        crashes: u64,
        stragglers: u64,
        retransmits: u64,
        link_dropouts: u64,
    ) {
        let mut inner = self.inner.write();
        inner.bump(key::CRASHES, crashes);
        inner.bump(key::STRAGGLERS, stragglers);
        inner.bump(key::RETRANSMITS, retransmits);
        inner.bump(key::LINK_DROPOUTS, link_dropouts);
    }

    /// Records one checkpoint restore by the recovery driver.
    pub fn record_recovery(&self) {
        self.inner.write().bump(key::RECOVERIES, 1);
    }

    /// Accumulates one round's guard decisions (non-finite rejections,
    /// outlier rejections, norm clips, quarantine skips).
    pub fn record_guard(
        &self,
        rejected_nonfinite: u64,
        rejected_outliers: u64,
        norm_clipped: u64,
        quarantine_skips: u64,
    ) {
        let mut inner = self.inner.write();
        inner.bump(key::REJECTED_NONFINITE, rejected_nonfinite);
        inner.bump(key::REJECTED_OUTLIERS, rejected_outliers);
        inner.bump(key::NORM_CLIPPED, norm_clipped);
        inner.bump(key::QUARANTINE_SKIPS, quarantine_skips);
    }

    /// Records one watchdog-triggered rollback to the last-good
    /// checkpoint.
    pub fn record_rollback(&self) {
        self.inner.write().bump(key::ROLLBACKS, 1);
    }

    /// Accumulates one round's membership churn (joins, permanent leaves,
    /// lease expiries, warm rejoins).
    pub fn record_churn(&self, joins: u64, leaves: u64, lease_expiries: u64, rejoins: u64) {
        let mut inner = self.inner.write();
        inner.bump(key::JOINS, joins);
        inner.bump(key::LEAVES, leaves);
        inner.bump(key::LEASE_EXPIRIES, lease_expiries);
        inner.bump(key::REJOINS, rejoins);
    }

    /// Records one buffered-aggregation commit, of which `stale` committed
    /// updates carried a staleness discount.
    pub fn record_commit(&self, stale: u64) {
        let mut inner = self.inner.write();
        inner.bump(key::BUFFERED_COMMITS, 1);
        inner.bump(key::STALE_COMMITS, stale);
    }

    /// Accumulates one round's network chaos (lost transmissions,
    /// duplicate arrivals, reordered deliveries, dedup discards, and
    /// deliveries severed by a partition).
    pub fn record_network(
        &self,
        losses: u64,
        duplicates: u64,
        reorders: u64,
        dup_drops: u64,
        partition_drops: u64,
    ) {
        let mut inner = self.inner.write();
        inner.bump(key::LINK_LOSSES, losses);
        inner.bump(key::LINK_DUPLICATES, duplicates);
        inner.bump(key::LINK_REORDERS, reorders);
        inner.bump(key::DUP_DROPS, dup_drops);
        inner.bump(key::PARTITION_DROPS, partition_drops);
    }

    /// Records one delivery's total simulated latency (in-flight time plus
    /// backoff and reorder delay) for the p50/p99 metrics surface.
    pub fn record_link_latency(&self, latency_ms: u64) {
        *self
            .inner
            .write()
            .link_latencies_ms
            .entry(latency_ms)
            .or_insert(0) += 1;
    }

    /// Records one transport reconnect by `client` and whether it resumed
    /// its session (versus being re-admitted as a new member).
    pub fn record_reconnect(&self, client: u32, resumed: bool) {
        let mut inner = self.inner.write();
        inner.bump(key::TRANSPORT_RECONNECTS, 1);
        if resumed {
            inner.bump(key::SESSION_RESUMES, 1);
        }
        *inner.reconnects_by_client.entry(client).or_insert(0) += 1;
    }

    /// Accumulates heartbeats a peer was expected to send but never did.
    pub fn record_heartbeat_misses(&self, misses: u64) {
        self.inner.write().bump(key::HEARTBEAT_MISSES, misses);
    }

    /// Records one coordinator crash-restart (state machine restored from
    /// checkpoint, live clients re-synchronized).
    pub fn record_coordinator_restart(&self) {
        self.inner.write().bump(key::COORDINATOR_RESTARTS, 1);
    }

    /// Per-client transport reconnect counts, ascending by client id.
    pub fn reconnects_by_client(&self) -> Vec<(u32, u64)> {
        self.inner
            .read()
            .reconnects_by_client
            .iter()
            .map(|(&id, &n)| (id, n))
            .collect()
    }

    /// Accumulates one round's sub-aggregator shard faults and
    /// quorum-degraded shard slices.
    pub fn record_shard_faults(&self, crashes: u64, hangs: u64, degraded: u64) {
        let mut inner = self.inner.write();
        inner.bump(key::SHARD_CRASHES, crashes);
        inner.bump(key::SHARD_HANGS, hangs);
        inner.bump(key::SHARD_DEGRADED, degraded);
    }

    /// Accumulates cohort members fostered to a sibling shard because
    /// their home shard is dead.
    pub fn record_reparented(&self, n: u64) {
        self.inner.write().bump(key::REPARENTED, n);
    }

    /// Records one round run in degraded mode (below quorum).
    pub fn record_degraded_round(&self) {
        self.inner.write().bump(key::DEGRADED_ROUNDS, 1);
    }

    /// Records one exit from degraded mode (quorum restored after a heal).
    pub fn record_degraded_recovery(&self) {
        self.inner.write().bump(key::DEGRADED_RECOVERIES, 1);
    }

    /// The `q`-quantile (`0.0..=1.0`) of observed per-delivery simulated
    /// latencies; `None` before any delivery was recorded.
    pub fn link_latency_quantile(&self, q: f64) -> Option<u64> {
        let count = self.link_latency_count().checked_sub(1)?;
        // The index the sorted list of deliveries would be read at.
        let idx = ((count as f64 * q.clamp(0.0, 1.0)).round() as u64).min(count as u64);
        let mut below = 0;
        let inner = self.inner.read();
        inner.link_latencies_ms.iter().find_map(|(&ms, &n)| {
            below += n;
            (idx < below).then_some(ms)
        })
    }

    /// Number of deliveries with a recorded simulated latency.
    pub fn link_latency_count(&self) -> usize {
        self.inner.read().link_latencies_ms.values().sum::<u64>() as usize
    }

    /// Marks `round` as *committed*: it completed and its aggregated
    /// update was applied (not neutralized by a watchdog rollback).
    /// Idempotent per round, so a replay after recovery counts once.
    ///
    /// Deliberately NOT mirrored into the trace recorder: recovery
    /// re-seeds the committed prefix on every rebuilt federation, which
    /// would inflate a cumulative counter; the recovery driver publishes
    /// the commit count as a gauge instead.
    pub fn record_committed_round(&self, round: u64) {
        let mut inner = self.inner.write();
        if inner.committed.insert(round) {
            inner.counters.add(key::ROUNDS_COMMITTED, 1);
        }
    }

    /// The run's accumulated fault counters.
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters::from_counters(&self.inner.read().counters)
    }

    /// A snapshot of the named counter set backing [`FaultCounters`]
    /// (deterministically ordered; used by the metrics sinks).
    pub fn counters(&self) -> photon_trace::CounterSet {
        self.inner.read().counters.clone()
    }

    /// Number of rounds observed so far (including rounds later
    /// neutralized by a watchdog rollback — see [`rounds_committed`]).
    ///
    /// [`rounds_committed`]: Telemetry::rounds_committed
    pub fn rounds_seen(&self) -> u64 {
        self.inner.read().rounds_seen
    }

    /// Number of distinct rounds whose update was actually applied.
    /// Always `<= rounds_seen()`: a round the watchdog neutralized is
    /// *seen* (its clients trained) but never *committed*.
    pub fn rounds_committed(&self) -> u64 {
        self.inner.read().committed.len() as u64
    }

    /// Total tokens consumed across the federation.
    pub fn total_tokens(&self) -> u64 {
        self.inner.read().clients.values().map(|c| c.tokens).sum()
    }

    /// Per-client summaries, ordered by client id.
    pub fn client_stats(&self) -> Vec<(u32, ClientStats)> {
        self.inner
            .read()
            .clients
            .iter()
            .map(|(&id, acc)| {
                (
                    id,
                    ClientStats {
                        rounds_participated: acc.rounds,
                        tokens: acc.tokens,
                        steps: acc.steps,
                        mean_loss: if acc.rounds == 0 {
                            0.0
                        } else {
                            (acc.loss_sum / acc.rounds as f64) as f32
                        },
                        last_loss: acc.last_loss,
                        mean_alignment: if acc.alignment_count == 0 {
                            0.0
                        } else {
                            (acc.alignment_sum / acc.alignment_count as f64) as f32
                        },
                    },
                )
            })
            .collect()
    }

    /// The spread between the most and least trained client's token
    /// counts — a fairness/straggler indicator under partial
    /// participation.
    pub fn participation_skew(&self) -> f64 {
        let inner = self.inner.read();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for acc in inner.clients.values() {
            lo = lo.min(acc.tokens);
            hi = hi.max(acc.tokens);
        }
        if lo == u64::MAX || lo == 0 {
            if hi == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        hi as f64 / lo as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(loss: f32, tokens: u64) -> TrainMetrics {
        TrainMetrics {
            mean_loss: loss,
            tokens,
            steps: tokens / 8,
        }
    }

    #[test]
    fn records_and_summarizes() {
        let t = Telemetry::new();
        t.record(0, 0, &metrics(3.0, 800));
        t.record(1, 0, &metrics(2.0, 800));
        t.record(0, 1, &metrics(1.0, 800));
        assert_eq!(t.rounds_seen(), 2);
        assert_eq!(t.total_tokens(), 2400);
        let stats = t.client_stats();
        assert_eq!(stats.len(), 2);
        let (id0, s0) = &stats[0];
        assert_eq!(*id0, 0);
        assert_eq!(s0.rounds_participated, 2);
        assert_eq!(s0.mean_loss, 2.0);
        assert_eq!(s0.last_loss, 1.0);
        assert_eq!(s0.tokens, 1600);
    }

    #[test]
    fn alignment_averages() {
        let t = Telemetry::new();
        t.record(0, 0, &metrics(1.0, 8));
        t.record_alignment(0, 0.8);
        t.record_alignment(0, 0.4);
        let stats = t.client_stats();
        assert!((stats[0].1.mean_alignment - 0.6).abs() < 1e-6);
    }

    #[test]
    fn compute_threads_round_trips() {
        let t = Telemetry::new();
        assert_eq!(t.compute_threads(), 0);
        t.record_compute_threads(8);
        assert_eq!(t.compute_threads(), 8);
    }

    #[test]
    fn fault_counters_accumulate() {
        let t = Telemetry::new();
        assert_eq!(t.fault_counters(), FaultCounters::default());
        t.record_round_faults(1, 2, 5, 0);
        t.record_round_faults(0, 1, 3, 1);
        t.record_recovery();
        let f = t.fault_counters();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.stragglers, 3);
        assert_eq!(f.retransmits, 8);
        assert_eq!(f.link_dropouts, 1);
        assert_eq!(f.recoveries, 1);
    }

    #[test]
    fn guard_counters_accumulate() {
        let t = Telemetry::new();
        t.record_guard(1, 2, 3, 4);
        t.record_guard(1, 0, 0, 1);
        t.record_rollback();
        let f = t.fault_counters();
        assert_eq!(f.rejected_nonfinite, 2);
        assert_eq!(f.rejected_outliers, 2);
        assert_eq!(f.norm_clipped, 3);
        assert_eq!(f.quarantine_skips, 5);
        assert_eq!(f.rollbacks, 1);
    }

    #[test]
    fn churn_and_commit_counters_accumulate() {
        let t = Telemetry::new();
        t.record_churn(1, 0, 2, 1);
        t.record_churn(0, 1, 0, 0);
        t.record_commit(0);
        t.record_commit(3);
        let f = t.fault_counters();
        assert_eq!(f.joins, 1);
        assert_eq!(f.leaves, 1);
        assert_eq!(f.lease_expiries, 2);
        assert_eq!(f.rejoins, 1);
        assert_eq!(f.buffered_commits, 2);
        assert_eq!(f.stale_commits, 3);
    }

    #[test]
    fn shard_counters_accumulate() {
        let t = Telemetry::new();
        t.record_shard_faults(1, 2, 1);
        t.record_shard_faults(0, 0, 1);
        t.record_reparented(25);
        let f = t.fault_counters();
        assert_eq!(f.shard_crashes, 1);
        assert_eq!(f.shard_hangs, 2);
        assert_eq!(f.shard_degraded, 2);
        assert_eq!(f.reparented, 25);
        assert_eq!(t.counters().get("hierarchy.shard_crashes"), 1);
    }

    #[test]
    fn network_counters_and_latency_quantiles_accumulate() {
        let t = Telemetry::new();
        assert_eq!(t.link_latency_quantile(0.5), None);
        t.record_network(3, 1, 2, 1, 4);
        t.record_network(1, 0, 0, 0, 0);
        t.record_degraded_round();
        t.record_degraded_round();
        t.record_degraded_recovery();
        let f = t.fault_counters();
        assert_eq!(f.link_losses, 4);
        assert_eq!(f.link_duplicates, 1);
        assert_eq!(f.link_reorders, 2);
        assert_eq!(f.dup_drops, 1);
        assert_eq!(f.partition_drops, 4);
        assert_eq!(f.degraded_rounds, 2);
        assert_eq!(f.degraded_recoveries, 1);
        for ms in [10, 50, 20, 40, 30] {
            t.record_link_latency(ms);
        }
        assert_eq!(t.link_latency_count(), 5);
        assert_eq!(t.link_latency_quantile(0.5), Some(30));
        assert_eq!(t.link_latency_quantile(0.0), Some(10));
        assert_eq!(t.link_latency_quantile(1.0), Some(50));

        // 10^5 deliveries: every quantile equals the sorted list's.
        let t = Telemetry::new();
        let mut sorted: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53)
            .collect();
        sorted.iter().for_each(|&ms| t.record_link_latency(ms));
        sorted.sort_unstable();
        assert_eq!(t.link_latency_count(), sorted.len());
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let idx = (((sorted.len() - 1) as f64) * q).round() as usize;
            assert_eq!(t.link_latency_quantile(q), Some(sorted[idx]), "q = {q}");
        }
    }

    #[test]
    fn counters_snapshot_uses_stable_names() {
        let t = Telemetry::new();
        t.record_round_faults(2, 0, 1, 0);
        t.record_commit(1);
        let c = t.counters();
        assert_eq!(c.get("faults.crashes"), 2);
        assert_eq!(c.get("faults.retransmits"), 1);
        assert_eq!(c.get("buffer.commits"), 1);
        assert_eq!(c.get("buffer.stale_commits"), 1);
        assert_eq!(c.get("faults.stragglers"), 0);
    }

    #[test]
    fn committed_rounds_lag_seen_rounds_after_neutralization() {
        let t = Telemetry::new();
        // Rounds 0..5 are observed; round 3 diverges and is neutralized on
        // replay, so it is seen but never committed.
        for r in 0..5u64 {
            t.record(0, r, &metrics(1.0, 8));
            if r != 3 {
                t.record_committed_round(r);
            }
        }
        assert_eq!(t.rounds_seen(), 5);
        assert_eq!(t.rounds_committed(), 4);
        // A replay of an already-committed round (recovery re-running the
        // post-checkpoint suffix) must not double-count.
        t.record_committed_round(4);
        assert_eq!(t.rounds_committed(), 4);
    }

    #[test]
    fn skew_detects_unequal_participation() {
        let t = Telemetry::new();
        t.record(0, 0, &metrics(1.0, 1000));
        t.record(1, 0, &metrics(1.0, 250));
        assert_eq!(t.participation_skew(), 4.0);
        let empty = Telemetry::new();
        assert_eq!(empty.participation_skew(), 1.0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for c in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for r in 0..50 {
                        t.record(c, r, &metrics(1.0, 10));
                    }
                });
            }
        });
        assert_eq!(t.total_tokens(), 4 * 50 * 10);
        assert_eq!(t.rounds_seen(), 50);
    }
}
