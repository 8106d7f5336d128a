//! Federation telemetry: the `AggMetrics` side of Algorithm 1 (L.10).
//!
//! **Store → snapshot → renderers.** A run has one store, [`Telemetry`],
//! and it is the only place a number lives: the [`FaultCounters`]
//! themselves (written through [`Telemetry::count`]), one per-client table
//! holding the training and the transport columns side by side
//! ([`ClientStats`], written through [`Telemetry::client`]), the shard
//! tree's live view ([`Telemetry::hierarchy`]) and a handful of run
//! scalars. There is one read path, [`Telemetry::snapshot`], and every
//! surface an operator reads is a rendering of the [`MetricsSnapshot`] it
//! returns: `--metrics-json` is the struct through `serde_json`, `/health`
//! is its coordinator-and-clients part ([`MetricsSnapshot::into_health`]),
//! `/metrics` and the recorder's `--metrics-text` sink are both
//! [`MetricsSnapshot::to_prometheus`] followed by the trace recorder's
//! `photon_phase_*` families, and the CLI's end-of-run summary prints the
//! snapshot's fields.
//!
//! [`METRIC_SCHEMA`] lists every name those renderings carry, with the
//! reader that produces its value, so a name is spelled once.

use parking_lot::RwLock;
use photon_comms::TrainMetrics;
use photon_trace::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;
use MetricKind::{Client, Coordinator, Counter, Gauge, Json, RunCounter};

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
    /// Duplicate result arrivals generated by the network model.
    #[serde(default)]
    pub link_duplicates: u64,
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
    /// Results re-delivered for a round that had already committed: acked
    /// again, never applied again. A run-level row rather than an entry of
    /// this struct's JSON, whose form the simulated runs' golden digests
    /// pin: the JSON carries it as `transport.redelivery_acks`.
    #[serde(skip)]
    pub redelivery_acks: u64,
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

impl FaultCounters {
    /// Every counter under its exported name, in field order. The names
    /// are [`METRIC_SCHEMA`]'s, the one place they are spelled.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        METRIC_SCHEMA.iter().filter_map(move |m| match m.kind {
            Counter(get) => Some((m.name, get(self))),
            _ => None,
        })
    }
}

/// How a [`METRIC_SCHEMA`] entry is read and where it is rendered.
#[derive(Debug, Clone, Copy)]
pub enum MetricKind {
    /// A [`FaultCounters`] field: `photon_counter_total{name}` and an entry
    /// of the JSON's `fault_counters` (same order).
    Counter(fn(&FaultCounters) -> u64),
    /// A run-level count: `photon_counter_total{name}`.
    RunCounter(fn(&MetricsSnapshot) -> u64),
    /// `photon_gauge{name}` when the value exists; the name is also the
    /// dotted path of the JSON key that holds it, where there is one.
    Gauge(fn(&MetricsSnapshot) -> Option<f64>),
    /// A Prometheus family called `name`, rendered for runs with a
    /// coordinator (`serve`).
    Coordinator(fn(&MetricsSnapshot) -> Option<u64>),
    /// A `clients.<id>` column of the JSON, and a sample per client of the
    /// given Prometheus family, labelled `client` plus the given labels.
    Client(&'static str, &'static str, fn(&ClientStats) -> Option<u64>),
    /// A key of the JSON renderings only (dotted path).
    Json,
}

/// One exported metric: its name, how it is read and a one-line help.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Exported name: the `name` label, the family, or the JSON path.
    pub name: &'static str,
    /// Reader and rendering.
    pub kind: MetricKind,
    /// One-line description (the Prometheus `# HELP` text).
    pub help: &'static str,
}

/// One row per line; a plain array of struct literals wraps every row.
macro_rules! schema {
    ($($name:literal $kind:expr => $help:literal;)*) => {
        &[$(Metric { name: $name, kind: $kind, help: $help }),*]
    };
}

/// Everything a [`MetricsSnapshot`] exports, under the one name each
/// rendering uses for it. `tests/observability.rs` holds the JSON and the
/// Prometheus renderings of a run, and DESIGN.md's table, against it.
#[rustfmt::skip]
pub const METRIC_SCHEMA: &[Metric] = schema! {
    "faults.crashes"                Counter(|f| f.crashes)              => "Clients that crashed mid-round (no result frame).";
    "faults.stragglers"             Counter(|f| f.stragglers)           => "Clients dropped for missing the round deadline.";
    "faults.retransmits"            Counter(|f| f.retransmits)          => "Result-frame retransmissions after CRC failures.";
    "faults.link_dropouts"          Counter(|f| f.link_dropouts)        => "Clients dropped after exhausting the retransmit budget.";
    "faults.recoveries"             Counter(|f| f.recoveries)           => "Checkpoint restores by the recovery driver.";
    "guard.rejected_nonfinite"      Counter(|f| f.rejected_nonfinite)   => "Updates rejected for non-finite coordinates.";
    "guard.rejected_outliers"       Counter(|f| f.rejected_outliers)    => "Updates rejected as cohort outliers.";
    "guard.norm_clipped"            Counter(|f| f.norm_clipped)         => "Updates admitted after norm clipping.";
    "guard.quarantine_skips"        Counter(|f| f.quarantine_skips)     => "Updates skipped because their client was quarantined.";
    "faults.rollbacks"              Counter(|f| f.rollbacks)            => "Watchdog rollbacks to the last-good checkpoint.";
    "churn.joins"                   Counter(|f| f.joins)                => "Clients admitted mid-run.";
    "churn.leaves"                  Counter(|f| f.leaves)               => "Members that permanently departed.";
    "churn.lease_expiries"          Counter(|f| f.lease_expiries)       => "Liveness leases that lapsed.";
    "churn.rejoins"                 Counter(|f| f.rejoins)              => "Expired members that warm-rejoined.";
    "buffer.commits"                Counter(|f| f.buffered_commits)     => "Buffered-aggregation merges committed.";
    "buffer.stale_commits"          Counter(|f| f.stale_commits)        => "Committed updates down-weighted for staleness.";
    "network.link_duplicates"       Counter(|f| f.link_duplicates)      => "Duplicate result arrivals generated by the link.";
    "network.dup_drops"             Counter(|f| f.dup_drops)            => "Duplicate arrivals discarded by update dedup.";
    "network.partition_drops"       Counter(|f| f.partition_drops)      => "Deliveries lost to an active partition.";
    "network.degraded_rounds"       Counter(|f| f.degraded_rounds)      => "Rounds run below the reachability quorum.";
    "network.degraded_recoveries"   Counter(|f| f.degraded_recoveries)  => "Exits from degraded mode.";
    "transport.reconnects"          Counter(|f| f.transport_reconnects) => "Client connections that dropped and dialed back in.";
    "transport.heartbeat_misses"    Counter(|f| f.heartbeat_misses)     => "Heartbeats the coordinator expected but never received.";
    "transport.session_resumes"     Counter(|f| f.session_resumes)      => "Reconnections that resumed an existing session.";
    "transport.coordinator_restarts" Counter(|f| f.coordinator_restarts) => "Coordinator restarts restored from a checkpoint.";
    "transport.redelivery_acks"     RunCounter(|s| s.fault_counters.redelivery_acks) => "Re-delivered results of committed rounds, re-acked, not re-applied.";
    "hierarchy.shard_crashes"       Counter(|f| f.shard_crashes)        => "Sub-aggregator shard crashes.";
    "hierarchy.shard_hangs"         Counter(|f| f.shard_hangs)          => "Sub-aggregator shard hangs.";
    "hierarchy.shard_degraded"      Counter(|f| f.shard_degraded)       => "Shard slices dropped for missing the shard quorum.";
    "hierarchy.reparented"          Counter(|f| f.reparented)           => "Cohort members fostered to a sibling shard.";
    "rounds.committed"              RunCounter(|s| s.rounds_committed)  => "Distinct rounds whose update was applied.";
    "round"                         Json                                => "Next round the aggregator runs.";
    "rounds_seen"                   Gauge(|s| Some(s.rounds_seen as f64)) => "Rounds observed, including neutralized ones.";
    "rounds_committed"              Gauge(|s| Some(s.rounds_committed as f64)) => "Distinct rounds whose update was applied.";
    "compute_threads"               Gauge(|s| (s.compute_threads > 0).then_some(s.compute_threads as f64)) => "The run's compute-thread budget.";
    "backend"                       Json                                => "Kernel path the CPU runs (scalar or simd; same bits).";
    "dtype"                         Json                                => "Storage dtype of checkpoints and wire payloads.";
    "participation_skew"            Gauge(|s| s.participation_skew)     => "Most over least trained client's tokens.";
    "total_tokens"                  Json                                => "Tokens trained on across the federation.";
    "network.deliveries"            Json                                => "Deliveries with a simulated latency.";
    "network.latency_p50_ms"        Json                                => "Median simulated delivery latency.";
    "network.latency_p99_ms"        Json                                => "99th-percentile simulated delivery latency.";
    "transport.reconnects_by_client" Json                               => "Reconnects per client id.";
    "hierarchy.shards"              Gauge(|s| Some(s.hierarchy.as_ref()?.shards as f64)) => "Sub-aggregator shards in the tree.";
    "hierarchy.shard_quorum_frac"   Gauge(|s| Some(s.hierarchy.as_ref()?.shard_quorum_frac)) => "Fraction of a shard's slice that must fold.";
    "hierarchy.max_resident"        Gauge(|s| Some(s.hierarchy.as_ref()?.max_resident as f64)) => "Residency bound of a shard's streaming merge.";
    "hierarchy.dead_shards"         Gauge(|s| Some(s.hierarchy.as_ref()?.dead_shards.len() as f64)) => "Permanently crashed shards.";
    "hierarchy.peak_resident"       Gauge(|s| Some(s.hierarchy.as_ref()?.peak_resident as f64)) => "Last round's streaming-merge residency high-water mark.";
    "hierarchy.reparented_clients"  Gauge(|s| Some(s.hierarchy.as_ref()?.reparented_clients as f64)) => "Last round's fostered cohort members.";
    "recoveries"                    Json                                => "Checkpoint restores so far.";
    "rollbacks"                     Json                                => "Watchdog rollbacks so far.";
    "history"                       Json                                => "Per-round records that stand.";
    "state"                         Json                                => "Coordinator state name (serve).";
    "state_code"                    Json                                => "Coordinator state discriminant (serve).";
    "sessions"                      Json                                => "Sessions admitted (serve).";
    "resumed_from"                  Json                                => "Checkpointed round this process resumed from.";
    "recent_rounds"                 Json                                => "Last rounds of the history: received vs cohort.";
    "photon_coord_round"            Coordinator(|s| s.state_code.and(Some(s.round))) => "Current coordinator round.";
    "photon_coord_state"            Coordinator(|s| s.state_code.map(u64::from)) => "Coordinator state machine discriminant.";
    "photon_coord_rounds_committed_total" Coordinator(|s| s.state_code.and(Some(s.rounds_committed))) => "Rounds committed so far.";
    "clients.rounds"                Client("photon_client_rounds_total", "", |c| Some(c.rounds)) => "Rounds the client's result was recorded in.";
    "clients.tokens"                Json                                => "Tokens the client trained on.";
    "clients.steps"                 Json                                => "Local optimizer steps.";
    "clients.mean_loss"             Json                                => "Mean of the client's per-round losses.";
    "clients.last_loss"             Json                                => "Most recent reported loss.";
    "clients.mean_alignment"        Json                                => "Mean cosine of its updates with the round update.";
    "clients.results"               Client("photon_client_results_total", "", |c| Some(c.results)) => "Results received from the client.";
    "clients.latency_ms_p50"        Client("photon_client_result_latency_ms", ",quantile=\"0.5\"", |c| c.latency_ms_p50) => "Broadcast-to-result latency in ms, median.";
    "clients.latency_ms_p99"        Client("photon_client_result_latency_ms", ",quantile=\"0.99\"", |c| c.latency_ms_p99) => "Broadcast-to-result latency in ms, 99th percentile.";
    "clients.heartbeat_misses"      Client("photon_client_heartbeat_misses_total", "", |c| Some(c.heartbeat_misses)) => "Heartbeat strikes observed for the client.";
    "clients.reconnects"            Client("photon_client_reconnects_total", "", |c| Some(c.reconnects)) => "Session resumes after a disconnect.";
    "clients.straggler_rounds"      Client("photon_client_straggler_rounds_total", "", |c| Some(c.straggler_rounds)) => "Rounds closed without or past the client's result.";
    "clients.connected"             Client("photon_client_connected", "", |c| Some(u64::from(c.connected))) => "1 when a live connection is registered.";
    "clients.last_round"            Json                                => "Last round with activity from the client.";
};

/// One client's row of the store's table, and its entry in a
/// [`MetricsSnapshot`]: the training columns the aggregator writes beside
/// the transport columns the coordinator writes.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ClientStats {
    /// Rounds this client's result was recorded in.
    pub rounds: u64,
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
    /// Results received (including redelivered duplicates).
    pub results: u64,
    /// Median broadcast-to-result latency; `None` before any result.
    pub latency_ms_p50: Option<u64>,
    /// 99th-percentile broadcast-to-result latency.
    pub latency_ms_p99: Option<u64>,
    /// Heartbeat strikes (each one a missed liveness window).
    pub heartbeat_misses: u64,
    /// Session resumes after a disconnect.
    pub reconnects: u64,
    /// Rounds that closed without, or past, this client's result.
    pub straggler_rounds: u64,
    /// Whether a live connection is registered.
    pub connected: bool,
    /// Last round with any activity from this client.
    pub last_round: u64,
    /// What the means and quantiles above are computed from. The
    /// histogram is boxed and absent until the first sample: a sim run
    /// has 10^5 rows and no latency.
    #[serde(skip)]
    loss_sum: f64,
    #[serde(skip)]
    alignment: (f64, u64),
    #[serde(skip)]
    latency_ms: Option<Box<LogHistogram>>,
}

impl ClientStats {
    /// Records one result's broadcast-to-result latency.
    pub fn observe_latency_ms(&mut self, ms: u64) {
        let samples = self.latency_ms.get_or_insert_with(Box::default);
        samples.record(ms);
        self.latency_ms_p50 = Some(samples.quantile(0.5));
        self.latency_ms_p99 = Some(samples.quantile(0.99));
    }
}

/// Simulated per-delivery latency (network-model runs only).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NetworkMetrics {
    /// Deliveries with a recorded latency.
    pub deliveries: u64,
    /// Median latency; `None` before any delivery.
    pub latency_p50_ms: Option<u64>,
    /// 99th-percentile latency.
    pub latency_p99_ms: Option<u64>,
}

/// Transport health of a multi-process run (all zero in-process).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TransportMetrics {
    /// [`FaultCounters::transport_reconnects`].
    pub reconnects: u64,
    /// [`FaultCounters::heartbeat_misses`].
    pub heartbeat_misses: u64,
    /// [`FaultCounters::session_resumes`].
    pub session_resumes: u64,
    /// [`FaultCounters::coordinator_restarts`].
    pub coordinator_restarts: u64,
    /// [`FaultCounters::redelivery_acks`].
    pub redelivery_acks: u64,
    /// Reconnects per client id, for the clients that have any.
    pub reconnects_by_client: BTreeMap<String, u64>,
}

/// Live view of the sub-aggregator tree: the aggregator writes the tree's
/// shape, its dead shards and the last round's figures into the store, and
/// [`Telemetry::snapshot`] adds the shard counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct HierarchyMetrics {
    /// Shards in the tree.
    pub shards: usize,
    /// Fraction of a shard's slice that must fold before it commits.
    pub shard_quorum_frac: f64,
    /// Residency bound of each shard's streaming merge.
    pub max_resident: usize,
    /// Permanently crashed shards, ascending.
    pub dead_shards: Vec<u32>,
    /// The last round's streaming-merge residency high-water mark.
    pub peak_resident: usize,
    /// The last round's cohort members fostered to a sibling shard.
    pub reparented_clients: usize,
    /// [`FaultCounters::shard_crashes`].
    pub shard_crashes: u64,
    /// [`FaultCounters::shard_hangs`].
    pub shard_hangs: u64,
    /// [`FaultCounters::shard_degraded`].
    pub shard_degraded: u64,
    /// [`FaultCounters::reparented`].
    pub reparented: u64,
}

/// One round of a run's recent-round ring
/// ([`crate::TrainingHistory::recent_rounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct RoundSlot {
    /// Round index.
    pub round: u64,
    /// Results that reached the commit.
    pub received: u32,
    /// Cohort size the round was broadcast to.
    pub cohort: u32,
}

/// Everything a run reports, read from the store in one pass. The store
/// fills the run scalars, `fault_counters`, `clients`, `network`,
/// `transport`, `hierarchy` and, under `serve`, the coordinator's `state`
/// and `sessions`; the training driver adds what only it knows — `round`,
/// `dtype`, `recoveries`, `rollbacks`, `resumed_from`, `history` and the
/// `recent_rounds` derived from it — and a section that does not apply to
/// a run stays `None` (`null`).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Next round the aggregator runs.
    pub round: u64,
    /// Rounds observed, including ones a watchdog rollback neutralized.
    pub rounds_seen: u64,
    /// Distinct rounds whose update was applied; `<= rounds_seen`.
    pub rounds_committed: u64,
    /// The run's compute-thread budget (0 if never recorded).
    pub compute_threads: usize,
    /// Kernel path the CPU runs (`scalar` or `simd`; the same bits).
    pub backend: &'static str,
    /// Storage dtype of checkpoints and wire payloads.
    pub dtype: Option<&'static str>,
    /// Most over least trained client's token count — a fairness and
    /// straggler indicator; `None` while some client has trained nothing.
    pub participation_skew: Option<f64>,
    /// Tokens trained on across the federation.
    pub total_tokens: u64,
    /// Checkpoint restores so far.
    pub recoveries: Option<u32>,
    /// Watchdog rollbacks so far.
    pub rollbacks: Option<u32>,
    /// Coordinator state name (`serve`).
    pub state: Option<&'static str>,
    /// Coordinator state discriminant (`serve`).
    pub state_code: Option<u8>,
    /// Sessions admitted (`serve`).
    pub sessions: Option<u64>,
    /// Checkpointed round this process resumed from.
    pub resumed_from: Option<u64>,
    /// Per-delivery simulated latency.
    pub network: NetworkMetrics,
    /// Transport health.
    pub transport: TransportMetrics,
    /// The sub-aggregator tree; `None` for flat runs.
    pub hierarchy: Option<HierarchyMetrics>,
    /// The history's last rounds, oldest first.
    pub recent_rounds: Option<Vec<RoundSlot>>,
    /// The run's fault, guard, churn, network, transport and shard tallies.
    pub fault_counters: FaultCounters,
    /// The per-client table, keyed by client id.
    pub clients: BTreeMap<String, ClientStats>,
    /// Per-round records that stand.
    pub history: Option<crate::TrainingHistory>,
}

/// The `/health` body: the coordinator-and-clients part of a snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct HealthSnapshot {
    /// Current coordinator round.
    pub round: u64,
    /// Coordinator state discriminant.
    pub state: Option<u8>,
    /// Distinct rounds whose update was applied.
    pub rounds_committed: u64,
    /// One entry per client the coordinator has seen.
    pub clients: BTreeMap<String, ClientStats>,
}

impl MetricsSnapshot {
    /// Keeps what `/health` serves: nothing in it grows with run length.
    pub fn into_health(self) -> HealthSnapshot {
        HealthSnapshot {
            round: self.round,
            state: self.state_code,
            rounds_committed: self.rounds_committed,
            clients: self.clients,
        }
    }

    /// Prometheus text exposition of the snapshot: every [`METRIC_SCHEMA`]
    /// row with a rendering, in schema order — the counters under
    /// `photon_counter_total`, the gauges with a value under `photon_gauge`,
    /// the coordinator's families under `serve` and a sample per client of
    /// each client family. Lint-clean per [`photon_trace::lint_prometheus`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut declared = "";
        for m in METRIC_SCHEMA {
            let named = |value: String| vec![(format!("{{name=\"{}\"}}", m.name), value)];
            let ((family, help), samples): (_, Vec<_>) = match m.kind {
                Counter(get) => (COUNTERS, named(get(&self.fault_counters).to_string())),
                RunCounter(get) => (COUNTERS, named(get(self).to_string())),
                Gauge(get) => match get(self) {
                    Some(value) => (GAUGES, named(value.to_string())),
                    None => continue,
                },
                Coordinator(get) => {
                    let sample = get(self).map(|value| (String::new(), value.to_string()));
                    ((m.name, m.help), sample.into_iter().collect())
                }
                Client(family, labels, get) => {
                    let sample = |(id, c)| {
                        let value = get(c)?.to_string();
                        Some((format!("{{client=\"{id}\"{labels}}}"), value))
                    };
                    (
                        (family, m.help),
                        self.clients.iter().filter_map(sample).collect(),
                    )
                }
                Json => continue,
            };
            if !samples.is_empty() && family != declared {
                // Prometheus naming: a family called `…_total` is a counter.
                let kind = if family.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                };
                let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} {kind}");
                declared = family;
            }
            for (labels, value) in samples {
                let _ = writeln!(out, "{family}{labels} {value}");
            }
        }
        out
    }
}

/// The family every counter row shares, and its help.
const COUNTERS: (&str, &str) = ("photon_counter_total", "Monotonic event counters.");
/// The family every gauge row shares, and its help.
const GAUGES: (&str, &str) = ("photon_gauge", "Derived instantaneous values.");

/// A cheaply clonable, thread-safe handle to the run's one metrics store,
/// shared between the aggregator, the coordinator and observers.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: FaultCounters,
    clients: BTreeMap<u32, ClientStats>,
    rounds_seen: u64,
    /// Distinct round indices whose aggregated update was actually
    /// applied. A set (not a counter) so a post-rollback replay of the
    /// same round is not double-counted within one federation instance.
    committed: BTreeSet<u64>,
    compute_threads: usize,
    /// Observed per-delivery simulated latencies (network model runs
    /// only) as a multiset, latency → deliveries, for the p50/p99 metrics
    /// surface: bounded by the distinct latencies, not the deliveries.
    link_latencies_ms: BTreeMap<u64, u64>,
    /// The coordinator's round, state discriminant and state name, and
    /// the sessions it admitted (`serve` only).
    coordinator: Option<(u64, u8, &'static str)>,
    sessions: Option<u64>,
    /// The shard tree's live view, without the shard counters (runs with
    /// a tree only).
    hierarchy: Option<HierarchyMetrics>,
}

impl Inner {
    /// The `q`-quantile (`0.0..=1.0`) of the observed per-delivery
    /// latencies; `None` before any delivery was recorded.
    fn link_latency_quantile(&self, deliveries: u64, q: f64) -> Option<u64> {
        let last = deliveries.checked_sub(1)?;
        // The index the sorted list of deliveries would be read at.
        let idx = ((last as f64 * q.clamp(0.0, 1.0)).round() as u64).min(last);
        let mut below = 0;
        self.link_latencies_ms.iter().find_map(|(&ms, &n)| {
            below += n;
            (idx < below).then_some(ms)
        })
    }
}

impl Telemetry {
    /// Creates an empty store.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The one write path of the counters: `f` edits them in place.
    pub fn count(&self, f: impl FnOnce(&mut FaultCounters)) {
        f(&mut self.inner.write().counters);
    }

    /// The one write path of the per-client table: `f` edits `id`'s row,
    /// created empty on first touch.
    pub fn client(&self, id: u32, f: impl FnOnce(&mut ClientStats)) {
        f(self.inner.write().clients.entry(id).or_default());
    }

    /// The one write path of the shard tree's live view: `f` edits it,
    /// created empty on first touch. Its shard counters are the
    /// [`FaultCounters`]' and are filled in by [`Telemetry::snapshot`].
    pub fn hierarchy(&self, f: impl FnOnce(&mut HierarchyMetrics)) {
        f(self
            .inner
            .write()
            .hierarchy
            .get_or_insert_with(Default::default));
    }

    /// Records the round metrics of every client `round` heard from, under
    /// one write lock (called once per round by the aggregator). A round
    /// that heard from nobody records nothing.
    pub fn record_round(&self, round: u64, seen: &[(u32, TrainMetrics)]) {
        if seen.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        inner.rounds_seen = inner.rounds_seen.max(round + 1);
        for (id, metrics) in seen {
            let row = inner.clients.entry(*id).or_default();
            row.rounds += 1;
            row.tokens += metrics.tokens;
            row.steps += metrics.steps;
            row.loss_sum += metrics.mean_loss as f64;
            row.mean_loss = (row.loss_sum / row.rounds as f64) as f32;
            row.last_loss = metrics.mean_loss;
        }
    }

    /// Records the cosine alignment of one client's update with the
    /// aggregated round delta.
    pub(crate) fn record_alignment(&self, client_id: u32, cosine: f32) {
        self.client(client_id, |row| {
            row.alignment.0 += cosine as f64;
            row.alignment.1 += 1;
            row.mean_alignment = (row.alignment.0 / row.alignment.1 as f64) as f32;
        });
    }

    /// Records the run's compute-thread budget (its client lanes and
    /// kernel chunks). Logged once at startup by drivers so operators can
    /// correlate throughput with parallelism.
    pub fn record_compute_threads(&self, threads: usize) {
        self.inner.write().compute_threads = threads;
    }

    /// Records one delivery's total simulated latency (in-flight time plus
    /// backoff and reorder delay) for the p50/p99 metrics surface.
    pub(crate) fn record_link_latency(&self, latency_ms: u64) {
        let mut inner = self.inner.write();
        *inner.link_latencies_ms.entry(latency_ms).or_insert(0) += 1;
    }

    /// Marks `round` as *committed*: it completed and its aggregated
    /// update was applied (not neutralized by a watchdog rollback).
    /// Idempotent per round, so a replay after recovery counts once.
    pub fn record_committed_round(&self, round: u64) {
        self.inner.write().committed.insert(round);
    }

    /// Publishes the coordinator's current round and state (discriminant
    /// and name).
    pub fn set_coordinator(&self, round: u64, state: u8, name: &'static str) {
        self.inner.write().coordinator = Some((round, state, name));
    }

    /// Publishes how many client sessions the coordinator has admitted.
    pub fn set_sessions(&self, sessions: u64) {
        self.inner.write().sessions = Some(sessions);
    }

    /// The run's accumulated fault counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.inner.read().counters
    }

    /// The one read path: everything the store holds, copied out under
    /// the lock in one pass over the client table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        let f = inner.counters;
        let (mut lo, mut hi, mut total_tokens) = (u64::MAX, 0, 0);
        let mut reconnects_by_client = BTreeMap::new();
        let mut clients = BTreeMap::new();
        for (id, row) in &inner.clients {
            lo = lo.min(row.tokens);
            hi = hi.max(row.tokens);
            total_tokens += row.tokens;
            if row.reconnects > 0 {
                reconnects_by_client.insert(id.to_string(), row.reconnects);
            }
            clients.insert(id.to_string(), row.clone());
        }
        let deliveries = inner.link_latencies_ms.values().sum();
        let quantile = |q| inner.link_latency_quantile(deliveries, q);
        MetricsSnapshot {
            round: inner.coordinator.map_or(0, |c| c.0),
            rounds_seen: inner.rounds_seen,
            rounds_committed: inner.committed.len() as u64,
            compute_threads: inner.compute_threads,
            backend: photon_tensor::backend::active_name(),
            participation_skew: match (lo, hi) {
                (_, 0) => Some(1.0),
                (0, _) => None,
                _ => Some(hi as f64 / lo as f64),
            },
            total_tokens,
            state_code: inner.coordinator.map(|c| c.1),
            state: inner.coordinator.map(|c| c.2),
            sessions: inner.sessions,
            network: NetworkMetrics {
                deliveries,
                latency_p50_ms: quantile(0.5),
                latency_p99_ms: quantile(0.99),
            },
            transport: TransportMetrics {
                reconnects: f.transport_reconnects,
                heartbeat_misses: f.heartbeat_misses,
                session_resumes: f.session_resumes,
                coordinator_restarts: f.coordinator_restarts,
                redelivery_acks: f.redelivery_acks,
                reconnects_by_client,
            },
            hierarchy: inner.hierarchy.clone().map(|tree| HierarchyMetrics {
                shard_crashes: f.shard_crashes,
                shard_hangs: f.shard_hangs,
                shard_degraded: f.shard_degraded,
                reparented: f.reparented,
                ..tree
            }),
            fault_counters: f,
            clients,
            ..MetricsSnapshot::default()
        }
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

    /// The value of the counter exported as `name`.
    fn row(t: &Telemetry, name: &str) -> u64 {
        let rows = t.fault_counters();
        let found = rows.rows().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("no counter {name}")).1
    }

    #[test]
    fn records_and_summarizes() {
        let t = Telemetry::new();
        t.record_round(0, &[(0, metrics(3.0, 800)), (1, metrics(2.0, 800))]);
        t.record_round(1, &[(0, metrics(1.0, 800))]);
        // A round that heard from nobody is not a round seen.
        t.record_round(2, &[]);
        let snapshot = t.snapshot();
        assert_eq!(snapshot.rounds_seen, 2);
        assert_eq!(snapshot.total_tokens, 2400);
        assert_eq!(snapshot.clients.len(), 2);
        let s0 = &snapshot.clients["0"];
        assert_eq!(s0.rounds, 2);
        assert_eq!(s0.mean_loss, 2.0);
        assert_eq!(s0.last_loss, 1.0);
        assert_eq!(s0.tokens, 1600);
    }

    #[test]
    fn alignment_averages() {
        let t = Telemetry::new();
        t.record_round(0, &[(0, metrics(1.0, 8))]);
        t.record_alignment(0, 0.8);
        t.record_alignment(0, 0.4);
        assert!((t.snapshot().clients["0"].mean_alignment - 0.6).abs() < 1e-6);
    }

    #[test]
    fn compute_threads_round_trips() {
        let t = Telemetry::new();
        assert_eq!(t.snapshot().compute_threads, 0);
        t.record_compute_threads(8);
        assert_eq!(t.snapshot().compute_threads, 8);
    }

    #[test]
    fn fault_counters_accumulate() {
        let t = Telemetry::new();
        assert_eq!(t.fault_counters(), FaultCounters::default());
        let round = |crashes, stragglers, retransmits, link_dropouts| {
            t.count(|f| {
                f.crashes += crashes;
                f.stragglers += stragglers;
                f.retransmits += retransmits;
                f.link_dropouts += link_dropouts;
            })
        };
        round(1, 2, 5, 0);
        round(0, 1, 3, 1);
        t.count(|f| f.recoveries += 1);
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
        let guard = |nonfinite, outliers, clipped, skips| {
            t.count(|f| {
                f.rejected_nonfinite += nonfinite;
                f.rejected_outliers += outliers;
                f.norm_clipped += clipped;
                f.quarantine_skips += skips;
            })
        };
        guard(1, 2, 3, 4);
        guard(1, 0, 0, 1);
        t.count(|f| f.rollbacks += 1);
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
        t.count(|f| {
            f.joins += 1;
            f.lease_expiries += 2;
            f.rejoins += 1;
        });
        t.count(|f| f.leaves += 1);
        for stale in [0, 3] {
            t.count(|f| {
                f.buffered_commits += 1;
                f.stale_commits += stale;
            });
        }
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
        t.count(|f| {
            f.shard_crashes += 1;
            f.shard_hangs += 2;
            f.shard_degraded += 1;
        });
        t.count(|f| f.shard_degraded += 1);
        t.count(|f| f.reparented += 25);
        let f = t.fault_counters();
        assert_eq!(f.shard_crashes, 1);
        assert_eq!(f.shard_hangs, 2);
        assert_eq!(f.shard_degraded, 2);
        assert_eq!(f.reparented, 25);
        assert_eq!(row(&t, "hierarchy.shard_crashes"), 1);
    }

    #[test]
    fn network_counters_and_latency_quantiles_accumulate() {
        let t = Telemetry::new();
        assert_eq!(t.snapshot().network.latency_p50_ms, None);
        t.count(|f| {
            f.link_duplicates += 1;
            f.dup_drops += 1;
            f.partition_drops += 4;
        });
        t.count(|f| f.link_duplicates += 1);
        t.count(|f| f.degraded_rounds += 1);
        t.count(|f| f.degraded_rounds += 1);
        t.count(|f| f.degraded_recoveries += 1);
        let f = t.fault_counters();
        assert_eq!(f.link_duplicates, 2);
        assert_eq!(f.dup_drops, 1);
        assert_eq!(f.partition_drops, 4);
        assert_eq!(f.degraded_rounds, 2);
        assert_eq!(f.degraded_recoveries, 1);
        for ms in [10, 50, 20, 40, 30] {
            t.record_link_latency(ms);
        }
        let quantile = |t: &Telemetry, q| {
            let inner = t.inner.read();
            inner.link_latency_quantile(inner.link_latencies_ms.values().sum(), q)
        };
        assert_eq!(t.snapshot().network.deliveries, 5);
        assert_eq!(t.snapshot().network.latency_p50_ms, Some(30));
        assert_eq!(quantile(&t, 0.0), Some(10));
        assert_eq!(quantile(&t, 1.0), Some(50));

        // 10^5 deliveries: every quantile equals the sorted list's.
        let t = Telemetry::new();
        let mut sorted: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53)
            .collect();
        sorted.iter().for_each(|&ms| t.record_link_latency(ms));
        sorted.sort_unstable();
        assert_eq!(t.snapshot().network.deliveries, sorted.len() as u64);
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let idx = (((sorted.len() - 1) as f64) * q).round() as usize;
            assert_eq!(quantile(&t, q), Some(sorted[idx]), "q = {q}");
        }
    }

    #[test]
    fn counters_snapshot_uses_stable_names() {
        let t = Telemetry::new();
        t.count(|f| {
            f.crashes += 2;
            f.retransmits += 1;
        });
        t.count(|f| {
            f.buffered_commits += 1;
            f.stale_commits += 1;
        });
        assert_eq!(row(&t, "faults.crashes"), 2);
        assert_eq!(row(&t, "faults.retransmits"), 1);
        assert_eq!(row(&t, "buffer.commits"), 1);
        assert_eq!(row(&t, "buffer.stale_commits"), 1);
        assert_eq!(row(&t, "faults.stragglers"), 0);
    }

    #[test]
    fn committed_rounds_lag_seen_rounds_after_neutralization() {
        let t = Telemetry::new();
        // Rounds 0..5 are observed; round 3 diverges and is neutralized on
        // replay, so it is seen but never committed.
        for r in 0..5u64 {
            t.record_round(r, &[(0, metrics(1.0, 8))]);
            if r != 3 {
                t.record_committed_round(r);
            }
        }
        assert_eq!(t.snapshot().rounds_seen, 5);
        assert_eq!(t.snapshot().rounds_committed, 4);
        // A replay of an already-committed round (recovery re-running the
        // post-checkpoint suffix) must not double-count.
        t.record_committed_round(4);
        assert_eq!(t.snapshot().rounds_committed, 4);
    }

    #[test]
    fn skew_detects_unequal_participation() {
        let t = Telemetry::new();
        t.record_round(0, &[(0, metrics(1.0, 1000)), (1, metrics(1.0, 250))]);
        assert_eq!(t.snapshot().participation_skew, Some(4.0));
        let empty = Telemetry::new();
        assert_eq!(empty.snapshot().participation_skew, Some(1.0));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for c in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for r in 0..50 {
                        t.record_round(r, &[(c, metrics(1.0, 10))]);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().total_tokens, 4 * 50 * 10);
        assert_eq!(t.snapshot().rounds_seen, 50);
    }
}
