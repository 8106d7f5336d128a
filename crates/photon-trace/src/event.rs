//! Trace phases and the fixed-size event record.

/// Maximum number of numeric args an event carries.
pub(crate) const MAX_ARGS: usize = 4;

/// Every instrumented phase of a federated run. The variants cover the
/// full round anatomy: orchestration, per-client local compute (down to
/// individual kernels), Link traffic, aggregation-side screening and
/// merging, and durability operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One federated round, end to end (driver thread).
    Round,
    /// One client's local training for a round (client thread).
    LocalStep,
    /// A GEMM kernel dispatch.
    KernelGemm,
    /// An attention forward/backward kernel.
    KernelAttention,
    /// A layernorm forward/backward kernel.
    KernelLayerNorm,
    /// A worker-pool task batch (dispatch + barrier wait).
    PoolDispatch,
    /// Model broadcast framing on the aggregator side.
    Broadcast,
    /// One result-frame delivery across the simulated Link (incl. retries).
    LinkDeliver,
    /// A Link retransmission after a CRC failure.
    LinkRetransmit,
    /// Guard admission screening of a cohort.
    GuardScreen,
    /// Robust (or plain) aggregation of admitted updates.
    RobustMerge,
    /// A staleness-aware buffered-aggregation commit.
    BufferCommit,
    /// Server-optimizer application of the aggregated delta.
    ServerOpt,
    /// Checkpoint save.
    CheckpointSave,
    /// Checkpoint restore.
    CheckpointRestore,
    /// A watchdog rollback to the last-good checkpoint.
    Rollback,
    /// Validation-perplexity evaluation.
    Eval,
    /// A delivery severed by an active network partition.
    NetPartition,
    /// A round run in degraded mode (below the reachability quorum).
    DegradedRound,
    /// A reconnecting client resumed its session (lease and in-flight
    /// round carried over instead of re-admission).
    SessionResume,
    /// A coordinator crash-restart: state machine restored from the
    /// checkpoint and live clients re-synchronized.
    CoordRestart,
    /// One sub-aggregator shard's streaming merge of its cohort slice.
    ShardMerge,
    /// A shard slice dropped this round (crash, hang or quorum miss).
    ShardDegraded,
    /// A traced wire frame leaving this process (`photon-net` send).
    NetSend,
    /// A traced wire frame arriving at this process (`photon-net` recv).
    NetRecv,
    /// One payload CRC verification of a received frame.
    CrcCheck,
}

/// Coarse roll-up groups for the phase-profile report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseGroup {
    /// Local training compute (client steps and kernels).
    Compute,
    /// Link traffic (broadcast, delivery, retransmits).
    Comms,
    /// Aggregator-side screening, merging and optimizer application.
    Aggregation,
    /// Checkpoint save/restore and rollbacks.
    Durability,
    /// Validation evaluation.
    Eval,
    /// Round orchestration overhead (everything not in a child span).
    Orchestration,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 26] = [
        Phase::Round,
        Phase::LocalStep,
        Phase::KernelGemm,
        Phase::KernelAttention,
        Phase::KernelLayerNorm,
        Phase::PoolDispatch,
        Phase::Broadcast,
        Phase::LinkDeliver,
        Phase::LinkRetransmit,
        Phase::GuardScreen,
        Phase::RobustMerge,
        Phase::BufferCommit,
        Phase::ServerOpt,
        Phase::CheckpointSave,
        Phase::CheckpointRestore,
        Phase::Rollback,
        Phase::Eval,
        Phase::NetPartition,
        Phase::DegradedRound,
        Phase::SessionResume,
        Phase::CoordRestart,
        Phase::ShardMerge,
        Phase::ShardDegraded,
        Phase::NetSend,
        Phase::NetRecv,
        Phase::CrcCheck,
    ];

    /// Stable snake_case name (used as the JSONL `name` default, the
    /// Prometheus `phase` label and the report row).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::LocalStep => "local_step",
            Phase::KernelGemm => "kernel_gemm",
            Phase::KernelAttention => "kernel_attention",
            Phase::KernelLayerNorm => "kernel_layernorm",
            Phase::PoolDispatch => "pool_dispatch",
            Phase::Broadcast => "broadcast",
            Phase::LinkDeliver => "link_deliver",
            Phase::LinkRetransmit => "link_retransmit",
            Phase::GuardScreen => "guard_screen",
            Phase::RobustMerge => "robust_merge",
            Phase::BufferCommit => "buffer_commit",
            Phase::ServerOpt => "server_opt",
            Phase::CheckpointSave => "checkpoint_save",
            Phase::CheckpointRestore => "checkpoint_restore",
            Phase::Rollback => "rollback",
            Phase::Eval => "eval",
            Phase::NetPartition => "net_partition",
            Phase::DegradedRound => "degraded_round",
            Phase::SessionResume => "session_resume",
            Phase::CoordRestart => "coord_restart",
            Phase::ShardMerge => "shard_merge",
            Phase::ShardDegraded => "shard_degraded",
            Phase::NetSend => "net_send",
            Phase::NetRecv => "net_recv",
            Phase::CrcCheck => "crc_check",
        }
    }

    /// The roll-up group this phase reports under.
    pub fn group(self) -> PhaseGroup {
        match self {
            Phase::Round | Phase::DegradedRound => PhaseGroup::Orchestration,
            Phase::LocalStep
            | Phase::KernelGemm
            | Phase::KernelAttention
            | Phase::KernelLayerNorm
            | Phase::PoolDispatch => PhaseGroup::Compute,
            Phase::Broadcast
            | Phase::LinkDeliver
            | Phase::LinkRetransmit
            | Phase::NetPartition
            | Phase::SessionResume
            | Phase::NetSend
            | Phase::NetRecv
            | Phase::CrcCheck => PhaseGroup::Comms,
            Phase::GuardScreen
            | Phase::RobustMerge
            | Phase::BufferCommit
            | Phase::ServerOpt
            | Phase::ShardMerge
            | Phase::ShardDegraded => PhaseGroup::Aggregation,
            Phase::CheckpointSave
            | Phase::CheckpointRestore
            | Phase::Rollback
            | Phase::CoordRestart => PhaseGroup::Durability,
            Phase::Eval => PhaseGroup::Eval,
        }
    }

    /// Whether spans of this phase emit JSONL events. Kernel-level spans
    /// are profile-only unless `kernel_events` is enabled (they dominate
    /// event volume); pool dispatch batches and CRC checks are always
    /// profile-only.
    pub(crate) fn emits_event(self, kernel_events: bool) -> bool {
        match self {
            Phase::KernelGemm | Phase::KernelAttention | Phase::KernelLayerNorm => kernel_events,
            Phase::PoolDispatch | Phase::CrcCheck => false,
            _ => true,
        }
    }
}

impl PhaseGroup {
    /// Every group, in report order.
    pub const ALL: [PhaseGroup; 6] = [
        PhaseGroup::Compute,
        PhaseGroup::Comms,
        PhaseGroup::Aggregation,
        PhaseGroup::Durability,
        PhaseGroup::Eval,
        PhaseGroup::Orchestration,
    ];

    /// Stable name (the JSONL `cat` field and report row).
    pub fn name(self) -> &'static str {
        match self {
            PhaseGroup::Compute => "compute",
            PhaseGroup::Comms => "comms",
            PhaseGroup::Aggregation => "aggregation",
            PhaseGroup::Durability => "durability",
            PhaseGroup::Eval => "eval",
            PhaseGroup::Orchestration => "orchestration",
        }
    }
}

/// Chrome-tracing event kind (`ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A complete span (`ph: "X"`).
    Span,
    /// An instantaneous marker (`ph: "i"`).
    Instant,
}

impl EventKind {
    fn ph(self) -> char {
        match self {
            EventKind::Span => 'X',
            EventKind::Instant => 'i',
        }
    }
}

/// One recorded trace event. Fixed-size (no heap) so the hot path never
/// allocates; names are `&'static str` identifiers (no JSON escaping).
///
/// The derived `Ord` compares fields in declaration order — timestamp,
/// actor lane, per-shard sequence, then content — which is exactly the
/// deterministic order [`crate::flush`] sorts by before writing, so a
/// simulated run's trace file is independent of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Timestamp in microseconds (simulated or monotonic).
    pub ts_us: u64,
    /// Logical lane: 0 = aggregator/driver, `1 + c` = client `c`.
    pub actor: u32,
    /// Per-shard emission sequence (deterministic tie-break; the trace
    /// line itself does not include it).
    pub seq: u64,
    /// Phase bucket.
    pub phase: Phase,
    /// Event name.
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Duration in microseconds (0 for instants; in Sim mode the
    /// deterministic simulated duration, not the measured one).
    pub dur_us: u64,
    /// Up to `MAX_ARGS` numeric args; unused slots are `("", 0)`.
    pub args: [(&'static str, u64); MAX_ARGS],
}

impl Event {
    /// Serializes the event as one chrome://tracing JSON object line (no
    /// trailing newline) under `pid`. Single-process traces write `pid: 0`
    /// and keep their historical byte-identical shape; each process in a
    /// multi-process run writes shard lines under its own OS pid, so
    /// `photon trace merge` can lane the merged timeline.
    pub(crate) fn to_json_line(&self, pid: u32) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"name\":\"");
        line.push_str(self.name);
        line.push_str("\",\"cat\":\"");
        line.push_str(self.phase.group().name());
        line.push_str("\",\"ph\":\"");
        line.push(self.kind.ph());
        line.push_str("\",\"ts\":");
        line.push_str(&self.ts_us.to_string());
        if self.kind == EventKind::Span {
            line.push_str(",\"dur\":");
            line.push_str(&self.dur_us.to_string());
        }
        line.push_str(",\"pid\":");
        line.push_str(&pid.to_string());
        line.push_str(",\"tid\":");
        line.push_str(&self.actor.to_string());
        let mut first = true;
        for (k, v) in self.args.iter().filter(|(k, _)| !k.is_empty()) {
            line.push_str(if first { ",\"args\":{" } else { "," });
            first = false;
            line.push('"');
            line.push_str(k);
            line.push_str("\":");
            line.push_str(&v.to_string());
        }
        if !first {
            line.push('}');
        }
        line.push('}');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let e = Event {
            ts_us: 1_000,
            actor: 3,
            seq: 7,
            phase: Phase::LocalStep,
            name: "local_step",
            kind: EventKind::Span,
            dur_us: 250,
            args: [("tokens", 2048), ("steps", 16), ("", 0), ("", 0)],
        };
        assert_eq!(
            e.to_json_line(0),
            "{\"name\":\"local_step\",\"cat\":\"compute\",\"ph\":\"X\",\"ts\":1000,\
             \"dur\":250,\"pid\":0,\"tid\":3,\"args\":{\"tokens\":2048,\"steps\":16}}"
        );
    }

    #[test]
    fn pid_aware_line_differs_only_in_pid() {
        let e = Event {
            ts_us: 9,
            actor: 1,
            seq: 0,
            phase: Phase::NetSend,
            name: "net_send",
            kind: EventKind::Instant,
            dur_us: 0,
            args: [("seq", 4), ("", 0), ("", 0), ("", 0)],
        };
        let with_pid = e.to_json_line(4242);
        assert!(with_pid.contains("\"pid\":4242"));
        assert_eq!(
            with_pid.replace("\"pid\":4242", "\"pid\":0"),
            e.to_json_line(0)
        );
        assert!(e.to_json_line(0).contains("\"cat\":\"comms\""));
    }

    #[test]
    fn instant_has_no_dur_and_no_args_key_when_empty() {
        let e = Event {
            ts_us: 5,
            actor: 0,
            seq: 0,
            phase: Phase::Rollback,
            name: "rollback",
            kind: EventKind::Instant,
            dur_us: 0,
            args: [("", 0); MAX_ARGS],
        };
        let line = e.to_json_line(0);
        assert!(!line.contains("\"dur\":"));
        assert!(!line.contains("args"));
        assert!(line.contains("\"ph\":\"i\""));
    }

    #[test]
    fn ordering_is_ts_actor_seq_first() {
        let mk = |ts, actor, seq| Event {
            ts_us: ts,
            actor,
            seq,
            phase: Phase::Round,
            name: "round",
            kind: EventKind::Span,
            dur_us: 0,
            args: [("", 0); MAX_ARGS],
        };
        let mut v = [mk(2, 0, 0), mk(1, 5, 9), mk(1, 0, 1), mk(1, 0, 0)];
        v.sort();
        assert_eq!(
            v.iter()
                .map(|e| (e.ts_us, e.actor, e.seq))
                .collect::<Vec<_>>(),
            vec![(1, 0, 0), (1, 0, 1), (1, 5, 9), (2, 0, 0)]
        );
    }

    #[test]
    fn every_phase_has_a_distinct_name_and_a_group() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
        for p in Phase::ALL {
            let _ = p.group().name();
        }
    }
}
