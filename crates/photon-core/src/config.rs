use crate::hierarchy::HierarchyConfig;
use crate::membership::MembershipConfig;
use photon_comms::{AdaptiveDeadlineConfig, NetworkConfig, RetransmitPolicy};
use photon_fedopt::{AggregationKind, BufferConfig, GuardConfig, ServerOptKind};
use photon_nn::{ModelConfig, PosEncoding};
use photon_optim::{AdamWConfig, LrSchedule};
use photon_tensor::Dtype;
use serde::{Deserialize, Serialize};

/// Cohort selection policy (Algorithm 1, L.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CohortSpec {
    /// All clients every round.
    Full,
    /// `k` clients sampled uniformly without replacement.
    Sample {
        /// Clients per round.
        k: usize,
    },
}

/// Full specification of a federated pre-training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Model architecture.
    pub model: ModelConfig,
    /// Positional scheme (ALiBi by default, matching the paper's MPT
    /// models; learned absolute embeddings demonstrate §5.1's "our system
    /// could train any LLM architecture").
    #[serde(default)]
    pub positions: PosEncoding,
    /// Total client population `P`.
    pub population: usize,
    /// Cohort policy.
    pub cohort: CohortSpec,
    /// Local steps per round τ.
    pub local_steps: u64,
    /// Local (per-client) batch size `B_l`.
    pub local_batch: usize,
    /// Server optimizer.
    pub server_opt: ServerOptKind,
    /// Pseudo-gradient aggregation rule (Algorithm 1, L.8).
    #[serde(default)]
    pub aggregation: AggregationKind,
    /// Per-update admission checks (finiteness, norm clip, cohort outlier
    /// rejection) with client quarantine. Disabled by default; incompatible
    /// with secure aggregation (the server cannot inspect masked updates).
    #[serde(default)]
    pub guard: GuardConfig,
    /// Loss-spike watchdog threshold: declare divergence when a round's
    /// mean client loss (or pseudo-gradient norm) exceeds this multiple of
    /// its EMA. Non-finite aggregates always trip the watchdog. `None`
    /// disables the EMA checks.
    #[serde(default)]
    pub loss_spike_mult: Option<f64>,
    /// Client optimizer hyperparameters (AdamW). Local optimization is
    /// stateless (Appendix A): every client round starts from fresh moments,
    /// so a client rebuilt after a crash replays any round exactly.
    pub adamw: AdamWConfig,
    /// Client learning-rate schedule over *sequential* local steps
    /// (Table 5: `S_C` synchronized across rounds).
    pub schedule: LrSchedule,
    /// Global-norm gradient clipping during local training.
    pub grad_clip: Option<f32>,
    /// Compress Link payloads (Photon default: lossless, §4).
    pub compress_link: bool,
    /// Mask updates with cancelling pairwise masks (secure aggregation).
    /// Requires uniform aggregation weights.
    pub secure_agg: bool,
    /// Tolerate client dropouts mid-round: aggregate the surviving
    /// cohort's updates instead of failing the round (§4's
    /// parameter-server dropout semantics). Incompatible with the
    /// simplified secure aggregation (masks would not cancel).
    #[serde(default)]
    pub allow_partial_results: bool,
    /// Round deadline in simulated milliseconds: a client whose result
    /// arrives later (straggle delay plus link backoff) is dropped into the
    /// §4 partial-update path instead of stalling the round. `None`
    /// disables the straggler policy (every result waits).
    #[serde(default)]
    pub round_deadline_ms: Option<u64>,
    /// Link retransmission budget for CRC-failed result frames.
    #[serde(default)]
    pub retransmit: RetransmitPolicy,
    /// Deterministic simulated network: per-link latency/jitter/bandwidth,
    /// loss, duplication and reordering, plus the quorum threshold for
    /// partition-aware graceful degradation. `None` keeps links ideal.
    #[serde(default)]
    pub network: Option<NetworkConfig>,
    /// Adaptive round deadline: a percentile of observed per-client
    /// delivery latencies with a floor/ceiling, replacing the static
    /// `round_deadline_ms` (set only one).
    #[serde(default)]
    pub adaptive_deadline: Option<AdaptiveDeadlineConfig>,
    /// Elastic membership: when set, the fixed population becomes a
    /// *founding* roster managed by a lease-based membership registry —
    /// clients join, leave and expire mid-run, driven by the fault plan.
    /// The one liveness model: without it every client is always up.
    #[serde(default)]
    pub membership: Option<MembershipConfig>,
    /// FedBuff-style buffered semi-synchronous aggregation: commit a merge
    /// once a quorum of updates is buffered, down-weighting stale arrivals.
    /// Requires `membership`.
    #[serde(default)]
    pub buffer: Option<BufferConfig>,
    /// Hierarchical aggregation: leaf clients report to sub-aggregator
    /// shards that fold their cohort slice through a streaming,
    /// memory-bounded merge and reduce upward to the root. A shard crash
    /// degrades that shard (its orphans are re-parented next round)
    /// instead of the round. `None` keeps the flat single-level merge.
    #[serde(default)]
    pub hierarchy: Option<HierarchyConfig>,
    /// Storage precision for parameters at rest (checkpoints) and float
    /// payloads on the Link. Compute and accumulation stay f32 (master
    /// weights); bf16 halves checkpoint and wire bytes. Incompatible with
    /// `compress_link` (the codec is specified over 4-byte lanes) and
    /// `secure_agg` (pairwise masks only cancel under exact arithmetic).
    #[serde(default)]
    pub dtype: Dtype,
    /// Root seed for the whole run.
    pub seed: u64,
}

impl FederationConfig {
    /// A fast-converging configuration for demos and tests: `n_clients`
    /// with full participation, 16 local steps, batch 8.
    pub fn quick_demo(model: ModelConfig, n_clients: usize) -> Self {
        FederationConfig {
            model,
            positions: PosEncoding::Alibi,
            population: n_clients,
            cohort: CohortSpec::Full,
            local_steps: 16,
            local_batch: 8,
            server_opt: ServerOptKind::photon_default(),
            aggregation: AggregationKind::Mean,
            guard: GuardConfig::default(),
            loss_spike_mult: None,
            adamw: AdamWConfig::default(),
            schedule: LrSchedule::paper_cosine(3e-3, 20, 4000),
            grad_clip: Some(1.0),
            compress_link: false,
            secure_agg: false,
            allow_partial_results: false,
            round_deadline_ms: None,
            retransmit: RetransmitPolicy::default(),
            network: None,
            adaptive_deadline: None,
            membership: None,
            buffer: None,
            hierarchy: None,
            dtype: Dtype::F32,
            seed: 42,
        }
    }

    /// Number of clients participating each round.
    pub fn cohort_size(&self) -> usize {
        match self.cohort {
            CohortSpec::Full => self.population,
            CohortSpec::Sample { k } => k.min(self.population),
        }
    }

    /// Effective global batch size `B_g = N · B_l` (§5.3).
    pub fn global_batch(&self) -> usize {
        self.cohort_size() * self.local_batch
    }

    /// Link encoding options derived from this config (compression flag
    /// plus wire storage precision).
    pub fn wire_opts(&self) -> photon_comms::WireOpts {
        photon_comms::WireOpts {
            compress: self.compress_link,
            dtype: self.dtype,
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::InvalidConfig`] describing the problem.
    pub fn validate(&self) -> crate::Result<()> {
        self.model
            .check()
            .map_err(crate::CoreError::InvalidConfig)?;
        if self.population == 0 {
            return Err(crate::CoreError::InvalidConfig("population is zero".into()));
        }
        if let CohortSpec::Sample { k } = self.cohort {
            if k == 0 {
                return Err(crate::CoreError::InvalidConfig("cohort k is zero".into()));
            }
        }
        if self.local_steps == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "local_steps is zero".into(),
            ));
        }
        if self.local_batch == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "local_batch is zero".into(),
            ));
        }
        if self.secure_agg && self.allow_partial_results {
            return Err(crate::CoreError::InvalidConfig(
                "secure aggregation cannot tolerate dropouts (masks would not cancel)".into(),
            ));
        }
        if self.secure_agg && self.round_deadline_ms.is_some() {
            // Dropping stragglers removes their masks from the sum, which
            // would leave the aggregate garbled.
            return Err(crate::CoreError::InvalidConfig(
                "secure aggregation cannot drop stragglers (round_deadline_ms must be None)".into(),
            ));
        }
        if self.secure_agg && matches!(self.cohort, CohortSpec::Sample { .. }) {
            // Simplified secure aggregation has no dropout recovery; the
            // full Bonawitz protocol would be needed for partial cohorts.
            return Err(crate::CoreError::InvalidConfig(
                "secure aggregation requires full participation".into(),
            ));
        }
        self.aggregation
            .validate()
            .map_err(crate::CoreError::InvalidConfig)?;
        self.guard
            .validate()
            .map_err(crate::CoreError::InvalidConfig)?;
        if self.secure_agg && self.guard.enabled {
            return Err(crate::CoreError::InvalidConfig(
                "the update guard cannot inspect masked updates (disable secure_agg or guard)"
                    .into(),
            ));
        }
        if self.secure_agg && self.aggregation != AggregationKind::Mean {
            // Masked updates only cancel under plain summation; order
            // statistics over masked coordinates are meaningless.
            return Err(crate::CoreError::InvalidConfig(
                "secure aggregation requires mean aggregation".into(),
            ));
        }
        if let Some(mult) = self.loss_spike_mult {
            if !(mult.is_finite() && mult > 1.0) {
                return Err(crate::CoreError::InvalidConfig(format!(
                    "loss_spike_mult {mult} must be finite and > 1"
                )));
            }
        }
        if let Some(membership) = &self.membership {
            membership
                .validate()
                .map_err(crate::CoreError::InvalidConfig)?;
            if self.secure_agg {
                // Pairwise masks assume a roster fixed at key agreement;
                // mid-run joins/leaves would leave masks uncancelled.
                return Err(crate::CoreError::InvalidConfig(
                    "secure aggregation requires a fixed roster (disable membership)".into(),
                ));
            }
        }
        if let Some(buffer) = &self.buffer {
            buffer.validate().map_err(crate::CoreError::InvalidConfig)?;
            if self.membership.is_none() {
                return Err(crate::CoreError::InvalidConfig(
                    "buffered aggregation requires membership (set membership)".into(),
                ));
            }
        }
        if let Some(network) = &self.network {
            network
                .validate()
                .map_err(crate::CoreError::InvalidConfig)?;
            if self.secure_agg {
                // Partitions and degraded rounds drop results,
                // which the simplified secure aggregation cannot survive.
                return Err(crate::CoreError::InvalidConfig(
                    "secure aggregation cannot run over a chaotic network (disable one)".into(),
                ));
            }
        }
        if let Some(adaptive) = &self.adaptive_deadline {
            adaptive
                .validate()
                .map_err(crate::CoreError::InvalidConfig)?;
            if self.round_deadline_ms.is_some() {
                return Err(crate::CoreError::InvalidConfig(
                    "adaptive_deadline replaces round_deadline_ms (set only one)".into(),
                ));
            }
            if self.secure_agg {
                return Err(crate::CoreError::InvalidConfig(
                    "secure aggregation cannot drop stragglers (disable adaptive_deadline)".into(),
                ));
            }
        }
        if let Some(hierarchy) = &self.hierarchy {
            hierarchy
                .validate()
                .map_err(crate::CoreError::InvalidConfig)?;
            if self.secure_agg {
                // Sub-aggregators would have to sum masked slices whose
                // pairwise masks span shard boundaries; nothing cancels.
                return Err(crate::CoreError::InvalidConfig(
                    "secure aggregation cannot run through sub-aggregator shards".into(),
                ));
            }
        }
        if self.dtype == Dtype::Bf16 {
            if self.compress_link {
                // The byte-shuffle/zero-RLE codec is specified over 4-byte
                // f32 lanes; layering it over bf16 would silently misframe.
                return Err(crate::CoreError::InvalidConfig(
                    "bf16 wire mode is incompatible with compress_link (pick one)".into(),
                ));
            }
            if self.secure_agg {
                // Pairwise masks cancel only under exact arithmetic; bf16
                // rounding of masked values would leave residual noise.
                return Err(crate::CoreError::InvalidConfig(
                    "bf16 wire mode is incompatible with secure aggregation".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_is_valid() {
        let cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.validate().unwrap();
        assert_eq!(cfg.cohort_size(), 4);
        assert_eq!(cfg.global_batch(), 32);
    }

    #[test]
    fn sampled_cohort_sizes() {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 16);
        cfg.cohort = CohortSpec::Sample { k: 4 };
        assert_eq!(cfg.cohort_size(), 4);
        cfg.cohort = CohortSpec::Sample { k: 99 };
        assert_eq!(cfg.cohort_size(), 16);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.population = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.local_steps = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.secure_agg = true;
        cfg.cohort = CohortSpec::Sample { k: 2 };
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.secure_agg = true;
        cfg.round_deadline_ms = Some(500);
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.secure_agg = true;
        cfg.guard = GuardConfig::on();
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.secure_agg = true;
        cfg.aggregation = AggregationKind::Median;
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.loss_spike_mult = Some(1.0);
        assert!(cfg.validate().is_err());
        cfg.loss_spike_mult = Some(3.0);
        cfg.validate().unwrap();

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.guard = GuardConfig {
            zscore_threshold: 0.0,
            ..GuardConfig::on()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.dtype = Dtype::Bf16;
        cfg.compress_link = true;
        assert!(cfg.validate().is_err());
        cfg.compress_link = false;
        cfg.validate().unwrap();
        cfg.secure_agg = true;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn guarded_robust_config_is_valid() {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.guard = GuardConfig::on();
        cfg.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.25 };
        cfg.loss_spike_mult = Some(4.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn deadline_and_retransmit_default_off() {
        let cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        assert_eq!(cfg.round_deadline_ms, None);
        assert_eq!(cfg.retransmit, RetransmitPolicy::default());
        assert_eq!(cfg.network, None);
        assert_eq!(cfg.adaptive_deadline, None);
        // Configs serialized before these fields existed still load.
        let json = serde_json::to_string(&cfg)
            .unwrap()
            .replace("\"round_deadline_ms\":null,", "")
            .replace("\"retransmit\":{\"max_retries\":3},", "")
            .replace("\"network\":null,", "")
            .replace("\"adaptive_deadline\":null,", "");
        assert!(!json.contains("retransmit"), "field not stripped: {json}");
        assert!(!json.contains("network"), "field not stripped: {json}");
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);

        // Configs serialized while the backoff base, cap and jitter, the
        // per-delivery timeout, five guard thresholds, the adaptive window,
        // per-attempt loss and the reorder window were settings still load.
        let mut adaptive = cfg.clone();
        adaptive.adaptive_deadline = Some(AdaptiveDeadlineConfig::default());
        adaptive.network = Some(NetworkConfig::default());
        let mut json = serde_json::to_string(&adaptive).unwrap();
        for (now, then) in [
            (
                "\"retransmit\":{\"max_retries\":3}",
                "\"retransmit\":{\"max_retries\":3,\"backoff_base_ms\":10,\
                 \"jitter_pct\":50,\"max_backoff_ms\":0,\"timeout_ms\":500}",
            ),
            (
                "\"bandwidth_kbps\":0,\"dup_rate\":0.0}",
                "\"bandwidth_kbps\":0,\"loss_rate\":0.15,\"dup_rate\":0.0,\
                 \"reorder_window_ms\":20}",
            ),
            (
                "\"guard\":{\"enabled\":false,\"zscore_threshold\":6.0}",
                "\"guard\":{\"enabled\":false,\"clip_norm_mult\":4.0,\"zscore_threshold\":6.0,\
                 \"cosine_floor\":-0.25,\"quarantine_base\":2,\"quarantine_max\":16,\
                 \"norm_window\":32}",
            ),
            (
                "\"ceiling_ms\":10000}",
                "\"ceiling_ms\":10000,\"window\":128}",
            ),
        ] {
            assert_eq!(json.matches(now).count(), 1, "{now} in {json}");
            json = json.replace(now, then);
        }
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, adaptive);
    }

    #[test]
    fn network_and_adaptive_deadline_validation() {
        use photon_comms::LinkProfile;
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.network = Some(NetworkConfig {
            profile: LinkProfile {
                base_latency_ms: 20,
                jitter_ms: 10,
                dup_rate: 0.1,
                ..LinkProfile::default()
            },
            ..NetworkConfig::default()
        });
        cfg.allow_partial_results = true;
        cfg.validate().unwrap();

        // Chaotic links drop results; secure aggregation cannot survive that.
        let mut secure = cfg.clone();
        secure.allow_partial_results = false;
        secure.secure_agg = true;
        assert!(secure.validate().is_err());

        // Bad profile knobs are caught.
        let mut bad = cfg.clone();
        bad.network = Some(NetworkConfig {
            profile: LinkProfile {
                dup_rate: 1.5,
                ..LinkProfile::default()
            },
            ..NetworkConfig::default()
        });
        assert!(bad.validate().is_err());

        // Adaptive deadline validates and excludes the static deadline.
        cfg.adaptive_deadline = Some(AdaptiveDeadlineConfig::default());
        cfg.validate().unwrap();
        let mut both = cfg.clone();
        both.round_deadline_ms = Some(500);
        assert!(both.validate().is_err());
        let mut bad_ad = cfg.clone();
        bad_ad.adaptive_deadline = Some(AdaptiveDeadlineConfig {
            percentile: 2.0,
            ..AdaptiveDeadlineConfig::default()
        });
        assert!(bad_ad.validate().is_err());
    }

    #[test]
    fn membership_validation_rules() {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        cfg.membership = Some(MembershipConfig::default());
        cfg.allow_partial_results = true;
        cfg.validate().unwrap();

        cfg.buffer = Some(BufferConfig::default());
        cfg.validate().unwrap();

        // Buffer without membership is meaningless.
        let mut no_mem = cfg.clone();
        no_mem.membership = None;
        assert!(no_mem.validate().is_err());

        // Secure aggregation needs a fixed roster.
        let mut secure = cfg.clone();
        secure.buffer = None;
        secure.allow_partial_results = false;
        secure.secure_agg = true;
        assert!(secure.validate().is_err());

        // Bad knobs are caught.
        let mut bad = cfg.clone();
        bad.membership = Some(MembershipConfig {
            lease_ms: 10,
            round_ms: 1_000,
        });
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.buffer = Some(BufferConfig {
            quorum: 0,
            staleness_decay: 0.5,
        });
        assert!(bad.validate().is_err());

        // Configs serialized before elastic membership existed still load.
        let plain = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4);
        let json = serde_json::to_string(&plain)
            .unwrap()
            .replace("\"membership\":null,", "")
            .replace("\"buffer\":null,", "")
            .replace("\"dtype\":\"F32\",", "");
        assert!(!json.contains("membership"), "field not stripped: {json}");
        assert!(!json.contains("dtype"), "dtype not stripped: {json}");
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn hierarchy_validation_rules() {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 8);
        cfg.hierarchy = Some(HierarchyConfig::default());
        cfg.validate().unwrap();

        // Bad tree shapes are caught.
        let mut bad = cfg.clone();
        bad.hierarchy = Some(HierarchyConfig {
            shards: 1,
            ..HierarchyConfig::default()
        });
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.hierarchy = Some(HierarchyConfig {
            max_resident: 1,
            ..HierarchyConfig::default()
        });
        assert!(bad.validate().is_err());

        // Sub-aggregators cannot sum masked slices.
        let mut secure = cfg.clone();
        secure.secure_agg = true;
        assert!(secure.validate().is_err());

        // A buffered tree commits the buffer's batch through the screen
        // and the rule like a flat buffered round: robust rules apply.
        let mut buffered = cfg.clone();
        buffered.membership = Some(MembershipConfig::default());
        buffered.allow_partial_results = true;
        buffered.buffer = Some(BufferConfig::default());
        buffered.guard = GuardConfig::on();
        buffered.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.2 };
        buffered.validate().unwrap();

        // Configs serialized before hierarchy existed still load.
        let plain = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 8);
        let json = serde_json::to_string(&plain)
            .unwrap()
            .replace("\"hierarchy\":null,", "");
        assert!(!json.contains("hierarchy"), "field not stripped: {json}");
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = FederationConfig::quick_demo(ModelConfig::proxy_small(), 8);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
