//! Deterministic simulated network: per-link chaos profiles, partition
//! schedules and the adaptive round deadline.
//!
//! Photon's failure-recovery story (§4) assumes clients on the open
//! internet behind heterogeneous, unreliable links. This module gives
//! every (aggregator, client) link a seeded [`LinkProfile`] — base latency
//! plus a jitter distribution, bandwidth for size-dependent transfer time
//! and duplication — and a [`PartitionSchedule`]
//! of full and asymmetric partitions with heal rounds. Every draw is a
//! pure function of `(seed, round, client)` via a splitmix64 stream, so a
//! chaos run replays bit-identically under `ClockMode::Sim`; nothing here
//! touches a wall clock or global RNG. The real socket transport must
//! later satisfy this same contract unchanged.

use serde::{Deserialize, Serialize};

/// Static chaos profile shared by every (aggregator, client) link.
///
/// All fields default to zero, which makes the model a no-op: zero
/// latency, infinite bandwidth, no duplication. Configs that still carry
/// the `loss_rate` and `reorder_window_ms` keys load with those keys
/// ignored: a socket retransmits below the frame, and collect orders
/// arrivals by client id.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Fixed one-way propagation delay in simulated milliseconds.
    #[serde(default)]
    pub base_latency_ms: u64,
    /// Per-delivery jitter drawn uniformly from `[0, jitter_ms]`.
    #[serde(default)]
    pub jitter_ms: u64,
    /// Link bandwidth in kilobits per second; `0` means infinite (the
    /// transfer-time term vanishes).
    #[serde(default)]
    pub bandwidth_kbps: u64,
    /// Probability that the delivered frame arrives twice.
    #[serde(default)]
    pub dup_rate: f64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            base_latency_ms: 0,
            jitter_ms: 0,
            bandwidth_kbps: 0,
            dup_rate: 0.0,
        }
    }
}

impl LinkProfile {
    /// Checks the duplication rate is a probability.
    ///
    /// # Errors
    /// Returns a description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let rate = self.dup_rate;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(format!("network dup_rate must be in [0, 1], got {rate}"));
        }
        Ok(())
    }

    /// Size-dependent transfer time for `bytes` at this link's bandwidth,
    /// in simulated milliseconds (`kbps` = kilobits/s = bits/ms).
    pub(crate) fn transfer_ms(&self, bytes: usize) -> u64 {
        if self.bandwidth_kbps == 0 {
            return 0;
        }
        ((bytes as u64).saturating_mul(8)) / self.bandwidth_kbps
    }
}

/// Network chaos layer configuration carried by the federation config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Chaos profile applied to every link.
    #[serde(default)]
    pub profile: LinkProfile,
    /// Fraction of the sampled cohort that must deliver results for the
    /// round to commit; below it the aggregator enters degraded mode.
    #[serde(default = "default_quorum_frac")]
    pub min_quorum_frac: f64,
    /// Latency multiplier applied to links pinned slow by the fault plan
    /// (`slowlink@rNcM`).
    #[serde(default = "default_slow_factor")]
    pub slow_factor: u64,
}

fn default_quorum_frac() -> f64 {
    0.5
}

fn default_slow_factor() -> u64 {
    10
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            profile: LinkProfile::default(),
            min_quorum_frac: default_quorum_frac(),
            slow_factor: default_slow_factor(),
        }
    }
}

impl NetworkConfig {
    /// Validates the profile and the quorum/slow-link knobs.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.profile.validate()?;
        if !self.min_quorum_frac.is_finite() || !(0.0..=1.0).contains(&self.min_quorum_frac) {
            return Err(format!(
                "network min_quorum_frac must be in [0, 1], got {}",
                self.min_quorum_frac
            ));
        }
        if self.slow_factor == 0 {
            return Err("network slow_factor must be >= 1".into());
        }
        Ok(())
    }
}

/// Adaptive round deadline: a percentile of recently observed per-client
/// delivery latencies (the aggregator keeps the last 128), clamped to a
/// floor/ceiling, replacing the static `--deadline-ms`. Configs that still
/// carry the `window` key load with it ignored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveDeadlineConfig {
    /// Percentile of observed latencies to cut at (e.g. `0.95`).
    #[serde(default = "default_percentile")]
    pub percentile: f64,
    /// Lower clamp on the derived deadline (simulated ms).
    #[serde(default = "default_floor_ms")]
    pub floor_ms: u64,
    /// Upper clamp on the derived deadline, also used before any latency
    /// has been observed (simulated ms).
    #[serde(default = "default_ceiling_ms")]
    pub ceiling_ms: u64,
}

fn default_percentile() -> f64 {
    0.95
}

fn default_floor_ms() -> u64 {
    100
}

fn default_ceiling_ms() -> u64 {
    10_000
}

impl Default for AdaptiveDeadlineConfig {
    fn default() -> Self {
        AdaptiveDeadlineConfig {
            percentile: default_percentile(),
            floor_ms: default_floor_ms(),
            ceiling_ms: default_ceiling_ms(),
        }
    }
}

impl AdaptiveDeadlineConfig {
    /// Checks the percentile and clamp ordering.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.percentile.is_finite() && 0.0 < self.percentile && self.percentile <= 1.0) {
            return Err(format!(
                "adaptive deadline percentile must be in (0, 1], got {}",
                self.percentile
            ));
        }
        if self.floor_ms > self.ceiling_ms {
            return Err(format!(
                "adaptive deadline floor ({}) exceeds ceiling ({})",
                self.floor_ms, self.ceiling_ms
            ));
        }
        Ok(())
    }

    /// Deadline derived from `observed` latencies: the configured
    /// percentile, clamped to `[floor_ms, ceiling_ms]`. With no
    /// observations yet the ceiling applies (lenient warm-up).
    pub fn effective_deadline_ms(&self, observed: &[u64]) -> u64 {
        if observed.is_empty() {
            return self.ceiling_ms;
        }
        let mut sorted = observed.to_vec();
        sorted.sort_unstable();
        let idx = (((sorted.len() - 1) as f64) * self.percentile).ceil() as usize;
        sorted[idx.min(sorted.len() - 1)].clamp(self.floor_ms, self.ceiling_ms)
    }
}

/// How a partition severs a client from the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionKind {
    /// No traffic in either direction: the broadcast never reaches the
    /// client and its result never reaches the aggregator.
    Full,
    /// One-way reachability: the client still receives the broadcast (and
    /// burns compute) but its result frames are lost on the way back.
    Asymmetric,
}

/// One partition window: the listed clients are severed from the
/// aggregator from `start_round` until `heal_round` (exclusive), or
/// forever when `heal_round` is `None`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// First round (0-based) the partition is active.
    pub start_round: u64,
    /// Round at which the partition heals (exclusive); `None` never heals.
    #[serde(default)]
    pub heal_round: Option<u64>,
    /// Clients documented as staying connected (informational; everyone
    /// not in `severed` is reachable regardless).
    #[serde(default)]
    pub connected: Vec<u32>,
    /// Clients cut off from the aggregator while the window is active.
    pub severed: Vec<u32>,
    /// `true` marks an asymmetric partition ([`PartitionKind::Asymmetric`]).
    #[serde(default)]
    pub asymmetric: bool,
}

impl PartitionSpec {
    /// Whether the window covers `round`.
    pub(crate) fn active_at(&self, round: u64) -> bool {
        round >= self.start_round && self.heal_round.is_none_or(|h| round < h)
    }

    /// The severing in effect for `client` at `round`, if any.
    pub fn state(&self, round: u64, client: u32) -> Option<PartitionKind> {
        if self.active_at(round) && self.severed.contains(&client) {
            Some(if self.asymmetric {
                PartitionKind::Asymmetric
            } else {
                PartitionKind::Full
            })
        } else {
            None
        }
    }

    /// Checks round ordering and group sanity.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.severed.is_empty() {
            return Err("partition severed group must not be empty".into());
        }
        if let Some(h) = self.heal_round {
            if h <= self.start_round {
                return Err(format!(
                    "partition heal round {h} must come after start round {}",
                    self.start_round
                ));
            }
        }
        if self.connected.iter().any(|c| self.severed.contains(c)) {
            return Err("partition groups must be disjoint".into());
        }
        Ok(())
    }
}

/// An ordered set of [`PartitionSpec`] windows; later specs win when
/// windows overlap for the same client.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSchedule {
    specs: Vec<PartitionSpec>,
}

impl PartitionSchedule {
    /// Builds a schedule from explicit windows.
    pub fn new(specs: Vec<PartitionSpec>) -> Self {
        PartitionSchedule { specs }
    }

    /// `true` when no windows are scheduled (nothing calls it; clippy's
    /// `len_without_is_empty` asks for it beside [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of scheduled partition windows.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The severing in effect for `client` at `round`, if any.
    pub fn state(&self, round: u64, client: u32) -> Option<PartitionKind> {
        self.specs.iter().rev().find_map(|s| s.state(round, client))
    }
}

/// What the network did to one delivery: derived deterministically from
/// `(seed, round, client)` by [`NetworkModel::link_outcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkOutcome {
    /// One-way latency per transmission attempt: base + jitter + transfer.
    pub latency_ms: u64,
    /// Extra copies of the frame that arrive (0 or 1).
    pub duplicates: u32,
}

/// The deterministic chaos network: one [`LinkProfile`] applied to every
/// link, outcomes keyed off `(seed, round, client)`.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    profile: LinkProfile,
    seed: u64,
}

/// Salt separating network draws from every other seeded stream (fault
/// plan cells, link corruption bit flips, data shards).
const NET_SALT: u64 = 0x6e65_745f_6c69_6e6b; // "net_link"

fn mix_stream(seed: u64, round: u64, client: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed ^ NET_SALT;
    for byte in round.to_le_bytes().into_iter().chain(client.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_f64(state: &mut u64) -> f64 {
    (splitmix_next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn next_below(state: &mut u64, n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        splitmix_next(state) % n
    }
}

impl NetworkModel {
    /// Builds a model from a profile and the run seed.
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        NetworkModel { profile, seed }
    }

    /// Derives the chaos outcome for delivering `frame_bytes` from
    /// `client` to the aggregator at `round`.
    ///
    /// Every call consumes a fixed number of draws from the per-cell
    /// stream regardless of which effects fire, so changing one rate (say
    /// `dup_rate`) perturbs *only* that effect across a replay — the basis
    /// of the "duplicates never change the trajectory" dedup test.
    pub fn link_outcome(&self, round: u64, client: u32, frame_bytes: usize) -> LinkOutcome {
        let mut s = mix_stream(self.seed, round, client);
        let jitter = next_below(&mut s, self.profile.jitter_ms.saturating_add(1));
        let dup_u = next_f64(&mut s);
        LinkOutcome {
            latency_ms: self
                .profile
                .base_latency_ms
                .saturating_add(jitter)
                .saturating_add(self.profile.transfer_ms(frame_bytes)),
            duplicates: u32::from(dup_u < self.profile.dup_rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_profile() -> LinkProfile {
        LinkProfile {
            base_latency_ms: 40,
            jitter_ms: 20,
            bandwidth_kbps: 8_000,
            dup_rate: 0.3,
        }
    }

    #[test]
    fn outcomes_replay_bit_identically() {
        let a = NetworkModel::new(chaotic_profile(), 42);
        let b = NetworkModel::new(chaotic_profile(), 42);
        for round in 0..8 {
            for client in 0..16 {
                assert_eq!(
                    a.link_outcome(round, client, 4_096),
                    b.link_outcome(round, client, 4_096)
                );
            }
        }
    }

    #[test]
    fn outcomes_vary_across_rounds_clients_and_seeds() {
        let m = NetworkModel::new(chaotic_profile(), 42);
        let other_seed = NetworkModel::new(chaotic_profile(), 43);
        let base = m.link_outcome(0, 0, 4_096);
        let mut differs = 0;
        for (r, c) in [(1, 0), (0, 1), (7, 9)] {
            if m.link_outcome(r, c, 4_096) != base {
                differs += 1;
            }
        }
        assert!(differs > 0, "outcomes never varied across cells");
        assert_ne!(other_seed.link_outcome(0, 0, 4_096), base);
    }

    #[test]
    fn default_profile_is_a_no_op() {
        let m = NetworkModel::new(LinkProfile::default(), 7);
        for round in 0..4 {
            for client in 0..8 {
                assert_eq!(
                    m.link_outcome(round, client, 1 << 20),
                    LinkOutcome::default()
                );
            }
        }
    }

    #[test]
    fn rate_changes_perturb_only_their_effect() {
        // Same seed, dup_rate toggled: the latency draw must be untouched
        // — fixed draw consumption per outcome.
        let mut with_dup = chaotic_profile();
        with_dup.dup_rate = 1.0;
        let mut without = chaotic_profile();
        without.dup_rate = 0.0;
        let a = NetworkModel::new(with_dup, 9);
        let b = NetworkModel::new(without, 9);
        for round in 0..6 {
            for client in 0..6 {
                let oa = a.link_outcome(round, client, 2_048);
                let ob = b.link_outcome(round, client, 2_048);
                assert_eq!(oa.latency_ms, ob.latency_ms);
                assert_eq!(oa.duplicates, 1);
                assert_eq!(ob.duplicates, 0);
            }
        }
    }

    #[test]
    fn transfer_time_scales_with_size_and_bandwidth() {
        let p = LinkProfile {
            bandwidth_kbps: 8_000, // 8 bits/us = 1 KB/ms
            ..LinkProfile::default()
        };
        assert_eq!(p.transfer_ms(1_000), 1);
        assert_eq!(p.transfer_ms(1_000_000), 1_000);
        assert_eq!(LinkProfile::default().transfer_ms(1 << 30), 0);
    }

    #[test]
    fn adaptive_deadline_takes_percentile_with_clamps() {
        let ad = AdaptiveDeadlineConfig {
            percentile: 0.5,
            floor_ms: 10,
            ceiling_ms: 1_000,
        };
        assert_eq!(ad.effective_deadline_ms(&[]), 1_000);
        assert_eq!(ad.effective_deadline_ms(&[50, 200, 100]), 100);
        assert_eq!(ad.effective_deadline_ms(&[1, 2, 3]), 10); // floor
        assert_eq!(ad.effective_deadline_ms(&[9_999, 8_888]), 1_000); // ceiling
        let p99 = AdaptiveDeadlineConfig {
            percentile: 0.99,
            ..ad
        };
        let mut obs: Vec<u64> = (1..=100).collect();
        obs.reverse();
        assert_eq!(p99.effective_deadline_ms(&obs), 100);
    }

    #[test]
    fn adaptive_deadline_validation_rejects_bad_knobs() {
        let mut ad = AdaptiveDeadlineConfig::default();
        assert!(ad.validate().is_ok());
        ad.percentile = 0.0;
        assert!(ad.validate().is_err());
        ad.percentile = 0.9;
        ad.floor_ms = 10;
        ad.ceiling_ms = 5;
        assert!(ad.validate().is_err());
    }

    #[test]
    fn partition_schedule_tracks_windows_and_heals() {
        let specs = vec![
            PartitionSpec {
                start_round: 2,
                heal_round: Some(4),
                connected: vec![0],
                severed: vec![1, 2],
                asymmetric: false,
            },
            PartitionSpec {
                start_round: 5,
                heal_round: None,
                connected: vec![],
                severed: vec![3],
                asymmetric: true,
            },
        ];
        assert!(specs.iter().all(|s| s.validate().is_ok()));
        let sched = PartitionSchedule::new(specs);
        assert_eq!(sched.state(1, 1), None);
        assert_eq!(sched.state(2, 1), Some(PartitionKind::Full));
        assert_eq!(sched.state(3, 2), Some(PartitionKind::Full));
        assert_eq!(sched.state(4, 1), None, "healed at round 4");
        assert_eq!(sched.state(9, 3), Some(PartitionKind::Asymmetric));
        assert_eq!(sched.state(9, 0), None);
    }

    #[test]
    fn partition_validation_rejects_bad_windows() {
        let mut spec = PartitionSpec {
            start_round: 3,
            heal_round: Some(3),
            connected: vec![],
            severed: vec![1],
            asymmetric: false,
        };
        assert!(spec.validate().is_err(), "heal must follow start");
        spec.heal_round = Some(5);
        assert!(spec.validate().is_ok());
        spec.severed.clear();
        assert!(spec.validate().is_err(), "empty severed group");
        spec.severed = vec![1];
        spec.connected = vec![1];
        assert!(spec.validate().is_err(), "overlapping groups");
    }

    #[test]
    fn network_config_validation() {
        let mut nc = NetworkConfig::default();
        assert!(nc.validate().is_ok());
        nc.min_quorum_frac = 1.5;
        assert!(nc.validate().is_err());
        nc.min_quorum_frac = 0.5;
        nc.slow_factor = 0;
        assert!(nc.validate().is_err());
        nc.slow_factor = 10;
        nc.profile.dup_rate = -0.1;
        assert!(nc.validate().is_err());
    }
}
