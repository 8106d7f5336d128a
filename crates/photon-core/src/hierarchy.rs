//! Hierarchical (sharded) aggregation: a deterministic K-ary reduce tree.
//!
//! Leaf clients report to sub-aggregator *shards*; in a synchronous round
//! each shard folds its cohort slice through a streaming, memory-bounded
//! merge ([`photon_fedopt::StreamingMerge`]) and the shard aggregates
//! reduce upward to the root, while a buffered round routes each arrival
//! through its shard into the update buffer. The tree is the dominant
//! failure domain at 10⁵-client scale, so its design is robustness-first:
//!
//! - **Deterministic shape.** A client's home shard is `id % shards`; no
//!   coordinator state is needed to route a report.
//! - **Crash re-parenting.** When a shard dies (`shardcrash@rNsM`), its
//!   clients are orphaned for the rest of that round and deterministically
//!   re-parented to a sibling from the next round on: the foster shard is
//!   a pure function of `(seed, client, live-shard set)`, so a restored
//!   run re-derives the identical tree from the checkpointed dead set.
//! - **Per-shard quorum.** A shard commits its aggregate only when at
//!   least `ceil(shard_quorum_frac × shard_cohort)` of its cohort slice
//!   folded; otherwise the shard degrades (its slice is dropped) without
//!   affecting its siblings.
//!
//! Only the dead-shard set is state; everything else is re-derived. That
//! set rides in the checkpoint so agg-crash recovery replays the tree
//! bit-exactly.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

fn default_shards() -> usize {
    4
}
fn default_quorum_frac() -> f64 {
    0.5
}
fn default_max_resident() -> usize {
    64
}

/// Shape and robustness knobs of the aggregation tree
/// (`--shards/--shard-quorum-frac/--max-resident` on `photon-cli train`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of sub-aggregator shards (the tree's fan-in at the root).
    #[serde(default = "default_shards")]
    pub shards: usize,
    /// Fraction of a shard's cohort slice that must fold before the shard
    /// may commit its aggregate upward: quorum is
    /// `ceil(shard_quorum_frac × shard_cohort)`.
    #[serde(default = "default_quorum_frac")]
    pub shard_quorum_frac: f64,
    /// Residency bound of each shard's streaming merge: the merge never
    /// holds more than this many full update vectors (accumulator
    /// included) at once.
    #[serde(default = "default_max_resident")]
    pub max_resident: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            shards: default_shards(),
            shard_quorum_frac: default_quorum_frac(),
            max_resident: default_max_resident(),
        }
    }
}

impl HierarchyConfig {
    /// Validates the tree shape.
    ///
    /// # Errors
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards < 2 {
            return Err(format!(
                "hierarchy needs at least 2 shards (got {}): a 1-shard tree \
                 has no sibling to re-parent orphans to",
                self.shards
            ));
        }
        if self.shards > u32::MAX as usize {
            return Err(format!("{} shards do not fit shard ids", self.shards));
        }
        if !(self.shard_quorum_frac > 0.0 && self.shard_quorum_frac <= 1.0) {
            return Err(format!(
                "shard_quorum_frac must be in (0, 1], got {}",
                self.shard_quorum_frac
            ));
        }
        if self.max_resident < 2 {
            return Err(format!(
                "max_resident must be at least 2 (accumulator + one arrival), got {}",
                self.max_resident
            ));
        }
        Ok(())
    }

    /// The per-shard quorum for a cohort slice of `shard_cohort` clients:
    /// `ceil(shard_quorum_frac × shard_cohort)`, never below 1 for a
    /// non-empty slice.
    pub(crate) fn shard_quorum(&self, shard_cohort: usize) -> usize {
        if shard_cohort == 0 {
            return 0;
        }
        (((shard_cohort as f64) * self.shard_quorum_frac).ceil() as usize).clamp(1, shard_cohort)
    }
}

/// The checkpointable image of the tree: the set of crashed shards.
/// Everything else (routing, fosters, quorums) is a pure function of the
/// config, the seed and this set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyState {
    /// Shards that suffered a `shardcrash` (sorted ascending). Dead
    /// shards never host clients again; their orphans are fostered.
    pub dead_shards: Vec<u32>,
}

/// How one round's cohort maps onto the tree.
#[derive(Debug, Clone, Default)]
pub struct ShardPartition {
    /// Cohort members per live shard, ascending shard id; members are in
    /// the order they appeared in the cohort slice.
    pub shards: BTreeMap<u32, Vec<u32>>,
    /// Cohort members routed away from a dead home shard this round.
    pub reparented: usize,
    /// Cohort members with no live shard to report to (every shard dead);
    /// their updates are lost this round.
    pub unrouted: Vec<u32>,
}

/// The deterministic sub-aggregator tree. See the module docs for the
/// routing and re-parenting rules.
#[derive(Debug, Clone)]
pub struct ShardTree {
    cfg: HierarchyConfig,
    seed: u64,
    dead: BTreeSet<u32>,
}

impl ShardTree {
    /// Builds a fully-live tree.
    pub fn new(cfg: HierarchyConfig, seed: u64) -> Self {
        ShardTree {
            cfg,
            seed,
            dead: BTreeSet::new(),
        }
    }

    /// Rebuilds a tree from a checkpointed [`HierarchyState`].
    pub fn from_state(cfg: HierarchyConfig, seed: u64, state: &HierarchyState) -> Self {
        ShardTree {
            cfg,
            seed,
            dead: state.dead_shards.iter().copied().collect(),
        }
    }

    /// The tree's shape config.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// The checkpointable image (dead shards, ascending).
    pub fn state(&self) -> HierarchyState {
        HierarchyState {
            dead_shards: self.dead.iter().copied().collect(),
        }
    }

    /// Shards still alive, ascending.
    pub(crate) fn live_shards(&self) -> Vec<u32> {
        (0..self.cfg.shards as u32)
            .filter(|s| !self.dead.contains(s))
            .collect()
    }

    /// How many shards are still alive.
    pub fn live_count(&self) -> usize {
        self.cfg.shards - self.dead.len()
    }

    /// A client's home shard (ignoring crashes): `id % shards`.
    pub(crate) fn home_shard(&self, client: u32) -> u32 {
        client % self.cfg.shards as u32
    }

    /// The shard `client` reports to under the current dead set: the home
    /// shard while it lives, otherwise a deterministic foster sibling.
    /// `None` when every shard is dead.
    pub fn shard_of(&self, client: u32) -> Option<u32> {
        let home = self.home_shard(client);
        if !self.dead.contains(&home) {
            return Some(home);
        }
        let live = self.live_shards();
        if live.is_empty() {
            return None;
        }
        let h = mix_reparent_seed(self.seed, client);
        Some(live[(h % live.len() as u64) as usize])
    }

    /// Marks a shard crashed. Routing reflects the death from the *next*
    /// [`ShardTree::partition`] call — the crashing round's contributions
    /// are already lost by the time the caller marks it. Returns whether
    /// the shard was newly dead.
    pub fn mark_crashed(&mut self, shard: u32) -> bool {
        debug_assert!((shard as usize) < self.cfg.shards);
        self.dead.insert(shard)
    }

    /// Routes one round's cohort onto the live shards, counting how many
    /// members were fostered away from a dead home shard.
    pub fn partition(&self, cohort: &[u32]) -> ShardPartition {
        let mut part = ShardPartition::default();
        for &s in &self.live_shards() {
            part.shards.insert(s, Vec::new());
        }
        for &id in cohort {
            match self.shard_of(id) {
                Some(s) => {
                    if s != self.home_shard(id) {
                        part.reparented += 1;
                    }
                    part.shards
                        .get_mut(&s)
                        .expect("shard_of only returns live shards")
                        .push(id);
                }
                None => part.unrouted.push(id),
            }
        }
        part
    }
}

/// The foster-pick hash: pure in `(seed, client)` so re-parenting replays
/// bit-identically from a restored dead set.
fn mix_reparent_seed(seed: u64, client: u32) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    h ^= (client as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h = h.rotate_left(27).wrapping_mul(0x100000001b3);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> HierarchyConfig {
        HierarchyConfig {
            shards,
            ..HierarchyConfig::default()
        }
    }

    #[test]
    fn config_validation_rules() {
        assert!(HierarchyConfig::default().validate().is_ok());
        assert!(cfg(1).validate().is_err());
        let mut c = cfg(4);
        c.shard_quorum_frac = 0.0;
        assert!(c.validate().is_err());
        c.shard_quorum_frac = 1.5;
        assert!(c.validate().is_err());
        c.shard_quorum_frac = 1.0;
        c.max_resident = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn quorum_is_ceil_of_the_fraction() {
        let mut c = cfg(4);
        c.shard_quorum_frac = 0.5;
        assert_eq!(c.shard_quorum(0), 0);
        assert_eq!(c.shard_quorum(1), 1);
        assert_eq!(c.shard_quorum(5), 3);
        assert_eq!(c.shard_quorum(8), 4);
        c.shard_quorum_frac = 1.0;
        assert_eq!(c.shard_quorum(7), 7);
        // A tiny fraction still demands one folded update.
        c.shard_quorum_frac = 0.01;
        assert_eq!(c.shard_quorum(3), 1);
    }

    #[test]
    fn home_routing_is_modular_and_total() {
        let tree = ShardTree::new(cfg(4), 7);
        for id in 0..100u32 {
            assert_eq!(tree.shard_of(id), Some(id % 4));
        }
        let part = tree.partition(&(0..100).collect::<Vec<_>>());
        assert_eq!(part.reparented, 0);
        assert!(part.unrouted.is_empty());
        assert_eq!(part.shards.len(), 4);
        assert_eq!(part.shards.values().map(Vec::len).sum::<usize>(), 100);
    }

    #[test]
    fn crash_reparents_only_the_orphans_deterministically() {
        let mut tree = ShardTree::new(cfg(4), 7);
        assert!(tree.mark_crashed(2));
        assert!(!tree.mark_crashed(2), "second crash is idempotent");
        let cohort: Vec<u32> = (0..100).collect();
        let part = tree.partition(&cohort);
        // Exactly the clients homed on shard 2 are fostered.
        assert_eq!(part.reparented, 25);
        assert!(part.unrouted.is_empty());
        assert!(!part.shards.contains_key(&2));
        for (&s, members) in &part.shards {
            for &m in members {
                if m % 4 != s {
                    assert_eq!(m % 4, 2, "only shard-2 orphans may move");
                }
            }
        }
        // Same seed + same dead set => identical fostering; different seed
        // => (almost surely) a different one.
        let twin = ShardTree::from_state(cfg(4), 7, &tree.state());
        for id in 0..100u32 {
            assert_eq!(tree.shard_of(id), twin.shard_of(id));
        }
        let other = ShardTree::from_state(cfg(4), 8, &tree.state());
        assert!((0..1000u32).any(|id| tree.shard_of(id) != other.shard_of(id)));
    }

    #[test]
    fn all_dead_leaves_clients_unrouted() {
        let mut tree = ShardTree::new(cfg(2), 1);
        tree.mark_crashed(0);
        tree.mark_crashed(1);
        assert_eq!(tree.live_count(), 0);
        assert_eq!(tree.shard_of(3), None);
        let part = tree.partition(&[1, 2, 3]);
        assert_eq!(part.unrouted, vec![1, 2, 3]);
        assert!(part.shards.is_empty());
    }

    #[test]
    fn state_round_trips() {
        let mut tree = ShardTree::new(cfg(8), 42);
        tree.mark_crashed(5);
        tree.mark_crashed(1);
        let state = tree.state();
        assert_eq!(state.dead_shards, vec![1, 5]);
        let back = ShardTree::from_state(cfg(8), 42, &state);
        assert_eq!(back.state(), state);
        assert_eq!(back.live_shards(), vec![0, 2, 3, 4, 6, 7]);
    }
}
