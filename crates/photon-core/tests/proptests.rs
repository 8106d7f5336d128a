//! Property-based tests for the federation engine's configuration and
//! round bookkeeping.

use photon_core::{CohortSpec, FaultSpec, FederationConfig, RoundRecord, TrainingHistory};
use photon_fedopt::{AggregationKind, ServerOptKind};
use photon_nn::ModelConfig;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = FederationConfig> {
    (
        1usize..12,
        1u64..64,
        1usize..16,
        any::<u64>(),
        0usize..4,
        any::<bool>(),
    )
        .prop_map(
            |(population, local_steps, local_batch, seed, opt_pick, partial)| {
                let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), population);
                cfg.local_steps = local_steps;
                cfg.local_batch = local_batch;
                cfg.seed = seed;
                cfg.allow_partial_results = partial;
                cfg.server_opt = [
                    ServerOptKind::photon_default(),
                    ServerOptKind::FedMom {
                        lr: 1.0,
                        momentum: 0.9,
                    },
                    ServerOptKind::FedAdam { lr: 0.01 },
                    ServerOptKind::diloco_default(),
                ][opt_pick];
                cfg
            },
        )
}

proptest! {
    /// Any generated configuration validates, round-trips through JSON,
    /// and keeps its derived quantities consistent.
    #[test]
    fn configs_roundtrip_and_stay_consistent(cfg in arb_config()) {
        cfg.validate().unwrap();
        prop_assert_eq!(cfg.global_batch(), cfg.cohort_size() * cfg.local_batch);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FederationConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, cfg);
    }

    /// Sampled cohorts never exceed the population.
    #[test]
    fn cohort_size_is_bounded(population in 1usize..64, k in 1usize..128) {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), population);
        cfg.cohort = CohortSpec::Sample { k };
        prop_assert!(cfg.cohort_size() <= population);
        prop_assert!(cfg.cohort_size() >= 1);
    }

    /// TIES aggregation config serializes inside the federation config.
    #[test]
    fn aggregation_kind_roundtrips(density in 0.01f64..1.0) {
        let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 2);
        cfg.aggregation = AggregationKind::Ties { density };
        let back: FederationConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        prop_assert_eq!(back.aggregation, cfg.aggregation);
    }

    /// Fault plans are a pure function of the spec: regenerating one —
    /// under any compute-thread budget, queried in any order — yields the
    /// identical schedule. This is what makes chaos runs replayable.
    #[test]
    fn fault_plans_replay_identically(
        p_crash in 0.0f64..0.3,
        p_straggle in 0.0f64..0.3,
        p_corrupt in 0.0f64..0.3,
        p_agg in 0.0f64..0.5,
        seed in any::<u64>(),
        population in 1usize..32,
        rounds in 1u64..24,
        threads in 1usize..5,
    ) {
        let spec = FaultSpec {
            p_crash,
            p_straggle,
            straggle_ms_max: 100,
            p_corrupt,
            corrupt_attempts_max: 3,
            p_agg_crash: p_agg,
            ..FaultSpec::none(seed)
        };
        let baseline = spec.plan(population, rounds);
        let replay =
            photon_tensor::ops::pool::with_parallelism(threads, || spec.plan(population, rounds));
        prop_assert_eq!(&baseline, &replay);
        // Point queries in reverse order agree with the plan's map.
        for round in (0..rounds).rev() {
            for client in (0..population as u32).rev() {
                prop_assert_eq!(
                    baseline.client_fault(round, client),
                    replay.client_fault(round, client)
                );
            }
            prop_assert_eq!(
                baseline.aggregator_crashes_after(round),
                replay.aggregator_crashes_after(round)
            );
        }
        // A fault never lands outside the scheduled horizon.
        prop_assert!(baseline.client_fault(rounds, 0).is_none());
        prop_assert!(baseline.client_fault(0, population as u32).is_none());
    }

    /// History target-finding agrees with a straightforward scan, for any
    /// perplexity trajectory.
    #[test]
    fn rounds_to_target_matches_linear_scan(
        ppls in proptest::collection::vec(proptest::option::of(1.0f64..100.0), 1..30),
        target in 1.0f64..100.0,
    ) {
        let mut history = TrainingHistory::new();
        for (i, ppl) in ppls.iter().enumerate() {
            history.push(RoundRecord {
                round: i as u64,
                cohort: vec![0],
                mean_client_loss: 1.0,
                pseudo_grad_norm: 1.0,
                wire_bytes: 1,
                eval_ppl: *ppl,
                ..RoundRecord::default()
            });
        }
        let expected = ppls
            .iter()
            .position(|p| p.is_some_and(|p| p <= target))
            .map(|i| i as u64 + 1);
        prop_assert_eq!(history.rounds_to_target(target), expected);
        // best <= every evaluated value
        if let Some(best) = history.best_ppl() {
            for p in ppls.iter().flatten() {
                prop_assert!(best <= *p + 1e-12);
            }
        }
    }
}

// ---- Hierarchical aggregation properties -------------------------------

use photon_core::{HierarchyConfig, ShardTree};
use photon_fedopt::{
    aggregate_deltas, staleness_factor, BufferedUpdate, ClientUpdate, StreamingMerge, UpdateBuffer,
};

/// A pending buffer entry with a unique `(origin_round, client_id)` key.
fn arb_entries() -> impl Strategy<Value = Vec<BufferedUpdate>> {
    (1usize..12, 2usize..10).prop_flat_map(|(n, dim)| {
        proptest::collection::vec(
            (
                0u64..4,
                0.1f64..5.0,
                proptest::collection::vec(-10.0f32..10.0, dim),
            ),
            n,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (origin, weight, delta))| BufferedUpdate {
                    client_id: i as u32,
                    origin_round: origin,
                    arrival_round: origin,
                    base_weight: weight,
                    mean_loss: 1.0,
                    delta,
                })
                .collect()
        })
    })
}

proptest! {
    /// A `StreamingMerge` fed the pending set in ANY arrival order (as
    /// long as the residency bound admits every update) is bitwise the
    /// batch commit followed by the one weighted mean: merging results as
    /// they arrive cannot change what a round commits.
    #[test]
    fn streaming_commit_matches_batch_commit_bitwise(
        entries in arb_entries().prop_shuffle(),
        decay in 0.0f64..2.0,
    ) {
        let n = entries.len();
        let round = 4u64; // every entry has arrived by now
        let batch = UpdateBuffer::from_entries(entries.clone())
            .commit(round, decay)
            .expect("entries pending");
        let expect_delta = aggregate_deltas(&batch.updates);
        let expect_weight: f64 = batch.updates.iter().map(|u| u.weight).sum();
        let mut keys: Vec<(u64, u32)> =
            entries.iter().map(|e| (e.origin_round, e.client_id)).collect();
        keys.sort_unstable();
        let mut merge = StreamingMerge::new(keys, n + 1);
        for e in entries {
            let weight = e.base_weight * staleness_factor(e.staleness_at(round), decay);
            let update = ClientUpdate::new(e.delta, weight).expect("a positive weight");
            merge.push((e.origin_round, e.client_id), update);
        }
        prop_assert!(merge.peak_resident() <= n + 1);
        let (merged, weight) = merge.finish().expect("every update folded");
        prop_assert_eq!(weight.to_bits(), expect_weight.to_bits());
        prop_assert_eq!(merged.len(), expect_delta.len());
        for (i, (a, b)) in merged.iter().zip(&expect_delta).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "coordinate {} differs", i);
        }
    }

    /// On a homogeneous cohort (every client reports the same update with
    /// the same weight), the two-level shard reduce is bitwise identical
    /// to the flat mean — dead shards and re-parenting included, since a
    /// mean of identical vectors is that vector at every tree level.
    #[test]
    fn shard_tree_reduce_matches_flat_mean_when_homogeneous(
        shards in 2usize..8,
        seed in any::<u64>(),
        cohort_n in 1usize..64,
        delta in proptest::collection::vec(-5.0f32..5.0, 2..12),
        dead_picks in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let cfg = HierarchyConfig { shards, ..HierarchyConfig::default() };
        let mut tree = ShardTree::new(cfg, seed);
        // Kill a strict subset of shards so every client still routes.
        for pick in dead_picks {
            if tree.live_count() > 1 {
                tree.mark_crashed(pick % shards as u32);
            }
        }
        let cohort: Vec<u32> = (0..cohort_n as u32).collect();
        let part = tree.partition(&cohort);
        prop_assert!(part.unrouted.is_empty());

        let update = |_: u32| ClientUpdate::new(delta.clone(), 1.0).unwrap();
        // Per-shard streaming fold, then the one mean over the shard
        // aggregates, as the round engine reduces a tree.
        let mut shard_updates = Vec::new();
        for members in part.shards.values() {
            if members.is_empty() {
                continue;
            }
            let mut fold = StreamingMerge::new(members.iter().map(|&m| (0, m)).collect(), 2);
            for &m in members {
                fold.push((0, m), update(m));
            }
            let (merged, weight) = fold.finish().unwrap();
            shard_updates.push(ClientUpdate::new(merged, weight).unwrap());
        }
        let root = aggregate_deltas(&shard_updates);
        let root_w: f64 = shard_updates.iter().map(|u| u.weight).sum();
        // The one mean over the whole cohort.
        let flat_ups: Vec<ClientUpdate> = cohort.iter().map(|&m| update(m)).collect();
        let flat = aggregate_deltas(&flat_ups);
        prop_assert_eq!(root_w, cohort_n as f64);
        for (a, b) in root.iter().zip(&flat) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Re-parenting is a pure function of `(seed, dead set)`: a tree
    /// rebuilt from checkpointed state — or one whose crashes were marked
    /// in any other order — routes every client identically.
    #[test]
    fn reparenting_is_deterministic_in_seed_and_dead_set(
        shards in 2usize..16,
        seed in any::<u64>(),
        dead in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let cfg = HierarchyConfig { shards, ..HierarchyConfig::default() };
        let mut tree = ShardTree::new(cfg, seed);
        for &d in &dead {
            if tree.live_count() > 1 {
                tree.mark_crashed(d % shards as u32);
            }
        }
        // The same final dead set, marked in reverse order.
        let mut final_dead = tree.state().dead_shards;
        final_dead.reverse();
        let mut reversed = ShardTree::new(cfg, seed);
        for d in final_dead {
            reversed.mark_crashed(d);
        }
        prop_assert_eq!(reversed.state(), tree.state());
        let rebuilt = ShardTree::from_state(cfg, seed, &tree.state());
        let cohort: Vec<u32> = (0..200).collect();
        for &id in &cohort {
            prop_assert_eq!(tree.shard_of(id), reversed.shard_of(id));
            prop_assert_eq!(tree.shard_of(id), rebuilt.shard_of(id));
        }
        let a = tree.partition(&cohort);
        let b = rebuilt.partition(&cohort);
        prop_assert_eq!(a.shards, b.shards);
        prop_assert_eq!(a.reparented, b.reparented);
    }
}
