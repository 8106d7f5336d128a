//! Property-based tests for the federation engine's configuration and
//! round bookkeeping.

use photon_core::{
    CohortSpec, FaultEvent, FaultSpec, FederationConfig, RoundRecord, TrainingHistory,
};
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
                baseline.has(FaultEvent::AggCrash, round, 0),
                replay.has(FaultEvent::AggCrash, round, 0)
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

// ---- Fault grammar: pinned plan listing ---------------------------------

use photon_core::FaultEvent::*;
use photon_core::{FaultPlan, Tally};
use std::fmt::Write as _;

/// Every spec the repository runs or tests: the `round_engine_golden`
/// rows, each `--faults` string in the CI workflow (matrix cells
/// expanded), and the grammar strings of `faults.rs`'s unit tests,
/// rejected ones included.
const LISTED_SPECS: &[&str] = &[
    // round_engine_golden
    "seed=1",
    "nan-update@r1c2,scale:50@r3c1,sign-flip@r5c3,crash@r2c4,corrupt:1@r4c0,straggle:900@r2c0,seed=3",
    "partition@r1-r3:0|1.2.3,slowlink@r4c0,seed=5",
    "shards=4,shardcrash@r1s2,shardhang@r3s0,crash@r2c1,crash@r5c7,seed=7",
    "shards=4,nan-update@r1c3,scale:80@r3c0,shardhang@r4s1,seed=9",
    "straggle:1500@r1c2,join@r2,crash@r4c0,crash@r4c1,crash@r4c3,leave@r6c3,seed=11",
    "shards=4,straggle:1400@r1c5,shardhang@r2s1,shardcrash@r4s3,seed=13",
    "shards=4,nan-update@r1c2,sign-flip@r3c5,shardhang@r2s3,shardcrash@r4s1,seed=17",
    "scale:4000@r4c0,seed=15",
    // .github/workflows/ci.yml
    "crash=0.1,straggle=0.1,straggle-ms=200,corrupt=0.1,agg=0.3,seed=5",
    "nan-update@r1c0,nan-update@r3c2,seed=5",
    "sign-flip@r1c0,sign-flip@r3c2,seed=5",
    "scale:40@r1c0,scale:40@r3c2,seed=5",
    "crash=0.1,straggle=0.2,straggle-ms=1200,join=0.1,leave=0.02,seed=5",
    "crash=0.1,straggle=0.2,straggle-ms=1200,join=0.3,leave=0.08,seed=5",
    "crash=0.1,straggle=0.1,straggle-ms=500,corrupt=0.1,seed=7",
    "crash=0.2,corrupt=0.3,straggle=0.2,straggle-ms=400,seed=9",
    "netcrash@r1c1,coordkill@r2",
    "netcrash@r1c1",
    "crash=0.2,corrupt=0.2,seed=9",
    "partition@r2-r4:*|3,slowlink@r2c0,straggle=0.1,straggle-ms=300,seed=7",
    "partition@r1-r3:*|~1.2,slowlink@r2c0,straggle=0.1,straggle-ms=300,seed=7",
    "crash=0.2,corrupt=0.2,straggle=0.2,straggle-ms=400,seed=9",
    "netcrash@r1c1,nethang@r2c0",
    "scale:4000@r2c0",
    "shardcrash@r1s1,shardcrash=0.1,crash=0.05,seed=5",
    "shardcrash@r1s1,shardcrash=0.1,crash=0.05,nan-update@r2c1,seed=5",
    "shardhang@r1s1,shardhang=0.1,crash=0.05,seed=5",
    "shardhang@r1s1,shardhang=0.1,crash=0.05,nan-update@r2c1,seed=5",
    // faults.rs unit tests
    "crash=0.1,straggle=0.2,straggle-ms=500,corrupt=0.15,corrupt-attempts=3,agg=0.1,seed=7",
    "crash=0.05,straggle=0.1,straggle-ms=200,corrupt=0.02,agg=0.01,seed=4",
    "crash=2.0",
    "bogus=1",
    "crash",
    "crash=0.5,straggle=0.4,corrupt=0.3",
    "nan=0.1,sign-flip=0.1,scale=0.1,scale-factor=40,seed=13",
    "sign-flip@r3c1,scale:50@r2c0,nan-update@r99c0,seed=5",
    "sign-flip@r3c1,crash=0.05,scale:2.5@r0c2,seed=8",
    "straggle:75@r1c1",
    "corrupt:2@r1c1",
    "scale:inf@r1c1",
    "sign-flip@x3c1",
    "sign-flip@r3",
    "warp@r1c1",
    "nan=0.5,sign-flip=0.4,scale=0.3",
    "netcrash@r2c1,nethang@r3c0,coordkill@r4,crash=0.05,seed=9",
    "netcrash@r2",
    "nethang@x2c1",
    "coordkill@c1",
    "join=0.3,leave=0.02,seed=17",
    "join=0.1,leave=0.01,join@r4,join@r4,leave@r6c20,seed=3",
    "join@r4,join@r4,join@r99,leave@r6c20,leave@r99c0,seed=3",
    "join@x4",
    "leave@r6",
    "join=1.5",
    "crash=0.6,leave=0.5",
    "partition@r2-r5:0|1.2,partition@r6:*|~3,slowlink@r3c0,seed=9",
    "partition@r2",
    "partition@r2:0|",
    "partition@r5-r2:0|1",
    "partition@r2:1|1",
    "slowlink@r3",
    "lossy=1.5",
    "crash=0.1,straggle=0.2,straggle-ms=500,corrupt=0.15,corrupt-attempts=3,agg=0.1,seed=7",
    "shardcrash=0.1,shardhang=0.2,shards=8,shardcrash@r3s2,shardhang@r1s0",
    "shardcrash@r3c2",
    "shardhang@s2",
    "shardcrash=1.5",
    "crash=0.1,straggle=0.2,straggle-ms=500,corrupt=0.15,corrupt-attempts=3,agg=0.1,shardcrash=0.3,shardhang=0.3,shards=4,seed=7",
];

/// Every answer `plan` gives over rounds `0..rounds + 2` × indices
/// `0..24` (clients or shards), then every count, one line each.
fn plan_listing(plan: &FaultPlan, rounds: u64, out: &mut String) {
    for round in 0..rounds + 2 {
        writeln!(
            out,
            "r{round} crashes={:?} agg={} joins={} leaves={:?} coordkill={}",
            plan.crashes_at(round),
            plan.has(AggCrash, round, 0),
            plan.joins_at(round),
            plan.at(Leave, round),
            plan.has(CoordKill, round, 0),
        )
        .unwrap();
        for i in 0..24 {
            writeln!(
                out,
                "r{round}i{i} fault={:?} slow={} part={:?} netcrash={} nethang={} \
                 shardcrash={} shardhang={}",
                plan.client_fault(round, i),
                plan.has(SlowLink, round, i),
                plan.partition_state(round, i),
                plan.has(NetCrash, round, i),
                plan.has(NetHang, round, i),
                plan.has(ShardCrash, round, i),
                plan.has(ShardHang, round, i),
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "counts client={} agg={} join={} leave={} slow={} part={} netcrash={} \
         nethang={} coordkill={} shardcrash={} shardhang={}",
        plan.count(Tally::ClientFaults),
        plan.count(Tally::Event(AggCrash)),
        plan.count(Tally::Joins),
        plan.count(Tally::Event(Leave)),
        plan.count(Tally::Event(SlowLink)),
        plan.count(Tally::Partitions),
        plan.count(Tally::Event(NetCrash)),
        plan.count(Tally::Event(NetHang)),
        plan.count(Tally::Event(CoordKill)),
        plan.count(Tally::Event(ShardCrash)),
        plan.count(Tally::Event(ShardHang)),
    )
    .unwrap();
}

/// Every corpus spec expands to exactly the plans it always has: each
/// accepted spec is listed at two shapes (the second also giving the
/// shard columns four shards when the spec names none), each rejected
/// one as `rejected`, and the FNV-1a digest of the whole listing is
/// pinned. It was re-pinned when the link-loss column went: the new
/// listing is the old one without its ` loss=N` fields and the corpus's
/// `lossy=` entries.
#[test]
fn fault_plans_listing_is_pinned() {
    let mut listing = String::new();
    for text in LISTED_SPECS {
        writeln!(listing, "spec {text}").unwrap();
        let Ok(spec) = FaultSpec::parse(text) else {
            listing.push_str("rejected\n");
            continue;
        };
        for (population, rounds, shards) in [(4, 8, 0), (8, 10, 4)] {
            let mut spec = spec.clone();
            if spec.shards == 0 {
                spec.shards = shards;
            }
            writeln!(listing, "plan {population}x{rounds} shards={}", spec.shards).unwrap();
            plan_listing(&spec.plan(population, rounds), rounds, &mut listing);
        }
    }
    let digest = listing.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        digest, 0xe5ae_a553_db40_5808,
        "fault plan listing moved: {digest:#018x}"
    );
}

// ---- Fault grammar: fuzz ------------------------------------------------

/// The `key=value` rate keys of the `--faults` grammar.
const GRAMMAR_RATE_KEYS: [&str; 16] = [
    "crash",
    "straggle",
    "straggle-ms",
    "corrupt",
    "corrupt-attempts",
    "agg",
    "nan",
    "sign-flip",
    "scale",
    "scale-factor",
    "join",
    "leave",
    "shardcrash",
    "shardhang",
    "shards",
    "seed",
];

/// The pinned kinds of the `--faults` grammar, each with the axis its cell
/// names after the round (`None`: the round alone).
const GRAMMAR_PINNED_KINDS: [(&str, Option<char>); 14] = [
    ("crash", Some('c')),
    ("straggle", Some('c')),
    ("corrupt", Some('c')),
    ("nan-update", Some('c')),
    ("sign-flip", Some('c')),
    ("scale", Some('c')),
    ("join", None),
    ("leave", Some('c')),
    ("slowlink", Some('c')),
    ("netcrash", Some('c')),
    ("nethang", Some('c')),
    ("coordkill", None),
    ("shardcrash", Some('s')),
    ("shardhang", Some('s')),
];

/// A value for rate key `key`, in range or not, drawn from `n`.
fn rate_value(key: &str, n: u64, in_range: bool) -> String {
    let pick = |options: &[&str]| options[(n % options.len() as u64) as usize].to_string();
    match (key, in_range) {
        ("straggle-ms", true) => (1 + n % 5_000).to_string(),
        ("straggle-ms", false) => pick(&["0", "-5", "1.5"]),
        ("corrupt-attempts", true) => (1 + n % 9).to_string(),
        ("corrupt-attempts", false) => pick(&["0", "-1", "4294967296"]),
        ("scale-factor", true) => ((n % 4_001) as f64 / 10.0 - 200.0).to_string(),
        ("scale-factor", false) => pick(&["inf", "-inf", "NaN", "x"]),
        ("shards", true) => (n % 9).to_string(),
        ("shards", false) => pick(&["-1", "2.5"]),
        ("seed", true) => n.to_string(),
        ("seed", false) => pick(&["-1", "0x10"]),
        // Every other key is a probability. In-range values stay at or
        // below 0.14, so no sum of them passes 1.
        (_, true) => ((n % 15) as f64 / 100.0).to_string(),
        (_, false) => pick(&["1.5", "-0.25", "NaN", "inf", "x", ""]),
    }
}

/// A pinned entry of kind `GRAMMAR_PINNED_KINDS[kind]` on its own axis,
/// or one broken four ways: the wrong axis, no `r` before the round, a bad
/// magnitude (or one on a kind that takes none), and a missing magnitude
/// (or an unknown name).
fn pinned_entry(kind: usize, n: u64, in_range: bool) -> String {
    let (name, axis) = GRAMMAR_PINNED_KINDS[kind];
    let (round, index) = (n % 25, (n >> 8) % 20);
    let cell = |axis: Option<char>| match axis {
        Some(axis) => format!("r{round}{axis}{index}"),
        None => format!("r{round}"),
    };
    let magnitude = match name {
        "straggle" => format!(":{}", (n >> 16) % 3_000),
        "corrupt" => format!(":{}", (n >> 16) % 5),
        "scale" => format!(":{}", ((n >> 16) % 1_000) as f64 / 4.0 - 50.0),
        _ => String::new(),
    };
    if in_range {
        return format!("{name}{magnitude}@{}", cell(axis));
    }
    let wrong_axis = Some(if axis == Some('c') { 's' } else { 'c' });
    let (bad_magnitude, bad_name) = match name {
        "straggle" => (format!("{name}:-1"), name.to_string()),
        "corrupt" => (format!("{name}:x"), name.to_string()),
        "scale" => (format!("{name}:inf"), name.to_string()),
        _ => (format!("{name}:3"), format!("{name}x")),
    };
    match (n >> 32) % 4 {
        0 => format!("{name}{magnitude}@{}", cell(wrong_axis)),
        1 => format!("{name}{magnitude}@x{round}"),
        2 => format!("{bad_magnitude}@{}", cell(axis)),
        _ => format!("{bad_name}@{}", cell(axis)),
    }
}

/// A partition window, valid or broken one of five ways.
fn partition_entry(n: u64, in_range: bool) -> String {
    let start = n % 10;
    let span = if (n >> 8) & 1 == 0 {
        format!("r{start}")
    } else {
        format!("r{start}-r{}", start + 1 + (n >> 4) % 5)
    };
    let connected = ["", "*", "0", "0.4"][((n >> 12) % 4) as usize];
    let severed = ["1", "1.2", "3.5.7"][((n >> 16) % 3) as usize];
    let tilde = if (n >> 20) & 1 == 1 { "~" } else { "" };
    if in_range {
        return format!("partition@{span}:{connected}|{tilde}{severed}");
    }
    match (n >> 32) % 5 {
        0 => format!("partition@r{start}-r{start}:{connected}|{severed}"),
        1 => format!("partition@{span}:{connected}|{tilde}"),
        2 => format!("partition@{span}:1|{tilde}1.2"),
        3 => format!("partition@{span}:{connected}"),
        _ => format!("partition@{span}:{connected}|{tilde}1.x"),
    }
}

/// One generated `--faults` entry: its text, the rate key it sets (a
/// later entry for the same key overrides it), and whether it is in
/// range. Three in four entries are.
fn grammar_entry() -> impl Strategy<Value = (String, Option<usize>, bool)> {
    (
        0usize..3,
        0usize..GRAMMAR_RATE_KEYS.len(),
        0usize..14,
        0u64..4,
        any::<u64>(),
    )
        .prop_map(|(class, key, kind, broken, n)| {
            let in_range = broken != 0;
            match class {
                0 => {
                    let key_name = GRAMMAR_RATE_KEYS[key];
                    let text = format!("{key_name}={}", rate_value(key_name, n, in_range));
                    (text, Some(key), in_range)
                }
                1 => (pinned_entry(kind, n, in_range), None, in_range),
                _ => (partition_entry(n, in_range), None, in_range),
            }
        })
}

fn joined(entries: &[(String, Option<usize>, bool)]) -> String {
    let texts: Vec<&str> = entries.iter().map(|(text, ..)| text.as_str()).collect();
    texts.join(",")
}

/// Parses `text` and, when it is accepted, checks the spec validates.
fn parse_checked(text: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = FaultSpec::parse(text) {
        prop_assert!(
            spec.validate().is_ok(),
            "{:?} parsed but fails validate",
            text
        );
    }
    Ok(())
}

/// Grammar tokens that arbitrary bytes would almost never spell.
const GRAMMAR_TOKENS: [&str; 32] = [
    "crash",
    "join",
    "leave",
    "scale",
    "straggle",
    "corrupt",
    "shardcrash",
    "nethang",
    "partition",
    "seed",
    "shards",
    "slowlink",
    "@",
    "r",
    "c",
    "s",
    ":",
    "=",
    ",",
    "|",
    "~",
    "*",
    ".",
    "-r",
    "0",
    "1",
    "7",
    "0.5",
    "-1",
    "inf",
    "NaN",
    "99999999999999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No input makes the parser panic: arbitrary bytes (lossy UTF-8) and
    /// random strings of grammar tokens are accepted or refused, and an
    /// accepted one validates.
    #[test]
    fn fault_grammar_never_panics_on_arbitrary_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        soup in proptest::collection::vec(0usize..GRAMMAR_TOKENS.len(), 0..24),
    ) {
        parse_checked(&String::from_utf8_lossy(&bytes))?;
        parse_checked(&soup.iter().map(|&t| GRAMMAR_TOKENS[t]).collect::<String>())?;
    }

    /// A spec built from the grammar parses exactly when every value in
    /// it is in range and no rate key repeats, and every accepted spec
    /// expands at any small shape.
    #[test]
    fn fault_grammar_accepts_exactly_in_range_specs(
        entries in proptest::collection::vec(grammar_entry(), 0..10),
        population in 1usize..=16,
        rounds in 1u64..=20,
    ) {
        let text = joined(&entries);
        let mut keys: Vec<usize> = entries.iter().filter_map(|(_, key, _)| *key).collect();
        let rates = keys.len();
        keys.sort_unstable();
        keys.dedup();
        let in_range = entries.iter().all(|(_, _, ok)| *ok) && keys.len() == rates;
        let parsed = FaultSpec::parse(&text);
        prop_assert_eq!(parsed.is_ok(), in_range, "{:?} -> {:?}", text, parsed);
        if let Ok(spec) = parsed {
            spec.plan(population, rounds);
        }
    }

    /// Every truncation and single-byte mutation of a valid spec is
    /// accepted or refused without a panic, and an accepted one validates.
    #[test]
    fn fault_grammar_mutations_never_panic(
        entries in proptest::collection::vec(grammar_entry(), 1..8),
        mutations in proptest::collection::vec((any::<sample::Index>(), any::<u8>()), 1..16),
    ) {
        let mut keys = [false; GRAMMAR_RATE_KEYS.len()];
        let valid: Vec<_> = entries
            .into_iter()
            .filter(|&(_, key, ok)| ok && key.is_none_or(|k| !std::mem::replace(&mut keys[k], true)))
            .collect();
        let text = joined(&valid);
        prop_assert!(FaultSpec::parse(&text).is_ok(), "{:?} refused", text);
        for cut in 0..text.len() {
            parse_checked(&text[..cut])?;
        }
        if text.is_empty() {
            return Ok(());
        }
        for (at, byte) in mutations {
            let mut bytes = text.clone().into_bytes();
            bytes[at.index(text.len())] = byte;
            parse_checked(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
