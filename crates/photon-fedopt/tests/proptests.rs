//! Property-based tests for federated aggregation and server optimizers.

use photon_fedopt::{
    aggregate_deltas, median_aggregate, staleness_factor, staleness_weights,
    trimmed_mean_aggregate, BufferedUpdate, ClientSampler, ClientUpdate, FullParticipation,
    ServerOptKind, UniformSampler, UpdateBuffer,
};
use photon_tensor::SeedStream;
use proptest::prelude::*;

proptest! {
    /// Aggregation is a convex combination: each coordinate of the result
    /// lies within the [min, max] of the client values.
    #[test]
    fn aggregation_is_convex(
        n_clients in 1usize..6,
        dim in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let updates: Vec<ClientUpdate> = (0..n_clients)
            .map(|_| {
                ClientUpdate::new(
                    (0..dim).map(|_| rng.next_normal()).collect(),
                    rng.next_f64() + 0.1,
                )
                .unwrap()
            })
            .collect();
        let avg = aggregate_deltas(&updates);
        for (j, &av) in avg.iter().enumerate().take(dim) {
            let lo = updates.iter().map(|u| u.delta[j]).fold(f32::INFINITY, f32::min);
            let hi = updates.iter().map(|u| u.delta[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(av >= lo - 1e-4 && av <= hi + 1e-4);
        }
    }

    /// Identical client updates aggregate to themselves regardless of
    /// weights.
    #[test]
    fn identical_updates_are_a_fixed_point(
        dim in 1usize..16,
        n in 1usize..5,
        w in proptest::collection::vec(0.1f64..10.0, 5),
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let delta: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let updates: Vec<ClientUpdate> = (0..n)
            .map(|i| ClientUpdate::new(delta.clone(), w[i]).unwrap())
            .collect();
        let avg = aggregate_deltas(&updates);
        for (a, d) in avg.iter().zip(&delta) {
            prop_assert!((a - d).abs() < 1e-5);
        }
    }

    /// FedAvg with server lr 1.0 moves the global model to the weighted
    /// client mean: global - avg_delta == mean(local).
    #[test]
    fn fedavg_recovers_parameter_mean(
        dim in 1usize..12,
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let global: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let locals: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_normal()).collect())
            .collect();
        let updates: Vec<ClientUpdate> = locals
            .iter()
            .map(|l| {
                let delta = global.iter().zip(l).map(|(g, l)| g - l).collect();
                ClientUpdate::new(delta, 1.0).unwrap()
            })
            .collect();
        let avg_delta = aggregate_deltas(&updates);
        let mut new_global = global.clone();
        ServerOptKind::FedAvg { lr: 1.0 }
            .build(dim)
            .apply(&mut new_global, &avg_delta, 0);
        for j in 0..dim {
            let mean: f32 = locals.iter().map(|l| l[j]).sum::<f32>() / n as f32;
            prop_assert!((new_global[j] - mean).abs() < 1e-4);
        }
    }

    /// All server optimizers leave the model unchanged on a zero delta
    /// from a fresh state.
    #[test]
    fn zero_delta_is_a_fixed_point(dim in 1usize..16, seed in any::<u64>()) {
        let mut rng = SeedStream::new(seed);
        let global: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let zero = vec![0.0f32; dim];
        for kind in [
            ServerOptKind::FedAvg { lr: 1.0 },
            ServerOptKind::FedMom { lr: 1.0, momentum: 0.9 },
            ServerOptKind::FedAdam { lr: 0.01 },
            ServerOptKind::diloco_default(),
        ] {
            let mut opt = kind.build(dim);
            let mut g = global.clone();
            opt.apply(&mut g, &zero, 0);
            prop_assert_eq!(&g, &global, "{} moved on zero delta", opt.name());
        }
    }

    /// Samplers always return sorted, distinct, in-range cohorts of the
    /// advertised size.
    #[test]
    fn sampler_invariants(
        population in 1usize..40,
        k in 1usize..40,
        rounds in 1u64..20,
        seed in any::<u64>(),
    ) {
        let mut full = FullParticipation;
        let mut uniform = UniformSampler::new(k, SeedStream::new(seed));
        for round in 0..rounds {
            let f = full.sample(population, round);
            prop_assert_eq!(f.len(), population);
            let u = uniform.sample(population, round);
            prop_assert_eq!(u.len(), k.min(population));
            prop_assert!(u.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(u.iter().all(|&i| i < population));
        }
    }

    /// Trimmed mean and median are permutation-invariant: any shuffle of
    /// the cohort produces a bit-identical aggregate.
    #[test]
    fn robust_rules_are_permutation_invariant(
        n in 2usize..8,
        dim in 1usize..12,
        trim in 0.0f64..0.49,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let mut updates: Vec<ClientUpdate> = (0..n)
            .map(|_| {
                ClientUpdate::new((0..dim).map(|_| rng.next_normal()).collect(), 1.0).unwrap()
            })
            .collect();
        let tm = trimmed_mean_aggregate(&updates, trim);
        let med = median_aggregate(&updates);
        // A seeded shuffle (reverse + rotate) exercises arbitrary orders.
        updates.reverse();
        let rot = rng.next_below(n);
        updates.rotate_left(rot);
        prop_assert_eq!(tm, trimmed_mean_aggregate(&updates, trim));
        prop_assert_eq!(med, median_aggregate(&updates));
    }

    /// With no outliers — identical client updates — every robust rule
    /// agrees with the plain mean exactly.
    #[test]
    fn robust_rules_agree_with_mean_on_homogeneous_cohorts(
        n in 1usize..7,
        dim in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let delta: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let updates: Vec<ClientUpdate> = (0..n)
            .map(|_| ClientUpdate::new(delta.clone(), 1.0).unwrap())
            .collect();
        let mean = aggregate_deltas(&updates);
        let tm = trimmed_mean_aggregate(&updates, 0.2);
        let med = median_aggregate(&updates);
        for j in 0..dim {
            prop_assert!((tm[j] - mean[j]).abs() < 1e-6);
            prop_assert!((med[j] - mean[j]).abs() < 1e-6);
        }
    }

    /// Under up to floor((n-1)/2) adversarial updates, every coordinate of
    /// the median stays within the inlier range; the trimmed mean does too
    /// when trimming covers the adversary count.
    #[test]
    fn robust_rules_bound_output_within_the_inlier_range(
        honest in 3usize..8,
        adversaries in 1usize..4,
        dim in 1usize..10,
        scale in 10.0f32..1e6,
        seed in any::<u64>(),
    ) {
        prop_assume!(adversaries <= (honest + adversaries - 1) / 2);
        let mut rng = SeedStream::new(seed);
        let inliers: Vec<Vec<f32>> = (0..honest)
            .map(|_| (0..dim).map(|_| rng.next_normal()).collect())
            .collect();
        let mut updates: Vec<ClientUpdate> = inliers
            .iter()
            .map(|d| ClientUpdate::new(d.clone(), 1.0).unwrap())
            .collect();
        for a in 0..adversaries {
            let sign = if a % 2 == 0 { 1.0 } else { -1.0 };
            updates.push(
                ClientUpdate::new(vec![sign * scale; dim], 1.0).unwrap(),
            );
        }
        let n = updates.len();
        let med = median_aggregate(&updates);
        let trim = adversaries as f64 / n as f64 + 1e-9;
        let tm = if trim < 0.5 { Some(trimmed_mean_aggregate(&updates, trim)) } else { None };
        for j in 0..dim {
            let lo = inliers.iter().map(|d| d[j]).fold(f32::INFINITY, f32::min);
            let hi = inliers.iter().map(|d| d[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(
                med[j] >= lo - 1e-4 && med[j] <= hi + 1e-4,
                "median coord {} = {} escaped inliers [{}, {}]", j, med[j], lo, hi
            );
            if let Some(ref tm) = tm {
                prop_assert!(
                    tm[j] >= lo - 1e-4 && tm[j] <= hi + 1e-4,
                    "trimmed coord {} = {} escaped inliers [{}, {}]", j, tm[j], lo, hi
                );
            }
        }
    }

    /// Staleness weights over a committed buffer are non-negative, sum to
    /// 1.0, and are monotone non-increasing in staleness when base weights
    /// are equal.
    #[test]
    fn staleness_weights_are_a_valid_decaying_distribution(
        n in 1usize..10,
        decay in 0.0f64..4.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let base: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.1).collect();
        let staleness: Vec<u64> = (0..n).map(|_| rng.next_below(20) as u64).collect();
        let w = staleness_weights(&base, &staleness, decay);
        prop_assert_eq!(w.len(), n);
        prop_assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // With equal base weights, more staleness never means more weight.
        let equal = staleness_weights(&vec![1.0; n], &staleness, decay);
        for i in 0..n {
            for j in 0..n {
                if staleness[i] <= staleness[j] {
                    prop_assert!(
                        equal[i] >= equal[j] - 1e-12,
                        "staleness {} got weight {} < staleness {} weight {}",
                        staleness[i], equal[i], staleness[j], equal[j]
                    );
                }
            }
        }
        // The factor itself is monotone non-increasing and 1.0 at zero.
        prop_assert_eq!(staleness_factor(0, decay), 1.0);
        for s in 0..19u64 {
            prop_assert!(staleness_factor(s + 1, decay) <= staleness_factor(s, decay));
        }
    }

    /// A buffered commit with zero staleness and full quorum is bitwise
    /// identical to the synchronous weighted mean of the same updates.
    #[test]
    fn zero_staleness_buffered_commit_is_bitwise_synchronous(
        n in 1usize..8,
        dim in 1usize..16,
        round in 0u64..100,
        decay in 0.0f64..4.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedStream::new(seed);
        let mut buf = UpdateBuffer::new();
        let mut sync = Vec::new();
        for c in 0..n {
            let delta: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
            let weight = rng.next_f64() + 0.1;
            sync.push(ClientUpdate::new(delta.clone(), weight).unwrap());
            buf.push(BufferedUpdate {
                client_id: c as u32,
                origin_round: round,
                arrival_round: round,
                base_weight: weight,
                mean_loss: 1.0,
                delta,
            });
        }
        let batch = buf.commit(round, decay).unwrap();
        prop_assert_eq!(batch.stale, 0);
        prop_assert_eq!(batch.updates.len(), n);
        // Bitwise, not approximately: the staleness factor is exactly 1.0
        // at zero staleness, so the very same f64 weights reach the rule.
        prop_assert_eq!(aggregate_deltas(&batch.updates), aggregate_deltas(&sync));
    }
}
