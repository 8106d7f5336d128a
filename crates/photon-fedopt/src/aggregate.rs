use serde::{Deserialize, Serialize};

/// The aggregation rule applied to the cohort's pseudo-gradients before
/// the server optimizer (Algorithm 1, L.8). `Mean` is the paper's default;
/// `Ties` is the heterogeneity-robust alternative its §5.5 points to; the
/// remaining rules are Byzantine-robust order statistics for cohorts that
/// cannot be assumed well-behaved (the open-internet setting of "The
/// Future of LLM Pre-training is Federated").
///
/// Every rule is permutation-invariant in the update order and
/// bit-deterministic for a fixed input set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AggregationKind {
    /// Weighted arithmetic mean (FedAvg-style).
    #[default]
    Mean,
    /// TIES-merging: trim to the top-density entries, elect per-coordinate
    /// signs by magnitude, average the sign-consistent survivors.
    Ties {
        /// Fraction of each client's largest-magnitude entries to keep.
        density: f64,
    },
    /// Coordinate-wise trimmed mean: drop the `trim_ratio` fraction of
    /// extreme values on each side before averaging. Tolerates up to
    /// `floor(trim_ratio * n)` adversarial updates per coordinate side.
    TrimmedMean {
        /// Fraction trimmed from each end, in `[0, 0.5)`.
        trim_ratio: f64,
    },
    /// Coordinate-wise median — maximally robust: the output stays within
    /// the inlier range under up to `floor((n - 1) / 2)` adversaries.
    Median,
    /// Weighted mean after clipping every update's L2 norm to
    /// `max_norm_mult ×` the cohort's median norm (defangs scaled
    /// updates while keeping the mean's variance reduction).
    NormClipped {
        /// Norm ceiling as a multiple of the cohort median norm.
        max_norm_mult: f64,
    },
}

impl AggregationKind {
    /// Parses the CLI grammar: `mean`, `ties[:density]`,
    /// `trimmed-mean[:ratio]`, `median`, `norm-clipped[:mult]`.
    ///
    /// # Errors
    /// Returns a message naming the offending mode or parameter.
    pub fn parse(s: &str) -> Result<AggregationKind, String> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let number = |default: f64| -> Result<f64, String> {
            match param {
                None => Ok(default),
                Some(p) => p
                    .parse()
                    .map_err(|_| format!("invalid aggregation parameter {p:?}")),
            }
        };
        let kind = match name {
            "mean" => AggregationKind::Mean,
            "ties" => AggregationKind::Ties {
                density: number(0.2)?,
            },
            "trimmed-mean" => AggregationKind::TrimmedMean {
                trim_ratio: number(0.2)?,
            },
            "median" => AggregationKind::Median,
            "norm-clipped" => AggregationKind::NormClipped {
                max_norm_mult: number(3.0)?,
            },
            other => {
                return Err(format!(
                    "unknown aggregation {other:?} \
                     (mean|ties|trimmed-mean|median|norm-clipped)"
                ))
            }
        };
        kind.validate()?;
        Ok(kind)
    }

    /// Checks the rule's parameters.
    ///
    /// # Errors
    /// Returns a description of the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AggregationKind::Ties { density } => {
                if !(density > 0.0 && density <= 1.0) {
                    return Err(format!("ties density {density} outside (0, 1]"));
                }
            }
            AggregationKind::TrimmedMean { trim_ratio } => {
                if !(0.0..0.5).contains(&trim_ratio) {
                    return Err(format!("trim ratio {trim_ratio} outside [0, 0.5)"));
                }
            }
            AggregationKind::NormClipped { max_norm_mult } => {
                if !(max_norm_mult.is_finite() && max_norm_mult > 0.0) {
                    return Err(format!(
                        "norm-clip multiple {max_norm_mult} must be positive"
                    ));
                }
            }
            AggregationKind::Mean | AggregationKind::Median => {}
        }
        Ok(())
    }

    /// The rule's stable short name (used as the robust-merge span name in
    /// traces).
    pub fn rule_name(&self) -> &'static str {
        match *self {
            AggregationKind::Mean => "mean",
            AggregationKind::Ties { .. } => "ties",
            AggregationKind::TrimmedMean { .. } => "trimmed_mean",
            AggregationKind::Median => "median",
            AggregationKind::NormClipped { .. } => "norm_clipped",
        }
    }

    /// Applies the rule to a cohort's updates.
    ///
    /// # Panics
    /// Panics if `updates` is empty or delta lengths differ.
    pub fn aggregate(&self, updates: &[ClientUpdate]) -> Vec<f32> {
        let _merge_span = photon_trace::span(photon_trace::Phase::RobustMerge)
            .named(self.rule_name())
            .arg("updates", updates.len() as u64)
            .arg(
                "params",
                updates.first().map_or(0, |u| u.delta.len()) as u64,
            );
        match *self {
            AggregationKind::Mean => aggregate_deltas(updates),
            AggregationKind::Ties { density } => {
                crate::ties_aggregate(updates, &crate::TiesConfig { density })
            }
            AggregationKind::TrimmedMean { trim_ratio } => {
                crate::trimmed_mean_aggregate(updates, trim_ratio)
            }
            AggregationKind::Median => crate::median_aggregate(updates),
            AggregationKind::NormClipped { max_norm_mult } => {
                crate::norm_clipped_aggregate(updates, max_norm_mult)
            }
        }
    }
}

/// One client's contribution to a round: a pseudo-gradient
/// `Δ_k = θ_global − θ_k` (Algorithm 1, L.7) plus an aggregation weight
/// (uniform 1.0 in the paper; sample counts for weighted FedAvg).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// Flat pseudo-gradient, same layout as the model parameters.
    pub delta: Vec<f32>,
    /// Aggregation weight (must be positive).
    pub weight: f64,
}

impl ClientUpdate {
    /// Creates an update, rejecting non-positive or non-finite weights so
    /// a malformed client result surfaces as a recoverable error instead
    /// of aborting the aggregation thread.
    ///
    /// # Errors
    /// Returns a message describing the bad weight.
    pub fn new(delta: Vec<f32>, weight: f64) -> Result<Self, String> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(format!(
                "aggregation weight {weight} must be positive and finite"
            ));
        }
        Ok(ClientUpdate { delta, weight })
    }

    /// L2 norm of the pseudo-gradient (a useful training-health metric:
    /// the paper notes client updates are near-orthogonal with small
    /// pseudo-gradient norms, Appendix C.1).
    pub fn norm(&self) -> f32 {
        photon_tensor::ops::l2_norm(&self.delta)
    }

    /// Whether every entry of the pseudo-gradient is finite.
    pub fn is_finite(&self) -> bool {
        self.delta.iter().all(|v| v.is_finite())
    }
}

/// Weighted average of client pseudo-gradients (Algorithm 1, L.8): the
/// one weighted mean, folded in slice order.
///
/// # Panics
/// Panics if `updates` is empty or the deltas have differing lengths.
pub fn aggregate_deltas(updates: &[ClientUpdate]) -> Vec<f32> {
    let mut sum = WeightedSum::default();
    for u in updates {
        sum.add(u);
    }
    sum.finish().expect("cannot aggregate zero updates").0
}

/// The one weighted mean every merge computes, `(Σ w·Δ) / Σ w`: weights
/// and weighted deltas accumulate in f64 in the order updates are added,
/// and the sum is divided by the total weight once, at the end. It sums
/// before it divides because a stream cannot normalise before it has seen
/// every weight; the flat reduce ([`aggregate_deltas`]) and the shard
/// folds ([`crate::StreamingMerge`]) are both this fold.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeightedSum {
    acc: Vec<f64>,
    weight: f64,
    count: usize,
}

impl WeightedSum {
    /// Folds one update in.
    ///
    /// # Panics
    /// Panics if its length differs from the updates folded before it.
    pub(crate) fn add(&mut self, update: &ClientUpdate) {
        let w = update.weight;
        if self.count == 0 {
            // The first update stores `0.0 + w·Δ` — the sum over zeroed
            // accumulators, to the bit — instead of zeroing a buffer it
            // would read straight back.
            self.acc = update.delta.iter().map(|&d| 0.0 + w * d as f64).collect();
        } else {
            assert_eq!(update.delta.len(), self.acc.len(), "delta length mismatch");
            for (a, &d) in self.acc.iter_mut().zip(&update.delta) {
                *a += w * d as f64;
            }
        }
        self.weight += w;
        self.count += 1;
    }

    /// Updates folded so far.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The weighted mean and the total weight behind it; `None` if nothing
    /// was folded.
    pub(crate) fn finish(self) -> Option<(Vec<f32>, f64)> {
        if self.count == 0 {
            return None;
        }
        let w = self.weight;
        Some((self.acc.into_iter().map(|v| (v / w) as f32).collect(), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(delta: Vec<f32>, weight: f64) -> ClientUpdate {
        ClientUpdate::new(delta, weight).unwrap()
    }

    #[test]
    fn uniform_aggregation_is_mean() {
        let updates = vec![
            u(vec![2.0, 0.0], 1.0),
            u(vec![0.0, 2.0], 1.0),
            u(vec![1.0, 1.0], 1.0),
        ];
        assert_eq!(aggregate_deltas(&updates), vec![1.0, 1.0]);
    }

    #[test]
    fn weighted_aggregation() {
        let updates = vec![u(vec![0.0], 3.0), u(vec![4.0], 1.0)];
        assert_eq!(aggregate_deltas(&updates), vec![1.0]);
    }

    #[test]
    fn the_one_mean_sums_then_divides() {
        // Three clients whose second coordinates cancel: summing first
        // gives exactly 0, normalising first leaves a 5.6e-17 residue.
        let updates = vec![
            u(vec![0.1, 1.5], 1.0),
            u(vec![0.3, -0.5], 1.0),
            u(vec![0.3, -1.0], 1.0),
        ];
        let got = aggregate_deltas(&updates);
        let total: f64 = updates.iter().map(|u| u.weight).sum();
        let column = |j: usize| updates.iter().map(move |u| (u.weight, u.delta[j] as f64));
        let bits = |v: f64| (v as f32).to_bits();
        for (j, got) in got.iter().enumerate() {
            let sum_then_divide = column(j).map(|(w, d)| w * d).sum::<f64>() / total;
            let normalise_then_sum: f64 = column(j).map(|(w, d)| w / total * d).sum();
            assert_ne!(bits(sum_then_divide), bits(normalise_then_sum), "{j}");
            assert_eq!(got.to_bits(), bits(sum_then_divide), "{j}");
        }
        assert_eq!(got[1], 0.0);
    }

    #[test]
    fn the_first_update_sums_onto_zero() {
        // `0.0 + w·Δ`, as over a zeroed accumulator: a negative zero comes
        // out positive, exactly as it did before the first update stored.
        let mean = aggregate_deltas(&[u(vec![-0.0, 1.5], 2.0)]);
        assert_eq!(mean[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(mean[1], 1.5);
    }

    #[test]
    fn single_update_passes_through() {
        let updates = vec![u(vec![0.25, -0.5], 7.0)];
        assert_eq!(aggregate_deltas(&updates), vec![0.25, -0.5]);
    }

    #[test]
    fn norm_metric() {
        assert_eq!(u(vec![3.0, 4.0], 1.0).norm(), 5.0);
    }

    #[test]
    fn finiteness_scan() {
        assert!(u(vec![1.0, -2.0], 1.0).is_finite());
        assert!(!u(vec![1.0, f32::NAN], 1.0).is_finite());
        assert!(!u(vec![f32::INFINITY], 1.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "cannot aggregate zero updates")]
    fn empty_aggregation_panics() {
        aggregate_deltas(&[]);
    }

    #[test]
    fn bad_weights_are_errors_not_panics() {
        assert!(ClientUpdate::new(vec![1.0], -1.0).is_err());
        assert!(ClientUpdate::new(vec![1.0], 0.0).is_err());
        assert!(ClientUpdate::new(vec![1.0], f64::NAN).is_err());
        assert!(ClientUpdate::new(vec![1.0], f64::INFINITY).is_err());
        assert!(ClientUpdate::new(vec![1.0], 2.0).is_ok());
    }

    #[test]
    fn parse_covers_the_cli_grammar() {
        assert_eq!(
            AggregationKind::parse("mean").unwrap(),
            AggregationKind::Mean
        );
        assert_eq!(
            AggregationKind::parse("ties:0.5").unwrap(),
            AggregationKind::Ties { density: 0.5 }
        );
        assert_eq!(
            AggregationKind::parse("trimmed-mean").unwrap(),
            AggregationKind::TrimmedMean { trim_ratio: 0.2 }
        );
        assert_eq!(
            AggregationKind::parse("trimmed-mean:0.3").unwrap(),
            AggregationKind::TrimmedMean { trim_ratio: 0.3 }
        );
        assert_eq!(
            AggregationKind::parse("median").unwrap(),
            AggregationKind::Median
        );
        assert_eq!(
            AggregationKind::parse("norm-clipped:5").unwrap(),
            AggregationKind::NormClipped { max_norm_mult: 5.0 }
        );
        assert!(AggregationKind::parse("krum").is_err());
        assert!(AggregationKind::parse("trimmed-mean:0.5").is_err());
        assert!(AggregationKind::parse("trimmed-mean:x").is_err());
        assert!(AggregationKind::parse("ties:0").is_err());
        assert!(AggregationKind::parse("norm-clipped:-1").is_err());
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn kind_dispatches_to_every_rule() {
        let updates = vec![
            ClientUpdate::new(vec![1.0, 0.2], 1.0).unwrap(),
            ClientUpdate::new(vec![3.0, -0.2], 1.0).unwrap(),
        ];
        assert_eq!(AggregationKind::Mean.aggregate(&updates), vec![2.0, 0.0]);
        let ties = AggregationKind::Ties { density: 1.0 }.aggregate(&updates);
        assert_eq!(ties[0], 2.0);
        assert!(ties[1] > 0.0); // sign election keeps the positive entry
        let med = AggregationKind::Median.aggregate(&updates);
        assert_eq!(med, vec![2.0, 0.0]);
        let tm = AggregationKind::TrimmedMean { trim_ratio: 0.2 }.aggregate(&updates);
        assert_eq!(tm, vec![2.0, 0.0]);
        let nc = AggregationKind::NormClipped { max_norm_mult: 3.0 }.aggregate(&updates);
        assert_eq!(nc.len(), 2);
        assert_eq!(AggregationKind::default(), AggregationKind::Mean);
    }
}
