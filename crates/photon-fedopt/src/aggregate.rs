use photon_tensor::ops::pool;
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

    /// Applies the rule to a cohort's updates, writing the aggregate into
    /// `out`. The `Mean` rule reuses `out`'s allocation, so a caller that
    /// keeps it from round to round aggregates without touching the
    /// allocator; the other rules replace it.
    ///
    /// # Panics
    /// Panics if `updates` is empty or delta lengths differ.
    pub fn aggregate_into(&self, updates: &[ClientUpdate], out: &mut Vec<f32>) {
        *out = match *self {
            AggregationKind::Mean => return mean_into(updates, out),
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
        };
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
    let mut mean = Vec::new();
    mean_into(updates, &mut mean);
    mean
}

/// Passes over vectors shorter than this run on the calling thread: a
/// pool dispatch (~35 µs) would cost more than splitting the pass saves.
const POOL_FLOOR: usize = 1 << 16;

/// Columns the mean folds at a time: one f64 accumulator block on the
/// stack, small enough to stay in L1 while every update streams past it.
const MEAN_BLOCK: usize = 512;

/// [`aggregate_deltas`] into `out`, whose allocation is reused: one pass
/// over the cohort, its columns split over the compute pool, and each
/// column exactly [`WeightedSum`]'s fold — f64 `0.0 + w·Δ` for the first
/// update, `+= w·Δ` for the rest in slice order, one division by the total
/// weight — so the split never changes a bit.
///
/// # Panics
/// Panics if `updates` is empty or the deltas have differing lengths.
fn mean_into(updates: &[ClientUpdate], out: &mut Vec<f32>) {
    let (first, rest) = updates
        .split_first()
        .expect("cannot aggregate zero updates");
    let len = first.delta.len();
    for u in rest {
        assert_eq!(u.delta.len(), len, "delta length mismatch");
    }
    let total = updates.iter().fold(0.0, |sum, u| sum + u.weight);
    // Every element is stored below; only a length change writes here.
    out.resize(len, 0.0);
    on_pool(len, out, |cols, out| {
        let mut acc = [0.0f64; MEAN_BLOCK];
        for (start, out) in cols.step_by(MEAN_BLOCK).zip(out.chunks_mut(MEAN_BLOCK)) {
            let block = start..start + out.len();
            let acc = &mut acc[..out.len()];
            let w = first.weight;
            for (a, &d) in acc.iter_mut().zip(&first.delta[block.clone()]) {
                *a = 0.0 + w * d as f64;
            }
            for u in rest {
                let w = u.weight;
                for (a, &d) in acc.iter_mut().zip(&u.delta[block.clone()]) {
                    *a += w * d as f64;
                }
            }
            for (o, &a) in out.iter_mut().zip(acc.iter()) {
                *o = (a / total) as f32;
            }
        }
    });
}

/// What the §6 contribution measurement reads off a round's aggregate:
/// its L2 norm, and each contributor's dot product with it and own L2
/// norm, in `deltas` order. Each is one whole-vector
/// [`photon_tensor::ops::dot`] or [`photon_tensor::ops::l2_norm`] call, the
/// calls spread over the compute pool, so the bits are those of calling
/// them one after another.
pub fn alignment(aggregate: &[f32], deltas: &[&[f32]]) -> (f32, Vec<(f32, f32)>) {
    use photon_tensor::ops::{dot, l2_norm};
    // The norms of the aggregate and of every contributor first, then the
    // dearer dots: contiguous chunks of this list balance across the pool.
    let n = deltas.len();
    let mut sums = vec![0.0; 2 * n + 1];
    on_pool(aggregate.len(), &mut sums, |jobs, out| {
        for (job, sum) in jobs.zip(out) {
            *sum = match job {
                0 => l2_norm(aggregate),
                k if k <= n => l2_norm(deltas[k - 1]),
                k => dot(deltas[k - n - 1], aggregate),
            };
        }
    });
    let pairs = (0..n).map(|c| (sums[n + 1 + c], sums[1 + c])).collect();
    (sums[0], pairs)
}

/// Runs `work` over contiguous ranges of `out`, one per chunk of the
/// compute pool, or over all of it on the caller when the pass reads
/// vectors of fewer than [`POOL_FLOOR`] floats. `work` computes each
/// element from its index alone, so the split is scheduling only.
fn on_pool<T: Send>(
    floats: usize,
    out: &mut [T],
    work: impl Fn(std::ops::Range<usize>, &mut [T]) + Sync,
) {
    let parts = if floats < POOL_FLOOR {
        1
    } else {
        pool::effective_parallelism().min(out.len())
    };
    if parts <= 1 {
        work(0..out.len(), out);
        return;
    }
    let ranges = pool::chunk_ranges(out.len(), parts);
    let chunks = pool::split_rows(out, 1, &ranges);
    let work = &work;
    let tasks = ranges
        .into_iter()
        .zip(chunks)
        .map(|(range, chunk)| Box::new(move || work(range, chunk)) as pool::Task)
        .collect();
    pool::run_tasks(tasks);
}

/// The one weighted mean every merge computes, `(Σ w·Δ) / Σ w`: weights
/// and weighted deltas accumulate in f64 in the order updates are added,
/// and the sum is divided by the total weight once, at the end. It sums
/// before it divides because a stream cannot normalise before it has seen
/// every weight. [`crate::StreamingMerge`] runs it one update at a time;
/// the `Mean` rule ([`aggregate_deltas`]) runs the same fold column by
/// column over a whole set of updates at once.
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
    fn finiteness_scan() {
        assert!(u(vec![1.0, -2.0], 1.0).is_finite());
        assert!(!u(vec![1.0, f32::NAN], 1.0).is_finite());
        assert!(!u(vec![f32::INFINITY], 1.0).is_finite());
    }

    /// Three updates of `len` floats with unequal weights. Of every 16
    /// columns, one holds a NaN, one a +inf, one a -inf, one +inf and
    /// -inf in two updates, and one -0.0 in all three (which the first
    /// update's `0.0 + w·Δ` turns into +0.0).
    fn awkward_cohort(len: usize) -> Vec<ClientUpdate> {
        [0.75, 2.0, 1e-3]
            .iter()
            .enumerate()
            .map(|(k, &w)| {
                let delta = (0..len)
                    .map(|j| match (j % 16, k) {
                        (0, 0) => f32::NAN,
                        (1, 1) => f32::INFINITY,
                        (2, 2) => f32::NEG_INFINITY,
                        (3, _) => -0.0,
                        (4, 0) => f32::INFINITY,
                        (4, 1) => f32::NEG_INFINITY,
                        _ => ((j * 7 + k * 13) % 97) as f32 * 0.013 - 0.6,
                    })
                    .collect();
                u(delta, w)
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_pooled_mean_is_the_sequential_fold_to_the_bit() {
        for len in [1, 7, 8, (1 << 16) - 1, (1 << 16) + 1] {
            let updates = awkward_cohort(len);
            let mut fold = WeightedSum::default();
            for update in &updates {
                fold.add(update);
            }
            let (want, _) = fold.finish().unwrap();
            for chunks in [1, 2, 3] {
                for stale in [Vec::new(), vec![f32::NAN; len + 3], vec![f32::NAN; len / 2]] {
                    let mut got = stale;
                    pool::with_parallelism(chunks, || {
                        AggregationKind::Mean.aggregate_into(&updates, &mut got);
                    });
                    assert_eq!(bits(&got), bits(&want), "len {len}, {chunks} chunks");
                }
            }
        }
    }

    #[test]
    fn the_pooled_alignment_is_the_separate_calls_to_the_bit() {
        use photon_tensor::ops::{dot, l2_norm};
        for len in [1, 7, (1 << 16) + 1] {
            let updates = awkward_cohort(len);
            // Finite deltas, so the cosines are numbers worth comparing.
            let finite: Vec<Vec<f32>> = updates
                .iter()
                .map(|u| {
                    u.delta
                        .iter()
                        .map(|v| if v.is_finite() { *v } else { 0.5 })
                        .collect()
                })
                .collect();
            let mean = aggregate_deltas(&updates);
            for (aggregate, deltas) in [(&mean, &finite), (&finite[0], &finite)] {
                let deltas: Vec<&[f32]> = deltas.iter().map(Vec::as_slice).collect();
                let want: Vec<(u32, u32)> = deltas
                    .iter()
                    .map(|d| (dot(d, aggregate).to_bits(), l2_norm(d).to_bits()))
                    .collect();
                for chunks in [1, 2, 3] {
                    let (norm, pairs) =
                        pool::with_parallelism(chunks, || alignment(aggregate, &deltas));
                    assert_eq!(norm.to_bits(), l2_norm(aggregate).to_bits(), "len {len}");
                    let got: Vec<(u32, u32)> = pairs
                        .iter()
                        .map(|(d, n)| (d.to_bits(), n.to_bits()))
                        .collect();
                    assert_eq!(got, want, "len {len}, {chunks} chunks");
                }
            }
        }
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
        // A stale buffer of the wrong length, as a kept one may be.
        let aggregate = |kind: AggregationKind| {
            let mut out = vec![f32::NAN; 5];
            kind.aggregate_into(&updates, &mut out);
            out
        };
        assert_eq!(aggregate(AggregationKind::Mean), vec![2.0, 0.0]);
        let ties = aggregate(AggregationKind::Ties { density: 1.0 });
        assert_eq!(ties[0], 2.0);
        assert!(ties[1] > 0.0); // sign election keeps the positive entry
        let med = aggregate(AggregationKind::Median);
        assert_eq!(med, vec![2.0, 0.0]);
        let tm = aggregate(AggregationKind::TrimmedMean { trim_ratio: 0.2 });
        assert_eq!(tm, vec![2.0, 0.0]);
        let nc = aggregate(AggregationKind::NormClipped { max_norm_mult: 3.0 });
        assert_eq!(nc.len(), 2);
        assert_eq!(AggregationKind::default(), AggregationKind::Mean);
    }
}
