//! TIES-merging aggregation (Yadav et al., NeurIPS 2023) — the
//! heterogeneity-robust aggregation the paper's §5.5 points to as a way to
//! "further enhance convergence" when client pseudo-gradients conflict.
//!
//! Three steps per coordinate group:
//! 1. **Trim**: zero each client's smallest-magnitude entries, keeping the
//!    top `density` fraction;
//! 2. **Elect sign**: the aggregate sign of each coordinate is the sign
//!    with the larger total magnitude across clients;
//! 3. **Disjoint merge**: average only the client entries whose sign
//!    agrees with the elected sign.

use crate::ClientUpdate;

/// Configuration for TIES aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TiesConfig {
    /// Fraction of each client's largest-magnitude entries to keep
    /// (the paper's k; 0.2 is the TIES default).
    pub density: f64,
}

impl Default for TiesConfig {
    fn default() -> Self {
        TiesConfig { density: 0.2 }
    }
}

/// Aggregates pseudo-gradients with trim / elect-sign / disjoint-mean.
///
/// Returns a delta with the same layout as the inputs. Coordinates where
/// every client was trimmed aggregate to zero.
///
/// # Panics
/// Panics if `updates` is empty, deltas have differing lengths, or
/// `density` is outside `(0, 1]`.
pub(crate) fn ties_aggregate(updates: &[ClientUpdate], config: &TiesConfig) -> Vec<f32> {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    assert!(
        config.density > 0.0 && config.density <= 1.0,
        "density must be in (0, 1]"
    );
    let n = updates[0].delta.len();
    for u in updates {
        assert_eq!(u.delta.len(), n, "delta length mismatch");
    }

    // 1. Trim each client's update to its top-density entries.
    let trimmed: Vec<Vec<f32>> = updates
        .iter()
        .map(|u| trim_to_density(&u.delta, config.density))
        .collect();

    // 2. Elect the per-coordinate sign by total magnitude.
    // 3. Average the sign-consistent entries.
    let mut out = vec![0.0f32; n];
    for j in 0..n {
        let mut pos = 0.0f64;
        let mut neg = 0.0f64;
        for t in &trimmed {
            let v = t[j] as f64;
            if v > 0.0 {
                pos += v;
            } else {
                neg -= v;
            }
        }
        let sign_positive = pos >= neg;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for t in &trimmed {
            let v = t[j];
            if v == 0.0 {
                continue;
            }
            if (v > 0.0) == sign_positive {
                sum += v as f64;
                count += 1;
            }
        }
        if count > 0 {
            out[j] = (sum / count as f64) as f32;
        }
    }
    out
}

fn trim_to_density(delta: &[f32], density: f64) -> Vec<f32> {
    let keep = ((delta.len() as f64 * density).ceil() as usize).clamp(1, delta.len());
    if keep == delta.len() {
        return delta.to_vec();
    }
    // Find the magnitude threshold via a descending total_cmp sort: NaN
    // magnitudes order to the front instead of panicking, so TIES stays
    // panic-free on poisoned deltas (the guard rejects them upstream).
    let mut mags: Vec<f32> = delta.iter().map(|v| v.abs()).collect();
    mags.sort_unstable_by(|a, b| b.total_cmp(a));
    let threshold = mags[keep - 1];
    let mut kept = 0usize;
    delta
        .iter()
        .map(|&v| {
            // Keep strictly-above-threshold entries, then fill remaining
            // quota with at-threshold entries (stable for ties).
            if v.abs() > threshold || (v.abs() == threshold && kept < keep) {
                kept += 1;
                v
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(delta: Vec<f32>) -> ClientUpdate {
        ClientUpdate::new(delta, 1.0).unwrap()
    }

    #[test]
    fn nan_gradients_do_not_panic() {
        let t = trim_to_density(&[0.1, f32::NAN, 0.2, 3.0], 0.5);
        assert_eq!(t.len(), 4);
        let updates = vec![u(vec![f32::NAN, 1.0]), u(vec![2.0, 1.0])];
        let agg = ties_aggregate(&updates, &TiesConfig { density: 0.5 });
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn trim_keeps_top_magnitudes() {
        let t = trim_to_density(&[0.1, -5.0, 0.2, 3.0, -0.05], 0.4);
        assert_eq!(t, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn full_density_is_identity_trim() {
        let d = vec![1.0, -2.0, 0.5];
        assert_eq!(trim_to_density(&d, 1.0), d);
    }

    #[test]
    fn sign_conflicts_resolved_by_majority_mass() {
        // Coordinate 0: +10 and +8 vs -1 -> positive side wins, the -1 is
        // excluded from the mean.
        let updates = vec![u(vec![10.0, 1.0]), u(vec![8.0, 1.0]), u(vec![-1.0, 1.0])];
        let agg = ties_aggregate(&updates, &TiesConfig { density: 1.0 });
        assert_eq!(agg, vec![9.0, 1.0]);
    }

    #[test]
    fn agreeing_updates_average_normally() {
        let updates = vec![u(vec![2.0, -4.0]), u(vec![4.0, -2.0])];
        let agg = ties_aggregate(&updates, &TiesConfig { density: 1.0 });
        assert_eq!(agg, vec![3.0, -3.0]);
    }

    #[test]
    fn conflicting_small_entries_are_trimmed_away() {
        // With density 0.5, each client keeps only its dominant entry, so
        // the noisy conflicting second coordinates vanish entirely.
        let updates = vec![u(vec![10.0, 0.1]), u(vec![12.0, -0.1])];
        let agg = ties_aggregate(&updates, &TiesConfig { density: 0.5 });
        assert_eq!(agg, vec![11.0, 0.0]);
    }

    #[test]
    fn single_client_passthrough_at_full_density() {
        let updates = vec![u(vec![1.0, -2.0, 3.0])];
        let agg = ties_aggregate(&updates, &TiesConfig { density: 1.0 });
        assert_eq!(agg, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn invalid_density_panics() {
        ties_aggregate(&[u(vec![1.0])], &TiesConfig { density: 0.0 });
    }

    /// TIES reduces interference on anti-correlated updates relative to
    /// plain averaging (the §5.5 motivation): with two clients pulling a
    /// coordinate in opposite directions, plain FedAvg nearly cancels the
    /// dominant client's signal while TIES preserves it.
    #[test]
    fn preserves_dominant_signal_under_conflict() {
        let updates = vec![u(vec![1.0; 4]), u(vec![-0.9; 4])];
        let plain = crate::aggregate_deltas(&updates);
        let ties = ties_aggregate(&updates, &TiesConfig { density: 1.0 });
        assert!(plain[0].abs() < 0.06);
        assert_eq!(ties, vec![1.0; 4]);
    }
}
