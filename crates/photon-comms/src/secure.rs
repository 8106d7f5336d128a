//! Secure aggregation via cancelling pairwise masks (Bonawitz et al. 2016,
//! simplified to the honest-but-curious, no-dropout case the paper's Link
//! "supports … for enhanced privacy, if needed" (§4)).
//!
//! Every ordered pair of clients `(i, j)` derives a shared seed; client `i`
//! adds `PRG(seed)` when `i < j` and subtracts it when `i > j`. Individual
//! masked updates are statistically hiding, while the masks cancel exactly
//! in the aggregate sum.

use photon_tensor::SeedStream;
use std::fmt;

/// Errors from secure-aggregation masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureAggError {
    /// A client appeared twice in the cohort list.
    DuplicateClient(u32),
    /// The masking client is not part of the cohort.
    ClientNotInCohort(u32),
}

impl fmt::Display for SecureAggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecureAggError::DuplicateClient(id) => write!(f, "duplicate client id {id}"),
            SecureAggError::ClientNotInCohort(id) => {
                write!(f, "client {id} not in the cohort")
            }
        }
    }
}

impl std::error::Error for SecureAggError {}

/// Derives the shared pairwise seed for clients `a` and `b` under a round
/// key. Symmetric: `pairwise_seed(k, a, b) == pairwise_seed(k, b, a)`.
/// In a real deployment this comes from a Diffie-Hellman exchange; here a
/// keyed hash models the agreed secret.
pub(crate) fn pairwise_seed(round_key: u64, a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let mut h = round_key ^ 0x9E37_79B9_7F4A_7C15;
    for v in [lo as u64, hi as u64] {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h
}

/// Masks `update` in place for secure aggregation.
///
/// `cohort` is the full sorted list of participating client ids;
/// `client_id` identifies the caller. Masks drawn from `N(0, 1)` per
/// element swamp the update values (which are orders of magnitude smaller),
/// and cancel exactly across the cohort.
///
/// # Errors
/// Returns [`SecureAggError`] if the cohort contains duplicates or the
/// client is not a member.
pub fn mask_update(
    update: &mut [f32],
    client_id: u32,
    cohort: &[u32],
    round_key: u64,
) -> Result<(), SecureAggError> {
    let mut seen = cohort.to_vec();
    seen.sort_unstable();
    for w in seen.windows(2) {
        if w[0] == w[1] {
            return Err(SecureAggError::DuplicateClient(w[0]));
        }
    }
    if !cohort.contains(&client_id) {
        return Err(SecureAggError::ClientNotInCohort(client_id));
    }
    for &peer in cohort {
        if peer == client_id {
            continue;
        }
        let seed = pairwise_seed(round_key, client_id, peer);
        let mut prg = SeedStream::new(seed);
        let sign = if client_id < peer { 1.0f32 } else { -1.0 };
        for u in update.iter_mut() {
            *u += sign * prg.next_normal();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(n_clients: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n_clients)
            .map(|c| (0..dim).map(|i| (c * dim + i) as f32 * 1e-3).collect())
            .collect()
    }

    #[test]
    fn masks_cancel_in_aggregate() {
        let cohort: Vec<u32> = vec![0, 1, 2, 3, 4];
        let dim = 64;
        let originals = updates(cohort.len(), dim);
        let mut masked = originals.clone();
        for (i, &cid) in cohort.iter().enumerate() {
            mask_update(&mut masked[i], cid, &cohort, 777).unwrap();
        }
        let sum = |vs: &[Vec<f32>]| -> Vec<f32> {
            let mut s = vec![0.0f32; dim];
            for v in vs {
                for (a, b) in s.iter_mut().zip(v) {
                    *a += b;
                }
            }
            s
        };
        let s0 = sum(&originals);
        let s1 = sum(&masked);
        for (a, b) in s0.iter().zip(&s1) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn individual_updates_are_hidden() {
        let cohort = vec![0u32, 1];
        let original = vec![1e-3f32; 32];
        let mut masked = original.clone();
        mask_update(&mut masked, 0, &cohort, 1).unwrap();
        // The mask (unit normal) dominates the tiny update.
        let diff: f32 = masked
            .iter()
            .zip(&original)
            .map(|(m, o)| (m - o).abs())
            .sum::<f32>()
            / 32.0;
        assert!(diff > 0.1, "mask too weak: {diff}");
    }

    #[test]
    fn seed_is_symmetric_and_round_dependent() {
        assert_eq!(pairwise_seed(5, 1, 9), pairwise_seed(5, 9, 1));
        assert_ne!(pairwise_seed(5, 1, 9), pairwise_seed(6, 1, 9));
        assert_ne!(pairwise_seed(5, 1, 9), pairwise_seed(5, 1, 8));
    }

    #[test]
    fn validation_errors() {
        let mut u = vec![0.0f32; 4];
        assert_eq!(
            mask_update(&mut u, 0, &[0, 1, 1], 0),
            Err(SecureAggError::DuplicateClient(1))
        );
        assert_eq!(
            mask_update(&mut u, 9, &[0, 1], 0),
            Err(SecureAggError::ClientNotInCohort(9))
        );
    }

    #[test]
    fn single_client_cohort_is_identity() {
        let mut u = vec![0.5f32; 8];
        mask_update(&mut u, 3, &[3], 42).unwrap();
        assert_eq!(u, vec![0.5f32; 8]);
    }
}
