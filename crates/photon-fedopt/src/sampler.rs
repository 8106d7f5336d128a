use photon_tensor::SeedStream;

/// Selects which clients participate in a round (Algorithm 1, L.4:
/// `C ~ U(P, K)` — sample `K` clients uniformly from the population).
pub trait ClientSampler: Send {
    /// Returns the sorted indices of the clients sampled for `round`.
    fn sample(&mut self, population: usize, round: u64) -> Vec<usize>;

    /// Expected number of clients per round for a given population.
    fn cohort_size(&self, population: usize) -> usize;
}

/// Every client participates every round (the paper's billion-scale runs,
/// §5.2: "full participation every round").
#[derive(Debug, Clone, Copy, Default)]
pub struct FullParticipation;

impl ClientSampler for FullParticipation {
    fn sample(&mut self, population: usize, _round: u64) -> Vec<usize> {
        (0..population).collect()
    }

    fn cohort_size(&self, population: usize) -> usize {
        population
    }
}

/// Uniform sampling of `k` clients without replacement — partial
/// participation (paper §5.5 samples 25%, 50%, 100% of sixteen clients).
#[derive(Debug, Clone)]
pub struct UniformSampler {
    k: usize,
    rng: SeedStream,
}

impl UniformSampler {
    /// Samples exactly `k` clients per round.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, rng: SeedStream) -> Self {
        assert!(k > 0, "cohort size must be positive");
        UniformSampler { k, rng }
    }
}

/// Round-keyed uniform draw of up to `k` clients from an explicit *live
/// member* list (elastic membership replaces the fixed `0..population`
/// universe with whatever the registry says is alive this round). The
/// draw forks `rng` per round, so it is a pure function of `(rng, round,
/// live)` — restored runs and replays sample identical cohorts.
///
/// Returns the members sorted ascending; the full list when `k >= len`.
pub fn sample_live(live: &[u32], k: usize, rng: &SeedStream, round: u64) -> Vec<u32> {
    if live.len() <= k {
        let mut all = live.to_vec();
        all.sort_unstable();
        return all;
    }
    let picked = rng
        .fork(&format!("round-{round}"))
        .sample_indices(live.len(), k);
    let mut cohort: Vec<u32> = picked.into_iter().map(|i| live[i]).collect();
    cohort.sort_unstable();
    cohort
}

impl ClientSampler for UniformSampler {
    fn sample(&mut self, population: usize, round: u64) -> Vec<usize> {
        let k = self.k.min(population);
        // Round-keyed: the cohort for round r is a pure function of the
        // base stream and r, so a run restored from a checkpoint samples
        // exactly the cohorts the uninterrupted run would have.
        self.rng
            .fork(&format!("round-{round}"))
            .sample_indices(population, k)
    }

    fn cohort_size(&self, population: usize) -> usize {
        self.k.min(population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_participation_returns_everyone() {
        let mut s = FullParticipation;
        assert_eq!(s.sample(4, 0), vec![0, 1, 2, 3]);
        assert_eq!(s.cohort_size(16), 16);
    }

    #[test]
    fn uniform_sampler_size_and_range() {
        let mut s = UniformSampler::new(4, SeedStream::new(1));
        for round in 0..50 {
            let c = s.sample(16, round);
            assert_eq!(c.len(), 4);
            assert!(c.iter().all(|&i| i < 16));
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn uniform_sampler_eventually_covers_population() {
        let mut s = UniformSampler::new(4, SeedStream::new(2));
        let mut seen = [false; 16];
        for round in 0..100 {
            for i in s.sample(16, round) {
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some client never sampled");
    }

    #[test]
    fn sampling_is_round_keyed() {
        // A sampler that skipped straight to round 5 (e.g. after a
        // checkpoint restore) picks the same cohort as one that walked
        // rounds 0..5 first.
        let mut walked = UniformSampler::new(3, SeedStream::new(9));
        for round in 0..5 {
            walked.sample(12, round);
        }
        let mut jumped = UniformSampler::new(3, SeedStream::new(9));
        assert_eq!(walked.sample(12, 5), jumped.sample(12, 5));
        // Different rounds still differ somewhere.
        let mut s = UniformSampler::new(3, SeedStream::new(9));
        let cohorts: Vec<_> = (0..10).map(|r| s.sample(12, r)).collect();
        assert!(cohorts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn oversized_k_clamps_to_population() {
        let mut s = UniformSampler::new(10, SeedStream::new(4));
        assert_eq!(s.sample(3, 0), vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = UniformSampler::new(2, SeedStream::new(7));
        let mut b = UniformSampler::new(2, SeedStream::new(7));
        assert_eq!(a.sample(10, 0), b.sample(10, 0));
        assert_eq!(a.sample(10, 1), b.sample(10, 1));
    }

    #[test]
    fn sample_live_draws_only_live_members() {
        let live = vec![2u32, 5, 9, 11, 40];
        let rng = SeedStream::new(8);
        let cohort = sample_live(&live, 3, &rng, 4);
        assert_eq!(cohort.len(), 3);
        assert!(cohort.windows(2).all(|w| w[0] < w[1]));
        assert!(cohort.iter().all(|c| live.contains(c)));
        // Small populations are taken whole.
        assert_eq!(sample_live(&live, 10, &rng, 4), vec![2, 5, 9, 11, 40]);
        // Pure in the rng: the draw is round-keyed, not call-order keyed.
        assert_eq!(cohort, sample_live(&live, 3, &rng, 4));
        // Different rounds eventually differ.
        let other: Vec<_> = (0..8).map(|r| sample_live(&live, 3, &rng, r)).collect();
        assert!(other.windows(2).any(|w| w[0] != w[1]));
    }
}
