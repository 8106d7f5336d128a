use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic, splittable random stream used across the workspace.
///
/// Every stochastic component of Photon-RS (parameter init, data generation,
/// client sampling, secure-aggregation masks) draws from a
/// `SeedStream` so whole experiments are bit-reproducible from a single root
/// seed. Streams can be [`split`](SeedStream::split) to derive independent
/// child streams, mirroring how a federated deployment hands each client an
/// independent seed.
///
/// ```
/// use photon_tensor::SeedStream;
/// let mut root = SeedStream::new(7);
/// let mut a = root.split("client-0");
/// let mut b = root.split("client-1");
/// assert_ne!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SeedStream {
    rng: ChaCha8Rng,
}

impl SeedStream {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        SeedStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream keyed by a label.
    ///
    /// The derivation hashes the label together with fresh entropy from this
    /// stream, so the same label produces different children when called
    /// twice (call order matters, keeping streams independent).
    pub fn split(&mut self, label: &str) -> SeedStream {
        let mut h = fnv1a(label.as_bytes());
        h ^= self.rng.next_u64().rotate_left(17);
        SeedStream::new(h)
    }

    /// Derives a child stream keyed by a label *without* advancing this
    /// stream: the same label always yields the same child. This is the
    /// right tool for round-keyed streams (client data order, cohort
    /// sampling) that must come out identical when a run is
    /// restored from a checkpoint and replayed from an earlier round.
    pub fn fork(&self, label: &str) -> SeedStream {
        let mut h = fnv1a(label.as_bytes());
        let mut probe = self.rng.clone();
        h ^= probe.next_u64().rotate_left(17);
        SeedStream::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.rng.gen::<f32>()
    }

    /// Uniform sample in `[0, 1)` with f64 precision.
    pub fn next_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below requires n > 0");
        self.rng.gen_range(0..n)
    }

    /// Standard normal sample via Box-Muller.
    pub fn next_normal(&mut self) -> f32 {
        // Box-Muller: avoid u1 == 0 which would yield -inf.
        let u1 = (1.0 - self.rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.gen();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (uniform without replacement).
    ///
    /// Small populations use a full Fisher-Yates shuffle (the historical
    /// draw, kept so seeded runs stay bit-identical); populations above
    /// `SAMPLE_DENSE_MAX` switch to Floyd's algorithm, which draws `k`
    /// indices in O(k) without materializing `0..n` — the path that lets a
    /// cohort sampler pull thousands from 10⁵+ registered clients.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        if n <= SAMPLE_DENSE_MAX {
            let mut idx: Vec<usize> = (0..n).collect();
            self.shuffle(&mut idx);
            idx.truncate(k);
            idx.sort_unstable();
            return idx;
        }
        self.sample_indices_sparse(n, k)
    }

    /// Floyd's sampling: `k` distinct uniform indices from `0..n` using
    /// O(k) memory and O(k log k) time, never allocating the population.
    fn sample_indices_sparse(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.next_below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

/// Largest population for which [`SeedStream::sample_indices`] keeps the
/// legacy dense shuffle (bit-compatible with existing seeded runs); larger
/// draws use the sparse O(k) path.
pub(crate) const SAMPLE_DENSE_MAX: usize = 4096;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fills `buf` with samples from `N(mean, std^2)`.
pub fn normal_fill(buf: &mut [f32], mean: f32, std: f32, rng: &mut SeedStream) {
    for v in buf.iter_mut() {
        *v = mean + std * rng.next_normal();
    }
}

/// Fills `buf` with samples from a truncated normal: values are re-drawn
/// until they fall within `mean ± 2*std` (standard LLM embedding init).
pub fn trunc_normal_fill(buf: &mut [f32], mean: f32, std: f32, rng: &mut SeedStream) {
    for v in buf.iter_mut() {
        loop {
            let x = rng.next_normal();
            if x.abs() <= 2.0 {
                *v = mean + std * x;
                break;
            }
        }
    }
}

/// Fills `buf` with uniform samples from `[lo, hi)`.
pub fn uniform_fill(buf: &mut [f32], lo: f32, hi: f32, rng: &mut SeedStream) {
    let span = hi - lo;
    for v in buf.iter_mut() {
        *v = lo + span * rng.next_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_fill_has_correct_moments() {
        let mut rng = SeedStream::new(0);
        let mut buf = vec![0.0f32; 20_000];
        normal_fill(&mut buf, 1.0, 2.0, &mut rng);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / buf.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn trunc_normal_bounded() {
        let mut rng = SeedStream::new(3);
        let mut buf = vec![0.0f32; 5000];
        trunc_normal_fill(&mut buf, 0.0, 0.02, &mut rng);
        assert!(buf.iter().all(|v| v.abs() <= 0.04 + 1e-6));
    }

    #[test]
    fn uniform_fill_in_range() {
        let mut rng = SeedStream::new(9);
        let mut buf = vec![0.0f32; 1000];
        uniform_fill(&mut buf, -0.5, 0.5, &mut rng);
        assert!(buf.iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SeedStream::new(11);
        let mut a = root.split("a");
        let mut b = root.split("a"); // same label, later call -> different stream
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_does_not_advance_and_is_stable() {
        let root = SeedStream::new(11);
        let mut a = root.fork("round-3");
        let mut b = root.fork("round-3"); // same label -> same child
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = root.fork("round-4");
        assert_ne!(a.next_u64(), c.next_u64());
        // fork agrees with what a single split from the same state yields.
        let mut root2 = SeedStream::new(11);
        let mut d = root2.split("round-3");
        assert_eq!(root.fork("round-3").next_u64(), d.next_u64());
    }

    #[test]
    fn sample_indices_distinct_and_sorted() {
        let mut rng = SeedStream::new(5);
        for _ in 0..20 {
            let s = rng.sample_indices(10, 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.dedup();
            assert_eq!(d.len(), 4);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(rng.sample_indices(3, 3), vec![0, 1, 2]);
    }

    #[test]
    fn sparse_sampling_is_uniform_distinct_and_deterministic() {
        let n = SAMPLE_DENSE_MAX + 10_000;
        let mut rng = SeedStream::new(21);
        let s = rng.sample_indices(n, 1_000);
        assert_eq!(s.len(), 1_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        assert!(s.iter().all(|&i| i < n));
        // Deterministic given the stream state.
        let again = SeedStream::new(21).sample_indices(n, 1_000);
        assert_eq!(s, again);
        // Rough uniformity: the sample mean of 1k draws from 0..n sits
        // near n/2 (tolerance ~4 sigma of the sample mean).
        let mean = s.iter().sum::<usize>() as f64 / s.len() as f64;
        assert!(
            (mean - n as f64 / 2.0).abs() < n as f64 / 20.0,
            "mean {mean}"
        );
        // Full draw still yields every index.
        let full = SeedStream::new(3).sample_indices_sparse(5_000, 5_000);
        assert_eq!(full, (0..5_000).collect::<Vec<_>>());
    }

    #[test]
    fn dense_sampling_path_is_unchanged_below_threshold() {
        // The dense draw must remain byte-for-byte the historical shuffle:
        // pin the exact output for a fixed seed so a regression that
        // switches small populations onto the sparse path (breaking every
        // seeded cohort in existing runs) is caught here.
        let s = SeedStream::new(5).sample_indices(10, 4);
        let mut rng = SeedStream::new(5);
        let mut idx: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut idx);
        idx.truncate(4);
        idx.sort_unstable();
        assert_eq!(s, idx);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeedStream::new(100);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
