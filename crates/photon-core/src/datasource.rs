use photon_data::{Shard, ShardStream, StreamMixer, TokenStream};
use photon_tensor::SeedStream;

/// A Photon Data Source: the storage side of the compute/data decoupling
/// (§3.1). Each DS owns a token shard and vends streams to the LLM client
/// bound to it (`BindStream`, Algorithm 1 L.14); when the client trains
/// with several parallel workers, the DS partitions the stream
/// (`PartitionStream`, L.22, IID by default).
#[derive(Debug, Clone)]
pub struct DataSource {
    name: String,
    shard: Shard,
    /// Optional shared public corpus mixed into every bound stream
    /// (§3.1: "public DS can be configured for data sharing among LLM-C
    /// clients"), with its sampling weight.
    public: Option<(Shard, f64)>,
}

impl DataSource {
    /// Creates a data source over a shard.
    pub fn new(name: impl Into<String>, shard: Shard) -> Self {
        DataSource {
            name: name.into(),
            shard,
            public: None,
        }
    }

    /// Attaches a shared public corpus sampled with probability
    /// `public_weight` per sequence (the private shard takes the rest).
    ///
    /// # Panics
    /// Panics if `public_weight` is outside `(0, 1)`.
    pub fn with_public(mut self, public: Shard, public_weight: f64) -> Self {
        assert!(
            public_weight > 0.0 && public_weight < 1.0,
            "public weight must be in (0, 1)"
        );
        self.public = Some((public, public_weight));
        self
    }

    /// The DS label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tokens stored.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// Whether the source holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }

    /// Binds a training stream over the full shard (mixed with the public
    /// corpus when one is attached).
    pub fn bind_stream(&self, mut rng: SeedStream) -> Box<dyn TokenStream> {
        match &self.public {
            None => Box::new(ShardStream::new(self.shard.clone(), rng)),
            Some((public, weight)) => {
                let private = Box::new(ShardStream::new(self.shard.clone(), rng.split("private")))
                    as Box<dyn TokenStream>;
                let shared = Box::new(ShardStream::new(public.clone(), rng.split("public")))
                    as Box<dyn TokenStream>;
                Box::new(StreamMixer::new(
                    vec![private, shared],
                    &[1.0 - weight, *weight],
                    rng.split("mixer"),
                ))
            }
        }
    }

    /// Partitions the source into `n` worker streams (IID default policy).
    ///
    /// # Panics
    /// Panics if the shard cannot be split `n` ways.
    pub(crate) fn partition_streams(
        &self,
        n: usize,
        rng: &mut SeedStream,
    ) -> Vec<Box<dyn TokenStream>> {
        self.shard
            .split(n)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let child = rng.split(&format!("{}-worker-{i}", self.name));
                Box::new(ShardStream::new(s, child)) as Box<dyn TokenStream>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_data::Batch;
    use std::sync::Arc;

    fn source(n: usize) -> DataSource {
        let shard = Shard::from_range("s", Arc::new((0..n as u32).collect()), 0, n);
        DataSource::new("ds", shard)
    }

    #[test]
    fn bind_produces_valid_batches() {
        let ds = source(256);
        let mut stream = ds.bind_stream(SeedStream::new(1));
        let mut b = Batch::zeros(2, 8);
        stream.next_batch(&mut b);
        assert_eq!(b.targets[0], b.inputs[0] + 1);
        assert_eq!(ds.len(), 256);
        assert!(!ds.is_empty());
        assert_eq!(ds.name(), "ds");
    }

    #[test]
    fn public_corpus_is_mixed_in() {
        // Private tokens < 1000; public tokens >= 1000.
        let private = Shard::from_range("p", Arc::new((0..200u32).collect()), 0, 200);
        let public = Shard::from_range("pub", Arc::new((1000..1200u32).collect()), 0, 200);
        let ds = DataSource::new("mixed", private).with_public(public, 0.3);
        let mut stream = ds.bind_stream(SeedStream::new(4));
        let mut from_public = 0usize;
        let mut b = Batch::zeros(1, 8);
        const N: usize = 300;
        for _ in 0..N {
            stream.next_batch(&mut b);
            if b.inputs[0] >= 1000 {
                from_public += 1;
            }
        }
        let frac = from_public as f64 / N as f64;
        assert!((frac - 0.3).abs() < 0.1, "public fraction {frac}");
    }

    #[test]
    fn partition_gives_disjoint_worker_streams() {
        let ds = source(300);
        let mut rng = SeedStream::new(2);
        let mut streams = ds.partition_streams(3, &mut rng);
        assert_eq!(streams.len(), 3);
        let mut b = Batch::zeros(1, 8);
        // Worker 0 draws from the first ~100 tokens, worker 2 from the last.
        streams[0].next_batch(&mut b);
        assert!(b.inputs[0] < 100);
        streams[2].next_batch(&mut b);
        assert!(b.inputs[0] >= 200);
    }
}
