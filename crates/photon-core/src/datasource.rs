use photon_data::{Shard, ShardStream, TokenStream};
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
}

impl DataSource {
    /// Creates a data source over a shard.
    pub fn new(name: impl Into<String>, shard: Shard) -> Self {
        DataSource {
            name: name.into(),
            shard,
        }
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

    /// Binds a training stream over the full shard.
    pub fn bind_stream(&self, rng: SeedStream) -> Box<dyn TokenStream> {
        Box::new(ShardStream::new(self.shard.clone(), rng))
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
