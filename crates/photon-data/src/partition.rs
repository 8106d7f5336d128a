use crate::TokenCorpus;
use photon_tensor::SeedStream;
use photon_tokenizer::TokenId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A client's private slice of training data.
///
/// Shards share the underlying token buffers via `Arc`, so a 64-way split
/// of a corpus does not copy the corpus 64 times — mirroring the paper's
/// Data Sources, where a shard is a *view* a client streams from, not a
/// replica.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Shard {
    /// Identifying label, e.g. `c4-shard-07` or `wiki-part-1`.
    pub name: String,
    segments: Vec<Segment>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Segment {
    #[serde(with = "arc_tokens")]
    tokens: Arc<Vec<TokenId>>,
    start: usize,
    end: usize,
}

mod arc_tokens {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &Arc<Vec<TokenId>>, s: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(v.as_ref(), s)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<Arc<Vec<TokenId>>, D::Error> {
        let v: Vec<TokenId> = serde::Deserialize::deserialize(d)?;
        Ok(Arc::new(v))
    }
}

impl Shard {
    /// Creates a shard from one contiguous range of a shared buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or empty.
    pub fn from_range(
        name: impl Into<String>,
        tokens: Arc<Vec<TokenId>>,
        start: usize,
        end: usize,
    ) -> Self {
        assert!(start < end && end <= tokens.len(), "invalid shard range");
        Shard {
            name: name.into(),
            segments: vec![Segment { tokens, start, end }],
        }
    }

    /// Total number of tokens visible through this shard.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.end - s.start).sum()
    }

    /// Whether the shard holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Token at a logical position within the shard.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    pub fn token_at(&self, pos: usize) -> TokenId {
        let mut rem = pos;
        for seg in &self.segments {
            let n = seg.end - seg.start;
            if rem < n {
                return seg.tokens[seg.start + rem];
            }
            rem -= n;
        }
        panic!("shard position {pos} out of bounds (len {})", self.len());
    }

    /// Copies a logical window `[pos, pos + out.len())` into `out`.
    ///
    /// # Panics
    /// Panics if the window exceeds the shard.
    pub(crate) fn copy_window(&self, pos: usize, out: &mut [TokenId]) {
        assert!(pos + out.len() <= self.len(), "window exceeds shard");
        let mut written = 0usize;
        let mut skip = pos;
        for seg in &self.segments {
            let n = seg.end - seg.start;
            if skip >= n {
                skip -= n;
                continue;
            }
            let avail = n - skip;
            let take = avail.min(out.len() - written);
            out[written..written + take]
                .copy_from_slice(&seg.tokens[seg.start + skip..seg.start + skip + take]);
            written += take;
            skip = 0;
            if written == out.len() {
                return;
            }
        }
    }

    /// Splits this shard into `n` nearly equal sub-shards (used when one
    /// data source feeds several nodes inside a client — Algorithm 1, L.22).
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > len()`.
    pub fn split(&self, n: usize) -> Vec<Shard> {
        assert!(n > 0 && n <= self.len(), "cannot split shard into {n}");
        let total = self.len();
        let base = total / n;
        let mut out = Vec::with_capacity(n);
        let mut pos = 0usize;
        for i in 0..n {
            let sz = if i < total % n { base + 1 } else { base };
            out.push(self.sub_shard(format!("{}-part-{i}", self.name), pos, pos + sz));
            pos += sz;
        }
        out
    }

    fn sub_shard(&self, name: String, start: usize, end: usize) -> Shard {
        let mut segments = Vec::new();
        let mut seg_base = 0usize;
        for seg in &self.segments {
            let n = seg.end - seg.start;
            let lo = start.max(seg_base);
            let hi = end.min(seg_base + n);
            if lo < hi {
                segments.push(Segment {
                    tokens: Arc::clone(&seg.tokens),
                    start: seg.start + (lo - seg_base),
                    end: seg.start + (hi - seg_base),
                });
            }
            seg_base += n;
        }
        Shard { name, segments }
    }
}

/// Uniformly partitions a corpus into `n_shards` equal shards, reproducing
/// the paper's "randomly partitioning the C4 dataset uniformly into 64
/// equally sized shards" (§5.1). Block-level shuffling (blocks of
/// `block_tokens`) randomizes shard contents while preserving local token
/// order within blocks, as dataset shard formats do in practice.
///
/// # Panics
/// Panics if the corpus has fewer than `n_shards * block_tokens` tokens.
pub fn partition_iid(
    corpus: &TokenCorpus,
    n_shards: usize,
    block_tokens: usize,
    rng: &mut SeedStream,
) -> Vec<Shard> {
    assert!(n_shards > 0 && block_tokens > 0);
    let tokens = corpus.tokens();
    let n_blocks = tokens.len() / block_tokens;
    assert!(
        n_blocks >= n_shards,
        "corpus too small: {} blocks for {} shards",
        n_blocks,
        n_shards
    );
    let mut block_ids: Vec<usize> = (0..n_blocks).collect();
    rng.shuffle(&mut block_ids);

    let blocks_per = n_blocks / n_shards;
    let mut out = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        let mut buf = Vec::with_capacity(blocks_per * block_tokens);
        for &b in &block_ids[s * blocks_per..(s + 1) * blocks_per] {
            buf.extend_from_slice(&tokens[b * block_tokens..(b + 1) * block_tokens]);
        }
        let len = buf.len();
        out.push(Shard::from_range(
            format!("{}-shard-{s:02}", corpus.name()),
            Arc::new(buf),
            0,
            len,
        ));
    }
    out
}

/// Pile-style heterogeneous partitioning: assigns each domain corpus to
/// `clients_per_domain` clients by splitting it evenly (paper §5.1: four
/// clients = one source each; eight = two splits; sixteen = four splits).
pub fn partition_by_domain(corpora: &[TokenCorpus], clients_per_domain: usize) -> Vec<Shard> {
    let mut out = Vec::with_capacity(corpora.len() * clients_per_domain);
    for corpus in corpora {
        let tokens = Arc::new(corpus.tokens().to_vec());
        let len = tokens.len();
        let whole = Shard::from_range(corpus.name().to_string(), tokens, 0, len);
        out.extend(whole.split(clients_per_domain));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize) -> TokenCorpus {
        TokenCorpus::new("test", (0..n as TokenId).collect())
    }

    #[test]
    fn iid_partition_is_equal_and_disjoint() {
        let c = corpus(64 * 16);
        let mut rng = SeedStream::new(1);
        let shards = partition_iid(&c, 8, 16, &mut rng);
        assert_eq!(shards.len(), 8);
        assert!(shards.iter().all(|s| s.len() == 128));
        // Disjoint coverage: union of tokens = original set.
        let mut seen: Vec<TokenId> = shards
            .iter()
            .flat_map(|s| (0..s.len()).map(|i| s.token_at(i)).collect::<Vec<_>>())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn iid_partition_is_shuffled() {
        let c = corpus(1024);
        let mut rng = SeedStream::new(2);
        let shards = partition_iid(&c, 4, 16, &mut rng);
        // With a shuffle, shard 0 should not just be the first quarter.
        let first: Vec<TokenId> = (0..256).map(|i| shards[0].token_at(i)).collect();
        assert_ne!(first, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn domain_partition_shapes() {
        let corpora = vec![corpus(100), TokenCorpus::new("b", (0..100).collect())];
        let shards = partition_by_domain(&corpora, 2);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].len() + shards[1].len(), 100);
    }

    #[test]
    fn window_copy_across_segments() {
        let c = corpus(100);
        let whole = Shard::from_range("x", Arc::new(c.tokens().to_vec()), 0, 100);
        let parts = whole.split(3);
        assert_eq!(parts.iter().map(Shard::len).sum::<usize>(), 100);
        let mut buf = vec![0; 10];
        parts[1].copy_window(5, &mut buf);
        let expect: Vec<TokenId> = (0..10).map(|i| parts[1].token_at(5 + i)).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    #[should_panic(expected = "window exceeds shard")]
    fn oversized_window_panics() {
        let whole = Shard::from_range("x", Arc::new(vec![1, 2, 3]), 0, 3);
        let mut buf = vec![0; 4];
        whole.copy_window(0, &mut buf);
    }

    #[test]
    fn shard_split_uneven() {
        let whole = Shard::from_range("x", Arc::new((0..10).collect()), 0, 10);
        let parts = whole.split(3);
        let lens: Vec<usize> = parts.iter().map(Shard::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        assert_eq!(parts[2].token_at(0), 7);
    }

    #[test]
    fn serde_roundtrip() {
        let whole = Shard::from_range("x", Arc::new((0..10).collect()), 2, 8);
        let json = serde_json::to_string(&whole).unwrap();
        let back: Shard = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), whole.len());
        assert_eq!(back.token_at(0), whole.token_at(0));
    }
}
