//! Property-based tests for sharding and streaming invariants.

use photon_data::{
    partition_by_domain, partition_iid, Batch, Shard, ShardStream, TokenCorpus, TokenStream,
};
use photon_tensor::SeedStream;
use proptest::prelude::*;
use std::sync::Arc;

/// Every token of `shard`, in order.
fn tokens(shard: &Shard) -> Vec<u32> {
    let mut out = vec![0; shard.len()];
    shard.copy_window(0, &mut out);
    out
}

proptest! {
    /// IID partitioning is a disjoint, equal-size cover of the shuffled
    /// block set for any compatible geometry.
    #[test]
    fn iid_partition_is_a_partition(
        n_shards in 1usize..8,
        block in 1usize..16,
        extra_blocks in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n_blocks = n_shards * (1 + extra_blocks);
        let total = n_blocks * block;
        let corpus = TokenCorpus::new("p", (0..total as u32).collect());
        let mut rng = SeedStream::new(seed);
        let shards = partition_iid(&corpus, n_shards, block, &mut rng);
        prop_assert_eq!(shards.len(), n_shards);
        // Equal sizes.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        prop_assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        // Disjoint: collect all tokens, no duplicates.
        let mut seen: Vec<u32> = shards
            .iter()
            .flat_map(tokens)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), n_shards * (n_blocks / n_shards) * block);
    }

    /// Domain partitioning preserves every domain's tokens exactly, in
    /// order, across its splits.
    #[test]
    fn domain_partition_preserves_tokens(
        n_domains in 1usize..4,
        clients_per in 1usize..4,
        len in 8usize..64,
    ) {
        let corpora: Vec<TokenCorpus> = (0..n_domains)
            .map(|d| {
                TokenCorpus::new(
                    format!("d{d}"),
                    (0..len as u32).map(|i| i + 1000 * d as u32).collect(),
                )
            })
            .collect();
        let shards = partition_by_domain(&corpora, clients_per);
        prop_assert_eq!(shards.len(), n_domains * clients_per);
        for (d, corpus) in corpora.iter().enumerate() {
            let mine = &shards[d * clients_per..(d + 1) * clients_per];
            let rebuilt: Vec<u32> = mine
                .iter()
                .flat_map(tokens)
                .collect();
            prop_assert_eq!(&rebuilt[..], corpus.tokens());
        }
    }

    /// Every batch from a shard stream satisfies the next-token property
    /// relative to the shard contents.
    #[test]
    fn stream_batches_are_windows_of_the_shard(
        len in 40usize..200,
        batch in 1usize..4,
        seq in 2usize..16,
        seed in any::<u64>(),
    ) {
        prop_assume!(len > seq + 1);
        let tokens: Vec<u32> = (0..len as u32).map(|i| i * 7 % 1001).collect();
        let shard = photon_data::Shard::from_range("s", Arc::new(tokens.clone()), 0, len);
        let mut stream = ShardStream::new(shard, SeedStream::new(seed));
        let mut b = Batch::zeros(batch, seq);
        stream.next_batch(&mut b);
        for row in 0..batch {
            let inputs = &b.inputs[row * seq..(row + 1) * seq];
            let targets = &b.targets[row * seq..(row + 1) * seq];
            // The window must appear contiguously in the shard.
            let start = tokens
                .windows(seq)
                .position(|w| w == inputs)
                .expect("window not found in shard");
            prop_assert_eq!(targets, &tokens[start + 1..start + 1 + seq]);
        }
    }
}
