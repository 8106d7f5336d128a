use crate::{Shard, TokenCorpus};
use photon_tensor::SeedStream;
use photon_tokenizer::TokenId;

/// One training batch of next-token-prediction examples.
///
/// `inputs` and `targets` are `(batch, seq)` row-major: `targets[b, t]` is
/// the token following `inputs[b, t]` in the source stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Number of sequences.
    pub batch: usize,
    /// Tokens per sequence.
    pub seq: usize,
    /// Input tokens, `batch * seq` elements.
    pub inputs: Vec<TokenId>,
    /// Shifted-by-one target tokens, `batch * seq` elements.
    pub targets: Vec<TokenId>,
}

impl Batch {
    /// Allocates an empty batch of the given geometry.
    pub fn zeros(batch: usize, seq: usize) -> Self {
        Batch {
            batch,
            seq,
            inputs: vec![0; batch * seq],
            targets: vec![0; batch * seq],
        }
    }
}

/// An endless source of training batches — Photon's DS-to-client stream.
///
/// Streams are infinite by design: pre-training consumes windows sampled
/// from the shard for as many steps as the recipe demands, exactly like the
/// paper's `BindStream` (Algorithm 1, L.14).
pub trait TokenStream: Send {
    /// Fills `out` with the next batch. `out` keeps its geometry.
    fn next_batch(&mut self, out: &mut Batch);

    /// A human-readable description of the stream's provenance.
    fn describe(&self) -> String;
}

/// Uniform random-window sampling over a [`Shard`].
#[derive(Debug, Clone)]
pub struct ShardStream {
    shard: Shard,
    rng: SeedStream,
}

impl ShardStream {
    /// Creates a stream over a shard with its own RNG.
    ///
    /// # Panics
    /// Panics if the shard is empty.
    pub fn new(shard: Shard, rng: SeedStream) -> Self {
        assert!(!shard.is_empty(), "cannot stream from an empty shard");
        ShardStream { shard, rng }
    }

    /// The underlying shard.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }
}

impl TokenStream for ShardStream {
    fn next_batch(&mut self, out: &mut Batch) {
        let window = out.seq + 1;
        assert!(
            self.shard.len() >= window,
            "shard {} shorter than one window ({} < {})",
            self.shard.name,
            self.shard.len(),
            window
        );
        let max_start = self.shard.len() - window;
        let mut scratch = vec![0 as TokenId; window];
        for b in 0..out.batch {
            let start = if max_start == 0 {
                0
            } else {
                self.rng.next_below(max_start + 1)
            };
            self.shard.copy_window(start, &mut scratch);
            out.inputs[b * out.seq..(b + 1) * out.seq].copy_from_slice(&scratch[..out.seq]);
            out.targets[b * out.seq..(b + 1) * out.seq].copy_from_slice(&scratch[1..]);
        }
    }

    fn describe(&self) -> String {
        format!(
            "shard-stream({}, {} tokens)",
            self.shard.name,
            self.shard.len()
        )
    }
}

/// Deterministic, sequential, non-overlapping evaluation windows over a
/// validation corpus. Iteration ends when the corpus is exhausted.
#[derive(Debug, Clone)]
pub struct EvalStream {
    tokens: Vec<TokenId>,
    seq: usize,
    pos: usize,
}

impl EvalStream {
    /// Creates an evaluation stream with the given sequence length.
    ///
    /// # Panics
    /// Panics if the corpus is shorter than one `seq + 1` window.
    pub fn new(corpus: &TokenCorpus, seq: usize) -> Self {
        assert!(
            corpus.len() > seq,
            "validation corpus shorter than one window"
        );
        EvalStream {
            tokens: corpus.tokens().to_vec(),
            seq,
            pos: 0,
        }
    }

    /// Restarts iteration from the beginning.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Returns the next `(inputs, targets)` window, or `None` at the end.
    pub fn next_window(&mut self) -> Option<(&[TokenId], &[TokenId])> {
        if self.pos + self.seq + 1 > self.tokens.len() {
            return None;
        }
        let inputs = &self.tokens[self.pos..self.pos + self.seq];
        let targets = &self.tokens[self.pos + 1..self.pos + self.seq + 1];
        self.pos += self.seq;
        Some((inputs, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn shard(n: usize, offset: TokenId) -> Shard {
        Shard::from_range(
            format!("s{offset}"),
            Arc::new((offset..offset + n as TokenId).collect()),
            0,
            n,
        )
    }

    #[test]
    fn shard_stream_targets_shift_by_one() {
        let mut stream = ShardStream::new(shard(100, 0), SeedStream::new(1));
        let mut b = Batch::zeros(4, 8);
        stream.next_batch(&mut b);
        for i in 0..4 {
            for t in 0..8 {
                assert_eq!(b.targets[i * 8 + t], b.inputs[i * 8 + t] + 1);
            }
        }
        assert!(stream.describe().contains("s0"));
    }

    #[test]
    fn shard_stream_is_deterministic() {
        let mut s1 = ShardStream::new(shard(64, 0), SeedStream::new(9));
        let mut s2 = ShardStream::new(shard(64, 0), SeedStream::new(9));
        let mut b1 = Batch::zeros(2, 4);
        let mut b2 = Batch::zeros(2, 4);
        s1.next_batch(&mut b1);
        s2.next_batch(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn eval_stream_covers_corpus_once() {
        let corpus = TokenCorpus::new("v", (0..33).collect());
        let mut ev = EvalStream::new(&corpus, 8);
        let mut count = 0;
        let mut last_first = None;
        while let Some((x, y)) = ev.next_window() {
            assert_eq!(x.len(), 8);
            assert_eq!(y[0], x[0] + 1);
            if let Some(prev) = last_first {
                assert_eq!(x[0], prev + 8); // non-overlapping, sequential
            }
            last_first = Some(x[0]);
            count += 1;
        }
        assert_eq!(count, 4);
        ev.reset();
        assert!(ev.next_window().is_some());
    }

    #[test]
    #[should_panic(expected = "shorter than one window")]
    fn undersized_shard_cannot_fill_window() {
        let mut stream = ShardStream::new(shard(4, 0), SeedStream::new(1));
        let mut b = Batch::zeros(1, 8);
        stream.next_batch(&mut b);
    }
}
