use crate::{TokenId, Tokenizer, Vocab};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration for BPE training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpeTrainConfig {
    /// Target vocabulary size (must exceed the 257 base tokens).
    pub vocab_size: usize,
    /// Pairs occurring fewer times than this are never merged.
    pub min_pair_freq: usize,
}

impl Default for BpeTrainConfig {
    fn default() -> Self {
        BpeTrainConfig {
            vocab_size: 512,
            min_pair_freq: 2,
        }
    }
}

/// A from-scratch byte-pair-encoding tokenizer.
///
/// Training follows the classic algorithm: text is split into
/// whitespace-delimited chunks (with the leading space attached, GPT-2
/// style), and the most frequent adjacent token pair is merged repeatedly
/// until the target vocabulary size is reached. Ties break towards the
/// lexicographically smallest pair so training is deterministic.
///
/// ```
/// use photon_tokenizer::{BpeTokenizer, BpeTrainConfig, Tokenizer};
/// let corpus = "the cat sat on the mat. the cat sat.".repeat(8);
/// let tok = BpeTokenizer::train(&corpus, &BpeTrainConfig { vocab_size: 300, min_pair_freq: 2 });
/// let text = "the cat";
/// assert_eq!(tok.decode(&tok.encode(text)), text);
/// assert!(tok.encode(text).len() < text.len()); // compresses
/// ```
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    vocab: Vocab,
    /// Merge rules in training order: (left, right) -> merged id.
    merges: Vec<(TokenId, TokenId, TokenId)>,
    merge_rank: HashMap<(TokenId, TokenId), (usize, TokenId)>,
}

impl BpeTokenizer {
    /// Trains a BPE tokenizer on a corpus.
    ///
    /// # Panics
    /// Panics if `config.vocab_size <= 257` (the base vocabulary).
    pub fn train(corpus: &str, config: &BpeTrainConfig) -> Self {
        assert!(
            config.vocab_size > 257,
            "vocab_size must exceed the 257 base tokens"
        );
        let mut vocab = Vocab::base_bytes();
        let mut merges = Vec::new();

        // Unique chunk -> (token sequence, count).
        let mut chunk_counts: HashMap<&str, usize> = HashMap::new();
        for chunk in split_chunks(corpus) {
            *chunk_counts.entry(chunk).or_insert(0) += 1;
        }
        let mut words: Vec<(Vec<TokenId>, usize)> = chunk_counts
            .into_iter()
            .map(|(w, c)| (w.bytes().map(|b| b as TokenId).collect(), c))
            .collect();
        // Deterministic order independent of HashMap iteration.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        while vocab.len() < config.vocab_size {
            let mut pair_freq: HashMap<(TokenId, TokenId), usize> = HashMap::new();
            for (toks, count) in &words {
                for w in toks.windows(2) {
                    *pair_freq.entry((w[0], w[1])).or_insert(0) += count;
                }
            }
            let best = pair_freq
                .into_iter()
                .filter(|&(_, c)| c >= config.min_pair_freq)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((l, r), _)) = best else { break };

            let mut bytes = vocab.bytes_of(l).expect("valid token").to_vec();
            bytes.extend_from_slice(vocab.bytes_of(r).expect("valid token"));
            let merged = vocab.push_merged(bytes);
            merges.push((l, r, merged));

            for (toks, _) in words.iter_mut() {
                apply_merge(toks, l, r, merged);
            }
        }

        let merge_rank = merges
            .iter()
            .enumerate()
            .map(|(rank, &(l, r, m))| ((l, r), (rank, m)))
            .collect();
        BpeTokenizer {
            vocab,
            merges,
            merge_rank,
        }
    }

    /// Number of learned merge rules.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    fn encode_chunk(&self, chunk: &str, out: &mut Vec<TokenId>) {
        let mut toks: Vec<TokenId> = chunk.bytes().map(|b| b as TokenId).collect();
        loop {
            // Find the applicable merge with the lowest training rank.
            let mut best: Option<(usize, usize, TokenId)> = None; // (rank, pos, merged)
            for (i, w) in toks.windows(2).enumerate() {
                if let Some(&(rank, merged)) = self.merge_rank.get(&(w[0], w[1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, i, merged));
                    }
                }
            }
            let Some((_, pos, merged)) = best else { break };
            toks[pos] = merged;
            toks.remove(pos + 1);
        }
        out.extend_from_slice(&toks);
    }
}

impl Tokenizer for BpeTokenizer {
    fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(text.len() / 2);
        for chunk in split_chunks(text) {
            self.encode_chunk(chunk, &mut out);
        }
        out
    }

    fn decode(&self, ids: &[TokenId]) -> String {
        let mut bytes = Vec::with_capacity(ids.len() * 2);
        for &id in ids {
            match self.vocab.bytes_of(id) {
                Some(b) => bytes.extend_from_slice(b),
                None => bytes.extend_from_slice("\u{FFFD}".as_bytes()),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    fn eot_id(&self) -> TokenId {
        self.vocab.eot_id()
    }
}

/// Splits text into merge-boundary chunks: maximal runs of non-whitespace
/// with the preceding whitespace run attached (GPT-2 style pre-tokenizer).
/// Concatenating the chunks reproduces the input exactly.
fn split_chunks(text: &str) -> impl Iterator<Item = &str> {
    let bytes = text.as_bytes();
    let mut starts = vec![];
    let mut prev_ws = true;
    for (i, &b) in bytes.iter().enumerate() {
        let ws = b.is_ascii_whitespace();
        // A chunk starts at the first whitespace byte after non-whitespace.
        if ws && !prev_ws {
            starts.push(i);
        }
        prev_ws = ws;
    }
    let mut bounds = Vec::with_capacity(starts.len() + 1);
    let mut last = 0usize;
    for s in starts {
        if s > last {
            bounds.push((last, s));
        }
        last = s;
    }
    if last < bytes.len() {
        bounds.push((last, bytes.len()));
    }
    bounds.into_iter().map(move |(a, b)| &text[a..b])
}

fn apply_merge(toks: &mut Vec<TokenId>, l: TokenId, r: TokenId, merged: TokenId) {
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i] == l && toks[i + 1] == r {
            toks[i] = merged;
            toks.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> String {
        "the quick brown fox jumps over the lazy dog. \
         the quick brown fox. the lazy dog sleeps. "
            .repeat(16)
    }

    #[test]
    fn chunks_reassemble_input() {
        for text in ["a b  c", "  leading", "trailing  ", "", "one"] {
            let joined: String = split_chunks(text).collect();
            assert_eq!(joined, text);
        }
    }

    #[test]
    fn training_reaches_target_vocab() {
        let tok = BpeTokenizer::train(
            &sample_corpus(),
            &BpeTrainConfig {
                vocab_size: 290,
                min_pair_freq: 2,
            },
        );
        assert_eq!(tok.vocab_size(), 290);
        assert_eq!(tok.merge_count(), 290 - 257);
        // With a higher target than the corpus supports, training stops early
        // rather than looping forever.
        let capped = BpeTokenizer::train(
            &sample_corpus(),
            &BpeTrainConfig {
                vocab_size: 10_000,
                min_pair_freq: 2,
            },
        );
        assert!(capped.vocab_size() < 10_000);
    }

    #[test]
    fn roundtrip_and_compression() {
        let corpus = sample_corpus();
        let tok = BpeTokenizer::train(&corpus, &BpeTrainConfig::default());
        for text in [
            "the quick brown fox",
            "a completely unseen string!",
            "whitespace   runs\tand\nnewlines",
        ] {
            assert_eq!(tok.decode(&tok.encode(text)), text);
        }
        let ids = tok.encode("the quick brown fox jumps over the lazy dog.");
        assert!(ids.len() < "the quick brown fox jumps over the lazy dog.".len());
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = sample_corpus();
        let cfg = BpeTrainConfig {
            vocab_size: 300,
            min_pair_freq: 2,
        };
        let a = BpeTokenizer::train(&corpus, &cfg);
        let b = BpeTokenizer::train(&corpus, &cfg);
        assert_eq!(a.encode("the quick"), b.encode("the quick"));
    }

    #[test]
    fn min_pair_freq_stops_early() {
        // A corpus with no repeated pairs cannot merge anything at freq >= 2.
        let tok = BpeTokenizer::train(
            "abcdefg",
            &BpeTrainConfig {
                vocab_size: 300,
                min_pair_freq: 2,
            },
        );
        assert_eq!(tok.merge_count(), 0);
        assert_eq!(tok.vocab_size(), 257);
    }

    #[test]
    #[should_panic(expected = "vocab_size must exceed")]
    fn too_small_vocab_panics() {
        BpeTokenizer::train(
            "x",
            &BpeTrainConfig {
                vocab_size: 100,
                min_pair_freq: 1,
            },
        );
    }
}
