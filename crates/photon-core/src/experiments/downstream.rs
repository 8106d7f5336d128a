//! Synthetic in-context evaluation tasks, substituting for the paper's
//! downstream benchmarks (Tables 7–8; ARC, HellaSwag, PIQA, …).
//!
//! Each task is a two-choice cloze in the HellaSwag/ARC scoring style: the
//! model sees a prompt from one synthetic domain and must assign a higher
//! log-probability to the true continuation than to a distractor drawn
//! from elsewhere. Accuracy scales with model capability on the training
//! distribution, which preserves the tables' shape (bigger models win most
//! comparisons) without the unavailable benchmark data.

use photon_data::{DomainKind, SyntheticDomain};
use photon_nn::{score_continuation, Gpt};
use photon_tensor::SeedStream;
use photon_tokenizer::Tokenizer;

/// One two-choice cloze instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClozeTask {
    /// Benchmark name this instance belongs to.
    pub benchmark: &'static str,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// True continuation.
    pub positive: Vec<u32>,
    /// Distractor continuation (same length as `positive`).
    pub negative: Vec<u32>,
}

/// Accuracy of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct DownstreamScore {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Fraction of instances where the true continuation scored higher.
    pub accuracy: f64,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// Benchmark definitions: (name, domain, prompt tokens, continuation
/// tokens) — fourteen benchmarks, matching the paper's fourteen
/// comparisons across Tables 7 and 8.
const BENCHMARKS: [(&str, DomainKind, usize, usize); 14] = [
    ("web-cloze", DomainKind::Web, 24, 6),
    ("arxiv-cloze", DomainKind::Arxiv, 24, 6),
    ("wiki-cloze", DomainKind::Wiki, 24, 6),
    ("prose-cloze", DomainKind::Prose, 24, 6),
    ("web-short-ctx", DomainKind::Web, 8, 4),
    ("web-long-cont", DomainKind::Web, 16, 12),
    ("mixed-domain", DomainKind::Wiki, 20, 8),
    ("arxiv-short-ctx", DomainKind::Arxiv, 8, 4),
    ("wiki-short-ctx", DomainKind::Wiki, 8, 4),
    ("prose-short-ctx", DomainKind::Prose, 8, 4),
    ("arxiv-long-cont", DomainKind::Arxiv, 16, 12),
    ("wiki-long-cont", DomainKind::Wiki, 16, 12),
    ("prose-long-cont", DomainKind::Prose, 16, 12),
    ("web-tiny-ctx", DomainKind::Web, 4, 3),
];

/// Generates the full task suite (a fixed number of instances per
/// benchmark), deterministic given the seed stream state.
pub(crate) fn downstream_suite(
    tokenizer: &dyn Tokenizer,
    max_seq: usize,
    rng: &mut SeedStream,
) -> Vec<ClozeTask> {
    const INSTANCES: usize = 24;
    let mut tasks = Vec::with_capacity(BENCHMARKS.len() * INSTANCES);
    for &(name, domain_kind, prompt_len, cont_len) in &BENCHMARKS {
        // Clamp to the model context.
        let (prompt_len, cont_len) = clamp_lengths(prompt_len, cont_len, max_seq);
        let mut drng = rng.split(name);
        let domain = SyntheticDomain::preset(domain_kind, &mut drng);
        // Distractors come from a different domain for the cloze tasks and
        // from shuffled same-domain text for the mixed benchmark.
        let distractor_domain = SyntheticDomain::preset(
            match domain_kind {
                DomainKind::Web => DomainKind::Prose,
                DomainKind::Arxiv => DomainKind::Web,
                DomainKind::Wiki => DomainKind::Arxiv,
                DomainKind::Prose => DomainKind::Wiki,
            },
            &mut drng,
        );
        for _ in 0..INSTANCES {
            let text = domain.generate((prompt_len + cont_len) * 4, &mut drng);
            let ids = tokenizer.encode(&text);
            if ids.len() < prompt_len + cont_len {
                continue;
            }
            let prompt = ids[..prompt_len].to_vec();
            let positive = ids[prompt_len..prompt_len + cont_len].to_vec();
            let dtext = distractor_domain.generate(cont_len * 4, &mut drng);
            let dids = tokenizer.encode(&dtext);
            if dids.len() < cont_len {
                continue;
            }
            let negative = dids[..cont_len].to_vec();
            tasks.push(ClozeTask {
                benchmark: name,
                prompt,
                positive,
                negative,
            });
        }
    }
    tasks
}

fn clamp_lengths(prompt: usize, cont: usize, max_seq: usize) -> (usize, usize) {
    let budget = max_seq.saturating_sub(1).max(4);
    if prompt + cont <= budget {
        return (prompt, cont);
    }
    let cont = cont.min(budget / 2).max(1);
    (budget - cont, cont)
}

/// Scores a model on a task suite, grouping accuracies per benchmark.
pub(crate) fn evaluate_downstream(model: &Gpt, tasks: &[ClozeTask]) -> Vec<DownstreamScore> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut totals: std::collections::HashMap<&'static str, (usize, usize)> =
        std::collections::HashMap::new();
    for task in tasks {
        let pos = score_continuation(model, &task.prompt, &task.positive);
        let neg = score_continuation(model, &task.prompt, &task.negative);
        let entry = totals.entry(task.benchmark).or_insert_with(|| {
            order.push(task.benchmark);
            (0, 0)
        });
        entry.1 += 1;
        if pos > neg {
            entry.0 += 1;
        }
    }
    order
        .into_iter()
        .map(|name| {
            let (correct, total) = totals[name];
            DownstreamScore {
                benchmark: name,
                accuracy: correct as f64 / total.max(1) as f64,
                instances: total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_nn::ModelConfig;
    use photon_tokenizer::ByteTokenizer;

    #[test]
    fn suite_generation_is_well_formed() {
        let tokenizer = ByteTokenizer::new();
        let mut rng = SeedStream::new(1);
        let tasks = downstream_suite(&tokenizer, 64, &mut rng);
        assert!(tasks.len() > 100, "{}", tasks.len());
        for t in &tasks {
            assert!(!t.prompt.is_empty());
            assert_eq!(t.positive.len(), t.negative.len());
            assert!(t.prompt.len() + t.positive.len() <= 64);
        }
        // All benchmarks represented.
        let names: std::collections::HashSet<_> = tasks.iter().map(|t| t.benchmark).collect();
        assert_eq!(names.len(), BENCHMARKS.len());
    }

    #[test]
    fn suite_respects_short_contexts() {
        let tokenizer = ByteTokenizer::new();
        let mut rng = SeedStream::new(2);
        let tasks = downstream_suite(&tokenizer, 16, &mut rng);
        assert!(tasks
            .iter()
            .all(|t| t.prompt.len() + t.positive.len() <= 16));
    }

    #[test]
    fn random_model_is_near_chance() {
        let cfg = ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 257,
            seq_len: 32,
        };
        let model = Gpt::new(cfg, &mut SeedStream::new(0));
        let tokenizer = ByteTokenizer::new();
        let mut rng = SeedStream::new(3);
        let tasks = downstream_suite(&tokenizer, 32, &mut rng);
        let scores = evaluate_downstream(&model, &tasks);
        assert_eq!(scores.len(), BENCHMARKS.len());
        let mean: f64 = scores.iter().map(|s| s.accuracy).sum::<f64>() / scores.len() as f64;
        assert!(
            (0.2..=0.8).contains(&mean),
            "untrained model should be near chance, got {mean}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let tokenizer = ByteTokenizer::new();
        let a = downstream_suite(&tokenizer, 48, &mut SeedStream::new(5));
        let b = downstream_suite(&tokenizer, 48, &mut SeedStream::new(5));
        assert_eq!(a, b);
    }
}
