//! Shared helpers for the Photon-RS cross-crate integration tests.

use photon_core::{
    Aggregator, CohortSpec, DataSource, Federation, FederationConfig, HierarchyConfig, LlmClient,
    MembershipConfig,
};
use photon_data::Shard;
use photon_nn::ModelConfig;
use photon_tensor::SeedStream;
use photon_tokenizer::TokenId;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A one-layer model small enough for sub-second integration tests.
pub fn tiny_model() -> ModelConfig {
    ModelConfig {
        n_layers: 1,
        d_model: 16,
        n_heads: 2,
        exp_ratio: 2,
        vocab_size: 257,
        seq_len: 16,
    }
}

/// A fast federation configuration over [`tiny_model`].
pub fn tiny_federation(n_clients: usize) -> FederationConfig {
    let mut cfg = FederationConfig::quick_demo(tiny_model(), n_clients);
    cfg.local_steps = 4;
    cfg.local_batch = 2;
    cfg
}

/// Shard-tree width of the registry-scale federations.
pub const SCALE_SHARDS: usize = 8;
/// Streaming-merge residency bound of the registry-scale federations.
pub const SCALE_MAX_RESIDENT: usize = 16;

/// The smallest model the stack trains: at 10^5 provisioned clients the
/// registry and tree are the subject under test, not the math.
pub fn nano_model() -> ModelConfig {
    ModelConfig {
        n_layers: 1,
        d_model: 8,
        n_heads: 1,
        exp_ratio: 2,
        vocab_size: 257,
        seq_len: 8,
    }
}

/// An elastic, sharded federation of `registered` clients that samples
/// `sampled` of them a round, one local step each.
pub fn scale_cfg(registered: usize, sampled: usize) -> FederationConfig {
    let mut cfg = FederationConfig::quick_demo(nano_model(), registered);
    cfg.cohort = CohortSpec::Sample { k: sampled };
    cfg.local_steps = 1;
    cfg.local_batch = 1;
    cfg.seed = 61;
    cfg.allow_partial_results = true;
    cfg.membership = Some(MembershipConfig::default());
    cfg.hierarchy = Some(HierarchyConfig {
        shards: SCALE_SHARDS,
        shard_quorum_frac: 0.5,
        max_resident: SCALE_MAX_RESIDENT,
    });
    cfg
}

/// Provisions `registered` clients as views into one shared token buffer:
/// each client's shard is a 64-token window into the same `Arc`, so the
/// whole 10^5-client roster costs megabytes, not gigabytes.
pub fn scale_federation(cfg: &FederationConfig) -> Federation {
    let mut rng = SeedStream::new(cfg.seed);
    let mut data_rng = rng.split("data");
    let tokens: Arc<Vec<TokenId>> = Arc::new(
        (0..4096)
            .map(|_| (data_rng.next_below(257)) as TokenId)
            .collect(),
    );
    const WINDOW: usize = 64;
    let span = tokens.len() - WINDOW;
    let clients = (0..cfg.population)
        .map(|i| {
            let start = (i * 31) % span;
            let shard = Shard::from_range(
                format!("scale-{i}"),
                Arc::clone(&tokens),
                start,
                start + WINDOW,
            );
            LlmClient::new(
                i as u32,
                DataSource::new(format!("ds-{i}"), shard),
                None,
                rng.split(&format!("client-{i}")),
            )
        })
        .collect();
    Federation {
        aggregator: Aggregator::new(cfg.clone()).expect("config validates"),
        clients,
        joiner_tokens: WINDOW,
    }
}

/// The workspace root (the parent of this test crate).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, recursively, sorted.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

/// `(path under crates/, contents)` of every `.rs` file under
/// `crates/*/<sub>` (for example `src`), sorted by path.
pub fn crate_sources(sub: &str) -> Vec<(String, String)> {
    let crates = workspace_root().join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates dir") {
        let dir = krate.expect("crate entry").path().join(sub);
        if dir.is_dir() {
            files.extend(rust_files(&dir));
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let source = std::fs::read_to_string(&file).expect("readable source");
            let rel = file.strip_prefix(&crates).expect("under crates/");
            (rel.to_string_lossy().replace('\\', "/"), source)
        })
        .collect()
}

/// The non-test code of a source file: its lines ahead of the first
/// top-level `#[cfg(test)]`, as the CHANGES.md line counts take it.
pub fn non_test_lines(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
}
