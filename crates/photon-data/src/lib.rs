//! # photon-data
//!
//! Data substrate for Photon-RS federated LLM pre-training.
//!
//! The Photon paper trains on C4 (64 uniform shards) and on The Pile
//! (heterogeneous domains: ArXiv, C4, Wikipedia, Gutenberg). Neither corpus
//! is available offline, so this crate provides the closest synthetic
//! equivalent: seeded Markov-chain text generators with per-domain word
//! inventories, letter distributions and punctuation styles
//! ([`SyntheticDomain`]). What matters to federated optimization is the
//! *distributional divergence between client shards*, which these domains
//! control directly — IID sharding reproduces the C4 setup, per-domain
//! sharding reproduces the Pile heterogeneity experiments.
//!
//! The crate also provides the streaming machinery of Photon's Data Sources
//! (DS): token shards, infinite sampling streams and sequential evaluation
//! windows.
//!
//! ```
//! use photon_data::{DomainKind, SyntheticDomain};
//! use photon_tensor::SeedStream;
//!
//! let mut rng = SeedStream::new(7);
//! let domain = SyntheticDomain::preset(DomainKind::Web, &mut rng);
//! let text = domain.generate(200, &mut rng);
//! assert!(text.len() >= 200);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod corpus;
mod domains;
mod partition;
mod stream;

pub use corpus::{build_domain_corpora, TokenCorpus};
pub use domains::{DomainKind, SyntheticDomain};
pub use partition::{partition_by_domain, partition_iid, Shard};
pub use stream::{Batch, EvalStream, ShardStream, TokenStream};
