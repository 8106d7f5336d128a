mod round;

pub use round::{client_round, ClientReply, Exchange, Transport};

use crate::checkpoint::{write_checkpoint, Checkpoint, CheckpointView};
use crate::faults::FaultPlan;
use crate::hierarchy::{HierarchyState, ShardTree};
use crate::membership::MembershipRegistry;
use crate::{
    CohortSpec, CoreError, DataSource, FederationConfig, LlmClient, Result, RoundRecord, Workspace,
};
use photon_data::{partition_iid, DomainKind, SyntheticDomain, TokenCorpus};
use photon_fedopt::{
    AvailabilitySampler, AvailabilityTraces, ClientSampler, FullParticipation, ServerOpt,
    UniformSampler, UpdateBuffer, UpdateGuard,
};
use photon_nn::Gpt;
use photon_tensor::SeedStream;
use photon_tokenizer::ByteTokenizer;
use std::collections::BTreeSet;
use std::path::Path;

/// The Photon Aggregator (Agg, §3.1): owns the global model, orchestrates
/// rounds over real Link frames, aggregates pseudo-gradients and applies
/// the server optimizer (Algorithm 1, L.1–12).
pub struct Aggregator {
    cfg: FederationConfig,
    params: Vec<f32>,
    server_opt: Box<dyn ServerOpt>,
    sampler: Box<dyn ClientSampler>,
    round: u64,
    telemetry: crate::Telemetry,
    /// Admission guard, present when `cfg.guard.enabled`.
    guard: Option<UpdateGuard>,
    /// Loss-spike watchdog trackers (None until the first healthy round).
    loss_ema: Option<f64>,
    norm_ema: Option<f64>,
    /// Rounds neutralized after a watchdog rollback: they run (keeping
    /// client state deterministic) but skip the update application, so a
    /// replay of the divergent round terminates instead of re-diverging.
    neutralized: BTreeSet<u64>,
    /// Elastic membership registry, present when `cfg.membership` is set.
    membership: Option<MembershipRegistry>,
    /// Staleness-aware update buffer, present when `cfg.buffer` is set.
    buffer: Option<UpdateBuffer>,
    /// Cohort-sampling stream for membership mode. Its state is frozen at
    /// construction; [`sample_live`] forks a round-keyed child per round,
    /// so warm joiners and restores replay identical cohorts.
    member_rng: Option<SeedStream>,
    /// Simulated chaos network, present when `cfg.network` is set.
    network: Option<photon_comms::NetworkModel>,
    /// Whether the previous round left the aggregator degraded (below the
    /// reachability quorum); lifts the deadline until quorum returns.
    degraded: bool,
    /// Observed per-delivery simulated latencies feeding the adaptive
    /// deadline. Window-bounded; not checkpointed — like the watchdog
    /// EMAs it re-warms deterministically from the replayed rounds.
    latency_obs: Vec<u64>,
    /// Sub-aggregator tree, present when `cfg.hierarchy` is set. Its dead
    /// set is the only hierarchical state a checkpoint carries.
    hierarchy: Option<ShardTree>,
    /// The simulator's client lanes' training buffers, one per lane,
    /// kept from round to round (never checkpointed: a round stores every
    /// buffer before it reads it).
    workspaces: Vec<Workspace>,
}

impl std::fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aggregator")
            .field("round", &self.round)
            .field("params", &self.params.len())
            .field("server_opt", &self.server_opt.name())
            .finish()
    }
}

impl Aggregator {
    /// Initializes the global model (`InitModel`, L.2) and server state.
    ///
    /// # Errors
    /// Returns an error if the configuration is inconsistent.
    pub fn new(cfg: FederationConfig) -> Result<Self> {
        Aggregator::with_telemetry(cfg, crate::Telemetry::new())
    }

    /// [`Aggregator::new`] writing into an existing metrics store, so what
    /// observes the store (a live `/metrics` endpoint) outlives a rebuilt
    /// aggregator.
    ///
    /// # Errors
    /// Returns an error if the configuration is inconsistent.
    pub fn with_telemetry(cfg: FederationConfig, telemetry: crate::Telemetry) -> Result<Self> {
        cfg.validate()?;
        let mut rng = SeedStream::new(cfg.seed);
        let model = Gpt::with_positions(cfg.model, cfg.positions, &mut rng.split("global-init"));
        let params = model.into_params();
        let server_opt = cfg.server_opt.build(params.len());
        // Sporadic availability wraps whichever cohort policy is set: only
        // currently-up clients are candidates (§2.1 / Appendix A).
        let sampler: Box<dyn ClientSampler> = match (cfg.availability, cfg.cohort) {
            (Some(model), cohort) => {
                // Lazily materialized: chains extend on demand, so short
                // runs never pay for a long horizon and long runs never
                // fall off one.
                let traces =
                    AvailabilityTraces::lazy(model, cfg.population, &mut rng.split("availability"));
                let k = match cohort {
                    CohortSpec::Full => cfg.population,
                    CohortSpec::Sample { k } => k,
                };
                Box::new(AvailabilitySampler::new(traces, k, rng.split("sampler")))
            }
            (None, CohortSpec::Full) => Box::new(FullParticipation),
            (None, CohortSpec::Sample { k }) => {
                Box::new(UniformSampler::new(k, rng.split("sampler")))
            }
        };
        let guard = cfg
            .guard
            .enabled
            .then(|| UpdateGuard::new(cfg.guard, cfg.seed));
        let membership = cfg
            .membership
            .map(|m| MembershipRegistry::new(m, cfg.population));
        let member_rng = membership.is_some().then(|| rng.split("member-sampler"));
        let buffer = cfg.buffer.map(|_| UpdateBuffer::new());
        let network = cfg
            .network
            .map(|n| photon_comms::NetworkModel::new(n.profile, cfg.seed));
        let hierarchy = cfg.hierarchy.map(|h| ShardTree::new(h, cfg.seed));
        let aggregator = Aggregator {
            cfg,
            params,
            server_opt,
            sampler,
            round: 0,
            telemetry,
            guard,
            loss_ema: None,
            norm_ema: None,
            neutralized: BTreeSet::new(),
            membership,
            buffer,
            member_rng,
            network,
            degraded: false,
            latency_obs: Vec::new(),
            hierarchy,
            workspaces: Vec::new(),
        };
        aggregator.publish_tree();
        Ok(aggregator)
    }

    /// The run configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// Current round index (completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current global parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Materializes the global model for evaluation or deployment.
    pub fn global_model(&self) -> Gpt {
        Gpt::from_params(self.cfg.model, self.params.clone())
    }

    /// The federation's metrics hub (`AggMetrics`, Algorithm 1 L.10).
    pub fn telemetry(&self) -> &crate::Telemetry {
        &self.telemetry
    }

    /// Writes into `telemetry` from now on: a rebuilt aggregator keeps the
    /// run's one store.
    pub(crate) fn set_telemetry(&mut self, telemetry: crate::Telemetry) {
        self.telemetry = telemetry;
        self.publish_tree();
    }

    /// Writes the tree's shape and dead shards into the store's live view
    /// of it; a flat run has none.
    fn publish_tree(&self) {
        let (Some(cfg), Some(tree)) = (self.cfg.hierarchy, &self.hierarchy) else {
            return;
        };
        let dead_shards = tree.state().dead_shards;
        self.telemetry.hierarchy(|view| {
            view.shards = cfg.shards;
            view.shard_quorum_frac = cfg.shard_quorum_frac;
            view.max_resident = cfg.max_resident;
            view.dead_shards = dead_shards;
        });
    }

    /// Saves everything a restart needs — parameters, server-optimizer
    /// momenta, roster with in-flight buffered updates, dead shards — as
    /// `dir`'s checkpoint. Parameters and buffered updates are encoded
    /// from where they live, not cloned first.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_checkpoint(&self, dir: &Path) -> Result<()> {
        let server_opt = self.server_opt.export_state();
        let roster = self.membership.as_ref().map(MembershipRegistry::snapshot);
        let hierarchy = self.hierarchy_state();
        write_checkpoint(
            dir,
            &CheckpointView {
                round: self.round,
                config: &self.cfg,
                params: &self.params,
                server_opt: Some(&server_opt),
                elastic: roster
                    .as_ref()
                    .map(|roster| (roster, self.buffer.as_ref().map(UpdateBuffer::entries))),
                hierarchy: hierarchy.as_ref(),
            },
        )
    }

    /// Restores the aggregator from a loaded checkpoint. Every section is
    /// checked against the run's configuration before anything is
    /// assigned, so a rejected checkpoint leaves the aggregator exactly as
    /// it was.
    ///
    /// A section the checkpoint does not carry resets to its founding
    /// state: a params-only checkpoint reinitializes the server optimizer
    /// (with a warning when that loses momentum), the founding roster and
    /// a fully live tree. Guard, watchdog, degraded-mode and
    /// adaptive-deadline state is never checkpointed: it re-warms
    /// deterministically from the replayed rounds.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] if the parameter count, the
    /// optimizer kind or shape, the roster or the dead-shard set does not
    /// fit the configured run.
    pub fn restore(&mut self, ckpt: Checkpoint) -> Result<()> {
        if ckpt.params.len() != self.params.len() {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint has {} parameters, model needs {}",
                ckpt.params.len(),
                self.params.len()
            )));
        }
        let hierarchy = match (&ckpt.hierarchy, self.cfg.hierarchy) {
            (Some(_), None) => {
                return Err(CoreError::InvalidConfig(
                    "checkpoint carries hierarchy state but the run has no hierarchy config".into(),
                ));
            }
            (Some(state), Some(hcfg)) => {
                if let Some(&bad) = state
                    .dead_shards
                    .iter()
                    .find(|&&s| s as usize >= hcfg.shards)
                {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint marks shard {bad} dead but the tree has {} shards",
                        hcfg.shards
                    )));
                }
                Some(ShardTree::from_state(hcfg, self.cfg.seed, state))
            }
            (None, hcfg) => hcfg.map(|h| ShardTree::new(h, self.cfg.seed)),
        };
        let buffering = self.cfg.buffer.is_some();
        let (membership, buffer) = match (ckpt.elastic, self.cfg.membership) {
            (Some(_), None) => {
                return Err(CoreError::InvalidConfig(
                    "checkpoint carries membership state but the run has no membership config"
                        .into(),
                ));
            }
            (Some(state), Some(_)) => {
                let reg = MembershipRegistry::from_snapshot(&state.membership)
                    .map_err(|e| CoreError::InvalidConfig(format!("membership snapshot: {e}")))?;
                let buffer = match state.buffer {
                    Some(entries) if buffering => Some(UpdateBuffer::from_entries(entries)),
                    Some(entries) if !entries.is_empty() => {
                        return Err(CoreError::InvalidConfig(
                            "checkpoint carries buffered updates but buffering is disabled".into(),
                        ));
                    }
                    _ => buffering.then(UpdateBuffer::new),
                };
                (Some(reg), buffer)
            }
            (None, mcfg) => (
                mcfg.map(|m| MembershipRegistry::new(m, self.cfg.population)),
                buffering.then(UpdateBuffer::new),
            ),
        };
        // The last check: `import_state` leaves the optimizer untouched
        // when it rejects the state, and nothing after it can fail.
        match &ckpt.server_opt {
            Some(state) => self
                .server_opt
                .import_state(state)
                .map_err(|e| CoreError::InvalidConfig(format!("server optimizer state: {e}")))?,
            None => {
                if !self.server_opt.export_state().slots.is_empty() {
                    eprintln!(
                        "warning: checkpoint carries no server-optimizer state; \
                         {} momentum reinitialized",
                        self.server_opt.name()
                    );
                }
                self.server_opt = self.cfg.server_opt.build(self.params.len());
            }
        }
        self.params = ckpt.params;
        self.round = ckpt.round;
        self.membership = membership;
        self.buffer = buffer;
        self.hierarchy = hierarchy;
        self.publish_tree();
        self.guard = self
            .cfg
            .guard
            .enabled
            .then(|| UpdateGuard::new(self.cfg.guard, self.cfg.seed));
        self.loss_ema = None;
        self.norm_ema = None;
        self.degraded = false;
        self.latency_obs.clear();
        Ok(())
    }

    /// The set of crashed shards; `None` when the run has no hierarchy
    /// config.
    pub(crate) fn hierarchy_state(&self) -> Option<HierarchyState> {
        self.hierarchy.as_ref().map(ShardTree::state)
    }

    /// How many clients the roster requires (founding members plus every
    /// join so far). `None` when the run has no membership config.
    pub fn roster_len(&self) -> Option<usize> {
        self.membership.as_ref().map(|r| r.roster_len())
    }

    /// Marks `round` as neutralized: it will execute (keeping client-side
    /// state deterministic) but skip the update application and watchdog.
    /// The recovery driver calls this for the round a watchdog rollback
    /// fired in, so the post-restore replay terminates instead of
    /// re-diverging on the same poisoned aggregate.
    pub fn neutralize_round(&mut self, round: u64) {
        self.neutralized.insert(round);
    }
}

/// A ready-to-run federation: aggregator plus its client population.
#[derive(Debug)]
pub struct Federation {
    /// The central aggregator.
    pub aggregator: Aggregator,
    /// The client population (index = client id).
    pub clients: Vec<LlmClient>,
    /// Tokens of private data a warm-joining client is provisioned with.
    pub joiner_tokens: usize,
}

impl Federation {
    /// Provisions clients for every roster id the membership registry has
    /// assigned but the client vector does not cover yet — the client-side
    /// half of a warm join. Each joiner's data and RNG derive from pure
    /// forks of the run seed keyed only by its id, so a joiner admitted at
    /// round `r` is bit-identical whether it is built mid-run, on replay,
    /// or after a checkpoint restore with a roster that grew since.
    ///
    /// # Errors
    /// Returns an error if corpus construction fails.
    pub fn sync_roster(&mut self) -> Result<()> {
        let Some(target) = self.aggregator.roster_len() else {
            return Ok(());
        };
        while self.clients.len() < target {
            let id = self.clients.len() as u32;
            self.clients.push(provision_joiner(
                self.aggregator.config(),
                id,
                self.joiner_tokens,
            ));
        }
        Ok(())
    }

    /// Runs one round, provisioning any newly joined clients first.
    ///
    /// # Errors
    /// Propagates aggregator round failures.
    pub fn run_round(&mut self) -> Result<RoundRecord> {
        self.run_round_with(None)
    }

    /// [`Federation::run_round`] with a seeded fault schedule. A client
    /// admitted this round spends it on the warm-join handshake and is
    /// first sampled next round, so syncing the roster after the round
    /// provisions it in time.
    ///
    /// # Errors
    /// Propagates aggregator round failures.
    pub fn run_round_with(&mut self, injector: Option<&FaultPlan>) -> Result<RoundRecord> {
        self.sync_roster()?;
        let record = self
            .aggregator
            .run_round_with(&mut self.clients, injector)?;
        // Joins applied inside the round extend the roster; provision the
        // new clients now so the next round can sample them.
        self.sync_roster()?;
        Ok(record)
    }
}

/// Builds the client-side state of a warm joiner: an IID web-domain shard
/// and a training RNG, both pure forks of the run seed keyed by the
/// joiner's id (independent of the founding population's build order).
fn provision_joiner(cfg: &FederationConfig, id: u32, tokens: usize) -> LlmClient {
    let base = SeedStream::new(cfg.seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = base.fork(&format!("join-data-{id}"));
    let domain = SyntheticDomain::preset(DomainKind::Web, &mut data_rng);
    let block = (cfg.model.seq_len + 1).max(32);
    let corpus =
        TokenCorpus::from_domain(&domain, &tokenizer, tokens.max(block * 2), &mut data_rng);
    let shard = partition_iid(&corpus, 1, block, &mut data_rng)
        .into_iter()
        .next()
        .expect("partition_iid returns one shard per requested partition");
    LlmClient::new(
        id,
        DataSource::new(format!("ds-{id}"), shard),
        None,
        base.fork(&format!("join-client-{id}")),
    )
}

/// The founding population of an IID federation — the C4-style setup of
/// §5.1 ("randomly partitioning the dataset uniformly into equally sized
/// shards") — plus the corpus tail of `val_tokens` tokens held out before
/// partitioning. This is the one seed-split sequence every builder shares:
/// corpus and shards draw from the `"data"` child, and client `i` takes
/// the `"client-{i}"` child, whose value depends on every earlier split —
/// which is why the clients come as an iterator that has to be advanced in
/// id order.
pub(crate) fn iid_clients(
    cfg: &FederationConfig,
    tokens_per_client: usize,
    val_tokens: usize,
) -> (impl Iterator<Item = LlmClient>, TokenCorpus) {
    let mut rng = SeedStream::new(cfg.seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = rng.split("data");
    let domain = SyntheticDomain::preset(DomainKind::Web, &mut data_rng);
    let mut corpus = TokenCorpus::from_domain(
        &domain,
        &tokenizer,
        tokens_per_client * cfg.population + val_tokens,
        &mut data_rng,
    );
    let val = corpus.split_validation(val_tokens);
    let block = (cfg.model.seq_len + 1).max(32);
    let shards = partition_iid(&corpus, cfg.population, block, &mut data_rng);
    let clients = shards.into_iter().enumerate().map(move |(i, shard)| {
        LlmClient::new(
            i as u32,
            DataSource::new(format!("ds-{i}"), shard),
            None,
            rng.split(&format!("client-{i}")),
        )
    });
    (clients, val)
}

/// Builds exactly one client's local state — data shard plus training RNG
/// — without keeping the rest of the federation. This is what a
/// `photon client` OS process calls at startup: a founding member
/// (`id < cfg.population`) is bit-identical to its in-process twin in
/// [`build_federation`], and joiners (`id >= cfg.population`) use the
/// warm-join derivation, which is keyed by id alone.
///
/// # Errors
/// Returns an error if the configuration is invalid.
pub fn build_client(
    cfg: &FederationConfig,
    id: u32,
    tokens_per_client: usize,
) -> Result<LlmClient> {
    cfg.validate()?;
    if (id as usize) >= cfg.population {
        return Ok(provision_joiner(cfg, id, tokens_per_client));
    }
    Ok(iid_clients(cfg, tokens_per_client, 0)
        .0
        .nth(id as usize)
        .expect("one client per founding id"))
}

/// Builds a federation over IID shards of a synthetic web corpus.
///
/// # Errors
/// Returns an error if the configuration is invalid.
pub fn build_federation(cfg: &FederationConfig, tokens_per_client: usize) -> Result<Federation> {
    cfg.validate()?;
    Ok(Federation {
        aggregator: Aggregator::new(cfg.clone())?,
        clients: iid_clients(cfg, tokens_per_client, 0).0.collect(),
        joiner_tokens: tokens_per_client,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_nn::ModelConfig;

    fn tiny_model() -> ModelConfig {
        ModelConfig {
            n_layers: 1,
            d_model: 16,
            n_heads: 2,
            exp_ratio: 2,
            vocab_size: 257,
            seq_len: 16,
        }
    }

    pub(super) fn quick_cfg(n: usize) -> FederationConfig {
        let mut cfg = FederationConfig::quick_demo(tiny_model(), n);
        cfg.local_steps = 4;
        cfg.local_batch = 2;
        cfg
    }

    #[test]
    fn one_round_updates_the_global_model() {
        let cfg = quick_cfg(3);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let before = fed.aggregator.params().to_vec();
        let record = fed.aggregator.run_round(&mut fed.clients).unwrap();
        assert_ne!(fed.aggregator.params(), &before[..]);
        assert_eq!(record.cohort, vec![0, 1, 2]);
        assert!(record.mean_client_loss.is_finite());
        assert!(record.pseudo_grad_norm > 0.0);
        assert!(record.wire_bytes > 0);
        assert_eq!(fed.aggregator.round(), 1);
    }

    #[test]
    fn training_reduces_client_loss_over_rounds() {
        let cfg = quick_cfg(2);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let first = fed.aggregator.run_round(&mut fed.clients).unwrap();
        let mut last = first.clone();
        for _ in 0..6 {
            last = fed.aggregator.run_round(&mut fed.clients).unwrap();
        }
        assert!(
            last.mean_client_loss < first.mean_client_loss,
            "{} -> {}",
            first.mean_client_loss,
            last.mean_client_loss
        );
    }

    #[test]
    fn secure_aggregation_matches_plain_aggregation() {
        let mut plain_cfg = quick_cfg(3);
        plain_cfg.seed = 7;
        let mut secure_cfg = plain_cfg.clone();
        secure_cfg.secure_agg = true;

        let mut plain = build_federation(&plain_cfg, 2_000).unwrap();
        let mut secure = build_federation(&secure_cfg, 2_000).unwrap();
        plain.aggregator.run_round(&mut plain.clients).unwrap();
        secure.aggregator.run_round(&mut secure.clients).unwrap();

        // The pairwise masks cancel in the aggregate, so the resulting
        // global models agree to floating-point noise.
        let diff: f32 = plain
            .aggregator
            .params()
            .iter()
            .zip(secure.aggregator.params())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 2e-3, "secure aggregation diverged: {diff}");
    }

    #[test]
    fn compressed_link_is_lossless() {
        let mut cfg_a = quick_cfg(2);
        cfg_a.seed = 13;
        let mut cfg_b = cfg_a.clone();
        cfg_b.compress_link = true;
        let mut fed_a = build_federation(&cfg_a, 2_000).unwrap();
        let mut fed_b = build_federation(&cfg_b, 2_000).unwrap();
        fed_a.aggregator.run_round(&mut fed_a.clients).unwrap();
        fed_b.aggregator.run_round(&mut fed_b.clients).unwrap();
        assert_eq!(fed_a.aggregator.params(), fed_b.aggregator.params());
    }

    #[test]
    fn partial_participation_samples_a_subset() {
        let mut cfg = quick_cfg(6);
        cfg.cohort = CohortSpec::Sample { k: 2 };
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let record = fed.aggregator.run_round(&mut fed.clients).unwrap();
        assert_eq!(record.cohort.len(), 2);
        assert!(record.cohort.iter().all(|&i| i < 6));
    }

    #[test]
    fn build_client_is_the_twin_of_each_founding_member() {
        // What `build_client`'s doc promises a `photon client` process: the
        // same shard and the same training stream as the in-process client,
        // shown by one local round from the same global model.
        let mut cfg = quick_cfg(3);
        cfg.local_steps = 1;
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let global = fed.aggregator.params().to_vec();
        let cohort = [0, 1, 2];
        for twin in &mut fed.clients {
            let mut alone = build_client(&cfg, twin.id(), 2_000).unwrap();
            let alone = alone.run_round(&global, 0, &cohort, &cfg).unwrap();
            let twin = twin.run_round(&global, 0, &cohort, &cfg).unwrap();
            assert_eq!(alone.delta, twin.delta);
            assert_eq!(alone.metrics.mean_loss, twin.metrics.mean_loss);
        }
    }

    fn checkpoint_of(agg: &Aggregator) -> Checkpoint {
        let dir = std::env::temp_dir().join(format!(
            "photon-core-restore-{:?}",
            std::thread::current().id()
        ));
        agg.save_checkpoint(&dir).unwrap();
        let ckpt = crate::load_checkpoint(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        ckpt
    }

    #[test]
    fn restore_validates_length() {
        let cfg = quick_cfg(2);
        let mut agg = Aggregator::new(cfg).unwrap();
        let mut ckpt = checkpoint_of(&agg);
        ckpt.round = 3;
        ckpt.params.truncate(5);
        assert!(agg.restore(ckpt.clone()).is_err());
        ckpt.params = vec![0.0; agg.params().len()];
        agg.restore(ckpt).unwrap();
        assert_eq!(agg.round(), 3);
    }

    #[test]
    fn a_rejected_checkpoint_changes_nothing() {
        use crate::hierarchy::HierarchyConfig;
        use crate::membership::MembershipConfig;
        use photon_fedopt::{BufferConfig, ServerOptKind};

        // A run with every checkpointed subsystem on, two rounds in.
        let mut cfg = quick_cfg(4);
        cfg.server_opt = ServerOptKind::FedMom {
            lr: 1.0,
            momentum: 0.9,
        };
        cfg.membership = Some(MembershipConfig::default());
        cfg.buffer = Some(BufferConfig::default());
        cfg.hierarchy = Some(HierarchyConfig {
            shards: 2,
            ..HierarchyConfig::default()
        });
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        fed.run_round().unwrap();
        let good = checkpoint_of(&fed.aggregator);
        fed.run_round().unwrap();

        let with = |edit: &dyn Fn(&mut FederationConfig)| {
            let mut cfg = cfg.clone();
            edit(&mut cfg);
            Aggregator::new(cfg).unwrap()
        };
        let mut wrong_count = good.clone();
        wrong_count.params.pop();
        let mut foreign_opt = good.clone();
        foreign_opt.server_opt.as_mut().unwrap().kind = "fedadam".into();
        let mut dead_outside = good.clone();
        dead_outside.hierarchy.as_mut().unwrap().dead_shards = vec![2];
        let mut buffered = good.clone();
        buffered.elastic.as_mut().unwrap().buffer = Some(vec![photon_fedopt::BufferedUpdate {
            client_id: 0,
            origin_round: 0,
            arrival_round: 1,
            base_weight: 1.0,
            mean_loss: 1.0,
            delta: vec![0.0; good.params.len()],
        }]);
        let mut bad_roster = good.clone();
        bad_roster.elastic.as_mut().unwrap().membership.members[1].0 = 7;

        let cases: Vec<(&str, Aggregator, Checkpoint)> = vec![
            ("wrong param count", with(&|_| {}), wrong_count),
            ("foreign optimizer kind", with(&|_| {}), foreign_opt),
            ("dead shard outside the tree", with(&|_| {}), dead_outside),
            ("malformed roster", with(&|_| {}), bad_roster),
            (
                "buffered updates without a buffer config",
                with(&|c| c.buffer = None),
                buffered,
            ),
            (
                "membership state without a membership config",
                with(&|c| (c.membership, c.buffer) = (None, None)),
                good.clone(),
            ),
            (
                "hierarchy state without a hierarchy config",
                with(&|c| c.hierarchy = None),
                good.clone(),
            ),
        ];
        for (what, mut agg, ckpt) in cases {
            // Move the target off its founding state first, so "unchanged"
            // cannot be confused with "reset".
            let mut warm = good.clone();
            if agg.cfg.membership.is_none() {
                warm.elastic = None;
            } else if agg.cfg.buffer.is_none() {
                warm.elastic.as_mut().unwrap().buffer = None;
            }
            if agg.cfg.hierarchy.is_none() {
                warm.hierarchy = None;
            }
            agg.restore(warm).unwrap();
            let before = (
                agg.round,
                agg.params.clone(),
                agg.server_opt.export_state(),
                agg.membership.clone(),
                agg.buffer.as_ref().map(|b| b.entries().to_vec()),
                agg.hierarchy_state(),
            );
            assert!(agg.restore(ckpt).is_err(), "{what} was accepted");
            let after = (
                agg.round,
                agg.params.clone(),
                agg.server_opt.export_state(),
                agg.membership.clone(),
                agg.buffer.as_ref().map(|b| b.entries().to_vec()),
                agg.hierarchy_state(),
            );
            assert!(
                before == after,
                "{what}: a rejected restore changed the aggregator"
            );
        }

        // The good checkpoint itself restores, and the run continues from it.
        fed.aggregator.restore(good.clone()).unwrap();
        assert_eq!(fed.aggregator.round(), 1);
        assert_eq!(checkpoint_of(&fed.aggregator), good);
        fed.run_round().unwrap();
    }
}
