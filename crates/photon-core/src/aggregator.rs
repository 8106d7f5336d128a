use crate::checkpoint::ElasticState;
use crate::faults::{ClientFault, FaultInjector};
use crate::hierarchy::{HierarchyState, ShardTree};
use crate::membership::MembershipRegistry;
use crate::{CohortSpec, CoreError, DataSource, FederationConfig, LlmClient, Result, RoundRecord};
use crossbeam::channel::unbounded;
use photon_data::{partition_iid, DomainKind, SyntheticDomain, TokenCorpus};
use photon_fedopt::{
    canonical_fold, sample_live, AggregationKind, AvailabilitySampler, AvailabilityTraces,
    BufferedUpdate, ClientSampler, ClientUpdate, FullParticipation, ServerOpt, StreamingMerge,
    UniformSampler, UpdateBuffer, UpdateGuard,
};
use photon_nn::Gpt;
use photon_tensor::SeedStream;
use photon_tokenizer::ByteTokenizer;
use std::collections::BTreeSet;

/// EMA blend for the watchdog's loss/norm trackers: history-weighted
/// enough to ignore single-round noise, fresh enough to track the loss
/// curve's natural decay.
const WATCHDOG_EMA_BETA: f64 = 0.7;

/// Pseudo-client id base for shard aggregates entering the root guard
/// screen: high enough that no real client id collides, so a shard that
/// repeatedly emits poisoned aggregates earns its own quarantine sentence.
const SHARD_GUARD_BASE: u32 = 0x8000_0000;

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
    /// set is the only hierarchical state and rides in checkpoint v5.
    hierarchy: Option<ShardTree>,
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
        Ok(Aggregator {
            cfg,
            params,
            server_opt,
            sampler,
            round: 0,
            telemetry: crate::Telemetry::new(),
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
        })
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

    /// The server optimizer's exportable state (for checkpointing).
    pub fn server_opt_state(&self) -> photon_fedopt::ServerOptState {
        self.server_opt.export_state()
    }

    /// Restores aggregator state from a checkpoint *without* server
    /// optimizer state: stateful optimizers (FedMom, FedAdam, DiLoCo) are
    /// reinitialized with a logged warning. Prefer
    /// [`Aggregator::restore_with_opt`] with the state saved by
    /// [`crate::save_checkpoint_with_opt`].
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] if the parameter vector does
    /// not match the configured model.
    pub fn restore(&mut self, round: u64, params: Vec<f32>) -> Result<()> {
        self.restore_with_opt(round, params, None)
    }

    /// Restores aggregator state from a checkpoint, including the server
    /// optimizer's state when the checkpoint carries one. Passing `None`
    /// (legacy v1 checkpoints) reinitializes the optimizer; if it is
    /// stateful, a warning is logged because its momentum is lost.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] if the parameter vector does
    /// not match the configured model or the optimizer state belongs to a
    /// different optimizer or shape.
    pub fn restore_with_opt(
        &mut self,
        round: u64,
        params: Vec<f32>,
        server_opt: Option<&photon_fedopt::ServerOptState>,
    ) -> Result<()> {
        if params.len() != self.params.len() {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint has {} parameters, model needs {}",
                params.len(),
                self.params.len()
            )));
        }
        match server_opt {
            Some(state) => self
                .server_opt
                .import_state(state)
                .map_err(|e| CoreError::InvalidConfig(format!("server optimizer state: {e}")))?,
            None => {
                let is_stateful = !self.server_opt.export_state().slots.is_empty();
                if is_stateful {
                    eprintln!(
                        "warning: checkpoint carries no server-optimizer state; \
                         {} momentum reinitialized",
                        self.server_opt.name()
                    );
                }
                self.server_opt = self.cfg.server_opt.build(self.params.len());
            }
        }
        self.params = params;
        self.round = round;
        // Guard and watchdog state is not checkpointed: it re-warms
        // deterministically from the replayed rounds.
        self.guard = self
            .cfg
            .guard
            .enabled
            .then(|| UpdateGuard::new(self.cfg.guard, self.cfg.seed));
        self.loss_ema = None;
        self.norm_ema = None;
        // Degraded mode and the adaptive-deadline window likewise re-warm
        // from the replayed rounds rather than being checkpointed.
        self.degraded = false;
        self.latency_obs.clear();
        // Roster and buffer reset to the founding state; a v3 checkpoint's
        // [`Aggregator::restore_elastic`] overwrites them with the exact
        // image the crashed run had.
        self.membership = self
            .cfg
            .membership
            .map(|m| MembershipRegistry::new(m, self.cfg.population));
        self.buffer = self.cfg.buffer.map(|_| UpdateBuffer::new());
        // The shard tree resets to fully live; a v5 checkpoint's
        // [`Aggregator::restore_hierarchy`] overwrites the dead set with
        // the exact image the crashed run had.
        self.hierarchy = self.cfg.hierarchy.map(|h| ShardTree::new(h, self.cfg.seed));
        Ok(())
    }

    /// The hierarchical-aggregation image to carry in a v5 checkpoint:
    /// the set of crashed shards. `None` when the run has no hierarchy
    /// config.
    pub fn hierarchy_state(&self) -> Option<HierarchyState> {
        self.hierarchy.as_ref().map(ShardTree::state)
    }

    /// Restores the shard tree's dead set from a v5 checkpoint, so the
    /// resumed run re-derives the identical routing — including the
    /// deterministic re-parenting of every orphaned client — the crashed
    /// run had.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] if the run has no hierarchy
    /// config or the dead set references shards outside the tree.
    pub fn restore_hierarchy(&mut self, state: &HierarchyState) -> Result<()> {
        let Some(hcfg) = self.cfg.hierarchy else {
            return Err(CoreError::InvalidConfig(
                "checkpoint carries hierarchy state but the run has no hierarchy config".into(),
            ));
        };
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
        self.hierarchy = Some(ShardTree::from_state(hcfg, self.cfg.seed, state));
        Ok(())
    }

    /// The elastic-membership image to carry in a v3 checkpoint: the
    /// roster snapshot plus any in-flight buffered updates. `None` when
    /// the run has no membership config.
    pub fn elastic_state(&self) -> Option<ElasticState> {
        self.membership.as_ref().map(|reg| ElasticState {
            membership: reg.snapshot(),
            buffer: self.buffer.as_ref().map(|b| b.entries().to_vec()),
        })
    }

    /// Restores the membership registry and update buffer from a v3
    /// checkpoint, so the resumed run continues with the exact roster —
    /// including mid-run joiners and departures — the crashed run had.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] if the run has no membership
    /// config, the snapshot is malformed, or the checkpoint carries
    /// buffered updates while buffering is disabled.
    pub fn restore_elastic(&mut self, state: &ElasticState) -> Result<()> {
        if self.cfg.membership.is_none() {
            return Err(CoreError::InvalidConfig(
                "checkpoint carries membership state but the run has no membership config".into(),
            ));
        }
        let reg = MembershipRegistry::from_snapshot(&state.membership)
            .map_err(|e| CoreError::InvalidConfig(format!("membership snapshot: {e}")))?;
        self.membership = Some(reg);
        match (&state.buffer, self.cfg.buffer.is_some()) {
            (Some(entries), true) => {
                self.buffer = Some(UpdateBuffer::from_entries(entries.clone()))
            }
            (None, true) => self.buffer = Some(UpdateBuffer::new()),
            (Some(entries), false) if !entries.is_empty() => {
                return Err(CoreError::InvalidConfig(
                    "checkpoint carries buffered updates but buffering is disabled".into(),
                ));
            }
            _ => {}
        }
        Ok(())
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

    /// Executes one federated round (Algorithm 1, L.4–11): samples the
    /// cohort, broadcasts the model as a Link frame, runs each sampled
    /// client on its own thread, decodes result frames, aggregates and
    /// applies the server optimizer.
    ///
    /// # Errors
    /// Returns an error if a client thread fails or a frame is corrupt.
    pub fn run_round(&mut self, clients: &mut [LlmClient]) -> Result<RoundRecord> {
        self.run_round_with(clients, None)
    }

    /// [`Aggregator::run_round`] with an optional seeded fault schedule:
    /// scheduled crashes drop the client's result, stragglers are measured
    /// against `round_deadline_ms`, and corrupted result frames go through
    /// the Link retransmit budget before counting as dropouts.
    ///
    /// # Errors
    /// Returns an error if a client thread fails, a frame is corrupt past
    /// recovery, or dropouts exceed what the configuration tolerates.
    pub fn run_round_with(
        &mut self,
        clients: &mut [LlmClient],
        injector: Option<&FaultInjector>,
    ) -> Result<RoundRecord> {
        // Observability: freeze the simulated clock at the round start so
        // every event this round emits carries the same replayable
        // timestamp, then open the round's root span on the driver lane.
        let round_ms = self.cfg.membership.map_or(1_000, |m| m.round_ms);
        if photon_trace::enabled() {
            photon_trace::set_sim_time_us(photon_comms::SimClock::new(round_ms).now_us(self.round));
            photon_trace::set_actor(0);
        }
        let mut round_span =
            photon_trace::span(photon_trace::Phase::Round).arg("round", self.round);
        round_span.set_sim_dur_us(round_ms.saturating_mul(1_000));

        // Elastic membership: apply this round's churn (joins, leaves,
        // lease renewals and expiries) before sampling, then draw the
        // cohort from the live roster instead of the static population.
        let mut churn = crate::membership::ChurnEvents::default();
        let mut handshake_bytes = 0u64;
        let cohort_idx: Vec<usize> = if let Some(reg) = self.membership.as_mut() {
            churn = reg.begin_round(self.round, injector);
            self.telemetry.record_churn(
                churn.joined.len() as u64,
                churn.departed.len() as u64,
                churn.expired.len() as u64,
                churn.rejoined.len() as u64,
            );
            // Every (re)join runs the Hello/LeaseGrant handshake over the
            // Link; the frames count toward the round's wire traffic.
            let mcfg = reg.config();
            let expires_ms = mcfg.clock().now_ms(self.round) + mcfg.lease_ms;
            for &id in churn.joined.iter().chain(&churn.rejoined) {
                let hello = photon_comms::Message::Hello {
                    client_id: id,
                    birth_round: reg.birth_round(id).unwrap_or(self.round),
                }
                .to_frame_opts(self.cfg.wire_opts());
                let grant = photon_comms::Message::LeaseGrant {
                    client_id: id,
                    expires_ms,
                }
                .to_frame_opts(self.cfg.wire_opts());
                handshake_bytes += hello.len() as u64 + grant.len() as u64;
            }
            let live = reg.live_members();
            let mut universe = if live.is_empty() {
                // Every lease lapsed at once: fall back to all reachable
                // members rather than stalling the run.
                reg.reachable_members()
            } else {
                live
            };
            // A client admitted this round spends it on the
            // Hello/LeaseGrant handshake and model transfer; it becomes
            // sampleable from the next round (which also gives the driver
            // a chance to provision its client-side state).
            universe.retain(|id| !churn.joined.contains(id));
            if universe.is_empty() {
                return Err(CoreError::ClientFailure(
                    "no trained member is available to sample this round".into(),
                ));
            }
            let k = match self.cfg.cohort {
                CohortSpec::Full => universe.len(),
                CohortSpec::Sample { k } => k,
            };
            let rng = self
                .member_rng
                .as_ref()
                .expect("membership mode always has a sampling stream");
            sample_live(&universe, k, rng, self.round)
                .into_iter()
                .map(|id| id as usize)
                .collect()
        } else {
            self.sampler.sample(clients.len(), self.round)
        };
        if cohort_idx.is_empty() {
            return Err(CoreError::InvalidConfig("empty cohort".into()));
        }
        if let Some(&max) = cohort_idx.iter().max() {
            if max >= clients.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "cohort references client {max} but only {} are provisioned \
                     (call Federation::sync_roster after membership churn)",
                    clients.len()
                )));
            }
        }
        let cohort_ids: Vec<u32> = cohort_idx.iter().map(|&i| clients[i].id()).collect();

        // Active partitions: fully severed clients exchange no traffic this
        // round (no broadcast charged, result dropped); asymmetrically
        // severed ones hear the broadcast but lose the result on the way
        // back.
        let severed_full = injector.map_or(0, |inj| {
            cohort_ids
                .iter()
                .filter(|&&id| {
                    inj.partition_state(self.round, id) == Some(photon_comms::PartitionKind::Full)
                })
                .count()
        });

        // The straggler deadline this round: adaptive (a percentile of the
        // observed latency window) when configured, the static knob
        // otherwise — and lifted entirely while the aggregator is degraded,
        // so a healing partition's late results are not re-dropped.
        let effective_deadline_ms = if self.degraded {
            None
        } else if let Some(ad) = self.cfg.adaptive_deadline {
            Some(ad.effective_deadline_ms(&self.latency_obs))
        } else {
            self.cfg.round_deadline_ms
        };

        // L.5–6: broadcast and train in parallel, over real Link frames.
        let broadcast = {
            let mut bspan = photon_trace::span(photon_trace::Phase::Broadcast)
                .arg("cohort", cohort_idx.len() as u64);
            let frame =
                photon_comms::BroadcastFrame::new(self.round, &self.params, self.cfg.wire_opts())
                    .frame();
            bspan.set_arg("frame_bytes", frame.len() as u64);
            frame
        };
        let broadcast_bytes = broadcast.len() as u64 * (cohort_idx.len() - severed_full) as u64;
        photon_trace::counter_add("round.broadcast_bytes", broadcast_bytes);

        let (tx, rx) = unbounded::<ClientReply>();
        let round = self.round;
        let cfg = &self.cfg;
        let cohort_ids_ref = &cohort_ids;
        // Membership test via sorted lookup: the provisioned roster can be
        // 10^5+ clients while the cohort is thousands, so a linear
        // `contains` per client would make the spawn loop O(pop × cohort).
        let mut cohort_sorted = cohort_idx.clone();
        cohort_sorted.sort_unstable();
        let all_joined = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(cohort_sorted.len());
            for (i, client) in clients.iter_mut().enumerate() {
                if cohort_sorted.binary_search(&i).is_err() {
                    continue;
                }
                let tx = tx.clone();
                let frame = broadcast.clone();
                handles.push(scope.spawn(move |_| {
                    let id = client.id();
                    // Send failures mean the aggregator stopped listening;
                    // the thread just winds down (no panic either way).
                    let _ = tx.send(client_round(client, frame, round, cohort_ids_ref, cfg, {
                        injector.and_then(|inj| inj.client_fault(round, id))
                    }));
                }));
            }
            // Join every handle (no short-circuit): a dropped handle
            // detaches its thread, and a detach racing the exit of a thread
            // that lives microseconds has crashed inside glibc. Joining
            // also surfaces a panic here.
            let mut all_joined = true;
            for handle in handles {
                all_joined &= handle.join().is_ok();
            }
            all_joined
        })
        .unwrap_or(false);
        if !all_joined {
            return Err(CoreError::ClientFailure("a client thread panicked".into()));
        }
        drop(tx);

        // L.7–8: collect updates and aggregate. Results arrive in thread
        // completion order; sort by client id so float accumulation is
        // bit-reproducible across runs.
        let buffered_mode = self.buffer.is_some();
        let mut collected = Vec::with_capacity(cohort_idx.len());
        let mut result_bytes = 0u64;
        let mut crashes = 0usize;
        let mut stragglers = 0usize;
        let mut link_dropouts = 0usize;
        let mut retransmits = 0u64;
        let mut partition_drops = 0usize;
        let mut net_losses = 0u64;
        let mut net_duplicates = 0u64;
        let mut net_reorders = 0u64;
        let mut round_latencies: Vec<u64> = Vec::new();
        // Replies arrive in thread-completion order; process them in
        // client-id order so the aggregator-side Link deliveries (and the
        // trace events they emit) replay in a deterministic sequence.
        let mut replies: Vec<ClientReply> = rx.iter().collect();
        replies.sort_by_key(ClientReply::client_id);
        for reply in replies {
            let (client_id, frame, delay_ms, corrupt_attempts) = match reply {
                ClientReply::Crash { .. } => {
                    crashes += 1;
                    continue;
                }
                ClientReply::Error { client_id, message } => {
                    return Err(CoreError::ClientFailure(format!(
                        "client {client_id}: {message}"
                    )));
                }
                ClientReply::Frame {
                    client_id,
                    frame,
                    delay_ms,
                    corrupt_attempts,
                } => (client_id, frame, delay_ms, corrupt_attempts),
            };
            // A severed client's result never reaches the aggregator (it
            // still trained, keeping its local state deterministic across
            // the heal).
            if let Some(kind) = injector.and_then(|inj| inj.partition_state(self.round, client_id))
            {
                partition_drops += 1;
                photon_trace::instant(
                    photon_trace::Phase::NetPartition,
                    "net_partition",
                    &[
                        ("client", client_id as u64),
                        ("full", u64::from(kind == photon_comms::PartitionKind::Full)),
                    ],
                );
                continue;
            }
            // The chaos network decides what the link does to this
            // delivery; the fault plan can pile scheduled losses and a
            // pinned-slow link on top.
            let frame_len = frame.len() as u64;
            let outcome = self
                .network
                .as_ref()
                .map(|net| net.link_outcome(self.round, client_id, frame.len()))
                .unwrap_or_default();
            let mut latency_ms = outcome.latency_ms;
            if injector.is_some_and(|inj| inj.slowlink_at(self.round, client_id)) {
                let factor = self.cfg.network.map_or(10, |n| n.slow_factor);
                latency_ms = latency_ms.saturating_mul(factor).max(1_000);
            }
            let lost_attempts = outcome.lost_attempts
                + injector.map_or(0, |inj| inj.link_loss(self.round, client_id));
            net_losses += lost_attempts as u64;
            net_duplicates += outcome.duplicates as u64;
            net_reorders += u64::from(outcome.reorder_ms > 0);
            // The result frame crosses the lossy Link: CRC-failed and lost
            // attempts are retransmitted (deterministically) up to the
            // budget, each paying the link's one-way latency.
            let link_seed = mix_link_seed(self.cfg.seed, self.round, client_id);
            let (delivered, report) = photon_comms::deliver_chaos(
                &frame,
                corrupt_attempts,
                lost_attempts,
                latency_ms,
                link_seed,
                &self.cfg.retransmit,
            );
            result_bytes += report.wire_bytes;
            retransmits += u64::from(report.attempts.saturating_sub(1));
            let frame = match delivered {
                Ok(f) => f,
                Err(_) => {
                    // Budget (or delivery timeout) exhausted: the client
                    // counts as dropped out.
                    link_dropouts += 1;
                    continue;
                }
            };
            // Straggler policy: simulated lateness is the injected delay
            // plus the delivery's in-flight time, retry backoff and any
            // reorder delay. Synchronous rounds drop late results; buffered
            // rounds defer them to the simulated round their lateness lands
            // them in, where they commit with a staleness discount instead.
            let lateness = delay_ms + report.backoff_ms + report.latency_ms + outcome.reorder_ms;
            if self.network.is_some() {
                self.telemetry.record_link_latency(lateness);
                photon_trace::observe("net.latency_ms", lateness);
            }
            round_latencies.push(lateness);
            let mut arrival_round = self.round;
            if let Some(deadline) = effective_deadline_ms {
                if lateness > deadline {
                    stragglers += 1;
                    if buffered_mode {
                        arrival_round = self.round + 1 + (lateness - deadline) / round_ms;
                    } else {
                        continue;
                    }
                }
            }
            match photon_comms::Message::from_frame(frame)? {
                photon_comms::Message::ClientResult {
                    client_id,
                    delta,
                    weight,
                    metrics,
                    ..
                } => {
                    // A duplicating link re-delivers the decoded frame; the
                    // copy is charged to the wire and discarded by dedup.
                    for _ in 0..outcome.duplicates {
                        result_bytes += frame_len;
                        collected.push((client_id, delta.clone(), weight, metrics, arrival_round));
                    }
                    collected.push((client_id, delta, weight, metrics, arrival_round));
                }
                other => {
                    return Err(CoreError::ClientFailure(format!(
                        "unexpected message from client: {other:?}"
                    )))
                }
            }
        }
        collected.sort_by_key(|(id, _, _, _, _)| *id);
        // Dedup: a duplicating link must never double-apply one client's
        // update. Within a round each client legitimately appears once, so
        // id-adjacent equals are exactly the link's duplicate deliveries.
        let before_dedup = collected.len();
        collected.dedup_by(|a, b| a.0 == b.0);
        let dup_drops = (before_dedup - collected.len()) as u64;
        let received = collected.len();

        // Feed the adaptive-deadline window (bounded, deterministic: the
        // replies were processed in client-id order).
        if let Some(ad) = self.cfg.adaptive_deadline {
            self.latency_obs.extend(&round_latencies);
            if self.latency_obs.len() > ad.window {
                let excess = self.latency_obs.len() - ad.window;
                self.latency_obs.drain(..excess);
            }
        }

        let wire_bytes = broadcast_bytes + result_bytes + handshake_bytes;
        round_span.set_arg("cohort", cohort_ids.len() as u64);
        round_span.set_arg("wire_bytes", wire_bytes);
        round_span.set_arg("received", received as u64);
        photon_trace::counter_add("round.wire_bytes", wire_bytes);
        photon_trace::observe("round.wire_bytes", wire_bytes);
        photon_trace::counter_add("rounds.total", 1);

        // Shard faults are drawn from the salted fault-plan columns for
        // the shards still alive this round (a dead shard cannot crash or
        // hang again).
        let (shard_crashes, shard_hangs) = match (&self.hierarchy, injector) {
            (Some(tree), Some(inj)) => {
                let live = tree.live_shards();
                (
                    live.iter()
                        .copied()
                        .filter(|&s| inj.shardcrash_at(self.round, s))
                        .collect(),
                    live.iter()
                        .copied()
                        .filter(|&s| inj.shardhang_at(self.round, s))
                        .collect(),
                )
            }
            _ => (Vec::new(), Vec::new()),
        };
        let acct = RoundAccounting {
            crashes,
            stragglers,
            link_dropouts,
            retransmits,
            wire_bytes,
            joined: churn.joined.len(),
            departed: churn.departed.len(),
            lease_expired: churn.expired.len(),
            rejoined: churn.rejoined.len(),
            unreachable: partition_drops,
            effective_deadline_ms,
            net_losses,
            net_duplicates,
            net_reorders,
            dup_drops,
            shard_crashes,
            shard_hangs,
        };
        if buffered_mode {
            return self.finish_buffered_round(collected, cohort_idx, acct);
        }
        self.finish_round(collected, cohort_idx, acct)
    }

    /// The synchronous commit tail of a round, shared verbatim between the
    /// in-process simulator ([`Aggregator::run_round_with`]) and the
    /// multi-process TCP deployment ([`Aggregator::commit_external_round`]):
    /// network telemetry, the degraded-quorum gate, guard screening, the
    /// partial-results gate, the loss-spike watchdog, robust aggregation,
    /// and the server-optimizer step. Keeping one tail means both backends
    /// apply results with identical semantics — bit-identical in sim mode.
    fn finish_round(
        &mut self,
        collected: Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics, u64)>,
        cohort_idx: Vec<usize>,
        acct: RoundAccounting,
    ) -> Result<RoundRecord> {
        if self.hierarchy.is_some() {
            return self.finish_hierarchy_round(collected, cohort_idx, acct);
        }
        let received = collected.len();
        if acct.net_losses + acct.net_duplicates + acct.net_reorders + acct.dup_drops > 0
            || acct.unreachable > 0
        {
            self.telemetry.record_network(
                acct.net_losses,
                acct.net_duplicates,
                acct.net_reorders,
                acct.dup_drops,
                acct.unreachable as u64,
            );
        }

        // Graceful degradation: when an active partition (or mass loss)
        // leaves the round below the reachability quorum, committing the
        // minority slice would skew the model toward whoever stayed
        // connected. The round records its telemetry but commits nothing;
        // the deadline stays lifted until a round reaches quorum again, at
        // which point the aggregator recovers automatically.
        let mut degraded_round = false;
        if let Some(net) = self.cfg.network {
            let quorum = (((cohort_idx.len() as f64) * net.min_quorum_frac).ceil() as usize).max(1);
            if received < quorum {
                degraded_round = true;
                self.degraded = true;
                self.telemetry.record_degraded_round();
                photon_trace::instant(
                    photon_trace::Phase::DegradedRound,
                    "degraded_round",
                    &[
                        ("round", self.round),
                        ("received", received as u64),
                        ("quorum", quorum as u64),
                    ],
                );
            } else if self.degraded {
                self.degraded = false;
                self.telemetry.record_degraded_recovery();
            }
        }
        if degraded_round {
            self.telemetry.record_round_faults(
                acct.crashes as u64,
                acct.stragglers as u64,
                acct.retransmits,
                acct.link_dropouts as u64,
            );
            let mut losses = Vec::with_capacity(collected.len());
            for (id, _, _, metrics, _) in &collected {
                self.telemetry.record(*id, self.round, metrics);
                losses.push(metrics.mean_loss);
            }
            let mean_client_loss = if losses.is_empty() {
                0.0
            } else {
                losses.iter().sum::<f32>() / losses.len() as f32
            };
            let record = RoundRecord {
                round: self.round,
                cohort: cohort_idx,
                dropouts: acct.crashes + acct.link_dropouts,
                stragglers: acct.stragglers,
                retransmits: acct.retransmits,
                mean_client_loss,
                pseudo_grad_norm: 0.0,
                wire_bytes: acct.wire_bytes,
                eval_ppl: None,
                guard_rejected: 0,
                guard_clipped: 0,
                quarantined: 0,
                neutralized: self.neutralized.contains(&self.round),
                joined: acct.joined,
                departed: acct.departed,
                lease_expired: acct.lease_expired,
                rejoined: acct.rejoined,
                buffered: 0,
                commit_deferred: false,
                degraded: true,
                unreachable: acct.unreachable,
                effective_deadline_ms: acct.effective_deadline_ms,
                shards: 0,
                shard_degraded: 0,
                shard_crashes: 0,
                shard_hangs: 0,
                reparented: 0,
                peak_resident: 0,
            };
            self.round += 1;
            return Ok(record);
        }

        // Construct updates; a malformed aggregation weight surfaces as a
        // recoverable failure (guarded runs quarantine the sender instead
        // of failing the round).
        let mut survivor_ids = Vec::with_capacity(received);
        let mut updates = Vec::with_capacity(received);
        let mut survivor_metrics = Vec::with_capacity(received);
        let mut guard_rejected = 0usize;
        for (id, delta, weight, metrics, _) in collected {
            match ClientUpdate::new(delta, weight) {
                Ok(update) => {
                    survivor_ids.push(id);
                    updates.push(update);
                    survivor_metrics.push(metrics);
                }
                Err(e) => {
                    let Some(guard) = self.guard.as_mut() else {
                        return Err(CoreError::ClientFailure(format!("client {id}: {e}")));
                    };
                    guard.quarantine(self.round, id);
                    guard_rejected += 1;
                    self.telemetry.record_guard(1, 0, 0, 0);
                }
            }
        }

        // Admission checks: quarantine skips, finiteness, norm clipping,
        // cohort outlier rejection. Rejected updates (and their loss
        // metrics — a poisoned loss must not steer the watchdog) are
        // dropped before aggregation.
        let mut guard_clipped = 0usize;
        let mut quarantined = 0usize;
        if let Some(guard) = self.guard.as_mut() {
            let report = guard.screen_round(self.round, &survivor_ids, &mut updates);
            self.telemetry.record_guard(
                report.rejected_nonfinite,
                report.rejected_outliers,
                report.clipped,
                report.quarantine_skips,
            );
            guard_rejected += (report.rejected_nonfinite + report.rejected_outliers) as usize;
            guard_clipped = report.clipped as usize;
            quarantined = report.quarantine_skips as usize;
            let mut keep = report.decisions.iter().map(|d| d.admitted());
            let mut keep2 = report.decisions.iter().map(|d| d.admitted());
            let mut keep3 = report.decisions.iter().map(|d| d.admitted());
            survivor_ids.retain(|_| keep.next().unwrap());
            updates.retain(|_| keep2.next().unwrap());
            survivor_metrics.retain(|_| keep3.next().unwrap());
        }

        let dropouts = acct.crashes + acct.link_dropouts;
        // Guard rejections are deliberate exclusions, not transport
        // failures: the partial-results gate only counts clients that never
        // delivered a usable frame.
        let missing = cohort_idx.len() - received;
        if missing > 0 && (!self.cfg.allow_partial_results || received == 0) {
            // §4: only the partial-update path may proceed with survivors.
            return Err(CoreError::ClientFailure(format!(
                "expected {} results, got {} (enable allow_partial_results \
                 to aggregate survivors)",
                cohort_idx.len(),
                received
            )));
        }
        if updates.is_empty() {
            return Err(CoreError::ClientFailure(
                "the guard rejected the entire cohort".into(),
            ));
        }
        self.telemetry.record_round_faults(
            acct.crashes as u64,
            acct.stragglers as u64,
            acct.retransmits,
            acct.link_dropouts as u64,
        );
        let mut losses = Vec::with_capacity(updates.len());
        for (id, metrics) in survivor_ids.iter().zip(&survivor_metrics) {
            self.telemetry.record(*id, self.round, metrics);
            losses.push(metrics.mean_loss);
        }

        let neutralized = self.neutralized.contains(&self.round);
        let avg_delta = self.cfg.aggregation.aggregate(&updates);
        let pseudo_grad_norm = photon_tensor::ops::l2_norm(&avg_delta);
        let mean_client_loss = losses.iter().sum::<f32>() / losses.len() as f32;

        if !neutralized {
            // Loss-spike watchdog, BEFORE the server optimizer touches the
            // parameters: a divergent round leaves the model untouched and
            // the recovery driver rolls back to the last-good checkpoint.
            self.check_watchdog(mean_client_loss, pseudo_grad_norm)?;

            // §6 client-contribution measurement: cosine alignment between
            // each client's update and the aggregate.
            if pseudo_grad_norm > 0.0 {
                for (id, update) in survivor_ids.iter().zip(&updates) {
                    let dot = photon_tensor::ops::dot(&update.delta, &avg_delta);
                    let norm = update.norm();
                    if norm > 0.0 {
                        self.telemetry
                            .record_alignment(*id, dot / (norm * pseudo_grad_norm));
                    }
                }
            }
            // L.9: apply the server optimization policy.
            {
                let _opt_span = photon_trace::span(photon_trace::Phase::ServerOpt)
                    .arg("round", self.round)
                    .arg("updates", updates.len() as u64);
                self.server_opt
                    .apply(&mut self.params, &avg_delta, self.round);
            }
            // The round's update stood: it is *committed*, not just seen.
            self.telemetry.record_committed_round(self.round);
            let blend = |ema: Option<f64>, v: f64| match ema {
                Some(e) => WATCHDOG_EMA_BETA * e + (1.0 - WATCHDOG_EMA_BETA) * v,
                None => v,
            };
            self.loss_ema = Some(blend(self.loss_ema, mean_client_loss as f64));
            self.norm_ema = Some(blend(self.norm_ema, pseudo_grad_norm as f64));
        }

        let record = RoundRecord {
            round: self.round,
            cohort: cohort_idx,
            dropouts,
            stragglers: acct.stragglers,
            retransmits: acct.retransmits,
            mean_client_loss,
            pseudo_grad_norm,
            wire_bytes: acct.wire_bytes,
            eval_ppl: None,
            guard_rejected,
            guard_clipped,
            quarantined,
            neutralized,
            joined: acct.joined,
            departed: acct.departed,
            lease_expired: acct.lease_expired,
            rejoined: acct.rejoined,
            buffered: 0,
            commit_deferred: false,
            degraded: false,
            unreachable: acct.unreachable,
            effective_deadline_ms: acct.effective_deadline_ms,
            shards: 0,
            shard_degraded: 0,
            shard_crashes: 0,
            shard_hangs: 0,
            reparented: 0,
            peak_resident: 0,
        };
        self.round += 1;
        Ok(record)
    }

    /// The hierarchical commit tail: the cohort is partitioned onto the
    /// live sub-aggregator shards (`id % shards`, with orphans of dead
    /// shards deterministically fostered), each shard folds its arrived
    /// slice through a streaming memory-bounded merge, and the shard
    /// aggregates reduce at the root through the same canonical fold —
    /// after the root guard screen and under the same degraded-quorum
    /// gate, watchdog and server-optimizer step as the flat tail.
    ///
    /// Failure domains compose per level: a `shardcrash`/`shardhang`
    /// loses only that shard's slice this round (a crash additionally
    /// kills the shard, so its clients re-parent from the next round), a
    /// shard missing its `ceil(shard_quorum_frac × slice)` quorum
    /// degrades alone, and a round where *every* slice is lost commits
    /// nothing — recorded as degraded, never a rollback.
    fn finish_hierarchy_round(
        &mut self,
        collected: Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics, u64)>,
        cohort_idx: Vec<usize>,
        acct: RoundAccounting,
    ) -> Result<RoundRecord> {
        let tree = self
            .hierarchy
            .clone()
            .expect("hierarchy tail requires a shard tree");
        let hcfg = tree.config();
        let received = collected.len();
        if acct.net_losses + acct.net_duplicates + acct.net_reorders + acct.dup_drops > 0
            || acct.unreachable > 0
        {
            self.telemetry.record_network(
                acct.net_losses,
                acct.net_duplicates,
                acct.net_reorders,
                acct.dup_drops,
                acct.unreachable as u64,
            );
        }
        self.telemetry.record_round_faults(
            acct.crashes as u64,
            acct.stragglers as u64,
            acct.retransmits,
            acct.link_dropouts as u64,
        );

        // Route the assigned cohort (not just the arrivals) onto the live
        // tree: per-shard quorum denominators come from the slice a shard
        // was responsible for, so silent losses count against it.
        let cohort_ids: Vec<u32> = cohort_idx.iter().map(|&i| i as u32).collect();
        let part = tree.partition(&cohort_ids);
        self.telemetry.record_reparented(part.reparented as u64);
        // This round's routing is already fixed; a crash takes effect on
        // the *next* partition, which every exit path below must see.
        if let Some(live_tree) = self.hierarchy.as_mut() {
            for &s in &acct.shard_crashes {
                live_tree.mark_crashed(s);
            }
        }

        // The root-level degraded gate (network reachability quorum) is
        // unchanged by the tree: a partitioned round commits nothing.
        let mut degraded_round = false;
        if let Some(net) = self.cfg.network {
            let quorum = (((cohort_idx.len() as f64) * net.min_quorum_frac).ceil() as usize).max(1);
            if received < quorum {
                degraded_round = true;
                self.degraded = true;
                self.telemetry.record_degraded_round();
                photon_trace::instant(
                    photon_trace::Phase::DegradedRound,
                    "degraded_round",
                    &[
                        ("round", self.round),
                        ("received", received as u64),
                        ("quorum", quorum as u64),
                    ],
                );
            } else if self.degraded {
                self.degraded = false;
                self.telemetry.record_degraded_recovery();
            }
        }
        if degraded_round {
            self.telemetry.record_shard_faults(
                acct.shard_crashes.len() as u64,
                acct.shard_hangs.len() as u64,
                0,
            );
            let mut losses = Vec::with_capacity(collected.len());
            for (id, _, _, metrics, _) in &collected {
                self.telemetry.record(*id, self.round, metrics);
                losses.push(metrics.mean_loss);
            }
            let mean_client_loss = if losses.is_empty() {
                0.0
            } else {
                losses.iter().sum::<f32>() / losses.len() as f32
            };
            let record = self.hierarchy_record(
                cohort_idx,
                &acct,
                &part,
                mean_client_loss,
                0.0,
                0,
                0,
                0,
                0,
                0,
                true,
            );
            self.round += 1;
            return Ok(record);
        }

        // Group arrivals by the shard they report to; arrivals with no
        // live shard to report to are lost.
        type ShardArrivals = Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics)>;
        let mut routed: std::collections::BTreeMap<u32, ShardArrivals> =
            std::collections::BTreeMap::new();
        for (id, delta, weight, metrics, _) in collected {
            if let Some(s) = tree.shard_of(id) {
                routed
                    .entry(s)
                    .or_default()
                    .push((id, delta, weight, metrics));
            }
        }

        // Per-shard streaming merges, ascending shard id so the reduce
        // replays bit-identically.
        let mut shard_ids: Vec<u32> = Vec::new();
        let mut shard_updates: Vec<ClientUpdate> = Vec::new();
        let mut shard_degraded = 0usize;
        let mut peak_resident = 0usize;
        let mut guard_rejected = 0usize;
        let mut quarantined = 0usize;
        let mut losses: Vec<f32> = Vec::new();
        for (&shard, slice) in &part.shards {
            if slice.is_empty() {
                continue;
            }
            if acct.shard_crashes.contains(&shard) || acct.shard_hangs.contains(&shard) {
                // The sub-aggregator died or stalled mid-round: its whole
                // slice is lost; siblings are unaffected.
                photon_trace::instant(
                    photon_trace::Phase::ShardDegraded,
                    "shard_degraded",
                    &[
                        ("shard", shard as u64),
                        ("round", self.round),
                        ("crash", u64::from(acct.shard_crashes.contains(&shard))),
                        ("slice", slice.len() as u64),
                    ],
                );
                continue;
            }
            let arrivals = routed.remove(&shard).unwrap_or_default();
            let quorum = hcfg.shard_quorum(slice.len());
            let mut merge_span = photon_trace::span(photon_trace::Phase::ShardMerge)
                .arg("shard", shard as u64)
                .arg("round", self.round)
                .arg("slice", slice.len() as u64)
                .arg("arrived", arrivals.len() as u64);
            // Leaf admission mirrors the flat path's arrival checks:
            // quarantined senders are skipped and a malformed weight
            // quarantines (or fails the round when unguarded). Outlier
            // screening runs at the root, over shard aggregates.
            let mut admitted: Vec<(u32, ClientUpdate, photon_comms::TrainMetrics)> = Vec::new();
            for (id, delta, weight, metrics) in arrivals {
                if self
                    .guard
                    .as_ref()
                    .is_some_and(|g| g.is_quarantined(id, self.round))
                {
                    quarantined += 1;
                    self.telemetry.record_guard(0, 0, 0, 1);
                    continue;
                }
                match ClientUpdate::new(delta, weight) {
                    Ok(update) => admitted.push((id, update, metrics)),
                    Err(e) => {
                        let Some(guard) = self.guard.as_mut() else {
                            return Err(CoreError::ClientFailure(format!("client {id}: {e}")));
                        };
                        guard.quarantine(self.round, id);
                        guard_rejected += 1;
                        self.telemetry.record_guard(1, 0, 0, 0);
                    }
                }
            }
            // Arrivals were processed in ascending client-id order, so the
            // expected key set is already strictly ascending and each push
            // folds at the frontier; out-of-order arrival permutations are
            // covered by the streaming-merge property tests.
            let expected: Vec<(u64, u32)> = admitted
                .iter()
                .map(|(id, _, _)| (self.round, *id))
                .collect();
            let mut merge = StreamingMerge::new(expected, hcfg.max_resident);
            let mut member_meta: Vec<(u32, photon_comms::TrainMetrics)> =
                Vec::with_capacity(admitted.len());
            for (id, update, metrics) in admitted {
                merge.push((self.round, id), update);
                member_meta.push((id, metrics));
            }
            peak_resident = peak_resident.max(merge.peak_resident());
            let folded = merge.folded();
            merge_span.set_arg("folded", folded as u64);
            merge_span.set_arg("peak_resident", merge.peak_resident() as u64);
            let commit = if folded >= quorum && folded > 0 {
                merge
                    .finish()
                    .and_then(|(merged, weight)| ClientUpdate::new(merged, weight).ok())
            } else {
                None
            };
            match commit {
                Some(update) => {
                    shard_ids.push(SHARD_GUARD_BASE + shard);
                    shard_updates.push(update);
                    for (id, metrics) in member_meta {
                        self.telemetry.record(id, self.round, &metrics);
                        losses.push(metrics.mean_loss);
                    }
                }
                None => {
                    // Quorum miss (or a degenerate fold): the slice is
                    // dropped without affecting the siblings.
                    shard_degraded += 1;
                    photon_trace::instant(
                        photon_trace::Phase::ShardDegraded,
                        "shard_degraded",
                        &[
                            ("shard", shard as u64),
                            ("round", self.round),
                            ("crash", 0),
                            ("slice", slice.len() as u64),
                        ],
                    );
                }
            }
        }
        self.telemetry.record_shard_faults(
            acct.shard_crashes.len() as u64,
            acct.shard_hangs.len() as u64,
            shard_degraded as u64,
        );

        let mean_client_loss = if losses.is_empty() {
            0.0
        } else {
            losses.iter().sum::<f32>() / losses.len() as f32
        };
        if shard_updates.is_empty() {
            // Every slice was lost (crashes, hangs, quorum misses, or all
            // shards dead). Committing nothing and carrying on is the
            // whole point of the tree: no rollback, no error.
            let record = self.hierarchy_record(
                cohort_idx,
                &acct,
                &part,
                mean_client_loss,
                0.0,
                guard_rejected,
                0,
                quarantined,
                shard_degraded,
                peak_resident,
                true,
            );
            self.round += 1;
            return Ok(record);
        }

        // The transport-level partial gate is unchanged: shard-level
        // drops are deliberate exclusions, not missing deliveries.
        let missing = cohort_idx.len() - received;
        if missing > 0 && (!self.cfg.allow_partial_results || received == 0) {
            return Err(CoreError::ClientFailure(format!(
                "expected {} results, got {} (enable allow_partial_results \
                 to aggregate survivors)",
                cohort_idx.len(),
                received
            )));
        }

        // The guard's full screen (finiteness, norm clipping, outlier
        // rejection) runs at the root over the shard aggregates, under
        // pseudo-ids so a repeatedly-poisoned shard earns quarantine.
        let mut guard_clipped = 0usize;
        if let Some(guard) = self.guard.as_mut() {
            let report = guard.screen_round(self.round, &shard_ids, &mut shard_updates);
            self.telemetry.record_guard(
                report.rejected_nonfinite,
                report.rejected_outliers,
                report.clipped,
                report.quarantine_skips,
            );
            guard_rejected += (report.rejected_nonfinite + report.rejected_outliers) as usize;
            guard_clipped = report.clipped as usize;
            quarantined += report.quarantine_skips as usize;
            let mut keep = report.decisions.iter().map(|d| d.admitted());
            let mut keep2 = report.decisions.iter().map(|d| d.admitted());
            shard_ids.retain(|_| keep.next().unwrap());
            shard_updates.retain(|_| keep2.next().unwrap());
        }
        if shard_updates.is_empty() {
            return Err(CoreError::ClientFailure(
                "the guard rejected every shard aggregate".into(),
            ));
        }

        let neutralized = self.neutralized.contains(&self.round);
        // The root reduce: for the weighted mean the canonical fold makes
        // the whole tree a pure re-bracketing of one summation order;
        // robust rules aggregate the shard pseudo-updates directly.
        let avg_delta = match self.cfg.aggregation {
            AggregationKind::Mean => canonical_fold(&shard_updates)
                .map(|(delta, _)| delta)
                .expect("root reduce over a non-empty shard set"),
            _ => self.cfg.aggregation.aggregate(&shard_updates),
        };
        let pseudo_grad_norm = photon_tensor::ops::l2_norm(&avg_delta);
        if !neutralized {
            self.check_watchdog(mean_client_loss, pseudo_grad_norm)?;
            {
                let _opt_span = photon_trace::span(photon_trace::Phase::ServerOpt)
                    .arg("round", self.round)
                    .arg("updates", shard_updates.len() as u64);
                self.server_opt
                    .apply(&mut self.params, &avg_delta, self.round);
            }
            self.telemetry.record_committed_round(self.round);
            let blend = |ema: Option<f64>, v: f64| match ema {
                Some(e) => WATCHDOG_EMA_BETA * e + (1.0 - WATCHDOG_EMA_BETA) * v,
                None => v,
            };
            self.loss_ema = Some(blend(self.loss_ema, mean_client_loss as f64));
            self.norm_ema = Some(blend(self.norm_ema, pseudo_grad_norm as f64));
        }

        let record = self.hierarchy_record(
            cohort_idx,
            &acct,
            &part,
            mean_client_loss,
            pseudo_grad_norm,
            guard_rejected,
            guard_clipped,
            quarantined,
            shard_degraded,
            peak_resident,
            false,
        );
        self.round += 1;
        Ok(record)
    }

    /// Assembles the [`RoundRecord`] of a hierarchical round; shared by
    /// the committed, all-slices-lost and degraded exits.
    #[allow(clippy::too_many_arguments)]
    fn hierarchy_record(
        &self,
        cohort_idx: Vec<usize>,
        acct: &RoundAccounting,
        part: &crate::hierarchy::ShardPartition,
        mean_client_loss: f32,
        pseudo_grad_norm: f32,
        guard_rejected: usize,
        guard_clipped: usize,
        quarantined: usize,
        shard_degraded: usize,
        peak_resident: usize,
        degraded: bool,
    ) -> RoundRecord {
        RoundRecord {
            round: self.round,
            cohort: cohort_idx,
            dropouts: acct.crashes + acct.link_dropouts,
            stragglers: acct.stragglers,
            retransmits: acct.retransmits,
            mean_client_loss,
            pseudo_grad_norm,
            wire_bytes: acct.wire_bytes,
            eval_ppl: None,
            guard_rejected,
            guard_clipped,
            quarantined,
            neutralized: self.neutralized.contains(&self.round),
            joined: acct.joined,
            departed: acct.departed,
            lease_expired: acct.lease_expired,
            rejoined: acct.rejoined,
            buffered: 0,
            commit_deferred: false,
            degraded,
            unreachable: acct.unreachable,
            effective_deadline_ms: acct.effective_deadline_ms,
            shards: part.shards.len(),
            shard_degraded,
            shard_crashes: acct.shard_crashes.len(),
            shard_hangs: acct.shard_hangs.len(),
            reparented: part.reparented,
            peak_resident,
        }
    }

    /// Commits one federated round from results gathered by an external
    /// transport (the `photon-net` TCP coordinator) instead of in-process
    /// client threads. `results` carries `(client_id, delta, weight,
    /// metrics)` tuples exactly as decoded from `ClientResult` frames;
    /// `cohort_ids` is the set of clients the round was assigned to, and
    /// `wire_bytes` what the transport actually moved.
    ///
    /// Re-deliveries are removed by the same `(client_id)`-keyed sort +
    /// dedup the simulated Link uses, results from clients outside the
    /// cohort are dropped, and the commit runs through the identical
    /// shared tail (guard screening, degraded-quorum gate, watchdog,
    /// robust aggregation, server optimizer) as
    /// [`Aggregator::run_round_with`] — so a retried frame can never
    /// double-apply and both backends converge identically.
    ///
    /// # Errors
    /// Same failure surface as [`Aggregator::run_round_with`]: partial
    /// results without `allow_partial_results`, an empty post-guard
    /// cohort, or a watchdog trip.
    pub fn commit_external_round(
        &mut self,
        results: Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics)>,
        cohort_ids: &[u32],
        wire_bytes: u64,
    ) -> Result<RoundRecord> {
        let round = self.round;
        let mut round_span = photon_trace::span(photon_trace::Phase::Round).arg("round", round);
        let mut collected: Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics, u64)> = results
            .into_iter()
            .filter(|(id, _, _, _)| cohort_ids.contains(id))
            .map(|(id, delta, weight, metrics)| (id, delta, weight, metrics, round))
            .collect();
        collected.sort_by_key(|(id, _, _, _, _)| *id);
        let before_dedup = collected.len();
        collected.dedup_by(|a, b| a.0 == b.0);
        let dup_drops = (before_dedup - collected.len()) as u64;
        let received = collected.len();
        round_span.set_arg("cohort", cohort_ids.len() as u64);
        round_span.set_arg("wire_bytes", wire_bytes);
        round_span.set_arg("received", received as u64);
        photon_trace::counter_add("round.wire_bytes", wire_bytes);
        photon_trace::observe("round.wire_bytes", wire_bytes);
        photon_trace::counter_add("rounds.total", 1);
        let acct = RoundAccounting {
            crashes: 0,
            stragglers: 0,
            // A cohort member that never delivered a usable result is a
            // transport dropout from the aggregator's point of view.
            link_dropouts: cohort_ids.len().saturating_sub(received),
            retransmits: 0,
            wire_bytes,
            joined: 0,
            departed: 0,
            lease_expired: 0,
            rejoined: 0,
            unreachable: 0,
            effective_deadline_ms: None,
            net_losses: 0,
            net_duplicates: 0,
            net_reorders: 0,
            dup_drops,
            shard_crashes: Vec::new(),
            shard_hangs: Vec::new(),
        };
        let cohort_idx = cohort_ids.iter().map(|&id| id as usize).collect();
        self.finish_round(collected, cohort_idx, acct)
    }

    /// The buffered (semi-synchronous) tail of a round: every arrived
    /// result is enqueued in the [`UpdateBuffer`]; a merge commits only
    /// when the pending set reaches the quorum — or when a pending update
    /// has waited longer than one lease duration, the deadline path that
    /// keeps sub-quorum runs making progress. Committed updates are
    /// staleness-discounted, guard-screened, and applied exactly like a
    /// synchronous merge.
    fn finish_buffered_round(
        &mut self,
        collected: Vec<(u32, Vec<f32>, f64, photon_comms::TrainMetrics, u64)>,
        cohort_idx: Vec<usize>,
        acct: RoundAccounting,
    ) -> Result<RoundRecord> {
        let bcfg = self
            .cfg
            .buffer
            .expect("buffered mode implies buffer config");
        let mcfg = self.cfg.membership.expect("buffering requires membership");
        // Hierarchy mode: every arrival passes through its sub-aggregator
        // shard on the way to the buffer, so shard faults drop the slice
        // at arrival time and orphans of dead shards are fostered.
        let tree = self.hierarchy.clone();
        let mut reparented = 0usize;
        let mut guard_rejected = 0usize;
        let mut dup_drops = acct.dup_drops;
        let mut arrival_losses = Vec::new();
        for (id, delta, weight, metrics, arrival_round) in collected {
            if let Some(tree) = &tree {
                match tree.shard_of(id) {
                    Some(s) if acct.shard_crashes.contains(&s) || acct.shard_hangs.contains(&s) => {
                        // The sub-aggregator died or stalled: the arrival
                        // never reaches the buffer.
                        continue;
                    }
                    Some(s) => {
                        if s != tree.home_shard(id) {
                            reparented += 1;
                        }
                    }
                    None => continue,
                }
            }
            // Weight validity is enforced at arrival (mirroring the
            // synchronous path) so a later commit cannot fail on it.
            if !(weight.is_finite() && weight > 0.0) {
                let Some(guard) = self.guard.as_mut() else {
                    return Err(CoreError::ClientFailure(format!(
                        "client {id}: aggregation weight {weight} must be positive and finite"
                    )));
                };
                guard.quarantine(self.round, id);
                guard_rejected += 1;
                self.telemetry.record_guard(1, 0, 0, 0);
                continue;
            }
            let accepted = self
                .buffer
                .as_mut()
                .expect("buffered mode implies a buffer")
                .push(BufferedUpdate {
                    client_id: id,
                    origin_round: self.round,
                    arrival_round,
                    base_weight: weight,
                    mean_loss: metrics.mean_loss,
                    delta,
                });
            if accepted {
                self.telemetry.record(id, self.round, &metrics);
                arrival_losses.push(metrics.mean_loss);
            } else {
                // A duplicating link re-delivered an already-buffered
                // client round; the copy is discarded.
                dup_drops += 1;
            }
        }
        if acct.net_losses + acct.net_duplicates + acct.net_reorders + dup_drops > 0
            || acct.unreachable > 0
        {
            self.telemetry.record_network(
                acct.net_losses,
                acct.net_duplicates,
                acct.net_reorders,
                dup_drops,
                acct.unreachable as u64,
            );
        }
        self.telemetry.record_round_faults(
            acct.crashes as u64,
            acct.stragglers as u64,
            acct.retransmits,
            acct.link_dropouts as u64,
        );
        if tree.is_some() {
            self.telemetry.record_shard_faults(
                acct.shard_crashes.len() as u64,
                acct.shard_hangs.len() as u64,
                0,
            );
            self.telemetry.record_reparented(reparented as u64);
            // A crash takes effect from the next round's routing on.
            if let Some(live_tree) = self.hierarchy.as_mut() {
                for &s in &acct.shard_crashes {
                    live_tree.mark_crashed(s);
                }
            }
        }

        let buffer = self.buffer.as_mut().expect("buffered mode has a buffer");
        let overdue = buffer.entries().iter().any(|e| {
            e.arrival_round <= self.round
                && e.staleness_at(self.round).saturating_mul(mcfg.round_ms) >= mcfg.lease_ms
        });
        let commit_ready = buffer.quorum_reached(self.round, bcfg.quorum) || overdue;

        let neutralized = self.neutralized.contains(&self.round);
        let mut guard_clipped = 0usize;
        let mut quarantined = 0usize;
        let mut mean_client_loss = if arrival_losses.is_empty() {
            0.0
        } else {
            arrival_losses.iter().sum::<f32>() / arrival_losses.len() as f32
        };
        let mut pseudo_grad_norm = 0.0f32;
        let mut peak_resident = 0usize;
        let committed;

        if let Some(tree) = &tree {
            // Streaming commit: the pending set folds through a
            // memory-bounded merge in canonical order instead of
            // materializing a sorted batch — bitwise the same aggregate.
            // The guard's per-update screen cannot run on a pre-folded
            // stream; arrival-time weight checks and the watchdog stand
            // in for it (config validation pins the aggregation to Mean).
            let commit = if commit_ready {
                buffer.commit_streaming(
                    self.round,
                    bcfg.staleness_decay,
                    tree.config().max_resident,
                )
            } else {
                None
            };
            committed = commit.is_some();
            if let Some(commit) = commit {
                peak_resident = commit.peak_resident;
                self.telemetry.record_commit(commit.stale as u64);
                pseudo_grad_norm = photon_tensor::ops::l2_norm(&commit.merged);
                mean_client_loss = commit.losses.iter().sum::<f32>() / commit.losses.len() as f32;
                if !neutralized {
                    self.check_watchdog(mean_client_loss, pseudo_grad_norm)?;
                    {
                        let _opt_span = photon_trace::span(photon_trace::Phase::ServerOpt)
                            .arg("round", self.round)
                            .arg("updates", commit.client_ids.len() as u64);
                        self.server_opt
                            .apply(&mut self.params, &commit.merged, self.round);
                    }
                    self.telemetry.record_committed_round(self.round);
                    let blend = |ema: Option<f64>, v: f64| match ema {
                        Some(e) => WATCHDOG_EMA_BETA * e + (1.0 - WATCHDOG_EMA_BETA) * v,
                        None => v,
                    };
                    self.loss_ema = Some(blend(self.loss_ema, mean_client_loss as f64));
                    self.norm_ema = Some(blend(self.norm_ema, pseudo_grad_norm as f64));
                }
            }
            let buffered = self.buffer.as_ref().map_or(0, |b| b.len());
            let record = RoundRecord {
                round: self.round,
                cohort: cohort_idx,
                dropouts: acct.crashes + acct.link_dropouts,
                stragglers: acct.stragglers,
                retransmits: acct.retransmits,
                mean_client_loss,
                pseudo_grad_norm,
                wire_bytes: acct.wire_bytes,
                eval_ppl: None,
                guard_rejected,
                guard_clipped,
                quarantined,
                neutralized,
                joined: acct.joined,
                departed: acct.departed,
                lease_expired: acct.lease_expired,
                rejoined: acct.rejoined,
                buffered,
                commit_deferred: !committed,
                degraded: false,
                unreachable: acct.unreachable,
                effective_deadline_ms: acct.effective_deadline_ms,
                shards: tree.live_count(),
                shard_degraded: 0,
                shard_crashes: acct.shard_crashes.len(),
                shard_hangs: acct.shard_hangs.len(),
                reparented,
                peak_resident,
            };
            self.round += 1;
            return Ok(record);
        }

        let batch = if commit_ready {
            buffer.commit(self.round, bcfg.staleness_decay)
        } else {
            None
        };
        committed = batch.is_some();
        if let Some(batch) = batch {
            let mut survivor_ids = batch.client_ids;
            let mut updates = batch.updates;
            let mut losses = batch.losses;
            if let Some(guard) = self.guard.as_mut() {
                let report = guard.screen_round(self.round, &survivor_ids, &mut updates);
                self.telemetry.record_guard(
                    report.rejected_nonfinite,
                    report.rejected_outliers,
                    report.clipped,
                    report.quarantine_skips,
                );
                guard_rejected += (report.rejected_nonfinite + report.rejected_outliers) as usize;
                guard_clipped = report.clipped as usize;
                quarantined = report.quarantine_skips as usize;
                let mut keep = report.decisions.iter().map(|d| d.admitted());
                let mut keep2 = report.decisions.iter().map(|d| d.admitted());
                let mut keep3 = report.decisions.iter().map(|d| d.admitted());
                survivor_ids.retain(|_| keep.next().unwrap());
                updates.retain(|_| keep2.next().unwrap());
                losses.retain(|_| keep3.next().unwrap());
            }
            if updates.is_empty() {
                return Err(CoreError::ClientFailure(
                    "the guard rejected the entire buffered commit".into(),
                ));
            }
            self.telemetry.record_commit(batch.stale as u64);
            let avg_delta = self.cfg.aggregation.aggregate(&updates);
            pseudo_grad_norm = photon_tensor::ops::l2_norm(&avg_delta);
            mean_client_loss = losses.iter().sum::<f32>() / losses.len() as f32;
            if !neutralized {
                self.check_watchdog(mean_client_loss, pseudo_grad_norm)?;
                if pseudo_grad_norm > 0.0 {
                    for (id, update) in survivor_ids.iter().zip(&updates) {
                        let dot = photon_tensor::ops::dot(&update.delta, &avg_delta);
                        let norm = update.norm();
                        if norm > 0.0 {
                            self.telemetry
                                .record_alignment(*id, dot / (norm * pseudo_grad_norm));
                        }
                    }
                }
                {
                    let _opt_span = photon_trace::span(photon_trace::Phase::ServerOpt)
                        .arg("round", self.round)
                        .arg("updates", updates.len() as u64);
                    self.server_opt
                        .apply(&mut self.params, &avg_delta, self.round);
                }
                // A buffered commit that stood counts as a committed round.
                self.telemetry.record_committed_round(self.round);
                let blend = |ema: Option<f64>, v: f64| match ema {
                    Some(e) => WATCHDOG_EMA_BETA * e + (1.0 - WATCHDOG_EMA_BETA) * v,
                    None => v,
                };
                self.loss_ema = Some(blend(self.loss_ema, mean_client_loss as f64));
                self.norm_ema = Some(blend(self.norm_ema, pseudo_grad_norm as f64));
            }
        }

        let buffered = self.buffer.as_ref().map_or(0, |b| b.len());
        let record = RoundRecord {
            round: self.round,
            cohort: cohort_idx,
            dropouts: acct.crashes + acct.link_dropouts,
            stragglers: acct.stragglers,
            retransmits: acct.retransmits,
            mean_client_loss,
            pseudo_grad_norm,
            wire_bytes: acct.wire_bytes,
            eval_ppl: None,
            guard_rejected,
            guard_clipped,
            quarantined,
            neutralized,
            joined: acct.joined,
            departed: acct.departed,
            lease_expired: acct.lease_expired,
            rejoined: acct.rejoined,
            buffered,
            commit_deferred: !committed,
            degraded: false,
            unreachable: acct.unreachable,
            effective_deadline_ms: acct.effective_deadline_ms,
            shards: 0,
            shard_degraded: 0,
            shard_crashes: 0,
            shard_hangs: 0,
            reparented: 0,
            peak_resident: 0,
        };
        self.round += 1;
        Ok(record)
    }

    /// The divergence checks run before every (non-neutralized) update
    /// application. Non-finite aggregates always fail; the EMA multiplier
    /// checks require `cfg.loss_spike_mult`.
    fn check_watchdog(&self, mean_loss: f32, pseudo_grad_norm: f32) -> Result<()> {
        let diverged = |reason: String| {
            Err(CoreError::Divergence {
                round: self.round,
                reason,
            })
        };
        if !pseudo_grad_norm.is_finite() {
            return diverged(format!("aggregate norm {pseudo_grad_norm} is not finite"));
        }
        if !mean_loss.is_finite() {
            return diverged(format!("mean client loss {mean_loss} is not finite"));
        }
        if let Some(mult) = self.cfg.loss_spike_mult {
            if let Some(ema) = self.loss_ema {
                if mean_loss as f64 > mult * ema {
                    return diverged(format!(
                        "mean client loss {mean_loss} > {mult}x EMA {ema:.4}"
                    ));
                }
            }
            if let Some(ema) = self.norm_ema {
                if pseudo_grad_norm as f64 > mult * ema {
                    return diverged(format!(
                        "pseudo-gradient norm {pseudo_grad_norm} > {mult}x EMA {ema:.4}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Per-round fault, churn and network counters threaded into the
/// buffered tail.
struct RoundAccounting {
    crashes: usize,
    stragglers: usize,
    link_dropouts: usize,
    retransmits: u64,
    wire_bytes: u64,
    joined: usize,
    departed: usize,
    lease_expired: usize,
    rejoined: usize,
    unreachable: usize,
    effective_deadline_ms: Option<u64>,
    net_losses: u64,
    net_duplicates: u64,
    net_reorders: u64,
    dup_drops: u64,
    /// Live shards scheduled to crash this round (hierarchy mode only;
    /// the slice is lost and the shard is dead from the next round on).
    shard_crashes: Vec<u32>,
    /// Live shards scheduled to hang this round (the slice is lost, the
    /// shard recovers next round).
    shard_hangs: Vec<u32>,
}

/// What one client thread reports back to the aggregator's collect loop.
/// Every outcome — including failures that used to panic the thread — is a
/// message, so the round loop can translate them into round accounting or
/// a typed [`CoreError`].
enum ClientReply {
    /// A result frame, plus the simulated turbulence to apply to it on the
    /// aggregator side of the Link.
    Frame {
        client_id: u32,
        frame: bytes::Bytes,
        /// Injected straggler delay (simulated ms).
        delay_ms: u64,
        /// How many leading transmissions arrive corrupted.
        corrupt_attempts: u32,
    },
    /// Mid-round disconnect: no result frame will come.
    Crash { client_id: u32 },
    /// The client could not run the round (e.g. the broadcast frame failed
    /// to decode); surfaced as [`CoreError::ClientFailure`].
    Error { client_id: u32, message: String },
}

impl ClientReply {
    /// The sender, for deterministic (id-ordered) reply processing.
    fn client_id(&self) -> u32 {
        match self {
            ClientReply::Frame { client_id, .. }
            | ClientReply::Crash { client_id }
            | ClientReply::Error { client_id, .. } => *client_id,
        }
    }
}

/// One client's side of a round: decode the broadcast, honour any
/// scheduled fault, train, and frame the result. Runs on the client's
/// thread; never panics.
fn client_round(
    client: &mut LlmClient,
    broadcast: bytes::Bytes,
    round: u64,
    cohort_ids: &[u32],
    cfg: &FederationConfig,
    fault: Option<ClientFault>,
) -> ClientReply {
    let client_id = client.id();
    // Each client gets its own trace lane (`tid` = 1 + id; 0 is the
    // aggregator/driver), so per-client spans never interleave.
    photon_trace::set_actor(1 + client_id);
    let params = match photon_comms::Message::from_frame(broadcast) {
        Ok(photon_comms::Message::ModelBroadcast { round: r, params }) => {
            debug_assert_eq!(r, round);
            params
        }
        Ok(other) => {
            return ClientReply::Error {
                client_id,
                message: format!("expected a model broadcast, got {other:?}"),
            }
        }
        Err(e) => {
            return ClientReply::Error {
                client_id,
                message: format!("broadcast frame corrupt: {e}"),
            }
        }
    };
    if client.fails_on(round) || fault == Some(ClientFault::Crash) {
        // Simulated mid-round disconnect: no result frame.
        return ClientReply::Crash { client_id };
    }
    let mut outcome = {
        let mut step_span = photon_trace::span(photon_trace::Phase::LocalStep)
            .arg("client", client_id as u64)
            .arg("round", round);
        let outcome = match client.run_round(&params, round, cohort_ids, cfg) {
            Ok(outcome) => outcome,
            Err(e) => {
                return ClientReply::Error {
                    client_id,
                    message: e.to_string(),
                }
            }
        };
        step_span.set_arg("tokens", outcome.metrics.tokens);
        step_span.set_arg("steps", outcome.metrics.steps);
        photon_trace::counter_add("client.steps", outcome.metrics.steps);
        photon_trace::counter_add("client.tokens", outcome.metrics.tokens);
        outcome
    };
    // Byzantine faults poison the result AFTER honest local training, so
    // the client's own state stays on the deterministic trajectory and
    // only the reported delta is adversarial.
    match fault {
        Some(ClientFault::NanUpdate) => outcome.delta.fill(f32::NAN),
        Some(ClientFault::SignFlip) => {
            for v in &mut outcome.delta {
                *v = -*v;
            }
        }
        Some(ClientFault::Scale { factor }) => {
            for v in &mut outcome.delta {
                *v = (*v as f64 * factor) as f32;
            }
        }
        _ => {}
    }
    let frame = photon_comms::Message::ClientResult {
        round,
        client_id,
        delta: outcome.delta,
        weight: outcome.weight,
        metrics: outcome.metrics,
    }
    .to_frame_opts(cfg.wire_opts());
    let (delay_ms, corrupt_attempts) = match fault {
        Some(ClientFault::Straggle { delay_ms }) => (delay_ms, 0),
        Some(ClientFault::Corrupt { attempts }) => (0, attempts),
        _ => (0, 0),
    };
    ClientReply::Frame {
        client_id,
        frame,
        delay_ms,
        corrupt_attempts,
    }
}

/// Seed for the Link-layer bit flips of one client's result this round:
/// pure in `(seed, round, client)` so replays corrupt the same bits.
fn mix_link_seed(seed: u64, round: u64, client: u32) -> u64 {
    seed ^ round
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((client as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .rotate_left(23)
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
    pub fn run_round_with(&mut self, injector: Option<&FaultInjector>) -> Result<RoundRecord> {
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

/// Builds exactly one client's local state — data shard plus training RNG
/// — without constructing the rest of the federation. This is what a
/// `photon client` OS process calls at startup: founding members
/// (`id < cfg.population`) replay [`build_federation`]'s seed-split
/// sequence so the standalone client is bit-identical to its in-process
/// twin, and joiners (`id >= cfg.population`) use the warm-join
/// derivation, which is already keyed by id alone.
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
    let mut rng = SeedStream::new(cfg.seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = rng.split("data");
    let domain = SyntheticDomain::preset(DomainKind::Web, &mut data_rng);
    let corpus = TokenCorpus::from_domain(
        &domain,
        &tokenizer,
        tokens_per_client * cfg.population,
        &mut data_rng,
    );
    let block = (cfg.model.seq_len + 1).max(32);
    let shards = partition_iid(&corpus, cfg.population, block, &mut data_rng);
    // `rng.split` advances shared state, so earlier siblings' splits must
    // be replayed in order for client `id` to receive the same stream it
    // gets in `build_federation`.
    let mut client_rng = None;
    for i in 0..=(id as usize) {
        let r = rng.split(&format!("client-{i}"));
        if i == id as usize {
            client_rng = Some(r);
        }
    }
    let shard = shards
        .into_iter()
        .nth(id as usize)
        .expect("partition_iid returns population shards");
    Ok(LlmClient::new(
        id,
        DataSource::new(format!("ds-{id}"), shard),
        None,
        client_rng.expect("loop covers id"),
    ))
}

/// Builds a federation over IID shards of a synthetic web corpus — the
/// C4-style setup of §5.1 ("randomly partitioning the dataset uniformly
/// into equally sized shards").
///
/// # Errors
/// Returns an error if the configuration is invalid.
pub fn build_federation(cfg: &FederationConfig, tokens_per_client: usize) -> Result<Federation> {
    cfg.validate()?;
    let mut rng = SeedStream::new(cfg.seed);
    let tokenizer = ByteTokenizer::new();
    let mut data_rng = rng.split("data");
    let domain = SyntheticDomain::preset(DomainKind::Web, &mut data_rng);
    let corpus = TokenCorpus::from_domain(
        &domain,
        &tokenizer,
        tokens_per_client * cfg.population,
        &mut data_rng,
    );
    let block = (cfg.model.seq_len + 1).max(32);
    let shards = partition_iid(&corpus, cfg.population, block, &mut data_rng);
    let clients = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            LlmClient::new(
                i as u32,
                DataSource::new(format!("ds-{i}"), shard),
                None,
                rng.split(&format!("client-{i}")),
            )
        })
        .collect();
    Ok(Federation {
        aggregator: Aggregator::new(cfg.clone())?,
        clients,
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

    fn quick_cfg(n: usize) -> FederationConfig {
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
    fn restore_validates_length() {
        let cfg = quick_cfg(2);
        let mut agg = Aggregator::new(cfg).unwrap();
        assert!(agg.restore(3, vec![0.0; 5]).is_err());
        let n = agg.params().len();
        agg.restore(3, vec![0.0; n]).unwrap();
        assert_eq!(agg.round(), 3);
    }
}
