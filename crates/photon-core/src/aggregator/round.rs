//! The round engine: one federated round (Algorithm 1, L.4–11) as five
//! stages over plain data.
//!
//! ```text
//! plan ──► transport ──► collect ──► merge ──► commit
//! ```
//!
//! * **plan** applies membership churn, draws the cohort and the round's
//!   scheduled faults, and fixes the straggler deadline ([`RoundPlan`]).
//! * **transport** encodes the model once as the round's broadcast frame,
//!   into a buffer kept from round to round, and lends it to a
//!   [`Transport`], which returns the cohort's replies,
//!   each result received: CRC-checked and decoded. It is the only stage
//!   that differs between the simulator and a real network: [`Lanes`]
//!   train the in-process clients on at most `pool::max_threads()` scoped
//!   lane threads, which own the core budget for the round, and carry
//!   each result across the simulated Link on the lane that trained it
//!   ([`SimLink`]), decoding it into an update buffer kept from earlier
//!   rounds; `photon-net`'s TCP transport moves the same frames over
//!   sockets and decodes them on its reader threads, into update buffers
//!   kept the same way. Both run [`client_round`] on the client side.
//! * **collect** takes the replies in client-id order, accounts for and
//!   traces each simulated delivery, applies the straggler policy and
//!   removes re-deliveries, whichever transport delivered them
//!   ([`Arrival`], [`RoundAccounting`]).
//! * **merge** turns the arrivals into either one aggregate or a "commit
//!   nothing" outcome ([`Merged`]) by the same four steps in flat, shard
//!   tree, buffered and buffered-over-tree rounds: admission (one pass
//!   over the sorted arrivals), shard folds (synchronous trees; a
//!   buffered round enqueues and drains the buffer's batch instead), one
//!   guard screen and one aggregation rule.
//! * **commit** alone runs the watchdog, applies the server optimizer,
//!   records the round's telemetry, builds the [`RoundRecord`] and
//!   advances the round counter.
//!
//! Every update vector the round is done with — folded, rejected,
//! contributed — goes back to the transport ([`Transport::recycle`]),
//! which decodes the next round's results into it; the aggregate and the
//! broadcast frame stay with the [`Aggregator`], which writes the next
//! round's into them. The two model-sized passes the coordinator makes
//! itself — the `Mean` rule, and the aggregate's norm with the §6
//! alignment in **commit** — run on the compute pool, with the bits of
//! the serial passes.

#![deny(clippy::too_many_lines)]

use super::Aggregator;
use crate::faults::{ClientFault, FaultEvent, FaultPlan};
use crate::hierarchy::{ShardPartition, ShardTree};
use crate::membership::ChurnEvents;
use crate::{CohortSpec, CoreError, FederationConfig, LlmClient, Result, RoundRecord, Workspace};
use parking_lot::Mutex;
use photon_comms::{DeliveryReport, Message, PartitionKind, SealedFrame, TrainMetrics, WireError};
use photon_fedopt::{sample_live, AggregationKind, BufferedUpdate, ClientUpdate, CommitBatch};
use photon_tensor::ops::pool;
use std::collections::BTreeMap;

/// EMA blend for the watchdog's loss/norm trackers: history-weighted
/// enough to ignore single-round noise, fresh enough to track the loss
/// curve's natural decay.
const WATCHDOG_EMA_BETA: f64 = 0.7;

/// Pseudo-client id base for shard aggregates entering the root guard
/// screen: high enough that no real client id collides, so a shard that
/// repeatedly emits poisoned aggregates earns its own quarantine sentence.
const SHARD_GUARD_BASE: u32 = 0x8000_0000;

/// Delivery latencies the adaptive deadline keeps: its percentile is taken
/// over the last this many observations.
const LATENCY_WINDOW: usize = 128;

/// What the plan stage fixes before any traffic moves.
#[derive(Default)]
struct RoundPlan {
    /// The sampled cohort as indices into the provisioned client vector.
    cohort_idx: Vec<usize>,
    /// The sampled clients' ids, parallel to `cohort_idx` (a client's id
    /// is its roster index): what the transport addresses.
    cohort_ids: Vec<u32>,
    /// This round's membership changes (empty without a registry).
    churn: ChurnEvents,
    /// Hello/LeaseGrant bytes of this round's (re)joins.
    handshake_bytes: u64,
    /// Cohort members fully severed by an active partition: they are
    /// not charged a broadcast.
    severed_full: usize,
    /// The straggler deadline in force; `None` waits for every result.
    effective_deadline_ms: Option<u64>,
    /// Live shards scheduled to crash this round: the slice is lost and
    /// the shard is dead from the next round on.
    shard_crashes: Vec<u32>,
    /// Live shards scheduled to hang this round: the slice is lost, the
    /// shard recovers next round.
    shard_hangs: Vec<u32>,
}

/// One client result that reached the aggregator, decoded and
/// deduplicated.
struct Arrival {
    client_id: u32,
    delta: Vec<f32>,
    weight: f64,
    metrics: TrainMetrics,
    /// The simulated round the result lands in: later than the current
    /// one only for a straggler that a buffered round defers instead of
    /// dropping.
    arrival_round: u64,
}

impl Arrival {
    /// The decoded result `message`, landing in `arrival_round`.
    fn of(message: Message, arrival_round: u64) -> Result<Arrival> {
        match message {
            Message::ClientResult {
                client_id,
                delta,
                weight,
                metrics,
                ..
            } => Ok(Arrival {
                client_id,
                delta,
                weight,
                metrics,
                arrival_round,
            }),
            other => Err(CoreError::ClientFailure(format!(
                "unexpected message from client: {other:?}"
            ))),
        }
    }
}

/// Per-round transport and network counters, filled by the collect stage.
#[derive(Default)]
struct RoundAccounting {
    crashes: usize,
    stragglers: usize,
    link_dropouts: usize,
    retransmits: u64,
    wire_bytes: u64,
    unreachable: usize,
    net_duplicates: u64,
    dup_drops: u64,
}

/// Clients a round heard from, with the metrics they reported.
type Seen = Vec<(u32, TrainMetrics)>;

/// What the merge stage hands the commit stage.
struct Merged {
    /// The aggregate to apply. `None` commits nothing: a degraded round,
    /// a tree round that lost every slice, or a deferred buffered commit.
    aggregate: Option<Aggregate>,
    /// Clients whose round metrics enter the telemetry.
    seen: Seen,
    mean_client_loss: f32,
    tally: MergeTally,
}

/// The round's aggregated pseudo-gradient, ready for the server optimizer.
struct Aggregate {
    delta: Vec<f32>,
    /// How many updates were folded into `delta`.
    folded: usize,
    /// The per-client updates behind `delta`, for the §6 alignment
    /// measurement; empty when the rule reduced shard aggregates.
    contributors: Vec<(u32, ClientUpdate)>,
}

/// The mode-specific half of the round's record.
#[derive(Default)]
struct MergeTally {
    guard_rejected: usize,
    guard_clipped: usize,
    quarantined: usize,
    buffered: usize,
    commit_deferred: bool,
    degraded: bool,
    /// Stale updates in this round's buffered commit, if one happened.
    stale_commit: Option<u64>,
    shards: usize,
    shard_degraded: usize,
    reparented: usize,
    peak_resident: usize,
}

/// One live shard's part of a synchronous tree round, between the pooled
/// fold and the trace events it stands for.
struct ShardFold {
    shard: u32,
    /// Cohort members routed to the shard.
    slice: usize,
    /// Whether the shard crashed (`Some(true)`) or hung (`Some(false)`)
    /// this round, losing its slice.
    lost: Option<bool>,
    /// The admitted members' updates, ascending client id.
    members: Vec<ClientUpdate>,
    seen: Seen,
    /// The buffer the members' weighted mean is written into; `None` when
    /// the shard misses its quorum or its total weight is degenerate.
    mean: Option<Vec<f32>>,
    /// The members' total weight.
    weight: f64,
}

/// An arrival that passed admission.
struct Admitted {
    client_id: u32,
    /// The live shard the client reports to, on a tree.
    shard: Option<u32>,
    update: ClientUpdate,
    metrics: TrainMetrics,
    arrival_round: u64,
}

/// Updates waiting for the guard screen and the aggregation rule.
#[derive(Default)]
struct Candidates {
    /// Guard identities, parallel to `updates`: client ids, or shard
    /// pseudo-ids where the updates are shard aggregates.
    ids: Vec<u32>,
    updates: Vec<ClientUpdate>,
    /// The reported losses behind the updates, which steer the watchdog:
    /// parallel to client updates, every member's behind shard
    /// aggregates.
    losses: Vec<f32>,
}

impl Merged {
    /// A round that commits nothing but still reports who it heard from.
    fn nothing(seen: Seen, tally: MergeTally) -> Self {
        Merged {
            aggregate: None,
            mean_client_loss: mean(seen.iter().map(|(_, m)| m.mean_loss)),
            seen,
            tally,
        }
    }
}

/// Mean of the reported losses in iteration order; `0.0` when there are
/// none.
fn mean(losses: impl ExactSizeIterator<Item = f32>) -> f32 {
    let n = losses.len();
    if n == 0 {
        0.0
    } else {
        losses.sum::<f32>() / n as f32
    }
}

/// Keeps the elements of `items` whose slot in `keep` is set.
fn retain_mask<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut keep = keep.iter();
    items.retain(|_| *keep.next().expect("mask covers the vector"));
}

/// Update vectors a round is done with, on their way back to the
/// transport.
type Spent = Vec<Vec<f32>>;

/// Sorts arrivals by client id — so float accumulation is bit-reproducible
/// whatever order the transport delivered in — and removes re-deliveries:
/// within a round each client legitimately appears once, so id-adjacent
/// equals are exactly a duplicating link's (or a retrying client's)
/// copies, and must never double-apply. Returns how many were dropped.
fn dedup_arrivals(arrivals: &mut Vec<Arrival>) -> u64 {
    arrivals.sort_by_key(|a| a.client_id);
    let before = arrivals.len();
    arrivals.dedup_by(|a, b| a.client_id == b.client_id);
    (before - arrivals.len()) as u64
}

/// Marks a shard slice dropped this round (crash, hang or quorum miss).
fn note_shard_degraded(shard: u32, round: u64, crash: bool, slice: usize) {
    photon_trace::instant(
        photon_trace::Phase::ShardDegraded,
        "shard_degraded",
        &[
            ("shard", shard as u64),
            ("round", round),
            ("crash", u64::from(crash)),
            ("slice", slice as u64),
        ],
    );
}

impl Aggregator {
    /// Executes one federated round (Algorithm 1, L.4–11): samples the
    /// cohort, broadcasts the model as a Link frame, runs the sampled
    /// clients on client lanes, decodes result frames, aggregates and
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
        injector: Option<&FaultPlan>,
    ) -> Result<RoundRecord> {
        self.run_round_on_lanes(clients, injector, pool::max_threads())
    }

    /// [`Aggregator::run_round_with`] on at most `max_lanes` client lanes
    /// in place of one per core. The lane count is scheduling only; this
    /// entry exists for the test that holds every round output equal
    /// across lane counts.
    #[doc(hidden)]
    pub fn run_round_on_lanes(
        &mut self,
        clients: &mut [LlmClient],
        injector: Option<&FaultPlan>,
        max_lanes: usize,
    ) -> Result<RoundRecord> {
        // The lanes' workspaces and update buffers leave the aggregator
        // for the round and come back after it, whatever the round came to.
        let mut workspaces = std::mem::take(&mut self.workspaces);
        let mut spares = std::mem::take(&mut self.spares);
        let mut lanes = Lanes {
            clients,
            max_lanes,
            workspaces: &mut workspaces,
            spares: &mut spares,
            cohort: 0,
        };
        let record = self.run_round_over(&mut lanes, injector);
        self.workspaces = workspaces;
        self.spares = spares;
        record
    }

    /// One federated round (Algorithm 1, L.4–11) whose cohort `transport`
    /// reaches: the simulator's client lanes or a real network. Everything
    /// but stage 2 is this engine's, whichever it is.
    ///
    /// # Errors
    /// As [`Aggregator::run_round_with`], plus whatever the transport
    /// reports.
    pub(crate) fn run_round_over(
        &mut self,
        transport: &mut dyn Transport,
        injector: Option<&FaultPlan>,
    ) -> Result<RoundRecord> {
        // Observability: freeze the simulated clock at the round start so
        // every event this round emits carries the same replayable
        // timestamp, then open the round's root span on the driver lane.
        let round_ms = self.round_ms();
        if photon_trace::enabled() {
            photon_trace::set_sim_time_us(photon_comms::SimClock::new(round_ms).now_us(self.round));
            photon_trace::set_actor(0);
        }
        let mut round_span =
            photon_trace::span(photon_trace::Phase::Round).arg("round", self.round);
        round_span.set_sim_dur_us(round_ms.saturating_mul(1_000));

        let plan = self.plan(transport.roster_len(), injector)?;
        let (replies, broadcast_bytes) = self.transport(&plan, transport, injector)?;
        let (arrivals, acct) = self.collect(&plan, replies, broadcast_bytes)?;
        round_span.set_arg("cohort", plan.cohort_idx.len() as u64);
        round_span.set_arg("wire_bytes", acct.wire_bytes);
        round_span.set_arg("received", arrivals.len() as u64);
        let mut spent = Spent::new();
        let record = self
            .merge(&plan, arrivals, &acct, &mut spent)
            .and_then(|merged| self.commit(plan, acct, merged, &mut spent));
        transport.recycle(spent);
        record
    }

    /// Simulated wall time of one round.
    fn round_ms(&self) -> u64 {
        self.cfg.membership.map_or(1_000, |m| m.round_ms)
    }

    // ---------------------------------------------------------------
    // Stage 1: plan
    // ---------------------------------------------------------------

    /// Applies this round's churn, draws the cohort from a roster of
    /// `roster_len` clients and the scheduled shard faults, and fixes the
    /// straggler deadline.
    fn plan(&mut self, roster_len: usize, injector: Option<&FaultPlan>) -> Result<RoundPlan> {
        let mut plan = if self.membership.is_some() {
            self.plan_elastic_cohort(injector)?
        } else {
            RoundPlan {
                cohort_idx: self.sampler.sample(roster_len, self.round),
                ..RoundPlan::default()
            }
        };
        if plan.cohort_idx.is_empty() {
            return Err(CoreError::InvalidConfig("empty cohort".into()));
        }
        if let Some(&max) = plan.cohort_idx.iter().max() {
            if max >= roster_len {
                return Err(CoreError::InvalidConfig(format!(
                    "cohort references client {max} but only {roster_len} are provisioned \
                     (call Federation::sync_roster after membership churn)"
                )));
            }
        }
        plan.cohort_ids = plan.cohort_idx.iter().map(|&i| i as u32).collect();

        // Active partitions: fully severed clients exchange no traffic this
        // round (no broadcast charged, result dropped); asymmetrically
        // severed ones hear the broadcast but lose the result on the way
        // back.
        plan.severed_full = injector.map_or(0, |inj| {
            plan.cohort_ids
                .iter()
                .filter(|&&id| inj.partition_state(self.round, id) == Some(PartitionKind::Full))
                .count()
        });

        // The straggler deadline this round: adaptive (a percentile of the
        // observed latency window) when configured, the static knob
        // otherwise — and lifted entirely while the aggregator is degraded,
        // so a healing partition's late results are not re-dropped.
        plan.effective_deadline_ms = if self.degraded {
            None
        } else if let Some(ad) = self.cfg.adaptive_deadline {
            Some(ad.effective_deadline_ms(&self.latency_obs))
        } else {
            self.cfg.round_deadline_ms
        };

        // Shard faults are drawn from the salted fault-plan columns for
        // the shards still alive this round (a dead shard cannot crash or
        // hang again).
        if let (Some(tree), Some(inj)) = (&self.hierarchy, injector) {
            let live = tree.live_shards();
            plan.shard_crashes = live
                .iter()
                .copied()
                .filter(|&s| inj.has(FaultEvent::ShardCrash, self.round, s))
                .collect();
            plan.shard_hangs = live
                .iter()
                .copied()
                .filter(|&s| inj.has(FaultEvent::ShardHang, self.round, s))
                .collect();
        }
        Ok(plan)
    }

    /// Elastic membership: applies this round's churn (joins, leaves,
    /// lease renewals and expiries), charges the (re)join handshakes, and
    /// draws the cohort from the live roster instead of the static
    /// population.
    fn plan_elastic_cohort(&mut self, injector: Option<&FaultPlan>) -> Result<RoundPlan> {
        let reg = self
            .membership
            .as_mut()
            .expect("elastic planning requires a membership registry");
        let churn = reg.begin_round(self.round, injector);
        self.telemetry.count(|f| {
            f.joins += churn.joined.len() as u64;
            f.leaves += churn.departed.len() as u64;
            f.lease_expiries += churn.expired.len() as u64;
            f.rejoins += churn.rejoined.len() as u64;
        });
        // Every (re)join runs the Hello/LeaseGrant handshake over the
        // Link; the frames count toward the round's wire traffic.
        let mcfg = reg.config();
        let expires_ms = mcfg.clock().now_ms(self.round) + mcfg.lease_ms;
        let mut handshake_bytes = 0u64;
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
        // The sampler indexes the registry's own roster; nothing is copied.
        let fallback;
        let mut universe = reg.live_roster();
        if universe.is_empty() {
            // Every lease lapsed at once: fall back to all reachable
            // members rather than stalling the run.
            fallback = reg.reachable_members();
            universe = &fallback;
        }
        // A client admitted this round spends it on the Hello/LeaseGrant
        // handshake and model transfer; it becomes sampleable from the
        // next round (which also gives the driver a chance to provision
        // its client-side state). Joiners take the largest ids, so they
        // are the roster's tail.
        if let Some(&first) = churn.joined.first() {
            universe = &universe[..universe.partition_point(|&id| id < first)];
        }
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
        let cohort_idx = sample_live(universe, k, rng, self.round)
            .into_iter()
            .map(|id| id as usize)
            .collect();
        Ok(RoundPlan {
            cohort_idx,
            churn,
            handshake_bytes,
            ..RoundPlan::default()
        })
    }

    // ---------------------------------------------------------------
    // Stage 2: transport
    // ---------------------------------------------------------------

    /// L.5–6: encodes the model once as the round's broadcast frame, into
    /// the frame buffer kept from the last round, and lends it to
    /// `transport` for the cohort. Returns the cohort's replies plus the
    /// broadcast bytes charged.
    fn transport(
        &mut self,
        plan: &RoundPlan,
        transport: &mut dyn Transport,
        injector: Option<&FaultPlan>,
    ) -> Result<(Vec<ClientReply>, u64)> {
        let cohort = plan.cohort_idx.len();
        let (broadcast, frame_bytes) = {
            let mut bspan =
                photon_trace::span(photon_trace::Phase::Broadcast).arg("cohort", cohort as u64);
            let buffer = std::mem::take(&mut self.broadcast);
            let opts = self.cfg.wire_opts();
            let frame = SealedFrame::broadcast(buffer, self.round, &self.params, opts);
            let frame_bytes = frame.frame().len() as u64;
            bspan.set_arg("frame_bytes", frame_bytes);
            (frame, frame_bytes)
        };
        let broadcast_bytes = frame_bytes * (cohort - plan.severed_full) as u64;
        let replies = transport.exchange(Exchange {
            round: self.round,
            broadcast: &broadcast,
            cohort: &plan.cohort_ids,
            cfg: &self.cfg,
            faults: injector,
        })?;
        self.broadcast = broadcast.into_buffer();
        Ok((replies, broadcast_bytes))
    }

    // ---------------------------------------------------------------
    // Stage 3: collect
    // ---------------------------------------------------------------

    /// L.7: takes the replies in client-id order, accounts for and traces
    /// every simulated delivery, applies the straggler policy and removes
    /// re-deliveries. A result's receive (CRC check and decode) already
    /// ran in the transport; its decode error surfaces here, by id.
    fn collect(
        &mut self,
        plan: &RoundPlan,
        mut replies: Vec<ClientReply>,
        broadcast_bytes: u64,
    ) -> Result<(Vec<Arrival>, RoundAccounting)> {
        let mut acct = RoundAccounting {
            wire_bytes: broadcast_bytes + plan.handshake_bytes,
            ..RoundAccounting::default()
        };
        // Replies come back in completion order; handle them in client-id
        // order so the simulated Link's trace events and the latency
        // window replay in a deterministic sequence.
        replies.sort_by_key(ClientReply::client_id);
        let mut arrivals = Vec::with_capacity(plan.cohort_idx.len());
        let mut round_latencies: Vec<u64> = Vec::new();
        for reply in replies {
            let (client_id, message, frame_len, link) = match reply {
                ClientReply::Crash { .. } => {
                    acct.crashes += 1;
                    continue;
                }
                ClientReply::Error { client_id, message } => {
                    return Err(CoreError::ClientFailure(format!(
                        "client {client_id}: {message}"
                    )));
                }
                ClientReply::Lost { client_id, link } => {
                    self.note_delivery(client_id, &link, &mut acct);
                    if link.severed.is_none() {
                        // Budget (or delivery timeout) exhausted: the
                        // client counts as dropped out.
                        acct.link_dropouts += 1;
                    }
                    continue;
                }
                ClientReply::Received {
                    client_id,
                    message,
                    frame_len,
                    link,
                } => (client_id, message, frame_len, link),
            };
            let mut arrival_round = self.round;
            let mut duplicates = 0;
            match link {
                // A real socket charges the one copy it read and is never
                // late: its transport enforces the deadline.
                None => acct.wire_bytes += frame_len,
                Some(link) => {
                    self.note_delivery(client_id, &link, &mut acct);
                    if self.cfg.network.is_some() {
                        self.telemetry.record_link_latency(link.lateness);
                    }
                    round_latencies.push(link.lateness);
                    // Straggler policy: synchronous rounds drop late
                    // results; buffered rounds defer them to the simulated
                    // round their lateness lands them in, where they commit
                    // with a staleness discount instead.
                    if let Some(deadline) = plan.effective_deadline_ms {
                        if link.lateness > deadline {
                            acct.stragglers += 1;
                            if self.buffer.is_none() {
                                continue;
                            }
                            arrival_round =
                                self.round + 1 + (link.lateness - deadline) / self.round_ms();
                        }
                    }
                    duplicates = u64::from(link.duplicates);
                }
            }
            arrivals.push(Arrival::of(message?, arrival_round)?);
            // A duplicating link re-delivers the result: each copy is
            // charged to the wire and dropped, as dedup drops a socket's.
            acct.wire_bytes += duplicates * frame_len;
            acct.dup_drops += duplicates;
        }
        acct.dup_drops += dedup_arrivals(&mut arrivals);

        // Feed the adaptive-deadline window (bounded, deterministic: the
        // replies were processed in client-id order).
        if self.cfg.adaptive_deadline.is_some() {
            self.latency_obs.extend(&round_latencies);
            if self.latency_obs.len() > LATENCY_WINDOW {
                let excess = self.latency_obs.len() - LATENCY_WINDOW;
                self.latency_obs.drain(..excess);
            }
        }
        Ok((arrivals, acct))
    }

    /// Accounts for one result's trip across the simulated Link and
    /// traces it on the round's own thread: a `net_partition` instant
    /// when a partition severed the client, else the delivery's
    /// `link_deliver` span and retransmit instants.
    fn note_delivery(&self, client_id: u32, link: &SimDelivery, acct: &mut RoundAccounting) {
        if let Some(kind) = link.severed {
            acct.unreachable += 1;
            photon_trace::instant(
                photon_trace::Phase::NetPartition,
                "net_partition",
                &[
                    ("client", client_id as u64),
                    ("full", u64::from(kind == PartitionKind::Full)),
                ],
            );
            return;
        }
        acct.net_duplicates += u64::from(link.duplicates);
        photon_comms::trace_delivery(&link.report);
        acct.wire_bytes += link.report.wire_bytes;
        acct.retransmits += u64::from(link.report.attempts.saturating_sub(1));
    }

    // ---------------------------------------------------------------
    // Stage 4: merge
    // ---------------------------------------------------------------

    /// L.8: turns the round's arrivals into one aggregate, or decides the
    /// round commits nothing. Flat, shard-tree, buffered and
    /// buffered-over-tree rounds run the same four steps:
    ///
    /// 1. **admission** ([`Aggregator::admit`]) — one pass over the sorted
    ///    arrivals;
    /// 2. **shard folds** ([`Aggregator::fold_shards`]) — a synchronous
    ///    tree folds each shard's slice; a buffered round instead
    ///    enqueues the admitted updates and, once due, drains the
    ///    buffer's commit batch ([`Aggregator::enqueue`]);
    /// 3. **screen** — one guard screen over what step 2 produced;
    /// 4. **reduce** — one call to the aggregation rule.
    ///
    /// A synchronous round is gated by the degraded quorum before
    /// admission and by the partial-results policy after the screen.
    /// Update vectors the merge is done with go to `spent`.
    fn merge(
        &mut self,
        plan: &RoundPlan,
        arrivals: Vec<Arrival>,
        acct: &RoundAccounting,
        spent: &mut Spent,
    ) -> Result<Merged> {
        // This round routes over the tree as it stood when the round
        // began; a crash takes effect from the next round's routing on,
        // whichever way this round exits.
        let tree = self.hierarchy.clone();
        if let Some(live_tree) = self.hierarchy.as_mut() {
            for &s in &plan.shard_crashes {
                live_tree.mark_crashed(s);
            }
        }
        // Route the assigned cohort (not just the arrivals) onto the tree:
        // per-shard quorum denominators come from the slice a shard was
        // responsible for, so silent losses count against it.
        let routed = tree.map(|tree| {
            let ids: Vec<u32> = plan.cohort_idx.iter().map(|&i| i as u32).collect();
            let part = tree.partition(&ids);
            (tree, part)
        });
        let mut tally = MergeTally::default();
        if let Some((_, part)) = &routed {
            tally.shards = part.shards.len();
            tally.reparented = part.reparented;
        }
        let buffered = self.buffer.is_some();
        let (cohort, received) = (plan.cohort_idx.len(), arrivals.len());
        if !buffered {
            self.record_network(acct, acct.dup_drops);
            if self.below_reachability_quorum(cohort, received) {
                tally.degraded = true;
                let seen = arrivals.iter().map(|a| (a.client_id, a.metrics)).collect();
                spent.extend(arrivals.into_iter().map(|a| a.delta));
                return Ok(Merged::nothing(seen, tally));
            }
        }

        let tree = routed.as_ref().map(|(t, _)| t);
        let (admitted, arrived) = self.admit(plan, tree, arrivals, &mut tally, spent)?;
        // The updates fold into shard aggregates before the screen only
        // in a synchronous tree round.
        let shard_folds = routed.as_ref().filter(|_| !buffered);
        let (mut cand, mut seen) = if buffered {
            let (seen, batch) = self.enqueue(admitted, acct, &mut tally);
            let Some(batch) = batch else {
                tally.commit_deferred = true;
                return Ok(Merged::nothing(seen, tally));
            };
            tally.stale_commit = Some(batch.stale as u64);
            let cand = Candidates {
                ids: batch.client_ids,
                updates: batch.updates,
                losses: batch.losses,
            };
            (cand, seen)
        } else if let Some((tree, part)) = shard_folds {
            let (cand, seen) =
                self.fold_shards(plan, tree, part, admitted, &arrived, &mut tally, spent);
            if cand.updates.is_empty() {
                // Every slice was lost (crashes, hangs, quorum misses, or
                // all shards dead). Committing nothing and carrying on is
                // the whole point of the tree: no rollback, no error.
                tally.degraded = true;
                return Ok(Merged::nothing(seen, tally));
            }
            (cand, seen)
        } else {
            let seen = admitted.iter().map(|a| (a.client_id, a.metrics)).collect();
            let mut cand = Candidates::default();
            for a in admitted {
                cand.ids.push(a.client_id);
                cand.updates.push(a.update);
                cand.losses.push(a.metrics.mean_loss);
            }
            (cand, seen)
        };

        // Where the screen sees client updates, a rejected update takes
        // its client's loss with it — a poisoned loss must not steer the
        // watchdog — and, in a synchronous round, its metrics. Shard
        // aggregates stand for members admitted one by one.
        let keep = self.screen(&mut cand.ids, &mut cand.updates, &mut tally, spent);
        if shard_folds.is_none() {
            retain_mask(&mut cand.losses, &keep);
            if !buffered {
                retain_mask(&mut seen, &keep);
            }
        }

        // §4: only the partial-update path may proceed with survivors.
        // Guard rejections and shard-level drops are deliberate
        // exclusions, not transport failures: the gate only counts
        // clients that never delivered a usable frame. A buffered commit
        // is whatever reached the quorum.
        if !buffered && received < cohort && (!self.cfg.allow_partial_results || received == 0) {
            return Err(CoreError::ClientFailure(format!(
                "expected {cohort} results, got {received} (enable allow_partial_results \
                 to aggregate survivors)"
            )));
        }
        if cand.updates.is_empty() {
            return Err(CoreError::ClientFailure(
                match (buffered, shard_folds) {
                    (true, _) => "the guard rejected the entire buffered commit",
                    (false, Some(_)) => "the guard rejected every shard aggregate",
                    (false, None) => "the guard rejected the entire cohort",
                }
                .into(),
            ));
        }

        let mut delta = std::mem::take(&mut self.aggregate);
        {
            let rule = self.cfg.aggregation;
            let _merge_span = photon_trace::span(photon_trace::Phase::RobustMerge)
                .named(rule.rule_name())
                .arg("updates", cand.updates.len() as u64)
                .arg("params", cand.updates[0].delta.len() as u64);
            rule.aggregate_into(&cand.updates, &mut delta);
        }
        let folded = cand.updates.len();
        let contributors = match shard_folds {
            Some(_) => {
                // The shard aggregates' buffers take the next round's.
                let means = cand.updates.into_iter().map(|u| u.delta);
                self.shard_means.extend(means);
                Vec::new()
            }
            None => cand.ids.into_iter().zip(cand.updates).collect(),
        };
        Ok(Merged {
            aggregate: Some(Aggregate {
                delta,
                folded,
                contributors,
            }),
            mean_client_loss: mean(cand.losses.iter().copied()),
            seen,
            tally,
        })
    }

    /// Accumulates the round's network chaos into the telemetry.
    fn record_network(&self, acct: &RoundAccounting, dup_drops: u64) {
        self.telemetry.count(|f| {
            f.link_duplicates += acct.net_duplicates;
            f.dup_drops += dup_drops;
            f.partition_drops += acct.unreachable as u64;
        });
    }

    /// The degraded-quorum gate. When an active partition (or mass
    /// retransmit exhaustion) leaves the round below the reachability
    /// quorum, committing the minority slice would skew the model toward
    /// whoever stayed connected: the round records its telemetry but
    /// commits nothing.
    /// The deadline stays lifted until a round reaches quorum again, at
    /// which point the aggregator recovers automatically. Runs before
    /// anything touches the guard.
    fn below_reachability_quorum(&mut self, cohort: usize, received: usize) -> bool {
        let Some(net) = self.cfg.network else {
            return false;
        };
        let quorum = (((cohort as f64) * net.min_quorum_frac).ceil() as usize).max(1);
        if received >= quorum {
            if self.degraded {
                self.degraded = false;
                self.telemetry.count(|f| f.degraded_recoveries += 1);
            }
            return false;
        }
        self.degraded = true;
        self.telemetry.count(|f| f.degraded_rounds += 1);
        photon_trace::instant(
            photon_trace::Phase::DegradedRound,
            "degraded_round",
            &[
                ("round", self.round),
                ("received", received as u64),
                ("quorum", quorum as u64),
            ],
        );
        true
    }

    /// Admission: the one pass every round makes over its arrivals, in
    /// ascending client id.
    ///
    /// * On a tree an arrival reports to its client's live shard, and is
    ///   lost with it when that shard crashed or hung this round (or no
    ///   shard is left).
    /// * Where the update folds into a shard aggregate before the screen
    ///   can see it (a synchronous tree), a client serving a quarantine
    ///   sentence is skipped here; everywhere else the screen skips it.
    /// * A malformed aggregation weight fails the round, or quarantines
    ///   the sender in a guarded run, so no later step can fail on it.
    ///
    /// Returns the admitted updates and how many arrivals reached each
    /// shard; what it turns away goes to `spent`.
    fn admit(
        &mut self,
        plan: &RoundPlan,
        tree: Option<&ShardTree>,
        arrivals: Vec<Arrival>,
        tally: &mut MergeTally,
        spent: &mut Spent,
    ) -> Result<(Vec<Admitted>, BTreeMap<u32, usize>)> {
        let skip_quarantined = tree.is_some() && self.buffer.is_none();
        let mut admitted = Vec::with_capacity(arrivals.len());
        let mut arrived = BTreeMap::new();
        for a in arrivals {
            let shard = match tree.map(|tree| tree.shard_of(a.client_id)) {
                None => None,
                Some(Some(s))
                    if !plan.shard_crashes.contains(&s) && !plan.shard_hangs.contains(&s) =>
                {
                    *arrived.entry(s).or_insert(0) += 1;
                    Some(s)
                }
                Some(_) => {
                    spent.push(a.delta);
                    continue;
                }
            };
            let quarantined = skip_quarantined
                && self
                    .guard
                    .as_ref()
                    .is_some_and(|g| g.is_quarantined(a.client_id, self.round));
            if quarantined {
                tally.quarantined += 1;
                self.telemetry.count(|f| f.quarantine_skips += 1);
                spent.push(a.delta);
                continue;
            }
            let update = match ClientUpdate::new(a.delta, a.weight) {
                Ok(update) => update,
                Err(e) => {
                    let Some(guard) = self.guard.as_mut() else {
                        return Err(CoreError::ClientFailure(format!(
                            "client {}: {e}",
                            a.client_id
                        )));
                    };
                    guard.quarantine(self.round, a.client_id);
                    tally.guard_rejected += 1;
                    self.telemetry.count(|f| f.rejected_nonfinite += 1);
                    continue;
                }
            };
            admitted.push(Admitted {
                client_id: a.client_id,
                shard,
                update,
                metrics: a.metrics,
                arrival_round: a.arrival_round,
            });
        }
        Ok((admitted, arrived))
    }

    /// Shard folds: every live shard folds what admission routed to it
    /// into its aggregate, the weighted mean of its members, ascending
    /// shard id so the root reduce replays bit-identically. The candidates
    /// are the shard aggregates, under pseudo-ids so a repeatedly-poisoned
    /// shard earns its own quarantine at the root screen, with every
    /// member's loss; `Seen` is the members.
    ///
    /// Admission hands each shard its members in ascending client id, the
    /// order a [`photon_fedopt::StreamingMerge`] over them folds in at its
    /// frontier without holding any back, so each aggregate is the one
    /// mean over the members in that order (`AggregationKind::Mean`).
    /// The shards fold as pool tasks, one contiguous range of shards per
    /// chunk, each into a buffer kept from earlier rounds; the trace
    /// events the folds stand for are emitted afterwards, shard by shard,
    /// in the order a serial fold emits them.
    ///
    /// Failure domains compose per level: a `shardcrash`/`shardhang`
    /// loses only that shard's slice this round, and a shard that folds
    /// less than its `ceil(shard_quorum_frac × slice)` quorum (or folds to
    /// a degenerate weight) degrades alone. The folded vectors go to
    /// `spent`.
    #[allow(clippy::too_many_arguments)]
    fn fold_shards(
        &mut self,
        plan: &RoundPlan,
        tree: &ShardTree,
        part: &ShardPartition,
        admitted: Vec<Admitted>,
        arrived: &BTreeMap<u32, usize>,
        tally: &mut MergeTally,
        spent: &mut Spent,
    ) -> (Candidates, Seen) {
        let hcfg = tree.config();
        let mut by_shard: BTreeMap<u32, Vec<Admitted>> = BTreeMap::new();
        for a in admitted {
            let shard = a.shard.expect("tree admission routes every update");
            by_shard.entry(shard).or_default().push(a);
        }
        let mut folds: Vec<ShardFold> = Vec::with_capacity(part.shards.len());
        for (&shard, slice) in part.shards.iter().filter(|(_, slice)| !slice.is_empty()) {
            let crashed = plan.shard_crashes.contains(&shard);
            let lost = (crashed || plan.shard_hangs.contains(&shard)).then_some(crashed);
            let (members, seen): (Vec<ClientUpdate>, Seen) = by_shard
                .remove(&shard)
                .unwrap_or_default()
                .into_iter()
                .map(|a| (a.update, (a.client_id, a.metrics)))
                .unzip();
            // The total weight, summed in member order as the mean sums it.
            let weight = members.iter().fold(0.0, |sum, u| sum + u.weight);
            let quorate = !members.is_empty()
                && members.len() >= hcfg.shard_quorum(slice.len())
                && weight.is_finite()
                && weight > 0.0;
            let mean = quorate.then(|| self.shard_means.pop().unwrap_or_default());
            folds.push(ShardFold {
                shard,
                slice: slice.len(),
                lost,
                members,
                seen,
                mean,
                weight,
            });
        }
        let ranges = pool::chunk_ranges(folds.len(), pool::effective_parallelism());
        let tasks = pool::split_rows(&mut folds, 1, &ranges)
            .into_iter()
            .map(|chunk| {
                Box::new(move || {
                    for fold in chunk {
                        if let Some(mean) = fold.mean.as_mut() {
                            AggregationKind::Mean.aggregate_into(&fold.members, mean);
                        }
                    }
                }) as pool::Task
            })
            .collect();
        pool::run_tasks(tasks);

        let (mut cand, mut seen) = (Candidates::default(), Seen::new());
        for fold in folds {
            let (shard, slice) = (fold.shard, fold.slice);
            if let Some(crashed) = fold.lost {
                // The sub-aggregator died or stalled mid-round: its whole
                // slice is lost; siblings are unaffected.
                note_shard_degraded(shard, self.round, crashed, slice);
                continue;
            }
            // Every member folded at the frontier: one vector resident.
            tally.peak_resident = 1;
            let _merge_span = photon_trace::span(photon_trace::Phase::ShardMerge)
                .arg("shard", shard as u64)
                .arg("round", self.round)
                .arg("slice", slice as u64)
                .arg("arrived", arrived.get(&shard).copied().unwrap_or(0) as u64);
            spent.extend(fold.members.into_iter().map(|u| u.delta));
            let Some(delta) = fold.mean else {
                tally.shard_degraded += 1;
                note_shard_degraded(shard, self.round, false, slice);
                continue;
            };
            cand.ids.push(SHARD_GUARD_BASE + shard);
            cand.updates.push(ClientUpdate {
                delta,
                weight: fold.weight,
            });
            cand.losses
                .extend(fold.seen.iter().map(|(_, m)| m.mean_loss));
            seen.extend(fold.seen);
        }
        (cand, seen)
    }

    /// A buffered round's second step: the admitted updates join the
    /// buffer (a re-delivered client round is dropped) and, once the
    /// pending set reaches the quorum — or a pending update has waited
    /// longer than one lease duration, the deadline path that keeps
    /// sub-quorum runs making progress — the buffer drains its commit
    /// batch: every pending update, staleness-discounted, in canonical
    /// `(origin_round, client_id)` order. Returns the clients heard from
    /// this round and the batch, if one is due.
    fn enqueue(
        &mut self,
        admitted: Vec<Admitted>,
        acct: &RoundAccounting,
        tally: &mut MergeTally,
    ) -> (Seen, Option<CommitBatch>) {
        let bcfg = self
            .cfg
            .buffer
            .expect("a buffered merge has a buffer config");
        let mcfg = self.cfg.membership.expect("buffering requires membership");
        let round = self.round;
        let buffer = self.buffer.as_mut().expect("a buffered merge has a buffer");
        let mut dup_drops = acct.dup_drops;
        let mut seen = Vec::new();
        for a in admitted {
            let fresh = buffer.push(BufferedUpdate {
                client_id: a.client_id,
                origin_round: round,
                arrival_round: a.arrival_round,
                base_weight: a.update.weight,
                mean_loss: a.metrics.mean_loss,
                delta: a.update.delta,
            });
            if fresh {
                seen.push((a.client_id, a.metrics));
            } else {
                dup_drops += 1;
            }
        }
        let overdue = buffer.entries().iter().any(|e| {
            e.arrival_round <= round
                && e.staleness_at(round).saturating_mul(mcfg.round_ms) >= mcfg.lease_ms
        });
        let batch = if buffer.quorum_reached(round, bcfg.quorum) || overdue {
            buffer.commit(round, bcfg.staleness_decay)
        } else {
            None
        };
        tally.buffered = buffer.len();
        self.record_network(acct, dup_drops);
        (seen, batch)
    }

    /// The guard screen every merge shares. Drops the rejected entries
    /// of `ids` and `updates` (clipped deltas are rescaled in place; a
    /// rejected one goes to `spent`) and returns the admission mask for
    /// the caller's own parallel vectors. Unguarded runs admit everything.
    fn screen(
        &mut self,
        ids: &mut Vec<u32>,
        updates: &mut Vec<ClientUpdate>,
        tally: &mut MergeTally,
        spent: &mut Spent,
    ) -> Vec<bool> {
        let Some(guard) = self.guard.as_mut() else {
            return vec![true; ids.len()];
        };
        let report = guard.screen_round(self.round, ids, updates);
        self.telemetry.count(|f| {
            f.rejected_nonfinite += report.rejected_nonfinite;
            f.rejected_outliers += report.rejected_outliers;
            f.norm_clipped += report.clipped;
            f.quarantine_skips += report.quarantine_skips;
        });
        tally.guard_rejected += (report.rejected_nonfinite + report.rejected_outliers) as usize;
        tally.guard_clipped += report.clipped as usize;
        tally.quarantined += report.quarantine_skips as usize;
        let keep: Vec<bool> = report.decisions.iter().map(|d| d.admitted()).collect();
        retain_mask(ids, &keep);
        let mut admitted = keep.iter();
        updates.retain_mut(|update| {
            let admitted = *admitted.next().expect("mask covers the vector");
            if !admitted {
                spent.push(std::mem::take(&mut update.delta));
            }
            admitted
        });
        keep
    }

    // ---------------------------------------------------------------
    // Stage 5: commit
    // ---------------------------------------------------------------

    /// L.9–11, and the one place a round advances: records the round's
    /// telemetry, runs the watchdog, applies the server optimizer, builds
    /// the record and bumps the round counter. The aggregate and the
    /// updates behind it go to `spent`.
    fn commit(
        &mut self,
        plan: RoundPlan,
        acct: RoundAccounting,
        merged: Merged,
        spent: &mut Spent,
    ) -> Result<RoundRecord> {
        let Merged {
            aggregate,
            seen,
            mean_client_loss,
            tally,
        } = merged;
        // Round telemetry is recorded once, here, after every gate in the
        // merge stage that can fail the round: a round that returns an
        // error and is replayed by the recovery driver counts its faults
        // once.
        self.telemetry.count(|f| {
            f.crashes += acct.crashes as u64;
            f.stragglers += acct.stragglers as u64;
            f.retransmits += acct.retransmits;
            f.link_dropouts += acct.link_dropouts as u64;
            f.shard_crashes += plan.shard_crashes.len() as u64;
            f.shard_hangs += plan.shard_hangs.len() as u64;
            f.shard_degraded += tally.shard_degraded as u64;
            f.reparented += tally.reparented as u64;
            if let Some(stale) = tally.stale_commit {
                f.buffered_commits += 1;
                f.stale_commits += stale;
            }
        });
        if self.hierarchy.is_some() {
            self.publish_tree();
            self.telemetry.hierarchy(|view| {
                view.peak_resident = tally.peak_resident;
                view.reparented_clients = tally.reparented;
            });
        }
        self.telemetry.record_round(self.round, &seen);

        // A neutralized round runs (keeping client state deterministic)
        // but skips the update application and the watchdog.
        let neutralized = self.neutralized.contains(&self.round);
        // The aggregate's norm, and for the §6 measurement each
        // contributor's dot product with it and own norm, spread over the
        // pool.
        let (pseudo_grad_norm, alignment) = aggregate.as_ref().map_or_else(
            || (0.0, Vec::new()),
            |agg| {
                let deltas: Vec<&[f32]> = agg
                    .contributors
                    .iter()
                    .filter(|_| !neutralized)
                    .map(|(_, update)| update.delta.as_slice())
                    .collect();
                photon_fedopt::alignment(&agg.delta, &deltas)
            },
        );
        if let Some(agg) = aggregate.as_ref().filter(|_| !neutralized) {
            // Loss-spike watchdog, BEFORE the server optimizer touches the
            // parameters: a divergent round leaves the model untouched and
            // the recovery driver rolls back to the last-good checkpoint.
            self.check_watchdog(mean_client_loss, pseudo_grad_norm)?;

            // §6 client-contribution measurement: cosine alignment between
            // each client's update and the aggregate.
            if pseudo_grad_norm > 0.0 {
                for ((id, _), &(dot, norm)) in agg.contributors.iter().zip(&alignment) {
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
                    .arg("updates", agg.folded as u64);
                self.server_opt
                    .apply(&mut self.params, &agg.delta, self.round);
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
        if let Some(agg) = aggregate {
            spent.extend(agg.contributors.into_iter().map(|(_, update)| update.delta));
            self.aggregate = agg.delta;
        }

        let record = RoundRecord {
            round: self.round,
            cohort: plan.cohort_idx,
            dropouts: acct.crashes + acct.link_dropouts,
            stragglers: acct.stragglers,
            retransmits: acct.retransmits,
            mean_client_loss,
            pseudo_grad_norm,
            wire_bytes: acct.wire_bytes,
            guard_rejected: tally.guard_rejected,
            guard_clipped: tally.guard_clipped,
            quarantined: tally.quarantined,
            neutralized,
            joined: plan.churn.joined.len(),
            departed: plan.churn.departed.len(),
            lease_expired: plan.churn.expired.len(),
            rejoined: plan.churn.rejoined.len(),
            buffered: tally.buffered,
            commit_deferred: tally.commit_deferred,
            degraded: tally.degraded,
            unreachable: acct.unreachable,
            effective_deadline_ms: plan.effective_deadline_ms,
            shards: tally.shards,
            shard_degraded: tally.shard_degraded,
            shard_crashes: plan.shard_crashes.len(),
            shard_hangs: plan.shard_hangs.len(),
            reparented: tally.reparented,
            peak_resident: tally.peak_resident,
            // `eval_ppl` is the driver's to fill in.
            ..RoundRecord::default()
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

/// Runs `work` over `items` on one scoped thread per lane, the lanes
/// claiming items from one queue, each under an equal share of the
/// caller's execution width ([`pool::Context::lanes`]) and with its own
/// `lanes` entry for every item it runs. Returns the results in no
/// particular order, or `None` when a lane panicked. Every lane is joined
/// either way, and the surviving lanes drain the queue, so no item runs
/// twice and none is left unrun behind a lane that died. The results land
/// in one vector sized for every item, so what the call allocates does
/// not depend on how the lanes happened to share the items.
fn on_lanes<T: Send, W: Send, R: Send>(
    items: Vec<T>,
    lanes: &mut [W],
    work: impl Fn(&mut W, T) -> R + Sync,
) -> Option<Vec<R>> {
    let ctx = pool::Context::current().lanes(lanes.len());
    let done = Mutex::new(Vec::with_capacity(items.len()));
    let queue = Mutex::new(items.into_iter());
    #[cfg(test)]
    crate::thread_census::note_spawned(lanes.len());
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let (ctx, queue, done, work) = (&ctx, &queue, &done, &work);
                scope.spawn(move || {
                    ctx.enter(|| {
                        // The locks cover the claim and the hand-in only,
                        // never the work.
                        let claim = || queue.lock().next();
                        while let Some(item) = claim() {
                            let result = work(lane, item);
                            done.lock().push(result);
                        }
                    })
                })
            })
            .collect();
        // Join every lane before looking at any outcome: a scoped thread
        // that panicked and was never joined would panic the scope itself.
        let joined: Vec<bool> = handles
            .into_iter()
            .map(|lane| lane.join().is_ok())
            .collect();
        joined.into_iter().all(|ok| ok)
    });
    joined.then(|| done.into_inner())
}

/// Stage 2 of a round, the one part that differs between the simulator
/// and a real network: put the round's broadcast frame in front of the
/// cohort and hand back what the cohort replied. The simulator's client
/// lanes implement it over in-process clients, `photon-net` over sockets;
/// the plan before it and collect → merge → commit after it are the same
/// engine code for both.
pub trait Transport {
    /// Clients the roster addresses: the population the cohort is drawn
    /// from.
    fn roster_len(&self) -> usize;

    /// Delivers the broadcast to the cohort and returns the replies in any
    /// order, re-deliveries included: the collect stage sorts them by
    /// client id and drops the copies. A member with nothing to show for
    /// the round is a [`ClientReply::Crash`].
    ///
    /// # Errors
    /// When the transport cannot run the round at all.
    fn exchange(&mut self, x: Exchange<'_>) -> Result<Vec<ClientReply>>;

    /// Called by the training driver once round `round` has committed and,
    /// when the run keeps checkpoints, its checkpoint has landed: a network
    /// transport acks the round's results here, so acks follow durability.
    /// Returning `false` ends the run after this round.
    fn committed(&mut self, _round: u64) -> bool {
        true
    }

    /// Takes back the update vectors the round is done with — folded,
    /// rejected or contributed — whether or not it committed. The
    /// simulator's lanes and `photon-net`'s TCP transport both keep up to
    /// one cohort of them and decode the next round's results into them;
    /// the default, for a transport that decodes into fresh vectors,
    /// drops them.
    fn recycle(&mut self, _spent: Vec<Vec<f32>>) {}
}

/// What the transport stage hands a [`Transport`].
pub struct Exchange<'a> {
    /// The round being run.
    pub round: u64,
    /// The round's model, encoded once for the whole cohort. A transport
    /// that keeps it past the exchange keeps a clone, and the round then
    /// encodes its next broadcast into a fresh buffer.
    pub broadcast: &'a SealedFrame,
    /// The sampled cohort's client ids.
    pub cohort: &'a [u32],
    /// The run configuration.
    pub cfg: &'a FederationConfig,
    /// The run's fault schedule, if any.
    pub faults: Option<&'a FaultPlan>,
}

/// What [`client_round`] came to on the client's side: what a transport
/// sends, never what it hands the engine.
pub enum ClientRoundOutcome {
    /// The sealed result, plus the turbulence a simulated Link applies to
    /// it on the way.
    Sealed {
        /// The sealed `ClientResult`.
        frame: SealedFrame,
        /// Injected straggler delay (simulated ms).
        delay_ms: u64,
        /// How many leading transmissions arrive corrupted.
        corrupt_attempts: u32,
    },
    /// A scheduled mid-round crash: no result.
    Crash,
    /// The client could not run the round (e.g. the broadcast frame failed
    /// to decode).
    Error {
        /// What went wrong.
        message: String,
    },
}

/// What one cohort member's round came to, as a [`Transport`] hands it to
/// the engine. Every outcome — including failures that used to panic the
/// thread — is a value, so the round can translate it into accounting or
/// a typed [`CoreError`].
pub enum ClientReply {
    /// A result the receiving end CRC-checked and decoded once: a socket's
    /// reader thread, or a simulator lane running the simulated Link.
    Received {
        /// The sender.
        client_id: u32,
        /// The decoded `ClientResult`, or why its verified frame did not
        /// decode.
        message: std::result::Result<Message, WireError>,
        /// Bytes one copy of the frame took on the wire.
        frame_len: u64,
        /// What the simulated Link did on the way; `None` for a real
        /// socket, which charges the one copy it read and is never late.
        link: Option<SimDelivery>,
    },
    /// A simulated result the Link never delivered: an active partition
    /// severed its client, or every allowed attempt failed.
    Lost {
        /// The sender.
        client_id: u32,
        /// What the simulated Link did to it.
        link: SimDelivery,
    },
    /// No result this round: a mid-round disconnect, or a member whose
    /// result missed the transport's deadline.
    Crash {
        /// The silent member.
        client_id: u32,
    },
    /// The client could not run the round (e.g. the broadcast frame failed
    /// to decode); surfaced as [`CoreError::ClientFailure`].
    Error {
        /// The failed member.
        client_id: u32,
        /// What went wrong.
        message: String,
    },
}

impl ClientReply {
    /// The sender, for deterministic (id-ordered) reply processing.
    fn client_id(&self) -> u32 {
        match self {
            ClientReply::Received { client_id, .. }
            | ClientReply::Lost { client_id, .. }
            | ClientReply::Crash { client_id }
            | ClientReply::Error { client_id, .. } => *client_id,
        }
    }
}

/// The simulator's transport: the cohort's in-process clients, trained on
/// `min(cohort, max_lanes)` scoped lane threads that claim clients from one
/// queue. The lanes divide the caller's execution width and keep its chunk
/// count ([`pool::Context::lanes`]), so with a lane per core every kernel
/// runs inline on its lane and the result does not depend on the lane
/// count.
///
/// Each lane trains its clients, one after another, in a [`Workspace`] of
/// its own that outlives the round: the lanes, not the registered
/// clients, hold the training buffers, so there are `min(cohort, cores)`
/// of them however many clients are registered.
///
/// A lane is also its clients' receiving end: it carries each sealed
/// result across the [`SimLink`] and decodes it into an update buffer
/// taken from `spares`, which [`Transport::recycle`] refills with what the
/// round is done with — at most one cohort's worth — so a warm round
/// decodes its cohort without touching the allocator.
struct Lanes<'a> {
    clients: &'a mut [LlmClient],
    max_lanes: usize,
    workspaces: &'a mut Vec<Workspace>,
    spares: &'a mut Spares,
    /// This round's cohort size: how many spares are worth keeping.
    cohort: usize,
}

/// Update vectors kept from round to round for the simulator's lanes to
/// decode results into (never checkpointed: a decode replaces whatever a
/// buffer held).
#[derive(Default)]
pub(super) struct Spares {
    buffers: Vec<Vec<f32>>,
    /// Test hook: before every round, each member gets a spare, every
    /// spare is NaN-filled and two in three are given a wrong length, so
    /// a decode that reads a buffer before storing all of it changes the
    /// run.
    #[cfg(test)]
    pub(super) poison: bool,
}

impl Spares {
    /// One buffer per cohort member, recycled ones first.
    fn take(&mut self, members: usize) -> Vec<Vec<f32>> {
        #[cfg(test)]
        if self.poison {
            self.buffers.resize_with(members, Vec::new);
            for (i, buffer) in self.buffers.iter_mut().enumerate() {
                let len = match i % 3 {
                    0 => buffer.len(),
                    1 => buffer.len() / 2,
                    _ => buffer.len() + 5,
                };
                buffer.clear();
                buffer.resize(len, f32::NAN);
            }
        }
        let mut taken = self
            .buffers
            .split_off(self.buffers.len().saturating_sub(members));
        taken.resize_with(members, Vec::new);
        taken
    }
}

impl Transport for Lanes<'_> {
    fn roster_len(&self) -> usize {
        self.clients.len()
    }

    fn exchange(&mut self, x: Exchange<'_>) -> Result<Vec<ClientReply>> {
        let Exchange {
            round,
            broadcast,
            cohort,
            cfg,
            faults,
        } = x;
        // One frame, verified and decoded once for the whole cohort. The
        // clients train from the *decoded frame*, never the aggregator's
        // floats: bf16 storage and the link codec round on the wire.
        let global = decode_broadcast(broadcast.frame(), round);
        let global = global.as_deref().map_err(String::as_str);

        // The cohort's clients, picked out of the roster by ascending
        // index: O(cohort) however many clients are provisioned.
        let mut cohort_sorted: Vec<usize> = cohort.iter().map(|&id| id as usize).collect();
        cohort_sorted.sort_unstable();
        cohort_sorted.dedup();
        let mut roster = self.clients.iter_mut();
        let mut next = 0;
        let members: Vec<&mut LlmClient> = cohort_sorted
            .iter()
            .map(|&i| {
                let client = roster
                    .nth(i - next)
                    .expect("cohort index within the roster");
                next = i + 1;
                client
            })
            .collect();

        let lanes = members.len().min(self.max_lanes);
        if self.workspaces.len() < lanes {
            self.workspaces.resize_with(lanes, Workspace::new);
        }
        self.cohort = members.len();
        let buffers = self.spares.take(members.len());
        let link = SimLink::new(round, cfg, faults);
        let replies = on_lanes(
            members.into_iter().zip(buffers).collect(),
            &mut self.workspaces[..lanes],
            |workspace, (client, buffer)| {
                let client_id = client.id();
                let fault = faults.and_then(|inj| inj.client_fault(round, client_id));
                let outcome = client_round(client, workspace, global, round, cohort, cfg, fault);
                link.receive(client_id, outcome, buffer)
            },
        );
        replies.ok_or_else(|| CoreError::ClientFailure("a client thread panicked".into()))
    }

    fn recycle(&mut self, spent: Vec<Vec<f32>>) {
        let keep = self.cohort.saturating_sub(self.spares.buffers.len());
        self.spares.buffers.extend(spent.into_iter().take(keep));
    }
}

/// What the simulated Link did to one result frame, as the lane that
/// carried it measured it: what the collect stage accounts for and
/// traces, on the round's own thread, in client-id order.
#[derive(Clone, Copy, Default)]
pub struct SimDelivery {
    /// The active partition that severed the client: nothing was sent.
    severed: Option<PartitionKind>,
    /// The retransmit loop's attempts, wire bytes, backoff and in-flight
    /// time.
    report: DeliveryReport,
    /// Extra copies a duplicating link delivered.
    duplicates: u32,
    /// Simulated milliseconds between the round start and the arrival.
    lateness: u64,
}

/// The simulated Link a result crosses on its way to the aggregator. Its
/// every input — the fault plan, the chaos network, the retransmit policy
/// — is pure in `(seed, round, client)`, so the lane that runs it does
/// not change what it does.
struct SimLink<'a> {
    round: u64,
    cfg: &'a FederationConfig,
    faults: Option<&'a FaultPlan>,
    network: Option<photon_comms::NetworkModel>,
}

impl<'a> SimLink<'a> {
    fn new(round: u64, cfg: &'a FederationConfig, faults: Option<&'a FaultPlan>) -> Self {
        let network = cfg
            .network
            .map(|n| photon_comms::NetworkModel::new(n.profile, cfg.seed));
        SimLink {
            round,
            cfg,
            faults,
            network,
        }
    }

    /// Receives client `client_id`'s sealed result: an active partition
    /// severs it, the chaos network and the fault plan decide latency and
    /// duplication, CRC-failed attempts are retransmitted
    /// (deterministically) up to the budget, and the frame that verified
    /// is decoded into `buffer`. A crash or error passes through.
    fn receive(
        &self,
        client_id: u32,
        outcome: ClientRoundOutcome,
        buffer: Vec<f32>,
    ) -> ClientReply {
        let (frame, delay_ms, corrupt_attempts) = match outcome {
            ClientRoundOutcome::Sealed {
                frame,
                delay_ms,
                corrupt_attempts,
            } => (frame, delay_ms, corrupt_attempts),
            ClientRoundOutcome::Crash => return ClientReply::Crash { client_id },
            ClientRoundOutcome::Error { message } => {
                return ClientReply::Error { client_id, message }
            }
        };
        let (round, faults) = (self.round, self.faults);
        // A severed client's result never reaches the aggregator (it
        // still trained, keeping its local state deterministic across the
        // heal).
        if let Some(kind) = faults.and_then(|inj| inj.partition_state(round, client_id)) {
            let link = SimDelivery {
                severed: Some(kind),
                ..SimDelivery::default()
            };
            return ClientReply::Lost { client_id, link };
        }
        let frame = frame.frame();
        // The chaos network decides what the link does to this delivery;
        // the fault plan can pin the link slow on top.
        let outcome = self
            .network
            .as_ref()
            .map(|net| net.link_outcome(round, client_id, frame.len()))
            .unwrap_or_default();
        let mut latency_ms = outcome.latency_ms;
        if faults.is_some_and(|inj| inj.has(FaultEvent::SlowLink, round, client_id)) {
            let factor = self.cfg.network.map_or(10, |n| n.slow_factor);
            latency_ms = latency_ms.saturating_mul(factor).max(1_000);
        }
        let (delivered, report) = photon_comms::deliver_untraced(
            &frame,
            corrupt_attempts,
            latency_ms,
            mix_link_seed(self.cfg.seed, round, client_id),
            &self.cfg.retransmit,
        );
        let link = SimDelivery {
            severed: None,
            report,
            duplicates: outcome.duplicates,
            // Simulated lateness is the injected delay plus the delivery's
            // in-flight time and retry backoff.
            lateness: delay_ms + report.backoff_ms + report.latency_ms,
        };
        match delivered {
            Err(_) => ClientReply::Lost { client_id, link },
            // The retransmit loop verified this frame's CRC; the decode
            // does not walk the payload again.
            Ok(verified) => ClientReply::Received {
                client_id,
                message: Message::from_verified_frame_into(verified, || buffer).map(|(m, _)| m),
                frame_len: frame.len() as u64,
                link: Some(link),
            },
        }
    }
}

/// Verifies and decodes the round's broadcast frame into the parameters
/// the cohort trains from, or the message every client reports when it
/// cannot be.
fn decode_broadcast(frame: bytes::Bytes, round: u64) -> std::result::Result<Vec<f32>, String> {
    match photon_comms::Message::from_frame(frame) {
        Ok(photon_comms::Message::ModelBroadcast { round: r, params }) => {
            debug_assert_eq!(r, round);
            Ok(params)
        }
        Ok(other) => Err(format!("expected a model broadcast, got {other:?}")),
        Err(e) => Err(format!("broadcast frame corrupt: {e}")),
    }
}

/// One client's side of a round, the same on every transport: take the
/// decoded broadcast, honour any scheduled fault, train in `workspace`,
/// and seal the result from the delta where it was formed. The simulator
/// runs it on a client lane, `photon client` on every broadcast it
/// receives, so a Byzantine fault means the same thing on both.
pub fn client_round(
    client: &mut LlmClient,
    workspace: &mut Workspace,
    global: std::result::Result<&[f32], &str>,
    round: u64,
    cohort_ids: &[u32],
    cfg: &FederationConfig,
    fault: Option<ClientFault>,
) -> ClientRoundOutcome {
    let client_id = client.id();
    // Each client gets its own trace lane (`tid` = 1 + id; 0 is the
    // aggregator/driver) whichever thread runs it, so per-client spans
    // never interleave.
    photon_trace::set_actor(1 + client_id);
    let params = match global {
        Ok(params) => params,
        Err(message) => {
            return ClientRoundOutcome::Error {
                message: message.to_owned(),
            }
        }
    };
    if fault == Some(ClientFault::Crash) {
        // Simulated mid-round disconnect: no result frame.
        return ClientRoundOutcome::Crash;
    }
    // The delta lives in the workspace: take the frame it is sealed into
    // out first.
    let frame_buffer = workspace.take_result_frame();
    let update = {
        let mut step_span = photon_trace::span(photon_trace::Phase::LocalStep)
            .arg("client", client_id as u64)
            .arg("round", round);
        let update = match client.run_round_in(workspace, params, round, cohort_ids, cfg) {
            Ok(update) => update,
            Err(e) => {
                return ClientRoundOutcome::Error {
                    message: e.to_string(),
                }
            }
        };
        step_span.set_arg("tokens", update.metrics.tokens);
        step_span.set_arg("steps", update.metrics.steps);
        update
    };
    // Byzantine faults poison the result AFTER honest local training, so
    // the client's own state stays on the deterministic trajectory and
    // only the reported delta is adversarial.
    let delta = update.delta;
    match fault {
        Some(ClientFault::NanUpdate) => delta.fill(f32::NAN),
        Some(ClientFault::SignFlip) => {
            for v in delta.iter_mut() {
                *v = -*v;
            }
        }
        Some(ClientFault::Scale { factor }) => {
            for v in delta.iter_mut() {
                *v = (*v as f64 * factor) as f32;
            }
        }
        _ => {}
    }
    let frame = SealedFrame::result(
        frame_buffer,
        round,
        client_id,
        delta,
        update.weight,
        update.metrics,
        cfg.wire_opts(),
    );
    let (delay_ms, corrupt_attempts) = match fault {
        Some(ClientFault::Straggle { delay_ms }) => (delay_ms, 0),
        Some(ClientFault::Corrupt { attempts }) => (0, attempts),
        _ => (0, 0),
    };
    ClientRoundOutcome::Sealed {
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

#[cfg(test)]
mod tests {
    use super::{on_lanes, ClientReply, Exchange, Spares, Transport};
    use crate::aggregator::tests::quick_cfg;
    use crate::hierarchy::HierarchyConfig;
    use crate::thread_census::spawned;
    use crate::Aggregator;
    use crate::{
        build_federation, CohortSpec, CoreError, DataSource, FaultCounters, FaultPlan, FaultSpec,
        Federation, FederationConfig, LlmClient, RoundRecord, Workspace,
    };
    use photon_cluster::TrainingStrategy;
    use photon_comms::Message;
    use photon_comms::TrainMetrics;
    use photon_tensor::ops::pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_lane_that_panics_is_joined_and_the_others_finish_the_queue() {
        let runs: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let work = |(): &mut (), i: usize| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            assert!(i != 3, "item 3 fails");
            i * 10
        };
        assert_eq!(on_lanes((0..8).collect(), &mut [(); 2], work), None);
        let counts: Vec<usize> = runs.iter().map(|r| r.swap(0, Ordering::SeqCst)).collect();
        assert_eq!(counts, [1; 8], "every item ran, none twice");

        let mut clean = on_lanes((4..8).collect(), &mut [(); 3], work).expect("no lane panicked");
        clean.sort_unstable();
        assert_eq!(clean, [40, 50, 60, 70]);
    }

    #[test]
    fn lanes_divide_the_width_and_inherit_the_rest_of_the_context() {
        let outer = pool::Context {
            chunks: 6,
            width: 4,
            ..pool::Context::current()
        };
        let seen =
            outer.enter(|| on_lanes(vec![(); 2], &mut [(); 2], |_, ()| pool::Context::current()));
        assert_eq!(seen, Some(vec![outer.lanes(2); 2]));
        assert_eq!(outer.lanes(2).width, 2);
    }

    /// A client bound to a shard shorter than one training window: its
    /// first batch panics.
    fn client_without_a_window(id: u32) -> LlmClient {
        let shard = photon_data::Shard::from_range("short", std::sync::Arc::new(vec![1, 2]), 0, 2);
        LlmClient::new(
            id,
            DataSource::new("short", shard),
            None,
            photon_tensor::SeedStream::new(0),
        )
    }

    #[test]
    fn a_client_that_panics_on_a_lane_fails_the_round() {
        for max_lanes in [1, 2, 5] {
            let mut fed = build_federation(&quick_cfg(5), 2_000).unwrap();
            fed.clients[1] = client_without_a_window(1);
            let err = fed
                .aggregator
                .run_round_on_lanes(&mut fed.clients, None, max_lanes)
                .unwrap_err();
            assert!(
                matches!(&err, CoreError::ClientFailure(m) if m.contains("panicked")),
                "{max_lanes} lane(s): {err}"
            );
            assert_eq!(fed.aggregator.round(), 0, "a failed round does not advance");
        }
    }

    #[test]
    fn a_256_client_tree_round_starts_no_more_threads_than_the_budget() {
        let mut cfg = quick_cfg(300);
        cfg.cohort = CohortSpec::Sample { k: 256 };
        cfg.local_steps = 1;
        cfg.local_batch = 1;
        cfg.hierarchy = Some(HierarchyConfig {
            shards: 8,
            ..HierarchyConfig::default()
        });
        let mut fed = build_federation(&cfg, 100).unwrap();
        // Spawn sites count on the spawning thread: the lanes show up here,
        // and what a lane itself would start shows up when this thread
        // plays a lane (one core to give) below.
        let before = spawned();
        let record = fed.aggregator.run_round(&mut fed.clients).unwrap();
        assert_eq!(record.cohort.len(), 256);
        let lanes = pool::max_threads().min(256);
        assert_eq!(spawned() - before, lanes);

        let before = spawned();
        let cohort: Vec<u32> = record.cohort.iter().map(|&i| i as u32).collect();
        pool::Context::current().lanes(lanes).enter(|| {
            for &id in &cohort {
                fed.clients[id as usize]
                    .run_round(fed.aggregator.params(), 1, &cohort, &cfg)
                    .unwrap();
            }
        });
        assert_eq!(spawned() - before, 0, "a client trains on its lane");
    }

    /// A single-GPU client, a 2-replica DDP silo, a 2-node sub-federation
    /// silo and a sign flip, then a shard tree, a buffered round and a
    /// chaotic network, each with its faults: the federations the
    /// store-before-read rules are checked on, each with its fault plan.
    fn workspace_cases() -> Vec<(&'static str, Federation, Option<FaultPlan>)> {
        use photon_cluster::{GpuSpec, Interconnect, NodeSpec, Region, SiloSpec};
        use photon_comms::{LinkProfile, NetworkConfig};
        let fed = || build_federation(&quick_cfg(3), 2_000).unwrap();
        let with_silo = |silo: SiloSpec| {
            let mut fed = fed();
            for client in &mut fed.clients {
                let (id, ds) = (client.id(), client.data_source().clone());
                let rng = photon_tensor::SeedStream::new(u64::from(id));
                *client = LlmClient::new(id, ds, Some(silo.clone()), rng);
            }
            fed
        };
        let ddp = with_silo(SiloSpec::single_node(
            "two-gpu",
            2,
            GpuSpec::h100(),
            Region::Quebec,
        ));
        let subfed = with_silo(SiloSpec {
            name: "slow-cluster".into(),
            nodes: vec![
                NodeSpec::nvlink(GpuSpec::h100(), 1),
                NodeSpec::nvlink(GpuSpec::h100(), 1),
            ],
            inter_node: Interconnect::Ethernet { gbps: 1.0 },
            region: Region::Quebec,
        });
        let cfg = ddp.aggregator.config().clone();
        assert_eq!(
            ddp.clients[0].strategy(&cfg),
            TrainingStrategy::Ddp { n_gpus: 2 }
        );
        assert_eq!(
            subfed.clients[0].strategy(&cfg),
            TrainingStrategy::SubFederation { partitions: 2 }
        );
        let sign_flip = FaultSpec::parse("sign-flip@r1c0").unwrap().plan(3, 3);

        let mut tree = quick_cfg(8);
        tree.hierarchy = four_shards();
        tree.allow_partial_results = true;
        let tree_faults = FaultSpec::parse("shards=4,crash@r0c5,shardhang@r1s2,seed=3")
            .unwrap()
            .plan(8, 3);
        let mut buffered = quick_cfg(4);
        buffered.membership = Some(crate::MembershipConfig::default());
        buffered.buffer = Some(photon_fedopt::BufferConfig {
            quorum: 3,
            staleness_decay: 0.5,
        });
        buffered.round_deadline_ms = Some(150);
        buffered.allow_partial_results = true;
        let buffered_faults = FaultSpec::parse("straggle:1500@r0c1,straggle:400@r1c2,seed=3")
            .unwrap()
            .plan(4, 3);
        let mut chaos = quick_cfg(6);
        chaos.network = Some(NetworkConfig {
            profile: LinkProfile {
                base_latency_ms: 20,
                jitter_ms: 10,
                dup_rate: 0.3,
                ..LinkProfile::default()
            },
            ..NetworkConfig::default()
        });
        chaos.guard = photon_fedopt::GuardConfig::on();
        chaos.allow_partial_results = true;
        let chaos_faults = FaultSpec::parse("corrupt=0.3,sign-flip@r1c4,seed=5")
            .unwrap()
            .plan(6, 3);
        vec![
            ("single-gpu", fed(), None),
            ("ddp", ddp, None),
            ("sub-federation", subfed, None),
            ("sign-flip", fed(), Some(sign_flip)),
            (
                "tree",
                build_federation(&tree, 2_000).unwrap(),
                Some(tree_faults),
            ),
            (
                "buffered",
                build_federation(&buffered, 2_000).unwrap(),
                Some(buffered_faults),
            ),
            (
                "chaos",
                build_federation(&chaos, 2_000).unwrap(),
                Some(chaos_faults),
            ),
        ]
    }

    /// Which buffers a round of [`three_rounds`] starts on.
    #[derive(Clone, Copy, PartialEq)]
    enum Start {
        /// Every client a lane of its own, on workspaces and update
        /// buffers dropped before every round: each client round starts
        /// on fresh ones.
        Fresh,
        /// Every client on one lane whose workspace is NaN-filled each
        /// time a client takes it.
        PoisonedWorkspace,
        /// Two lanes whose spare update buffers are NaN-filled, and two in
        /// three of them a wrong length, before every round; the kept
        /// aggregate buffer likewise.
        PoisonedSpares,
    }

    /// Three rounds of `fed`, started as `start` says, and what they came
    /// to.
    fn three_rounds(
        fed: &mut Federation,
        faults: Option<&FaultPlan>,
        start: Start,
    ) -> (Vec<RoundRecord>, Vec<u32>) {
        let agg = &mut fed.aggregator;
        let records = (0..3)
            .map(|_| {
                let lanes = match start {
                    Start::Fresh => {
                        agg.workspaces.clear();
                        agg.spares = Spares::default();
                        fed.clients.len()
                    }
                    Start::PoisonedWorkspace => {
                        let mut lane = Workspace::new();
                        lane.nan_fill = true;
                        agg.workspaces = vec![lane];
                        1
                    }
                    Start::PoisonedSpares => {
                        agg.spares.poison = true;
                        // The kept aggregate buffer too, of a length that
                        // changes from round to round.
                        let n = agg.params().len();
                        let len = [n, n / 2, n + 5][agg.round() as usize % 3];
                        agg.aggregate = vec![f32::NAN; len];
                        2
                    }
                };
                agg.run_round_on_lanes(&mut fed.clients, faults, lanes)
                    .unwrap()
            })
            .collect();
        let bits = agg.params().iter().map(|v| v.to_bits()).collect();
        (records, bits)
    }

    /// Runs every [`workspace_cases`] federation fresh and from `poisoned`
    /// buffers, and requires the two runs to agree.
    fn poison_changes_nothing(poisoned: Start) {
        let fresh = workspace_cases();
        for ((name, mut poisoned_fed, faults), (_, mut fresh, _)) in
            workspace_cases().into_iter().zip(fresh)
        {
            let want = three_rounds(&mut fresh, faults.as_ref(), Start::Fresh);
            let got = three_rounds(&mut poisoned_fed, faults.as_ref(), poisoned);
            assert!(got == want, "{name}: a poisoned buffer changed the run");
        }
    }

    #[test]
    fn lane_workspaces_store_before_they_read() {
        poison_changes_nothing(Start::PoisonedWorkspace);

        // A client that panics half-way through a round on a lane leaves
        // nothing the next round reads.
        let cfg = quick_cfg(3);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let mut lane = Workspace::new();
        lane.nan_fill = true;
        fed.aggregator.workspaces = vec![lane];
        let honest = std::mem::replace(&mut fed.clients[1], client_without_a_window(1));
        assert!(fed
            .aggregator
            .run_round_on_lanes(&mut fed.clients, None, 1)
            .is_err());
        fed.clients[1] = honest;
        fed.aggregator.workspaces[0].nan_fill = false;
        let after_the_panic = fed
            .aggregator
            .run_round_on_lanes(&mut fed.clients, None, 1)
            .unwrap();
        let mut fresh = build_federation(&cfg, 2_000).unwrap();
        let want = fresh
            .aggregator
            .run_round_on_lanes(&mut fresh.clients, None, 3)
            .unwrap();
        assert_eq!(after_the_panic, want);
        assert_eq!(fed.aggregator.params(), fresh.aggregator.params());
    }

    #[test]
    fn recycled_update_buffers_store_before_they_read() {
        poison_changes_nothing(Start::PoisonedSpares);
    }

    #[test]
    fn a_nan_aggregate_is_a_divergence() {
        let cfg = quick_cfg(2);
        let plan = FaultSpec::parse("nan-update@r0c0").unwrap().plan(2, 1);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let err = fed
            .aggregator
            .run_round_with(&mut fed.clients, Some(&plan))
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::Divergence { round: 0, reason } if reason.contains("not finite")),
            "{err}"
        );
    }

    fn four_shards() -> Option<HierarchyConfig> {
        Some(HierarchyConfig {
            shards: 4,
            ..HierarchyConfig::default()
        })
    }

    #[test]
    fn a_tree_round_that_fails_the_partial_gate_records_no_faults() {
        let mut cfg = quick_cfg(8);
        cfg.hierarchy = four_shards();
        cfg.allow_partial_results = false;
        let spec = FaultSpec::parse("shards=4,crash@r0c5,shardhang@r0s2,seed=3").unwrap();
        let injector = spec.plan(cfg.population, 1);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let err = fed
            .aggregator
            .run_round_with(&mut fed.clients, Some(&injector))
            .unwrap_err();
        assert!(
            err.to_string().contains("expected 8 results, got 7"),
            "{err}"
        );
        assert_eq!(fed.aggregator.round(), 0, "a failed round does not advance");
        // The recovery driver replays this round; had the failed attempt
        // bumped the crash and shard-hang counters, the replay would count
        // them twice.
        assert_eq!(
            fed.aggregator.telemetry().fault_counters(),
            FaultCounters::default()
        );
    }

    /// A transport run by hand: it trains the cohort's clients itself and
    /// moves the model and every result through the wire codec, so what a
    /// client trains from is the *decoded broadcast frame* (bf16 storage
    /// rounds there), never the aggregator's floats. Like a real network it
    /// delivers out of order — in reverse — and re-delivers one result.
    struct ByHand<'a>(&'a mut [LlmClient]);

    impl Transport for ByHand<'_> {
        fn roster_len(&self) -> usize {
            self.0.len()
        }

        fn exchange(&mut self, x: Exchange<'_>) -> crate::Result<Vec<ClientReply>> {
            let Ok(Message::ModelBroadcast { params: global, .. }) =
                Message::from_frame(x.broadcast.frame())
            else {
                panic!("a broadcast decodes as a broadcast");
            };
            let mut frames = Vec::new();
            for &id in x.cohort {
                let out = self.0[id as usize].run_round(&global, x.round, x.cohort, x.cfg)?;
                let result = Message::ClientResult {
                    round: x.round,
                    client_id: id,
                    delta: out.delta,
                    weight: out.weight,
                    metrics: out.metrics,
                };
                frames.push((id, result.to_frame_opts(x.cfg.wire_opts())));
            }
            frames.reverse();
            frames.push(frames[0].clone());
            let received = |(client_id, frame): (u32, bytes::Bytes)| ClientReply::Received {
                client_id,
                frame_len: frame.len() as u64,
                message: Message::from_frame(frame),
                link: None,
            };
            Ok(frames.into_iter().map(received).collect())
        }
    }

    /// Runs `rounds` rounds twice from one config — through the simulator's
    /// lanes and through [`ByHand`] — and requires the two aggregators to
    /// agree: the transport is the only stage that differs.
    fn sim_and_external_agree(cfg: &FederationConfig, rounds: u64) {
        let mut sim = build_federation(cfg, 2_000).unwrap();
        let mut ext = build_federation(cfg, 2_000).unwrap();
        for round in 0..rounds {
            let want = sim.aggregator.run_round(&mut sim.clients).unwrap();
            let got = ext
                .aggregator
                .run_round_over(&mut ByHand(&mut ext.clients), None)
                .unwrap();
            // Only what the wire moved may differ between the transports.
            let sans_wire = |r: RoundRecord| RoundRecord { wire_bytes: 0, ..r };
            assert_eq!(sans_wire(got), sans_wire(want), "round {round}");
            let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(ext.aggregator.params()),
                bits(sim.aggregator.params()),
                "round {round}"
            );
        }
        // Every re-delivery reached the engine's dedup, and only there.
        let dups = |fed: &crate::Federation| fed.aggregator.telemetry().fault_counters().dup_drops;
        assert_eq!((dups(&ext), dups(&sim)), (rounds, 0));
    }

    #[test]
    fn the_external_entry_matches_the_simulated_round_flat() {
        sim_and_external_agree(&quick_cfg(3), 3);
    }

    #[test]
    fn every_client_trains_from_the_decoded_broadcast_frame() {
        let mut bf16 = quick_cfg(3);
        bf16.dtype = photon_tensor::Dtype::Bf16;
        // The rule has teeth here: the frame rounds, so the aggregator's
        // own floats are not what a client may be handed.
        let fed = build_federation(&bf16, 2_000).unwrap();
        let params = fed.aggregator.params().to_vec();
        let frame = Message::ModelBroadcast { round: 0, params }.to_frame_opts(bf16.wire_opts());
        let Ok(Message::ModelBroadcast {
            params: decoded, ..
        }) = Message::from_frame(frame)
        else {
            panic!("a broadcast decodes as a broadcast");
        };
        assert_ne!(decoded, fed.aggregator.params());
        sim_and_external_agree(&bf16, 3);

        let mut compressed = quick_cfg(3);
        compressed.compress_link = true;
        sim_and_external_agree(&compressed, 3);
    }

    #[test]
    fn the_external_entry_matches_the_simulated_round_through_the_shard_tree() {
        let mut cfg = quick_cfg(8);
        cfg.hierarchy = four_shards();
        sim_and_external_agree(&cfg, 3);
        let mut fed = build_federation(&cfg, 2_000).unwrap();
        let record = fed.aggregator.run_round(&mut fed.clients).unwrap();
        assert_eq!(record.shards, 4, "the tree merge ran");
    }

    /// Client `id`'s update in `shard_folds_are_the_streaming_merge_to_the_bit`:
    /// `len` floats and a weight that depend on its place `k` in its
    /// shard. Of every 16 columns one is NaN at k = 0, one +inf at k = 1,
    /// one -inf at k = 2, one +inf and -inf at k = 0 and 1, and one -0.0
    /// for every member (which the first member's `0.0 + w·Δ` turns into
    /// +0.0).
    fn awkward_member(id: u32, len: usize) -> photon_fedopt::ClientUpdate {
        let k = id as usize / 4;
        let delta = (0..len)
            .map(|j| match (j % 16, k) {
                (0, 0) => f32::NAN,
                (1, 1) | (4, 0) => f32::INFINITY,
                (2, 2) | (4, 1) => f32::NEG_INFINITY,
                (3, _) => -0.0,
                _ => ((j * 7 + k * 13) % 97) as f32 * 0.013 - 0.6,
            })
            .collect();
        let weight = [0.75, 2.0, 1e-3, 3.5, 1.0, 0.25][k];
        photon_fedopt::ClientUpdate::new(delta, weight).unwrap()
    }

    /// The pooled shard folds are, to the bit, a `StreamingMerge` over each
    /// shard's members in client-id order, at any chunk count and into
    /// kept buffers of any length and contents. Four shards of six: shard
    /// 1 crashes, shard 2 hears from two members (below its quorum of
    /// three), shards 0 and 3 hear from all six.
    #[test]
    fn shard_folds_are_the_streaming_merge_to_the_bit() {
        use super::{Admitted, MergeTally, RoundPlan, SHARD_GUARD_BASE};
        use photon_fedopt::StreamingMerge;
        let mut cfg = quick_cfg(24);
        cfg.hierarchy = four_shards();
        let hcfg = cfg.hierarchy.unwrap();
        let tree = crate::ShardTree::new(hcfg, cfg.seed);
        let part = tree.partition(&(0..24).collect::<Vec<u32>>());
        let plan = RoundPlan {
            shard_crashes: vec![1],
            ..RoundPlan::default()
        };
        let heard: Vec<u32> = (0..24)
            .filter(|id| id % 4 != 1 && (id % 4 != 2 || *id < 8))
            .collect();
        let arrived = [(0, 6), (2, 2), (3, 6)].into_iter().collect();
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for len in [7, (1 << 16) + 1] {
            let want: Vec<(Vec<u32>, u64)> = [0u32, 3]
                .iter()
                .map(|&shard| {
                    let members: Vec<u32> = (shard..24).step_by(4).collect();
                    let keys = members.iter().map(|&id| (0, id)).collect();
                    let mut merge = StreamingMerge::new(keys, hcfg.max_resident);
                    for &id in &members {
                        merge.push((0, id), awkward_member(id, len));
                    }
                    let (mean, weight) = merge.finish().unwrap();
                    (bits(&mean), weight.to_bits())
                })
                .collect();
            for chunks in [1, 2, 3] {
                let mut agg = Aggregator::new(cfg.clone()).unwrap();
                agg.shard_means = vec![vec![f32::NAN; len + 3], vec![f32::NAN; len / 2]];
                let admitted = heard
                    .iter()
                    .map(|&id| Admitted {
                        client_id: id,
                        shard: tree.shard_of(id),
                        update: awkward_member(id, len),
                        metrics: TrainMetrics::default(),
                        arrival_round: 0,
                    })
                    .collect();
                let (mut tally, mut spent) = (MergeTally::default(), Vec::new());
                let (cand, seen) = pool::with_parallelism(chunks, || {
                    agg.fold_shards(
                        &plan, &tree, &part, admitted, &arrived, &mut tally, &mut spent,
                    )
                });
                let at = format!("len {len}, {chunks} chunks");
                assert_eq!(cand.ids, [SHARD_GUARD_BASE, SHARD_GUARD_BASE + 3], "{at}");
                let got: Vec<(Vec<u32>, u64)> = cand
                    .updates
                    .iter()
                    .map(|u| (bits(&u.delta), u.weight.to_bits()))
                    .collect();
                assert!(got == want, "{at}");
                let seen: Vec<u32> = seen.iter().map(|(id, _)| *id).collect();
                assert_eq!(seen, [0, 4, 8, 12, 16, 20, 3, 7, 11, 15, 19, 23], "{at}");
                assert_eq!((tally.shard_degraded, tally.peak_resident), (1, 1), "{at}");
                assert_eq!(spent.len(), heard.len(), "every member's vector is spent");
            }
        }
    }
}
