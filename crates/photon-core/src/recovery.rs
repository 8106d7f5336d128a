//! The training driver, one loop whatever the transport: rounds run to the
//! target, each followed by a checkpoint when one is due; any round failure
//! (or an injected aggregator crash) restores the latest checkpoint within
//! a bounded recovery budget, and a watchdog divergence rolls back and
//! neutralizes the round. [`run_training`] drives the simulator's
//! in-process clients; `photon_net::serve` is [`run_training_over`] with a
//! TCP [`Transport`].
//!
//! Recovery is exact, not approximate: cohort sampling, client data order
//! and DP noise are all round-keyed (see [`photon_tensor::SeedStream::fork`]),
//! and checkpoints carry the server optimizer's state, so the rounds
//! replayed after a restore are bit-identical to the rounds the crash
//! destroyed — a run that crashes and recovers ends with exactly the
//! parameters of one that never crashed.

use crate::experiments::{eval_seq, RunOptions};
use crate::faults::{FaultEvent, FaultPlan};
use crate::{
    checkpoint_exists, load_checkpoint, CoreError, Federation, MetricsSnapshot, Result,
    TrainingHistory, Transport,
};
use photon_data::{EvalStream, TokenCorpus};
use photon_nn::evaluate_perplexity;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Options for a crash-tolerant [`run_training`] loop.
#[derive(Debug, Clone)]
pub struct TrainingOptions {
    /// Round schedule and evaluation cadence.
    pub run: RunOptions,
    /// Where checkpoints live. `None` disables checkpointing — recovery
    /// then restarts from round 0.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many rounds (0 = only on completion).
    pub checkpoint_every: u64,
    /// Maximum restores before a failure is surfaced to the caller.
    pub recovery_budget: u32,
    /// Start by restoring the latest checkpoint in `checkpoint_dir`, when
    /// one exists (resuming an interrupted run).
    pub resume: bool,
    /// Write a live metrics snapshot (JSON) here after every round,
    /// atomically (temp file + rename), so an operator tailing the file
    /// never observes a torn write. `None` disables the sink.
    pub metrics_json: Option<PathBuf>,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            run: RunOptions::default(),
            checkpoint_dir: None,
            checkpoint_every: 5,
            recovery_budget: 3,
            resume: false,
            metrics_json: None,
        }
    }
}

/// What a [`run_training`] call produced.
#[derive(Debug)]
pub struct TrainingOutcome {
    /// Per-round records for the rounds that stand (replayed rounds
    /// overwrite the records the crash destroyed).
    pub history: TrainingHistory,
    /// Checkpoint restores performed (crashes survived).
    pub recoveries: u32,
    /// Watchdog-triggered rollbacks to the last-good checkpoint (divergent
    /// rounds neutralized). Shares the recovery budget with `recoveries`.
    pub rollbacks: u32,
    /// The checkpointed round a resume restored, when it restored one.
    pub resumed_from: Option<u64>,
    /// The final federation (global model, telemetry).
    pub federation: Federation,
}

impl TrainingOutcome {
    /// The run's metrics: the store's snapshot plus what only the training
    /// driver knows — the round, the storage dtype, the recovery tallies,
    /// the resume point and the per-round history with its recent-round
    /// ring. The last `--metrics-json` rewrite holds it, and the CLI's
    /// end-of-run summary prints it.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.complete(self.federation.aggregator.telemetry().snapshot())
    }

    /// Adds what only the training driver knows to the store's `snapshot`.
    fn complete(&self, snapshot: MetricsSnapshot) -> MetricsSnapshot {
        let agg = &self.federation.aggregator;
        MetricsSnapshot {
            round: agg.round(),
            dtype: Some(agg.config().dtype.as_str()),
            recoveries: Some(self.recoveries),
            rollbacks: Some(self.rollbacks),
            resumed_from: self.resumed_from,
            recent_rounds: Some(self.history.recent_rounds()),
            history: Some(self.history.clone()),
            ..snapshot
        }
    }
}

/// Drives federated training to completion through crashes: rounds are
/// checkpointed every `opts.checkpoint_every` rounds (with server-optimizer
/// state), and any round error — or an aggregator crash scheduled in
/// `injector` — triggers a rebuild-and-restore from the latest checkpoint,
/// up to `opts.recovery_budget` times.
///
/// `build` must deterministically construct the same federation and
/// validation corpus every call (all the builders in
/// [`crate::experiments`] qualify): recovery rebuilds the world from
/// scratch and replays from the last checkpoint.
///
/// # Errors
/// Surfaces the underlying round error once the recovery budget is
/// exhausted, and propagates checkpoint I/O failures.
pub fn run_training<F>(
    mut build: F,
    opts: &TrainingOptions,
    injector: Option<&FaultPlan>,
) -> Result<TrainingOutcome>
where
    F: FnMut() -> Result<(Federation, TokenCorpus)>,
{
    let build = || build().map(|(fed, val)| (fed, Some(val)));
    run_training_over(build, None, opts, injector)
}

/// [`run_training`] with the cohort behind `transport` — `None` runs the
/// federation's own clients on the simulator's lanes. `build` may return
/// no validation corpus, and then no round is evaluated. After every
/// committed round (and its checkpoint, when one is due) the driver calls
/// [`Transport::committed`], which may end the run there.
///
/// # Errors
/// As [`run_training`].
pub fn run_training_over<F>(
    mut build: F,
    mut transport: Option<&mut dyn Transport>,
    opts: &TrainingOptions,
    injector: Option<&FaultPlan>,
) -> Result<TrainingOutcome>
where
    F: FnMut() -> Result<(Federation, Option<TokenCorpus>)>,
{
    let (fed, val) = build()?;
    let mut run = TrainingOutcome {
        history: TrainingHistory::new(),
        recoveries: 0,
        rollbacks: 0,
        resumed_from: None,
        federation: fed,
    };
    // An injected aggregator crash fires once; after recovery the process
    // is a different incarnation and the schedule entry is spent.
    let mut fired_agg_crashes: BTreeSet<u64> = BTreeSet::new();
    // Rounds the watchdog declared divergent: neutralized on every rebuilt
    // aggregator so the deterministic replay skips the poisoned update
    // instead of re-diverging forever.
    let mut neutralized: BTreeSet<u64> = BTreeSet::new();

    // The store counts what this process does, across its recoveries: a
    // resumed run cannot know which rounds before its first a prior
    // process neutralized, since that is not checkpointed. Each recovery
    // and rollback reaches it as it happens.
    let store = run.federation.aggregator.telemetry().clone();
    if opts.resume && restore_latest(&mut run.federation, opts) {
        run.resumed_from = Some(run.federation.aggregator.round());
        store.count(|f| f.coordinator_restarts += 1);
    }

    let seq = eval_seq(run.federation.aggregator.config());
    while run.federation.aggregator.round() < opts.run.rounds {
        let round = run.federation.aggregator.round();
        let result = match transport.as_deref_mut() {
            Some(transport) => run
                .federation
                .aggregator
                .run_round_over(transport, injector),
            None => run.federation.run_round_with(injector),
        };
        let mut reached = false;
        let committed = match result {
            Ok(mut record) => {
                let eval_due =
                    opts.run.eval_every > 0 && (round + 1).is_multiple_of(opts.run.eval_every);
                if let Some(val) = val.as_ref().filter(|_| eval_due) {
                    // A fresh stream per eval keeps evaluation a pure
                    // function of the round, so replayed rounds reproduce
                    // their records exactly.
                    let _eval_span = photon_trace::span(photon_trace::Phase::Eval)
                        .arg("round", round)
                        .arg("windows", opts.run.eval_windows as u64);
                    let mut stream = EvalStream::new(val, seq);
                    let model = run.federation.aggregator.global_model();
                    let report = evaluate_perplexity(&model, &mut stream, opts.run.eval_windows);
                    record.eval_ppl = Some(report.perplexity);
                }
                reached = record
                    .eval_ppl
                    .zip(opts.run.stop_below)
                    .is_some_and(|(p, t)| p <= t);
                // Replayed rounds overwrite the records destroyed by the
                // crash they recover from.
                run.history.rounds.retain(|r| r.round < round);
                run.history.push(record);

                let due =
                    opts.checkpoint_every > 0 && (round + 1).is_multiple_of(opts.checkpoint_every);
                if let Some(dir) = &opts.checkpoint_dir {
                    if due || reached || round + 1 == opts.run.rounds {
                        let _save_span = photon_trace::span(photon_trace::Phase::CheckpointSave)
                            .arg("round", run.federation.aggregator.round());
                        run.federation.aggregator.save_checkpoint(dir)?;
                    }
                }
                let agg_crashes = !reached
                    && injector.is_some_and(|inj| inj.has(FaultEvent::AggCrash, round, 0))
                    && fired_agg_crashes.insert(round);
                if agg_crashes {
                    if run.recoveries >= opts.recovery_budget {
                        return Err(CoreError::ClientFailure(format!(
                            "aggregator crashed after round {round} with the \
                             recovery budget exhausted"
                        )));
                    }
                    run.recoveries += 1;
                    store.count(|f| f.recoveries += 1);
                    recover(&mut build, opts, &mut run, &neutralized)?;
                }
                true
            }
            Err(CoreError::Divergence { round, reason }) => {
                if run.recoveries + run.rollbacks >= opts.recovery_budget {
                    return Err(CoreError::Divergence { round, reason });
                }
                run.rollbacks += 1;
                store.count(|f| f.rollbacks += 1);
                neutralized.insert(round);
                photon_trace::instant(
                    photon_trace::Phase::Rollback,
                    "watchdog_rollback",
                    &[("round", round), ("rollback", run.rollbacks as u64)],
                );
                eprintln!(
                    "round {round} diverged ({reason}); rolling back to the \
                     last-good checkpoint and neutralizing the round \
                     (rollback {})",
                    run.rollbacks
                );
                recover(&mut build, opts, &mut run, &neutralized)?;
                false
            }
            Err(e) => {
                if run.recoveries + run.rollbacks >= opts.recovery_budget {
                    return Err(e);
                }
                run.recoveries += 1;
                store.count(|f| f.recoveries += 1);
                eprintln!(
                    "round {round} failed ({e}); restoring from checkpoint \
                     (recovery {}/{})",
                    run.recoveries, opts.recovery_budget
                );
                recover(&mut build, opts, &mut run, &neutralized)?;
                false
            }
        };
        publish_round_metrics(&run, opts);
        let stop = committed
            && transport
                .as_deref_mut()
                .is_some_and(|t| !t.committed(round));
        if reached || stop {
            break;
        }
    }
    // Refresh the sinks once more so they reflect the final state.
    publish_round_metrics(&run, opts);
    Ok(run)
}

/// Replaces the run's federation with one rebuilt from scratch that writes
/// into the run's metrics store, restores the latest checkpoint (or stays
/// at round 0 when there is none), and truncates the history to the
/// restored round. The store's committed rounds are a set, so the replayed
/// rounds count once.
fn recover<F>(
    build: &mut F,
    opts: &TrainingOptions,
    run: &mut TrainingOutcome,
    neutralized: &BTreeSet<u64>,
) -> Result<()>
where
    F: FnMut() -> Result<(Federation, Option<TokenCorpus>)>,
{
    let (mut fed, _) = build()?;
    let store = run.federation.aggregator.telemetry().clone();
    fed.aggregator.set_telemetry(store);
    restore_latest(&mut fed, opts);
    // The rebuilt aggregator starts with a clean slate; re-arm the
    // neutralized rounds so the replay skips every previously-diverged
    // update application.
    for &round in neutralized {
        fed.aggregator.neutralize_round(round);
    }
    run.history
        .rounds
        .retain(|r| r.round < fed.aggregator.round());
    run.federation = fed;
    Ok(())
}

/// Refreshes the observability sinks after a round from one snapshot of the
/// store: hands the trace recorder its Prometheus rendering — the text
/// `/metrics` serves — and drains the recorder into its sinks, then
/// atomically rewrites the live metrics JSON (so a concurrent reader never
/// observes a torn file). Sink failures warn and never fail training.
fn publish_round_metrics(run: &TrainingOutcome, opts: &TrainingOptions) {
    let tracing = photon_trace::enabled();
    if !tracing && opts.metrics_json.is_none() {
        return; // no sink to refresh
    }
    let snapshot = run.federation.aggregator.telemetry().snapshot();
    if tracing {
        photon_trace::set_metrics_text(|| snapshot.to_prometheus());
        if let Err(e) = photon_trace::flush() {
            eprintln!("warning: trace flush failed: {e}");
        }
    }
    if let Some(path) = &opts.metrics_json {
        let written = serde_json::to_string_pretty(&run.complete(snapshot))
            .map_err(std::io::Error::other)
            .and_then(|json| photon_trace::atomic_write(path, &json));
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// Restores the latest checkpoint into a freshly built federation, when
/// there is one, and says whether it did. A torn or corrupt checkpoint must
/// not kill the run: the rejected restore changed nothing, so the
/// federation starts over from round 0 (within the recovery budget) with a
/// warning.
fn restore_latest(fed: &mut Federation, opts: &TrainingOptions) -> bool {
    let latest = opts.checkpoint_dir.as_deref();
    let Some(dir) = latest.filter(|dir| checkpoint_exists(dir)) else {
        return false;
    };
    let _restore_span = photon_trace::span(photon_trace::Phase::CheckpointRestore);
    // Mid-run joiners in the restored roster are re-provisioned, from the
    // run seed, before the next simulated round.
    let restored = load_checkpoint(dir).and_then(|ckpt| fed.aggregator.restore(ckpt));
    if let Err(e) = &restored {
        eprintln!(
            "warning: checkpoint in {} is unusable ({e}); restarting from round 0",
            dir.display()
        );
    }
    restored.is_ok()
}
