//! Crash-tolerant training driver: checkpoint every K rounds, restore from
//! the latest checkpoint on any round failure (or an injected aggregator
//! crash) within a bounded recovery budget.
//!
//! Recovery is exact, not approximate: cohort sampling, client data order
//! and DP noise are all round-keyed (see [`photon_tensor::SeedStream::fork`]),
//! and checkpoints carry the server optimizer's state, so the rounds
//! replayed after a restore are bit-identical to the rounds the crash
//! destroyed — a run that crashes and recovers ends with exactly the
//! parameters of one that never crashed.

use crate::experiments::{eval_seq, RunOptions};
use crate::faults::FaultPlan;
use crate::{checkpoint_exists, load_checkpoint, CoreError, Federation, Result, TrainingHistory};
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
    /// The final federation (global model, telemetry).
    pub federation: Federation,
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
    let (mut fed, val) = build()?;
    let mut history = TrainingHistory::new();
    let mut recoveries = 0u32;
    let mut rollbacks = 0u32;
    // An injected aggregator crash fires once; after recovery the process
    // is a different incarnation and the schedule entry is spent.
    let mut fired_agg_crashes: BTreeSet<u64> = BTreeSet::new();
    // Rounds the watchdog declared divergent: neutralized on every rebuilt
    // aggregator so the deterministic replay skips the poisoned update
    // instead of re-diverging forever.
    let mut neutralized: BTreeSet<u64> = BTreeSet::new();

    if opts.resume {
        restore_latest(&mut fed, opts);
        // A fresh process cannot know which prefix rounds a prior
        // incarnation neutralized (that is not checkpointed), so the whole
        // restored prefix counts as committed.
        mark_committed_prefix(&fed, &neutralized);
    }

    let seq = eval_seq(fed.aggregator.config());
    while fed.aggregator.round() < opts.run.rounds {
        let round = fed.aggregator.round();
        match fed.run_round_with(injector) {
            Ok(mut record) => {
                if opts.run.eval_every > 0 && (round + 1) % opts.run.eval_every == 0 {
                    // A fresh stream per eval keeps evaluation a pure
                    // function of the round, so replayed rounds reproduce
                    // their records exactly.
                    let _eval_span = photon_trace::span(photon_trace::Phase::Eval)
                        .arg("round", round)
                        .arg("windows", opts.run.eval_windows as u64);
                    let mut stream = EvalStream::new(&val, seq);
                    let model = fed.aggregator.global_model();
                    let report = evaluate_perplexity(&model, &mut stream, opts.run.eval_windows);
                    record.eval_ppl = Some(report.perplexity);
                }
                let reached = record
                    .eval_ppl
                    .zip(opts.run.stop_below)
                    .is_some_and(|(p, t)| p <= t);
                // Replayed rounds overwrite the records destroyed by the
                // crash they recover from.
                history.rounds.truncate(round as usize);
                history.push(record);

                let due =
                    opts.checkpoint_every > 0 && (round + 1).is_multiple_of(opts.checkpoint_every);
                if let Some(dir) = &opts.checkpoint_dir {
                    if due || reached || round + 1 == opts.run.rounds {
                        let _save_span = photon_trace::span(photon_trace::Phase::CheckpointSave)
                            .arg("round", fed.aggregator.round());
                        photon_trace::counter_add("checkpoint.saves", 1);
                        fed.aggregator.save_checkpoint(dir)?;
                    }
                }
                if reached {
                    break;
                }
                let agg_crashes = injector.is_some_and(|inj| inj.aggregator_crashes_after(round))
                    && fired_agg_crashes.insert(round);
                if agg_crashes {
                    if recoveries >= opts.recovery_budget {
                        return Err(CoreError::ClientFailure(format!(
                            "aggregator crashed after round {round} with the \
                             recovery budget exhausted"
                        )));
                    }
                    recoveries += 1;
                    fed = recover(&mut build, opts, &mut history, &neutralized)?;
                }
            }
            Err(CoreError::Divergence { round, reason }) => {
                if recoveries + rollbacks >= opts.recovery_budget {
                    return Err(CoreError::Divergence { round, reason });
                }
                rollbacks += 1;
                neutralized.insert(round);
                photon_trace::instant(
                    photon_trace::Phase::Rollback,
                    "watchdog_rollback",
                    &[("round", round), ("rollback", rollbacks as u64)],
                );
                photon_trace::counter_add("watchdog.rollbacks", 1);
                eprintln!(
                    "round {round} diverged ({reason}); rolling back to the \
                     last-good checkpoint and neutralizing the round \
                     (rollback {rollbacks})"
                );
                fed = recover(&mut build, opts, &mut history, &neutralized)?;
            }
            Err(e) => {
                if recoveries + rollbacks >= opts.recovery_budget {
                    return Err(e);
                }
                recoveries += 1;
                eprintln!(
                    "round {round} failed ({e}); restoring from checkpoint \
                     (recovery {recoveries}/{})",
                    opts.recovery_budget
                );
                fed = recover(&mut build, opts, &mut history, &neutralized)?;
            }
        }
        publish_round_metrics(&fed, &history, recoveries, rollbacks, opts);
    }
    for _ in 0..recoveries {
        fed.aggregator.telemetry().record_recovery();
    }
    for _ in 0..rollbacks {
        fed.aggregator.telemetry().record_rollback();
    }
    // A `stop_below` early exit breaks out before the in-loop publish;
    // refresh the sinks once more so they reflect the final state.
    publish_round_metrics(&fed, &history, recoveries, rollbacks, opts);
    Ok(TrainingOutcome {
        history,
        recoveries,
        rollbacks,
        federation: fed,
    })
}

/// Rebuilds the federation from scratch and restores the latest
/// checkpoint (or leaves it at round 0 when there is none), truncating the
/// history to the restored round.
fn recover<F>(
    build: &mut F,
    opts: &TrainingOptions,
    history: &mut TrainingHistory,
    neutralized: &BTreeSet<u64>,
) -> Result<Federation>
where
    F: FnMut() -> Result<(Federation, TokenCorpus)>,
{
    let (mut fed, _) = build()?;
    restore_latest(&mut fed, opts);
    // The rebuilt aggregator starts with a clean slate; re-arm the
    // neutralized rounds so the replay skips every previously-diverged
    // update application.
    for &round in neutralized {
        fed.aggregator.neutralize_round(round);
    }
    // Every round baked into the restored parameters committed (except
    // the neutralized ones, whose updates were skipped); seed the fresh
    // telemetry so `rounds_committed` stays comparable across recoveries.
    mark_committed_prefix(&fed, neutralized);
    history.rounds.truncate(fed.aggregator.round() as usize);
    Ok(fed)
}

/// Marks the restored checkpoint prefix `0..round()` as committed on a
/// freshly rebuilt federation's telemetry, skipping neutralized rounds.
fn mark_committed_prefix(fed: &Federation, neutralized: &BTreeSet<u64>) {
    for round in 0..fed.aggregator.round() {
        if !neutralized.contains(&round) {
            fed.aggregator.telemetry().record_committed_round(round);
        }
    }
}

/// Refreshes the observability sinks after a round: publishes run-level
/// gauges, drains the trace recorder into its sinks, and atomically
/// rewrites the live metrics JSON. Sink failures warn and never fail
/// training.
fn publish_round_metrics(
    fed: &Federation,
    history: &TrainingHistory,
    recoveries: u32,
    rollbacks: u32,
    opts: &TrainingOptions,
) {
    let telemetry = fed.aggregator.telemetry();
    if photon_trace::enabled() {
        photon_trace::gauge_set("rounds_seen", telemetry.rounds_seen() as f64);
        photon_trace::gauge_set("rounds_committed", telemetry.rounds_committed() as f64);
        let skew = telemetry.participation_skew();
        if skew.is_finite() {
            photon_trace::gauge_set("participation_skew", skew);
        }
        // Hierarchical-aggregation health: the shard topology from the
        // config, the crash/re-parent tallies from the live tree, and
        // the streaming-merge residency high-water mark from the last
        // committed round — all surfaced in the Prometheus text sink.
        if let Some(hcfg) = &fed.aggregator.config().hierarchy {
            photon_trace::gauge_set("hierarchy.shards", hcfg.shards as f64);
            photon_trace::gauge_set("hierarchy.shard_quorum_frac", hcfg.shard_quorum_frac);
            photon_trace::gauge_set("hierarchy.max_resident", hcfg.max_resident as f64);
            if let Some(state) = fed.aggregator.hierarchy_state() {
                photon_trace::gauge_set("hierarchy.dead_shards", state.dead_shards.len() as f64);
            }
            if let Some(last) = history.rounds.last() {
                photon_trace::gauge_set("hierarchy.peak_resident", last.peak_resident as f64);
                photon_trace::gauge_set("hierarchy.shard_crashes", last.shard_crashes as f64);
                photon_trace::gauge_set("hierarchy.reparented_clients", last.reparented as f64);
            }
        }
        if let Err(e) = photon_trace::flush() {
            eprintln!("warning: trace flush failed: {e}");
        }
    }
    if let Some(path) = &opts.metrics_json {
        if let Err(e) = write_metrics_json(path, fed, history, recoveries, rollbacks) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// The live metrics snapshot: run counters (including the committed-round
/// count, the compute-thread budget and the participation skew — `null`
/// when no client has trained yet) plus the per-round history. Written
/// atomically so a concurrent reader never observes a torn file.
fn write_metrics_json(
    path: &std::path::Path,
    fed: &Federation,
    history: &TrainingHistory,
    recoveries: u32,
    rollbacks: u32,
) -> std::io::Result<()> {
    let telemetry = fed.aggregator.telemetry();
    let faults = serde_json::to_string_pretty(&telemetry.fault_counters())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let skew = telemetry.participation_skew();
    let skew_json = if skew.is_finite() {
        format!("{skew}")
    } else {
        "null".to_string()
    };
    let quantile = |q: f64| {
        telemetry
            .link_latency_quantile(q)
            .map_or("null".to_string(), |v| v.to_string())
    };
    let counters = telemetry.fault_counters();
    // Live view of the sub-aggregator tree: `null` for flat runs, else the
    // shard count, the permanently dead shards and the cumulative shard
    // fault counters.
    let hierarchy_json = match (
        fed.aggregator.config().hierarchy.as_ref(),
        fed.aggregator.hierarchy_state(),
    ) {
        (Some(hcfg), Some(state)) => format!(
            "{{\"shards\": {}, \"max_resident\": {}, \"dead_shards\": [{}], \
             \"shard_crashes\": {}, \"shard_hangs\": {}, \
             \"shard_degraded\": {}, \"reparented\": {}}}",
            hcfg.shards,
            hcfg.max_resident,
            state
                .dead_shards
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            counters.shard_crashes,
            counters.shard_hangs,
            counters.shard_degraded,
            counters.reparented,
        ),
        _ => "null".to_string(),
    };
    let reconnects_json = telemetry
        .reconnects_by_client()
        .iter()
        .map(|(id, n)| format!("\"{id}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n\"round\": {},\n\"rounds_seen\": {},\n\"rounds_committed\": {},\n\
         \"compute_threads\": {},\n\"backend\": \"{}\",\n\"dtype\": \"{}\",\n\
         \"participation_skew\": {},\n\
         \"total_tokens\": {},\n\"recoveries\": {},\n\"rollbacks\": {},\n\
         \"network\": {{\"deliveries\": {}, \"latency_p50_ms\": {}, \
         \"latency_p99_ms\": {}}},\n\
         \"transport\": {{\"reconnects\": {}, \"heartbeat_misses\": {}, \
         \"session_resumes\": {}, \"coordinator_restarts\": {}, \
         \"reconnects_by_client\": {{{}}}}},\n\
         \"hierarchy\": {},\n\
         \"fault_counters\": {},\n\"history\": {}\n}}\n",
        fed.aggregator.round(),
        telemetry.rounds_seen(),
        telemetry.rounds_committed(),
        telemetry.compute_threads(),
        photon_tensor::backend::active_name(),
        fed.aggregator.config().dtype.as_str(),
        skew_json,
        telemetry.total_tokens(),
        recoveries,
        rollbacks,
        telemetry.link_latency_count(),
        quantile(0.5),
        quantile(0.99),
        counters.transport_reconnects,
        counters.heartbeat_misses,
        counters.session_resumes,
        counters.coordinator_restarts,
        reconnects_json,
        hierarchy_json,
        faults,
        history.to_json()
    );
    photon_trace::atomic_write(path, &json)
}

/// Restores the latest checkpoint into a freshly built federation, when
/// there is one. A torn or corrupt checkpoint must not kill the run: the
/// rejected restore changed nothing, so the federation starts over from
/// round 0 (within the recovery budget) with a warning.
fn restore_latest(fed: &mut Federation, opts: &TrainingOptions) {
    let latest = opts.checkpoint_dir.as_deref();
    let Some(dir) = latest.filter(|dir| checkpoint_exists(dir)) else {
        return;
    };
    let _restore_span = photon_trace::span(photon_trace::Phase::CheckpointRestore);
    photon_trace::counter_add("checkpoint.restores", 1);
    let restored = load_checkpoint(dir)
        .and_then(|ckpt| fed.aggregator.restore(ckpt))
        // Mid-run joiners in the restored roster are re-provisioned
        // deterministically from the run seed.
        .and_then(|()| fed.sync_roster());
    if let Err(e) = restored {
        eprintln!(
            "warning: checkpoint in {} is unusable ({e}); restarting from round 0",
            dir.display()
        );
    }
}
