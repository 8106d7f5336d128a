//! Implementations of the `photon` subcommands.

use crate::args::Args;
use photon_core::experiments::{
    build_heterogeneous_federation, build_iid_federation, downstream_report, RunOptions,
};
use photon_core::{
    load_checkpoint, run_training, AdaptiveDeadlineConfig, CohortSpec, CoreError, FaultEvent,
    FaultSpec, Federation, FederationConfig, HierarchyConfig, LinkProfile, MembershipConfig,
    NetworkConfig, Tally, TrainingOptions,
};
use photon_fedopt::{AggregationKind, BufferConfig, GuardConfig, ServerOptKind};
use photon_nn::{generate as sample_tokens, Gpt, ModelConfig, SampleConfig};
use photon_optim::LrSchedule;
use photon_tensor::SeedStream;
use photon_tokenizer::{ByteTokenizer, Tokenizer};
use std::path::{Path, PathBuf};

const TRAIN_HELP: &str = "photon train / resume — federated pre-training

OPTIONS:
    --model tiny|small|medium|large   proxy architecture      [tiny]
    --positions alibi|learned         positional scheme       [alibi]
    --data web|pile                   IID web or Pile-style    [web]
    --clients N                       population size          [4]
    --sample K                        clients per round (partial participation)
    --rounds N                        federated rounds         [12]
    --local-steps N                   tau, steps per round     [16]
    --batch N                         local batch size B_l     [8]
    --lr X                            peak learning rate       [0.006]
    --server-opt fedavg|fedmom|fedadam|diloco                  [fedavg]
    --tokens-per-client N             corpus tokens per client [20000]
    --seed N                          root seed                [42]
    --eval-every N                    eval cadence in rounds   [1]
    --threads N                       kernel worker threads (0 = serial) [auto]
    --backend scalar|simd             compute backend (also PHOTON_BACKEND;
                                      simd falls back to scalar when the CPU
                                      lacks AVX2/FMA)            [auto]
    --dtype f32|bf16                  storage precision for checkpoints and
                                      wire payloads; compute stays f32 [f32]
    --checkpoint-dir DIR              save (and resume) here
    --checkpoint-every N              checkpoint cadence in rounds [5]
    --recovery-budget N               max crash recoveries     [3]
    --deadline-ms N                   round deadline; late results dropped
                                      into the partial-update path
    --retransmit-budget N             link retries for corrupt frames [3]
    --link-jitter-pct P               jitter each retransmit backoff by up
                                      to P percent (seeded, deterministic)
    --link-timeout-ms N               per-delivery timeout; a link that
                                      exceeds it counts as a dropout
    --faults SPEC                     seeded fault injection (pair with
                                      --partial-ok): comma-separated rates,
                                      pinned faults and partitions, e.g.
                                      crash=0.05,straggle=0.1,seed=9,
                                      sign-flip@r3c1,shardhang@r2s0
                                      rates per client and round: crash=,
                                      straggle= (late by up to
                                      straggle-ms=N [1000]), corrupt= (up
                                      to corrupt-attempts=N [2] bad
                                      frames), nan=, sign-flip=, scale=
                                      (by scale-factor=X [100]), leave=,
                                      lossy= (lost transmissions); per
                                      round: agg= (aggregator crash),
                                      join=; per shard: shardcrash=,
                                      shardhang= over shards=N (defaults
                                      to --shards); seed=N
                                      pinned, client M at round N:
                                      crash@rNcM, straggle:<ms>@rNcM,
                                      corrupt:<n>@rNcM, nan-update@rNcM,
                                      sign-flip@rNcM, scale:<x>@rNcM,
                                      leave@rNcM, slowlink@rNcM; shard M:
                                      shardcrash@rNsM, shardhang@rNsM;
                                      round N: join@rN
                                      partition@rN[-rM]:a.b|c.d severs the
                                      right side from the left (with `|~`
                                      it hears broadcasts but loses
                                      results; `*` = everyone else)
    --net-latency-ms N                simulated network: per-link base
                                      latency (any --net-* flag enables
                                      the deterministic link model)  [0]
    --net-jitter-ms N                 per-delivery latency jitter      [0]
    --net-bw-kbps N                   link bandwidth; payload size adds
                                      transfer time (0 = infinite)    [0]
    --net-loss X                      per-attempt loss probability     [0]
    --net-dup X                       duplicate-delivery probability   [0]
    --net-reorder-ms N                reorder window for late duplicate
                                      arrivals                        [0]
    --net-quorum X                    reachable fraction below which a
                                      round runs degraded (deadline
                                      lifted, server opt skipped)   [0.5]
    --net-slow-factor N               latency multiplier applied by
                                      slowlink@ faults                [10]
    --adaptive-deadline               derive the round deadline from a
                                      percentile of observed delivery
                                      latencies (replaces --deadline-ms)
    --deadline-percentile X           adaptive deadline percentile  [0.95]
    --deadline-floor-ms N             adaptive deadline floor        [100]
    --deadline-ceiling-ms N           adaptive deadline ceiling    [10000]
    --aggregation RULE                mean|ties[:density]|trimmed-mean[:r]|
                                      median|norm-clipped[:mult]   [mean]
    --guard                           screen updates before merging
                                      (finiteness, norm clip, outlier
                                      rejection, quarantine)
    --loss-spike-mult X               roll back when mean loss exceeds
                                      X * its EMA (watchdog; X > 1)
    --compress                        lossless Link compression
    --secure                          secure aggregation
    --partial-ok                      tolerate client dropouts
    --membership                      elastic membership: lease-based
                                      liveness, warm joins, permanent leaves
    --lease-ms N                      liveness lease duration [3000]
                                      (implies --membership)
    --round-ms N                      simulated round duration  [1000]
    --buffer-quorum M                 buffered semi-sync aggregation:
                                      commit once M updates are pending
                                      (implies --membership)
    --shards N                        hierarchical aggregation: route the
                                      cohort through N crash-tolerant
                                      sub-aggregator shards (the K-ary
                                      tree's fan-in at the root)
    --shard-quorum-frac X             fraction of a shard's slice that
                                      must arrive before the shard commits
                                      upward (implies --shards)    [0.5]
    --max-resident N                  residency bound of each shard's
                                      streaming merge: at most N full
                                      update vectors held at once
                                      (implies --shards)            [64]
    --staleness-decay X               down-weight an update s rounds stale
                                      by (1+s)^-X          [0.5]
    --metrics-json PATH               live metrics JSON (history, fault and
                                      churn counters, committed rounds,
                                      compute threads, participation skew),
                                      rewritten atomically every round
    --trace-jsonl PATH                structured trace events as JSON lines
                                      (chrome://tracing compatible); replays
                                      byte-identically for a fixed seed
    --metrics-text PATH               Prometheus-style text snapshot,
                                      rewritten atomically every round
    --trace-kernels                   also emit per-kernel spans (GEMM,
                                      attention, layernorm) as trace events;
                                      kernels always feed the phase profile";

/// `photon train` / `photon resume`.
pub fn train(args: &Args, resume: bool) -> Result<(), String> {
    args.check_known(&[TRAIN_HELP])?;
    if args.flag("help") {
        println!("{TRAIN_HELP}");
        return Ok(());
    }
    let (threads, backend) = init_compute(args)?;

    let ckpt_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let rounds: u64 = args.get_parsed("rounds", 12)?;
    let eval_every: u64 = args.get_parsed("eval-every", 1)?;

    // Observability sinks: any of them turns the recorder on; otherwise
    // the hot paths pay one relaxed atomic load and nothing else.
    let trace_jsonl = args.get("trace-jsonl").map(PathBuf::from);
    let metrics_text = args.get("metrics-text").map(PathBuf::from);
    let tracing_on = trace_jsonl.is_some() || metrics_text.is_some();
    if tracing_on {
        photon_trace::init(photon_trace::TraceConfig {
            jsonl: trace_jsonl.clone(),
            prometheus: metrics_text.clone(),
            kernel_events: args.flag("trace-kernels"),
            clock: photon_trace::ClockMode::Sim,
        })
        .map_err(|e| format!("cannot initialize tracing: {e}"))?;
    }

    let cfg = if resume {
        let dir = ckpt_dir
            .as_deref()
            .ok_or("resume requires --checkpoint-dir")?;
        let ckpt = load_checkpoint(dir).map_err(|e| format!("cannot load checkpoint: {e}"))?;
        println!("resuming from {} at round {}", dir.display(), ckpt.round);
        ckpt.config
    } else {
        config_from_args(args)?
    };

    let injector = parse_faults(args)?.map(|spec| spec.plan_for(&cfg, rounds));

    println!(
        "training {} | {} clients | tau = {} | B_l = {} | B_g = {} | {} | \
         {} worker thread(s) | {} backend | {} storage",
        cfg.model,
        cfg.population,
        cfg.local_steps,
        cfg.local_batch,
        cfg.global_batch(),
        match cfg.server_opt {
            ServerOptKind::FedAvg { .. } => "fedavg",
            ServerOptKind::FedMom { .. } => "fedmom",
            ServerOptKind::FedAdam { .. } => "fedadam",
            ServerOptKind::DiLoCo { .. } => "diloco",
        },
        threads,
        backend,
        cfg.dtype.as_str()
    );
    if let Some(inj) = &injector {
        println!(
            "fault plan: {} client fault(s), {} aggregator crash(es), {} join(s), \
             {} leave(s) over {rounds} round(s)",
            inj.count(Tally::ClientFaults),
            inj.count(Tally::Event(FaultEvent::AggCrash)),
            inj.count(Tally::Joins),
            inj.count(Tally::Event(FaultEvent::Leave))
        );
        let partitions = inj.count(Tally::Partitions);
        let slow_links = inj.count(Tally::Event(FaultEvent::SlowLink));
        let lossy = inj.count(Tally::LinkLosses);
        if partitions + slow_links + lossy > 0 {
            println!(
                "network chaos: {partitions} partition window(s), {slow_links} slow link(s), \
                 {lossy} lossy cell(s)"
            );
        }
    }
    if let Some(membership) = cfg.membership {
        let buffered = match cfg.buffer {
            Some(b) => format!(
                " | buffered commit: quorum {}, staleness decay {}",
                b.quorum, b.staleness_decay
            ),
            None => String::new(),
        };
        println!(
            "elastic membership: lease {} ms, round {} ms{buffered}",
            membership.lease_ms, membership.round_ms
        );
    }
    if let Some(h) = &cfg.hierarchy {
        println!(
            "hierarchical aggregation: {} shard(s), shard quorum {:.0}%, \
             max {} resident update(s) per shard",
            h.shards,
            h.shard_quorum_frac * 100.0,
            h.max_resident
        );
    }

    let opts = TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every,
            eval_windows: 48,
            stop_below: None,
        },
        checkpoint_dir: ckpt_dir.clone(),
        checkpoint_every: args.get_parsed("checkpoint-every", 5)?,
        recovery_budget: args.get_parsed("recovery-budget", 3)?,
        resume,
        metrics_json: args.get("metrics-json").map(PathBuf::from),
    };
    let outcome = run_training(
        || {
            let (fed, val) = build_data(&cfg, args).map_err(CoreError::InvalidConfig)?;
            fed.aggregator.telemetry().record_compute_threads(threads);
            Ok((fed, val))
        },
        &opts,
        injector.as_ref(),
    )
    .map_err(|e| e.to_string())?;

    for r in &outcome.history.rounds {
        let mut turbulence = if r.dropouts + r.stragglers > 0 || r.retransmits > 0 {
            format!(
                " | drop {} strag {} rtx {}",
                r.dropouts, r.stragglers, r.retransmits
            )
        } else {
            String::new()
        };
        if r.joined + r.departed + r.lease_expired + r.rejoined > 0 {
            turbulence.push_str(&format!(
                " | join {} leave {} expire {} rejoin {}",
                r.joined, r.departed, r.lease_expired, r.rejoined
            ));
        }
        if r.commit_deferred {
            turbulence.push_str(&format!(" | buffering ({} pending)", r.buffered));
        } else if r.buffered > 0 {
            turbulence.push_str(&format!(" | buffer {}", r.buffered));
        }
        if r.shard_crashes + r.shard_hangs + r.shard_degraded > 0 {
            turbulence.push_str(&format!(
                " | shards: {} crash {} hang {} degraded",
                r.shard_crashes, r.shard_hangs, r.shard_degraded
            ));
        }
        if r.reparented > 0 {
            turbulence.push_str(&format!(" | reparented {}", r.reparented));
        }
        if r.degraded {
            turbulence.push_str(&format!(" | DEGRADED ({} unreachable)", r.unreachable));
        } else if r.unreachable > 0 {
            turbulence.push_str(&format!(" | unreachable {}", r.unreachable));
        }
        match r.eval_ppl {
            Some(p) => println!(
                "round {:>4} | loss {:.4} | val ppl {:>8.2} | wire {:>7.1} KB{turbulence}",
                r.round,
                r.mean_client_loss,
                p,
                r.wire_bytes as f64 / 1024.0
            ),
            None => println!(
                "round {:>4} | loss {:.4}{turbulence}",
                r.round, r.mean_client_loss
            ),
        }
    }
    if let Some(best) = outcome.history.best_ppl() {
        println!("best validation perplexity: {best:.2}");
    }
    // The summary is a rendering of the run's one metrics snapshot.
    let snapshot = outcome.snapshot();
    let faults = snapshot.fault_counters;
    // A resume's restart from the checkpoint is not a fault it absorbed.
    let absorbed = photon_core::FaultCounters {
        coordinator_restarts: 0,
        ..faults
    };
    if outcome.recoveries > 0 || absorbed != photon_core::FaultCounters::default() {
        println!(
            "faults absorbed: {} crash(es), {} straggler(s), {} retransmit(s), \
             {} link dropout(s), {} recovery(ies)",
            faults.crashes,
            faults.stragglers,
            faults.retransmits,
            faults.link_dropouts,
            outcome.recoveries
        );
    }
    let guarded = faults.rejected_nonfinite
        + faults.rejected_outliers
        + faults.norm_clipped
        + faults.quarantine_skips;
    if guarded > 0 || outcome.rollbacks > 0 {
        println!(
            "guard: {} non-finite rejection(s), {} outlier rejection(s), \
             {} norm clip(s), {} quarantine skip(s), {} rollback(s)",
            faults.rejected_nonfinite,
            faults.rejected_outliers,
            faults.norm_clipped,
            faults.quarantine_skips,
            outcome.rollbacks
        );
    }
    if faults.joins + faults.leaves + faults.lease_expiries + faults.rejoins > 0 {
        println!(
            "churn: {} join(s), {} leave(s), {} lease expiry(ies), {} rejoin(s)",
            faults.joins, faults.leaves, faults.lease_expiries, faults.rejoins
        );
    }
    if faults.buffered_commits > 0 {
        println!(
            "buffered aggregation: {} commit(s), {} stale update(s) down-weighted",
            faults.buffered_commits, faults.stale_commits
        );
    }
    if faults.shard_crashes + faults.shard_hangs + faults.shard_degraded + faults.reparented > 0 {
        println!(
            "shard faults: {} crash(es), {} hang(s), {} degraded commit(s), \
             {} orphan(s) re-parented",
            faults.shard_crashes, faults.shard_hangs, faults.shard_degraded, faults.reparented
        );
    }
    let network = &snapshot.network;
    if let (Some(p50), Some(p99)) = (network.latency_p50_ms, network.latency_p99_ms) {
        println!(
            "network: {} delivery(ies), latency p50 {p50} ms / p99 {p99} ms, \
             {} loss(es), {} duplicate(s) dropped, {} partition drop(s)",
            network.deliveries, faults.link_losses, faults.dup_drops, faults.partition_drops
        );
    }
    if faults.degraded_rounds > 0 {
        println!(
            "degraded mode: {} round(s) below quorum, {} recovery(ies)",
            faults.degraded_rounds, faults.degraded_recoveries
        );
    }
    if let Some(path) = args.get("metrics-json") {
        // The recovery driver rewrites the file atomically after every
        // round (and once more after the final round), so it is already
        // current here.
        println!("live metrics written to {path}");
    }
    if tracing_on {
        // Final drain: everything the last round recorded lands in the
        // sinks, and the merged summary feeds the phase-profile report.
        match photon_trace::flush() {
            Ok(summary) => print_phase_report(&summary, rounds),
            Err(e) => eprintln!("warning: final trace flush failed: {e}"),
        }
        if let Some(path) = &trace_jsonl {
            println!("trace written to {}", path.display());
        }
        if let Some(path) = &metrics_text {
            println!("metrics snapshot written to {}", path.display());
        }
    }
    if let Some(dir) = ckpt_dir {
        println!("checkpoint saved to {}", dir.display());
    }
    Ok(())
}

/// Resolves `--threads` and `--backend` before any kernel runs and returns
/// the worker count and the backend's effective name. An absent
/// `--threads` means auto (PHOTON_THREADS env, else the machine's
/// parallelism) and an explicit 0 forces the serial paths; an absent
/// `--backend` means PHOTON_BACKEND env, else CPU detection, and simd on a
/// host without AVX2/FMA falls back to scalar.
fn init_compute(args: &Args) -> Result<(usize, &'static str), String> {
    if let Some(t) = args.get_opt_parsed::<usize>("threads")? {
        photon_tensor::ops::pool::set_max_threads(if t == 0 { 1 } else { t });
    }
    if let Some(name) = args.get("backend") {
        let kind = photon_tensor::backend::BackendKind::parse(name)
            .ok_or_else(|| format!("unknown --backend {name:?} (scalar|simd)"))?;
        photon_tensor::backend::set_backend(kind);
    }
    Ok((
        photon_tensor::ops::pool::max_threads(),
        photon_tensor::backend::active_name(),
    ))
}

/// `--faults`, parsed.
fn parse_faults(args: &Args) -> Result<Option<FaultSpec>, String> {
    args.get("faults")
        .map(|spec| FaultSpec::parse(spec).map_err(|e| format!("--faults: {e}")))
        .transpose()
}

/// The end-of-run observability summary: per-phase wall-time shares with
/// per-phase p50/p95 latencies, plus round-level latency and wire-byte
/// distributions from the recorder's histograms.
fn print_phase_report(summary: &photon_trace::FlushSummary, rounds: u64) {
    if summary.profile.is_empty() {
        return;
    }
    println!();
    print!("{}", summary.profile.render_report());
    if let Some(stat) = summary.profile.get(photon_trace::Phase::Round) {
        let h = &stat.hist;
        println!(
            "round wall time: p50 {:.1} ms, p95 {:.1} ms over {} span(s)",
            h.quantile(0.5) as f64 / 1e6,
            h.quantile(0.95) as f64 / 1e6,
            h.count()
        );
    }
    if let Some(h) = summary.hists.get("round.wire_bytes") {
        println!(
            "bytes on wire per round: p50 {:.1} KB, p95 {:.1} KB, total {:.1} KB",
            h.quantile(0.5) as f64 / 1024.0,
            h.quantile(0.95) as f64 / 1024.0,
            h.sum() as f64 / 1024.0
        );
    }
    if summary.events_dropped > 0 {
        eprintln!(
            "warning: {} trace event(s) dropped to ring-buffer overflow \
             ({} written over {rounds} round(s))",
            summary.events_dropped, summary.events_written
        );
    }
}

fn config_from_args(args: &Args) -> Result<FederationConfig, String> {
    let model = parse_model(args.get_or("model", "tiny"))?;
    let clients: usize = args.get_parsed("clients", 4)?;
    let mut cfg = FederationConfig::quick_demo(model, clients);
    cfg.positions = match args.get_or("positions", "alibi") {
        "alibi" => photon_nn::PosEncoding::Alibi,
        "learned" => photon_nn::PosEncoding::Learned,
        other => return Err(format!("unknown --positions {other:?} (alibi|learned)")),
    };
    cfg.local_steps = args.get_parsed("local-steps", 16)?;
    cfg.local_batch = args.get_parsed("batch", 8)?;
    cfg.seed = args.get_parsed("seed", 42)?;
    cfg.compress_link = args.flag("compress");
    cfg.secure_agg = args.flag("secure");
    if let Some(name) = args.get("dtype") {
        cfg.dtype = photon_tensor::Dtype::parse(name)
            .ok_or_else(|| format!("unknown --dtype {name:?} (f32|bf16)"))?;
    }
    cfg.allow_partial_results = args.flag("partial-ok");
    if let Some(rule) = args.get("aggregation") {
        cfg.aggregation =
            AggregationKind::parse(rule).map_err(|e| format!("--aggregation: {e}"))?;
    }
    if args.flag("guard") {
        cfg.guard = GuardConfig::on();
    }
    if let Some(mult) = args.get_opt_parsed::<f64>("loss-spike-mult")? {
        cfg.loss_spike_mult = Some(mult);
    }
    cfg.round_deadline_ms = args.get_opt_parsed::<u64>("deadline-ms")?;
    if let Some(retries) = args.get_opt_parsed::<u32>("retransmit-budget")? {
        cfg.retransmit.max_retries = retries;
    }
    if let Some(pct) = args.get_opt_parsed::<u32>("link-jitter-pct")? {
        cfg.retransmit.jitter_pct = pct;
    }
    if let Some(ms) = args.get_opt_parsed::<u64>("link-timeout-ms")? {
        cfg.retransmit.timeout_ms = ms;
    }
    // Simulated network: any --net-* flag switches the link model on;
    // unset knobs keep their defaults.
    let net_latency = args.get_opt_parsed::<u64>("net-latency-ms")?;
    let net_jitter = args.get_opt_parsed::<u64>("net-jitter-ms")?;
    let net_bw = args.get_opt_parsed::<u64>("net-bw-kbps")?;
    let net_loss = args.get_opt_parsed::<f64>("net-loss")?;
    let net_dup = args.get_opt_parsed::<f64>("net-dup")?;
    let net_reorder = args.get_opt_parsed::<u64>("net-reorder-ms")?;
    let net_quorum = args.get_opt_parsed::<f64>("net-quorum")?;
    let net_slow = args.get_opt_parsed::<u64>("net-slow-factor")?;
    if net_latency.is_some()
        || net_jitter.is_some()
        || net_bw.is_some()
        || net_loss.is_some()
        || net_dup.is_some()
        || net_reorder.is_some()
        || net_quorum.is_some()
        || net_slow.is_some()
    {
        let defaults = NetworkConfig::default();
        cfg.network = Some(NetworkConfig {
            profile: LinkProfile {
                base_latency_ms: net_latency.unwrap_or(0),
                jitter_ms: net_jitter.unwrap_or(0),
                bandwidth_kbps: net_bw.unwrap_or(0),
                loss_rate: net_loss.unwrap_or(0.0),
                dup_rate: net_dup.unwrap_or(0.0),
                reorder_window_ms: net_reorder.unwrap_or(0),
            },
            min_quorum_frac: net_quorum.unwrap_or(defaults.min_quorum_frac),
            slow_factor: net_slow.unwrap_or(defaults.slow_factor),
        });
    }
    // Adaptive deadline: the flag or any of its knobs enables it; config
    // validation rejects combining it with a fixed --deadline-ms.
    let dl_pct = args.get_opt_parsed::<f64>("deadline-percentile")?;
    let dl_floor = args.get_opt_parsed::<u64>("deadline-floor-ms")?;
    let dl_ceiling = args.get_opt_parsed::<u64>("deadline-ceiling-ms")?;
    if args.flag("adaptive-deadline")
        || dl_pct.is_some()
        || dl_floor.is_some()
        || dl_ceiling.is_some()
    {
        let d = AdaptiveDeadlineConfig::default();
        cfg.adaptive_deadline = Some(AdaptiveDeadlineConfig {
            percentile: dl_pct.unwrap_or(d.percentile),
            floor_ms: dl_floor.unwrap_or(d.floor_ms),
            ceiling_ms: dl_ceiling.unwrap_or(d.ceiling_ms),
            window: d.window,
        });
    }
    // Elastic membership: --lease-ms and --buffer-quorum imply it, since
    // both are meaningless without the lease state machine.
    let lease_ms = args.get_opt_parsed::<u64>("lease-ms")?;
    let round_ms = args.get_opt_parsed::<u64>("round-ms")?;
    let quorum = args.get_opt_parsed::<usize>("buffer-quorum")?;
    if args.flag("membership") || lease_ms.is_some() || quorum.is_some() {
        let mut membership = MembershipConfig::default();
        if let Some(ms) = lease_ms {
            membership.lease_ms = ms;
        }
        if let Some(ms) = round_ms {
            membership.round_ms = ms;
        }
        cfg.membership = Some(membership);
    }
    if let Some(quorum) = quorum {
        let mut buffer = BufferConfig {
            quorum,
            ..BufferConfig::default()
        };
        if let Some(decay) = args.get_opt_parsed::<f64>("staleness-decay")? {
            buffer.staleness_decay = decay;
        }
        cfg.buffer = Some(buffer);
    }
    // Hierarchical aggregation: --shards enables the sub-aggregator tree;
    // its two knobs imply it.
    let shards = args.get_opt_parsed::<usize>("shards")?;
    let shard_quorum = args.get_opt_parsed::<f64>("shard-quorum-frac")?;
    let max_resident = args.get_opt_parsed::<usize>("max-resident")?;
    if shards.is_some() || shard_quorum.is_some() || max_resident.is_some() {
        let mut hierarchy = HierarchyConfig::default();
        if let Some(n) = shards {
            hierarchy.shards = n;
        }
        if let Some(frac) = shard_quorum {
            hierarchy.shard_quorum_frac = frac;
        }
        if let Some(n) = max_resident {
            hierarchy.max_resident = n;
        }
        cfg.hierarchy = Some(hierarchy);
    }
    if let Some(k) = args.get("sample") {
        cfg.cohort = CohortSpec::Sample {
            k: k.parse().map_err(|_| format!("invalid --sample {k:?}"))?,
        };
    }
    let lr: f32 = args.get_parsed("lr", 6e-3)?;
    let rounds: u64 = args.get_parsed("rounds", 12)?;
    cfg.schedule = LrSchedule::paper_cosine(lr, 10, (rounds * cfg.local_steps).max(20));
    cfg.server_opt = match args.get_or("server-opt", "fedavg") {
        "fedavg" => ServerOptKind::photon_default(),
        "fedmom" => ServerOptKind::FedMom {
            lr: 1.0,
            momentum: 0.9,
        },
        "fedadam" => ServerOptKind::FedAdam { lr: 0.01 },
        "diloco" => ServerOptKind::diloco_default(),
        other => return Err(format!("unknown --server-opt {other:?}")),
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn build_data(
    cfg: &FederationConfig,
    args: &Args,
) -> Result<(Federation, photon_data::TokenCorpus), String> {
    let tokens: usize = args.get_parsed("tokens-per-client", 20_000)?;
    match args.get_or("data", "web") {
        "web" => build_iid_federation(cfg, tokens).map_err(|e| e.to_string()),
        "pile" => build_heterogeneous_federation(cfg, tokens * 4).map_err(|e| e.to_string()),
        other => Err(format!("unknown --data {other:?} (web|pile)")),
    }
}

fn parse_model(name: &str) -> Result<ModelConfig, String> {
    Ok(match name {
        "tiny" => ModelConfig::proxy_tiny(),
        "small" => ModelConfig::proxy_small(),
        "medium" => ModelConfig::proxy_medium(),
        "large" => ModelConfig::proxy_large(),
        other => {
            return Err(format!(
                "unknown --model {other:?} (tiny|small|medium|large)"
            ))
        }
    })
}

const PLAN_HELP: &str = "photon plan — hardware planning

OPTIONS:
    --size 125M|1B|3B|7B   Table 1 deployment row [7B]";

/// `photon plan`.
pub fn plan(args: &Args) -> Result<(), String> {
    args.check_known(&[PLAN_HELP])?;
    if args.flag("help") {
        println!("{PLAN_HELP}");
        return Ok(());
    }
    use photon_cluster::{autotune_batch, paper_silos, select_strategy, Region, RegionGraph};
    use photon_comms::{Topology, WallTimeModel};

    let size = args.get_or("size", "7B");
    let model = match size {
        "125M" => ModelConfig::paper_125m(),
        "1B" => ModelConfig::paper_1_3b(),
        "3B" => ModelConfig::paper_3b(),
        "7B" => ModelConfig::paper_7b(),
        other => return Err(format!("unknown --size {other:?}")),
    };
    let silos = paper_silos(size);
    println!("plan for {size}: {} silos", silos.len());
    println!(
        "{:<16} {:>5} {:>18} {:>11} {:>9}",
        "silo", "gpus", "strategy", "batch/gpu", "act-ckpt"
    );
    for silo in &silos {
        let strategy = select_strategy(&model, silo);
        let tune = autotune_batch(&model, silo.gpu(), strategy, 64);
        println!(
            "{:<16} {:>5} {:>18} {:>11} {:>9}",
            silo.name,
            silo.total_gpus(),
            strategy.to_string(),
            tune.per_gpu_batch,
            tune.activation_ckpt
        );
    }
    let graph = RegionGraph::paper();
    let regions: Vec<Region> = silos.iter().map(|s| s.region).collect();
    let s_mb = model.param_bytes(2) as f64 / 1e6;
    println!(
        "\naggregation over the Fig. 2 bandwidths ({:.0} MB payload):",
        s_mb
    );
    for topology in Topology::all() {
        let gbps = match topology {
            Topology::ParameterServer => graph.slowest_star_link(Region::England, &regions),
            _ => graph.slowest_ring_link(&regions),
        };
        let wt = WallTimeModel::new(0.1, 500, s_mb, gbps * 125.0, topology);
        let round = wt.round_time(silos.len());
        println!(
            "  {:<4} bottleneck {:>5.1} Gbps -> {:>8.1} s/round ({:.2}% of round)",
            topology.to_string(),
            gbps,
            round.comm_s,
            100.0 * round.comm_fraction()
        );
    }
    Ok(())
}

const GENERATE_HELP: &str = "photon generate — sample text from a checkpoint

OPTIONS:
    --checkpoint-dir DIR   (required)
    --prompt TEXT          [\"The \"]
    --tokens N             [120]
    --temperature X        [0.8]
    --top-k N              [20]
    --seed N               [0]";

/// `photon generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    args.check_known(&[GENERATE_HELP])?;
    if args.flag("help") {
        println!("{GENERATE_HELP}");
        return Ok(());
    }
    let model = load_model(args)?;
    let tokenizer = ByteTokenizer::new();
    let prompt = args.get_or("prompt", "The ");
    let n: usize = args.get_parsed("tokens", 120)?;
    let cfg = SampleConfig {
        temperature: args.get_parsed("temperature", 0.8f32)?,
        top_k: args.get_parsed("top-k", 20usize)?,
    };
    let mut rng = SeedStream::new(args.get_parsed("seed", 0u64)?);
    let ids = tokenizer.encode(prompt);
    if ids.is_empty() {
        return Err("--prompt must be non-empty".into());
    }
    let out = sample_tokens(&model, &ids, n, &cfg, &mut rng);
    println!("{prompt}{}", tokenizer.decode(&out));
    Ok(())
}

const DOWNSTREAM_HELP: &str = "photon downstream — synthetic in-context evaluation

OPTIONS:
    --checkpoint-dir DIR   (required)
    --seed N               [7]";

/// `photon downstream`.
pub fn downstream(args: &Args) -> Result<(), String> {
    args.check_known(&[DOWNSTREAM_HELP])?;
    if args.flag("help") {
        println!("{DOWNSTREAM_HELP}");
        return Ok(());
    }
    let model = load_model(args)?;
    let seed: u64 = args.get_parsed("seed", 7)?;
    println!("{:<16} {:>10} {:>10}", "benchmark", "accuracy", "instances");
    for score in downstream_report(&model, seed) {
        println!(
            "{:<16} {:>10.3} {:>10}",
            score.benchmark, score.accuracy, score.instances
        );
    }
    Ok(())
}

fn load_model(args: &Args) -> Result<Gpt, String> {
    let dir = args
        .get("checkpoint-dir")
        .map(Path::new)
        .ok_or("missing --checkpoint-dir")?;
    let ckpt = load_checkpoint(dir).map_err(|e| format!("cannot load checkpoint: {e}"))?;
    Ok(Gpt::from_params(ckpt.config.model, ckpt.params))
}

const SERVE_HELP: &str = "photon serve — multi-process coordinator

Listens for `photon client` processes and runs `photon train`'s round
loop over them: the same cohort sampling, membership, buffer, shard tree,
guard, watchdog rollback and crash recovery. It survives kills: every
commit is checkpointed before its results are acked, and `--resume`
restores the checkpoint while live clients re-sync. A result that misses
--round-timeout-ms is a dropout of its round.

OPTIONS:
    --addr HOST:PORT           listen address        [127.0.0.1:7700]
    --rounds N                 federated rounds      [12]
    --min-clients N            connections required before rounds start
                               [--clients]
    --checkpoint-dir DIR       checkpoint every commit here; required
                               for crash-restart
    --resume                   restore from --checkpoint-dir if a
                               checkpoint exists
    --warmup-ms N              settle delay before round 0   [200]
    --cooldown-ms N            grace window after the last round [200]
    --round-timeout-ms N       per-round result deadline     [30000]
    --heartbeat-timeout-ms N   quiet-connection miss window  [500]
    --metrics-json PATH        metrics snapshot after every commit
    --health-port N            serve GET /metrics (Prometheus text) and
                               GET /health (JSON) on 127.0.0.1:N for the
                               lifetime of the run (0 = ephemeral port)
    --trace-jsonl PATH         this process's trace shard as JSON lines;
                               frames to/from clients carry span contexts
                               so `photon trace merge` can join the
                               per-process shards into one timeline
    --metrics-text PATH        Prometheus text snapshot per commit
    --trace-kernels            also emit per-kernel spans into the shard
    --flight-dir DIR           crash flight recorder: on panic or an
                               injected coordkill, dump the last spans
                               to DIR/flight-<pid>.jsonl
    --faults SPEC              `photon train`'s fault grammar (clients
                               apply their faults themselves), plus
                               process faults: netcrash@rNcM (client
                               severs its socket mid-round),
                               nethang@rNcM (client goes silent),
                               coordkill@rN (coordinator exits after
                               committing round N)
    plus the options of `photon train` (--model, --clients, --shards,
    --membership, --threads, --backend, ...); --secure is rejected";

/// Switches the recorder on for a multi-process entry point (real
/// monotonic clock — shards from different processes are aligned later
/// by `photon trace merge` via the handshake offset estimate) and arms
/// the crash flight recorder when `--flight-dir` asks for one.
fn init_process_observability(args: &Args) -> Result<bool, String> {
    let trace_jsonl = args.get("trace-jsonl").map(PathBuf::from);
    let metrics_text = args.get("metrics-text").map(PathBuf::from);
    let tracing_on = trace_jsonl.is_some() || metrics_text.is_some();
    if tracing_on {
        photon_trace::init(photon_trace::TraceConfig {
            jsonl: trace_jsonl,
            prometheus: metrics_text,
            kernel_events: args.flag("trace-kernels"),
            clock: photon_trace::ClockMode::Monotonic,
        })
        .map_err(|e| format!("cannot initialize tracing: {e}"))?;
    }
    if let Some(dir) = args.get("flight-dir") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create --flight-dir {}: {e}", dir.display()))?;
        let path = dir.join(format!("flight-{}.jsonl", std::process::id()));
        photon_trace::flight_init(&path);
        photon_trace::flight_install_panic_hook();
    }
    Ok(tracing_on)
}

/// `photon serve`.
pub fn serve(args: &Args) -> Result<(), String> {
    args.check_known(&[SERVE_HELP, TRAIN_HELP])?;
    if args.flag("help") {
        println!("{SERVE_HELP}");
        return Ok(());
    }
    init_compute(args)?;
    let tracing_on = init_process_observability(args)?;
    // Flush the shard even when serve() errors or an injected fault cuts
    // the run short mid-round.
    let _flush = tracing_on.then(photon_trace::flush_guard);
    let mut cfg = config_from_args(args)?;
    // Multi-process rounds always tolerate partial cohorts: a client can
    // die mid-round and the deadline path must still commit.
    cfg.allow_partial_results = true;
    cfg.validate().map_err(|e| e.to_string())?;
    let rounds: u64 = args.get_parsed("rounds", 12)?;
    let faults = parse_faults(args)?;
    let min_clients = args.get_parsed("min-clients", cfg.population)?;
    let plan = photon_net::RunPlan {
        tokens_per_client: args.get_parsed("tokens-per-client", 20_000)?,
        rounds,
        faults,
        cfg,
    };
    let opts = photon_net::ServeOptions {
        addr: args.get_or("addr", "127.0.0.1:7700").to_string(),
        plan,
        min_clients,
        checkpoint_dir: args.get("checkpoint-dir").map(PathBuf::from),
        resume: args.flag("resume"),
        warmup_ms: args.get_parsed("warmup-ms", 200)?,
        cooldown_ms: args.get_parsed("cooldown-ms", 200)?,
        round_timeout_ms: args.get_parsed("round-timeout-ms", 30_000)?,
        heartbeat_timeout_ms: args.get_parsed("heartbeat-timeout-ms", 500)?,
        metrics_json: args.get("metrics-json").map(PathBuf::from),
        stop_after_rounds: None,
        health_port: args.get_opt_parsed("health-port")?,
    };
    let report = photon_net::serve(&opts).map_err(|e| e.to_string())?;
    if let Some(from) = report.resumed_from {
        println!("resumed from checkpointed round {from}");
    }
    for (i, loss) in report.round_losses.iter().enumerate() {
        println!(
            "round {:>3}  mean client loss {loss:.4}",
            report.final_round as usize - report.round_losses.len() + i
        );
    }
    println!(
        "serve done: {} rounds committed (final round {}), {} session resumes",
        report.rounds_run, report.final_round, report.session_resumes
    );
    Ok(())
}

const CLIENT_HELP: &str = "photon client — one training participant

Connects to a `photon serve` coordinator, receives the run plan, and
trains every broadcast round. Rides out crashes on either side: it
reconnects with capped-exponential backoff, resumes its session by
token, and re-delivers un-acked results (the coordinator deduplicates).

OPTIONS:
    --addr HOST:PORT        coordinator address    [127.0.0.1:7700]
    --heartbeat-ms N        heartbeat cadence      [100]
    --reconnect-base-ms N   backoff base delay     [50]
    --reconnect-cap-ms N    backoff cap            [2000]
    --max-attempts N        reconnect budget       [120]
    --hang-ms N             nethang silence length [1500]
    --session-file PATH     persist the session identity so a killed
                            and restarted client process resumes its
                            session instead of re-joining
    --trace-jsonl PATH      this process's trace shard as JSON lines,
                            mergeable with the coordinator's shard via
                            `photon trace merge`
    --metrics-text PATH     Prometheus text snapshot on flush
    --trace-kernels         also emit per-kernel spans into the shard
    --flight-dir DIR        dump the last spans to
                            DIR/flight-<pid>.jsonl on panic";

/// `photon client`.
pub fn client(args: &Args) -> Result<(), String> {
    args.check_known(&[CLIENT_HELP])?;
    if args.flag("help") {
        println!("{CLIENT_HELP}");
        return Ok(());
    }
    let tracing_on = init_process_observability(args)?;
    let _flush = tracing_on.then(photon_trace::flush_guard);
    let opts = photon_net::ClientOptions {
        addr: args.get_or("addr", "127.0.0.1:7700").to_string(),
        heartbeat_interval_ms: args.get_parsed("heartbeat-ms", 100)?,
        reconnect_base_ms: args.get_parsed("reconnect-base-ms", 50)?,
        reconnect_cap_ms: args.get_parsed("reconnect-cap-ms", 2_000)?,
        max_connect_attempts: args.get_parsed("max-attempts", 120)?,
        hang_ms: args.get_parsed("hang-ms", 1_500)?,
        session_file: args.get("session-file").map(PathBuf::from),
    };
    let report = photon_net::run_client(&opts).map_err(|e| e.to_string())?;
    println!(
        "client {} done: {} rounds trained, {} reconnects ({} resumed), clean shutdown: {}",
        report.client_id,
        report.rounds_trained,
        report.reconnects,
        report.resumed_sessions,
        report.clean_shutdown
    );
    Ok(())
}

const TRACE_HELP: &str = "photon trace — distributed-trace tooling

ACTIONS:
    merge    join per-process trace shards into one timeline

`photon trace merge` aligns every shard onto the coordinator's clock
(each shard's process_meta line carries the offset its process estimated
during the session handshake), interleaves the events into one
chrome://tracing-compatible JSONL stream, and reports how many
cross-process send/recv edges found both endpoints.

OPTIONS:
    --inputs A,B,...   comma-separated shard paths
    --dir DIR          also merge every *.jsonl in DIR
                       (flight-*.jsonl crash dumps are skipped)
    --out PATH         write the merged timeline here [stdout]";

/// `photon trace <action>`.
pub fn trace(args: &Args, action: Option<&str>) -> Result<(), String> {
    args.check_known(&[TRACE_HELP])?;
    if args.flag("help") || action.is_none() {
        println!("{TRACE_HELP}");
        return match action {
            None if !args.flag("help") => Err("missing trace action (try `merge`)".into()),
            _ => Ok(()),
        };
    }
    match action.unwrap() {
        "merge" => trace_merge(args),
        other => Err(format!("unknown trace action {other:?}\n\n{TRACE_HELP}")),
    }
}

/// `photon trace merge`.
fn trace_merge(args: &Args) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    if let Some(list) = args.get("inputs") {
        paths.extend(list.split(',').filter(|p| !p.is_empty()).map(PathBuf::from));
    }
    if let Some(dir) = args.get("dir") {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read --dir {dir}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".jsonl") && !name.starts_with("flight-")
            })
            .collect();
        found.sort();
        paths.extend(found);
    }
    if paths.is_empty() {
        return Err("no shards: pass --inputs and/or --dir".into());
    }
    let mut shards = Vec::with_capacity(paths.len());
    for path in &paths {
        shards.push(
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read shard {}: {e}", path.display()))?,
        );
    }
    let merged =
        photon_trace::merge_shards(&shards).map_err(|e| format!("cannot merge shards: {e}"))?;
    let stats = photon_trace::net_edge_stats(&merged);
    match args.get("out") {
        Some(out) => {
            photon_trace::atomic_write(Path::new(out), &merged)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "merged {} shard(s), {} event(s) -> {out}",
                shards.len(),
                merged.lines().count()
            );
        }
        None => print!("{merged}"),
    }
    eprintln!(
        "net edges: {} send(s), {} recv(s), {} matched ({:.1}%)",
        stats.sends,
        stats.recvs,
        stats.matched,
        stats.matched_frac() * 100.0
    );
    Ok(())
}
