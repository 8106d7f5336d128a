//! Implementations of the `photon` subcommands.

use crate::args::{Args, Command};
use crate::options::{
    Options, CLIENT, DOWNSTREAM, GENERATE, PLAN, RESUME, SERVE, TRACE_MERGE, TRAIN,
};
use photon_core::experiments::{
    build_heterogeneous_federation, build_iid_federation, downstream_report,
};
use photon_core::{load_checkpoint, run_training, FaultEvent, Federation, Tally};
use photon_fedopt::ServerOptKind;
use photon_nn::{generate as sample_tokens, Gpt, ModelConfig};
use photon_tensor::SeedStream;
use photon_tokenizer::{ByteTokenizer, Tokenizer};
use photon_trace::{ClockMode, TraceConfig};
use std::path::PathBuf;

/// Parses `args` as `command`: `None` when `--help` asked for (and got)
/// the command's help instead of a run.
fn options(command: &Command, args: &Args) -> Result<Option<Options>, String> {
    let options = command.parse(args)?;
    if options.help {
        println!("{}", command.help());
        return Ok(None);
    }
    Ok(Some(options))
}

/// `photon train` / `photon resume`.
pub fn train(args: &Args, resume: bool) -> Result<(), String> {
    let Some(mut o) = options(if resume { &RESUME } else { &TRAIN }, args)? else {
        return Ok(());
    };
    let (threads, backend) = init_compute(&o);
    let tracing_on = init_tracing(&o, ClockMode::Sim)?;
    let rounds = o.plan.rounds;
    o.training.run.rounds = rounds;
    o.training.run.eval_windows = 48;
    o.training.resume = resume;
    if resume {
        let dir = o.training.checkpoint_dir.as_deref();
        let dir = dir.ok_or("resume requires --checkpoint-dir")?;
        let ckpt = load_checkpoint(dir).map_err(|e| format!("cannot load checkpoint: {e}"))?;
        println!("resuming from {} at round {}", dir.display(), ckpt.round);
        o.plan.cfg = ckpt.config;
    }
    let cfg = &o.plan.cfg;
    let injector = o.plan.fault_plan();

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

    let outcome = run_training(
        || {
            let (fed, val) = build_data(&o)?;
            fed.aggregator.telemetry().record_compute_threads(threads);
            Ok((fed, val))
        },
        &o.training,
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
    if let Some(path) = &o.training.metrics_json {
        // The recovery driver rewrites the file atomically after every
        // round (and once more after the final round), so it is already
        // current here.
        println!("live metrics written to {}", path.display());
    }
    if tracing_on {
        // Final drain: everything the last round recorded lands in the
        // sinks, and the merged summary feeds the phase-profile report.
        match photon_trace::flush() {
            Ok(summary) => print_phase_report(&summary, rounds),
            Err(e) => eprintln!("warning: final trace flush failed: {e}"),
        }
        if let Some(path) = &o.trace.jsonl {
            println!("trace written to {}", path.display());
        }
        if let Some(path) = &o.trace.prometheus {
            println!("metrics snapshot written to {}", path.display());
        }
    }
    if let Some(dir) = &o.training.checkpoint_dir {
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
fn init_compute(o: &Options) -> (usize, &'static str) {
    if let Some(t) = o.threads {
        photon_tensor::ops::pool::set_max_threads(if t == 0 { 1 } else { t });
    }
    if let Some(kind) = o.backend {
        photon_tensor::backend::set_backend(kind);
    }
    (
        photon_tensor::ops::pool::max_threads(),
        photon_tensor::backend::active_name(),
    )
}

/// Switches the recorder on when a trace sink is asked for, stamping
/// events with `clock`; otherwise the hot paths pay one relaxed atomic
/// load and nothing else.
fn init_tracing(o: &Options, clock: ClockMode) -> Result<bool, String> {
    let on = o.trace.jsonl.is_some() || o.trace.prometheus.is_some();
    if on {
        photon_trace::init(TraceConfig {
            clock,
            ..o.trace.clone()
        })
        .map_err(|e| format!("cannot initialize tracing: {e}"))?;
    }
    Ok(on)
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

fn build_data(o: &Options) -> photon_core::Result<(Federation, photon_data::TokenCorpus)> {
    let (cfg, tokens) = (&o.plan.cfg, o.plan.tokens_per_client);
    if o.pile {
        build_heterogeneous_federation(cfg, tokens * 4)
    } else {
        build_iid_federation(cfg, tokens)
    }
}

/// `photon plan`.
pub fn plan(args: &Args) -> Result<(), String> {
    let Some(o) = options(&PLAN, args)? else {
        return Ok(());
    };
    use photon_cluster::{autotune_batch, paper_silos, select_strategy, Region, RegionGraph};
    use photon_comms::{Topology, WallTimeModel};

    let size = o.size.as_str();
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

/// `photon generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    let Some(o) = options(&GENERATE, args)? else {
        return Ok(());
    };
    let model = load_model(&o)?;
    let tokenizer = ByteTokenizer::new();
    let ids = tokenizer.encode(&o.prompt);
    if ids.is_empty() {
        return Err("--prompt must be non-empty".into());
    }
    let mut rng = SeedStream::new(o.sample_seed);
    let out = sample_tokens(&model, &ids, o.tokens, &o.sampling, &mut rng);
    println!("{}{}", o.prompt, tokenizer.decode(&out));
    Ok(())
}

/// `photon downstream`.
pub fn downstream(args: &Args) -> Result<(), String> {
    let Some(o) = options(&DOWNSTREAM, args)? else {
        return Ok(());
    };
    let model = load_model(&o)?;
    println!("{:<16} {:>10} {:>10}", "benchmark", "accuracy", "instances");
    for score in downstream_report(&model, o.eval_seed) {
        println!(
            "{:<16} {:>10.3} {:>10}",
            score.benchmark, score.accuracy, score.instances
        );
    }
    Ok(())
}

fn load_model(o: &Options) -> Result<Gpt, String> {
    let dir = o.training.checkpoint_dir.as_deref();
    let dir = dir.ok_or("missing --checkpoint-dir")?;
    let ckpt = load_checkpoint(dir).map_err(|e| format!("cannot load checkpoint: {e}"))?;
    Ok(Gpt::from_params(ckpt.config.model, ckpt.params))
}

/// Switches the recorder on for a multi-process entry point (real
/// monotonic clock — shards from different processes are aligned later
/// by `photon trace merge` via the handshake offset estimate) and arms
/// the crash flight recorder when `--flight-dir` asks for one.
fn init_process_observability(o: &Options) -> Result<bool, String> {
    let tracing_on = init_tracing(o, ClockMode::Monotonic)?;
    if let Some(dir) = &o.flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --flight-dir {}: {e}", dir.display()))?;
        let path = dir.join(format!("flight-{}.jsonl", std::process::id()));
        photon_trace::flight_init(&path);
        photon_trace::flight_install_panic_hook();
    }
    Ok(tracing_on)
}

/// `photon serve`.
pub fn serve(args: &Args) -> Result<(), String> {
    let Some(o) = options(&SERVE, args)? else {
        return Ok(());
    };
    init_compute(&o);
    let tracing_on = init_process_observability(&o)?;
    // Flush the shard even when serve() errors or an injected fault cuts
    // the run short mid-round.
    let _flush = tracing_on.then(photon_trace::flush_guard);
    let opts = photon_net::ServeOptions {
        addr: o.client.addr,
        min_clients: o.min_clients.unwrap_or(o.plan.cfg.population),
        plan: o.plan,
        checkpoint_dir: o.training.checkpoint_dir,
        resume: o.training.resume,
        warmup_ms: o.warmup_ms,
        cooldown_ms: o.cooldown_ms,
        round_timeout_ms: o.round_timeout_ms,
        heartbeat_timeout_ms: o.heartbeat_timeout_ms,
        metrics_json: o.training.metrics_json,
        stop_after_rounds: None,
        health_port: o.health_port,
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

/// `photon client`.
pub fn client(args: &Args) -> Result<(), String> {
    let Some(o) = options(&CLIENT, args)? else {
        return Ok(());
    };
    let tracing_on = init_process_observability(&o)?;
    let _flush = tracing_on.then(photon_trace::flush_guard);
    let report = photon_net::run_client(&o.client).map_err(|e| e.to_string())?;
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

/// `photon trace <action>`.
pub fn trace(args: &Args, action: Option<&str>) -> Result<(), String> {
    let Some(o) = options(&TRACE_MERGE, args)? else {
        return Ok(());
    };
    match action {
        Some("merge") => trace_merge(o),
        None => {
            println!("{}", TRACE_MERGE.help());
            Err("missing trace action (try `merge`)".into())
        }
        Some(other) => Err(format!(
            "unknown trace action {other:?}\n\n{}",
            TRACE_MERGE.help()
        )),
    }
}

/// `photon trace merge`.
fn trace_merge(o: Options) -> Result<(), String> {
    let mut paths = o.inputs;
    if let Some(dir) = &o.dir {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read --dir {}: {e}", dir.display()))?
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
    match &o.out {
        Some(out) => {
            photon_trace::atomic_write(out, &merged)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            eprintln!(
                "merged {} shard(s), {} event(s) -> {}",
                shards.len(),
                merged.lines().count(),
                out.display()
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
