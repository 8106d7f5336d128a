//! The `photon` option table. Every option is one row, declared once:
//! its flag, value placeholder, help and the code that stores it into
//! [`Options`]. Commands list the groups of rows they read; `--help`, the
//! unknown-option check, switch-versus-value arity and parsing all come
//! from the rows.

use crate::args::{choose, name_of, value, Command, Kind, Opt};
use photon_core::{CohortSpec, FaultSpec, FederationConfig, TrainingOptions};
use photon_fedopt::{AggregationKind, GuardConfig, ServerOptKind};
use photon_net::{ClientOptions, RunPlan};
use photon_nn::{ModelConfig, PosEncoding, SampleConfig};
use photon_optim::LrSchedule;
use photon_tensor::backend::BackendKind;
use photon_tensor::Dtype;
use photon_trace::TraceConfig;
use std::path::PathBuf;

/// Everything a `photon` command line sets. Parsing starts from
/// [`Options::default`], and each option's `[default]` in `--help` is
/// read from it: no default is written twice.
#[derive(Debug, Clone)]
pub struct Options {
    /// What `train` runs and `serve` broadcasts: the federation config,
    /// rounds, tokens per client and fault schedule.
    pub plan: RunPlan,
    /// Peak client learning rate; the cosine schedule spans the run.
    pub lr: f32,
    /// Pile-style heterogeneous client data instead of IID web shards.
    pub pile: bool,
    /// The run driver's checkpoint, recovery, evaluation and metrics
    /// options (`train` sets `run.rounds` to `plan.rounds`).
    pub training: TrainingOptions,
    /// Kernel worker threads; `None` is PHOTON_THREADS, else every core.
    pub threads: Option<usize>,
    /// Compute backend; `None` is PHOTON_BACKEND, else CPU detection.
    pub backend: Option<BackendKind>,
    /// Trace sinks; each command picks the clock.
    pub trace: TraceConfig,
    /// Crash flight-recorder directory of `serve` and `client`.
    pub flight_dir: Option<PathBuf>,
    /// `serve`: connections required before rounds start; `None` is
    /// the population.
    pub min_clients: Option<usize>,
    /// `serve`: settle delay before round 0, in milliseconds.
    pub warmup_ms: u64,
    /// `serve`: grace window after the last round, in milliseconds.
    pub cooldown_ms: u64,
    /// `serve`: per-round result deadline, in milliseconds.
    pub round_timeout_ms: u64,
    /// `serve`: quiet-connection miss window, in milliseconds.
    pub heartbeat_timeout_ms: u64,
    /// `serve`: health endpoint port.
    pub health_port: Option<u16>,
    /// `client`'s options; `addr` is also where `serve` listens.
    pub client: ClientOptions,
    /// `plan`: the Table 1 deployment row.
    pub size: String,
    /// `generate`: the prompt.
    pub prompt: String,
    /// `generate`: tokens to sample.
    pub tokens: usize,
    /// `generate`: temperature and top-k.
    pub sampling: SampleConfig,
    /// `generate`: sampling seed.
    pub sample_seed: u64,
    /// `downstream`: the suite's seed.
    pub eval_seed: u64,
    /// `trace merge`: shard paths.
    pub inputs: Vec<PathBuf>,
    /// `trace merge`: a directory of shards.
    pub dir: Option<PathBuf>,
    /// `trace merge`: the merged timeline's path; `None` is stdout.
    pub out: Option<PathBuf>,
    /// `--help` was given.
    pub help: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            plan: RunPlan {
                cfg: FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 4),
                tokens_per_client: 20_000,
                rounds: 12,
                faults: None,
            },
            lr: 6e-3,
            pile: false,
            training: TrainingOptions::default(),
            threads: None,
            backend: None,
            trace: TraceConfig::default(),
            flight_dir: None,
            min_clients: None,
            warmup_ms: 200,
            cooldown_ms: 200,
            round_timeout_ms: 30_000,
            heartbeat_timeout_ms: 500,
            health_port: None,
            client: ClientOptions::default(),
            size: "7B".into(),
            prompt: "The ".into(),
            tokens: 120,
            sampling: SampleConfig {
                top_k: 20,
                ..SampleConfig::default()
            },
            sample_seed: 0,
            eval_seed: 7,
            inputs: Vec::new(),
            dir: None,
            out: None,
            help: false,
        }
    }
}

/// One row of the table; the last argument says how the value is stored:
/// `path` (a switch sets it to `true`; a value is parsed into it and its
/// default is the row's `[default]`), `Some(path)` (absent stays `None`),
/// `plan.cfg.section?.path` (a knob of an optional config section: giving
/// it turns the section on from its `Default`, which holds the knob's
/// `[default]`), `path in table` (a name from `(name, value)` pairs) or
/// code: `set` or `set, show`.
macro_rules! opt {
    ($flag:literal $ph:literal, $help:expr, Some($($f:ident).+)) => {
        opt!($flag $ph, $help, |o, v| value($flag, v).map(|x| o.$($f).+ = Some(x)))
    };
    ($flag:literal $ph:literal, $help:expr, plan.cfg.$s:ident ? . $($f:ident).+) => {
        opt!($flag $ph, $help, |o, v| value($flag, v)
                .map(|x| o.plan.cfg.$s.get_or_insert_with(Default::default).$($f).+ = x),
            |o| Some(o.plan.cfg.$s.unwrap_or_default().$($f).+.to_string()))
    };
    ($flag:literal $ph:literal, $help:expr, $($f:ident).+ in $table:expr) => {
        opt!($flag $ph, $help, |o, v| choose($flag, &$table, v).map(|x| o.$($f).+ = x),
            |o| name_of(&$table, &o.$($f).+))
    };
    ($flag:literal $ph:literal, $help:expr, $($f:ident).+) => {
        opt!($flag $ph, $help, |o, v| value($flag, v).map(|x| o.$($f).+ = x),
            |o| Some(o.$($f).+.to_string()))
    };
    ($flag:literal $ph:literal, $help:expr, $set:expr, $show:expr) => {
        Opt { flag: $flag, help: $help, kind: Kind::Value($ph, $set), show: $show }
    };
    ($flag:literal $ph:literal, $help:expr, $set:expr) => {
        opt!($flag $ph, $help, $set, |_| None)
    };
    ($flag:literal, $help:expr, $($f:ident).+) => {
        opt!($flag, $help, |o| o.$($f).+ = true)
    };
    ($flag:literal, $help:expr, $set:expr) => {
        Opt { flag: $flag, help: $help, kind: Kind::Switch($set), show: |_| None }
    };
}

#[rustfmt::skip]
fn models() -> [(&'static str, ModelConfig); 4] {
    [("tiny", ModelConfig::proxy_tiny()), ("small", ModelConfig::proxy_small()),
     ("medium", ModelConfig::proxy_medium()), ("large", ModelConfig::proxy_large())]
}

#[rustfmt::skip]
const POSITIONS: [(&str, PosEncoding); 2] =
    [("alibi", PosEncoding::Alibi), ("learned", PosEncoding::Learned)];

#[rustfmt::skip]
fn server_opts() -> [(&'static str, ServerOptKind); 4] {
    [("fedavg", ServerOptKind::photon_default()),
     ("fedmom", ServerOptKind::FedMom { lr: 1.0, momentum: 0.9 }),
     ("fedadam", ServerOptKind::FedAdam { lr: 0.01 }),
     ("diloco", ServerOptKind::diloco_default())]
}

const DATA: [(&str, bool); 2] = [("web", false), ("pile", true)];

/// The federation config: what `train` builds and `serve` broadcasts.
/// `--rounds` (in [`RUN`]) also sets the LR schedule's length.
#[rustfmt::skip]
const CONFIG: &[Opt] = &[
    opt!("model" "NAME", "proxy architecture: tiny|small|medium|large",
        plan.cfg.model in models()),
    opt!("positions" "alibi|learned", "positional scheme", plan.cfg.positions in POSITIONS),
    opt!("clients" "N", "population size", plan.cfg.population),
    opt!("sample" "K", "clients per round (partial participation; default: all)",
        |o, v| value("sample", v).map(|k| o.plan.cfg.cohort = CohortSpec::Sample { k })),
    opt!("local-steps" "N", "tau, steps per round", plan.cfg.local_steps),
    opt!("batch" "N", "local batch size B_l", plan.cfg.local_batch),
    opt!("lr" "X", "peak learning rate of a cosine schedule over the run's steps", lr),
    opt!("server-opt" "NAME", "server optimizer: fedavg|fedmom|fedadam|diloco",
        plan.cfg.server_opt in server_opts()),
    opt!("seed" "N", "root seed", plan.cfg.seed),
    opt!("dtype" "f32|bf16", "storage precision for checkpoints and wire payloads; compute \
        stays f32", |o, v| {
            let dtype = Dtype::parse(v).ok_or_else(|| format!("unknown --dtype {v:?} (f32|bf16)"));
            dtype.map(|dtype| o.plan.cfg.dtype = dtype)
        }, |o| Some(o.plan.cfg.dtype.as_str().into())),
    opt!("deadline-ms" "N", "round deadline; late results dropped into the partial-update path",
        Some(plan.cfg.round_deadline_ms)),
    opt!("retransmit-budget" "N", "link retries for corrupt frames",
        plan.cfg.retransmit.max_retries),
    opt!("link-jitter-pct" "P", "jitter each retransmit backoff by up to P percent (seeded, \
        deterministic)", plan.cfg.retransmit.jitter_pct),
    opt!("link-timeout-ms" "N", "per-delivery timeout (0 = none); a link that exceeds it \
        counts as a dropout", plan.cfg.retransmit.timeout_ms),
    opt!("net-latency-ms" "N", "simulated network: per-link base latency (any --net-* \
        option enables the deterministic link model)", plan.cfg.network?.profile.base_latency_ms),
    opt!("net-jitter-ms" "N", "per-delivery latency jitter", plan.cfg.network?.profile.jitter_ms),
    opt!("net-bw-kbps" "N", "link bandwidth; payload size adds transfer time (0 = infinite)",
        plan.cfg.network?.profile.bandwidth_kbps),
    opt!("net-loss" "X", "per-attempt loss probability", plan.cfg.network?.profile.loss_rate),
    opt!("net-dup" "X", "duplicate-delivery probability", plan.cfg.network?.profile.dup_rate),
    opt!("net-reorder-ms" "N", "reorder window for late duplicate arrivals",
        plan.cfg.network?.profile.reorder_window_ms),
    opt!("net-quorum" "X", "reachable fraction below which a round runs degraded \
        (deadline lifted, server opt skipped)", plan.cfg.network?.min_quorum_frac),
    opt!("net-slow-factor" "N", "latency multiplier applied by slowlink@ faults",
        plan.cfg.network?.slow_factor),
    opt!("adaptive-deadline", "derive the round deadline from a percentile of observed \
        delivery latencies (replaces --deadline-ms; any --deadline-* knob below implies it)",
        |o| { o.plan.cfg.adaptive_deadline.get_or_insert_with(Default::default); }),
    opt!("deadline-percentile" "X", "adaptive deadline percentile",
        plan.cfg.adaptive_deadline?.percentile),
    opt!("deadline-floor-ms" "N", "adaptive deadline floor", plan.cfg.adaptive_deadline?.floor_ms),
    opt!("deadline-ceiling-ms" "N", "adaptive deadline ceiling",
        plan.cfg.adaptive_deadline?.ceiling_ms),
    opt!("aggregation" "RULE", "mean|ties[:density]|trimmed-mean[:r]|median|norm-clipped[:mult]",
        |o, v| AggregationKind::parse(v).map(|rule| o.plan.cfg.aggregation = rule)
            .map_err(|e| format!("--aggregation: {e}")),
        |o| Some(o.plan.cfg.aggregation.rule_name().into())),
    opt!("guard", "screen updates before merging (finiteness, norm clip, outlier rejection, \
        quarantine)", |o| o.plan.cfg.guard = GuardConfig::on()),
    opt!("loss-spike-mult" "X", "roll back when mean loss exceeds X * its EMA (watchdog; X > 1)",
        Some(plan.cfg.loss_spike_mult)),
    opt!("compress", "lossless Link compression", plan.cfg.compress_link),
    opt!("secure", "secure aggregation", plan.cfg.secure_agg),
    opt!("membership", "elastic membership: lease-based liveness, warm joins, permanent leaves",
        |o| { o.plan.cfg.membership.get_or_insert_with(Default::default); }),
    opt!("lease-ms" "N", "liveness lease duration (implies --membership)",
        plan.cfg.membership?.lease_ms),
    opt!("round-ms" "N", "simulated round duration (implies --membership)",
        plan.cfg.membership?.round_ms),
    opt!("buffer-quorum" "M", "buffered semi-sync aggregation: commit once M updates are \
        pending (implies --membership)", plan.cfg.buffer?.quorum),
    opt!("staleness-decay" "X", "down-weight an update s rounds stale by (1+s)^-X (implies \
        buffered aggregation, so --membership)", plan.cfg.buffer?.staleness_decay),
    opt!("shards" "N", "hierarchical aggregation: route the cohort through N crash-tolerant \
        sub-aggregator shards (the K-ary tree's fan-in at the root)", plan.cfg.hierarchy?.shards),
    opt!("shard-quorum-frac" "X", "fraction of a shard's slice that must arrive before the \
        shard commits upward (implies --shards)", plan.cfg.hierarchy?.shard_quorum_frac),
    opt!("max-resident" "N", "residency bound of each shard's streaming merge: at most N \
        full update vectors held at once (implies --shards)", plan.cfg.hierarchy?.max_resident),
];

/// The in-process driver's dropout tolerance (`serve` always tolerates).
#[rustfmt::skip]
const PARTIAL: &[Opt] =
    &[opt!("partial-ok", "tolerate client dropouts", plan.cfg.allow_partial_results)];

/// The run around the config: length, data size, faults and outputs.
#[rustfmt::skip]
const RUN: &[Opt] = &[
    opt!("rounds" "N", "federated rounds", plan.rounds),
    opt!("tokens-per-client" "N", "corpus tokens per client", plan.tokens_per_client),
    opt!("faults" "SPEC",
        "seeded fault injection (pair with --partial-ok): comma-separated rates, pinned \
         faults and partitions, e.g. crash=0.05,straggle=0.1,seed=9,sign-flip@r3c1,shardhang@r2s0\n\
         rates per client and round: crash=, straggle= (late by up to straggle-ms=N \
         [1000]), corrupt= (up to corrupt-attempts=N [2] bad frames), nan=, sign-flip=, \
         scale= (by scale-factor=X [100]), leave=, lossy= (lost transmissions); per \
         round: agg= (aggregator crash), join=; per shard: shardcrash=, shardhang= over \
         shards=N (defaults to --shards); seed=N\n\
         pinned, client M at round N: crash@rNcM, straggle:<ms>@rNcM, corrupt:<n>@rNcM, \
         nan-update@rNcM, sign-flip@rNcM, scale:<x>@rNcM, leave@rNcM, slowlink@rNcM; \
         shard M: shardcrash@rNsM, shardhang@rNsM; round N: join@rN\n\
         partition@rN[-rM]:a.b|c.d severs the right side from the left (with `|~` it \
         hears broadcasts but loses results; `*` = everyone else)\n\
         process faults, injected by `serve` and its clients (clients apply their \
         faults themselves): netcrash@rNcM (client severs its socket mid-round), \
         nethang@rNcM (client goes silent), coordkill@rN (coordinator exits after \
         committing round N)",
        |o, v| FaultSpec::parse(v).map(|spec| o.plan.faults = Some(spec))
            .map_err(|e| format!("--faults: {e}"))),
    opt!("checkpoint-dir" "DIR", "checkpoint here (serve: every commit, which a restarted \
        serve --resume needs); resume reads the run's config from it",
        Some(training.checkpoint_dir)),
    opt!("metrics-json" "PATH", "live metrics JSON (history, fault and churn counters, \
        committed rounds, compute threads, participation skew), rewritten atomically after \
        every round", Some(training.metrics_json)),
];

/// Kernel threads and backend, set before any kernel runs.
#[rustfmt::skip]
const COMPUTE: &[Opt] = &[
    opt!("threads" "N", "kernel worker threads (0 = serial; default: PHOTON_THREADS, else \
        every core)", Some(threads)),
    opt!("backend" "scalar|simd", "compute backend (default: PHOTON_BACKEND, else CPU \
        detection; simd falls back to scalar when the CPU lacks AVX2/FMA)", |o, v| {
            let kind = BackendKind::parse(v);
            let kind = kind.ok_or_else(|| format!("unknown --backend {v:?} (scalar|simd)"));
            kind.map(|kind| o.backend = Some(kind))
        }),
];

/// Trace and Prometheus-text sinks.
#[rustfmt::skip]
const TRACE: &[Opt] = &[
    opt!("trace-jsonl" "PATH", "structured trace events as JSON lines (chrome://tracing \
        compatible): train's replay byte-identically for a fixed seed; serve's and client's \
        are per-process shards whose frames carry span contexts, joined by `photon trace \
        merge`", Some(trace.jsonl)),
    opt!("metrics-text" "PATH", "Prometheus-style text snapshot, rewritten atomically every \
        round", Some(trace.prometheus)),
    opt!("trace-kernels", "also emit per-kernel spans (GEMM, attention, layernorm) as trace \
        events; kernels always feed the phase profile", trace.kernel_events),
];

/// What only the in-process driver (`train`, `resume`) reads.
#[rustfmt::skip]
const LOCAL: &[Opt] = &[
    opt!("data" "web|pile", "IID web or Pile-style client data", pile in DATA),
    opt!("eval-every" "N", "eval cadence in rounds", training.run.eval_every),
    opt!("checkpoint-every" "N", "checkpoint cadence in rounds", training.checkpoint_every),
    opt!("recovery-budget" "N", "max crash recoveries", training.recovery_budget),
];

/// The coordinator's own options.
#[rustfmt::skip]
const SERVE_ONLY: &[Opt] = &[
    opt!("min-clients" "N", "connections required before rounds start (default: --clients)",
        Some(min_clients)),
    opt!("resume", "restore from --checkpoint-dir if a checkpoint exists", training.resume),
    opt!("warmup-ms" "N", "settle delay before round 0", warmup_ms),
    opt!("cooldown-ms" "N", "grace window after the last round", cooldown_ms),
    opt!("round-timeout-ms" "N", "per-round result deadline", round_timeout_ms),
    opt!("heartbeat-timeout-ms" "N", "quiet-connection miss window", heartbeat_timeout_ms),
    opt!("health-port" "N", "serve GET /metrics (Prometheus text) and GET /health (JSON) on \
        127.0.0.1:N for the lifetime of the run (0 = ephemeral port)", Some(health_port)),
];

/// What both sides of a multi-process run take.
#[rustfmt::skip]
const PROCESS: &[Opt] = &[
    opt!("addr" "HOST:PORT", "coordinator address (serve listens on it)", client.addr),
    opt!("flight-dir" "DIR", "crash flight recorder: on panic or an injected coordkill, dump \
        the last spans to DIR/flight-<pid>.jsonl", Some(flight_dir)),
];

/// A participant's connection options.
#[rustfmt::skip]
const CLIENT_ONLY: &[Opt] = &[
    opt!("heartbeat-ms" "N", "heartbeat cadence", client.heartbeat_interval_ms),
    opt!("reconnect-base-ms" "N", "backoff base delay", client.reconnect_base_ms),
    opt!("reconnect-cap-ms" "N", "backoff cap", client.reconnect_cap_ms),
    opt!("max-attempts" "N", "reconnect budget", client.max_connect_attempts),
    opt!("hang-ms" "N", "nethang silence length", client.hang_ms),
    opt!("session-file" "PATH", "persist the session identity so a killed and restarted \
        client process resumes its session instead of re-joining", Some(client.session_file)),
];

const SIZE: &[Opt] = &[opt!("size" "125M|1B|3B|7B", "Table 1 deployment row", size)];

/// The checkpoint `generate` and `downstream` load.
const MODEL: &[Opt] = &[opt!("checkpoint-dir" "DIR", "(required)", Some(training.checkpoint_dir))];

#[rustfmt::skip]
const SAMPLE: &[Opt] = &[
    opt!("prompt" "TEXT", "", |o, v| { o.prompt = v.into(); Ok(()) },
        |o| Some(format!("{:?}", o.prompt))),
    opt!("tokens" "N", "", tokens),
    opt!("temperature" "X", "", sampling.temperature),
    opt!("top-k" "N", "", sampling.top_k),
    opt!("seed" "N", "", sample_seed),
];

const EVAL: &[Opt] = &[opt!("seed" "N", "", eval_seed)];

#[rustfmt::skip]
const MERGE: &[Opt] = &[
    opt!("inputs" "A,B,...", "comma-separated shard paths",
        |o, v| {
            o.inputs.extend(v.split(',').filter(|p| !p.is_empty()).map(PathBuf::from));
            Ok(())
        }),
    opt!("dir" "DIR", "also merge every *.jsonl in DIR (flight-*.jsonl crash dumps are \
        skipped)", Some(dir)),
    opt!("out" "PATH", "write the merged timeline here (default: stdout)", Some(out)),
];

const HELP: &[Opt] = &[opt!("help", "print this help", help)];

/// `train`'s and `serve`'s last step: the LR schedule spans the run, a
/// buffer needs membership, and the plan is validated, once.
fn finish_plan(o: &mut Options) -> Result<(), String> {
    let cfg = &mut o.plan.cfg;
    let steps = o.plan.rounds.saturating_mul(cfg.local_steps).max(20);
    cfg.schedule = LrSchedule::paper_cosine(o.lr, 10, steps);
    if cfg.buffer.is_some() {
        cfg.membership.get_or_insert_with(Default::default);
    }
    o.plan.validate()
}

/// `photon train`.
pub const TRAIN: Command = Command {
    finish: finish_plan,
    ..Command::new(
        "photon train — federated pre-training",
        &[CONFIG, PARTIAL, RUN, COMPUTE, TRACE, LOCAL, HELP],
    )
};

/// `photon resume`.
pub const RESUME: Command = Command::new(
    "photon resume — continue training from --checkpoint-dir

The federation config (model, clients, tau, optimizer, sections) is the
checkpoint's, so `train`'s config options are refused. Client data is
rebuilt from this command line's --data and --tokens-per-client, which
checkpoint.bin does not record: pass the values the run started with.",
    &[RUN, COMPUTE, TRACE, LOCAL, HELP],
);

/// `photon serve`.
pub const SERVE: Command = Command {
    about: "photon serve — multi-process coordinator

Listens for `photon client` processes and runs `photon train`'s round
loop over them: the same cohort sampling, membership, buffer, shard tree,
guard, watchdog rollback and crash recovery. It survives kills: every
commit is checkpointed before its results are acked, and --resume
restores the checkpoint while live clients re-sync. A result that misses
--round-timeout-ms is a dropout of its round.

It takes train's options except five: --data (clients always build IID
shards), --eval-every (no validation corpus), --checkpoint-every (it
checkpoints every commit, because acks follow durability), --partial-ok
(it always tolerates partial cohorts) and --recovery-budget (it keeps the
run driver's default budget; a killed coordinator restarts with --resume).
It rejects --secure.",
    groups: &[CONFIG, RUN, COMPUTE, TRACE, SERVE_ONLY, PROCESS, HELP],
    finish: |o| {
        // A client can die mid-round and the deadline path must still
        // commit.
        o.plan.cfg.allow_partial_results = true;
        finish_plan(o)
    },
};

/// `photon client`.
pub const CLIENT: Command = Command::new(
    "photon client — one training participant

Connects to a `photon serve` coordinator, receives the run plan, and
trains every broadcast round. Rides out crashes on either side: it
reconnects with capped-exponential backoff, resumes its session by
token, and re-delivers un-acked results (the coordinator deduplicates).",
    &[PROCESS, CLIENT_ONLY, TRACE, HELP],
);

/// `photon plan`.
pub const PLAN: Command = Command::new("photon plan — hardware planning", &[SIZE, HELP]);

/// `photon generate`.
pub const GENERATE: Command = Command::new(
    "photon generate — sample text from a checkpoint",
    &[MODEL, SAMPLE, HELP],
);

/// `photon downstream`.
pub const DOWNSTREAM: Command = Command::new(
    "photon downstream — synthetic in-context evaluation",
    &[MODEL, EVAL, HELP],
);

/// `photon trace`.
pub const TRACE_MERGE: Command = Command::new(
    "photon trace — distributed-trace tooling

ACTIONS:
    merge    join per-process trace shards into one timeline

`photon trace merge` aligns every shard onto the coordinator's clock
(each shard's process_meta line carries the offset its process estimated
during the session handshake), interleaves the events into one
chrome://tracing-compatible JSONL stream, and reports how many
cross-process send/recv edges found both endpoints.",
    &[MERGE, HELP],
);
