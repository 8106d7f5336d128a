//! End-to-end observability: a seeded chaos run with every sink enabled
//! must produce a line-parseable JSONL trace, a lint-clean Prometheus
//! snapshot and a phase profile whose group shares sum to ~100% with
//! nonzero compute/comms/aggregation buckets; the JSONL trace must replay
//! byte-identically for a fixed seed; a watchdog rollback must leave
//! `rounds_committed` strictly behind `rounds_seen` (the overcounting
//! regression); every name the metrics snapshot exports, as JSON or as
//! Prometheus text, is a row of `METRIC_SCHEMA` and of DESIGN.md's table;
//! and a run records into the `Recorder` it is scoped under and nowhere
//! else, whatever runs beside it in the process.

use photon_cluster::{GpuSpec, Region, SiloSpec};
use photon_core::experiments::{build_iid_federation, RunOptions};
use photon_core::{
    run_training, DataSource, FaultSpec, HierarchyConfig, LlmClient, MetricKind, NetworkConfig,
    TrainingOptions, METRIC_SCHEMA,
};
use photon_data::Shard;
use photon_tensor::ops::{self, pool};
use photon_tensor::SeedStream;
use photon_tests::tiny_federation;
use photon_trace::{ClockMode, Phase, PhaseGroup, Recorder, Scope, TraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

const ROUNDS: u64 = 4;
const TOKENS: usize = 3_000;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-obs-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// An in-memory sim-clock recorder.
fn recorder(kernel_events: bool) -> Arc<Recorder> {
    Recorder::start(TraceConfig {
        kernel_events,
        ..TraceConfig::default()
    })
    .expect("tracing initializes")
}

/// A short faulted run: crashes, corrupt frames and a straggler over a
/// 3-client federation with partial results allowed.
fn chaos_run(dir: &Path, metrics_json: Option<PathBuf>) -> photon_core::TrainingOutcome {
    seeded_chaos_run(dir, 29, metrics_json)
}

/// [`chaos_run`] for any `seed >= 20`; the fault plan's seed moves with it
/// (29 runs the `seed=9` plan the single-seed tests always ran).
fn seeded_chaos_run(
    dir: &Path,
    seed: u64,
    metrics_json: Option<PathBuf>,
) -> photon_core::TrainingOutcome {
    let mut cfg = tiny_federation(3);
    cfg.seed = seed;
    cfg.allow_partial_results = true;
    let spec = FaultSpec::parse(&format!(
        "crash=0.2,corrupt=0.3,straggle=0.2,straggle-ms=400,seed={}",
        seed - 20
    ))
    .expect("fault spec parses");
    let injector = spec.plan(cfg.population, ROUNDS);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds: ROUNDS,
            eval_every: 2,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 2,
        recovery_budget: 2,
        resume: false,
        metrics_json,
    };
    run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts,
        Some(&injector),
    )
    .expect("chaos run completes")
}

#[test]
fn chaos_trace_sinks_parse_lint_and_profile() {
    let dir = tmp_dir("sinks");
    let jsonl = dir.join("trace.jsonl");
    let prom = dir.join("metrics.prom");
    let mjson = dir.join("metrics.json");
    let recorder = Recorder::start(TraceConfig {
        jsonl: Some(jsonl.clone()),
        prometheus: Some(prom.clone()),
        kernel_events: false,
        clock: ClockMode::Sim,
    })
    .expect("tracing initializes");

    let outcome = recorder.scope(|| chaos_run(&dir, Some(mjson.clone())));
    let summary = recorder.flush().expect("final flush succeeds");

    // Every JSONL line is standalone valid JSON with the chrome://tracing
    // core fields.
    let trace = fs::read_to_string(&jsonl).expect("trace file exists");
    let mut lines = 0usize;
    for line in trace.lines() {
        let value = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        let obj = format!("{value:?}");
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(obj.contains(field), "trace line misses {field:?}: {line}");
        }
        lines += 1;
    }
    assert!(
        lines > 10,
        "expected a substantial trace, got {lines} lines"
    );
    assert_eq!(summary.events_dropped, 0, "ring buffer overflowed");

    // The Prometheus snapshot passes the format lint and carries the
    // committed-round gauge.
    let prom_text = fs::read_to_string(&prom).expect("prom file exists");
    photon_trace::lint_prometheus(&prom_text).expect("prometheus snapshot lints");
    assert!(prom_text.contains("photon_gauge{name=\"rounds_committed\"}"));
    assert_no_name_is_both_counter_and_gauge(&prom_text);

    // Phase profile: group shares sum to ~100% with nonzero
    // compute/comms/aggregation buckets.
    let total: f64 = PhaseGroup::ALL
        .iter()
        .map(|&g| summary.profile.group_fraction(g))
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "group shares sum to {total}");
    for group in [
        PhaseGroup::Compute,
        PhaseGroup::Comms,
        PhaseGroup::Aggregation,
    ] {
        assert!(
            summary.profile.group_fraction(group) > 0.0,
            "{group:?} bucket is empty"
        );
    }
    assert!(
        summary
            .profile
            .get(Phase::Round)
            .is_some_and(|s| s.count == ROUNDS),
        "expected one round span per round"
    );

    // The live metrics JSON is valid JSON and carries the satellite
    // fields.
    let metrics = fs::read_to_string(&mjson).expect("metrics json exists");
    serde_json::from_str_value(&metrics).expect("metrics json parses");
    for field in [
        "\"compute_threads\"",
        "\"participation_skew\"",
        "\"rounds_committed\"",
        "\"fault_counters\"",
    ] {
        assert!(metrics.contains(field), "metrics json misses {field}");
    }
    assert!(outcome.history.rounds.len() == ROUNDS as usize);

    let _ = fs::remove_dir_all(&dir);
}

/// The `name` label values of `family`'s samples in a Prometheus text.
fn labelled<'a>(text: &'a str, family: &str) -> BTreeSet<&'a str> {
    let prefix = format!("{family}{{name=\"");
    let label = |l: &'a str| l.strip_prefix(&prefix)?.split('"').next();
    text.lines().filter_map(label).collect()
}

/// One name, one meaning: a counter's exported name never also labels a
/// gauge (`hierarchy.shard_crashes` once did, with the last round's count).
fn assert_no_name_is_both_counter_and_gauge(prom_text: &str) {
    let counters = labelled(prom_text, "photon_counter_total");
    let gauges = labelled(prom_text, "photon_gauge");
    assert!(!counters.is_empty() && !gauges.is_empty(), "{prom_text}");
    let both: Vec<_> = counters.intersection(&gauges).collect();
    assert!(both.is_empty(), "counter and gauge at once: {both:?}");
}

/// A sharded, network-modelled chaos run with both metrics sinks on: its
/// `--metrics-json`, its `--metrics-text` and the Prometheus rendering of
/// its final snapshot carry exactly the names of `METRIC_SCHEMA` (and the
/// profile's `photon_phase_*` families), the counters agree row for row on
/// every surface, the store alone renders the tree's gauges, and
/// DESIGN.md's table lists the same rows.
#[test]
fn every_exported_name_is_a_row_of_the_metric_schema() {
    let dir = tmp_dir("schema");
    let (prom, mjson) = (dir.join("metrics.prom"), dir.join("metrics.json"));
    let mut cfg = tiny_federation(4);
    cfg.seed = 29;
    cfg.allow_partial_results = true;
    cfg.network = Some(NetworkConfig::default());
    cfg.hierarchy = Some(HierarchyConfig {
        shards: 2,
        ..HierarchyConfig::default()
    });
    let spec = FaultSpec::parse("crash=0.2,corrupt=0.3,shardhang@r1s1,seed=9").expect("spec");
    let injector = spec.plan(cfg.population, ROUNDS);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds: ROUNDS,
            eval_every: 0,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: None,
        metrics_json: Some(mjson.clone()),
        ..TrainingOptions::default()
    };
    let recorder = Recorder::start(TraceConfig {
        prometheus: Some(prom.clone()),
        ..TraceConfig::default()
    })
    .expect("tracing initializes");
    let outcome = recorder
        .scope(|| {
            run_training(
                || build_iid_federation(&cfg, TOKENS),
                &opts,
                Some(&injector),
            )
        })
        .expect("chaos run completes");
    recorder.flush().expect("final flush succeeds");
    let prom_text = fs::read_to_string(&prom).expect("prom file");
    assert_no_name_is_both_counter_and_gauge(&prom_text);

    // `/metrics` renders the store alone, and it carries the tree's gauges
    // as `--metrics-text` does.
    let store = outcome.federation.aggregator.telemetry();
    let tree_gauges = |text: &str| -> Vec<String> {
        let tree = |l: &&str| l.starts_with("photon_gauge{name=\"hierarchy.");
        text.lines().filter(tree).map(str::to_string).collect()
    };
    let from_store = tree_gauges(&store.snapshot().to_prometheus());
    assert_eq!(from_store.len(), 6, "{from_store:?}");
    assert_eq!(from_store, tree_gauges(&prom_text));

    // The snapshot as `serve` would fill it: a coordinator and one result
    // latency, so the coordinator and quantile families render too.
    store.set_coordinator(ROUNDS, 5, "finished");
    store.client(0, |row| row.observe_latency_ms(40));
    let text = outcome.snapshot().to_prometheus();
    photon_trace::lint_prometheus(&text).expect("snapshot rendering lints");
    let json = fs::read_to_string(&mjson).expect("metrics json exists");
    let json = serde_json::from_str_value(&json).expect("metrics json parses");

    // What Prometheus calls each schema row: its `name` label under the
    // two shared families, else its own family.
    let family = |m: &photon_core::Metric| match m.kind {
        MetricKind::Counter(_) | MetricKind::RunCounter(_) => Some("photon_counter_total"),
        MetricKind::Gauge(_) => Some("photon_gauge"),
        MetricKind::Coordinator(..) => Some(m.name),
        MetricKind::Client(family, ..) => Some(family),
        MetricKind::Json => None,
    };
    let key = |m: &photon_core::Metric| match family(m)? {
        "photon_counter_total" | "photon_gauge" => Some(m.name),
        family => Some(family),
    };
    let by_key: BTreeMap<&str, &str> = METRIC_SCHEMA
        .iter()
        .filter_map(|m| Some((key(m)?, m.name)))
        .collect();
    let mut carried = BTreeSet::new();
    let mut unknown = Vec::new();
    // `--metrics-text` is the same rendering followed by the profile's
    // families, so every other sample of it is a schema row too.
    let profile = |l: &&str| !l.starts_with("photon_phase_");
    let samples = text.lines().chain(prom_text.lines().filter(profile));
    for line in samples.filter(|l| !l.starts_with('#')) {
        let family = line.split(['{', ' ']).next().expect("family");
        let name = match family {
            "photon_counter_total" | "photon_gauge" => line.split('"').nth(1).expect("name label"),
            family => family,
        };
        match by_key.get(name) {
            Some(row) => drop(carried.insert(row.to_string())),
            None => unknown.push(line),
        }
    }
    let mut prom_counters: BTreeMap<&str, u64> = prom_text
        .lines()
        .filter_map(|l| l.strip_prefix("photon_counter_total{name=\""))
        .map(|l| {
            let (name, value) = l.split_once("\"} ").expect("counter sample");
            (name, value.parse().expect("counter value"))
        })
        .collect();
    // JSON keys, sections flattened to dotted paths; `fault_counters` is
    // the counter rows in schema order, value for value.
    let faults = store.fault_counters();
    let mut sections = Vec::new();
    for (k, v) in json.as_map().expect("snapshot object") {
        match k.as_str().expect("key") {
            "fault_counters" => {
                let written = v.as_map().expect("fault_counters object");
                assert_eq!(written.len(), faults.rows().count());
                for ((name, value), (_, json_value)) in faults.rows().zip(written) {
                    assert_eq!(json_value.as_u64(), Some(value), "{name} in the JSON");
                    let sample = format!("photon_counter_total{{name=\"{name}\"}} {value}\n");
                    assert!(text.contains(&sample), "{name} = {value} on /metrics");
                    let in_text = prom_counters.remove(name);
                    assert_eq!(in_text, Some(value), "{name} in --metrics-text");
                }
            }
            "clients" => {
                let clients = v.as_map().expect("clients object");
                assert_eq!(clients.len(), cfg.population);
                sections.extend(clients.iter().map(|(_, client)| ("clients", client)));
            }
            k @ ("network" | "transport" | "hierarchy") => sections.push((k, v)),
            k => {
                carried.insert(k.to_string());
            }
        }
    }
    for (section, object) in sections {
        for (key, _) in object.as_map().expect("section object") {
            carried.insert(format!("{section}.{}", key.as_str().expect("key")));
        }
    }
    assert!(
        faults.crashes + faults.retransmits + faults.shard_hangs > 2,
        "{faults:?}"
    );
    assert!(unknown.is_empty(), "not in METRIC_SCHEMA: {unknown:?}");
    let run_counters = BTreeMap::from([
        ("rounds.committed", store.snapshot().rounds_committed),
        ("transport.redelivery_acks", faults.redelivery_acks),
    ]);
    assert_eq!(
        prom_counters, run_counters,
        "the run counters of --metrics-text"
    );
    let schema: BTreeSet<String> = METRIC_SCHEMA.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(schema.len(), METRIC_SCHEMA.len(), "a name is listed twice");
    assert_eq!(carried, schema, "exported names vs METRIC_SCHEMA");

    // DESIGN.md's table is this list.
    let table: String = METRIC_SCHEMA
        .iter()
        .map(|m| {
            let kind = match m.kind {
                MetricKind::Counter(_) => "counter",
                MetricKind::RunCounter(_) => "run counter",
                MetricKind::Gauge(_) => "gauge",
                MetricKind::Coordinator(..) => "coordinator",
                MetricKind::Client(..) => "client",
                MetricKind::Json => "json",
            };
            let family = family(m).map_or("—".to_string(), |f| format!("`{f}`"));
            format!("| `{}` | {kind} | {family} | {} |\n", m.name, m.help)
        })
        .collect();
    let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../DESIGN.md");
    let design = fs::read_to_string(design).expect("DESIGN.md");
    let documented = design
        .split("<!-- metric-schema -->\n")
        .nth(1)
        .and_then(|rest| rest.split("<!-- /metric-schema -->").next());
    assert!(
        documented.is_some_and(|d| d.ends_with(&table)),
        "DESIGN.md's metric table is not METRIC_SCHEMA; it should end with:\n{table}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_chaos_traces_are_byte_identical() {
    let mut traces = Vec::new();
    for run in 0..2 {
        let dir = tmp_dir(&format!("identical-{run}"));
        let jsonl = dir.join("trace.jsonl");
        let recorder = Recorder::start(TraceConfig {
            jsonl: Some(jsonl.clone()),
            prometheus: None,
            kernel_events: false,
            clock: ClockMode::Sim,
        })
        .expect("tracing initializes");
        recorder.scope(|| chaos_run(&dir, None));
        recorder.flush().expect("final flush succeeds");
        traces.push(fs::read_to_string(&jsonl).expect("trace file exists"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(!traces[0].is_empty());
    assert_eq!(traces[0], traces[1], "same-seed traces differ");
}

#[test]
fn watchdog_rollback_does_not_overcount_committed_rounds() {
    let dir = tmp_dir("rollback-count");
    let rounds = 5u64;
    // One all-NaN update under plain mean aggregation: the watchdog's
    // non-finite check fires at round 2, rolls back and neutralizes it.
    let mut cfg = tiny_federation(3);
    cfg.seed = 17;
    let spec = FaultSpec::parse("nan-update@r2c0,seed=5").expect("fault spec parses");
    let injector = spec.plan(cfg.population, rounds);
    let opts = TrainingOptions {
        run: RunOptions {
            rounds,
            eval_every: 0,
            eval_windows: 4,
            stop_below: None,
        },
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 1,
        recovery_budget: 2,
        resume: false,
        metrics_json: None,
    };
    let outcome = run_training(
        || build_iid_federation(&cfg, TOKENS),
        &opts,
        Some(&injector),
    )
    .expect("run completes through the rollback");
    assert_eq!(outcome.rollbacks, 1, "expected exactly one rollback");
    let telemetry = outcome.federation.aggregator.telemetry().snapshot();
    assert_eq!(telemetry.rounds_seen, rounds);
    // The regression: the neutralized round is seen but never committed.
    assert_eq!(telemetry.rounds_committed, rounds - 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Nothing an untraced thread of this binary does reaches the process
/// default recorder, which no test here enables.
fn assert_process_default_is_empty() {
    assert!(photon_trace::drain_now().profile.is_empty());
    assert_eq!(photon_trace::flush_to_string(), "", "process default trace");
}

#[test]
fn concurrent_federations_record_only_their_own_traces() {
    const SEEDS: [u64; 4] = [29, 31, 37, 41];
    // `run_training` flushes at every round boundary, so the trace is read
    // back from the recorder's JSONL file.
    let traced = |tag: &str, seed: u64, start: &Barrier| {
        let dir = tmp_dir(&format!("{tag}-{seed}"));
        let jsonl = dir.join("trace.jsonl");
        let recorder = Recorder::start(TraceConfig {
            jsonl: Some(jsonl.clone()),
            ..TraceConfig::default()
        })
        .expect("tracing initializes");
        start.wait();
        recorder.scope(|| seeded_chaos_run(&dir, seed, None));
        recorder.flush().expect("final flush succeeds");
        let trace = fs::read_to_string(&jsonl).expect("trace file exists");
        let _ = fs::remove_dir_all(&dir);
        trace
    };
    // Four traced federations and an untraced one, all at once.
    let start = &Barrier::new(SEEDS.len() + 1);
    let traced = &traced;
    let together: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = SEEDS
            .iter()
            .map(|&seed| scope.spawn(move || traced("together", seed, start)))
            .collect();
        scope.spawn(move || {
            let dir = tmp_dir("together-untraced");
            start.wait();
            seeded_chaos_run(&dir, 43, None);
            let _ = fs::remove_dir_all(&dir);
        });
        runs.into_iter()
            .map(|run| run.join().expect("run"))
            .collect()
    });
    assert_process_default_is_empty();
    for (&seed, together) in SEEDS.iter().zip(&together) {
        let alone = traced("alone", seed, &Barrier::new(1));
        assert!(alone.contains("local_step"), "seed {seed} was traced");
        assert_eq!(together, &alone, "seed {seed}: beside four other runs");
    }
    assert_ne!(together[0], together[1], "different seeds, different runs");
}

#[test]
fn a_kernel_span_lands_in_its_submitters_recorder_and_nowhere_else() {
    let (mine, other) = (recorder(true), recorder(true));
    let (m, k, n) = (256, 256, 256);
    let (a, b) = (vec![1.0f32; m * k], vec![0.5f32; k * n]);
    let mut c = vec![0.0f32; m * n];
    let submitter = std::thread::current().id();
    // Where each task of a 2-wide batch ran, and whether a recorder was
    // enabled for it there.
    let seen = std::sync::Mutex::new(Vec::new());
    mine.scope(|| {
        photon_trace::set_actor(7);
        pool::Context {
            chunks: 2,
            width: 2,
            ..pool::Context::current()
        }
        .enter(|| {
            let note = || {
                let at = (std::thread::current().id(), photon_trace::enabled());
                seen.lock().expect("seen").push(at);
            };
            pool::run_tasks(vec![Box::new(note), Box::new(note)]);
            // Large enough that the pool worker takes half the rows.
            ops::gemm_auto(ops::Gemm::new(m, k, n), &a, &b, &mut c);
        });
    });
    assert_eq!(c[0], 128.0);
    // A pool worker is outside every scope: a span opened inside a task
    // would be lost, which is why kernels open theirs on the submitter.
    for (thread, enabled) in seen.into_inner().expect("seen") {
        assert_eq!(enabled, thread == submitter, "scope is per thread");
    }
    let summary = mine.drain_now();
    let spans = |phase| summary.profile.get(phase).map(|s| s.count);
    assert_eq!(spans(Phase::PoolDispatch), Some(2));
    assert_eq!(spans(Phase::KernelGemm), Some(1));
    let trace = mine.flush_to_string();
    let kernels: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("kernel_gemm"))
        .collect();
    assert_eq!(kernels.len(), 1, "one kernel span: {trace}");
    assert!(kernels[0].contains("\"tid\":7,"), "on the submitter's lane");
    assert!(other.drain_now().profile.is_empty() && other.flush_to_string().is_empty());
    assert_process_default_is_empty();
}

#[test]
fn ddp_replica_kernel_spans_carry_their_clients_lane() {
    let mut cfg = tiny_federation(2);
    cfg.seed = 47;
    let (mut fed, _) = build_iid_federation(&cfg, TOKENS).expect("federation builds");
    // Client 1 trains as two DDP replicas on threads of their own.
    let silo = SiloSpec::single_node("two-gpu", 2, GpuSpec::h100(), Region::Quebec);
    let tokens = Arc::new((0..600u32).map(|i| i % 17).collect());
    let data = DataSource::new("ddp", Shard::from_range("ddp", tokens, 0, 600));
    fed.clients[1] = LlmClient::new(1, data, Some(silo), SeedStream::new(5));
    let recorder = recorder(true);
    recorder
        .scope(|| fed.run_round_with(None))
        .expect("round runs");
    let trace = recorder.flush_to_string();
    let lanes = |name: &str| -> std::collections::BTreeSet<&str> {
        trace
            .lines()
            .filter(|l| l.contains(name))
            .map(|l| {
                l.split("\"tid\":")
                    .nth(1)
                    .expect("tid")
                    .split(',')
                    .next()
                    .expect("tid")
            })
            .collect()
    };
    assert_eq!(
        lanes("kernel_gemm"),
        ["1", "2"].into(),
        "1 + client, never 0"
    );
    assert_eq!(lanes("local_step"), ["1", "2"].into());
}

#[test]
fn scope_nests_and_restores_the_previous_recorder_after_a_panic() {
    let (outer, inner) = (recorder(false), recorder(false));
    let mark = |name| photon_trace::instant(Phase::Rollback, name, &[]);
    let before = Scope::current();
    outer.scope(|| {
        mark("outer-1");
        inner.scope(|| mark("inner-1"));
        mark("outer-2");
        let panicked = std::panic::catch_unwind(|| {
            inner.scope(|| {
                photon_trace::set_actor(9);
                mark("inner-2");
                panic!("inside the inner scope");
            })
        });
        assert!(panicked.is_err());
        mark("outer-3");
    });
    assert_eq!(Scope::current(), before, "restored on exit");
    mark("outside");
    let names = |trace: String| -> Vec<String> {
        let name = |l: &str| l.split('"').nth(3).expect("name").to_owned();
        trace.lines().map(name).collect()
    };
    // One timestamp and lane throughout, so a trace keeps emission order;
    // lane 9 sorts the panicking scope's mark last.
    assert_eq!(
        names(outer.flush_to_string()),
        ["outer-1", "outer-2", "outer-3"]
    );
    assert_eq!(names(inner.flush_to_string()), ["inner-1", "inner-2"]);
    assert_process_default_is_empty();
}
