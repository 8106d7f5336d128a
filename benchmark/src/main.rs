//! The repo's benchmark: four federated workloads, eight end-to-end
//! metrics, per-crate layer probes. All measurement is from outside, by
//! timing calls into the crates' public functions. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run [--seed N] [--workload W] [--traced]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod calib;
mod host;
mod probes;
mod report;
mod schema;
mod spans;
mod stats;
mod workloads;

use report::{Results, WorkloadResult};
use spans::Spans;
use stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{run_session, Kind, Session, Workload, REF_SECONDS, WORKLOADS};

/// Cold set-up processes behind `setup_s` (this one plus two children).
const SETUP_SAMPLES: usize = 3;

const USAGE: &str = "usage: photon-benchmark run [--seed N] [--seconds N] [--workload W] \
                     [--trace 0|1 | --traced] [--repeat N] [--out DIR]\n       \
                     photon-benchmark compare A.json B.json\n       \
                     photon-benchmark manifest";

/// Parsed `run` options.
#[derive(Debug, Clone)]
struct RunArgs {
    seed: u64,
    seconds: u64,
    workload: Option<&'static Workload>,
    traced: bool,
    repeat: u64,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        seed: 42,
        seconds: REF_SECONDS,
        workload: None,
        traced: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--seed" => run.seed = number(value()?)?,
            "--seconds" => run.seconds = number(value()?)?.max(1),
            "--repeat" => run.repeat = number(value()?)?.max(1),
            "--trace" => run.traced = number(value()?)? != 0,
            "--traced" => run.traced = true,
            "--out" => run.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                run.workload = Some(
                    workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| match run.workload {
            Some(_) => supervise(&run, &args[1..]),
            None => run_all(&run),
        }),
        Some("measure") => parse_run(&args[1..]).and_then(|run| run_one(&run)),
        Some("setup") => parse_run(&args[1..]).and_then(|run| setup_probe(&run)),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", schema::manifest_json(REF_SECONDS));
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json<T: for<'de> serde::Deserialize<'de>>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(base: &str, new: &str) -> Result<bool, String> {
    let (base, new): (Results, Results) = (read_json(Path::new(base))?, read_json(Path::new(new))?);
    let regressed = report::compare(&base, &new)?;
    if regressed > 0 {
        println!("{regressed} regressed");
    }
    Ok(regressed == 0)
}

/// A workload process that dies from a signal is re-run this many times.
/// `tree_100k` needs it: about one run in thirty segfaults inside glibc's
/// `pthread_detach`, which races the exit of a thread whose handle the
/// round loop drops (256 very short threads per round) — a fault of the
/// program under test that a benchmark-only change may not fix, reported
/// as `crash_retries` instead of hidden.
const CRASH_RETRIES: u64 = 2;

/// Re-executes this binary and waits for it; `capture` collects its
/// stdout, otherwise the child prints straight through. Returns the stdout
/// and how many times the child had to be re-run after dying from a signal.
fn spawn_self(args: &[String], capture: bool) -> Result<(String, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for crashes in 0..=CRASH_RETRIES {
        let output = Command::new(&exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(if capture {
                Stdio::piped()
            } else {
                Stdio::inherit()
            })
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {args:?}: {e}"))?;
        match output.status.code() {
            Some(0) => {
                return Ok((
                    String::from_utf8_lossy(&output.stdout).into_owned(),
                    crashes,
                ))
            }
            Some(code) => return Err(format!("{args:?} exited with code {code}")),
            None => eprintln!("warning: {args:?} died: {}", output.status),
        }
    }
    Err(format!(
        "{args:?} died from a signal {} times in a row",
        CRASH_RETRIES + 1
    ))
}

/// `setup`: one cold set-up (build/provision + warm-up rounds) in its own
/// process, so lazily-initialised process state is paid every time.
fn setup_probe(run: &RunArgs) -> Result<bool, String> {
    let w = run.workload.ok_or("setup needs --workload")?;
    let s = run_session(w, run.seed, 0, None)?;
    println!("{} {} {}", s.setup_norm_s, s.setup_s, s.warm_loss.to_bits());
    Ok(true)
}

fn result_path(out: &Path, w: &Workload, traced: bool) -> PathBuf {
    out.join(format!(
        "{}{}.json",
        w.name,
        if traced { ".traced" } else { "" }
    ))
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn new_result(w: &Workload, run: &RunArgs, rounds: u64) -> WorkloadResult {
    let loadavg = host::loadavg_1m();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    WorkloadResult {
        name: w.name.into(),
        why: w.why.into(),
        seed: run.seed,
        rounds,
        loadavg_before: loadavg,
        noisy: loadavg > cores as f64 / 2.0,
        lo_idle_bytes: 0,
        slowdown: 1.0,
        crash_retries: 0,
        correct: true,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        metrics: Vec::new(),
        layers: Vec::new(),
    }
}

fn absorb(result: &mut WorkloadResult, s: &Session) {
    result.attempted += s.attempted;
    result.failed += s.failed;
    result.lo_idle_bytes = result.lo_idle_bytes.max(s.lo_idle_bytes);
    result.violations.extend(s.violations.iter().cloned());
}

/// `run --workload W`: the measurement itself runs in a child (`measure`),
/// so that a crash of the program under test costs a re-run, not the run.
fn supervise(run: &RunArgs, args: &[String]) -> Result<bool, String> {
    let w = run.workload.ok_or("supervise needs --workload")?;
    let mut child = vec!["measure".to_string()];
    child.extend_from_slice(args);
    let (_, crashes) = spawn_self(&child, false)?;
    if crashes > 0 {
        let path = result_path(&run.out, w, run.traced);
        let mut record: WorkloadResult = read_json(&path)?;
        record.crash_retries += crashes;
        write_json(&path, &record)?;
    }
    Ok(true)
}

/// One workload in this process: the untraced end-to-end pass, or the
/// traced pass with the layer probes. Writes the rich record under `out`
/// and ends stdout with the driver's result line.
fn run_one(run: &RunArgs) -> Result<bool, String> {
    let w = run.workload.ok_or("measure needs --workload")?;
    schema::validate()?;
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let rounds = w.rounds_for(run.seconds);
    let mut result = new_result(w, run, rounds);
    let line = if run.traced {
        traced_pass(w, run, rounds, &mut result)?
    } else {
        end_to_end_pass(w, run, rounds, &mut result)?
    };
    result.correct = result.violations.is_empty();
    write_json(&result_path(&run.out, w, run.traced), &result)?;
    result.print();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        line.join(", ")
    );
    Ok(true)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn end_to_end_pass(
    w: &'static Workload,
    run: &RunArgs,
    rounds: u64,
    result: &mut WorkloadResult,
) -> Result<Vec<String>, String> {
    // Set-up, cold, in processes of its own; then this process's own.
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut warm_bits = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let args = [
            "setup",
            "--workload",
            w.name,
            "--seed",
            &run.seed.to_string(),
        ];
        let (out, crashes) = spawn_self(&args.map(String::from), true)?;
        result.crash_retries += crashes;
        let mut fields = out.split_whitespace();
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| format!("setup probe printed {out:?}"))
        };
        setups.push(next()?.parse::<f64>().map_err(|e| e.to_string())?);
        raw_setups.push(next()?.parse::<f64>().map_err(|e| e.to_string())?);
        warm_bits.push(next()?.parse::<u64>().map_err(|e| e.to_string())?);
    }
    let s = run_session(w, run.seed, rounds, None)?;
    absorb(result, &s);
    result.slowdown = s.slowdown;
    setups.push(s.setup_norm_s);
    raw_setups.push(s.setup_s);
    warm_bits.push(s.warm_loss.to_bits());
    if w.kind != Kind::Tcp && warm_bits.iter().any(|b| *b != warm_bits[0]) {
        result.violations.push(format!(
            "same-seed runs disagree on the warm-up loss bits: {warm_bits:?}"
        ));
    }
    if rounds == w.ref_rounds {
        if let Some((_, reference)) = w.reference_loss.iter().find(|(seed, _)| *seed == run.seed) {
            let off = (s.final_loss - reference).abs() / reference;
            if off > w.loss_tolerance {
                result.violations.push(format!(
                    "final loss {} is {off:.4} from the seed-{} reference {reference} (tolerance {})",
                    s.final_loss, run.seed, w.loss_tolerance
                ));
            }
        }
    }

    // Wall-clock figures are reported at the reference host's speed.
    let n = s.round_ms.len() as u64;
    let p_tail = tail_percentile(s.round_ms.len()).min(90);
    let (tps, tps_norm) = s.tokens_per_s(w);
    let fail_frac = s.failed as f64 / s.attempted as f64;
    result.set_metrics(&[
        ("tokens_per_s", tps_norm, tps, n),
        (
            "round_ms_p50",
            median(&s.round_norm_ms),
            median(&s.round_ms),
            n,
        ),
        (
            "round_ms_p90",
            percentile(&s.round_norm_ms, p_tail),
            percentile(&s.round_ms, p_tail),
            n,
        ),
        (
            "wire_bytes_per_round",
            s.wire_bytes_per_round,
            s.wire_bytes_per_round,
            n,
        ),
        ("peak_rss_mb", s.peak_rss_mb, s.peak_rss_mb, 1),
        (
            "setup_s",
            median(&setups),
            median(&raw_setups),
            setups.len() as u64,
        ),
        ("final_loss", s.final_loss, s.final_loss, 1),
        ("round_fail_frac", fail_frac, fail_frac, n),
    ]);
    Ok(result
        .metrics
        .iter()
        .filter(|m| schema::manifest_metrics().any(|e| e.name == m.name))
        .map(|m| json_metric(&m.name, m.value, &m.unit))
        .collect())
}

fn traced_pass(
    w: &'static Workload,
    run: &RunArgs,
    rounds: u64,
    result: &mut WorkloadResult,
) -> Result<Vec<String>, String> {
    let half = (rounds / 2).max(1);
    let mut spans = Spans::new(w.name);

    // Half the window untraced, half with the program's recorder on and
    // bench-side spans kept: the difference is the tracing overhead.
    let plain = run_session(w, run.seed, half, None)?;
    absorb(result, &plain);
    result.slowdown = plain.slowdown;
    probes::enable_recorder()?;
    let id = spans.enter("session");
    let traced = run_session(w, run.seed, half, Some(&mut spans));
    spans.exit(id);
    let profile = photon_trace::drain_now().profile;
    photon_trace::reset_for_tests();
    let traced = traced?;
    absorb(result, &traced);

    let facts = probes::SessionFacts {
        round_ms_p50: median(&plain.round_ms),
        tokens_per_s: plain.tokens_per_s(w).0,
    };
    let mut rows = probes::run(w, run.seed, facts, &run.out, &mut spans)?;
    rows.insert("core.build_s", plain.build_s);
    rows.insert("core.round_ms_p50", median(&spans.durations_ms("round")));
    rows.insert("core.dropouts", (plain.dropouts + traced.dropouts) as f64);
    rows.insert(
        "core.stragglers",
        (plain.stragglers + traced.stragglers) as f64,
    );
    rows.insert(
        "core.retransmits",
        (plain.retransmits + traced.retransmits) as f64,
    );
    if let Some(net) = &plain.net {
        rows.insert("net.serve_wall_s", net.serve_wall_s);
        rows.insert("net.time_to_first_commit_ms", net.first_commit_ms);
        rows.insert("net.result_latency_p50_ms", net.result_latency_p50_ms);
        rows.insert(
            "net.round_gap_ms",
            facts.round_ms_p50 - net.result_latency_p50_ms,
        );
        rows.insert("net.heartbeat_misses", net.heartbeat_misses as f64);
        rows.insert("net.reconnects", net.reconnects as f64);
        rows.insert("net.straggler_rounds", net.straggler_rounds as f64);
        rows.insert("net.health_poll_us", net.health_poll_us);
    }
    // The two halves ran at different times: compare them at equal
    // machine speed. Every other layer row is plain wall clock.
    rows.insert(
        "trace.overhead_frac",
        1.0 - traced.tokens_per_s(w).1 / plain.tokens_per_s(w).1,
    );
    use photon_trace::PhaseGroup::{Aggregation, Comms, Compute, Durability, Orchestration};
    for (name, group) in [
        ("phase.compute_share", Compute),
        ("phase.comms_share", Comms),
        ("phase.aggregation_share", Aggregation),
        ("phase.durability_share", Durability),
        ("phase.orchestration_share", Orchestration),
    ] {
        rows.insert(name, profile.group_fraction(group));
    }

    spans
        .write_jsonl(&run.out.join(format!("{}.spans.jsonl", w.name)))
        .map_err(|e| format!("writing spans: {e}"))?;
    result.set_layers(&rows);
    Ok(result
        .layers
        .iter()
        .map(|l| json_metric(&l.name, l.value, &l.unit))
        .collect())
}

/// Every workload, each in a process of its own so that `setup_s` and
/// `peak_rss_mb` are per workload; repeats are interleaved across
/// workloads. Writes `results.json` under `out`.
fn run_all(run: &RunArgs) -> Result<bool, String> {
    schema::validate()?;
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let child = |w: &Workload, traced: bool| -> Result<WorkloadResult, String> {
        let args = [
            "run".to_string(),
            "--workload".into(),
            w.name.into(),
            "--seed".into(),
            run.seed.to_string(),
            "--seconds".into(),
            run.seconds.to_string(),
            "--trace".into(),
            u8::from(traced).to_string(),
            "--out".into(),
            run.out.display().to_string(),
        ];
        spawn_self(&args, false)?;
        read_json(&result_path(&run.out, w, traced))
    };

    let mut runs: BTreeMap<&str, Vec<WorkloadResult>> = BTreeMap::new();
    for _ in 0..run.repeat {
        for w in WORKLOADS {
            runs.entry(w.name).or_default().push(child(w, false)?);
        }
    }
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let mut result = WorkloadResult::merge(&runs[w.name]);
        if run.traced {
            let traced = child(w, true)?;
            result.layers = traced.layers;
            result.correct &= traced.correct;
            result.violations.extend(traced.violations);
        }
        merged.push(result);
    }
    let results = Results {
        seed: run.seed,
        seconds: run.seconds,
        repeat: run.repeat,
        host: host::host(),
        workloads: merged,
        claim: None,
    };
    let path = run.out.join("results.json");
    write_json(&path, &results)?;
    println!("\n==== summary ({}) ====", path.display());
    for w in &results.workloads {
        w.print();
    }
    Ok(results.workloads.iter().all(|w| w.correct))
}
