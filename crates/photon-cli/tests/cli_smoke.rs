//! End-to-end smoke tests for every `photon` subcommand, driven through
//! the library surface with miniature settings.

use photon_cli::args::Args;
use photon_cli::commands;

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(String::from)).expect("valid args")
}

fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("photon-cli-smoke").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_train_args(dir: &std::path::Path, extra: &str) -> Args {
    args(&format!(
        "train --clients 2 --rounds 2 --local-steps 2 --batch 2 \
         --tokens-per-client 2000 --eval-every 2 --checkpoint-dir {} {extra}",
        dir.display()
    ))
}

#[test]
fn train_then_resume_generate_downstream() {
    let dir = ckpt_dir("full-cycle");
    commands::train(&tiny_train_args(&dir, ""), false).expect("train failed");
    assert!(photon_core::checkpoint_exists(&dir));

    // Resume continues from the saved round.
    let resume = args(&format!(
        "resume --rounds 1 --tokens-per-client 2000 --eval-every 0 --checkpoint-dir {}",
        dir.display()
    ));
    commands::train(&resume, true).expect("resume failed");

    // Generation produces output without error.
    let gen = args(&format!(
        "generate --checkpoint-dir {} --prompt ab --tokens 8",
        dir.display()
    ));
    commands::generate(&gen).expect("generate failed");

    // Downstream suite scores the model.
    let ds = args(&format!("downstream --checkpoint-dir {}", dir.display()));
    commands::downstream(&ds).expect("downstream failed");
}

#[test]
fn train_variants() {
    // Pile-style data, DiLoCo server opt, compression, partial tolerance.
    let dir = ckpt_dir("variants");
    let a = tiny_train_args(
        &dir,
        "--data pile --clients 4 --server-opt diloco --compress --partial-ok",
    );
    commands::train(&a, false).expect("variant train failed");
}

#[test]
fn plan_runs_for_every_size() {
    for size in ["125M", "1B", "3B", "7B"] {
        commands::plan(&args(&format!("plan --size {size}"))).expect(size);
    }
    assert!(commands::plan(&args("plan --size 13B")).is_err());
}

#[test]
fn helpful_errors() {
    assert!(commands::generate(&args("generate")).is_err()); // no checkpoint
    assert!(commands::train(&args("train --server-opt bogus"), false).is_err());
    assert!(commands::train(&args("train --model bogus"), false).is_err());
    assert!(commands::train(&args("train --data bogus"), false).is_err());
    assert!(commands::train(&args("resume"), true).is_err()); // missing dir

    // `serve` resolves `train`'s compute options the same way.
    let backend = commands::train(&args("train --backend bogus"), false).unwrap_err();
    assert!(backend.contains("unknown --backend"), "{backend}");
    assert_eq!(
        commands::serve(&args("serve --backend bogus")).unwrap_err(),
        backend
    );

    // An option the command's help does not list is an error naming it,
    // not a silently different run: `--shard` is not `--shards`.
    let unknown = |result: Result<(), String>, name: &str| {
        let err = result.expect_err(name);
        assert!(err.contains(&format!("unknown option {name}")), "{err}");
    };
    unknown(commands::train(&args("train --shard 4"), false), "--shard");
    unknown(commands::train(&args("train --gaurd"), false), "--gaurd");
    unknown(commands::train(&args("resume --dir x"), true), "--dir");
    unknown(
        commands::serve(&args("serve --clients 2 --gaurd")),
        "--gaurd",
    );
    unknown(commands::client(&args("client --clients 2")), "--clients");
    unknown(commands::plan(&args("plan --model tiny")), "--model");
    unknown(commands::generate(&args("generate --rounds 2")), "--rounds");
    unknown(
        commands::downstream(&args("downstream --tokens 3")),
        "--tokens",
    );
    unknown(
        commands::trace(&args("trace --input a"), Some("merge")),
        "--input",
    );
}

#[test]
fn help_paths_do_not_error() {
    commands::train(&args("train --help"), false).unwrap();
    commands::plan(&args("plan --help")).unwrap();
    commands::generate(&args("generate --help")).unwrap();
    commands::downstream(&args("downstream --help")).unwrap();
}

/// The end-of-run summary and `--metrics-json` are renderings of one
/// snapshot: the counts a faulted run prints are the ones it wrote.
#[test]
fn summary_counts_are_the_metrics_json_counts() {
    let dir = ckpt_dir("summary");
    std::fs::create_dir_all(&dir).expect("dir");
    let json = dir.join("metrics.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_photon"))
        .args("train --clients 4 --rounds 4 --local-steps 2 --batch 2 --partial-ok".split(' '))
        .args("--tokens-per-client 2000 --eval-every 0 --deadline-ms 100".split(' '))
        .args([
            "--faults",
            "crash=0.2,corrupt=0.3,straggle=0.2,straggle-ms=400,seed=9",
        ])
        .arg("--metrics-json")
        .arg(&json)
        .output()
        .expect("photon runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let written = std::fs::read_to_string(&json).expect("metrics json");
    let written = |key: &str| -> u64 {
        let (_, rest) = written.split_once(&format!("\"{key}\": ")).expect(key);
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.expect(key).parse().expect(key)
    };
    let summary = format!(
        "faults absorbed: {} crash(es), {} straggler(s), {} retransmit(s), \
         {} link dropout(s), {} recovery(ies)",
        written("crashes"),
        written("stragglers"),
        written("retransmits"),
        written("link_dropouts"),
        written("recoveries"),
    );
    assert!(written("crashes") + written("retransmits") > 0, "{stdout}");
    assert!(stdout.contains(&summary), "{summary}\nnot in\n{stdout}");
}

/// The run's metrics store survives `recover()`: after a run that restored
/// from its checkpoints three times, `--metrics-json`'s counters are the
/// `--metrics-text` counter rows, name for name (the trace recorder that
/// renders the latter outlives every rebuilt federation).
#[test]
fn metrics_json_counters_are_the_metrics_text_counters_through_recoveries() {
    let dir = ckpt_dir("recovered-counters");
    std::fs::create_dir_all(&dir).expect("dir");
    let (json, text) = (dir.join("metrics.json"), dir.join("metrics.prom"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_photon"))
        .args("train --clients 4 --rounds 8 --checkpoint-every 2 --recovery-budget 8".split(' '))
        .args("--partial-ok --faults crash=0.15,agg=0.3,seed=5".split(' '))
        .args("--tokens-per-client 4000 --local-steps 2 --eval-every 0".split(' '))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .arg("--metrics-json")
        .arg(&json)
        .arg("--metrics-text")
        .arg(&text)
        .output()
        .expect("photon runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json).expect("metrics json");
    let text = std::fs::read_to_string(&text).expect("metrics text");
    let (_, counters) = json
        .split_once("\"fault_counters\": {")
        .expect("fault_counters");
    let counters = &counters[..counters.find('}').expect("object ends")];
    let written: Vec<u64> = counters
        .split(',')
        .map(|entry| {
            entry
                .rsplit(':')
                .next()
                .expect("value")
                .trim()
                .parse()
                .expect(entry)
        })
        .collect();
    let exported = |name: &str| -> u64 {
        let sample = format!("photon_counter_total{{name=\"{name}\"}} ");
        let value = text.lines().find_map(|line| line.strip_prefix(&sample));
        value.map_or(0, |v| v.parse().expect(name))
    };
    let names: Vec<_> = photon_core::FaultCounters::default()
        .rows()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(written.len(), names.len(), "{counters}");
    for (name, value) in names.into_iter().zip(written) {
        assert_eq!(value, exported(name), "{name}");
    }
    assert!(exported("faults.recoveries") == 3 && exported("faults.crashes") > 0);
}

/// Every rate key and pinned kind the `--faults` parser names in its
/// unknown-key and unknown-kind errors is documented: each key as `key=`
/// and each kind as `kind@` in `train --help` or `serve --help`.
#[test]
fn fault_grammar_names_are_all_in_the_help() {
    let help = |command: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_photon"))
            .args([command, "--help"])
            .output()
            .expect("photon runs");
        assert!(out.status.success(), "{command} --help failed");
        String::from_utf8(out.stdout).expect("utf-8 help")
    };
    let help = help("train") + &help("serve");
    // The names an error lists, `|`-separated inside its parentheses.
    let listed = |spec: &str| {
        let err = photon_core::FaultSpec::parse(spec).expect_err(spec);
        let (_, names) = err.rsplit_once('(').expect("a name list");
        let names = names.strip_suffix(')').expect("a closed name list");
        names.split('|').map(String::from).collect::<Vec<_>>()
    };
    let keys = listed("bogus=1");
    let kinds = listed("bogus@r1c1");
    assert_eq!((keys.len(), kinds.len()), (17, 14), "{keys:?} {kinds:?}");
    for key in keys {
        assert!(help.contains(&format!("{key}=")), "help omits {key}=");
    }
    for kind in kinds {
        assert!(help.contains(&format!("{kind}@")), "help omits {kind}@");
    }
}
