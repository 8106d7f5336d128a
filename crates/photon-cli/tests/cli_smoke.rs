//! End-to-end smoke tests for every `photon` subcommand, driven through
//! the library surface with miniature settings.

use photon_cli::args::{Args, Command};
use photon_cli::commands;
use photon_cli::options::{CLIENT, RESUME, SERVE, TRAIN};
use photon_core::MembershipConfig;
use photon_fedopt::BufferConfig;

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
    commands::serve(&args("serve --help")).unwrap();
    commands::client(&args("client --help")).unwrap();
    commands::train(&args("resume --help"), true).unwrap();
    commands::trace(&args("trace --help"), None).unwrap();
    commands::trace(&args("trace --help"), Some("merge")).unwrap();
}

/// Each command accepts exactly the options it reads, and one that it
/// refuses, a switch given a value or a value option given none is an
/// error naming the option.
#[test]
fn refused_and_malformed_options_are_errors_naming_them() {
    let accepted = |command: &Command| command.rows().filter(|opt| opt.flag != "help").count();
    let counts = [&TRAIN, &RESUME, &SERVE, &CLIENT].map(accepted);
    assert_eq!(counts, [54, 14, 58, 11]);
    for command in [&TRAIN, &RESUME, &SERVE, &CLIENT] {
        let mut flags: Vec<_> = command.rows().map(|opt| opt.flag).collect();
        flags.sort_unstable();
        let rows = flags.len();
        flags.dedup();
        assert_eq!(
            flags.len(),
            rows,
            "a flag appears twice in {}",
            command.about
        );
    }

    let named = |result: Result<(), String>, name: &str| {
        let err = result.expect_err(name);
        assert!(err.contains(name), "{name}: {err}");
    };
    for refused in [
        "--data pile",
        "--eval-every 2",
        "--checkpoint-every 2",
        "--partial-ok",
        "--recovery-budget 2",
    ] {
        let name = refused.split(' ').next().unwrap();
        named(commands::serve(&args(&format!("serve {refused}"))), name);
    }
    named(
        commands::train(&args("resume --clients 8"), true),
        "--clients",
    );
    named(
        commands::train(&args("resume --model large"), true),
        "--model",
    );
    named(
        commands::train(&args("train --membership 1"), false),
        "--membership",
    );
    named(
        commands::train(&args("train --rounds --clients 2"), false),
        "--rounds",
    );
}

/// Any knob of the membership or buffer section turns its section on
/// from its `Default`: `--round-ms` alone enables membership, and
/// `--staleness-decay` alone enables buffering (and so membership).
#[test]
fn section_knobs_enable_their_section() {
    let parsed = |line: &str| TRAIN.parse(&args(line)).expect(line).plan.cfg;
    let cfg = parsed("train --round-ms 500");
    let membership = cfg.membership.expect("--round-ms enables membership");
    assert_eq!(membership.round_ms, 500);
    assert_eq!(membership.lease_ms, MembershipConfig::default().lease_ms);
    assert!(cfg.buffer.is_none());

    let cfg = parsed("train --staleness-decay 0.25");
    let buffer = cfg.buffer.expect("--staleness-decay enables buffering");
    assert_eq!(buffer.staleness_decay, 0.25);
    assert_eq!(buffer.quorum, BufferConfig::default().quorum);
    assert_eq!(cfg.membership, Some(MembershipConfig::default()));

    // The other knobs keep their meaning: `--lease-ms` and
    // `--buffer-quorum` imply membership, `--max-resident` the tree.
    assert!(parsed("train --lease-ms 5000").membership.is_some());
    let cfg = parsed("train --buffer-quorum 3");
    assert!(cfg.membership.is_some() && cfg.buffer.is_some_and(|b| b.quorum == 3));
    assert!(parsed("train --max-resident 8").hierarchy.is_some());
    let cfg = parsed("train");
    assert!(cfg.membership.is_none() && cfg.buffer.is_none() && cfg.hierarchy.is_none());
}

/// Every `[default]` that `train`, `serve` and `client --help` print is
/// what parsing an empty command line produces: giving an option its
/// printed default changes nothing (a section knob turns its section on,
/// at the section's defaults).
#[test]
fn help_defaults_are_the_parsed_defaults() {
    for (name, command) in [("train", &TRAIN), ("serve", &SERVE), ("client", &CLIENT)] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_photon"))
            .args([name, "--help"])
            .output()
            .expect("photon runs");
        let help = String::from_utf8(out.stdout).expect("utf-8 help");
        // One entry per option: its first line starts `    --flag`, and
        // its `[default]`, if any, ends its last line.
        let mut entries: Vec<String> = Vec::new();
        for line in help.lines() {
            if line.starts_with("    --") {
                entries.push(line.trim().to_string());
            } else if let Some(entry) = entries.last_mut().filter(|_| line.starts_with("     ")) {
                entry.push(' ');
                entry.push_str(line.trim());
            }
        }
        assert_eq!(entries.len(), command.rows().count(), "{name} --help");
        let empty = command.parse(&args(name)).expect(name);
        let mut checked = 0;
        for entry in &entries {
            let Some(default) = entry.strip_suffix(']').and_then(|e| e.rsplit_once(" [")) else {
                continue;
            };
            let flag = entry.split_whitespace().next().unwrap();
            let line = format!("{name} {flag} {}", default.1);
            let given = command.parse(&args(&line)).expect(&line);
            let mut expected = empty.clone();
            let (want, got) = (&mut expected.plan.cfg, &given.plan.cfg);
            if got.network.is_some() {
                want.network.get_or_insert_with(Default::default);
            }
            if got.adaptive_deadline.is_some() {
                want.adaptive_deadline.get_or_insert_with(Default::default);
            }
            if got.membership.is_some() {
                want.membership.get_or_insert_with(Default::default);
            }
            if got.buffer.is_some() {
                want.buffer.get_or_insert_with(Default::default);
            }
            if got.hierarchy.is_some() {
                want.hierarchy.get_or_insert_with(Default::default);
            }
            assert_eq!(format!("{given:?}"), format!("{expected:?}"), "{line}");
            checked += 1;
        }
        assert!(checked >= 6, "{name}: only {checked} defaults printed");
    }
}

/// A data error on resume is reported once: `build_data` hands the
/// `CoreError` through instead of wrapping its rendering in another.
#[test]
fn resume_data_errors_carry_one_prefix() {
    let dir = ckpt_dir("resume-pile");
    commands::train(&tiny_train_args(&dir, ""), false).expect("train failed");
    let resume = args(&format!(
        "resume --checkpoint-dir {} --rounds 3 --data pile",
        dir.display()
    ));
    let err = commands::train(&resume, true).expect_err("2 clients cannot be a Pile run");
    assert_eq!(
        err,
        "invalid configuration: heterogeneous federations need a multiple of 4 clients"
    );
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
