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
}

#[test]
fn help_paths_do_not_error() {
    commands::train(&args("train --help"), false).unwrap();
    commands::plan(&args("plan --help")).unwrap();
    commands::generate(&args("generate --help")).unwrap();
    commands::downstream(&args("downstream --help")).unwrap();
}
