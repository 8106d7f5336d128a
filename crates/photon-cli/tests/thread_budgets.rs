//! The thread budget belongs to the run: two `photon train` runs in one
//! process, one at `--threads 1` and one at `--threads 2`, each end with
//! the bits they give alone. The budget is also the kernels' chunk count,
//! which is part of the arithmetic, so a budget that leaked from one run
//! into the other — or a `PHOTON_THREADS` default into a run that set
//! `--threads` — moves the final parameters.

use photon_cli::args::Args;
use photon_cli::commands;
use std::sync::Barrier;

/// A shape whose final parameters differ between one and two chunks.
const SHAPE: &str = "--clients 2 --rounds 2 --local-steps 2 --batch 8 \
                     --tokens-per-client 4000 --eval-every 0";

/// What a run ends with: an FNV-1a digest of the final checkpoint's
/// parameter bits, and the last `mean_client_loss` of its
/// `--metrics-json` as written.
#[derive(Debug, PartialEq, Eq)]
struct Ending {
    params: u64,
    loss: String,
}

fn train(threads: usize, name: &str) -> Ending {
    let dir = std::env::temp_dir()
        .join("photon-cli-budgets")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a run directory");
    let metrics = dir.join("metrics.json");
    let line = format!(
        "train {SHAPE} --threads {threads} --checkpoint-dir {} --metrics-json {}",
        dir.display(),
        metrics.display()
    );
    let args = Args::parse(line.split_whitespace().map(String::from)).expect("valid args");
    commands::train(&args, false).expect("train");
    let params = photon_core::load_checkpoint(&dir)
        .expect("checkpoint")
        .params;
    let params = params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    });
    let json = std::fs::read_to_string(&metrics).expect("metrics json");
    let key = "\"mean_client_loss\": ";
    let at = json.rfind(key).expect("a round's loss") + key.len();
    let loss = json[at..].split([',', '\n']).next().unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    Ending {
        params,
        loss: loss.to_string(),
    }
}

#[test]
fn two_runs_at_two_budgets_each_keep_the_bits_they_give_alone() {
    let alone = [train(1, "alone-1"), train(2, "alone-2")];
    assert_ne!(
        alone[0].params, alone[1].params,
        "the shape must tell one chunk from two, or a leaked budget would not show"
    );
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let runs = [1, 2].map(|threads| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                train(threads, &format!("together-{threads}"))
            })
        });
        runs.map(|run| run.join().expect("run"))
    });
    assert_eq!(
        together[0], alone[0],
        "--threads 1 beside a --threads 2 run"
    );
    assert_eq!(
        together[1], alone[1],
        "--threads 2 beside a --threads 1 run"
    );
}
