//! End-to-end crash tolerance with real OS processes: `photon serve`
//! and `photon client` binaries over localhost TCP, with SIGKILL — not
//! a polite shutdown — aimed at a client and then at the coordinator
//! mid-run. The run must finish, every session must resume (never
//! re-admit), no result may double-apply, and the final loss must stay
//! within 10% of a fault-free run.

use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_photon");

/// Reserves a localhost port (bind, read, release).
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", listener.local_addr().unwrap().port())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "photon-mp-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Shared model/round shape for every run in this file: tiny model,
/// short rounds, partial results allowed.
fn serve_cmd(addr: &str, rounds: u64) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "serve",
        "--addr",
        addr,
        "--clients",
        "3",
        "--rounds",
        &rounds.to_string(),
        "--local-steps",
        "4",
        "--tokens-per-client",
        "2000",
        "--warmup-ms",
        "100",
        "--cooldown-ms",
        "100",
        "--round-timeout-ms",
        "8000",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    cmd
}

fn spawn_client(addr: &str, session_file: Option<&Path>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.args(["client", "--addr", addr, "--max-attempts", "200"]);
    if let Some(path) = session_file {
        cmd.arg("--session-file").arg(path);
    }
    cmd.stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// Waits for a child and returns (success, stdout).
fn finish(child: Child) -> (bool, String) {
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), format!("{stdout}\n{stderr}"))
}

/// Pulls the mean client loss of the last committed round out of a
/// serve process's stdout.
fn final_loss(serve_stdout: &str) -> f64 {
    serve_stdout
        .lines()
        .filter_map(|l| l.rsplit("mean client loss ").next()?.trim().parse().ok())
        .next_back()
        .expect("serve printed no round losses")
}

/// Extracts `"key": <integer>` from the metrics JSON snapshot.
fn metric_u64(metrics: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = metrics.find(&needle)? + needle.len();
    let rest = &metrics[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Polls the serve metrics file until `rounds_committed >= target` (the
/// snapshot is written after the checkpoint, so observing it also
/// proves the checkpoint for that round is durable).
fn wait_for_commits(metrics_path: &Path, target: u64, budget: Duration) -> String {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(metrics_path) {
            if metric_u64(&text, "rounds_committed").is_some_and(|n| n >= target) {
                return text;
            }
        }
        assert!(
            start.elapsed() < budget,
            "no {target} commits within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Rounds per run: enough that the coordinator, which keeps committing
/// between the commit the test observes and the SIGKILL landing, is
/// still mid-run when it dies, however fast the host.
const ROUNDS: u64 = 12;

#[test]
fn sigkill_client_and_coordinator_and_run_recovers() {
    // --- fault-free baseline (same binaries, same shape) --------------
    let addr = free_addr();
    let serve = serve_cmd(&addr, ROUNDS).spawn().unwrap();
    let clients: Vec<Child> = (0..3).map(|_| spawn_client(&addr, None)).collect();
    let (ok, serve_out) = finish(serve);
    assert!(ok, "baseline serve failed:\n{serve_out}");
    for c in clients {
        let (ok, out) = finish(c);
        assert!(ok && out.contains("clean shutdown: true"), "{out}");
    }
    let baseline_loss = final_loss(&serve_out);

    // --- faulted run: SIGKILL a client, then the coordinator ----------
    let addr = free_addr();
    let dir = scratch_dir("kill");
    let metrics = dir.join("metrics.json");
    let ckpt = dir.join("ckpt");
    let session: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("session-{i}"))).collect();

    let mut serve1 = serve_cmd(&addr, ROUNDS);
    serve1
        .arg("--metrics-json")
        .arg(&metrics)
        .arg("--checkpoint-dir")
        .arg(&ckpt);
    let mut serve1 = serve1.spawn().unwrap();
    let mut clients: Vec<Child> = session
        .iter()
        .map(|s| spawn_client(&addr, Some(s)))
        .collect();

    // Round 0 committed: SIGKILL client 0 outright and restart it with
    // the same session file. It must resume its session, not re-join —
    // with --clients 3 there is no spare admission slot, so a re-join
    // would wedge the run.
    wait_for_commits(&metrics, 1, Duration::from_secs(60));
    let mut victim = clients.remove(0);
    victim.kill().unwrap();
    victim.wait().unwrap();
    clients.insert(0, spawn_client(&addr, Some(&session[0])));

    // Round 1 checkpointed: SIGKILL the coordinator and restart it with
    // --resume on the same address. The clients ride the outage on
    // their reconnect backoff and resume by session token. The
    // coordinator may commit further rounds before the signal lands, so
    // what the restart must restore is whatever checkpoint it left.
    wait_for_commits(&metrics, 2, Duration::from_secs(60));
    serve1.kill().unwrap();
    let mut drain = String::new();
    serve1
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut drain)
        .ok();
    serve1.wait().unwrap();

    let mut serve2 = serve_cmd(&addr, ROUNDS);
    serve2
        .arg("--resume")
        .arg("--metrics-json")
        .arg(&metrics)
        .arg("--checkpoint-dir")
        .arg(&ckpt);
    let serve2 = serve2.spawn().unwrap();

    let (ok, serve2_out) = finish(serve2);
    assert!(ok, "restarted serve failed:\n{serve2_out}");
    let resumed: Option<u64> = serve2_out
        .split("resumed from checkpointed round ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok());
    let resumed = resumed.unwrap_or_else(|| panic!("restart restored nothing:\n{serve2_out}"));
    assert!(
        (2..ROUNDS).contains(&resumed),
        "restart must restore a mid-run checkpoint, at or past the observed round 2:\n{serve2_out}"
    );
    for c in clients {
        let (ok, out) = finish(c);
        assert!(ok && out.contains("clean shutdown: true"), "{out}");
    }

    // The restarted coordinator's final snapshot: all three sessions
    // resumed (no fresh re-admissions), restart counted, and every
    // committed round applied at most `cohort` results — re-deliveries
    // were acked, never re-applied.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(
        metric_u64(&snapshot, "rounds_committed"),
        Some(ROUNDS - resumed)
    );
    assert_eq!(metric_u64(&snapshot, "coordinator_restarts"), Some(1));
    assert_eq!(metric_u64(&snapshot, "sessions"), Some(3));
    assert!(
        metric_u64(&snapshot, "session_resumes").is_some_and(|n| n >= 3),
        "all clients must resume into the restarted coordinator:\n{snapshot}"
    );
    for window in snapshot.split("\"recent_rounds\"").nth(1).iter() {
        for entry in window.split('{').skip(1) {
            let received = metric_u64(entry, "received").unwrap_or(0);
            let cohort = metric_u64(entry, "cohort").unwrap_or(0);
            assert!(
                received <= cohort,
                "round applied more results than its cohort (double-apply): {entry}"
            );
        }
    }

    // Convergence: the doubly-crashed run lands within 10% of baseline.
    let faulted_loss = final_loss(&serve2_out);
    assert!(
        (faulted_loss - baseline_loss).abs() <= 0.10 * baseline_loss.abs(),
        "faulted loss {faulted_loss} vs baseline {baseline_loss}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
