//! Shared harness utilities for the paper-reproduction experiment benches.
//!
//! Every table and figure in the paper's evaluation has a `[[bench]]`
//! target (with `harness = false`) under `benches/`; each prints the same
//! rows/series the paper reports and mirrors its output into
//! `target/experiments/<name>.txt`. Run them all with
//! `cargo bench --workspace`, or one with `cargo bench -p photon-bench
//! --bench exp_table2_system_metrics`.
//!
//! Setting `PHOTON_FULL=1` enlarges the training-based experiments
//! (more rounds, bigger proxies); the default "quick" scale finishes the
//! whole suite in minutes on a laptop.

use photon_core::experiments::{build_iid_federation, run_federation, RunOptions};
use photon_core::{FederationConfig, TrainingHistory};
use photon_fedopt::ServerOptKind;
use photon_nn::ModelConfig;
use photon_optim::LrSchedule;
use std::io::Write;
use std::path::PathBuf;

/// Whether the suite runs at the enlarged `PHOTON_FULL=1` scale.
pub fn full_scale() -> bool {
    std::env::var("PHOTON_FULL").is_ok_and(|v| v == "1")
}

/// A printed-and-saved experiment report.
#[derive(Debug)]
pub struct Report {
    name: String,
    lines: Vec<String>,
}

impl Report {
    /// Starts a report, printing a header.
    pub fn new(name: &str, title: &str) -> Self {
        let mut r = Report {
            name: name.to_string(),
            lines: Vec::new(),
        };
        r.line(&format!("=== {title} ==="));
        r
    }

    /// Prints a line and records it for the saved report.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        self.lines.push(s.to_string());
    }

    /// Saves the report under `target/experiments/<name>.txt`.
    pub fn save(&self) {
        let dir = experiments_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.txt", self.name));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(self.lines.join("\n").as_bytes());
            let _ = f.write_all(b"\n");
            println!("[saved {}]", path.display());
        }
    }
}

fn experiments_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target directory; otherwise anchor
    // at the workspace root (bench binaries run with cwd = crates/bench).
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        })
        .join("experiments")
}

/// The standard quick federated training run used across experiments:
/// IID web-domain shards, FedAvg unless overridden, tiny proxy model.
#[derive(Debug, Clone)]
pub struct FedRun {
    /// Model architecture.
    pub model: ModelConfig,
    /// Number of clients (full participation unless sampled).
    pub clients: usize,
    /// Local steps per round τ.
    pub tau: u64,
    /// Local batch size.
    pub local_batch: usize,
    /// Server optimizer.
    pub server_opt: ServerOptKind,
    /// LR schedule.
    pub schedule: LrSchedule,
    /// Root seed.
    pub seed: u64,
    /// Tokens per client.
    pub tokens_per_client: usize,
}

impl FedRun {
    /// A standard tiny-proxy run.
    pub fn tiny(clients: usize, tau: u64, local_batch: usize) -> Self {
        FedRun {
            model: ModelConfig::proxy_tiny(),
            clients,
            tau,
            local_batch,
            server_opt: ServerOptKind::photon_default(),
            schedule: LrSchedule::paper_cosine(6e-3, 10, 2000),
            seed: 42,
            tokens_per_client: 12_000,
        }
    }

    /// Materializes the federation config.
    pub fn config(&self) -> FederationConfig {
        let mut cfg = FederationConfig::quick_demo(self.model, self.clients);
        cfg.local_steps = self.tau;
        cfg.local_batch = self.local_batch;
        cfg.server_opt = self.server_opt;
        cfg.schedule = self.schedule;
        cfg.seed = self.seed;
        cfg
    }

    /// Runs for up to `rounds` rounds with an optional early-stop target.
    ///
    /// # Panics
    /// Panics if the federation cannot be built (configuration bug).
    pub fn run(&self, rounds: u64, eval_every: u64, stop_below: Option<f64>) -> TrainingHistory {
        let cfg = self.config();
        let (mut fed, val) =
            build_iid_federation(&cfg, self.tokens_per_client).expect("valid experiment config");
        let opts = RunOptions {
            rounds,
            eval_every,
            eval_windows: 48,
            stop_below,
        };
        run_federation(&mut fed, &val, &opts).expect("federated run failed")
    }
}

/// Shared driver for the topology wall-time figures (Fig. 6 at 512 local
/// steps; Figs. 9–10 at 64 / 128): measures rounds-to-target on the tiny
/// proxy, then prints the local-compute / communication breakdown for all
/// three aggregation topologies via the Appendix-B.1 model (ν = 2,
/// 10 Gbps bottleneck, 125M payload).
pub fn run_comm_breakdown(rep: &mut Report, tau: u64, tau_paper: u64, cap: u64) {
    use photon_comms::{Topology, WallTimeModel};
    let b_l = 8usize;
    let target = 16.0f64;
    let s_mb = ModelConfig::paper_125m().param_bytes(2) as f64 / 1e6;

    rep.line(&format!(
        "\ntau = {tau_paper} paper steps (measured at proxy tau = {tau}), target ppl {target}"
    ));
    rep.line(&format!(
        "{:>3} {:>7} | {:>10} | {:>22} {:>22} {:>22}",
        "N", "rounds", "LC [s]", "PS comm [s] (%)", "AR comm [s] (%)", "RAR comm [s] (%)"
    ));
    for n in [2usize, 4, 8, 16] {
        let mut run = FedRun::tiny(n, tau, b_l);
        run.schedule = LrSchedule::paper_cosine(6e-3, 10, 1500);
        run.seed = 55;
        let history = run.run(cap, 1, Some(target));
        let Some(rounds) = history.rounds_to_target(target) else {
            rep.line(&format!(
                "{n:>3} {:>7} | target not reached",
                format!(">{cap}")
            ));
            continue;
        };
        let mut cells = Vec::new();
        let mut lc = 0.0;
        for topology in Topology::all() {
            let wt = WallTimeModel::new(2.0, tau_paper, s_mb, 1250.0, topology);
            let total = wt.total_time(n, rounds);
            lc = total.compute_s;
            cells.push(format!(
                "{:>12.1} ({:>4.1}%)",
                total.comm_s,
                100.0 * total.comm_fraction()
            ));
        }
        rep.line(&format!(
            "{:>3} {:>7} | {:>10.0} | {:>22} {:>22} {:>22}",
            n, rounds, lc, cells[0], cells[1], cells[2]
        ));
    }
}

/// Formats an optional round count, printing `>N` when the target was not
/// reached within the round budget.
pub fn fmt_rounds(r: Option<u64>, budget: u64) -> String {
    match r {
        Some(r) => format!("{r:>5}"),
        None => format!(">{budget:>4}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_saves_to_experiments_dir() {
        let mut r = Report::new("selftest", "self test");
        r.line("row 1");
        r.save();
        let path = experiments_dir().join("selftest.txt");
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains("self test"));
        assert!(contents.contains("row 1"));
    }

    #[test]
    fn fed_run_builds_valid_config() {
        let run = FedRun::tiny(4, 8, 4);
        run.config().validate().unwrap();
        assert_eq!(run.config().global_batch(), 16);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_rounds(Some(7), 50).trim(), "7");
        assert_eq!(fmt_rounds(None, 50).trim(), ">  50");
    }
}
