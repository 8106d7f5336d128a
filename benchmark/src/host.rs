//! Host and noise record: every number in `results.json` carries the
//! machine it was taken on and how busy that machine was.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// The machine, toolchain and runtime configuration of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// SIMD-relevant CPU flags present (sse4/avx/fma families, neon).
    pub cpu_features: Vec<String>,
    /// The compute backend kernels dispatch to (`scalar` / `simd`).
    pub backend: String,
    /// The resolved kernel thread budget.
    pub pool_threads: usize,
    /// Storage precision of parameters on the wire (all workloads: f32).
    pub dtype: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Collects the host record.
pub fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let cpu_features = field("flags")
        .or_else(|| field("Features"))
        .unwrap_or_default()
        .split_whitespace()
        .filter(|f| {
            ["sse4", "avx", "fma", "neon", "asimd"]
                .iter()
                .any(|p| f.starts_with(p))
        })
        .map(str::to_string)
        .collect();
    Host {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: field("model name").unwrap_or_else(|| "unknown".into()),
        cpu_features,
        backend: photon_tensor::backend::active_name().to_string(),
        pool_threads: photon_tensor::ops::pool::max_threads(),
        dtype: "f32".into(),
        git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
        rustc: command_line("rustc", &["--version"]),
    }
}

/// The 1-minute load average (0 when `/proc/loadavg` is unreadable).
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the loopback interface has transmitted since boot
/// (`/proc/net/dev`): the only outside view of what `photon_net::serve`
/// puts on the wire, which exposes no byte count itself.
///
/// # Errors
/// A message when `/proc/net/dev` is unreadable or has no `lo` row.
pub fn lo_tx_bytes() -> Result<u64, String> {
    let text =
        std::fs::read_to_string("/proc/net/dev").map_err(|e| format!("/proc/net/dev: {e}"))?;
    parse_lo_tx(&text).ok_or_else(|| "/proc/net/dev has no parsable lo row".to_string())
}

/// Column 9 after the interface name is transmitted bytes.
fn parse_lo_tx(text: &str) -> Option<u64> {
    let row = text.lines().find_map(|l| l.trim().strip_prefix("lo:"))?;
    row.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lo_tx_is_the_ninth_counter() {
        let text = "Inter-|   Receive                                                |  Transmit\n \
             face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n    \
             lo: 1111 10 0 0 0 0 0 0 2222 10 0 0 0 0 0 0\n  \
             eth0: 5 1 0 0 0 0 0 0 6 1 0 0 0 0 0 0\n";
        assert_eq!(parse_lo_tx(text), Some(2222));
        assert_eq!(parse_lo_tx("eth0: 1 2 3"), None);
    }
}
