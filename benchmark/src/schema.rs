//! The metric tables: every end-to-end and per-layer metric by name, with
//! unit, direction, regression bound and — written down before anything
//! was measured — which end-to-end metric on which workload each layer
//! metric is expected to move. `BENCHMARK.json` is generated from these
//! tables (`manifest` subcommand) and a test keeps the two equal.

use crate::workloads::WORKLOADS;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Whether the acceptance driver sees it. `round_fail_frac` is 0 on a
    /// healthy run, and a metric that is 0 has no relative bound, so the
    /// driver gets the same information as `failed` / `attempted`.
    pub in_manifest: bool,
}

/// A metric of a single layer (crate). No bound: it explains, it does not
/// gate.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs a gain here should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Why `moves` is empty, or a caveat on reading the number.
    pub note: &'static str,
}

use Better::{Higher, Lower};

/// The eight end-to-end metrics, reported by every workload.
pub const END_TO_END: &[EndToEnd] = &[
    // trained tokens (cohort x tau x B x T per committed round) / measured-window wall time
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        better: Higher,
        bound: 0.25,
        in_manifest: true,
    },
    // median round latency; sim: Instant around run_round; tcp: gap between commits seen by polling GET /health
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        in_manifest: true,
    },
    // nearest-rank p90, the highest percentile every frozen round count supports with >=10 samples beyond it
    EndToEnd {
        name: "round_ms_p90",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        in_manifest: true,
    },
    // sim: exact, RoundRecord.wire_bytes; tcp: delta of lo tx bytes in /proc/net/dev over the whole serve / rounds
    EndToEnd {
        name: "wire_bytes_per_round",
        unit: "bytes",
        better: Lower,
        bound: 0.02,
        in_manifest: true,
    },
    // VmHWM of the per-workload process at exit
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        in_manifest: true,
    },
    // process start to first measured round (build/provision + warm-up rounds); median of three cold processes
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        in_manifest: true,
    },
    // mean client loss over the last 10 measured rounds
    EndToEnd {
        name: "final_loss",
        unit: "nats",
        better: Lower,
        bound: 0.25,
        in_manifest: true,
    },
    // rounds that errored, ran degraded/deferred or committed fewer results than the cohort / rounds attempted
    EndToEnd {
        name: "round_fail_frac",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        in_manifest: false,
    },
];

const SD: &str = "sim_small_dense";
const TW: &str = "sim_tiny_wide";
const TCP: &str = "tcp_large_tau1";
const TREE: &str = "tree_100k";

const TPS_COMPUTE: &[(&str, &str)] = &[("tokens_per_s", SD), ("tokens_per_s", TW)];
const TPS_DENSE: &[(&str, &str)] = &[("tokens_per_s", SD), ("round_ms_p50", SD)];
const TPS_WIDE: &[(&str, &str)] = &[("tokens_per_s", TW), ("round_ms_p50", TW)];
const TPS_TCP: &[(&str, &str)] = &[("tokens_per_s", TCP), ("round_ms_p50", TCP)];
const P50_TCP: &[(&str, &str)] = &[("round_ms_p50", TCP)];
const P50_TREE: &[(&str, &str)] = &[("round_ms_p50", TREE)];
const SETUP_IID: &[(&str, &str)] = &[("setup_s", SD), ("setup_s", TW), ("setup_s", TCP)];
const WIRE_ALL: &[(&str, &str)] = &[
    ("wire_bytes_per_round", SD),
    ("wire_bytes_per_round", TW),
    ("wire_bytes_per_round", TCP),
    ("wire_bytes_per_round", TREE),
];
const SIM_ROUND: &[(&str, &str)] = &[("round_ms_p50", SD), ("round_ms_p50", TW)];
const TREE_ALL: &[(&str, &str)] = &[
    ("round_ms_p50", TREE),
    ("peak_rss_mb", TREE),
    ("setup_s", TREE),
];
const EXPLAINS: &str = "moves nothing directly; explains the other rows";
const NOT_IN_WINDOW: &str =
    "no workload checkpoints inside its window: moves no end-to-end metric today";
const EXPECT_ZERO: &str = "a count, expected 0 on these fault-free workloads";
const TCP_ONLY: &str = "0 on the sim workloads, which never enter photon-net";
const TREE_ONLY: &str =
    "0 off tree_100k: no other workload has a membership registry or shard tree";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:expr, $moves:expr, $note:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            note: $note,
        }
    };
}

/// The per-layer metrics, grouped by crate.
pub const PER_LAYER: &[Layer] = &[
    // photon-tensor: GEMM rows show on sim_small_dense, dispatch on
    // sim_tiny_wide, nothing on tree_100k.
    layer!("tensor.gemm_peak_gflops", "GFLOP/s", Higher, TPS_DENSE,
        "best serial ops::gemm over 64^3/128^3/256^3: the measured roofline"),
    layer!("tensor.gemm_nn_gflops", "GFLOP/s", Higher, TPS_DENSE, "gemm_auto at M=B*T, K=d, N=4d"),
    layer!("tensor.gemm_ta_gflops", "GFLOP/s", Higher, TPS_DENSE, "same shape, trans_a"),
    layer!("tensor.gemm_tb_gflops", "GFLOP/s", Higher, TPS_DENSE, "same shape, trans_b"),
    layer!("tensor.gemm_pool_speedup", "ratio", Higher, TPS_DENSE,
        "gemm_auto / serial gemm at 256^3, default threads"),
    layer!("tensor.pool_dispatch_us", "us", Lower, TPS_WIDE,
        "parallel_for with an empty body; 8 callers share the pool on sim_tiny_wide"),
    // photon-nn
    layer!("nn.fwd_ms", "ms", Lower, TPS_DENSE, "Gpt::forward at the workload's B x T"),
    layer!("nn.bwd_ms", "ms", Lower, TPS_DENSE, "Gpt::backward at the workload's B x T"),
    layer!("nn.attention_fwd_gflops", "GFLOP/s", Higher, TPS_WIDE,
        "kernels::attention_forward, 2*B*T^2*C flops (causal half)"),
    layer!("nn.attention_bwd_gflops", "GFLOP/s", Higher, TPS_WIDE,
        "kernels::attention_backward, 4*B*T^2*C flops"),
    layer!("nn.step_tokens_per_s", "tokens/s", Higher, TPS_COMPUTE,
        "forward+backward+clip+AdamW on one thread: the plain single-worker baseline; at most its compute share on tcp_large_tau1"),
    layer!("nn.mfu_frac", "ratio", Higher, TPS_DENSE,
        "step tokens/s x flops_per_token / gemm_peak: the CPU analogue of Table 2 MFU"),
    // photon-optim
    layer!("optim.adamw_step_ms", "ms", Lower, TPS_TCP,
        "AdamW::step at the workload's parameter count; one step per round on tcp_large_tau1"),
    layer!("optim.clip_ms", "ms", Lower, TPS_TCP, "clip_global_norm at the workload's parameter count"),
    // photon-data
    layer!("data.next_batch_us", "us", Lower, TPS_COMPUTE, "ShardStream::next_batch at B x T"),
    layer!("data.wait_frac", "ratio", Lower, TPS_COMPUTE,
        "next_batch / single-thread step time; should stay under 0.01 everywhere"),
    layer!("data.build_corpus_s", "s", Lower, SETUP_IID,
        "TokenCorpus::from_domain + partition_iid at the workload's size; 0 on tree_100k (no corpus)"),
    // photon-comms
    layer!("comms.encode_mbps", "MB/s", Higher, TPS_TCP, "Message::to_frame_opts on a model-sized result"),
    layer!("comms.decode_mbps", "MB/s", Higher, TPS_TCP, "Message::from_frame on the same frame"),
    layer!("comms.crc32_mbps", "MB/s", Higher, P50_TCP, "crc32 over the frame bytes"),
    layer!("comms.compress_mbps", "MB/s", Higher, TPS_WIDE, "compress_f32s on a real post-training delta"),
    layer!("comms.decompress_mbps", "MB/s", Higher, TPS_WIDE, "decompress_f32s of the same"),
    layer!("comms.compress_ratio", "ratio", Higher, &[("wire_bytes_per_round", TW)],
        "raw bytes / compressed bytes of that delta"),
    layer!("comms.frame_bytes_broadcast", "bytes", Lower, WIRE_ALL,
        "exact ModelBroadcast frame length; moves only with codec or protocol changes"),
    layer!("comms.frame_bytes_result", "bytes", Lower, WIRE_ALL, "exact ClientResult frame length"),
    layer!("comms.channel_deliver_ms", "ms", Lower, SIM_ROUND,
        "ChannelLink send/recv + deliver of one result frame"),
    layer!("comms.walltime_model_round_ms", "ms", Lower, &[],
        "Appendix B.1 WallTimeModel (parameter server) fed the measured nu and bandwidth; a prediction, not a measurement"),
    layer!("comms.walltime_residual_frac", "ratio", Lower, &[],
        "(round_ms_p50 - model) / round_ms_p50: what the analytic model misses"),
    // photon-fedopt
    layer!("fedopt.merge_mean_ms", "ms", Lower, P50_TCP, "aggregate_deltas over cohort x parameter count"),
    layer!("fedopt.merge_mean_gbps", "GB/s", Higher, P50_TCP, "bytes read by that merge per second"),
    layer!("fedopt.merge_trimmed_ms", "ms", Lower, &[("round_ms_p50", TW)], "trimmed_mean_aggregate, ratio 0.2"),
    layer!("fedopt.guard_screen_ms", "ms", Lower, &[("round_ms_p50", TW)], "UpdateGuard::screen_round"),
    layer!("fedopt.streaming_merge_ms", "ms", Lower, P50_TREE,
        "StreamingMerge, 32 updates pushed out of order, max_resident 16"),
    layer!("fedopt.streaming_peak_resident", "count", Lower, &[("peak_rss_mb", TREE)],
        "peak update vectors held by that merge"),
    layer!("fedopt.server_opt_ms", "ms", Lower, P50_TCP, "ServerOpt::apply (photon default)"),
    layer!("fedopt.sample_us", "us", Lower, P50_TREE, "UniformSampler, 256 of 10^5"),
    // photon-core
    layer!("core.build_s", "s", Lower, &[("setup_s", SD), ("setup_s", TW), ("setup_s", TREE)],
        "federation build/provision inside setup_s (tcp: serve start to first commit)"),
    layer!("core.round_ms_p50", "ms", Lower, &[], "the traced run's bench-side span around a round; compare with round_ms_p50"),
    layer!("core.client_round_ms", "ms", Lower, SIM_ROUND, "LlmClient::run_round for one client alone on the machine"),
    layer!("core.round_overhead_ms", "ms", Lower, SIM_ROUND,
        "round_ms_p50 - core.client_round_ms: contention, links, merge, orchestration"),
    layer!("core.parallel_efficiency", "ratio", Higher, TPS_COMPUTE,
        "tokens_per_s / (min(cohort, cores) x nn.step_tokens_per_s)"),
    layer!("core.membership_begin_round_us", "us", Lower, TREE_ALL, TREE_ONLY),
    layer!("core.shard_partition_us", "us", Lower, P50_TREE, TREE_ONLY),
    layer!("core.checkpoint_save_ms", "ms", Lower, &[], NOT_IN_WINDOW),
    layer!("core.checkpoint_load_ms", "ms", Lower, &[], NOT_IN_WINDOW),
    layer!("core.dropouts", "count", Lower, &[], EXPECT_ZERO),
    layer!("core.stragglers", "count", Lower, &[], EXPECT_ZERO),
    layer!("core.retransmits", "count", Lower, &[], EXPECT_ZERO),
    // photon-net: tcp_large_tau1 only.
    layer!("net.serve_wall_s", "s", Lower, TPS_TCP, TCP_ONLY),
    layer!("net.time_to_first_commit_ms", "ms", Lower, &[("setup_s", TCP)], TCP_ONLY),
    layer!("net.tcp_mbps", "MB/s", Higher, TPS_TCP, "one model-sized frame over loopback; 0 on sim"),
    layer!("net.tcp_frame_rtt_ms", "ms", Lower, TPS_TCP, "TcpLink send + frame_io echo of that frame; 0 on sim"),
    layer!("net.result_latency_p50_ms", "ms", Lower, TPS_TCP,
        "the /health per-client broadcast-to-result figure: the production number; 0 on sim"),
    layer!("net.round_gap_ms", "ms", Lower, TPS_TCP,
        "round_ms_p50 - result latency: coordinator-side decode/merge/commit/ack/broadcast; 0 on sim"),
    layer!("net.heartbeat_misses", "count", Lower, &[], EXPECT_ZERO),
    layer!("net.reconnects", "count", Lower, &[], EXPECT_ZERO),
    layer!("net.straggler_rounds", "count", Lower, &[], EXPECT_ZERO),
    layer!("net.health_poll_us", "us", Lower, P50_TCP, "one GET /health as the harness issues it; 0 on sim"),
    // photon-trace
    layer!("trace.overhead_frac", "ratio", Lower, &[], "1 - traced/untraced tokens_per_s; budget 0.05"),
    layer!("trace.span_disabled_ns", "ns", Lower, &[], EXPLAINS),
    layer!("trace.span_enabled_ns", "ns", Lower, &[], EXPLAINS),
    layer!("phase.compute_share", "ratio", Higher, &[], EXPLAINS),
    layer!("phase.comms_share", "ratio", Lower, &[], EXPLAINS),
    layer!("phase.aggregation_share", "ratio", Lower, &[], EXPLAINS),
    layer!("phase.durability_share", "ratio", Lower, &[], EXPLAINS),
    layer!("phase.orchestration_share", "ratio", Lower, &[], EXPLAINS),
];

/// The end-to-end metrics the acceptance driver sees.
pub fn manifest_metrics() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.in_manifest)
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Checks the tables against the benchmark contract: name and unit
/// alphabets, the workload / metric count limits, unique names, bounds in
/// range, `setup_s` present, and every layer metric naming the end-to-end
/// metric and workload it should move (or saying why it moves none).
///
/// # Errors
/// The first violation found.
pub fn validate() -> Result<(), String> {
    let manifest: Vec<&EndToEnd> = manifest_metrics().collect();
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads, need 2..=8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&manifest.len()) {
        return Err(format!(
            "{} end-to-end metrics, need 1..=16",
            manifest.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!("{} layer metrics, need 1..=128", PER_LAYER.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!(
                "name {name:?} outside [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in WORKLOADS {
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {}: why must be one line of <=200 chars",
                w.name
            ));
        }
    }
    for m in END_TO_END {
        if !valid_unit(m.unit) {
            return Err(format!("{}: bad unit {:?}", m.name, m.unit));
        }
        if !(0.0..=0.25).contains(&m.bound) {
            return Err(format!("{}: bound {} outside 0..=0.25", m.name, m.bound));
        }
    }
    if !manifest
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        return Err("setup_s (s, lower) missing".into());
    }
    for m in PER_LAYER {
        if !valid_unit(m.unit) {
            return Err(format!("{}: bad unit {:?}", m.name, m.unit));
        }
        if m.moves.is_empty() && m.note.is_empty() {
            return Err(format!(
                "{}: names no end-to-end metric and gives no reason",
                m.name
            ));
        }
        for (metric, workload) in m.moves {
            if !END_TO_END.iter().any(|e| e.name == *metric) {
                return Err(format!("{}: unknown end-to-end metric {metric}", m.name));
            }
            if !WORKLOADS.iter().any(|w| w.name == *workload) {
                return Err(format!("{}: unknown workload {workload}", m.name));
            }
        }
    }
    Ok(())
}

/// Renders `BENCHMARK.json` from the tables.
pub fn manifest_json(run_seconds: u64) -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = manifest_metrics()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_satisfy_the_contract() {
        validate().unwrap();
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 8);
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("tensor.gemm_nn_gflops"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("tokens/s") && valid_unit("%") && valid_unit("GFLOP/s"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(crate::workloads::REF_SECONDS),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
