//! Golden safety net for the round engine: one table of seeded scenarios,
//! one per aggregation mode and failure path, each pinned to a digest of
//! everything a round can observably produce — the serialized
//! `RoundRecord` sequence (or the error a round returned), the final
//! parameter bit patterns, the fault counters and the drained sim-clock
//! trace. A refactor of the round engine must leave every digest alone.
//!
//! Each scenario records into a `Recorder` of its own, so the trace under
//! digest holds that scenario's events and nothing else.
//!
//! The `want` column was generated by running this file against the
//! pre-refactor engine (a mismatch prints the digests it computed). Do
//! not edit it to make a change pass. It pins the kernels' one arithmetic,
//! which the portable and SIMD backends share: it was re-pinned once, to
//! the digests the SIMD backend of the commit before that change produced,
//! and once more when the fault counters lost `link_losses` and
//! `link_reorders` (every digest hashes their JSON; the eight rows without
//! a network model digest the same text minus those two zero keys) and the
//! network chaos row lost per-attempt loss and the reorder window.

use photon_core::experiments::build_iid_federation;
use photon_core::{
    AdaptiveDeadlineConfig, CoreError, FaultCounters, FaultSpec, FederationConfig, HierarchyConfig,
    LinkProfile, MembershipConfig, NetworkConfig, RoundRecord,
};
use photon_fedopt::{AggregationKind, BufferConfig, GuardConfig};
use photon_tests::tiny_federation;
use photon_trace::{Recorder, TraceConfig};

const TOKENS: usize = 3_000;

/// What one scenario produced, for the digest and the coverage check.
struct Run {
    /// `Ok` records and `Err` messages, in execution order.
    steps: Vec<Result<RoundRecord, String>>,
    params: Vec<f32>,
    counters: FaultCounters,
    trace: String,
}

impl Run {
    fn records(&self) -> impl Iterator<Item = &RoundRecord> {
        self.steps.iter().filter_map(|s| s.as_ref().ok())
    }

    /// One line per step: the record as JSON, or the error.
    fn log(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            match step {
                Ok(r) => out.push_str(&serde_json::to_string(r).expect("record serializes")),
                Err(e) => out.push_str(&format!("ERR {e}")),
            }
            out.push('\n');
        }
        out
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.log().as_bytes());
        for p in &self.params {
            h.write(&p.to_bits().to_le_bytes());
        }
        h.write(
            serde_json::to_string(&self.counters)
                .expect("counters serialize")
                .as_bytes(),
        );
        h.write(self.trace.as_bytes());
        h.0
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs `rounds` committed rounds of `cfg` under `faults`. A watchdog trip
/// is recorded, the round neutralized, and the same round re-run — the
/// recovery driver's protocol without the checkpoint restore.
fn run(cfg: &FederationConfig, faults: &str, rounds: u64) -> Run {
    let recorder = Recorder::start(TraceConfig::default()).expect("tracing initializes");
    let spec = FaultSpec::parse(faults).expect("fault spec parses");
    let injector = spec.plan(cfg.population, rounds);
    let (mut fed, _) = build_iid_federation(cfg, TOKENS).expect("federation builds");
    let mut steps = Vec::new();
    recorder.scope(|| {
        while fed.aggregator.round() < rounds {
            assert!(steps.len() < 2 * rounds as usize, "run does not terminate");
            match fed.run_round_with(Some(&injector)) {
                Ok(record) => steps.push(Ok(record)),
                Err(CoreError::Divergence { round, reason }) => {
                    steps.push(Err(format!("divergence at {round}: {reason}")));
                    fed.aggregator.neutralize_round(round);
                }
                Err(e) => panic!("round {} failed: {e}", fed.aggregator.round()),
            }
        }
    });
    let trace = recorder.flush_to_string();
    Run {
        steps,
        params: fed.aggregator.params().to_vec(),
        counters: fed.aggregator.telemetry().fault_counters(),
        trace,
    }
}

fn flat(n: usize, seed: u64) -> FederationConfig {
    let mut cfg = tiny_federation(n);
    cfg.seed = seed;
    cfg
}

fn tree(n: usize, seed: u64, shard_quorum_frac: f64) -> FederationConfig {
    let mut cfg = flat(n, seed);
    cfg.allow_partial_results = true;
    cfg.hierarchy = Some(HierarchyConfig {
        shards: 4,
        shard_quorum_frac,
        max_resident: 4,
    });
    cfg
}

fn buffered(n: usize, seed: u64) -> FederationConfig {
    let mut cfg = flat(n, seed);
    cfg.allow_partial_results = true;
    cfg.membership = Some(MembershipConfig::default());
    cfg.buffer = Some(BufferConfig {
        quorum: 3,
        staleness_decay: 0.5,
    });
    cfg.round_deadline_ms = Some(300);
    cfg
}

struct Row {
    name: &'static str,
    cfg: FederationConfig,
    faults: &'static str,
    rounds: u64,
    /// The scenario fired: guards against a digest that is stable only
    /// because the path it is meant to pin never ran.
    fired: fn(&Run) -> bool,
    want: u64,
}

fn table() -> Vec<Row> {
    let mut guarded = flat(5, 33);
    guarded.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.2 };
    guarded.guard = GuardConfig::on();
    guarded.allow_partial_results = true;
    guarded.round_deadline_ms = Some(500);

    let mut chaos = flat(4, 13);
    chaos.allow_partial_results = true;
    chaos.network = Some(NetworkConfig {
        profile: LinkProfile {
            base_latency_ms: 20,
            jitter_ms: 15,
            dup_rate: 0.3,
            ..LinkProfile::default()
        },
        ..NetworkConfig::default()
    });
    chaos.adaptive_deadline = Some(AdaptiveDeadlineConfig {
        floor_ms: 100,
        ceiling_ms: 2_000,
        ..AdaptiveDeadlineConfig::default()
    });

    let mut tree_guarded = tree(8, 29, 0.5);
    tree_guarded.guard = GuardConfig::on();

    let mut buffered_tree = buffered(8, 41);
    buffered_tree.hierarchy = Some(HierarchyConfig {
        shards: 4,
        shard_quorum_frac: 0.5,
        max_resident: 4,
    });

    let mut buffered_tree_robust = buffered(8, 43);
    buffered_tree_robust.hierarchy = buffered_tree.hierarchy;
    buffered_tree_robust.guard = GuardConfig::on();
    buffered_tree_robust.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.2 };

    let mut watched = flat(3, 19);
    watched.loss_spike_mult = Some(20.0);

    vec![
        Row {
            name: "flat mean",
            cfg: flat(3, 11),
            faults: "seed=1",
            rounds: 6,
            fired: |run| run.records().all(|r| r.pseudo_grad_norm > 0.0),
            want: 0x734b_f9a8_f599_2f98,
        },
        Row {
            name: "flat trimmed-mean + guard, byzantine faults, partial results",
            cfg: guarded,
            faults: "nan-update@r1c2,scale:50@r3c1,sign-flip@r5c3,crash@r2c4,\
                     corrupt:1@r4c0,straggle:900@r2c0,seed=3",
            rounds: 8,
            fired: |run| {
                let c = &run.counters;
                c.rejected_nonfinite > 0
                    && c.rejected_outliers + c.norm_clipped > 0
                    && c.quarantine_skips > 0
                    && c.crashes > 0
                    && c.stragglers > 0
                    && c.retransmits > 0
            },
            want: 0xb343_dd26_c275_b5d5,
        },
        Row {
            name: "flat + network chaos, degrading partition and heal",
            cfg: chaos,
            faults: "partition@r1-r3:0|1.2.3,slowlink@r4c0,seed=5",
            rounds: 7,
            fired: |run| {
                let c = &run.counters;
                c.degraded_rounds == 2
                    && c.degraded_recoveries == 1
                    && c.partition_drops > 0
                    && c.link_duplicates > 0
                    && c.dup_drops > 0
            },
            want: 0xf1a5_109a_41c2_8b0a,
        },
        Row {
            name: "4-shard tree: shardcrash, shardhang, shard-quorum miss",
            cfg: tree(8, 23, 1.0),
            faults: "shards=4,shardcrash@r1s2,shardhang@r3s0,crash@r2c1,crash@r5c7,seed=7",
            rounds: 7,
            fired: |run| {
                let c = &run.counters;
                c.shard_crashes == 1
                    && c.shard_hangs == 1
                    && c.shard_degraded >= 2
                    && c.reparented > 0
            },
            want: 0x4ca5_9702_876c_8fdd,
        },
        Row {
            name: "tree + guard: poisoned shard aggregates screened at the root",
            cfg: tree_guarded,
            faults: "shards=4,nan-update@r1c3,scale:80@r3c0,shardhang@r4s1,seed=9",
            rounds: 7,
            fired: |run| {
                let c = &run.counters;
                c.rejected_nonfinite > 0 && c.shard_hangs == 1
            },
            want: 0x39f9_c2c6_1328_ca09,
        },
        Row {
            name: "membership + buffered: deferred stragglers, stale commit",
            cfg: buffered(4, 17),
            faults:
                "straggle:1500@r1c2,join@r2,crash@r4c0,crash@r4c1,crash@r4c3,leave@r6c3,seed=11",
            rounds: 8,
            fired: |run| {
                let c = &run.counters;
                run.records().any(|r| r.commit_deferred)
                    && c.stale_commits > 0
                    && c.buffered_commits > 0
                    && c.joins > 0
            },
            want: 0xd635_8f16_f0ca_58e4,
        },
        Row {
            name: "buffered + tree: the buffer's batch commit",
            cfg: buffered_tree,
            faults: "shards=4,straggle:1400@r1c5,shardhang@r2s1,shardcrash@r4s3,seed=13",
            rounds: 7,
            fired: |run| {
                let c = &run.counters;
                c.buffered_commits > 0
                    && c.stale_commits > 0
                    && c.shard_crashes == 1
                    && c.shard_hangs == 1
                    && c.reparented > 0
            },
            want: 0x02f4_de24_1939_136d,
        },
        Row {
            name: "buffered + tree + guard + trimmed-mean: updates screened per client",
            cfg: buffered_tree_robust,
            faults:
                "shards=4,nan-update@r1c2,sign-flip@r3c5,shardhang@r2s3,shardcrash@r4s1,seed=17",
            rounds: 7,
            fired: |run| {
                let c = &run.counters;
                c.rejected_nonfinite > 0 && c.buffered_commits > 0
            },
            want: 0x9794_23ab_93ec_39db,
        },
        Row {
            name: "watchdog trip, then the neutralized replay",
            cfg: watched,
            faults: "scale:4000@r4c0,seed=15",
            rounds: 7,
            fired: |run| {
                run.steps.iter().filter(|s| s.is_err()).count() == 1
                    && run.records().filter(|r| r.neutralized).count() == 1
            },
            want: 0x4d83_e865_6b07_46b8,
        },
    ]
}

#[test]
fn every_round_path_replays_to_its_golden_digest() {
    let mut report = String::new();
    let mut mismatched = 0;
    for row in table() {
        let run = run(&row.cfg, row.faults, row.rounds);
        assert!(
            (row.fired)(&run),
            "{}: the scenario did not fire\n{:?}\n{}",
            row.name,
            run.counters,
            run.log()
        );
        let got = run.digest();
        if got != row.want {
            mismatched += 1;
        }
        report.push_str(&format!(
            "  {:#018x} (want {:#018x})  {}\n",
            got, row.want, row.name
        ));
    }
    assert_eq!(mismatched, 0, "digests computed by this run:\n{report}");
}
