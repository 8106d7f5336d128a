//! The number of client lanes a round runs on is scheduling, not
//! arithmetic: the same seeded round sequence on one lane, on two, and on
//! a lane per client must leave identical parameter bits, equal
//! `RoundRecord`s and a byte-identical drained sim-clock trace.
//!
//! Each run records into a `Recorder` of its own, so the trace under
//! comparison holds that run's events and nothing else.

use photon_core::experiments::build_iid_federation;
use photon_core::{FaultSpec, FederationConfig, HierarchyConfig, RoundRecord};
use photon_fedopt::{AggregationKind, GuardConfig};
use photon_tests::tiny_federation;
use photon_trace::{Recorder, TraceConfig};

const TOKENS: usize = 3_000;
const CLIENTS: usize = 8;

/// Everything a round sequence can observably produce.
#[derive(Debug, PartialEq)]
struct Outcome {
    steps: Vec<Result<RoundRecord, String>>,
    param_bits: Vec<u32>,
    trace: String,
}

fn run(cfg: &FederationConfig, faults: &str, rounds: u64, max_lanes: usize) -> Outcome {
    let recorder = Recorder::start(TraceConfig::default()).expect("tracing initializes");
    let spec = FaultSpec::parse(faults).expect("fault spec parses");
    let injector = spec.plan(cfg.population, rounds);
    let (mut fed, _) = build_iid_federation(cfg, TOKENS).expect("federation builds");
    let steps = recorder.scope(|| {
        (0..rounds)
            .map(|_| {
                fed.aggregator
                    .run_round_on_lanes(&mut fed.clients, Some(&injector), max_lanes)
                    .map_err(|e| e.to_string())
            })
            .collect()
    });
    let trace = recorder.flush_to_string();
    Outcome {
        steps,
        param_bits: fed
            .aggregator
            .params()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        trace,
    }
}

fn guarded() -> FederationConfig {
    let mut cfg = tiny_federation(CLIENTS);
    cfg.seed = 33;
    cfg.aggregation = AggregationKind::TrimmedMean { trim_ratio: 0.2 };
    cfg.guard = GuardConfig::on();
    cfg.allow_partial_results = true;
    cfg.round_deadline_ms = Some(500);
    cfg
}

fn tree() -> FederationConfig {
    let mut cfg = tiny_federation(CLIENTS);
    cfg.seed = 23;
    cfg.allow_partial_results = true;
    cfg.hierarchy = Some(HierarchyConfig {
        shards: 4,
        shard_quorum_frac: 0.5,
        max_resident: 4,
    });
    cfg
}

#[test]
fn a_round_sequence_is_identical_on_any_number_of_lanes() {
    let scenarios = [
        (
            "8-client trimmed-mean + guard",
            guarded(),
            "nan-update@r1c2,scale:50@r3c1,crash@r2c4,corrupt:1@r4c0,straggle:900@r2c7,seed=3",
        ),
        (
            "4-shard tree",
            tree(),
            "shards=4,shardcrash@r1s2,shardhang@r3s0,crash@r2c1,seed=7",
        ),
    ];
    for (name, cfg, faults) in scenarios {
        let on = |max_lanes| run(&cfg, faults, 5, max_lanes);
        let one = on(1);
        assert!(
            one.steps.iter().all(Result::is_ok) && one.trace.contains("local_step"),
            "{name}: the sequence ran and was traced\n{:?}",
            one.steps
        );
        assert_eq!(on(2), one, "{name}: 2 lanes against 1");
        assert_eq!(on(CLIENTS), one, "{name}: a lane per client against 1");
    }
}
