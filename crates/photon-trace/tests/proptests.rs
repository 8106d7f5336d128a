//! Property tests for the recorder's determinism guarantees: histogram
//! and counter merge are order-invariant, and a multi-threaded Sim-clock
//! workload flushes to byte-identical JSONL regardless of scheduling.

use photon_trace::{
    counter_add, flush_to_string, observe, set_actor, set_sim_time_us, span, CounterSet,
    LogHistogram, Phase, Recorder, Scope, TraceConfig,
};
use proptest::prelude::*;

/// Runs a deterministic synthetic federation-shaped workload: `rounds`
/// rounds, each advancing the sim clock, with `clients` worker threads
/// recording spans, counters and histogram samples derived only from
/// `seed`, the round and the client id, into a recorder of its own.
fn run_workload(seed: u64, rounds: u64, clients: u32) -> String {
    let recorder = Recorder::start(TraceConfig::default()).expect("recorder start");
    recorder.scope(|| workload(seed, rounds, clients))
}

fn workload(seed: u64, rounds: u64, clients: u32) -> String {
    set_actor(0);
    let mut out = String::new();
    for round in 0..rounds {
        set_sim_time_us(round * 1_000_000);
        let mut round_span = span(Phase::Round).arg("round", round);
        round_span.set_sim_dur_us(1_000_000);
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let scope = Scope::current();
                std::thread::spawn(move || {
                    scope.enter(|| {
                        set_actor(1 + client);
                        let mix = seed ^ (round << 8) ^ client as u64;
                        let mut step = span(Phase::LocalStep)
                            .arg("client", client as u64)
                            .arg("tokens", 128 + (mix % 997));
                        step.set_sim_dur_us(900_000);
                        counter_add("client.steps", 1 + (mix % 3));
                        observe("client.delta_bytes", 1 + (mix % 100_000));
                        drop(step);
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        {
            let _merge = span(Phase::RobustMerge).arg("admitted", clients as u64);
        }
        drop(round_span);
        out.push_str(&flush_to_string());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two same-seed Sim-clock runs produce byte-identical JSONL even
    /// though thread scheduling and real timings differ.
    #[test]
    fn same_seed_traces_are_byte_identical(
        seed in any::<u64>(),
        rounds in 1u64..4,
        clients in 1u32..5,
    ) {
        let first = run_workload(seed, rounds, clients);
        let second = run_workload(seed, rounds, clients);
        prop_assert!(!first.is_empty());
        prop_assert_eq!(first, second);
    }

    /// Histogram merge is order-invariant: merging per-thread shards in
    /// any order equals recording the concatenated samples directly.
    #[test]
    fn histogram_merge_is_order_invariant(
        samples in proptest::collection::vec(any::<u64>(), 1..64),
        split in 0usize..64,
    ) {
        let split = split % samples.len();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            if i < split { left.record(v); } else { right.record(v); }
            whole.record(v);
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(&lr, &rl);
        prop_assert_eq!(&lr, &whole);
        prop_assert_eq!(lr.quantile(0.5), whole.quantile(0.5));
    }

    /// Counter merge is order-invariant.
    #[test]
    fn counter_merge_is_order_invariant(
        a_vals in proptest::collection::vec(0u64..1_000, 3),
        b_vals in proptest::collection::vec(0u64..1_000, 3),
    ) {
        const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
        let mut a = CounterSet::new();
        let mut b = CounterSet::new();
        for (i, name) in NAMES.iter().enumerate() {
            a.add(name, a_vals[i]);
            b.add(name, b_vals[i]);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        for (i, name) in NAMES.iter().enumerate() {
            prop_assert_eq!(ab.get(name), a_vals[i] + b_vals[i]);
        }
    }
}
