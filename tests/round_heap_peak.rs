//! A warm round's heap does not grow with its cohort: the update buffers
//! a round decodes results into, folds, screens and aggregates are kept
//! from round to round, so after warm-up the heap's high-water mark rises
//! above the round's starting level by a handful of model-sized buffers
//! (the lanes' in-flight result frames, shard and merge accumulators, the
//! aggregate), not by one or two per cohort member. A count, not a
//! timing: it does not depend on the host or its load.
//!
//! One `#[test]` in its own binary: the counting allocator is the
//! process's global allocator and counts every thread (the client lanes
//! included).

use photon_core::experiments::build_iid_federation;
use photon_core::{Federation, FederationConfig};
use photon_fedopt::{AggregationKind, GuardConfig};
use photon_nn::ModelConfig;
use photon_tests::{scale_cfg, scale_federation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, tracking live bytes and their high-water mark.
/// `realloc` and `alloc_zeroed` keep their default forms, which go through
/// `alloc` and `dealloc`.
struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the counters
// are statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far the fourth round of `fed` lifts the heap's high-water mark
/// above the round's starting level, in model-sized buffers (three rounds
/// first, so every buffer a round keeps is in place).
fn warm_round_peak_rise(mut fed: Federation) -> f64 {
    for _ in 0..3 {
        fed.run_round().expect("warm-up round");
    }
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    fed.run_round().expect("measured round");
    let rise = PEAK.load(Ordering::Relaxed) - start;
    let model_bytes = std::mem::size_of_val(fed.aggregator.params());
    rise as f64 / model_bytes as f64
}

/// `sim_tiny_wide`'s shape: 8 `proxy_tiny` clients, trimmed mean, the
/// guard and the compressed link.
fn tiny_wide() -> Federation {
    let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 8);
    cfg.local_steps = 4;
    cfg.local_batch = 4;
    cfg.aggregation = AggregationKind::parse("trimmed-mean").expect("a known rule");
    cfg.guard = GuardConfig {
        zscore_threshold: 1e12,
        ..GuardConfig::on()
    };
    cfg.compress_link = true;
    build_iid_federation(&cfg, 8_192)
        .expect("federation builds")
        .0
}

#[test]
fn a_warm_rounds_heap_peak_does_not_grow_with_the_cohort() {
    let tree = warm_round_peak_rise(scale_federation(&scale_cfg(1_000, 256)));
    println!("256-client nano tree: the peak rose by {tree:.1} model-sized buffers");
    let flat = warm_round_peak_rise(tiny_wide());
    println!("8-client proxy_tiny flat round: the peak rose by {flat:.1} model-sized buffers");
    assert!(
        tree < 32.0,
        "a warm 256-client tree round lifted the heap peak by {tree:.1} model-sized buffers: \
         something per client is allocated each round instead of reused"
    );
    assert!(
        flat < 8.0,
        "a warm 8-client flat round lifted the heap peak by {flat:.1} model-sized buffers, \
         as many as its cohort"
    );
}
