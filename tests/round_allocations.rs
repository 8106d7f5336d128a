//! A round costs what its cohort costs: the bytes a steady-state round
//! allocates must not depend on how many clients are registered. The same
//! 256-client cohort and nano model are run over a 10^3- and a
//! 10^5-member registry and the third round's allocations compared; a
//! per-round copy of the roster (4 bytes a member, 400 KB at 10^5) or of
//! anything else registry-sized fails the bound. Deterministic, unlike a
//! latency ratio: the count does not depend on the host or its load.
//!
//! One `#[test]` in its own binary: the counting allocator is the
//! process's global allocator and counts every thread (the client lanes
//! included).

use photon_tests::{scale_cfg, scale_federation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const SAMPLED: usize = 256;
/// Slack for what legitimately differs between two cohorts of one size
/// (id digits in span arguments, vector growth steps).
const BOUND: u64 = 64 * 1024;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the bytes requested. `realloc` and
/// `alloc_zeroed` keep their default forms, which go through `alloc`.
struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the counter is
// a statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated by the third round of a fresh `registered`-member
/// federation (two rounds first, so lazily built state is in place).
fn third_round_bytes(registered: usize) -> u64 {
    let mut fed = scale_federation(&scale_cfg(registered, SAMPLED));
    for _ in 0..2 {
        fed.run_round().expect("warm-up round");
    }
    let before = ALLOCATED.load(Ordering::Relaxed);
    let record = fed.run_round().expect("measured round");
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(record.cohort.len(), SAMPLED);
    bytes
}

#[test]
fn a_rounds_allocations_do_not_grow_with_the_registry() {
    let small = third_round_bytes(1_000);
    let large = third_round_bytes(100_000);
    assert!(
        small.abs_diff(large) < BOUND,
        "the third round allocated {small} B at 10^3 registered and {large} B at 10^5: \
         something in the round is sized by the registry, not the cohort"
    );
}
