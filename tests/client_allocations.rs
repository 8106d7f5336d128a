//! A client round allocates nothing model-sized: once its lane's
//! workspace is sized, a `client_round` allocates its sealed result frame
//! and bookkeeping, not the model, activations, gradients, optimizer
//! moments or delta again. A count, not a timing, so it does not depend
//! on the host or its load.
//!
//! One `#[test]` in its own binary: the counting allocator is the
//! process's global allocator and counts every thread (replica threads
//! and kernel workers included).

use photon_core::{build_client, client_round, ClientReply, FederationConfig, Workspace};
use photon_nn::{Gpt, ModelConfig};
use photon_tensor::SeedStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Slack for a round's bookkeeping: data streams, span and RNG labels,
/// the job list.
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

/// Bytes the third `client_round` of a single-GPU `proxy_small` client
/// allocates on one workspace (two rounds first, so the workspace and a
/// stateful client's optimizer are in place), and the size of the result
/// frame it sealed.
fn third_round_bytes(stateless_local: bool) -> (u64, u64) {
    let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_small(), 2);
    // One step of one sequence, `tcp_large_tau1`'s shape: what a train
    // step allocates itself is `step_allocations`' bound, not this one's.
    cfg.local_steps = 1;
    cfg.local_batch = 1;
    cfg.stateless_local = stateless_local;
    let global = Gpt::new(cfg.model, &mut SeedStream::new(cfg.seed)).into_params();
    let mut client = build_client(&cfg, 0, 4_096).expect("client");
    let mut workspace = Workspace::new();
    let mut round = |round: u64| {
        let reply = client_round(
            &mut client,
            &mut workspace,
            Ok(&global),
            round,
            &[0, 1],
            &cfg,
            None,
        );
        match reply {
            ClientReply::Frame { frame, .. } => frame.frame().len() as u64,
            _ => panic!("round {round} sealed no result"),
        }
    };
    round(0);
    round(1);
    let before = ALLOCATED.load(Ordering::Relaxed);
    let frame = round(2);
    (ALLOCATED.load(Ordering::Relaxed) - before, frame)
}

#[test]
fn a_client_round_on_a_lane_workspace_allocates_its_result_frame_and_little_else() {
    for stateless_local in [true, false] {
        let (bytes, frame) = third_round_bytes(stateless_local);
        eprintln!("stateless_local={stateless_local}: {bytes} B allocated, result frame {frame} B");
        assert!(
            bytes <= frame + BOUND,
            "stateless_local={stateless_local}: the third client round allocated {bytes} B \
             for a {frame} B result frame: something model-sized is built per round"
        );
    }
}
