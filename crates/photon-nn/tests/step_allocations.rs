//! A train step moves no data it does not need, and the cheapest thing to
//! count is the heap: after warm-up, one `Gpt::forward` + `Gpt::backward` on
//! one thread allocates only the kernels' small task lists — no per-call
//! repack of a weight, no per-unit attention tiles, no pointer table sized
//! by `B * T * NH`. The GEMM driver's panels live on the stack. Deterministic,
//! unlike a timing: the count does not depend on the host or its load.
//!
//! One `#[test]` in its own binary: the counting allocator is the process's
//! global allocator.

use photon_nn::{Activations, Gpt, ModelConfig};
use photon_tensor::ops::pool;
use photon_tensor::SeedStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Far below one weight matrix or one activation buffer of either model,
/// far above the task lists and window tables a step does allocate.
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

/// Bytes allocated by the third forward + backward of a fresh model (two
/// steps first, so lazily built state is in place).
fn third_step_bytes(config: ModelConfig, batch: usize) -> u64 {
    let mut rng = SeedStream::new(7);
    let model = Gpt::new(config, &mut rng);
    let mut acts = Activations::new(&config, batch, config.seq_len);
    let mut grads = model.grad_buffer();
    let tokens: Vec<u32> = (0..batch * config.seq_len)
        .map(|_| rng.next_below(config.vocab_size) as u32)
        .collect();
    let targets: Vec<u32> = tokens.iter().rev().copied().collect();
    let mut step = || {
        let loss = model.forward(&tokens, Some(&targets), &mut acts);
        assert!(loss.is_some_and(f32::is_finite));
        model.backward(&tokens, &targets, &mut acts, &mut grads);
    };
    step();
    step();
    let before = ALLOCATED.load(Ordering::Relaxed);
    step();
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn a_train_step_allocates_no_model_sized_scratch() {
    pool::with_parallelism(1, || {
        for (name, config, batch) in [
            ("proxy_small B=8", ModelConfig::proxy_small(), 8),
            ("proxy_large B=1", ModelConfig::proxy_large(), 1),
        ] {
            let bytes = third_step_bytes(config, batch);
            assert!(
                bytes < BOUND,
                "one forward + backward of {name} allocated {bytes} B: some kernel \
                 builds scratch on the heap every call"
            );
        }
    });
}
