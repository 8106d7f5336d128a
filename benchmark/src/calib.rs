//! Machine-speed calibration.
//!
//! The reference host is a 2-vCPU cloud VM whose speed drifts by tens of
//! percent over minutes (a fixed L1-resident FMA loop ran anywhere from
//! 184 to 287 us during one quiet half hour), far more than the 10%
//! regressions the benchmark has to resolve. A sim session therefore
//! times two fixed loops of the benchmark's own — nothing from the crates
//! under test, so no change to them can move it — on every core at once,
//! inside the measured process and between its rounds, and divides its
//! wall-clock figures by the slowdown those loops saw against frozen
//! reference times. Raw wall-clock values are kept beside the normalised
//! ones in `results.json`. (The tcp workload has no gap between rounds to
//! sample in and is reported raw; see `README.md` for the measurements
//! behind both choices.)
//!
//! The buffers are allocated once, before the workload, and never freed:
//! freeing an 8 MiB block mid-run raises glibc's dynamic mmap threshold
//! and with it the workload's own peak RSS.

use crate::stats::median;
use std::time::{Duration, Instant};

/// Side of the FMA loop's square matrices: three of them fit in L1.
const N: usize = 96;
/// Words of the streaming loop's shared buffer: 8 MiB, beyond the 4 MiB L2.
const STREAM_WORDS: usize = 1 << 20;
/// How long a calibration at a session's edge samples the machine.
const EDGE_BUDGET: Duration = Duration::from_millis(100);
/// What [`Calibrator::sample`] reads on the reference host, back to back
/// with warm caches (the session's edges) ...
const EDGE_REF_S: f64 = 240e-6;
/// ... and as a single pass right after a training round left the caches
/// cold. Both only fix the unit: "1.0" is the reference host on an
/// ordinary minute.
const BETWEEN_ROUNDS_REF_S: f64 = 420e-6;

/// One core's compute buffers.
struct Lane {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Lane {
    /// Two `N`^3 multiply-accumulate sweeps: compute-bound, L1-resident.
    fn compute_pass(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..2 {
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for (c, b) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *c += aik * b;
                    }
                }
            }
        }
        // Keep the accumulator bounded over a long run.
        self.c.iter_mut().for_each(|c| *c *= 1e-6);
        std::hint::black_box(&self.c);
        t.elapsed().as_secs_f64()
    }
}

/// One read-only sweep over the shared buffer: memory-bound.
fn stream_pass(stream: &[u64]) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for v in stream {
        acc = acc.wrapping_add(*v);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The calibration loops and their buffers.
pub struct Calibrator {
    lanes: Vec<Lane>,
    stream: Vec<u64>,
}

impl Calibrator {
    /// Allocates the buffers: one compute lane per core, one shared
    /// streaming buffer.
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Calibrator {
            lanes: (0..cores)
                .map(|id| Lane {
                    a: (0..N * N)
                        .map(|i| (i % 7) as f32 * 0.25 + id as f32)
                        .collect(),
                    b: (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect(),
                    c: vec![0.0; N * N],
                })
                .collect(),
            stream: (0..STREAM_WORDS as u64).collect(),
        }
    }

    /// Slowdown against the reference host (1.0 = its speed, 1.3 = 30%
    /// slower) over 100 ms of passes: for the edges of a session.
    pub fn edge_slowdown(&mut self) -> f64 {
        self.sample(EDGE_BUDGET) / EDGE_REF_S
    }

    /// Slowdown against the reference host from one pass of each loop: for
    /// the gap between two rounds.
    pub fn round_slowdown(&mut self) -> f64 {
        self.sample(Duration::ZERO) / BETWEEN_ROUNDS_REF_S
    }

    /// The geometric mean of the compute and the streaming loop's times,
    /// each the median of the passes that fit in `budget` (at least one),
    /// averaged over every core running them at once.
    fn sample(&mut self, budget: Duration) -> f64 {
        let stream = &self.stream;
        let per_lane: Vec<(f64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    scope.spawn(move || {
                        let (mut compute, mut streamed) = (Vec::new(), Vec::new());
                        let start = Instant::now();
                        while compute.is_empty() || start.elapsed() < budget {
                            compute.push(lane.compute_pass());
                            streamed.push(stream_pass(stream));
                        }
                        (median(&compute), median(&streamed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration lanes do not panic"))
                .collect()
        });
        let lanes = per_lane.len() as f64;
        let compute = per_lane.iter().map(|l| l.0).sum::<f64>() / lanes;
        let streamed = per_lane.iter().map(|l| l.1).sum::<f64>() / lanes;
        (compute * streamed).sqrt()
    }
}
