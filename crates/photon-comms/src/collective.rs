//! Real multi-threaded Ring-AllReduce over channels.
//!
//! This is the executable counterpart of the analytic RAR model in
//! [`crate::topology`]: `photon-core`'s DDP baseline uses it to average
//! gradients across worker threads, and the tests verify that the bytes it
//! moves equal the analytic `2 (K−1)/K · M` per worker.

use crossbeam::channel::{unbounded, Receiver, Sender};

/// One participant in a ring all-reduce group.
///
/// Workers are created together via [`ring_allreduce_group`] and then moved
/// onto their threads. Every collective call must be made by **all**
/// workers of the group, in the same order, or the group deadlocks (the
/// same contract as NCCL/MPI collectives).
#[derive(Debug)]
pub struct RingWorker {
    rank: usize,
    n: usize,
    tx_next: Sender<Vec<f32>>,
    rx_prev: Receiver<Vec<f32>>,
    bytes_sent: usize,
}

/// Creates an `n`-worker ring. Worker `i` sends to `(i + 1) % n`.
///
/// # Panics
/// Panics if `n == 0`.
pub fn ring_allreduce_group(n: usize) -> Vec<RingWorker> {
    assert!(n > 0, "group needs at least one worker");
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    // Worker i's outgoing channel feeds worker (i+1)%n, so worker i
    // receives on its own index and sends on channel i (wired to i+1).
    let mut workers: Vec<RingWorker> = Vec::with_capacity(n);
    let mut rx_iter = receivers.into_iter();
    for (rank, _) in (0..n).zip(0..n) {
        workers.push(RingWorker {
            rank,
            n,
            // Channel owned by rank, delivering to rank+1: sender index rank,
            // receiver index rank (consumed by rank+1). We fix up below.
            tx_next: senders[rank].clone(),
            rx_prev: rx_iter.next().expect("one receiver per worker"),
            bytes_sent: 0,
        });
    }
    // Receiver k currently pairs with sender k; we want worker k to hold
    // the receiver fed by worker (k-1+n)%n, i.e. receiver (k-1+n)%n.
    // Rotate the receivers by one position.
    if n > 1 {
        let mut rxs: Vec<Receiver<Vec<f32>>> = workers.iter().map(|w| w.rx_prev.clone()).collect();
        rxs.rotate_right(1);
        for (w, rx) in workers.iter_mut().zip(rxs) {
            w.rx_prev = rx;
        }
    }
    workers
}

impl RingWorker {
    /// This worker's rank in the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total payload bytes this worker has sent (4 bytes per element).
    pub fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    /// In-place element-wise **sum** across the group
    /// (reduce-scatter followed by all-gather, 2 (n−1) chunk transfers).
    ///
    /// # Panics
    /// Panics if workers pass buffers of different lengths.
    pub fn allreduce_sum(&mut self, data: &mut [f32]) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let bounds = chunk_bounds(data.len(), n);
        let chunk = |c: usize| bounds[c]..bounds[c + 1];

        // Phase 1: reduce-scatter. After n-1 steps, worker r holds the
        // fully reduced chunk (r + 1) % n.
        for step in 0..n - 1 {
            let send_c = (self.rank + n - step) % n;
            let buf = data[chunk(send_c)].to_vec();
            self.bytes_sent += buf.len() * 4;
            self.tx_next.send(buf).expect("ring peer hung up");
            let recv_c = (self.rank + n - step - 1) % n;
            let incoming = self.rx_prev.recv().expect("ring peer hung up");
            let dst = &mut data[chunk(recv_c)];
            assert_eq!(incoming.len(), dst.len(), "ring buffers must match");
            for (d, s) in dst.iter_mut().zip(&incoming) {
                *d += s;
            }
        }

        // Phase 2: all-gather the reduced chunks around the ring.
        for step in 0..n - 1 {
            let send_c = (self.rank + 1 + n - step) % n;
            let buf = data[chunk(send_c)].to_vec();
            self.bytes_sent += buf.len() * 4;
            self.tx_next.send(buf).expect("ring peer hung up");
            let recv_c = (self.rank + n - step) % n;
            let incoming = self.rx_prev.recv().expect("ring peer hung up");
            let dst = &mut data[chunk(recv_c)];
            assert_eq!(incoming.len(), dst.len(), "ring buffers must match");
            dst.copy_from_slice(&incoming);
        }
    }

    /// In-place element-wise **mean** across the group.
    pub fn allreduce_mean(&mut self, data: &mut [f32]) {
        self.allreduce_sum(data);
        let inv = 1.0 / self.n as f32;
        for d in data.iter_mut() {
            *d *= inv;
        }
    }
}

fn chunk_bounds(len: usize, n: usize) -> Vec<usize> {
    let base = len / n;
    let rem = len % n;
    let mut bounds = Vec::with_capacity(n + 1);
    let mut pos = 0usize;
    bounds.push(0);
    for c in 0..n {
        pos += base + usize::from(c < rem);
        bounds.push(pos);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bytes_on_wire, Topology};

    fn run_group(n: usize, len: usize, mean: bool) -> (Vec<Vec<f32>>, usize) {
        let workers = ring_allreduce_group(n);
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(r, mut w)| {
                std::thread::spawn(move || {
                    let mut data: Vec<f32> =
                        (0..len).map(|i| (r * len + i) as f32 * 0.25).collect();
                    if mean {
                        w.allreduce_mean(&mut data);
                    } else {
                        w.allreduce_sum(&mut data);
                    }
                    (data, w.bytes_sent())
                })
            })
            .collect();
        let mut outs = Vec::new();
        let mut total_bytes = 0usize;
        for h in handles {
            let (d, b) = h.join().expect("worker panicked");
            outs.push(d);
            total_bytes += b;
        }
        (outs, total_bytes)
    }

    #[test]
    fn sum_matches_serial_reduction() {
        for n in [1usize, 2, 3, 4, 7] {
            let len = 13;
            let (outs, _) = run_group(n, len, false);
            let mut expect = vec![0.0f32; len];
            for r in 0..n {
                for (i, e) in expect.iter_mut().enumerate() {
                    *e += (r * len + i) as f32 * 0.25;
                }
            }
            for (r, out) in outs.iter().enumerate() {
                for (a, b) in out.iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-3, "n={n} rank={r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mean_divides_by_group_size() {
        let (outs, _) = run_group(4, 8, true);
        let mut expect = vec![0.0f32; 8];
        for r in 0..4 {
            for (i, e) in expect.iter_mut().enumerate() {
                *e += (r * 8 + i) as f32 * 0.25;
            }
        }
        for e in expect.iter_mut() {
            *e /= 4.0;
        }
        for out in &outs {
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn wire_bytes_match_analytic_model() {
        // With len divisible by n, the threaded implementation moves
        // exactly the analytic RAR volume: 2 (K-1)/K * M per worker.
        let (n, len) = (4usize, 64usize);
        let (_, total_bytes) = run_group(n, len, false);
        let analytic = bytes_on_wire(Topology::RingAllReduce, n, len * 4);
        assert_eq!(total_bytes, analytic);
    }

    #[test]
    fn single_worker_is_noop() {
        let (outs, bytes) = run_group(1, 5, false);
        assert_eq!(bytes, 0);
        assert_eq!(outs[0], vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn uneven_chunks_still_correct() {
        // len = 10 over n = 4: chunks 3,3,2,2.
        let (outs, _) = run_group(4, 10, false);
        for out in &outs[1..] {
            assert_eq!(out, &outs[0]);
        }
    }

    #[test]
    fn chunk_bounds_cover_everything() {
        assert_eq!(chunk_bounds(10, 4), vec![0, 3, 6, 8, 10]);
        assert_eq!(chunk_bounds(8, 4), vec![0, 2, 4, 6, 8]);
        assert_eq!(chunk_bounds(3, 4), vec![0, 1, 2, 3, 3]);
    }
}
