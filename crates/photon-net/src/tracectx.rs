//! The run-wide trace id a process declares as its recorder's trace scope.
//!
//! Every process in a run derives the same [`run_trace_id`] from the run
//! seed — no coordination needed — and declares it, with its actor lane,
//! with [`photon_trace::set_trace_scope`]. From then on every frame
//! [`TcpLink::send_sealed`] puts on the wire carries a
//! [`TraceCtx`](photon_comms::TraceCtx) trailer, and [`TcpLink::recv`]
//! records the matching `net_recv` event, so send/recv pairs across
//! processes become causal edges `photon trace merge` can join.
//!
//! [`TcpLink::send_sealed`]: crate::TcpLink::send_sealed
//! [`TcpLink::recv`]: crate::TcpLink::recv

use crate::backoff::splitmix;

/// The run-wide trace id: a pure function of the run seed, so every
/// process in one run agrees on it without coordination. Never 0 (0
/// means "no trace").
pub(crate) fn run_trace_id(run_seed: u64) -> u64 {
    let mixed = splitmix(run_seed ^ 0x7ace_1d00);
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::tests::loopback_pair;
    use photon_comms::{Link, Message, SealedFrame, TraceCtx, WireOpts, TRACE_CTX_LEN};
    use photon_trace::{Recorder, TraceConfig};
    use std::time::Duration;

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        for seed in [0u64, 7, 42, u64::MAX] {
            let id = run_trace_id(seed);
            assert_ne!(id, 0);
            assert_eq!(id, run_trace_id(seed));
        }
        assert_ne!(run_trace_id(1), run_trace_id(2));
    }

    #[test]
    fn one_encoded_broadcast_fans_out_to_three_traced_recipients() {
        let params: Vec<f32> = (0..50_000).map(|i| (i as f32).sin()).collect();
        let broadcast = SealedFrame::broadcast(6, &params, WireOpts::default());
        let want = Message::ModelBroadcast { round: 6, params };
        let wait = Duration::from_secs(5);
        let links: Vec<_> = (0..3).map(|_| loopback_pair()).collect();
        let whole = broadcast.frame().len() + TRACE_CTX_LEN;
        let ctx_for = |seq: u64| TraceCtx {
            trace_id: 77,
            origin: 0,
            seq,
            ts_us: 1_000,
        };
        let recorder = Recorder::start(TraceConfig::default()).unwrap();
        // Receivers drain concurrently: the frame outgrows a socket buffer.
        std::thread::scope(|s| {
            for (seq, (_, client)) in links.iter().enumerate() {
                let (want, ctx) = (&want, ctx_for(seq as u64));
                s.spawn(move || {
                    let (msg, got_ctx, bytes) = client.recv(wait).unwrap();
                    assert_eq!((&msg, got_ctx), (want, Some(ctx)));
                    assert_eq!(bytes as usize, whole);
                    // The untraced send is the same shared bytes, whole.
                    let (msg, got_ctx, _) = client.recv(wait).unwrap();
                    assert_eq!((&msg, got_ctx), (want, None));
                });
            }
            recorder.scope(|| {
                photon_trace::set_trace_scope(77, 0);
                photon_trace::set_sim_time_us(1_000);
                for (server, _) in &links {
                    server.send_sealed(&broadcast).unwrap();
                    server.send_frame(broadcast.frame()).unwrap();
                }
            });
        });
        let events = recorder.flush_to_string();
        assert_eq!(events.matches("\"name\":\"net_send\"").count(), 3);
    }
}
