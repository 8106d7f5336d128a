//! Per-process distributed-trace scope and traced frame I/O helpers.
//!
//! Every process in a run derives the same [`run_trace_id`] from the run
//! seed — no coordination needed — and registers its scope (trace id +
//! actor lane) once via [`init_trace_scope`]. From then on every frame
//! sent through [`send_traced`] carries a [`TraceCtx`] trailer (origin
//! actor, per-process sequence number, sender trace-clock timestamp)
//! behind the wire trace flag, and every receive decoded with
//! [`recv_traced`] records the matching `net_recv` event — so send/recv
//! pairs across processes become causal edges `photon trace merge` can
//! join. When tracing is disabled (or the scope was never initialized)
//! all of this collapses to the plain untraced path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use photon_comms::{Link, LinkError, Message, SealedFrame, TraceCtx, WireOpts};

use crate::backoff::splitmix;
use crate::tcp::TcpLink;

/// The run-wide trace id: a pure function of the run seed, so every
/// process in one run agrees on it without coordination. Never 0 (0
/// means "no trace").
pub fn run_trace_id(run_seed: u64) -> u64 {
    let mixed = splitmix(run_seed ^ 0x7ace_1d00);
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

struct Scope {
    trace_id: u64,
    actor: u32,
}

static SCOPE: OnceLock<Scope> = OnceLock::new();
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Declares this process's trace scope: the run trace id and its actor
/// lane (0 for the coordinator, client id + 1 for clients). Also
/// publishes the process metadata (trace id + OS pid) to the recorder so
/// its JSONL shard self-describes for `photon trace merge`. First call
/// wins; later calls (e.g. a client re-handshaking after reconnect) are
/// no-ops, keeping the per-process frame sequence monotonic.
pub fn init_trace_scope(trace_id: u64, actor: u32) {
    let mut fresh = false;
    SCOPE.get_or_init(|| {
        fresh = true;
        Scope { trace_id, actor }
    });
    if fresh {
        photon_trace::set_process_meta(trace_id, std::process::id());
    }
}

/// The next span context to stamp on an outgoing frame, or `None` when
/// tracing is off or the scope was never initialized.
pub(crate) fn next_ctx() -> Option<TraceCtx> {
    if !photon_trace::enabled() {
        return None;
    }
    let scope = SCOPE.get()?;
    Some(TraceCtx {
        trace_id: scope.trace_id,
        origin: scope.actor,
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        ts_us: photon_trace::now_us(),
    })
}

/// Sends `msg` with a span-context trailer when this process has a trace
/// scope and tracing is enabled; otherwise sends the plain frame. Records
/// a `net_send` instant carrying the `(origin, seq)` edge key.
///
/// # Errors
/// Propagates [`LinkError`] from the underlying send.
pub(crate) fn send_traced<L: Link + ?Sized>(
    link: &L,
    msg: &Message,
    wire: WireOpts,
) -> std::result::Result<(), LinkError> {
    match next_ctx() {
        Some(ctx) => {
            let frame = msg.to_frame_traced(wire, ctx);
            note_edge(
                photon_trace::Phase::NetSend,
                "net_send",
                &ctx,
                frame.len() as u64,
            );
            link.send_frame(frame)
        }
        None => link.send_message(msg, wire),
    }
}

/// [`send_traced`] for a message encoded once — a broadcast for its whole
/// cohort, a result for every re-delivery: every send writes the same
/// payload bytes, and with tracing on only the header and this send's
/// span-context trailer are built per send.
///
/// # Errors
/// Propagates [`LinkError`] from the underlying send.
pub(crate) fn send_sealed(
    link: &TcpLink,
    sealed: &SealedFrame,
) -> std::result::Result<(), LinkError> {
    send_sealed_with(link, sealed, next_ctx())
}

fn send_sealed_with(
    link: &TcpLink,
    sealed: &SealedFrame,
    ctx: Option<TraceCtx>,
) -> std::result::Result<(), LinkError> {
    match ctx {
        Some(ctx) => {
            let (header, payload, trailer) = sealed.traced(ctx);
            let bytes = header.len() + payload.len() + trailer.len();
            note_edge(photon_trace::Phase::NetSend, "net_send", &ctx, bytes as u64);
            link.send_frame_parts(&[&header, payload, &trailer])
        }
        None => link.send_frame(sealed.frame()),
    }
}

/// Receives one message with its optional span context and frame length,
/// recording the matching `net_recv` instant so the sender's edge has its
/// receive endpoint.
///
/// # Errors
/// Propagates [`LinkError`] from the underlying receive; a frame that
/// decodes but fails message parsing is [`LinkError::Wire`].
pub(crate) fn recv_traced(
    link: &TcpLink,
    timeout: Duration,
) -> std::result::Result<(Message, Option<TraceCtx>, u64), LinkError> {
    let (msg, ctx, frame_len) = link.recv_message_traced(timeout)?;
    if let Some(ctx) = &ctx {
        note_edge(photon_trace::Phase::NetRecv, "net_recv", ctx, frame_len);
    }
    Ok((msg, ctx, frame_len))
}

/// Records one endpoint of a traced frame's send/recv edge.
fn note_edge(phase: photon_trace::Phase, name: &'static str, ctx: &TraceCtx, bytes: u64) {
    photon_trace::instant(
        phase,
        name,
        &[
            ("origin", u64::from(ctx.origin)),
            ("seq", ctx.seq),
            ("bytes", bytes),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let links: Vec<_> = (0..3).map(|_| crate::tcp::tests::loopback_pair()).collect();
        let ctx_for = |seq: u64| TraceCtx {
            trace_id: 77,
            origin: 0,
            seq,
            ts_us: 1_000 + seq,
        };
        // Receivers drain concurrently: the frame outgrows a socket buffer.
        std::thread::scope(|s| {
            for (seq, (_, client)) in links.iter().enumerate() {
                let (want, ctx) = (&want, ctx_for(seq as u64));
                s.spawn(move || {
                    let (msg, got_ctx, bytes) = recv_traced(client, wait).unwrap();
                    assert_eq!((&msg, got_ctx), (want, Some(ctx)));
                    let whole = want.to_frame_traced(WireOpts::default(), ctx);
                    assert_eq!(bytes as usize, whole.len());
                    // The untraced send is the same shared bytes, whole.
                    let (msg, got_ctx, _) = recv_traced(client, wait).unwrap();
                    assert_eq!((&msg, got_ctx), (want, None));
                });
            }
            for (seq, (server, _)) in links.iter().enumerate() {
                send_sealed_with(server, &broadcast, Some(ctx_for(seq as u64))).unwrap();
                send_sealed_with(server, &broadcast, None).unwrap();
            }
        });
    }
}
