//! The socket-backed [`Link`]: framed messages over TCP, with one traced
//! send ([`TcpLink::send`] / `TcpLink::send_sealed`) and one traced
//! receive ([`TcpLink::recv`]). A frame sent while the calling thread's
//! recorder has a trace scope (see [`crate::run_trace_id`]) carries a
//! [`TraceCtx`] trailer — origin actor, the recorder's frame sequence and
//! the sender's trace-clock timestamp — behind the wire trace flag.

use crate::frame_io::{read_frame, read_frame_with, write_frame_parts};
use bytes::Bytes;
use photon_comms::{Link, LinkError, Message, SealedFrame, TraceCtx, VerifiedFrame, WireOpts};
use photon_trace::Phase;
use std::io::BufWriter;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A [`Link`] over one TCP connection.
///
/// Send and receive sides hold independently-locked clones of the
/// stream, so a reader thread blocked in [`TcpLink::recv`] never
/// stalls a writer thread in [`TcpLink::send`] — the same discipline
/// the in-process `ChannelLink` gets from its two queues. Any hard
/// send/receive failure latches the link disconnected; a latched link
/// stays dead until the owner reconnects and builds a new one.
pub struct TcpLink {
    reader: Mutex<TcpStream>,
    writer: Mutex<BufWriter<TcpStream>>,
    ctl: TcpStream,
    connected: AtomicBool,
}

impl TcpLink {
    /// Wraps an accepted or connected stream. Disables Nagle so small
    /// control-plane frames (heartbeats, acks) are not batched behind
    /// model broadcasts.
    ///
    /// # Errors
    /// Propagates stream clone failures.
    pub(crate) fn from_stream(stream: TcpStream) -> std::io::Result<TcpLink> {
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        let ctl = stream.try_clone()?;
        Ok(TcpLink {
            reader: Mutex::new(reader),
            writer: Mutex::new(BufWriter::new(stream)),
            ctl,
            connected: AtomicBool::new(true),
        })
    }

    /// Connects to `addr` and wraps the stream.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> std::io::Result<TcpLink> {
        TcpLink::from_stream(TcpStream::connect(addr)?)
    }

    /// Severs the connection: both directions are shut down and the link
    /// latches disconnected. Used for teardown and to inject
    /// `netcrash` process faults at the transport layer.
    pub fn sever(&self) {
        self.connected.store(false, Ordering::SeqCst);
        self.ctl.shutdown(Shutdown::Both).ok();
    }

    fn latch_dead(&self) {
        self.connected.store(false, Ordering::SeqCst);
    }

    /// Sends a control-plane message (see `TcpLink::send_sealed`).
    ///
    /// # Errors
    /// As `TcpLink::send_sealed`.
    pub fn send(&self, msg: &Message, wire: WireOpts) -> Result<(), LinkError> {
        self.send_sealed(&SealedFrame::new(msg, wire))
    }

    /// Sends a message encoded once — a broadcast for its whole cohort, a
    /// result for every re-delivery — so every send writes the same
    /// payload bytes. While the calling thread's recorder has a trace
    /// scope, only this send's header and span-context trailer are built
    /// around them, and the `net_send` edge is recorded; otherwise the
    /// shared untraced frame goes out whole.
    ///
    /// # Errors
    /// [`LinkError::Closed`] when the link is dead; [`LinkError::Io`] on
    /// socket failure (which latches it dead).
    pub(crate) fn send_sealed(&self, sealed: &SealedFrame) -> Result<(), LinkError> {
        let ctx = photon_trace::next_frame().map(|(trace_id, origin, seq)| TraceCtx {
            trace_id,
            origin,
            seq,
            ts_us: photon_trace::now_us(),
        });
        match ctx {
            Some(ctx) => {
                let (header, payload, trailer) = sealed.traced(ctx);
                let bytes = header.len() + payload.len() + trailer.len();
                note_edge(Phase::NetSend, "net_send", &ctx, bytes as u64);
                self.send_frame_parts(&[&header, payload, &trailer])
            }
            None => self.send_frame(sealed.frame()),
        }
    }

    /// Sends one wire frame given as consecutive pieces (see
    /// [`write_frame_parts`]); [`Link::send_frame`] is the one-piece case.
    fn send_frame_parts(&self, parts: &[&[u8]]) -> Result<(), LinkError> {
        if !self.is_connected() {
            return Err(LinkError::Closed);
        }
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let res = write_frame_parts(&mut *writer, parts);
        if matches!(res, Err(LinkError::Closed) | Err(LinkError::Io(_))) {
            self.latch_dead();
        }
        res
    }

    /// Receives the next message with its span context and frame length,
    /// recording the `net_recv` edge of a traced frame so its sender's
    /// `net_send` has a receive endpoint. [`read_frame`] has already
    /// verified the payload CRC, so the decode does not walk the payload a
    /// second time.
    ///
    /// # Errors
    /// [`LinkError::TimedOut`] when nothing arrived in time,
    /// [`LinkError::Closed`] when the peer is gone, [`LinkError::Wire`]
    /// for a frame that fails its checks or decodes to no message.
    pub fn recv(&self, timeout: Duration) -> Result<(Message, Option<TraceCtx>, u64), LinkError> {
        self.recv_into(timeout, &mut Vec::new(), Vec::new)
    }

    /// [`TcpLink::recv`] through buffers the caller keeps from frame to
    /// frame: the frame is read into `frame` ([`read_frame_with`]), and a
    /// float block — a broadcast's parameters, a result's delta — decodes
    /// into the buffer `floats` hands over, asked for only when the
    /// message carries one.
    ///
    /// # Errors
    /// As [`TcpLink::recv`].
    pub(crate) fn recv_into(
        &self,
        timeout: Duration,
        frame: &mut Vec<u8>,
        floats: impl FnOnce() -> Vec<f32>,
    ) -> Result<(Message, Option<TraceCtx>, u64), LinkError> {
        let (decoded, frame_len) = self.read(timeout, |stream| {
            read_frame_with(stream, frame, |frame| {
                let frame_len = frame.len() as u64;
                (Message::from_verified_frame_into(frame, floats), frame_len)
            })
        })?;
        let (msg, ctx) = decoded?;
        if let Some(ctx) = &ctx {
            note_edge(Phase::NetRecv, "net_recv", ctx, frame_len);
        }
        Ok((msg, ctx, frame_len))
    }

    /// [`Link::recv_frame`], keeping [`read_frame`]'s proof that the CRC
    /// has been checked.
    fn recv_verified(&self, timeout: Duration) -> Result<VerifiedFrame, LinkError> {
        self.read(timeout, read_frame)
    }

    /// Runs one frame read on the receive side within `timeout`, latching
    /// the link dead when the peer is gone or the socket fails.
    fn read<T>(
        &self,
        timeout: Duration,
        read: impl FnOnce(&mut TcpStream) -> Result<T, LinkError>,
    ) -> Result<T, LinkError> {
        if !self.is_connected() {
            return Err(LinkError::Closed);
        }
        let mut reader = self.reader.lock().unwrap_or_else(|e| e.into_inner());
        // A zero timeout would mean "no timeout" to the socket API;
        // clamp to the smallest real poll interval instead.
        let timeout = timeout.max(Duration::from_millis(1));
        reader.set_read_timeout(Some(timeout)).map_err(|e| {
            self.latch_dead();
            LinkError::Io(e)
        })?;
        let res = read(&mut reader);
        match &res {
            Err(LinkError::Closed) | Err(LinkError::Io(_)) => self.latch_dead(),
            _ => {}
        }
        res
    }
}

/// Records one endpoint of a traced frame's send/recv edge.
fn note_edge(phase: Phase, name: &'static str, ctx: &TraceCtx, bytes: u64) {
    let args = [
        ("origin", u64::from(ctx.origin)),
        ("seq", ctx.seq),
        ("bytes", bytes),
    ];
    photon_trace::instant(phase, name, &args);
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        self.sever();
    }
}

impl Link for TcpLink {
    fn send_frame(&self, frame: Bytes) -> Result<(), LinkError> {
        self.send_frame_parts(&[&frame])
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, LinkError> {
        self.recv_verified(timeout).map(VerifiedFrame::into_bytes)
    }

    fn is_connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use photon_trace::{Recorder, TraceConfig};
    use std::net::TcpListener;

    fn opts() -> WireOpts {
        WireOpts {
            compress: false,
            dtype: Default::default(),
        }
    }

    pub(crate) fn loopback_pair() -> (TcpLink, TcpLink) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpLink::from_stream(server_stream).unwrap();
        let client = TcpLink::from_stream(client.join().unwrap()).unwrap();
        (server, client)
    }

    #[test]
    fn messages_roundtrip_over_loopback() {
        let (server, client) = loopback_pair();
        let msg = Message::ModelBroadcast {
            round: 7,
            params: vec![1.0, -2.5, 3.25],
        };
        let wait = Duration::from_secs(2);
        client.send(&msg, opts()).unwrap();
        assert_eq!(server.recv(wait).unwrap().0, msg);
        // And the other direction.
        server.send(&Message::Shutdown, opts()).unwrap();
        assert_eq!(client.recv(wait).unwrap().0, Message::Shutdown);
    }

    #[test]
    fn a_received_frame_is_crc_verified_exactly_once() {
        use crate::frame_io::CRC_PASSES;
        let (server, client) = loopback_pair();
        let ctx = TraceCtx {
            trace_id: 9,
            origin: 1,
            seq: 0,
            ts_us: 5,
        };
        let model = Message::ModelBroadcast {
            round: 1,
            params: (0..20_000).map(|i| i as f32 * 0.5).collect(),
        };
        let beat = Message::Heartbeat {
            client_id: 1,
            seq: 2,
        };
        client.send(&model, opts()).unwrap();
        let sealed = SealedFrame::new(&beat, opts());
        let (header, payload, trailer) = sealed.traced(ctx);
        client
            .send_frame_parts(&[&header, payload, &trailer])
            .unwrap();
        client.send(&beat, opts()).unwrap();

        // Every receive runs on this thread, so the thread-local count is
        // exactly the passes these three frames got.
        let before = CRC_PASSES.with(std::cell::Cell::get);
        let wait = Duration::from_secs(2);
        assert_eq!(server.recv(wait).unwrap().0, model);
        let (msg, got_ctx, _) = server.recv(wait).unwrap();
        assert_eq!((msg, got_ctx), (beat.clone(), Some(ctx)));
        assert_eq!(server.recv(wait).unwrap().0, beat);
        assert_eq!(CRC_PASSES.with(std::cell::Cell::get) - before, 3);
    }

    /// Two runs in one process: each recorder stamps its own trace id and
    /// numbers its own frames from 0, and each flight dump holds only its
    /// own recorder's events. The process default forgets its scope on
    /// `reset_for_tests`.
    #[test]
    fn each_recorder_stamps_its_own_trace_scope_and_dumps_its_own_flight_ring() {
        let dir = std::env::temp_dir().join(format!("photon-net-scope-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (server, client) = loopback_pair();
        let wait = Duration::from_secs(5);
        let beat = |seq| Message::Heartbeat { client_id: 1, seq };
        let runs = [(0xA1_u64, 1_u32), (0xB2, 2)].map(|(trace_id, actor)| {
            let recorder = Recorder::start(TraceConfig::default()).unwrap();
            recorder.scope(|| {
                photon_trace::flight_init(&dir.join(format!("flight-{trace_id:x}.jsonl")));
                photon_trace::set_trace_scope(trace_id, actor);
                // The first declaration wins: a re-handshake keeps it.
                photon_trace::set_trace_scope(0xdead, 9);
            });
            (recorder, trace_id, actor)
        });
        // Interleaved sends: each recorder's sequence is its own.
        for seq in 0..2_u64 {
            for (recorder, trace_id, actor) in &runs {
                let (msg, ctx, _) = recorder.scope(|| {
                    client.send(&beat(seq), opts()).unwrap();
                    server.recv(wait).unwrap()
                });
                assert_eq!(msg, beat(seq));
                let ctx = ctx.expect("a send under a trace scope is traced");
                assert_eq!(
                    (ctx.trace_id, ctx.origin, ctx.seq),
                    (*trace_id, *actor, seq)
                );
            }
        }
        for (recorder, trace_id, _) in &runs {
            let path = recorder.scope(photon_trace::flight_dump).unwrap();
            let text = std::fs::read_to_string(path.expect("armed")).unwrap();
            let meta = text.lines().next().unwrap();
            assert!(
                meta.contains(&format!("\"trace_id\":{trace_id},")),
                "{meta}"
            );
            // Its own two sends and two receives; none of the other's.
            assert_eq!(text.matches("\"name\":\"net_send\"").count(), 2, "{text}");
            assert_eq!(text.matches("\"name\":\"net_recv\"").count(), 2, "{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);

        let traced_id = || {
            client.send(&beat(0), opts()).unwrap();
            server.recv(wait).unwrap().1.map(|ctx| ctx.trace_id)
        };
        photon_trace::init(TraceConfig::default()).unwrap();
        photon_trace::set_trace_scope(0xC3, 0);
        assert_eq!(traced_id(), Some(0xC3));
        photon_trace::reset_for_tests();
        photon_trace::init(TraceConfig::default()).unwrap();
        photon_trace::set_trace_scope(0xD4, 0);
        assert_eq!(traced_id(), Some(0xD4));
        photon_trace::reset_for_tests();
        assert_eq!(traced_id(), None);
    }

    /// A result read into a kept frame buffer and decoded into a recycled
    /// spare — NaN-filled, and two in three of a wrong length, as the
    /// simulator's poisoned spares are — is the fresh decode, in every
    /// wire encoding; a control-plane frame takes no spare.
    #[test]
    fn a_result_decoded_into_a_recycled_spare_is_the_fresh_decode() {
        let (server, client) = loopback_pair();
        let wait = Duration::from_secs(5);
        let result = |round| Message::ClientResult {
            round,
            client_id: 1,
            delta: (0..3_000).map(|i| (i as f32 * 0.37).sin()).collect(),
            weight: 1.5,
            metrics: Default::default(),
        };
        let encodings = [
            opts(),
            WireOpts {
                compress: true,
                ..opts()
            },
            WireOpts {
                // photon-net names no dtype: read it as a config would.
                dtype: serde_json::from_str("\"Bf16\"").unwrap(),
                ..opts()
            },
        ];
        let mut frame = vec![0xA5; 100];
        for (round, wire) in encodings.into_iter().enumerate() {
            let msg = result(round as u64);
            client.send(&msg, wire).unwrap();
            let (want, ..) = server.recv(wait).unwrap();
            for len in [3_000, 1_500, 3_005] {
                client.send(&msg, wire).unwrap();
                let spare = vec![f32::NAN; len];
                let (got, ..) = server.recv_into(wait, &mut frame, || spare).unwrap();
                assert_eq!(got, want, "{wire:?}, a spare of {len}");
            }
        }
        client.send(&Message::Shutdown, opts()).unwrap();
        let got = server.recv_into(wait, &mut frame, || unreachable!("no float block"));
        assert_eq!(got.unwrap().0, Message::Shutdown);
    }

    #[test]
    fn a_corrupt_frame_is_still_rejected_at_the_socket() {
        let (server, client) = loopback_pair();
        let mut raw = Message::Shutdown.to_frame_opts(opts()).to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        client.send_frame(Bytes::from(raw)).unwrap();
        let err = server.recv(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, LinkError::Wire(_)), "{err:?}");
    }

    #[test]
    fn recv_times_out_on_a_quiet_link() {
        let (server, _client) = loopback_pair();
        let err = server.recv_frame(Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, LinkError::TimedOut));
        assert!(server.is_connected(), "timeout must not kill the link");
    }

    #[test]
    fn peer_hangup_surfaces_as_closed_and_latches() {
        let (server, client) = loopback_pair();
        drop(client);
        let err = server.recv_frame(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, LinkError::Closed | LinkError::Io(_)));
        assert!(!server.is_connected());
        assert!(matches!(
            server.send_frame(Bytes::from(&b"x"[..])).unwrap_err(),
            LinkError::Closed
        ));
    }

    #[test]
    fn sever_models_a_netcrash() {
        let (server, client) = loopback_pair();
        client.sever();
        assert!(!client.is_connected());
        let err = server.recv_frame(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, LinkError::Closed | LinkError::Io(_)));
    }

    #[test]
    fn concurrent_send_and_recv_do_not_deadlock() {
        let (server, client) = loopback_pair();
        let server = std::sync::Arc::new(server);
        let client = std::sync::Arc::new(client);
        let s2 = std::sync::Arc::clone(&server);
        // Server echoes 50 heartbeats while the client pumps them.
        let echo = std::thread::spawn(move || {
            for _ in 0..50 {
                let (msg, _, _) = s2.recv(Duration::from_secs(5)).unwrap();
                s2.send(&msg, opts()).unwrap();
            }
        });
        for seq in 0..50u64 {
            client
                .send(&Message::Heartbeat { client_id: 1, seq }, opts())
                .unwrap();
            let (back, _, _) = client.recv(Duration::from_secs(5)).unwrap();
            assert_eq!(back, Message::Heartbeat { client_id: 1, seq });
        }
        echo.join().unwrap();
    }
}
