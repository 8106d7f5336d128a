//! The socket-backed [`Link`]: framed messages over TCP.

use crate::frame_io::{read_frame, write_frame_parts};
use bytes::Bytes;
use photon_comms::{Link, LinkError, Message, TraceCtx, VerifiedFrame};
use std::io::BufWriter;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A [`Link`] over one TCP connection.
///
/// Send and receive sides hold independently-locked clones of the
/// stream, so a reader thread blocked in [`Link::recv_frame`] never
/// stalls a writer thread in [`Link::send_frame`] — the same discipline
/// the in-process `ChannelLink` gets from its two queues. Any hard
/// send/receive failure latches the link disconnected; a latched link
/// stays dead until the owner reconnects and builds a new one.
pub struct TcpLink {
    reader: Mutex<TcpStream>,
    writer: Mutex<BufWriter<TcpStream>>,
    ctl: TcpStream,
    peer: SocketAddr,
    connected: AtomicBool,
}

impl TcpLink {
    /// Wraps an accepted or connected stream. Disables Nagle so small
    /// control-plane frames (heartbeats, acks) are not batched behind
    /// model broadcasts.
    ///
    /// # Errors
    /// Propagates stream clone / peer-address failures.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpLink> {
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr()?;
        let reader = stream.try_clone()?;
        let ctl = stream.try_clone()?;
        Ok(TcpLink {
            reader: Mutex::new(reader),
            writer: Mutex::new(BufWriter::new(stream)),
            ctl,
            peer,
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

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
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

    /// Sends one wire frame given as consecutive pieces (see
    /// [`write_frame_parts`]); [`Link::send_frame`] is the one-piece case.
    ///
    /// # Errors
    /// As [`Link::send_frame`].
    pub(crate) fn send_frame_parts(&self, parts: &[&[u8]]) -> Result<(), LinkError> {
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

    /// Receives and parses the next message with its optional trace
    /// context. [`read_frame`] has already verified the payload CRC, so
    /// the decode does not walk the payload a second time.
    ///
    /// # Errors
    /// As [`Link::recv_message`].
    pub(crate) fn recv_message_traced(
        &self,
        timeout: Duration,
    ) -> Result<(Message, Option<TraceCtx>, u64), LinkError> {
        let frame = self.recv_verified(timeout)?;
        let frame_len = frame.len() as u64;
        let (msg, ctx) = Message::from_verified_frame(frame).map_err(LinkError::Wire)?;
        Ok((msg, ctx, frame_len))
    }

    /// [`Link::recv_frame`], keeping [`read_frame`]'s proof that the CRC
    /// has been checked.
    fn recv_verified(&self, timeout: Duration) -> Result<VerifiedFrame, LinkError> {
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
        let res = read_frame(&mut *reader);
        match &res {
            Err(LinkError::Closed) | Err(LinkError::Io(_)) => self.latch_dead(),
            _ => {}
        }
        res
    }
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

    fn recv_message(&self, timeout: Duration) -> Result<Message, LinkError> {
        self.recv_message_traced(timeout).map(|(msg, _, _)| msg)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use photon_comms::WireOpts;
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
        client.send_message(&msg, opts()).unwrap();
        let got = server.recv_message(Duration::from_secs(2)).unwrap();
        assert_eq!(got, msg);
        // And the other direction.
        server.send_message(&Message::Shutdown, opts()).unwrap();
        assert_eq!(
            client.recv_message(Duration::from_secs(2)).unwrap(),
            Message::Shutdown
        );
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
        client.send_message(&model, opts()).unwrap();
        client
            .send_frame(beat.to_frame_traced(opts(), ctx))
            .unwrap();
        client.send_message(&beat, opts()).unwrap();

        // Every receive path this crate uses runs on this thread, so the
        // thread-local count is exactly the passes these three frames got.
        let before = CRC_PASSES.with(std::cell::Cell::get);
        let wait = Duration::from_secs(2);
        assert_eq!(server.recv_message(wait).unwrap(), model);
        let (msg, got_ctx, _) = crate::tracectx::recv_traced(&server, wait).unwrap();
        assert_eq!((msg, got_ctx), (beat.clone(), Some(ctx)));
        assert_eq!(server.recv_message_traced(wait).unwrap().0, beat);
        assert_eq!(CRC_PASSES.with(std::cell::Cell::get) - before, 3);
    }

    #[test]
    fn a_corrupt_frame_is_still_rejected_at_the_socket() {
        let (server, client) = loopback_pair();
        let mut raw = Message::Shutdown.to_frame_opts(opts()).to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        client.send_frame(Bytes::from(raw)).unwrap();
        let err = server.recv_message(Duration::from_secs(2)).unwrap_err();
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
                let msg = s2.recv_message(Duration::from_secs(5)).unwrap();
                s2.send_message(&msg, opts()).unwrap();
            }
        });
        for seq in 0..50u64 {
            client
                .send_message(&Message::Heartbeat { client_id: 1, seq }, opts())
                .unwrap();
            let back = client.recv_message(Duration::from_secs(5)).unwrap();
            assert_eq!(back, Message::Heartbeat { client_id: 1, seq });
        }
        echo.join().unwrap();
    }
}
