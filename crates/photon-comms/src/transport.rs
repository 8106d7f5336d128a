//! Transport abstraction for the aggregator <-> client Link.
//!
//! Photon's federation logic (aggregator, guard, membership, checkpoint
//! recovery) is written against typed [`crate::Message`]s moved over *some*
//! frame pipe. This module names that pipe: the [`Link`] trait is the
//! minimal blocking surface — send a frame, receive a frame with a
//! timeout, observe connectivity — that both backends implement:
//!
//! * [`ChannelLink`]: an in-process pair of bounded queues, used by the
//!   deterministic simulator and by unit tests of the multi-process
//!   coordinator core (no sockets, no timing nondeterminism beyond the
//!   caller-supplied timeouts);
//! * `photon_net::TcpLink`: length-prefixed frames over a real TCP
//!   socket for the `photon serve` / `photon client` deployment.
//!
//! Frames carried over a `Link` are the exact wire format from
//! [`crate::encode_frame`] — magic/version/flags/CRC32/length header plus
//! payload — so integrity checking is identical on both backends.

use crate::WireError;
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a `Link` operation failed.
#[derive(Debug)]
pub enum LinkError {
    /// The peer hung up (or the link was closed locally); no further
    /// frames will move. Callers holding a session token should
    /// reconnect and resume rather than treat this as fatal.
    Closed,
    /// No frame arrived within the receive timeout. The link may still
    /// be healthy — heartbeat accounting decides when a quiet link is
    /// declared dead.
    TimedOut,
    /// An I/O error from the underlying socket (TCP backend only).
    Io(std::io::Error),
    /// A frame arrived but failed integrity/framing checks.
    Wire(WireError),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Closed => write!(f, "link closed by peer"),
            LinkError::TimedOut => write!(f, "link receive timed out"),
            LinkError::Io(e) => write!(f, "link i/o error: {e}"),
            LinkError::Wire(e) => write!(f, "link wire error: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<WireError> for LinkError {
    fn from(e: WireError) -> LinkError {
        LinkError::Wire(e)
    }
}

impl From<std::io::Error> for LinkError {
    fn from(e: std::io::Error) -> LinkError {
        LinkError::Io(e)
    }
}

/// A blocking, bidirectional frame pipe between one aggregator endpoint
/// and one client endpoint.
///
/// Implementations must be usable from multiple threads through `&self`
/// (send and receive sides are typically driven by different threads).
pub trait Link: Send + Sync {
    /// Queues one complete wire frame for the peer.
    ///
    /// # Errors
    /// [`LinkError::Closed`] when the peer is gone; [`LinkError::Io`] on
    /// socket failure.
    fn send_frame(&self, frame: Bytes) -> Result<(), LinkError>;

    /// Receives the next complete wire frame, waiting at most `timeout`.
    ///
    /// # Errors
    /// [`LinkError::TimedOut`] when no frame arrived in time,
    /// [`LinkError::Closed`] when the peer is gone, [`LinkError::Wire`]
    /// when an arriving frame fails integrity checks.
    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, LinkError>;

    /// Whether the link believes the peer is still reachable. A `false`
    /// here is authoritative (the link is dead); a `true` is only
    /// optimistic — liveness is ultimately decided by heartbeats.
    fn is_connected(&self) -> bool;
}

/// Frames a `ChannelLink` endpoint will buffer before `send_frame`
/// blocks. Deep enough for a full control-plane exchange plus a model
/// broadcast without ever stalling the single-threaded simulator.
const CHANNEL_LINK_DEPTH: usize = 256;

/// In-process [`Link`] backend: a pair of bounded MPSC queues.
///
/// [`ChannelLink::pair`] returns two connected endpoints; frames sent on
/// one are received on the other. Closing (or dropping) either endpoint
/// makes both report disconnected, mirroring a TCP hangup.
pub struct ChannelLink {
    tx: SyncSender<Bytes>,
    rx: Mutex<Receiver<Bytes>>,
    open: Arc<AtomicBool>,
}

impl ChannelLink {
    /// Creates two connected endpoints.
    pub fn pair() -> (ChannelLink, ChannelLink) {
        let (a_tx, b_rx) = std::sync::mpsc::sync_channel(CHANNEL_LINK_DEPTH);
        let (b_tx, a_rx) = std::sync::mpsc::sync_channel(CHANNEL_LINK_DEPTH);
        let open = Arc::new(AtomicBool::new(true));
        (
            ChannelLink {
                tx: a_tx,
                rx: Mutex::new(a_rx),
                open: Arc::clone(&open),
            },
            ChannelLink {
                tx: b_tx,
                rx: Mutex::new(b_rx),
                open,
            },
        )
    }

    /// Severs the link: both endpoints start returning
    /// [`LinkError::Closed`]. Used by fault injection to model a crashed
    /// peer without tearing down the process.
    pub fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        self.close();
    }
}

impl Link for ChannelLink {
    fn send_frame(&self, frame: Bytes) -> Result<(), LinkError> {
        if !self.is_connected() {
            return Err(LinkError::Closed);
        }
        match self.tx.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(_)) => Err(LinkError::Closed),
            Err(TrySendError::Full(frame)) => {
                // Bounded queue full: block like a TCP send buffer would.
                self.tx.send(frame).map_err(|_| LinkError::Closed)
            }
        }
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, LinkError> {
        let rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        if !self.open.load(Ordering::SeqCst) {
            // Drain anything already in flight before reporting the
            // hangup, like TCP delivers buffered data after FIN.
            return match rx.try_recv() {
                Ok(frame) => Ok(frame),
                Err(_) => Err(LinkError::Closed),
            };
        }
        match rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(LinkError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(LinkError::Closed),
        }
    }

    fn is_connected(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, WireOpts};

    #[test]
    fn pair_moves_frames_both_ways() {
        let (a, b) = ChannelLink::pair();
        a.send_frame(Bytes::from(&b"ping"[..])).unwrap();
        b.send_frame(Bytes::from(&b"pong"[..])).unwrap();
        assert_eq!(
            b.recv_frame(Duration::from_millis(50)).unwrap(),
            Bytes::from(&b"ping"[..])
        );
        assert_eq!(
            a.recv_frame(Duration::from_millis(50)).unwrap(),
            Bytes::from(&b"pong"[..])
        );
    }

    #[test]
    fn typed_messages_roundtrip_over_the_trait() {
        let (a, b) = ChannelLink::pair();
        let link: &dyn Link = &a;
        let msg = Message::Heartbeat {
            client_id: 4,
            seq: 17,
        };
        link.send_frame(msg.to_frame_opts(WireOpts::default()))
            .unwrap();
        let frame = b.recv_frame(Duration::from_millis(50)).unwrap();
        assert_eq!(Message::from_frame(frame).unwrap(), msg);
    }

    #[test]
    fn recv_times_out_on_quiet_link() {
        let (a, _b) = ChannelLink::pair();
        match a.recv_frame(Duration::from_millis(5)) {
            Err(LinkError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn close_is_seen_by_both_ends_but_drains_in_flight() {
        let (a, b) = ChannelLink::pair();
        a.send_frame(Bytes::from(&b"last words"[..])).unwrap();
        a.close();
        assert!(!a.is_connected());
        assert!(!b.is_connected());
        // In-flight frame still delivered, then Closed.
        assert_eq!(
            b.recv_frame(Duration::from_millis(5)).unwrap(),
            Bytes::from(&b"last words"[..])
        );
        assert!(matches!(
            b.recv_frame(Duration::from_millis(5)),
            Err(LinkError::Closed)
        ));
        assert!(matches!(
            b.send_frame(Bytes::from(&b"x"[..])),
            Err(LinkError::Closed)
        ));
    }

    #[test]
    fn drop_closes_the_peer() {
        let (a, b) = ChannelLink::pair();
        drop(a);
        assert!(!b.is_connected());
        assert!(matches!(
            b.recv_frame(Duration::from_millis(5)),
            Err(LinkError::Closed)
        ));
    }
}
