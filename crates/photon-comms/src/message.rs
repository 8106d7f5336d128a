use crate::crc::Crc32;
use crate::wire::{begin_frame, seal_frame, split_frame, FrameHeader};
use crate::{
    compress::decompress_f32s_into, compress_f32s, FrameFlags, TraceCtx, VerifiedFrame, WireError,
    FRAME_HEADER_LEN, TRACE_CTX_LEN,
};
use bytes::{Buf, BufMut, Bytes};
use photon_tensor::Dtype;
use serde::{Deserialize, Serialize};

/// Encoding options for float payloads on the Link.
///
/// `dtype = Bf16` stores update vectors as 2-byte bf16 on the wire (the
/// receiver widens back to f32 before any arithmetic — accumulation stays
/// f32). Compression and bf16 are carried as independent frame flags, but
/// config validation rejects enabling both: the byte-shuffle codec is
/// specified over 4-byte lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireOpts {
    /// Run float payloads through the byte-shuffle/zero-RLE codec.
    pub compress: bool,
    /// Storage precision for float payloads.
    pub dtype: Dtype,
}

impl WireOpts {
    fn flags(self) -> FrameFlags {
        FrameFlags {
            compressed: self.compress,
            bf16: self.dtype == Dtype::Bf16,
            trace: false,
        }
    }
}

/// Training metadata carried alongside model payloads ("message payloads
/// carry metadata, including training and evaluation instructions,
/// metrics", §4).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainMetrics {
    /// Mean training loss over the local steps.
    pub mean_loss: f32,
    /// Tokens processed locally.
    pub tokens: u64,
    /// Local optimizer steps taken.
    pub steps: u64,
}

/// A message on the aggregator <-> client Link.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server -> client: global parameters for a round.
    ModelBroadcast {
        /// Federated round index.
        round: u64,
        /// Flat global parameters.
        params: Vec<f32>,
    },
    /// Client -> server: pseudo-gradient plus metrics.
    ClientResult {
        /// Federated round index.
        round: u64,
        /// Client identifier.
        client_id: u32,
        /// Flat pseudo-gradient `θ_global − θ_local`.
        delta: Vec<f32>,
        /// Aggregation weight.
        weight: f64,
        /// Local training metrics.
        metrics: TrainMetrics,
    },
    /// Server -> client: end of training.
    Shutdown,
    /// Client -> server: membership handshake — a (re)joining client
    /// announces itself and asks for a lease. `birth_round` is the round
    /// the client first joined (0 for founding members), which the warm
    /// join path uses to sanity-check the roster.
    Hello {
        /// Client identifier (assigned by the aggregator on first join).
        client_id: u32,
        /// Round the client first joined the federation.
        birth_round: u64,
    },
    /// Server -> client: membership handshake reply — the aggregator
    /// grants (or renews) a liveness lease. The client must renew before
    /// `expires_ms` (simulated walltime) or be expired from the roster.
    LeaseGrant {
        /// Client the lease is granted to.
        client_id: u32,
        /// Absolute simulated-walltime expiry of the lease.
        expires_ms: u64,
    },
    /// Client -> coordinator (multi-process transport handshake): open or
    /// resume a session. A fresh client sends `client_id = u32::MAX` and
    /// `token = 0`; a reconnecting client presents the id and token from
    /// its previous [`Message::SessionGrant`] so the coordinator resumes
    /// its lease and in-flight round instead of re-admitting it.
    SessionHello {
        /// Previously granted client id, or `u32::MAX` for a new client.
        client_id: u32,
        /// Previously granted session token, or 0 for a new session.
        token: u64,
        /// Highest round whose result the coordinator has acknowledged
        /// (`u64::MAX` if none) — lets the coordinator spot in-flight
        /// results that need re-delivery.
        last_acked_round: u64,
    },
    /// Coordinator -> client: session opened (or resumed after a
    /// reconnect). The token is the client's proof of identity across
    /// reconnects and coordinator restarts.
    SessionGrant {
        /// Assigned client id.
        client_id: u32,
        /// Session token to present on every future [`Message::SessionHello`].
        token: u64,
        /// The coordinator's current round, so a resumed client rejoins
        /// the in-flight round instead of waiting for the next broadcast.
        round: u64,
        /// True when an existing session was resumed (lease carried over)
        /// rather than a new member admitted.
        resumed: bool,
    },
    /// Either direction: transport liveness heartbeat. A peer that misses
    /// enough consecutive heartbeats is declared dead and its connection
    /// torn down (the session survives for a later resume).
    Heartbeat {
        /// Sender's client id (`u32::MAX` from the coordinator).
        client_id: u32,
        /// Monotonic heartbeat sequence number per connection.
        seq: u64,
    },
    /// Coordinator -> client: the client's result for `round` was applied
    /// (or deduplicated away) — the client may drop its retained copy.
    /// Until this arrives the client re-sends the result on every
    /// reconnect; the coordinator's `(client, round)` dedup keys make the
    /// re-delivery idempotent.
    ResultAck {
        /// Client whose result is acknowledged.
        client_id: u32,
        /// Round the acknowledged result belongs to.
        round: u64,
    },
    /// Coordinator -> client: authoritative state re-synchronization, sent
    /// at admission and after a coordinator crash-restart. `state` is the
    /// coordinator state machine's discriminant; `config_json` carries the
    /// run configuration as opaque JSON bytes (opaque here so the wire
    /// format does not depend on higher-layer config types).
    RunSync {
        /// The coordinator's current round (post-restore).
        round: u64,
        /// Coordinator state machine discriminant.
        state: u8,
        /// Run configuration, JSON-encoded.
        config_json: Vec<u8>,
    },
}

const TAG_BROADCAST: u8 = 1;
const TAG_RESULT: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_HELLO: u8 = 4;
const TAG_LEASE_GRANT: u8 = 5;
const TAG_SESSION_HELLO: u8 = 6;
const TAG_SESSION_GRANT: u8 = 7;
const TAG_HEARTBEAT: u8 = 8;
const TAG_RESULT_ACK: u8 = 9;
const TAG_RUN_SYNC: u8 = 10;

impl Message {
    /// Serializes into a Link frame, optionally compressing float payloads
    /// (f32 storage; see [`Message::to_frame_opts`] for bf16).
    pub fn to_frame(&self, compress: bool) -> Bytes {
        self.to_frame_opts(WireOpts {
            compress,
            dtype: Dtype::F32,
        })
    }

    /// Serializes into a Link frame with explicit [`WireOpts`]; the chosen
    /// encoding is recorded in the frame flags so [`Message::from_frame`]
    /// decodes any mode without out-of-band context.
    pub fn to_frame_opts(&self, opts: WireOpts) -> Bytes {
        let (head, floats) = self.encode_head();
        build_frame(&head, floats, opts, Vec::new()).0
    }

    /// Encodes everything in the body up to the float block — tag and
    /// fixed fields, a few dozen bytes — and hands back the floats that
    /// follow it, still borrowed. Every variant keeps its floats last, so
    /// a body is always `head ++ floats`.
    fn encode_head(&self) -> (Vec<u8>, Option<&[f32]>) {
        let mut head = Vec::with_capacity(48);
        let mut floats = None;
        match self {
            Message::ModelBroadcast { round, params } => {
                head.put_slice(&broadcast_head(*round));
                floats = Some(&params[..]);
            }
            Message::ClientResult {
                round,
                client_id,
                delta,
                weight,
                metrics,
            } => {
                head.put_slice(&result_head(*round, *client_id, *weight, *metrics));
                floats = Some(&delta[..]);
            }
            Message::Shutdown => {
                head.put_u8(TAG_SHUTDOWN);
            }
            Message::Hello {
                client_id,
                birth_round,
            } => {
                head.put_u8(TAG_HELLO);
                head.put_u32_le(*client_id);
                head.put_u64_le(*birth_round);
            }
            Message::LeaseGrant {
                client_id,
                expires_ms,
            } => {
                head.put_u8(TAG_LEASE_GRANT);
                head.put_u32_le(*client_id);
                head.put_u64_le(*expires_ms);
            }
            Message::SessionHello {
                client_id,
                token,
                last_acked_round,
            } => {
                head.put_u8(TAG_SESSION_HELLO);
                head.put_u32_le(*client_id);
                head.put_u64_le(*token);
                head.put_u64_le(*last_acked_round);
            }
            Message::SessionGrant {
                client_id,
                token,
                round,
                resumed,
            } => {
                head.put_u8(TAG_SESSION_GRANT);
                head.put_u32_le(*client_id);
                head.put_u64_le(*token);
                head.put_u64_le(*round);
                head.put_u8(u8::from(*resumed));
            }
            Message::Heartbeat { client_id, seq } => {
                head.put_u8(TAG_HEARTBEAT);
                head.put_u32_le(*client_id);
                head.put_u64_le(*seq);
            }
            Message::ResultAck { client_id, round } => {
                head.put_u8(TAG_RESULT_ACK);
                head.put_u32_le(*client_id);
                head.put_u64_le(*round);
            }
            Message::RunSync {
                round,
                state,
                config_json,
            } => {
                head.put_u8(TAG_RUN_SYNC);
                head.put_u64_le(*round);
                head.put_u8(*state);
                head.put_u64_le(config_json.len() as u64);
                head.put_slice(config_json);
            }
        }
        (head, floats)
    }

    /// Parses a Link frame, discarding any trace-context trailer.
    ///
    /// # Errors
    /// Returns a [`WireError`] on framing/corruption errors or an unknown
    /// message tag.
    pub fn from_frame(frame: Bytes) -> Result<Message, WireError> {
        Self::from_frame_traced(frame).map(|(msg, _)| msg)
    }

    /// Parses a Link frame, returning the [`TraceCtx`] trailer when the
    /// sender set the trace flag (`None` for an untraced frame).
    ///
    /// # Errors
    /// Returns a [`WireError`] on framing/corruption errors, an unknown
    /// message tag, or a trace-flagged payload too short to hold the
    /// trailer.
    pub(crate) fn from_frame_traced(
        frame: Bytes,
    ) -> Result<(Message, Option<TraceCtx>), WireError> {
        let (header, body) = split_frame(frame)?;
        header.check_payload(&body)?;
        Self::decode_payload(body, header.flags, Vec::new)
    }

    /// `Message::from_frame_traced` for a frame whose payload CRC has
    /// **already been verified** — a streaming transport checks it while
    /// reading the frame off the socket, the simulated Link inside its
    /// retransmit loop — because a model-sized payload should be walked
    /// once, not twice. Everything else (magic, version, length,
    /// structure) is still checked. The [`VerifiedFrame`] type is what
    /// keeps unchecked bytes out: a corrupted update decoded here would be
    /// aggregated silently.
    ///
    /// A float block (a broadcast's parameters, a result's delta) decodes
    /// into the buffer `floats` hands over: whatever it held is replaced
    /// and its allocation reused, so a receiver that hands back last
    /// round's buffers decodes a cohort without touching the allocator.
    /// `floats` is called only once the message turns out to carry a float
    /// block, so a control-plane frame takes no buffer; `Vec::new` hands
    /// over none.
    ///
    /// # Errors
    /// As `Message::from_frame_traced`, minus the checksum.
    pub fn from_verified_frame_into(
        frame: VerifiedFrame,
        floats: impl FnOnce() -> Vec<f32>,
    ) -> Result<(Message, Option<TraceCtx>), WireError> {
        let (header, body) = split_frame(frame.into_bytes())?;
        Self::decode_payload(body, header.flags, floats)
    }

    fn decode_payload(
        mut body: Bytes,
        flags: FrameFlags,
        floats: impl FnOnce() -> Vec<f32>,
    ) -> Result<(Message, Option<TraceCtx>), WireError> {
        let ctx = if flags.trace {
            if body.remaining() < TRACE_CTX_LEN {
                return Err(WireError::Truncated);
            }
            let split = body.len() - TRACE_CTX_LEN;
            let mut raw = [0u8; TRACE_CTX_LEN];
            raw.copy_from_slice(&body.slice(split..));
            body = body.slice(..split);
            Some(TraceCtx::decode(&raw))
        } else {
            None
        };
        Self::decode_body(body, flags, floats).map(|msg| (msg, ctx))
    }

    fn decode_body(
        mut body: Bytes,
        flags: FrameFlags,
        floats: impl FnOnce() -> Vec<f32>,
    ) -> Result<Message, WireError> {
        if body.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match body.get_u8() {
            TAG_BROADCAST => {
                if body.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let round = body.get_u64_le();
                let params = get_floats(&mut body, flags, floats())?;
                Ok(Message::ModelBroadcast { round, params })
            }
            TAG_RESULT => {
                if body.remaining() < 8 + 4 + 8 + 4 + 8 + 8 {
                    return Err(WireError::Truncated);
                }
                let round = body.get_u64_le();
                let client_id = body.get_u32_le();
                let weight = body.get_f64_le();
                let metrics = TrainMetrics {
                    mean_loss: body.get_f32_le(),
                    tokens: body.get_u64_le(),
                    steps: body.get_u64_le(),
                };
                let delta = get_floats(&mut body, flags, floats())?;
                Ok(Message::ClientResult {
                    round,
                    client_id,
                    delta,
                    weight,
                    metrics,
                })
            }
            TAG_SHUTDOWN => Ok(Message::Shutdown),
            TAG_HELLO => {
                if body.remaining() < 4 + 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Hello {
                    client_id: body.get_u32_le(),
                    birth_round: body.get_u64_le(),
                })
            }
            TAG_LEASE_GRANT => {
                if body.remaining() < 4 + 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::LeaseGrant {
                    client_id: body.get_u32_le(),
                    expires_ms: body.get_u64_le(),
                })
            }
            TAG_SESSION_HELLO => {
                if body.remaining() < 4 + 8 + 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::SessionHello {
                    client_id: body.get_u32_le(),
                    token: body.get_u64_le(),
                    last_acked_round: body.get_u64_le(),
                })
            }
            TAG_SESSION_GRANT => {
                if body.remaining() < 4 + 8 + 8 + 1 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::SessionGrant {
                    client_id: body.get_u32_le(),
                    token: body.get_u64_le(),
                    round: body.get_u64_le(),
                    resumed: body.get_u8() != 0,
                })
            }
            TAG_HEARTBEAT => {
                if body.remaining() < 4 + 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::Heartbeat {
                    client_id: body.get_u32_le(),
                    seq: body.get_u64_le(),
                })
            }
            TAG_RESULT_ACK => {
                if body.remaining() < 4 + 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Message::ResultAck {
                    client_id: body.get_u32_le(),
                    round: body.get_u64_le(),
                })
            }
            TAG_RUN_SYNC => {
                if body.remaining() < 8 + 1 + 8 {
                    return Err(WireError::Truncated);
                }
                let round = body.get_u64_le();
                let state = body.get_u8();
                let len = body.get_u64_le() as usize;
                if body.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let config_json = body.slice(..len).to_vec();
                body.advance(len);
                Ok(Message::RunSync {
                    round,
                    state,
                    config_json,
                })
            }
            tag => Err(WireError::Malformed(format!("unknown message tag {tag}"))),
        }
    }
}

/// The body of a `ModelBroadcast` ahead of its float block: tag, round.
fn broadcast_head(round: u64) -> [u8; 9] {
    let mut head = [TAG_BROADCAST; 9];
    head[1..].copy_from_slice(&round.to_le_bytes());
    head
}

/// The body of a `ClientResult` ahead of its float block: tag, round,
/// client id, weight and metrics.
fn result_head(round: u64, client_id: u32, weight: f64, metrics: TrainMetrics) -> Vec<u8> {
    let mut head = Vec::with_capacity(1 + 8 + 4 + 8 + 4 + 8 + 8);
    head.put_u8(TAG_RESULT);
    head.put_u64_le(round);
    head.put_u32_le(client_id);
    head.put_f64_le(weight);
    head.put_f32_le(metrics.mean_loss);
    head.put_u64_le(metrics.tokens);
    head.put_u64_le(metrics.steps);
    head
}

/// Builds a whole untraced frame — header, `head`, the float block — in one
/// buffer of exactly the frame's size (`buffer`'s allocation, when it is
/// large enough): the floats are converted straight into it and the CRC,
/// one pass over the payload, is patched into the header afterwards. Returns the CRC state over the payload alongside the
/// frame, from which [`SealedFrame::traced`] extends it over a trailer.
fn build_frame(
    head: &[u8],
    floats: Option<&[f32]>,
    opts: WireOpts,
    buffer: Vec<u8>,
) -> (Bytes, Crc32) {
    #[cfg(test)]
    if floats.is_some() {
        tests::FLOAT_BLOCKS_SERIALIZED.with(|n| n.set(n.get() + 1));
    }
    // The compressed stream's length is only known once it exists.
    let packed = floats.filter(|_| opts.compress).map(compress_f32s);
    let floats_len = match (&packed, floats) {
        (Some(c), _) => 8 + c.len(),
        (None, Some(xs)) => 8 + xs.len() * opts.dtype.bytes_per_param(),
        (None, None) => 0,
    };
    let mut frame = begin_frame(buffer, opts.flags(), head.len() + floats_len);
    frame.put_slice(head);
    match (&packed, floats) {
        (Some(c), _) => {
            frame.put_u64_le(c.len() as u64);
            frame.put_slice(c);
        }
        (None, Some(xs)) => {
            frame.put_u64_le(xs.len() as u64);
            match opts.dtype {
                Dtype::F32 => photon_tensor::put_f32s_le(&mut frame, xs),
                Dtype::Bf16 => photon_tensor::put_bf16s_le(&mut frame, xs),
            }
        }
        (None, None) => {}
    }
    seal_frame(frame)
}

/// A message encoded **once** and put on the wire as often as it is
/// needed: a model broadcast to its whole cohort, a client's result on
/// every re-delivery.
///
/// The floats are serialized into one frame and CRC'd one time;
/// [`SealedFrame::frame`] hands every send the same shared bytes. A traced
/// frame — one that carries a per-send [`TraceCtx`] — is only ever built
/// here: [`SealedFrame::traced`] derives each send's header and trailer
/// from the saved CRC state — 52 bytes of work — and the shared payload
/// goes on the wire between them untouched.
#[derive(Debug, Clone)]
pub struct SealedFrame {
    frame: Bytes,
    flags: FrameFlags,
    payload_crc: Crc32,
}

impl SealedFrame {
    /// Encodes `msg`; byte-identical to [`Message::to_frame_opts`].
    pub fn new(msg: &Message, opts: WireOpts) -> SealedFrame {
        let (head, floats) = msg.encode_head();
        SealedFrame::seal(&head, floats, opts, Vec::new())
    }

    /// Encodes `Message::ModelBroadcast { round, params }` from borrowed
    /// parameters into `buffer`, reusing its allocation as
    /// [`SealedFrame::result`] does.
    pub fn broadcast(buffer: Vec<u8>, round: u64, params: &[f32], opts: WireOpts) -> SealedFrame {
        SealedFrame::seal(&broadcast_head(round), Some(params), opts, buffer)
    }

    /// Encodes `Message::ClientResult` from a borrowed pseudo-gradient into
    /// `buffer`, reusing its allocation: a spent result frame handed back
    /// by [`SealedFrame::into_buffer`] seals the next result without
    /// touching the allocator.
    pub fn result(
        buffer: Vec<u8>,
        round: u64,
        client_id: u32,
        delta: &[f32],
        weight: f64,
        metrics: TrainMetrics,
        opts: WireOpts,
    ) -> SealedFrame {
        let head = result_head(round, client_id, weight, metrics);
        SealedFrame::seal(&head, Some(delta), opts, buffer)
    }

    /// The frame's allocation, to seal another message into, once no
    /// other copy of the frame is alive; an empty buffer while one is.
    pub fn into_buffer(self) -> Vec<u8> {
        self.frame.try_into_mut().map(Vec::from).unwrap_or_default()
    }

    fn seal(head: &[u8], floats: Option<&[f32]>, opts: WireOpts, buffer: Vec<u8>) -> SealedFrame {
        let (frame, payload_crc) = build_frame(head, floats, opts, buffer);
        SealedFrame {
            frame,
            flags: opts.flags(),
            payload_crc,
        }
    }

    /// The complete untraced frame; clones share one allocation.
    pub fn frame(&self) -> Bytes {
        self.frame.clone()
    }

    /// The three pieces that, written back to back, are this message's
    /// traced frame for `ctx`: a per-send header (trace flag set, CRC
    /// extended over the trailer), the shared payload, and `ctx` as a
    /// trailer, CRC-covered, from which `Message::from_frame_traced`
    /// recovers the sender's causal edge.
    pub fn traced(&self, ctx: TraceCtx) -> ([u8; FRAME_HEADER_LEN], &[u8], [u8; TRACE_CTX_LEN]) {
        let payload = &self.frame[FRAME_HEADER_LEN..];
        let trailer = ctx.encode();
        let mut crc = self.payload_crc;
        crc.update(&trailer);
        let header = FrameHeader {
            flags: FrameFlags {
                trace: true,
                ..self.flags
            },
            crc: crc.finalize(),
            len: (payload.len() + TRACE_CTX_LEN) as u64,
        };
        (header.encode(), payload, trailer)
    }
}

/// Decodes the float block at the front of `body` into `out`, whatever
/// its encoding.
fn get_floats(body: &mut Bytes, flags: FrameFlags, out: Vec<f32>) -> Result<Vec<f32>, WireError> {
    if flags.compressed {
        if body.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let len = body.get_u64_le() as usize;
        if body.remaining() < len {
            return Err(WireError::Truncated);
        }
        let c = body.slice(..len);
        body.advance(len);
        decompress_f32s_into(c, out).map_err(WireError::BadCompression)
    } else if flags.bf16 {
        photon_tensor::read_bf16_slice(body, out).map_err(|e| WireError::Malformed(e.to_string()))
    } else {
        photon_tensor::read_f32_slice(body, out).map_err(|e| WireError::Malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_tensor::SeedStream;

    fn sample_params(n: usize) -> Vec<f32> {
        let mut rng = SeedStream::new(3);
        (0..n).map(|_| rng.next_normal() * 0.02).collect()
    }

    thread_local! {
        /// Float blocks `build_frame` turned into wire bytes on this thread,
        /// by either codec.
        pub(super) static FLOAT_BLOCKS_SERIALIZED: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `msg`'s traced frame for `ctx`, whole: its sealed frame's three
    /// traced pieces back to back.
    fn traced_frame(msg: &Message, opts: WireOpts, ctx: TraceCtx) -> Bytes {
        let sealed = SealedFrame::new(msg, opts);
        let (header, payload, trailer) = sealed.traced(ctx);
        Bytes::from([&header[..], payload, &trailer[..]].concat())
    }

    /// Floats whose encodings differ by codec: signed zeros, inf, a NaN
    /// payload, a subnormal, a bf16 rounding tie, a repeated value (a zero
    /// run for the compressor) and a value bf16 must round.
    fn golden_floats() -> Vec<f32> {
        [
            0x0000_0000u32,
            0x8000_0000,
            0x3F80_0000,
            0xBF00_0000,
            0x7F80_0000,
            0x7FA5_5AA5,
            0x0000_0001,
            0x3F81_8000,
            0x3F80_0000,
            0x3F80_0000,
            0xC2F7_1234,
        ]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect()
    }

    fn golden_ctx() -> TraceCtx {
        TraceCtx {
            trace_id: 0x1234_5678_9abc_def0,
            origin: 3,
            seq: 42,
            ts_us: 1_000_000,
        }
    }

    fn golden_opts(name: &str) -> WireOpts {
        match name {
            "raw" => WireOpts::default(),
            "compressed" => WireOpts {
                compress: true,
                dtype: Dtype::F32,
            },
            "bf16" => WireOpts {
                compress: false,
                dtype: Dtype::Bf16,
            },
            other => panic!("unknown golden opts {other}"),
        }
    }

    /// `(message, opts, traced, frame)` as the encoder emitted them before
    /// frames were built in a single buffer (body in a growing `BytesMut`,
    /// per-element float puts, then copied behind a header). The wire
    /// format is frozen: these bytes may never change.
    #[rustfmt::skip]
    const GOLDEN_FRAMES: [(&str, &str, bool, &str); 18] = [
        ("broadcast", "raw", false, "5048544e4c4e4b31010000009e779bdf3d000000000000000107000000000000000b0000000000000000000000000000800000803f000000bf0000807fa55aa57f010000000080813f0000803f0000803f3412f7c2"),
        ("broadcast", "raw", true, "5048544e4c4e4b3101000400945ef2e659000000000000000107000000000000000b0000000000000000000000000000800000803f000000bf0000807fa55aa57f010000000080813f0000803f0000803f3412f7c2f0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("broadcast", "compressed", false, "5048544e4c4e4b3101000100216577f53f000000000000000107000000000000002e000000000000000b00000000000000f705a5a401f70234f7055a5a80800012f70280808025a5810100770080bf80c0007f3ff702fd"),
        ("broadcast", "compressed", true, "5048544e4c4e4b3101000500c97b12f15b000000000000000107000000000000002e000000000000000b00000000000000f705a5a401f70234f7055a5a80800012f70280808025a5810100770080bf80c0007f3ff702fdf0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("broadcast", "bf16", false, "5048544e4c4e4b3101000200b535408427000000000000000107000000000000000b0000000000000000000080803f00bf807fe57f0000823f803f803ff7c2"),
        ("broadcast", "bf16", true, "5048544e4c4e4b3101000600072268c143000000000000000107000000000000000b0000000000000000000080803f00bf807fe57f0000823f803f803ff7c2f0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("result", "raw", false, "5048544e4c4e4b31010000005ce6547c5d000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000000b0000000000000000000000000000800000803f000000bf0000807fa55aa57f010000000080813f0000803f0000803f3412f7c2"),
        ("result", "raw", true, "5048544e4c4e4b310100040093bdcacf79000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000000b0000000000000000000000000000800000803f000000bf0000807fa55aa57f010000000080813f0000803f0000803f3412f7c2f0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("result", "compressed", false, "5048544e4c4e4b3101000100f0d0b38b5f000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000002e000000000000000b00000000000000f705a5a401f70234f7055a5a80800012f70280808025a5810100770080bf80c0007f3ff702fd"),
        ("result", "compressed", true, "5048544e4c4e4b3101000500f47750877b000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000002e000000000000000b00000000000000f705a5a401f70234f7055a5a80800012f70280808025a5810100770080bf80c0007f3ff702fdf0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("result", "bf16", false, "5048544e4c4e4b3101000200e258409e47000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000000b0000000000000000000080803f00bf807fe57f0000823f803f803ff7c2"),
        ("result", "bf16", true, "5048544e4c4e4b3101000600718e3e8463000000000000000203000000000000000b000000000000000000044000005040001000000000000080000000000000000b0000000000000000000080803f00bf807fe57f0000823f803f803ff7c2f0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("run_sync", "raw", false, "5048544e4c4e4b3101000000976bf4741f000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367d"),
        ("run_sync", "raw", true, "5048544e4c4e4b3101000400788658d53b000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367df0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("run_sync", "compressed", false, "5048544e4c4e4b3101000100976bf4741f000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367d"),
        ("run_sync", "compressed", true, "5048544e4c4e4b3101000500788658d53b000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367df0debc9a78563412030000002a0000000000000040420f0000000000"),
        ("run_sync", "bf16", false, "5048544e4c4e4b3101000200976bf4741f000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367d"),
        ("run_sync", "bf16", true, "5048544e4c4e4b3101000600788658d53b000000000000000a0d00000000000000020d000000000000007b22726f756e6473223a31367df0debc9a78563412030000002a0000000000000040420f0000000000"),
    ];

    #[test]
    fn golden_frames_are_byte_identical_to_the_pre_change_encoder() {
        let msgs = [
            (
                "broadcast",
                Message::ModelBroadcast {
                    round: 7,
                    params: golden_floats(),
                },
            ),
            (
                "result",
                Message::ClientResult {
                    round: 3,
                    client_id: 11,
                    delta: golden_floats(),
                    weight: 2.5,
                    metrics: TrainMetrics {
                        mean_loss: 3.25,
                        tokens: 4096,
                        steps: 128,
                    },
                },
            ),
            (
                "run_sync",
                Message::RunSync {
                    round: 13,
                    state: 2,
                    config_json: br#"{"rounds":16}"#.to_vec(),
                },
            ),
        ];
        for (msg_name, opts_name, traced, want) in GOLDEN_FRAMES {
            let (_, msg) = msgs
                .iter()
                .find(|(name, _)| *name == msg_name)
                .expect("golden row names a known message");
            let opts = golden_opts(opts_name);
            let frame = if traced {
                traced_frame(msg, opts, golden_ctx())
            } else {
                msg.to_frame_opts(opts)
            };
            assert_eq!(hex(&frame), want, "{msg_name}/{opts_name}/traced={traced}");
            // The encode-once frame is the same bytes again, whole or in
            // its three traced pieces, and so is a broadcast or a result
            // sealed from borrowed floats.
            let mut sealed = vec![SealedFrame::new(msg, opts)];
            match msg {
                Message::ModelBroadcast { round, params } => {
                    sealed.push(SealedFrame::broadcast(Vec::new(), *round, params, opts));
                }
                Message::ClientResult {
                    round,
                    client_id,
                    delta,
                    weight,
                    metrics,
                } => {
                    // Fresh, and into spent frames longer and shorter
                    // than this one: the old bytes never show.
                    for spent in [Vec::new(), vec![0xA5; 4_096], vec![0x5A; 9]] {
                        let result = SealedFrame::result(
                            spent, *round, *client_id, delta, *weight, *metrics, opts,
                        );
                        sealed.push(result);
                    }
                }
                _ => {}
            }
            for shared in sealed {
                let got = if traced {
                    let (header, payload, trailer) = shared.traced(golden_ctx());
                    [&header[..], payload, &trailer[..]].concat()
                } else {
                    shared.frame().to_vec()
                };
                assert_eq!(hex(&got), want, "sealed {msg_name}/{opts_name}/{traced}");
            }
        }
    }

    #[test]
    fn traced_broadcast_to_three_clients_serializes_the_float_body_once() {
        let params = sample_params(4097);
        for opts in ["raw", "compressed", "bf16"].map(golden_opts) {
            let before = FLOAT_BLOCKS_SERIALIZED.with(std::cell::Cell::get);
            let shared = SealedFrame::broadcast(Vec::new(), 9, &params, opts);
            let frames: Vec<Vec<u8>> = (0..3u64)
                .map(|seq| {
                    let ctx = TraceCtx {
                        seq,
                        ..golden_ctx()
                    };
                    let (header, payload, trailer) = shared.traced(ctx);
                    [&header[..], payload, &trailer[..]].concat()
                })
                .collect();
            let after = FLOAT_BLOCKS_SERIALIZED.with(std::cell::Cell::get);
            assert_eq!(after - before, 1, "one float pass for the whole cohort");

            let want = Message::from_frame(shared.frame()).unwrap();
            for (seq, frame) in frames.into_iter().enumerate() {
                // Each recipient's frame is a valid traced frame in its own
                // right: the extended CRC verifies and the trailer is its own.
                let (msg, ctx) = Message::from_frame_traced(Bytes::from(frame)).unwrap();
                assert_eq!(msg, want);
                assert_eq!(ctx.map(|c| c.seq), Some(seq as u64));
            }
        }
    }

    #[test]
    fn verified_decode_skips_only_the_checksum() {
        let msg = Message::ModelBroadcast {
            round: 4,
            params: sample_params(40),
        };
        let frame = msg.to_frame(false);
        assert_eq!(
            Message::from_verified_frame_into(VerifiedFrame(frame.clone()), Vec::new).unwrap(),
            (msg.clone(), None)
        );
        // A wrong CRC field is the one thing it does not look at ...
        let mut raw = frame.to_vec();
        raw[12] ^= 0xFF;
        assert!(matches!(
            Message::from_frame(Bytes::from(raw.clone())),
            Err(WireError::BadChecksum { .. })
        ));
        assert_eq!(
            Message::from_verified_frame_into(VerifiedFrame(Bytes::from(raw)), Vec::new)
                .unwrap()
                .0,
            msg
        );
        // ... magic, version and truncation are still rejected.
        let mut raw = frame.to_vec();
        raw[0] = b'X';
        assert_eq!(
            Message::from_verified_frame_into(VerifiedFrame(Bytes::from(raw)), Vec::new)
                .unwrap_err(),
            WireError::BadMagic
        );
        let short = VerifiedFrame(frame.slice(..frame.len() - 1));
        assert!(Message::from_verified_frame_into(short, Vec::new).is_err());
    }

    #[test]
    fn a_spent_frame_comes_back_without_a_copy_only_when_unshared() {
        let seal = |buffer| {
            let delta = sample_params(500);
            let metrics = TrainMetrics::default();
            SealedFrame::result(buffer, 1, 2, &delta, 1.0, metrics, WireOpts::default())
        };
        let first = seal(Vec::new());
        let at = first.frame().as_ptr();
        let buffer = first.into_buffer();
        assert_eq!(
            buffer.as_ptr(),
            at,
            "an unshared frame is handed back in place"
        );
        let second = seal(buffer);
        assert_eq!(
            second.frame().as_ptr(),
            at,
            "and the next result is sealed into it"
        );
        let copy = second.frame();
        assert!(
            second.into_buffer().is_empty(),
            "a frame still shared is not"
        );
        drop(copy);
    }

    #[test]
    fn a_result_decodes_into_a_reused_buffer_in_every_encoding() {
        let msg = Message::ClientResult {
            round: 3,
            client_id: 9,
            delta: sample_params(300),
            weight: 2.0,
            metrics: TrainMetrics::default(),
        };
        for opts in [
            WireOpts::default(),
            WireOpts {
                compress: true,
                ..WireOpts::default()
            },
            WireOpts {
                dtype: Dtype::Bf16,
                ..WireOpts::default()
            },
        ] {
            let frame = VerifiedFrame::check(msg.to_frame_opts(opts)).unwrap();
            let want = Message::from_verified_frame_into(frame.clone(), Vec::new).unwrap();
            for stale in [vec![f32::NAN; 7], vec![f32::NAN; 1_000]] {
                let got = Message::from_verified_frame_into(frame.clone(), || stale).unwrap();
                assert_eq!(got, want, "{opts:?}");
            }
        }
    }

    #[test]
    fn broadcast_roundtrip_both_modes() {
        let msg = Message::ModelBroadcast {
            round: 7,
            params: sample_params(513),
        };
        for compress in [false, true] {
            let frame = msg.to_frame(compress);
            assert_eq!(Message::from_frame(frame).unwrap(), msg);
        }
    }

    #[test]
    fn result_roundtrip() {
        let msg = Message::ClientResult {
            round: 3,
            client_id: 11,
            delta: sample_params(64),
            weight: 2.5,
            metrics: TrainMetrics {
                mean_loss: 3.25,
                tokens: 4096,
                steps: 128,
            },
        };
        let frame = msg.to_frame(true);
        assert_eq!(Message::from_frame(frame).unwrap(), msg);
    }

    #[test]
    fn shutdown_roundtrip() {
        let frame = Message::Shutdown.to_frame(false);
        assert_eq!(Message::from_frame(frame).unwrap(), Message::Shutdown);
    }

    #[test]
    fn membership_handshake_roundtrips() {
        let hello = Message::Hello {
            client_id: 9,
            birth_round: 17,
        };
        let grant = Message::LeaseGrant {
            client_id: 9,
            expires_ms: 42_000,
        };
        for compress in [false, true] {
            assert_eq!(
                Message::from_frame(hello.to_frame(compress)).unwrap(),
                hello
            );
            assert_eq!(
                Message::from_frame(grant.to_frame(compress)).unwrap(),
                grant
            );
        }
        // Handshake frames are control-plane small: no float payload.
        assert!(hello.to_frame_opts(WireOpts::default()).len() < 64);
    }

    #[test]
    fn session_control_plane_roundtrips() {
        let msgs = [
            Message::SessionHello {
                client_id: u32::MAX,
                token: 0,
                last_acked_round: u64::MAX,
            },
            Message::SessionHello {
                client_id: 3,
                token: 0xDEAD_BEEF_CAFE_F00D,
                last_acked_round: 12,
            },
            Message::SessionGrant {
                client_id: 3,
                token: 0xDEAD_BEEF_CAFE_F00D,
                round: 13,
                resumed: true,
            },
            Message::Heartbeat {
                client_id: 3,
                seq: 999,
            },
            Message::ResultAck {
                client_id: 3,
                round: 13,
            },
            Message::RunSync {
                round: 13,
                state: 2,
                config_json: br#"{"rounds":16}"#.to_vec(),
            },
        ];
        for msg in &msgs {
            for compress in [false, true] {
                assert_eq!(
                    Message::from_frame(msg.to_frame(compress)).unwrap(),
                    *msg,
                    "roundtrip failed for {msg:?} (compress={compress})"
                );
            }
            // Control-plane frames stay small (no float payload).
            assert!(msg.to_frame_opts(WireOpts::default()).len() < 128);
        }
    }

    #[test]
    fn bf16_wire_roundtrip_and_size() {
        // Values exactly representable in bf16 round-trip bit-exactly.
        let params: Vec<f32> = (0..512).map(|i| (i as f32 - 256.0) * 0.25).collect();
        let msg = Message::ModelBroadcast { round: 5, params };
        let opts = WireOpts {
            compress: false,
            dtype: Dtype::Bf16,
        };
        let decoded = Message::from_frame(msg.to_frame_opts(opts)).unwrap();
        assert_eq!(decoded, msg);

        // Arbitrary floats roundtrip within bf16's relative-error bound, and
        // the frame shrinks ~2x vs f32 storage.
        let msg = Message::ModelBroadcast {
            round: 5,
            params: sample_params(4096),
        };
        let f32_bytes = msg.to_frame_opts(WireOpts::default()).len();
        let bf16_bytes = msg.to_frame_opts(opts).len();
        assert!(
            (bf16_bytes as f64) < 0.55 * f32_bytes as f64,
            "bf16 {bf16_bytes} vs f32 {f32_bytes}"
        );
        let Message::ModelBroadcast { params: got, .. } =
            Message::from_frame(msg.to_frame_opts(opts)).unwrap()
        else {
            panic!("wrong variant");
        };
        let Message::ModelBroadcast { params: want, .. } = msg else {
            panic!("wrong variant");
        };
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= w.abs() / 256.0 + 1e-12);
        }
    }

    #[test]
    fn traced_frame_roundtrips_and_legacy_decoder_ignores_ctx() {
        let ctx = TraceCtx {
            trace_id: 0x1234_5678_9abc_def0,
            origin: 3,
            seq: 42,
            ts_us: 1_000_000,
        };
        let msgs = [
            Message::ModelBroadcast {
                round: 2,
                params: sample_params(129),
            },
            Message::Heartbeat {
                client_id: 2,
                seq: 7,
            },
            Message::Shutdown,
        ];
        for msg in &msgs {
            for opts in [
                WireOpts::default(),
                WireOpts {
                    compress: true,
                    dtype: Dtype::F32,
                },
                WireOpts {
                    compress: false,
                    dtype: Dtype::Bf16,
                },
            ] {
                // bf16 storage perturbs floats; compare against the bf16
                // roundtrip of the untraced path instead of the original.
                let want = Message::from_frame(msg.to_frame_opts(opts)).unwrap();
                let frame = traced_frame(msg, opts, ctx);
                let (got, got_ctx) = Message::from_frame_traced(frame.clone()).unwrap();
                assert_eq!(got, want);
                assert_eq!(got_ctx, Some(ctx));
                // The trailer is invisible to the legacy decoder.
                assert_eq!(Message::from_frame(frame).unwrap(), want);
                // Untraced frames report no context.
                let (_, none_ctx) = Message::from_frame_traced(msg.to_frame_opts(opts)).unwrap();
                assert_eq!(none_ctx, None);
            }
        }
    }

    #[test]
    fn traced_frame_costs_exactly_the_trailer() {
        let msg = Message::Heartbeat {
            client_id: 0,
            seq: 1,
        };
        let ctx = TraceCtx {
            trace_id: 1,
            origin: 1,
            seq: 1,
            ts_us: 1,
        };
        let plain = msg.to_frame_opts(WireOpts::default()).len();
        let traced = traced_frame(&msg, WireOpts::default(), ctx).len();
        assert_eq!(traced, plain + TRACE_CTX_LEN);
    }

    /// A CRC-valid payload that is no message is `Malformed`, named; only
    /// a compressed stream that fails to expand is `BadCompression`.
    #[test]
    fn decode_errors_name_what_failed() {
        let err = Message::from_frame(crate::encode_frame(&[200], false)).unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains("200")),
            "{err}"
        );
        assert!(err.to_string().contains("tag 200"), "{err}");

        let result = Message::ClientResult {
            round: 1,
            client_id: 2,
            delta: sample_params(16),
            weight: 1.0,
            metrics: TrainMetrics::default(),
        };
        for opts in ["raw", "bf16"].map(golden_opts) {
            let frame = result.to_frame_opts(opts);
            let short = &frame[FRAME_HEADER_LEN..frame.len() - 3];
            let err = Message::from_frame(crate::wire::encode_frame_with(short, opts.flags()));
            assert!(matches!(err, Err(WireError::Malformed(_))), "{err:?}");
        }

        // The compressed stream opens with its element count: claim one
        // more element than the stream holds.
        let frame = result.to_frame(true);
        let mut payload = frame[FRAME_HEADER_LEN..].to_vec();
        let count = result_head(1, 2, 1.0, TrainMetrics::default()).len() + 8;
        payload[count] += 1;
        let err = Message::from_frame(crate::encode_frame(&payload, true));
        assert!(matches!(err, Err(WireError::BadCompression(_))), "{err:?}");

        // A count no stream of its size could hold is refused before the
        // decoder allocates for it (2^40 elements would be 4 TiB).
        payload[count..count + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = Message::from_frame(crate::encode_frame(&payload, true));
        assert!(matches!(err, Err(WireError::BadCompression(_))), "{err:?}");
        // ... and so is a bare 2^61 count, the stream holding nothing else.
        let mut bare = payload[..count - 8].to_vec();
        bare.extend_from_slice(&8u64.to_le_bytes());
        bare.extend_from_slice(&(1u64 << 61).to_le_bytes());
        let err = Message::from_frame(crate::encode_frame(&bare, true));
        assert!(matches!(err, Err(WireError::BadCompression(_))), "{err:?}");
    }

    #[test]
    fn corrupted_frame_rejected() {
        let msg = Message::ModelBroadcast {
            round: 1,
            params: sample_params(32),
        };
        let mut raw = msg.to_frame(false).to_vec();
        raw[40] ^= 0xFF;
        assert!(Message::from_frame(Bytes::from(raw)).is_err());
    }

    #[test]
    fn wire_bytes_reflect_payload_size() {
        let small = Message::ModelBroadcast {
            round: 0,
            params: sample_params(16),
        };
        let large = Message::ModelBroadcast {
            round: 0,
            params: sample_params(1600),
        };
        let len = |msg: &Message| msg.to_frame_opts(WireOpts::default()).len();
        assert!(len(&large) > len(&small) * 50);
    }
}
