//! The SAFELOC wire format: compact, versioned, length-prefixed binary
//! frames for serving traffic and federated round control.
//!
//! # Framing
//!
//! Every message on a stream is one frame:
//!
//! ```text
//! [ len: u32 LE ][ tag: u8 ][ payload: len-1 bytes ]
//! ```
//!
//! `len` counts the tag byte plus the payload, so a reader pulls exactly
//! 4 + `len` bytes per frame. Frames longer than [`MAX_FRAME_LEN`] are
//! rejected before any allocation — a hostile or corrupt peer cannot make
//! the server reserve gigabytes from a 4-byte header.
//!
//! # Versioning
//!
//! Connections open with an explicit [`Frame::Hello`] / [`Frame::HelloAck`]
//! exchange carrying [`WIRE_SCHEMA`]. A peer speaking a different schema
//! gets a typed [`WireError::SchemaVersion`] (and, on the server, an
//! [`Frame::Error`] frame) instead of garbled payload decodes later.
//!
//! # Dense frames vs. compressed delta frames (schema v2)
//!
//! By default, update and GM-broadcast frames carry [`NamedParams`] as raw
//! `f32` LE words — *not* as deltas. `f32` addition is not invertible, so
//! a delta-encoded update (`LM − GM` re-added server-side) would break the
//! repo's bitwise-trajectory invariant; the full local model round-trips
//! exactly.
//!
//! Schema v2 adds the *opt-in* [`Frame::UpdateDelta`] frame: a client that
//! has chosen lossy compression (top-k or int8 quantization, with
//! client-side error feedback) uploads only its encoded
//! [`DeltaRepr`], shrinking the upload from `4·d`
//! bytes to `O(k)`. The compressing client *re-materializes* its own
//! parameters as `GM + decode(encode(δ))` before training the next round,
//! and the server does the same on receipt — so both sides, and every
//! defense, see exactly the weights that crossed the wire. Dense sessions
//! never produce these frames and keep their bitwise trajectories.
//!
//! All decoding is total: any malformed input yields a typed
//! [`WireError`], never a panic — pinned by the proptest suite in
//! `tests/frame_robustness.rs`.

use safeloc_fl::DeltaRepr;
use safeloc_nn::{Matrix, NamedParams};

/// Wire schema version spoken by this build, and the only one a handshake
/// accepts. v2 added the compressed [`Frame::UpdateDelta`] frame; v3 added
/// the telemetry-exposition [`Frame::MetricsRequest`] /
/// [`Frame::MetricsResponse`] pair; v4 dropped the round preamble (a round
/// is [`Frame::GmBroadcast`] out, an update back) and renumbered the tags
/// densely.
pub const WIRE_SCHEMA: u32 = 4;

/// Hard cap on `tag + payload` length (16 MiB). Large enough for a
/// paper-scale model update (~100k parameters ≈ 400 KiB), small enough
/// that a corrupt length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Error-frame code: schema version mismatch at handshake.
pub const ERR_SCHEMA: u16 = 1;
/// Error-frame code: the peer sent a frame we could not decode.
pub const ERR_MALFORMED: u16 = 2;
/// Error-frame code: the serving layer rejected the request.
pub const ERR_SERVE: u16 = 3;
/// Error-frame code: a well-formed frame arrived out of protocol order.
pub const ERR_PROTOCOL: u16 = 4;

/// Typed decode/transport error. Every malformed input maps here — wire
/// code never panics on peer-controlled bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Socket-level failure (connect, read, write, EOF mid-frame).
    Io(String),
    /// The buffer ended before the frame did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// Claimed frame length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The tag byte names no known frame type.
    UnknownTag(u8),
    /// The payload decoded structurally but carried nonsense (bad UTF-8,
    /// overflowing tensor shape, unknown enum discriminant, trailing
    /// bytes).
    BadPayload(String),
    /// The peer speaks a different wire schema.
    SchemaVersion {
        /// Our schema version.
        ours: u32,
        /// The peer's.
        theirs: u32,
    },
    /// The peer reported an error frame.
    Peer {
        /// Machine-readable code (`ERR_*`).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// A well-formed frame arrived where the protocol does not allow it.
    Protocol(String),
    /// A read deadline expired before a full frame arrived.
    Timeout,
}

impl WireError {
    /// Short variant name, used as the `kind` label of the
    /// `wire_errors_total` telemetry counter.
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Io(_) => "Io",
            WireError::Truncated { .. } => "Truncated",
            WireError::Oversized { .. } => "Oversized",
            WireError::UnknownTag(_) => "UnknownTag",
            WireError::BadPayload(_) => "BadPayload",
            WireError::SchemaVersion { .. } => "SchemaVersion",
            WireError::Peer { .. } => "Peer",
            WireError::Protocol(_) => "Protocol",
            WireError::Timeout => "Timeout",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire I/O error: {msg}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds cap {max}")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::BadPayload(msg) => write!(f, "bad frame payload: {msg}"),
            WireError::SchemaVersion { ours, theirs } => {
                write!(
                    f,
                    "wire schema mismatch: we speak v{ours}, peer speaks v{theirs}"
                )
            }
            WireError::Peer { code, message } => {
                write!(f, "peer error {code}: {message}")
            }
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            WireError::Timeout => write!(f, "read deadline expired"),
        }
    }
}

impl std::error::Error for WireError {}

/// One client model update in flight: the full local model plus the
/// metadata the defense layer and the reports need.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateFrame {
    /// Client identifier (fleet index).
    pub client_id: u64,
    /// Round the update belongs to.
    pub round: u32,
    /// Building the client localizes in.
    pub building: u32,
    /// Device class string, for the per-device serving registry.
    pub device_class: String,
    /// Local fingerprints the update trained on.
    pub num_samples: u64,
    /// The full local model (not a delta — see the module docs).
    pub params: NamedParams,
}

/// One *compressed* client update in flight: the encoded delta
/// representation plus the same metadata as [`UpdateFrame`]. The server
/// re-materializes full parameters as `GM + decode(repr)` (see the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaUpdateFrame {
    /// Client identifier (fleet index).
    pub client_id: u64,
    /// Round the update belongs to.
    pub round: u32,
    /// Building the client localizes in.
    pub building: u32,
    /// Device class string, for the per-device serving registry.
    pub device_class: String,
    /// Local fingerprints the update trained on.
    pub num_samples: u64,
    /// The compressed delta. [`DeltaRepr::Dense`] is legal on the wire but
    /// carries no coefficients — servers reject it as a protocol error
    /// (dense updates travel as [`Frame::Update`]).
    pub repr: DeltaRepr,
}

/// Every message the protocol speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: the sender's wire schema.
    Hello {
        /// Schema version the sender speaks.
        schema: u32,
    },
    /// Server's handshake acceptance, echoing its schema.
    HelloAck {
        /// Schema version the server speaks.
        schema: u32,
    },
    /// A federated client registering itself with the round server.
    Join {
        /// The client's fleet index.
        client_index: u32,
    },
    /// The global model pushed to a training client.
    GmBroadcast {
        /// Round number.
        round: u32,
        /// The round's training-seed salt (`(rounds_run + 1) << 16`),
        /// so the remote client derives bitwise the in-process per-round
        /// seed `client.seed ^ round_salt`.
        round_salt: u64,
        /// Global model parameters.
        params: NamedParams,
    },
    /// A client's trained update.
    Update(UpdateFrame),
    /// A client's trained update in compressed delta form (schema v2,
    /// opt-in — see the module docs).
    UpdateDelta(DeltaUpdateFrame),
    /// A localization request.
    LocalizeReq {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Building to localize in.
        building: u32,
        /// Reported device name.
        device: String,
        /// Raw RSS row in dBm.
        rss_dbm: Vec<f32>,
    },
    /// A localization response.
    LocalizeResp {
        /// Correlation id of the request.
        id: u64,
        /// Predicted reference-point label.
        label: u32,
        /// Physical coordinates of the label, if geometry is registered.
        position: Option<(f32, f32)>,
        /// Device class the request was routed under.
        device_class: String,
        /// Version of the model snapshot that served the request.
        model_version: u64,
    },
    /// Ask the peer for a telemetry snapshot (schema v3).
    MetricsRequest,
    /// The peer's telemetry snapshot in Prometheus text exposition
    /// format (schema v3). Carried as a u32-length UTF-8 string: a busy
    /// registry's exposition easily exceeds the u16 budget of the short
    /// string fields.
    MetricsResponse {
        /// Prometheus text exposition of the peer's registry.
        text: String,
    },
    /// Typed failure notification (see the `ERR_*` codes).
    Error {
        /// Machine-readable code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Orderly goodbye.
    Bye,
}

/// The frame-type byte after the length prefix. Discriminants are
/// implicit and dense from `Hello = 1`, so rustc rejects two variants on
/// one byte (E0081) and a gap cannot be written; [`Frame::decode_body`]
/// matches on `Tag`, so a tag without a decode arm does not compile. The
/// `tags_are_pinned_with_the_schema` test pins each byte to
/// [`WIRE_SCHEMA`].
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
enum Tag {
    Hello = 1,
    HelloAck,
    Join,
    GmBroadcast,
    Update,
    LocalizeReq,
    LocalizeResp,
    UpdateDelta,
    MetricsReq,
    MetricsResp,
    Error,
    Bye,
}

impl Tag {
    /// Every tag, in byte order.
    const ALL: [Tag; 12] = [
        Tag::Hello,
        Tag::HelloAck,
        Tag::Join,
        Tag::GmBroadcast,
        Tag::Update,
        Tag::LocalizeReq,
        Tag::LocalizeResp,
        Tag::UpdateDelta,
        Tag::MetricsReq,
        Tag::MetricsResp,
        Tag::Error,
        Tag::Bye,
    ];

    /// The tag whose byte is `b`, if any.
    fn from_u8(b: u8) -> Option<Tag> {
        Tag::ALL.get(usize::from(b).wrapping_sub(1)).copied()
    }
}

impl Frame {
    /// Short name of the frame type, for protocol-violation messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::Join { .. } => "Join",
            Frame::GmBroadcast { .. } => "GmBroadcast",
            Frame::Update(_) => "Update",
            Frame::UpdateDelta(_) => "UpdateDelta",
            Frame::LocalizeReq { .. } => "LocalizeReq",
            Frame::LocalizeResp { .. } => "LocalizeResp",
            Frame::MetricsRequest => "MetricsRequest",
            Frame::MetricsResponse { .. } => "MetricsResponse",
            Frame::Error { .. } => "Error",
            Frame::Bye => "Bye",
        }
    }

    /// Encodes the frame as its full wire bytes: length prefix, tag,
    /// payload. The returned buffer holds no spare capacity, so callers
    /// that keep many encoded frames pay for their bytes only.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out.shrink_to_fit();
        out
    }

    /// Appends the frame's full wire bytes to `out` — what [`Frame::encode`]
    /// returns, without a fresh allocation when `out` has room.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.encode_body(out);
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Tag byte followed by payload (everything after the length prefix).
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { schema } => {
                out.push(Tag::Hello as u8);
                put_u32(out, *schema);
            }
            Frame::HelloAck { schema } => {
                out.push(Tag::HelloAck as u8);
                put_u32(out, *schema);
            }
            Frame::Join { client_index } => {
                out.push(Tag::Join as u8);
                put_u32(out, *client_index);
            }
            Frame::GmBroadcast {
                round,
                round_salt,
                params,
            } => {
                out.push(Tag::GmBroadcast as u8);
                put_u32(out, *round);
                put_u64(out, *round_salt);
                put_params(out, params);
            }
            Frame::Update(update) => {
                out.push(Tag::Update as u8);
                put_u64(out, update.client_id);
                put_u32(out, update.round);
                put_u32(out, update.building);
                put_str(out, &update.device_class);
                put_u64(out, update.num_samples);
                put_params(out, &update.params);
            }
            Frame::UpdateDelta(update) => {
                out.push(Tag::UpdateDelta as u8);
                put_u64(out, update.client_id);
                put_u32(out, update.round);
                put_u32(out, update.building);
                put_str(out, &update.device_class);
                put_u64(out, update.num_samples);
                put_delta_repr(out, &update.repr);
            }
            Frame::LocalizeReq {
                id,
                building,
                device,
                rss_dbm,
            } => {
                out.push(Tag::LocalizeReq as u8);
                put_u64(out, *id);
                put_u32(out, *building);
                put_str(out, device);
                put_u32(out, rss_dbm.len() as u32);
                for v in rss_dbm {
                    put_f32(out, *v);
                }
            }
            Frame::LocalizeResp {
                id,
                label,
                position,
                device_class,
                model_version,
            } => {
                out.push(Tag::LocalizeResp as u8);
                put_u64(out, *id);
                put_u32(out, *label);
                match position {
                    Some((x, y)) => {
                        out.push(1);
                        put_f32(out, *x);
                        put_f32(out, *y);
                    }
                    None => out.push(0),
                }
                put_str(out, device_class);
                put_u64(out, *model_version);
            }
            Frame::MetricsRequest => out.push(Tag::MetricsReq as u8),
            Frame::MetricsResponse { text } => {
                out.push(Tag::MetricsResp as u8);
                put_lstr(out, text);
            }
            Frame::Error { code, message } => {
                out.push(Tag::Error as u8);
                put_u16(out, *code);
                put_str(out, message);
            }
            Frame::Bye => out.push(Tag::Bye as u8),
        }
    }

    /// Decodes one frame from the start of `bytes` (which must begin with
    /// the length prefix). Returns the frame and the total bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] decode variant; never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
        if bytes.len() < 4 {
            return Err(WireError::Truncated {
                needed: 4,
                have: bytes.len(),
            });
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        if bytes.len() < 4 + len {
            return Err(WireError::Truncated {
                needed: 4 + len,
                have: bytes.len(),
            });
        }
        let frame = Frame::decode_body(&bytes[4..4 + len])?;
        Ok((frame, 4 + len))
    }

    /// Decodes a tag + payload body (everything after the length prefix).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] decode variant; never panics, whatever the input.
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(body);
        let tag = r.u8()?;
        let frame = match Tag::from_u8(tag).ok_or(WireError::UnknownTag(tag))? {
            Tag::Hello => Frame::Hello { schema: r.u32()? },
            Tag::HelloAck => Frame::HelloAck { schema: r.u32()? },
            Tag::Join => Frame::Join {
                client_index: r.u32()?,
            },
            Tag::GmBroadcast => Frame::GmBroadcast {
                round: r.u32()?,
                round_salt: r.u64()?,
                params: r.params()?,
            },
            Tag::Update => Frame::Update(UpdateFrame {
                client_id: r.u64()?,
                round: r.u32()?,
                building: r.u32()?,
                device_class: r.string()?,
                num_samples: r.u64()?,
                params: r.params()?,
            }),
            Tag::UpdateDelta => Frame::UpdateDelta(DeltaUpdateFrame {
                client_id: r.u64()?,
                round: r.u32()?,
                building: r.u32()?,
                device_class: r.string()?,
                num_samples: r.u64()?,
                repr: r.delta_repr()?,
            }),
            Tag::LocalizeReq => {
                let id = r.u64()?;
                let building = r.u32()?;
                let device = r.string()?;
                let n = r.u32()? as usize;
                r.check_capacity(n, 4)?;
                let mut rss_dbm = Vec::with_capacity(n);
                for _ in 0..n {
                    rss_dbm.push(r.f32()?);
                }
                Frame::LocalizeReq {
                    id,
                    building,
                    device,
                    rss_dbm,
                }
            }
            Tag::LocalizeResp => {
                let id = r.u64()?;
                let label = r.u32()?;
                let position = match r.u8()? {
                    0 => None,
                    1 => Some((r.f32()?, r.f32()?)),
                    other => {
                        return Err(WireError::BadPayload(format!("bad position flag {other}")))
                    }
                };
                Frame::LocalizeResp {
                    id,
                    label,
                    position,
                    device_class: r.string()?,
                    model_version: r.u64()?,
                }
            }
            Tag::MetricsReq => Frame::MetricsRequest,
            Tag::MetricsResp => Frame::MetricsResponse { text: r.lstring()? },
            Tag::Error => Frame::Error {
                code: r.u16()?,
                message: r.string()?,
            },
            Tag::Bye => Frame::Bye,
        };
        r.finish()?;
        Ok(frame)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// A long string: u32 length prefix. Device names fit in [`put_str`]'s
/// u16 budget; a metrics exposition does not.
fn put_lstr(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Delta-representation discriminant bytes (schema v2).
const REPR_DENSE: u8 = 0;
const REPR_TOP_K: u8 = 1;
const REPR_Q8: u8 = 2;

/// A [`DeltaRepr`] as discriminant byte + coefficients: top-k as `u32`
/// kept-count then `(u32 index, f32 value)` pairs (ascending indices, the
/// compressor's canonical layout); int8 as `f32` scale, `u32` count, raw
/// `i8` bytes.
fn put_delta_repr(out: &mut Vec<u8>, repr: &DeltaRepr) {
    match repr {
        DeltaRepr::Dense => out.push(REPR_DENSE),
        DeltaRepr::TopK { indices, values, k } => {
            out.push(REPR_TOP_K);
            put_u32(out, *k as u32);
            put_u32(out, indices.len() as u32);
            for (i, v) in indices.iter().zip(values) {
                put_u32(out, *i);
                put_f32(out, *v);
            }
        }
        DeltaRepr::QuantizedI8 { scale, values } => {
            out.push(REPR_Q8);
            put_f32(out, *scale);
            put_u32(out, values.len() as u32);
            out.extend(values.iter().map(|&q| q as u8));
        }
    }
}

/// Tensors as `u32` count, then per tensor: `u16` name length, UTF-8
/// name, `u32` rows, `u32` cols, `rows·cols` `f32` LE words.
fn put_params(out: &mut Vec<u8>, params: &NamedParams) {
    put_u32(out, params.len() as u32);
    for (name, tensor) in params.iter() {
        put_str(out, name);
        put_u32(out, tensor.rows() as u32);
        put_u32(out, tensor.cols() as u32);
        for v in tensor.as_slice() {
            put_f32(out, *v);
        }
    }
}

/// Cursor over a frame body; every read is bounds-checked into
/// [`WireError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::BadPayload("length overflow".to_string()))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Rejects a claimed element count the remaining bytes cannot hold —
    /// the guard that keeps a hostile count from pre-allocating gigabytes.
    fn check_capacity(&self, count: usize, min_elem_bytes: usize) -> Result<(), WireError> {
        let needed = count
            .checked_mul(min_elem_bytes)
            .ok_or_else(|| WireError::BadPayload("element count overflow".to_string()))?;
        let have = self.buf.len() - self.pos;
        if needed > have {
            return Err(WireError::Truncated {
                needed: self.pos + needed,
                have: self.buf.len(),
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::BadPayload(format!("invalid UTF-8 string: {e}")))
    }

    /// Counterpart of `put_lstr`: u32-length string. `take` bounds the
    /// claimed length against the remaining payload before allocating.
    fn lstring(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::BadPayload(format!("invalid UTF-8 string: {e}")))
    }

    fn params(&mut self) -> Result<NamedParams, WireError> {
        let count = self.u32()? as usize;
        // Cheapest possible tensor: empty name + shape header = 10 bytes.
        self.check_capacity(count, 10)?;
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let name = self.string()?;
            let rows = self.u32()? as usize;
            let cols = self.u32()? as usize;
            let elems = rows
                .checked_mul(cols)
                .ok_or_else(|| WireError::BadPayload("tensor shape overflow".to_string()))?;
            self.check_capacity(elems, 4)?;
            // One bounds check for the tensor, not one per element (the
            // capacity check above already proved the bytes are there).
            let data = self
                .take(elems * 4)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            let tensor = Matrix::from_vec(rows, cols, data)
                .map_err(|e| WireError::BadPayload(format!("bad tensor shape: {e:?}")))?;
            tensors.push((name, tensor));
        }
        Ok(tensors.into_iter().collect())
    }

    fn delta_repr(&mut self) -> Result<DeltaRepr, WireError> {
        match self.u8()? {
            REPR_DENSE => Ok(DeltaRepr::Dense),
            REPR_TOP_K => {
                let k = self.u32()? as usize;
                let count = self.u32()? as usize;
                // Each kept coefficient costs 8 bytes on the wire.
                self.check_capacity(count, 8)?;
                // One bounds check for the run of (index, value) pairs,
                // not two per coefficient; then two straight collects of
                // known length, not one pair-by-pair `unzip`.
                let pairs = self.take(count * 8)?;
                if k != count {
                    return Err(WireError::BadPayload(format!(
                        "top-k announces k = {k} but carries {count} coefficients"
                    )));
                }
                let indices = (pairs.chunks_exact(8))
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                let values = (pairs.chunks_exact(8))
                    .map(|b| f32::from_le_bytes([b[4], b[5], b[6], b[7]]))
                    .collect();
                Ok(DeltaRepr::TopK { indices, values, k })
            }
            REPR_Q8 => {
                let scale = self.f32()?;
                let count = self.u32()? as usize;
                self.check_capacity(count, 1)?;
                let values = self.take(count)?.iter().map(|&b| b as i8).collect();
                Ok(DeltaRepr::QuantizedI8 { scale, values })
            }
            other => Err(WireError::BadPayload(format!(
                "unknown delta repr discriminant {other}"
            ))),
        }
    }

    /// Rejects trailing bytes: a frame must decode exactly.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::BadPayload(format!(
                "{} trailing bytes after frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_nn::{Activation, HasParams, Sequential};

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len(), "frame must consume its exact bytes");
        assert_eq!(back, frame);
    }

    #[test]
    fn every_frame_type_round_trips() {
        let params = Sequential::mlp(&[4, 3, 2], Activation::Relu, 9).snapshot();
        round_trip(Frame::Hello {
            schema: WIRE_SCHEMA,
        });
        round_trip(Frame::HelloAck { schema: 7 });
        round_trip(Frame::Join { client_index: 3 });
        round_trip(Frame::GmBroadcast {
            round: 4,
            round_salt: 5 << 16,
            params: params.clone(),
        });
        round_trip(Frame::Update(UpdateFrame {
            client_id: 11,
            round: 4,
            building: 0,
            device_class: "HTC U11".to_string(),
            num_samples: 120,
            params,
        }));
        round_trip(Frame::UpdateDelta(DeltaUpdateFrame {
            client_id: 12,
            round: 4,
            building: 0,
            device_class: "Pixel 2".to_string(),
            num_samples: 80,
            repr: DeltaRepr::TopK {
                indices: vec![0, 7, 31],
                values: vec![0.5, -0.25, 1.0],
                k: 3,
            },
        }));
        round_trip(Frame::UpdateDelta(DeltaUpdateFrame {
            client_id: 13,
            round: 4,
            building: 0,
            device_class: "S7".to_string(),
            num_samples: 64,
            repr: DeltaRepr::QuantizedI8 {
                scale: 0.01,
                values: vec![-127, 0, 64, 127],
            },
        }));
        round_trip(Frame::LocalizeReq {
            id: 99,
            building: 1,
            device: "S7".to_string(),
            rss_dbm: vec![-41.5, -87.0, -100.0],
        });
        round_trip(Frame::LocalizeResp {
            id: 99,
            label: 17,
            position: Some((3.25, -1.5)),
            device_class: "*".to_string(),
            model_version: 6,
        });
        round_trip(Frame::LocalizeResp {
            id: 100,
            label: 0,
            position: None,
            device_class: "*".to_string(),
            model_version: 6,
        });
        round_trip(Frame::MetricsRequest);
        round_trip(Frame::MetricsResponse {
            text: "# TYPE serve_requests_total counter\nserve_requests_total{building=\"1\"} 3\n"
                .to_string(),
        });
        round_trip(Frame::Error {
            code: ERR_SERVE,
            message: "unknown building 9".to_string(),
        });
        round_trip(Frame::Bye);
    }

    /// The tag table is part of the wire format: changing a byte, adding
    /// or removing a tag is a schema change, so this pin and
    /// [`WIRE_SCHEMA`] are edited together or not at all.
    #[test]
    fn tags_are_pinned_with_the_schema() {
        let tags: Vec<(String, u8)> = Tag::ALL
            .iter()
            .map(|&tag| (format!("{tag:?}"), tag as u8))
            .collect();
        let pinned = [
            ("Hello", 0x01),
            ("HelloAck", 0x02),
            ("Join", 0x03),
            ("GmBroadcast", 0x04),
            ("Update", 0x05),
            ("LocalizeReq", 0x06),
            ("LocalizeResp", 0x07),
            ("UpdateDelta", 0x08),
            ("MetricsReq", 0x09),
            ("MetricsResp", 0x0A),
            ("Error", 0x0B),
            ("Bye", 0x0C),
        ]
        .map(|(name, byte)| (name.to_string(), byte));
        assert_eq!(
            (WIRE_SCHEMA, tags),
            (4, pinned.to_vec()),
            "a frame-tag change is a wire-format change: bump WIRE_SCHEMA and \
             update this pin with it"
        );
    }

    #[test]
    fn metrics_response_carries_more_than_a_u16_of_text() {
        // A busy registry's exposition exceeds the short-string budget;
        // the metrics frame must carry it intact.
        let text = "x".repeat(u16::MAX as usize + 100);
        let frame = Frame::MetricsResponse { text: text.clone() };
        let (back, _) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, Frame::MetricsResponse { text });
    }

    #[test]
    fn hostile_metrics_length_is_bounded_by_the_payload() {
        let mut body = vec![Tag::MetricsResp as u8];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(b"tiny");
        assert!(matches!(
            Frame::decode_body(&body),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn non_utf8_metrics_text_is_a_typed_error() {
        let mut body = vec![Tag::MetricsResp as u8];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(WireError::BadPayload(msg)) if msg.contains("UTF-8")
        ));
    }

    #[test]
    fn params_round_trip_is_bitwise() {
        let snap = Sequential::mlp(&[6, 5, 4], Activation::Relu, 3).snapshot();
        let frame = Frame::GmBroadcast {
            round: 0,
            round_salt: 1 << 16,
            params: snap.clone(),
        };
        let (back, _) = Frame::decode(&frame.encode()).unwrap();
        match back {
            Frame::GmBroadcast { params, .. } => assert_eq!(params, snap),
            other => panic!("wrong frame {}", other.kind()),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.push(Tag::Bye as u8);
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::Bye.encode();
        // Grow the declared length and append garbage inside the frame.
        bytes[0] = 3;
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn hostile_counts_cannot_preallocate() {
        // A LocalizeReq claiming u32::MAX RSS floats in an 18-byte payload.
        let mut body = vec![Tag::LocalizeReq as u8];
        body.extend_from_slice(&0u64.to_le_bytes()); // id
        body.extend_from_slice(&0u32.to_le_bytes()); // building
        body.extend_from_slice(&0u16.to_le_bytes()); // empty device name
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        assert!(matches!(
            Frame::decode_body(&body),
            Err(WireError::Truncated { .. })
        ));
        // An UpdateDelta claiming u32::MAX top-k coefficients.
        let mut body = vec![Tag::UpdateDelta as u8];
        body.extend_from_slice(&0u64.to_le_bytes()); // client_id
        body.extend_from_slice(&0u32.to_le_bytes()); // round
        body.extend_from_slice(&0u32.to_le_bytes()); // building
        body.extend_from_slice(&0u16.to_le_bytes()); // empty device class
        body.extend_from_slice(&0u64.to_le_bytes()); // num_samples
        body.push(REPR_TOP_K);
        body.extend_from_slice(&3u32.to_le_bytes()); // k
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        assert!(matches!(
            Frame::decode_body(&body),
            Err(WireError::Truncated { .. })
        ));
    }

    /// Every compressor emits `k == indices.len()`; a top-k announcing
    /// another `k` than the pairs it carries — here three pairs and
    /// `k = u32::MAX`, which used to be accepted and reported as
    /// `topk(4294967295)` — is a malformed payload, either way round.
    #[test]
    fn a_top_k_whose_k_is_not_its_coefficient_count_is_rejected() {
        let frame = |k: usize| {
            Frame::UpdateDelta(DeltaUpdateFrame {
                client_id: 0,
                round: 0,
                building: 0,
                device_class: String::new(),
                num_samples: 1,
                repr: DeltaRepr::TopK {
                    indices: vec![0, 7, 31],
                    values: vec![0.5, -0.25, 1.0],
                    k,
                },
            })
            .encode()
        };
        assert!(Frame::decode(&frame(3)).is_ok());
        for k in [u32::MAX as usize, 4, 2, 0] {
            assert!(
                matches!(
                    Frame::decode(&frame(k)),
                    Err(WireError::BadPayload(msg)) if msg.contains("k =")
                ),
                "k = {k} decoded"
            );
        }
    }

    #[test]
    fn unknown_delta_repr_discriminant_is_a_typed_error() {
        let good = Frame::UpdateDelta(DeltaUpdateFrame {
            client_id: 1,
            round: 0,
            building: 0,
            device_class: String::new(),
            num_samples: 1,
            repr: DeltaRepr::Dense,
        })
        .encode();
        let mut body = good[4..].to_vec();
        let last = body.len() - 1;
        body[last] = 9; // stomp the repr discriminant
        assert!(matches!(
            Frame::decode_body(&body),
            Err(WireError::BadPayload(msg)) if msg.contains("delta repr")
        ));
    }

    #[test]
    fn compressed_update_frames_shrink_with_k() {
        let d = 4096usize;
        let dense_payload = 4 * d;
        let frame = |k: usize| {
            Frame::UpdateDelta(DeltaUpdateFrame {
                client_id: 0,
                round: 0,
                building: 0,
                device_class: String::new(),
                num_samples: 10,
                repr: DeltaRepr::TopK {
                    indices: (0..k as u32).collect(),
                    values: vec![0.5; k],
                    k,
                },
            })
            .encode()
            .len()
        };
        assert!(frame(41) < dense_payload / 10, "k=1% should shrink >10x");
        assert!(frame(410) < dense_payload / 2);
        assert!(frame(410) > frame(41), "wire bytes grow with k");
    }
}
