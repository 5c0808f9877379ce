//! Protocol v2: length-prefixed, CRC-framed binary messages.
//!
//! NDJSON (protocol v1) re-parses text on every predict — JSON envelope
//! plus a float parse per series value. Protocol v2 replaces the hot
//! path with fixed-width binary built on the same
//! [`tsda_core::codec::ByteWriter`]/[`ByteReader`] primitives the model
//! files use, so `decode_request` materialises an [`Mts`] from raw
//! IEEE-754 bit patterns with zero text parsing.
//!
//! # Negotiation
//!
//! A connection starts in NDJSON. A client that wants v2 sends the
//! 4-byte [`PREAMBLE`] as its very first bytes; its first byte (0xB2)
//! can never begin a JSON request line, so the server decides the mode
//! from the first byte alone. A partial or mangled preamble (first byte
//! 0xB2 but the rest wrong) is answered with one NDJSON error line and
//! the connection closes. NDJSON remains fully supported for
//! compatibility — both protocols answer one response per request, in
//! order, on the same port.
//!
//! # Framing
//!
//! ```text
//! u32 LE  frame length N (body + 4-byte checksum; 5 ≤ N ≤ MAX_FRAME)
//! body    N - 4 bytes  (first byte = message kind)
//! u32 LE  IEEE CRC-32 of the body
//! ```
//!
//! The checksum is what makes corruption *recoverable*: a flipped byte
//! anywhere in the body or checksum fails [`check_frame`] and produces
//! an error reply, never a silently different request (CRC-32 detects
//! every burst error up to 32 bits, so any single corrupted byte is
//! caught — property-tested in `crates/serve/tests/proptests.rs`).
//! Because the length prefix is read before any payload validation,
//! frame boundaries survive body corruption and the connection keeps
//! serving.
//!
//! # Messages
//!
//! Requests: predict (id, model, series as `n_dims × len` f64 matrix),
//! augment (id, pipeline, seed, index, series), stats, list, ping.
//! Replies: predict-ok (id, label, batch, micros), augment-ok (id,
//! batch, micros, series), error (id, code, message, `retry_ms` backoff
//! hint for shed / throttled refusals), result (id, JSON payload — stats
//! and list reuse the v1 JSON schema; they are not hot).

use crate::dispatch::Reply;
use crate::protocol::{Response, OVERLOADED, THROTTLED};
use serde::Value;
use tsda_core::codec::{crc32, ByteReader, ByteWriter};
use tsda_core::Mts;

/// First bytes of a v2 connection: 0xB2 (never valid leading JSON or
/// UTF-8 whitespace), then `b"TS2"`.
pub const PREAMBLE: [u8; 4] = [0xB2, b'T', b'S', b'2'];

/// Hard cap on one frame (length prefix excluded). Large enough for any
/// realistic series batch, small enough that a corrupted length prefix
/// cannot request a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bound on decoded series dimensions/length: every value costs 8 wire
/// bytes, so no dimension count or series length above `MAX_FRAME / 8`
/// can ever arrive in a valid frame.
pub const MAX_SERIES_VALUES: usize = MAX_FRAME / 8;

/// Convert a raw wire length to `usize` and enforce `len <= max` in one
/// place. Every length decoded off a socket funnels through here: the
/// conversion cannot truncate (no `as`), and the bound is named at the
/// call site, which is exactly what the T1/C1 lints check for.
pub fn checked_len(raw: u32, max: usize, what: &str) -> Result<usize, String> {
    let len = usize::try_from(raw).map_err(|_| format!("{what} {raw} overflows usize"))?;
    if len > max {
        return Err(format!("{what} {len} exceeds cap {max}"));
    }
    Ok(len)
}

const REQ_PREDICT: u8 = 0x01;
const REQ_STATS: u8 = 0x02;
const REQ_LIST: u8 = 0x03;
const REQ_PING: u8 = 0x04;
const REQ_AUGMENT: u8 = 0x05;

const REPLY_PREDICT: u8 = 0x81;
const REPLY_ERROR: u8 = 0x82;
const REPLY_RESULT: u8 = 0x83;
const REPLY_AUGMENT: u8 = 0x84;

/// Error codes carried by v2 error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Plain refusal (bad request, unknown model, prediction failure).
    Error,
    /// Bounded-queue load shed; `retry_ms` hints the backoff.
    Overloaded,
    /// Per-client admission-control quota exceeded; `retry_ms` hints
    /// when the token bucket will have refilled.
    Throttled,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Error => 0,
            ErrCode::Overloaded => 1,
            ErrCode::Throttled => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(ErrCode::Error),
            1 => Ok(ErrCode::Overloaded),
            2 => Ok(ErrCode::Throttled),
            other => Err(format!("unknown error code {other}")),
        }
    }
}

/// A decoded v2 request. Unlike the NDJSON [`crate::protocol::Request`],
/// the series arrives already materialised — the server never
/// text-parses on the v2 path.
pub type Request2 = crate::dispatch::Request<Mts>;

/// Wrap a message body into a full frame: length prefix + body + CRC.
fn frame(body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    let mut out = Vec::with_capacity(4 + body.len() + 4);
    out.extend_from_slice(&((body.len() + 4) as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Re-add the length prefix to a raw `body + crc` blob popped by
/// [`take_frame`] (routers relay frames verbatim without re-encoding).
pub fn reframe(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + raw.len());
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(raw);
    out
}

/// The length of the complete frame at the front of `buf`, length
/// prefix included; its raw frame (`body + crc`, not yet CRC-checked:
/// see [`check_frame`]) is `buf[4..len]`.
///
/// * `Ok(None)` — the buffer does not yet hold a complete frame.
/// * `Err(msg)` — the length prefix itself is invalid (too small or
///   over [`MAX_FRAME`]); the stream cannot be resynchronised and the
///   connection must close.
pub fn frame_end(buf: &[u8]) -> Result<Option<usize>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = checked_len(
        u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]),
        MAX_FRAME,
        "frame length",
    )?;
    if len < 5 {
        return Err(format!("frame length {len} below minimum of 5"));
    }
    Ok((buf.len() >= 4 + len).then_some(4 + len))
}

/// Pop one complete raw frame (`body + crc`, length prefix stripped and
/// validated) off the front of `buf`, as [`frame_end`] finds it.
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    Ok(frame_end(buf)?.map(|end| {
        let raw = buf[4..end].to_vec();
        buf.drain(..end);
        raw
    }))
}

/// Verify a raw frame's trailing CRC and return the body slice.
pub fn check_frame(raw: &[u8]) -> Result<&[u8], String> {
    if raw.len() < 5 {
        return Err("frame too short for checksum".into());
    }
    let split = raw.len() - 4;
    let (body, crc_bytes) = raw.split_at(split);
    let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != want {
        return Err("frame checksum mismatch".into());
    }
    Ok(body)
}

/// Encode one request into a full frame.
pub fn encode_request(req: &Request2) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match req {
        Request2::Predict { id, model, series } => {
            w.u8(REQ_PREDICT);
            w.u64(*id);
            w.string(model);
            w.u32(series.n_dims() as u32);
            w.u32(series.len() as u32);
            for &v in series.as_flat() {
                w.f64(v);
            }
        }
        Request2::Stats { id } => {
            w.u8(REQ_STATS);
            w.u64(*id);
        }
        Request2::List { id } => {
            w.u8(REQ_LIST);
            w.u64(*id);
        }
        Request2::Ping { id } => {
            w.u8(REQ_PING);
            w.u64(*id);
        }
        Request2::Augment { id, pipeline, seed, index, series } => {
            w.u8(REQ_AUGMENT);
            w.u64(*id);
            w.string(pipeline);
            w.u64(*seed);
            w.u64(*index);
            w.u32(series.n_dims() as u32);
            w.u32(series.len() as u32);
            for &v in series.as_flat() {
                w.f64(v);
            }
        }
    }
    frame(w.into_bytes())
}

/// Read a `u32 n_dims | u32 len | f64 × (n_dims·len)` series block —
/// shared tail of predict and augment requests. Both lengths funnel
/// through [`checked_len`] and the shape is proven to fit the remaining
/// frame bytes before any allocation.
fn read_series(r: &mut ByteReader<'_>, id: u64) -> Result<Mts, (u64, String)> {
    let fail = |e: tsda_core::TsdaError| (id, format!("bad frame: {e}"));
    let n_dims = checked_len(r.u32().map_err(fail)?, MAX_SERIES_VALUES, "series dims")
        .map_err(|m| (id, m))?;
    let len = checked_len(r.u32().map_err(fail)?, MAX_SERIES_VALUES, "series length")
        .map_err(|m| (id, m))?;
    if n_dims == 0 || len == 0 {
        return Err((id, format!("empty series shape {n_dims}x{len}")));
    }
    let total = n_dims
        .checked_mul(len)
        .filter(|&t| t.checked_mul(8).is_some_and(|b| b <= r.remaining()))
        .ok_or((id, format!("series shape {n_dims}x{len} exceeds frame")))?;
    let mut data = Vec::with_capacity(total);
    for _ in 0..total {
        data.push(r.f64().map_err(fail)?);
    }
    Ok(Mts::from_flat(n_dims, len, data))
}

/// Decode one request body (CRC already checked). The error carries the
/// request id when it was readable (0 otherwise) so refusals stay
/// correlatable, mirroring `parse_request`.
pub fn decode_request(body: &[u8]) -> Result<Request2, (u64, String)> {
    let mut r = ByteReader::new(body);
    let kind = r.u8().map_err(|e| (0, format!("bad frame: {e}")))?;
    let id = r.u64().map_err(|e| (0, format!("bad frame: {e}")))?;
    let fail = |e: tsda_core::TsdaError| (id, format!("bad frame: {e}"));
    let req = match kind {
        REQ_PREDICT => {
            let model = r.string().map_err(fail)?;
            let series = read_series(&mut r, id)?;
            Request2::Predict { id, model, series }
        }
        REQ_STATS => Request2::Stats { id },
        REQ_LIST => Request2::List { id },
        REQ_PING => Request2::Ping { id },
        REQ_AUGMENT => {
            let pipeline = r.string().map_err(fail)?;
            let seed = r.u64().map_err(fail)?;
            let index = r.u64().map_err(fail)?;
            let series = read_series(&mut r, id)?;
            Request2::Augment { id, pipeline, seed, index, series }
        }
        other => return Err((id, format!("unknown request kind 0x{other:02x}"))),
    };
    r.finish().map_err(|e| (id, format!("bad frame: {e}")))?;
    Ok(req)
}

/// What a router needs from a request to place it: the op + model for
/// shard lookup and a content hash for rendezvous routing. Decoding
/// stops at the header — series payload bytes are hashed, never parsed,
/// so routing a v2 predict does no float work at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// A predict for `model`; `key` hashes the series payload bytes.
    Predict {
        /// Correlation id (for error replies the router originates).
        id: u64,
        /// Target model name.
        model: String,
        /// FNV-1a of the payload bytes after the model name.
        key: u64,
    },
    /// Stats — answered by the router itself.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// List — forwarded to any healthy replica.
    List {
        /// Correlation id.
        id: u64,
    },
    /// Ping — answered by the router itself.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// An augment for `pipeline`; every replica loads the same pipeline
    /// file, so any healthy replica can serve it — `key` keeps
    /// rendezvous placement stable for caching-friendly policies.
    Augment {
        /// Correlation id.
        id: u64,
        /// Target pipeline name.
        pipeline: String,
        /// FNV-1a of the payload bytes after the pipeline name.
        key: u64,
    },
}

/// FNV-1a over a byte slice: a deterministic, dependency-free content
/// hash for rendezvous routing (not cryptographic; it only needs to
/// spread keys evenly and stay stable across processes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Decode just the routing header of a request body (CRC already
/// checked).
pub fn decode_routing(body: &[u8]) -> Result<Routing, (u64, String)> {
    let mut r = ByteReader::new(body);
    let kind = r.u8().map_err(|e| (0, format!("bad frame: {e}")))?;
    let id = r.u64().map_err(|e| (0, format!("bad frame: {e}")))?;
    match kind {
        REQ_PREDICT => {
            let model = r.string().map_err(|e| (id, format!("bad frame: {e}")))?;
            let rest = r.bytes(r.remaining()).unwrap_or(&[]);
            Ok(Routing::Predict { id, model, key: fnv1a(rest) })
        }
        REQ_STATS => Ok(Routing::Stats { id }),
        REQ_LIST => Ok(Routing::List { id }),
        REQ_PING => Ok(Routing::Ping { id }),
        REQ_AUGMENT => {
            let pipeline = r.string().map_err(|e| (id, format!("bad frame: {e}")))?;
            let rest = r.bytes(r.remaining()).unwrap_or(&[]);
            Ok(Routing::Augment { id, pipeline, key: fnv1a(rest) })
        }
        other => Err((id, format!("unknown request kind 0x{other:02x}"))),
    }
}

/// Append one full frame to `out`: length prefix + the body written by
/// `fill` + CRC, laid out exactly as [`frame`] produces. The caller's
/// buffer is reused across replies, so a warm connection encodes
/// without allocating.
fn frame_into(out: &mut Vec<u8>, fill: impl FnOnce(&mut ByteWriter)) {
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    let start = w.len();
    w.u32(0); // length prefix, patched once the body size is known
    fill(&mut w);
    let mut bytes = w.into_bytes();
    let body_start = start + 4;
    let crc = crc32(&bytes[body_start..]);
    let len = (bytes.len() - body_start + 4) as u32;
    bytes[start..body_start].copy_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    *out = bytes;
}

/// Encode one reply frame into a reused buffer. Shed and throttled
/// refusals carry their canonical marker string as the message.
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Predict { id, label, batch, micros, .. } => {
            encode_reply_predict_into(out, *id, *label as u64, *batch as u32, *micros)
        }
        Reply::Augment { id, series, batch, micros, .. } => {
            encode_reply_augment_into(out, *id, series, *batch as u32, *micros)
        }
        Reply::Result { id, value } => encode_reply_result_into(out, *id, value),
        Reply::Error { id, message } => {
            encode_reply_error_into(out, *id, ErrCode::Error, message, 0)
        }
        Reply::Overloaded { id, retry_ms } => {
            encode_reply_error_into(out, *id, ErrCode::Overloaded, OVERLOADED, *retry_ms)
        }
        Reply::Throttled { id, retry_ms } => {
            encode_reply_error_into(out, *id, ErrCode::Throttled, THROTTLED, *retry_ms)
        }
    }
}

/// Encode a successful predict reply into a reused buffer.
pub fn encode_reply_predict_into(out: &mut Vec<u8>, id: u64, label: u64, batch: u32, micros: u64) {
    frame_into(out, |w| {
        w.u8(REPLY_PREDICT);
        w.u64(id);
        w.u64(label);
        w.u32(batch);
        w.u64(micros);
    });
}

/// Encode a successful augment reply into a reused buffer: the
/// transformed series as raw f64 bit patterns (no text hop, bit-exact
/// by construction).
pub fn encode_reply_augment_into(out: &mut Vec<u8>, id: u64, series: &Mts, batch: u32, micros: u64) {
    frame_into(out, |w| {
        w.u8(REPLY_AUGMENT);
        w.u64(id);
        w.u32(batch);
        w.u64(micros);
        w.u32(series.n_dims() as u32);
        w.u32(series.len() as u32);
        for &v in series.as_flat() {
            w.f64(v);
        }
    });
}

/// Encode an error reply into a reused buffer. `retry_ms` is meaningful
/// for [`ErrCode::Overloaded`] / [`ErrCode::Throttled`] (0 otherwise).
fn encode_reply_error_into(
    out: &mut Vec<u8>,
    id: u64,
    code: ErrCode,
    message: &str,
    retry_ms: u64,
) {
    frame_into(out, |w| {
        w.u8(REPLY_ERROR);
        w.u64(id);
        w.u8(code.to_u8());
        w.u64(retry_ms);
        w.string(message);
    });
}

/// Encode a result reply (stats / list) into a reused buffer. The
/// payload reuses the JSON value tree — these ops are observability,
/// not the hot path.
fn encode_reply_result_into(out: &mut Vec<u8>, id: u64, value: &Value) {
    frame_into(out, |w| {
        w.u8(REPLY_RESULT);
        w.u64(id);
        // Value trees always serialise; an empty object is the safe
        // fallback if that invariant ever breaks.
        w.string(&serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string()));
    });
}

/// Decode one reply body (CRC already checked) into the shared
/// [`Response`] the NDJSON client path also produces, so retry logic
/// upstream is protocol-agnostic.
pub fn decode_reply(body: &[u8]) -> Result<Response, String> {
    let mut r = ByteReader::new(body);
    let fail = |e: tsda_core::TsdaError| format!("bad reply frame: {e}");
    let kind = r.u8().map_err(fail)?;
    let id = r.u64().map_err(fail)?;
    let resp = match kind {
        REPLY_PREDICT => {
            let label = r.u64().map_err(fail)?;
            let batch = r.u32().map_err(fail)?;
            let micros = r.u64().map_err(fail)?;
            // Wire-derived counters: convert losslessly — a label that
            // overflows usize is a corrupt reply, not label 0.
            let label = usize::try_from(label).map_err(|_| "reply label overflows usize")?;
            let batch = usize::try_from(batch).map_err(|_| "reply batch overflows usize")?;
            Response {
                id,
                ok: true,
                label: Some(label),
                batch: Some(batch),
                micros: Some(micros),
                error: None,
                retry_ms: None,
                result: None,
                series: None,
            }
        }
        REPLY_AUGMENT => {
            let batch = r.u32().map_err(fail)?;
            let micros = r.u64().map_err(fail)?;
            let series = read_series(&mut r, id).map_err(|(_, m)| m)?;
            let batch = usize::try_from(batch).map_err(|_| "reply batch overflows usize")?;
            Response {
                id,
                ok: true,
                label: None,
                batch: Some(batch),
                micros: Some(micros),
                error: None,
                retry_ms: None,
                result: None,
                series: Some(series),
            }
        }
        REPLY_ERROR => {
            let code = ErrCode::from_u8(r.u8().map_err(fail)?)?;
            let retry_ms = r.u64().map_err(fail)?;
            let message = r.string().map_err(fail)?;
            // Shed / throttled refusals use the canonical marker strings
            // so `Response::is_overloaded` / `is_throttled` work
            // identically across protocols.
            let error = match code {
                ErrCode::Error => message,
                ErrCode::Overloaded => OVERLOADED.to_string(),
                ErrCode::Throttled => THROTTLED.to_string(),
            };
            Response {
                id,
                ok: false,
                label: None,
                batch: None,
                micros: None,
                error: Some(error),
                retry_ms: (code != ErrCode::Error).then_some(retry_ms),
                result: None,
                series: None,
            }
        }
        REPLY_RESULT => {
            let text = r.string().map_err(fail)?;
            let value = serde_json::parse_value(&text)
                .map_err(|e| format!("bad reply payload json: {e}"))?;
            Response {
                id,
                ok: true,
                label: None,
                batch: None,
                micros: None,
                error: None,
                retry_ms: None,
                result: Some(value),
                series: None,
            }
        }
        other => return Err(format!("unknown reply kind 0x{other:02x}")),
    };
    r.finish().map_err(fail)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Mts {
        Mts::from_flat(2, 3, vec![1.0, -2.5, f64::MIN_POSITIVE, 0.0, 1e300, -0.0])
    }

    #[test]
    fn predict_request_round_trips_bit_exactly() {
        let req = Request2::Predict { id: 42, model: "rocket".into(), series: series() };
        let framed = encode_request(&req);
        let mut buf = framed.clone();
        let raw = take_frame(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty());
        let body = check_frame(&raw).unwrap();
        let back = decode_request(body).unwrap();
        assert_eq!(back, req);
        if let Request2::Predict { series: s, .. } = back {
            for (a, b) in s.as_flat().iter().zip(series().as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [Request2::Stats { id: 1 }, Request2::List { id: 2 }, Request2::Ping { id: 3 }] {
            let mut buf = encode_request(&req);
            let raw = take_frame(&mut buf).unwrap().unwrap();
            assert_eq!(decode_request(check_frame(&raw).unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip_with_canonical_shed_markers() {
        let mut buf = encoded(|o| encode_reply_predict_into(o, 7, 3, 16, 812));
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let r = decode_reply(check_frame(&raw).unwrap()).unwrap();
        assert!(r.ok);
        assert_eq!((r.id, r.label, r.batch, r.micros), (7, Some(3), Some(16), Some(812)));

        let mut buf =
            encoded(|o| encode_reply_error_into(o, 9, ErrCode::Overloaded, "queue full", 25));
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let r = decode_reply(check_frame(&raw).unwrap()).unwrap();
        assert!(r.is_overloaded());
        assert_eq!(r.retry_ms, Some(25));

        let mut buf = encoded(|o| encode_reply_error_into(o, 9, ErrCode::Throttled, "quota", 40));
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let r = decode_reply(check_frame(&raw).unwrap()).unwrap();
        assert!(r.is_throttled() && !r.is_overloaded());
        assert_eq!(r.retry_ms, Some(40));

        let mut buf = encoded(|o| encode_reply_error_into(o, 9, ErrCode::Error, "bad series", 0));
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let r = decode_reply(check_frame(&raw).unwrap()).unwrap();
        assert!(!r.ok && r.retry_ms.is_none());
        assert_eq!(r.error.as_deref(), Some("bad series"));
    }

    #[test]
    fn partial_frames_wait_and_bad_lengths_reject() {
        let full = encode_request(&Request2::Ping { id: 1 });
        for cut in 0..full.len() {
            let mut buf = full[..cut].to_vec();
            assert_eq!(take_frame(&mut buf).unwrap(), None, "cut at {cut}");
            assert_eq!(buf.len(), cut, "partial frame must not be consumed");
        }
        // Oversized length prefix.
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(take_frame(&mut buf).is_err());
        // Undersized length prefix.
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(take_frame(&mut buf).is_err());
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let full = encode_request(&Request2::Predict {
            id: 5,
            model: "m".into(),
            series: series(),
        });
        for pos in 4..full.len() {
            let mut copy = full.clone();
            copy[pos] ^= 0x40;
            let mut buf = copy;
            let raw = take_frame(&mut buf).unwrap().expect("boundary intact");
            assert!(check_frame(&raw).is_err(), "corruption at {pos} not caught");
        }
    }

    #[test]
    fn routing_header_matches_full_decode_and_hash_is_content_sensitive() {
        let req = Request2::Predict { id: 11, model: "rocket".into(), series: series() };
        let mut buf = encode_request(&req);
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let body = check_frame(&raw).unwrap();
        let Ok(Routing::Predict { id, model, key }) = decode_routing(body) else {
            panic!("routing decode failed");
        };
        assert_eq!((id, model.as_str()), (11, "rocket"));

        let mut other = series();
        other.set(0, 0, 2.0);
        let req2 = Request2::Predict { id: 11, model: "rocket".into(), series: other };
        let mut buf = encode_request(&req2);
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let Ok(Routing::Predict { key: key2, .. }) = decode_routing(check_frame(&raw).unwrap())
        else {
            panic!("routing decode failed");
        };
        assert_ne!(key, key2, "content hash must depend on series values");
    }

    #[test]
    fn augment_request_and_reply_round_trip_bit_exactly() {
        let req = Request2::Augment {
            id: 21,
            pipeline: "light".into(),
            seed: 7,
            index: 3,
            series: series(),
        };
        let mut buf = encode_request(&req);
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let body = check_frame(&raw).unwrap();
        assert_eq!(decode_request(body).unwrap(), req);

        let Ok(Routing::Augment { id, pipeline, key }) = decode_routing(body) else {
            panic!("routing decode failed");
        };
        assert_eq!((id, pipeline.as_str()), (21, "light"));
        // The routing key covers seed/index/series, so two requests
        // differing only in index land on different rendezvous keys.
        let req2 = Request2::Augment {
            id: 21,
            pipeline: "light".into(),
            seed: 7,
            index: 4,
            series: series(),
        };
        let mut buf = encode_request(&req2);
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let Ok(Routing::Augment { key: key2, .. }) = decode_routing(check_frame(&raw).unwrap())
        else {
            panic!("routing decode failed");
        };
        assert_ne!(key, key2);

        let mut buf = encoded(|o| encode_reply_augment_into(o, 21, &series(), 4, 55));
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let r = decode_reply(check_frame(&raw).unwrap()).unwrap();
        assert!(r.ok);
        assert_eq!((r.id, r.batch, r.micros), (21, Some(4), Some(55)));
        let got = r.series.expect("augment reply carries a series");
        for (a, b) in got.as_flat().iter().zip(series().as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupted_augment_frames_never_pass_the_checksum() {
        let full = encode_request(&Request2::Augment {
            id: 5,
            pipeline: "p".into(),
            seed: 1,
            index: 2,
            series: series(),
        });
        for pos in 4..full.len() {
            let mut copy = full.clone();
            copy[pos] ^= 0x40;
            let mut buf = copy;
            let raw = take_frame(&mut buf).unwrap().expect("boundary intact");
            assert!(check_frame(&raw).is_err(), "corruption at {pos} not caught");
        }
    }

    #[test]
    fn reframe_reconstructs_the_original_frame() {
        let full = encode_request(&Request2::Stats { id: 3 });
        let mut buf = full.clone();
        let raw = take_frame(&mut buf).unwrap().unwrap();
        assert_eq!(reframe(&raw), full);
    }

    #[test]
    fn trailing_bytes_after_a_request_are_rejected() {
        let mut w = ByteWriter::new();
        w.u8(REQ_PING);
        w.u64(1);
        w.u8(0xEE); // smuggled trailing byte
        let mut buf = frame(w.into_bytes());
        let raw = take_frame(&mut buf).unwrap().unwrap();
        let err = decode_request(check_frame(&raw).unwrap()).unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1.contains("unread"), "{}", err.1);
    }

    /// Encode through a fresh buffer (the fixtures pin each frame alone).
    fn encoded(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    /// The wire contract for replies: one byte-literal fixture per reply
    /// kind and per error code. Layout: `u32 len | kind | u64 id | … |
    /// u32 crc`, all little-endian.
    #[test]
    fn reply_frames_match_the_byte_fixtures() {
        let small = Mts::from_flat(1, 2, vec![1.0, -0.5]);
        let fixtures: [(Vec<u8>, &[u8]); 6] = [
            (encoded(|o| encode_reply_predict_into(o, 7, 3, 16, 812)), &[
                0x21, 0, 0, 0, 0x81, 7, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                3, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0x2c, 3, 0, 0, 0, 0, 0, 0, // label, batch, micros
                0x4d, 0x5f, 0xb8, 0xbd, // crc
            ]),
            (encoded(|o| encode_reply_augment_into(o, 21, &small, 4, 55)), &[
                0x31, 0, 0, 0, 0x84, 21, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                4, 0, 0, 0, 55, 0, 0, 0, 0, 0, 0, 0, // batch, micros
                1, 0, 0, 0, 2, 0, 0, 0, // n_dims, len
                0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf, // 1.0, -0.5
                0x96, 0x41, 0x66, 0x75, // crc
            ]),
            (encoded(|o| encode_reply_error_into(o, 9, ErrCode::Error, "bad series", 0)), &[
                0x24, 0, 0, 0, 0x82, 9, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                0, 0, 0, 0, 0, 0, 0, 0, 0, // code, retry_ms
                10, 0, 0, 0, b'b', b'a', b'd', b' ', b's', b'e', b'r', b'i', b'e', b's',
                0xcb, 0x2d, 0x2f, 0xee, // crc
            ]),
            (
                encoded(|o| encode_reply_error_into(o, 9, ErrCode::Overloaded, "overloaded", 25)),
                &[
                    0x24, 0, 0, 0, 0x82, 9, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                    1, 25, 0, 0, 0, 0, 0, 0, 0, // code, retry_ms
                    10, 0, 0, 0, b'o', b'v', b'e', b'r', b'l', b'o', b'a', b'd', b'e', b'd',
                    0x9c, 0xd5, 0xe8, 0x46, // crc
                ],
            ),
            (
                encoded(|o| encode_reply_error_into(o, 9, ErrCode::Throttled, "throttled", 40)),
                &[
                    0x23, 0, 0, 0, 0x82, 9, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                    2, 40, 0, 0, 0, 0, 0, 0, 0, // code, retry_ms
                    9, 0, 0, 0, b't', b'h', b'r', b'o', b't', b't', b'l', b'e', b'd',
                    0x20, 0x32, 0x9c, 0xa2, // crc
                ],
            ),
            (encoded(|o| encode_reply_result_into(o, 3, &Value::Str("pong".into()))), &[
                0x17, 0, 0, 0, 0x83, 3, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                6, 0, 0, 0, b'"', b'p', b'o', b'n', b'g', b'"', // JSON payload
                0xba, 0xc3, 0xb1, 0x69, // crc
            ]),
        ];
        for (i, (got, want)) in fixtures.iter().enumerate() {
            assert_eq!(got.as_slice(), *want, "reply fixture {i}");
        }
    }

    /// `encode_reply_into` renders every reply through the encoder the
    /// byte fixtures pin; shed refusals carry the canonical markers.
    #[test]
    fn encode_reply_into_uses_the_pinned_encoder_for_every_reply() {
        let small = Mts::from_flat(1, 2, vec![1.0, -0.5]);
        let pong = Value::Str("pong".into());
        let cases = [
            (
                Reply::Predict { id: 7, model: "rocket".into(), label: 3, batch: 16, micros: 812 },
                encoded(|o| encode_reply_predict_into(o, 7, 3, 16, 812)),
            ),
            (
                Reply::Augment {
                    id: 21,
                    pipeline: "light".into(),
                    series: small.clone(),
                    batch: 4,
                    micros: 55,
                },
                encoded(|o| encode_reply_augment_into(o, 21, &small, 4, 55)),
            ),
            (
                Reply::Result { id: 3, value: pong.clone() },
                encoded(|o| encode_reply_result_into(o, 3, &pong)),
            ),
            (
                Reply::Error { id: 9, message: "bad series".into() },
                encoded(|o| encode_reply_error_into(o, 9, ErrCode::Error, "bad series", 0)),
            ),
            (
                Reply::Overloaded { id: 9, retry_ms: 25 },
                encoded(|o| encode_reply_error_into(o, 9, ErrCode::Overloaded, "overloaded", 25)),
            ),
            (
                Reply::Throttled { id: 9, retry_ms: 40 },
                encoded(|o| encode_reply_error_into(o, 9, ErrCode::Throttled, "throttled", 40)),
            ),
        ];
        for (reply, want) in cases {
            assert_eq!(encoded(|o| encode_reply_into(o, &reply)), want, "{reply:?}");
        }
    }

    /// The wire contract for requests: one fixture per kind. The model
    /// name carries JSON metacharacters, which v2 must ship as raw bytes.
    #[test]
    fn request_frames_match_the_byte_fixtures() {
        let small = Mts::from_flat(1, 2, vec![1.0, -0.5]);
        let fixtures: [(Request2, &[u8]); 5] = [
            (Request2::Predict { id: 42, model: "r\"k\\".into(), series: small.clone() }, &[
                0x2d, 0, 0, 0, 0x01, 42, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                4, 0, 0, 0, b'r', b'"', b'k', b'\\', // model
                1, 0, 0, 0, 2, 0, 0, 0, // n_dims, len
                0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf, // 1.0, -0.5
                0x43, 0xb8, 0x53, 0x6f, // crc
            ]),
            (Request2::Stats { id: 1 }, &[
                0x0d, 0, 0, 0, 0x02, 1, 0, 0, 0, 0, 0, 0, 0, 0xb6, 0x3c, 0x55, 0x04,
            ]),
            (Request2::List { id: 2 }, &[
                0x0d, 0, 0, 0, 0x03, 2, 0, 0, 0, 0, 0, 0, 0, 0x16, 0x2f, 0xa1, 0x9d,
            ]),
            (Request2::Ping { id: 3 }, &[
                0x0d, 0, 0, 0, 0x04, 3, 0, 0, 0, 0, 0, 0, 0, 0x41, 0x42, 0x6a, 0x35,
            ]),
            (
                Request2::Augment {
                    id: 21,
                    pipeline: "light".into(),
                    seed: 7,
                    index: 3,
                    series: small,
                },
                &[
                    0x3e, 0, 0, 0, 0x05, 21, 0, 0, 0, 0, 0, 0, 0, // len, kind, id
                    5, 0, 0, 0, b'l', b'i', b'g', b'h', b't', // pipeline
                    7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // seed, index
                    1, 0, 0, 0, 2, 0, 0, 0, // n_dims, len
                    0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf, // 1.0, -0.5
                    0xc3, 0xd8, 0x4a, 0x7e, // crc
                ],
            ),
        ];
        for (req, want) in &fixtures {
            assert_eq!(encode_request(req).as_slice(), *want, "request fixture {req:?}");
        }
    }

    #[test]
    fn frame_into_matches_the_owned_frame_layout_and_survives_reuse() {
        let mut w = ByteWriter::new();
        w.u8(REPLY_PREDICT);
        w.u64(7);
        w.u64(3);
        w.u32(2);
        w.u64(88);
        let owned = frame(w.into_bytes());
        let mut reused = Vec::new();
        encode_reply_predict_into(&mut reused, 7, 3, 2, 88);
        assert_eq!(reused, owned, "in-place encoder must mirror frame() byte-for-byte");
        // Clearing and re-encoding into the same (now warm) buffer
        // must produce the identical frame — length prefix and CRC are
        // computed relative to the append position, not the buffer.
        reused.clear();
        encode_reply_error_into(&mut reused, 9, ErrCode::Overloaded, "overloaded", 20);
        let raw = check_frame(&take_frame(&mut reused.clone()).unwrap().unwrap()).is_ok();
        assert!(raw, "reused buffer still frames and checksums cleanly");
        reused.clear();
        encode_reply_predict_into(&mut reused, 7, 3, 2, 88);
        assert_eq!(reused, owned);
    }
}
