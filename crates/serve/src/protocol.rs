//! The wire protocol: newline-delimited JSON request/response frames.
//!
//! One request per line, one response line per request, answered in
//! order per connection (clients may pipeline). Requests:
//!
//! ```text
//! {"id":1,"op":"predict","model":"rocket","series":"1.0,2.0:0.5,0.5"}
//! {"id":2,"op":"stats"}
//! {"id":3,"op":"list"}
//! {"id":4,"op":"ping"}
//! {"id":5,"op":"augment","pipeline":"light","seed":7,"index":3,"series":"1.0,2.0"}
//! ```
//!
//! `series` is the `.ts` data-line layout (dimensions split by `:`,
//! values by `,`, `?` for missing) parsed by
//! [`tsda_datasets::ts_format::parse_series_line`]. Responses always
//! carry the request `id` and an `ok` flag:
//!
//! ```text
//! {"id":1,"ok":true,"model":"rocket","label":2,"batch":7,"micros":412}
//! {"id":1,"ok":false,"error":"unknown model \"nope\""}
//! ```
//!
//! Parsing is hand-rolled over the vendored JSON value tree so missing
//! or mistyped fields produce error *responses*, never panics.

use crate::dispatch::Reply;
use serde::Value;
use tsda_core::{Mts, TsdaError};
use tsda_datasets::ts_format::parse_series_line;

/// A parsed client request; the series is still `.ts` text (decoded by
/// [`decode_series`] in the dispatch).
pub type Request = crate::dispatch::Request<String>;

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_f64).map(|n| n as u64)
}

fn field_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Parse one request line. The error string is ready to ship back in an
/// error response (the id is recovered when possible so the client can
/// correlate it; id 0 otherwise).
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = serde_json::parse_value(line).map_err(|e| (0, format!("bad json: {e}")))?;
    let id = field_u64(&v, "id").unwrap_or(0);
    let op = field_str(&v, "op").ok_or((id, "missing \"op\" field".to_string()))?;
    match op.as_str() {
        "predict" => {
            let model =
                field_str(&v, "model").ok_or((id, "predict needs a \"model\" field".to_string()))?;
            let series =
                field_str(&v, "series").ok_or((id, "predict needs a \"series\" field".to_string()))?;
            Ok(Request::Predict { id, model, series })
        }
        "stats" => Ok(Request::Stats { id }),
        "list" => Ok(Request::List { id }),
        "ping" => Ok(Request::Ping { id }),
        "augment" => {
            let pipeline = field_str(&v, "pipeline")
                .ok_or((id, "augment needs a \"pipeline\" field".to_string()))?;
            let series = field_str(&v, "series")
                .ok_or((id, "augment needs a \"series\" field".to_string()))?;
            let seed =
                field_u64(&v, "seed").ok_or((id, "augment needs a \"seed\" field".to_string()))?;
            let index =
                field_u64(&v, "index").ok_or((id, "augment needs an \"index\" field".to_string()))?;
            Ok(Request::Augment { id, pipeline, seed, index, series })
        }
        other => Err((id, format!("unknown op {other:?}"))),
    }
}

/// Decode a predict payload into a series.
///
/// Hot path (`tsda_analyze` R3): runs once per predict request; the
/// decoded series buffer is the one allowlisted allocation.
#[doc(alias = "tsda::hot")]
pub fn decode_series(series: &str) -> Result<Mts, TsdaError> {
    parse_series_line(series)
}

/// Append `s` as a JSON string literal. The escape set matches the
/// vendored serialiser byte-for-byte (`"`, `\`, `\n`, `\r`, `\t`,
/// `\uXXXX` for remaining control characters), so the `_into` builders
/// below produce exactly the bytes `serde_json::to_string` would.
fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// The response builders append to a caller-owned buffer — the
// connection loop reuses one String per connection, so a warm
// connection answers without allocating for the envelope. The JSON is
// written directly (same key order, same escaping, integer-printed
// counters) and is byte-identical to what the old Value-tree path
// produced; the byte fixtures in the tests pin every reply kind.

/// Append the NDJSON line (no trailing newline) for one reply.
pub fn encode_reply_into(out: &mut String, reply: &Reply) {
    match reply {
        Reply::Predict { id, model, label, batch, micros } => {
            predict_response_into(out, *id, model, *label, *batch, *micros)
        }
        Reply::Augment { id, pipeline, series, batch, micros } => {
            augment_response_into(out, *id, pipeline, series, *batch, *micros)
        }
        Reply::Result { id, value } => result_response_into(out, *id, value),
        Reply::Error { id, message } => error_response_into(out, *id, message),
        Reply::Overloaded { id, retry_ms } => overloaded_response_into(out, *id, *retry_ms),
        Reply::Throttled { id, retry_ms } => throttled_response_into(out, *id, *retry_ms),
    }
}

/// Successful predict response, appended to `out`.
pub fn predict_response_into(
    out: &mut String,
    id: u64,
    model: &str,
    label: usize,
    batch: usize,
    micros: u64,
) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"model\":");
    push_json_str(out, model);
    let _ = write!(out, ",\"label\":{label},\"batch\":{batch},\"micros\":{micros}}}");
}

/// Successful augment response, appended to `out`. The series is `.ts`
/// data-line encoded; Rust's `{}` float formatting prints the shortest
/// round-trip representation, so finite values survive the text hop
/// bit-exactly. The `.ts` alphabet (digits, `-`, `.`, `inf`, `?`, `,`,
/// `:`) needs no JSON escaping, so the series is written straight
/// between the quotes: a warm buffer takes the reply without
/// allocating.
pub fn augment_response_into(
    out: &mut String,
    id: u64,
    pipeline: &str,
    series: &Mts,
    batch: usize,
    micros: u64,
) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"pipeline\":");
    push_json_str(out, pipeline);
    out.push_str(",\"series\":\"");
    tsda_datasets::ts_format::format_series_into(series, out);
    let _ = write!(out, "\",\"batch\":{batch},\"micros\":{micros}}}");
}

/// Error response for any request, appended to `out`.
fn error_response_into(out: &mut String, id: u64, message: &str) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":false,\"error\":");
    push_json_str(out, message);
    out.push('}');
}

/// The marker error string in load-shedding replies.
pub const OVERLOADED: &str = "overloaded";

/// Load-shedding reply: the queue is full (or the fault plan sheds);
/// the client should back off roughly `retry_ms` and retry.
fn overloaded_response_into(out: &mut String, id: u64, retry_ms: u64) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":false,\"error\":\"{OVERLOADED}\",\"retry_ms\":{retry_ms}}}"
    );
}

/// The marker error string in admission-control refusals.
pub const THROTTLED: &str = "throttled";

/// Admission-control refusal: the client's token bucket is empty; one
/// token refills in roughly `retry_ms`.
fn throttled_response_into(out: &mut String, id: u64, retry_ms: u64) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":false,\"error\":\"{THROTTLED}\",\"retry_ms\":{retry_ms}}}"
    );
}

/// Generic success response wrapping a payload under `"result"`.
fn result_response_into(out: &mut String, id: u64, result: &Value) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"result\":");
    serde_json::append_to_string(result, out);
    out.push('}');
}

/// A parsed server response, as seen by clients.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed correlation id.
    pub id: u64,
    /// Success flag.
    pub ok: bool,
    /// Predicted label (predict responses only).
    pub label: Option<usize>,
    /// Batch size the prediction rode in (predict responses only).
    pub batch: Option<usize>,
    /// Server-side latency in microseconds (predict responses only).
    pub micros: Option<u64>,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Backoff hint carried by `overloaded` replies, milliseconds.
    pub retry_ms: Option<u64>,
    /// Result payload for stats/list responses.
    pub result: Option<Value>,
    /// Augmented series (augment responses only).
    pub series: Option<Mts>,
}

impl Response {
    /// True for a load-shedding reply (`{"ok":false,"error":"overloaded",…}`).
    pub fn is_overloaded(&self) -> bool {
        !self.ok && self.error.as_deref() == Some(OVERLOADED)
    }

    /// True for an admission-control refusal
    /// (`{"ok":false,"error":"throttled",…}`).
    pub fn is_throttled(&self) -> bool {
        !self.ok && self.error.as_deref() == Some(THROTTLED)
    }

    /// True for any backpressure refusal — batcher shed, fault-plan
    /// shed, or admission throttle, from a replica or the router. All
    /// carry `retry_ms` hints that floor the client's next backoff.
    pub fn is_shed(&self) -> bool {
        self.is_overloaded() || self.is_throttled()
    }
}

/// Parse one response line (client side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("bad json: {e}"))?;
    let ok = match v.get("ok") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing \"ok\" field".into()),
    };
    let series = match field_str(&v, "series") {
        Some(text) => Some(parse_series_line(&text).map_err(|e| format!("bad series: {e}"))?),
        None => None,
    };
    Ok(Response {
        id: field_u64(&v, "id").unwrap_or(0),
        ok,
        label: field_u64(&v, "label").map(|n| n as usize),
        batch: field_u64(&v, "batch").map(|n| n as usize),
        micros: field_u64(&v, "micros"),
        error: field_str(&v, "error"),
        retry_ms: field_u64(&v, "retry_ms"),
        result: v.get("result").cloned(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one `_into` encoder appends to an empty line.
    fn encoded(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn predict_request_round_trip() {
        let r = parse_request(r#"{"id":7,"op":"predict","model":"rocket","series":"1,2:3,4"}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Predict { id: 7, model: "rocket".into(), series: "1,2:3,4".into() }
        );
        let s = decode_series("1,2:3,4").unwrap();
        assert_eq!(s.n_dims(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn malformed_requests_return_errors_with_ids() {
        assert!(parse_request("not json").is_err());
        let (id, msg) = parse_request(r#"{"id":9,"op":"predict"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("model"));
        let (id, _) = parse_request(r#"{"id":3,"op":"warp"}"#).unwrap_err();
        assert_eq!(id, 3);
    }

    #[test]
    fn responses_parse_back() {
        let line = encoded(|o| predict_response_into(o, 5, "rocket", 2, 8, 1234));
        let r = parse_response(&line).unwrap();
        assert!(r.ok);
        assert_eq!((r.id, r.label, r.batch, r.micros), (5, Some(2), Some(8), Some(1234)));
        let e = parse_response(&encoded(|o| error_response_into(o, 6, "nope"))).unwrap();
        assert!(!e.ok);
        assert_eq!(e.error.as_deref(), Some("nope"));
    }

    #[test]
    fn overloaded_response_round_trips_the_retry_hint() {
        let line = encoded(|o| overloaded_response_into(o, 12, 25));
        let r = parse_response(&line).unwrap();
        assert!(!r.ok);
        assert!(r.is_overloaded());
        assert_eq!((r.id, r.retry_ms), (12, Some(25)));
        // Non-overloaded errors do not claim to be shedding.
        let e = parse_response(&encoded(|o| error_response_into(o, 3, "bad series"))).unwrap();
        assert!(!e.is_overloaded());
        assert_eq!(e.retry_ms, None);
    }

    #[test]
    fn throttled_response_round_trips_and_is_shed() {
        let r = parse_response(&encoded(|o| throttled_response_into(o, 4, 120))).unwrap();
        assert!(r.is_throttled() && r.is_shed() && !r.is_overloaded());
        assert_eq!((r.id, r.retry_ms), (4, Some(120)));
        let o = parse_response(&encoded(|o| overloaded_response_into(o, 5, 20))).unwrap();
        assert!(o.is_shed() && !o.is_throttled());
        let e = parse_response(&encoded(|o| error_response_into(o, 6, "nope"))).unwrap();
        assert!(!e.is_shed());
    }

    #[test]
    fn augment_request_and_response_round_trip() {
        let r = parse_request(
            r#"{"id":8,"op":"augment","pipeline":"light","seed":7,"index":3,"series":"1,2,3"}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Augment {
                id: 8,
                pipeline: "light".into(),
                seed: 7,
                index: 3,
                series: "1,2,3".into()
            }
        );
        let s = Mts::from_dims(vec![vec![0.25, -1.5, 3.0e-7], vec![0.1 + 0.2, 1.0, -0.0]]);
        let line = encoded(|o| augment_response_into(o, 8, "light", &s, 4, 99));
        let resp = parse_response(&line).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.series.as_ref(), Some(&s), "text hop must be bit-exact");
        assert_eq!((resp.batch, resp.micros), (Some(4), Some(99)));
        let (id, msg) =
            parse_request(r#"{"id":9,"op":"augment","pipeline":"p","series":"1"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn series_decode_rejects_garbage() {
        assert!(decode_series("1,zzz").is_err());
        assert!(decode_series("").is_err());
    }

    /// The wire contract: one byte-literal fixture per reply kind. Any
    /// change to an encoder that moves a byte fails here.
    #[test]
    fn reply_lines_match_the_byte_fixtures() {
        let encode = |f: &dyn Fn(&mut String)| {
            let mut out = String::new();
            f(&mut out);
            out
        };
        let series = Mts::from_dims(vec![vec![0.25, -1.5], vec![3.0e-7, 1.0]]);
        let payload = Value::Object(vec![
            ("names".into(), Value::Array(vec![Value::Str("a\tb".into()), Value::Null])),
            ("n".into(), Value::Num(3.5)),
        ]);
        let fixtures: [(String, &str); 6] = [
            (
                encode(&|o| predict_response_into(o, 5, "ro\"ck\\et\n\u{1}", 2, 8, 1234)),
                r#"{"id":5,"ok":true,"model":"ro\"ck\\et\n\u0001","label":2,"batch":8,"micros":1234}"#,
            ),
            (
                encode(&|o| augment_response_into(o, 8, "light", &series, 4, 99)),
                r#"{"id":8,"ok":true,"pipeline":"light","series":"0.25,-1.5:0.0000003,1","batch":4,"micros":99}"#,
            ),
            (
                encode(&|o| error_response_into(o, 6, "unknown model \"x\"\t")),
                r#"{"id":6,"ok":false,"error":"unknown model \"x\"\t"}"#,
            ),
            (
                encode(&|o| overloaded_response_into(o, 12, 25)),
                r#"{"id":12,"ok":false,"error":"overloaded","retry_ms":25}"#,
            ),
            (
                encode(&|o| throttled_response_into(o, 4, 120)),
                r#"{"id":4,"ok":false,"error":"throttled","retry_ms":120}"#,
            ),
            (
                encode(&|o| result_response_into(o, 9, &payload)),
                r#"{"id":9,"ok":true,"result":{"names":["a\tb",null],"n":3.5}}"#,
            ),
        ];
        for (got, want) in fixtures {
            assert_eq!(got, want);
        }
    }

    /// `encode_reply_into` renders every reply through the builder the
    /// byte fixtures above pin.
    #[test]
    fn encode_reply_into_uses_the_pinned_builder_for_every_reply() {
        let s = Mts::from_dims(vec![vec![0.25, -1.5], vec![3.0e-7, 1.0]]);
        let pong = Value::Str("pong".into());
        let cases = [
            (
                Reply::Predict { id: 5, model: "rocket".into(), label: 2, batch: 8, micros: 1234 },
                encoded(|o| predict_response_into(o, 5, "rocket", 2, 8, 1234)),
            ),
            (
                Reply::Augment {
                    id: 8,
                    pipeline: "light".into(),
                    series: s.clone(),
                    batch: 4,
                    micros: 99,
                },
                encoded(|o| augment_response_into(o, 8, "light", &s, 4, 99)),
            ),
            (
                Reply::Result { id: 9, value: pong.clone() },
                encoded(|o| result_response_into(o, 9, &pong)),
            ),
            (
                Reply::Error { id: 6, message: "nope".into() },
                encoded(|o| error_response_into(o, 6, "nope")),
            ),
            (
                Reply::Overloaded { id: 12, retry_ms: 25 },
                encoded(|o| overloaded_response_into(o, 12, 25)),
            ),
            (
                Reply::Throttled { id: 4, retry_ms: 120 },
                encoded(|o| throttled_response_into(o, 4, 120)),
            ),
        ];
        for (reply, want) in cases {
            assert_eq!(encoded(|o| encode_reply_into(o, &reply)), want, "{reply:?}");
        }
    }

    #[test]
    fn into_builders_match_the_value_tree_serialiser_byte_for_byte() {
        // The hand-written builders replaced a Value-tree path; pin
        // them against it (including escaping and integer printing) so
        // wire output provably never changed.
        let tricky = "ro\"ck\\et\n\u{1}";
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(5.0)),
            ("ok".into(), Value::Bool(true)),
            ("model".into(), Value::Str(tricky.into())),
            ("label".into(), Value::Num(2.0)),
            ("batch".into(), Value::Num(8.0)),
            ("micros".into(), Value::Num(1234.0)),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| predict_response_into(o, 5, tricky, 2, 8, 1234)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(0.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(tricky.into())),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| error_response_into(o, 0, tricky)), want);

        let payload = Value::Object(vec![
            ("names".into(), Value::Array(vec![Value::Str("a\tb".into()), Value::Null])),
            ("n".into(), Value::Num(3.5)),
        ]);
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(9.0)),
            ("ok".into(), Value::Bool(true)),
            ("result".into(), payload.clone()),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| result_response_into(o, 9, &payload)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(12.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(OVERLOADED.into())),
            ("retry_ms".into(), Value::Num(25.0)),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| overloaded_response_into(o, 12, 25)), want);

        let s = Mts::from_dims(vec![vec![0.25, -1.5], vec![3.0e-7, 1.0]]);
        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(8.0)),
            ("ok".into(), Value::Bool(true)),
            ("pipeline".into(), Value::Str("light".into())),
            (
                "series".into(),
                Value::Str(tsda_datasets::ts_format::format_series_line(&s)),
            ),
            ("batch".into(), Value::Num(4.0)),
            ("micros".into(), Value::Num(99.0)),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| augment_response_into(o, 8, "light", &s, 4, 99)), want);

        let want = serde_json::to_string(&Value::Object(vec![
            ("id".into(), Value::Num(4.0)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Str(THROTTLED.into())),
            ("retry_ms".into(), Value::Num(120.0)),
        ]))
        .unwrap();
        assert_eq!(encoded(|o| throttled_response_into(o, 4, 120)), want);
    }
}
