//! Client-side plumbing: connections, request builders, the readiness
//! probe, and a retrying client that survives fault injection.
//!
//! [`Conn`] is a raw one-request-in-flight connection with no recovery.
//! [`RetryingClient`] wraps it with the recovery policy the chaos
//! suites (and any real client) need:
//!
//! * **Per-request timeouts** — a read that exceeds
//!   [`RetryPolicy::timeout`] abandons the connection rather than
//!   hanging forever on a stalled or half-dead server.
//! * **Reconnect-and-replay** — any transport failure (mid-line drop,
//!   timeout, refused connect) discards the connection, because a
//!   half-read response would desync every later request on it, and
//!   replays the request on a fresh one. Predict requests are
//!   idempotent (same series + same model ⇒ same label, and the server
//!   keeps no per-request state), so replay is always safe.
//! * **Capped exponential backoff with seeded jitter** — refusals and
//!   transport errors back off `base·2ᵏ` capped at `max_backoff`, with
//!   a jitter drawn from a seeded [`StdRng`] so concurrent clients
//!   desynchronise without the schedule depending on ambient entropy.
//!   An `overloaded` reply's `retry_ms` hint raises the floor of the
//!   next backoff: explicit server backpressure wins over the local
//!   guess.
//!
//! Every refusal (`ok:false`) is treated as retryable up to the
//! attempt budget: under byte-level request corruption *any* field may
//! have been mangled in flight (a corrupted model name comes back
//! `unknown model`), so the only wrong move is giving up on the first
//! refusal. Genuine caller bugs still surface — the final refusal is
//! returned to the caller once the budget is spent.

use crate::proto2;
use crate::protocol::{parse_response, Response};
use rand::rngs::StdRng;
use rand::Rng;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tsda_core::rng::derive_seed;
use tsda_core::Mts;

/// Which wire protocol a connection speaks. NDJSON is the default;
/// [`Proto::V2`] sends the binary preamble on connect and frames every
/// request/reply (see [`crate::proto2`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Newline-delimited JSON (protocol v1).
    #[default]
    Ndjson,
    /// Length-prefixed binary frames (protocol v2).
    V2,
}

impl Proto {
    /// Parse a `--proto` flag value.
    pub fn from_flag(s: &str) -> Result<Self, String> {
        match s {
            "ndjson" | "v1" => Ok(Self::Ndjson),
            "v2" | "binary" => Ok(Self::V2),
            other => Err(format!("unknown protocol {other:?} (expected ndjson|v2)")),
        }
    }
}

/// Build a request line from an op and extra fields.
pub fn request_line(id: u64, op: &str, extra: Vec<(String, Value)>) -> String {
    let mut pairs = vec![
        ("id".to_string(), Value::Num(id as f64)),
        ("op".to_string(), Value::Str(op.to_string())),
    ];
    pairs.extend(extra);
    // Value trees always serialise; the fallback ping keeps this
    // infallible without a panic site.
    serde_json::to_string(&Value::Object(pairs))
        .unwrap_or_else(|_| r#"{"id":0,"op":"ping"}"#.to_string())
}

/// Build a predict request line.
pub fn predict_line(id: u64, model: &str, series: &str) -> String {
    request_line(
        id,
        "predict",
        vec![
            ("model".into(), Value::Str(model.to_string())),
            ("series".into(), Value::Str(series.to_string())),
        ],
    )
}

/// Build an augment request line.
pub fn augment_line(id: u64, pipeline: &str, seed: u64, index: u64, series: &str) -> String {
    request_line(
        id,
        "augment",
        vec![
            ("pipeline".into(), Value::Str(pipeline.to_string())),
            ("seed".into(), Value::Num(seed as f64)),
            ("index".into(), Value::Num(index as f64)),
            ("series".into(), Value::Str(series.to_string())),
        ],
    )
}

/// One connection that sends a line and reads the matching response.
/// The server answers in order, so with one request in flight the next
/// line read is always the reply to the line just sent.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    proto: Proto,
}

impl Conn {
    /// Connect speaking `proto`; `timeout` bounds every read and write
    /// on the socket. A v2 connection announces itself by writing the
    /// 4-byte preamble before anything else.
    pub fn open_proto(
        addr: &str,
        timeout: Option<Duration>,
        proto: Proto,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(timeout).map_err(|e| format!("set timeout: {e}"))?;
        stream.set_write_timeout(timeout).map_err(|e| format!("set timeout: {e}"))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        let mut conn = Self { writer: stream, reader, proto };
        if proto == Proto::V2 {
            conn.writer
                .write_all(&proto2::PREAMBLE)
                .map_err(|e| format!("send preamble: {e}"))?;
        }
        Ok(conn)
    }

    /// Send one line, read one reply line. Any error leaves the stream
    /// in an unknown state — callers must not reuse the connection
    /// after a failure (the [`RetryingClient`] reconnects instead).
    pub fn round_trip(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        if !reply.ends_with('\n') {
            // EOF mid-line: the server (or a fault plan) dropped the
            // connection halfway through the reply.
            return Err("connection dropped mid-response".into());
        }
        parse_response(reply.trim_end())
    }

    /// Send one v2 frame, read one v2 reply frame. The same
    /// error-means-poisoned contract as [`Conn::round_trip`] applies.
    pub fn round_trip_frame(&mut self, frame: &[u8]) -> Result<Response, String> {
        self.writer.write_all(frame).map_err(|e| format!("send: {e}"))?;
        let mut len_bytes = [0u8; 4];
        self.reader.read_exact(&mut len_bytes).map_err(|e| format!("recv: {e}"))?;
        let len =
            proto2::checked_len(u32::from_le_bytes(len_bytes), proto2::MAX_FRAME, "reply frame")?;
        if len < 5 {
            return Err(format!("bad reply frame length {len}"));
        }
        let mut raw = vec![0u8; len];
        self.reader.read_exact(&mut raw).map_err(|e| format!("recv: {e}"))?;
        let body = proto2::check_frame(&raw)?;
        proto2::decode_reply(body)
    }

    /// Round-trip one request in this connection's protocol.
    pub fn round_trip_request(&mut self, req: &WireRequest) -> Result<Response, String> {
        match (self.proto, req) {
            (Proto::Ndjson, WireRequest::Line(line)) => self.round_trip(line),
            (Proto::V2, WireRequest::Frame(frame)) => self.round_trip_frame(frame),
            _ => Err("request encoding does not match connection protocol".into()),
        }
    }
}

/// A request already encoded for one protocol, ready to (re)send.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// An NDJSON request line (no trailing newline).
    Line(String),
    /// A complete v2 frame (length prefix included).
    Frame(Vec<u8>),
}

impl WireRequest {
    /// Encode a predict for `proto`. NDJSON renders the series back to
    /// `.ts` text; v2 ships raw f64 bit patterns.
    pub fn predict(proto: Proto, id: u64, model: &str, series: &Mts) -> Self {
        match proto {
            Proto::Ndjson => Self::Line(predict_line(
                id,
                model,
                &tsda_datasets::ts_format::format_series_line(series),
            )),
            Proto::V2 => Self::Frame(proto2::encode_request(&proto2::Request2::Predict {
                id,
                model: model.to_string(),
                series: series.clone(),
            })),
        }
    }

    /// Encode an augment for `proto`. The reply's `series` field is the
    /// transformed sample, bit-identical to offline
    /// `AugPipeline::apply_one(series, seed, index)`.
    pub fn augment(
        proto: Proto,
        id: u64,
        pipeline: &str,
        seed: u64,
        index: u64,
        series: &Mts,
    ) -> Self {
        match proto {
            Proto::Ndjson => Self::Line(augment_line(
                id,
                pipeline,
                seed,
                index,
                &tsda_datasets::ts_format::format_series_line(series),
            )),
            Proto::V2 => Self::Frame(proto2::encode_request(&proto2::Request2::Augment {
                id,
                pipeline: pipeline.to_string(),
                seed,
                index,
                series: series.clone(),
            })),
        }
    }

    /// Encode a no-payload op (`"ping"`, `"stats"`, `"list"`).
    pub fn simple(proto: Proto, id: u64, op: &str) -> Self {
        match proto {
            Proto::Ndjson => Self::Line(request_line(id, op, vec![])),
            Proto::V2 => {
                let req = match op {
                    "stats" => proto2::Request2::Stats { id },
                    "list" => proto2::Request2::List { id },
                    _ => proto2::Request2::Ping { id },
                };
                Self::Frame(proto2::encode_request(&req))
            }
        }
    }
}

/// Poll `addr` with ping requests until the server answers or `secs`
/// elapse.
pub fn wait_ready(addr: &str, secs: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let probe_gap = Duration::from_millis(200);
    let probe_timeout = Some(Duration::from_secs(2));
    let mut last;
    loop {
        match Conn::open_proto(addr, probe_timeout, Proto::Ndjson)
            .and_then(|mut c| c.round_trip(&request_line(1, "ping", vec![])))
        {
            Ok(r) if r.ok => return Ok(()),
            Ok(r) => last = r.error.unwrap_or_else(|| "not ok".into()),
            Err(e) => last = e,
        }
        // Sleep between probes — never a busy-spin — but cap the nap to
        // the remaining budget so the timeout is honoured tightly. A
        // ready server always passes at least one probe, even with
        // `--wait-ready 0`.
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep(probe_gap.min(deadline - now));
    }
    Err(format!("server at {addr} not ready after {secs}s: {last}"))
}

/// Recovery knobs for [`RetryingClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Read/write timeout on the socket (the per-request deadline).
    pub timeout: Duration,
    /// Seeds the jitter stream (mixed with a per-client label so
    /// concurrent clients built from one seed still desynchronise).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            timeout: Duration::from_secs(5),
            jitter_seed: 7,
        }
    }
}

/// What the retry machinery did on a client's behalf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Requests issued through [`RetryingClient::round_trip`].
    pub requests: u64,
    /// Extra attempts beyond each request's first.
    pub retries: u64,
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
    /// Backoffs taken in response to `overloaded` replies.
    pub shed_backoffs: u64,
}

/// A client that retries through faults: timeouts, refused or dropped
/// connections, torn replies, corrupted requests, and load shedding.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    proto: Proto,
    conn: Option<Conn>,
    jitter: StdRng,
    counters: ClientCounters,
    ever_connected: bool,
}

impl RetryingClient {
    /// A client for `addr` under `policy`. No IO happens until the
    /// first request (connect failures are retried like any transport
    /// fault). `label` distinguishes the jitter streams of clients
    /// sharing one `jitter_seed` (e.g. a worker index).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy, label: &str) -> Self {
        Self::new_proto(addr, policy, label, Proto::Ndjson)
    }

    /// Like [`RetryingClient::new`] but speaking `proto` on every
    /// connection (and reconnection).
    pub fn new_proto(
        addr: impl Into<String>,
        policy: RetryPolicy,
        label: &str,
        proto: Proto,
    ) -> Self {
        Self {
            addr: addr.into(),
            jitter: tsda_core::rng::seeded(derive_seed(policy.jitter_seed, label)),
            policy,
            proto,
            conn: None,
            counters: ClientCounters::default(),
            ever_connected: false,
        }
    }

    /// Cumulative retry/reconnect counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// Predict one series (NDJSON text form), retrying through faults.
    pub fn predict(&mut self, id: u64, model: &str, series: &str) -> Result<Response, String> {
        self.round_trip(&predict_line(id, model, series))
    }

    /// Predict one decoded series in this client's protocol, retrying
    /// through faults.
    pub fn predict_mts(&mut self, id: u64, model: &str, series: &Mts) -> Result<Response, String> {
        let req = WireRequest::predict(self.proto, id, model, series);
        self.round_trip_request(&req)
    }

    /// Augment one series through the named pipeline in this client's
    /// protocol, retrying through faults. Safe to replay: the result is
    /// a pure function of `(pipeline, seed, index, series)`.
    pub fn augment_mts(
        &mut self,
        id: u64,
        pipeline: &str,
        seed: u64,
        index: u64,
        series: &Mts,
    ) -> Result<Response, String> {
        let req = WireRequest::augment(self.proto, id, pipeline, seed, index, series);
        self.round_trip_request(&req)
    }

    /// Send `line` (NDJSON) until it gets an `ok:true` reply or the
    /// attempt budget runs out. The last refusal is returned as
    /// `Ok(response)` with `ok == false` (the server *did* answer);
    /// only transport failure on every attempt yields `Err`.
    pub fn round_trip(&mut self, line: &str) -> Result<Response, String> {
        self.round_trip_request(&WireRequest::Line(line.to_string()))
    }

    /// Protocol-agnostic retry loop shared by both wire formats.
    pub fn round_trip_request(&mut self, req: &WireRequest) -> Result<Response, String> {
        self.counters.requests += 1;
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.retries += 1;
            }
            let outcome = match self.ensure_conn() {
                Ok(conn) => conn.round_trip_request(req),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(r) if r.ok => return Ok(r),
                Ok(r) => {
                    // The server answered but refused. Under request
                    // corruption any refusal may be transient (the
                    // mangled bytes, not our request, were rejected),
                    // so refusals retry up to the budget. Shed replies
                    // — `overloaded` from a replica's bounded queue OR
                    // `throttled` from router/replica admission control
                    // — carry an explicit backpressure hint that floors
                    // the next backoff.
                    let hint = if r.is_shed() {
                        self.counters.shed_backoffs += 1;
                        r.retry_ms
                    } else {
                        None
                    };
                    if attempt + 1 == attempts {
                        return Ok(r);
                    }
                    self.backoff(attempt, hint);
                }
                Err(e) => {
                    // Transport failure: reconnect-and-replay. The reply
                    // may have been half-read, so the old connection can
                    // never be trusted again.
                    self.conn = None;
                    last_err = e;
                    if attempt + 1 < attempts {
                        self.backoff(attempt, None);
                    }
                }
            }
        }
        Err(format!("request failed after {attempts} attempts: {last_err}"))
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            let conn = Conn::open_proto(&self.addr, Some(self.policy.timeout), self.proto)?;
            if self.ever_connected {
                self.counters.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(conn);
        }
        self.conn.as_mut().ok_or_else(|| "connection missing".to_string())
    }

    /// Sleep before retry `attempt + 1`: `base·2ᵏ` capped at
    /// `max_backoff`, floored by the server's `retry_ms` hint when one
    /// arrived, then jittered to `[d/2, d)` off the seeded stream.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) {
        let exp = self.policy.base_backoff.saturating_mul(1u32 << attempt.min(10));
        let mut d = exp.min(self.policy.max_backoff);
        if let Some(ms) = hint_ms {
            d = d.max(Duration::from_millis(ms));
        }
        let half_us = (d.as_micros() as u64 / 2).max(1);
        let jitter = Duration::from_micros(self.jitter.gen_range(0..half_us));
        std::thread::sleep(d / 2 + jitter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_wellformed() {
        let line = predict_line(3, "rocket", "1,2:3,4");
        let parsed = crate::protocol::parse_request(&line).unwrap();
        assert_eq!(parsed.id(), 3);
        let ping = request_line(9, "ping", vec![]);
        assert!(crate::protocol::parse_request(&ping).is_ok());
    }

    /// A localhost port with nothing listening (bound then released),
    /// so connects fail fast with ECONNREFUSED instead of hanging.
    fn dead_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    #[test]
    fn wait_ready_expires_against_a_dead_address() {
        let t0 = Instant::now();
        let err = wait_ready(&dead_addr(), 0).unwrap_err();
        assert!(err.contains("not ready"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn retrying_client_gives_up_with_transport_error_when_nothing_listens() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            timeout: Duration::from_millis(200),
            jitter_seed: 1,
        };
        let mut client = RetryingClient::new(dead_addr(), policy, "t");
        let err = client.round_trip(&request_line(1, "ping", vec![])).unwrap_err();
        assert!(err.contains("after 2 attempts"), "{err}");
        let c = client.counters();
        assert_eq!((c.requests, c.retries), (1, 1));
    }

    /// A single-connection fake server that answers each request line
    /// with the next canned reply, then echoes ok pings forever. Lets
    /// the backoff tests observe exactly when the client retried.
    fn fake_server(replies: Vec<String>) -> (String, std::thread::JoinHandle<u64>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).ok();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut served = 0u64;
            let mut canned = replies.into_iter();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return served;
                }
                served += 1;
                let id = crate::protocol::parse_request(line.trim_end())
                    .map(|r| r.id())
                    .unwrap_or(0);
                let reply = canned
                    .next()
                    .unwrap_or_else(|| format!("{{\"id\":{id},\"ok\":true}}"));
                writer.write_all(reply.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        });
        (addr, handle)
    }

    /// Satellite: a router-level `throttled` refusal's `retry_ms` hint
    /// must floor the next backoff exactly like a replica-level
    /// `overloaded` hint — `is_shed()` covers both markers.
    #[test]
    fn throttled_retry_hint_floors_the_backoff() {
        use crate::dispatch::Reply;
        use crate::protocol::encode_reply_into;
        let line = |reply: Reply| {
            let mut out = String::new();
            encode_reply_into(&mut out, &reply);
            out
        };
        for (marker, reply) in [
            ("throttled", line(Reply::Throttled { id: 1, retry_ms: 60 })),
            ("overloaded", line(Reply::Overloaded { id: 1, retry_ms: 60 })),
        ] {
            let (addr, server) = fake_server(vec![reply]);
            let policy = RetryPolicy {
                max_attempts: 3,
                // Local guesses are ~1 ms; only the 60 ms server hint
                // can push the retry past the threshold below.
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                timeout: Duration::from_secs(2),
                jitter_seed: 11,
            };
            let mut client = RetryingClient::new(addr, policy, marker);
            let t0 = Instant::now();
            let r = client.round_trip(&request_line(1, "ping", vec![])).unwrap();
            let elapsed = t0.elapsed();
            assert!(r.ok, "{marker}: retry after the hint must succeed");
            let c = client.counters();
            assert_eq!((c.retries, c.shed_backoffs), (1, 1), "{marker}");
            // The jittered floor is [hint/2, hint): with a 60 ms hint
            // the client waits ≥ 30 ms; the local policy alone would
            // wait < 3 ms.
            assert!(elapsed >= Duration::from_millis(30), "{marker}: backoff {elapsed:?} ignored the hint");
            drop(client);
            assert_eq!(server.join().unwrap_or(0), 2, "{marker}: exactly one retry");
        }
    }

    /// Plain refusals must NOT take the shed path or floor backoff.
    #[test]
    fn plain_errors_do_not_count_as_shed() {
        let (addr, server) = fake_server(vec![
            r#"{"id":1,"ok":false,"error":"unknown model \"x\"","retry_ms":500}"#.to_string(),
        ]);
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            timeout: Duration::from_secs(2),
            jitter_seed: 3,
        };
        let mut client = RetryingClient::new(addr, policy, "e");
        let t0 = Instant::now();
        let r = client.round_trip(&request_line(1, "ping", vec![])).unwrap();
        assert!(r.ok);
        assert_eq!(client.counters().shed_backoffs, 0);
        // Even with a (bogus) retry_ms on the error, backoff stays local.
        assert!(t0.elapsed() < Duration::from_millis(250));
        drop(client);
        assert_eq!(server.join().unwrap_or(0), 2);
    }

    #[test]
    fn jitter_streams_differ_per_label_but_are_seed_stable() {
        let draw = |label: &str| -> Vec<u64> {
            let mut rng =
                tsda_core::rng::seeded(derive_seed(RetryPolicy::default().jitter_seed, label));
            (0..4).map(|_| rng.gen_range(0..1000u64)).collect()
        };
        assert_eq!(draw("w0"), draw("w0"));
        assert_ne!(draw("w0"), draw("w1"));
    }
}
