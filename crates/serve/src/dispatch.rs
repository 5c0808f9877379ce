//! The one op dispatch: the request and reply vocabulary both wire
//! codecs share, and the core every predict and augment runs through.
//!
//! A codec only translates. [`crate::protocol`] parses an NDJSON line
//! into a [`Request<String>`] (the series still `.ts` text) and
//! [`crate::proto2`] decodes a frame into a [`Request<Mts>`]; each
//! renders the resulting [`Reply`] with its own `encode_reply_into`.
//! Everything in between is written once, here: series decode,
//! admission, lookup and validation, submit to the batch lane, the wait
//! for its answer, and what the `stats` counters see (the counting rule
//! is documented on [`ServerStats`]).

use crate::admission::Admission;
use crate::batcher::{BatchReply, Batcher, PendingReply, SubmitError};
use crate::conn::Handler;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::stats::ServerStats;
use crate::{proto2, protocol};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use tsda_core::{Label, Mts, TsdaError};

/// A decoded client request, generic over how its codec carries the
/// series: `.ts` text on NDJSON ([`protocol::Request`]), or already
/// materialised from raw f64 bit patterns on v2 ([`proto2::Request2`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<S> {
    /// Classify one series with the named model.
    Predict {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Registry name of the target model.
        model: String,
        /// The series.
        series: S,
    },
    /// Server-side counters (uptime, request and batch counts, latency).
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Names + input shapes of every served model.
    List {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Run one series through a named augmentation pipeline.
    ///
    /// The reply series is bit-identical to offline
    /// `AugPipeline::apply_one(series, seed, index)` — `(seed, index)`
    /// fully determine every stochastic choice, so any replica returns
    /// the same bytes.
    Augment {
        /// Correlation id.
        id: u64,
        /// Registry name of the target pipeline.
        pipeline: String,
        /// Master seed for the derived per-sample streams.
        seed: u64,
        /// Sample index within the seeded corpus.
        index: u64,
        /// The input series.
        series: S,
    },
}

impl<S> Request<S> {
    /// The correlation id of any request.
    pub fn id(&self) -> u64 {
        match self {
            Self::Predict { id, .. }
            | Self::Stats { id }
            | Self::List { id }
            | Self::Ping { id }
            | Self::Augment { id, .. } => *id,
        }
    }
}

/// A request's series as its codec carries it.
pub(crate) trait Payload {
    /// The decoded series, or why it does not decode.
    fn into_mts(self) -> Result<Mts, TsdaError>;
}

impl Payload for String {
    fn into_mts(self) -> Result<Mts, TsdaError> {
        protocol::decode_series(&self)
    }
}

impl Payload for Mts {
    fn into_mts(self) -> Result<Mts, TsdaError> {
        Ok(self)
    }
}

/// The answer to one request, before a codec encodes it.
#[derive(Debug)]
pub enum Reply {
    /// A predicted label (the model name rides along for NDJSON).
    Predict {
        /// Echoed correlation id.
        id: u64,
        /// The model that answered.
        model: String,
        /// Predicted class label.
        label: Label,
        /// How many series shared the batch.
        batch: usize,
        /// Server-side latency, microseconds.
        micros: u64,
    },
    /// An augmented series (the pipeline name rides along for NDJSON).
    Augment {
        /// Echoed correlation id.
        id: u64,
        /// The pipeline that answered.
        pipeline: String,
        /// The transformed series.
        series: Mts,
        /// How many augments shared the batch.
        batch: usize,
        /// Server-side latency, microseconds.
        micros: u64,
    },
    /// A `stats`, `list` or `ping` payload.
    Result {
        /// Echoed correlation id.
        id: u64,
        /// The payload.
        value: Value,
    },
    /// Any refusal that is not backpressure, with its message.
    Error {
        /// Echoed correlation id (0 when it was unreadable).
        id: u64,
        /// Why the request was refused.
        message: String,
    },
    /// Bounded-queue (or fault-plan) load shed.
    Overloaded {
        /// Echoed correlation id.
        id: u64,
        /// Backoff hint, milliseconds.
        retry_ms: u64,
    },
    /// Admission-control refusal.
    Throttled {
        /// Echoed correlation id.
        id: u64,
        /// Backoff hint, milliseconds.
        retry_ms: u64,
    },
}

/// One server connection's dispatcher: the serving state it reads and
/// the peer's admission key.
pub(crate) struct Dispatch<'a> {
    pub(crate) registry: &'a ModelRegistry,
    pub(crate) stats: &'a ServerStats,
    pub(crate) batcher: &'a Batcher,
    pub(crate) admission: Option<&'a Admission>,
    /// Admission key: the peer IP (reconnecting keeps the same bucket).
    pub(crate) peer: String,
}

impl Dispatch<'_> {
    /// The op dispatch of both codecs: one reply per request, every
    /// outcome counted in `stats`.
    pub(crate) fn dispatch(&self, request: Request<impl Payload>) -> Reply {
        match request {
            Request::Predict { id, model, series } => {
                let entry = self.registry.get(&model);
                match self.run(id, &model, series, entry, |s| self.batcher.submit(&model, s)) {
                    Ok((label, batch, micros)) => {
                        Reply::Predict { id, model, label, batch, micros }
                    }
                    Err(refusal) => refusal,
                }
            }
            Request::Augment { id, pipeline, seed, index, series } => {
                let submit = |s| self.batcher.submit_augment(&pipeline, s, seed, index);
                match self.run(id, &pipeline, series, None, submit) {
                    Ok((series, batch, micros)) => {
                        Reply::Augment { id, pipeline, series, batch, micros }
                    }
                    Err(refusal) => refusal,
                }
            }
            Request::Stats { id } => Reply::Result { id, value: self.stats_value() },
            Request::List { id } => Reply::Result { id, value: self.registry.describe() },
            Request::Ping { id } => Reply::Result { id, value: Value::Str("pong".into()) },
        }
    }

    /// The request core of both ops: decode the series, count the
    /// request, admit it, check its shape against `entry` (a predict's
    /// registered model), `submit` it to the lane of `target` — which
    /// refuses a name no lane serves — and wait for the lane's answer.
    /// `Err` is the refusal, already counted.
    fn run<T>(
        &self,
        id: u64,
        target: &str,
        series: impl Payload,
        entry: Option<&ModelEntry>,
        submit: impl FnOnce(Mts) -> Result<PendingReply<BatchReply<T>>, SubmitError>,
    ) -> Result<(T, usize, u64), Reply> {
        let stats = self.stats;
        let series = series.into_mts().map_err(|e| self.refuse(id, format!("bad series: {e}")))?;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(retry_ms) = self.admission.and_then(|adm| adm.admit(&self.peer).err()) {
            stats.throttled.fetch_add(1, Ordering::Relaxed);
            return Err(Reply::Throttled { id, retry_ms });
        }
        if let Some(entry) = entry {
            entry.validate(&series).map_err(|message| self.refuse(id, message))?;
        }
        let pending = submit(series).map_err(|e| match e {
            SubmitError::Overloaded { retry_ms } => {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                Reply::Overloaded { id, retry_ms }
            }
            SubmitError::UnknownModel => self.refuse(id, format!("unknown model {target:?}")),
            SubmitError::UnknownPipeline => self.refuse(id, format!("unknown pipeline {target:?}")),
            SubmitError::Closed => self.refuse(id, "server shutting down".to_string()),
        })?;
        // recv() always answers: an accepted job either gets its batch
        // result or (if its worker abandoned it) a shutdown error. The
        // worker already counted a failed batch.
        let reply = pending.recv();
        match reply.result {
            Ok(value) => Ok((value, reply.batch_size, reply.micros)),
            Err(message) => Err(Reply::Error { id, message }),
        }
    }

    /// Count a refusal in `errors` and build its reply.
    fn refuse(&self, id: u64, message: String) -> Reply {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        Reply::Error { id, message }
    }

    /// `stats` payload: the server-wide counter snapshot plus the
    /// per-queue rows (depth, submitted, shed, ticket_allocs) from the
    /// batcher — the live evidence that the warm pools cover the load.
    fn stats_value(&self) -> Value {
        let mut v = self.stats.snapshot().to_value();
        if let Value::Object(pairs) = &mut v {
            pairs.push(("queues".into(), self.batcher.queue_stats()));
        }
        v
    }
}

impl Handler for Dispatch<'_> {
    fn answer_line(&mut self, line: &str, out: &mut String) {
        let reply = match protocol::parse_request(line) {
            Ok(request) => self.dispatch(request),
            Err((id, message)) => self.refuse(id, message),
        };
        protocol::encode_reply_into(out, &reply);
    }

    fn answer_frame(&mut self, raw: &[u8], out: &mut Vec<u8>) {
        // A body that fails its checksum is answered with id 0 — the
        // real id is untrustworthy inside a corrupted frame — and the
        // stream is still framed, so the connection keeps serving.
        let request =
            proto2::check_frame(raw).map_err(|msg| (0, msg)).and_then(proto2::decode_request);
        let reply = match request {
            Ok(request) => self.dispatch(request),
            Err((id, message)) => self.refuse(id, message),
        };
        proto2::encode_reply_into(out, &reply);
    }

    fn errors(&self) -> &AtomicU64 {
        &self.stats.errors
    }
}
