//! `tsda-serve`: a std-only batched TCP inference server over the
//! workspace's saved models and augmentation pipelines.
//!
//! The server exposes both halves of the paper: the ROCKET /
//! InceptionTime classifiers (`predict`) and the augmentation taxonomy
//! as declarative pipelines (`augment`). Every request takes one path,
//! whatever its op and wire protocol, and the router shares its first
//! stage:
//!
//! 1. **Connection layer** (`conn`, crate-private) — one accept loop,
//!    one protocol negotiation per connection (a 4-byte preamble
//!    selects v2; anything else is NDJSON), one read/drain loop with
//!    graceful shutdown, and one line/frame splitter over reused
//!    per-connection scratch. The server and the [`router`] both run
//!    it; they differ only in the handler they plug in.
//! 2. **Codec** — [`protocol`] (newline-delimited JSON; series in the
//!    `.ts` data-line layout, so the wire format and archive IO share
//!    one parser) or [`proto2`] (length-prefixed, CRC-framed binary, so
//!    the hot path decodes raw f64 bit patterns instead of re-parsing
//!    text). Each decodes into the shared [`dispatch::Request`] and
//!    encodes a [`dispatch::Reply`] with its `encode_reply_into`.
//! 3. **Dispatch** ([`dispatch`]) — one core for both ops and both
//!    codecs: series decode, the per-client token bucket
//!    ([`admission`]), lookup and validation against the [`registry`]
//!    of saved models, submit, and the wait for the answer. The
//!    router's counterpart is its routing handler, which decodes only
//!    the routing header and relays requests verbatim to replicas.
//! 4. **Lane** ([`batcher`]) — one worker thread per model and per
//!    [`pipelines`] entry, all running the same adaptive micro-batch
//!    loop over a bounded job ring and a warm reply-ticket pool; a lane
//!    differs only in its batch call. Per-series results are
//!    batch-composition independent, so served labels and augment
//!    outputs are bit-identical to offline execution (asserted by the
//!    smoke and augment e2e tests).
//!
//! Around the path: [`stats`] counters for the `stats` op, [`faults`]
//! (a seeded fault-injection plan the chaos suites run the whole stack
//! under), [`signal`] (the SIGTERM/ctrl-c flag that drains a server),
//! and [`client`] (connections, a readiness probe, and a retrying
//! client with capped, jittered backoff that survives every fault the
//! plan injects).
//!
//! Three binaries drive it: `tsda_serve` (train-or-load models, then
//! serve; `--fault-seed` arms the plan), `tsda_router` (the replica
//! fleet frontend), and `tsda_client` (a readiness probe, a `stats`
//! reader and a one-shot predict). Load runs belong to the benchmark
//! in `perfbench/`.

pub mod admission;
pub mod batcher;
pub mod client;
mod conn;
pub mod dispatch;
pub mod faults;
pub mod pipelines;
pub mod proto2;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod signal;
pub mod stats;

pub use admission::{Admission, AdmissionConfig};
pub use batcher::{BatchConfig, SubmitError};
pub use client::{ClientCounters, Proto, RetryPolicy, RetryingClient, WireRequest};
pub use faults::{FaultKind, FaultPlan, FaultRates};
pub use pipelines::PipelineRegistry;
pub use registry::{ModelEntry, ModelRegistry};
pub use router::{ReplicaSpec, RoutePolicy, Router, RouterConfig, RouterHandle};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::{ServerStats, StatsSnapshot};
