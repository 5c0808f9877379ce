//! The `stats` counters follow one rule on both wire protocols: a
//! predict or augment whose series fails to decode is a malformed
//! request, counted in `errors` and never in `requests` — exactly like
//! a request whose envelope fails to parse.

use std::sync::Arc;
use std::time::Duration;
use tsda_core::Mts;
use tsda_serve::client::{augment_line, predict_line, Conn, Proto, WireRequest};
use tsda_serve::pipelines::PipelineRegistry;
use tsda_serve::proto2::{self, Request2};
use tsda_serve::registry::{ModelEntry, ModelRegistry};
use tsda_serve::server::{serve, ServerConfig, ServerHandle};

fn server() -> ServerHandle {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::stub("stub", 0, 1, 8));
    let pipelines = PipelineRegistry::from_toml(
        "[pipeline]\nname = \"light\"\n[[stage]]\nchoose = [\"jitter\"]\nprob = 1.0\n",
    )
    .expect("pipeline parses");
    serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            pipelines: Some(Arc::new(pipelines)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// `(requests, errors)` moved by sending `req` once on a fresh
/// connection; the request must be refused.
fn deltas(handle: &ServerHandle, proto: Proto, req: &WireRequest) -> (u64, u64) {
    let before = handle.stats().snapshot();
    let addr = handle.addr().to_string();
    let mut conn = Conn::open_proto(&addr, Some(Duration::from_secs(5)), proto).expect("connect");
    let reply = conn.round_trip_request(req).expect("server answers");
    assert!(!reply.ok, "{req:?} must be refused, got {reply:?}");
    let after = handle.stats().snapshot();
    (after.requests - before.requests, after.errors - before.errors)
}

#[test]
fn undecodable_series_count_the_same_on_both_protocols() {
    let handle = server();
    let empty = Mts::from_flat(0, 0, Vec::new());
    let cases = [
        (
            "predict",
            predict_line(1, "stub", ""),
            Request2::Predict { id: 1, model: "stub".into(), series: empty.clone() },
        ),
        (
            "augment",
            augment_line(2, "light", 7, 0, ""),
            Request2::Augment {
                id: 2,
                pipeline: "light".into(),
                seed: 7,
                index: 0,
                series: empty,
            },
        ),
    ];
    for (op, line, frame) in cases {
        let ndjson = deltas(&handle, Proto::Ndjson, &WireRequest::Line(line));
        let v2 = deltas(&handle, Proto::V2, &WireRequest::Frame(proto2::encode_request(&frame)));
        assert_eq!(ndjson, v2, "{op}: (requests, errors) deltas differ by protocol");
        assert_eq!(ndjson, (0, 1), "{op}: a malformed request counts as an error only");
    }
    handle.shutdown();
}
