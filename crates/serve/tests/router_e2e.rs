//! End-to-end router tests: routing over live replicas, admission
//! control at the frontend, and the chaos contract — killing a replica
//! mid-load loses zero requests and never changes a label.

use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsda_classify::persist::{load_model, load_model_bytes, SavedModel};
use tsda_classify::{Classifier, Rocket, RocketConfig};
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Label, Mts};
use tsda_serve::admission::AdmissionConfig;
use tsda_serve::batcher::BatchConfig;
use tsda_serve::client::{Conn, Proto, RetryPolicy, RetryingClient, WireRequest};
use tsda_serve::registry::{ModelEntry, ModelRegistry};
use tsda_serve::router::{ReplicaSpec, RoutePolicy, Router, RouterConfig};
use tsda_serve::server::{serve, ServerConfig, ServerHandle};

fn toy_problem(seed: u64) -> (Dataset, Dataset) {
    let make = |split_seed: u64| {
        use rand::Rng;
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(split_seed);
        for c in 0..2usize {
            let freq = if c == 0 { 0.25 } else { 0.75 };
            for _ in 0..12 {
                let phase: f64 = rng.gen_range(0.0..1.0);
                let dims = (0..2)
                    .map(|d| {
                        (0..24)
                            .map(|t| ((t as f64) * freq + phase + d as f64).sin())
                            .collect()
                    })
                    .collect();
                ds.push(Mts::from_dims(dims), c);
            }
        }
        ds
    };
    (make(seed), make(seed ^ 0xdead_beef))
}

/// One in-process replica serving a save/load-cycled rocket model.
/// Deterministic in `seed`, so two calls build byte-identical replicas.
fn replica_server(seed: u64) -> (ServerHandle, Vec<Label>, Dataset) {
    let (train, test) = toy_problem(seed);
    let mut rocket = Rocket::new(RocketConfig { n_kernels: 60, ..RocketConfig::default() });
    rocket.fit(&train, None, &mut seeded(5));
    let offline = rocket.predict(&test);
    let bytes = SavedModel::Rocket(rocket).save_bytes().unwrap();
    let loaded = load_model_bytes(&bytes).unwrap();
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::from_saved("rocket", loaded, None).unwrap());
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("replica starts");
    (handle, offline, test)
}

fn external(addr: String) -> ReplicaSpec {
    ReplicaSpec::External { addr, models: vec!["rocket".to_string()] }
}

/// Run `stop` on its own thread and fail unless it returns within 2 s,
/// so a shutdown that never wakes its blocked accept loop fails the
/// suite instead of hanging it.
fn stops_within_2s(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        stop();
        done.send(()).ok();
    });
    assert!(
        stopped.recv_timeout(Duration::from_secs(2)).is_ok(),
        "{what} did not shut down within 2 s"
    );
    stopper.join().expect("shutdown thread panicked");
}

#[test]
fn idle_server_and_router_shut_down_promptly() {
    let (replica, _, _) = replica_server(3);
    let router = Router::start(RouterConfig {
        replicas: vec![external(replica.addr().to_string())],
        ..RouterConfig::default()
    })
    .expect("router starts");
    stops_within_2s("idle router", move || router.shutdown());
    stops_within_2s("idle server", move || replica.shutdown());
}

#[test]
fn router_routes_both_protocols_over_external_replicas() {
    let (replica_a, offline, test) = replica_server(21);
    let (replica_b, offline_b, _) = replica_server(21);
    assert_eq!(offline, offline_b, "replicas must hold identical models");

    let handle = Router::start(RouterConfig {
        replicas: vec![external(replica_a.addr().to_string()), external(replica_b.addr().to_string())],
        policy: RoutePolicy::Hash,
        ..RouterConfig::default()
    })
    .expect("router starts");
    let addr = handle.addr().to_string();

    // The whole test set twice — once per protocol — through the
    // router: every label must equal offline predict.
    for proto in [Proto::Ndjson, Proto::V2] {
        let mut conn = Conn::open_proto(&addr, Some(Duration::from_secs(10)), proto).unwrap();
        for (i, s) in test.series().iter().enumerate() {
            let r = conn
                .round_trip_request(&WireRequest::predict(proto, i as u64, "rocket", s))
                .expect("round trip");
            assert!(r.ok, "{proto:?} request {i} failed: {:?}", r.error);
            assert_eq!(
                r.label.unwrap(),
                offline[i],
                "{proto:?} series {i}: routed label diverged from offline predict"
            );
        }
    }

    // Rendezvous hashing spread the distinct series over both replicas,
    // and the router's own stats agree with the traffic.
    let mut conn = Conn::open_proto(&addr, Some(Duration::from_secs(10)), Proto::V2).unwrap();
    let stats = conn
        .round_trip_request(&WireRequest::simple(Proto::V2, 1, "stats"))
        .expect("stats")
        .result
        .expect("stats result");
    assert_eq!(stats.get("role").and_then(Value::as_str), Some("router"));
    let total = (2 * test.series().len()) as f64;
    assert_eq!(stats.get("requests").and_then(Value::as_f64), Some(total));
    assert_eq!(stats.get("forwarded").and_then(Value::as_f64), Some(total));
    let replicas = match stats.get("replicas") {
        Some(Value::Array(a)) => a,
        other => panic!("replicas not an array: {other:?}"),
    };
    for r in replicas {
        let forwarded = r.get("forwarded").and_then(Value::as_f64).unwrap();
        assert!(forwarded > 0.0, "hash routing left a replica idle: {r:?}");
    }

    // Same series → same replica: stickiness is observable as exactly
    // one replica's counter moving when one series repeats.
    let before: Vec<f64> = replicas
        .iter()
        .map(|r| r.get("forwarded").and_then(Value::as_f64).unwrap())
        .collect();
    for rep in 0..6u64 {
        let r = conn
            .round_trip_request(&WireRequest::predict(Proto::V2, 100 + rep, "rocket", &test.series()[0]))
            .expect("round trip");
        assert!(r.ok);
    }
    let stats = conn
        .round_trip_request(&WireRequest::simple(Proto::V2, 2, "stats"))
        .expect("stats")
        .result
        .expect("stats result");
    let after: Vec<f64> = match stats.get("replicas") {
        Some(Value::Array(a)) => a
            .iter()
            .map(|r| r.get("forwarded").and_then(Value::as_f64).unwrap())
            .collect(),
        other => panic!("replicas not an array: {other:?}"),
    };
    let moved = before.iter().zip(&after).filter(|(b, a)| a > b).count();
    assert_eq!(moved, 1, "a repeated series must stick to one replica: {before:?} -> {after:?}");

    handle.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn router_admission_throttles_with_retry_hints() {
    let (replica, _offline, test) = replica_server(33);
    let handle = Router::start(RouterConfig {
        replicas: vec![external(replica.addr().to_string())],
        policy: RoutePolicy::LeastLoaded,
        // Tiny quota: burst of 2, then one token per 200ms.
        admission: Some(AdmissionConfig::new(5.0, 2.0)),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let addr = handle.addr().to_string();

    // A burst beyond the quota on a raw connection (no retries): the
    // excess must be refused as `throttled` with a nonzero retry hint,
    // over both protocols.
    let mut throttled = 0;
    for proto in [Proto::V2, Proto::Ndjson] {
        let mut conn = Conn::open_proto(&addr, Some(Duration::from_secs(10)), proto).unwrap();
        for i in 0..6u64 {
            let r = conn
                .round_trip_request(&WireRequest::predict(proto, i, "rocket", &test.series()[0]))
                .expect("round trip");
            if r.is_throttled() {
                assert!(r.is_shed(), "throttled must count as shed");
                assert!(
                    r.retry_ms.is_some_and(|ms| ms > 0),
                    "throttled reply must carry a retry hint: {r:?}"
                );
                throttled += 1;
            }
        }
    }
    assert!(throttled >= 4, "12 rapid requests on a 2-burst quota throttled only {throttled}");

    // The retrying client rides the hints out to success.
    let mut client = RetryingClient::new_proto(
        addr,
        RetryPolicy { max_attempts: 16, jitter_seed: 5, ..RetryPolicy::default() },
        "quota",
        Proto::V2,
    );
    let r = client.predict_mts(99, "rocket", &test.series()[1]).expect("retries succeed");
    assert!(r.ok, "request must succeed once the bucket refills: {:?}", r.error);
    assert!(client.counters().shed_backoffs > 0, "the throttle hint should have floored a backoff");

    let snap = handle.snapshot();
    assert!(
        snap.get("throttled").and_then(Value::as_f64).unwrap() >= 4.0,
        "router stats must count throttles: {snap:?}"
    );

    handle.shutdown();
    replica.shutdown();
}

/// The chaos contract from the issue: spawn real `tsda_serve`
/// processes, kill one mid-load, and require zero lost requests, zero
/// label divergence, and an automatic restart.
#[test]
fn router_chaos_replica_kill_loses_nothing() {
    let serve_bin = env!("CARGO_BIN_EXE_tsda_serve");
    let dir = std::env::temp_dir().join(format!("tsda-router-e2e-{}", std::process::id()));
    let dir_s = dir.to_string_lossy().into_owned();
    std::fs::create_dir_all(&dir).expect("mkdir model dir");

    // Pretrain once (--max-seconds 0 trains, saves, exits) so both
    // replicas load byte-identical model files.
    let status = std::process::Command::new(serve_bin)
        .args([
            "--addr", "127.0.0.1:0", "--models", "rocket", "--dataset", "RacketSports",
            "--seed", "7", "--dir", &dir_s, "--fast", "--max-seconds", "0",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("pretrain spawn");
    assert!(status.success(), "pretrain run failed: {status}");

    // Offline ground truth from the exact bytes the replicas serve.
    let saved = load_model(&dir.join("rocket.tsda")).expect("load pretrained rocket");
    let meta = tsda_datasets::registry::ALL_DATASETS
        .iter()
        .find(|m| m.name == "RacketSports")
        .expect("dataset meta");
    let tt = tsda_datasets::synth::generate(meta, &tsda_datasets::synth::GenOptions::ci(7));
    let offline = match saved {
        SavedModel::Rocket(m) => m.predict(&tt.test),
        other => panic!("expected a rocket model, got {:?}", other.kind()),
    };

    let spawn_spec = || ReplicaSpec::Spawn {
        bin: serve_bin.to_string(),
        args: [
            "--addr", "127.0.0.1:0", "--models", "rocket", "--dataset", "RacketSports",
            "--seed", "7", "--dir", &dir_s, "--fast", "--max-wait-ms", "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        models: vec!["rocket".to_string()],
    };
    let handle = Router::start(RouterConfig {
        replicas: vec![spawn_spec(), spawn_spec()],
        policy: RoutePolicy::LeastLoaded,
        ..RouterConfig::default()
    })
    .expect("router starts");
    let addr = handle.addr().to_string();

    // Load: three workers round-robin the test set through retrying v2
    // clients while the main thread kills replica 0 mid-flight.
    let n_workers = 3usize;
    let per_worker = 40usize;
    let completed = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::new();
    for worker in 0..n_workers {
        let addr = addr.clone();
        let test = tt.test.clone();
        let offline = offline.clone();
        let completed = Arc::clone(&completed);
        workers.push(std::thread::spawn(move || {
            let mut client = RetryingClient::new_proto(
                addr,
                RetryPolicy {
                    max_attempts: 16,
                    timeout: Duration::from_secs(10),
                    jitter_seed: worker as u64,
                    ..RetryPolicy::default()
                },
                &format!("chaos-{worker}"),
                Proto::V2,
            );
            for i in 0..per_worker {
                let idx = (worker + i * n_workers) % test.series().len();
                let r = client
                    .predict_mts(i as u64, "rocket", &test.series()[idx])
                    .expect("request must survive the replica kill");
                assert!(r.ok, "worker {worker} request {i} failed: {:?}", r.error);
                assert_eq!(
                    r.label.unwrap(),
                    offline[idx],
                    "worker {worker} series {idx}: label diverged after failover"
                );
                completed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // Kill replica 0 once the load is demonstrably in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while completed.load(Ordering::Relaxed) < 10 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.kill_replica(0), "kill must land on a live spawned replica");

    for w in workers {
        w.join().expect("no worker may lose a request");
    }
    assert_eq!(completed.load(Ordering::Relaxed), n_workers * per_worker);

    // The monitor must respawn the dead replica and probe it healthy.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let restarted = handle.restarts_total() >= 1;
        let healthy = match handle.snapshot().get("replicas") {
            Some(Value::Array(a)) => a
                .iter()
                .all(|r| r.get("healthy") == Some(&Value::Bool(true))),
            _ => false,
        };
        if restarted && healthy {
            break;
        }
        assert!(Instant::now() < deadline, "replica 0 was not restarted within 60s");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Traffic after the restart still matches offline.
    let mut client = RetryingClient::new_proto(
        addr,
        RetryPolicy { max_attempts: 8, jitter_seed: 9, ..RetryPolicy::default() },
        "post-restart",
        Proto::V2,
    );
    for (idx, s) in tt.test.series().iter().take(8).enumerate() {
        let r = client.predict_mts(idx as u64, "rocket", s).expect("post-restart request");
        assert!(r.ok);
        assert_eq!(r.label.unwrap(), offline[idx]);
    }

    handle.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir).is_ok();
}
