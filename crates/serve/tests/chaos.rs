//! Chaos suite: the full serving stack under deterministic fault
//! injection, plus shutdown-drain and readiness-deadline contracts.
//!
//! The fault seed defaults to 7 and can be overridden with
//! `TSDA_FAULT_SEED` (any nonzero value) to sweep other schedules;
//! every assertion here must hold for *any* seed, because the faults
//! only perturb transport and scheduling — never predictions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::{Classifier, Rocket, RocketConfig};
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Label, Mts};
use tsda_datasets::ts_format::format_series_line;
use tsda_serve::batcher::BatchConfig;
use tsda_serve::client::{predict_line, wait_ready, RetryPolicy, RetryingClient};
use tsda_serve::faults::FaultPlan;
use tsda_serve::protocol::parse_response;
use tsda_serve::registry::{ModelEntry, ModelRegistry};
use tsda_serve::server::{serve, ServerConfig, ServerHandle};

/// Nonzero chaos seed: `TSDA_FAULT_SEED` when set, 7 otherwise.
fn fault_seed() -> u64 {
    std::env::var("TSDA_FAULT_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&s| s != 0)
        .unwrap_or(7)
}

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

/// Rocket through a save/load cycle + its offline predictions on the
/// test split — the ground truth served labels must match bit-for-bit.
fn build_registry(seed: u64) -> (ModelRegistry, Vec<Label>, Dataset) {
    let (train, test) = toy_problem(seed);
    let mut rocket = Rocket::new(RocketConfig { n_kernels: 60 });
    rocket.fit(&train, None, &mut seeded(5));
    let offline = rocket.predict(&test);
    let bytes = SavedModel::Rocket(rocket).save_bytes().unwrap();
    let loaded = load_model_bytes(&bytes).unwrap();
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::from_saved("rocket", loaded, None).unwrap());
    (registry, offline, test)
}

fn chaos_server(plan: Arc<FaultPlan>) -> (ServerHandle, Vec<Label>, Dataset) {
    let (registry, offline, test) = build_registry(21);
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Small batches so the worker-stall site sees many events.
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
            faults: Some(plan),
            admission: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (handle, offline, test)
}

/// The tentpole assertion: under a nonzero fault seed, retrying clients
/// lose zero requests and every served label is bit-identical to
/// offline `Classifier::predict` — drops, torn writes, corrupted
/// requests, stalls, and sheds included — and every fault kind actually
/// fired.
#[test]
fn chaos_labels_match_offline_with_zero_lost_requests() {
    let seed = fault_seed();
    let plan = Arc::new(FaultPlan::seeded(seed));
    let (handle, offline, test) = chaos_server(Arc::clone(&plan));
    let addr = handle.addr().to_string();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;
    let policy = RetryPolicy {
        max_attempts: 16,
        jitter_seed: seed,
        ..RetryPolicy::default()
    };
    let mut workers = Vec::new();
    for worker in 0..CLIENTS {
        let addr = addr.clone();
        let test = test.clone();
        let offline = offline.clone();
        workers.push(std::thread::spawn(move || {
            let mut client =
                RetryingClient::new(addr, policy, &format!("chaos-{worker}"));
            let mut sent = 0u64;
            for round in 0..ROUNDS {
                for (i, s) in test.series().iter().enumerate() {
                    let id = (worker * 100_000 + round * 1000 + i) as u64;
                    let line = format_series_line(s);
                    let reply = client
                        .predict(id, "rocket", &line)
                        .unwrap_or_else(|e| panic!("request {id} lost: {e}"));
                    assert!(
                        reply.ok,
                        "request {id} still refused after retries: {:?}",
                        reply.error
                    );
                    assert_eq!(
                        reply.label,
                        Some(offline[i]),
                        "series {i}: served label diverged from offline predict under faults"
                    );
                    sent += 1;
                }
            }
            (sent, client.counters())
        }));
    }

    let mut total = 0u64;
    let mut retries = 0u64;
    for w in workers {
        let (sent, counters) = w.join().expect("chaos client panicked");
        total += sent;
        retries += counters.retries;
    }
    assert_eq!(total, (CLIENTS * ROUNDS * test.series().len()) as u64);

    // The suite only proves something if faults actually happened.
    assert!(plan.injected_total() > 0, "no faults injected: {}", plan.summary());
    assert!(
        plan.exercised_all(),
        "some fault kinds never fired (add rounds or adjust rates): {}",
        plan.summary()
    );
    // With drops + corruption in the schedule, at least one retry must
    // have been needed; zero retries would mean the plan was a no-op.
    assert!(retries > 0, "faults fired but no client ever retried");

    let snap = handle.stats().snapshot();
    assert!(snap.shed > 0, "shed path never exercised: {}", plan.summary());
    handle.shutdown();
}

/// Shutdown under load drains: every request the server *accepted*
/// (read off a socket) is answered before its connection closes.
#[test]
fn shutdown_under_load_answers_every_accepted_request() {
    let (registry, offline, test) = build_registry(33);
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Slow flushes so a pipelined burst is still queued when
            // shutdown lands.
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(20),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    const BURST: usize = 40;
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for i in 0..BURST {
        let s = &test.series()[i % test.series().len()];
        let line = predict_line(i as u64 + 1, "rocket", &format_series_line(s));
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    // Let the burst reach the server's kernel buffer, then pull the rug.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();

    // Every accepted request must have been answered (drain), in order,
    // with the right labels; then EOF.
    let mut answered = 0usize;
    loop {
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).expect("read response");
        if n == 0 {
            break;
        }
        let r = parse_response(reply.trim_end()).expect("parse response");
        assert!(r.ok, "drained request answered with error: {:?}", r.error);
        assert_eq!(r.id, answered as u64 + 1, "responses out of order during drain");
        let i = answered % test.series().len();
        assert_eq!(r.label, Some(offline[i]), "drained label diverged");
        answered += 1;
    }
    assert_eq!(answered, BURST, "shutdown lost {} accepted requests", BURST - answered);
}

/// The readiness probe: expires on schedule against a dead address and
/// passes promptly against a live server.
#[test]
fn wait_ready_deadline_expires_and_liveness_passes() {
    // Dead address: bind-then-drop a listener so connects fail fast.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        addr
    };
    let t0 = Instant::now();
    let err = wait_ready(&dead, 1).unwrap_err();
    assert!(err.contains("not ready after 1s"), "{err}");
    let waited = t0.elapsed();
    assert!(waited >= Duration::from_secs(1), "expired early: {waited:?}");
    assert!(waited < Duration::from_secs(8), "deadline overshot: {waited:?}");

    // Live server (fault-free): ready immediately, even with budget 0.
    let (registry, _, _) = build_registry(44);
    let handle = serve(
        registry,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server starts");
    wait_ready(&handle.addr().to_string(), 0).expect("live server must probe ready");
    handle.shutdown();
}
