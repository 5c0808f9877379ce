//! Chaos soak: hammer a fault-injected `tsda-serve` instance with
//! retrying clients and verify the serving contract end to end —
//! zero lost requests, zero label divergence from offline
//! `Classifier::predict`, and every fault kind actually fired. Writes
//! `BENCH_chaos.json` and exits nonzero on any violation, so CI can run
//! it as a gate.
//!
//! ```text
//! cargo run --release -p tsda-bench --bin chaos_soak \
//!   [--seed N] [--clients N] [--rounds N] [--out BENCH_chaos.json]
//! ```
//!
//! The fault schedule is a pure function of the seed (see
//! `tsda_serve::faults`), so a reported failure replays exactly under
//! the same seed and client/round counts.

use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::rocket::{Rocket, RocketConfig};
use tsda_classify::traits::Classifier;
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Label, Mts};
use tsda_datasets::ts_format::format_series_line;
use tsda_serve::batcher::BatchConfig;
use tsda_serve::client::{RetryPolicy, RetryingClient};
use tsda_serve::faults::FaultPlan;
use tsda_serve::registry::{ModelEntry, ModelRegistry};
use tsda_serve::server::{serve, ServerConfig};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Two sine classes with random phase: small enough to train in
/// milliseconds, separable enough that labels are stable.
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

/// ROCKET through a save/load cycle plus its offline test-set labels —
/// the ground truth every served label must match bit-for-bit.
fn build_registry(seed: u64) -> (ModelRegistry, Vec<Label>, Dataset) {
    let (train, test) = toy_problem(seed);
    let mut rocket = Rocket::new(RocketConfig { n_kernels: 60 });
    rocket.fit(&train, None, &mut seeded(5));
    let offline = rocket.predict(&test);
    let bytes = SavedModel::Rocket(rocket).save_bytes().expect("save model");
    let loaded = load_model_bytes(&bytes).expect("reload model");
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::from_saved("rocket", loaded, None).expect("register model"));
    (registry, offline, test)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    let clients: usize = flag(&args, "--clients").and_then(|v| v.parse().ok()).unwrap_or(4);
    let rounds: usize = flag(&args, "--rounds").and_then(|v| v.parse().ok()).unwrap_or(6);
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_chaos.json".to_string());
    assert!(seed != 0, "--seed 0 disables fault injection; pick a nonzero seed");

    eprintln!("chaos soak: seed {seed}, {clients} clients × {rounds} rounds");
    let plan = Arc::new(FaultPlan::seeded(seed));
    let (registry, offline, test) = build_registry(21);
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Small, fast batches so the worker-stall and shed sites see
            // many events within the soak budget.
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
            faults: Some(Arc::clone(&plan)),
            admission: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let policy = RetryPolicy { max_attempts: 16, jitter_seed: seed, ..RetryPolicy::default() };

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for worker in 0..clients {
        let addr = addr.clone();
        let test = test.clone();
        let offline = offline.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = RetryingClient::new(addr, policy, &format!("soak-{worker}"));
            let (mut sent, mut lost, mut mismatched) = (0u64, 0u64, 0u64);
            for round in 0..rounds {
                for (i, s) in test.series().iter().enumerate() {
                    let id = (worker * 1_000_000 + round * 1000 + i) as u64;
                    sent += 1;
                    match client.predict(id, "rocket", &format_series_line(s)) {
                        Ok(reply) if reply.ok => {
                            if reply.label != Some(offline[i]) {
                                mismatched += 1;
                            }
                        }
                        Ok(_) | Err(_) => lost += 1,
                    }
                }
            }
            (sent, lost, mismatched, client.counters())
        }));
    }

    let (mut sent, mut lost, mut mismatched) = (0u64, 0u64, 0u64);
    let (mut retries, mut reconnects, mut shed_backoffs) = (0u64, 0u64, 0u64);
    for w in workers {
        let (s, l, m, counters) = w.join().expect("soak client panicked");
        sent += s;
        lost += l;
        mismatched += m;
        retries += counters.retries;
        reconnects += counters.reconnects;
        shed_backoffs += counters.shed_backoffs;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = handle.stats().snapshot();
    handle.shutdown();

    let exercised_all = plan.exercised_all();
    let ok = lost == 0 && mismatched == 0 && exercised_all && plan.injected_total() > 0;
    eprintln!(
        "{sent} requests in {wall_s:.2}s: {lost} lost, {mismatched} mismatched, \
         {retries} retries, {reconnects} reconnects, {shed_backoffs} shed backoffs"
    );
    eprintln!("faults: {}", plan.summary());

    let report = Value::Object(vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("clients".into(), Value::Num(clients as f64)),
        ("rounds".into(), Value::Num(rounds as f64)),
        ("wall_s".into(), Value::Num(wall_s)),
        ("requests".into(), Value::Num(sent as f64)),
        ("lost".into(), Value::Num(lost as f64)),
        ("label_mismatches".into(), Value::Num(mismatched as f64)),
        ("retries".into(), Value::Num(retries as f64)),
        ("reconnects".into(), Value::Num(reconnects as f64)),
        ("shed_backoffs".into(), Value::Num(shed_backoffs as f64)),
        ("exercised_all_fault_kinds".into(), Value::Bool(exercised_all)),
        ("server".into(), snap.to_value()),
        ("faults".into(), plan.to_value()),
        ("ok".into(), Value::Bool(ok)),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serialise chaos report");
    std::fs::write(&out_path, json + "\n").expect("write chaos report");
    eprintln!("wrote {out_path}");

    if !ok {
        eprintln!("chaos soak FAILED: the serving contract was violated (see above)");
        std::process::exit(1);
    }
    println!("chaos soak passed: {sent} requests, 0 lost, 0 mismatched, all fault kinds fired");
}
