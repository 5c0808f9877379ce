//! Allocation-count harness for the batcher's zero-allocation steady
//! state — the runtime check behind the `tsda_analyze` R3v2/A1 static
//! rules. A counting `#[global_allocator]` wraps the system allocator;
//! after a warm-up pass, a full submit → coalesce → predict → reply →
//! wait round-trip must perform **zero** heap allocations anywhere in
//! the process (connection side, ring, ticket pool, worker scratch,
//! stub predict). A second phase holds the NDJSON augment reply
//! encoder to the same rule: a warm reply buffer takes a whole series.
//! A third holds the served models to it: ROCKET, MiniRocket and ridge,
//! each fitted, saved and loaded as the server does, predict warm
//! batches of 1 and 2 without an allocator call. InceptionTime's layers
//! still return fresh tensors, so its count is printed, not asserted.
//! A fourth serves the same three models from a real `Batcher` lane:
//! a warm round trip of 1 or 2 jobs (`submit` → item steps during the
//! window → the ridge head → `recv`) allocates nothing either.
//!
//! Everything lives in one `#[test]` on purpose: the counter is
//! process-global, and sibling tests in the same binary would run on
//! parallel threads and pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::{
    Classifier, InceptionTime, InceptionTimeConfig, MiniRocket, MiniRocketConfig, RidgeClassifier,
    Rocket, RocketConfig,
};
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Label, Mts};
use tsda_neuro::train::TrainConfig;
use tsda_serve::batcher::{BatchConfig, Batcher};
use tsda_serve::{protocol, ModelEntry, ModelRegistry, PipelineRegistry, ServerStats};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behaviour is a relaxed counter bump, which cannot violate any
// GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to System.realloc with the caller's pointer,
    // layout, and size, all forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still an allocator round-trip the hot
        // path promised not to make.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to System.dealloc with the caller's pointer
    // and layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are not counted: dropping request-owned data is fine;
        // the discipline is about acquiring memory per request.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_batcher_answers_requests_without_allocating() {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::stub("stub", 1, 1, 8));
    let stats = Arc::new(ServerStats::new());
    let batcher = Batcher::start(
        Arc::new(registry),
        Arc::new(PipelineRegistry::new()),
        Arc::clone(&stats),
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(1), queue_cap: 64 },
        None,
    )
    .expect("batch worker starts");

    let template = Mts::from_dims(vec![(0..8).map(|t| t as f64).collect()]);

    // Warm-up: fault in every lazy one-time allocation — worker
    // scratch growth, thread-local init, lazy locale/libc state behind
    // the first condvar timeouts.
    for _ in 0..32 {
        let reply = batcher.submit("stub", template.clone()).expect("queue open").recv();
        assert_eq!(reply.result, Ok(1));
    }

    // The measured requests' series are built (and counted) out here:
    // the request payload is the client's allocation, not the
    // server's.
    let payloads: Vec<Mts> = (0..64).map(|_| template.clone()).collect();

    let before = ALLOCS.load(Ordering::SeqCst);
    for series in payloads {
        let reply = batcher.submit("stub", series).expect("queue open").recv();
        assert_eq!(reply.result, Ok(1));
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "steady-state submit→wait round-trips must not allocate ({during} allocations leaked \
         into the measurement window)"
    );

    // The batcher's own evidence agrees: the warm ticket pool covered
    // every in-flight reply.
    let rows = batcher.queue_stats();
    let row = match &rows {
        serde::Value::Array(rows) => rows[0].clone(),
        other => panic!("queue_stats should be an array, got {other:?}"),
    };
    assert_eq!(row.get("ticket_allocs").and_then(serde::Value::as_f64), Some(0.0));
    assert_eq!(row.get("shed").and_then(serde::Value::as_f64), Some(0.0));
    batcher.shutdown();

    // Reply encoding: an augment reply for a RacketSports-shaped 6×30
    // series (fractional, negative, missing values) into a connection's
    // reused buffer. The first call sizes the buffer; after that every
    // value is formatted in place.
    let series = Mts::from_dims(
        (0..6)
            .map(|d| {
                (0..30)
                    .map(|t| if t == 7 { f64::NAN } else { (d * 30 + t) as f64 * -0.37 + 1e-3 })
                    .collect()
            })
            .collect(),
    );
    let mut reply = String::new();
    protocol::augment_response_into(&mut reply, u64::MAX, "light", &series, 32, u64::MAX);
    let before = ALLOCS.load(Ordering::SeqCst);
    for id in 0..64 {
        reply.clear();
        protocol::augment_response_into(&mut reply, id, "light", &series, 1, 140);
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(during, 0, "a warm augment reply must not allocate ({during} allocations)");

    // Served ROCKET on a 3×30 two-class problem, and MiniRocket
    // (168 features), ridge and InceptionTime (`tsda_serve --fast`
    // configs) on a RacketSports-shaped 6×30 one. The first three are
    // measured twice: one `predict_batch_into` call, and a lane of a
    // real `Batcher`.
    let rocket_train = two_class(3);
    let fit_rocket = || {
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 100, ..RocketConfig::default() });
        rocket.fit(&rocket_train, None, &mut seeded(5));
        rocket
    };
    let offline = fit_rocket().predict(&rocket_train);
    let calls = warm_served_allocs(SavedModel::Rocket(fit_rocket()), &rocket_train, &offline);
    assert_eq!(calls, [0, 0], "a warm served ROCKET predict must not allocate (b1, b2: {calls:?})");
    let calls = warm_lane_allocs(SavedModel::Rocket(fit_rocket()), &rocket_train, &offline);
    assert_eq!(
        calls,
        [0, 0],
        "a warm ROCKET lane round trip must not allocate (b1, b2: {calls:?})"
    );

    let train = two_class(6);
    let fit_minirocket = || {
        let mut minirocket = MiniRocket::new(MiniRocketConfig { n_features: 168 });
        minirocket.fit(&train, None, &mut seeded(5));
        minirocket
    };
    let offline = fit_minirocket().predict(&train);
    let calls = warm_served_allocs(SavedModel::MiniRocket(fit_minirocket()), &train, &offline);
    assert_eq!(calls, [0, 0], "a warm served MiniRocket predict must not allocate (b1, b2: {calls:?})");
    let calls = warm_lane_allocs(SavedModel::MiniRocket(fit_minirocket()), &train, &offline);
    assert_eq!(
        calls,
        [0, 0],
        "a warm MiniRocket lane round trip must not allocate (b1, b2: {calls:?})"
    );

    let rows: Vec<Vec<f64>> = train.series().iter().map(|s| s.as_flat().to_vec()).collect();
    let fit_ridge = || {
        let mut ridge = RidgeClassifier::default();
        ridge.fit_features(&rows, train.labels(), train.n_classes());
        ridge
    };
    let offline = fit_ridge().try_predict_features(&rows).expect("fitted ridge");
    let calls = warm_served_allocs(SavedModel::Ridge(fit_ridge()), &train, &offline);
    assert_eq!(calls, [0, 0], "a warm served ridge predict must not allocate (b1, b2: {calls:?})");
    let calls = warm_lane_allocs(SavedModel::Ridge(fit_ridge()), &train, &offline);
    assert_eq!(calls, [0, 0], "a warm ridge lane round trip must not allocate (b1, b2: {calls:?})");

    let mut inception = InceptionTime::new(InceptionTimeConfig {
        filters: 2,
        depth: 3,
        kernel_sizes: [9, 5, 3],
        ensemble: 1,
        train_fraction: 2.0 / 3.0,
        train: TrainConfig { max_epochs: 3, batch_size: 16, patience: 3, lr: 1e-3 },
        use_lr_range_test: false,
    });
    inception.fit(&train, None, &mut seeded(5));
    let offline = inception.predict(&train);
    let [b1, b2] = warm_served_allocs(SavedModel::InceptionTime(inception), &train, &offline);
    println!(
        "warm served InceptionTime: {} allocator calls per b1 predict, {} per b2 predict \
         ({b1} and {b2} over 8 each)",
        b1 / 8,
        b2 / 8
    );
}

/// A two-class `dims × 30` training set of 16 series.
fn two_class(dims: usize) -> Dataset {
    let mut train = Dataset::empty(2);
    for i in 0..16 {
        let freq = if i % 2 == 0 { 0.3 } else { 0.9 };
        let dims = (0..dims)
            .map(|d| (0..30).map(|t| (t as f64 * freq + d as f64 + i as f64 * 0.1).sin()).collect())
            .collect();
        train.push(Mts::from_dims(dims), i % 2);
    }
    train
}

/// Save and load `model` as the server does, as a registry entry.
fn served_entry(model: &mut SavedModel, train: &Dataset) -> ModelEntry {
    let loaded = load_model_bytes(&model.save_bytes().expect("save")).expect("load");
    let ridge_shape = matches!(loaded, SavedModel::Ridge(_)).then(|| train.series()[0].shape());
    ModelEntry::from_saved(model.kind(), loaded, ridge_shape).expect("fitted model")
}

/// Serve `model`, saved and loaded as the server does, from a lane of a
/// real `Batcher`: 8 warm-up round trips of 1 job and of 2 jobs
/// (`submit` each, then `recv` each), then 8 more of each size, whose
/// labels must equal `offline`. Returns the allocator calls of the 8
/// measured b1 round trips and of the 8 b2 ones. The request series
/// are cloned beforehand: they are the client's allocation.
fn warm_lane_allocs(mut model: SavedModel, train: &Dataset, offline: &[Label]) -> [u64; 2] {
    let kind = model.kind();
    let mut registry = ModelRegistry::new();
    registry.insert(served_entry(&mut model, train));
    // One job waits out its 5 ms window; two fill `max_batch` at once.
    let config = BatchConfig { max_batch: 2, max_wait: Duration::from_millis(5), queue_cap: 8 };
    let batcher = Batcher::start(
        Arc::new(registry),
        Arc::new(PipelineRegistry::new()),
        Arc::new(ServerStats::new()),
        config,
        None,
    )
    .expect("batch worker starts");
    let rounds: Vec<(usize, Vec<Mts>)> = (0..2)
        .flat_map(|_| 0..8)
        .flat_map(|i| [(i, train.series()[i..=i].to_vec()), (i, train.series()[i..i + 2].to_vec())])
        .collect();
    let mut calls = [0; 2];
    for (round, (i, series)) in rounds.into_iter().enumerate() {
        let b = series.len();
        let before = ALLOCS.load(Ordering::SeqCst);
        let mut jobs = series.into_iter().map(|s| batcher.submit(kind, s).expect("queue open"));
        let pending = [jobs.next(), jobs.next()];
        let replies = pending.map(|p| p.map(|p| p.recv()));
        let during = ALLOCS.load(Ordering::SeqCst) - before;
        if round >= 16 {
            calls[b - 1] += during;
        }
        for (j, reply) in replies.iter().flatten().enumerate() {
            assert_eq!(reply.result, Ok(offline[i + j]), "{kind}, b{b}, series {}", i + j);
            assert_eq!(reply.batch_size, b, "{kind}: the round trip's jobs share one batch");
        }
    }
    batcher.shutdown();
    calls
}

/// Save and load `model` as the server does, warm it on batches of 1
/// and 2 of `train`'s series, then predict 8 more of each size, whose
/// labels must equal `offline`: the allocator calls of the 8 predicts
/// at b1 and of the 8 at b2.
fn warm_served_allocs(mut model: SavedModel, train: &Dataset, offline: &[Label]) -> [u64; 2] {
    let entry = served_entry(&mut model, train);
    let batches: Vec<&[Mts]> = (0..8).flat_map(|i| [&train.series()[i..=i], &train.series()[i..i + 2]]).collect();
    let mut labels = Vec::with_capacity(2);
    for batch in &batches {
        entry.predict_batch_into(batch, &mut labels).expect("predict");
    }
    let mut calls = [0; 2];
    for (i, batch) in batches.iter().enumerate() {
        let before = ALLOCS.load(Ordering::SeqCst);
        entry.predict_batch_into(batch, &mut labels).expect("predict");
        calls[i % 2] += ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(labels, offline[i / 2..i / 2 + batch.len()], "{}", model.kind());
    }
    calls
}
