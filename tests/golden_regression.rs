//! Golden-regression suite: the paper tables this repo exists to
//! reproduce must be byte-stable across commits AND across thread
//! counts. Each test renders a table at the ci profile with seed 7,
//! once under a 1-worker pool and once under 4 workers, asserts the two
//! renderings are bit-identical, and then diffs against the committed
//! golden under `tests/goldens/`.
//!
//! When a change *intentionally* moves the numbers (new RNG stream, new
//! technique, different kernel count), regenerate with
//! `TSDA_REGEN_GOLDENS=1 cargo test -p tsda-bench --test golden_regression`
//! and commit the diff — the point is that table drift always shows up
//! in review as a golden-file change, never silently.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tsda_bench::harness::{run_dataset, GridConfig, ModelKind};
use tsda_bench::scale::ScaleProfile;
use tsda_bench::tables::{accuracy_table, table3};
use tsda_core::characteristics::DatasetCharacteristics;
use tsda_core::parallel::ThreadLimit;
use tsda_datasets::registry::ALL_DATASETS;
use tsda_datasets::synth::generate;

/// The goldens are pinned to one (profile, seed) cell so they stay
/// cheap enough for every `cargo test` run.
const SEED: u64 = 7;

/// `ThreadLimit` is process-global; serialize the tests that toggle it.
static LIMIT_LOCK: Mutex<()> = Mutex::new(());

fn goldens_dir() -> PathBuf {
    // Registered from crates/bench/Cargo.toml, so the manifest dir is
    // two levels below the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// First differing line of two renderings, for a readable failure.
fn first_diff(got: &str, want: &str) -> String {
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("first diff at line {}:\n  got:  {g}\n  want: {w}", n + 1);
        }
    }
    format!(
        "line counts differ: got {} lines, want {} lines",
        got.lines().count(),
        want.lines().count()
    )
}

/// Render `compute()` under 1 and 4 pool workers, require the outputs
/// bit-identical, then diff against (or regenerate) the golden file.
fn check_golden(name: &str, compute: impl Fn() -> String) {
    let _guard = LIMIT_LOCK.lock().unwrap();
    ThreadLimit::set(1);
    let single = compute();
    ThreadLimit::set(4);
    let multi = compute();
    ThreadLimit::clear();
    assert_eq!(
        single, multi,
        "{name}: output depends on thread count — {}",
        first_diff(&multi, &single)
    );

    let path = goldens_dir().join(name);
    if std::env::var("TSDA_REGEN_GOLDENS").is_ok() {
        std::fs::write(&path, &single)
            .unwrap_or_else(|e| panic!("writing golden {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with TSDA_REGEN_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        single,
        want,
        "{name} drifted from the committed golden ({}). If the change is \
         intentional, regenerate with TSDA_REGEN_GOLDENS=1 and commit the diff.",
        first_diff(&single, &want)
    );
}

/// Table III over the full 13-dataset archive: pure generation +
/// characteristic computation, fast even at 1 worker.
#[test]
fn table3_ci_seed7_matches_golden_at_1_and_4_threads() {
    check_golden("table3_ci_seed7.txt", || {
        let rows: Vec<(String, DatasetCharacteristics)> = ALL_DATASETS
            .iter()
            .map(|meta| {
                let data = generate(meta, &ScaleProfile::Ci.gen_options(SEED));
                (meta.name.to_string(), DatasetCharacteristics::compute(&data))
            })
            .collect();
        table3(&rows)
    });
}

/// One Table IV row (RacketSports, ROCKET): the full train → augment →
/// evaluate pipeline, pinned to one dataset so the golden run stays in
/// test-suite budget.
#[test]
fn table4_racketsports_ci_seed7_matches_golden_at_1_and_4_threads() {
    check_golden("table4_RacketSports_ci_seed7.txt", || {
        let cfg = GridConfig {
            profile: ScaleProfile::Ci,
            seed: SEED,
            runs: 2,
            model: ModelKind::Rocket,
            datasets: vec!["RacketSports".into()],
        };
        let meta = ALL_DATASETS
            .iter()
            .find(|m| m.name == "RacketSports")
            .expect("RacketSports is in the registry");
        let row = run_dataset(meta, &cfg, &mut |_| {});
        accuracy_table("Table IV (golden row: ci profile, seed 7)", cfg.model.label(), &[row])
    });
}

/// Every value of `vals`, `{:?}`-formatted (shortest round-trip), so a
/// single flipped bit anywhere changes the rendering.
fn render_row<T: std::fmt::Debug>(out: &mut String, name: &str, vals: &[T]) {
    use std::fmt::Write;
    let cells: Vec<String> = vals.iter().map(|v| format!("{v:?}")).collect();
    writeln!(out, "{name} = [{}]", cells.join(", ")).expect("writing to a String");
}

/// The inference and generation paths of the neural layers and of
/// MiniRocket, which no table golden reaches bit for bit: InceptionTime
/// (`tsda_serve --fast` config) probabilities and labels, MiniRocket's
/// 168 features and labels, and one seeded batch from each generative
/// augmenter built on `tsda_neuro` (TimeGAN, VAE, latent-space
/// auto-encoder, diffusion). The held-out set carries one series with
/// missing values, so the imputation on the predict path is pinned
/// too.
#[test]
fn inference_ci_seed7_matches_golden_at_1_and_4_threads() {
    use tsda_augment::generative::latent::LatentSpaceAugmenter;
    use tsda_augment::generative::probabilistic::DiffusionSampler;
    use tsda_augment::generative::timegan::{TimeGan, TimeGanConfig};
    use tsda_augment::generative::vae::VaeAugmenter;
    use tsda_augment::Augmenter;
    use tsda_classify::encode::{dataset_to_tensor3, preprocess_dataset};
    use tsda_classify::{Classifier, InceptionTime, InceptionTimeConfig, MiniRocket, MiniRocketConfig};
    use tsda_core::rng::seeded;
    use tsda_core::{Dataset, Mts};
    use tsda_neuro::train::TrainConfig;

    check_golden("inference_ci_seed7.txt", || {
        let meta = ALL_DATASETS
            .iter()
            .find(|m| m.name == "RacketSports")
            .expect("RacketSports is in the registry");
        let data = generate(meta, &ScaleProfile::Ci.gen_options(SEED));
        let train = &data.train;
        let mut held_out = Dataset::empty(data.test.n_classes());
        for (i, (s, label)) in data.test.iter().enumerate() {
            let mut dims: Vec<Vec<f64>> = (0..s.n_dims()).map(|d| s.dim(d).to_vec()).collect();
            if i == 0 {
                dims[1][0] = f64::NAN;
                dims[1][5] = f64::NAN;
                dims[4][29] = f64::NAN;
            }
            held_out.push(Mts::from_dims(dims), label);
        }
        let mut out = String::new();

        out.push_str("# InceptionTime, tsda_serve --fast config\n");
        let mut inception = InceptionTime::new(InceptionTimeConfig {
            filters: 2,
            depth: 3,
            kernel_sizes: [9, 5, 3],
            ensemble: 1,
            train_fraction: 2.0 / 3.0,
            train: TrainConfig { max_epochs: 3, batch_size: 16, patience: 3, lr: 1e-3 },
            use_lr_range_test: false,
        });
        inception.fit(train, None, &mut seeded(SEED));
        let proba = inception.predict_proba(&dataset_to_tensor3(&held_out));
        let c = proba.shape()[1];
        for (i, row) in proba.data().chunks(c).enumerate() {
            render_row(&mut out, &format!("proba[{i}]"), row);
        }
        render_row(&mut out, "labels", &inception.predict(&held_out));

        out.push_str("# MiniRocket, 168 features\n");
        let mut minirocket = MiniRocket::new(MiniRocketConfig { n_features: 168 });
        minirocket.fit(train, None, &mut seeded(SEED + 1));
        let features = minirocket.transform(&preprocess_dataset(&held_out));
        for (i, row) in features.iter().take(4).enumerate() {
            render_row(&mut out, &format!("transform[{i}]"), row);
        }
        render_row(&mut out, "labels", &minirocket.predict(&held_out));

        let timegan = TimeGan::new(TimeGanConfig {
            hidden: 6,
            latent: 4,
            iters_embedding: 40,
            iters_supervised: 30,
            iters_joint: 20,
            gamma: 1.0,
            lr: 2e-3,
            batch: 8,
        });
        let generators: [(&str, &dyn Augmenter); 4] = [
            ("TimeGan 40/30/20", &timegan),
            ("VaeAugmenter", &VaeAugmenter::default()),
            ("LatentSpaceAugmenter", &LatentSpaceAugmenter::default()),
            ("DiffusionSampler", &DiffusionSampler::default()),
        ];
        for (k, (name, aug)) in generators.into_iter().enumerate() {
            out.push_str(&format!("# {name}, class 0\n"));
            let batch = aug
                .synthesize(train, 0, 2, &mut seeded(SEED + 10 + k as u64))
                .expect("class 0 has members");
            for (i, s) in batch.iter().enumerate() {
                render_row(&mut out, &format!("series[{i}]"), s.as_flat());
            }
        }
        out
    });
}
