//! The experiment grid: dataset × augmentation × model × runs,
//! implementing the paper's protocol (§IV-C/D):
//!
//! * the archive's train/test division is fixed;
//! * each augmentation technique balances the training set perfectly;
//! * InceptionTime validates on a stratified split of the *original*
//!   training data — augmented series never enter validation;
//! * accuracies are averaged over `runs` seeded runs (paper: 5);
//! * the per-dataset "Improvement (%)" column is the relative gain
//!   (Eq. 3) of the best augmented variant over the baseline.

use crate::scale::ScaleProfile;
use serde::Serialize;
use tsda_augment::balance::augment_to_balance;
use tsda_augment::taxonomy::PaperTechnique;
use tsda_classify::inception::InceptionTime;
use tsda_classify::rocket::Rocket;
use tsda_classify::traits::Classifier;
use tsda_core::metrics::relative_gain;
use tsda_core::rng::{derive_seed, seeded};
use tsda_core::Dataset;
use tsda_datasets::registry::{DatasetMeta, ALL_DATASETS};
use tsda_datasets::synth::generate;

/// Which baseline model the grid trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// ROCKET + ridge (Table IV).
    Rocket,
    /// InceptionTime (Table V).
    InceptionTime,
}

impl ModelKind {
    /// Table-header label.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Rocket => "ROCKET",
            ModelKind::InceptionTime => "InceptionTime",
        }
    }

    fn build(self, profile: ScaleProfile) -> Box<dyn Classifier> {
        match self {
            ModelKind::Rocket => Box::new(Rocket::new(profile.rocket())),
            ModelKind::InceptionTime => Box::new(InceptionTime::new(profile.inception())),
        }
    }

    /// Whether this model consumes a validation split (the paper's
    /// InceptionTime protocol).
    fn uses_validation(self) -> bool {
        matches!(self, ModelKind::InceptionTime)
    }
}

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Scale profile.
    pub profile: ScaleProfile,
    /// Master seed.
    pub seed: u64,
    /// Runs to average (paper: 5).
    pub runs: usize,
    /// Model under test.
    pub model: ModelKind,
    /// Restrict to these dataset names (empty = all 13).
    pub datasets: Vec<String>,
}

/// Result row for one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct GridResult {
    /// Dataset name.
    pub dataset: String,
    /// Baseline accuracy (%) averaged over runs.
    pub baseline: f64,
    /// Per-technique accuracy (%), Table IV/V column order.
    pub technique_acc: Vec<(String, f64)>,
    /// Relative improvement (%) of the best technique over baseline
    /// (Eq. 3 × 100; negative when nothing improves).
    pub improvement_pct: f64,
}

/// Run one (dataset, model) cell: baseline + the five paper techniques.
///
/// The `runs × (1 + techniques)` grid cells are embarrassingly
/// parallel — every cell's RNG is derived from the master seed and the
/// cell's own labels — so they are fanned out on the shared pool. The
/// accuracies match the old serial loop exactly for any thread count;
/// log messages are collected per cell and emitted in deterministic
/// order after the cells join.
pub fn run_dataset(
    meta: &DatasetMeta,
    cfg: &GridConfig,
    log: &mut dyn FnMut(&str),
) -> GridResult {
    let data = generate(meta, &cfg.profile.gen_options(cfg.seed));
    let n_variants = PaperTechnique::ALL.len() + 1;

    // Per-run training/validation splits, derived serially so the RNG
    // use is identical to the historical per-run loop. The validation
    // split is cut from the ORIGINAL training data once per run;
    // augmentation only ever sees the training part.
    let splits: Vec<(u64, Dataset, Option<Dataset>)> = (0..cfg.runs)
        .map(|run| {
            let run_seed =
                derive_seed(cfg.seed, &format!("{}/{}/run{run}", meta.name, cfg.model.label()));
            let (fit_train, validation) = if cfg.model.uses_validation() {
                let mut rng = seeded(derive_seed(run_seed, "valsplit"));
                let (tr, val) = data.train.stratified_split(2.0 / 3.0, &mut rng);
                (tr, Some(val))
            } else {
                (data.train.clone(), None)
            };
            (run_seed, fit_train, validation)
        })
        .collect();

    // Cell index → (run, variant); variant 0 is the baseline, 1.. the
    // paper techniques. Each cell returns (accuracy %, warning).
    let cells = tsda_core::parallel::Pool::global().par_map_indexed(
        cfg.runs * n_variants,
        |idx| -> (f64, Option<String>) {
            let (run_seed, fit_train, validation) = &splits[idx / n_variants];
            let variant = idx % n_variants;
            let mut model = cfg.model.build(cfg.profile);
            if variant == 0 {
                let mut rng = seeded(derive_seed(*run_seed, "baseline"));
                let acc = model.fit_score(fit_train, validation.as_ref(), &data.test, &mut rng);
                return (acc * 100.0, None);
            }
            let technique = &PaperTechnique::ALL[variant - 1];
            let aug = technique.build(cfg.profile.paper_augmenters());
            let mut aug_rng = seeded(derive_seed(*run_seed, technique.label()));
            let mut warning = None;
            let augmented = match augment_to_balance(fit_train, aug.as_ref(), &mut aug_rng) {
                Ok(ds) => ds,
                Err(e) => {
                    warning = Some(format!(
                        "  ! {} on {}: {e}; falling back to original training set",
                        technique.label(),
                        meta.name
                    ));
                    fit_train.clone()
                }
            };
            let mut rng = seeded(derive_seed(*run_seed, &format!("fit/{}", technique.label())));
            let acc = model.fit_score(&augmented, validation.as_ref(), &data.test, &mut rng);
            (acc * 100.0, warning)
        },
    );

    let mut baseline_accs = Vec::with_capacity(cfg.runs);
    let mut technique_accs: Vec<Vec<f64>> = vec![Vec::new(); PaperTechnique::ALL.len()];
    for (run, run_cells) in cells.chunks(n_variants).enumerate() {
        for (variant, (acc, warning)) in run_cells.iter().enumerate() {
            if let Some(w) = warning {
                log(w);
            }
            if variant == 0 {
                baseline_accs.push(*acc);
            } else {
                technique_accs[variant - 1].push(*acc);
            }
        }
        log(&format!("  {} run {}/{} done", meta.name, run + 1, cfg.runs));
    }

    let mean = |v: &[f64]| tsda_core::math::sum_stable(v.iter().copied()) / v.len().max(1) as f64;
    let baseline = mean(&baseline_accs);
    let technique_acc: Vec<(String, f64)> = PaperTechnique::ALL
        .iter()
        .zip(&technique_accs)
        .map(|(t, accs)| (t.label().to_string(), mean(accs)))
        .collect();
    let best = technique_acc
        .iter()
        .map(|(_, a)| *a)
        .fold(f64::NEG_INFINITY, f64::max);
    GridResult {
        dataset: meta.name.to_string(),
        baseline,
        technique_acc,
        improvement_pct: relative_gain(baseline, best) * 100.0,
    }
}

/// Run the whole grid for the configured model.
pub fn run_grid(cfg: &GridConfig, log: &mut dyn FnMut(&str)) -> Vec<GridResult> {
    ALL_DATASETS
        .iter()
        .filter(|m| cfg.datasets.is_empty() || cfg.datasets.iter().any(|d| d == m.name))
        .map(|m| {
            log(&format!("dataset {}", m.name));
            run_dataset(m, cfg, log)
        })
        .collect()
}

/// Parse `--datasets a,b,c` from CLI args.
pub fn parse_datasets(args: &[String]) -> Vec<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--datasets" {
            if let Some(v) = it.next() {
                return v.split(',').map(|s| s.trim().to_string()).collect();
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsda_datasets::registry::DatasetId;

    fn quiet() -> impl FnMut(&str) {
        |_: &str| {}
    }

    #[test]
    fn rocket_cell_produces_complete_row() {
        let cfg = GridConfig {
            profile: ScaleProfile::Ci,
            seed: 3,
            runs: 1,
            model: ModelKind::Rocket,
            datasets: vec![],
        };
        let meta = DatasetMeta::get(DatasetId::RacketSports);
        let mut log = quiet();
        let row = run_dataset(meta, &cfg, &mut log);
        assert_eq!(row.dataset, "RacketSports");
        assert_eq!(row.technique_acc.len(), 5);
        assert!(row.baseline > 25.0, "baseline {}", row.baseline); // beats 4-class chance
        assert!(row.technique_acc.iter().all(|(_, a)| (0.0..=100.0).contains(a)));
    }

    #[test]
    fn improvement_sign_matches_best_technique() {
        let cfg = GridConfig {
            profile: ScaleProfile::Ci,
            seed: 5,
            runs: 1,
            model: ModelKind::Rocket,
            datasets: vec![],
        };
        let meta = DatasetMeta::get(DatasetId::Epilepsy);
        let mut log = quiet();
        let row = run_dataset(meta, &cfg, &mut log);
        let best = row
            .technique_acc
            .iter()
            .map(|(_, a)| *a)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best > row.baseline, row.improvement_pct > 0.0);
    }

    #[test]
    fn parse_datasets_splits_on_comma() {
        let args: Vec<String> = ["--datasets", "LSST,Epilepsy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_datasets(&args), vec!["LSST", "Epilepsy"]);
        assert!(parse_datasets(&[]).is_empty());
    }

    #[test]
    fn grid_respects_dataset_filter() {
        let cfg = GridConfig {
            profile: ScaleProfile::Ci,
            seed: 9,
            runs: 1,
            model: ModelKind::Rocket,
            datasets: vec!["RacketSports".into()],
        };
        let mut log = quiet();
        let rows = run_grid(&cfg, &mut log);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].dataset, "RacketSports");
    }
}
