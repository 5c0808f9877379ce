//! Scale profiles: the laptop-sized default grid vs. the paper's full
//! protocol. EXPERIMENTS.md records which profile produced each number.

use tsda_classify::inception::InceptionTimeConfig;
use tsda_classify::rocket::RocketConfig;
use tsda_datasets::synth::GenOptions;
use tsda_neuro::train::TrainConfig;

/// How big to run the experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProfile {
    /// Laptop profile: reduced dataset sizes (×0.12, length ≤ 96, dims
    /// ≤ 24), 500 ROCKET kernels, small InceptionTime, short TimeGAN.
    Ci,
    /// The paper's §IV protocol: Table III sizes, 10 000 kernels,
    /// 200-epoch InceptionTime ensemble of 5, TimeGAN 2500/2500/1000.
    Paper,
}

impl ScaleProfile {
    /// Parse from CLI args: `--paper-scale` selects [`ScaleProfile::Paper`].
    pub fn from_args(args: &[String]) -> ScaleProfile {
        if args.iter().any(|a| a == "--paper-scale") {
            ScaleProfile::Paper
        } else {
            ScaleProfile::Ci
        }
    }

    /// Dataset generation options for this profile.
    pub fn gen_options(self, seed: u64) -> GenOptions {
        match self {
            ScaleProfile::Ci => GenOptions::ci(seed),
            ScaleProfile::Paper => GenOptions::paper(seed),
        }
    }

    /// ROCKET configuration for this profile.
    pub fn rocket(self) -> RocketConfig {
        match self {
            ScaleProfile::Ci => RocketConfig { n_kernels: 300 },
            ScaleProfile::Paper => RocketConfig::paper(),
        }
    }

    /// InceptionTime configuration for this profile.
    pub fn inception(self) -> InceptionTimeConfig {
        match self {
            ScaleProfile::Ci => InceptionTimeConfig {
                filters: 4,
                depth: 3,
                kernel_sizes: [19, 9, 5],
                ensemble: 2,
                train: TrainConfig { max_epochs: 50, batch_size: 16, patience: 15, lr: 1e-2 },
                use_lr_range_test: true,
                ..InceptionTimeConfig::default()
            },
            ScaleProfile::Paper => InceptionTimeConfig::paper(),
        }
    }

    /// Whether augmenters should use their paper-scale budgets
    /// (TimeGAN's 2500/2500/1000 iterations).
    pub fn paper_augmenters(self) -> bool {
        matches!(self, ScaleProfile::Paper)
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ScaleProfile::Ci => "ci",
            ScaleProfile::Paper => "paper",
        }
    }
}

/// Parse `--seed <n>` (default 7) and `--runs <n>` (default profile
/// dependent) from CLI args.
pub fn parse_seed_runs(args: &[String], default_runs: usize) -> (u64, usize) {
    let mut seed = 7u64;
    let mut runs = default_runs;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                if let Some(v) = it.next() {
                    seed = v.parse().unwrap_or(seed);
                }
            }
            "--runs" => {
                if let Some(v) = it.next() {
                    runs = v.parse().unwrap_or(runs);
                }
            }
            _ => {}
        }
    }
    (seed, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_flag_is_recognised() {
        let args = vec!["--paper-scale".to_string()];
        assert_eq!(ScaleProfile::from_args(&args), ScaleProfile::Paper);
        assert_eq!(ScaleProfile::from_args(&[]), ScaleProfile::Ci);
    }

    #[test]
    fn seed_and_runs_parse() {
        let args: Vec<String> = ["--seed", "42", "--runs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_seed_runs(&args, 5), (42, 3));
        assert_eq!(parse_seed_runs(&[], 5), (7, 5));
    }

    #[test]
    fn profiles_differ_in_budget() {
        assert!(ScaleProfile::Paper.rocket().n_kernels > ScaleProfile::Ci.rocket().n_kernels);
        assert!(
            ScaleProfile::Paper.inception().ensemble > ScaleProfile::Ci.inception().ensemble
        );
    }
}
