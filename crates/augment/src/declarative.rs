//! Declarative augmentation pipelines: a config-parseable description
//! of ordered stages, each with an apply probability and a pool of
//! techniques to choose from, executed as a pure function of
//! `(seed, sample index)`.
//!
//! The paper evaluates techniques one at a time and names conjunctive
//! application as future work (§IV-F). This module is that composition,
//! sequential stages and a seeded choice within each: a pipeline is
//! parsed from a TOML subset (same line-based shape as `analyze.toml`),
//! every per-sample decision draws its RNG from
//! [`tsda_core::rng::derive_stream`], and batched execution runs on the
//! shared compute pool offline and on the calling thread when served —
//! so the output for sample `i` never depends on worker count, batch
//! boundaries, or which server replica ran it.
//!
//! # Config format
//!
//! ```toml
//! [pipeline]
//! name = "light"
//!
//! [[stage]]
//! choose = ["jitter", "scaling"]
//! prob = 0.8
//! ```
//!
//! A `[pipeline]` header starts a pipeline; each `[[stage]]` attaches
//! an ordered stage to the most recent pipeline. `choose` lists the
//! technique pool (one is picked per sample, seeded); `prob` is the
//! per-sample probability the stage applies at all (default `1.0`).
//! `#` starts a comment. All errors are typed
//! [`TsdaError::Parse`] values carrying the 1-based line — the parser
//! never panics, whatever the input bytes.

use crate::basic::frequency::{AmplitudePerturb, PhasePerturb, SpecAugmentMask};
use crate::basic::time::{
    Dropout, Jitter, MagnitudeWarp, Masking, NoiseInjection, Permutation, Pooling,
    Rotation, Scaling, Slicing, TimeWarp, WindowWarp,
};
use crate::SeriesTransform;
use rand::Rng;
use std::fmt;
use tsda_core::parallel::Pool;
use tsda_core::rng::{derive_stream, seeded};
use tsda_core::{Mts, TsdaError};

/// Stage names resolvable in a pipeline config, sorted.
///
/// `noise` is the paper's `noise_1`; the `noise_3` / `noise_5` aliases
/// select the stronger Table IV/V variants. Techniques that need the
/// whole dataset rather than one series (EMDA mixing, SMOTE, range
/// noise, guided warping, the generative models) are [`crate::Augmenter`]s, not
/// per-series transforms, so they cannot appear as pipeline stages.
pub const KNOWN_STAGES: &[&str] = &[
    "amplitude_perturb",
    "dropout",
    "jitter",
    "magnitude_warp",
    "masking",
    "noise",
    "noise_1",
    "noise_3",
    "noise_5",
    "permutation",
    "phase_perturb",
    "pooling",
    "rotation",
    "scaling",
    "slicing",
    "specaugment",
    "time_warp",
    "window_warp",
];

/// Build the transform a stage name denotes, or `None` for unknown
/// names (the parser rejects those with a line number first).
fn build_stage(name: &str) -> Option<Box<dyn SeriesTransform + Send + Sync>> {
    Some(match name {
        "amplitude_perturb" => Box::new(AmplitudePerturb::default()),
        "dropout" => Box::new(Dropout::default()),
        "jitter" => Box::new(Jitter::default()),
        "magnitude_warp" => Box::new(MagnitudeWarp::default()),
        "masking" => Box::new(Masking::default()),
        "noise" | "noise_1" => Box::new(NoiseInjection::level(1.0)),
        "noise_3" => Box::new(NoiseInjection::level(3.0)),
        "noise_5" => Box::new(NoiseInjection::level(5.0)),
        "permutation" => Box::new(Permutation::default()),
        "phase_perturb" => Box::new(PhasePerturb::default()),
        "pooling" => Box::new(Pooling::default()),
        "rotation" => Box::new(Rotation),
        "scaling" => Box::new(Scaling::default()),
        "slicing" => Box::new(Slicing::default()),
        "specaugment" => Box::new(SpecAugmentMask::default()),
        "time_warp" => Box::new(TimeWarp::default()),
        "window_warp" => Box::new(WindowWarp::default()),
        _ => return None,
    })
}

/// One declarative stage: a technique pool and an apply probability.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Technique pool; one member is picked per sample, seeded.
    pub choose: Vec<String>,
    /// Per-sample probability in `[0, 1]` that the stage applies.
    pub prob: f64,
}

/// One named pipeline: ordered stages applied front to back.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Registry name (identifier characters only).
    pub name: String,
    /// Ordered stages.
    pub stages: Vec<StageSpec>,
}

/// A parsed pipeline config file: one or more named pipelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineConfig {
    /// Pipelines in file order.
    pub pipelines: Vec<PipelineSpec>,
}

fn perr(line: usize, message: impl Into<String>) -> TsdaError {
    TsdaError::Parse { line, message: message.into() }
}

/// Identifier charset shared by pipeline and stage names; keeps the
/// canonical [`fmt::Display`] form unambiguous (no quote or comment
/// characters can appear inside a string).
fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Parse a `"quoted"` string (no escape sequences in this subset).
fn parse_string(value: &str, line: usize) -> Result<String, TsdaError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| perr(line, format!("expected a quoted string, got `{value}`")))?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(perr(line, "string escapes are not supported"));
    }
    Ok(inner.to_string())
}

/// Parse a `["a", "b"]` array of quoted strings.
fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, TsdaError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| perr(line, format!("expected a string array, got `{value}`")))?;
    if inner.trim().is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_string(item.trim(), line))
        .collect()
}

impl PipelineConfig {
    /// Parse the TOML subset described in the module docs.
    ///
    /// Never panics: every malformed input yields a
    /// [`TsdaError::Parse`] with the offending 1-based line.
    pub fn parse(text: &str) -> Result<Self, TsdaError> {
        #[derive(PartialEq)]
        enum Ctx {
            Top,
            Pipeline,
            Stage,
        }
        let mut cfg = PipelineConfig::default();
        let mut header_lines: Vec<usize> = Vec::new();
        let mut ctx = Ctx::Top;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[pipeline]" {
                cfg.pipelines
                    .push(PipelineSpec { name: String::new(), stages: Vec::new() });
                header_lines.push(line_no);
                ctx = Ctx::Pipeline;
                continue;
            }
            if line == "[[stage]]" {
                let Some(p) = cfg.pipelines.last_mut() else {
                    return Err(perr(line_no, "[[stage]] before any [pipeline] section"));
                };
                p.stages.push(StageSpec { choose: Vec::new(), prob: 1.0 });
                ctx = Ctx::Stage;
                continue;
            }
            if line.starts_with('[') {
                return Err(perr(line_no, format!("unknown section `{line}`")));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(perr(line_no, format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            match (&ctx, key) {
                (Ctx::Top, _) => {
                    return Err(perr(line_no, format!("key `{key}` outside any section")));
                }
                (Ctx::Pipeline, "name") => {
                    let name = parse_string(value, line_no)?;
                    if !is_ident(&name) {
                        return Err(perr(
                            line_no,
                            format!("pipeline name {name:?} is not an identifier"),
                        ));
                    }
                    let taken = cfg.pipelines[..cfg.pipelines.len() - 1]
                        .iter()
                        .any(|p| p.name == name);
                    if taken {
                        return Err(perr(line_no, format!("duplicate pipeline name {name:?}")));
                    }
                    // `last_mut` cannot fail in Ctx::Pipeline, but stay
                    // panic-free under the P1 rule regardless.
                    if let Some(p) = cfg.pipelines.last_mut() {
                        p.name = name;
                    }
                }
                (Ctx::Stage, "choose") => {
                    let names = parse_string_array(value, line_no)?;
                    if names.is_empty() {
                        return Err(perr(line_no, "stage `choose` pool is empty"));
                    }
                    for n in &names {
                        if !KNOWN_STAGES.contains(&n.as_str()) {
                            return Err(perr(line_no, format!("unknown stage name {n:?}")));
                        }
                    }
                    if let Some(s) =
                        cfg.pipelines.last_mut().and_then(|p| p.stages.last_mut())
                    {
                        s.choose = names;
                    }
                }
                (Ctx::Stage, "prob") => {
                    let prob: f64 = value.parse().map_err(|_| {
                        perr(line_no, format!("`prob` is not a number: `{value}`"))
                    })?;
                    if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
                        return Err(perr(
                            line_no,
                            format!("`prob` must be in [0, 1], got {prob}"),
                        ));
                    }
                    if let Some(s) =
                        cfg.pipelines.last_mut().and_then(|p| p.stages.last_mut())
                    {
                        s.prob = prob;
                    }
                }
                (_, key) => {
                    return Err(perr(line_no, format!("unknown key `{key}` in this section")));
                }
            }
        }
        for (p, header) in cfg.pipelines.iter().zip(&header_lines) {
            if p.name.is_empty() {
                return Err(perr(*header, "pipeline has no `name`"));
            }
            if p.stages.is_empty() {
                return Err(perr(*header, format!("pipeline {:?} has no stages", p.name)));
            }
            for s in &p.stages {
                if s.choose.is_empty() {
                    return Err(perr(
                        *header,
                        format!("pipeline {:?} has a stage with no `choose`", p.name),
                    ));
                }
            }
        }
        Ok(cfg)
    }
}

impl fmt::Display for PipelineConfig {
    /// Canonical form: parsing the output reproduces the config exactly
    /// (`{}` on an `f64` prints the shortest round-trip representation).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.pipelines.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            writeln!(f, "[pipeline]")?;
            writeln!(f, "name = \"{}\"", p.name)?;
            for s in &p.stages {
                writeln!(f)?;
                writeln!(f, "[[stage]]")?;
                let pool: Vec<String> = s.choose.iter().map(|c| format!("\"{c}\"")).collect();
                writeln!(f, "choose = [{}]", pool.join(", "))?;
                writeln!(f, "prob = {}", s.prob)?;
            }
        }
        Ok(())
    }
}

/// One built stage: resolved technique pool plus the seed-derivation
/// label (fixed at construction so the hot path allocates nothing for
/// stream derivation).
struct BuiltStage {
    label: String,
    prob: f64,
    choose: Vec<Box<dyn SeriesTransform + Send + Sync>>,
}

/// An executable pipeline: a pure function of `(seed, sample index)`.
///
/// Each stage draws its per-sample RNG from
/// [`derive_stream`]`(seed, "{name}/stage{i}", index)`, so the output
/// for a sample depends only on the master seed and the sample's index
/// — never on pool worker count, batch composition, or which process
/// runs it. This is what makes the served `augment` endpoint
/// bit-identical to offline execution.
pub struct AugPipeline {
    name: String,
    stages: Vec<BuiltStage>,
}

impl AugPipeline {
    /// Build from a validated spec.
    ///
    /// Errors on unknown stage names, an empty pool, or an apply
    /// probability outside `[0, 1]` (specs from
    /// [`PipelineConfig::parse`] are already clean; this re-validates
    /// for hand-built specs).
    pub fn from_spec(spec: &PipelineSpec) -> Result<Self, TsdaError> {
        if spec.stages.is_empty() {
            return Err(TsdaError::InvalidParameter(format!(
                "pipeline {:?} has no stages",
                spec.name
            )));
        }
        let mut stages = Vec::with_capacity(spec.stages.len());
        for (i, s) in spec.stages.iter().enumerate() {
            if !s.prob.is_finite() || !(0.0..=1.0).contains(&s.prob) {
                return Err(TsdaError::InvalidParameter(format!(
                    "pipeline {:?} stage {i}: prob {} outside [0, 1]",
                    spec.name, s.prob
                )));
            }
            let mut choose = Vec::with_capacity(s.choose.len());
            for n in &s.choose {
                choose.push(build_stage(n).ok_or_else(|| {
                    TsdaError::InvalidParameter(format!(
                        "pipeline {:?} stage {i}: unknown stage name {n:?}",
                        spec.name
                    ))
                })?);
            }
            if choose.is_empty() {
                return Err(TsdaError::InvalidParameter(format!(
                    "pipeline {:?} stage {i}: empty choose pool",
                    spec.name
                )));
            }
            stages.push(BuiltStage {
                label: format!("{}/stage{i}", spec.name),
                prob: s.prob,
                choose,
            });
        }
        Ok(Self { name: spec.name.clone(), stages })
    }

    /// Build every pipeline in a parsed config.
    pub fn from_config(cfg: &PipelineConfig) -> Result<Vec<Self>, TsdaError> {
        cfg.pipelines.iter().map(Self::from_spec).collect()
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Transform one sample: the pure function of `(seed, index)`.
    ///
    /// Per stage: one uniform draw decides whether the stage applies
    /// (`u < prob`, so `prob = 1` always fires and `prob = 0` never
    /// does), a second draw picks the technique, and the same RNG then
    /// drives the technique itself.
    pub fn apply_one(&self, series: &Mts, seed: u64, index: u64) -> Mts {
        let mut cur = series.clone();
        for stage in &self.stages {
            let mut rng = seeded(derive_stream(seed, &stage.label, index));
            let u: f64 = rng.gen();
            if u >= stage.prob {
                continue;
            }
            let pick = rng.gen_range(0..stage.choose.len());
            cur = stage.choose[pick].transform(&cur, &mut rng);
        }
        cur
    }

    /// Batched offline execution on the shared pool: sample `i` is
    /// [`Self::apply_one`]`(series[i], seed, i)`, bit-identical at any
    /// worker count.
    #[doc(alias = "tsda::hot")]
    pub fn run(&self, series: &[Mts], seed: u64) -> Vec<Mts> {
        Pool::global().par_map_indexed(series.len(), |i| {
            self.apply_one(&series[i], seed, i as u64)
        })
    }

    /// Batched execution with explicit per-item `(seed, index)` pairs —
    /// the serving path, where one batch mixes requests from different
    /// clients. Output order matches input order and each element is
    /// independent of the batch composition. Runs on the calling
    /// thread: a serving-size batch takes less time than the thread
    /// spawns the pool would make for it.
    #[doc(alias = "tsda::hot")]
    pub fn run_each(&self, items: &[(Mts, u64, u64)]) -> Vec<Mts> {
        items
            .iter()
            .map(|(series, seed, index)| self.apply_one(series, *seed, *index))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"
# two pipelines sharing the file
[pipeline]
name = "light"

[[stage]]
choose = ["jitter", "scaling"]
prob = 0.8

[pipeline]
name = "heavy"

[[stage]]
choose = ["time_warp"]

[[stage]]
choose = ["noise_3", "masking"]
prob = 0.5
"#;

    #[test]
    fn parses_fixture() {
        let cfg = PipelineConfig::parse(FIXTURE).unwrap();
        assert_eq!(cfg.pipelines.len(), 2);
        assert_eq!(cfg.pipelines[0].name, "light");
        assert_eq!(cfg.pipelines[0].stages[0].prob, 0.8);
        assert_eq!(cfg.pipelines[1].stages[0].prob, 1.0);
        assert_eq!(
            cfg.pipelines[1].stages[1].choose,
            vec!["noise_3".to_string(), "masking".to_string()]
        );
    }

    #[test]
    fn display_round_trips() {
        let cfg = PipelineConfig::parse(FIXTURE).unwrap();
        let reparsed = PipelineConfig::parse(&cfg.to_string()).unwrap();
        assert_eq!(cfg, reparsed);
    }

    #[test]
    fn typed_errors_carry_line_numbers() {
        let err = PipelineConfig::parse("[pipeline]\nname = \"p\"\n\n[[stage]]\nchoose = [\"nope\"]\n")
            .unwrap_err();
        match err {
            TsdaError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("nope"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(PipelineConfig::parse("[[stage]]\n").is_err());
        assert!(PipelineConfig::parse("[pipeline]\nname = \"p\"\n[[stage]]\nchoose = [\"jitter\"]\nprob = 1.5\n").is_err());
        assert!(PipelineConfig::parse("[pipeline]\nname = \"p\"\n[[stage]]\nchoose = [\"jitter\"]\nprob = nan\n").is_err());
        assert!(PipelineConfig::parse("[pipeline]\nname = \"p\"\n").is_err());
        assert!(PipelineConfig::parse("[pipeline]\nname = \"p\"\n[[stage]]\n").is_err());
    }

    #[test]
    fn every_known_stage_builds() {
        for n in KNOWN_STAGES {
            assert!(build_stage(n).is_some(), "{n} does not build");
        }
        assert!(build_stage("emda_mix").is_none());
    }

    #[test]
    fn apply_is_pure_in_seed_and_index() {
        let cfg = PipelineConfig::parse(FIXTURE).unwrap();
        let pipes = AugPipeline::from_config(&cfg).unwrap();
        let s = Mts::from_dims(vec![(0..32).map(|t| (t as f64 * 0.3).sin()).collect()]);
        for p in &pipes {
            let a = p.apply_one(&s, 7, 3);
            let b = p.apply_one(&s, 7, 3);
            assert_eq!(a, b, "{} not deterministic", p.name());
            assert_ne!(p.apply_one(&s, 7, 4), a, "{} ignores index", p.name());
            assert_ne!(p.apply_one(&s, 8, 3), a, "{} ignores seed", p.name());
        }
    }

    #[test]
    fn run_matches_apply_one_per_index() {
        let cfg = PipelineConfig::parse(FIXTURE).unwrap();
        let p = &AugPipeline::from_config(&cfg).unwrap()[1];
        let series: Vec<Mts> = (0..9)
            .map(|i| Mts::from_dims(vec![(0..24).map(|t| ((t + i) as f64).cos()).collect()]))
            .collect();
        let batched = p.run(&series, 11);
        for (i, s) in series.iter().enumerate() {
            assert_eq!(batched[i], p.apply_one(s, 11, i as u64));
        }
        // Same input and same (seed, index) pair everywhere: the result
        // must not depend on the position inside the batch.
        let items: Vec<(Mts, u64, u64)> =
            (0..9).map(|_| (series[0].clone(), 11u64, 5u64)).collect();
        let each = p.run_each(&items);
        assert!(each.iter().all(|m| *m == each[0]));
        assert_eq!(each[0], p.apply_one(&series[0], 11, 5));
    }

    #[test]
    fn prob_zero_is_identity_prob_one_always_applies() {
        let spec = PipelineSpec {
            name: "p".into(),
            stages: vec![StageSpec { choose: vec!["noise_5".into()], prob: 0.0 }],
        };
        let p = AugPipeline::from_spec(&spec).unwrap();
        // Noise level scales the per-dimension std, so use a series
        // with nonzero variance.
        let s = Mts::from_dims(vec![(0..16).map(|t| (t as f64 * 0.7).sin()).collect()]);
        assert_eq!(p.apply_one(&s, 1, 0), s);
        let spec1 = PipelineSpec {
            name: "p".into(),
            stages: vec![StageSpec { choose: vec!["noise_5".into()], prob: 1.0 }],
        };
        let p1 = AugPipeline::from_spec(&spec1).unwrap();
        assert_ne!(p1.apply_one(&s, 1, 0), s);
    }

    #[test]
    fn from_spec_rejects_bad_specs() {
        let empty = PipelineSpec { name: "p".into(), stages: vec![] };
        assert!(AugPipeline::from_spec(&empty).is_err());
        let unknown = PipelineSpec {
            name: "p".into(),
            stages: vec![StageSpec { choose: vec!["nope".into()], prob: 1.0 }],
        };
        assert!(AugPipeline::from_spec(&unknown).is_err());
        let bad_prob = PipelineSpec {
            name: "p".into(),
            stages: vec![StageSpec { choose: vec!["jitter".into()], prob: 2.0 }],
        };
        assert!(AugPipeline::from_spec(&bad_prob).is_err());
    }
}
