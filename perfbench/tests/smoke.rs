//! A seconds-long run of every workload, untraced and traced, through
//! the real binaries: each must pass its correctness checks and print
//! every metric of its set on the last line.
//!
//! The served binaries must sit in the `release` directory of the target
//! directory this test was built into — `python3 perfbench/run.py`
//! builds them there — so run, from the repository root:
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "predict-closed",
    "augment-ndjson",
    "predict-router",
    "gr-offline",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .to_path_buf()
}

/// `<target>/release`, derived from where cargo put the benchmark binary.
fn release_dir() -> PathBuf {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("target directory");
    target.join("release")
}

fn metric_names(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(rows)) = doc.get(key) else {
        panic!("{key} missing")
    };
    rows.iter()
        .map(|r| {
            r.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    let bins = release_dir();
    for bin in ["tsda_serve", "tsda_router"] {
        assert!(
            bins.join(bin).exists(),
            "{bin} is not in {} — build it first with python3 perfbench/run.py",
            bins.display()
        );
    }
    let work = bins
        .parent()
        .expect("target directory")
        .join("perfbench-smoke");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .arg("--bin-dir")
                .arg(&bins)
                .arg("--work-dir")
                .arg(&work)
                .current_dir(repo_root())
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{last}"
            );
            assert!(result
                .get("attempted")
                .and_then(Value::as_f64)
                .is_some_and(|n| n >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            // gr-offline is not in BENCHMARK.json; its traced run reports
            // the G_r layers instead.
            let names = if workload == "gr-offline" && trace == "1" {
                [
                    "gr.augment_s",
                    "gr.transform_s",
                    "gr.ridge_fit_s",
                    "gr.eig_s",
                    "gr.predict_s",
                ]
                .map(String::from)
                .to_vec()
            } else {
                metric_names(key)
            };
            for name in names {
                assert!(
                    metrics.get(&name).is_some(),
                    "{workload} trace={trace}: {name} missing"
                );
            }
        }
    }
}
