//! The metric catalogue — names and units, kept equal to the
//! repository's `BENCHMARK.json` by a test — and the report printer.

use crate::{Args, Workload};
use serde::Value;
use std::collections::BTreeMap;

/// One metric a run can report.
pub struct MetricDef {
    /// Stable name later issues cite.
    pub name: &'static str,
    /// Unit printed next to the value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("latency_p50_us", "us"),
    m("latency_p99_us", "us"),
    m("throughput_rps", "1/s"),
    m("ok_rate", "ratio"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// One layer each; printed by the serving workloads with `--trace 1`.
/// README.md says which end-to-end metric each should move, on which
/// workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("wire.req_bytes", "count"),
    m("wire.reply_bytes", "count"),
    m("wire.req_encode_us", "us"),
    m("wire.reply_decode_us", "us"),
    m("wire.req_decode_us", "us"),
    m("wire.reply_encode_us", "us"),
    m("server.outside_p50_us", "us"),
    m("server.outside_p99_us", "us"),
    m("batcher.server_p50_us", "us"),
    m("batcher.server_p99_us", "us"),
    m("batcher.batch_mean", "count"),
    m("batcher.queue_wait_us", "us"),
    m("batcher.handoff_us", "us"),
    m("batcher.shed", "count"),
    m("batcher.ticket_allocs", "count"),
    m("model.rocket.b1_us", "us"),
    m("model.rocket.b2_us", "us"),
    m("model.rocket.transform_us", "us"),
    m("model.inception.b1_us", "us"),
    m("augment.apply_us", "us"),
    m("augment.verify_us", "us"),
    m("router.hop_us", "us"),
    m("router.replica_share", "ratio"),
    m("router.restarts", "count"),
    m("trace.remainder_us", "us"),
    m("trace.overhead_us", "us"),
];

/// The per-layer set of `gr-offline`, which is not in `BENCHMARK.json`
/// (README.md says why).
pub const GR_LAYER: &[MetricDef] = &[
    m("gr.augment_s", "s"),
    m("gr.transform_s", "s"),
    m("gr.ridge_fit_s", "s"),
    m("gr.eig_s", "s"),
    m("gr.predict_s", "s"),
    m("pool.transform_speedup", "ratio"),
    m("trace.remainder_us", "us"),
    m("trace.overhead_us", "us"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations in the measured window (requests, or G_r cells).
    pub attempted: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// Extra report lines: sample counts, the metrics the JSON line does
    /// not carry, where the trace went.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric of any catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(GR_LAYER)
                .any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A recorded metric, if the run measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Add a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The metrics a run prints: end-to-end untraced, per-layer traced.
pub fn selected(workload: Workload, trace: bool) -> &'static [MetricDef] {
    match (trace, workload) {
        (false, _) => END_TO_END,
        (true, Workload::GrOffline) => GR_LAYER,
        (true, _) => PER_LAYER,
    }
}

/// Print the human-readable report, then the JSON result as the last
/// line of standard output.
pub fn print(args: &Args, stamp: &str, outcome: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env {stamp}");
    for line in &outcome.notes {
        println!("note {line}");
    }
    for def in selected(args.workload, args.trace) {
        match outcome.get(def.name) {
            Some(v) => println!("{:<28} {:>16.4} {}", def.name, v, def.unit),
            // Per-layer metrics of a layer this workload never reaches.
            None => println!(
                "{:<28} {:>16} {} (layer not used by this workload)",
                def.name, 0, def.unit
            ),
        }
    }
    for p in &outcome.problems {
        println!("FAILED {p}");
    }
    println!(
        "{}",
        json_line(selected(args.workload, args.trace), outcome)
    );
}

/// The result object: `correct`, `attempted`, `failed` and the `set`
/// metrics, each `{"value", "unit"}`. A metric the workload does not
/// reach reads 0; a non-finite value (a percentile over failed requests)
/// is clamped to the largest finite number, since JSON has no infinity.
pub fn json_line(set: &[MetricDef], outcome: &Outcome) -> String {
    let metrics = set
        .iter()
        .map(|def| {
            let v = outcome.get(def.name).unwrap_or(0.0);
            let v = if v.is_nan() {
                0.0
            } else {
                v.clamp(f64::MIN, f64::MAX)
            };
            (
                def.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Num(v)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::Num(outcome.attempted as f64),
        ),
        ("failed".to_string(), Value::Num(outcome.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(rows)) = doc.get(key) else {
            panic!("{key} missing")
        };
        rows.iter()
            .map(|r| {
                let s = |k: &str| r.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_units(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), catalogue(PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        // gr-offline runs on demand only (README.md, "Workloads").
        let ours: Vec<&str> = Workload::ALL
            .iter()
            .filter(|&&w| w != Workload::GrOffline)
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn json_line_carries_every_selected_metric() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        o.set("latency_p50_us", 2631.5);
        o.set("latency_p99_us", f64::INFINITY);
        let line = json_line(selected(Workload::PredictClosed, false), &o);
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let metrics = v.get("metrics").expect("metrics");
        for def in END_TO_END {
            let m = metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{} missing", def.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
        }
        let p50 = metrics
            .get("latency_p50_us")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(p50, Some(2631.5));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        assert!(o.correct());
        o.check(false, || "label mismatch".to_string());
        assert!(!o.correct());
        assert!(json_line(PER_LAYER, &o).starts_with("{\"correct\":false"));
    }
}
