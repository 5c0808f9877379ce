//! Reader/writer for the sktime `.ts` multivariate file layout, so real
//! UCR/UEA archive files can replace the simulator when available.
//!
//! Supported subset (what the archive's multivariate files actually use):
//!
//! ```text
//! #comment lines
//! @problemName Name
//! @timeStamps false
//! @univariate false
//! @classLabel true a b c
//! @data
//! v,v,v:v,v,v:label      <- dimensions separated by ':', values by ','
//! ```
//!
//! Missing values are `?` and map to `NaN`. Class labels may be arbitrary
//! tokens; they are densely re-indexed in first-appearance order of the
//! `@classLabel` declaration.

use std::collections::BTreeMap;
use tsda_core::{Dataset, Mts, TsdaError};

/// A parsed `.ts` file: the dataset plus the original label names.
#[derive(Debug, Clone)]
pub struct TsFile {
    /// The parsed dataset.
    pub dataset: Dataset,
    /// Original class tokens, indexed by dense label.
    pub class_names: Vec<String>,
    /// Problem name from the header, when present.
    pub problem_name: Option<String>,
}

/// Parse `.ts` content from a string.
pub fn parse_ts(content: &str) -> Result<TsFile, TsdaError> {
    let mut class_names: Vec<String> = Vec::new();
    let mut problem_name = None;
    let mut in_data = false;
    let mut series: Vec<Mts> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut name_to_label: BTreeMap<String, usize> = BTreeMap::new();

    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@problemname") {
                problem_name = line.split_whitespace().nth(1).map(str::to_string);
            } else if lower.starts_with("@classlabel") {
                let mut parts = line.split_whitespace();
                let _tag = parts.next();
                let flag = parts.next().unwrap_or("false");
                if flag.eq_ignore_ascii_case("true") {
                    for (i, name) in parts.enumerate() {
                        name_to_label.insert(name.to_string(), i);
                        class_names.push(name.to_string());
                    }
                }
            } else if lower.starts_with("@data") {
                in_data = true;
            }
            // Other @ directives (timeStamps, univariate, …) are accepted
            // and ignored.
            continue;
        }
        // Data line: dim:dim:...:label
        let mut fields: Vec<&str> = line.split(':').collect();
        if fields.len() < 2 {
            return Err(TsdaError::Parse {
                line: lineno,
                message: "data line needs at least one dimension and a label".into(),
            });
        }
        let Some(label_tok) = fields.pop().map(str::trim) else {
            // Guarded by the len >= 2 check above; keep the parser total.
            continue;
        };
        let label = match name_to_label.get(label_tok) {
            Some(&l) => l,
            None => {
                // Undeclared label: extend the mapping (lenient mode).
                let l = class_names.len();
                class_names.push(label_tok.to_string());
                name_to_label.insert(label_tok.to_string(), l);
                l
            }
        };
        series.push(parse_dims(&fields, lineno)?);
        labels.push(label);
    }
    let n_classes = class_names.len().max(labels.iter().map(|&l| l + 1).max().unwrap_or(0));
    let dataset = Dataset::from_parts(series, labels, n_classes)?;
    Ok(TsFile { dataset, class_names, problem_name })
}

/// Parse the dimension fields of one data line (label already removed).
fn parse_dims(fields: &[&str], lineno: usize) -> Result<Mts, TsdaError> {
    let mut dims: Vec<Vec<f64>> = Vec::with_capacity(fields.len());
    for dim_str in fields {
        let vals: Result<Vec<f64>, TsdaError> = dim_str
            .split(',')
            .map(|tok| {
                let tok = tok.trim();
                if tok == "?" {
                    Ok(f64::NAN)
                } else {
                    tok.parse::<f64>().map_err(|_| TsdaError::Parse {
                        line: lineno,
                        message: format!("bad value {tok:?}"),
                    })
                }
            })
            .collect();
        dims.push(vals?);
    }
    if dims.is_empty() || dims[0].is_empty() {
        return Err(TsdaError::Parse { line: lineno, message: "empty series".into() });
    }
    let width = dims[0].len();
    if dims.iter().any(|d| d.len() != width) {
        return Err(TsdaError::Parse {
            line: lineno,
            message: "dimensions of one series differ in length".into(),
        });
    }
    Ok(Mts::from_dims(dims))
}

/// Parse one label-less series in `.ts` data-line layout — dimensions
/// separated by `:`, values by `,`, `?` for missing — e.g.
/// `"1.0,2.0,3.0:0.5,0.5,0.5"` for a 2-dim series of length 3.
///
/// This is the payload format the `tsda-serve` wire protocol uses for
/// predict requests, so serving and archive IO share one parser.
/// Reported error line numbers are always 1.
pub fn parse_series_line(text: &str) -> Result<Mts, TsdaError> {
    let fields: Vec<&str> = text.trim().split(':').collect();
    parse_dims(&fields, 1)
}

/// Serialise one series to the `.ts` data-line layout (no label field);
/// the exact inverse of [`parse_series_line`]. Values are printed with
/// Rust's shortest round-trip float formatting, so parse → format →
/// parse is bit-exact (NaN included, as `?`).
pub fn format_series_line(s: &Mts) -> String {
    let mut out = String::new();
    format_series_into(s, &mut out);
    out
}

/// [`format_series_line`], appended to a caller-owned buffer: each value
/// is written straight into `out`, so a buffer with room to spare takes
/// the whole series without allocating.
pub fn format_series_into(s: &Mts, out: &mut String) {
    use std::fmt::Write;
    for m in 0..s.n_dims() {
        if m > 0 {
            out.push(':');
        }
        for (t, v) in s.dim(m).iter().enumerate() {
            if t > 0 {
                out.push(',');
            }
            if v.is_nan() {
                out.push('?');
            } else {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// Serialise a dataset to `.ts` text. Labels are written as `c<index>`
/// unless names are supplied.
pub fn write_ts(ds: &Dataset, problem_name: &str, class_names: Option<&[String]>) -> String {
    let mut out = String::new();
    out.push_str(&format!("@problemName {problem_name}\n"));
    out.push_str("@timeStamps false\n");
    out.push_str(&format!("@univariate {}\n", ds.n_dims() == 1));
    out.push_str("@classLabel true");
    let names: Vec<String> = match class_names {
        Some(n) => n.to_vec(),
        None => (0..ds.n_classes()).map(|i| format!("c{i}")).collect(),
    };
    for n in &names {
        out.push(' ');
        out.push_str(n);
    }
    out.push_str("\n@data\n");
    for (s, l) in ds.iter() {
        format_series_into(s, &mut out);
        out.push(':');
        out.push_str(&names[l]);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
#UEA-style sample
@problemName Toy
@timeStamps false
@univariate false
@classLabel true up down
@data
1.0,2.0,3.0:10.0,20.0,30.0:up
-1.0,?,-3.0:0.5,0.5,0.5:down
";

    #[test]
    fn parses_header_and_data() {
        let f = parse_ts(SAMPLE).unwrap();
        assert_eq!(f.problem_name.as_deref(), Some("Toy"));
        assert_eq!(f.class_names, vec!["up", "down"]);
        assert_eq!(f.dataset.len(), 2);
        assert_eq!(f.dataset.n_dims(), 2);
        assert_eq!(f.dataset.series_len(), 3);
        assert_eq!(f.dataset.labels(), &[0, 1]);
    }

    #[test]
    fn question_mark_becomes_nan() {
        let f = parse_ts(SAMPLE).unwrap();
        assert!(f.dataset.series()[1].value(0, 1).is_nan());
    }

    #[test]
    fn round_trip_preserves_dataset() {
        let f = parse_ts(SAMPLE).unwrap();
        let text = write_ts(&f.dataset, "Toy", Some(&f.class_names));
        let g = parse_ts(&text).unwrap();
        assert_eq!(g.dataset.len(), f.dataset.len());
        assert_eq!(g.dataset.labels(), f.dataset.labels());
        // Values (NaN-aware comparison).
        for (a, b) in f.dataset.series().iter().zip(g.dataset.series()) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_flat().iter().zip(b.as_flat()) {
                assert!(x == y || (x.is_nan() && y.is_nan()));
            }
        }
    }

    #[test]
    fn bad_value_reports_line() {
        let bad = "@classLabel true a\n@data\n1.0,zzz:a\n";
        let err = parse_ts(bad).unwrap_err();
        assert!(matches!(err, TsdaError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn missing_label_field_is_rejected() {
        let bad = "@classLabel true a\n@data\n1.0,2.0\n";
        assert!(parse_ts(bad).is_err());
    }

    #[test]
    fn undeclared_label_is_accepted_leniently() {
        let text = "@classLabel true a\n@data\n1.0:a\n2.0:b\n";
        let f = parse_ts(text).unwrap();
        assert_eq!(f.class_names, vec!["a", "b"]);
        assert_eq!(f.dataset.n_classes(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "#c\n\n@classLabel true x\n@data\n#not data? no: comments stop at @data\n";
        // After @data a comment line starting with # is still skipped.
        let f = parse_ts(text).unwrap();
        assert_eq!(f.dataset.len(), 0);
    }
}
