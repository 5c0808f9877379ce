//! Result persistence: JSON dumps of grid results so Tables IV–VI can be
//! recombined without rerunning, plus a tiny results-directory helper.

use crate::harness::GridResult;
use std::path::{Path, PathBuf};
use tsda_core::TsdaError;

/// The default results directory (`target/tsda-results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from("target").join("tsda-results")
}

/// Write grid results as JSON under the results directory.
pub fn save_results(name: &str, rows: &[GridResult]) -> Result<PathBuf, TsdaError> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows)
        .map_err(|e| TsdaError::Io(format!("serialising results: {e}")))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load previously saved grid results, if present.
pub fn load_results(name: &str) -> Option<Vec<StoredRow>> {
    let path = results_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Deserialised form of [`GridResult`] (kept separate so the stored
/// schema is explicit and versionable).
#[derive(Debug, Clone, serde::Deserialize)]
pub struct StoredRow {
    /// Dataset name.
    pub dataset: String,
    /// Baseline accuracy (%).
    pub baseline: f64,
    /// Technique label → accuracy (%).
    pub technique_acc: Vec<(String, f64)>,
    /// Best-technique relative improvement (%).
    pub improvement_pct: f64,
}

impl StoredRow {
    /// Convert back to a [`GridResult`] for the table formatters.
    pub fn into_grid_result(self) -> GridResult {
        GridResult {
            dataset: self.dataset,
            baseline: self.baseline,
            technique_acc: self.technique_acc,
            improvement_pct: self.improvement_pct,
        }
    }
}

/// Write text to an explicit path, creating parent directories.
pub fn save_text_at(path: &Path, content: &str) -> Result<(), TsdaError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_rows() -> Vec<GridResult> {
        vec![GridResult {
            dataset: "Toy".into(),
            baseline: 80.0,
            technique_acc: vec![("smote".into(), 82.0)],
            improvement_pct: 2.5,
        }]
    }

    #[test]
    fn save_load_round_trips() {
        let rows = fake_rows();
        let path = save_results("unit_test_rows", &rows).unwrap();
        assert!(path.exists());
        let loaded = load_results("unit_test_rows").unwrap();
        assert_eq!(loaded.len(), 1);
        let back = loaded.into_iter().next().unwrap().into_grid_result();
        assert_eq!(back.dataset, "Toy");
        assert_eq!(back.improvement_pct, 2.5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_results_load_as_none() {
        assert!(load_results("definitely_not_there").is_none());
    }
}
