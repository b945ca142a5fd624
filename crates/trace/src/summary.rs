//! Machine-readable run summaries (JSON) consumed by EXPERIMENTS.md tooling
//! and the cross-experiment comparison scripts.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::JsonValue;

/// Summary of one experiment run: scalar metrics plus free-form notes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Experiment id (e.g. "fig11", "table1/T1/kmax2").
    pub experiment: String,
    /// Key parameters of the run.
    pub params: BTreeMap<String, String>,
    /// Scalar results.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form notes (substitutions, caveats).
    pub notes: Vec<String>,
}

impl RunSummary {
    /// New summary for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        RunSummary {
            experiment: experiment.into(),
            ..Default::default()
        }
    }

    /// Record a parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Record a scalar metric.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Write JSON to `path`, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Read a summary back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = crate::json::parse(text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// Lower into the JSON value model.
    pub fn to_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("experiment".into(), JsonValue::Str(self.experiment.clone())),
            (
                "params".into(),
                JsonValue::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                JsonValue::Arr(
                    self.notes
                        .iter()
                        .map(|n| JsonValue::Str(n.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstruct from the JSON value model.
    pub fn from_value(v: &JsonValue) -> Result<Self, String> {
        let experiment = v
            .get("experiment")
            .and_then(JsonValue::as_str)
            .ok_or("summary: missing 'experiment'")?
            .to_string();
        let mut params = BTreeMap::new();
        for (k, val) in v.get("params").and_then(JsonValue::as_obj).unwrap_or(&[]) {
            let s = val
                .as_str()
                .ok_or_else(|| format!("summary: param '{k}' is not a string"))?;
            params.insert(k.clone(), s.to_string());
        }
        let mut metrics = BTreeMap::new();
        for (k, val) in v.get("metrics").and_then(JsonValue::as_obj).unwrap_or(&[]) {
            let n = val
                .as_num()
                .ok_or_else(|| format!("summary: metric '{k}' is not a number"))?;
            metrics.insert(k.clone(), n);
        }
        let mut notes = Vec::new();
        for note in v.get("notes").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            notes.push(
                note.as_str()
                    .ok_or("summary: note is not a string")?
                    .to_string(),
            );
        }
        Ok(RunSummary {
            experiment,
            params,
            metrics,
            notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut s = RunSummary::new("fig11");
        s.param("k_max", 2)
            .metric("efficiency", 0.9977)
            .note("shaper substitution");
        let json = s.to_json();
        let back = RunSummary::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn file_round_trip() {
        let mut s = RunSummary::new("t");
        s.metric("x", 1.0);
        let path = std::env::temp_dir()
            .join(format!("laqa_summary_{}", std::process::id()))
            .join("s.json");
        s.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunSummary::from_json(&text).unwrap(), s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_chains() {
        let mut s = RunSummary::new("x");
        s.param("a", "1")
            .param("b", 2.5)
            .metric("m", 3.0)
            .note("n1")
            .note("n2");
        assert_eq!(s.params.len(), 2);
        assert_eq!(s.metrics.len(), 1);
        assert_eq!(s.notes.len(), 2);
    }
}
