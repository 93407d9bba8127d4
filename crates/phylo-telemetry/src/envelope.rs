//! The `BENCH_*.json` envelope a self-gating tool emits: run metadata, the
//! dataset, the gate thresholds, the measured values, and the list of
//! violations (empty = gate passed).
//!
//! Its one writer is `phylo-lint --check` (`BENCH_phylo_lint.json`), whose
//! measures are counts. No envelope carries a timing: wall-clock claims are
//! `benchmark/` metrics, recorded per host in `benchmark/results/`.

use crate::json::JsonValue;

/// Schema identifier stamped into every envelope.
pub const BENCH_SCHEMA: &str = "plf-bench/v1";

/// One gate report in the shared schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnvelope {
    /// Schema identifier ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Gate name (`phylo_lint`).
    pub report: String,
    /// Human-readable dataset description.
    pub dataset: String,
    /// Run metadata (workers, scale factors, repetitions, ...).
    pub run: Vec<(String, JsonValue)>,
    /// Gate thresholds by name.
    pub gates: Vec<(String, f64)>,
    /// Measured values by name.
    pub measured: Vec<(String, JsonValue)>,
    /// Violated gate descriptions; empty means the gate passed.
    pub violations: Vec<String>,
}

impl BenchEnvelope {
    /// Starts an envelope for one gate run.
    pub fn new(report: &str, dataset: &str) -> Self {
        Self {
            schema: BENCH_SCHEMA.to_string(),
            report: report.to_string(),
            dataset: dataset.to_string(),
            run: Vec::new(),
            gates: Vec::new(),
            measured: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Adds a numeric run-metadata entry.
    pub fn run_num(mut self, key: &str, value: f64) -> Self {
        self.run.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Adds a string run-metadata entry.
    pub fn run_str(mut self, key: &str, value: &str) -> Self {
        self.run
            .push((key.to_string(), JsonValue::Str(value.to_string())));
        self
    }

    /// Declares a gate threshold.
    pub fn gate(mut self, name: &str, threshold: f64) -> Self {
        self.gates.push((name.to_string(), threshold));
        self
    }

    /// Records a measured number.
    pub fn measure(&mut self, name: &str, value: f64) {
        self.measured
            .push((name.to_string(), JsonValue::Num(value)));
    }

    /// Records an arbitrary measured JSON value.
    pub fn measure_value(&mut self, name: &str, value: JsonValue) {
        self.measured.push((name.to_string(), value));
    }

    /// Records a gate violation.
    pub fn violation(&mut self, description: String) {
        self.violations.push(description);
    }

    /// Whether the gate passed (no violations recorded).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Looks up a measured number by name.
    pub fn measured_num(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_num())
    }

    /// The envelope as indented JSON.
    pub fn to_json(&self) -> String {
        let pairs = |items: &[(String, JsonValue)]| JsonValue::Obj(items.to_vec());
        let gates = JsonValue::Obj(
            self.gates
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                .collect(),
        );
        let violations = JsonValue::Arr(
            self.violations
                .iter()
                .map(|v| JsonValue::Str(v.clone()))
                .collect(),
        );
        let mut doc = JsonValue::obj(vec![
            ("schema", JsonValue::Str(self.schema.clone())),
            ("report", JsonValue::Str(self.report.clone())),
            ("dataset", JsonValue::Str(self.dataset.clone())),
            ("run", pairs(&self.run)),
            ("gates", gates),
            ("measured", pairs(&self.measured)),
            ("violations", violations),
        ]);
        if let JsonValue::Obj(fields) = &mut doc {
            fields.push(("passed".to_string(), JsonValue::Bool(self.passed())));
        }
        let mut text = doc.to_json_pretty();
        text.push('\n');
        text
    }

    /// Parses an envelope back from its JSON form.
    pub fn parse(text: &str) -> Option<Self> {
        let doc = JsonValue::parse(text)?;
        let obj_pairs = |key: &str| -> Option<Vec<(String, JsonValue)>> {
            match doc.get(key)? {
                JsonValue::Obj(fields) => Some(fields.clone()),
                _ => None,
            }
        };
        Some(Self {
            schema: doc.get("schema")?.as_str()?.to_string(),
            report: doc.get("report")?.as_str()?.to_string(),
            dataset: doc.get("dataset")?.as_str()?.to_string(),
            run: obj_pairs("run")?,
            gates: obj_pairs("gates")?
                .into_iter()
                .map(|(k, v)| v.as_num().map(|n| (k, n)))
                .collect::<Option<Vec<_>>>()?,
            measured: obj_pairs("measured")?,
            violations: doc
                .get("violations")?
                .as_arr()?
                .iter()
                .map(|v| v.as_str().map(String::from))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_through_json() {
        let mut env = BenchEnvelope::new("kernel_tables", "mixed 12+12 DNA/protein")
            .run_num("virtual_workers", 16.0)
            .run_str("mode", "best-of-5")
            .gate("throughput_min", 1.3)
            .gate("drift_max", 1e-8);
        env.measure("throughput", 1.72);
        env.measure_value("flags", JsonValue::Arr(vec![JsonValue::Bool(true)]));
        env.violation("drift 2e-8 above gate 1e-8".to_string());
        let text = env.to_json();
        let back = BenchEnvelope::parse(&text).unwrap();
        assert_eq!(back, env);
        assert!(!back.passed());
        assert_eq!(back.measured_num("throughput"), Some(1.72));
        assert_eq!(back.schema, BENCH_SCHEMA);
    }

    #[test]
    fn passed_field_reflects_violations() {
        let env = BenchEnvelope::new("strategy_report", "d");
        assert!(env.passed());
        let doc = JsonValue::parse(&env.to_json()).unwrap();
        assert_eq!(doc.get("passed").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn rejects_non_envelope_documents() {
        assert!(BenchEnvelope::parse("{}").is_none());
        assert!(BenchEnvelope::parse("[1,2]").is_none());
    }
}
