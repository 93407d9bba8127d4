//! `BENCHMARK.json`, the one place metric names, units, directions and bounds
//! are written down. The binary prints exactly the metrics it lists.

use phylo_telemetry::json::JsonValue;

/// Read from the working directory, which `run.sh` makes the repository root.
pub const SPEC_PATH: &str = "BENCHMARK.json";

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH)
            .map_err(|e| format!("{SPEC_PATH}: {e} (run from the repository root)"))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = JsonValue::parse(text).ok_or("BENCHMARK.json is not valid JSON")?;
        let list = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))
        };
        let text_of = |entry: &JsonValue, key: &str| {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    Ok(MetricSpec {
                        name: text_of(entry, "name")?,
                        unit: text_of(entry, "unit")?,
                        lower_is_better: text_of(entry, "better")? == "lower",
                        bound: entry.get("bound").and_then(JsonValue::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: json
                .get("run_seconds")
                .and_then(JsonValue::as_num)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed file, as the driver and `compare` read it.
    fn committed() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn committed_spec_lists_what_the_binary_measures() {
        let spec = committed();
        assert_eq!(
            spec.workloads,
            ["opt_compute", "paper_newpar", "search_spr", "serve_fleet"]
        );
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, crate::measure::END_TO_END);
        assert!(spec.run_seconds >= 1.0);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let spec = committed();
        let bound = |m: &MetricSpec| m.bound.expect("end-to-end metrics carry a bound");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        for metric in &spec.end_to_end {
            assert!(
                bound(metric) > 0.0 && bound(metric) <= bound(setup),
                "{}",
                metric.name
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_spec_without_workloads_is_an_error() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse("not json").is_err());
    }
}
