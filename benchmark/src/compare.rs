//! `compare A.json B.json`: two result sets of `all`, metric by metric,
//! against the bounds of `BENCHMARK.json`. A is the baseline.

use phylo_telemetry::json::JsonValue;

use crate::spec::{MetricSpec, Spec};

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).ok_or(format!("{path} is not valid JSON"))
}

fn metric(set: &JsonValue, workload: &str, pass: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_num()
}

/// By how much of the baseline `b` is worse than `a` (negative: better).
pub fn worsening(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

/// `Ok(true)` when no end-to-end metric of B is worse than A by more than
/// its bound.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: plf-benchmark compare <A.json> <B.json>".into());
    };
    let spec = Spec::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("host") != b.get("host") {
        println!("# the two sets come from different hosts or commits; timings are not comparable");
    }

    let mut breaches = 0;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let values = (
                metric(&a, workload, "end_to_end", &m.name),
                metric(&b, workload, "end_to_end", &m.name),
            );
            let (Some(va), Some(vb)) = values else {
                println!("{workload:<14} {:<12} missing from a set", m.name);
                breaches += 1;
                continue;
            };
            let worse = worsening(m, va, vb);
            let bound = m.bound.unwrap_or(0.0);
            let breach = worse > bound;
            breaches += usize::from(breach);
            println!(
                "{workload:<14} {:<12} {va:>14.6} {vb:>14.6} {:>+8.1}% {:>6.0}% {} {}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                m.unit,
                if breach { "BREACH" } else { "" }
            );
        }
    }

    // The seconds themselves, for the reader: too unsteady on a shared host
    // to judge (README, "Baseline and noise").
    for workload in &spec.workloads {
        for m in spec
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("bench."))
        {
            let va = metric(&a, workload, "per_layer", &m.name);
            let vb = metric(&b, workload, "per_layer", &m.name);
            if let (Some(va), Some(vb)) = (va, vb) {
                println!(
                    "# {workload:<14} {:<20} {va:>10.4} {vb:>10.4} {:>+8.1}% {}",
                    m.name,
                    worsening(m, va, vb) * 100.0,
                    m.unit
                );
            }
        }
    }

    // Counts repeat exactly between runs of one program on one seed (all but
    // `serve.batches` and `serve.max_batch_fused`, which depend on what
    // arrived while a round executed); a count that moved is a change of
    // behaviour, listed but not judged.
    let mut moved = 0;
    for workload in &spec.workloads {
        for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
            let va = metric(&a, workload, "per_layer", &m.name);
            let vb = metric(&b, workload, "per_layer", &m.name);
            if va != vb {
                moved += 1;
                println!("# count moved: {workload} {} {va:?} -> {vb:?}", m.name);
            }
        }
    }
    println!("# {breaches} bound(s) breached, {moved} count(s) moved");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&spec(true), 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(&spec(true), 2.0, 1.5) + 0.25).abs() < 1e-12);
        assert!((worsening(&spec(false), 2.0, 1.5) - 0.25).abs() < 1e-12);
        assert!((worsening(&spec(false), 2.0, 2.5) + 0.25).abs() < 1e-12);
    }
}
