//! `plf-benchmark`: the repository's one end-to-end + per-layer benchmark.
//!
//! ```text
//! plf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! plf-benchmark all [--seed <n>] [--seconds <s>]
//! plf-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form runs one pass of one workload and ends its standard output
//! with one JSON object (`correct`, `attempted`, `failed`, `metrics`). `all`
//! runs every workload of `BENCHMARK.json`, each pass in a child process of
//! its own, and writes `benchmark/results/latest.json`. See `README.md`.

mod calibrate;
mod compare;
mod fleet;
mod host;
mod layers;
mod measure;
mod solve;
mod span;
mod spec;
mod stats;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use phylo_telemetry::json::JsonValue;

use crate::spec::{MetricSpec, Spec};

const RESULTS_DIR: &str = "benchmark/results";
const SERVE_WORKLOAD: &str = "serve_fleet";
const DEFAULT_SEED: u64 = 2009;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("all") => Options::parse(&args[1..]).and_then(|o| run_all(&o)),
        _ => Options::parse(&args).and_then(|o| run_one(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("plf-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// Internal: print the peak RSS of set-up plus one solve and exit.
    rss_probe: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            rss_probe: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: cannot read `{value}`");
            match flag.as_str() {
                "--workload" => options.workload = Some(value.clone()),
                "--seed" => options.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => options.seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => options.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--rss-probe" => options.rss_probe = true,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(options)
    }
}

/// One pass of one workload; `Ok(true)` when every checked output was correct.
fn run_one(options: &Options) -> Result<bool, String> {
    let spec = Spec::load()?;
    let workload = options
        .workload
        .as_deref()
        .ok_or("--workload is required (or use `all` / `compare`)")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json lists {}",
            spec.workloads.join(", ")
        ));
    }
    let seconds = options.seconds.unwrap_or(spec.run_seconds);
    let seed = options.seed;
    if options.rss_probe {
        if workload == SERVE_WORKLOAD {
            measure::rss_probe::<fleet::Fleet>(workload, seed);
        } else {
            measure::rss_probe::<solve::Problem>(workload, seed);
        }
        return Ok(true);
    }

    let serving = workload == SERVE_WORKLOAD;
    let (pass, listed) = match (options.trace, serving) {
        (true, true) => (layers::fleet_layers(seed, seconds), &spec.per_layer),
        (true, false) => (
            layers::solve_layers(workload, seed, seconds),
            &spec.per_layer,
        ),
        (false, true) => (
            measure::end_to_end::<fleet::Fleet>(workload, seed, seconds),
            &spec.end_to_end,
        ),
        (false, false) => (
            measure::end_to_end::<solve::Problem>(workload, seed, seconds),
            &spec.end_to_end,
        ),
    };
    if let Some(jsonl) = &pass.trace_jsonl {
        let path = format!("{RESULTS_DIR}/trace-{workload}.jsonl");
        std::fs::create_dir_all(RESULTS_DIR)
            .and_then(|()| std::fs::write(&path, jsonl))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(name) = pass
        .metrics
        .keys()
        .find(|name| !listed.iter().any(|m| &m.name == *name))
    {
        return Err(format!("`{name}` is measured but not in BENCHMARK.json"));
    }

    let mut metrics = Vec::with_capacity(listed.len());
    for MetricSpec { name, unit, .. } in listed {
        let value = match pass.metrics.get(name) {
            Some(&value) => value,
            // A layer the workload does not run reports 0.
            None if options.trace => 0.0,
            None => {
                return Err(format!(
                    "BENCHMARK.json lists `{name}`, which is not measured"
                ))
            }
        };
        println!("{workload} {name} {value} {unit}");
        metrics.push((
            name.clone(),
            JsonValue::obj(vec![
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.clone())),
            ]),
        ));
    }
    let correct = pass.failed == 0;
    let line = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(pass.attempted as f64)),
        ("failed", JsonValue::Num(pass.failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(correct)
}

/// Runs one pass in a child process (no allocator or cache state carried
/// between workloads) and returns the JSON object it ended with, plus its
/// `# …` comment lines (sample counts, repetition times) as `notes`.
fn child_pass(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let Some(JsonValue::Obj(mut fields)) =
        JsonValue::parse(last).filter(|json| json.get("metrics").is_some())
    else {
        return Err(format!(
            "{workload} (trace {}) ended without a result ({})",
            u8::from(trace),
            output.status
        ));
    };
    let notes = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("# "))
        .map(|note| JsonValue::Str(note.to_string()))
        .collect();
    fields.push(("notes".to_string(), JsonValue::Arr(notes)));
    Ok(JsonValue::Obj(fields))
}

/// Every workload, untraced pass then traced pass; writes `latest.json` and
/// appends the same object as one line to `history.jsonl`.
fn run_all(options: &Options) -> Result<bool, String> {
    let spec = Spec::load()?;
    let seconds = options.seconds.unwrap_or(spec.run_seconds);
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in &spec.workloads {
        let end_to_end = child_pass(workload, options.seed, seconds, false)?;
        let per_layer = child_pass(workload, options.seed, seconds, true)?;
        for pass in [&end_to_end, &per_layer] {
            all_correct &= pass.get("correct").and_then(JsonValue::as_bool) == Some(true);
        }
        workloads.push((
            workload.clone(),
            JsonValue::obj(vec![("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let result = JsonValue::obj(vec![
        ("schema", JsonValue::Str("plf-benchmark/v1".into())),
        ("host", host::host_block()),
        ("seed", JsonValue::Num(options.seed as f64)),
        ("seconds", JsonValue::Num(seconds)),
        ("correct", JsonValue::Bool(all_correct)),
        ("workloads", JsonValue::Obj(workloads)),
    ]);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(RESULTS_DIR)?;
        std::fs::write(
            format!("{RESULTS_DIR}/latest.json"),
            result.to_json_pretty() + "\n",
        )?;
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{RESULTS_DIR}/history.jsonl"))?;
        writeln!(history, "{}", result.to_json())
    };
    write().map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    println!("# wrote {RESULTS_DIR}/latest.json, appended to {RESULTS_DIR}/history.jsonl");
    Ok(all_correct)
}
