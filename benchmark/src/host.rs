//! What the process can learn about itself and its host from `/proc` and a
//! few commands: no dependency beyond the standard library.

use std::process::Command;
use std::sync::OnceLock;

use phylo_telemetry::json::JsonValue;

/// Worker/pool width of every measurement: one worker per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Kernel clock ticks per second, the unit of `/proc/self/stat` CPU times.
fn clock_ticks() -> f64 {
    command_line("getconf", &["CLK_TCK"])
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0)
}

/// User + system CPU seconds the process (all threads, finished ones
/// included) has consumed so far; 0 where `/proc` is missing.
pub fn process_cpu_seconds() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis: state is field 3, utime 14, stime 15.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |index: usize| fields.get(index).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS.get_or_init(clock_ticks),
        _ => 0.0,
    }
}

/// Peak resident set size of the process (`VmHWM`) in MiB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `target-cpu` the repository's `.cargo/config.toml` (read from the
/// working directory, which `run.sh` makes the repository root) builds for.
fn target_cpu() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|config| {
            let rest = config.split_once("target-cpu=")?.1;
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'))?;
            Some(rest[..end].to_string())
        })
        .unwrap_or_else(|| "default".to_string())
}

/// The `host` block every result carries: results from hosts that differ in
/// any of these are not comparable.
pub fn host_block() -> JsonValue {
    let text = |s: String| JsonValue::Str(s);
    let unknown = || "unknown".to_string();
    JsonValue::obj(vec![
        ("nproc", JsonValue::Num(nproc() as f64)),
        ("cpu_model", text(cpu_model())),
        (
            "rustc",
            text(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_sha",
            text(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("target_cpu", text(target_cpu())),
    ])
}
