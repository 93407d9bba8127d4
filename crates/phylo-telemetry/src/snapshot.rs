//! Point-in-time snapshots and their export formats.

use std::collections::BTreeMap;

use crate::event::TelemetryEvent;
use crate::hist::Histogram;
use crate::json::JsonValue;

/// All counters at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Parallel regions started (`Executor::execute` entered).
    pub regions_started: u64,
    /// Parallel regions completed (a region lost to a worker death is
    /// started but never completed).
    pub regions_completed: u64,
    /// Table-slot cache hits.
    pub table_hits: u64,
    /// Table slots issued by the master (cache misses).
    pub table_builds: u64,
    /// Branch tables built by the workers that first read the issued slots.
    pub shard_table_builds: u64,
    /// Tip-index cache hits (per-pattern dictionary searches avoided).
    pub tip_hits: u64,
    /// Tip-index cache misses (dictionary searches performed during builds).
    pub tip_misses: u64,
    /// Tip-index cache (re)builds.
    pub tip_builds: u64,
    /// Pattern migrations performed.
    pub reschedules: u64,
    /// Rescheduler consultations (fired or not).
    pub reschedules_considered: u64,
    /// Worker deaths observed.
    pub worker_deaths: u64,
    /// Successful worker recoveries.
    pub worker_recoveries: u64,
    /// Optimizer rounds completed.
    pub optimizer_rounds: u64,
    /// Newton–Raphson probes.
    pub newton_probes: u64,
    /// Brent probes.
    pub brent_probes: u64,
    /// Events currently held in the log.
    pub events_recorded: u64,
    /// Events dropped because the log was full.
    pub events_dropped: u64,
}

impl CounterSnapshot {
    /// `(name, value)` pairs for every counter, in a stable order — the one
    /// source of truth the Prometheus dump and its round-trip test share.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("regions_started", self.regions_started),
            ("regions_completed", self.regions_completed),
            ("table_hits", self.table_hits),
            ("table_builds", self.table_builds),
            ("shard_table_builds", self.shard_table_builds),
            ("tip_hits", self.tip_hits),
            ("tip_misses", self.tip_misses),
            ("tip_builds", self.tip_builds),
            ("reschedules", self.reschedules),
            ("reschedules_considered", self.reschedules_considered),
            ("worker_deaths", self.worker_deaths),
            ("worker_recoveries", self.worker_recoveries),
            ("optimizer_rounds", self.optimizer_rounds),
            ("newton_probes", self.newton_probes),
            ("brent_probes", self.brent_probes),
            ("events_recorded", self.events_recorded),
            ("events_dropped", self.events_dropped),
        ]
    }
}

/// A consistent point-in-time view of everything a [`crate::Telemetry`]
/// recorded: counters, the two fixed-bucket histograms, and the typed event
/// log.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Seconds since the recorder was created.
    pub uptime_seconds: f64,
    /// All counters.
    pub counters: CounterSnapshot,
    /// Histogram of per-region wall time (seconds).
    pub region_seconds: Histogram,
    /// Histogram of per-region measured imbalance (`max/mean` worker
    /// seconds).
    pub region_imbalance: Histogram,
    /// The retained event log, in recording order.
    pub events: Vec<TelemetryEvent>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        Self {
            uptime_seconds: 0.0,
            counters: CounterSnapshot::default(),
            region_seconds: Histogram::region_seconds(),
            region_imbalance: Histogram::imbalance(),
            events: Vec::new(),
        }
    }
}

impl TelemetrySnapshot {
    /// Tip-index cache hit rate in `[0, 1]` (1.0 when no lookups happened).
    pub fn tip_cache_hit_rate(&self) -> f64 {
        let total = self.counters.tip_hits + self.counters.tip_misses;
        if total == 0 {
            1.0
        } else {
            self.counters.tip_hits as f64 / total as f64
        }
    }

    /// Table-slot cache hit rate in `[0, 1]` (1.0 when no lookups).
    pub fn table_cache_hit_rate(&self) -> f64 {
        let total = self.counters.table_hits + self.counters.table_builds;
        if total == 0 {
            1.0
        } else {
            self.counters.table_hits as f64 / total as f64
        }
    }

    /// The retained events scoped to serving session `session`, in
    /// recording order — the per-tenant slice of a shared pool recorder
    /// (events recorded through [`crate::Telemetry::for_session`] carry the
    /// tag; see [`TelemetryEvent::session`]).
    pub fn session_events(&self, session: u64) -> Vec<&TelemetryEvent> {
        self.events
            .iter()
            .filter(|e| e.session() == Some(session))
            .collect()
    }

    /// Renders the event log as a per-region ASCII timeline: one line per
    /// region (sequence number, op kind, convergence mask as `#`/`.`, wall
    /// time, per-worker load lanes), with reschedule / death / recovery /
    /// round markers inline. Region lines elide after `max_region_lines`;
    /// markers always print.
    pub fn render_timeline(&self, max_region_lines: usize) -> String {
        use std::collections::HashMap;
        use std::fmt::Write;

        let mut out = String::new();
        let mut masks: HashMap<u64, String> = HashMap::new();
        let mut region_lines = 0usize;
        let mut elided = 0usize;
        for event in &self.events {
            match event {
                TelemetryEvent::RegionStart { region, mask, .. } => {
                    let mask = mask.iter().map(|&a| if a { '#' } else { '.' }).collect();
                    masks.insert(*region, mask);
                }
                TelemetryEvent::RegionEnd {
                    t,
                    region,
                    kind,
                    seconds,
                    worker_seconds,
                    ..
                } => {
                    let mask = masks.remove(region).unwrap_or_default();
                    if region_lines >= max_region_lines {
                        elided += 1;
                        continue;
                    }
                    region_lines += 1;
                    let max = worker_seconds.iter().copied().fold(0.0f64, f64::max);
                    let lanes: String = worker_seconds.iter().map(|&s| lane_char(s, max)).collect();
                    let _ = writeln!(
                        out,
                        "{t:>9.4}s  #{region:<5} {kind:<28} [{mask}] {:>9.1}us |{lanes}|",
                        seconds * 1e6
                    );
                }
                TelemetryEvent::Reschedule {
                    t,
                    round,
                    within_round,
                    measured_imbalance,
                    predicted_imbalance,
                } => {
                    let when = if *within_round {
                        "within round"
                    } else {
                        "round boundary"
                    };
                    let _ = writeln!(
                        out,
                        "{t:>9.4}s  >>> reschedule ({when}, round {round}): measured imbalance \
                         {measured_imbalance:.3} -> predicted {predicted_imbalance:.3}"
                    );
                }
                TelemetryEvent::WorkerDeath { t, worker, region } => {
                    let _ = writeln!(
                        out,
                        "{t:>9.4}s  !!! worker {worker} died in region #{region}"
                    );
                }
                TelemetryEvent::WorkerRecovery { t, worker, attempt } => {
                    let _ = writeln!(
                        out,
                        "{t:>9.4}s  +++ worker {worker} recovered (attempt {attempt})"
                    );
                }
                TelemetryEvent::OptimizerRound {
                    t,
                    round,
                    log_likelihood,
                    ..
                } => {
                    let _ = writeln!(
                        out,
                        "{t:>9.4}s  === round {round} done: lnL = {log_likelihood:.6}"
                    );
                }
                _ => {}
            }
        }
        if elided > 0 {
            let _ = writeln!(out, "           ... ({elided} more regions elided)");
        }
        out
    }

    /// The event log as JSONL: one compact JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json().to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL event log back into typed events. Malformed or unknown
    /// lines are skipped.
    pub fn events_from_jsonl(text: &str) -> Vec<TelemetryEvent> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| {
                JsonValue::parse(l)
                    .as_ref()
                    .and_then(TelemetryEvent::from_json)
            })
            .collect()
    }

    /// A Prometheus-style text dump: every counter as
    /// `plf_<name>_total`, both histograms with cumulative `_bucket{le=...}`
    /// lines plus `_sum`/`_count`, and the cache hit rates as gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters.named() {
            out.push_str(&format!("# TYPE plf_{name}_total counter\n"));
            out.push_str(&format!("plf_{name}_total {value}\n"));
        }
        for (metric, rate) in [
            ("tip_cache_hit_rate", self.tip_cache_hit_rate()),
            ("table_cache_hit_rate", self.table_cache_hit_rate()),
        ] {
            out.push_str(&format!("# TYPE plf_{metric} gauge\n"));
            out.push_str(&format!("plf_{metric} {rate}\n"));
        }
        for (metric, hist) in [
            ("region_seconds", &self.region_seconds),
            ("region_imbalance", &self.region_imbalance),
        ] {
            out.push_str(&format!("# TYPE plf_{metric} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &count) in hist.counts().iter().enumerate() {
                cumulative += count;
                let le = hist
                    .bounds()
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| format!("{b}"));
                out.push_str(&format!(
                    "plf_{metric}_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("plf_{metric}_sum {}\n", hist.sum()));
            out.push_str(&format!("plf_{metric}_count {}\n", hist.count()));
        }
        out
    }

    /// Parses a Prometheus-style text dump into a metric → value map (labels
    /// are kept as part of the metric key, comments are skipped).
    pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The metric name may contain a {label} block with spaces-free
            // content; the value is the last whitespace-separated token.
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        out
    }
}

/// One worker lane character of [`TelemetrySnapshot::render_timeline`]: the
/// worker's share of the region's slowest lane, on a ten-step ASCII density
/// ramp.
fn lane_char(seconds: f64, max: f64) -> char {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if max <= 0.0 {
        return ' ';
    }
    let idx = ((seconds / max) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TelemetryConfig};

    fn populated_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new(TelemetryConfig::default());
        let token = t.region_start("newview", &[true, false]);
        t.region_end(token, &[0.5, 1.0], &[0.1, 0.0]);
        t.table_cache_hit();
        t.table_build(0, 5);
        t.add_tip_cache(90, 10, 2);
        t.reschedule(1, true, 1.6, 1.05);
        t.worker_death(1, Some(0));
        t.worker_recovery(1, 1);
        t.optimizer_round(1, -500.0);
        t.newton_probe(3, None, 0.07, -500.0, 2.0, -30.0);
        t.brent_probe("alpha", 1, 0.9, -499.0);
        t.snapshot()
    }

    #[test]
    fn jsonl_round_trips_the_event_log() {
        let snap = populated_snapshot();
        assert!(!snap.events.is_empty());
        let jsonl = snap.to_jsonl();
        let back = TelemetrySnapshot::events_from_jsonl(&jsonl);
        assert_eq!(back, snap.events);
    }

    #[test]
    fn prometheus_round_trips_every_counter() {
        let snap = populated_snapshot();
        let text = snap.to_prometheus();
        let parsed = TelemetrySnapshot::parse_prometheus(&text);
        for (name, value) in snap.counters.named() {
            let key = format!("plf_{name}_total");
            assert_eq!(parsed.get(&key).copied(), Some(value as f64), "{key}");
        }
        // Histogram sum/count and the +Inf bucket are present and coherent.
        assert_eq!(
            parsed.get("plf_region_seconds_count").copied(),
            Some(snap.region_seconds.count() as f64)
        );
        assert_eq!(
            parsed
                .get("plf_region_seconds_bucket{le=\"+Inf\"}")
                .copied(),
            Some(snap.region_seconds.count() as f64)
        );
        assert_eq!(
            parsed.get("plf_tip_cache_hit_rate").copied(),
            Some(snap.tip_cache_hit_rate())
        );
    }

    #[test]
    fn hit_rates_degrade_gracefully_without_lookups() {
        let snap = TelemetrySnapshot::default();
        assert_eq!(snap.tip_cache_hit_rate(), 1.0);
        assert_eq!(snap.table_cache_hit_rate(), 1.0);
    }

    #[test]
    fn malformed_jsonl_lines_are_skipped() {
        let text = "not json\n{\"event\":\"optimizer_round\",\"t\":1,\"round\":2,\"lnl\":-3}\n{}\n";
        let events = TelemetrySnapshot::events_from_jsonl(text);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind_label(), "optimizer_round");
    }

    #[test]
    fn tip_cache_hit_rate_reflects_counters() {
        let snap = populated_snapshot();
        assert!((snap.tip_cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((snap.table_cache_hit_rate() - 0.5).abs() < 1e-12);
    }
}
