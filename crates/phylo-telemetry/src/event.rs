//! The typed event taxonomy of the telemetry subsystem.

use crate::json::JsonValue;

/// One timestamped event on the unified timeline. All timestamps `t` are
/// seconds since the owning [`crate::Telemetry`] was created.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A parallel region (one `Executor::execute` call) began.
    RegionStart {
        /// Seconds since telemetry start.
        t: f64,
        /// Monotonically increasing region sequence number.
        region: u64,
        /// What the region's command carried, phase by phase
        /// (`KernelOp::label`): `newview` (the traversal-only command),
        /// `evaluate` / `newview+evaluate`, `sumtable` / `newview+sumtable` /
        /// `sumtable+derivatives` / `newview+sumtable+derivatives` (a branch
        /// preparation with its partial traversal and first Newton probe),
        /// `derivatives`.
        kind: String,
        /// Convergence mask: which partitions are active in this region.
        mask: Vec<bool>,
        /// Serving session the region belongs to (`None` outside
        /// multi-tenant serving).
        session: Option<u64>,
    },
    /// A parallel region completed (dead regions get a
    /// [`TelemetryEvent::WorkerDeath`] instead).
    RegionEnd {
        /// Seconds since telemetry start.
        t: f64,
        /// Sequence number pairing this with its `RegionStart`.
        region: u64,
        /// Op kind label.
        kind: String,
        /// Master-side wall time of the region.
        seconds: f64,
        /// Per-worker op latency (empty when the backend does not time
        /// workers).
        worker_seconds: Vec<f64>,
        /// Per-worker queue wait: time spent idle at the barrier waiting for
        /// the command (empty for backends without a command queue).
        queue_wait: Vec<f64>,
        /// Serving session the region belongs to (`None` outside
        /// multi-tenant serving).
        session: Option<u64>,
    },
    /// The master issued a table slot (a table-cache miss); the first shard
    /// that reads it builds the tables inside the region. Cache hits are
    /// counted, not evented.
    TableBuild {
        /// Seconds since telemetry start.
        t: f64,
        /// Partition the tables belong to.
        partition: usize,
        /// Branch the tables belong to.
        branch: usize,
    },
    /// The rescheduler migrated patterns mid-run.
    Reschedule {
        /// Seconds since telemetry start.
        t: f64,
        /// Optimizer round the migration happened in.
        round: usize,
        /// Whether it fired mid-round (mask-aware) or at a round boundary.
        within_round: bool,
        /// Measured imbalance that triggered it.
        measured_imbalance: f64,
        /// Predicted imbalance under the new assignment.
        predicted_imbalance: f64,
    },
    /// A worker thread died mid-region.
    WorkerDeath {
        /// Seconds since telemetry start.
        t: f64,
        /// Index of the dead worker.
        worker: usize,
        /// Region sequence number the death occurred in.
        region: u64,
    },
    /// The run policy rebuilt the workers after a death.
    WorkerRecovery {
        /// Seconds since telemetry start.
        t: f64,
        /// Index of the recovered worker.
        worker: usize,
        /// Recovery attempt number (1-based).
        attempt: usize,
    },
    /// One optimizer round (alphas + exchangeabilities + branches) finished.
    OptimizerRound {
        /// Seconds since telemetry start.
        t: f64,
        /// Round number (1-based).
        round: usize,
        /// Log likelihood at the end of the round.
        log_likelihood: f64,
        /// Serving session the round belongs to (`None` outside
        /// multi-tenant serving).
        session: Option<u64>,
    },
    /// One Newton–Raphson probe on a branch length.
    NewtonProbe {
        /// Seconds since telemetry start.
        t: f64,
        /// Branch being optimized.
        branch: usize,
        /// Partition, or `None` for a joint (summed over partitions) probe.
        partition: Option<usize>,
        /// Candidate branch length probed.
        length: f64,
        /// Log likelihood at the probe.
        log_likelihood: f64,
        /// First derivative of the log likelihood.
        first: f64,
        /// Second derivative of the log likelihood.
        second: f64,
    },
    /// One Brent probe on a model parameter (Γ shape or an exchangeability).
    BrentProbe {
        /// Seconds since telemetry start.
        t: f64,
        /// Parameter label (`alpha`, `exchangeability`).
        parameter: String,
        /// Partition the parameter belongs to.
        partition: usize,
        /// Candidate parameter value probed.
        value: f64,
        /// Log likelihood at the probe.
        log_likelihood: f64,
    },
}

fn mask_to_string(mask: &[bool]) -> String {
    mask.iter().map(|&a| if a { '#' } else { '.' }).collect()
}

fn mask_from_string(s: &str) -> Vec<bool> {
    s.chars().map(|c| c == '#').collect()
}

fn nums(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect())
}

fn nums_back(value: Option<&JsonValue>) -> Option<Vec<f64>> {
    value?.as_arr()?.iter().map(JsonValue::as_num).collect()
}

impl TelemetryEvent {
    /// Short label naming the event kind (also the JSONL `event` field).
    pub fn kind_label(&self) -> &'static str {
        match self {
            TelemetryEvent::RegionStart { .. } => "region_start",
            TelemetryEvent::RegionEnd { .. } => "region_end",
            TelemetryEvent::TableBuild { .. } => "table_build",
            TelemetryEvent::Reschedule { .. } => "reschedule",
            TelemetryEvent::WorkerDeath { .. } => "worker_death",
            TelemetryEvent::WorkerRecovery { .. } => "worker_recovery",
            TelemetryEvent::OptimizerRound { .. } => "optimizer_round",
            TelemetryEvent::NewtonProbe { .. } => "newton_probe",
            TelemetryEvent::BrentProbe { .. } => "brent_probe",
        }
    }

    /// Timestamp of the event, seconds since telemetry start.
    pub fn time(&self) -> f64 {
        match self {
            TelemetryEvent::RegionStart { t, .. }
            | TelemetryEvent::RegionEnd { t, .. }
            | TelemetryEvent::TableBuild { t, .. }
            | TelemetryEvent::Reschedule { t, .. }
            | TelemetryEvent::WorkerDeath { t, .. }
            | TelemetryEvent::WorkerRecovery { t, .. }
            | TelemetryEvent::OptimizerRound { t, .. }
            | TelemetryEvent::NewtonProbe { t, .. }
            | TelemetryEvent::BrentProbe { t, .. } => *t,
        }
    }

    /// The serving session the event is scoped to, when the recording
    /// handle was session-scoped (see [`crate::Telemetry::for_session`]).
    /// `None` for unscoped events and for event kinds that carry no
    /// session tag.
    pub fn session(&self) -> Option<u64> {
        match self {
            TelemetryEvent::RegionStart { session, .. }
            | TelemetryEvent::RegionEnd { session, .. }
            | TelemetryEvent::OptimizerRound { session, .. } => *session,
            _ => None,
        }
    }

    /// The event as a JSON object (one JSONL line when emitted compactly).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "event".to_string(),
                JsonValue::Str(self.kind_label().into()),
            ),
            ("t".to_string(), JsonValue::Num(self.time())),
        ];
        // The session tag is optional on the wire: unscoped events (the
        // common, single-analysis case) omit the field entirely.
        if let Some(session) = self.session() {
            fields.push(("session".into(), JsonValue::Num(session as f64)));
        }
        match self {
            TelemetryEvent::RegionStart {
                region, kind, mask, ..
            } => {
                fields.push(("region".into(), JsonValue::Num(*region as f64)));
                fields.push(("kind".into(), JsonValue::Str(kind.clone())));
                fields.push(("mask".into(), JsonValue::Str(mask_to_string(mask))));
            }
            TelemetryEvent::RegionEnd {
                region,
                kind,
                seconds,
                worker_seconds,
                queue_wait,
                ..
            } => {
                fields.push(("region".into(), JsonValue::Num(*region as f64)));
                fields.push(("kind".into(), JsonValue::Str(kind.clone())));
                fields.push(("seconds".into(), JsonValue::Num(*seconds)));
                fields.push(("worker_seconds".into(), nums(worker_seconds)));
                fields.push(("queue_wait".into(), nums(queue_wait)));
            }
            TelemetryEvent::TableBuild {
                partition, branch, ..
            } => {
                fields.push(("partition".into(), JsonValue::Num(*partition as f64)));
                fields.push(("branch".into(), JsonValue::Num(*branch as f64)));
            }
            TelemetryEvent::Reschedule {
                round,
                within_round,
                measured_imbalance,
                predicted_imbalance,
                ..
            } => {
                fields.push(("round".into(), JsonValue::Num(*round as f64)));
                fields.push(("within_round".into(), JsonValue::Bool(*within_round)));
                fields.push(("measured".into(), JsonValue::Num(*measured_imbalance)));
                fields.push(("predicted".into(), JsonValue::Num(*predicted_imbalance)));
            }
            TelemetryEvent::WorkerDeath { worker, region, .. } => {
                fields.push(("worker".into(), JsonValue::Num(*worker as f64)));
                fields.push(("region".into(), JsonValue::Num(*region as f64)));
            }
            TelemetryEvent::WorkerRecovery {
                worker, attempt, ..
            } => {
                fields.push(("worker".into(), JsonValue::Num(*worker as f64)));
                fields.push(("attempt".into(), JsonValue::Num(*attempt as f64)));
            }
            TelemetryEvent::OptimizerRound {
                round,
                log_likelihood,
                ..
            } => {
                fields.push(("round".into(), JsonValue::Num(*round as f64)));
                fields.push(("lnl".into(), JsonValue::Num(*log_likelihood)));
            }
            TelemetryEvent::NewtonProbe {
                branch,
                partition,
                length,
                log_likelihood,
                first,
                second,
                ..
            } => {
                fields.push(("branch".into(), JsonValue::Num(*branch as f64)));
                let p = match partition {
                    Some(p) => JsonValue::Num(*p as f64),
                    None => JsonValue::Null,
                };
                fields.push(("partition".into(), p));
                fields.push(("length".into(), JsonValue::Num(*length)));
                fields.push(("lnl".into(), JsonValue::Num(*log_likelihood)));
                fields.push(("first".into(), JsonValue::Num(*first)));
                fields.push(("second".into(), JsonValue::Num(*second)));
            }
            TelemetryEvent::BrentProbe {
                parameter,
                partition,
                value,
                log_likelihood,
                ..
            } => {
                fields.push(("parameter".into(), JsonValue::Str(parameter.clone())));
                fields.push(("partition".into(), JsonValue::Num(*partition as f64)));
                fields.push(("value".into(), JsonValue::Num(*value)));
                fields.push(("lnl".into(), JsonValue::Num(*log_likelihood)));
            }
        }
        JsonValue::Obj(fields)
    }

    /// Parses an event back from its JSON object form.
    pub fn from_json(value: &JsonValue) -> Option<TelemetryEvent> {
        let label = value.get("event")?.as_str()?;
        let t = value.get("t")?.as_num()?;
        let num = |key: &str| value.get(key).and_then(JsonValue::as_num);
        let idx = |key: &str| num(key).map(|n| n as usize);
        let text = |key: &str| value.get(key).and_then(JsonValue::as_str).map(String::from);
        // Absent on unscoped events; symmetric with `to_json`.
        let session = num("session").map(|n| n as u64);
        Some(match label {
            "region_start" => TelemetryEvent::RegionStart {
                t,
                region: num("region")? as u64,
                kind: text("kind")?,
                mask: mask_from_string(&text("mask")?),
                session,
            },
            "region_end" => TelemetryEvent::RegionEnd {
                t,
                region: num("region")? as u64,
                kind: text("kind")?,
                seconds: num("seconds")?,
                worker_seconds: nums_back(value.get("worker_seconds"))?,
                queue_wait: nums_back(value.get("queue_wait"))?,
                session,
            },
            "table_build" => TelemetryEvent::TableBuild {
                t,
                partition: idx("partition")?,
                branch: idx("branch")?,
            },
            "reschedule" => TelemetryEvent::Reschedule {
                t,
                round: idx("round")?,
                within_round: value.get("within_round")?.as_bool()?,
                measured_imbalance: num("measured")?,
                predicted_imbalance: num("predicted")?,
            },
            "worker_death" => TelemetryEvent::WorkerDeath {
                t,
                worker: idx("worker")?,
                region: num("region")? as u64,
            },
            "worker_recovery" => TelemetryEvent::WorkerRecovery {
                t,
                worker: idx("worker")?,
                attempt: idx("attempt")?,
            },
            "optimizer_round" => TelemetryEvent::OptimizerRound {
                t,
                round: idx("round")?,
                log_likelihood: num("lnl")?,
                session,
            },
            "newton_probe" => TelemetryEvent::NewtonProbe {
                t,
                branch: idx("branch")?,
                partition: match value.get("partition")? {
                    JsonValue::Null => None,
                    other => Some(other.as_num()? as usize),
                },
                length: num("length")?,
                log_likelihood: num("lnl")?,
                first: num("first")?,
                second: num("second")?,
            },
            "brent_probe" => TelemetryEvent::BrentProbe {
                t,
                parameter: text("parameter")?,
                partition: idx("partition")?,
                value: num("value")?,
                log_likelihood: num("lnl")?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn one_of_each() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::RegionStart {
                t: 0.25,
                region: 7,
                kind: "newview".into(),
                mask: vec![true, false, true],
                session: None,
            },
            TelemetryEvent::RegionStart {
                t: 0.26,
                region: 8,
                kind: "evaluate".into(),
                mask: vec![true, true],
                session: Some(3),
            },
            TelemetryEvent::RegionEnd {
                t: 0.5,
                region: 7,
                kind: "newview".into(),
                seconds: 0.25,
                worker_seconds: vec![0.2, 0.24],
                queue_wait: vec![0.05, 0.01],
                session: None,
            },
            TelemetryEvent::RegionEnd {
                t: 0.55,
                region: 8,
                kind: "evaluate".into(),
                seconds: 0.29,
                worker_seconds: vec![0.2, 0.24],
                queue_wait: vec![0.05, 0.01],
                session: Some(3),
            },
            TelemetryEvent::TableBuild {
                t: 0.1,
                partition: 1,
                branch: 13,
            },
            TelemetryEvent::Reschedule {
                t: 1.5,
                round: 2,
                within_round: true,
                measured_imbalance: 1.8,
                predicted_imbalance: 1.1,
            },
            TelemetryEvent::WorkerDeath {
                t: 2.0,
                worker: 3,
                region: 41,
            },
            TelemetryEvent::WorkerRecovery {
                t: 2.1,
                worker: 3,
                attempt: 1,
            },
            TelemetryEvent::OptimizerRound {
                t: 3.0,
                round: 1,
                log_likelihood: -1234.5,
                session: None,
            },
            TelemetryEvent::OptimizerRound {
                t: 3.1,
                round: 1,
                log_likelihood: -987.25,
                session: Some(12),
            },
            TelemetryEvent::NewtonProbe {
                t: 3.5,
                branch: 9,
                partition: None,
                length: 0.05,
                log_likelihood: -1200.25,
                first: 3.5,
                second: -80.0,
            },
            TelemetryEvent::NewtonProbe {
                t: 3.6,
                branch: 9,
                partition: Some(2),
                length: 0.04,
                log_likelihood: -600.125,
                first: 1.5,
                second: -40.0,
            },
            TelemetryEvent::BrentProbe {
                t: 4.0,
                parameter: "alpha".into(),
                partition: 0,
                value: 0.7,
                log_likelihood: -1190.0,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        for event in one_of_each() {
            let json = event.to_json();
            let text = json.to_json();
            let parsed = crate::json::JsonValue::parse(&text).unwrap();
            let back = TelemetryEvent::from_json(&parsed).unwrap();
            assert_eq!(back, event, "{text}");
        }
    }

    #[test]
    fn unknown_event_labels_parse_to_none() {
        let v = JsonValue::parse(r#"{"event": "martian", "t": 1.0}"#).unwrap();
        assert!(TelemetryEvent::from_json(&v).is_none());
    }

    #[test]
    fn mask_string_round_trips() {
        let mask = vec![true, false, false, true];
        assert_eq!(mask_to_string(&mask), "#..#");
        assert_eq!(mask_from_string("#..#"), mask);
    }
}
