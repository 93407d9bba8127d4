//! Unified observability for the phylogenetic likelihood kernel.
//!
//! The source paper's argument is a *measurement* argument — per-thread work
//! across parallel regions — yet the workspace's measurement story used to be
//! fragmented: `WorkTrace` knew region work, `KernelStats` knew table builds,
//! `RescheduleEvent` knew migrations, recovery counts lived in optimizer
//! reports. This crate is the common substrate: one timeline of typed
//! [`TelemetryEvent`]s, one set of counters and fixed-bucket [`Histogram`]s,
//! one export story (JSONL event log + Prometheus-style text dump + the
//! shared [`BenchEnvelope`] every bench gate writes).
//!
//! # Architecture
//!
//! * [`Telemetry`] is a cloneable handle. The disabled default is a null
//!   pointer — every instrumentation site costs one `Option` check, so code
//!   that never opts in pays (almost) nothing.
//! * The *master* records: region start/end, table builds, reschedules,
//!   deaths/recoveries, optimizer rounds and probes all happen on the master
//!   thread, so the event log and histograms sit behind uncontended mutexes.
//! * *Workers* never touch the recorder. Each worker measures one
//!   [`WorkerSample`] (op latency, queue wait, tip-cache and table-build
//!   counters) per recorded region and hands it to the master
//!   inside the one reply it sends for that region; the master folds the
//!   samples into the recorder when it closes the region.
//! * This crate depends on nothing, so every workspace crate can depend on
//!   it without cycles. Its atomics (the `Relaxed` counters) come through
//!   the crate's `sync` module, and like every workspace crate it forbids
//!   `unsafe`.
//!
//! ```
//! use phylo_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
//!
//! let telemetry = Telemetry::new(TelemetryConfig::default());
//!
//! // The master brackets a parallel region...
//! let token = telemetry.region_start("newview", &[true, true, false]);
//! telemetry.region_end(token, &[0.010, 0.012], &[0.001, 0.0]);
//! // ...counts a table-cache hit...
//! telemetry.table_cache_hit();
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counters.regions_completed, 1);
//! assert_eq!(snapshot.counters.table_hits, 1);
//!
//! // Exports round-trip.
//! let events = TelemetrySnapshot::events_from_jsonl(&snapshot.to_jsonl());
//! assert_eq!(events, snapshot.events);
//! assert!(snapshot.to_prometheus().contains("plf_regions_completed_total 1"));
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod envelope;
pub mod event;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod snapshot;
mod sync;

pub use config::TelemetryConfig;
pub use envelope::{BenchEnvelope, BENCH_SCHEMA};
pub use event::TelemetryEvent;
pub use hist::Histogram;
pub use json::JsonValue;
pub use recorder::{RegionToken, Telemetry, WorkerSample};
pub use snapshot::{CounterSnapshot, TelemetrySnapshot};
