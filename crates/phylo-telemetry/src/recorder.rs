//! The `Telemetry` recorder handle.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sync::{AtomicU64, Ordering};

use crate::config::TelemetryConfig;
use crate::event::TelemetryEvent;
use crate::hist::Histogram;
use crate::snapshot::{CounterSnapshot, TelemetrySnapshot};

/// One worker's measurement of one recorded region, carried to the master in
/// that region's reply.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerSample {
    /// Index of the reporting worker.
    pub worker: usize,
    /// Seconds the worker spent executing the op.
    pub op_seconds: f64,
    /// Seconds the worker spent idle waiting for the command.
    pub queue_wait_seconds: f64,
    /// Tip-index cache hits since the last sample.
    pub tip_hits: u64,
    /// Tip-index cache misses (dictionary searches) since the last sample.
    pub tip_misses: u64,
    /// Tip-index cache rebuilds since the last sample.
    pub tip_builds: u64,
    /// Branch tables the worker built since the last sample.
    pub tables_built: u64,
    /// CLV columns the worker's `newview` steps computed since the last
    /// sample (one per repeat class per step).
    pub newview_columns_computed: u64,
    /// CLV columns the worker's `newview` steps copied from their class's
    /// representative since the last sample.
    pub newview_columns_copied: u64,
}

#[derive(Debug, Default)]
struct Counters {
    regions_started: AtomicU64,
    regions_completed: AtomicU64,
    table_hits: AtomicU64,
    table_builds: AtomicU64,
    shard_table_builds: AtomicU64,
    tip_hits: AtomicU64,
    tip_misses: AtomicU64,
    tip_builds: AtomicU64,
    newview_columns_computed: AtomicU64,
    newview_columns_copied: AtomicU64,
    reschedules: AtomicU64,
    reschedules_considered: AtomicU64,
    worker_deaths: AtomicU64,
    worker_recoveries: AtomicU64,
    optimizer_rounds: AtomicU64,
    newton_probes: AtomicU64,
    brent_probes: AtomicU64,
}

#[derive(Debug)]
struct EventLog {
    events: Vec<TelemetryEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct Hists {
    region_seconds: Histogram,
    region_imbalance: Histogram,
}

#[derive(Debug)]
struct Inner {
    config: TelemetryConfig,
    start: Instant,
    counters: Counters,
    events: Mutex<EventLog>,
    hists: Mutex<Hists>,
}

/// Token returned by [`Telemetry::region_start`] and consumed by
/// [`Telemetry::region_end`]; carries the region's sequence number and start
/// instant. Dropping it without calling `region_end` marks the region as
/// never completed (the worker-death path).
#[derive(Debug)]
pub struct RegionToken {
    state: Option<(u64, &'static str, Instant)>,
}

impl RegionToken {
    /// The region sequence number, or `None` when telemetry is disabled.
    pub fn region(&self) -> Option<u64> {
        self.state.as_ref().map(|(seq, _, _)| *seq)
    }
}

/// The cloneable telemetry handle threaded through the stack.
///
/// The default ([`Telemetry::disabled`]) carries no recorder at all: every
/// instrumentation site is a single `Option` check, so code paths that never
/// opt in pay (almost) nothing. An enabled handle shares one recorder across
/// clones; the master-side mutexes are uncontended by construction (only the
/// master thread records — workers report in their region replies).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Session tag stamped onto region/round events recorded through this
    /// handle (multi-tenant serving); `None` on unscoped handles.
    session: Option<u64>,
}

impl Telemetry {
    /// Creates an enabled recorder.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                counters: Counters::default(),
                events: Mutex::new(EventLog {
                    events: Vec::with_capacity(config.event_capacity.min(4096)),
                    dropped: 0,
                }),
                hists: Mutex::new(Hists {
                    region_seconds: Histogram::region_seconds(),
                    region_imbalance: Histogram::imbalance(),
                }),
                config,
            })),
            session: None,
        }
    }

    /// A clone of this handle scoped to serving session `session`: region
    /// and optimizer-round events it records carry the session id, so one
    /// shared recorder can serve N concurrent sessions and still be sliced
    /// per tenant afterwards (see
    /// [`crate::TelemetrySnapshot::session_events`]). Counters and
    /// histograms stay pool-global. Scoping a disabled handle is a no-op.
    #[must_use]
    pub fn for_session(&self, session: u64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            session: Some(session),
        }
    }

    /// The session this handle is scoped to, if any.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    /// The disabled (no-op) handle; identical to `Telemetry::default()`.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since the recorder was created (0.0 when disabled).
    pub fn now(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.start.elapsed().as_secs_f64())
    }

    fn push_event(inner: &Inner, event: TelemetryEvent) {
        // lint:allow(L005): event-log mutex, taken only on the telemetry-enabled
        // path. lint:allow(L001): a poisoned telemetry log is fatal by design.
        let mut log = inner.events.lock().expect("telemetry event log poisoned");
        if log.events.len() < inner.config.event_capacity {
            log.events.push(event);
        } else {
            log.dropped += 1;
        }
    }

    /// Marks the start of a parallel region. `kind` is the op-kind label,
    /// `mask` the region's active-partition (convergence) mask.
    pub fn region_start(&self, kind: &'static str, mask: &[bool]) -> RegionToken {
        let Some(inner) = &self.inner else {
            return RegionToken { state: None };
        };
        let seq = inner
            .counters
            .regions_started
            .fetch_add(1, Ordering::Relaxed);
        let t = inner.start.elapsed().as_secs_f64();
        Self::push_event(
            inner,
            TelemetryEvent::RegionStart {
                t,
                region: seq,
                kind: kind.to_string(),
                mask: mask.to_vec(),
                session: self.session,
            },
        );
        RegionToken {
            state: Some((seq, kind, Instant::now())),
        }
    }

    /// Marks the completion of a region: records wall time, per-worker op
    /// latency and queue wait, and feeds the latency/imbalance histograms.
    pub fn region_end(&self, token: RegionToken, worker_seconds: &[f64], queue_wait: &[f64]) {
        let (Some(inner), Some((seq, kind, started))) = (&self.inner, token.state) else {
            return;
        };
        let seconds = started.elapsed().as_secs_f64();
        inner
            .counters
            .regions_completed
            .fetch_add(1, Ordering::Relaxed);
        {
            // lint:allow(L005): histogram mutex, taken only on the telemetry-enabled
            // path. lint:allow(L001): a poisoned telemetry histogram is fatal by design.
            let mut hists = inner.hists.lock().expect("telemetry histograms poisoned");
            hists.region_seconds.record(seconds);
            let busy: Vec<f64> = worker_seconds
                .iter()
                .copied()
                .filter(|&s| s > 0.0)
                .collect();
            if busy.len() > 1 {
                let max = busy.iter().copied().fold(0.0_f64, f64::max);
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                if mean > 0.0 {
                    hists.region_imbalance.record(max / mean);
                }
            }
        }
        let t = inner.start.elapsed().as_secs_f64();
        Self::push_event(
            inner,
            TelemetryEvent::RegionEnd {
                t,
                region: seq,
                kind: kind.to_string(),
                seconds,
                worker_seconds: worker_seconds.to_vec(),
                queue_wait: queue_wait.to_vec(),
                session: self.session,
            },
        );
    }

    /// Counts a table-slot cache hit.
    #[inline]
    pub fn table_cache_hit(&self) {
        if let Some(inner) = &self.inner {
            inner.counters.table_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an issued table slot (a cache miss).
    pub fn table_build(&self, partition: usize, branch: usize) {
        if let Some(inner) = &self.inner {
            inner.counters.table_builds.fetch_add(1, Ordering::Relaxed);
            let t = inner.start.elapsed().as_secs_f64();
            Self::push_event(
                inner,
                TelemetryEvent::TableBuild {
                    t,
                    partition,
                    branch,
                },
            );
        }
    }

    /// Accumulates tip-index cache counters drained from worker samples.
    pub fn add_tip_cache(&self, hits: u64, misses: u64, builds: u64) {
        if let Some(inner) = &self.inner {
            if hits | misses | builds != 0 {
                inner.counters.tip_hits.fetch_add(hits, Ordering::Relaxed);
                inner
                    .counters
                    .tip_misses
                    .fetch_add(misses, Ordering::Relaxed);
                inner
                    .counters
                    .tip_builds
                    .fetch_add(builds, Ordering::Relaxed);
            }
        }
    }

    /// Accumulates the `newview` columns workers computed and copied from a
    /// repeat class's representative, drained from worker samples.
    pub fn add_newview_columns(&self, computed: u64, copied: u64) {
        if let Some(inner) = &self.inner {
            if computed | copied != 0 {
                let c = &inner.counters;
                c.newview_columns_computed
                    .fetch_add(computed, Ordering::Relaxed);
                c.newview_columns_copied
                    .fetch_add(copied, Ordering::Relaxed);
            }
        }
    }

    /// Accumulates the branch tables workers built, drained from worker
    /// samples: at least one per issued slot a region read, more where two
    /// workers raced to the same slot.
    pub fn add_shard_table_builds(&self, n: u64) {
        if let Some(inner) = &self.inner {
            if n != 0 {
                inner
                    .counters
                    .shard_table_builds
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Counts a rescheduler consultation (regardless of outcome).
    #[inline]
    pub fn reschedule_considered(&self) {
        if let Some(inner) = &self.inner {
            inner
                .counters
                .reschedules_considered
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a pattern migration (a fired reschedule).
    pub fn reschedule(
        &self,
        round: usize,
        within_round: bool,
        measured_imbalance: f64,
        predicted_imbalance: f64,
    ) {
        if let Some(inner) = &self.inner {
            inner.counters.reschedules.fetch_add(1, Ordering::Relaxed);
            let t = inner.start.elapsed().as_secs_f64();
            Self::push_event(
                inner,
                TelemetryEvent::Reschedule {
                    t,
                    round,
                    within_round,
                    measured_imbalance,
                    predicted_imbalance,
                },
            );
        }
    }

    /// Records a worker death in region `region`.
    pub fn worker_death(&self, worker: usize, region: Option<u64>) {
        if let Some(inner) = &self.inner {
            inner.counters.worker_deaths.fetch_add(1, Ordering::Relaxed);
            let t = inner.start.elapsed().as_secs_f64();
            Self::push_event(
                inner,
                TelemetryEvent::WorkerDeath {
                    t,
                    worker,
                    region: region.unwrap_or(u64::MAX),
                },
            );
        }
    }

    /// Records a successful worker recovery (attempt is 1-based).
    pub fn worker_recovery(&self, worker: usize, attempt: usize) {
        if let Some(inner) = &self.inner {
            inner
                .counters
                .worker_recoveries
                .fetch_add(1, Ordering::Relaxed);
            let t = inner.start.elapsed().as_secs_f64();
            Self::push_event(inner, TelemetryEvent::WorkerRecovery { t, worker, attempt });
        }
    }

    /// Records the end of an optimizer round.
    pub fn optimizer_round(&self, round: usize, log_likelihood: f64) {
        if let Some(inner) = &self.inner {
            inner
                .counters
                .optimizer_rounds
                .fetch_add(1, Ordering::Relaxed);
            let t = inner.start.elapsed().as_secs_f64();
            Self::push_event(
                inner,
                TelemetryEvent::OptimizerRound {
                    t,
                    round,
                    log_likelihood,
                    session: self.session,
                },
            );
        }
    }

    /// Records one Newton–Raphson probe on a branch.
    pub fn newton_probe(
        &self,
        branch: usize,
        partition: Option<usize>,
        length: f64,
        log_likelihood: f64,
        first: f64,
        second: f64,
    ) {
        if let Some(inner) = &self.inner {
            inner.counters.newton_probes.fetch_add(1, Ordering::Relaxed);
            if inner.config.record_probes {
                let t = inner.start.elapsed().as_secs_f64();
                Self::push_event(
                    inner,
                    TelemetryEvent::NewtonProbe {
                        t,
                        branch,
                        partition,
                        length,
                        log_likelihood,
                        first,
                        second,
                    },
                );
            }
        }
    }

    /// Records one Brent probe on a model parameter.
    pub fn brent_probe(
        &self,
        parameter: &'static str,
        partition: usize,
        value: f64,
        log_likelihood: f64,
    ) {
        if let Some(inner) = &self.inner {
            inner.counters.brent_probes.fetch_add(1, Ordering::Relaxed);
            if inner.config.record_probes {
                let t = inner.start.elapsed().as_secs_f64();
                Self::push_event(
                    inner,
                    TelemetryEvent::BrentProbe {
                        t,
                        parameter: parameter.to_string(),
                        partition,
                        value,
                        log_likelihood,
                    },
                );
            }
        }
    }

    /// A consistent point-in-time snapshot of counters, histograms and the
    /// event log.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let log = inner.events.lock().expect("telemetry event log poisoned");
        let hists = inner.hists.lock().expect("telemetry histograms poisoned");
        let c = &inner.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TelemetrySnapshot {
            uptime_seconds: inner.start.elapsed().as_secs_f64(),
            counters: CounterSnapshot {
                regions_started: load(&c.regions_started),
                regions_completed: load(&c.regions_completed),
                table_hits: load(&c.table_hits),
                table_builds: load(&c.table_builds),
                shard_table_builds: load(&c.shard_table_builds),
                tip_hits: load(&c.tip_hits),
                tip_misses: load(&c.tip_misses),
                tip_builds: load(&c.tip_builds),
                newview_columns_computed: load(&c.newview_columns_computed),
                newview_columns_copied: load(&c.newview_columns_copied),
                reschedules: load(&c.reschedules),
                reschedules_considered: load(&c.reschedules_considered),
                worker_deaths: load(&c.worker_deaths),
                worker_recoveries: load(&c.worker_recoveries),
                optimizer_rounds: load(&c.optimizer_rounds),
                newton_probes: load(&c.newton_probes),
                brent_probes: load(&c.brent_probes),
                events_recorded: log.events.len() as u64,
                events_dropped: log.dropped,
            },
            region_seconds: hists.region_seconds.clone(),
            region_imbalance: hists.region_imbalance.clone(),
            events: log.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        let token = t.region_start("newview", &[true]);
        assert_eq!(token.region(), None);
        t.region_end(token, &[1.0], &[]);
        t.table_cache_hit();
        t.newton_probe(0, None, 0.1, -1.0, 0.0, -1.0);
        let snap = t.snapshot();
        assert_eq!(snap, TelemetrySnapshot::default());
        assert_eq!(snap.counters.regions_started, 0);
    }

    #[test]
    fn regions_pair_starts_and_ends() {
        let t = Telemetry::new(TelemetryConfig::default());
        let a = t.region_start("newview", &[true, false]);
        assert_eq!(a.region(), Some(0));
        t.region_end(a, &[0.5, 1.0], &[0.0, 0.0]);
        let b = t.region_start("evaluate", &[true, true]);
        assert_eq!(b.region(), Some(1));
        // Aborted region: started but never completed.
        let _ = b;
        let snap = t.snapshot();
        assert_eq!(snap.counters.regions_started, 2);
        assert_eq!(snap.counters.regions_completed, 1);
        assert_eq!(snap.region_seconds.count(), 1);
        // Imbalance 1.0 vs 0.75 mean → max/mean = 4/3 recorded once.
        assert_eq!(snap.region_imbalance.count(), 1);
        let starts = snap
            .events
            .iter()
            .filter(|e| e.kind_label() == "region_start")
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|e| e.kind_label() == "region_end")
            .count();
        assert_eq!((starts, ends), (2, 1));
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let t = Telemetry::new(TelemetryConfig::default());
        let clone = t.clone();
        t.table_cache_hit();
        clone.table_cache_hit();
        clone.table_build(0, 3);
        t.add_tip_cache(10, 2, 1);
        clone.add_newview_columns(7, 3);
        t.add_newview_columns(1, 0);
        t.reschedule_considered();
        t.reschedule(1, false, 1.5, 1.1);
        t.worker_death(2, Some(7));
        t.worker_recovery(2, 1);
        t.optimizer_round(1, -10.0);
        t.newton_probe(4, Some(0), 0.1, -10.0, 1.0, -2.0);
        t.brent_probe("alpha", 0, 0.5, -9.5);
        let snap = clone.snapshot();
        assert_eq!(snap.counters.table_hits, 2);
        assert_eq!(snap.counters.table_builds, 1);
        assert_eq!(
            (
                snap.counters.tip_hits,
                snap.counters.tip_misses,
                snap.counters.tip_builds
            ),
            (10, 2, 1)
        );
        assert_eq!(
            (
                snap.counters.newview_columns_computed,
                snap.counters.newview_columns_copied
            ),
            (8, 3)
        );
        assert_eq!(snap.counters.reschedules_considered, 1);
        assert_eq!(snap.counters.reschedules, 1);
        assert_eq!(snap.counters.worker_deaths, 1);
        assert_eq!(snap.counters.worker_recoveries, 1);
        assert_eq!(snap.counters.optimizer_rounds, 1);
        assert_eq!(snap.counters.newton_probes, 1);
        assert_eq!(snap.counters.brent_probes, 1);
        assert_eq!(snap.counters.events_recorded, snap.events.len() as u64);
    }

    #[test]
    fn session_scoped_handles_tag_events_and_share_counters() {
        let pool = Telemetry::new(TelemetryConfig::default());
        assert_eq!(pool.session(), None);
        let a = pool.for_session(1);
        let b = pool.for_session(2);
        assert_eq!(a.session(), Some(1));

        let token = a.region_start("newview", &[true]);
        a.region_end(token, &[0.5], &[0.0]);
        a.optimizer_round(1, -100.0);
        let token = b.region_start("evaluate", &[true]);
        b.region_end(token, &[0.5], &[0.0]);
        let token = pool.region_start("evaluate", &[true]);
        pool.region_end(token, &[0.5], &[0.0]);

        // Counters aggregate across all sessions on the shared recorder.
        let snap = pool.snapshot();
        assert_eq!(snap.counters.regions_started, 3);
        assert_eq!(snap.counters.regions_completed, 3);
        assert_eq!(snap.counters.optimizer_rounds, 1);

        // The event log slices cleanly per session.
        let for_a = snap.session_events(1);
        assert_eq!(for_a.len(), 3);
        assert!(for_a.iter().all(|e| e.session() == Some(1)));
        assert_eq!(snap.session_events(2).len(), 2);
        // The unscoped region's events carry no tag.
        assert_eq!(
            snap.events.iter().filter(|e| e.session().is_none()).count(),
            2
        );

        // Scoping a disabled handle stays inert.
        let off = Telemetry::disabled().for_session(9);
        assert!(!off.enabled());
        assert_eq!(off.session(), Some(9));
        off.optimizer_round(1, -1.0);
        assert_eq!(off.snapshot().counters.optimizer_rounds, 0);
    }

    #[test]
    fn event_log_is_bounded_and_counts_drops() {
        let t = Telemetry::new(TelemetryConfig::default().event_capacity(3));
        for round in 0..10 {
            t.optimizer_round(round, -1.0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.counters.events_dropped, 7);
        assert_eq!(snap.counters.optimizer_rounds, 10);
    }

    #[test]
    fn probe_events_can_be_disabled_independently_of_counters() {
        let t = Telemetry::new(TelemetryConfig::default().probes(false));
        t.newton_probe(0, None, 0.1, -1.0, 0.5, -1.0);
        t.brent_probe("alpha", 0, 0.3, -1.0);
        let snap = t.snapshot();
        assert_eq!(snap.counters.newton_probes, 1);
        assert_eq!(snap.counters.brent_probes, 1);
        assert!(snap.events.is_empty());
    }
}
