//! Telemetry integration tests: the event stream stays coherent under
//! injected worker deaths, the derived counters agree with the engine's own
//! statistics, and recording does not perturb the likelihood at all.

use std::collections::HashSet;
use std::sync::Arc;

use plf_loadbalance::kernel::SequentialExecutor;
use plf_loadbalance::prelude::*;

fn dataset(seed: u64) -> plf_loadbalance::seqgen::GeneratedDataset {
    mixed_dna_protein(6, 3, 2, 48, seed).generate()
}

/// An injected worker death mid-optimize leaves a coherent event stream:
/// exactly one death and one recovery, every region sequence number unique,
/// and `started - completed == deaths` (the death's region is the only one
/// that never completes). The engine's own `KernelStats::table_builds`
/// agrees with the telemetry counter by construction.
#[test]
fn injected_death_yields_a_coherent_event_stream() {
    let ds = dataset(21);
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(3)
        .telemetry(TelemetryConfig::default())
        .build()
        .unwrap();
    analysis
        .kernel_mut()
        .executor_mut()
        .inject_worker_panic(1, 40);
    let config = OptimizerConfig {
        max_rounds: 1,
        ..OptimizerConfig::new(ParallelScheme::New)
    };
    let report = analysis.optimize(&config).unwrap();
    assert_eq!(report.recoveries.len(), 1, "the injected death is absorbed");

    let snap = analysis.telemetry_snapshot().expect("telemetry is armed");
    let c = &snap.counters;
    assert_eq!(c.worker_deaths, 1);
    assert_eq!(c.worker_recoveries, 1);
    assert_eq!(
        c.regions_started - c.regions_completed,
        c.worker_deaths,
        "only the dead region may be missing its end"
    );
    assert_eq!(
        c.table_builds,
        analysis.kernel().stats().table_builds,
        "telemetry and KernelStats count the same table builds"
    );

    // Event-level coherence needs the full log.
    assert_eq!(
        c.events_dropped, 0,
        "log capacity must suffice for this run"
    );
    let mut starts = HashSet::new();
    let mut ends = HashSet::new();
    let mut death_at = None;
    let mut recovery_at = None;
    let mut regions_after_recovery = 0u64;
    for (i, event) in snap.events.iter().enumerate() {
        match event {
            TelemetryEvent::RegionStart { region, .. } => {
                assert!(starts.insert(*region), "duplicated region start {region}");
                if recovery_at.is_some() {
                    regions_after_recovery += 1;
                }
            }
            TelemetryEvent::RegionEnd { region, .. } => {
                assert!(ends.insert(*region), "duplicated region end {region}");
                assert!(starts.contains(region), "end without start {region}");
            }
            TelemetryEvent::WorkerDeath { worker, .. } => {
                assert_eq!(*worker, 1);
                death_at = Some(i);
            }
            TelemetryEvent::WorkerRecovery {
                worker, attempt, ..
            } => {
                assert_eq!(*worker, 1);
                assert_eq!(*attempt, 1);
                recovery_at = Some(i);
            }
            _ => {}
        }
    }
    let death_at = death_at.expect("death event recorded");
    let recovery_at = recovery_at.expect("recovery event recorded");
    assert!(death_at < recovery_at, "death precedes its recovery");
    assert!(
        regions_after_recovery > 0,
        "the optimizer resumed issuing regions after the recovery"
    );
    assert_eq!(starts.len() - ends.len(), 1, "exactly one region lost");
}

/// A traced 7-worker session with an aggressive rescheduling policy, run to
/// the end: the session and what `optimize` returned.
fn rescheduling_run() -> (
    Analysis<TracingExecutor>,
    PolicyRun<plf_loadbalance::optimize::OptimizationReport>,
) {
    let ds = dataset(17);
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(7)
        .strategy(Cyclic)
        .rescheduler(ReschedulePolicy {
            imbalance_threshold: 1.0001,
            min_regions: 8,
            unit: TraceUnit::Flops,
            max_reschedules: 1,
            mask_aware: false,
        })
        .telemetry(TelemetryConfig::default())
        .build_traced()
        .unwrap();
    let report = analysis
        .optimize(&OptimizerConfig::new(ParallelScheme::New))
        .unwrap();
    assert!(!report.events.is_empty(), "the policy must trigger");
    (analysis, report)
}

/// On a traced session with an aggressive rescheduling policy the telemetry
/// counters agree with every other observable: the `RescheduleEvent` list,
/// the per-epoch `WorkTrace` region counts, the optimizer-round count, and
/// the engine's table-build statistic.
#[test]
fn snapshot_counters_agree_with_kernel_trace_and_reschedule_events() {
    let (analysis, report) = rescheduling_run();

    let snap = analysis.telemetry_snapshot().expect("telemetry is armed");
    let c = &snap.counters;
    assert_eq!(c.reschedules, report.events.len() as u64);
    assert!(c.reschedules_considered >= c.reschedules);
    assert_eq!(c.optimizer_rounds, report.report.rounds as u64);
    assert_eq!(c.table_builds, analysis.kernel().stats().table_builds);
    assert_eq!(c.worker_deaths, 0);
    assert_eq!(c.regions_started, c.regions_completed);

    // Regions seen by telemetry == regions in the epoch traces captured at
    // each migration plus the live trace since the last one. (The boundary
    // likelihood evaluations around a migration land in one epoch or the
    // next, but never vanish.)
    let traced: usize = report
        .events
        .iter()
        .map(|e| e.epoch_trace.sync_events())
        .sum::<usize>()
        + analysis.trace().sync_events();
    assert_eq!(c.regions_completed as usize, traced);

    // The probe streams and the tip-index cache were exercised: the mixed
    // dataset has protein partitions, so tip lookups hit the cache.
    assert!(c.newton_probes > 0);
    assert!(c.brent_probes > 0);
    assert!(c.tip_hits > 0);
    assert!(snap.tip_cache_hit_rate() > 0.5);
}

/// A finished run's snapshot, alone, draws its own timeline: one line per
/// completed region up to the limit (mask and one lane per worker), every
/// reschedule and optimizer round as a marker whatever the limit, and an
/// `elided` trailer exactly when regions were cut.
#[test]
fn a_snapshot_renders_its_own_timeline() {
    let (analysis, report) = rescheduling_run();
    let snap = analysis.telemetry_snapshot().expect("telemetry is armed");
    let regions = snap.counters.regions_completed as usize;
    assert!(regions > 10, "the run must outgrow the small limit");
    for limit in [10, regions, usize::MAX] {
        let timeline = snap.render_timeline(limit);
        let region_lines: Vec<&str> = timeline.lines().filter(|l| l.ends_with('|')).collect();
        assert_eq!(region_lines.len(), regions.min(limit));
        for line in &region_lines {
            let lanes = line.trim_end_matches('|').rsplit('|').next().unwrap();
            assert_eq!(lanes.chars().count(), 7, "one lane per worker: {line}");
            let mask = &line[line.find('[').unwrap() + 1..line.find(']').unwrap()];
            assert_eq!(mask.len(), 5, "one mask character per partition: {line}");
        }
        let count = |marker: &str| timeline.lines().filter(|l| l.contains(marker)).count();
        assert_eq!(count(">>> reschedule"), report.events.len());
        assert_eq!(count("=== round"), report.report.rounds);
        assert_eq!(count("elided"), usize::from(regions > limit));
    }
}

/// Recording telemetry must not change a single bit of the result: the same
/// session with telemetry on and off lands on the exact same likelihood.
#[test]
fn telemetry_does_not_perturb_the_likelihood_at_all() {
    let ds = dataset(29);
    let config = OptimizerConfig::new(ParallelScheme::New);
    let mut quiet = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(2)
        .build()
        .unwrap();
    let mut loud = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(2)
        .telemetry(TelemetryConfig::default())
        .build()
        .unwrap();
    let a = quiet.optimize(&config).unwrap().report.final_log_likelihood;
    let b = loud.optimize(&config).unwrap().report.final_log_likelihood;
    assert_eq!(a.to_bits(), b.to_bits(), "telemetry changed the result");
    assert!(quiet.telemetry_snapshot().is_none());
    assert!(loud.telemetry_snapshot().is_some());
}

/// A region says what it carried: a solve issues one command per likelihood
/// call, so no region is a bare traversal — the traversals ride with the
/// evaluations and branch preparations that read them — and telemetry sees
/// exactly the regions the executor synchronized on.
#[test]
fn a_solves_regions_say_what_they_carried() {
    let ds = dataset(31);
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(2)
        .telemetry(TelemetryConfig::default())
        .build()
        .unwrap();
    let _ = analysis
        .optimize(&OptimizerConfig::new(ParallelScheme::New))
        .unwrap();
    let snap = analysis.telemetry_snapshot().unwrap();
    assert_eq!(snap.counters.events_dropped, 0);
    let kinds: HashSet<&str> = snap
        .events
        .iter()
        .filter_map(|event| match event {
            TelemetryEvent::RegionStart { kind, .. } => Some(kind.as_str()),
            _ => None,
        })
        .collect();
    assert!(!kinds.contains("newview"), "{kinds:?}");
    for carried in [
        "newview+evaluate",
        "newview+sumtable+derivatives",
        "derivatives",
    ] {
        assert!(kinds.contains(carried), "{carried} missing from {kinds:?}");
    }
    assert_eq!(
        snap.counters.regions_started,
        analysis.kernel().sync_events()
    );
}

/// Slots issued by the master, tables built by the shards, and the
/// tip-cache (hits, misses, builds) and dispatch-pattern (blocked, scalar)
/// counters the executor's regions closed with, over one optimize pass with
/// telemetry on.
fn issued_and_built<E: plf_loadbalance::kernel::Executor>(
    ds: &plf_loadbalance::seqgen::GeneratedDataset,
    models: &ModelSet,
    executor: E,
) -> (u64, u64, [u64; 3]) {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let (patterns, tree, models) = (Arc::clone(&ds.patterns), ds.tree.clone(), models.clone());
    let mut kernel = LikelihoodKernel::try_new(patterns, tree, models, executor).unwrap();
    kernel.set_telemetry(&telemetry);
    let config = OptimizerConfig {
        max_rounds: 1,
        ..OptimizerConfig::new(ParallelScheme::New)
    };
    optimize_model_parameters(&mut kernel, &config).unwrap();
    let c = telemetry.snapshot().counters;
    let counters = [c.tip_hits, c.tip_misses, c.tip_builds];
    (kernel.stats().table_builds, c.shard_table_builds, counters)
}

/// Every slot the master issues is built by the shard that reads it first:
/// where a region's shards run one after another (the sequential executor,
/// virtual workers, a served session) each slot is built exactly once; on
/// `T` real threads two shards may race to the same slot, so a slot is built
/// one to `T` times. Every executor closes its regions through one path, so
/// one virtual worker drains exactly the counters the sequential executor
/// does.
#[test]
fn shards_build_every_issued_table_slot() {
    let ds = dataset(37);
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let capacity = ds.tree.node_capacity();
    let sequential = SequentialExecutor::new(&ds.patterns, capacity, &cats);
    let solo = issued_and_built(&ds, &models, sequential);
    let (issued, built, counters) = solo;
    assert!(issued > 0 && counters[0] > 0, "{counters:?}");
    assert_eq!(built, issued, "sequential");
    let tracing = |workers| {
        let assignment = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
        TracingExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap()
    };
    assert_eq!(
        issued_and_built(&ds, &models, tracing(1)),
        solo,
        "1 virtual worker"
    );
    for workers in [2u64, 3] {
        let (issued, built, _) = issued_and_built(&ds, &models, tracing(workers as usize));
        assert_eq!(built, issued, "{workers} virtual workers");
        let assignment = schedule(&ds.patterns, &cats, workers as usize, &Cyclic).unwrap();
        let threaded =
            ThreadedExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap();
        let (issued, built, _) = issued_and_built(&ds, &models, threaded);
        assert!(
            (issued..=workers * issued).contains(&built),
            "{workers} threads: {built} built for {issued} slots"
        );
    }

    let mut pool = SessionManager::with_strategy(
        2,
        TenantStrategy::default(),
        Some(TelemetryConfig::default()),
    );
    let spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone());
    pool.submit(spec).unwrap().join().unwrap();
    let counters = pool.telemetry_snapshot().unwrap().counters;
    assert!(counters.table_builds > 0);
    assert_eq!(counters.shard_table_builds, counters.table_builds, "served");
}

/// The blocked DNA loops keep the scalar kernel's accounting: one DNA solve
/// under each dispatch, selected on the built session's kernel, performs the
/// same tip-index cache hits, misses and builds and ends on the same lnL
/// bits — so `tip_cache_hit_rate` means the same under both.
#[test]
fn both_dispatches_keep_the_same_tip_cache_and_pattern_accounting() {
    let spec = DatasetSpec {
        name: "dna_accounting".into(),
        taxa: 8,
        partition_columns: vec![60; 3],
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.0,
        seed: 43,
    };
    let ds = spec.generate();
    let counters = |dispatch| {
        let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(2)
            .telemetry(TelemetryConfig::default())
            .build_traced()
            .unwrap();
        analysis.kernel_mut().set_dispatch(dispatch);
        let lnl = analysis
            .optimize(&OptimizerConfig {
                max_rounds: 1,
                ..OptimizerConfig::new(ParallelScheme::New)
            })
            .unwrap()
            .report
            .final_log_likelihood;
        (lnl, analysis.telemetry_snapshot().unwrap().counters)
    };
    let (scalar_lnl, scalar) = counters(KernelDispatch::Scalar);
    let (blocked_lnl, blocked) = counters(KernelDispatch::Blocked);
    assert_eq!(
        scalar_lnl.to_bits(),
        blocked_lnl.to_bits(),
        "DNA is bit for bit"
    );
    assert!(scalar.tip_hits > 0);
    assert_eq!(
        (scalar.tip_hits, scalar.tip_misses, scalar.tip_builds),
        (blocked.tip_hits, blocked.tip_misses, blocked.tip_builds),
        "tip-cache counters"
    );
}

/// The per-worker op seconds of every `RegionEnd` in `snapshot`, in order.
fn region_end_seconds(snapshot: &TelemetrySnapshot) -> Vec<Vec<u64>> {
    let seconds = snapshot.events.iter().filter_map(|event| match event {
        TelemetryEvent::RegionEnd { worker_seconds, .. } => Some(worker_seconds),
        _ => None,
    });
    seconds
        .map(|s| s.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// A region is measured once: on real threads a worker's op seconds reach
/// the telemetry event and the executor's kept trace from the same reply, so
/// the two agree bit for bit, and after a death and a re-`install` the next
/// region hears from every worker of the pool.
#[test]
fn a_region_is_measured_once() {
    let ds = dataset(29);
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let capacity = ds.tree.node_capacity();
    let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
    let options = ExecutorOptions {
        timed: true,
        skew: None,
    };
    let executor =
        ThreadedExecutor::with_options(&ds.patterns, &assignment, capacity, &cats, options)
            .unwrap();
    let (patterns, tree) = (Arc::clone(&ds.patterns), ds.tree.clone());
    let mut kernel = LikelihoodKernel::try_new(patterns, tree, models, executor).unwrap();
    let telemetry = Telemetry::new(TelemetryConfig::default());
    kernel.set_telemetry(&telemetry);
    let kept = |kernel: &LikelihoodKernel<ThreadedExecutor>| -> Vec<Vec<u64>> {
        let regions = &kernel.executor().trace().regions;
        let seconds = regions.iter().map(|r| &r.seconds_per_worker);
        seconds
            .map(|s| s.iter().map(|x| x.to_bits()).collect())
            .collect()
    };

    let config = OptimizerConfig {
        max_rounds: 1,
        ..OptimizerConfig::new(ParallelScheme::New)
    };
    optimize_model_parameters(&mut kernel, &config).unwrap();
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counters.events_dropped, 0);
    let ends = region_end_seconds(&snapshot);
    assert_eq!(ends.len() as u64, kernel.sync_events());
    assert_eq!(ends, kept(&kernel), "telemetry and trace disagree");

    kernel.executor_mut().inject_worker_panic(1, 0);
    assert_eq!(
        kernel.try_log_likelihood().unwrap_err(),
        KernelError::Exec(ExecError::WorkerDied { worker: 1 })
    );
    let executor = kernel.executor_mut();
    executor
        .reassign(&ds.patterns, &assignment, capacity, &cats)
        .unwrap();
    kernel.invalidate_all();
    kernel.try_log_likelihood().unwrap();
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counters.events_dropped, 0);
    assert_eq!(snapshot.counters.worker_deaths, 1);
    let ends = region_end_seconds(&snapshot);
    let after = &ends[ends.len() - 1..];
    assert_eq!(after, kept(&kernel), "the region after the re-install");
    assert_eq!(after[0].len(), 3);
    assert!(after[0].iter().all(|&bits| f64::from_bits(bits) > 0.0));
}

/// The two export formats round-trip a real run's snapshot: JSONL → events,
/// Prometheus text → every counter.
#[test]
fn exports_round_trip_a_real_run() {
    let ds = dataset(33);
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(2)
        .telemetry(TelemetryConfig::default())
        .build()
        .unwrap();
    let _ = analysis
        .optimize(&OptimizerConfig {
            max_rounds: 1,
            ..OptimizerConfig::new(ParallelScheme::New)
        })
        .unwrap();
    let snap = analysis.telemetry_snapshot().unwrap();
    assert!(!snap.events.is_empty());

    let back = TelemetrySnapshot::events_from_jsonl(&snap.to_jsonl());
    assert_eq!(back, snap.events, "JSONL must round-trip the event log");

    let parsed = TelemetrySnapshot::parse_prometheus(&snap.to_prometheus());
    for (name, value) in snap.counters.named() {
        assert_eq!(
            parsed.get(&format!("plf_{name}_total")).copied(),
            Some(value as f64),
            "counter {name} must round-trip"
        );
    }
}
