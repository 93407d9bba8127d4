//! Multi-tenant serving: cross-session isolation, typed admission, compute
//! slots and per-session telemetry on the shared pool.

use std::sync::Arc;

use plf_loadbalance::kernel::Executor;
use plf_loadbalance::prelude::*;
use plf_loadbalance::serve::TenantStrategy;

use plf_loadbalance::seqgen::GeneratedDataset;

/// The dedicated-run baseline: the same dataset, strategy and optimizer on
/// a private executor of the pool's width.
fn solo_final_lnl(ds: &GeneratedDataset, threads: usize) -> f64 {
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(threads)
        .build()
        .expect("solo build");
    analysis
        .optimize(&OptimizerConfig::new(ParallelScheme::New))
        .expect("solo optimize")
        .report
        .final_log_likelihood
}

fn mixed_fleet(count: usize) -> Vec<GeneratedDataset> {
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                paper_simulated(6, 160, 40, 100 + i as u64).generate()
            } else {
                mixed_dna_protein(6, 2, 1, 16, 200 + i as u64).generate()
            }
        })
        .collect()
}

#[test]
fn injected_worker_death_stays_tenant_local_and_lnl_stays_bit_identical() {
    let workers = 2;
    let fleet = mixed_fleet(4);
    let solo: Vec<f64> = fleet.iter().map(|ds| solo_final_lnl(ds, workers)).collect();

    let mut pool = SessionManager::new(workers);
    let mut handles = Vec::new();
    for (i, ds) in fleet.iter().enumerate() {
        let mut spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone())
            .label(format!("tenant-{i}"));
        if i == 0 {
            // Worker 1 dies on this session's 1st dispatched op — the
            // evaluate of the initial likelihood (traversal included),
            // before any parameter commit, so the recovered rerun retraces
            // the solo trajectory.
            spec = spec.inject_worker_fault(1, 0);
        }
        handles.push(pool.submit(spec).expect("admission"));
    }
    let outcomes: Vec<SessionOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("session outcome"))
        .collect();

    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.final_log_likelihood.to_bits(),
            solo[i].to_bits(),
            "session {i} drifted from its dedicated run"
        );
        let expected = usize::from(i == 0);
        assert_eq!(
            outcome.recoveries.len(),
            expected,
            "session {i} saw {} recoveries, expected {expected}",
            outcome.recoveries.len()
        );
    }

    // The panic was observed, quarantined one tenant on one worker, and the
    // pool still admits and serves new sessions on the same threads.
    let stats = pool.stats().expect("stats");
    assert_eq!(stats.worker_panics, 1);
    assert!(stats
        .last_panic
        .as_deref()
        .is_some_and(|m| m.contains("injected")));
    assert_eq!(stats.active_sessions, 0, "finished sessions are retired");

    let late = mixed_fleet(1).remove(0);
    let late_solo = solo_final_lnl(&late, workers);
    let handle = pool
        .submit(SessionSpec::new(Arc::clone(&late.patterns), late.tree.clone()).label("late"))
        .expect("post-fault admission");
    let outcome = handle.join().expect("post-fault session");
    assert_eq!(outcome.final_log_likelihood.to_bits(), late_solo.to_bits());
    assert!(outcome.recoveries.is_empty());
}

#[test]
fn admission_overload_and_zero_weight_are_typed_errors() {
    let strategy = TenantStrategy {
        max_sessions: 0,
        ..TenantStrategy::default()
    };
    let mut pool = SessionManager::with_strategy(2, strategy, None);
    let ds = paper_simulated(6, 120, 30, 7).generate();

    let err = pool
        .submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
        .expect_err("a zero-capacity pool must reject");
    assert_eq!(
        err,
        ServeError::Admission(AdmissionError::PoolFull {
            active: 0,
            capacity: 0
        })
    );

    let err = pool
        .submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()).weight(0))
        .expect_err("a zero weight must be rejected");
    assert_eq!(err, ServeError::Admission(AdmissionError::ZeroWeight));
}

/// A fault on a worker the pool does not have would never fire, so its
/// chaos drill would pass while testing nothing: submit refuses it.
#[test]
fn an_injected_fault_outside_the_pool_is_a_typed_admission_error() {
    let mut pool = SessionManager::new(2);
    let ds = paper_simulated(6, 120, 30, 7).generate();
    let spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone());
    let err = pool
        .submit(spec.inject_worker_fault(5, 0))
        .expect_err("worker 5 of a 2-wide pool must be rejected");
    assert_eq!(
        err,
        ServeError::Admission(AdmissionError::FaultWorkerOutOfRange {
            worker: 5,
            worker_count: 2
        })
    );
    // Rejected before admission: no slot was taken.
    assert_eq!(pool.stats().expect("stats").active_sessions, 0);
}

#[test]
fn session_build_errors_are_typed_and_do_not_leak_admission_slots() {
    let mut pool = SessionManager::new(2);
    let ds = paper_simulated(6, 120, 30, 8).generate();
    let other = paper_simulated(6, 40, 40, 9).generate();
    // Models built for a different (single-partition) dataset.
    let wrong = ModelSet::default_for(&other.patterns, BranchLengthMode::Joint);
    let err = pool
        .submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()).models(wrong))
        .expect_err("mismatched models must be typed");
    assert!(matches!(
        err,
        ServeError::Kernel(KernelError::ModelCountMismatch { .. })
    ));
    // The failed submit left no half-admitted tenant behind.
    let stats = pool.stats().expect("stats");
    assert_eq!(stats.active_sessions, 0);
}

#[test]
fn pool_telemetry_is_scoped_per_session() {
    let mut pool = SessionManager::with_strategy(
        2,
        TenantStrategy::default(),
        Some(TelemetryConfig::default()),
    );
    let fleet = mixed_fleet(2);
    let handles: Vec<_> = fleet
        .iter()
        .map(|ds| {
            pool.submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
                .expect("admission")
        })
        .collect();
    let ids: Vec<u64> = handles.iter().map(|h| h.session()).collect();
    for handle in handles {
        handle.join().expect("session outcome");
    }

    let snapshot = pool.telemetry_snapshot().expect("telemetry configured");
    assert!(snapshot.counters.regions_started > 0);
    for &id in &ids {
        let events = snapshot.session_events(id);
        assert!(
            !events.is_empty(),
            "session {id} left no tagged events in the pool log"
        );
        assert!(events.iter().all(|e| e.session() == Some(id)));
    }
    // The two sessions' slices are disjoint and cover every tagged event.
    let tagged = snapshot
        .events
        .iter()
        .filter(|e| e.session().is_some())
        .count();
    let per_session: usize = ids
        .iter()
        .map(|&id| snapshot.session_events(id).len())
        .sum();
    assert_eq!(tagged, per_session);
}

/// A pooled session's region events carry what each pool worker measured:
/// its own op seconds and its own queue wait, not a master-side estimate.
#[test]
fn pooled_region_events_carry_each_workers_own_measurements() {
    let mut pool = SessionManager::with_strategy(
        2,
        TenantStrategy::default(),
        Some(TelemetryConfig::default()),
    );
    let ds = &mixed_fleet(1)[0];
    let handle = pool
        .submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
        .expect("admission");
    let id = handle.session();
    handle.join().expect("session outcome");

    let snapshot = pool.telemetry_snapshot().expect("telemetry configured");
    let regions: Vec<(&Vec<f64>, &Vec<f64>)> = snapshot
        .session_events(id)
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::RegionEnd {
                worker_seconds,
                queue_wait,
                ..
            } => Some((worker_seconds, queue_wait)),
            _ => None,
        })
        .collect();
    assert!(!regions.is_empty());
    assert_eq!(
        snapshot.counters.regions_started,
        snapshot.counters.regions_completed
    );
    for (seconds, wait) in &regions {
        assert_eq!((seconds.len(), wait.len()), (2, 2));
    }
    assert!(
        regions.iter().any(|(seconds, _)| seconds[0] != seconds[1]),
        "two workers never measure the same op time on every region"
    );
    assert!(
        regions
            .iter()
            .any(|(_, wait)| wait.iter().any(|&w| w > 0.0)),
        "the workers' queue wait must reach the session's events"
    );
    // The workers' cache counters reach the pool-level totals too.
    assert!(snapshot.counters.tip_hits > 0);
}

/// One seeded spec whose parts disagree, by kind, and the typed error it
/// must come back as: permuted taxa, one model too many or too few, a model
/// of the other alphabet on one partition, an incomplete tree, weight 0, a
/// fault on a worker the pool does not have.
fn hostile_spec(kind: usize, seed: u64, workers: usize) -> (SessionSpec, ServeError) {
    use plf_loadbalance::tree::random::random_tree;
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let ds = mixed_dna_protein(5, 2, 1, 12, seed).generate();
    let spec = || SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone());
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let partitions = models.len();
    match kind {
        0 => {
            let mut taxa = ds.patterns.taxa.clone();
            let by = rng.gen_range(1..taxa.len());
            taxa.rotate_left(by);
            let tree = random_tree(&taxa, &mut rng);
            let spec = SessionSpec::new(Arc::clone(&ds.patterns), tree);
            (spec, ServeError::Kernel(KernelError::TaxaMismatch))
        }
        1 => {
            let mut list = models.models().to_vec();
            if rng.gen_bool(0.5) {
                list.pop();
            } else {
                list.push(list[0].clone());
            }
            let models = list.len();
            let spec = spec().models(ModelSet::from_models(list, BranchLengthMode::PerPartition));
            let mismatch = KernelError::ModelCountMismatch { models, partitions };
            (spec, ServeError::Kernel(mismatch))
        }
        2 => {
            let mut swapped = models.clone();
            let p = rng.gen_range(0..partitions);
            let (states, other) = match ds.patterns.partitions[p].data_type {
                DataType::Dna => (4, DataType::Protein),
                DataType::Protein => (20, DataType::Dna),
            };
            swapped.models_mut()[p] = PartitionModel::default_for(other);
            let dict_states = OpError::DictStates {
                model: other.states(),
                dict: states,
            };
            let error = ServeError::Kernel(KernelError::Op(dict_states));
            (spec().models(swapped), error)
        }
        3 => {
            let taxa = ds.patterns.taxa.clone();
            let tree = plf_loadbalance::tree::Tree::initial_triplet(taxa, [0, 1, 2]);
            let spec = SessionSpec::new(Arc::clone(&ds.patterns), tree);
            (spec, ServeError::Kernel(KernelError::IncompleteTree))
        }
        4 => (
            spec().weight(0),
            ServeError::Admission(AdmissionError::ZeroWeight),
        ),
        _ => {
            let worker = workers + rng.gen_range(0..3usize);
            let out_of_range = AdmissionError::FaultWorkerOutOfRange {
                worker,
                worker_count: workers,
            };
            let spec = spec().inject_worker_fault(worker, rng.gen_range(0..4u64));
            (spec, ServeError::Admission(out_of_range))
        }
    }
}

/// Session specs from outside the program are answered with a value: every
/// spec of a seeded corpus whose parts disagree ([`hostile_spec`]) comes
/// back from `submit` or `join` as its typed `ServeError` — a mismatched
/// alphabet as the shard's `OpError::DictStates` — never a panic, and the
/// pool serves a valid session straight afterwards.
#[test]
fn hostile_session_specs_are_typed_errors_and_the_pool_serves_on() {
    let workers = 2;
    let mut pool = SessionManager::new(workers);
    let valid = mixed_fleet(1).remove(0);
    for seed in 0..18u64 {
        let kind = (seed % 6) as usize;
        let (spec, want) = hostile_spec(kind, seed, workers);
        let submitted =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.submit(spec)))
                .unwrap_or_else(|_| panic!("kind {kind}, seed {seed}: submit panicked"));
        let got = submitted.and_then(|handle| handle.join().map(|_| ()));
        assert_eq!(got, Err(want), "kind {kind}, seed {seed}");

        let spec = SessionSpec::new(Arc::clone(&valid.patterns), valid.tree.clone());
        let outcome = pool.submit(spec).and_then(|h| h.join());
        let outcome = outcome.unwrap_or_else(|e| panic!("kind {kind}, seed {seed}: {e}"));
        assert!(outcome.final_log_likelihood.is_finite());
        assert!(outcome.recoveries.is_empty());
    }
    let stats = pool.stats().expect("stats");
    assert_eq!((stats.active_sessions, stats.worker_panics), (0, 0));
}

/// A run of `executor` the way a session runs: default per-partition models,
/// the newPAR optimizer under the default run policy.
fn final_lnl<E: Executor + Reassignable>(ds: &GeneratedDataset, executor: E) -> f64 {
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let (patterns, tree) = (Arc::clone(&ds.patterns), ds.tree.clone());
    let mut kernel = LikelihoodKernel::try_new(patterns, tree, models, executor).expect("kernel");
    let config = OptimizerConfig::new(ParallelScheme::New);
    let run = optimize_model_parameters_with_policy(&mut kernel, &config, RunPolicy::default());
    run.expect("optimize").report.final_log_likelihood
}

/// What makes running a session's shards on its own thread legal: one
/// `WeightedLpt` assignment over T workers gives the same final lnL, bit for
/// bit, on T pool threads (`ThreadedExecutor`), on T virtual workers run in
/// order (`TracingExecutor`) and served from a T-slot pool.
#[test]
fn served_sessions_match_threaded_and_tracing_runs_of_the_same_assignment() {
    let fleet = mixed_fleet(4);
    for workers in 1..=3 {
        let mut pool = SessionManager::new(workers);
        let handles: Vec<_> = fleet
            .iter()
            .map(|ds| {
                pool.submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
                    .expect("admission")
            })
            .collect();
        for (i, (ds, handle)) in fleet.iter().zip(handles).enumerate() {
            let served = handle.join().expect("session outcome").final_log_likelihood;
            let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
            let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
            let assignment =
                schedule(&ds.patterns, &cats, workers, &WeightedLpt).expect("schedule");
            let capacity = ds.tree.node_capacity();
            let threaded =
                ThreadedExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats)
                    .expect("threaded executor");
            let tracing =
                TracingExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats)
                    .expect("tracing executor");
            for (name, lnl) in [
                ("threaded", final_lnl(ds, threaded)),
                ("tracing", final_lnl(ds, tracing)),
            ] {
                assert_eq!(
                    served.to_bits(),
                    lnl.to_bits(),
                    "T={workers}, session {i}: served {served} vs {name} {lnl}"
                );
            }
        }
    }
}

/// With more sessions than compute slots, a region's queue-wait lanes
/// record what the tenant waited for: its slot, before any shard ran.
#[test]
fn a_region_that_waited_for_its_slot_records_the_wait_on_every_lane() {
    let mut pool = SessionManager::with_strategy(
        1,
        TenantStrategy::default(),
        Some(TelemetryConfig::default()),
    );
    let handles: Vec<_> = mixed_fleet(3)
        .iter()
        .map(|ds| {
            pool.submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
                .expect("admission")
        })
        .collect();
    for handle in handles {
        handle.join().expect("session outcome");
    }
    let snapshot = pool.telemetry_snapshot().expect("telemetry configured");
    let slot_waits = snapshot.events.iter().filter(|e| match e {
        TelemetryEvent::RegionEnd { queue_wait, .. } => queue_wait.iter().all(|&w| w > 0.0),
        _ => false,
    });
    assert!(
        slot_waits.count() > 0,
        "three sessions on one slot never waited for it"
    );
}

/// Shutting the pool down under sessions still waiting for a slot neither
/// hangs nor panics: each session ends with its outcome or a typed error.
#[test]
fn shutdown_with_sessions_waiting_for_a_slot_ends_every_session() {
    let mut pool = SessionManager::new(1);
    let handles: Vec<_> = mixed_fleet(3)
        .iter()
        .map(|ds| {
            pool.submit(SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone()))
                .expect("admission")
        })
        .collect();
    pool.shutdown();
    for handle in handles {
        let result = handle.join();
        assert!(
            matches!(
                result,
                Ok(_) | Err(ServeError::Kernel(KernelError::Exec(_)))
            ),
            "{result:?}"
        );
    }
}

/// The pool's sessions run the blocked dispatch (the engine default); each
/// of 8 mixed-alphabet tenants must reproduce its *scalar-dispatch* solo
/// optimum. The two dispatches take microscopically different FP paths on
/// protein partitions (documented ≤1e-12 per evaluation), so the converged
/// optima compare within the optimizer's own convergence tolerance (1e-6),
/// not bitwise. A worker death injected into one tenant stays quarantined
/// exactly as in the bit-identical default-dispatch case.
#[test]
fn blocked_sessions_reproduce_scalar_solo_optima_with_fault_quarantine() {
    let workers = 2;
    let fleet = mixed_fleet(8);
    // Scalar-dispatch solo baselines: same dataset, same strategy, same
    // optimizer, reference kernels.
    let solo_scalar: Vec<f64> = fleet
        .iter()
        .map(|ds| {
            let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
                .threads(workers)
                .build()
                .expect("scalar solo build");
            analysis.kernel_mut().set_dispatch(KernelDispatch::Scalar);
            analysis
                .optimize(&OptimizerConfig::new(ParallelScheme::New))
                .expect("scalar solo optimize")
                .report
                .final_log_likelihood
        })
        .collect();

    let mut pool = SessionManager::new(workers);
    let mut handles = Vec::new();
    for (i, ds) in fleet.iter().enumerate() {
        let mut spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone())
            .label(format!("blocked-tenant-{i}"));
        if i == 3 {
            // The initial-likelihood evaluate, as above.
            spec = spec.inject_worker_fault(1, 0);
        }
        handles.push(pool.submit(spec).expect("admission"));
    }
    let outcomes: Vec<SessionOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("session outcome"))
        .collect();

    for (i, outcome) in outcomes.iter().enumerate() {
        let delta = (outcome.final_log_likelihood - solo_scalar[i]).abs();
        assert!(
            delta <= 1e-6,
            "blocked session {i} drifted {delta:.3e} from its scalar solo optimum \
             ({} vs {})",
            outcome.final_log_likelihood,
            solo_scalar[i]
        );
        let expected = usize::from(i == 3);
        assert_eq!(
            outcome.recoveries.len(),
            expected,
            "session {i} saw {} recoveries, expected {expected}",
            outcome.recoveries.len()
        );
    }
    let stats = pool.stats().expect("stats");
    assert_eq!(stats.worker_panics, 1, "exactly the injected death");
    assert_eq!(stats.active_sessions, 0, "finished sessions are retired");
}
