//! Cross-crate integration tests: the full pipeline from dataset generation
//! through the kernel, the parallel executors, the optimizers and the tree
//! search, checking that every configuration agrees on the likelihood.

use plf_loadbalance::kernel::Executor;
use plf_loadbalance::prelude::*;
use std::sync::Arc;

fn dataset(seed: u64) -> plf_loadbalance::seqgen::GeneratedDataset {
    paper_simulated(10, 400, 80, seed).generate()
}

#[test]
fn all_executors_agree_on_the_likelihood() {
    let ds = dataset(1);
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();

    let mut sequential =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone()).unwrap();
    let reference = sequential.try_log_likelihood().unwrap();

    let threaded = ThreadedExecutor::from_assignment(
        &ds.patterns,
        &schedule(&ds.patterns, &categories, 4, &Cyclic).unwrap(),
        ds.tree.node_capacity(),
        &categories,
    )
    .unwrap();
    let mut threaded_kernel = LikelihoodKernel::try_new(
        Arc::clone(&ds.patterns),
        ds.tree.clone(),
        models.clone(),
        threaded,
    )
    .unwrap();

    let tracing = TracingExecutor::from_assignment(
        &ds.patterns,
        &schedule(&ds.patterns, &categories, 16, &WeightedLpt).unwrap(),
        ds.tree.node_capacity(),
        &categories,
    )
    .unwrap();
    let mut tracing_kernel =
        LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, tracing)
            .unwrap();

    for (name, lnl) in [
        ("threaded", threaded_kernel.try_log_likelihood().unwrap()),
        ("tracing-16", tracing_kernel.try_log_likelihood().unwrap()),
    ] {
        assert!(
            (lnl - reference).abs() < 1e-8,
            "{name} executor disagrees: {lnl} vs {reference}"
        );
    }
}

#[test]
fn kernel_agrees_with_naive_reference_on_generated_data() {
    use plf_loadbalance::kernel::naive::naive_log_likelihood;
    use plf_loadbalance::kernel::BranchLengths;

    let ds = dataset(2);
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
    let mut kernel =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone()).unwrap();
    let fast = kernel.try_log_likelihood().unwrap();
    let bl = BranchLengths::from_tree(
        &ds.tree,
        ds.patterns.partition_count(),
        BranchLengthMode::Joint,
    );
    let slow = naive_log_likelihood(&ds.patterns, &ds.tree, &models, &bl);
    assert!((fast - slow).abs() < 1e-7, "kernel {fast} vs naive {slow}");
}

#[test]
fn old_and_new_schemes_reach_the_same_model_estimate() {
    let ds = dataset(3);
    let run = |scheme| {
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut kernel =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
        let report = optimize_model_parameters(&mut kernel, &OptimizerConfig::new(scheme)).unwrap();
        (report, kernel)
    };
    let (report_old, kernel_old) = run(ParallelScheme::Old);
    let (report_new, kernel_new) = run(ParallelScheme::New);

    let rel = (report_old.final_log_likelihood - report_new.final_log_likelihood).abs()
        / report_old.final_log_likelihood.abs();
    assert!(
        rel < 1e-3,
        "{} vs {}",
        report_old.final_log_likelihood,
        report_new.final_log_likelihood
    );
    assert!(report_old.sync_events > report_new.sync_events);

    for p in 0..kernel_old.partition_count() {
        let a = kernel_old.alpha(p);
        let b = kernel_new.alpha(p);
        assert!(
            (a.ln() - b.ln()).abs() < 0.1,
            "partition {p}: alpha {a} vs {b}"
        );
    }
}

#[test]
fn search_with_threads_improves_and_stays_consistent() {
    let ds = dataset(4);
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let executor = ThreadedExecutor::from_assignment(
        &ds.patterns,
        &schedule(&ds.patterns, &categories, 2, &Cyclic).unwrap(),
        ds.tree.node_capacity(),
        &categories,
    )
    .unwrap();
    // Start from a random tree so the search has something to do.
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let start = plf_loadbalance::tree::random::random_tree(&ds.patterns.taxa, &mut rng);
    let mut kernel =
        LikelihoodKernel::try_new(Arc::clone(&ds.patterns), start, models, executor).unwrap();

    let mut config = SearchConfig::new(ParallelScheme::New);
    config.max_rounds = 1;
    config.spr_radius = 3;
    config.optimize_model_between_rounds = false;
    let result = tree_search(&mut kernel, &config).unwrap();
    assert!(result.final_log_likelihood >= result.initial_log_likelihood);
    assert!(kernel.tree().validate().is_ok());
}

#[test]
fn dataset_io_round_trip_through_files() {
    use plf_loadbalance::data::io;

    let ds = dataset(5);
    let dir = std::env::temp_dir();
    let fasta_path = dir.join("plf_integration_roundtrip.fasta");
    let partition_path = dir.join("plf_integration_roundtrip.part");

    std::fs::write(&fasta_path, io::write_fasta(&ds.alignment, 80)).unwrap();
    std::fs::write(&partition_path, ds.partition_set.to_file_string()).unwrap();

    let alignment = io::read_fasta_file(&fasta_path).unwrap();
    let partitions =
        PartitionSet::parse(&std::fs::read_to_string(&partition_path).unwrap()).unwrap();
    let recompiled = PartitionedPatterns::compile(&alignment, &partitions).unwrap();
    assert_eq!(recompiled.total_patterns(), ds.patterns.total_patterns());
    assert_eq!(recompiled.partition_count(), ds.patterns.partition_count());

    std::fs::remove_file(&fasta_path).ok();
    std::fs::remove_file(&partition_path).ok();
}

/// Measures the wall-clock imbalance of the kernel's *current* ownership
/// with a standardized probe workload (`repeats` full likelihood
/// recomputations), so the static and the rescheduled run are compared on
/// the same footing. Discards whatever trace had accumulated before.
fn probe_wall_clock_imbalance(
    kernel: &mut LikelihoodKernel<ThreadedExecutor>,
    repeats: usize,
) -> f64 {
    let _ = kernel.executor_mut().take_trace();
    for _ in 0..repeats {
        kernel.invalidate_all();
        let _ = kernel.try_log_likelihood().unwrap();
    }
    let trace = kernel.executor_mut().take_trace();
    worker_imbalance(&trace.per_worker_total_in(TraceUnit::Seconds))
}

/// The PR's acceptance criterion: on a mixed DNA/protein dataset with one
/// artificially skewed worker, a single mid-run reschedule driven by real
/// wall-clock measurements lands strictly below the static cyclic baseline,
/// and the migration does not move the log likelihood.
#[test]
fn mid_run_rescheduling_beats_static_cyclic_on_a_skewed_worker() {
    let ds = mixed_dna_protein(6, 4, 2, 40, 4242).generate();
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let costs = PatternCosts::analytic(&ds.patterns, &categories);
    let cyclic = schedule(&ds.patterns, &categories, 4, &Cyclic).unwrap();

    let mut sequential =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone()).unwrap();
    let reference = sequential.try_log_likelihood().unwrap();

    // Worker 0 sleeps 100 µs per active pattern in every region — an
    // emulated throttled core whose slowdown is proportional to its
    // assigned work, dominating any build-profile compute noise.
    let skew = WorkerSkew {
        worker: 0,
        nanos_per_pattern: 100_000,
    };
    let timed_kernel = |assignment: &Assignment| {
        let executor = ThreadedExecutor::with_options(
            &ds.patterns,
            assignment,
            ds.tree.node_capacity(),
            &categories,
            ExecutorOptions {
                timed: true,
                skew: Some(skew),
            },
        )
        .unwrap();
        LikelihoodKernel::try_new(
            Arc::clone(&ds.patterns),
            ds.tree.clone(),
            models.clone(),
            executor,
        )
        .unwrap()
    };

    let mut static_kernel = timed_kernel(&cyclic);
    let cyclic_imbalance = probe_wall_clock_imbalance(&mut static_kernel, 3);
    drop(static_kernel);

    let mut kernel = timed_kernel(&cyclic);
    let mut rescheduler = Rescheduler::new(ReschedulePolicy {
        imbalance_threshold: 1.25,
        min_regions: 16,
        unit: TraceUnit::Seconds,
        max_reschedules: 1,
        mask_aware: false,
    });
    let config = OptimizerConfig::search_phase(ParallelScheme::New);
    let adaptive = optimize_model_parameters_with_policy(
        &mut kernel,
        &config,
        RunPolicy::rescheduling(&mut rescheduler, &costs),
    )
    .unwrap();
    assert_eq!(
        adaptive.events.len(),
        1,
        "a 100 µs/pattern skew on one of four workers must trigger the policy"
    );
    let event = &adaptive.events[0];
    assert_eq!((event.round, event.within_round), (1, false));
    assert!(
        event.log_likelihood_drift() <= 1e-8,
        "migration drifted the log likelihood by {}",
        event.log_likelihood_drift()
    );
    assert!(event.measured_imbalance > 1.25);

    let adaptive_imbalance = probe_wall_clock_imbalance(&mut kernel, 3);
    assert!(
        adaptive_imbalance < cyclic_imbalance,
        "measured imbalance after one mid-run reschedule ({adaptive_imbalance:.3}) must be \
         strictly below the static cyclic baseline ({cyclic_imbalance:.3})"
    );

    // The optimizer improved on the starting likelihood, and the migrated
    // executor still evaluates a finite, optimized likelihood (the exact
    // placement-invariance across the migration is the 1e-8 event check
    // above; `reference` is the unoptimized starting point).
    assert!(adaptive.report.final_log_likelihood > reference);
    kernel.invalidate_all();
    let recomputed = kernel.try_log_likelihood().unwrap();
    assert!(
        (recomputed - adaptive.report.final_log_likelihood).abs() < 1e-8,
        "full recomputation on the migrated workers must reproduce the \
         optimizer's final likelihood: {recomputed} vs {}",
        adaptive.report.final_log_likelihood
    );
}

/// The fallible-API acceptance criterion: a worker panic injected mid-run
/// through the real master/worker machinery is *recovered* by the driver via
/// `Reassignable` — the run completes instead of aborting the process, the
/// recovery is reported, and a full CLV recomputation on the rebuilt workers
/// reproduces the final log likelihood to ≤ 1e-8.
#[test]
fn driver_recovers_from_an_injected_worker_death_mid_optimize() {
    let ds = mixed_dna_protein(6, 4, 2, 40, 2026).generate();
    let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(4)
        .strategy(Cyclic)
        .timed(true)
        .rescheduler(ReschedulePolicy {
            imbalance_threshold: f64::MAX, // recovery only; no migration noise
            min_regions: 1,
            unit: TraceUnit::Seconds,
            max_reschedules: 0,
            mask_aware: false,
        })
        .build()
        .unwrap();

    // Worker 2 dies ~40 regions into the run — deep inside the first
    // optimizer round, after real work has been committed.
    analysis
        .kernel_mut()
        .executor_mut()
        .inject_worker_panic(2, 40);

    let config = OptimizerConfig::new(ParallelScheme::New);
    let outcome = analysis
        .optimize(&config)
        .expect("the driver must absorb the worker death and finish");

    assert_eq!(
        outcome.recoveries.len(),
        1,
        "exactly one recovery must be reported: {:?}",
        outcome.recoveries
    );
    assert_eq!(outcome.recoveries[0].worker, 2);
    assert!(
        outcome.report.final_log_likelihood > outcome.report.initial_log_likelihood,
        "the resumed run must still optimize: {} -> {}",
        outcome.report.initial_log_likelihood,
        outcome.report.final_log_likelihood
    );

    // The recovery (reassign + CLV invalidation) must not drift the
    // likelihood: recomputing everything from scratch on the rebuilt
    // workers reproduces the driver's final value.
    analysis.kernel_mut().invalidate_all();
    let recomputed = analysis.log_likelihood().unwrap();
    assert!(
        (recomputed - outcome.report.final_log_likelihood).abs() <= 1e-8,
        "recovery drifted the lnL: {recomputed} vs {}",
        outcome.report.final_log_likelihood
    );
}

/// A death past the budget is an error value, never a process abort — for
/// both driver loops under the one [`RunPolicy`], on real and on virtual
/// workers: budget 0 surfaces the first injected death, budget 2 absorbs it.
#[test]
fn worker_deaths_past_the_recovery_budget_fail_as_values() {
    let ds = paper_simulated(6, 80, 40, 2027).generate();
    let builder = || Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone()).threads(2);
    budget_drill(
        || {
            let mut analysis = builder().build().unwrap();
            let executor = analysis.kernel_mut().executor_mut();
            executor.inject_worker_panic(1, 5);
            analysis
        },
        |executor| executor.ledger().poisoned_by(),
    );
    budget_drill(
        || {
            let mut analysis = builder().build_traced().unwrap();
            let executor = analysis.kernel_mut().executor_mut();
            executor.inject_worker_panic(1, 5);
            analysis
        },
        |executor| executor.ledger().poisoned_by(),
    );
}

/// Runs both drivers at budgets 0 and 2 on a session `faulted` builds with a
/// death on worker 1 armed; `poisoned_by` reads the executor's poison.
fn budget_drill<E: Executor + Reassignable>(
    faulted: impl Fn() -> Analysis<E>,
    poisoned_by: impl Fn(&E) -> Option<usize>,
) {
    type Driver<'d, E> = &'d dyn Fn(
        &mut LikelihoodKernel<E>,
        RunPolicy<'_>,
    ) -> Result<Vec<WorkerRecovery>, OptimizeError>;
    let optimizer = OptimizerConfig::new(ParallelScheme::New);
    let mut search = SearchConfig::new(ParallelScheme::New);
    search.max_rounds = 1;
    search.spr_radius = 2;
    search.optimize_model_between_rounds = false;

    let optimize = |kernel: &mut LikelihoodKernel<E>, policy: RunPolicy<'_>| {
        optimize_model_parameters_with_policy(kernel, &optimizer, policy).map(|run| run.recoveries)
    };
    let run_search = |kernel: &mut LikelihoodKernel<E>, policy: RunPolicy<'_>| {
        tree_search_with_policy(kernel, &search, policy).map(|run| run.recoveries)
    };
    let drivers: [(&str, Driver<'_, E>); 2] = [("optimize", &optimize), ("search", &run_search)];
    for (name, driver) in drivers {
        for max_recoveries in [0, 2] {
            let mut analysis = faulted();
            let outcome = driver(
                analysis.kernel_mut(),
                RunPolicy {
                    max_recoveries,
                    rescheduler: None,
                },
            );
            if max_recoveries == 0 {
                assert_eq!(
                    outcome,
                    Err(OptimizeError::Kernel(KernelError::Exec(
                        ExecError::WorkerDied { worker: 1 }
                    ))),
                    "{name}"
                );
                // The session object survives: recovery is still possible
                // by hand.
                assert_eq!(poisoned_by(analysis.kernel().executor()), Some(1));
            } else {
                let recoveries = outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    recoveries,
                    [WorkerRecovery {
                        worker: 1,
                        attempt: 1
                    }],
                    "{name}"
                );
            }
        }
    }
}

/// Builder misuse surfaces as typed errors through the facade, not panics.
#[test]
fn analysis_builder_misuse_is_typed() {
    let ds = paper_simulated(6, 80, 40, 2028).generate();
    assert_eq!(
        Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(0)
            .build()
            .unwrap_err(),
        AnalysisError::Sched(SchedError::NoWorkers)
    );

    let single = paper_simulated(6, 40, 40, 2029).generate();
    let wrong_models = ModelSet::default_for(&single.patterns, BranchLengthMode::PerPartition);
    assert!(matches!(
        Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .models(wrong_models)
            .threads(2)
            .build()
            .unwrap_err(),
        AnalysisError::Kernel(KernelError::ModelCountMismatch { .. })
    ));

    let skewed = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
        .threads(2)
        .skew(WorkerSkew {
            worker: 7,
            nanos_per_pattern: 1,
        })
        .build()
        .unwrap_err();
    assert!(matches!(
        skewed,
        AnalysisError::Sched(SchedError::SkewWorkerOutOfRange { worker: 7, .. })
    ));
}

/// The scheduler's acceptance criterion on the mixed DNA/protein dataset
/// (12 DNA + 4 protein genes of 600 columns, the protein tail ≈ 21× per
/// pattern under the tabled cost model): the cost-aware LPT packing never
/// predicts a heavier worst worker than cyclic and is strictly lighter than
/// the contiguous block scheme, at 8 and at 16 workers.
#[test]
fn weighted_lpt_beats_block_and_matches_cyclic_on_the_mixed_dataset() {
    let ds = mixed_dna_protein(12, 12, 4, 600, 2009).generate();
    let categories = vec![4; ds.patterns.partition_count()];
    let costs = PatternCosts::analytic(&ds.patterns, &categories);
    for workers in [8usize, 16] {
        let lpt = WeightedLpt.assign(&costs, workers).unwrap().max_cost();
        let cyclic = Cyclic.assign(&costs, workers).unwrap().max_cost();
        let block = Block.assign(&costs, workers).unwrap().max_cost();
        assert!(
            lpt <= cyclic + 1e-9,
            "{workers} workers: weighted-lpt max predicted cost {lpt} exceeds cyclic {cyclic}"
        );
        assert!(
            lpt < block,
            "{workers} workers: weighted-lpt max predicted cost {lpt} does not beat block {block}"
        );
    }
}

/// The mask-aware acceptance criterion, on 16 virtual workers with
/// deterministic FLOP measurements: within-round rescheduling driven by the
/// convergence-mask shape fires on the staggered-convergence dataset and
/// preserves the log likelihood to ≤ 1e-8 across every migration — both at
/// the migration boundary (event check) and against a full recomputation on
/// the migrated workers — and the placement it ends on balances the masked
/// regions better than static cyclic and than a between-round-only
/// rescheduler, placement against placement: the masked-region imbalance of
/// the same full optimization re-run from scratch under each run's final
/// assignment, free of each run's pre-trigger history.
#[test]
fn mask_aware_rescheduling_preserves_the_likelihood() {
    let ds = staggered_convergence(2026).generate();
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let costs = PatternCosts::analytic(&ds.patterns, &categories);
    let cyclic = schedule(&ds.patterns, &categories, 16, &Cyclic).unwrap();
    let config = OptimizerConfig::new(ParallelScheme::New);
    let kernel_on = |assignment: &Assignment| {
        let executor = TracingExecutor::from_assignment(
            &ds.patterns,
            assignment,
            ds.tree.node_capacity(),
            &categories,
        )
        .unwrap();
        LikelihoodKernel::try_new(
            Arc::clone(&ds.patterns),
            ds.tree.clone(),
            models.clone(),
            executor,
        )
        .unwrap()
    };
    // A full optimization from scratch under `assignment`: its final lnL and
    // the FLOP imbalance over its masked regions (1.0 is perfect).
    let placement = |assignment: &Assignment| {
        let mut kernel = kernel_on(assignment);
        let report = optimize_model_parameters(&mut kernel, &config).unwrap();
        let trace = kernel.executor_mut().take_trace();
        (
            report.final_log_likelihood,
            1.0 / trace.masked_overall_balance_in(TraceUnit::Flops),
        )
    };
    // The same run from the cyclic placement under a rescheduler — identical
    // thresholds, within-round consultation on or off: the kernel on its
    // final placement and what the run returned.
    let rescheduled = |mask_aware| {
        let mut kernel = kernel_on(&cyclic);
        let mut rescheduler = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 1.25,
            min_regions: 12,
            unit: TraceUnit::Flops,
            max_reschedules: 4,
            mask_aware,
        });
        let run = optimize_model_parameters_with_policy(
            &mut kernel,
            &config,
            RunPolicy::rescheduling(&mut rescheduler, &costs),
        )
        .unwrap();
        (kernel, run)
    };

    let (mut kernel, adaptive) = rescheduled(true);
    let sequence: Vec<(usize, bool)> = adaptive
        .events
        .iter()
        .map(|e| (e.round, e.within_round))
        .collect();
    // A masked region is now a Newton probe (or a prepare that carries its
    // partial traversal, costed as the sum of its phases); the masked
    // `Newview` records that used to sit between them — large and evenly
    // spread — no longer dilute the live-imbalance window, so the policy
    // already fires in round 1.
    assert_eq!(
        sequence,
        [(1, true), (2, true), (4, true)],
        "the staggered dataset must trigger its three within-round migrations"
    );
    for event in &adaptive.events {
        assert!(
            event.log_likelihood_drift() <= 1e-8,
            "migration drifted the log likelihood by {}",
            event.log_likelihood_drift()
        );
        // The migrated placement keeps the partition-contiguity invariant.
        let ranges: Vec<std::ops::Range<usize>> = (0..ds.patterns.partition_count())
            .map(|p| ds.patterns.global_range(p))
            .collect();
        assert!(kernel
            .executor_mut()
            .assignment()
            .partition_contiguity(&ranges));
    }
    // Full recomputation on the final (migrated) workers reproduces the
    // optimizer's final likelihood.
    kernel.invalidate_all();
    let recomputed = kernel.try_log_likelihood().unwrap();
    assert!(
        (recomputed - adaptive.report.final_log_likelihood).abs() <= 1e-8,
        "recomputation drifted: {recomputed} vs {}",
        adaptive.report.final_log_likelihood
    );
    let mask_aware_placement = kernel.executor_mut().assignment().clone();

    // Between rounds only, the rescheduler sees total cost — which the
    // dataset balances by construction.
    let (mut kernel, between) = rescheduled(false);
    for event in &between.events {
        assert!(!event.within_round);
        assert!(event.log_likelihood_drift() <= 1e-8);
    }
    let between_placement = kernel.executor_mut().assignment().clone();

    // The static run's final placement is the cyclic one it started on, so
    // its own trace is its placement measurement.
    let (static_lnl, static_masked) = placement(&cyclic);
    let (_, between_masked) = placement(&between_placement);
    let (_, aware_masked) = placement(&mask_aware_placement);
    assert!(
        aware_masked < static_masked && aware_masked < between_masked,
        "masked-region imbalance: mask-aware {aware_masked:.3} must be below static cyclic \
         {static_masked:.3} and between-round-only {between_masked:.3}"
    );
    for (label, lnl) in [
        ("between-round", between.report.final_log_likelihood),
        ("mask-aware", adaptive.report.final_log_likelihood),
    ] {
        assert!(
            ((lnl - static_lnl) / static_lnl).abs() <= 1e-6,
            "{label} final lnL {lnl} deviates from static cyclic {static_lnl}"
        );
    }
}

/// The traced facade session reproduces the figure pipeline: a search run
/// under a rescheduling policy on virtual workers keeps the likelihood
/// placement-invariant across migrations.
#[test]
fn facade_search_with_rescheduling_preserves_the_likelihood() {
    let ds = mixed_dna_protein(6, 3, 2, 64, 2030).generate();
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
        .build_traced()
        .unwrap();
    let mut config = SearchConfig::new(ParallelScheme::New);
    config.max_rounds = 2;
    config.spr_radius = 2;
    config.optimize_model_between_rounds = false;
    let outcome = analysis.run_search(&config).unwrap();
    assert!(
        !outcome.events.is_empty(),
        "the low threshold must trigger a mid-search migration"
    );
    for event in &outcome.events {
        assert!(
            event.log_likelihood_drift() < 1e-8,
            "migration drifted the likelihood by {}",
            event.log_likelihood_drift()
        );
    }
    assert_eq!(analysis.assignment().strategy(), "speed-lpt");
}

/// Every placement packs by one cost, whichever inner loop the kernel then
/// runs: `build` and `build_traced` hold `plan`'s models and assignment, the
/// assignment is `schedule`'s, and all of them are the tabled `newview` flops
/// (protein/DNA 21) — the weights written out here, not read from the cost
/// function under test.
#[test]
fn facade_assignment_follows_the_kernel_dispatch() {
    let ds = mixed_dna_protein(6, 3, 2, 64, 2031).generate();
    let tabled = PatternCosts::per_partition(&ds.patterns, |_, part| {
        let states = part.states() as f64;
        4.0 * states * (2.0 * states + 2.0)
    })
    .unwrap();
    for threads in [2, 3, 7] {
        let builder = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone());
        let analysis = builder.threads(threads).build_traced().unwrap();
        let builder = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone());
        let threaded = builder.threads(threads).build().unwrap();
        let planned: Plan =
            plan::<AnalysisError>(&ds.patterns, None, &WeightedLpt, threads).unwrap();
        for (models, assignment) in [
            (analysis.kernel().models(), analysis.assignment()),
            (threaded.kernel().models(), threaded.assignment()),
        ] {
            assert_eq!(*models, planned.models, "T = {threads}");
            assert_eq!(*assignment, planned.assignment, "T = {threads}");
        }
        let models = analysis.kernel().models().models();
        let categories: Vec<usize> = models.iter().map(|m| m.categories()).collect();
        assert!(categories.iter().all(|&c| c == 4), "{categories:?}");
        let scheduled = schedule(&ds.patterns, &categories, threads, &WeightedLpt).unwrap();
        assert_eq!(*analysis.assignment(), scheduled, "T = {threads}");
        let packed = WeightedLpt.assign(&tabled, threads).unwrap();
        assert_eq!(*analysis.assignment(), packed, "T = {threads}");
    }
}

/// Placement and trace speak one unit: one cold full `newview` over the
/// `n − 2` inner nodes records, per virtual worker, exactly `n − 2` times the
/// cost the schedule predicted for that worker.
#[test]
fn a_full_traversal_traces_the_predicted_cost_of_every_worker() {
    let ds = mixed_dna_protein(6, 3, 2, 64, 2031).generate();
    let builder = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone());
    let mut analysis = builder.threads(3).build_traced().unwrap();
    let kernel = analysis.kernel_mut();
    let (root, mask) = (kernel.default_root_branch(), kernel.full_mask());
    kernel.try_update_clvs(root, &mask).unwrap();
    let steps = (ds.tree.n_taxa() - 2) as f64;
    let record = analysis.trace().regions.last().expect("one newview region");
    let predicted = analysis.assignment().predicted_cost();
    assert_eq!(record.flops_per_worker.len(), predicted.len());
    for (w, (&traced, &cost)) in record.flops_per_worker.iter().zip(predicted).enumerate() {
        let expected = steps * cost;
        assert!(
            (traced - expected).abs() <= 1e-12 * expected,
            "worker {w}: traced {traced}, predicted {expected}"
        );
    }
}
