//! Property-based integration tests over randomly generated datasets and
//! trees: invariants of the likelihood kernel that must hold regardless of
//! the input.

use plf_loadbalance::kernel::ops::{build_sumtable, derivatives_from_sumtable, EdgeDerivatives};
use plf_loadbalance::kernel::{
    EdgeTables, ExecContext, KernelOp, NewviewTables, OpOutput, PartitionSlice, SliceBuffers,
    StepTables, TableSlot, TraversalDescriptor,
};
use plf_loadbalance::prelude::*;
use plf_loadbalance::tree::topology::{MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{
    differential_cases, inject_ambiguity, remap_alignment, RESCALING_LENGTHS, RESCALING_TAXA,
};

fn build_kernel(
    taxa: usize,
    columns: usize,
    partition_len: usize,
    seed: u64,
    mode: BranchLengthMode,
) -> (SequentialKernel, plf_loadbalance::seqgen::GeneratedDataset) {
    let ds = paper_simulated(taxa, columns, partition_len, seed).generate();
    let models = ModelSet::default_for(&ds.patterns, mode);
    let k = SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
    (k, ds)
}

/// Straight-line transcription of `ops::build_sumtable` as it stood before
/// it became a kernel — `W` walked by column, every tip expanded to its 0/1
/// vector per category and multiplied through in full: the reference the
/// kernel must reproduce bit for bit. Returns the table and its scale
/// counters.
fn reference_sumtable(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
    model: &PartitionModel,
    left: usize,
    right: usize,
) -> (Vec<f64>, Vec<i32>) {
    let states = slice.states();
    let categories = model.categories();
    let patterns = slice.pattern_count();
    let w = &model.substitution().eigen().w;
    let internal = |node: usize| {
        (node >= slice.n_taxa).then(|| (buffers.clv(node).unwrap(), buffers.scale(node).unwrap()))
    };
    let (left_data, right_data) = (internal(left), internal(right));
    let mut table = vec![0.0; patterns * categories * states];
    let mut table_scale = vec![0; patterns];
    let mut l_vec = vec![0.0; states];
    let mut r_vec = vec![0.0; states];
    for p in 0..patterns {
        for c in 0..categories {
            let base = (p * categories + c) * states;
            for s in 0..states {
                let entry = |data: &Option<(&Vec<f64>, &Vec<i32>)>, tip: usize| match data {
                    None if slice.tip_state(p, tip) & (1 << s) != 0 => 1.0,
                    None => 0.0,
                    Some((clv, _)) => clv[base + s],
                };
                l_vec[s] = entry(&left_data, left);
                r_vec[s] = entry(&right_data, right);
            }
            for k in 0..states {
                let mut a = 0.0;
                let mut b = 0.0;
                for s in 0..states {
                    let wsk = w[(s, k)];
                    a += wsk * l_vec[s];
                    b += wsk * r_vec[s];
                }
                table[base + k] = a * b;
            }
        }
        let mut events = 0;
        if let Some((_, scale)) = &left_data {
            events += scale[p];
        }
        if let Some((_, scale)) = &right_data {
            events += scale[p];
        }
        table_scale[p] = events;
    }
    (table, table_scale)
}

/// The same for `ops::derivatives_from_sumtable`: one pattern at a time, the
/// three sums over `(category, eigen-mode)` ascending.
fn reference_derivatives(
    slice: &PartitionSlice,
    table: &[f64],
    table_scale: &[i32],
    model: &PartitionModel,
    t: f64,
) -> EdgeDerivatives {
    const SITE_LIKELIHOOD_FLOOR: f64 = 1.0e-300;
    let states = slice.states();
    let categories = model.categories();
    let eigenvalues = &model.substitution().eigen().values;
    let rates = model.gamma_rates();
    let inv_categories = 1.0 / categories as f64;
    let mut exps = vec![0.0; categories * states];
    let mut lam1 = vec![0.0; categories * states];
    for c in 0..categories {
        for k in 0..states {
            let lr = eigenvalues[k] * rates[c];
            exps[c * states + k] = (lr * t).exp();
            lam1[c * states + k] = lr;
        }
    }
    let mut out = EdgeDerivatives::default();
    for (p, &scale_events) in table_scale.iter().enumerate() {
        let mut f = 0.0;
        let mut f1 = 0.0;
        let mut f2 = 0.0;
        for c in 0..categories {
            let base = (p * categories + c) * states;
            let ebase = c * states;
            for k in 0..states {
                let x = table[base + k] * exps[ebase + k];
                let lr = lam1[ebase + k];
                f += x;
                f1 += lr * x;
                f2 += lr * lr * x;
            }
        }
        f *= inv_categories;
        f1 *= inv_categories;
        f2 *= inv_categories;
        let w = slice.weights[p];
        let site = f.max(SITE_LIKELIHOOD_FLOOR);
        let (ratio1, ratio2) = if f > SITE_LIKELIHOOD_FLOOR {
            (f1 / site, f2 / site)
        } else {
            (0.0, 0.0)
        };
        out.log_likelihood +=
            w * (site.ln() - scale_events as f64 * plf_loadbalance::kernel::LOG_SCALE_FACTOR);
        out.first += w * ratio1;
        out.second += w * (ratio2 - ratio1 * ratio1);
    }
    out
}

/// Builds the sum table of `(left, right)` on `buffers` and holds it — every
/// entry, every scale counter, and all three derivative fields at the four
/// probe lengths — to the reference, by `to_bits`.
fn assert_newton_kernels_match_the_reference(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    model: &PartitionModel,
    (left, right): (usize, usize),
    what: &str,
) {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let (table, table_scale) = reference_sumtable(slice, buffers, model, left, right);
    build_sumtable(slice, buffers, model, left, right).unwrap();
    assert_eq!(bits(buffers.sumtable()), bits(&table), "sum table, {what}");
    assert_eq!(buffers.sumtable_scale(), &table_scale[..], "scale, {what}");
    for t in [MIN_BRANCH_LENGTH, 1e-4, 0.3, MAX_BRANCH_LENGTH] {
        let got = derivatives_from_sumtable(slice, buffers, model, t).unwrap();
        let want = reference_derivatives(slice, &table, &table_scale, model, t);
        assert_eq!(
            bits(&[got.log_likelihood, got.first, got.second]),
            bits(&[want.log_likelihood, want.first, want.second]),
            "derivatives at t={t}, {what}: {got:?} vs {want:?}"
        );
    }
}

/// The first `keep` local patterns of a slice and of its buffers (both are
/// pattern-major, so a prefix of each vector): the Newton kernels on a slice
/// of exactly that many patterns.
fn first_patterns(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
    nodes: [usize; 2],
    keep: usize,
) -> (PartitionSlice, SliceBuffers) {
    let mut small_slice = slice.clone();
    small_slice.tip_states.truncate(keep * slice.n_taxa);
    small_slice.weights.truncate(keep);
    small_slice.global_indices.truncate(keep);
    let mut small = SliceBuffers::new(
        keep,
        buffers.states(),
        buffers.categories(),
        buffers.node_capacity(),
    );
    for node in nodes.into_iter().filter(|&node| node >= slice.n_taxa) {
        let len = small.clv_len();
        small
            .clv_mut(node)
            .copy_from_slice(&buffers.clv(node).unwrap()[..len]);
        small
            .scale_mut(node)
            .copy_from_slice(&buffers.scale(node).unwrap()[..keep]);
    }
    (small_slice, small)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The likelihood must not depend on where the virtual root is placed.
    #[test]
    fn likelihood_is_root_invariant(seed in 0u64..500, taxa in 4usize..9) {
        let (mut kernel, _) = build_kernel(taxa, 120, 40, seed, BranchLengthMode::PerPartition);
        let branches: Vec<_> = kernel.tree().branches().collect();
        let reference = kernel.try_log_likelihood_at(branches[0]).unwrap();
        for &b in branches.iter().skip(1).step_by(2) {
            let lnl = kernel.try_log_likelihood_at(b).unwrap();
            prop_assert!((lnl - reference).abs() < 1e-7, "branch {}: {} vs {}", b, lnl, reference);
        }
    }

    /// Applying and undoing a random SPR move restores the likelihood exactly.
    #[test]
    fn spr_apply_undo_is_lossless(seed in 0u64..500) {
        let (mut kernel, _) = build_kernel(8, 160, 40, seed, BranchLengthMode::PerPartition);
        let before = kernel.try_log_likelihood().unwrap();
        let tree = kernel.tree().clone();
        let node = tree.internal_nodes().next().unwrap();
        let (subtree, _) = tree.neighbors(node)[0];
        let moves = plf_loadbalance::tree::spr::candidate_moves(&tree, node, subtree, 4);
        if let Some(&mv) = moves.first() {
            let app = kernel.apply_spr(mv).unwrap();
            let _ = kernel.try_log_likelihood().unwrap();
            kernel.undo_spr(&app);
            let after = kernel.try_log_likelihood().unwrap();
            prop_assert!((after - before).abs() < 1e-6, "{} vs {}", before, after);
        }
    }

    /// Branch-length optimization never decreases the log likelihood, under
    /// either scheme and either branch-length mode.
    #[test]
    fn optimization_is_monotone(seed in 0u64..200, new_scheme in proptest::bool::ANY, per_partition in proptest::bool::ANY) {
        let mode = if per_partition { BranchLengthMode::PerPartition } else { BranchLengthMode::Joint };
        let scheme = if new_scheme { ParallelScheme::New } else { ParallelScheme::Old };
        let (mut kernel, _) = build_kernel(6, 120, 60, seed, mode);
        let before = kernel.try_log_likelihood().unwrap();
        let (after, _) = optimize_all_branches(&mut kernel, None, &OptimizerConfig::new(scheme)).unwrap();
        prop_assert!(after >= before - 1e-6, "lnL decreased: {} -> {}", before, after);
    }

    /// The cyclic distribution never differs by more than one pattern between
    /// workers, for any worker count.
    #[test]
    fn cyclic_distribution_is_always_balanced(seed in 0u64..200, workers in 2usize..24) {
        let ds = paper_simulated(6, 180, 60, seed).generate();
        let categories = vec![4; ds.patterns.partition_count()];
        let counts: Vec<usize> = (0..workers)
            .map(|w| {
                plf_loadbalance::kernel::WorkerSlices::cyclic(
                    &ds.patterns, w, workers, ds.tree.node_capacity(), &categories,
                ).total_patterns()
            })
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max - min <= ds.patterns.partition_count(), "unbalanced: {:?}", counts);
        prop_assert_eq!(counts.iter().sum::<usize>(), ds.patterns.total_patterns());
    }

    /// Newick serialization round-trips the topology of random trees.
    #[test]
    fn newick_round_trip(seed in 0u64..500, taxa in 4usize..40) {
        use rand::SeedableRng;
        let names: Vec<String> = (0..taxa).map(|i| format!("t{i}")).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let tree = plf_loadbalance::tree::random::random_tree(&names, &mut rng);
        let text = newick::to_newick(&tree);
        let back = newick::parse_newick(&text).unwrap();
        prop_assert_eq!(back.bipartitions(), tree.bipartitions());
    }

    /// Discrete Γ rates always average to one and increase with the category.
    #[test]
    fn gamma_rates_are_well_formed(alpha in 0.05f64..50.0, categories in 2usize..9) {
        let rates = plf_loadbalance::math::gamma_rates::discrete_gamma_rates(alpha, categories);
        let mean: f64 = rates.iter().sum::<f64>() / categories as f64;
        prop_assert!((mean - 1.0).abs() < 1e-8);
        for w in rates.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// The mask-aware repack likewise keeps every partition's per-worker
    /// share contiguous and never worsens the predicted balance beyond the
    /// levelling tolerance, for any live subset of partitions.
    #[test]
    fn mask_aware_repack_is_partition_contiguous(
        seed in 0u64..200,
        live_mask in 1usize..255,
        workers in 2usize..13,
    ) {
        use plf_loadbalance::kernel::{TraceUnit, WorkTrace};
        use plf_loadbalance::kernel::cost::{OpKind, RegionRecord};

        let ds = mixed_dna_protein(6, 5, 3, 12, seed).generate();
        let categories = vec![4; ds.patterns.partition_count()];
        let costs = PatternCosts::analytic(&ds.patterns, &categories);
        let ranges: Vec<std::ops::Range<usize>> = (0..ds.patterns.partition_count())
            .map(|p| ds.patterns.global_range(p))
            .collect();
        let current = Cyclic.assign(&costs, workers).unwrap();
        // A synthetic masked trace: all live work lands on worker 0, and
        // the recorded masks carry the sampled live subset.
        let active: Vec<bool> = (0..8).map(|p| live_mask & (1 << p) != 0).collect();
        let mut trace = WorkTrace::new(workers);
        for _ in 0..4 {
            let mut r = RegionRecord::new(OpKind::Derivatives, workers);
            r.flops_per_worker[0] = 100.0;
            r.active_partitions = active.clone();
            trace.regions.push(r);
        }
        let mut rescheduler = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 1.01,
            min_regions: 4,
            unit: TraceUnit::Flops,
            max_reschedules: 1,
            mask_aware: true,
        });
        if let Some(decision) = rescheduler
            .consider(&current, &trace, &costs, &ranges)
            .unwrap()
        {
            prop_assert!(decision.assignment.partition_contiguity(&ranges));
            prop_assert_eq!(decision.assignment.pattern_count(), costs.pattern_count());
            // The full-mask balance of the repack stays healthy.
            prop_assert!(
                decision.assignment.imbalance() <= current.imbalance() + 0.25,
                "repack imbalance {} vs cyclic {}",
                decision.assignment.imbalance(),
                current.imbalance()
            );
        }
    }

    /// Both kernel dispatches match the naive oracle (`kernel::naive`, which
    /// shares no code with them) on random mixed DNA/protein datasets with
    /// random branch lengths: per-partition log likelihoods through the
    /// evaluate path, and through the sum-table path at a random probe length
    /// on a random internal branch, agree to ≤ 1e-7·(1+|lnL|).
    #[test]
    fn shared_tables_match_reference_on_random_mixed_datasets(
        seed in 0u64..300,
        dna_partitions in 1usize..5,
        protein_partitions in 1usize..3,
        partition_len in 8usize..24,
    ) {
        use plf_loadbalance::kernel::{naive::naive_log_likelihoods, BranchLengths};
        use rand::{Rng, SeedableRng};

        let ds = mixed_dna_protein(6, dna_partitions, protein_partitions, partition_len, seed)
            .generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7ab1ed);
        let lengths: Vec<f64> = ds.tree.branches().map(|_| rng.gen_range(1e-6..2.5f64)).collect();
        let internal = ds.tree.internal_branches();
        let probe_branch = internal[rng.gen_range(0..internal.len())];
        let probe = rng.gen_range(1e-5..2.0f64);

        // The oracle, at the random lengths and with the probe branch moved
        // to the probe length.
        let mut bl = BranchLengths::from_tree(&ds.tree, models.len(), models.branch_mode());
        for (b, &t) in ds.tree.branches().zip(&lengths) {
            bl.set_all(b, t);
        }
        let oracle = naive_log_likelihoods(&ds.patterns, &ds.tree, &models, &bl);
        bl.set_all(probe_branch, probe);
        let oracle_at_probe = naive_log_likelihoods(&ds.patterns, &ds.tree, &models, &bl);

        for dispatch in [KernelDispatch::Scalar, KernelDispatch::Blocked] {
            let mut kernel =
                SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                    .unwrap();
            kernel.set_dispatch(dispatch);
            for (b, &t) in ds.tree.branches().zip(&lengths) {
                kernel.set_branch_length(BranchScope::All, b, t);
            }
            let mask = kernel.full_mask();
            let root = kernel.default_root_branch();
            let lnls = kernel.try_log_likelihood_partitions(root, &mask).unwrap();
            for (pi, (x, y)) in lnls.iter().zip(&oracle).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-7 * (1.0 + y.abs()),
                    "{:?} partition {}: {} vs naive {}", dispatch, pi, x, y
                );
            }

            kernel.try_prepare_branch(probe_branch, &mask).unwrap();
            let probes: Vec<Option<f64>> = vec![Some(probe); kernel.partition_count()];
            let ders = kernel.try_branch_derivatives(&probes).unwrap();
            for (pi, (d, y)) in ders.iter().zip(&oracle_at_probe).enumerate() {
                let x = d.unwrap().log_likelihood;
                prop_assert!(
                    (x - y).abs() <= 1e-7 * (1.0 + y.abs()),
                    "{:?} partition {} sum-table lnL: {} vs naive {}", dispatch, pi, x, y
                );
            }
        }
    }

    /// oldPAR and newPAR are groupings of the *same* per-partition optimizer
    /// streams: on random mixed DNA/protein datasets one branch-length pass
    /// and one α pass reach bit-identical per-partition optima with equal
    /// probe totals, and the region counts are exactly `Σ_p n_p` (old) vs
    /// `max_p n_p` (new), `n_p` counted from the probe telemetry. A joint
    /// estimate is one stream, so there the schemes issue the same regions.
    ///
    /// Those are *all* the regions there are: a stream's traversal, sum table
    /// and first probe share one command, so the branch pass synchronizes
    /// `derivative_regions + 1` times (the `+ 1` is the likelihood
    /// `optimize_all_branches` returns) and the α pass exactly
    /// `evaluation_rounds` times, under either scheme.
    #[test]
    fn schemes_regroup_the_same_optimizer_streams(
        seed in 0u64..300,
        dna_partitions in 1usize..5,
        protein_partitions in 1usize..3,
        partition_len in 8usize..24,
    ) {
        use plf_loadbalance::optimize::optimize_alphas;
        use std::collections::BTreeMap;

        let ds = mixed_dna_protein(6, dna_partitions, protein_partitions, partition_len, seed)
            .generate();
        let partitions = ds.patterns.partition_count();
        let run = |scheme: ParallelScheme, mode: BranchLengthMode| {
            let models = ModelSet::default_for(&ds.patterns, mode);
            let mut k =
                SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
            let telemetry = Telemetry::new(TelemetryConfig::default());
            k.set_telemetry(&telemetry);
            let mut config = OptimizerConfig::new(scheme);
            config.branch_passes = 1;
            let (_, branch_stats) = optimize_all_branches(&mut k, None, &config).unwrap();
            let branch_regions = k.sync_events();
            let model_stats = optimize_alphas(&mut k, &config).unwrap();
            let model_regions = k.sync_events() - branch_regions;
            assert_eq!(branch_regions, branch_stats.derivative_regions + 1, "{scheme}/{mode:?}");
            assert_eq!(model_regions, model_stats.evaluation_rounds, "{scheme}/{mode:?}");
            // n_p per (branch, partition) Newton stream and per-partition
            // Brent stream, as the probes recorded them.
            let mut newton: BTreeMap<usize, BTreeMap<Option<usize>, u64>> = BTreeMap::new();
            let mut brent = vec![0u64; partitions];
            for event in telemetry.snapshot().events {
                match event {
                    TelemetryEvent::NewtonProbe { branch, partition, .. } => {
                        *newton.entry(branch).or_default().entry(partition).or_default() += 1;
                    }
                    TelemetryEvent::BrentProbe { partition, .. } => brent[partition] += 1,
                    _ => {}
                }
            }
            let lengths: Vec<u64> = k
                .tree()
                .branches()
                .flat_map(|b| (0..partitions).map(move |p| (p, b)))
                .map(|(p, b)| k.branch_length(p, b).to_bits())
                .collect();
            let alphas: Vec<u64> = (0..partitions).map(|p| k.alpha(p).to_bits()).collect();
            (branch_stats, model_stats, newton, brent, lengths, alphas)
        };

        let (old_b, old_m, old_newton, old_brent, old_lengths, old_alphas) =
            run(ParallelScheme::Old, BranchLengthMode::PerPartition);
        let (new_b, new_m, new_newton, new_brent, new_lengths, new_alphas) =
            run(ParallelScheme::New, BranchLengthMode::PerPartition);
        prop_assert_eq!(&old_lengths, &new_lengths);
        prop_assert_eq!(&old_alphas, &new_alphas);
        prop_assert_eq!(&old_newton, &new_newton);
        prop_assert_eq!(&old_brent, &new_brent);
        prop_assert_eq!(old_b.newton_iterations, new_b.newton_iterations);
        prop_assert_eq!(old_m.brent_evaluations, new_m.brent_evaluations);
        let per_branch = |f: fn(&BTreeMap<Option<usize>, u64>) -> u64| -> u64 {
            old_newton.values().map(f).sum()
        };
        prop_assert_eq!(old_b.derivative_regions, per_branch(|n| n.values().sum()));
        prop_assert_eq!(new_b.derivative_regions, per_branch(|n| n.values().copied().max().unwrap_or(0)));
        prop_assert_eq!(old_m.evaluation_rounds, old_brent.iter().sum::<u64>());
        prop_assert_eq!(new_m.evaluation_rounds, old_brent.iter().copied().max().unwrap_or(0));

        let (old_joint, _, _, _, old_joint_lengths, _) =
            run(ParallelScheme::Old, BranchLengthMode::Joint);
        let (new_joint, _, _, _, new_joint_lengths, _) =
            run(ParallelScheme::New, BranchLengthMode::Joint);
        prop_assert_eq!(old_joint.derivative_regions, new_joint.derivative_regions);
        prop_assert_eq!(&old_joint_lengths, &new_joint_lengths);
    }

    /// Shared tables survive mid-run rescheduling: migrating ownership to a
    /// different strategy (fresh workers, empty buffers, cleared table
    /// cache) drifts the log likelihood by ≤ 1e-8, and a derivative probe
    /// against the pre-migration sum table fails as a typed error instead of
    /// silently reading stale data.
    #[test]
    fn shared_tables_survive_mid_run_rescheduling(
        seed in 0u64..200,
        workers in 2usize..9,
    ) {
        let ds = mixed_dna_protein(6, 3, 2, 16, seed).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let cyclic = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
        let exec = TracingExecutor::from_assignment(
            &ds.patterns,
            &cyclic,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut k = LikelihoodKernel::try_new(
            Arc::clone(&ds.patterns),
            ds.tree.clone(),
            models,
            exec,
        )
        .unwrap();
        let before = k.try_log_likelihood().unwrap();

        // Build a sum table, then migrate ownership mid-"round".
        let branch = k.tree().internal_branches()[0];
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        let lpt = schedule(&ds.patterns, &cats, workers, &WeightedLpt).unwrap();
        let patterns = Arc::clone(k.patterns());
        let node_capacity = k.tree().node_capacity();
        k.executor_mut()
            .reassign(&patterns, &lpt, node_capacity, &cats)
            .unwrap();
        k.invalidate_all();

        // The migrated workers own empty sum tables: probing them without
        // re-preparing is the release-mode soundness hole, now typed.
        let lengths: Vec<Option<f64>> = vec![Some(0.1); k.partition_count()];
        match k.try_branch_derivatives(&lengths) {
            Err(KernelError::Op(OpError::SumtableStale { .. })) => {}
            other => prop_assert!(false, "expected SumtableStale, got {:?}", other),
        }

        // Re-preparing recovers, and the likelihood is placement-invariant.
        k.try_prepare_branch(branch, &mask).unwrap();
        prop_assert!(k.try_branch_derivatives(&lengths).is_ok());
        let after = k.try_log_likelihood().unwrap();
        prop_assert!(
            (after - before).abs() <= 1e-8,
            "migration drift: {} vs {}", before, after
        );
    }

    /// The table-construction kernel re-nests loops and sums whole columns,
    /// but re-associates nothing: every `f64` of a [`BranchTables`] equals,
    /// bit for bit, the straight-line reference kept here — the oracle's
    /// allocating `Eigensystem::transition_matrix` for the matrices, a
    /// per-entry ascending-bit loop for the tip rows — over random GTR and
    /// protein models, the whole α range, 1–8 categories, lengths from zero
    /// to saturation, and protein dictionaries with observed multi-state
    /// masks. Widths other than 4 and 20 take the generic path of
    /// `transition_matrix_into` to the same bits.
    #[test]
    fn table_build_kernel_is_bit_identical_to_the_reference(
        seed in 0u64..100_000,
        protein in proptest::bool::ANY,
        categories in 1usize..9,
    ) {
        use plf_loadbalance::math::gamma_rates::{MAX_ALPHA, MIN_ALPHA};
        use plf_loadbalance::models::qmatrix::{build_rate_matrix, decompose};
        use rand::{Rng, SeedableRng};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let log_uniform = |rng: &mut rand_chacha::ChaCha8Rng, lo: f64, hi: f64| {
            (rng.gen_range(lo.ln()..hi.ln())).exp()
        };
        let frequencies = |rng: &mut rand_chacha::ChaCha8Rng, n: usize| {
            let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0f64)).collect();
            let sum: f64 = raw.iter().sum();
            raw.iter().map(|f| f / sum).collect::<Vec<f64>>()
        };

        let (substitution, tips) = if protein {
            let base = SubstitutionModel::default_for(DataType::Protein);
            let bumped = base.with_exchangeability(rng.gen_range(0..190usize), log_uniform(&mut rng, 0.05, 20.0));
            let observed = (0..rng.gen_range(0..6usize))
                .map(|_| rng.gen_range(1u32..1 << 20))
                .chain([DataType::Protein.gap_state()])
                .collect();
            (bumped, observed)
        } else {
            let rates = std::array::from_fn(|_| log_uniform(&mut rng, 0.05, 20.0));
            let f = frequencies(&mut rng, 4);
            (SubstitutionModel::gtr(rates, [f[0], f[1], f[2], f[3]]), Vec::new())
        };
        let alpha = log_uniform(&mut rng, MIN_ALPHA, MAX_ALPHA).clamp(MIN_ALPHA, MAX_ALPHA);
        let model = PartitionModel::new(substitution, alpha, categories);
        let dict = Arc::new(MaskDictionary::for_partition(model.data_type(), &tips));
        let states = model.states();
        let eigen = model.substitution().eigen();

        // Zero and the denormal-scale length are where P ≈ I and round-off
        // leaves off-diagonal entries inside the (−1e-12, 0) clamp window
        // (some of a protein matrix's 380, not always one of DNA's 12).
        let mut lengths = vec![0.0, 1e-300, 50.0];
        lengths.extend((0..5).map(|_| log_uniform(&mut rng, 1e-8, 50.0)));
        let mut clamped = 0usize;
        for &t in &lengths {
            let tables = BranchTables::build(&model, &dict, t).unwrap();
            for (c, &rate) in model.gamma_rates().iter().enumerate() {
                let tr = t * rate;
                let reference = eigen.transition_matrix(tr);
                let pmat = tables.pmat(c);
                for i in 0..states {
                    for j in 0..states {
                        let raw: f64 = (0..states).fold(0.0, |acc, k| {
                            acc + eigen.u[(i, k)] * (eigen.values[k] * tr).exp() * eigen.u_inv[(k, j)]
                        });
                        clamped += usize::from(raw < 0.0 && raw > -1e-12);
                        prop_assert_eq!(
                            pmat[i * states + j].to_bits(), reference[(i, j)].to_bits(),
                            "t={} c={} P[{}][{}]", t, c, i, j
                        );
                        if let Some(mirror) = tables.pmat_t(c) {
                            prop_assert_eq!(mirror[j * states + i].to_bits(), reference[(i, j)].to_bits());
                        }
                    }
                }
                prop_assert_eq!(tables.pmat_t(c).is_some(), protein);
                for m in 0..dict.len() {
                    for (s, x) in tables.tip_row(c, m).iter().enumerate() {
                        let mut sum = 0.0;
                        let mut bits = dict.mask_at(m);
                        while bits != 0 {
                            sum += reference[(s, bits.trailing_zeros() as usize)];
                            bits &= bits - 1;
                        }
                        prop_assert_eq!(
                            x.to_bits(), sum.to_bits(),
                            "t={} c={} mask={:#b} s={}", t, c, dict.mask_at(m), s
                        );
                    }
                }
            }
        }
        prop_assert!(clamped > 0 || !protein, "no length exercised the round-off clamp");

        // No model has such an alphabet, so the generic width is reachable
        // through the eigensystem alone.
        let n = [2usize, 3, 5, 7, 21][rng.gen_range(0..5usize)];
        let exchangeabilities: Vec<f64> =
            (0..n * (n - 1) / 2).map(|_| log_uniform(&mut rng, 0.05, 20.0)).collect();
        let freqs = frequencies(&mut rng, n);
        let generic = decompose(&build_rate_matrix(&exchangeabilities, &freqs), &freqs);
        for &t in &lengths {
            let mut out = vec![f64::NAN; n * n];
            generic.transition_matrix_into(t, &mut out);
            let reference = generic.transition_matrix(t);
            for (x, y) in out.iter().zip(reference.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "n={} t={}", n, t);
            }
        }
    }

    /// A derivative oracle that shares no code with the sum table:
    /// `EdgeDerivatives::{first, second}` of every partition, under both
    /// dispatches, against central differences of
    /// `kernel::naive::naive_log_likelihoods` (a recursive tree walk over
    /// `Eigensystem::transition_matrix`: no `W`, no eigen-space sum, no
    /// blocked kernel) with a random branch set to `t ± h`.
    ///
    /// Step and tolerance: `t ∈ [0.05, 1]` and `h = 1e-3·t`, so the
    /// truncation terms `h²·f‴/6` and `h²·f⁗/12` stay ≈ 1e-6 of a derivative
    /// that scales as sites/t and sites/t² at any `t`, while the round-off of
    /// the oracle's lnL (≈ 1e-13 absolute) enters as 1e-13/h ≤ 2e-9 and
    /// 4e-13/h² ≤ 2e-4 absolute. Over 2 000 cases (14 024 partition ×
    /// dispatch samples) the worst deviations relative to `1 + |value|` were
    /// 1.6e-6 and 2.1e-5; the bounds below leave an order of magnitude.
    #[test]
    fn sumtable_derivatives_match_finite_differences_of_the_naive_oracle(
        seed in 0u64..100_000,
        dna_partitions in 1usize..4,
        protein_partitions in 1usize..3,
        partition_len in 8usize..24,
    ) {
        use plf_loadbalance::kernel::{naive::naive_log_likelihoods, BranchLengths};
        use rand::{Rng, SeedableRng};

        let ds = mixed_dna_protein(6, dna_partitions, protein_partitions, partition_len, seed)
            .generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF1D1FF);
        let lengths: Vec<f64> = ds.tree.branches().map(|_| rng.gen_range(0.01..1.5f64)).collect();
        let branches: Vec<_> = ds.tree.branches().collect();
        let probe_branch = branches[rng.gen_range(0..branches.len())];
        let t = rng.gen_range(0.05..1.0f64);
        let h = 1e-3 * t;

        let mut bl = BranchLengths::from_tree(&ds.tree, models.len(), models.branch_mode());
        for (&b, &length) in branches.iter().zip(&lengths) {
            bl.set_all(b, length);
        }
        let mut oracle_at = |length: f64| {
            bl.set_all(probe_branch, length);
            naive_log_likelihoods(&ds.patterns, &ds.tree, &models, &bl)
        };
        let (down, at, up) = (oracle_at(t - h), oracle_at(t), oracle_at(t + h));

        for dispatch in [KernelDispatch::Scalar, KernelDispatch::Blocked] {
            let mut kernel =
                SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                    .unwrap();
            kernel.set_dispatch(dispatch);
            for (&b, &length) in branches.iter().zip(&lengths) {
                kernel.set_branch_length(BranchScope::All, b, length);
            }
            let mask = kernel.full_mask();
            kernel.try_prepare_branch(probe_branch, &mask).unwrap();
            let probes: Vec<Option<f64>> = vec![Some(t); kernel.partition_count()];
            let ders = kernel.try_branch_derivatives(&probes).unwrap();
            for (pi, d) in ders.iter().enumerate() {
                let d = d.unwrap();
                let fd1 = (up[pi] - down[pi]) / (2.0 * h);
                let fd2 = (up[pi] - 2.0 * at[pi] + down[pi]) / (h * h);
                prop_assert!(
                    (d.first - fd1).abs() <= 2e-5 * (1.0 + fd1.abs()),
                    "{:?} partition {} first: {} vs fd {}", dispatch, pi, d.first, fd1
                );
                prop_assert!(
                    (d.second - fd2).abs() <= 2e-4 * (1.0 + fd2.abs()),
                    "{:?} partition {} second: {} vs fd {}", dispatch, pi, d.second, fd2
                );
            }
        }
    }
}

/// One case of the Newton-kernel bit-identity property: random mixed
/// DNA/protein data with injected ambiguity and an all-gap column per
/// partition, α log-uniform over its whole range, **every branch of the tree
/// as the root** (tip–internal and internal–internal), a direct tip × tip
/// call, and slices cut to 1, 3, 4, 5 and 33 local patterns (the lane
/// remainders). `lengths` is the log-uniform branch-length range. Returns the
/// largest scale counter any sum table inherited.
fn check_newton_bit_identity(
    seed: u64,
    taxa: usize,
    categories: usize,
    dispatch: KernelDispatch,
    lengths: std::ops::Range<f64>,
) -> i32 {
    use plf_loadbalance::math::gamma_rates::{MAX_ALPHA, MIN_ALPHA};
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5077AB1E);
    let base = mixed_dna_protein(taxa, 2, 1, 36, seed).generate();
    let noisy = inject_ambiguity(&base, 0.08, &mut rng);
    let ds = remap_alignment(&noisy, |col, _, c| if col % 36 == 0 { '-' } else { c });

    let mut models =
        ModelSet::with_categories(&ds.patterns, BranchLengthMode::PerPartition, categories);
    for model in models.models_mut() {
        let alpha = rng.gen_range(MIN_ALPHA.ln()..MAX_ALPHA.ln()).exp();
        model.set_alpha(alpha.clamp(MIN_ALPHA, MAX_ALPHA));
    }
    let mut kernel =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
    kernel.set_dispatch(dispatch);
    let branches: Vec<_> = kernel.tree().branches().collect();
    for &b in &branches {
        let length = rng.gen_range(lengths.start.ln()..lengths.end.ln()).exp();
        kernel.set_branch_length(BranchScope::All, b, length);
    }

    let mask = kernel.full_mask();
    let mut max_events = 0;
    for &root in &branches {
        kernel.try_update_clvs(root, &mask).unwrap();
        let (a, b) = kernel.tree().branch_endpoints(root);
        let worker = kernel.executor().worker();
        for (pi, slice) in worker.slices.iter().enumerate() {
            let model = kernel.models().model(pi);
            let mut buffers = worker.buffers[pi].clone();
            let what = format!("partition {pi}, root {a}-{b}");
            assert_newton_kernels_match_the_reference(slice, &mut buffers, model, (a, b), &what);
            max_events = max_events.max(*buffers.sumtable_scale().iter().max().unwrap());
            for keep in [1, 3, 4, 5, 33] {
                let keep = keep.min(slice.pattern_count());
                let (small_slice, mut small) = first_patterns(slice, &buffers, [a, b], keep);
                let what = format!("{what}, first {keep} patterns");
                assert_newton_kernels_match_the_reference(
                    &small_slice,
                    &mut small,
                    model,
                    (a, b),
                    &what,
                );
            }
        }
    }
    // Both children tips: not a branch of any tree with four or more taxa,
    // but the op takes any two nodes.
    let worker = kernel.executor().worker();
    for (pi, slice) in worker.slices.iter().enumerate() {
        let model = kernel.models().model(pi);
        let mut buffers = worker.buffers[pi].clone();
        let what = format!("partition {pi}, tip x tip");
        assert_newton_kernels_match_the_reference(slice, &mut buffers, model, (0, taxa - 1), &what);
    }
    max_events
}

/// The same on CLVs that have rescaled (the fixture of `tests/common`), so
/// the sum tables inherit non-zero scale counters and the derivative epilogue
/// subtracts them.
#[test]
fn newton_kernels_are_bit_identical_on_rescaled_clvs() {
    let events = check_newton_bit_identity(
        2009,
        RESCALING_TAXA,
        4,
        KernelDispatch::Blocked,
        RESCALING_LENGTHS,
    );
    assert!(events > 0, "no CLV rescaled: the fixture lost its point");
}

/// What a kernel's backend recorded since the last call, for the executors
/// that keep a trace.
type TakeTrace<E> = fn(&mut LikelihoodKernel<E>) -> Option<WorkTrace>;

/// One executor's share of a fusion case: the same script of state changes
/// (cold start, `set_alpha`, `set_branch_length`, `apply_spr`, `undo_spr`)
/// drives two kernels over the same backend. After each change, under a
/// random partial mask, `fused` makes each likelihood call as the ONE command
/// the engine issues for it, `split` as the sequence of public calls that
/// command replaces: `try_update_clvs` + `try_log_likelihood_partitions`
/// against `try_log_likelihood_partitions`, and `try_update_clvs` +
/// `try_prepare_branch` + `try_branch_derivatives` against
/// `try_prepare_branch_at`. Every root and branch is chosen so that the
/// traversal is not empty; the two must then agree on every lnL and
/// derivative bit, on CLV validity, on `KernelStats` and — where the backend
/// keeps a trace — on the summed analytic work, while synchronizing exactly
/// 1 vs 2 and 1 vs 3 times.
fn check_fused_commands<E: plf_loadbalance::kernel::Executor>(
    fused: &mut LikelihoodKernel<E>,
    split: &mut LikelihoodKernel<E>,
    seed: u64,
    take_trace: TakeTrace<E>,
    what: &str,
) {
    use plf_loadbalance::kernel::engine::SprApplication;
    use plf_loadbalance::tree::spr::candidate_moves;
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF05ED);
    let partitions = fused.partition_count();
    // Per-worker analytic work of everything recorded since the last call.
    let work = |k: &mut LikelihoodKernel<E>| {
        take_trace(k).map(|trace| {
            let live = trace.live_patterns_per_worker_total();
            let flops = trace.per_worker_total_in(TraceUnit::Flops);
            let bytes = trace
                .regions
                .iter()
                .fold(vec![0.0; trace.workers], |mut sum, r| {
                    sum.iter_mut()
                        .zip(&r.bytes_per_worker)
                        .for_each(|(s, b)| *s += b);
                    sum
                });
            (flops, bytes, live)
        })
    };
    let state = |k: &LikelihoodKernel<E>| {
        let valid: Vec<usize> = (0..partitions).map(|p| k.valid_clvs(p)).collect();
        (k.stats(), valid)
    };
    let mut applied: Option<[SprApplication; 2]> = None;
    for step in ["cold", "alpha", "length", "spr", "undo"] {
        let what = format!("{what}, {step}");
        let mut mask: Vec<bool> = (0..partitions).map(|_| rng.gen_bool(0.6)).collect();
        let touched = rng.gen_range(0..partitions);
        mask[touched] = true;
        let branches: Vec<_> = fused.tree().branches().collect();
        let changed = branches[rng.gen_range(0..branches.len())];
        match step {
            "alpha" => {
                let alpha = rng.gen_range(0.2..2.0);
                fused.set_alpha(touched, alpha);
                split.set_alpha(touched, alpha);
            }
            "length" => {
                let length = rng.gen_range(0.01..1.5);
                fused.set_branch_length(BranchScope::All, changed, length);
                split.set_branch_length(BranchScope::All, changed, length);
            }
            "spr" => {
                let tree = fused.tree().clone();
                let moves: Vec<_> = tree
                    .internal_nodes()
                    .flat_map(|p| tree.neighbors(p).iter().map(move |&(s, _)| (p, s)))
                    .flat_map(|(p, s)| candidate_moves(&tree, p, s, 3))
                    .collect();
                let mv = moves[rng.gen_range(0..moves.len())];
                applied = Some([fused.apply_spr(mv).unwrap(), split.apply_spr(mv).unwrap()]);
            }
            "undo" => {
                let [a, b] = applied.take().expect("the move applied one step earlier");
                fused.undo_spr(&a);
                split.undo_spr(&b);
            }
            _ => {}
        }

        // Rooted off the branch whose length moved, some CLV is stale.
        let branches: Vec<_> = fused.tree().branches().filter(|&b| b != changed).collect();
        let root = branches[rng.gen_range(0..branches.len())];
        let (at_fused, at_split) = (fused.sync_events(), split.sync_events());
        let lnl = fused.try_log_likelihood_partitions(root, &mask).unwrap();
        assert!(split.try_update_clvs(root, &mask).unwrap() > 0, "{what}");
        let lnl_split = split.try_log_likelihood_partitions(root, &mask).unwrap();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&lnl), bits(&lnl_split), "lnL, {what}");
        assert_eq!(
            (
                fused.sync_events() - at_fused,
                split.sync_events() - at_split
            ),
            (1, 2),
            "regions of an evaluation, {what}"
        );
        assert_eq!(state(fused), state(split), "after the evaluation, {what}");
        assert_eq!(work(fused), work(split), "work of the evaluation, {what}");

        // An internal branch other than the root: re-rooting there re-orients
        // the CLV of its end nearer the old root. Some active partitions sit
        // the first probe out, as converged streams do.
        let internal: Vec<_> = fused.tree().internal_branches().to_vec();
        let internal: Vec<_> = internal.into_iter().filter(|&b| b != root).collect();
        let branch = internal[rng.gen_range(0..internal.len())];
        let first: Vec<Option<f64>> = mask
            .iter()
            .map(|&active| (active && rng.gen_bool(0.8)).then(|| rng.gen_range(1e-6..2.0)))
            .collect();
        let (at_fused, at_split) = (fused.sync_events(), split.sync_events());
        let ders = fused.try_prepare_branch_at(branch, &mask, &first).unwrap();
        assert!(split.try_update_clvs(branch, &mask).unwrap() > 0, "{what}");
        split.try_prepare_branch(branch, &mask).unwrap();
        let ders_split = split.try_branch_derivatives(&first).unwrap();
        let fields = |ders: &[Option<EdgeDerivatives>]| -> Vec<Option<[u64; 3]>> {
            let bits =
                |d: &EdgeDerivatives| [d.log_likelihood, d.first, d.second].map(f64::to_bits);
            ders.iter().map(|d| d.as_ref().map(bits)).collect()
        };
        assert_eq!(fields(&ders), fields(&ders_split), "derivatives, {what}");
        assert_eq!(
            (
                fused.sync_events() - at_fused,
                split.sync_events() - at_split
            ),
            (1, 3),
            "regions of a prepared probe, {what}"
        );
        assert_eq!(state(fused), state(split), "after the probe, {what}");
        assert_eq!(work(fused), work(split), "work of the probe, {what}");
    }
}

/// The reference for who builds a table: the master builds them all. Before
/// the region runs, the calling thread builds every table the command reads
/// — from the current model, the partition's own dictionary and the slot's
/// length — into fresh slots, so no shard builds anything and no slot the
/// engine kept is read. It wraps the executor under test, so both sides
/// reduce over the same workers in the same order.
struct MasterBuilt<E> {
    inner: E,
    dicts: Vec<Arc<MaskDictionary>>,
}

impl<E: plf_loadbalance::kernel::Executor> MasterBuilt<E> {
    fn new(inner: E, patterns: &PartitionedPatterns) -> Self {
        let dicts = patterns
            .partitions
            .iter()
            .map(|p| Arc::new(MaskDictionary::for_partition(p.data_type, &p.tip_states)))
            .collect();
        Self { inner, dicts }
    }

    /// A fresh slot at `slot`'s length in partition `pi`, built here.
    fn built(&self, pi: usize, slot: &TableSlot, ctx: &ExecContext<'_>) -> Arc<TableSlot> {
        let fresh = TableSlot::new(Arc::clone(&self.dicts[pi]), slot.length());
        let model = ctx.models.model(pi);
        fresh.resolve(model, &std::cell::Cell::new(0)).unwrap();
        Arc::new(fresh)
    }

    fn traversal(&self, tables: &NewviewTables, ctx: &ExecContext<'_>) -> Arc<NewviewTables> {
        let per_partition = tables.per_partition.iter().enumerate();
        let per_partition = per_partition.map(|(pi, steps)| {
            let step = |s: &StepTables| StepTables {
                left: self.built(pi, &s.left, ctx),
                right: self.built(pi, &s.right, ctx),
            };
            steps.as_ref().map(|steps| steps.iter().map(step).collect())
        });
        Arc::new(NewviewTables {
            per_partition: per_partition.collect(),
            dispatch: tables.dispatch,
        })
    }
}

impl<E: plf_loadbalance::kernel::Executor> plf_loadbalance::kernel::Executor for MasterBuilt<E> {
    fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    fn sync_events(&self) -> u64 {
        self.inner.sync_events()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let riding = |t: &Option<Arc<TraversalDescriptor>>| {
            t.as_ref().map(|t| {
                let tables = self.traversal(&t.tables, ctx);
                Arc::new(TraversalDescriptor {
                    plans: t.plans.clone(),
                    tables,
                })
            })
        };
        let op = match op {
            KernelOp::Newview { plans, tables } => KernelOp::Newview {
                plans: plans.clone(),
                tables: self.traversal(tables, ctx),
            },
            KernelOp::Evaluate {
                endpoints,
                mask,
                tables,
                traversal,
            } => {
                let slots = tables.per_partition.iter().enumerate();
                let slots = slots.map(|(pi, slot)| slot.as_ref().map(|s| self.built(pi, s, ctx)));
                KernelOp::Evaluate {
                    endpoints: *endpoints,
                    mask: mask.clone(),
                    tables: Arc::new(EdgeTables {
                        per_partition: slots.collect(),
                        dispatch: tables.dispatch,
                    }),
                    traversal: riding(traversal),
                }
            }
            KernelOp::Sumtable {
                endpoints,
                mask,
                traversal,
                first,
            } => KernelOp::Sumtable {
                endpoints: *endpoints,
                mask: mask.clone(),
                traversal: riding(traversal),
                first: first.clone(),
            },
            KernelOp::Derivatives { .. } => op.clone(),
        };
        self.inner.execute(&op, ctx)
    }
}

/// One executor's share of a who-builds case: `subject` (tables built by the
/// shard that first reads them) and `reference` ([`MasterBuilt`]) over the
/// same backend run the same script — random branch lengths, then
/// `set_alpha`, `set_exchangeability`, an SPR apply and its undo — and after
/// each change agree on every lnL of an evaluation at a random root and on
/// every derivative bit of a prepared first probe and a second probe at a
/// random internal branch, bit for bit.
fn check_table_builders<E: plf_loadbalance::kernel::Executor>(
    subject: &mut LikelihoodKernel<E>,
    reference: &mut LikelihoodKernel<MasterBuilt<E>>,
    seed: u64,
    what: &str,
) {
    use plf_loadbalance::kernel::engine::SprApplication;
    use plf_loadbalance::tree::spr::candidate_moves;
    use rand::{Rng, SeedableRng};

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5107B);
    let partitions = subject.partition_count();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let fields = |ders: &[Option<EdgeDerivatives>]| -> Vec<Option<[u64; 3]>> {
        let bits = |d: &EdgeDerivatives| [d.log_likelihood, d.first, d.second].map(f64::to_bits);
        ders.iter().map(|d| d.as_ref().map(bits)).collect()
    };
    for b in subject.tree().branches().collect::<Vec<_>>() {
        let length = rng.gen_range(1e-4..2.0);
        let scope = match rng.gen_range(0..=partitions) {
            0 => BranchScope::All,
            p => BranchScope::Partition(p - 1),
        };
        subject.set_branch_length(scope, b, length);
        reference.set_branch_length(scope, b, length);
    }
    let mut applied: Option<[SprApplication; 2]> = None;
    for step in ["lengths", "alpha", "exchangeability", "spr", "undo"] {
        let what = format!("{what}, {step}");
        let touched = rng.gen_range(0..partitions);
        match step {
            "alpha" => {
                let alpha = rng.gen_range(0.1..5.0);
                subject.set_alpha(touched, alpha);
                reference.set_alpha(touched, alpha);
            }
            "exchangeability" => {
                let rates = subject
                    .models()
                    .model(touched)
                    .substitution()
                    .exchangeabilities()
                    .len();
                let (index, value) = (rng.gen_range(0..rates), rng.gen_range(0.1..8.0));
                subject.set_exchangeability(touched, index, value);
                reference.set_exchangeability(touched, index, value);
            }
            "spr" => {
                let tree = subject.tree().clone();
                let moves: Vec<_> = tree
                    .internal_nodes()
                    .flat_map(|p| tree.neighbors(p).iter().map(move |&(s, _)| (p, s)))
                    .flat_map(|(p, s)| candidate_moves(&tree, p, s, 3))
                    .collect();
                let mv = moves[rng.gen_range(0..moves.len())];
                applied = Some([
                    subject.apply_spr(mv).unwrap(),
                    reference.apply_spr(mv).unwrap(),
                ]);
            }
            "undo" => {
                let [a, b] = applied.take().expect("the move applied one step earlier");
                subject.undo_spr(&a);
                reference.undo_spr(&b);
            }
            _ => {}
        }
        let mask = subject.full_mask();
        let branches: Vec<_> = subject.tree().branches().collect();
        let root = branches[rng.gen_range(0..branches.len())];
        let lnl = subject.try_log_likelihood_partitions(root, &mask).unwrap();
        let want = reference
            .try_log_likelihood_partitions(root, &mask)
            .unwrap();
        assert_eq!(bits(&lnl), bits(&want), "lnL, {what}");

        let internal = subject.tree().internal_branches().to_vec();
        let branch = internal[rng.gen_range(0..internal.len())];
        for probe in 0..2 {
            let lengths: Vec<Option<f64>> = (0..partitions)
                .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(1e-6..2.0)))
                .collect();
            let (ders, want) = if probe == 0 {
                (
                    subject
                        .try_prepare_branch_at(branch, &mask, &lengths)
                        .unwrap(),
                    reference
                        .try_prepare_branch_at(branch, &mask, &lengths)
                        .unwrap(),
                )
            } else {
                (
                    subject.try_branch_derivatives(&lengths).unwrap(),
                    reference.try_branch_derivatives(&lengths).unwrap(),
                )
            };
            assert_eq!(
                fields(&ders),
                fields(&want),
                "derivatives, probe {probe}, {what}"
            );
        }
        assert_eq!(subject.stats(), reference.stats(), "{what}");
    }
}

/// Numbers no header, range or branch length should carry.
const HOSTILE_NUMBERS: [&str; 4] = ["18446744073709551615", "99999999999999999999", "0", "-1"];

/// One seeded mutation of valid parser input, by kind: truncation at a
/// random byte, a duplicated line (a taxon or partition twice), spliced
/// random bytes (non-UTF-8 included, read lossily as a file would be), a
/// number inflated past every size the input could have, a descending or
/// empty `a-b` range, and unbalanced or 10⁵-deep parentheses.
fn mutate_parser_input(text: &str, kind: usize, rng: &mut rand_chacha::ChaCha8Rng) -> String {
    use rand::Rng;
    let bytes = text.as_bytes();
    let at = rng.gen_range(0..bytes.len());
    // Maximal runs of ASCII digits, as byte ranges.
    let numbers: Vec<std::ops::Range<usize>> = {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, b) in bytes.iter().chain(std::iter::once(&b' ')).enumerate() {
            match (b.is_ascii_digit(), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push(s..i);
                    start = None;
                }
                _ => {}
            }
        }
        runs
    };
    let mutated: Vec<u8> = match kind {
        0 => bytes[..at].to_vec(),
        1 => {
            let lines: Vec<&str> = text.lines().collect();
            let twice = rng.gen_range(0..lines.len());
            let mut out = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                for _ in 0..1 + usize::from(i == twice) {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                }
            }
            out
        }
        2 => {
            let noise: Vec<u8> = (0..rng.gen_range(1..9usize))
                .map(|_| rng.gen_range(0..=255u8))
                .collect();
            [&bytes[..at], &noise, &bytes[at..]].concat()
        }
        3 if !numbers.is_empty() => {
            let run = numbers[rng.gen_range(0..numbers.len())].clone();
            let hostile = HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())];
            [&bytes[..run.start], hostile.as_bytes(), &bytes[run.end..]].concat()
        }
        4 => {
            // Every `a-b` becomes `b-a` (descending) or `a-(a-1)` (empty).
            let empty = rng.gen_bool(0.5);
            let mut out = bytes.to_vec();
            for pair in numbers.windows(2).rev() {
                let (a, b) = (pair[0].clone(), pair[1].clone());
                if a.end + 1 == b.start && bytes[a.end] == b'-' {
                    let first: u64 = text[a.clone()].parse().unwrap_or(1);
                    let swapped = if empty {
                        format!("{first}-{}", first.saturating_sub(1))
                    } else {
                        format!("{}-{}", &text[b.clone()], &text[a.clone()])
                    };
                    out.splice(a.start..b.end, swapped.into_bytes());
                }
            }
            out
        }
        _ => match rng.gen_range(0..4usize) {
            0 => {
                // Drop one parenthesis, if there is one at or after `at`.
                let mut out = bytes.to_vec();
                if let Some(i) = (at..out.len()).find(|&i| matches!(out[i], b'(' | b')')) {
                    out.remove(i);
                }
                out
            }
            1 => [&bytes[..at], &b"("[..], &bytes[at..]].concat(),
            2 => ["(".repeat(100_000).as_bytes(), bytes].concat(),
            _ => {
                // A balanced caterpillar 10⁵ deep around the valid tree.
                let body = text.trim_end().trim_end_matches(';');
                let mut out = "(".repeat(100_000);
                out.push_str(body);
                for i in 0..100_000 {
                    out.push_str(&format!(",w{i})"));
                }
                out.push(';');
                out.into_bytes()
            }
        },
    };
    String::from_utf8_lossy(&mutated).into_owned()
}

/// Runs one parser call; a panic fails the property with the seed and the
/// call that produced it.
fn never_panics<T>(what: &str, seed: u64, input: &str, call: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).unwrap_or_else(|_| {
        let shown: String = input.chars().take(120).collect();
        panic!("seed {seed}: {what} panicked on {shown:?}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: differential_cases(), ..ProptestConfig::default() })]

    /// Fusion changes barriers, never bits ([`check_fused_commands`]): on
    /// random mixed DNA/protein data, under both dispatches and both
    /// branch-length modes, on the sequential executor, real threads (2 and
    /// 4) and 16 virtual workers.
    #[test]
    fn fused_commands_equal_the_command_sequence(
        seed in 0u64..100_000,
        dna_partitions in 1usize..4,
        protein_partitions in 1usize..3,
        partition_len in 8usize..24,
        per_partition in proptest::bool::ANY,
    ) {
        let ds = mixed_dna_protein(6, dna_partitions, protein_partitions, partition_len, seed)
            .generate();
        let mode = if per_partition { BranchLengthMode::PerPartition } else { BranchLengthMode::Joint };
        let models = ModelSet::default_for(&ds.patterns, mode);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let capacity = ds.tree.node_capacity();
        for dispatch in [KernelDispatch::Scalar, KernelDispatch::Blocked] {
            fn pair<E: plf_loadbalance::kernel::Executor>(
                ds: &plf_loadbalance::seqgen::GeneratedDataset,
                models: &ModelSet,
                dispatch: KernelDispatch,
                executor: impl Fn() -> E,
            ) -> [LikelihoodKernel<E>; 2] {
                [(); 2].map(|()| {
                    let (patterns, tree) = (Arc::clone(&ds.patterns), ds.tree.clone());
                    let mut k = LikelihoodKernel::try_new(patterns, tree, models.clone(), executor())
                        .unwrap();
                    k.set_dispatch(dispatch);
                    k
                })
            }
            let [mut fused, mut split] = pair(&ds, &models, dispatch, || {
                plf_loadbalance::kernel::SequentialExecutor::new(&ds.patterns, capacity, &cats)
            });
            check_fused_commands(&mut fused, &mut split, seed, |_| None, &format!("{dispatch:?}, sequential"));
            for workers in [2, 4] {
                let assignment = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
                let [mut fused, mut split] = pair(&ds, &models, dispatch, || {
                    ThreadedExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap()
                });
                check_fused_commands(&mut fused, &mut split, seed, |_| None, &format!("{dispatch:?}, {workers} threads"));
            }
            let assignment = schedule(&ds.patterns, &cats, 16, &WeightedLpt).unwrap();
            let [mut fused, mut split] = pair(&ds, &models, dispatch, || {
                TracingExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap()
            });
            check_fused_commands(
                &mut fused,
                &mut split,
                seed,
                |k| Some(k.executor_mut().take_trace()),
                &format!("{dispatch:?}, 16 virtual workers"),
            );
        }
    }

    /// Who builds a table never changes a bit ([`check_table_builders`]): on
    /// random mixed DNA/protein data, under a random dispatch and both
    /// branch-length modes, the shards that first read each slot and the
    /// master building every table up front agree on every lnL and
    /// derivative bit — on the sequential executor, real threads (2 and 3)
    /// and 3 virtual workers.
    #[test]
    fn tables_built_by_shards_equal_tables_built_up_front(
        seed in 0u64..100_000,
        dna_partitions in 1usize..4,
        protein_partitions in 1usize..3,
        partition_len in 8usize..24,
        per_partition in proptest::bool::ANY,
        blocked in proptest::bool::ANY,
    ) {
        let ds = mixed_dna_protein(6, dna_partitions, protein_partitions, partition_len, seed)
            .generate();
        let mode = if per_partition { BranchLengthMode::PerPartition } else { BranchLengthMode::Joint };
        let dispatch = if blocked { KernelDispatch::Blocked } else { KernelDispatch::Scalar };
        let models = ModelSet::default_for(&ds.patterns, mode);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let capacity = ds.tree.node_capacity();
        fn pair<E: plf_loadbalance::kernel::Executor>(
            ds: &plf_loadbalance::seqgen::GeneratedDataset,
            models: &ModelSet,
            dispatch: KernelDispatch,
            executor: impl Fn() -> E,
        ) -> (LikelihoodKernel<E>, LikelihoodKernel<MasterBuilt<E>>) {
            fn kernel<X: plf_loadbalance::kernel::Executor>(
                ds: &plf_loadbalance::seqgen::GeneratedDataset,
                models: &ModelSet,
                dispatch: KernelDispatch,
                executor: X,
            ) -> LikelihoodKernel<X> {
                let (patterns, tree) = (Arc::clone(&ds.patterns), ds.tree.clone());
                let mut k = LikelihoodKernel::try_new(patterns, tree, models.clone(), executor).unwrap();
                k.set_dispatch(dispatch);
                k
            }
            let reference = MasterBuilt::new(executor(), &ds.patterns);
            (kernel(ds, models, dispatch, executor()), kernel(ds, models, dispatch, reference))
        }
        let (mut subject, mut reference) = pair(&ds, &models, dispatch, || {
            plf_loadbalance::kernel::SequentialExecutor::new(&ds.patterns, capacity, &cats)
        });
        check_table_builders(&mut subject, &mut reference, seed, "sequential");
        for workers in [2, 3] {
            let assignment = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
            let (mut subject, mut reference) = pair(&ds, &models, dispatch, || {
                ThreadedExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap()
            });
            check_table_builders(&mut subject, &mut reference, seed, &format!("{workers} threads"));
        }
        let assignment = schedule(&ds.patterns, &cats, 3, &WeightedLpt).unwrap();
        let (mut subject, mut reference) = pair(&ds, &models, dispatch, || {
            TracingExecutor::from_assignment(&ds.patterns, &assignment, capacity, &cats).unwrap()
        });
        check_table_builders(&mut subject, &mut reference, seed, "3 virtual workers");
    }

    /// The Newton half of the kernel re-nests loops, looks tips up and runs
    /// patterns side by side, but re-associates nothing: every sum-table
    /// entry, every scale counter and all three `EdgeDerivatives` fields
    /// equal the straight-line reference kept above, bit for bit
    /// ([`check_newton_bit_identity`]), over 1–8 categories, both CLV
    /// producers and branch lengths across the whole clamp range.
    #[test]
    fn newton_kernels_are_bit_identical_to_the_reference(
        seed in 0u64..100_000,
        taxa in 4usize..9,
        categories in 1usize..9,
        blocked in proptest::bool::ANY,
    ) {
        let dispatch = if blocked { KernelDispatch::Blocked } else { KernelDispatch::Scalar };
        check_newton_bit_identity(seed, taxa, categories, dispatch, MIN_BRANCH_LENGTH..MAX_BRANCH_LENGTH);
    }

    /// Text from outside the program is answered with a value: every seeded
    /// mutation ([`mutate_parser_input`]) of valid PHYLIP, FASTA, Newick and
    /// partition-file text, fed to every one of the four parsers, returns
    /// `Ok` or a typed `Err` — never a panic, an abort or a stack overflow —
    /// and whatever parsed survives the next stage (compilation against the
    /// valid counterpart, validation, re-serialization) the same way.
    #[test]
    fn parsers_reject_hostile_input_with_typed_errors(seed in 0u64..100_000) {
        use plf_loadbalance::data::io;
        use rand::SeedableRng;
        let ds = mixed_dna_protein(5, 2, 1, 12, seed).generate();
        let valid = [
            io::write_phylip(&ds.alignment),
            io::write_fasta(&ds.alignment, 10),
            newick::to_newick(&ds.tree),
            ds.partition_set.to_file_string(),
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for kind in 0..6 {
            for text in &valid {
                let hostile = mutate_parser_input(text, kind, &mut rng);
                type ParseAlignment = fn(&str) -> Result<Alignment, plf_loadbalance::data::DataError>;
                for (format, parse) in [
                    ("parse_phylip", io::parse_phylip as ParseAlignment),
                    ("parse_fasta", io::parse_fasta),
                ] {
                    if let Ok(alignment) = never_panics(format, seed, &hostile, || parse(&hostile)) {
                        let _ = never_panics(&format!("compile after {format}"), seed, &hostile, || {
                            PartitionedPatterns::compile(&alignment, &ds.partition_set)
                        });
                    }
                }
                let parsed = never_panics("PartitionSet::parse", seed, &hostile, || PartitionSet::parse(&hostile));
                if let Ok(partitions) = parsed {
                    let _ = never_panics("compile after PartitionSet::parse", seed, &hostile, || {
                        PartitionedPatterns::compile(&ds.alignment, &partitions)
                    });
                }
                let parsed = never_panics("parse_newick", seed, &hostile, || newick::parse_newick(&hostile));
                if let Ok(tree) = parsed {
                    let again = never_panics("to_newick after parse_newick", seed, &hostile, || {
                        newick::parse_newick(&newick::to_newick(&tree))
                    });
                    prop_assert!(
                        tree.validate().is_ok() && again.is_ok(),
                        "seed {seed}: an accepted tree is invalid or does not round-trip"
                    );
                }
            }
        }
    }
}
