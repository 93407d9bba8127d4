//! Differential harness for the kernel dispatches: the cache-blocked
//! width-specialized kernels ([`KernelDispatch::Blocked`], the default) must
//! reproduce the scalar reference ([`KernelDispatch::Scalar`]) on *random*
//! inputs, not just on the curated benchmark dataset.
//!
//! Every property drives both dispatches over randomly generated mixed
//! DNA/protein datasets with random branch lengths (including values at the
//! clamp bounds `MIN_BRANCH_LENGTH` / `MAX_BRANCH_LENGTH`), randomly
//! injected ambiguity codes and gaps in the tip rows, and datasets deep
//! enough to cross the CLV scaling threshold.
//!
//! Agreement contract (see `phylo_kernel::blocked`):
//! * **DNA partitions are bit-for-bit**: the blocked 4-wide kernel performs
//!   the same multiply–adds in the same order as the scalar loop, so
//!   per-partition log likelihoods and derivatives compare with `to_bits`.
//! * **Protein partitions carry a documented `1e-12` relative tolerance**:
//!   the 20-wide column-broadcast kernel fuses multiply–adds (skipping the
//!   intermediate rounding of `mul` + `add`), which perturbs CLV entries by
//!   O(1 ulp); everything downstream is shared code.
//! * **Protein sum-table outputs are bounded by the sum-table path's own
//!   noise**: near `t → 0` the eigen-space sum `Σ_k table[k]·exp(λ_k r t)`
//!   cancels O(1) terms down to an O(t) site likelihood (Dinh & Matsen's
//!   one-branch likelihood), so at the `MIN_BRANCH_LENGTH` probe the path
//!   amplifies the O(1 ulp) CLV perturbation far beyond `1e-12` — under
//!   *either* dispatch. Each case measures that conditioning on the scalar
//!   path (its own sum-table lnL against its own evaluate-path lnL, and its
//!   derivatives times the path's branch-length resolution), and the
//!   dispatch gap must stay inside it.
//!
//! The default profile samples a handful of fixed-seed cases so the suite
//! stays fast in the normal test job; the deep CI job raises the case count
//! via `PLF_DIFFERENTIAL_CASES`.

use plf_loadbalance::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

mod common;
use common::{differential_cases, inject_ambiguity, RESCALING_LENGTHS, RESCALING_TAXA};

use plf_loadbalance::kernel::{Executor, SequentialExecutor, WorkerSlices};
use plf_loadbalance::seqgen::GeneratedDataset;
use plf_loadbalance::tree::topology::MIN_BRANCH_LENGTH;
use plf_loadbalance::tree::{BranchId, TraversalPlan};

/// Relative lnL tolerance for protein partitions (DNA is exact).
const PROTEIN_REL_TOL: f64 = 1e-12;

/// Relative tolerance for protein *derivatives*: the first/second
/// derivatives divide by per-site likelihoods, and at candidate lengths near
/// the clamp bounds those are tiny — the division amplifies the blocked
/// kernel's O(1 ulp) CLV perturbation by the conditioning of the ratio
/// (measured ≈ 2e-11 relative at `MIN_BRANCH_LENGTH`). Where the sum table
/// itself is ill-conditioned the per-case noise floor takes over (see
/// [`assert_sumtable_agreement`]).
const PROTEIN_DERIV_REL_TOL: f64 = 1e-9;

/// Absolute branch-length resolution of the sum-table path: its eigen-space
/// sum `Σ_k table[k]·exp(λ_k·r·t)` stores `t` inside factors next to `1`,
/// so the path cannot tell `t` from `t ± O(ε)` — eight bits of headroom over
/// `ε` cover the slowest Γ category and eigen-mode (over 1000 sampled cases
/// the dispatch gap reaches 49 ε·|∂/∂t| in the lnL and 83 in the first
/// derivative; the scalar path's own sumtable-vs-evaluate gap reaches 184).
/// At `t = 0.1` this is far below the fixed tolerances; at the
/// `MIN_BRANCH_LENGTH = 1e-8` clamp it is what limits the path.
const SUMTABLE_LENGTH_RESOLUTION: f64 = 256.0 * f64::EPSILON;

/// Maximum branch length accepted by the engine's clamp.
const MAX_BRANCH_LENGTH: f64 = 10.0;

/// Draws one branch length: clamp-bound extremes with positive probability,
/// log-uniform in between — short branches drive CLV entries toward the
/// scaling threshold, long ones toward the stationary distribution.
fn random_branch_length(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => MIN_BRANCH_LENGTH,
        1 => MAX_BRANCH_LENGTH,
        _ => (rng.gen_range(f64::ln(1e-6)..f64::ln(3.0))).exp(),
    }
}

/// Builds the scalar/blocked kernel pair over the same patterns, tree and
/// models, with identical randomized branch lengths on both.
fn kernel_pair(
    ds: &GeneratedDataset,
    rng: &mut ChaCha8Rng,
) -> (SequentialKernel, SequentialKernel) {
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let mut scalar =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
            .expect("scalar kernel builds");
    scalar.set_dispatch(KernelDispatch::Scalar);
    let mut blocked = SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models)
        .expect("blocked kernel builds");
    assert_eq!(blocked.dispatch(), KernelDispatch::Blocked, "fast default");

    let branches: Vec<BranchId> = scalar.tree().branches().collect();
    for branch in branches {
        let value = random_branch_length(rng);
        scalar.set_branch_length(BranchScope::All, branch, value);
        blocked.set_branch_length(BranchScope::All, branch, value);
    }
    (scalar, blocked)
}

/// Asserts the per-partition agreement contract: DNA bit-for-bit, protein
/// within the documented relative tolerance.
fn assert_partition_agreement(
    patterns: &PartitionedPatterns,
    scalar: &[f64],
    blocked: &[f64],
    what: &str,
) {
    let no_floor = vec![0.0; scalar.len()];
    assert_sumtable_agreement(patterns, scalar, blocked, what, PROTEIN_REL_TOL, &no_floor)
}

/// The agreement contract with a per-partition absolute `floor` under the
/// protein tolerance: DNA bit-for-bit; protein within
/// `max(rel_tol · max(|scalar|, 1), floor)`. The fixed constant is what a
/// well-conditioned case is held to; the floor only ever widens it, by what
/// the case itself measured.
fn assert_sumtable_agreement(
    patterns: &PartitionedPatterns,
    scalar: &[f64],
    blocked: &[f64],
    what: &str,
    rel_tol: f64,
    floor: &[f64],
) {
    assert_eq!(scalar.len(), blocked.len());
    assert_eq!(scalar.len(), floor.len());
    for (pi, (s, b)) in scalar.iter().zip(blocked.iter()).enumerate() {
        let dtype = patterns.partitions[pi].data_type;
        match dtype {
            DataType::Dna => assert_eq!(
                s.to_bits(),
                b.to_bits(),
                "partition {pi} (DNA) {what} not bit-for-bit: {s:?} vs {b:?}"
            ),
            DataType::Protein => {
                let tol = (rel_tol * s.abs().max(1.0)).max(floor[pi]);
                assert!(
                    (s - b).abs() <= tol,
                    "partition {pi} (protein) {what} drifted: {s} vs {b} (|Δ|={:.3e}, tol={tol:.3e})",
                    (s - b).abs()
                );
            }
        }
    }
}

/// One case of the derivative differential: Newton–Raphson derivatives (sum
/// table + derivative evaluation off the dispatch-specific CLVs) agree
/// between the dispatches — bit-for-bit on DNA; on protein within the fixed
/// tolerances or, where the sum-table path is ill-conditioned, within the
/// noise floor measured on the scalar path at the probe length.
fn check_derivative_agreement(seed: u64, taxa: usize, probe_extreme: bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1F);
    let base = mixed_dna_protein(taxa, 2, 1, 50, seed).generate();
    let ds = inject_ambiguity(&base, 0.05, &mut rng);
    let (mut scalar, mut blocked) = kernel_pair(&ds, &mut rng);

    let branch = scalar.default_root_branch();
    let mask = scalar.full_mask();
    scalar
        .try_prepare_branch(branch, &mask)
        .expect("scalar prepares");
    blocked
        .try_prepare_branch(branch, &mask)
        .expect("blocked prepares");

    let candidate = if probe_extreme {
        MIN_BRANCH_LENGTH
    } else {
        rng.gen_range(0.01..1.0)
    };
    let lengths: Vec<Option<f64>> = (0..ds.patterns.partition_count())
        .map(|_| Some(candidate))
        .collect();
    let s = scalar
        .try_branch_derivatives(&lengths)
        .expect("scalar derivatives");
    let b = blocked
        .try_branch_derivatives(&lengths)
        .expect("blocked derivatives");
    let unpack = |d: Vec<Option<plf_loadbalance::kernel::ops::EdgeDerivatives>>| {
        let mut lnl = Vec::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        for e in d.into_iter().flatten() {
            lnl.push(e.log_likelihood);
            first.push(e.first);
            second.push(e.second);
        }
        (lnl, first, second)
    };
    let (s_lnl, s_d1, s_d2) = unpack(s);
    let (b_lnl, b_d1, b_d2) = unpack(b);

    // The same quantity through the evaluate path: the dispatches keep
    // their 1e-12 contract there at any length.
    scalar.set_branch_length(BranchScope::All, branch, candidate);
    blocked.set_branch_length(BranchScope::All, branch, candidate);
    let s_eval = scalar
        .try_log_likelihood_partitions(branch, &mask)
        .expect("scalar evaluates");
    let b_eval = blocked
        .try_log_likelihood_partitions(branch, &mask)
        .expect("blocked evaluates");
    assert_partition_agreement(&ds.patterns, &s_eval, &b_eval, "lnL at the probe length");

    // The case's noise floor, measured on the scalar path. The eigen-space
    // sum holds `t` inside factors `exp(λ·r·t) ≈ 1`, i.e. with *absolute*
    // precision: every sum-table output is that output at a length off by
    // up to `SUMTABLE_LENGTH_RESOLUTION`, so its noise is the resolution
    // times its own `t`-derivative (`first` for the lnL, `second` for
    // `first`, and `2·second/t` — exact for the `L ∝ t` sites that dominate
    // at the clamp — for `second`). The scalar kernel's own sum-table lnL
    // lands that far from its own evaluate lnL; that measured discrepancy
    // is part of the lnL floor.
    let floor = |slopes: &[f64]| -> Vec<f64> {
        slopes
            .iter()
            .map(|slope| SUMTABLE_LENGTH_RESOLUTION * slope.abs())
            .collect()
    };
    let lnl_floor: Vec<f64> = floor(&s_d1)
        .iter()
        .zip(s_lnl.iter().zip(&s_eval))
        .map(|(resolution, (sumtable, evaluate))| resolution.max((sumtable - evaluate).abs()))
        .collect();
    let third: Vec<f64> = s_d2.iter().map(|d2| 2.0 * d2 / candidate).collect();
    assert_sumtable_agreement(
        &ds.patterns,
        &s_lnl,
        &b_lnl,
        "derivative lnL",
        PROTEIN_REL_TOL,
        &lnl_floor,
    );
    assert_sumtable_agreement(
        &ds.patterns,
        &s_d1,
        &b_d1,
        "first derivative",
        PROTEIN_DERIV_REL_TOL,
        &floor(&s_d2),
    );
    assert_sumtable_agreement(
        &ds.patterns,
        &s_d2,
        &b_d2,
        "second derivative",
        PROTEIN_DERIV_REL_TOL,
        &floor(&third),
    );
}

/// The CI-depth case that exposed the sum-table path's conditioning at the
/// clamp (case 8 of 30): candidate `MIN_BRANCH_LENGTH`, protein partition 2.
/// The evaluate path is bit-identical across the dispatches there, while the
/// scalar kernel's own sum-table lnL sits 7.1e-7 from its own evaluate lnL —
/// and the dispatch gap (1.6e-7 in the lnL, 1.2e-8 relative in the first
/// derivative) must stay inside the floor measured on the scalar path.
#[test]
fn sumtable_dispatch_gap_at_the_clamp_stays_inside_the_scalar_noise_floor() {
    check_derivative_agreement(2945, 7, true);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: differential_cases(), ..ProptestConfig::default() })]

    /// The blocked DNA loops run one instantiation per child-kind pair
    /// (tip/tip, tip/internal, internal/tip, internal/internal). Over random
    /// DNA data whose tips carry every one of the 16 masks (the empty mask
    /// and the gap included), 1, 2, 4 or 8 rate categories, random lengths
    /// with the clamp extremes, and trees as deep as the rescaling fixture,
    /// every internal node's CLV entries and scale counters and every
    /// partition's lnL are the scalar kernel's, bit for bit.
    #[test]
    fn dna_child_kind_pairs_match_the_scalar_kernel_bit_for_bit(
        seed in 0u64..10_000,
        taxa in 4usize..12,
        category_index in 0usize..4,
        deep in proptest::bool::ANY,
        root_index in 0usize..1_000,
    ) {
        let categories = [1, 2, 4, 8][category_index];
        let taxa = if deep { RESCALING_TAXA } else { taxa };
        let (patterns, tree) = dna_fixture(seed, taxa, 2, 24, deep);
        let root = root_index % tree.branches().count();
        // The first 16 tips of a partition carry the 16 masks in order; on
        // the deep tree every other tip is a random single base, so the
        // short branches' conflicting tips drive CLV entries under the
        // scaling threshold.
        let masks = |pi: usize, tips: &mut [u32]| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ pi as u64);
            for (k, tip) in tips.iter_mut().enumerate() {
                if k < 16 {
                    *tip = k as u32;
                } else if deep {
                    *tip = 1 << rng.gen_range(0..4u32);
                } else if rng.gen_bool(0.2) {
                    *tip = rng.gen_range(0..16);
                }
            }
        };
        let sweep = |dispatch| {
            dna_sweep(&patterns, &tree, root, categories, &masks, false, dispatch)
        };
        let scalar = sweep(KernelDispatch::Scalar);
        let blocked = sweep(KernelDispatch::Blocked);
        let events = assert_sweeps_identical(&scalar, &blocked);
        prop_assert!(!deep || events > 0, "no CLV rescaled: the deep fixture lost its point");
    }

    /// Per-partition log likelihoods agree between the dispatches on random
    /// mixed datasets with random branch lengths and injected ambiguity.
    #[test]
    fn dispatches_agree_on_random_mixed_datasets(
        seed in 0u64..10_000,
        taxa in 4usize..10,
        dna_parts in 1usize..4,
        prot_parts in 1usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = mixed_dna_protein(taxa, dna_parts, prot_parts, 60, seed).generate();
        let ds = inject_ambiguity(&base, 0.08, &mut rng);
        let (mut scalar, mut blocked) = kernel_pair(&ds, &mut rng);

        let root = scalar.default_root_branch();
        let mask = scalar.full_mask();
        let s = scalar.try_log_likelihood_partitions(root, &mask).expect("scalar evaluates");
        let b = blocked.try_log_likelihood_partitions(root, &mask).expect("blocked evaluates");
        prop_assert!(s.iter().all(|v| v.is_finite()), "scalar lnL not finite: {s:?}");
        assert_partition_agreement(&ds.patterns, &s, &b, "lnL");
    }

    /// [`check_derivative_agreement`] on random datasets — including
    /// candidate lengths at the lower clamp bound.
    #[test]
    fn dispatches_agree_on_derivatives(
        seed in 0u64..10_000,
        taxa in 4usize..9,
        probe_extreme in proptest::bool::ANY,
    ) {
        check_derivative_agreement(seed, taxa, probe_extreme);
    }

    /// Deep trees with extreme branch lengths cross the CLV scaling
    /// threshold; scaling events and the rescaled likelihoods must be
    /// identical under both dispatches (the blocked kernels compare against
    /// the same `SCALE_THRESHOLD` and multiply by the same `SCALE_FACTOR`).
    #[test]
    fn dispatches_agree_across_scaling_thresholds(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5CA1E);
        let base = mixed_dna_protein(RESCALING_TAXA, 1, 1, 40, seed).generate();
        let ds = inject_ambiguity(&base, 0.03, &mut rng);
        let (mut scalar, mut blocked) = kernel_pair(&ds, &mut rng);
        // Push every branch long: that many taxa × near-stationary transition
        // probabilities drive protein CLV entries under the threshold.
        let branches: Vec<BranchId> = scalar.tree().branches().collect();
        for branch in branches {
            let value = rng.gen_range(RESCALING_LENGTHS);
            scalar.set_branch_length(BranchScope::All, branch, value);
            blocked.set_branch_length(BranchScope::All, branch, value);
        }
        let root = scalar.default_root_branch();
        let mask = scalar.full_mask();
        let s = scalar.try_log_likelihood_partitions(root, &mask).expect("scalar evaluates");
        let b = blocked.try_log_likelihood_partitions(root, &mask).expect("blocked evaluates");
        // Every scale counter the single worker holds: all partitions, all
        // computed CLVs, all patterns.
        let scale_counters = |kernel: &SequentialKernel| -> Vec<i32> {
            let buffers = kernel.executor().worker().buffers.iter();
            buffers
                .flat_map(|b| (0..b.node_capacity()).filter_map(|node| b.scale(node)))
                .flatten()
                .copied()
                .collect()
        };
        let events = scale_counters(&scalar);
        prop_assert!(events.iter().any(|&e| e > 0), "no CLV rescaled: the fixture lost its point");
        prop_assert_eq!(events, scale_counters(&blocked));
        prop_assert!(s.iter().all(|v| v.is_finite()), "scalar lnL not finite: {s:?}");
        assert_partition_agreement(&ds.patterns, &s, &b, "lnL under scaling");
    }
}

/// One traversal of a DNA dataset under each dispatch, straight through the
/// step and edge kernels: every internal node's CLV and scale counters and
/// every partition's lnL, as bits, plus each dispatch's tip-cache counters.
struct DnaSweep {
    clvs: Vec<Vec<u64>>,
    scales: Vec<Vec<i32>>,
    lnl: Vec<u64>,
    tip_cache: (u64, u64, u64),
}

/// The DNA fixture of [`dna_sweep`]: `partitions` DNA partitions of
/// `columns` columns on a random `taxa`-taxon tree, every branch drawn by
/// [`random_branch_length`] — or, when `deep`, log-uniform between the lower
/// clamp and `1e-3`: DNA saturates at a factor ≈ 1/4 per tip, so only short
/// branches with conflicting tips take a DNA CLV under the scaling
/// threshold.
fn dna_fixture(
    seed: u64,
    taxa: usize,
    partitions: usize,
    columns: usize,
    deep: bool,
) -> (PartitionedPatterns, Tree) {
    let spec = DatasetSpec {
        name: "dna_masks".into(),
        taxa,
        partition_columns: vec![columns; partitions],
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.0,
        seed,
    };
    let ds = spec.generate();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4D41_534B);
    let mut tree = ds.tree.clone();
    for branch in tree.branches().collect::<Vec<_>>() {
        let length = if deep {
            rng.gen_range(MIN_BRANCH_LENGTH.ln()..f64::ln(1e-3)).exp()
        } else {
            random_branch_length(&mut rng)
        };
        tree.set_branch_length(branch, length);
    }
    (PartitionedPatterns::clone(&ds.patterns), tree)
}

/// Runs one full traversal rooted at `root` and the edge evaluation of each
/// partition from both ends of `root` under `dispatch`, on slices whose tip
/// masks `masks` rewrites first. `right_dicts` gives the right child of
/// every step a dictionary of its own (same content, another `Arc`).
fn dna_sweep(
    patterns: &PartitionedPatterns,
    tree: &Tree,
    root: BranchId,
    categories: usize,
    masks: &dyn Fn(usize, &mut [u32]),
    right_dicts: bool,
    dispatch: KernelDispatch,
) -> DnaSweep {
    use plf_loadbalance::kernel::{blocked, ops};
    let models = ModelSet::with_categories(patterns, BranchLengthMode::Joint, categories);
    let cats = vec![categories; patterns.partition_count()];
    let mut ws = WorkerSlices::cyclic(patterns, 0, 1, tree.node_capacity(), &cats);
    let plan = TraversalPlan::full(tree, root);
    let (a, b) = tree.branch_endpoints(root);
    let mut sweep = DnaSweep {
        clvs: Vec::new(),
        scales: Vec::new(),
        lnl: Vec::new(),
        tip_cache: (0, 0, 0),
    };
    for (pi, (slice, buffers)) in ws.slices.iter_mut().zip(&mut ws.buffers).enumerate() {
        masks(pi, &mut slice.tip_states);
        let model = models.model(pi);
        let dict = || Arc::new(MaskDictionary::for_partition(DataType::Dna, &[]));
        let shared = dict();
        let tables = |dict: &Arc<MaskDictionary>, branch| {
            BranchTables::build(model, dict, tree.branch_length(branch)).expect("tables build")
        };
        for step in &plan.steps {
            let left = tables(&shared, step.left_branch);
            let right = if right_dicts {
                tables(&dict(), step.right_branch)
            } else {
                tables(&shared, step.right_branch)
            };
            match dispatch {
                KernelDispatch::Blocked => {
                    blocked::newview_step_blocked(slice, buffers, step, &left, &right)
                }
                KernelDispatch::Scalar => {
                    ops::newview_step_tabled(slice, buffers, step, &left, &right)
                }
            }
            .expect("step runs");
        }
        let edge = tables(&shared, root);
        for (left, right) in [(a, b), (b, a)] {
            let lnl = match dispatch {
                KernelDispatch::Blocked => {
                    blocked::evaluate_edge_blocked(slice, buffers, model, left, right, &edge)
                }
                KernelDispatch::Scalar => {
                    ops::evaluate_edge_tabled(slice, buffers, model, left, right, &edge)
                }
            }
            .expect("edge evaluates");
            sweep.lnl.push(lnl.to_bits());
        }
        for step in &plan.steps {
            let clv = buffers.clv(step.node).expect("step wrote a CLV");
            sweep.clvs.push(clv.iter().map(|v| v.to_bits()).collect());
            sweep
                .scales
                .push(buffers.scale(step.node).expect("and its scale").clone());
        }
        let (hits, misses, builds) = buffers.take_tip_cache_counters();
        let (h, m, b) = sweep.tip_cache;
        sweep.tip_cache = (h + hits, m + misses, b + builds);
    }
    sweep
}

/// Asserts the blocked sweep equals the scalar one bit for bit, node by
/// node; returns the largest scale counter seen.
fn assert_sweeps_identical(scalar: &DnaSweep, blocked: &DnaSweep) -> i32 {
    assert_eq!(scalar.clvs.len(), blocked.clvs.len());
    for (node, (s, b)) in scalar.clvs.iter().zip(&blocked.clvs).enumerate() {
        assert!(s == b, "CLV of step {node} not bit-identical");
    }
    assert_eq!(scalar.scales, blocked.scales, "scale counters");
    assert_eq!(scalar.lnl, blocked.lnl, "per-partition lnL bits");
    assert_eq!(scalar.tip_cache, blocked.tip_cache, "tip-cache counters");
    scalar.scales.iter().flatten().copied().max().unwrap_or(0)
}

/// The reference of the repeat-aware `newview` loops: the same loops with
/// every pattern its own class. Each local pattern of each worker's slice
/// (`owners` over `workers`, as the executor under test holds them) runs the
/// full traversal rooted at `root` as a slice of its own — one pattern, one
/// class — under the kernel's dispatch, tables, models and branch lengths;
/// its columns and scale counts are assembled into the worker's buffers, each
/// worker evaluates its slice, and the workers' partition sums are added in
/// worker order, as a region reduces them. Returns the per-partition lnL and
/// the assembled workers.
fn own_class_reference<E: Executor>(
    kernel: &LikelihoodKernel<E>,
    owners: &[usize],
    workers: usize,
    root: BranchId,
) -> (Vec<f64>, Vec<WorkerSlices>) {
    use plf_loadbalance::kernel::{blocked, ops, PartitionSlice, SliceBuffers};
    let (patterns, tree, models) = (kernel.patterns(), kernel.tree(), kernel.models());
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let capacity = tree.node_capacity();
    let plan = TraversalPlan::full(tree, root);
    let (a, b) = tree.branch_endpoints(root);
    let dispatch = kernel.dispatch();
    let mut total = vec![0.0; patterns.partition_count()];
    let mut reference = Vec::new();
    for worker in 0..workers {
        let mut ws =
            WorkerSlices::from_assignment(patterns, worker, workers, capacity, &categories, owners);
        for (pi, (slice, buffers)) in ws.slices.iter().zip(&mut ws.buffers).enumerate() {
            let n = slice.pattern_count();
            if n == 0 {
                continue;
            }
            let part = &patterns.partitions[pi];
            let dict = Arc::new(MaskDictionary::for_partition(
                part.data_type,
                &part.tip_states,
            ));
            let model = models.model(pi);
            let table = |branch| {
                BranchTables::build(model, &dict, kernel.branch_length(pi, branch))
                    .expect("tables build")
            };
            let step_tables: Vec<_> = plan
                .steps
                .iter()
                .map(|step| (table(step.left_branch), table(step.right_branch)))
                .collect();
            let block = buffers.clv_len() / n;
            for p in 0..n {
                let one = PartitionSlice {
                    partition: pi,
                    data_type: slice.data_type,
                    n_taxa: slice.n_taxa,
                    tip_states: slice.tip_states[p * slice.n_taxa..][..slice.n_taxa].to_vec(),
                    weights: vec![slice.weights[p]],
                    global_indices: vec![slice.global_indices[p]],
                };
                let mut own = SliceBuffers::new(1, slice.states(), categories[pi], capacity);
                for (step, (left, right)) in plan.steps.iter().zip(&step_tables) {
                    match dispatch {
                        KernelDispatch::Blocked => {
                            blocked::newview_step_blocked(&one, &mut own, step, left, right)
                        }
                        KernelDispatch::Scalar => {
                            ops::newview_step_tabled(&one, &mut own, step, left, right)
                        }
                    }
                    .expect("reference step runs");
                    let column = own.clv(step.node).expect("the step wrote a CLV");
                    buffers.clv_mut(step.node)[p * block..][..block].copy_from_slice(column);
                    buffers.scale_mut(step.node)[p] = own.scale(step.node).expect("and a scale")[0];
                }
            }
            let edge = table(root);
            total[pi] += match dispatch {
                KernelDispatch::Blocked => {
                    blocked::evaluate_edge_blocked(slice, buffers, model, a, b, &edge)
                }
                KernelDispatch::Scalar => {
                    ops::evaluate_edge_tabled(slice, buffers, model, a, b, &edge)
                }
            }
            .expect("reference edge evaluates");
        }
        reference.push(ws);
    }
    (total, reference)
}

/// The sequential executor's one worker, whose CLVs the test can read.
fn sequential_worker(executor: &SequentialExecutor) -> Option<&WorkerSlices> {
    Some(executor.worker())
}

/// A shard executor's workers live inside it: only lnL bits are compared.
fn hidden_workers<E>(_: &E) -> Option<&WorkerSlices> {
    None
}

/// Evaluates `kernel` at two roots (its default root, then a pendant branch,
/// which flips the orientations between them) and asserts every
/// per-partition lnL bit — and, where `worker_of` exposes the worker, every
/// CLV entry and scale count of the traversal — equal to
/// [`own_class_reference`].
fn assert_own_class_bits<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    owners: &[usize],
    workers: usize,
    worker_of: fn(&E) -> Option<&WorkerSlices>,
    stage: &str,
) {
    let pendant = kernel.tree().neighbors(0)[0].1;
    for root in [kernel.default_root_branch(), pendant] {
        let mask = kernel.full_mask();
        let lnl = kernel
            .try_log_likelihood_partitions(root, &mask)
            .expect("kernel evaluates");
        let (expected, reference) = own_class_reference(kernel, owners, workers, root);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&lnl),
            bits(&expected),
            "{stage}, root {root}: lnL bits"
        );
        let Some(worker) = worker_of(kernel.executor()) else {
            continue;
        };
        for step in &TraversalPlan::full(kernel.tree(), root).steps {
            for (pi, (got, want)) in worker.buffers.iter().zip(&reference[0].buffers).enumerate() {
                let node = step.node;
                let clv = |b: &plf_loadbalance::kernel::SliceBuffers| b.clv(node).map(|c| bits(c));
                assert_eq!(
                    clv(got),
                    clv(want),
                    "{stage}, root {root}: CLV of node {node}, partition {pi}"
                );
                assert_eq!(
                    got.scale(node),
                    want.scale(node),
                    "{stage}, root {root}: scales of node {node}, partition {pi}"
                );
            }
        }
    }
}

/// The sequence every executor runs before the comparison of each stage:
/// α and an exchangeability change, new branch lengths, then a run of SPR
/// moves, each applied and undone — every one of them followed by
/// [`assert_own_class_bits`].
fn drive_own_class_sequence<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    owners: &[usize],
    workers: usize,
    worker_of: fn(&E) -> Option<&WorkerSlices>,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0C1A_55E5);
    let check = |kernel: &mut LikelihoodKernel<E>, stage: &str| {
        assert_own_class_bits(kernel, owners, workers, worker_of, stage)
    };
    check(kernel, "cold");
    kernel.set_alpha(0, rng.gen_range(0.2..2.0));
    check(kernel, "set_alpha");
    let dna = (0..kernel.partition_count())
        .find(|&pi| kernel.patterns().partitions[pi].data_type == DataType::Dna)
        .expect("the dataset has a DNA partition");
    kernel.set_exchangeability(dna, 1, rng.gen_range(0.5..4.0));
    check(kernel, "set_exchangeability");
    let branches: Vec<BranchId> = kernel.tree().branches().collect();
    for &branch in branches.iter().step_by(3) {
        kernel.set_branch_length(BranchScope::All, branch, random_branch_length(&mut rng));
    }
    check(kernel, "branch lengths");
    let tree = kernel.tree().clone();
    let mut moves = Vec::new();
    for node in tree.internal_nodes() {
        for &(subtree, _) in tree.neighbors(node) {
            moves.extend(plf_loadbalance::tree::spr::candidate_moves(
                &tree, node, subtree, 3,
            ));
        }
    }
    for _ in 0..4 {
        if moves.is_empty() {
            break;
        }
        let mv = moves.swap_remove(rng.gen_range(0..moves.len()));
        let Ok(application) = kernel.apply_spr(mv) else {
            continue;
        };
        check(kernel, "spr apply");
        kernel.undo_spr(&application);
        check(kernel, "spr undo");
    }
}

/// The executors of [`repeat_aware_newview_is_every_pattern_its_own_class_bit_for_bit`]
/// that can be reassigned: a reassignment rebuilds every worker's slices
/// (and with them the repeat classes), then the stage is compared again.
fn reassign_and_check<E: Executor + Reassignable>(
    kernel: &mut LikelihoodKernel<E>,
    workers: usize,
    strategy: &dyn ScheduleStrategy,
) {
    let patterns = Arc::clone(kernel.patterns());
    let categories: Vec<usize> = kernel
        .models()
        .models()
        .iter()
        .map(|m| m.categories())
        .collect();
    let capacity = kernel.tree().node_capacity();
    let assignment = schedule(&patterns, &categories, workers, strategy).expect("schedules");
    kernel
        .executor_mut()
        .reassign(&patterns, &assignment, capacity, &categories)
        .expect("reassigns");
    kernel.invalidate_all();
    assert_own_class_bits(
        kernel,
        assignment.owner(),
        workers,
        hidden_workers,
        "reassign",
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: differential_cases(), ..ProptestConfig::default() })]

    /// The repeat-aware `newview` loops copy a column only where computing
    /// it would have produced the same bits, and a cached class array is
    /// never reused for other children. On a random mixed dataset with
    /// ambiguity codes, under both dispatches, the sequential executor,
    /// threads at T = 2 and 3 and the tracing executor each run `set_alpha`,
    /// `set_exchangeability`, branch-length changes and a run of SPR
    /// apply/undo (the shard executors then a reassignment): after every
    /// stage, at two roots, every lnL bit — and on the sequential executor
    /// every CLV entry and scale count — equals the same loops with every
    /// pattern its own class ([`own_class_reference`]).
    #[test]
    fn repeat_aware_newview_is_every_pattern_its_own_class_bit_for_bit(
        seed in 0u64..10_000,
        taxa in 5usize..9,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB17);
        let base = mixed_dna_protein(taxa, 2, 1, 40, seed).generate();
        let ds = inject_ambiguity(&base, 0.05, &mut rng);
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let capacity = ds.tree.node_capacity();
        fn kernel<E: Executor>(ds: &GeneratedDataset, models: &ModelSet, executor: E) -> LikelihoodKernel<E> {
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone(), executor)
                .expect("kernel builds")
        }
        for dispatch in [KernelDispatch::Blocked, KernelDispatch::Scalar] {
            let mut sequential = kernel(&ds, &models, SequentialExecutor::new(&ds.patterns, capacity, &categories));
            sequential.set_dispatch(dispatch);
            let everything = vec![0; ds.patterns.total_patterns()];
            drive_own_class_sequence(&mut sequential, &everything, 1, sequential_worker, seed);

            for workers in [2, 3] {
                let assignment = schedule(&ds.patterns, &categories, workers, &Cyclic).unwrap();
                let threaded =
                    ThreadedExecutor::from_assignment(&ds.patterns, &assignment, capacity, &categories)
                        .unwrap();
                let mut threaded = kernel(&ds, &models, threaded);
                threaded.set_dispatch(dispatch);
                drive_own_class_sequence(&mut threaded, assignment.owner(), workers, hidden_workers, seed);
                reassign_and_check(&mut threaded, workers, &WeightedLpt);
            }

            let assignment = schedule(&ds.patterns, &categories, 3, &WeightedLpt).unwrap();
            let tracing =
                TracingExecutor::from_assignment(&ds.patterns, &assignment, capacity, &categories)
                    .unwrap();
            let mut tracing = kernel(&ds, &models, tracing);
            tracing.set_dispatch(dispatch);
            drive_own_class_sequence(&mut tracing, assignment.owner(), 3, hidden_workers, seed);
            reassign_and_check(&mut tracing, 3, &Cyclic);
        }
    }
}

/// A right child whose tables carry another dictionary `Arc` (equal
/// content) cannot read the left child's tip-index cache: the blocked DNA
/// step falls back to the scalar kernel for it, bits and tip-cache counts
/// unchanged.
#[test]
fn a_right_child_with_its_own_dictionary_takes_the_scalar_fallback() {
    let (patterns, tree) = dna_fixture(41, 9, 2, 40, false);
    let keep = |_: usize, _: &mut [u32]| {};
    let scalar = dna_sweep(&patterns, &tree, 0, 4, &keep, true, KernelDispatch::Scalar);
    let blocked = dna_sweep(&patterns, &tree, 0, 4, &keep, true, KernelDispatch::Blocked);
    assert_sweeps_identical(&scalar, &blocked);
    let shared = dna_sweep(
        &patterns,
        &tree,
        0,
        4,
        &keep,
        false,
        KernelDispatch::Blocked,
    );
    assert_ne!(
        shared.tip_cache, blocked.tip_cache,
        "the fixture must reach the fallback: a right tip searches its own dictionary"
    );
}

/// The blocked dispatch agrees across the in-process executors: the
/// sequential engine, real threads and the 16-worker tracing executor
/// partition the patterns differently (so their partial sums associate
/// differently), but every one of them must land within summation-order
/// noise of the scalar sequential reference.
#[test]
fn blocked_dispatch_agrees_under_all_executors() {
    let ds = mixed_dna_protein(10, 3, 2, 60, 77).generate();
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();

    let mut scalar =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone()).unwrap();
    scalar.set_dispatch(KernelDispatch::Scalar);
    let reference = scalar.try_log_likelihood().unwrap();

    let mut sequential =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone()).unwrap();
    let sequential_lnl = sequential.try_log_likelihood().unwrap();

    let threaded = ThreadedExecutor::from_assignment(
        &ds.patterns,
        &schedule(&ds.patterns, &categories, 4, &WeightedLpt).unwrap(),
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
        ("sequential", sequential_lnl),
        ("threaded-4", threaded_kernel.try_log_likelihood().unwrap()),
        ("tracing-16", tracing_kernel.try_log_likelihood().unwrap()),
    ] {
        assert!(
            (lnl - reference).abs() < 1e-8,
            "{name} blocked dispatch disagrees with the scalar reference: {lnl} vs {reference}"
        );
    }
}

/// Mid-run rescheduling under the blocked dispatch must not drift the
/// result: a mask-aware rescheduled optimization run lands within 1e-8 of
/// the same run without any rescheduling (pattern ownership moves between
/// workers mid-run, the likelihood must not notice).
#[test]
fn blocked_dispatch_survives_midrun_rescheduling() {
    let ds = mixed_dna_protein(10, 2, 2, 50, 91).generate();
    let config = OptimizerConfig::new(ParallelScheme::New);

    let run = |policy: Option<ReschedulePolicy>| {
        let mut builder = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(8)
            .strategy(WeightedLpt)
            .timed(true);
        if let Some(policy) = policy {
            builder = builder.rescheduler(policy);
        }
        let mut analysis = builder.build_traced().expect("analysis builds");
        analysis
            .optimize(&config)
            .expect("optimization completes")
            .report
            .final_log_likelihood
    };

    let steady = run(None);
    let rescheduled = run(Some(ReschedulePolicy {
        imbalance_threshold: 1.01,
        min_regions: 8,
        unit: TraceUnit::Flops,
        max_reschedules: 4,
        mask_aware: true,
    }));
    assert!(
        (steady - rescheduled).abs() <= 1e-8,
        "mid-run rescheduling drifted the blocked result: {steady} vs {rescheduled}"
    );
}
