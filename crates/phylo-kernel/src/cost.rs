//! Analytic floating-point cost model of the kernel primitives.
//!
//! The instrumented (virtual) executor and the platform performance model need
//! to know how much arithmetic each kernel command performs per alignment
//! pattern. These formulas count the multiply–add operations of the inner
//! loops in [`crate::ops`]; absolute constants do not matter for the
//! load-balance analysis (they cancel in speedups), but the *ratios* between
//! data types do: a 20-state protein column costs roughly
//! `(20/4)² = 25×` more than a DNA column in `newview` (21× once tip children
//! are table lookups), which is exactly the argument the paper makes for why
//! the protein datasets suffer less from the load imbalance.
//!
//! `newview` dominates every likelihood workload, so its per-pattern count,
//! [`newview_flops_tabled`], is the one weight every placement packs by
//! (`phylo_sched::PatternCosts::analytic`) and the unit the virtual
//! executor records (see [`OpKind::pattern_cost`]). It counts the scalar
//! tabled loops; the blocked loops (see [`crate::blocked`]) perform the same
//! arithmetic in another order, so which inner loop runs is the kernel's
//! business and never reaches the cost.

/// Floating-point operations for one `newview` pattern under the
/// **shared-table kernel** (see [`crate::tables`]): an internal child costs
/// an inner product of length `states` per (category, state), a tip child a
/// single precomputed lookup. In an unrooted binary tree with `n` taxa the
/// traversal's `n − 2` steps have `2(n − 2)` child slots of which `n` are
/// tips, so the expected child mix is ≈ half tips — per (category, state):
/// `2·(2·states + 1)/2` for the two children plus one multiply, i.e.
/// `2·states + 2`.
///
/// The protein/DNA ratio is `(2·20+2)/(2·4+2) · 5 = 21`: tip lookups flatten
/// the per-state gap below the `(20/4)² = 25` of two dense inner products
/// (`phylo_sched`'s `tabled_costs_recalibrate_the_protein_dna_ratio` pins
/// it).
pub fn newview_flops_tabled(states: usize, categories: usize) -> f64 {
    (categories * states * (2 * states + 2)) as f64
}

/// Floating-point operations for one `evaluate` pattern at the virtual root.
pub fn evaluate_flops(states: usize, categories: usize) -> f64 {
    (categories * states * (2 * states + 3)) as f64
}

/// Floating-point operations for building one sum-table pattern: the
/// analytic count of two full `Wᵀx` products per category. It stays that
/// count although [`crate::ops::build_sumtable`] looks a tip child up once
/// per pattern instead of multiplying it through per category, so a rate
/// derived from it (`benchmark/`'s `kernel.gflops_achieved`, which pins this
/// name) reads higher on tip-adjacent branches by construction.
pub fn sumtable_flops(states: usize, categories: usize) -> f64 {
    (categories * states * (4 * states + 1)) as f64
}

/// Floating-point operations for one Newton–Raphson derivative pattern (the
/// per-iteration cost once the sum table exists). Analytic like
/// [`sumtable_flops`]: [`crate::ops::derivatives_from_sumtable`] performs
/// exactly these operations, several patterns side by side.
pub fn derivative_flops(states: usize, categories: usize) -> f64 {
    (categories * states * 6 + 8) as f64
}

/// Approximate bytes of likelihood-array traffic per `newview` pattern
/// (reading two child CLVs, writing one), used by the memory-bandwidth term of
/// the platform model. RAxML is memory bound, so this term matters for
/// absolute run-time shapes.
pub fn newview_bytes(states: usize, categories: usize) -> f64 {
    (3 * categories * states * std::mem::size_of::<f64>()) as f64
}

/// Which per-worker measurement a trace consumer reads.
///
/// Every [`RegionRecord`] carries two parallel measurements: the *analytic*
/// FLOP count (filled by the virtual tracing executor) and the *measured*
/// wall-clock seconds (filled by any measuring executor — the timed
/// real-thread backend, or the sequential tracing backend, whose per-worker
/// brackets run contention-free on one core). Balance metrics, per-worker
/// totals and the critical path are defined identically over both, so
/// schedulers and reports can consume either unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraceUnit {
    /// Analytic floating-point operations from the cost model.
    #[default]
    Flops,
    /// Measured wall-clock seconds from a timed executor.
    Seconds,
}

/// Why two traces could not be combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The traces were recorded for different worker counts; concatenating
    /// them would silently mis-attribute per-worker totals.
    WorkerMismatch {
        /// Workers of the trace being extended.
        expected: usize,
        /// Workers of the trace being appended.
        got: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerMismatch { expected, got } => write!(
                f,
                "cannot extend a {expected}-worker trace with a {got}-worker trace"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// The kind of kernel command, used to label work records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// CLV updates along a traversal list.
    Newview,
    /// Log-likelihood reduction at the virtual root.
    Evaluate,
    /// Branch sum-table construction.
    Sumtable,
    /// Newton–Raphson derivative evaluation.
    Derivatives,
}

impl OpKind {
    /// Lower-case label of the op kind (the telemetry event `kind` field).
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Newview => "newview",
            OpKind::Evaluate => "evaluate",
            OpKind::Sumtable => "sumtable",
            OpKind::Derivatives => "derivatives",
        }
    }

    /// Analytic `(flops, bytes)` one visit of one pattern costs under this
    /// op — the instruction counts the virtual executor records, in the unit
    /// placement packs by, so predicted and virtual-trace costs are directly
    /// comparable. Only `newview` streams likelihood arrays, so only it has a
    /// byte term.
    pub fn pattern_cost(&self, states: usize, categories: usize) -> (f64, f64) {
        match self {
            OpKind::Newview => (
                newview_flops_tabled(states, categories),
                newview_bytes(states, categories),
            ),
            OpKind::Evaluate => (evaluate_flops(states, categories), 0.0),
            OpKind::Sumtable => (sumtable_flops(states, categories), 0.0),
            OpKind::Derivatives => (derivative_flops(states, categories), 0.0),
        }
    }
}

/// Work performed by every (virtual) worker inside one parallel region,
/// bracketed by one synchronization event.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRecord {
    /// What the region computed.
    pub kind: OpKind,
    /// FLOPs each worker performed in the region.
    pub flops_per_worker: Vec<f64>,
    /// Likelihood-array bytes each worker touched in the region.
    pub bytes_per_worker: Vec<f64>,
    /// Measured wall-clock seconds each worker spent in the region (all
    /// zeros unless the region was recorded by a timed executor).
    pub seconds_per_worker: Vec<f64>,
    /// The convergence-mask shape of the region: which partitions were
    /// active in the command (empty when the recording executor does not
    /// track masks). A *partial* mask — some partitions converged or
    /// excluded — is the oldPAR-like situation whose load balance the
    /// mask-aware rescheduler watches.
    pub active_partitions: Vec<bool>,
    /// Live pattern count each worker touched in the region (patterns of
    /// inactive partitions are skipped and not counted; `newview` counts are
    /// weighted by traversal length). All zeros unless recorded.
    pub active_patterns_per_worker: Vec<f64>,
}

impl RegionRecord {
    /// New empty record for `workers` workers.
    pub fn new(kind: OpKind, workers: usize) -> Self {
        Self {
            kind,
            flops_per_worker: vec![0.0; workers],
            bytes_per_worker: vec![0.0; workers],
            seconds_per_worker: vec![0.0; workers],
            active_partitions: Vec::new(),
            active_patterns_per_worker: vec![0.0; workers],
        }
    }

    /// Whether the region ran under a *partial* convergence mask: its
    /// recorded mask excludes at least one partition. Regions without a
    /// recorded mask report `false`.
    pub fn is_masked(&self) -> bool {
        !self.active_partitions.is_empty() && self.active_partitions.iter().any(|a| !a)
    }

    /// The per-worker measurements in the requested unit.
    pub fn per_worker(&self, unit: TraceUnit) -> &[f64] {
        match unit {
            TraceUnit::Flops => &self.flops_per_worker,
            TraceUnit::Seconds => &self.seconds_per_worker,
        }
    }

    /// The most loaded worker in the requested unit — the quantity that
    /// determines the region's critical path.
    pub fn max_in(&self, unit: TraceUnit) -> f64 {
        self.per_worker(unit).iter().cloned().fold(0.0, f64::max)
    }

    /// Total work across workers in the requested unit.
    pub fn total_in(&self, unit: TraceUnit) -> f64 {
        self.per_worker(unit).iter().sum()
    }

    /// Parallel efficiency of the region in the requested unit: average work
    /// divided by maximum work (1.0 = perfectly balanced, → 0 when threads
    /// idle).
    pub fn balance_in(&self, unit: TraceUnit) -> f64 {
        let max = self.max_in(unit);
        if max == 0.0 {
            return 1.0;
        }
        self.total_in(unit) / (self.per_worker(unit).len() as f64 * max)
    }

    /// Total FLOPs across workers.
    pub fn total_flops(&self) -> f64 {
        self.total_in(TraceUnit::Flops)
    }

    /// Parallel efficiency of the region over FLOPs.
    pub fn balance(&self) -> f64 {
        self.balance_in(TraceUnit::Flops)
    }
}

/// A full execution trace: one record per parallel region / synchronization
/// event. This is what the platform performance model consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkTrace {
    /// Records in execution order.
    pub regions: Vec<RegionRecord>,
    /// Number of workers the trace was recorded for.
    pub workers: usize,
}

impl WorkTrace {
    /// Creates an empty trace for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            regions: Vec::new(),
            workers,
        }
    }

    /// Number of synchronization events (== number of parallel regions).
    pub fn sync_events(&self) -> usize {
        self.regions.len()
    }

    /// Total work across all regions and workers in the requested unit.
    pub fn total_in(&self, unit: TraceUnit) -> f64 {
        self.regions.iter().map(|r| r.total_in(unit)).sum()
    }

    /// Sum over regions of the most-loaded worker's work in the requested
    /// unit: the critical path of the computation under the
    /// barrier-per-region execution model.
    pub fn critical_path_in(&self, unit: TraceUnit) -> f64 {
        self.regions.iter().map(|r| r.max_in(unit)).sum()
    }

    /// Overall load balance in the requested unit: total work divided by
    /// (workers × critical path).
    pub fn overall_balance_in(&self, unit: TraceUnit) -> f64 {
        let cp = self.critical_path_in(unit);
        if cp == 0.0 {
            return 1.0;
        }
        self.total_in(unit) / (self.workers as f64 * cp)
    }

    /// Total work each worker performed in the requested unit, summed over
    /// all regions.
    pub fn per_worker_total_in(&self, unit: TraceUnit) -> Vec<f64> {
        let mut totals = vec![0.0; self.workers];
        for region in &self.regions {
            for (w, &v) in region.per_worker(unit).iter().enumerate() {
                totals[w] += v;
            }
        }
        totals
    }

    /// Whether any region carries a non-zero wall-clock measurement. Both
    /// the timed real-thread executor and the sequential tracing executor
    /// fill seconds; only the former's relative per-worker times reflect
    /// genuine parallel-worker speed.
    pub fn has_seconds(&self) -> bool {
        self.regions
            .iter()
            .any(|r| r.seconds_per_worker.iter().any(|&s| s > 0.0))
    }

    /// Total FLOPs across all regions and workers.
    pub fn total_flops(&self) -> f64 {
        self.total_in(TraceUnit::Flops)
    }

    /// Overall load balance over FLOPs.
    pub fn overall_balance(&self) -> f64 {
        self.overall_balance_in(TraceUnit::Flops)
    }

    /// Number of regions that ran under a partial convergence mask (see
    /// [`RegionRecord::is_masked`]).
    pub fn masked_region_count(&self) -> usize {
        self.regions.iter().filter(|r| r.is_masked()).count()
    }

    /// Overall load balance in the requested unit over the masked regions
    /// only (`1.0` when there are none).
    pub fn masked_overall_balance_in(&self, unit: TraceUnit) -> f64 {
        let masked: Vec<&RegionRecord> = self.regions.iter().filter(|r| r.is_masked()).collect();
        let cp: f64 = masked.iter().map(|r| r.max_in(unit)).sum();
        if cp == 0.0 {
            return 1.0;
        }
        let total: f64 = masked.iter().map(|r| r.total_in(unit)).sum();
        total / (self.workers as f64 * cp)
    }

    /// Total live pattern count each worker touched, summed over all regions
    /// (see [`RegionRecord::active_patterns_per_worker`]).
    pub fn live_patterns_per_worker_total(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.workers];
        for region in &self.regions {
            for (w, &v) in region.active_patterns_per_worker.iter().enumerate() {
                totals[w] += v;
            }
        }
        totals
    }

    /// Appends another trace (e.g. from a later phase of the same run).
    ///
    /// # Errors
    ///
    /// [`TraceError::WorkerMismatch`] if the traces were recorded for
    /// different worker counts. (This used to be a `debug_assert!`, which
    /// let release builds silently concatenate misaligned traces and
    /// mis-sum — or panic in — the per-worker totals later.)
    pub fn extend(&mut self, other: &WorkTrace) -> Result<(), TraceError> {
        if self.workers != other.workers {
            return Err(TraceError::WorkerMismatch {
                expected: self.workers,
                got: other.workers,
            });
        }
        self.regions.extend(other.regions.iter().cloned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_newview_is_about_25x_dna() {
        let dna = newview_flops_tabled(4, 4);
        let protein = newview_flops_tabled(20, 4);
        let ratio = protein / dna;
        assert!(
            (20.0..30.0).contains(&ratio),
            "protein/DNA newview cost ratio {ratio} should be ≈25"
        );
    }

    #[test]
    fn derivative_iterations_are_much_cheaper_than_newview() {
        // One Newton probe is O(states) per (pattern, category), one newview
        // O(states²): the gap is modest at 4 states and wide at 20.
        assert!(derivative_flops(4, 4) < newview_flops_tabled(4, 4));
        assert!(derivative_flops(20, 4) < newview_flops_tabled(20, 4) / 2.0);
    }

    #[test]
    fn costs_scale_with_categories() {
        assert!((newview_flops_tabled(4, 8) / newview_flops_tabled(4, 4) - 2.0).abs() < 1e-12);
        assert!((evaluate_flops(4, 1) * 4.0 - evaluate_flops(4, 4)).abs() < 1e-12);
    }

    #[test]
    fn region_record_balance() {
        let mut r = RegionRecord::new(OpKind::Newview, 4);
        r.flops_per_worker = vec![100.0, 100.0, 100.0, 100.0];
        assert!((r.balance() - 1.0).abs() < 1e-12);
        r.flops_per_worker = vec![400.0, 0.0, 0.0, 0.0];
        assert!((r.balance() - 0.25).abs() < 1e-12);
        assert_eq!(r.total_flops(), 400.0);
    }

    #[test]
    fn trace_critical_path_and_balance() {
        let mut t = WorkTrace::new(2);
        let mut a = RegionRecord::new(OpKind::Newview, 2);
        a.flops_per_worker = vec![10.0, 10.0];
        let mut b = RegionRecord::new(OpKind::Derivatives, 2);
        b.flops_per_worker = vec![20.0, 0.0];
        t.regions.push(a);
        t.regions.push(b);
        assert_eq!(t.sync_events(), 2);
        assert_eq!(t.total_flops(), 40.0);
        assert_eq!(t.critical_path_in(TraceUnit::Flops), 30.0);
        assert!((t.overall_balance() - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_neutral() {
        let t = WorkTrace::new(8);
        assert_eq!(t.sync_events(), 0);
        assert_eq!(t.total_flops(), 0.0);
        assert!((t.overall_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_worker_totals_sum_over_regions() {
        let mut t = WorkTrace::new(2);
        let mut a = RegionRecord::new(OpKind::Newview, 2);
        a.flops_per_worker = vec![10.0, 20.0];
        let mut b = RegionRecord::new(OpKind::Evaluate, 2);
        b.flops_per_worker = vec![1.0, 2.0];
        t.regions.push(a);
        t.regions.push(b);
        assert_eq!(t.per_worker_total_in(TraceUnit::Flops), vec![11.0, 22.0]);
        assert_eq!(
            WorkTrace::new(3).per_worker_total_in(TraceUnit::Flops),
            vec![0.0; 3]
        );
    }

    #[test]
    fn trace_extend_concatenates() {
        let mut a = WorkTrace::new(2);
        a.regions.push(RegionRecord::new(OpKind::Evaluate, 2));
        let mut b = WorkTrace::new(2);
        b.regions.push(RegionRecord::new(OpKind::Newview, 2));
        b.regions.push(RegionRecord::new(OpKind::Sumtable, 2));
        a.extend(&b).unwrap();
        assert_eq!(a.sync_events(), 3);
    }

    #[test]
    fn trace_extend_rejects_mismatched_worker_counts() {
        let mut a = WorkTrace::new(2);
        a.regions.push(RegionRecord::new(OpKind::Evaluate, 2));
        let mut b = WorkTrace::new(3);
        b.regions.push(RegionRecord::new(OpKind::Newview, 3));
        assert_eq!(
            a.extend(&b),
            Err(TraceError::WorkerMismatch {
                expected: 2,
                got: 3
            })
        );
        // The failed extend must leave the trace untouched.
        assert_eq!(a.sync_events(), 1);
        assert!(!TraceError::WorkerMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .is_empty());
    }

    #[test]
    fn seconds_metrics_mirror_flops_metrics() {
        let mut t = WorkTrace::new(2);
        let mut a = RegionRecord::new(OpKind::Newview, 2);
        a.seconds_per_worker = vec![0.3, 0.1];
        let mut b = RegionRecord::new(OpKind::Evaluate, 2);
        b.seconds_per_worker = vec![0.1, 0.1];
        t.regions.push(a);
        t.regions.push(b);
        assert!(t.has_seconds());
        assert!((t.total_in(TraceUnit::Seconds) - 0.6).abs() < 1e-12);
        assert!((t.critical_path_in(TraceUnit::Seconds) - 0.4).abs() < 1e-12);
        assert!((t.overall_balance_in(TraceUnit::Seconds) - 0.6 / 0.8).abs() < 1e-12);
        assert_eq!(t.per_worker_total_in(TraceUnit::Seconds), vec![0.4, 0.2]);
        // The flops view of the same trace is empty and therefore neutral.
        assert_eq!(t.total_flops(), 0.0);
        assert!((t.overall_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masked_region_metrics_ignore_full_mask_regions() {
        let mut t = WorkTrace::new(2);
        // Full-mask region: perfectly balanced, must not enter masked stats.
        let mut full = RegionRecord::new(OpKind::Newview, 2);
        full.flops_per_worker = vec![10.0, 10.0];
        full.active_partitions = vec![true, true];
        // Masked region: all work on worker 0.
        let mut masked = RegionRecord::new(OpKind::Derivatives, 2);
        masked.flops_per_worker = vec![8.0, 0.0];
        masked.active_partitions = vec![true, false];
        masked.active_patterns_per_worker = vec![4.0, 0.0];
        // Unrecorded mask: counts as unmasked.
        let mut unknown = RegionRecord::new(OpKind::Evaluate, 2);
        unknown.flops_per_worker = vec![3.0, 3.0];

        assert!(!full.is_masked());
        assert!(masked.is_masked());
        assert!(!unknown.is_masked());

        t.regions.extend([full, masked, unknown]);
        assert_eq!(t.masked_region_count(), 1);
        assert!((t.masked_overall_balance_in(TraceUnit::Flops) - 0.5).abs() < 1e-12);
        assert_eq!(t.live_patterns_per_worker_total(), vec![4.0, 0.0]);
        // A trace with no masked regions is neutral.
        assert!(
            (WorkTrace::new(2).masked_overall_balance_in(TraceUnit::Flops) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn region_balance_per_unit() {
        let mut r = RegionRecord::new(OpKind::Derivatives, 4);
        r.seconds_per_worker = vec![0.4, 0.0, 0.0, 0.0];
        assert!((r.balance_in(TraceUnit::Seconds) - 0.25).abs() < 1e-12);
        assert!((r.balance_in(TraceUnit::Flops) - 1.0).abs() < 1e-12);
        assert_eq!(r.max_in(TraceUnit::Seconds), 0.4);
        assert_eq!(r.total_in(TraceUnit::Seconds), 0.4);
    }
}
