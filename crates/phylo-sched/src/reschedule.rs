//! Mid-run rescheduling from live measurements.
//!
//! A schedule built up front — even a cost-aware one — cannot know how fast
//! each worker actually runs: cores get throttled, co-scheduled or NUMA-
//! penalized, and the analytic cost model mis-ranks some patterns. The
//! [`Rescheduler`] closes the loop: it watches the *live* [`WorkTrace`] a
//! timed executor accumulates, and once the measured per-worker imbalance
//! crosses a threshold (and enough regions have been observed to trust the
//! measurement), it produces a fresh [`Assignment`] via the speed-aware LPT
//! strategy. The driver then migrates pattern→worker ownership by rebuilding
//! the executor's worker slices — the [`Reassignable`] capability — and the
//! run continues with bit-identical likelihood semantics (only summation
//! order changes, so log likelihoods agree to ≤ 1e-8).
//!
//! The mask-aware policy owns its measurement window here too: which recent
//! masked regions it reads, how they are decay-weighted, and which
//! partitions they vote live.

use crate::assignment::{worker_imbalance, Assignment};
use crate::cost::PatternCosts;
use crate::error::SchedError;
use crate::strategy::{ScheduleStrategy, SpeedAwareLpt};
use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{RegionRecord, TraceUnit, WorkTrace};

/// An execution backend whose pattern→worker ownership can be migrated
/// mid-run.
///
/// Implemented by the shard executors (`ThreadedExecutor`, `TracingExecutor`,
/// `SessionExecutor`), beside their types. After [`Reassignable::reassign`]
/// the workers own fresh (empty) CLV buffers, so the caller **must**
/// invalidate the master-side CLV validity cache before the next likelihood
/// evaluation.
pub trait Reassignable {
    /// The assignment the current workers were built from.
    fn assignment(&self) -> &Assignment;

    /// The live trace accumulated since construction or the last
    /// [`Reassignable::take_trace`]/[`Reassignable::reassign`].
    fn live_trace(&self) -> &WorkTrace;

    /// Takes the accumulated trace, leaving an empty one behind.
    fn take_trace(&mut self) -> WorkTrace;

    /// Rebuilds the worker slices under a new assignment and resets the
    /// trace (the old epoch measured the old ownership).
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for
    /// a different dataset.
    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError>;
}

/// When the [`Rescheduler`] acts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReschedulePolicy {
    /// Minimum measured imbalance (max/mean per-worker total, 1.0 = perfect)
    /// before a reschedule is considered worthwhile.
    pub imbalance_threshold: f64,
    /// Minimum number of recorded regions before the measurement is trusted
    /// (and between consecutive decisions, since a reschedule resets the
    /// trace epoch). The mask-aware path also uses it as the width of the
    /// recent-region window it measures over.
    pub min_regions: usize,
    /// Which per-worker measurement drives the decision. Real runs use
    /// [`TraceUnit::Seconds`]; virtual (tracing) runs use
    /// [`TraceUnit::Flops`].
    pub unit: TraceUnit,
    /// Upper bound on the number of reschedules per run (each one pays a
    /// full CLV recomputation).
    pub max_reschedules: usize,
    /// React to the convergence-mask shape *within* a driver round: the
    /// decision is driven by the **live-cost imbalance** of the recent
    /// *masked* regions (not the whole epoch's total-cost imbalance), and a
    /// triggered repack levels every partition individually across the
    /// workers — live partitions first — so the live phase, later mask
    /// shapes and the full mask all come out balanced. Drivers consult a
    /// mask-aware rescheduler between branches, not only between rounds.
    pub mask_aware: bool,
}

/// Per-region decay of the mask-aware measurement window: the most recent
/// masked region weighs `1`, the one before it `MASK_DECAY`, then
/// `MASK_DECAY²`, … Both the per-worker live-cost totals and the
/// partition-liveness vote use these weights, so the rescheduler tracks the
/// *current* convergence-mask shape instead of an equal-weight union of the
/// window (where one stale region keeps a long-dead partition "live" for a
/// whole window).
pub const MASK_DECAY: f64 = 0.85;

/// A partition stays in the mask-aware live set while the decayed weight of
/// the window regions whose mask included it is at least this fraction of
/// the window's total decayed weight.
pub const MASK_LIVENESS_CUTOFF: f64 = 0.05;

impl Default for ReschedulePolicy {
    fn default() -> Self {
        Self {
            imbalance_threshold: 1.15,
            min_regions: 32,
            unit: TraceUnit::Seconds,
            max_reschedules: 2,
            mask_aware: false,
        }
    }
}

/// A positive decision: the new assignment plus the measurement that
/// justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct RescheduleDecision {
    /// The fresh assignment to migrate to.
    pub assignment: Assignment,
    /// Measured per-worker totals (in the policy's unit) that triggered the
    /// decision.
    pub measured: Vec<f64>,
    /// Measured imbalance (max/mean) of those totals.
    pub measured_imbalance: f64,
    /// Estimated per-worker speeds the new assignment packs against.
    pub speeds: Vec<f64>,
}

/// Decides, from a live trace, whether to migrate pattern ownership — and to
/// what.
#[derive(Debug, Clone)]
pub struct Rescheduler {
    policy: ReschedulePolicy,
    decisions: usize,
    telemetry: phylo_telemetry::Telemetry,
}

impl Rescheduler {
    /// A rescheduler with the given policy.
    pub fn new(policy: ReschedulePolicy) -> Self {
        Self {
            policy,
            decisions: 0,
            telemetry: phylo_telemetry::Telemetry::disabled(),
        }
    }

    /// A rescheduler that counts every [`Rescheduler::consider`] call on
    /// the given recorder (`reschedules_considered`); the positive decisions
    /// themselves are recorded by the driver, which knows the optimizer
    /// round they fall in.
    pub fn with_telemetry(
        policy: ReschedulePolicy,
        telemetry: &phylo_telemetry::Telemetry,
    ) -> Self {
        Self {
            policy,
            decisions: 0,
            telemetry: telemetry.clone(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &ReschedulePolicy {
        &self.policy
    }

    /// Number of positive decisions made so far.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Considers the live trace of a run under `current`. Returns
    /// `Ok(None)` when the policy says to stay put (too few regions,
    /// imbalance under threshold, decision budget exhausted, or the
    /// re-pack reproduces the current owner map).
    ///
    /// The policy selects the measurement and the repack. A plain policy
    /// triggers on the whole epoch's per-worker totals and re-packs with
    /// [`SpeedAwareLpt`]; `ranges` is not read. A
    /// [`ReschedulePolicy::mask_aware`] policy is driven by the *live-cost*
    /// imbalance: the measurement window is the last
    /// [`ReschedulePolicy::min_regions`] **masked** regions (partial
    /// convergence masks — full-mask regions balance almost any schedule
    /// and would dilute the signal), decay-weighted by recency
    /// ([`MASK_DECAY`]) so the current mask shape dominates; the same
    /// decayed weights vote on which partitions are still live (cutoff
    /// [`MASK_LIVENESS_CUTOFF`]). When the window's per-worker imbalance
    /// crosses the threshold, every partition is re-levelled individually
    /// across the workers — live partitions first, assuming uniform worker
    /// speeds — which balances the live phase, later mask shapes and the
    /// full mask at once.
    ///
    /// `ranges` gives each partition's global pattern range; together they
    /// tile the index space (start at 0, consecutive, ascending).
    ///
    /// # Errors
    ///
    /// Under either policy, whether or not the measurement would trigger:
    /// [`SchedError::TraceWorkerMismatch`] if the trace and `current`
    /// disagree on the worker count, [`SchedError::PatternCountMismatch`] if
    /// `base` covers a different number of patterns than `current`. A
    /// mask-aware policy also rejects `ranges` that do not tile the index
    /// space ([`SchedError::InvalidPartitionRanges`]) or cover a different
    /// number of patterns ([`SchedError::PatternCountMismatch`]).
    pub fn consider(
        &mut self,
        current: &Assignment,
        trace: &WorkTrace,
        base: &PatternCosts,
        ranges: &[std::ops::Range<usize>],
    ) -> Result<Option<RescheduleDecision>, SchedError> {
        self.telemetry.reschedule_considered();
        if trace.workers != current.worker_count() {
            return Err(SchedError::TraceWorkerMismatch {
                trace_workers: trace.workers,
                assignment_workers: current.worker_count(),
            });
        }
        if base.pattern_count() != current.pattern_count() {
            return Err(SchedError::PatternCountMismatch {
                expected: current.pattern_count(),
                got: base.pattern_count(),
            });
        }
        if self.policy.mask_aware {
            self.consider_masked(current, trace, base, ranges)
        } else {
            self.consider_totals(current, trace, base)
        }
    }

    fn consider_totals(
        &mut self,
        current: &Assignment,
        trace: &WorkTrace,
        base: &PatternCosts,
    ) -> Result<Option<RescheduleDecision>, SchedError> {
        if self.decisions >= self.policy.max_reschedules {
            return Ok(None);
        }
        if trace.sync_events() < self.policy.min_regions {
            return Ok(None);
        }
        let measured = trace.per_worker_total_in(self.policy.unit);
        let measured_imbalance = worker_imbalance(&measured);
        if measured_imbalance <= self.policy.imbalance_threshold {
            return Ok(None);
        }
        let strategy = SpeedAwareLpt::from_trace(current, trace, self.policy.unit, base)?;
        let assignment = strategy.assign(base, current.worker_count())?;
        if assignment.owner() == current.owner() {
            return Ok(None);
        }
        self.decisions += 1;
        Ok(Some(RescheduleDecision {
            assignment,
            measured,
            measured_imbalance,
            speeds: strategy.speeds().to_vec(),
        }))
    }

    fn consider_masked(
        &mut self,
        current: &Assignment,
        trace: &WorkTrace,
        base: &PatternCosts,
        ranges: &[std::ops::Range<usize>],
    ) -> Result<Option<RescheduleDecision>, SchedError> {
        check_partition_ranges(ranges, current.pattern_count())?;
        if self.decisions >= self.policy.max_reschedules {
            return Ok(None);
        }
        // The live measurement is taken over *masked* regions only: full-
        // mask regions balance almost any schedule and would dilute the
        // phase imbalance the mask-aware policy is after.
        let window = self.policy.min_regions;
        if trace.masked_region_count() < window {
            return Ok(None);
        }
        let measured = decayed_worker_totals(trace, self.policy.unit, window, MASK_DECAY);
        let measured_imbalance = worker_imbalance(&measured);
        if measured_imbalance <= self.policy.imbalance_threshold {
            return Ok(None);
        }
        let active = decayed_live_partitions(trace, window, MASK_DECAY, MASK_LIVENESS_CUTOFF)
            .filter(|a| a.len() == ranges.len())
            .unwrap_or_else(|| vec![true; ranges.len()]);
        let any_live = ranges
            .iter()
            .enumerate()
            .any(|(p, r)| active[p] && !r.is_empty());
        if !any_live {
            return Ok(None);
        }

        // Re-pack *every* partition with `level_partition`, live partitions
        // first. Levelling each partition individually onto the currently
        // least-loaded workers rotates the per-partition surpluses across
        // different workers, so every mask shape — the live window's, later
        // phases', and the full mask — comes out balanced at once.
        // (Moving only the live patterns cannot do that: whenever the full
        // mask is balanced *because* the partitions' skews cancel, any live
        // placement that fixes the live phase must un-balance the totals
        // unless the dead patterns move too. The executor rebuilds every
        // worker slice on migration anyway, so moving everything costs
        // nothing extra.) The pack assumes uniform worker speeds: the masked
        // window mixes different mask shapes, which makes per-worker speed
        // ratios estimated from it unreliable (a worker whose live-union
        // patterns were inactive in most window regions measures little and
        // would be mistaken for a fast core). Worker-intrinsic slowness is
        // the *plain* policy's business (`consider_totals` via
        // `SpeedAwareLpt`).
        let worker_count = current.worker_count();
        let mut owner = current.owner().to_vec();
        let mut loads = vec![0.0f64; worker_count];
        let part_cost =
            |r: &std::ops::Range<usize>| -> f64 { r.clone().map(|g| base.cost(g)).sum() };
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by(|&a, &b| {
            // Live before dead; within each class, heaviest first.
            active[b]
                .cmp(&active[a])
                .then(part_cost(&ranges[b]).total_cmp(&part_cost(&ranges[a])))
                .then(a.cmp(&b))
        });
        for p in order {
            level_partition(ranges[p].clone(), base, &mut loads, &mut owner);
        }
        if owner == current.owner() {
            return Ok(None);
        }
        let assignment = Assignment::new("mask-aware-lpt", owner, worker_count, base)?;
        self.decisions += 1;
        Ok(Some(RescheduleDecision {
            assignment,
            measured,
            measured_imbalance,
            // The mask-aware pack is speed-oblivious by design (see above).
            speeds: vec![1.0; worker_count],
        }))
    }
}

/// Validates that partition ranges tile `0..pattern_count`: start at 0,
/// consecutive, ascending, and covering every pattern.
fn check_partition_ranges(
    ranges: &[std::ops::Range<usize>],
    pattern_count: usize,
) -> Result<(), SchedError> {
    let mut covered = 0usize;
    for (index, range) in ranges.iter().enumerate() {
        if range.start != covered || range.end < range.start {
            return Err(SchedError::InvalidPartitionRanges { index });
        }
        covered = range.end;
    }
    if covered != pattern_count {
        return Err(SchedError::PatternCountMismatch {
            expected: pattern_count,
            got: covered,
        });
    }
    Ok(())
}

/// The mask-aware repack's per-partition levelling: cuts `range` into at
/// most one contiguous chunk per worker, filling the currently least-loaded
/// workers up to the fair level (overshooting by at most half the next
/// pattern's cost — round to nearest) and giving the last worker whatever is
/// left. Updates `loads` and writes the owners into `owner`.
fn level_partition(
    range: std::ops::Range<usize>,
    costs: &PatternCosts,
    loads: &mut [f64],
    owner: &mut [usize],
) {
    let worker_count = loads.len();
    let mut remaining: f64 = costs.as_slice()[range.clone()].iter().sum();
    // Workers in ascending current-load order (ties by index): the
    // least-loaded worker takes the partition's first chunk.
    let mut by_load: Vec<usize> = (0..worker_count).collect();
    by_load.sort_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
    let mut cursor = range.start;
    for (k, &w) in by_load.iter().enumerate() {
        if cursor >= range.end {
            break;
        }
        if k + 1 == worker_count {
            // The last worker takes whatever is left.
            for (g, o) in owner.iter_mut().enumerate().take(range.end).skip(cursor) {
                *o = w;
                loads[w] += costs.cost(g);
            }
            break;
        }
        // Fair final level among the workers not yet filled for this
        // partition; fill `w` up to it.
        let pool: f64 = by_load[k..].iter().map(|&x| loads[x]).sum::<f64>() + remaining;
        let level = pool / (worker_count - k) as f64;
        while cursor < range.end {
            let c = costs.cost(cursor);
            if loads[w] + c <= level + c / 2.0 {
                owner[cursor] = w;
                loads[w] += c;
                remaining -= c;
                cursor += 1;
            } else {
                break;
            }
        }
    }
}

/// The last `window` *masked* regions (see [`RegionRecord::is_masked`]),
/// oldest first, each with its recency weight: the most recent weighs `1`,
/// the one before it `decay`, then `decay²` and so on — the oldPAR-like
/// phases the mask-aware policy measures over. Full-mask regions (which
/// balance almost any schedule and would dilute the live measurement) are
/// skipped. `decay = 1.0` is the plain equal-weight window; smaller values
/// track the *current* convergence-mask shape instead of averaging over
/// stale phases.
fn masked_window(trace: &WorkTrace, window: usize, decay: f64) -> Vec<(f64, &RegionRecord)> {
    let mut recent: Vec<&RegionRecord> = trace
        .regions
        .iter()
        .rev()
        .filter(|r| r.is_masked())
        .take(window)
        .collect();
    recent.reverse();
    let newest = recent.len().saturating_sub(1);
    recent
        .into_iter()
        .enumerate()
        .map(|(i, region)| (decay.powi((newest - i) as i32), region))
        .collect()
}

/// Per-worker totals in `unit` over the decay-weighted [`masked_window`].
fn decayed_worker_totals(
    trace: &WorkTrace,
    unit: TraceUnit,
    window: usize,
    decay: f64,
) -> Vec<f64> {
    let mut totals = vec![0.0; trace.workers];
    for (weight, region) in masked_window(trace, window, decay) {
        for (w, &v) in region.per_worker(unit).iter().enumerate() {
            totals[w] += weight * v;
        }
    }
    totals
}

/// Decay-weighted partition liveness over the [`masked_window`]: partition
/// `p` counts as live when the decayed weight of the regions whose mask
/// included it is at least `cutoff` of the window's total decayed weight.
/// With `decay = 1.0` and `cutoff = 0.0` this is the union of the window's
/// masks; a positive cutoff additionally drops partitions that were live
/// only in the oldest, almost-forgotten regions of the window. `None` when
/// there is no masked region.
fn decayed_live_partitions(
    trace: &WorkTrace,
    window: usize,
    decay: f64,
    cutoff: f64,
) -> Option<Vec<bool>> {
    let recent = masked_window(trace, window, decay);
    let partitions = recent.first()?.1.active_partitions.len();
    let mut live_weight = vec![0.0f64; partitions];
    let mut total_weight = 0.0f64;
    for (weight, region) in recent {
        total_weight += weight;
        if region.active_partitions.len() != partitions {
            continue;
        }
        for (p, &active) in region.active_partitions.iter().enumerate() {
            if active {
                live_weight[p] += weight;
            }
        }
    }
    if total_weight <= 0.0 {
        return Some(vec![true; partitions]);
    }
    Some(
        live_weight
            .iter()
            .map(|&w| w / total_weight >= cutoff && w > 0.0)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Cyclic;
    use phylo_kernel::cost::OpKind;

    fn skewed_trace(workers: usize, regions: usize, skew: f64) -> WorkTrace {
        let mut t = WorkTrace::new(workers);
        for _ in 0..regions {
            let mut r = RegionRecord::new(OpKind::Newview, workers);
            r.seconds_per_worker = vec![1.0; workers];
            r.seconds_per_worker[0] = skew;
            t.regions.push(r);
        }
        t
    }

    fn policy() -> ReschedulePolicy {
        ReschedulePolicy {
            imbalance_threshold: 1.2,
            min_regions: 4,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: false,
        }
    }

    #[test]
    fn too_few_regions_means_no_decision() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let mut r = Rescheduler::new(policy());
        let trace = skewed_trace(4, 2, 5.0);
        assert_eq!(r.consider(&prior, &trace, &costs, &[]).unwrap(), None);
        assert_eq!(r.decisions(), 0);
    }

    #[test]
    fn balanced_trace_means_no_decision() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let mut r = Rescheduler::new(policy());
        let trace = skewed_trace(4, 10, 1.0);
        assert_eq!(r.consider(&prior, &trace, &costs, &[]).unwrap(), None);
    }

    #[test]
    fn skewed_trace_triggers_a_speed_aware_repack() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let mut r = Rescheduler::new(policy());
        let trace = skewed_trace(4, 10, 4.0);
        let decision = r.consider(&prior, &trace, &costs, &[]).unwrap().unwrap();
        assert!(decision.measured_imbalance > 2.0);
        let counts = decision.assignment.patterns_per_worker();
        assert!(
            counts[0] < counts[1],
            "slow worker must shed patterns: {counts:?}"
        );
        assert_eq!(r.decisions(), 1);
        // The budget (max_reschedules = 1) is now exhausted.
        assert_eq!(r.consider(&prior, &trace, &costs, &[]).unwrap(), None);
    }

    /// Shape validation does not depend on the measurement: a trace of the
    /// wrong width and base costs of the wrong length are typed errors under
    /// both policies, also with a threshold no imbalance crosses.
    #[test]
    fn mismatched_shapes_are_errors() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        for (imbalance_threshold, mask_aware) in [(1.2, false), (f64::MAX, false), (f64::MAX, true)]
        {
            let mut r = Rescheduler::new(ReschedulePolicy {
                imbalance_threshold,
                mask_aware,
                ..policy()
            });
            let case = format!("threshold {imbalance_threshold:e}, mask_aware {mask_aware}");
            assert_eq!(
                r.consider(&prior, &skewed_trace(3, 10, 4.0), &costs, &[]),
                Err(SchedError::TraceWorkerMismatch {
                    trace_workers: 3,
                    assignment_workers: 4
                }),
                "{case}"
            );
            let short = PatternCosts::uniform(7);
            assert_eq!(
                r.consider(&prior, &skewed_trace(4, 10, 4.0), &short, &[]),
                Err(SchedError::PatternCountMismatch {
                    expected: 40,
                    got: 7
                }),
                "{case}"
            );
        }
    }

    /// A trace whose recent window shows all live work of one partition on
    /// worker 0: the early (full-mask, balanced) regions must not dilute the
    /// live measurement.
    fn staggered_trace(workers: usize) -> WorkTrace {
        let mut t = WorkTrace::new(workers);
        for _ in 0..8 {
            let mut r = RegionRecord::new(OpKind::Newview, workers);
            r.seconds_per_worker = vec![1.0; workers];
            r.active_partitions = vec![true, true];
            t.regions.push(r);
        }
        for _ in 0..4 {
            let mut r = RegionRecord::new(OpKind::Derivatives, workers);
            // Only partition 1 is live, and all of its patterns sit on
            // worker 0 under the prior placement.
            r.seconds_per_worker = vec![1.0, 0.0, 0.0, 0.0];
            r.active_partitions = vec![false, true];
            t.regions.push(r);
        }
        t
    }

    #[test]
    fn mask_aware_triggers_on_live_imbalance_invisible_to_totals() {
        let costs = PatternCosts::uniform(40);
        // Partition 1 = patterns 20..40, all owned by worker 0.
        let owner: Vec<usize> = (0..40).map(|g| if g < 20 { g % 4 } else { 0 }).collect();
        let prior = Assignment::new("manual", owner, 4, &costs).unwrap();
        let trace = staggered_trace(4);
        let ranges = [0..20, 20..40];

        // The whole-epoch totals are mildly imbalanced (12s vs 8s = 1.33);
        // the live window is maximally imbalanced (4.0).
        let mut masked = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 2.0,
            min_regions: 4,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: true,
        });
        let decision = masked
            .consider(&prior, &trace, &costs, &ranges)
            .unwrap()
            .expect("live imbalance 4.0 crosses the 2.0 threshold");
        assert!(decision.measured_imbalance > 3.9);
        // The repack spreads partition 1's patterns off worker 0...
        let live_counts: Vec<usize> = (0..4)
            .map(|w| {
                (20..40)
                    .filter(|&g| decision.assignment.worker_of(g) == w)
                    .count()
            })
            .collect();
        assert!(
            live_counts[0] < 20,
            "live patterns must leave worker 0: {live_counts:?}"
        );
        // The repack levels per partition, so each worker's share of each
        // partition stays one contiguous run and the totals stay balanced.
        assert!(decision.assignment.partition_contiguity(&ranges));
        assert!(decision.assignment.imbalance() < 1.2);
        assert_eq!(decision.assignment.strategy(), "mask-aware-lpt");

        // The plain (total-cost) rescheduler with the same threshold sees
        // only the diluted 1.33 and stays put.
        let mut plain = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 2.0,
            min_regions: 4,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: false,
        });
        assert_eq!(plain.consider(&prior, &trace, &costs, &[]).unwrap(), None);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn mask_aware_validates_ranges_and_shapes() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let trace = staggered_trace(4);
        let mut r = Rescheduler::new(ReschedulePolicy {
            mask_aware: true,
            ..policy()
        });
        assert!(matches!(
            r.consider(&prior, &trace, &costs, &[5..40]).unwrap_err(),
            SchedError::InvalidPartitionRanges { index: 0 }
        ));
        assert!(matches!(
            r.consider(&prior, &trace, &costs, &[0..20, 20..39])
                .unwrap_err(),
            SchedError::PatternCountMismatch { .. }
        ));
        let short_trace = staggered_trace(3);
        assert!(matches!(
            r.consider(&prior, &short_trace, &costs, &[0..20, 20..40])
                .unwrap_err(),
            SchedError::TraceWorkerMismatch { .. }
        ));
    }

    #[test]
    fn mask_aware_respects_budget_and_thresholds() {
        let costs = PatternCosts::uniform(40);
        let owner: Vec<usize> = (0..40).map(|g| if g < 20 { g % 4 } else { 0 }).collect();
        let prior = Assignment::new("manual", owner, 4, &costs).unwrap();
        let ranges = [0..20, 20..40];
        let trace = staggered_trace(4);
        let mut r = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 2.0,
            min_regions: 4,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: true,
        });
        assert!(r
            .consider(&prior, &trace, &costs, &ranges)
            .unwrap()
            .is_some());
        // Budget exhausted.
        assert_eq!(r.consider(&prior, &trace, &costs, &ranges).unwrap(), None);
        // Too few regions.
        let mut fresh = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 2.0,
            min_regions: 64,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: true,
        });
        assert_eq!(
            fresh.consider(&prior, &trace, &costs, &ranges).unwrap(),
            None
        );
    }

    /// Two old masked regions hammer worker 0, six recent ones are balanced:
    /// the skew is stale. An equal-weight window over the same eight regions
    /// sees imbalance 1.75 and would migrate at a 1.6 threshold; the decayed
    /// window (1.43) knows the current shape is fine and stays put.
    #[test]
    fn decay_discounts_stale_skew_the_union_window_acts_on() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let ranges = [0..20, 20..40];
        let mut trace = WorkTrace::new(4);
        for _ in 0..2 {
            let mut r = RegionRecord::new(OpKind::Derivatives, 4);
            r.seconds_per_worker = vec![4.0, 0.0, 0.0, 0.0];
            r.active_partitions = vec![true, false];
            trace.regions.push(r);
        }
        for _ in 0..6 {
            let mut r = RegionRecord::new(OpKind::Derivatives, 4);
            r.seconds_per_worker = vec![1.0, 1.0, 1.0, 1.0];
            r.active_partitions = vec![false, true];
            trace.regions.push(r);
        }
        let policy = ReschedulePolicy {
            imbalance_threshold: 1.6,
            min_regions: 8,
            unit: TraceUnit::Seconds,
            max_reschedules: 1,
            mask_aware: true,
        };
        // Every region is masked, so the epoch totals are the equal-weight
        // window over the same eight regions.
        let equal_weight = worker_imbalance(&trace.per_worker_total_in(TraceUnit::Seconds));
        assert!(equal_weight > policy.imbalance_threshold, "{equal_weight}");
        let mut decayed = Rescheduler::new(policy);
        assert_eq!(
            decayed.consider(&prior, &trace, &costs, &ranges).unwrap(),
            None,
            "decay discounts the stale skew; the current shape is balanced"
        );
        // The same window with the skew in the *recent* regions does act.
        trace.regions.reverse();
        assert!(decayed
            .consider(&prior, &trace, &costs, &ranges)
            .unwrap()
            .is_some());
    }

    #[test]
    fn an_untimed_trace_never_triggers() {
        // A trace with only FLOP data has zero second totals → imbalance is
        // 1.0 by convention → no decision under the seconds unit.
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let mut trace = WorkTrace::new(4);
        for _ in 0..10 {
            let mut reg = RegionRecord::new(OpKind::Newview, 4);
            reg.flops_per_worker = vec![40.0, 10.0, 10.0, 10.0];
            trace.regions.push(reg);
        }
        let mut r = Rescheduler::new(policy());
        assert_eq!(r.consider(&prior, &trace, &costs, &[]).unwrap(), None);
    }

    #[test]
    fn window_helpers_see_only_the_recent_regions() {
        let mut t = WorkTrace::new(2);
        let mut early = RegionRecord::new(OpKind::Newview, 2);
        early.flops_per_worker = vec![100.0, 100.0];
        early.active_partitions = vec![true, true];
        let mut late = RegionRecord::new(OpKind::Derivatives, 2);
        late.flops_per_worker = vec![5.0, 1.0];
        late.active_partitions = vec![false, true];
        t.regions.push(early);
        t.regions.push(late.clone());
        t.regions.push(late);

        // The masked window skips the balanced full-mask region entirely.
        for window in [2, 10] {
            assert_eq!(
                decayed_worker_totals(&t, TraceUnit::Flops, window, 1.0),
                vec![10.0, 2.0]
            );
        }
        assert_eq!(
            decayed_live_partitions(&t, 2, 1.0, 0.0),
            Some(vec![false, true])
        );
        assert_eq!(masked_window(&t, 10, 1.0).len(), 2);
        // No masked regions → None.
        let mut bare = WorkTrace::new(2);
        bare.regions.push(RegionRecord::new(OpKind::Newview, 2));
        assert_eq!(decayed_live_partitions(&bare, 5, 1.0, 0.0), None);
    }

    #[test]
    fn decayed_window_weights_recent_regions_more() {
        let mut t = WorkTrace::new(2);
        let mut old = RegionRecord::new(OpKind::Newview, 2);
        old.flops_per_worker = vec![8.0, 0.0];
        old.active_partitions = vec![true, false];
        let mut new = RegionRecord::new(OpKind::Derivatives, 2);
        new.flops_per_worker = vec![0.0, 8.0];
        new.active_partitions = vec![false, true];
        t.regions.push(old);
        t.regions.push(new);

        // decay = 1.0 is the plain equal-weight window.
        assert_eq!(
            decayed_worker_totals(&t, TraceUnit::Flops, 2, 1.0),
            vec![8.0, 8.0]
        );
        // decay = 0.5: the newest region weighs 1, the older one 0.5.
        assert_eq!(
            decayed_worker_totals(&t, TraceUnit::Flops, 2, 0.5),
            vec![4.0, 8.0]
        );
        // Liveness vote at decay 0.5: the old region holds 1/3 of the weight,
        // so a 0.05 cutoff keeps partition 0 while a 0.4 cutoff drops it.
        assert_eq!(
            decayed_live_partitions(&t, 2, 0.5, 0.05),
            Some(vec![true, true])
        );
        assert_eq!(
            decayed_live_partitions(&t, 2, 0.5, 0.4),
            Some(vec![false, true])
        );
        // No masked regions → None.
        assert_eq!(
            decayed_live_partitions(&WorkTrace::new(2), 4, 0.5, 0.05),
            None
        );
    }

    #[test]
    fn decayed_liveness_forgets_a_stale_partition_the_union_keeps() {
        // One ancient region with partition 0 live, then eleven regions where
        // only partition 1 is live: the equal-weight union (decay 1.0, cutoff
        // 0.0) keeps partition 0 "live" for the whole window, while the
        // decayed vote (decay 0.5, cutoff 0.05) has long forgotten it.
        let mut t = WorkTrace::new(2);
        let mut stale = RegionRecord::new(OpKind::Newview, 2);
        stale.flops_per_worker = vec![4.0, 0.0];
        stale.active_partitions = vec![true, false];
        t.regions.push(stale);
        for _ in 0..11 {
            let mut r = RegionRecord::new(OpKind::Derivatives, 2);
            r.flops_per_worker = vec![0.0, 4.0];
            r.active_partitions = vec![false, true];
            t.regions.push(r);
        }
        assert_eq!(
            decayed_live_partitions(&t, 12, 1.0, 0.0),
            Some(vec![true, true])
        );
        assert_eq!(
            decayed_live_partitions(&t, 12, 0.5, 0.05),
            Some(vec![false, true])
        );
    }
}
