//! Error type for the scheduling subsystem.
//!
//! The pre-subsystem code path panicked on degenerate inputs (a bare
//! `assert!(worker_count > 0)` in `build_workers`); every such condition is
//! now a documented, recoverable error.

/// Why a schedule could not be produced or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A per-pattern cost is NaN, infinite or negative. Such costs would make
    /// the greedy pack order arbitrary (comparisons with NaN are
    /// unordered), so they are rejected at construction.
    InvalidCost {
        /// Global pattern index carrying the bad cost.
        pattern: usize,
        /// The offending value.
        value: f64,
    },
    /// A measured per-worker speed is NaN, infinite or non-positive.
    InvalidSpeed {
        /// Worker index carrying the bad speed.
        worker: usize,
        /// The offending value.
        value: f64,
    },
    /// The partition ranges handed to the mask-aware rescheduler do not tile
    /// the global pattern index space: they must start at 0, be consecutive
    /// (each range starts where the previous one ended) and ascending.
    InvalidPartitionRanges {
        /// Index of the first offending range.
        index: usize,
    },
    /// A schedule for zero workers was requested.
    NoWorkers,
    /// The workload has no patterns to distribute.
    EmptyWorkload,
    /// An owner map's length does not match the workload's pattern count.
    PatternCountMismatch {
        /// Patterns in the workload.
        expected: usize,
        /// Entries in the owner map.
        got: usize,
    },
    /// An owner map names a worker outside `0..worker_count`.
    WorkerOutOfRange {
        /// Global pattern index with the bad owner.
        pattern: usize,
        /// The out-of-range worker index.
        worker: usize,
        /// Number of workers the assignment was built for.
        worker_count: usize,
    },
    /// An artificial worker skew names a worker outside the executor's
    /// range; a silently unskewed experiment would be worse than an error.
    SkewWorkerOutOfRange {
        /// The configured skew's worker index.
        worker: usize,
        /// Number of workers the executor actually has.
        worker_count: usize,
    },
    /// A rescheduling run finished without the executor recording a
    /// single trace region — the measurement path is not enabled (e.g. a
    /// `ThreadedExecutor` built without `ExecutorOptions { timed: true }`),
    /// so mid-run rescheduling silently could never trigger.
    NoMeasurements,
    /// A measured trace was recorded for a different worker count than the
    /// assignment it is supposed to correct.
    TraceWorkerMismatch {
        /// Workers in the measured trace.
        trace_workers: usize,
        /// Workers in the prior assignment.
        assignment_workers: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidCost { pattern, value } => write!(
                f,
                "pattern {pattern} has invalid cost {value}; costs must be finite and non-negative"
            ),
            Self::InvalidSpeed { worker, value } => write!(
                f,
                "worker {worker} has invalid speed {value}; speeds must be finite and positive"
            ),
            Self::InvalidPartitionRanges { index } => write!(
                f,
                "partition range {index} does not tile the global pattern index space \
                 (ranges must start at 0 and be consecutive)"
            ),
            Self::NoWorkers => write!(f, "at least one worker is required"),
            Self::SkewWorkerOutOfRange {
                worker,
                worker_count,
            } => write!(
                f,
                "worker skew targets worker {worker}, outside 0..{worker_count}"
            ),
            Self::NoMeasurements => write!(
                f,
                "the executor recorded no trace regions; build it with timing enabled \
                 (e.g. ExecutorOptions {{ timed: true }}) to drive adaptive rescheduling"
            ),
            Self::EmptyWorkload => write!(f, "the workload contains no patterns"),
            Self::PatternCountMismatch { expected, got } => {
                write!(f, "owner map covers {got} patterns but the workload has {expected}")
            }
            Self::WorkerOutOfRange { pattern, worker, worker_count } => write!(
                f,
                "pattern {pattern} is assigned to worker {worker}, outside 0..{worker_count}"
            ),
            Self::TraceWorkerMismatch { trace_workers, assignment_workers } => write!(
                f,
                "trace was recorded for {trace_workers} workers but the assignment has {assignment_workers}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_parameters() {
        let text = SchedError::PatternCountMismatch {
            expected: 10,
            got: 7,
        }
        .to_string();
        assert!(text.contains("10") && text.contains('7'), "{text}");
        let text = SchedError::WorkerOutOfRange {
            pattern: 3,
            worker: 9,
            worker_count: 4,
        }
        .to_string();
        assert!(
            text.contains("pattern 3") && text.contains("0..4"),
            "{text}"
        );
        assert!(!SchedError::NoWorkers.to_string().is_empty());
        assert!(!SchedError::EmptyWorkload.to_string().is_empty());
        let text = SchedError::InvalidCost {
            pattern: 5,
            value: f64::NAN,
        }
        .to_string();
        assert!(text.contains("pattern 5") && text.contains("NaN"), "{text}");
        let text = SchedError::InvalidSpeed {
            worker: 2,
            value: -1.0,
        }
        .to_string();
        assert!(text.contains("worker 2") && text.contains("-1"), "{text}");
    }
}
