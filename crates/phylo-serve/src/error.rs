//! Typed errors of the serving layer.

use phylo_kernel::KernelError;
use phylo_optimize::OptimizeError;
use phylo_sched::SchedError;

/// Why the pool refused to admit a session. Overload is a *value*, not a
/// panic: callers decide whether to retry, queue elsewhere or shed load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pool already serves its configured maximum of live sessions.
    PoolFull {
        /// Sessions currently admitted (registered and not yet removed).
        active: usize,
        /// The configured admission bound
        /// ([`crate::TenantStrategy::max_sessions`]).
        capacity: usize,
    },
    /// A fair-share weight of zero would starve the session forever.
    ZeroWeight,
    /// An injected worker fault names a worker outside the pool's width; a
    /// fault that can never fire would make a chaos drill silently test
    /// nothing.
    FaultWorkerOutOfRange {
        /// The fault's worker index.
        worker: usize,
        /// The pool's width.
        worker_count: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PoolFull { active, capacity } => write!(
                f,
                "session pool is full ({active} active sessions, capacity {capacity})"
            ),
            Self::ZeroWeight => write!(f, "a session weight of zero would never be scheduled"),
            Self::FaultWorkerOutOfRange {
                worker,
                worker_count,
            } => write!(
                f,
                "injected fault targets worker {worker}, outside 0..{worker_count}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a serving operation could not be completed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The pool declined to admit the session (overload, a bad weight or an
    /// injected fault outside the pool).
    Admission(AdmissionError),
    /// The likelihood engine failed while building or running the session
    /// (mismatched models/taxa at build time, or an execution failure beyond
    /// the worker-recovery budget at run time).
    Kernel(KernelError),
    /// The scheduling layer rejected the session's workload description.
    Sched(SchedError),
    /// The session's driver ended without reporting an outcome.
    PoolDown,
    /// The session's driver thread itself panicked — a bug in the driver,
    /// distinct from a *worker* panic, which is recovered.
    SessionPanicked,
}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}

impl From<KernelError> for ServeError {
    fn from(e: KernelError) -> Self {
        ServeError::Kernel(e)
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Sched(e)
    }
}

impl From<OptimizeError> for ServeError {
    fn from(e: OptimizeError) -> Self {
        match e {
            OptimizeError::Kernel(e) => ServeError::Kernel(e),
            OptimizeError::Sched(e) => ServeError::Sched(e),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Admission(e) => write!(f, "{e}"),
            Self::Kernel(e) => write!(f, "{e}"),
            Self::Sched(e) => write!(f, "{e}"),
            Self::PoolDown => write!(f, "the session pool has shut down"),
            Self::SessionPanicked => write!(f, "the session driver thread panicked"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Admission(e) => Some(e),
            Self::Kernel(e) => Some(e),
            Self::Sched(e) => Some(e),
            Self::PoolDown | Self::SessionPanicked => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_errors_render_their_bounds() {
        let e = AdmissionError::PoolFull {
            active: 3,
            capacity: 3,
        };
        assert!(e.to_string().contains("3 active"));
        assert!(AdmissionError::ZeroWeight.to_string().contains("zero"));
        let e = AdmissionError::FaultWorkerOutOfRange {
            worker: 5,
            worker_count: 2,
        };
        assert!(e.to_string().contains("worker 5") && e.to_string().contains("0..2"));
    }

    #[test]
    fn optimize_errors_fold_into_serve_errors() {
        let e = ServeError::from(OptimizeError::Sched(SchedError::NoWorkers));
        assert_eq!(e, ServeError::Sched(SchedError::NoWorkers));
        assert!(ServeError::PoolDown.to_string().contains("shut down"));
    }
}
