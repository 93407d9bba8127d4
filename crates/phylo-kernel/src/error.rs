//! The unified error type of the likelihood engine.
//!
//! Everything the engine can fail on — a parallel backend losing a worker, a
//! malformed tree operation, a reduction of mismatched output shapes, or an
//! engine assembled from parts that do not describe the same dataset — is a
//! [`KernelError`]. Drivers propagate it as a value instead of aborting the
//! analysis, which is what lets them *recover* from a worker death via the
//! reassignment path (see `phylo_sched::Reassignable`).

use phylo_tree::TreeError;

use crate::executor::ExecError;

/// Why a slice-level kernel primitive refused to run.
///
/// These are the *release-mode* guards of the numerical core: buffer shapes
/// and branch-length domains used to be checked with `debug_assert!` only, so
/// a release build would silently index mismatched CLV/scale/sumtable buffers
/// (e.g. a sum table left over from before a mid-round pattern migration
/// changed the local pattern count) or exponentiate a non-finite branch
/// length into NaN likelihoods. They now fail as typed values on every build
/// profile. An [`OpError`] is deterministic master-state misuse, not a worker
/// fault: executors surface it without poisoning themselves, and
/// [`KernelError::failed_worker`] reports `None` so drivers do not try to
/// "recover" by rebuilding healthy workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpError {
    /// A slice and its buffers disagree about the local pattern count (the
    /// mid-run migration hazard: stale buffers paired with migrated slices).
    SliceShape {
        /// Partition the slice belongs to.
        partition: usize,
        /// Local patterns the buffers were allocated for.
        buffer_patterns: usize,
        /// Local patterns the slice actually owns.
        slice_patterns: usize,
    },
    /// A CLV handed back to the buffer store has the wrong length.
    ClvShape {
        /// Node the CLV belongs to.
        node: usize,
        /// Expected length (`patterns × categories × states`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A scale-counter vector handed back to the buffer store has the wrong
    /// length.
    ScaleShape {
        /// Node the counters belong to.
        node: usize,
        /// Expected length (local pattern count).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// The branch sum table does not match the slice shape — it is missing,
    /// or stale from before a reassignment changed the local pattern count.
    /// Rebuild it with `build_sumtable` before asking for derivatives.
    SumtableStale {
        /// Expected length (`patterns × categories × states`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A branch length outside the kernel's domain (negative, NaN or
    /// infinite) reached a transition-matrix computation.
    InvalidBranchLength {
        /// The offending length.
        value: f64,
    },
    /// A shared-table payload does not cover the op it was attached to (e.g.
    /// a table list shorter than the traversal plan it should serve).
    TableShape {
        /// Partition whose tables are malformed.
        partition: usize,
        /// Entries the op needs.
        expected: usize,
        /// Entries the payload carries.
        got: usize,
    },
    /// A command's per-partition payload (an `Evaluate`/`Sumtable` mask, a
    /// `Derivatives` length list, a `Newview` plan list) does not have one
    /// entry per partition of the worker it reached. Checked once at the top
    /// of every `execute_on_worker` arm, for the same reason as
    /// [`OpError::TableShape`]: `Executor::execute` is a public seam, and an
    /// index panic there would kill and poison a healthy worker.
    MaskShape {
        /// Partitions the worker holds.
        expected: usize,
        /// Entries the payload carries.
        got: usize,
    },
    /// A shared table's dimensions do not match the slice it was applied to
    /// (e.g. tables built from another partition's model).
    TableDims {
        /// Partition the table was applied to.
        partition: usize,
        /// States × categories of the table.
        table: (usize, usize),
        /// States × categories of the slice's buffers.
        buffers: (usize, usize),
    },
    /// A kernel step asked for the CLV of an internal node that has not been
    /// computed yet — the traversal plan visited a parent before its child
    /// (or the buffers were cleared between the two visits).
    ClvMissing {
        /// The internal node whose CLV is absent.
        node: usize,
    },
    /// A kernel step asked for the scale counters of an internal node that
    /// has no CLV entry; same traversal-order hazard as [`OpError::ClvMissing`].
    ScaleMissing {
        /// The internal node whose scale counters are absent.
        node: usize,
    },
    /// A slice's buffers were allocated for a different alphabet or category
    /// count than the model the op runs under (buffers recycled across
    /// partitions without reallocation).
    BufferDims {
        /// Partition the op ran on.
        partition: usize,
        /// States × categories the op's model expects.
        expected: (usize, usize),
        /// States × categories the buffers were allocated for.
        got: (usize, usize),
    },
    /// A tip-lookup dictionary built for a different alphabet was handed to a
    /// table builder (dictionary states ≠ model states).
    DictStates {
        /// States of the model the tables are being built for.
        model: usize,
        /// States the dictionary was compiled for.
        dict: usize,
    },
    /// Two per-worker outputs of *different kinds* reached a reduction — an
    /// executor-implementation bug (e.g. one worker answered a Newview with
    /// log likelihoods), surfaced as a value instead of a master panic.
    ReduceMismatch {
        /// Output kind of the left (accumulated) operand.
        left: &'static str,
        /// Output kind of the right (incoming) operand.
        right: &'static str,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SliceShape {
                partition,
                buffer_patterns,
                slice_patterns,
            } => write!(
                f,
                "partition {partition}: buffers sized for {buffer_patterns} local patterns \
                 but the slice owns {slice_patterns} (stale buffers after a migration?)"
            ),
            Self::ClvShape {
                node,
                expected,
                got,
            } => write!(
                f,
                "CLV of node {node} has length {got}, expected {expected}"
            ),
            Self::ScaleShape {
                node,
                expected,
                got,
            } => write!(
                f,
                "scale counters of node {node} have length {got}, expected {expected}"
            ),
            Self::SumtableStale { expected, got } => write!(
                f,
                "branch sum table has length {got}, expected {expected}; \
                 it is missing or stale (rebuild it with build_sumtable)"
            ),
            Self::InvalidBranchLength { value } => write!(
                f,
                "branch length {value} is outside the kernel's domain \
                 (must be finite and non-negative)"
            ),
            Self::TableShape {
                partition,
                expected,
                got,
            } => write!(
                f,
                "shared branch tables of partition {partition} carry {got} entries \
                 but the command needs {expected}"
            ),
            Self::MaskShape { expected, got } => write!(
                f,
                "the command's per-partition payload carries {got} entries \
                 but the worker holds {expected} partitions"
            ),
            Self::TableDims {
                partition,
                table,
                buffers,
            } => write!(
                f,
                "shared branch tables applied to partition {partition} have \
                 {}×{} states×categories but the buffers expect {}×{} \
                 (tables built from another partition's model?)",
                table.0, table.1, buffers.0, buffers.1
            ),
            Self::ClvMissing { node } => write!(
                f,
                "CLV of internal node {node} has not been computed \
                 (traversal order violated, or buffers cleared mid-plan)"
            ),
            Self::ScaleMissing { node } => write!(
                f,
                "scale counters of internal node {node} are missing \
                 (traversal order violated, or buffers cleared mid-plan)"
            ),
            Self::BufferDims {
                partition,
                expected,
                got,
            } => write!(
                f,
                "partition {partition}: buffers allocated for {}×{} \
                 states×categories but the op's model expects {}×{}",
                got.0, got.1, expected.0, expected.1
            ),
            Self::DictStates { model, dict } => write!(
                f,
                "tip-lookup dictionary compiled for {dict} states handed to a \
                 table builder for a {model}-state model"
            ),
            Self::ReduceMismatch { left, right } => write!(
                f,
                "cannot reduce outputs of different kinds: {left} vs {right} \
                 (executor-implementation bug)"
            ),
        }
    }
}

impl std::error::Error for OpError {}

/// Why a likelihood-engine operation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The execution backend failed (a worker died, or the executor is
    /// poisoned by an earlier death).
    Exec(ExecError),
    /// A slice-level kernel primitive rejected its inputs (mismatched buffer
    /// shapes, a stale sum table, an out-of-domain branch length) — the
    /// release-mode soundness guards of the numerical core, surfaced as
    /// values whether they trip on the master (while issuing table slots or
    /// validating candidate lengths) or inside a worker (building a slot's
    /// tables, running a kernel).
    Op(OpError),
    /// A tree operation failed (invalid SPR move, malformed topology).
    Tree(TreeError),
    /// A command's reduced output was not of the kind the caller expected —
    /// an executor-implementation bug surfaced as a value.
    OutputMismatch {
        /// The output kind the caller asked for.
        expected: &'static str,
        /// The output kind the executor actually produced.
        got: &'static str,
    },
    /// The tree's taxa do not match the dataset's taxa (same names, same
    /// order required).
    TaxaMismatch,
    /// The model set covers a different number of partitions than the
    /// dataset.
    ModelCountMismatch {
        /// Models supplied.
        models: usize,
        /// Partitions in the dataset.
        partitions: usize,
    },
    /// The tree is not a fully resolved unrooted binary tree.
    IncompleteTree,
    /// A per-partition argument vector has the wrong length.
    PartitionCountMismatch {
        /// Partitions in the dataset.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
}

impl KernelError {
    /// The worker index involved when the error is a backend failure
    /// ([`ExecError::WorkerDied`] or [`ExecError::Poisoned`]); `None` for
    /// every other error. Drivers use this to decide whether a failed round
    /// is recoverable by rebuilding the workers.
    pub fn failed_worker(&self) -> Option<usize> {
        match self {
            KernelError::Exec(ExecError::WorkerDied { worker })
            | KernelError::Exec(ExecError::Poisoned { worker }) => Some(*worker),
            _ => None,
        }
    }
}

impl From<ExecError> for KernelError {
    fn from(e: ExecError) -> Self {
        match e {
            // A kernel-primitive rejection is deterministic master-state
            // misuse, not a backend failure: flatten it so drivers see one
            // `KernelError::Op` regardless of which side of the channel the
            // guard tripped on.
            ExecError::Op(op) => KernelError::Op(op),
            other => KernelError::Exec(other),
        }
    }
}

impl From<OpError> for KernelError {
    fn from(e: OpError) -> Self {
        KernelError::Op(e)
    }
}

impl From<TreeError> for KernelError {
    fn from(e: TreeError) -> Self {
        KernelError::Tree(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exec(e) => write!(f, "execution backend failed: {e}"),
            Self::Op(e) => write!(f, "kernel primitive rejected its inputs: {e}"),
            Self::Tree(e) => write!(f, "tree operation failed: {e}"),
            Self::OutputMismatch { expected, got } => {
                write!(f, "expected a {expected} output, got {got}")
            }
            Self::TaxaMismatch => {
                write!(f, "tree taxa must match alignment taxa (same order)")
            }
            Self::ModelCountMismatch { models, partitions } => write!(
                f,
                "one model per partition required: {models} models for {partitions} partitions"
            ),
            Self::IncompleteTree => write!(f, "the tree must be fully resolved"),
            Self::PartitionCountMismatch { expected, got } => write!(
                f,
                "per-partition argument covers {got} partitions but the dataset has {expected}"
            ),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Exec(e) => Some(e),
            Self::Op(e) => Some(e),
            Self::Tree(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_parameters() {
        let e = KernelError::from(ExecError::WorkerDied { worker: 3 });
        assert!(e.to_string().contains('3'), "{e}");
        assert_eq!(e.failed_worker(), Some(3));
        let e = KernelError::from(ExecError::Poisoned { worker: 1 });
        assert_eq!(e.failed_worker(), Some(1));
        let e = KernelError::OutputMismatch {
            expected: "log-likelihood",
            got: "derivative",
        };
        assert!(e.to_string().contains("log-likelihood"), "{e}");
        assert_eq!(e.failed_worker(), None);
        let e = KernelError::ModelCountMismatch {
            models: 2,
            partitions: 5,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('5'));
        assert!(!KernelError::TaxaMismatch.to_string().is_empty());
        assert!(!KernelError::IncompleteTree.to_string().is_empty());
        let e = KernelError::PartitionCountMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains('4'), "{e}");
    }

    #[test]
    fn tree_errors_convert() {
        let e = KernelError::from(TreeError::Invalid("bad".into()));
        assert!(matches!(e, KernelError::Tree(_)));
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn op_errors_flatten_and_are_not_worker_failures() {
        let op = OpError::SumtableStale {
            expected: 96,
            got: 0,
        };
        // Worker-side (through ExecError) and master-side (direct) paths
        // converge on the same flattened variant.
        let via_exec = KernelError::from(ExecError::Op(op));
        let direct = KernelError::from(op);
        assert_eq!(via_exec, direct);
        assert!(matches!(via_exec, KernelError::Op(_)));
        // Deterministic misuse: never recoverable by rebuilding workers.
        assert_eq!(via_exec.failed_worker(), None);
        assert!(via_exec.to_string().contains("sum table"));
    }

    #[test]
    fn op_errors_render_their_parameters() {
        let cases: Vec<(OpError, &str)> = vec![
            (
                OpError::SliceShape {
                    partition: 2,
                    buffer_patterns: 10,
                    slice_patterns: 7,
                },
                "partition 2",
            ),
            (
                OpError::ClvShape {
                    node: 5,
                    expected: 48,
                    got: 12,
                },
                "node 5",
            ),
            (
                OpError::ScaleShape {
                    node: 9,
                    expected: 3,
                    got: 4,
                },
                "node 9",
            ),
            (OpError::InvalidBranchLength { value: -0.5 }, "-0.5"),
            (OpError::ClvMissing { node: 11 }, "node 11"),
            (OpError::ScaleMissing { node: 12 }, "node 12"),
            (
                OpError::BufferDims {
                    partition: 3,
                    expected: (20, 4),
                    got: (4, 4),
                },
                "partition 3",
            ),
            (OpError::DictStates { model: 20, dict: 4 }, "20"),
            (
                OpError::ReduceMismatch {
                    left: "none",
                    right: "log-likelihoods",
                },
                "log-likelihoods",
            ),
            (
                OpError::TableShape {
                    partition: 1,
                    expected: 4,
                    got: 2,
                },
                "partition 1",
            ),
            (
                OpError::MaskShape {
                    expected: 5,
                    got: 7,
                },
                "7 entries",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
