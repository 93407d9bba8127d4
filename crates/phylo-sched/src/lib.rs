//! `phylo-sched` — pluggable, cost-aware scheduling of alignment patterns
//! onto workers.
//!
//! The paper's parallelization distributes the `m′` global alignment patterns
//! over `T` worker threads and pays one barrier per parallel region, so the
//! region's wall-clock time is set by the *most loaded* worker. Which patterns
//! land on which worker is therefore the load-balance lever, and this crate
//! turns that decision into a first-class, pluggable subsystem:
//!
//! * [`PatternCosts`] — a per-pattern cost vector.
//!   [`PatternCosts::analytic`] derives it from the kernel's analytic cost
//!   model ([`phylo_kernel::cost::newview_flops`], one function of the
//!   kernel dispatch): a 20-state protein pattern costs 21× (scalar) or
//!   ≈ 16.4× (blocked) a DNA pattern in `newview`, which is exactly why
//!   pattern *counts* alone are a poor balance proxy for mixed DNA/protein
//!   inputs.
//! * [`Assignment`] — an explicit pattern→worker map with the per-worker
//!   predicted cost, plus the imbalance metrics
//!   ([`Assignment::imbalance`], [`Assignment::max_cost`],
//!   [`Assignment::mean_cost`]) that `phylo-perfmodel` consumes.
//! * [`ScheduleStrategy`] — the strategy trait, with four implementations:
//!   [`Cyclic`] and [`Block`] (the paper's two schemes, reproduced
//!   bit-for-bit through the interface), [`WeightedLpt`]
//!   (longest-processing-time greedy bin-packing over the analytic costs)
//!   and [`SpeedAwareLpt`] (the measured-feedback strategy: LPT onto workers
//!   of unequal speed, the speeds estimated from a measured
//!   [`WorkTrace`](phylo_kernel::cost::WorkTrace)). A worker copies its
//!   patterns into dense per-partition buffers whatever their global
//!   indices, so besides the makespan a placement only changes how many
//!   partitions each worker touches (see [`Block`]).
//! * [`Rescheduler`] — mid-run rescheduling from live measurements through
//!   one entry, [`Rescheduler::consider`]; the policy selects between the
//!   total-cost trigger with a [`SpeedAwareLpt`] repack and the
//!   *mask-aware* mode ([`ReschedulePolicy::mask_aware`]) that reacts to the
//!   convergence-mask shape *within* a driver round: it triggers on the
//!   decay-weighted ([`reschedule::MASK_DECAY`]) live-cost imbalance of the recent
//!   partial-mask regions and re-levels every partition across the workers,
//!   so each worker's share of a partition stays one contiguous run
//!   ([`Assignment::partition_contiguity`]).
//!
//! The parallel backends in `phylo-parallel` consume an [`Assignment`] when
//! building their per-worker slices; see `phylo_parallel::build_workers`.
//!
//! ```
//! use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
//! use phylo_sched::{Cyclic, PatternCosts, ScheduleStrategy, WeightedLpt};
//!
//! let aln = Alignment::new(vec![
//!     ("t1".into(), "ACGTACGTAC".into()),
//!     ("t2".into(), "ACGAACGAAC".into()),
//! ]).unwrap();
//! let ps = PartitionSet::equal_length(DataType::Dna, 10, 5);
//! let patterns = PartitionedPatterns::compile(&aln, &ps).unwrap();
//! let costs = PatternCosts::analytic_tabled(&patterns, &[4, 4]);
//!
//! let cyclic = Cyclic.assign(&costs, 2).unwrap();
//! let lpt = WeightedLpt.assign(&costs, 2).unwrap();
//! assert!(lpt.max_cost() <= cyclic.max_cost() + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod assignment;
pub mod cost;
pub mod error;
pub mod reschedule;
pub mod strategy;

pub use assignment::{worker_imbalance, Assignment};
pub use cost::PatternCosts;
pub use error::SchedError;
pub use reschedule::{Reassignable, RescheduleDecision, ReschedulePolicy, Rescheduler};
pub use strategy::{Block, Cyclic, ScheduleStrategy, SpeedAwareLpt, WeightedLpt};
