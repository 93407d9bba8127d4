//! Sequence simulation and evaluation-dataset generation.
//!
//! The paper evaluates on (a) twelve simulated DNA alignments generated with
//! Seq-Gen on seed trees of 10–100 taxa with 5,000–50,000 columns, partitioned
//! into 1,000/5,000/10,000-column genes, and (b) three real-world phylogenomic
//! alignments provided by collaborators. Neither Seq-Gen output nor the
//! real alignments are available here, so this crate provides:
//!
//! * [`simulate`] — a Seq-Gen substitute that evolves sequences along a tree
//!   under the same model class (GTR/protein + discrete Γ), sampling every
//!   column from transition matrices built once per (rate category, branch),
//! * [`datasets`] — generators that reproduce the *dimensions* of every
//!   dataset in the paper (taxon counts, column counts, partition schemes,
//!   data types, per-partition length ranges, gappyness), which are the only
//!   properties that matter for the load-balance study.
//!
//! Everything is seeded and deterministic: the same spec generates the same
//! bytes, and `tests/digests.rs` pins a digest of every benchmark-shaped
//! dataset, so a change to this crate or to `phylo-models` that moves a
//! generated bit fails there first.
//!
//! ```
//! use phylo_seqgen::datasets::paper_simulated;
//!
//! // d8_100 partitioned into 50-column genes, simulated on a random tree.
//! let spec = paper_simulated(8, 100, 50, 42);
//! assert_eq!(spec.partition_count(), 2);
//! let dataset = spec.generate();
//! assert_eq!(dataset.patterns.taxa.len(), 8);
//! assert!(dataset.patterns.total_patterns() > 0);
//! // Same spec, same seed → identical dataset.
//! let again = paper_simulated(8, 100, 50, 42).generate();
//! assert_eq!(again.patterns.total_patterns(), dataset.patterns.total_patterns());
//! ```

#![forbid(unsafe_code)]

pub mod datasets;
pub mod simulate;

pub use datasets::{
    paper_real_world, paper_simulated, staggered_convergence, DatasetSpec, GeneratedDataset,
    RealWorldKind,
};
pub use simulate::{simulate_alignment, SimulationConfig};
