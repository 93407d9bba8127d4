//! Generators for the paper's evaluation datasets.
//!
//! Every dataset of Section V is described by a [`DatasetSpec`] carrying the
//! *dimensions* that drive the load-balance behaviour (taxon count, column
//! count, number and lengths of partitions, data type, gappyness) plus a seed.
//! [`DatasetSpec::generate`] produces the actual alignment (via the Seq-Gen
//! substitute), the fixed input tree, and the compiled pattern structure the
//! kernel consumes.
//!
//! Two families are provided:
//!
//! * [`paper_simulated`] — the d10…d100 × 5,000…50,000 datasets with the
//!   p1000/p5000/p10000 partition schemes,
//! * [`paper_real_world`] — synthetic stand-ins for the three collaborator
//!   alignments (r125_19839, r26_21451, r24_16916) matching their published
//!   dimensions (see DESIGN.md §4 for the substitution rationale).

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use phylo_data::{Alignment, DataType, Partition, PartitionSet, PartitionedPatterns};
use phylo_models::{PartitionModel, SubstitutionModel};
use phylo_tree::random::random_tree_with_lengths;
use phylo_tree::Tree;

use crate::simulate::{simulate_alignment, SimulationConfig};

/// Description of a dataset to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name following the paper's convention (e.g.
    /// `d50_50000_p1000`, `r125_19839`).
    pub name: String,
    /// Number of taxa.
    pub taxa: usize,
    /// Per-partition column counts; the total column count is their sum.
    pub partition_columns: Vec<usize>,
    /// Default data type of the partitions.
    pub data_type: DataType,
    /// Partition indices simulated (and compiled) as 20-state protein data
    /// regardless of [`DatasetSpec::data_type`] — the mixed DNA/protein
    /// workloads whose per-pattern cost skew (protein ≈25× DNA in `newview`)
    /// drives the cost-aware scheduling strategies.
    pub protein_partitions: Vec<usize>,
    /// Fraction of taxa missing (all-gap) per partition — the "data holes" of
    /// gappy phylogenomic alignments.
    pub missing_taxa_fraction: f64,
    /// RNG seed; the same spec always generates the same dataset.
    pub seed: u64,
}

/// The three real-world datasets of the paper, reproduced synthetically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealWorldKind {
    /// `r125_19839`: 125 mammalian DNA sequences, 34 partitions of 148–2,705
    /// patterns.
    Mammal125,
    /// `r26_21451`: 26 viral protein sequences, 26 partitions.
    Viral26,
    /// `r24_16916`: 24 viral protein sequences, 20 partitions.
    Viral24,
}

/// A generated dataset: alignment, fixed input tree and compiled patterns.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The spec this dataset was generated from.
    pub spec: DatasetSpec,
    /// The fixed input tree (used "for reproducibility", as in the paper).
    pub tree: Tree,
    /// The raw alignment.
    pub alignment: Alignment,
    /// The partition definition.
    pub partition_set: PartitionSet,
    /// The compiled, pattern-compressed view used by the kernel.
    pub patterns: Arc<PartitionedPatterns>,
}

/// Builds the spec of a simulated dataset `d{taxa}_{columns}` partitioned into
/// consecutive genes of `partition_len` columns (the paper's pZZZZ schemes).
pub fn paper_simulated(
    taxa: usize,
    columns: usize,
    partition_len: usize,
    seed: u64,
) -> DatasetSpec {
    assert!(
        partition_len > 0 && columns >= partition_len,
        "invalid partition scheme"
    );
    let mut partition_columns = Vec::new();
    let mut remaining = columns;
    while remaining > 0 {
        let len = remaining.min(partition_len);
        partition_columns.push(len);
        remaining -= len;
    }
    DatasetSpec {
        name: format!("d{taxa}_{columns}_p{partition_len}"),
        taxa,
        partition_columns,
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.0,
        seed,
    }
}

/// Builds the spec of a mixed DNA/protein dataset: `dna_partitions` DNA genes
/// followed by `protein_partitions` protein genes, each `partition_len`
/// columns wide. The protein block at the end makes the layout maximally
/// hostile to contiguous (block) pattern distribution while the ≈25× per
/// pattern cost skew defeats any count-based scheme — the workload the
/// cost-aware scheduler exists for.
pub fn mixed_dna_protein(
    taxa: usize,
    dna_partitions: usize,
    protein_partitions: usize,
    partition_len: usize,
    seed: u64,
) -> DatasetSpec {
    assert!(
        dna_partitions > 0 && protein_partitions > 0 && partition_len > 0,
        "a mixed dataset needs both data types and non-empty partitions"
    );
    let total = dna_partitions + protein_partitions;
    DatasetSpec {
        name: format!("mixed_d{dna_partitions}_p{protein_partitions}_{partition_len}"),
        taxa,
        partition_columns: vec![partition_len; total],
        data_type: DataType::Dna,
        protein_partitions: (dna_partitions..total).collect(),
        missing_taxa_fraction: 0.0,
        seed,
    }
}

/// Builds the spec of a DNA dataset whose partitions converge at staggered
/// rates because their gene lengths differ 5×: long genes (lots of data,
/// sharp likelihoods) converge their Newton streams quickly, the short
/// genes' flat likelihoods keep iterating. Late in every branch's Newton
/// stream only the slow partitions stay live, so the cyclic placement's
/// balance over the *live* set — not over the totals — determines the
/// measured imbalance.
pub fn staggered_convergence(seed: u64) -> DatasetSpec {
    // Twelve pairs of one 40-column and one 8-column DNA gene. With 16
    // workers the cyclic arithmetic works out as follows: each pair is 48
    // patterns ≡ 0 (mod 16), so every long gene starts at an offset ≡ 0 —
    // its 8 surplus patterns (40 = 2·16 + 8) always land on workers 0–7 —
    // and every short gene starts at an offset ≡ 8, landing *entirely* on
    // workers 8–15. Under the full mask the two effects cancel exactly
    // (every worker owns 3 patterns per pair), so the totals are balanced
    // and a total-cost (between-round) rescheduler has nothing to fix. But
    // the gene lengths differ 5×, so the partitions converge at staggered
    // rates — the short genes' flat likelihoods keep their Newton streams
    // alive longest — and the late, partial convergence masks are heavily
    // skewed: short-gene phases run entirely on workers 8–15 (measured
    // imbalance 2.0) while long-gene phases overload workers 0–7. Only a
    // mask-aware, within-round repack can react to that shape.
    DatasetSpec {
        name: "staggered_pairs_40x8".to_string(),
        taxa: 8,
        partition_columns: [40, 8].repeat(12),
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.0,
        seed,
    }
}

/// Builds the spec of one of the synthetic real-world stand-ins.
pub fn paper_real_world(kind: RealWorldKind) -> DatasetSpec {
    let mut rng = ChaCha8Rng::seed_from_u64(match kind {
        RealWorldKind::Mammal125 => 125,
        RealWorldKind::Viral26 => 26,
        RealWorldKind::Viral24 => 24,
    });
    match kind {
        RealWorldKind::Mammal125 => DatasetSpec {
            name: "r125_19839".into(),
            taxa: 125,
            partition_columns: partition_lengths(19_839, 34, 148, 2_705, &mut rng),
            data_type: DataType::Dna,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.25,
            seed: 125,
        },
        RealWorldKind::Viral26 => DatasetSpec {
            name: "r26_21451".into(),
            taxa: 26,
            partition_columns: partition_lengths(21_451, 26, 173, 2_695, &mut rng),
            data_type: DataType::Protein,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.2,
            seed: 26,
        },
        RealWorldKind::Viral24 => DatasetSpec {
            name: "r24_16916".into(),
            taxa: 24,
            partition_columns: partition_lengths(16_916, 20, 173, 2_695, &mut rng),
            data_type: DataType::Protein,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.2,
            seed: 24,
        },
    }
}

/// Draws `count` partition lengths in `[min, max]` that sum exactly to
/// `total`, with at least one partition at (or near) each extreme — matching
/// how the paper reports its real-world datasets (min and max partition
/// lengths are given explicitly).
pub fn partition_lengths<R: Rng>(
    total: usize,
    count: usize,
    min: usize,
    max: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(count >= 2, "need at least two partitions");
    assert!(
        min * count <= total && total <= max * count,
        "infeasible length constraints"
    );
    let mut lengths = vec![min; count];
    // Pin the extremes.
    lengths[1] = max;
    let mut remaining = total - lengths.iter().sum::<usize>();

    // Distribute the remainder with exponential-ish random weights, capped at
    // the per-partition headroom, iterating until everything is placed.
    let mut guard = 0;
    while remaining > 0 {
        guard += 1;
        assert!(
            guard < 10_000,
            "partition length distribution failed to converge"
        );
        // Partition 0 stays pinned at the minimum and partition 1 at the
        // maximum, so the reported extremes always match the spec.
        let weights: Vec<f64> = (0..count)
            .map(|i| {
                if i == 0 || lengths[i] >= max {
                    0.0
                } else {
                    -rng.gen_range(f64::EPSILON..1.0f64).ln()
                }
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        if weight_sum == 0.0 {
            break;
        }
        let before = remaining;
        for i in 0..count {
            if remaining == 0 {
                break;
            }
            let headroom = max - lengths[i];
            let share = ((weights[i] / weight_sum) * before as f64).floor() as usize;
            let add = share.min(headroom).min(remaining);
            lengths[i] += add;
            remaining -= add;
        }
        // Guarantee progress for tiny residuals.
        if remaining > 0 {
            for len in lengths.iter_mut().skip(2) {
                if remaining == 0 {
                    break;
                }
                if *len < max {
                    *len += 1;
                    remaining -= 1;
                }
            }
        }
    }
    assert_eq!(lengths.iter().sum::<usize>(), total);
    lengths
}

impl DatasetSpec {
    /// Total number of alignment columns.
    pub fn total_columns(&self) -> usize {
        self.partition_columns.iter().sum()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partition_columns.len()
    }

    /// Data type of partition `pi` (honours the protein overrides).
    pub fn partition_data_type(&self, pi: usize) -> DataType {
        if self.protein_partitions.contains(&pi) {
            DataType::Protein
        } else {
            self.data_type
        }
    }

    /// Returns a proportionally scaled-down copy of the spec (same number of
    /// partitions, same taxa, `factor` times the columns — at least 8 columns
    /// per partition). Used by tests and by the default bench configuration so
    /// the paper's workload *shape* is preserved at laptop scale.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let partition_columns: Vec<usize> = self
            .partition_columns
            .iter()
            .map(|&c| ((c as f64 * factor).round() as usize).max(8))
            .collect();
        DatasetSpec {
            name: format!("{}_scaled", self.name),
            partition_columns,
            ..self.clone()
        }
    }

    /// Generates the dataset: fixed input tree, per-partition simulation with
    /// partition-specific model parameters (each gene gets its own α and GTR
    /// rates, which is what makes the per-partition optimizers converge after
    /// *different* numbers of iterations — the root cause of the load-balance
    /// problem), and the compiled pattern structure.
    pub fn generate(&self) -> GeneratedDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let names: Vec<String> = (0..self.taxa).map(|i| format!("taxon_{i}")).collect();
        let tree = random_tree_with_lengths(&names, 0.08, &mut rng);

        // Simulate each partition with its own parameters.
        let mut rows: Vec<(String, String)> =
            names.iter().map(|n| (n.clone(), String::new())).collect();
        for (pi, &cols) in self.partition_columns.iter().enumerate() {
            let model = simulation_model(self.partition_data_type(pi), &mut rng);
            let config = SimulationConfig {
                columns: cols,
                missing_taxa_fraction: self.missing_taxa_fraction,
                enforce_unique_columns: self.missing_taxa_fraction == 0.0,
            };
            let part_aln = simulate_alignment(&tree, &model, &config, &mut rng);
            for (taxon, row) in rows.iter_mut().enumerate() {
                row.1
                    .push_str(&String::from_utf8_lossy(part_aln.row(taxon)));
            }
        }
        let alignment = Alignment::new(rows).expect("simulated alignment is rectangular");
        let mut parts = Vec::with_capacity(self.partition_count());
        let mut start = 0usize;
        for (pi, &len) in self.partition_columns.iter().enumerate() {
            parts.push(Partition::contiguous(
                &format!("p{pi}"),
                self.partition_data_type(pi),
                start..start + len,
            ));
            start += len;
        }
        let partition_set = PartitionSet::new(parts).expect("spec has at least one partition");
        let patterns = Arc::new(
            PartitionedPatterns::compile(&alignment, &partition_set)
                .expect("generated partitions always cover the alignment"),
        );
        GeneratedDataset {
            spec: self.clone(),
            tree,
            alignment,
            partition_set,
            patterns,
        }
    }
}

/// The simulation model for one partition of `data_type`: parameters are
/// drawn per partition, so per-partition estimates genuinely differ (which is
/// what makes the per-partition optimizers converge after *different* numbers
/// of iterations — the root cause of the load-balance problem).
fn simulation_model<R: Rng>(data_type: DataType, rng: &mut R) -> PartitionModel {
    let alpha = rng.gen_range(0.3..1.6);
    match data_type {
        DataType::Dna => {
            let rates = [
                rng.gen_range(0.5..2.0),
                rng.gen_range(1.5..4.0),
                rng.gen_range(0.5..2.0),
                rng.gen_range(0.5..2.0),
                rng.gen_range(1.5..4.0),
                1.0,
            ];
            let mut freqs = [
                rng.gen_range(0.15..0.35),
                rng.gen_range(0.15..0.35),
                rng.gen_range(0.15..0.35),
                rng.gen_range(0.15..0.35),
            ];
            let sum: f64 = freqs.iter().sum();
            for f in &mut freqs {
                *f /= sum;
            }
            PartitionModel::new(SubstitutionModel::gtr(rates, freqs), alpha, 4)
        }
        DataType::Protein => {
            PartitionModel::new(SubstitutionModel::synthetic_empirical_protein(), alpha, 4)
        }
    }
}

impl GeneratedDataset {
    /// Convenience accessor: number of distinct patterns across partitions.
    pub fn total_patterns(&self) -> usize {
        self.patterns.total_patterns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_spec_matches_paper_naming_and_sizes() {
        let spec = paper_simulated(50, 50_000, 1_000, 1);
        assert_eq!(spec.name, "d50_50000_p1000");
        assert_eq!(spec.partition_count(), 50);
        assert_eq!(spec.total_columns(), 50_000);
        assert!(spec.partition_columns.iter().all(|&c| c == 1_000));

        let spec = paper_simulated(10, 5_000, 5_000, 1);
        assert_eq!(spec.partition_count(), 1);
    }

    #[test]
    fn real_world_specs_match_published_dimensions() {
        let mammal = paper_real_world(RealWorldKind::Mammal125);
        assert_eq!(mammal.taxa, 125);
        assert_eq!(mammal.partition_count(), 34);
        assert_eq!(mammal.total_columns(), 19_839);
        assert_eq!(*mammal.partition_columns.iter().min().unwrap(), 148);
        assert_eq!(*mammal.partition_columns.iter().max().unwrap(), 2_705);
        assert_eq!(mammal.data_type, DataType::Dna);

        let v26 = paper_real_world(RealWorldKind::Viral26);
        assert_eq!(v26.taxa, 26);
        assert_eq!(v26.partition_count(), 26);
        assert_eq!(v26.total_columns(), 21_451);
        assert_eq!(v26.data_type, DataType::Protein);

        let v24 = paper_real_world(RealWorldKind::Viral24);
        assert_eq!(v24.taxa, 24);
        assert_eq!(v24.partition_count(), 20);
        assert_eq!(v24.total_columns(), 16_916);
    }

    #[test]
    fn partition_lengths_respect_constraints() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5 {
            let lengths = partition_lengths(10_000, 12, 100, 3_000, &mut rng);
            assert_eq!(lengths.len(), 12);
            assert_eq!(lengths.iter().sum::<usize>(), 10_000);
            assert!(lengths.iter().all(|&l| (100..=3_000).contains(&l)));
            assert!(lengths.contains(&100));
            assert!(lengths.contains(&3_000));
        }
    }

    #[test]
    fn scaled_spec_preserves_partition_count() {
        let spec = paper_simulated(50, 50_000, 1_000, 1).scaled(0.01);
        assert_eq!(spec.partition_count(), 50);
        assert!(spec.total_columns() < 1_000);
        assert!(spec.partition_columns.iter().all(|&c| c >= 8));
    }

    #[test]
    fn generation_produces_consistent_dataset() {
        let spec = paper_simulated(10, 600, 100, 42).scaled(1.0);
        let ds = spec.generate();
        assert_eq!(ds.alignment.taxa_count(), 10);
        assert_eq!(ds.alignment.columns(), spec.total_columns());
        assert_eq!(ds.patterns.partition_count(), spec.partition_count());
        assert_eq!(ds.tree.n_taxa(), 10);
        assert!(ds.tree.validate().is_ok());
        assert!(ds.total_patterns() > 0);
        assert!(ds.total_patterns() <= spec.total_columns());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = paper_simulated(8, 200, 50, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.alignment, b.alignment);
        assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn gappy_real_world_dataset_has_holes() {
        let spec = DatasetSpec {
            name: "mini_gappy".into(),
            taxa: 20,
            partition_columns: vec![40, 60, 30],
            data_type: DataType::Dna,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.3,
            seed: 9,
        };
        let ds = spec.generate();
        assert!(ds.alignment.gappyness() > 0.05, "expected data holes");
        // Compilation succeeded despite gap-only rows within partitions.
        assert_eq!(ds.patterns.partition_count(), 3);
    }

    #[test]
    fn mixed_dataset_has_both_data_types() {
        let spec = mixed_dna_protein(6, 3, 2, 40, 11);
        assert_eq!(spec.partition_count(), 5);
        assert_eq!(spec.partition_data_type(0), DataType::Dna);
        assert_eq!(spec.partition_data_type(3), DataType::Protein);
        let ds = spec.generate();
        assert_eq!(ds.patterns.partition_count(), 5);
        assert_eq!(ds.patterns.partitions[2].data_type, DataType::Dna);
        assert_eq!(ds.patterns.partitions[4].data_type, DataType::Protein);
        assert_eq!(ds.patterns.partitions[4].states(), 20);
        // Deterministic like every other spec.
        let again = mixed_dna_protein(6, 3, 2, 40, 11).generate();
        assert_eq!(ds.alignment, again.alignment);
    }

    #[test]
    fn protein_dataset_generates() {
        let spec = DatasetSpec {
            name: "mini_protein".into(),
            taxa: 6,
            partition_columns: vec![30, 20],
            data_type: DataType::Protein,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.0,
            seed: 5,
        };
        let ds = spec.generate();
        assert_eq!(ds.patterns.partitions[0].data_type, DataType::Protein);
        assert_eq!(ds.patterns.partitions[0].states(), 20);
    }
}
