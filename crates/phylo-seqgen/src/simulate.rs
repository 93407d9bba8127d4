//! Simulation of molecular sequences along a phylogenetic tree.
//!
//! The simulator plays the role of Seq-Gen in the paper's experimental setup:
//! given a tree with branch lengths and a substitution model with discrete Γ
//! rate heterogeneity, it draws a root state per column from the stationary
//! distribution, assigns each column a rate category, and evolves the states
//! along the branches using the model's transition probabilities.
//!
//! A partition has only `categories × branches` distinct transition matrices,
//! however many columns it simulates, so [`simulate_alignment`] builds them
//! all once, before the first column, into one per-(category, branch) table.
//! The table changes no generated byte. Each entry is the same function
//! (`transition_matrix_into`, bit-identical to the allocating
//! `transition_matrix`) of the same product `branch_length(b) * rates[c]`
//! that a per-draw matrix used to be. A column makes the same draws in the
//! same order: the category index, the root state, then one state per branch
//! in depth-first order, each sampled straight from a table row. The
//! committed dataset digests (`tests/digests.rs`) pin this.

use rand::Rng;

use phylo_data::Alignment;
use phylo_models::PartitionModel;
use phylo_tree::{BranchId, NodeId, Tree};

/// Configuration of one simulation run (one partition's worth of columns).
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of alignment columns to simulate.
    pub columns: usize,
    /// Fraction of taxa that are missing (all-gap) in this gene, emulating the
    /// "gappy" structure of phylogenomic alignments. 0.0 disables gaps.
    pub missing_taxa_fraction: f64,
    /// If true, re-draw duplicate columns (up to a bounded number of attempts)
    /// so that the alignment consists of unique columns only, as the paper's
    /// simulated datasets do (`m = m′`).
    pub enforce_unique_columns: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            columns: 1000,
            missing_taxa_fraction: 0.0,
            enforce_unique_columns: false,
        }
    }
}

/// Simulates an alignment along `tree` under `model`.
///
/// Returns the raw character alignment (taxon order = the tree's leaf order).
///
/// # Panics
///
/// Panics if `config.columns == 0` or the missing fraction is outside `[0, 1)`.
pub fn simulate_alignment<R: Rng>(
    tree: &Tree,
    model: &PartitionModel,
    config: &SimulationConfig,
    rng: &mut R,
) -> Alignment {
    assert!(config.columns > 0, "cannot simulate an empty alignment");
    assert!(
        (0.0..1.0).contains(&config.missing_taxa_fraction),
        "missing fraction must be in [0, 1)"
    );
    let n_taxa = tree.n_taxa();
    let data_type = model.data_type();

    // Which taxa are missing entirely (data holes).
    let missing: Vec<bool> = (0..n_taxa)
        .map(|_| rng.gen_bool(config.missing_taxa_fraction))
        .collect();
    // Never blank out everything: keep at least two taxa with data.
    let present = missing.iter().filter(|&&m| !m).count();
    let missing = if present < 2 {
        vec![false; n_taxa]
    } else {
        missing
    };

    let table = TransitionTable::build(tree, model);
    let freqs = model.substitution().frequencies();
    // Root the simulation at the internal node adjacent to leaf 0.
    let root: NodeId = tree.neighbors(0)[0].0;

    // Accepted columns, column-major: `columns[c * n_taxa + taxon]`.
    let mut columns: Vec<u8> = Vec::with_capacity(config.columns * n_taxa);
    let mut column = vec![0u8; n_taxa];
    let mut stack = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let max_attempts = config.columns * 20;
    let mut attempts = 0usize;
    while columns.len() < config.columns * n_taxa {
        attempts += 1;
        simulate_column(tree, &table, freqs, root, rng, &mut stack, &mut column);
        if config.enforce_unique_columns && attempts < max_attempts {
            if seen.contains(column.as_slice()) {
                continue;
            }
            seen.insert(column.clone());
        }
        columns.extend_from_slice(&column);
    }

    // Assemble rows.
    let rows: Vec<(String, Vec<u8>)> = (0..n_taxa)
        .map(|taxon| {
            let name = tree.taxon_name(taxon).to_string();
            let row: Vec<u8> = (0..config.columns)
                .map(|c| {
                    if missing[taxon] {
                        b'-'
                    } else {
                        data_type.state_char(columns[c * n_taxa + taxon] as usize) as u8
                    }
                })
                .collect();
            (name, row)
        })
        .collect();
    Alignment::from_bytes(rows).expect("simulated rows are rectangular by construction")
}

/// `P(t_b · r_c)` for every Γ category `c` and branch `b` of one partition
/// (the module doc states its bit contract).
struct TransitionTable {
    states: usize,
    branches: usize,
    categories: usize,
    /// Row-major `states × states` blocks, category-major then branch.
    entries: Vec<f64>,
}

impl TransitionTable {
    fn build(tree: &Tree, model: &PartitionModel) -> Self {
        let states = model.states();
        let lengths = tree.branch_lengths();
        let rates = model.gamma_rates();
        let eigen = model.substitution().eigen();
        let block = states * states;
        let mut entries = vec![0.0; rates.len() * lengths.len() * block];
        let times = rates
            .iter()
            .flat_map(|&rate| lengths.iter().map(move |&length| length * rate));
        for (t, out) in times.zip(entries.chunks_exact_mut(block)) {
            eigen.transition_matrix_into(t, out);
        }
        Self {
            states,
            branches: lengths.len(),
            categories: rates.len(),
            entries,
        }
    }

    /// Row `from` of `P(t_branch · r_category)`.
    fn row(&self, category: usize, branch: BranchId, from: usize) -> &[f64] {
        let start = ((category * self.branches + branch) * self.states + from) * self.states;
        &self.entries[start..start + self.states]
    }
}

/// Simulates a single column into `column` (the state index of every taxon).
///
/// The draws and their order are the interface: the rate category index,
/// the root state, then one state per branch in depth-first order.
fn simulate_column<R: Rng>(
    tree: &Tree,
    table: &TransitionTable,
    freqs: &[f64],
    root: NodeId,
    rng: &mut R,
    stack: &mut Vec<(NodeId, NodeId, usize)>, // (node, parent, node's state)
    column: &mut [u8],
) {
    // Per-column rate category (equal probability).
    let category = rng.gen_range(0..table.categories);
    let root_state = sample_distribution(freqs, rng);

    // Depth-first propagation from the root to every node.
    for &(child, branch) in tree.neighbors(root) {
        let child_state = sample_distribution(table.row(category, branch, root_state), rng);
        stack.push((child, root, child_state));
    }
    while let Some((node, parent, state)) = stack.pop() {
        if tree.is_leaf(node) {
            column[node] = state as u8;
            continue;
        }
        for &(child, branch) in tree.neighbors(node) {
            if child == parent {
                continue;
            }
            let child_state = sample_distribution(table.row(category, branch, state), rng);
            stack.push((child, node, child_state));
        }
    }
}

fn sample_distribution<R: Rng>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::DataType;
    use phylo_tree::random::random_tree_with_lengths;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tree(n: usize, mean_branch: f64, seed: u64) -> Tree {
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        random_tree_with_lengths(&names, mean_branch, &mut rng)
    }

    #[test]
    fn dimensions_and_determinism() {
        let t = tree(10, 0.1, 1);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 200,
            ..Default::default()
        };
        let mut rng1 = ChaCha8Rng::seed_from_u64(7);
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let a = simulate_alignment(&t, &model, &cfg, &mut rng1);
        let b = simulate_alignment(&t, &model, &cfg, &mut rng2);
        assert_eq!(a.taxa_count(), 10);
        assert_eq!(a.columns(), 200);
        assert_eq!(a, b, "simulation must be deterministic for a fixed seed");
    }

    #[test]
    fn short_branches_give_conserved_columns() {
        let t = tree(8, 0.001, 2);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 300,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        // With nearly zero branch lengths almost every column is constant.
        let constant = (0..aln.columns())
            .filter(|&c| {
                let first = aln.char_at(0, c);
                (0..aln.taxa_count()).all(|t| aln.char_at(t, c) == first)
            })
            .count();
        assert!(
            constant as f64 > 0.95 * aln.columns() as f64,
            "expected mostly constant columns, got {constant}/{}",
            aln.columns()
        );
    }

    #[test]
    fn long_branches_give_divergent_columns() {
        let t = tree(8, 2.0, 4);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 300,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        let constant = (0..aln.columns())
            .filter(|&c| {
                let first = aln.char_at(0, c);
                (0..aln.taxa_count()).all(|t| aln.char_at(t, c) == first)
            })
            .count();
        assert!(
            (constant as f64) < 0.3 * aln.columns() as f64,
            "expected mostly variable columns, got {constant}/{}",
            aln.columns()
        );
    }

    #[test]
    fn base_composition_roughly_matches_stationary_frequencies() {
        let t = tree(20, 0.2, 6);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 2000,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        let mut counts = [0usize; 4];
        for taxon in 0..aln.taxa_count() {
            for c in 0..aln.columns() {
                match aln.char_at(taxon, c) {
                    b'A' => counts[0] += 1,
                    b'C' => counts[1] += 1,
                    b'G' => counts[2] += 1,
                    b'T' => counts[3] += 1,
                    _ => {}
                }
            }
        }
        let total: usize = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / total as f64;
            let expected = model.substitution().frequencies()[i];
            assert!(
                (freq - expected).abs() < 0.05,
                "state {i}: simulated {freq} vs stationary {expected}"
            );
        }
    }

    #[test]
    fn unique_columns_are_enforced() {
        let t = tree(12, 0.3, 9);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 400,
            enforce_unique_columns: true,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        assert!(
            aln.all_columns_unique(),
            "columns must be unique when requested"
        );
    }

    #[test]
    fn missing_taxa_produce_gap_rows() {
        let t = tree(20, 0.1, 11);
        let model = PartitionModel::default_for(DataType::Dna);
        let cfg = SimulationConfig {
            columns: 100,
            missing_taxa_fraction: 0.4,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        let all_gap_rows = (0..aln.taxa_count())
            .filter(|&taxon| (0..aln.columns()).all(|c| aln.char_at(taxon, c) == b'-'))
            .count();
        assert!(all_gap_rows > 0, "expected some all-gap taxa");
        assert!(all_gap_rows < aln.taxa_count(), "some taxa must keep data");
        assert!(aln.gappyness() > 0.1);
    }

    #[test]
    fn protein_simulation_uses_amino_acid_alphabet() {
        let t = tree(6, 0.2, 13);
        let model = PartitionModel::default_for(DataType::Protein);
        let cfg = SimulationConfig {
            columns: 50,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let aln = simulate_alignment(&t, &model, &cfg, &mut rng);
        for taxon in 0..aln.taxa_count() {
            for c in 0..aln.columns() {
                let ch = aln.char_at(taxon, c) as char;
                assert!(
                    DataType::Protein.encode(ch).is_some(),
                    "invalid protein character {ch}"
                );
            }
        }
    }
}
