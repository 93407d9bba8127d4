//! Joint and per-partition branch-length storage.
//!
//! In a joint analysis all partitions share one branch-length vector; in a
//! per-partition analysis every partition owns an independent vector (this is
//! the model the paper argues for, and the one where the oldPAR scheme's load
//! imbalance is most severe). Both are stored per branch id, matching the
//! branch indexing of [`phylo_tree::Tree`].

use phylo_models::BranchLengthMode;
use phylo_tree::topology::{MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH};
use phylo_tree::{BranchId, Tree};

/// Branch lengths for all partitions of an analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchLengths {
    mode: BranchLengthMode,
    /// `lengths[partition][branch]`; in joint mode there is a single row that
    /// all partitions share.
    lengths: Vec<Vec<f64>>,
    partitions: usize,
}

impl BranchLengths {
    /// Initializes branch lengths from the tree's current lengths.
    pub fn from_tree(tree: &Tree, partitions: usize, mode: BranchLengthMode) -> Self {
        assert!(partitions > 0, "at least one partition required");
        let base: Vec<f64> = tree.branch_lengths().to_vec();
        let rows = match mode {
            BranchLengthMode::Joint => 1,
            BranchLengthMode::PerPartition => partitions,
        };
        Self {
            mode,
            lengths: vec![base; rows],
            partitions,
        }
    }

    /// The sharing mode.
    pub fn mode(&self) -> BranchLengthMode {
        self.mode
    }

    /// Number of partitions the storage serves.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of branches per partition.
    pub fn branch_count(&self) -> usize {
        self.lengths[0].len()
    }

    fn row(&self, partition: usize) -> usize {
        match self.mode {
            BranchLengthMode::Joint => 0,
            BranchLengthMode::PerPartition => partition,
        }
    }

    /// Branch length of `branch` as seen by `partition`.
    #[inline]
    pub fn get(&self, partition: usize, branch: BranchId) -> f64 {
        self.lengths[self.row(partition)][branch]
    }

    /// Sets the branch length of `branch` for `partition` (for every partition
    /// in joint mode), clamped to the supported range.
    pub fn set(&mut self, partition: usize, branch: BranchId, value: f64) {
        let row = self.row(partition);
        self.lengths[row][branch] = value.clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH);
    }

    /// Sets the length of `branch` for *all* partitions.
    pub fn set_all(&mut self, branch: BranchId, value: f64) {
        let clamped = value.clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH);
        for row in &mut self.lengths {
            row[branch] = clamped;
        }
    }

    /// All lengths of one branch, one entry per partition.
    pub fn per_partition(&self, branch: BranchId) -> Vec<f64> {
        (0..self.partitions).map(|p| self.get(p, branch)).collect()
    }

    /// Copies all branch lengths of partition `from` (or the joint row) into
    /// the tree's branch-length slots, e.g. for reporting or Newick export.
    pub fn write_to_tree(&self, tree: &mut Tree, from: usize) {
        let row = self.row(from);
        for b in 0..self.lengths[row].len().min(tree.branch_count()) {
            tree.set_branch_length(b, self.lengths[row][b]);
        }
    }

    /// Applies the length bookkeeping of an SPR move: the two branches around
    /// the pruned node merge into `kept` (their lengths add), and the `target`
    /// branch is split in half between `target` and the re-used `freed`
    /// branch. Mirrors what [`phylo_tree::spr::apply`] does to the tree's own
    /// joint lengths, but for every partition row.
    pub fn apply_spr(&mut self, kept: BranchId, freed: BranchId, target: BranchId) {
        for row in &mut self.lengths {
            row[kept] = (row[kept] + row[freed]).min(MAX_BRANCH_LENGTH);
            let half = (row[target] * 0.5).max(MIN_BRANCH_LENGTH);
            row[target] = half;
            row[freed] = half;
        }
    }

    /// Snapshot of the given branches' lengths across all rows, for undo.
    pub fn snapshot(&self, branches: &[BranchId]) -> Vec<(BranchId, Vec<f64>)> {
        branches
            .iter()
            .map(|&b| (b, self.lengths.iter().map(|row| row[b]).collect()))
            .collect()
    }

    /// Restores a snapshot previously taken with [`BranchLengths::snapshot`].
    pub fn restore(&mut self, snapshot: &[(BranchId, Vec<f64>)]) {
        for (branch, values) in snapshot {
            for (row, &v) in self.lengths.iter_mut().zip(values.iter()) {
                row[*branch] = v;
            }
        }
    }

    /// Arithmetic mean of a branch's length across partitions (equals the
    /// plain length in joint mode).
    pub fn mean(&self, branch: BranchId) -> f64 {
        let sum: f64 = (0..self.partitions).map(|p| self.get(p, branch)).sum();
        sum / self.partitions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tree() -> Tree {
        let names: Vec<String> = (0..6).map(|i| format!("t{i}")).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        random_tree(&names, &mut rng)
    }

    #[test]
    fn joint_mode_shares_one_row() {
        let t = tree();
        let mut bl = BranchLengths::from_tree(&t, 5, BranchLengthMode::Joint);
        assert_eq!(bl.branch_count(), t.branch_count());
        bl.set(3, 0, 0.7);
        for p in 0..5 {
            assert!(
                (bl.get(p, 0) - 0.7).abs() < 1e-15,
                "joint mode must share lengths"
            );
        }
    }

    #[test]
    fn per_partition_mode_is_independent() {
        let t = tree();
        let mut bl = BranchLengths::from_tree(&t, 3, BranchLengthMode::PerPartition);
        bl.set(0, 2, 0.5);
        bl.set(1, 2, 0.05);
        assert!((bl.get(0, 2) - 0.5).abs() < 1e-15);
        assert!((bl.get(1, 2) - 0.05).abs() < 1e-15);
        assert!((bl.get(2, 2) - t.branch_length(2)).abs() < 1e-15);
        let all = bl.per_partition(2);
        assert_eq!(all.len(), 3);
        assert!((bl.mean(2) - (0.5 + 0.05 + t.branch_length(2)) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn values_are_clamped() {
        let t = tree();
        let mut bl = BranchLengths::from_tree(&t, 1, BranchLengthMode::Joint);
        bl.set(0, 0, -5.0);
        assert!(bl.get(0, 0) >= MIN_BRANCH_LENGTH);
        bl.set_all(1, 1e9);
        assert!(bl.get(0, 1) <= MAX_BRANCH_LENGTH);
    }

    #[test]
    fn initialization_matches_tree() {
        let t = tree();
        let bl = BranchLengths::from_tree(&t, 2, BranchLengthMode::PerPartition);
        for b in t.branches() {
            assert!((bl.get(0, b) - t.branch_length(b)).abs() < 1e-15);
            assert!((bl.get(1, b) - t.branch_length(b)).abs() < 1e-15);
        }
    }

    #[test]
    fn write_to_tree_round_trips() {
        let mut t = tree();
        let mut bl = BranchLengths::from_tree(&t, 2, BranchLengthMode::PerPartition);
        bl.set(1, 0, 0.33);
        bl.write_to_tree(&mut t, 1);
        assert!((t.branch_length(0) - 0.33).abs() < 1e-12);
    }
}
