//! Master-side tracking of which conditional likelihood vectors are valid.
//!
//! Every internal node stores (per partition, per worker — but the validity is
//! identical across workers, so it is tracked once by the master) one CLV,
//! oriented towards one of its three neighbors. A CLV can be reused by a
//! partial traversal only if it is oriented the right way *and* nothing in the
//! subtree it summarizes has changed since it was computed. This cache is what
//! turns the paper's "3–4 inner likelihood vectors on average" during the tree
//! search phase into reality instead of full traversals.

use phylo_tree::{orientation_toward_branch, BranchId, NodeId, Tree};

/// Validity and orientation of the stored CLVs, per partition and node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClvValidity {
    /// `stored[partition][node]` is `Some(towards)` if the node's CLV is valid
    /// and oriented towards neighbor `towards`, `None` otherwise.
    stored: Vec<Vec<Option<NodeId>>>,
}

impl ClvValidity {
    /// Creates an all-invalid cache for `partitions` partitions on a tree with
    /// `node_capacity` node slots.
    pub fn new(partitions: usize, node_capacity: usize) -> Self {
        Self {
            stored: vec![vec![None; node_capacity]; partitions],
        }
    }

    /// Number of partitions tracked.
    pub fn partitions(&self) -> usize {
        self.stored.len()
    }

    /// Is the CLV of `node` in `partition` valid and oriented towards
    /// `towards`?
    pub fn is_valid(&self, partition: usize, node: NodeId, towards: NodeId) -> bool {
        self.stored[partition][node] == Some(towards)
    }

    /// Records that the CLV of `node` in `partition` is now valid and oriented
    /// towards `towards`.
    pub fn mark_valid(&mut self, partition: usize, node: NodeId, towards: NodeId) {
        self.stored[partition][node] = Some(towards);
    }

    /// Invalidates every CLV of one partition (used after its Q matrix or α
    /// changes: every likelihood entry of that partition is stale).
    pub fn invalidate_partition(&mut self, partition: usize) {
        for slot in &mut self.stored[partition] {
            *slot = None;
        }
    }

    /// Invalidates every CLV of every partition.
    pub fn invalidate_all(&mut self) {
        for part in &mut self.stored {
            for slot in part {
                *slot = None;
            }
        }
    }

    /// After the length of `branch` changed for `partition`: a stored CLV
    /// remains valid only if it is oriented *towards* that branch (then the
    /// subtree it summarizes does not contain the branch).
    pub fn branch_length_changed(&mut self, tree: &Tree, partition: usize, branch: BranchId) {
        let toward = orientation_toward_branch(tree, branch);
        for node in 0..self.stored[partition].len() {
            if let Some(stored_towards) = self.stored[partition][node] {
                if toward.get(node).copied().flatten() != Some(stored_towards) {
                    self.stored[partition][node] = None;
                }
            }
        }
    }

    /// After a topology change (SPR): only CLVs that are off the affected path
    /// *and* oriented towards the evaluation root branch are provably still
    /// valid; everything else is dropped. This is applied to every partition
    /// because the topology is shared.
    pub fn topology_changed(&mut self, tree: &Tree, affected: &[NodeId], root_branch: BranchId) {
        let toward = orientation_toward_branch(tree, root_branch);
        for part in &mut self.stored {
            for (node, slot) in part.iter_mut().enumerate() {
                let keep = match *slot {
                    Some(stored_towards) => {
                        !affected.contains(&node)
                            && toward.get(node).copied().flatten() == Some(stored_towards)
                    }
                    None => false,
                };
                if !keep {
                    *slot = None;
                }
            }
        }
    }

    /// Number of currently valid CLVs in one partition (diagnostics).
    pub fn valid_count(&self, partition: usize) -> usize {
        self.stored[partition]
            .iter()
            .filter(|s| s.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tree() -> Tree {
        let names: Vec<String> = (0..8).map(|i| format!("t{i}")).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        random_tree(&names, &mut rng)
    }

    #[test]
    fn starts_all_invalid() {
        let t = tree();
        let v = ClvValidity::new(3, t.node_capacity());
        assert_eq!(v.partitions(), 3);
        for p in 0..3 {
            assert_eq!(v.valid_count(p), 0);
        }
    }

    #[test]
    fn mark_and_check() {
        let t = tree();
        let mut v = ClvValidity::new(1, t.node_capacity());
        let node = t.internal_nodes().next().unwrap();
        let towards = t.neighbors(node)[0].0;
        v.mark_valid(0, node, towards);
        assert!(v.is_valid(0, node, towards));
        assert!(!v.is_valid(0, node, t.neighbors(node)[1].0));
        assert_eq!(v.valid_count(0), 1);
    }

    #[test]
    fn invalidate_partition_is_per_partition() {
        let t = tree();
        let mut v = ClvValidity::new(2, t.node_capacity());
        let node = t.internal_nodes().next().unwrap();
        let towards = t.neighbors(node)[0].0;
        v.mark_valid(0, node, towards);
        v.mark_valid(1, node, towards);
        v.invalidate_partition(0);
        assert!(!v.is_valid(0, node, towards));
        assert!(v.is_valid(1, node, towards));
    }

    #[test]
    fn branch_length_change_keeps_only_clvs_pointing_at_the_branch() {
        let t = tree();
        let mut v = ClvValidity::new(1, t.node_capacity());
        let branch = t.internal_branches()[0];
        let toward = orientation_toward_branch(&t, branch);
        // Mark every internal node valid towards the branch, plus one node
        // deliberately oriented the wrong way.
        for node in t.internal_nodes() {
            v.mark_valid(0, node, toward[node].unwrap());
        }
        let victim = t
            .internal_nodes()
            .find(|&n| t.neighbors(n).iter().any(|&(nb, _)| Some(nb) != toward[n]))
            .unwrap();
        let wrong = t
            .neighbors(victim)
            .iter()
            .find(|&&(nb, _)| Some(nb) != toward[victim])
            .unwrap()
            .0;
        v.mark_valid(0, victim, wrong);

        v.branch_length_changed(&t, 0, branch);
        for node in t.internal_nodes() {
            if node == victim {
                assert!(!v.is_valid(0, node, wrong));
            } else {
                assert!(v.is_valid(0, node, toward[node].unwrap()));
            }
        }
    }

    #[test]
    fn topology_change_drops_affected_and_misoriented() {
        let t = tree();
        let mut v = ClvValidity::new(2, t.node_capacity());
        let root_branch = 0;
        let toward = orientation_toward_branch(&t, root_branch);
        for node in t.internal_nodes() {
            v.mark_valid(0, node, toward[node].unwrap());
            v.mark_valid(1, node, toward[node].unwrap());
        }
        let affected: Vec<NodeId> = t.internal_nodes().take(2).collect();
        v.topology_changed(&t, &affected, root_branch);
        for &n in &affected {
            assert!(!v.is_valid(0, n, toward[n].unwrap()));
            assert!(!v.is_valid(1, n, toward[n].unwrap()));
        }
        let unaffected = t.internal_nodes().find(|n| !affected.contains(n)).unwrap();
        assert!(v.is_valid(0, unaffected, toward[unaffected].unwrap()));
    }
}
