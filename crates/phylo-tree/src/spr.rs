//! Subtree pruning and regrafting (SPR).
//!
//! The tree-search phase of RAxML-style programs improves the topology with
//! SPR moves: a subtree is clipped out of the tree and re-inserted on another
//! branch within a bounded radius of its original position. This module
//! provides the topological operation itself (with undo information) and the
//! enumeration of candidate moves; the search strategy lives in
//! `phylo-search`.

use crate::topology::{BranchId, NodeId, Tree};
use crate::TreeError;

/// Description of an SPR move before it is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SprMove {
    /// The internal node that is clipped out together with its subtree.
    pub pruned_node: NodeId,
    /// The neighbor of `pruned_node` whose branch stays attached; the subtree
    /// on that side moves along with `pruned_node`.
    pub subtree_neighbor: NodeId,
    /// The branch onto which `pruned_node` is regrafted.
    pub target_branch: BranchId,
}

/// Undo record returned by [`apply`]; feed it to [`undo`] to restore the tree
/// exactly (topology and branch lengths).
#[derive(Debug, Clone, PartialEq)]
pub struct SprUndo {
    mv: SprMove,
    /// Branch that connected `pruned_node` to the first merged neighbor.
    kept_branch: BranchId,
    kept_neighbor: NodeId,
    kept_length: f64,
    /// Branch that connected `pruned_node` to the second merged neighbor; it
    /// is reused as one half of the split target branch.
    freed_branch: BranchId,
    freed_neighbor: NodeId,
    freed_length: f64,
    /// Original endpoints and length of the target branch.
    target_ends: (NodeId, NodeId),
    target_length: f64,
    /// Internal nodes whose conditional likelihood vectors are affected by the
    /// move (the path between the old and the new attachment point, plus the
    /// pruned node itself). The kernel uses this to invalidate its cache.
    pub affected_nodes: Vec<NodeId>,
    /// The two branches incident to `pruned_node` after regrafting (useful for
    /// local branch-length optimization around the insertion point).
    pub inserted_branches: [BranchId; 3],
}

impl SprUndo {
    /// The branch that now connects the two former neighbors of the pruned
    /// node (its length is the sum of the two merged branches).
    pub fn merged_branch(&self) -> BranchId {
        self.kept_branch
    }
}

/// Applies an SPR move, returning the undo record.
///
/// # Errors
///
/// Returns [`TreeError::Invalid`] if the move is not well formed: the pruned
/// node must be internal, the subtree neighbor must be adjacent to it, and the
/// target branch must lie in the remaining tree (not in the pruned subtree and
/// not incident to the pruned node).
pub fn apply(tree: &mut Tree, mv: SprMove) -> Result<SprUndo, TreeError> {
    let p = mv.pruned_node;
    if tree.is_leaf(p) {
        return Err(TreeError::Invalid(format!("pruned node {p} is a leaf")));
    }
    let neighbors: Vec<(NodeId, BranchId)> = tree.neighbors(p).to_vec();
    if neighbors.len() != 3 {
        return Err(TreeError::Invalid(format!(
            "node {p} does not have three neighbors"
        )));
    }
    let subtree_entry = neighbors
        .iter()
        .find(|&&(n, _)| n == mv.subtree_neighbor)
        .copied()
        .ok_or_else(|| {
            TreeError::Invalid(format!(
                "node {} is not adjacent to pruned node {p}",
                mv.subtree_neighbor
            ))
        })?;
    let remaining: Vec<(NodeId, BranchId)> = neighbors
        .into_iter()
        .filter(|&(n, _)| n != mv.subtree_neighbor)
        .collect();
    let (q, bq) = remaining[0];
    let (r, br) = remaining[1];

    // The target branch must not be incident to p and must not lie inside the
    // pruned subtree (the side of `subtree_neighbor`).
    if mv.target_branch == bq || mv.target_branch == br || mv.target_branch == subtree_entry.1 {
        return Err(TreeError::Invalid(
            "target branch is incident to the pruned node".into(),
        ));
    }
    let pruned_side = tree.nodes_on_side(subtree_entry.1, mv.subtree_neighbor);
    let (tx, ty) = tree.branch_endpoints(mv.target_branch);
    if pruned_side.contains(&tx) || pruned_side.contains(&ty) {
        return Err(TreeError::Invalid(
            "target branch lies inside the pruned subtree".into(),
        ));
    }

    let kept_length = tree.branch_length(bq);
    let freed_length = tree.branch_length(br);
    let target_length = tree.branch_length(mv.target_branch);

    // --- Prune: join q and r with branch bq, free branch br. ---
    {
        let adjacency = tree.adjacency_mut();
        // p keeps only the subtree neighbor.
        adjacency[p].retain(|&(n, _)| n == mv.subtree_neighbor);
        // q's entry for bq now points to r.
        for e in &mut adjacency[q] {
            if e.1 == bq {
                e.0 = r;
            }
        }
        // r loses br and gains bq towards q.
        adjacency[r].retain(|&(_, b)| b != br);
        adjacency[r].push((q, bq));
    }
    tree.branch_ends_mut()[bq] = (q, r);
    tree.branch_lengths_mut()[bq] =
        (kept_length + freed_length).min(crate::topology::MAX_BRANCH_LENGTH);

    // --- Regraft: split the target branch (x, y) into (x, p) and (p, y). ---
    let (x, y) = tree.branch_endpoints(mv.target_branch);
    {
        let adjacency = tree.adjacency_mut();
        // y's entry for the target branch is replaced by the freed branch br.
        for e in &mut adjacency[y] {
            if e.1 == mv.target_branch {
                e.0 = p;
                e.1 = br;
            }
        }
        // x's entry for the target branch now points to p.
        for e in &mut adjacency[x] {
            if e.1 == mv.target_branch {
                e.0 = p;
            }
        }
        adjacency[p].push((x, mv.target_branch));
        adjacency[p].push((y, br));
    }
    tree.branch_ends_mut()[mv.target_branch] = (x, p);
    tree.branch_ends_mut()[br] = (p, y);
    let half = (target_length * 0.5).max(crate::topology::MIN_BRANCH_LENGTH);
    tree.branch_lengths_mut()[mv.target_branch] = half;
    tree.branch_lengths_mut()[br] = half;

    // Affected nodes: the path (in the new topology) from the merge point to
    // the insertion point, plus the pruned node.
    let mut affected = path_between(tree, q, p);
    if !affected.contains(&r) {
        affected.push(r);
    }
    if !affected.contains(&p) {
        affected.push(p);
    }
    affected.retain(|&n| !tree.is_leaf(n));

    Ok(SprUndo {
        mv,
        kept_branch: bq,
        kept_neighbor: q,
        kept_length,
        freed_branch: br,
        freed_neighbor: r,
        freed_length,
        target_ends: (x, y),
        target_length,
        affected_nodes: affected,
        inserted_branches: [mv.target_branch, br, subtree_entry.1],
    })
}

/// Reverses a previously applied SPR move.
///
/// The tree must be in exactly the state [`apply`] left it in (no intervening
/// topology changes).
pub fn undo(tree: &mut Tree, undo: &SprUndo) {
    let p = undo.mv.pruned_node;
    let (x, y) = undo.target_ends;
    let bq = undo.kept_branch;
    let br = undo.freed_branch;
    let q = undo.kept_neighbor;
    let r = undo.freed_neighbor;
    let bt = undo.mv.target_branch;

    // --- Undo regraft: restore the target branch (x, y), detach p from x/y. ---
    {
        let adjacency = tree.adjacency_mut();
        adjacency[p].retain(|&(n, _)| n == undo.mv.subtree_neighbor);
        for e in &mut adjacency[x] {
            if e.1 == bt {
                e.0 = y;
            }
        }
        for e in &mut adjacency[y] {
            if e.1 == br {
                e.0 = x;
                e.1 = bt;
            }
        }
    }
    tree.branch_ends_mut()[bt] = (x, y);
    tree.branch_lengths_mut()[bt] = undo.target_length;

    // --- Undo prune: split (q, r) back into (q, p) and (p, r). ---
    {
        let adjacency = tree.adjacency_mut();
        for e in &mut adjacency[q] {
            if e.1 == bq {
                e.0 = p;
            }
        }
        adjacency[r].retain(|&(_, b)| b != bq);
        adjacency[r].push((p, br));
        adjacency[p].push((q, bq));
        adjacency[p].push((r, br));
    }
    tree.branch_ends_mut()[bq] = (q, p);
    tree.branch_lengths_mut()[bq] = undo.kept_length;
    tree.branch_ends_mut()[br] = (p, r);
    tree.branch_lengths_mut()[br] = undo.freed_length;
}

/// Enumerates the candidate SPR moves for pruning at `pruned_node` keeping the
/// subtree towards `subtree_neighbor`, with regraft targets at most `radius`
/// branches away from the pruning site.
pub fn candidate_moves(
    tree: &Tree,
    pruned_node: NodeId,
    subtree_neighbor: NodeId,
    radius: usize,
) -> Vec<SprMove> {
    if tree.is_leaf(pruned_node) {
        return Vec::new();
    }
    let neighbors: Vec<(NodeId, BranchId)> = tree.neighbors(pruned_node).to_vec();
    let subtree_branch = match neighbors.iter().find(|&&(n, _)| n == subtree_neighbor) {
        Some(&(_, b)) => b,
        None => return Vec::new(),
    };
    let incident: Vec<BranchId> = neighbors.iter().map(|&(_, b)| b).collect();
    let pruned_side = tree.nodes_on_side(subtree_branch, subtree_neighbor);

    // Candidate targets: within `radius` of any branch incident to the pruned
    // node, not incident to it, and not inside the pruned subtree.
    let mut seen = std::collections::HashSet::new();
    let mut targets = Vec::new();
    for &b in &incident {
        for t in tree.branches_within_radius(b, radius) {
            if incident.contains(&t) || !seen.insert(t) {
                continue;
            }
            let (x, y) = tree.branch_endpoints(t);
            if pruned_side.contains(&x) || pruned_side.contains(&y) {
                continue;
            }
            targets.push(t);
        }
    }
    targets
        .into_iter()
        .map(|target_branch| SprMove {
            pruned_node,
            subtree_neighbor,
            target_branch,
        })
        .collect()
}

/// Nodes on the unique path between `from` and `to` (inclusive).
pub fn path_between(tree: &Tree, from: NodeId, to: NodeId) -> Vec<NodeId> {
    use std::collections::VecDeque;
    if from == to {
        return vec![from];
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; tree.node_capacity()];
    let mut queue = VecDeque::new();
    queue.push_back(from);
    prev[from] = Some(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            break;
        }
        for &(next, _) in tree.neighbors(n) {
            if prev[next].is_none() {
                prev[next] = Some(n);
                queue.push_back(next);
            }
        }
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur].expect("path must exist in a connected tree");
        path.push(cur);
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_tree(n: usize, seed: u64) -> Tree {
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        random_tree(&names, &mut rng)
    }

    fn first_valid_move(tree: &Tree) -> SprMove {
        for p in tree.internal_nodes() {
            for &(s, _) in tree.neighbors(p) {
                let moves = candidate_moves(tree, p, s, 10);
                if let Some(&mv) = moves.first() {
                    return mv;
                }
            }
        }
        panic!("no valid SPR move found");
    }

    #[test]
    fn apply_preserves_tree_invariants() {
        let mut tree = test_tree(12, 7);
        let mv = first_valid_move(&tree);
        let undo_rec = apply(&mut tree, mv).unwrap();
        assert!(tree.validate().is_ok(), "tree invalid after SPR");
        assert_eq!(tree.branch_count(), 2 * 12 - 3);
        assert!(!undo_rec.affected_nodes.is_empty());
    }

    #[test]
    fn apply_then_undo_restores_everything() {
        for seed in 0..5 {
            let mut tree = test_tree(10, seed);
            let original = tree.clone();
            let mv = first_valid_move(&tree);
            let undo_rec = apply(&mut tree, mv).unwrap();
            // The move must actually change the topology.
            assert_ne!(tree.bipartitions(), original.bipartitions(), "seed {seed}");
            undo(&mut tree, &undo_rec);
            assert!(tree.validate().is_ok());
            assert_eq!(tree.bipartitions(), original.bipartitions());
            // Branch lengths restored exactly.
            for b in original.branches() {
                assert!((tree.branch_length(b) - original.branch_length(b)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn candidate_moves_never_target_pruned_subtree() {
        let tree = test_tree(15, 3);
        for p in tree.internal_nodes() {
            for &(s, sb) in tree.neighbors(p) {
                let pruned_side = tree.nodes_on_side(sb, s);
                for mv in candidate_moves(&tree, p, s, 5) {
                    let (x, y) = tree.branch_endpoints(mv.target_branch);
                    assert!(!pruned_side.contains(&x));
                    assert!(!pruned_side.contains(&y));
                }
            }
        }
    }

    #[test]
    fn all_candidate_moves_apply_and_undo_cleanly() {
        let tree = test_tree(9, 11);
        let p = tree.internal_nodes().next().unwrap();
        let (s, _) = tree.neighbors(p)[0];
        for mv in candidate_moves(&tree, p, s, 3) {
            let mut t = tree.clone();
            let u = apply(&mut t, mv).unwrap();
            assert!(t.validate().is_ok());
            undo(&mut t, &u);
            assert_eq!(t.bipartitions(), tree.bipartitions());
        }
    }

    #[test]
    fn radius_limits_candidates() {
        let tree = test_tree(20, 5);
        let p = tree.internal_nodes().next().unwrap();
        let (s, _) = tree.neighbors(p)[0];
        let near = candidate_moves(&tree, p, s, 1);
        let far = candidate_moves(&tree, p, s, 10);
        assert!(near.len() <= far.len());
        assert!(!far.is_empty());
    }

    #[test]
    fn rejects_invalid_moves() {
        let mut tree = test_tree(8, 2);
        // Pruning a leaf is invalid.
        let leaf_move = SprMove {
            pruned_node: 0,
            subtree_neighbor: 1,
            target_branch: 0,
        };
        assert!(apply(&mut tree, leaf_move).is_err());

        // Target incident to the pruned node is invalid.
        let p = tree.internal_nodes().next().unwrap();
        let (s, _) = tree.neighbors(p)[0];
        let (_, incident_branch) = tree.neighbors(p)[1];
        let bad = SprMove {
            pruned_node: p,
            subtree_neighbor: s,
            target_branch: incident_branch,
        };
        assert!(apply(&mut tree, bad).is_err());
    }

    #[test]
    fn path_between_endpoints() {
        let tree = test_tree(10, 1);
        let path = path_between(&tree, 0, 5);
        assert_eq!(*path.first().unwrap(), 0);
        assert_eq!(*path.last().unwrap(), 5);
        // Consecutive path nodes are adjacent.
        for w in path.windows(2) {
            assert!(tree.branch_between(w[0], w[1]).is_some());
        }
        assert_eq!(path_between(&tree, 3, 3), vec![3]);
    }

    #[test]
    fn affected_nodes_are_internal_and_include_insertion_point() {
        let mut tree = test_tree(12, 9);
        let mv = first_valid_move(&tree);
        let u = apply(&mut tree, mv).unwrap();
        assert!(u.affected_nodes.contains(&mv.pruned_node));
        for &n in &u.affected_nodes {
            assert!(!tree.is_leaf(n));
        }
    }
}
