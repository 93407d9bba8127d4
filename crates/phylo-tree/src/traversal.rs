//! Rooted traversal plans ("traversal lists").
//!
//! To evaluate the likelihood, a virtual root is placed on a branch and the
//! conditional likelihood vectors (CLVs) of the internal nodes are computed
//! bottom-up, children before parents. The master thread of the parallel
//! runtime builds such a *traversal list* (full during model optimization,
//! partial during the tree-search phase, cf. Section IV of the paper) and the
//! workers then process the listed nodes for their share of the alignment
//! patterns.

use crate::topology::{BranchId, NodeId, Tree};

/// One entry of a traversal list: compute the CLV of `node` (oriented towards
/// the virtual root) from the CLVs/tip states of its two children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalStep {
    /// Internal node whose CLV is to be (re)computed.
    pub node: NodeId,
    /// First child (away from the root).
    pub left: NodeId,
    /// Branch connecting `node` and `left`.
    pub left_branch: BranchId,
    /// Second child (away from the root).
    pub right: NodeId,
    /// Branch connecting `node` and `right`.
    pub right_branch: BranchId,
    /// The neighbor of `node` that lies towards the virtual root; the CLV
    /// computed by this step is oriented towards it.
    pub towards: NodeId,
}

/// A complete traversal plan for a given virtual root placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraversalPlan {
    /// Branch the virtual root is placed on.
    pub root_branch: BranchId,
    /// First endpoint of the root branch.
    pub root_left: NodeId,
    /// Second endpoint of the root branch.
    pub root_right: NodeId,
    /// Steps in post-order: every child CLV appears before its parent's.
    pub steps: Vec<TraversalStep>,
}

impl TraversalPlan {
    /// Builds a *full* traversal plan: the CLV of every internal node
    /// connected to `root_branch` is listed — on a complete tree, the only
    /// kind the kernel accepts, every internal node.
    pub fn full(tree: &Tree, root_branch: BranchId) -> Self {
        Self::build(tree, root_branch, |_node, _towards| false)
    }

    /// Builds a *partial* traversal plan: subtrees for which
    /// `is_valid(node, towards)` reports an already valid CLV (oriented
    /// towards the root) are skipped entirely.
    ///
    /// The closure receives the internal node id and the neighbor it must be
    /// oriented towards for the current root placement.
    pub fn partial<F: Fn(NodeId, NodeId) -> bool>(
        tree: &Tree,
        root_branch: BranchId,
        is_valid: F,
    ) -> Self {
        Self::build(tree, root_branch, is_valid)
    }

    fn build<F: Fn(NodeId, NodeId) -> bool>(
        tree: &Tree,
        root_branch: BranchId,
        is_valid: F,
    ) -> Self {
        let (root_left, root_right) = tree.branch_endpoints(root_branch);
        let mut steps = Vec::new();
        for (start, parent) in [(root_left, root_right), (root_right, root_left)] {
            collect_side(tree, start, parent, &is_valid, &mut steps);
        }
        Self {
            root_branch,
            root_left,
            root_right,
            steps,
        }
    }

    /// Number of CLV updates the plan performs.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan performs no CLV updates.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// For every node, the neighbor that lies on the path towards `branch`
/// (i.e. the direction a conditional likelihood vector must be oriented in to
/// be usable for an evaluation rooted on `branch`). The endpoints of `branch`
/// point at each other.
///
/// The kernel uses this to decide which cached CLVs stay valid after a branch
/// length or topology change.
pub fn orientation_toward_branch(tree: &Tree, branch: BranchId) -> Vec<Option<NodeId>> {
    use std::collections::VecDeque;
    let mut toward: Vec<Option<NodeId>> = vec![None; tree.node_capacity()];
    let (a, b) = tree.branch_endpoints(branch);
    toward[a] = Some(b);
    toward[b] = Some(a);
    let mut queue = VecDeque::new();
    queue.push_back(a);
    queue.push_back(b);
    let mut visited = vec![false; tree.node_capacity()];
    visited[a] = true;
    visited[b] = true;
    while let Some(node) = queue.pop_front() {
        for &(next, br) in tree.neighbors(node) {
            if br == branch || visited[next] {
                continue;
            }
            visited[next] = true;
            // From `next`, the path towards the branch goes through `node`.
            toward[next] = Some(node);
            queue.push_back(next);
        }
    }
    toward
}

/// Post-order collection of the steps on one side of the virtual root.
///
/// `node` is the current node, `parent` the neighbor towards the root. If the
/// CLV of `node` towards `parent` is already valid the whole subtree is
/// skipped, which is what makes partial traversals cheap.
fn collect_side<F: Fn(NodeId, NodeId) -> bool>(
    tree: &Tree,
    node: NodeId,
    parent: NodeId,
    is_valid: &F,
    steps: &mut Vec<TraversalStep>,
) {
    if tree.is_leaf(node) {
        return;
    }
    if is_valid(node, parent) {
        return;
    }
    // Children = the two neighbors that are not the parent: every `Tree`
    // constructor validates degree 3 for each internal node.
    let mut children = [(0usize, 0usize); 2];
    let mut idx = 0;
    for &(neighbor, branch) in tree.neighbors(node) {
        if neighbor != parent {
            children[idx] = (neighbor, branch);
            idx += 1;
        }
    }

    for &(child, _) in &children {
        collect_side(tree, child, node, is_valid, steps);
    }
    steps.push(TraversalStep {
        node,
        left: children[0].0,
        left_branch: children[0].1,
        right: children[1].0,
        right_branch: children[1].1,
        towards: parent,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Tree;

    fn chain_tree(n: usize) -> Tree {
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let order: Vec<usize> = (0..n).collect();
        // Always insert on the most recently created pendant branch, producing
        // a caterpillar ("chain") topology with maximal depth.
        Tree::stepwise(names, &order, |branches| branches - 1)
    }

    #[test]
    fn full_traversal_lists_every_internal_node_once() {
        let t = chain_tree(10);
        for root in t.branches() {
            let plan = TraversalPlan::full(&t, root);
            assert_eq!(plan.len(), t.internal_count());
            let mut nodes: Vec<_> = plan.steps.iter().map(|s| s.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(
                nodes.len(),
                t.internal_count(),
                "each internal node exactly once"
            );
        }
    }

    #[test]
    fn post_order_children_before_parents() {
        let t = chain_tree(12);
        let plan = TraversalPlan::full(&t, 0);
        let mut seen = std::collections::HashSet::new();
        for step in &plan.steps {
            // Any internal child must already have been computed.
            for child in [step.left, step.right] {
                if !t.is_leaf(child) {
                    assert!(seen.contains(&child), "child {child} used before computed");
                }
            }
            seen.insert(step.node);
        }
    }

    #[test]
    fn steps_reference_incident_branches() {
        let t = chain_tree(8);
        let plan = TraversalPlan::full(&t, 3);
        for step in &plan.steps {
            assert_eq!(
                t.branch_between(step.node, step.left),
                Some(step.left_branch)
            );
            assert_eq!(
                t.branch_between(step.node, step.right),
                Some(step.right_branch)
            );
            // `towards` is the third neighbor.
            assert!(t
                .neighbors(step.node)
                .iter()
                .any(|&(n, _)| n == step.towards));
        }
    }

    #[test]
    fn partial_traversal_with_all_valid_is_empty() {
        let t = chain_tree(9);
        let plan = TraversalPlan::partial(&t, 1, |_n, _p| true);
        assert!(plan.is_empty());
    }

    #[test]
    fn partial_traversal_skips_valid_subtrees() {
        let t = chain_tree(9);
        let full = TraversalPlan::full(&t, 0);
        // Mark the first computed node (deepest in the traversal) as valid:
        // exactly that one step should disappear, its ancestors must stay.
        let valid_node = full.steps[0].node;
        let valid_towards = full.steps[0].towards;
        let partial = TraversalPlan::partial(&t, 0, |n, p| n == valid_node && p == valid_towards);
        assert_eq!(partial.len(), full.len() - 1);
        assert!(partial.steps.iter().all(|s| s.node != valid_node));
    }

    #[test]
    fn root_endpoints_match_branch() {
        let t = chain_tree(6);
        for root in t.branches() {
            let plan = TraversalPlan::full(&t, root);
            let (a, b) = t.branch_endpoints(root);
            assert_eq!((plan.root_left, plan.root_right), (a, b));
        }
    }

    #[test]
    fn orientation_toward_branch_points_along_paths() {
        let t = chain_tree(10);
        for branch in t.branches() {
            let toward = orientation_toward_branch(&t, branch);
            let (a, b) = t.branch_endpoints(branch);
            assert_eq!(toward[a], Some(b));
            assert_eq!(toward[b], Some(a));
            // Every connected node has an orientation, and following it leads
            // to the branch endpoints without cycles.
            for node in 0..t.n_taxa() {
                let mut cur = node;
                let mut hops = 0;
                while cur != a && cur != b {
                    cur = toward[cur].expect("orientation must exist");
                    hops += 1;
                    assert!(hops <= t.node_capacity(), "orientation cycles");
                }
            }
        }
    }

    #[test]
    fn triplet_has_single_step() {
        let names: Vec<String> = (0..3).map(|i| format!("t{i}")).collect();
        let t = Tree::initial_triplet(names, [0, 1, 2]);
        let plan = TraversalPlan::full(&t, 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.steps[0].node, 3);
    }
}
