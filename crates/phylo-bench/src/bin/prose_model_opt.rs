//! Prose result B: model-parameter optimization on a *fixed* tree (no tree
//! search) with per-partition branch lengths improves by 5-10% under newPAR,
//! because the full tree traversal per Brent step already gives every thread
//! more work per synchronization than the search phase does.

fn main() {
    phylo_bench::experiments::prose_model_opt();
}
