//! Prose result A: with a *joint* branch-length estimate over all partitions
//! the two parallelization approaches differ only marginally (the paper
//! reports an average improvement of about 5%).

fn main() {
    phylo_bench::experiments::prose_joint_branch();
}
