//! Figure 3: sequential / oldPAR / newPAR run times for dataset d50_50000
//! (50 taxa, 50 partitions of 1,000 columns) on the four evaluation platforms.
//!
//! Run with `PLF_SCALE=1.0` for the paper's full dataset size.

fn main() {
    phylo_bench::experiments::fig3();
}
