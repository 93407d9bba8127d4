//! Figure 4: sequential / oldPAR / newPAR run times for dataset d100_50000
//! (100 taxa, 50 partitions of 1,000 columns) on the four evaluation platforms.

fn main() {
    phylo_bench::experiments::fig4();
}
