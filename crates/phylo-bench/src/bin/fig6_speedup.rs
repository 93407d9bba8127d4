//! Figure 6: speedups on the Intel Nehalem for dataset d50_50000 with 50
//! partitions of 1,000 columns: an unpartitioned analysis vs the newPAR and
//! oldPAR partitioned analyses at 2, 4 and 8 threads.

fn main() {
    phylo_bench::experiments::fig6();
}
