//! Figure 5: sequential / oldPAR / newPAR run times for the synthetic stand-in
//! of the real-world mammalian dataset r125_19839 (125 taxa, 34 partitions of
//! 148-2,705 patterns) on the four evaluation platforms.

fn main() {
    phylo_bench::experiments::fig5();
}
