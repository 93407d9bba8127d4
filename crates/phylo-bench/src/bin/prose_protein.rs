//! Prose result C: on the protein datasets the improvement is only 5-10%,
//! because a 20-state column costs about 25x more floating point work than a
//! DNA column, so even a short partition keeps every thread busy.

fn main() {
    phylo_bench::experiments::prose_protein();
}
