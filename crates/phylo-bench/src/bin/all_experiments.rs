//! Runs every experiment of the paper in sequence (Figures 3-6 plus the three
//! prose results) and prints their tables. Used to populate EXPERIMENTS.md.
//! Control the dataset size with PLF_SCALE (default 0.02).

use phylo_bench::experiments::{
    fig3, fig4, fig5, fig6, prose_joint_branch, prose_model_opt, prose_protein,
};

fn main() {
    for experiment in [
        fig3,
        fig4,
        fig5,
        fig6,
        prose_joint_branch,
        prose_model_opt,
        prose_protein,
    ] {
        experiment();
        println!();
    }
}
