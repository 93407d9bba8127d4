//! The paper's experiments by name: `experiments [fig3|fig4|fig5|fig6|
//! prose_joint_branch|prose_model_opt|prose_protein]…`, in the order given;
//! no argument runs all seven (≈ 8 min at the default `PLF_SCALE` of 0.02,
//! `PLF_SCALE=1.0` for the paper's full dataset sizes). An unknown name is a
//! usage error (exit 2); a failed assertion panics (exit 101).

use phylo_bench::experiments::ALL;

fn main() {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1) {
        match ALL.iter().find(|(known, _)| *known == name) {
            Some((_, run)) => selected.push(*run),
            None => {
                let known: Vec<&str> = ALL.iter().map(|(known, _)| *known).collect();
                eprintln!("unknown experiment `{name}`");
                eprintln!("usage: experiments [{}]…", known.join("|"));
                std::process::exit(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(ALL.iter().map(|(_, run)| *run));
    }
    for run in selected {
        run();
        println!();
    }
}
