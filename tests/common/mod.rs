//! Helpers shared by the integration tests that drive the kernels over random
//! datasets (`kernel_differential.rs`, `properties.rs`).

use plf_loadbalance::prelude::*;
use plf_loadbalance::seqgen::GeneratedDataset;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Case count of the deep properties: a handful of fixed-seed cases in the
/// normal test job, `PLF_DIFFERENTIAL_CASES` (30 in the CI deep step) on top.
pub fn differential_cases() -> u32 {
    std::env::var("PLF_DIFFERENTIAL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// Taxa of the fixture whose CLVs rescale, every branch in
/// [`RESCALING_LENGTHS`]. A saturated protein join costs a factor ≈ 1/20 per
/// tip and the threshold is 1e-100: 24 taxa never get there (PR 17 measured a
/// largest scale counter of 0), 96 do on about half the seeds of the
/// differential harness (11 of 20 — conserved columns stay well above the
/// threshold in the slow Γ categories), 112 and 128 on all 244 sampled.
pub const RESCALING_TAXA: usize = 128;

/// Branch lengths of the rescaling fixture: every branch near saturation.
pub const RESCALING_LENGTHS: std::ops::Range<f64> = 3.0..10.0;

/// Rewrites every character of a generated dataset's alignment through
/// `remap(column, is_protein, character)` (taxon-major, columns ascending),
/// then recompiles the patterns over the unchanged partition set.
pub fn remap_alignment(
    ds: &GeneratedDataset,
    mut remap: impl FnMut(usize, bool, char) -> char,
) -> GeneratedDataset {
    let mut is_protein = vec![false; ds.alignment.columns()];
    for part in ds.partition_set.partitions() {
        for col in part.columns() {
            is_protein[col] = part.data_type == DataType::Protein;
        }
    }
    let rows: Vec<(String, String)> = ds
        .alignment
        .taxa()
        .iter()
        .enumerate()
        .map(|(taxon, name)| {
            let row = ds.alignment.row(taxon).iter().enumerate();
            let row: String = row
                .map(|(col, &c)| remap(col, is_protein[col], c as char))
                .collect();
            (name.clone(), row)
        })
        .collect();
    let alignment = Alignment::new(rows).expect("mutated alignment stays rectangular");
    let patterns = Arc::new(
        PartitionedPatterns::compile(&alignment, &ds.partition_set)
            .expect("partition set still covers the alignment"),
    );
    GeneratedDataset {
        spec: ds.spec.clone(),
        tree: ds.tree.clone(),
        alignment,
        partition_set: ds.partition_set.clone(),
        patterns,
    }
}

/// Injects ambiguity codes and gaps into a generated dataset's alignment
/// (per-column alphabet-appropriate: DNA partial ambiguities and `N`/`-`,
/// protein `B`/`X`/`-`). Exercises the kernels' tip paths on masks with more
/// than one set bit.
pub fn inject_ambiguity(
    ds: &GeneratedDataset,
    fraction: f64,
    rng: &mut ChaCha8Rng,
) -> GeneratedDataset {
    const DNA_CODES: [char; 5] = ['N', '-', 'R', 'Y', 'W'];
    const PROTEIN_CODES: [char; 3] = ['X', '-', 'B'];
    remap_alignment(ds, |_, is_protein, c| {
        if !rng.gen_bool(fraction) {
            c
        } else if is_protein {
            PROTEIN_CODES[rng.gen_range(0..PROTEIN_CODES.len())]
        } else {
            DNA_CODES[rng.gen_range(0..DNA_CODES.len())]
        }
    })
}
