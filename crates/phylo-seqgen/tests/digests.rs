//! Committed digests of the generated evaluation datasets.
//!
//! Every workload of the repository simulates its data with this crate, so a
//! change to the simulator, the tree generator or the default models moves
//! every downstream number. Each dataset below is reduced to one FNV-1a-64
//! digest over its taxon names, every alignment byte, the partition ranges,
//! the tree (branch endpoints and branch-length bits) and the
//! `ModelSet::default_for` models derived from it (eigenvalue, `U` and Γ-rate
//! bits). The expected values were taken before the per-(category, branch)
//! transition tables replaced the per-(column, branch) matrices, and must not
//! move: regenerate them only on purpose, with the reason recorded (a failing
//! check lists every dataset's new digest).
//!
//! The digest is hand-written (not `std`'s hasher, whose output is not
//! specified across releases). Floating-point values enter as their bits, so
//! a host whose libm `exp` rounds differently would fail here first.

use phylo_data::DataType;
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_seqgen::datasets::mixed_dna_protein;
use phylo_seqgen::{paper_simulated, staggered_convergence, DatasetSpec};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(spec: &DatasetSpec) -> u64 {
    let ds = spec.generate();
    let mut h = Fnv::new();
    let aln = &ds.alignment;
    h.u64(aln.taxa_count() as u64);
    h.u64(aln.columns() as u64);
    for (taxon, name) in aln.taxa().iter().enumerate() {
        h.u64(name.len() as u64);
        h.bytes(name.as_bytes());
        h.bytes(aln.row(taxon));
    }
    for part in ds.partition_set.partitions() {
        h.bytes(part.name.as_bytes());
        h.u64(part.data_type.states() as u64);
        for r in &part.ranges {
            h.u64(r.start as u64);
            h.u64(r.end as u64);
        }
    }
    for b in ds.tree.branches() {
        let (x, y) = ds.tree.branch_endpoints(b);
        h.u64(x as u64);
        h.u64(y as u64);
        h.f64(ds.tree.branch_length(b));
    }
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    for model in models.models() {
        let eigen = model.substitution().eigen();
        for &v in &eigen.values {
            h.f64(v);
        }
        for &v in eigen.u.as_slice() {
            h.f64(v);
        }
        for &r in model.gamma_rates() {
            h.f64(r);
        }
    }
    h.0
}

/// A small gappy protein dataset: missing taxa switch off the unique-column
/// redraw, so the simulator's other path is covered too.
fn gappy_protein(seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: "gappy_protein".into(),
        taxa: 9,
        partition_columns: vec![30, 45, 20],
        data_type: DataType::Protein,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.25,
        seed,
    }
}

fn specs(seed: u64) -> Vec<DatasetSpec> {
    vec![
        paper_simulated(8, 5000, 100, seed),
        mixed_dna_protein(8, 12, 4, 400, seed),
        paper_simulated(7, 12000, 1200, seed),
        paper_simulated(6, 640, 160, seed),
        mixed_dna_protein(6, 2, 1, 64, seed),
        staggered_convergence(seed),
        gappy_protein(seed),
    ]
}

fn check(seed: u64, expected: &[u64]) {
    let specs = specs(seed);
    let got: Vec<u64> = specs.iter().map(digest).collect();
    let listing: Vec<String> = specs
        .iter()
        .zip(&got)
        .map(|(spec, d)| format!("{:<22} {d:#018x}", spec.name))
        .collect();
    assert_eq!(
        got,
        expected,
        "digests at seed {seed} moved; now:\n{}",
        listing.join("\n")
    );
}

#[test]
fn the_gappy_dataset_has_missing_taxa() {
    for seed in [2009, 11] {
        let ds = gappy_protein(seed).generate();
        assert!(ds.alignment.gappyness() > 0.0, "seed {seed}: no gaps");
    }
}

#[test]
fn datasets_at_seed_2009_match_their_committed_digests() {
    check(
        2009,
        &[
            0x034b_2565_41fa_5a6d,
            0xefd1_415a_27e3_656d,
            0xe07e_c35b_b87e_4de0,
            0x9639_c682_e528_cdcf,
            0x0715_9905_aebb_85f0,
            0x2ce0_4d36_d01b_1097,
            0x6b7e_8ca0_1899_394f,
        ],
    );
}

#[test]
fn datasets_at_seed_11_match_their_committed_digests() {
    check(
        11,
        &[
            0xa5f0_ce31_c7e1_4c69,
            0x736a_06ba_55cd_5203,
            0x826c_2c1e_e008_dbc5,
            0x69a6_24f4_5a01_4fe7,
            0x7e4a_e1c2_4541_7aa1,
            0x429a_003a_f18e_4c56,
            0xf3d8_0eab_1624_90d8,
        ],
    );
}
