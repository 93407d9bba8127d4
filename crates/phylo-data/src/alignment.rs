//! Multiple sequence alignments.
//!
//! An [`Alignment`] stores the raw (ASCII) character matrix of `n` taxa by `m`
//! columns. Encoding into likelihood states happens later, per partition,
//! because a phylogenomic alignment may concatenate partitions of different
//! data types (the kernel's cyclic column distribution exists precisely to
//! balance mixed DNA/protein inputs).

use crate::alphabet::DataType;
use crate::error::DataError;

/// A multiple sequence alignment: a rectangular character matrix with named
/// rows (taxa).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    taxa: Vec<String>,
    /// Row-major character matrix; `rows[i]` has length `columns`.
    rows: Vec<Vec<u8>>,
    columns: usize,
}

impl Alignment {
    /// Builds an alignment from `(name, characters)` pairs.
    ///
    /// # Errors
    ///
    /// * [`DataError::Empty`] if no sequences are given,
    /// * [`DataError::DuplicateTaxon`] if two rows share a name,
    /// * [`DataError::UnequalSequenceLengths`] if the rows have differing
    ///   lengths,
    /// * [`DataError::InvalidCharacter`] for any non-ASCII character: the
    ///   matrix stores one byte per cell, and truncating `'Ł'` (U+0141) would
    ///   silently read it as `'A'`.
    pub fn new(rows: Vec<(String, String)>) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::Empty("alignment".into()));
        }
        let columns = rows[0].1.chars().filter(|c| !c.is_whitespace()).count();
        let mut taxa = Vec::with_capacity(rows.len());
        let mut data = Vec::with_capacity(rows.len());
        for (name, seq) in rows {
            if taxa.contains(&name) {
                return Err(DataError::DuplicateTaxon(name));
            }
            let mut bytes = Vec::with_capacity(columns);
            for (column, character) in seq.chars().filter(|c| !c.is_whitespace()).enumerate() {
                if !character.is_ascii() {
                    return Err(DataError::InvalidCharacter {
                        character,
                        sequence: name,
                        column,
                    });
                }
                bytes.push(character as u8);
            }
            if bytes.len() != columns {
                return Err(DataError::UnequalSequenceLengths {
                    expected: columns,
                    found: bytes.len(),
                    sequence: name,
                });
            }
            taxa.push(name);
            data.push(bytes);
        }
        Ok(Self {
            taxa,
            rows: data,
            columns,
        })
    }

    /// Builds an alignment directly from raw byte rows (used by the sequence
    /// simulator, which produces characters programmatically).
    ///
    /// # Errors
    ///
    /// Same validation as [`Alignment::new`].
    pub fn from_bytes(rows: Vec<(String, Vec<u8>)>) -> Result<Self, DataError> {
        let converted = rows
            .into_iter()
            .map(|(n, b)| (n, String::from_utf8_lossy(&b).into_owned()))
            .collect();
        Self::new(converted)
    }

    /// Number of taxa (rows).
    pub fn taxa_count(&self) -> usize {
        self.taxa.len()
    }

    /// Number of alignment columns.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Taxon names in row order.
    pub fn taxa(&self) -> &[String] {
        &self.taxa
    }

    /// Index of the taxon with the given name.
    pub fn taxon_index(&self, name: &str) -> Option<usize> {
        self.taxa.iter().position(|t| t == name)
    }

    /// The raw character (ASCII byte) at row `taxon`, column `column`.
    pub fn char_at(&self, taxon: usize, column: usize) -> u8 {
        self.rows[taxon][column]
    }

    /// The raw character row for a taxon.
    pub fn row(&self, taxon: usize) -> &[u8] {
        &self.rows[taxon]
    }

    /// Encodes one taxon's characters in `columns` under the given data type.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidCharacter`] for characters invalid under
    /// `data_type`.
    pub fn encode_columns(
        &self,
        taxon: usize,
        columns: &[usize],
        data_type: DataType,
    ) -> Result<Vec<u32>, DataError> {
        let mut out = Vec::with_capacity(columns.len());
        for &c in columns {
            let ch = self.rows[taxon][c] as char;
            match data_type.encode(ch) {
                Some(s) => out.push(s),
                None => {
                    return Err(DataError::InvalidCharacter {
                        character: ch,
                        sequence: self.taxa[taxon].clone(),
                        column: c,
                    })
                }
            }
        }
        Ok(out)
    }

    /// Returns true if every column of the alignment is distinct, i.e. the
    /// number of site patterns equals the number of columns (the paper's
    /// simulated datasets are constructed to have this property, `m = m'`).
    pub fn all_columns_unique(&self) -> bool {
        use std::collections::HashSet;
        let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(self.columns);
        for c in 0..self.columns {
            let col: Vec<u8> = (0..self.taxa.len()).map(|t| self.rows[t][c]).collect();
            if !seen.insert(col) {
                return false;
            }
        }
        true
    }

    /// Fraction of cells that are gap characters (`-`, `?`, `.`), a crude
    /// measure of how "gappy" a phylogenomic alignment is.
    pub fn gappyness(&self) -> f64 {
        let total = self.taxa.len() * self.columns;
        if total == 0 {
            return 0.0;
        }
        let gaps: usize = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .filter(|&&b| b == b'-' || b == b'?' || b == b'.')
                    .count()
            })
            .sum();
        gaps as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Alignment {
        Alignment::new(vec![
            ("t1".into(), "ACGTACGT".into()),
            ("t2".into(), "ACGTACGA".into()),
            ("t3".into(), "ACGAACGA".into()),
        ])
        .unwrap()
    }

    #[test]
    fn dimensions_and_names() {
        let a = toy();
        assert_eq!(a.taxa_count(), 3);
        assert_eq!(a.columns(), 8);
        assert_eq!(a.taxon_index("t2"), Some(1));
        assert_eq!(a.taxon_index("missing"), None);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Alignment::new(vec![
            ("t1".into(), "ACGT".into()),
            ("t2".into(), "ACG".into()),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::UnequalSequenceLengths { .. }));
    }

    #[test]
    fn rejects_duplicate_taxa() {
        let err = Alignment::new(vec![
            ("t1".into(), "ACGT".into()),
            ("t1".into(), "ACGT".into()),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::DuplicateTaxon(_)));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(Alignment::new(vec![]), Err(DataError::Empty(_))));
    }

    #[test]
    fn encode_columns_respects_data_type() {
        let a = toy();
        let dna = a.encode_columns(0, &[0, 1, 2, 3], DataType::Dna).unwrap();
        assert_eq!(dna, vec![0b0001, 0b0010, 0b0100, 0b1000]);
    }

    #[test]
    fn encode_reports_invalid_characters() {
        let a = Alignment::new(vec![("t1".into(), "AC1T".into())]).unwrap();
        let err = a
            .encode_columns(0, &[0, 1, 2, 3], DataType::Dna)
            .unwrap_err();
        assert!(matches!(
            err,
            DataError::InvalidCharacter { character: '1', .. }
        ));
    }

    /// One byte per cell: a non-ASCII residue is rejected where it enters,
    /// not truncated into some other residue (`'Ł'` as u8 is `'A'`).
    #[test]
    fn non_ascii_residues_are_rejected_not_truncated() {
        for (seq, character) in [("AŁGT", 'Ł'), ("AéGT", 'é')] {
            assert_eq!(
                Alignment::new(vec![("t1".into(), seq.into())]).unwrap_err(),
                DataError::InvalidCharacter {
                    character,
                    sequence: "t1".into(),
                    column: 1,
                }
            );
        }
        // A raw byte ≥ 0x80 is not UTF-8 and arrives as U+FFFD.
        assert_eq!(
            Alignment::from_bytes(vec![("t1".into(), vec![b'A', b'C', 0xE9, b'T'])]).unwrap_err(),
            DataError::InvalidCharacter {
                character: char::REPLACEMENT_CHARACTER,
                sequence: "t1".into(),
                column: 2,
            }
        );
    }

    #[test]
    fn unique_columns_detection() {
        let unique = Alignment::new(vec![
            ("t1".into(), "ACGT".into()),
            ("t2".into(), "AAGG".into()),
        ])
        .unwrap();
        assert!(unique.all_columns_unique());

        let repeated = Alignment::new(vec![
            ("t1".into(), "AAGT".into()),
            ("t2".into(), "AAGG".into()),
        ])
        .unwrap();
        assert!(!repeated.all_columns_unique());
    }

    #[test]
    fn gappyness_counts_missing_cells() {
        let a = Alignment::new(vec![
            ("t1".into(), "AC--".into()),
            ("t2".into(), "ACGT".into()),
        ])
        .unwrap();
        assert!((a.gappyness() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn whitespace_in_input_is_ignored() {
        let a = Alignment::new(vec![
            ("t1".into(), "AC GT".into()),
            ("t2".into(), "ACGT".into()),
        ])
        .unwrap();
        assert_eq!(a.columns(), 4);
    }
}
