//! Sequence file I/O: FASTA and relaxed (sequential) PHYLIP.
//!
//! The readers work on in-memory strings so that they are trivially testable;
//! thin `*_file` wrappers handle the filesystem. The writers produce output
//! that round-trips through the corresponding reader.

use std::path::Path;

use crate::alignment::Alignment;
use crate::error::DataError;

/// Parses a FASTA-formatted string into an [`Alignment`].
///
/// Sequence data may be wrapped over multiple lines; the description after the
/// first whitespace in a header line is ignored.
///
/// # Errors
///
/// [`DataError::Parse`] for structural problems, plus the usual alignment
/// validation errors (ragged rows, duplicate taxa, empty input).
pub fn parse_fasta(text: &str) -> Result<Alignment, DataError> {
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut current: Option<(String, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(done) = current.take() {
                rows.push(done);
            }
            let name = header.split_whitespace().next().unwrap_or("").to_string();
            if name.is_empty() {
                return Err(DataError::Parse(format!(
                    "line {}: empty FASTA header",
                    lineno + 1
                )));
            }
            current = Some((name, String::new()));
        } else {
            match current.as_mut() {
                Some((_, seq)) => seq.push_str(line.trim()),
                None => {
                    return Err(DataError::Parse(format!(
                        "line {}: sequence data before any '>' header",
                        lineno + 1
                    )))
                }
            }
        }
    }
    if let Some(done) = current.take() {
        rows.push(done);
    }
    Alignment::new(rows)
}

/// Serializes an alignment as FASTA, wrapping sequence lines at `width`
/// characters (a `width` of 0 writes each sequence on a single line).
pub fn write_fasta(alignment: &Alignment, width: usize) -> String {
    let mut out = String::new();
    for (i, name) in alignment.taxa().iter().enumerate() {
        out.push('>');
        out.push_str(name);
        out.push('\n');
        let row = alignment.row(i);
        if width == 0 {
            out.push_str(&String::from_utf8_lossy(row));
            out.push('\n');
        } else {
            for chunk in row.chunks(width) {
                out.push_str(&String::from_utf8_lossy(chunk));
                out.push('\n');
            }
        }
    }
    out
}

/// Parses a relaxed sequential PHYLIP string: a header line with the number of
/// taxa and columns, followed by one `name sequence` record per taxon (the
/// sequence may continue on following lines until the declared length is
/// reached).
///
/// # Errors
///
/// [`DataError::Parse`] on malformed headers or truncated records.
pub fn parse_phylip(text: &str) -> Result<Alignment, DataError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| DataError::Parse("empty PHYLIP input".into()))?;
    let mut header_tokens = header.split_whitespace();
    let n_taxa: usize = header_tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| DataError::Parse("bad PHYLIP header: missing taxon count".into()))?;
    let n_cols: usize = header_tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| DataError::Parse("bad PHYLIP header: missing column count".into()))?;

    // Not pre-sized: `n_taxa` is whatever the header claims.
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut pending: Option<(String, String)> = None;
    for raw in lines {
        let line = raw.trim();
        if let Some((name, seq)) = pending.as_mut() {
            seq.push_str(&line.replace(char::is_whitespace, ""));
            if seq.chars().count() >= n_cols {
                rows.push((name.clone(), seq.clone()));
                pending = None;
            }
            continue;
        }
        if rows.len() == n_taxa {
            break;
        }
        let mut tokens = line.splitn(2, char::is_whitespace);
        let name = tokens
            .next()
            .ok_or_else(|| DataError::Parse("missing taxon name in PHYLIP record".into()))?
            .to_string();
        let seq: String = tokens.next().unwrap_or("").replace(char::is_whitespace, "");
        if seq.chars().count() >= n_cols {
            rows.push((name, seq));
        } else {
            pending = Some((name, seq));
        }
    }
    if let Some((name, seq)) = pending {
        if seq.chars().count() >= n_cols {
            rows.push((name, seq));
        } else {
            return Err(DataError::Parse(format!(
                "taxon '{name}' has {} characters, header declares {n_cols}",
                seq.chars().count()
            )));
        }
    }
    if rows.len() != n_taxa {
        return Err(DataError::Parse(format!(
            "PHYLIP header declares {n_taxa} taxa but {} records were found",
            rows.len()
        )));
    }
    let alignment = Alignment::new(rows)?;
    if alignment.columns() != n_cols {
        return Err(DataError::Parse(format!(
            "PHYLIP header declares {n_cols} columns but rows have {}",
            alignment.columns()
        )));
    }
    Ok(alignment)
}

/// Serializes an alignment in relaxed sequential PHYLIP format.
pub fn write_phylip(alignment: &Alignment) -> String {
    let mut out = format!("{} {}\n", alignment.taxa_count(), alignment.columns());
    for (i, name) in alignment.taxa().iter().enumerate() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&String::from_utf8_lossy(alignment.row(i)));
        out.push('\n');
    }
    out
}

/// Reads an alignment from a FASTA file.
///
/// # Errors
///
/// I/O failures are mapped onto [`DataError::Parse`].
pub fn read_fasta_file<P: AsRef<Path>>(path: P) -> Result<Alignment, DataError> {
    let text = std::fs::read_to_string(&path)
        .map_err(|e| DataError::Parse(format!("cannot read {}: {e}", path.as_ref().display())))?;
    parse_fasta(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fasta_round_trip() {
        let text = ">t1 some description\nACGTAC\nGT\n>t2\nACGTACGA\n";
        let aln = parse_fasta(text).unwrap();
        assert_eq!(aln.taxa_count(), 2);
        assert_eq!(aln.columns(), 8);
        assert_eq!(aln.taxa()[0], "t1");

        let rewritten = write_fasta(&aln, 4);
        let reparsed = parse_fasta(&rewritten).unwrap();
        assert_eq!(reparsed, aln);

        let single_line = write_fasta(&aln, 0);
        assert_eq!(parse_fasta(&single_line).unwrap(), aln);
    }

    #[test]
    fn fasta_rejects_data_before_header() {
        assert!(parse_fasta("ACGT\n>t1\nACGT\n").is_err());
        assert!(parse_fasta(">\nACGT\n").is_err());
    }

    #[test]
    fn fasta_rejects_ragged_alignment() {
        assert!(parse_fasta(">a\nACGT\n>b\nACG\n").is_err());
    }

    #[test]
    fn phylip_round_trip() {
        let text = "3 8\ntaxon_1 ACGTACGT\ntaxon_2 ACGTACGA\ntaxon_3 ACCTACGA\n";
        let aln = parse_phylip(text).unwrap();
        assert_eq!(aln.taxa_count(), 3);
        assert_eq!(aln.columns(), 8);
        let rewritten = write_phylip(&aln);
        assert_eq!(parse_phylip(&rewritten).unwrap(), aln);
    }

    #[test]
    fn phylip_multi_line_records() {
        let text = "2 10\nt1 ACGTA\nCGTAC\nt2 ACGTACGTAC\n";
        let aln = parse_phylip(text).unwrap();
        assert_eq!(aln.columns(), 10);
        assert_eq!(aln.taxa()[0], "t1");
    }

    #[test]
    fn phylip_rejects_bad_header_and_truncation() {
        assert!(parse_phylip("").is_err());
        assert!(parse_phylip("x y\n").is_err());
        assert!(parse_phylip("2 8\nt1 ACGTACGT\n").is_err());
        assert!(parse_phylip("1 8\nt1 ACGT\n").is_err());
    }

    /// The header's taxon count is a claim, not a size to allocate: absurd
    /// counts are the ordinary record-count mismatch.
    #[test]
    fn phylip_header_taxon_count_is_not_trusted() {
        for claimed in ["18446744073709551615", "1000000000000"] {
            match parse_phylip(&format!("{claimed} 4\nA ACGT\n")) {
                Err(DataError::Parse(msg)) => assert!(
                    msg.contains(&format!(
                        "header declares {claimed} taxa but 1 records were found"
                    )),
                    "{msg}"
                ),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("plf_loadbalance_io_test.fasta");
        let aln = Alignment::new(vec![
            ("a".into(), "ACGT".into()),
            ("b".into(), "ACGA".into()),
        ])
        .unwrap();
        std::fs::write(&path, write_fasta(&aln, 0)).unwrap();
        let read = read_fasta_file(&path).unwrap();
        assert_eq!(read, aln);
        std::fs::remove_file(&path).ok();

        let missing = read_fasta_file("/nonexistent/path/xyz.fasta");
        assert!(missing.is_err());
    }
}
