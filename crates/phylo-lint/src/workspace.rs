//! Workspace discovery and the whole-tree analysis, plus the baseline file.

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::{self, ReachMetrics, ENTRY_POINTS};
use crate::items;
use crate::lexer::SourceView;
use crate::rules::Finding;
use crate::scan::{cfg_test_ranges, scan_source, FileScan, FileScope};

/// Locates the workspace root: ascends from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// First-party source files: `src/**/*.rs` of the root package and of every
/// `crates/*` member. `vendor/` (third-party stand-ins) and `target/` are
/// never visited; `tests/`, `benches/` and `examples/` are intentionally out
/// of scope — the rules guard shipped code paths.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            dirs.push(entry.path().join("src"));
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The workspace-relative, forward-slash form of `path` used in findings,
/// waiver scopes and the baseline file.
pub fn relative_name(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The whole-workspace analysis result: the merged scan, the reachability
/// metrics, and the files the reachable set touches (for the
/// `OP_PATH_FILES` subset sanity check).
pub struct WorkspaceAnalysis {
    pub scan: FileScan,
    /// Number of source files visited.
    pub files: usize,
    /// Total lines of those files (code, comments, tests and blanks alike):
    /// the tracked "net first-party line count".
    pub lines: usize,
    pub metrics: ReachMetrics,
    /// Workspace-relative files containing at least one reachable function.
    pub reachable_files: Vec<String>,
}

/// Runs the full pipeline over the workspace: read every first-party
/// source, extract fn/impl/trait items, build the call graph, compute
/// reachability from [`ENTRY_POINTS`], derive per-file scopes, and scan
/// each file under its scope.
pub fn analyze_workspace(root: &Path) -> WorkspaceAnalysis {
    let files = source_files(root);
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        if let Ok(source) = fs::read_to_string(path) {
            sources.push((relative_name(root, path), source));
        }
    }

    let mut all_items = items::FileItems::default();
    for (name, source) in &sources {
        let view = SourceView::new(source);
        let test_ranges = cfg_test_ranges(&view.code);
        all_items.append(items::extract(name, &view, &test_ranges));
    }
    let analysis = callgraph::analyze(all_items, ENTRY_POINTS);
    let scopes = analysis.file_scopes();

    let mut merged = FileScan::default();
    let empty = FileScope::default();
    for (name, source) in &sources {
        let scope = scopes.get(name).unwrap_or(&empty);
        let scan = scan_source(name, source, scope);
        merged.findings.extend(scan.findings);
        merged.unsafe_sites.extend(scan.unsafe_sites);
        merged.stale_waivers.extend(scan.stale_waivers);
    }
    merged
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let reachable_files = analysis.reachable_files();
    WorkspaceAnalysis {
        scan: merged,
        files: sources.len(),
        lines: sources.iter().map(|(_, s)| s.lines().count()).sum(),
        metrics: analysis.metrics,
        reachable_files,
    }
}

/// The committed baseline: grandfathered findings, one `RULE file:line` per
/// line, `#` comments and blank lines ignored. The repo's baseline ships —
/// and must stay — empty; the file exists so a future emergency has an
/// explicit, reviewable escape hatch.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<String>,
}

impl Baseline {
    /// Parses the baseline file's text.
    pub fn parse(text: &str) -> Self {
        Self {
            entries: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect(),
        }
    }

    /// Loads `lint-baseline.txt` from the workspace root (absent = empty).
    pub fn load(root: &Path) -> Self {
        fs::read_to_string(root.join("lint-baseline.txt"))
            .map(|t| Self::parse(&t))
            .unwrap_or_default()
    }

    /// Number of grandfathered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty (the healthy state).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits findings into (new, suppressed-by-baseline).
    pub fn partition(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        findings
            .into_iter()
            .partition(|f| !self.entries.contains(&f.baseline_key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn baseline_parses_and_partitions() {
        let b = Baseline::parse("# comment\n\nL001 crates/x/src/a.rs:10\n");
        assert_eq!(b.len(), 1);
        let findings = vec![
            Finding {
                rule: RuleId::L001,
                file: "crates/x/src/a.rs".into(),
                line: 10,
                excerpt: "x.unwrap()".into(),
            },
            Finding {
                rule: RuleId::L001,
                file: "crates/x/src/a.rs".into(),
                line: 11,
                excerpt: "y.unwrap()".into(),
            },
        ];
        let (new, old) = b.partition(findings);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 11);
        assert_eq!(old.len(), 1);
    }

    #[test]
    fn empty_baseline_is_empty() {
        assert!(Baseline::parse("# nothing\n").is_empty());
    }
}
