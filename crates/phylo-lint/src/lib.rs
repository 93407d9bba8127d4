//! Workspace invariant linter for the phylogenetic-likelihood workspace.
//!
//! `phylo-lint` is a dependency-free static-analysis tool (its own
//! comment/string-aware lexer, no `syn`, no `rustc` internals) that enforces
//! the invariants the likelihood kernel's error-handling and concurrency
//! design rest on. It runs in CI as `cargo run -p phylo-lint -- --check` and
//! emits its result as a `plf-bench/v1` [`BenchEnvelope`] JSON document like
//! every other gate in the workspace.
//!
//! # Scoping: call-graph reachability (since PR 10)
//!
//! The op-path rules no longer apply to a hardcoded file list. The linter
//! extracts every `fn`/`impl`/`trait` item across all 15 crates
//! ([`items`]), resolves call sites conservatively ([`resolve`]: free calls
//! by name+arity with file/crate narrowing, `Type::method` by qualifier,
//! trait-method calls fanned out to **every** workspace impl), and computes
//! the set of functions transitively reachable from the declared op-path
//! entry points ([`callgraph::ENTRY_POINTS`]: `execute_on_worker`, the
//! scalar/blocked kernel steps, the engine `try_*` API, all four executor
//! backends, the pool's worker loop, the `phylo-serve` slot hand-off and the
//! four parsers of outside input).
//! The old `OP_PATH_FILES` list survives only as a must-be-subset sanity
//! check, and
//! the envelope drift-gates the entry-point count, the reachable-fn count
//! and the resolution quality so the analyzed scope can never silently
//! shrink.
//!
//! # Rules (stable IDs — public API, never renumbered)
//!
//! | ID | Invariant |
//! |----|-----------|
//! | **L001** | No `panic!` / `.unwrap()` / `.expect(` / `unreachable!` / `todo!` in functions reachable from the op-path entry points (outside `#[cfg(test)]`). Misuse surfaces as typed `OpError` / `KernelError`. |
//! | **L002** | No `debug_assert!` family guarding shape/soundness invariants in reachable op-path code — release builds must check too. |
//! | **L003** | Every `unsafe` block / `unsafe impl` is immediately preceded by a `// SAFETY:` comment; all sites are listed in the committed `UNSAFE_INVENTORY.md`. |
//! | **L004** | `std::sync::atomic` is confined to each crate's designated `sync` module. |
//! | **L005** | No `Mutex` / `RwLock` acquisition in reachable op-path code. |
//! | **L006** | No `HashMap`/`HashSet` iteration in reachable op-path code — hash order silently breaks the bit-identical lnL guarantee. |
//! | **L007** | No heap allocation inside loop bodies of reachable kernel functions (`ops.rs`, `blocked.rs`, `slice.rs`). |
//! | **L008** | No wall-clock or RNG in reachable op-path code outside the telemetry timing facade. |
//!
//! Findings can be waived inline with `// lint:allow(L001): reason` (the
//! reason is mandatory) trailing the offending line or in the comment block
//! directly above it (chains may wrap onto continuation lines). A waiver
//! matching **no current finding is itself an error** (the stale-waiver
//! audit), so waivers can't rot after refactors. A committed
//! `lint-baseline.txt` can grandfather findings — the repo keeps it empty.
//!
//! [`BenchEnvelope`]: phylo_telemetry::BenchEnvelope

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod inventory;
pub mod items;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use callgraph::{Analysis, EntryPoint, ReachMetrics, ENTRY_POINTS};
pub use rules::{Finding, RuleId, ALL_RULES};
pub use scan::{scan_source, FileScan, FileScope, StaleWaiver, UnsafeSite, OP_PATH_FILES};
pub use workspace::{analyze_workspace, find_root, Baseline, WorkspaceAnalysis};

use phylo_telemetry::BenchEnvelope;

/// Drift gate: the reachable set measured at PR 10 was 166 functions;
/// dropping below this floor means entry points got disconnected or the
/// extractor regressed, not that the workspace legitimately shrank.
pub const MIN_REACHABLE_FNS: f64 = 120.0;

/// Drift gate: fraction of call sites resolving to at least one workspace
/// target. Measured ~0.38 at PR 10 (the rest are std/vendored callees and
/// constructor noise); falling far below means resolution broke.
pub const MIN_RESOLVED_FRACTION: f64 = 0.30;

/// Builds the `plf-bench/v1` envelope for one lint run.
/// `new_findings` are post-baseline; each becomes a violation, as do stale
/// waivers, scope-drift regressions (missing entry points, reachable-set
/// shrinkage, an `OP_PATH_FILES` file with no reachable function) and the
/// baseline/inventory drift notes passed in `extra_violations`.
pub fn envelope(
    ws: &WorkspaceAnalysis,
    new_findings: &[Finding],
    baseline_len: usize,
    extra_violations: &[String],
) -> BenchEnvelope {
    let m = &ws.metrics;
    let mut env = BenchEnvelope::new("phylo_lint", "workspace first-party sources")
        .run_num("files_scanned", ws.files as f64)
        .run_num("rules", ALL_RULES.len() as f64)
        .gate("min_entry_points", ENTRY_POINTS.len() as f64)
        .gate("min_reachable_fns", MIN_REACHABLE_FNS)
        .gate("min_resolved_fraction", MIN_RESOLVED_FRACTION)
        .gate("min_op_path_files_covered", OP_PATH_FILES.len() as f64);
    for rule in ALL_RULES {
        let count = new_findings.iter().filter(|f| f.rule == *rule).count();
        env.measure(
            &format!("findings_{}", rule.as_str().to_lowercase()),
            count as f64,
        );
    }
    env.measure("first_party_lines", ws.lines as f64);
    env.measure("unsafe_sites", ws.scan.unsafe_sites.len() as f64);
    env.measure("baseline_entries", baseline_len as f64);
    env.measure("stale_waivers", ws.scan.stale_waivers.len() as f64);
    env.measure("entry_points", m.entry_points as f64);
    env.measure("entry_points_missing", m.missing_entry_points.len() as f64);
    env.measure("fns_total", m.fns_total as f64);
    env.measure("fns_reachable", m.fns_reachable as f64);
    env.measure("callsites_total", m.callsites_total as f64);
    env.measure("callsites_resolved", m.callsites_resolved as f64);
    env.measure("callsites_unresolved", m.callsites_unresolved as f64);
    let covered = OP_PATH_FILES
        .iter()
        .filter(|f| ws.reachable_files.iter().any(|r| r == *f))
        .count();
    env.measure("op_path_files_covered", covered as f64);

    for f in new_findings {
        env.violation(format!("{} ({})", f.render(), f.rule.summary()));
    }
    for w in &ws.scan.stale_waivers {
        env.violation(w.render());
    }
    for missing in &m.missing_entry_points {
        env.violation(format!(
            "entry point {missing} matched no extracted function — rename drift, update ENTRY_POINTS"
        ));
    }
    if (m.fns_reachable as f64) < MIN_REACHABLE_FNS {
        env.violation(format!(
            "reachable set shrank to {} fns (drift gate: >= {MIN_REACHABLE_FNS})",
            m.fns_reachable
        ));
    }
    let resolved_fraction = if m.callsites_total > 0 {
        m.callsites_resolved as f64 / m.callsites_total as f64
    } else {
        0.0
    };
    if resolved_fraction < MIN_RESOLVED_FRACTION {
        env.violation(format!(
            "call-site resolution fell to {resolved_fraction:.3} (drift gate: >= {MIN_RESOLVED_FRACTION})"
        ));
    }
    for f in OP_PATH_FILES {
        if !ws.reachable_files.iter().any(|r| r == f) {
            env.violation(format!(
                "op-path file {f} has no reachable function — the reachable set must stay a superset of OP_PATH_FILES"
            ));
        }
    }
    for v in extra_violations {
        env.violation(v.clone());
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_telemetry::BENCH_SCHEMA;

    fn empty_ws(metrics: ReachMetrics, reachable_files: Vec<String>) -> WorkspaceAnalysis {
        WorkspaceAnalysis {
            scan: FileScan::default(),
            files: 10,
            lines: 1234,
            metrics,
            reachable_files,
        }
    }

    fn healthy_metrics() -> ReachMetrics {
        ReachMetrics {
            entry_points: ENTRY_POINTS.len(),
            missing_entry_points: vec![],
            fns_total: 900,
            fns_reachable: 400,
            callsites_total: 1000,
            callsites_resolved: 600,
            callsites_unresolved: 400,
        }
    }

    fn all_op_files() -> Vec<String> {
        OP_PATH_FILES.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn envelope_counts_findings_per_rule() {
        let ws = empty_ws(healthy_metrics(), all_op_files());
        let findings = vec![Finding {
            rule: RuleId::L004,
            file: "crates/x/src/a.rs".into(),
            line: 1,
            excerpt: "use std::sync::atomic::AtomicU64;".into(),
        }];
        let env = envelope(&ws, &findings, 0, &[]);
        assert_eq!(env.schema, BENCH_SCHEMA);
        assert!(!env.passed());
        assert_eq!(env.measured_num("findings_l004"), Some(1.0));
        assert_eq!(env.measured_num("findings_l001"), Some(0.0));
        assert_eq!(env.measured_num("findings_l006"), Some(0.0));
        assert_eq!(env.measured_num("fns_reachable"), Some(400.0));
        assert_eq!(env.measured_num("first_party_lines"), Some(1234.0));
        let parsed = BenchEnvelope::parse(&env.to_json()).unwrap();
        assert_eq!(parsed, env);
    }

    #[test]
    fn healthy_run_passes() {
        let ws = empty_ws(healthy_metrics(), all_op_files());
        let env = envelope(&ws, &[], 0, &[]);
        assert!(env.passed(), "{:?}", env.violations);
        assert_eq!(
            env.measured_num("op_path_files_covered"),
            Some(OP_PATH_FILES.len() as f64)
        );
    }

    #[test]
    fn scope_drift_is_a_violation() {
        // Missing entry point.
        let mut m = healthy_metrics();
        m.missing_entry_points
            .push("gone in crates/x/src/a.rs".into());
        assert!(!envelope(&empty_ws(m, all_op_files()), &[], 0, &[]).passed());
        // Reachable set collapsed.
        let mut m = healthy_metrics();
        m.fns_reachable = 10;
        assert!(!envelope(&empty_ws(m, all_op_files()), &[], 0, &[]).passed());
        // Resolution collapsed.
        let mut m = healthy_metrics();
        m.callsites_resolved = 10;
        m.callsites_unresolved = 990;
        assert!(!envelope(&empty_ws(m, all_op_files()), &[], 0, &[]).passed());
        // An OP_PATH_FILES file fell out of the reachable set.
        let mut files = all_op_files();
        files.retain(|f| !f.ends_with("session.rs"));
        let env = envelope(&empty_ws(healthy_metrics(), files), &[], 0, &[]);
        assert!(!env.passed());
        assert!(env.violations.iter().any(|v| v.contains("session.rs")));
    }

    #[test]
    fn stale_waivers_fail_the_gate() {
        let mut ws = empty_ws(healthy_metrics(), all_op_files());
        ws.scan.stale_waivers.push(StaleWaiver {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "L001".into(),
        });
        let env = envelope(&ws, &[], 0, &[]);
        assert!(!env.passed());
        assert_eq!(env.measured_num("stale_waivers"), Some(1.0));
        assert!(env.violations[0].contains("stale waiver"));
    }

    #[test]
    fn rule_ids_round_trip_and_stay_stable() {
        for rule in ALL_RULES {
            assert_eq!(RuleId::parse(rule.as_str()), Some(*rule));
        }
        // The textual IDs are stable public API; this test is the tripwire.
        let ids: Vec<&str> = ALL_RULES.iter().map(|r| r.as_str()).collect();
        assert_eq!(
            ids,
            vec!["L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008"]
        );
    }
}
