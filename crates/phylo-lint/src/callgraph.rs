//! The workspace call graph and reachability from the op-path entry points.
//!
//! PR 7's linter scoped its op-path rules by a hardcoded file list
//! (`OP_PATH_FILES`) — which drifted the moment PR 9 added `blocked.rs` and
//! never covered the `phylo-serve` session path at all. This module replaces
//! the list with the thing it approximated: the set of functions
//! **transitively reachable** from the declared per-op entry points, computed
//! over the extracted items of all 15 crates with the conservative
//! resolution of [`crate::resolve`]. The old file list survives only as a
//! must-be-subset sanity check (every `OP_PATH_FILES` file must still
//! contain at least one reachable function — otherwise the analysis, not the
//! code, has regressed).

use std::collections::BTreeMap;

use crate::items::FnItem;
use crate::resolve::Index;
use crate::scan::FileScope;

/// A declared op-path entry point: `name` is `fn_name` for free functions or
/// `Type::method` for associated items, and must exist in `file` — a missing
/// entry point is itself a gate violation, so renames can't silently shrink
/// the analyzed scope.
#[derive(Debug, Clone, Copy)]
pub struct EntryPoint {
    pub file: &'static str,
    pub name: &'static str,
}

/// The roots of the per-op hot path — everything a serving deployment
/// executes per kernel op, per worker drain, or per slot hand-off — and the
/// parsers outside input enters through.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    // Worker-side op execution (all backends funnel through these).
    ep("crates/phylo-kernel/src/executor.rs", "execute_on_worker"),
    ep("crates/phylo-kernel/src/executor.rs", "reduce_outputs"),
    ep(
        "crates/phylo-kernel/src/executor.rs",
        "SequentialExecutor::execute",
    ),
    // The one region-close path every executor ends a region through.
    ep("crates/phylo-kernel/src/executor.rs", "sample"),
    ep("crates/phylo-kernel/src/executor.rs", "end_region"),
    // Scalar tabled kernel steps.
    ep("crates/phylo-kernel/src/ops.rs", "newview_step_tabled"),
    ep("crates/phylo-kernel/src/ops.rs", "evaluate_edge_tabled"),
    ep("crates/phylo-kernel/src/ops.rs", "build_sumtable"),
    ep(
        "crates/phylo-kernel/src/ops.rs",
        "derivatives_from_sumtable",
    ),
    // Width-specialized blocked kernels (PR 9).
    ep("crates/phylo-kernel/src/blocked.rs", "newview_step_blocked"),
    ep(
        "crates/phylo-kernel/src/blocked.rs",
        "evaluate_edge_blocked",
    ),
    // The master-side engine API every driver loops over.
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_update_clvs",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_log_likelihood",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_log_likelihood_at",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_log_likelihood_partitions",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_prepare_branch",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_prepare_branch_at",
    ),
    ep(
        "crates/phylo-kernel/src/engine.rs",
        "LikelihoodKernel::try_branch_derivatives",
    ),
    // The one worker pool: the loop every pool thread runs (solo and
    // serving alike) and its per-entry body.
    ep("crates/phylo-parallel/src/pool.rs", "worker_loop"),
    ep("crates/phylo-parallel/src/pool.rs", "run_entry"),
    // Parallel backends: the execute() calls on top of it.
    ep(
        "crates/phylo-parallel/src/threaded.rs",
        "ThreadedExecutor::execute",
    ),
    ep(
        "crates/phylo-parallel/src/tracing.rs",
        "TracingExecutor::execute",
    ),
    // phylo-serve: the per-session executor, which runs its shards inline,
    // and the compute-slot hand-off it takes before a region.
    ep(
        "crates/phylo-serve/src/session.rs",
        "SessionExecutor::execute",
    ),
    ep("crates/phylo-serve/src/session.rs", "Slot::enter"),
    // The parsers: malformed input must come back as a typed error, never a
    // panic.
    ep("crates/phylo-data/src/io.rs", "parse_phylip"),
    ep("crates/phylo-data/src/io.rs", "parse_fasta"),
    ep("crates/phylo-data/src/partition.rs", "PartitionSet::parse"),
    ep("crates/phylo-tree/src/newick.rs", "parse_newick"),
];

const fn ep(file: &'static str, name: &'static str) -> EntryPoint {
    EntryPoint { file, name }
}

/// Files whose reachable functions are additionally subject to L007
/// (no per-pattern allocation inside loop bodies): the kernel inner loops.
/// `tables.rs` is deliberately absent — per-(partition, branch) table
/// construction allocates by design, once per branch rather than per
/// pattern.
pub const KERNEL_LOOP_FILES: &[&str] = &[
    "crates/phylo-kernel/src/ops.rs",
    "crates/phylo-kernel/src/blocked.rs",
    "crates/phylo-kernel/src/slice.rs",
];

/// The crate allowed to touch clocks on the op path: L008 exempts the
/// telemetry timing facade itself.
pub const CLOCK_FACADE_PREFIX: &str = "crates/phylo-telemetry/";

/// Reachability metrics reported in the envelope and drift-gated in CI.
#[derive(Debug, Clone, Default)]
pub struct ReachMetrics {
    /// Declared entry points.
    pub entry_points: usize,
    /// Entry points that matched no extracted item (must be empty).
    pub missing_entry_points: Vec<String>,
    /// Non-test functions extracted across the workspace.
    pub fns_total: usize,
    /// Functions transitively reachable from the entry points.
    pub fns_reachable: usize,
    /// Call sites inside non-test function bodies.
    pub callsites_total: usize,
    /// Call sites that resolved to at least one workspace function.
    pub callsites_resolved: usize,
    /// Call sites with no workspace target (std/vendored/constructors).
    pub callsites_unresolved: usize,
}

/// The result of the workspace call-graph analysis.
pub struct Analysis {
    pub items: Vec<FnItem>,
    /// Parallel to `items`: transitively reachable from an entry point.
    pub reachable: Vec<bool>,
    pub metrics: ReachMetrics,
}

impl Analysis {
    /// Workspace-relative files containing at least one reachable function.
    pub fn reachable_files(&self) -> Vec<String> {
        let mut files: Vec<String> = self
            .items
            .iter()
            .zip(&self.reachable)
            .filter(|(_, &r)| r)
            .map(|(it, _)| it.file.clone())
            .collect();
        files.sort();
        files.dedup();
        files
    }

    /// Derives each file's lint scope from the reachable function spans:
    /// `op_path` (L001/L002/L005/L006) covers every reachable body,
    /// `kernel` (L007) only those in [`KERNEL_LOOP_FILES`], and `clock`
    /// (L008) everything outside the telemetry facade.
    pub fn file_scopes(&self) -> BTreeMap<String, FileScope> {
        let mut scopes: BTreeMap<String, FileScope> = BTreeMap::new();
        for (item, &reach) in self.items.iter().zip(&self.reachable) {
            if !reach || !item.has_body {
                continue;
            }
            let scope = scopes.entry(item.file.clone()).or_default();
            let span = (item.start_line, item.end_line);
            scope.op_path.push(span);
            if KERNEL_LOOP_FILES.contains(&item.file.as_str()) {
                scope.kernel.push(span);
            }
            if !item.file.starts_with(CLOCK_FACADE_PREFIX) {
                scope.clock.push(span);
            }
        }
        scopes
    }
}

/// Builds the call graph over `items` and computes reachability from
/// `entries`. Test items are neither roots nor targets.
pub fn analyze(items: Vec<FnItem>, entries: &[EntryPoint]) -> Analysis {
    let index = Index::build(&items);

    // Resolve every non-test call site once, up front: the edge list is the
    // same whether or not the caller ends up reachable, and resolving all of
    // them gives a reachability-independent drift signal.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    let mut metrics = ReachMetrics {
        entry_points: entries.len(),
        ..Default::default()
    };
    for (i, item) in items.iter().enumerate() {
        if item.in_test {
            continue;
        }
        metrics.fns_total += 1;
        for call in &item.calls {
            metrics.callsites_total += 1;
            let targets = index.resolve(&items, item, call);
            if targets.is_empty() {
                metrics.callsites_unresolved += 1;
            } else {
                metrics.callsites_resolved += 1;
            }
            edges[i].extend(targets);
        }
        edges[i].sort_unstable();
        edges[i].dedup();
    }

    // Roots: each declared entry point must match exactly by file + name.
    let mut reachable = vec![false; items.len()];
    let mut queue: Vec<usize> = Vec::new();
    for entry in entries {
        let (qual, name) = match entry.name.split_once("::") {
            Some((q, n)) => (Some(q), n),
            None => (None, entry.name),
        };
        let mut found = false;
        for (i, item) in items.iter().enumerate() {
            if item.in_test || item.file != entry.file || item.name != name {
                continue;
            }
            match qual {
                Some(q) if item.qualifier.as_deref() != Some(q) => continue,
                None if item.qualifier.is_some() => continue,
                _ => {}
            }
            found = true;
            if !reachable[i] {
                reachable[i] = true;
                queue.push(i);
            }
        }
        if !found {
            metrics
                .missing_entry_points
                .push(format!("{} in {}", entry.name, entry.file));
        }
    }

    // BFS over the resolved edges. Trait declarations with no body are
    // legitimate nodes (their impls were fanned out at resolution time).
    while let Some(i) = queue.pop() {
        for &t in &edges[i] {
            if !reachable[t] && !items[t].in_test {
                reachable[t] = true;
                queue.push(t);
            }
        }
    }
    metrics.fns_reachable = reachable.iter().filter(|&&r| r).count();

    Analysis {
        items,
        reachable,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::SourceView;
    use crate::scan::cfg_test_ranges;

    fn items_of(sources: &[(&str, &str)]) -> Vec<FnItem> {
        let mut out = Vec::new();
        for (file, src) in sources {
            let view = SourceView::new(src);
            let ranges = cfg_test_ranges(&view.code);
            out.extend(extract(file, &view, &ranges));
        }
        out
    }

    #[test]
    fn reachability_crosses_crates_and_traits() {
        let items = items_of(&[
            (
                "crates/serve/src/pool.rs",
                "\
fn worker_loop(n: usize) { step(n); }
fn step(n: usize) { phylo_kernel::newview(n); }
fn dead(n: usize) { n.checked_add(1); }
",
            ),
            (
                "crates/kernel/src/ops.rs",
                "pub fn newview(n: usize) -> usize { inner(n) }\nfn inner(n: usize) -> usize { n }\n",
            ),
        ]);
        let a = analyze(
            items,
            &[EntryPoint {
                file: "crates/serve/src/pool.rs",
                name: "worker_loop",
            }],
        );
        let reach: Vec<&str> = a
            .items
            .iter()
            .zip(&a.reachable)
            .filter(|(_, &r)| r)
            .map(|(it, _)| it.name.as_str())
            .collect();
        assert!(reach.contains(&"worker_loop"));
        assert!(reach.contains(&"step"));
        assert!(reach.contains(&"newview"), "{reach:?}");
        assert!(reach.contains(&"inner"));
        assert!(!reach.contains(&"dead"));
        assert_eq!(a.metrics.fns_reachable, 4);
        assert!(a.metrics.missing_entry_points.is_empty());
    }

    #[test]
    fn missing_entry_point_is_reported() {
        let items = items_of(&[("crates/a/src/lib.rs", "fn real() {}\n")]);
        let a = analyze(
            items,
            &[EntryPoint {
                file: "crates/a/src/lib.rs",
                name: "renamed_away",
            }],
        );
        assert_eq!(a.metrics.missing_entry_points.len(), 1);
        assert_eq!(a.metrics.fns_reachable, 0);
    }

    #[test]
    fn qualified_entry_points_match_methods() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
struct Engine;
impl Engine {
    pub fn run(&self) { helper(); }
}
fn helper() {}
fn run() {}
",
        )]);
        let a = analyze(
            items,
            &[EntryPoint {
                file: "crates/a/src/lib.rs",
                name: "Engine::run",
            }],
        );
        // The method and its callee, NOT the same-named free fn.
        assert_eq!(a.metrics.fns_reachable, 2);
        let scopes = a.file_scopes();
        let scope = &scopes["crates/a/src/lib.rs"];
        assert_eq!(scope.op_path.len(), 2);
    }

    #[test]
    fn scopes_mark_kernel_and_clock_tiers() {
        let items = items_of(&[
            (
                "crates/phylo-kernel/src/ops.rs",
                "pub fn kernel_step(n: usize) { tick(n); }\nfn tick(_n: usize) {}\n",
            ),
            (
                "crates/phylo-telemetry/src/clock.rs",
                "pub fn tock(_n: usize) {}\n",
            ),
        ]);
        let mut items = items;
        // Wire ops::tick -> telemetry::tock by hand-editing the call list:
        // lexically `tick(n)` resolves same-file; add a cross-crate call.
        items[0].calls.push(crate::items::CallSite {
            kind: crate::items::CallKind::Free,
            name: "tock".into(),
            arity: 1,
            line: 1,
        });
        let a = analyze(
            items,
            &[EntryPoint {
                file: "crates/phylo-kernel/src/ops.rs",
                name: "kernel_step",
            }],
        );
        let scopes = a.file_scopes();
        let ops = &scopes["crates/phylo-kernel/src/ops.rs"];
        assert!(!ops.kernel.is_empty(), "ops.rs is a kernel-loop file");
        assert!(!ops.clock.is_empty());
        let tel = &scopes["crates/phylo-telemetry/src/clock.rs"];
        assert!(tel.kernel.is_empty());
        assert!(tel.clock.is_empty(), "telemetry facade is exempt from L008");
        assert!(!tel.op_path.is_empty(), "but not from L001/L002/L005/L006");
    }

    #[test]
    fn workspace_entry_points_are_well_formed() {
        for e in ENTRY_POINTS {
            assert!(e.file.starts_with("crates/"), "{}", e.file);
            assert!(e.file.ends_with(".rs"));
            assert!(!e.name.is_empty());
        }
    }
}
