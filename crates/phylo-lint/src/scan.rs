//! The scanner: applies the rules of [`crate::rules`] to source files,
//! honoring `#[cfg(test)]` exclusions, inline waivers, and — since PR 10 —
//! the per-file reachability scope computed by [`crate::callgraph`].
//!
//! L003/L004 remain workspace-wide. L001/L002/L005/L006 apply to lines
//! inside functions reachable from the op-path entry points
//! ([`FileScope::op_path`]); L007 to loop bodies of reachable kernel
//! functions ([`FileScope::kernel`]); L008 to reachable code outside the
//! telemetry timing facade ([`FileScope::clock`]).

use crate::lexer::{token_matches, SourceView};
use crate::rules::{Finding, RuleId};

/// The PR 7 hardcoded op-path file list, kept only as a **must-be-subset**
/// sanity check: every file here must still contain at least one function
/// the reachability analysis marks reachable, or the analysis (not the
/// code) has regressed. Scoping itself now comes from
/// [`crate::callgraph::ENTRY_POINTS`].
pub const OP_PATH_FILES: &[&str] = &[
    "crates/phylo-kernel/src/ops.rs",
    "crates/phylo-kernel/src/blocked.rs",
    "crates/phylo-kernel/src/slice.rs",
    "crates/phylo-kernel/src/tables.rs",
    "crates/phylo-kernel/src/executor.rs",
    "crates/phylo-kernel/src/engine.rs",
    "crates/phylo-parallel/src/pool.rs",
    "crates/phylo-parallel/src/threaded.rs",
    "crates/phylo-parallel/src/tracing.rs",
    "crates/phylo-serve/src/session.rs",
];

const L001_NEEDLES: &[&str] = &["panic!", ".unwrap()", ".expect(", "unreachable!", "todo!"];
const L002_NEEDLES: &[&str] = &["debug_assert!", "debug_assert_eq!", "debug_assert_ne!"];
const L004_NEEDLES: &[&str] = &["std::sync::atomic", "core::sync::atomic"];
const L005_NEEDLES: &[&str] = &["Mutex<", "RwLock<", ".lock()"];
/// Allocation forms banned inside kernel loop bodies. `.clone()` is here
/// for buffers — an `Arc` clone in an inner loop is also a (refcount
/// contention) bug, so no exception is carved out.
const L007_NEEDLES: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec()",
    ".collect",
    "format!",
    "Box::new",
    "String::new",
    ".to_string()",
    ".to_owned()",
    "with_capacity",
    ".clone()",
    ".push(",
    ".extend(",
];
const L008_NEEDLES: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "rand::random",
];
/// Iteration adaptors whose order is the hash order (L006).
const L006_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Whether `file` may mention `std::sync::atomic` (L004): anything under a
/// `sync` module of its crate.
pub fn in_sync_module(file: &str) -> bool {
    file.contains("/src/sync/") || file.ends_with("/src/sync.rs")
}

/// The line ranges (1-based, inclusive) a rule applies to in one file,
/// derived from the reachable function spans. A file absent from the
/// analysis gets [`FileScope::default`] — no op-path rules, matching the
/// old behavior for non-op-path files.
#[derive(Debug, Clone, Default)]
pub struct FileScope {
    /// L001/L002/L005/L006: reachable function bodies.
    pub op_path: Vec<(usize, usize)>,
    /// L007: reachable functions in kernel-loop files.
    pub kernel: Vec<(usize, usize)>,
    /// L008: reachable functions outside the telemetry facade.
    pub clock: Vec<(usize, usize)>,
}

impl FileScope {
    /// A scope covering the whole file under every rule — used by
    /// seeded-violation self-tests.
    pub fn everything() -> Self {
        let all = vec![(1, usize::MAX)];
        Self {
            op_path: all.clone(),
            kernel: all.clone(),
            clock: all,
        }
    }
}

fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// One `// lint:allow(LXXX): reason` directive, tracked for the stale audit.
#[derive(Debug, Clone)]
struct WaiverSite {
    /// `None` when the comment names an unknown rule ID.
    rule: Option<RuleId>,
    /// The rule text as written.
    raw_rule: String,
    /// Line the directive's comment starts on (reported for stale waivers).
    line: usize,
    /// The single code line this waiver covers: its own line for a trailing
    /// comment, otherwise the first code line after the comment block
    /// (0 = no code follows, the waiver can never match).
    target: usize,
    has_reason: bool,
    used: bool,
}

/// Parses every `lint:allow(...)` directive in `text`, anchored at `line`
/// and covering `target`.
fn parse_directives(text: &str, line: usize, target: usize, out: &mut Vec<WaiverSite>) {
    let mut from = 0;
    while let Some(pos) = text[from..].find("lint:allow(") {
        let at = from + pos + "lint:allow(".len();
        let Some(close) = text[at..].find(')') else {
            break;
        };
        let raw_rule = text[at..at + close].trim().to_string();
        let rest = text[at + close + 1..].trim_start();
        let has_reason = rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        out.push(WaiverSite {
            rule: RuleId::parse(&raw_rule),
            raw_rule,
            line,
            target,
            has_reason,
            used: false,
        });
        from = at + close + 1;
    }
}

fn collect_waivers(view: &SourceView) -> Vec<WaiverSite> {
    // Which lines of the blanked view still hold code (1-based).
    let code_has: Vec<bool> = std::iter::once(false) // line 0 padding
        .chain(view.code.lines().map(|l| !l.trim().is_empty()))
        .collect();
    let has_code = |line: usize| code_has.get(line).copied().unwrap_or(false);

    let mut out = Vec::new();
    let comments = &view.comments;
    let mut i = 0usize;
    while i < comments.len() {
        let (line, text) = (&comments[i].0, &comments[i].1);
        // A waiver comment *starts* with the directive (several may be
        // chained, and the chain may wrap onto continuation lines); prose
        // that merely mentions the syntax — like this crate's own docs — is
        // not a waiver.
        if !text.trim_start().starts_with("lint:allow(") {
            i += 1;
            continue;
        }
        if has_code(*line) {
            // Trailing comment on a code line: covers exactly that line.
            parse_directives(text, *line, *line, &mut out);
            i += 1;
            continue;
        }
        // Standalone comment block: absorb continuation lines (consecutive
        // comment-only lines that don't start a new directive), then cover
        // the first code line after the block.
        let mut chained = text.clone();
        let mut last = *line;
        let mut j = i + 1;
        while j < comments.len()
            && comments[j].0 == last + 1
            && !has_code(comments[j].0)
            && !comments[j].1.trim_start().starts_with("lint:allow(")
        {
            chained.push(' ');
            chained.push_str(&comments[j].1);
            last = comments[j].0;
            j += 1;
        }
        let target = (last + 1..code_has.len())
            .find(|&l| code_has[l])
            .unwrap_or(0);
        parse_directives(&chained, *line, target, &mut out);
        i = j;
    }
    out
}

/// Marks any waiver covering (`rule`, `line`) as used; returns whether the
/// finding is suppressed (a matching waiver with a non-empty reason).
fn apply_waivers(waivers: &mut [WaiverSite], rule: RuleId, line: usize) -> bool {
    let mut suppressed = false;
    for w in waivers.iter_mut() {
        if w.rule == Some(rule) && w.target == line {
            w.used = true;
            if w.has_reason {
                suppressed = true;
            }
        }
    }
    suppressed
}

/// A waiver comment that matched no current finding — itself an error
/// (satellite: waivers must not rot after refactors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleWaiver {
    pub file: String,
    pub line: usize,
    /// The rule text as written in the comment.
    pub rule: String,
}

impl StaleWaiver {
    /// The canonical report line.
    pub fn render(&self) -> String {
        format!(
            "stale waiver lint:allow({}) at {}:{} matches no current finding",
            self.rule, self.file, self.line
        )
    }
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
/// Operates on the blanked code view, so strings can't fake the attribute.
pub fn cfg_test_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut from = 0usize;
    let flat = code;
    while let Some(pos) = flat[from..].find("#[cfg(test)]") {
        let start = from + pos;
        let start_line = flat[..start].matches('\n').count() + 1;
        // Find the item body: the first `{` after the attribute (brace-match
        // to its close), or a `;` if it comes first (attribute on a
        // braceless item).
        let mut j = start + "#[cfg(test)]".len();
        let mut end = flat.len();
        let body = flat[j..].find(['{', ';']).map(|o| j + o);
        if let Some(open) = body {
            if flat[open..].starts_with(';') {
                end = open;
            } else {
                let mut depth = 0usize;
                j = open;
                while j < flat.len() {
                    match flat.as_bytes()[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        let end_line = flat[..end].matches('\n').count() + 1;
        ranges.push((start_line, end_line));
        from = start + 1;
    }
    ranges
}

/// Line ranges of loop bodies (`for`/`while`/`loop`), for L007. Runs over
/// the blanked code view. `impl Trait for Type` and HRTB `for<'a>` are not
/// loops; closure braces inside a loop header are skipped via paren depth.
pub fn loop_ranges(code: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = code.chars().collect();
    let mut line_at = Vec::with_capacity(chars.len());
    let mut line = 1usize;
    for &c in &chars {
        line_at.push(line);
        if c == '\n' {
            line += 1;
        }
    }
    let line_of = |i: usize| -> usize {
        line_at
            .get(i.min(line_at.len().saturating_sub(1)))
            .copied()
            .unwrap_or(1)
    };
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if !(c.is_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        if i > 0 && ident(chars[i - 1]) {
            while i < chars.len() && ident(chars[i]) {
                i += 1;
            }
            continue;
        }
        let start = i;
        while i < chars.len() && ident(chars[i]) {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        let is_loop = match word.as_str() {
            "while" | "loop" => true,
            "for" => {
                let mut j = i;
                while j < chars.len() && chars[j].is_whitespace() {
                    j += 1;
                }
                if chars.get(j) == Some(&'<') {
                    false // HRTB `for<'a>`
                } else {
                    // `impl Trait for Type`: "for" preceded by a path
                    // segment or closing generics.
                    let mut p = start;
                    while p > 0 && chars[p - 1].is_whitespace() {
                        p -= 1;
                    }
                    !(p > 0 && (ident(chars[p - 1]) || chars[p - 1] == '>'))
                }
            }
            _ => false,
        };
        if !is_loop {
            continue;
        }
        // The body `{`: first brace at bracket depth 0 (closures inside the
        // header sit behind parens; struct literals are illegal in loop
        // headers without parens).
        let mut j = i;
        let mut depth = 0i32;
        while j < chars.len() {
            match chars[j] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '{' if depth == 0 => break,
                ';' if depth == 0 => {
                    j = chars.len();
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if chars.get(j) != Some(&'{') {
            continue;
        }
        let open = j;
        let mut bd = 0usize;
        let mut close = chars.len().saturating_sub(1);
        while j < chars.len() {
            match chars[j] {
                '{' => bd += 1,
                '}' => {
                    bd -= 1;
                    if bd == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out.push((line_of(open), line_of(close)));
        i = open + 1; // keep scanning inside: nested loops get own ranges
    }
    out
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file — locals
/// (`let m = HashMap::new()`), fields (`tenants: HashMap<..>`) and
/// parameters (`m: &HashMap<..>`). File-local by construction: a hash map
/// bound in another file and iterated here is a documented
/// under-approximation.
pub fn hash_bindings(code: &str) -> Vec<String> {
    let keyword = |s: &str| {
        matches!(
            s,
            "in" | "if" | "let" | "mut" | "ref" | "pub" | "fn" | "where" | "return" | "as"
        )
    };
    let trailing_ident = |s: &str| -> Option<String> {
        let t = s.trim_end();
        let start = t
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        let id = &t[start..];
        (!id.is_empty() && !id.starts_with(|c: char| c.is_ascii_digit()) && !keyword(id))
            .then(|| id.to_string())
    };
    let mut out: Vec<String> = Vec::new();
    for line in code.lines() {
        for ty in ["HashMap", "HashSet"] {
            for col in token_matches(line, ty) {
                let mut before = line[..col].trim_end();
                // See through reference sigils: `lanes: &HashSet<..>`,
                // `m: &mut HashMap<..>`.
                loop {
                    let prev = before;
                    before = before.trim_end_matches('&').trim_end();
                    if let Some(b) = before.strip_suffix("mut") {
                        if b.ends_with([' ', '&']) {
                            before = b.trim_end();
                        }
                    }
                    if before == prev {
                        break;
                    }
                }
                let name = if let Some(b) = before.strip_suffix(':') {
                    if b.ends_with(':') {
                        None // `std::collections::HashMap` path segment
                    } else {
                        trailing_ident(b)
                    }
                } else if let Some(b) = before.strip_suffix('=') {
                    let b = b.trim_end();
                    if b.ends_with(['=', '!', '<', '>', '+', '-', '*', '/', '&', '|']) {
                        None // comparison / compound assignment / match arm
                    } else {
                        trailing_ident(b)
                    }
                } else {
                    None
                };
                if let Some(n) = name {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// L006 hits on one code line: iteration over any of `bindings`.
fn hash_iteration_hit(code_line: &str, bindings: &[String]) -> bool {
    for b in bindings {
        for col in token_matches(code_line, b) {
            let rest = &code_line[col + b.len()..];
            if L006_SUFFIXES.iter().any(|s| rest.starts_with(s)) {
                return true;
            }
            // `for x in map` / `for x in &map` / `for x in &mut self.map`:
            // strip receiver path segments (`self.`, `state.inner.`),
            // reference sigils and `mut` back to the `in` keyword.
            let mut before = code_line[..col].trim_end();
            loop {
                let prev = before;
                if let Some(b2) = before.strip_suffix('.') {
                    before = b2.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
                }
                before = before.trim_end_matches('&').trim_end();
                if let Some(b2) = before.strip_suffix("mut") {
                    if b2.ends_with([' ', '&']) || b2.is_empty() {
                        before = b2.trim_end();
                    }
                }
                if before == prev {
                    break;
                }
            }
            if before.ends_with("in")
                && before[..before.len() - 2]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
            {
                return true;
            }
        }
    }
    false
}

/// Checks whether line `line` of `view` is justified by a `SAFETY:` comment:
/// on the same line, or in the run of comment-only lines directly above.
fn has_safety_comment(view: &SourceView, line: usize) -> bool {
    if view.comments_on(line).any(|c| c.contains("SAFETY:")) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 && view.line_is_comment_only(l) {
        if view.comments_on(l).any(|c| c.contains("SAFETY:")) {
            return true;
        }
        l -= 1;
    }
    false
}

/// One `unsafe` site, for the inventory report.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: usize,
    /// `"block"`, `"impl"`, `"fn"` or `"trait"`.
    pub kind: &'static str,
    /// Whether a `SAFETY:` justification was found next to it.
    pub justified: bool,
    /// The source line, trimmed.
    pub excerpt: String,
}

/// The result of scanning one file (or a whole workspace, merged).
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub stale_waivers: Vec<StaleWaiver>,
}

/// Scans one file's source. `file` is the workspace-relative path with
/// forward slashes; `scope` carries the reachability-derived line ranges
/// the op-path rules apply to.
pub fn scan_source(file: &str, source: &str, scope: &FileScope) -> FileScan {
    let view = SourceView::new(source);
    let test_ranges = cfg_test_ranges(&view.code);
    let loops = loop_ranges(&view.code);
    let bindings = hash_bindings(&view.code);
    let mut waivers = collect_waivers(&view);
    let src_lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: usize| -> String {
        src_lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_string())
    };
    let mut out = FileScan::default();
    let sync_module = in_sync_module(file);

    for (idx, code_line) in view.code.lines().enumerate() {
        let line = idx + 1;
        let tested = in_ranges(&test_ranges, line);
        let mut hit = |rule: RuleId, matched: bool, waivers: &mut Vec<WaiverSite>| {
            if matched && !apply_waivers(waivers, rule, line) {
                out.findings.push(Finding {
                    rule,
                    file: file.to_string(),
                    line,
                    excerpt: excerpt(line),
                });
            }
        };
        let needles_hit = |needles: &[&str]| {
            needles
                .iter()
                .any(|n| !token_matches(code_line, n).is_empty())
        };
        if !tested {
            if in_ranges(&scope.op_path, line) {
                hit(RuleId::L001, needles_hit(L001_NEEDLES), &mut waivers);
                hit(RuleId::L002, needles_hit(L002_NEEDLES), &mut waivers);
                hit(RuleId::L005, needles_hit(L005_NEEDLES), &mut waivers);
                hit(
                    RuleId::L006,
                    hash_iteration_hit(code_line, &bindings),
                    &mut waivers,
                );
            }
            if in_ranges(&scope.kernel, line) && in_ranges(&loops, line) {
                hit(RuleId::L007, needles_hit(L007_NEEDLES), &mut waivers);
            }
            if in_ranges(&scope.clock, line) {
                hit(RuleId::L008, needles_hit(L008_NEEDLES), &mut waivers);
            }
        }
        if !sync_module {
            hit(RuleId::L004, needles_hit(L004_NEEDLES), &mut waivers);
        }

        // L003 + inventory: classify each `unsafe` keyword.
        for col in token_matches(code_line, "unsafe") {
            let rest = code_line[col + "unsafe".len()..].trim_start();
            let kind = if rest.starts_with("impl") {
                "impl"
            } else if rest.starts_with("fn") {
                "fn"
            } else if rest.starts_with("trait") {
                "trait"
            } else if rest.starts_with('{') || rest.is_empty() {
                // `unsafe {` — possibly with the brace on the next line.
                "block"
            } else {
                // `unsafe extern`, attribute position, etc.; inventory as a
                // block-like site.
                "block"
            };
            let justified = has_safety_comment(&view, line);
            out.unsafe_sites.push(UnsafeSite {
                file: file.to_string(),
                line,
                kind,
                justified,
                excerpt: excerpt(line),
            });
            // Blocks and impls require the SAFETY comment (L003); `unsafe
            // fn` declares an obligation for *callers* and documents it in
            // its `# Safety` rustdoc section instead.
            let requires = matches!(kind, "block" | "impl" | "trait");
            if requires && !justified && !apply_waivers(&mut waivers, RuleId::L003, line) {
                out.findings.push(Finding {
                    rule: RuleId::L003,
                    file: file.to_string(),
                    line,
                    excerpt: excerpt(line),
                });
            }
        }
    }

    // Stale-waiver audit: every waiver must have matched a raw finding —
    // including waivers naming unknown rules, which can never match.
    for w in &waivers {
        if !w.used {
            out.stale_waivers.push(StaleWaiver {
                file: file.to_string(),
                line: w.line,
                rule: w.raw_rule.clone(),
            });
        }
    }
    out.findings.sort_by_key(|f| (f.line, f.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OP_FILE: &str = "crates/phylo-kernel/src/ops.rs";
    const OTHER_FILE: &str = "crates/phylo-tree/src/lib.rs";

    fn rules_fired(file: &str, src: &str) -> Vec<RuleId> {
        scan_source(file, src, &FileScope::everything())
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    fn rules_fired_unscoped(file: &str, src: &str) -> Vec<RuleId> {
        scan_source(file, src, &FileScope::default())
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn l001_fires_on_each_banned_construct() {
        for src in [
            "fn f() { panic!(\"x\"); }\n",
            "fn f() { x.unwrap(); }\n",
            "fn f() { x.expect(\"y\"); }\n",
            "fn f() { unreachable!(); }\n",
            "fn f() { todo!(); }\n",
        ] {
            assert_eq!(rules_fired(OP_FILE, src), vec![RuleId::L001], "src: {src}");
        }
    }

    #[test]
    fn op_path_rules_are_scoped_by_reachability() {
        // With an empty scope — the function is not reachable — nothing
        // fires, whatever the file is.
        assert!(rules_fired_unscoped(OP_FILE, "fn f() { x.unwrap(); }\n").is_empty());
        // With a scope covering only lines 1-2, line 4 stays clean.
        let src = "fn hot() {\n    x.unwrap();\n}\nfn cold() { y.unwrap(); }\n";
        let scope = FileScope {
            op_path: vec![(1, 3)],
            ..Default::default()
        };
        let findings = scan_source(OP_FILE, src, &scope).findings;
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn l001_ignores_cfg_test_and_comments_and_strings() {
        let src = "\
// a comment mentioning panic!(\"x\")
fn ok() { let s = \"unwrap()\"; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); assert!(matches!(y, Err(_))); panic!(\"boom\"); }
}
";
        assert!(rules_fired(OP_FILE, src).is_empty());
    }

    #[test]
    fn l002_fires_on_debug_assert_family() {
        let src = "fn f() { debug_assert!(a); debug_assert_eq!(b, c); }\n";
        let fired = rules_fired(OP_FILE, src);
        assert_eq!(fired, vec![RuleId::L002]);
        // Plain assert! is allowed (construction-time invariants).
        assert!(rules_fired(OP_FILE, "fn f() { assert!(a); }\n").is_empty());
    }

    #[test]
    fn l003_requires_safety_comment() {
        let bad = "fn f() { unsafe { do_it() } }\n";
        assert_eq!(rules_fired_unscoped(OTHER_FILE, bad), vec![RuleId::L003]);
        let good =
            "fn f() {\n    // SAFETY: exclusive access proven above.\n    unsafe { do_it() }\n}\n";
        assert!(rules_fired_unscoped(OTHER_FILE, good).is_empty());
        let bad_impl = "unsafe impl Send for X {}\n";
        assert_eq!(
            rules_fired_unscoped(OTHER_FILE, bad_impl),
            vec![RuleId::L003]
        );
        // `unsafe fn` documents its contract in rustdoc, not a SAFETY line.
        assert!(rules_fired_unscoped(OTHER_FILE, "unsafe fn g() {}\n").is_empty());
    }

    #[test]
    fn l004_confines_atomics_to_sync_module() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(rules_fired_unscoped(OTHER_FILE, src), vec![RuleId::L004]);
        assert!(rules_fired_unscoped("crates/phylo-telemetry/src/sync/atomic.rs", src).is_empty());
        // The facade path is fine anywhere.
        assert!(
            rules_fired_unscoped(OTHER_FILE, "use crate::sync::atomic::AtomicU64;\n").is_empty()
        );
    }

    #[test]
    fn l005_blocks_locks_in_op_path() {
        for src in [
            "struct S { m: Mutex<u32> }\n",
            "struct S { m: RwLock<u32> }\n",
            "fn f(m: &std::sync::Mutex<u32>) { let _g = m.lock(); }\n",
        ] {
            assert!(
                rules_fired(OP_FILE, src).contains(&RuleId::L005),
                "src: {src}"
            );
        }
        assert!(rules_fired_unscoped(OTHER_FILE, "struct S { m: Mutex<u32> }\n").is_empty());
    }

    #[test]
    fn l006_flags_hash_iteration_in_op_scope() {
        // Seeded violation: every banned iteration form fires.
        for stmt in [
            "for (k, v) in &tenants { use_it(k, v); }",
            "for k in tenants.keys() { use_it(k); }",
            "let total: u64 = tenants.values().sum();",
            "tenants.iter().for_each(|x| use_it(x));",
            "for (k, v) in tenants.drain() { use_it(k, v); }",
        ] {
            let src = format!("struct S {{ tenants: HashMap<u64, usize> }}\nfn f() {{ {stmt} }}\n");
            assert_eq!(
                rules_fired(OP_FILE, &src),
                vec![RuleId::L006],
                "stmt: {stmt}"
            );
        }
        // Point lookups are fine; BTreeMap iteration is fine.
        for stmt in [
            "let v = tenants.get(&1);",
            "tenants.insert(1, 2);",
            "for (k, v) in &sorted { use_it(k, v); }",
        ] {
            let src = format!(
                "struct S {{ tenants: HashMap<u64, usize>, sorted: BTreeMap<u64, usize> }}\nfn f() {{ {stmt} }}\n"
            );
            assert!(rules_fired(OP_FILE, &src).is_empty(), "stmt: {stmt}");
        }
    }

    #[test]
    fn l006_sees_through_field_access_receivers() {
        let src = "\
struct S { tenants: HashMap<u64, usize> }
impl S {
    fn f(&self) {
        for (k, v) in &self.tenants { use_it(k, v); }
    }
    fn g(&mut self) {
        self.tenants.insert(1, 2);
    }
}
";
        let findings = scan_source(OP_FILE, src, &FileScope::everything()).findings;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::L006);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn prose_mentioning_the_waiver_syntax_is_not_a_waiver() {
        // Docs explaining `// lint:allow(L001): reason` must neither
        // suppress findings nor count as stale.
        let src = "\
/// Findings can be waived with `// lint:allow(L001): reason`.
fn f() { x.unwrap(); }
";
        let scan = scan_source(OP_FILE, src, &FileScope::everything());
        assert_eq!(scan.findings.len(), 1);
        assert!(scan.stale_waivers.is_empty());
    }

    #[test]
    fn chained_waivers_in_one_comment_each_apply() {
        let src = "\
fn f() {
    // lint:allow(L001): poisoning is fatal by design lint:allow(L005): held one line
    let g = m.lock().unwrap();
}
";
        let scan = scan_source(OP_FILE, src, &FileScope::everything());
        assert!(scan.findings.is_empty(), "{:?}", scan.findings);
        assert!(scan.stale_waivers.is_empty());
    }

    #[test]
    fn l006_binding_detection_covers_let_field_and_param() {
        let code = "\
struct S { tenants: HashMap<u64, usize> }
fn f(lanes: &HashSet<u64>) {
    let mut local = HashMap::new();
}
use std::collections::HashMap;
";
        let b = hash_bindings(code);
        assert_eq!(b, vec!["lanes", "local", "tenants"]);
    }

    #[test]
    fn l007_flags_allocation_only_inside_loops() {
        let src = "\
fn step() {
    let mut buf = Vec::with_capacity(n);
    for p in 0..n {
        let tmp = slice.to_vec();
    }
}
";
        let findings = scan_source(OP_FILE, src, &FileScope::everything()).findings;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::L007);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn l007_each_allocation_form_fires_in_a_loop() {
        for stmt in [
            "let v = Vec::new();",
            "let v = vec![0.0; 4];",
            "let v = x.to_vec();",
            "let v: Vec<_> = it.collect();",
            "let s = format!(\"{p}\");",
            "let b = Box::new(p);",
            "let c = buf.clone();",
            "out.push(p);",
        ] {
            let src = format!("fn step() {{\n    loop {{\n        {stmt}\n    }}\n}}\n");
            assert_eq!(
                rules_fired(OP_FILE, &src),
                vec![RuleId::L007],
                "stmt: {stmt}"
            );
        }
    }

    #[test]
    fn l007_is_scoped_to_kernel_ranges() {
        let src = "fn step() { for p in 0..n { out.push(p); } }\n";
        let scope = FileScope {
            op_path: vec![(1, usize::MAX)],
            kernel: vec![],
            clock: vec![(1, usize::MAX)],
        };
        assert!(scan_source(OP_FILE, src, &scope).findings.is_empty());
    }

    #[test]
    fn l008_flags_clock_and_rng() {
        for stmt in [
            "let t = Instant::now();",
            "let t = SystemTime::now();",
            "let mut rng = thread_rng();",
        ] {
            let src = format!("fn f() {{ {stmt} }}\n");
            assert_eq!(
                rules_fired(OP_FILE, &src),
                vec![RuleId::L008],
                "stmt: {stmt}"
            );
        }
        // The telemetry facade's scope has empty `clock` ranges, so the
        // same line is clean there.
        let scope = FileScope {
            op_path: vec![(1, usize::MAX)],
            kernel: vec![],
            clock: vec![],
        };
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(
            scan_source("crates/phylo-telemetry/src/timing.rs", src, &scope)
                .findings
                .is_empty()
        );
    }

    #[test]
    fn loop_ranges_skip_impl_for_and_hrtb() {
        let code = "\
impl Executor for A {
    fn f<F: for<'a> Fn(&'a u8)>(&self) {
        for i in 0..3 {
            work(i);
        }
    }
}
";
        let ranges = loop_ranges(code);
        assert_eq!(ranges, vec![(3, 5)]);
    }

    #[test]
    fn waiver_with_reason_suppresses_waiver_without_does_not() {
        let with = "fn f() {\n    // lint:allow(L001): test-only fault injection hook\n    panic!(\"x\");\n}\n";
        assert!(rules_fired(OP_FILE, with).is_empty());
        let without = "fn f() {\n    // lint:allow(L001):\n    panic!(\"x\");\n}\n";
        assert_eq!(rules_fired(OP_FILE, without), vec![RuleId::L001]);
        let wrong_rule =
            "fn f() {\n    // lint:allow(L002): mismatched rule\n    panic!(\"x\");\n}\n";
        assert_eq!(rules_fired(OP_FILE, wrong_rule), vec![RuleId::L001]);
    }

    #[test]
    fn stale_waivers_are_reported() {
        // A waiver matching a live finding is not stale...
        let live = "fn f() {\n    // lint:allow(L001): known hook\n    panic!(\"x\");\n}\n";
        let scan = scan_source(OP_FILE, live, &FileScope::everything());
        assert!(scan.findings.is_empty());
        assert!(scan.stale_waivers.is_empty());
        // ...a waiver matching nothing is.
        let stale = "fn f() {\n    // lint:allow(L001): the panic was removed\n    ok();\n}\n";
        let scan = scan_source(OP_FILE, stale, &FileScope::everything());
        assert_eq!(scan.stale_waivers.len(), 1);
        assert_eq!(scan.stale_waivers[0].line, 2);
        assert_eq!(scan.stale_waivers[0].rule, "L001");
        // A waiver out of scope (unreachable fn) is stale too.
        let scan = scan_source(OP_FILE, live, &FileScope::default());
        assert_eq!(scan.stale_waivers.len(), 1);
        // A waiver naming an unknown rule can never match.
        let unknown = "// lint:allow(L999): no such rule\nfn f() {}\n";
        let scan = scan_source(OP_FILE, unknown, &FileScope::everything());
        assert_eq!(scan.stale_waivers.len(), 1);
        assert_eq!(scan.stale_waivers[0].rule, "L999");
    }

    #[test]
    fn unsafe_inventory_collects_all_sites() {
        let src = "\
// SAFETY: fine.
unsafe impl Send for X {}
unsafe fn g() {}
fn f() { unsafe { h() } }
";
        let scan = scan_source(OTHER_FILE, src, &FileScope::default());
        let kinds: Vec<&str> = scan.unsafe_sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["impl", "fn", "block"]);
        assert!(scan.unsafe_sites[0].justified);
        assert!(!scan.unsafe_sites[2].justified);
    }
}
