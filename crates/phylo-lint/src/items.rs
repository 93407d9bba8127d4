//! Item extraction: functions, impl/trait context and call sites, from the
//! blanked code view — still no real parser.
//!
//! [`extract`] walks one file's [`SourceView`] and produces every `fn` item
//! with its enclosing qualifier (`impl Type`, `impl Trait for Type`,
//! `trait Name`), its arity and `self`-ness, its body span in lines, and the
//! call sites found inside the body. This is the raw material the call graph
//! in [`crate::callgraph`] resolves and traverses.
//!
//! The extractor is deliberately lexical. It understands exactly as much
//! Rust as the rules need: item keywords at item position, brace matching
//! over the blanked view (strings and comments can no longer confuse it),
//! angle-bracket generics with the `->`-inside-bounds wrinkle, `r#` raw
//! identifiers, and turbofish call syntax. Closure bodies belong to their
//! enclosing function; `(self.field)(x)` closure-field calls are *not*
//! collected (a documented under-approximation, see ARCHITECTURE.md).

use crate::lexer::SourceView;

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(args)` — a free function (or tuple-struct constructor, which
    /// will simply not resolve).
    Free,
    /// `recv.name(args)` — a method on some receiver whose type the lexical
    /// view cannot know; resolved conservatively to every workspace method
    /// of that name and arity.
    Method,
    /// `Qualifier::name(args)` with the *nearest* path segment as the
    /// qualifier. `Self::` is substituted with the enclosing impl type at
    /// collection time.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub kind: CallKind,
    /// Callee name with any `r#` prefix stripped.
    pub name: String,
    /// Number of argument expressions at the call (commas at paren depth 1,
    /// closure parameter lists skipped).
    pub arity: usize,
    /// 1-based line of the call.
    pub line: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path, set by the caller of [`extract`].
    pub file: String,
    /// Function name with any `r#` prefix stripped.
    pub name: String,
    /// Enclosing impl type or trait name (`None` for free functions).
    pub qualifier: Option<String>,
    /// The trait being implemented when the enclosing impl is
    /// `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Declared inside a `trait` block (signature or default body).
    pub is_trait_decl: bool,
    /// Whether the item has a body (`{ .. }` rather than `;`).
    pub has_body: bool,
    pub has_self: bool,
    /// Parameter count excluding `self`.
    pub arity: usize,
    /// 1-based first line (the `fn` keyword).
    pub start_line: usize,
    /// 1-based last line (the body's closing brace, or the `;`).
    pub end_line: usize,
    /// Lexically inside a `#[cfg(test)]` item.
    pub in_test: bool,
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Type::name` for methods/associated fns, plain `name` otherwise —
    /// the form the entry-point list uses.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that must never be read as a callee name.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "move", "unsafe", "let", "in",
    "as", "ref", "mut", "break", "continue", "where", "impl", "dyn", "box", "async", "await",
    "yield", "static", "const", "use", "pub", "crate", "super", "mod", "struct", "enum", "trait",
    "union", "type", "Self", "self", "true", "false",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Enclosing item context while scanning.
#[derive(Clone)]
enum Ctx {
    Module,
    Impl {
        type_name: String,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
}

struct Parser<'a> {
    chars: Vec<char>,
    /// 1-based line per char index.
    line_at: Vec<u32>,
    /// `(start, end)` line ranges under `#[cfg(test)]`.
    test_ranges: &'a [(usize, usize)],
    file: &'a str,
}

/// Extracts every `fn` item of one file. `test_ranges` are the
/// `#[cfg(test)]` line ranges computed by the scanner over the same view.
pub fn extract(file: &str, view: &SourceView, test_ranges: &[(usize, usize)]) -> Vec<FnItem> {
    let chars: Vec<char> = view.code.chars().collect();
    let mut line_at = Vec::with_capacity(chars.len());
    let mut line = 1u32;
    for &c in &chars {
        line_at.push(line);
        if c == '\n' {
            line += 1;
        }
    }
    let mut parser = Parser {
        chars,
        line_at,
        test_ranges,
        file,
    };
    let mut out = Vec::new();
    let end = parser.chars.len();
    parser.scan_items(0, end, &Ctx::Module, &mut out);
    out
}

impl Parser<'_> {
    fn line_of(&self, i: usize) -> usize {
        self.line_at
            .get(i.min(self.line_at.len().saturating_sub(1)))
            .copied()
            .unwrap_or(1) as usize
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    fn skip_ws(&self, mut i: usize, end: usize) -> usize {
        while i < end && self.chars[i].is_whitespace() {
            i += 1;
        }
        i
    }

    /// Reads an identifier at `i`, honoring an `r#` prefix (stripped from
    /// the returned name). Returns `(name, end_index, was_raw)` — a raw
    /// identifier is never a keyword, whatever it spells.
    fn ident_at(&self, mut i: usize, end: usize) -> Option<(String, usize, bool)> {
        let mut raw = false;
        if i + 1 < end && self.chars[i] == 'r' && self.chars[i + 1] == '#' {
            raw = true;
            i += 2;
        }
        if i >= end || !is_ident_start(self.chars[i]) {
            return None;
        }
        let start = i;
        while i < end && is_ident_char(self.chars[i]) {
            i += 1;
        }
        let name: String = self.chars[start..i].iter().collect();
        Some((name, i, raw))
    }

    /// From an opening `{` at `i`, the index of its matching `}` (or `end`).
    fn match_brace(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.chars[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end.saturating_sub(1)
    }

    /// From an opening `<` at `i`, the index just past its matching `>`.
    /// `->` arrows inside bounds (`F: Fn() -> R`) do not close the angle.
    fn skip_generics(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.chars[j] {
                '<' => depth += 1,
                '-' if j + 1 < end && self.chars[j + 1] == '>' => {
                    j += 2;
                    continue;
                }
                '>' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                '{' => {
                    // Const-generic default expression: skip it whole.
                    j = self.match_brace(j, end);
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Item-level scan of `[i, end)` under `ctx`.
    fn scan_items(&mut self, mut i: usize, end: usize, ctx: &Ctx, out: &mut Vec<FnItem>) {
        while i < end {
            let c = self.chars[i];
            if c == '{' {
                // A stray block at item level (e.g. a const initializer that
                // slipped through): skip it whole.
                i = self.match_brace(i, end) + 1;
                continue;
            }
            if !is_ident_start(c) {
                i += 1;
                continue;
            }
            let Some((word, after, raw)) = self.ident_at(i, end) else {
                i += 1;
                continue;
            };
            if raw {
                i = after;
                continue;
            }
            match word.as_str() {
                "fn" => i = self.parse_fn(after, end, ctx, out),
                "impl" => i = self.parse_impl(after, end, out),
                "trait" => i = self.parse_trait(after, end, out),
                "mod" => i = self.parse_mod(after, end, out),
                // Items whose bodies hold no functions: skip to `;` or past
                // their block so field/variant types are never misread.
                // `const fn` is a function, not a const item.
                "struct" | "enum" | "union" | "use" | "type" | "static" | "const" => {
                    let n = self.skip_ws(after, end);
                    let next_is_fn = self
                        .ident_at(n, end)
                        .is_some_and(|(w, _, r)| !r && w == "fn");
                    if word == "const" && next_is_fn {
                        i = after;
                    } else {
                        i = self.skip_item_rest(after, end);
                    }
                }
                _ => i = after,
            }
        }
    }

    /// Skips to the end of a non-fn item: past its `;`, or past its `{ .. }`
    /// block, whichever comes first.
    fn skip_item_rest(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.chars[i] {
                ';' => return i + 1,
                '{' => return self.match_brace(i, end) + 1,
                '<' => i = self.skip_generics(i, end),
                _ => i += 1,
            }
        }
        end
    }

    fn parse_mod(&mut self, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
        let mut j = self.skip_ws(i, end);
        if let Some((_, after, _)) = self.ident_at(j, end) {
            j = self.skip_ws(after, end);
        }
        match self.chars.get(j) {
            Some('{') => {
                let close = self.match_brace(j, end);
                self.scan_items(j + 1, close, &Ctx::Module, out);
                close + 1
            }
            _ => j + 1, // `mod name;`
        }
    }

    fn parse_trait(&mut self, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
        let j = self.skip_ws(i, end);
        let Some((name, after, _)) = self.ident_at(j, end) else {
            return j + 1;
        };
        // Bounds and where clauses hold no braces; the next `{` is the body.
        let mut k = after;
        while k < end && self.chars[k] != '{' && self.chars[k] != ';' {
            k += 1;
        }
        if self.chars.get(k) == Some(&'{') {
            let close = self.match_brace(k, end);
            self.scan_items(k + 1, close, &Ctx::Trait { name }, out);
            return close + 1;
        }
        k + 1
    }

    fn parse_impl(&mut self, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
        let mut j = self.skip_ws(i, end);
        if self.chars.get(j) == Some(&'<') {
            j = self.skip_generics(j, end);
        }
        // Read path segments up to `{`; a `for` token splits trait and type.
        let mut first_path: Option<String> = None; // trait in `impl T for U`
        let mut last_segment = String::new();
        let mut saw_for = false;
        while j < end {
            let c = self.chars[j];
            if c == '{' {
                break;
            }
            if c == '<' {
                j = self.skip_generics(j, end);
                continue;
            }
            if is_ident_start(c) {
                let Some((word, after, _)) = self.ident_at(j, end) else {
                    j += 1;
                    continue;
                };
                match word.as_str() {
                    "for" => {
                        first_path = Some(std::mem::take(&mut last_segment));
                        saw_for = true;
                    }
                    "where" => {
                        // Nothing after `where` names the self type; scan to
                        // the body brace.
                        while j < end && self.chars[j] != '{' {
                            j += 1;
                        }
                        continue;
                    }
                    "dyn" | "mut" => {}
                    _ => last_segment = word,
                }
                j = after;
                continue;
            }
            j += 1;
        }
        let type_name = last_segment;
        let trait_name = if saw_for { first_path } else { None };
        if self.chars.get(j) == Some(&'{') {
            let close = self.match_brace(j, end);
            let ctx = Ctx::Impl {
                type_name,
                trait_name,
            };
            self.scan_items(j + 1, close, &ctx, out);
            return close + 1;
        }
        j + 1
    }

    /// Parses one `fn` starting just past the `fn` keyword. Returns the
    /// index to resume scanning at.
    fn parse_fn(&mut self, i: usize, end: usize, ctx: &Ctx, out: &mut Vec<FnItem>) -> usize {
        let start_line = self.line_of(i.saturating_sub(2));
        let j = self.skip_ws(i, end);
        let Some((name, after_name, _)) = self.ident_at(j, end) else {
            return j + 1;
        };
        let mut k = self.skip_ws(after_name, end);
        if self.chars.get(k) == Some(&'<') {
            k = self.skip_generics(k, end);
            k = self.skip_ws(k, end);
        }
        if self.chars.get(k) != Some(&'(') {
            return k;
        }
        let (has_self, arity, after_params) = self.parse_params(k, end);
        // Return type and where clause hold no braces; the next `{` (or `;`
        // for a bodyless trait method) delimits the item.
        let mut b = after_params;
        while b < end && self.chars[b] != '{' && self.chars[b] != ';' {
            if self.chars[b] == '<' {
                b = self.skip_generics(b, end);
                continue;
            }
            b += 1;
        }
        let (qualifier, trait_impl, is_trait_decl) = match ctx {
            Ctx::Module => (None, None, false),
            Ctx::Impl {
                type_name,
                trait_name,
            } => (
                Some(type_name.clone()).filter(|t| !t.is_empty()),
                trait_name.clone(),
                false,
            ),
            Ctx::Trait { name } => (Some(name.clone()), None, true),
        };
        let mut item = FnItem {
            file: self.file.to_string(),
            name,
            qualifier,
            trait_impl,
            is_trait_decl,
            has_body: false,
            has_self,
            arity,
            start_line,
            end_line: self.line_of(b),
            in_test: self.in_test(start_line),
            calls: Vec::new(),
        };
        if self.chars.get(b) == Some(&'{') {
            let close = self.match_brace(b, end);
            item.has_body = true;
            item.end_line = self.line_of(close);
            let self_type = match ctx {
                Ctx::Impl { type_name, .. } => Some(type_name.as_str()),
                Ctx::Trait { name } => Some(name.as_str()),
                Ctx::Module => None,
            };
            self.collect_calls(b + 1, close, self_type, &mut item.calls, out);
            out.push(item);
            return close + 1;
        }
        out.push(item);
        b + 1
    }

    /// Parses a parenthesized parameter list at `open` (pointing at `(`).
    /// Returns `(has_self, arity_excluding_self, index_past_close)`.
    fn parse_params(&self, open: usize, end: usize) -> (bool, usize, usize) {
        let mut depth = 0usize;
        let mut angle = 0usize;
        let mut first_param = String::new();
        // Parameters counted at their first character, so the trailing
        // comma of a rustfmt-wrapped signature adds none.
        let mut params = 0usize;
        let mut in_param = false;
        let mut j = open;
        while j < end {
            let c = self.chars[j];
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                '<' => angle += 1,
                '-' if self.chars.get(j + 1) == Some(&'>') => {
                    j += 2;
                    continue;
                }
                '>' => angle = angle.saturating_sub(1),
                ',' if depth == 1 && angle == 0 => {
                    in_param = false;
                    j += 1;
                    continue;
                }
                _ => {}
            }
            if depth >= 1 && !(depth == 1 && c == '(') {
                if !c.is_whitespace() && !in_param {
                    params += 1;
                    in_param = true;
                }
                if params == 1 && in_param {
                    first_param.push(c);
                }
            }
            j += 1;
        }
        let first = first_param.trim();
        let has_self = {
            let mut t = first;
            loop {
                let before = t;
                t = t.trim_start_matches('&').trim_start();
                if let Some(rest) = t.strip_prefix('\'') {
                    let skip = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
                    t = rest[skip..].trim_start();
                }
                if let Some(rest) = t.strip_prefix("mut ") {
                    t = rest.trim_start();
                }
                if t == before {
                    break;
                }
            }
            t == "self"
                || t.starts_with("self:")
                || t.starts_with("self ")
                || t.starts_with("self,")
        };
        let arity = params.saturating_sub(usize::from(has_self));
        (has_self, arity, (j + 1).min(end))
    }

    /// Collects call sites in a body span; nested `fn` items recurse into
    /// [`Self::parse_fn`] and their bodies are excluded from this one.
    fn collect_calls(
        &mut self,
        mut i: usize,
        end: usize,
        self_type: Option<&str>,
        calls: &mut Vec<CallSite>,
        out: &mut Vec<FnItem>,
    ) {
        while i < end {
            let c = self.chars[i];
            if !is_ident_start(c) {
                i += 1;
                continue;
            }
            // An identifier-char run entered mid-token is not a name start.
            if i > 0 && is_ident_char(self.chars[i - 1]) {
                i += 1;
                while i < end && is_ident_char(self.chars[i]) {
                    i += 1;
                }
                continue;
            }
            // A `#` directly before means this is the tail of `r#ident`;
            // back up so ident_at sees the full raw identifier.
            let tok_start = if i >= 2 && self.chars[i - 1] == '#' && self.chars[i - 2] == 'r' {
                i - 2
            } else {
                i
            };
            let Some((word, after, raw)) = self.ident_at(tok_start, end) else {
                i += 1;
                continue;
            };
            if !raw && word == "fn" {
                i = self.parse_fn(after, end, &Ctx::Module, out);
                continue;
            }
            if !raw && KEYWORDS.contains(&word.as_str()) {
                i = after;
                continue;
            }
            let mut k = self.skip_ws(after, end);
            // Macro invocation: the name itself is not a call, but its
            // arguments are real expressions — keep scanning inside them.
            if self.chars.get(k) == Some(&'!') {
                i = k + 1;
                continue;
            }
            // Turbofish between name and arguments.
            if self.chars.get(k) == Some(&':')
                && self.chars.get(k + 1) == Some(&':')
                && self.chars.get(k + 2) == Some(&'<')
            {
                k = self.skip_generics(k + 2, end);
                k = self.skip_ws(k, end);
            }
            if self.chars.get(k) != Some(&'(') {
                i = after;
                continue;
            }
            let kind = self.call_kind(tok_start, self_type);
            let arity = self.call_arity(k, end);
            calls.push(CallSite {
                kind,
                name: word,
                arity,
                line: self.line_of(tok_start),
            });
            // Resume just past the open paren: arguments are scanned for
            // their own nested calls.
            i = k + 1;
        }
    }

    /// Classifies the call at `name_start` by what precedes it.
    fn call_kind(&self, name_start: usize, self_type: Option<&str>) -> CallKind {
        let mut p = name_start;
        while p > 0 && self.chars[p - 1].is_whitespace() {
            p -= 1;
        }
        if p == 0 {
            return CallKind::Free;
        }
        match self.chars[p - 1] {
            '.' => {
                // `..name(` is a range bound around a free call, not a
                // method call.
                if p >= 2 && self.chars[p - 2] == '.' {
                    CallKind::Free
                } else {
                    CallKind::Method
                }
            }
            ':' if p >= 2 && self.chars[p - 2] == ':' => {
                let qualifier = self.path_qualifier(p - 2);
                match qualifier {
                    Some(q) if q == "Self" => match self_type {
                        Some(t) => CallKind::Qualified(t.to_string()),
                        None => CallKind::Free,
                    },
                    Some(q) => CallKind::Qualified(q),
                    None => CallKind::Free,
                }
            }
            _ => CallKind::Free,
        }
    }

    /// The path segment directly before a `::` ending at `colons` (pointing
    /// at the first `:`). Skips a trailing generic list (`Vec::<u8>::new`).
    fn path_qualifier(&self, colons: usize) -> Option<String> {
        let mut p = colons;
        if p == 0 {
            return None;
        }
        if self.chars[p - 1] == '>' {
            // Walk back over the matching `<ident, ...>` list.
            let mut depth = 0usize;
            while p > 0 {
                p -= 1;
                match self.chars[p] {
                    '>' => depth += 1,
                    '<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            // Turbofish carries its own `::` before the list
            // (`Vec::<usize>::new`); step over it to reach the segment.
            if p >= 2 && self.chars[p - 1] == ':' && self.chars[p - 2] == ':' {
                p -= 2;
            }
        }
        let seg_end = p;
        let mut seg_start = seg_end;
        while seg_start > 0 && is_ident_char(self.chars[seg_start - 1]) {
            seg_start -= 1;
        }
        if seg_start == seg_end {
            return None;
        }
        // Strip an `r#` prefix if present.
        let mut s = seg_start;
        if s >= 2 && self.chars[s - 1] == '#' && self.chars[s - 2] == 'r' {
            s = seg_start;
        }
        Some(self.chars[s..seg_end].iter().collect())
    }

    /// Argument count at an open paren: top-level commas + 1 (0 when
    /// empty), commas inside closure parameter lists excluded, trailing
    /// comma ignored.
    fn call_arity(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut commas = 0usize;
        let mut any = false;
        let mut last_nonws = ' ';
        let mut j = open;
        while j < end {
            let c = self.chars[j];
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ',' if depth == 1 => commas += 1,
                '|' if depth == 1 && matches!(last_nonws, '(' | ',' | '=' | '{' | ';') => {
                    // A closure's parameter list: skip to its closing pipe
                    // (`||` is the empty list).
                    if self.chars.get(j + 1) == Some(&'|') {
                        j += 2;
                        last_nonws = '|';
                        continue;
                    }
                    j += 1;
                    while j < end && self.chars[j] != '|' {
                        j += 1;
                    }
                }
                _ => {}
            }
            if !c.is_whitespace() {
                if depth >= 1 && !(depth == 1 && c == '(') {
                    any = true;
                }
                last_nonws = c;
            }
            j += 1;
        }
        if !any {
            return 0;
        }
        // `f(a, b,)` — a trailing comma does not open another argument.
        let inner_end = j;
        let mut q = inner_end;
        while q > open + 1 && self.chars[q - 1].is_whitespace() {
            q -= 1;
        }
        if q > open + 1 && self.chars[q - 1] == ',' {
            commas = commas.saturating_sub(1);
        }
        commas + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<FnItem> {
        let view = SourceView::new(src);
        let ranges = crate::scan::cfg_test_ranges(&view.code);
        extract("crates/x/src/lib.rs", &view, &ranges)
    }

    #[test]
    fn free_fn_with_span_and_arity() {
        let src = "pub fn add(a: usize, b: usize) -> usize {\n    a + b\n}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.qualifier, None);
        assert_eq!(f.arity, 2);
        assert!(!f.has_self);
        assert_eq!((f.start_line, f.end_line), (1, 3));
    }

    #[test]
    fn impl_methods_get_the_type_qualifier() {
        let src = "\
struct Engine;
impl Engine {
    pub fn run(&mut self, steps: usize) { self.tick(steps); }
    fn tick(&mut self, n: usize) {}
}
";
        let fns = items(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].qualified_name(), "Engine::run");
        assert!(fns[0].has_self);
        assert_eq!(fns[0].arity, 1);
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].kind, CallKind::Method);
        assert_eq!(fns[0].calls[0].name, "tick");
    }

    #[test]
    fn trait_impls_carry_the_trait_name() {
        let src = "\
trait Executor { fn execute(&mut self, op: usize) -> usize; }
struct A;
impl Executor for A {
    fn execute(&mut self, op: usize) -> usize { op }
}
";
        let fns = items(src);
        let decl = fns.iter().find(|f| f.is_trait_decl).unwrap();
        assert_eq!(decl.qualified_name(), "Executor::execute");
        assert!(!decl.has_body);
        let imp = fns.iter().find(|f| !f.is_trait_decl).unwrap();
        assert_eq!(imp.qualifier.as_deref(), Some("A"));
        assert_eq!(imp.trait_impl.as_deref(), Some("Executor"));
    }

    #[test]
    fn generic_impl_headers_resolve_the_type_name() {
        let src = "\
impl<E: Executor> LikelihoodKernel<E> {
    pub fn try_run(&mut self) -> Result<f64, ()> { helper() }
}
fn helper() -> Result<f64, ()> { Ok(0.0) }
";
        let fns = items(src);
        assert_eq!(fns[0].qualified_name(), "LikelihoodKernel::try_run");
        assert_eq!(fns[0].calls[0].kind, CallKind::Free);
        assert_eq!(fns[0].calls[0].name, "helper");
    }

    #[test]
    fn qualified_and_self_calls() {
        let src = "\
struct T;
impl T {
    fn a(&self) { Self::b(); Other::c(1, 2); std::mem::drop(3); }
    fn b() {}
}
";
        let fns = items(src);
        let calls = &fns[0].calls;
        assert_eq!(calls[0].kind, CallKind::Qualified("T".into()));
        assert_eq!(calls[1].kind, CallKind::Qualified("Other".into()));
        assert_eq!(calls[1].arity, 2);
        assert_eq!(calls[2].kind, CallKind::Qualified("mem".into()));
    }

    #[test]
    fn turbofish_and_closure_args() {
        let src = "\
fn f(v: Vec<usize>) -> Vec<usize> {
    let x = Vec::<usize>::with_capacity(4);
    v.iter().map(|a| a + 1).collect::<Vec<_>>()
}
";
        let fns = items(src);
        let calls = &fns[0].calls;
        let wc = calls.iter().find(|c| c.name == "with_capacity").unwrap();
        assert_eq!(wc.kind, CallKind::Qualified("Vec".into()));
        assert_eq!(wc.arity, 1);
        let map = calls.iter().find(|c| c.name == "map").unwrap();
        assert_eq!(map.arity, 1, "closure params must not inflate arity");
        let collect = calls.iter().find(|c| c.name == "collect").unwrap();
        assert_eq!(collect.arity, 0);
    }

    #[test]
    fn raw_identifiers_round_trip() {
        let src = "fn r#match(x: usize) -> usize { x }\nfn f() { r#match(1); }\n";
        let fns = items(src);
        assert_eq!(fns[0].name, "match");
        assert_eq!(fns[1].calls.len(), 1);
        assert_eq!(fns[1].calls[0].name, "match");
        assert_eq!(fns[1].calls[0].arity, 1);
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "\
fn shipped() {}
#[cfg(test)]
mod tests {
    fn helper() { super::shipped(); }
}
";
        let fns = items(src);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test);
    }

    #[test]
    fn closure_field_calls_are_not_collected() {
        // `(self.callback)(x)` is a closure-field invocation; the lexical
        // collector ignores it (documented under-approximation) instead of
        // inventing a method edge.
        let src = "\
struct S { callback: fn(usize) }
impl S {
    fn fire(&self, x: usize) { (self.callback)(x); }
}
";
        let fns = items(src);
        assert!(fns[0].calls.is_empty());
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let src = "\
fn outer() {
    fn inner(x: usize) -> usize { x }
    inner(3);
}
";
        let fns = items(src);
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!((inner.start_line, inner.end_line), (2, 2));
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "inner");
    }

    #[test]
    fn where_clauses_and_fn_pointer_params() {
        let src = "\
fn apply<F>(f: F, x: usize) -> usize
where
    F: Fn(usize) -> usize,
{
    f(x)
}
";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].arity, 2);
        assert_eq!(fns[0].end_line, 6);
    }

    /// rustfmt ends a wrapped signature with a comma that separates no
    /// further parameter.
    #[test]
    fn a_wrapped_signature_counts_its_parameters_not_its_commas() {
        let src = "fn wrapped(\n    a: &A,\n    b: usize,\n    c: &[usize],\n) {}\nfn f() { wrapped(a, 0, c); }\n";
        let fns = items(src);
        assert_eq!(fns[0].arity, 3);
        assert_eq!(fns[1].calls[0].arity, 3);
    }

    #[test]
    fn struct_literal_and_tuple_variant_noise_stays_unresolvable() {
        let src = "\
enum E { V(usize) }
fn f() -> E {
    let _ = Some(1);
    E::V(2)
}
";
        let fns = items(src);
        let calls = &fns[0].calls;
        assert!(calls.iter().any(|c| c.name == "Some"));
        assert!(calls
            .iter()
            .any(|c| c.name == "V" && c.kind == CallKind::Qualified("E".into())));
    }
}
