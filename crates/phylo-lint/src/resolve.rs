//! Workspace-local name resolution for call sites.
//!
//! The call graph has no type information, so resolution is *conservative*:
//! every candidate that could plausibly be the callee becomes an edge. An
//! over-approximated edge can only widen the lint scope (a false finding
//! someone reviews), never narrow it (a real panic the linter misses) — the
//! safe direction for an invariant checker.
//!
//! The rules, in order:
//!
//! - **Free calls** `name(..)` resolve to free functions of that name and
//!   arity — preferring the caller's file, then the caller's crate, then the
//!   whole workspace. The narrowing matters for names that exist in more
//!   than one crate.
//! - **Qualified calls** `Type::name(..)` resolve to inherent/trait methods
//!   of every workspace type named `Type` (types are not deduplicated by
//!   crate — over-approximation again). When `Type` is a *trait*, the call
//!   fans out to that method in **every** impl of the trait, because the
//!   static view cannot know the dynamic receiver. UFCS arities
//!   (`Type::method(&recv, x)`) are accepted. A lowercase qualifier is a
//!   module path segment, so the call falls back to free-fn resolution.
//! - **Method calls** `recv.name(..)` resolve to every workspace method of
//!   that name and arity that takes `self` — again a deliberate fan-out.
//!   The one receiver the lexical view can type is `self.<field>` inside an
//!   impl of a struct whose field has a plain-path type, or one `Arc<..>`,
//!   `Box<..>`, `&..` or `&mut ..` around one ([`crate::items::FieldType`]):
//!   such a call resolves to that type's own
//!   methods of the name and arity, inherent and trait impls alike (a
//!   by-value trait method can outrank a `&self` inherent one). A type with
//!   no such method of its own (a trait default body, a `Deref` target, a
//!   generic parameter) keeps the fan-out.
//!
//! Calls matching nothing (std/vendored callees, tuple-struct constructor
//! noise) stay unresolved; the envelope reports the resolved/unresolved
//! split so resolution quality is itself drift-gated.

use std::collections::BTreeMap;

use crate::items::{CallKind, CallSite, FieldType, FnItem};

/// Lookup index over the workspace's extracted items.
pub struct Index {
    /// Item indices by bare function name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Names of `trait` declarations seen anywhere.
    traits: BTreeMap<String, ()>,
    /// Declared field types by `(struct, field)` — several when structs of
    /// the same name in different crates disagree.
    field_types: BTreeMap<(String, String), Vec<String>>,
}

/// The crate-identifying prefix of a workspace-relative path
/// (`crates/phylo-kernel` — or `src` for the root package).
pub fn crate_of(file: &str) -> &str {
    match file.strip_prefix("crates/") {
        Some(rest) => {
            let end = rest.find('/').unwrap_or(rest.len());
            &file[..("crates/".len() + end)]
        }
        None => "src",
    }
}

impl Index {
    /// Builds the index. `#[cfg(test)]` items are excluded: test helpers
    /// must never become resolution targets of shipped code.
    pub fn build(items: &[FnItem], fields: &[FieldType]) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut traits = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            if item.in_test {
                continue;
            }
            by_name.entry(item.name.clone()).or_default().push(i);
            if item.is_trait_decl {
                if let Some(t) = &item.qualifier {
                    traits.insert(t.clone(), ());
                }
            }
            if let Some(t) = &item.trait_impl {
                traits.insert(t.clone(), ());
            }
        }
        let mut field_types: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
        for f in fields {
            let types = field_types
                .entry((f.owner.clone(), f.field.clone()))
                .or_default();
            if !types.contains(&f.type_name) {
                types.push(f.type_name.clone());
            }
        }
        Self {
            by_name,
            traits,
            field_types,
        }
    }

    fn is_trait(&self, name: &str) -> bool {
        self.traits.contains_key(name)
    }

    /// All item indices the call could target. Empty = unresolved
    /// (external callee or constructor noise).
    pub fn resolve(&self, items: &[FnItem], caller: &FnItem, call: &CallSite) -> Vec<usize> {
        let Some(named) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        match &call.kind {
            CallKind::Free => self.resolve_free(items, caller, call, named),
            CallKind::Method => {
                let candidates = named.iter().copied().filter(|&i| {
                    let it = &items[i];
                    it.has_self && it.arity == call.arity
                });
                // In a trait's default body `self` is any implementor.
                let field_types = caller
                    .qualifier
                    .as_ref()
                    .filter(|_| !caller.is_trait_decl)
                    .zip(call.self_field.as_ref())
                    .and_then(|(owner, field)| {
                        self.field_types.get(&(owner.clone(), field.clone()))
                    });
                if let Some(types) = field_types {
                    let own: Vec<usize> = candidates
                        .clone()
                        .filter(|&i| {
                            let q = items[i].qualifier.as_ref();
                            q.is_some_and(|q| types.contains(q)) && !items[i].is_trait_decl
                        })
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
                candidates.collect()
            }
            CallKind::Qualified(q) => {
                let mut out: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let it = &items[i];
                        it.qualifier.as_deref() == Some(q.as_str()) && arity_ok(it, call)
                    })
                    .collect();
                if self.is_trait(q) {
                    // Trait-method fan-out: the dynamic receiver could be
                    // any impl of the trait.
                    for &i in named {
                        let it = &items[i];
                        if it.trait_impl.as_deref() == Some(q.as_str())
                            && arity_ok(it, call)
                            && !out.contains(&i)
                        {
                            out.push(i);
                        }
                    }
                }
                if out.is_empty() && q.chars().next().is_some_and(char::is_lowercase) {
                    // `module::free_fn(..)` — the qualifier names a module,
                    // not a type.
                    return self.resolve_free(items, caller, call, named);
                }
                out
            }
        }
    }

    fn resolve_free(
        &self,
        items: &[FnItem],
        caller: &FnItem,
        call: &CallSite,
        named: &[usize],
    ) -> Vec<usize> {
        let all: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| {
                let it = &items[i];
                it.qualifier.is_none() && !it.has_self && it.arity == call.arity
            })
            .collect();
        // Same-file, then same-crate, then workspace-wide: the narrowest
        // non-empty tier wins, so same-name fns across crates don't inflate
        // the reachable set when the caller clearly means its local one.
        let same_file: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| items[i].file == caller.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let caller_crate = crate_of(&caller.file);
        let same_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| crate_of(&items[i].file) == caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        all
    }
}

/// Direct arity match, or the UFCS form where the receiver is passed
/// explicitly (`Type::method(&recv, x)`).
fn arity_ok(item: &FnItem, call: &CallSite) -> bool {
    call.arity == item.arity || (item.has_self && call.arity == item.arity + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{extract, FileItems};
    use crate::lexer::SourceView;
    use crate::scan::cfg_test_ranges;

    fn extracted(sources: &[(&str, &str)]) -> FileItems {
        let mut out = FileItems::default();
        for (file, src) in sources {
            let view = SourceView::new(src);
            let ranges = cfg_test_ranges(&view.code);
            out.append(extract(file, &view, &ranges));
        }
        out
    }

    fn items_of(sources: &[(&str, &str)]) -> Vec<FnItem> {
        extracted(sources).fns
    }

    fn resolve_names(items: &[FnItem], caller: &str, nth_call: usize) -> Vec<String> {
        resolve_with_fields(items, &[], caller, nth_call)
    }

    fn resolve_with_fields(
        items: &[FnItem],
        fields: &[FieldType],
        caller: &str,
        nth_call: usize,
    ) -> Vec<String> {
        let index = Index::build(items, fields);
        let c = items.iter().find(|f| f.name == caller).unwrap();
        let mut names: Vec<String> = index
            .resolve(items, c, &c.calls[nth_call])
            .into_iter()
            .map(|i| format!("{}#{}", items[i].file, items[i].qualified_name()))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn trait_method_calls_fan_out_to_all_impls() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
trait Executor { fn execute(&mut self, op: usize) -> usize; }
struct A;
struct B;
impl Executor for A { fn execute(&mut self, op: usize) -> usize { op } }
impl Executor for B { fn execute(&mut self, op: usize) -> usize { op * 2 } }
fn driver(e: &mut dyn Executor) { e.execute(1); }
",
        )]);
        let got = resolve_names(&items, "driver", 0);
        // Method fan-out: trait decl + both impls match name+arity+self.
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().any(|n| n.ends_with("A::execute")));
        assert!(got.iter().any(|n| n.ends_with("B::execute")));
    }

    #[test]
    fn qualified_trait_call_reaches_every_impl() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
trait Run { fn go(&self); }
struct X;
impl Run for X { fn go(&self) {} }
fn f(x: &X) { Run::go(x); }
",
        )]);
        let got = resolve_names(&items, "f", 0);
        assert!(got.iter().any(|n| n.ends_with("X::go")), "{got:?}");
    }

    #[test]
    fn same_name_fns_prefer_the_callers_crate() {
        let items = items_of(&[
            (
                "crates/scalar/src/lib.rs",
                "pub fn kernel_step(x: usize) -> usize { x }\nfn run(x: usize) { kernel_step(x); }\n",
            ),
            (
                "crates/blocked/src/lib.rs",
                "pub fn kernel_step(x: usize) -> usize { x * 2 }\n",
            ),
        ]);
        let got = resolve_names(&items, "run", 0);
        assert_eq!(got, vec!["crates/scalar/src/lib.rs#kernel_step"]);
    }

    #[test]
    fn cross_crate_free_call_fans_out_when_no_local_candidate() {
        let items = items_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn shared(x: usize) -> usize { x }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn shared(x: usize) -> usize { x }\n",
            ),
            ("crates/c/src/lib.rs", "fn call(x: usize) { shared(x); }\n"),
        ]);
        let got = resolve_names(&items, "call", 0);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn method_vs_field_ambiguity_does_not_resolve_to_non_self_fns() {
        // `s.helper(1)` is a method call; a free fn `helper` without self
        // must NOT become a target, and the closure-field invocation form
        // `(s.helper)(1)` produces no call site at all.
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
pub fn helper(x: usize) -> usize { x }
struct S { helper: fn(usize) -> usize }
impl S {
    fn direct(&self, x: usize) { (self.helper)(x); }
}
fn caller(s: &S) { s.helper(1); }
",
        )]);
        let index = Index::build(&items, &[]);
        let direct = items.iter().find(|f| f.name == "direct").unwrap();
        assert!(direct.calls.is_empty());
        let caller = items.iter().find(|f| f.name == "caller").unwrap();
        assert_eq!(caller.calls.len(), 1);
        let targets = index.resolve(&items, caller, &caller.calls[0]);
        assert!(
            targets.is_empty(),
            "free fn without self must not match a method call"
        );
    }

    #[test]
    fn a_self_field_call_resolves_through_the_fields_declared_type() {
        let both = extracted(&[
            (
                "crates/a/src/pool.rs",
                "\
pub struct Pool;
impl Pool { pub fn run(&self, a: usize, b: usize) -> usize { a + b } }
",
            ),
            (
                "crates/b/src/policy.rs",
                "\
pub struct Policy;
impl Policy { pub fn run(&self, a: usize, b: usize) -> usize { a * b } }
",
            ),
            (
                "crates/c/src/lib.rs",
                "\
struct Exec { pool: crate::pool::Pool, other: Vec<Policy> }
impl Exec {
    fn go(&self, a: usize, b: usize) {
        self.pool.run(a, b);
        self.other.run(a, b);
        x.pool.run(a, b);
    }
}
",
            ),
        ]);
        assert_eq!(
            both.fields.len(),
            1,
            "only the plain path: {:?}",
            both.fields
        );
        let got = resolve_with_fields(&both.fns, &both.fields, "go", 0);
        assert_eq!(got, vec!["crates/a/src/pool.rs#Pool::run"]);
        // A generic field type and a receiver that is not `self` keep the
        // name-and-arity fan-out.
        for nth in [1, 2] {
            let got = resolve_with_fields(&both.fns, &both.fields, "go", nth);
            assert_eq!(got.len(), 2, "call {nth}: {got:?}");
        }
    }

    #[test]
    fn an_arc_field_call_resolves_through_the_type_it_wraps() {
        let both = extracted(&[
            (
                "crates/a/src/pool.rs",
                "pub struct Pool;\nimpl Pool { pub fn run(&self, a: usize) {} }\n",
            ),
            (
                "crates/b/src/policy.rs",
                "pub struct Policy;\nimpl Policy { pub fn run(&self, a: usize) {} }\n",
            ),
            (
                "crates/c/src/lib.rs",
                "struct Exec { pool: Arc<Pool> }\nimpl Exec { fn go(&self) { self.pool.run(1); } }\n",
            ),
        ]);
        let got = resolve_with_fields(&both.fns, &both.fields, "go", 0);
        assert_eq!(got, vec!["crates/a/src/pool.rs#Pool::run"]);
    }

    #[test]
    fn a_field_type_without_the_method_keeps_the_fan_out() {
        let both = extracted(&[(
            "crates/a/src/lib.rs",
            "\
trait Run { fn run(&self, a: usize) {} }
struct Inner;
impl Run for Inner {}
struct Other;
impl Other { fn run(&self, a: usize) {} }
struct Outer { inner: Inner }
impl Outer { fn go(&self) { self.inner.run(1); } }
",
        )]);
        // `Inner` gets `run` from the trait's default body, which is not
        // `Inner`'s own item: narrowing would lose the edge.
        let got = resolve_with_fields(&both.fns, &both.fields, "go", 0);
        assert_eq!(
            got,
            vec![
                "crates/a/src/lib.rs#Other::run",
                "crates/a/src/lib.rs#Run::run"
            ]
        );
    }

    #[test]
    fn raw_identifier_fns_resolve_like_plain_ones() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "fn r#loop(x: usize) -> usize { x }\nfn f(x: usize) { r#loop(x); }\n",
        )]);
        let got = resolve_names(&items, "f", 0);
        assert_eq!(got, vec!["crates/a/src/lib.rs#loop"]);
    }

    #[test]
    fn module_qualified_calls_fall_back_to_free_fns() {
        let items = items_of(&[
            (
                "crates/a/src/ops.rs",
                "pub fn newview(x: usize) -> usize { x }\n",
            ),
            (
                "crates/a/src/lib.rs",
                "fn f(x: usize) { ops::newview(x); }\n",
            ),
        ]);
        let got = resolve_names(&items, "f", 0);
        assert_eq!(got, vec!["crates/a/src/ops.rs#newview"]);
    }

    #[test]
    fn ufcs_arity_is_accepted() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
struct T;
impl T { fn m(&self, x: usize) -> usize { x } }
fn f(t: &T) { T::m(t, 1); }
",
        )]);
        let got = resolve_names(&items, "f", 0);
        assert_eq!(got, vec!["crates/a/src/lib.rs#T::m"]);
    }

    #[test]
    fn test_items_are_never_targets() {
        let items = items_of(&[(
            "crates/a/src/lib.rs",
            "\
fn f(x: usize) { helper(x); }
#[cfg(test)]
mod tests {
    fn helper(x: usize) -> usize { x }
}
",
        )]);
        let got = resolve_names(&items, "f", 0);
        assert!(got.is_empty());
    }

    #[test]
    fn crate_of_distinguishes_root_and_members() {
        assert_eq!(
            crate_of("crates/phylo-kernel/src/ops.rs"),
            "crates/phylo-kernel"
        );
        assert_eq!(crate_of("src/main.rs"), "src");
    }
}
