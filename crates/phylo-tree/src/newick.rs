//! Newick tree serialization and parsing.
//!
//! Unrooted binary trees are written rooted at an internal node with a
//! trifurcation, e.g. `(A:0.1,B:0.2,(C:0.3,D:0.4):0.5);`. The parser also
//! accepts rooted (bifurcating-root) files and unroots them by merging the two
//! root branches, which is how most phylogenetics software treats such input.

use crate::topology::{NodeId, Tree, DEFAULT_BRANCH_LENGTH};
use crate::TreeError;

/// Serializes the tree as a Newick string with branch lengths.
///
/// The output is rooted at the internal node adjacent to leaf 0, which yields
/// a canonical trifurcating representation of the unrooted tree.
pub fn to_newick(tree: &Tree) -> String {
    let anchor = tree.neighbors(0)[0].0;
    let mut out = String::from("(");
    let neighbors: Vec<(NodeId, usize)> = tree.neighbors(anchor).to_vec();
    for (i, &(child, branch)) in neighbors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_subtree(tree, child, anchor, &mut out);
        out.push_str(&format!(":{}", format_length(tree.branch_length(branch))));
    }
    out.push_str(");");
    out
}

fn write_subtree(tree: &Tree, node: NodeId, parent: NodeId, out: &mut String) {
    if tree.is_leaf(node) {
        out.push_str(tree.taxon_name(node));
        return;
    }
    out.push('(');
    let children: Vec<(NodeId, usize)> = tree
        .neighbors(node)
        .iter()
        .copied()
        .filter(|&(n, _)| n != parent)
        .collect();
    for (i, &(child, branch)) in children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_subtree(tree, child, node, out);
        out.push_str(&format!(":{}", format_length(tree.branch_length(branch))));
    }
    out.push(')');
}

fn format_length(len: f64) -> String {
    format!("{len:.8}")
}

/// Parses a Newick string into an unrooted binary [`Tree`].
///
/// Taxon leaf ids are assigned in order of appearance in the string. Missing
/// branch lengths default to [`DEFAULT_BRANCH_LENGTH`]; internal node labels
/// (support values) are ignored.
///
/// # Errors
///
/// Returns [`TreeError::Parse`] for syntax errors and for parentheses nested
/// deeper than 512 levels, and [`TreeError::Invalid`] if the described tree
/// is not strictly binary after unrooting.
pub fn parse_newick(text: &str) -> Result<Tree, TreeError> {
    let mut parser = Parser {
        chars: text.trim().chars().collect(),
        pos: 0,
        depth: 0,
    };
    let root = parser.parse_clade()?;
    parser.skip_whitespace();
    if parser.peek() == Some(':') {
        // A root branch length; read and discard.
        parser.pos += 1;
        parser.parse_number()?;
    }
    parser.skip_whitespace();
    if parser.peek() == Some(';') {
        parser.pos += 1;
    }
    parser.skip_whitespace();
    if parser.pos != parser.chars.len() {
        return Err(TreeError::Parse(format!(
            "trailing characters after position {}",
            parser.pos
        )));
    }
    build_tree(root)
}

/// Deepest parenthesis nesting [`parse_newick`] accepts. The parser, the
/// tree builder and the drop of the intermediate clades each recurse once per
/// level, and an unoptimized build spends ≈ 1.5 KB of stack on a level, so
/// 512 levels fit a 2 MiB stack (Rust's default for spawned and test
/// threads) with more than half of it to spare. Only a caterpillar-shaped
/// tree comes near: a balanced tree this deep has more taxa than memory.
/// [`to_newick`] re-roots next to leaf 0, so a tree accepted within a factor
/// two of the bound can serialize deeper than it and not parse back.
const MAX_NESTING: usize = 512;

/// Intermediate recursive structure produced by the parser.
#[derive(Debug, Default)]
struct Clade {
    name: Option<String>,
    length: Option<f64>,
    children: Vec<Clade>,
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Open parentheses around `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_clade(&mut self) -> Result<Clade, TreeError> {
        self.skip_whitespace();
        let mut clade = Clade {
            name: None,
            length: None,
            children: Vec::new(),
        };
        if self.peek() == Some('(') {
            self.pos += 1;
            self.depth += 1;
            if self.depth > MAX_NESTING {
                return Err(TreeError::Parse(format!(
                    "parentheses nested deeper than {MAX_NESTING} at position {}",
                    self.pos
                )));
            }
            loop {
                let child = self.parse_clade()?;
                clade.children.push(child);
                self.skip_whitespace();
                match self.peek() {
                    Some(',') => {
                        self.pos += 1;
                    }
                    Some(')') => {
                        self.pos += 1;
                        self.depth -= 1;
                        break;
                    }
                    other => {
                        return Err(TreeError::Parse(format!(
                            "expected ',' or ')' at position {}, found {other:?}",
                            self.pos
                        )))
                    }
                }
            }
        }
        // Optional label (taxon name for leaves, support value for inner nodes).
        self.skip_whitespace();
        let label = self.parse_label();
        if !label.is_empty() {
            clade.name = Some(label);
        }
        // Optional branch length.
        self.skip_whitespace();
        if self.peek() == Some(':') {
            self.pos += 1;
            clade.length = Some(self.parse_number()?);
        }
        if clade.children.is_empty() && clade.name.is_none() {
            return Err(TreeError::Parse(format!(
                "unnamed leaf at position {}",
                self.pos
            )));
        }
        Ok(clade)
    }

    fn parse_label(&mut self) -> String {
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c == ':' || c == ',' || c == ')' || c == '(' || c == ';' || c.is_whitespace() {
                break;
            }
            label.push(c);
            self.pos += 1;
        }
        label
    }

    fn parse_number(&mut self) -> Result<f64, TreeError> {
        self.skip_whitespace();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map_err(|_| {
            TreeError::Parse(format!(
                "invalid branch length '{text}' at position {start}"
            ))
        })
    }
}

fn build_tree(mut root: Clade) -> Result<Tree, TreeError> {
    // Unroot a bifurcating root by merging its two child branches: one child
    // becomes the new root and the other hangs off it with the combined
    // length, which must not create a degree-2 node.
    if let [first, second] = &mut root.children[..] {
        let (first, second) = (std::mem::take(first), std::mem::take(second));
        let merged_len = second.length.unwrap_or(DEFAULT_BRANCH_LENGTH)
            + first.length.unwrap_or(DEFAULT_BRANCH_LENGTH);
        let graft = |mut new_root: Clade, child: Clade| {
            new_root.children.push(Clade {
                length: Some(merged_len),
                ..child
            });
            new_root.length = None;
            new_root
        };
        root = match (first.children.is_empty(), second.children.is_empty()) {
            (true, true) => {
                return Err(TreeError::Invalid(
                    "cannot unroot a two-leaf tree; at least 3 taxa are required".into(),
                ))
            }
            // The first child is a leaf: root at the (internal) second child.
            (true, false) => graft(second, first),
            // Otherwise root at the (internal) first child.
            (false, _) => graft(first, second),
        };
    }
    if root.children.len() < 3 {
        return Err(TreeError::Invalid(format!(
            "root must have at least 3 children after unrooting, found {}",
            root.children.len()
        )));
    }

    // First pass: collect taxa in order of appearance and check binarity.
    let mut taxa = Vec::new();
    collect_taxa(&root, &mut taxa, true)?;
    let n_taxa = taxa.len();
    if n_taxa < 3 {
        return Err(TreeError::Invalid("fewer than 3 taxa".into()));
    }

    // Second pass: assign node ids and emit edges.
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(2 * n_taxa - 3);
    let mut next_internal = n_taxa;
    let mut leaf_cursor = 0usize;
    let root_id = next_internal;
    next_internal += 1;
    for child in &root.children {
        emit_edges(
            child,
            root_id,
            &mut leaf_cursor,
            &mut next_internal,
            &mut edges,
        )?;
    }
    Tree::from_edges(taxa, &edges)
}

fn collect_taxa(clade: &Clade, taxa: &mut Vec<String>, is_root: bool) -> Result<(), TreeError> {
    if clade.children.is_empty() {
        let name = clade
            .name
            .clone()
            .ok_or_else(|| TreeError::Parse("leaf without a name".into()))?;
        if taxa.contains(&name) {
            return Err(TreeError::Parse(format!("duplicate taxon name '{name}'")));
        }
        taxa.push(name);
        return Ok(());
    }
    let expected = if is_root { 3 } else { 2 };
    if clade.children.len() != expected {
        return Err(TreeError::Invalid(format!(
            "node with {} children found; the tree must be strictly binary (multifurcations are not supported)",
            clade.children.len()
        )));
    }
    for c in &clade.children {
        collect_taxa(c, taxa, false)?;
    }
    Ok(())
}

fn emit_edges(
    clade: &Clade,
    parent: NodeId,
    leaf_cursor: &mut usize,
    next_internal: &mut NodeId,
    edges: &mut Vec<(NodeId, NodeId, f64)>,
) -> Result<(), TreeError> {
    let length = clade.length.unwrap_or(DEFAULT_BRANCH_LENGTH);
    if clade.children.is_empty() {
        let id = *leaf_cursor;
        *leaf_cursor += 1;
        edges.push((parent, id, length));
        return Ok(());
    }
    let id = *next_internal;
    *next_internal += 1;
    edges.push((parent, id, length));
    for c in &clade.children {
        emit_edges(c, id, leaf_cursor, next_internal, edges)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parse_simple_trifurcating() {
        let t = parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4):0.5);").unwrap();
        assert_eq!(t.n_taxa(), 4);
        assert!(t.validate().is_ok());
        assert_eq!(t.taxa(), &["A", "B", "C", "D"]);
        // Pendant branch of A has length 0.1.
        let a = t.leaf_by_name("A").unwrap();
        let (_, b) = t.neighbors(a)[0];
        assert!((t.branch_length(b) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn parse_rooted_bifurcating_is_unrooted() {
        // Rooted version of the same 4-taxon tree.
        let t = parse_newick("((A:0.1,B:0.2):0.25,(C:0.3,D:0.4):0.25);").unwrap();
        assert_eq!(t.n_taxa(), 4);
        assert!(t.validate().is_ok());
        assert_eq!(t.branch_count(), 5);
        // The two root branches merge into one of length 0.5.
        let reference = parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4):0.5);").unwrap();
        assert_eq!(t.bipartitions(), reference.bipartitions());
        // A leaf on either side of the root hangs off the other child with
        // the two root branches merged into its pendant branch.
        for rooted in [
            "(A:0.1,(B:0.2,(C:0.3,D:0.4):0.5):0.3);",
            "((B:0.2,(C:0.3,D:0.4):0.5):0.3,A:0.1);",
        ] {
            let t = parse_newick(rooted).unwrap();
            assert!(t.validate().is_ok());
            assert_eq!(t.bipartitions(), reference.bipartitions(), "{rooted}");
            let (_, pendant) = t.neighbors(t.leaf_by_name("A").unwrap())[0];
            assert!((t.branch_length(pendant) - 0.4).abs() < 1e-12, "{rooted}");
        }
    }

    #[test]
    fn parse_missing_lengths_get_default() {
        let t = parse_newick("(A,B,(C,D));").unwrap();
        for b in t.branches() {
            assert!((t.branch_length(b) - DEFAULT_BRANCH_LENGTH).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_preserves_topology_and_lengths() {
        for seed in 0..5u64 {
            let names: Vec<String> = (0..20).map(|i| format!("taxon_{i}")).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = random_tree(&names, &mut rng);
            let text = to_newick(&t);
            let back = parse_newick(&text).unwrap();
            assert_eq!(back.n_taxa(), t.n_taxa());
            assert_eq!(back.bipartitions(), t.bipartitions(), "seed {seed}");
            // Total tree length is preserved.
            let len_a: f64 = t.branch_lengths().iter().sum();
            let len_b: f64 = back.branch_lengths().iter().sum();
            assert!(
                (len_a - len_b).abs() < 1e-5,
                "seed {seed}: {len_a} vs {len_b}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_newick("").is_err());
        assert!(parse_newick("(A:0.1,B:0.2").is_err());
        assert!(parse_newick("(A:0.1,B:0.2,C:0.x);").is_err());
        assert!(parse_newick("(A,B);").is_err());
        assert!(parse_newick("(A,A,B);").is_err());
        assert!(parse_newick("(A,B,C,D);").is_err());
        assert!(parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4):0.5); trailing").is_err());
    }

    /// A caterpillar whose deepest cherry sits inside `nesting` parentheses.
    fn caterpillar(nesting: usize) -> String {
        let mut text = "(".repeat(nesting);
        text.push_str("a,b");
        for i in 2..nesting {
            text.push_str(&format!("):0.1,t{i}"));
        }
        text.push_str("):0.1,y,z);");
        text
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_fits_a_small_stack() {
        // 2 MiB is what a spawned thread gets by default; the deepest
        // accepted input must parse, build, serialize and drop on it.
        let on_small_stack = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let tree = parse_newick(&caterpillar(MAX_NESTING)).unwrap();
                assert_eq!(tree.n_taxa(), MAX_NESTING + 2);
                let back = parse_newick(&to_newick(&tree)).unwrap();
                assert_eq!(back.n_taxa(), tree.n_taxa());
                for text in [caterpillar(MAX_NESTING + 1), "(".repeat(1_000_000)] {
                    match parse_newick(&text) {
                        Err(TreeError::Parse(msg)) => assert!(msg.contains("nested deeper")),
                        other => panic!("expected a parse error, got {other:?}"),
                    }
                }
            })
            .unwrap();
        on_small_stack.join().unwrap();
    }

    #[test]
    fn parse_scientific_notation_lengths() {
        let t = parse_newick("(A:1e-3,B:2.5E-2,(C:1.0e0,D:0.4):5e-1);").unwrap();
        let a = t.leaf_by_name("A").unwrap();
        let (_, b) = t.neighbors(a)[0];
        assert!((t.branch_length(b) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn internal_labels_are_ignored() {
        let t = parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4)95:0.5);").unwrap();
        assert_eq!(t.n_taxa(), 4);
    }

    #[test]
    fn large_round_trip() {
        let names: Vec<String> = (0..100).map(|i| format!("sp{i}")).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let t = random_tree(&names, &mut rng);
        let back = parse_newick(&to_newick(&t)).unwrap();
        assert_eq!(back.bipartitions(), t.bipartitions());
    }
}
