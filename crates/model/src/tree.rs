//! YAT data trees: ordered, labeled, `Arc`-shared.

use crate::atom::Atom;
use crate::hash::Fnv64;
use crate::oid::Oid;
use crate::symbol::Symbol;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The label of a tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// A symbol — an element tag or attribute name (`work`, `title`).
    /// Interned: comparing two symbol labels is a pointer comparison in
    /// the `Bind` matching hot loop.
    Sym(Symbol),
    /// An atomic value — always a leaf (`"Claude Monet"`, `1897`).
    Atom(Atom),
    /// An identifier naming this subtree (`a1`, or Skolem-minted
    /// `artwork:0`). Identified nodes can be the target of references.
    Oid(Oid),
    /// A reference to an identified tree (`&p3`) — always a leaf.
    Ref(Oid),
}

impl Label {
    /// The symbol text, if this is a symbol label.
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Label::Sym(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The atom, if this is an atom label.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Label::Atom(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Sym(s) => write!(f, "{s}"),
            Label::Atom(Atom::Str(s)) => write!(f, "{s:?}"),
            Label::Atom(a) => write!(f, "{a}"),
            Label::Oid(o) => write!(f, "{}", o.as_str()),
            Label::Ref(o) => write!(f, "{o}"),
        }
    }
}

/// A tree node. Construct through the [`Node`] builder methods, which return
/// [`Tree`] (`Arc<Node>`) so operators can alias subtrees without copying —
/// `Bind` extracts subtrees into tables by reference; only the `Tree`
/// operator allocates new structure (Section 3.1).
///
/// 48 bytes on 64-bit targets: a 24-byte label, a 16-byte child slice
/// allocated at its exact length, and an 8-byte hash cell.
#[derive(Clone)]
pub struct Node {
    /// This node's label.
    pub label: Label,
    /// Ordered children (XML is ordered; the algebra's horizontal
    /// navigation relies on this order). Fixed once the node is built.
    pub children: Box<[Tree]>,
    /// Lazily computed structural grouping hash ([`Node::key_hash`]).
    /// Computing a parent's hash fills the caches of every shared subtree,
    /// so repeated keying of aliased subtrees is O(1).
    khash: HashCell,
}

/// A shared, immutable YAT tree.
pub type Tree = Arc<Node>;

/// A lazily filled 64-bit hash. 0 reads as "not computed yet", so a hash
/// that computes to 0 is recomputed on every read instead of cached: the
/// value returned is the same either way. Racing readers store the same
/// value, so relaxed ordering suffices.
struct HashCell(AtomicU64);

impl HashCell {
    const EMPTY: u64 = 0;

    fn new() -> HashCell {
        HashCell(AtomicU64::new(HashCell::EMPTY))
    }

    fn get_or(&self, compute: impl FnOnce() -> u64) -> u64 {
        let cached = self.0.load(Ordering::Relaxed);
        if cached != HashCell::EMPTY {
            return cached;
        }
        let h = compute();
        self.0.store(h, Ordering::Relaxed);
        h
    }
}

/// Copies the cell: a cloned node has the same children, so the same hash.
impl Clone for HashCell {
    fn clone(&self) -> HashCell {
        HashCell(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

fn make(label: Label, children: Box<[Tree]>) -> Tree {
    Arc::new(Node {
        label,
        children,
        khash: HashCell::new(),
    })
}

impl Node {
    /// A symbol-labeled node with children.
    pub fn sym(name: impl Into<Symbol>, children: Vec<Tree>) -> Tree {
        make(Label::Sym(name.into()), children.into_boxed_slice())
    }

    /// A node with an arbitrary label — for rebuilding a tree around an
    /// existing root (answer streaming cuts a tree into chunks of
    /// top-level subtrees under a copy of its root).
    pub fn labeled(label: Label, children: Vec<Tree>) -> Tree {
        make(label, children.into_boxed_slice())
    }

    /// A node labeled `label` whose children are the trees `stack` holds
    /// from `mark` on, taken off the stack. A builder that pushes every
    /// node's children onto one reused stack allocates each child slice
    /// once, at its exact length.
    pub fn from_stack(label: Label, stack: &mut Vec<Tree>, mark: usize) -> Tree {
        make(label, stack.drain(mark..).collect())
    }

    /// `root` with `more` appended to its children, as a new node: a
    /// stream of chunks collects their subtrees and reassembles the root
    /// once, in time linear in the subtrees.
    pub fn appended(root: &Tree, more: Vec<Tree>) -> Tree {
        if more.is_empty() {
            return root.clone();
        }
        let children = root.children.iter().cloned().chain(more).collect();
        make(root.label.clone(), children)
    }

    /// `tree` keeping only the children `keep` accepts, in order, under
    /// the root's own label. Identifiers wrapping a single child are seen
    /// through, as a filter sees them: `w1[work[title, artist]]` keeps
    /// `w1` and cuts `work`'s children. When every child is kept the
    /// answer is `tree` itself (a pointer-equal `Arc`) and nothing is
    /// allocated. This is the one strip kernel behind a source's
    /// retrieval policy and a request's element set.
    pub fn retained(tree: &Tree, keep: impl Fn(&Tree) -> bool) -> Tree {
        fn cut(tree: &Tree, keep: &dyn Fn(&Tree) -> bool) -> Tree {
            if let (Label::Oid(_), [only]) = (&tree.label, &*tree.children) {
                let inner = cut(only, keep);
                return if Arc::ptr_eq(&inner, only) {
                    tree.clone()
                } else {
                    make(tree.label.clone(), Box::new([inner]))
                };
            }
            let kept = tree.children.iter().filter(|c| keep(c)).count();
            if kept == tree.children.len() {
                return tree.clone();
            }
            // one slice at its exact length
            let mut children = Vec::with_capacity(kept);
            children.extend(tree.children.iter().filter(|c| keep(c)).cloned());
            make(tree.label.clone(), children.into_boxed_slice())
        }
        cut(tree, &keep)
    }

    /// What an element set naming `fields` keeps of a document: the
    /// children [`Node::in_fields`] accepts, cut by [`Node::retained`].
    /// Only a document whose root, past identifiers wrapping a single
    /// child, is a symbol is cut — those are the only documents a filter
    /// rooted at a symbol can match. Any other document is shipped
    /// whole, since a cut could leave it one child a filter then sees
    /// through.
    pub fn element_set(tree: &Tree, fields: &[&str]) -> Tree {
        let mut root: &Node = tree;
        while let (Label::Oid(_), [only]) = (&root.label, &*root.children) {
            root = only;
        }
        if !matches!(root.label, Label::Sym(_)) {
            return tree.clone();
        }
        Node::retained(tree, |c| c.in_fields(fields))
    }

    /// Whether an element set naming `fields` keeps this child of a
    /// document: its symbol is one of them, seen through identifiers
    /// that wrap a single child (`&oid` transparency, as filters match),
    /// or it is a reference leaf, which a filter may follow to any
    /// field. Atoms and other symbols are never matched by a filter edge
    /// naming one of `fields`, so dropping them cannot change a match.
    pub fn in_fields(&self, fields: &[&str]) -> bool {
        let mut node = self;
        loop {
            match (&node.label, &*node.children) {
                (Label::Sym(s), _) => return fields.contains(&s.as_str()),
                (Label::Ref(_), _) => return true,
                (Label::Oid(_), [only]) => node = only,
                _ => return false,
            }
        }
    }

    /// A symbol-labeled leaf wrapping a single atom child:
    /// `title["Nympheas"]`. This is the shape XML elements with character
    /// data convert to.
    pub fn elem(name: impl Into<Symbol>, value: impl Into<Atom>) -> Tree {
        Node::sym(name, vec![Node::atom(value)])
    }

    /// An atomic leaf.
    pub fn atom(value: impl Into<Atom>) -> Tree {
        make(Label::Atom(value.into()), Box::default())
    }

    /// An identified node (`a1[...]`).
    pub fn oid(oid: Oid, children: Vec<Tree>) -> Tree {
        make(Label::Oid(oid), children.into_boxed_slice())
    }

    /// A reference leaf (`&p3`).
    pub fn reference(oid: Oid) -> Tree {
        make(Label::Ref(oid), Box::default())
    }

    /// The first child, for the common `elem` shape.
    pub fn first_child(&self) -> Option<&Tree> {
        self.children.first()
    }

    /// If this node is `sym[atom]` or itself an atom, return the atom.
    /// This is the standard "value of an element" accessor: predicates like
    /// `$y > 1800` apply it to bound subtrees.
    pub fn value_atom(&self) -> Option<&Atom> {
        match &self.label {
            Label::Atom(a) => Some(a),
            _ => match &*self.children {
                [only] => only.label.as_atom(),
                _ => None,
            },
        }
    }

    /// Children that are symbol-labeled `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Tree> + 'a {
        self.children
            .iter()
            .filter(move |c| c.label.as_sym() == Some(name))
    }

    /// First child labeled `name`.
    pub fn child(&self, name: &str) -> Option<&Tree> {
        self.children
            .iter()
            .find(|c| c.label.as_sym() == Some(name))
    }

    /// Total node count of the subtree (used by transfer accounting).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Depth of the subtree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Structural equality on trees. `PartialEq` already provides this; the
    /// named form documents intent at call sites (e.g. `Union` dedup).
    pub fn tree_eq(a: &Tree, b: &Tree) -> bool {
        a == b
    }

    /// A stable textual key for grouping/dedup. Two trees have equal keys
    /// iff structurally equal — except identified subtrees, which key on
    /// their identity alone (ODMG object semantics: two objects are the
    /// same iff they have the same identifier, and identity joins must not
    /// serialize object state).
    ///
    /// This is the *reference* key: the hashed data plane keys the same
    /// equivalence via [`Node::key_hash`] + [`Node::key_eq`] without
    /// serializing anything. Kept for `Sort` tie-breaking, goldens, and as
    /// the baseline the property tests compare the hash path against.
    pub fn group_key(tree: &Tree) -> String {
        let mut s = String::new();
        Node::write_group_key(tree, &mut s).expect("writing to a String cannot fail");
        s
    }

    /// Writes [`Node::group_key`]'s text into `out` without building it.
    pub fn write_group_key(tree: &Node, out: &mut impl fmt::Write) -> fmt::Result {
        write_key(tree, out)
    }

    /// The 64-bit structural grouping hash of this subtree: equal
    /// [`Node::group_key`]s hash equal; unequal keys collide only with
    /// ordinary 64-bit hash probability (operators confirm matches with
    /// [`Node::key_eq`]). The value is cached per node, so keying a shared
    /// subtree twice — or keying a parent after its children — costs one
    /// cache read per node instead of re-serializing the subtree.
    pub fn key_hash(&self) -> u64 {
        self.khash.get_or(|| self.compute_key_hash())
    }

    fn compute_key_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        match &self.label {
            Label::Sym(s) => {
                h.write_u8(b's');
                crate::hash::write_len_str(&mut h, s.as_str());
            }
            Label::Atom(a) => {
                h.write_u8(b'a');
                a.key_hash_into(&mut h);
            }
            Label::Oid(o) => {
                // identity, not state: stop here (mirrors group_key)
                h.write_u8(b'o');
                crate::hash::write_len_str(&mut h, o.as_str());
                return h.finish();
            }
            Label::Ref(o) => {
                h.write_u8(b'r');
                crate::hash::write_len_str(&mut h, o.as_str());
            }
        }
        h.write_u64(self.children.len() as u64);
        for c in self.children.iter() {
            h.write_u64(c.key_hash());
        }
        h.finish()
    }

    /// Grouping-key equality — the equivalence [`Node::group_key`] strings
    /// induce, decided structurally: identified subtrees compare by
    /// identity alone, atoms by [`Atom::key_eq`] (numeric coercion), and
    /// everything else recursively. The cached hashes give an O(1) reject
    /// at every level, so confirming a hash match is cheap even on deep
    /// trees.
    pub fn key_eq(a: &Node, b: &Node) -> bool {
        if std::ptr::eq(a, b) {
            return true;
        }
        if a.key_hash() != b.key_hash() {
            return false;
        }
        match (&a.label, &b.label) {
            (Label::Oid(x), Label::Oid(y)) => return x == y,
            (Label::Sym(x), Label::Sym(y)) if x == y => {}
            (Label::Atom(x), Label::Atom(y)) if x.key_eq(y) => {}
            (Label::Ref(x), Label::Ref(y)) if x == y => {}
            _ => return false,
        }
        a.children.len() == b.children.len()
            && a.children
                .iter()
                .zip(b.children.iter())
                .all(|(c, d)| Node::key_eq(c, d))
    }
}

/// Structural equality on label and children — the pre-existing semantics
/// (identified nodes compare their children too, unlike the grouping keys).
/// Manual only because the hash cache must not participate.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.children == other.children
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("label", &self.label)
            .field("children", &self.children)
            .finish()
    }
}

fn write_key(t: &Node, out: &mut impl fmt::Write) -> fmt::Result {
    match &t.label {
        Label::Sym(s) => {
            out.write_char('s')?;
            out.write_str(s)?;
        }
        Label::Atom(a) => {
            out.write_char('a')?;
            a.write_key(out)?;
        }
        Label::Oid(o) => {
            // identity, not state: stop here
            out.write_char('o')?;
            return out.write_str(o.as_str());
        }
        Label::Ref(o) => {
            out.write_char('r')?;
            out.write_str(o.as_str())?;
        }
    }
    out.write_char('(')?;
    for c in t.children.iter() {
        write_key(c, out)?;
        out.write_char(',')?;
    }
    out.write_char(')')
}

/// YAT textual syntax: `work[title["Nympheas"], year[1897]]`.
impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)?;
        if !self.children.is_empty() {
            write!(f, "[")?;
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", c)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monet_work() -> Tree {
        Node::sym(
            "work",
            vec![
                Node::elem("artist", "Claude Monet"),
                Node::elem("title", "Nympheas"),
                Node::elem("year", 1897),
            ],
        )
    }

    #[test]
    fn builders_and_accessors() {
        let w = monet_work();
        assert_eq!(w.label.as_sym(), Some("work"));
        assert_eq!(w.children.len(), 3);
        assert_eq!(
            w.child("title").unwrap().value_atom(),
            Some(&Atom::Str("Nympheas".into()))
        );
        assert_eq!(
            w.child("year").unwrap().value_atom(),
            Some(&Atom::Int(1897))
        );
        assert!(w.child("price").is_none());
    }

    #[test]
    fn retained_keeps_the_root_label_and_shares_when_nothing_drops() {
        let w = monet_work();
        let same = Node::retained(&w, |_| true);
        assert!(Arc::ptr_eq(&same, &w), "nothing dropped, nothing allocated");
        let titled = Node::retained(&w, |c| c.label.as_sym() == Some("title"));
        assert_eq!(titled.to_string(), "work[title[\"Nympheas\"]]");
        assert!(Arc::ptr_eq(&titled.children[0], &w.children[1]));
        // identified fields and references stay in an element set
        let wrapped = Node::oid(Oid::new("t1"), vec![Node::elem("title", "y")]);
        assert!(wrapped.in_fields(&["title"]) && !wrapped.in_fields(&["artist"]));
        assert!(Node::reference(Oid::new("p1")).in_fields(&[]));
        assert!(!Node::atom("text").in_fields(&["title"]));
        let object = Node::oid(
            Oid::new("a1"),
            vec![Node::elem("title", "x"), Node::elem("artist", "y")],
        );
        let stripped = Node::retained(&object, |_| false);
        assert_eq!(stripped.label, Label::Oid(Oid::new("a1")));
        assert!(stripped.children.is_empty());
    }

    #[test]
    fn identified_documents_are_cut_inside_their_identifier() {
        // `w1[v1[work[title, artist]]]`: the cut sees through both
        // identifiers, as a filter does, and wraps the cut work again
        let doc = Node::oid(
            Oid::new("w1"),
            vec![Node::oid(Oid::new("v1"), vec![monet_work()])],
        );
        let titled = Node::element_set(&doc, &["title"]);
        assert_eq!(titled.to_string(), "w1[v1[work[title[\"Nympheas\"]]]]");
        let same = Node::element_set(&doc, &["artist", "title", "year"]);
        assert!(
            Arc::ptr_eq(&same, &doc),
            "nothing dropped, nothing allocated"
        );
        let policy = Node::retained(&doc, |c| c.label.as_sym() == Some("year"));
        assert_eq!(policy.to_string(), "w1[v1[work[year[1897]]]]");
        // a root no symbol-rooted filter matches is shipped whole: cutting
        // `a1[work[work[..]], title]` to {work} would leave one child a
        // filter `work[work[..]]` sees through
        let two = Node::oid(
            Oid::new("a1"),
            vec![
                Node::sym("work", vec![Node::elem("work", "x")]),
                Node::elem("title", "y"),
            ],
        );
        assert!(Arc::ptr_eq(&Node::element_set(&two, &["work"]), &two));
        let leaf = Node::atom("text");
        assert!(Arc::ptr_eq(&Node::element_set(&leaf, &[]), &leaf));
    }

    #[test]
    fn size_and_depth() {
        let w = monet_work();
        assert_eq!(w.size(), 7); // work + 3 elems + 3 atoms
        assert_eq!(w.depth(), 3);
        assert_eq!(Node::atom(1).size(), 1);
        assert_eq!(Node::atom(1).depth(), 1);
    }

    #[test]
    fn display_yat_syntax() {
        let w = Node::sym(
            "t",
            vec![Node::elem("a", 1), Node::reference(Oid::new("p1"))],
        );
        assert_eq!(w.to_string(), "t[a[1], &p1]");
        let o = Node::oid(Oid::new("a1"), vec![Node::atom("x")]);
        assert_eq!(o.to_string(), "a1[\"x\"]");
    }

    #[test]
    fn group_key_distinguishes_structure_but_coerces_numbers() {
        let a = Node::elem("year", 1897);
        let b = Node::elem("year", 1897.0);
        let c = Node::elem("year", 1898);
        assert_eq!(Node::group_key(&a), Node::group_key(&b));
        assert_ne!(Node::group_key(&a), Node::group_key(&c));
        // string "1897" differs from number 1897
        let d = Node::elem("year", "1897");
        assert_ne!(Node::group_key(&a), Node::group_key(&d));
    }

    #[test]
    fn key_hash_agrees_with_group_key() {
        let cases = vec![
            Node::elem("year", 1897),
            Node::elem("year", 1897.0),
            Node::elem("year", 1898),
            Node::elem("year", "1897"),
            Node::atom(true),
            Node::sym("w", vec![Node::elem("a", 1), Node::elem("b", 2)]),
            Node::oid(Oid::new("a1"), vec![Node::elem("t", 1)]),
            Node::oid(Oid::new("a1"), vec![Node::elem("t", 2)]),
            Node::oid(Oid::new("a2"), vec![Node::elem("t", 1)]),
            Node::reference(Oid::new("p1")),
        ];
        for x in &cases {
            for y in &cases {
                let keys_eq = Node::group_key(x) == Node::group_key(y);
                assert_eq!(
                    keys_eq,
                    Node::key_eq(x, y),
                    "key_eq must track group_key equality: {x} vs {y}"
                );
                if keys_eq {
                    assert_eq!(x.key_hash(), y.key_hash(), "{x} vs {y}");
                }
            }
        }
    }

    /// Fixed trees whose `key_hash` values are pinned below: symbols,
    /// numeric coercion (`1` vs `1.0`), signed zero, NaN, empty and
    /// non-ASCII strings, identified and reference nodes, and a nested
    /// tree. Grouping keys travel in caches and Skolem OIDs, so a layout
    /// change must reproduce every value bit for bit.
    fn golden_trees() -> Vec<(&'static str, Tree)> {
        vec![
            ("sym", Node::sym("work", Vec::new())),
            ("int 1", Node::atom(1)),
            ("float 1.0", Node::atom(1.0)),
            ("float -0.0", Node::atom(-0.0)),
            ("float NaN", Node::atom(f64::NAN)),
            ("empty string", Node::atom("")),
            ("non-ASCII string", Node::atom("Nymphéas — 睡蓮")),
            ("oid", Node::oid(Oid::new("a1"), vec![Node::elem("t", 1)])),
            ("ref", Node::reference(Oid::new("p3"))),
            (
                "nested",
                Node::sym(
                    "work",
                    vec![
                        Node::elem("title", "Nympheas"),
                        Node::elem("year", 1897),
                        Node::sym("owners", vec![Node::reference(Oid::new("p1"))]),
                        Node::atom(true),
                    ],
                ),
            ),
        ]
    }

    #[test]
    fn key_hash_values_are_pinned() {
        let pinned: [(&str, u64); 10] = [
            ("sym", 0xb17264d899efa6ab),
            ("int 1", 0x63e9ef1b86e7c057),
            ("float 1.0", 0x63e9ef1b86e7c057),
            ("float -0.0", 0xd9434bee1f001f06),
            ("float NaN", 0x5fb84d10eb1833cf),
            ("empty string", 0xea98747d2c19c368),
            ("non-ASCII string", 0xc299eb40b660e76a),
            ("oid", 0xa27708b1c873ebc2),
            ("ref", 0x26361b9ba06cb0a2),
            ("nested", 0xe51398abdd5df29e),
        ];
        for ((name, tree), (pinned_name, hash)) in golden_trees().into_iter().zip(pinned) {
            assert_eq!(name, pinned_name);
            assert_eq!(tree.key_hash(), hash, "{name}: {tree}");
            // a second read comes from the cache and must agree
            assert_eq!(tree.key_hash(), hash, "{name} (cached)");
        }
    }

    #[test]
    fn a_zero_hash_is_returned_but_not_cached() {
        let cell = HashCell::new();
        let mut computed = 0;
        for _ in 0..3 {
            let h = cell.get_or(|| {
                computed += 1;
                0
            });
            assert_eq!(h, 0, "the sentinel value itself is still the hash");
        }
        assert_eq!(
            computed, 3,
            "0 reads as not computed, so it is never cached"
        );
        assert_eq!(cell.get_or(|| 7), 7);
        assert_eq!(cell.get_or(|| unreachable!("cached")), 7);
        assert_eq!(cell.clone().get_or(|| unreachable!("copied")), 7);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn node_and_label_sizes() {
        assert_eq!(std::mem::size_of::<Label>(), 24);
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    #[test]
    fn stack_built_children_take_the_tail_and_keep_order() {
        let mut stack = vec![Node::atom(0)];
        let mark = stack.len();
        stack.extend([Node::elem("a", 1), Node::elem("b", 2)]);
        let t = Node::from_stack(Label::Sym("w".into()), &mut stack, mark);
        assert_eq!(t.to_string(), "w[a[1], b[2]]");
        assert_eq!(stack.len(), 1, "the children left the stack");
        let empty = Node::from_stack(Label::Sym("e".into()), &mut stack, 1);
        assert!(empty.children.is_empty());
    }

    #[test]
    fn appended_concatenates_without_touching_the_root() {
        let root = Node::sym("r", vec![Node::elem("a", 1)]);
        let h = root.key_hash();
        let both = Node::appended(&root, vec![Node::elem("b", 2)]);
        assert_eq!(both.to_string(), "r[a[1], b[2]]");
        assert_eq!(root.to_string(), "r[a[1]]");
        assert_eq!(root.key_hash(), h);
        assert_ne!(both.key_hash(), h, "a fresh node hashes its own children");
        assert!(Arc::ptr_eq(&Node::appended(&root, Vec::new()), &root));
    }

    #[test]
    fn oid_keys_are_identity_not_state() {
        // same id, different children: same key (and PartialEq differs)
        let a = Node::oid(Oid::new("a1"), vec![Node::elem("t", 1)]);
        let b = Node::oid(Oid::new("a1"), vec![Node::elem("t", 2)]);
        assert!(Node::key_eq(&a, &b));
        assert_eq!(a.key_hash(), b.key_hash());
        assert_ne!(a, b);
    }

    #[test]
    fn key_hash_is_cached_across_sharing() {
        let shared = Node::elem("artist", "Monet");
        let h = shared.key_hash();
        let t1 = Node::sym("w1", vec![shared.clone()]);
        let _ = t1.key_hash();
        // same allocation, same cached hash
        assert_eq!(t1.children[0].key_hash(), h);
        assert!(Arc::ptr_eq(&t1.children[0], &shared));
    }

    #[test]
    fn subtree_sharing_is_by_pointer() {
        let shared = Node::elem("artist", "Monet");
        let t1 = Node::sym("w1", vec![shared.clone()]);
        let t2 = Node::sym("w2", vec![shared.clone()]);
        assert!(Arc::ptr_eq(&t1.children[0], &t2.children[0]));
    }
}
