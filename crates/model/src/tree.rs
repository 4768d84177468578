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
/// 48 bytes on 64-bit targets: a 24-byte label, 16 bytes of
/// [`Children`] (a lone child held in place, or a slice allocated at its
/// exact length), and an 8-byte hash cell.
#[derive(Clone)]
pub struct Node {
    /// This node's label.
    pub label: Label,
    /// Ordered children (XML is ordered; the algebra's horizontal
    /// navigation relies on this order). Fixed once the node is built.
    pub children: Children,
    /// Lazily computed structural grouping hash ([`Node::key_hash`]).
    /// Computing a parent's hash fills the caches of every shared subtree,
    /// so repeated keying of aliased subtrees is O(1).
    khash: HashCell,
}

/// A shared, immutable YAT tree.
pub type Tree = Arc<Node>;

/// A node's ordered children, read as a `[Tree]` slice. A lone child —
/// `title["Nympheas"]`'s atom, a cut work's one field, an identifier's
/// body — is held in place, so a single-child node costs one allocation
/// (its `Arc`) instead of two. The enum sits in the niche of `Box`'s
/// pointer: 16 bytes, the size of the slice it replaces.
///
/// Only the constructors in this module pick a variant, and they never
/// build a one-element `Many`, so the variant is a function of the
/// length; equality, `Debug` and hashing see the slice alone.
#[derive(Clone)]
pub enum Children {
    /// Exactly one child.
    One(Tree),
    /// Zero or at least two children, allocated at their exact length.
    Many(Box<[Tree]>),
}

impl Children {
    /// No children; allocates nothing.
    fn none() -> Children {
        Children::Many(Box::default())
    }
}

impl std::ops::Deref for Children {
    type Target = [Tree];

    fn deref(&self) -> &[Tree] {
        match self {
            Children::One(only) => std::slice::from_ref(only),
            Children::Many(all) => all,
        }
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a Tree;
    type IntoIter = std::slice::Iter<'a, Tree>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A one-element vector gives up its child and frees its buffer; any
/// other length keeps its buffer, shrunk to its exact length.
impl From<Vec<Tree>> for Children {
    fn from(mut children: Vec<Tree>) -> Children {
        match children.len() {
            1 => Children::One(children.pop().expect("one child")),
            _ => Children::Many(children.into_boxed_slice()),
        }
    }
}

/// Collects without a buffer when the iterator yields one tree, and into
/// one buffer sized from the iterator's hint otherwise.
impl FromIterator<Tree> for Children {
    fn from_iter<I: IntoIterator<Item = Tree>>(iter: I) -> Children {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Children::none();
        };
        let Some(second) = iter.next() else {
            return Children::One(first);
        };
        let mut all = Vec::with_capacity(iter.size_hint().0 + 2);
        all.push(first);
        all.push(second);
        all.extend(iter);
        Children::Many(all.into_boxed_slice())
    }
}

impl PartialEq for Children {
    fn eq(&self, other: &Children) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Children {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

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

fn make(label: Label, children: Children) -> Tree {
    Arc::new(Node {
        label,
        children,
        khash: HashCell::new(),
    })
}

impl Node {
    /// A symbol-labeled node with children.
    pub fn sym(name: impl Into<Symbol>, children: Vec<Tree>) -> Tree {
        make(Label::Sym(name.into()), children.into())
    }

    /// A node with an arbitrary label — for rebuilding a tree around an
    /// existing root (answer streaming cuts a tree into chunks of
    /// top-level subtrees under a copy of its root).
    pub fn labeled(label: Label, children: Vec<Tree>) -> Tree {
        make(label, children.into())
    }

    /// A node labeled `label` over the one child `child`, held in place:
    /// one allocation, where building a one-element `Vec` first would
    /// allocate (and free) a buffer too.
    pub fn with_child(label: Label, child: Tree) -> Tree {
        make(label, Children::One(child))
    }

    /// A node labeled `label` whose children are the trees `stack` holds
    /// from `mark` on, taken off the stack. A builder that pushes every
    /// node's children onto one reused stack allocates each child slice
    /// once, at its exact length, and a lone child not at all.
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
                    make(tree.label.clone(), Children::One(inner))
                };
            }
            let kept = tree.children.iter().filter(|c| keep(c)).count();
            if kept == tree.children.len() {
                return tree.clone();
            }
            let mut kept_children = tree.children.iter().filter(|c| keep(c)).cloned();
            let children = if kept == 1 {
                Children::One(kept_children.next().expect("one kept child"))
            } else {
                // one slice at its exact length
                let mut children = Vec::with_capacity(kept);
                children.extend(kept_children);
                Children::Many(children.into_boxed_slice())
            };
            make(tree.label.clone(), children)
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
        Node::with_child(Label::Sym(name.into()), Node::atom(value))
    }

    /// An atomic leaf.
    pub fn atom(value: impl Into<Atom>) -> Tree {
        make(Label::Atom(value.into()), Children::none())
    }

    /// An identified node (`a1[...]`).
    pub fn oid(oid: Oid, children: Vec<Tree>) -> Tree {
        make(Label::Oid(oid), children.into())
    }

    /// A reference leaf (`&p3`).
    pub fn reference(oid: Oid) -> Tree {
        make(Label::Ref(oid), Children::none())
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
        // a lone child sits in the niche of the slice's pointer
        assert_eq!(std::mem::size_of::<Children>(), 16);
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }

    /// Whether some node of `tree` holds its only child in a slice.
    fn has_lone_many(tree: &Node) -> bool {
        matches!(&tree.children, Children::Many(all) if all.len() == 1)
            || tree.children.iter().any(|c| has_lone_many(c))
    }

    /// `tree` rebuilt with every child list held as a slice, lone
    /// children included: the layout before [`Children::One`].
    fn as_slices(tree: &Tree) -> Tree {
        let children: Vec<Tree> = tree.children.iter().map(as_slices).collect();
        Arc::new(Node {
            label: tree.label.clone(),
            children: Children::Many(children.into_boxed_slice()),
            khash: HashCell::new(),
        })
    }

    const NAMES: [&str; 4] = ["a", "b", "w", "@c"];

    fn random_atom(rng: &mut yat_prng::Rng) -> Atom {
        match rng.gen_range(0..4u8) {
            0 => Atom::Int(rng.gen_range(0..3i64)),
            1 => Atom::Float(1.0),
            2 => Atom::Bool(rng.gen_bool(0.5)),
            _ => Atom::Str(["", "x", "Nymphéas & <co>"][rng.gen_range(0..3usize)].into()),
        }
    }

    fn random_label(rng: &mut yat_prng::Rng) -> Label {
        if rng.gen_bool(0.2) {
            Label::Oid(Oid::new(["o1", "o2"][rng.gen_range(0..2usize)]))
        } else {
            Label::Sym(NAMES[rng.gen_range(0..NAMES.len())].into())
        }
    }

    /// A random tree whose inner nodes come from every constructor of
    /// this module, over a small alphabet so that equal trees built by
    /// different constructors turn up.
    fn random_tree(rng: &mut yat_prng::Rng, depth: u32, stack: &mut Vec<Tree>) -> Tree {
        if depth == 0 || rng.gen_bool(0.25) {
            return match rng.gen_range(0..4u8) {
                0 => Node::atom(random_atom(rng)),
                1 => Node::reference(Oid::new(["p1", "p2"][rng.gen_range(0..2usize)])),
                2 => Node::elem(NAMES[rng.gen_range(0..NAMES.len())], random_atom(rng)),
                _ => Node::sym(NAMES[rng.gen_range(0..3usize)], Vec::new()),
            };
        }
        let n = [0, 1, 1, 2, 3][rng.gen_range(0..5usize)];
        let kids: Vec<Tree> = (0..n).map(|_| random_tree(rng, depth - 1, stack)).collect();
        let label = random_label(rng);
        match rng.gen_range(0..8u8) {
            0 => Node::sym(NAMES[rng.gen_range(0..3usize)], kids),
            1 => Node::oid(Oid::new("o1"), kids),
            2 => {
                let mark = stack.len();
                stack.extend(kids);
                Node::from_stack(label, stack, mark)
            }
            3 if n == 1 => Node::with_child(label, kids.into_iter().next().expect("one")),
            4 => {
                let mut kids = kids;
                let more = kids.split_off(rng.gen_range(0..n + 1));
                Node::appended(&Node::labeled(label, kids), more)
            }
            5 => {
                let fields = [NAMES[rng.gen_range(0..NAMES.len())]];
                Node::retained(&Node::labeled(label, kids), |c| c.in_fields(&fields))
            }
            6 => {
                let fields = [NAMES[rng.gen_range(0..NAMES.len())], "w"];
                Node::element_set(&Node::labeled(label, kids), &fields)
            }
            _ => Node::labeled(label, kids),
        }
    }

    fn written(tree: &Tree) -> String {
        let mut out = String::new();
        crate::xml_convert::write_tree(tree, &mut out);
        out
    }

    /// `tree` holds no lone child in a slice, and reads, writes and keys
    /// exactly as its all-slices twin does.
    fn check_against_slices(tree: &Tree, seed: u64) {
        assert!(
            !has_lone_many(tree),
            "seed {seed}: a one-child slice in {tree}"
        );
        let twin = as_slices(tree);
        assert_eq!(tree, &twin, "seed {seed}");
        assert_eq!(format!("{tree:?}"), format!("{twin:?}"), "seed {seed}");
        assert_eq!(tree.key_hash(), twin.key_hash(), "seed {seed}: {tree}");
        assert!(Node::key_eq(tree, &twin), "seed {seed}: {tree}");
        assert_eq!(Node::group_key(tree), Node::group_key(&twin), "seed {seed}");
        assert_eq!(written(tree), written(&twin), "seed {seed}: {tree}");
    }

    /// The decoders' trees, for text `write_tree` produced: through the
    /// `Element` reference and through the wire codec's `read_tree`.
    /// `None` when the text is not a document (a `@name` element that is
    /// not an attribute writes an invalid tag).
    fn decoded(text: &str) -> Option<(Tree, Tree)> {
        let reference = crate::xml_convert::parse_tree(text).ok()?;
        let mut reader = yat_xml::Reader::new(text);
        let yat_xml::Event::Start(root) = reader.next().ok()? else {
            return None;
        };
        let mut symbols = crate::xml_convert::Symbols::default();
        let wire = crate::xml_convert::read_tree(&mut reader, root, &mut symbols).ok()?;
        Some((reference, wire))
    }

    #[test]
    fn lone_children_are_held_in_place_and_read_as_slices() {
        let mut decodes = 0;
        for seed in 0..300u64 {
            let mut rng = yat_prng::Rng::seed_from_u64(seed);
            let mut stack = Vec::new();
            let trees: Vec<Tree> = (0..6)
                .map(|_| random_tree(&mut rng, 4, &mut stack))
                .collect();
            assert!(stack.is_empty(), "seed {seed}: from_stack left children");
            for tree in &trees {
                check_against_slices(tree, seed);
                if let Some((reference, wire)) = decoded(&written(tree)) {
                    decodes += 1;
                    check_against_slices(&reference, seed);
                    check_against_slices(&wire, seed);
                    assert_eq!(reference, wire, "seed {seed}: {tree}");
                }
            }
            // equality and grouping keys across trees agree with the twins'
            for x in &trees {
                for y in &trees {
                    let (tx, ty) = (as_slices(x), as_slices(y));
                    assert_eq!(x == y, tx == ty, "seed {seed}: {x} vs {y}");
                    assert_eq!(
                        Node::key_eq(x, y),
                        Node::key_eq(&tx, &ty),
                        "seed {seed}: {x} vs {y}"
                    );
                }
            }
        }
        assert!(decodes > 900, "only {decodes} of 1 800 trees decoded");
    }

    #[test]
    fn vectors_and_iterators_of_one_tree_build_no_slice() {
        let one = || Node::atom(1);
        for tree in [
            Node::sym("s", vec![one()]),
            Node::labeled(Label::Sym("s".into()), vec![one()]),
            Node::oid(Oid::new("o"), vec![one()]),
            Node::elem("s", 1),
            Node::appended(&Node::sym("s", Vec::new()), vec![one()]),
            Node::retained(&Node::sym("s", vec![one(), Node::elem("t", 2)]), |c| {
                c.children.is_empty()
            }),
        ] {
            assert!(matches!(tree.children, Children::One(_)), "{tree}");
            assert_eq!(tree.children.len(), 1);
            let via_iter: Vec<&Tree> = (&tree.children).into_iter().collect();
            assert!(Arc::ptr_eq(via_iter[0], &tree.children[0]));
        }
        assert!(matches!(Node::atom(1).children, Children::Many(ref none) if none.is_empty()));
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
