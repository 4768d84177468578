//! YAT data trees: ordered, labeled, `Arc`-shared.

use crate::atom::Atom;
use crate::hash::Fnv64;
use crate::oid::Oid;
use crate::symbol::Symbol;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

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
#[derive(Clone)]
pub struct Node {
    /// This node's label.
    pub label: Label,
    /// Ordered children (XML is ordered; the algebra's horizontal
    /// navigation relies on this order).
    pub children: Vec<Tree>,
    /// Lazily computed structural grouping hash ([`Node::key_hash`]).
    /// Computing a parent's hash fills the caches of every shared subtree,
    /// so repeated keying of aliased subtrees is O(1).
    khash: OnceLock<u64>,
}

/// A shared, immutable YAT tree.
pub type Tree = Arc<Node>;

fn make(label: Label, children: Vec<Tree>) -> Tree {
    Arc::new(Node {
        label,
        children,
        khash: OnceLock::new(),
    })
}

impl Node {
    /// A symbol-labeled node with children.
    pub fn sym(name: impl Into<Symbol>, children: Vec<Tree>) -> Tree {
        make(Label::Sym(name.into()), children)
    }

    /// A node with an arbitrary label — for rebuilding a tree around an
    /// existing root (answer streaming cuts a tree into chunks of
    /// top-level subtrees under a copy of its root).
    pub fn labeled(label: Label, children: Vec<Tree>) -> Tree {
        make(label, children)
    }

    /// A symbol-labeled leaf wrapping a single atom child:
    /// `title["Nympheas"]`. This is the shape XML elements with character
    /// data convert to.
    pub fn elem(name: impl Into<Symbol>, value: impl Into<Atom>) -> Tree {
        Node::sym(name, vec![Node::atom(value)])
    }

    /// An atomic leaf.
    pub fn atom(value: impl Into<Atom>) -> Tree {
        make(Label::Atom(value.into()), Vec::new())
    }

    /// An identified node (`a1[...]`).
    pub fn oid(oid: Oid, children: Vec<Tree>) -> Tree {
        make(Label::Oid(oid), children)
    }

    /// A reference leaf (`&p3`).
    pub fn reference(oid: Oid) -> Tree {
        make(Label::Ref(oid), Vec::new())
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
            _ => match self.children.as_slice() {
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
        if let Some(h) = self.khash.get() {
            return *h;
        }
        let h = self.compute_key_hash();
        *self.khash.get_or_init(|| h)
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
        for c in &self.children {
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
                .zip(&b.children)
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
    for c in &t.children {
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
