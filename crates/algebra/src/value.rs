//! Values held in `Tab` cells.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use yat_model::hash::{write_len_str, Fnv64};
use yat_model::{Atom, Binding, Node, Tree};

/// A cell value in a [`crate::Tab`].
///
/// `Tab` structures are ¬1NF: a cell may hold a whole subtree, an atomic
/// value, a label, or a nested collection (Fig. 4's `$fields` column holds
/// collections of optional elements).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A subtree, aliased (not copied) from the input document.
    Tree(Tree),
    /// An atomic value, e.g. produced by `Map` arithmetic.
    Atom(Atom),
    /// A label bound by a tag variable.
    Label(String),
    /// A nested collection (star-collect bindings, grouped rows).
    Coll(Vec<Value>),
    /// Absent — a variable bound in one `Union` branch but not another,
    /// or an outer-join style miss.
    Null,
}

impl Value {
    /// Converts a match-time [`Binding`] into a table value.
    pub fn from_binding(b: Binding) -> Value {
        match b {
            Binding::Tree(t) => Value::Tree(t),
            Binding::Label(l) => Value::Label(l),
            Binding::Coll(c) => Value::Coll(c.into_iter().map(Value::Tree).collect()),
        }
    }

    /// The subtree, if this value holds one.
    pub fn as_tree(&self) -> Option<&Tree> {
        match self {
            Value::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The atomic content of this value: an `Atom` directly, or the atom of
    /// a `sym[atom]` / `atom` tree. This is the coercion predicates apply —
    /// comparing `$y > 1800` works whether `$y` is bound to the `year`
    /// element or its integer content.
    pub fn atom(&self) -> Option<Atom> {
        match self {
            Value::Atom(a) => Some(a.clone()),
            Value::Tree(t) => t.value_atom().cloned().or_else(|| match &t.label {
                yat_model::Label::Sym(_) => None,
                _ => None,
            }),
            Value::Label(l) => Some(Atom::Str(l.clone())),
            _ => None,
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Value equality used by predicates and joins: atoms compare with
    /// numeric coercion, trees structurally, and a tree whose content is an
    /// atom compares equal to that atom (so `$t = $t'` holds between a
    /// bound `title` element and a bound title string).
    pub fn query_eq(&self, other: &Value) -> bool {
        if let (Some(a), Some(b)) = (self.atom_view(), other.atom_view()) {
            return a.value_eq(&b);
        }
        match (self, other) {
            (Value::Tree(a), Value::Tree(b)) => a == b,
            (Value::Coll(a), Value::Coll(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.query_eq(y))
            }
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }

    /// A grouping/join key: equal keys ⟺ [`Value::query_eq`]. Uses the
    /// atom coercion first so `title["x"]` and `"x"` group together.
    pub fn group_key(&self) -> String {
        let mut s = String::new();
        self.write_group_key(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Writes [`Value::group_key`]'s text into `out` without building it.
    pub fn write_group_key(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self.atom_view() {
            Some(AtomView::Atom(a)) => a.write_key(out),
            Some(AtomView::Str(s)) => {
                out.write_char('t')?;
                out.write_str(s)
            }
            None => match self {
                Value::Tree(t) => {
                    out.write_char('T')?;
                    Node::write_group_key(t, out)
                }
                Value::Coll(c) => {
                    out.write_str("C[")?;
                    for v in c {
                        v.write_group_key(out)?;
                        out.write_char(';')?;
                    }
                    out.write_char(']')
                }
                Value::Null => out.write_char('N'),
                // Atom/Label always produce a view above
                Value::Atom(_) | Value::Label(_) => unreachable!(),
            },
        }
    }

    /// Borrowed view of the atomic content this value coerces to — the
    /// same coercion as [`Value::atom`], but without cloning strings.
    pub(crate) fn atom_view(&self) -> Option<AtomView<'_>> {
        match self {
            Value::Atom(a) => Some(AtomView::Atom(a)),
            Value::Tree(t) => t.value_atom().map(AtomView::Atom),
            Value::Label(l) => Some(AtomView::Str(l)),
            _ => None,
        }
    }

    /// 64-bit structural hash of this value's grouping key. Consistent
    /// with [`Value::key_eq`] (and hence with [`Value::group_key`]
    /// equality): values with equal keys hash identically. Tree content
    /// reuses the per-node cached [`Node::key_hash`], so hashing a cell a
    /// second time is O(1) in the subtree size.
    pub fn key_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        self.key_hash_into(&mut h);
        h.finish()
    }

    /// Writes this value's grouping key into `h` (see [`Value::key_hash`]).
    pub fn key_hash_into(&self, h: &mut impl Hasher) {
        match self.atom_view() {
            Some(AtomView::Atom(a)) => a.key_hash_into(h),
            // a Label coerces to a Str atom; mirror Atom's encoding so
            // Label("x"), Atom::Str("x") and title["x"] share one key
            Some(AtomView::Str(s)) => {
                h.write_u8(b't');
                write_len_str(h, s);
            }
            None => match self {
                Value::Tree(t) => {
                    h.write_u8(b'T');
                    h.write_u64(t.key_hash());
                }
                Value::Coll(c) => {
                    h.write_u8(b'C');
                    h.write_u64(c.len() as u64);
                    for v in c {
                        v.key_hash_into(h);
                    }
                }
                Value::Null => h.write_u8(b'N'),
                // Atom/Label always produce a view above
                Value::Atom(_) | Value::Label(_) => unreachable!(),
            },
        }
    }

    /// Grouping-key equality: the equality [`Value::key_hash`] is
    /// consistent with. Same coercions as [`Value::query_eq`] but total on
    /// floats (see [`Atom::key_eq`]); used to confirm candidate matches
    /// after a hash hit in the set-based operators.
    pub fn key_eq(&self, other: &Value) -> bool {
        match (self.atom_view(), other.atom_view()) {
            (Some(a), Some(b)) => a.key_eq(&b),
            (None, None) => match (self, other) {
                (Value::Tree(a), Value::Tree(b)) => Node::key_eq(a, b),
                (Value::Coll(a), Value::Coll(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key_eq(y))
                }
                (Value::Null, Value::Null) => true,
                _ => false,
            },
            _ => false,
        }
    }

    /// Total order for `Sort`: atoms by [`Atom::total_cmp`], then the
    /// rest by [`Value::group_key`] text, nulls first. Atoms compare
    /// through borrowed views and keys byte by byte as they are written,
    /// so no comparison builds a string.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.atom_view(), other.atom_view()) {
            (Some(a), Some(b)) => a.total_cmp(&b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Null, _) => Ordering::Less,
                (_, Value::Null) => Ordering::Greater,
                _ => cmp_group_keys(self, other),
            },
        }
    }

    /// Renders the value into constructed XML structure, appending to
    /// `out`: the `Tree` operator splices cell values into templates.
    /// Collections splice element-wise; atoms become atom leaves.
    pub fn splice_into(&self, out: &mut Vec<Tree>) {
        match self {
            Value::Tree(t) => out.push(t.clone()),
            Value::Atom(a) => out.push(Node::atom(a.clone())),
            Value::Label(l) => out.push(Node::sym(l.as_str(), vec![])),
            Value::Coll(c) => c.iter().for_each(|v| v.splice_into(out)),
            Value::Null => {}
        }
    }
}

/// Compares the [`Value::group_key`] texts of `a` and `b`: `a`'s is
/// written into a reused buffer, `b`'s is compared against it as it is
/// written and abandoned at the first differing byte.
fn cmp_group_keys(a: &Value, b: &Value) -> Ordering {
    /// Compares written text against `rest`, the unmatched tail of `a`'s key.
    struct Against<'k> {
        rest: &'k [u8],
        ord: Ordering,
    }
    impl fmt::Write for Against<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let s = s.as_bytes();
            let n = s.len().min(self.rest.len());
            let ord = self.rest[..n].cmp(&s[..n]);
            if ord.is_ne() {
                self.ord = ord;
                return Err(fmt::Error);
            }
            if n < s.len() {
                // `a`'s key is a proper prefix of `b`'s
                self.ord = Ordering::Less;
                return Err(fmt::Error);
            }
            self.rest = &self.rest[n..];
            Ok(())
        }
    }
    thread_local! {
        static KEY: RefCell<String> = const { RefCell::new(String::new()) };
    }
    KEY.with(|key| {
        let mut key = key.borrow_mut();
        key.clear();
        a.write_group_key(&mut *key)
            .expect("writing to a String cannot fail");
        let mut against = Against {
            rest: key.as_bytes(),
            ord: Ordering::Equal,
        };
        if b.write_group_key(&mut against).is_ok() && !against.rest.is_empty() {
            // `b`'s key is a proper prefix of `a`'s
            return Ordering::Greater;
        }
        against.ord
    })
}

/// Borrowed atomic coercion (see [`Value::atom_view`]): what predicates,
/// keys and `Sort` compare, without cloning a string.
#[derive(Clone, Copy)]
pub(crate) enum AtomView<'a> {
    Atom(&'a Atom),
    /// A label, coerced to its text (an implicit `Str` atom).
    Str(&'a str),
}

impl AtomView<'_> {
    fn as_str(&self) -> Option<&str> {
        match self {
            AtomView::Atom(a) => a.as_str(),
            AtomView::Str(s) => Some(s),
        }
    }

    /// [`Atom::value_eq`] on the viewed atoms.
    pub(crate) fn value_eq(&self, other: &AtomView<'_>) -> bool {
        match (self, other) {
            (AtomView::Atom(a), AtomView::Atom(b)) => a.value_eq(b),
            _ => self.as_str().is_some() && self.as_str() == other.as_str(),
        }
    }

    /// [`Atom::key_eq`] on the viewed atoms.
    fn key_eq(&self, other: &AtomView<'_>) -> bool {
        match (self, other) {
            (AtomView::Atom(a), AtomView::Atom(b)) => a.key_eq(b),
            _ => self.as_str().is_some() && self.as_str() == other.as_str(),
        }
    }

    /// [`Atom::total_cmp`] on the viewed atoms: a label sorts as the
    /// string it coerces to, after every bool and number.
    pub(crate) fn total_cmp(&self, other: &AtomView<'_>) -> Ordering {
        match (self, other) {
            (AtomView::Atom(a), AtomView::Atom(b)) => a.total_cmp(b),
            _ => match (self.as_str(), other.as_str()) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Greater,
                (None, _) => Ordering::Less,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Tree(t) => write!(f, "{t}"),
            Value::Atom(a) => write!(f, "{a}"),
            Value::Label(l) => write!(f, "~{l}"),
            Value::Coll(c) => {
                write!(f, "{{")?;
                for (i, v) in c.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Null => write!(f, "⊥"),
        }
    }
}

impl From<Atom> for Value {
    fn from(a: Atom) -> Self {
        Value::Atom(a)
    }
}

impl From<Tree> for Value {
    fn from(t: Tree) -> Self {
        Value::Tree(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_coercion_through_trees() {
        let t = Value::Tree(Node::elem("year", 1897));
        assert_eq!(t.atom(), Some(Atom::Int(1897)));
        assert!(t.query_eq(&Value::Atom(Atom::Int(1897))));
        assert!(t.query_eq(&Value::Atom(Atom::Float(1897.0))));
        assert!(!t.query_eq(&Value::Atom(Atom::Str("1897".into()))));
    }

    #[test]
    fn group_keys_follow_query_eq() {
        let a = Value::Tree(Node::elem("title", "Nympheas"));
        let b = Value::Atom(Atom::Str("Nympheas".into()));
        assert!(a.query_eq(&b));
        assert_eq!(a.group_key(), b.group_key());
        let c = Value::Atom(Atom::Int(1));
        let d = Value::Atom(Atom::Float(1.0));
        assert_eq!(c.group_key(), d.group_key());
    }

    #[test]
    fn structural_tree_comparison_when_no_atoms() {
        let t1 = Value::Tree(Node::sym("w", vec![Node::elem("a", 1), Node::elem("b", 2)]));
        let t2 = Value::Tree(Node::sym("w", vec![Node::elem("a", 1), Node::elem("b", 2)]));
        let t3 = Value::Tree(Node::sym("w", vec![Node::elem("a", 1)]));
        assert!(t1.query_eq(&t2));
        assert!(!t1.query_eq(&t3));
        assert_ne!(t1.group_key(), t3.group_key());
    }

    #[test]
    fn key_hash_agrees_with_group_key() {
        let cases = vec![
            Value::Atom(Atom::Int(1)),
            Value::Atom(Atom::Float(1.0)),
            Value::Atom(Atom::Str("x".into())),
            Value::Label("x".into()),
            Value::Tree(Node::elem("title", "x")),
            Value::Tree(Node::sym("w", vec![Node::elem("a", 1)])),
            Value::Coll(vec![Value::Atom(Atom::Int(1))]),
            Value::Coll(vec![]),
            Value::Null,
        ];
        for a in &cases {
            for b in &cases {
                let keys_eq = a.group_key() == b.group_key();
                assert_eq!(keys_eq, a.key_eq(b), "{a} vs {b}");
                if keys_eq {
                    assert_eq!(a.key_hash(), b.key_hash(), "{a} vs {b}");
                }
            }
        }
        // the explicit coercion triangle: label, atom, element content
        assert_eq!(
            Value::Label("x".into()).key_hash(),
            Value::Atom(Atom::Str("x".into())).key_hash()
        );
        assert_eq!(
            Value::Label("x".into()).key_hash(),
            Value::Tree(Node::elem("title", "x")).key_hash()
        );
    }

    /// `Sort`'s order through borrowed views equals the order of the
    /// cloning definition it replaced: atoms by [`Atom::total_cmp`] on
    /// clones, everything else by comparing built `group_key` strings.
    #[test]
    fn total_cmp_matches_the_cloning_order() {
        fn reference(a: &Value, b: &Value) -> Ordering {
            match (a.atom(), b.atom()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => match (a, b) {
                    (Value::Null, Value::Null) => Ordering::Equal,
                    (Value::Null, _) => Ordering::Less,
                    (_, Value::Null) => Ordering::Greater,
                    _ => a.group_key().cmp(&b.group_key()),
                },
            }
        }
        let str_ = |s: &str| Value::Atom(Atom::Str(s.into()));
        let tree = |kids: Vec<Tree>| Value::Tree(Node::sym("w", kids));
        let values = vec![
            Value::Label("b".into()),
            str_("b"),
            Value::Label("3".into()),
            Value::Atom(Atom::Int(3)),
            Value::Atom(Atom::Float(2.5)),
            Value::Atom(Atom::Bool(true)),
            Value::Label("".into()),
            str_("ab"),
            Value::Tree(Node::elem("title", "a")),
            Value::Tree(Node::elem("year", 1897)),
            tree(vec![]),
            tree(vec![Node::elem("a", 1), Node::elem("b", 2)]),
            tree(vec![Node::elem("a", 1)]),
            tree(vec![Node::elem("a", "x;"), Node::elem("b", 2)]),
            tree(vec![Node::elem("a", "x!"), Node::elem("b", 2)]),
            Value::Coll(vec![str_("ta"), str_("b")]),
            Value::Coll(vec![str_("ta;x")]),
            Value::Coll(vec![str_("ta!x")]),
            Value::Coll(vec![]),
            Value::Null,
        ];
        for a in &values {
            for b in &values {
                assert_eq!(a.total_cmp(b), reference(a, b), "{a} vs {b}");
            }
        }
        let mut sorted = values.clone();
        sorted.sort_by(Value::total_cmp);
        let mut expected = values;
        expected.sort_by(reference);
        assert_eq!(sorted, expected);
    }

    #[test]
    fn splice_shapes() {
        let coll = Value::Coll(vec![
            Value::Tree(Node::elem("cplace", "Giverny")),
            Value::Atom(Atom::Int(3)),
        ]);
        let splice = |v: &Value| {
            let mut out = Vec::new();
            v.splice_into(&mut out);
            out
        };
        assert_eq!(splice(&coll).len(), 2);
        assert!(splice(&Value::Null).is_empty());
        assert_eq!(
            splice(&Value::Label("title".into()))[0].label.as_sym(),
            Some("title")
        );
    }

    #[test]
    fn ordering_and_nulls() {
        use std::cmp::Ordering;
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(
            Value::Null.total_cmp(&Value::Tree(Node::sym("x", vec![]))),
            Ordering::Less
        );
        assert_eq!(
            Value::Atom(Atom::Int(1)).total_cmp(&Value::Atom(Atom::Float(1.5))),
            Ordering::Less
        );
    }

    #[test]
    fn binding_conversion() {
        let b = Binding::Coll(vec![Node::atom(1), Node::atom(2)]);
        match Value::from_binding(b) {
            Value::Coll(c) => assert_eq!(c.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Value::from_binding(Binding::Label("x".into())),
            Value::Label("x".into())
        );
    }
}
