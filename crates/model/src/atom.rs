//! Atomic values and atomic types of the YAT model.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The atomic types of the YAT/ODMG type hierarchy (Fig. 3: `Int`, `Bool`,
/// `Float`, `String`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE floats.
    Float,
    /// Booleans.
    Bool,
    /// Unicode strings.
    Str,
}

impl AtomType {
    /// The name used in pattern/interface XML (`<leaf label="Int"/>`).
    pub fn name(self) -> &'static str {
        match self {
            AtomType::Int => "Int",
            AtomType::Float => "Float",
            AtomType::Bool => "Bool",
            AtomType::Str => "String",
        }
    }

    /// Parses a type name as it appears in interface documents.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "Int" => Some(AtomType::Int),
            "Float" => Some(AtomType::Float),
            "Bool" => Some(AtomType::Bool),
            "String" => Some(AtomType::Str),
            _ => None,
        }
    }
}

impl fmt::Display for AtomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An atomic value carried by a leaf node.
#[derive(Debug, Clone)]
pub enum Atom {
    /// Integer literal, e.g. `1897`.
    Int(i64),
    /// Float literal, e.g. `1500000.0`.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal, e.g. `"Claude Monet"`.
    Str(String),
}

impl Atom {
    /// The type of this value.
    pub fn atom_type(&self) -> AtomType {
        match self {
            Atom::Int(_) => AtomType::Int,
            Atom::Float(_) => AtomType::Float,
            Atom::Bool(_) => AtomType::Bool,
            Atom::Str(_) => AtomType::Str,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Atom::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The `Display` text, borrowed for strings — what the wire writes.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Atom::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// Numeric view: ints and floats compare and compute together
    /// (`$y > 1800` must work whether `year` arrived as `1897` or `1897.0`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Atom::Int(i) => Some(*i as f64),
            Atom::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Parses XML character data into the most specific atom: int, then
    /// float, then bool, falling back to string. This is how generic
    /// wrappers type untyped XML text (the paper's `<year> 1897 </year>`
    /// becomes `Int(1897)` when the schema says `Int`, and a best-effort
    /// guess when no schema is available).
    pub fn parse_guess(s: &str) -> Atom {
        let t = s.trim();
        if let Ok(i) = t.parse::<i64>() {
            return Atom::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Atom::Float(f);
            }
        }
        match t {
            "true" => Atom::Bool(true),
            "false" => Atom::Bool(false),
            _ => Atom::Str(t.to_string()),
        }
    }

    /// Parses text as a specific atomic type, used when schema information
    /// is available. Returns `None` when the text does not denote a value of
    /// that type.
    pub fn parse_typed(s: &str, ty: AtomType) -> Option<Atom> {
        let t = s.trim();
        match ty {
            AtomType::Int => t.parse().ok().map(Atom::Int),
            AtomType::Float => t.parse().ok().map(Atom::Float),
            AtomType::Bool => match t {
                "true" => Some(Atom::Bool(true)),
                "false" => Some(Atom::Bool(false)),
                _ => None,
            },
            AtomType::Str => Some(Atom::Str(t.to_string())),
        }
    }

    /// Value equality with numeric coercion between `Int` and `Float`.
    pub fn value_eq(&self, other: &Atom) -> bool {
        match (self, other) {
            (Atom::Str(a), Atom::Str(b)) => a == b,
            (Atom::Bool(a), Atom::Bool(b)) => a == b,
            (Atom::Int(a), Atom::Int(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Grouping-key equality: like [`Atom::value_eq`] but total on floats —
    /// the equality the canonical grouping keys (and their hashes) induce.
    /// It differs from `value_eq` only on exotic floats: all NaNs are one
    /// key, while `-0.0` and `0.0` stay distinct keys (their canonical
    /// texts `-0`/`0` differ), exactly as the string keys always behaved.
    pub fn key_eq(&self, other: &Atom) -> bool {
        match (self, other) {
            (Atom::Str(a), Atom::Str(b)) => a == b,
            (Atom::Bool(a), Atom::Bool(b)) => a == b,
            (Atom::Int(_) | Atom::Float(_), Atom::Int(_) | Atom::Float(_)) => {
                let (a, b) = (self.as_f64().expect("num"), other.as_f64().expect("num"));
                key_f64_bits(a) == key_f64_bits(b)
            }
            _ => false,
        }
    }

    /// Writes this atom's grouping key into a hasher, with the same
    /// coercions as the canonical string key (`Int(1)` and `Float(1.0)`
    /// hash identically; kinds are tagged apart). [`Atom::key_eq`] is the
    /// equality this hash is consistent with.
    pub fn key_hash_into(&self, state: &mut impl Hasher) {
        match self {
            Atom::Int(i) => {
                state.write_u8(b'n');
                state.write_u64(key_f64_bits(*i as f64));
            }
            Atom::Float(f) => {
                state.write_u8(b'n');
                state.write_u64(key_f64_bits(*f));
            }
            Atom::Bool(b) => {
                state.write_u8(b'b');
                state.write_u8(*b as u8);
            }
            Atom::Str(s) => {
                state.write_u8(b't');
                crate::hash::write_len_str(state, s);
            }
        }
    }

    /// Total comparison usable for `Sort`/`Group`: numerics (coerced)
    /// compare numerically, strings lexicographically; across kinds the
    /// order is Bool < numeric < Str (arbitrary but total and documented).
    pub fn total_cmp(&self, other: &Atom) -> Ordering {
        fn rank(a: &Atom) -> u8 {
            match a {
                Atom::Bool(_) => 0,
                Atom::Int(_) | Atom::Float(_) => 1,
                Atom::Str(_) => 2,
            }
        }
        match (self, other) {
            (Atom::Bool(a), Atom::Bool(b)) => a.cmp(b),
            (Atom::Str(a), Atom::Str(b)) => a.cmp(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.total_cmp(&b),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }
}

/// Equality is [`Atom::value_eq`]: `Int(1) == Float(1.0)`, mirroring the
/// coercion OQL and the mediator predicates apply.
impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.value_eq(other)
    }
}

/// Consistent with [`Atom::value_eq`] (the `PartialEq` impl): value-equal
/// atoms hash identically, so atoms — and types embedding them, like plan
/// ASTs — can key hashed maps and feed derived `Hash` impls. Numerics hash
/// through their coerced `f64` with `-0.0` folded onto `0.0` (the two are
/// `value_eq`); NaNs equal nothing, so their image is unconstrained.
impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Atom::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Atom::Bool(b) => {
                state.write_u8(2);
                b.hash(state);
            }
            Atom::Int(_) | Atom::Float(_) => {
                state.write_u8(1);
                let f = self.as_f64().expect("num");
                let f = if f == 0.0 { 0.0 } else { f };
                state.write_u64(key_f64_bits(f));
            }
        }
    }
}

/// Canonical bits of a float under grouping-key semantics: group keys
/// compare Display strings, where every NaN prints `NaN` (one key) while
/// `-0.0` prints `-0` (distinct from `0`); the shortest-roundtrip Display
/// is otherwise injective, so raw bits are a faithful canonical image.
fn key_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(i) => write!(f, "{i}"),
            Atom::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Atom::Bool(b) => write!(f, "{b}"),
            Atom::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}
impl From<f64> for Atom {
    fn from(v: f64) -> Self {
        Atom::Float(v)
    }
}
impl From<bool> for Atom {
    fn from(v: bool) -> Self {
        Atom::Bool(v)
    }
}
impl From<&str> for Atom {
    fn from(v: &str) -> Self {
        Atom::Str(v.to_string())
    }
}
impl From<String> for Atom {
    fn from(v: String) -> Self {
        Atom::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_guess_priorities() {
        assert_eq!(Atom::parse_guess(" 1897 "), Atom::Int(1897));
        assert_eq!(Atom::parse_guess("21.5"), Atom::Float(21.5));
        assert_eq!(Atom::parse_guess("true"), Atom::Bool(true));
        assert_eq!(
            Atom::parse_guess("Claude Monet"),
            Atom::Str("Claude Monet".into())
        );
        // not a finite float -> string
        assert_eq!(Atom::parse_guess("inf"), Atom::Str("inf".into()));
    }

    #[test]
    fn parse_typed_respects_schema() {
        assert_eq!(
            Atom::parse_typed("1897", AtomType::Float),
            Some(Atom::Float(1897.0))
        );
        assert_eq!(
            Atom::parse_typed("1897", AtomType::Str),
            Some(Atom::Str("1897".into()))
        );
        assert_eq!(Atom::parse_typed("Monet", AtomType::Int), None);
        assert_eq!(Atom::parse_typed("maybe", AtomType::Bool), None);
    }

    #[test]
    fn numeric_coercion_in_eq_and_cmp() {
        assert_eq!(Atom::Int(3), Atom::Float(3.0));
        assert_ne!(Atom::Int(3), Atom::Str("3".into()));
        assert_eq!(Atom::Int(2).total_cmp(&Atom::Float(2.5)), Ordering::Less);
        assert_eq!(Atom::Bool(true).total_cmp(&Atom::Int(0)), Ordering::Less);
        assert_eq!(Atom::from("a").total_cmp(&Atom::from("b")), Ordering::Less);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Atom::Float(200000.0).to_string(), "200000.0");
        assert_eq!(Atom::Int(200000).to_string(), "200000");
        assert_eq!(Atom::Str("x".into()).to_string(), "x");
    }

    #[test]
    fn atom_type_names_roundtrip() {
        for t in [
            AtomType::Int,
            AtomType::Float,
            AtomType::Bool,
            AtomType::Str,
        ] {
            assert_eq!(AtomType::from_name(t.name()), Some(t));
        }
        assert_eq!(AtomType::from_name("Double"), None);
    }
}
