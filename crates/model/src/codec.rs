//! A lossless binary codec for [`Tree`] — the yat-store payload format.
//!
//! XML is the wire format between mediator and wrappers, but it is the
//! wrong *storage* format: converting a tree through XML re-guesses leaf
//! atom types on the way back (`"1897"` vs `1897`), which would make a
//! store round trip observable. This codec preserves the exact label
//! variant and the exact float bits, so a document read back from disk
//! is structurally equal to the one written.
//!
//! Encoding (all integers little-endian):
//!
//! ```text
//! node   := tag:u8 data children
//! tag    := 0 Sym | 1 Int | 2 Float | 3 Bool | 4 Str | 5 Oid | 6 Ref
//! data   := str (Sym/Str/Oid/Ref) | i64 (Int) | f64-bits (Float) | u8 (Bool)
//! str    := len:u32 utf8-bytes
//! children := count:u32 node*
//! ```

use crate::atom::Atom;
use crate::oid::Oid;
use crate::tree::{Label, Node, Tree};

const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_OID: u8 = 5;
const TAG_REF: u8 = 6;

/// Serializes a tree.
pub fn encode_tree(tree: &Tree) -> Vec<u8> {
    let mut out = Vec::with_capacity(tree.size() * 16);
    encode_node(tree, &mut out);
    out
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_node(tree: &Tree, out: &mut Vec<u8>) {
    match &tree.label {
        Label::Sym(s) => {
            out.push(TAG_SYM);
            encode_str(s.as_str(), out);
        }
        Label::Atom(Atom::Int(i)) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Label::Atom(Atom::Float(f)) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Label::Atom(Atom::Bool(b)) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Label::Atom(Atom::Str(s)) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Label::Oid(o) => {
            out.push(TAG_OID);
            encode_str(o.as_str(), out);
        }
        Label::Ref(o) => {
            out.push(TAG_REF);
            encode_str(o.as_str(), out);
        }
    }
    out.extend_from_slice(&(tree.children.len() as u32).to_le_bytes());
    for c in &tree.children {
        encode_node(c, out);
    }
}

/// Deserializes a tree, requiring the bytes to be consumed exactly.
pub fn decode_tree(bytes: &[u8]) -> Result<Tree, String> {
    let mut at = 0usize;
    let tree = decode_node(bytes, &mut at)?;
    if at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the encoded tree",
            bytes.len() - at
        ));
    }
    Ok(tree)
}

fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], String> {
    let end = at
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| format!("truncated tree encoding at byte {at}"))?;
    let slice = &bytes[*at..end];
    *at = end;
    Ok(slice)
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    Ok(u32::from_le_bytes(
        take(bytes, at, 4)?.try_into().expect("4 bytes"),
    ))
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    let len = take_u32(bytes, at)? as usize;
    let raw = take(bytes, at, len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| format!("invalid utf-8 in tree encoding: {e}"))
}

fn decode_node(bytes: &[u8], at: &mut usize) -> Result<Tree, String> {
    let tag = take(bytes, at, 1)?[0];
    let label = match tag {
        TAG_SYM => Label::Sym(take_str(bytes, at)?.as_str().into()),
        TAG_INT => Label::Atom(Atom::Int(i64::from_le_bytes(
            take(bytes, at, 8)?.try_into().expect("8 bytes"),
        ))),
        TAG_FLOAT => Label::Atom(Atom::Float(f64::from_bits(u64::from_le_bytes(
            take(bytes, at, 8)?.try_into().expect("8 bytes"),
        )))),
        TAG_BOOL => Label::Atom(Atom::Bool(take(bytes, at, 1)?[0] != 0)),
        TAG_STR => Label::Atom(Atom::Str(take_str(bytes, at)?)),
        TAG_OID => Label::Oid(Oid::new(take_str(bytes, at)?)),
        TAG_REF => Label::Ref(Oid::new(take_str(bytes, at)?)),
        other => return Err(format!("unknown tree node tag {other} at byte {at}")),
    };
    let count = take_u32(bytes, at)? as usize;
    // Cheap sanity bound: each child needs at least 5 bytes (tag + count).
    if count > (bytes.len() - *at) / 5 + 1 {
        return Err(format!("implausible child count {count} at byte {at}"));
    }
    if count == 1 {
        return Ok(Node::with_child(label, decode_node(bytes, at)?));
    }
    let mut children = Vec::with_capacity(count);
    for _ in 0..count {
        children.push(decode_node(bytes, at)?);
    }
    Ok(Node::labeled(label, children))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        Node::sym(
            "work",
            vec![
                Node::elem("artist", "Claude Monet"),
                Node::elem("title", "Nympheas"),
                Node::elem("year", 1897),
                Node::elem("price", 1_500_000.5),
                Node::elem("sold", true),
                Node::oid(Oid::new("a1"), vec![Node::elem("t", 1)]),
                Node::reference(Oid::new("p3")),
            ],
        )
    }

    #[test]
    fn round_trips_structurally() {
        let t = sample();
        let bytes = encode_tree(&t);
        let back = decode_tree(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn preserves_atom_variants_xml_would_lose() {
        // XML round trips re-guess leaf types; the codec must not.
        let t = Node::elem("year", "1897"); // string, not int
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(back.child("year").is_none(), t.child("year").is_none());
        assert_eq!(back, t);
        assert_eq!(back.value_atom(), Some(&Atom::Str("1897".into())));
    }

    #[test]
    fn preserves_exact_float_bits() {
        for f in [-0.0f64, 0.0, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let t = Node::atom(f);
            let back = decode_tree(&encode_tree(&t)).unwrap();
            match back.value_atom() {
                Some(Atom::Float(g)) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_truncation_and_garbage() {
        let bytes = encode_tree(&sample());
        assert!(decode_tree(&bytes[..bytes.len() - 3]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_tree(&extra).is_err(), "trailing bytes rejected");
        assert!(decode_tree(&[99, 0, 0, 0, 0]).is_err(), "unknown tag");
    }
}
