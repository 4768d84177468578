//! Hashed row keys for the set-based operators.
//!
//! DupElim, Difference, Intersection, GroupBy and the hash join all need
//! to treat rows (or column subsets of rows) as keys. The historical
//! implementation concatenated canonical [`Value::group_key`] strings —
//! allocating a fresh `String` per row per operator, and (bug) joining the
//! per-column keys with a bare separator that adversarial strings could
//! alias. This module replaces the strings with 64-bit structural hashes
//! ([`Value::key_hash_into`]): every variable-length field is
//! length-prefixed inside the hash, trees reuse their cached per-node
//! hashes, and every consumer confirms candidates with
//! [`Value::key_eq`] after a hash hit, so collisions cannot merge rows
//! that differ.
//!
//! # Example
//!
//! ```
//! use yat_algebra::{keys, Value};
//! use yat_model::Atom;
//!
//! // Int(1) and Float(1.0) are key-equal (grouping-key coercion), so
//! // rows 0 and 1 share a key on column 0 — their hashes agree, and
//! // confirmation accepts the pair.
//! let rows = vec![
//!     vec![Value::Atom(Atom::Int(1)), Value::Atom(Atom::Str("a".into()))],
//!     vec![Value::Atom(Atom::Float(1.0)), Value::Atom(Atom::Str("b".into()))],
//!     vec![Value::Atom(Atom::Int(2)), Value::Atom(Atom::Str("c".into()))],
//! ];
//! assert_eq!(keys::cols_hash(&rows[0], &[0]), keys::cols_hash(&rows[1], &[0]));
//! assert!(keys::cols_key_eq(&rows[0], &[0], &rows[1], &[0]));
//!
//! // The grouping kernel partitions in first-occurrence order …
//! assert_eq!(keys::group_indices(&rows, &[0]), vec![vec![0, 1], vec![2]]);
//! let part = keys::Partition::by_key(
//!     rows.len(),
//!     |i| keys::cols_hash(&rows[i], &[0]),
//!     |a, b| keys::cols_key_eq(&rows[a], &[0], &rows[b], &[0]),
//! );
//! assert_eq!(part.groups().collect::<Vec<_>>(), vec![&[0, 1][..], &[2][..]]);
//!
//! // … and the hash-join kernel emits key-equal index pairs, left-major.
//! assert_eq!(
//!     keys::join_pairs(&rows, &rows, &[0], &[0]),
//!     vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)],
//! );
//! ```

use crate::value::Value;
use std::collections::HashMap;
use std::hash::Hasher;
use yat_model::hash::Fnv64;
pub use yat_model::hash::Partition;

/// Hash of a full row under grouping-key semantics.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(row.len() as u64);
    for v in row {
        v.key_hash_into(&mut h);
    }
    h.finish()
}

/// Key equality of full rows ([`Value::key_eq`] cell-wise).
pub fn row_key_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key_eq(y))
}

/// Hash of the projection of `row` onto `cols` (group/join keys).
pub fn cols_hash(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(cols.len() as u64);
    for &c in cols {
        row[c].key_hash_into(&mut h);
    }
    h.finish()
}

/// Key equality of two rows restricted to column subsets (of equal
/// length — the operators always compare same-arity key lists).
pub fn cols_key_eq(a: &[Value], ai: &[usize], b: &[Value], bi: &[usize]) -> bool {
    ai.len() == bi.len() && ai.iter().zip(bi).all(|(&x, &y)| a[x].key_eq(&b[y]))
}

/// Partitions `rows` (by index) into groups whose `cols` projections are
/// key-equal, in first-occurrence order — the `Group` operator's
/// kernel, over [`Partition::by_key`]. Hash-first with [`cols_key_eq`]
/// confirmation against each group's first member.
pub fn group_indices(rows: &[Vec<Value>], cols: &[usize]) -> Vec<Vec<usize>> {
    Partition::by_key(
        rows.len(),
        |i| cols_hash(&rows[i], cols),
        |a, b| cols_key_eq(&rows[a], cols, &rows[b], cols),
    )
    .groups()
    .map(<[usize]>::to_vec)
    .collect()
}

/// Hash-join kernel: every `(left, right)` index pair whose key columns
/// are key-equal, in left-major order (right matches in input order).
/// Builds a hash table over the right side; no per-row key strings are
/// allocated on either side.
pub fn join_pairs(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    lcols: &[usize],
    rcols: &[usize],
) -> Vec<(usize, usize)> {
    let mut table: HashMap<u64, Vec<usize>> = HashMap::with_capacity(right.len());
    for (ri, rrow) in right.iter().enumerate() {
        table.entry(cols_hash(rrow, rcols)).or_default().push(ri);
    }
    let mut out = Vec::new();
    for (li, lrow) in left.iter().enumerate() {
        if let Some(matches) = table.get(&cols_hash(lrow, lcols)) {
            for &ri in matches {
                if cols_key_eq(lrow, lcols, &right[ri], rcols) {
                    out.push((li, ri));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Atom;

    #[test]
    fn separator_aliasing_is_closed() {
        // Under the old concatenation scheme both rows keyed to
        // "tx\u{1}ty\u{1}tz\u{1}" and dedup would merge them.
        let a = vec![
            Value::Atom(Atom::Str("x\u{1}ty".into())),
            Value::Atom(Atom::Str("z".into())),
        ];
        let b = vec![
            Value::Atom(Atom::Str("x".into())),
            Value::Atom(Atom::Str("y\u{1}tz".into())),
        ];
        assert_ne!(row_hash(&a), row_hash(&b));
        assert!(!row_key_eq(&a, &b));
    }

    #[test]
    fn coerced_cells_share_keys() {
        let a = vec![Value::Atom(Atom::Int(1))];
        let b = vec![Value::Atom(Atom::Float(1.0))];
        assert_eq!(row_hash(&a), row_hash(&b));
        assert!(row_key_eq(&a, &b));
    }

    #[test]
    fn cols_projection_keys() {
        let r1 = vec![Value::Atom(Atom::Int(1)), Value::Atom(Atom::Int(2))];
        let r2 = vec![Value::Atom(Atom::Int(9)), Value::Atom(Atom::Float(2.0))];
        assert_eq!(cols_hash(&r1, &[1]), cols_hash(&r2, &[1]));
        assert!(cols_key_eq(&r1, &[1], &r2, &[1]));
        assert!(!cols_key_eq(&r1, &[0], &r2, &[0]));
    }
}
