//! Reference string-key implementations of the set-based operators: the
//! test oracle for the hashed-key data plane.
//!
//! Before the hashed-key data plane, DupElim/Intersection/Difference/
//! GroupBy and the hash join all keyed rows by concatenated canonical
//! [`Value::group_key`] strings. These functions preserve that
//! implementation — with the separator bug fixed (each per-cell key is
//! length-prefixed, so adversarial strings cannot re-split the
//! concatenation) — as the semantics oracle of `tests/prop_hash_keys.rs`:
//! on random inputs the hashed operators must produce byte-identical
//! `Tab`s.

use std::collections::{BTreeMap, BTreeSet};
use yat_algebra::{Tab, Value};

/// Canonical key of one cell, length-prefixed (closed under
/// concatenation).
pub fn cell_key(v: &Value) -> String {
    let k = v.group_key();
    format!("{}\u{1}{}\u{2}", k.len(), k)
}

/// Canonical key of a full row.
pub fn row_key(row: &[Value]) -> String {
    row.iter().map(cell_key).collect()
}

/// Canonical key of a row restricted to `cols`.
pub fn cols_key(row: &[Value], cols: &[usize]) -> String {
    cols.iter().map(|&c| cell_key(&row[c])).collect()
}

/// String-keyed duplicate elimination, first occurrence order.
pub fn dedup(tab: &Tab) -> Tab {
    let mut out = Tab::new(tab.columns().to_vec());
    for &i in &dedup_indices(tab) {
        out.push(tab.row(i).to_vec());
    }
    out
}

/// The keying core of [`dedup`]: indices of the rows a string-keyed
/// DupElim keeps, in order.
pub fn dedup_indices(tab: &Tab) -> Vec<usize> {
    let mut seen = BTreeSet::new();
    let mut keep = Vec::new();
    for (i, row) in tab.rows().enumerate() {
        if seen.insert(row_key(row)) {
            keep.push(i);
        }
    }
    keep
}

/// String-keyed `Union` (append + set semantics).
pub fn union(l: &Tab, r: &Tab) -> Tab {
    let mut both = l.clone();
    for row in r.rows() {
        both.push(row.to_vec());
    }
    dedup(&both)
}

/// String-keyed `Intersect` (rows of `l` whose key appears in `r`).
pub fn intersect(l: &Tab, r: &Tab) -> Tab {
    let keys: BTreeSet<String> = r.rows().map(row_key).collect();
    let mut out = Tab::new(l.columns().to_vec());
    for row in l.rows() {
        if keys.contains(&row_key(row)) {
            out.push(row.to_vec());
        }
    }
    dedup(&out)
}

/// String-keyed `Diff` (rows of `l` whose key does not appear in `r`).
pub fn diff(l: &Tab, r: &Tab) -> Tab {
    let keys: BTreeSet<String> = r.rows().map(row_key).collect();
    let mut out = Tab::new(l.columns().to_vec());
    for row in l.rows() {
        if !keys.contains(&row_key(row)) {
            out.push(row.to_vec());
        }
    }
    dedup(&out)
}

/// String-keyed `Group` by the named key columns: one output row per
/// distinct key (first-occurrence order), key cells from the group's
/// first member, remaining columns nested as collections — the exact
/// output shape of the algebra's `Group` operator.
pub fn group(tab: &Tab, keys: &[String]) -> Tab {
    let kidx: Vec<usize> = keys
        .iter()
        .map(|k| tab.col(k).expect("group key column exists"))
        .collect();
    let rest: Vec<usize> = (0..tab.columns().len())
        .filter(|i| !kidx.contains(i))
        .collect();
    let mut cols: Vec<String> = keys.to_vec();
    cols.extend(rest.iter().map(|&i| tab.columns()[i].clone()));
    let mut out = Tab::new(cols);
    for members in group_indices(tab, &kidx) {
        let first = tab.row(members[0]);
        let mut row: Vec<Value> = kidx.iter().map(|&i| first[i].clone()).collect();
        for &ci in &rest {
            row.push(Value::Coll(
                members.iter().map(|&ri| tab.row(ri)[ci].clone()).collect(),
            ));
        }
        out.push(row);
    }
    out
}

/// The keying core of [`group`]: the string-keyed partition of row
/// indices into groups, first-occurrence order — the counterpart of
/// `yat_algebra::keys::group_indices`.
pub fn group_indices(tab: &Tab, kidx: &[usize]) -> Vec<Vec<usize>> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (ri, row) in tab.rows().enumerate() {
        let key = cols_key(row, kidx);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(ri);
    }
    order
        .into_iter()
        .map(|k| groups.remove(&k).unwrap())
        .collect()
}

/// The keying core of [`join`]: build a string-key table on the right,
/// probe with per-row key strings from the left, emit left-major
/// `(left, right)` index pairs — the counterpart of
/// `yat_algebra::keys::join_pairs`.
pub fn join_pairs(lt: &Tab, rt: &Tab, lkeys: &[usize], rkeys: &[usize]) -> Vec<(usize, usize)> {
    let mut table: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (ri, rrow) in rt.rows().enumerate() {
        table.entry(cols_key(rrow, rkeys)).or_default().push(ri);
    }
    let mut pairs = Vec::new();
    for (li, lrow) in lt.rows().enumerate() {
        if let Some(matches) = table.get(&cols_key(lrow, lkeys)) {
            for &ri in matches {
                pairs.push((li, ri));
            }
        }
    }
    pairs
}

/// String-keyed equi-join on `lkeys`/`rkeys` column indices: build a
/// string-key table on the right, probe with per-row key strings from
/// the left, emit concatenated rows (right columns after left, as the
/// algebra's join does).
pub fn join(lt: &Tab, rt: &Tab, lkeys: &[usize], rkeys: &[usize]) -> Tab {
    let mut cols = lt.columns().to_vec();
    for c in rt.columns() {
        if cols.contains(c) {
            cols.push(format!("{c}'"));
        } else {
            cols.push(c.clone());
        }
    }
    let mut out = Tab::new(cols);
    for (li, ri) in join_pairs(lt, rt, lkeys, rkeys) {
        let mut row = lt.row(li).to_vec();
        row.extend(rt.row(ri).iter().cloned());
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Atom;

    fn tab(rows: &[&[i64]]) -> Tab {
        let mut t = Tab::new(vec!["a".into(), "b".into()]);
        for r in rows {
            t.push(r.iter().map(|&v| Value::Atom(Atom::Int(v))).collect());
        }
        t
    }

    #[test]
    fn reference_ops_behave_setwise() {
        let l = tab(&[&[1, 2], &[1, 2], &[3, 4]]);
        let r = tab(&[&[3, 4], &[5, 6]]);
        assert_eq!(dedup(&l).len(), 2);
        assert_eq!(intersect(&l, &r).len(), 1);
        assert_eq!(diff(&l, &r).len(), 1);
        assert_eq!(union(&l, &r).len(), 3);
        let j = join(&l, &r, &[0], &[0]);
        assert_eq!(j.len(), 1); // only [3,4] finds a partner
        assert_eq!(j.columns(), &["a", "b", "a'", "b'"]);
    }

    #[test]
    fn keys_are_closed_under_concatenation() {
        let a = vec![
            Value::Atom(Atom::Str("x\u{1}ty".into())),
            Value::Atom(Atom::Str("z".into())),
        ];
        let b = vec![
            Value::Atom(Atom::Str("x".into())),
            Value::Atom(Atom::Str("y\u{1}tz".into())),
        ];
        assert_ne!(row_key(&a), row_key(&b));
    }
}
