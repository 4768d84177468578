//! Per-extent field indexes: one ordered map from each distinct field
//! value to the ascending list of its objects' extent ordinals, serving
//! both `=` and range probes.
//!
//! Postings are 32-bit *extent ordinals*: the store numbers an extent's
//! members in insertion order and resolves ordinals back to objects
//! through its per-extent sequence table. A probe therefore returns
//! candidates already in extent order — the evaluator can iterate them
//! directly and produce rows byte-identical to the scan, without
//! touching the rest of the extent — and a posting costs four bytes,
//! not an object id. The lists live in the shared posting kernel,
//! [`yat_model::postings`].
//!
//! Keys are ordered by [`Atom::total_cmp`], the exact order the scan's
//! `<`/`<=`/`>`/`>=` comparisons decide by, so range probes match the
//! scan verbatim. Numerics are keyed by their coerced `f64`, which is
//! all `total_cmp` looks at. `=` probes read the same map under the
//! coercing equality of [`Atom::value_eq`]: `1 = 1.0` share a key, and
//! the keys `total_cmp` keeps apart but `=` merges (`-0.0`/`0.0`, and
//! every NaN) are gathered together. Merged keys only ever widen a
//! candidate set — the evaluator re-checks the full predicate.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use yat_model::postings::{Lists, Postings, Removed};
use yat_model::Atom;

/// One key per distinct field value under [`Atom::total_cmp`]: booleans
/// rank below numbers, numbers below strings.
#[derive(Debug, Clone)]
enum Key {
    Bool(bool),
    /// The coerced value: `Int(1)` and `Float(1.0)` are one key.
    Num(f64),
    Str(Box<str>),
}

impl Key {
    fn of(a: &Atom) -> Key {
        match a {
            Atom::Bool(b) => Key::Bool(*b),
            Atom::Str(s) => Key::Str(s.as_str().into()),
            other => Key::Num(other.as_f64().expect("numeric atom")),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Key::Bool(_) => 0,
            Key::Num(_) => 1,
            Key::Str(_) => 2,
        }
    }

    fn is_num(&self) -> bool {
        matches!(self, Key::Num(_))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Key::Bool(a), Key::Bool(b)) => a.cmp(b),
            (Key::Num(a), Key::Num(b)) => a.total_cmp(b),
            (Key::Str(a), Key::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// The index over one `(extent, field)` pair.
#[derive(Debug, Default, Clone)]
pub struct FieldIndex {
    postings: BTreeMap<Key, Postings>,
    lists: Lists,
    entries: usize,
}

impl FieldIndex {
    /// Indexes the object with extent ordinal `ord` under `value`.
    pub fn add(&mut self, ord: u32, value: &Atom) {
        let key = Key::of(value);
        match self.postings.get_mut(&key) {
            Some(p) => self.lists.insert(p, ord),
            None => {
                self.postings.insert(key, Postings::One(ord));
            }
        }
        self.entries += 1;
    }

    /// Unindexes the object with extent ordinal `ord` from `value` (the
    /// inverse of [`FieldIndex::add`] for the same pair), dropping an
    /// emptied key.
    pub fn remove(&mut self, ord: u32, value: &Atom) {
        let key = Key::of(value);
        let Some(p) = self.postings.get_mut(&key) else {
            return;
        };
        match self.lists.remove(p, ord) {
            Removed::Absent => return,
            Removed::Kept => {}
            Removed::Emptied => {
                self.postings.remove(&key);
            }
        }
        self.entries -= 1;
    }

    /// Number of postings — equals the number of indexed objects when
    /// every extent member contributed exactly one value.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Ordinals of the candidates for `field = value`, ascending (extent
    /// order). A superset of the true matches (all NaNs are one value);
    /// never misses one.
    pub fn eq_candidates(&self, value: &Atom) -> Vec<u32> {
        let ords = |p: &Postings| self.lists.get(p).to_vec();
        match Key::of(value) {
            // a float pattern compares with `==`: `-0.0` lands here too
            Key::Num(0.0) => merged(
                [Key::Num(-0.0), Key::Num(0.0)]
                    .iter()
                    .filter_map(|k| self.postings.get(k))
                    .map(ords)
                    .collect(),
            ),
            // total_cmp ranks negative NaNs below -inf, positive above +inf
            Key::Num(f) if f.is_nan() => {
                let below = self
                    .postings
                    .range(..Key::Num(f64::NEG_INFINITY))
                    .rev()
                    .take_while(|(k, _)| k.is_num());
                let above = self
                    .postings
                    .range((Bound::Excluded(Key::Num(f64::INFINITY)), Bound::Unbounded))
                    .take_while(|(k, _)| k.is_num());
                merged(below.chain(above).map(|(_, p)| ords(p)).collect())
            }
            key => self.postings.get(&key).map_or_else(Vec::new, ords),
        }
    }

    /// Ordinals of the candidates in the half-open/closed interval
    /// `(lo, hi)` of the [`Atom::total_cmp`] order, ascending.
    pub fn range_candidates(&self, lo: Bound<&Atom>, hi: Bound<&Atom>) -> Vec<u32> {
        let own = |b: Bound<&Atom>| b.map(Key::of);
        let mut out: Vec<u32> = self
            .postings
            .range((own(lo), own(hi)))
            .flat_map(|(_, p)| self.lists.get(p).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }
}

/// The ascending union of disjoint ascending lists.
fn merged(lists: Vec<Vec<u32>>) -> Vec<u32> {
    let mut out = lists.concat();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> FieldIndex {
        let mut ix = FieldIndex::default();
        ix.add(0, &Atom::Int(1800));
        ix.add(1, &Atom::Int(1900));
        ix.add(2, &Atom::Float(1800.0));
        ix.add(3, &Atom::Str("x".into()));
        ix
    }

    #[test]
    fn eq_probes_coerce_like_value_eq() {
        let ix = index();
        // 1800 and 1800.0 share a key, in extent order
        assert_eq!(ix.eq_candidates(&Atom::Int(1800)), [0, 2]);
        assert_eq!(ix.eq_candidates(&Atom::Float(1800.0)), [0, 2]);
        assert_eq!(ix.eq_candidates(&Atom::Str("x".into())), [3]);
        assert!(ix.eq_candidates(&Atom::Int(7)).is_empty());
        // signed zeros are one value, and so are all NaNs
        let mut z = FieldIndex::default();
        z.add(0, &Atom::Float(-0.0));
        z.add(1, &Atom::Float(f64::NAN));
        z.add(2, &Atom::Int(0));
        z.add(3, &Atom::Float(-f64::NAN));
        z.add(4, &Atom::Float(f64::INFINITY));
        assert_eq!(z.eq_candidates(&Atom::Float(0.0)), [0, 2]);
        assert_eq!(z.eq_candidates(&Atom::Float(-0.0)), [0, 2]);
        assert_eq!(z.eq_candidates(&Atom::Float(f64::NAN)), [1, 3]);
        assert_eq!(z.eq_candidates(&Atom::Float(-f64::NAN)), [1, 3]);
        assert_eq!(z.eq_candidates(&Atom::Float(f64::INFINITY)), [4]);
    }

    #[test]
    fn range_probes_follow_total_cmp() {
        let ix = index();
        let gt = ix.range_candidates(Bound::Excluded(&Atom::Int(1800)), Bound::Unbounded);
        // strings rank above numbers in total_cmp, so "x" is > 1800
        assert_eq!(gt, [1, 3]);
        let le = ix.range_candidates(Bound::Unbounded, Bound::Included(&Atom::Int(1800)));
        assert_eq!(le, [0, 2]);
        let mid = ix.range_candidates(
            Bound::Included(&Atom::Int(1800)),
            Bound::Excluded(&Atom::Int(1900)),
        );
        assert_eq!(mid, [0, 2]);
    }

    #[test]
    fn remove_patches_both_sides() {
        let mut ix = index();
        ix.remove(0, &Atom::Int(1800));
        assert_eq!(ix.entries(), 3);
        assert_eq!(ix.eq_candidates(&Atom::Int(1800)), [2]);
        let le = ix.range_candidates(Bound::Unbounded, Bound::Included(&Atom::Int(1800)));
        assert_eq!(le, [2]);
        // an ordinal not posted under the value is left alone
        ix.remove(1, &Atom::Int(1800));
        assert_eq!(ix.entries(), 3);
        // removing the last posting under a key drops the key
        ix.remove(2, &Atom::Float(1800.0));
        assert!(ix.eq_candidates(&Atom::Int(1800)).is_empty());
        assert!(ix
            .range_candidates(Bound::Unbounded, Bound::Included(&Atom::Int(1800)))
            .is_empty());
        assert_eq!(ix.postings.len(), 2);
    }

    #[test]
    fn intersection_merges_on_sequence() {
        // conjunctions over this index merge its ordinal lists with the
        // shared posting kernel
        use yat_model::postings::intersect;
        assert_eq!(intersect(&[0u32, 2, 5], &[2, 3, 5]), [2, 5]);
        assert!(intersect(&[0u32, 2, 5], &[]).is_empty());
        let ix = index();
        let eq = ix.eq_candidates(&Atom::Int(1800));
        let le = ix.range_candidates(Bound::Unbounded, Bound::Included(&Atom::Int(1800)));
        assert_eq!(intersect(&eq, &le), eq);
    }
}
