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
//! not an object id.
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

/// One key's postings as its map entry holds them: a single ordinal
/// inline — the common case for unique values such as titles, with no
/// heap list — or the slot of a longer list in the index's [`Lists`].
#[derive(Debug, Clone, Copy)]
enum Postings {
    One(u32),
    Many(u32),
}

/// The ascending, duplicate-free lists of two or more ordinals, by slot;
/// a freed slot is reused by the next list. Keeping them out of line
/// holds a map entry to its key plus eight bytes.
#[derive(Debug, Default, Clone)]
struct Lists {
    slots: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Lists {
    /// The ordinals `p` holds, ascending.
    fn get<'a>(&'a self, p: &'a Postings) -> &'a [u32] {
        match p {
            Postings::One(ord) => std::slice::from_ref(ord),
            Postings::Many(slot) => &self.slots[*slot as usize],
        }
    }

    /// Adds `ord` to `p` unless present, keeping it ascending; ordinals
    /// are handed out monotonically, so this is an append.
    fn insert(&mut self, p: &mut Postings, ord: u32) {
        match *p {
            Postings::One(only) if only != ord => {
                let list = if only < ord {
                    vec![only, ord]
                } else {
                    vec![ord, only]
                };
                *p = Postings::Many(self.alloc(list));
            }
            Postings::One(_) => {}
            Postings::Many(slot) => {
                let list = &mut self.slots[slot as usize];
                match list.last() {
                    Some(&last) if last < ord => list.push(ord),
                    _ => {
                        if let Err(pos) = list.binary_search(&ord) {
                            list.insert(pos, ord);
                        }
                    }
                }
            }
        }
    }

    /// Drops `ord` from a list of two or more; whether it was there. A
    /// list left with one ordinal moves back inline.
    fn remove(&mut self, p: &mut Postings, ord: u32) -> bool {
        let Postings::Many(slot) = *p else {
            return false;
        };
        let list = &mut self.slots[slot as usize];
        let Ok(pos) = list.binary_search(&ord) else {
            return false;
        };
        list.remove(pos);
        if let [only] = list[..] {
            *list = Vec::new();
            self.free.push(slot);
            *p = Postings::One(only);
        }
        true
    }

    fn alloc(&mut self, list: Vec<u32>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = list;
                slot
            }
            None => {
                self.slots.push(list);
                u32::try_from(self.slots.len() - 1).expect("posting list slots exhausted")
            }
        }
    }
}

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
        let removed = if self.lists.get(p) == [ord] {
            self.postings.remove(&key);
            true
        } else {
            self.lists.remove(p, ord)
        };
        if removed {
            self.entries -= 1;
        }
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

/// Merges two ascending ordinal lists into their intersection — the
/// conjunction combinator.
pub fn intersect_ordinals(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
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
        assert_eq!(ix.lists.free.len(), 1, "the emptied list's slot is free");
    }

    #[test]
    fn intersection_merges_on_sequence() {
        assert_eq!(intersect_ordinals(&[0, 2, 5], &[2, 3, 5]), [2, 5]);
        assert!(intersect_ordinals(&[0, 2, 5], &[]).is_empty());
    }
}
