//! The one posting-list layout every index in the workspace keeps: the
//! compact inverted file of Zobel & Moffat ("Inverted files for text
//! search engines", ACM CSUR 2006), cut down to what the sources need.
//!
//! A key's postings are an ascending, duplicate-free list of 32-bit ids
//! (extent ordinals, document ids). The map
//! entry holds a [`Postings`] handle of eight bytes: the id itself when
//! the list has one — the common case for unique values such as titles,
//! with no heap list — or the slot of a longer list in a [`Lists`] arena.
//! Conjunctions merge sorted lists ([`intersect`], [`conjoin`]), so their
//! cost is bounded by the most selective conjunct, not by collection
//! size.
//!
//! The O2 field indexes (`yat-oql`) and the Wais inverted index
//! (`yat-wais`) both hold their lists here; each keeps only its own
//! keys.

use std::cmp::Ordering;

/// One key's postings as its map entry holds them: a single id inline,
/// or the slot of a list of two or more in the index's [`Lists`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Postings {
    One(u32),
    Many(u32),
}

/// What [`Lists::remove`] did to a key's postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Removed {
    /// The id was not posted; nothing changed.
    Absent,
    /// The id is gone and others remain.
    Kept,
    /// The id was the only one: the handle is dead and its key must go.
    Emptied,
}

/// The ascending, duplicate-free lists of two or more ids, by slot; a
/// freed slot is reused by the next list.
#[derive(Debug, Default, Clone)]
pub struct Lists {
    slots: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Lists {
    /// The ids `p` holds, ascending.
    pub fn get<'a>(&'a self, p: &'a Postings) -> &'a [u32] {
        match p {
            Postings::One(id) => std::slice::from_ref(id),
            Postings::Many(slot) => &self.slots[*slot as usize],
        }
    }

    /// Adds `id` to `p` unless present, keeping it ascending; builds hand
    /// out ascending ids, so this is usually an append.
    pub fn insert(&mut self, p: &mut Postings, id: u32) {
        match *p {
            Postings::One(only) if only != id => {
                let list = if only < id {
                    vec![only, id]
                } else {
                    vec![id, only]
                };
                *p = Postings::Many(self.alloc(list));
            }
            Postings::One(_) => {}
            Postings::Many(slot) => {
                let list = &mut self.slots[slot as usize];
                match list.last() {
                    Some(&last) if last < id => list.push(id),
                    _ => {
                        if let Err(pos) = list.binary_search(&id) {
                            list.insert(pos, id);
                        }
                    }
                }
            }
        }
    }

    /// Drops `id` from `p`. A list left with one id moves back inline
    /// and frees its slot.
    pub fn remove(&mut self, p: &mut Postings, id: u32) -> Removed {
        let slot = match *p {
            Postings::One(only) if only == id => return Removed::Emptied,
            Postings::One(_) => return Removed::Absent,
            Postings::Many(slot) => slot,
        };
        let list = &mut self.slots[slot as usize];
        let Ok(pos) = list.binary_search(&id) else {
            return Removed::Absent;
        };
        list.remove(pos);
        if let [only] = list[..] {
            *list = Vec::new();
            self.free.push(slot);
            *p = Postings::One(only);
        }
        Removed::Kept
    }

    /// Takes over a decoded list as one key's postings; `None` unless it
    /// is non-empty and strictly ascending.
    pub fn adopt(&mut self, list: Vec<u32>) -> Option<Postings> {
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        match list[..] {
            [] => None,
            [only] => Some(Postings::One(only)),
            _ => Some(Postings::Many(self.alloc(list))),
        }
    }

    /// Trims every list to its length — for an index that is built once
    /// and then mostly read.
    pub fn shrink_to_fit(&mut self) {
        for list in &mut self.slots {
            list.shrink_to_fit();
        }
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

/// Merges two ascending lists into their intersection.
pub fn intersect<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
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

/// The intersection of ascending `lists`, pulled one at a time and no
/// further once the result is empty; `None` when there are none.
pub fn conjoin<T, L>(lists: impl IntoIterator<Item = L>) -> Option<Vec<T>>
where
    T: Ord + Copy,
    L: AsRef<[T]> + Into<Vec<T>>,
{
    let mut lists = lists.into_iter();
    let mut result: Vec<T> = lists.next()?.into();
    while !result.is_empty() {
        let Some(next) = lists.next() else { break };
        result = intersect(&result, next.as_ref());
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use yat_prng::Rng;

    /// Seeded random inserts and removes over a few keys, checked after
    /// every step against a `BTreeSet` per key.
    #[test]
    fn lists_follow_a_set_model() {
        for seed in 0..64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut lists = Lists::default();
            let mut keys: BTreeMap<u8, Postings> = BTreeMap::new();
            let mut model: BTreeMap<u8, BTreeSet<u32>> = BTreeMap::new();
            let mut peak = 0;
            for _ in 0..400 {
                let key = rng.gen_range(0u8..6);
                // a small id range forces duplicates and absent removes;
                // ids arrive in any order
                let id = rng.gen_range(0u32..12);
                if rng.gen_bool(0.55) {
                    match keys.get_mut(&key) {
                        Some(p) => lists.insert(p, id),
                        None => {
                            keys.insert(key, Postings::One(id));
                        }
                    }
                    model.entry(key).or_default().insert(id);
                } else {
                    let set = model.entry(key).or_default();
                    let expect = if !set.remove(&id) {
                        Removed::Absent
                    } else if set.is_empty() {
                        Removed::Emptied
                    } else {
                        Removed::Kept
                    };
                    if set.is_empty() {
                        model.remove(&key);
                    }
                    let got = keys
                        .get_mut(&key)
                        .map_or(Removed::Absent, |p| lists.remove(p, id));
                    assert_eq!(got, expect, "seed {seed}");
                    if got == Removed::Emptied {
                        keys.remove(&key);
                    }
                }
                for (key, set) in &model {
                    let p = &keys[key];
                    let want: Vec<u32> = set.iter().copied().collect();
                    assert_eq!(lists.get(p), want, "seed {seed}, key {key}");
                    // a single id is always inline, a longer list never
                    assert_eq!(matches!(p, Postings::One(_)), set.len() == 1);
                }
                assert_eq!(keys.len(), model.len());
                // every slot is held by one live list or free, and freed
                // slots are reused: the arena is as long as the most
                // lists ever live at once
                let live = keys
                    .values()
                    .filter(|p| matches!(p, Postings::Many(_)))
                    .count();
                peak = peak.max(live);
                assert_eq!(live + lists.free.len(), lists.slots.len());
                assert_eq!(lists.slots.len(), peak, "seed {seed}");
            }
        }
    }

    #[test]
    fn remove_reports_what_it_did() {
        let mut lists = Lists::default();
        let mut p = Postings::One(4);
        assert_eq!(lists.remove(&mut p, 5), Removed::Absent);
        lists.insert(&mut p, 2);
        lists.insert(&mut p, 4);
        assert_eq!(lists.get(&p), [2, 4]);
        assert_eq!(lists.remove(&mut p, 9), Removed::Absent);
        assert_eq!(lists.remove(&mut p, 2), Removed::Kept);
        assert_eq!(p, Postings::One(4), "a list of one moves back inline");
        assert_eq!(lists.free.len(), 1, "the emptied list's slot is free");
        // the next list reuses the freed slot
        let mut q = Postings::One(1);
        lists.insert(&mut q, 0);
        assert_eq!(q, Postings::Many(0));
        assert!(lists.free.is_empty());
        assert_eq!(lists.slots.len(), 1);
        assert_eq!(lists.remove(&mut p, 4), Removed::Emptied);
    }

    #[test]
    fn adopt_takes_strictly_ascending_lists() {
        let mut lists = Lists::default();
        assert_eq!(lists.adopt(vec![7]), Some(Postings::One(7)));
        let p = lists.adopt(vec![1, 3, 8]).unwrap();
        assert_eq!(lists.get(&p), [1, 3, 8]);
        assert_eq!(lists.adopt(Vec::new()), None);
        assert_eq!(lists.adopt(vec![1, 1]), None);
        assert_eq!(lists.adopt(vec![3, 2]), None);
        assert_eq!(lists.slots.len(), 1, "a refused list takes no slot");
    }

    #[test]
    fn intersections_match_the_set_model() {
        assert_eq!(intersect(&[0u32, 2, 5], &[2, 3, 5]), [2, 5]);
        assert_eq!(intersect(&[1usize, 3, 5, 9], &[0, 3, 4, 5, 10]), [3, 5]);
        assert!(intersect::<u32>(&[1, 2], &[3, 4]).is_empty());
        assert!(intersect::<u32>(&[], &[1]).is_empty());
        assert!(intersect::<u32>(&[0, 2, 5], &[]).is_empty());
        let mut rng = Rng::seed_from_u64(7);
        let sample = |rng: &mut Rng| -> BTreeSet<u32> {
            let n = rng.gen_range(0usize..20);
            (0..n).map(|_| rng.gen_range(0u32..30)).collect()
        };
        for _ in 0..500 {
            let (a, b) = (sample(&mut rng), sample(&mut rng));
            let want: Vec<u32> = a.intersection(&b).copied().collect();
            let (a, b): (Vec<u32>, Vec<u32>) = (a.into_iter().collect(), b.into_iter().collect());
            assert_eq!(intersect(&a, &b), want);
            assert_eq!(conjoin([a.as_slice(), b.as_slice()]), Some(want));
        }
    }

    #[test]
    fn conjoin_stops_pulling_at_an_empty_result() {
        assert_eq!(conjoin::<u32, Vec<u32>>([]), None);
        assert_eq!(conjoin([vec![1u32, 2, 3]]), Some(vec![1, 2, 3]));
        let lists = [vec![1u32, 2, 3], vec![2, 3], vec![4], vec![2], vec![3]];
        let mut pulled = 0;
        let result = conjoin(lists.iter().map(|l| {
            pulled += 1;
            l.as_slice()
        }));
        assert_eq!(result, Some(Vec::new()));
        assert_eq!(pulled, 3, "no list is pulled once the result is empty");
        let mut pulled = 0;
        let result = conjoin(
            [Vec::new(), vec![1u32]]
                .into_iter()
                .inspect(|_| pulled += 1),
        );
        assert_eq!((result, pulled), (Some(Vec::new()), 1));
    }
}
