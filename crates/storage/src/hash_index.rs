//! A hash → dense-id index that tolerates 64-bit hash collisions.

use std::collections::hash_map::Entry;

use crate::fx::FxMap;

/// Maps a 64-bit hash to the dense ids of the interned values that have
/// it. The caller keeps the values, assigns ids in increasing order and
/// passes every probe an `eq` closure that says whether the value with a
/// given id is the one sought, so a probe needs only a borrowed key.
///
/// The first id under a hash sits in one flat map; later ids sharing the
/// hash (genuine collisions, so almost never) sit in a second, in id
/// order. Both are only probed point-wise, never iterated, so map order
/// can't leak into results.
#[derive(Clone, Debug, Default)]
pub struct HashIndex {
    first: FxMap<u64, u32>,
    collided: FxMap<u64, Vec<u32>>,
}

impl HashIndex {
    /// The id under `hash` whose value `eq` accepts.
    pub fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        let first = *self.first.get(&hash)?;
        let later = self.collided.get(&hash).into_iter().flatten().copied();
        std::iter::once(first).chain(later).find(|&id| eq(id))
    }

    /// The id under `hash` whose value `eq` accepts; if there is none,
    /// records `id` (newer than every id in the index) under `hash` and
    /// returns `None`. One probe of the first-id map on the common path;
    /// the collision list is read only when the first id under `hash`
    /// holds another value.
    pub fn find_or_insert(&mut self, hash: u64, id: u32, eq: impl Fn(u32) -> bool) -> Option<u32> {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                let first = *slot.get();
                let later = self.collided.get(&hash).into_iter().flatten().copied();
                if let Some(found) = std::iter::once(first).chain(later).find(|&t| eq(t)) {
                    return Some(found);
                }
                debug_assert!(first < id, "ids are recorded in increasing order");
                self.collided.entry(hash).or_default().push(id);
            }
        }
        None
    }

    /// Removes `id`, which must be the newest id recorded under `hash`
    /// (ids are removed newest first, undoing `find_or_insert`).
    pub fn remove_newest(&mut self, hash: u64, id: u32) {
        match self.collided.get_mut(&hash) {
            Some(later) => {
                let popped = later.pop();
                debug_assert_eq!(popped, Some(id), "ids are removed newest first");
                if later.is_empty() {
                    self.collided.remove(&hash);
                }
            }
            None => {
                let popped = self.first.remove(&hash);
                debug_assert_eq!(popped, Some(id), "removed id missing");
            }
        }
    }

    /// `true` iff no id is recorded.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two values under one hash get the first-id slot and the collision
    /// list in id order; removal pops the collided id first.
    #[test]
    fn collided_ids_stay_apart_and_pop_newest_first() {
        let values = ["a", "b"];
        let eq = |want: &'static str| move |id: u32| values[id as usize] == want;
        let mut index = HashIndex::default();
        assert_eq!(index.find_or_insert(7, 0, eq("a")), None);
        assert_eq!(index.find_or_insert(7, 1, eq("b")), None);
        assert_eq!(index.find_or_insert(7, 2, eq("b")), Some(1));
        assert_eq!(index.find(7, eq("a")), Some(0));
        assert_eq!(index.find(7, eq("b")), Some(1));
        assert_eq!(index.find(8, eq("a")), None);
        assert_eq!(index.collided[&7], [1]);
        index.remove_newest(7, 1);
        assert!(index.collided.is_empty());
        assert_eq!(index.find(7, eq("a")), Some(0));
        assert_eq!(index.find(7, eq("b")), None);
        index.remove_newest(7, 0);
        assert!(index.is_empty());
    }
}
