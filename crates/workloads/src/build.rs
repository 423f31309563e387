//! Generic collection-construction paths, written once against the
//! [`trie_common::ops`] traits.
//!
//! Every experiment needs its structures built before it can measure them,
//! and the *way* they are built is itself a measured dimension:
//!
//! * the **persistent** path — a fold of `inserted` calls, allocating one
//!   new root per tuple — is what the paper times in its insertion
//!   benchmarks;
//! * the **transient** path — persistent → builder → bulk `insert_mut`
//!   batches → freeze — is the cheap bulk-construction protocol
//!   ([`trie_common::ops::TransientOps`]).
//!
//! Centralizing both here deletes the per-implementation glue the bench
//! harness and case studies used to duplicate.

use trie_common::ops::{MapOps, MultiMapOps, TransientOps};

/// Builds a multi-map through the persistent insertion path (fold of
/// `inserted`; the construction the paper measures).
pub fn multimap_persistent<M: MultiMapOps<u32, u32>>(tuples: &[(u32, u32)]) -> M {
    tuples
        .iter()
        .fold(M::empty(), |mm, &(k, v)| mm.inserted(k, v))
}

/// Builds a multi-map through the transient builder protocol (bulk
/// `insert_mut` batches, one freeze).
pub fn multimap_transient<M>(tuples: &[(u32, u32)]) -> M
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    M::built_from(tuples.iter().copied())
}

/// Builds a map through the persistent insertion path.
pub fn map_persistent<M: MapOps<u32, u32>>(entries: &[(u32, u32)]) -> M {
    entries
        .iter()
        .fold(M::empty(), |m, &(k, v)| m.inserted(k, v))
}

/// Builds a map through the transient builder protocol.
pub fn map_transient<M>(entries: &[(u32, u32)]) -> M
where
    M: MapOps<u32, u32> + TransientOps<(u32, u32)>,
{
    M::built_from(entries.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trie_common::ops::{Builder, EditInPlace, ValuesView};

    // A tiny association-list multi-map: enough trait surface to prove the
    // construction paths agree without depending on the real impl crates
    // (which sit above `workloads` in the crate graph).
    #[derive(Clone, Default, PartialEq, Debug)]
    struct VecMm(Vec<(u32, u32)>);

    impl EditInPlace<(u32, u32)> for VecMm {
        fn edit_insert(&mut self, t: (u32, u32)) -> bool {
            if self.0.contains(&t) {
                false
            } else {
                self.0.push(t);
                true
            }
        }
    }

    impl MultiMapOps<u32, u32> for VecMm {
        const NAME: &'static str = "vec-mm";
        type Tuples<'a> = TupleRefs<'a>;
        type Keys<'a> = Box<dyn Iterator<Item = &'a u32> + 'a>;
        type ValuesOf<'a> = Box<dyn Iterator<Item = &'a u32> + 'a>;
        type Values<'a> = VecValues<'a>;

        fn empty() -> Self {
            VecMm::default()
        }
        fn tuple_count(&self) -> usize {
            self.0.len()
        }
        fn key_count(&self) -> usize {
            let mut ks: Vec<u32> = self.0.iter().map(|t| t.0).collect();
            ks.sort_unstable();
            ks.dedup();
            ks.len()
        }
        fn get(&self, key: &u32) -> Option<VecValues<'_>> {
            let all = &self.0[..];
            all.iter()
                .any(|(k, _)| k == key)
                .then_some(VecValues { key: *key, all })
        }
        fn inserted(&self, key: u32, value: u32) -> Self {
            let mut next = self.clone();
            next.edit_insert((key, value));
            next
        }
        fn tuple_removed(&self, key: &u32, value: &u32) -> Self {
            VecMm(
                self.0
                    .iter()
                    .filter(|t| *t != &(*key, *value))
                    .copied()
                    .collect(),
            )
        }
        fn key_removed(&self, key: &u32) -> Self {
            VecMm(self.0.iter().filter(|(k, _)| k != key).copied().collect())
        }
        fn tuples(&self) -> Self::Tuples<'_> {
            TupleRefs(self.0.iter())
        }
        fn keys(&self) -> Self::Keys<'_> {
            // Dedup on the fly against the already-yielded prefix.
            let seen = &self.0;
            Box::new(self.0.iter().enumerate().filter_map(move |(i, (k, _))| {
                if seen[..i].iter().any(|(k2, _)| k2 == k) {
                    None
                } else {
                    Some(k)
                }
            }))
        }
        fn values_of<'a>(&'a self, key: &u32) -> Self::ValuesOf<'a> {
            Box::new(self.get(key).into_iter().flat_map(|vs| vs.iter()))
        }
    }

    /// One present key's values in the association list.
    struct VecValues<'a> {
        key: u32,
        all: &'a [(u32, u32)],
    }

    impl<'a> ValuesView<'a, u32> for VecValues<'a> {
        type Iter = Box<dyn Iterator<Item = &'a u32> + 'a>;

        fn len(&self) -> usize {
            self.iter().count()
        }
        fn contains(&self, value: &u32) -> bool {
            self.all.contains(&(self.key, *value))
        }
        fn iter(&self) -> Self::Iter {
            let key = self.key;
            Box::new(
                self.all
                    .iter()
                    .filter(move |(k, _)| *k == key)
                    .map(|(_, v)| v),
            )
        }
    }

    struct TupleRefs<'a>(std::slice::Iter<'a, (u32, u32)>);
    impl<'a> Iterator for TupleRefs<'a> {
        type Item = (&'a u32, &'a u32);
        fn next(&mut self) -> Option<Self::Item> {
            self.0.next().map(|(k, v)| (k, v))
        }
    }

    #[test]
    fn persistent_and_transient_paths_agree() {
        let tuples: Vec<(u32, u32)> = (0..100).map(|i| (i / 3, i)).collect();
        let p: VecMm = multimap_persistent(&tuples);
        let t: VecMm = multimap_transient(&tuples);
        assert_eq!(p, t);
        assert_eq!(p.tuple_count(), 100);

        // Batch extension on top of an existing persistent version.
        let mut builder = p.clone().transient();
        assert_eq!(builder.insert_all_mut([(1000, 1), (1000, 2)]), 2);
        let grown = builder.build();
        assert_eq!(grown.tuple_count(), 102);
        assert_eq!(p.tuple_count(), 100); // old handle untouched
    }
}
