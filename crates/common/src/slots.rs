//! The boundary cases of the [`crate::slices`] helpers: insertion,
//! removal and replacement at both ends, and the owned payload ↔ sub-trie
//! migration.

#[cfg(test)]
mod tests {
    use crate::slices::{
        inserted_at, inserted_at_owned, migrate_map, removed_at, removed_at_owned, replaced_at,
    };

    #[test]
    fn inserted_at_boundaries_and_middle() {
        let base = [1, 2, 3];
        assert_eq!(&*inserted_at(&base, 0, 0), &[0, 1, 2, 3]);
        assert_eq!(&*inserted_at(&base, 2, 9), &[1, 2, 9, 3]);
        assert_eq!(&*inserted_at(&base, 3, 4), &[1, 2, 3, 4]);
        assert_eq!(&*inserted_at(&[] as &[i32], 0, 7), &[7]);
    }

    #[test]
    fn removed_at_boundaries_and_middle() {
        let base = [1, 2, 3];
        assert_eq!(&*removed_at(&base, 0), &[2, 3]);
        assert_eq!(&*removed_at(&base, 1), &[1, 3]);
        assert_eq!(&*removed_at(&base, 2), &[1, 2]);
    }

    #[test]
    fn replaced_at_keeps_length() {
        let base = [1, 2, 3];
        assert_eq!(&*replaced_at(&base, 0, 9), &[9, 2, 3]);
        assert_eq!(&*replaced_at(&base, 1, 9), &[1, 9, 3]);
        assert_eq!(&*replaced_at(&base, 2, 9), &[1, 2, 9]);
    }

    #[test]
    fn replaced_at_never_clones_the_displaced_slot() {
        // A type whose Clone panics: the replaced slot must not be touched.
        #[derive(Debug, PartialEq)]
        struct NoClone(u32, bool);
        impl Clone for NoClone {
            fn clone(&self) -> Self {
                assert!(self.1, "cloned the displaced slot");
                NoClone(self.0, self.1)
            }
        }
        let base = [NoClone(1, true), NoClone(2, false), NoClone(3, true)];
        let out = replaced_at(&base, 1, NoClone(9, true));
        assert_eq!(out[1], NoClone(9, true));
    }

    #[test]
    fn owned_insert_and_remove_match_borrowed() {
        let base = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(
            &*inserted_at_owned(base.clone(), 1, 9),
            &*inserted_at(&base, 1, 9)
        );
        assert_eq!(
            &*inserted_at_owned(base.clone(), 3, 9),
            &*inserted_at(&base, 3, 9)
        );
        assert_eq!(&*removed_at_owned(base.clone(), 0), &*removed_at(&base, 0));
        assert_eq!(&*removed_at_owned(base.clone(), 2), &*removed_at(&base, 2));
        assert_eq!(&*inserted_at_owned(Box::new([]), 0, 7), &[7]);
    }

    #[test]
    fn migrate_map_matches_migrated_for_all_pairs() {
        let base = [10, 20, 30, 40, 50];
        for from in 0..base.len() {
            for to in 0..base.len() {
                let mut expected = base.to_vec();
                expected.remove(from);
                expected.insert(to, 99);
                let mut slots: Box<[i32]> = Box::new(base);
                migrate_map(&mut slots, from, to, |old| {
                    assert_eq!(old, base[from], "wrong slot migrated");
                    99
                });
                assert_eq!(*slots, *expected, "from {from} to {to}");
            }
        }
    }

    #[test]
    fn migrate_map_to_last_index_boundary() {
        let mut slots: Box<[i32]> = Box::new([10, 20, 30, 40]);
        migrate_map(&mut slots, 1, 3, |old| old + 1);
        assert_eq!(&*slots, &[10, 30, 40, 21]);
    }

    #[test]
    fn migrate_map_moves_without_cloning() {
        // Box<T> has no Clone bound here: compiling at all proves the owned
        // family never clones.
        let mut slots: Box<[Box<u32>]> = Box::new([Box::new(1), Box::new(2), Box::new(3)]);
        migrate_map(&mut slots, 0, 2, |old| Box::new(*old + 100));
        assert_eq!(&*slots, &[Box::new(2), Box::new(3), Box::new(101)]);
        let grown = inserted_at_owned(std::mem::take(&mut slots), 0, Box::new(0));
        assert_eq!(grown.len(), 4);
        let shrunk = removed_at_owned(grown, 3);
        assert_eq!(&*shrunk, &[Box::new(0), Box::new(2), Box::new(3)]);
    }
}
