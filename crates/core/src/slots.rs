//! The slot-array helpers and copy-on-write walk steps AXIOM uses, all
//! defined in [`trie_common::slices`] and shared with the CHAMP and HAMT
//! baselines, plus the AXIOM-flavoured test suite for them, including the
//! three-category migration boundary cases the multi-map relies on.
//!
//! Each AXIOM `Node` implements [`CowNode`] with the 2-bit
//! [`SlotBitmap`](crate::bitmap::SlotBitmap) as its bitmap.

pub(crate) use trie_common::slices::{
    edit_child, insert_slot, inserted_at_owned, migrate_map, remove_slot, removed_at_owned,
    survivor, CowNode,
};

#[cfg(test)]
mod tests {
    use super::*;
    use trie_common::slices::{inserted_at, migrated, removed_at, replaced_at};

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
    fn migrated_moves_forward_and_backward() {
        let base = [10, 20, 30, 40];
        // Move slot 0's entry so the replacement lands at index 2.
        assert_eq!(&*migrated(&base, 0, 2, 99), &[20, 30, 99, 40]);
        // Move slot 3's entry so the replacement lands at index 0.
        assert_eq!(&*migrated(&base, 3, 0, 99), &[99, 10, 20, 30]);
        // Same position.
        assert_eq!(&*migrated(&base, 1, 1, 99), &[10, 99, 30, 40]);
        // Move to the very end.
        assert_eq!(&*migrated(&base, 0, 3, 99), &[20, 30, 40, 99]);
    }

    #[test]
    fn migrated_on_singleton() {
        assert_eq!(&*migrated(&[5], 0, 0, 6), &[6]);
    }

    #[test]
    fn migrated_to_last_index_from_everywhere() {
        // Boundary `to == slots.len() - 1`: the item is appended after the
        // loop body, the branch the `Option` refactor must keep intact.
        let base = [10, 20, 30, 40];
        for from in 0..base.len() {
            let out = migrated(&base, from, base.len() - 1, 99);
            assert_eq!(out.len(), base.len());
            assert_eq!(out[base.len() - 1], 99, "from {from}");
            let survivors: Vec<i32> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != from)
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(&out[..base.len() - 1], &survivors[..], "from {from}");
        }
    }

    #[test]
    fn migrated_moves_item_without_cloning_on_interior_target() {
        #[derive(Debug, PartialEq)]
        struct CountClone(u32, std::rc::Rc<std::cell::Cell<u32>>);
        impl Clone for CountClone {
            fn clone(&self) -> Self {
                self.1.set(self.1.get() + 1);
                CountClone(self.0, self.1.clone())
            }
        }
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mk = |n| CountClone(n, clones.clone());
        let base = [mk(1), mk(2), mk(3)];
        clones.set(0);
        // Interior target: the item lands inside the loop, and must be moved
        // there, not cloned (only the two surviving slots are cloned).
        let out = migrated(&base, 2, 0, mk(9));
        assert_eq!(out[0].0, 9);
        assert_eq!(clones.get(), 2, "only survivors may be cloned");
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
                let expected = migrated(&base, from, to, 99);
                let mut slots: Box<[i32]> = Box::new(base);
                migrate_map(&mut slots, from, to, |old| {
                    assert_eq!(old, base[from], "wrong slot migrated");
                    99
                });
                assert_eq!(slots, expected, "from {from} to {to}");
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
