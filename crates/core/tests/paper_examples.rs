//! Paper-example fidelity tests: the trie constructions of Figures 1 and 3
//! rebuilt with keys whose hash prefixes match the figures' mask sequences,
//! asserting the documented category layouts (root histogram, promotions,
//! permutations) through the public API.

use std::hash::{Hash, Hasher};

use axiom::bitmap::Category;
use axiom::{AxiomMultiMap, BindingRef};
use trie_common::bits::mask;
use trie_common::hash::hash32;

/// A key labelled like the figures, whose trie hash is forced through a
/// brute-force-found seed so its 5-bit mask sequence matches the figure.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FigKey {
    label: &'static str,
    seed: u32,
}

impl Hash for FigKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.seed);
    }
}

/// Finds a hasher seed whose 32-bit trie hash starts with the given 5-bit
/// masks (level 0, then optionally levels 1 and 2).
fn seed_with_masks(l0: u32, l1: Option<u32>, l2: Option<u32>) -> u32 {
    (0u32..)
        .find(|&seed| {
            let h = {
                let mut hasher = trie_common::hash::TrieHasher::new();
                hasher.write_u32(seed);
                let x = std::hash::Hasher::finish(&hasher);
                (x ^ (x >> 32)) as u32
            };
            mask(h, 0) == l0
                && l1.is_none_or(|m| mask(h, 5) == m)
                && l2.is_none_or(|m| mask(h, 10) == m)
        })
        .expect("seed search is over an infinite range")
}

/// The six keys of Figure 1b, with the hash-digit prefixes the figure lists
/// (base-32 digits: A=4,0,0  B=2,0,2  C=2,0,5  D=2,1,0  E=2,4,0  F=7,0,0).
fn figure1_keys() -> [FigKey; 6] {
    [
        ("A", seed_with_masks(4, Some(0), Some(0))),
        ("B", seed_with_masks(2, Some(0), Some(2))),
        ("C", seed_with_masks(2, Some(0), Some(5))),
        ("D", seed_with_masks(2, Some(1), None)),
        ("E", seed_with_masks(2, Some(4), None)),
        ("F", seed_with_masks(7, None, None)),
    ]
    .map(|(label, seed)| FigKey { label, seed })
}

#[test]
fn crafted_keys_match_figure_1b_prefixes() {
    let keys = figure1_keys();
    let expect: [(&str, &[u32]); 6] = [
        ("A", &[4, 0, 0]),
        ("B", &[2, 0, 2]),
        ("C", &[2, 0, 5]),
        ("D", &[2, 1]),
        ("E", &[2, 4]),
        ("F", &[7]),
    ];
    for (key, (label, masks)) in keys.iter().zip(expect) {
        assert_eq!(key.label, label);
        let h = hash32(key);
        for (level, &m) in masks.iter().enumerate() {
            assert_eq!(
                mask(h, 5 * level as u32),
                m,
                "key {label} level {level} mask"
            );
        }
    }
}

#[test]
fn figure_3_construction_shapes() {
    let [a, b, c, d, e, f] = figure1_keys();

    // Figure 3a: A ↦ 1, B ↦ 2 — two inlined 1:1 tuples at the root
    // (masks 4 and 2), nothing else.
    let mm = AxiomMultiMap::<FigKey, i32>::new()
        .inserted(a.clone(), 1)
        .inserted(b.clone(), 2);
    let hist = mm.root_histogram().unwrap();
    assert_eq!(
        hist[Category::Cat1 as usize],
        2,
        "fig 3a: two CAT1 branches"
    );
    assert_eq!(hist[Category::Node as usize], 0);

    // Figure 3b: adding C ↦ 3 clashes with B on prefix 2 — "A ↦ 1 swaps
    // place with a newly extended sub-tree": root now holds one CAT1 (A)
    // and one NODE (prefix 2).
    let mm = mm.inserted(c.clone(), 3);
    let hist = mm.root_histogram().unwrap();
    assert_eq!(hist[Category::Cat1 as usize], 1, "fig 3b: A stays inlined");
    assert_eq!(hist[Category::Node as usize], 1, "fig 3b: B,C sub-tree");
    assert_eq!(mm.key_count(), 3);

    // Figure 3c: D ↦ 4 and E ↦ 5 join the prefix-2 sub-tree.
    let mm = mm.inserted(d.clone(), 4).inserted(e.clone(), 5);
    let hist = mm.root_histogram().unwrap();
    assert_eq!(hist[Category::Cat1 as usize], 1);
    assert_eq!(hist[Category::Node as usize], 1);
    assert_eq!(mm.key_count(), 5);
    assert_eq!(mm.tuple_count(), 5);

    // Figure 3d: D ↦ -4 promotes D to a 1:n mapping (inside the sub-tree),
    // and F ↦ 6 adds a second root payload at mask 7 — the root now matches
    // the Listing-3 worked example: CAT1 at masks 4 and 9^H7, one NODE.
    let mm = mm.inserted(d.clone(), -4).inserted(f.clone(), 6);
    let hist = mm.root_histogram().unwrap();
    assert_eq!(hist[Category::Cat1 as usize], 2, "fig 3d: A and F inlined");
    assert_eq!(
        hist[Category::Cat2 as usize],
        0,
        "1:n entry is nested deeper"
    );
    assert_eq!(hist[Category::Node as usize], 1);
    assert_eq!(mm.key_count(), 6);
    assert_eq!(mm.tuple_count(), 7);

    // D's binding is now a nested set {4, -4}.
    match mm.get(&d) {
        Some(BindingRef::Many(bag)) => {
            let mut vs: Vec<i32> = bag.iter().copied().collect();
            vs.sort();
            assert_eq!(vs, vec![-4, 4]);
        }
        other => panic!("fig 3d: D must be 1:n, got {other:?}"),
    }
    // Everything else still 1:1.
    for (key, val) in [(&a, 1), (&b, 2), (&c, 3), (&e, 5), (&f, 6)] {
        assert!(matches!(mm.get(key), Some(BindingRef::One(v)) if *v == val));
    }
    mm.assert_invariants();

    // Deleting D ↦ -4 demotes back to the Figure 3c shape.
    let back = mm.tuple_removed(&d, &-4);
    assert!(matches!(back.get(&d), Some(BindingRef::One(&4))));
    assert_eq!(back.tuple_count(), 6);
    back.assert_invariants();
}

#[test]
fn root_histogram_reflects_skew() {
    // A mostly-1:1 relation with a few 1:n exceptions at the root level.
    let mut mm = AxiomMultiMap::<u32, u32>::new();
    for k in 0..20u32 {
        mm.insert_mut(k, 0);
    }
    let before = mm.root_histogram().unwrap();
    let payload_before = before[1] + before[3];
    assert!(payload_before > 0);
    // Promote a handful of keys.
    for k in 0..5u32 {
        mm.insert_mut(k, 1);
    }
    let after = mm.root_histogram().unwrap();
    // Total occupied branches unchanged; some CAT1 became CAT2 (those keys
    // stored at the root) — the histogram sums stay consistent.
    assert_eq!(
        before[1] + before[2] + before[3],
        after[1] + after[2] + after[3]
    );
    assert_eq!(before[0], after[0]);
}
