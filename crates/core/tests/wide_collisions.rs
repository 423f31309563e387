//! Hash-collision nodes with more than 255 slots in one group: the nodes
//! whose lengths no longer fit the node header's bytes, so the block keeps
//! them in its wide prefix. Every edit, walk and algebra operation must see
//! the same node as below that size.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use axiom::{AxiomFusedMultiMap, AxiomMultiMap, AxiomSet, BindingRef, ValueBag};

/// A value whose hash is one fixed word: every `Clash` collides with every
/// other on all 32 hash bits, so they share one collision node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Clash(u32);

impl Hash for Clash {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(0x5eed_c0de);
    }
}

fn set_of(ids: impl IntoIterator<Item = u32>) -> AxiomSet<Clash> {
    let mut set = AxiomSet::new();
    for id in ids {
        assert!(set.insert_mut(Clash(id)));
    }
    set
}

fn ids(set: &AxiomSet<Clash>) -> BTreeSet<u32> {
    set.iter().map(|c| c.0).collect()
}

#[test]
fn a_set_of_300_colliding_values_edits_iterates_and_compares() {
    let set = set_of(0..300);
    set.assert_invariants();
    assert_eq!(set.len(), 300);
    assert_eq!(set.iter().count(), 300);
    assert_eq!(ids(&set), (0..300).collect());
    assert!((0..300).all(|id| set.contains(&Clash(id))));
    assert!(!set.contains(&Clash(300)));
    assert_eq!(
        set.inserted(Clash(7)),
        set,
        "a present value changes nothing"
    );

    // Order of insertion does not matter to `==` on a collision node.
    let reversed = set_of((0..300).rev());
    assert_eq!(set, reversed);
    assert_ne!(set, set.removed(&Clash(0)));

    // Remove back below 255, then to nothing.
    let mut shrinking = set.clone();
    for id in 0..100 {
        assert!(shrinking.remove_mut(&Clash(id)));
    }
    shrinking.assert_invariants();
    assert_eq!(ids(&shrinking), (100..300).collect());
    assert_eq!(
        ids(&set),
        (0..300).collect(),
        "the shared original is untouched"
    );
    for id in 100..300 {
        assert!(shrinking.remove_mut(&Clash(id)));
    }
    assert!(shrinking.is_empty());
    shrinking.assert_invariants();

    // Set algebra across the 255 boundary, against a model.
    let other = set_of(150..450);
    let (a, b): (BTreeSet<u32>, BTreeSet<u32>) = ((0..300).collect(), (150..450).collect());
    let union = set.union(&other);
    let inter = set.intersect(&other);
    let minus = set.difference(&other);
    for result in [&union, &inter, &minus] {
        result.assert_invariants();
    }
    assert_eq!(ids(&union), a.union(&b).copied().collect());
    assert_eq!(ids(&inter), a.intersection(&b).copied().collect());
    assert_eq!(ids(&minus), a.difference(&b).copied().collect());
    assert_eq!(union, set.union_elementwise(&other));
    assert_eq!(inter, set.intersect_elementwise(&other));
    assert_eq!(minus, set.difference_elementwise(&other));
    let diff = set.diff(&other);
    let added: BTreeSet<u32> = diff.added.iter().map(|c| c.0).collect();
    let removed: BTreeSet<u32> = diff.removed.iter().map(|c| c.0).collect();
    assert_eq!(added, b.difference(&a).copied().collect());
    assert_eq!(removed, a.difference(&b).copied().collect());
}

/// Builds, edits and compares a multi-map whose keys all collide: 300
/// one-value keys, then 280 of them promoted to `1:n`, so first the `CAT1`
/// group and then the `CAT2` group of the collision node is longer than
/// 255; one key also gets 300 colliding values of its own.
fn check_multimap<B: ValueBag<Clash>>() {
    let mut mm: AxiomMultiMap<Clash, Clash, B> = AxiomMultiMap::new();
    let mut model = BTreeSet::new();
    for k in 0..300 {
        assert!(mm.insert_mut(Clash(k), Clash(k)));
        model.insert((k, k));
    }
    mm.assert_invariants();
    let flat = mm.clone();
    for k in 0..280 {
        assert!(mm.insert_mut(Clash(k), Clash(1000 + k)));
        model.insert((k, 1000 + k));
    }
    for v in 0..300 {
        if mm.insert_mut(Clash(299), Clash(5000 + v)) {
            model.insert((299, 5000 + v));
        }
    }
    mm.assert_invariants();
    let tuples = |mm: &AxiomMultiMap<Clash, Clash, B>| -> BTreeSet<(u32, u32)> {
        mm.iter().map(|(k, v)| (k.0, v.0)).collect()
    };
    let pairs = |ts: &[(Clash, Clash)]| -> BTreeSet<(u32, u32)> {
        ts.iter().map(|(k, v)| (k.0, v.0)).collect()
    };
    assert_eq!(mm.key_count(), 300);
    assert_eq!(mm.tuple_count(), model.len());
    assert_eq!(mm.iter().count(), model.len());
    assert_eq!(tuples(&mm), model);
    assert_eq!(mm.keys().count(), 300);
    assert_eq!(mm.value_count(&Clash(299)), 301);
    assert_eq!(mm.value_count(&Clash(3)), 2);
    assert!(matches!(
        mm.get(&Clash(290)),
        Some(BindingRef::One(&Clash(290)))
    ));
    assert_eq!(mm.value_set(&Clash(299)).map(|s| s.len()), Some(301));
    assert_eq!(flat.tuple_count(), 300, "the earlier version is untouched");

    // `==` ignores the order keys and values went in.
    let mut reversed: AxiomMultiMap<Clash, Clash, B> = AxiomMultiMap::new();
    for &(k, v) in model.iter().rev() {
        reversed.insert_mut(Clash(k), Clash(v));
    }
    assert!(reversed == mm);

    // The structural diff and union against the one-value version.
    let diff = flat.diff(&mm);
    assert!(diff.removed.is_empty());
    assert_eq!(
        pairs(&diff.added),
        model.difference(&tuples(&flat)).copied().collect()
    );
    assert!(flat.union(&mm) == mm);
    assert!(mm.union(&flat) == mm);

    // Demote keys and remove others until both groups are below 255.
    for k in 0..200 {
        assert!(mm.remove_tuple_mut(&Clash(k), &Clash(1000 + k)));
        model.remove(&(k, 1000 + k));
    }
    for k in 200..260 {
        assert_eq!(mm.remove_key_mut(&Clash(k)), 2);
        model.remove(&(k, k));
        model.remove(&(k, 1000 + k));
    }
    for v in 0..290 {
        assert!(mm.remove_tuple_mut(&Clash(299), &Clash(5000 + v)));
        model.remove(&(299, 5000 + v));
    }
    mm.assert_invariants();
    assert_eq!(tuples(&mm), model);
    assert_eq!(mm.key_count(), 240);
    let back: AxiomMultiMap<Clash, Clash, B> =
        model.iter().map(|&(k, v)| (Clash(k), Clash(v))).collect();
    assert!(back == mm);
    let diff = mm.diff(&flat);
    assert_eq!(
        pairs(&diff.added),
        tuples(&flat).difference(&model).copied().collect()
    );
    assert_eq!(
        pairs(&diff.removed),
        model.difference(&tuples(&flat)).copied().collect()
    );
}

#[test]
fn a_multimap_of_300_colliding_keys_edits_iterates_and_compares() {
    check_multimap::<AxiomSet<Clash>>();
}

#[test]
fn a_fused_multimap_of_300_colliding_keys_edits_iterates_and_compares() {
    check_multimap::<axiom::FusedBag<Clash>>();
    let mm: AxiomFusedMultiMap<Clash, u32> = (0..300).map(|k| (Clash(k), k)).collect();
    mm.assert_invariants();
    assert_eq!(mm.key_count(), 300);
}
