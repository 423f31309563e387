//! The bitmap-trie node walk of every AXIOM and CHAMP trie, written once:
//! the sets, the maps and the AXIOM multi-map.
//!
//! A set is the homogeneous case of the AXIOM encoding, "exactly the CHAMP
//! special case" (paper §3.1), a set is a map to `()`, and the multi-map is
//! the same trie with a second payload kind. So the five tries are one node
//! and one walk over two bitmap syntaxes:
//!
//! * a node is a [`Packed`] block holding its bitmap word, its inlined
//!   `(key, value)` entries, its second-kind payloads `M` and its sub-trie
//!   handles, each group ascending by mask; `(T, ())` has the size of `T`,
//!   so a set node is what it would be with the elements alone;
//! * `M` is the second payload kind ([`Many`]): a multi-map's `CAT2`
//!   element, a key bound to two or more values. Sets and maps have none:
//!   their `M` is [`Infallible`], so every arm that meets one is
//!   uninhabited and drops out of their code;
//! * the word is any [`Bitmap`]: AXIOM's 2-bit `SlotBitmap` with `CAT1`,
//!   `CAT2` and `NODE`, or CHAMP's `(datamap, nodemap)` pair. Both fit the
//!   block's 16-byte header;
//! * past the last hash level a node is a collision node: payloads whose
//!   keys share one 32-bit hash, no children, an unused word. The walks
//!   tell it from a bitmap node by depth.
//!
//! The walk provides point lookup ([`get`]) and its level-synchronous,
//! prefetching batch form ([`get_many`]), insertion ([`bind`] of a
//! [`Value`]), removal that inlines a sub-trie left with one payload into
//! its parent ([`remove_root`]), the iterator ([`Iter`]), the canonical-form
//! check ([`validate`]), the [`algebra`] view ([`View`]) and the traversal
//! of the footprint walks ([`visit`]). What differs between the payload
//! kinds is a few hooks of [`Many`]: what inserting a value does at a key's
//! slot (a map replaces the value, a multi-map promotes the key or grows its
//! bag), what removing one value does (a bag shrinks, or the key is
//! demoted) and the bag invariants [`validate`] checks. A multi-map put that
//! rebinds a key whole is a [`Bind`] of its own. [`Map`] is the handle the
//! four set and map types wrap: a root node and its length.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::hash::Hash;
use std::marker::PhantomData;

use crate::algebra::{self, masks, At, Canonical, Removal, SetTrie, Sink, Trie};
use crate::bits::{hash_exhausted, mask, next_shift};
use crate::hash::{debug_assert_hash, hash32};
use crate::packed::{Children, Manys, Ones, Packed, Slot};
use crate::slices::{edit_child, insert_slot, remove_slot, survivor};

/// What a node holds at one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// Nothing.
    Empty,
    /// An inlined entry: a key and its one value (AXIOM's `CAT1`).
    Payload,
    /// A payload of the second kind: a key and its two or more values
    /// (AXIOM's `CAT2`). Set and map nodes hold none.
    Many,
    /// A sub-trie.
    Node,
}

/// A bitmap syntax: how a node's word records which of its 32 branches
/// hold which kind of slot, and where each sits in the node's slots
/// (entries first, then second-kind payloads, then sub-tries, each
/// ascending by mask).
pub trait Bitmap: Copy + Eq {
    /// The word of a node with every branch empty.
    const EMPTY: Self;

    /// What branch `mask` holds.
    fn get(self, mask: u32) -> Branch;

    /// What branch `mask` holds and its absolute slot index (meaningless
    /// for an empty branch), in one pass over the word.
    fn locate(self, mask: u32) -> (Branch, usize);

    /// The word with branch `mask` set to hold `branch`.
    fn with(self, mask: u32, branch: Branch) -> Self;

    /// The absolute slot index of branch `mask`, which holds `branch`.
    fn slot_index(self, branch: Branch, mask: u32) -> usize;

    /// Number of branches holding a payload of either kind.
    fn payload_arity(self) -> usize;

    /// Number of branches holding a sub-trie.
    fn node_arity(self) -> usize;

    /// The masks occupied in `self` or in `other`, ascending.
    fn occupied_with(self, other: Self) -> impl Iterator<Item = u32>;
}

/// A trie node: one allocation holding the word, the inlined entries, the
/// second-kind payloads and the sub-trie handles.
pub type Node<W, K, V, M = Infallible> = Packed<W, (K, V), M>;

/// One payload by value, as an edit moves it: an entry or a second-kind
/// payload (a node's [`Slot`], never a child).
pub type Payload<W, K, V, M> = Slot<(K, V), M, Node<W, K, V, M>>;

/// A node's second payload kind: a key bound to two or more values, the
/// AXIOM multi-map's `CAT2` element. Sets and maps have none, so they use
/// [`Infallible`]. The hooks are the steps of the walk where the two kinds
/// differ.
pub trait Many<K, V>: Clone {
    /// The key.
    fn key(&self) -> &K;

    /// Number of values bound to the key (at least two).
    fn value_count(&self) -> usize;

    /// Hints the CPU to load the values: [`get_many`] calls it on a hit,
    /// as it does on the node a walking key goes on in.
    fn prefetch(&self);

    /// Inserts `value` for the key whose entry (one value) sits at absolute
    /// index `idx` of `node`, at `place`: a map replaces the value, a
    /// multi-map promotes the key to this kind.
    fn insert_one<W: Bitmap>(
        node: &mut Node<W, K, V, Self>,
        place: Place<W>,
        idx: usize,
        value: V,
    ) -> Inserted<V>;

    /// Inserts `value` for the key whose payload of this kind sits at
    /// absolute index `idx` of `node`: a multi-map grows the key's bag.
    fn insert_many<W: Bitmap>(node: &mut Node<W, K, V, Self>, idx: usize, value: V) -> Inserted<V>;

    /// Removes `value` from the key whose payload of this kind sits at
    /// absolute index `idx` of `node`, at `place`: the bag shrinks, or the
    /// key is demoted to an entry when one value is left. Returns false if
    /// the key is not bound to `value`.
    fn remove_value<W: Bitmap>(
        node: &mut Node<W, K, V, Self>,
        place: Place<W>,
        idx: usize,
        value: &V,
    ) -> bool;

    /// Checks the invariants of the values (for [`validate`]).
    ///
    /// # Panics
    ///
    /// Panics if one is violated.
    fn validate(&self);
}

/// Sets and maps: no second payload kind. A key found bound has its value
/// replaced, unless equal.
impl<K: Clone, V: Clone + PartialEq> Many<K, V> for Infallible {
    fn key(&self) -> &K {
        match *self {}
    }

    fn value_count(&self) -> usize {
        match *self {}
    }

    fn prefetch(&self) {
        match *self {}
    }

    fn insert_one<W: Bitmap>(
        node: &mut Node<W, K, V, Self>,
        _: Place<W>,
        idx: usize,
        value: V,
    ) -> Inserted<V> {
        if node.one(idx).1 == value {
            return Inserted::Unchanged(Some(value));
        }
        let old = std::mem::replace(&mut node.make_mut().ones[idx].1, value);
        Inserted::Changed(Some(old))
    }

    fn insert_many<W: Bitmap>(node: &mut Node<W, K, V, Self>, idx: usize, _: V) -> Inserted<V> {
        match *node.many(idx) {}
    }

    fn remove_value<W: Bitmap>(
        node: &mut Node<W, K, V, Self>,
        _: Place<W>,
        idx: usize,
        _: &V,
    ) -> bool {
        match *node.many(idx) {}
    }

    fn validate(&self) {
        match *self {}
    }
}

/// What inserting one value for a key bound already did.
#[derive(Debug)]
pub enum Inserted<V> {
    /// The key was bound to the value already: nothing changed. The offered
    /// value comes back where the hook still holds it (always, for a map).
    Unchanged(Option<V>),
    /// The key's values changed: a map hands back the value it replaced, a
    /// multi-map's key gained the value.
    Changed(Option<V>),
}

/// What a removal took out.
#[derive(Debug, Clone, Copy)]
pub struct Gone {
    /// Number of values removed (1 for a map's key).
    pub values: usize,
    /// True if the key went with them.
    pub key: bool,
}

/// What removing from below a node did.
enum Removed<P> {
    NotFound,
    Done(Gone),
    /// The sub-trie collapsed to one payload: a unique node is left empty,
    /// and the parent drops it and inlines the payload.
    Single(P, Gone),
}

/// A borrowed payload: an entry, or a second-kind payload.
#[derive(Debug)]
pub enum Entry<'a, K, V, M> {
    /// An entry: a key and its one value.
    One(&'a (K, V)),
    /// A payload of the second kind.
    Many(&'a M),
}

impl<'a, K, V, M> Clone for Entry<'a, K, V, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, K, V, M> Copy for Entry<'a, K, V, M> {}

impl<'a, K, V, M: Many<K, V>> Entry<'a, K, V, M> {
    /// The key.
    pub fn key(self) -> &'a K {
        match self {
            Entry::One((k, _)) => k,
            Entry::Many(many) => many.key(),
        }
    }
}

impl<'a, K, V> Entry<'a, K, V, Infallible> {
    /// The entry of a set or map, which has no second payload kind.
    fn one(self) -> &'a (K, V) {
        match self {
            Entry::One(entry) => entry,
            Entry::Many(never) => match *never {},
        }
    }
}

/// The kind of branch a payload goes in.
fn kind<W, K, V, M>(payload: &Payload<W, K, V, M>) -> Branch {
    match payload {
        Slot::One(_) => Branch::Payload,
        Slot::Many(_) => Branch::Many,
        Slot::Child(_) => Branch::Node,
    }
}

/// The payload of kind `kind` at absolute index `idx`.
fn entry_at<W, K, V, M>(node: &Node<W, K, V, M>, kind: Branch, idx: usize) -> Entry<'_, K, V, M> {
    match kind {
        Branch::Payload => Entry::One(node.one(idx)),
        _ => Entry::Many(node.many(idx)),
    }
}

/// A node holding `word` and the payloads `a` and `b` (in branch order).
fn leaf<W, K, V, M>(word: W, a: Payload<W, K, V, M>, b: Payload<W, K, V, M>) -> Node<W, K, V, M> {
    match (a, b) {
        (Slot::One(a), Slot::One(b)) => Node::new(word, [a, b], [], []),
        (Slot::Many(a), Slot::Many(b)) => Node::new(word, [], [a, b], []),
        (Slot::One(a), Slot::Many(b)) | (Slot::Many(b), Slot::One(a)) => {
            Node::new(word, [a], [b], [])
        }
        _ => unreachable!("a leaf holds two payloads"),
    }
}

/// The minimal sub-trie holding two payloads with distinct keys whose hash
/// prefixes agree up to `shift`.
fn pair<W: Bitmap, K, V, M>(
    h1: u32,
    p1: Payload<W, K, V, M>,
    h2: u32,
    p2: Payload<W, K, V, M>,
    shift: u32,
) -> Node<W, K, V, M> {
    if hash_exhausted(shift) {
        debug_assert_eq!(h1, h2);
        return leaf(W::EMPTY, p1, p2);
    }
    let (m1, m2) = (mask(h1, shift), mask(h2, shift));
    if m1 == m2 {
        let child = pair(h1, p1, h2, p2, next_shift(shift));
        return Node::new(W::EMPTY.with(m1, Branch::Node), [], [], [child]);
    }
    let word = W::EMPTY.with(m1, kind(&p1)).with(m2, kind(&p2));
    match m1 < m2 {
        true => leaf(word, p1, p2),
        false => leaf(word, p2, p1),
    }
}

/// The root of a one-payload trie (a collapsed trie's last payload).
fn single<W: Bitmap, K: Hash, V, M: Many<K, V>>(payload: Payload<W, K, V, M>) -> Node<W, K, V, M> {
    let at = |key, kind| W::EMPTY.with(mask(hash32(key), 0), kind);
    match payload {
        Slot::One(entry) => Node::new(at(&entry.0, Branch::Payload), [entry], [], []),
        Slot::Many(many) => Node::new(at(many.key(), Branch::Many), [], [many], []),
        Slot::Child(_) => unreachable!("a payload is not a sub-trie"),
    }
}

/// One level of a lookup: the key's payload (if any), or the sub-trie it
/// goes on in.
enum Step<'a, W, K, V, M> {
    Done(Option<Entry<'a, K, V, M>>),
    Down(&'a Node<W, K, V, M>),
}

/// Where `key` (hashed to `hash`) goes in `node` at `shift`: its place,
/// and the kind and absolute index of the slot there (`Branch::Empty` if
/// none). In a bitmap node that slot may hold another key; in a collision
/// node it holds `key`.
#[inline(always)]
fn position<W, K, V, M, Q>(
    node: &Node<W, K, V, M>,
    hash: u32,
    shift: u32,
    key: &Q,
) -> (Place<W>, Branch, usize)
where
    W: Bitmap,
    K: Borrow<Q>,
    M: Many<K, V>,
    Q: Eq + ?Sized,
{
    let word = node.word();
    if !hash_exhausted(shift) {
        // Fused dispatch: kind and slot index from one pass over the word.
        let m = mask(hash, shift);
        let (kind, idx) = word.locate(m);
        let place = Place {
            word,
            mask: Some(m),
        };
        return (place, kind, idx);
    }
    let (place, ones) = (Place { word, mask: None }, node.ones());
    if let Some(pos) = ones.iter().position(|(k, _)| k.borrow() == key) {
        return (place, Branch::Payload, pos);
    }
    match node.manys().iter().position(|m| m.key().borrow() == key) {
        Some(pos) => (place, Branch::Many, ones.len() + pos),
        None => (place, Branch::Empty, 0),
    }
}

/// One level of the lookup of `key` (hashed to `hash`) in `node` at
/// `shift`: the step [`get`] loops on, and the one [`get_many`] takes for
/// every walking key per round.
#[inline(always)]
fn step<'a, W, K, V, M, Q>(
    node: &'a Node<W, K, V, M>,
    hash: u32,
    shift: u32,
    key: &Q,
) -> Step<'a, W, K, V, M>
where
    W: Bitmap,
    K: Borrow<Q>,
    M: Many<K, V>,
    Q: Eq + ?Sized,
{
    match position(node, hash, shift, key) {
        (_, Branch::Empty, _) => Step::Done(None),
        (_, Branch::Node, idx) => Step::Down(node.child(idx)),
        (_, kind, idx) => {
            let entry = entry_at(node, kind, idx);
            Step::Done((entry.key().borrow() == key).then_some(entry))
        }
    }
}

/// The payload of `key` below `node`, whose branches are selected by the
/// hash bits from `shift` on.
pub fn get<'a, W, K, V, M, Q>(
    mut node: &'a Node<W, K, V, M>,
    hash: u32,
    mut shift: u32,
    key: &Q,
) -> Option<Entry<'a, K, V, M>>
where
    W: Bitmap,
    K: Borrow<Q>,
    M: Many<K, V>,
    Q: Eq + ?Sized,
{
    loop {
        match step(node, hash, shift, key) {
            Step::Done(found) => return found,
            Step::Down(child) => (node, shift) = (child, next_shift(shift)),
        }
    }
}

/// Keys whose walks [`get_many`] runs side by side: enough to overlap a
/// batch's cache misses, few enough for the cursors to live on the stack.
const LANES: usize = 16;

/// Looks up every key of `keys` in the trie at `root`, appending
/// `answer` of each key's [`get`] result to `out`, in order.
///
/// Up to 16 keys walk the trie together, level by level: in each round
/// every key still walking takes the one level step a lookup takes and
/// prefetches the node it goes on in (or, on a second-kind hit, its values
/// through [`Many::prefetch`]), so the cache misses of the batch overlap
/// instead of queueing one behind another.
pub fn get_many<'a, W, K, V, M, Q, T>(
    root: &'a Node<W, K, V, M>,
    keys: &[&Q],
    out: &mut Vec<T>,
    answer: impl Fn(Option<Entry<'a, K, V, M>>) -> T,
) where
    W: Bitmap,
    K: Borrow<Q>,
    M: Many<K, V>,
    Q: Eq + Hash + ?Sized,
    T: Clone,
{
    out.reserve(keys.len());
    for batch in keys.chunks(LANES) {
        let base = out.len();
        out.extend(std::iter::repeat_n(answer(None), batch.len()));
        let found = &mut out[base..];
        // One cursor per walking key: its node, its hash and its lane.
        let mut walking = [(root, 0, 0); LANES];
        for (lane, key) in batch.iter().enumerate() {
            walking[lane] = (root, hash32(*key), lane);
        }
        let (mut live, mut shift) = (batch.len(), 0);
        while live > 0 {
            let mut kept = 0;
            for i in 0..live {
                let (node, hash, lane) = walking[i];
                match step(node, hash, shift, batch[lane]) {
                    Step::Down(child) => {
                        child.prefetch();
                        walking[kept] = (child, hash, lane);
                        kept += 1;
                    }
                    Step::Done(hit) => {
                        if let Some(Entry::Many(many)) = hit {
                            many.prefetch();
                        }
                        found[lane] = answer(hit);
                    }
                }
            }
            (live, shift) = (kept, next_shift(shift));
        }
    }
}

/// Where an edit walk meets a key's slot: under branch `mask` of a bitmap
/// node whose word is `word`, or (no mask) in a collision node, whose word
/// is unused.
#[derive(Debug, Clone, Copy)]
pub struct Place<W> {
    word: W,
    mask: Option<u32>,
}

impl<W: Bitmap> Place<W> {
    /// The word and the absolute slot index that a slot of kind `to` takes
    /// at this place in `node`, once the key's slot there, of kind `from`
    /// (`Branch::Empty` if none), has left: where an insertion puts a new
    /// payload, and where [`Packed::migrate`] moves a slot that changes
    /// kind (a promoted or demoted key, a payload pushed into a sub-trie, a
    /// sub-trie inlined). A collision node keeps each kind's payloads in
    /// insertion order, so there the slot goes last among its kind.
    pub fn target<K, V, M>(self, node: &Node<W, K, V, M>, from: Branch, to: Branch) -> (W, usize) {
        match self.mask {
            Some(m) => {
                let word = self.word.with(m, to);
                (word, word.slot_index(to, m))
            }
            None => {
                let ones = node.ones().len() - usize::from(from == Branch::Payload);
                let manys = node.manys().len() - usize::from(from == Branch::Many);
                let at = match to {
                    Branch::Payload => ones,
                    _ => ones + manys,
                };
                (self.word, at)
            }
        }
    }
}

/// What an insertion binds a key to: the payload a new key gets, and what
/// it does to a key that is bound already.
pub trait Bind<W, K, V, M>: Sized {
    /// What the insertion reports for a key bound already.
    type Out;

    /// The payload of `key` when the key is new.
    fn payload(self, key: K) -> Payload<W, K, V, M>;

    /// True if the report says the trie changed: a shared node on the path
    /// is then copied to hold the edited child.
    fn changed(out: &Self::Out) -> bool;

    /// Edits the payload of kind `kind` that the key is bound to, at
    /// absolute index `idx` of `node`, at `place`.
    fn hit(
        self,
        node: &mut Node<W, K, V, M>,
        place: Place<W>,
        kind: Branch,
        idx: usize,
    ) -> Self::Out;
}

/// One value for a key: a map's binding, a multi-map's tuple. A key bound
/// already takes it through its payload kind's hooks ([`Many::insert_one`]
/// and [`Many::insert_many`]).
#[derive(Debug)]
pub struct Value<V>(pub V);

impl<W, K, V, M> Bind<W, K, V, M> for Value<V>
where
    W: Bitmap,
    M: Many<K, V>,
{
    type Out = Inserted<V>;

    fn payload(self, key: K) -> Payload<W, K, V, M> {
        Slot::One((key, self.0))
    }

    fn changed(out: &Inserted<V>) -> bool {
        matches!(out, Inserted::Changed(_))
    }

    fn hit(
        self,
        node: &mut Node<W, K, V, M>,
        place: Place<W>,
        kind: Branch,
        idx: usize,
    ) -> Inserted<V> {
        match kind {
            Branch::Payload => M::insert_one(node, place, idx, self.0),
            _ => M::insert_many(node, idx, self.0),
        }
    }
}

/// Binds `key`, hashed to `hash`, in the trie at `root` as `binding`
/// says, editing unique nodes in place and copying shared ones on write
/// (copying nothing when the key is found bound as asked). Returns `None`
/// for a new key, else what [`Bind::hit`] reported.
pub fn bind<W, K, V, M, B>(
    root: &mut Node<W, K, V, M>,
    hash: u32,
    key: K,
    binding: B,
) -> Option<B::Out>
where
    W: Bitmap,
    K: Clone + Eq + Hash,
    V: Clone,
    M: Many<K, V>,
    B: Bind<W, K, V, M>,
{
    bind_at(root, hash, 0, key, binding)
}

/// Binds `key` below `this`. Takes the key by ownership so the common paths
/// move it into its final slot.
fn bind_at<W, K, V, M, B>(
    this: &mut Node<W, K, V, M>,
    hash: u32,
    shift: u32,
    key: K,
    binding: B,
) -> Option<B::Out>
where
    W: Bitmap,
    K: Clone + Eq + Hash,
    V: Clone,
    M: Many<K, V>,
    B: Bind<W, K, V, M>,
{
    let (place, at, idx) = position(this, hash, shift, &key);
    match at {
        Branch::Empty => {
            let payload = binding.payload(key);
            let (word, to) = place.target(this, Branch::Empty, kind(&payload));
            insert_slot(this, word, to, payload);
            None
        }
        Branch::Node => edit_child(
            this,
            idx,
            |child| bind_at(child, hash, next_shift(shift), key, binding),
            |out| out.as_ref().is_none_or(B::changed),
        ),
        at if *entry_at(this, at, idx).key() == key => Some(binding.hit(this, place, at, idx)),
        at => {
            // Prefix clash: both payloads descend into a fresh sub-trie;
            // the slot migrates payload → sub-trie.
            let existing_hash = hash32(entry_at(this, at, idx).key());
            let payload = binding.payload(key);
            let (word, to) = place.target(this, at, Branch::Node);
            let below = move |existing| {
                let child = pair(existing_hash, existing, hash, payload, next_shift(shift));
                (Slot::Child(child), ())
            };
            match at {
                Branch::Payload => this.migrate::<Ones, _>(word, idx, to, |e| below(Slot::One(e))),
                _ => this.migrate::<Manys, _>(word, idx, to, |m| below(Slot::Many(m))),
            }
            None
        }
    }
}

/// Removes `key`, hashed to `hash`, from the trie at `root`, or only its
/// `value` when given (a multi-map's tuple; a map's `value` is always
/// `None`), re-rooting a trie that collapsed to one payload. Returns what
/// went, `None` if nothing did.
pub fn remove_root<W, K, V, M, Q>(
    root: &mut Node<W, K, V, M>,
    hash: u32,
    key: &Q,
    value: Option<&V>,
) -> Option<Gone>
where
    W: Bitmap,
    K: Clone + Hash + Borrow<Q>,
    V: Clone + PartialEq,
    M: Many<K, V>,
    Q: Eq + ?Sized,
{
    match remove(root, hash, 0, key, value) {
        Removed::NotFound => None,
        Removed::Done(gone) => Some(gone),
        Removed::Single(payload, gone) => {
            *root = single(payload);
            Some(gone)
        }
    }
}

/// Removes `key` (or only its `value`) below `this` with the same
/// copy-on-write discipline as [`bind`]. Canonicalizes on the way up: a
/// sub-trie left with one payload hands it to its parent for inlining.
fn remove<W, K, V, M, Q>(
    this: &mut Node<W, K, V, M>,
    hash: u32,
    shift: u32,
    key: &Q,
    value: Option<&V>,
) -> Removed<Payload<W, K, V, M>>
where
    W: Bitmap,
    K: Clone + Borrow<Q>,
    V: Clone + PartialEq,
    M: Many<K, V>,
    Q: Eq + ?Sized,
{
    let (place, at, idx) = position(this, hash, shift, key);
    let gone = match at {
        Branch::Empty => return Removed::NotFound,
        Branch::Node => {
            // A pure chain node dissolves when its child collapses.
            let word = place.word;
            let chain = shift > 0 && word.payload_arity() == 0 && word.node_arity() == 1;
            return match edit_child(
                this,
                idx,
                |child| remove(child, hash, next_shift(shift), key, value),
                |outcome| matches!(outcome, Removed::Done(_)),
            ) {
                Removed::Single(payload, gone) if !chain => {
                    // Inline the survivor: sub-trie → payload, dropping the
                    // collapsed child after the move.
                    let (word, to) = place.target(this, Branch::Node, kind(&payload));
                    this.migrate::<Children, _>(word, idx, to, |child| (payload, child));
                    Removed::Done(gone)
                }
                outcome => outcome,
            };
        }
        Branch::Payload => {
            let (k, v) = this.one(idx);
            if k.borrow() != key || value.is_some_and(|value| value != v) {
                return Removed::NotFound;
            }
            Gone {
                values: 1,
                key: true,
            }
        }
        Branch::Many => {
            let many = this.many(idx);
            if many.key().borrow() != key {
                return Removed::NotFound;
            }
            match value {
                None => Gone {
                    values: many.value_count(),
                    key: true,
                },
                Some(value) if M::remove_value(this, place, idx, value) => {
                    let gone = Gone {
                        values: 1,
                        key: false,
                    };
                    return Removed::Done(gone);
                }
                Some(_) => return Removed::NotFound,
            }
        }
    };
    // The whole payload goes. A node left with one payload and no child
    // offers it to the parent for inlining.
    let (word, last) = match place.mask {
        None => (place.word, this.arity() == 2),
        Some(m) => {
            let word = place.word.with(m, Branch::Empty);
            let last = shift > 0 && word.payload_arity() == 1 && word.node_arity() == 0;
            (word, last)
        }
    };
    if last {
        return Removed::Single(survivor(this, idx), gone);
    }
    remove_slot(this, word, idx);
    Removed::Done(gone)
}

/// Number of payloads (keys) below `node`, counted by walking the trie.
pub fn count<W, K, V, M>(node: &Node<W, K, V, M>) -> usize {
    node.ones().len() + node.manys().len() + node.children().iter().map(count).sum::<usize>()
}

/// The key the walk of `node` yields first.
fn first_key<W, K, V, M: Many<K, V>>(node: &Node<W, K, V, M>) -> &K {
    match (node.ones().first(), node.manys().first()) {
        (Some((k, _)), _) => k,
        (None, Some(many)) => many.key(),
        (None, None) => first_key(&node.children()[0]),
    }
}

/// Checks the canonical form below `node`, whose branches are selected by
/// the hash bits from `shift` on, and returns its numbers of keys and of
/// values.
///
/// # Panics
///
/// Panics if an invariant is violated.
pub fn validate<W, K, V, M>(node: &Node<W, K, V, M>, shift: u32) -> (usize, usize)
where
    W: Bitmap,
    K: Eq + Hash,
    M: Many<K, V>,
{
    let (ones, manys, children) = (node.ones(), node.manys(), node.children());
    manys.iter().for_each(M::validate);
    let keys = || ones.iter().map(|(k, _)| k).chain(manys.iter().map(M::key));
    let mut total = (
        ones.len() + manys.len(),
        ones.len() + manys.iter().map(M::value_count).sum::<usize>(),
    );
    if hash_exhausted(shift) {
        assert!(children.is_empty(), "collision node with children");
        assert!(total.0 >= 2, "collision node with < 2 entries");
        let hash = hash32(first_key(node));
        for (i, k) in keys().enumerate() {
            assert_eq!(hash32(k), hash, "collision member hash");
            assert!(
                keys().skip(i + 1).all(|other| other != k),
                "duplicate key in collision node"
            );
        }
        return total;
    }
    let word = node.word();
    assert_eq!(total.0, word.payload_arity(), "entry count");
    assert_eq!(children.len(), word.node_arity(), "child count");
    let occupied = word.occupied_with(W::EMPTY).count();
    assert_eq!(
        occupied,
        total.0 + children.len(),
        "branch neither entry nor sub-trie"
    );
    for (i, k) in keys().enumerate() {
        let at = word.locate(mask(hash32(k), shift));
        let kind = if i < ones.len() {
            Branch::Payload
        } else {
            Branch::Many
        };
        assert_eq!(at, (kind, i), "entry in wrong branch");
    }
    let payloads = total.0;
    for (i, child) in children.iter().enumerate() {
        let sub = validate(child, next_shift(shift));
        assert!(sub.0 >= 2, "sub-trie with < 2 entries not inlined");
        let at = word.locate(mask(hash32(first_key(child)), shift));
        assert_eq!(at, (Branch::Node, payloads + i), "sub-trie in wrong branch");
        total = (total.0 + sub.0, total.1 + sub.1);
    }
    if shift > 0 {
        assert!(
            !(payloads == 1 && children.is_empty()),
            "non-root singleton payload node must be inlined"
        );
        assert!(occupied >= 1, "empty non-root node");
    }
    total
}

/// Iterator over the payloads of a trie.
///
/// A node's inlined payloads are yielded before any of its sub-tries is
/// entered, the paper's grouped batch iteration (§3.3). The walk's stack
/// lives in the iterator, so iterating allocates nothing. A set's or map's
/// iterator yields its entries; [`Iter::next_payload`] yields either kind.
pub struct Iter<'a, W, K, V, M = Infallible> {
    ones: std::slice::Iter<'a, (K, V)>,
    manys: std::slice::Iter<'a, M>,
    /// The unvisited children of each node on the path from the root.
    stack: [std::slice::Iter<'a, Node<W, K, V, M>>; DEPTH],
    depth: usize,
    remaining: usize,
}

/// The most nodes on one root-to-leaf path: seven bitmap levels consume the
/// 32 hash bits five at a time, and a collision node may sit below them.
const DEPTH: usize = 8;

impl<'a, W, K, V, M> Iter<'a, W, K, V, M> {
    /// An iterator over the `len` payloads of the trie at `root`.
    pub fn new(root: &'a Node<W, K, V, M>, len: usize) -> Self {
        let mut stack: [std::slice::Iter<'a, Node<W, K, V, M>>; DEPTH] = Default::default();
        stack[0] = root.children().iter();
        Iter {
            ones: root.ones().iter(),
            manys: root.manys().iter(),
            stack,
            depth: 1,
            remaining: len,
        }
    }

    /// Number of payloads not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The next payload of either kind.
    #[inline]
    pub fn next_payload(&mut self) -> Option<Entry<'a, K, V, M>> {
        loop {
            if let Some(entry) = self.ones.next() {
                self.remaining -= 1;
                return Some(Entry::One(entry));
            }
            if let Some(many) = self.manys.next() {
                self.remaining -= 1;
                return Some(Entry::Many(many));
            }
            match self.stack[..self.depth].last_mut()?.next() {
                Some(child) => {
                    self.ones = child.ones().iter();
                    self.manys = child.manys().iter();
                    self.stack[self.depth] = child.children().iter();
                    self.depth += 1;
                }
                None => self.depth -= 1,
            }
        }
    }
}

impl<'a, W, K, V> Iterator for Iter<'a, W, K, V> {
    type Item = &'a (K, V);

    fn next(&mut self) -> Option<&'a (K, V)> {
        self.next_payload().map(Entry::one)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, W, K, V> ExactSizeIterator for Iter<'a, W, K, V> {}

impl<'a, W, K, V, M> std::fmt::Debug for Iter<'a, W, K, V, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// What a node holds at one branch, borrowed.
#[derive(Debug)]
pub enum Held<'a, W, K, V, M> {
    /// Nothing.
    Nothing,
    /// A payload.
    Entry(Entry<'a, K, V, M>),
    /// A sub-trie.
    Sub(&'a Node<W, K, V, M>),
}

/// A cursor over a bitmap node's branches: called for ascending masks that
/// cover every branch the node occupies, it returns what the node holds at
/// each. One cursor per slot run, each ascending by mask, so no branch
/// costs a popcount.
pub fn branches<'a, W: Bitmap, K, V, M>(
    node: &'a Node<W, K, V, M>,
) -> impl FnMut(u32) -> Held<'a, W, K, V, M> {
    let word = node.word();
    let (mut ones, mut manys) = (node.ones().iter(), node.manys().iter());
    let mut children = node.children().iter();
    move |m| match word.get(m) {
        Branch::Empty => Held::Nothing,
        Branch::Payload => ones
            .next()
            .map_or(Held::Nothing, |e| Held::Entry(Entry::One(e))),
        Branch::Many => manys
            .next()
            .map_or(Held::Nothing, |e| Held::Entry(Entry::Many(e))),
        Branch::Node => children.next().map_or(Held::Nothing, Held::Sub),
    }
}

/// The [`algebra`] view of a set or map trie with bitmap syntax `W`: the
/// node hooks the structural `union`, `intersect`, `difference`, `diff`
/// and `==` walks run on.
#[derive(Debug)]
pub struct View<W, K, V>(PhantomData<(W, K, V)>);

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Trie for View<W, K, V> {
    type Key = K;
    type Value = V;
    type Node = Node<W, K, V>;

    fn ptr_eq(a: &Self::Node, b: &Self::Node) -> bool {
        Packed::ptr_eq(a, b)
    }

    fn occupied_with(a: &Self::Node, b: &Self::Node) -> impl Iterator<Item = u32> {
        a.word().occupied_with(b.word())
    }

    fn cursor<'a>(node: &'a Self::Node) -> impl FnMut(u32) -> At<'a, Self>
    where
        Self: 'a,
    {
        let mut at = branches(node);
        move |m| match at(m) {
            Held::Nothing => At::Nothing,
            Held::Entry(entry) => {
                let (k, v) = entry.one();
                At::Payload(k, v)
            }
            Held::Sub(child) => At::Sub(child),
        }
    }

    fn payload<'a>(node: &'a Self::Node) -> impl Iterator<Item = (&'a K, &'a V)> + Clone
    where
        Self: 'a,
    {
        node.ones().iter().map(|(k, v)| (k, v))
    }

    fn children<'a>(node: &'a Self::Node) -> impl Iterator<Item = &'a Self::Node>
    where
        Self: 'a,
    {
        node.children().iter()
    }

    fn get<'a>(node: &'a Self::Node, hash: u32, shift: u32, key: &K) -> Option<&'a V>
    where
        Self: 'a,
    {
        get(node, hash, shift, key).map(|entry| &entry.one().1)
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Canonical for View<W, K, V> {
    fn same_payload(a: &Self::Node, b: &Self::Node) -> bool {
        a.word() == b.word() && a.ones() == b.ones()
    }
}

/// The entry of a set or map payload by value.
fn entry_of<W, K, V>(payload: Payload<W, K, V, Infallible>) -> (K, V) {
    match payload {
        Slot::One(entry) => entry,
        Slot::Many(never) => match never {},
        Slot::Child(_) => unreachable!("a payload is not a sub-trie"),
    }
}

impl<W: Bitmap, T: Clone + Eq + Hash> SetTrie for View<W, T, ()> {
    fn pair(h1: u32, e1: T, h2: u32, e2: T, shift: u32) -> Self::Node {
        pair(h1, Slot::One((e1, ())), h2, Slot::One((e2, ())), shift)
    }

    fn insert(node: &mut Self::Node, hash: u32, shift: u32, e: T) -> bool {
        bind_at(node, hash, shift, e, Value(())).is_none()
    }

    fn remove(node: &mut Self::Node, hash: u32, shift: u32, e: &T) -> Removal<T> {
        match remove(node, hash, shift, e, None) {
            Removed::NotFound => Removal::NotFound,
            Removed::Done(_) => Removal::Removed,
            Removed::Single(payload, _) => Removal::Single(entry_of(payload).0),
        }
    }

    fn collision(elems: Vec<T>) -> Self::Node {
        Node::new(W::EMPTY, elems.into_iter().map(|e| (e, ())), [], [])
    }

    fn assemble(
        elem_masks: u32,
        child_masks: u32,
        elems: impl ExactSizeIterator<Item = T>,
        children: impl ExactSizeIterator<Item = Self::Node>,
    ) -> Self::Node {
        let mut word = W::EMPTY;
        masks(elem_masks).for_each(|m| word = word.with(m, Branch::Payload));
        masks(child_masks).for_each(|m| word = word.with(m, Branch::Node));
        Node::new(word, elems.map(|e| (e, ())), [], children)
    }
}

/// A trie handle: the root node and the entry count. The AXIOM and CHAMP
/// maps wrap a `Map<W, K, V>`, their sets a `Map<W, T, ()>`.
#[derive(Debug)]
pub struct Map<W, K, V> {
    root: Node<W, K, V>,
    len: usize,
}

impl<W, K, V> Clone for Map<W, K, V> {
    fn clone(&self) -> Self {
        Map {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<W: Bitmap, K, V> Map<W, K, V> {
    /// An empty trie.
    pub fn new() -> Self {
        Map::from_parts(Node::new(W::EMPTY, [], [], []), 0)
    }
}

impl<W: Bitmap, K, V> Default for Map<W, K, V> {
    fn default() -> Self {
        Map::new()
    }
}

impl<W, K, V> Map<W, K, V> {
    /// The handle of the trie at `root`, holding `len` entries.
    pub fn from_parts(root: Node<W, K, V>, len: usize) -> Self {
        Map { root, len }
    }

    /// The root node and the entry count.
    pub fn into_parts(self) -> (Node<W, K, V>, usize) {
        (self.root, self.len)
    }

    /// The root node.
    pub fn root(&self) -> &Node<W, K, V> {
        &self.root
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trie holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the entries in unspecified (trie) order.
    pub fn iter(&self) -> Iter<'_, W, K, V> {
        Iter::new(&self.root, self.len)
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> Map<W, K, V> {
    /// The entry for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&(K, V)>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        get(&self.root, hash32(key), 0, key).map(Entry::one)
    }

    /// [`Map::get`] of a key whose [`hash32`] the caller computed: hashes
    /// nothing (see [`debug_assert_hash`] for a wrong `hash`).
    pub fn get_hashed<Q>(&self, key: &Q, hash: u32) -> Option<&(K, V)>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        debug_assert_hash(key, hash);
        get(&self.root, hash, 0, key).map(Entry::one)
    }

    /// Binds `key` to `value` in place (see [`bind`]): `None` for a
    /// new key, else the value it was bound to.
    pub fn insert_mut(&mut self, key: K, value: V) -> Option<V> {
        self.insert_at(hash32(&key), key, value)
    }

    /// [`Map::insert_mut`] of a key whose [`hash32`] the caller computed:
    /// hashes nothing but the key of an entry it pushes down into a new
    /// sub-trie (see [`debug_assert_hash`] for a wrong `hash`).
    pub fn insert_hashed_mut(&mut self, key: K, value: V, hash: u32) -> Option<V> {
        debug_assert_hash(&key, hash);
        self.insert_at(hash, key, value)
    }

    fn insert_at(&mut self, hash: u32, key: K, value: V) -> Option<V> {
        match bind(&mut self.root, hash, key, Value(value)) {
            Some(Inserted::Unchanged(old) | Inserted::Changed(old)) => old,
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Removes `key` in place. Returns true if an entry was removed.
    pub fn remove_mut<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let removed = remove_root(&mut self.root, hash32(key), key, None).is_some();
        self.len -= usize::from(removed);
        removed
    }

    /// What changed from `self` (old) to `other` (new), reported into the
    /// empty `out`: pointer-shared subtrees emit nothing.
    pub fn diff<D: Sink<K, V>>(&self, other: &Self, out: D) -> D {
        algebra::diff::<View<W, K, V>, _>(&self.root, &other.root, out)
    }

    /// Checks the canonical form and the entry count.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        assert_eq!(validate(&self.root, 0).0, self.len, "len bookkeeping");
    }
}

impl<W: Bitmap, K: Clone + Eq + Hash, V: Clone + PartialEq> PartialEq for Map<W, K, V> {
    /// Structural equality: bitmaps and payloads compare node by node, and
    /// a shared subtree compares in O(1).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && algebra::eq::<View<W, K, V>>(&self.root, &other.root)
    }
}

/// A set: a map to `()`.
impl<W: Bitmap, T: Clone + Eq + Hash> Map<W, T, ()> {
    /// The two-element set of distinct `a` and `b`, whose hashes the caller
    /// computed.
    pub fn from_two(a: T, ha: u32, b: T, hb: u32) -> Self {
        debug_assert!(a != b);
        let (a, b) = (Slot::One((a, ())), Slot::One((b, ())));
        Map::from_parts(pair(ha, a, hb, b, 0), 2)
    }

    /// The one-element set.
    pub fn single(e: T) -> Self {
        Map::from_parts(single(Slot::One((e, ()))), 1)
    }

    /// Iterates the elements.
    pub fn elements(&self) -> impl ExactSizeIterator<Item = &T> {
        self.iter().map(|(e, ())| e)
    }

    /// The sole element of a singleton set.
    ///
    /// # Panics
    ///
    /// Panics if the set does not hold exactly one element.
    pub fn sole(&self) -> &T {
        assert_eq!(self.len, 1, "sole() requires a singleton set");
        first_key(&self.root)
    }

    fn parts(&self) -> (&Node<W, T, ()>, usize) {
        (&self.root, self.len)
    }

    /// `self`, or the set at the root and length a walk built.
    fn or(&self, walked: Option<(Node<W, T, ()>, usize)>) -> Self {
        walked.map_or_else(|| self.clone(), |(root, len)| Map::from_parts(root, len))
    }

    /// Union by a lockstep structural walk ([`algebra::union`]).
    pub fn union(&self, other: &Self) -> Self {
        self.or(algebra::union::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// Intersection by a lockstep structural walk.
    pub fn intersect(&self, other: &Self) -> Self {
        self.or(algebra::intersect::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// Difference by a lockstep structural walk.
    pub fn difference(&self, other: &Self) -> Self {
        self.or(algebra::difference::<View<W, T, ()>>(
            self.parts(),
            other.parts(),
        ))
    }

    /// The smaller and the larger of two sets.
    fn by_len<'a>(&'a self, other: &'a Self) -> (&'a Self, &'a Self) {
        if self.len >= other.len {
            (other, self)
        } else {
            (self, other)
        }
    }

    /// Element-wise union: inserts the smaller set into the larger.
    pub fn union_elementwise(&self, other: &Self) -> Self {
        let (small, big) = self.by_len(other);
        let mut out = big.clone();
        for e in small.elements() {
            out.insert_mut(e.clone(), ());
        }
        out
    }

    /// Element-wise intersection: scans the smaller set and probes the
    /// larger.
    pub fn intersect_elementwise(&self, other: &Self) -> Self {
        let (small, big) = self.by_len(other);
        small.filtered(|e| big.get(e).is_some())
    }

    /// Element-wise difference: probes `other` for each element.
    pub fn difference_elementwise(&self, other: &Self) -> Self {
        self.filtered(|e| other.get(e).is_none())
    }

    /// The elements that `keep` accepts, inserted one by one.
    fn filtered(&self, keep: impl Fn(&T) -> bool) -> Self {
        let mut out = Map::new();
        for e in self.elements().filter(|e| keep(e)) {
            out.insert_mut(e.clone(), ());
        }
        out
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.len <= other.len && self.elements().all(|e| other.get(e).is_some())
    }

    /// True if the sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        let (small, big) = self.by_len(other);
        small.elements().all(|e| big.get(e).is_none())
    }
}

impl<W, T: Hash> Hash for Map<W, T, ()> {
    /// Order-independent: the sum of the elements' hashes, so equal sets
    /// hash equally whatever their insertion order.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let sum = self
            .iter()
            .fold(0u64, |acc, (k, _)| acc.wrapping_add(hash32(k) as u64));
        state.write_u64(sum);
        state.write_usize(self.len);
    }
}

/// Calls `f` on each node below `node` with the shift its branches are
/// selected at, parents first, descending only below the nodes for which
/// `f` returns true: the traversal of the footprint walks (a native walk
/// stops at a node it has counted already).
pub fn visit<W, A, B>(
    node: &Packed<W, A, B>,
    shift: u32,
    f: &mut impl FnMut(&Packed<W, A, B>, u32) -> bool,
) {
    if f(node, shift) {
        for child in node.children() {
            visit(child, next_shift(shift), f);
        }
    }
}
