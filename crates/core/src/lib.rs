//! **AXIOM** — type-heterogeneous hash-tries for purely functional
//! collections.
//!
//! This crate reproduces the core contribution of Steindorfer & Vinju,
//! *"To-Many or To-One? All-in-One! Efficient Purely Functional Multi-maps
//! with Type-Heterogeneous Hash-Tries"* (PLDI 2018): a hash-array-mapped-trie
//! node design whose per-branch state is a multi-bit type tag, enabling a
//! single node to inline `1:1` tuples, reference nested `1:n` value sets and
//! point at sub-tries — with popcount-indexed dense storage and no dynamic
//! type checks on the hot path.
//!
//! # The types
//!
//! | type | paper role |
//! |---|---|
//! | [`AxiomMultiMap`] | the headline multi-map (§3-4): singletons inlined, larger value sets nested |
//! | [`AxiomFusedMultiMap`] | the §4.4 *fusion* variant: small value sets stored flat in the slot |
//! | [`AxiomMap`] | AXIOM as a plain map (§5, measured against CHAMP) |
//! | [`AxiomSet`] | AXIOM as a set; also the nested-set substrate |
//! | [`bitmap::SlotBitmap`] | the reusable 2-bit-tag encoding (§3.1-3.4, Listings 2-3) |
//!
//! All collections are persistent: updates return new versions that share
//! structure with their ancestors, and handles are cheap to clone and
//! `Send + Sync` for element types that are.
//!
//! # Quick start
//!
//! ```
//! use axiom::AxiomMultiMap;
//!
//! // A dependence relation: mostly 1:1 with a few 1:n exceptions.
//! let deps = AxiomMultiMap::<&str, &str>::new()
//!     .inserted("parser", "lexer")
//!     .inserted("typeck", "parser")
//!     .inserted("codegen", "typeck")
//!     .inserted("codegen", "layout"); // codegen promotes to 1:n
//!
//! assert_eq!(deps.tuple_count(), 4);
//! assert_eq!(deps.key_count(), 3);
//! assert_eq!(deps.value_count(&"codegen"), 2);
//!
//! // Persistence: removing from a new version leaves the old one intact.
//! let pruned = deps.key_removed(&"codegen");
//! assert_eq!(pruned.key_count(), 2);
//! assert_eq!(deps.key_count(), 3);
//! ```

#![warn(missing_docs)]

pub mod bag;
pub mod bitmap;
pub mod map;
pub mod multimap;
pub mod set;

mod heap;
mod ops;
#[cfg(feature = "serde")]
mod serde_impls;
mod snapshot;

pub use bag::{FusedBag, ValueBag, FUSE_MAX};
pub use map::AxiomMap;
pub use multimap::{AxiomMultiMap, BindingRef};
pub use set::AxiomSet;

/// The paper's §4.4 fusion variant: identical algorithms to
/// [`AxiomMultiMap`], but `1:n` value collections of up to
/// [`FUSE_MAX`] elements are stored as one flat slice reached directly from
/// the trie slot (fewer indirections, no nested-set wrapper).
pub type AxiomFusedMultiMap<K, V> = AxiomMultiMap<K, V, FusedBag<V>>;
