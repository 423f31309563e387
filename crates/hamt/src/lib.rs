//! **HAMT** — the classic hash-array-mapped-trie baselines (Bagwell 2001),
//! in the two flavours the AXIOM paper compares against.
//!
//! * [`HamtMap`] / [`HamtSet`] — Clojure-flavoured: a single 32-bit bitmap,
//!   dynamically discriminated slots (the `instanceof` of paper Figure 2a)
//!   and *non-canonicalizing* deletion. These are the substrate of the
//!   idiomatic Clojure multi-map (Figure 4's baseline).
//! * [`MemoHamtMap`] / [`MemoHamtSet`] — Scala-flavoured: entries memoize
//!   their full 32-bit hash (fast negative lookups — the reason AXIOM loses
//!   `Lookup (Fail)` in Figure 5) and deletion canonicalizes. Substrate of
//!   the idiomatic Scala multi-map.
//!
//! Both flavours run one node walk, parameterised by the leaf: lookup,
//! insert, iteration, the structural `diff` of [`trie_common::algebra`], the
//! native footprint walk and the harness traits exist once, and only the
//! leaf (memoized hash or not) and the deletion shape rule differ.
//!
//! # Examples
//!
//! ```
//! use hamt::{HamtMap, MemoHamtMap};
//!
//! let clojure_style: HamtMap<u32, &str> = [(1, "a")].into_iter().collect();
//! let scala_style: MemoHamtMap<u32, &str> = [(1, "a")].into_iter().collect();
//! assert_eq!(clojure_style.get(&1), scala_style.get(&1));
//! ```

#![warn(missing_docs)]

pub mod map;
pub mod memo;
pub mod set;

mod heap;
mod ops;
mod snapshot;
mod trie;

pub use heap::{map_jvm_with, map_rust_with, nested_set_jvm, nested_set_rust, EntryAccount};
pub use map::HamtMap;
pub use memo::MemoHamtMap;
pub use set::{HamtSet, MemoHamtSet};
