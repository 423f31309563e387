//! Quickstart: the AXIOM persistent multi-map in five minutes.
//!
//! Run with `cargo run --example quickstart`.

use axiom_repro::axiom::{AxiomMultiMap, BindingRef};
use axiom_repro::heapmodel::{JvmArch, JvmFootprint, LayoutPolicy, RustFootprint};

fn main() {
    // A multi-map holds a binary relation: keys may map to one value
    // (stored inline, no nested collection) or to many (a nested set).
    let mut imports = AxiomMultiMap::<&str, &str>::new();
    imports.insert_mut("parser", "lexer");
    imports.insert_mut("typeck", "parser");
    imports.insert_mut("codegen", "typeck");
    imports.insert_mut("codegen", "layout"); // "codegen" promotes to 1:n

    println!(
        "relation: {} tuples over {} keys",
        imports.tuple_count(),
        imports.key_count()
    );

    // `get` exposes whether a key is currently 1:1 or 1:n.
    match imports.get(&"codegen") {
        Some(BindingRef::Many(values)) => {
            let vs: Vec<_> = values.iter().collect();
            println!("codegen -> {vs:?} (nested set)");
        }
        Some(BindingRef::One(v)) => println!("codegen -> {v} (inlined)"),
        None => println!("codegen has no deps"),
    }

    // Updates are persistent: old versions stay valid and share structure.
    let before = imports.clone();
    let after = imports.tuple_removed(&"codegen", &"layout"); // demotes to 1:1
    assert_eq!(before.value_count(&"codegen"), 2);
    assert_eq!(after.value_count(&"codegen"), 1);
    println!(
        "after removing one dep: codegen is inlined again: {}",
        matches!(after.get(&"codegen"), Some(BindingRef::One(_)))
    );

    // Iterate the flattened relation or just the keys.
    let mut tuples: Vec<(&str, &str)> = imports.iter().map(|(k, v)| (*k, *v)).collect();
    tuples.sort();
    println!("tuples: {tuples:?}");

    // Footprint introspection: modeled JVM bytes (the paper's metric) and
    // actual Rust heap bytes.
    let big: AxiomMultiMap<u32, u32> = (0..10_000u32)
        .flat_map(|k| {
            let second = (k % 2 == 0).then_some((k, k + 1_000_000));
            std::iter::once((k, k)).chain(second)
        })
        .collect();
    let fp = big.jvm_bytes(&JvmArch::COMPRESSED_OOPS, &LayoutPolicy::BASELINE);
    println!(
        "10k keys / {} tuples: modeled JVM structure {} B ({:.2} B/tuple), native Rust {} B",
        big.tuple_count(),
        fp.structure,
        fp.overhead_per_tuple(big.tuple_count()),
        big.rust_bytes()
    );
}
