//! **workloads** — paper-faithful workload generation and measurement.
//!
//! Four pieces drive every experiment in `paper-bench`:
//!
//! * [`data`] — the §4.3 random-data methodology: `2^x` sizes, five seeds
//!   per data point, skewed 50 %/50 % `1:1`/`1:2` multi-map distributions,
//!   100 % `1:1` map distributions, and 8-parameter operation bursts with
//!   full/partial/no matches;
//! * [`build`] — generic construction of the structures under test
//!   (persistent fold vs transient builder), written once against the
//!   [`trie_common::ops`] traits;
//! * [`concurrent`] — scenarios for the sharded layer: parallel bulk-build
//!   sizing and mixed read/write traffic (writer batch scripts + read
//!   probes);
//! * [`snapshot`] — save/restore scenarios for the persistence layer
//!   (sized relations plus hit/partial/miss probe oracles);
//! * `faults` (behind the `fault-injection` feature) — seeded chaos-plan
//!   generation for the fault-injection harness, so panic/delay storms are
//!   reproducible from a seed;
//! * [`timing`] — JMH-like warmup + measurement iterations with median/MAD
//!   statistics and box-plot-style ratio summaries;
//! * [`report`] — markdown table emission so the binaries regenerate the
//!   tables recorded in EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```
//! use workloads::data::multimap_workload;
//! use workloads::timing::{measure, BenchOptions};
//!
//! let w = multimap_workload(64, 11);
//! let stats = measure(&BenchOptions::QUICK, || w.tuples.iter().count());
//! assert!(stats.median_ns >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod concurrent;
pub mod data;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod report;
pub mod snapshot;
pub mod timing;

pub use build::{map_persistent, map_transient, multimap_persistent, multimap_transient};
pub use concurrent::{
    concurrent_workload, round_robin, serving_workload, ConcurrentWorkload, KeyMix, ReadProbe,
    ServingProfile, ServingWorkload, Zipf,
};
pub use data::{
    map_workload, multimap_workload, multimap_workload_with, size_sweep, MapWorkload,
    MultiMapWorkload, ValueDist, BURST, SEEDS,
};
pub use report::{expectation_line, fmt_bytes, fmt_ns, Table};
pub use snapshot::{snapshot_workload, verify_restore, SnapshotWorkload};
pub use timing::{measure, BenchOptions, RatioSummary, Stats};
