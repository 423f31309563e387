//! Machine-readable benchmark for the snapshot persistence layer
//! (`BENCH_snapshot.json` at the repository root): save and restore a
//! sharded multi-map, sweeping the restore-side shard count, against the
//! fresh single-threaded transient build as the baseline.
//!
//! Every restore is verified against the scenario's probe oracle (present
//! tuples hit, partial matches stay partial, misses miss) and the expected
//! tuple count — a fast-but-wrong restore fails the run outright.
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_SNAPSHOT_PROFILE` — `quick` (CI smoke: the 100k-tuple
//!   instance) or `thorough` (default: checked-in numbers, up to ~1M
//!   tuples);
//! * `AXIOM_SNAPSHOT_OUT` — output path (default `BENCH_snapshot.json`;
//!   `-` for stdout only);
//! * `AXIOM_SNAPSHOT_GATE` — when set, exit nonzero unless at the largest
//!   size the 8-shard restore takes at most `MAX_RESTORE_FACTOR` (3.0)
//!   times the fresh transient build.

use axiom::AxiomMultiMap;
use paper_bench::report::{best_ns, die, Gate, Profile, Report, Row, Run};
use sharded::ShardedMultiMap;
use trie_common::snapshot::inspect;
use trie_common::snapshot::SnapshotRead;
use workloads::multimap_transient;
use workloads::snapshot::{snapshot_workload, verify_restore, SnapshotWorkload, SAVE_SHARDS};

const SEED: u64 = 11;

/// Gate: the 8-shard restore over the fresh transient build at the
/// largest size.
const MAX_RESTORE_FACTOR: f64 = 3.0;

type Mm = AxiomMultiMap<u32, u32>;
type Sharded = ShardedMultiMap<u32, u32>;

/// Probe-verifies a sharded restore with the same oracle
/// [`workloads::snapshot::verify_restore`] applies to plain restores
/// (hits present, partials stay partial, misses miss on both the key and
/// tuple axes).
fn verify_sharded(restored: &Sharded, w: &SnapshotWorkload) -> Result<(), String> {
    if restored.tuple_count() != w.tuples.len() {
        return Err(format!(
            "tuple count {} != expected {}",
            restored.tuple_count(),
            w.tuples.len()
        ));
    }
    let snap = restored.snapshot();
    for (k, v) in &w.probe_hits {
        if !snap.contains_tuple(k, v) {
            return Err(format!("lost tuple ({k}, {v})"));
        }
    }
    for (k, v) in &w.probe_partial {
        if !snap.contains_key(k) || snap.contains_tuple(k, v) {
            return Err(format!("partial probe ({k}, {v}) diverged"));
        }
    }
    for (k, v) in &w.probe_misses {
        if snap.contains_key(k) || snap.contains_tuple(k, v) {
            return Err(format!("invented key {k}"));
        }
    }
    Ok(())
}

/// Pushes the row of one size and returns its restore time at
/// `SAVE_SHARDS` shards over the fresh transient build.
fn bench_size(keys: usize, reps: usize, report: &mut Report) -> f64 {
    let w = snapshot_workload(keys, SEED);
    let items = w.tuples.len();
    eprintln!("snapshot round-trip at {keys} keys / {items} tuples");

    let fresh_build_ns = best_ns(reps, || multimap_transient::<Mm>(&w.tuples).tuple_count());

    let source = Sharded::build_parallel(SAVE_SHARDS, w.tuples.iter().copied());
    let save_ns = best_ns(reps, || source.save_snapshot().expect("save").len());
    let bytes = source.save_snapshot().expect("save");
    let info = inspect(&bytes).expect("framing validates");
    assert_eq!(info.items() as usize, items, "save lost tuples");

    // Cross-layer check through the canonical workloads oracle: the same
    // bytes must restore into a plain unsharded trie.
    let plain: Mm = Mm::read_snapshot(&bytes).expect("plain restore");
    if let Err(why) = verify_restore(&plain, &w) {
        die(format!(
            "plain restore of the sharded snapshot is corrupt: {why}"
        ));
    }

    let per = |ns: f64| ns / items as f64;
    let mut restores = Vec::new();
    let mut gated = None;
    for &shards in &w.restore_shards {
        let restore_ns = best_ns(reps, || {
            Sharded::load_snapshot(&bytes, shards)
                .expect("restore")
                .tuple_count()
        });
        let restored = Sharded::load_snapshot(&bytes, shards).expect("restore");
        if let Err(why) = verify_sharded(&restored, &w) {
            die(format!("restore at {shards} shards is corrupt: {why}"));
        }
        let vs_fresh_build = restore_ns / fresh_build_ns;
        eprintln!(
            "  restore at {shards} shard(s): x{vs_fresh_build:.2} of the fresh transient build"
        );
        if shards == SAVE_SHARDS {
            gated = Some(vs_fresh_build);
        }
        restores.push(
            Row::new()
                .int("shards", shards)
                .num("restore_ns_per_item", per(restore_ns), 2)
                .num("restore_vs_fresh_build", vs_fresh_build, 3),
        );
    }

    report.push(
        Row::new()
            .int("keys", keys)
            .int("items", items)
            .int("snapshot_bytes", bytes.len())
            .num("bytes_per_tuple", bytes.len() as f64 / items as f64, 2)
            .num("fresh_build_ns_per_item", per(fresh_build_ns), 2)
            .num("save_ns_per_item", per(save_ns), 2)
            .int("save_shards", SAVE_SHARDS)
            .rows("restores", restores),
    );
    gated.expect("8-shard restore measured")
}

fn main() {
    let run = Run::from_env("SNAPSHOT");
    // 66.7k keys at the 50/50 1:1/1:2 shape ≈ 100k tuples.
    let (sizes, reps) = match run.profile {
        Profile::Quick => (vec![66_700usize], 2),
        Profile::Thorough => (vec![66_700, 667_000], 3),
    };

    let mut report = Report::new("axiom-snapshot-v1", &run).seed(SEED).about(
        "note",
        format!(
            "save at {SAVE_SHARDS} shards (parallel per-shard encode); restores re-route \
             elements through the new partition and bulk-build via the transient protocol; \
             every restore is probe-verified before timing is reported"
        ),
    );
    let factors: Vec<f64> = sizes
        .iter()
        .map(|&keys| bench_size(keys, reps, &mut report))
        .collect();
    report.emit(&run);

    if run.gate.is_some() {
        let factor = *factors.last().expect("sizes nonempty");
        let largest = report.rows().last().expect("sizes nonempty");
        let mut gate = Gate::new();
        gate.check(
            factor <= MAX_RESTORE_FACTOR,
            format!(
                "8-shard restore of {} tuples is x{factor:.2} of a fresh transient build \
                 (allowed x{MAX_RESTORE_FACTOR:.2}); snapshot is {:.1} bytes/tuple",
                largest.num_of("items"),
                largest.num_of("bytes_per_tuple")
            ),
        );
        gate.finish();
    }
}
