//! Machine-readable benchmark for the structural set algebra
//! (`BENCH_setops.json` at the repository root): `union` and `diff`
//! medians on three operand shapes, each against the documented
//! element-wise fallback.
//!
//! The shapes bracket the sharing spectrum:
//!
//! * `identical` — the second operand is a clone of the first: both roots
//!   are pointer-equal, so the structural walk returns without visiting a
//!   single node (the zero-allocation fast path).
//! * `divergent1pct` — the second operand is the first, frozen, then
//!   edited in 1% of its elements: the regime the algebra is built for.
//!   The lockstep walk prices only the divergent spine, O(changed).
//! * `disjoint` — no shared structure at all: the structural walk's worst
//!   case, where it degenerates to the same O(n + m) as element-wise (it
//!   merges nodes instead of probing elements, so it typically still wins,
//!   but no 10x is claimed here).
//!
//! Knobs via environment (see [`paper_bench::report::Run`]):
//!
//! * `AXIOM_SETOPS_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the 1M-element numbers checked into the repository);
//! * `AXIOM_SETOPS_OUT` — output path (default `BENCH_setops.json`; `-`
//!   for stdout only);
//! * `AXIOM_SETOPS_GATE` — when set, exit nonzero unless at the largest
//!   size, on the `divergent1pct` shape, the structural `diff` beats its
//!   element-wise fallback by at least `MIN_DIFF_SPEEDUP` (10.0) and the
//!   structural `union` by at least `MIN_UNION_SPEEDUP` (2.5).
//!
//! Each time is the median of per-round medians
//! ([`paper_bench::report::interleaved_median_ns`]): a round times the
//! four walks of one shape in turn, so a speedup divides times taken under
//! the same host load, and a round that load spoiled does not move the
//! median.

use axiom::AxiomSet;
use champ::ChampSet;
use paper_bench::report::{interleaved_median_ns, Gate, Profile, Report, Row, Run};
use trie_common::ops::{SetDiff, SetOps};

/// Gate: structural `diff` over the element-wise fallback on 1%-divergent
/// operands at the largest size.
const MIN_DIFF_SPEEDUP: f64 = 10.0;

/// Gate: structural `union` over the element-wise fallback on the same
/// operands. The bars differ because `diff` only *reports* the divergence
/// while `union` must also *build* the result — path-copying ~10k
/// scattered divergent paths is real work no walk can skip, so union's
/// honest ceiling on this shape is a few-fold, while diff's is bounded
/// only by the divergence.
const MIN_UNION_SPEEDUP: f64 = 2.5;

/// The documented element-wise `diff` fallback, reproduced here so the
/// structural implementation is measured against exactly what it replaced.
fn diff_elementwise<S: SetOps<u64>>(a: &S, b: &S) -> SetDiff<u64> {
    let mut out = SetDiff::new();
    for v in b.iter() {
        if !a.contains(v) {
            out.added.push(*v);
        }
    }
    for v in a.iter() {
        if !b.contains(v) {
            out.removed.push(*v);
        }
    }
    out
}

/// Builds the three operand shapes at size `n` for one set type, via the
/// same closure-driven plumbing for both tries.
macro_rules! bench_set_impl {
    ($name:literal, $ty:ty, $n:expr, $rounds:expr, $report:expr) => {{
        let n = $n as u64;
        let a: $ty = (0..n).collect();
        let shapes: [(&'static str, $ty); 3] = [
            ("identical", a.clone()),
            ("divergent1pct", {
                // Freeze, then rewrite 1% of the elements: remove an
                // existing member, insert a fresh one, spread across the
                // key space so the divergence touches many subtrees.
                let mut b = a.clone();
                let step = 100;
                for i in (0..n).step_by(step) {
                    b = b.removed(&i).inserted(n + i);
                }
                b
            }),
            ("disjoint", (n..2 * n).collect()),
        ];
        for (shape, b) in &shapes {
            let [structural_union, elementwise_union, structural_diff, elementwise_diff] =
                interleaved_median_ns(
                    $rounds.0,
                    $rounds.1,
                    [
                        &mut || a.union(b).len(),
                        &mut || a.union_elementwise(b).len(),
                        &mut || a.diff(b).len(),
                        &mut || diff_elementwise(&a, b).len(),
                    ],
                );
            for (op, s, e) in [
                ("union", structural_union, elementwise_union),
                ("diff", structural_diff, elementwise_diff),
            ] {
                eprintln!(
                    "  {} {op:5} {shape:13}: structural {s:9.0}ns, element-wise {e:11.0}ns, x{:.1}",
                    $name,
                    e / s
                );
                $report.push(
                    Row::new()
                        .str("impl", $name)
                        .str("op", op)
                        .str("shape", shape)
                        .int("n", $n)
                        .num("structural_median_ns", s, 0)
                        .num("elementwise_median_ns", e, 0)
                        .num("speedup", e / s, 2),
                );
            }
        }
    }};
}

fn main() {
    let run = Run::from_env("SETOPS");
    // Sizes, then (rounds, timings per round) of each walk.
    let (sizes, rounds) = match run.profile {
        Profile::Quick => (vec![65_536usize], (9, 3)),
        Profile::Thorough => (vec![65_536usize, 1_000_000], (5, 3)),
    };

    let mut report = Report::new("axiom-setops-v1", &run).about(
        "note",
        "structural = lockstep node walk skipping Arc-pointer-equal subtrees; element-wise = \
         the documented per-element fallback the algebra traits default to; divergent1pct = \
         operand frozen then 1% of elements rewritten",
    );
    for &n in &sizes {
        eprintln!("set algebra at {n} elements");
        bench_set_impl!("axiom", AxiomSet<u64>, n, rounds, report);
        bench_set_impl!("champ", ChampSet<u64>, n, rounds, report);
    }
    report.emit(&run);

    if run.gate.is_some() {
        let largest = sizes.iter().copied().max().expect("sizes nonempty") as f64;
        let mut gate = Gate::new();
        for imp in ["axiom", "champ"] {
            for (op, required) in [("union", MIN_UNION_SPEEDUP), ("diff", MIN_DIFF_SPEEDUP)] {
                let speedup = report
                    .find(|r| {
                        r.is("impl", imp)
                            && r.is("op", op)
                            && r.is("shape", "divergent1pct")
                            && r.num_of("n") == largest
                    })
                    .num_of("speedup");
                gate.check(
                    speedup >= required,
                    format!(
                        "{imp} structural {op} on divergent1pct at {largest}: x{speedup:.2} \
                         (required x{required:.2})"
                    ),
                );
            }
        }
        gate.finish();
    }
}
