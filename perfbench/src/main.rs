//! The repository's benchmark: the served AXIOM multi-map end to end, and
//! layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <feed_read|ingest_write|dominators|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics of `BENCHMARK.json`
//! with `--trace 0`, its per-layer metrics with `--trace 1`). A wrong
//! answer exits non-zero without a result. Results, spans and the layer
//! table are also written under `perfbench/out/`.

mod dominators;
mod driver;
mod ledger;
mod report;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::Instant;

use report::{Metric, Report};
use trace::{Recorder, Span};

/// The end-to-end metrics, in `BENCHMARK.json`'s order, and the printed
/// metric each workload reports under each name.
const END_TO_END: [(&str, [&str; 3]); 4] = [
    ("setup_s", ["setup_s", "setup_s", "setup_s"]),
    (
        "throughput_per_s",
        ["reads_per_s", "edits_per_s", "cfgs_per_s"],
    ),
    ("p50_us", ["read_p50_us", "write_p50_us", "fixpoint_p50_us"]),
    (
        "heap_bytes_per_tuple",
        [
            "heap_bytes_per_tuple",
            "heap_bytes_per_tuple",
            "heap_bytes_per_tuple",
        ],
    ),
];

/// The per-layer metrics, in `BENCHMARK.json`'s order.
const PER_LAYER: [&str; 25] = [
    "axiom.probe_ns",
    "axiom.build_ns_per_tuple",
    "sharded.pin_ns",
    "sharded.probe_ns",
    "sharded.apply_us",
    "sharded.restore_ns_per_tuple",
    "sharded.snapshot_bytes_per_tuple",
    "serving.engine.execute_us",
    "serving.engine.submit_us",
    "serving.engine.stage_us",
    "serving.engine.commits_per_write_batch",
    "serving.engine.shed_ops",
    "serving.engine.faulted_ops",
    "serving.proto.encode_ns",
    "serving.proto.decode_ns",
    "serving.proto.request_bytes",
    "serving.proto.reply_bytes",
    "serving.net.rtt_us",
    "serving.net.windowed_us_per_req",
    "serving.net.wire_us",
    "serving.net.residual_us",
    "cfg_analysis.fixpoint_us_per_cfg",
    "driver.late_p99_ms",
    "driver.late_max_ms",
    "trace.overhead_frac",
];

const WORKLOADS: [&str; 3] = ["feed_read", "ingest_write", "dominators"];

/// What a traced run collects besides the end-to-end report.
pub struct Traced {
    /// Time origin of every span.
    pub origin: Instant,
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// The rendered layer table.
    pub table: String,
}

impl Traced {
    /// Merges a recorder's spans, renumbering them after the ones held.
    pub fn absorb(&mut self, rec: Recorder) {
        let offset = self.spans.len() as u64;
        self.spans.extend(rec.take(offset));
    }
}

/// The settings every result records: seed, CPUs, the shipped serving
/// defaults the wire workloads run with, the driver's window and paced
/// rate, and the commit.
pub fn environment(seed: u64) -> Vec<(String, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("seed".into(), seed.to_string()),
        ("cpus".into(), cpus.to_string()),
        ("shards".into(), sharded::default_shard_count().to_string()),
        (
            "read_workers".into(),
            serving::EngineConfig::default().read_workers.to_string(),
        ),
        ("window".into(), wire::WINDOW.to_string()),
        ("paced_rate".into(), wire::PACED_RATE.to_string()),
        (
            "read_p99_limit_us".into(),
            wire::READ_P99_LIMIT_US.to_string(),
        ),
        ("commit".into(), git_commit()),
    ]
}

/// CPU time this process has used so far, all threads, in seconds (from
/// `/proc/self/stat`, whose times count in units of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The repository's commit when run from a git checkout, else `unknown`.
fn git_commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload and returns its result line.
fn run_one(workload: &str, a: &Args) -> Result<String, String> {
    let which = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .ok_or_else(|| {
            format!("unknown workload {workload} (expected one of {WORKLOADS:?} or all)")
        })?;
    let mut traced = a.trace.then(|| Traced {
        origin: Instant::now(),
        metrics: Vec::new(),
        spans: Vec::new(),
        table: String::new(),
    });
    let mut report: Report = match which {
        0 => wire::run(wire::Kind::FeedRead, a.seed, a.seconds, traced.as_mut())?,
        1 => wire::run(wire::Kind::IngestWrite, a.seed, a.seconds, traced.as_mut())?,
        _ => dominators::run(a.seed, a.seconds, traced.as_mut())?,
    };
    report
        .env
        .push(("trace".into(), u8::from(a.trace).to_string()));
    let out = repo_root().join("perfbench").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stem = format!("{workload}-seed{}-trace{}", a.seed, u8::from(a.trace));
    match traced {
        None => {
            for (name, sources) in END_TO_END {
                report.gate(name, sources[which])?;
            }
        }
        Some(tr) => {
            report
                .env
                .push(("spans".into(), tr.spans.len().to_string()));
            for name in PER_LAYER {
                let m = tr
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
                report.gated.push(m.clone());
            }
            let spans = out.join(format!("{stem}.spans.jsonl"));
            trace::write_spans(&spans, workload, &tr.spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            let table = out.join(format!("{stem}.layers.txt"));
            std::fs::write(&table, &tr.table).map_err(|e| format!("{}: {e}", table.display()))?;
            print!("{}", tr.table);
        }
    }
    print!("{}", report.render(workload));
    let record = out.join(format!("{stem}.json"));
    std::fs::write(&record, report.record_json(workload))
        .map_err(|e| format!("{}: {e}", record.display()))?;
    Ok(report.json(true))
}

fn main() {
    let result = parse_args().and_then(|a| {
        let workloads: Vec<&str> = match a.workload.as_str() {
            "all" => WORKLOADS.to_vec(),
            w => vec![w],
        };
        let mut last = String::new();
        for w in workloads {
            last = run_one(w, &a)?;
            println!("{last}");
        }
        Ok(last)
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
