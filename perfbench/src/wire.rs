//! The two wire workloads, `feed_read` and `ingest_write`: the server
//! runs in this process with the shipped defaults, and one connection
//! carries the whole load from the driver in [`crate::driver`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use axiom::AxiomMultiMap;
use heapmodel::{Accounting, RustFootprint};
use serving::{Engine, EngineConfig, MultiMapRead, Server, ServerConfig};
use trie_common::ops::{MultiMapEdit, TransientOps};
use workloads::concurrent::{
    interleave_script, serving_workload, KeyMix, ReadProbe, ServingProfile,
};

use crate::driver::{encode_script, Conn, Edit, Op, Pacing, PhaseRun, Read, Request};
use crate::ledger::{render_table, sample_mask, served_layers, Row, Served, Store};
use crate::report::{push_tail, Metric, Report};
use crate::stats::{count_failed, failed_frac, median, per_second, per_second_rates, tail};
use crate::trace::Recorder;
use crate::Traced;

/// Requests kept outstanding by the closed-loop phases: a front end with
/// 16 callers, each waiting on its reply.
pub const WINDOW: usize = 16;
/// The paced phase's fixed send rate (requests/s): about a quarter of
/// the windowed capacity of `feed_read` (~56k read batches/s, ~59k
/// requests/s on a quiet 2-CPU VM; ~45k when other tenants load the
/// host). At half capacity the paced latencies moved by ±25 % between
/// runs on that VM, wider than any bound the benchmark may set.
pub const PACED_RATE: f64 = 14_000.0;
/// The read p99 (µs, from due time) that [`PACED_RATE`] met there.
pub const READ_P99_LIMIT_US: f64 = 2_000.0;
/// Rate of the short paced phase that measures the generator's lateness
/// on workloads without a paced phase of their own (traced runs only).
const LATENESS_RATE: f64 = 2_000.0;
/// Set-ups per run; `setup_s` is their median. The in-cache build of
/// `ingest_write` takes milliseconds, so it is repeated more often.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::FeedRead => 5,
        Kind::IngestWrite => 15,
    }
}
/// Untimed closed-loop traffic before the measured phases.
const WARMUP_SECS: f64 = 1.0;

/// Which wire workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-mostly traffic on a 1M-key store restored from a snapshot.
    FeedRead,
    /// Write-heavy traffic on a 16k-key store built in place.
    IngestWrite,
}

impl Kind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FeedRead => "feed_read",
            Kind::IngestWrite => "ingest_write",
        }
    }

    fn profile(self) -> ServingProfile {
        let (keys, read_batches, write_batches) = match self {
            Kind::FeedRead => (1_000_000, 32_768, 2_048),
            Kind::IngestWrite => (16_384, 1_024, 4_096),
        };
        ServingProfile {
            keys,
            read_batches,
            reads_per_batch: 8,
            write_batches,
            writes_per_batch: 32,
            mix: KeyMix::Zipf { exponent: 1.0 },
            fanout_every: 16,
            fanout_width: 8,
        }
    }
}

fn to_read(probe: &ReadProbe) -> Read {
    match probe {
        ReadProbe::ValuesOf(k) => MultiMapRead::ValuesOf(*k),
        ReadProbe::ContainsKey(k) => MultiMapRead::ContainsKey(*k),
        ReadProbe::FanOut(ks) => MultiMapRead::FanOut(ks.clone()),
    }
}

/// A running server with the driver's connection to it.
pub struct Live {
    store: Arc<Store>,
    engine: Arc<Engine<Store>>,
    server: Server,
    conn: Conn,
}

impl Live {
    /// Serves `store` with the shipped defaults and connects the driver.
    pub fn spawn(store: Store) -> Result<Live, String> {
        let store = Arc::new(store);
        let engine = Arc::new(Engine::with_config(
            Arc::clone(&store),
            EngineConfig::default(),
        ));
        let server =
            Server::spawn_with(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
        let conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Live {
            store,
            engine,
            server,
            conn,
        })
    }

    /// Closes the connection, then stops the server and joins its threads.
    pub fn shut(self) {
        drop(self.conn);
        self.server.shutdown();
    }

    /// One phase; a connection left with unread replies is replaced.
    pub fn phase(
        &mut self,
        script: &[Request],
        pacing: Pacing,
        secs: f64,
        traced: Option<(Instant, &[bool])>,
    ) -> Result<PhaseRun, String> {
        let run = self.conn.run_phase(script, pacing, secs, traced)?;
        if run.desynced {
            self.conn = Conn::connect(self.server.local_addr()).map_err(|e| e.to_string())?;
        }
        Ok(run)
    }
}

/// Read and write figures of one phase, or of several slices of one.
#[derive(Default)]
struct PhaseStats {
    /// Completed read batches in each whole second.
    read_rates: Vec<f64>,
    /// Acked edits in each whole second.
    edit_rates: Vec<f64>,
    /// Read latencies grouped by the second they were due in.
    read_ns: Vec<Vec<f64>>,
    /// Write latencies grouped by the second they were due in.
    write_ns: Vec<Vec<f64>>,
    late_ns: Vec<f64>,
    /// Process CPU time (server and driver).
    cpu_s: f64,
    reads: u64,
    edits: u64,
    attempted: u64,
    failed: u64,
}

impl PhaseStats {
    fn of(script: &[Request], run: &PhaseRun) -> PhaseStats {
        let mut read_done = Vec::new();
        let mut edits_done = Vec::new();
        let mut read_ns = Vec::new();
        let mut write_ns = Vec::new();
        for o in run.outcomes.iter().filter(|o| !o.rec.failed()) {
            let (recv, lat) = (
                o.rec.recv_ns.expect("answered"),
                o.rec.latency_ns().expect("answered") as f64,
            );
            match &script[o.idx].op {
                Op::Read(_) => {
                    read_done.push((recv, 1));
                    read_ns.push((o.rec.due_ns, lat));
                }
                Op::Write(edits) => {
                    edits_done.push((recv, edits.len() as u64));
                    write_ns.push((o.rec.due_ns, lat));
                }
            }
        }
        PhaseStats {
            read_rates: per_second_rates(&read_done, run.secs),
            edit_rates: per_second_rates(&edits_done, run.secs),
            read_ns: per_second(&read_ns, run.secs),
            write_ns: per_second(&write_ns, run.secs),
            late_ns: run
                .outcomes
                .iter()
                .map(|o| o.rec.late_ns() as f64)
                .collect(),
            cpu_s: run.cpu_s,
            reads: read_done.len() as u64,
            edits: edits_done.iter().map(|&(_, n)| n).sum(),
            attempted: run.outcomes.len() as u64,
            failed: count_failed(run.outcomes.iter().map(|o| &o.rec)),
        }
    }

    /// Adds another slice of the same phase.
    fn absorb(&mut self, other: PhaseStats) {
        self.read_rates.extend(other.read_rates);
        self.edit_rates.extend(other.edit_rates);
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.late_ns.extend(other.late_ns);
        self.cpu_s += other.cpu_s;
        self.reads += other.reads;
        self.edits += other.edits;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn reads_per_s(&self) -> f64 {
        median(&self.read_rates).unwrap_or(0.0)
    }

    fn edits_per_s(&self) -> f64 {
        median(&self.edit_rates).unwrap_or(0.0)
    }
}

/// Runs one wire workload.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: Option<&mut Traced>,
) -> Result<Report, String> {
    let profile = kind.profile();
    let w = serving_workload(&profile, seed);
    let reads = w
        .read_batches
        .iter()
        .map(|b| b.iter().map(to_read).collect::<Vec<_>>());
    let writes = w.write_batches.iter().cloned();
    let ops = match kind {
        Kind::FeedRead => interleave_script(reads, writes, 16, Op::Read, Op::Write),
        Kind::IngestWrite => interleave_script(writes, reads, 4, Op::Write, Op::Read),
    };
    let script = encode_script(ops);
    let shards = sharded::default_shard_count();

    // Set-up, several times; the last one serves the run.
    let snapshot = match kind {
        Kind::FeedRead => Some(
            Store::build_parallel(shards, w.base.iter().copied())
                .save_snapshot()
                .map_err(|e| format!("save: {e}"))?,
        ),
        Kind::IngestWrite => None,
    };
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..setup_reps(kind) {
        if let Some(prev) = live.take() {
            prev.shut();
        }
        let t = Instant::now();
        let store = match &snapshot {
            Some(bytes) => Store::load_snapshot(bytes, shards).map_err(|e| format!("load: {e}"))?,
            None => Store::build_parallel(shards, w.base.iter().copied()),
        };
        live = Some(Live::spawn(store)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    let mut report = Report {
        env: crate::environment(seed),
        ..Report::default()
    };
    report.env.push(("keys".into(), profile.keys.to_string()));
    report
        .env
        .push(("base_tuples".into(), w.base.len().to_string()));
    report.printed.push(Metric::new(
        "setup_s",
        "s",
        median(&setups).expect("set-ups ran"),
        format!(
            "median of {}: {}",
            setup_reps(kind),
            match kind {
                Kind::FeedRead => "load_snapshot + spawn + connect",
                Kind::IngestWrite => "build_parallel + spawn + connect",
            }
        ),
    ));

    live.phase(&script, Pacing::Window(WINDOW), WARMUP_SECS, None)?;
    match traced {
        None => {
            let phases = measured_phases(&plan(kind, seconds), &mut live, &script, None)?;
            headline(kind, &phases, &mut report);
        }
        Some(tr) => {
            let sampled = sample_mask(&script);
            // Untraced, then traced: the difference is the tracing cost.
            let window = [("windowed", Pacing::Window(WINDOW), seconds / 3.0)];
            let plain = measured_phases(&window, &mut live, &script, None)?;
            let with = measured_phases(
                &plan(kind, seconds * 2.0 / 3.0),
                &mut live,
                &script,
                Some((&mut *tr, &sampled)),
            )?;
            tally(&plain, &mut report);
            headline(kind, &with, &mut report);
            let (key, rate): (&str, fn(&PhaseStats) -> f64) = match kind {
                Kind::FeedRead => ("reads_per_s", PhaseStats::reads_per_s),
                Kind::IngestWrite => ("edits_per_s", PhaseStats::edits_per_s),
            };
            let (a, b) = (rate(&plain[0].1), rate(&with[0].1));
            tr.metrics.push(Metric::new(
                "trace.overhead_frac",
                "ratio",
                (a - b) / a,
                format!("windowed {key}: untraced {a:.1}, traced {b:.1}"),
            ));
            let late = match kind {
                Kind::FeedRead => with
                    .iter()
                    .find(|(n, _)| *n == "paced")
                    .map(|(_, s)| s.late_ns.clone()),
                Kind::IngestWrite => None,
            };
            serve_ledger(tr, &mut live, &script, &sampled, late, kind.name())?;
            let (built, ns) =
                time_once(|| AxiomMultiMap::<u32, u32>::built_from(w.base.iter().copied()));
            drop(built);
            tr.metrics.push(Metric::new(
                "axiom.build_ns_per_tuple",
                "ns",
                ns / w.base.len() as f64,
                "transient bulk build of the base relation",
            ));
            tr.metrics.push(crate::dominators::side_fixpoint(seed));
        }
    }

    // Untimed: replay the whole write script once more. The script is
    // idempotent over any state its own edits reach, so the final state
    // (and its heap) is the same whatever the phases managed to send.
    let tickets: Vec<_> = w
        .write_batches
        .iter()
        .map(|b| live.engine.stage(b.iter().cloned()))
        .collect();
    for t in tickets {
        t.wait().map_err(|e| format!("replay: {e}"))?;
    }
    let snap = live.store.snapshot();
    let mut acc = Accounting::new();
    for i in 0..snap.shard_count() {
        snap.shard(i).rust_footprint(&mut acc);
    }
    report.printed.push(Metric::new(
        "heap_bytes_per_tuple",
        "B",
        acc.footprint.total() as f64 / snap.tuple_count() as f64,
        format!(
            "RustFootprint over {} shards, {} tuples, after one more script replay",
            snap.shard_count(),
            snap.tuple_count()
        ),
    ));
    check_model(&w.base, &w.write_batches, &live.engine)?;
    live.shut();
    Ok(report)
}

type Phases = Vec<(&'static str, PhaseStats)>;

/// The measured phases of a workload, `seconds` in all. `feed_read`
/// alternates windowed and paced slices of about 3 s and 1 s, so a slow
/// spell of the host lands on both phases alike.
fn plan(kind: Kind, seconds: f64) -> Vec<(&'static str, Pacing, f64)> {
    match kind {
        Kind::FeedRead => {
            let slices = (seconds / 4.0).round().max(1.0);
            let slice = seconds / slices;
            let pair = [
                ("windowed", Pacing::Window(WINDOW), slice * 0.75),
                ("paced", Pacing::Rate(PACED_RATE), slice * 0.25),
            ];
            pair.iter()
                .copied()
                .cycle()
                .take(2 * slices as usize)
                .collect()
        }
        Kind::IngestWrite => vec![("windowed", Pacing::Window(WINDOW), seconds)],
    }
}

/// Runs the phases of `plan` (name, pacing, seconds) in order, merging
/// the slices of each named phase.
fn measured_phases(
    plan: &[(&'static str, Pacing, f64)],
    live: &mut Live,
    script: &[Request],
    traced: Option<(&mut Traced, &[bool])>,
) -> Result<Phases, String> {
    let mut traced = traced;
    let mut out: Phases = Vec::new();
    for &(name, pacing, secs) in plan {
        let marks = traced.as_ref().map(|(tr, sampled)| (tr.origin, *sampled));
        let run = live.phase(script, pacing, secs, marks)?;
        let stats = PhaseStats::of(script, &run);
        match out.iter_mut().find(|(n, _)| *n == name) {
            Some((_, merged)) => merged.absorb(stats),
            None => out.push((name, stats)),
        }
        if let (Some((tr, _)), Some(rec)) = (traced.as_mut(), run.spans) {
            tr.absorb(rec);
        }
    }
    Ok(out)
}

/// Adds the phases' attempted and failed requests to the report.
fn tally(phases: &Phases, report: &mut Report) {
    for (_, stats) in phases {
        report.attempted += stats.attempted;
        report.failed += stats.failed;
    }
}

/// The printed metrics of the measured phases, by name; `failed_frac`
/// covers every phase tallied into the report.
fn headline(kind: Kind, phases: &Phases, report: &mut Report) {
    tally(phases, report);
    let (attempted, failed) = (report.attempted, report.failed);
    let get = |n: &str| &phases.iter().find(|(p, _)| *p == n).expect("phase ran").1;
    let win = get("windowed");
    let out = &mut report.printed;
    out.push(Metric::new(
        "reads_per_s",
        "1/s",
        win.reads_per_s(),
        "windowed, median of whole seconds",
    ));
    out.push(Metric::new(
        "edits_per_s",
        "1/s",
        win.edits_per_s(),
        "windowed, acked edits, median of whole seconds",
    ));
    out.push(Metric::new(
        "cpu_us_per_read",
        "us",
        win.cpu_s * 1e6 / win.reads.max(1) as f64,
        "windowed, process CPU time (server and driver) per read batch",
    ));
    out.push(Metric::new(
        "cpu_us_per_edit",
        "us",
        win.cpu_s * 1e6 / win.edits.max(1) as f64,
        "windowed, process CPU time (server and driver) per acked edit",
    ));
    match kind {
        Kind::FeedRead => {
            let paced = get("paced");
            push_tail(out, "read", &paced.read_ns, "paced, from due time");
            push_tail(out, "write", &paced.write_ns, "paced, from due time");
            if let Some(p99) = out.iter_mut().find(|m| m.name == "read_p99_us") {
                let met = p99.value <= READ_P99_LIMIT_US;
                p99.note
                    .push_str(&format!(", limit {READ_P99_LIMIT_US} us met: {met}"));
            }
        }
        Kind::IngestWrite => {
            push_tail(out, "read", &win.read_ns, "windowed");
            push_tail(out, "write", &win.write_ns, "windowed");
        }
    }
    out.push(Metric::new(
        "failed_frac",
        "ratio",
        failed_frac(failed, attempted),
        format!("{failed} of {attempted} refused or unanswered"),
    ));
}

fn push_late(out: &mut Vec<Metric>, late_ns: &[f64], source: String) {
    let t = tail(late_ns);
    let p99 = t.and_then(|t| t.p99).map_or(0.0, |q| q.value);
    let max = late_ns.iter().cloned().fold(0.0, f64::max);
    out.push(Metric::new("driver.late_p99_ms", "ms", p99 / 1e6, &source));
    out.push(Metric::new("driver.late_max_ms", "ms", max / 1e6, source));
}

/// After the run: every key the write script touches, plus a fixed
/// stride of base keys, must hold exactly what a `BTreeMap` model of
/// "base, then the write script" holds.
fn check_model(
    base: &[(u32, u32)],
    writes: &[Vec<Edit>],
    engine: &Engine<Store>,
) -> Result<(), String> {
    let mut sample: BTreeSet<u32> = writes.iter().flatten().map(|e| *e.key()).collect();
    sample.extend(
        base.iter()
            .step_by((base.len() / 2048).max(1))
            .map(|(k, _)| *k),
    );
    let mut model: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for (k, v) in base {
        if sample.contains(k) {
            model.entry(*k).or_default().insert(*v);
        }
    }
    for edit in writes.iter().flatten() {
        match edit {
            MultiMapEdit::Insert(k, v) => {
                model.entry(*k).or_default().insert(*v);
            }
            MultiMapEdit::RemoveTuple(k, v) => {
                if let Some(vs) = model.get_mut(k) {
                    vs.remove(v);
                    if vs.is_empty() {
                        model.remove(k);
                    }
                }
            }
            MultiMapEdit::RemoveKey(k) => {
                model.remove(k);
            }
        }
    }
    let keys: Vec<u32> = sample.into_iter().collect();
    for chunk in keys.chunks(64) {
        let ops: Vec<Read> = chunk.iter().map(|k| MultiMapRead::ValuesOf(*k)).collect();
        let reply = engine.execute(&ops);
        for (k, r) in chunk.iter().zip(reply.replies) {
            let got: BTreeSet<u32> = r
                .into_values()
                .map_err(|e| format!("model check: {e}"))?
                .into_iter()
                .collect();
            let want = model.get(k).cloned().unwrap_or_default();
            if got != want {
                return Err(format!(
                    "model check: key {k} holds {:?}, the model {:?}",
                    got, want
                ));
            }
        }
    }
    Ok(())
}

/// Times one call, in ns.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// The traced run's ledger over a live server: generator lateness (from
/// `late_ns`, or a short paced phase of its own), the engine's counters,
/// the per-layer replays, and the layer table with the driver's row.
pub fn serve_ledger(
    tr: &mut Traced,
    live: &mut Live,
    script: &[Request],
    sampled: &[bool],
    late_ns: Option<Vec<f64>>,
    workload: &str,
) -> Result<(), String> {
    let (late_ns, source) = match late_ns {
        Some(late) => (late, format!("paced phase at {PACED_RATE}/s")),
        None => {
            let run = live.phase(script, Pacing::Rate(LATENESS_RATE), 1.0, None)?;
            (
                PhaseStats::of(script, &run).late_ns,
                format!("1 s paced at {LATENESS_RATE}/s"),
            )
        }
    };
    push_late(&mut tr.metrics, &late_ns, source);

    let stats = live.engine.stats();
    tr.metrics.push(Metric::new(
        "serving.engine.commits_per_write_batch",
        "ratio",
        stats.applier_commits as f64 / stats.write_batches.max(1) as f64,
        format!(
            "{} applier commits / {} write batches",
            stats.applier_commits, stats.write_batches
        ),
    ));
    tr.metrics.push(Metric::new(
        "serving.engine.shed_ops",
        "count",
        (stats.shed_reads + stats.shed_writes) as f64,
        "Stats op",
    ));
    tr.metrics.push(Metric::new(
        "serving.engine.faulted_ops",
        "count",
        (stats.read_faults + stats.write_faults) as f64,
        "Stats op",
    ));

    // The driver's own row: sampled reads under load, from due time.
    let driver_reads: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.layer == "driver" && s.name == "read")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let rec = Recorder::new(tr.origin);
    let served = Served {
        store: &live.store,
        engine: &live.engine,
        addr: live.server.local_addr(),
        script,
        sampled,
    };
    let (metrics, rows) = served_layers(&rec, &served)?;
    tr.absorb(rec);
    tr.metrics.extend(metrics);
    let wire = rows
        .iter()
        .find(|r| r.layer == "serving.net")
        .map_or(1.0, |r| r.inclusive_ns);
    let driver = median(&driver_reads).unwrap_or(0.0);
    let mut table = vec![Row::new("driver (under load)", driver, driver - wire)];
    table.extend(rows);
    tr.table = render_table(workload, &table, wire);
    Ok(())
}
