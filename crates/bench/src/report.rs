//! The plumbing every `*_json` binary shares: run settings from the
//! environment, the best-of / median-of timers and the percentile, the
//! `BENCH_*.json` writer and reader, and gate reporting.
//!
//! A binary reads its [`Run`], measures, pushes one [`Row`] per data
//! point into a [`Report`], [emits](Report::emit) it, and checks its
//! gates through one [`Gate`]. The statistics of the paper's §4.3
//! methodology (warmup, median + MAD) stay in [`workloads::timing`]; the
//! timers here are the whole-run ones for work too long to repeat in a
//! burst. Gate thresholds are constants next to each binary's gates.
//!
//! Every file records the machine it was measured on: `cpus` (the
//! available parallelism) and `target_popcnt` (whether the build target
//! has a hardware popcount, which the bitmap tries lean on).

use std::fmt::Display;
use std::time::Instant;

use serde_json::Value;

/// A measurement profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The CI smoke profile: small sizes, few repetitions.
    Quick,
    /// The default: the numbers checked into the repository.
    Thorough,
}

impl Profile {
    fn name(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Thorough => "thorough",
        }
    }
}

/// One binary's run settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// `AXIOM_<NAME>_PROFILE`: `quick` or `thorough` (the default).
    pub profile: Profile,
    /// `AXIOM_<NAME>_OUT`: the output path (default `BENCH_<name>.json`;
    /// `-` for stdout only).
    pub out: String,
    /// `AXIOM_<NAME>_GATE`: the gates run only when it is set. `query_json`
    /// reads it as the path of the baseline to compare against.
    pub gate: Option<String>,
}

impl Run {
    /// Reads `AXIOM_<name>_PROFILE`, `_OUT` and `_GATE`; exits 2 naming
    /// the accepted values on an unknown profile.
    pub fn from_env(name: &str) -> Run {
        Run::from_vars(name, |var| std::env::var(var).ok()).unwrap_or_else(|e| die(e))
    }

    fn from_vars(name: &str, var: impl Fn(&str) -> Option<String>) -> Result<Run, String> {
        let key = |suffix: &str| format!("AXIOM_{name}_{suffix}");
        let profile = match var(&key("PROFILE")).as_deref() {
            None | Some("thorough") => Profile::Thorough,
            Some("quick") => Profile::Quick,
            Some(other) => {
                return Err(format!(
                    "{}={other:?} is not a profile; expected `quick` or `thorough`",
                    key("PROFILE")
                ))
            }
        };
        Ok(Run {
            profile,
            out: var(&key("OUT")).unwrap_or_else(|| format!("BENCH_{}.json", name.to_lowercase())),
            gate: var(&key("GATE")),
        })
    }
}

/// Prints `error: {msg}` and exits 2: the settings are bad or the report
/// cannot be written, so no measurement or gate verdict is trustworthy.
pub fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The parallelism this process can use, recorded with every report.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn wall_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`, in ns (its result black-boxed).
pub fn best_ns<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    wall_ns(reps, f).into_iter().fold(f64::INFINITY, f64::min)
}

/// Median-of-`reps` wall time of `f`, in ns (its result black-boxed; the
/// upper median for even `reps`).
pub fn median_ns<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    let mut samples = wall_ns(reps, f);
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nearest-rank percentile of ascending `sorted` samples: the sample at
/// rank `round(q · (n − 1))`, or 0 for no samples.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

#[derive(Debug, Clone)]
enum Cell {
    Str(String),
    Int(u64),
    Bool(bool),
    /// A number and the decimals it is written with.
    Num(f64, usize),
    Rows(Vec<Row>),
}

/// One JSON object of a report (a result row, or an entry nested in one),
/// its fields written in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Row {
    fields: Vec<(&'static str, Cell)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn with(mut self, key: &'static str, cell: Cell) -> Row {
        self.fields.push((key, cell));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &'static str, value: &str) -> Row {
        self.with(key, Cell::Str(value.to_owned()))
    }

    /// Adds an integer field.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or does not fit a `u64`.
    pub fn int(self, key: &'static str, value: impl TryInto<u64>) -> Row {
        let value = value
            .try_into()
            .unwrap_or_else(|_| panic!("field `{key}` is not a u64"));
        self.with(key, Cell::Int(value))
    }

    /// Adds a number written with `decimals` decimals. A non-finite
    /// number makes [`Report::emit`] fail naming `key`.
    pub fn num(self, key: &'static str, value: f64, decimals: usize) -> Row {
        self.with(key, Cell::Num(value, decimals))
    }

    /// Adds an array of nested rows.
    pub fn rows(self, key: &'static str, rows: Vec<Row>) -> Row {
        self.with(key, Cell::Rows(rows))
    }

    fn cell(&self, key: &str) -> Option<&Cell> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, c)| c)
    }

    /// The exact (unrounded) value of the number or integer field `key`.
    ///
    /// # Panics
    ///
    /// Panics if the row has no such field.
    pub fn num_of(&self, key: &str) -> f64 {
        match self.cell(key) {
            Some(Cell::Num(x, _)) => *x,
            Some(Cell::Int(n)) => *n as f64,
            _ => panic!("row has no number `{key}`"),
        }
    }

    fn value(&self, key: &str) -> Option<Value> {
        Some(match self.cell(key)? {
            Cell::Str(s) => Value::String(s.clone()),
            Cell::Int(n) => Value::Number(*n as f64),
            Cell::Bool(b) => Value::Bool(*b),
            Cell::Num(x, _) => Value::Number(*x),
            Cell::Rows(_) => return None,
        })
    }

    /// Whether the string field `key` is `value`.
    pub fn is(&self, key: &str, value: &str) -> bool {
        matches!(self.cell(key), Some(Cell::Str(s)) if s == value)
    }

    fn render(&self, out: &mut String) -> Result<(), String> {
        out.push('{');
        for (i, (key, cell)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_field(key, cell, out)?;
        }
        out.push('}');
        Ok(())
    }
}

fn render_field(key: &str, cell: &Cell, out: &mut String) -> Result<(), String> {
    out.push_str(&format!("\"{key}\": "));
    match cell {
        Cell::Str(s) => out.push_str(&serde_json::to_string(s).map_err(|e| e.to_string())?),
        Cell::Int(n) => out.push_str(&n.to_string()),
        Cell::Bool(b) => out.push_str(&b.to_string()),
        Cell::Num(x, _) if !x.is_finite() => {
            return Err(format!("field `{key}` is {x}, which JSON cannot represent"))
        }
        Cell::Num(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
        Cell::Rows(rows) => {
            out.push('[');
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                row.render(out)?;
            }
            out.push(']');
        }
    }
    Ok(())
}

/// One `BENCH_*.json` file: a header (`schema`, `profile`, `seed`, `cpus`,
/// `target_popcnt` and a free-text description) and one result row per
/// line.
#[derive(Debug, Clone)]
pub struct Report {
    header: Row,
    rows: Vec<Row>,
}

impl Report {
    /// Starts the report of `run` under `schema`.
    pub fn new(schema: &str, run: &Run) -> Report {
        Report {
            header: Row::new()
                .str("schema", schema)
                .str("profile", run.profile.name()),
            rows: Vec::new(),
        }
    }

    /// Records the workload seed.
    pub fn seed(mut self, seed: u64) -> Report {
        self.header = self.header.int("seed", seed);
        self
    }

    /// Adds the free-text description of the numbers under `key`
    /// (`note`; `ns_per_op` in the query and construction schemas).
    pub fn about(mut self, key: &'static str, text: impl Into<String>) -> Report {
        self.header = self.header.with(key, Cell::Str(text.into()));
        self
    }

    /// Appends one result row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The result rows so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The first result row matching `pred`.
    ///
    /// # Panics
    ///
    /// Panics if no row matches.
    pub fn find(&self, pred: impl Fn(&Row) -> bool) -> &Row {
        self.rows
            .iter()
            .find(|r| pred(r))
            .expect("a result row matches")
    }

    /// The report's JSON text, or the error naming a non-finite field.
    fn render(&self) -> Result<String, String> {
        let header = self
            .header
            .clone()
            .int("cpus", cpus())
            .with("target_popcnt", Cell::Bool(cfg!(target_feature = "popcnt")));
        let mut out = String::from("{\n");
        for (key, cell) in &header.fields {
            out.push_str("  ");
            render_field(key, cell, &mut out)?;
            out.push_str(",\n");
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "    " });
            row.render(&mut out)?;
        }
        out.push_str("\n  ]\n}\n");
        Ok(out)
    }

    /// Prints the report to stdout and writes it to `run.out` (unless
    /// `-`); exits 2 if it cannot be rendered or written.
    pub fn emit(&self, run: &Run) {
        let json = self.render().unwrap_or_else(|e| die(e));
        print!("{json}");
        if run.out != "-" {
            std::fs::write(&run.out, &json)
                .unwrap_or_else(|e| die(format!("writing {}: {e}", run.out)));
            eprintln!("wrote {}", run.out);
        }
    }
}

/// The result rows of a `BENCH_*.json` text, parsed with `serde_json`.
fn results(text: &str) -> Result<Vec<Value>, String> {
    let file: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match file.get("results").and_then(Value::as_array) {
        Some(rows) => Ok(rows.clone()),
        None => Err("no `results` array".into()),
    }
}

/// Collects gate verdicts: each check prints one `gate ok: …` or
/// `GATE FAILED: …` line, and [`Gate::finish`] exits 1 if any failed.
#[derive(Debug, Default)]
pub struct Gate {
    failed: usize,
}

impl Gate {
    /// A gate with no verdicts yet.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Records one verdict on `what`.
    pub fn check(&mut self, pass: bool, what: impl Display) {
        if pass {
            eprintln!("gate ok: {what}");
        } else {
            eprintln!("GATE FAILED: {what}");
            self.failed += 1;
        }
    }

    /// Cross-run gate: every row of `rows` whose `key` fields equal a
    /// result row of the `baseline` text may have at most `factor` times
    /// the baseline's `metric`. Errs when the baseline does not parse or
    /// shares no row with `rows`.
    pub fn within_baseline(
        &mut self,
        rows: &[Row],
        baseline: &str,
        key: &[&str],
        metric: &str,
        factor: f64,
    ) -> Result<(), String> {
        let baseline = results(baseline).map_err(|e| format!("gate baseline: {e}"))?;
        let mut ratios = Vec::new();
        for row in rows {
            let point: Vec<Option<Value>> = key.iter().map(|k| row.value(k)).collect();
            let Some(then) = baseline
                .iter()
                .find(|b| {
                    key.iter()
                        .map(|k| b.get(k).cloned())
                        .eq(point.iter().cloned())
                })
                .and_then(|b| b.get(metric)?.as_f64())
            else {
                continue;
            };
            let name: Vec<String> = point
                .into_iter()
                .map(|v| match v {
                    Some(Value::String(s)) => s,
                    Some(Value::Number(n)) => n.to_string(),
                    v => format!("{v:?}"),
                })
                .collect();
            ratios.push((row.num_of(metric) / then, name.join(" ")));
        }
        let (worst, worst_name) = ratios
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .ok_or_else(|| {
                format!(
                    "the run shares no ({}) point with the baseline",
                    key.join(", ")
                )
            })?;
        for (ratio, name) in ratios.iter().filter(|(r, _)| *r > factor) {
            self.check(
                false,
                format!("{name}: {metric} x{ratio:.2} of the baseline (allowed x{factor:.2})"),
            );
        }
        if *worst <= factor {
            self.check(
                true,
                format!(
                    "{} points within x{factor:.2} of the baseline {metric} (worst x{worst:.2}: {worst_name})",
                    ratios.len()
                ),
            );
        }
        Ok(())
    }

    /// Exits 1 if any check failed.
    pub fn finish(self) {
        if self.failed > 0 {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(profile: Option<&str>) -> Result<Run, String> {
        Run::from_vars("QUERY", |var| {
            (var == "AXIOM_QUERY_PROFILE")
                .then(|| profile.map(str::to_owned))
                .flatten()
        })
    }

    #[test]
    fn run_settings_default_and_reject_unknown_profiles() {
        let default = run(None).unwrap();
        assert_eq!(default.profile, Profile::Thorough);
        assert_eq!(default.out, "BENCH_query.json");
        assert_eq!(default.gate, None);
        assert_eq!(run(Some("quick")).unwrap().profile, Profile::Quick);
        let err = run(Some("quik")).unwrap_err();
        assert!(err.contains("AXIOM_QUERY_PROFILE") && err.contains("`quick` or `thorough`"));
    }

    #[test]
    fn writer_round_trips_through_the_reader() {
        let mut report = Report::new("axiom-test-v1", &run(None).unwrap())
            .seed(7)
            .about("note", "a \"quoted\" note");
        report.push(
            Row::new()
                .str("impl", "axiom")
                .int("keys", 1024usize)
                .num("ns", 1.23456, 2),
        );
        report.push(Row::new().rows("restores", vec![Row::new().int("shards", 8u64)]));
        let text = report.render().unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("    {")).count(), 2);

        let file: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            file.get("schema").and_then(Value::as_str),
            Some("axiom-test-v1")
        );
        assert_eq!(
            file.get("profile").and_then(Value::as_str),
            Some("thorough")
        );
        assert_eq!(file.get("seed").and_then(Value::as_u64), Some(7));
        assert_eq!(
            file.get("cpus").and_then(Value::as_u64),
            Some(cpus() as u64)
        );
        assert!(file.get("target_popcnt").and_then(Value::as_bool).is_some());
        assert_eq!(
            file.get("note").and_then(Value::as_str),
            Some("a \"quoted\" note")
        );

        let rows = results(&text).unwrap();
        assert_eq!(rows[0].get("impl").and_then(Value::as_str), Some("axiom"));
        assert_eq!(rows[0].get("keys").and_then(Value::as_u64), Some(1024));
        assert_eq!(rows[0].get("ns").and_then(Value::as_f64), Some(1.23));
        let nested = rows[1].get("restores").and_then(Value::as_array).unwrap();
        assert_eq!(nested[0].get("shards").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn writer_rejects_non_finite_numbers_by_name() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut report = Report::new("axiom-test-v1", &run(None).unwrap());
            report.push(Row::new().num("speedup_vs_rtt", bad, 2));
            let err = report.render().unwrap_err();
            assert!(err.contains("speedup_vs_rtt"), "{err}");
        }
    }

    /// Every checked-in file parses, with or without the machine fields,
    /// and each result row has its binary's key fields.
    #[test]
    fn checked_in_reports_parse() {
        let files: [(&str, &str, &[&str]); 7] = [
            (
                "construction",
                include_str!("../../../BENCH_construction.json"),
                &["impl", "kind", "keys", "speedup"],
            ),
            (
                "net",
                include_str!("../../../BENCH_net.json"),
                &["kind", "requests"],
            ),
            (
                "query",
                include_str!("../../../BENCH_query.json"),
                &["impl", "op", "keys", "median_ns"],
            ),
            (
                "serving",
                include_str!("../../../BENCH_serving.json"),
                &["kind", "keys", "shards"],
            ),
            (
                "setops",
                include_str!("../../../BENCH_setops.json"),
                &["impl", "op", "shape", "n", "speedup"],
            ),
            (
                "sharded",
                include_str!("../../../BENCH_sharded.json"),
                &["kind", "keys", "shards"],
            ),
            (
                "snapshot",
                include_str!("../../../BENCH_snapshot.json"),
                &["keys", "items", "restores"],
            ),
        ];
        for (name, text, key) in files {
            let rows = results(text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
            assert!(!rows.is_empty(), "BENCH_{name}.json has no rows");
            for row in &rows {
                for field in key {
                    assert!(
                        row.get(field).is_some(),
                        "BENCH_{name}.json row lacks {field}: {row:?}"
                    );
                }
            }
        }
    }

    /// The CI query gate: a point may be at most 3x its checked-in
    /// median, and a run that shares no point with the baseline errs.
    #[test]
    fn query_baseline_gate() {
        let baseline = include_str!("../../../BENCH_query.json");
        let base = &results(baseline).unwrap()[0];
        let field = |k: &str| base.get(k).cloned().unwrap();
        let at = |keys: u64, factor: f64| {
            let mut report = Report::new("axiom-query-v1", &run(None).unwrap());
            report.push(
                Row::new()
                    .str("impl", field("impl").as_str().unwrap())
                    .str("op", field("op").as_str().unwrap())
                    .int("keys", keys)
                    .num(
                        "median_ns",
                        field("median_ns").as_f64().unwrap() * factor,
                        3,
                    ),
            );
            let mut gate = Gate::new();
            let verdict = gate.within_baseline(
                report.rows(),
                baseline,
                &["impl", "op", "keys"],
                "median_ns",
                3.0,
            );
            verdict.map(|()| gate.failed)
        };
        let keys = field("keys").as_u64().unwrap();
        assert_eq!(at(keys, 2.99), Ok(0));
        assert_eq!(at(keys, 3.01), Ok(1));
        assert!(at(keys + 1, 1.0).unwrap_err().contains("shares no"));
    }
}
