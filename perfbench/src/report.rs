//! What a run reports: named metrics with units, the run's environment,
//! and the final one-line JSON result.

use crate::stats::median_tail;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `read_p99_us`.
    pub name: String,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How it was measured (phase, sample count); printed, not gated.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        }
    }
}

/// Pushes `<prefix>_p50_us`, `<prefix>_p90_us` and `<prefix>_p99_us`
/// (ns samples reported in µs) with their sample counts: the median over
/// `groups` of each group's percentile; a tail percentile only when ten
/// samples lie beyond it.
pub fn push_tail(out: &mut Vec<Metric>, prefix: &str, groups: &[Vec<f64>], phase: &str) {
    let Some(t) = median_tail(groups) else {
        return;
    };
    for (name, q) in [("p50", Some(t.p50)), ("p90", t.p90), ("p99", t.p99)] {
        if let Some(q) = q {
            out.push(Metric::new(
                &format!("{prefix}_{name}_us"),
                "us",
                q.value / 1e3,
                format!(
                    "{phase}, median of {} groups, n={}, >={} beyond",
                    groups.len(),
                    q.samples,
                    q.beyond
                ),
            ));
        }
    }
}

/// Everything one invocation produced.
#[derive(Default)]
pub struct Report {
    /// Metrics printed for people, by name (e.g. `reads_per_s`).
    pub printed: Vec<Metric>,
    /// Metrics in the final JSON line, in `BENCHMARK.json`'s order.
    pub gated: Vec<Metric>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Of those, refused or unanswered.
    pub failed: u64,
    /// Environment and settings of the run.
    pub env: Vec<(String, String)>,
}

impl Report {
    /// Copies printed metric `from` into the gated set as `to`.
    pub fn gate(&mut self, to: &str, from: &str) -> Result<(), String> {
        let m = self
            .printed
            .iter()
            .find(|m| m.name == from)
            .ok_or_else(|| format!("metric {from} was not measured"))?;
        let mut gated = m.clone();
        gated.name = to.to_string();
        self.gated.push(gated);
        Ok(())
    }

    /// The human-readable lines: environment, then every metric.
    pub fn render(&self, workload: &str) -> String {
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let mut out = format!("# {workload}: {}\n", env.join(" "));
        for m in self.printed.iter().chain(&self.gated) {
            out.push_str(&format!(
                "  {:<40} {:>16.4} {:<6} {}\n",
                m.name, m.value, m.unit, m.note
            ));
        }
        out
    }

    /// The final result line.
    pub fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run's record for the results file: environment plus every
    /// metric, as one JSON object.
    pub fn record_json(&self, workload: &str) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        let metrics: Vec<String> = self
            .printed
            .iter()
            .chain(&self.gated)
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.note
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"env\": {{{}}}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": [{}]}}\n",
            env.join(", "),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number (non-finite values become 0, which no gated
/// metric can be).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
