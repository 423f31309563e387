//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded only from the benchmark's own files, around its
//! calls into each layer's public functions; the crates carry no spans of
//! their own. One sampled request keeps one id (its index in the
//! workload's script) across its replays at every layer.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index in the recorder, plus one; 0 means "no parent").
    pub id: u64,
    /// Layer prefix, e.g. `serving.engine`.
    pub layer: &'static str,
    /// What was called, e.g. `submit`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// The span of the boundary above this one (0 for none).
    pub parent: u64,
    /// The sampled request this span replays (`u64::MAX` for none).
    pub request: u64,
}

/// Collects spans on one thread. Each driver thread that records owns its
/// own recorder; they are merged when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds from the origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        id
    }

    /// Times `f` as one span and returns its result with the span id and
    /// the span's duration in ns.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(layer, name, start, end, parent, request);
        (out, id, (end - start).as_nanos() as u64)
    }

    /// Moves every span out, renumbering ids (and parents) by `offset` so
    /// several recorders can be merged into one file.
    pub fn take(self, offset: u64) -> Vec<Span> {
        let shift = |id: u64| if id == 0 { 0 } else { id + offset };
        self.spans
            .into_inner()
            .into_iter()
            .map(|s| Span {
                id: shift(s.id),
                parent: shift(s.parent),
                ..s
            })
            .collect()
    }
}

/// Writes `spans` as JSON lines, one span per line, tagged with the
/// workload.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let request = if s.request == NO_REQUEST {
            "null".to_string()
        } else {
            s.request.to_string()
        };
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{request}}}",
            s.id, s.layer, s.name, s.start_ns, s.end_ns, s.parent
        )?;
    }
    out.flush()
}
