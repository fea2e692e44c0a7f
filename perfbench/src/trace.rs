//! In-memory span recording for the traced pipeline body, and the
//! Chrome trace-event writer that dumps the spans when a run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call on one rank.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the run's common origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same rank's span list.
    pub parent: Option<usize>,
    pub rank: usize,
    pub iteration: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-rank span recorder. Only the rank thread records (workers never
/// see it), so a `RefCell` is enough.
pub struct Tracer {
    origin: Instant,
    rank: usize,
    iteration: usize,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(origin: Instant, rank: usize, iteration: usize) -> Tracer {
        Tracer {
            origin,
            rank,
            iteration,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: 0.0,
                parent: open.last().copied(),
                rank: self.rank,
                iteration: self.iteration,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Duration of the first span called `name`.
pub fn span_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, Span::secs)
}

/// Write `spans` as Chrome trace-event JSON (one track per rank), which
/// Perfetto and `chrome://tracing` open directly.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"iteration\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.rank,
            s.start * 1e6,
            s.secs() * 1e6,
            s.iteration,
            parent
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
