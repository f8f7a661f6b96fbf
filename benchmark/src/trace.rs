//! Benchmark-side tracing: spans kept in memory and written out when the
//! run ends, plus the two wrappers that let the benchmark time a layer
//! it only reaches through a public trait (`TableSource`, `PairScorer`).
//!
//! Nothing here is inside the measured crates. Busy times are exact sums
//! over every call; spans of calls that happen hundreds of thousands of
//! times per second are sampled, one in [`SAMPLE_EVERY`], so a traced
//! run stays in memory.

use em_block::{PairScorer, PipelineError, Row, TableSource};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// High-frequency calls record one span per this many calls.
pub const SAMPLE_EVERY: u64 = 256;

/// Handle of a recorded span; 0 means "no span" (tracing off, or root).
pub type SpanId = u32;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// In-memory span store. Disabled (the plain run) it records nothing and
/// every call is one branch.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<SpanRec>>,
}

impl SpanLog {
    /// A span log; `enabled` is fixed for the whole run.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished interval. `op` is the operation the span belongs
    /// to (a timed unit, a request); spans of one operation share it.
    pub fn add(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        op: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        spans.len() as SpanId
    }

    /// Open a span now; close it with [`SpanLog::close`]. Children name
    /// the returned id as their parent.
    pub fn open(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let now = Instant::now();
        self.add(name, now, now, parent, op)
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans[id as usize - 1].end_ns = end;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line: name, start and end
    /// in nanoseconds since the run began, parent span id, operation id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        out.flush()
    }
}

/// A [`TableSource`] that times every `row` call of the table it wraps:
/// em-data's row generation as the pipeline and the index build see it.
pub struct TimedTable<'l, T: ?Sized> {
    inner: &'l T,
    log: &'l SpanLog,
    parent: SpanId,
    op: u64,
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl<'l, T: TableSource + ?Sized> TimedTable<'l, T> {
    /// Wrap `inner`; sampled spans hang under `parent` in operation `op`.
    pub fn new(inner: &'l T, log: &'l SpanLog, parent: SpanId, op: u64) -> Self {
        Self {
            inner,
            log,
            parent,
            op,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside `row`.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `row` calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<T: TableSource + ?Sized> TableSource for TimedTable<'_, T> {
    fn len(&self) -> u32 {
        self.inner.len()
    }

    fn row(&self, i: u32) -> Row {
        let start = Instant::now();
        let row = self.inner.row(i);
        let end = Instant::now();
        self.busy_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            self.log
                .add("data.rowgen", start, end, self.parent, self.op);
        }
        row
    }
}

/// A [`PairScorer`] that times `submit` (tokenize + enqueue) and `wait`
/// (blocked on the score) of the scorer it wraps.
pub struct TimedScorer<'l, S> {
    inner: &'l S,
    log: &'l SpanLog,
    parent: SpanId,
    op: u64,
    submit_ns: Cell<u64>,
    wait_ns: Cell<u64>,
    calls: Cell<u64>,
}

impl<'l, S: PairScorer> TimedScorer<'l, S> {
    /// Wrap `inner`; sampled spans hang under `parent` in operation `op`.
    pub fn new(inner: &'l S, log: &'l SpanLog, parent: SpanId, op: u64) -> Self {
        Self {
            inner,
            log,
            parent,
            op,
            submit_ns: Cell::new(0),
            wait_ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// Seconds spent inside `submit`.
    pub fn submit_s(&self) -> f64 {
        self.submit_ns.get() as f64 / 1e9
    }

    /// Seconds spent blocked inside `wait`.
    pub fn wait_s(&self) -> f64 {
        self.wait_ns.get() as f64 / 1e9
    }
}

impl<S: PairScorer> PairScorer for TimedScorer<'_, S> {
    type Ticket = S::Ticket;

    fn submit(&self, left: &str, right: &str) -> Result<S::Ticket, PipelineError> {
        let start = Instant::now();
        let ticket = self.inner.submit(left, right);
        let end = Instant::now();
        self.submit_ns
            .set(self.submit_ns.get() + (end - start).as_nanos() as u64);
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.log
                .add("serve.submit", start, end, self.parent, self.op);
        }
        ticket
    }

    fn wait(&self, ticket: S::Ticket) -> Result<f32, PipelineError> {
        let start = Instant::now();
        let score = self.inner.wait(ticket);
        let end = Instant::now();
        self.wait_ns
            .set(self.wait_ns.get() + (end - start).as_nanos() as u64);
        if self.calls.get() % SAMPLE_EVERY == 1 {
            self.log.add("serve.wait", start, end, self.parent, self.op);
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let id = log.open("x", 0, 0);
        log.close(id);
        assert_eq!(id, 0);
        assert!(log.is_empty());
    }
}
