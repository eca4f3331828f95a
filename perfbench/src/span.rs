//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, read)`: `parent` is the id of the
//! span that caused it (0 for a root) and `read` is the id of the read or
//! block the work belongs to. Spans are pushed into one mutex-guarded
//! vector and only analysed after the run, so recording costs two clock
//! reads and one short critical section per span.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub read: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The innermost open span on this thread: `(span id, read id)`.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

/// An open span; closing or dropping it records the end time.
pub struct Open<'t> {
    trace: &'t Trace,
    span: Span,
    saved: (u32, u32),
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of this thread's current span. `read` of 0
    /// inherits the parent's read id.
    pub fn open(&self, name: &'static str, read: u32) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let saved = CURRENT.with(Cell::get);
        let read = if read == 0 { saved.1 } else { read };
        CURRENT.with(|c| c.set((id, read)));
        Open {
            trace: self,
            span: Span {
                id,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: saved.0,
                read,
            },
            saved,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent read`.
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tread\n");
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.read
            );
        }
        std::fs::write(path, out)
    }
}

impl Open<'_> {
    /// Ends the span now (dropping it does the same).
    pub fn close(self) {}
}

impl Drop for Open<'_> {
    /// Records the span and restores the thread's enclosing span, also
    /// on early returns. A poisoned span list drops the span rather than
    /// panicking inside `drop`.
    fn drop(&mut self) {
        self.span.end_ns = self.trace.now_ns();
        CURRENT.with(|c| c.set(self.saved));
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.push(self.span);
        }
    }
}

/// Per-name totals of duration and self time (duration minus the part
/// covered by direct children; children of one span never overlap, since
/// a span's children run on its own thread).
pub struct Ledger {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn ledger(spans: &[Span], name: &str) -> Ledger {
    let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out = Ledger {
        count: 0,
        total_ns: 0,
        self_ns: 0,
    };
    for s in spans.iter().filter(|s| s.name == name) {
        out.count += 1;
        out.total_ns += s.dur_ns();
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        out.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}
