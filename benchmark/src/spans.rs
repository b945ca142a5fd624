//! Harness spans: name, start, end, parent and session id around every
//! call the harness makes into a layer, kept in memory and written when
//! the run ends. Recorded from the benchmark's own files only — spans
//! inside the libraries are a later change.
//!
//! Workload bodies are generic over [`Probe`], so the timed passes run
//! with [`Off`] (which compiles to the bare calls, no clock reads) and the
//! traced pass runs the same body with a [`SpanLog`].

use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub session: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers: 1 for a per-call span, the batch size for a
    /// batch span.
    pub calls: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a workload body sees of tracing.
pub trait Probe {
    /// Spans recorded from here on belong to `session`.
    fn set_session(&mut self, session: u32);
    /// Open a span that later spans nest under; returns its id.
    fn enter(&mut self, name: &'static str) -> u32;
    /// Close the span [`Probe::enter`] returned.
    fn exit(&mut self, id: u32);
    /// Span around one call (for calls of a microsecond and up).
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
    /// One call of a sub-100 ns kind: its time and count accumulate under
    /// `kind` until [`Probe::flush`] turns each kind into one batch span.
    fn batched<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R;
    /// Emit one span per batch kind with calls since the last flush.
    fn flush(&mut self);
}

/// Tracing off: every method is the bare call.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn set_session(&mut self, _session: u32) {}
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> u32 {
        ROOT
    }
    #[inline(always)]
    fn exit(&mut self, _id: u32) {}
    #[inline(always)]
    fn batched<R>(&mut self, _kind: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn flush(&mut self) {}
}

#[derive(Debug, Clone, Copy, Default)]
struct Batch {
    first_start_ns: u64,
    total_ns: u64,
    calls: u64,
}

/// Tracing on: spans accumulate in memory.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    session: u32,
    batch_names: &'static [&'static str],
    batches: Vec<Batch>,
}

impl SpanLog {
    /// New log; `batch_names[kind]` names the batch kinds the workload
    /// passes to [`Probe::batched`].
    pub fn new(batch_names: &'static [&'static str]) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
            batch_names,
            batches: vec![Batch::default(); batch_names.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, without copying them (a traced pass records
    /// hundreds of thousands).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Probe for SpanLog {
    fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            session: self.session,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    #[inline]
    fn batched<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        let b = &mut self.batches[kind];
        if b.calls == 0 {
            b.first_start_ns = t0;
        }
        b.total_ns += t1 - t0;
        b.calls += 1;
        r
    }

    fn flush(&mut self) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        for (kind, b) in self.batches.iter_mut().enumerate() {
            if b.calls == 0 {
                continue;
            }
            // The batch's calls were interleaved with others; the span
            // carries their summed time laid out from the first call.
            self.spans.push(Span {
                name: self.batch_names[kind],
                session: self.session,
                parent,
                start_ns: b.first_start_ns,
                end_ns: b.first_start_ns + b.total_ns,
                calls: b.calls,
            });
            *b = Batch::default();
        }
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NameTime {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time the spans' direct children cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus its direct
/// children's durations (clamped at zero — a batch child's clock reads
/// can overrun a short parent by a few nanoseconds).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.calls += s.calls;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            session: 0,
            parent,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", ROOT, 0, 1_000),
            span("session", 0, 100, 900),
            span("tick", 1, 200, 300),
            span("tick", 1, 400, 650),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].total_ns, 1_000);
        assert_eq!(t["pass"].self_ns, 200, "only the session is a direct child");
        assert_eq!(t["session"].self_ns, 800 - 350);
        assert_eq!(t["tick"].spans, 2);
        assert_eq!(t["tick"].self_ns, 350, "leaves keep all their time");
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span("parent", ROOT, 0, 10), span("child", 0, 0, 25)];
        assert_eq!(self_times(&spans)["parent"].self_ns, 0);
    }

    #[test]
    fn log_nests_calls_and_flushes_batches_under_the_open_span() {
        let mut log = SpanLog::new(&["fast"]);
        log.set_session(7);
        let outer = log.enter("outer");
        log.call("inner", || {});
        for _ in 0..3 {
            log.batched(0, || {});
        }
        log.flush();
        log.flush(); // nothing accumulated: no span
        log.exit(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("fast", 0));
        assert_eq!(spans[2].calls, 3);
        assert!(spans.iter().all(|s| s.session == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn off_probe_is_transparent() {
        let mut off = Off;
        off.set_session(1);
        let id = off.enter("outer");
        assert_eq!(off.call("x", || 2 + 2), 4);
        off.exit(id);
        assert_eq!(off.batched(0, || 5), 5);
        off.flush();
    }
}
