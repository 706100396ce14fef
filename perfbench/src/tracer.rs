//! Host-time tracing from outside the simulator.
//!
//! Coarse calls into a layer's public functions (`simulate_stream`,
//! `CostModel::calibrate`, `distributed_step`, the table regenerators,
//! `Cluster::run`) become [`Span`]s: name, start, end and parent, kept
//! in memory and written once at exit through the Chrome exporter.
//! Fine-grained calls through the trait proxies (millions per run) are
//! not stored one by one: each is timed into a per-name
//! [`LogHistogram`] and its duration is credited to the enclosing
//! span, so a span's self time is its duration minus its children.
//!
//! Everything here runs on the benchmark's own thread; the rank threads
//! of the simulated cluster are never instrumented.

use std::cell::RefCell;
use std::time::Instant;

use mb_telemetry::prof::LogHistogram;
use mb_telemetry::trace::{RunTrace, SpanEvent, SpanKind};

/// One closed (or still open) span of host time.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Seconds covered by child spans and timed calls inside this span.
    pub child_s: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn self_s(&self) -> f64 {
        self.dur_s() - self.child_s
    }
}

/// Handle of one named call histogram (see [`Tracer::call_id`]).
#[derive(Debug, Clone, Copy)]
pub struct CallId(usize);

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    /// Per-name call histograms, seconds per call.
    calls: Vec<(&'static str, LogHistogram)>,
    /// First span of the current repetition (see [`Tracer::take_rep`]).
    rep_start: usize,
}

/// In-memory span recorder plus per-call histograms.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// What one repetition recorded: its spans and its call histograms.
pub struct RepTrace {
    pub spans: Vec<Span>,
    pub calls: Vec<(&'static str, LogHistogram)>,
}

impl RepTrace {
    /// Total seconds of the spans named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Total self seconds of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_s)
            .sum()
    }

    /// The call histogram named `name` (empty if never called).
    pub fn calls(&self, name: &str) -> LogHistogram {
        self.calls
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Register (or look up) the call histogram `name`.
    pub fn call_id(&self, name: &'static str) -> CallId {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.calls.iter().position(|(n, _)| *n == name) {
            return CallId(i);
        }
        inner.calls.push((name, LogHistogram::new()));
        CallId(inner.calls.len() - 1)
    }

    /// Run `f` inside a span named `name`. The span's duration is also
    /// observed into the call histogram of the same name and credited
    /// to the enclosing span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.call_id(name);
        let start_s = self.now_s();
        {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent,
                child_s: 0.0,
            });
            let idx = inner.spans.len() - 1;
            inner.open.push(idx);
        }
        let out = f();
        let end_s = self.now_s();
        let mut inner = self.inner.borrow_mut();
        let idx = inner
            .open
            .pop()
            .expect("span stack holds the span opened above");
        let span = &mut inner.spans[idx];
        span.end_s = end_s;
        let (dur, parent) = (span.dur_s(), span.parent);
        if let Some(p) = parent {
            inner.spans[p].child_s += dur;
        }
        inner.calls[id.0].1.observe(dur);
        out
    }

    /// Time one fine-grained call: observe its duration into the call
    /// histogram `id` and credit it to the enclosing span. No span is
    /// stored.
    #[inline]
    pub fn call<R>(&self, id: CallId, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_secs_f64();
        let mut inner = self.inner.borrow_mut();
        if let Some(&p) = inner.open.last() {
            inner.spans[p].child_s += dur;
        }
        inner.calls[id.0].1.observe(dur);
        out
    }

    /// Close the current repetition: hand back the spans recorded since
    /// the last call and reset the call histograms. Spans stay in memory
    /// for [`Tracer::chrome_json`].
    pub fn take_rep(&self) -> RepTrace {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "repetition ended inside a span");
        let spans = inner.spans[inner.rep_start..].to_vec();
        inner.rep_start = inner.spans.len();
        let calls = inner
            .calls
            .iter_mut()
            .map(|(n, h)| (*n, std::mem::take(h)))
            .collect();
        RepTrace { spans, calls }
    }

    /// Every span recorded so far, as a Chrome `trace_event` document
    /// (one track; nesting follows the parent links by time).
    pub fn chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let events = inner
            .spans
            .iter()
            .map(|s| SpanEvent::plain(s.name, SpanKind::Phase, s.start_s, s.end_s))
            .collect();
        mb_telemetry::chrome::export(&RunTrace {
            ranks: vec![events],
        })
    }
}
