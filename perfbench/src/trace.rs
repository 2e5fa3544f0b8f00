//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions; spans nest (each records its parent) and spans of
//! one request share a request id. Nothing is written until the run
//! ends. A layer's *self time* is its span's duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: u32,
}

/// Spans and counts recorded on one thread.
#[derive(Debug)]
pub struct Recorder {
    /// A disabled recorder records nothing: the untraced run calls the
    /// same code with one branch per span.
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(name, request id, value)` counts taken at layer boundaries.
    counts: Vec<(&'static str, u64, f64)>,
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(usize);

impl Recorder {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Recorder {
            enabled: true,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing this one's clock.
    pub fn for_thread(&self, thread: u32) -> Self {
        Recorder {
            enabled: self.enabled,
            ..Recorder::new(self.epoch, thread)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans close in nesting order");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Time `f` as one span with no children.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, req);
        let out = f();
        self.end(span);
        out
    }

    /// Record a span whose interval was measured elsewhere (for example
    /// the arrival of a response head and body on a socket).
    pub fn interval(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
    }

    pub fn count(&mut self, name: &'static str, req: u64, value: f64) {
        if !self.enabled {
            return;
        }
        self.counts.push((name, req, value));
    }

    /// Fold another thread's recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Self time in milliseconds of every span, grouped by name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Count samples grouped by name.
    pub fn counts(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(name, _, v) in &self.counts {
            out.entry(name).or_default().push(v);
        }
        out
    }

    /// Write every span and count as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.thread
            );
        }
        for &(name, req, v) in &self.counts {
            let _ = writeln!(
                text,
                "{{\"count\": \"{name}\", \"req\": {req}, \"value\": {v:?}}}"
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
