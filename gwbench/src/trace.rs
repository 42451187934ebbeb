//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` plus the number of calls it
//! covers. Control-path calls (build, publish, install, verify) and the
//! executor's `execute`/`finish` get one span per call. Calls that take
//! tens of nanoseconds (a parse, a cache probe, a table lookup) get one
//! span per chunk of consecutive calls, because two clock reads per call
//! would cost as much as the call itself; per-call time is then the
//! span's duration divided by its call count. Spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function the span wraps, `layer.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Calls into the layer the span covers; for the executor's
    /// `execute` and `finish`, the packets and the punts the call handled.
    pub calls: u64,
}

/// Span recorder. A disabled recorder records nothing, so untraced runs
/// pay only for the branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled` false makes every `span` call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin so
    /// the two can be merged.
    pub fn fork(&self) -> Self {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::with_capacity(if self.enabled { 1 << 10 } else { 0 }),
        }
    }

    /// Appends a forked recorder's spans (its top-level spans stay
    /// top-level).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Closes a span that started at `start_ns` (from [`Tracer::now`])
    /// and returns its id.
    pub fn span(&mut self, name: &'static str, parent: u32, start_ns: u64, calls: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let end_ns = self.now();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            calls,
        })
    }

    /// Opens a span that encloses later ones; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            calls: 0,
        })
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Total duration and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.end_ns.saturating_sub(s.start_ns);
            e.1 += s.calls;
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}
