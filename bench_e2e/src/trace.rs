//! In-memory span recording and the timing [`ObjectSource`] wrapper.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions; nothing inside the program is
//! instrumented. A disabled [`Tracer`] records nothing and reads no
//! clock, so the untraced run pays only for the round timer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use rpki_objects::RepoUri;
use rpki_repo::{DirProbe, SyncOutcome};
use rpki_rp::ObjectSource;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `"rp.validate"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Pipeline round the span belongs to.
    pub round: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a begun span must be ended"]
pub struct Open(Option<u32>);

/// Span recorder. Spans nest: a span begun while another is open
/// becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { epoch: None, spans: Vec::new(), stack: Vec::new(), round: 0 }
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer { epoch: Some(Instant::now()), ..Tracer::disabled() }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Tags every span begun from now on with `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let Some(epoch) = self.epoch else { return Open(None) };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn end(&mut self, open: Open) {
        let (Some(epoch), Some(id)) = (self.epoch, open.0) else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per round, per span name: (total wall ns, self ns). Self time is
    /// a span's duration minus the part its children cover.
    pub fn per_round(&self) -> BTreeMap<u64, BTreeMap<&'static str, (u64, u64)>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, (u64, u64)>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let slot = out.entry(s.round).or_default().entry(s.name).or_default();
            slot.0 += s.duration_ns();
            slot.1 += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        Ok(())
    }
}

/// Work the transport layer did, seen through [`TimedSource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounts {
    /// `load_dir` calls.
    pub loads: u64,
    /// `probe_dir` calls.
    pub probes: u64,
    /// Bytes of file content the loads returned.
    pub bytes_loaded: u64,
}

/// An [`ObjectSource`] that forwards every call to `inner`, counting
/// loads and probes and recording a span around each.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t mut Tracer,
    counts: TransportCounts,
}

impl<'t, S: ObjectSource> TimedSource<'t, S> {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: S, tracer: &'t mut Tracer) -> Self {
        TimedSource { inner, tracer, counts: TransportCounts::default() }
    }

    /// What passed through so far.
    pub fn counts(&self) -> TransportCounts {
        self.counts
    }
}

impl<S: ObjectSource> ObjectSource for TimedSource<'_, S> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        let open = self.tracer.begin("transport.load");
        let out = self.inner.load_dir(dir);
        self.tracer.end(open);
        self.counts.loads += 1;
        self.counts.bytes_loaded += out.files.values().map(|f| f.len() as u64).sum::<u64>();
        out
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let open = self.tracer.begin("transport.probe");
        let out = self.inner.probe_dir(dir);
        self.tracer.end(open);
        self.counts.probes += 1;
        out
    }

    fn wire_frames(&self) -> Option<u64> {
        self.inner.wire_frames()
    }
}
