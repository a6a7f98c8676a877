//! The in-memory span log of the traced pass.
//!
//! One root span (`kind = "unit"`) per unit of work; its children are the
//! driver's calls at layer boundaries. Every span carries both clocks and
//! the engine's counters at its two ends, so ratios can be taken per
//! phase. Spans stay in memory and are written out when the run ends;
//! with tracing off every call is a branch on one bool.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The engine's clocks and counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    /// Simulated time, microseconds.
    pub sim_us: u64,
    /// `NetStats::total_messages`.
    pub messages: u64,
    /// `NetStats::total_bytes`.
    pub bytes: u64,
    /// `Simulator::events_processed`.
    pub events: u64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Unit of work this span belongs to.
    pub unit: u32,
    /// Layer boundary crossed (`"unit"` for roots).
    pub kind: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub wall_start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub wall_end_ns: u64,
    /// Counters and simulated clock at the start.
    pub start: Snap,
    /// Counters and simulated clock at the end.
    pub end: Snap,
    /// Whether the call succeeded.
    pub ok: bool,
}

impl Span {
    /// Host milliseconds spent inside the span.
    pub fn wall_ms(&self) -> f64 {
        (self.wall_end_ns - self.wall_start_ns) as f64 / 1e6
    }

    /// Simulated milliseconds that passed inside the span.
    pub fn sim_ms(&self) -> f64 {
        (self.end.sim_us - self.start.sim_us) as f64 / 1e3
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens the root span of unit `unit`.
    pub fn begin_unit(&mut self, unit: u32, snap: impl FnOnce() -> Snap) -> SpanId {
        self.unit = unit;
        self.begin("unit", snap)
    }

    /// Opens a span under the innermost open one. The snapshot closure is
    /// only called when tracing is on.
    pub fn begin(&mut self, kind: &'static str, snap: impl FnOnce() -> Snap) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = snap();
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            unit: self.unit,
            kind,
            wall_start_ns: now,
            wall_end_ns: now,
            start,
            end: start,
            ok: true,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn end(&mut self, id: SpanId, ok: bool, snap: impl FnOnce() -> Snap) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.wall_end_ns = now;
        span.end = snap();
        span.ok = ok;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Host milliseconds of every span of `kind`.
    pub fn wall_ms(&self, kind: &str) -> Vec<f64> {
        self.of_kind(kind).map(Span::wall_ms).collect()
    }

    /// Host milliseconds covered by root spans, and by their direct
    /// children (the layer calls). The difference is the driver's own
    /// time inside units.
    pub fn root_and_child_ms(&self) -> (f64, f64) {
        let mut roots = 0.0;
        let mut children = 0.0;
        for s in &self.spans {
            match s.parent {
                None => roots += s.wall_ms(),
                Some(p) if self.spans[p as usize].parent.is_none() => children += s.wall_ms(),
                Some(_) => {}
            }
        }
        (roots, children)
    }

    /// Writes the log as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"unit\":{},\"kind\":\"{}\",\
                 \"wall_start_ns\":{},\"wall_end_ns\":{},\"sim_start_us\":{},\"sim_end_us\":{},\
                 \"ok\":{},\"messages\":{},\"bytes\":{},\"events\":{}}}",
                s.unit,
                s.kind,
                s.wall_start_ns,
                s.wall_end_ns,
                s.start.sim_us,
                s.end.sim_us,
                s.ok,
                s.end.messages - s.start.messages,
                s.end.bytes - s.start.bytes,
                s.end.events - s.start.events,
            )?;
        }
        out.flush()
    }
}
