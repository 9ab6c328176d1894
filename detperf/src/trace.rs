//! In-memory span recorder and per-call counters for the traced run.
//!
//! Spans are recorded around every call the benchmark makes into a layer
//! crate, nested under the op (or setup) that caused them. Nothing is
//! recorded, and no clock is read, while the tracer is off. Spans stay in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder plus per-call counters (`name → (sum, calls)`).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    /// A tracer that records only while `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Switches recording on or off; only call between ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call while off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds one call's value of a counter (ignored while off).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let c = self.counters.entry(name).or_insert((0.0, 0));
            c.0 += value;
            c.1 += 1;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean per call of a counter; 0 when it was never counted.
    pub fn mean(&self, name: &str) -> f64 {
        match self.counters.get(name) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Sum of a counter over all calls.
    pub fn sum(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.0)
    }

    /// Writes the spans as JSON lines with their self times.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and their
/// overlaps merged, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}
