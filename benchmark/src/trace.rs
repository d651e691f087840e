//! In-memory span recorder for the traced run.
//!
//! A span is one call (or one aggregated group of calls) into a layer:
//! name, start, end, the span that caused it, and the request it
//! belongs to (a round, a grid point, a sweep). Spans are kept in
//! memory and written out once, when the run ends. A layer's *self
//! time* is its span minus the part of that interval its child spans
//! cover — children may overlap (two grid workers under one batch), so
//! the covered part is the union of the children, not their sum.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
    /// Calls this span stands for: 1 for a plain span, the call count
    /// for an aggregate (per-cycle callbacks are summed per chunk, not
    /// recorded one by one).
    pub calls: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Convert an instant taken elsewhere (e.g. on a worker thread).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            calls,
        });
        self.spans.len() - 1
    }

    /// Start a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.add(name, parent, request, now, now, 1)
    }

    /// End a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Record an aggregate of `calls` short calls that together took
    /// `busy_ns` somewhere inside `parent`: laid out from `offset_ns`
    /// past the parent's start, so sibling aggregates do not overlap
    /// and self time subtracts each exactly once. Returns the offset
    /// the next sibling should use.
    pub fn add_aggregate(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> u64 {
        let p = &self.spans[parent];
        let (start, request) = (p.start_ns + offset_ns, p.request);
        self.add(name, Some(parent), request, start, start + busy_ns, calls);
        offset_ns + busy_ns
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// Summed self time of every span called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&mut children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .sum();
        ns as f64 / 1e9
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"calls\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Span duration minus the union of its children, each clipped to the
/// span. `children` is sorted in place.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.0;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(span.1));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // two overlapping children cover [10, 60) once, not 30 + 40
        assert_eq!(self_time((0, 100), &mut [(10, 40), (20, 60)]), 50);
        // nested, disjoint, and unsorted children
        assert_eq!(self_time((0, 100), &mut [(70, 90), (10, 40), (15, 20)]), 50);
        // children are clipped to the span
        assert_eq!(self_time((50, 100), &mut [(0, 60), (90, 200)]), 30);
        // full cover and no children
        assert_eq!(self_time((0, 100), &mut [(0, 50), (50, 100)]), 0);
        assert_eq!(self_time((0, 100), &mut []), 100);
    }

    #[test]
    fn tracer_attributes_time_to_the_right_layer() {
        let mut t = Tracer::default();
        let batch = t.add("batch", None, 7, 0, 1_000, 1);
        // two workers' points overlap in wall time under one batch
        let a = t.add("point", Some(batch), 7, 100, 600, 1);
        t.add("point", Some(batch), 7, 300, 900, 1);
        // callbacks inside the first point, aggregated end to end
        let next = t.add_aggregate("generate", a, 0, 120, 40);
        assert_eq!(t.add_aggregate("deliver", a, next, 80, 10), 200);
        assert_eq!(t.self_s("batch"), 200.0 / 1e9);
        assert_eq!(t.self_s("point"), (300.0 + 600.0) / 1e9);
        assert_eq!(t.total_s("generate"), 120.0 / 1e9);
        assert_eq!(t.spans()[3].calls, 40);
        assert_eq!(t.spans()[3].request, 7, "aggregates inherit the request id");
        assert_eq!(t.spans()[4].start_ns, 100 + 120);
    }
}
