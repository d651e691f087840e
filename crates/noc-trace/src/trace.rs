//! The trace format: one record per packet generation event.

use noc_sim::flit::Cycle;

/// One captured packet-generation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Generation cycle in the captured run.
    pub cycle: Cycle,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Packet length in flits.
    pub size: u16,
    /// Message class (preserved so replays keep VC partitioning).
    pub class: u8,
}

/// A captured packet trace: the paper's "abstract information of
/// network packets such as the timestamp, packet size, and source and
/// destination".
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of nodes in the captured network.
    pub nodes: usize,
    /// Records in capture order (non-decreasing `cycle`).
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Empty trace for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { nodes, records: Vec::new() }
    }

    /// Append a record (must be pushed in non-decreasing cycle order).
    pub fn push(&mut self, rec: TraceRecord) {
        debug_assert!(
            self.records.last().is_none_or(|last| last.cycle <= rec.cycle),
            "trace records must be captured in time order"
        );
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no packets were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Cycle of the last generation event (the trace's makespan lower
    /// bound).
    pub fn duration(&self) -> Cycle {
        self.records.last().map_or(0, |r| r.cycle)
    }

    /// Total flits across all records.
    pub fn total_flits(&self) -> u64 {
        self.records.iter().map(|r| r.size as u64).sum()
    }

    /// Serialize to a compact line-oriented text format
    /// (`cycle src dst size class` per line, header `nodes N`).
    pub fn to_text(&self) -> String {
        let mut out = format!("nodes {}\n", self.nodes);
        for r in &self.records {
            out.push_str(&format!("{} {} {} {} {}\n", r.cycle, r.src, r.dst, r.size, r.class));
        }
        out
    }

    /// Parse the text format produced by [`Trace::to_text`], refusing
    /// values that overflow their field, off-range nodes and 0-flit packets.
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut lines = s.lines();
        let header = lines.next().ok_or("empty trace")?;
        let nodes = header
            .strip_prefix("nodes ")
            .ok_or("missing `nodes` header")?
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("bad node count: {e}"))?;
        let mut trace = Trace::new(nodes);
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let mut next = |what: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("line {}: missing {what}", i + 2))?
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", i + 2))
            };
            let overflow = |what: &str| format!("line {}: {what} overflows its field", i + 2);
            let rec = TraceRecord {
                cycle: next("cycle")?,
                src: u32::try_from(next("src")?).map_err(|_| overflow("src"))?,
                dst: u32::try_from(next("dst")?).map_err(|_| overflow("dst"))?,
                size: u16::try_from(next("size")?).map_err(|_| overflow("size"))?,
                class: u8::try_from(next("class")?).map_err(|_| overflow("class"))?,
            };
            if rec.src as usize >= nodes || rec.dst as usize >= nodes || rec.size == 0 {
                return Err(format!("line {}: node out of range or a 0-flit packet", i + 2));
            }
            trace.push(rec);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, src: u32, dst: u32) -> TraceRecord {
        TraceRecord { cycle, src, dst, size: 1, class: 0 }
    }

    #[test]
    fn push_and_stats() {
        let mut t = Trace::new(4);
        assert!(t.is_empty());
        t.push(rec(0, 0, 1));
        t.push(TraceRecord { cycle: 5, src: 2, dst: 3, size: 4, class: 1 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.duration(), 5);
        assert_eq!(t.total_flits(), 5);
    }

    #[test]
    fn text_roundtrip() {
        let mut t = Trace::new(8);
        t.push(rec(0, 0, 7));
        t.push(rec(3, 1, 2));
        t.push(TraceRecord { cycle: 9, src: 5, dst: 6, size: 4, class: 1 });
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back.nodes, 8);
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("nodes x\n").is_err());
        assert!(Trace::from_text("nodes 4\n1 9 0 1 0\n").is_err(), "src out of range");
        assert!(Trace::from_text("nodes 4\n1 0\n").is_err(), "truncated line");
        assert!(Trace::from_text("nodes 4\n1 0 1 0 0\n").is_err(), "0-flit record");
        assert!(Trace::from_text("nodes 4\n1 0 1 70000 0\n").is_err(), "size past u16");
        assert!(Trace::from_text("nodes 4\n1 0 1 1 256\n").is_err(), "class past u8");
        assert!(Trace::from_text("nodes 4\n1 4294967296 1 1 0\n").is_err(), "src past u32");
        assert!(Trace::from_text("nodes 4\n\n1 0 1 1 0\n").is_ok(), "blank lines ok");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_order_push_panics_in_debug() {
        let mut t = Trace::new(2);
        t.push(rec(5, 0, 1));
        t.push(rec(3, 1, 0));
    }
}
