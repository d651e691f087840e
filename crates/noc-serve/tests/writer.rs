//! The response writer's contract: every response reaches the stream as
//! one whole line, and the stream is flushed per burst — before a batch
//! waits on the evaluation pool, and once when the request line is done
//! — never per line.

use std::io::{self, Write};

use noc_eval::serve::{
    parse_response, PointRequest, ServeRequest, ServeResponse, ServeResult, SweepRequest,
};
use noc_serve::{ServeConfig, Service};
use noc_sim::config::{NetConfig, TopologyKind};
use noc_traffic::PatternKind;

/// Records the bytes of every `write` call and the stream offset of
/// every `flush`; `at_flush` sees the bytes so far at each flush.
struct Counting<F: FnMut(&[u8])> {
    bytes: Vec<u8>,
    writes: Vec<usize>,
    flushes: Vec<usize>,
    at_flush: F,
}

impl<F: FnMut(&[u8])> Counting<F> {
    fn new(at_flush: F) -> Self {
        Self { bytes: Vec::new(), writes: Vec::new(), flushes: Vec::new(), at_flush }
    }
}

impl<F: FnMut(&[u8])> Write for Counting<F> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.writes.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes.push(self.bytes.len());
        (self.at_flush)(&self.bytes);
        Ok(())
    }
}

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig { workers, default_budget: 1_000_000, ..ServeConfig::default() }
}

fn sweep() -> SweepRequest {
    SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(77),
        patterns: vec![PatternKind::Uniform, PatternKind::Transpose],
        loads: vec![0.05, 0.1],
        seeds: 2,
        packet_size: 1,
        warmup: 200,
        measure: 400,
        drain_max: 4_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
        max_attempts: None,
        deadline_ms: None,
    }
}

fn results(text: &str) -> Vec<ServeResult> {
    text.lines()
        .filter_map(|l| match parse_response(l).expect(l) {
            ServeResponse::Result(r) => Some(r),
            _ => None,
        })
        .collect()
}

#[test]
fn a_cached_sweep_is_whole_lines_and_one_flush_at_the_end() {
    let svc = Service::new(cfg(2)).unwrap();
    let sw = sweep();
    let line = ServeRequest::Sweep(Box::new(sw.clone())).to_json();
    let mut cold = Vec::new();
    svc.handle_line(&line, &mut cold).unwrap();
    let first = results(std::str::from_utf8(&cold).unwrap());
    assert_eq!(first.len(), 8);

    let mut out = Counting::new(|_| {});
    svc.handle_line(&line, &mut out).unwrap();

    // the bytes are the schema's own lines, built without the service:
    // sequence numbers run on from the first pass, every point a hit
    let mut want = String::new();
    for (i, (p, r)) in sw.expand().iter().zip(&first).enumerate() {
        let hit = ServeResult {
            batch: "sw".into(),
            point: 8 + i as u64,
            key: p.key(),
            cached: true,
            attempts: 0,
            outcome: r.outcome.clone(),
        };
        want += &ServeResponse::Result(hit).to_json();
        want.push('\n');
    }
    want += &ServeResponse::BatchDone { batch: "sw".into(), points: 8, ok: 8 }.to_json();
    want.push('\n');
    let done = ServeResponse::SweepDone {
        batch: "sw".into(),
        expanded: 8,
        ok: 8,
        degraded: 0,
        shed: 0,
        invalid: 0,
        timeout: 0,
    };
    want += &done.to_json();
    want.push('\n');
    assert_eq!(String::from_utf8(out.bytes.clone()).unwrap(), want);

    assert_eq!(out.flushes, [want.len()], "one flush, after the last line");
    // one write per line, newline included: a `BufWriter` in front only
    // ever holds — and spills — whole lines
    let line_lens: Vec<usize> = want.lines().map(|l| l.len() + 1).collect();
    assert_eq!(out.writes, line_lens);
}

fn point(seed: u64, load: f64) -> PointRequest {
    PointRequest {
        batch: "b".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(seed),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load,
        warmup: 200,
        measure: 500,
        drain_max: 5_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: false,
    }
}

#[test]
fn a_cold_batch_flushes_what_is_in_order_before_waiting_on_a_worker() {
    let wal = std::env::temp_dir().join(format!("noc_serve_writer_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    // one worker evaluates in submission order: the quick head of the
    // batch, then the slow tail (near saturation, a window long enough
    // that the connection thread reaches its flush well inside it)
    let svc = Service::new(ServeConfig { wal: Some(wal.clone()), ..cfg(1) }).unwrap();
    let hits: Vec<_> = (0..4).map(|i| point(301 + i, 0.1)).collect();
    let slow = PointRequest { measure: 50_000, ..point(399, 0.4) };
    let send = |p: &PointRequest, batch: &str, out: &mut dyn Write| {
        let p = PointRequest { batch: batch.into(), ..p.clone() };
        svc.handle_line(&ServeRequest::Point(Box::new(p)).to_json(), out).unwrap();
    };
    let run = |batch: &str, out: &mut dyn Write| {
        let run = ServeRequest::Run { batch: batch.into(), max_attempts: None, deadline_ms: None };
        svc.handle_line(&run.to_json(), out).unwrap();
    };
    let mut warm = Vec::new();
    hits.iter().for_each(|p| send(p, "warm", &mut warm));
    run("warm", &mut warm);

    // at each flush: was the slow point's record journaled yet? (a
    // worker journals its outcome before handing it back)
    let slow_key = format!("{}\t", slow.key());
    let mut slow_done_at_flush = Vec::new();
    let mut out = Counting::new(|_| {
        let journal = std::fs::read_to_string(&wal).unwrap();
        slow_done_at_flush.push(journal.contains(&slow_key));
    });
    send(&point(300, 0.1), "b", &mut out);
    hits.iter().for_each(|p| send(p, "b", &mut out));
    send(&slow, "b", &mut out);
    let admitted = out.flushes.len();
    assert!(out.bytes.is_empty(), "admission is silent");
    run("b", &mut out);

    let Counting { bytes, flushes, .. } = out;
    let text = String::from_utf8(bytes).unwrap();
    let rs = results(&text);
    assert_eq!(
        rs.iter().map(|r| r.cached).collect::<Vec<_>>(),
        [false, true, true, true, true, false]
    );
    for &at in &flushes {
        assert!(at == 0 || text.as_bytes()[at - 1] == b'\n', "flush at {at} splits a line");
    }
    assert_eq!(flushes.last(), Some(&text.len()), "the line is done: everything has left");
    // the head of the batch left while the worker was still on the tail
    let streamed = flushes[admitted..]
        .iter()
        .zip(&slow_done_at_flush[admitted..])
        .any(|(&at, &slow_done)| at > 0 && at < text.len() && !slow_done);
    assert!(streamed, "flushes at {flushes:?} of {}, slow done {slow_done_at_flush:?}", text.len());
    let _ = std::fs::remove_file(&wal);
}
