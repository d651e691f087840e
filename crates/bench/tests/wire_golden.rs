//! Golden bytes of the `noc-eval/scalability/v1` report, the one file
//! schema emitted from this crate (see `crates/core/tests/wire_golden.rs`
//! for the rest): literal expected text, so a refactor of the emitter
//! must leave this file untouched and still pass it.

use noc_bench::ScalabilityReport;

#[test]
fn scalability_document_is_pinned() {
    let report = ScalabilityReport {
        points: 16,
        host_parallelism: 2,
        identical_results: true,
        entries: vec![(1, 1.23456, 1.0), (2, 0.7, 1.76366)],
    };
    let want = r#"{
  "schema": "noc-eval/scalability/v1",
  "points": 16,
  "host_parallelism": 2,
  "identical_results": true,
  "entries": [
    {"threads": 1, "wall_s": 1.2346, "speedup_vs_serial": 1.000},
    {"threads": 2, "wall_s": 0.7000, "speedup_vs_serial": 1.764}
  ]
}
"#;
    assert_eq!(report.to_json(), want);
}
