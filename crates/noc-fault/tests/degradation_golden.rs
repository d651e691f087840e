//! The `quick` graceful-degradation table (`repro quick
//! ext_degradation`), pinned as literal text: 4x4 mesh, uniform traffic
//! at load 0.15, 0..=4 failed links, rendered with the row format the
//! `repro` entry prints. The engine digests pin the simulator; this
//! pins what the fault layer's ledger and the table show above it,
//! across commits and thread counts.

use noc_exp::PointOutcome;
use noc_fault::{fault_sweep, DegradationConfig};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};

const QUICK_TABLE: &str = "\
0      9452/9452 (100.0%)   0        0          0        6.48      0.1468
1      9454/9454 (100.0%)   0        0          0        6.63      0.1473
2      9642/9642 (100.0%)   0        0          0        6.75      0.1495
3      9725/9725 (100.0%)   0        0          0        6.90      0.1510
4      9624/9624 (100.0%)   1        0          1        7.16      0.1504
";

#[test]
fn quick_degradation_table_is_pinned() {
    // `Effort::quick()`'s windows, spelt out: noc-fault sits below noc-eval
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }),
        load: 0.15,
        warmup: 1_000,
        measure: 3_000,
        drain_max: 30_000,
        ..OpenLoopConfig::default()
    };
    let plans = DegradationConfig::new(base.clone(), 4).plans().expect("valid base");
    let mut table = String::new();
    for (links, outcome) in fault_sweep(&base, &plans, base.drain_max).unwrap().iter().enumerate() {
        let PointOutcome::Ok(p) = outcome else { panic!("quick point must settle: {outcome:?}") };
        table.push_str(&format!(
            "{:<6} {:<20} {:<8} {:<10} {:<8} {:<9.2} {:.4}\n",
            links,
            p.delivered().to_string(),
            p.stats.retransmissions,
            p.stats.transfers_abandoned,
            p.stats.packets_dropped,
            p.avg_latency,
            p.throughput
        ));
    }
    assert_eq!(table, QUICK_TABLE);
}
