//! Regenerates the paper's tables and figures, printing each block as
//! it completes (with wall-clock timings). [`ENTRIES`] is the one
//! index of regenerators: DESIGN.md §5/§5b name its entries.
//!
//! Usage: `cargo run --release -p noc-bench --bin repro -- [quick|paper] [NAME…]`
//! runs the named entries, or every entry when none is named, in table
//! order.

use std::fmt::Write as _;
use std::time::Instant;

use noc_eval::{figures, Effort};

/// One regenerator: its name on the command line and the function
/// rendering its text block.
type Entry = (&'static str, fn(&Effort) -> String);

const ENTRIES: &[Entry] = &[
    ("verify", verify),
    ("table1", |_| figures::table1()),
    ("table2", |_| figures::table2()),
    ("fig01", |e| figures::fig01(e).render()),
    ("fig02", |e| figures::fig02(e).render()),
    ("fig03", |e| {
        let f = figures::fig03(e);
        format!("{}zero-load ratios vs tr=1: {:?}", f.render(), f.zero_load_ratios())
    }),
    ("fig04", |e| figures::fig04(e).render()),
    ("fig05", |e| figures::fig05(e).render()),
    ("fig06", |e| format!("{}{}", figures::fig06a(e).render(), figures::fig06b(e).render())),
    ("fig07", |e| figures::fig07(e).render()),
    ("fig08", |e| figures::fig08(e).render()),
    ("fig09", |e| figures::fig09(e).render()),
    ("fig10", |e| {
        let f = figures::fig10(e);
        format!(
            "{}VAL/DOR at m=1 transpose: {:.3} (paper: ~1.017)",
            f.render(),
            f.val_over_dor_transpose_m1()
        )
    }),
    ("fig11", |e| figures::fig11(e).render()),
    ("fig12", |_| figures::fig12().render()),
    ("fig13", |e| figures::fig13(e).render()),
    ("fig14", |e| figures::fig14(e).render()),
    ("fig15", |e| {
        let o = figures::fig15(e);
        let mut out = format!(
            "== Fig 15: exec-driven vs plain batch ==\nr = {:.4} (paper: 0.829)\n",
            o.r.unwrap_or(f64::NAN)
        );
        for p in &o.points {
            let _ = writeln!(
                out,
                "{:<14} tr={} exec={:.3} batch={:.3}",
                p.benchmark, p.tr, p.cmp_norm, p.batch_norm
            );
        }
        out
    }),
    ("fig16", |e| {
        let f = figures::fig16(e);
        let (lo, hi) = f.tr4_sensitivity();
        format!("{}tr=4 runtime penalty at NAR=0.04: {lo:.3}x; at NAR=1.0: {hi:.3}x\n", f.render())
    }),
    ("fig17", |e| figures::fig17(e).render()),
    // Figs 18 and 19 are two views of one data set: the per-benchmark
    // runtimes, then their correlation with the exec-driven runs
    ("fig18", |e| figures::fig19(e).render()),
    ("fig19", |e| {
        let mut out = String::from("== Fig 19: correlations ==\n");
        for (label, r) in figures::fig19(e).correlations() {
            let _ = writeln!(out, "{label:<12} r = {r:.4}");
        }
        out.push_str("(paper: BA 0.829; extended models improve, BA_inj+re before OS modeling)\n");
        out
    }),
    ("fig20", |e| {
        let f = figures::fig20(e);
        format!(
            "{}kernel share: 75 MHz {:.0}%, 3 GHz {:.0}%\n",
            f.render(),
            f.kernel_fraction("75 MHz") * 100.0,
            f.kernel_fraction("3 GHz") * 100.0
        )
    }),
    ("fig21", |e| figures::fig21(e).render()),
    ("fig22", |e| figures::fig22(e).render()),
    ("table3", |e| figures::table3(e).render()),
    ("table4", |_| figures::table4()),
    ("ext_pktsize", |e| figures::ext_pktsize(e).render()),
    ("ext_scale256", |e| figures::ext_scale256(e).render()),
    ("ext_arbitration", |e| figures::ext_arbitration(e).render()),
    ("ext_barrier", |e| figures::ext_barrier(e).render()),
    ("ext_burst", |e| figures::ext_burst(e).render()),
    ("ext_trace", |e| figures::ext_trace(e).render()),
    ("ext_bottleneck", |e| figures::ext_bottleneck(e).render()),
    ("ext_patterns", ext_patterns),
    ("ext_degradation", ext_degradation),
    ("ext_resilience", |e| figures::resilience_figure(e).render()),
    ("metrics", |e| figures::metrics_showcase(e).render()),
    ("analytic", |e| {
        noc_eval::analytic_study(&noc_eval::default_cases(), e, 300.0)
            .expect("default analytic cases are valid configurations")
            .render()
    }),
    ("sim_speed", figures::sim_speed),
];

/// Prove the sweep's network configurations deadlock-free before
/// spending hours simulating them.
fn verify(_: &Effort) -> String {
    use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
    let configs = [
        NetConfig::baseline(),
        NetConfig::baseline().with_topology(TopologyKind::FoldedTorus2D { k: 8 }),
        NetConfig::baseline().with_topology(TopologyKind::Ring { n: 64 }),
        NetConfig::baseline().with_routing(RoutingKind::Valiant).with_vcs(2),
        NetConfig::baseline().with_routing(RoutingKind::Romm).with_vcs(2),
        NetConfig::baseline().with_routing(RoutingKind::MinAdaptive).with_vcs(2),
    ];
    // static analysis per config is independent — fan it out
    noc_exp::run_grid(&configs, |_, c| noc_verify::verify(c).one_line()).join("\n")
}

/// Extension: the paper's remaining Table I traffic patterns — "other
/// traffic patterns including bit reversal and bit complement were
/// simulated but follow a similar trend" (Section III-D). Runs the
/// routing comparison under those patterns so the claim is checkable
/// rather than taken on faith.
fn ext_patterns(e: &Effort) -> String {
    use noc_closedloop::BatchConfig;
    use noc_sim::config::{NetConfig, RoutingKind};
    use noc_traffic::PatternKind;

    let mut out = format!(
        "== Ext: bit-reversal / bit-complement routing comparison (batch) ==\n\
         {:<10} {:<9} {:<6} {:>10} {:>9}\n",
        "pattern", "routing", "m", "runtime", "theta"
    );
    for pattern in [PatternKind::BitReversal, PatternKind::BitComplement] {
        for routing in
            [RoutingKind::Dor, RoutingKind::MinAdaptive, RoutingKind::Romm, RoutingKind::Valiant]
        {
            for m in [1usize, 32] {
                let cfg = BatchConfig {
                    net: NetConfig::baseline().with_routing(routing).with_vcs(4),
                    pattern,
                    batch: e.batch,
                    max_outstanding: m,
                    ..BatchConfig::default()
                };
                let r = noc_closedloop::run_batch(&cfg).expect("valid config");
                let _ = writeln!(
                    out,
                    "{:<10} {:<9?} {:<6} {:>10} {:>9.4}",
                    pattern.to_string(),
                    routing,
                    m,
                    r.runtime,
                    r.throughput
                );
            }
        }
    }
    out.push_str(
        "\nexpected: same story as transpose (Fig 10) — load-balanced routing\n\
         wins on throughput at high m; worst-case m=1 runtimes stay close.\n",
    );
    out
}

/// Extension: graceful degradation — delivered fraction,
/// retransmissions and post-fault latency/throughput vs. number of
/// failed links on the 8x8 mesh (4x4 under `quick`), uniform traffic
/// at moderate load. Each point runs through the crash-proof grid: a
/// panicking or non-settling fault scenario is reported in place, never
/// able to poison the rest of the curve. Byte-identical across runs and
/// thread counts; `noc-fault`'s `degradation_golden` test pins the
/// `quick` rows.
fn ext_degradation(e: &Effort) -> String {
    use noc_exp::PointOutcome;
    use noc_fault::{degradation_sweep, DegradationConfig};
    use noc_openloop::OpenLoopConfig;
    use noc_sim::config::{NetConfig, TopologyKind};

    let quick = e.warmup < 5_000;
    let k = if quick { 4 } else { 8 };
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k }),
        load: 0.15,
        warmup: e.warmup,
        measure: e.measure,
        drain_max: e.drain,
        ..OpenLoopConfig::default()
    };
    let max_links = if quick { 4 } else { 8 };
    let cfg = DegradationConfig::new(base, max_links);

    let mut out = format!(
        "== graceful degradation: {k}x{k} mesh, uniform, load 0.15 ==\n\
         links  delivered            retx     abandoned  dropped  latency   thruput"
    );
    for outcome in degradation_sweep(&cfg) {
        out.push('\n');
        let _ = match outcome {
            PointOutcome::Ok(p) => write!(
                out,
                "{:<6} {:<20} {:<8} {:<10} {:<8} {:<9.2} {:.4}",
                p.failed_links,
                p.delivered.to_string(),
                p.retransmissions,
                p.abandoned,
                p.packets_dropped,
                p.avg_latency,
                p.throughput
            ),
            PointOutcome::Panicked { message } => write!(out, "point PANICKED: {message}"),
            PointOutcome::Diverged { budget } => {
                write!(out, "point DIVERGED (budget {budget} cycles)")
            }
        };
    }
    out
}

fn main() {
    let names: Vec<&str> = ENTRIES.iter().map(|&(name, _)| name).collect();
    let (effort, selected) = noc_bench::parse_args(&names);
    let total = Instant::now();
    for &(name, render) in ENTRIES {
        if selected.is_empty() || selected.contains(&name) {
            let start = Instant::now();
            println!("{}", render(&effort));
            println!("[{name}: {:.1}s]\n", start.elapsed().as_secs_f64());
        }
    }
    println!("[total: {:.1}s]", total.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regenerator column of DESIGN.md §5 and §5b: the name after
    /// `repro ` in the last cell of every table row.
    fn design_regenerators() -> Vec<&'static str> {
        let design = include_str!("../../../../DESIGN.md");
        let start = design.find("\n## 5. ").expect("DESIGN.md has a section 5");
        let end = design.find("\n## 6. ").expect("DESIGN.md has a section 6");
        design[start..end]
            .lines()
            .filter(|row| row.starts_with("| ") && !row.starts_with("| ID "))
            .map(|row| {
                let cell = row.trim_end_matches('|').rsplit('|').next().unwrap_or("").trim();
                cell.strip_prefix("`repro ")
                    .and_then(|c| c.strip_suffix('`'))
                    .unwrap_or_else(|| panic!("regenerator cell is not `repro NAME`: {row}"))
            })
            .collect()
    }

    #[test]
    fn entry_table_is_unique_indexed_by_design_md_and_renders() {
        let names: Vec<&str> = ENTRIES.iter().map(|&(name, _)| name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "duplicate entry `{name}`");
        }

        let indexed = design_regenerators();
        for r in &indexed {
            assert!(names.contains(r), "DESIGN.md names `{r}`, not a repro entry");
        }
        for name in
            names.iter().filter(|n| !["verify", "metrics", "analytic", "sim_speed"].contains(n))
        {
            assert!(indexed.contains(name), "entry `{name}` missing from DESIGN.md §5");
        }

        let quick = Effort::quick();
        for cheap in ["table1", "table2", "table4", "fig12", "ext_degradation"] {
            let &(_, render) = ENTRIES.iter().find(|&&(n, _)| n == cheap).expect("cheap entry");
            assert!(!render(&quick).trim().is_empty(), "`{cheap}` rendered nothing");
        }
    }
}
