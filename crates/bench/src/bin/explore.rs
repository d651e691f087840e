//! `explore` — interactive design-space exploration from the command
//! line: pick a topology/routing/router configuration and a workload,
//! get both the open-loop (network) and batch (system) views.
//!
//! ```text
//! cargo run --release -p noc-bench --bin explore -- \
//!     --topology mesh8 --routing dor --vcs 2 --buf 4 --tr 1 \
//!     --pattern uniform --load 0.2 --batch 1000 --m 4
//! ```
//!
//! Every flag has a baseline default, so `explore` with no arguments
//! reproduces the paper's Table I bold row.

use noc_closedloop::BatchConfig;
use noc_eval::serve::{parse_arb, parse_routing, parse_topology};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::NetConfig;
use noc_traffic::{PatternKind, SizeKind};

/// Printed on any argument error. The topology, routing, arbitration
/// and pattern names are the `noc-eval/serve/v1` wire names.
const USAGE: &str = "\
flags: --topology meshK|torusK|ftorusK|ringN  --routing dor|val|romm|ma
       --vcs N --buf N --tr N --arb rr|age --seed N
       --pattern uniform|transpose|bitcomp|bitrev|shuffle|tornado|neighbor|hotspot:NODE:FRAC
       --size 1|N|bimodal --load F --batch N --m N
       --metrics BIN_WIDTH --metrics-out FILE.json --analytic";

struct Args {
    net: NetConfig,
    pattern: PatternKind,
    size: SizeKind,
    load: f64,
    batch: u64,
    m: usize,
    metrics_out: Option<String>,
    analytic: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut net = NetConfig::baseline();
    let mut pattern = PatternKind::Uniform;
    let mut size = SizeKind::Fixed(1);
    let mut load = 0.2f64;
    let mut batch = 1000u64;
    let mut m = 4usize;
    let mut metrics_out = None;
    let mut analytic = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--analytic" {
            analytic = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--topology" => {
                net.topology =
                    parse_topology(val).ok_or_else(|| format!("unknown topology `{val}`"))?
            }
            "--routing" => {
                net.routing =
                    parse_routing(val).ok_or_else(|| format!("unknown routing `{val}`"))?
            }
            "--vcs" => net.vcs = val.parse().map_err(|e| format!("--vcs: {e}"))?,
            "--buf" => net.vc_buf = val.parse().map_err(|e| format!("--buf: {e}"))?,
            "--tr" => net.router_delay = val.parse().map_err(|e| format!("--tr: {e}"))?,
            "--arb" => {
                net.arbitration =
                    parse_arb(val).ok_or_else(|| format!("unknown arbitration `{val}`"))?
            }
            "--seed" => net.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--pattern" => {
                pattern =
                    PatternKind::parse(val).ok_or_else(|| format!("unknown pattern `{val}`"))?
            }
            "--size" => {
                size = match val.as_str() {
                    "1" => SizeKind::Fixed(1),
                    "bimodal" => SizeKind::Bimodal { short: 1, long: 4, p_long: 0.5 },
                    other => SizeKind::Fixed(other.parse().map_err(|e| format!("--size: {e}"))?),
                }
            }
            "--load" => load = val.parse().map_err(|e| format!("--load: {e}"))?,
            "--batch" => batch = val.parse().map_err(|e| format!("--batch: {e}"))?,
            "--m" => m = val.parse().map_err(|e| format!("--m: {e}"))?,
            "--metrics" => {
                net = net.with_metrics(val.parse().map_err(|e| format!("--metrics: {e}"))?)
            }
            "--metrics-out" => metrics_out = Some(val.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if metrics_out.is_some() && net.metrics.is_none() {
        // writing a metrics file implies collecting metrics
        net = net.with_metrics(noc_sim::metrics::DEFAULT_BIN_WIDTH);
    }
    Ok(Args { net, pattern, size, load, batch, m, metrics_out, analytic })
}

/// Write the `noc-eval/metrics/v1` JSON, then read it back and
/// validate it against the schema and the live engine's flit ledger —
/// so `--metrics-out` doubles as an end-to-end smoke test of the
/// export path (CI runs exactly this).
fn export_metrics(snap: &noc_sim::MetricsSnapshot, path: &str) -> Result<(), String> {
    let json = noc_eval::figures::metrics_to_json(snap);
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read back {path}: {e}"))?;
    noc_eval::figures::validate_metrics_json(&text, Some(snap.link_flits))?;
    Ok(())
}

fn main() {
    let Args { net, pattern, size, load, batch, m, metrics_out, analytic } = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    if let Err(e) = net.validate() {
        eprintln!("invalid network configuration: {e}");
        // The full report explains *why* — including a concrete CDG
        // cycle witness when the configuration can deadlock.
        eprintln!("{}", noc_verify::verify(&net));
        std::process::exit(2);
    }
    if let Err(e) = pattern.validate(&net.topology) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let topo = net.topology.build();
    println!("{}", noc_verify::verify(&net).one_line());
    println!(
        "network: {} | {:?} routing | {} VCs x {} flits | tr={} | {:?}",
        topo.name(),
        net.routing,
        net.vcs,
        net.vc_buf,
        net.router_delay,
        net.arbitration
    );
    println!("workload: {pattern} pattern, {size:?} packets\n");

    // Static analysis first: route enumeration plus the queueing model
    // need no simulation, so the analytic view prints immediately.
    let report = if analytic {
        match noc_analytic::analyze(&net, pattern, size, load) {
            Ok(rep) => {
                println!("{}", rep.one_line());
                for f in &rep.findings {
                    println!("  [{}] {}: {}", f.severity, f.check, f.message);
                }
                println!("\n{}", noc_eval::load_heatmap(&rep.model));
                Some(rep)
            }
            Err(e) => {
                eprintln!("analytic model failed: {e}");
                None
            }
        }
    } else {
        None
    };
    let analytic_net = net.clone();

    // the open-loop and batch views are independent simulations — run
    // them on both cores
    let open_net = net.clone();
    let (open, closed) = noc_exp::join(
        move || {
            noc_openloop::measure(&OpenLoopConfig {
                net: open_net,
                pattern,
                size,
                load,
                ..OpenLoopConfig::default()
            })
        },
        move || {
            noc_closedloop::run_batch(&BatchConfig {
                net,
                pattern,
                batch,
                max_outstanding: m,
                ..BatchConfig::default()
            })
        },
    );
    match open {
        Ok(r) => {
            println!("open-loop @ {load} flits/cycle/node:");
            println!("  avg latency     {:.1} cycles", r.avg_latency);
            println!("  worst-node avg  {:.1} cycles", r.worst_node_latency);
            println!("  throughput      {:.4} flits/cycle/node", r.throughput);
            println!("  stable          {}", r.stable);
            if let Some(snap) = &r.metrics {
                println!("\n{}", noc_eval::figures::metrics_report("open-loop run", snap));
                if let Some(path) = &metrics_out {
                    if let Err(e) = export_metrics(snap, path) {
                        eprintln!("metrics export failed: {e}");
                        std::process::exit(1);
                    }
                    println!("metrics written to {path} (schema validated, flits conserved)");
                }
            }
        }
        Err(e) => println!("open-loop failed: {e}"),
    }

    // closed-loop view
    match closed {
        Ok(r) => {
            println!("\nbatch model (b={batch}, m={m}):");
            println!("  runtime         {} cycles", r.runtime);
            println!("  normalized      {:.2} cycles/op", r.normalized_runtime);
            println!("  throughput      {:.4} flits/cycle/node", r.throughput);
            let best = *r.per_node_runtime.iter().min().unwrap_or(&1) as f64;
            let worst = *r.per_node_runtime.iter().max().unwrap_or(&1) as f64;
            println!("  node spread     {:.2}x", worst / best.max(1.0));
        }
        Err(e) => println!("batch model failed: {e}"),
    }

    // Predicted-vs-measured overlay: a short open-loop sweep up to just
    // past the predicted saturation point, plotted against the model's
    // latency curve.
    if let Some(rep) = &report {
        let sat = rep.model.effective_saturation.min(1.0);
        let loads: Vec<f64> = (1..=6).map(|i| 1.15 * sat * i as f64 / 6.0).collect();
        let points = noc_openloop::sweep(
            &OpenLoopConfig { net: analytic_net, pattern, size, ..OpenLoopConfig::default() },
            &loads,
        );
        println!(
            "\n{}",
            noc_eval::analytic_overlay(
                "predicted vs measured latency (cycles)",
                &rep.model,
                &points
            )
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_eval::serve::{arb_name, routing_name, topology_name};

    /// The `|`-separated names `USAGE` lists after `flag`, with the
    /// placeholders filled in.
    fn usage_names(flag: &str) -> Vec<String> {
        let list = USAGE.split(flag).nth(1).expect("flag in usage");
        let list = list.split_whitespace().next().expect("names after the flag");
        list.split('|').map(|n| n.replace("NODE:FRAC", "5:0.25").replace(['K', 'N'], "8")).collect()
    }

    /// `parse_x(n) == Some(v)` and `x_name(v) == n`, so
    /// `parse_x(x_name(v)) == Some(v)`: one name table, both ways.
    #[test]
    fn every_name_in_usage_is_the_wire_name_of_what_it_parses_to() {
        for n in usage_names("--topology ") {
            let v = parse_topology(&n).unwrap_or_else(|| panic!("topology `{n}`"));
            assert_eq!(topology_name(v), n);
        }
        for n in usage_names("--routing ") {
            let v = parse_routing(&n).unwrap_or_else(|| panic!("routing `{n}`"));
            assert_eq!(routing_name(v), n);
        }
        for n in usage_names("--arb ") {
            let v = parse_arb(&n).unwrap_or_else(|| panic!("arbitration `{n}`"));
            assert_eq!(arb_name(v), n);
        }
        for n in usage_names("--pattern ") {
            let v = PatternKind::parse(&n).unwrap_or_else(|| panic!("pattern `{n}`"));
            assert_eq!(v.to_string(), n);
        }
        assert_eq!(usage_names("--topology "), ["mesh8", "torus8", "ftorus8", "ring8"]);
        assert_eq!(usage_names("--pattern ").len(), 8);
    }
}
