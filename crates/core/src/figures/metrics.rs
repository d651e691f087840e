//! Rendering and export for the observability layer: the
//! `noc-eval/metrics/v1` JSON schema, ASCII link-saturation heatmaps and
//! timelines, and the transpose-vs-uniform showcase figure.
//!
//! The JSON is a schema-versioned header, then one record per line,
//! written and read through the shared codec in [`crate::json`]; a
//! file that does not parse degrades with a reason instead of
//! panicking.

use noc_openloop::OpenLoopConfig;
use noc_sim::config::NetConfig;
use noc_sim::{ChannelMetrics, MetricsSnapshot};
use noc_traffic::PatternKind;

use crate::effort::Effort;
use crate::json::{rows, Obj, Record};

/// Schema tag emitted and required by this module.
pub const METRICS_SCHEMA: &str = "noc-eval/metrics/v1";

/// Serialize a snapshot to the `noc-eval/metrics/v1` schema: one
/// channel record per line, one router record per line, so the parser
/// (and humans with grep) can scan it line by line.
pub fn metrics_to_json(s: &MetricsSnapshot) -> String {
    let channels = s.channels.iter().map(|c| {
        let (peak, peak_at) = c.peak();
        Obj::new()
            .val("src", c.src)
            .val("port", c.port)
            .val("dst", c.dst)
            .val("total", c.total)
            .fixed("peak_rate", peak, 4)
            .val("peak_at", peak_at)
            .arr("rates", c.flits.rates().iter().map(|&(_, r)| format!("{r:.4}")))
    });
    let routers = s.routers.iter().map(|r| {
        Obj::new()
            .val("id", r.id)
            .fixed("mean_occupancy", r.occupancy.mean(), 4)
            .fixed("max_occupancy", r.occupancy.max().unwrap_or(0.0), 1)
            .val("credit_stalls", r.credit_stalls)
            .val("sa_conflicts", r.sa_conflicts)
            .val("va_blocked", r.va_blocked)
    });
    Obj::document(METRICS_SCHEMA)
        .val("bin_width", s.bin_width)
        .val("cycles", s.cycles)
        .val("flits_injected", s.flits_injected)
        .val("link_flits", s.link_flits)
        .val("channels", rows(2, channels))
        .val("routers", rows(2, routers))
        .finish()
}

/// The subset of a metrics file the parser recovers — enough
/// to validate conservation and find the hot channels.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMetrics {
    /// Bin width in cycles.
    pub bin_width: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Engine ledger echo: flits injected.
    pub flits_injected: u64,
    /// Engine ledger echo: flits carried across all links.
    pub link_flits: u64,
    /// `(src, port, dst, total)` per channel record.
    pub channels: Vec<(usize, usize, usize, u64)>,
}

/// Parse the `noc-eval/metrics/v1` schema. Unknown fields are ignored;
/// any structural problem returns an error string, never a panic.
pub fn parse_metrics_json(text: &str) -> Result<ParsedMetrics, String> {
    let doc = Record::parse(text)?;
    doc.expect_schema(METRICS_SCHEMA)?;
    let channel =
        |c: &Record<'_>| Ok((c.req("src")?, c.req("port")?, c.req("dst")?, c.req("total")?));
    Ok(ParsedMetrics {
        bin_width: doc.req("bin_width")?,
        cycles: doc.req("cycles")?,
        flits_injected: doc.req("flits_injected")?,
        link_flits: doc.req("link_flits")?,
        channels: doc.records("channels")?.iter().map(channel).collect::<Result<_, String>>()?,
    })
}

/// Parse and check conservation: the per-channel totals must sum to the
/// file's own `link_flits` ledger and, when `expect_link_flits` is
/// given, to the live engine's ledger too.
pub fn validate_metrics_json(
    text: &str,
    expect_link_flits: Option<u64>,
) -> Result<ParsedMetrics, String> {
    let parsed = parse_metrics_json(text)?;
    let sum: u64 = parsed.channels.iter().map(|&(_, _, _, t)| t).sum();
    if sum != parsed.link_flits {
        return Err(format!(
            "conservation violated: channel totals sum to {sum} but link_flits says {}",
            parsed.link_flits
        ));
    }
    if let Some(expect) = expect_link_flits {
        if sum != expect {
            return Err(format!(
                "conservation violated: file carries {sum} link flits but the engine ledger says {expect}"
            ));
        }
    }
    Ok(parsed)
}

/// ASCII link-saturation heatmap: one cell per router on a `k x k`
/// grid, shaded by the utilization of the router's busiest *outgoing*
/// channel relative to the network-wide peak. Falls back to a flat
/// channel listing when the router count is not a perfect square.
pub fn metrics_heatmap(s: &MetricsSnapshot) -> String {
    let n = s.routers.len();
    let k = (n as f64).sqrt().round() as usize;
    if k * k != n || n == 0 {
        let mut out = String::new();
        for c in s.hottest_channels().into_iter().take(8) {
            out.push_str(&format!(
                "channel {} -> {} (port {}): {:.3} flits/cycle\n",
                c.src,
                c.dst,
                c.port,
                c.utilization(s.cycles)
            ));
        }
        return out;
    }
    let peak_util = |r: usize| -> f64 {
        s.channels
            .iter()
            .filter(|c| c.src == r)
            .map(|c| c.utilization(s.cycles))
            .fold(0.0, f64::max)
    };
    let utils: Vec<f64> = (0..n).map(peak_util).collect();
    crate::plot::ascii_heatmap(
        "busiest outgoing channel per router (rows are y):",
        &utils,
        k,
        "flits/cycle",
    )
}

/// One-line description of a channel's saturation behavior.
fn describe_channel(c: &ChannelMetrics, cycles: u64) -> String {
    let (peak, peak_at) = c.peak();
    let sat = c
        .saturated_at(0.95)
        .map(|t| format!("saturated from cycle {t}"))
        .unwrap_or_else(|| "never saturated".into());
    format!(
        "{} -> {} (port {}): {} flits, {:.3} flits/cycle avg, peak {:.3} at cycle {}, {}",
        c.src,
        c.dst,
        c.port,
        c.total,
        c.utilization(cycles),
        peak,
        peak_at,
        sat
    )
}

/// ASCII timeline of the run: network injection rate and the hottest
/// channel's carried rate (both flits/cycle), plus mean buffered
/// occupancy, binned at the collector's bin width.
pub fn metrics_timeline(s: &MetricsSnapshot) -> String {
    let inj: Vec<(f64, f64)> = s.injected.rates().iter().map(|&(c, r)| (c as f64, r)).collect();
    let hot = s.hottest_channels().into_iter().next();
    let hot_pts: Vec<(f64, f64)> = hot
        .map(|c| c.flits.rates().iter().map(|&(t, r)| (t as f64, r)).collect())
        .unwrap_or_default();
    let occ: Vec<(f64, f64)> = s.occupancy.rates().iter().map(|&(c, r)| (c as f64, r)).collect();
    let mut series = vec![crate::plot::Series { label: "injected", points: &inj }];
    if !hot_pts.is_empty() {
        series.push(crate::plot::Series { label: "hottest link", points: &hot_pts });
    }
    let mut out = crate::plot::ascii_plot("flits/cycle over time (x = cycle)", &series, 64, 12);
    out.push_str(&crate::plot::ascii_plot(
        "buffered flits network-wide (x = cycle)",
        &[crate::plot::Series { label: "occupancy", points: &occ }],
        64,
        8,
    ));
    out
}

/// Full text report for one snapshot: summary counters, heatmap,
/// hottest channels with saturation onsets, and the timeline.
pub fn metrics_report(title: &str, s: &MetricsSnapshot) -> String {
    let stalls: u64 = s.routers.iter().map(|r| r.credit_stalls).sum();
    let conflicts: u64 = s.routers.iter().map(|r| r.sa_conflicts).sum();
    let mut out = format!(
        "== metrics: {title} ==\n\
         {} cycles, bin width {}, {} channels, {} flits injected, {} link traversals\n\
         credit stalls {}, switch conflicts {}\n",
        s.cycles,
        s.bin_width,
        s.channels.len(),
        s.flits_injected,
        s.link_flits,
        stalls,
        conflicts,
    );
    out.push_str(&metrics_heatmap(s));
    out.push_str("hottest channels:\n");
    for c in s.hottest_channels().into_iter().take(5) {
        out.push_str(&format!("  {}\n", describe_channel(c, s.cycles)));
    }
    out.push_str(&metrics_timeline(s));
    out
}

/// The observability showcase: the `channel_imbalance` scenario
/// (uniform vs transpose under DOR) run with metrics enabled, so the
/// README's "which link saturated and when" question has a concrete
/// answer with a visible heatmap contrast.
#[derive(Debug, Clone)]
pub struct MetricsShowcase {
    /// Snapshot of the uniform-random run.
    pub uniform: MetricsSnapshot,
    /// Snapshot of the transpose run.
    pub transpose: MetricsSnapshot,
    /// Channel imbalance (max/mean) for (uniform, transpose).
    pub imbalance: (f64, f64),
}

/// Run the showcase: 8x8 mesh, DOR, load 0.1 — the same contrast the
/// `channel_imbalance` unit test pins, now localized in space and time.
pub fn metrics_showcase(effort: &Effort) -> MetricsShowcase {
    let run = |pattern: PatternKind| {
        let cfg = OpenLoopConfig {
            net: NetConfig::baseline().with_metrics(noc_sim::metrics::DEFAULT_BIN_WIDTH),
            pattern,
            load: 0.1,
            warmup: effort.warmup,
            measure: effort.measure,
            drain_max: effort.drain,
            ..OpenLoopConfig::default()
        };
        let r = noc_openloop::measure(&cfg).expect("valid showcase config");
        (r.metrics.expect("metrics enabled"), r.channel_imbalance)
    };
    let (uniform, imb_u) = run(PatternKind::Uniform);
    let (transpose, imb_t) = run(PatternKind::Transpose);
    MetricsShowcase { uniform, transpose, imbalance: (imb_u, imb_t) }
}

impl MetricsShowcase {
    /// Text report: both heatmaps side by side conceptually, with the
    /// hottest transpose channel's saturation onset called out.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== metrics showcase: uniform vs transpose under DOR (8x8 mesh, load 0.1) ==\n\
             channel imbalance: uniform {:.2}, transpose {:.2}\n\
             -- uniform --\n{}",
            self.imbalance.0,
            self.imbalance.1,
            metrics_heatmap(&self.uniform),
        );
        out.push_str(&format!("-- transpose --\n{}", metrics_heatmap(&self.transpose)));
        out.push_str("hottest transpose channels:\n");
        for c in self.transpose.hottest_channels().into_iter().take(3) {
            out.push_str(&format!("  {}\n", describe_channel(c, self.transpose.cycles)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_snapshot() -> MetricsSnapshot {
        let cfg = OpenLoopConfig {
            net: NetConfig::baseline()
                .with_topology(noc_sim::config::TopologyKind::Mesh2D { k: 4 })
                .with_metrics(128),
            load: 0.2,
            warmup: 500,
            measure: 1_500,
            drain_max: 20_000,
            ..OpenLoopConfig::default()
        };
        noc_openloop::measure(&cfg).unwrap().metrics.unwrap()
    }

    #[test]
    fn json_round_trips_and_conserves() {
        let snap = quick_snapshot();
        let json = metrics_to_json(&snap);
        assert!(json.contains(METRICS_SCHEMA));
        let parsed = validate_metrics_json(&json, Some(snap.link_flits)).unwrap();
        assert_eq!(parsed.bin_width, snap.bin_width);
        assert_eq!(parsed.cycles, snap.cycles);
        assert_eq!(parsed.link_flits, snap.link_flits);
        assert_eq!(parsed.channels.len(), snap.channels.len());
        let sum: u64 = parsed.channels.iter().map(|&(_, _, _, t)| t).sum();
        assert_eq!(sum, snap.link_flits);
    }

    #[test]
    fn foreign_or_corrupt_json_degrades_without_panicking() {
        assert!(parse_metrics_json("{}").is_err());
        assert!(parse_metrics_json("{\"schema\": \"noc-eval/serve/v1\"}").is_err());
        // header but no channels
        let hollow = format!(
            "{{\"schema\": \"{METRICS_SCHEMA}\",\n\"bin_width\": 1,\n\"cycles\": 1,\n\
             \"flits_injected\": 0,\n\"link_flits\": 0\n}}"
        );
        assert!(parse_metrics_json(&hollow).is_err());
        // a doctored total breaks conservation
        let snap = quick_snapshot();
        let json = metrics_to_json(&snap).replacen("\"total\": ", "\"total\": 9", 1);
        assert!(validate_metrics_json(&json, None).is_err());
    }

    #[test]
    fn heatmap_and_report_render() {
        let snap = quick_snapshot();
        let hm = metrics_heatmap(&snap);
        assert!(hm.contains("scale"), "{hm}");
        assert_eq!(hm.lines().count(), 1 + 4 + 1, "4x4 grid plus header and legend");
        let report = metrics_report("test point", &snap);
        assert!(report.contains("hottest channels"));
        assert!(report.contains("flits/cycle over time"));
    }

    #[test]
    fn showcase_transpose_is_more_imbalanced() {
        let effort = Effort::quick();
        let sc = metrics_showcase(&effort);
        assert!(sc.imbalance.1 > sc.imbalance.0, "{:?}", sc.imbalance);
        let r = sc.render();
        assert!(r.contains("-- transpose --"));
        assert!(r.contains("saturated"));
    }
}
