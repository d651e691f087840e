//! Opt-in in-simulation observability.
//!
//! When enabled (via [`crate::config::NetConfig::metrics`] or
//! [`crate::network::Network::enable_metrics`]), the engine records
//! cycle-bucketed per-channel flit counts, per-router buffer occupancy,
//! and credit-stall / switch-conflict counters, so a run can answer
//! "which link saturated, and when" instead of only end-of-run
//! aggregates.
//!
//! # Cost model
//!
//! The collector is a `Option<Box<...>>` field on the network, exactly
//! like the fault layer: when disabled the entire subsystem is one
//! branch per cycle and the simulation is bit-identical to an
//! uninstrumented run (the digest proptests pin this). When enabled,
//! per-cycle work is O(routers) (occupancy sampling) plus O(links) once
//! per bin — the per-channel counts are *diffed* from the engine's
//! existing [`crate::channel::Link::flits_carried`] ledger at bin
//! boundaries rather than hooked per flit, so even instrumented runs
//! add no work to the flit hot path.
//!
//! The collector only ever *reads* engine state (counters, occupancy);
//! it never touches the RNG, buffers, or schedules, which is what makes
//! the metrics-on digest guarantee structural rather than accidental.

use noc_stats::{OnlineStats, TimeSeries};

use crate::channel::Link;
use crate::flit::Cycle;
use crate::network::NetStats;
use crate::router::RouterSlab;

/// Default metrics bin width in cycles — fine enough to localize
/// saturation onsets in the quick test configurations, coarse enough
/// that a million-cycle run stays a few thousand bins.
pub const DEFAULT_BIN_WIDTH: u64 = 256;

/// Cycle-bucketed flit counts for one directed channel.
#[derive(Debug, Clone)]
pub struct ChannelMetrics {
    /// Source router of the channel.
    pub src: usize,
    /// Output port at the source router (1-based; 0 is ejection).
    pub port: usize,
    /// Destination router.
    pub dst: usize,
    /// Total flits carried over the run — equals the engine's
    /// [`crate::channel::Link::flits_carried`] ledger for this link.
    pub total: u64,
    /// Binned flit counts; rate = flits/cycle over each bin.
    pub flits: TimeSeries,
}

impl ChannelMetrics {
    /// Peak per-cycle rate over all bins and the start cycle of the bin
    /// where it first occurred. `(0.0, 0)` for an idle channel.
    pub fn peak(&self) -> (f64, Cycle) {
        let mut best = (0.0f64, 0u64);
        for (start, rate) in self.flits.rates() {
            if rate > best.0 {
                best = (rate, start);
            }
        }
        best
    }

    /// Mean utilization (flits/cycle) over `cycles` simulated cycles.
    pub fn utilization(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total as f64 / cycles as f64
        }
    }

    /// Start cycle of the first bin whose rate reached `frac` of the
    /// channel's peak rate — "when did this link saturate". `None` for
    /// an idle channel.
    pub fn saturated_at(&self, frac: f64) -> Option<Cycle> {
        let (peak, _) = self.peak();
        if peak <= 0.0 {
            return None;
        }
        self.flits.rates().into_iter().find(|&(_, r)| r >= frac * peak).map(|(start, _)| start)
    }
}

/// Per-router counters and occupancy statistics.
#[derive(Debug, Clone)]
pub struct RouterMetrics {
    /// Router id.
    pub id: usize,
    /// Buffered-flit occupancy, sampled once per cycle while metrics
    /// were enabled.
    pub occupancy: OnlineStats,
    /// Switch bids rejected for lack of downstream credits
    /// ([`crate::router::PipelineStats::sa_credit_starved`]).
    pub credit_stalls: u64,
    /// Switch bids that lost output-port arbitration
    /// ([`crate::router::PipelineStats::sa_conflicts`]).
    pub sa_conflicts: u64,
    /// VC-allocation attempts that found no free output VC.
    pub va_blocked: u64,
}

/// Everything the collector recorded, in plain-data form.
///
/// Produced by [`crate::network::Network::metrics_snapshot`]; rendering
/// and JSON export live in the `core` crate's figure layer.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Bin width in cycles.
    pub bin_width: u64,
    /// Cycles simulated when the snapshot was taken.
    pub cycles: Cycle,
    /// Per-channel cycle-bucketed flit counts (connected links only).
    pub channels: Vec<ChannelMetrics>,
    /// Per-router occupancy and stall counters.
    pub routers: Vec<RouterMetrics>,
    /// Network-wide buffered-flit occupancy; each cycle contributes its
    /// total buffered flits, so a bin's rate is the mean occupancy over
    /// that bin.
    pub occupancy: TimeSeries,
    /// Network-wide injection over time (flits/cycle per bin).
    pub injected: TimeSeries,
    /// Network-wide credit stalls over time (events/cycle per bin).
    pub credit_stalls: TimeSeries,
    /// Network-wide switch conflicts over time (events/cycle per bin).
    pub sa_conflicts: TimeSeries,
    /// Engine ledger echo: total flits injected.
    pub flits_injected: u64,
    /// Engine ledger echo: total flits carried across all links — must
    /// equal the sum of per-channel totals (conservation).
    pub link_flits: u64,
}

impl MetricsSnapshot {
    /// Channels sorted by total flits, busiest first.
    pub fn hottest_channels(&self) -> Vec<&ChannelMetrics> {
        let mut v: Vec<&ChannelMetrics> = self.channels.iter().collect();
        v.sort_by(|a, b| b.total.cmp(&a.total).then(a.src.cmp(&b.src)).then(a.port.cmp(&b.port)));
        v
    }

    /// Conservation check: the sum of per-channel totals must equal the
    /// engine's link ledger. Returns the two sums on mismatch.
    pub fn check_conservation(&self) -> Result<(), (u64, u64)> {
        let sum: u64 = self.channels.iter().map(|c| c.total).sum();
        if sum == self.link_flits {
            Ok(())
        } else {
            Err((sum, self.link_flits))
        }
    }
}

/// The in-engine collector. Owned by the network as an
/// `Option<Box<Collector>>`; all methods only read engine state.
#[derive(Debug)]
pub(crate) struct Collector {
    bin_width: u64,
    /// `flits_carried` at the last bin flush, per link slot (same
    /// indexing as the network's link vector, `u64::MAX` for gaps).
    prev_link: Vec<u64>,
    /// Binned per-channel counts, parallel to `prev_link`.
    link_series: Vec<TimeSeries>,
    /// Network-wide counter values at the last bin flush.
    prev_injected: u64,
    prev_stalls: u64,
    prev_conflicts: u64,
    /// Cycle up to which bins have been flushed (exclusive).
    flushed_to: Cycle,
    per_router_occ: Vec<OnlineStats>,
    occupancy: TimeSeries,
    injected: TimeSeries,
    credit_stalls: TimeSeries,
    sa_conflicts: TimeSeries,
}

impl Collector {
    /// New collector for a network with `links` link slots and `routers`
    /// routers.
    pub(crate) fn new(bin_width: u64, links: usize, routers: usize) -> Self {
        assert!(bin_width > 0, "metrics bin width must be positive");
        Self {
            bin_width,
            prev_link: vec![0; links],
            link_series: (0..links).map(|_| TimeSeries::new(bin_width)).collect(),
            prev_injected: 0,
            prev_stalls: 0,
            prev_conflicts: 0,
            flushed_to: 0,
            per_router_occ: (0..routers).map(|_| OnlineStats::new()).collect(),
            occupancy: TimeSeries::new(bin_width),
            injected: TimeSeries::new(bin_width),
            credit_stalls: TimeSeries::new(bin_width),
            sa_conflicts: TimeSeries::new(bin_width),
        }
    }

    /// Baseline the delta trackers to the engine's current counters, so
    /// a collector enabled mid-run reports only traffic from now on in
    /// its binned series (totals still echo the absolute ledgers).
    pub(crate) fn resync(
        &mut self,
        links: &[Option<Link>],
        routers: &RouterSlab,
        stats: &NetStats,
    ) {
        for (i, slot) in links.iter().enumerate() {
            if let Some(l) = slot.as_ref() {
                self.prev_link[i] = l.flits_carried;
            }
        }
        let mut stalls = 0u64;
        let mut conflicts = 0u64;
        for p in routers.pipelines() {
            stalls += p.sa_credit_starved;
            conflicts += p.sa_conflicts;
        }
        self.prev_stalls = stalls;
        self.prev_conflicts = conflicts;
        self.prev_injected = stats.flits_injected;
    }

    /// Record cycle `t`. Called once per cycle after the pipeline stages
    /// ran; flushes counter deltas into bins at bin boundaries.
    pub(crate) fn tick(
        &mut self,
        t: Cycle,
        routers: &RouterSlab,
        links: &[Option<Link>],
        stats: &NetStats,
    ) {
        let mut total_occ = 0u64;
        for (&o, occ) in routers.occupancies().iter().zip(self.per_router_occ.iter_mut()) {
            occ.push(o as f64);
            total_occ += o as u64;
        }
        self.occupancy.push(t, total_occ as f64);
        if (t + 1).is_multiple_of(self.bin_width) {
            self.flush(t, links, stats);
            self.flush_pipeline(t, routers);
        }
    }

    /// Fold counter deltas since the last flush into the bin containing
    /// cycle `t`.
    fn flush(&mut self, t: Cycle, links: &[Option<Link>], stats: &NetStats) {
        for (i, slot) in links.iter().enumerate() {
            let Some(link) = slot.as_ref() else { continue };
            let delta = link.flits_carried - self.prev_link[i];
            if delta > 0 {
                self.link_series[i].push(t, delta as f64);
                self.prev_link[i] = link.flits_carried;
            }
        }
        let inj = stats.flits_injected;
        if inj > self.prev_injected {
            self.injected.push(t, (inj - self.prev_injected) as f64);
            self.prev_injected = inj;
        }
        self.flushed_to = t + 1;
    }

    /// Flush pipeline-counter deltas since the last bin boundary.
    fn flush_pipeline(&mut self, t: Cycle, routers: &RouterSlab) {
        let mut stalls = 0u64;
        let mut conflicts = 0u64;
        for p in routers.pipelines() {
            stalls += p.sa_credit_starved;
            conflicts += p.sa_conflicts;
        }
        if stalls > self.prev_stalls {
            self.credit_stalls.push(t, (stalls - self.prev_stalls) as f64);
            self.prev_stalls = stalls;
        }
        if conflicts > self.prev_conflicts {
            self.sa_conflicts.push(t, (conflicts - self.prev_conflicts) as f64);
            self.prev_conflicts = conflicts;
        }
    }

    /// Build the plain-data snapshot, flushing any partial bin first so
    /// totals match the engine ledgers exactly.
    pub(crate) fn snapshot(
        &mut self,
        cycle: Cycle,
        ports: usize,
        routers: &RouterSlab,
        links: &[Option<Link>],
        stats: &NetStats,
    ) -> MetricsSnapshot {
        if cycle > self.flushed_to {
            self.flush(cycle - 1, links, stats);
            self.flush_pipeline(cycle - 1, routers);
        }
        let mut channels = Vec::new();
        let mut link_flits = 0u64;
        for (i, slot) in links.iter().enumerate() {
            let Some(link) = slot.as_ref() else { continue };
            link_flits += link.flits_carried;
            channels.push(ChannelMetrics {
                src: i / (ports - 1),
                port: i % (ports - 1) + 1,
                dst: link.dst_router,
                total: link.flits_carried,
                flits: self.link_series[i].clone(),
            });
        }
        let router_metrics = routers
            .pipelines()
            .iter()
            .zip(self.per_router_occ.iter())
            .enumerate()
            .map(|(i, (p, occ))| RouterMetrics {
                id: i,
                occupancy: occ.clone(),
                credit_stalls: p.sa_credit_starved,
                sa_conflicts: p.sa_conflicts,
                va_blocked: p.va_blocked,
            })
            .collect();
        MetricsSnapshot {
            bin_width: self.bin_width,
            cycles: cycle,
            channels,
            routers: router_metrics,
            occupancy: self.occupancy.clone(),
            injected: self.injected.clone(),
            credit_stalls: self.credit_stalls.clone(),
            sa_conflicts: self.sa_conflicts.clone(),
            flits_injected: stats.flits_injected,
            link_flits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_peak_and_saturation() {
        let mut c =
            ChannelMetrics { src: 0, port: 1, dst: 1, total: 0, flits: TimeSeries::new(10) };
        // ramp: bin 0 quiet, bin 1 half rate, bin 2 peak
        c.flits.push(5, 1.0);
        c.flits.push(15, 5.0);
        c.flits.push(25, 10.0);
        c.total = 16;
        let (peak, at) = c.peak();
        assert!((peak - 1.0).abs() < 1e-12);
        assert_eq!(at, 20);
        assert_eq!(c.saturated_at(0.45), Some(10), "half-rate bin crosses 45% of peak");
        assert_eq!(c.saturated_at(0.95), Some(20));
        assert!((c.utilization(32) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_channel_never_saturates() {
        let c = ChannelMetrics { src: 0, port: 1, dst: 1, total: 0, flits: TimeSeries::new(10) };
        assert_eq!(c.peak(), (0.0, 0));
        assert_eq!(c.saturated_at(0.9), None);
        assert_eq!(c.utilization(0), 0.0);
    }
}
