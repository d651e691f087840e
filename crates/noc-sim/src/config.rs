//! Network configuration: the parameter space of Table I.

use crate::error::ConfigError;
use crate::routing::VcBook;

/// Switch/VC arbitration policy (Table I: round robin, age-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Rotating round-robin priority (default).
    RoundRobin,
    /// Oldest packet (smallest birth cycle) wins.
    AgeBased,
}

/// The most nodes [`TopologyKind::validate`] accepts: four times the
/// largest network any figure or benchmark builds (a 32x32 mesh). A
/// `Network` allocates per node and an analytic model per node pair, so
/// an unbounded radix is one request line away from exhausting memory.
pub const MAX_NODES: usize = 4096;

/// The topology: the one name a config, the wire or a figure gives a
/// network shape, and (in [`crate::topology`]) the geometry itself —
/// ports, coordinates, neighbors, hop counts and link delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// k-ary 2-mesh.
    Mesh2D {
        /// Nodes per dimension.
        k: usize,
    },
    /// Folded k-ary 2-cube (torus) — all link delays doubled.
    FoldedTorus2D {
        /// Nodes per dimension.
        k: usize,
    },
    /// Unfolded torus with unit link delay.
    Torus2D {
        /// Nodes per dimension.
        k: usize,
    },
    /// Bidirectional ring.
    Ring {
        /// Node count.
        n: usize,
    },
}

impl TopologyKind {
    /// Check the radix and node count, which must come before any
    /// geometry is computed: below radix 2 it is meaningless, `k * k`
    /// can overflow, and a `Network` or analytic model allocates per
    /// node (or per node pair).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (k, dims) = match *self {
            TopologyKind::Mesh2D { k }
            | TopologyKind::FoldedTorus2D { k }
            | TopologyKind::Torus2D { k } => (k, 2),
            TopologyKind::Ring { n } => (n, 1),
        };
        if k < 2 {
            return Err(ConfigError::Parameter {
                name: "topology",
                why: format!("radix {k} is below 2"),
            });
        }
        let nodes = (0..dims).try_fold(1usize, |acc, _| acc.checked_mul(k));
        if nodes.is_none_or(|n| n > MAX_NODES) {
            return Err(ConfigError::Parameter {
                name: "topology",
                why: format!("radix {k} in {dims} dimension(s) is more than {MAX_NODES} nodes"),
            });
        }
        Ok(())
    }
}

/// The routing algorithm: both the named selector stored in
/// [`NetConfig`] and the routing function itself — this `Copy` enum
/// carries [`candidates`](RoutingKind::candidates) and
/// [`advance`](RoutingKind::advance) (in [`crate::routing`]), and the
/// engine and the analysis crates all hold it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Dimension-ordered routing.
    Dor,
    /// Valiant randomized routing.
    Valiant,
    /// Randomized two-phase minimal (ROMM).
    Romm,
    /// Minimal adaptive with DOR escape.
    MinAdaptive,
}

/// Full network configuration (Table I parameter space).
///
/// Defaults mirror the paper's bold baseline: 8x8 mesh, DOR, 2 VCs,
/// 4-flit buffers per VC, 1-cycle router, round-robin arbitration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Topology selector.
    pub topology: TopologyKind,
    /// Routing algorithm selector.
    pub routing: RoutingKind,
    /// Total virtual channels per physical port.
    pub vcs: usize,
    /// Buffer depth per VC, in flits (`q`).
    pub vc_buf: usize,
    /// Router pipeline delay in cycles (`t_r`).
    pub router_delay: u32,
    /// Arbitration policy for VC and switch allocation.
    pub arbitration: Arbitration,
    /// Number of message classes sharing the network (1 for open-loop,
    /// 2 for request/reply closed-loop protocols).
    pub classes: usize,
    /// RNG seed; a `(config, seed)` pair fully determines a run.
    pub seed: u64,
    /// Metrics bin width in cycles; `None` (the default) disables the
    /// observability collector entirely (one branch per cycle, behavior
    /// bit-identical to an uninstrumented build). See [`crate::metrics`].
    pub metrics: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            topology: TopologyKind::Mesh2D { k: 8 },
            routing: RoutingKind::Dor,
            vcs: 2,
            vc_buf: 4,
            router_delay: 1,
            arbitration: Arbitration::RoundRobin,
            classes: 1,
            seed: 0x0c5e_ed01,
            metrics: None,
        }
    }
}

impl NetConfig {
    /// Baseline open-loop configuration (Table I bold values).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Validate the configuration and build the VC partition book.
    pub fn validate(&self) -> Result<VcBook, ConfigError> {
        self.topology.validate()?;
        if self.vc_buf == 0 {
            return Err(ConfigError::Parameter { name: "vc_buf", why: "must be >= 1 flit".into() });
        }
        if self.router_delay == 0 {
            return Err(ConfigError::Parameter {
                name: "router_delay",
                why: "must be >= 1 cycle".into(),
            });
        }
        if self.metrics == Some(0) {
            return Err(ConfigError::Parameter {
                name: "metrics",
                why: "metrics bin width must be >= 1 cycle".into(),
            });
        }
        VcBook::new(self.vcs, self.classes, self.routing, self.topology)
    }

    /// Builder-style setters for sweep ergonomics.
    pub fn with_router_delay(mut self, tr: u32) -> Self {
        self.router_delay = tr;
        self
    }

    /// Set buffer depth per VC.
    pub fn with_vc_buf(mut self, q: usize) -> Self {
        self.vc_buf = q;
        self
    }

    /// Set VC count.
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        self.vcs = vcs;
        self
    }

    /// Set topology.
    pub fn with_topology(mut self, t: TopologyKind) -> Self {
        self.topology = t;
        self
    }

    /// Set routing algorithm.
    pub fn with_routing(mut self, r: RoutingKind) -> Self {
        self.routing = r;
        self
    }

    /// Set message class count.
    pub fn with_classes(mut self, c: usize) -> Self {
        self.classes = c;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set arbitration policy.
    pub fn with_arbitration(mut self, a: Arbitration) -> Self {
        self.arbitration = a;
        self
    }

    /// Enable the metrics collector with the given bin width in cycles
    /// (see [`crate::metrics::DEFAULT_BIN_WIDTH`] for a sane default).
    pub fn with_metrics(mut self, bin_width: u64) -> Self {
        self.metrics = Some(bin_width);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        let cfg = NetConfig::baseline();
        let book = cfg.validate().unwrap();
        assert_eq!(book.vcs(), 2);
        assert_eq!(book.classes(), 1);
    }

    #[test]
    fn closed_loop_mesh_two_classes() {
        let cfg = NetConfig::baseline().with_classes(2);
        cfg.validate().unwrap();
    }

    #[test]
    fn torus_two_classes_needs_four_vcs() {
        let cfg = NetConfig::baseline()
            .with_topology(TopologyKind::FoldedTorus2D { k: 8 })
            .with_classes(2);
        assert!(cfg.validate().is_err());
        assert!(cfg.with_vcs(4).validate().is_ok());
    }

    #[test]
    fn valiant_two_classes_needs_four_vcs() {
        let cfg = NetConfig::baseline().with_routing(RoutingKind::Valiant).with_classes(2);
        assert!(cfg.validate().is_err());
        assert!(cfg.with_vcs(4).validate().is_ok());
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(NetConfig::baseline().with_vc_buf(0).validate().is_err());
        assert!(NetConfig::baseline().with_router_delay(0).validate().is_err());
        assert!(NetConfig::baseline().with_metrics(0).validate().is_err());
        assert!(NetConfig::baseline().with_metrics(64).validate().is_ok());
        let mut cfg = NetConfig::baseline();
        cfg.vcs = 65;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn node_count_is_bounded_before_anything_is_built() {
        let topo = |t| NetConfig::baseline().with_topology(t).validate();
        assert!(topo(TopologyKind::Mesh2D { k: 64 }).is_ok(), "MAX_NODES itself is accepted");
        assert!(topo(TopologyKind::Ring { n: MAX_NODES }).is_ok());
        for bad in [
            TopologyKind::Mesh2D { k: 65 },
            TopologyKind::Torus2D { k: 70_000 },
            // k * k wraps `usize` to 0: only a checked product sees it
            TopologyKind::FoldedTorus2D { k: 1 << (usize::BITS / 2) },
            TopologyKind::Ring { n: MAX_NODES + 1 },
            // below radix 2 the geometry is meaningless
            TopologyKind::Mesh2D { k: 1 },
            TopologyKind::Ring { n: 0 },
        ] {
            match topo(bad) {
                Err(ConfigError::Parameter { name: "topology", .. }) => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn topology_kind_counts_nodes() {
        assert_eq!(TopologyKind::Mesh2D { k: 8 }.num_nodes(), 64);
        assert_eq!(TopologyKind::Ring { n: 64 }.num_nodes(), 64);
        assert_eq!(TopologyKind::FoldedTorus2D { k: 4 }.num_nodes(), 16);
    }

    #[test]
    fn builder_setters_compose() {
        let cfg = NetConfig::baseline()
            .with_vcs(4)
            .with_routing(RoutingKind::Romm)
            .with_arbitration(Arbitration::AgeBased)
            .with_seed(99)
            .with_vc_buf(8)
            .with_router_delay(2);
        assert_eq!(cfg.vcs, 4);
        assert_eq!(cfg.routing, RoutingKind::Romm);
        assert_eq!(cfg.arbitration, Arbitration::AgeBased);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.vc_buf, 8);
        assert_eq!(cfg.router_delay, 2);
        cfg.validate().unwrap();
    }
}
