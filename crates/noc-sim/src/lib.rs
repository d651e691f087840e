//! # noc-sim — cycle-accurate on-chip network simulator
//!
//! The network substrate of the *On-Chip Network Evaluation Framework*
//! (SC 2010) reproduction: a flit-level, virtual-channel, wormhole
//! router network covering the paper's full Table I parameter space —
//! 2D mesh / folded torus / ring topologies, DOR / Valiant / ROMM /
//! minimal-adaptive routing, 1–8 cycle routers, 1–32-flit VC buffers,
//! round-robin or age-based arbitration, and credit-based flow control.
//!
//! Workloads attach through [`network::NodeBehavior`]; both open-loop
//! (infinite source queue) and closed-loop (batch model) drivers in the
//! sibling crates are thin layers over [`network::Network::step`].
//!
//! ```
//! use noc_sim::config::NetConfig;
//! use noc_sim::network::{Network, NodeBehavior};
//! use noc_sim::flit::{Cycle, Delivered, PacketSpec};
//!
//! // one packet from node 0 to node 63 on the baseline 8x8 mesh
//! struct OneShot(bool, Option<u64>);
//! impl NodeBehavior for OneShot {
//!     fn pull(&mut self, node: usize, _cycle: Cycle) -> Option<PacketSpec> {
//!         if node == 0 && !self.0 {
//!             self.0 = true;
//!             return Some(PacketSpec { dst: 63, size: 1, class: 0, payload: 0 });
//!         }
//!         None
//!     }
//!     fn deliver(&mut self, _node: usize, d: &Delivered, cycle: Cycle) {
//!         self.1 = Some(cycle - d.birth);
//!     }
//! }
//!
//! let mut net = Network::new(NetConfig::baseline()).unwrap();
//! let mut b = OneShot(false, None);
//! net.drain(&mut b, 10_000);
//! // corner-to-corner: 14 hops x (t_r + t_link) + t_r = 29 cycles
//! assert_eq!(b.1, Some(29));
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod error;
pub mod flit;
pub mod interface;
pub mod metrics;
pub mod network;
pub mod rng;
pub mod router;
pub mod routing;
pub mod topology;
pub mod trace;

pub use config::{Arbitration, NetConfig, RoutingKind, TopologyKind};
pub use error::ConfigError;
pub use flit::{Cycle, Delivered, PacketSpec};
pub use metrics::{ChannelMetrics, MetricsSnapshot, RouterMetrics};
pub use network::fault::{
    FaultEvent, FaultLedger, FaultPlan, FaultStats, LinkRetryPolicy, RetxPolicy, SurvivorTable,
};
pub use network::{NetStats, Network, NodeBehavior};
pub use trace::trace_route;
