//! # noc-closedloop — closed-loop synthetic workload models
//!
//! The paper's closed-loop models, where network feedback shapes the
//! workload and the metric is *runtime*, not latency:
//!
//! * [`batch`] — the **batch model** (intra-node dependency): every node
//!   must complete `b` request/reply transactions with at most `m`
//!   outstanding (modeling MSHRs); runtime `T` is when the last reply
//!   lands, and achieved throughput is `theta = 2 b / T` for single-flit
//!   requests and replies.
//! * [`barrier`] — the **barrier model** (inter-node dependency): every
//!   node streams `b` packets as fast as flow control allows and the run
//!   ends when all packets of all nodes are delivered.
//! * [`reply`] — reply-latency models (immediate / fixed / probabilistic
//!   L2-or-memory), the paper's *enhanced reply model* (Section IV-C2).
//! * [`kernel`] — OS activity modeling (Section V): static batch
//!   inflation for syscall traffic plus dynamic timer-interrupt batches
//!   at rate `R_timer`.
//! * [`seeds`] — [`run_batch_seeds`]: replicate `i` is [`BatchConfig::point`]`(i)`.
//!
//! The *enhanced injection model* (Section IV-C1) is the `nar` field of
//! [`batch::BatchConfig`]: with probability NAR per cycle a node with
//! spare MSHRs issues its next request.
//!
//! [`BatchConfig::validate`] and [`BarrierConfig::validate`] own what a
//! valid point is; every runner calls them first. [`BatchConfig::start`]
//! validates, then builds the two-class network and the
//! [`BatchBehavior`]: the one way a batch-model run is built.

#![warn(missing_docs)]

pub mod barrier;
pub mod batch;
pub mod kernel;
pub mod reply;
pub mod seeds;

pub use barrier::{run_barrier, BarrierConfig, BarrierResult};
pub use batch::{run_batch, BatchBehavior, BatchConfig, BatchResult};
pub use kernel::KernelModel;
pub use reply::ReplyModel;
pub use seeds::run_batch_seeds;
