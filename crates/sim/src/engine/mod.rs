//! The capacity-amplification engine: a compact-state, sharded
//! discrete-event simulator of the paper's §4–5 admission model, from
//! the paper's 50,100 peers up to 10⁶.
//!
//! * [`store`] — struct-of-arrays peer state (~40 bytes/peer, zero
//!   allocations per event on the steady path) with the §4.1 admission
//!   vector nibble-packed into a `u64`.
//! * [`queue`] — a flat indexed binary heap backing the per-shard event
//!   queues.
//! * [`config`] — [`AmpConfig`]: population, catalog (Zipf popularity),
//!   arrival process (the paper's four patterns, Poisson, flash crowd),
//!   churn, the §4.1(c) ablation switches, shard and thread counts.
//! * [`run`] — [`AmpEngine`]: a bulk-synchronous-parallel event loop.
//!   Peers are hash-partitioned over a *fixed* logical shard count;
//!   shards advance in virtual-time epochs and exchange probe/grant
//!   messages only at epoch boundaries, with inboxes sorted by content,
//!   so one `u64` seed yields bit-identical traces at 1, 2, or N
//!   worker threads.
//! * [`report`] — [`AmpReport`]: capacity-evolution and rejection-rate
//!   curves, time to N-fold serving capacity, the paper's per-class
//!   series and tables, and an FNV-1a trace digest for cross-thread
//!   equivalence checks.

mod config;
mod queue;
mod report;
mod run;
mod store;

pub use config::{AmpConfig, AmpConfigBuilder, AmpConfigError};
pub use report::{AmpReport, ClassSeries, ClassTotals, FavoredWindow, FoldCrossing, HourSample};
pub use run::AmpEngine;
