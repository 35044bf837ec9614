//! **p2ps** — a full reproduction of *On Peer-to-Peer Media Streaming*
//! (D. Xu, M. Hefeeda, S. Hambrusch, B. Bhargava — ICDCS 2002).
//!
//! The paper contributes two algorithms for streaming a stored CBR media
//! file through a self-growing peer-to-peer system:
//!
//! * **`OTSp2p`** — assigns media segments to the multiple supplying peers
//!   of one session so that the buffering delay is minimal (`n·δt` for `n`
//!   suppliers, Theorem 1).
//! * **`DACp2p`** — a fully distributed, *differentiated* admission
//!   control protocol that favors requesting peers pledging more
//!   out-bound bandwidth, amplifying the system's total streaming
//!   capacity as fast as possible while still benefiting every class.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `p2ps-core` | model types, `OTSp2p`, `DACp2p`, baselines |
//! | [`policy`] | `p2ps-policy` | pluggable `SelectionPolicy` trait: `OTSp2p` + BitTorrent-style baselines |
//! | [`media`] | `p2ps-media` | CBR segmentation, stores, playback buffer |
//! | [`lookup`] | `p2ps-lookup` | centralized directory and Chord ring |
//! | [`proto`] | `p2ps-proto` | wire messages, binary codec, sans-io frame decoder/encoder |
//! | [`net`] | `p2ps-net` | Linux epoll reactor + multi-reactor `ReactorPool`: nonblocking sockets, buffered writes, timer wheel, key-sharded pools |
//! | [`node`] | `p2ps-node` | runnable TCP peer node (reactor-hosted directory, supplier *and* requester paths), swarm harness |
//! | [`sim`] | `p2ps-sim` | the paper's 50,100-peer evaluation as a deterministic simulator, plus the policy × VoD-scenario matrix |
//! | [`metrics`] | `p2ps-metrics` | series, tables, plots for the experiment harness |
//! | [`monitor`] | `p2ps-monitor` | lock-free introspection tree, Prometheus exposition, status endpoint |
//!
//! # Quickstart
//!
//! Compute the paper's Figure-1 optimal assignment:
//!
//! ```
//! use p2ps::core::assignment::otsp2p;
//! use p2ps::core::PeerClass;
//!
//! let classes = [2u8, 3, 4, 4]
//!     .into_iter()
//!     .map(PeerClass::new)
//!     .collect::<Result<Vec<_>, _>>()?;
//! let assignment = otsp2p(&classes)?;
//! assert_eq!(assignment.buffering_delay_slots(), 4); // Theorem 1: n·δt
//! # Ok::<(), p2ps::core::Error>(())
//! ```
//!
//! Run a scaled-down version of the paper's capacity experiment:
//!
//! ```
//! use p2ps::core::admission::Protocol;
//! use p2ps::sim::{AmpConfig, AmpEngine, ArrivalPattern, ArrivalProcess};
//!
//! let config = AmpConfig::paper()
//!     .requesting_peers(300)
//!     .seed_suppliers(5)
//!     .arrival_window_secs(8 * 3_600)
//!     .horizon_secs(16 * 3_600)
//!     .process(ArrivalProcess::Pattern(ArrivalPattern::Constant))
//!     .protocol(Protocol::Dac)
//!     .build()?;
//! let report = AmpEngine::new(config, 7).run();
//! println!("final capacity: {:.1}", report.final_capacity());
//! println!("class-1 rejections: {:?}", report.avg_rejections(1));
//! # Ok::<(), p2ps::sim::AmpConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use p2ps_core as core;
pub use p2ps_lookup as lookup;
pub use p2ps_media as media;
pub use p2ps_metrics as metrics;
pub use p2ps_monitor as monitor;
pub use p2ps_net as net;
pub use p2ps_node as node;
pub use p2ps_policy as policy;
pub use p2ps_proto as proto;
pub use p2ps_sim as sim;

/// The most commonly used items in one import.
///
/// # Examples
///
/// ```
/// use p2ps::prelude::*;
///
/// let classes = vec![PeerClass::new(2)?, PeerClass::new(2)?];
/// assert_eq!(otsp2p(&classes)?.buffering_delay_slots(), 2);
/// # Ok::<(), p2ps::core::Error>(())
/// ```
pub mod prelude {
    pub use p2ps_core::admission::{
        AdmissionVector, BackoffPolicy, Protocol, RequesterState, SupplierConfig, SupplierState,
    };
    pub use p2ps_core::assignment::{edf, otsp2p, Assignment, SegmentDuration};
    pub use p2ps_core::{Bandwidth, CapacityTracker, PeerClass, PeerId};
    pub use p2ps_media::{MediaFile, MediaInfo, PlaybackBuffer};
    pub use p2ps_node::{DirectoryServer, NodeConfig, NodeReactor, PeerNode, PendingStream, Swarm};
    pub use p2ps_policy::{
        Otsp2p, RandomBaseline, RarestFirst, SelectionPolicy, SequentialWindow, SessionContext,
        SharedPolicy,
    };
    pub use p2ps_sim::{
        AmpConfig, AmpEngine, AmpReport, ArrivalPattern, ArrivalProcess, CellMetric,
        ScenarioMatrix, VodScenario,
    };
}
