//! Discrete-event simulator reproducing the evaluation of
//! *On Peer-to-Peer Media Streaming* (ICDCS 2002, §5).
//!
//! The paper simulates a system of 50,100 peers: 100 class-1 "seed"
//! suppliers own a 60-minute video; 50,000 requesting peers (classes 1–4
//! at 10/10/40/40 %) issue their first streaming requests over the first
//! 72 hours of a 144-hour run, under four arrival patterns. Admission is
//! controlled by `DACp2p` or the non-differentiated `NDACp2p` baseline.
//!
//! This crate re-creates that experiment as a deterministic event
//! simulation: given an [`AmpConfig`] and a seed, [`AmpEngine::run`]
//! produces an [`AmpReport`] holding every series and table the paper
//! plots — capacity amplification (Fig. 4), per-class accumulative
//! admission rate (Fig. 5), per-class accumulative buffering delay
//! (Fig. 6), rejections before admission (Table 1), the lowest favored
//! class per supplier class (Fig. 7), and the parameter sweeps behind
//! Figs. 8 and 9. The same engine scales the model to 10⁶ peers over a
//! Zipf catalog: a sharded, epoch-synchronous event loop whose trace is
//! bit-identical at any shard or thread count.
//!
//! Beyond the paper's own workload, the [`ScenarioMatrix`] crosses every
//! [`p2ps_policy::SelectionPolicy`] (the §3 `OTSp2p` assignment plus the
//! BitTorrent-style baselines) with the VoD scenarios of the wider
//! streaming literature — mid-stream seeks, early supplier departure,
//! partially available files, flash crowds — and emits per-cell
//! comparison tables; see [`ScenarioMatrix::standard`].
//!
//! # Examples
//!
//! A scaled-down run of the paper's setup (510 peers, 24 simulated
//! hours) finishing in milliseconds:
//!
//! ```
//! use p2ps_sim::{AmpConfig, AmpEngine, ArrivalPattern, ArrivalProcess};
//! use p2ps_core::admission::Protocol;
//!
//! let config = AmpConfig::paper()
//!     .requesting_peers(500)
//!     .seed_suppliers(10)
//!     .arrival_window_secs(12 * 3_600)
//!     .horizon_secs(24 * 3_600)
//!     .process(ArrivalProcess::Pattern(ArrivalPattern::Constant))
//!     .protocol(Protocol::Dac)
//!     .build()?;
//! let report = AmpEngine::new(config, 42).run();
//! assert!(report.final_capacity() > 10.0);
//! // Table 1: class-1 requesters wait through fewer rejections.
//! assert!(report.avg_rejections(1) < report.avg_rejections(4));
//! # Ok::<(), p2ps_sim::AmpConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod engine;
mod matrix;
mod scenario;

pub use arrivals::{ArrivalPattern, ArrivalProcess, PiecewiseRate};
pub use engine::{
    AmpConfig, AmpConfigBuilder, AmpConfigError, AmpEngine, AmpReport, ClassSeries, ClassTotals,
    FavoredWindow, FoldCrossing, HourSample,
};
pub use matrix::{CellMetric, CellReport, MatrixReport, ScenarioMatrix};
pub use scenario::{ScenarioConfig, SessionOutcome, VodScenario};

/// Seconds per simulated minute.
pub const MINUTE: u64 = 60;
/// Seconds per simulated hour.
pub const HOUR: u64 = 3_600;
