//! The bulk-synchronous-parallel amplification event loop.
//!
//! # Execution model
//!
//! Peers are partitioned over `shards()` logical shards by
//! `shard = id % S` (`local = id / S`). Each shard owns a
//! [`PeerStore`], an [`IndexedHeap`] event queue, and reusable message
//! buffers. Virtual time advances in epochs of `epoch_secs()`; within
//! an epoch every shard processes its own events (arrivals, retries,
//! session completions, departures) against a *frozen* snapshot of the
//! supplier pools, and the §4.2 probe protocol runs as three
//! message-sorted rounds at the epoch boundary:
//!
//! 1. **local** — pop events `t < boundary`; admission attempts emit
//!    `Probe`s to the candidates' shards.
//! 2. **round 1** — each supplier handles its probes in sorted
//!    `(supplier, requester)` order: sync idle relaxation, then grant
//!    (at most one uncommitted grant per boundary, tracked in
//!    `provisional`), refuse, or report busy(+favored), emitting a
//!    `Reply`.
//! 3. **round 2** — each requester folds its replies in sorted
//!    `(requester, supplier class, supplier)` order: greedily accepts
//!    grants up to exactly `R0`, emitting `Begin`/`Release` commits; on
//!    failure it releases everything, picks the reminder set Ω greedily
//!    over the busy-favored repliers, and schedules its backoff retry.
//! 4. **round 3** — suppliers commit: `Begin` starts the session (busy
//!    until `boundary + session`), `Release` clears the provisional
//!    grant, `Reminder` records the best reminder class.
//!
//! A serial **finalize** step then merges every shard's trace records
//! (sorted, folded into one FNV-1a digest), applies the pool
//! adds/removes in globally sorted order, accumulates the exact
//! fixed-point capacity delta, and samples the capacity/rejection
//! curves. At every hour mark it also sums the shards' per-class
//! counters into the report's hourly series; the Fig. 7 walk over
//! every supplier's vector runs beforehand, in the parallel local
//! phase.
//!
//! # Determinism
//!
//! Every cross-shard effect flows through content-sorted boundary
//! exchanges, every random draw comes from the owning peer's private
//! SplitMix64 stream, and all merged metrics are integer sums — so a
//! given `(config, seed)` produces bit-identical traces for **any**
//! shard count and **any** thread count. The worker threads only pick
//! which shards they execute between barriers; they never influence
//! observable order.
//!
//! # Batched probing
//!
//! An attempt probes all `M` candidates concurrently (like a pipelined
//! implementation would) and resolves at the next epoch boundary, so a
//! session starts up to one epoch after its request. What that batching
//! changes per paper figure is measured in `docs/AMPLIFICATION.md`.

use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

use p2ps_core::admission::Protocol;
use p2ps_core::Bandwidth;
use rand::distributions::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use super::config::AmpConfig;
use super::queue::IndexedHeap;
use super::report::{
    wait_bucket, AmpReport, ClassTotals, FavoredWindow, FoldCrossing, HourSample,
    FAVORED_WINDOW_HOURS, WAIT_BUCKETS,
};
use super::store::{flags, rng_next, rng_range, rng_stream, rng_unit, state, PeerStore};
use super::store::{PackedVector, NONE_U32};
use crate::HOUR;

/// Classes the fixed-size per-class counters cover
/// (`AmpConfig::num_classes() <= 16`).
const MAX_CLASSES: usize = 16;

// Event kinds, in tie-break order at equal timestamps.
const K_ATTEMPT: u8 = 0;
const K_COMPLETE: u8 = 1;
const K_RELEASE: u8 = 2;
const K_DEPART: u8 = 3;

// Trace record kinds.
const R_ATTEMPT: u8 = 0;
const R_ADMIT: u8 = 1;
const R_REJECT: u8 = 2;
const R_SUPPLY: u8 = 3;
const R_DEPART: u8 = 4;

// Reply verdicts, in sort order.
const V_GRANTED: u8 = 0;
const V_BUSY_FAVORED: u8 = 1;
const V_BUSY: u8 = 2;
const V_REFUSED: u8 = 3;

// Commit actions, in the order a supplier must apply them.
const A_BEGIN: u8 = 0;
const A_RELEASE: u8 = 1;
const A_REMIND: u8 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Packs one trace record: `t << 72 | kind << 64 | peer << 32 | aux`.
#[inline]
fn rec(t: u32, kind: u8, peer: u32, aux: u32) -> u128 {
    (u128::from(t) << 72) | (u128::from(kind) << 64) | (u128::from(peer) << 32) | u128::from(aux)
}

/// A probe from `requester` to `supplier` (routed to the supplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Probe {
    supplier: u32,
    requester: u32,
    class: u8,
}

/// A supplier's answer (routed to the requester). Field order makes the
/// derived sort the requester's greedy order: supplier class ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Reply {
    requester: u32,
    sup_class: u8,
    supplier: u32,
    verdict: u8,
}

/// A requester's resolution (routed back to the supplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Commit {
    supplier: u32,
    requester: u32,
    action: u8,
    class: u8,
}

/// A deferred supplier-pool mutation, applied at finalize in globally
/// sorted order so pool layout is shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoolOp {
    item: u16,
    id: u32,
    add: bool,
}

impl Ord for PoolOp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // For one peer, `add` must sort before `remove`: a supplier that
        // converts and churns out within the same epoch queues both ops,
        // and applying the removal first would pop a peer that is not in
        // the pool yet.
        (self.item, self.id, !self.add).cmp(&(other.item, other.id, !other.add))
    }
}

impl PartialOrd for PoolOp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-shard outgoing messages for the current boundary.
#[derive(Debug, Default)]
struct Outbox {
    probes: Vec<Probe>,
    replies: Vec<Reply>,
    commits: Vec<Commit>,
}

/// The frozen supplier directory: per-item pools plus each peer's
/// position in its pool (for O(1) swap-removal).
#[derive(Debug, Default)]
struct Pools {
    by_item: Vec<Vec<u32>>,
    pos: Vec<u32>,
}

impl Pools {
    fn apply(&mut self, op: PoolOp) {
        let pool = &mut self.by_item[op.item as usize];
        if op.add {
            debug_assert_eq!(self.pos[op.id as usize], NONE_U32);
            self.pos[op.id as usize] = pool.len() as u32;
            pool.push(op.id);
        } else {
            let p = self.pos[op.id as usize];
            debug_assert_ne!(p, NONE_U32);
            pool.swap_remove(p as usize);
            self.pos[op.id as usize] = NONE_U32;
            if (p as usize) < pool.len() {
                self.pos[pool[p as usize] as usize] = p;
            }
        }
    }
}

/// One shard's per-class counters over its requesting peers (index
/// `class - 1`). They accumulate over the whole run and are summed
/// across shards only at hour marks and in the report, so any shard
/// count yields the same totals.
#[derive(Debug, Default)]
struct ClassStats {
    first_requests: [u64; MAX_CLASSES],
    admits: [u64; MAX_CLASSES],
    rejections: [u64; MAX_CLASSES],
    delay_slots: [u64; MAX_CLASSES],
    waiting_secs: [u64; MAX_CLASSES],
    /// `num_classes × WAIT_BUCKETS` waiting-time bucket counts.
    waiting_hist: Vec<u64>,
}

/// One shard: peer state, event queue, inboxes, and epoch-local
/// accumulators. All buffers are reused across epochs.
#[derive(Debug, Default)]
struct Shard {
    store: PeerStore,
    queue: IndexedHeap<(u32, u8, u32)>,
    probes_in: Vec<Probe>,
    replies_in: Vec<Reply>,
    commits_in: Vec<Commit>,
    records: Vec<u128>,
    ops: Vec<PoolOp>,
    cand: Vec<u32>,
    accept: Vec<u32>,
    cap_delta: i64,
    e_attempts: u64,
    e_admits: u64,
    e_rejects: u64,
    e_supplies: u64,
    e_departs: u64,
    e_events: u64,
    classes: ClassStats,
    /// The latest Fig. 7 walk: lowest-favored-class sums and supplier
    /// counts per supplier class.
    fav_sum: [u64; MAX_CLASSES],
    fav_count: [u64; MAX_CLASSES],
}

/// Serially merged run state.
#[derive(Debug, Default)]
struct Global {
    hash: u64,
    records: Vec<u128>,
    ops: Vec<PoolOp>,
    capacity_raw: i64,
    initial_capacity_raw: i64,
    next_fold_k: u32,
    fold_crossings: Vec<FoldCrossing>,
    capacity_curve: Vec<(u32, i64)>,
    rejection_curve: Vec<(u32, u64, u64)>,
    attempts: u64,
    admits: u64,
    rejects: u64,
    supplies: u64,
    departures: u64,
    events: u64,
    win_attempts: u64,
    win_rejects: u64,
    /// Hour-mark samples: time, capacity, and per-class cumulative
    /// first requests, admits and delay slots (`3 × num_classes` per
    /// sample).
    hour_t: Vec<u32>,
    hour_capacity: Vec<i64>,
    hour_counts: Vec<u64>,
    /// Fig. 7 windows: per-class sums then counts (`2 × num_classes`
    /// per window).
    favored: Vec<u64>,
}

/// Adapts a peer's raw SplitMix64 stream to [`rand::RngCore`] so the
/// vendored distributions (Zipf) can sample from it.
struct StreamRng<'a>(&'a mut u64);

impl RngCore for StreamRng<'_> {
    fn next_u32(&mut self) -> u32 {
        (rng_next(self.0) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        rng_next(self.0)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// The capacity-amplification engine. See `docs/AMPLIFICATION.md` for
/// the execution model and determinism guarantees.
///
/// # Examples
///
/// ```
/// use p2ps_sim::{AmpConfig, AmpEngine};
///
/// let config = AmpConfig::builder()
///     .requesting_peers(2_000)
///     .seed_suppliers(16)
///     .catalog_items(4)
///     .arrival_window_secs(3_600)
///     .horizon_secs(4 * 3_600)
///     .build()?;
/// let report = AmpEngine::new(config, 42).run();
/// assert!(report.admits > 0);
/// assert!(report.amplification() > 1.0);
/// # Ok::<(), p2ps_sim::AmpConfigError>(())
/// ```
pub struct AmpEngine {
    config: AmpConfig,
    seed: u64,
    offers: [i64; 17],
    class_cdf: Vec<f64>,
    zipf: Zipf,
    shards: Vec<Mutex<Shard>>,
    outboxes: Vec<RwLock<Outbox>>,
    pools: RwLock<Pools>,
    global: Mutex<Global>,
    consumed: bool,
    elapsed_micros: u64,
    threads_used: usize,
}

impl std::fmt::Debug for AmpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpEngine")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("consumed", &self.consumed)
            .finish_non_exhaustive()
    }
}

impl AmpEngine {
    /// Builds an engine for `config`, allocating every buffer and
    /// placing all peers; `run` itself stays allocation-free once the
    /// buffers have reached their high-water marks.
    pub fn new(config: AmpConfig, seed: u64) -> Self {
        let mut offers = [0i64; 17];
        for (class, slot) in offers.iter_mut().enumerate().skip(1) {
            if class as u8 <= config.num_classes() {
                *slot = config.offer_raw(class as u8);
            }
        }
        let total: f64 = config.class_mix().iter().sum();
        let mut acc = 0.0;
        let class_cdf = config
            .class_mix()
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let zipf = Zipf::new(u64::from(config.catalog_items()), config.zipf_exponent());
        let shard_count = config.shards() as usize;
        let per_shard = (config.total_peers() as usize).div_ceil(shard_count);
        let mut engine = AmpEngine {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        store: PeerStore::with_capacity(per_shard),
                        queue: IndexedHeap::with_capacity(per_shard * 2 + 16),
                        cand: Vec::with_capacity(config.m()),
                        accept: Vec::with_capacity(config.m()),
                        ..Shard::default()
                    })
                })
                .collect(),
            outboxes: (0..shard_count)
                .map(|_| RwLock::new(Outbox::default()))
                .collect(),
            pools: RwLock::new(Pools {
                by_item: vec![Vec::new(); config.catalog_items() as usize],
                pos: vec![NONE_U32; config.total_peers() as usize],
            }),
            global: Mutex::new(Global::default()),
            config,
            seed,
            offers,
            class_cdf,
            zipf,
            consumed: false,
            elapsed_micros: 0,
            threads_used: 0,
        };
        engine.setup();
        engine
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &AmpConfig {
        &self.config
    }

    /// The seed of the current/next run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-derives the initial state for `seed`, keeping every buffer's
    /// capacity, so a following [`run`](Self::run) on a warmed engine
    /// performs zero allocations.
    pub fn reset(&mut self, seed: u64) {
        self.seed = seed;
        self.setup();
        self.consumed = false;
    }

    fn setup(&mut self) {
        let cfg = &self.config;
        let s_count = cfg.shards();
        let seeds = cfg.seed_suppliers();
        let total = cfg.total_peers();
        let items = cfg.catalog_items();
        let protocol = cfg.protocol();
        let num_classes = cfg.num_classes();

        // Arrival times come from one global stream so they are
        // independent of the shard layout.
        let mut arr_rng = SmallRng::seed_from_u64(self.seed ^ 0x00A4_4C1F);
        let arrivals = cfg.process().generate(
            cfg.requesting_peers() as usize,
            u64::from(cfg.arrival_window_secs()),
            &mut arr_rng,
        );

        {
            let mut pools = self.pools.write().unwrap();
            for pool in &mut pools.by_item {
                pool.clear();
            }
            pools.pos.clear();
            pools.pos.resize(total as usize, NONE_U32);
        }
        {
            // Reset the merged state field by field so every buffer
            // keeps its high-water capacity across `reset()`.
            let mut g = self.global.lock().unwrap();
            g.hash = 0;
            g.records.clear();
            g.ops.clear();
            g.capacity_raw = 0;
            g.initial_capacity_raw = 0;
            g.next_fold_k = 1;
            g.fold_crossings.clear();
            g.capacity_curve.clear();
            g.rejection_curve.clear();
            g.attempts = 0;
            g.admits = 0;
            g.rejects = 0;
            g.supplies = 0;
            g.departures = 0;
            g.events = 0;
            g.win_attempts = 0;
            g.win_rejects = 0;
            // Sized on the first setup, so `reset` keeps them.
            let samples = (cfg.horizon_secs() / HOUR as u32) as usize + 1;
            let k = usize::from(num_classes);
            g.hour_t.clear();
            g.hour_t.reserve(samples);
            g.hour_capacity.clear();
            g.hour_capacity.reserve(samples);
            g.hour_counts.clear();
            g.hour_counts.reserve(samples * 3 * k);
            let windows = (samples - 1) / FAVORED_WINDOW_HOURS as usize + 1;
            g.favored.clear();
            g.favored.resize(windows * 2 * k, 0);
        }

        let mut initial_capacity = 0i64;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().unwrap();
            let sh = &mut *shard;
            sh.store.clear();
            sh.queue.clear();
            sh.probes_in.clear();
            sh.replies_in.clear();
            sh.commits_in.clear();
            sh.records.clear();
            sh.ops.clear();
            sh.cap_delta = 0;
            sh.e_attempts = 0;
            sh.e_admits = 0;
            sh.e_rejects = 0;
            sh.e_supplies = 0;
            sh.e_departs = 0;
            sh.e_events = 0;
            let mut waiting_hist = std::mem::take(&mut sh.classes.waiting_hist);
            waiting_hist.clear();
            waiting_hist.resize(usize::from(num_classes) * WAIT_BUCKETS, 0);
            sh.classes = ClassStats {
                waiting_hist,
                ..ClassStats::default()
            };
            let mut id = s as u32;
            while id < total {
                let mut stream = rng_stream(self.seed, u64::from(id));
                if id < seeds {
                    // Seeds: class 1, spread round-robin over the catalog
                    // so every item has at least one supplier when
                    // seeds >= items.
                    let item = (id % u32::from(items)) as u16;
                    let local = sh.store.push(1, item, state::SUPPLYING, stream);
                    sh.store.vector[local] = PackedVector::initial(1, num_classes, protocol);
                    sh.records.push(rec(0, R_SUPPLY, id, 1));
                    initial_capacity += self.offers[1];
                } else {
                    let u = rng_unit(&mut stream);
                    let class =
                        (self.class_cdf.partition_point(|&c| c <= u) as u8 + 1).min(num_classes);
                    let item = (self.zipf.sample(&mut StreamRng(&mut stream)) - 1) as u16;
                    sh.store.push(class, item, state::WAITING, stream);
                    let at = arrivals[(id - seeds) as usize] as u32;
                    sh.queue.push((at, K_ATTEMPT, id));
                }
                id += s_count;
            }
        }
        {
            // Seeds join their pools in ascending id order — the order
            // one shard would produce — because candidate sampling
            // indexes the pool and the trace must not depend on the
            // shard count.
            let mut pools = self.pools.write().unwrap();
            for id in 0..seeds {
                pools.apply(PoolOp {
                    item: (id % u32::from(items)) as u16,
                    id,
                    add: true,
                });
            }
        }
        let mut g = self.global.lock().unwrap();
        g.capacity_raw = initial_capacity;
        g.initial_capacity_raw = initial_capacity;
        // Anchor the evolution curve at the seed capacity so consumers
        // never have to special-case `t = 0`.
        g.capacity_curve.push((0, initial_capacity));
        for shard in &self.shards {
            favored_walk(&mut shard.lock().unwrap(), cfg, 0);
        }
        self.sample_hour(&mut g, 0, 0);
    }

    /// The hour whose mark falls within epoch `epoch` (in
    /// `(start, end]`), if any: the hourly series and the Fig. 7 walk
    /// sample at that epoch's end.
    fn hour_due(&self, epoch: u32) -> Option<u32> {
        let e = u64::from(self.config.epoch_secs());
        let start = u64::from(epoch) * e;
        let end = (start + e).min(u64::from(self.config.horizon_secs()));
        let hour = end / HOUR;
        (hour * HOUR > start).then_some(hour as u32)
    }

    /// Records the hour-`hour` sample: capacity, the per-class counters
    /// summed over shards, and the shards' latest Fig. 7 walk, which
    /// joins its 3-hour window.
    fn sample_hour(&self, g: &mut Global, hour: u32, t: u32) {
        let k = usize::from(self.config.num_classes());
        let window = (hour / FAVORED_WINDOW_HOURS) as usize * 2 * k;
        g.hour_t.push(t);
        let cap = g.capacity_raw;
        g.hour_capacity.push(cap);
        let base = g.hour_counts.len();
        g.hour_counts.resize(base + 3 * k, 0);
        for shard in &self.shards {
            let sh = shard.lock().unwrap();
            for c in 0..k {
                g.hour_counts[base + c] += sh.classes.first_requests[c];
                g.hour_counts[base + k + c] += sh.classes.admits[c];
                g.hour_counts[base + 2 * k + c] += sh.classes.delay_slots[c];
                g.favored[window + c] += sh.fav_sum[c];
                g.favored[window + k + c] += sh.fav_count[c];
            }
        }
    }

    /// Executes the run and returns its report. Equivalent to
    /// [`execute`](Self::execute) followed by [`report`](Self::report).
    ///
    /// # Panics
    ///
    /// Panics if called twice without [`reset`](Self::reset) in
    /// between — the run consumes the scheduled state.
    pub fn run(&mut self) -> AmpReport {
        self.execute();
        self.report()
    }

    /// Executes the epoch loop without assembling a report. On a warmed
    /// engine (one prior identical run, then [`reset`](Self::reset))
    /// this performs **zero** heap allocations with `threads = 1`; the
    /// `zero_alloc_engine` integration test pins that.
    ///
    /// # Panics
    ///
    /// Panics if called twice without [`reset`](Self::reset).
    pub fn execute(&mut self) {
        assert!(
            !self.consumed,
            "AmpEngine::run called twice; call reset() first"
        );
        self.consumed = true;
        let start = Instant::now();
        let threads = self.config.threads().min(self.config.shards() as usize);
        if threads == 1 {
            self.run_inline();
        } else {
            let this = &*self;
            let barrier = Barrier::new(threads);
            std::thread::scope(|scope| {
                for w in 1..threads {
                    let barrier = &barrier;
                    scope.spawn(move || this.worker(w, threads, barrier));
                }
                this.worker(0, threads, &barrier);
            });
        }
        self.elapsed_micros = start.elapsed().as_micros() as u64;
        self.threads_used = threads;
    }

    /// Single-threaded driver: the same phase sequence, no barriers, no
    /// spawns — the allocation-free measurement path.
    fn run_inline(&self) {
        let epochs = self.config.epochs();
        let horizon = self.config.horizon_secs();
        let shard_count = self.shards.len();
        for epoch in 0..epochs {
            let t_end = ((u64::from(epoch) + 1) * u64::from(self.config.epoch_secs()))
                .min(u64::from(horizon)) as u32;
            let hour = self.hour_due(epoch);
            for s in 0..shard_count {
                self.local_phase(s, t_end, hour.is_some());
            }
            for s in 0..shard_count {
                self.route_probes(s);
            }
            for s in 0..shard_count {
                self.supplier_phase(s, t_end);
            }
            for s in 0..shard_count {
                self.route_replies(s);
            }
            for s in 0..shard_count {
                self.requester_phase(s, t_end);
            }
            for s in 0..shard_count {
                self.route_commits(s);
            }
            for s in 0..shard_count {
                self.commit_phase(s, t_end);
            }
            self.finalize(epoch, t_end, hour);
        }
    }

    /// One worker of the multi-threaded driver: executes shards
    /// `w, w + threads, …` through the eight barrier-separated phases;
    /// worker 0 runs the serial finalize.
    fn worker(&self, w: usize, threads: usize, barrier: &Barrier) {
        let epochs = self.config.epochs();
        let horizon = self.config.horizon_secs();
        let shard_count = self.shards.len();
        let mine = || (w..shard_count).step_by(threads);
        for epoch in 0..epochs {
            let t_end = ((u64::from(epoch) + 1) * u64::from(self.config.epoch_secs()))
                .min(u64::from(horizon)) as u32;
            let hour = self.hour_due(epoch);
            for s in mine() {
                self.local_phase(s, t_end, hour.is_some());
            }
            barrier.wait();
            for s in mine() {
                self.route_probes(s);
            }
            barrier.wait();
            for s in mine() {
                self.supplier_phase(s, t_end);
            }
            barrier.wait();
            for s in mine() {
                self.route_replies(s);
            }
            barrier.wait();
            for s in mine() {
                self.requester_phase(s, t_end);
            }
            barrier.wait();
            for s in mine() {
                self.route_commits(s);
            }
            barrier.wait();
            for s in mine() {
                self.commit_phase(s, t_end);
            }
            barrier.wait();
            if w == 0 {
                self.finalize(epoch, t_end, hour);
            }
            barrier.wait();
        }
    }

    /// Phase 1: drain this shard's events up to (excluding) `t_end`,
    /// then, at an hour mark, take this shard's Fig. 7 walk.
    fn local_phase(&self, s: usize, t_end: u32, hour_mark: bool) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        let mut out = self.outboxes[s].write().unwrap();
        out.probes.clear();
        let pools = self.pools.read().unwrap();
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        let m = cfg.m();
        while let Some(&(t, kind, id)) = sh.queue.peek() {
            if t >= t_end {
                break;
            }
            sh.queue.pop();
            sh.e_events += 1;
            let local = (id / shard_count) as usize;
            match kind {
                K_ATTEMPT => {
                    if sh.store.state[local] != state::WAITING {
                        continue;
                    }
                    if sh.store.first_request[local] == 0 && sh.store.rejections[local] == 0 {
                        sh.store.first_request[local] = t;
                        sh.classes.first_requests[usize::from(sh.store.class[local]) - 1] += 1;
                    }
                    let rejections = sh.store.rejections[local];
                    sh.records
                        .push(rec(t, R_ATTEMPT, id, u32::from(rejections)));
                    sh.e_attempts += 1;
                    let pool = &pools.by_item[sh.store.item[local] as usize];
                    if pool.is_empty() {
                        // No supplier for this item yet: an immediate
                        // rejection, resolved locally.
                        reject(sh, cfg, local, id, t, horizon);
                        continue;
                    }
                    let class = sh.store.class[local];
                    sh.cand.clear();
                    if pool.len() <= m {
                        sh.cand.extend_from_slice(pool);
                    } else {
                        while sh.cand.len() < m {
                            let c = pool
                                [rng_range(&mut sh.store.rng[local], pool.len() as u32) as usize];
                            if !sh.cand.contains(&c) {
                                sh.cand.push(c);
                            }
                        }
                    }
                    for &supplier in &sh.cand {
                        out.probes.push(Probe {
                            supplier,
                            requester: id,
                            class,
                        });
                    }
                }
                K_COMPLETE => {
                    if sh.store.state[local] != state::STREAMING {
                        continue;
                    }
                    // Finished streaming: become a supplier of our own
                    // class (paper §2(1)).
                    let class = sh.store.class[local];
                    sh.store.state[local] = state::SUPPLYING;
                    sh.store.vector[local] =
                        PackedVector::initial(class, cfg.num_classes(), cfg.protocol());
                    sh.store.relax_anchor[local] = t;
                    sh.store.flags[local] = 0;
                    sh.store.provisional[local] = NONE_U32;
                    sh.store.best_reminder[local] = 0;
                    let item = sh.store.item[local];
                    sh.ops.push(PoolOp {
                        item,
                        id,
                        add: true,
                    });
                    sh.cap_delta += self.offers[class as usize];
                    sh.records.push(rec(t, R_SUPPLY, id, u32::from(class)));
                    sh.e_supplies += 1;
                    let lifetime = cfg.supplier_lifetime_secs();
                    if lifetime > 0 {
                        let u = rng_unit(&mut sh.store.rng[local]);
                        let dt = (-(1.0 - u).ln() * f64::from(lifetime)) as u64;
                        let when = u64::from(t) + dt.max(1);
                        if when < u64::from(horizon) {
                            sh.queue.push((when as u32, K_DEPART, id));
                        }
                    }
                }
                K_RELEASE => {
                    if sh.store.state[local] != state::SUPPLYING {
                        continue;
                    }
                    debug_assert_ne!(sh.store.flags[local] & flags::BUSY, 0);
                    sh.store.flags[local] &= !flags::BUSY;
                    if cfg.protocol() == Protocol::Dac {
                        // End-of-session §4.1(c): relax on a quiet
                        // session, tighten to the best reminder left by
                        // a favored-but-turned-away class.
                        if sh.store.flags[local] & flags::SAW_FAVORED == 0 {
                            if cfg.session_relax() {
                                sh.store.vector[local].relax(cfg.num_classes());
                            }
                        } else if cfg.reminders() && sh.store.best_reminder[local] > 0 {
                            let to = sh.store.best_reminder[local];
                            sh.store.vector[local].tighten(to, cfg.num_classes());
                        }
                    }
                    sh.store.flags[local] &= !flags::SAW_FAVORED;
                    sh.store.best_reminder[local] = 0;
                    sh.store.relax_anchor[local] = t;
                    if sh.store.flags[local] & flags::PENDING_DEPART != 0 {
                        depart(sh, &self.offers, local, id, t);
                    }
                }
                K_DEPART => {
                    if sh.store.state[local] != state::SUPPLYING {
                        continue;
                    }
                    if sh.store.flags[local] & flags::BUSY != 0 {
                        // Mid-session: finish serving, then leave.
                        sh.store.flags[local] |= flags::PENDING_DEPART;
                    } else {
                        depart(sh, &self.offers, local, id, t);
                    }
                }
                _ => unreachable!("unknown event kind {kind}"),
            }
        }
        if hour_mark {
            favored_walk(sh, cfg, t_end);
        }
    }

    /// Routes probes addressed to shard `s` into its sorted inbox.
    fn route_probes(&self, s: usize) {
        let shard_count = self.config.shards();
        let mut shard = self.shards[s].lock().unwrap();
        shard.probes_in.clear();
        for outbox in &self.outboxes {
            let outbox = outbox.read().unwrap();
            for p in &outbox.probes {
                if p.supplier % shard_count == s as u32 {
                    shard.probes_in.push(*p);
                }
            }
        }
        shard.probes_in.sort_unstable();
    }

    /// Round 1: suppliers answer their probes at boundary `tb`.
    fn supplier_phase(&self, s: usize, tb: u32) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        let mut out = self.outboxes[s].write().unwrap();
        out.replies.clear();
        let shard_count = cfg.shards();
        for i in 0..sh.probes_in.len() {
            let p = sh.probes_in[i];
            sh.e_events += 1;
            let local = (p.supplier / shard_count) as usize;
            let sup_class = sh.store.class[local];
            let verdict = if sh.store.state[local] != state::SUPPLYING {
                // Candidate departed during this epoch's local phase —
                // the pool snapshot it was sampled from predates that.
                V_REFUSED
            } else {
                sh.store
                    .sync_supplier(local, tb, cfg.t_out_secs(), cfg.protocol());
                if sh.store.flags[local] & flags::BUSY != 0 {
                    if sh.store.vector[local].favors(p.class) {
                        sh.store.flags[local] |= flags::SAW_FAVORED;
                        V_BUSY_FAVORED
                    } else {
                        V_BUSY
                    }
                } else if sh.store.provisional[local] != NONE_U32 {
                    // Already granted this boundary; to a second
                    // requester the slot is taken.
                    V_BUSY
                } else if sh.store.vector[local].decide(p.class, rng_next(&mut sh.store.rng[local]))
                {
                    sh.store.provisional[local] = p.requester;
                    V_GRANTED
                } else {
                    V_REFUSED
                }
            };
            out.replies.push(Reply {
                requester: p.requester,
                sup_class,
                supplier: p.supplier,
                verdict,
            });
        }
    }

    /// Routes replies addressed to shard `s` into its sorted inbox.
    fn route_replies(&self, s: usize) {
        let shard_count = self.config.shards();
        let mut shard = self.shards[s].lock().unwrap();
        shard.replies_in.clear();
        for outbox in &self.outboxes {
            let outbox = outbox.read().unwrap();
            for r in &outbox.replies {
                if r.requester % shard_count == s as u32 {
                    shard.replies_in.push(*r);
                }
            }
        }
        shard.replies_in.sort_unstable();
    }

    /// Round 2: requesters fold their reply groups at boundary `tb`.
    fn requester_phase(&self, s: usize, tb: u32) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        let mut out = self.outboxes[s].write().unwrap();
        out.commits.clear();
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        let full = i64::from(Bandwidth::FULL_RATE.raw());
        let mut i = 0;
        while i < sh.replies_in.len() {
            let id = sh.replies_in[i].requester;
            let mut j = i;
            while j < sh.replies_in.len() && sh.replies_in[j].requester == id {
                j += 1;
            }
            sh.e_events += 1;
            let local = (id / shard_count) as usize;
            let class = sh.store.class[local];
            // Greedy securing pass over the class-sorted grants
            // (`greedy_take` semantics; powers of two reach R0 exactly
            // whenever any subset does).
            sh.accept.clear();
            let mut total = 0i64;
            for (gi, r) in sh.replies_in[i..j].iter().enumerate() {
                if r.verdict == V_GRANTED && total < full {
                    let offer = self.offers[r.sup_class as usize];
                    if total + offer <= full {
                        total += offer;
                        sh.accept.push(gi as u32);
                    }
                }
            }
            if total == full {
                for (gi, r) in sh.replies_in[i..j].iter().enumerate() {
                    if r.verdict == V_GRANTED {
                        let action = if sh.accept.contains(&(gi as u32)) {
                            A_BEGIN
                        } else {
                            A_RELEASE
                        };
                        out.commits.push(Commit {
                            supplier: r.supplier,
                            requester: id,
                            action,
                            class,
                        });
                    }
                }
                sh.store.state[local] = state::STREAMING;
                sh.records
                    .push(rec(tb, R_ADMIT, id, sh.accept.len() as u32));
                sh.e_admits += 1;
                let c = usize::from(class) - 1;
                let waiting = tb - sh.store.first_request[local];
                sh.classes.admits[c] += 1;
                sh.classes.rejections[c] += u64::from(sh.store.rejections[local]);
                sh.classes.delay_slots[c] += sh.accept.len() as u64;
                sh.classes.waiting_secs[c] += u64::from(waiting);
                sh.classes.waiting_hist[c * WAIT_BUCKETS + wait_bucket(waiting)] += 1;
                let done = u64::from(tb) + u64::from(cfg.session_secs());
                if done < u64::from(horizon) {
                    sh.queue.push((done as u32, K_COMPLETE, id));
                }
            } else {
                // Failure: release everything, remind the Ω set of
                // busy-favored suppliers greedily covering the
                // shortfall R0 - secured (paper §4.2).
                let shortfall = full - total;
                let mut covered = 0i64;
                for r in &sh.replies_in[i..j] {
                    match r.verdict {
                        V_GRANTED => out.commits.push(Commit {
                            supplier: r.supplier,
                            requester: id,
                            action: A_RELEASE,
                            class,
                        }),
                        V_BUSY_FAVORED => {
                            let offer = self.offers[r.sup_class as usize];
                            if covered < shortfall && covered + offer <= shortfall {
                                covered += offer;
                                out.commits.push(Commit {
                                    supplier: r.supplier,
                                    requester: id,
                                    action: A_REMIND,
                                    class,
                                });
                            }
                        }
                        _ => {}
                    }
                }
                reject(sh, cfg, local, id, tb, horizon);
            }
            i = j;
        }
    }

    /// Routes commits addressed to shard `s` into its sorted inbox.
    fn route_commits(&self, s: usize) {
        let shard_count = self.config.shards();
        let mut shard = self.shards[s].lock().unwrap();
        shard.commits_in.clear();
        for outbox in &self.outboxes {
            let outbox = outbox.read().unwrap();
            for c in &outbox.commits {
                if c.supplier % shard_count == s as u32 {
                    shard.commits_in.push(*c);
                }
            }
        }
        shard.commits_in.sort_unstable();
    }

    /// Round 3: suppliers apply begins, releases, and reminders.
    fn commit_phase(&self, s: usize, tb: u32) {
        let cfg = &self.config;
        let mut shard = self.shards[s].lock().unwrap();
        let sh = &mut *shard;
        let shard_count = cfg.shards();
        let horizon = cfg.horizon_secs();
        for i in 0..sh.commits_in.len() {
            let c = sh.commits_in[i];
            sh.e_events += 1;
            let local = (c.supplier / shard_count) as usize;
            match c.action {
                A_BEGIN => {
                    debug_assert_eq!(sh.store.provisional[local], c.requester);
                    debug_assert_eq!(sh.store.state[local], state::SUPPLYING);
                    sh.store.provisional[local] = NONE_U32;
                    sh.store.flags[local] &= !flags::SAW_FAVORED;
                    sh.store.flags[local] |= flags::BUSY;
                    sh.store.best_reminder[local] = 0;
                    let done = u64::from(tb) + u64::from(cfg.session_secs());
                    if done < u64::from(horizon) {
                        sh.queue.push((done as u32, K_RELEASE, c.supplier));
                    }
                }
                A_RELEASE => {
                    if sh.store.provisional[local] == c.requester {
                        sh.store.provisional[local] = NONE_U32;
                    }
                }
                A_REMIND => {
                    // Reference semantics: reminders only stick while
                    // the supplier is busy.
                    if sh.store.flags[local] & flags::BUSY != 0 {
                        let best = sh.store.best_reminder[local];
                        if best == 0 || c.class < best {
                            sh.store.best_reminder[local] = c.class;
                        }
                    }
                }
                _ => unreachable!("unknown commit action"),
            }
        }
    }

    /// Serial epoch finalize: merge traces, apply pool ops, advance
    /// capacity, and sample curves.
    fn finalize(&self, epoch: u32, t_end: u32, hour: Option<u32>) {
        let mut g = self.global.lock().unwrap();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let sh = &mut *shard;
            g.records.append(&mut sh.records);
            g.ops.append(&mut sh.ops);
            g.capacity_raw += sh.cap_delta;
            sh.cap_delta = 0;
            g.attempts += sh.e_attempts;
            g.admits += sh.e_admits;
            g.rejects += sh.e_rejects;
            g.supplies += sh.e_supplies;
            g.departures += sh.e_departs;
            g.events += sh.e_events;
            g.win_attempts += sh.e_attempts;
            g.win_rejects += sh.e_rejects;
            sh.e_attempts = 0;
            sh.e_admits = 0;
            sh.e_rejects = 0;
            sh.e_supplies = 0;
            sh.e_departs = 0;
            sh.e_events = 0;
        }
        g.records.sort_unstable();
        let mut hash = g.hash;
        if hash == 0 {
            hash = FNV_OFFSET;
        }
        for r in &g.records {
            for b in r.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        g.hash = hash;
        g.records.clear();
        g.ops.sort_unstable();
        {
            let mut pools = self.pools.write().unwrap();
            for i in 0..g.ops.len() {
                pools.apply(g.ops[i]);
            }
        }
        g.ops.clear();
        // Power-of-two amplification crossings against the seed
        // capacity (compared in i128: initial << k can exceed i64).
        while g.next_fold_k < 48
            && g.initial_capacity_raw > 0
            && i128::from(g.capacity_raw) >= i128::from(g.initial_capacity_raw) << g.next_fold_k
        {
            let factor = 1u64 << g.next_fold_k;
            g.fold_crossings.push(FoldCrossing {
                factor,
                at_secs: t_end,
            });
            g.next_fold_k += 1;
        }
        let epochs = self.config.epochs();
        let stride = (epochs / 256).max(1);
        if epoch % stride == stride - 1 || epoch + 1 == epochs {
            let cap = g.capacity_raw;
            g.capacity_curve.push((t_end, cap));
            let (wa, wr) = (g.win_attempts, g.win_rejects);
            g.rejection_curve.push((t_end, wa, wr));
            g.win_attempts = 0;
            g.win_rejects = 0;
        }
        if let Some(hour) = hour {
            self.sample_hour(&mut g, hour, t_end);
        }
    }

    /// Assembles the report of the most recent
    /// [`execute`](Self::execute) (clones the merged state, so it can
    /// be called outside any allocation-counted region).
    pub fn report(&self) -> AmpReport {
        let g = self.global.lock().unwrap();
        let k = usize::from(self.config.num_classes());
        let mut classes: Vec<ClassTotals> = (0..k)
            .map(|_| ClassTotals {
                waiting_hist: vec![0; WAIT_BUCKETS],
                ..ClassTotals::default()
            })
            .collect();
        for shard in &self.shards {
            let sh = shard.lock().unwrap();
            for (c, totals) in classes.iter_mut().enumerate() {
                totals.first_requests += sh.classes.first_requests[c];
                totals.admits += sh.classes.admits[c];
                totals.rejections_before_admission += sh.classes.rejections[c];
                totals.delay_slots += sh.classes.delay_slots[c];
                totals.waiting_secs += sh.classes.waiting_secs[c];
                let hist = &sh.classes.waiting_hist[c * WAIT_BUCKETS..(c + 1) * WAIT_BUCKETS];
                for (total, n) in totals.waiting_hist.iter_mut().zip(hist) {
                    *total += n;
                }
            }
        }
        let hourly = g
            .hour_counts
            .chunks_exact(3 * k)
            .zip(g.hour_t.iter().zip(&g.hour_capacity))
            .map(|(counts, (&t_secs, &capacity_raw))| HourSample {
                t_secs,
                capacity_raw,
                first_requests: counts[..k].to_vec(),
                admits: counts[k..2 * k].to_vec(),
                delay_slots: counts[2 * k..].to_vec(),
            })
            .collect();
        let favored = g
            .favored
            .chunks_exact(2 * k)
            .map(|w| FavoredWindow {
                sums: w[..k].to_vec(),
                counts: w[k..].to_vec(),
            })
            .collect();
        AmpReport {
            peers: self.config.total_peers(),
            seeds: self.config.seed_suppliers(),
            shards: self.config.shards(),
            threads: self.threads_used,
            seed: self.seed,
            events: g.events,
            attempts: g.attempts,
            admits: g.admits,
            rejects: g.rejects,
            supplies: g.supplies,
            departures: g.departures,
            initial_capacity_raw: g.initial_capacity_raw,
            final_capacity_raw: g.capacity_raw,
            fold_crossings: g.fold_crossings.clone(),
            capacity_curve: g.capacity_curve.clone(),
            rejection_curve: g.rejection_curve.clone(),
            classes,
            hourly,
            favored,
            trace_hash: g.hash,
            elapsed_micros: self.elapsed_micros,
        }
    }
}

/// Records a rejection for `local`, schedules its backoff retry, and
/// bumps the epoch counters (shared by the empty-pool and boundary
/// paths).
fn reject(sh: &mut Shard, cfg: &AmpConfig, local: usize, id: u32, t: u32, horizon: u32) {
    let rejections = sh.store.rejections[local].saturating_add(1);
    sh.store.rejections[local] = rejections;
    sh.records.push(rec(t, R_REJECT, id, u32::from(rejections)));
    sh.e_rejects += 1;
    // §4.2 backoff: T_bkf · E_bkf^(i-1) after the i-th rejection.
    let exp = u32::from(rejections - 1).min(30);
    let delay =
        u64::from(cfg.t_bkf_secs()).saturating_mul(u64::from(cfg.e_bkf()).saturating_pow(exp));
    let retry = u64::from(t).saturating_add(delay);
    if retry < u64::from(horizon) {
        sh.queue.push((retry as u32, K_ATTEMPT, id));
    }
    // Else: backed off past the horizon — the peer gives up.
}

/// Fig. 7 walk: samples every supplier's lowest favored class at `now`,
/// after lazy idle relaxation, into the shard's per-class sums.
fn favored_walk(sh: &mut Shard, cfg: &AmpConfig, now: u32) {
    sh.fav_sum = [0; MAX_CLASSES];
    sh.fav_count = [0; MAX_CLASSES];
    for local in 0..sh.store.len() {
        if sh.store.state[local] == state::SUPPLYING {
            let c = usize::from(sh.store.class[local]) - 1;
            let vector = sh
                .store
                .vector_at(local, now, cfg.t_out_secs(), cfg.protocol());
            sh.fav_sum[c] += u64::from(vector.lowest_favored(cfg.num_classes()));
            sh.fav_count[c] += 1;
        }
    }
}

/// Removes `local` from the system: pool removal op, capacity delta,
/// and the departure trace record.
fn depart(sh: &mut Shard, offers: &[i64; 17], local: usize, id: u32, t: u32) {
    sh.store.state[local] = state::DEPARTED;
    sh.store.flags[local] = 0;
    let item = sh.store.item[local];
    sh.ops.push(PoolOp {
        item,
        id,
        add: false,
    });
    sh.cap_delta -= offers[sh.store.class[local] as usize];
    sh.records.push(rec(t, R_DEPART, id, 0));
    sh.e_departs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrivalProcess;

    fn small_config() -> AmpConfig {
        AmpConfig::builder()
            .requesting_peers(2_000)
            .seed_suppliers(16)
            .catalog_items(4)
            .arrival_window_secs(2 * 3_600)
            .horizon_secs(6 * 3_600)
            .epoch_secs(60)
            .build()
            .unwrap()
    }

    #[test]
    fn small_run_amplifies_capacity() {
        let report = AmpEngine::new(small_config(), 7).run();
        assert!(report.attempts > 0);
        assert!(report.admits > 0, "no admissions: {report:?}");
        assert!(report.supplies > report.seeds as u64 / 2);
        assert!(
            report.amplification() > 2.0,
            "amp {}",
            report.amplification()
        );
        assert!(report.events > 0);
        assert_ne!(report.trace_hash, 0);
        assert!(!report.capacity_curve.is_empty());
        assert!(report.time_to_fold(2).is_some());
        // Crossings are monotone in factor and time.
        for w in report.fold_crossings.windows(2) {
            assert!(w[0].factor < w[1].factor);
            assert!(w[0].at_secs <= w[1].at_secs);
        }
    }

    #[test]
    fn same_seed_reproduces_the_trace_exactly() {
        let a = AmpEngine::new(small_config(), 99).run();
        let b = AmpEngine::new(small_config(), 99).run();
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.capacity_curve, b.capacity_curve);
        assert_eq!(a.events, b.events);
        let c = AmpEngine::new(small_config(), 100).run();
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn thread_count_does_not_change_the_trace() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(2_000)
            .seed_suppliers(16)
            .catalog_items(4)
            .arrival_window_secs(3_600)
            .horizon_secs(3 * 3_600)
            .shards(4);
        let base = AmpEngine::new(builder.build().unwrap(), 5).run();
        for threads in [2usize, 4] {
            let cfg = builder.threads(threads).build().unwrap();
            let r = AmpEngine::new(cfg, 5).run();
            assert_eq!(r.trace_hash, base.trace_hash, "threads {threads}");
            assert_eq!(r.final_capacity_raw, base.final_capacity_raw);
            assert_eq!(r.admits, base.admits);
        }
    }

    #[test]
    fn shard_count_does_not_change_the_trace() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .arrival_window_secs(3_600)
            .horizon_secs(3 * 3_600);
        let base = AmpEngine::new(builder.shards(1).build().unwrap(), 11).run();
        for shards in [2u32, 4, 7] {
            let cfg = builder.shards(shards).build().unwrap();
            let r = AmpEngine::new(cfg, 11).run();
            assert_eq!(r.trace_hash, base.trace_hash, "shards {shards}");
            assert_eq!(r.capacity_curve, base.capacity_curve);
            assert_eq!(r.rejection_curve, base.rejection_curve);
        }
    }

    #[test]
    fn ndac_and_dac_produce_different_traces() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_000)
            .seed_suppliers(8)
            .catalog_items(2)
            .arrival_window_secs(3_600)
            .horizon_secs(2 * 3_600);
        let dac = AmpEngine::new(builder.build().unwrap(), 3).run();
        let ndac = AmpEngine::new(builder.protocol(Protocol::Ndac).build().unwrap(), 3).run();
        assert_ne!(dac.trace_hash, ndac.trace_hash);
    }

    #[test]
    fn churn_causes_departures_and_caps_growth() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600);
        let stable = AmpEngine::new(builder.build().unwrap(), 21).run();
        let churned =
            AmpEngine::new(builder.supplier_lifetime_secs(1_800).build().unwrap(), 21).run();
        assert_eq!(stable.departures, 0);
        assert!(churned.departures > 0);
        assert!(churned.final_capacity_raw < stable.final_capacity_raw);
    }

    #[test]
    fn same_epoch_convert_and_depart_applies_in_order() {
        // A lifetime shorter than one epoch makes many suppliers queue
        // their pool `add` and churn `remove` at the same finalize;
        // PoolOp ordering must apply the add first (regression: the
        // derived Ord sorted removes first and finalize panicked).
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .supplier_lifetime_secs(30)
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600)
            .epoch_secs(60);
        let r = AmpEngine::new(builder.build().unwrap(), 5).run();
        assert!(r.departures > 0);
        let r2 = AmpEngine::new(builder.shards(2).build().unwrap(), 5).run();
        assert_eq!(r.trace_hash, r2.trace_hash);
    }

    #[test]
    fn flash_crowd_process_runs_to_completion() {
        let mut builder = AmpConfig::builder();
        builder
            .requesting_peers(1_500)
            .seed_suppliers(12)
            .catalog_items(3)
            .process(ArrivalProcess::flash_crowd())
            .arrival_window_secs(3_600)
            .horizon_secs(4 * 3_600);
        let r = AmpEngine::new(builder.build().unwrap(), 17).run();
        assert!(r.admits > 0);
        assert!(r.rejects > 0, "a flash crowd should saturate early seeds");
    }

    /// The paper's setup on one shard with 4 seeds and 200 requesters.
    fn one_shard_paper() -> AmpConfig {
        AmpConfig::paper()
            .seed_suppliers(4)
            .requesting_peers(200)
            .shards(1)
            .build()
            .unwrap()
    }

    /// A 1-shard engine whose queue holds only `events`.
    fn engine_with_events(events: &[(u32, u8, u32)]) -> AmpEngine {
        let engine = AmpEngine::new(one_shard_paper(), 5);
        {
            let mut shard = engine.shards[0].lock().unwrap();
            shard.queue.clear();
            for &event in events {
                shard.queue.push(event);
            }
        }
        engine
    }

    #[test]
    fn churn_departures_shrink_capacity() {
        // An idle supplier whose lifetime expires leaves at once: state,
        // pool removal and capacity all follow in the same local phase.
        let engine = engine_with_events(&[(10, K_DEPART, 1)]);
        engine.local_phase(0, 60, false);
        let shard = engine.shards[0].lock().unwrap();
        assert_eq!(shard.store.state[1], state::DEPARTED);
        assert_eq!(shard.e_departs, 1);
        assert_eq!(shard.cap_delta, -engine.offers[1]);
        assert_eq!(
            shard.ops,
            vec![PoolOp {
                item: 0,
                id: 1,
                add: false
            }]
        );
    }

    #[test]
    fn busy_suppliers_depart_only_after_their_session() {
        // Seed 0 is mid-session when its departure fires: it keeps
        // serving and leaves when the session releases it.
        let engine = engine_with_events(&[(10, K_DEPART, 0), (100, K_RELEASE, 0)]);
        engine.shards[0].lock().unwrap().store.flags[0] |= flags::BUSY;
        engine.local_phase(0, 60, false);
        {
            let shard = engine.shards[0].lock().unwrap();
            assert_eq!(shard.store.state[0], state::SUPPLYING);
            assert_ne!(shard.store.flags[0] & flags::PENDING_DEPART, 0);
            assert_eq!((shard.e_departs, shard.cap_delta), (0, 0));
        }
        engine.local_phase(0, 120, false);
        let shard = engine.shards[0].lock().unwrap();
        assert_eq!(shard.store.state[0], state::DEPARTED);
        assert_eq!(shard.e_departs, 1);
        assert_eq!(shard.cap_delta, -engine.offers[1]);
    }

    #[test]
    fn peer_id_space_is_seeds_then_requesters() {
        let engine = AmpEngine::new(one_shard_paper(), 1);
        let shard = engine.shards[0].lock().unwrap();
        assert_eq!(shard.store.len(), 204);
        assert!(shard.store.state[..4]
            .iter()
            .all(|&s| s == state::SUPPLYING));
        assert!(shard.store.state[4..].iter().all(|&s| s == state::WAITING));
        assert!(shard.store.class[..4].iter().all(|&c| c == 1));
    }

    #[test]
    fn reset_reproduces_and_rerun_without_reset_panics() {
        let mut engine = AmpEngine::new(small_config(), 42);
        let first = engine.run();
        engine.reset(42);
        let second = engine.run();
        assert_eq!(first.trace_hash, second.trace_hash);
        assert_eq!(first.events, second.events);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()));
        assert!(result.is_err(), "second run without reset must panic");
    }
}
