//! The live stack both swarm workloads run on: a directory, class-1
//! seeds and a shared `NodeReactor`, plus the counters the program
//! already exposes about them.

use std::time::{Duration, Instant};

use p2ps_core::{PeerClass, PeerId};
use p2ps_media::MediaInfo;
use p2ps_monitor::Monitor;
use p2ps_net::sys::{syscall_counts, SyscallCounts};
use p2ps_node::{Clock, DirectoryServer, NodeConfig, NodeReactor, PeerNode, StreamOutcome};
use p2ps_proto::CandidateRecord;

use crate::procfs::{process_cpu, threads_cpu};
use crate::stats::Dist;
use crate::tap::Timeline;
use crate::{Kind, Run};

/// Reactor threads are named `p2ps-reactor-{i}` by `p2ps-net`.
const REACTOR_THREAD: &str = "p2ps-reactor-";
const DIRECTORY_THREAD: &str = "p2ps-directory";

pub struct Swarm {
    pub reactor: NodeReactor,
    pub directory: DirectoryServer,
    pub seeds: Vec<PeerNode>,
    pub clock: Clock,
    pub info: MediaInfo,
}

impl Swarm {
    fn start(info: &MediaInfo, seeds: u64, threads: usize) -> Swarm {
        let reactor = NodeReactor::with_threads(threads).expect("reactor starts");
        let directory = DirectoryServer::start().expect("directory starts");
        let clock = Clock::new();
        let seeds = (1..=seeds)
            .map(|id| {
                let cfg = node_config(info, &directory, id, PeerClass::HIGHEST);
                PeerNode::spawn_seed_on(cfg, clock.clone(), &reactor).expect("seed starts")
            })
            .collect();
        Swarm {
            reactor,
            directory,
            seeds,
            clock,
            info: info.clone(),
        }
    }

    /// Starts the swarm `repeats` times, keeping the last one, and
    /// appends each start time in seconds to `times`. Set-up time drifts
    /// with the host over seconds, so a workload calls this again at the
    /// end of its run and reports the median of both rounds.
    pub fn set_up(
        info: &MediaInfo,
        seeds: u64,
        threads: usize,
        repeats: usize,
        times: &mut Vec<f64>,
    ) -> Swarm {
        let mut swarm: Option<Swarm> = None;
        for _ in 0..repeats {
            if let Some(s) = swarm.take() {
                s.shutdown();
            }
            let t = Instant::now();
            swarm = Some(Swarm::start(info, seeds, threads));
            times.push(t.elapsed().as_secs_f64());
        }
        swarm.expect("at least one set-up")
    }

    pub fn config(&self, id: u64, class: PeerClass) -> NodeConfig {
        node_config(&self.info, &self.directory, id, class)
    }

    /// Candidate records naming every seed, for `begin_stream_from`.
    pub fn seed_candidates(&self) -> Vec<CandidateRecord> {
        self.seeds
            .iter()
            .map(|n| CandidateRecord {
                id: n.id(),
                class: n.class(),
                port: n.port(),
            })
            .collect()
    }

    pub fn shutdown(self) {
        for seed in self.seeds {
            seed.shutdown();
        }
        self.reactor.shutdown();
        self.directory.shutdown();
    }
}

/// A node of the swarm. The idle relaxation timeout `T_out` keeps the
/// paper's ratio to the item's length (§5.1: 20 min for 60 min of
/// media); the node default of 60 s would outlast every run, so a
/// supplier would never relax its admission vector.
fn node_config(
    info: &MediaInfo,
    directory: &DirectoryServer,
    id: u64,
    class: PeerClass,
) -> NodeConfig {
    let mut cfg = NodeConfig::new(PeerId::new(id), class, info.clone(), directory.addr());
    cfg.idle_timeout_ms = info.duration().as_millis() as u64 / 3;
    cfg
}

fn counter_sum(monitor: &Monitor, name: &str) -> u64 {
    monitor
        .snapshot()
        .nodes()
        .iter()
        .filter_map(|n| n.metric(name))
        .map(|m| m.value().as_i64().max(0) as u64)
        .sum()
}

/// Process and layer counters at one instant; two readings bracket a
/// measured interval.
pub struct Counters {
    at: Instant,
    cpu: Duration,
    sys: SyscallCounts,
    bytes_written: u64,
    reactor_cpu: Duration,
    reactor_threads: usize,
    directory_cpu: Duration,
    stalls: u64,
}

impl Counters {
    pub fn read(swarm: &Swarm) -> Counters {
        let (reactor_cpu, reactor_threads) = threads_cpu(REACTOR_THREAD);
        let (directory_cpu, _) = threads_cpu(DIRECTORY_THREAD);
        Counters {
            at: Instant::now(),
            cpu: process_cpu(),
            sys: syscall_counts(),
            bytes_written: counter_sum(swarm.reactor.monitor(), "bytes_written_total")
                + counter_sum(swarm.directory.monitor(), "bytes_written_total"),
            reactor_cpu,
            reactor_threads,
            directory_cpu,
            stalls: counter_sum(swarm.reactor.monitor(), "watchdog_stalls_total"),
        }
    }

    /// Wall time from `self` to `later`.
    pub fn wall(&self, later: &Counters) -> Duration {
        later.at - self.at
    }

    /// Process CPU per completed session, in ms.
    pub fn cpu_ms_per_session(&self, later: &Counters, sessions: u64) -> f64 {
        (later.cpu.saturating_sub(self.cpu)).as_secs_f64() * 1e3 / sessions.max(1) as f64
    }

    /// The per-layer metrics these counters give, over `sessions`
    /// completed viewers.
    pub fn layers(&self, later: &Counters, sessions: u64, run: &mut Run) {
        let sys = later.sys.since(&self.sys);
        let per = |n: u64| n as f64 / sessions.max(1) as f64;
        let wall = self.wall(later).as_secs_f64();
        run.layer("net.syscalls_per_session", "count", per(sys.total()));
        run.layer("net.reads_per_session", "count", per(sys.reads));
        run.layer("net.writevs_per_session", "count", per(sys.writevs));
        run.layer("net.epoll_waits_per_session", "count", per(sys.epoll_waits));
        run.layer(
            "net.bytes_per_writev",
            "B",
            (later.bytes_written - self.bytes_written) as f64 / sys.writevs.max(1) as f64,
        );
        run.layer(
            "net.reactor_busy_share",
            "share",
            later
                .reactor_cpu
                .saturating_sub(self.reactor_cpu)
                .as_secs_f64()
                / (wall * later.reactor_threads.max(1) as f64),
        );
        run.layer(
            "directory.busy_share",
            "share",
            later
                .directory_cpu
                .saturating_sub(self.directory_cpu)
                .as_secs_f64()
                / wall,
        );
        run.layer(
            "watchdog.stalls",
            "count",
            (later.stalls - self.stalls) as f64,
        );
    }
}

/// One `begin_stream` + `wait` attempt of a viewer.
#[derive(Debug, Default)]
pub struct Attempt {
    /// Time inside `begin_stream`/`begin_stream_from`.
    pub begin: Duration,
    pub rejected: bool,
    /// The session's flight-recorder timeline (traced runs).
    pub timeline: Option<Timeline>,
}

/// One viewer's whole lifecycle, as the benchmark saw it.
#[derive(Debug, Default)]
pub struct Viewer {
    /// Time inside `PeerNode::spawn_on`.
    pub spawn: Duration,
    pub attempts: Vec<Attempt>,
    /// The final attempt's outcome, if it completed.
    pub outcome: Option<StreamOutcome>,
    /// Recorder-clock ms at which the final `wait()` returned.
    pub returned_ms: f64,
    /// The node's file is byte-equal to the synthesized original.
    pub verified: bool,
    pub error: Option<String>,
}

impl Viewer {
    pub fn rejections(&self) -> usize {
        self.attempts.iter().filter(|a| a.rejected).count()
    }
}

/// The per-layer metrics both swarm workloads derive from their
/// viewers' timings and flight recorders.
pub fn session_layers(viewers: &[&Viewer], run: &mut Run) {
    let mut spawn = Dist::new();
    let mut begin = Dist::new();
    let mut round = Dist::new();
    let mut first_segment = Dist::new();
    let mut wait_tail = Dist::new();
    let mut excess = Dist::new();
    let (mut requests, mut grants, mut replans, mut untapped) = (0, 0, 0, 0);
    let mut admitted = 0;
    for v in viewers {
        spawn.push(ms(v.spawn));
        for a in &v.attempts {
            begin.push(ms(a.begin));
            let Some(t) = &a.timeline else {
                untapped += 1;
                continue;
            };
            requests += t.requests;
            grants += t.grants;
            replans += t.replans;
            if let Some(r) = t.round_ms() {
                round.push(r);
            }
            if let Some(f) = t.first_segment_wait_ms() {
                first_segment.push(f);
            }
        }
        if let Some(o) = &v.outcome {
            admitted += 1;
            excess.push(o.measured_delay_ms as f64 - o.theoretical_delay_ms as f64);
            let completed = v
                .attempts
                .last()
                .and_then(|a| a.timeline.as_ref())
                .and_then(|t| t.completed_ms);
            if let Some(c) = completed {
                // A recorder stamp is the whole millisecond the event fell in.
                wait_tail.push(v.returned_ms - (c as f64 + 0.5));
            }
        }
    }
    let rejections: usize = viewers.iter().map(|v| v.rejections()).sum();
    // Recorder stamps and outcome delays are whole milliseconds.
    let mut ms_pct = |name, dist: &mut Dist, p, quantum| {
        run.percentile(Kind::Layer, name, "ms", dist, p, quantum);
    };
    ms_pct("node.spawn_ms.p50", &mut spawn, 50.0, None);
    ms_pct("node.begin_stream_ms.p50", &mut begin, 50.0, None);
    ms_pct("node.begin_stream_ms.p90", &mut begin, 90.0, None);
    ms_pct("node.wait_tail_ms.p50", &mut wait_tail, 50.0, None);
    ms_pct("admission.round_ms.p50", &mut round, 50.0, Some(1.0));
    ms_pct("admission.round_ms.p90", &mut round, 90.0, Some(1.0));
    ms_pct(
        "session.first_segment_ms.p50",
        &mut first_segment,
        50.0,
        Some(1.0),
    );
    ms_pct("session.buffer_excess_ms.p90", &mut excess, 90.0, Some(1.0));
    run.layer(
        "admission.rejections_per_viewer",
        "count",
        rejections as f64 / admitted.max(1) as f64,
    );
    run.layer(
        "admission.grant_ratio",
        "share",
        grants as f64 / requests.max(1) as f64,
    );
    run.layer("session.replans", "count", replans as f64);
    if untapped > 0 {
        println!("  note: {untapped} attempt(s) ended before their flight recorder was found");
    }
}

/// Per-viewer layer parts that should add up to an end-to-end time.
pub struct Ledger<const N: usize> {
    parts: [&'static str; N],
    sums: [f64; N],
    total: f64,
    count: usize,
}

impl<const N: usize> Ledger<N> {
    pub fn new(parts: [&'static str; N]) -> Ledger<N> {
        Ledger {
            parts,
            sums: [0.0; N],
            total: 0.0,
            count: 0,
        }
    }

    /// Adds one viewer: its parts and the end-to-end time they split.
    pub fn add(&mut self, parts: [f64; N], total: f64) {
        for (s, p) in self.sums.iter_mut().zip(parts) {
            *s += p;
        }
        self.total += total;
        self.count += 1;
    }

    /// Prints the mean of each part, its share of the end-to-end time,
    /// and the share no layer accounts for.
    pub fn print(&self, title: &str, total_name: &str) {
        if self.count == 0 {
            println!("{title}: no fully traced viewer");
            return;
        }
        let n = self.count as f64;
        println!("{title}, mean over {} fully traced viewers:", self.count);
        let row = |name: &str, sum: f64| {
            println!(
                "  {name:<34} {:>9.3} ms {:>6.1} %",
                sum / n,
                sum / self.total * 100.0
            );
        };
        for (name, s) in self.parts.iter().zip(self.sums) {
            row(name, s);
        }
        row("unattributed", self.total - self.sums.iter().sum::<f64>());
        println!("  {total_name:<34} {:>9.3} ms", self.total / n);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
