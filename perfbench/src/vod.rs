//! `swarm_vod`: the live stack end to end under an open loop of viewers.
//!
//! Viewers arrive as a seeded Poisson process. Each one spawns a node on
//! the shared reactor, asks the directory for `M` candidates, runs the
//! §4.2 admission round and receives the §3-paced stream; a rejected
//! viewer retries on the same node after a constant backoff. Admitted
//! viewers stay as suppliers, so capacity grows during the run.
//!
//! The issuing thread keeps the schedule; each attempt's `wait()` runs
//! on a short-lived waiter thread, so a fast rejection is seen when it
//! happens, not after slower sessions issued before it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_monitor::Recorder;
use p2ps_node::{NodeError, PeerNode, PendingStream, StreamOutcome};

use crate::inputs::SplitMix;
use crate::procfs::{nproc, open_files_limit, peak_rss_mb};
use crate::stats::{median, Dist};
use crate::swarm::{ms, session_layers, Attempt, Counters, Ledger, Swarm, Viewer};
use crate::tap::{RecorderClock, SessionTap, Timeline};
use crate::{Kind, Run};

const ARRIVALS_PER_S: f64 = 100.0;
const SEEDS: u64 = 2;
const SEGMENTS: u64 = 16;
const SEGMENT_BYTES: u32 = 4 << 10;
const DT_MS: u64 = 10;
/// The paper's class mix: classes 1–4 at 10/10/40/40 %, kept exactly in
/// every ten consecutive arrivals.
const CLASS_MIX: [u32; 4] = [10, 10, 40, 40];
/// Candidates per directory query (paper `M`).
const M: usize = 8;
const BACKOFF: Duration = Duration::from_millis(20);
const MAX_ATTEMPTS: usize = 100;
const FIRST_VIEWER_ID: u64 = 1_000;
/// Lead time between set-up and the first due arrival.
const LEAD: Duration = Duration::from_millis(20);
/// Arrivals in this first stretch grow the swarm from its two seeds and
/// are not measured. How fast early viewers get in depends on the
/// seed's first few classes, and their rejection storm would otherwise
/// set the p90 and the CPU cost of a 20 s run.
const WARMUP: Duration = Duration::from_secs(5);
/// A seed swarm starts in well under a millisecond; `setup_s` is the
/// median of this many starts before the run and as many after it.
const SETUP_REPEATS: usize = 25;

/// What a waiter thread reports back to the issuer.
enum Msg {
    Rejected {
        viewer: usize,
        attempt: Attempt,
        at: Instant,
    },
    Finished {
        viewer: usize,
        attempt: Attempt,
        at: Instant,
        result: Result<StreamOutcome, String>,
        verified: bool,
    },
}

/// The issuer's view of one viewer.
#[derive(Default)]
struct Track {
    viewer: Viewer,
    class: u8,
    node: Option<Arc<PeerNode>>,
    /// Per attempt: how late the generator issued it, in ms.
    lags: Vec<f64>,
    /// Rejection seen → next attempt due, per retry, in ms.
    backoffs: Vec<f64>,
    first_due: Option<Instant>,
    /// Playback start minus first due time, for a completed viewer.
    startup_ms: Option<f64>,
}

fn waiter(
    viewer: usize,
    pending: PendingStream,
    node: Arc<PeerNode>,
    mut attempt: Attempt,
    recorder: Option<Recorder>,
    reference: &MediaFile,
    tx: Sender<Msg>,
) {
    let result = pending.wait();
    let at = Instant::now();
    attempt.timeline = recorder.as_ref().map(Timeline::read);
    let msg = match result {
        Err(NodeError::Rejected { .. }) => Msg::Rejected {
            viewer,
            attempt,
            at,
        },
        Ok(outcome) => Msg::Finished {
            viewer,
            attempt,
            at,
            result: Ok(outcome),
            verified: node.media_file().as_ref() == Some(reference),
        },
        Err(e) => Msg::Finished {
            viewer,
            attempt,
            at,
            result: Err(e.to_string()),
            verified: false,
        },
    };
    tx.send(msg).expect("the issuer outlives every waiter");
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let threads = nproc();
    let info = MediaInfo::new(
        "vod",
        SEGMENTS,
        SegmentDuration::from_millis(DT_MS),
        SEGMENT_BYTES,
    );

    // Inputs: Poisson arrival offsets and viewer classes.
    let mut rng = SplitMix::new(seed);
    let mut offsets = Vec::new();
    let mut t = rng.exp(1.0 / ARRIVALS_PER_S);
    while t < WARMUP.as_secs_f64() + seconds {
        offsets.push(Duration::from_secs_f64(t));
        t += rng.exp(1.0 / ARRIVALS_PER_S);
    }
    let n = offsets.len();
    let measured_from = offsets.partition_point(|o| *o < WARMUP);
    let mut tracks: Vec<Track> = rng
        .stratified(&CLASS_MIX, n)
        .into_iter()
        .map(|c| Track {
            class: c as u8 + 1,
            ..Track::default()
        })
        .collect();

    let mut run = Run::default();
    // Every viewer keeps a listener open to the end of the run.
    let fds = open_files_limit();
    let needed = n as u64 + 2_048;
    run.check(
        "vod: open-file limit covers every viewer's listener",
        fds >= needed,
        format!("limit {fds}, need {needed}"),
    );
    if fds < needed {
        return run;
    }

    let mut setup_times = Vec::new();
    let swarm = Swarm::set_up(&info, SEEDS, threads, SETUP_REPEATS, &mut setup_times);
    let reference = MediaFile::synthesize(info.clone());
    let mut tap = traced.then(|| SessionTap::new(swarm.reactor.monitor()));
    let clock = RecorderClock::calibrate();
    let (tx, rx) = mpsc::channel::<Msg>();

    let mut before = None;
    let origin = Instant::now() + LEAD;
    let mut retries: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut next_new = 0;
    let mut finished = 0;
    std::thread::scope(|s| {
        while finished < n {
            let new_due = (next_new < n).then(|| origin + offsets[next_new]);
            let retry_due = retries.peek().map(|Reverse((at, _))| *at);
            let due = match (new_due, retry_due) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let now = Instant::now();
            let msg = match due {
                None => Some(rx.recv().expect("waiters report")),
                Some(d) if d > now => match rx.recv_timeout(d - now) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("issuer holds a sender"),
                },
                Some(_) => None,
            };
            if let Some(msg) = msg {
                match msg {
                    Msg::Rejected {
                        viewer,
                        mut attempt,
                        at,
                    } => {
                        attempt.rejected = true;
                        let tr = &mut tracks[viewer];
                        tr.viewer.attempts.push(attempt);
                        if tr.viewer.attempts.len() < MAX_ATTEMPTS {
                            tr.backoffs.push(ms(BACKOFF));
                            retries.push(Reverse((at + BACKOFF, viewer)));
                        } else {
                            tr.viewer.error = Some("rejected on every attempt".into());
                            finished += 1;
                        }
                    }
                    Msg::Finished {
                        viewer,
                        attempt,
                        at,
                        result,
                        verified,
                    } => {
                        let tr = &mut tracks[viewer];
                        tr.viewer.attempts.push(attempt);
                        tr.viewer.returned_ms = clock.ms(at);
                        tr.viewer.verified = verified;
                        match result {
                            Ok(o) => {
                                // Playback starts `measured_delay_ms` after the
                                // session launched, which was `duration_ms`
                                // before it returned.
                                let start = ms(at - tr.first_due.expect("issued"))
                                    - o.duration_ms as f64
                                    + o.measured_delay_ms as f64;
                                tr.startup_ms = verified.then_some(start);
                                tr.viewer.outcome = Some(o);
                            }
                            Err(e) => tr.viewer.error = Some(e),
                        }
                        finished += 1;
                    }
                }
                continue;
            }

            // Issue whichever attempt is due first.
            let (v, due) = match (new_due, retry_due) {
                (Some(a), Some(b)) if b < a => {
                    let Reverse((at, v)) = retries.pop().expect("peeked");
                    (v, at)
                }
                (Some(a), _) => {
                    next_new += 1;
                    (next_new - 1, a)
                }
                (None, _) => {
                    let Reverse((at, v)) = retries.pop().expect("peeked");
                    (v, at)
                }
            };
            if v == measured_from && before.is_none() {
                before = Some(Counters::read(&swarm));
            }
            let tr = &mut tracks[v];
            tr.lags
                .push(ms(Instant::now().saturating_duration_since(due)));
            if tr.node.is_none() {
                tr.first_due = Some(due);
                let class = PeerClass::new(tr.class).expect("class 1-4");
                let t = Instant::now();
                let node = PeerNode::spawn_on(
                    swarm.config(FIRST_VIEWER_ID + v as u64, class),
                    swarm.clock.clone(),
                    &swarm.reactor,
                )
                .expect("viewer node starts");
                tr.viewer.spawn = t.elapsed();
                tr.node = Some(Arc::new(node));
            }
            let node = Arc::clone(tr.node.as_ref().expect("spawned above"));
            let t = Instant::now();
            let pending = node.begin_stream(M);
            let attempt = Attempt {
                begin: t.elapsed(),
                ..Attempt::default()
            };
            let recorder = tap.as_mut().and_then(SessionTap::newest);
            match pending {
                Ok(pending) => {
                    let (tx, reference) = (tx.clone(), &reference);
                    s.spawn(move || waiter(v, pending, node, attempt, recorder, reference, tx));
                }
                Err(e) => {
                    tr.viewer.attempts.push(attempt);
                    tr.viewer.error = Some(e.to_string());
                    finished += 1;
                }
            }
        }
    });
    let after = Counters::read(&swarm);
    let before = before.unwrap_or_else(|| Counters::read(&swarm));
    for tr in &mut tracks {
        if let Some(node) = tr.node.take().and_then(Arc::into_inner) {
            node.shutdown();
        }
    }
    swarm.shutdown();
    Swarm::set_up(&info, SEEDS, threads, SETUP_REPEATS, &mut setup_times).shutdown();
    let setup_s = median(&setup_times);

    let (warmup, tracks) = tracks.split_at(measured_from);
    print_warmup(warmup);
    let mut startup = Dist::new();
    let mut completed = 0u64;
    for tr in tracks {
        run.attempted += 1;
        match tr.startup_ms {
            Some(s) => {
                completed += 1;
                startup.push(s);
            }
            None => {
                run.failed += 1;
                startup.miss();
            }
        }
    }
    run.check(
        "vod: every completed viewer's file is byte-equal to the original",
        tracks
            .iter()
            .all(|t| t.viewer.outcome.is_none() || t.viewer.verified),
        format!("{completed} of {} measured viewers verified", tracks.len()),
    );
    if let Some(e) = tracks.iter().find_map(|t| t.viewer.error.as_ref()) {
        println!("  first failed viewer: {e}");
    }
    let cpu_ms = before.cpu_ms_per_session(&after, completed);
    run.e2e("setup_s", "s", setup_s);
    // Startup has one mode per supplier count n (Theorem 1: n·δt), and
    // the median sits on the edge of the n = 1 mode: it jumps between
    // about 13.5 and 21 ms from seed to seed. The mean moves smoothly
    // and is what the layer ledger adds up to, so it is the gated one.
    run.mean(Kind::EndToEnd, "latency_ms", "ms", &startup);
    // The open loop sets the rate; viewers that finish late or not at
    // all lower it.
    run.e2e(
        "ops_per_s",
        "1/s",
        completed as f64 / before.wall(&after).as_secs_f64(),
    );
    run.e2e("cpu_us_per_op", "us", cpu_ms * 1e3);
    run.e2e("peak_rss_MB", "MB", peak_rss_mb());
    run.mean(Kind::Printed, "startup_ms.mean", "ms", &startup);
    run.percentile(
        Kind::Printed,
        "startup_ms.p50",
        "ms",
        &mut startup,
        50.0,
        None,
    );
    run.percentile(
        Kind::Printed,
        "startup_ms.p90",
        "ms",
        &mut startup,
        90.0,
        None,
    );
    run.metric(Kind::Printed, "cpu_ms_per_session", "ms", cpu_ms);
    let rejections: usize = tracks.iter().map(|t| t.viewer.rejections()).sum();
    println!(
        "swarm_vod: {} viewers over {seconds} s after warm-up, {completed} completed, {rejections} rejections",
        tracks.len()
    );

    if traced {
        let mut lag = Dist::new();
        for l in tracks.iter().flat_map(|t| &t.lags) {
            lag.push(*l);
        }
        run.percentile(Kind::Layer, "gen.lag_ms.p50", "ms", &mut lag, 50.0, None);
        run.percentile(Kind::Layer, "gen.lag_ms.p90", "ms", &mut lag, 90.0, None);
        ledger(tracks);
        let viewers: Vec<&Viewer> = tracks.iter().map(|t| &t.viewer).collect();
        session_layers(&viewers, &mut run);
        before.layers(&after, completed, &mut run);
        println!(
            "  outside the p2ps-net counters: {} directory lookups and up to {} candidate connects \
             (blocking std::net on the issuing thread), {completed} registrations \
             (blocking std::net on the waiter threads)",
            viewers.iter().map(|v| v.attempts.len()).sum::<usize>(),
            viewers.iter().map(|v| v.attempts.len()).sum::<usize>() * M,
        );
    }
    run
}

/// The swarm's self-growth during warm-up: early viewers are rejected
/// until admitted viewers have become suppliers.
fn print_warmup(warmup: &[Track]) {
    let mut startup = Dist::new();
    for tr in warmup {
        match tr.startup_ms {
            Some(s) => startup.push(s),
            None => startup.miss(),
        }
    }
    let rejections: usize = warmup.iter().map(|t| t.viewer.rejections()).sum();
    let p50 = startup.percentile(50.0).map_or_else(
        |e| e.to_string(),
        |v| format!("{:.3} ms", v.unwrap_or(f64::INFINITY)),
    );
    println!(
        "swarm_vod warm-up ({} s, not measured): {} viewers, {:.2} rejections per viewer, startup p50 {p50}",
        WARMUP.as_secs(),
        warmup.len(),
        rejections as f64 / warmup.len().max(1) as f64
    );
}

/// Splits each completed viewer's startup into the layers it crossed and
/// prints the mean of each part and the share no layer accounts for.
fn ledger(tracks: &[Track]) {
    let mut ledger = Ledger::new([
        "generator lag",
        "PeerNode::spawn_on",
        "begin_stream (lookup + connects)",
        "admission round",
        "backoff on retries",
        "wait for first segment",
        "buffering",
    ]);
    for tr in tracks {
        let (Some(startup), Some(o)) = (tr.startup_ms, &tr.viewer.outcome) else {
            continue;
        };
        let attempts = &tr.viewer.attempts;
        let timelines: Option<Vec<&Timeline>> =
            attempts.iter().map(|a| a.timeline.as_ref()).collect();
        let Some(timelines) = timelines else {
            continue; // some attempt's recorder was not found
        };
        let last = timelines
            .last()
            .expect("a completed viewer made an attempt");
        let (Some(rounds), Some(first)) = (
            timelines.iter().map(|t| t.round_ms()).sum::<Option<f64>>(),
            last.first_segment_wait_ms(),
        ) else {
            continue;
        };
        let parts = [
            tr.lags.iter().sum(),
            ms(tr.viewer.spawn),
            attempts.iter().map(|a| ms(a.begin)).sum(),
            rounds,
            tr.backoffs.iter().sum(),
            first,
            o.measured_delay_ms as f64 - first,
        ];
        ledger.add(parts, startup);
    }
    ledger.print("swarm_vod startup ledger", "startup (end to end)");
}
