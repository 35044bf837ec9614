//! `swarm_bulk`: the live stack moving bulk payload. A closed loop of
//! `nproc` class-1 viewers, each streaming a 64 MiB item from every seed
//! by `begin_stream_from` (no directory lookup), then leaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::PeerClass;
use p2ps_media::{MediaFile, MediaInfo};
use p2ps_node::{NodeError, PeerNode};
use p2ps_proto::CandidateRecord;

use crate::inputs::SplitMix;
use crate::procfs::{nproc, peak_rss_mb};
use crate::stats::{median, Dist};
use crate::swarm::{ms, session_layers, Attempt, Counters, Ledger, Swarm, Viewer};
use crate::tap::{RecorderClock, SessionTap, Timeline};
use crate::{Kind, Run};

const SEEDS: u64 = 4;
const SEGMENTS: u64 = 64;
const SEGMENT_BYTES: u32 = 1 << 20;
const DT_MS: u64 = 1;
/// A seed still finishing its previous session denies; retry soon.
const BACKOFF: Duration = Duration::from_millis(1);
const MAX_ATTEMPTS: usize = 20;
const FIRST_VIEWER_ID: u64 = 1_000;
/// Each set-up synthesizes four 64 MiB seed files (about 0.2 s);
/// `setup_s` is the median of this many before the run and as many
/// after it.
const SETUP_REPEATS: usize = 3;

/// One viewer's session plus its request-to-file time.
struct Session {
    viewer: Viewer,
    session: Duration,
}

fn stream_one(
    swarm: &Swarm,
    id: u64,
    candidates: Vec<CandidateRecord>,
    reference: &MediaFile,
    tap: Option<&Mutex<SessionTap>>,
    clock: RecorderClock,
) -> Session {
    let mut v = Viewer::default();
    let t = Instant::now();
    let node = PeerNode::spawn_on(
        swarm.config(id, PeerClass::HIGHEST),
        swarm.clock.clone(),
        &swarm.reactor,
    )
    .expect("viewer node starts");
    v.spawn = t.elapsed();
    let requested = Instant::now();
    let mut returned;
    loop {
        let t = Instant::now();
        let (pending, recorder) = match tap {
            Some(tap) => {
                let mut tap = tap.lock().expect("tap lock");
                let pending = node.begin_stream_from(candidates.clone());
                (pending, tap.newest())
            }
            None => (node.begin_stream_from(candidates.clone()), None),
        };
        let mut attempt = Attempt {
            begin: t.elapsed(),
            ..Attempt::default()
        };
        let result = pending.and_then(|p| p.wait());
        returned = Instant::now();
        attempt.timeline = recorder.as_ref().map(Timeline::read);
        match result {
            Ok(outcome) => {
                v.attempts.push(attempt);
                v.outcome = Some(outcome);
                v.returned_ms = clock.ms(returned);
                v.verified = node.media_file().as_ref() == Some(reference);
                break;
            }
            Err(NodeError::Rejected { .. }) if v.attempts.len() + 1 < MAX_ATTEMPTS => {
                attempt.rejected = true;
                v.attempts.push(attempt);
                std::thread::sleep(BACKOFF);
            }
            Err(e) => {
                v.attempts.push(attempt);
                v.error = Some(e.to_string());
                break;
            }
        }
    }
    node.shutdown();
    Session {
        viewer: v,
        session: returned - requested,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let threads = nproc();
    let info = MediaInfo::new(
        "bulk",
        SEGMENTS,
        SegmentDuration::from_millis(DT_MS),
        SEGMENT_BYTES,
    );
    let mut setup_times = Vec::new();
    let swarm = Swarm::set_up(&info, SEEDS, threads, SETUP_REPEATS, &mut setup_times);
    let reference = MediaFile::synthesize(info.clone());
    let tap = traced.then(|| Mutex::new(SessionTap::new(swarm.reactor.monitor())));
    let clock = RecorderClock::calibrate();
    let next_id = AtomicU64::new(FIRST_VIEWER_ID);
    let sessions = Mutex::new(Vec::new());

    let before = Counters::read(&swarm);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for w in 0..threads {
            let (swarm, reference, tap, next_id, sessions) =
                (&swarm, &reference, tap.as_ref(), &next_id, &sessions);
            s.spawn(move || {
                // The seed fixes which order each viewer lists the seeds in.
                let mut rng = SplitMix::new(seed ^ ((w as u64) << 32));
                let mut candidates = swarm.seed_candidates();
                while Instant::now() < deadline {
                    rng.shuffle(&mut candidates);
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let one = stream_one(swarm, id, candidates.clone(), reference, tap, clock);
                    sessions.lock().expect("sessions lock").push(one);
                }
            });
        }
    });
    let after = Counters::read(&swarm);
    let sessions = sessions.into_inner().expect("sessions lock");
    swarm.shutdown();
    Swarm::set_up(&info, SEEDS, threads, SETUP_REPEATS, &mut setup_times).shutdown();
    let setup_s = median(&setup_times);

    let mut run = Run::default();
    let mut session_ms = Dist::new();
    let mut verified = 0u64;
    for s in &sessions {
        run.attempted += 1;
        if s.viewer.verified {
            verified += 1;
            session_ms.push(ms(s.session));
        } else {
            run.failed += 1;
            session_ms.miss();
        }
    }
    run.check(
        "bulk: every completed viewer's file is byte-equal to the original",
        sessions
            .iter()
            .all(|s| s.viewer.outcome.is_none() || s.viewer.verified),
        format!("{verified} of {} sessions verified", sessions.len()),
    );
    if let Some(e) = sessions.iter().find_map(|s| s.viewer.error.as_ref()) {
        println!("  first failed session: {e}");
    }
    let wall = before.wall(&after).as_secs_f64();
    let cpu_ms = before.cpu_ms_per_session(&after, verified);
    run.e2e("setup_s", "s", setup_s);
    run.percentile(
        Kind::EndToEnd,
        "latency_ms",
        "ms",
        &mut session_ms,
        50.0,
        None,
    );
    run.e2e("ops_per_s", "1/s", verified as f64 / wall);
    run.e2e("cpu_us_per_op", "us", cpu_ms * 1e3);
    run.e2e("peak_rss_MB", "MB", peak_rss_mb());
    for (name, p) in [("session_ms.p50", 50.0), ("session_ms.p90", 90.0)] {
        run.percentile(Kind::Printed, name, "ms", &mut session_ms, p, None);
    }
    run.metric(
        Kind::Printed,
        "payload_MBps",
        "MB/s",
        (verified * info.total_bytes()) as f64 / wall / 1e6,
    );
    run.metric(Kind::Printed, "cpu_ms_per_session", "ms", cpu_ms);

    if traced {
        ledger(&sessions);
        let viewers: Vec<&Viewer> = sessions.iter().map(|s| &s.viewer).collect();
        session_layers(&viewers, &mut run);
        before.layers(&after, verified, &mut run);
    }
    run
}

/// Splits each verified session into the layers it crossed and prints
/// the mean of each part and the share no layer accounts for.
fn ledger(sessions: &[Session]) {
    let mut ledger = Ledger::new([
        "begin_stream_from (connects)",
        "admission round",
        "backoff on retries",
        "wait for first segment",
        "streaming",
        "wait tail (file + return)",
    ]);
    for s in sessions.iter().filter(|s| s.viewer.verified) {
        let v = &s.viewer;
        let timelines: Option<Vec<&Timeline>> =
            v.attempts.iter().map(|a| a.timeline.as_ref()).collect();
        let Some(timelines) = timelines else {
            continue; // some attempt's recorder was not found
        };
        let last = timelines.last().expect("a verified viewer made an attempt");
        let (Some(rounds), Some(first), Some(first_at), Some(done)) = (
            timelines.iter().map(|t| t.round_ms()).sum::<Option<f64>>(),
            last.first_segment_wait_ms(),
            last.first_segment_ms,
            last.completed_ms,
        ) else {
            continue;
        };
        let parts = [
            v.attempts.iter().map(|a| ms(a.begin)).sum(),
            rounds,
            v.rejections() as f64 * ms(BACKOFF),
            first,
            (done - first_at) as f64,
            // A recorder stamp is the whole millisecond the event fell in.
            v.returned_ms - (done as f64 + 0.5),
        ];
        ledger.add(parts, ms(s.session));
    }
    ledger.print("swarm_bulk session ledger", "session (end to end)");
}
