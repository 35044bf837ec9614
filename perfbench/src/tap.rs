//! Reading the program's own flight recorders from outside.
//!
//! Every requester session registers a `session={id}` scope with an
//! `events` recorder under its reactor's monitor tree while it runs. The
//! benchmark does not know the session id a `begin_stream` call picked,
//! so right after each call it snapshots the tree and takes the one
//! session scope it has not seen before. A snapshot row holds a live
//! handle to the ring, so the timeline stays readable after the session
//! has ended and its scope has left the tree.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use p2ps_monitor::{monotonic_ms, Monitor, Recorder};
use p2ps_proto::SessionEvent;

/// Finds session recorders that appeared since the last call.
pub struct SessionTap {
    monitor: Monitor,
    seen: HashSet<String>,
}

impl SessionTap {
    pub fn new(monitor: &Monitor) -> SessionTap {
        SessionTap {
            monitor: monitor.clone(),
            seen: HashSet::new(),
        }
    }

    /// The recorder of the one session that appeared since the last
    /// call, or `None` if no new session is visible (it ended before the
    /// snapshot) or more than one is (the match would be ambiguous).
    pub fn newest(&mut self) -> Option<Recorder> {
        let snap = self.monitor.snapshot();
        let mut found = Vec::new();
        for node in snap.nodes() {
            let Some(id) = node.label("session") else {
                continue;
            };
            if self.seen.insert(id.to_owned()) {
                if let Some(rec) = node.metric("events").and_then(|m| m.handle().as_recorder()) {
                    found.push(rec.clone());
                }
            }
        }
        (found.len() == 1).then(|| found.remove(0))
    }
}

/// Maps an `Instant` onto the flight recorders' millisecond clock
/// ([`monotonic_ms`]), with sub-millisecond precision.
#[derive(Debug, Clone, Copy)]
pub struct RecorderClock {
    epoch: Instant,
}

impl RecorderClock {
    /// Calibrates by waiting for the recorder clock to tick: at that
    /// moment it has just reached a whole millisecond.
    pub fn calibrate() -> RecorderClock {
        let t0 = monotonic_ms();
        loop {
            let now = Instant::now();
            let t = monotonic_ms();
            if t != t0 {
                return RecorderClock {
                    epoch: now - Duration::from_millis(t),
                };
            }
            std::hint::spin_loop();
        }
    }

    /// `at` in recorder milliseconds.
    pub fn ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }
}

/// One session's protocol timeline, in whole recorder milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    pub requests: u64,
    pub grants: u64,
    /// First `StreamRequest` sent.
    pub request_ms: Option<u64>,
    /// The round's verdict: the first plan sent, or the last reply of a
    /// rejected round.
    pub verdict_ms: Option<u64>,
    pub plan_ms: Option<u64>,
    pub first_segment_ms: Option<u64>,
    pub completed_ms: Option<u64>,
    pub replans: u64,
    pub stalls: u64,
}

impl Timeline {
    pub fn read(rec: &Recorder) -> Timeline {
        let mut t = Timeline::default();
        let mut last_reply = None;
        for ev in rec.events() {
            match SessionEvent::decode(ev.code, ev.a, ev.b) {
                Some(SessionEvent::AdmissionRequest { .. }) => {
                    t.requests += 1;
                    t.request_ms.get_or_insert(ev.at_ms);
                }
                Some(SessionEvent::AdmissionGrant { .. }) => {
                    t.grants += 1;
                    last_reply = Some(ev.at_ms);
                }
                Some(SessionEvent::AdmissionDeny { .. }) => last_reply = Some(ev.at_ms),
                Some(SessionEvent::PlanSent { .. }) => {
                    t.plan_ms.get_or_insert(ev.at_ms);
                }
                Some(SessionEvent::SegmentArrived { .. }) => {
                    t.first_segment_ms.get_or_insert(ev.at_ms);
                }
                Some(SessionEvent::Replanned { .. }) => t.replans += 1,
                Some(SessionEvent::StallFlagged { .. }) => t.stalls += 1,
                Some(SessionEvent::Completed { .. }) => t.completed_ms = Some(ev.at_ms),
                _ => {}
            }
        }
        t.verdict_ms = t.plan_ms.or(last_reply);
        t
    }

    /// Request to verdict.
    pub fn round_ms(&self) -> Option<f64> {
        Some(self.verdict_ms?.checked_sub(self.request_ms?)? as f64)
    }

    /// Plan sent to first segment accepted.
    pub fn first_segment_wait_ms(&self) -> Option<f64> {
        Some(self.first_segment_ms?.checked_sub(self.plan_ms?)? as f64)
    }
}
