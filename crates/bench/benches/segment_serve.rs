//! Micro-benchmarks for the zero-copy segment-serving path.
//!
//! The paper's capacity math assumes a supplier saturates its out-bound
//! bandwidth; per-segment handling cost must therefore not scale with the
//! payload size. These benches pin that property: `Bytes::clone`,
//! `MediaFile::segment` and building the `SegmentData` frame header are
//! all O(1) in payload size (the reported ns/iter stays flat from 4 KiB
//! to 4 MiB), while the `encode-copy` group shows what the pre-Arc
//! deep-copy path used to cost for comparison. The store side of
//! "playback *and store*" is flat too: `MediaFile::from_store` keeps the
//! received payload views, so its cost depends on the segment count
//! only.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use p2ps_core::assignment::SegmentDuration;
use p2ps_media::{MediaFile, MediaInfo, Segment, SegmentStore};
use p2ps_proto::{encode_frame, write_message, Message};

const SIZES: [usize; 4] = [4 * 1024, 64 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// `Bytes::clone` must be a refcount bump, independent of length.
fn bench_bytes_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment-serve/bytes-clone");
    for size in SIZES {
        let payload = Bytes::from(vec![0xa5u8; size]);
        group.bench_with_input(BenchmarkId::from_parameter(size), &payload, |b, p| {
            b.iter(|| black_box(p.clone()))
        });
    }
    group.finish();
}

/// `MediaFile::segment` must hand out an O(1) view of the file allocation.
fn bench_segment_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment-serve/segment-view");
    for size in SIZES {
        let info = MediaInfo::new("bench", 8, SegmentDuration::from_millis(250), size as u32);
        let file = MediaFile::synthesize(info);
        group.bench_with_input(BenchmarkId::from_parameter(size), &file, |b, f| {
            b.iter(|| black_box(f.segment(3)))
        });
    }
    group.finish();
}

/// The supplier's whole per-segment serving step — view the segment and
/// splice it onto a sink behind a fixed header — must not copy payload.
fn bench_serve_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment-serve/serve-write");
    for size in SIZES {
        let info = MediaInfo::new("bench", 8, SegmentDuration::from_millis(250), size as u32);
        let file = MediaFile::synthesize(info);
        group.bench_with_input(BenchmarkId::from_parameter(size), &file, |b, f| {
            b.iter(|| {
                let msg = Message::SegmentData {
                    session: 1,
                    index: 3,
                    payload: f.segment(3).into_payload(),
                };
                write_message(std::io::sink(), black_box(&msg)).unwrap();
            })
        });
    }
    group.finish();
}

/// Reassembling a received file must keep the stored payload views:
/// O(segments), flat in segment size. Each payload has its own
/// allocation, like a frame off the wire.
fn bench_reassemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment-serve/reassemble");
    for size in SIZES {
        let info = MediaInfo::new("bench", 8, SegmentDuration::from_millis(250), size as u32);
        let mut store = SegmentStore::new(8);
        for i in 0..8 {
            store.insert(Segment::new(i, Bytes::from(vec![i as u8; size])));
        }
        group.bench_with_input(BenchmarkId::from_parameter(size), &store, |b, s| {
            b.iter(|| black_box(MediaFile::from_store(info.clone(), s)))
        });
    }
    group.finish();
}

/// The copying baseline: encoding the payload into an intermediate frame
/// buffer scales linearly with payload size (reported MB/s), which is why
/// the serving loop avoids it.
fn bench_encode_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment-serve/encode-copy");
    for size in SIZES {
        let msg = Message::SegmentData {
            session: 1,
            index: 3,
            payload: Bytes::from(vec![0xa5u8; size]),
        };
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &msg, |b, m| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(size + 32);
                encode_frame(black_box(m), &mut buf);
                buf
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bytes_clone,
    bench_segment_view,
    bench_serve_write,
    bench_reassemble,
    bench_encode_copy
);
criterion_main!(benches);
