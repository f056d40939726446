//! Microbench: frame codec and CRC — the per-packet work a Braidio MCU
//! performs.

use braidio_phy::crc::crc16_ccitt;
use braidio_phy::frame::Frame;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_framing(c: &mut Criterion) {
    let payload = vec![0xA5u8; 255];
    let frame = Frame::new(payload.clone());
    let bits = frame.encode();

    c.bench_function("frame_encode_255B", |b| {
        b.iter(|| black_box(&frame).encode())
    });
    c.bench_function("frame_decode_255B", |b| {
        b.iter(|| Frame::decode(black_box(&bits), 2).unwrap())
    });
    c.bench_function("crc16_255B", |b| {
        b.iter(|| crc16_ccitt(black_box(&payload)))
    });
}

criterion_group!(benches, bench_framing);
criterion_main!(benches);
