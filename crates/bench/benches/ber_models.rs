//! Microbench: analytic BER evaluation (Marcum-Q-based noncoherent OOK vs
//! its committed knot-table interpolation vs the coherent Q-function form).

use braidio_phy::ber::{ber_coherent, ber_ook_noncoherent, ber_ook_noncoherent_fast};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_ber(c: &mut Criterion) {
    c.bench_function("ber_noncoherent_ook_10db", |b| {
        b.iter(|| ber_ook_noncoherent(black_box(10.0)))
    });
    c.bench_function("ber_noncoherent_ook_fast_10db", |b| {
        b.iter(|| ber_ook_noncoherent_fast(black_box(10.0)))
    });
    c.bench_function("ber_coherent_10db", |b| {
        b.iter(|| ber_coherent(black_box(10.0)))
    });
    c.bench_function("ber_noncoherent_sweep_20pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=20 {
                acc += ber_ook_noncoherent(black_box(i as f64));
            }
            acc
        })
    });
}

criterion_group!(benches, bench_ber);
criterion_main!(benches);
