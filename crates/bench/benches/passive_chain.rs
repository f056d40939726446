//! Microbench: the passive receive chain's sample pipeline (the inner loop
//! of every Monte-Carlo BER experiment).

use braidio_circuits::PassiveReceiverChain;
use braidio_phy::modulation::OokModulator;
use braidio_units::BitsPerSecond;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_chain(c: &mut Criterion) {
    let chain = PassiveReceiverChain::braidio();
    let modulator = OokModulator::new(20, 0.05, 0.0);
    let bits: Vec<bool> = (0..512).map(|i| i % 3 == 0).collect();
    let envelope = modulator.modulate(&bits);
    let dt = modulator.sample_interval(BitsPerSecond::KBPS_100);

    c.bench_function("chain_demodulate_512_bits", |b| {
        b.iter(|| chain.demodulate(black_box(&envelope), black_box(dt)))
    });

    c.bench_function("chain_sensitivity_query", |b| {
        b.iter(|| chain.sensitivity_dbm(black_box(braidio_units::Hertz::from_khz(100.0))))
    });
}

criterion_group!(benches, bench_chain);
criterion_main!(benches);
