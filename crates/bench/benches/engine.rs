//! Macrobench: the parallel simulation engine, serial vs pooled.
//!
//! Covers the two heaviest paths the pool accelerates — the 10×10 device
//! matrix behind Figs. 15–17 and the chunked Monte-Carlo BER runs — plus
//! the memoized offload solver the matrix leans on. Results are
//! bit-identical at every thread count, so the serial and parallel rows
//! measure the same computation.

use braidio::pool;
use braidio_bench::{fig15, render};
use braidio_mac::offload::{options_at, solve, solve_memo};
use braidio_phy::montecarlo::MonteCarloBer;
use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::Mode;
use braidio_units::{BitsPerSecond, Joules, Meters};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_device_matrix(c: &mut Criterion) {
    c.bench_function("device_matrix/fig15/serial", |b| {
        b.iter(|| pool::with_threads(1, || black_box(render::matrix_values(fig15::cell))))
    });
    let n = pool::thread_count().max(2);
    c.bench_function("device_matrix/fig15/pooled", |b| {
        b.iter(|| pool::with_threads(n, || black_box(render::matrix_values(fig15::cell))))
    });
}

fn bench_montecarlo(c: &mut Criterion) {
    // Five chunks' worth of bits at 100 kbps — the calibration workload
    // shape used by `braidio-bench::validation`.
    let mc = MonteCarloBer::at_snr_db(8.0, BitsPerSecond::KBPS_100, 20_000, 17);
    c.bench_function("montecarlo/20k_bits/serial", |b| {
        b.iter(|| pool::with_threads(1, || black_box(mc.run())))
    });
    let n = pool::thread_count().max(2);
    c.bench_function("montecarlo/20k_bits/pooled", |b| {
        b.iter(|| pool::with_threads(n, || black_box(mc.run())))
    });
}

fn bench_streaming_chunk(c: &mut Criterion) {
    // One full Monte-Carlo chunk at 1 kbps: CHUNK_BITS bits × 20 000 samples
    // per bit ≈ 82 M samples, exactly the unit of work the engine hands each
    // pool worker, through the fused streaming path.
    use braidio_phy::montecarlo::{chunk_seed, CHUNK_BITS};

    let nbits = CHUNK_BITS;
    let mc = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::new(1_000.0), nbits, 11);
    let seed = chunk_seed(11, 0);
    c.bench_function("montecarlo/1kbps_chunk/streaming", |b| {
        b.iter(|| black_box(mc.run_chunk(nbits, seed)))
    });
}

fn bench_solver(c: &mut Criterion) {
    let ch = Characterization::braidio();
    let opts = options_at(&ch, Meters::new(0.5));
    let e1 = Joules::from_watt_hours(6.55);
    let e2 = Joules::from_watt_hours(11.1);
    c.bench_function("offload/solve/cold", |b| {
        b.iter(|| solve(black_box(&opts), black_box(e1), black_box(e2)))
    });
    c.bench_function("offload/solve/quantized", |b| {
        b.iter(|| solve_memo(black_box(&opts), black_box(e1), black_box(e2)))
    });
}

fn bench_telemetry_off_overhead(c: &mut Criterion) {
    // The telemetry contract's first clause: zero cost when off. Both arms
    // run the same fleet scenario with no sink attached; the `off` arm
    // pays one thread-local load per instrumentation site, the
    // `capturing` arm actually buffers events (and is drained between
    // iterations so the buffer does not grow without bound). The two
    // should be within noise of each other apart from the buffering cost
    // itself.
    use braidio_bench::fleet;
    let grid = fleet::scenarios();
    let scenario = &grid[0].1;
    c.bench_function("telemetry/fleet_scenario/off", |b| {
        b.iter(|| black_box(braidio_net::run_fleet(scenario)))
    });
    c.bench_function("telemetry/fleet_scenario/capturing", |b| {
        braidio_telemetry::set_enabled(true);
        b.iter(|| {
            let r = black_box(braidio_net::run_fleet(scenario));
            braidio_telemetry::take_events();
            r
        });
        braidio_telemetry::set_enabled(false);
        braidio_telemetry::take_events();
    });
}

fn bench_characterization(c: &mut Criterion) {
    // `braidio()` used to rebuild the calibration per call; it is now a
    // clone out of a process-wide cache...
    c.bench_function("characterization/cached_clone", |b| {
        b.iter(|| black_box(Characterization::braidio()))
    });
    // ...and `range()` used to bisect per call; it is now a table lookup.
    let ch = Characterization::braidio();
    c.bench_function("characterization/range_lookup", |b| {
        b.iter(|| black_box(ch.range(Mode::Passive, Rate::Kbps100)))
    });
}

fn bench_kernel(c: &mut Criterion) {
    // The fleet kernel's event queue under the classic hold model: each
    // iteration pops the earliest event and re-arms its owner. The
    // uniform arm is fleetbench's kernel replay (2 047 deep, re-armed a
    // uniform [0, 1) s later); the lattice arm is room-long's shape:
    // 1 024 pairs associated on a 1 ms stagger and re-armed a fixed 0.2 s
    // later, so deliveries arrive in groups that share an instant.
    use braidio_net::EventQueue;
    use braidio_units::Seconds;

    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut uniform = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut q: EventQueue<u32> = EventQueue::with_capacity(2047);
    for i in 0..2047u32 {
        q.schedule(Seconds::new(uniform()), u64::from(i % 4), i, i);
    }
    c.bench_function("kernel/hold_uniform_2047", |b| {
        b.iter(|| {
            let ev = q.pop().expect("the hold keeps the queue full");
            let at = Seconds::new(ev.time.seconds() + uniform());
            q.schedule(at, ev.seq, ev.device, ev.event);
        })
    });

    let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
    for i in 0..1024u32 {
        q.schedule(Seconds::new(f64::from(i) * 1e-3), u64::from(i % 4), i, i);
    }
    c.bench_function("kernel/hold_lattice_1024", |b| {
        b.iter(|| {
            let ev = q.pop().expect("the hold keeps the queue full");
            let at = Seconds::new(ev.time.seconds() + 0.2);
            q.schedule(at, ev.seq, ev.device, ev.event);
        })
    });
}

fn bench_quantum_loop(c: &mut Criterion) {
    // A room-shaped fleet (256 pairs on a 3 m grid, uncoordinated) for ten
    // simulated minutes, about 0.75 M quantum completions: after the one
    // bring-up wave the run is the serial event loop, where each quantum is
    // checked against the live batteries and copied from its pair's
    // compiled recipe.
    use braidio_net::{run_fleet, Arbitration, FleetScenario};
    use braidio_units::Seconds;

    let sc = FleetScenario::grid_pairs(
        256,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(600.0));
    c.bench_function("fleet/room_grid_256_600s", |b| {
        b.iter(|| black_box(run_fleet(black_box(&sc))))
    });
}

criterion_group!(
    benches,
    bench_device_matrix,
    bench_montecarlo,
    bench_streaming_chunk,
    bench_solver,
    bench_telemetry_off_overhead,
    bench_characterization,
    bench_kernel,
    bench_quantum_loop
);
criterion_main!(benches);
