//! Monte-Carlo BER through the real receive chain.
//!
//! The closed forms in [`crate::ber`] assume an ideal envelope detector with
//! an optimal threshold. This module transmits actual random bits through
//! the `braidio-circuits` passive chain — matching boost, square-law pump,
//! attack/decay detector, high-pass, amplifier, comparator — with additive
//! Gaussian envelope noise, and counts errors. It validates the closed
//! forms and exposes the chain's real-world penalties (ISI at high
//! bitrates, settling, hysteresis).
//!
//! ## Fused streaming evaluation
//!
//! A chunk is evaluated as one fused per-sample loop: the OOK level, the
//! additive Gaussian corruption ([`crate::noise`]) and all five receive
//! stages ([`braidio_circuits::StreamingChain`]) touch each sample exactly
//! once, and only the per-bit decision instants are retained. No waveform
//! or stage vector is ever materialized — a chunk's heap footprint is the
//! bit vector alone, O(1) allocations regardless of samples-per-bit
//! (asserted by the counting-allocator test below). The RNG draw order
//! (all data bits first, then two uniforms per sample) and every
//! arithmetic operation match the original batch pipeline, so estimates
//! are bit-identical to it.
//!
//! ## Chunked bit stream
//!
//! A run is split into independent bursts of at most [`CHUNK_BITS`] data
//! bits. Each chunk carries its own training preamble and draws its bits
//! and noise from its own RNG stream, seeded by a pure function of the run
//! seed and the chunk index ([`chunk_seed`]). Chunks are therefore
//! order-independent: they are evaluated concurrently on the
//! `braidio_pool` work pool and merged in index order, so a run's
//! [`BerEstimate`] is bit-identical at any thread count. The chunking
//! *redefines* the simulated bit stream relative to a single monolithic
//! burst — one long transmission becomes `ceil(bits / CHUNK_BITS)` short
//! ones — but every chunk still settles through its own preamble, so the
//! estimator targets the same steady-state BER.

use crate::modulation::OokModulator;
use crate::noise::GaussianEnvelopeNoise;
use braidio_circuits::PassiveReceiverChain;
use braidio_pool as pool;
use braidio_units::BitsPerSecond;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum number of data bits simulated per independent chunk.
///
/// Small enough that the 10k–100k-bit calibration runs expose parallelism,
/// large enough that the 16-bit training preamble stays a small overhead.
pub const CHUNK_BITS: usize = 4096;

/// The RNG seed of chunk `chunk` of a run started with `seed`.
///
/// A SplitMix64-style finalizer over the pair: a pure function of its
/// arguments, so the bit stream of every chunk is fixed regardless of
/// which thread evaluates it or in what order.
pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed.wrapping_add(chunk.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a Monte-Carlo BER run.
#[derive(Debug, Clone)]
pub struct MonteCarloBer {
    /// The receive chain under test.
    pub chain: PassiveReceiverChain,
    /// Envelope amplitude of a `1` symbol at the antenna, volts.
    pub envelope_high: f64,
    /// Envelope amplitude of a `0` symbol (residual reflection).
    pub envelope_low: f64,
    /// RMS additive envelope noise at the antenna, volts.
    pub noise_rms: f64,
    /// Bitrate under test.
    pub rate: BitsPerSecond,
    /// Samples per bit.
    pub samples_per_bit: usize,
    /// Number of data bits per run.
    pub bits: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct BerEstimate {
    /// Bits compared.
    pub bits: usize,
    /// Bit errors observed.
    pub errors: usize,
}

impl BerEstimate {
    /// The estimated bit error rate.
    pub fn ber(&self) -> f64 {
        self.errors as f64 / self.bits as f64
    }
}

impl MonteCarloBer {
    /// A run at the given envelope SNR (`high²/2 / noise²`, measured in the
    /// detector bandwidth) with sensible defaults.
    ///
    /// The envelope is sampled on a fixed physical grid (20 MS/s) so the
    /// white detector noise occupies the same bandwidth at every bitrate —
    /// slower bitrates then differ only through settling and ISI, as in
    /// hardware, not through an artificial noise-bandwidth change.
    pub fn at_snr_db(snr_db: f64, rate: BitsPerSecond, bits: usize, seed: u64) -> Self {
        Self::at_snr(10f64.powf(snr_db / 10.0), rate, bits, seed)
    }

    /// As [`MonteCarloBer::at_snr_db`] but taking the SNR as a linear power
    /// ratio `gamma` directly, avoiding a dB round-trip for callers (the
    /// BER response surface) that already hold the linear value.
    pub fn at_snr(gamma: f64, rate: BitsPerSecond, bits: usize, seed: u64) -> Self {
        let high = 0.05f64; // comfortably above chain sensitivity
        let chain = PassiveReceiverChain::braidio();
        let sample_rate = 20e6f64;
        let samples_per_bit = ((sample_rate / rate.bps()).round() as usize).max(10);
        // `snr_db` is defined in the detector's noise-equivalent bandwidth.
        // The follower is asymmetric: upward noise excursions are tracked at
        // the attack rate, downward ones released at the decay rate, so the
        // effective noise bandwidth sits between 1/(4·τ_attack) and
        // 1/(4·τ_decay); the geometric mean models the rectified fluctuation
        // power well (validated against the closed form in
        // `braidio-bench::validation`). The white noise we inject is spread
        // over the full sampling Nyquist bandwidth, so the per-sample RMS is
        // scaled so the detector-band portion matches the requested SNR.
        let tau_eff = (chain.detector.attack.seconds() * chain.detector.decay.seconds()).sqrt();
        let detector_bw = 1.0 / (4.0 * tau_eff);
        let nyquist = sample_rate / 2.0;
        let noise_in_band = (high * high / 2.0 / gamma).sqrt();
        let noise_rms = noise_in_band * (nyquist / detector_bw).sqrt();
        MonteCarloBer {
            chain,
            envelope_high: high,
            envelope_low: 0.0,
            noise_rms,
            rate,
            samples_per_bit,
            bits,
            seed,
        }
    }

    /// Run the experiment: evaluate the run's chunks concurrently and merge
    /// their counts in index order (see the module docs on chunking).
    pub fn run(&self) -> BerEstimate {
        let nchunks = self.bits.div_ceil(CHUNK_BITS);
        let estimates = pool::par_map_indexed(nchunks, |c| {
            let nbits = CHUNK_BITS.min(self.bits - c * CHUNK_BITS);
            self.run_chunk(nbits, chunk_seed(self.seed, c as u64))
        });
        estimates
            .iter()
            .fold(BerEstimate { bits: 0, errors: 0 }, |acc, e| BerEstimate {
                bits: acc.bits + e.bits,
                errors: acc.errors + e.errors,
            })
    }

    /// One independent burst of `nbits` data bits behind a fresh training
    /// preamble, with its own RNG stream.
    ///
    /// This is the fused hot loop: modulation level, Gaussian corruption
    /// and the five-stage streaming chain run per sample, retaining only
    /// each bit's decision instant. Public so the allocator and equality
    /// tests can exercise a single chunk directly; everything else should
    /// go through [`MonteCarloBer::run`].
    pub fn run_chunk(&self, nbits: usize, seed: u64) -> BerEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        // Leading training bits let the high-pass and comparator settle and
        // are excluded from the count (they play the preamble's role).
        let training = 16usize;
        let mut bits: Vec<bool> = Vec::with_capacity(training + nbits);
        for i in 0..training {
            bits.push(i % 2 == 0);
        }
        for _ in 0..nbits {
            bits.push(rng.random_bool(0.5));
        }

        let modulator = OokModulator::new(self.samples_per_bit, self.envelope_high, {
            // OokModulator requires high > low; allow a zero low level.
            self.envelope_low
        });
        let dt = modulator.sample_interval(self.rate);
        // The RNG moves to the noise source after the bit draws, keeping
        // the chunk's overall draw order identical to the batch pipeline.
        let mut noise = GaussianEnvelopeNoise::new(rng, self.noise_rms);
        let mut chain = self.chain.streaming(dt);
        // Where within a bit the settled envelope is sampled, matching
        // `modulator.decision_index(i) - i * samples_per_bit`.
        let decision_offset = (3 * self.samples_per_bit) / 4;

        let mut errors = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            let level = modulator.level(bit);
            let mut decided = false;
            for s in 0..self.samples_per_bit {
                let out = chain.push(noise.corrupt(level));
                if s == decision_offset {
                    decided = out;
                }
            }
            if i >= training && decided != bit {
                errors += 1;
            }
        }
        BerEstimate {
            bits: nbits,
            errors,
        }
    }
}

/// A counting wrapper around the system allocator, installed only in the
/// crate's test binary so the zero-allocation claim about the fused chunk
/// loop is *asserted*, not just documented. The counter is thread-local
/// (const-initialized, so reading it never allocates) to keep concurrently
/// running tests from polluting each other's counts.
#[cfg(test)]
mod test_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAllocator;

    // SAFETY: delegates all allocation to `System`; only bookkeeping added.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    /// Heap allocations performed by the current thread so far.
    pub fn current() -> u64 {
        ALLOCATIONS.with(|c| c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::ber_ook_noncoherent;

    #[test]
    fn clean_channel_is_error_free() {
        let mc = MonteCarloBer::at_snr_db(40.0, BitsPerSecond::KBPS_100, 400, 1);
        let est = mc.run();
        assert_eq!(est.errors, 0, "ber {}", est.ber());
    }

    #[test]
    fn noisy_channel_produces_errors() {
        let mc = MonteCarloBer::at_snr_db(2.0, BitsPerSecond::KBPS_100, 2000, 2);
        let est = mc.run();
        assert!(est.ber() > 0.02, "ber {}", est.ber());
    }

    #[test]
    fn ber_falls_with_snr() {
        let lo = MonteCarloBer::at_snr_db(4.0, BitsPerSecond::KBPS_100, 3000, 3)
            .run()
            .ber();
        let hi = MonteCarloBer::at_snr_db(12.0, BitsPerSecond::KBPS_100, 3000, 3)
            .run()
            .ber();
        assert!(hi < lo, "hi-SNR {hi} vs lo-SNR {lo}");
    }

    #[test]
    fn tracks_analytic_model_loosely() {
        // The real chain (suboptimal fixed slicer, ISI, hysteresis) should
        // land within an order of magnitude of the ideal noncoherent model
        // at moderate SNR.
        let snr_db = 10.0;
        let est = MonteCarloBer::at_snr_db(snr_db, BitsPerSecond::KBPS_100, 20_000, 4).run();
        let ideal = ber_ook_noncoherent(10f64.powf(snr_db / 10.0));
        let measured = est.ber().max(1.0 / est.bits as f64);
        let ratio = measured / ideal;
        assert!(
            (0.05..=50.0).contains(&ratio),
            "measured {measured:.3e} vs ideal {ideal:.3e}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::KBPS_100, 1000, 9).run();
        let b = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::KBPS_100, 1000, 9).run();
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    fn identical_at_any_thread_count() {
        // Spans three chunks (4096 + 4096 + 1808); counts must not depend
        // on how chunks land on threads.
        let mc = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::KBPS_100, 10_000, 7);
        let serial = pool::with_threads(1, || mc.run());
        for n in [2usize, 4] {
            let par = pool::with_threads(n, || mc.run());
            assert_eq!(serial.errors, par.errors, "threads={n}");
            assert_eq!(serial.bits, par.bits, "threads={n}");
        }
    }

    #[test]
    fn chunk_performs_o1_heap_allocations() {
        // 1 kbps puts 20 000 samples in every bit — the regime where the
        // pre-fusion pipeline allocated five full-length stage vectors
        // (hundreds of MB per chunk). The fused loop must stay at O(1)
        // allocations (the bit vector) no matter how many samples it
        // touches.
        let mc = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::new(1_000.0), 64, 3);
        assert_eq!(mc.samples_per_bit, 20_000);
        // Warm up any lazily initialized paths before counting.
        let _ = mc.run_chunk(4, chunk_seed(3, 0));
        let before = super::test_alloc::current();
        let est = mc.run_chunk(64, chunk_seed(3, 0));
        let allocations = super::test_alloc::current() - before;
        assert_eq!(est.bits, 64);
        assert!(
            allocations <= 8,
            "fused chunk should allocate O(1) times over 1.6M samples, did {allocations}"
        );
    }

    #[test]
    fn high_bitrate_suffers_isi_penalty() {
        // At 1 Mbps the detector dynamics eat into margin; at equal envelope
        // SNR the error rate should be no better than at 100 kbps.
        let slow = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::KBPS_100, 4000, 5)
            .run()
            .ber();
        let fast = MonteCarloBer::at_snr_db(6.0, BitsPerSecond::MBPS_1, 4000, 5)
            .run()
            .ber();
        assert!(
            fast >= slow * 0.8,
            "1 Mbps ber {fast} should not beat 100 kbps ber {slow}"
        );
    }
}
